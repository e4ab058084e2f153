//! Message delivery with bounded inboxes.
//!
//! The old runtime wired every rank to every other rank with its own
//! unbounded channel sender — an O(N²) table (~800 MB of channel handles
//! at 10,000 ranks) whose queues a send storm could grow without bound.
//! The router replaces all of that with one locked FIFO inbox per rank,
//! shared by both scheduler backends:
//!
//! * **per-pair FIFO**: a rank's sends are sequential and each push takes
//!   the destination's lock, so the non-overtaking guarantee is exactly
//!   the old per-channel one;
//! * **receiver wakes**: a push wakes a parked fiber (event mode) or
//!   notifies a condvar (thread mode);
//! * **backpressure**: user-payload traffic to a remote rank parks the
//!   *sender* while the destination inbox sits at its high-water mark
//!   (default [`DEFAULT_INBOX_HWM`], tunable via `TEMPI_INBOX_HWM`, 0 =
//!   unbounded), so a 4,096-rank send storm holds O(ranks · HWM) messages
//!   instead of growing forever. Control traffic (negative tags: death
//!   notices, revocations, agreement, barriers, collective protocol) and
//!   self-sends are exempt — their progress guarantees are what recovery
//!   correctness is built on. A world that wedges on full inboxes is a
//!   real deadlock under finite buffering and is reported as one
//!   (`send backpressure(dest=N)` ops in the verdict).
//!
//! Sends never fail: unlike channels, an inbox has no "disconnected"
//! state, so traffic to a rank whose body already returned simply sits in
//! its queue (the watchdog's per-destination accounting already handles
//! that case).

use std::collections::VecDeque;
use std::time::Duration;

use gpu_sim::SimTime;
use parking_lot::{Condvar, Mutex, MutexGuard};

use super::SchedCore;
use crate::p2p::Message;
use crate::watchdog::Watchdog;

/// Default per-rank inbox high-water mark, in messages.
pub(crate) const DEFAULT_INBOX_HWM: usize = 8192;

/// Most bytes of buffer capacity the part-payload free list retains. One
/// pipelined transfer has at most its own size in flight, and the model
/// only pipelines objects of a few MiB, so this recycles every part of the
/// sends that use it while a world of any size holds at most this much.
pub const PAYLOAD_POOL_BYTES: usize = 8 << 20;

/// Spent part payloads awaiting reuse, with their total capacity.
#[derive(Default)]
struct PayloadPool {
    bufs: Vec<Vec<u8>>,
    bytes: usize,
}

#[derive(Default)]
struct InboxQ {
    msgs: VecDeque<Message>,
    /// Event mode: the owning fiber is parked waiting for a push.
    recv_parked: bool,
    /// Event mode: sender ranks parked on this inbox's high-water mark.
    send_parked: Vec<usize>,
}

struct InboxSlot {
    q: Mutex<InboxQ>,
    /// Thread mode: the owning rank waits here for a push.
    recv_cv: Condvar,
    /// Thread mode: backpressured senders wait here for a drain.
    send_cv: Condvar,
}

/// Shared delivery fabric for one world: a bounded FIFO inbox per rank.
pub(crate) struct Router {
    slots: Vec<InboxSlot>,
    hwm: usize,
    /// Part payloads are allocated by the sender and freed by the
    /// receiver, so only a list both can reach recycles them.
    payloads: Mutex<PayloadPool>,
}

impl Router {
    /// A router for `n` ranks with the given high-water mark (0 =
    /// unbounded).
    pub(crate) fn new(n: usize, hwm: usize) -> Router {
        Router {
            slots: (0..n)
                .map(|_| InboxSlot {
                    q: Mutex::new(InboxQ::default()),
                    recv_cv: Condvar::new(),
                    send_cv: Condvar::new(),
                })
                .collect(),
            hwm,
            payloads: Mutex::new(PayloadPool::default()),
        }
    }

    /// An empty buffer with room for `len` bytes: the smallest pooled one
    /// that is large enough, else a fresh allocation.
    pub(crate) fn take_payload(&self, len: usize) -> Vec<u8> {
        let mut pool = self.payloads.lock();
        let fit = (0..pool.bufs.len())
            .filter(|&i| pool.bufs[i].capacity() >= len)
            .min_by_key(|&i| pool.bufs[i].capacity());
        match fit {
            Some(i) => {
                let buf = pool.bufs.swap_remove(i);
                pool.bytes -= buf.capacity();
                buf
            }
            None => Vec::with_capacity(len),
        }
    }

    /// Hand a delivered part payload back for reuse; dropped instead when
    /// the list already holds [`PAYLOAD_POOL_BYTES`].
    pub(crate) fn recycle_payload(&self, mut buf: Vec<u8>) {
        let mut pool = self.payloads.lock();
        if buf.capacity() > 0 && pool.bytes + buf.capacity() <= PAYLOAD_POOL_BYTES {
            buf.clear();
            pool.bytes += buf.capacity();
            pool.bufs.push(buf);
        }
    }

    /// Bytes of capacity the payload free list currently retains.
    pub(crate) fn pooled_payload_bytes(&self) -> usize {
        self.payloads.lock().bytes
    }

    /// The configured high-water mark (0 = unbounded).
    pub(crate) fn hwm(&self) -> usize {
        self.hwm
    }

    /// Push under the queue lock and wake the receiver.
    fn deliver_locked(
        &self,
        dest: usize,
        mut q: MutexGuard<'_, InboxQ>,
        msg: Message,
        sched: Option<&SchedCore>,
    ) {
        q.msgs.push_back(msg);
        let wake = q.recv_parked;
        if wake {
            q.recv_parked = false;
        }
        drop(q);
        self.slots[dest].recv_cv.notify_one();
        if wake {
            sched
                .expect("recv_parked is only ever set in event mode")
                .wake(dest);
        }
    }

    /// Deliver unconditionally (control traffic, self-sends): never
    /// blocks, never fails.
    pub(crate) fn push(&self, dest: usize, msg: Message, sched: Option<&SchedCore>) {
        let q = self.slots[dest].q.lock();
        self.deliver_locked(dest, q, msg, sched);
    }

    /// Deliver subject to the high-water mark: while `dest`'s inbox is
    /// full, park the sending fiber (event mode) or wait on the drain
    /// condvar (thread mode, re-evaluating the watchdog's quiescence
    /// predicate on its poll interval). Once a deadlock verdict exists
    /// the message is force-delivered so the world can drain.
    ///
    /// `me` is the sending world rank, `now` its virtual clock (the wait
    /// is wall-clock machinery only — virtual time is never advanced by
    /// backpressure).
    pub(crate) fn push_bounded(
        &self,
        me: usize,
        dest: usize,
        msg: Message,
        now: SimTime,
        sched: Option<&SchedCore>,
        wd: Option<&Watchdog>,
    ) {
        if self.hwm == 0 {
            self.push(dest, msg, sched);
            return;
        }
        let slot = &self.slots[dest];
        if let Some(sched) = sched {
            loop {
                if sched.verdict().is_some() {
                    break;
                }
                let mut q = slot.q.lock();
                // A spurious wake can leave this sender still registered.
                q.send_parked.retain(|&r| r != me);
                if q.msgs.len() < self.hwm {
                    self.deliver_locked(dest, q, msg, Some(sched));
                    return;
                }
                sched.begin_park(me, now, format!("send backpressure(dest={dest})"));
                q.send_parked.push(me);
                drop(q);
                sched.park_switch(me);
            }
            self.push(dest, msg, Some(sched));
            return;
        }
        let mut q = slot.q.lock();
        match wd {
            None => {
                while q.msgs.len() >= self.hwm {
                    slot.send_cv.wait(&mut q);
                }
            }
            Some(wd) => {
                if q.msgs.len() >= self.hwm {
                    wd.block(me, format!("send backpressure(dest={dest})"), now);
                    while q.msgs.len() >= self.hwm {
                        if wd.poll_detect().is_some() {
                            break; // force-deliver so the world drains
                        }
                        slot.send_cv.wait_for(&mut q, wd.poll_interval());
                    }
                    wd.unblock(me);
                }
            }
        }
        self.deliver_locked(dest, q, msg, sched);
    }

    /// After a pop: once the queue drops below the high-water mark, wake
    /// every backpressured sender (each re-checks and re-parks if the
    /// mark is hit again).
    fn after_pop(&self, me: usize, mut q: MutexGuard<'_, InboxQ>, sched: Option<&SchedCore>) {
        if self.hwm == 0 || q.msgs.len() >= self.hwm {
            return;
        }
        let to_wake = if q.send_parked.is_empty() {
            Vec::new()
        } else {
            std::mem::take(&mut q.send_parked)
        };
        drop(q);
        self.slots[me].send_cv.notify_all();
        if let Some(sched) = sched {
            for r in to_wake {
                sched.wake(r);
            }
        }
    }

    /// Non-blocking pop of `me`'s inbox.
    pub(crate) fn try_recv(&self, me: usize, sched: Option<&SchedCore>) -> Option<Message> {
        let mut q = self.slots[me].q.lock();
        let msg = q.msgs.pop_front();
        if msg.is_some() {
            self.after_pop(me, q, sched);
        }
        msg
    }

    /// Thread mode: block until a message arrives.
    pub(crate) fn recv_thread(&self, me: usize) -> Message {
        let slot = &self.slots[me];
        let mut q = slot.q.lock();
        loop {
            if let Some(m) = q.msgs.pop_front() {
                self.after_pop(me, q, None);
                return m;
            }
            slot.recv_cv.wait(&mut q);
        }
    }

    /// Thread mode: block until a message arrives or `dur` elapses (the
    /// watchdog poll loop).
    pub(crate) fn recv_thread_timeout(&self, me: usize, dur: Duration) -> Option<Message> {
        let slot = &self.slots[me];
        let mut q = slot.q.lock();
        if let Some(m) = q.msgs.pop_front() {
            self.after_pop(me, q, None);
            return Some(m);
        }
        slot.recv_cv.wait_for(&mut q, dur);
        match q.msgs.pop_front() {
            Some(m) => {
                self.after_pop(me, q, None);
                Some(m)
            }
            None => None,
        }
    }

    /// Event mode: pop `me`'s inbox, parking the fiber while it is empty.
    /// Returns `None` only when the world was declared deadlocked while
    /// (or before) this receiver was parked. `desc` renders the pending
    /// operation for the verdict; it is only invoked if the receiver
    /// actually parks (callers cache the rendering, so re-parks after a
    /// spurious wake stay cheap).
    pub(crate) fn recv_sched(
        &self,
        me: usize,
        sched: &SchedCore,
        now: SimTime,
        desc: &mut dyn FnMut() -> String,
    ) -> Option<Message> {
        let slot = &self.slots[me];
        loop {
            if sched.verdict().is_some() {
                return None;
            }
            let mut q = slot.q.lock();
            // Clear a stale flag from a verdict wake or a racing push.
            q.recv_parked = false;
            if let Some(m) = q.msgs.pop_front() {
                self.after_pop(me, q, Some(sched));
                return Some(m);
            }
            // Order matters: announce Parking *before* publishing the
            // parked flag, so a deliverer that observes the flag always
            // finds the task in Parking/Parked and its wake is never
            // lost (a racing wake latches `wake_pending`).
            sched.begin_park(me, now, desc());
            q.recv_parked = true;
            drop(q);
            sched.park_switch(me);
        }
    }

    /// Messages currently queued in `rank`'s inbox (teardown/test
    /// accounting).
    pub(crate) fn inbox_depth(&self, rank: usize) -> usize {
        self.slots[rank].q.lock().msgs.len()
    }
}
