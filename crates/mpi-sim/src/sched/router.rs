//! Message delivery with bounded inboxes.
//!
//! One locked FIFO inbox per rank — O(N) state for an N-rank world, where
//! a sender handle per pair would be O(N²):
//!
//! * **per-pair FIFO**: a rank's sends are sequential and each push takes
//!   the destination's lock, so MPI's non-overtaking guarantee holds;
//! * **receiver wakes**: a push wakes the destination's parked fiber;
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
//! Sends never fail: an inbox has no "disconnected" state, so traffic to
//! a rank whose body already returned simply sits in its queue (and, its
//! owner being finished rather than parked, never masks a deadlock).

use std::collections::VecDeque;

use gpu_sim::SimTime;
use tempi_trace::sync::{Mutex, MutexGuard};

use super::{DeadlockInfo, ParkOp, SchedCore};
use crate::p2p::Message;

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
    /// The owning fiber is parked waiting for a push.
    recv_parked: bool,
    /// Sender ranks parked on this inbox's high-water mark.
    send_parked: Vec<usize>,
}

/// Shared delivery fabric for one world: a bounded FIFO inbox per rank,
/// and the scheduler whose fibers park on (and are woken through) them.
pub(crate) struct Router {
    slots: Vec<Mutex<InboxQ>>,
    hwm: usize,
    sched: SchedCore,
    /// Part payloads are allocated by the sender and freed by the
    /// receiver, so only a list both can reach recycles them.
    payloads: Mutex<PayloadPool>,
}

impl Router {
    /// A router for `n` ranks scheduled by `sched`, with the given
    /// high-water mark (0 = unbounded).
    pub(crate) fn new(n: usize, hwm: usize, sched: SchedCore) -> Router {
        Router {
            slots: (0..n).map(|_| Mutex::new(InboxQ::default())).collect(),
            hwm,
            sched,
            payloads: Mutex::new(PayloadPool::default()),
        }
    }

    /// The world's scheduler.
    pub(crate) fn sched(&self) -> &SchedCore {
        &self.sched
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
    fn deliver_locked(&self, dest: usize, mut q: MutexGuard<'_, InboxQ>, msg: Message) {
        q.msgs.push_back(msg);
        let wake = std::mem::take(&mut q.recv_parked);
        drop(q);
        if wake {
            self.sched.wake(dest);
        }
    }

    /// Deliver unconditionally (control traffic, self-sends): never
    /// blocks, never fails.
    pub(crate) fn push(&self, dest: usize, msg: Message) {
        let q = self.slots[dest].lock();
        self.deliver_locked(dest, q, msg);
    }

    /// Deliver subject to the high-water mark: while `dest`'s inbox is
    /// full, park the sending fiber. Once a deadlock verdict exists the
    /// message is force-delivered so the world can drain.
    ///
    /// `me` is the sending world rank, `now` its virtual clock (the wait
    /// is wall-clock machinery only — virtual time is never advanced by
    /// backpressure).
    pub(crate) fn push_bounded(&self, me: usize, dest: usize, msg: Message, now: SimTime) {
        while self.hwm != 0 && self.sched.verdict().is_none() {
            let mut q = self.slots[dest].lock();
            // A spurious wake can leave this sender still registered.
            q.send_parked.retain(|&r| r != me);
            if q.msgs.len() < self.hwm {
                self.deliver_locked(dest, q, msg);
                return;
            }
            self.sched
                .begin_park(me, now, ParkOp::Backpressure { dest });
            q.send_parked.push(me);
            drop(q);
            self.sched.park_switch(me);
        }
        self.push(dest, msg);
    }

    /// After a pop: once the queue drops below the high-water mark, wake
    /// every backpressured sender (each re-checks and re-parks if the
    /// mark is hit again). Unbounded inboxes (mark 0) never park a sender.
    fn after_pop(&self, mut q: MutexGuard<'_, InboxQ>) {
        if q.msgs.len() >= self.hwm || q.send_parked.is_empty() {
            return;
        }
        let to_wake = std::mem::take(&mut q.send_parked);
        drop(q);
        for r in to_wake {
            self.sched.wake(r);
        }
    }

    /// Pop `me`'s inbox, parking the fiber on `op` while it is empty.
    /// Fails only when the world was declared deadlocked while (or before)
    /// this receiver was parked.
    pub(crate) fn recv(
        &self,
        me: usize,
        now: SimTime,
        op: ParkOp,
    ) -> Result<Message, DeadlockInfo> {
        loop {
            if let Some(verdict) = self.sched.verdict() {
                return Err(verdict.clone());
            }
            let mut q = self.slots[me].lock();
            // Clear a stale flag from a verdict wake or a racing push.
            q.recv_parked = false;
            if let Some(m) = q.msgs.pop_front() {
                self.after_pop(q);
                return Ok(m);
            }
            // Order matters: announce Parking *before* publishing the
            // parked flag, so a deliverer that observes the flag always
            // finds the task in Parking/Parked and its wake is never
            // lost (a racing wake latches `wake_pending`).
            self.sched.begin_park(me, now, op);
            q.recv_parked = true;
            drop(q);
            self.sched.park_switch(me);
        }
    }

    /// Messages currently queued in `rank`'s inbox (teardown/test
    /// accounting).
    pub(crate) fn inbox_depth(&self, rank: usize) -> usize {
        self.slots[rank].lock().msgs.len()
    }
}
