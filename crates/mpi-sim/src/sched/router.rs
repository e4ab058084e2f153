//! Message delivery with bounded inboxes.
//!
//! One world-wide store of message slots, and per rank one inbox threading
//! a list through it — O(N) state for an N-rank world, where a sender
//! handle per pair would be O(N²). The inbox is the rank's only queue of
//! unexpected messages:
//!
//! * **one store**: every waiting message sits in a slot of the world's
//!   store, fixed-size chunks whose free slots wait on a free list, so the
//!   world holds slots for what it has in flight at once, not for the sum
//!   of every rank's deepest inbox;
//! * **per-pair FIFO**: a rank's sends are sequential and each push
//!   appends to the destination's list under the world's inbox lock, so
//!   MPI's non-overtaking guarantee holds;
//! * **matching in place**: a receive examines the messages it has not
//!   seen yet where they lie ([`Router::examine`]). Those it passes over
//!   stay, as the *kept prefix*: the first `kept` messages, in arrival
//!   order, which the next receive scans first ([`Router::kept`]). The
//!   rest are the unexamined tail;
//! * **receiver wakes**: a push wakes the destination's parked fiber;
//! * **backpressure**: user-payload traffic to a remote rank parks the
//!   *sender* while the destination's unexamined tail sits at the
//!   high-water mark, a fixed [`INBOX_HWM`] messages in every world, so a
//!   4,096-rank send storm holds O(ranks · HWM) unexamined messages
//!   instead of growing forever. The mark counts only the tail: a receive
//!   that passes over a full inbox looking for one sender's message
//!   releases the others, which may be that very sender.
//!   Internal traffic (negative tags: death notices, revocations,
//!   agreement, `alltoallv`) and self-sends are exempt — their progress guarantees are what recovery
//!   correctness is built on. A world that wedges on full inboxes is a
//!   real deadlock under finite buffering and is reported as one
//!   (`send backpressure(dest=N)` ops in the verdict).
//!
//! Sends never fail: an inbox has no "disconnected" state, so traffic to
//! a rank whose body already returned simply sits in its queue (and, its
//! owner being finished rather than parked, never masks a deadlock).

use std::sync::atomic::{AtomicUsize, Ordering};

use gpu_sim::SimTime;
use tempi_trace::sync::{Mutex, MutexGuard};

use super::{DeadlockInfo, ParkOp, SchedCore};
use crate::p2p::Message;
use crate::pool::{bins, Pool};

/// The per-rank inbox high-water mark, in messages: a remote user send
/// to an inbox holding this many parks its sender.
pub const INBOX_HWM: usize = 8192;

/// Most bytes of buffer capacity the payload free list retains (a
/// capacity-class `Pool`, the kind the registry keeps freed types' lists
/// in). Every eager payload — a one-piece message, a part of a pipelined
/// transfer, a train — is taken from it by the sender and handed back by
/// the receiver, except that each rank keeps one spent payload of at most
/// 4 KiB aside for its own next send of a length in that payload's
/// capacity class (`RankCtx::spend`, `RankCtx::take_payload`). One
/// pipelined transfer has at most its own size in flight, and the model
/// only pipelines objects of a few MiB, so this recycles the steady-state
/// traffic of a send while a world of any size holds at most this much,
/// plus 4 KiB per rank.
pub const PAYLOAD_POOL_BYTES: usize = 8 << 20;

/// Spent payloads awaiting reuse.
type PayloadPool = Pool<u8, PAYLOAD_POOL_BYTES, { bins::<u8>(PAYLOAD_POOL_BYTES) }>;

/// What a receive makes of one message it examines.
pub(crate) enum Examined {
    /// Remove it and hand it to the receive: the walk ends.
    Take,
    /// Leave it where it is, kept, and go on.
    Keep,
    /// Remove and discard it, and go on.
    Drop,
}

impl Examined {
    /// Take the message when `pick`, else keep it.
    pub(crate) fn take_if(pick: bool) -> Examined {
        match pick {
            true => Examined::Take,
            false => Examined::Keep,
        }
    }
}

/// Slots per chunk of the world's message store.
const CHUNK_SLOTS: usize = 256;

/// The end of a list of slots.
const NIL: u32 = u32::MAX;

/// A message waiting in the store, or a free slot.
struct Slot {
    msg: Option<Message>,
    /// The next slot of the inbox or the free list holding this one.
    next: u32,
}

/// Every message delivered and not yet taken, world-wide: chunks of
/// [`CHUNK_SLOTS`] slots, so the store grows to what the world has in
/// flight at once, and a taken slot is the next one filled.
struct Store {
    chunks: Vec<Box<[Slot]>>,
    /// The first free slot.
    free: u32,
}

impl Store {
    const EMPTY: Store = Store {
        chunks: Vec::new(),
        free: NIL,
    };

    fn slot(&self, i: u32) -> &Slot {
        let i = i as usize;
        &self.chunks[i / CHUNK_SLOTS][i % CHUNK_SLOTS]
    }

    fn slot_mut(&mut self, i: u32) -> &mut Slot {
        let i = i as usize;
        &mut self.chunks[i / CHUNK_SLOTS][i % CHUNK_SLOTS]
    }

    /// Place `msg` in a free slot, a fresh chunk's first when none is
    /// free, and return the slot.
    fn put(&mut self, msg: Message) -> u32 {
        if self.free == NIL {
            let first = u32::try_from(self.chunks.len() * CHUNK_SLOTS)
                .expect("fewer than 2^32 waiting messages");
            let free = (first + 1..).take(CHUNK_SLOTS - 1).chain([NIL]);
            let chunk = free.map(|next| Slot { msg: None, next });
            self.chunks.push(chunk.collect());
            self.free = first;
        }
        let i = self.free;
        let slot = self.slot_mut(i);
        slot.msg = Some(msg);
        self.free = slot.next;
        i
    }

    /// Empty slot `i` onto the free list and return its message.
    fn take(&mut self, i: u32) -> Message {
        let free = self.free;
        let slot = self.slot_mut(i);
        let msg = slot.msg.take().expect("an inbox lists occupied slots only");
        slot.next = free;
        self.free = i;
        msg
    }
}

/// One rank's inbox: a list through the store's slots.
struct InboxQ {
    /// Every message delivered and not taken, in arrival order: the first
    /// `kept` were examined and left, the rest are unexamined.
    head: u32,
    tail: u32,
    /// The kept prefix's last slot ([`NIL`] while it is empty).
    kept_last: u32,
    kept: u32,
    len: u32,
    /// The owning fiber is parked waiting for a push.
    recv_parked: bool,
    /// Sender ranks parked on this inbox's high-water mark.
    send_parked: Vec<usize>,
}

impl InboxQ {
    const EMPTY: InboxQ = InboxQ {
        head: NIL,
        tail: NIL,
        kept_last: NIL,
        kept: 0,
        len: 0,
        recv_parked: false,
        send_parked: Vec::new(),
    };

    /// Messages no receive has examined yet: what the high-water mark
    /// counts.
    fn unexamined(&self) -> usize {
        (self.len - self.kept) as usize
    }

    /// The slot after `i` in this list, where `NIL` stands before the head.
    fn after(&self, store: &Store, i: u32) -> u32 {
        match i {
            NIL => self.head,
            _ => store.slot(i).next,
        }
    }

    /// Make `i` the slot after `prev`.
    fn set_after(&mut self, store: &mut Store, prev: u32, i: u32) {
        match prev {
            NIL => self.head = i,
            _ => store.slot_mut(prev).next = i,
        }
    }

    /// Link `i` in after `prev` ([`NIL`]: at the head).
    fn link(&mut self, store: &mut Store, prev: u32, i: u32) {
        let next = self.after(store, prev);
        store.slot_mut(i).next = next;
        self.set_after(store, prev, i);
        if next == NIL {
            self.tail = i;
        }
        self.len += 1;
    }

    /// Walk the kept prefix, or with `fresh` the unexamined tail, in
    /// arrival order, until `f` takes a message. A message of the tail that
    /// `f` keeps joins the prefix.
    fn walk(
        &mut self,
        store: &mut Store,
        fresh: bool,
        f: &mut impl FnMut(&Message) -> Examined,
    ) -> Option<Message> {
        let (mut prev, mut left) = match fresh {
            true => (self.kept_last, self.unexamined()),
            false => (NIL, self.kept as usize),
        };
        let mut at = self.after(store, prev);
        while left > 0 {
            left -= 1;
            let Slot { msg, next } = store.slot(at);
            let next = *next;
            match f(msg.as_ref().expect("an inbox lists occupied slots only")) {
                Examined::Keep => {
                    if fresh {
                        (self.kept_last, self.kept) = (at, self.kept + 1);
                    }
                    prev = at;
                }
                step => {
                    self.set_after(store, prev, next);
                    if self.tail == at {
                        self.tail = prev;
                    }
                    if self.kept_last == at {
                        self.kept_last = prev;
                    }
                    self.len -= 1;
                    self.kept -= u32::from(!fresh);
                    let m = store.take(at);
                    if let Examined::Take = step {
                        return Some(m);
                    }
                }
            }
            at = next;
        }
        None
    }
}

/// The world's waiting messages and the inboxes listing them.
struct Inboxes {
    store: Store,
    ranks: Vec<InboxQ>,
}

/// Shared delivery fabric for one world: one store of waiting messages, a
/// bounded FIFO inbox per rank through it, and the scheduler whose fibers
/// park on (and are woken through) them.
pub(crate) struct Router {
    /// One lock for the store and every inbox: a push links a slot into
    /// the destination's list, and only one fiber runs at a time.
    inboxes: Mutex<Inboxes>,
    sched: SchedCore,
    /// Payloads are taken by the sender and spent by the receiver, so
    /// only a list both can reach recycles them.
    payloads: Mutex<PayloadPool>,
    /// Ranks whose body has not yet returned ([`Router::rank_done`]).
    running: AtomicUsize,
}

impl Router {
    /// A router for `n` ranks scheduled by `sched`.
    pub(crate) fn new(n: usize, sched: SchedCore) -> Router {
        assert!(
            u32::try_from(n).is_ok(),
            "a message names its sender by a u32 rank"
        );
        Router {
            inboxes: Mutex::new(Inboxes {
                store: Store::EMPTY,
                ranks: (0..n).map(|_| InboxQ::EMPTY).collect(),
            }),
            sched,
            payloads: Mutex::default(),
            running: AtomicUsize::new(n),
        }
    }

    /// The world's scheduler.
    pub(crate) fn sched(&self) -> &SchedCore {
        &self.sched
    }

    /// An empty buffer with room for `len` bytes: the smallest pooled one
    /// that is large enough, else a fresh allocation.
    pub(crate) fn take_payload(&self, len: usize) -> Vec<u8> {
        self.payloads.lock().take_or_new(len)
    }

    /// Hand a spent payload back for reuse; dropped instead when the list
    /// already holds [`PAYLOAD_POOL_BYTES`].
    pub(crate) fn recycle_payload(&self, buf: Vec<u8>) {
        self.payloads.lock().put(buf);
    }

    /// A rank's body returned. The last one frees the pooled payloads and
    /// the message store, on the worker thread that allocated most of
    /// them: freed by the caller's thread as the world drops, they leave
    /// the allocator unable to hand their pages back, and the next world
    /// starts that much larger.
    pub(crate) fn rank_done(&self) {
        if self.running.fetch_sub(1, Ordering::SeqCst) == 1 {
            *self.payloads.lock() = PayloadPool::default();
            let Inboxes { store, ranks } = &mut *self.inboxes.lock();
            *store = Store::EMPTY;
            for q in ranks {
                *q = InboxQ::EMPTY;
            }
        }
    }

    /// Bytes of capacity the payload free list currently retains.
    pub(crate) fn pooled_payload_bytes(&self) -> usize {
        self.payloads.lock().bytes()
    }

    /// Append to `dest`'s inbox under the lock and wake its owner.
    fn deliver_locked(&self, dest: usize, mut inboxes: MutexGuard<'_, Inboxes>, msg: Message) {
        let Inboxes { store, ranks } = &mut *inboxes;
        let (q, i) = (&mut ranks[dest], store.put(msg));
        q.link(store, q.tail, i);
        let wake = std::mem::take(&mut q.recv_parked);
        drop(inboxes);
        if wake {
            self.sched.wake(dest);
        }
    }

    /// Deliver unconditionally (control traffic, self-sends): never
    /// blocks, never fails.
    pub(crate) fn push(&self, dest: usize, msg: Message) {
        self.deliver_locked(dest, self.inboxes.lock(), msg);
    }

    /// Deliver subject to the high-water mark: while `dest`'s unexamined
    /// tail is full, park the sending fiber. Once a deadlock verdict exists
    /// the message is force-delivered so the world can drain.
    ///
    /// `me` is the sending world rank, `now` its virtual clock (the wait
    /// is wall-clock machinery only — virtual time is never advanced by
    /// backpressure).
    pub(crate) fn push_bounded(&self, me: usize, dest: usize, msg: Message, now: SimTime) {
        while self.sched.verdict().is_none() {
            let mut inboxes = self.inboxes.lock();
            let q = &mut inboxes.ranks[dest];
            // A spurious wake can leave this sender still registered.
            q.send_parked.retain(|&r| r != me);
            if q.unexamined() < INBOX_HWM {
                self.deliver_locked(dest, inboxes, msg);
                return;
            }
            q.send_parked.push(me);
            drop(inboxes);
            self.sched.park(me, now, ParkOp::Backpressure { dest });
        }
        self.push(dest, msg);
    }

    /// After a receive examined `me`'s messages: once the unexamined tail
    /// drops below the high-water mark, wake every backpressured sender
    /// (each re-checks and re-parks if the mark is hit again).
    fn after_examine(&self, me: usize, mut inboxes: MutexGuard<'_, Inboxes>) {
        let q = &mut inboxes.ranks[me];
        if q.unexamined() >= INBOX_HWM || q.send_parked.is_empty() {
            return;
        }
        let to_wake = std::mem::take(&mut q.send_parked);
        drop(inboxes);
        for r in to_wake {
            self.sched.wake(r);
        }
    }

    /// Walk `me`'s kept prefix with `f`, in arrival order, until it takes
    /// a message. Never parks.
    pub(crate) fn kept(
        &self,
        me: usize,
        mut f: impl FnMut(&Message) -> Examined,
    ) -> Option<Message> {
        let Inboxes { store, ranks } = &mut *self.inboxes.lock();
        ranks[me].walk(store, false, &mut f)
    }

    /// Examine `me`'s unexamined messages in place, in arrival order,
    /// until `f` takes one, parking the fiber on `op` whenever none is
    /// left. Fails only when the world was declared deadlocked while (or
    /// before) this receiver was parked.
    pub(crate) fn examine(
        &self,
        me: usize,
        now: SimTime,
        op: ParkOp,
        mut f: impl FnMut(&Message) -> Examined,
    ) -> Result<Message, DeadlockInfo> {
        loop {
            if let Some(verdict) = self.sched.verdict() {
                return Err(verdict.clone());
            }
            let mut inboxes = self.inboxes.lock();
            let Inboxes { store, ranks } = &mut *inboxes;
            let q = &mut ranks[me];
            // Clear a flag a verdict wake left behind.
            q.recv_parked = false;
            if q.unexamined() > 0 {
                let taken = q.walk(store, true, &mut f);
                self.after_examine(me, inboxes);
                match taken {
                    Some(m) => return Ok(m),
                    None => continue,
                }
            }
            q.recv_parked = true;
            drop(inboxes);
            self.sched.park(me, now, op);
        }
    }

    /// Put back a message [`Router::examine`] took, at the end of `me`'s
    /// kept prefix, where keeping it would have left it.
    pub(crate) fn keep(&self, me: usize, m: Message) {
        let Inboxes { store, ranks } = &mut *self.inboxes.lock();
        let q = &mut ranks[me];
        let i = store.put(m);
        q.link(store, q.kept_last, i);
        (q.kept_last, q.kept) = (i, q.kept + 1);
    }

    /// `rank`'s kept messages and its unexamined ones (teardown and test
    /// accounting).
    pub(crate) fn depths(&self, rank: usize) -> (usize, usize) {
        let q = &self.inboxes.lock().ranks[rank];
        (q.kept as usize, q.unexamined())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A router with no ranks to deliver to: its free list alone.
    fn free_list() -> Router {
        Router::new(0, SchedCore::new(0, SimTime::ZERO))
    }

    #[test]
    fn take_payload_returns_the_smallest_pooled_buffer_that_fits() {
        let list = free_list();
        for cap in [64, 100, 96, 4096, 200] {
            list.recycle_payload(Vec::with_capacity(cap));
        }
        // 64, 96 and 100 share a capacity class; 101 and 1 find nothing
        // that fits in their own and take the next class's smallest
        let got = [65, 97, 64, 101, 1].map(|len| list.take_payload(len).capacity());
        assert_eq!(got, [96, 100, 64, 200, 4096]);
        assert_eq!(list.pooled_payload_bytes(), 0);
        assert_eq!(list.take_payload(8).capacity(), 8, "empty: a fresh buffer");
        assert_eq!(list.take_payload(0).capacity(), 0, "nothing to hold");
    }

    #[test]
    fn a_ranks_inbox_is_48_bytes_and_a_slot_128() {
        // 32,768 waiting messages, a 1,024-rank dense exchange's window of
        // 32 each, fit in 4 MiB
        assert_eq!(size_of::<InboxQ>(), 48);
        assert_eq!(size_of::<Slot>(), 128);
    }

    #[test]
    fn a_long_ping_pong_ends_holding_one_chunk() {
        // every taken slot is the next one filled, so two ranks trading
        // 10,000 messages, small and large, never need a second chunk
        let chunks = crate::World::run(&crate::WorldConfig::summit(2), |ctx| {
            let buf = ctx.gpu.host_alloc(1 << 10)?;
            let peer = 1 - ctx.rank;
            for i in 0..5_000 {
                let len = [8, 1 << 10][i % 2];
                if ctx.rank == 1 {
                    ctx.recv_bytes(buf, len, Some(peer), Some(0))?;
                }
                ctx.send_bytes(buf, len, peer, 0)?;
                if ctx.rank == 0 {
                    ctx.recv_bytes(buf, len, Some(peer), Some(0))?;
                }
            }
            Ok(ctx.router.inboxes.lock().store.chunks.len())
        })
        .unwrap();
        assert_eq!(chunks, [1, 1]);
    }

    #[test]
    fn recycle_payload_keeps_at_most_the_world_cap() {
        let list = free_list();
        let quarter = PAYLOAD_POOL_BYTES / 4;
        for _ in 0..5 {
            list.recycle_payload(Vec::with_capacity(quarter));
        }
        assert_eq!(list.pooled_payload_bytes(), PAYLOAD_POOL_BYTES);
        list.recycle_payload(Vec::with_capacity(1));
        assert_eq!(list.pooled_payload_bytes(), PAYLOAD_POOL_BYTES);
        let taken = list.take_payload(quarter);
        assert_eq!(list.pooled_payload_bytes(), PAYLOAD_POOL_BYTES - quarter);
        list.recycle_payload(Vec::with_capacity(1));
        list.recycle_payload(taken);
        assert_eq!(
            list.pooled_payload_bytes(),
            PAYLOAD_POOL_BYTES - quarter + 1
        );
    }
}
