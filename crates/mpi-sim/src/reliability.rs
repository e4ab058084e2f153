//! The reliability layer: every fault decision on the message path.
//!
//! The paper's interposer reaches the system MPI only through its public
//! interface and has no fault model; this reproduction adds one — seeded
//! fault plans ([`crate::fault`]), ULFM-style recovery ([`crate::comm`]),
//! an integrity envelope — and this module is where the message path
//! meets it. Point-to-point and collectives call the layer at fixed
//! points and read none of its state:
//!
//! * **Gates**, one per direction, in a fixed order: revocation
//!   (`check_comm`), then — only with a plan installed — this
//!   rank's own scheduled exit (which broadcasts its death notice once),
//!   the peer's, and the transient link-fault coin, retried with doubling
//!   backoff on the virtual clock. A collective checks every member
//!   instead of one peer. A fault-free rank pays one branch per gate.
//! * **Delivery**: the checksum an envelope is stamped with, the injected
//!   extra delay per part a delivery carries, and the corrupt → verify →
//!   NACK → retransmit loop that decides which bytes land.
//! * **Control traffic**: `sift` absorbs death notices,
//!   revocations and stale-epoch messages as a receive examines them, and
//!   one step (`next_arrival`) serves every receive-side wait: fail if
//!   the awaited sender is known dead, else examine new arrivals in place
//!   until one is wanted, a revocation or a death notice — a revocation
//!   fails a receive or probe (`await_arrival`).
//!
//! The per-rank state is a [`FaultState`]. Epochs are not in it: they are
//! the communicator's matching key and live with it.

use std::collections::BTreeMap;
use std::sync::Arc;

use gpu_sim::{GpuContext, MemSpace, SimTime};

use crate::error::{MpiError, MpiResult};
use crate::fault::{FaultInjector, FaultSite, FaultStats};
use crate::net::Transport;
use crate::p2p::{Message, Payload, TAG_DEATH, TAG_REVOKE};
use crate::runtime::{RankCtx, WorldConfig};
use crate::sched::{Examined, ParkOp};

/// One rank's reliability state. A fault-free rank carries a null
/// injector pointer, zeroed counters and an empty death map.
#[derive(Debug, Default)]
pub struct FaultState {
    /// The rank's instance of the world's plan; `None` injects nothing.
    injector: Option<Box<FaultInjector>>,
    /// What fired, what was retried, and which downgrades happened (live
    /// without a plan too, so genuine degradations are logged).
    pub stats: FaultStats,
    /// Stamp and verify payload checksums ([`WorldConfig::integrity`]).
    pub(crate) integrity: bool,
    /// Has the current epoch been revoked (locally observed)?
    pub(crate) revoked: bool,
    /// Has this rank already broadcast its own death notice?
    pub(crate) death_sent: bool,
    /// World ranks known dead, with their scheduled exit instants —
    /// learnt from the gates and from absorbed death notices.
    pub(crate) known_dead: BTreeMap<usize, SimTime>,
}

impl FaultState {
    /// World rank `rank`'s state under `cfg`, the plan's GPU sites
    /// installed on its device `gpu`.
    pub(crate) fn new(cfg: &WorldConfig, rank: usize, gpu: &GpuContext) -> FaultState {
        let injector = cfg.faults.as_ref().map(|plan| {
            let injector = FaultInjector::new(plan, rank);
            if let Some(sites) = injector.device_sites() {
                gpu.set_fault_injector(Some(Arc::clone(sites)));
            }
            Box::new(injector)
        });
        FaultState {
            injector,
            integrity: cfg.integrity,
            ..FaultState::default()
        }
    }

    /// Is a fault plan installed?
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.injector.is_some()
    }

    /// The rank's injector, for the sites an application draws itself
    /// (checkpoint spill I/O).
    pub fn injector(&self) -> Option<&FaultInjector> {
        self.injector.as_deref()
    }

    /// World rank `w`'s scheduled exit instant under the plan, if any.
    pub(crate) fn exit_time(&self, w: usize) -> Option<SimTime> {
        self.injector.as_ref().and_then(|i| i.exit_time(w))
    }
}

/// The content checksum integrity-enabled envelopes carry:
/// [`gpu_sim::fnv1a64`], the one checksum of device regions and
/// checkpoint frames too.
pub use gpu_sim::fnv1a64 as payload_checksum;

/// Outcome of [`RankCtx::sift`]: what an inbound message means to the
/// receiver's control plane before any data matching happens.
pub(crate) enum Sifted {
    /// A data (or agreement) message from the current/future epoch.
    Keep,
    /// A revocation of the current epoch that newly poisoned this rank.
    Revoke,
    /// A death notice, other absorbed control traffic or a stale-epoch
    /// message; nothing to do.
    Absorbed,
}

impl RankCtx {
    // ---- gates -----------------------------------------------------------

    /// The revocation gate: fail fast once the current communicator epoch
    /// has been revoked.
    pub(crate) fn check_comm(&self) -> MpiResult<()> {
        if self.faults.revoked {
            return Err(MpiError::Revoked);
        }
        Ok(())
    }

    /// The gate of a send towards `dest`: revocation, the rank argument,
    /// then the link.
    pub(crate) fn send_gate(&mut self, dest: usize) -> MpiResult<()> {
        self.check_comm()?;
        self.check_rank(dest)?;
        self.link_gate(Some(dest), true)
    }

    /// The gate of a receive from `src` (`None`: any source): revocation,
    /// then the link.
    pub(crate) fn recv_gate(&mut self, src: Option<usize>) -> MpiResult<()> {
        self.check_comm()?;
        self.link_gate(src, false)
    }

    /// The gate of a collective: revocation, then — a collective cannot
    /// complete once a participant failed — this rank's own exit and every
    /// other member's, before any traffic moves.
    pub(crate) fn collective_gate(&mut self) -> MpiResult<()> {
        self.check_comm()?;
        if self.faults.injector.is_none() {
            return Ok(());
        }
        self.self_exit_check()?;
        for i in 0..self.comm_members.len() {
            let w = self.comm_members.world(i);
            if w != self.world_rank {
                self.peer_gate(w)?;
            }
        }
        Ok(())
    }

    /// Fail the calling operation if this rank's *own* scheduled exit has
    /// passed. The first observation broadcasts a death notice to every
    /// world peer (stamped with the scheduled instant, and FIFO-ordered
    /// after all real traffic already sent), so peers blocked on this rank
    /// wake up deterministically instead of hanging.
    pub(crate) fn self_exit_check(&mut self) -> MpiResult<()> {
        let now = self.clock.now();
        if let Some(at) = self
            .faults
            .exit_time(self.world_rank)
            .filter(|&at| at <= now)
        {
            self.announce_death(at);
            self.faults.stats.peer_gone += 1;
            return Err(MpiError::PeerGone);
        }
        Ok(())
    }

    /// Broadcast this rank's death notice once (idempotent). Raw router
    /// pushes: no clock advance, no gating, no backpressure — a dying rank
    /// always manages to tell the world when.
    pub(crate) fn announce_death(&mut self, at: SimTime) {
        if self.faults.death_sent {
            return;
        }
        self.faults.death_sent = true;
        let notice = Message {
            src_world: self.world_rank as u32,
            epoch: self.epoch,
            tag: TAG_DEATH,
            payload: Payload::EMPTY,
            sender_space: MemSpace::Host,
            depart: at,
            part: None,
            checksum: 0,
        };
        for w in 0..self.world_size {
            if w != self.world_rank {
                self.router.push(w, notice.clone());
            }
        }
    }

    /// Announce a scheduled exit the rank's body returned before reaching,
    /// so peers blocked on it are woken instead of hanging.
    pub(crate) fn announce_scheduled_death(&mut self) {
        if let Some(at) = self.faults.exit_time(self.world_rank) {
            self.announce_death(at);
        }
    }

    /// Fail with [`MpiError::PeerGone`] if world rank `w` is scheduled to
    /// have exited by the caller's current virtual instant. Purely
    /// clock-based, so the decision replays identically in virtual time.
    fn peer_gate(&mut self, w: usize) -> MpiResult<()> {
        let now = self.clock.now();
        let Some(at) = self.faults.exit_time(w).filter(|&at| at <= now) else {
            return Ok(());
        };
        self.faults.known_dead.entry(w).or_insert(at);
        self.faults.stats.peer_gone += 1;
        Err(MpiError::PeerGone)
    }

    /// The link half of a p2p gate towards `peer` (a communicator rank):
    /// observes scheduled deaths (a wildcard receive, `peer == None`, skips
    /// the peer's), then retries the `send` (else receive) site's injected
    /// transient link faults with exponential backoff charged to the
    /// virtual clock. Exhausting the retry budget surfaces
    /// [`MpiError::CommFailed`] (a wildcard reports `usize::MAX` as the
    /// peer).
    fn link_gate(&mut self, peer: Option<usize>, send: bool) -> MpiResult<()> {
        let Some(max_retries) = self.faults.injector.as_ref().map(|i| i.max_retries()) else {
            return Ok(());
        };
        self.self_exit_check()?;
        if let Some(p) = peer {
            self.peer_gate(self.comm_members.get(p).unwrap_or(p))?;
        }
        for attempt in 0..=max_retries {
            let (inj, stats) = (
                self.faults.injector.as_ref().expect("gated"),
                &mut self.faults.stats,
            );
            let (site, faults) = match send {
                true => (FaultSite::Send, &mut stats.send_faults),
                false => (FaultSite::Recv, &mut stats.recv_faults),
            };
            if !inj.should_fail(site) {
                return Ok(());
            }
            *faults += 1;
            if attempt == max_retries {
                break;
            }
            let backoff = inj.backoff(attempt);
            self.clock.advance(backoff);
            stats.retries += 1;
            stats.backoff_time += backoff;
        }
        Err(MpiError::CommFailed {
            peer: peer.unwrap_or(usize::MAX),
            attempts: max_retries + 1,
        })
    }

    // ---- delivery --------------------------------------------------------

    /// The checksum an envelope of `payload` carries: with integrity on,
    /// the payload's; without, 0, which no receiver reads.
    pub(crate) fn stamp(&self, payload: &[u8]) -> u64 {
        match self.faults.integrity {
            true => payload_checksum(payload),
            false => 0,
        }
    }

    /// Charge any injected extra delivery latency to the virtual clock —
    /// once per part a delivery carries.
    pub(crate) fn extra_delay(&mut self) {
        let d = match self.faults.injector.as_mut() {
            Some(inj) => inj.extra_delay(),
            None => None,
        };
        if let Some(d) = d {
            self.clock.advance(d);
            self.faults.stats.delays += 1;
            self.faults.stats.delay_time += d;
        }
    }

    /// The bytes of a priced delivery that land: apply any injected
    /// in-transit corruption and — in a world with integrity on — verify
    /// the envelope's checksum and run the bounded NACK/retransmit
    /// handshake, all in virtual time on this rank's clock.
    ///
    /// The corruption model is receive-sided: the sender's pristine payload
    /// sits in the in-flight [`Message`], and this rank's seeded injector
    /// decides per *delivery attempt* whether the bytes that crossed the
    /// wire got a bit flipped. A retransmit therefore re-reads the pristine
    /// bytes and redraws the corruption coin; each round trip charges one
    /// NACK wire plus one payload wire. Exhausting the budget surfaces
    /// [`MpiError::Corrupted`]. With integrity disabled a flipped byte is
    /// delivered silently — the failure mode the integrity envelope exists
    /// to close.
    pub(crate) fn verified(&mut self, msg: Message, transport: Transport) -> MpiResult<Payload> {
        let max_retries = self.faults.injector.as_ref().map_or(0, |i| i.max_retries());
        let bytes = msg.payload.len();
        let mut payload = msg.payload;
        let mut attempt: u32 = 0;
        loop {
            let flip = self
                .faults
                .injector()
                .and_then(|inj| inj.flip(FaultSite::Corrupt, bytes));
            if let Some((idx, mask)) = flip {
                self.faults.stats.corruptions += 1;
                payload[idx] ^= mask;
            }
            if !self.faults.integrity || payload_checksum(&payload) == msg.checksum {
                return Ok(payload);
            }
            // the sender still holds the pristine bytes: undo this
            // attempt's flip rather than keeping a second copy around
            if let Some((idx, mask)) = flip {
                payload[idx] ^= mask;
            }
            self.faults.stats.nacks += 1;
            if attempt >= max_retries {
                return Err(MpiError::Corrupted {
                    peer: self.comm_members.rank_of(msg.src_world),
                    attempts: attempt + 1,
                });
            }
            // one NACK back to the sender plus one payload retransmit,
            // charged to this rank's virtual clock
            let (me, from, net) = (self.world_rank, msg.src_world as usize, &self.net);
            let nack_wire = net.transfer_time(1, Transport::Cpu, me, from);
            let round_trip = nack_wire + net.transfer_time(bytes, transport, from, me);
            self.clock.advance(round_trip);
            self.faults.stats.nack_time += round_trip;
            self.faults.stats.retransmits += 1;
            attempt += 1;
        }
    }

    // ---- control traffic -------------------------------------------------

    /// Classify one inbound message as a receive first examines it: absorb
    /// control-plane traffic (death notices, revocations, stale epochs) and
    /// pass everything else on. Control messages never join the kept
    /// prefix of the rank's inbox.
    pub(crate) fn sift(&mut self, m: &Message) -> Sifted {
        match m.tag {
            TAG_DEATH => {
                if let std::collections::btree_map::Entry::Vacant(e) =
                    self.faults.known_dead.entry(m.src_world as usize)
                {
                    e.insert(m.depart);
                    self.faults.stats.death_notices += 1;
                }
                Sifted::Absorbed
            }
            TAG_REVOKE if m.epoch == self.epoch && !self.faults.revoked => {
                self.faults.revoked = true;
                self.faults.stats.revocations += 1;
                Sifted::Revoke
            }
            TAG_REVOKE => Sifted::Absorbed,
            _ if m.epoch < self.epoch => {
                self.faults.stats.stale_dropped += 1;
                Sifted::Absorbed
            }
            _ => Sifted::Keep,
        }
    }

    /// The scheduled exit instant of the peer a receive is directed at, if
    /// that peer is already known dead — or, for a wildcard, the earliest
    /// known death among current members (ULFM `MPI_ANY_SOURCE` semantics:
    /// a wildcard cannot be guaranteed to complete once any member died).
    pub(crate) fn dead_recv_target(&self, src: Option<usize>) -> Option<SimTime> {
        let dead = &self.faults.known_dead;
        if dead.is_empty() {
            return None;
        }
        match src {
            Some(s) => self.comm_members.get(s).and_then(|w| dead.get(&w).copied()),
            None => self
                .comm_members
                .iter()
                .filter_map(|w| dead.get(&w).copied())
                .min(),
        }
    }

    /// One step of a receive-side wait on `op`: fail if the sender it
    /// awaits is known dead (the clock converges on the scheduled exit
    /// instant), else examine new arrivals in place, sifting each, until
    /// one ends the step: data `want` picks, a revocation that newly
    /// poisoned this rank, or a death notice, after which the caller checks
    /// again. Other data is kept and other control traffic dropped. A
    /// deadlock verdict unwinds the wait as [`MpiError::Deadlock`], with
    /// the clock moved to the verdict's instant.
    pub(crate) fn next_arrival(
        &mut self,
        op: ParkOp,
        want: &impl Fn(&Message) -> bool,
    ) -> MpiResult<Message> {
        let awaited = match op {
            ParkOp::Recv { src, .. } | ParkOp::Probe { src, .. } => Some(src),
            _ => None,
        };
        if let Some(at) = awaited.and_then(|src| self.dead_recv_target(src)) {
            self.clock.advance_to(at);
            self.faults.stats.peer_gone += 1;
            return Err(MpiError::PeerGone);
        }
        let (me, now, router) = (self.world_rank, self.clock.now(), Arc::clone(&self.router));
        let step = |m: &Message| match self.sift(m) {
            Sifted::Keep if want(m) => Examined::Take,
            Sifted::Keep => Examined::Keep,
            Sifted::Absorbed if m.tag != TAG_DEATH => Examined::Drop,
            Sifted::Absorbed | Sifted::Revoke => Examined::Take,
        };
        router.examine(me, now, op, step).map_err(|v| {
            self.clock.advance_to(v.at);
            MpiError::Deadlock {
                ranks: v.ranks,
                ops: v.ops,
            }
        })
    }

    /// Wait on a receive or probe `op` for the first new arrival `want`
    /// picks ([`RankCtx::next_arrival`]); a revocation fails the wait.
    pub(crate) fn await_arrival(
        &mut self,
        op: ParkOp,
        want: impl Fn(&Message) -> bool,
    ) -> MpiResult<Message> {
        loop {
            let m = self.next_arrival(op, &want)?;
            if want(&m) {
                return Ok(m);
            }
            if m.tag == TAG_REVOKE {
                return Err(MpiError::Revoked);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::p2p::PartInfo;
    use crate::runtime::World;

    fn faulty_ctx(spec: &str) -> RankCtx {
        let cfg = WorldConfig::summit(1).with_faults(FaultPlan::parse(spec).unwrap());
        RankCtx::standalone(&cfg)
    }

    #[test]
    fn transient_send_fault_retries_and_succeeds() {
        let mut ctx = faulty_ctx("send@0,backoff=10us");
        let buf = ctx.gpu.host_alloc(8).unwrap();
        // the scripted fault kills attempt 0; attempt 1 goes through
        ctx.send_bytes(buf, 8, 0, 0).unwrap();
        assert_eq!(ctx.faults.stats.send_faults, 1);
        assert_eq!(ctx.faults.stats.retries, 1);
        assert_eq!(ctx.faults.stats.backoff_time, SimTime::from_us(10));
        // the backoff was charged to the virtual clock (plus send overhead)
        assert_eq!(
            ctx.clock.now(),
            SimTime::from_us(10) + ctx.net.send_overhead
        );
        // the message really departed: it is receivable
        let st = ctx.recv_bytes(buf, 8, Some(0), Some(0)).unwrap();
        assert_eq!(st.bytes, 8);
    }

    #[test]
    fn exhausted_retries_surface_comm_failed() {
        let mut ctx = faulty_ctx("send=1.0,retries=2,backoff=10us");
        let buf = ctx.gpu.host_alloc(8).unwrap();
        let err = ctx.send_bytes(buf, 8, 0, 0).unwrap_err();
        assert_eq!(
            err,
            MpiError::CommFailed {
                peer: 0,
                attempts: 3
            }
        );
        assert!(!err.is_transient(), "an exhausted budget is fatal");
        assert_eq!(ctx.faults.stats.send_faults, 3);
        assert_eq!(ctx.faults.stats.retries, 2);
        // backoff 10 + 20 µs charged before giving up
        assert_eq!(ctx.faults.stats.backoff_time, SimTime::from_us(30));
    }

    #[test]
    fn scheduled_rank_exit_reports_peer_gone() {
        let mut ctx = faulty_ctx("exit=0@5us");
        let buf = ctx.gpu.host_alloc(8).unwrap();
        // before the exit instant the self-send works
        ctx.send_bytes(buf, 8, 0, 0).unwrap();
        ctx.clock.advance(SimTime::from_us(5));
        assert_eq!(ctx.send_bytes(buf, 8, 0, 1), Err(MpiError::PeerGone));
        assert_eq!(
            ctx.recv_bytes(buf, 8, Some(0), Some(0)),
            Err(MpiError::PeerGone)
        );
        assert_eq!(ctx.faults.stats.peer_gone, 2);
    }

    #[test]
    fn injected_delay_charges_virtual_time() {
        let mut ctx = faulty_ctx("delay=1.0:50us");
        let buf = ctx.gpu.host_alloc(8).unwrap();
        ctx.send_bytes(buf, 8, 0, 0).unwrap();
        let before = ctx.clock.now();
        ctx.recv_bytes(buf, 8, Some(0), Some(0)).unwrap();
        assert_eq!(ctx.faults.stats.delays, 1);
        assert_eq!(ctx.faults.stats.delay_time, SimTime::from_us(50));
        assert!(ctx.clock.now() - before >= SimTime::from_us(50));
    }

    #[test]
    fn corruption_without_integrity_is_silent() {
        // corrupt site active but the integrity envelope explicitly off:
        // the flipped byte is delivered — the blind spot the envelope closes
        let mut cfg = WorldConfig::summit(1).with_faults(FaultPlan::parse("corrupt@0").unwrap());
        cfg.integrity = false;
        let mut ctx = RankCtx::standalone(&cfg);
        let buf = ctx.gpu.host_alloc(64).unwrap();
        ctx.gpu.memory().poke(buf, &[0u8; 64]).unwrap();
        ctx.send_bytes(buf, 64, 0, 0).unwrap();
        let st = ctx.recv_bytes(buf, 64, Some(0), Some(0)).unwrap();
        assert_eq!(st.bytes, 64);
        let got = ctx.gpu.memory().peek(buf, 64).unwrap();
        assert_ne!(got, vec![0u8; 64], "the corruption must land silently");
        assert_eq!(got.iter().filter(|&&b| b != 0).count(), 1);
        assert_eq!(ctx.faults.stats.corruptions, 1);
        assert_eq!(ctx.faults.stats.nacks, 0);
    }

    #[test]
    fn detected_corruption_retransmits_and_delivers_pristine_bytes() {
        // with_faults auto-enables integrity for an active corrupt site:
        // the first delivery attempt is corrupted, detected, NACKed, and
        // the retransmit delivers the sender's pristine payload
        let mut ctx = faulty_ctx("corrupt@0");
        assert!(
            ctx.faults.integrity,
            "an active corrupt site implies integrity"
        );
        let buf = ctx.gpu.host_alloc(64).unwrap();
        ctx.gpu.memory().poke(buf, &[0xAB; 64]).unwrap();
        ctx.send_bytes(buf, 64, 0, 0).unwrap();
        let before = ctx.clock.now();
        let st = ctx.recv_bytes(buf, 64, Some(0), Some(0)).unwrap();
        assert_eq!(st.bytes, 64);
        assert_eq!(ctx.gpu.memory().peek(buf, 64).unwrap(), vec![0xAB; 64]);
        assert_eq!(ctx.faults.stats.corruptions, 1);
        assert_eq!(ctx.faults.stats.nacks, 1);
        assert_eq!(ctx.faults.stats.retransmits, 1);
        assert!(!ctx.faults.stats.nack_time.is_zero());
        assert!(
            ctx.clock.now() - before >= ctx.faults.stats.nack_time,
            "the NACK round trip must be charged to the virtual clock"
        );
    }

    #[test]
    fn exhausted_retransmits_surface_corrupted() {
        let mut ctx = faulty_ctx("corrupt=1.0,retries=2");
        let buf = ctx.gpu.host_alloc(32).unwrap();
        ctx.send_bytes(buf, 32, 0, 0).unwrap();
        let err = ctx.recv_bytes(buf, 32, Some(0), Some(0)).unwrap_err();
        assert_eq!(
            err,
            MpiError::Corrupted {
                peer: 0,
                attempts: 3
            }
        );
        assert!(err.is_comm_failure(), "corruption exhaustion is repairable");
        assert!(!err.is_transient());
        assert_eq!(ctx.faults.stats.corruptions, 3);
        assert_eq!(ctx.faults.stats.nacks, 3);
        assert_eq!(ctx.faults.stats.retransmits, 2);
    }

    #[test]
    fn seeded_corruption_replays_identically() {
        let run = || {
            let mut ctx = faulty_ctx("seed=21,corrupt=0.3,retries=6");
            let buf = ctx.gpu.host_alloc(128).unwrap();
            ctx.gpu.memory().poke(buf, &[7u8; 128]).unwrap();
            for tag in 0..8 {
                ctx.send_bytes(buf, 128, 0, tag).unwrap();
                ctx.recv_bytes(buf, 128, Some(0), Some(tag)).unwrap();
            }
            (
                ctx.clock.now(),
                ctx.faults.stats.corruptions,
                ctx.faults.stats.nacks,
                ctx.faults.stats.retransmits,
                ctx.faults.stats.nack_time,
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "seeded corruption schedule must replay exactly");
        assert!(a.1 > 0, "the seeded plan must corrupt something");
    }

    #[test]
    fn inactive_plan_leaves_timing_identical() {
        // a plan with no active site must not perturb virtual time
        let run = |cfg: &WorldConfig| {
            let mut ctx = RankCtx::standalone(cfg);
            let buf = ctx.gpu.host_alloc(256).unwrap();
            ctx.send_bytes(buf, 256, 0, 0).unwrap();
            ctx.recv_bytes(buf, 256, Some(0), Some(0)).unwrap();
            ctx.clock.now()
        };
        let plain = WorldConfig::summit(1);
        let gated = WorldConfig::summit(1).with_faults(FaultPlan::parse("seed=9").unwrap());
        assert_eq!(run(&plain), run(&gated));
    }

    #[test]
    fn a_delay_site_charges_one_delay_per_run_of_a_train() {
        // a 16-run train and the same runs as 16 parts, every delivery
        // delayed: each run pays one delay, and both land at one instant
        let (run, n) = (64usize, 16usize);
        let landed = |train: bool| {
            let mut ctx = faulty_ctx("delay=1.0:5us");
            let from = ctx.gpu.malloc(2 * run * n).unwrap();
            let to = ctx.gpu.malloc(2 * run * n).unwrap();
            let offsets = move |sink: &mut dyn FnMut(i64)| {
                (0..n).for_each(|k| sink((2 * run * k) as i64));
            };
            if train {
                ctx.send_bytes_runs(from, (run, n), 0, 0, offsets).unwrap();
                let (src, tag) = (Some(0), Some(0));
                ctx.recv_bytes_runs(to, (run, run * n), src, tag, offsets)
                    .unwrap();
            }
            for index in (0..n as u32).filter(|_| !train) {
                let part = PartInfo {
                    index,
                    total: n as u32,
                    runs: 1,
                };
                let at = from.add(2 * run * index as usize);
                ctx.send_bytes_part(at, run, 0, 0, SimTime::ZERO, part)
                    .unwrap();
            }
            for k in (0..n).filter(|_| !train) {
                let to = to.add(2 * run * k);
                ctx.recv_bytes_runs(to, (run, run), Some(0), Some(0), |at| at(0))
                    .unwrap();
            }
            let stats = &ctx.faults.stats;
            (stats.delays, stats.delay_time, ctx.clock.now())
        };
        let train = landed(true);
        assert_eq!(train.0, n as u64);
        assert_eq!(train.1, SimTime::from_us(5) * n as u64);
        assert_eq!(train, landed(false));
    }

    #[test]
    fn a_world_without_a_plan_counts_nothing() {
        // send, probe, recv and a collective on a fault-free world: the
        // layer draws nothing and its counters stay at rest
        let stats = World::run(&WorldConfig::summit(2), |ctx| {
            let buf = ctx.gpu.host_alloc(64)?;
            let peer = 1 - ctx.rank;
            ctx.send_bytes(buf, 64, peer, 1)?;
            ctx.probe(Some(peer), Some(1))?;
            ctx.recv_bytes(buf, 64, Some(peer), Some(1))?;
            let (ones, displs) = ([1; 2], [0, 1]);
            ctx.alltoallv_bytes(buf, &ones, &displs, buf.add(2), &ones, &displs)?;
            Ok((ctx.faults.enabled(), ctx.faults.stats.clone()))
        })
        .unwrap();
        for (enabled, stats) in stats {
            assert!(!enabled);
            assert_eq!(stats, FaultStats::default());
        }
    }

    #[test]
    fn a_death_notice_is_sifted_and_fails_the_waits_on_the_dead() {
        // rank 1 is scheduled to exit at 5 µs and returns at once, so the
        // runtime floods its death notice; rank 0, still at 0 µs, passes the
        // clock-based gate and parks. The notice must be absorbed into the
        // known failures, never queued as matchable data, and end the
        // blocked receive — then a wildcard probe — at the exit instant
        let cfg = WorldConfig::summit(2).with_faults(FaultPlan::parse("exit=1@5us").unwrap());
        World::run(&cfg, |ctx| {
            if ctx.rank == 1 {
                return Ok(());
            }
            let buf = ctx.gpu.host_alloc(4)?;
            let got = ctx.recv_bytes(buf, 4, Some(1), Some(0));
            assert_eq!(got, Err(MpiError::PeerGone));
            assert_eq!(ctx.clock.now(), SimTime::from_us(5));
            assert_eq!(ctx.probe(None, None), Err(MpiError::PeerGone));
            assert_eq!(ctx.known_failures(), vec![1]);
            assert_eq!(ctx.faults.stats.death_notices, 1);
            assert_eq!(ctx.pending_messages(), 0);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn a_rank_context_carries_no_copy_of_the_plan() {
        // the layer's state is a pointer, counters and a map of deaths, so
        // a 10,000-rank world pays for it once per rank, not per plan (the
        // context's last 24 bytes are its spare payload)
        let (ctx, state) = (size_of::<RankCtx>(), size_of::<FaultState>());
        assert!(ctx <= 576, "RankCtx is {ctx} bytes");
        assert!(state <= 200, "FaultState is {state} bytes");
    }
}
