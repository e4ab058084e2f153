//! ULFM-style communicator recovery: revoke / agree / shrink.
//!
//! The model follows MPI's User-Level Failure Mitigation chapter:
//!
//! * **Detection** — any operation against a dead rank returns
//!   [`MpiError::PeerGone`] instead of hanging (clock-based gates, plus
//!   death notices that wake receivers already blocked on the dying rank;
//!   see [`crate::reliability`]).
//! * **Propagation** — [`RankCtx::revoke`] poisons the communicator on
//!   every member: stragglers blocked in a receive observe the revocation
//!   control message and error out with [`MpiError::Revoked`], and every
//!   new operation fails fast at entry.
//! * **Agreement** — [`RankCtx::agree`] is the one collective decision:
//!   every surviving member contributes a `u64` and gets back the
//!   *identical* pair (dead set, minimum value), tolerating failures —
//!   the coordinator's included — mid-protocol. An application ends each
//!   round of work in one agreement and reads everything it must decide
//!   together from that pair: whether the round failed, whom to exclude,
//!   and which state to roll back to.
//! * **Recovery** — [`RankCtx::shrink`] drops an agreed dead set and
//!   densely renumbers the survivors into a new communicator epoch, on
//!   which all p2p and collective operations work again. It is local: the
//!   agreement before it already synchronized the survivors.
//!
//! # The agreement protocol
//!
//! Members try coordinator candidates in communicator-rank order. In round
//! `k` every participant ships its value and locally-known failure set to
//! candidate `k` (`AGREE_GATHER`) — *even when it already believes the
//! candidate dead*, because a candidate whose virtual clock lags its
//! scheduled exit still acts alive and would otherwise wait forever on the
//! skipping participant. The candidate takes the minimum of every gathered
//! value and the union of every gathered set with its own observations (a
//! member's death mid-collection contributes that member), then **floods**
//! the decision (`AGREE_DECIDE`) to all members in one uninterruptible
//! burst before returning. Flooding is what makes the decision unique: a
//! candidate either floods to everyone or to no one, and per-channel FIFO
//! guarantees any member that later observes the candidate's death has
//! already seen its decision. The burst lands in every inbox as one step
//! (revocations too), so whatever a fast member does after the decision —
//! revoke its next round, announce its own death — queues behind the
//! decision on every other member. A participant that observes candidate
//! `k`'s death moves to candidate `k + 1` and re-ships its gather; a
//! decision from *any* source ends its wait.
//!
//! No member leaves an agreement before the last live member entered it:
//! the coordinator's clock advances to the latest gather's departure
//! before it floods, every participant's to the decision's, and each then
//! charges one fixed [`agree_cost`](crate::net::NetModel::agree_cost) —
//! never a per-round cost — so virtual time stays independent of how many
//! protocol steps were executed.
//!
//! # Epochs
//!
//! Every message envelope carries the sender's communicator epoch. A
//! shrink bumps the epoch, so late traffic from before the shrink can
//! never match a post-shrink receive: it is counted in
//! `FaultStats::stale_dropped` and discarded. Messages from a *future*
//! epoch (a peer that finished shrinking first) are queued until the
//! local shrink catches up.
//!
//! # Contract
//!
//! `agree` is collective over the current members: every live member must
//! call it, once per round. Call [`RankCtx::revoke`] first when a round
//! failed locally — revocation is what unblocks members still parked in
//! data receives. A member the agreement decides dead gets
//! [`MpiError::PeerGone`] and must stand down; every other member passes
//! the agreed dead set to `shrink` when it is not empty.

use std::collections::BTreeSet;

use gpu_sim::{MemSpace, SimTime};
use tempi_trace::LANE_CPU;

use crate::error::{MpiError, MpiResult};
use crate::p2p::{Message, Payload, TAG_AGREE_DECIDE, TAG_AGREE_GATHER, TAG_REVOKE};
use crate::runtime::RankCtx;
use crate::sched::{Examined, ParkOp};

/// One agreement message's body: a member's value and the failure set it
/// knows (a gather), or the agreed minimum and dead set (a decision).
#[derive(Debug, PartialEq, Eq)]
struct Ballot {
    value: u64,
    dead: Vec<usize>,
}

impl Ballot {
    /// Little-endian `u64`s: the value, then the world ranks.
    fn encode(&self) -> Vec<u8> {
        let words = std::iter::once(self.value).chain(self.dead.iter().map(|&r| r as u64));
        words.flat_map(u64::to_le_bytes).collect()
    }

    fn decode(bytes: &[u8]) -> Ballot {
        let mut words = bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunk of 8")));
        Ballot {
            value: words.next().unwrap_or(u64::MAX),
            dead: words.map(|w| w as usize).collect(),
        }
    }
}

/// What ended one wait step of the agreement protocol.
enum AgreeEvent {
    /// A participant's ballot arrived, departing at the instant given.
    Gather(Ballot, SimTime),
    /// A decision arrived (from any member), departing at the instant given.
    Decide(Ballot, SimTime),
    /// The watched world rank is dead.
    Dead,
}

impl RankCtx {
    /// Is the current communicator revoked (locally observed)?
    #[must_use]
    pub fn is_revoked(&self) -> bool {
        self.faults.revoked
    }

    /// The current communicator epoch (0 until the first shrink).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch.into()
    }

    /// Current membership: `comm_members()[comm_rank]` is the world rank at
    /// that position. The identity map until the first shrink.
    /// Materialized per call — the runtime stores the pre-shrink identity
    /// map symbolically so a 10,000-rank world doesn't carry an N-entry
    /// table per rank.
    #[must_use]
    pub fn comm_members(&self) -> Vec<usize> {
        self.comm_members.to_vec()
    }

    /// World ranks this rank currently knows to be dead (sorted).
    #[must_use]
    pub fn known_failures(&self) -> Vec<usize> {
        self.faults.known_dead.keys().copied().collect()
    }

    /// World ranks of every current member except this rank.
    fn other_members(&self) -> Vec<usize> {
        self.comm_members
            .iter()
            .filter(|&w| w != self.world_rank)
            .collect()
    }

    /// A control-plane message from this rank, departing now: no clock
    /// advance, no fault gating, and no integrity envelope (control traffic
    /// is consumed by the control plane, not delivered through
    /// `deliver_payload`).
    fn control_message(&self, tag: i32, payload: Vec<u8>) -> Message {
        Message {
            src_world: self.world_rank as u32,
            epoch: self.epoch,
            tag,
            payload: Payload::Pooled(payload),
            sender_space: MemSpace::Host,
            depart: self.clock.now(),
            part: None,
            checksum: 0,
        }
    }

    /// Raw control-plane send, exempt from backpressure (the recovery
    /// protocol's progress guarantees are built on it) and never failing
    /// (an unreachable peer is exactly what the control plane is there to
    /// survive).
    pub(crate) fn control_send(&mut self, dest_world: usize, tag: i32, payload: Vec<u8>) {
        let msg = self.control_message(tag, payload);
        self.router.push(dest_world, msg);
    }

    /// [`RankCtx::control_send`] to every other member in one step: a
    /// push never parks, so no member can react to its copy before every
    /// member holds one, and what a member sends in reaction — a later
    /// round's revocation, a death notice — queues behind the copy on
    /// every member.
    fn control_flood(&mut self, tag: i32, payload: Vec<u8>) {
        let msg = self.control_message(tag, payload);
        for dest in self.other_members() {
            self.router.push(dest, msg.clone());
        }
    }

    /// ULFM `MPI_Comm_revoke`: poison the current communicator epoch on
    /// every member. Idempotent; errors [`MpiError::PeerGone`] only when
    /// this rank's own scheduled death has passed.
    pub fn revoke(&mut self) -> MpiResult<()> {
        self.self_exit_check()?;
        if self.faults.revoked {
            return Ok(());
        }
        self.faults.revoked = true;
        self.faults.stats.revocations += 1;
        let epoch = self.epoch;
        self.tracer.instant(
            self.world_rank as u32,
            LANE_CPU,
            "mpi",
            "comm.revoke",
            self.clock.now().as_ps(),
            || vec![("epoch", epoch.into())],
        );
        self.control_flood(TAG_REVOKE, Vec::new());
        Ok(())
    }

    /// One wait step of the agreement protocol at `epoch`: block until a
    /// gather from world rank `gather_from` arrives (when requested), a
    /// decision arrives from anyone, or world rank `watch_world` is known
    /// dead. Control traffic is absorbed; unrelated data is queued.
    fn agree_wait(
        &mut self,
        epoch: u32,
        gather_from: Option<usize>,
        watch_world: usize,
    ) -> MpiResult<AgreeEvent> {
        let me = self.world_rank;
        let decide = |m: &Message| m.epoch == epoch && m.tag == TAG_AGREE_DECIDE;
        let gather = |m: &Message| {
            m.epoch == epoch
                && m.tag == TAG_AGREE_GATHER
                && Some(m.src_world as usize) == gather_from
        };
        let event = |m: Message| match decide(&m) {
            true => AgreeEvent::Decide(Ballot::decode(&m.payload), m.depart),
            false => AgreeEvent::Gather(Ballot::decode(&m.payload), m.depart),
        };
        loop {
            // Decisions take priority: once one exists, it is *the* answer.
            let kept = (self.router.kept(me, |m| Examined::take_if(decide(m))))
                .or_else(|| self.router.kept(me, |m| Examined::take_if(gather(m))));
            if let Some(m) = kept {
                return Ok(event(m));
            }
            if self.faults.known_dead.contains_key(&watch_world) {
                return Ok(AgreeEvent::Dead);
            }
            // Deaths update `known_dead` inside sift; revocations of a
            // communicator already in recovery carry no new information.
            let m = self.next_arrival(ParkOp::Agree { epoch }, &|m| decide(m) || gather(m))?;
            if decide(&m) || gather(&m) {
                return Ok(event(m));
            }
        }
    }

    /// Adopt a decision made at instant `at`: flood it to every member
    /// (except self) in one uninterruptible burst when this rank
    /// coordinated it, learn its dead set, and charge the agreement. A rank
    /// in the dead set stands down.
    fn adopt_decision(
        &mut self,
        decided: Ballot,
        at: SimTime,
        flood: bool,
    ) -> MpiResult<(Vec<usize>, u64)> {
        self.clock.advance_to(at);
        if flood {
            self.control_flood(TAG_AGREE_DECIDE, decided.encode());
        }
        for &w in &decided.dead {
            let at = self.faults.exit_time(w).unwrap_or_else(|| self.clock.now());
            self.faults.known_dead.entry(w).or_insert(at);
        }
        self.clock.advance(self.net.agree_cost());
        self.faults.stats.agreements += 1;
        let (epoch, dead, value) = (self.epoch, decided.dead.len(), decided.value);
        self.tracer.instant(
            self.world_rank as u32,
            LANE_CPU,
            "mpi",
            "comm.agree",
            self.clock.now().as_ps(),
            || {
                vec![
                    ("epoch", epoch.into()),
                    ("dead", dead.into()),
                    ("value", value.into()),
                ]
            },
        );
        if decided.dead.contains(&self.world_rank) {
            self.faults.stats.peer_gone += 1;
            return Err(MpiError::PeerGone);
        }
        Ok((decided.dead, decided.value))
    }

    /// ULFM `MPI_Comm_agree`, carrying a value: collective over the current
    /// members; returns the identical sorted set of dead world ranks and
    /// the minimum of the values the members passed on every surviving
    /// member, tolerating failures (including coordinator death)
    /// mid-protocol. No member returns before the last live member
    /// entered; each then charges one fixed [`crate::NetModel`] agreement
    /// cost, regardless of rounds executed.
    ///
    /// A rank whose own scheduled death has passed broadcasts its notice
    /// and returns [`MpiError::PeerGone`], and so does a rank the group
    /// decides is dead (its exit passed in the survivors' frame while its
    /// own clock lagged) once it has received — or flooded — the decision.
    pub fn agree(&mut self, value: u64) -> MpiResult<(Vec<usize>, u64)> {
        self.self_exit_check()?;
        let epoch = self.epoch;
        let n = self.size;
        let me = self.rank;
        for k in 0..n {
            if k == me {
                // Coordinator: the minimum of every participant's value,
                // the union of their sets with my own.
                let members: BTreeSet<usize> = self.comm_members.iter().collect();
                let mut union: BTreeSet<usize> = self
                    .faults
                    .known_dead
                    .keys()
                    .copied()
                    .filter(|w| members.contains(w))
                    .collect();
                let (mut min, mut last) = (value, self.clock.now());
                for j in 0..n {
                    if j == me {
                        continue;
                    }
                    let jw = self.comm_members.world(j);
                    if union.contains(&jw) {
                        continue;
                    }
                    match self.agree_wait(epoch, Some(jw), jw)? {
                        AgreeEvent::Gather(ballot, depart) => {
                            union.extend(ballot.dead.into_iter().filter(|w| members.contains(w)));
                            min = min.min(ballot.value);
                            last = last.max(depart);
                        }
                        AgreeEvent::Decide(d, at) => return self.adopt_decision(d, at, false),
                        AgreeEvent::Dead => {
                            union.insert(jw);
                        }
                    }
                }
                let decided = Ballot {
                    value: min,
                    dead: union.into_iter().collect(),
                };
                return self.adopt_decision(decided, last, true);
            }
            // Participant: ship my ballot to candidate k even when I
            // believe it dead — a candidate whose clock lags its scheduled
            // exit still acts alive and must not wait on me forever.
            let cand_world = self.comm_members.world(k);
            let ballot = Ballot {
                value,
                dead: self.known_failures(),
            };
            self.control_send(cand_world, TAG_AGREE_GATHER, ballot.encode());
            if self.faults.known_dead.contains_key(&cand_world) {
                continue;
            }
            match self.agree_wait(epoch, None, cand_world)? {
                AgreeEvent::Decide(d, at) => return self.adopt_decision(d, at, false),
                AgreeEvent::Dead => continue,
                AgreeEvent::Gather(..) => {
                    return Err(MpiError::Internal(
                        "agreement participant matched a gather".into(),
                    ))
                }
            }
        }
        Err(MpiError::Internal(
            "agreement ran out of coordinator candidates".into(),
        ))
    }

    /// ULFM `MPI_Comm_shrink` over an agreed dead set ([`RankCtx::agree`]):
    /// densely renumber the survivors, bump the communicator epoch,
    /// un-revoke, and purge late traffic from the old epoch. Local — the
    /// agreement that produced `dead` already synchronized the survivors,
    /// and traffic from a member that shrank first waits in the queue as a
    /// future epoch's.
    pub fn shrink(&mut self, dead: &[usize]) -> MpiResult<()> {
        let survivors: Vec<usize> = self
            .comm_members
            .iter()
            .filter(|w| !dead.contains(w))
            .collect();
        let me = survivors
            .iter()
            .position(|&w| w == self.world_rank)
            .ok_or_else(|| MpiError::Internal("survivor missing from shrunk group".into()))?;
        self.comm_members = crate::runtime::Members::Explicit(survivors);
        self.rank = me;
        self.size = self.comm_members.len();
        self.epoch += 1;
        self.faults.revoked = false;
        let epoch = self.epoch;
        let mut stale = 0;
        self.router
            .kept(self.world_rank, |m| match m.epoch < epoch {
                true => {
                    stale += 1;
                    Examined::Drop
                }
                false => Examined::Keep,
            });
        self.faults.stats.stale_dropped += stale;
        let new_size = self.size;
        self.tracer.instant(
            self.world_rank as u32,
            LANE_CPU,
            "mpi",
            "comm.shrink",
            self.clock.now().as_ps(),
            || {
                vec![
                    ("epoch", epoch.into()),
                    ("size", new_size.into()),
                    ("dead", dead.len().into()),
                ]
            },
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::net::NetModel;
    use crate::runtime::{World, WorldConfig};

    #[test]
    fn ballot_codec_roundtrips() {
        let ballot = Ballot {
            value: 41,
            dead: vec![0, 3, 7],
        };
        assert_eq!(Ballot::decode(&ballot.encode()), ballot);
        let empty = Ballot {
            value: u64::MAX,
            dead: Vec::new(),
        };
        assert_eq!(Ballot::decode(&empty.encode()), empty);
    }

    #[test]
    fn revoke_is_idempotent_and_poisons_ops() {
        let cfg = WorldConfig::summit(1);
        let mut ctx = crate::runtime::RankCtx::standalone(&cfg);
        assert!(!ctx.is_revoked());
        ctx.revoke().unwrap();
        ctx.revoke().unwrap();
        assert!(ctx.is_revoked());
        assert_eq!(ctx.faults.stats.revocations, 1);
        let buf = ctx.gpu.host_alloc(8).unwrap();
        assert_eq!(ctx.send_bytes(buf, 8, 0, 0), Err(MpiError::Revoked));
        assert_eq!(
            ctx.recv_bytes(buf, 8, Some(0), Some(0)),
            Err(MpiError::Revoked)
        );
        assert_eq!(ctx.probe(None, None), Err(MpiError::Revoked));
    }

    #[test]
    fn fault_free_agree_and_shrink_keep_everyone() {
        let cfg = WorldConfig::summit(4);
        let results = World::run(&cfg, |ctx| {
            let (dead, min) = ctx.agree(10 + ctx.rank as u64)?;
            assert!(dead.is_empty(), "{dead:?}");
            assert_eq!(min, 10, "the minimum of every member's value");
            ctx.shrink(&dead)?;
            assert_eq!(ctx.size, 4);
            assert_eq!(ctx.epoch(), 1);
            assert!(!ctx.is_revoked());
            // p2p still works on the new epoch
            let buf = ctx.gpu.host_alloc(8)?;
            let peer = (ctx.rank + 1) % ctx.size;
            let from = (ctx.rank + ctx.size - 1) % ctx.size;
            ctx.send_bytes(buf, 8, peer, 5)?;
            ctx.recv_bytes(buf, 8, Some(from), Some(5))?;
            Ok(ctx.rank)
        })
        .unwrap();
        assert_eq!(results, vec![0, 1, 2, 3]);
    }

    #[test]
    fn shrink_removes_scheduled_dead_rank() {
        let plan = FaultPlan::parse("exit=1@5us").unwrap();
        let cfg = WorldConfig::summit(3).with_faults(plan);
        let results = World::run(&cfg, |ctx| {
            ctx.clock.advance(SimTime::from_us(10));
            if ctx.rank == 1 {
                // the dead rank: every recovery call reports its own death
                assert_eq!(ctx.revoke(), Err(MpiError::PeerGone));
                assert_eq!(ctx.agree(0), Err(MpiError::PeerGone));
                return Ok((usize::MAX, vec![]));
            }
            ctx.revoke()?;
            let (dead, _) = ctx.agree(0)?;
            ctx.shrink(&dead)?;
            assert_eq!(ctx.size, 2);
            assert_eq!(ctx.epoch(), 1);
            Ok((ctx.rank, dead))
        })
        .unwrap();
        assert_eq!(results[0], (0, vec![1]));
        assert_eq!(results[1].0, usize::MAX);
        assert_eq!(results[2], (1, vec![1]), "rank 2 renumbered to 1");
    }

    #[test]
    fn agree_leaves_every_clock_at_the_last_entry_plus_its_cost() {
        let cfg = WorldConfig::summit(4);
        let results = World::run(&cfg, |ctx| {
            ctx.clock.advance(SimTime::from_us(ctx.rank as u64 * 10));
            ctx.agree(0)?;
            Ok(ctx.clock.now())
        })
        .unwrap();
        let want = SimTime::from_us(30) + NetModel::summit().agree_cost();
        assert_eq!(results, vec![want; 4], "{results:?}");
    }
}
