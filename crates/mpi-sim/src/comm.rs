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
//! * **Agreement** — [`RankCtx::agree_on_failures`] runs a
//!   coordinator-based two-phase protocol that returns the *identical*
//!   failure set on every surviving member, tolerating coordinator death
//!   mid-protocol.
//! * **Recovery** — [`RankCtx::shrink`] densely renumbers the survivors
//!   into a new communicator epoch on which all p2p and collective
//!   operations work again.
//!
//! # The agreement protocol
//!
//! Members try coordinator candidates in communicator-rank order. In round
//! `k` every participant ships its locally-known failure set to candidate
//! `k` (`AGREE_GATHER`) — *even when it already believes the candidate
//! dead*, because a candidate whose virtual clock lags its scheduled exit
//! still acts alive and would otherwise wait forever on the skipping
//! participant. The candidate unions every gathered set with its own
//! observations (a member's death mid-collection contributes that member),
//! then **floods** the decision (`AGREE_DECIDE`) to all members in one
//! uninterruptible burst before returning. Flooding is what makes the
//! decision unique: a candidate either floods to everyone or to no one,
//! and per-channel FIFO guarantees any member that later observes the
//! candidate's death has already seen its decision. A participant that
//! observes candidate `k`'s death moves to candidate `k + 1` and re-ships
//! its gather; a decision from *any* source ends its wait.
//!
//! Every completed agreement charges one fixed [`agree_cost`](crate::net::NetModel::agree_cost)
//! to the virtual clock — never a per-round cost — so virtual time stays
//! independent of how many wall-clock-racy protocol steps were executed.
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
//! `agree_on_failures` and `shrink` are collective over the current
//! members: every live member must call them. Call [`RankCtx::revoke`]
//! first unless every member independently enters recovery — revocation is
//! what unblocks members still parked in data receives.

use std::collections::BTreeSet;

use gpu_sim::{MemSpace, SimTime};
use tempi_trace::LANE_CPU;

use crate::error::{MpiError, MpiResult};
use crate::p2p::{Message, TAG_AGREE_DECIDE, TAG_AGREE_GATHER, TAG_BARRIER, TAG_REVOKE};
use crate::reliability::Sifted;
use crate::runtime::RankCtx;
use crate::sched::ParkOp;

/// Encode a set of world ranks as little-endian `u64`s.
fn encode_ranks<'a>(ranks: impl IntoIterator<Item = &'a usize>) -> Vec<u8> {
    let mut out = Vec::new();
    for &r in ranks {
        out.extend_from_slice(&(r as u64).to_le_bytes());
    }
    out
}

/// Decode a rank set encoded by [`encode_ranks`].
fn decode_ranks(bytes: &[u8]) -> Vec<usize> {
    bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("chunk of 8")) as usize)
        .collect()
}

/// What ended one wait step of the agreement protocol.
enum AgreeEvent {
    /// A participant's failure set arrived (already decoded).
    Gather(Vec<usize>),
    /// A decision arrived (from any member).
    Decide(Vec<usize>),
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
        self.epoch
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

    /// Raw control-plane send: no clock advance, no fault gating, errors
    /// ignored (an unreachable peer is exactly what the control plane is
    /// there to survive).
    pub(crate) fn control_send(&mut self, dest_world: usize, tag: i32, payload: Vec<u8>) {
        let msg = Message {
            src: self.rank,
            src_world: self.world_rank,
            epoch: self.epoch,
            tag,
            payload,
            sender_space: MemSpace::Host,
            depart: self.clock.now(),
            part: None,
            // control traffic never carries an integrity envelope: it is
            // consumed by the control plane, not delivered through
            // `deliver_payload`
            checksum: None,
        };
        // Control traffic is exempt from backpressure: the recovery
        // protocol's progress guarantees are built on it.
        self.router.push(dest_world, msg);
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
        for w in self.other_members() {
            self.control_send(w, TAG_REVOKE, Vec::new());
        }
        Ok(())
    }

    /// One wait step of the agreement protocol at `epoch`: block until a
    /// gather from comm rank `gather_from` arrives (when requested), a
    /// decision arrives from anyone, or world rank `watch_world` is known
    /// dead. Control traffic is absorbed; unrelated data is queued.
    fn agree_wait(
        &mut self,
        epoch: u64,
        gather_from: Option<usize>,
        watch_world: usize,
    ) -> MpiResult<AgreeEvent> {
        loop {
            // Decisions take priority: once one exists, it is *the* answer.
            if let Some(i) = self
                .pending
                .iter()
                .position(|m| m.epoch == epoch && m.tag == TAG_AGREE_DECIDE)
            {
                let m = self.pending.remove(i).expect("index valid");
                return Ok(AgreeEvent::Decide(decode_ranks(&m.payload)));
            }
            if let Some(j) = gather_from {
                if let Some(i) = self
                    .pending
                    .iter()
                    .position(|m| m.epoch == epoch && m.tag == TAG_AGREE_GATHER && m.src == j)
                {
                    let m = self.pending.remove(i).expect("index valid");
                    return Ok(AgreeEvent::Gather(decode_ranks(&m.payload)));
                }
            }
            if self.faults.known_dead.contains_key(&watch_world) {
                return Ok(AgreeEvent::Dead);
            }
            let msg = self.blocking_recv(ParkOp::Agree { epoch })?;
            // Deaths update `known_dead` inside sift; revocations of a
            // communicator already in recovery carry no new information.
            if let Sifted::Keep(m) = self.sift(msg) {
                self.pending.push_back(m);
            }
        }
    }

    /// Flood a decision to every member (except self) in one
    /// uninterruptible burst, then adopt it locally.
    fn adopt_decision(&mut self, decided: Vec<usize>, flood: bool) -> MpiResult<Vec<usize>> {
        if flood {
            let payload = encode_ranks(decided.iter());
            for w in self.other_members() {
                self.control_send(w, TAG_AGREE_DECIDE, payload.clone());
            }
        }
        for &w in &decided {
            let at = self.faults.exit_time(w).unwrap_or_else(|| self.clock.now());
            self.faults.known_dead.entry(w).or_insert(at);
        }
        self.clock.advance(self.net.agree_cost());
        self.faults.stats.agreements += 1;
        let epoch = self.epoch;
        self.tracer.instant(
            self.world_rank as u32,
            LANE_CPU,
            "mpi",
            "comm.agree",
            self.clock.now().as_ps(),
            || vec![("epoch", epoch.into()), ("dead", decided.len().into())],
        );
        Ok(decided)
    }

    /// ULFM `MPI_Comm_agree` over failures: collective over the current
    /// members; returns the identical sorted set of dead world ranks on
    /// every surviving member, tolerating failures (including coordinator
    /// death) mid-protocol. Charges one fixed [`crate::NetModel`] agreement
    /// cost to the virtual clock regardless of rounds executed.
    ///
    /// A rank whose own scheduled death has passed broadcasts its notice
    /// and returns [`MpiError::PeerGone`]; a rank the group decides is dead
    /// (its exit passed in the survivors' frame while its own clock lagged)
    /// receives the decision like everyone else and sees itself in the set.
    pub fn agree_on_failures(&mut self) -> MpiResult<Vec<usize>> {
        self.self_exit_check()?;
        let epoch = self.epoch;
        let n = self.size;
        let me = self.rank;
        for k in 0..n {
            if k == me {
                // Coordinator: union every participant's set with my own.
                let members: BTreeSet<usize> = self.comm_members.iter().collect();
                let mut union: BTreeSet<usize> = self
                    .faults
                    .known_dead
                    .keys()
                    .copied()
                    .filter(|w| members.contains(w))
                    .collect();
                for j in 0..n {
                    if j == me {
                        continue;
                    }
                    let jw = self.comm_members.world(j);
                    if union.contains(&jw) {
                        continue;
                    }
                    match self.agree_wait(epoch, Some(j), jw)? {
                        AgreeEvent::Gather(set) => {
                            union.extend(set.into_iter().filter(|w| members.contains(w)));
                        }
                        AgreeEvent::Decide(d) => return self.adopt_decision(d, false),
                        AgreeEvent::Dead => {
                            union.insert(jw);
                        }
                    }
                }
                let decided: Vec<usize> = union.into_iter().collect();
                return self.adopt_decision(decided, true);
            }
            // Participant: ship my set to candidate k even when I believe
            // it dead — a candidate whose clock lags its scheduled exit
            // still acts alive and must not wait on me forever.
            let cand_world = self.comm_members.world(k);
            let payload = encode_ranks(self.faults.known_dead.keys());
            self.control_send(cand_world, TAG_AGREE_GATHER, payload);
            if self.faults.known_dead.contains_key(&cand_world) {
                continue;
            }
            match self.agree_wait(epoch, None, cand_world)? {
                AgreeEvent::Decide(d) => return self.adopt_decision(d, false),
                AgreeEvent::Dead => continue,
                AgreeEvent::Gather(_) => {
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

    /// ULFM `MPI_Comm_shrink`: agree on the failure set, densely renumber
    /// the survivors, bump the communicator epoch, un-revoke, and purge
    /// late traffic from the old epoch. Returns the agreed dead set.
    ///
    /// Errors [`MpiError::PeerGone`] when the group's decision includes
    /// this rank itself (it is scheduled dead in the survivors' frame and
    /// must stand down).
    pub fn shrink(&mut self) -> MpiResult<Vec<usize>> {
        let dead = self.agree_on_failures()?;
        if dead.contains(&self.world_rank) {
            self.faults.stats.peer_gone += 1;
            return Err(MpiError::PeerGone);
        }
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
        let before = self.pending.len();
        self.pending.retain(|m| m.epoch >= epoch);
        self.faults.stats.stale_dropped += (before - self.pending.len()) as u64;
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
        // Synchronize the survivors on the new epoch (also a smoke test of
        // p2p on the shrunk communicator).
        self.comm_barrier()?;
        Ok(dead)
    }

    /// A fault-aware dissemination barrier over the *current* communicator.
    ///
    /// Unlike [`RankCtx::barrier`] (which synchronizes the full world
    /// through a shared in-process barrier and cannot tolerate dead or
    /// shrunk membership), this one runs on epoch-stamped messages: it
    /// works after a shrink, and a member death or revocation mid-barrier
    /// surfaces as an error instead of a hang. Virtual clocks converge to
    /// at least the max of all participants' entry instants plus one
    /// [`crate::NetModel`] barrier cost.
    pub fn comm_barrier(&mut self) -> MpiResult<()> {
        self.check_comm()?;
        self.self_exit_check()?;
        let n = self.size;
        if n > 1 {
            let epoch = self.epoch;
            let me = self.rank;
            let mut round: u32 = 0;
            let mut dist = 1usize;
            while dist < n {
                let to = self.comm_members.world((me + dist) % n);
                let from = (me + n - dist) % n;
                self.control_send(to, TAG_BARRIER, round.to_le_bytes().to_vec());
                let depart = self.barrier_recv(epoch, from, round)?;
                self.clock.advance_to(depart);
                dist <<= 1;
                round += 1;
            }
        }
        self.clock.advance(self.net.barrier_cost);
        Ok(())
    }

    /// Wait for the round-`round` barrier message from comm rank `from`;
    /// returns its departure instant for the max-merge.
    fn barrier_recv(&mut self, epoch: u64, from: usize, round: u32) -> MpiResult<SimTime> {
        let want = round.to_le_bytes();
        loop {
            if let Some(i) = self.pending.iter().position(|m| {
                m.epoch == epoch && m.tag == TAG_BARRIER && m.src == from && m.payload == want
            }) {
                let m = self.pending.remove(i).expect("index valid");
                return Ok(m.depart);
            }
            if let Some(m) = self.await_arrival(ParkOp::CommBarrier { from, round })? {
                self.pending.push_back(m);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::runtime::{World, WorldConfig};

    #[test]
    fn rank_codec_roundtrips() {
        let set: BTreeSet<usize> = [3usize, 0, 7].into_iter().collect();
        let enc = encode_ranks(set.iter());
        assert_eq!(decode_ranks(&enc), vec![0, 3, 7]);
        assert!(decode_ranks(&[]).is_empty());
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
            let dead = ctx.agree_on_failures()?;
            assert!(dead.is_empty(), "{dead:?}");
            let dead = ctx.shrink()?;
            assert!(dead.is_empty());
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
                return Ok((usize::MAX, vec![]));
            }
            ctx.revoke()?;
            let dead = ctx.shrink()?;
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
    fn comm_barrier_merges_clocks_without_world_barrier() {
        let cfg = WorldConfig::summit(4);
        let results = World::run(&cfg, |ctx| {
            ctx.clock.advance(SimTime::from_us(ctx.rank as u64 * 10));
            ctx.comm_barrier()?;
            Ok(ctx.clock.now())
        })
        .unwrap();
        let floor = SimTime::from_us(30);
        assert!(
            results.iter().all(|&t| t >= floor),
            "all clocks reach the max entry instant: {results:?}"
        );
        assert!(
            results.iter().all(|&t| t == results[0]),
            "dissemination barrier converges clocks: {results:?}"
        );
    }
}
