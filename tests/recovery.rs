//! ULFM-style communicator recovery, end to end.
//!
//! The contract under test: (1) after a scheduled rank death, the
//! survivors revoke, agree, shrink, re-decompose the stencil grid and the
//! resulting halo exchange is byte-for-byte identical to the serial
//! oracle; (2) agreement returns the *identical* failure set on every
//! survivor even when the first coordinator candidate is the one that
//! died; (3) a revoked communicator errors blocked ranks out
//! deterministically instead of hanging, and a shrink restores service;
//! (4) messages from a pre-shrink epoch can never match a post-shrink
//! receive; (5) the whole kill → agree → shrink → resume schedule replays
//! exactly under the same seed.

use gpu_sim::SimTime;
use mpi_sim::{
    FaultPlan, FaultSite, MpiError, MpiResult, RankCtx, ScopedFault, World, WorldConfig,
};
use tempi_core::config::TempiConfig;
use tempi_core::interpose::InterposedMpi;
use tempi_stencil::{CheckpointStore, HaloConfig, HaloExchanger, RecoveryOutcome};

/// One rank's share of a recovering stencil run: build the exchanger,
/// commit checkpoint generation 0 while everyone is still alive, advance
/// past any scheduled exit instant, then exchange with recovery — the
/// restore path rebuilds dead ranks' subdomains from the checkpoint
/// frames alone. Returns the outcome, the full local grid bytes, the
/// serial-oracle expectation, and the final communicator size. A rank the
/// group decides is dead surfaces `PeerGone` to the caller.
fn recovering_rank(
    ctx: &mut RankCtx,
    n: usize,
) -> MpiResult<(RecoveryOutcome, Vec<u8>, Vec<u8>, usize)> {
    let mut mpi = InterposedMpi::new(TempiConfig::default());
    let mut ex = HaloExchanger::new(ctx, &mut mpi, HaloConfig::small(n))?;
    ex.fill(ctx)?;
    let mut store = CheckpointStore::new();
    ex.checkpoint(ctx, &mut mpi, &mut store)?;
    // Scheduled exits are late (10ms) so the snapshot above commits on
    // every rank first; the clock barrier makes that "first" hold in real
    // thread order too, not just on the virtual timeline. Without it a
    // fast survivor that already observed the death could revoke while a
    // slow rank is still inside the checkpoint's message barrier, making
    // that rank abort its commit — leaving no commonly-committed
    // generation and deadlocking the later agreement (a rare but real
    // schedule this suite used to hang on). The advance then carries each
    // rank past its exit instant so the death is observed *inside* the
    // recovered exchange.
    ctx.barrier();
    ctx.clock.advance(SimTime::from_ms(20));
    let out = ex.exchange_with_recovery(ctx, &mut mpi, &store, 4)?;
    let got = { ctx.gpu.memory().peek(ex.grid, ex.cfg.alloc_bytes())? };
    let want = ex.expected_grid(ctx);
    Ok((out, got, want, ctx.size))
}

#[test]
fn shrink_after_kill_matches_serial_oracle_byte_for_byte() {
    // 8 ranks, rank 3 scheduled dead before the exchange: the survivors
    // must detect, shrink to 7, re-decompose, restore every subdomain from
    // checkpoint generation 0, and end up with exactly the grid a serial
    // computation of the 7-rank problem predicts.
    let plan = FaultPlan::parse("exit=3@10ms").unwrap();
    let cfg = WorldConfig::summit(8).with_faults(plan);
    let results = World::run(&cfg, |ctx| match recovering_rank(ctx, 4) {
        Ok(r) => Ok(Some(r)),
        Err(e) if e.is_comm_failure() => Ok(None),
        Err(e) => Err(e),
    })
    .unwrap();
    assert!(results[3].is_none(), "the killed rank must stand down");
    for (rank, r) in results.iter().enumerate() {
        if rank == 3 {
            continue;
        }
        let (out, got, want, size) = r.as_ref().expect("survivors must recover");
        assert_eq!(out.shrinks, 1, "rank {rank}");
        assert_eq!(out.excluded, vec![3], "rank {rank}");
        assert_eq!(out.epoch, 1, "rank {rank}");
        assert_eq!(out.restored, Some(0), "rank {rank} restores generation 0");
        assert_eq!(*size, 7, "rank {rank}");
        assert_eq!(
            got, want,
            "rank {rank} grid diverged from the serial oracle"
        );
    }
}

#[test]
fn agreement_is_identical_on_all_survivors_despite_coordinator_death() {
    // Rank 0 — the *first* coordinator candidate — is the dead one, and
    // the survivors' clocks are skewed so they observe the death at
    // different virtual instants. Every survivor must still decide the
    // same set, and a second agreement must reproduce it.
    let plan = FaultPlan::parse("exit=0@5us").unwrap();
    let cfg = WorldConfig::summit(4).with_faults(plan);
    let results = World::run(&cfg, |ctx| {
        ctx.clock
            .advance(SimTime::from_us(10 + 7 * ctx.rank as u64));
        if ctx.rank == 0 {
            assert_eq!(ctx.agree_on_failures(), Err(MpiError::PeerGone));
            return Ok(vec![usize::MAX]);
        }
        let first = ctx.agree_on_failures()?;
        let second = ctx.agree_on_failures()?;
        assert_eq!(first, second, "agreement must be stable");
        Ok(first)
    })
    .unwrap();
    assert_eq!(results[0], vec![usize::MAX]);
    for (rank, set) in results.iter().enumerate().skip(1) {
        assert_eq!(set, &vec![0], "rank {rank} must decide the same set");
    }
}

#[test]
fn revoked_comm_errors_blocked_ranks_then_shrink_restores_service() {
    // Ranks 1–3 park in receives that can never be satisfied; rank 0
    // revokes. The revocation must error the blocked ranks out (no hang),
    // poison new operations, and a collective shrink must then restore
    // full service on the next epoch.
    let cfg = WorldConfig::summit(4);
    let results = World::run(&cfg, |ctx| {
        let buf = ctx.gpu.host_alloc(8)?;
        if ctx.rank == 0 {
            ctx.revoke()?;
            assert_eq!(ctx.send_bytes(buf, 8, 1, 99), Err(MpiError::Revoked));
        } else {
            assert_eq!(
                ctx.recv_bytes(buf, 8, Some(0), Some(99)),
                Err(MpiError::Revoked)
            );
            assert!(ctx.is_revoked());
        }
        let dead = ctx.shrink()?;
        assert!(dead.is_empty(), "nobody actually died");
        assert_eq!(ctx.epoch(), 1);
        assert!(!ctx.is_revoked());
        // service restored: a ring exchange on the new epoch
        let peer = (ctx.rank + 1) % ctx.size;
        let from = (ctx.rank + ctx.size - 1) % ctx.size;
        ctx.send_bytes(buf, 8, peer, 5)?;
        let st = ctx.recv_bytes(buf, 8, Some(from), Some(5))?;
        Ok(st.bytes)
    })
    .unwrap();
    assert_eq!(results, vec![8; 4]);
}

#[test]
fn stale_prior_epoch_messages_are_rejected_after_shrink() {
    // A message posted before the shrink must never match a receive posted
    // after it, even with the same source and tag: the receiver gets the
    // post-shrink payload and counts the stale one as dropped.
    let cfg = WorldConfig::summit(2);
    let results = World::run(&cfg, |ctx| {
        let buf = ctx.gpu.host_alloc(8)?;
        if ctx.rank == 0 {
            ctx.gpu.memory().poke(buf, &[0xAA; 8])?;
            ctx.send_bytes(buf, 8, 1, 7)?;
        }
        let dead = ctx.shrink()?;
        assert!(dead.is_empty());
        assert_eq!(ctx.epoch(), 1);
        if ctx.rank == 0 {
            ctx.gpu.memory().poke(buf, &[0xBB; 8])?;
            ctx.send_bytes(buf, 8, 1, 7)?;
            Ok((0, Vec::new()))
        } else {
            let st = ctx.recv_bytes(buf, 8, Some(0), Some(7))?;
            assert_eq!(st.bytes, 8);
            let got = { ctx.gpu.memory().peek(buf, 8)? };
            Ok((ctx.faults.stats.stale_dropped, got))
        }
    })
    .unwrap();
    assert_eq!(
        results[1].1,
        vec![0xBB; 8],
        "the post-shrink payload, never the stale one"
    );
    assert!(
        results[1].0 >= 1,
        "the stale epoch-0 message must be counted dropped"
    );
}

#[test]
fn seeded_recovery_replays_identically() {
    // Transient link faults *and* a scheduled death, all seeded: two runs
    // must agree on the recovery outcome, the final grid bytes, the
    // virtual clock, and every injection counter.
    let run = |seed: u64| {
        let cfg = WorldConfig::summit(8).with_faults(
            FaultPlan::parse(&format!(
                "seed={seed},send=0.1,recv=0.05,retries=8,backoff=10us,exit=5@10ms"
            ))
            .unwrap(),
        );
        World::run(&cfg, |ctx| match recovering_rank(ctx, 4) {
            Ok((out, got, want, size)) => {
                assert_eq!(got, want, "recovered grid must match the serial oracle");
                Ok(Some((
                    out,
                    got,
                    size,
                    ctx.clock.now().as_ps(),
                    ctx.faults.stats.send_faults,
                    ctx.faults.stats.recv_faults,
                    ctx.faults.stats.retries,
                )))
            }
            Err(e) if e.is_comm_failure() => Ok(None),
            Err(e) => Err(e),
        })
        .unwrap()
    };
    // CI varies TEMPI_FAULT_SEED so replay holds for every seed, not one
    // lucky one
    let seed: u64 = std::env::var("TEMPI_FAULT_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1337);
    let a = run(seed);
    let b = run(seed);
    assert_eq!(
        a, b,
        "same seed must replay the identical recovery schedule"
    );
    assert!(a[5].is_none(), "rank 5 is the scheduled death");
    let survivors: Vec<_> = a.iter().flatten().collect();
    assert_eq!(survivors.len(), 7);
    for s in &survivors {
        assert!(s.0.excluded.contains(&5));
        assert!(s.0.epoch >= 1 && s.0.shrinks >= 1);
    }
    // a different seed must still recover (the schedule may differ)
    let c = run(seed.wrapping_add(687));
    assert!(c[5].is_none());
    assert_eq!(c.iter().flatten().count(), 7);
}

#[test]
fn kill_plus_corruption_restores_from_checkpoints_and_replays() {
    // The headline scenario: a seeded rank kill AND in-transit payload
    // corruption in the same run. The survivors' NACK/retransmit path
    // absorbs the corruption, the shrink rebuilds every subdomain from
    // checkpoint generation 0 alone (there is no oracle refill left in the
    // recovery path), the final grid matches the serial oracle
    // byte-for-byte, and the whole schedule — fault counters, degradation
    // log, restored state, virtual clocks — replays identically under the
    // same seed.
    let run = |seed: u64| {
        // The scheduler turns any residual hang in this schedule into a
        // structured Deadlock error naming the stuck ranks — this test
        // used to wedge rarely (see the barrier note in
        // `recovering_rank`), and a silent hang is the one outcome a CI
        // run can't diagnose.
        let cfg = WorldConfig::summit(8)
            .with_faults(
                FaultPlan::parse(&format!(
                    "seed={seed},corrupt=0.2,retries=8,backoff=10us,exit=2@10ms"
                ))
                .unwrap(),
            )
            .with_deadlock_budget(SimTime::from_ms(100));
        assert!(cfg.integrity, "an active corrupt site enables integrity");
        World::run(&cfg, |ctx| match recovering_rank(ctx, 4) {
            Ok((out, got, want, size)) => {
                assert_eq!(
                    got, want,
                    "rank {}: restored grid must match the serial oracle",
                    ctx.rank
                );
                Ok(Some((
                    out,
                    got,
                    size,
                    ctx.clock.now().as_ps(),
                    ctx.faults.stats.clone(),
                )))
            }
            Err(e) if e.is_comm_failure() => Ok(None),
            Err(e) => Err(e),
        })
        .unwrap()
    };
    let a = run(424_242);
    let b = run(424_242);
    assert_eq!(
        a, b,
        "same seed must replay the identical event log and restored state"
    );
    assert!(a[2].is_none(), "rank 2 is the scheduled death");
    let survivors: Vec<_> = a.iter().flatten().collect();
    assert_eq!(survivors.len(), 7);
    for s in &survivors {
        assert_eq!(s.0.shrinks, 1);
        assert_eq!(s.0.excluded, vec![2]);
        assert_eq!(s.0.restored, Some(0), "rebuilt from checkpoints alone");
    }
    // corruption actually happened somewhere and was absorbed by the
    // NACK/retransmit protocol, never surfacing to the application
    let corruptions: u64 = survivors.iter().map(|s| s.4.corruptions).sum();
    let nacks: u64 = survivors.iter().map(|s| s.4.nacks).sum();
    let retransmits: u64 = survivors.iter().map(|s| s.4.retransmits).sum();
    assert!(corruptions >= 1, "the corrupt site never fired");
    assert!(nacks >= 1 && retransmits >= 1, "corruption must be NACKed");
}

/// Block until `peer`'s death notice (or this rank's own scheduled exit)
/// has been sifted locally: receive on a tag nobody ever sends, which can
/// only end in an error once the death is known. Pinning failure
/// knowledge down *before* agreement runs makes a multi-death schedule
/// shrink in a single deterministic round on every thread interleaving.
fn await_death_notice(ctx: &mut RankCtx, peer: usize) {
    if let Ok(buf) = ctx.gpu.host_alloc(1) {
        let _ = ctx.recv_bytes(buf, 1, Some(peer), Some(913));
        let _ = ctx.gpu.free(buf);
    }
}

#[test]
fn restore_falls_back_to_spill_when_owner_and_buddy_both_die() {
    // 8 ranks decompose as [2,2,2]; the 6 survivors re-decompose as
    // [1,2,3], whose wrapped coordinates need old blocks {0, 2, 4, 6}.
    // Killing ranks 4 AND 5 removes both the owner and the buddy mirror
    // of block 4, so the survivor that rebuilds it (world rank 2) can only
    // get the bytes from the spill directory — the provider chain's last
    // resort. A byte-exact final grid therefore proves the disk path.
    let dir = std::env::temp_dir().join(format!("tempi-spill-fb-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let plan = FaultPlan::parse("exit=4@10ms,exit=5@10ms").unwrap();
    let cfg = WorldConfig::summit(8)
        .with_faults(plan)
        .with_deadlock_budget(SimTime::from_ms(100));
    let spill = dir.clone();
    let results = World::run(&cfg, move |ctx| {
        let mut mpi = InterposedMpi::new(TempiConfig::default());
        let mut ex = HaloExchanger::new(ctx, &mut mpi, HaloConfig::small(4))?;
        ex.fill(ctx)?;
        let mut store = CheckpointStore::with_spill(spill.clone());
        ex.checkpoint(ctx, &mut mpi, &mut store)?;
        // Clock barrier: no rank may announce its death (at its first
        // post-exit operation below) before EVERY rank has committed the
        // snapshot — otherwise a fast survivor's revoke can reach a slow
        // rank still inside the checkpoint's message barrier, abort its
        // commit, and leave the world without a common generation.
        ctx.barrier();
        ctx.clock.advance(SimTime::from_ms(20));
        await_death_notice(ctx, 4);
        await_death_notice(ctx, 5);
        match ex.exchange_with_recovery(ctx, &mut mpi, &store, 4) {
            Ok(out) => {
                let got = ctx.gpu.memory().peek(ex.grid, ex.cfg.alloc_bytes())?;
                let want = ex.expected_grid(ctx);
                Ok(Some((out, got, want, ctx.size)))
            }
            Err(e) if e.is_comm_failure() => Ok(None),
            Err(e) => Err(e),
        }
    })
    .unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(results[4].is_none() && results[5].is_none());
    for (rank, r) in results.iter().enumerate() {
        if rank == 4 || rank == 5 {
            continue;
        }
        let (out, got, want, size) = r.as_ref().expect("survivors must recover");
        assert_eq!(out.shrinks, 1, "rank {rank}: both deaths in one round");
        let mut excluded = out.excluded.clone();
        excluded.sort_unstable();
        assert_eq!(excluded, vec![4, 5], "rank {rank}");
        assert_eq!(out.restored, Some(0), "rank {rank}");
        assert_eq!(*size, 6, "rank {rank}");
        assert_eq!(
            got, want,
            "rank {rank} grid diverged from the serial oracle"
        );
    }
}

#[test]
fn corrupted_spill_surfaces_a_typed_error_instead_of_bad_data() {
    // Same double death as above, but the spill file of block 4 is
    // corrupted on its way to disk by BOTH of its writers (world 4 spills
    // it as its second write, world 5 mirrors it as its first), so the
    // last-resort read must fail frame verification with a typed error —
    // silently restoring flipped bytes would be far worse than failing.
    // Every other survivor restores its block from a live provider and
    // never touches the bad file.
    let dir = std::env::temp_dir().join(format!("tempi-spill-bad-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut plan = FaultPlan::parse("exit=4@10ms,exit=5@10ms").unwrap();
    plan.scoped.push(ScopedFault {
        rank: 4,
        site: FaultSite::Spill,
        at_call: 1,
    });
    plan.scoped.push(ScopedFault {
        rank: 5,
        site: FaultSite::Spill,
        at_call: 0,
    });
    let cfg = WorldConfig::summit(8)
        .with_faults(plan)
        .with_deadlock_budget(SimTime::from_ms(100));
    let spill = dir.clone();
    let results = World::run(&cfg, move |ctx| {
        let mut mpi = InterposedMpi::new(TempiConfig::default());
        let mut ex = HaloExchanger::new(ctx, &mut mpi, HaloConfig::small(4))?;
        ex.fill(ctx)?;
        let mut store = CheckpointStore::with_spill(spill.clone());
        ex.checkpoint(ctx, &mut mpi, &mut store)?;
        ctx.barrier(); // commits must all land before any death announces
        ctx.clock.advance(SimTime::from_ms(20));
        await_death_notice(ctx, 4);
        await_death_notice(ctx, 5);
        let _ = mpi.comm_revoke(ctx);
        let mut dead = match mpi.comm_shrink(ctx) {
            Ok(d) => d,
            Err(e) if e.is_comm_failure() => return Ok(None),
            Err(e) => return Err(e),
        };
        dead.sort_unstable();
        assert_eq!(dead, vec![4, 5], "rank {}", ctx.rank);
        // Re-decompose over the survivors; the restore is the step under
        // test. (The first exchanger's buffers are intentionally left
        // allocated — this world tears down right after the restore.)
        let origin = ex.origin;
        let mut ex2 = HaloExchanger::new(ctx, &mut mpi, ex.cfg)?;
        ex2.origin = origin;
        Ok(Some(
            match ex2.restore_from_checkpoint(ctx, &mut mpi, &store) {
                Ok(generation) => Ok(generation),
                Err(e) => Err(e.to_string()),
            },
        ))
    })
    .unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    for (rank, r) in results.iter().enumerate() {
        match (rank, r) {
            (4 | 5, None) => {}
            (2, Some(Err(msg))) => assert!(
                msg.contains("checkpoint frame"),
                "rank 2 must surface the frame verification failure, got: {msg}"
            ),
            (_, Some(Ok(generation))) => assert_eq!(*generation, 0, "rank {rank}"),
            other => panic!("unexpected outcome for rank {rank}: {other:?}"),
        }
    }
}

#[test]
fn stale_epoch_drop_and_corruption_nack_compose() {
    // Epoch hygiene and integrity interact on the same receive: a
    // pre-shrink in-flight message is dropped by the epoch filter *before*
    // any checksum work (it counts as stale, not as a corruption), and the
    // post-shrink message — whose first delivery attempt IS corrupted
    // (`corrupt@0`) — comes through the NACK/retransmit path byte-exact.
    let plan = FaultPlan::parse("seed=7,corrupt@0,retries=4,backoff=1us").unwrap();
    let cfg = WorldConfig::summit(2).with_faults(plan);
    assert!(cfg.integrity);
    let results = World::run(&cfg, |ctx| {
        let buf = ctx.gpu.host_alloc(8)?;
        if ctx.rank == 0 {
            // posted at epoch 0, will still be in flight across the shrink
            ctx.gpu.memory().poke(buf, &[0xAA; 8])?;
            ctx.send_bytes(buf, 8, 1, 7)?;
        }
        let dead = ctx.shrink()?;
        assert!(dead.is_empty());
        assert_eq!(ctx.epoch(), 1);
        if ctx.rank == 0 {
            ctx.gpu.memory().poke(buf, &[0xBB; 8])?;
            ctx.send_bytes(buf, 8, 1, 7)?;
            Ok((Vec::new(), ctx.faults.stats.clone()))
        } else {
            let st = ctx.recv_bytes(buf, 8, Some(0), Some(7))?;
            assert_eq!(st.bytes, 8);
            let got = { ctx.gpu.memory().peek(buf, 8)? };
            Ok((got, ctx.faults.stats.clone()))
        }
    })
    .unwrap();
    let (got, stats) = &results[1];
    assert_eq!(
        got,
        &vec![0xBB; 8],
        "the epoch-1 payload, delivered uncorrupted after the retransmit"
    );
    assert!(
        stats.stale_dropped >= 1,
        "the stale epoch-0 message must be dropped by the epoch filter"
    );
    assert_eq!(stats.corruptions, 1, "corrupt@0 fires once, on delivery");
    assert_eq!(stats.nacks, 1);
    assert_eq!(stats.retransmits, 1);
    // the stale message was never checksum-verified: had it been, its
    // corruption would have been counted too
    assert_eq!(results[0].1.corruptions, 0, "the sender never delivers");
}
