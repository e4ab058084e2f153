//! ULFM-style communicator recovery, end to end.
//!
//! The contract under test: (1) a rank death at *any* instant of the
//! recovering stencil demo — every whole microsecond of the run and every
//! span edge of its trace, on every rank — leaves the victim alone with
//! `PeerGone` and every survivor's grid byte-for-byte identical to the
//! serial oracle, never a deadlock; (2) agreement returns the *identical*
//! dead set and minimum value on every survivor even when the first
//! coordinator candidate is the one that died; (3) a revoked communicator
//! errors blocked ranks out deterministically instead of hanging, and a
//! shrink restores service; (4) messages from a pre-shrink epoch can never
//! match a post-shrink receive; (5) the whole kill → agree → shrink →
//! resume schedule replays exactly under the same seed.

use gpu_sim::SimTime;
use mpi_sim::{
    FaultPlan, FaultSite, FaultStats, MpiError, MpiResult, RankCtx, RankExit, ScopedFault, World,
    WorldConfig,
};
use tempi_core::config::TempiConfig;
use tempi_core::interpose::InterposedMpi;
use tempi_core::{TraceLevel, Tracer};
use tempi_stencil::{CheckpointStore, HaloConfig, HaloExchanger};
use tempi_trace::EventPhase;

/// What one rank of a recovering stencil run ends with.
#[derive(Debug, Clone, PartialEq)]
struct Recovered {
    /// Shrinks over both iterations.
    shrinks: u64,
    /// World ranks excluded, in exclusion order.
    excluded: Vec<usize>,
    /// The generation the last rebuild restored from, if any.
    restored: Option<u64>,
    /// Final communicator epoch and size.
    epoch: u64,
    size: usize,
    /// The full local grid is byte-for-byte what the serial oracle says.
    verified: bool,
    /// Final virtual clock and fault counters (for replay comparisons).
    clock: SimTime,
    stats: FaultStats,
}

/// One rank's share of the README's recovering demo: build the exchanger,
/// fill it, then two iterations that each checkpoint and exchange with
/// recovery. A rank the group decides is dead surfaces `PeerGone`.
fn recovering_rank(ctx: &mut RankCtx, mut store: CheckpointStore) -> MpiResult<Recovered> {
    let mut mpi = InterposedMpi::new(TempiConfig::default());
    let mut ex = HaloExchanger::new(ctx, &mut mpi, HaloConfig::small(4))?;
    ex.fill(ctx)?;
    let (mut shrinks, mut excluded, mut restored) = (0, Vec::new(), None);
    for _ in 0..2 {
        let out = ex.exchange_with_recovery(ctx, &mut mpi, &mut store, true)?;
        shrinks += out.shrinks;
        excluded.extend(out.excluded);
        restored = out.restored.or(restored);
    }
    Ok(Recovered {
        shrinks,
        excluded,
        restored,
        epoch: ctx.epoch(),
        size: ctx.size,
        verified: ctx.gpu.memory().peek(ex.grid, ex.cfg.alloc_bytes())? == ex.expected_grid(ctx),
        clock: ctx.clock.now(),
        stats: ctx.faults.stats.clone(),
    })
}

/// Run the demo on 8 ranks under `cfg`; every rank's outcome, errors
/// included, comes back as a value, unless the world itself fails (a
/// deadlock is the world's error).
fn demo_world(cfg: &WorldConfig) -> MpiResult<Vec<MpiResult<Recovered>>> {
    World::run(cfg, |ctx| Ok(recovering_rank(ctx, CheckpointStore::new())))
}

/// [`demo_world`], which must run.
fn run_demo(cfg: &WorldConfig) -> Vec<MpiResult<Recovered>> {
    demo_world(cfg).expect("the world must run")
}

/// `spec` with every rank in `victims` scheduled to exit at `at`.
fn with_exits(spec: &str, victims: &[usize], at: SimTime) -> FaultPlan {
    let mut plan = FaultPlan::parse(spec).unwrap();
    for &rank in victims {
        plan.rank_exits.push(RankExit { rank, at });
    }
    plan
}

/// The instant every rank of an 8-rank world under `plan` leaves the
/// first round's agreement — the agreement merges every clock — so a
/// death scheduled there fires at the victim's first operation after
/// checkpoint generation 0 committed everywhere.
fn after_first_commit(plan: &FaultPlan) -> SimTime {
    let cfg = WorldConfig::summit(8).with_faults(plan.clone());
    let ends = World::run(&cfg, |ctx| {
        let mut mpi = InterposedMpi::new(TempiConfig::default());
        let mut ex = HaloExchanger::new(ctx, &mut mpi, HaloConfig::small(4))?;
        ex.fill(ctx)?;
        ex.exchange_with_recovery(ctx, &mut mpi, &mut CheckpointStore::new(), true)?;
        Ok(ctx.clock.now())
    })
    .unwrap();
    assert!(ends.iter().all(|&t| t == ends[0]), "{ends:?}");
    ends[0]
}

/// Survivors of a run whose victims are `victims`: check the victims
/// stood down and every other rank matches the serial oracle.
fn survivors(results: &[MpiResult<Recovered>], victims: &[usize]) -> Vec<Recovered> {
    let mut out = Vec::new();
    for (rank, r) in results.iter().enumerate() {
        if victims.contains(&rank) {
            assert_eq!(r.as_ref().err(), Some(&MpiError::PeerGone), "rank {rank}");
            continue;
        }
        let r = r
            .as_ref()
            .unwrap_or_else(|e| panic!("rank {rank} must recover: {e}"));
        assert!(
            r.verified,
            "rank {rank} grid diverged from the serial oracle"
        );
        out.push(r.clone());
    }
    out
}

#[test]
fn every_victim_at_every_instant_recovers_byte_exactly() {
    // The fault space of the README demo is finite: enumerate it. The
    // instants are every whole microsecond of a fault-free run plus every
    // distinct span edge of its trace, where each phase hands over to the
    // next.
    let tracer = Tracer::new(TraceLevel::Spans);
    let cfg = WorldConfig::summit(8).with_tracer(tracer.clone());
    let clean = run_demo(&cfg);
    let end = (clean.iter())
        .map(|r| r.as_ref().expect("the fault-free run must succeed").clock)
        .max()
        .unwrap();
    let mut edges: Vec<u64> = (tracer.events().iter())
        .filter(|e| {
            matches!(
                e.ph,
                EventPhase::Begin | EventPhase::End | EventPhase::Complete
            )
        })
        .flat_map(|e| [e.ts_ps, e.ts_ps + e.dur_ps])
        .collect();
    edges.sort_unstable();
    edges.dedup();
    let mut instants: Vec<SimTime> = (0..=end.as_ps() / 1_000_000)
        .map(SimTime::from_us)
        .chain(edges.iter().map(|&ps| SimTime::from_ps(ps)))
        .collect();
    instants.sort_unstable();
    instants.dedup();

    // Victims split over a few threads, one world per thread at a time.
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get().min(4));
    let failures: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|first| {
                let instants = &instants;
                s.spawn(move || {
                    let mut failures = Vec::new();
                    for victim in (first..8).step_by(threads) {
                        for &at in instants {
                            let cfg =
                                WorldConfig::summit(8).with_faults(with_exits("", &[victim], at));
                            if let Err(why) = judge(demo_world(&cfg), victim) {
                                failures.push(format!("(victim {victim}, T = {at}): {why}"));
                            }
                        }
                    }
                    failures
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    let runs = 8 * instants.len();
    assert!(runs >= 2_568, "only {runs} runs enumerated");
    assert!(
        failures.is_empty(),
        "{} of {runs} (victim, instant) pairs failed; the first:\n{}",
        failures.len(),
        failures[..failures.len().min(20)].join("\n")
    );
}

/// The verdict on one enumerated run: the world ran, the victim alone
/// returns `PeerGone` and the 7 survivors shrank around it, or — the
/// death came after the run ended — all 8 verify on the whole world; every
/// grid that comes back matches the serial oracle.
fn judge(run: MpiResult<Vec<MpiResult<Recovered>>>, victim: usize) -> Result<(), String> {
    let results = run.map_err(|e| format!("the world: {e}"))?;
    let died = matches!(results[victim], Err(MpiError::PeerGone));
    for (rank, r) in results.iter().enumerate() {
        match r {
            Err(MpiError::PeerGone) if rank == victim => {}
            Err(e) => return Err(format!("rank {rank}: {e}")),
            Ok(r) if !r.verified => {
                return Err(format!("rank {rank} diverged from the serial oracle"))
            }
            Ok(r) if died && (r.size, &r.excluded[..]) != (7, &[victim][..]) => {
                return Err(format!(
                    "rank {rank} ended at size {}, excluded {:?}",
                    r.size, r.excluded
                ))
            }
            Ok(r) if !died && r.size != 8 => {
                return Err(format!("rank {rank} shrank around a victim that lived"))
            }
            Ok(_) => {}
        }
    }
    Ok(())
}

#[test]
fn shrink_after_kill_matches_serial_oracle_byte_for_byte() {
    // Rank 3 dies right after generation 0 committed everywhere: the
    // survivors must detect it, shrink to 7, re-decompose, restore every
    // subdomain from generation 0, and end up with exactly the grid a
    // serial computation of the 7-rank problem predicts.
    let at = after_first_commit(&FaultPlan::default());
    let cfg = WorldConfig::summit(8).with_faults(with_exits("", &[3], at));
    for (rank, r) in survivors(&run_demo(&cfg), &[3]).iter().enumerate() {
        assert_eq!(r.shrinks, 1, "survivor {rank}");
        assert_eq!(r.excluded, vec![3], "survivor {rank}");
        assert_eq!(r.epoch, 1, "survivor {rank}");
        assert_eq!(r.restored, Some(0), "survivor {rank} restores generation 0");
        assert_eq!(r.size, 7, "survivor {rank}");
    }
}

#[test]
fn a_death_before_the_first_commit_restarts_from_the_initial_condition() {
    // Nothing was ever committed when rank 6 dies at 0: the survivors
    // restart the run on 7 ranks from its initial condition, as a job
    // restarted without a checkpoint would, and still verify.
    let cfg = WorldConfig::summit(8).with_faults(with_exits("", &[6], SimTime::ZERO));
    for r in survivors(&run_demo(&cfg), &[6]) {
        assert_eq!((r.shrinks, r.size, r.restored), (1, 7, None));
        assert_eq!(r.excluded, vec![6]);
    }
}

#[test]
fn a_round_that_fails_without_a_death_fails_on_every_rank() {
    // Rank 2's first send exhausts a zero retry budget: a communicator
    // failure with nobody dead. The agreement still tells every rank the
    // round failed, so all 8 shrink to a new epoch together (no one
    // excluded), restart from the initial condition — nothing had
    // committed — and verify.
    let mut plan = FaultPlan::parse("retries=0").unwrap();
    plan.scoped.push(ScopedFault {
        rank: 2,
        site: FaultSite::Send,
        at_call: 0,
    });
    let cfg = WorldConfig::summit(8).with_faults(plan);
    let ranks = survivors(&run_demo(&cfg), &[]);
    for r in &ranks {
        assert_eq!((r.shrinks, r.epoch, r.size, r.restored), (1, 1, 8, None));
        assert!(r.excluded.is_empty());
    }
    assert_eq!(ranks.iter().map(|r| r.stats.send_faults).sum::<u64>(), 1);
}

#[test]
fn agreement_is_identical_on_all_survivors_despite_coordinator_death() {
    // Rank 0 — the *first* coordinator candidate — is the dead one, and
    // the survivors' clocks are skewed so they observe the death at
    // different virtual instants. Every survivor must still decide the
    // same set and the same minimum, and a second agreement must
    // reproduce them.
    let plan = FaultPlan::parse("exit=0@5us").unwrap();
    let cfg = WorldConfig::summit(4).with_faults(plan);
    let results = World::run(&cfg, |ctx| {
        ctx.clock
            .advance(SimTime::from_us(10 + 7 * ctx.rank as u64));
        if ctx.rank == 0 {
            assert_eq!(ctx.agree(0), Err(MpiError::PeerGone));
            return Ok((vec![usize::MAX], 0));
        }
        let first = ctx.agree(10 * ctx.rank as u64)?;
        let second = ctx.agree(10 * ctx.rank as u64)?;
        assert_eq!(first, second, "agreement must be stable");
        Ok(first)
    })
    .unwrap();
    assert_eq!(results[0], (vec![usize::MAX], 0));
    for (rank, decided) in results.iter().enumerate().skip(1) {
        assert_eq!(decided, &(vec![0], 10), "rank {rank} must decide the same");
    }
}

#[test]
fn revoked_comm_errors_blocked_ranks_then_shrink_restores_service() {
    // Ranks 1–3 park in receives that can never be satisfied; rank 0
    // revokes. The revocation must error the blocked ranks out (no hang),
    // poison new operations, and an agreement plus a shrink must then
    // restore full service on the next epoch.
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
        let (dead, _) = ctx.agree(0)?;
        assert!(dead.is_empty(), "nobody actually died");
        ctx.shrink(&dead)?;
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
        let (dead, _) = ctx.agree(0)?;
        ctx.shrink(&dead)?;
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
fn a_death_inside_a_round_replays_exactly() {
    // The README demo: rank 3 dies at 285 µs, inside the second round
    // (generation 0 commits at 245.9 µs, the fault-free run ends at
    // 313.6 µs), so its death notice and the revocations land among the
    // round's traffic. Eight runs must agree on every rank's clock, result
    // and fault counter, the victim's included.
    let cfg = WorldConfig::summit(8).with_faults(FaultPlan::parse("exit=3@285us").unwrap());
    let run = || {
        World::run(&cfg, |ctx| {
            let r = recovering_rank(ctx, CheckpointStore::new());
            Ok((r, ctx.clock.now(), ctx.faults.stats.clone()))
        })
        .expect("the world must run")
    };
    let first = run();
    let results: Vec<_> = first.iter().map(|(r, ..)| r.clone()).collect();
    for r in survivors(&results, &[3]) {
        assert_eq!((r.size, r.restored), (7, Some(0)));
    }
    for i in 1..8 {
        assert_eq!(run(), first, "run {i} differs from the first");
    }
}

#[test]
fn seeded_recovery_replays_identically() {
    // Transient link faults *and* a scheduled death, all seeded: two runs
    // must agree on the recovery outcome, the final grid bytes, the
    // virtual clock, and every fault counter.
    // Rank 5 dies as generation 0 commits, so every survivor learns of it
    // at the next round's first gate, by virtual clock alone.
    let replay = |seed: u64| {
        let spec = format!("seed={seed},send=0.1,recv=0.05,retries=8,backoff=10us");
        let at = after_first_commit(&FaultPlan::parse(&spec).unwrap());
        let cfg = WorldConfig::summit(8).with_faults(with_exits(&spec, &[5], at));
        survivors(&run_demo(&cfg), &[5])
    };
    // CI varies TEMPI_FAULT_SEED so replay holds for every seed, not one
    // lucky one
    let seed: u64 = std::env::var("TEMPI_FAULT_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1337);
    let a = replay(seed);
    assert_eq!(
        a,
        replay(seed),
        "same seed must replay the identical recovery schedule"
    );
    assert_eq!(a.len(), 7);
    for s in &a {
        assert_eq!(s.excluded, vec![5]);
        assert_eq!((s.epoch, s.shrinks, s.restored), (1, 1, Some(0)));
    }
    // a different seed must still recover (the schedule may differ)
    assert_eq!(replay(seed.wrapping_add(687)).len(), 7);
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
    // same seed. Rank 2 dies as generation 0
    // commits, as above.
    let spec = "seed=424242,corrupt=0.2,retries=8,backoff=10us";
    let at = after_first_commit(&FaultPlan::parse(spec).unwrap());
    let replay = || {
        // The scheduler turns any residual hang into a structured Deadlock
        // error naming the stuck ranks: a silent hang is the one outcome a
        // CI run can't diagnose.
        let cfg = WorldConfig::summit(8)
            .with_faults(with_exits(spec, &[2], at))
            .with_deadlock_budget(SimTime::from_ms(100));
        assert!(cfg.integrity, "an active corrupt site enables integrity");
        survivors(&run_demo(&cfg), &[2])
    };
    let a = replay();
    assert_eq!(
        a,
        replay(),
        "same seed must replay the identical event log and restored state"
    );
    assert_eq!(a.len(), 7);
    for s in &a {
        assert_eq!(s.shrinks, 1);
        assert_eq!(s.excluded, vec![2]);
        assert_eq!(s.restored, Some(0), "rebuilt from checkpoints alone");
    }
    // corruption actually happened somewhere and was absorbed by the
    // NACK/retransmit protocol, never surfacing to the application
    let corruptions: u64 = a.iter().map(|s| s.stats.corruptions).sum();
    let nacks: u64 = a.iter().map(|s| s.stats.nacks).sum();
    let retransmits: u64 = a.iter().map(|s| s.stats.retransmits).sum();
    assert!(corruptions >= 1, "the corrupt site never fired");
    assert!(nacks >= 1 && retransmits >= 1, "corruption must be NACKed");
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
    let at = after_first_commit(&FaultPlan::default());
    let cfg = WorldConfig::summit(8)
        .with_faults(with_exits("", &[4, 5], at))
        .with_deadlock_budget(SimTime::from_ms(100));
    let spill = dir.clone();
    let results = World::run(&cfg, move |ctx| {
        Ok(recovering_rank(
            ctx,
            CheckpointStore::with_spill(spill.clone()),
        ))
    })
    .unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    for (rank, r) in survivors(&results, &[4, 5]).iter().enumerate() {
        assert_eq!(r.shrinks, 1, "survivor {rank}: both deaths in one round");
        assert_eq!(r.excluded, vec![4, 5], "survivor {rank}");
        assert_eq!(r.restored, Some(0), "survivor {rank}");
        assert_eq!(r.size, 6, "survivor {rank}");
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
    let at = after_first_commit(&FaultPlan::default());
    let mut plan = with_exits("", &[4, 5], at);
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
        ex.exchange_with_recovery(ctx, &mut mpi, &mut store, true)?;
        // ranks 4 and 5 die entering this agreement
        let (dead, _) = match mpi.comm_agree(ctx, 0) {
            Ok(decided) => decided,
            Err(e) if e.is_comm_failure() => return Ok(None),
            Err(e) => return Err(e),
        };
        assert_eq!(dead, vec![4, 5], "rank {}", ctx.rank);
        mpi.comm_shrink(ctx, &dead)?;
        // Re-decompose over the survivors; the restore is the step under
        // test. (The first exchanger's buffers are intentionally left
        // allocated — this world tears down right after the restore.)
        let origin = ex.origin;
        let mut ex2 = HaloExchanger::new(ctx, &mut mpi, ex.cfg)?;
        ex2.origin = origin;
        let restored = ex2.restore_from_checkpoint(ctx, &mut mpi, &store, 0);
        Ok(Some(restored.map_err(|e| e.to_string())))
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
            (_, Some(Ok(()))) => {}
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
        let (dead, _) = ctx.agree(0)?;
        ctx.shrink(&dead)?;
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
