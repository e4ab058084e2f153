//! The chaos engine: run one [`Scenario`] in a virtual-time world and
//! judge it with every invariant oracle.
//!
//! The engine never has to trust a run to terminate on its own — the
//! scheduler detects deadlock structurally, so a schedule that wedges
//! comes back as a typed [`MpiError::Deadlock`] naming the stuck ranks
//! instead of hanging the campaign. Closures never return `Err`: each rank folds
//! what happened into a [`RankReport`] so one rank's failure cannot hide
//! another's evidence.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use gpu_sim::{GpuPtr, SimTime};
use mpi_sim::datatype::{typemap, TypeTree};
use mpi_sim::{Datatype, MpiError, MpiResult, RankCtx, World, WorldConfig};
use tempi_core::config::TempiConfig;
use tempi_core::interpose::InterposedMpi;
use tempi_stencil::{CheckpointStore, HaloConfig, HaloExchanger};
use tempi_trace::{TraceLevel, Tracer};

use crate::oracle::{self, oracle as oracle_names, RankReport, Violation};
use crate::scenario::{Rng, Scenario, Workload};

/// Everything one scenario run produced: the oracle verdicts, the
/// per-rank evidence, and the trace (for Chrome-trace failure dumps).
pub struct Outcome {
    /// Invariant violations, empty when the run held every oracle.
    pub violations: Vec<Violation>,
    /// Per-rank evidence the verdicts were computed from.
    pub reports: Vec<RankReport>,
    /// The run's shared tracer (spans level).
    pub tracer: Tracer,
}

impl Outcome {
    /// Did the run hold every invariant?
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Distinguishes concurrently-running scenarios' spill directories within
/// one process (the directory name carries no entropy requirement — runs
/// are deterministic regardless of where they spill).
static SPILL_SERIAL: AtomicU64 = AtomicU64::new(0);

fn spill_dir(sc: &Scenario) -> PathBuf {
    let serial = SPILL_SERIAL.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "tempi-chaos-{}-{}-{serial}",
        std::process::id(),
        sc.seed
    ))
}

/// Run one scenario to completion and judge it.
pub fn run_scenario(sc: &Scenario) -> Outcome {
    let tracer = Tracer::new(TraceLevel::Spans);
    let mut cfg = WorldConfig::summit(sc.ranks);
    cfg.net.ranks_per_node = 2;
    let mut cfg = cfg
        .with_faults(sc.to_plan())
        .with_deadlock_budget(SimTime::from_ms(100))
        .with_tracer(tracer.clone());
    if sc.integrity {
        cfg = cfg.with_integrity();
    }
    let spill = spill_dir(sc);
    let dead = sc.scheduled_dead();
    let run = World::run(&cfg, |ctx| Ok(run_rank(ctx, sc, &spill, &dead)));
    let _ = std::fs::remove_dir_all(&spill);
    match run {
        Ok(reports) => Outcome {
            violations: oracle::check_all(&reports, &tracer.events()),
            reports,
            tracer,
        },
        Err(e) => Outcome {
            violations: vec![Violation::global(
                oracle_names::HARNESS,
                format!("world failed to run: {e}"),
            )],
            reports: Vec::new(),
            tracer,
        },
    }
}

/// Write a failing scenario and its Chrome trace next to each other so a
/// human can open the exact virtual-time schedule that violated an
/// invariant. Returns the two paths written.
pub fn dump_failure(
    sc: &Scenario,
    outcome: &Outcome,
    dir: &Path,
    name: &str,
) -> std::io::Result<(PathBuf, PathBuf)> {
    std::fs::create_dir_all(dir)?;
    let entry = crate::corpus::CorpusEntry {
        name: name.to_string(),
        status: "open".to_string(),
        scenario: sc.clone(),
        violation: outcome.violations.first().cloned(),
    };
    let scenario_path = dir.join(format!("{name}.json"));
    crate::corpus::save(&scenario_path, &entry)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    let trace_path = dir.join(format!("{name}.trace.json"));
    outcome
        .tracer
        .write_chrome_trace(&trace_path.to_string_lossy())?;
    Ok((scenario_path, trace_path))
}

/// One rank's whole life under the scenario, folded into a report.
fn run_rank(ctx: &mut RankCtx, sc: &Scenario, spill: &Path, dead: &[usize]) -> RankReport {
    let mut rep = RankReport {
        rank: ctx.world_rank,
        ..RankReport::default()
    };
    rep.epochs.push(ctx.epoch());
    let mut mpi = InterposedMpi::new(TempiConfig::default());
    // GPU allocations made before the workload (none today, but cheap
    // insurance) are not the workload's to free.
    let baseline = ctx.gpu.memory().live_allocations();
    let result = match sc.workload {
        Workload::SendStorm { messages } => send_storm(ctx, &mut mpi, sc, messages, &mut rep),
        Workload::StencilRecovery { n } => stencil_recovery(ctx, &mut mpi, n, spill, &mut rep),
        Workload::CheckpointCycle { cycles } => {
            checkpoint_cycle(ctx, &mut mpi, cycles, spill, &mut rep)
        }
    };
    rep.epochs.push(ctx.epoch());
    if let Err(e) = result {
        rep.deadlock = matches!(e, MpiError::Deadlock { .. });
        rep.died = dead.contains(&ctx.world_rank) && e.is_comm_failure();
        rep.error = Some(e.to_string());
    }
    rep.pool_outstanding = mpi.tempi.pool.outstanding();
    // Everything the workload allocated must be freed, except the scratch
    // buffers the pool deliberately retains for reuse.
    let live = ctx.gpu.memory().live_allocations();
    rep.live_allocations = live.saturating_sub(baseline + mpi.tempi.pool.pooled());
    rep
}

// ---------------------------------------------------------------------
// Workload: SendStorm
// ---------------------------------------------------------------------

/// One committed datatype plus the byte regions it touches in a buffer of
/// `span` bytes — enough to build the serial oracle for any receive.
struct ZooEntry {
    dt: Datatype,
    span: usize,
    blocks: Vec<(usize, usize)>,
}

/// The datatype zoo: one dense, one strided, one 2-D subarray — the three
/// canonical shapes of the paper's datatype taxonomy.
const ZOO: [&str; 3] = [
    "contiguous(512, byte)",
    "vector(16, 8, 32, byte)",
    "subarray([32, 32], [16, 8], [4, 4], byte)",
];

/// Build and commit [`ZOO`] in order; each entry's span is the type's
/// extent and its blocks the typemap's, both read unpriced.
fn build_zoo(ctx: &mut RankCtx, mpi: &mut InterposedMpi) -> MpiResult<Vec<ZooEntry>> {
    ZOO.iter()
        .map(|spec| {
            let dt = spec.parse::<TypeTree>()?.build(ctx)?;
            mpi.type_commit(ctx, dt)?;
            let reg = ctx.registry().read();
            let blocks = typemap::segments(&reg, dt)?.into_iter();
            Ok(ZooEntry {
                dt,
                span: reg.extent(dt)?.1 as usize,
                blocks: blocks.map(|s| (s.off as usize, s.len as usize)).collect(),
            })
        })
        .collect()
}

/// Deterministic payload for `(sender, round, zoo index)`.
fn storm_pattern(seed: u64, sender: usize, round: u32, zi: usize, len: usize) -> Vec<u8> {
    let mut rng = Rng::new(seed ^ ((sender as u64) << 40) ^ ((round as u64) << 20) ^ zi as u64);
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

/// Ring storm: every round, each rank sends the full zoo to its successor
/// and byte-checks the zoo arriving from its predecessor against the
/// serial oracle — received blocks carry the sender's pattern, everything
/// between them stays untouched.
fn send_storm(
    ctx: &mut RankCtx,
    mpi: &mut InterposedMpi,
    sc: &Scenario,
    messages: u32,
    rep: &mut RankReport,
) -> MpiResult<()> {
    let n = ctx.size;
    let next = (ctx.rank + 1) % n;
    let prev = (ctx.rank + n - 1) % n;
    let zoo = build_zoo(ctx, mpi)?;
    let bufs: Vec<(GpuPtr, GpuPtr)> = zoo
        .iter()
        .map(|z| Ok((ctx.gpu.malloc(z.span)?, ctx.gpu.malloc(z.span)?)))
        .collect::<MpiResult<_>>()?;
    let result = (|| {
        for round in 0..messages {
            for (zi, z) in zoo.iter().enumerate() {
                let (sendbuf, recvbuf) = bufs[zi];
                let tag = (round as i32) * zoo.len() as i32 + zi as i32;
                let outgoing = storm_pattern(sc.seed, ctx.rank, round, zi, z.span);
                ctx.gpu.memory().poke(sendbuf, &outgoing)?;
                ctx.gpu.memory().poke(recvbuf, &vec![0u8; z.span])?;
                // Rank 0 opens the ring; everyone else forwards after
                // receiving, so the round is deadlock-free for any size.
                if ctx.rank == 0 {
                    mpi.send(ctx, sendbuf, 1, z.dt, next, tag)?;
                    mpi.recv(ctx, recvbuf, 1, z.dt, Some(prev), Some(tag))?;
                } else {
                    mpi.recv(ctx, recvbuf, 1, z.dt, Some(prev), Some(tag))?;
                    mpi.send(ctx, sendbuf, 1, z.dt, next, tag)?;
                }
                if rep.bytes_mismatch.is_none() {
                    let got = ctx.gpu.memory().peek(recvbuf, z.span)?;
                    let sent = storm_pattern(sc.seed, prev, round, zi, z.span);
                    let mut want = vec![0u8; z.span];
                    for &(off, len) in &z.blocks {
                        want[off..off + len].copy_from_slice(&sent[off..off + len]);
                    }
                    if got != want {
                        let at = got.iter().zip(&want).position(|(a, b)| a != b);
                        rep.bytes_mismatch = Some(format!(
                            "round {round} zoo {zi} from rank {prev}: byte {at:?} \
                             diverges from the serial oracle"
                        ));
                    }
                }
            }
        }
        Ok(())
    })();
    for (s, r) in bufs {
        let _ = ctx.gpu.free(s);
        let _ = ctx.gpu.free(r);
    }
    result
}

// ---------------------------------------------------------------------
// Workload: StencilRecovery
// ---------------------------------------------------------------------

/// Fill, then two iterations of checkpoint + halo exchange with ULFM-style
/// recovery, wherever the scheduled deaths land; survivors byte-check the
/// recovered grid against the serial oracle.
fn stencil_recovery(
    ctx: &mut RankCtx,
    mpi: &mut InterposedMpi,
    n: usize,
    spill: &Path,
    rep: &mut RankReport,
) -> MpiResult<()> {
    let mut ex = HaloExchanger::new(ctx, mpi, HaloConfig::small(n))?;
    ex.fill(ctx)?;
    let mut store = CheckpointStore::with_spill(spill);
    for _ in 0..2 {
        ex.exchange_with_recovery(ctx, mpi, &mut store, true)?;
        rep.epochs.push(ctx.epoch());
    }
    let got = ctx.gpu.memory().peek(ex.grid, ex.cfg.alloc_bytes())?;
    let want = ex.expected_grid(ctx);
    if got != want {
        let at = got.iter().zip(&want).position(|(a, b)| a != b);
        rep.bytes_mismatch = Some(format!(
            "recovered grid diverges from the serial oracle at byte {at:?}"
        ));
    }
    ex.destroy(ctx)
}

// ---------------------------------------------------------------------
// Workload: CheckpointCycle
// ---------------------------------------------------------------------

/// Repeated checkpoint + exchange rounds, each committing a generation;
/// every cycle re-reads this rank's spilled frame, requiring spill
/// corruption (if injected) to surface as a typed decode error and never
/// as silently different bytes.
fn checkpoint_cycle(
    ctx: &mut RankCtx,
    mpi: &mut InterposedMpi,
    cycles: u32,
    spill: &Path,
    rep: &mut RankReport,
) -> MpiResult<()> {
    let mut ex = HaloExchanger::new(ctx, mpi, HaloConfig::small(6))?;
    let mut store = CheckpointStore::with_spill(spill);
    ex.fill(ctx)?;
    for cycle in 0..cycles {
        ex.exchange_with_recovery(ctx, mpi, &mut store, true)?;
        if rep.bytes_mismatch.is_none() {
            let got = ctx.gpu.memory().peek(ex.grid, ex.cfg.alloc_bytes())?;
            if got != ex.expected_grid(ctx) {
                rep.bytes_mismatch = Some(format!(
                    "cycle {cycle}: grid diverges from the serial oracle"
                ));
            }
        }
        let generation = (store.latest_committed())
            .ok_or_else(|| MpiError::Internal(format!("cycle {cycle} committed no checkpoint")))?;
        match store.load_spilled(generation, ctx.world_rank) {
            Ok(frame) => {
                // An undetected spill flip would surface here as a frame
                // that decodes fine but carries the wrong interior.
                if rep.bytes_mismatch.is_none() && frame.payload != ex.pack_interior(ctx, mpi)? {
                    rep.bytes_mismatch = Some(format!(
                        "cycle {cycle}: spilled frame diverges from the interior it snapshots"
                    ));
                }
            }
            // A detected corruption is the contract working; anything
            // else (missing file, I/O failure) is a real error.
            Err(e) if e.to_string().contains("checkpoint frame") => {}
            Err(e) => return Err(e),
        }
    }
    ex.destroy(ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ChaosEvent, STENCIL_RUN_US};
    use mpi_sim::{FaultSite, ScopedFault};
    use tempi_trace::ArgValue;

    /// A run of `sc` without its exits: the instant its first agreement
    /// released every rank (checkpoint generation 0 committed) and the
    /// instant its last event ended, in virtual picoseconds.
    fn fault_free_timeline(sc: &Scenario) -> (u64, u64) {
        let faults = sc
            .events
            .iter()
            .filter(|ev| matches!(ev, ChaosEvent::Fault(_)));
        let out = run_scenario(&sc.with_events(faults.cloned().collect()));
        assert!(out.ok(), "violations: {:?}", out.violations);
        let events = out.tracer.events();
        let agreed = events.iter().filter(|e| e.name == "comm.agree");
        let committed = agreed.map(|e| e.ts_ps).min().expect("the run agrees");
        let end = events.iter().map(|e| e.ts_ps + e.dur_ps).max();
        (committed, end.expect("the run is traced"))
    }

    /// `(world rank, generation, owner)` of every restore that read a
    /// spilled frame.
    fn spill_reads(out: &Outcome) -> Vec<(u32, u64, u64)> {
        let arg = |args: &[(&str, ArgValue)], key| match args.iter().find(|(k, _)| *k == key) {
            Some((_, ArgValue::U64(v))) => *v,
            other => panic!("restore.spill {key}: {other:?}"),
        };
        let events = out.tracer.events();
        let reads = events.iter().filter(|e| e.name == "restore.spill");
        reads
            .map(|e| (e.pid, arg(&e.args, "generation"), arg(&e.args, "owner")))
            .collect()
    }

    fn storm(seed: u64, integrity: bool, events: Vec<ChaosEvent>) -> Scenario {
        Scenario {
            seed,
            ranks: 4,
            workload: Workload::SendStorm { messages: 2 },
            events,
            integrity,
            max_retries: 3,
        }
    }

    #[test]
    fn clean_send_storm_holds_every_oracle() {
        let out = run_scenario(&storm(11, true, Vec::new()));
        assert!(out.ok(), "violations: {:?}", out.violations);
        assert_eq!(out.reports.len(), 4);
        assert!(out.tracer.event_count() > 0, "spans must be recorded");
    }

    #[test]
    fn corruption_with_integrity_is_absorbed() {
        let events = vec![ChaosEvent::Fault(ScopedFault {
            rank: 2,
            site: FaultSite::Corrupt,
            at_call: 1,
        })];
        let out = run_scenario(&storm(12, true, events));
        assert!(out.ok(), "violations: {:?}", out.violations);
    }

    #[test]
    fn corruption_without_integrity_violates_byte_exactness() {
        let events = vec![ChaosEvent::Fault(ScopedFault {
            rank: 2,
            site: FaultSite::Corrupt,
            at_call: 1,
        })];
        let out = run_scenario(&storm(12, false, events));
        assert!(!out.ok());
        assert_eq!(out.violations[0].oracle, oracle_names::BYTE_EXACT);
        assert_eq!(out.violations[0].rank, Some(2));
    }

    #[test]
    fn runs_are_deterministic() {
        let sc = storm(
            13,
            false,
            vec![ChaosEvent::Fault(ScopedFault {
                rank: 1,
                site: FaultSite::Corrupt,
                at_call: 0,
            })],
        );
        let a = run_scenario(&sc);
        let b = run_scenario(&sc);
        assert_eq!(a.violations, b.violations);
    }

    #[test]
    fn stencil_recovery_with_deaths_holds_every_oracle() {
        let mut sc = Scenario {
            seed: 31,
            ranks: 8,
            workload: Workload::StencilRecovery { n: 6 },
            events: vec![ChaosEvent::Fault(ScopedFault {
                rank: 1,
                site: FaultSite::Kernel,
                at_call: 2,
            })],
            integrity: true,
            max_retries: 3,
        };
        // ranks 4 and 5 die at their first operation after generation 0
        // committed everywhere
        let at_us = fault_free_timeline(&sc).0.div_ceil(1_000_000);
        for rank in [4, 5] {
            sc.events.push(ChaosEvent::Exit { rank, at_us });
        }
        let out = run_scenario(&sc);
        assert!(out.ok(), "violations: {:?}", out.violations);
        let died: Vec<usize> = out
            .reports
            .iter()
            .filter(|r| r.died)
            .map(|r| r.rank)
            .collect();
        assert_eq!(died, vec![4, 5]);
        // survivors moved to a later epoch after the shrink
        let survivor = &out.reports[0];
        assert!(survivor.epochs.last().unwrap() > &0);
        // block 4 lost its owner and its buddy: world rank 2 rebuilt it
        // from generation 0's spill file
        assert_eq!(spill_reads(&out), vec![(2, 0, 4)]);
    }

    #[test]
    fn generated_exits_cover_a_whole_stencil_run() {
        // the generator schedules deaths at 6 and 8 ranks only; most
        // draws must land inside the run
        let end = [6, 8].map(|ranks| {
            let sc = Scenario {
                seed: 1,
                ranks,
                workload: Workload::StencilRecovery { n: 6 },
                events: Vec::new(),
                integrity: true,
                max_retries: 3,
            };
            fault_free_timeline(&sc).1.div_ceil(1_000_000)
        });
        let end_us = end[0].max(end[1]);
        assert!(
            end_us < STENCIL_RUN_US && STENCIL_RUN_US <= end_us + end_us / 8,
            "fault-free runs end at {end:?} µs"
        );
    }

    #[test]
    fn checkpoint_cycle_detects_spill_corruption_as_typed_error() {
        let sc = Scenario {
            seed: 21,
            ranks: 4,
            workload: Workload::CheckpointCycle { cycles: 2 },
            events: vec![ChaosEvent::Fault(ScopedFault {
                rank: 1,
                site: FaultSite::Spill,
                at_call: 1,
            })],
            integrity: true,
            max_retries: 3,
        };
        let out = run_scenario(&sc);
        assert!(out.ok(), "violations: {:?}", out.violations);
    }
}
