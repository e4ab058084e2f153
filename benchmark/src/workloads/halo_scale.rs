//! `halo_scale`: the paper's application result (Fig. 12) at scale — a
//! 26-direction halo exchange over 4,096 ranks, six to a node.
//!
//! `stencil`, `mpi-sim`'s scheduler and sparse alltoallv, and per-rank
//! memory dominate. Every rank must finish its exchange before the op is
//! over, so the slowest rank sets each op's time. Ghost cells are verified
//! on every rank after the timed phase.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use mpi_sim::World;
use tempi_core::InterposedMpi;
use tempi_stencil::{HaloConfig, HaloExchanger};

use super::{
    rounds, slowest_rank_times, Exec, MarkBoard, Outcome, PlanSums, StatsDelta, StreamDelta,
    Workload, OP_FAILED,
};
use crate::gen::{Op, Rng};

pub struct HaloScale;

pub const RANKS: usize = 4096;

/// Interior gridpoints per rank and dimension (`HaloConfig::small`).
const LOCAL: usize = 4;

/// Exchanges per five seconds (one exchange of the whole world is one op):
/// the issue's 24 exchanges at `--seconds 10`.
const OPS_PER_5S: u64 = 12;

#[derive(Default)]
struct RankOut {
    bad_ghosts: u64,
    stats: StatsDelta,
    stream: StreamDelta,
    exchange_ps: [u128; 3],
    host_ns: Vec<f64>,
    plans: PlanSums,
    send_bytes: u64,
}

impl Workload for HaloScale {
    fn name(&self) -> &'static str {
        "halo_scale"
    }

    fn setups(&self) -> usize {
        9
    }

    // Full-level tracing of thousands of ranks keeps gigabytes of events
    // (the ROADMAP's open tracer item): spans only, and few ops.
    fn trace_level(&self) -> tempi_core::TraceLevel {
        tempi_core::TraceLevel::Spans
    }

    fn traced_ops(&self) -> usize {
        1
    }

    fn plan(&self, _rng: &mut Rng, seconds: u64) -> Vec<Op> {
        // one cell: the order is fixed; the seed reaches the tuner only
        vec![
            Op {
                cell: 0,
                variant: 0
            };
            rounds(seconds, OPS_PER_5S)
        ]
    }

    fn execute(&self, exec: &Exec) -> Result<Outcome, String> {
        let board = MarkBoard::start();
        let cfg = exec.world(RANKS);
        let halo = HaloConfig::small(LOCAL);
        let tracer = exec.tracer.as_ref();
        let timing = exec.traced();
        let nops = exec.ops.len();
        // slowest rank per op, and the system pass's slowest rank
        let op_max: Vec<AtomicU64> = (0..nops).map(|_| AtomicU64::new(0)).collect();
        let sys_max = AtomicU64::new(0);

        let ranks = World::run(&cfg, |ctx| {
            let mut mpi = InterposedMpi::new(exec.tempi_config());
            let mut ex = HaloExchanger::new(ctx, &mut mpi, halo)?;
            ex.fill(ctx)?;
            ex.exchange(ctx, &mut mpi)?; // warm-up: plans cached, pools warm
            let mut o = RankOut {
                host_ns: Vec::with_capacity(if timing && ctx.rank == 0 { nops } else { 0 }),
                send_bytes: ex.send_bytes() as u64,
                ..RankOut::default()
            };
            if ctx.rank == 0 {
                for dt in ex.types.send.iter().chain(&ex.types.recv) {
                    if let Some(p) = mpi.tempi.plan(*dt) {
                        o.plans.add(&p);
                    }
                }
            }
            ctx.barrier();
            if ctx.rank == 0 {
                board.timed_begins(tracer);
            }
            ctx.barrier();
            if nops == 0 {
                return Ok(o);
            }

            // ---- timed phase ---------------------------------------------
            let stats0 = *mpi.stats();
            let stream0 = ctx.stream.stats();
            for slot in &op_max {
                let h0 = (timing && ctx.rank == 0).then(Instant::now);
                ctx.barrier();
                match ex.exchange(ctx, &mut mpi) {
                    Ok(t) => {
                        slot.fetch_max(t.total().as_ps(), Relaxed);
                        o.exchange_ps[0] += t.pack.as_ps() as u128;
                        o.exchange_ps[1] += t.comm.as_ps() as u128;
                        o.exchange_ps[2] += t.unpack.as_ps() as u128;
                    }
                    // a failed exchange fails the op, and the run goes on
                    Err(_) => {
                        slot.fetch_max(OP_FAILED, Relaxed);
                    }
                }
                if let Some(h0) = h0 {
                    o.host_ns.push(h0.elapsed().as_nanos() as f64);
                }
            }
            ctx.barrier();
            if ctx.rank == 0 {
                board.timed_ended(tracer);
            }
            ctx.barrier();
            // ---- end of the timed phase ----------------------------------

            o.stats = StatsDelta::between(&stats0, mpi.stats());
            o.stream = StreamDelta::between(&stream0, &ctx.stream.stats());
            o.bad_ghosts = ex.verify_ghosts(ctx)? as u64;

            if timing {
                return Ok(o); // the speedup is an end-to-end metric: untraced runs only
            }
            // system pass: the same exchange with TEMPI out of the link order
            let mut sys = InterposedMpi::system_only();
            let mut sex = HaloExchanger::new(ctx, &mut sys, halo)?;
            sex.fill(ctx)?;
            sex.exchange(ctx, &mut sys)?;
            ctx.barrier();
            let t = sex.exchange(ctx, &mut sys)?;
            sys_max.fetch_max(t.total().as_ps(), Relaxed);
            o.bad_ghosts += sex.verify_ghosts(ctx)? as u64;
            Ok(o)
        })
        .map_err(|e| format!("halo_scale: {e}"))?;

        let mut out = Outcome {
            correct: true,
            ..Outcome::default()
        };
        board.read().apply(&mut out);
        if nops == 0 {
            return Ok(out);
        }
        out.attempted = nops as u64;
        (out.per_op_ps, out.failed) = slowest_rank_times(&op_max);
        out.system_ps = sys_max.load(Relaxed) as u128 * nops as u128;
        if out.failed > 0 {
            out.complain(format!("{} exchanges failed on some rank", out.failed));
        }
        let bad: u64 = ranks.iter().map(|r| r.bad_ghosts).sum();
        if bad > 0 {
            // every exchange rewrites every ghost cell, so a bad cell at the
            // end means at least the last op delivered wrong bytes
            out.failed = out.failed.max(1);
            out.complain(format!("{bad} ghost cells hold the wrong value"));
        }
        let f = &mut out.facts;
        for r in &ranks {
            f.stats.add(&r.stats);
            f.stream.add(&r.stream);
            for k in 0..3 {
                f.exchange_ps[k] += r.exchange_ps[k];
            }
            f.packed_bytes += r.send_bytes * nops as u64;
        }
        f.unpacked_bytes = f.packed_bytes;
        f.exchanges = (nops * RANKS) as u64;
        f.plans = ranks[0].plans;
        if f.stats.degraded_sends > 0 {
            out.complain("degraded sends in a fault-free run");
        }
        out.host_ns = ranks
            .into_iter()
            .next()
            .map(|r| r.host_ns)
            .unwrap_or_default();
        Ok(out)
    }
}
