//! `alltoallv_dense`: 1,024 ranks, 64 bytes to every peer, through the
//! interposer.
//!
//! The same `mpi-sim` scheduler and collective layer as `halo_scale`,
//! driven densely instead of sparsely: the quadratic path. TEMPI does not
//! export `MPI_Alltoallv`, so the call falls through to the system MPI —
//! any `tempi-core` change predicts *no change* here, and
//! `virt_speedup_vs_system` must stay exactly 1.0.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use mpi_sim::World;
use tempi_core::InterposedMpi;

use super::{
    rounds, slowest_rank_times, Exec, MarkBoard, Outcome, StatsDelta, StreamDelta, Workload,
    OP_FAILED,
};
use crate::gen::{Op, Rng};

pub struct AlltoallvDense;

pub const RANKS: usize = 1024;

/// Bytes each rank sends to each peer.
pub const CHUNK: usize = 64;

/// Collectives per five seconds.
const OPS_PER_5S: u64 = 3;

/// The seeded pattern: byte `i` of what `src` sends to `dst`.
fn pattern(seed: u64, src: usize, dst: usize, i: usize) -> u8 {
    let x = seed
        .wrapping_add((src as u64) << 40)
        .wrapping_add((dst as u64) << 20)
        .wrapping_add(i as u64)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (x >> 56) as u8
}

#[derive(Default)]
struct RankOut {
    wrong_bytes: u64,
    stats: StatsDelta,
    stream: StreamDelta,
    host_ns: Vec<f64>,
}

impl Workload for AlltoallvDense {
    fn name(&self) -> &'static str {
        "alltoallv_dense"
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
        // one cell: the seed reaches the payload only
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
        let tracer = exec.tracer.as_ref();
        let timing = exec.traced();
        let nops = exec.ops.len();
        let seed = exec.seed;
        let op_max: Vec<AtomicU64> = (0..nops).map(|_| AtomicU64::new(0)).collect();
        let sys_max = AtomicU64::new(0);

        let ranks = World::run(&cfg, |ctx| {
            let mut mpi = InterposedMpi::new(exec.tempi_config());
            let (n, me) = (ctx.size, ctx.rank);
            let send = ctx.gpu.malloc(CHUNK * n)?;
            let recv = ctx.gpu.malloc(CHUNK * n)?;
            let counts = vec![CHUNK; n];
            let displs: Vec<usize> = (0..n).map(|j| j * CHUNK).collect();
            let payload: Vec<u8> = (0..n * CHUNK)
                .map(|k| pattern(seed, me, k / CHUNK, k % CHUNK))
                .collect();
            ctx.gpu.memory().poke(send, &payload)?;
            // warm-up: inboxes grown, request tables sized
            mpi.alltoallv_bytes(ctx, send, &counts, &displs, recv, &counts, &displs)?;
            let mut o = RankOut {
                host_ns: Vec::with_capacity(if timing && me == 0 { nops } else { 0 }),
                ..RankOut::default()
            };
            ctx.barrier();
            if me == 0 {
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
                let h0 = (timing && me == 0).then(Instant::now);
                ctx.barrier();
                let t0 = ctx.clock.now();
                let done = mpi.alltoallv_bytes(ctx, send, &counts, &displs, recv, &counts, &displs);
                // a failed collective fails the op, and the run goes on
                let ps = done.map_or(OP_FAILED, |()| (ctx.clock.now() - t0).as_ps());
                slot.fetch_max(ps, Relaxed);
                if let Some(h0) = h0 {
                    o.host_ns.push(h0.elapsed().as_nanos() as f64);
                }
            }
            ctx.barrier();
            if me == 0 {
                board.timed_ended(tracer);
            }
            ctx.barrier();
            // ---- end of the timed phase ----------------------------------

            o.stats = StatsDelta::between(&stats0, mpi.stats());
            o.stream = StreamDelta::between(&stream0, &ctx.stream.stats());
            // oracle: slice j of the receive buffer is what rank j sent here
            let got = ctx.gpu.memory().peek(recv, CHUNK * n)?;
            o.wrong_bytes = got
                .iter()
                .enumerate()
                .filter(|&(k, &b)| b != pattern(seed, k / CHUNK, me, k % CHUNK))
                .count() as u64;

            if timing {
                return Ok(o); // the speedup is an end-to-end metric: untraced runs only
            }
            // system pass: the same collective with TEMPI out of the link order
            let mut sys = InterposedMpi::system_only();
            ctx.barrier();
            let t0 = ctx.clock.now();
            sys.alltoallv_bytes(ctx, send, &counts, &displs, recv, &counts, &displs)?;
            sys_max.fetch_max((ctx.clock.now() - t0).as_ps(), Relaxed);
            Ok(o)
        })
        .map_err(|e| format!("alltoallv_dense: {e}"))?;

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
            out.complain(format!("{} collectives failed on some rank", out.failed));
        }
        let wrong: u64 = ranks.iter().map(|r| r.wrong_bytes).sum();
        if wrong > 0 {
            // every collective rewrites the whole receive buffer
            out.failed = out.failed.max(1);
            out.complain(format!(
                "{wrong} received bytes differ from the seeded pattern"
            ));
        }
        for r in &ranks {
            out.facts.stats.add(&r.stats);
            out.facts.stream.add(&r.stream);
        }
        out.host_ns = ranks
            .into_iter()
            .next()
            .map(|r| r.host_ns)
            .unwrap_or_default();
        Ok(out)
    }
}
