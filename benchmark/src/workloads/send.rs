//! `send_latency` and `send_bandwidth`: typed one-way sends between two
//! ranks on separate nodes.
//!
//! The protocol is the repo's `send_one_way_times`: a barrier before every
//! op re-synchronises the clocks, rank 0 sends, rank 1 receives, and the
//! op's time is the receiver's clock across its `MPI_Recv`. The two
//! workloads share this code and differ only in their objects:
//!
//! * latency — objects up to 64 KiB, the small zoo patterns, the two
//!   cells that still lose guideline G2, and a contiguous control. Launch
//!   and sync floors, dispatch, method choice and the buffer pool dominate;
//!   a pipelining change must not move it.
//! * bandwidth — 1–4 MiB objects with blocks from 8 B to 4 KiB. Pack,
//!   D2H/H2D and wire terms dominate; a dispatch or allocation fix must
//!   not move its virtual metrics.

use std::sync::Arc;
use std::time::Instant;

use gpu_sim::GpuPtr;
use mpi_sim::datatype::pack_cpu;
use mpi_sim::{Datatype, MpiError, MpiResult, RankCtx, World};
use tempi_core::config::{Method, TunerMode};
use tempi_core::{InterposedMpi, SendModel, TempiConfig};

use super::{rounds, Exec, MarkBoard, Outcome, PlanSums, StatsDelta, StreamDelta, Workload};
use crate::gen::{balanced_ops, Op, Rng};
use crate::ledger::ratio;
use crate::objects::{Construction, Recipe};

pub struct Send {
    name: &'static str,
    recipes: fn() -> Vec<Recipe>,
    rounds_per_5s: u64,
    setups: usize,
    /// Warm-up and measured ops per cell of the traced run's online-tuner
    /// side pass (fewer where an op moves megabytes).
    online_ops: (usize, usize),
}

impl Send {
    pub fn latency() -> Send {
        Send {
            name: "send_latency",
            recipes: latency_recipes,
            rounds_per_5s: 2600,
            setups: 40,
            online_ops: (8, 32),
        }
    }

    pub fn bandwidth() -> Send {
        Send {
            name: "send_bandwidth",
            recipes: bandwidth_recipes,
            rounds_per_5s: 24,
            setups: 12,
            online_ops: (4, 12),
        }
    }
}

pub fn latency_recipes() -> Vec<Recipe> {
    let mut v = Vec::new();
    for total in [1usize << 10, 8 << 10, 64 << 10] {
        for block in [8usize, 64, 512] {
            v.push(Recipe::two_d(total, block, Construction::Hvector));
        }
    }
    v.extend([
        Recipe::two_d_exact(8, 256, 2048, Construction::Vector), // col/256x8@2048
        Recipe::indexed_block(512, 128, 512),
        Recipe::nested(32, 8192, 16, 64, 256),
        Recipe::two_d_exact(16, 512, 32, Construction::Hvector),
        Recipe::three_d(128, 32, 16, 16, Construction::Subarray),
        // the two cells that still lose G2 with TEMPI on
        Recipe::soa(8, 2048, 64 << 10),
        Recipe::two_d_exact(4096, 64, 8192, Construction::Hvector),
        // contiguous control
        Recipe::contiguous(64 << 10),
    ]);
    v
}

pub fn bandwidth_recipes() -> Vec<Recipe> {
    let mut v = Vec::new();
    for total in [1usize << 20, 2 << 20, 4 << 20] {
        // 1 MiB / 8 B is the cell where only the online tuner finds Pipelined
        for block in [8usize, 64, 512, 4096] {
            v.push(Recipe::two_d(total, block, Construction::Hvector));
        }
    }
    v
}

/// Warm-up ops per cell before the timed phase (plans cached, pools and
/// tuner buckets warm).
const WARMUP: usize = 2;

struct Cell {
    dt: Datatype,
    bytes: usize,
}

/// One op of the protocol. On the receiver: its virtual ps across the
/// receive and whether size and source were right. On the sender: 0, and
/// whether TEMPI accelerated the send (packed it) or let it fall through.
fn one_way(
    ctx: &mut RankCtx,
    mpi: &mut InterposedMpi,
    buf: GpuPtr,
    c: &Cell,
) -> MpiResult<(u64, bool)> {
    ctx.barrier();
    if ctx.rank == 0 {
        let method = mpi.send(ctx, buf, 1, c.dt, 1, 0)?;
        Ok((0, method.is_some()))
    } else {
        let t0 = ctx.clock.now();
        let st = mpi.recv(ctx, buf, 1, c.dt, Some(0), Some(0))?;
        Ok((
            (ctx.clock.now() - t0).as_ps(),
            st.bytes == c.bytes && st.source == 0,
        ))
    }
}

#[derive(Default)]
struct RankOut {
    per_op_ps: Vec<u64>,
    host_ns: Vec<f64>,
    failed: u64,
    stats: StatsDelta,
    stream: StreamDelta,
    /// System-only virtual ps per cell (receiver only).
    system_ps: Vec<u64>,
    /// Cells whose received bytes differ from the CPU reference.
    bad_cells: Vec<usize>,
    plans: PlanSums,
    /// Data bytes of the sends TEMPI accelerated (sender only).
    packed_bytes: u64,
    degraded_log: u64,
}

/// Commit the cells, allocate and fill the buffer, warm up.
fn set_up(
    ctx: &mut RankCtx,
    mpi: &mut InterposedMpi,
    recipes: &[Recipe],
    pattern: &[u8],
    warmup: usize,
) -> MpiResult<(Vec<Cell>, GpuPtr)> {
    let mut cells = Vec::with_capacity(recipes.len());
    for r in recipes {
        let b = r.build(ctx)?;
        mpi.type_commit(ctx, b.dt)?;
        cells.push(Cell {
            dt: b.dt,
            bytes: r.data_bytes(),
        });
    }
    let buf = ctx.gpu.malloc(pattern.len())?;
    if ctx.rank == 0 {
        ctx.gpu.memory().poke(buf, pattern)?;
    }
    for c in &cells {
        for _ in 0..warmup {
            one_way(ctx, mpi, buf, c)?;
        }
    }
    Ok((cells, buf))
}

/// Mean receiver-side virtual ps per cell under `config`, one measured op
/// per cell after the warm-up, in a fresh two-rank world.
fn cell_times(
    exec: &Exec,
    recipes: &[Recipe],
    pattern: &[u8],
    config: TempiConfig,
    warmup: usize,
    measured: usize,
) -> Result<(Vec<f64>, StatsDelta), String> {
    let mut cfg = exec.world(2);
    cfg.tracer = tempi_core::Tracer::off();
    cfg.net.ranks_per_node = 1;
    let outs = World::run(&cfg, |ctx| {
        let mut mpi = InterposedMpi::new(config.clone());
        let (cells, buf) = set_up(ctx, &mut mpi, recipes, pattern, warmup)?;
        let s0 = *mpi.stats();
        let mut t = Vec::with_capacity(cells.len());
        for c in &cells {
            let mut sum = 0u64;
            for _ in 0..measured {
                sum += one_way(ctx, &mut mpi, buf, c)?.0;
            }
            t.push(sum as f64 / measured as f64);
        }
        Ok((t, StatsDelta::between(&s0, mpi.stats())))
    })
    .map_err(|e| format!("side pass: {e}"))?;
    let mut it = outs.into_iter();
    let (_, sender_stats) = it.next().ok_or("no rank 0")?;
    let (times, _) = it.next().ok_or("no rank 1")?;
    Ok((times, sender_stats))
}

impl Workload for Send {
    fn name(&self) -> &'static str {
        self.name
    }

    fn setups(&self) -> usize {
        self.setups
    }

    fn plan(&self, rng: &mut Rng, seconds: u64) -> Vec<Op> {
        balanced_ops(
            rng,
            (self.recipes)().len(),
            1,
            rounds(seconds, self.rounds_per_5s),
        )
    }

    fn execute(&self, exec: &Exec) -> Result<Outcome, String> {
        let board = MarkBoard::start();
        let recipes = (self.recipes)();
        let span = recipes.iter().map(Recipe::span).max().unwrap_or(1);
        let pattern = Arc::new(Rng::new(exec.seed).bytes(span));
        let mut cfg = exec.world(2);
        cfg.net.ranks_per_node = 1; // separate nodes, as in the paper's Fig. 11
        let tracer = exec.tracer.as_ref();
        let timing = exec.traced();
        let ops = exec.ops;

        let ranks = World::run(&cfg, |ctx| {
            let mut mpi = InterposedMpi::new(exec.tempi_config());
            let (cells, buf) = set_up(ctx, &mut mpi, &recipes, &pattern, WARMUP)?;
            let mut o = RankOut {
                per_op_ps: Vec::with_capacity(ops.len()),
                host_ns: Vec::with_capacity(if timing { ops.len() } else { 0 }),
                ..RankOut::default()
            };
            for c in &cells {
                if let Some(p) = mpi.tempi.plan(c.dt) {
                    o.plans.add(&p);
                }
            }
            ctx.barrier();
            if ctx.rank == 0 {
                board.timed_begins(tracer);
            }
            ctx.barrier();
            if ops.is_empty() {
                return Ok(o);
            }

            // ---- timed phase ---------------------------------------------
            let stats0 = *mpi.stats();
            let stream0 = ctx.stream.stats();
            for op in ops {
                let h0 = timing.then(Instant::now);
                let c = &cells[op.cell as usize];
                match one_way(ctx, &mut mpi, buf, c) {
                    Ok((ps, flag)) => {
                        o.per_op_ps.push(ps);
                        if ctx.rank == 0 {
                            o.packed_bytes += if flag { c.bytes as u64 } else { 0 };
                        } else {
                            o.failed += !flag as u64;
                        }
                    }
                    // a failed op is counted, is given no time, and the run
                    // goes on
                    Err(_) => {
                        o.per_op_ps.push(0);
                        o.failed += 1;
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
            o.degraded_log = ctx.faults.stats.events.len() as u64;

            // oracle: what arrives equals the CPU pack of the sender's bytes
            // over the typemap, scattered into a zeroed buffer
            let zeros = vec![0u8; span];
            for (i, (c, r)) in cells.iter().zip(&recipes).enumerate() {
                if ctx.rank == 1 {
                    ctx.gpu.memory().poke(buf, &zeros)?;
                }
                let (_, flag) = one_way(ctx, &mut mpi, buf, c)?;
                if ctx.rank == 1 {
                    let mut packed = vec![0u8; c.bytes];
                    let mut want = vec![0u8; r.span()];
                    {
                        let reg = ctx.registry().read();
                        pack_cpu::pack(&reg, &pattern, 0, 1, c.dt, &mut packed, &mut 0)?;
                        pack_cpu::unpack(&reg, &packed, &mut 0, &mut want, 0, 1, c.dt)?;
                    }
                    let got = ctx.gpu.memory().peek(buf, r.span())?;
                    if !flag || got != want {
                        o.bad_cells.push(i);
                    }
                }
            }

            // system pass (untraced runs only: the speedup is an end-to-end
            // metric): each cell once after one warm-up
            if !timing {
                let mut sys = InterposedMpi::system_only();
                for c in &cells {
                    one_way(ctx, &mut sys, buf, c)?;
                    o.system_ps.push(one_way(ctx, &mut sys, buf, c)?.0);
                }
            }
            Ok(o)
        })
        .map_err(|e| format!("{}: {e}", self.name))?;

        let mut out = Outcome {
            correct: true,
            ..Outcome::default()
        };
        board.read().apply(&mut out);
        if ops.is_empty() {
            return Ok(out);
        }
        let mut ranks = ranks.into_iter();
        let sender = ranks.next().ok_or("no rank 0")?;
        let receiver = ranks.next().ok_or("no rank 1")?;
        out.attempted = ops.len() as u64;
        // an op that fails on both ranks is one failed op
        out.failed = (sender.failed + receiver.failed).min(out.attempted);
        for &i in &receiver.bad_cells {
            out.complain(format!(
                "{}: received bytes differ from the CPU reference",
                recipes[i].label
            ));
        }
        let degraded = sender.stats.degraded_sends + sender.degraded_log;
        if degraded > 0 {
            out.complain(format!("{degraded} degraded sends in a fault-free run"));
        }
        if out.failed > 0 {
            out.complain(format!(
                "{} sends failed or delivered the wrong size or source",
                out.failed
            ));
        }
        out.system_ps = ops
            .iter()
            .filter_map(|op| receiver.system_ps.get(op.cell as usize))
            .map(|&ps| ps as u128)
            .sum();
        let f = &mut out.facts;
        f.sends = ops.len() as u64;
        f.stats = sender.stats;
        f.stats.add(&receiver.stats);
        f.stream = sender.stream;
        f.stream.add(&receiver.stream);
        f.plans = sender.plans;
        // what the sender packed, the receiver unpacked
        f.packed_bytes = sender.packed_bytes;
        f.unpacked_bytes = sender.packed_bytes;
        out.per_op_ps = receiver.per_op_ps;
        out.host_ns = receiver.host_ns;

        if exec.traced() {
            out.facts.extra = self.side_passes(exec, &recipes, &pattern, &out.per_op_ps)?;
        }
        Ok(out)
    }
}

impl Send {
    /// The model and tuner rows: the same cells under each forced method
    /// and under the online tuner, in side worlds of their own (traced
    /// runs only; nothing here touches an end-to-end number).
    fn side_passes(
        &self,
        exec: &Exec,
        recipes: &[Recipe],
        pattern: &[u8],
        per_op_ps: &[u64],
    ) -> Result<Vec<(&'static str, f64)>, String> {
        // per-cell mean of the default configuration, from the timed phase
        let mut sum = vec![0f64; recipes.len()];
        let mut n = vec![0f64; recipes.len()];
        for (op, &ps) in exec.ops.iter().zip(per_op_ps) {
            sum[op.cell as usize] += ps as f64;
            n[op.cell as usize] += 1.0;
        }
        let default: Vec<f64> = sum.iter().zip(&n).map(|(s, n)| s / n.max(1.0)).collect();

        let forced = |m: Method| -> Result<Vec<f64>, String> {
            let cfg = TempiConfig {
                force_method: Some(m),
                tuner: TunerMode::Off,
                ..exec.tempi_config()
            };
            Ok(cell_times(exec, recipes, pattern, cfg, 1, 1)?.0)
        };
        let by_method = [
            (Method::Device, forced(Method::Device)?),
            (Method::OneShot, forced(Method::OneShot)?),
            (Method::Staged, forced(Method::Staged)?),
        ];
        // which method the default configuration chose per cell
        let cfg = exec.tempi_config();
        let mut wcfg = exec.world(2);
        wcfg.tracer = tempi_core::Tracer::off();
        wcfg.net.ranks_per_node = 1;
        let chosen = World::run(&wcfg, |ctx| {
            let mut mpi = InterposedMpi::new(cfg.clone());
            let (cells, buf) = set_up(ctx, &mut mpi, recipes, pattern, 1)?;
            let mut chosen = Vec::with_capacity(cells.len());
            for c in &cells {
                ctx.barrier();
                if ctx.rank == 0 {
                    chosen.push(mpi.send(ctx, buf, 1, c.dt, 1, 0)?);
                } else {
                    mpi.recv(ctx, buf, 1, c.dt, Some(0), Some(0))?;
                }
            }
            let model = SendModel {
                gpu: ctx.stream.cost_model_shared(),
                net: Arc::clone(&ctx.net),
                src: 0,
                dst: 1,
            };
            let modelled: Vec<Option<f64>> = cells
                .iter()
                .zip(&chosen)
                .map(|(c, m)| {
                    let p = mpi.tempi.plan(c.dt)?;
                    let (b, w) = (p.block_bytes(), p.word());
                    let t = match (*m)? {
                        Method::Device => model.t_device(c.bytes, b, w).total(),
                        Method::OneShot => model.t_oneshot(c.bytes, b, w).total(),
                        Method::Staged => model.t_staged(c.bytes, b, w).total(),
                        Method::Pipelined => return None,
                    };
                    Some(t.as_ps() as f64)
                })
                .collect();
            Ok((chosen, modelled))
        })
        .map_err(|e: MpiError| format!("choice pass: {e}"))?
        .into_iter()
        .next()
        .ok_or("no rank 0")?;
        let (chosen, modelled) = chosen;

        let (mut resid, mut resid_n, mut mispredicted, mut accelerated) = (0.0, 0.0, 0.0, 0.0);
        let (mut oracle_sum, mut default_sum) = (0.0, 0.0);
        for (i, m) in chosen.iter().enumerate() {
            let Some(m) = *m else { continue };
            accelerated += 1.0;
            if let Some(model_ps) = modelled[i] {
                resid += (model_ps - default[i]).abs() / default[i];
                resid_n += 1.0;
            }
            let best = by_method
                .iter()
                .min_by(|a, b| a.1[i].total_cmp(&b.1[i]))
                .expect("three forced methods");
            // the default may have chosen Pipelined, which no forced pass ran
            if by_method.iter().any(|(fm, _)| *fm == m) && best.0 != m && best.1[i] < default[i] {
                mispredicted += 1.0;
            }
            oracle_sum += best.1[i].min(default[i]);
            default_sum += default[i];
        }

        let online_cfg = TempiConfig {
            tuner: TunerMode::Online,
            ..exec.tempi_config()
        };
        let (warm, measured) = self.online_ops;
        let (online, online_stats) =
            cell_times(exec, recipes, pattern, online_cfg, warm, measured)?;
        let online_sends = (measured * recipes.len()) as f64;
        Ok(vec![
            ("model.residual_ratio", ratio(resid, resid_n)),
            (
                "model.misprediction_share",
                ratio(mispredicted, accelerated),
            ),
            ("tuner.virt_vs_oracle_ratio", ratio(default_sum, oracle_sum)),
            (
                "tuner.online_vs_default_virt_ratio",
                ratio(online.iter().sum::<f64>(), default.iter().sum::<f64>()),
            ),
            (
                "tuner.probes_per_kop",
                1e3 * online_stats.tuner_probes as f64 / online_sends,
            ),
            (
                "tuner.method_switches",
                online_stats.tuner_method_switches as f64,
            ),
        ])
    }
}
