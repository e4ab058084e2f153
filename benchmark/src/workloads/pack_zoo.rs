//! `pack_zoo`: one rank calling `MPI_Pack` and `MPI_Unpack` on device
//! buffers, over the paper's Fig. 7 objects.
//!
//! `kernels` and `gpu-sim` dominate: no network, no model, no tuner. Pack
//! sits beside unpack, so a gain for one direction that costs the other
//! shows. The objects: 2-D, {1 KiB, 64 KiB, 1 MiB, 4 MiB} × block {1, 8,
//! 64, 512 B} in three constructions; 3-D boxes in a 256³-byte allocation
//! in three constructions; the zoo's `indexed_block` and `struct`; and a
//! contiguous control. The simulated kernels move real bytes one block at
//! a time, so the three 2-D objects of more than 128 Ki blocks (4 MiB in
//! 1 B and 8 B blocks, 1 MiB in 1 B blocks) are left out: one of them
//! alone costs more host time than the rest of a round together, and a
//! set-up (which warms every cell) has to repeat twelve times in a run.

use std::time::Instant;

use gpu_sim::GpuPtr;
use mpi_sim::datatype::pack_cpu;
use mpi_sim::{Datatype, MpiError, MpiResult, RankCtx};
use tempi_core::{InterposedMpi, PlanKind};

use super::{plan_mismatches, rounds, Exec, MarkBoard, Outcome, StatsDelta, StreamDelta, Workload};
use crate::gen::{balanced_ops, Op, Rng};
use crate::objects::{Construction, Recipe};

pub struct PackZoo;

const PACK: u32 = 0;
const UNPACK: u32 = 1;

/// Rounds (every cell packed once and unpacked once) per five seconds.
const ROUNDS_PER_5S: u64 = 25;

/// Most blocks a 2-D object may have (see the module comment).
const MAX_BLOCKS: usize = 128 << 10;

pub fn recipes() -> Vec<Recipe> {
    let mut v = Vec::new();
    let mut group = 0;
    for total in [1usize << 10, 64 << 10, 1 << 20, 4 << 20] {
        for block in [1usize, 8, 64, 512] {
            if total / block > MAX_BLOCKS {
                continue;
            }
            for how in Construction::TWO_D {
                v.push(Recipe::two_d(total, block, how).in_group(group));
            }
            group += 1;
        }
    }
    for (x, y, z) in [
        (4, 128, 128),
        (64, 128, 128),
        (128, 128, 4),
        (128, 128, 128),
    ] {
        for how in Construction::THREE_D {
            v.push(Recipe::three_d(256, x, y, z, how).in_group(group));
        }
        group += 1;
    }
    v.push(Recipe::indexed_block(512, 128, 512));
    v.push(Recipe::soa(8, 2048, 64 << 10));
    v.push(Recipe::contiguous(1 << 20));
    v
}

struct Cell {
    dt: Datatype,
    bytes: usize,
    span: usize,
}

struct Buffers {
    src: GpuPtr,
    packed: GpuPtr,
    dst: GpuPtr,
    packed_cap: usize,
}

fn pack(ctx: &mut RankCtx, mpi: &mut InterposedMpi, c: &Cell, b: &Buffers) -> MpiResult<bool> {
    let mut pos = 0;
    mpi.pack(ctx, b.src, 1, c.dt, b.packed, b.packed_cap, &mut pos)?;
    Ok(pos == c.bytes)
}

fn unpack(ctx: &mut RankCtx, mpi: &mut InterposedMpi, c: &Cell, b: &Buffers) -> MpiResult<bool> {
    let mut pos = 0;
    mpi.unpack(ctx, b.packed, c.bytes, &mut pos, b.dst, 1, c.dt)?;
    Ok(pos == c.bytes)
}

impl Workload for PackZoo {
    fn name(&self) -> &'static str {
        "pack_zoo"
    }

    fn setups(&self) -> usize {
        12
    }

    fn plan(&self, rng: &mut Rng, seconds: u64) -> Vec<Op> {
        balanced_ops(rng, recipes().len(), 2, rounds(seconds, ROUNDS_PER_5S))
    }

    fn execute(&self, exec: &Exec) -> Result<Outcome, String> {
        let board = MarkBoard::start();
        let e = |e: MpiError| format!("pack_zoo: {e}");
        let mut out = Outcome {
            correct: true,
            ..Outcome::default()
        };

        let mut ctx = RankCtx::standalone(&exec.world(1));
        let mut mpi = InterposedMpi::new(exec.tempi_config());
        let recipes = recipes();
        let mut cells = Vec::with_capacity(recipes.len());
        let mut kinds: Vec<PlanKind> = Vec::with_capacity(recipes.len());
        for r in &recipes {
            let b = r.build(&mut ctx).map_err(e)?;
            mpi.type_commit(&mut ctx, b.dt).map_err(e)?;
            let plan = mpi.tempi.plan(b.dt).ok_or("committed type has no plan")?;
            out.facts.plans.add(&plan);
            kinds.push(plan.kind.clone());
            cells.push(Cell {
                dt: b.dt,
                bytes: r.data_bytes(),
                span: r.span(),
            });
        }
        for i in plan_mismatches(&recipes, &kinds) {
            out.facts.plan_mismatches += 1;
            out.complain(format!(
                "{} commits to a different plan than its equivalents",
                recipes[i].label
            ));
        }
        let span = cells.iter().map(|c| c.span).max().unwrap_or(1);
        let packed_cap = cells.iter().map(|c| c.bytes).max().unwrap_or(1);
        let gpu = |r: gpu_sim::GpuResult<GpuPtr>| r.map_err(|g| e(MpiError::Gpu(g)));
        let bufs = Buffers {
            src: gpu(ctx.gpu.malloc(span))?,
            packed: gpu(ctx.gpu.malloc(packed_cap))?,
            dst: gpu(ctx.gpu.malloc(span))?,
            packed_cap,
        };
        let pattern = Rng::new(exec.seed).bytes(span);
        ctx.gpu
            .memory()
            .poke(bufs.src, &pattern)
            .map_err(|g| e(MpiError::Gpu(g)))?;
        // warm-up: every cell once in each direction
        for c in &cells {
            pack(&mut ctx, &mut mpi, c, &bufs).map_err(e)?;
            unpack(&mut ctx, &mut mpi, c, &bufs).map_err(e)?;
        }
        let mut per_op = Vec::with_capacity(exec.ops.len());
        let mut host_ns = Vec::with_capacity(if exec.traced() { exec.ops.len() } else { 0 });
        board.timed_begins(exec.tracer.as_ref());
        if exec.ops.is_empty() {
            board.read().apply(&mut out);
            return Ok(out);
        }

        // ---- timed phase -------------------------------------------------
        let stats0 = *mpi.stats();
        let stream0 = ctx.stream.stats();
        let timing = exec.traced();
        for op in exec.ops {
            let c = &cells[op.cell as usize];
            let h0 = timing.then(Instant::now);
            let c0 = ctx.clock.now();
            let ok = if op.variant == PACK {
                out.facts.packed_bytes += c.bytes as u64;
                pack(&mut ctx, &mut mpi, c, &bufs)
            } else {
                out.facts.unpacked_bytes += c.bytes as u64;
                unpack(&mut ctx, &mut mpi, c, &bufs)
            };
            per_op.push((ctx.clock.now() - c0).as_ps());
            if let Some(h0) = h0 {
                host_ns.push(h0.elapsed().as_nanos() as f64);
            }
            out.failed += !matches!(ok, Ok(true)) as u64;
        }
        board.timed_ended(exec.tracer.as_ref());
        // ---- end of the timed phase --------------------------------------

        board.read().apply(&mut out);
        out.attempted = exec.ops.len() as u64;
        out.per_op_ps = per_op;
        out.host_ns = host_ns;
        out.facts.stats = StatsDelta::between(&stats0, mpi.stats());
        out.facts.stream = StreamDelta::between(&stream0, &ctx.stream.stats());
        if out.failed > 0 {
            out.complain(format!("{} pack/unpack ops failed", out.failed));
        }

        // ---- oracle: packed bytes equal the CPU pack over the typemap, and
        // unpack scatters them back to where they came from
        let zeros = vec![0u8; span];
        for (c, r) in cells.iter().zip(&recipes) {
            let mut want = vec![0u8; c.bytes];
            let mut scattered = vec![0u8; c.span];
            {
                let reg = ctx.registry().read();
                pack_cpu::pack(&reg, &pattern, 0, 1, c.dt, &mut want, &mut 0).map_err(e)?;
                pack_cpu::unpack(&reg, &want, &mut 0, &mut scattered, 0, 1, c.dt).map_err(e)?;
            }
            let mem = |g: gpu_sim::GpuError| e(MpiError::Gpu(g));
            ctx.gpu
                .memory()
                .poke(bufs.packed, &zeros[..c.bytes])
                .map_err(mem)?;
            ctx.gpu
                .memory()
                .poke(bufs.dst, &zeros[..c.span])
                .map_err(mem)?;
            pack(&mut ctx, &mut mpi, c, &bufs).map_err(e)?;
            if ctx.gpu.memory().peek(bufs.packed, c.bytes).map_err(mem)? != want {
                out.complain(format!(
                    "{}: packed bytes differ from the CPU reference",
                    r.label
                ));
            }
            unpack(&mut ctx, &mut mpi, c, &bufs).map_err(e)?;
            if ctx.gpu.memory().peek(bufs.dst, c.span).map_err(mem)? != scattered {
                out.complain(format!("{}: unpack does not round-trip", r.label));
            }
        }

        if exec.traced() {
            return Ok(out); // the speedup is an end-to-end metric: untraced runs only
        }
        // ---- system pass: each cell and direction once, after one warm-up
        let mut sys = InterposedMpi::system_only();
        let mut sys_ps = vec![[0u64; 2]; cells.len()];
        for (c, t) in cells.iter().zip(&mut sys_ps) {
            pack(&mut ctx, &mut sys, c, &bufs).map_err(e)?;
            let c0 = ctx.clock.now();
            pack(&mut ctx, &mut sys, c, &bufs).map_err(e)?;
            t[PACK as usize] = (ctx.clock.now() - c0).as_ps();
            unpack(&mut ctx, &mut sys, c, &bufs).map_err(e)?;
            let c0 = ctx.clock.now();
            unpack(&mut ctx, &mut sys, c, &bufs).map_err(e)?;
            t[UNPACK as usize] = (ctx.clock.now() - c0).as_ps();
        }
        out.system_ps = exec
            .ops
            .iter()
            .map(|op| sys_ps[op.cell as usize][op.variant as usize] as u128)
            .sum();
        Ok(out)
    }
}
