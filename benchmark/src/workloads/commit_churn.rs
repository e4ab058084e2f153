//! `commit_churn`: one rank creating, committing and freeing datatypes.
//!
//! `ir` (translate, canonicalise), `kernels::select_kernel` and
//! `mpi-sim::datatype` do all the work and no byte moves. One op in eight
//! re-commits a type that is still live, so the cold commit and the cached
//! commit — the same layer used two ways — sit side by side. This is the
//! one workload where TEMPI *costs*: its commit does everything the system
//! commit does and then translates, so `virt_speedup_vs_system` < 1, as in
//! the paper's Fig. 6.

use std::time::Instant;

use mpi_sim::{MpiResult, RankCtx};
use tempi_core::{InterposedMpi, PlanKind};

use super::{plan_mismatches, rounds, Exec, MarkBoard, Outcome, StatsDelta, Workload};
use crate::gen::{balanced_ops, Op, Rng};
use crate::objects::{self, Built, Construction, Recipe};

pub struct CommitChurn;

/// Variant 0 re-commits the live type of the cell; 1–7 run the cold
/// create → commit → free cycle.
const VARIANTS: usize = 8;

/// Rounds (22 cells × 8 variants each) per five seconds. Frozen: the
/// plan cache and the registry never shrink, so the op count also fixes
/// the heap the workload ends with.
const ROUNDS_PER_5S: u64 = 1500;

/// Cold cycles per cell in the warm-up.
const WARMUP_ROUNDS: usize = 64;

fn recipes() -> Vec<Recipe> {
    let mut v = objects::fig6();
    v.extend(objects::zoo());
    // equivalent-construction triples of two more objects: many small
    // blocks, and few large ones
    for how in Construction::TWO_D {
        v.push(Recipe::two_d(64 << 10, 8, how).in_group(2));
    }
    for how in Construction::TWO_D {
        v.push(Recipe::two_d(1 << 20, 512, how).in_group(3));
    }
    v
}

fn cold_cycle(ctx: &mut RankCtx, mpi: &mut InterposedMpi, recipe: &Recipe) -> MpiResult<Built> {
    let b = recipe.build(ctx)?;
    mpi.type_commit(ctx, b.dt)?;
    Ok(b)
}

impl Workload for CommitChurn {
    fn name(&self) -> &'static str {
        "commit_churn"
    }

    fn setups(&self) -> usize {
        60
    }

    fn plan(&self, rng: &mut Rng, seconds: u64) -> Vec<Op> {
        balanced_ops(
            rng,
            recipes().len(),
            VARIANTS,
            rounds(seconds, ROUNDS_PER_5S),
        )
    }

    fn execute(&self, exec: &Exec) -> Result<Outcome, String> {
        let board = MarkBoard::start();
        let e = |e: mpi_sim::MpiError| format!("commit_churn: {e}");
        let mut out = Outcome {
            correct: true,
            ..Outcome::default()
        };

        let cfg = exec.world(1);
        let mut ctx = RankCtx::standalone(&cfg);
        let mut mpi = InterposedMpi::new(exec.tempi_config());
        let recipes = recipes();

        // one live, committed type per cell, and the plan it resolved to
        let mut live = Vec::with_capacity(recipes.len());
        let mut reference: Vec<PlanKind> = Vec::with_capacity(recipes.len());
        for r in &recipes {
            let b = cold_cycle(&mut ctx, &mut mpi, r).map_err(e)?;
            let plan = mpi.tempi.plan(b.dt).ok_or("committed type has no plan")?;
            reference.push(plan.kind.clone());
            live.push(b);
        }
        for i in plan_mismatches(&recipes, &reference) {
            out.facts.plan_mismatches += 1;
            out.complain(format!(
                "{} commits to a different plan than its equivalents",
                recipes[i].label
            ));
        }
        // warm-up: cold cycles over every cell — enough of them that a
        // set-up is milliseconds, not the tens of microseconds a timer
        // read and a cold cache can double
        for _ in 0..WARMUP_ROUNDS {
            for r in &recipes {
                cold_cycle(&mut ctx, &mut mpi, r)
                    .map_err(e)?
                    .free(&mut ctx)
                    .map_err(e)?;
            }
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
        let timing = exec.traced();
        for op in exec.ops {
            let cell = op.cell as usize;
            let h0 = timing.then(Instant::now);
            let c0 = ctx.clock.now();
            let ok = if op.variant == 0 {
                mpi.type_commit(&mut ctx, live[cell].dt).is_ok()
            } else {
                match cold_cycle(&mut ctx, &mut mpi, &recipes[cell]) {
                    Ok(b) => {
                        let same = mpi.tempi.plan(b.dt).is_some_and(|p| {
                            out.facts.plans.add(&p);
                            p.kind == reference[cell]
                        });
                        out.facts.plan_mismatches += !same as u64;
                        b.free(&mut ctx).is_ok() && same
                    }
                    Err(_) => false,
                }
            };
            per_op.push((ctx.clock.now() - c0).as_ps());
            if let Some(h0) = h0 {
                host_ns.push(h0.elapsed().as_nanos() as f64);
            }
            out.failed += !ok as u64;
        }
        board.timed_ended(exec.tracer.as_ref());
        // ---- end of the timed phase --------------------------------------

        board.read().apply(&mut out);
        out.attempted = exec.ops.len() as u64;
        out.per_op_ps = per_op;
        out.host_ns = host_ns;
        out.facts.stats = StatsDelta::between(&stats0, mpi.stats());
        if out.failed > 0 {
            out.complain(format!("{} commit ops failed or changed plan", out.failed));
        }
        if exec.traced() {
            return Ok(out); // the speedup is an end-to-end metric: untraced runs only
        }
        // ---- system pass: the same cycles with TEMPI out of the link order
        let mut sctx = RankCtx::standalone(&exec.world(1));
        let mut sys = InterposedMpi::system_only();
        let mut sys_cold = vec![0u64; recipes.len()];
        let mut sys_again = vec![0u64; recipes.len()];
        for (i, r) in recipes.iter().enumerate() {
            let keep = cold_cycle(&mut sctx, &mut sys, r).map_err(e)?; // warm-up, kept live
            let c0 = sctx.clock.now();
            cold_cycle(&mut sctx, &mut sys, r)
                .map_err(e)?
                .free(&mut sctx)
                .map_err(e)?;
            sys_cold[i] = (sctx.clock.now() - c0).as_ps();
            let c0 = sctx.clock.now();
            sys.type_commit(&mut sctx, keep.dt).map_err(e)?;
            sys_again[i] = (sctx.clock.now() - c0).as_ps();
        }
        out.system_ps = exec
            .ops
            .iter()
            .map(|op| {
                let t = if op.variant == 0 {
                    &sys_again
                } else {
                    &sys_cold
                };
                t[op.cell as usize] as u128
            })
            .sum();
        Ok(out)
    }
}
