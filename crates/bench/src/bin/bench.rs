//! `bench`: record the committed `BENCH_<suite>.json` rows.
//!
//! `bench SUITE… [--out DIR]` runs the named suites ([`SUITES`]: `send`,
//! `scale`, `guidelines`), prints each one's table, and writes its rows to
//! `BENCH_<suite>.json` in `DIR` (default: the repository root, where the
//! committed copies live). A suite whose own assertion fails, or whose
//! rows cannot be written, exits non-zero. Every recorded time is virtual
//! nanoseconds, so a rerun writes the same bytes: CI reruns the suites and
//! fails on any `git diff`, and a change that moves a row commits the
//! regenerated file.
//!
//! Run: `cargo run --release -p tempi-bench --bin bench -- send scale [--out DIR]`

use std::path::{Path, PathBuf};
use std::time::Instant;

use mpi_sim::{World, WorldConfig};
use tempi_bench::guidelines::{render_report, run_zoo, violations, GUIDELINE_TOL};
use tempi_bench::{
    fmt_bytes, fmt_speedup, halo_exchange, range, send_sweep, write_rows, BenchRow, Construction,
    HaloPacking, Platform, ScaleRow, Side, Table,
};
use tempi_core::config::{Method, TempiConfig, TunerMode};

/// A suite: its name on the command line and the run that prints its table
/// and writes its artifacts into the directory.
type Suite = (&'static str, fn(&Path) -> Result<(), String>);

const SUITES: [Suite; 3] = [("send", send), ("scale", scale), ("guidelines", guidelines)];

/// Write `rows` as `dir/name` and say so.
fn emit<T: tempi_trace::json::ToJson>(dir: &Path, name: &str, rows: &T) -> Result<(), String> {
    let path = write_rows(dir, name, rows)?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// The send sweep as hvectors under the model-driven send decision, one-way
/// delivery time measured three ways:
///
/// * **static** — `TEMPI_TUNER=off`: the analytical model evaluated fresh on
///   every send, ranking device, one-shot, staged and the §8 pipeline at its
///   best chunk (what the default, `model`, memoizes);
/// * **tuned** — `TEMPI_TUNER=online`: the same ranking with every term
///   scaled by its measured ÷ modelled ratio, memoized and re-probed
///   epsilon-greedily;
/// * **one-shot** — the single-method baseline the speedup column is quoted
///   against.
///
/// Each cell is the fastest of 8 measured rounds after 4 warm-up rounds, so
/// epsilon-probe rounds report the converged choice.
fn send(out: &Path) -> Result<(), String> {
    let mut rows = Vec::new();
    let mut t = Table::new([
        "object",
        "block",
        "static",
        "tuned",
        "one-shot",
        "m(static)",
        "m(tuned)",
        "vs 1shot",
        "vs static",
    ]);
    for obj in send_sweep() {
        let cell = obj
            .cell(Platform::Summit, Construction::Hvector)
            .map_err(|e| e.to_string())?;
        let measure = |force_method: Option<Method>, tuner: TunerMode| {
            let config = TempiConfig {
                force_method,
                tuner,
                ..TempiConfig::default()
            };
            let fastest = cell.one_way(&Side::Tempi(config), 4, 8);
            fastest.map_err(|e| format!("send measurement of {}: {e}", obj.label()))
        };
        let (stat_t, method_static) = measure(None, TunerMode::Off)?;
        let (tuned_t, method_tuned) = measure(None, TunerMode::Online)?;
        let (oneshot_t, _) = measure(Some(Method::OneShot), TunerMode::Off)?;
        let row = BenchRow {
            object: fmt_bytes(obj.total_bytes()),
            object_bytes: obj.total_bytes(),
            block_bytes: obj.block,
            method_static,
            method_tuned,
            static_ns: stat_t.as_ns_f64(),
            tuned_ns: tuned_t.as_ns_f64(),
            oneshot_ns: oneshot_t.as_ns_f64(),
            speedup_vs_oneshot: oneshot_t.as_ns_f64() / tuned_t.as_ns_f64(),
            tuned_vs_static: stat_t.as_ns_f64() / tuned_t.as_ns_f64(),
        };
        t.row(&[
            &row.object,
            &fmt_bytes(obj.block),
            &stat_t,
            &tuned_t,
            &oneshot_t,
            &row.method_static,
            &row.method_tuned,
            &fmt_speedup(row.speedup_vs_oneshot),
            &fmt_speedup(row.tuned_vs_static),
        ]);
        rows.push(row);
    }
    print!("{t}");

    // Where the model pipelines, what that is worth over the one-piece
    // method prior work preferred.
    let pipelined = rows.iter().filter(|r| r.method_static == "Pipelined");
    let (_, best) = range(pipelined.map(|r| r.oneshot_ns / r.static_ns));
    println!(
        "\nbest pipelined-vs-one-shot speedup: {}",
        fmt_speedup(best)
    );

    // Calibration must not cost anything where the model is already
    // right, which in the simulator is everywhere: the tuner may not lose
    // meaningfully to the static model on any row. NEAR_TIE gives it 2% of
    // slack: its choice is the argmin of the *calibrated* model, so on
    // rows where two methods are within the model's error (device vs
    // pipelined at a few blocks, say) it may pick the one that measures a
    // hair slower one-way. A real mis-selection is far outside 2%, and
    // any row that moves at all shows as a diff of the committed file.
    // And the static model must find at least one one-shot → pipelined
    // crossover worth ≥ 1.2× — the bar EXPERIMENTS.md quotes.
    const NEAR_TIE: f64 = 0.98;
    for r in &rows {
        if r.tuned_vs_static < NEAR_TIE - 1e-9 {
            return Err(format!(
                "tuned send lost to the static model on {} / block {}: {} ns vs {} ns",
                r.object, r.block_bytes, r.tuned_ns, r.static_ns
            ));
        }
    }
    if best < 1.2 {
        return Err(format!(
            "no sweep object shows the >=1.2x pipelined crossover (best {best:.3}x)"
        ));
    }
    emit(out, "BENCH_send.json", &rows)
}

/// Stencil sweep sizes: powers of 8 through 4,096, then the 10,000-rank
/// headline row.
const STENCIL_RANKS: [usize; 5] = [8, 64, 512, 4_096, 10_000];

/// Dense alltoallv sweep sizes (the O(size²) message count keeps this
/// sweep at or below the paper's 1,024-GPU scale).
const ALLTOALLV_RANKS: [usize; 4] = [8, 64, 256, 1_024];

/// Bytes each rank exchanges with every peer in the dense sweep.
const ALLTOALLV_CHUNK: usize = 64;

/// The slowest rank's virtual time, in ns, for one steady-state 4³ halo
/// exchange packed with TEMPI.
fn stencil_exchange_ns(ranks: usize) -> Result<f64, String> {
    let per_rank = halo_exchange(
        &WorldConfig::summit(ranks),
        &Side::tempi(),
        4,
        HaloPacking::Fused,
    )
    .map_err(|e| format!("stencil world of {ranks}: {e}"))?;
    let slowest = per_rank.iter().map(|t| t.total()).max();
    Ok(slowest.unwrap_or_default().as_ns_f64())
}

/// The same for one dense `MPI_Alltoallv` (every rank exchanges a slice with
/// every other rank): a warm-up call, a barrier, the measured call.
fn alltoallv_exchange_ns(ranks: usize) -> Result<f64, String> {
    let per_rank = World::run(&WorldConfig::summit(ranks), |ctx| {
        let n = ctx.size;
        let send = ctx.gpu.malloc(ALLTOALLV_CHUNK * n)?;
        let recv = ctx.gpu.malloc(ALLTOALLV_CHUNK * n)?;
        let counts = vec![ALLTOALLV_CHUNK; n];
        let displs: Vec<usize> = (0..n).map(|j| j * ALLTOALLV_CHUNK).collect();
        ctx.alltoallv_bytes(send, &counts, &displs, recv, &counts, &displs)?;
        ctx.barrier();
        let t0 = ctx.clock.now();
        ctx.alltoallv_bytes(send, &counts, &displs, recv, &counts, &displs)?;
        Ok(ctx.clock.now() - t0)
    })
    .map_err(|e| format!("alltoallv world of {ranks}: {e}"))?;
    Ok(per_rank.into_iter().max().unwrap_or_default().as_ns_f64())
}

/// The event-scheduler scaling sweep on the Summit profile: the paper's
/// 26-direction 3-D halo exchange from 8 ranks through 4,096 plus a
/// 10,000-rank row, and the dense all-pairs `MPI_Alltoallv`, where the
/// O(size) argument arrays are the workload's own cost. `exchange_ns` is
/// virtual and recorded; the host time of each world run, the scaling
/// headline, is printed and never recorded, since it differs between runs.
fn scale(out: &Path) -> Result<(), String> {
    /// One sweep: workload label, rank counts, measurement entry point.
    type Sweep = (
        &'static str,
        &'static [usize],
        fn(usize) -> Result<f64, String>,
    );
    let sweeps: [Sweep; 2] = [
        ("stencil", &STENCIL_RANKS, stencil_exchange_ns),
        ("alltoallv", &ALLTOALLV_RANKS, alltoallv_exchange_ns),
    ];
    let mut rows: Vec<ScaleRow> = Vec::new();
    let mut headline_wall_s = 0.0;
    let mut t = Table::new(["workload", "ranks", "exchange(virt)", "wall"]);
    for (workload, sizes, run) in sweeps {
        for &ranks in sizes {
            let wall = Instant::now();
            let exchange_ns = run(ranks)?;
            let wall_s = wall.elapsed().as_secs_f64();
            if (workload, ranks) == ("stencil", 10_000) {
                headline_wall_s = wall_s;
            }
            t.row(&[
                &workload,
                &ranks,
                &format!("{:.1} µs", exchange_ns / 1e3),
                &format!("{:.0} ms", wall_s * 1e3),
            ]);
            rows.push(ScaleRow {
                workload: workload.to_string(),
                ranks,
                exchange_ns,
            });
        }
    }
    print!("{t}");

    println!("\n10,000-rank stencil exchange: {headline_wall_s:.1} s wall-clock");
    if headline_wall_s >= 60.0 {
        return Err(format!(
            "10,000-rank stencil exchange took {headline_wall_s:.1} s — the acceptance bar is 60 s"
        ));
    }
    // A nearest-neighbor exchange weak-scales flat: from 64 ranks up every
    // rank has 26 distinct neighbors, and the exchange costs the same.
    let stencil = |r: &&ScaleRow| r.workload == "stencil";
    let flat = rows.iter().filter(stencil).filter(|r| r.ranks >= 64);
    let (lo, hi) = range(flat.map(|r| r.exchange_ns));
    if hi > lo * 1.01 {
        return Err(format!(
            "stencil exchange grows with the world: {lo:.0} ns to {hi:.0} ns from 64 ranks up"
        ));
    }
    // The dense exchange walks the sparse call's pairwise-exchange order,
    // a window of sends ahead of its receives: no rank queues behind rank
    // 0, and the link latency passes while a rank pays its own send and
    // receive overheads, so an n-rank exchange costs those n - 1 times
    // over, plus at most one inter-node latency.
    let net = WorldConfig::summit(1).net;
    for r in rows.iter().filter(|r| r.workload == "alltoallv") {
        let floor = (net.send_overhead + net.recv_overhead) * (r.ranks as u64 - 1);
        let (lo, hi) = (
            floor.as_ns_f64(),
            (floor + net.gpu_latency_inter).as_ns_f64(),
        );
        if !(lo..=hi).contains(&r.exchange_ns) {
            return Err(format!(
                "dense alltoallv of {} ranks took {:.0} ns, outside {lo:.0} ..= {hi:.0} ns: its overheads, plus at most one latency",
                r.ranks, r.exchange_ns
            ));
        }
    }
    emit(out, "BENCH_scale.json", &rows)
}

/// The expanded datatype zoo across all three vendor profiles with TEMPI on
/// and off (see [`tempi_bench::guidelines`]): the per-cell rows go to
/// `BENCH_guidelines.json`, the worst-first violations report to
/// `BENCH_guidelines_violations.txt`. Fails on any **G3** violation
/// (TEMPI-on breaking a guideline TEMPI-off satisfies — the regression the
/// paper's thesis forbids). Off-side violations (a vendor quirk breaking
/// G1/G2 without TEMPI) are reported but do not fail the run: they are the
/// status quo the harness documents, and the committed rows and report
/// pin them against silent drift.
fn guidelines(out: &Path) -> Result<(), String> {
    let rows =
        run_zoo(&Platform::ALL, GUIDELINE_TOL).map_err(|e| format!("measurement failed: {e}"))?;
    let mut t = Table::new([
        "pattern",
        "vendor",
        "size",
        "plan",
        "ddt(off)",
        "ddt(on)",
        "pack(on)",
        "naive(on)",
        "verdicts",
        "worst",
    ]);
    for r in &rows {
        // one character per verdict: its guideline's number where violated
        let marks = (r.eval.verdicts().into_iter()).map(|(name, holds)| {
            if holds {
                '-'
            } else {
                name.as_bytes()[1] as char
            }
        });
        let verdicts = if r.eval.clean() {
            "ok".to_string()
        } else {
            format!("viol[{}]", marks.collect::<String>())
        };
        t.row(&[
            &r.pattern,
            &r.vendor,
            &fmt_bytes(r.size_bytes),
            &r.plan,
            &format!("{:.0} ns", r.off.ddt_ns),
            &format!("{:.0} ns", r.on.ddt_ns),
            &format!("{:.0} ns", r.on.pack_send_ns),
            &format!("{:.0} ns", r.on.naive_ns),
            &verdicts,
            &format!("{:.2}x", r.eval.worst_ratio),
        ]);
    }
    print!("{t}");

    let report = render_report(&rows, GUIDELINE_TOL);
    println!("\n{report}");
    emit(out, "BENCH_guidelines.json", &rows)?;
    let report_path = out.join("BENCH_guidelines_violations.txt");
    std::fs::write(&report_path, &report)
        .map_err(|e| format!("cannot write {}: {e}", report_path.display()))?;
    eprintln!("wrote {}", report_path.display());

    let g3: Vec<String> = (violations(&rows).iter())
        .filter(|v| v.guideline == "G3")
        .map(|v| format!("\n  {v}"))
        .collect();
    if !g3.is_empty() {
        return Err(format!(
            "{} G3 violation(s) — TEMPI-on violates guidelines TEMPI-off satisfies:{}",
            g3.len(),
            g3.concat()
        ));
    }
    println!(
        "bench guidelines: no G3 violations across {} cells (tolerance {:.0}%)",
        rows.len(),
        GUIDELINE_TOL * 100.0
    );
    Ok(())
}

fn usage() -> ! {
    eprintln!("usage: bench SUITE… [--out DIR]  (suites: send, scale, guidelines)");
    std::process::exit(2);
}

fn main() {
    let mut out = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let mut selected = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--out" {
            out = PathBuf::from(args.next().unwrap_or_else(|| usage()));
        } else if let Some(suite) = SUITES.iter().find(|(name, _)| *name == arg) {
            selected.push(suite);
        } else {
            eprintln!("bench: unknown suite `{arg}`");
            usage();
        }
    }
    if selected.is_empty() {
        usage();
    }
    for (name, run) in selected {
        if let Err(e) = run(&out) {
            eprintln!("bench {name}: {e}");
            std::process::exit(1);
        }
    }
}
