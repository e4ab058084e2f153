//! `bench_send`: the Fig. 11 datatype zoo under the model-driven send
//! decision, fresh and online-calibrated.
//!
//! For every 2-D object in the zoo (1 KiB / 1 MiB / 4 MiB totals across
//! contiguous block sizes) this measures the one-way typed delivery time
//! three ways:
//!
//! * **static** — `TEMPI_TUNER=off`: the analytical model evaluated fresh
//!   on every send, ranking device, one-shot, staged and the §8 pipeline
//!   at its best chunk (what the default, `model`, memoizes);
//! * **tuned** — `TEMPI_TUNER=online`: the same ranking with every term
//!   scaled by its measured ÷ modelled ratio, memoized and re-probed
//!   epsilon-greedily;
//! * **one-shot** — `MPI_Send` forced to the one-shot method (the
//!   single-method baseline the speedup column is quoted against).
//!
//! Each cell is the minimum over measured rounds after warm-up, so
//! epsilon-probe rounds report the converged choice (the paper's
//! steady-state methodology). The table goes to stdout and the rows to
//! `BENCH_send.json` at the repository root (or `--out DIR`); a failed
//! write exits non-zero so CI never gates on stale rows.
//!
//! Run: `cargo run --release -p tempi-bench --bin bench_send [-- --out DIR]`

use gpu_sim::SimTime;
use tempi_bench::{
    fmt_bytes, fmt_speedup, send_one_way_times, BenchRow, Construction, Obj2d, Platform, Table,
};
use tempi_core::config::{Method, TempiConfig, TunerMode};

const WARMUP: usize = 4;
const ROUNDS: usize = 8;

/// Minimum delivery time over the measured rounds, plus the method the
/// sender used on that minimal round.
fn measure(obj: Obj2d, config: TempiConfig) -> (SimTime, Option<Method>) {
    send_one_way_times(
        Platform::Summit,
        config,
        |ctx| obj.tree(Construction::Hvector)?.build(ctx),
        obj.incount,
        obj.span(),
        WARMUP,
        ROUNDS,
    )
    .expect("send measurement")
    .into_iter()
    .min_by_key(|&(t, _)| t)
    .expect("at least one round")
}

fn zoo() -> Vec<Obj2d> {
    let mut v = Vec::new();
    for total in [1usize << 10, 1 << 20, 4 << 20] {
        let mut block = 8usize;
        while block < total {
            v.push(Obj2d {
                incount: 1,
                block,
                count: total / block,
                stride: block * 2,
            });
            block *= 8;
        }
        // fully contiguous
        v.push(Obj2d {
            incount: 1,
            block: total,
            count: 1,
            stride: total,
        });
    }
    v
}

fn main() {
    let mut rows = Vec::new();
    let mut t = Table::new(&[
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
    for obj in zoo() {
        let (stat_t, stat_m) = measure(
            obj,
            TempiConfig {
                tuner: TunerMode::Off,
                ..TempiConfig::default()
            },
        );
        let (tuned_t, tuned_m) = measure(
            obj,
            TempiConfig {
                tuner: TunerMode::Online,
                ..TempiConfig::default()
            },
        );
        let (oneshot_t, _) = measure(
            obj,
            TempiConfig {
                force_method: Some(Method::OneShot),
                tuner: TunerMode::Off,
                ..TempiConfig::default()
            },
        );
        let name = |m: Option<Method>| m.map_or("system".to_string(), |m| format!("{m:?}"));
        let speedup_vs_oneshot = oneshot_t.as_ns_f64() / tuned_t.as_ns_f64();
        let tuned_vs_static = stat_t.as_ns_f64() / tuned_t.as_ns_f64();
        t.row(&[
            &fmt_bytes(obj.total_bytes()),
            &fmt_bytes(obj.block),
            &format!("{stat_t}"),
            &format!("{tuned_t}"),
            &format!("{oneshot_t}"),
            &name(stat_m),
            &name(tuned_m),
            &fmt_speedup(speedup_vs_oneshot),
            &fmt_speedup(tuned_vs_static),
        ]);
        rows.push(BenchRow {
            object: fmt_bytes(obj.total_bytes()),
            object_bytes: obj.total_bytes(),
            block_bytes: obj.block,
            method_static: name(stat_m),
            method_tuned: name(tuned_m),
            static_ns: stat_t.as_ns_f64(),
            tuned_ns: tuned_t.as_ns_f64(),
            oneshot_ns: oneshot_t.as_ns_f64(),
            speedup_vs_oneshot,
            tuned_vs_static,
        });
    }
    t.print();

    // Where the model pipelines, what that is worth over the one-piece
    // method prior work preferred.
    let best = rows
        .iter()
        .filter(|r| r.method_static == "Pipelined")
        .map(|r| r.oneshot_ns / r.static_ns)
        .fold(0.0f64, f64::max);
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
    // hair slower one-way. A real mis-selection is far outside 2%; the
    // gate below still catches regressions against the committed
    // baseline. And the static model must find at least one one-shot →
    // pipelined crossover worth ≥ 1.2× — the bar EXPERIMENTS.md quotes.
    const NEAR_TIE: f64 = 0.98;
    for r in &rows {
        assert!(
            r.tuned_vs_static >= NEAR_TIE - 1e-9,
            "tuned send lost to the static model on {} / block {}: {} ns vs {} ns",
            r.object,
            r.block_bytes,
            r.tuned_ns,
            r.static_ns
        );
    }
    assert!(
        best >= 1.2,
        "no zoo workload shows the >=1.2x pipelined crossover (best {best:.3}x)"
    );

    let write = tempi_bench::out_dir_from_args(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .and_then(|out| tempi_bench::write_rows(&out, "BENCH_send.json", &rows));
    match write {
        Ok(p) => eprintln!("wrote {}", p.display()),
        Err(e) => {
            eprintln!("bench_send: {e}");
            std::process::exit(1);
        }
    }
}
