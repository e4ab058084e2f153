//! `check_bench`: the CI perf gates over the three `bench` suites — the
//! `send` sweep, the `scale` sweep, and the `guidelines` zoo.
//!
//! Reads the fresh `BENCH_<suite>.json` at the repository root (written
//! by the preceding `bench <suite>` run) and the committed
//! `results/BENCH_<suite>.baseline.json` copy,
//! compares them through the shared [`tempi_bench::baseline`] comparator,
//! and exits non-zero when any row got slower than the suite tolerance
//! on any gated timing column or any gated *verdict* (the guideline
//! booleans) differs from the baseline. All gated times are virtual
//! nanoseconds, so every gate is deterministic — no flake budget needed.
//!
//! Bootstrap: an empty (`[]`) or absent baseline records the current rows
//! as the new baseline and passes. That is how a baseline is
//! (re-)captured after an intentional perf change: empty the file's
//! contents down to `[]`, re-run `bench <suite>` then `check_bench`, and
//! commit the rewritten baseline.
//!
//! Run: `cargo run --release -p tempi-bench --bin check_bench [send|scale|guidelines ...]`
//! (no arguments = all three gates).

use std::path::Path;

use tempi_bench::baseline::{compare_rows, BenchRow, GatedSuite, ScaleRow};
use tempi_bench::guidelines::GuidelineRow;

fn read_rows<T: GatedSuite>(path: &str) -> Result<Vec<T>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    tempi_trace::json::from_str(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// Run one gate: load current + baseline rows, bootstrap an absent or
/// empty baseline, otherwise compare. Returns `Err(exit message)` on any
/// failure, `Ok(report line)` on pass.
fn gate<T: GatedSuite>(root: &str) -> Result<String, String> {
    let label = format!("check_bench[{}]", T::SUITE);
    let bench_bin = format!("bench {}", T::SUITE);
    let current_path = format!("{root}/BENCH_{}.json", T::SUITE);
    let baseline_path = format!("{root}/results/BENCH_{}.baseline.json", T::SUITE);
    let current: Vec<T> = match read_rows(&current_path) {
        Ok(rows) if !rows.is_empty() => rows,
        Ok(_) => return Err(format!("{current_path} is empty — run `{bench_bin}` first")),
        Err(e) => return Err(format!("{e} — run `{bench_bin}` first")),
    };
    let baseline: Vec<T> = match std::fs::metadata(&baseline_path) {
        Ok(_) => read_rows(&baseline_path)?,
        Err(_) => Vec::new(),
    };

    if baseline.is_empty() {
        let name = format!("BENCH_{}.baseline.json", T::SUITE);
        return match tempi_bench::write_rows(&Path::new(root).join("results"), &name, &current) {
            Ok(_) => Ok(format!(
                "{label}: baseline was empty — recorded {} rows to {baseline_path}; \
                 review and commit it",
                current.len()
            )),
            Err(e) => Err(format!("cannot bootstrap {baseline_path}: {e}")),
        };
    }

    match compare_rows(&baseline, &current)? {
        regressions if regressions.is_empty() => Ok(format!(
            "{label}: {} rows within the {:.0}% budget of {baseline_path}",
            baseline.len(),
            (T::TOLERANCE - 1.0) * 100.0
        )),
        regressions => {
            let mut msg = format!(
                "{label}: {} regression(s) beyond the {:.0}% budget:\n",
                regressions.len(),
                (T::TOLERANCE - 1.0) * 100.0
            );
            for r in &regressions {
                msg.push_str(&format!("  {r}\n"));
            }
            msg.push_str(&format!(
                "if intentional, re-record the baseline (empty {baseline_path} to `[]`, \
                 re-run {bench_bin} + check_bench, commit)"
            ));
            Err(msg)
        }
    }
}

fn main() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let selected: Vec<String> = std::env::args().skip(1).collect();
    let all = ["send", "scale", "guidelines"];
    for s in &selected {
        if !all.contains(&s.as_str()) {
            eprintln!("check_bench: unknown suite `{s}` (expected send, scale or guidelines)");
            std::process::exit(2);
        }
    }
    let run = |suite: &str| selected.is_empty() || selected.iter().any(|s| s == suite);

    let mut failed = false;
    let mut results = Vec::new();
    if run("send") {
        results.push(gate::<BenchRow>(root));
    }
    if run("scale") {
        results.push(gate::<ScaleRow>(root));
    }
    if run("guidelines") {
        results.push(gate::<GuidelineRow>(root));
    }
    for result in results {
        match result {
            Ok(report) => println!("{report}"),
            Err(e) => {
                eprintln!("check_bench: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
