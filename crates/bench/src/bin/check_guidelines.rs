//! `check_guidelines`: the self-checking DDT performance-guidelines
//! harness (see [`tempi_bench::guidelines`]).
//!
//! Runs the expanded datatype zoo across all three vendor profiles with
//! TEMPI on and off, evaluates guidelines G1–G4 per (pattern, vendor)
//! cell, prints the cell table, and writes two artifacts to the output
//! directory (`--out DIR`, default repository root):
//!
//! * `BENCH_guidelines.json` — the structured per-cell rows
//!   (virtual-ns timings + verdicts + worst violation ratio), the input
//!   `check_bench guidelines` gates against the committed baseline;
//! * `BENCH_guidelines_violations.txt` — the human-readable worst-first
//!   violations report.
//!
//! Exit status: non-zero on any **G3** violation (TEMPI-on breaking a
//! guideline TEMPI-off satisfies — the regression the paper's thesis
//! forbids) or on any write failure. Off-side violations (a vendor
//! quirk breaking G1/G2 without TEMPI) are reported but do not fail the
//! run: they are the status quo the harness documents, and the
//! `check_bench` verdict gate pins them against silent drift.
//!
//! Tolerance: [`GUIDELINE_TOL`] (10%).
//!
//! Run: `cargo run --release -p tempi-bench --bin check_guidelines [--out DIR]`

use tempi_bench::guidelines::{render_report, run_zoo, violations, GUIDELINE_TOL};
use tempi_bench::{fmt_bytes, out_dir_from_args, write_rows, Table};

fn main() {
    let out = match out_dir_from_args(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")) {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("check_guidelines: {e}");
            std::process::exit(2);
        }
    };
    let rows = match run_zoo(GUIDELINE_TOL) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("check_guidelines: measurement failed: {e}");
            std::process::exit(1);
        }
    };

    let mut t = Table::new(&[
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
        let verdicts = format!(
            "{}{}{}{}{}{}",
            if r.g1_off { '-' } else { '1' },
            if r.g2_off { '-' } else { '2' },
            if r.g1_on { '-' } else { '1' },
            if r.g2_on { '-' } else { '2' },
            if r.g3 { '-' } else { '3' },
            if r.g4 { '-' } else { '4' },
        );
        let verdicts = if r.clean() {
            "ok".to_string()
        } else {
            format!("viol[{verdicts}]")
        };
        t.row(&[
            &r.pattern,
            &r.vendor,
            &fmt_bytes(r.size_bytes),
            &r.plan,
            &format!("{:.0} ns", r.off_ddt_ns),
            &format!("{:.0} ns", r.on_ddt_ns),
            &format!("{:.0} ns", r.on_pack_send_ns),
            &format!("{:.0} ns", r.on_naive_ns),
            &verdicts,
            &format!("{:.2}x", r.worst_ratio),
        ]);
    }
    t.print();

    let report = render_report(&rows, GUIDELINE_TOL);
    println!("\n{report}");

    let report_path = out.join("BENCH_guidelines_violations.txt");
    let writes = [
        write_rows(&out, "BENCH_guidelines.json", &rows),
        std::fs::write(&report_path, &report)
            .map(|()| report_path.clone())
            .map_err(|e| format!("cannot write {}: {e}", report_path.display())),
    ];
    for write in writes {
        match write {
            Ok(p) => eprintln!("wrote {}", p.display()),
            Err(e) => {
                eprintln!("check_guidelines: {e}");
                std::process::exit(1);
            }
        }
    }

    let g3: Vec<_> = violations(&rows)
        .into_iter()
        .filter(|v| v.guideline == "G3")
        .collect();
    if !g3.is_empty() {
        eprintln!(
            "check_guidelines: {} G3 violation(s) — TEMPI-on violates guidelines \
             TEMPI-off satisfies:",
            g3.len()
        );
        for v in &g3 {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }
    println!(
        "check_guidelines: no G3 violations across {} cells (tolerance {:.0}%)",
        rows.len(),
        GUIDELINE_TOL * 100.0
    );
}
