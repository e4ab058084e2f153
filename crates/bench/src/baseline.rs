//! Perf-baseline comparison backing the `check_bench` CI gates.
//!
//! Three suites share one comparator ([`compare_rows`]) through the
//! [`GatedSuite`] trait: the `send` sweep, the `scale` sweep, and the
//! `guidelines` performance-guidelines zoo. `bench <suite>` writes fresh
//! rows to `BENCH_<suite>.json` at the repository root; a reviewed copy
//! lives in `results/BENCH_<suite>.baseline.json`. The gate re-runs the suite and
//! fails the build when any row got more than the suite's tolerance
//! slower than the committed baseline on any gated timing column, or when
//! any gated *verdict* (the guideline booleans) differs from the baseline
//! at all — verdicts are gated exactly, timings within the tolerance.
//!
//! All times are *virtual* nanoseconds from the simulator clock, so the
//! comparison is exactly reproducible: a regression here is an algorithmic
//! change (method choice, chunking, extra hops), never host noise.

use tempi_trace::json::{self, FromJson, ToJson, Value};

/// Default largest allowed `current / baseline` ratio per gated timing:
/// a 10% slowdown budget, absorbing intentional small costs (an extra
/// branch, a dispatch-overhead bump) while catching method-choice
/// regressions, which move rows by integer factors.
pub const TOLERANCE: f64 = 1.10;

/// One row type of a gated benchmark suite: how to identify a row across
/// runs, which timing columns are gated (within [`Self::TOLERANCE`]),
/// and which boolean verdicts are gated exactly.
pub trait GatedSuite: ToJson + FromJson {
    /// Suite name — names the `BENCH_<suite>.json` /
    /// `results/BENCH_<suite>.baseline.json` pair in messages.
    const SUITE: &'static str;
    /// Largest allowed `current / baseline` timing ratio for this suite.
    const TOLERANCE: f64;

    /// The identity of a row across runs (also the label in messages).
    fn row_key(&self) -> String;
    /// Gated timing columns, `(metric name, virtual ns)`.
    fn timings(&self) -> Vec<(&'static str, f64)>;
    /// Gated boolean verdicts, compared exactly (none by default).
    fn verdicts(&self) -> Vec<(&'static str, bool)> {
        Vec::new()
    }
}

/// One gated difference between a fresh run and the committed baseline.
#[derive(Debug, Clone, PartialEq)]
pub enum Regression {
    /// A timing column got slower than the suite tolerance allows.
    Timing {
        /// Row key of the offending row.
        row: String,
        /// Which timing column regressed.
        metric: &'static str,
        /// The committed baseline time, virtual ns.
        baseline_ns: f64,
        /// The freshly measured time, virtual ns.
        current_ns: f64,
        /// The suite's tolerance (as a ratio limit, e.g. 1.10).
        limit: f64,
    },
    /// A gated verdict differs from the baseline (any flip fails: a
    /// changed verdict set must be re-recorded deliberately, even when
    /// the flip is an improvement).
    Verdict {
        /// Row key of the offending row.
        row: String,
        /// Which verdict flipped.
        verdict: &'static str,
        /// The committed baseline value.
        baseline: bool,
        /// The freshly evaluated value.
        current: bool,
    },
}

impl Regression {
    /// Slowdown factor for sorting: `current / baseline` for timings,
    /// `+inf` for verdict flips so they always sort first.
    pub fn ratio(&self) -> f64 {
        match self {
            Regression::Timing {
                baseline_ns,
                current_ns,
                ..
            } => current_ns / baseline_ns,
            Regression::Verdict { .. } => f64::INFINITY,
        }
    }
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Regression::Timing {
                row,
                metric,
                baseline_ns,
                current_ns,
                limit,
            } => write!(
                f,
                "{row}: {metric} {baseline_ns:.0} ns -> {current_ns:.0} ns \
                 ({:.2}x, limit {limit:.2}x)",
                self.ratio()
            ),
            Regression::Verdict {
                row,
                verdict,
                baseline,
                current,
            } => write!(
                f,
                "{row}: verdict {verdict} flipped {baseline} -> {current} \
                 (verdicts are gated exactly; re-record the baseline if intentional)"
            ),
        }
    }
}

/// Compare a fresh suite run against the committed baseline.
///
/// Every baseline row must be present in `current` (keyed by
/// [`GatedSuite::row_key`]) — a vanished row is an error, not a pass, so
/// shrinking a suite cannot silently shrink the gate. Extra current rows
/// are fine: a grown suite gates on the old rows until the baseline is
/// re-recorded. Timings regress only when slower beyond the suite
/// tolerance (getting faster always passes); verdicts regress on any
/// difference. Returns the regressions, worst first (verdict flips
/// before the worst timing).
pub fn compare_rows<T: GatedSuite>(
    baseline: &[T],
    current: &[T],
) -> Result<Vec<Regression>, String> {
    let mut regressions = Vec::new();
    for b in baseline {
        let key = b.row_key();
        let Some(c) = current.iter().find(|c| c.row_key() == key) else {
            return Err(format!(
                "baseline row {key} is missing from the current run (suite shrank? \
                 re-record results/BENCH_{}.baseline.json)",
                T::SUITE
            ));
        };
        let cur_timings = c.timings();
        for (metric, base) in b.timings() {
            let Some(&(_, cur)) = cur_timings.iter().find(|(m, _)| *m == metric) else {
                return Err(format!("current row {key} lost its {metric} column"));
            };
            if base.is_nan() || base <= 0.0 {
                return Err(format!(
                    "baseline row {key} has non-positive {metric} ({base})"
                ));
            }
            if cur > base * T::TOLERANCE {
                regressions.push(Regression::Timing {
                    row: key.clone(),
                    metric,
                    baseline_ns: base,
                    current_ns: cur,
                    limit: T::TOLERANCE,
                });
            }
        }
        let cur_verdicts = c.verdicts();
        for (verdict, base) in b.verdicts() {
            let Some(&(_, cur)) = cur_verdicts.iter().find(|(v, _)| *v == verdict) else {
                return Err(format!("current row {key} lost its {verdict} verdict"));
            };
            if cur != base {
                regressions.push(Regression::Verdict {
                    row: key.clone(),
                    verdict,
                    baseline: base,
                    current: cur,
                });
            }
        }
    }
    regressions.sort_by(|a, b| b.ratio().total_cmp(&a.ratio()));
    Ok(regressions)
}

/// One datatype-zoo row of `BENCH_send.json`.
///
/// The derived columns (`speedup_vs_oneshot`, `tuned_vs_static`) and the
/// method labels are carried for the report but not gated on — the gate
/// compares raw times only.
#[derive(Debug, Clone)]
pub struct BenchRow {
    /// Human-readable object size (e.g. `"1.0 MiB"`).
    pub object: String,
    /// Total packed bytes of the object — half of the row key.
    pub object_bytes: usize,
    /// Contiguous block size in bytes — the other half of the row key.
    pub block_bytes: usize,
    /// Method the static model chose on the minimal round.
    pub method_static: String,
    /// Method the online tuner chose on the minimal round.
    pub method_tuned: String,
    /// One-way delivery time under `TEMPI_TUNER=off`, virtual ns.
    pub static_ns: f64,
    /// One-way delivery time under `TEMPI_TUNER=online`, virtual ns.
    pub tuned_ns: f64,
    /// One-way delivery time with the one-shot method forced, virtual ns.
    pub oneshot_ns: f64,
    /// `oneshot_ns / tuned_ns` (reported, not gated).
    pub speedup_vs_oneshot: f64,
    /// `static_ns / tuned_ns` (reported, not gated).
    pub tuned_vs_static: f64,
}

impl ToJson for BenchRow {
    fn to_json(&self) -> Value {
        Value::object([
            ("object", self.object.to_json()),
            ("object_bytes", self.object_bytes.to_json()),
            ("block_bytes", self.block_bytes.to_json()),
            ("method_static", self.method_static.to_json()),
            ("method_tuned", self.method_tuned.to_json()),
            ("static_ns", self.static_ns.to_json()),
            ("tuned_ns", self.tuned_ns.to_json()),
            ("oneshot_ns", self.oneshot_ns.to_json()),
            ("speedup_vs_oneshot", self.speedup_vs_oneshot.to_json()),
            ("tuned_vs_static", self.tuned_vs_static.to_json()),
        ])
    }
}

/// The key and the gated times are required; the reported columns read
/// as their defaults when missing.
impl FromJson for BenchRow {
    fn from_json(v: &Value) -> Result<BenchRow, json::Error> {
        Ok(BenchRow {
            object: v.field_or_default("object")?,
            object_bytes: v.field("object_bytes")?,
            block_bytes: v.field("block_bytes")?,
            method_static: v.field_or_default("method_static")?,
            method_tuned: v.field_or_default("method_tuned")?,
            static_ns: v.field("static_ns")?,
            tuned_ns: v.field("tuned_ns")?,
            oneshot_ns: v.field("oneshot_ns")?,
            speedup_vs_oneshot: v.field_or_default("speedup_vs_oneshot")?,
            tuned_vs_static: v.field_or_default("tuned_vs_static")?,
        })
    }
}

impl GatedSuite for BenchRow {
    const SUITE: &'static str = "send";
    const TOLERANCE: f64 = TOLERANCE;

    fn row_key(&self) -> String {
        format!(
            "object {} B / block {} B",
            self.object_bytes, self.block_bytes
        )
    }

    fn timings(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("static_ns", self.static_ns),
            ("tuned_ns", self.tuned_ns),
            ("oneshot_ns", self.oneshot_ns),
        ]
    }
}

/// One `bench scale` sweep row of `BENCH_scale.json`.
///
/// `exchange_ns` is virtual time from the simulator clock (the slowest
/// rank's measured exchange), so the gate is exactly reproducible.
/// `wall_ms` is host wall-clock — reported for the scaling headline,
/// never gated (it is the one noisy column).
#[derive(Debug, Clone)]
pub struct ScaleRow {
    /// Which sweep the row belongs to: `"stencil"` or `"alltoallv"`.
    pub workload: String,
    /// World size of the run — half of the row key with `workload`.
    pub ranks: usize,
    /// Slowest rank's virtual-time cost of one steady-state exchange, ns.
    pub exchange_ns: f64,
    /// Host wall-clock of the whole world run, milliseconds (reported,
    /// not gated).
    pub wall_ms: f64,
}

impl ToJson for ScaleRow {
    fn to_json(&self) -> Value {
        Value::object([
            ("workload", self.workload.to_json()),
            ("ranks", self.ranks.to_json()),
            ("exchange_ns", self.exchange_ns.to_json()),
            ("wall_ms", self.wall_ms.to_json()),
        ])
    }
}

impl FromJson for ScaleRow {
    fn from_json(v: &Value) -> Result<ScaleRow, json::Error> {
        Ok(ScaleRow {
            workload: v.field("workload")?,
            ranks: v.field("ranks")?,
            exchange_ns: v.field("exchange_ns")?,
            wall_ms: v.field_or_default("wall_ms")?,
        })
    }
}

impl GatedSuite for ScaleRow {
    const SUITE: &'static str = "scale";
    const TOLERANCE: f64 = TOLERANCE;

    fn row_key(&self) -> String {
        format!("{} @ {} ranks", self.workload, self.ranks)
    }

    fn timings(&self) -> Vec<(&'static str, f64)> {
        vec![("exchange_ns", self.exchange_ns)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(object_bytes: usize, block_bytes: usize, ns: f64) -> BenchRow {
        BenchRow {
            object: String::new(),
            object_bytes,
            block_bytes,
            method_static: String::new(),
            method_tuned: String::new(),
            static_ns: ns,
            tuned_ns: ns,
            oneshot_ns: ns,
            speedup_vs_oneshot: 1.0,
            tuned_vs_static: 1.0,
        }
    }

    #[test]
    fn identical_runs_pass() {
        let base = vec![row(1 << 20, 64, 50_000.0), row(1 << 20, 512, 20_000.0)];
        assert_eq!(compare_rows(&base, &base).unwrap(), vec![]);
    }

    #[test]
    fn within_tolerance_passes_and_speedups_pass() {
        let base = vec![row(1 << 20, 64, 50_000.0)];
        let mut cur = base.clone();
        cur[0].tuned_ns = 50_000.0 * 1.09; // inside the 10% budget
        cur[0].static_ns = 50_000.0 * 0.5; // got faster: never a failure
        assert_eq!(compare_rows(&base, &cur).unwrap(), vec![]);
    }

    #[test]
    fn injected_regression_fails_the_gate() {
        let base = vec![row(1 << 20, 64, 50_000.0), row(4 << 20, 512, 80_000.0)];
        let mut cur = base.clone();
        cur[1].tuned_ns = 80_000.0 * 1.2; // the injected 1.2x slowdown
        let regs = compare_rows(&base, &cur).unwrap();
        assert_eq!(regs.len(), 1);
        assert!((regs[0].ratio() - 1.2).abs() < 1e-9);
        // the message names the row, the metric and the limit
        let msg = regs[0].to_string();
        assert!(
            msg.contains("block 512 B") && msg.contains("tuned_ns") && msg.contains("1.10x"),
            "{msg}"
        );
    }

    #[test]
    fn worst_regression_sorts_first() {
        let base = vec![row(1 << 10, 8, 1_000.0), row(1 << 20, 64, 1_000.0)];
        let mut cur = base.clone();
        cur[0].static_ns = 1_300.0;
        cur[1].oneshot_ns = 2_000.0;
        let regs = compare_rows(&base, &cur).unwrap();
        assert_eq!(regs.len(), 2);
        assert!(matches!(
            regs[0],
            Regression::Timing {
                metric: "oneshot_ns",
                ..
            }
        ));
    }

    #[test]
    fn missing_zoo_row_is_an_error_not_a_pass() {
        let base = vec![row(1 << 20, 64, 50_000.0)];
        let err = compare_rows(&base, &[]).unwrap_err();
        assert!(
            err.contains("missing") && err.contains("BENCH_send.baseline.json"),
            "{err}"
        );
    }

    #[test]
    fn rows_round_trip_through_bench_send_json() {
        let base = vec![row(1 << 20, 64, 50_000.0)];
        let back: Vec<BenchRow> = json::from_str(&base.to_json().to_string()).unwrap();
        assert_eq!(back[0].row_key(), "object 1048576 B / block 64 B");
    }

    fn srow(workload: &str, ranks: usize, ns: f64) -> ScaleRow {
        ScaleRow {
            workload: workload.to_string(),
            ranks,
            exchange_ns: ns,
            wall_ms: 1.0,
        }
    }

    #[test]
    fn scale_identical_runs_pass_and_wall_clock_is_not_gated() {
        let base = vec![srow("stencil", 8, 10_000.0), srow("alltoallv", 64, 5_000.0)];
        let mut cur = base.clone();
        cur[0].wall_ms = 1_000.0; // 1000x wall slowdown: noise, never gated
        assert_eq!(compare_rows(&base, &cur).unwrap(), vec![]);
    }

    #[test]
    fn scale_regression_fails_and_names_the_row() {
        let base = vec![srow("stencil", 4096, 80_000.0)];
        let mut cur = base.clone();
        cur[0].exchange_ns = 80_000.0 * 1.25;
        let regs = compare_rows(&base, &cur).unwrap();
        assert_eq!(regs.len(), 1);
        assert!((regs[0].ratio() - 1.25).abs() < 1e-9);
        let msg = regs[0].to_string();
        assert!(msg.contains("stencil @ 4096 ranks"), "{msg}");
    }

    #[test]
    fn scale_missing_row_is_an_error_and_speedups_pass() {
        let base = vec![srow("stencil", 8, 10_000.0)];
        let err = compare_rows(&base, &[]).unwrap_err();
        assert!(err.contains("missing"), "{err}");
        let mut cur = base.clone();
        cur[0].exchange_ns = 5_000.0; // got faster: never a failure
        assert_eq!(compare_rows(&base, &cur).unwrap(), vec![]);
    }

    /// A synthetic suite with both gated timings and gated verdicts, for
    /// exercising the verdict arm without the full guidelines harness.
    #[derive(Clone)]
    struct VRow {
        name: String,
        ns: f64,
        ok: bool,
    }

    impl ToJson for VRow {
        fn to_json(&self) -> Value {
            Value::object([
                ("name", self.name.to_json()),
                ("ns", self.ns.to_json()),
                ("ok", self.ok.to_json()),
            ])
        }
    }

    impl FromJson for VRow {
        fn from_json(v: &Value) -> Result<VRow, json::Error> {
            Ok(VRow {
                name: v.field("name")?,
                ns: v.field("ns")?,
                ok: v.field("ok")?,
            })
        }
    }

    impl GatedSuite for VRow {
        const SUITE: &'static str = "vtest";
        const TOLERANCE: f64 = 1.5;

        fn row_key(&self) -> String {
            self.name.clone()
        }
        fn timings(&self) -> Vec<(&'static str, f64)> {
            vec![("ns", self.ns)]
        }
        fn verdicts(&self) -> Vec<(&'static str, bool)> {
            vec![("ok", self.ok)]
        }
    }

    #[test]
    fn verdict_flips_fail_exactly_and_sort_before_timings() {
        let base = vec![
            VRow {
                name: "a".into(),
                ns: 100.0,
                ok: true,
            },
            VRow {
                name: "b".into(),
                ns: 100.0,
                ok: false,
            },
        ];
        let mut cur = base.clone();
        cur[0].ns = 1_000.0; // a 10x timing regression...
        cur[1].ok = true; // ...and an *improved* verdict: still a flip
        let regs = compare_rows(&base, &cur).unwrap();
        assert_eq!(regs.len(), 2);
        assert!(
            matches!(&regs[0], Regression::Verdict { row, verdict: "ok", baseline: false, current: true } if row == "b"),
            "verdict flip must sort before the timing regression: {regs:?}"
        );
        assert!(regs[0].ratio().is_infinite());
        let msg = regs[0].to_string();
        assert!(msg.contains("gated exactly"), "{msg}");
        // per-suite tolerance: a 1.4x slowdown passes at 1.5x
        let mut cur2 = base.clone();
        cur2[0].ns = 140.0;
        assert_eq!(compare_rows(&base, &cur2).unwrap(), vec![]);
    }
}
