//! # tempi-bench — the evaluation harness
//!
//! Three binaries over one library: `figures` prints the paper's figures
//! ([`figures::FIGURES`]), `bench` produces the gated `BENCH_<suite>.json`
//! rows, `check_bench` compares them with the committed baselines
//! ([`baseline`]). Underneath: the paper's workload objects ([`workloads`]),
//! the measurement [`Cell`] and its runners ([`measure`]), the
//! performance-guidelines zoo ([`guidelines`]) and table/JSON reporting
//! ([`report`]). See `EXPERIMENTS.md` at the repository root for the
//! per-figure index and recorded results.

#![warn(missing_docs)]

pub mod baseline;
pub mod figures;
pub mod guidelines;
pub mod measure;
pub mod report;
pub mod workloads;

pub use baseline::{compare_rows, BenchRow, GatedSuite, Regression, ScaleRow, TOLERANCE};
pub use figures::{figure, Figure, FIGURES};
pub use guidelines::{evaluate, run_zoo, CellTimes, GuidelineRow, Violation};
pub use measure::{
    halo_exchange, timed_rounds, Cell, CommitBreakdown, HaloPacking, Platform, Side,
};
pub use report::{fmt_bytes, fmt_speedup, range, write_rows, Table};
pub use workloads::{fig6_set, send_sweep, zoo, Construction, Obj2d, Obj3d};
