//! # tempi-bench — the evaluation harness
//!
//! Two binaries over one library: `figures` prints the paper's figures
//! ([`figures::FIGURES`]), and `bench` records each suite's rows as the
//! committed `BENCH_<suite>.json` ([`rows`]), which CI regenerates and
//! diffs byte for byte. Underneath: the paper's workload objects
//! ([`workloads`]), the measurement [`Cell`] and its runners
//! ([`measure`]), the performance-guidelines zoo ([`guidelines`]) and
//! table/JSON reporting ([`report`]). See `EXPERIMENTS.md` at the
//! repository root for the
//! per-figure index and recorded results.

#![warn(missing_docs)]

pub mod figures;
pub mod guidelines;
pub mod measure;
pub mod report;
pub mod rows;
pub mod workloads;

pub use figures::{figure, Figure, FIGURES};
pub use guidelines::{evaluate, run_zoo, CellTimes, GuidelineRow, Violation};
pub use measure::{
    halo_exchange, timed_rounds, Cell, CommitBreakdown, HaloPacking, Platform, Side,
};
pub use report::{fmt_bytes, fmt_speedup, range, write_rows, Table};
pub use rows::{BenchRow, ScaleRow};
pub use workloads::{fig6_set, send_sweep, zoo, Construction, Obj2d, Obj3d};
