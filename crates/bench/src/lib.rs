//! # tempi-bench — figure/table regeneration harness
//!
//! Shared machinery for the `fig*`, `table1` and `ablation_*` binaries in
//! `src/bin/`: the paper's workload objects ([`workloads`]), deterministic
//! virtual-time measurement entry points ([`measure`]), and table/JSON
//! reporting ([`report`]). See `EXPERIMENTS.md` at the repository root for
//! the per-figure index and recorded results.

#![warn(missing_docs)]

pub mod baseline;
pub mod guidelines;
pub mod measure;
pub mod report;
pub mod workloads;

pub use baseline::{compare_rows, BenchRow, GatedSuite, Regression, ScaleRow, TOLERANCE};
pub use guidelines::{evaluate, run_zoo, run_zoo_on, CellTimes, GuidelineRow, Violation};
pub use measure::{
    commit_breakdown, pack_time, send_one_way_times, send_pair_time, trimean, Mode, Platform,
};
pub use report::{fmt_bytes, fmt_speedup, out_dir_from_args, write_rows, Table};
pub use workloads::{fig6_set, zoo, Construction, Obj2d, Obj3d};
