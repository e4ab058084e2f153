//! The rows of the `send` and `scale` suites, as `bench <suite>` writes
//! them to `BENCH_<suite>.json` at the repository root (the `guidelines`
//! suite's rows are [`crate::guidelines::GuidelineRow`]).
//!
//! Each file is its suite's one committed record: every column is virtual
//! nanoseconds from the simulator clock, or a label, so a rerun writes the
//! same bytes and CI's `git diff --exit-code` after `bench` is the whole
//! gate. A change that moves a row commits the regenerated file.

use tempi_trace::json::{self, FromJson, ToJson, Value};

/// One datatype-zoo row of `BENCH_send.json`.
///
/// A row is one sweep object (`object_bytes`, `block_bytes`) measured
/// three ways, with the methods chosen and the ratios the table prints.
#[derive(Debug, Clone)]
pub struct BenchRow {
    /// Human-readable object size (e.g. `"1.0 MiB"`).
    pub object: String,
    /// Total packed bytes of the object.
    pub object_bytes: usize,
    /// Contiguous block size in bytes.
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
    /// `oneshot_ns / tuned_ns`.
    pub speedup_vs_oneshot: f64,
    /// `static_ns / tuned_ns`.
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

impl FromJson for BenchRow {
    fn from_json(v: &Value) -> Result<BenchRow, json::Error> {
        Ok(BenchRow {
            object: v.field("object")?,
            object_bytes: v.field("object_bytes")?,
            block_bytes: v.field("block_bytes")?,
            method_static: v.field("method_static")?,
            method_tuned: v.field("method_tuned")?,
            static_ns: v.field("static_ns")?,
            tuned_ns: v.field("tuned_ns")?,
            oneshot_ns: v.field("oneshot_ns")?,
            speedup_vs_oneshot: v.field("speedup_vs_oneshot")?,
            tuned_vs_static: v.field("tuned_vs_static")?,
        })
    }
}

/// One `bench scale` sweep row of `BENCH_scale.json`.
///
/// `exchange_ns` is virtual time from the simulator clock (the slowest
/// rank's measured exchange), so the row reproduces exactly. The host
/// wall-clock of the run, the scaling headline, is printed by `bench
/// scale` and never recorded: it differs from run to run.
#[derive(Debug, Clone)]
pub struct ScaleRow {
    /// Which sweep the row belongs to: `"stencil"` or `"alltoallv"`.
    pub workload: String,
    /// World size of the run.
    pub ranks: usize,
    /// Slowest rank's virtual-time cost of one steady-state exchange, ns.
    pub exchange_ns: f64,
}

impl ToJson for ScaleRow {
    fn to_json(&self) -> Value {
        Value::object([
            ("workload", self.workload.to_json()),
            ("ranks", self.ranks.to_json()),
            ("exchange_ns", self.exchange_ns.to_json()),
        ])
    }
}

impl FromJson for ScaleRow {
    fn from_json(v: &Value) -> Result<ScaleRow, json::Error> {
        Ok(ScaleRow {
            workload: v.field("workload")?,
            ranks: v.field("ranks")?,
            exchange_ns: v.field("exchange_ns")?,
        })
    }
}
