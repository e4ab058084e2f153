//! The benchmark's vocabulary: workloads, end-to-end metrics and per-layer
//! metrics, by the names every later issue cites.
//!
//! `BENCHMARK.json` at the repo root is the one place a name, its unit,
//! direction, bound or rationale is written; it is compiled in and read at
//! start-up. This module adds only what the contract's keys have no room
//! for: the default seed, each end-to-end metric's clock and definition,
//! and each layer's "should move" map. `--list` prints all of it, and a
//! run refuses to report a name that is not here.

use std::sync::OnceLock;

const DOCUMENT: &str = include_str!("../../BENCHMARK.json");

/// The seed used when none is given.
pub const DEFAULT_SEED: u64 = 1;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload and why it exists.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: String,
    pub why: String,
}

/// One end-to-end metric: what a user of the system sees, measured with
/// tracing off, the same name on every workload.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Relative worsening that counts as a regression, and the agreement
    /// between runs the benchmark promises.
    pub bound: f64,
    pub clock: &'static str,
    pub definition: &'static str,
}

/// One per-layer metric, taken in the traced run. `moves` names the
/// end-to-end metrics and workloads a change to its layer should show in.
#[derive(Debug, Clone)]
pub struct PerLayer {
    pub name: String,
    pub unit: String,
    pub better: Better,
    pub moves: &'static str,
}

#[derive(Debug)]
pub struct Spec {
    /// `--seconds` when none is given: the document's `run_seconds`.
    pub seconds: u64,
    pub workloads: Vec<Workload>,
    pub end_to_end: Vec<EndToEnd>,
    pub per_layer: Vec<PerLayer>,
}

/// Clock and definition of each end-to-end metric, by name.
const END_TO_END_NOTES: [(&str, &str, &str); 9] = [
    (
        "setup_s",
        "host",
        "fresh set-up (world spawn, datatype create + commit, buffer malloc + fill, warm-up ops) in seconds at the reference box's speed: the 10th percentile over the run's set-ups, a third before the measured run and the rest after, of host seconds x (reference yardstick time / the yardstick's floor around that set-up)",
    ),
    (
        "setup_heap_allocs",
        "count",
        "alloc + alloc_zeroed + realloc calls on all threads across one fresh set-up: the exact reading of set-up work, beside the host clock's",
    ),
    (
        "virt_ns_per_op",
        "virtual",
        "TEMPI-on virtual ns of the timed phase / ops (sends: receiver side, barrier per op; multi-rank ops: slowest rank)",
    ),
    (
        "virt_tail_ns_per_op",
        "virtual",
        "highest percentile of per-op virtual ns with at least 10 samples beyond it (the percentile is printed; the median where fewer than 20 ops are timed)",
    ),
    (
        "virt_speedup_vs_system",
        "virtual",
        "system-only virtual ns / TEMPI virtual ns over the same op multiset",
    ),
    (
        "heap_allocs_per_op",
        "count",
        "alloc + alloc_zeroed + realloc calls on all threads across the timed phase / ops",
    ),
    (
        "heap_bytes_per_op",
        "count",
        "bytes those calls requested / ops",
    ),
    (
        "peak_heap_mib",
        "count",
        "most heap bytes live at once from the start of the measured run's set-up through the end of its timed phase",
    ),
    (
        "peak_rss_mib",
        "host",
        "VmHWM read right after the timed phase, the mark having been reset before the measured run (its own set-up is in, earlier set-ups and yardstick bursts are not)",
    ),
];

/// The "should move" map, by the prefix of a per-layer name (first match).
const MOVES: [(&str, &str); 13] = [
    ("interpose.", "heap_allocs_per_op, heap_bytes_per_op on send_latency, commit_churn; virt_speedup_vs_system on alltoallv_dense"),
    ("tempi.commit_", "virt_ns_per_op, heap_allocs_per_op on commit_churn; setup_s, setup_heap_allocs elsewhere"),
    ("tempi.", "virt_ns_per_op, virt_tail_ns_per_op on send_latency, send_bandwidth; heap_allocs_per_op on send_latency"),
    ("ir.", "virt_ns_per_op, heap_allocs_per_op on commit_churn; nodes_after -> virt_ns_per_op on pack_zoo"),
    ("kernels.", "virt_ns_per_op on pack_zoo, send_bandwidth, halo_scale; heap_allocs_per_op on pack_zoo"),
    ("model.", "virt_ns_per_op on send_latency, send_bandwidth"),
    ("tuner.", "virt_ns_per_op on send_bandwidth; virt_tail_ns_per_op on send_latency, send_bandwidth"),
    ("buffers.", "virt_ns_per_op, heap_allocs_per_op on send_latency, send_bandwidth"),
    ("gpu-sim.", "launches, syncs -> virt_ns_per_op on send_latency, pack_zoo, halo_scale; copy bytes -> send_bandwidth"),
    ("mpi-sim.", "setup_s, setup_heap_allocs, peak_heap_mib, peak_rss_mib on halo_scale, alltoallv_dense; heap_allocs_per_op on halo_scale vs alltoallv_dense; virt_speedup_vs_system on pack_zoo"),
    ("stencil.", "virt_ns_per_op, heap_allocs_per_op, setup_s, setup_heap_allocs on halo_scale"),
    ("trace.", "no end-to-end metric (tracing is off by default); the rows a tracer rework cites"),
    ("harness.", "none: causes, read beside the rows they explain"),
];

fn parse(document: &str) -> Result<Spec, String> {
    let doc = serde_json::from_str(document).map_err(|e| e.to_string())?;
    let list = |key: &str| {
        doc.get(key)
            .and_then(|v| v.as_array())
            .ok_or(format!("`{key}` is not a list"))
    };
    let text = |v: &serde_json::Value, key: &str| {
        v.get(key)
            .and_then(|s| s.as_str())
            .map(str::to_string)
            .ok_or(format!("an entry lacks `{key}`"))
    };
    let better = |v: &serde_json::Value| match text(v, "better")?.as_str() {
        "lower" => Ok(Better::Lower),
        "higher" => Ok(Better::Higher),
        other => Err(format!("`better` is `{other}`")),
    };
    let workloads = list("workloads")?
        .iter()
        .map(|w| {
            Ok(Workload {
                name: text(w, "name")?,
                why: text(w, "why")?,
            })
        })
        .collect::<Result<_, String>>()?;
    let end_to_end = list("end_to_end")?
        .iter()
        .map(|e| {
            let name = text(e, "name")?;
            let &(_, clock, definition) = END_TO_END_NOTES
                .iter()
                .find(|n| n.0 == name)
                .ok_or(format!("`{name}` has no definition in spec.rs"))?;
            Ok(EndToEnd {
                unit: text(e, "unit")?,
                better: better(e)?,
                bound: e
                    .get("bound")
                    .and_then(|b| b.as_f64())
                    .ok_or(format!("`{name}` has no bound"))?,
                name,
                clock,
                definition,
            })
        })
        .collect::<Result<_, String>>()?;
    let per_layer = list("per_layer")?
        .iter()
        .map(|p| {
            let name = text(p, "name")?;
            let moves = MOVES
                .iter()
                .find(|m| name.starts_with(m.0))
                .ok_or(format!("`{name}` belongs to no layer of spec.rs"))?
                .1;
            Ok(PerLayer {
                unit: text(p, "unit")?,
                better: better(p)?,
                name,
                moves,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok(Spec {
        seconds: doc
            .get("run_seconds")
            .and_then(|s| s.as_u64())
            .ok_or("`run_seconds` is not a whole number")?,
        workloads,
        end_to_end,
        per_layer,
    })
}

/// The vocabulary, parsed once. `main` reads it before anything is timed,
/// so no timed phase pays for the parse.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| parse(DOCUMENT).expect("BENCHMARK.json, as compiled in, is well-formed"))
}

pub fn workload(name: &str) -> Option<&'static Workload> {
    spec().workloads.iter().find(|w| w.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    spec().per_layer.iter().find(|p| p.name == name)
}

/// The `--list` text: workloads, metrics, units, directions, bounds,
/// clocks and the "should move" map.
pub fn list() -> String {
    use std::fmt::Write;
    let s = spec();
    let mut out = String::new();
    writeln!(
        out,
        "workloads (default seed {DEFAULT_SEED}, {} s):",
        s.seconds
    )
    .unwrap();
    for w in &s.workloads {
        writeln!(out, "  {:<16} {}", w.name, w.why).unwrap();
    }
    writeln!(
        out,
        "\nend-to-end metrics (tracing off; same names on every workload):"
    )
    .unwrap();
    for e in &s.end_to_end {
        writeln!(
            out,
            "  {:<24} unit={:<5} better={:<6} bound={:<6} clock={:<8} {}",
            e.name,
            e.unit,
            e.better.as_str(),
            e.bound,
            e.clock,
            e.definition
        )
        .unwrap();
    }
    writeln!(
        out,
        "\nper-layer metrics (traced run; no bound; a probe row reads 0 on a workload its layer should not move):"
    )
    .unwrap();
    for p in &s.per_layer {
        writeln!(
            out,
            "  {:<54} unit={:<9} better={:<6} moves: {}",
            p.name,
            p.unit,
            p.better.as_str(),
            p.moves
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(s: &str, max: usize) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn the_document_fits_the_contract() {
        let doc = serde_json::from_str(DOCUMENT).unwrap();
        let keys: Vec<_> = doc.as_object().unwrap().keys().cloned().collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert!(DOCUMENT.len() <= 64 << 10, "over 64 KiB");
        let s = spec();
        assert!((1..=60).contains(&s.seconds));
        assert!((2..=8).contains(&s.workloads.len()));
        assert!((1..=16).contains(&s.end_to_end.len()));
        assert!((1..=128).contains(&s.per_layer.len()));
        let mut seen = BTreeSet::new();
        for w in &s.workloads {
            assert!(name_ok(&w.name, 64) && seen.insert(&w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for e in &s.end_to_end {
            assert!(name_ok(&e.name, 64) && seen.insert(&e.name), "{}", e.name);
            assert!(unit_ok(&e.unit), "unit {}", e.unit);
            assert!(e.bound > 0.0 && e.bound <= 0.25, "bound of {}", e.name);
        }
        for p in &s.per_layer {
            assert!(name_ok(&p.name, 64) && seen.insert(&p.name), "{}", p.name);
            assert!(unit_ok(&p.unit), "unit {}", p.unit);
        }
    }

    #[test]
    fn setup_s_is_present_with_the_mandated_shape_and_the_largest_bound() {
        let all = &spec().end_to_end;
        let s = all.iter().find(|e| e.name == "setup_s").unwrap();
        assert_eq!((s.unit.as_str(), s.better), ("s", Better::Lower));
        assert!(all.iter().all(|e| e.bound <= s.bound));
    }

    #[test]
    fn every_note_and_layer_of_this_file_is_used_and_listed() {
        let s = spec();
        assert_eq!(s.end_to_end.len(), END_TO_END_NOTES.len());
        for (prefix, _) in MOVES {
            assert!(
                s.per_layer.iter().any(|p| p.name.starts_with(prefix)),
                "no metric of layer {prefix}"
            );
        }
        let listed = list();
        for n in (s.workloads.iter().map(|w| &w.name))
            .chain(s.end_to_end.iter().map(|e| &e.name))
            .chain(s.per_layer.iter().map(|p| &p.name))
        {
            assert!(listed.contains(n.as_str()), "--list omits {n}");
        }
    }
}
