//! From an [`Outcome`] to the numbers a run prints: the end-to-end
//! metrics, and the result line the driver reads.

use serde_json::{json, Map, Value};

use crate::spec;
use crate::stats;
use crate::workloads::Outcome;

const MIB: f64 = (1u64 << 20) as f64;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run of one workload reports.
#[derive(Debug, Clone)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub metrics: Vec<Metric>,
    /// Lines for the human reader (printed before the result line).
    pub notes: Vec<String>,
}

/// The end-to-end metrics of an untraced run, in the vocabulary's order.
/// `setup_s` and `setup_heap_allocs` come from the run's fresh set-ups.
pub fn end_to_end(
    out: &Outcome,
    setup_s: f64,
    setup_heap_allocs: u64,
) -> (Vec<Metric>, Vec<String>) {
    let ops = out.per_op_ps.len().max(1) as f64;
    let tempi_ps: u128 = out.per_op_ps.iter().map(|&p| p as u128).sum();
    let mut sorted = out.per_op_ps.clone();
    sorted.sort_unstable();
    let (pct, tail_ps) = if sorted.is_empty() {
        (50.0, 0)
    } else {
        stats::tail(&sorted)
    };
    let values = [
        ("setup_s", setup_s),
        ("setup_heap_allocs", setup_heap_allocs as f64),
        ("virt_ns_per_op", tempi_ps as f64 / 1e3 / ops),
        ("virt_tail_ns_per_op", tail_ps as f64 / 1e3),
        (
            "virt_speedup_vs_system",
            out.system_ps as f64 / tempi_ps as f64,
        ),
        ("heap_allocs_per_op", out.heap.0 as f64 / ops),
        ("heap_bytes_per_op", out.heap.1 as f64 / ops),
        ("peak_heap_mib", out.peak_heap as f64 / MIB),
        ("peak_rss_mib", out.rss_kib as f64 / 1024.0),
    ];
    let metrics = spec::spec()
        .end_to_end
        .iter()
        .map(|e| Metric {
            name: &e.name,
            value: values
                .iter()
                .find(|v| v.0 == e.name)
                .unwrap_or_else(|| panic!("no run measures `{}`", e.name))
                .1,
            unit: &e.unit,
        })
        .collect();
    let notes = vec![format!(
        "virt_tail_ns_per_op is p{pct} of {} per-op samples",
        sorted.len()
    )];
    (metrics, notes)
}

impl Report {
    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let mut metrics = Map::new();
        for m in &self.metrics {
            metrics.insert(
                m.name.to_string(),
                json!({"value": m.value, "unit": m.unit}),
            );
        }
        json!({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Value::Object(metrics),
        })
        .to_string()
    }

    /// A metric that is not a finite number cannot be reported (JSON has
    /// no NaN), and means the run measured nothing.
    pub fn check_finite(&self) -> Result<(), String> {
        match self.metrics.iter().find(|m| !m.value.is_finite()) {
            Some(m) => Err(format!("metric {} is not finite ({})", m.name, m.value)),
            None => Ok(()),
        }
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Parse a result line back (the parent of a child run does).
pub fn parse_result_line(line: &str) -> Result<Report, String> {
    let doc = serde_json::from_str(line).map_err(|e| format!("result line: {e}"))?;
    let field = |k: &str| doc.get(k).ok_or(format!("result line lacks `{k}`"));
    let metrics = field("metrics")?
        .as_object()
        .ok_or("`metrics` is not an object")?
        .iter()
        .map(|(name, m)| {
            let vocabulary = spec::spec();
            let known = (vocabulary.end_to_end.iter())
                .map(|e| (e.name.as_str(), e.unit.as_str()))
                .chain((vocabulary.per_layer.iter()).map(|p| (p.name.as_str(), p.unit.as_str())))
                .find(|(n, _)| n == name)
                .ok_or(format!("unknown metric `{name}`"))?;
            Ok(Metric {
                name: known.0,
                value: m["value"]
                    .as_f64()
                    .ok_or(format!("`{name}` has no value"))?,
                unit: known.1,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Report {
        attempted: field("attempted")?
            .as_u64()
            .ok_or("`attempted` is not a count")?,
        failed: field("failed")?.as_u64().ok_or("`failed` is not a count")?,
        correct: field("correct")?
            .as_bool()
            .ok_or("`correct` is not a bool")?,
        metrics,
        notes: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> Outcome {
        Outcome {
            attempted: 4,
            correct: true,
            per_op_ps: vec![1_000, 3_000, 2_000, 2_000],
            system_ps: 16_000,
            heap: (8, 400),
            peak_heap: 3 << 20,
            rss_kib: 2048,
            ..Outcome::default()
        }
    }

    #[test]
    fn end_to_end_follows_the_definitions() {
        let (m, notes) = end_to_end(&outcome(), 0.25, 77);
        let get = |n: &str| m.iter().find(|x| x.name == n).unwrap().value;
        assert_eq!(m.len(), spec::spec().end_to_end.len());
        assert_eq!(get("setup_s"), 0.25);
        assert_eq!(get("setup_heap_allocs"), 77.0);
        assert_eq!(get("virt_ns_per_op"), 2.0);
        assert_eq!(get("virt_tail_ns_per_op"), 2.0); // 4 samples: the median
        assert_eq!(get("virt_speedup_vs_system"), 2.0);
        assert_eq!(get("heap_allocs_per_op"), 2.0);
        assert_eq!(get("heap_bytes_per_op"), 100.0);
        assert_eq!(get("peak_heap_mib"), 3.0);
        assert_eq!(get("peak_rss_mib"), 2.0);
        assert!(notes[0].contains("p50 of 4"));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_round_trips() {
        let (metrics, notes) = end_to_end(&outcome(), 0.1234567891, 5);
        let r = Report {
            attempted: 4,
            failed: 0,
            correct: true,
            metrics,
            notes,
        };
        let line = r.result_line();
        assert!(!line.contains('\n'));
        let doc = serde_json::from_str(&line).unwrap();
        let keys: Vec<_> = doc.as_object().unwrap().keys().cloned().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(doc["metrics"]["setup_s"]["unit"].as_str(), Some("s"));
        let back = parse_result_line(&line).unwrap();
        assert_eq!(back.metrics.len(), r.metrics.len());
        for m in &r.metrics {
            assert_eq!(back.metric(m.name), Some(m.value), "{}", m.name);
        }
        assert_eq!((back.attempted, back.failed, back.correct), (4, 0, true));
    }

    #[test]
    fn a_run_that_measured_nothing_is_refused() {
        let (metrics, _) = end_to_end(&Outcome::default(), 0.1, 1);
        let r = Report {
            attempted: 0,
            failed: 0,
            correct: true,
            metrics,
            notes: vec![],
        };
        assert!(r.check_finite().is_err()); // 0 / 0 speedup
    }
}
