//! Typed metrics: counters, gauges, and fixed log2-bucket histograms.
//!
//! The registry subsumes the ad-hoc counter structs the library layers keep
//! for their own hot paths (`TempiStats`, `StreamStats`, fault statistics):
//! those stay plain fields — no atomics, no locks on the hot path — and are
//! *published* into a registry snapshot at export time.

use std::collections::BTreeMap;

use crate::json::{ToJson, Value};

/// A histogram over `u64` observations with one bucket per power of two.
///
/// Bucket `i` counts observations `v` with `2^(i-1) < v <= 2^i` (bucket 0
/// counts zeros and ones). 64 buckets cover the whole `u64` range — enough
/// for byte counts and picosecond durations alike — and the fixed layout
/// means merging and diffing histograms needs no bucket negotiation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Total number of observations.
    pub count: u64,
    /// Sum of all observations (saturating).
    pub sum: u64,
    /// Fixed log2 buckets; `buckets[i]` counts values in `(2^(i-1), 2^i]`.
    pub buckets: [u64; 64],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            buckets: [0; 64],
        }
    }
}

impl Histogram {
    /// Bucket index for a value: 0 for 0 and 1, else `ceil(log2(v))`.
    pub fn bucket_index(v: u64) -> usize {
        if v <= 1 {
            0
        } else {
            (64 - (v - 1).leading_zeros() as usize).min(63)
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.buckets[Self::bucket_index(v)] += 1;
    }

    /// Mean observation, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A named collection of counters, gauges and histograms. Names are
/// `'static`, as every [`Tracer`](crate::Tracer) hook takes them, so a
/// metric that exists records without the heap.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    /// Boxed: a traced rank observes on its fiber stack, and inserting a
    /// 528-byte histogram by value would cost every caller's frame its
    /// copies.
    histograms: BTreeMap<&'static str, Box<Histogram>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Add `delta` to the named counter (created at zero).
    pub fn count(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Set the named gauge to `value`.
    pub fn gauge(&mut self, name: &'static str, value: f64) {
        self.gauges.insert(name, value);
    }

    /// Record one observation into the named histogram.
    pub fn observe(&mut self, name: &'static str, value: u64) {
        self.histograms.entry(name).or_default().observe(value);
    }

    /// The named counter's value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named gauge's value, if set.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The named histogram, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name).map(|h| &**h)
    }

    /// Render as compact JSONL: one metric per line, sorted by name within
    /// each kind so dumps diff cleanly. Histogram buckets are emitted
    /// sparsely as `[upper_bound, count]` pairs.
    pub fn to_jsonl(&self) -> String {
        let scalar = |kind: &str, name: &str, value: Value| {
            Value::object([
                ("kind", kind.to_json()),
                ("name", name.to_json()),
                ("value", value),
            ])
        };
        let counters = self
            .counters
            .iter()
            .map(|(name, v)| scalar("counter", name, v.to_json()));
        let gauges = self
            .gauges
            .iter()
            .map(|(name, v)| scalar("gauge", name, v.to_json()));
        let histograms = self.histograms.iter().map(|(name, h)| {
            let buckets: Vec<Value> = h
                .buckets
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(i, &c)| [(1u128 << i).min(u64::MAX as u128) as u64, c].to_json())
                .collect();
            Value::object([
                ("buckets", Value::Array(buckets)),
                ("count", h.count.to_json()),
                ("kind", "histogram".to_json()),
                ("name", name.to_json()),
                ("sum", h.sum.to_json()),
            ])
        });
        counters
            .chain(gauges)
            .chain(histograms)
            .map(|line| format!("{line}\n"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 0);
        assert_eq!(Histogram::bucket_index(2), 1);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 2);
        assert_eq!(Histogram::bucket_index(5), 3);
        assert_eq!(Histogram::bucket_index(1024), 10);
        assert_eq!(Histogram::bucket_index(1025), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), 63);
    }

    #[test]
    fn histogram_counts_and_sums() {
        let mut h = Histogram::default();
        for v in [1u64, 2, 3, 4, 1024] {
            h.observe(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 1034);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[2], 2);
        assert_eq!(h.buckets[10], 1);
        assert!((h.mean() - 206.8).abs() < 1e-9);
    }

    #[test]
    fn registry_round_trips_to_jsonl() {
        let mut r = MetricsRegistry::new();
        r.count("tempi.sends", 3);
        r.count("tempi.sends", 2);
        r.gauge("pool.reuse_rate", 0.95);
        r.observe("send.bytes", 4096);
        assert_eq!(r.counter("tempi.sends"), 5);
        assert_eq!(r.gauge_value("pool.reuse_rate"), Some(0.95));
        assert_eq!(r.histogram("send.bytes").unwrap().count, 1);

        let jsonl = r.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            let v = crate::json::parse(line).unwrap();
            assert!(v.get("kind").is_some() && v.get("name").is_some());
        }
        let hist = crate::json::parse(lines[2]).unwrap();
        assert_eq!(hist["kind"], "histogram");
        assert_eq!(hist["buckets"][0][0], 4096);
        assert_eq!(hist["buckets"][0][1], 1);
    }
}
