//! Harness spans: the benchmark's own trace, recorded around its calls
//! into each layer (spans inside the library are `tempi-trace`'s job).
//!
//! A span is a name, host start and end in ns since the recorder was
//! made, and the span that was open when it began. Spans stay in memory
//! and are written once, at exit. A span's self time is its duration minus
//! the part its children cover.

use std::time::Instant;

use serde_json::{json, Value};

/// One closed (or still open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
}

/// In-memory span recorder for one workload run.
#[derive(Debug)]
pub struct Recorder {
    workload: String,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(workload: &str) -> Recorder {
        Recorder {
            workload: workload.to_string(),
            epoch: Instant::now(),
            spans: Vec::with_capacity(256),
            open: Vec::with_capacity(8),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`, child of the span now open.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Host ns of the latest span called `name` (0 if there is none).
    pub fn last_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map_or(0, |s| s.end_ns - s.start_ns)
    }

    /// Record a span that was timed elsewhere (inside a world's rank
    /// closures, where this recorder cannot go): a child of the latest span
    /// called `parent`, at offsets from that span's start.
    pub fn add_under(&mut self, parent: &str, name: &str, from_ns: u64, to_ns: u64) {
        let Some(p) = self.spans.iter().rposition(|s| s.name == parent) else {
            return;
        };
        let base = self.spans[p].start_ns;
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: base + from_ns,
            end_ns: base + to_ns.max(from_ns),
            parent: Some(p),
        });
    }

    /// The spans as one JSON document: workload id, then per span its
    /// name, start, end, parent index and self time.
    pub fn to_json(&self) -> Value {
        let selfs = self_times(&self.spans);
        let spans: Vec<Value> = self
            .spans
            .iter()
            .zip(&selfs)
            .enumerate()
            .map(|(id, (s, self_ns))| {
                json!({
                    "id": id,
                    "name": s.name,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "parent": s.parent,
                    "self_ns": self_ns,
                })
            })
            .collect();
        json!({"workload": self.workload, "clock": "host_ns", "spans": spans})
    }
}

/// Self time of every span: its duration minus the union of the intervals
/// its direct children cover (children of one parent may overlap when they
/// were recorded on different lanes).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            kids[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(kids.iter_mut())
        .map(|(s, ivs)| {
            ivs.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in ivs.iter() {
                let a = a.max(reach);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            sp("run", 0, 100, None),
            sp("setup", 10, 30, Some(0)),
            sp("timed", 40, 90, Some(0)),
            sp("op", 50, 60, Some(2)),
            // overlaps "timed": only the part not already covered counts
            sp("probe", 80, 95, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 20 - 50 - 5, 20, 40, 10, 15]);
    }

    #[test]
    fn recorder_nests_and_serialises() {
        let mut r = Recorder::new("w");
        r.span("outer", |r| {
            r.span("inner", |_| ());
        });
        let s = &r.spans;
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        r.add_under("outer", "marked", 5, 9);
        let marked = r.spans.last().unwrap();
        assert_eq!(marked.parent, Some(0));
        assert_eq!(marked.end_ns - marked.start_ns, 4);
        r.add_under("absent", "dropped", 0, 1);
        assert_eq!(r.spans.len(), 3);
        let doc = r.to_json();
        assert_eq!(doc["workload"].as_str(), Some("w"));
        assert_eq!(doc["spans"][1]["parent"].as_u64(), Some(0));
        assert_eq!(doc["spans"][0]["parent"], serde_json::Value::Null);
    }
}
