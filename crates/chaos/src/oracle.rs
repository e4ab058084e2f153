//! Invariant oracles: the properties every chaos run must hold.
//!
//! The engine collects one [`RankReport`] per rank plus the shared trace
//! buffer, and the oracles turn those into [`Violation`]s. Oracles are
//! deliberately symptom-oriented — each names *what* broke ("bytes
//! diverged from the serial oracle"), never *why*; the why is the
//! shrinker's and the human's job.

use tempi_trace::json::{self, FromJson, ToJson, Value};
use tempi_trace::{EventPhase, TraceEvent};

/// One invariant failure, serializable so a corpus entry can record the
/// symptom a committed reproducer is expected to reproduce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The oracle that fired (one of the [`oracle`] name constants).
    pub oracle: String,
    /// The world rank the violation was observed on, if rank-local.
    pub rank: Option<usize>,
    /// Human-readable symptom.
    pub detail: String,
}

impl ToJson for Violation {
    fn to_json(&self) -> Value {
        Value::object([
            ("oracle", self.oracle.to_json()),
            ("rank", self.rank.to_json()),
            ("detail", self.detail.to_json()),
        ])
    }
}

impl FromJson for Violation {
    fn from_json(v: &Value) -> Result<Violation, json::Error> {
        Ok(Violation {
            oracle: v.field("oracle")?,
            rank: v.field_or_default("rank")?,
            detail: v.field_or_default("detail")?,
        })
    }
}

impl Violation {
    /// Construct a rank-local violation.
    pub fn on_rank(oracle: &str, rank: usize, detail: impl Into<String>) -> Violation {
        Violation {
            oracle: oracle.to_string(),
            rank: Some(rank),
            detail: detail.into(),
        }
    }

    /// Construct a world-global violation.
    pub fn global(oracle: &str, detail: impl Into<String>) -> Violation {
        Violation {
            oracle: oracle.to_string(),
            rank: None,
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.rank {
            Some(r) => write!(f, "[{}] rank {}: {}", self.oracle, r, self.detail),
            None => write!(f, "[{}] {}", self.oracle, self.detail),
        }
    }
}

/// Oracle name constants — the stable vocabulary corpus entries match on.
/// Named after its parent on purpose: call sites read `oracle::BYTE_EXACT`.
#[allow(clippy::module_inception)]
pub mod oracle {
    /// Payload bytes must equal the communication-free serial oracle.
    pub const BYTE_EXACT: &str = "byte-exactness";
    /// No run may quiesce with pending operations (deadlock verdict).
    pub const NO_HANG: &str = "no-hang";
    /// Every rank not scheduled to die must finish without an error.
    pub const NO_UNEXPECTED_ERROR: &str = "no-unexpected-error";
    /// Trace spans must balance: every `Begin` has its `End`, depth never
    /// goes negative, no lane ends mid-span.
    pub const SPAN_BALANCE: &str = "span-balance";
    /// ULFM epochs only move forward, and survivors agree on the final
    /// epoch.
    pub const EPOCH_MONOTONE: &str = "epoch-monotone";
    /// At teardown nothing is leaked: no outstanding pooled buffers, no
    /// live device allocations.
    pub const NO_LEAK: &str = "no-leak";
    /// The harness itself must complete (a failure here is a simulator
    /// bug, not an application one).
    pub const HARNESS: &str = "harness";
}

/// What one rank's workload closure observed, collected at teardown.
///
/// The closure never returns `Err` — a rank error would tear down the
/// whole `World::run` and hide every other rank's evidence — so
/// everything the oracles need is folded into this report instead.
#[derive(Debug, Clone, Default)]
pub struct RankReport {
    /// World rank.
    pub rank: usize,
    /// This rank had a scheduled death and observed it (self `PeerGone`).
    pub died: bool,
    /// Terminal error text, if the workload ended in an error.
    pub error: Option<String>,
    /// The terminal error was a deadlock verdict.
    pub deadlock: bool,
    /// First byte-exactness mismatch, if any.
    pub bytes_mismatch: Option<String>,
    /// Epoch observations in program order (at least start and end).
    pub epochs: Vec<u64>,
    /// `BufferPool::outstanding()` at teardown.
    pub pool_outstanding: u64,
    /// Live device/host allocations at teardown (after workload cleanup).
    pub live_allocations: usize,
}

/// Run every oracle over the per-rank reports and the trace buffer.
///
/// `events` is the shared trace of the whole world (empty slice when
/// tracing was off — the span oracle then vacuously holds).
pub fn check_all(reports: &[RankReport], events: &[TraceEvent]) -> Vec<Violation> {
    let mut v = Vec::new();
    check_ranks(reports, &mut v);
    check_epochs(reports, &mut v);
    check_spans(events, &mut v);
    v
}

/// Rank-local oracles: hang, unexpected error, byte-exactness, leaks.
fn check_ranks(reports: &[RankReport], out: &mut Vec<Violation>) {
    for r in reports {
        if r.deadlock {
            out.push(Violation::on_rank(
                oracle::NO_HANG,
                r.rank,
                r.error.clone().unwrap_or_default(),
            ));
            continue;
        }
        if let Some(m) = &r.bytes_mismatch {
            out.push(Violation::on_rank(oracle::BYTE_EXACT, r.rank, m.clone()));
        }
        if let Some(e) = &r.error {
            if !r.died {
                out.push(Violation::on_rank(
                    oracle::NO_UNEXPECTED_ERROR,
                    r.rank,
                    e.clone(),
                ));
            }
        }
        // Leak accounting only applies to ranks that completed cleanly:
        // a dying or erroring rank abandons state by design (ULFM keeps
        // its *peers* consistent, not its corpse).
        if !r.died && r.error.is_none() {
            if r.pool_outstanding != 0 {
                out.push(Violation::on_rank(
                    oracle::NO_LEAK,
                    r.rank,
                    format!("{} pooled buffers never returned", r.pool_outstanding),
                ));
            }
            if r.live_allocations != 0 {
                out.push(Violation::on_rank(
                    oracle::NO_LEAK,
                    r.rank,
                    format!("{} device allocations live at teardown", r.live_allocations),
                ));
            }
        }
    }
}

/// Epoch oracle: per-rank monotone, and all clean survivors agree on the
/// final epoch (an agreement that shrank the world on some ranks but not
/// others would split the communicator silently).
fn check_epochs(reports: &[RankReport], out: &mut Vec<Violation>) {
    for r in reports {
        if r.epochs.windows(2).any(|w| w[0] > w[1]) {
            out.push(Violation::on_rank(
                oracle::EPOCH_MONOTONE,
                r.rank,
                format!("epoch went backwards: {:?}", r.epochs),
            ));
        }
    }
    let finals: Vec<(usize, u64)> = reports
        .iter()
        .filter(|r| !r.died && r.error.is_none() && !r.deadlock)
        .filter_map(|r| r.epochs.last().map(|&e| (r.rank, e)))
        .collect();
    if let Some(&(_, first)) = finals.first() {
        if finals.iter().any(|&(_, e)| e != first) {
            out.push(Violation::global(
                oracle::EPOCH_MONOTONE,
                format!("survivors disagree on the final epoch: {finals:?}"),
            ));
        }
    }
}

/// Span-balance oracle over the shared trace buffer.
///
/// Per `(pid, tid)` lane, `Begin` pushes and `End` pops; an `End` with
/// nothing open or a lane left open at the end of the run is a violation.
/// `with_span` closes its span on the error path too, so even a rank
/// that died mid-operation must balance.
fn check_spans(events: &[TraceEvent], out: &mut Vec<Violation>) {
    use std::collections::BTreeMap;
    let mut depth: BTreeMap<(u32, u32), i64> = BTreeMap::new();
    for ev in events {
        let d = depth.entry((ev.pid, ev.tid)).or_insert(0);
        match ev.ph {
            EventPhase::Begin => *d += 1,
            EventPhase::End => {
                *d -= 1;
                if *d < 0 {
                    out.push(Violation::on_rank(
                        oracle::SPAN_BALANCE,
                        ev.pid as usize,
                        format!("End with no open span on lane {}", ev.tid),
                    ));
                    return;
                }
            }
            EventPhase::Complete | EventPhase::Instant => {}
        }
    }
    for ((pid, tid), d) in depth {
        if d != 0 {
            out.push(Violation::on_rank(
                oracle::SPAN_BALANCE,
                pid as usize,
                format!("{d} span(s) left open on lane {tid}"),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempi_trace::{TraceLevel, Tracer, LANE_CPU};

    fn clean(rank: usize) -> RankReport {
        RankReport {
            rank,
            epochs: vec![0, 0],
            ..RankReport::default()
        }
    }

    #[test]
    fn clean_reports_pass_every_oracle() {
        let reports: Vec<RankReport> = (0..4).map(clean).collect();
        assert!(check_all(&reports, &[]).is_empty());
    }

    #[test]
    fn each_symptom_maps_to_its_oracle() {
        let mut deadlocked = clean(0);
        deadlocked.deadlock = true;
        deadlocked.error = Some("deadlock: 4 ranks stuck".into());
        let mut corrupt = clean(1);
        corrupt.bytes_mismatch = Some("byte 17 differs".into());
        let mut errored = clean(2);
        errored.error = Some("send failed".into());
        let mut leaky = clean(3);
        leaky.pool_outstanding = 2;
        let v = check_all(&[deadlocked, corrupt, errored, leaky], &[]);
        let names: Vec<&str> = v.iter().map(|x| x.oracle.as_str()).collect();
        assert_eq!(
            names,
            vec![
                oracle::NO_HANG,
                oracle::BYTE_EXACT,
                oracle::NO_UNEXPECTED_ERROR,
                oracle::NO_LEAK
            ]
        );
    }

    #[test]
    fn dead_ranks_are_exempt_from_error_and_leak_oracles() {
        let mut dead = clean(1);
        dead.died = true;
        dead.error = Some("peer gone".into());
        dead.pool_outstanding = 3;
        dead.live_allocations = 7;
        assert!(check_all(&[clean(0), dead], &[]).is_empty());
    }

    #[test]
    fn epoch_regression_and_divergence_are_caught() {
        let mut back = clean(0);
        back.epochs = vec![1, 0];
        let v = check_all(&[back], &[]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].oracle, oracle::EPOCH_MONOTONE);

        let mut a = clean(0);
        a.epochs = vec![0, 1];
        let b = clean(1); // final epoch 0
        let v = check_all(&[a, b], &[]);
        assert_eq!(v.len(), 1);
        assert!(v[0].rank.is_none(), "divergence is a global violation");
    }

    #[test]
    fn unbalanced_spans_are_caught() {
        let t = Tracer::new(TraceLevel::Spans);
        t.begin(0, LANE_CPU, "test", "outer", 0);
        t.begin(0, LANE_CPU, "test", "inner", 10);
        t.end(0, LANE_CPU, 20);
        // "outer" never ends
        let v = check_all(&[], &t.events());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].oracle, oracle::SPAN_BALANCE);
        assert_eq!(v[0].rank, Some(0));
    }

    #[test]
    fn balanced_spans_pass() {
        let t = Tracer::new(TraceLevel::Spans);
        for rank in 0..3u32 {
            t.begin(rank, LANE_CPU, "test", "op", 0);
            t.end(rank, LANE_CPU, 5);
        }
        assert!(check_all(&[], &t.events()).is_empty());
    }
}
