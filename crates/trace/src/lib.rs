//! Structured tracing and metrics for the TEMPI stack.
//!
//! Every layer of the reproduction — the simulated GPU runtime, the
//! simulated MPI world, the TEMPI interposer, and the stencil application —
//! emits into one shared schema defined here:
//!
//! * **Spans** (begin/end pairs on a rank's CPU lane, complete events on
//!   its GPU lane) stamped in *virtual* time, so a trace decomposes exactly
//!   the same `T_device`/`T_oneshot` phases the paper's model prices:
//!   translate → canonicalize → kernel select at commit, and
//!   pack → copy → wire → unpack per send.
//! * **Instants** for point decisions (tuner choices, pool traffic,
//!   recovery transitions).
//! * A typed **metrics registry** (counters, gauges, log2-bucket
//!   histograms) that library layers publish their counters into at export
//!   time.
//!
//! Exporters: Chrome `trace_event` JSON (load in `chrome://tracing` or
//! Perfetto; one process per rank, one thread lane per CPU/GPU timeline)
//! and a compact JSONL metrics dump.
//!
//! # Zero overhead when off
//!
//! A [`Tracer`] is an `Option<Arc<..>>`. The disabled tracer ([`Tracer::off`],
//! also `Default`) is `None`: every recording call starts with one branch on
//! that option and returns immediately — no allocation, no formatting, no
//! lock. Event names and argument lists are only materialized *after* the
//! enabled check, so the hot send path keeps its zero-allocation
//! steady-state property with tracing compiled in (asserted by tempi-core's
//! `steady_state_sends_allocate_nothing_with_a_tracer_attached_or_not`).
//!
//! Timestamps are raw picosecond counts (`u64`), the same unit as the
//! simulator's `SimTime`, keeping this crate dependency-free of the
//! simulation layers so every crate in the workspace can emit into it.
//!
//! As the bottom crate it also holds the two things every layer would
//! otherwise take from a registry: [`json`] (the one `Value` tree, writer
//! and parser behind every exported or persisted file) and [`sync`] (the
//! non-poisoning locks over `std::sync`).

#![warn(missing_docs)]

mod chrome;
pub mod json;
mod metrics;
pub mod sync;

pub use chrome::chrome_trace_json;
pub use metrics::{Histogram, MetricsRegistry};

use std::sync::Arc;

use sync::Mutex;

/// Lane (Chrome `tid`) for a rank's CPU/MPI timeline.
pub const LANE_CPU: u32 = 0;
/// Lane (Chrome `tid`) for a rank's GPU stream / copy-engine timeline.
pub const LANE_GPU: u32 = 1;

/// How much the tracer records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceLevel {
    /// Record nothing; every tracer call is a single branch.
    #[default]
    Off,
    /// Record spans (begin/end and GPU complete events) only.
    Spans,
    /// Record spans plus point instants (tuner decisions, pool traffic,
    /// wire departures) and live metrics.
    Full,
}

impl TraceLevel {
    /// Parse a `TEMPI_TRACE` value: `off`, `spans` or `full`.
    pub fn parse(s: &str) -> Result<TraceLevel, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "" | "off" | "0" | "none" => Ok(TraceLevel::Off),
            "spans" | "1" => Ok(TraceLevel::Spans),
            "full" | "2" => Ok(TraceLevel::Full),
            other => Err(format!(
                "TEMPI_TRACE: unknown level {other:?} (expected off, spans or full)"
            )),
        }
    }

    /// Read the level from the `TEMPI_TRACE` environment variable
    /// (unset means [`TraceLevel::Off`]).
    pub fn from_env() -> Result<TraceLevel, String> {
        match std::env::var("TEMPI_TRACE") {
            Ok(v) => TraceLevel::parse(&v),
            Err(_) => Ok(TraceLevel::Off),
        }
    }
}

/// One typed argument value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// A string argument (e.g. the chosen send method).
    Str(String),
    /// An unsigned integer argument (byte counts, epochs, ordinals).
    U64(u64),
    /// A float argument (ratios, times in derived units).
    F64(f64),
    /// A boolean argument (probe vs memo, hit vs miss).
    Bool(bool),
}

impl From<&str> for ArgValue {
    fn from(s: &str) -> Self {
        ArgValue::Str(s.to_string())
    }
}
impl From<String> for ArgValue {
    fn from(s: String) -> Self {
        ArgValue::Str(s)
    }
}
impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}
impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}
impl From<u32> for ArgValue {
    fn from(v: u32) -> Self {
        ArgValue::U64(v as u64)
    }
}
impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}
impl From<bool> for ArgValue {
    fn from(v: bool) -> Self {
        ArgValue::Bool(v)
    }
}

/// Argument list type produced by the `args` closures.
pub type Args = Vec<(&'static str, ArgValue)>;

/// The Chrome `trace_event` phase of a recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventPhase {
    /// Span open (`"B"`).
    Begin,
    /// Span close (`"E"`). Pairs with the innermost open `Begin` on the
    /// same `(pid, tid)` lane.
    End,
    /// Complete event (`"X"`): a span with a known duration, used for the
    /// GPU lane where start and duration are known at submit time.
    Complete,
    /// Instant event (`"i"`).
    Instant,
}

/// One recorded trace event, in virtual picoseconds.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Phase (begin / end / complete / instant).
    pub ph: EventPhase,
    /// Process lane: the MPI *world* rank.
    pub pid: u32,
    /// Thread lane within the rank: [`LANE_CPU`] or [`LANE_GPU`].
    pub tid: u32,
    /// Category (e.g. `tempi`, `mpi`, `gpu`, `stencil`).
    pub cat: &'static str,
    /// Event name (empty for `End` events; Chrome matches by nesting).
    pub name: String,
    /// Virtual timestamp in picoseconds (start, for `Complete`).
    pub ts_ps: u64,
    /// Duration in picoseconds (`Complete` events only, else 0).
    pub dur_ps: u64,
    /// Typed arguments.
    pub args: Args,
}

#[derive(Debug)]
struct Shared {
    level: TraceLevel,
    events: Mutex<Vec<TraceEvent>>,
    metrics: Mutex<MetricsRegistry>,
}

/// Handle used by every instrumented layer to record events and metrics.
///
/// Cheap to clone (it is an `Option<Arc<..>>`); the disabled tracer is
/// `None` and records nothing. All clones of one enabled tracer share a
/// single event buffer and metrics registry, so a multi-rank world traced
/// with one tracer exports one coherent file.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Shared>>,
}

impl Tracer {
    /// The disabled tracer: records nothing, costs one branch per call.
    pub fn off() -> Tracer {
        Tracer { inner: None }
    }

    /// A tracer recording at `level` ([`TraceLevel::Off`] yields the
    /// disabled tracer).
    pub fn new(level: TraceLevel) -> Tracer {
        match level {
            TraceLevel::Off => Tracer::off(),
            _ => Tracer {
                inner: Some(Arc::new(Shared {
                    level,
                    events: Mutex::new(Vec::new()),
                    metrics: Mutex::new(MetricsRegistry::new()),
                })),
            },
        }
    }

    /// A tracer configured from `TEMPI_TRACE` (errors on an unknown level).
    pub fn from_env() -> Result<Tracer, String> {
        Ok(Tracer::new(TraceLevel::from_env()?))
    }

    /// Is any recording active?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Is verbose recording (instants + live metrics) active?
    #[inline]
    pub fn full(&self) -> bool {
        matches!(&self.inner, Some(s) if s.level == TraceLevel::Full)
    }

    /// The active level.
    pub fn level(&self) -> TraceLevel {
        self.inner.as_ref().map_or(TraceLevel::Off, |s| s.level)
    }

    fn push(&self, ev: TraceEvent) {
        if let Some(s) = &self.inner {
            s.events.lock().push(ev);
        }
    }

    /// Open a span on `(pid, tid)` at virtual instant `ts_ps`.
    #[inline]
    pub fn begin(&self, pid: u32, tid: u32, cat: &'static str, name: &str, ts_ps: u64) {
        if self.inner.is_none() {
            return;
        }
        self.push(TraceEvent {
            ph: EventPhase::Begin,
            pid,
            tid,
            cat,
            name: name.to_string(),
            ts_ps,
            dur_ps: 0,
            args: Vec::new(),
        });
    }

    /// Close the innermost open span on `(pid, tid)` at `ts_ps`.
    #[inline]
    pub fn end(&self, pid: u32, tid: u32, ts_ps: u64) {
        if self.inner.is_none() {
            return;
        }
        self.push(TraceEvent {
            ph: EventPhase::End,
            pid,
            tid,
            cat: "",
            name: String::new(),
            ts_ps,
            dur_ps: 0,
            args: Vec::new(),
        });
    }

    /// Close the innermost open span with arguments; the `args` closure
    /// runs only when recording is active.
    #[inline]
    pub fn end_args(&self, pid: u32, tid: u32, ts_ps: u64, args: impl FnOnce() -> Args) {
        if self.inner.is_none() {
            return;
        }
        self.push(TraceEvent {
            ph: EventPhase::End,
            pid,
            tid,
            cat: "",
            name: String::new(),
            ts_ps,
            dur_ps: 0,
            args: args(),
        });
    }

    /// Record a complete (`X`) event: a span whose start and duration are
    /// known at record time — the shape of GPU-lane work, where the stream
    /// model computes both at submit. The `args` closure runs only when
    /// recording is active.
    ///
    /// The parameter list mirrors the Chrome `trace_event` field set
    /// one-to-one; bundling them into a struct would just move the same
    /// seven names one level down at every call site.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn complete(
        &self,
        pid: u32,
        tid: u32,
        cat: &'static str,
        name: &str,
        ts_ps: u64,
        dur_ps: u64,
        args: impl FnOnce() -> Args,
    ) {
        if self.inner.is_none() {
            return;
        }
        self.push(TraceEvent {
            ph: EventPhase::Complete,
            pid,
            tid,
            cat,
            name: name.to_string(),
            ts_ps,
            dur_ps,
            args: args(),
        });
    }

    /// Record an instant event (visible from [`TraceLevel::Spans`] up):
    /// rare point transitions such as communicator recovery.
    #[inline]
    pub fn instant(
        &self,
        pid: u32,
        tid: u32,
        cat: &'static str,
        name: &str,
        ts_ps: u64,
        args: impl FnOnce() -> Args,
    ) {
        if self.inner.is_none() {
            return;
        }
        self.push(TraceEvent {
            ph: EventPhase::Instant,
            pid,
            tid,
            cat,
            name: name.to_string(),
            ts_ps,
            dur_ps: 0,
            args: args(),
        });
    }

    /// Record a verbose instant (only at [`TraceLevel::Full`]): per-call
    /// detail such as tuner decisions, pool takes and wire departures.
    #[inline]
    pub fn debug_instant(
        &self,
        pid: u32,
        tid: u32,
        cat: &'static str,
        name: &str,
        ts_ps: u64,
        args: impl FnOnce() -> Args,
    ) {
        if !self.full() {
            return;
        }
        self.push(TraceEvent {
            ph: EventPhase::Instant,
            pid,
            tid,
            cat,
            name: name.to_string(),
            ts_ps,
            dur_ps: 0,
            args: args(),
        });
    }

    // ---- metrics --------------------------------------------------------

    /// Add `delta` to the named counter (no-op when off).
    #[inline]
    pub fn count(&self, name: &'static str, delta: u64) {
        if let Some(s) = &self.inner {
            s.metrics.lock().count(name, delta);
        }
    }

    /// Set the named gauge (no-op when off).
    #[inline]
    pub fn gauge(&self, name: &'static str, value: f64) {
        if let Some(s) = &self.inner {
            s.metrics.lock().gauge(name, value);
        }
    }

    /// Record one observation into the named log2-bucket histogram
    /// (no-op when off).
    #[inline]
    pub fn observe(&self, name: &'static str, value: u64) {
        if let Some(s) = &self.inner {
            s.metrics.lock().observe(name, value);
        }
    }

    // ---- export ---------------------------------------------------------

    /// Snapshot of all recorded events (empty when off).
    pub fn events(&self) -> Vec<TraceEvent> {
        match &self.inner {
            Some(s) => s.events.lock().clone(),
            None => Vec::new(),
        }
    }

    /// Number of recorded events (0 when off).
    pub fn event_count(&self) -> usize {
        self.inner.as_ref().map_or(0, |s| s.events.lock().len())
    }

    /// Snapshot of the metrics registry (empty when off).
    pub fn metrics(&self) -> MetricsRegistry {
        match &self.inner {
            Some(s) => s.metrics.lock().clone(),
            None => MetricsRegistry::new(),
        }
    }

    /// Render the recorded events as a Chrome `trace_event` JSON document.
    pub fn chrome_trace(&self) -> String {
        chrome_trace_json(&self.events())
    }

    /// Render the metrics registry as compact JSONL (one metric per line).
    pub fn metrics_jsonl(&self) -> String {
        self.metrics().to_jsonl()
    }

    /// Write the Chrome trace to `path`.
    pub fn write_chrome_trace(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.chrome_trace())
    }

    /// Write the JSONL metrics dump to `path`.
    pub fn write_metrics_jsonl(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.metrics_jsonl())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_records_nothing() {
        let t = Tracer::off();
        assert!(!t.enabled());
        t.begin(0, LANE_CPU, "tempi", "MPI_Send", 100);
        t.end(0, LANE_CPU, 200);
        t.complete(0, LANE_GPU, "gpu", "pack", 100, 50, Vec::new);
        t.instant(0, LANE_CPU, "mpi", "revoke", 150, Vec::new);
        t.count("sends", 1);
        t.observe("bytes", 4096);
        assert_eq!(t.event_count(), 0);
        assert!(t.events().is_empty());
        assert!(t.metrics().is_empty());
    }

    #[test]
    fn spans_level_skips_debug_instants() {
        let t = Tracer::new(TraceLevel::Spans);
        t.begin(0, LANE_CPU, "tempi", "MPI_Send", 100);
        t.debug_instant(0, LANE_CPU, "tempi", "tuner.decide", 120, Vec::new);
        t.instant(0, LANE_CPU, "mpi", "comm.revoke", 130, Vec::new);
        t.end(0, LANE_CPU, 200);
        let evs = t.events();
        assert_eq!(evs.len(), 3);
        assert!(evs.iter().all(|e| e.name != "tuner.decide"));
        assert!(evs.iter().any(|e| e.name == "comm.revoke"));
    }

    #[test]
    fn full_level_records_debug_instants_and_args() {
        let t = Tracer::new(TraceLevel::Full);
        t.debug_instant(3, LANE_CPU, "tempi", "tuner.decide", 42, || {
            vec![("method", "Device".into()), ("probe", true.into())]
        });
        let evs = t.events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].pid, 3);
        assert_eq!(evs[0].args[0], ("method", ArgValue::Str("Device".into())));
        assert_eq!(evs[0].args[1], ("probe", ArgValue::Bool(true)));
    }

    #[test]
    fn clones_share_one_buffer() {
        let t = Tracer::new(TraceLevel::Spans);
        let t2 = t.clone();
        t.begin(0, LANE_CPU, "a", "x", 1);
        t2.end(0, LANE_CPU, 2);
        assert_eq!(t.event_count(), 2);
        assert_eq!(t2.event_count(), 2);
    }

    #[test]
    fn level_parse_accepts_documented_values() {
        assert_eq!(TraceLevel::parse("off").unwrap(), TraceLevel::Off);
        assert_eq!(TraceLevel::parse("Spans").unwrap(), TraceLevel::Spans);
        assert_eq!(TraceLevel::parse(" full ").unwrap(), TraceLevel::Full);
        let err = TraceLevel::parse("loud").unwrap_err();
        assert!(err.contains("TEMPI_TRACE"), "{err}");
    }
}
