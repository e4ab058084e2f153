//! The six workloads and what they share: how a run is described
//! ([`Exec`]), what it yields ([`Outcome`]), and the bookkeeping a rank
//! closure uses to take host-side marks from inside a world.
//!
//! Every workload is one `execute` function that sets up, warms up, runs
//! the timed phase over a generated op list, then — outside all heap and
//! host accounting — runs the system-MPI pass and the byte oracles. With
//! an empty op list it stops after set-up: that is a *fresh set-up*, the
//! unit `setup_s` samples.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;

use gpu_sim::StreamStats;
use mpi_sim::WorldConfig;
use tempi_core::{PlanKind, TempiConfig, TempiStats, TraceLevel, Tracer, TypePlan};

use crate::alloc::Snapshot;
use crate::gen::{Op, Rng};
use crate::hygiene;
use crate::objects::Recipe;

pub mod alltoallv_dense;
pub mod commit_churn;
pub mod halo_scale;
pub mod pack_zoo;
pub mod send;

/// One execution of a workload.
pub struct Exec<'a> {
    /// Drives buffer contents and `TempiConfig::tuner_seed`.
    pub seed: u64,
    /// The timed phase; empty means "set up, then stop".
    pub ops: &'a [Op],
    /// The library tracer to attach (`None`: tracing off, the measured
    /// configuration).
    pub tracer: Option<Tracer>,
}

impl Exec<'_> {
    pub fn traced(&self) -> bool {
        self.tracer.is_some()
    }

    /// The system under test: what a user gets with no knob set, on the
    /// Summit profile, with the scheduler forced to one worker (the
    /// default, `available_parallelism`, would make counts depend on the
    /// machine).
    pub fn world(&self, ranks: usize) -> WorldConfig {
        let cfg = WorldConfig::summit(ranks).with_sched_workers(1);
        match &self.tracer {
            Some(t) => cfg.with_tracer(t.clone()),
            None => cfg,
        }
    }

    pub fn tempi_config(&self) -> TempiConfig {
        TempiConfig {
            tuner_seed: Rng::new(self.seed ^ 0x7475_6e65).next_u64(),
            ..TempiConfig::default()
        }
    }
}

/// Counter differences across the timed phase, summed over ranks: the raw
/// material of the deterministic per-layer metrics.
#[derive(Debug, Clone, Default)]
pub struct Facts {
    pub stats: StatsDelta,
    pub stream: StreamDelta,
    /// The committed plans the workload read.
    pub plans: PlanSums,
    /// Equivalent constructions that did not commit to equal plans.
    pub plan_mismatches: u64,
    /// Data bytes the timed phase packed / unpacked through TEMPI.
    pub packed_bytes: u64,
    pub unpacked_bytes: u64,
    /// `MPI_Send` calls in the timed phase (0 for non-send workloads).
    pub sends: u64,
    /// Sums of `ExchangeTiming` over ranks and ops, and how many.
    pub exchange_ps: [u128; 3],
    pub exchanges: u64,
    /// Index into the tracer's event buffer where the timed phase began
    /// and ended.
    pub events: (usize, usize),
    /// Per-layer metrics a workload computes itself (by their spec name).
    pub extra: Vec<(&'static str, f64)>,
}

/// Sums over committed plans: their `CommitReport` fields, and the kernel
/// word size of the strided ones.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanSums {
    pub plans: u64,
    pub nodes_before: u64,
    pub nodes_after: u64,
    pub simplify_passes: u64,
    pub introspection_calls: u64,
    pub word_sum: u64,
    pub strided: u64,
}

impl PlanSums {
    /// Allocates nothing: it is called inside timed phases.
    pub fn add(&mut self, plan: &TypePlan) {
        let r = &plan.report;
        self.plans += 1;
        self.nodes_before += r.nodes_before as u64;
        self.nodes_after += r.nodes_after as u64;
        self.simplify_passes += r.simplify_passes as u64;
        self.introspection_calls += r.introspection_calls;
        if let PlanKind::Strided(kp) = &plan.kind {
            self.word_sum += kp.word as u64;
            self.strided += 1;
        }
    }
}

/// The recipes whose plan differs from the first recipe of their group:
/// equivalent constructions must commit to equal plans, the paper's
/// central claim.
pub fn plan_mismatches(recipes: &[Recipe], kinds: &[PlanKind]) -> Vec<usize> {
    (0..recipes.len())
        .filter(|&i| {
            let group = recipes[i].group;
            let first = recipes
                .iter()
                .position(|o| group.is_some() && o.group == group);
            first.is_some_and(|j| kinds[i] != kinds[j])
        })
        .collect()
}

/// The `TempiStats` fields the ledger uses, as a difference.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsDelta {
    pub commits: u64,
    pub commit_cache_hits: u64,
    pub device_sends: u64,
    pub oneshot_sends: u64,
    pub staged_sends: u64,
    pub pipelined_sends: u64,
    pub fallbacks: u64,
    pub degraded_sends: u64,
    pub tuner_probes: u64,
    pub tuner_bucket_hits: u64,
    pub tuner_method_switches: u64,
    pub pool_hits: u64,
    pub pool_fresh_allocs: u64,
    pub launch_cache_hits: u64,
}

impl StatsDelta {
    pub fn between(a: &TempiStats, b: &TempiStats) -> StatsDelta {
        StatsDelta {
            commits: b.commits - a.commits,
            commit_cache_hits: b.commit_cache_hits - a.commit_cache_hits,
            device_sends: b.device_sends - a.device_sends,
            oneshot_sends: b.oneshot_sends - a.oneshot_sends,
            staged_sends: b.staged_sends - a.staged_sends,
            pipelined_sends: b.pipelined_sends - a.pipelined_sends,
            fallbacks: b.fallbacks - a.fallbacks,
            degraded_sends: b.degraded_sends - a.degraded_sends,
            tuner_probes: b.tuner_probes - a.tuner_probes,
            tuner_bucket_hits: b.tuner_bucket_hits - a.tuner_bucket_hits,
            tuner_method_switches: b.tuner_method_switches - a.tuner_method_switches,
            pool_hits: b.pool_hits - a.pool_hits,
            pool_fresh_allocs: b.pool_fresh_allocs - a.pool_fresh_allocs,
            launch_cache_hits: b.launch_cache_hits - a.launch_cache_hits,
        }
    }

    pub fn add(&mut self, o: &StatsDelta) {
        self.commits += o.commits;
        self.commit_cache_hits += o.commit_cache_hits;
        self.device_sends += o.device_sends;
        self.oneshot_sends += o.oneshot_sends;
        self.staged_sends += o.staged_sends;
        self.pipelined_sends += o.pipelined_sends;
        self.fallbacks += o.fallbacks;
        self.degraded_sends += o.degraded_sends;
        self.tuner_probes += o.tuner_probes;
        self.tuner_bucket_hits += o.tuner_bucket_hits;
        self.tuner_method_switches += o.tuner_method_switches;
        self.pool_hits += o.pool_hits;
        self.pool_fresh_allocs += o.pool_fresh_allocs;
        self.launch_cache_hits += o.launch_cache_hits;
    }
}

/// `StreamStats` as a difference.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamDelta {
    pub memcpys: u64,
    pub kernel_launches: u64,
    pub syncs: u64,
    pub copy_bytes: u64,
}

impl StreamDelta {
    pub fn between(a: &StreamStats, b: &StreamStats) -> StreamDelta {
        StreamDelta {
            memcpys: (b.memcpys + b.memcpys_2d) - (a.memcpys + a.memcpys_2d),
            kernel_launches: b.kernel_launches - a.kernel_launches,
            syncs: b.syncs - a.syncs,
            copy_bytes: b.copy_bytes - a.copy_bytes,
        }
    }

    pub fn add(&mut self, o: &StreamDelta) {
        self.memcpys += o.memcpys;
        self.kernel_launches += o.kernel_launches;
        self.syncs += o.syncs;
        self.copy_bytes += o.copy_bytes;
    }
}

/// What one execution yields.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Host seconds from the start of `execute` to the end of warm-up.
    pub setup_s: f64,
    /// Host ns since the start of `execute` at which the timed phase began
    /// and ended (what follows it is the system pass and the oracles).
    pub timed_ns: (u64, u64),
    pub attempted: u64,
    /// Ops that returned an error or failed a check; counted in
    /// `attempted`.
    pub failed: u64,
    /// Did every oracle hold?
    pub correct: bool,
    /// What went wrong, for the human-readable report.
    pub complaints: Vec<String>,
    /// Virtual ps of each timed op, TEMPI on.
    pub per_op_ps: Vec<u64>,
    /// Virtual ps the same op multiset takes through
    /// `InterposedMpi::system_only()`.
    pub system_ps: u128,
    /// Allocation calls and bytes across the timed phase.
    pub heap: (u64, u64),
    /// Most heap bytes live at once, read at the end of the timed phase.
    pub peak_heap: u64,
    /// `VmHWM` in KiB, read at the end of the timed phase.
    pub rss_kib: u64,
    /// Host ns of each timed op (traced runs only).
    pub host_ns: Vec<f64>,
    pub facts: Facts,
}

impl Outcome {
    pub fn complain(&mut self, what: impl Into<String>) {
        self.correct = false;
        if self.complaints.len() < 8 {
            self.complaints.push(what.into());
        }
    }
}

/// One of the six workloads.
pub trait Workload: Sync {
    fn name(&self) -> &'static str;

    /// Fresh set-ups per run, besides the measured run's own: as many as
    /// the run's time budget allows (60 or 40 where one takes milliseconds,
    /// 12 where it takes tenths of a second, 9 where it is a world of
    /// thousands of ranks). `setup_s` is a low percentile of them, so it
    /// needs a few samples below it.
    fn setups(&self) -> usize;

    /// The timed phase's ops for `seconds`: a whole number of balanced
    /// rounds at a rate frozen in the workload (calibrated once on the
    /// reference box so that 5 s of ops take about 5 s there). Never a
    /// time-based loop: that would change tuner state and totals from run
    /// to run.
    fn plan(&self, rng: &mut Rng, seconds: u64) -> Vec<Op>;

    fn execute(&self, exec: &Exec) -> Result<Outcome, String>;

    /// The library tracer's level in a traced run.
    fn trace_level(&self) -> TraceLevel {
        TraceLevel::Full
    }

    /// Most ops a traced run times. The tracer keeps every event in one
    /// buffer, so a world of thousands of ranks is traced over fewer ops.
    fn traced_ops(&self) -> usize {
        usize::MAX
    }
}

pub fn by_name(name: &str) -> Option<Box<dyn Workload>> {
    Some(match name {
        "commit_churn" => Box::new(commit_churn::CommitChurn),
        "pack_zoo" => Box::new(pack_zoo::PackZoo),
        "send_latency" => Box::new(send::Send::latency()),
        "send_bandwidth" => Box::new(send::Send::bandwidth()),
        "halo_scale" => Box::new(halo_scale::HaloScale),
        "alltoallv_dense" => Box::new(alltoallv_dense::AlltoallvDense),
        _ => return None,
    })
}

/// Whole rounds for `seconds` at `rounds_per_5s` rounds per five seconds,
/// at least one.
pub fn rounds(seconds: u64, rounds_per_5s: u64) -> usize {
    (seconds * rounds_per_5s / 5).max(1) as usize
}

/// What a rank stores in an op's slowest-rank slot when the op failed on
/// it: above any virtual time, so `fetch_max` keeps it.
pub const OP_FAILED: u64 = u64::MAX;

/// Per-op virtual ps of the slowest rank, and how many ops failed on some
/// rank. A failed op is counted and is given no time.
pub fn slowest_rank_times(slots: &[AtomicU64]) -> (Vec<u64>, u64) {
    let ps: Vec<u64> = slots.iter().map(|s| s.load(Relaxed)).collect();
    let failed = ps.iter().filter(|&&p| p == OP_FAILED).count() as u64;
    let ps = ps
        .into_iter()
        .map(|p| if p == OP_FAILED { 0 } else { p })
        .collect();
    (ps, failed)
}

/// Host-side marks rank 0 takes from inside a world, between barriers.
#[derive(Debug, Default, Clone, Copy)]
pub struct Marks {
    pub setup_ns: u64,
    /// Host ns since the start of `execute` at which the timed phase ended.
    pub timed_end_ns: u64,
    pub heap0: Snapshot,
    pub heap1: Snapshot,
    pub rss_kib: u64,
    pub events: (usize, usize),
}

/// [`Marks`] behind a lock, shared with the rank closures.
pub struct MarkBoard {
    t0: Instant,
    marks: Mutex<Marks>,
}

impl MarkBoard {
    /// Start the set-up clock.
    pub fn start() -> MarkBoard {
        MarkBoard {
            t0: Instant::now(),
            marks: Mutex::new(Marks::default()),
        }
    }

    fn with(&self, f: impl FnOnce(&mut Marks)) {
        f(&mut self.marks.lock().expect("no rank panics while marking"));
    }

    /// Set-up ended and the timed phase is about to begin.
    pub fn timed_begins(&self, tracer: Option<&Tracer>) {
        let setup_ns = self.t0.elapsed().as_nanos() as u64;
        let ev = tracer.map_or(0, Tracer::event_count);
        self.with(|m| {
            m.setup_ns = setup_ns;
            m.events.0 = ev;
            m.heap0 = Snapshot::now();
        });
    }

    /// The timed phase just ended.
    pub fn timed_ended(&self, tracer: Option<&Tracer>) {
        let heap1 = Snapshot::now();
        let timed_end_ns = self.t0.elapsed().as_nanos() as u64;
        let ev = tracer.map_or(0, Tracer::event_count);
        let rss = hygiene::vm_hwm_kib().unwrap_or(0);
        self.with(|m| {
            m.heap1 = heap1;
            m.timed_end_ns = timed_end_ns;
            m.events.1 = ev;
            m.rss_kib = rss;
        });
    }

    pub fn read(&self) -> Marks {
        *self.marks.lock().expect("no rank panics while marking")
    }
}

impl Marks {
    /// Copy the marks into an outcome.
    pub fn apply(&self, out: &mut Outcome) {
        out.setup_s = self.setup_ns as f64 / 1e9;
        out.timed_ns = (self.setup_ns, self.timed_end_ns.max(self.setup_ns));
        out.heap = self.heap1.since(&self.heap0);
        out.peak_heap = self.heap1.peak;
        out.rss_kib = self.rss_kib;
        out.facts.events = self.events;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_scale_with_seconds_in_whole_steps() {
        assert_eq!(rounds(5, 10), 10);
        assert_eq!(rounds(10, 10), 20);
        assert_eq!(rounds(1, 10), 2);
        assert_eq!(rounds(1, 2), 1);
        assert_eq!(rounds(60, 3), 36);
    }

    #[test]
    fn a_failed_op_is_counted_and_given_no_time() {
        let slots = [5, OP_FAILED, 7].map(AtomicU64::new);
        assert_eq!(slowest_rank_times(&slots), (vec![5, 0, 7], 1));
    }

    #[test]
    fn every_spec_workload_resolves() {
        for w in &crate::spec::spec().workloads {
            let wl = by_name(&w.name).expect(&w.name);
            assert_eq!(wl.name(), w.name);
            assert!(wl.setups() >= 9);
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn plans_repeat_for_a_seed_and_differ_between_seeds() {
        use crate::gen::ops_hash;
        for w in &crate::spec::spec().workloads {
            let wl = by_name(&w.name).unwrap();
            let plan = |seed| ops_hash(&wl.plan(&mut Rng::new(seed), 5));
            assert_eq!(plan(1), plan(1), "{}", w.name);
            // a workload with one cell has one possible order
            if wl.plan(&mut Rng::new(1), 5).iter().any(|o| o.cell > 0) {
                assert_ne!(plan(1), plan(2), "{}", w.name);
            }
        }
    }
}
