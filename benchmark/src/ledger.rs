//! The per-layer ledger of a traced run: every per-layer name of the spec and
//! its value.
//!
//! Three sources feed it. The deterministic rows come from the library's
//! own `Tracer` (harvested by event name) and from counter differences
//! across the timed phase ([`Facts`]). The host rows come from
//! `crate::probes`. A row no source fills on a workload — the stencil rows
//! on `pack_zoo`, say — stays 0: the layer did not run.

use std::collections::BTreeMap;

use tempi_trace::{ArgValue, EventPhase, TraceEvent, LANE_GPU};

use crate::report::Metric;
use crate::spec;
use crate::workloads::{Facts, Outcome};

const MIB: f64 = (1u64 << 20) as f64;

/// Name → value for every per-layer metric.
#[derive(Debug, Clone)]
pub struct Ledger(BTreeMap<&'static str, f64>);

impl Default for Ledger {
    fn default() -> Self {
        Ledger(
            (spec::spec().per_layer.iter())
                .map(|p| (p.name.as_str(), 0.0))
                .collect(),
        )
    }
}

impl Ledger {
    /// Set one row. A name the spec does not list is a bug in this crate.
    pub fn set(&mut self, name: &str, value: f64) {
        let spec = spec::per_layer(name)
            .unwrap_or_else(|| panic!("`{name}` is not a per-layer metric of the spec"));
        // a ratio whose base is 0 means "did not happen": report 0
        self.0
            .insert(&spec.name, if value.is_finite() { value } else { 0.0 });
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// In spec order.
    pub fn metrics(&self) -> Vec<Metric> {
        (spec::spec().per_layer.iter())
            .map(|p| Metric {
                name: &p.name,
                value: self.get(&p.name),
                unit: &p.unit,
            })
            .collect()
    }
}

/// Count and total virtual ps per event name, spans (B/E pairs) and
/// complete events alike, CPU lane and GPU lane apart.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Totals {
    pub cpu: BTreeMap<String, (u64, u128)>,
    pub gpu: BTreeMap<String, (u64, u128)>,
    /// Per `type_commit` span: virtual ps after its last child ended.
    pub commit_tail_ps: u128,
    pub events: u64,
}

impl Totals {
    fn cpu_ps(&self, name: &str) -> f64 {
        self.cpu.get(name).map_or(0.0, |t| t.1 as f64)
    }

    fn cpu_n(&self, name: &str) -> f64 {
        self.cpu.get(name).map_or(0.0, |t| t.0 as f64)
    }

    /// Total ps of GPU-lane events whose name starts with `prefix`.
    fn gpu_ps_prefixed(&self, prefix: &str) -> f64 {
        self.gpu
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, t)| t.1 as f64)
            .sum()
    }
}

/// Walk `events` (one rank's events are in program order; ranks
/// interleave) and total them by name. `End` events carry no name, so
/// spans are matched per `(pid, tid)` lane by nesting.
pub fn totals(events: &[TraceEvent]) -> Totals {
    struct Open<'a> {
        name: &'a str,
        start: u64,
        /// Where the last complete child event inside this span ended.
        child_end: u64,
    }
    let mut t = Totals {
        events: events.len() as u64,
        ..Totals::default()
    };
    let mut stacks: BTreeMap<(u32, u32), Vec<Open>> = BTreeMap::new();
    let add = |m: &mut BTreeMap<String, (u64, u128)>, name: &str, ps: u64| match m.get_mut(name) {
        Some(e) => {
            e.0 += 1;
            e.1 += ps as u128;
        }
        None => {
            m.insert(name.to_string(), (1, ps as u128));
        }
    };
    for e in events {
        let lane = (e.pid, e.tid);
        match e.ph {
            EventPhase::Begin => stacks.entry(lane).or_default().push(Open {
                name: &e.name,
                start: e.ts_ps,
                child_end: e.ts_ps,
            }),
            EventPhase::End => {
                // an End with no Begin in range belongs to a span cut by
                // the range's start: skip it
                if let Some(open) = stacks.get_mut(&lane).and_then(Vec::pop) {
                    add(&mut t.cpu, open.name, e.ts_ps.saturating_sub(open.start));
                    if open.name == "type_commit" {
                        t.commit_tail_ps += e.ts_ps.saturating_sub(open.child_end) as u128;
                    }
                }
            }
            EventPhase::Complete => {
                let by_lane = if e.tid == LANE_GPU {
                    &mut t.gpu
                } else {
                    &mut t.cpu
                };
                add(by_lane, &e.name, e.dur_ps);
                if let Some(open) = stacks.get_mut(&lane).and_then(|s| s.last_mut()) {
                    open.child_end = open.child_end.max(e.ts_ps + e.dur_ps);
                }
            }
            EventPhase::Instant => {}
        }
    }
    t
}

/// Heap bytes the event buffer holds: the events, their names and their
/// argument vectors (an estimate from sizes; the allocator's exact count
/// per event is the `trace.allocs_per_event` probe).
pub fn buffer_bytes(events: &[TraceEvent]) -> u64 {
    let fixed = std::mem::size_of::<TraceEvent>();
    events
        .iter()
        .map(|e| {
            let args: usize = e
                .args
                .iter()
                .map(|(_, v)| {
                    std::mem::size_of::<(&'static str, ArgValue)>()
                        + match v {
                            ArgValue::Str(s) => s.capacity(),
                            _ => 0,
                        }
                })
                .sum();
            (fixed + e.name.capacity() + args) as u64
        })
        .sum()
}

/// `a / b`, or 0 when there is no base: the thing did not happen.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The rows the library tracer gives: commit breakdown over every commit
/// of the run, send/receive phases and kernels over the timed phase.
pub fn fill_from_trace(l: &mut Ledger, events: &[TraceEvent], facts: &Facts, ops: u64) {
    let ops = ops.max(1) as f64;
    let all = totals(events);
    let commits = all.cpu_n("type_commit");
    let per_commit = |ps: f64| ratio(ps, commits) / 1e3;
    l.set(
        "tempi.commit_virt_ns_per_op",
        per_commit(all.cpu_ps("type_commit")),
    );
    l.set(
        "tempi.commit_translate_virt_ns_per_op",
        per_commit(all.cpu_ps("translate")),
    );
    l.set(
        "tempi.commit_canonicalize_virt_ns_per_op",
        per_commit(all.cpu_ps("canonicalize")),
    );
    // what a commit spends after canonicalisation: kernel selection and
    // building the plan (the model charges neither anything today)
    l.set(
        "tempi.commit_kernel_select_virt_ns_per_op",
        per_commit(all.commit_tail_ps as f64),
    );

    let (e0, e1) = facts.events;
    let timed = totals(&events[e0.min(events.len())..e1.min(events.len())]);
    let phases = ["pack", "copy", "wire", "unpack"];
    for p in phases {
        l.set(
            &format!("tempi.{p}_virt_ns_per_op"),
            timed.cpu_ps(p) / 1e3 / ops,
        );
    }
    let calls = timed.cpu_ps("MPI_Send") + timed.cpu_ps("MPI_Recv");
    if calls > 0.0 {
        let attributed: f64 = phases.iter().map(|p| timed.cpu_ps(p)).sum();
        l.set("tempi.virt_unattributed_share", 1.0 - attributed / calls);
    }
    l.set(
        "kernels.pack_virt_ns_per_mib",
        ratio(
            timed.gpu_ps_prefixed("tempi_pack") / 1e3,
            facts.packed_bytes as f64 / MIB,
        ),
    );
    l.set(
        "kernels.unpack_virt_ns_per_mib",
        ratio(
            timed.gpu_ps_prefixed("tempi_unpack") / 1e3,
            facts.unpacked_bytes as f64 / MIB,
        ),
    );
    l.set("trace.events_per_op", timed.events as f64 / ops);
    l.set("trace.buffer_mib", buffer_bytes(events) as f64 / MIB);
}

/// The rows counter differences give.
pub fn fill_from_facts(l: &mut Ledger, out: &Outcome) {
    let f = &out.facts;
    let ops = out.per_op_ps.len().max(1) as f64;
    let s = &f.stats;
    l.set(
        "tempi.commit_cache_hit_ratio",
        ratio(
            s.commit_cache_hits as f64,
            (s.commit_cache_hits + s.commits) as f64,
        ),
    );
    let sends = f.sends as f64;
    let share = |n: u64| ratio(n as f64, sends);
    l.set("tempi.method_share.device", share(s.device_sends));
    l.set("tempi.method_share.oneshot", share(s.oneshot_sends));
    l.set("tempi.method_share.staged", share(s.staged_sends));
    l.set("tempi.method_share.pipelined", share(s.pipelined_sends));
    let accelerated = s.device_sends + s.oneshot_sends + s.staged_sends + s.pipelined_sends;
    l.set(
        "tempi.method_share.system",
        share(f.sends.saturating_sub(accelerated)),
    );
    l.set("tempi.fallbacks_per_kop", 1e3 * s.fallbacks as f64 / ops);
    l.set("tempi.degraded_sends", s.degraded_sends as f64);
    l.set(
        "tempi.launch_cache_hit_ratio",
        ratio(s.launch_cache_hits as f64, f.stream.kernel_launches as f64),
    );
    let plans = f.plans.plans as f64;
    l.set(
        "ir.nodes_before_per_commit",
        ratio(f.plans.nodes_before as f64, plans),
    );
    l.set(
        "ir.nodes_after_per_commit",
        ratio(f.plans.nodes_after as f64, plans),
    );
    l.set(
        "ir.simplify_passes_per_commit",
        ratio(f.plans.simplify_passes as f64, plans),
    );
    l.set(
        "ir.introspection_calls_per_commit",
        ratio(f.plans.introspection_calls as f64, plans),
    );
    l.set("ir.equivalent_plan_mismatches", f.plan_mismatches as f64);
    l.set(
        "kernels.word_bytes_mean",
        ratio(f.plans.word_sum as f64, f.plans.strided as f64),
    );
    l.set(
        "tuner.bucket_hit_ratio",
        ratio(s.tuner_bucket_hits as f64, accelerated as f64),
    );
    l.set(
        "buffers.pool_hit_ratio",
        ratio(
            s.pool_hits as f64,
            (s.pool_hits + s.pool_fresh_allocs) as f64,
        ),
    );
    l.set(
        "buffers.fresh_allocs_per_kop",
        1e3 * s.pool_fresh_allocs as f64 / ops,
    );
    l.set(
        "gpu-sim.stream.kernel_launches_per_op",
        f.stream.kernel_launches as f64 / ops,
    );
    l.set(
        "gpu-sim.stream.memcpys_per_op",
        f.stream.memcpys as f64 / ops,
    );
    l.set("gpu-sim.stream.syncs_per_op", f.stream.syncs as f64 / ops);
    l.set(
        "gpu-sim.stream.copy_bytes_per_op",
        f.stream.copy_bytes as f64 / ops,
    );
    let ex = f.exchanges as f64;
    l.set(
        "stencil.exchange.pack_virt_ns",
        ratio(f.exchange_ps[0] as f64 / 1e3, ex),
    );
    l.set(
        "stencil.exchange.comm_virt_ns",
        ratio(f.exchange_ps[1] as f64 / 1e3, ex),
    );
    l.set(
        "stencil.exchange.unpack_virt_ns",
        ratio(f.exchange_ps[2] as f64 / 1e3, ex),
    );
    for &(name, v) in &f.extra {
        l.set(name, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempi_trace::{Args, TraceLevel, Tracer, LANE_CPU};

    #[test]
    fn ledger_starts_with_every_spec_row_and_rejects_others() {
        let l = Ledger::default();
        assert_eq!(l.metrics().len(), spec::spec().per_layer.len());
        assert!(l.metrics().iter().all(|m| m.value == 0.0));
        let mut l = l;
        l.set("tempi.degraded_sends", 2.0);
        l.set("model.residual_ratio", f64::NAN);
        assert_eq!(l.get("tempi.degraded_sends"), 2.0);
        assert_eq!(l.get("model.residual_ratio"), 0.0);
        assert!(std::panic::catch_unwind(move || l.set("no.such.row", 1.0)).is_err());
    }

    #[test]
    fn totals_pair_spans_per_lane_and_find_the_commit_tail() {
        let t = Tracer::new(TraceLevel::Full);
        // rank 0: a commit with two children and 30 ps after them
        t.begin(0, LANE_CPU, "tempi", "type_commit", 100);
        t.complete(0, LANE_CPU, "tempi", "translate", 110, 40, Args::new);
        // rank 1 interleaves on its own lane
        t.begin(1, LANE_CPU, "tempi", "MPI_Send", 0);
        t.complete(0, LANE_CPU, "tempi", "canonicalize", 150, 20, || {
            Args::new()
        });
        t.complete(1, LANE_GPU, "gpu", "tempi_pack_2d", 5, 50, Args::new);
        t.end(0, LANE_CPU, 200);
        t.end(1, LANE_CPU, 80);
        let tot = totals(&t.events());
        assert_eq!(tot.cpu["type_commit"], (1, 100));
        assert_eq!(tot.cpu["translate"], (1, 40));
        assert_eq!(tot.cpu["MPI_Send"], (1, 80));
        assert_eq!(tot.gpu["tempi_pack_2d"], (1, 50));
        assert_eq!(tot.commit_tail_ps, 30);
        assert_eq!(tot.gpu_ps_prefixed("tempi_pack"), 50.0);
        assert!(buffer_bytes(&t.events()) > 0);
    }

    #[test]
    fn an_end_without_a_begin_is_skipped() {
        let t = Tracer::new(TraceLevel::Spans);
        t.end(0, LANE_CPU, 10);
        t.begin(0, LANE_CPU, "mpi", "alltoallv", 20);
        t.end(0, LANE_CPU, 50);
        let tot = totals(&t.events());
        assert_eq!(tot.cpu.len(), 1);
        assert_eq!(tot.cpu["alltoallv"], (1, 30));
    }
}
