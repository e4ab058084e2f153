//! Chrome `trace_event` JSON export.
//!
//! Produces the "JSON Array Format" wrapped in a `traceEvents` object, as
//! consumed by `chrome://tracing` and Perfetto. Mapping:
//!
//! * `pid` = MPI world rank (one process row per rank),
//! * `tid` = lane within the rank (0 = CPU/MPI timeline, 1 = GPU stream /
//!   copy engine),
//! * `ts`/`dur` = virtual time in **microseconds** (the format's unit),
//!   converted from the recorder's picoseconds as floats so sub-µs kernel
//!   costs survive.
//!
//! Metadata events name each process `rank N` and each thread lane, so the
//! viewer shows meaningful labels without any manual mapping.

use std::collections::{BTreeMap, BTreeSet};

use crate::json::{ToJson, Value};
use crate::{ArgValue, EventPhase, TraceEvent, LANE_CPU, LANE_GPU};

const PS_PER_US: f64 = 1e6;

/// Keys sorted, a repeated key keeping its last value.
fn args_object(args: &[(&'static str, ArgValue)]) -> Value {
    let sorted: BTreeMap<&str, Value> = args
        .iter()
        .map(|(k, v)| {
            let jv = match v {
                ArgValue::Str(s) => s.to_json(),
                ArgValue::U64(n) => n.to_json(),
                ArgValue::F64(f) => f.to_json(),
                ArgValue::Bool(b) => b.to_json(),
            };
            (*k, jv)
        })
        .collect();
    Value::Object(
        sorted
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// One metadata (`"M"`) event naming a process or a lane.
fn metadata(pid: u32, tid: u32, name: &str, arg: &str, value: Value) -> Value {
    Value::object([
        ("args", Value::object([(arg, value)])),
        ("name", name.to_json()),
        ("ph", "M".to_json()),
        ("pid", pid.to_json()),
        ("tid", tid.to_json()),
    ])
}

fn lane_name(tid: u32) -> String {
    match tid {
        LANE_CPU => "cpu".to_string(),
        LANE_GPU => "gpu".to_string(),
        other => format!("lane {other}"),
    }
}

/// Render recorded events as a Chrome `trace_event` JSON document. Every
/// object's keys are in sorted order, the order the files always had.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut out: Vec<Value> = Vec::with_capacity(events.len() + 8);

    // Metadata: name every (pid, tid) pair that appears.
    let mut pids = BTreeSet::new();
    let mut lanes = BTreeSet::new();
    for e in events {
        pids.insert(e.pid);
        lanes.insert((e.pid, e.tid));
    }
    for &pid in &pids {
        let name = format!("rank {pid}").to_json();
        out.push(metadata(pid, 0, "process_name", "name", name));
    }
    for &(pid, tid) in &lanes {
        let name = lane_name(tid).to_json();
        out.push(metadata(pid, tid, "thread_name", "name", name));
        // Keep the CPU lane above the GPU lane within each rank.
        let index = tid.to_json();
        out.push(metadata(pid, tid, "thread_sort_index", "sort_index", index));
    }

    // Canonical event order: the shared buffer interleaves ranks in the
    // order they ran (and a tracer shared by worlds on several threads,
    // those in wall-clock order). A stable sort by (pid, tid, ts)
    // makes the export a pure function of the recorded events: same-lane
    // ties keep their per-rank program order (appends within one rank are
    // sequential), so B/E nesting survives.
    let mut ordered: Vec<&TraceEvent> = events.iter().collect();
    ordered.sort_by_key(|e| (e.pid, e.tid, e.ts_ps));

    for e in ordered {
        let ph = match e.ph {
            EventPhase::Begin => "B",
            EventPhase::End => "E",
            EventPhase::Complete => "X",
            EventPhase::Instant => "i",
        };
        let named = e.ph != EventPhase::End;
        let members = [
            (!e.args.is_empty()).then(|| ("args", args_object(&e.args))),
            (named && !e.cat.is_empty()).then(|| ("cat", e.cat.to_json())),
            (e.ph == EventPhase::Complete)
                .then(|| ("dur", (e.dur_ps as f64 / PS_PER_US).to_json())),
            named.then(|| ("name", e.name.to_json())),
            Some(("ph", ph.to_json())),
            Some(("pid", e.pid.to_json())),
            // Thread-scoped instants render as small arrows on the lane.
            (e.ph == EventPhase::Instant).then(|| ("s", "t".to_json())),
            Some(("tid", e.tid.to_json())),
            Some(("ts", (e.ts_ps as f64 / PS_PER_US).to_json())),
        ];
        out.push(Value::Object(
            members
                .into_iter()
                .flatten()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        ));
    }

    Value::object([
        ("displayTimeUnit", "ms".to_json()),
        ("traceEvents", Value::Array(out)),
    ])
    .compact()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Args, TraceLevel, Tracer};

    fn sample() -> Tracer {
        let t = Tracer::new(TraceLevel::Full);
        t.begin(0, LANE_CPU, "tempi", "MPI_Send", 1_000_000);
        t.complete(0, LANE_GPU, "gpu", "pack_2d", 1_200_000, 500_000, || {
            vec![("bytes", 4096u64.into())] as Args
        });
        t.end_args(0, LANE_CPU, 2_000_000, || vec![("method", "Device".into())]);
        t.instant(1, LANE_CPU, "mpi", "comm.revoke", 1_500_000, || {
            vec![("epoch", 1u64.into())]
        });
        t
    }

    #[test]
    fn export_parses_and_has_required_fields() {
        let doc = crate::json::parse(&sample().chrome_trace()).unwrap();
        let evs = doc["traceEvents"].as_array().unwrap();
        // 2 ranks: 2 process_name + (2 lanes for rank 0, 1 for rank 1) * 2
        // metadata each, plus 4 payload events.
        assert_eq!(evs.len(), 2 + 3 * 2 + 4);
        for e in evs {
            assert!(e.get("ph").is_some());
            assert!(e.get("pid").is_some());
            assert!(e.get("tid").is_some());
        }
        let b = evs.iter().find(|e| e["ph"] == "B").unwrap();
        assert_eq!(b["name"], "MPI_Send");
        assert_eq!(b["ts"], 1.0); // 1_000_000 ps = 1 µs
        let x = evs.iter().find(|e| e["ph"] == "X").unwrap();
        assert_eq!(x["dur"], 0.5);
        assert_eq!(x["tid"], 1);
        assert_eq!(x["args"]["bytes"], 4096);
        let e = evs.iter().find(|e| e["ph"] == "E").unwrap();
        assert_eq!(e["args"]["method"], "Device");
        let i = evs.iter().find(|e| e["ph"] == "i").unwrap();
        assert_eq!(i["s"], "t");
        assert_eq!(i["args"]["epoch"], 1);
    }

    #[test]
    fn metadata_names_ranks_and_lanes() {
        let doc = crate::json::parse(&sample().chrome_trace()).unwrap();
        let evs = doc["traceEvents"].as_array().unwrap();
        assert!(evs
            .iter()
            .any(|e| e["name"] == "process_name" && e["args"]["name"] == "rank 0"));
        assert!(evs
            .iter()
            .any(|e| e["name"] == "thread_name" && e["args"]["name"] == "gpu" && e["tid"] == 1));
    }
}
