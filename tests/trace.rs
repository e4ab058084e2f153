//! Trace-schema integration tests: a recorded stencil-with-faults run
//! round-trips through the Chrome `trace_event` exporter and stays
//! well-formed.
//!
//! The contract under test: (1) the exported JSON parses and every event
//! carries the fields `chrome://tracing` requires (`ph`, `pid`, `tid`,
//! `ts`); (2) span nesting is well-formed per rank lane — no span exits
//! before it enters, every span that enters exits, and virtual timestamps
//! are monotone along each lane's B/E sequence; (3) the phase spans the
//! paper's pipeline is made of (pack → wire → unpack, plus the staged
//! copy) appear nested where they belong and name their method; (4) for a
//! fixed fault seed the per-lane event sequence replays exactly.
//!
//! Seeds 7 and 424242 keep the fault interleavings honest: one light,
//! one heavy.

use std::collections::BTreeMap;

use mpi_sim::consts::MPI_BYTE;
use mpi_sim::{FaultPlan, World, WorldConfig};
use tempi_core::config::{Method, TempiConfig, TunerMode};
use tempi_core::interpose::InterposedMpi;
use tempi_core::{TraceLevel, Tracer};
use tempi_stencil::{CheckpointStore, HaloConfig, HaloExchanger};
use tempi_trace::json;

const SEEDS: [u64; 2] = [7, 424242];

/// A fully traced 4-rank halo-exchange run under a seeded fault plan:
/// transient link faults, injected delays and kernel kills (degradation
/// to the CPU copy path), two iterations and a checkpoint — an exchange is
/// two kernels, and a rank that loses both to the kills leaves its GPU
/// lane to the checkpoint's device-to-host copy.
fn traced_stencil(seed: u64) -> Tracer {
    let tracer = Tracer::new(TraceLevel::Full);
    let mut cfg = WorldConfig::summit(4);
    cfg.net.ranks_per_node = 2;
    let cfg = cfg
        .with_faults(
            FaultPlan::parse(&format!(
                "seed={seed},send=0.1,recv=0.05,retries=6,backoff=15us,delay=0.2:30us,kernel=0.3"
            ))
            .unwrap(),
        )
        .with_tracer(tracer.clone());
    World::run(&cfg, |ctx| {
        let mut mpi = InterposedMpi::new(TempiConfig::default());
        let mut ex = HaloExchanger::new(ctx, &mut mpi, HaloConfig::small(4))?;
        ex.fill(ctx)?;
        ex.exchange(ctx, &mut mpi)?;
        // the second iteration exchanges, then checkpoints
        ex.exchange_with_recovery(ctx, &mut mpi, &mut CheckpointStore::new(), true)?;
        mpi.publish_metrics(&ctx.tracer);
        Ok(())
    })
    .expect("traced stencil world");
    tracer
}

fn parse_events(tracer: &Tracer) -> Vec<json::Value> {
    let doc = json::parse(&tracer.chrome_trace()).expect("chrome trace must be valid JSON");
    assert_eq!(doc["displayTimeUnit"], "ms");
    doc["traceEvents"]
        .as_array()
        .expect("traceEvents must be an array")
        .to_vec()
}

#[test]
fn chrome_export_is_valid_and_complete_for_stencil_with_faults() {
    for seed in SEEDS {
        let tracer = traced_stencil(seed);
        assert!(tracer.event_count() > 0, "seed {seed}: nothing recorded");
        let evs = parse_events(&tracer);

        for e in &evs {
            let ph = e["ph"].as_str().expect("ph must be a string");
            assert!(
                matches!(ph, "B" | "E" | "X" | "i" | "M"),
                "seed {seed}: unexpected phase {ph:?} in {e}"
            );
            assert!(e["pid"].is_u64(), "seed {seed}: pid missing in {e}");
            assert!(e["tid"].is_u64(), "seed {seed}: tid missing in {e}");
            match ph {
                "M" => assert!(e["name"].is_string(), "metadata must be named: {e}"),
                "E" => assert!(e["ts"].is_number(), "E needs ts: {e}"),
                _ => {
                    assert!(e["ts"].is_number(), "{ph} needs ts: {e}");
                    assert!(e["name"].is_string(), "{ph} needs a name: {e}");
                }
            }
            if ph == "X" {
                assert!(e["dur"].as_f64().unwrap() >= 0.0, "negative dur: {e}");
            }
            if ph == "i" {
                assert_eq!(e["s"], "t", "instants must be thread-scoped: {e}");
            }
        }

        // every rank is named, and every rank has both lanes labelled
        for rank in 0..4u64 {
            assert!(
                evs.iter().any(|e| e["name"] == "process_name"
                    && e["pid"] == rank
                    && e["args"]["name"] == format!("rank {rank}")),
                "seed {seed}: rank {rank} has no process_name metadata"
            );
            for (tid, lane) in [(0u64, "cpu"), (1u64, "gpu")] {
                assert!(
                    evs.iter().any(|e| e["name"] == "thread_name"
                        && e["pid"] == rank
                        && e["tid"] == tid
                        && e["args"]["name"] == lane),
                    "seed {seed}: rank {rank} lane {lane} unlabelled"
                );
            }
        }
    }
}

#[test]
fn spans_nest_well_formed_with_monotone_timestamps() {
    for seed in SEEDS {
        let evs = parse_events(&traced_stencil(seed));
        // Per (pid, tid): walk the B/E sequence in emission order. Depth
        // must never go negative (no exit before enter), must return to
        // zero (every enter exits, even on degraded/error paths), and ts
        // must be monotone — the virtual clock never runs backwards
        // within a lane. X/i events interleave freely (an X's ts is its
        // *start*), so only B/E participate here.
        let mut depth: BTreeMap<(u64, u64), i64> = BTreeMap::new();
        let mut last_ts: BTreeMap<(u64, u64), f64> = BTreeMap::new();
        for e in &evs {
            let ph = e["ph"].as_str().unwrap();
            if ph != "B" && ph != "E" {
                continue;
            }
            let key = (e["pid"].as_u64().unwrap(), e["tid"].as_u64().unwrap());
            let ts = e["ts"].as_f64().unwrap();
            let prev = last_ts.insert(key, ts).unwrap_or(f64::MIN);
            assert!(
                ts >= prev,
                "seed {seed}: lane {key:?} time ran backwards ({prev} -> {ts}) at {e}"
            );
            let d = depth.entry(key).or_insert(0);
            if ph == "B" {
                *d += 1;
            } else {
                *d -= 1;
                assert!(
                    *d >= 0,
                    "seed {seed}: lane {key:?} exited an unopened span at {e}"
                );
            }
        }
        for (key, d) in &depth {
            assert_eq!(*d, 0, "seed {seed}: lane {key:?} left {d} span(s) open");
        }
    }
}

#[test]
fn stencil_phases_nest_inside_the_exchange_span() {
    let evs = parse_events(&traced_stencil(SEEDS[0]));
    let mut stacks: BTreeMap<(u64, u64), Vec<String>> = BTreeMap::new();
    let (mut packs_nested, mut unpacks_nested, mut collectives_nested) = (0u64, 0u64, 0u64);
    for e in &evs {
        let key = (
            e["pid"].as_u64().unwrap_or(u64::MAX),
            e["tid"].as_u64().unwrap_or(u64::MAX),
        );
        match e["ph"].as_str().unwrap() {
            "B" => {
                let name = e["name"].as_str().unwrap().to_string();
                let stack = stacks.entry(key).or_default();
                let inside_exchange = stack.iter().any(|s| s == "halo.exchange");
                match name.as_str() {
                    "MPI_Pack" if inside_exchange => packs_nested += 1,
                    "MPI_Unpack" if inside_exchange => unpacks_nested += 1,
                    "alltoallv" if inside_exchange => collectives_nested += 1,
                    _ => {}
                }
                stack.push(name);
            }
            "E" => {
                stacks.entry(key).or_default().pop();
            }
            _ => {}
        }
    }
    // 4 ranks x 2 iterations, each exchanging 26 neighbor directions with
    // one pack, one collective and one unpack: the phase spans must show up
    // *inside* halo.exchange, once per exchange.
    assert_eq!(
        (packs_nested, collectives_nested, unpacks_nested),
        (8, 8, 8),
        "MPI_Pack, alltoallv and MPI_Unpack spans nested in 8 exchanges"
    );
    // the GPU lane saw traced kernel/copy work
    assert!(
        evs.iter()
            .any(|e| e["ph"] == "X" && e["tid"] == 1 && e["ts"].is_number()),
        "no GPU-lane complete events recorded"
    );
    // and the exchange's kernels — those the fault plan let launch — say
    // what they moved: the 26 regions of a side, 448 cells of 4 bytes
    let kernels: Vec<_> = (evs.iter())
        .filter(|e| e["name"] == "tempi_pack_multi" || e["name"] == "tempi_unpack_multi")
        .collect();
    assert!(!kernels.is_empty(), "no member-list kernel recorded");
    for e in kernels {
        assert_eq!((e["ph"].as_str(), e["tid"].as_u64()), (Some("X"), Some(1)));
        let args = &e["args"];
        assert_eq!(
            (args["members"].as_u64(), args["bytes"].as_u64()),
            (Some(26), Some(1792))
        );
        assert!(args["grid"].is_string() && args["block"].is_string());
    }
}

#[test]
fn per_lane_sequences_replay_exactly_for_a_seed() {
    // Buffer order across ranks depends on host thread scheduling, but
    // each lane's own sequence is virtual-time deterministic: same seed,
    // same spans, same timestamps.
    let lanes = |tracer: &Tracer| {
        type LaneSeq = Vec<(String, String, String)>;
        let mut m: BTreeMap<(u64, u64), LaneSeq> = BTreeMap::new();
        for e in parse_events(tracer) {
            let ph = e["ph"].as_str().unwrap().to_string();
            if ph == "M" {
                continue;
            }
            let key = (e["pid"].as_u64().unwrap(), e["tid"].as_u64().unwrap());
            m.entry(key).or_default().push((
                ph,
                e["name"].as_str().unwrap_or("").to_string(),
                e["ts"].to_string(),
            ));
        }
        m
    };
    let a = lanes(&traced_stencil(SEEDS[1]));
    let b = lanes(&traced_stencil(SEEDS[1]));
    assert_eq!(
        a, b,
        "seeded traced runs must replay per-lane sequences exactly"
    );
}

/// One fully deterministic observable of a world run: the per-rank results
/// (virtual clock, verified ghost cells, tuner counters) plus the complete
/// Chrome trace JSON (which embeds every span, timestamp, method choice,
/// and `tuner.decide` instant).
fn seeded_run() -> (Vec<(u64, usize, u64, u64)>, String) {
    let tracer = Tracer::new(TraceLevel::Full);
    let mut cfg = WorldConfig::summit(4);
    cfg.net.ranks_per_node = 2;
    let cfg = cfg
        .with_faults(
            FaultPlan::parse("seed=424242,send=0.1,retries=6,backoff=15us,delay=0.2:30us").unwrap(),
        )
        .with_tracer(tracer.clone());
    let results = World::run(&cfg, |ctx| {
        let mut mpi = InterposedMpi::new(TempiConfig {
            tuner: TunerMode::Online,
            ..TempiConfig::default()
        });
        let mut ex = HaloExchanger::new(ctx, &mut mpi, HaloConfig::small(4))?;
        ex.fill(ctx)?;
        ex.exchange(ctx, &mut mpi)?;
        ex.exchange(ctx, &mut mpi)?;
        let ghosts = ex.verify_ghosts(ctx)?;
        // The halo path packs into byte sends, which never consults the
        // tuner; a typed strided ring forces `tuner.choose` so the trace
        // comparison also pins every online tuner decision. Sends are
        // eager, so send-before-recv cannot deadlock.
        let dt = ctx.type_vector(64, 16, 64, MPI_BYTE)?;
        mpi.type_commit(ctx, dt)?;
        let ring = ctx.gpu.malloc(64 * 64 + 64)?;
        let n = ctx.size;
        for _ in 0..3 {
            mpi.send(ctx, ring, 1, dt, (ctx.rank + 1) % n, 9)?;
            mpi.recv(ctx, ring, 1, dt, Some((ctx.rank + n - 1) % n), Some(9))?;
        }
        ctx.gpu.free(ring)?;
        mpi.publish_metrics(&ctx.tracer);
        Ok((
            ctx.clock.now().as_ps(),
            ghosts,
            mpi.tempi.stats.tuner_probes,
            mpi.tempi.stats.tuner_bucket_hits,
        ))
    })
    .expect("seeded world");
    (results, tracer.chrome_trace())
}

#[test]
fn a_seeded_world_replays_its_results_traces_and_tuner_decisions() {
    // The determinism contract of the scheduler: the same seed run twice
    // produces byte-identical per-rank results and a byte-identical Chrome
    // trace (which embeds every tuner decision as a `tuner.decide`
    // instant).
    let (r1, t1) = seeded_run();
    let (r2, t2) = seeded_run();
    assert_eq!(r1, r2, "per-rank results differ between two runs");
    assert_eq!(t1, t2, "Chrome traces differ between two runs");

    // The trace really does pin the tuner: decisions were recorded.
    assert!(
        t1.contains("tuner.decide"),
        "expected tuner.decide instants in the full trace"
    );
}

#[test]
fn send_path_spans_carry_the_method_and_phase_breakdown() {
    // A staged 2-rank typed send: the MPI_Send/MPI_Recv span pair must
    // report its method, and the pipeline phases pack -> copy -> wire ->
    // unpack must appear as complete events.
    let tracer = Tracer::new(TraceLevel::Full);
    let mut cfg = WorldConfig::summit(2);
    cfg.net.ranks_per_node = 1;
    let cfg = cfg.with_tracer(tracer.clone());
    World::run(&cfg, |ctx| {
        let mut mpi = InterposedMpi::new(TempiConfig {
            force_method: Some(Method::Staged),
            ..TempiConfig::default()
        });
        let dt = ctx.type_vector(64, 16, 64, MPI_BYTE)?;
        mpi.type_commit(ctx, dt)?;
        let buf = ctx.gpu.malloc(64 * 64 + 64)?;
        if ctx.rank == 0 {
            mpi.send(ctx, buf, 1, dt, 1, 0)?;
        } else {
            mpi.recv(ctx, buf, 1, dt, Some(0), Some(0))?;
        }
        mpi.publish_metrics(&ctx.tracer);
        Ok(())
    })
    .expect("traced send world");

    let evs = parse_events(&tracer);
    assert!(
        evs.iter()
            .any(|e| e["ph"] == "E" && e["args"]["method"] == "Staged"),
        "no span end reports args.method = Staged"
    );
    assert!(
        evs.iter()
            .any(|e| e["ph"] == "B" && e["name"] == "MPI_Send"),
        "no MPI_Send span"
    );
    for phase in ["pack", "copy", "wire", "unpack"] {
        assert!(
            evs.iter().any(|e| e["ph"] == "X" && e["name"] == phase),
            "phase span `{phase}` missing from the staged send trace"
        );
    }
    // the metrics registry drained into JSONL names the send counter
    let jsonl = tracer.metrics_jsonl();
    assert!(
        jsonl.lines().any(|l| l.contains("tempi.staged_sends")),
        "metrics JSONL lacks tempi.staged_sends:\n{jsonl}"
    );
}
