//! Layer probes: the host-clock and allocation rows of the ledger.
//!
//! Each probe calls one public function of one layer directly, the way
//! the workloads reach it indirectly, and reports
//!
//! * `*_host_ns*` — the p1 of at least 1,000 tiny batches (≤ 64 calls) of
//!   that call. On this box a median of batches spread 37–60 % between
//!   identical runs and the floor 2–15 %, so the floor is what is reported,
//!   with (p75 − p25)/p50 printed beside it. Informational: no bound.
//! * `*_allocs` / `*_heap_bytes` — exact allocator calls and bytes per
//!   call, from the counting allocator.
//! * a few `*_virt_*` rows that need a fixed object rather than a
//!   workload.
//!
//! A probe reads the same whichever workload's traced run takes it, so a
//! group runs only where a change to its layer should show ([`GROUPS`]);
//! elsewhere its rows read 0, as the ledger defines for a layer that did
//! not run.

use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

use gpu_sim::{Dim3, LaunchConfig, MemSpace, PackDir, SimTime};
use mpi_sim::datatype::{pack_cpu, typemap};
use mpi_sim::{AlltoallvBlock, MpiError, MpiResult, RankCtx, World, WorldConfig};
use tempi_core::buffers::BufferPool;
use tempi_core::config::{Method, TunerMode};
use tempi_core::ir::strided_block::strided_block;
use tempi_core::ir::transform::simplify;
use tempi_core::ir::translate::{translate, Translated};
use tempi_core::kernels::{execute_blocklist, execute_dma_2d, execute_strided, select_kernel};
use tempi_core::tuner::Workload as TunerWorkload;
use tempi_core::{
    BucketKey, InterposedMpi, PlanKind, SendModel, TempiConfig, TraceLevel, Tracer, Tuner,
};
use tempi_stencil::{HaloConfig, HaloExchanger};
use tempi_trace::{Args, LANE_CPU};

use crate::alloc::{self, Snapshot};
use crate::hygiene::{vm_rss_kib, ROOFLINE_BYTES};
use crate::ledger::Ledger;
use crate::objects::{Construction, Recipe};
use crate::spans::Recorder;
use crate::stats;

const MIB: f64 = (1u64 << 20) as f64;

/// Tiny batches per host-time probe.
const BATCHES: usize = 1000;

/// Ranks of the probe worlds (the scale workloads are what thousands of
/// ranks cost; these give the per-rank unit prices).
const SCHED_RANKS: usize = 512;
const COLLECTIVE_RANKS: usize = 256;
const STENCIL_RANKS: usize = 216;

/// A host-time reading: the floor, and how wide the samples spread.
#[derive(Debug, Clone, Copy)]
struct Floor {
    /// p1 of the per-call ns over the batches.
    ns: f64,
    /// (p75 − p25) / p50.
    spread: f64,
}

fn summarise(samples: &mut [f64]) -> Floor {
    let (p1, p25, p50, p75) = stats::floor_and_quartiles(samples);
    Floor {
        ns: p1,
        spread: if p50 > 0.0 { (p75 - p25) / p50 } else { 0.0 },
    }
}

/// Time `batches` batches of `calls` back-to-back calls of `f`.
fn floor(batches: usize, calls: usize, mut f: impl FnMut()) -> Floor {
    let mut samples = Vec::with_capacity(batches);
    for _ in 0..batches {
        let t = Instant::now();
        for _ in 0..calls {
            f();
        }
        samples.push(t.elapsed().as_nanos() as f64 / calls as f64);
    }
    summarise(&mut samples)
}

/// Time single calls of `f`, each on a fresh input from `prep` (untimed).
fn floor_prepared<X>(batches: usize, mut prep: impl FnMut() -> X, mut f: impl FnMut(X)) -> Floor {
    let mut samples = Vec::with_capacity(batches);
    for _ in 0..batches {
        let x = prep();
        let t = Instant::now();
        f(x);
        samples.push(t.elapsed().as_nanos() as f64);
    }
    summarise(&mut samples)
}

/// Allocator calls and bytes per call of `f`, over `calls` calls.
fn allocs_per_call(calls: usize, mut f: impl FnMut()) -> (f64, f64) {
    let ((), n, bytes) = alloc::count(|| {
        for _ in 0..calls {
            f();
        }
    });
    (n as f64 / calls as f64, bytes as f64 / calls as f64)
}

/// Collects rows and the lines printed beside them.
struct Sink<'a> {
    ledger: &'a mut Ledger,
    notes: Vec<String>,
}

impl Sink<'_> {
    fn host(&mut self, name: &str, f: Floor) {
        self.host_scaled(name, f, 1.0);
    }

    /// Record a floor as `f.ns × scale` (per MiB, per rank, …).
    fn host_scaled(&mut self, name: &str, f: Floor, scale: f64) {
        self.ledger.set(name, f.ns * scale);
        self.notes.push(format!(
            "{name}: floor {:.1}, (p75-p25)/p50 {:.3}",
            f.ns * scale,
            f.spread
        ));
    }

    fn set(&mut self, name: &str, v: f64) {
        self.ledger.set(name, v);
    }
}

fn summit(ranks: usize) -> WorldConfig {
    WorldConfig::summit(ranks).with_sched_workers(1)
}

fn mpi_err(what: &str) -> impl Fn(MpiError) -> String + '_ {
    move |e| format!("probe {what}: {e}")
}

type Probe = fn(&mut Sink) -> Result<(), String>;

const EVERY_WORKLOAD: &[&str] = &[];

/// The probe groups, and for each the workloads whose traced run takes it:
/// those the "should move" map of its rows names (`--list`). An empty list
/// is every workload: the harness's own rows, and the tracer's, which is
/// attached in every traced run.
const GROUPS: [(&str, &[&str], Probe); 10] = [
    ("probes.harness", EVERY_WORKLOAD, harness),
    (
        "probes.datatype_ir",
        &["commit_churn", "pack_zoo"],
        datatype_and_ir,
    ),
    (
        "probes.commit_interpose",
        &["commit_churn", "send_latency"],
        commit_and_interpose,
    ),
    (
        "probes.kernels_gpu",
        &["pack_zoo", "send_latency", "send_bandwidth", "halo_scale"],
        kernels_and_gpu,
    ),
    (
        "probes.model_tuner_buffers",
        &["send_latency", "send_bandwidth"],
        model_tuner_buffers,
    ),
    ("probes.trace", EVERY_WORKLOAD, trace),
    ("probes.p2p", &["send_latency", "send_bandwidth"], p2p),
    ("probes.sched", &["halo_scale", "alltoallv_dense"], sched),
    (
        "probes.collective",
        &["halo_scale", "alltoallv_dense"],
        collective,
    ),
    ("probes.stencil", &["halo_scale"], stencil),
];

/// Run the probe groups of `workload` and fill their rows of the ledger
/// (the rows of the other groups stay 0); returns the lines to print.
pub fn run(workload: &str, ledger: &mut Ledger, rec: &mut Recorder) -> Result<Vec<String>, String> {
    let mut sink = Sink {
        ledger,
        notes: Vec::new(),
    };
    for (name, workloads, probe) in GROUPS {
        if workloads.is_empty() || workloads.contains(&workload) {
            rec.span(name, |_| probe(&mut sink))?;
        }
    }
    Ok(sink.notes)
}

fn harness(s: &mut Sink) -> Result<(), String> {
    let f = floor(BATCHES, 64, || {
        black_box(Instant::now());
    });
    s.host("harness.timer_overhead_ns", f);
    Ok(())
}

/// The 3-D object of the paper's Fig. 2, as one subarray: the deepest
/// tree the translation sees in the workloads.
fn fig2_3d() -> Recipe {
    Recipe::three_d(256, 100, 13, 47, Construction::Subarray)
}

fn datatype_and_ir(s: &mut Sink) -> Result<(), String> {
    let e = mpi_err("datatype/ir");
    let mut ctx = RankCtx::standalone(&summit(1));
    let recipe = fig2_3d();

    // mpi-sim::datatype: create and free
    let mut built = Vec::with_capacity(BATCHES);
    let f = floor_prepared(BATCHES, || (), |()| built.push(recipe.build(&mut ctx)));
    s.host("mpi-sim.datatype.create_host_ns", f);
    let f = floor_prepared(
        BATCHES,
        || built.pop().expect("one type per batch"),
        |b| {
            b.and_then(|b| b.free(&mut ctx))
                .expect("free of a live type");
        },
    );
    s.host("mpi-sim.datatype.free_host_ns", f);
    let (n, _) = allocs_per_call(64, || {
        black_box(recipe.build(&mut ctx)).expect("create");
    });
    s.set("mpi-sim.datatype.create_allocs", n);

    // typemap flattening and the CPU reference pack, on 16 KiB in 64 B blocks
    let strided = Recipe::two_d(16 << 10, 64, Construction::Vector);
    let dt = strided.build(&mut ctx).map_err(&e)?.dt;
    let reg = ctx.registry().clone();
    let f = floor(BATCHES, 1, || {
        black_box(typemap::segments(&reg.read(), dt)).expect("segments");
    });
    s.host("mpi-sim.datatype.segments_host_ns", f);
    let src = vec![7u8; strided.span()];
    let mut dst = vec![0u8; strided.data_bytes()];
    let segs = typemap::segments(&reg.read(), dt).map_err(&e)?;
    let f = floor(BATCHES, 1, || {
        pack_cpu::pack_with_segments(&reg.read(), &segs, &src, 0, 1, dt, &mut dst, &mut 0)
            .expect("cpu pack");
        black_box(&dst);
    });
    s.host_scaled(
        "mpi-sim.datatype.pack_cpu_host_ns_per_mib",
        f,
        MIB / strided.data_bytes() as f64,
    );

    // ir: translate → simplify → strided_block on the Fig. 2 object
    let dt = recipe.build(&mut ctx).map_err(&e)?.dt;
    let f = floor(BATCHES, 8, || {
        black_box(translate(&mut ctx, dt)).expect("translate");
    });
    s.host("ir.translate_host_ns", f);
    let (n, _) = allocs_per_call(64, || {
        black_box(translate(&mut ctx, dt)).expect("translate");
    });
    s.set("ir.translate_allocs", n);
    let Translated::Strided(tree) = translate(&mut ctx, dt).map_err(&e)? else {
        return Err("probe ir: the Fig. 2 subarray did not translate to a strided tree".into());
    };
    let f = floor_prepared(
        BATCHES,
        || tree.clone(),
        |t| {
            black_box(simplify(t));
        },
    );
    s.host("ir.simplify_host_ns", f);
    // `simplify` consumes its tree: count the clone alone and take it off
    let (with_clone, _) = allocs_per_call(64, || {
        black_box(simplify(tree.clone()));
    });
    let (clone_only, _) = allocs_per_call(64, || {
        black_box(tree.clone());
    });
    s.set("ir.simplify_allocs", with_clone - clone_only);
    let (canon, _) = simplify(tree);
    let f = floor(BATCHES, 16, || {
        black_box(strided_block(&canon));
    });
    s.host("ir.strided_block_host_ns", f);
    let sb = strided_block(&canon).ok_or("probe ir: canonical tree is not a strided block")?;
    let f = floor_prepared(
        BATCHES,
        || sb.clone(),
        |sb| {
            black_box(select_kernel(sb, None));
        },
    );
    s.host("kernels.select_host_ns", f);
    Ok(())
}

fn commit_and_interpose(s: &mut Sink) -> Result<(), String> {
    let e = mpi_err("commit/interpose");
    let mut ctx = RankCtx::standalone(&summit(1));
    let mut mpi = InterposedMpi::new(TempiConfig::default());
    let recipe = fig2_3d();

    let mut fresh = (0..BATCHES)
        .map(|_| recipe.build(&mut ctx))
        .collect::<MpiResult<Vec<_>>>()
        .map_err(&e)?;
    let f = floor_prepared(
        BATCHES,
        || fresh.pop().expect("one type per batch"),
        |b| {
            mpi.type_commit(&mut ctx, b.dt).expect("cold commit");
        },
    );
    s.host("tempi.commit_cold_host_ns", f);
    let b = recipe.build(&mut ctx).map_err(&e)?;
    let (n, _) = allocs_per_call(1, || {
        mpi.type_commit(&mut ctx, b.dt).expect("cold commit");
    });
    s.set("tempi.commit_allocs", n);
    let f = floor(BATCHES, 64, || {
        mpi.type_commit(&mut ctx, b.dt).expect("cached commit");
    });
    s.host("tempi.commit_cached_host_ns", f);

    // the lightest interposed call: resolve, log, plan lookup
    let f = floor(BATCHES, 64, || {
        black_box(mpi.pack_size(&mut ctx, 1, b.dt)).expect("pack_size");
    });
    s.host("interpose.dispatch_host_ns", f);
    let (n, bytes) = allocs_per_call(4096, || {
        black_box(mpi.pack_size(&mut ctx, 1, b.dt)).expect("pack_size");
    });
    s.set("interpose.dispatch_allocs", n);
    s.set("interpose.dispatch_heap_bytes", bytes);
    Ok(())
}

fn kernels_and_gpu(s: &mut Sink) -> Result<(), String> {
    let e = mpi_err("kernels/gpu");
    let g = |e: gpu_sim::GpuError| format!("probe kernels/gpu: {e}");
    let mut ctx = RankCtx::standalone(&summit(1));
    let mut mpi = InterposedMpi::new(TempiConfig::default());
    // 128 KiB in 64 B blocks: 2,048 block copies per call
    let recipe = Recipe::two_d(128 << 10, 64, Construction::Vector);
    let bytes = recipe.data_bytes();
    let per_mib = MIB / bytes as f64;
    let dt = recipe.build(&mut ctx).map_err(&e)?.dt;
    mpi.type_commit(&mut ctx, dt).map_err(&e)?;
    let plan = mpi.tempi.plan(dt).ok_or("probe kernels: no plan")?;
    let PlanKind::Strided(kp) = &plan.kind else {
        return Err("probe kernels: the 2-D object has no strided plan".into());
    };
    let src = ctx.gpu.malloc(recipe.span()).map_err(g)?;
    let dst = ctx.gpu.malloc(bytes).map_err(g)?;

    // pack beside a plain copy of the same bytes, interleaved batch by
    // batch so both see the same machine state (Eijkhout's reference)
    let plain_src = vec![3u8; bytes];
    let mut plain_dst = vec![0u8; bytes];
    let (mut pack_ns, mut copy_ns) = (Vec::with_capacity(BATCHES), Vec::with_capacity(BATCHES));
    for _ in 0..BATCHES {
        let t = Instant::now();
        execute_strided(
            kp,
            &mut ctx.stream,
            &mut ctx.clock,
            PackDir::Pack,
            src,
            plan.extent,
            1,
            dst,
            0,
        )
        .expect("pack kernel");
        pack_ns.push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        plain_dst.copy_from_slice(black_box(&plain_src));
        black_box(&mut plain_dst);
        copy_ns.push(t.elapsed().as_nanos() as f64);
    }
    let (pack, copy) = (summarise(&mut pack_ns), summarise(&mut copy_ns));
    s.host_scaled("kernels.pack_host_ns_per_mib", pack, per_mib);
    s.set("kernels.pack_vs_memcpy_ratio", pack.ns / copy.ns);
    let f = floor(BATCHES, 1, || {
        execute_strided(
            kp,
            &mut ctx.stream,
            &mut ctx.clock,
            PackDir::Unpack,
            src,
            plan.extent,
            1,
            dst,
            0,
        )
        .expect("unpack kernel");
    });
    s.host_scaled("kernels.unpack_host_ns_per_mib", f, per_mib);
    let (n, _) = allocs_per_call(64, || {
        execute_strided(
            kp,
            &mut ctx.stream,
            &mut ctx.clock,
            PackDir::Pack,
            src,
            plan.extent,
            1,
            dst,
            0,
        )
        .expect("pack kernel");
    });
    s.set("kernels.pack_allocs", n);
    let f = floor(BATCHES, 1, || {
        execute_dma_2d(
            kp,
            &mut ctx.stream,
            &mut ctx.clock,
            PackDir::Pack,
            src,
            plan.extent,
            1,
            dst,
            0,
        )
        .expect("2-D DMA");
    });
    s.host_scaled("kernels.dma_host_ns_per_mib", f, per_mib);

    // block-list kernel: the zoo's indexed_block (512 × 128 B)
    let cyclic = Recipe::indexed_block(512, 128, 512);
    let cdt = cyclic.build(&mut ctx).map_err(&e)?.dt;
    mpi.type_commit(&mut ctx, cdt).map_err(&e)?;
    let cplan = mpi.tempi.plan(cdt).ok_or("probe kernels: no plan")?;
    let PlanKind::Blocks(bl) = &cplan.kind else {
        return Err("probe kernels: indexed_block has no block-list plan".into());
    };
    let csrc = ctx.gpu.malloc(cyclic.span()).map_err(g)?;
    let f = floor(BATCHES, 1, || {
        execute_blocklist(
            bl,
            &mut ctx.stream,
            &mut ctx.clock,
            PackDir::Pack,
            csrc,
            cplan.extent,
            1,
            dst,
            0,
        )
        .expect("block-list kernel");
    });
    s.host_scaled(
        "kernels.blocklist_host_ns_per_mib",
        f,
        MIB / cyclic.data_bytes() as f64,
    );

    // the vendor baseline on the same 2-D object, in virtual time
    let mut sys = InterposedMpi::system_only();
    let t0 = ctx.clock.now();
    sys.pack(&mut ctx, src, 1, dt, dst, bytes, &mut 0)
        .map_err(&e)?;
    s.set(
        "mpi-sim.vendor.baseline_pack_virt_ns_per_mib",
        (ctx.clock.now() - t0).as_ns_f64() * per_mib,
    );

    // gpu-sim: launch, device copy, malloc/free
    let cfg = LaunchConfig {
        grid: Dim3::ONE,
        block: Dim3::new(32, 1, 1),
    };
    let f = floor(BATCHES, 64, || {
        ctx.stream
            .launch(&mut ctx.clock, "probe", cfg, SimTime::ZERO, |_| Ok(()))
            .expect("empty launch");
    });
    s.host("gpu-sim.stream.launch_host_ns", f);
    let (n, _) = allocs_per_call(64, || {
        ctx.stream
            .launch(&mut ctx.clock, "probe", cfg, SimTime::ZERO, |_| Ok(()))
            .expect("empty launch");
    });
    s.set("gpu-sim.stream.launch_allocs", n);
    let d2 = ctx.gpu.malloc(bytes).map_err(g)?;
    let f = floor(BATCHES, 1, || {
        ctx.stream
            .memcpy(&mut ctx.clock, d2, dst, bytes)
            .expect("device copy");
    });
    s.host_scaled("gpu-sim.stream.memcpy_host_ns_per_mib", f, per_mib);
    let f = floor(BATCHES, 16, || {
        let p = ctx.gpu.malloc(4096).expect("malloc");
        ctx.gpu.free(p).expect("free");
    });
    s.host("gpu-sim.memory.malloc_free_host_ns", f);

    // the machine, not the code: a plain copy between two buffers far
    // larger than L2
    let big_src = vec![1u8; ROOFLINE_BYTES];
    let mut big_dst = vec![0u8; ROOFLINE_BYTES];
    let f = floor(48, 1, || {
        big_dst.copy_from_slice(black_box(&big_src));
        black_box(&mut big_dst);
    });
    s.host_scaled(
        "gpu-sim.memory.memcpy_roofline_ns_per_mib",
        f,
        MIB / ROOFLINE_BYTES as f64,
    );
    Ok(())
}

fn model_tuner_buffers(s: &mut Sink) -> Result<(), String> {
    let model = SendModel::summit_internode();
    let f = floor(BATCHES, 64, || {
        black_box(model.choose(black_box(1 << 20), 64, 8));
    });
    s.host("model.choose_host_ns", f);

    let mut tuner = Tuner::new(TunerMode::Model, 1);
    let key = BucketKey::new(1, 64, 1 << 20, false);
    let wl = TunerWorkload {
        bytes: 1 << 20,
        block: 64,
        word: 8,
    };
    let allowed = [Method::Device, Method::OneShot, Method::Staged];
    let f = floor(BATCHES, 64, || {
        black_box(tuner.choose(key, wl, &model, &allowed, SimTime::ZERO));
    });
    s.host("tuner.choose_host_ns", f);

    let mut ctx = RankCtx::standalone(&summit(1));
    let mut pool = BufferPool::new();
    for len in [1 << 10, 64 << 10, 1 << 20] {
        let (p, sz) = pool
            .take(&mut ctx, MemSpace::Device, len)
            .map_err(mpi_err("buffers"))?;
        pool.put(p, sz);
    }
    let f = floor(BATCHES, 64, || {
        let (p, sz) = pool
            .take(&mut ctx, MemSpace::Device, 64 << 10)
            .expect("pooled take");
        pool.put(p, sz);
    });
    s.host("buffers.take_put_host_ns", f);
    Ok(())
}

fn trace(s: &mut Sink) -> Result<(), String> {
    // what one recorded event costs the allocator, exactly
    let tracer = Tracer::new(TraceLevel::Full);
    let rounds = 1024;
    let (per_round, bytes) = allocs_per_call(rounds, || {
        tracer.begin(0, LANE_CPU, "probe", "span", 1);
        tracer.complete(0, LANE_CPU, "probe", "phase", 1, 1, || {
            vec![("bytes", 64u64.into())]
        });
        tracer.debug_instant(0, LANE_CPU, "probe", "decide", 1, || {
            vec![("method", "Device".into())]
        });
        tracer.end_args(0, LANE_CPU, 2, || vec![("ok", true.into())] as Args);
    });
    s.set("trace.allocs_per_event", per_round / 4.0);
    s.set("trace.heap_bytes_per_event", bytes / 4.0);

    // the same MPI_Pack with the tracer off and at Full
    let e = mpi_err("trace");
    let recipe = Recipe::two_d(1 << 10, 64, Construction::Vector);
    let mut floors = [0.0f64; 2];
    for (slot, traced) in floors.iter_mut().zip([false, true]) {
        let cfg = if traced {
            summit(1).with_tracer(Tracer::new(TraceLevel::Full))
        } else {
            summit(1)
        };
        let mut ctx = RankCtx::standalone(&cfg);
        let mut mpi = InterposedMpi::new(TempiConfig::default());
        let dt = recipe.build(&mut ctx).map_err(&e)?.dt;
        mpi.type_commit(&mut ctx, dt).map_err(&e)?;
        let g = |e: gpu_sim::GpuError| format!("probe trace: {e}");
        let src = ctx.gpu.malloc(recipe.span()).map_err(g)?;
        let dst = ctx.gpu.malloc(recipe.data_bytes()).map_err(g)?;
        let cap = recipe.data_bytes();
        *slot = floor(BATCHES, 16, || {
            mpi.pack(&mut ctx, src, 1, dt, dst, cap, &mut 0)
                .expect("pack");
        })
        .ns;
    }
    s.set("trace.host_overhead_ratio", floors[1] / floors[0]);
    s.notes.push(format!(
        "trace.host_overhead_ratio: MPI_Pack floor {:.1} ns traced / {:.1} ns untraced",
        floors[1], floors[0]
    ));
    Ok(())
}

/// What rank 0 and rank 1 of the two-rank probe world bring back.
#[derive(Default)]
struct P2p {
    call_ns: Vec<f64>,
    call_allocs: u64,
    pingpong_ns: Vec<f64>,
    pingpong_allocs: u64,
    wire_ps: u64,
}

fn p2p(s: &mut Sink) -> Result<(), String> {
    const REPS: usize = BATCHES;
    const PING: usize = 1 << 10;
    const WIRE: usize = 1 << 20;
    let mut cfg = summit(2);
    cfg.net.ranks_per_node = 1;
    let recipe = Recipe::two_d(64 << 10, 64, Construction::Hvector);
    let outs = World::run(&cfg, |ctx| {
        let mut mpi = InterposedMpi::new(TempiConfig::default());
        let dt = recipe.build(ctx)?.dt;
        mpi.type_commit(ctx, dt)?;
        let buf = ctx.gpu.malloc(recipe.span().max(WIRE))?;
        let (me, peer) = (ctx.rank, 1 - ctx.rank);
        let mut o = P2p {
            call_ns: Vec::with_capacity(REPS),
            pingpong_ns: Vec::with_capacity(REPS),
            ..P2p::default()
        };
        for _ in 0..4 {
            ctx.barrier();
            if me == 0 {
                mpi.send(ctx, buf, 1, dt, 1, 0)?;
            } else {
                mpi.recv(ctx, buf, 1, dt, Some(0), Some(0))?;
            }
        }
        // One typed send, then one typed receive, each while the other
        // rank is parked in a barrier: the window holds one call only.
        for _ in 0..REPS {
            ctx.barrier();
            if me == 0 {
                let (a, t) = (Snapshot::now(), Instant::now());
                mpi.send(ctx, buf, 1, dt, 1, 0)?;
                o.call_ns.push(t.elapsed().as_nanos() as f64);
                o.call_allocs += Snapshot::now().since(&a).0;
                ctx.barrier();
            } else {
                ctx.barrier();
                let (a, t) = (Snapshot::now(), Instant::now());
                mpi.recv(ctx, buf, 1, dt, Some(0), Some(0))?;
                o.call_ns.push(t.elapsed().as_nanos() as f64);
                o.call_allocs += Snapshot::now().since(&a).0;
            }
            ctx.barrier();
        }
        // contiguous ping-pong under the interposer: the round trip
        ctx.barrier();
        for _ in 0..REPS {
            if me == 0 {
                let (a, t) = (Snapshot::now(), Instant::now());
                ctx.send_bytes(buf, PING, peer, 1)?;
                ctx.recv_bytes(buf, PING, Some(peer), Some(1))?;
                o.pingpong_ns.push(t.elapsed().as_nanos() as f64);
                o.pingpong_allocs += Snapshot::now().since(&a).0;
            } else {
                ctx.recv_bytes(buf, PING, Some(peer), Some(1))?;
                ctx.send_bytes(buf, PING, peer, 1)?;
            }
        }
        // one contiguous MiB over the wire, device to device
        ctx.barrier();
        if me == 0 {
            ctx.send_bytes(buf, WIRE, 1, 2)?;
        } else {
            let t0 = ctx.clock.now();
            ctx.recv_bytes(buf, WIRE, Some(0), Some(2))?;
            o.wire_ps = (ctx.clock.now() - t0).as_ps();
        }
        Ok(o)
    })
    .map_err(mpi_err("p2p"))?;
    let [mut sender, receiver]: [P2p; 2] =
        outs.try_into().map_err(|_| "probe p2p: not two ranks")?;
    s.host("tempi.send_host_ns", summarise(&mut sender.call_ns));
    s.set("tempi.send_allocs", sender.call_allocs as f64 / REPS as f64);
    s.set(
        "tempi.recv_allocs",
        receiver.call_allocs as f64 / REPS as f64,
    );
    s.host(
        "mpi-sim.p2p.pingpong_host_ns",
        summarise(&mut sender.pingpong_ns),
    );
    s.set(
        "mpi-sim.p2p.pingpong_allocs",
        sender.pingpong_allocs as f64 / REPS as f64,
    );
    s.set(
        "mpi-sim.p2p.wire_virt_ns_per_mib",
        receiver.wire_ps as f64 / 1e3 * MIB / WIRE as f64,
    );
    Ok(())
}

fn sched(s: &mut Sink) -> Result<(), String> {
    let n = SCHED_RANKS;
    // a world that does nothing: what spawning and joining a rank costs
    let mut spawn_ns = Vec::with_capacity(5);
    let mut spawn_bytes = 0;
    for _ in 0..5 {
        let (a, t) = (Snapshot::now(), Instant::now());
        World::run(&summit(n), |_| Ok(())).map_err(mpi_err("sched"))?;
        spawn_ns.push(t.elapsed().as_nanos() as f64 / n as f64);
        spawn_bytes = Snapshot::now().since(&a).1;
    }
    s.host_scaled(
        "mpi-sim.sched.spawn_host_us_per_rank",
        summarise(&mut spawn_ns),
        1e-3,
    );
    s.set(
        "mpi-sim.sched.spawn_heap_kib_per_rank",
        spawn_bytes as f64 / 1024.0 / n as f64,
    );

    let rss_before = vm_rss_kib().unwrap_or(0);
    let marks = Mutex::new((0u64, Vec::new()));
    World::run(&summit(n), |ctx| {
        ctx.barrier();
        if ctx.rank == 0 {
            // with one worker every rank's share of a barrier runs between
            // rank 0 entering it and rank 0 leaving it
            let mut ns = Vec::with_capacity(64);
            for _ in 0..64 {
                let t = Instant::now();
                ctx.barrier();
                ns.push(t.elapsed().as_nanos() as f64 / n as f64);
            }
            *marks.lock().expect("only rank 0 marks") = (vm_rss_kib().unwrap_or(0), ns);
        } else {
            for _ in 0..64 {
                ctx.barrier();
            }
        }
        Ok(())
    })
    .map_err(mpi_err("sched"))?;
    let (rss_inside, mut barrier_ns) = marks.into_inner().expect("world has ended");
    s.set(
        "mpi-sim.sched.rss_kib_per_rank",
        rss_inside.saturating_sub(rss_before) as f64 / n as f64,
    );
    s.host(
        "mpi-sim.sched.barrier_host_ns_per_rank",
        summarise(&mut barrier_ns),
    );
    Ok(())
}

/// Rank 0's host window and allocation count around one collective that
/// every rank runs between two barriers.
fn windowed<T>(
    ctx: &mut RankCtx,
    reps: usize,
    mut op: impl FnMut(&mut RankCtx) -> MpiResult<T>,
) -> MpiResult<(Vec<f64>, u64)> {
    let mut ns = Vec::with_capacity(reps);
    let mut allocs = 0;
    for _ in 0..reps {
        ctx.barrier();
        let mark = (ctx.rank == 0).then(|| (Snapshot::now(), Instant::now()));
        op(ctx)?;
        ctx.barrier();
        if let Some((a, t)) = mark {
            ns.push(t.elapsed().as_nanos() as f64);
            allocs += Snapshot::now().since(&a).0;
        }
    }
    Ok((ns, allocs))
}

fn collective(s: &mut Sink) -> Result<(), String> {
    const CHUNK: usize = 64;
    const REPS: usize = 8;
    let n = COLLECTIVE_RANKS;
    let outs = World::run(&summit(n), |ctx| {
        let mut mpi = InterposedMpi::new(TempiConfig::default());
        let send = ctx.gpu.malloc(CHUNK * n)?;
        let recv = ctx.gpu.malloc(CHUNK * n)?;
        let counts = vec![CHUNK; n];
        let displs: Vec<usize> = (0..n).map(|j| j * CHUNK).collect();
        // ring neighbours, in ascending peer order
        let mut ring = [(ctx.rank + 1) % n, (ctx.rank + n - 1) % n];
        ring.sort_unstable();
        let blocks: Vec<AlltoallvBlock> = ring
            .iter()
            .enumerate()
            .map(|(k, &peer)| AlltoallvBlock {
                peer,
                count: CHUNK,
                displ: k * CHUNK,
            })
            .collect();
        ctx.alltoallv_bytes(send, &counts, &displs, recv, &counts, &displs)?;
        ctx.alltoallv_sparse_bytes(send, &blocks, recv, &blocks)?;
        let dense = windowed(ctx, REPS, |ctx| {
            ctx.alltoallv_bytes(send, &counts, &displs, recv, &counts, &displs)
        })?;
        let sparse = windowed(ctx, REPS, |ctx| {
            ctx.alltoallv_sparse_bytes(send, &blocks, recv, &blocks)
        })?;
        // the same collective through the interposer and straight to the
        // system MPI: what falling through costs in virtual time
        ctx.barrier();
        let t0 = ctx.clock.now();
        mpi.alltoallv_bytes(ctx, send, &counts, &displs, recv, &counts, &displs)?;
        let through = ctx.clock.now() - t0;
        ctx.barrier();
        let t0 = ctx.clock.now();
        ctx.alltoallv_bytes(send, &counts, &displs, recv, &counts, &displs)?;
        let direct = ctx.clock.now() - t0;
        Ok((dense, sparse, through.as_ns_f64() - direct.as_ns_f64()))
    })
    .map_err(mpi_err("collective"))?;
    let ((mut dense_ns, dense_allocs), (mut sparse_ns, sparse_allocs), overhead) = outs
        .into_iter()
        .next()
        .ok_or("probe collective: no rank 0")?;
    let per = 1.0 / n as f64;
    s.host_scaled(
        "mpi-sim.collective.alltoallv_dense_host_ns_per_pair",
        summarise(&mut dense_ns),
        per * per,
    );
    s.set(
        "mpi-sim.collective.alltoallv_dense_allocs_per_rank",
        dense_allocs as f64 / REPS as f64 * per,
    );
    s.host_scaled(
        "mpi-sim.collective.alltoallv_sparse_host_ns_per_rank",
        summarise(&mut sparse_ns),
        per,
    );
    s.set(
        "mpi-sim.collective.alltoallv_sparse_allocs_per_rank",
        sparse_allocs as f64 / REPS as f64 * per,
    );
    s.set("interpose.passthrough_virt_overhead_ns", overhead);
    Ok(())
}

fn stencil(s: &mut Sink) -> Result<(), String> {
    const REPS: usize = 4;
    let n = STENCIL_RANKS;
    let outs = World::run(&summit(n), |ctx| {
        let mut mpi = InterposedMpi::new(TempiConfig::default());
        // `new` neither sends nor waits, so nothing else runs inside
        let (a, t) = (Snapshot::now(), Instant::now());
        let mut ex = HaloExchanger::new(ctx, &mut mpi, HaloConfig::small(4))?;
        let new_ns = t.elapsed().as_nanos() as f64;
        let new_allocs = Snapshot::now().since(&a).0;
        ex.fill(ctx)?;
        ex.exchange(ctx, &mut mpi)?;
        let (_, exchange_allocs) = windowed(ctx, REPS, |ctx| ex.exchange(ctx, &mut mpi))?;
        Ok((new_ns, new_allocs, exchange_allocs))
    })
    .map_err(mpi_err("stencil"))?;
    let mut new_ns: Vec<f64> = outs.iter().map(|o| o.0).collect();
    let new_allocs: u64 = outs.iter().map(|o| o.1).sum();
    s.host_scaled("stencil.new_host_us_per_rank", summarise(&mut new_ns), 1e-3);
    s.set("stencil.new_allocs_per_rank", new_allocs as f64 / n as f64);
    s.set(
        "stencil.exchange_allocs_per_rank",
        outs[0].2 as f64 / REPS as f64 / n as f64,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floors_sit_at_or_below_the_median() {
        let mut v = vec![0u64; 64];
        let f = floor(200, 8, || {
            for x in v.iter_mut() {
                *x = black_box(*x + 1);
            }
        });
        assert!(f.ns > 0.0 && f.spread >= 0.0);
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarise(&mut xs);
        assert!(s.ns < 3.0 && (s.spread - 49.5 / 50.5).abs() < 1e-9);
    }

    #[test]
    fn allocs_per_call_counts_exactly() {
        let (n, bytes) = allocs_per_call(10, || {
            black_box(Vec::<u8>::with_capacity(100));
        });
        assert_eq!((n, bytes), (1.0, 100.0));
    }

    #[test]
    fn every_probe_runs_where_its_layer_should_move_and_fills_its_rows() {
        let filled = |workload: &str| {
            let mut ledger = Ledger::default();
            let notes = run(workload, &mut ledger, &mut Recorder::new("test")).expect("probes run");
            assert!(notes.iter().any(|n| n.contains("(p75-p25)/p50")));
            ledger
        };
        let on = [
            (
                "commit_churn",
                vec![
                    "interpose.dispatch_host_ns",
                    "tempi.commit_cold_host_ns",
                    "ir.translate_host_ns",
                    "mpi-sim.datatype.create_host_ns",
                ],
            ),
            (
                "send_bandwidth",
                vec![
                    "tempi.send_host_ns",
                    "kernels.pack_host_ns_per_mib",
                    "kernels.pack_vs_memcpy_ratio",
                    "model.choose_host_ns",
                    "tuner.choose_host_ns",
                    "buffers.take_put_host_ns",
                    "gpu-sim.memory.memcpy_roofline_ns_per_mib",
                    "mpi-sim.p2p.pingpong_host_ns",
                ],
            ),
            (
                "halo_scale",
                vec![
                    "mpi-sim.sched.spawn_host_us_per_rank",
                    "mpi-sim.collective.alltoallv_dense_host_ns_per_pair",
                    "stencil.new_host_us_per_rank",
                ],
            ),
        ];
        for (workload, rows) in on {
            let ledger = filled(workload);
            for name in rows
                .into_iter()
                .chain(["trace.allocs_per_event", "harness.timer_overhead_ns"])
            {
                assert!(
                    ledger.get(name) > 0.0,
                    "{name} on {workload} is {}",
                    ledger.get(name)
                );
            }
            if workload == "halo_scale" {
                // the interposer adds no virtual time to a call it passes through
                assert_eq!(ledger.get("interpose.passthrough_virt_overhead_ns"), 0.0);
                // a group whose layer should not move here did not run
                assert_eq!(ledger.get("tempi.commit_cold_host_ns"), 0.0);
            }
        }
        // every group runs on some workload of the spec
        for (name, workloads, _) in GROUPS {
            for w in workloads {
                assert!(crate::spec::workload(w).is_some(), "{name} names {w}");
            }
        }
    }
}
