//! `bench_scale`: the event-scheduler scaling sweep.
//!
//! The headline deliverable of the discrete-event runtime: world sizes
//! that the thread-per-rank backend could never reach. Two sweeps run on
//! the Summit profile:
//!
//! * **stencil** — the paper's 26-direction 3-D halo exchange
//!   ([`HaloExchanger`], packed with TEMPI, exchanged with the sparse
//!   `MPI_Alltoallv`) from 8 ranks up through 4,096, plus a 10,000-rank
//!   row proving the "10k ranks on a laptop" claim;
//! * **alltoallv** — the dense all-pairs `MPI_Alltoallv` (every rank
//!   exchanges a slice with every other rank) up through 1,024 ranks,
//!   where the O(size) argument arrays are the workload's own cost.
//!
//! Each row reports the *virtual* time of one steady-state exchange (the
//! slowest rank's, after one warm-up exchange and a clock-synchronizing
//! barrier) — deterministic, so `check_bench` gates on it — and the host
//! wall-clock of the whole world run, which is the scaling headline but
//! is never gated (it is the one noisy column). The stencil rows from 64
//! ranks up must agree within 1 %: a neighbor exchange weak-scales flat.
//!
//! Rows go to `BENCH_scale.json` at the repository root (gate input, or
//! `--out DIR`; a failed write exits non-zero).
//!
//! Run: `cargo run --release -p tempi-bench --bin bench_scale [-- --out DIR]`

use std::time::Instant;

use mpi_sim::{World, WorldConfig};
use tempi_bench::{ScaleRow, Table};
use tempi_core::config::TempiConfig;
use tempi_core::interpose::InterposedMpi;
use tempi_stencil::{HaloConfig, HaloExchanger};

/// Stencil sweep sizes: powers of 8 through 4,096, then the 10,000-rank
/// headline row.
const STENCIL_RANKS: [usize; 5] = [8, 64, 512, 4_096, 10_000];

/// Dense alltoallv sweep sizes (the O(size²) message count keeps this
/// sweep at or below the paper's 1,024-GPU scale).
const ALLTOALLV_RANKS: [usize; 4] = [8, 64, 256, 1_024];

/// Bytes each rank exchanges with every peer in the dense sweep.
const ALLTOALLV_CHUNK: usize = 64;

/// One measured stencil world: warm-up exchange, barrier, measured
/// exchange. Returns the slowest rank's virtual exchange time in ns.
fn stencil_exchange_ns(ranks: usize) -> f64 {
    let cfg = WorldConfig::summit(ranks);
    let results = World::run(&cfg, |ctx| {
        let mut mpi = InterposedMpi::new(TempiConfig::default());
        let mut ex = HaloExchanger::new(ctx, &mut mpi, HaloConfig::small(4))?;
        ex.fill(ctx)?;
        ex.exchange(ctx, &mut mpi)?; // warm-up: plans cached, pools warm
        ctx.barrier();
        let t = ex.exchange(ctx, &mut mpi)?;
        let bad = ex.verify_ghosts(ctx)?;
        assert_eq!(bad, 0, "rank {}: corrupt ghost cells", ctx.rank);
        Ok(t.total().as_ps())
    })
    .expect("stencil world");
    results.into_iter().max().expect("non-empty world") as f64 / 1e3
}

/// One measured dense-alltoallv world, same warm-up/barrier/measure
/// protocol as the stencil sweep.
fn alltoallv_exchange_ns(ranks: usize) -> f64 {
    let cfg = WorldConfig::summit(ranks);
    let results = World::run(&cfg, |ctx| {
        let n = ctx.size;
        let send = ctx.gpu.malloc(ALLTOALLV_CHUNK * n)?;
        let recv = ctx.gpu.malloc(ALLTOALLV_CHUNK * n)?;
        let counts = vec![ALLTOALLV_CHUNK; n];
        let displs: Vec<usize> = (0..n).map(|j| j * ALLTOALLV_CHUNK).collect();
        ctx.alltoallv_bytes(send, &counts, &displs, recv, &counts, &displs)?;
        ctx.barrier();
        let t0 = ctx.clock.now();
        ctx.alltoallv_bytes(send, &counts, &displs, recv, &counts, &displs)?;
        Ok((ctx.clock.now() - t0).as_ps())
    })
    .expect("alltoallv world");
    results.into_iter().max().expect("non-empty world") as f64 / 1e3
}

/// One sweep: workload label, rank counts, measurement entry point.
type Sweep = (&'static str, &'static [usize], fn(usize) -> f64);

fn main() {
    let mut rows: Vec<ScaleRow> = Vec::new();
    let mut t = Table::new(&["workload", "ranks", "exchange(virt)", "wall"]);
    let sweeps: [Sweep; 2] = [
        ("stencil", &STENCIL_RANKS, stencil_exchange_ns),
        ("alltoallv", &ALLTOALLV_RANKS, alltoallv_exchange_ns),
    ];
    for (workload, sizes, run) in sweeps {
        for &ranks in sizes {
            let wall = Instant::now();
            let exchange_ns = run(ranks);
            let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
            t.row(&[
                &workload,
                &ranks,
                &format!("{:.1} µs", exchange_ns / 1e3),
                &format!("{wall_ms:.0} ms"),
            ]);
            rows.push(ScaleRow {
                workload: workload.to_string(),
                ranks,
                exchange_ns,
                wall_ms,
            });
        }
    }
    t.print();

    let headline = rows
        .iter()
        .find(|r| r.workload == "stencil" && r.ranks == 10_000)
        .expect("10k stencil row");
    println!(
        "\n10,000-rank stencil exchange: {:.1} s wall-clock",
        headline.wall_ms / 1e3
    );
    assert!(
        headline.wall_ms < 60_000.0,
        "10,000-rank stencil exchange took {:.1} s — the acceptance bar is 60 s",
        headline.wall_ms / 1e3
    );

    // A nearest-neighbor exchange weak-scales flat: from 64 ranks up every
    // rank has 26 distinct neighbors, and the exchange costs the same.
    let flat = rows
        .iter()
        .filter(|r| r.workload == "stencil" && r.ranks >= 64)
        .map(|r| r.exchange_ns);
    let (lo, hi) = flat.fold((f64::MAX, 0.0_f64), |(lo, hi), ns| (lo.min(ns), hi.max(ns)));
    assert!(
        hi <= lo * 1.01,
        "stencil exchange grows with the world: {lo:.0} ns to {hi:.0} ns from 64 ranks up"
    );

    let write = tempi_bench::out_dir_from_args(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .and_then(|out| tempi_bench::write_rows(&out, "BENCH_scale.json", &rows));
    match write {
        Ok(p) => eprintln!("wrote {}", p.display()),
        Err(e) => {
            eprintln!("bench_scale: {e}");
            std::process::exit(1);
        }
    }
}
