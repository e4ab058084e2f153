//! Fig. 12: 3-D stencil halo-exchange speedup, TEMPI vs Spectrum MPI.
//!
//! Weak scaling: each rank owns an `N³` subdomain (the paper uses 512³;
//! default here is 32³ for a CI-sized run — set `TEMPI_BENCH_FULL=1` for
//! 96³ — the substitution is documented in DESIGN.md). For each rank count
//! the halo exchange runs against the system baseline and against TEMPI;
//! the figure reports total / pack / unpack speedups. The paper's shape:
//! pack and unpack speedups are enormous (up to ~10⁴), the iteration
//! speedup shrinks as rank count grows because inter-GPU communication
//! takes a relatively larger share.
//!
//! Run: `cargo run --release -p tempi-bench --bin fig12`

use gpu_sim::SimTime;
use mpi_sim::{World, WorldConfig};
use tempi_bench::{fmt_speedup, Table};
use tempi_core::config::TempiConfig;
use tempi_core::interpose::InterposedMpi;
use tempi_stencil::{ExchangeTiming, HaloConfig, HaloExchanger};

/// Run the exchange on `p` ranks; returns the max-over-ranks phase times
/// (the iteration is gated by the slowest rank).
fn run(p: usize, n: usize, interposed: bool) -> ExchangeTiming {
    let mut cfg = WorldConfig::summit(p);
    cfg.net.ranks_per_node = 2;
    let per_rank = World::run(&cfg, |ctx| {
        let mut mpi = if interposed {
            InterposedMpi::new(TempiConfig::default())
        } else {
            InterposedMpi::system_only()
        };
        let mut ex = HaloExchanger::new(ctx, &mut mpi, HaloConfig::small(n))?;
        ex.fill(ctx)?;
        // warm-up exchange, then a measured steady-state one
        ex.exchange(ctx, &mut mpi)?;
        ctx.barrier();
        ctx.reset_clock();
        let t = ex.exchange(ctx, &mut mpi)?;
        let bad = ex.verify_ghosts(ctx)?;
        assert_eq!(bad, 0, "halo corruption on rank {}", ctx.rank);
        Ok(t)
    })
    .expect("stencil world");
    let max =
        |f: fn(&ExchangeTiming) -> SimTime| per_rank.iter().map(f).max().unwrap_or(SimTime::ZERO);
    ExchangeTiming {
        pack: max(|t| t.pack),
        comm: max(|t| t.comm),
        unpack: max(|t| t.unpack),
    }
}

fn main() {
    let full = std::env::var("TEMPI_BENCH_FULL").is_ok();
    let n = if full { 96 } else { 32 };
    let ranks = if full {
        vec![1usize, 2, 4, 8, 16, 27]
    } else {
        vec![1usize, 2, 4, 8]
    };

    println!(
        "Fig. 12: 3-D stencil halo exchange speedup vs Spectrum MPI ({n}^3 per rank, radius 2)\n"
    );
    let mut t = Table::new(&[
        "ranks",
        "pack speedup",
        "unpack speedup",
        "exchange speedup",
        "TEMPI total",
        "baseline total",
    ]);
    for &p in &ranks {
        let sys = run(p, n, false);
        let tmp = run(p, n, true);
        let pack = sys.pack.as_ns_f64() / tmp.pack.as_ns_f64();
        let unpack = sys.unpack.as_ns_f64() / tmp.unpack.as_ns_f64();
        let total = sys.total().as_ns_f64() / tmp.total().as_ns_f64();
        t.row(&[
            &p,
            &fmt_speedup(pack),
            &fmt_speedup(unpack),
            &fmt_speedup(total),
            &format!("{}", tmp.total()),
            &format!("{}", sys.total()),
        ]);
    }
    t.print();
    println!(
        "\npaper shape: pack/unpack speedups ~10^3-10^4; iteration speedup decreases\n\
         with rank count as communication takes a larger share (up to ~20,000x on 512^3)"
    );
}
