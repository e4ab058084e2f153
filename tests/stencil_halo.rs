//! End-to-end stencil tests: TEMPI and the system baseline must produce
//! bit-identical grids after a halo exchange, across decompositions; the
//! exchange must survive repeated iterations; TEMPI must be faster; and
//! destroyed exchangers leave nothing in the world's datatype registry.

mod common;

use mpi_sim::{World, WorldConfig};
use tempi_core::config::TempiConfig;
use tempi_core::interpose::InterposedMpi;
use tempi_stencil::{apply_stencil, HaloConfig, HaloExchanger};

fn grids_after_exchange(p: usize, n: usize, interposed: bool) -> Vec<Vec<u8>> {
    let mut cfg = WorldConfig::summit(p);
    cfg.net.ranks_per_node = 2;
    World::run(&cfg, |ctx| {
        let mut mpi = if interposed {
            InterposedMpi::new(TempiConfig::default())
        } else {
            InterposedMpi::system_only()
        };
        let mut ex = HaloExchanger::new(ctx, &mut mpi, HaloConfig::small(n))?;
        ex.fill(ctx)?;
        ex.exchange(ctx, &mut mpi)?;
        assert_eq!(ex.verify_ghosts(ctx)?, 0, "rank {}", ctx.rank);
        let bytes = ctx.gpu.memory().peek(ex.grid, ex.cfg.alloc_bytes())?;
        Ok(bytes)
    })
    .expect("world")
}

#[test]
fn tempi_and_system_grids_identical() {
    for p in [1usize, 2, 4, 8] {
        let a = grids_after_exchange(p, 6, true);
        let b = grids_after_exchange(p, 6, false);
        assert_eq!(a, b, "P = {p}");
    }
}

#[test]
fn larger_prime_friendly_decompositions() {
    for p in [3usize, 6, 12] {
        let grids = grids_after_exchange(p, 4, true);
        assert_eq!(grids.len(), p);
    }
}

#[test]
fn repeated_iterations_with_compute_stay_consistent() {
    let mut cfg = WorldConfig::summit(8);
    cfg.net.ranks_per_node = 2;
    let results = World::run(&cfg, |ctx| {
        let mut mpi = InterposedMpi::new(TempiConfig::default());
        let mut ex = HaloExchanger::new(ctx, &mut mpi, HaloConfig::small(6))?;
        // constant field: averaging must keep it constant through 3
        // exchange+compute iterations, which requires correct halos each
        // time (the compute consumes ghost values)
        let n = ex.cfg.alloc_bytes() / 4;
        let bytes: Vec<u8> = std::iter::repeat_n(2.5f32.to_le_bytes(), n)
            .flatten()
            .collect();
        ctx.gpu.memory().poke(ex.grid, &bytes)?;
        for _ in 0..3 {
            ex.exchange(ctx, &mut mpi)?;
            apply_stencil(&ex, ctx)?;
        }
        // sample an interior cell
        let i = ex.cfg.cell_index(3, 3, 3) * 4;
        let data = ctx.gpu.memory().peek(ex.grid, ex.cfg.alloc_bytes())?;
        let v = f32::from_le_bytes(data[i..i + 4].try_into().unwrap());
        Ok((v - 2.5).abs())
    })
    .unwrap();
    for (r, d) in results.iter().enumerate() {
        assert!(*d < 1e-4, "rank {r} drift {d}");
    }
}

#[test]
fn tempi_total_exchange_is_far_faster_at_scale() {
    let mut cfg = WorldConfig::summit(8);
    cfg.net.ranks_per_node = 2;
    let run = |interposed: bool| {
        World::run(&cfg, |ctx| {
            let mut mpi = if interposed {
                InterposedMpi::new(TempiConfig::default())
            } else {
                InterposedMpi::system_only()
            };
            let mut ex = HaloExchanger::new(ctx, &mut mpi, HaloConfig::small(12))?;
            ex.fill(ctx)?;
            let t = ex.exchange(ctx, &mut mpi)?;
            Ok(t.total().as_ps())
        })
        .expect("world")
        .into_iter()
        .max()
        .expect("ranks")
    };
    let tempi = run(true);
    let system = run(false);
    assert!(
        system > tempi * 50,
        "expected ≥50x: system {system} ps vs tempi {tempi} ps"
    );
}

/// Every rank of a 64-rank world builds a halo exchanger, then destroys
/// it. While they live, the ranks' equal types share records in the
/// world's registry: a rank's 52 subarrays and its interior's are the
/// same 53 definitions everywhere, and only its fused pair, two structs,
/// keeps records of its own. Once every rank has destroyed its exchanger,
/// the registry is back at the 12 named handles and holds no derived
/// record.
#[test]
fn destroyed_exchangers_leave_no_handle_and_no_record_in_the_world() {
    const RANKS: usize = 64;
    let cfg = WorldConfig::summit(RANKS);
    let counts = World::run(&cfg, |ctx| {
        let mut mpi = InterposedMpi::new(TempiConfig::default());
        let ex = HaloExchanger::new(ctx, &mut mpi, HaloConfig::small(4))?;
        let held = |ctx: &mut mpi_sim::RankCtx| {
            ctx.barrier();
            let reg = ctx.registry().read();
            (reg.live(), reg.records())
        };
        let built = held(ctx);
        // no rank destroys before every rank has counted
        ctx.barrier();
        ex.destroy(ctx)?;
        Ok((built, held(ctx)))
    })
    .expect("world");
    for (rank, (built, left)) in counts.into_iter().enumerate() {
        assert_eq!(built, (12 + RANKS * 55, 53 + RANKS * 2), "rank {rank}");
        assert_eq!(left, (12, 0), "rank {rank}");
    }
}
