//! Measurement harness: deterministic virtual-time measurements of pack,
//! commit, and send operations across platforms and interposition modes.

use gpu_sim::SimTime;
use mpi_sim::{Datatype, MpiResult, RankCtx, VendorProfile, World, WorldConfig};
use tempi_core::config::{Method, TempiConfig};
use tempi_core::interpose::InterposedMpi;

/// The paper's three experimental platforms (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Platform {
    /// MVAPICH2 2.3.4 on the GTX-1070 workstation.
    Mvapich,
    /// OpenMPI 4.0.5 on the GTX-1070 workstation.
    OpenMpi,
    /// Spectrum MPI 10.3.1.2 on OLCF Summit (V100).
    Summit,
}

impl Platform {
    /// All platforms in the paper's reporting order.
    pub const ALL: [Platform; 3] = [Platform::Mvapich, Platform::OpenMpi, Platform::Summit];

    /// The paper's abbreviation (mv / op / sp).
    pub fn label(self) -> &'static str {
        match self {
            Platform::Mvapich => "mv",
            Platform::OpenMpi => "op",
            Platform::Summit => "sp",
        }
    }

    /// World configuration for `size` ranks.
    pub fn world(self, size: usize) -> WorldConfig {
        match self {
            Platform::Mvapich => WorldConfig::workstation(size, VendorProfile::mvapich()),
            Platform::OpenMpi => WorldConfig::workstation(size, VendorProfile::openmpi()),
            Platform::Summit => WorldConfig::summit(size),
        }
    }
}

/// Tukey's trimean, the paper's reported statistic:
/// `(Q1 + 2·median + Q3) / 4`.
pub fn trimean(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty());
    samples.sort_by(f64::total_cmp);
    let q = |p: f64| -> f64 {
        let idx = p * (samples.len() - 1) as f64;
        let lo = idx.floor() as usize;
        let hi = idx.ceil() as usize;
        let frac = idx - lo as f64;
        samples[lo] * (1.0 - frac) + samples[hi] * frac
    };
    (q(0.25) + 2.0 * q(0.5) + q(0.75)) / 4.0
}

/// Interposition mode of a measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// TEMPI in the link order.
    Tempi,
    /// Plain system MPI.
    System,
}

fn mpi_for(mode: Mode, config: TempiConfig) -> InterposedMpi {
    match mode {
        Mode::Tempi => InterposedMpi::new(config),
        Mode::System => InterposedMpi::system_only(),
    }
}

/// Measure one `MPI_Pack` of `incount` items of the type `build` creates,
/// from a device buffer spanning `span` bytes into a device buffer of the
/// packed size. The measurement is steady-state: one warm-up pack runs
/// first (plans cached, pools warm), matching the paper's trimean-of-many
/// methodology.
pub fn pack_time(
    platform: Platform,
    mode: Mode,
    config: TempiConfig,
    build: impl FnOnce(&mut RankCtx) -> MpiResult<Datatype>,
    incount: usize,
    span: usize,
) -> MpiResult<SimTime> {
    let cfg = platform.world(1);
    let mut ctx = RankCtx::standalone(&cfg);
    let mut mpi = mpi_for(mode, config);
    let dt = build(&mut ctx)?;
    mpi.type_commit(&mut ctx, dt)?;
    let total = mpi.pack_size(&mut ctx, incount, dt)?;
    let src = ctx.gpu.malloc(span.max(1))?;
    let dst = ctx.gpu.malloc(total.max(1))?;
    // warm-up
    let mut pos = 0;
    mpi.pack(&mut ctx, src, incount, dt, dst, total, &mut pos)?;
    // measured
    let t0 = ctx.clock.now();
    let mut pos = 0;
    mpi.pack(&mut ctx, src, incount, dt, dst, total, &mut pos)?;
    Ok(ctx.clock.now() - t0)
}

/// Measure one `MPI_Unpack` (mirror of [`pack_time`]).
pub fn unpack_time(
    platform: Platform,
    mode: Mode,
    config: TempiConfig,
    build: impl FnOnce(&mut RankCtx) -> MpiResult<Datatype>,
    incount: usize,
    span: usize,
) -> MpiResult<SimTime> {
    let cfg = platform.world(1);
    let mut ctx = RankCtx::standalone(&cfg);
    let mut mpi = mpi_for(mode, config);
    let dt = build(&mut ctx)?;
    mpi.type_commit(&mut ctx, dt)?;
    let total = mpi.pack_size(&mut ctx, incount, dt)?;
    let packed = ctx.gpu.malloc(total.max(1))?;
    let out = ctx.gpu.malloc(span.max(1))?;
    let mut pos = 0;
    mpi.unpack(&mut ctx, packed, total, &mut pos, out, incount, dt)?;
    let t0 = ctx.clock.now();
    let mut pos = 0;
    mpi.unpack(&mut ctx, packed, total, &mut pos, out, incount, dt)?;
    Ok(ctx.clock.now() - t0)
}

/// Create/commit breakdown for Fig. 6: virtual time of the `MPI_Type_*`
/// construction calls, and of `MPI_Type_commit` (native-only vs with TEMPI
/// interposed).
#[derive(Debug, Clone, Copy)]
pub struct CommitBreakdown {
    /// Time in the constructor calls.
    pub create: SimTime,
    /// Native (system) commit time.
    pub commit_system: SimTime,
    /// Commit time with TEMPI interposed (native + translation +
    /// canonicalization + kernel selection).
    pub commit_tempi: SimTime,
    /// Introspection calls TEMPI's translation made.
    pub introspection_calls: u64,
}

impl CommitBreakdown {
    /// TEMPI commit slowdown vs native (Fig. 6's headline ratios).
    pub fn slowdown(&self) -> f64 {
        self.commit_tempi.as_ns_f64() / self.commit_system.as_ns_f64()
    }
}

/// Measure the Fig. 6 breakdown for one construction on one platform.
pub fn commit_breakdown(
    platform: Platform,
    build: impl Fn(&mut RankCtx) -> MpiResult<Datatype>,
) -> MpiResult<CommitBreakdown> {
    // create + native commit
    let cfg = platform.world(1);
    let mut ctx = RankCtx::standalone(&cfg);
    let t0 = ctx.clock.now();
    let dt = build(&mut ctx)?;
    let create = ctx.clock.now() - t0;
    let mut sys = InterposedMpi::system_only();
    let t0 = ctx.clock.now();
    sys.type_commit(&mut ctx, dt)?;
    let commit_system = ctx.clock.now() - t0;

    // fresh world: create + TEMPI commit
    let mut ctx = RankCtx::standalone(&cfg);
    let dt = build(&mut ctx)?;
    let mut tempi = InterposedMpi::new(TempiConfig::default());
    let t0 = ctx.clock.now();
    tempi.type_commit(&mut ctx, dt)?;
    let commit_tempi = ctx.clock.now() - t0;
    let introspection_calls = tempi
        .tempi
        .plan(dt)
        .map(|p| p.report.introspection_calls)
        .unwrap_or(0);
    Ok(CommitBreakdown {
        create,
        commit_system,
        commit_tempi,
        introspection_calls,
    })
}

/// Half ping-pong time of an `MPI_Send`/`MPI_Recv` pair of `incount` items
/// of the built type between two ranks on different nodes (Fig. 11's
/// metric), steady state.
pub fn send_pair_time(
    platform: Platform,
    mode: Mode,
    config: TempiConfig,
    build: impl Fn(&mut RankCtx) -> MpiResult<Datatype> + Sync,
    incount: usize,
    span: usize,
) -> MpiResult<SimTime> {
    let mut cfg = platform.world(2);
    cfg.net.ranks_per_node = 1; // both experiments place ranks on separate nodes
    let config = &config;
    let build = &build;
    let results = World::run(&cfg, move |ctx| {
        let mut mpi = mpi_for(mode, config.clone());
        let dt = build(ctx)?;
        mpi.type_commit(ctx, dt)?;
        let buf = ctx.gpu.malloc(span.max(1))?;
        let peer = 1 - ctx.rank;
        let round = |ctx: &mut RankCtx, mpi: &mut InterposedMpi| -> MpiResult<()> {
            if ctx.rank == 0 {
                mpi.send(ctx, buf, incount, dt, peer, 0)?;
                mpi.recv(ctx, buf, incount, dt, Some(peer), Some(0))?;
            } else {
                mpi.recv(ctx, buf, incount, dt, Some(peer), Some(0))?;
                mpi.send(ctx, buf, incount, dt, peer, 0)?;
            }
            Ok(())
        };
        // warm-up (plans, pools), then synchronize clocks and measure
        round(ctx, &mut mpi)?;
        ctx.barrier();
        let t0 = ctx.clock.now();
        round(ctx, &mut mpi)?;
        Ok((ctx.clock.now() - t0).as_ps())
    })?;
    // half of the rank-0 round trip
    Ok(SimTime::from_ps(results[0] / 2))
}

/// One-way typed delivery times (rank 0 → rank 1 on separate nodes),
/// `rounds` measured rounds after `warmup` unmeasured ones, one barrier per
/// round so the clocks re-synchronize and every round is independent.
///
/// Each element is `(delivery time, method rank 0 chose that round)`. The
/// caller typically takes the *minimum* over rounds: with the online tuner
/// active, individual rounds may be epsilon-probes of a deliberately
/// non-optimal method, and the minimum reports the converged choice — the
/// same way the paper's trimean-of-thousands reports steady state.
#[allow(clippy::too_many_arguments)]
pub fn send_one_way_times(
    platform: Platform,
    config: TempiConfig,
    build: impl Fn(&mut RankCtx) -> MpiResult<Datatype> + Sync,
    incount: usize,
    span: usize,
    warmup: usize,
    rounds: usize,
) -> MpiResult<Vec<(SimTime, Option<Method>)>> {
    assert!(rounds > 0);
    let mut cfg = platform.world(2);
    cfg.net.ranks_per_node = 1;
    let config = &config;
    let build = &build;
    let results = World::run(&cfg, move |ctx| {
        let mut mpi = InterposedMpi::new(config.clone());
        let dt = build(ctx)?;
        mpi.type_commit(ctx, dt)?;
        let buf = ctx.gpu.malloc(span.max(1))?;
        let one =
            |ctx: &mut RankCtx, mpi: &mut InterposedMpi| -> MpiResult<(u64, Option<Method>)> {
                ctx.barrier();
                if ctx.rank == 0 {
                    let m = mpi.send(ctx, buf, incount, dt, 1, 0)?;
                    Ok((0, m))
                } else {
                    let t0 = ctx.clock.now();
                    mpi.recv(ctx, buf, incount, dt, Some(0), Some(0))?;
                    Ok(((ctx.clock.now() - t0).as_ps(), None))
                }
            };
        for _ in 0..warmup {
            one(ctx, &mut mpi)?;
        }
        let mut out = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            out.push(one(ctx, &mut mpi)?);
        }
        Ok(out)
    })?;
    // times come from the receiving rank, methods from the sending rank
    Ok(results[1]
        .iter()
        .zip(&results[0])
        .map(|(&(ps, _), &(_, m))| (SimTime::from_ps(ps), m))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Construction, Obj2d};

    #[test]
    fn trimean_basics() {
        assert_eq!(trimean(&mut [5.0]), 5.0);
        assert_eq!(trimean(&mut [1.0, 2.0, 3.0, 100.0]), 8.5);
        // robust to one outlier relative to the mean
        let mut xs = vec![10.0, 10.0, 10.0, 10.0, 1000.0];
        assert!(trimean(&mut xs) < 20.0);
    }

    #[test]
    fn pack_time_tempi_beats_system_everywhere() {
        let obj = Obj2d {
            incount: 1,
            block: 16,
            count: 64,
            stride: 32,
        };
        for p in Platform::ALL {
            let t = pack_time(
                p,
                Mode::Tempi,
                TempiConfig::default(),
                |ctx| obj.tree(Construction::Hvector)?.build(ctx),
                1,
                obj.span(),
            )
            .unwrap();
            let s = pack_time(
                p,
                Mode::System,
                TempiConfig::default(),
                |ctx| obj.tree(Construction::Hvector)?.build(ctx),
                1,
                obj.span(),
            )
            .unwrap();
            assert!(t < s, "{p:?}: tempi {t} vs system {s}");
        }
    }

    #[test]
    fn commit_breakdown_shows_tempi_slowdown() {
        let obj = Obj2d {
            incount: 1,
            block: 100,
            count: 13,
            stride: 256,
        };
        for p in Platform::ALL {
            let b =
                commit_breakdown(p, |ctx| obj.tree(Construction::Subarray)?.build(ctx)).unwrap();
            assert!(b.create > SimTime::ZERO);
            assert!(b.commit_tempi > b.commit_system, "{p:?}");
            // Fig. 6: slowdowns are single-digit to low-double-digit
            let s = b.slowdown();
            assert!(s > 1.5 && s < 20.0, "{p:?} slowdown {s}");
            assert!(b.introspection_calls > 0);
        }
    }

    #[test]
    fn summit_commit_slowdown_exceeds_mvapich() {
        // Fig. 6: TEMPI overhead is priced through each vendor's
        // introspection costs — Summit (Spectrum) is the slowest.
        let obj = Obj2d {
            incount: 1,
            block: 100,
            count: 13,
            stride: 256,
        };
        let mv = commit_breakdown(Platform::Mvapich, |ctx| {
            obj.tree(Construction::Vector)?.build(ctx)
        })
        .unwrap();
        let sp = commit_breakdown(Platform::Summit, |ctx| {
            obj.tree(Construction::Vector)?.build(ctx)
        })
        .unwrap();
        assert!(sp.commit_tempi - sp.commit_system > mv.commit_tempi - mv.commit_system);
    }

    #[test]
    fn one_way_tuned_never_loses_to_static() {
        use tempi_core::config::TunerMode;
        let obj = Obj2d {
            incount: 1,
            block: 64,
            count: 256,
            stride: 128,
        };
        let run = |tuner: TunerMode| {
            send_one_way_times(
                Platform::Summit,
                TempiConfig {
                    tuner,
                    ..TempiConfig::default()
                },
                |ctx| obj.tree(Construction::Vector)?.build(ctx),
                1,
                obj.span(),
                4,
                8,
            )
            .unwrap()
            .into_iter()
            .map(|(t, _)| t)
            .min()
            .unwrap()
        };
        let stat = run(TunerMode::Off);
        let tuned = run(TunerMode::Online);
        assert!(tuned <= stat, "tuned {tuned} vs static {stat}");
    }

    #[test]
    fn send_pair_time_tempi_wins_for_strided() {
        let obj = Obj2d {
            incount: 1,
            block: 64,
            count: 512,
            stride: 128,
        };
        let t = send_pair_time(
            Platform::Summit,
            Mode::Tempi,
            TempiConfig::default(),
            |ctx| obj.tree(Construction::Vector)?.build(ctx),
            1,
            obj.span(),
        )
        .unwrap();
        let s = send_pair_time(
            Platform::Summit,
            Mode::System,
            TempiConfig::default(),
            |ctx| obj.tree(Construction::Vector)?.build(ctx),
            1,
            obj.span(),
        )
        .unwrap();
        assert!(t < s, "tempi {t} vs system {s}");
    }
}
