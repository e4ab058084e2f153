//! The measurement harness: one [`Cell`] — a datatype on a platform —
//! measured against one [`Side`] of the interposition, in deterministic
//! virtual time. Pack, unpack, commit, ping-pong and one-way delivery are
//! methods of the cell; every two-rank measurement (the guidelines' three
//! sending schemes and Fig. 8's raw ping-pong included) runs its timed
//! operation under [`timed_rounds`], every halo measurement under
//! [`halo_exchange`].

use gpu_sim::{GpuPtr, PackDir, SimTime};
use mpi_sim::datatype::TypeTree;
use mpi_sim::{Datatype, MpiResult, RankCtx, VendorProfile, World, WorldConfig};
use tempi_core::config::{Method, TempiConfig};
use tempi_core::interpose::InterposedMpi;
use tempi_stencil::{ExchangeTiming, HaloConfig, HaloExchanger};

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

    /// Two ranks on separate nodes: the world of every send measurement.
    pub fn pair(self) -> WorldConfig {
        let mut cfg = self.world(2);
        cfg.net.ranks_per_node = 1;
        cfg
    }
}

/// Does `TEMPI_BENCH_FULL` ask for the paper-scale sizes (Fig. 7c at
/// 1024³ B, Fig. 12 at 96³ on up to 27 ranks)?
pub fn paper_scale() -> bool {
    std::env::var("TEMPI_BENCH_FULL").is_ok()
}

/// Which MPI a measurement runs against.
#[derive(Debug, Clone, PartialEq)]
pub enum Side {
    /// Plain system MPI.
    System,
    /// TEMPI in the link order, so configured.
    Tempi(TempiConfig),
}

impl Side {
    /// TEMPI as a user gets it with no knob set.
    pub fn tempi() -> Side {
        Side::Tempi(TempiConfig::default())
    }

    /// TEMPI with `method` forced.
    pub fn forced(method: Method) -> Side {
        Side::Tempi(TempiConfig {
            force_method: Some(method),
            ..TempiConfig::default()
        })
    }

    /// The MPI a rank of this side calls.
    pub fn mpi(&self) -> InterposedMpi {
        match self {
            Side::System => InterposedMpi::system_only(),
            Side::Tempi(config) => InterposedMpi::new(config.clone()),
        }
    }
}

/// One measurement cell: `incount` items of the datatype `tree` on
/// `platform`, in a device buffer of `span` bytes. Built from a zoo spec
/// ([`Cell::of`]) or from one construction of a figure object
/// ([`crate::Obj2d::cell`], [`crate::Obj3d::cell`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Where it runs.
    pub platform: Platform,
    /// The datatype.
    pub tree: TypeTree,
    /// Items passed as the pack/send count.
    pub incount: usize,
    /// Bytes the strided buffer spans.
    pub span: usize,
}

/// One rank's end of a measurement: the MPI under test, the committed type
/// and the strided device buffer.
pub(crate) struct Endpoint {
    pub(crate) mpi: InterposedMpi,
    pub(crate) dt: Datatype,
    pub(crate) buf: GpuPtr,
    incount: usize,
}

impl Endpoint {
    /// Rank 0 sends the typed object, rank 1 receives it; the sender
    /// reports what it did ([`sent_label`]), the receiver nothing.
    pub(crate) fn deliver(&mut self, ctx: &mut RankCtx) -> MpiResult<String> {
        let (dt, buf, n) = (self.dt, self.buf, self.incount);
        if ctx.rank == 0 {
            let sent = self.mpi.send(ctx, buf, n, dt, 1, 0)?;
            Ok(sent_label(&self.mpi, sent))
        } else {
            self.mpi.recv(ctx, buf, n, dt, Some(0), Some(0))?;
            Ok(String::new())
        }
    }
}

/// What an `MPI_Send` through `mpi` did, as the reports name it: the
/// method it ran, `run cut` where that was the device recipe cut at the
/// object's runs (no pack, not one of the paper's §5 methods), `system`
/// where TEMPI let the system MPI have it.
fn sent_label(mpi: &InterposedMpi, sent: Option<Method>) -> String {
    let cut = mpi
        .tempi
        .last_choice()
        .is_some_and(|c| c.method == Method::Device && c.chunk.is_some());
    match sent {
        None => "system".to_string(),
        Some(Method::Device) if cut => "run cut".to_string(),
        Some(m) => format!("{m:?}"),
    }
}

impl Cell {
    /// The cell of any datatype: the buffer spans exactly what `incount`
    /// items reach, read off the built type.
    pub fn of(platform: Platform, tree: TypeTree, incount: usize) -> MpiResult<Cell> {
        let mut probe = RankCtx::standalone(&platform.world(1));
        let dt = tree.build(&mut probe)?;
        let a = probe.attrs(dt)?;
        let reach = a.true_ub.max(a.ub) + (incount as i64 - 1) * a.extent().max(0);
        Ok(Cell {
            platform,
            tree,
            incount,
            span: reach.max(1) as usize,
        })
    }

    /// Build and commit the type on this rank against `side`, and allocate
    /// the strided buffer.
    pub(crate) fn endpoint(&self, ctx: &mut RankCtx, side: &Side) -> MpiResult<Endpoint> {
        let mut mpi = side.mpi();
        let dt = self.tree.build(ctx)?;
        mpi.type_commit(ctx, dt)?;
        Ok(Endpoint {
            mpi,
            dt,
            buf: ctx.gpu.malloc(self.span.max(1))?,
            incount: self.incount,
        })
    }

    /// One steady-state `MPI_Pack` (or `MPI_Unpack`) between the strided
    /// buffer and a device buffer of the packed size: a warm-up call first
    /// (plans cached, pools warm), then the measured one.
    fn pack_or_unpack(&self, side: &Side, dir: PackDir) -> MpiResult<SimTime> {
        let ctx = &mut RankCtx::standalone(&self.platform.world(1));
        let Endpoint {
            mut mpi, dt, buf, ..
        } = self.endpoint(ctx, side)?;
        let total = mpi.pack_size(ctx, self.incount, dt)?;
        let packed = ctx.gpu.malloc(total.max(1))?;
        let mut once = |ctx: &mut RankCtx| -> MpiResult<SimTime> {
            let (t0, mut pos) = (ctx.clock.now(), 0);
            match dir {
                PackDir::Pack => mpi.pack(ctx, buf, self.incount, dt, packed, total, &mut pos)?,
                PackDir::Unpack => {
                    mpi.unpack(ctx, packed, total, &mut pos, buf, self.incount, dt)?
                }
            }
            Ok(ctx.clock.now() - t0)
        };
        once(ctx)?;
        once(ctx)
    }

    /// Virtual time of one `MPI_Pack` of the cell, steady state.
    pub fn pack(&self, side: &Side) -> MpiResult<SimTime> {
        self.pack_or_unpack(side, PackDir::Pack)
    }

    /// Virtual time of one `MPI_Unpack` of the cell, steady state.
    pub fn unpack(&self, side: &Side) -> MpiResult<SimTime> {
        self.pack_or_unpack(side, PackDir::Unpack)
    }

    /// TEMPI's `MPI_Pack` speedup over the system MPI (Fig. 7's metric).
    pub fn pack_speedup(&self) -> MpiResult<f64> {
        Ok(self.pack(&Side::System)?.as_ns_f64() / self.pack(&Side::tempi())?.as_ns_f64())
    }

    /// The Fig. 6 breakdown: the constructor calls and the native commit in
    /// one world, TEMPI's commit of the same construction in a fresh one.
    pub fn commit(&self) -> MpiResult<CommitBreakdown> {
        let cfg = self.platform.world(1);
        let mut ctx = RankCtx::standalone(&cfg);
        let t0 = ctx.clock.now();
        let dt = self.tree.build(&mut ctx)?;
        let create = ctx.clock.now() - t0;
        let t0 = ctx.clock.now();
        Side::System.mpi().type_commit(&mut ctx, dt)?;
        let commit_system = ctx.clock.now() - t0;

        let mut ctx = RankCtx::standalone(&cfg);
        let dt = self.tree.build(&mut ctx)?;
        let mut tempi = Side::tempi().mpi();
        let t0 = ctx.clock.now();
        tempi.type_commit(&mut ctx, dt)?;
        let plan = tempi.tempi.plan(dt);
        Ok(CommitBreakdown {
            create,
            commit_system,
            commit_tempi: ctx.clock.now() - t0,
            introspection_calls: plan.map_or(0, |p| p.report.introspection_calls),
        })
    }

    /// Half the ping-pong time of an `MPI_Send`/`MPI_Recv` pair of the cell
    /// between two ranks on separate nodes (Fig. 11's metric), steady
    /// state: one warm-up round trip, then the measured one.
    pub fn send_pair(&self, side: &Side) -> MpiResult<SimTime> {
        let per_rank = World::run(&self.platform.pair(), |ctx| {
            let Endpoint {
                mut mpi, dt, buf, ..
            } = self.endpoint(ctx, side)?;
            let (n, peer) = (self.incount, 1 - ctx.rank);
            let round_trip = timed_rounds(ctx, 1, 1, |ctx| {
                if ctx.rank == 0 {
                    mpi.send(ctx, buf, n, dt, peer, 0)?;
                }
                mpi.recv(ctx, buf, n, dt, Some(peer), Some(0))?;
                if ctx.rank == 1 {
                    mpi.send(ctx, buf, n, dt, peer, 0)?;
                }
                Ok(())
            })?;
            Ok(round_trip[0].0)
        })?;
        Ok(per_rank[0] / 2)
    }

    /// One-way typed delivery, rank 0 → rank 1 on separate nodes: the
    /// fastest of `rounds` (≥ 1) measured rounds after `warmup` unmeasured
    /// ones, timed on the receiver, with what the sender did on that round:
    /// its method, `run cut` or `system`. The minimum because, with the
    /// online tuner active, a round may be an epsilon-probe of a
    /// deliberately non-optimal method; the minimum reports the converged
    /// choice, the way the paper's trimean-of-thousands reports steady
    /// state.
    pub fn one_way(
        &self,
        side: &Side,
        warmup: usize,
        rounds: usize,
    ) -> MpiResult<(SimTime, String)> {
        let per_rank = World::run(&self.platform.pair(), |ctx| {
            let mut end = self.endpoint(ctx, side)?;
            timed_rounds(ctx, warmup, rounds, |ctx| end.deliver(ctx))
        })?;
        let [sender, receiver] = <[_; 2]>::try_from(per_rank).expect("a pair of ranks");
        let received = receiver.into_iter().map(|(t, _)| t);
        let sent = sender.into_iter().map(|(_, label)| label);
        Ok(received
            .zip(sent)
            .min_by_key(|(t, _)| *t)
            .expect("one_way needs at least one measured round"))
    }
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

/// One rank's share of a timed exchange: `warmup` unmeasured rounds of `op`
/// then `rounds` measured ones, a barrier before each so the clocks
/// re-synchronize and every round is independent. Returns, per measured
/// round, the virtual time `op` took on this rank and what it returned.
pub fn timed_rounds<T>(
    ctx: &mut RankCtx,
    warmup: usize,
    rounds: usize,
    mut op: impl FnMut(&mut RankCtx) -> MpiResult<T>,
) -> MpiResult<Vec<(SimTime, T)>> {
    let mut measured = Vec::with_capacity(rounds);
    for round in 0..warmup + rounds {
        ctx.barrier();
        let t0 = ctx.clock.now();
        let value = op(ctx)?;
        if round >= warmup {
            measured.push((ctx.clock.now() - t0, value));
        }
    }
    Ok(measured)
}

/// How a halo measurement packs and unpacks the 26 regions of a side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HaloPacking {
    /// One call over the fused datatype: what [`HaloExchanger::exchange`] does.
    Fused,
    /// The paper's structure (§6.4): one `MPI_Pack` / `MPI_Unpack` per
    /// direction, over the exchanger's per-direction datatypes.
    PerDirection,
}

/// One steady-state 26-direction halo exchange of `n³` subdomains on every
/// rank of `cfg`'s world: fill, a warm-up exchange (plans cached, pools
/// warm), a barrier, the measured exchange, then the ghost-cell oracle.
/// Returns each rank's phase split; the slowest rank gates an iteration.
/// With [`HaloPacking::PerDirection`] the pack and unpack phases are
/// measured apart from the exchange, as the sum of 26 calls on the same grid
/// (into scratch buffers: the order of the regions does not change the
/// time), beside the exchange's own communication phase.
pub fn halo_exchange(
    cfg: &WorldConfig,
    side: &Side,
    n: usize,
    packing: HaloPacking,
) -> MpiResult<Vec<ExchangeTiming>> {
    World::run(cfg, |ctx| {
        let mut mpi = side.mpi();
        let mut ex = HaloExchanger::new(ctx, &mut mpi, HaloConfig::small(n))?;
        ex.fill(ctx)?;
        ex.exchange(ctx, &mut mpi)?;
        ctx.barrier();
        let mut timing = ex.exchange(ctx, &mut mpi)?;
        let bad = ex.verify_ghosts(ctx)?;
        assert_eq!(bad, 0, "rank {}: corrupt ghost cells", ctx.rank);
        if packing == HaloPacking::PerDirection {
            let size = ex.send_bytes();
            let packed = ctx.gpu.malloc(size.max(1))?;
            for dt in ex.types.send.iter().chain(&ex.types.recv) {
                mpi.type_commit(ctx, *dt)?;
            }
            // the first round is the warm-up
            for _ in 0..2 {
                let t0 = ctx.clock.now();
                let mut pos = 0;
                for &dt in &ex.types.send {
                    mpi.pack(ctx, ex.grid, 1, dt, packed, size, &mut pos)?;
                }
                let t1 = ctx.clock.now();
                let mut pos = 0;
                for &dt in &ex.types.recv {
                    mpi.unpack(ctx, packed, size, &mut pos, ex.grid, 1, dt)?;
                }
                (timing.pack, timing.unpack) = (t1 - t0, ctx.clock.now() - t1);
            }
            ctx.gpu.free(packed)?;
        }
        Ok(timing)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Construction, Obj2d};
    use tempi_core::config::TunerMode;

    #[test]
    fn pack_tempi_beats_system_everywhere() {
        for p in Platform::ALL {
            let cell = Obj2d::strided(1 << 10, 16)
                .cell(p, Construction::Hvector)
                .unwrap();
            let t = cell.pack(&Side::tempi()).unwrap();
            let s = cell.pack(&Side::System).unwrap();
            assert!(t < s, "{p:?}: tempi {t} vs system {s}");
            assert!(cell.pack_speedup().unwrap() > 1.0);
        }
        // the unpack mirrors it
        let cell = Obj2d::strided(1 << 10, 16)
            .cell(Platform::Summit, Construction::Hvector)
            .unwrap();
        assert!(cell.unpack(&Side::tempi()).unwrap() < cell.unpack(&Side::System).unwrap());
    }

    /// The Fig. 6 object: 13 blocks of 100 B, 256 B apart.
    fn fig6_cell(p: Platform, c: Construction) -> Cell {
        let obj = Obj2d {
            incount: 1,
            block: 100,
            count: 13,
            stride: 256,
        };
        obj.cell(p, c).unwrap()
    }

    #[test]
    fn commit_breakdown_shows_tempi_slowdown() {
        for p in Platform::ALL {
            let b = fig6_cell(p, Construction::Subarray).commit().unwrap();
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
        let overhead = |p: Platform| {
            let b = fig6_cell(p, Construction::Vector).commit().unwrap();
            b.commit_tempi - b.commit_system
        };
        assert!(overhead(Platform::Summit) > overhead(Platform::Mvapich));
    }

    #[test]
    fn one_way_tuned_never_loses_to_static() {
        let cell = Obj2d::strided(1 << 14, 64)
            .cell(Platform::Summit, Construction::Vector)
            .unwrap();
        let run = |tuner: TunerMode| {
            let config = TempiConfig {
                tuner,
                ..TempiConfig::default()
            };
            cell.one_way(&Side::Tempi(config), 4, 8).unwrap().0
        };
        let stat = run(TunerMode::Off);
        let tuned = run(TunerMode::Online);
        assert!(tuned <= stat, "tuned {tuned} vs static {stat}");
    }

    #[test]
    fn send_pair_tempi_wins_for_strided() {
        let cell = Obj2d::strided(1 << 15, 64)
            .cell(Platform::Summit, Construction::Vector)
            .unwrap();
        let t = cell.send_pair(&Side::tempi()).unwrap();
        let s = cell.send_pair(&Side::System).unwrap();
        assert!(t < s, "tempi {t} vs system {s}");
    }

    #[test]
    fn a_spec_cell_spans_what_its_items_reach() {
        let tree: TypeTree = "vector(4, 8, 32, byte)".parse().unwrap();
        let one = Cell::of(Platform::Summit, tree.clone(), 1).unwrap();
        assert_eq!(one.span, 3 * 32 + 8);
        // further items start one extent on
        let three = Cell::of(Platform::Summit, tree, 3).unwrap();
        assert_eq!(three.span, 3 * one.span);
    }
}
