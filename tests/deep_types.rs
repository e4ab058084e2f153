//! Datatypes nested as deep as MPI lets a program nest them, on a rank's
//! fiber stack: every walk over a type's constructors loops instead of
//! recursing, so a type [`MAX_DEPTH`] constructors deep (the deepest spec
//! that parses) of every combiner that nests, and chains 10,000 deep built
//! through the API, commit, pack, unpack, send and receive on both
//! providers, byte for byte as the CPU typemap oracle has them; and a
//! degraded send of one logs its whole construction.

mod common;

use common::{pattern, span_of};
use mpi_sim::consts::MPI_BYTE;
use mpi_sim::datatype::tree::MAX_DEPTH;
use mpi_sim::datatype::{pack_cpu, TypeTree};
use mpi_sim::{Datatype, FaultPlan, MpiResult, RankCtx, World, WorldConfig};
use tempi_core::config::{Method, TempiConfig};
use tempi_core::interpose::InterposedMpi;

/// The innermost type: two bytes with a hole between them (extent 3), so
/// no level over it is dense and no walk takes a level in one step.
const BASE: &str = "vector(2, 1, 2, byte)";

/// One wrapper per combiner that nests, each of one element where it lies,
/// so the layout stays the base's however deep the nesting goes.
const WRAPPERS: [(&str, &str); 11] = [
    ("contiguous(1, ", ")"),
    ("vector(1, 1, 1, ", ")"),
    ("hvector(1, 1, 0, ", ")"),
    ("indexed([1], [0], ", ")"),
    ("indexed_block(1, [0], ", ")"),
    ("hindexed([1], [0], ", ")"),
    ("subarray([1], [1], [0], ", ")"),
    ("subarray_fortran([1], [1], [0], ", ")"),
    ("struct([1], [0], [", "])"),
    ("resized(0, 3, ", ")"),
    ("dup(", ")"),
];

/// Items of the type each rank moves at once.
const ITEMS: usize = 2;

/// The pack, unpack and receive results of one provider beside the
/// oracle's, as `(what, got, want)`.
type Checks = Vec<(String, Vec<u8>, Vec<u8>)>;

/// On a 2-rank world, build each rank's type with `build`, then on each
/// provider commit it, pack and unpack it on rank 0 and send it from rank
/// 0 to rank 1; every result is checked against the CPU oracle.
fn round_trip(what: &str, build: impl Fn(&mut RankCtx) -> MpiResult<Datatype> + Sync) {
    let mut cfg = WorldConfig::summit(2);
    cfg.net.ranks_per_node = 1;
    let ranks = World::run(&cfg, |ctx| {
        let dt = build(ctx)?;
        let mut checks = Checks::new();
        for (provider, mut mpi) in [
            ("tempi", InterposedMpi::new(TempiConfig::default())),
            ("system", InterposedMpi::system_only()),
        ] {
            mpi.type_commit(ctx, dt)?;
            let size = ctx.attrs(dt)?.size as usize * ITEMS;
            let span = span_of(ctx, dt, ITEMS);
            let data = pattern(span);
            // the oracle: the CPU pack of the data, unpacked into zeroes
            let mut packed = vec![0u8; size];
            let mut placed = vec![0u8; span];
            {
                let reg = ctx.registry().read();
                pack_cpu::pack(&reg, &data, 0, ITEMS, dt, &mut packed, &mut 0)?;
                pack_cpu::unpack(&reg, &packed, &mut 0, &mut placed, 0, ITEMS, dt)?;
            }
            let buf = ctx.gpu.malloc(span)?;
            let zeroed = |ctx: &mut RankCtx| ctx.gpu.memory().poke(buf, &vec![0u8; span]);
            if ctx.rank == 0 {
                ctx.gpu.memory().poke(buf, &data)?;
                let out = ctx.gpu.malloc(size)?;
                mpi.pack(ctx, buf, ITEMS, dt, out, size, &mut 0)?;
                let got = ctx.gpu.memory().peek(out, size)?;
                checks.push((format!("{provider} pack"), got, packed));
                mpi.send(ctx, buf, ITEMS, dt, 1, 0)?;
                zeroed(ctx)?;
                mpi.unpack(ctx, out, size, &mut 0, buf, ITEMS, dt)?;
                let got = ctx.gpu.memory().peek(buf, span)?;
                checks.push((format!("{provider} unpack"), got, placed));
            } else {
                zeroed(ctx)?;
                mpi.recv(ctx, buf, ITEMS, dt, Some(0), Some(0))?;
                let got = ctx.gpu.memory().peek(buf, span)?;
                checks.push((format!("{provider} recv"), got, placed));
            }
        }
        Ok(checks)
    })
    .unwrap_or_else(|e| panic!("{what}: {e}"));
    for (check, got, want) in ranks.into_iter().flatten() {
        assert_eq!(got, want, "{what}: {check}");
    }
}

#[test]
fn a_type_nested_max_depth_deep_moves_on_both_providers() {
    for (open, close) in WRAPPERS {
        // the base is one constructor, the wrappers the rest
        let wrappers = MAX_DEPTH - 1;
        let spec = format!("{}{BASE}{}", open.repeat(wrappers), close.repeat(wrappers));
        let tree: TypeTree = spec.parse().expect("a spec MAX_DEPTH deep parses");
        round_trip(&format!("{open}..."), |ctx| tree.build(ctx));
    }
}

/// The base, built through the API, under `contiguous(1, ·)` `wrappers`
/// times.
fn contiguous_chain(ctx: &mut RankCtx, wrappers: usize) -> MpiResult<Datatype> {
    let base = ctx.type_vector(2, 1, 2, MPI_BYTE)?;
    (0..wrappers).try_fold(base, |dt, _| ctx.type_contiguous(1, dt))
}

#[test]
fn chains_10000_deep_built_through_the_api_move_on_both_providers() {
    const DEPTH: usize = 10_000;
    round_trip("contiguous(1, ...)", |ctx| contiguous_chain(ctx, DEPTH));
    // each level 8 bytes further in than the one it holds
    round_trip("struct([1], [8], [...])", |ctx| {
        let base = contiguous_chain(ctx, 0)?;
        (0..DEPTH).try_fold(base, |dt, _| ctx.type_create_struct(&[1], &[8], &[dt]))
    });
}

#[test]
fn a_degraded_send_of_a_deep_type_logs_its_construction() {
    for wrappers in [MAX_DEPTH - 1, 10_000] {
        let (open, close) = ("contiguous(1, ".repeat(wrappers), ")".repeat(wrappers));
        let mut cfg = WorldConfig::summit(2);
        cfg.net.ranks_per_node = 1;
        // the sender's device staging buffer (its allocation 1, after the
        // data) fails, so the forced device send degrades once and logs it
        let cfg = cfg.with_faults(FaultPlan::parse("alloc@1").unwrap());
        let logged = World::run(&cfg, |ctx| {
            let mut mpi = InterposedMpi::new(TempiConfig {
                force_method: Some(Method::Device),
                ..TempiConfig::default()
            });
            let dt = contiguous_chain(ctx, wrappers)?;
            mpi.type_commit(ctx, dt)?;
            let buf = ctx.gpu.malloc(span_of(ctx, dt, 1))?;
            match ctx.rank {
                0 => mpi.send(ctx, buf, 1, dt, 1, 0).map(drop)?,
                _ => mpi.recv(ctx, buf, 1, dt, Some(0), Some(0)).map(drop)?,
            }
            let events = ctx.faults.stats.events.iter();
            Ok(events.map(|e| e.datatype.clone()).collect::<Vec<_>>())
        })
        .unwrap();
        assert_eq!(logged, [vec![format!("{open}{BASE}{close}")], vec![]]);
    }
}
