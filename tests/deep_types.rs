//! Datatypes nested as deep as MPI lets a program nest them, on a rank's
//! fiber stack: every walk over a type's constructors loops instead of
//! recursing, so a type [`MAX_DEPTH`] constructors deep (the deepest spec
//! that parses) of every combiner that nests, and chains 10,000 deep built
//! through the API, commit, pack, unpack, send and receive on both
//! providers, byte for byte as the CPU typemap oracle has them; and a
//! degraded send of one logs its whole construction. The deepest of these
//! bodies, and a recovery round, also run on ranks that have spent all but
//! `STACK_KIB / 2.5` of their stacks: the debug half of the rule that
//! sizes a fiber stack, checked on every test run.

mod common;

use common::{on_spent_stack, pattern, span_of};
use gpu_sim::GpuPtr;
use mpi_sim::consts::MPI_BYTE;
use mpi_sim::datatype::tree::MAX_DEPTH;
use mpi_sim::datatype::{pack_cpu, TypeTree};
use mpi_sim::sched::STACK_KIB;
use mpi_sim::{Datatype, FaultPlan, MpiError, MpiResult, RankCtx, World, WorldConfig};
use tempi_core::config::{Method, TempiConfig};
use tempi_core::interpose::InterposedMpi;
use tempi_stencil::{CheckpointStore, HaloConfig, HaloExchanger};

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
/// 0 to rank 1; every result is checked against the CPU oracle. Each rank
/// first spends `spent` bytes of its stack ([`on_spent_stack`]).
fn round_trip(
    what: &str,
    spent: usize,
    build: impl Fn(&mut RankCtx) -> MpiResult<Datatype> + Sync,
) {
    let mut cfg = WorldConfig::summit(2);
    cfg.net.ranks_per_node = 1;
    let ranks = World::run(&cfg, |ctx| {
        on_spent_stack(spent, || {
            let dt = build(ctx)?;
            let mut checks = Checks::new();
            for provider in ["tempi", "system"] {
                move_both_ways(ctx, dt, provider, &mut checks)?;
            }
            Ok(checks)
        })
    })
    .unwrap_or_else(|e| panic!("{what}: {e}"));
    for (check, got, want) in ranks.into_iter().flatten() {
        assert_eq!(got, want, "{what}: {check}");
    }
}

/// [`round_trip`]'s moves on one `provider`, each result beside the
/// oracle's in `checks`.
fn move_both_ways(
    ctx: &mut RankCtx,
    dt: Datatype,
    provider: &str,
    checks: &mut Checks,
) -> MpiResult<()> {
    let mut mpi = match provider {
        "tempi" => InterposedMpi::new(TempiConfig::default()),
        _ => InterposedMpi::system_only(),
    };
    mpi.type_commit(ctx, dt)?;
    let oracle = Oracle::of(ctx, dt)?;
    let buf = ctx.gpu.malloc(oracle.data.len())?;
    match ctx.rank {
        0 => send_side(ctx, &mut mpi, dt, buf, oracle, provider, checks),
        _ => recv_side(ctx, &mut mpi, dt, buf, oracle, provider, checks),
    }
}

/// The CPU typemap oracle of [`ITEMS`] items of a type: a pattern over
/// their span, its pack, and the pack unpacked into zeroes.
struct Oracle {
    data: Vec<u8>,
    packed: Vec<u8>,
    placed: Vec<u8>,
}

impl Oracle {
    fn of(ctx: &RankCtx, dt: Datatype) -> MpiResult<Oracle> {
        let size = ctx.attrs(dt)?.size as usize * ITEMS;
        let span = span_of(ctx, dt, ITEMS);
        let data = pattern(span);
        let mut packed = vec![0u8; size];
        let mut placed = vec![0u8; span];
        let reg = ctx.registry().read();
        pack_cpu::pack(&reg, &data, 0, ITEMS, dt, &mut packed, &mut 0)?;
        pack_cpu::unpack(&reg, &packed, &mut 0, &mut placed, 0, ITEMS, dt)?;
        Ok(Oracle {
            data,
            packed,
            placed,
        })
    }
}

/// Rank 0: pack, send, then unpack what it packed into a zeroed buffer.
fn send_side(
    ctx: &mut RankCtx,
    mpi: &mut InterposedMpi,
    dt: Datatype,
    buf: GpuPtr,
    oracle: Oracle,
    provider: &str,
    checks: &mut Checks,
) -> MpiResult<()> {
    let (size, span) = (oracle.packed.len(), oracle.data.len());
    ctx.gpu.memory().poke(buf, &oracle.data)?;
    let out = ctx.gpu.malloc(size)?;
    mpi.pack(ctx, buf, ITEMS, dt, out, size, &mut 0)?;
    let got = ctx.gpu.memory().peek(out, size)?;
    checks.push((format!("{provider} pack"), got, oracle.packed));
    mpi.send(ctx, buf, ITEMS, dt, 1, 0)?;
    ctx.gpu.memory().poke(buf, &vec![0u8; span])?;
    mpi.unpack(ctx, out, size, &mut 0, buf, ITEMS, dt)?;
    let got = ctx.gpu.memory().peek(buf, span)?;
    checks.push((format!("{provider} unpack"), got, oracle.placed));
    Ok(())
}

/// Rank 1: receive rank 0's send into a zeroed buffer.
fn recv_side(
    ctx: &mut RankCtx,
    mpi: &mut InterposedMpi,
    dt: Datatype,
    buf: GpuPtr,
    oracle: Oracle,
    provider: &str,
    checks: &mut Checks,
) -> MpiResult<()> {
    let span = oracle.data.len();
    ctx.gpu.memory().poke(buf, &vec![0u8; span])?;
    mpi.recv(ctx, buf, ITEMS, dt, Some(0), Some(0))?;
    let got = ctx.gpu.memory().peek(buf, span)?;
    checks.push((format!("{provider} recv"), got, oracle.placed));
    Ok(())
}

/// The spec of a type [`MAX_DEPTH`] constructors deep: `BASE` under the
/// wrapper `(open, close)`.
fn max_depth_spec((open, close): (&str, &str)) -> TypeTree {
    // the base is one constructor, the wrappers the rest
    let wrappers = MAX_DEPTH - 1;
    let spec = format!("{}{BASE}{}", open.repeat(wrappers), close.repeat(wrappers));
    spec.parse().expect("a spec MAX_DEPTH deep parses")
}

#[test]
fn a_type_nested_max_depth_deep_moves_on_both_providers() {
    for wrapper in WRAPPERS {
        let tree = max_depth_spec(wrapper);
        round_trip(&format!("{}...", wrapper.0), 0, |ctx| tree.build(ctx));
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
    round_trip("contiguous(1, ...)", 0, |ctx| contiguous_chain(ctx, DEPTH));
    // each level 8 bytes further in than the one it holds
    round_trip("struct([1], [8], [...])", 0, |ctx| {
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

/// The stack the rule leaves a debug body: `STACK_KIB` is at least 2.5
/// times the deepest stack of a debug test run, so a rank that has spent
/// all but `STACK_KIB / 2.5` of its stack (the guard page included in the
/// rest) must still run the deepest bodies the suite knows.
const SPENT: usize = (STACK_KIB - STACK_KIB * 2 / 5) << 10;

/// One recovery round of the README's demo, each rank beneath `spent`
/// bytes of its stack: rank 3 dies inside the second round, and the
/// seven survivors shrink, rebuild their exchanger from scratch and
/// restore their grids from the checkpoint.
fn recovery_round(spent: usize) {
    let cfg = WorldConfig::summit(8).with_faults(FaultPlan::parse("exit=3@285us").unwrap());
    let ranks = World::run(&cfg, |ctx| Ok(on_spent_stack(spent, || recovering(ctx))))
        .expect("the world must run");
    for (rank, r) in ranks.iter().enumerate() {
        match rank {
            3 => assert!(matches!(r, Err(MpiError::PeerGone)), "{r:?}"),
            _ => assert!(matches!(r, Ok(true)), "rank {rank}: {r:?}"),
        }
    }
}

/// [`recovery_round`]'s rank: whether its grid ends as the oracle has it.
fn recovering(ctx: &mut RankCtx) -> MpiResult<bool> {
    let mut mpi = InterposedMpi::new(TempiConfig::default());
    let mut ex = HaloExchanger::new(ctx, &mut mpi, HaloConfig::small(4))?;
    ex.fill(ctx)?;
    let mut store = CheckpointStore::new();
    for _ in 0..2 {
        ex.exchange_with_recovery(ctx, &mut mpi, &mut store, true)?;
    }
    Ok(ctx.gpu.memory().peek(ex.grid, ex.cfg.alloc_bytes())? == ex.expected_grid(ctx))
}

/// The deepest bodies a debug test run puts on a rank, each beneath
/// [`SPENT`] bytes of its stack. Run only as a child process, by
/// `the_deepest_bodies_fit_in_the_stack_the_rule_leaves_them`.
#[test]
#[ignore = "may overflow a fiber stack; run as a child process"]
fn deepest_bodies_on_a_spent_stack() {
    // each body names itself first, so a child that dies names its killer
    for wrapper in WRAPPERS {
        let tree = max_depth_spec(wrapper);
        let what = format!("{}... {MAX_DEPTH} deep", wrapper.0);
        eprintln!("{what}");
        round_trip(&what, SPENT, |ctx| tree.build(ctx));
    }
    eprintln!("contiguous(1, ...) 10000 deep");
    round_trip("contiguous(1, ...)", SPENT, |ctx| {
        contiguous_chain(ctx, 10_000)
    });
    eprintln!("a recovery round");
    recovery_round(SPENT);
}

#[cfg(all(unix, any(target_arch = "x86_64", target_arch = "aarch64")))]
#[test]
fn the_deepest_bodies_fit_in_the_stack_the_rule_leaves_them() {
    use std::process::Command;

    let exe = std::env::current_exe().expect("the test binary's path");
    let out = Command::new(exe)
        .args(["--ignored", "--exact", "deepest_bodies_on_a_spent_stack"])
        .args(["--nocapture", "--test-threads=1"])
        .output()
        .expect("the test binary runs as a child");
    // A body that outgrew its share faults on the guard page, which kills
    // the child (SIGSEGV, or SIGBUS on macOS) instead of failing a test.
    assert!(
        out.status.success(),
        "a body needs more than {} KiB of a {STACK_KIB} KiB stack: {:?}; stderr:\n{}",
        STACK_KIB * 2 / 5,
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}
