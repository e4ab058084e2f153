//! The paper's central claim, tested end to end: *equivalent objects get
//! equal treatment*. Any composition of contiguous / vector / hvector /
//! subarray types that denotes the same bytes must canonicalize to the
//! identical kernel plan and must pack in the identical virtual time.

mod common;

use common::{arb_typetree, for_each_case, pattern};
use gpu_sim::SimTime;
use mpi_sim::consts::MPI_BYTE;
use mpi_sim::datatype::{Order, TypeTree};
use mpi_sim::{Datatype, MpiResult, RankCtx, WorldConfig};
use tempi_core::config::TempiConfig;
use tempi_core::interpose::InterposedMpi;
use tempi_core::tempi::PlanKind;

fn ctx() -> RankCtx {
    RankCtx::standalone(&WorldConfig::summit(1))
}

/// Build all the Section-2 representations of one row of `e0` floats in an
/// allocation of `a0` floats.
fn row_constructions(ctx: &mut RankCtx, e0: i32, a0: i32) -> MpiResult<Vec<Datatype>> {
    let (e0b, a0b) = (e0 * 4, a0 * 4);
    [
        format!("contiguous({e0}, float)"),
        format!("contiguous({e0b}, byte)"),
        format!("vector({e0}, 1, 1, float)"),
        format!("vector(1, {e0}, 1, float)"),
        format!("vector({e0}, 4, 4, byte)"),
        format!("vector(1, {e0b}, {e0b}, byte)"),
        format!("hvector({e0b}, 1, 1, byte)"),
        format!("subarray([{a0}], [{e0}], [0], float)"),
        format!("subarray([{a0b}], [{e0b}], [0], byte)"),
    ]
    .iter()
    .map(|spec| spec.parse::<TypeTree>()?.build(ctx))
    .collect()
}

#[test]
fn section2_row_list_all_one_plan() {
    let mut ctx = ctx();
    let mut mpi = InterposedMpi::new(TempiConfig::default());
    let types = row_constructions(&mut ctx, 100, 256).unwrap();
    let mut plans = Vec::new();
    for dt in &types {
        mpi.type_commit(&mut ctx, *dt).unwrap();
        plans.push(mpi.tempi.plan(*dt).unwrap());
    }
    for (i, p) in plans.iter().enumerate() {
        assert_eq!(
            p.kind,
            plans[0].kind,
            "construction {i} ({}) diverged",
            ctx.describe(types[i])
        );
        // a row is contiguous: one Dense run of 400 bytes
        match &p.kind {
            PlanKind::Strided(kp) => {
                assert!(kp.sb.is_contiguous());
                assert_eq!(kp.sb.block_bytes(), 400);
            }
            other => panic!("unexpected plan {other:?}"),
        }
    }
}

#[test]
fn fig2_constructions_one_plan_and_equal_pack_time() {
    let mut ctx = ctx();
    let mut mpi = InterposedMpi::new(TempiConfig::default());
    // the three constructions from Fig. 2
    let plane = ctx
        .type_create_subarray(&[512, 256], &[13, 100], &[0, 0], Order::C, MPI_BYTE)
        .unwrap();
    let c1 = ctx.type_vector(47, 1, 1, plane).unwrap();
    let row = ctx.type_vector(100, 1, 1, MPI_BYTE).unwrap();
    let p2 = ctx.type_create_hvector(13, 1, 256, row).unwrap();
    let c2 = ctx.type_create_hvector(47, 1, 256 * 512, p2).unwrap();
    let c3 = ctx
        .type_create_subarray(
            &[1024, 512, 256],
            &[47, 13, 100],
            &[0, 0, 0],
            Order::C,
            MPI_BYTE,
        )
        .unwrap();

    let span = 256 * 512 * 47 + 4096;
    let src = ctx.gpu.malloc(span).unwrap();
    ctx.gpu.memory().poke(src, &pattern(span)).unwrap();
    let size = 100 * 13 * 47;
    let dst = ctx.gpu.malloc(size).unwrap();

    let mut times: Vec<SimTime> = Vec::new();
    let mut outputs: Vec<Vec<u8>> = Vec::new();
    for dt in [c1, c2, c3] {
        mpi.type_commit(&mut ctx, dt).unwrap();
        // warm-up then measure
        let mut pos = 0;
        mpi.pack(&mut ctx, src, 1, dt, dst, size, &mut pos).unwrap();
        let t0 = ctx.clock.now();
        let mut pos = 0;
        mpi.pack(&mut ctx, src, 1, dt, dst, size, &mut pos).unwrap();
        times.push(ctx.clock.now() - t0);
        outputs.push(ctx.gpu.memory().peek(dst, size).unwrap());
    }
    assert_eq!(times[0], times[1], "vector-of-plane vs nested hvector");
    assert_eq!(times[1], times[2], "nested hvector vs 3-D subarray");
    assert_eq!(outputs[0], outputs[1]);
    assert_eq!(outputs[1], outputs[2]);
}

#[test]
fn mvapich_baseline_is_construction_sensitive_tempi_is_not() {
    // the paper's fragility observation: mvapich handles a root vector
    // hundreds of times faster than the same object as a subarray; TEMPI
    // treats both identically.
    let pack_time = |interposed: bool, use_vector: bool| -> SimTime {
        let cfg = WorldConfig::workstation(1, mpi_sim::VendorProfile::mvapich());
        let mut ctx = RankCtx::standalone(&cfg);
        let mut mpi = if interposed {
            InterposedMpi::new(TempiConfig::default())
        } else {
            InterposedMpi::system_only()
        };
        let dt = if use_vector {
            ctx.type_vector(512, 64, 128, MPI_BYTE).unwrap()
        } else {
            ctx.type_create_subarray(&[512, 128], &[512, 64], &[0, 0], Order::C, MPI_BYTE)
                .unwrap()
        };
        mpi.type_commit(&mut ctx, dt).unwrap();
        let src = ctx.gpu.malloc(512 * 128).unwrap();
        let dst = ctx.gpu.malloc(512 * 64).unwrap();
        let mut pos = 0;
        mpi.pack(&mut ctx, src, 1, dt, dst, 512 * 64, &mut pos)
            .unwrap();
        let t0 = ctx.clock.now();
        let mut pos = 0;
        mpi.pack(&mut ctx, src, 1, dt, dst, 512 * 64, &mut pos)
            .unwrap();
        ctx.clock.now() - t0
    };
    // baseline: vector fast (specialized kernel), subarray slow
    let mv_vec = pack_time(false, true);
    let mv_sub = pack_time(false, false);
    assert!(
        mv_sub.as_ns_f64() > 50.0 * mv_vec.as_ns_f64(),
        "mvapich should collapse on subarray: vec {mv_vec}, sub {mv_sub}"
    );
    // TEMPI: identical either way
    let t_vec = pack_time(true, true);
    let t_sub = pack_time(true, false);
    assert_eq!(t_vec, t_sub);
}

/// Commit a struct of equal named members, the hindexed and the
/// indexed_block that name the same runs of `bl` ints at `displs` (in
/// ints), and return the three plans.
fn block_list_constructions(bl: i32, displs: &[i32]) -> Vec<PlanKind> {
    use mpi_sim::consts::MPI_INT;
    let mut ctx = ctx();
    let mut mpi = InterposedMpi::new(TempiConfig::default());
    let bytes: Vec<i64> = displs.iter().map(|&d| d as i64 * 4).collect();
    let bls = vec![bl; displs.len()];
    let types = [
        ctx.type_create_struct(&bls, &bytes, &vec![MPI_INT; displs.len()])
            .unwrap(),
        ctx.type_create_hindexed(&bls, &bytes, MPI_INT).unwrap(),
        ctx.type_create_indexed_block(bl, displs, MPI_INT).unwrap(),
    ];
    types
        .iter()
        .map(|&dt| {
            mpi.type_commit(&mut ctx, dt).unwrap();
            mpi.tempi.plan(dt).unwrap().kind.clone()
        })
        .collect()
}

#[test]
fn struct_hindexed_and_indexed_block_one_plan() {
    // out of order, with a gap: nothing a strided pattern could express
    let kinds = block_list_constructions(2, &[12, 0, 5]);
    match &kinds[0] {
        PlanKind::Blocks(bl) => assert_eq!(bl.blocks, vec![(48, 8), (0, 8), (20, 8)]),
        other => panic!("a struct must commit to a block list, got {other:?}"),
    }
    assert_eq!(kinds[0], kinds[1], "struct vs hindexed");
    assert_eq!(kinds[1], kinds[2], "hindexed vs indexed_block");
}

/// For random 2-D geometry, the vector / hvector / subarray / (nested
/// contiguous-hvector) constructions all produce the same committed
/// plan.
#[test]
fn random_2d_objects_one_plan() {
    let geometry = |rng: &mut common::Rng| {
        let count = 1 + rng.below(31) as i32;
        let block = 1 + rng.below(63) as i32;
        let gap = rng.below(32) as i32;
        (count, block, gap)
    };
    for_each_case(0xe1, 64, geometry, |&(count, block, gap)| {
        let stride = block + gap;
        let mut ctx = ctx();
        let mut mpi = InterposedMpi::new(TempiConfig::default());
        let v = ctx.type_vector(count, block, stride, MPI_BYTE).unwrap();
        let row = ctx.type_contiguous(block, MPI_BYTE).unwrap();
        let h = ctx
            .type_create_hvector(count, 1, stride as i64, row)
            .unwrap();
        let s = ctx
            .type_create_subarray(
                &[count, stride],
                &[count, block],
                &[0, 0],
                Order::C,
                MPI_BYTE,
            )
            .unwrap();
        let mut kinds = Vec::new();
        for dt in [v, h, s] {
            mpi.type_commit(&mut ctx, dt).unwrap();
            kinds.push(mpi.tempi.plan(dt).unwrap().kind.clone());
        }
        assert_eq!(&kinds[0], &kinds[1]);
        assert_eq!(&kinds[1], &kinds[2]);
    });
}

/// A struct keeps a strided member as one entry of its plan, and the entry
/// is canonical: for random 2-D members the struct of vectors, of hvectors
/// and of subarrays commit to one member list, in either displacement
/// order; `bl` elements are one more dimension; a zero-length member is not
/// there; and a member alone is its own strided plan.
#[test]
fn struct_members_one_plan_however_described() {
    let geometry = |rng: &mut common::Rng| {
        let member = |rng: &mut common::Rng| {
            let (count, block) = (2 + rng.below(6) as i64, 1 + rng.below(24) as i64);
            (count, block, block + 1 + rng.below(16) as i64)
        };
        (member(rng), member(rng), rng.below(2) == 1)
    };
    let kind_of = |spec: &str| {
        let mut ctx = ctx();
        let mut mpi = InterposedMpi::new(TempiConfig::default());
        let dt = spec.parse::<TypeTree>().unwrap().build(&mut ctx).unwrap();
        mpi.type_commit(&mut ctx, dt).unwrap();
        mpi.tempi.plan(dt).unwrap().kind.clone()
    };
    for_each_case(0xe4, 48, geometry, |&(a, b, descending)| {
        // one member three ways; a subarray's extent is the whole array,
        // which a single element does not show
        let described = |(count, block, stride): (i64, i64, i64)| {
            [
                format!("vector({count}, {block}, {stride}, byte)"),
                format!("hvector({count}, 1, {stride}, contiguous({block}, byte))"),
                format!("subarray([{count}, {stride}], [{count}, {block}], [0, 0], byte)"),
            ]
        };
        let extent = |(count, _, stride): (i64, i64, i64)| count * stride;
        // a, an int, b — laid out up or down the buffer
        let mut at = [0, extent(a) + 3, extent(a) + 7 + 5];
        if descending {
            at = [extent(b) + 4 + 5, extent(b) + 2, 0];
        }
        let three = |a: &str, b: &str| {
            kind_of(&format!(
                "struct([1,1,1],[{},{},{}],[{a},int,{b}])",
                at[0], at[1], at[2]
            ))
        };
        let (as_a, as_b) = (described(a), described(b));
        let want = three(&as_a[0], &as_b[0]);
        let PlanKind::Multi(members) = &want else {
            panic!("a struct of strided members is a member list, got {want:?}");
        };
        assert_eq!(members.len(), 3);
        for (x, y) in [(1, 1), (2, 2), (0, 2), (1, 0)] {
            assert_eq!(three(&as_a[x], &as_b[y]), want, "descriptions {x} and {y}");
        }
        // a zero-length member vanishes
        let four = format!(
            "struct([1,0,1,1],[{},1,{},{}],[{},double,int,{}])",
            at[0], at[1], at[2], as_a[0], as_b[0]
        );
        assert_eq!(kind_of(&four), want);
        // two elements are one more dimension, an extent apart
        let (v, ex) = (&as_a[0], (a.0 - 1) * a.2 + a.1);
        let twice = kind_of(&format!("struct([2,1],[0,{}],[{v},int])", 2 * ex + 1));
        let nested = format!("hvector(2, 1, {ex}, {v})");
        assert_eq!(
            twice,
            kind_of(&format!("struct([1,1],[0,{}],[{nested},int])", 2 * ex + 1))
        );
        assert!(matches!(&twice, PlanKind::Multi(m) if m[0].ndims == 3));
        // one member is that member, wherever it is put
        for description in &as_a {
            assert_eq!(
                kind_of(&format!("struct([1],[0],[{description}])")),
                kind_of(v)
            );
        }
        assert_eq!(kind_of(&format!("struct([2],[0],[{v}])")), kind_of(&nested));
        let shifted = format!(
            "subarray([{}, {}], [{}, {}], [1, 0], byte)",
            a.0 + 1,
            a.2,
            a.0,
            a.1
        );
        assert_eq!(
            kind_of(&format!("struct([1],[{}],[{v}])", a.2)),
            kind_of(&shifted)
        );
    });
}

/// Wrapping any type in `contiguous(1, ...)`, `vector(1,1,1, ...)` or
/// `dup` never changes the committed plan.
#[test]
fn identity_wrappers_are_invisible() {
    for_each_case(0xe2, 64, arb_typetree, |desc| {
        let mut ctx = ctx();
        let mut mpi = InterposedMpi::new(TempiConfig::default());
        let base = desc.build(&mut ctx).unwrap();
        let c1 = ctx.type_contiguous(1, base).unwrap();
        let v1 = ctx.type_vector(1, 1, 1, base).unwrap();
        let d1 = ctx.type_dup(base).unwrap();
        mpi.type_commit(&mut ctx, base).unwrap();
        let want = mpi.tempi.plan(base).unwrap().kind.clone();
        for dt in [c1, v1, d1] {
            mpi.type_commit(&mut ctx, dt).unwrap();
            assert_eq!(&mpi.tempi.plan(dt).unwrap().kind, &want);
        }
    });
}

/// For random runs, the struct / hindexed / indexed_block
/// constructions all produce the same committed block list.
#[test]
fn random_runs_one_block_list() {
    let runs = |rng: &mut common::Rng| {
        let bl = 1 + rng.below(4) as i32;
        let gaps: Vec<i32> = (0..1 + rng.below(7)).map(|_| rng.below(6) as i32).collect();
        let rotate = rng.below(8) as usize;
        (bl, gaps, rotate)
    };
    for_each_case(0xe3, 64, runs, |(bl, gaps, rotate)| {
        // non-overlapping runs, visited from an arbitrary one round
        let mut displs: Vec<i32> = gaps
            .iter()
            .scan(0, |at, gap| {
                let d = *at + gap;
                *at = d + bl;
                Some(d)
            })
            .collect();
        let n = displs.len();
        displs.rotate_left(rotate % n);
        let kinds = block_list_constructions(*bl, &displs);
        assert!(matches!(kinds[0], PlanKind::Blocks(_)));
        assert_eq!(&kinds[0], &kinds[1]);
        assert_eq!(&kinds[1], &kinds[2]);
    });
}
