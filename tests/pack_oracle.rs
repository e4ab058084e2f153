//! Property tests: TEMPI's GPU pack/unpack agree with the CPU typemap
//! oracle for arbitrary bounded derived datatypes, and unpack inverts
//! pack.

mod common;

use common::{
    arb_struct, arb_typetree, for_each_case, for_each_tree, pattern, span_of, struct_zoo,
};
use gpu_sim::MemSpace;
use mpi_sim::consts::MPI_SHORT;
use mpi_sim::datatype::{pack_cpu, typemap, TypeTree};
use mpi_sim::{Order, RankCtx, VendorProfile, WorldConfig};
use tempi_core::config::TempiConfig;
use tempi_core::interpose::InterposedMpi;
use tempi_core::PlanKind;

fn ctx() -> RankCtx {
    RankCtx::standalone(&WorldConfig::summit(1))
}

/// Every named struct shape, in the default configuration: the plan is a
/// block list or a member list (TEMPI's kernels, not the system MPI's
/// copy-per-block), the
/// GPU pack equals the CPU typemap oracle for one item and for two, and
/// unpack restores every byte the type covers and no other.
#[test]
fn struct_zoo_packs_and_unpacks_like_the_oracle() {
    for (what, desc) in struct_zoo() {
        for incount in [1usize, 2] {
            let mut ctx = ctx();
            let mut mpi = InterposedMpi::new(TempiConfig::default());
            let dt = desc.build(&mut ctx).unwrap();
            mpi.type_commit(&mut ctx, dt).unwrap();
            let plan = mpi.tempi.plan(dt).unwrap();
            // a member of several strided dimensions makes it a member list
            let strided = ["a vector member", "a resized member"].contains(&what);
            match &plan.kind {
                PlanKind::Blocks(_) => assert!(!strided, "{what}: {plan:?}"),
                PlanKind::Multi(_) => assert!(strided, "{what}: {plan:?}"),
                _ => panic!("{what}: {plan:?}"),
            }

            let size = ctx.attrs(dt).unwrap().size as usize * incount;
            let span = span_of(&ctx, dt, incount);
            let data = pattern(span);
            let src = ctx.gpu.malloc(span).unwrap();
            ctx.gpu.memory().poke(src, &data).unwrap();
            let packed = ctx.gpu.malloc(size).unwrap();
            let mut pos = 0;
            mpi.pack(&mut ctx, src, incount, dt, packed, size, &mut pos)
                .unwrap();
            assert_eq!(pos, size, "{what}");
            let mut want = vec![0u8; size];
            pack_cpu::pack(
                &ctx.registry().read(),
                &data,
                0,
                incount,
                dt,
                &mut want,
                &mut 0,
            )
            .unwrap();
            assert_eq!(ctx.gpu.memory().peek(packed, size).unwrap(), want, "{what}");

            // unpack into zeroes: the CPU unpack of the same bytes is the oracle
            let out = ctx.gpu.malloc(span).unwrap();
            ctx.gpu.memory().poke(out, &vec![0u8; span]).unwrap();
            let mut pos = 0;
            mpi.unpack(&mut ctx, packed, size, &mut pos, out, incount, dt)
                .unwrap();
            let mut restored = vec![0u8; span];
            pack_cpu::unpack(
                &ctx.registry().read(),
                &want,
                &mut 0,
                &mut restored,
                0,
                incount,
                dt,
            )
            .unwrap();
            assert_eq!(
                ctx.gpu.memory().peek(out, span).unwrap(),
                restored,
                "{what}"
            );
            assert_eq!(mpi.tempi.stats.fallbacks, 0, "{what}");
        }
    }
}

/// For any generated datatype, TEMPI's GPU MPI_Pack produces exactly
/// the bytes the reference CPU pack produces.
#[test]
fn gpu_pack_matches_cpu_oracle() {
    let case = |rng: &mut common::Rng| (arb_typetree(rng), 1 + rng.below(2) as usize);
    let structs = |rng: &mut common::Rng| (arb_struct(rng), 1 + rng.below(2) as usize);
    let property = |(desc, incount): &(TypeTree, usize)| {
        let incount = *incount;
        let mut ctx = ctx();
        let mut mpi = InterposedMpi::new(TempiConfig::default());
        let dt = desc.build(&mut ctx).unwrap();
        mpi.type_commit(&mut ctx, dt).unwrap();

        let size = ctx.attrs(dt).unwrap().size as usize * incount;
        if size == 0 || size >= 1 << 20 {
            return;
        }
        let span = span_of(&ctx, dt, incount);
        let data = pattern(span);

        // GPU pack through TEMPI
        let src = ctx.gpu.malloc(span).unwrap();
        ctx.gpu.memory().poke(src, &data).unwrap();
        let dst = ctx.gpu.malloc(size).unwrap();
        let mut pos = 0;
        mpi.pack(&mut ctx, src, incount, dt, dst, size, &mut pos)
            .unwrap();
        assert_eq!(pos, size);
        let gpu_out = ctx.gpu.memory().peek(dst, size).unwrap();

        // CPU oracle
        let reg = ctx.registry().read();
        let mut cpu_out = vec![0u8; size];
        let mut p = 0;
        pack_cpu::pack(&reg, &data, 0, incount, dt, &mut cpu_out, &mut p).unwrap();
        assert_eq!(gpu_out, cpu_out);
    };
    for_each_case(0xa1, 96, case, property);
    for_each_case(0xa1, 48, structs, property);
}

/// Unpack after pack restores every byte the datatype covers.
#[test]
fn unpack_inverts_pack() {
    for_each_tree(0xa2, 96, |desc| {
        let mut ctx = ctx();
        let mut mpi = InterposedMpi::new(TempiConfig::default());
        let dt = desc.build(&mut ctx).unwrap();
        mpi.type_commit(&mut ctx, dt).unwrap();
        let size = ctx.attrs(dt).unwrap().size as usize;
        if size == 0 || size >= 1 << 20 {
            return;
        }
        let span = span_of(&ctx, dt, 1);
        let data = pattern(span);

        let src = ctx.gpu.malloc(span).unwrap();
        ctx.gpu.memory().poke(src, &data).unwrap();
        let packed = ctx.gpu.malloc(size).unwrap();
        let out = ctx.gpu.malloc(span).unwrap();

        let mut pos = 0;
        mpi.pack(&mut ctx, src, 1, dt, packed, size, &mut pos)
            .unwrap();
        let mut pos = 0;
        mpi.unpack(&mut ctx, packed, size, &mut pos, out, 1, dt)
            .unwrap();

        // every covered byte equals the source
        let reg = ctx.registry().read();
        let segs = mpi_sim::datatype::typemap::segments(&reg, dt).unwrap();
        let got = ctx.gpu.memory().peek(out, span).unwrap();
        for seg in segs {
            let o = seg.off as usize;
            let l = seg.len as usize;
            assert_eq!(&got[o..o + l], &data[o..o + l]);
        }
    });
}

/// The system MPI (each vendor's baseline on device buffers, the CPU pack
/// on host buffers) and TEMPI pack the CPU oracle's bytes and unpack them
/// where the oracle does, for one item and for three — speed differs,
/// semantics must not.
#[test]
fn tempi_and_the_system_mpi_pack_the_same_bytes() {
    for_each_tree(0xa3, 96, |desc| {
        for (vendor, incount) in VendorProfile::all()
            .into_iter()
            .flat_map(|v| [(v.clone(), 1), (v, 3)])
        {
            let label = vendor.id.label();
            let mut ctx = RankCtx::standalone(&WorldConfig {
                vendor,
                ..WorldConfig::summit(1)
            });
            let dt = desc.build(&mut ctx).unwrap();
            let size = ctx.attrs(dt).unwrap().size as usize * incount;
            if size == 0 || size >= 1 << 20 {
                continue;
            }
            let span = span_of(&ctx, dt, incount);
            let data = pattern(span);
            let (mut want, mut restored) = (vec![0u8; size], vec![0u8; span]);
            let reg = ctx.registry().read();
            pack_cpu::pack(&reg, &data, 0, incount, dt, &mut want, &mut 0).unwrap();
            pack_cpu::unpack(&reg, &want, &mut 0, &mut restored, 0, incount, dt).unwrap();
            drop(reg);
            for (which, mut mpi) in [
                ("TEMPI", InterposedMpi::new(TempiConfig::default())),
                ("system", InterposedMpi::system_only()),
            ] {
                mpi.type_commit(&mut ctx, dt).unwrap();
                for space in [MemSpace::Device, MemSpace::Host] {
                    let what = format!("{which}, {label}, {incount} items, {space:?}");
                    let alloc = |ctx: &RankCtx, n| match space {
                        MemSpace::Device => ctx.gpu.malloc(n).unwrap(),
                        _ => ctx.gpu.host_alloc(n).unwrap(),
                    };
                    let (src, dst, out) = (alloc(&ctx, span), alloc(&ctx, size), alloc(&ctx, span));
                    ctx.gpu.memory().poke(src, &data).unwrap();
                    mpi.pack(&mut ctx, src, incount, dt, dst, size, &mut 0)
                        .unwrap();
                    assert_eq!(ctx.gpu.memory().peek(dst, size).unwrap(), want, "{what}");
                    mpi.unpack(&mut ctx, dst, size, &mut 0, out, incount, dt)
                        .unwrap();
                    let got = ctx.gpu.memory().peek(out, span).unwrap();
                    assert_eq!(got, restored, "{what}");
                }
            }
        }
    });
}

/// The elements of a subarray in typemap order, as offsets in elements:
/// every index tuple, the slowest dimension outermost, each index times
/// the product of the sizes of the dimensions faster than its own.
fn subarray_oracle(sizes: &[i32], subsizes: &[i32], starts: &[i32], order: Order) -> Vec<i64> {
    let n = sizes.len();
    let slowest_first: Vec<usize> = match order {
        Order::C => (0..n).collect(),
        Order::Fortran => (0..n).rev().collect(),
    };
    let faster = |i: usize| match order {
        Order::C => &sizes[i + 1..],
        Order::Fortran => &sizes[..i],
    };
    let mut offsets = vec![0i64];
    for &i in &slowest_first {
        let stride: i64 = faster(i).iter().map(|&s| s as i64).product();
        offsets = (offsets.iter())
            .flat_map(|&o| (0..subsizes[i]).map(move |j| o + (starts[i] + j) as i64 * stride))
            .collect();
    }
    offsets
}

/// Subarrays of five and six dimensions, more than a type keeps in place,
/// in both orders: `get_contents` gives back the constructor's lists, the
/// spec reads back as the same tree, the typemap covers the oracle's
/// elements in its order, and TEMPI and the system MPI both pack the
/// oracle's bytes.
#[test]
fn subarrays_of_five_and_six_dimensions_match_the_oracle() {
    let shapes: [(&[i32], &[i32], &[i32]); 2] = [
        (&[3, 4, 2, 5, 3], &[2, 3, 1, 2, 2], &[1, 0, 1, 3, 0]),
        (
            &[2, 3, 4, 2, 3, 4],
            &[1, 2, 3, 2, 2, 1],
            &[1, 1, 0, 0, 1, 2],
        ),
    ];
    for (sizes, subsizes, starts) in shapes {
        for (order, flag) in [(Order::C, 0), (Order::Fortran, 1)] {
            let what = format!("{sizes:?} {subsizes:?} {starts:?} {order:?}");
            let mut ctx = ctx();
            let dt = (ctx.type_create_subarray(sizes, subsizes, starts, order, MPI_SHORT)).unwrap();
            let elems = subarray_oracle(sizes, subsizes, starts, order);

            let reg = ctx.registry().read();
            let c = reg.contents(dt).unwrap();
            let lists = [sizes, subsizes, starts].concat();
            let ints = [&[sizes.len() as i32][..], &lists, &[flag]].concat();
            let ints: Vec<i64> = ints.iter().map(|&i| i as i64).collect();
            assert_eq!(c.integers, ints, "{what}");
            assert_eq!(c.datatypes, [MPI_SHORT], "{what}");
            let tree = TypeTree::of(&reg, dt).unwrap();
            assert_eq!(
                tree.to_string().parse::<TypeTree>().unwrap(),
                tree,
                "{what}"
            );

            let covered: Vec<i64> = (typemap::segments(&reg, dt).unwrap().iter())
                .flat_map(|s| (s.off..s.off + s.len as i64).step_by(2))
                .collect();
            let want: Vec<i64> = elems.iter().map(|e| 2 * e).collect();
            assert_eq!(covered, want, "{what}");
            drop(reg);

            let span = span_of(&ctx, dt, 1);
            let data = pattern(span);
            let want: Vec<u8> = (want.iter())
                .flat_map(|&b| data[b as usize..b as usize + 2].iter().copied())
                .collect();
            for mut mpi in [
                InterposedMpi::new(TempiConfig::default()),
                InterposedMpi::system_only(),
            ] {
                mpi.type_commit(&mut ctx, dt).unwrap();
                let src = ctx.gpu.malloc(span).unwrap();
                ctx.gpu.memory().poke(src, &data).unwrap();
                let dst = ctx.gpu.malloc(want.len()).unwrap();
                let mut pos = 0;
                mpi.pack(&mut ctx, src, 1, dt, dst, want.len(), &mut pos)
                    .unwrap();
                let packed = ctx.gpu.memory().peek(dst, want.len()).unwrap();
                assert_eq!(packed, want, "{what}");
            }
        }
    }
}
