//! Property tests: TEMPI's GPU pack/unpack agree with the CPU typemap
//! oracle for arbitrary bounded derived datatypes, and unpack inverts
//! pack.

mod common;

use common::{
    arb_struct, arb_typetree, for_each_case, for_each_tree, pattern, span_of, struct_zoo,
};
use mpi_sim::datatype::{pack_cpu, TypeTree};
use mpi_sim::{RankCtx, WorldConfig};
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

/// The system-MPI pack (copy-per-block baseline) and TEMPI's pack are
/// byte-identical — speed differs, semantics must not.
#[test]
fn tempi_and_the_system_mpi_pack_the_same_bytes() {
    for_each_tree(0xa3, 96, |desc| {
        let run = |interposed: bool, desc: &TypeTree| -> Option<Vec<u8>> {
            let mut ctx = ctx();
            let mut mpi = if interposed {
                InterposedMpi::new(TempiConfig::default())
            } else {
                InterposedMpi::system_only()
            };
            let dt = desc.build(&mut ctx).unwrap();
            mpi.type_commit(&mut ctx, dt).unwrap();
            let size = ctx.attrs(dt).unwrap().size as usize;
            if size == 0 || size >= 1 << 20 {
                return None;
            }
            let span = span_of(&ctx, dt, 1);
            let data = pattern(span);
            let src = ctx.gpu.malloc(span).unwrap();
            ctx.gpu.memory().poke(src, &data).unwrap();
            let dst = ctx.gpu.malloc(size).unwrap();
            let mut pos = 0;
            mpi.pack(&mut ctx, src, 1, dt, dst, size, &mut pos).unwrap();
            let out = ctx.gpu.memory().peek(dst, size).unwrap();
            Some(out)
        };
        assert_eq!(run(true, desc), run(false, desc));
    });
}
