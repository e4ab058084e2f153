//! Cross-layer property tests: TEMPI's committed plans must denote exactly
//! the bytes the MPI typemap semantics define, for arbitrary datatypes.

mod common;

use std::collections::HashSet;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use common::{arb_typetree, for_each_case, for_each_tree, pattern, struct_zoo, Rng};
use mpi_sim::datatype::typemap::{data_bytes, for_each_block, segments};
use mpi_sim::datatype::{pack_cpu, TypeDef, TypeTree};
use mpi_sim::{payload_checksum, Combiner, MpiError, RankCtx, WorldConfig};
use tempi_core::config::TempiConfig;
use tempi_core::ir::strided_block::MAX_MEMBERS;
use tempi_core::tempi::{PlanKind, Tempi};
use tempi_stencil::Frame;

fn ctx() -> RankCtx {
    RankCtx::standalone(&WorldConfig::summit(1))
}

/// Merge adjacent-in-order contiguous runs (both the plan enumeration and
/// the typemap oracle are normalized this way before comparison).
fn normalize(runs: Vec<(i64, u64)>) -> Vec<(i64, u64)> {
    let mut out: Vec<(i64, u64)> = Vec::new();
    for (off, len) in runs {
        if len == 0 {
            continue;
        }
        if let Some(last) = out.last_mut() {
            if last.0 + last.1 as i64 == off {
                last.1 += len;
                continue;
            }
        }
        out.push((off, len));
    }
    out
}

/// Enumerate the byte runs a committed plan denotes, in plan order.
fn plan_runs(plan: &tempi_core::TypePlan) -> Option<Vec<(i64, u64)>> {
    match &plan.kind {
        PlanKind::Empty => Some(Vec::new()),
        PlanKind::Strided(kp) => {
            let mut v = Vec::new();
            let len = kp.sb.block_bytes() as u64;
            kp.sb.for_each_block(|off| v.push((off, len)));
            Some(v)
        }
        PlanKind::Blocks(bl) => Some(bl.blocks.clone()),
        PlanKind::Multi(members) => {
            let mut v = Vec::new();
            for m in members {
                m.for_each_block(|off, len| v.push((off, len as u64)));
            }
            Some(v)
        }
        PlanKind::Fallback(_) => None,
    }
}

/// THE invariant: for any datatype TEMPI accelerates, the committed
/// plan's block enumeration covers exactly the typemap's byte runs, in
/// the same order.
#[test]
fn committed_plan_equals_typemap_oracle() {
    for_each_tree(0xb1, 128, |desc| {
        let mut ctx = ctx();
        let mut tempi = Tempi::default();
        let dt = desc.build(&mut ctx).unwrap();
        let plan = tempi.type_commit(&mut ctx, dt).unwrap();
        let Some(runs) = plan_runs(&plan) else {
            // fallback plans delegate to the system MPI, which walks the
            // typemap directly — nothing to compare
            return;
        };
        let oracle: Vec<(i64, u64)> = {
            let reg = ctx.registry().read();
            segments(&reg, dt)
                .unwrap()
                .into_iter()
                .map(|s| (s.off, s.len))
                .collect()
        };
        assert_eq!(normalize(runs), normalize(oracle));
    });
}

/// Plan metadata is consistent: size equals the denoted bytes, and the
/// strided block geometry multiplies out.
#[test]
fn plan_metadata_consistent() {
    let member_lists = std::cell::Cell::new(0);
    for_each_tree(0xb2, 128, |desc| {
        let mut ctx = ctx();
        let mut tempi = Tempi::default();
        let dt = desc.build(&mut ctx).unwrap();
        let plan = tempi.type_commit(&mut ctx, dt).unwrap();
        let attrs = ctx.attrs(dt).unwrap();
        assert_eq!(plan.size, attrs.size);
        assert_eq!(plan.extent, attrs.extent());
        if let PlanKind::Strided(kp) = &plan.kind {
            assert_eq!(kp.sb.data_bytes() as u64, plan.size);
            assert_eq!(
                kp.sb.block_bytes() * kp.sb.block_count(),
                kp.sb.data_bytes()
            );
            // word divides the block and every outer stride
            let w = kp.word as i64;
            assert_eq!(kp.sb.block_bytes() % w, 0);
            for &s in &kp.sb.strides[1..] {
                assert_eq!(s % w, 0);
            }
            // block dims within device limits
            assert!(kp.block.count() <= 1024);
        }
        if let PlanKind::Multi(members) = &plan.kind {
            member_lists.set(member_lists.get() + 1);
            // a list is several members, one of them of several dimensions
            assert!((2..=MAX_MEMBERS).contains(&members.len()));
            assert!(members.iter().any(|m| m.ndims > 1));
            let bytes: i64 = members.iter().map(|m| m.data_bytes()).sum();
            assert_eq!(bytes as u64, plan.size);
            let mut packed = 0;
            for m in members {
                // no member is empty, none has a dimension of one element
                let n = m.ndims as usize;
                assert!(m.counts[0] > 0 && m.counts[1..n].iter().all(|&c| c > 1));
                assert!(m.counts[n..].iter().all(|&c| c == 1));
                // its word divides its block, its strides, its start on
                // both sides, in every item
                let w = m.word as i64;
                let aligned = [m.start, packed, plan.size as i64, m.counts[0]];
                assert!(aligned.iter().chain(&m.strides[1..]).all(|x| x % w == 0));
                packed += m.data_bytes();
            }
        }
    });
    assert!(member_lists.get() > 0, "the generator reaches member lists");
}

/// Canonicalization never changes what a type denotes: plans with and
/// without it cover the same bytes (only the kernel parameterization
/// differs).
#[test]
fn canonicalization_preserves_semantics() {
    for_each_tree(0xb3, 128, |desc| {
        let mut ctx = ctx();
        let dt = desc.build(&mut ctx).unwrap();
        let mut canon = Tempi::default();
        let mut raw = Tempi::new(TempiConfig {
            canonicalize: false,
            ..TempiConfig::default()
        });
        let p1 = canon.type_commit(&mut ctx, dt).unwrap();
        let p2 = raw.type_commit(&mut ctx, dt).unwrap();
        // raw trees may fail StridedBlock conversion and fall back; that
        // is allowed — semantics then come from the system MPI
        if let (Some(a), Some(b)) = (plan_runs(&p1), plan_runs(&p2)) {
            assert_eq!(normalize(a), normalize(b));
        }
    });
}

/// End-to-end integrity over the datatype zoo: pack any datatype, and
/// the envelope checksum round-trips byte-exactly — every FNV-1a
/// implementation in the stack (wire envelope, GPU region checksum,
/// checkpoint frame) agrees on the packed bytes, and corrupting any
/// single byte is always detected (each FNV-1a step is a bijection of
/// the 64-bit state, so one changed byte must change the digest).
#[test]
fn checksum_roundtrips_over_packed_datatypes() {
    // a datatype, where to flip a byte (scaled to the packed length), and
    // a non-zero mask to flip it with
    let case = |rng: &mut Rng| {
        let desc = arb_typetree(rng);
        (desc, rng.next_u64(), 1 + rng.below(255) as u8)
    };
    for_each_case(0xb4, 128, case, |(desc, flip_idx, mask)| {
        let mut ctx = ctx();
        let dt = desc.build(&mut ctx).unwrap();
        let attrs = ctx.attrs(dt).unwrap();
        let span = attrs.true_ub.max(attrs.ub).max(1) as usize + 64;
        let src = pattern(span);
        let packed_len = attrs.size as usize;
        let mut packed = vec![0u8; packed_len];
        {
            let reg = ctx.registry().read();
            let mut pos = 0;
            pack_cpu::pack(&reg, &src, 0, 1, dt, &mut packed, &mut pos).unwrap();
        }
        let c = payload_checksum(&packed);
        assert_eq!(payload_checksum(&packed.clone()), c, "deterministic");
        // the GPU-side region checksum agrees with the wire checksum
        let host = ctx.gpu.host_alloc(packed_len.max(1)).unwrap();
        ctx.gpu.memory().poke(host, &packed).unwrap();
        assert_eq!(
            ctx.gpu.memory().checksum_region(host, packed_len).unwrap(),
            c
        );
        ctx.gpu.free(host).unwrap();
        // the checkpoint frame restates FNV-1a (so spilled frames verify
        // without a live runtime) and round-trips the payload byte-exactly
        let frame = Frame {
            generation: 7,
            epoch: 3,
            comm_rank: 1,
            world_rank: 2,
            dims: [1, 1, 1],
            local: [1, 1, 1],
            payload: packed.clone(),
        };
        let back = Frame::decode(&frame.encode()).unwrap();
        assert_eq!(&back.payload, &packed);
        // any single corrupted byte is detected
        if !packed.is_empty() {
            let i = (*flip_idx % packed.len() as u64) as usize;
            let mut bad = packed.clone();
            bad[i] ^= mask;
            assert_ne!(payload_checksum(&bad), c);
        }
    });
}

/// Committing twice (same handle) is idempotent and returns the same
/// plan object.
#[test]
fn commit_idempotent() {
    for_each_tree(0xb5, 128, |desc| {
        let mut ctx = ctx();
        let mut tempi = Tempi::default();
        let dt = desc.build(&mut ctx).unwrap();
        let a = tempi.type_commit(&mut ctx, dt).unwrap();
        let b = tempi.type_commit(&mut ctx, dt).unwrap();
        assert!(std::sync::Arc::ptr_eq(&a, &b));
    });
}

// ---- the generator itself ------------------------------------------------

/// The combiner at the root of `tree` and at every node below it, and the
/// depth of the deepest one.
fn survey(tree: &TypeTree, seen: &mut HashSet<Combiner>) -> u32 {
    if tree.0.combiner() == Combiner::Named {
        return 0;
    }
    seen.insert(tree.0.combiner());
    let below = tree.0.children().iter().map(|c| survey(c, seen)).max();
    1 + below.unwrap_or(0)
}

/// The smallest case budget any property runs with (64) already holds
/// every constructor and a tree of full depth, and a seed names one
/// sequence.
#[test]
fn the_generator_covers_every_constructor_and_repeats_per_seed() {
    let draw = |seed| {
        let mut rng = Rng::new(seed);
        (0..64).map(|_| arb_typetree(&mut rng)).collect::<Vec<_>>()
    };
    let cases = draw(0xe2);
    let mut seen = HashSet::new();
    let deepest = cases.iter().map(|d| survey(d, &mut seen)).max();
    assert_eq!(seen.len(), 10, "constructors generated: {seen:?}");
    assert_eq!(deepest, Some(3));
    assert_eq!(cases, draw(0xe2), "one seed, one sequence");
    assert_ne!(cases, draw(0xe3), "another seed, another sequence");
}

/// A tree is one description three ways: built into a registry it reads
/// back out as itself (so `get_contents` encodes every constructor's
/// arguments losslessly), and what it prints parses back to itself — and
/// is what `describe` prints for the handle.
#[test]
fn trees_round_trip_through_the_registry_and_the_grammar() {
    let round_trip = |tree: &TypeTree| {
        let mut ctx = ctx();
        let dt = tree.build(&mut ctx).unwrap();
        assert_eq!(&TypeTree::of(&ctx.registry().read(), dt).unwrap(), tree);
        assert_eq!(&tree.to_string().parse::<TypeTree>().unwrap(), tree);
        assert_eq!(ctx.describe(dt), tree.to_string());
    };
    for (_, tree) in struct_zoo() {
        round_trip(&tree);
    }
    for_each_tree(0xb6, 256, round_trip);
}

/// The bounds the registry records for a type — one checked fold over its
/// blocks — agree with the typemap oracle, which walks every element: the
/// size is the bytes the typemap covers, the true bounds its lowest byte
/// and one past its highest.
#[test]
fn registry_attributes_match_the_typemap_oracle() {
    let check = |tree: &TypeTree| {
        let mut ctx = ctx();
        let dt = tree.build(&mut ctx).unwrap();
        let reg = ctx.registry().read();
        let (attrs, segs) = (reg.attrs(dt).unwrap(), segments(&reg, dt).unwrap());
        assert_eq!(attrs.size, data_bytes(&segs));
        // the block walk visits the list, in order, and a sink's error
        // ends it there
        let mut visited = Vec::new();
        let stop = segs.len() / 2;
        let walked = for_each_block(&reg, dt, |b| {
            visited.push(b);
            match visited.len() > stop {
                true => Err(MpiError::InvalidArg("stop".into())),
                false => Ok(()),
            }
        });
        assert_eq!(visited, segs[..segs.len().min(stop + 1)]);
        assert_eq!(walked.is_err(), !segs.is_empty());
        if attrs.size > 0 {
            let lowest = segs.iter().map(|s| s.off).min();
            let end = segs.iter().map(|s| s.off + s.len as i64).max();
            assert_eq!((lowest, end), (Some(attrs.true_lb), Some(attrs.true_ub)));
        }
    };
    for (_, tree) in struct_zoo() {
        check(&tree);
    }
    for_each_tree(0xb7, 256, check);
}

/// What a failing property leaves behind: the seed, the case index and
/// the input, enough to replay it — the input as a spec that parses back
/// to the tree that failed.
#[test]
#[should_panic(expected = "replay: seed 0x5eed, case 2 of 64, input contiguous(1, ")]
fn a_failing_property_names_its_seed_case_and_input() {
    let contig = |rng: &mut Rng| {
        TypeTree(Box::new(TypeDef::Contiguous {
            count: 1,
            oldtype: arb_typetree(rng),
        }))
    };
    let mut rng = Rng::new(0x5eed);
    let third = (0..3).map(|_| contig(&mut rng)).last().unwrap();
    let calls = std::cell::Cell::new(0);
    let failure = catch_unwind(AssertUnwindSafe(|| {
        for_each_case(0x5eed, 64, contig, |_| {
            calls.set(calls.get() + 1);
            assert!(calls.get() < 3, "deliberate: the third case fails");
        })
    }))
    .unwrap_err();
    let line = failure.downcast_ref::<String>().expect("a formatted panic");
    let (_, input) = line.split_once(", input ").expect("the replay line");
    assert_eq!(input.parse::<TypeTree>().unwrap(), third);
    resume_unwind(failure)
}
