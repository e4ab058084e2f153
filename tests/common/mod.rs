//! Shared helpers for the integration tests: a seeded generator of random
//! (bounded) MPI derived datatypes, the loop that runs a property over
//! generated cases, and buffer utilities.
//!
//! Each integration-test binary includes this module separately, and not
//! every binary uses every helper.
#![allow(dead_code)]

use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

use mpi_sim::consts::*;
use mpi_sim::datatype::Order;
use mpi_sim::{Datatype, MpiResult, RankCtx};
pub use tempi_chaos::Rng;

/// Run `property` on `cases` inputs drawn from one `Rng::new(seed)` stream.
///
/// Nothing shrinks a failing input (that arrives with the fuzzer, on
/// `tempi-chaos`'s ddmin), so a failure must carry everything a replay
/// needs: the panic names the seed, the case index and the input. The
/// property's own assertion message is printed above it.
pub fn for_each_case<T: Debug>(
    seed: u64,
    cases: u32,
    generate: impl Fn(&mut Rng) -> T,
    property: impl Fn(&T),
) {
    let mut rng = Rng::new(seed);
    for case in 0..cases {
        let input = generate(&mut rng);
        if catch_unwind(AssertUnwindSafe(|| property(&input))).is_err() {
            panic!(
                "property failed — replay: seed {seed:#x}, case {case} of {cases}, input {input:?}"
            );
        }
    }
}

/// One byte from the stream.
fn byte(rng: &mut Rng) -> u8 {
    rng.below(256) as u8
}

/// A buildable description of a derived datatype: eight constructors over
/// byte-sized parameters, which `build` folds into small valid arguments.
#[derive(Debug, Clone, PartialEq)]
pub enum TypeDesc {
    /// One of a few named types.
    Named(u8),
    /// `MPI_Type_contiguous`.
    Contig { count: u8, inner: Box<TypeDesc> },
    /// `MPI_Type_vector`.
    Vector {
        count: u8,
        blocklength: u8,
        stride_extra: u8,
        inner: Box<TypeDesc>,
    },
    /// `MPI_Type_create_hvector` with a byte stride ≥ the child extent.
    Hvector {
        count: u8,
        stride_extra: u8,
        inner: Box<TypeDesc>,
    },
    /// A 2-D subarray of bytes.
    Subarray2d {
        sizes: [u8; 2],
        frac: [u8; 2],
        inner: Box<TypeDesc>,
    },
    /// `MPI_Type_create_hindexed` with small displacements.
    Hindexed {
        blocks: Vec<(u8, u8)>,
        inner: Box<TypeDesc>,
    },
    /// `MPI_Type_create_indexed_block` with non-overlapping displacements.
    IndexedBlock {
        blocklength: u8,
        gaps: Vec<u8>,
        inner: Box<TypeDesc>,
    },
    /// `MPI_Type_create_struct`: `(blocklength, padding, type)` members laid
    /// end to end with the padding between them, from the first member up
    /// or — descending displacements — from the last. A blocklength that
    /// is 0 mod 3 is a zero-length member.
    Struct {
        members: Vec<(u8, u8, TypeDesc)>,
        descending: bool,
    },
    /// `MPI_Type_create_resized` to a larger extent.
    Resized { extra: u8, inner: Box<TypeDesc> },
}

impl TypeDesc {
    /// Build the datatype in the rank's registry.
    pub fn build(&self, ctx: &mut RankCtx) -> MpiResult<Datatype> {
        match self {
            TypeDesc::Named(n) => {
                let named = [MPI_BYTE, MPI_INT, MPI_FLOAT, MPI_DOUBLE, MPI_SHORT];
                Ok(named[*n as usize % named.len()])
            }
            TypeDesc::Contig { count, inner } => {
                let old = inner.build(ctx)?;
                ctx.type_contiguous(1 + (*count as i32 % 6), old)
            }
            TypeDesc::Vector {
                count,
                blocklength,
                stride_extra,
                inner,
            } => {
                let old = inner.build(ctx)?;
                let bl = 1 + (*blocklength as i32 % 4);
                // stride ≥ blocklength keeps blocks non-overlapping
                ctx.type_vector(
                    1 + (*count as i32 % 5),
                    bl,
                    bl + (*stride_extra as i32 % 4),
                    old,
                )
            }
            TypeDesc::Hvector {
                count,
                stride_extra,
                inner,
            } => {
                let old = inner.build(ctx)?;
                let (_, ex) = ctx.attrs(old).map(|a| (a.lb, a.extent()))?;
                ctx.type_create_hvector(
                    1 + (*count as i32 % 5),
                    1,
                    ex + (*stride_extra as i64 % 16),
                    old,
                )
            }
            TypeDesc::Subarray2d { sizes, frac, inner } => {
                let old = inner.build(ctx)?;
                let s0 = 2 + (sizes[0] as i32 % 6);
                let s1 = 2 + (sizes[1] as i32 % 6);
                let sub0 = 1 + (frac[0] as i32 % s0);
                let sub1 = 1 + (frac[1] as i32 % s1);
                let st0 = (frac[1] as i32 % (s0 - sub0 + 1)).min(s0 - sub0);
                let st1 = (frac[0] as i32 % (s1 - sub1 + 1)).min(s1 - sub1);
                ctx.type_create_subarray(&[s0, s1], &[sub0, sub1], &[st0, st1], Order::C, old)
            }
            TypeDesc::Hindexed { blocks, inner } => {
                let old = inner.build(ctx)?;
                let (_, ex) = ctx.attrs(old).map(|a| (a.lb, a.extent()))?;
                // place blocks at non-overlapping, increasing displacements
                let mut bls = Vec::new();
                let mut displs = Vec::new();
                let mut at = 0i64;
                for (bl, gap) in blocks {
                    let bl = 1 + (*bl as i32 % 3);
                    displs.push(at);
                    bls.push(bl);
                    at += bl as i64 * ex + (*gap as i64 % 8);
                }
                ctx.type_create_hindexed(&bls, &displs, old)
            }
            TypeDesc::IndexedBlock {
                blocklength,
                gaps,
                inner,
            } => {
                let old = inner.build(ctx)?;
                let bl = 1 + (*blocklength as i32 % 3);
                // increasing element displacements with gaps
                let mut displs = Vec::new();
                let mut at = 0i32;
                for g in gaps {
                    displs.push(at);
                    at += bl + (*g as i32 % 4);
                }
                ctx.type_create_indexed_block(bl, &displs, old)
            }
            TypeDesc::Struct {
                members,
                descending,
            } => {
                let mut bls = Vec::new();
                let mut types = Vec::new();
                let mut reach = Vec::new(); // bytes to the next member
                for (bl, pad, inner) in members {
                    let old = inner.build(ctx)?;
                    let a = ctx.attrs(old)?;
                    let bl = *bl as i32 % 3;
                    bls.push(bl);
                    types.push(old);
                    let last = (bl as i64 - 1).max(0) * a.extent();
                    reach.push(last + a.true_ub.max(a.ub).max(0) + *pad as i64 % 8);
                }
                let mut order: Vec<usize> = (0..members.len()).collect();
                if *descending {
                    order.reverse();
                }
                let mut displs = vec![0i64; members.len()];
                let mut at = 0;
                for i in order {
                    displs[i] = at;
                    at += reach[i];
                }
                ctx.type_create_struct(&bls, &displs, &types)
            }
            TypeDesc::Resized { extra, inner } => {
                let old = inner.build(ctx)?;
                let a = ctx.attrs(old)?;
                ctx.type_create_resized(old, a.lb, a.extent() + *extra as i64 % 8)
            }
        }
    }
}

/// The struct shapes every struct check walks, by name: what the random
/// generator reaches only sometimes is here every time.
pub fn struct_zoo() -> Vec<(&'static str, TypeDesc)> {
    use TypeDesc::*;
    let (byte, int, double, short) = (Named(0), Named(1), Named(3), Named(4));
    let of = |members: &[(u8, u8, &TypeDesc)], descending| Struct {
        members: members
            .iter()
            .map(|&(bl, pad, t)| (bl, pad, t.clone()))
            .collect(),
        descending,
    };
    let padded = of(&[(1, 3, &int), (2, 5, &double), (1, 0, &short)], false);
    let descending = of(&[(1, 3, &int), (2, 5, &double), (1, 0, &short)], true);
    let vector = Vector {
        count: 2,
        blocklength: 1,
        stride_extra: 2,
        inner: Box::new(byte.clone()),
    };
    let wide_int = Resized {
        extra: 5,
        inner: Box::new(int.clone()),
    };
    vec![
        ("padding between members", padded.clone()),
        (
            "a zero-length member",
            of(&[(1, 0, &int), (0, 4, &double), (2, 0, &byte)], false),
        ),
        ("descending displacements", descending.clone()),
        (
            "a vector member",
            of(&[(2, 1, &vector), (1, 0, &int)], false),
        ),
        (
            "a resized member",
            of(&[(2, 0, &wide_int), (1, 2, &short)], false),
        ),
        (
            "struct under vector",
            Vector {
                count: 2,
                blocklength: 1,
                stride_extra: 1,
                inner: Box::new(padded),
            },
        ),
        (
            "struct under contiguous",
            Contig {
                count: 2,
                inner: Box::new(descending),
            },
        ),
    ]
}

impl TypeDesc {
    /// A random description nested at most `depth` constructors deep. One
    /// draw in four stops early at a named type, so shallow and deep trees
    /// both occur; above a leaf the eight constructors are equally likely.
    pub fn generate(rng: &mut Rng, depth: u32) -> TypeDesc {
        if depth == 0 || rng.below(4) == 0 {
            return TypeDesc::Named(byte(rng));
        }
        let inner = |rng: &mut Rng| Box::new(TypeDesc::generate(rng, depth - 1));
        // one to three of anything listed
        let some = |rng: &mut Rng| 1 + rng.below(3);
        match rng.below(8) {
            0 => TypeDesc::Contig {
                count: byte(rng),
                inner: inner(rng),
            },
            1 => TypeDesc::Vector {
                count: byte(rng),
                blocklength: byte(rng),
                stride_extra: byte(rng),
                inner: inner(rng),
            },
            2 => TypeDesc::Hvector {
                count: byte(rng),
                stride_extra: byte(rng),
                inner: inner(rng),
            },
            3 => TypeDesc::Subarray2d {
                sizes: [byte(rng), byte(rng)],
                frac: [byte(rng), byte(rng)],
                inner: inner(rng),
            },
            4 => TypeDesc::Hindexed {
                blocks: (0..some(rng)).map(|_| (byte(rng), byte(rng))).collect(),
                inner: inner(rng),
            },
            5 => TypeDesc::IndexedBlock {
                blocklength: byte(rng),
                gaps: (0..some(rng)).map(|_| byte(rng)).collect(),
                inner: inner(rng),
            },
            6 => TypeDesc::Struct {
                members: (0..some(rng))
                    .map(|_| (byte(rng), byte(rng), *inner(rng)))
                    .collect(),
                descending: rng.below(2) == 1,
            },
            _ => TypeDesc::Resized {
                extra: byte(rng),
                inner: inner(rng),
            },
        }
    }
}

/// What the properties generate: descriptions nested up to three deep.
pub fn arb_typedesc(rng: &mut Rng) -> TypeDesc {
    TypeDesc::generate(rng, 3)
}

/// Bytes a buffer must have so `incount` items of `dt` (placed at origin 0)
/// fit, including trailing slack.
pub fn span_of(ctx: &RankCtx, dt: Datatype, incount: usize) -> usize {
    let a = ctx.attrs(dt).expect("live type");
    let end = a.true_ub.max(a.ub) + (incount.max(1) as i64 - 1) * a.extent().max(0);
    (end.max(1) as usize) + 64
}

/// Deterministic fill pattern.
pub fn pattern(n: usize) -> Vec<u8> {
    (0..n).map(|i| (i % 249) as u8 ^ 0x3C).collect()
}
