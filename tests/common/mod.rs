//! Shared helpers for the integration tests: a seeded generator of random
//! (bounded) MPI derived datatypes as [`TypeTree`]s, the loop that runs a
//! property over generated cases, and buffer utilities.
//!
//! Each integration-test binary includes this module separately, and not
//! every binary uses every helper.
#![allow(dead_code)]

use std::fmt::Debug;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};

use mpi_sim::datatype::{Dim, Named, Order, TypeAttrs, TypeDef, TypeTree};
use mpi_sim::{Datatype, RankCtx, WorldConfig};
pub use tempi_chaos::Rng;

/// Run `property` on `cases` inputs drawn from one `Rng::new(seed)` stream.
///
/// Nothing shrinks a failing input (that arrives with the fuzzer, on
/// `tempi-chaos`'s ddmin), so a failure must carry everything a replay
/// needs: the panic names the seed, the case index and the input. A
/// [`TypeTree`] prints as its spec, so the datatype of a failing case
/// pastes into `tempi-cli describe` or `str::parse`. The property's own
/// assertion message is printed above it.
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

/// Run `property` on `cases` generated trees, then on half as many generated
/// structs — what [`arb_typetree`] reaches one time in ten.
pub fn for_each_tree(seed: u64, cases: u32, property: impl Fn(&TypeTree)) {
    for_each_case(seed, cases, arb_typetree, &property);
    for_each_case(seed, cases / 2, arb_struct, &property);
}

/// The struct shapes every struct check walks, by name: what the random
/// generator reaches only sometimes is here every time.
pub fn struct_zoo() -> Vec<(&'static str, TypeTree)> {
    [
        (
            "padding between members",
            "struct([1,2,1],[0,7,28],[int,double,short])",
        ),
        (
            "a zero-length member",
            "struct([1,0,2],[0,4,16],[int,double,byte])",
        ),
        (
            "descending displacements",
            "struct([1,2,1],[23,2,0],[int,double,short])",
        ),
        (
            "a vector member",
            "struct([2,1],[0,21],[vector(3,2,4,byte),int])",
        ),
        (
            "a resized member",
            "struct([2,1],[0,18],[resized(0,9,int),short])",
        ),
        (
            "struct under vector",
            "vector(3, 2, 3, struct([1,2,1],[0,7,28],[int,double,short]))",
        ),
        (
            "struct under contiguous",
            "contiguous(3, struct([1,2,1],[23,2,0],[int,double,short]))",
        ),
    ]
    .map(|(what, spec)| (what, spec.parse().expect("the zoo's own specs parse")))
    .into()
}

/// What the properties generate: valid constructions nested up to three
/// deep, of small non-overlapping pieces.
pub fn arb_typetree(rng: &mut Rng) -> TypeTree {
    generate(rng, 3, &mut RankCtx::standalone(&WorldConfig::summit(1))).0
}

/// A struct whose members are single constructions over named types — the
/// strided family, the indexed one, resized — or named types themselves.
pub fn arb_struct(rng: &mut Rng) -> TypeTree {
    let scratch = &mut RankCtx::standalone(&WorldConfig::summit(1));
    TypeTree(Box::new(struct_node(rng, 2, scratch)))
}

/// A random tree nested at most `depth` constructors deep, and its bounds,
/// which the constructor above it sizes its strides and displacements by:
/// the tree is built into `scratch` to read them.
fn generate(rng: &mut Rng, depth: u32, scratch: &mut RankCtx) -> (TypeTree, TypeAttrs) {
    let tree = TypeTree(Box::new(node(rng, depth, scratch)));
    let dt = tree
        .build(scratch)
        .expect("the generator's arguments are valid");
    (tree, scratch.attrs(dt).expect("just built"))
}

/// One draw in four stops early at a named type, so shallow and deep trees
/// both occur; above a leaf the ten constructors are equally likely.
fn node(rng: &mut Rng, depth: u32, scratch: &mut RankCtx) -> TypeDef<TypeTree> {
    if depth == 0 || rng.below(4) == 0 {
        let leaves = [
            Named::Byte,
            Named::Int,
            Named::Float,
            Named::Double,
            Named::Short,
        ];
        return TypeDef::Named(leaves[rng.below(5) as usize]);
    }
    // uniform in `lo..lo + n`
    let pick = |rng: &mut Rng, lo: i32, n: i32| lo + rng.below(n as u64) as i32;
    let kind = rng.below(10);
    // one to three of anything listed
    let some = |rng: &mut Rng| 1 + rng.below(3) as usize;
    if kind == 6 {
        return struct_node(rng, depth, scratch);
    }
    let (oldtype, a) = generate(rng, depth - 1, scratch);
    match kind {
        0 => TypeDef::Contiguous {
            count: pick(rng, 1, 6),
            oldtype,
        },
        1 => {
            // stride ≥ blocklength keeps blocks non-overlapping
            let blocklength = pick(rng, 1, 4);
            TypeDef::Vector {
                count: pick(rng, 1, 5),
                blocklength,
                stride: blocklength + pick(rng, 0, 4),
                oldtype,
            }
        }
        2 => TypeDef::Hvector {
            count: pick(rng, 1, 5),
            blocklength: 1,
            stride_bytes: a.extent() + pick(rng, 0, 16) as i64,
            oldtype,
        },
        3 => {
            let sizes = [pick(rng, 2, 6), pick(rng, 2, 6)];
            let subsizes = sizes.map(|size| pick(rng, 1, size));
            let starts = [0, 1].map(|d| pick(rng, 0, sizes[d] - subsizes[d] + 1));
            let order = [Order::C, Order::Fortran][rng.below(2) as usize];
            TypeDef::Subarray {
                dims: Dim::from_lists(&sizes, &subsizes, &starts, order).expect("equal lengths"),
                oldtype,
            }
        }
        4 => {
            // increasing byte displacements, 0..8 bytes between blocks
            let blocklengths: Vec<i32> = (0..some(rng)).map(|_| pick(rng, 1, 3)).collect();
            let mut at = 0;
            let displacements_bytes = (blocklengths.iter())
                .map(|&bl| {
                    let here = at;
                    at += bl as i64 * a.extent() + pick(rng, 0, 8) as i64;
                    here
                })
                .collect();
            TypeDef::Hindexed {
                blocklengths,
                displacements_bytes,
                oldtype,
            }
        }
        5 => {
            // increasing element displacements, 0..4 elements between blocks
            let blocklength = pick(rng, 1, 3);
            let mut at = 0;
            let displacements = (0..some(rng))
                .map(|_| {
                    let here = at;
                    at += blocklength + pick(rng, 0, 4);
                    here
                })
                .collect();
            TypeDef::IndexedBlock {
                blocklength,
                displacements,
                oldtype,
            }
        }
        7 => TypeDef::Resized {
            lb: a.lb,
            extent: a.extent() + pick(rng, 0, 8) as i64,
            oldtype,
        },
        8 => {
            // increasing element displacements, 0..4 elements between blocks
            let blocklengths: Vec<i32> = (0..some(rng)).map(|_| pick(rng, 1, 3)).collect();
            let mut at = 0;
            let displacements = (blocklengths.iter())
                .map(|&bl| {
                    let here = at;
                    at += bl + pick(rng, 0, 4);
                    here
                })
                .collect();
            TypeDef::Indexed {
                blocklengths,
                displacements,
                oldtype,
            }
        }
        _ => TypeDef::Dup { oldtype },
    }
}

/// A struct of one to three members, each nested at most `depth - 1`
/// constructors deep: laid end to end with 0..8 bytes of padding between
/// them, from the first member up or — descending displacements — from the
/// last; one blocklength in three is a zero-length member, one is two
/// elements.
fn struct_node(rng: &mut Rng, depth: u32, scratch: &mut RankCtx) -> TypeDef<TypeTree> {
    let pick = |rng: &mut Rng, lo: i32, n: i32| lo + rng.below(n as u64) as i32;
    let descending = rng.below(2) == 1;
    let (mut blocklengths, mut types, mut reach) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..1 + rng.below(3) {
        let (bl, pad) = (pick(rng, 0, 3), pick(rng, 0, 8));
        let (member, a) = generate(rng, depth - 1, scratch);
        let last = (bl as i64 - 1).max(0) * a.extent();
        reach.push(last + a.true_ub.max(a.ub).max(0) + pad as i64);
        blocklengths.push(bl);
        types.push(member);
    }
    let mut order: Vec<usize> = (0..types.len()).collect();
    if descending {
        order.reverse();
    }
    let mut displacements_bytes = vec![0; types.len()];
    let mut at = 0;
    for i in order {
        displacements_bytes[i] = at;
        at += reach[i];
    }
    TypeDef::Struct {
        blocklengths,
        displacements_bytes,
        types,
    }
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

/// Recurse in frames of at least 1 KiB until `want` bytes of stack lie
/// between `top` and the current frame, telling `at` each frame's depth,
/// then run `bottom` there; returns the depth reached in frames.
pub fn descend(top: usize, want: usize, at: fn(usize), bottom: &mut dyn FnMut()) -> usize {
    let mut frame = [0u8; 1024];
    black_box(&mut frame);
    let used = top - frame.as_ptr() as usize;
    at(used);
    // Read the frame after the call, so the recursion cannot become a loop.
    let deeper = if used >= want {
        bottom();
        0
    } else {
        descend(top, want, at, bottom)
    };
    1 + deeper + usize::from(black_box(&frame)[0])
}

/// `body`, run beneath `spent` bytes of this thread's stack used up (by
/// [`descend`], from this call's frame down); with `spent` 0, run at once.
pub fn on_spent_stack<R>(spent: usize, body: impl FnOnce() -> R) -> R {
    if spent == 0 {
        return body();
    }
    let top = 0u8;
    let (mut body, mut out) = (Some(body), None);
    let top = black_box(&top) as *const u8 as usize;
    descend(top, spent, |_| {}, &mut || out = body.take().map(|b| b()));
    out.expect("the body ran at the bottom")
}
