//! Typemap semantics: the ground-truth byte layout of a datatype.
//!
//! Every MPI datatype denotes a *typemap* — a sequence of (offset, named
//! type) pairs. For pack/unpack purposes only the byte coverage and its
//! order matter, so this module walks a datatype as its contiguous
//! [`Segment`]s, merging adjacent ranges as it goes
//! ([`for_each_block`], which builds no list). That walk is:
//!
//! * the **reference semantics** against which TEMPI's canonicalized
//!   GPU kernels are verified ([`segments`] collects it as a list), and
//! * the blocks the **baseline vendor implementations** move — one
//!   `cudaMemcpyAsync` per block — whose cost TEMPI's speedups are
//!   measured against (Section 6.2 of the paper).

use std::cell::Cell;

use super::registry::TypeRegistry;
use super::walk::WalkPath;
use super::{Datatype, Dim, Order, TypeDef, TypeInfo};
use crate::error::MpiResult;

/// A maximal run of contiguous bytes within a datatype's layout, relative
/// to the type's origin (the buffer address passed by the application).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Segment {
    /// Byte offset from the origin. May be negative (types with negative
    /// lower bounds).
    pub off: i64,
    /// Length in bytes. Always > 0.
    pub len: u64,
}

/// Flatten `dt` into contiguous segments in typemap order: the blocks
/// [`for_each_block`] visits, as a list.
///
/// Adjacent-in-order segments that touch in memory are merged, so a
/// contiguous construction of any depth collapses to a single segment.
/// (Segments are *not* sorted: MPI pack order is typemap order.)
pub fn segments(reg: &TypeRegistry, dt: Datatype) -> MpiResult<Vec<Segment>> {
    let mut out = Vec::new();
    for_each_block(reg, dt, |s| {
        out.push(s);
        Ok(())
    })?;
    Ok(out)
}

/// Hand `sink` each contiguous block of one item of `dt`, in typemap
/// order, with no allocation once this thread has walked a type as deep:
/// the pieces the walk finds, merged where one starts at the byte the
/// previous one ends. A dense subtree visited in address order is one
/// block, found without visiting its elements. A dead handle anywhere in
/// the tree, or an error from `sink`, ends the walk with that error.
///
/// The levels being walked wait on a [`WalkPath`] — the first few in
/// place, the rest in storage the thread keeps from one walk to the next —
/// not in a recursion, so a type of any nesting depth is walked in
/// constant call-stack space.
pub fn for_each_block(
    reg: &TypeRegistry,
    dt: Datatype,
    sink: impl FnMut(Segment) -> MpiResult<()>,
) -> MpiResult<()> {
    thread_local! {
        /// The levels of the deepest walks, kept for the thread's next. A
        /// walk takes them and puts them back, so one begun inside
        /// another's `sink` spills to storage of its own.
        static SPILL: Cell<Vec<Frame>> = const { Cell::new(Vec::new()) };
    }
    let mut out = Blocks { open: None, sink };
    let mut path = WalkPath::new(Frame::new(dt, 0), SPILL.take());
    let walked = walk(reg, dt, &mut path, &mut out);
    SPILL.set(path.into_spill());
    walked?;
    out.open.map_or(Ok(()), out.sink)
}

/// Total bytes of data (sum of segment lengths — equals `MPI_Type_size`).
pub fn data_bytes(segs: &[Segment]) -> u64 {
    segs.iter().map(|s| s.len).sum()
}

/// The walk's merge rule: the block still growing, and where finished
/// blocks go.
struct Blocks<F> {
    open: Option<Segment>,
    sink: F,
}

impl<F: FnMut(Segment) -> MpiResult<()>> Blocks<F> {
    /// Extend the open block by `len` bytes at `off` if they touch its
    /// end; else finish it and open one there.
    fn push(&mut self, off: i64, len: u64) -> MpiResult<()> {
        match &mut self.open {
            _ if len == 0 => {}
            Some(last) if last.off + last.len as i64 == off => last.len += len,
            open => {
                if let Some(done) = open.replace(Segment { off, len }) {
                    (self.sink)(done)?;
                }
            }
        }
        Ok(())
    }
}

/// One level of the walk: a derived type `dt` at `base`, whose blocks of
/// elements it visits in typemap order. The block it walks element by
/// element is `n` elements of `old`, `ex` bytes apart from `at`, of which
/// `next` is the next; `block` is the block after it.
#[derive(Debug, Clone, Copy)]
struct Frame {
    dt: Datatype,
    base: i64,
    block: usize,
    old: Datatype,
    at: i64,
    ex: i64,
    n: i64,
    next: i64,
}

impl Frame {
    /// The level of `dt` at `base`, before its first block.
    fn new(dt: Datatype, base: i64) -> Frame {
        Frame {
            dt,
            base,
            block: 0,
            old: dt,
            at: base,
            ex: 0,
            n: 0,
            next: 0,
        }
    }
}

/// Walk `dt`'s typemap at offset 0: visit it, then step the deepest level
/// on `path` to its next element and visit that, until no level is left.
fn walk<F>(
    reg: &TypeRegistry,
    dt: Datatype,
    path: &mut WalkPath<Frame>,
    out: &mut Blocks<F>,
) -> MpiResult<()>
where
    F: FnMut(Segment) -> MpiResult<()>,
{
    visit(reg, dt, 0, path, out)?;
    while let Some(level) = path.last_mut() {
        match next_element(reg, level, out)? {
            Some((old, base)) => visit(reg, old, base, path, out)?,
            None => {
                path.pop();
            }
        }
    }
    Ok(())
}

/// Emit what one element of `dt` at `base` can emit at once — nothing for
/// no data, one piece for a dense subtree in address order or a named
/// type — or else put it on `path` to walk its blocks.
fn visit<F>(
    reg: &TypeRegistry,
    mut dt: Datatype,
    base: i64,
    path: &mut WalkPath<Frame>,
    out: &mut Blocks<F>,
) -> MpiResult<()>
where
    F: FnMut(Segment) -> MpiResult<()>,
{
    loop {
        let info = reg.info(dt)?;
        // A subtree of no data emits nothing; return before placing its
        // blocks, as the registry never did (a block of no elements may lie
        // a stride apart that no offset arithmetic survives).
        if info.attrs.size == 0 {
            return Ok(());
        }
        // Fast path: a dense subtree visited in address order is one
        // segment.
        if info.attrs.is_dense() && info.ascending {
            return out.push(base + info.attrs.lb, info.attrs.size);
        }
        match &info.def {
            TypeDef::Named(n) => return out.push(base, n.size() as u64),
            TypeDef::Dup { oldtype } | TypeDef::Resized { oldtype, .. } => dt = *oldtype,
            _ => {
                path.push(Frame::new(dt, base));
                return Ok(());
            }
        }
    }
}

/// The next element the level `f` visits, as its type and offset, or
/// `None` when it has none left. A block whose elements tile (dense,
/// visited in address order) is emitted on the way as one piece of its
/// elements' total size: the pieces the fast path would find one by one,
/// already merged. A block of no elements adds nothing, not even its
/// displacement, which may lie where no offset arithmetic survives.
fn next_element<F>(
    reg: &TypeRegistry,
    f: &mut Frame,
    out: &mut Blocks<F>,
) -> MpiResult<Option<(Datatype, i64)>>
where
    F: FnMut(Segment) -> MpiResult<()>,
{
    while f.next == f.n {
        let Some((old, base, disp, n)) = block(reg, reg.info(f.dt)?, f.base, f.block)? else {
            return Ok(None);
        };
        f.block += 1;
        let info = reg.info(old)?;
        if n > 0 && info.attrs.is_dense() && info.ascending {
            out.push(base + disp + info.attrs.lb, n as u64 * info.attrs.size)?;
        } else if n > 0 {
            (f.old, f.at, f.ex) = (old, base + disp, info.attrs.extent());
            (f.n, f.next) = (n, 0);
        }
    }
    let j = f.next;
    f.next += 1;
    Ok(Some((f.old, f.at + j * f.ex)))
}

/// Block `k` of the derived type `info` describes at `base`, in typemap
/// order: `n` elements of `old` one extent apart from `base + disp`.
fn block(
    reg: &TypeRegistry,
    info: &TypeInfo,
    base: i64,
    k: usize,
) -> MpiResult<Option<(Datatype, i64, i64, i64)>> {
    let i = k as i64;
    Ok(match &info.def {
        TypeDef::Contiguous { count, oldtype } => {
            (k == 0).then_some((*oldtype, base, 0, *count as i64))
        }
        TypeDef::Vector {
            count,
            blocklength,
            stride,
            oldtype,
        } if i < *count as i64 => {
            let ex = reg.attrs(*oldtype)?.extent();
            Some((*oldtype, base, i * *stride as i64 * ex, *blocklength as i64))
        }
        TypeDef::Hvector {
            count,
            blocklength,
            stride_bytes,
            oldtype,
        } if i < *count as i64 => Some((*oldtype, base, i * stride_bytes, *blocklength as i64)),
        TypeDef::Indexed {
            blocklengths,
            displacements,
            oldtype,
        } if k < blocklengths.len().min(displacements.len()) => {
            let ex = reg.attrs(*oldtype)?.extent();
            let (bl, d) = (blocklengths[k], displacements[k]);
            Some((*oldtype, base, d as i64 * ex, bl as i64))
        }
        TypeDef::IndexedBlock {
            blocklength,
            displacements,
            oldtype,
        } if k < displacements.len() => {
            let ex = reg.attrs(*oldtype)?.extent();
            Some((
                *oldtype,
                base,
                displacements[k] as i64 * ex,
                *blocklength as i64,
            ))
        }
        TypeDef::Hindexed {
            blocklengths,
            displacements_bytes,
            oldtype,
        } if k < blocklengths.len().min(displacements_bytes.len()) => Some((
            *oldtype,
            base,
            displacements_bytes[k],
            blocklengths[k] as i64,
        )),
        TypeDef::Subarray { dims, oldtype } => {
            subarray_block(*oldtype, (dims, dims.order()), info.attrs.extent(), base, k)
        }
        TypeDef::Struct {
            blocklengths,
            displacements_bytes,
            types,
        } if k < types.len() => Some((
            types[k],
            base,
            displacements_bytes[k],
            blocklengths[k] as i64,
        )),
        _ => None,
    })
}

/// Block `k` of a subarray of `oldtype` whose `dims`, slowest first, cover
/// `span` bytes of the full array at `base`: one run of the fastest
/// dimension, the blocks in the order the slower dimensions nest them.
/// The slowest dimension steps `span` over its size, the next one that
/// step over its own size, down to the fastest one's run of elements: no
/// list of strides.
fn subarray_block(
    oldtype: Datatype,
    (dims, order): (&[Dim], Order),
    mut span: i64,
    mut base: i64,
    k: usize,
) -> Option<(Datatype, i64, i64, i64)> {
    let Some(slower) = dims.len().checked_sub(1) else {
        return (k == 0).then_some((oldtype, base, 0, 1));
    };
    let dims = order.fastest_first(dims).rev();
    // one block per index of the slower dimensions together
    let mut rest: usize = dims
        .clone()
        .take(slower)
        .map(|d| d.subsize as usize)
        .product();
    if k >= rest {
        return None;
    }
    let mut k = k;
    for (t, d) in dims.enumerate() {
        let stride = span / d.size as i64;
        let (start, n) = (d.start as i64, d.subsize as i64);
        // the fastest dimension's elements lie one element extent apart
        if t == slower {
            return Some((oldtype, base, start * stride, n));
        }
        rest /= d.subsize as usize;
        base += (start + (k / rest) as i64) * stride;
        (k, span) = (k % rest, stride);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::super::registry::consts::*;
    use super::super::Order;
    use super::*;
    use crate::{RankCtx, WorldConfig};

    /// A rank to build types through.
    fn rank() -> RankCtx {
        RankCtx::standalone(&WorldConfig::summit(1))
    }

    /// The segments of `dt` in `ctx`'s registry.
    fn segments_of(ctx: &RankCtx, dt: Datatype) -> MpiResult<Vec<Segment>> {
        segments(&ctx.registry().read(), dt)
    }

    #[test]
    fn named_is_one_segment() {
        let r = TypeRegistry::new();
        assert_eq!(
            segments(&r, MPI_DOUBLE).unwrap(),
            vec![Segment { off: 0, len: 8 }]
        );
    }

    #[test]
    fn contiguous_merges_to_one_segment() {
        let mut ctx = rank();
        let t = ctx.type_contiguous(1000, MPI_FLOAT).unwrap();
        assert_eq!(
            segments_of(&ctx, t).unwrap(),
            vec![Segment { off: 0, len: 4000 }]
        );
    }

    #[test]
    fn vector_produces_count_segments() {
        let mut ctx = rank();
        let t = ctx.type_vector(13, 100, 128, MPI_FLOAT).unwrap();
        let segs = segments_of(&ctx, t).unwrap();
        assert_eq!(segs.len(), 13);
        assert_eq!(segs[0], Segment { off: 0, len: 400 });
        assert_eq!(segs[1], Segment { off: 512, len: 400 });
        assert_eq!(data_bytes(&segs), 5200);
        assert!(segs.iter().all(|s| s.len == 400));
    }

    #[test]
    fn dense_but_out_of_order_keeps_typemap_order() {
        let mut ctx = rank();
        // a struct that covers [0, 6) from its last member back: dense, and
        // still packed in member order
        let s = ctx
            .type_create_struct(&[1, 2], &[2, 0], &[MPI_FLOAT, MPI_BYTE])
            .unwrap();
        let want = vec![Segment { off: 2, len: 4 }, Segment { off: 0, len: 2 }];
        assert_eq!(segments_of(&ctx, s).unwrap(), want);
        // and so is anything built of it
        let c = ctx.type_contiguous(2, s).unwrap();
        let segs = segments_of(&ctx, c).unwrap();
        assert_eq!(segs.len(), 4);
        assert_eq!(segs[2], Segment { off: 8, len: 4 });
        // two interleaved vectors cover [0, 4) as bytes 0, 2, 1, 3
        let v = ctx.type_vector(2, 1, 2, MPI_BYTE).unwrap();
        let h = ctx.type_create_hvector(2, 1, 1, v).unwrap();
        let offs: Vec<i64> = segments_of(&ctx, h)
            .unwrap()
            .iter()
            .map(|s| s.off)
            .collect();
        assert_eq!(offs, vec![0, 2, 1, 3]);
        // the same bytes in order are one segment, whatever builds them
        let i = ctx.type_indexed(&[2, 4], &[0, 2], MPI_BYTE).unwrap();
        assert_eq!(
            segments_of(&ctx, i).unwrap(),
            vec![Segment { off: 0, len: 6 }]
        );
    }

    #[test]
    fn vector_with_touching_blocks_merges() {
        let mut ctx = rank();
        // stride == blocklength: fully contiguous
        let t = ctx.type_vector(8, 16, 16, MPI_BYTE).unwrap();
        assert_eq!(
            segments_of(&ctx, t).unwrap(),
            vec![Segment { off: 0, len: 128 }]
        );
    }

    #[test]
    fn equivalent_constructions_have_equal_segments() {
        // The paper's Section 2 equivalence list for one row of E0=100
        // floats in an A0=256-float allocation.
        let mut ctx = rank();
        let e0 = 100;
        let mut builds: Vec<Datatype> = vec![
            ctx.type_contiguous(e0, MPI_FLOAT).unwrap(),
            ctx.type_contiguous(e0 * 4, MPI_BYTE).unwrap(),
        ];
        builds.push(ctx.type_vector(e0, 1, 1, MPI_FLOAT).unwrap());
        builds.push(ctx.type_vector(1, e0, 1, MPI_FLOAT).unwrap());
        builds.push(ctx.type_vector(e0, 4, 4, MPI_BYTE).unwrap());
        builds.push(ctx.type_vector(1, e0 * 4, e0 * 4, MPI_BYTE).unwrap());
        builds.push(ctx.type_create_hvector(e0 * 4, 1, 1, MPI_BYTE).unwrap());
        builds.push(
            ctx.type_create_subarray(&[256], &[e0], &[0], Order::C, MPI_FLOAT)
                .unwrap(),
        );
        builds.push(
            ctx.type_create_subarray(&[256 * 4], &[e0 * 4], &[0], Order::C, MPI_BYTE)
                .unwrap(),
        );
        let want = vec![Segment { off: 0, len: 400 }];
        for t in builds {
            let tree = super::super::TypeTree::of(&ctx.registry().read(), t);
            assert_eq!(segments_of(&ctx, t).unwrap(), want, "{tree:?}");
        }
    }

    #[test]
    fn fig2_constructions_agree() {
        // The three Fig. 2 constructions of the same 3D object:
        // A=(256,512,1024) bytes, E=(100,13,47).
        let mut ctx = rank();
        // (a) subarray plane + vector of planes
        let plane_a = ctx
            .type_create_subarray(&[512, 256], &[13, 100], &[0, 0], Order::C, MPI_BYTE)
            .unwrap();
        let cuboid_a = ctx.type_vector(47, 1, 1, plane_a).unwrap();
        // (b) nested hvectors
        let row_b = ctx.type_vector(100, 1, 1, MPI_BYTE).unwrap();
        let plane_b = ctx.type_create_hvector(13, 1, 256, row_b).unwrap();
        let cuboid_b = ctx.type_create_hvector(47, 1, 256 * 512, plane_b).unwrap();
        // (c) single 3D subarray
        let cuboid_c = ctx
            .type_create_subarray(
                &[1024, 512, 256],
                &[47, 13, 100],
                &[0, 0, 0],
                Order::C,
                MPI_BYTE,
            )
            .unwrap();
        let sa = segments_of(&ctx, cuboid_a).unwrap();
        let sb = segments_of(&ctx, cuboid_b).unwrap();
        let sc = segments_of(&ctx, cuboid_c).unwrap();
        assert_eq!(sa, sb);
        assert_eq!(sb, sc);
        assert_eq!(sa.len(), 13 * 47);
        assert_eq!(data_bytes(&sa), 100 * 13 * 47);
        // second row of first plane starts at byte 256
        assert_eq!(sa[1], Segment { off: 256, len: 100 });
        // first row of second plane starts at 256*512
        assert_eq!(sa[13].off, 256 * 512);
    }

    #[test]
    fn subarray_vector_equivalence_2d() {
        let mut ctx = rank();
        let v = ctx.type_vector(13, 100, 256, MPI_BYTE).unwrap();
        let s = ctx
            .type_create_subarray(&[13, 256], &[13, 100], &[0, 0], Order::C, MPI_BYTE)
            .unwrap();
        assert_eq!(segments_of(&ctx, v).unwrap(), segments_of(&ctx, s).unwrap());
    }

    #[test]
    fn fortran_order_subarray_matches_transposed_c() {
        let mut ctx = rank();
        // Fortran (dim0 fastest): sizes=[256, 512], subsizes=[100, 13]
        let f = ctx
            .type_create_subarray(&[256, 512], &[100, 13], &[0, 0], Order::Fortran, MPI_BYTE)
            .unwrap();
        // C (dim0 slowest): sizes=[512, 256], subsizes=[13, 100]
        let c = ctx
            .type_create_subarray(&[512, 256], &[13, 100], &[0, 0], Order::C, MPI_BYTE)
            .unwrap();
        assert_eq!(segments_of(&ctx, f).unwrap(), segments_of(&ctx, c).unwrap());
    }

    #[test]
    fn hindexed_segments_in_typemap_order() {
        let mut ctx = rank();
        let t = ctx
            .type_create_hindexed(&[2, 1], &[100, 0], MPI_INT)
            .unwrap();
        let segs = segments_of(&ctx, t).unwrap();
        // typemap order: block at 100 first, then block at 0 — NOT sorted
        assert_eq!(
            segs,
            vec![Segment { off: 100, len: 8 }, Segment { off: 0, len: 4 }]
        );
    }

    #[test]
    fn struct_segments() {
        let mut ctx = rank();
        let t = ctx
            .type_create_struct(&[2, 3], &[0, 32], &[MPI_INT, MPI_BYTE])
            .unwrap();
        assert_eq!(
            segments_of(&ctx, t).unwrap(),
            vec![Segment { off: 0, len: 8 }, Segment { off: 32, len: 3 }]
        );
    }

    #[test]
    fn vector_of_subarray_composes() {
        let mut ctx = rank();
        // subarray with nonzero start inside a vector
        let sub = ctx
            .type_create_subarray(&[8, 8], &[2, 4], &[1, 2], Order::C, MPI_BYTE)
            .unwrap();
        let v = ctx.type_vector(3, 1, 1, sub).unwrap();
        let segs = segments_of(&ctx, v).unwrap();
        // each subarray: rows at (1*8+2)=10 and 18, len 4; vector stride =
        // extent = 64 bytes
        assert_eq!(segs.len(), 6);
        assert_eq!(segs[0], Segment { off: 10, len: 4 });
        assert_eq!(segs[1], Segment { off: 18, len: 4 });
        assert_eq!(segs[2], Segment { off: 74, len: 4 });
    }

    #[test]
    fn elements_that_do_not_tile_are_walked_one_by_one() {
        let mut ctx = rank();
        let seg = |off, len| Segment { off, len };
        // a padded element: each is its own block, a stride apart or not
        let padded = ctx.type_contiguous(2, MPI_BYTE).unwrap();
        let padded = ctx.type_create_resized(padded, 0, 4).unwrap();
        let h = ctx.type_create_hvector(2, 3, 20, padded).unwrap();
        let want = [0, 4, 8, 20, 24, 28].map(|off| seg(off, 2));
        assert_eq!(segments_of(&ctx, h).unwrap(), want);
        // a subarray's fastest dimension of holey elements (extent 3):
        // elements 1 and 2 cover bytes 3, 5 and 6, 8, the middle two touch
        let holey = ctx.type_vector(2, 1, 2, MPI_BYTE).unwrap();
        let sub = (ctx.type_create_subarray(&[4], &[2], &[1], Order::C, holey)).unwrap();
        assert_eq!(
            segments_of(&ctx, sub).unwrap(),
            [seg(3, 1), seg(5, 2), seg(8, 1)]
        );
        // in two dimensions, padded elements stay ten blocks and elements
        // that tile are one block per row
        let sub = (ctx.type_create_subarray(&[4, 8], &[2, 5], &[1, 3], Order::C, padded)).unwrap();
        assert_eq!(segments_of(&ctx, sub).unwrap().len(), 10);
        let dense = ctx.type_contiguous(4, MPI_BYTE).unwrap();
        let sub = (ctx.type_create_subarray(&[4, 8], &[2, 5], &[1, 3], Order::C, dense)).unwrap();
        assert_eq!(segments_of(&ctx, sub).unwrap(), [seg(44, 20), seg(76, 20)]);
    }

    #[test]
    fn a_block_of_no_elements_adds_no_displacement() {
        // the far block holds nothing, so the second item's walk never
        // adds its displacement to that item's base
        let mut ctx = rank();
        let far = [i64::MAX, 0];
        let h = ctx.type_create_hindexed(&[0, 1], &far, MPI_INT).unwrap();
        let s = (ctx.type_create_struct(&[0, 1], &far, &[MPI_INT, MPI_INT])).unwrap();
        for t in [h, s] {
            let v = ctx.type_vector(2, 1, 1, t).unwrap();
            assert_eq!(segments_of(&ctx, v).unwrap(), [Segment { off: 0, len: 8 }]);
        }
    }

    #[test]
    fn zero_size_type_has_no_segments() {
        let mut ctx = rank();
        let t = ctx.type_contiguous(0, MPI_INT).unwrap();
        assert!(segments_of(&ctx, t).unwrap().is_empty());
    }

    #[test]
    fn resized_does_not_change_data() {
        let mut ctx = rank();
        let v = ctx.type_vector(2, 1, 4, MPI_FLOAT).unwrap();
        let t = ctx.type_create_resized(v, -100, 500).unwrap();
        assert_eq!(segments_of(&ctx, t).unwrap(), segments_of(&ctx, v).unwrap());
    }
}
