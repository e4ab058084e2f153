//! Type translation: MPI datatype → IR tree (paper §3.1, Algorithms 1–4).
//!
//! Translation sees the datatype exactly the way a real interposed library
//! must: through the MPI introspection interface (`MPI_Type_get_envelope`,
//! `MPI_Type_get_contents`, `MPI_Type_get_extent`, `MPI_Type_size`),
//! abstracted here as the [`Introspect`] trait. When driven through a
//! [`mpi_sim::RankCtx`] the calls are priced with the vendor's
//! introspection cost — which is why Fig. 6's commit overhead differs
//! across implementations even though TEMPI does identical work.

use std::num::NonZeroU8;

use mpi_sim::datatype::{Combiner, Contents, Datatype, Envelope, Named};
use mpi_sim::{MpiError, MpiResult, RankCtx, TypeRegistry};

use super::strided_block::{strided_block, Member, StridedBlock, MAX_MEMBERS};
use super::transform::simplify;
use super::{BlockList, StreamData, Type};

/// The introspection face of MPI that translation consumes.
pub trait Introspect {
    /// `MPI_Type_get_envelope`.
    fn envelope(&mut self, dt: Datatype) -> MpiResult<Envelope>;
    /// `MPI_Type_get_contents`.
    fn contents(&mut self, dt: Datatype) -> MpiResult<Contents>;
    /// `MPI_Type_get_extent` → `(lb, extent)`.
    fn extent(&mut self, dt: Datatype) -> MpiResult<(i64, i64)>;
    /// `MPI_Type_size`.
    fn type_size(&mut self, dt: Datatype) -> MpiResult<u64>;
}

impl Introspect for RankCtx {
    fn envelope(&mut self, dt: Datatype) -> MpiResult<Envelope> {
        self.get_envelope(dt)
    }
    fn contents(&mut self, dt: Datatype) -> MpiResult<Contents> {
        self.get_contents(dt)
    }
    fn extent(&mut self, dt: Datatype) -> MpiResult<(i64, i64)> {
        self.get_extent(dt)
    }
    fn type_size(&mut self, dt: Datatype) -> MpiResult<u64> {
        self.type_size(dt)
    }
}

impl Introspect for TypeRegistry {
    fn envelope(&mut self, dt: Datatype) -> MpiResult<Envelope> {
        self.get_envelope(dt)
    }
    fn contents(&mut self, dt: Datatype) -> MpiResult<Contents> {
        self.get_contents(dt)
    }
    fn extent(&mut self, dt: Datatype) -> MpiResult<(i64, i64)> {
        TypeRegistry::extent(self, dt)
    }
    fn type_size(&mut self, dt: Datatype) -> MpiResult<u64> {
        self.size(dt)
    }
}

/// `MPI_Type_get_envelope` of a predefined type, as the standard fixes it:
/// nothing to ask `MPI_Type_get_contents` for.
const NAMED_ENVELOPE: Envelope = Envelope {
    num_integers: 0,
    num_addresses: 0,
    num_datatypes: 0,
    combiner: Combiner::Named,
};

/// What introspection calls have taught one process about the predefined
/// (named) handles: an array over those handles, filled by the first call
/// that asks and never by looking the answer up behind MPI's back. It is
/// held by value in per-rank state, so it is kept to a flag and a byte per
/// handle — a predefined type's envelope is [`NAMED_ENVELOPE`], its lower
/// bound 0 and its extent a few bytes; an answer of any other form is not
/// remembered and the call is made again. Which handles are predefined is
/// MPI's to say ([`Datatype::named_index`], the rule `MPI_Type_free`
/// refuses a handle by), so an entry cannot go stale: it names the same
/// type for the life of the process. Derived handles are not remembered —
/// the application may free one, and reuse its number, through a call the
/// interposer does not see.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NamedMemo {
    /// A call has returned [`NAMED_ENVELOPE`] for the handle.
    envelope_seen: [bool; Named::ALL.len()],
    /// The extent a call has returned for the handle.
    extent: [Option<NonZeroU8>; Named::ALL.len()],
}

/// The introspection source `MPI_Type_commit` translates through. It
/// answers `envelope` / `extent` of a predefined handle from the
/// [`NamedMemo`] once a call has paid for the answer, and counts the calls
/// it does forward — the vendor-priced ones, which is the number of MPI
/// calls Fig. 6 reports for TEMPI's commit.
pub(crate) struct MemoIntrospect<'a, I: Introspect> {
    inner: &'a mut I,
    memo: &'a mut NamedMemo,
    /// Introspection calls forwarded to the wrapped source.
    pub(crate) calls: u64,
}

impl<'a, I: Introspect> MemoIntrospect<'a, I> {
    /// Wrap an introspection source.
    pub(crate) fn new(inner: &'a mut I, memo: &'a mut NamedMemo) -> Self {
        MemoIntrospect {
            inner,
            memo,
            calls: 0,
        }
    }
}

impl<I: Introspect> Introspect for MemoIntrospect<'_, I> {
    fn envelope(&mut self, dt: Datatype) -> MpiResult<Envelope> {
        let named = dt.named_index();
        if named.is_some_and(|i| self.memo.envelope_seen[i]) {
            return Ok(NAMED_ENVELOPE);
        }
        self.calls += 1;
        let env = self.inner.envelope(dt)?;
        if let Some(i) = named {
            self.memo.envelope_seen[i] = env == NAMED_ENVELOPE;
        }
        Ok(env)
    }
    fn contents(&mut self, dt: Datatype) -> MpiResult<Contents> {
        self.calls += 1;
        self.inner.contents(dt)
    }
    fn extent(&mut self, dt: Datatype) -> MpiResult<(i64, i64)> {
        let named = dt.named_index();
        if let Some(extent) = named.and_then(|i| self.memo.extent[i]) {
            return Ok((0, extent.get().into()));
        }
        self.calls += 1;
        let (lb, extent) = self.inner.extent(dt)?;
        if let (Some(i), 0) = (named, lb) {
            self.memo.extent[i] = u8::try_from(extent).ok().and_then(NonZeroU8::new);
        }
        Ok((lb, extent))
    }
    fn type_size(&mut self, dt: Datatype) -> MpiResult<u64> {
        self.calls += 1;
        self.inner.type_size(dt)
    }
}

/// Result of translating an MPI datatype.
#[derive(Debug, Clone, PartialEq)]
pub enum Translated {
    /// The type denotes no bytes (a count-zero construction).
    Empty,
    /// A nested strided pattern — the representation the paper's kernels
    /// consume after canonicalization.
    Strided(Type),
    /// An irregular pattern captured as a block list (indexed-family and
    /// struct extension, paper §8).
    Blocks(BlockList),
    /// A struct with a member of several strided dimensions: its members,
    /// two to [`MAX_MEMBERS`] of them, in member order. One such member
    /// alone is `Strided`, members that are all single runs are `Blocks`,
    /// and under another combiner the list is its runs.
    Multi(Vec<Member>),
    /// A construction the IR cannot express; handling falls through to the
    /// system MPI. Every combiner the registry supports translates, so
    /// this is left for an element type whose offsets do not sum to a
    /// representable start.
    Unsupported(Combiner),
}

/// One stream level to wrap a child in: `(off, stride, count)`.
type Spec = (i64, i64, i64);

/// Translate `dt` into the IR (Algorithms 1–4, plus the hvector, resized,
/// indexed-family and struct cases).
pub fn translate<I: Introspect>(intro: &mut I, dt: Datatype) -> MpiResult<Translated> {
    let env = intro.envelope(dt)?;
    match env.combiner {
        // Algorithm 1: named types are dense, offset 0.
        Combiner::Named => {
            let (_, extent) = intro.extent(dt)?;
            Ok(Translated::Strided(Type::dense(0, extent)))
        }
        // Neither changes where the data lies; a parent asks MPI for the
        // (possibly resized) extent itself.
        Combiner::Dup | Combiner::Resized => {
            let c = intro.contents(dt)?;
            translate(intro, c.datatypes[0])
        }
        // Algorithm 2: a contiguous type is a stream whose stride is the
        // element extent.
        Combiner::Contiguous => {
            let c = intro.contents(dt)?;
            let count = c.integers[0];
            let old = c.datatypes[0];
            let ex = stride_extent(intro, old, count > 1)?;
            wrap_stream(intro, old, &[(0, ex, count)])
        }
        // Algorithm 3: vector/hvector become two nested streams (blocks,
        // then elements within a block), the blocks a stride in elements
        // or in bytes apart. A vector forms `extent × stride` only for more
        // than one block of elements, as the registry does.
        Combiner::Vector | Combiner::Hvector => {
            let c = intro.contents(dt)?;
            let (count, blocklength) = (c.integers[0], c.integers[1]);
            let old = c.datatypes[0];
            let vector = env.combiner == Combiner::Vector;
            let ex = stride_extent(intro, old, blocklength > 1 || (vector && count > 1))?;
            let apart = match env.combiner {
                Combiner::Vector if count > 1 && blocklength > 0 => at(0, ex, c.integers[2])?,
                Combiner::Vector => 0,
                _ => c.addresses[0],
            };
            wrap_stream(intro, old, &[(0, ex, blocklength), (0, apart, count)])
        }
        // Algorithm 4: each subarray dimension is a nested stream;
        // dimension strides are products of the faster dimensions' sizes.
        Combiner::Subarray => {
            let c = intro.contents(dt)?;
            let ndims = c.integers[0] as usize;
            let sizes = &c.integers[1..1 + ndims];
            let subsizes = &c.integers[1 + ndims..1 + 2 * ndims];
            let starts = &c.integers[1 + 2 * ndims..1 + 3 * ndims];
            let c_order = c.integers[1 + 3 * ndims] == 0;
            let old = c.datatypes[0];
            let (_, ex) = intro.extent(old)?;
            // innermost (fastest-varying) dimension first: the last in C
            // order, the first in Fortran order
            let mut stride = ex;
            let mut specs: Vec<Spec> = Vec::with_capacity(ndims);
            for i in 0..ndims {
                let d = if c_order { ndims - 1 - i } else { i };
                specs.push((at(0, starts[d], stride)?, stride, subsizes[d]));
                stride = stride.checked_mul(sizes[d]).ok_or_else(overflow)?;
            }
            wrap_stream(intro, old, &specs)
        }
        // Indexed-family extension: flatten to a block list when the
        // element type itself reduces to a block list or dense run.
        // displacements in elements, or (hindexed) in bytes
        Combiner::Indexed | Combiner::Hindexed => {
            let c = intro.contents(dt)?;
            let count = c.integers[0] as usize;
            let old = c.datatypes[0];
            let (_, ex) = intro.extent(old)?;
            let (displs, unit) = match env.combiner {
                Combiner::Indexed => (&c.integers[1 + count..1 + 2 * count], ex),
                _ => (&c.addresses[..], 1),
            };
            let blocks = displs.iter().zip(&c.integers[1..1 + count]);
            indexed_blocks(intro, old, ex, unit, blocks.map(|(&d, &bl)| (d, bl)))
        }
        Combiner::IndexedBlock => {
            let c = intro.contents(dt)?;
            let count = c.integers[0] as usize;
            let bl = c.integers[1];
            let displs = &c.integers[2..2 + count];
            let old = c.datatypes[0];
            let (_, ex) = intro.extent(old)?;
            indexed_blocks(intro, old, ex, ex, displs.iter().map(|&d| (d, bl)))
        }
        // Struct extension (paper §8): every member is an indexed block of
        // its own element type. While each is one run they are appended to
        // one list in member order; a member of several strided dimensions
        // turns the runs before it into a list of strided members, and one
        // that is no strided object at all turns that back into its runs.
        Combiner::Struct => {
            let c = intro.contents(dt)?;
            let count = c.integers[0] as usize;
            let bls = &c.integers[1..1 + count];
            let mut out = Vec::with_capacity(count);
            let mut members: Vec<Member> = Vec::new();
            let mut strided = true;
            for ((&bl, &disp), &old) in bls.iter().zip(&c.addresses).zip(&c.datatypes) {
                if bl <= 0 {
                    continue;
                }
                let (_, ex) = intro.extent(old)?;
                let runs = match ElementRuns::of(translate(intro, old)?, ex) {
                    Ok(ElementRuns::List(none)) if none.is_empty() => continue,
                    Ok(runs) => runs,
                    Err(c) => return Ok(Translated::Unsupported(c)),
                };
                let room = strided && members.len() + out.len() < MAX_MEMBERS;
                let member = runs.member(ex, disp, bl).filter(|_| room);
                if member.is_none() {
                    strided = false;
                    out.extend(flatten(&std::mem::take(&mut members)));
                }
                match member {
                    Some(m) if m.ndims > 1 || !members.is_empty() => {
                        if members.is_empty() {
                            let run = |(off, len): (i64, u64)| Member::run(off, len as i64);
                            members.reserve_exact(count);
                            members.extend(out.drain(..).map(run));
                        }
                        members.push(m);
                    }
                    _ => runs.append(ex, disp, bl, &mut out)?,
                }
            }
            Ok(match members.len() {
                0 => blocks_or_empty(out),
                1 => Translated::Strided(members[0].chain()),
                _ => Translated::Multi(members),
            })
        }
    }
}

/// The runs of a list of strided members, in member order.
fn flatten(members: &[Member]) -> Vec<(i64, u64)> {
    let mut runs = Vec::new();
    members
        .iter()
        .for_each(|m| m.for_each_block(|off, len| runs.push((off, len as u64))));
    runs
}

/// Wrap the translation of `old` in a chain of streams, innermost first.
/// Handles empty and block-list children; passes unsupported ones on.
fn wrap_stream<I: Introspect>(
    intro: &mut I,
    old: Datatype,
    specs: &[Spec],
) -> MpiResult<Translated> {
    if specs.iter().any(|&(_, _, count)| count == 0) {
        return Ok(Translated::Empty);
    }
    // one element where it lies: the wrapper changes nothing, and a member
    // list stays one
    let in_place = specs.iter().all(|&(off, _, n)| (off, n) == (0, 1));
    let mut blocks = match translate(intro, old)? {
        Translated::Strided(mut ty) => {
            ty.streams
                .extend(specs.iter().map(|&(off, stride, count)| StreamData {
                    off,
                    stride,
                    count,
                }));
            return Ok(Translated::Strided(ty));
        }
        Translated::Blocks(inner) => inner.blocks,
        Translated::Multi(members) if !in_place => flatten(&members),
        none => return Ok(none),
    };
    // replicate the block list through each stream level
    for &(off, stride, count) in specs {
        let mut next = Vec::new();
        reserve_runs(&mut next, blocks.len(), count)?;
        for i in 0..count {
            let base = at(off, i, stride)?;
            for &(o, l) in &blocks {
                next.push((base.checked_add(o).ok_or_else(overflow)?, l));
            }
        }
        blocks = next;
    }
    Ok(Translated::Blocks(BlockList { blocks }))
}

/// Build the block list of an indexed-family type: `(displacement, element
/// count)` blocks of element type `old`, whose extent is `ex` bytes; a
/// displacement is in units of `disp_unit` bytes.
fn indexed_blocks<I: Introspect>(
    intro: &mut I,
    old: Datatype,
    ex: i64,
    disp_unit: i64,
    blocks: impl ExactSizeIterator<Item = (i64, i64)>,
) -> MpiResult<Translated> {
    let runs = match ElementRuns::of(translate(intro, old)?, ex) {
        Ok(runs) => runs,
        Err(c) => return Ok(Translated::Unsupported(c)),
    };
    let mut out = Vec::with_capacity(blocks.len());
    for (disp, bl) in blocks {
        runs.append(ex, at(0, disp, disp_unit)?, bl, &mut out)?;
    }
    Ok(blocks_or_empty(out))
}

/// The byte runs of one element of an indexed-family or struct member
/// type, from the element's origin.
enum ElementRuns {
    /// One dense run, `start` bytes in, as long as the element's extent:
    /// consecutive elements tile into one run per block.
    Tile(i64),
    /// The blocks of a canonical strided pattern.
    Strided(StridedBlock),
    /// An explicit list; none for an element that denotes no bytes.
    List(Vec<(i64, u64)>),
}

impl ElementRuns {
    /// The runs of an element type of extent `ex` from its translation, or
    /// the combiner that keeps the IR from expressing it.
    fn of(element: Translated, ex: i64) -> Result<ElementRuns, Combiner> {
        match element {
            Translated::Empty => Ok(ElementRuns::List(Vec::new())),
            Translated::Blocks(inner) => Ok(ElementRuns::List(inner.blocks)),
            Translated::Multi(members) => Ok(ElementRuns::List(flatten(&members))),
            Translated::Strided(ty) => {
                // Canonicalize the child, then enumerate its contiguous runs
                // per block element (prior work reduces *all* types this way;
                // TEMPI only does it for the indexed family and struct).
                let canon = simplify(ty).0;
                if canon.is_dense() && canon.leaf.extent == ex {
                    Ok(ElementRuns::Tile(canon.leaf.off))
                } else {
                    strided_block(&canon)
                        .map(ElementRuns::Strided)
                        .ok_or(Combiner::Indexed)
                }
            }
            Translated::Unsupported(c) => Err(c),
        }
    }

    /// A block of `bl` elements, `ex` bytes apart from byte displacement
    /// `disp`, as one strided member — if it is one.
    fn member(&self, ex: i64, disp: i64, bl: i64) -> Option<Member> {
        match self {
            Self::Tile(start) => Some(Member::run(disp.checked_add(*start)?, bl.checked_mul(ex)?)),
            Self::Strided(sb) => Member::of(sb, bl, ex, disp),
            Self::List(_) => None,
        }
    }

    /// Append the runs of a block of `bl` elements, `ex` bytes apart from
    /// byte displacement `disp`, to `out`.
    fn append(&self, ex: i64, disp: i64, bl: i64, out: &mut Vec<(i64, u64)>) -> MpiResult<()> {
        if bl <= 0 {
            return Ok(());
        }
        match self {
            ElementRuns::Tile(start) => {
                let first = disp.checked_add(*start).ok_or_else(overflow)?;
                let len = bl.checked_mul(ex).and_then(|l| u64::try_from(l).ok());
                out.push((first, len.ok_or_else(overflow)?));
            }
            ElementRuns::Strided(sb) => {
                let per_element = usize::try_from(sb.block_count()).unwrap_or(usize::MAX);
                reserve_runs(out, per_element, bl)?;
                let len = sb.block_bytes() as u64;
                for j in 0..bl {
                    let elem_base = at(disp, j, ex)?;
                    let mut fits = true;
                    sb.for_each_block(|off| match elem_base.checked_add(off) {
                        Some(o) => out.push((o, len)),
                        None => fits = false,
                    });
                    if !fits {
                        return Err(overflow());
                    }
                }
            }
            ElementRuns::List(runs) => {
                if runs.is_empty() {
                    return Ok(());
                }
                reserve_runs(out, runs.len(), bl)?;
                for j in 0..bl {
                    let elem_base = at(disp, j, ex)?;
                    for &(o, l) in runs {
                        out.push((elem_base.checked_add(o).ok_or_else(overflow)?, l));
                    }
                }
            }
        }
        Ok(())
    }
}

/// A block list, or `Empty` when there is nothing in it.
fn blocks_or_empty(blocks: Vec<(i64, u64)>) -> Translated {
    if blocks.is_empty() {
        Translated::Empty
    } else {
        Translated::Blocks(BlockList { blocks })
    }
}

/// The error for a displacement or run count that leaves its integer type.
fn overflow() -> MpiError {
    MpiError::InvalidArg("datatype displacements overflow a 64-bit address".to_string())
}

/// The extent of `old` when a stream of more than one element steps by it,
/// asked of MPI only then; 0 when no stream does, as one element steps
/// nowhere.
fn stride_extent<I: Introspect>(intro: &mut I, old: Datatype, steps: bool) -> MpiResult<i64> {
    Ok(if steps { intro.extent(old)?.1 } else { 0 })
}

/// `base + i × stride`, checked.
fn at(base: i64, i: i64, stride: i64) -> MpiResult<i64> {
    i.checked_mul(stride)
        .and_then(|d| base.checked_add(d))
        .ok_or_else(overflow)
}

/// Make room in `out` for `copies` more copies of `runs` runs; a product
/// no allocation can hold is the caller's overflow, not an abort here.
fn reserve_runs(out: &mut Vec<(i64, u64)>, runs: usize, copies: i64) -> MpiResult<()> {
    usize::try_from(copies)
        .ok()
        .and_then(|c| c.checked_mul(runs))
        .and_then(|n| out.try_reserve(n).ok())
        .ok_or_else(overflow)
}

/// Convenience for tests and tools: translate expecting a strided tree.
pub fn translate_strided<I: Introspect>(intro: &mut I, dt: Datatype) -> MpiResult<Type> {
    match translate(intro, dt)? {
        Translated::Strided(t) => Ok(t),
        other => Err(MpiError::Internal(format!(
            "expected strided translation, got {other:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_sim::consts::*;
    use mpi_sim::datatype::Order;

    fn reg() -> TypeRegistry {
        TypeRegistry::new()
    }

    #[test]
    fn named_translates_to_dense() {
        let mut r = reg();
        let t = translate_strided(&mut r, MPI_FLOAT).unwrap();
        assert_eq!(t, Type::dense(0, 4));
    }

    #[test]
    fn contiguous_translates_to_stream_of_dense() {
        let mut r = reg();
        let dt = r.type_contiguous(100, MPI_FLOAT).unwrap();
        let t = translate_strided(&mut r, dt).unwrap();
        assert_eq!(t, Type::stream(0, 4, 100, Type::dense(0, 4)));
    }

    #[test]
    fn vector_translates_to_two_streams() {
        let mut r = reg();
        // Algorithm 3: outer stride = extent × stride
        let dt = r.type_vector(13, 100, 128, MPI_FLOAT).unwrap();
        let t = translate_strided(&mut r, dt).unwrap();
        assert_eq!(
            t,
            Type::stream(0, 4 * 128, 13, Type::stream(0, 4, 100, Type::dense(0, 4)))
        );
    }

    #[test]
    fn hvector_stride_taken_verbatim() {
        let mut r = reg();
        let dt = r.type_create_hvector(13, 1, 256, MPI_BYTE).unwrap();
        let t = translate_strided(&mut r, dt).unwrap();
        // a block of one element steps nowhere: MPI_BYTE's extent is not
        // asked for, and the stream's stride is 0
        assert_eq!(
            t,
            Type::stream(0, 256, 13, Type::stream(0, 0, 1, Type::dense(0, 1)))
        );
        assert_eq!(simplify(t).0, Type::stream(0, 256, 13, Type::dense(0, 1)));
    }

    #[test]
    fn fig2_top_construction() {
        // subarray{sizes:[512,256]→(256,512 in paper's (A0,A1) order),
        // subsizes 13,100} then vector(47,1,1,plane): the paper's first
        // fragment. Expect the exact IR of Fig. 2 (top right).
        let mut r = reg();
        let plane = r
            .type_create_subarray(&[512, 256], &[13, 100], &[0, 0], Order::C, MPI_BYTE)
            .unwrap();
        let cuboid = r.type_vector(47, 1, 1, plane).unwrap();
        let t = translate_strided(&mut r, cuboid).unwrap();
        // vector over plane: extent(plane) = 512*256 = 131072
        assert_eq!(
            t,
            Type::stream(
                0,
                131072,
                47,
                Type::stream(
                    0,
                    131072,
                    1,
                    Type::stream(0, 256, 13, Type::stream(0, 1, 100, Type::dense(0, 1)))
                )
            )
        );
    }

    #[test]
    fn fig2_middle_construction() {
        // row = vector(100,1,1,BYTE); plane = hvector(13,1,256,row);
        // cuboid = hvector(47,1,131072,plane)
        let mut r = reg();
        let row = r.type_vector(100, 1, 1, MPI_BYTE).unwrap();
        let plane = r.type_create_hvector(13, 1, 256, row).unwrap();
        let cuboid = r.type_create_hvector(47, 1, 256 * 512, plane).unwrap();
        let t = translate_strided(&mut r, cuboid).unwrap();
        assert_eq!(
            t,
            Type::stream(
                0,
                131072,
                47,
                Type::stream(
                    0,
                    0, // one plane: extent(plane) is never asked for
                    1,
                    Type::stream(
                        0,
                        256,
                        13,
                        Type::stream(
                            0,
                            0, // one row: nor is extent(row)
                            1,
                            Type::stream(0, 1, 100, Type::stream(0, 1, 1, Type::dense(0, 1)))
                        )
                    )
                )
            )
        );
        // canonicalization elides the one-element streams unread: Fig. 2's
        // canonical form
        let want = Type::stream(0, 131072, 47, Type::stream(0, 256, 13, Type::dense(0, 100)));
        assert_eq!(simplify(t).0, want);
    }

    #[test]
    fn fig2_bottom_construction() {
        // single 3D subarray
        let mut r = reg();
        let cuboid = r
            .type_create_subarray(
                &[1024, 512, 256],
                &[47, 13, 100],
                &[0, 0, 0],
                Order::C,
                MPI_BYTE,
            )
            .unwrap();
        let t = translate_strided(&mut r, cuboid).unwrap();
        assert_eq!(
            t,
            Type::stream(
                0,
                131072,
                47,
                Type::stream(0, 256, 13, Type::stream(0, 1, 100, Type::dense(0, 1)))
            )
        );
    }

    #[test]
    fn subarray_starts_become_offsets() {
        let mut r = reg();
        let dt = r
            .type_create_subarray(&[8, 16], &[2, 4], &[3, 5], Order::C, MPI_FLOAT)
            .unwrap();
        let t = translate_strided(&mut r, dt).unwrap();
        // inner dim (fastest): stride 4, count 4, off 5*4=20
        // outer dim: stride 16*4=64, count 2, off 3*64=192
        assert_eq!(
            t,
            Type::stream(192, 64, 2, Type::stream(20, 4, 4, Type::dense(0, 4)))
        );
    }

    #[test]
    fn fortran_subarray_reverses_dims() {
        let mut r = reg();
        let c_dt = r
            .type_create_subarray(&[16, 8], &[4, 2], &[0, 0], Order::C, MPI_BYTE)
            .unwrap();
        let f_dt = r
            .type_create_subarray(&[8, 16], &[2, 4], &[0, 0], Order::Fortran, MPI_BYTE)
            .unwrap();
        assert_eq!(
            translate_strided(&mut r, c_dt).unwrap(),
            translate_strided(&mut r, f_dt).unwrap()
        );
    }

    #[test]
    fn zero_count_translates_to_empty() {
        let mut r = reg();
        let dt = r.type_contiguous(0, MPI_INT).unwrap();
        assert_eq!(translate(&mut r, dt).unwrap(), Translated::Empty);
        let dt = r.type_vector(0, 4, 8, MPI_INT).unwrap();
        assert_eq!(translate(&mut r, dt).unwrap(), Translated::Empty);
        let dt = r.type_vector(4, 0, 8, MPI_INT).unwrap();
        assert_eq!(translate(&mut r, dt).unwrap(), Translated::Empty);
    }

    #[test]
    fn dup_and_resized_are_transparent() {
        let mut r = reg();
        let v = r.type_vector(4, 2, 8, MPI_INT).unwrap();
        let d = r.type_dup(v).unwrap();
        let rz = r.type_create_resized(v, -8, 999).unwrap();
        let tv = translate(&mut r, v).unwrap();
        assert_eq!(translate(&mut r, d).unwrap(), tv);
        assert_eq!(translate(&mut r, rz).unwrap(), tv);
    }

    #[test]
    fn hindexed_becomes_blocklist() {
        let mut r = reg();
        let dt = r.type_create_hindexed(&[2, 3], &[100, 0], MPI_INT).unwrap();
        match translate(&mut r, dt).unwrap() {
            Translated::Blocks(b) => {
                assert_eq!(b.blocks, vec![(100, 8), (0, 12)]);
            }
            other => panic!("expected blocks, got {other:?}"),
        }
    }

    #[test]
    fn indexed_with_strided_child_flattens_per_element() {
        let mut r = reg();
        // element type: vector with a hole (extent 12, data 8)
        let v = r.type_vector(2, 1, 2, MPI_FLOAT).unwrap();
        let dt = r.type_indexed(&[2], &[1], v).unwrap();
        match translate(&mut r, dt).unwrap() {
            Translated::Blocks(b) => {
                // displacement 1 element = extent(v) = 12 bytes; 2 elements,
                // each contributing dense leaves at +0 and +8
                assert_eq!(b.blocks, vec![(12, 4), (20, 4), (24, 4), (32, 4)]);
            }
            other => panic!("expected blocks, got {other:?}"),
        }
    }

    fn blocks_of(r: &mut TypeRegistry, dt: Datatype) -> Vec<(i64, u64)> {
        match translate(r, dt).unwrap() {
            Translated::Blocks(b) => b.blocks,
            other => panic!("expected blocks, got {other:?}"),
        }
    }

    #[test]
    fn struct_translates_to_member_runs() {
        let mut r = reg();
        // padding after the int, a zero-length member, displacements that
        // run backwards: one run per member, in member order
        let dt = r
            .type_create_struct(
                &[1, 0, 3, 2],
                &[32, 99, 8, 0],
                &[MPI_INT, MPI_DOUBLE, MPI_SHORT, MPI_BYTE],
            )
            .unwrap();
        assert_eq!(blocks_of(&mut r, dt), vec![(32, 4), (8, 6), (0, 2)]);
        // nothing but zero-length members denotes no bytes
        let empty = r.type_create_struct(&[0], &[0], &[MPI_INT]).unwrap();
        assert_eq!(translate(&mut r, empty).unwrap(), Translated::Empty);
    }

    #[test]
    fn struct_members_may_be_any_construction() {
        let mut r = reg();
        let v = r.type_vector(2, 2, 4, MPI_BYTE).unwrap(); // runs at 0, 4; extent 6
        let wide = r.type_create_resized(MPI_INT, 0, 16).unwrap();
        let h = r.type_create_hindexed(&[1, 1], &[4, 0], MPI_BYTE).unwrap();
        let dt = r
            .type_create_struct(&[2, 2, 1], &[100, 0, 50], &[v, wide, h])
            .unwrap();
        assert_eq!(
            blocks_of(&mut r, dt),
            vec![
                (100, 2), // two vectors, 6 bytes apart
                (104, 2),
                (106, 2),
                (110, 2),
                (0, 4), // two ints, a resized extent apart
                (16, 4),
                (54, 1), // the hindexed member, in its own order
                (50, 1),
            ]
        );
    }

    #[test]
    fn struct_of_strided_members_is_a_member_list_until_it_cannot_be() {
        let mut r = reg();
        let v = r.type_vector(2, 2, 4, MPI_BYTE).unwrap(); // runs at 0, 4; extent 6
        let s = r
            .type_create_struct(&[1, 2, 0, 1], &[40, 0, 7, 32], &[MPI_INT, v, v, MPI_SHORT])
            .unwrap();
        let Translated::Multi(members) = translate(&mut r, s).unwrap() else {
            panic!("a strided member among runs makes a member list");
        };
        // the run before it, the two vectors as one entry, the run after it;
        // the zero-length member is not there
        let vectors = Member {
            counts: [2, 2, 2, 1],
            strides: [1, 4, 6, 0],
            ndims: 3,
            ..Member::run(0, 0)
        };
        let list = [Member::run(40, 4), vectors, Member::run(32, 2)];
        assert_eq!(members[..], list);
        assert_eq!(
            members.capacity(),
            4,
            "one allocation, sized by the member count"
        );
        let flat = vec![(40, 4), (0, 2), (4, 2), (6, 2), (10, 2), (32, 2)];
        assert_eq!(flatten(&members), flat);

        // a wrapper that changes nothing changes nothing; any other combiner
        // over the list has its runs
        let same = r.type_contiguous(1, s).unwrap();
        assert_eq!(translate(&mut r, same).unwrap(), Translated::Multi(members));
        let twice = r.type_create_hvector(2, 1, 100, s).unwrap();
        let shifted = flat.iter().map(|&(off, len)| (off + 100, len));
        let both: Vec<_> = flat.iter().copied().chain(shifted).collect();
        assert_eq!(blocks_of(&mut r, twice), both);

        // a member that is itself a list turns the members before it back
        // into runs; so does a 52nd member, and a fifth dimension
        let h = r.type_create_hindexed(&[1, 1], &[4, 0], MPI_BYTE).unwrap();
        let with_list = r.type_create_struct(&[1, 1, 1], &[0, 20, 30], &[v, h, v]);
        let runs = blocks_of(&mut r, with_list.unwrap());
        assert_eq!(
            runs,
            vec![(0, 2), (4, 2), (24, 1), (20, 1), (30, 2), (34, 2)]
        );
        let many = |n: usize| {
            let mut r = reg();
            let v = r.type_vector(2, 1, 2, MPI_BYTE).unwrap();
            let displs: Vec<i64> = (0..n as i64).map(|i| 4 * i).collect();
            let s = r.type_create_struct(&vec![1; n], &displs, &vec![v; n]);
            translate(&mut r, s.unwrap()).unwrap()
        };
        assert!(matches!(many(MAX_MEMBERS), Translated::Multi(m) if m.len() == MAX_MEMBERS));
        assert!(matches!(many(MAX_MEMBERS + 1), Translated::Blocks(b) if b.blocks.len() == 104));
        let deep = r
            .type_create_subarray(&[4; 4], &[2; 4], &[1; 4], Order::C, MPI_SHORT)
            .unwrap();
        let fifth = r.type_create_struct(&[2, 1], &[0, 2000], &[deep, MPI_INT]);
        assert_eq!(blocks_of(&mut r, fifth.unwrap()).len(), 2 * 8 + 1);
    }

    #[test]
    fn struct_under_every_strided_combiner_replicates_its_runs() {
        let mut r = reg();
        let s = r
            .type_create_struct(&[1, 1], &[8, 0], &[MPI_SHORT, MPI_INT])
            .unwrap(); // runs (8, 2), (0, 4); extent 10
        let runs = |base: i64| [(base + 8, 2), (base, 4)];
        let cat =
            |bases: &[i64]| -> Vec<(i64, u64)> { bases.iter().flat_map(|&b| runs(b)).collect() };

        let c = r.type_contiguous(3, s).unwrap();
        assert_eq!(blocks_of(&mut r, c), cat(&[0, 10, 20]));
        let v = r.type_vector(2, 2, 3, s).unwrap();
        assert_eq!(blocks_of(&mut r, v), cat(&[0, 10, 30, 40]));
        let h = r.type_create_hvector(2, 1, 64, s).unwrap();
        assert_eq!(blocks_of(&mut r, h), cat(&[0, 64]));
        let sub = r
            .type_create_subarray(&[3, 4], &[2, 2], &[1, 1], Order::C, s)
            .unwrap();
        assert_eq!(blocks_of(&mut r, sub), cat(&[50, 60, 90, 100]));
        let ib = r.type_create_indexed_block(1, &[2, 0], s).unwrap();
        assert_eq!(blocks_of(&mut r, ib), cat(&[20, 0]));
        // and a struct of structs
        let ss = r.type_create_struct(&[1, 2], &[100, 0], &[s, s]).unwrap();
        assert_eq!(blocks_of(&mut r, ss), cat(&[100, 0, 10]));
    }

    #[test]
    fn vector_of_hindexed_replicates_blocks() {
        let mut r = reg();
        let h = r.type_create_hindexed(&[1, 1], &[4, 0], MPI_BYTE).unwrap();
        // extent(h) = 5
        let v = r.type_vector(2, 1, 2, h).unwrap(); // stride 2 elements = 10 B
        match translate(&mut r, v).unwrap() {
            Translated::Blocks(b) => {
                assert_eq!(b.blocks, vec![(4, 1), (0, 1), (14, 1), (10, 1)]);
            }
            other => panic!("expected blocks, got {other:?}"),
        }
    }

    #[test]
    fn memo_counts_only_the_calls_it_forwards() {
        let mut r = reg();
        let mut memo = NamedMemo::default();
        let dt = r.type_vector(4, 2, 8, MPI_FLOAT).unwrap();
        let mut m = MemoIntrospect::new(&mut r, &mut memo);
        let first = translate(&mut m, dt).unwrap();
        // vector: envelope + contents + extent(old); child: envelope, and
        // its extent is already known
        assert_eq!(m.calls, 4);
        // a second translation asks about the vector only, and sees the
        // same type
        let mut m = MemoIntrospect::new(&mut r, &mut memo);
        assert_eq!(translate(&mut m, dt).unwrap(), first);
        assert_eq!(m.calls, 2);
        // what was learnt about MPI_FLOAT says nothing about MPI_DOUBLE
        let mut m = MemoIntrospect::new(&mut r, &mut memo);
        assert_eq!(m.extent(MPI_DOUBLE).unwrap(), (0, 8));
        assert_eq!(m.extent(MPI_DOUBLE).unwrap(), (0, 8));
        assert_eq!(m.envelope(MPI_DOUBLE).unwrap().combiner, Combiner::Named);
        assert_eq!(m.calls, 2);
        // a derived handle is asked about every time
        assert_eq!(m.extent(dt).unwrap(), m.extent(dt).unwrap());
        assert_eq!(m.calls, 4);
    }

    /// An introspection source that answers with whatever the test wrote
    /// down: a handle not in `derived` is a named type of `named_extent`
    /// bytes.
    struct Hostile {
        derived: Vec<(Datatype, Combiner, Contents, i64)>,
        named_extent: i64,
    }

    impl Hostile {
        fn named(named_extent: i64) -> Self {
            Hostile {
                derived: Vec::new(),
                named_extent,
            }
        }

        /// Add a derived type of the given extent; contents as
        /// `MPI_Type_get_contents` lays them out.
        fn with(
            mut self,
            dt: Datatype,
            combiner: Combiner,
            (integers, addresses, datatypes): (&[i64], &[i64], &[Datatype]),
            extent: i64,
        ) -> Self {
            let contents = Contents {
                integers: integers.to_vec(),
                addresses: addresses.to_vec(),
                datatypes: datatypes.to_vec(),
            };
            self.derived.push((dt, combiner, contents, extent));
            self
        }

        fn find(&self, dt: Datatype) -> Option<&(Datatype, Combiner, Contents, i64)> {
            self.derived.iter().find(|d| d.0 == dt)
        }
    }

    impl Introspect for Hostile {
        fn envelope(&mut self, dt: Datatype) -> MpiResult<Envelope> {
            Ok(Envelope {
                combiner: self.find(dt).map_or(Combiner::Named, |d| d.1),
                ..NAMED_ENVELOPE
            })
        }
        fn contents(&mut self, dt: Datatype) -> MpiResult<Contents> {
            self.find(dt)
                .map(|d| d.2.clone())
                .ok_or(MpiError::InvalidDatatype)
        }
        fn extent(&mut self, dt: Datatype) -> MpiResult<(i64, i64)> {
            Ok((0, self.find(dt).map_or(self.named_extent, |d| d.3)))
        }
        fn type_size(&mut self, dt: Datatype) -> MpiResult<u64> {
            self.extent(dt).map(|(_, ex)| ex as u64)
        }
    }

    const TOP: Datatype = Datatype(1000);
    const INNER: Datatype = Datatype(1001);
    const BIG: i64 = i64::MAX / 2;

    fn assert_overflow(r: MpiResult<Translated>) {
        match r {
            Err(MpiError::InvalidArg(msg)) => assert!(msg.contains("overflow"), "{msg}"),
            other => panic!("expected an overflow error, got {other:?}"),
        }
    }

    fn one_run(off: i64, len: u64) -> Translated {
        Translated::Blocks(BlockList {
            blocks: vec![(off, len)],
        })
    }

    #[test]
    fn indexed_displacements_are_checked() {
        let indexed = |combiner, integers: &[i64], addresses: &[i64], named_extent| {
            let mut source = Hostile::named(named_extent).with(
                TOP,
                combiner,
                (integers, addresses, &[MPI_BYTE]),
                0,
            );
            translate(&mut source, TOP)
        };
        // d × extent
        assert_overflow(indexed(Combiner::Indexed, &[1, 1, 3], &[], BIG));
        assert_overflow(indexed(Combiner::IndexedBlock, &[1, 1, 3], &[], BIG));
        // bl × extent
        assert_overflow(indexed(Combiner::Hindexed, &[1, 3], &[0], BIG));
        // the same shapes inside the range translate
        let ok = indexed(Combiner::Indexed, &[1, 2, 3], &[], 8).unwrap();
        assert_eq!(ok, one_run(24, 16));
    }

    #[test]
    fn struct_displacements_are_checked() {
        // bl × extent of a member
        let mut source =
            Hostile::named(BIG).with(TOP, Combiner::Struct, (&[1, 3], &[0], &[MPI_BYTE]), 0);
        assert_overflow(translate(&mut source, TOP));
        // disp + j × extent over a member that does not tile: one byte,
        // resized to an extent of 16
        let member = |disp| {
            let mut source = Hostile::named(1)
                .with(INNER, Combiner::Resized, (&[], &[0, 16], &[MPI_BYTE]), 16)
                .with(TOP, Combiner::Struct, (&[1, 2], &[disp], &[INNER]), 0);
            translate(&mut source, TOP)
        };
        assert_overflow(member(i64::MAX - 8));
        // one strided member is that member: a byte at 100 and at 116
        let ok = Type::stream(0, 16, 2, Type::dense(100, 1));
        assert_eq!(member(100).unwrap(), Translated::Strided(ok));
    }

    #[test]
    fn strided_arms_check_their_products() {
        let big = i32::MAX as i64;
        let subarray = |size: i64, start: i64| {
            let integers = [3, size, size, size, 1, 1, 1, start, start, start, 0];
            let mut source =
                Hostile::named(8).with(TOP, Combiner::Subarray, (&integers, &[], &[MPI_BYTE]), 0);
            translate(&mut source, TOP)
        };
        // stride × size, two dimensions up; start × stride, one up
        assert_overflow(subarray(big, 0));
        assert_overflow(subarray(1 << 30, i64::MAX >> 32));
        assert!(matches!(subarray(4, 3), Ok(Translated::Strided(_))));
        // extent × stride, formed only where more than one block steps by it
        let vector = |count, stride| {
            let mut source = Hostile::named(BIG).with(
                TOP,
                Combiner::Vector,
                (&[count, 2, stride], &[], &[MPI_BYTE]),
                0,
            );
            translate(&mut source, TOP)
        };
        assert_overflow(vector(2, 3));
        assert!(matches!(vector(2, 1), Ok(Translated::Strided(_))));
        let one = Type::stream(0, 0, 1, Type::stream(0, BIG, 2, Type::dense(0, BIG)));
        assert_eq!(vector(1, 3).unwrap(), Translated::Strided(one));
    }

    #[test]
    fn replicated_block_lists_are_checked() {
        // hvector(count, 1, stride) of a struct that holds one byte at 8
        let hvector = |count, stride| {
            let mut source = Hostile::named(1)
                .with(INNER, Combiner::Struct, (&[1, 1], &[8], &[MPI_BYTE]), 16)
                .with(
                    TOP,
                    Combiner::Hvector,
                    (&[count, 1], &[stride], &[INNER]),
                    0,
                );
            translate(&mut source, TOP)
        };
        // blocks.len() × count: more copies than any allocation holds, and
        // a count that is no count at all
        assert_overflow(hvector(i64::MAX, 16));
        assert_overflow(hvector(-1, 16));
        // base + o, and i × stride
        assert_overflow(hvector(2, i64::MAX - 4));
        assert_overflow(hvector(3, BIG));
        let ok = Translated::Blocks(BlockList {
            blocks: vec![(8, 1), (40, 1)],
        });
        assert_eq!(hvector(2, 32).unwrap(), ok);
    }
}
