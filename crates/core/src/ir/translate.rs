//! Type translation: MPI datatype → IR tree (paper §3.1, Algorithms 1–4).
//!
//! Translation sees the datatype exactly the way a real interposed library
//! must: through the MPI introspection interface (`MPI_Type_get_envelope`,
//! `MPI_Type_get_contents`, `MPI_Type_get_extent`, `MPI_Type_size`),
//! abstracted here as the [`Introspect`] trait. When driven through a
//! [`mpi_sim::RankCtx`] the calls are priced with the vendor's
//! introspection cost — which is why Fig. 6's commit overhead differs
//! across implementations even though TEMPI does identical work.
//!
//! It works in a `Scratch` that its owner keeps from one translation to
//! the next: each level reads its constructor arguments into the scratch's
//! argument stacks, the form in which `MPI_Type_get_contents` fills arrays
//! its caller owns, and builds its chain, block list or member list on
//! the scratch's lists. The levels waiting on a child's translation wait
//! on a [`WalkPath`] of frames — the first few in place, the rest in the
//! scratch — not in a recursion, so a type of any nesting depth translates
//! in constant call-stack space. A translation of a shape the scratch has
//! held before allocates nothing.

use mpi_sim::datatype::walk::WalkPath;
use mpi_sim::datatype::{Combiner, Datatype, Envelope};
use mpi_sim::{MpiError, MpiResult, RankCtx, TypeRegistry};

use super::strided_block::{strided_block_into, Member, StridedBlock, MAX_MEMBERS};
use super::transform::simplify;
use super::{BlockList, DenseData, StreamData, Type};

/// The introspection face of MPI that translation consumes.
pub trait Introspect {
    /// `MPI_Type_get_envelope`.
    fn envelope(&mut self, dt: Datatype) -> MpiResult<Envelope>;
    /// `MPI_Type_get_contents`, into the caller's arrays, which hold at
    /// least the envelope's counts.
    fn contents(
        &mut self,
        dt: Datatype,
        integers: &mut [i64],
        addresses: &mut [i64],
        datatypes: &mut [Datatype],
    ) -> MpiResult<()>;
    /// `MPI_Type_get_extent` → `(lb, extent)`.
    fn extent(&mut self, dt: Datatype) -> MpiResult<(i64, i64)>;
    /// `MPI_Type_size`.
    fn type_size(&mut self, dt: Datatype) -> MpiResult<u64>;
}

impl Introspect for RankCtx {
    fn envelope(&mut self, dt: Datatype) -> MpiResult<Envelope> {
        self.get_envelope(dt)
    }
    fn contents(
        &mut self,
        dt: Datatype,
        integers: &mut [i64],
        addresses: &mut [i64],
        datatypes: &mut [Datatype],
    ) -> MpiResult<()> {
        self.get_contents(dt, integers, addresses, datatypes)
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
    fn contents(
        &mut self,
        dt: Datatype,
        integers: &mut [i64],
        addresses: &mut [i64],
        datatypes: &mut [Datatype],
    ) -> MpiResult<()> {
        self.get_contents(dt, integers, addresses, datatypes)
    }
    fn extent(&mut self, dt: Datatype) -> MpiResult<(i64, i64)> {
        TypeRegistry::extent(self, dt)
    }
    fn type_size(&mut self, dt: Datatype) -> MpiResult<u64> {
        self.size(dt)
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

/// A [`Translated`] left in a [`Scratch`]: the variant, with its data in
/// the scratch — the chain, or the list from the index given to the end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Shape {
    /// As [`Translated::Empty`].
    Empty,
    /// As [`Translated::Strided`]: [`Scratch::chain`].
    Strided,
    /// As [`Translated::Blocks`]: `Scratch::blocks[from..]`.
    Blocks(usize),
    /// As [`Translated::Multi`]: `Scratch::members[from..]`.
    Multi(usize),
    /// As [`Translated::Unsupported`].
    Unsupported(Combiner),
}

/// One stream level to wrap a child in: `(off, stride, count)`.
type Spec = (i64, i64, i64);

/// Where one level's constructor arguments start in the scratch's three
/// argument stacks.
#[derive(Debug, Clone, Copy, Default)]
struct Args {
    ints: usize,
    addrs: usize,
    types: usize,
}

/// A level waiting on the translation of one of its children: where its
/// arguments and stream levels start on the stacks, and what it does with
/// the child's result.
#[derive(Debug, Clone, Copy, Default)]
struct Frame {
    args: Args,
    specs: usize,
    wait: Wait,
}

/// What a waiting level does with its child's result.
#[derive(Debug, Clone, Copy, Default)]
enum Wait {
    /// A dup or resized type: the result is the level's.
    #[default]
    Same,
    /// A contiguous, vector or subarray type: wrap the result in the
    /// level's streams, which are all one element at offset 0 when
    /// `in_place`.
    Streams { in_place: bool },
    /// An indexed-family type of `combiner` over elements `ex` bytes apart.
    Indexed { combiner: Combiner, ex: i64 },
    /// A struct, at the member [`StructAt`] says.
    Struct(StructAt),
}

/// How far a struct's translation has come: at member `k`, whose elements
/// lie `ex` bytes apart. Its runs start at `blocks[out]`, its members at
/// `members[first]`, and `strided` holds while every member so far was one
/// strided object.
#[derive(Debug, Clone, Copy)]
struct StructAt {
    k: usize,
    ex: i64,
    out: usize,
    first: usize,
    strided: bool,
}

/// The levels of a translation waiting on a child, innermost on top.
type Path = WalkPath<Frame>;

/// Where a level's translation stands after one step.
enum Step {
    /// The level is done: its result.
    Done(Shape),
    /// The level waits on a frame for this child's translation.
    Child(Datatype),
}

/// The storage translation reuses from one datatype to the next. Every
/// list is a stack: a level's frame, arguments, stream levels, runs and
/// members lie above those of the levels that are translating it, and a
/// level's result is the top of its list. Only one chain is ever being
/// built — a level consumes each child's before it asks for the next — so
/// the chain, the canonical object and one element's runs are single
/// values.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// The frames of a translation's levels past the ones its
    /// [`WalkPath`] holds in place.
    frames: Vec<Frame>,
    ints: Vec<i64>,
    addrs: Vec<i64>,
    types: Vec<Datatype>,
    specs: Vec<Spec>,
    /// The chain of a [`Shape::Strided`] result.
    pub(crate) chain: Type,
    /// The runs of [`Shape::Blocks`] results.
    pub(crate) blocks: Vec<(i64, u64)>,
    /// The members of [`Shape::Multi`] results.
    pub(crate) members: Vec<Member>,
    /// The runs of one element of an indexed-family or struct type.
    element: Vec<(i64, u64)>,
    /// The canonical strided object of an element, or of a commit's chain.
    pub(crate) sb: StridedBlock,
}

impl Scratch {
    /// Translate `dt` into the IR (Algorithms 1–4, plus the hvector,
    /// resized, indexed-family and struct cases), leaving the result here.
    pub(crate) fn translate<I: Introspect>(
        &mut self,
        intro: &mut I,
        dt: Datatype,
    ) -> MpiResult<Shape> {
        // a translation that failed part-way left its levels behind
        self.ints.clear();
        self.addrs.clear();
        self.types.clear();
        self.specs.clear();
        self.blocks.clear();
        self.members.clear();
        let mut path = WalkPath::new(Frame::default(), std::mem::take(&mut self.frames));
        let shape = translate_in(intro, self, &mut path, dt);
        self.frames = path.into_spill();
        shape
    }

    /// Canonicalize [`Scratch::chain`] in place (Algorithm 5), returning
    /// the passes taken.
    pub(crate) fn simplify_chain(&mut self) -> usize {
        let (canon, passes) = simplify(std::mem::take(&mut self.chain));
        self.chain = canon;
        passes
    }

    /// The result `shape` names, copied out.
    fn to_translated(&self, shape: Shape) -> Translated {
        match shape {
            Shape::Empty => Translated::Empty,
            Shape::Strided => Translated::Strided(self.chain.clone()),
            Shape::Blocks(from) => Translated::Blocks(BlockList {
                blocks: self.blocks[from..].to_vec(),
            }),
            Shape::Multi(from) => Translated::Multi(self.members[from..].to_vec()),
            Shape::Unsupported(c) => Translated::Unsupported(c),
        }
    }

    /// Read `dt`'s constructor arguments onto the argument stacks: a
    /// derived type's, which `env` sizes; a named type has none to ask for.
    fn push_args<I: Introspect>(
        &mut self,
        intro: &mut I,
        dt: Datatype,
        env: &Envelope,
    ) -> MpiResult<Args> {
        let at = Args {
            ints: self.ints.len(),
            addrs: self.addrs.len(),
            types: self.types.len(),
        };
        if env.combiner != Combiner::Named {
            self.ints.resize(at.ints + env.num_integers, 0);
            self.addrs.resize(at.addrs + env.num_addresses, 0);
            self.types.resize(at.types + env.num_datatypes, Datatype(0));
            let (ints, addrs) = (&mut self.ints[at.ints..], &mut self.addrs[at.addrs..]);
            intro.contents(dt, ints, addrs, &mut self.types[at.types..])?;
        }
        Ok(at)
    }

    /// Move the runs of the member list at `members[from..]` onto the top
    /// of `blocks`.
    fn flatten(&mut self, from: usize) {
        let Scratch {
            members, blocks, ..
        } = self;
        for m in &members[from..] {
            m.for_each_block(|off, len| blocks.push((off, len as u64)));
        }
        members.truncate(from);
    }

    /// The block list at `blocks[from..]`, or `Empty` when there is none.
    fn blocks_or_empty(&self, from: usize) -> Shape {
        match self.blocks.len() > from {
            true => Shape::Blocks(from),
            false => Shape::Empty,
        }
    }

    /// The level `frame` describes is done with result `shape`: its
    /// arguments and stream levels leave the stacks, its result stays.
    fn finish(&mut self, frame: Frame, shape: Shape) -> Step {
        self.ints.truncate(frame.args.ints);
        self.addrs.truncate(frame.args.addrs);
        self.types.truncate(frame.args.types);
        self.specs.truncate(frame.specs);
        Step::Done(shape)
    }
}

/// Translate `dt` into the IR (Algorithms 1–4, plus the hvector, resized,
/// indexed-family and struct cases), in a scratch of its own.
pub fn translate<I: Introspect>(intro: &mut I, dt: Datatype) -> MpiResult<Translated> {
    let mut scratch = Scratch::default();
    let shape = scratch.translate(intro, dt)?;
    Ok(scratch.to_translated(shape))
}

/// Translate `dt` in `s` (see [`Scratch::translate`]). A level is entered
/// once and then resumed once per child it waits on, waiting in between
/// on a frame on `path`, so the call stack stays as deep as one level.
fn translate_in<I: Introspect>(
    intro: &mut I,
    s: &mut Scratch,
    path: &mut Path,
    dt: Datatype,
) -> MpiResult<Shape> {
    let mut step = enter(intro, s, path, dt)?;
    loop {
        step = match step {
            Step::Child(child) => enter(intro, s, path, child)?,
            Step::Done(shape) => match path.pop() {
                None => return Ok(shape),
                Some(frame) => resume(intro, s, path, frame, shape)?,
            },
        };
    }
}

/// Start translating `dt`: read its arguments, then finish it at once or
/// leave it waiting on a frame for the child it names. Each constructor's
/// case is a function of its own, so a level's stack frame is the one
/// case it takes (a debug build gives every temporary of a function a
/// slot of its own, on a rank's fiber stack).
fn enter<I: Introspect>(
    intro: &mut I,
    s: &mut Scratch,
    path: &mut Path,
    dt: Datatype,
) -> MpiResult<Step> {
    let env = intro.envelope(dt)?;
    let (c, specs) = (s.push_args(intro, dt, &env)?, s.specs.len());
    let frame = Frame {
        args: c,
        specs,
        wait: Wait::Same,
    };
    match env.combiner {
        Combiner::Named => enter_named(intro, s, dt),
        // Neither changes where the data lies; a parent asks MPI for the
        // (possibly resized) extent itself.
        Combiner::Dup | Combiner::Resized => {
            path.push(frame);
            Ok(Step::Child(s.types[c.types]))
        }
        Combiner::Contiguous => enter_contiguous(intro, s, path, frame),
        Combiner::Vector => enter_vector(intro, s, path, frame, true),
        Combiner::Hvector => enter_vector(intro, s, path, frame, false),
        Combiner::Subarray => enter_subarray(intro, s, path, frame),
        // Indexed-family extension: flatten to a block list when the
        // element type itself reduces to a block list or dense run.
        combiner @ (Combiner::Indexed | Combiner::Hindexed | Combiner::IndexedBlock) => {
            let old = s.types[c.types];
            let (_, ex) = intro.extent(old)?;
            path.push(Frame {
                wait: Wait::Indexed { combiner, ex },
                ..frame
            });
            Ok(Step::Child(old))
        }
        // Struct extension (paper §8): see `add_member`.
        Combiner::Struct => {
            let at = StructAt {
                k: 0,
                ex: 0,
                out: s.blocks.len(),
                first: s.members.len(),
                strided: true,
            };
            next_member(intro, s, path, frame, at)
        }
    }
}

/// Algorithm 1: named types are dense, offset 0.
fn enter_named<I: Introspect>(intro: &mut I, s: &mut Scratch, dt: Datatype) -> MpiResult<Step> {
    let (_, extent) = intro.extent(dt)?;
    s.chain.leaf = DenseData { off: 0, extent };
    s.chain.streams.clear();
    Ok(Step::Done(Shape::Strided))
}

/// Algorithm 2: a contiguous type is a stream whose stride is the element
/// extent.
fn enter_contiguous<I: Introspect>(
    intro: &mut I,
    s: &mut Scratch,
    path: &mut Path,
    frame: Frame,
) -> MpiResult<Step> {
    let c = frame.args;
    let (count, old) = (s.ints[c.ints], s.types[c.types]);
    let ex = stride_extent(intro, old, count > 1)?;
    s.specs.push((0, ex, count));
    Ok(wrap_streams(s, path, frame, old))
}

/// Algorithm 3: vector/hvector become two nested streams (blocks, then
/// elements within a block), the blocks a stride in elements or in bytes
/// apart. A vector forms `extent × stride` only for more than one block of
/// elements, as the registry does.
fn enter_vector<I: Introspect>(
    intro: &mut I,
    s: &mut Scratch,
    path: &mut Path,
    frame: Frame,
    vector: bool,
) -> MpiResult<Step> {
    let c = frame.args;
    let (count, blocklength) = (s.ints[c.ints], s.ints[c.ints + 1]);
    let old = s.types[c.types];
    let ex = stride_extent(intro, old, blocklength > 1 || (vector && count > 1))?;
    let apart = match vector {
        true if count > 1 && blocklength > 0 => at(0, ex, s.ints[c.ints + 2])?,
        true => 0,
        false => s.addrs[c.addrs],
    };
    s.specs.extend([(0, ex, blocklength), (0, apart, count)]);
    Ok(wrap_streams(s, path, frame, old))
}

/// Algorithm 4: each subarray dimension is a nested stream; dimension
/// strides are products of the faster dimensions' sizes.
fn enter_subarray<I: Introspect>(
    intro: &mut I,
    s: &mut Scratch,
    path: &mut Path,
    frame: Frame,
) -> MpiResult<Step> {
    let c = frame.args;
    // sizes, subsizes and starts, each `ndims` long, then the order
    let ndims = s.ints[c.ints] as usize;
    let (sizes, subsizes) = (c.ints + 1, c.ints + 1 + ndims);
    let (starts, c_order) = (subsizes + ndims, s.ints[subsizes + 2 * ndims] == 0);
    let old = s.types[c.types];
    let (_, ex) = intro.extent(old)?;
    // innermost (fastest-varying) dimension first: the last in C order,
    // the first in Fortran order
    let mut stride = ex;
    for i in 0..ndims {
        let d = if c_order { ndims - 1 - i } else { i };
        let spec = (
            at(0, s.ints[starts + d], stride)?,
            stride,
            s.ints[subsizes + d],
        );
        s.specs.push(spec);
        stride = stride.checked_mul(s.ints[sizes + d]).ok_or_else(overflow)?;
    }
    Ok(wrap_streams(s, path, frame, old))
}

/// Hand the level waiting on `frame` its child's result `child`: the
/// level is done, or waits on its next child.
fn resume<I: Introspect>(
    intro: &mut I,
    s: &mut Scratch,
    path: &mut Path,
    frame: Frame,
    child: Shape,
) -> MpiResult<Step> {
    let shape = match frame.wait {
        Wait::Same => child,
        Wait::Streams { in_place } => wrap(s, frame.specs, in_place, child)?,
        Wait::Indexed { combiner, ex } => indexed(s, frame.args, combiner, ex, child)?,
        Wait::Struct(mut at) => match add_member(s, frame.args, &mut at, child)? {
            Err(c) => Shape::Unsupported(c),
            Ok(()) => {
                at.k += 1;
                return next_member(intro, s, path, frame, at);
            }
        },
    };
    Ok(s.finish(frame, shape))
}

/// Wait on the translation of `old` to wrap it in the chain of streams at
/// `frame.specs..` of the stack, innermost first; a level with a stream
/// of no elements is done at once, empty, and `old` is never translated.
fn wrap_streams(s: &mut Scratch, path: &mut Path, frame: Frame, old: Datatype) -> Step {
    let levels = &s.specs[frame.specs..];
    if levels.iter().any(|&(_, _, count)| count == 0) {
        return s.finish(frame, Shape::Empty);
    }
    // one element where it lies: the wrapper changes nothing, and a member
    // list stays one
    let in_place = levels.iter().all(|&(off, _, n)| (off, n) == (0, 1));
    path.push(Frame {
        wait: Wait::Streams { in_place },
        ..frame
    });
    Step::Child(old)
}

/// Wrap the translation `child` in the chain of streams at `specs..` of
/// the stack, innermost first. Handles block-list children; passes empty
/// and unsupported ones on.
fn wrap(s: &mut Scratch, specs: usize, in_place: bool, child: Shape) -> MpiResult<Shape> {
    let from = match child {
        Shape::Strided => {
            let Scratch {
                specs: levels,
                chain,
                ..
            } = s;
            chain.streams.extend(
                levels[specs..]
                    .iter()
                    .map(|&(off, stride, count)| StreamData { off, stride, count }),
            );
            return Ok(Shape::Strided);
        }
        Shape::Blocks(from) => from,
        Shape::Multi(first) if !in_place => {
            let from = s.blocks.len();
            s.flatten(first);
            from
        }
        none => return Ok(none),
    };
    // replicate the block list through each stream level, each level's
    // copies pushed above the list and the list then dropped from under them
    for level in specs..s.specs.len() {
        let (off, stride, count) = s.specs[level];
        let len = s.blocks.len() - from;
        reserve_runs(&mut s.blocks, len, count)?;
        for i in 0..count {
            let base = at(off, i, stride)?;
            for j in from..from + len {
                let (o, l) = s.blocks[j];
                s.blocks
                    .push((base.checked_add(o).ok_or_else(overflow)?, l));
            }
        }
        s.blocks.drain(from..from + len);
    }
    Ok(Shape::Blocks(from))
}

/// An indexed-family level of `combiner` whose arguments `c` locates, over
/// elements `ex` bytes apart that translate to `element`: its block list.
fn indexed(
    s: &mut Scratch,
    c: Args,
    combiner: Combiner,
    ex: i64,
    element: Shape,
) -> MpiResult<Shape> {
    let runs = match ElementRuns::of(s, element, ex) {
        Ok(runs) => runs,
        Err(c) => return Ok(Shape::Unsupported(c)),
    };
    let (count, from) = (s.ints[c.ints] as usize, s.blocks.len());
    s.blocks.reserve(count);
    for k in 0..count {
        // displacements in elements, or (hindexed) in bytes
        let (disp, bl) = match combiner {
            Combiner::Indexed => (
                at(0, s.ints[c.ints + 1 + count + k], ex)?,
                s.ints[c.ints + 1 + k],
            ),
            Combiner::Hindexed => (s.addrs[c.addrs + k], s.ints[c.ints + 1 + k]),
            _ => (at(0, s.ints[c.ints + 2 + k], ex)?, s.ints[c.ints + 1]),
        };
        runs.append(s, ex, disp, bl)?;
    }
    Ok(s.blocks_or_empty(from))
}

/// Wait on the translation of the first member of the struct `frame`
/// describes, from `at.k` on, that holds elements, having asked MPI for
/// its extent; with none left, the struct is done.
fn next_member<I: Introspect>(
    intro: &mut I,
    s: &mut Scratch,
    path: &mut Path,
    frame: Frame,
    mut at: StructAt,
) -> MpiResult<Step> {
    let c = frame.args;
    let count = s.ints[c.ints] as usize;
    while at.k < count {
        let (bl, old) = (s.ints[c.ints + 1 + at.k], s.types[c.types + at.k]);
        if bl > 0 {
            at.ex = intro.extent(old)?.1;
            path.push(Frame {
                wait: Wait::Struct(at),
                ..frame
            });
            return Ok(Step::Child(old));
        }
        at.k += 1;
    }
    let first = at.first;
    let shape = match s.members.len() - first {
        0 => s.blocks_or_empty(at.out),
        1 => {
            let Scratch { members, chain, .. } = s;
            members[first].chain_into(chain);
            members.truncate(first);
            Shape::Strided
        }
        _ => Shape::Multi(first),
    };
    Ok(s.finish(frame, shape))
}

/// Add member `at.k` of the struct whose arguments `c` locates, of
/// elements `at.ex` bytes apart that translate to `element`, to the
/// struct's runs or members — or `Err` with the combiner that keeps the IR
/// from expressing it.
///
/// Struct extension (paper §8): every member is an indexed block of its
/// own element type. While each is one run they are appended to one list
/// in member order; a member of several strided dimensions turns the runs
/// before it into a list of strided members, and one that is no strided
/// object at all turns that back into its runs.
fn add_member(
    s: &mut Scratch,
    c: Args,
    at: &mut StructAt,
    element: Shape,
) -> MpiResult<Result<(), Combiner>> {
    let (count, k, ex) = (s.ints[c.ints] as usize, at.k, at.ex);
    let (bl, disp) = (s.ints[c.ints + 1 + k], s.addrs[c.addrs + k]);
    let (out, first) = (at.out, at.first);
    let runs = match ElementRuns::of(s, element, ex) {
        Ok(ElementRuns::List) if s.element.is_empty() => return Ok(Ok(())),
        Ok(runs) => runs,
        Err(c) => return Ok(Err(c)),
    };
    // one of the two lists is empty
    let held = s.members.len() - first + s.blocks.len() - out;
    let room = at.strided && held < MAX_MEMBERS;
    let member = runs.member(s, ex, disp, bl).filter(|_| room);
    if member.is_none() {
        at.strided = false;
        s.flatten(first);
    }
    match member {
        Some(m) if m.ndims > 1 || s.members.len() > first => {
            if s.members.len() == first {
                let Scratch {
                    members, blocks, ..
                } = s;
                let run = |(off, len): (i64, u64)| Member::run(off, len as i64);
                members.reserve(count);
                members.extend(blocks.drain(out..).map(run));
            }
            s.members.push(m);
        }
        _ => runs.append(s, ex, disp, bl)?,
    }
    Ok(Ok(()))
}

/// The byte runs of one element of an indexed-family or struct member
/// type, from the element's origin; the data lies in the [`Scratch`].
#[derive(Debug, Clone, Copy)]
enum ElementRuns {
    /// One dense run, `start` bytes in, as long as the element's extent:
    /// consecutive elements tile into one run per block.
    Tile(i64),
    /// The blocks of the canonical strided pattern [`Scratch::sb`].
    Strided,
    /// The explicit list `Scratch::element`; none for an element that
    /// denotes no bytes.
    List,
}

impl ElementRuns {
    /// The runs of an element type of extent `ex` from its translation
    /// `element`, or the combiner that keeps the IR from expressing it.
    fn of(s: &mut Scratch, element: Shape, ex: i64) -> Result<ElementRuns, Combiner> {
        s.element.clear();
        match element {
            Shape::Empty => Ok(ElementRuns::List),
            Shape::Blocks(from) => {
                s.element.extend_from_slice(&s.blocks[from..]);
                s.blocks.truncate(from);
                Ok(ElementRuns::List)
            }
            Shape::Multi(first) => {
                let Scratch {
                    members, element, ..
                } = s;
                for m in &members[first..] {
                    m.for_each_block(|off, len| element.push((off, len as u64)));
                }
                members.truncate(first);
                Ok(ElementRuns::List)
            }
            Shape::Strided => {
                // Canonicalize the child, then enumerate its contiguous runs
                // per block element (prior work reduces *all* types this way;
                // TEMPI only does it for the indexed family and struct).
                s.simplify_chain();
                if s.chain.is_dense() && s.chain.leaf.extent == ex {
                    Ok(ElementRuns::Tile(s.chain.leaf.off))
                } else if strided_block_into(&s.chain, &mut s.sb) {
                    Ok(ElementRuns::Strided)
                } else {
                    Err(Combiner::Indexed)
                }
            }
            Shape::Unsupported(c) => Err(c),
        }
    }

    /// A block of `bl` elements, `ex` bytes apart from byte displacement
    /// `disp`, as one strided member — if it is one.
    fn member(self, s: &Scratch, ex: i64, disp: i64, bl: i64) -> Option<Member> {
        match self {
            Self::Tile(start) => Some(Member::run(disp.checked_add(start)?, bl.checked_mul(ex)?)),
            Self::Strided => Member::of(&s.sb, bl, ex, disp),
            Self::List => None,
        }
    }

    /// Push the runs of a block of `bl` elements, `ex` bytes apart from
    /// byte displacement `disp`, onto `Scratch::blocks`.
    fn append(self, s: &mut Scratch, ex: i64, disp: i64, bl: i64) -> MpiResult<()> {
        if bl <= 0 {
            return Ok(());
        }
        let Scratch {
            blocks: out,
            element,
            sb,
            ..
        } = s;
        match self {
            ElementRuns::Tile(start) => {
                let first = disp.checked_add(start).ok_or_else(overflow)?;
                let len = bl.checked_mul(ex).and_then(|l| u64::try_from(l).ok());
                out.push((first, len.ok_or_else(overflow)?));
            }
            ElementRuns::Strided => {
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
            ElementRuns::List => {
                if element.is_empty() {
                    return Ok(());
                }
                reserve_runs(out, element.len(), bl)?;
                for j in 0..bl {
                    let elem_base = at(disp, j, ex)?;
                    for &(o, l) in element.iter() {
                        out.push((elem_base.checked_add(o).ok_or_else(overflow)?, l));
                    }
                }
            }
        }
        Ok(())
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
    use mpi_sim::datatype::{Contents, Order};
    use mpi_sim::WorldConfig;

    /// A rank to build types through and translate them on.
    fn rank() -> RankCtx {
        RankCtx::standalone(&WorldConfig::summit(1))
    }

    #[test]
    fn named_translates_to_dense() {
        let mut ctx = rank();
        let t = translate_strided(&mut ctx, MPI_FLOAT).unwrap();
        assert_eq!(t, Type::dense(0, 4));
    }

    #[test]
    fn contiguous_translates_to_stream_of_dense() {
        let mut ctx = rank();
        let dt = ctx.type_contiguous(100, MPI_FLOAT).unwrap();
        let t = translate_strided(&mut ctx, dt).unwrap();
        assert_eq!(t, Type::stream(0, 4, 100, Type::dense(0, 4)));
    }

    #[test]
    fn vector_translates_to_two_streams() {
        let mut ctx = rank();
        // Algorithm 3: outer stride = extent × stride
        let dt = ctx.type_vector(13, 100, 128, MPI_FLOAT).unwrap();
        let t = translate_strided(&mut ctx, dt).unwrap();
        assert_eq!(
            t,
            Type::stream(0, 4 * 128, 13, Type::stream(0, 4, 100, Type::dense(0, 4)))
        );
    }

    #[test]
    fn hvector_stride_taken_verbatim() {
        let mut ctx = rank();
        let dt = ctx.type_create_hvector(13, 1, 256, MPI_BYTE).unwrap();
        let t = translate_strided(&mut ctx, dt).unwrap();
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
        let mut ctx = rank();
        let plane = ctx
            .type_create_subarray(&[512, 256], &[13, 100], &[0, 0], Order::C, MPI_BYTE)
            .unwrap();
        let cuboid = ctx.type_vector(47, 1, 1, plane).unwrap();
        let t = translate_strided(&mut ctx, cuboid).unwrap();
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
        let mut ctx = rank();
        let row = ctx.type_vector(100, 1, 1, MPI_BYTE).unwrap();
        let plane = ctx.type_create_hvector(13, 1, 256, row).unwrap();
        let cuboid = ctx.type_create_hvector(47, 1, 256 * 512, plane).unwrap();
        let t = translate_strided(&mut ctx, cuboid).unwrap();
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
        let mut ctx = rank();
        let cuboid = ctx
            .type_create_subarray(
                &[1024, 512, 256],
                &[47, 13, 100],
                &[0, 0, 0],
                Order::C,
                MPI_BYTE,
            )
            .unwrap();
        let t = translate_strided(&mut ctx, cuboid).unwrap();
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
        let mut ctx = rank();
        let dt = ctx
            .type_create_subarray(&[8, 16], &[2, 4], &[3, 5], Order::C, MPI_FLOAT)
            .unwrap();
        let t = translate_strided(&mut ctx, dt).unwrap();
        // inner dim (fastest): stride 4, count 4, off 5*4=20
        // outer dim: stride 16*4=64, count 2, off 3*64=192
        assert_eq!(
            t,
            Type::stream(192, 64, 2, Type::stream(20, 4, 4, Type::dense(0, 4)))
        );
    }

    #[test]
    fn fortran_subarray_reverses_dims() {
        let mut ctx = rank();
        let c_dt = ctx
            .type_create_subarray(&[16, 8], &[4, 2], &[0, 0], Order::C, MPI_BYTE)
            .unwrap();
        let f_dt = ctx
            .type_create_subarray(&[8, 16], &[2, 4], &[0, 0], Order::Fortran, MPI_BYTE)
            .unwrap();
        assert_eq!(
            translate_strided(&mut ctx, c_dt).unwrap(),
            translate_strided(&mut ctx, f_dt).unwrap()
        );
    }

    #[test]
    fn zero_count_translates_to_empty() {
        let mut ctx = rank();
        let dt = ctx.type_contiguous(0, MPI_INT).unwrap();
        assert_eq!(translate(&mut ctx, dt).unwrap(), Translated::Empty);
        let dt = ctx.type_vector(0, 4, 8, MPI_INT).unwrap();
        assert_eq!(translate(&mut ctx, dt).unwrap(), Translated::Empty);
        let dt = ctx.type_vector(4, 0, 8, MPI_INT).unwrap();
        assert_eq!(translate(&mut ctx, dt).unwrap(), Translated::Empty);
    }

    #[test]
    fn dup_and_resized_are_transparent() {
        let mut ctx = rank();
        let v = ctx.type_vector(4, 2, 8, MPI_INT).unwrap();
        let d = ctx.type_dup(v).unwrap();
        let rz = ctx.type_create_resized(v, -8, 999).unwrap();
        let tv = translate(&mut ctx, v).unwrap();
        assert_eq!(translate(&mut ctx, d).unwrap(), tv);
        assert_eq!(translate(&mut ctx, rz).unwrap(), tv);
    }

    #[test]
    fn hindexed_becomes_blocklist() {
        let mut ctx = rank();
        let dt = ctx
            .type_create_hindexed(&[2, 3], &[100, 0], MPI_INT)
            .unwrap();
        match translate(&mut ctx, dt).unwrap() {
            Translated::Blocks(b) => {
                assert_eq!(b.blocks, vec![(100, 8), (0, 12)]);
            }
            other => panic!("expected blocks, got {other:?}"),
        }
    }

    #[test]
    fn indexed_with_strided_child_flattens_per_element() {
        let mut ctx = rank();
        // element type: vector with a hole (extent 12, data 8)
        let v = ctx.type_vector(2, 1, 2, MPI_FLOAT).unwrap();
        let dt = ctx.type_indexed(&[2], &[1], v).unwrap();
        match translate(&mut ctx, dt).unwrap() {
            Translated::Blocks(b) => {
                // displacement 1 element = extent(v) = 12 bytes; 2 elements,
                // each contributing dense leaves at +0 and +8
                assert_eq!(b.blocks, vec![(12, 4), (20, 4), (24, 4), (32, 4)]);
            }
            other => panic!("expected blocks, got {other:?}"),
        }
    }

    fn blocks_of(ctx: &mut RankCtx, dt: Datatype) -> Vec<(i64, u64)> {
        match translate(ctx, dt).unwrap() {
            Translated::Blocks(b) => b.blocks,
            other => panic!("expected blocks, got {other:?}"),
        }
    }

    #[test]
    fn struct_translates_to_member_runs() {
        let mut ctx = rank();
        // padding after the int, a zero-length member, displacements that
        // run backwards: one run per member, in member order
        let dt = ctx
            .type_create_struct(
                &[1, 0, 3, 2],
                &[32, 99, 8, 0],
                &[MPI_INT, MPI_DOUBLE, MPI_SHORT, MPI_BYTE],
            )
            .unwrap();
        assert_eq!(blocks_of(&mut ctx, dt), vec![(32, 4), (8, 6), (0, 2)]);
        // nothing but zero-length members denotes no bytes
        let empty = ctx.type_create_struct(&[0], &[0], &[MPI_INT]).unwrap();
        assert_eq!(translate(&mut ctx, empty).unwrap(), Translated::Empty);
    }

    #[test]
    fn struct_members_may_be_any_construction() {
        let mut ctx = rank();
        let v = ctx.type_vector(2, 2, 4, MPI_BYTE).unwrap(); // runs at 0, 4; extent 6
        let wide = ctx.type_create_resized(MPI_INT, 0, 16).unwrap();
        let h = ctx
            .type_create_hindexed(&[1, 1], &[4, 0], MPI_BYTE)
            .unwrap();
        let dt = ctx
            .type_create_struct(&[2, 2, 1], &[100, 0, 50], &[v, wide, h])
            .unwrap();
        assert_eq!(
            blocks_of(&mut ctx, dt),
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
        let mut ctx = rank();
        let v = ctx.type_vector(2, 2, 4, MPI_BYTE).unwrap(); // runs at 0, 4; extent 6
        let s = ctx
            .type_create_struct(&[1, 2, 0, 1], &[40, 0, 7, 32], &[MPI_INT, v, v, MPI_SHORT])
            .unwrap();
        let Translated::Multi(members) = translate(&mut ctx, s).unwrap() else {
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
            3,
            "copied out of the scratch at its length"
        );
        let flat = [(40, 4), (0, 2), (4, 2), (6, 2), (10, 2), (32, 2)];
        let mut runs = vec![];
        for m in &members {
            m.for_each_block(|off, len| runs.push((off, len as u64)));
        }
        assert_eq!(runs, flat);

        // a wrapper that changes nothing changes nothing; any other combiner
        // over the list has its runs
        let same = ctx.type_contiguous(1, s).unwrap();
        assert_eq!(
            translate(&mut ctx, same).unwrap(),
            Translated::Multi(members)
        );
        let twice = ctx.type_create_hvector(2, 1, 100, s).unwrap();
        let shifted = flat.iter().map(|&(off, len)| (off + 100, len));
        let both: Vec<_> = flat.iter().copied().chain(shifted).collect();
        assert_eq!(blocks_of(&mut ctx, twice), both);

        // a member that is itself a list turns the members before it back
        // into runs; so does a 52nd member, and a fifth dimension
        let h = ctx
            .type_create_hindexed(&[1, 1], &[4, 0], MPI_BYTE)
            .unwrap();
        let with_list = ctx.type_create_struct(&[1, 1, 1], &[0, 20, 30], &[v, h, v]);
        let runs = blocks_of(&mut ctx, with_list.unwrap());
        assert_eq!(
            runs,
            vec![(0, 2), (4, 2), (24, 1), (20, 1), (30, 2), (34, 2)]
        );
        let many = |n: usize| {
            let mut ctx = rank();
            let v = ctx.type_vector(2, 1, 2, MPI_BYTE).unwrap();
            let displs: Vec<i64> = (0..n as i64).map(|i| 4 * i).collect();
            let s = ctx.type_create_struct(&vec![1; n], &displs, &vec![v; n]);
            translate(&mut ctx, s.unwrap()).unwrap()
        };
        assert!(matches!(many(MAX_MEMBERS), Translated::Multi(m) if m.len() == MAX_MEMBERS));
        assert!(matches!(many(MAX_MEMBERS + 1), Translated::Blocks(b) if b.blocks.len() == 104));
        let deep = ctx
            .type_create_subarray(&[4; 4], &[2; 4], &[1; 4], Order::C, MPI_SHORT)
            .unwrap();
        let fifth = ctx.type_create_struct(&[2, 1], &[0, 2000], &[deep, MPI_INT]);
        assert_eq!(blocks_of(&mut ctx, fifth.unwrap()).len(), 2 * 8 + 1);
    }

    #[test]
    fn struct_under_every_strided_combiner_replicates_its_runs() {
        let mut ctx = rank();
        let s = ctx
            .type_create_struct(&[1, 1], &[8, 0], &[MPI_SHORT, MPI_INT])
            .unwrap(); // runs (8, 2), (0, 4); extent 10
        let runs = |base: i64| [(base + 8, 2), (base, 4)];
        let cat =
            |bases: &[i64]| -> Vec<(i64, u64)> { bases.iter().flat_map(|&b| runs(b)).collect() };

        let c = ctx.type_contiguous(3, s).unwrap();
        assert_eq!(blocks_of(&mut ctx, c), cat(&[0, 10, 20]));
        let v = ctx.type_vector(2, 2, 3, s).unwrap();
        assert_eq!(blocks_of(&mut ctx, v), cat(&[0, 10, 30, 40]));
        let h = ctx.type_create_hvector(2, 1, 64, s).unwrap();
        assert_eq!(blocks_of(&mut ctx, h), cat(&[0, 64]));
        let sub = ctx
            .type_create_subarray(&[3, 4], &[2, 2], &[1, 1], Order::C, s)
            .unwrap();
        assert_eq!(blocks_of(&mut ctx, sub), cat(&[50, 60, 90, 100]));
        let ib = ctx.type_create_indexed_block(1, &[2, 0], s).unwrap();
        assert_eq!(blocks_of(&mut ctx, ib), cat(&[20, 0]));
        // and a struct of structs
        let ss = ctx.type_create_struct(&[1, 2], &[100, 0], &[s, s]).unwrap();
        assert_eq!(blocks_of(&mut ctx, ss), cat(&[100, 0, 10]));
    }

    #[test]
    fn vector_of_hindexed_replicates_blocks() {
        let mut ctx = rank();
        let h = ctx
            .type_create_hindexed(&[1, 1], &[4, 0], MPI_BYTE)
            .unwrap();
        // extent(h) = 5
        let v = ctx.type_vector(2, 1, 2, h).unwrap(); // stride 2 elements = 10 B
        match translate(&mut ctx, v).unwrap() {
            Translated::Blocks(b) => {
                assert_eq!(b.blocks, vec![(4, 1), (0, 1), (14, 1), (10, 1)]);
            }
            other => panic!("expected blocks, got {other:?}"),
        }
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
            let (combiner, c) = self
                .find(dt)
                .map_or((Combiner::Named, None), |d| (d.1, Some(&d.2)));
            Ok(Envelope {
                num_integers: c.map_or(0, |c| c.integers.len()),
                num_addresses: c.map_or(0, |c| c.addresses.len()),
                num_datatypes: c.map_or(0, |c| c.datatypes.len()),
                combiner,
            })
        }
        fn contents(
            &mut self,
            dt: Datatype,
            integers: &mut [i64],
            addresses: &mut [i64],
            datatypes: &mut [Datatype],
        ) -> MpiResult<()> {
            let c = &self.find(dt).ok_or(MpiError::InvalidDatatype)?.2;
            integers[..c.integers.len()].copy_from_slice(&c.integers);
            addresses[..c.addresses.len()].copy_from_slice(&c.addresses);
            datatypes[..c.datatypes.len()].copy_from_slice(&c.datatypes);
            Ok(())
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
