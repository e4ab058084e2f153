//! `MPI_Type_commit` (paper §3): the native commit, then translation
//! (Algs. 1–4), transformation to canonical form (Algs. 5–7) and kernel
//! selection (Alg. 8 + §3.3), and the [`TypePlan`]s it keeps.
//!
//! Each rank's [`crate::tempi::Tempi`] holds one commit state: the plan of
//! each registry slot a commit has used, and the plans themselves,
//! interned by value, so that a commit arriving at a plan equal to one the
//! rank holds gets that `Arc<TypePlan>` back. A plan leaves the intern
//! table with the last slot holding it, and is kept as a spare: storage
//! for the next new plan, once no caller holds it either. Translation
//! runs in a scratch (`ir::translate::Scratch`) the state keeps, so a
//! commit allocates nothing once the scratch has grown to its shape,
//! whether it arrives at an interned plan or writes a new one over a
//! spare.

use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::num::NonZeroU8;
use std::sync::Arc;

use gpu_sim::{GpuPtr, MemSpace, SimTime};
use mpi_sim::datatype::{Combiner, Envelope, Named};
use mpi_sim::{check_item_offsets, transfer_bytes, Datatype, MpiResult, RankCtx};
use tempi_trace::LANE_CPU;

use crate::config::TempiConfig;
use crate::ir::strided_block::strided_block_into;
use crate::ir::translate::{Introspect, Scratch, Shape};
use crate::ir::BlockList;
use crate::kernels::{
    member_blocks, reach, select_kernel, select_members, KernelKind, PlanKind, Typed,
};
use crate::tempi::phase;

/// CPU cost per IR node per canonicalization pass (tiny; Fig. 6's commit
/// overhead is dominated by the vendor-priced introspection calls).
const CANON_NODE_COST: SimTime = SimTime::from_ns(20);

/// Most dead plans [`Commits`] keeps as spares. A warm create → commit →
/// free cycle needs one: the free makes a spare and the next new plan
/// takes it. The rest cover plans callers still hold, and what the slot
/// table grows by between sweeps: 8 is the table the first sweep runs at.
const PLAN_SPARES: usize = 8;

/// Diagnostics from one `MPI_Type_commit` (drives Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CommitReport {
    /// Vendor-priced MPI introspection calls the translation made (what it
    /// already knew of the predefined handles cost no call).
    pub introspection_calls: u64,
    /// Fixed-point passes of Alg. 5.
    pub simplify_passes: usize,
    /// IR nodes before canonicalization.
    pub nodes_before: usize,
    /// IR nodes after canonicalization.
    pub nodes_after: usize,
    /// Total virtual time of the commit (native + TEMPI work).
    pub commit_time: SimTime,
}

/// The cached result of committing one datatype.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypePlan {
    /// Selected handling.
    pub kind: PlanKind,
    /// `MPI_Type_size` in bytes.
    pub size: u64,
    /// `MPI_Type_get_extent` extent in bytes (item spacing for `incount`).
    pub extent: i64,
    /// Commit diagnostics.
    pub report: CommitReport,
}

/// A plan hashes by its scalars and the ends of its lists, which tell the
/// plans one rank holds apart without a pass over a long block list at
/// every commit; equality still compares the lists whole.
impl Hash for TypePlan {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self.size, self.extent, self.report).hash(state);
        match &self.kind {
            PlanKind::Empty => 0.hash(state),
            PlanKind::Strided(kp) => (1, &kp.sb, kp.word).hash(state),
            PlanKind::Blocks(bl) => {
                let runs = &bl.blocks;
                (2, runs.len(), runs.first(), runs.last()).hash(state);
            }
            PlanKind::Multi(members) => {
                (3, members.len(), members.first(), members.last()).hash(state);
            }
            PlanKind::Fallback(c) => (4, c).hash(state),
        }
    }
}

impl TypePlan {
    /// Byte length of the innermost contiguous run (drives the cost model
    /// and the method choice).
    pub fn block_bytes(&self) -> usize {
        let runs = match &self.kind {
            PlanKind::Empty => return 0,
            PlanKind::Strided(kp) => return kp.sb.block_bytes() as usize,
            PlanKind::Fallback(_) => return self.size as usize,
            // the mean run length, as the block-list kernel is priced; of
            // a member list it is what the §5 model prices, exactly so
            // for members of one block length and word
            PlanKind::Blocks(bl) => bl.blocks.len(),
            PlanKind::Multi(members) => member_blocks(members),
        };
        (self.size as usize / runs.max(1)).max(1)
    }

    /// The length all of this plan's contiguous runs share, if they share
    /// one: every strided plan's, a block or member list's of equal runs.
    /// The run cut ships them as they lie.
    pub(crate) fn run(&self) -> Option<usize> {
        /// The one length `len` gives every run, if there is one.
        fn shared<T>(runs: &[T], len: impl Fn(&T) -> i64) -> Option<i64> {
            let first = len(runs.first()?);
            runs.iter().all(|r| len(r) == first).then_some(first)
        }
        let len = match &self.kind {
            PlanKind::Strided(kp) => kp.sb.block_bytes(),
            PlanKind::Blocks(bl) => shared(&bl.blocks, |b| b.1 as i64)?,
            PlanKind::Multi(members) => shared(members, |m| m.counts[0])?,
            PlanKind::Empty | PlanKind::Fallback(_) => return None,
        };
        usize::try_from(len).ok().filter(|&len| len > 0)
    }

    /// Selected word size (the narrowest of a member list's; 1 for other
    /// non-strided plans).
    pub fn word(&self) -> usize {
        match &self.kind {
            PlanKind::Strided(kp) => kp.word,
            PlanKind::Multi(members) => members.iter().map(|m| m.word as usize).min().unwrap_or(1),
            _ => 1,
        }
    }

    /// Is this plan handled by a single plain copy?
    pub fn is_contiguous(&self) -> bool {
        matches!(&self.kind, PlanKind::Strided(kp) if kp.kind == KernelKind::Memcpy1D)
    }

    /// `count` items at `buf` of `dt`, the datatype this plan was committed
    /// for, as the kernels take them. The transfer's size and its last
    /// item's offsets are checked here, once: the count is the caller's,
    /// and a number that does not fit is an [`MpiError::InvalidArg`] before
    /// any byte moves, never a wrapped one.
    pub(crate) fn typed(&self, buf: GpuPtr, count: usize, dt: Datatype) -> MpiResult<Typed> {
        check_item_offsets(count, self.extent, reach(&self.kind))?;
        Ok(Typed {
            buf,
            count,
            dt,
            extent: self.extent,
            bytes: transfer_bytes(self.size as usize, count)?,
        })
    }

    /// The whole items among the first `len` packed bytes of `x`.
    pub(crate) fn items_of(&self, x: Typed, len: usize) -> Typed {
        let count = len.checked_div(self.size as usize).unwrap_or(0);
        Typed {
            count,
            bytes: count * self.size as usize,
            ..x
        }
    }

    /// Does TEMPI move `x` itself rather than hand it to the system MPI?
    /// Only non-empty, non-contiguous device data with a kernel plan: the
    /// system MPI already sends contiguous bytes well.
    pub(crate) fn accelerates(&self, x: Typed) -> bool {
        x.buf.space == MemSpace::Device
            && x.bytes > 0
            && !matches!(self.kind, PlanKind::Empty | PlanKind::Fallback(_))
            && !(self.is_contiguous() && (x.count <= 1 || self.size as i64 == self.extent))
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
    fn contents(
        &mut self,
        dt: Datatype,
        integers: &mut [i64],
        addresses: &mut [i64],
        datatypes: &mut [Datatype],
    ) -> MpiResult<()> {
        self.calls += 1;
        self.inner.contents(dt, integers, addresses, datatypes)
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

/// The commit state of one rank: the plans it holds and what committing
/// reuses — the translation's scratch, and up to [`PLAN_SPARES`] dead
/// plans as storage for new ones.
#[derive(Debug, Default)]
pub(crate) struct Commits {
    /// Committed plans, one per registry slot: the handle that committed
    /// it and its plan. A slot's next occupant has another generation, so
    /// its handle misses here and its commit replaces the dead plan.
    slots: HashMap<usize, (Datatype, Arc<TypePlan>)>,
    /// Every plan a slot holds, once, with the number of slots holding it.
    interned: HashMap<Arc<TypePlan>, Cell<usize>>,
    /// Plans no slot holds any more, newest last, at most
    /// [`PLAN_SPARES`]: not interned, only storage that a new plan is
    /// written over once its `Arc` is unique — a caller may still hold a
    /// plan `type_commit` returned.
    spares: Vec<Arc<TypePlan>>,
    /// Slots held when [`Commits::sweep`] last ran.
    swept: usize,
    /// What translation has already paid MPI to learn about the predefined
    /// handles; a commit asks only about the derived types it is given.
    named: NamedMemo,
    /// Translation's storage, kept from one commit to the next.
    scratch: Scratch,
}

impl Commits {
    /// The plan `dt` committed to, if `dt` itself holds its slot's entry.
    pub(crate) fn plan(&self, dt: Datatype) -> Option<Arc<TypePlan>> {
        let (held, plan) = self.slots.get(&dt.slot())?;
        (*held == dt).then(|| Arc::clone(plan))
    }

    /// Plans held: at most one per registry slot a commit has used.
    pub(crate) fn cached(&self) -> usize {
        self.slots.len()
    }

    /// Distinct plans held.
    pub(crate) fn interned(&self) -> usize {
        self.interned.len()
    }

    /// Drop `dt`'s plan, the interposed `MPI_Type_free` having freed it.
    pub(crate) fn free(&mut self, dt: Datatype) {
        if let Some(plan) = self.plan(dt) {
            self.slots.remove(&dt.slot());
            release(&mut self.interned, &mut self.spares, plan);
        }
    }

    /// The commit of `dt` past the plan lookup: the native commit, then
    /// translation → canonicalization → kernel selection, each a span.
    pub(crate) fn commit(
        &mut self,
        ctx: &mut RankCtx,
        dt: Datatype,
        config: &TempiConfig,
    ) -> MpiResult<Arc<TypePlan>> {
        let t0 = ctx.clock.now();
        ctx.type_commit_native(dt)?;

        let t_tr = ctx.clock.now();
        let mut intro = MemoIntrospect::new(ctx, &mut self.named);
        let shape = self.scratch.translate(&mut intro, dt)?;
        let introspection_calls = intro.calls;
        phase(ctx, "translate", t_tr, || {
            vec![("introspection_calls", introspection_calls.into())]
        });
        self.plan_of(ctx, dt, shape, config, t0, introspection_calls)
    }

    /// The rest of [`Commits::commit`], begun at `t0`, once `dt` translated
    /// to `shape` with `introspection_calls`: canonicalization and kernel
    /// selection, then the plan, held. (Out of the frame the translation
    /// runs beneath, which is a rank's fiber stack.)
    fn plan_of(
        &mut self,
        ctx: &mut RankCtx,
        dt: Datatype,
        shape: Shape,
        config: &TempiConfig,
        t0: SimTime,
        introspection_calls: u64,
    ) -> MpiResult<Arc<TypePlan>> {
        // the plan is built on the scratch's lists: a whole translation
        // lies from their start
        let (s, force_word) = (&mut self.scratch, config.force_word);
        let (kind, passes, nodes_before, nodes_after) = match shape {
            Shape::Empty => (PlanKind::Empty, 0, 0, 0),
            Shape::Blocks(_) => {
                let blocks = std::mem::take(&mut s.blocks);
                let n = blocks.len();
                (PlanKind::Blocks(BlockList { blocks }), 0, n, n)
            }
            Shape::Multi(_) => {
                select_members(&mut s.members, force_word);
                let n = s.members.len();
                (PlanKind::Multi(std::mem::take(&mut s.members)), 0, n, n)
            }
            Shape::Unsupported(c) => (PlanKind::Fallback(c), 0, 0, 0),
            Shape::Strided => {
                let nodes_before = s.chain.node_count();
                let t_canon = ctx.clock.now();
                let passes = match config.canonicalize {
                    true => s.simplify_chain(),
                    false => 0,
                };
                let nodes_after = s.chain.node_count();
                ctx.clock
                    .advance(CANON_NODE_COST * (nodes_before * (passes + 1)) as u64);
                phase(ctx, "canonicalize", t_canon, || {
                    vec![
                        ("passes", passes.into()),
                        ("nodes_before", nodes_before.into()),
                        ("nodes_after", nodes_after.into()),
                    ]
                });
                let kind = match strided_block_into(&s.chain, &mut s.sb) {
                    true => {
                        let kp = select_kernel(std::mem::take(&mut s.sb), force_word);
                        ctx.tracer.debug_instant(
                            ctx.world_rank as u32,
                            LANE_CPU,
                            "tempi",
                            "kernel_select",
                            ctx.clock.now().as_ps(),
                            || {
                                vec![
                                    ("kind", format!("{:?}", kp.kind).into()),
                                    ("word", kp.word.into()),
                                ]
                            },
                        );
                        PlanKind::Strided(kp)
                    }
                    false => PlanKind::Fallback(ctx.combiner(dt)?),
                };
                (kind, passes, nodes_before, nodes_after)
            }
        };
        let attrs = ctx.attrs(dt)?;
        let grows = !self.slots.contains_key(&dt.slot());
        if grows && self.slots.len() >= 2 * self.swept.max(4) {
            self.sweep(ctx);
        }
        Ok(self.hold(
            dt,
            TypePlan {
                kind,
                size: attrs.size,
                extent: attrs.extent(),
                report: CommitReport {
                    introspection_calls,
                    simplify_passes: passes,
                    nodes_before,
                    nodes_after,
                    commit_time: ctx.clock.now() - t0,
                },
            },
        ))
    }

    /// Make `plan`, interned, `dt`'s: the plan of `dt`'s slot, whose dead
    /// occupant's plan loses a user. A slot's entry is replaced in place,
    /// as a map insert may make room for a key it then finds.
    pub(crate) fn hold(&mut self, dt: Datatype, plan: TypePlan) -> Arc<TypePlan> {
        let plan = self.intern(plan);
        let held = (dt, Arc::clone(&plan));
        match self.slots.get_mut(&dt.slot()) {
            Some(entry) => {
                let dead = std::mem::replace(entry, held).1;
                release(&mut self.interned, &mut self.spares, dead);
            }
            None => drop(self.slots.insert(dt.slot(), held)),
        }
        plan
    }

    /// The interned plan equal to `plan`, with one more user: the one
    /// held, whereupon `plan`'s lists go back to the scratch, or else
    /// `plan` itself, which keeps them, written over a spare whose lists
    /// go back to the scratch instead (in a new `Arc` when no spare is
    /// free).
    fn intern(&mut self, plan: TypePlan) -> Arc<TypePlan> {
        let Some((kept, users)) = self.interned.get_key_value(&plan) else {
            let kept = self.respare(plan);
            self.interned.insert(Arc::clone(&kept), Cell::new(1));
            return kept;
        };
        users.set(users.get() + 1);
        let kept = Arc::clone(kept);
        restore(&mut self.scratch, plan.kind);
        kept
    }

    /// `plan` in the storage of the newest spare no caller holds, of its
    /// kind if there is one, else in a new `Arc`.
    fn respare(&mut self, plan: TypePlan) -> Arc<TypePlan> {
        let kind = std::mem::discriminant(&plan.kind);
        // the kind of a spare no caller holds
        let unshared =
            |s: &mut Arc<TypePlan>| Arc::get_mut(s).map(|s| std::mem::discriminant(&s.kind));
        let spares = &mut self.spares;
        let Some(at) = (spares.iter_mut().rposition(|s| unshared(s) == Some(kind)))
            .or_else(|| spares.iter_mut().rposition(|s| unshared(s).is_some()))
        else {
            return Arc::new(plan);
        };
        let mut spare = spares.remove(at);
        let dead = Arc::get_mut(&mut spare).expect("a spare no caller holds");
        restore(&mut self.scratch, std::mem::replace(dead, plan).kind);
        spare
    }

    /// Drop the plans of the handles MPI no longer knows. A type freed
    /// behind the library's back keeps its plan until its slot's next
    /// occupant commits, and a slot whose generations MPI has used up has
    /// none: so a commit that would add a slot to a table that has doubled
    /// since the last sweep (or holds 8) sweeps it first, and the table
    /// never holds more than twice the live plans that sweep found.
    fn sweep(&mut self, ctx: &RankCtx) {
        let Commits {
            slots,
            interned,
            spares,
            swept,
            ..
        } = self;
        slots.retain(|_, (held, plan)| {
            let live = ctx.is_committed(*held).is_ok();
            if !live {
                release(interned, spares, Arc::clone(plan));
            }
            live
        });
        *swept = slots.len();
    }
}

/// Hand the lists of `kind`, a plan's that is done with them, back to the
/// scratch they were taken from.
fn restore(s: &mut Scratch, kind: PlanKind) {
    match kind {
        PlanKind::Strided(kp) => s.sb = kp.sb,
        PlanKind::Blocks(bl) => s.blocks = bl.blocks,
        PlanKind::Multi(members) => s.members = members,
        PlanKind::Empty | PlanKind::Fallback(_) => {}
    }
}

/// One user of `plan` fewer in `interned`; the last takes it out, to the
/// newest of `spares`.
fn release(
    interned: &mut HashMap<Arc<TypePlan>, Cell<usize>>,
    spares: &mut Vec<Arc<TypePlan>>,
    plan: Arc<TypePlan>,
) {
    let Some(users) = interned.get(&plan) else {
        return;
    };
    users.set(users.get() - 1);
    if users.get() == 0 {
        interned.remove(&plan);
        if spares.len() == PLAN_SPARES {
            spares.remove(0);
        }
        spares.push(plan);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::translate::translate;
    use mpi_sim::consts::*;
    use mpi_sim::WorldConfig;

    #[test]
    fn memo_counts_only_the_calls_it_forwards() {
        let mut ctx = RankCtx::standalone(&WorldConfig::summit(1));
        let mut memo = NamedMemo::default();
        let dt = ctx.type_vector(4, 2, 8, MPI_FLOAT).unwrap();
        let mut m = MemoIntrospect::new(&mut ctx, &mut memo);
        let first = translate(&mut m, dt).unwrap();
        // vector: envelope + contents + extent(old); child: envelope, and
        // its extent is already known
        assert_eq!(m.calls, 4);
        // a second translation asks about the vector only, and sees the
        // same type
        let mut m = MemoIntrospect::new(&mut ctx, &mut memo);
        assert_eq!(translate(&mut m, dt).unwrap(), first);
        assert_eq!(m.calls, 2);
        // what was learnt about MPI_FLOAT says nothing about MPI_DOUBLE
        let mut m = MemoIntrospect::new(&mut ctx, &mut memo);
        assert_eq!(m.extent(MPI_DOUBLE).unwrap(), (0, 8));
        assert_eq!(m.extent(MPI_DOUBLE).unwrap(), (0, 8));
        assert_eq!(m.envelope(MPI_DOUBLE).unwrap().combiner, Combiner::Named);
        assert_eq!(m.calls, 2);
        // a derived handle is asked about every time
        assert_eq!(m.extent(dt).unwrap(), m.extent(dt).unwrap());
        assert_eq!(m.calls, 4);
    }

    #[test]
    fn a_plan_a_caller_holds_keeps_its_value_and_its_storage() {
        let mut ctx = RankCtx::standalone(&WorldConfig::summit(1));
        let (mut commits, config) = (Commits::default(), TempiConfig::default());
        let mut cycle = |commits: &mut Commits, stride: i32| {
            let dt = ctx.type_vector(2, 1, stride, MPI_BYTE).unwrap();
            let plan = commits.commit(&mut ctx, dt, &config).unwrap();
            ctx.type_free(dt).unwrap();
            commits.free(dt);
            plan
        };
        // a dead plan its caller still holds is a spare, but no new plan
        // is written over it while it is shared
        let held = cycle(&mut commits, 3);
        let value = TypePlan::clone(&held);
        for stride in 4..4 + 3 * PLAN_SPARES as i32 {
            let plan = cycle(&mut commits, stride);
            assert!(!Arc::ptr_eq(&plan, &held), "stride {stride}");
            assert_eq!(*held, value, "stride {stride}");
            assert_eq!(commits.interned(), 0);
        }
        // a spare no caller holds is the next new plan's storage
        let at = Arc::as_ptr(&cycle(&mut commits, 100));
        let plan = cycle(&mut commits, 101);
        assert_eq!(Arc::as_ptr(&plan), at);
        assert_ne!(*plan, value);
    }
}
