//! Kernel selection and execution (paper §3.3).
//!
//! After canonicalization, each MPI datatype maps to **one of two kernel
//! implementations parameterized by a word size `W`** (plus the trivial
//! `cudaMemcpyAsync` path for 1-D objects, the block-list kernel for the
//! indexed-family extension, and the member-list kernel for a struct of
//! strided members — the strided kernel's loop nest once per member, each
//! member with its own `W`):
//!
//! * the word size `W` is "the largest GPU-native type that is both
//!   aligned to the object and is a factor of `count[0]`";
//! * thread-block dimensions are "filled from X to Z by the largest power
//!   of two that encompasses the structure", capped at 1024 threads;
//! * the grid covers the whole object, with the dynamic `incount`
//!   repetition folded into the grid's Z extent;
//! * no object metadata is stored on the GPU — kernel parameters are the
//!   scalar values of the [`StridedBlock`].
//!
//! Execution has one entry, `execute`: the dispatch from what a type
//! committed to ([`PlanKind`]) to the plain copy, the strided kernel, the
//! block-list kernel or the member-list kernel. It keeps nothing between
//! calls: several contiguous items with padding are one more stride
//! dimension, worked out per call as one inline [`Member`] for the
//! member-list kernel. Every kernel — those three, and the block-range
//! kernel of the pipelined path (`execute_range`) — is the same walk
//! of the typed buffer's runs against a packed cursor (`walk`); a kernel
//! supplies its runs as rows of equal runs (its Y dimension), its price
//! and its launch geometry. The CPU copy path (`execute_on_host`, and
//! `execute_range` under a host rule) is that walk again, in host code.

use std::ops::Range;

use gpu_sim::{
    div_ceil, next_pow2, CopyRule, Dim3, GpuError, GpuPtr, GpuResult, LaunchConfig, MemSpace,
    Memory, PackDir, PackTarget, SimClock, SimTime, Stream,
};
use mpi_sim::{Combiner, Datatype, MpiError, MpiResult, RankCtx};

use crate::ir::strided_block::{Member, StridedBlock};
use crate::ir::BlockList;

/// Which implementation a committed type selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// 1-D (contiguous): a single `cudaMemcpyAsync` + synchronize.
    Memcpy1D,
    /// 2-D strided kernel (X → `counts[0]`, Y → `counts[1]`).
    Pack2D,
    /// 3-D strided kernel (X, Y, Z → `counts[0..3]`).
    Pack3D,
    /// Higher-dimensional objects: the 3-D kernel with outer loops.
    PackND,
}

/// A committed type's kernel parameterization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelPlan {
    /// The canonical strided object.
    pub sb: StridedBlock,
    /// Selected word size `W` in bytes (1, 2, 4, 8, or 16).
    pub word: usize,
    /// Thread-block geometry.
    pub block: Dim3,
    /// Which kernel implementation.
    pub kind: KernelKind,
}

/// What a committed type resolved to.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanKind {
    /// The type denotes no bytes.
    Empty,
    /// A (possibly 1-D) strided object with a selected kernel.
    Strided(KernelPlan),
    /// An irregular block list (indexed-family extension).
    Blocks(BlockList),
    /// A struct's strided members, each with its selected word: one kernel
    /// whose parameters are the list.
    Multi(Vec<Member>),
    /// Not accelerated; operations fall through to the system MPI.
    Fallback(Combiner),
}

/// The typed side of one transfer, as an MPI call names it and a kernel
/// reads it: `count` items of `dt` at `buf`, `extent` bytes apart, `bytes`
/// of them packed. Built by `TypePlan::typed`, which checks the size.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Typed {
    /// The typed buffer.
    pub(crate) buf: GpuPtr,
    /// How many items of the datatype.
    pub(crate) count: usize,
    /// The datatype handle.
    pub(crate) dt: Datatype,
    /// `MPI_Type_get_extent` extent: the spacing of the items.
    pub(crate) extent: i64,
    /// Packed size of all `count` items.
    pub(crate) bytes: usize,
}

impl Typed {
    /// This buffer's items, each laid out as `layout`.
    fn items<L: ?Sized>(self, layout: &L) -> Items<'_, L> {
        Items {
            layout,
            extent: self.extent,
            count: self.count,
        }
    }
}

/// Largest GPU-native word (16, 8, 4, 2, 1 bytes) that divides the block
/// length, the start offset, and every stride — i.e. is "aligned to the
/// object and a factor of `count[0]`".
pub fn select_word(sb: &StridedBlock) -> usize {
    widest_word(sb.start | sb.block_bytes(), &sb.strides[1..])
}

/// The largest word that divides `aligned` — several numbers or-ed into
/// one: a power of two divides them all exactly if it divides that — and
/// every stride.
fn widest_word(aligned: i64, strides: &[i64]) -> usize {
    let bits = strides.iter().fold(aligned, |bits, stride| bits | stride);
    1 << bits.trailing_zeros().min(4)
}

/// Select every member's word, `force_word` as in [`select_kernel`]: the
/// widest its strided side allows that its place among the packed bytes —
/// after the members before it, in every item of a transfer — is aligned
/// to as well.
pub fn select_members(members: &mut [Member], force_word: Option<usize>) {
    let (size, mut packed): (i64, i64) = (members.iter().map(Member::data_bytes).sum(), 0);
    for m in members {
        let word = widest_word(m.start | m.counts[0] | packed | size, &m.strides[1..]);
        m.word = force_word.unwrap_or(word) as u8;
        packed += m.data_bytes();
    }
}

/// Paper §3.3 block-dimension rule: fill X→Z with covering powers of two
/// under the 1024-thread (and 64-in-Z) limits.
pub fn select_block_dims(sb: &StridedBlock, word: usize) -> Dim3 {
    let x_work = div_ceil(sb.block_bytes() as u64, word as u64);
    let bx = next_pow2(x_work).min(1024) as u32;
    let mut budget = 1024 / bx.max(1);
    let by = if sb.ndims() >= 2 {
        (next_pow2(sb.counts[1] as u64) as u32).clamp(1, budget.max(1))
    } else {
        1
    };
    budget /= by.max(1);
    let bz = if sb.ndims() >= 3 {
        (next_pow2(sb.counts[2] as u64) as u32).clamp(1, budget.clamp(1, 64))
    } else {
        1
    };
    Dim3::new(bx.max(1), by, bz)
}

/// Build the full plan for a canonical strided object. `force_word`
/// supports the word-size ablation.
pub fn select_kernel(sb: StridedBlock, force_word: Option<usize>) -> KernelPlan {
    let word = force_word.unwrap_or_else(|| select_word(&sb));
    let block = select_block_dims(&sb, word);
    let kind = match sb.ndims() {
        1 => KernelKind::Memcpy1D,
        2 => KernelKind::Pack2D,
        3 => KernelKind::Pack3D,
        _ => KernelKind::PackND,
    };
    KernelPlan {
        sb,
        word,
        block,
        kind,
    }
}

impl KernelPlan {
    /// Grid geometry covering `incount` repetitions of the object.
    pub fn grid_for(&self, incount: usize) -> Dim3 {
        let gx = div_ceil(
            div_ceil(self.sb.block_bytes() as u64, self.word as u64),
            self.block.x as u64,
        )
        .clamp(1, 2_147_483_647) as u32;
        let gy = if self.sb.ndims() >= 2 {
            div_ceil(self.sb.counts[1] as u64, self.block.y as u64).clamp(1, 65_535) as u32
        } else {
            1
        };
        let inner_z = if self.sb.ndims() >= 3 {
            div_ceil(self.sb.counts[2] as u64, self.block.z as u64).max(1)
        } else {
            1
        };
        let gz = (inner_z * incount.max(1) as u64).clamp(1, 65_535) as u32;
        Dim3::new(gx, gy, gz)
    }

    /// Launch geometry for `incount` repetitions.
    pub fn launch_config(&self, incount: usize) -> LaunchConfig {
        LaunchConfig {
            grid: self.grid_for(incount),
            block: self.block,
        }
    }

    /// On-GPU time of one strided kernel moving `total` bytes of this
    /// object between `strided` and the packed bytes at `packed`.
    fn price(
        &self,
        stream: &Stream,
        dir: PackDir,
        strided: GpuPtr,
        packed: GpuPtr,
        total: usize,
    ) -> SimTime {
        stream.cost_model().pack_kernel_time_dims(
            dir,
            target_for(strided.space, packed.space),
            total,
            self.sb.block_bytes() as usize,
            effective_word(self.word, strided, packed),
            self.sb.ndims(),
        )
    }
}

/// Degrade the static word size to what the actual buffer alignments
/// permit (pointers are only known at pack time).
pub fn effective_word(plan_word: usize, a: GpuPtr, b: GpuPtr) -> usize {
    let mut w = plan_word;
    while w > 1 && (a.alignment() % w != 0 || b.alignment() % w != 0) {
        w /= 2;
    }
    w
}

/// Classify the pack target from the packed-side (contiguous) location:
/// device global memory → the "device" method rates; any host-side space →
/// the "one-shot" interconnect rates.
pub fn target_for(strided_space: MemSpace, packed_space: MemSpace) -> PackTarget {
    if strided_space.on_host() || packed_space.on_host() {
        PackTarget::MappedHost
    } else {
        PackTarget::Device
    }
}

fn ptr_at(p: GpuPtr, off: i64) -> MpiResult<GpuPtr> {
    p.offset_by(off).ok_or_else(|| {
        MpiError::InvalidArg(format!("datatype reaches {off} bytes before buffer start"))
    })
}

/// `count` runs of `len` bytes of a typed buffer, the first at offset
/// `off`, each `stride` bytes after the one before: a row of the kernels'
/// Y dimension (paper §3.3), the unit every byte-moving walk hands over.
#[derive(Debug, Clone, Copy)]
struct Row {
    off: i64,
    len: usize,
    count: usize,
    stride: i64,
}

impl Row {
    /// A row of `n` runs of `len` bytes from `off`, `stride` apart.
    fn of(off: i64, len: i64, (n, stride): (i64, i64)) -> Row {
        Row {
            off,
            len: len as usize,
            count: n as usize,
            stride,
        }
    }

    /// Its runs' offsets, in order.
    fn offsets(self) -> impl Iterator<Item = i64> {
        (0..self.count as i64).map(move |k| self.off + k * self.stride)
    }
}

/// The contiguous runs of a typed buffer, in packed order, as rows.
trait Runs {
    /// Hand `sink` every row, in packed order.
    fn for_each_row(&self, sink: impl FnMut(Row));
}

/// `count` objects of one layout, `extent` bytes apart.
struct Items<'a, L: ?Sized> {
    layout: &'a L,
    extent: i64,
    count: usize,
}

impl Runs for Items<'_, StridedBlock> {
    fn for_each_row(&self, mut sink: impl FnMut(Row)) {
        let (len, row) = (self.layout.block_bytes(), self.layout.row());
        for item in 0..self.count {
            let base = item as i64 * self.extent;
            self.layout
                .for_each_row(|off| sink(Row::of(base + off, len, row)));
        }
    }
}

impl Runs for Items<'_, BlockList> {
    fn for_each_row(&self, mut sink: impl FnMut(Row)) {
        for item in 0..self.count {
            let base = item as i64 * self.extent;
            for &(off, len) in &self.layout.blocks {
                sink(Row::of(base + off, len as i64, (1, 0)));
            }
        }
    }
}

/// The contiguous blocks of one item of a member list.
pub(crate) fn member_blocks(members: &[Member]) -> usize {
    members.iter().map(Member::block_count).sum::<i64>() as usize
}

impl Runs for Items<'_, [Member]> {
    fn for_each_row(&self, mut sink: impl FnMut(Row)) {
        for item in 0..self.count {
            let base = item as i64 * self.extent;
            for m in self.layout {
                let (len, row) = (m.counts[0], (m.counts[1], m.strides[1]));
                m.for_each_row(|off| sink(Row::of(base + off, len, row)));
            }
        }
    }
}

/// Hand `sink` the offset of every run of `x` under `plan`, in packed order:
/// what the run cut ships (a plan with no kernel has no runs to hand).
pub(crate) fn for_each_run(plan: &PlanKind, x: Typed, mut sink: impl FnMut(i64)) {
    let mut at = |row: Row| row.offsets().for_each(&mut sink);
    match plan {
        PlanKind::Strided(kp) => x.items(&kp.sb).for_each_row(&mut at),
        PlanKind::Blocks(bl) => x.items(bl).for_each_row(&mut at),
        PlanKind::Multi(members) => x.items(members.as_slice()).for_each_row(&mut at),
        PlanKind::Empty | PlanKind::Fallback(_) => {}
    }
}

/// Where one item's runs under `plan` lie from its origin: the lowest byte
/// and one past the highest, or `(0, 0)`. Saturating: commit checked the
/// offsets; this only bounds what an item's base is added to.
pub(crate) fn reach(plan: &PlanKind) -> (i64, i64) {
    let span = |start: i64, counts: &[i64], strides: &[i64]| {
        (1..counts.len()).fold((start, start.saturating_add(counts[0])), |(lo, hi), d| {
            let far = (counts[d] - 1).saturating_mul(strides[d]);
            (lo.saturating_add(far.min(0)), hi.saturating_add(far.max(0)))
        })
    };
    let (mut lo, mut hi) = (0, 0);
    let mut widen = |(l, h): (i64, i64)| (lo, hi) = (lo.min(l), hi.max(h));
    match plan {
        PlanKind::Strided(kp) => widen(span(kp.sb.start, &kp.sb.counts, &kp.sb.strides)),
        PlanKind::Blocks(bl) => {
            (bl.blocks.iter()).for_each(|&(o, l)| widen((o, o.saturating_add(l as i64))))
        }
        PlanKind::Multi(ms) => {
            (ms.iter()).for_each(|m| widen(span(m.start, &m.counts, &m.strides)))
        }
        PlanKind::Empty | PlanKind::Fallback(_) => {}
    }
    (lo, hi)
}

/// The blocks `blocks` of a stream of strided objects `extent` apart, the
/// blocks of all its items numbered globally.
struct BlockRange<'a> {
    sb: &'a StridedBlock,
    extent: i64,
    blocks: Range<i64>,
}

impl Runs for BlockRange<'_> {
    /// The range cut at row edges: the first and last rows may be partial,
    /// and each row's place is one mixed-radix decomposition of its index.
    fn for_each_row(&self, mut sink: impl FnMut(Row)) {
        let (len, (per_row, stride)) = (self.sb.block_bytes(), self.sb.row());
        let Range { start: mut b, end } = self.blocks;
        if b >= end {
            return;
        }
        let rows_per_item = self.sb.block_count() / per_row;
        while b < end {
            let (row, first) = (b / per_row, b % per_row);
            let (item, r) = (row / rows_per_item, row % rows_per_item);
            let off = item * self.extent + self.sb.row_offset(r) + first * stride;
            let n = (per_row - first).min(end - b);
            sink(Row::of(off, len, (n, stride)));
            b += n;
        }
    }
}

/// The one run-walking body every pack/unpack shares: a cursor through the
/// packed bytes from `packed`, advanced row by row of the typed buffer
/// `strided`, the two allocations looked up once for the whole walk. A row
/// of several runs that fits wholly moves under one check
/// (`Copier::copy_row`); any other row moves run by run (a lone run costs
/// less so than under a row's check), so which side of a run is the
/// source is `dir`'s business, a run that reaches before the typed buffer
/// is out of bounds, and the first fault ends the walk (the run visitors
/// cannot stop early, so later runs are counted and skipped, not moved).
/// `rule` is a kernel's device code, or the host code's that no address
/// space refuses. Returns the number of runs.
fn walk(
    mem: &mut Memory,
    rule: CopyRule,
    dir: PackDir,
    strided: GpuPtr,
    packed: GpuPtr,
    runs: &impl Runs,
) -> GpuResult<usize> {
    let (dst, src) = dir.ends(strided, packed);
    let mut copier = mem.copier(rule, dst, src);
    let mut fault = Ok(());
    let (mut pos, mut n) = (packed.offset, 0);
    runs.for_each_row(|row| {
        n += row.count;
        if fault.is_err() {
            return;
        }
        let at = strided.offset as i64 + row.off;
        let (dst, src) = dir.ends((at, row.stride), (pos as i64, row.len as i64));
        if row.count > 1 && copier.copy_row(dst, src, row.len, row.count) {
            pos += row.len * row.count;
            return;
        }
        for off in row.offsets() {
            let Some(s) = strided.offset_by(off) else {
                fault = Err(GpuError::OutOfBounds {
                    alloc: strided.alloc_id(),
                    offset: 0,
                    len: row.len,
                    size: 0,
                });
                return;
            };
            let (dst, src) = dir.ends(s.offset, pos);
            fault = copier.copy(dst, src, row.len);
            if fault.is_err() {
                return;
            }
            pos += row.len;
        }
    });
    fault.map(|()| n)
}

/// `pack` or `unpack`, as `dir` says.
fn by_dir<T>(dir: PackDir, pack: T, unpack: T) -> T {
    match dir {
        PackDir::Pack => pack,
        PackDir::Unpack => unpack,
    }
}

/// What a kernel supplies besides its runs.
struct Launch<'a> {
    name: &'static str,
    cfg: LaunchConfig,
    cost: SimTime,
    /// What the kernel's trace event says besides its geometry.
    args: &'a [(&'static str, u64)],
}

/// One warp per block, 256 threads per thread-block.
fn warp_per_block(nblocks: u64) -> LaunchConfig {
    LaunchConfig {
        grid: Dim3::new(div_ceil(nblocks * 32, 256).clamp(1, 65_535) as u32, 1, 1),
        block: Dim3::new(256, 1, 1),
    }
}

/// Launch one kernel whose body walks `runs` between `strided` and the
/// packed bytes at `packed`. Does not synchronize.
fn launch(
    stream: &mut Stream,
    clock: &mut SimClock,
    dir: PackDir,
    l: Launch<'_>,
    strided: GpuPtr,
    packed: GpuPtr,
    runs: &impl Runs,
) -> MpiResult<()> {
    let body = |mem: &mut Memory| walk(mem, CopyRule::Kernel, dir, strided, packed, runs).map(drop);
    stream
        .launch_args(clock, l.name, l.cfg, l.cost, l.args, body)
        .map_err(MpiError::Gpu)
}

/// Execute the strided pack/unpack kernel: one launch + synchronize moving
/// `incount` objects between the strided buffer (`strided`, items
/// `item_extent` bytes apart) and the packed buffer (`packed`, starting at
/// `packed_off`). Returns the number of bytes moved.
#[allow(clippy::too_many_arguments)]
pub fn execute_strided(
    plan: &KernelPlan,
    stream: &mut Stream,
    clock: &mut SimClock,
    dir: PackDir,
    strided: GpuPtr,
    item_extent: i64,
    incount: usize,
    packed: GpuPtr,
    packed_off: usize,
) -> MpiResult<usize> {
    let total = (plan.sb.data_bytes() as usize) * incount;
    let packed = packed.add(packed_off);
    let l = Launch {
        name: match plan.kind {
            KernelKind::Pack2D => by_dir(dir, "tempi_pack_2d", "tempi_unpack_2d"),
            KernelKind::Pack3D => by_dir(dir, "tempi_pack_3d", "tempi_unpack_3d"),
            _ => by_dir(dir, "tempi_pack_nd", "tempi_unpack_nd"),
        },
        cfg: plan.launch_config(incount),
        cost: plan.price(stream, dir, strided, packed, total),
        args: &[],
    };
    let runs = Items {
        layout: &plan.sb,
        extent: item_extent,
        count: incount,
    };
    launch(stream, clock, dir, l, strided, packed, &runs)?;
    stream.synchronize(clock);
    Ok(total)
}

/// Move the contiguous range `blocks` of block indices of `x`'s object
/// stream (blocks of all its items numbered globally) against the packed
/// bytes at `packed`, under `rule`: [`CopyRule::Kernel`] launches one
/// *asynchronous* kernel and does **not** synchronize — the pipelined send
/// path (paper §8) overlaps these launches with wire transfers and joins at
/// the end; any other rule is host code, priced like the system MPI's host
/// pack, what a started pipelined transfer finishes its chunks on, on
/// either side, once a GPU fault took its kernels away.
pub(crate) fn execute_range(
    plan: &KernelPlan,
    ctx: &mut RankCtx,
    dir: PackDir,
    x: Typed,
    packed: GpuPtr,
    blocks: Range<i64>,
    rule: CopyRule,
) -> MpiResult<()> {
    let nblocks = (blocks.end - blocks.start) as u64;
    let total = plan.sb.block_bytes() as usize * nblocks as usize;
    let runs = BlockRange {
        sb: &plan.sb,
        extent: x.extent,
        blocks,
    };
    if rule != CopyRule::Kernel {
        let n = walk(&mut ctx.gpu.memory(), rule, dir, x.buf, packed, &runs)?;
        ctx.clock.advance(ctx.vendor.host_pack_time(total, n));
        return Ok(());
    }
    let l = Launch {
        name: by_dir(dir, "tempi_pack_range", "tempi_unpack_range"),
        cfg: warp_per_block(nblocks),
        cost: plan.price(&ctx.stream, dir, x.buf, packed, total),
        args: &[],
    };
    let (stream, clock) = (&mut ctx.stream, &mut ctx.clock);
    launch(stream, clock, dir, l, x.buf, packed, &runs)
}

/// Execute the block-list kernel for the indexed-family extension: one
/// launch moving `incount` repetitions of an irregular block list.
#[allow(clippy::too_many_arguments)]
pub fn execute_blocklist(
    blocks: &BlockList,
    stream: &mut Stream,
    clock: &mut SimClock,
    dir: PackDir,
    strided: GpuPtr,
    item_extent: i64,
    incount: usize,
    packed: GpuPtr,
    packed_off: usize,
) -> MpiResult<usize> {
    let total = blocks.data_bytes() as usize * incount;
    let nblocks = blocks.blocks.len().max(1) * incount.max(1);
    let l = Launch {
        name: by_dir(dir, "tempi_pack_blocklist", "tempi_unpack_blocklist"),
        cfg: warp_per_block(nblocks as u64),
        cost: stream.cost_model().pack_kernel_time(
            dir,
            target_for(strided.space, packed.space),
            total,
            (total / nblocks).max(1),
            1,
        ),
        args: &[],
    };
    let runs = Items {
        layout: blocks,
        extent: item_extent,
        count: incount,
    };
    launch(
        stream,
        clock,
        dir,
        l,
        strided,
        packed.add(packed_off),
        &runs,
    )?;
    stream.synchronize(clock);
    Ok(total)
}

/// The CPU copy path: `x`'s runs under `plan` moved by host code against
/// the packed bytes at `packed`, priced like the system MPI's host pack.
/// Host-resident data takes it, and so does a datatype whose kernel path
/// failed: it touches no GPU resource.
pub(crate) fn execute_on_host(
    ctx: &mut RankCtx,
    plan: &PlanKind,
    dir: PackDir,
    x: Typed,
    packed: GpuPtr,
) -> MpiResult<()> {
    let (mut mem, host) = (ctx.gpu.memory(), CopyRule::Backdoor);
    let runs = match plan {
        PlanKind::Strided(kp) => walk(&mut mem, host, dir, x.buf, packed, &x.items(&kp.sb))?,
        PlanKind::Blocks(bl) => walk(&mut mem, host, dir, x.buf, packed, &x.items(bl))?,
        PlanKind::Multi(ms) => walk(&mut mem, host, dir, x.buf, packed, &x.items(ms.as_slice()))?,
        PlanKind::Empty => 0,
        PlanKind::Fallback(_) => return Err(no_kernel()),
    };
    drop(mem);
    let t = ctx.vendor.host_pack_time(x.bytes, runs);
    ctx.clock.advance(t);
    Ok(())
}

/// A `Fallback` plan is the system MPI's: the library hands it over before
/// it reaches a kernel.
fn no_kernel() -> MpiError {
    MpiError::Internal("a fallback plan has no kernel to execute".to_string())
}

/// Kernel-path pack/unpack of `x` under `plan` between device-accessible
/// buffers, the packed bytes at `packed`: the whole object in one
/// synchronous launch-and-join. `force_word` as in [`select_kernel`], for
/// the one member derived here.
pub(crate) fn execute(
    ctx: &mut RankCtx,
    plan: &PlanKind,
    dir: PackDir,
    x: Typed,
    packed: GpuPtr,
    force_word: Option<usize>,
) -> MpiResult<()> {
    let (stream, clock) = (&mut ctx.stream, &mut ctx.clock);
    let (buf, extent) = (x.buf, x.extent);
    let mut padded = [Member::run(0, 0)];
    let (members, x) = match plan {
        PlanKind::Empty => return Ok(()),
        PlanKind::Strided(kp) if kp.kind == KernelKind::Memcpy1D => {
            // A contiguous object: "issue a single cudaMemcpyAsync …
            // followed by a cudaStreamSynchronize" (§3.3).
            if x.count <= 1 || kp.sb.block_bytes() == extent {
                let (dst, src) = dir.ends(ptr_at(buf, kp.sb.start)?, packed);
                stream
                    .memcpy_async(clock, dst, src, x.bytes)
                    .map_err(MpiError::Gpu)?;
                stream.synchronize(clock);
                return Ok(());
            }
            // Several items with padding: incount acts as an extra stride
            // dimension, handled dynamically (§3.3) — one member of `count`
            // runs `extent` apart, moved as one item.
            padded[0] = Member::of(&kp.sb, x.count as i64, extent, 0)
                .ok_or_else(|| MpiError::InvalidArg("item offsets overflow".to_string()))?;
            select_members(&mut padded, force_word);
            (&padded[..], Typed { count: 1, ..x })
        }
        PlanKind::Strided(kp) => {
            return execute_strided(kp, stream, clock, dir, buf, extent, x.count, packed, 0)
                .map(drop);
        }
        PlanKind::Blocks(bl) => {
            return execute_blocklist(bl, stream, clock, dir, buf, extent, x.count, packed, 0)
                .map(drop);
        }
        PlanKind::Multi(members) => (members.as_slice(), x),
        PlanKind::Fallback(_) => return Err(no_kernel()),
    };
    // One kernel whose parameters are the list: every member moves at the
    // rate its own block length, word and rank give it, the machine as
    // full as the whole transfer makes it.
    let parts = members.iter().map(|m| {
        let word = effective_word(m.word as usize, buf, packed);
        let bytes = m.data_bytes() as usize * x.count;
        (bytes, m.counts[0] as usize, word, m.ndims as usize)
    });
    let target = target_for(buf.space, packed.space);
    let cost = stream.cost_model();
    let l = Launch {
        name: by_dir(dir, "tempi_pack_multi", "tempi_unpack_multi"),
        cfg: warp_per_block((member_blocks(members) * x.count) as u64),
        cost: cost.pack_kernel_time_parts(dir, target, x.bytes, parts),
        args: &[("members", members.len() as u64), ("bytes", x.bytes as u64)],
    };
    launch(stream, clock, dir, l, buf, packed, &x.items(members))?;
    stream.synchronize(clock);
    Ok(())
}

/// The future-work DMA path (paper §8): pack a 2-D object with
/// `cudaMemcpy2DAsync` instead of a kernel. Only applicable to 2-D plans.
///
/// Nothing in the library calls this: measured against the kernel on the
/// virtual clock it loses on 62 of 70 shapes (by up to 520×) and wins only
/// for ≤ 64 rows of ≥ 64 KiB, so the configuration switch that selected it
/// is gone. It stays as the probe behind the repo benchmark's
/// `kernels.dma_host_ns_per_mib` row.
#[allow(clippy::too_many_arguments)]
pub fn execute_dma_2d(
    plan: &KernelPlan,
    stream: &mut Stream,
    clock: &mut SimClock,
    dir: PackDir,
    strided: GpuPtr,
    item_extent: i64,
    incount: usize,
    packed: GpuPtr,
    packed_off: usize,
) -> MpiResult<usize> {
    debug_assert_eq!(plan.sb.ndims(), 2);
    let width = plan.sb.block_bytes() as usize;
    let rows = plan.sb.counts[1] as usize;
    let pitch = plan.sb.strides[1] as usize;
    let mut moved = 0usize;
    for item in 0..incount {
        let s = ptr_at(strided, item as i64 * item_extent + plan.sb.start)?;
        let p = packed.add(packed_off + item * width * rows);
        let ((dst, dpitch), (src, spitch)) = dir.ends((s, pitch), (p, width));
        stream
            .memcpy_2d_async(clock, dst, dpitch, src, spitch, width, rows)
            .map_err(MpiError::Gpu)?;
        moved += width * rows;
    }
    stream.synchronize(clock);
    Ok(moved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{DeviceProps, GpuContext, GpuCostModel};

    fn sb2d() -> StridedBlock {
        StridedBlock {
            start: 0,
            counts: vec![100, 13],
            strides: vec![1, 256],
        }
    }

    fn sb3d() -> StridedBlock {
        StridedBlock {
            start: 0,
            counts: vec![100, 13, 47],
            strides: vec![1, 256, 131072],
        }
    }

    #[test]
    fn word_selection_respects_divisibility_and_alignment() {
        // 100-byte blocks: divisible by 4 (and 2), strides 256: by 16 → W=4
        assert_eq!(select_word(&sb2d()), 4);
        // 128-byte blocks, 256 strides → 16
        let sb = StridedBlock {
            start: 0,
            counts: vec![128, 4],
            strides: vec![1, 256],
        };
        assert_eq!(select_word(&sb), 16);
        // odd block → 1
        let sb = StridedBlock {
            start: 0,
            counts: vec![37, 4],
            strides: vec![1, 256],
        };
        assert_eq!(select_word(&sb), 1);
        // unaligned start degrades
        let sb = StridedBlock {
            start: 2,
            counts: vec![128, 4],
            strides: vec![1, 256],
        };
        assert_eq!(select_word(&sb), 2);
        // odd stride degrades
        let sb = StridedBlock {
            start: 0,
            counts: vec![128, 4],
            strides: vec![1, 255],
        };
        assert_eq!(select_word(&sb), 1);
    }

    #[test]
    fn block_dims_fill_x_to_z_with_pow2() {
        // 100 B / W=4 = 25 work items → 32 in x; 13 rows → 16 in y;
        // 47 planes → budget 1024/(32*16)=2 → z=2
        let plan = select_kernel(sb3d(), None);
        assert_eq!(plan.word, 4);
        assert_eq!(plan.block, Dim3::new(32, 16, 2));
        assert_eq!(plan.kind, KernelKind::Pack3D);
    }

    #[test]
    fn block_never_exceeds_1024_threads() {
        let sb = StridedBlock {
            start: 0,
            counts: vec![8192, 1024, 64],
            strides: vec![1, 16384, 1 << 24],
        };
        let plan = select_kernel(sb, None);
        let threads = plan.block.count();
        assert!(threads <= 1024, "{threads}");
        // W=16 → 512 x-work items fill x first; y gets the leftover budget
        assert_eq!(plan.word, 16);
        assert_eq!(plan.block, Dim3::new(512, 2, 1));
        // forcing W=1 pushes x to the 1024 cap
        let plan1 = select_kernel(
            StridedBlock {
                start: 0,
                counts: vec![8192, 1024, 64],
                strides: vec![1, 16384, 1 << 24],
            },
            Some(1),
        );
        assert_eq!(plan1.block, Dim3::new(1024, 1, 1));
    }

    #[test]
    fn grid_covers_object_and_incount() {
        let plan = select_kernel(sb3d(), None);
        let g = plan.grid_for(2);
        // x: ceil(25/32)=1; y: ceil(13/16)=1; z: ceil(47/2)=24 × incount 2
        assert_eq!(g, Dim3::new(1, 1, 48));
        let cfg = plan.launch_config(2);
        DeviceProps::v100()
            .validate_launch(cfg.grid, cfg.block)
            .unwrap();
    }

    #[test]
    fn kernel_kind_by_dimensionality() {
        let c = StridedBlock {
            start: 0,
            counts: vec![4096],
            strides: vec![1],
        };
        assert_eq!(select_kernel(c, None).kind, KernelKind::Memcpy1D);
        assert_eq!(select_kernel(sb2d(), None).kind, KernelKind::Pack2D);
        let sb4 = StridedBlock {
            start: 0,
            counts: vec![8, 4, 4, 4],
            strides: vec![1, 16, 128, 1024],
        };
        assert_eq!(select_kernel(sb4, None).kind, KernelKind::PackND);
    }

    #[test]
    fn forced_word_overrides() {
        let plan = select_kernel(sb2d(), Some(1));
        assert_eq!(plan.word, 1);
    }

    fn gpu() -> (GpuContext, Stream, SimClock) {
        let ctx = GpuContext::new(DeviceProps::v100());
        let s = Stream::new(ctx.clone(), GpuCostModel::summit_v100());
        (ctx, s, SimClock::new())
    }

    #[test]
    fn strided_pack_moves_correct_bytes() {
        let (ctx, mut stream, mut clock) = gpu();
        let sb = StridedBlock {
            start: 4,
            counts: vec![2, 3],
            strides: vec![1, 8],
        };
        let plan = select_kernel(sb, None);
        let src = ctx.malloc(32).unwrap();
        let dst = ctx.malloc(6).unwrap();
        let data: Vec<u8> = (0..32).collect();
        ctx.memory().poke(src, &data).unwrap();
        let n = execute_strided(
            &plan,
            &mut stream,
            &mut clock,
            PackDir::Pack,
            src,
            0,
            1,
            dst,
            0,
        )
        .unwrap();
        assert_eq!(n, 6);
        // blocks at 4, 12, 20, each 2 bytes
        assert_eq!(
            ctx.memory().peek(dst, 6).unwrap(),
            vec![4, 5, 12, 13, 20, 21]
        );
        assert_eq!(stream.stats().kernel_launches, 1);
    }

    #[test]
    fn strided_unpack_inverts() {
        let (ctx, mut stream, mut clock) = gpu();
        let sb = StridedBlock {
            start: 0,
            counts: vec![4, 4],
            strides: vec![1, 16],
        };
        let plan = select_kernel(sb, None);
        let orig = ctx.malloc(64).unwrap();
        let packed = ctx.malloc(16).unwrap();
        let back = ctx.malloc(64).unwrap();
        let data: Vec<u8> = (0..64).map(|i| i as u8 ^ 0x5A).collect();
        ctx.memory().poke(orig, &data).unwrap();
        execute_strided(
            &plan,
            &mut stream,
            &mut clock,
            PackDir::Pack,
            orig,
            0,
            1,
            packed,
            0,
        )
        .unwrap();
        execute_strided(
            &plan,
            &mut stream,
            &mut clock,
            PackDir::Unpack,
            back,
            0,
            1,
            packed,
            0,
        )
        .unwrap();
        let got = ctx.memory().peek(back, 64).unwrap();
        for row in 0..4 {
            let o = row * 16;
            assert_eq!(&got[o..o + 4], &data[o..o + 4]);
        }
    }

    #[test]
    fn incount_packs_multiple_items() {
        let (ctx, mut stream, mut clock) = gpu();
        let sb = StridedBlock {
            start: 0,
            counts: vec![2, 2],
            strides: vec![1, 4],
        };
        let plan = select_kernel(sb, None);
        let src = ctx.malloc(32).unwrap();
        let dst = ctx.malloc(8).unwrap();
        let data: Vec<u8> = (0..32).collect();
        ctx.memory().poke(src, &data).unwrap();
        // item extent 6 (like a committed vector type)
        execute_strided(
            &plan,
            &mut stream,
            &mut clock,
            PackDir::Pack,
            src,
            6,
            2,
            dst,
            0,
        )
        .unwrap();
        assert_eq!(
            ctx.memory().peek(dst, 8).unwrap(),
            vec![0, 1, 4, 5, 6, 7, 10, 11]
        );
        // still ONE kernel launch for both items (the paper's point about
        // amortizing launch cost over incount)
        assert_eq!(stream.stats().kernel_launches, 1);
    }

    #[test]
    fn oneshot_target_into_mapped_memory() {
        let (ctx, mut stream, mut clock) = gpu();
        let sb = StridedBlock {
            start: 0,
            counts: vec![4, 2],
            strides: vec![1, 8],
        };
        let plan = select_kernel(sb, None);
        let src = ctx.malloc(16).unwrap();
        let mapped = ctx.mapped_alloc(8).unwrap();
        ctx.memory()
            .poke(src, &(0..16).collect::<Vec<u8>>())
            .unwrap();
        execute_strided(
            &plan,
            &mut stream,
            &mut clock,
            PackDir::Pack,
            src,
            0,
            1,
            mapped,
            0,
        )
        .unwrap();
        assert_eq!(
            ctx.memory().peek(mapped, 8).unwrap(),
            vec![0, 1, 2, 3, 8, 9, 10, 11]
        );
        // one-shot runs at interconnect rates: slower than device target
        let t_dev =
            stream
                .cost_model()
                .pack_kernel_time(PackDir::Pack, PackTarget::Device, 1 << 20, 64, 8);
        let t_osh = stream.cost_model().pack_kernel_time(
            PackDir::Pack,
            PackTarget::MappedHost,
            1 << 20,
            64,
            8,
        );
        assert!(t_osh > t_dev);
        assert_eq!(
            target_for(MemSpace::Device, MemSpace::Mapped),
            PackTarget::MappedHost
        );
        assert_eq!(
            target_for(MemSpace::Device, MemSpace::Device),
            PackTarget::Device
        );
    }

    #[test]
    fn pack_into_pageable_host_faults() {
        let (ctx, mut stream, mut clock) = gpu();
        let sb = StridedBlock {
            start: 0,
            counts: vec![4, 2],
            strides: vec![1, 8],
        };
        let plan = select_kernel(sb, None);
        let src = ctx.malloc(16).unwrap();
        let host = ctx.host_alloc(8).unwrap();
        let err = execute_strided(
            &plan,
            &mut stream,
            &mut clock,
            PackDir::Pack,
            src,
            0,
            1,
            host,
            0,
        )
        .unwrap_err();
        assert!(matches!(err, MpiError::Gpu(_)), "{err}");
    }

    #[test]
    fn blocklist_kernel_moves_blocks_in_order() {
        let (ctx, mut stream, mut clock) = gpu();
        let bl = BlockList {
            blocks: vec![(8, 2), (0, 4)],
        };
        let src = ctx.malloc(16).unwrap();
        let dst = ctx.malloc(6).unwrap();
        ctx.memory()
            .poke(src, &(0..16).collect::<Vec<u8>>())
            .unwrap();
        let n = execute_blocklist(
            &bl,
            &mut stream,
            &mut clock,
            PackDir::Pack,
            src,
            0,
            1,
            dst,
            0,
        )
        .unwrap();
        assert_eq!(n, 6);
        assert_eq!(ctx.memory().peek(dst, 6).unwrap(), vec![8, 9, 0, 1, 2, 3]);
        assert_eq!(stream.stats().kernel_launches, 1);
    }

    /// `count` items of `layout`, packed one after another.
    fn x_items<L: ?Sized>(layout: &L, count: usize) -> Items<'_, L> {
        Items {
            layout,
            extent: 0,
            count,
        }
    }

    #[test]
    fn a_walk_of_no_runs_succeeds_even_over_a_freed_buffer() {
        let ctx = GpuContext::new(DeviceProps::v100());
        let (freed, live) = (ctx.malloc(64).unwrap(), ctx.malloc(4096).unwrap());
        ctx.free(freed).unwrap();
        let sb = sb2d();
        let (none, one) = (x_items(&sb, 0), x_items(&sb, 1));
        let invalid = GpuError::InvalidPointer {
            alloc: freed.alloc_id(),
        };
        for rule in [CopyRule::Kernel, CopyRule::Backdoor] {
            for dir in [PackDir::Pack, PackDir::Unpack] {
                let mut mem = ctx.memory();
                assert_eq!(walk(&mut mem, rule, dir, freed, live, &none), Ok(0));
                assert_eq!(walk(&mut mem, rule, dir, live, freed, &none), Ok(0));
                let one_run = walk(&mut mem, rule, dir, freed, live, &one);
                assert_eq!(one_run, Err(invalid.clone()));
            }
        }
    }

    #[test]
    fn the_first_fault_ends_the_copies_and_every_run_counts() {
        let ctx = GpuContext::new(DeviceProps::v100());
        let (typed, packed) = (ctx.malloc(16).unwrap(), ctx.malloc(24).unwrap());
        let data: Vec<u8> = (0..16).collect();
        ctx.memory().poke(typed, &data).unwrap();
        let runs = |blocks: &[(i64, u64)]| BlockList {
            blocks: blocks.to_vec(),
        };
        // three runs of 4 B, the middle one past either end of the buffer
        let past_end = runs(&[(0, 4), (14, 4), (8, 4)]);
        let before_start = runs(&[(0, 4), (-4, 4), (8, 4)]);
        let oob = |offset, size| GpuError::OutOfBounds {
            alloc: typed.alloc_id(),
            offset,
            len: 4,
            size,
        };
        let pack = PackDir::Pack;
        for rule in [CopyRule::Kernel, CopyRule::Backdoor] {
            for (bl, fault) in [(&past_end, oob(14, 16)), (&before_start, oob(0, 0))] {
                ctx.memory().poke(packed, &[0xEE; 24]).unwrap();
                let got = walk(
                    &mut ctx.memory(),
                    rule,
                    pack,
                    typed,
                    packed,
                    &x_items(bl, 1),
                );
                assert_eq!(got, Err(fault));
                // the run before the fault moved; the one after it did not
                let mut want = vec![0, 1, 2, 3];
                want.resize(24, 0xEE);
                assert_eq!(ctx.memory().peek(packed, 24).unwrap(), want);
            }
            // without a fault every run counts, one of no bytes too: the
            // CPU rung prices its transfer by that count
            let whole = runs(&[(0, 4), (4, 0), (12, 4), (8, 4)]);
            let got = walk(
                &mut ctx.memory(),
                rule,
                pack,
                typed,
                packed,
                &x_items(&whole, 2),
            );
            assert_eq!(got, Ok(8));
        }
    }

    #[test]
    fn the_cpu_rung_moves_overlapping_ranges_of_one_allocation_as_memmove() {
        let ctx = GpuContext::new(DeviceProps::v100());
        let buf = ctx.malloc(32).unwrap();
        let data: Vec<u8> = (0..32).collect();
        ctx.memory().poke(buf, &data).unwrap();
        // runs of 4 B at 0 and 8, packed from byte 2 of the same
        // allocation: each run overlaps where it lands
        let sb = StridedBlock {
            start: 0,
            counts: vec![4, 2],
            strides: vec![1, 8],
        };
        let (pack, packed, runs) = (PackDir::Pack, buf.add(2), x_items(&sb, 1));
        let kernel = walk(
            &mut ctx.memory(),
            CopyRule::Kernel,
            pack,
            buf,
            packed,
            &runs,
        );
        assert_eq!(kernel, Err(GpuError::OverlappingBuffers));
        assert_eq!(ctx.memory().peek(buf, 32).unwrap(), data);
        let host = walk(
            &mut ctx.memory(),
            CopyRule::Backdoor,
            pack,
            buf,
            packed,
            &runs,
        );
        assert_eq!(host, Ok(2));
        let mut want = data;
        want.copy_within(0..4, 2);
        want.copy_within(8..12, 6);
        assert_eq!(ctx.memory().peek(buf, 32).unwrap(), want);
    }

    /// Every run a visitor's rows hold, enumerated without rows: the
    /// per-run walk the row walk must match.
    trait PerRun {
        fn runs(&self) -> Vec<(i64, usize)>;
    }

    impl PerRun for BlockRange<'_> {
        /// Each block numbered globally, decomposed over its item and all
        /// of `counts[1..]`, dimension 1 fastest.
        fn runs(&self) -> Vec<(i64, usize)> {
            let (sb, per_item) = (self.sb, self.sb.block_count());
            let block = |b: i64| {
                let (mut off, mut rest) = ((b / per_item) * self.extent + sb.start, b % per_item);
                for d in 1..sb.ndims() {
                    off += (rest % sb.counts[d]) * sb.strides[d];
                    rest /= sb.counts[d];
                }
                (off, sb.block_bytes() as usize)
            };
            self.blocks.clone().map(block).collect()
        }
    }

    impl PerRun for Items<'_, StridedBlock> {
        fn runs(&self) -> Vec<(i64, usize)> {
            let all = self.count as i64 * self.layout.block_count();
            let (sb, extent) = (self.layout, self.extent);
            BlockRange {
                sb,
                extent,
                blocks: 0..all,
            }
            .runs()
        }
    }

    impl PerRun for Items<'_, BlockList> {
        fn runs(&self) -> Vec<(i64, usize)> {
            let item = |i: i64| {
                self.layout
                    .blocks
                    .iter()
                    .map(move |&(o, l)| (i + o, l as usize))
            };
            (0..self.count as i64)
                .flat_map(|i| item(i * self.extent))
                .collect()
        }
    }

    impl PerRun for Items<'_, [Member]> {
        fn runs(&self) -> Vec<(i64, usize)> {
            let mut runs = Vec::new();
            for item in 0..self.count as i64 {
                for m in self.layout {
                    let (c, s, base) = (m.counts, m.strides, item * self.extent + m.start);
                    for k in 0..c[3] {
                        for j in 0..c[2] {
                            for i in 0..c[1] {
                                let off = base + k * s[3] + j * s[2] + i * s[1];
                                runs.push((off, c[0] as usize));
                            }
                        }
                    }
                }
            }
            runs
        }
    }

    /// The reference walk: one `Copier::copy` per run.
    fn walk_per_run(
        mem: &mut Memory,
        rule: CopyRule,
        dir: PackDir,
        strided: GpuPtr,
        packed: GpuPtr,
        runs: &[(i64, usize)],
    ) -> GpuResult<usize> {
        let (dst, src) = dir.ends(strided, packed);
        let mut copier = mem.copier(rule, dst, src);
        let mut pos = packed.offset;
        for &(off, len) in runs {
            let Some(s) = strided.offset_by(off) else {
                return Err(GpuError::OutOfBounds {
                    alloc: strided.alloc_id(),
                    offset: 0,
                    len,
                    size: 0,
                });
            };
            let (dst, src) = dir.ends(s.offset, pos);
            copier.copy(dst, src, len)?;
            pos += len;
        }
        Ok(runs.len())
    }

    /// A seeded stream of draws.
    struct Draws(u64, u64);

    impl Draws {
        /// Uniform in `lo..=hi`.
        fn int(&mut self, lo: i64, hi: i64) -> i64 {
            self.1 += 1;
            let h = gpu_sim::fault::splitmix64(self.0 ^ self.1.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            lo + (h % (hi - lo + 1) as u64) as i64
        }

        fn pick<T: Copy>(&mut self, of: &[T]) -> T {
            of[self.int(0, of.len() as i64 - 1) as usize]
        }

        /// A run length: a word size, a small multiple of one, any, or none.
        fn len(&mut self) -> i64 {
            match self.int(0, 7) {
                0..=2 => self.pick(&[1, 2, 4, 8, 16]),
                3..=4 => self.pick(&[24, 32, 48, 64, 96, 128]),
                5 => 0,
                _ => self.int(1, 40),
            }
        }

        /// A stride, often negative, sometimes overlapping.
        fn stride(&mut self, span: i64) -> i64 {
            let s = span + self.int(-span / 2, 24);
            if self.int(0, 3) == 0 {
                -s
            } else {
                s
            }
        }

        fn strided_block(&mut self) -> StridedBlock {
            let mut sb = StridedBlock {
                start: self.int(-16, 32),
                counts: vec![self.len()],
                strides: vec![1],
            };
            let mut span = sb.counts[0];
            for _ in 1..self.int(1, 4) {
                let (count, stride) = (self.pick(&[1, 1, 2, 3, 5]), self.stride(span));
                sb.counts.push(count);
                sb.strides.push(stride);
                span = count * stride.abs();
            }
            sb
        }

        fn member(&mut self) -> Member {
            let mut m = Member::run(self.int(-8, 64), self.len());
            m.ndims = self.int(1, 4) as u8;
            let mut span = m.counts[0];
            for d in 1..m.ndims as usize {
                (m.counts[d], m.strides[d]) = (self.pick(&[1, 2, 3]), self.stride(span));
                span = m.counts[d] * m.strides[d].abs();
            }
            m
        }
    }

    /// Walk `runs` by rows in one world and run by run in a twin of it,
    /// over buffers `d` draws — sized to hold every run or cut short,
    /// sometimes one allocation for both ends, sometimes freed or in a
    /// space a kernel may not touch — and demand equal results (the run
    /// count or the first fault) and equal bytes everywhere.
    fn rows_match_runs(d: &mut Draws, runs: &(impl Runs + PerRun), case: &str) {
        let each = runs.runs();
        let lo = each.iter().map(|r| r.0).min().unwrap_or(0).min(0);
        let hi = each
            .iter()
            .map(|r| r.0 + r.1 as i64)
            .max()
            .unwrap_or(0)
            .max(0);
        let total: usize = each.iter().map(|r| r.1).sum();
        let (shift, size) = match d.int(0, 5) {
            0 => (-lo - d.int(0, 8), hi - lo), // some runs before the buffer
            1 => (-lo, (hi - lo) - d.int(1, 12)), // cut short, mid-row as likely as not
            _ => (-lo, hi - lo + d.int(0, 8)),
        };
        let packed_size = match d.int(0, 7) {
            0 => total.saturating_sub(d.int(1, 8) as usize),
            _ => total + d.int(0, 8) as usize,
        };
        let shared = d.int(0, 4) == 0;
        let (rule, dir) = (
            d.pick(&[CopyRule::Kernel, CopyRule::Dma, CopyRule::Backdoor]),
            d.pick(&[PackDir::Pack, PackDir::Unpack]),
        );
        let (space, gap) = (d.pick(&[0, 0, 0, 1, 2, 3]), d.int(-8, 16));
        let world = || {
            let ctx = GpuContext::new(DeviceProps::v100());
            let alloc = |n: usize| match space {
                1 => ctx.mapped_alloc(n),
                2 => ctx.host_alloc(n),
                _ => ctx.malloc(n),
            };
            let typed_len = size.max(0) as usize + if shared { packed_size + 16 } else { 0 };
            let typed = alloc(typed_len).unwrap();
            let packed = match shared {
                true => typed.add((size.max(0) + gap) as usize),
                false => ctx.malloc(packed_size).unwrap(),
            };
            let fill: Vec<u8> = (0..typed_len).map(|i| (i * 7 + 3) as u8).collect();
            ctx.memory().poke(typed, &fill).unwrap();
            if !shared {
                let fill: Vec<u8> = (0..packed_size).map(|i| (i * 13 + 5) as u8).collect();
                ctx.memory().poke(packed, &fill).unwrap();
            }
            if space == 3 {
                ctx.free(packed).unwrap();
            }
            (ctx, typed, packed, typed_len)
        };
        let (rows, typed, packed, typed_len) = world();
        let strided = typed.add(shift.max(0) as usize);
        let (per_run, ..) = world();
        let got = walk(&mut rows.memory(), rule, dir, strided, packed, runs);
        let want = walk_per_run(&mut per_run.memory(), rule, dir, strided, packed, &each);
        let at = format!("{case}, {rule:?} {dir:?}, shared {shared}, space {space}");
        assert_eq!(got, want, "{at}: {} runs", each.len());
        let bytes = |c: &GpuContext| {
            let mem = c.memory();
            (
                mem.peek(typed, typed_len).ok(),
                mem.peek(packed, packed_size).ok(),
            )
        };
        assert_eq!(bytes(&rows), bytes(&per_run), "{at}");
    }

    #[test]
    fn the_row_walk_moves_what_the_per_run_walk_moves() {
        for seed in [1, 7, 0x5EED] {
            let d = &mut Draws(seed, 0);
            for case in 0..400 {
                let sb = d.strided_block();
                let (count, extent) = (d.int(1, 3) as usize, d.int(-64, 256));
                let items = Items {
                    layout: &sb,
                    extent,
                    count,
                };
                let at = format!("seed {seed} case {case}: {count} x {sb:?} every {extent}");
                rows_match_runs(d, &items, &at);
                let all = count as i64 * sb.block_count();
                let (a, b) = (d.int(0, all), d.int(0, all));
                let range = BlockRange {
                    sb: &sb,
                    extent,
                    blocks: a.min(b)..a.max(b),
                };
                rows_match_runs(d, &range, &format!("{at}, blocks {:?}", range.blocks));
                let members: Vec<Member> = (0..d.int(1, 3)).map(|_| d.member()).collect();
                let items = Items {
                    layout: members.as_slice(),
                    extent,
                    count,
                };
                rows_match_runs(d, &items, &format!("seed {seed} case {case}: {members:?}"));
                let bl = BlockList {
                    blocks: (0..d.int(1, 6))
                        .map(|_| (d.int(-32, 200), d.len() as u64))
                        .collect(),
                };
                let items = Items {
                    layout: &bl,
                    extent,
                    count,
                };
                rows_match_runs(d, &items, &format!("seed {seed} case {case}: {bl:?}"));
            }
        }
    }

    #[test]
    fn dma_2d_path_packs_rows() {
        let (ctx, mut stream, mut clock) = gpu();
        let sb = StridedBlock {
            start: 0,
            counts: vec![4, 4],
            strides: vec![1, 8],
        };
        let plan = select_kernel(sb, None);
        let src = ctx.malloc(32).unwrap();
        let dst = ctx.malloc(16).unwrap();
        ctx.memory()
            .poke(src, &(0..32).collect::<Vec<u8>>())
            .unwrap();
        let n = execute_dma_2d(
            &plan,
            &mut stream,
            &mut clock,
            PackDir::Pack,
            src,
            0,
            1,
            dst,
            0,
        )
        .unwrap();
        assert_eq!(n, 16);
        let want: Vec<u8> = (0..4u8).flat_map(|r| r * 8..r * 8 + 4).collect();
        assert_eq!(ctx.memory().peek(dst, 16).unwrap(), want);
        assert_eq!(stream.stats().memcpys_2d, 1);
    }

    #[test]
    fn effective_word_degrades_with_misaligned_pointers() {
        let ctx = GpuContext::new(DeviceProps::v100());
        let p = ctx.malloc(64).unwrap();
        assert_eq!(effective_word(8, p, p), 8);
        assert_eq!(effective_word(8, p.add(4), p), 4);
        assert_eq!(effective_word(8, p.add(4), p.add(2)), 2);
        assert_eq!(effective_word(8, p.add(1), p), 1);
    }

    #[test]
    fn packed_offset_is_respected() {
        let (ctx, mut stream, mut clock) = gpu();
        let sb = StridedBlock {
            start: 0,
            counts: vec![2, 2],
            strides: vec![1, 4],
        };
        let plan = select_kernel(sb, None);
        let src = ctx.malloc(8).unwrap();
        let dst = ctx.malloc(16).unwrap();
        ctx.memory()
            .poke(src, &(0..8).collect::<Vec<u8>>())
            .unwrap();
        execute_strided(
            &plan,
            &mut stream,
            &mut clock,
            PackDir::Pack,
            src,
            0,
            1,
            dst,
            4,
        )
        .unwrap();
        let got = ctx.memory().peek(dst, 16).unwrap();
        assert_eq!(&got[4..8], &[0, 1, 4, 5]);
        assert_eq!(&got[0..4], &[0, 0, 0, 0]);
    }
}
