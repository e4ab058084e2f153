//! Kernel selection and execution (paper §3.3).
//!
//! After canonicalization, each MPI datatype maps to **one of two kernel
//! implementations parameterized by a word size `W`** (plus the trivial
//! `cudaMemcpyAsync` path for 1-D objects and the block-list kernel for
//! the indexed-family extension):
//!
//! * the word size `W` is "the largest GPU-native type that is both
//!   aligned to the object and is a factor of `count[0]`";
//! * thread-block dimensions are "filled from X to Z by the largest power
//!   of two that encompasses the structure", capped at 1024 threads;
//! * the grid covers the whole object, with the dynamic `incount`
//!   repetition folded into the grid's Z extent;
//! * no object metadata is stored on the GPU — kernel parameters are the
//!   scalar values of the [`StridedBlock`].

use gpu_sim::{
    div_ceil, next_pow2, Dim3, GpuPtr, GpuResult, LaunchConfig, MemSpace, PackDir, PackTarget,
    SimClock, Stream,
};
use mpi_sim::{MpiError, MpiResult};
use serde::{Deserialize, Serialize};

use crate::ir::strided_block::StridedBlock;
use crate::ir::BlockList;

/// Which implementation a committed type selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KernelKind {
    /// 1-D (contiguous): a single `cudaMemcpyAsync` + synchronize.
    Memcpy1D,
    /// 2-D strided kernel (X → `counts[0]`, Y → `counts[1]`).
    Pack2D,
    /// 3-D strided kernel (X, Y, Z → `counts[0..3]`).
    Pack3D,
    /// Higher-dimensional objects: the 3-D kernel with outer loops.
    PackND,
    /// Irregular block list (indexed-family extension).
    BlockList,
}

/// A committed type's kernel parameterization.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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

/// Largest GPU-native word (16, 8, 4, 2, 1 bytes) that divides the block
/// length, the start offset, and every stride — i.e. is "aligned to the
/// object and a factor of `count[0]`".
pub fn select_word(sb: &StridedBlock) -> usize {
    for w in [16i64, 8, 4, 2] {
        let aligned = sb.start % w == 0
            && sb.block_bytes() % w == 0
            && sb.strides[1..].iter().all(|&s| s % w == 0);
        if aligned {
            return w as usize;
        }
    }
    1
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
    execute_strided_with(
        plan,
        None,
        stream,
        clock,
        dir,
        strided,
        item_extent,
        incount,
        packed,
        packed_off,
    )
}

/// [`execute_strided`] with an optionally pre-computed launch geometry.
/// The hot send path caches the [`LaunchConfig`] per `(datatype, incount)`
/// so steady-state sends skip the grid/block derivation; `None` derives it
/// from the plan as usual. The caller must have derived `cached` from this
/// same plan and `incount`.
#[allow(clippy::too_many_arguments)]
pub fn execute_strided_with(
    plan: &KernelPlan,
    cached: Option<LaunchConfig>,
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
    let word = effective_word(plan.word, strided, packed.add(packed_off));
    let target = target_for(strided.space, packed.space);
    let cost = stream.cost_model().pack_kernel_time_dims(
        dir,
        target,
        total,
        plan.sb.block_bytes() as usize,
        word,
        plan.sb.ndims(),
    );
    let cfg = match cached {
        Some(cfg) => {
            debug_assert_eq!(cfg, plan.launch_config(incount));
            cfg
        }
        None => plan.launch_config(incount),
    };
    let name = match (dir, plan.kind) {
        (PackDir::Pack, KernelKind::Pack2D) => "tempi_pack_2d",
        (PackDir::Pack, KernelKind::Pack3D) => "tempi_pack_3d",
        (PackDir::Pack, _) => "tempi_pack_nd",
        (PackDir::Unpack, KernelKind::Pack2D) => "tempi_unpack_2d",
        (PackDir::Unpack, KernelKind::Pack3D) => "tempi_unpack_3d",
        (PackDir::Unpack, _) => "tempi_unpack_nd",
    };
    let sb = &plan.sb;
    let block_len = sb.block_bytes() as usize;
    let run = |mem: &mut gpu_sim::Memory| -> GpuResult<()> {
        let mut pos = packed_off;
        for item in 0..incount {
            let base = item as i64 * item_extent;
            let mut fault = None;
            sb.for_each_block(|off| {
                if fault.is_some() {
                    return;
                }
                let s = match strided.offset_by(base + off) {
                    Some(p) => p,
                    None => {
                        fault = Some(gpu_sim::GpuError::OutOfBounds {
                            alloc: strided.alloc_id(),
                            offset: 0,
                            len: block_len,
                            size: 0,
                        });
                        return;
                    }
                };
                let p = packed.add(pos);
                let (dst, src) = match dir {
                    PackDir::Pack => (p, s),
                    PackDir::Unpack => (s, p),
                };
                if let Err(e) = mem.dev_copy(dst, src, block_len) {
                    fault = Some(e);
                }
                pos += block_len;
            });
            if let Some(e) = fault {
                return Err(e);
            }
        }
        Ok(())
    };
    stream
        .launch(clock, name, cfg, cost, run)
        .map_err(MpiError::Gpu)?;
    stream.synchronize(clock);
    Ok(total)
}

/// Execute one *asynchronous* pack/unpack kernel over a contiguous range
/// of block indices of the object stream (blocks of all `incount` items
/// numbered globally). Does **not** synchronize — the pipelined send path
/// (paper §8) overlaps these launches with wire transfers and joins at the
/// end. Returns the bytes moved by this launch.
#[allow(clippy::too_many_arguments)]
pub fn execute_strided_range_async(
    plan: &KernelPlan,
    stream: &mut Stream,
    clock: &mut SimClock,
    dir: PackDir,
    strided: GpuPtr,
    item_extent: i64,
    packed: GpuPtr,
    packed_off: usize,
    first_block: i64,
    nblocks: i64,
) -> MpiResult<usize> {
    let block_len = plan.sb.block_bytes() as usize;
    let blocks_per_item = plan.sb.block_count();
    let total = block_len * nblocks as usize;
    let word = effective_word(plan.word, strided, packed.add(packed_off));
    let target = target_for(strided.space, packed.space);
    let cost = stream.cost_model().pack_kernel_time_dims(
        dir,
        target,
        total,
        block_len,
        word,
        plan.sb.ndims(),
    );
    // 1-D launch over this range's blocks (one warp per block)
    let cfg = LaunchConfig {
        grid: Dim3::new(
            div_ceil(nblocks as u64 * 32, 256).clamp(1, 65_535) as u32,
            1,
            1,
        ),
        block: Dim3::new(256, 1, 1),
    };
    let sb = &plan.sb;
    let run = |mem: &mut gpu_sim::Memory| -> GpuResult<()> {
        let mut pos = packed_off;
        for gbi in first_block..first_block + nblocks {
            let item = gbi / blocks_per_item;
            let within = gbi % blocks_per_item;
            let off = item * item_extent + sb.block_offset(within);
            let s = strided
                .offset_by(off)
                .ok_or(gpu_sim::GpuError::OutOfBounds {
                    alloc: strided.alloc_id(),
                    offset: 0,
                    len: block_len,
                    size: 0,
                })?;
            let p = packed.add(pos);
            let (dst, src) = match dir {
                PackDir::Pack => (p, s),
                PackDir::Unpack => (s, p),
            };
            mem.dev_copy(dst, src, block_len)?;
            pos += block_len;
        }
        Ok(())
    };
    let name = match dir {
        PackDir::Pack => "tempi_pack_range",
        PackDir::Unpack => "tempi_unpack_range",
    };
    stream
        .launch(clock, name, cfg, cost, run)
        .map_err(MpiError::Gpu)?;
    Ok(total)
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
    let item_bytes = blocks.data_bytes() as usize;
    let total = item_bytes * incount;
    let nblocks = blocks.blocks.len().max(1) * incount.max(1);
    let avg_block = (total / nblocks).max(1);
    let target = target_for(strided.space, packed.space);
    let cost = stream
        .cost_model()
        .pack_kernel_time(dir, target, total, avg_block, 1);
    // one warp per block, 256 threads per thread-block
    let cfg = LaunchConfig {
        grid: Dim3::new(
            div_ceil(nblocks as u64 * 32, 256).clamp(1, 65_535) as u32,
            1,
            1,
        ),
        block: Dim3::new(256, 1, 1),
    };
    let run = |mem: &mut gpu_sim::Memory| -> GpuResult<()> {
        let mut pos = packed_off;
        for item in 0..incount {
            let base = item as i64 * item_extent;
            for &(off, len) in &blocks.blocks {
                let s = strided
                    .offset_by(base + off)
                    .ok_or(gpu_sim::GpuError::OutOfBounds {
                        alloc: strided.alloc_id(),
                        offset: 0,
                        len: len as usize,
                        size: 0,
                    })?;
                let p = packed.add(pos);
                let (dst, src) = match dir {
                    PackDir::Pack => (p, s),
                    PackDir::Unpack => (s, p),
                };
                mem.dev_copy(dst, src, len as usize)?;
                pos += len as usize;
            }
        }
        Ok(())
    };
    let name = match dir {
        PackDir::Pack => "tempi_pack_blocklist",
        PackDir::Unpack => "tempi_unpack_blocklist",
    };
    stream
        .launch(clock, name, cfg, cost, run)
        .map_err(MpiError::Gpu)?;
    stream.synchronize(clock);
    Ok(total)
}

/// The future-work DMA path (paper §8): pack a 2-D object with
/// `cudaMemcpy2DAsync` instead of a kernel. Only applicable to 2-D plans.
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
    let spitch = plan.sb.strides[1] as usize;
    let mut moved = 0usize;
    for item in 0..incount {
        let s = ptr_at(strided, item as i64 * item_extent + plan.sb.start)?;
        let p = packed.add(packed_off + item * width * rows);
        match dir {
            PackDir::Pack => {
                stream
                    .memcpy_2d_async(clock, p, width, s, spitch, width, rows)
                    .map_err(MpiError::Gpu)?;
            }
            PackDir::Unpack => {
                stream
                    .memcpy_2d_async(clock, s, spitch, p, width, width, rows)
                    .map_err(MpiError::Gpu)?;
            }
        }
        moved += width * rows;
    }
    stream.synchronize(clock);
    Ok(moved)
}

/// The future-work DMA path for 3-D objects: `cudaMemcpy3DAsync` instead
/// of a kernel. Only applicable to 3-D plans whose strides are a valid
/// pitched layout (slice stride a multiple of the row stride).
#[allow(clippy::too_many_arguments)]
pub fn execute_dma_3d(
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
    debug_assert_eq!(plan.sb.ndims(), 3);
    let width = plan.sb.block_bytes() as usize;
    let rows = plan.sb.counts[1] as usize;
    let slices = plan.sb.counts[2] as usize;
    let spitch = plan.sb.strides[1] as usize;
    let sslice = plan.sb.strides[2] as usize;
    if sslice < spitch * rows {
        return Err(MpiError::InvalidArg(
            "3-D object is not a pitched layout; DMA path inapplicable".to_string(),
        ));
    }
    let mut moved = 0usize;
    for item in 0..incount {
        let s = strided
            .offset_by(item as i64 * item_extent + plan.sb.start)
            .ok_or_else(|| MpiError::InvalidArg("type reaches before buffer".to_string()))?;
        let p = packed.add(packed_off + item * width * rows * slices);
        match dir {
            PackDir::Pack => {
                stream
                    .memcpy_3d_async(
                        clock,
                        p,
                        width,
                        width * rows,
                        s,
                        spitch,
                        sslice,
                        width,
                        rows,
                        slices,
                    )
                    .map_err(MpiError::Gpu)?;
            }
            PackDir::Unpack => {
                stream
                    .memcpy_3d_async(
                        clock,
                        s,
                        spitch,
                        sslice,
                        p,
                        width,
                        width * rows,
                        width,
                        rows,
                        slices,
                    )
                    .map_err(MpiError::Gpu)?;
            }
        }
        moved += width * rows * slices;
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
