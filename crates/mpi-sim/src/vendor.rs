//! Vendor profiles: the three system-MPI implementations of Table 1 and
//! their baseline GPU derived-datatype handling.
//!
//! The paper measures TEMPI against Spectrum MPI 10.3.1.2 (Summit),
//! OpenMPI 4.0.5 and MVAPICH2 2.3.4. All three handle a non-contiguous GPU
//! datatype the same basic way — **one `cudaMemcpyAsync` per contiguous
//! block** — with vendor-specific behaviors the figures depend on:
//!
//! * **MVAPICH2** "tends to perform best … due to minimal synchronization"
//!   and has a **specialized kernel when the root combiner is a vector**
//!   (speedup ≈ 1 in Figs. 7a/7b for vector constructions, and the fast
//!   vector-of-subarray case of Fig. 7c) — but falls back to copy-per-block
//!   for the *same object* expressed as hvector or subarray. It also has a
//!   **contiguous-pack synchronization bug** (`cudaMemcpy` D2D is async;
//!   `MPI_Pack` can return early), which is why mvapich contiguous results
//!   are omitted from the paper's comparison.
//! * **Spectrum MPI** is worst: extra per-block bookkeeping + per-block
//!   synchronization, and it splits large contiguous transfers into
//!   multiple chunked copies.
//! * **OpenMPI** sits between.

use gpu_sim::{
    CopyRule, Dim3, GpuPtr, LaunchConfig, PackDir, PackTarget, SimClock, SimTime, Stream,
};

use crate::error::{MpiError, MpiResult};
use crate::p2p::WireType;

/// Which system MPI a simulated world emulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VendorId {
    /// IBM Spectrum MPI 10.3.1.2 (the Summit deployment).
    SpectrumMpi,
    /// OpenMPI 4.0.5.
    OpenMpi,
    /// MVAPICH2 2.3.4 (not MVAPICH2-GDR).
    Mvapich,
}

impl VendorId {
    /// Stable lowercase label used as a row key in bench/guideline JSON
    /// (`"mvapich"` / `"openmpi"` / `"spectrum"`).
    pub fn label(self) -> &'static str {
        match self {
            VendorId::SpectrumMpi => "spectrum",
            VendorId::OpenMpi => "openmpi",
            VendorId::Mvapich => "mvapich",
        }
    }
}

/// How the baseline handled one pack/unpack call (for reporting and tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineMethod {
    /// Single (possibly chunked) `cudaMemcpyAsync` of a contiguous type.
    Contiguous,
    /// MVAPICH's specialized vector kernel.
    SpecializedVector,
    /// One `cudaMemcpyAsync` per contiguous block.
    CopyPerBlock,
}

/// Calibrated behavior of one system MPI implementation.
#[derive(Debug, Clone, PartialEq)]
pub struct VendorProfile {
    /// Which vendor this is.
    pub id: VendorId,
    /// Display name for Table 1.
    pub mpi_name: &'static str,
    /// Version string for Table 1.
    pub version: &'static str,
    /// CPU cost of one `MPI_Type_*` constructor call (Fig. 6 "create").
    pub type_create_cost: SimTime,
    /// CPU cost of the native `MPI_Type_commit` work (Fig. 6 "commit").
    pub type_commit_cost: SimTime,
    /// CPU cost of one introspection call (`MPI_Type_get_envelope`,
    /// `get_contents`, `get_extent`, `size`) — what TEMPI's translation
    /// pays, and why Fig. 6 commit overhead differs per vendor.
    pub introspection_call_cost: SimTime,
    /// Extra CPU bookkeeping per block in the copy-per-block loop, on top
    /// of the driver's own `cudaMemcpyAsync` overhead.
    pub per_block_extra: SimTime,
    /// Does the pack loop synchronize the stream after every block?
    pub sync_per_block: bool,
    /// Does a root-vector type get the specialized kernel?
    pub specialized_vector_kernel: bool,
    /// If set, contiguous transfers are split into chunks of this many
    /// bytes, each synchronized (Spectrum's "multiple transfers").
    pub contiguous_chunk_bytes: Option<usize>,
    /// MVAPICH's bug: contiguous `MPI_Pack` issues the copy but returns
    /// without synchronizing.
    pub contiguous_pack_skips_sync: bool,
    /// Host-side pack: per-segment loop overhead.
    pub host_pack_per_seg: SimTime,
    /// Host-side pack: copy bandwidth, bytes/ns.
    pub host_pack_bpns: f64,
}

impl VendorProfile {
    /// Spectrum MPI 10.3.1.2 as deployed on Summit.
    pub fn spectrum() -> Self {
        VendorProfile {
            id: VendorId::SpectrumMpi,
            mpi_name: "Spectrum MPI",
            version: "10.3.1.2",
            type_create_cost: SimTime::from_ns(800),
            type_commit_cost: SimTime::from_ns(900),
            introspection_call_cost: SimTime::from_ns(800),
            per_block_extra: SimTime::from_us(35),
            sync_per_block: true,
            specialized_vector_kernel: false,
            contiguous_chunk_bytes: Some(128 << 10),
            contiguous_pack_skips_sync: false,
            host_pack_per_seg: SimTime::from_ns(60),
            host_pack_bpns: 18.0,
        }
    }

    /// OpenMPI 4.0.5.
    pub fn openmpi() -> Self {
        VendorProfile {
            id: VendorId::OpenMpi,
            mpi_name: "OpenMPI",
            version: "4.0.5",
            type_create_cost: SimTime::from_ns(500),
            type_commit_cost: SimTime::from_ns(1000),
            introspection_call_cost: SimTime::from_ns(450),
            per_block_extra: SimTime::from_us(5),
            sync_per_block: false,
            specialized_vector_kernel: false,
            contiguous_chunk_bytes: None,
            contiguous_pack_skips_sync: false,
            host_pack_per_seg: SimTime::from_ns(50),
            host_pack_bpns: 20.0,
        }
    }

    /// MVAPICH2 2.3.4.
    pub fn mvapich() -> Self {
        VendorProfile {
            id: VendorId::Mvapich,
            mpi_name: "MVAPICH2",
            version: "2.3.4",
            type_create_cost: SimTime::from_ns(300),
            type_commit_cost: SimTime::from_ns(1200),
            introspection_call_cost: SimTime::from_ns(300),
            per_block_extra: SimTime::ZERO,
            sync_per_block: false,
            specialized_vector_kernel: true,
            contiguous_chunk_bytes: None,
            contiguous_pack_skips_sync: true,
            host_pack_per_seg: SimTime::from_ns(40),
            host_pack_bpns: 22.0,
        }
    }

    /// All three profiles, in the paper's reporting order (mv, op, sp).
    pub fn all() -> [VendorProfile; 3] {
        [Self::mvapich(), Self::openmpi(), Self::spectrum()]
    }

    /// CPU time to pack/unpack `bytes` across `nsegs` segments on the host.
    pub fn host_pack_time(&self, bytes: usize, nsegs: usize) -> SimTime {
        self.host_pack_per_seg * nsegs as u64
            + SimTime::from_ns_f64(bytes as f64 / self.host_pack_bpns)
    }
}

/// Baseline vendor `MPI_Pack` / `MPI_Unpack` on GPU buffers: the behavior
/// TEMPI's speedups are measured against, one body for both directions.
///
/// Moves `incount` items of `wt` (repeated `wt.extent` apart) between the
/// typed buffer `strided` and the packed bytes starting at `packed`:
/// `strided` is the source for `Pack`, the destination for `Unpack`, on
/// `stream` and `clock`. Returns which method was used.
pub(crate) fn baseline_gpu_xfer(
    profile: &VendorProfile,
    (stream, clock): (&mut Stream, &mut SimClock),
    wt: &WireType,
    strided: GpuPtr,
    incount: usize,
    packed: GpuPtr,
    dir: PackDir,
) -> MpiResult<BaselineMethod> {
    if wt.fully_contiguous(incount) {
        return contiguous_xfer(profile, (stream, clock), wt, strided, incount, packed, dir);
    }
    if profile.specialized_vector_kernel && wt.root_is_vector {
        return vector_kernel_xfer((stream, clock), wt, strided, incount, packed, dir);
    }
    // Copy-per-block: the universal baseline.
    wt.for_each_block(incount, |off, len, pos| {
        let (dst, src) = dir.ends(offset_ptr(strided, off)?, packed.add(pos));
        stream.memcpy_async(clock, dst, src, len)?;
        clock.advance(profile.per_block_extra);
        if profile.sync_per_block {
            stream.synchronize(clock);
        }
        Ok(())
    })?;
    stream.synchronize(clock);
    Ok(BaselineMethod::CopyPerBlock)
}

/// [`baseline_gpu_xfer`]'s contiguous fast path: one (possibly chunked)
/// plain copy.
fn contiguous_xfer(
    profile: &VendorProfile,
    (stream, clock): (&mut Stream, &mut SimClock),
    wt: &WireType,
    strided: GpuPtr,
    incount: usize,
    packed: GpuPtr,
    dir: PackDir,
) -> MpiResult<BaselineMethod> {
    let total = wt.size * incount;
    let (dst, src) = dir.ends(offset_ptr(strided, wt.first)?, packed);
    match profile.contiguous_chunk_bytes {
        Some(chunk) if total > chunk => {
            let mut done = 0;
            while done < total {
                let n = chunk.min(total - done);
                stream.memcpy_async(clock, dst.add(done), src.add(done), n)?;
                stream.synchronize(clock);
                done += n;
            }
        }
        _ => {
            stream.memcpy_async(clock, dst, src, total)?;
            // MVAPICH's bug: MPI_Pack returns without synchronizing.
            // (Functionally the simulator has already moved the bytes;
            // the *timing* reflects the early return, which is exactly
            // the hazard the paper describes.)
            if !(dir == PackDir::Pack && profile.contiguous_pack_skips_sync) {
                stream.synchronize(clock);
            }
        }
    }
    Ok(BaselineMethod::Contiguous)
}

/// [`baseline_gpu_xfer`]'s MVAPICH specialized vector kernel: only when
/// the root combiner is a vector; hvector/subarray descriptions of the
/// same object fall through to copy-per-block (the fragility Fig. 7
/// highlights).
fn vector_kernel_xfer(
    (stream, clock): (&mut Stream, &mut SimClock),
    wt: &WireType,
    strided: GpuPtr,
    incount: usize,
    packed: GpuPtr,
    dir: PackDir,
) -> MpiResult<BaselineMethod> {
    let total = wt.size * incount;
    // the bytes move here, in one go; the launch below carries only
    // geometry and cost
    let gpu = stream.context().clone();
    let mut mem = gpu.memory();
    let (dst, src) = dir.ends(strided, packed);
    let mut copier = mem.copier(CopyRule::Kernel, dst, src);
    wt.for_each_block(incount, |off, len, pos| {
        let (dst, src) = dir.ends(offset_ptr(strided, off)?.offset, packed.offset + pos);
        Ok(copier.copy(dst, src, len)?)
    })?;
    drop(mem);
    let cost = stream.cost_model().pack_kernel_time(
        dir,
        PackTarget::Device,
        total,
        wt.max_block,
        kernel_word(wt.max_block, strided, packed),
    );
    let grid = gpu_sim::div_ceil(total as u64, 256).clamp(1, 65_535) as u32;
    let cfg = LaunchConfig {
        grid: Dim3::new(grid, 1, 1),
        block: Dim3::new(256, 1, 1),
    };
    stream.launch(clock, "mvapich_vector_kernel", cfg, cost, |_| Ok(()))?;
    stream.synchronize(clock);
    Ok(BaselineMethod::SpecializedVector)
}

/// Word size heuristic for the specialized kernel's cost (same rule as
/// TEMPI's, applied to the baseline kernel for fairness): the widest word
/// that divides the largest `block` and both buffers' alignment.
fn kernel_word(block: usize, a: GpuPtr, b: GpuPtr) -> usize {
    let fits = |w: usize| block % w == 0 && a.alignment() % w == 0 && b.alignment() % w == 0;
    [16, 8, 4, 2].into_iter().find(|&w| fits(w)).unwrap_or(1)
}

pub(crate) fn offset_ptr(p: GpuPtr, off: i64) -> MpiResult<GpuPtr> {
    p.offset_by(off).ok_or_else(|| {
        MpiError::InvalidArg(format!(
            "datatype reaches {off} bytes before the buffer start"
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::registry::consts::*;
    use crate::datatype::Datatype;
    use crate::{RankCtx, WorldConfig};
    use gpu_sim::{DeviceProps, GpuContext, GpuCostModel};

    fn setup() -> (GpuContext, Stream, SimClock) {
        let ctx = GpuContext::new(DeviceProps::v100());
        let stream = Stream::new(ctx.clone(), GpuCostModel::summit_v100());
        (ctx, stream, SimClock::new())
    }

    /// The committed type `build` makes on a rank of its own.
    fn wire(build: impl FnOnce(&mut RankCtx) -> MpiResult<Datatype>) -> WireType {
        let mut rank = RankCtx::standalone(&WorldConfig::summit(1));
        let dt = build(&mut rank).unwrap();
        rank.registry().write().commit(dt).unwrap();
        WireType::new(rank.registry(), dt).unwrap()
    }

    fn filled_device(ctx: &GpuContext, n: usize) -> GpuPtr {
        let p = ctx.malloc(n).unwrap();
        let data: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
        ctx.memory().poke(p, &data).unwrap();
        p
    }

    #[test]
    fn copy_per_block_is_functionally_correct() {
        let (ctx, mut stream, mut clock) = setup();
        let wt = wire(|r| r.type_vector(3, 2, 4, MPI_BYTE));
        let src = filled_device(&ctx, 12);
        let dst = ctx.malloc(6).unwrap();
        let p = VendorProfile::openmpi();
        let method = baseline_gpu_xfer(
            &p,
            (&mut stream, &mut clock),
            &wt,
            src,
            1,
            dst,
            PackDir::Pack,
        )
        .unwrap();
        assert_eq!(method, BaselineMethod::CopyPerBlock);
        assert_eq!(ctx.memory().peek(dst, 6).unwrap(), vec![0, 1, 4, 5, 8, 9]);
        // one memcpy per block
        assert_eq!(stream.stats().memcpys, 3);
    }

    #[test]
    fn unpack_inverts_pack() {
        let (ctx, mut stream, mut clock) = setup();
        let wt = wire(|r| r.type_vector(4, 8, 16, MPI_BYTE));
        let src = filled_device(&ctx, 64);
        let packed = ctx.malloc(32).unwrap();
        let out = ctx.malloc(64).unwrap();
        let p = VendorProfile::openmpi();
        let on = (&mut stream, &mut clock);
        baseline_gpu_xfer(&p, on, &wt, src, 1, packed, PackDir::Pack).unwrap();
        let on = (&mut stream, &mut clock);
        baseline_gpu_xfer(&p, on, &wt, out, 1, packed, PackDir::Unpack).unwrap();
        // every byte covered by the type matches the source
        let want = ctx.memory().peek(src, 64).unwrap();
        let got = ctx.memory().peek(out, 64).unwrap();
        wt.for_each_block(1, |off, len, _| {
            let o = off as usize;
            assert_eq!(&got[o..o + len], &want[o..o + len]);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn spectrum_is_slower_than_mvapich_per_block() {
        let (ctx, _, _) = setup();
        // an hvector, so mvapich also takes copy-per-block
        let wt = wire(|r| r.type_create_hvector(64, 4, 64, MPI_BYTE));
        let src = filled_device(&ctx, 64 * 64);
        let dst = ctx.malloc(256).unwrap();

        let mut times = Vec::new();
        for p in [
            VendorProfile::mvapich(),
            VendorProfile::openmpi(),
            VendorProfile::spectrum(),
        ] {
            let mut stream = Stream::new(ctx.clone(), GpuCostModel::summit_v100());
            let mut clock = SimClock::new();
            let on = (&mut stream, &mut clock);
            baseline_gpu_xfer(&p, on, &wt, src, 1, dst, PackDir::Pack).unwrap();
            times.push(clock.now());
        }
        assert!(
            times[0] < times[1],
            "mvapich {} < openmpi {}",
            times[0],
            times[1]
        );
        assert!(
            times[1] < times[2],
            "openmpi {} < spectrum {}",
            times[1],
            times[2]
        );
    }

    #[test]
    fn mvapich_vector_uses_specialized_kernel() {
        let (ctx, mut stream, mut clock) = setup();
        // the root is a vector
        let wt = wire(|r| r.type_vector(256, 4, 64, MPI_BYTE));
        let src = filled_device(&ctx, 64 * 256);
        let dst = ctx.malloc(1024).unwrap();
        let p = VendorProfile::mvapich();
        let method = baseline_gpu_xfer(
            &p,
            (&mut stream, &mut clock),
            &wt,
            src,
            1,
            dst,
            PackDir::Pack,
        )
        .unwrap();
        assert_eq!(method, BaselineMethod::SpecializedVector);
        assert_eq!(stream.stats().kernel_launches, 1);
        assert_eq!(stream.stats().memcpys, 0);
        // functional check: first block
        assert_eq!(ctx.memory().peek(dst, 4).unwrap(), vec![0, 1, 2, 3]);
        // far faster than copy-per-block would be (256 blocks × ≥5 µs)
        assert!(clock.now().as_us_f64() < 100.0);
    }

    #[test]
    fn contiguous_single_copy_and_spectrum_chunks() {
        let (ctx, _, _) = setup();
        let wt = wire(|r| r.type_contiguous(1 << 20, MPI_BYTE));
        let src = filled_device(&ctx, 1 << 20);
        let dst = ctx.malloc(1 << 20).unwrap();

        let mut stream = Stream::new(ctx.clone(), GpuCostModel::summit_v100());
        let mut clock = SimClock::new();
        let p = VendorProfile::openmpi();
        let on = (&mut stream, &mut clock);
        let m = baseline_gpu_xfer(&p, on, &wt, src, 1, dst, PackDir::Pack).unwrap();
        assert_eq!(m, BaselineMethod::Contiguous);
        assert_eq!(stream.stats().memcpys, 1);

        let mut stream = Stream::new(ctx.clone(), GpuCostModel::summit_v100());
        let mut clock2 = SimClock::new();
        let p = VendorProfile::spectrum();
        let on = (&mut stream, &mut clock2);
        baseline_gpu_xfer(&p, on, &wt, src, 1, dst, PackDir::Pack).unwrap();
        // 1 MiB / 128 KiB chunks = 8 copies, each synchronized
        assert_eq!(stream.stats().memcpys, 8);
        assert_eq!(stream.stats().syncs, 8);
        assert!(clock2.now() > clock.now());
    }

    #[test]
    fn mvapich_contiguous_pack_returns_early() {
        let (ctx, mut stream, mut clock) = setup();
        let wt = wire(|r| r.type_contiguous(4096, MPI_BYTE));
        let src = filled_device(&ctx, 4096);
        let dst = ctx.malloc(4096).unwrap();
        let p = VendorProfile::mvapich();
        baseline_gpu_xfer(
            &p,
            (&mut stream, &mut clock),
            &wt,
            src,
            1,
            dst,
            PackDir::Pack,
        )
        .unwrap();
        // the bug: no synchronize issued, stream still busy at return
        assert_eq!(stream.stats().syncs, 0);
        assert!(stream.busy_until() > clock.now());
    }

    #[test]
    fn incount_repeats_at_extent() {
        let (ctx, mut stream, mut clock) = setup();
        let wt = wire(|r| r.type_vector(2, 2, 4, MPI_BYTE));
        assert_eq!(wt.extent, 6);
        let src = filled_device(&ctx, 16);
        let dst = ctx.malloc(8).unwrap();
        let p = VendorProfile::openmpi();
        baseline_gpu_xfer(
            &p,
            (&mut stream, &mut clock),
            &wt,
            src,
            2,
            dst,
            PackDir::Pack,
        )
        .unwrap();
        assert_eq!(
            ctx.memory().peek(dst, 8).unwrap(),
            vec![0, 1, 4, 5, 6, 7, 10, 11]
        );
    }

    #[test]
    fn host_pack_time_scales() {
        let p = VendorProfile::openmpi();
        let small = p.host_pack_time(1024, 1);
        let many_segs = p.host_pack_time(1024, 256);
        assert!(many_segs > small);
    }

    #[test]
    fn table1_profiles() {
        let all = VendorProfile::all();
        assert_eq!(all[0].id, VendorId::Mvapich);
        assert_eq!(all[1].id, VendorId::OpenMpi);
        assert_eq!(all[2].id, VendorId::SpectrumMpi);
        assert_eq!(all[2].version, "10.3.1.2");
        let labels: Vec<&str> = all.iter().map(|p| p.id.label()).collect();
        assert_eq!(labels, ["mvapich", "openmpi", "spectrum"]);
    }
}
