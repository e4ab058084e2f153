//! Analytic cost model for simulated GPU operations.
//!
//! Every timed quantity in the reproduction flows through this module. The
//! constants are calibrated to the paper's Summit measurements (Section 6,
//! Figs. 8–9):
//!
//! * `cudaMemcpyAsync` + `cudaStreamSynchronize` latency floor ≈ **11 µs**
//!   for D2H/H2D (Fig. 8a), decomposed here as 5 µs async-call overhead +
//!   5 µs synchronize overhead + 1 µs copy-engine setup;
//! * kernel launch ≈ **4.5 µs** (Fig. 8c);
//! * device-side pack kernel peak ≈ **212 GB/s** pack / **202 GB/s** unpack,
//!   with the coalescing knee at a **32 B** contiguous block (Fig. 9);
//! * one-shot (mapped-host) pack peak ≈ **32.5 GB/s** pack / **39 GB/s**
//!   unpack, knee at **128 B** (Fig. 9);
//! * D2H/H2D engine bandwidth ≈ 25 GB/s (the 80 µs D2H+H2D gap at 1 MiB in
//!   Fig. 8b).
//!
//! The model prices a pack/unpack kernel as
//!
//! ```text
//! t = max(t_min, total_bytes / (peak × eff_block × eff_util × eff_word))
//! eff_block = min(1, block_bytes / knee)          // coalescing
//! eff_util  = total / (total + half_util_bytes)   // occupancy ramp
//! eff_word  = f(W)                                // load width (ablation)
//! ```
//!
//! which reproduces the paper's qualitative findings: larger objects are
//! faster (better utilization), larger contiguous blocks are faster up to
//! the knee (coalescing), and unpack is slower than pack (uncoalesced
//! writes vs uncoalesced reads).

use crate::clock::SimTime;
use crate::memory::MemSpace;

/// Direction classification of a plain memory copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CopyKind {
    /// Host → device.
    H2D,
    /// Device → host.
    D2H,
    /// Device → device (same GPU).
    D2D,
    /// Host → host.
    H2H,
}

impl CopyKind {
    /// Infer the copy kind from the two endpoint spaces, as
    /// `cudaMemcpyDefault` does with unified addressing.
    pub fn infer(dst: MemSpace, src: MemSpace) -> CopyKind {
        match (dst.on_host(), src.on_host()) {
            (false, true) => CopyKind::H2D,
            (true, false) => CopyKind::D2H,
            (false, false) => CopyKind::D2D,
            (true, true) => CopyKind::H2H,
        }
    }
}

/// Whether a datatype kernel gathers into a contiguous buffer (pack) or
/// scatters out of one (unpack). Unpack is priced slower: its strided side
/// is the *write* side, and uncoalesced writes cost more than uncoalesced
/// reads (Section 6.2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PackDir {
    /// Gather strided → contiguous.
    Pack,
    /// Scatter contiguous → strided.
    Unpack,
}

impl PackDir {
    /// `(dst, src)` of one copy between a strided and a packed location:
    /// the one place the direction swaps the ends.
    #[inline]
    pub fn ends<T>(self, strided: T, packed: T) -> (T, T) {
        match self {
            PackDir::Pack => (packed, strided),
            PackDir::Unpack => (strided, packed),
        }
    }
}

/// Where the contiguous side of a pack/unpack lives. Determines whether the
/// kernel runs at HBM rates ("device" method) or interconnect rates
/// ("one-shot" method into mapped host memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PackTarget {
    /// Contiguous buffer in device global memory.
    Device,
    /// Contiguous buffer in mapped (zero-copy) host memory.
    MappedHost,
}

/// Calibrated cost parameters for one simulated GPU + driver stack.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuCostModel {
    /// CPU-side overhead of one kernel launch (`cudaLaunchKernel`).
    pub kernel_launch_overhead: SimTime,
    /// CPU-side overhead of one `cudaMemcpyAsync` call.
    pub memcpy_async_overhead: SimTime,
    /// CPU-side overhead of `cudaStreamSynchronize` (paid even if the
    /// stream is already idle).
    pub stream_sync_overhead: SimTime,
    /// Copy-engine setup time per transfer (paid on the GPU timeline).
    pub copy_engine_setup: SimTime,
    /// Extra copy-engine time per row of a 2D/3D strided DMA transfer.
    pub copy_engine_row_overhead: SimTime,
    /// Host→device engine bandwidth, bytes per nanosecond.
    pub h2d_bpns: f64,
    /// Device→host engine bandwidth, bytes per nanosecond.
    pub d2h_bpns: f64,
    /// Device→device copy bandwidth, bytes per nanosecond.
    pub d2d_bpns: f64,
    /// Host→host copy bandwidth, bytes per nanosecond.
    pub h2h_bpns: f64,
    /// Peak device-method pack bandwidth, bytes/ns (212 on Summit).
    pub device_pack_peak_bpns: f64,
    /// Peak device-method unpack bandwidth, bytes/ns (202 on Summit).
    pub device_unpack_peak_bpns: f64,
    /// Peak one-shot pack bandwidth into mapped host memory, bytes/ns (32.5).
    pub oneshot_pack_peak_bpns: f64,
    /// Peak one-shot unpack bandwidth from mapped host memory, bytes/ns (39).
    pub oneshot_unpack_peak_bpns: f64,
    /// Contiguous-block size at which device-method coalescing saturates (32 B).
    pub device_coalesce_knee: usize,
    /// Contiguous-block size at which one-shot coalescing saturates (128 B).
    pub oneshot_coalesce_knee: usize,
    /// Object size at which a kernel reaches half of peak utilization.
    pub half_utilization_bytes: usize,
    /// Minimum on-GPU execution time of any kernel.
    pub kernel_min_exec: SimTime,
    /// CPU cost of a fresh `cudaMalloc`/`cudaHostAlloc` (why TEMPI pools
    /// its intermediate buffers).
    pub alloc_overhead: SimTime,
}

impl GpuCostModel {
    /// Calibration for a Summit node (V100 + POWER9, CUDA 11.0.221,
    /// driver 418.116.00) — the platform of Figs. 8–12.
    pub fn summit_v100() -> Self {
        GpuCostModel {
            kernel_launch_overhead: SimTime::from_us_f64(4.5),
            memcpy_async_overhead: SimTime::from_us(5),
            stream_sync_overhead: SimTime::from_us(5),
            copy_engine_setup: SimTime::from_us(1),
            copy_engine_row_overhead: SimTime::from_ns(100),
            h2d_bpns: 22.0,
            d2h_bpns: 22.0,
            d2d_bpns: 700.0,
            h2h_bpns: 20.0,
            device_pack_peak_bpns: 212.0,
            device_unpack_peak_bpns: 202.0,
            oneshot_pack_peak_bpns: 32.5,
            oneshot_unpack_peak_bpns: 39.0,
            device_coalesce_knee: 32,
            oneshot_coalesce_knee: 128,
            half_utilization_bytes: 128 << 10,
            kernel_min_exec: SimTime::from_us(2),
            alloc_overhead: SimTime::from_us(100),
        }
    }

    /// Calibration for the paper's GTX 1070 workstation (openmpi / mvapich
    /// single-node platforms). Lower link and memory bandwidth, slightly
    /// lower driver overheads (x86 vs POWER9).
    pub fn workstation_gtx1070() -> Self {
        GpuCostModel {
            kernel_launch_overhead: SimTime::from_us_f64(3.0),
            memcpy_async_overhead: SimTime::from_us(3),
            stream_sync_overhead: SimTime::from_us(3),
            copy_engine_setup: SimTime::from_us(1),
            copy_engine_row_overhead: SimTime::from_ns(120),
            h2d_bpns: 12.0,
            d2h_bpns: 12.0,
            d2d_bpns: 220.0,
            h2h_bpns: 15.0,
            device_pack_peak_bpns: 120.0,
            device_unpack_peak_bpns: 110.0,
            oneshot_pack_peak_bpns: 10.0,
            oneshot_unpack_peak_bpns: 11.0,
            device_coalesce_knee: 32,
            oneshot_coalesce_knee: 128,
            half_utilization_bytes: 64 << 10,
            kernel_min_exec: SimTime::from_us(2),
            alloc_overhead: SimTime::from_us(80),
        }
    }

    /// Engine bandwidth (bytes/ns) for a copy kind. Exposed so online
    /// calibration can compare the copy engine against wire bandwidths
    /// (the pipelined-chunk crossover) without re-deriving it from timed
    /// transfers.
    pub fn copy_engine_bpns(&self, kind: CopyKind) -> f64 {
        match kind {
            CopyKind::H2D => self.h2d_bpns,
            CopyKind::D2H => self.d2h_bpns,
            CopyKind::D2D => self.d2d_bpns,
            CopyKind::H2H => self.h2h_bpns,
        }
    }

    /// Engine (GPU-timeline) duration of a plain copy of `bytes`.
    pub fn copy_engine_time(&self, kind: CopyKind, bytes: usize) -> SimTime {
        let bw = self.copy_engine_bpns(kind);
        self.copy_engine_setup + SimTime::from_ns_f64(bytes as f64 / bw)
    }

    /// Engine duration of a strided 2D/3D DMA copy (`cudaMemcpy2D/3D`
    /// style): a per-row overhead plus the payload at engine bandwidth.
    pub fn copy_engine_time_2d(&self, kind: CopyKind, row_bytes: usize, rows: usize) -> SimTime {
        let linear = self.copy_engine_time(kind, row_bytes * rows);
        linear + self.copy_engine_row_overhead * rows as u64
    }

    /// Coalescing efficiency for a contiguous block of `block_bytes`
    /// accessed on its strided side, for the given target.
    pub fn coalesce_efficiency(&self, target: PackTarget, block_bytes: usize) -> f64 {
        let knee = match target {
            PackTarget::Device => self.device_coalesce_knee,
            PackTarget::MappedHost => self.oneshot_coalesce_knee,
        } as f64;
        (block_bytes as f64 / knee).min(1.0)
    }

    /// GPU-utilization ramp: small objects cannot fill the machine.
    pub fn utilization(&self, total_bytes: usize) -> f64 {
        let n = total_bytes as f64;
        n / (n + self.half_utilization_bytes as f64)
    }

    /// Efficiency multiplier for the kernel's load/store word size `W`
    /// (1, 2, 4, 8 or 16 bytes). Wide words reduce instruction counts;
    /// the effect is secondary to coalescing. Exposed for the word-size
    /// ablation.
    pub fn word_efficiency(&self, word_bytes: usize) -> f64 {
        match word_bytes {
            0 | 1 => 0.55,
            2 => 0.70,
            3 => 0.70,
            4..=7 => 0.85,
            _ => 1.0,
        }
    }

    /// Peak bandwidth (bytes/ns) of a pack/unpack kernel for the given
    /// direction and target.
    pub fn pack_peak_bpns(&self, dir: PackDir, target: PackTarget) -> f64 {
        match (dir, target) {
            (PackDir::Pack, PackTarget::Device) => self.device_pack_peak_bpns,
            (PackDir::Unpack, PackTarget::Device) => self.device_unpack_peak_bpns,
            (PackDir::Pack, PackTarget::MappedHost) => self.oneshot_pack_peak_bpns,
            (PackDir::Unpack, PackTarget::MappedHost) => self.oneshot_unpack_peak_bpns,
        }
    }

    /// On-GPU execution time of a pack/unpack kernel moving `total_bytes`
    /// organized as contiguous blocks of `block_bytes`, using `word_bytes`
    /// loads/stores. Excludes launch and synchronize overheads, which the
    /// stream machinery adds. Assumes a ≤3-D kernel; see
    /// [`GpuCostModel::pack_kernel_time_dims`] for higher-rank objects.
    pub fn pack_kernel_time(
        &self,
        dir: PackDir,
        target: PackTarget,
        total_bytes: usize,
        block_bytes: usize,
        word_bytes: usize,
    ) -> SimTime {
        self.pack_kernel_time_dims(dir, target, total_bytes, block_bytes, word_bytes, 3)
    }

    /// [`GpuCostModel::pack_kernel_time`] with an explicit object rank:
    /// dimensions beyond the 3 the hardware grid covers are per-thread
    /// outer loops with index arithmetic, each costing ~15% of throughput
    /// (this is what makes un-canonicalized trees with spurious count-1
    /// dimensions slower even when their block size is unchanged).
    pub fn pack_kernel_time_dims(
        &self,
        dir: PackDir,
        target: PackTarget,
        total_bytes: usize,
        block_bytes: usize,
        word_bytes: usize,
        ndims: usize,
    ) -> SimTime {
        let part = (total_bytes, block_bytes, word_bytes, ndims);
        self.pack_kernel_time_parts(dir, target, total_bytes, [part])
    }

    /// On-GPU execution time of one kernel that moves several strided
    /// objects, `total_bytes` between them: each part — `(bytes, block
    /// bytes, word bytes, rank)` — runs at the bandwidth its own
    /// coalescing, word size and rank allow, and all of them at the
    /// utilization of the whole transfer. One part is
    /// [`GpuCostModel::pack_kernel_time_dims`].
    pub fn pack_kernel_time_parts(
        &self,
        dir: PackDir,
        target: PackTarget,
        total_bytes: usize,
        parts: impl IntoIterator<Item = (usize, usize, usize, usize)>,
    ) -> SimTime {
        if total_bytes == 0 {
            return self.kernel_min_exec;
        }
        let peak = self.pack_peak_bpns(dir, target);
        let ns: f64 = parts
            .into_iter()
            .map(|(bytes, block_bytes, word_bytes, ndims)| {
                let dims_eff = 1.0 / (1.0 + 0.15 * ndims.saturating_sub(3) as f64);
                let eff = self.coalesce_efficiency(target, block_bytes)
                    * self.utilization(total_bytes)
                    * self.word_efficiency(word_bytes)
                    * dims_eff;
                bytes as f64 / (peak * eff).max(1e-6)
            })
            .sum();
        self.kernel_min_exec.max(SimTime::from_ns_f64(ns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> GpuCostModel {
        GpuCostModel::summit_v100()
    }

    #[test]
    fn memcpy_floor_is_11us_with_call_and_sync() {
        // call (5) + sync (5) + engine setup (1) = 11 µs floor for a tiny copy
        let m = m();
        let total =
            m.memcpy_async_overhead + m.stream_sync_overhead + m.copy_engine_time(CopyKind::D2H, 1);
        let us = total.as_us_f64();
        assert!((us - 11.0).abs() < 0.1, "floor was {us} µs");
    }

    #[test]
    fn one_mib_h2d_is_tens_of_us() {
        let m = m();
        let t = m.copy_engine_time(CopyKind::H2D, 1 << 20).as_us_f64();
        // 1 MiB / 22 GB/s ≈ 48 µs + 1 µs setup
        assert!(t > 45.0 && t < 52.0, "got {t} µs");
    }

    #[test]
    fn copy_kind_inference() {
        use MemSpace::*;
        assert_eq!(CopyKind::infer(Device, Host), CopyKind::H2D);
        assert_eq!(CopyKind::infer(Host, Device), CopyKind::D2H);
        assert_eq!(CopyKind::infer(Device, Device), CopyKind::D2D);
        assert_eq!(CopyKind::infer(Pinned, Mapped), CopyKind::H2H);
        // mapped memory counts as host-side for engine transfers
        assert_eq!(CopyKind::infer(Device, Mapped), CopyKind::H2D);
    }

    #[test]
    fn device_pack_reaches_near_peak_for_large_coalesced_objects() {
        let m = m();
        let t = m.pack_kernel_time(PackDir::Pack, PackTarget::Device, 64 << 20, 512, 8);
        let bw = (64 << 20) as f64 / t.as_ns_f64();
        assert!(bw > 200.0, "bw = {bw} B/ns");
        assert!(bw <= 212.0 + 1e-9);
    }

    #[test]
    fn oneshot_pack_capped_at_interconnect_rate() {
        let m = m();
        let t = m.pack_kernel_time(PackDir::Pack, PackTarget::MappedHost, 64 << 20, 512, 8);
        let bw = (64 << 20) as f64 / t.as_ns_f64();
        assert!(bw > 30.0 && bw <= 32.5 + 1e-9, "bw = {bw}");
    }

    #[test]
    fn unpack_is_slower_than_pack() {
        let m = m();
        for target in [PackTarget::Device, PackTarget::MappedHost] {
            // device unpack slower; one-shot unpack actually faster per Fig. 9
            let pack = m.pack_kernel_time(PackDir::Pack, target, 4 << 20, 64, 8);
            let unpack = m.pack_kernel_time(PackDir::Unpack, target, 4 << 20, 64, 8);
            if target == PackTarget::Device {
                assert!(unpack > pack);
            } else {
                assert!(unpack < pack); // 39 GB/s > 32.5 GB/s, per the paper
            }
        }
    }

    #[test]
    fn coalescing_knees_match_paper() {
        let m = m();
        // device knee at 32 B: efficiency saturates there
        assert!(m.coalesce_efficiency(PackTarget::Device, 32) == 1.0);
        assert!(m.coalesce_efficiency(PackTarget::Device, 16) == 0.5);
        assert!(m.coalesce_efficiency(PackTarget::Device, 64) == 1.0);
        // one-shot knee at 128 B
        assert!(m.coalesce_efficiency(PackTarget::MappedHost, 64) == 0.5);
        assert!(m.coalesce_efficiency(PackTarget::MappedHost, 128) == 1.0);
    }

    #[test]
    fn small_blocks_hurt_bandwidth() {
        let m = m();
        let t4 = m.pack_kernel_time(PackDir::Pack, PackTarget::Device, 1 << 20, 4, 4);
        let t512 = m.pack_kernel_time(PackDir::Pack, PackTarget::Device, 1 << 20, 512, 4);
        assert!(t4 > t512 * 4, "t4={t4}, t512={t512}");
    }

    #[test]
    fn larger_objects_get_better_utilization() {
        let m = m();
        let small = m.utilization(1 << 10);
        let big = m.utilization(16 << 20);
        assert!(small < 0.01);
        assert!(big > 0.98);
    }

    #[test]
    fn kernel_time_has_floor() {
        let m = m();
        assert_eq!(
            m.pack_kernel_time(PackDir::Pack, PackTarget::Device, 0, 0, 1),
            m.kernel_min_exec
        );
        assert_eq!(
            m.pack_kernel_time(PackDir::Pack, PackTarget::Device, 64, 64, 8),
            m.kernel_min_exec
        );
    }

    #[test]
    fn word_efficiency_monotone() {
        let m = m();
        let ws: Vec<f64> = [1, 2, 4, 8, 16]
            .iter()
            .map(|&w| m.word_efficiency(w))
            .collect();
        for pair in ws.windows(2) {
            assert!(pair[0] <= pair[1]);
        }
        assert_eq!(m.word_efficiency(8), 1.0);
    }

    #[test]
    fn strided_dma_pays_per_row() {
        let m = m();
        let linear = m.copy_engine_time(CopyKind::D2H, 1 << 20);
        let strided = m.copy_engine_time_2d(CopyKind::D2H, 4, 262_144);
        assert!(strided > linear * 1_5 / 10, "rows must cost extra");
        assert!(strided > linear);
    }

    #[test]
    fn extra_dimensions_cost_throughput() {
        let m = m();
        let t3 = m.pack_kernel_time_dims(PackDir::Pack, PackTarget::Device, 1 << 20, 64, 8, 3);
        let t4 = m.pack_kernel_time_dims(PackDir::Pack, PackTarget::Device, 1 << 20, 64, 8, 4);
        let t6 = m.pack_kernel_time_dims(PackDir::Pack, PackTarget::Device, 1 << 20, 64, 8, 6);
        assert!(t4 > t3, "4-D must be slower than 3-D");
        assert!(t6 > t4, "more outer loops, more cost");
        // and ranks ≤ 3 are all priced identically (hardware grid covers them)
        let t1 = m.pack_kernel_time_dims(PackDir::Pack, PackTarget::Device, 1 << 20, 64, 8, 1);
        assert_eq!(t1, t3);
        // the 3-arg wrapper is the 3-D price
        assert_eq!(
            m.pack_kernel_time(PackDir::Pack, PackTarget::Device, 1 << 20, 64, 8),
            t3
        );
    }

    #[test]
    fn workstation_preset_is_uniformly_slower_hardware() {
        let summit = GpuCostModel::summit_v100();
        let ws = GpuCostModel::workstation_gtx1070();
        assert!(ws.device_pack_peak_bpns < summit.device_pack_peak_bpns);
        assert!(ws.oneshot_pack_peak_bpns < summit.oneshot_pack_peak_bpns);
        assert!(ws.h2d_bpns < summit.h2d_bpns);
        // but the x86 driver stack has lower call overheads
        assert!(ws.memcpy_async_overhead < summit.memcpy_async_overhead);
        assert!(ws.kernel_launch_overhead < summit.kernel_launch_overhead);
    }
}
