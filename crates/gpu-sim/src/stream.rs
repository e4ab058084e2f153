//! Streams: in-order asynchronous execution with virtual timing.
//!
//! A [`Stream`] models one CUDA stream. Submitting work costs the *calling
//! CPU* its API overhead immediately (advancing the caller's [`SimClock`]);
//! the work itself occupies the *GPU timeline*, tracked as the stream's
//! `busy_until` instant. [`Stream::synchronize`] is the one join of the
//! two timelines: there are no events, since no caller orders one stream
//! after another or times a span on the GPU lane alone.
//!
//! The functional side effect of an operation (bytes actually moving) is
//! applied at submission time. This is sound because the simulator executes
//! each rank's program in order — virtual timestamps, not execution order,
//! carry all performance information.

use std::sync::Arc;

use tempi_trace::{Tracer, LANE_GPU};

use crate::clock::{SimClock, SimTime};
use crate::cost::{CopyKind, GpuCostModel};
use crate::error::{GpuError, GpuResult};
use crate::fault::FaultSite;
use crate::kernel::LaunchConfig;
use crate::memory::{CopyRule, GpuContext, GpuPtr, Memory};

/// Cumulative counters of work submitted to a stream, for tests and
/// reporting (e.g. the baseline copy-per-block implementations are verified
/// to issue one memcpy per contiguous block).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Number of `memcpy_async` calls.
    pub memcpys: u64,
    /// Number of strided (2D) DMA copies.
    pub memcpys_2d: u64,
    /// Number of kernel launches.
    pub kernel_launches: u64,
    /// Number of synchronize calls.
    pub syncs: u64,
    /// Total payload bytes moved by copies (not kernels).
    pub copy_bytes: u64,
}

/// A simulated CUDA stream bound to one [`GpuContext`].
pub struct Stream {
    ctx: GpuContext,
    // Shared, not owned: the send hot path hands the model to per-call
    // cost estimators, and an Arc bump must be all that costs.
    cost: Arc<GpuCostModel>,
    busy_until: SimTime,
    stats: StreamStats,
    // Off by default: every submit pays exactly one branch on the tracer.
    tracer: Tracer,
    trace_pid: u32,
}

impl Stream {
    /// Create a stream on `ctx` priced by `cost`: a fresh model, or one
    /// shared with other streams.
    pub fn new(ctx: GpuContext, cost: impl Into<Arc<GpuCostModel>>) -> Self {
        Stream {
            ctx,
            cost: cost.into(),
            busy_until: SimTime::ZERO,
            stats: StreamStats::default(),
            tracer: Tracer::off(),
            trace_pid: 0,
        }
    }

    /// Attach a tracer; submitted work appears as complete events on the
    /// GPU lane of process `pid` (the owning MPI world rank).
    pub fn set_tracer(&mut self, tracer: Tracer, pid: u32) {
        self.tracer = tracer;
        self.trace_pid = pid;
    }

    /// The context this stream submits to.
    pub fn context(&self) -> &GpuContext {
        &self.ctx
    }

    /// The cost model pricing this stream's work.
    pub fn cost_model(&self) -> &GpuCostModel {
        &self.cost
    }

    /// Shared handle to the cost model, for callers that need to keep the
    /// model alive past the stream borrow without copying its tables.
    pub fn cost_model_shared(&self) -> Arc<GpuCostModel> {
        Arc::clone(&self.cost)
    }

    /// Instant at which all currently submitted work completes.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Counters of submitted work.
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// Reset counters (between benchmark repetitions).
    pub fn reset_stats(&mut self) {
        self.stats = StreamStats::default();
    }

    /// Reset the stream's virtual timeline to t = 0. Must accompany a
    /// [`SimClock::reset`] of the owning agent's clock — otherwise the
    /// next synchronize waits on a completion instant from the previous
    /// timeline.
    pub fn reset_timeline(&mut self) {
        self.busy_until = SimTime::ZERO;
    }

    fn enqueue(&mut self, clock: &SimClock, gpu_time: SimTime) -> SimTime {
        let start = self.busy_until.max(clock.now());
        self.busy_until = start + gpu_time;
        start
    }

    /// Record an enqueued operation as a complete event on the GPU lane.
    /// Start and duration are both known at submit time (the stream model
    /// computes them), so the GPU timeline traces as `X` events.
    #[inline]
    fn trace_gpu(
        &self,
        name: &str,
        start: SimTime,
        dur: SimTime,
        args: impl FnOnce() -> tempi_trace::Args,
    ) {
        self.tracer.complete(
            self.trace_pid,
            LANE_GPU,
            "gpu",
            name,
            start.as_ps(),
            dur.as_ps(),
            args,
        );
    }

    /// Fault-injection check for an async stream operation, run under the
    /// memory lock the caller already holds. Like a real failed submission,
    /// an injected fault leaves the clock, the stream timeline and the
    /// stats untouched.
    fn injected_fault(mem: &Memory, site: FaultSite, op: &str) -> GpuResult<()> {
        if mem.fault_injector().is_some_and(|f| f.should_fail(site)) {
            return Err(GpuError::StreamFault { op: op.to_string() });
        }
        Ok(())
    }

    /// `cudaMemcpyAsync`: copy `len` bytes from `src` to `dst`, inferring
    /// the transfer kind from the endpoint address spaces.
    ///
    /// Costs the caller the async-call overhead now and occupies the GPU
    /// copy engine for the modeled transfer duration. Validates the same
    /// things CUDA does: bounds, liveness, and that a D2D copy does not
    /// involve pageable memory on its device-pointer side.
    pub fn memcpy_async(
        &mut self,
        clock: &mut SimClock,
        dst: GpuPtr,
        src: GpuPtr,
        len: usize,
    ) -> GpuResult<CopyKind> {
        let kind = {
            let mut mem = self.ctx.memory();
            let d_space = mem.space_of(dst)?;
            let s_space = mem.space_of(src)?;
            Self::injected_fault(&mem, FaultSite::Copy, "memcpy_async")?;
            mem.copier(CopyRule::Dma, dst, src)
                .copy(dst.offset, src.offset, len)?;
            CopyKind::infer(d_space, s_space)
        };
        clock.advance(self.cost.memcpy_async_overhead);
        let dur = self.cost.copy_engine_time(kind, len);
        let start = self.enqueue(clock, dur);
        self.trace_gpu("memcpy", start, dur, || {
            vec![("kind", format!("{kind:?}").into()), ("bytes", len.into())]
        });
        self.stats.memcpys += 1;
        self.stats.copy_bytes += len as u64;
        Ok(kind)
    }

    /// `cudaMemcpy2DAsync`: copy a `width × height` region between two
    /// pitched layouts. The DMA engine handles the stride, paying a per-row
    /// overhead — the packing strategy of Wang et al. and the paper's
    /// future-work DMA path.
    #[allow(clippy::too_many_arguments)] // mirrors the CUDA signature
    pub fn memcpy_2d_async(
        &mut self,
        clock: &mut SimClock,
        dst: GpuPtr,
        dpitch: usize,
        src: GpuPtr,
        spitch: usize,
        width: usize,
        height: usize,
    ) -> GpuResult<CopyKind> {
        if width > dpitch || width > spitch {
            return Err(GpuError::InvalidLaunch {
                reason: format!(
                    "memcpy2d width {width} exceeds pitch (dpitch={dpitch}, spitch={spitch})"
                ),
            });
        }
        let kind = {
            let mut mem = self.ctx.memory();
            let d_space = mem.space_of(dst)?;
            let s_space = mem.space_of(src)?;
            Self::injected_fault(&mem, FaultSite::Copy, "memcpy_2d_async")?;
            let mut rows = mem.copier(CopyRule::Dma, dst, src);
            for row in 0..height {
                let (d, s) = (dst.offset + row * dpitch, src.offset + row * spitch);
                rows.copy(d, s, width)?;
            }
            CopyKind::infer(d_space, s_space)
        };
        clock.advance(self.cost.memcpy_async_overhead);
        let dur = self.cost.copy_engine_time_2d(kind, width, height);
        let start = self.enqueue(clock, dur);
        self.trace_gpu("memcpy2d", start, dur, || {
            vec![
                ("kind", format!("{kind:?}").into()),
                ("bytes", (width * height).into()),
                ("rows", height.into()),
            ]
        });
        self.stats.memcpys_2d += 1;
        self.stats.copy_bytes += (width * height) as u64;
        Ok(kind)
    }

    /// Launch a kernel.
    ///
    /// * `name` — for diagnostics.
    /// * `cfg` — grid/block geometry, validated against the device limits.
    /// * `exec_time` — on-GPU duration, priced by the caller via
    ///   [`GpuCostModel`] (kernel cost depends on access patterns only the
    ///   caller knows).
    /// * `body` — the functional effect; it may only touch device-accessible
    ///   memory through the `dev_*` accessors of [`Memory`].
    ///
    /// Costs the caller the launch overhead and occupies the GPU for
    /// `exec_time`.
    pub fn launch<F>(
        &mut self,
        clock: &mut SimClock,
        name: &str,
        cfg: LaunchConfig,
        exec_time: SimTime,
        body: F,
    ) -> GpuResult<()>
    where
        F: FnOnce(&mut Memory) -> GpuResult<()>,
    {
        self.launch_args(clock, name, cfg, exec_time, &[], body)
    }

    /// [`Stream::launch`] whose trace event also carries `args`: what the
    /// launch geometry does not say about the kernel's work.
    pub fn launch_args<F>(
        &mut self,
        clock: &mut SimClock,
        name: &str,
        cfg: LaunchConfig,
        exec_time: SimTime,
        args: &[(&'static str, u64)],
        body: F,
    ) -> GpuResult<()>
    where
        F: FnOnce(&mut Memory) -> GpuResult<()>,
    {
        self.ctx
            .props()
            .validate_launch(cfg.grid, cfg.block)
            .map_err(|reason| GpuError::InvalidLaunch { reason })?;
        {
            let mut mem = self.ctx.memory();
            Self::injected_fault(&mem, FaultSite::Kernel, name)?;
            body(&mut mem).map_err(|e| GpuError::KernelFault {
                kernel: name.to_string(),
                source: Box::new(e),
            })?;
        }
        clock.advance(self.cost.kernel_launch_overhead);
        let start = self.enqueue(clock, exec_time);
        self.trace_gpu(name, start, exec_time, || {
            let mut traced = vec![
                ("grid", format!("{:?}", cfg.grid).into()),
                ("block", format!("{:?}", cfg.block).into()),
            ];
            traced.extend(args.iter().map(|&(key, value)| (key, value.into())));
            traced
        });
        self.stats.kernel_launches += 1;
        Ok(())
    }

    /// `cudaStreamSynchronize`: block the caller until submitted work
    /// completes, then pay the synchronize-return overhead. The overhead is
    /// paid even when the stream is already idle (so an async copy plus a
    /// sync composes to the measured 11 µs floor).
    pub fn synchronize(&mut self, clock: &mut SimClock) {
        clock.advance_to(self.busy_until);
        clock.advance(self.cost.stream_sync_overhead);
        self.stats.syncs += 1;
    }

    /// Convenience: synchronous `cudaMemcpy` (async + synchronize).
    pub fn memcpy(
        &mut self,
        clock: &mut SimClock,
        dst: GpuPtr,
        src: GpuPtr,
        len: usize,
    ) -> GpuResult<CopyKind> {
        let kind = self.memcpy_async(clock, dst, src, len)?;
        self.synchronize(clock);
        Ok(kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceProps;
    use crate::kernel::Dim3;

    fn setup() -> (GpuContext, Stream, SimClock) {
        let ctx = GpuContext::new(DeviceProps::v100());
        let stream = Stream::new(ctx.clone(), GpuCostModel::summit_v100());
        (ctx, stream, SimClock::new())
    }

    #[test]
    fn memcpy_moves_bytes_and_time() {
        let (ctx, mut s, mut clock) = setup();
        let h = ctx.pinned_alloc(1024).unwrap();
        let d = ctx.malloc(1024).unwrap();
        ctx.memory().poke(h, &[9u8; 1024]).unwrap();

        let kind = s.memcpy(&mut clock, d, h, 1024).unwrap();
        assert_eq!(kind, CopyKind::H2D);
        assert_eq!(ctx.memory().peek(d, 1024).unwrap(), vec![9u8; 1024]);
        // floor (11 µs) + tiny payload
        let us = clock.now().as_us_f64();
        assert!((11.0..12.0).contains(&us), "elapsed {us} µs");
    }

    #[test]
    fn async_copies_pipeline_on_engine() {
        let (ctx, mut s, mut clock) = setup();
        let a = ctx.malloc(1 << 20).unwrap();
        let b = ctx.malloc(1 << 20).unwrap();
        // Submit 4 async copies: CPU pays 4×5 µs; engine runs them back to
        // back. One final sync joins.
        for _ in 0..4 {
            s.memcpy_async(&mut clock, b, a, 1 << 20).unwrap();
        }
        let cpu_after_submit = clock.now().as_us_f64();
        assert!((cpu_after_submit - 20.0).abs() < 0.01);
        s.synchronize(&mut clock);
        // engine: 4 × (1 µs setup + 1 MiB / 700 B/ns ≈ 1.5 µs) ≈ 10 µs
        let total = clock.now().as_us_f64();
        assert!(total >= 25.0, "total {total} µs");
        assert_eq!(s.stats().memcpys, 4);
        assert_eq!(s.stats().copy_bytes, 4 << 20);
    }

    #[test]
    fn sync_on_idle_stream_still_costs_overhead() {
        let (_ctx, mut s, mut clock) = setup();
        s.synchronize(&mut clock);
        assert_eq!(clock.now(), SimTime::from_us(5));
        assert!(s.busy_until() <= clock.now());
    }

    #[test]
    fn launch_validates_geometry() {
        let (_ctx, mut s, mut clock) = setup();
        let bad = LaunchConfig {
            grid: Dim3::ONE,
            block: Dim3::new(2048, 1, 1),
        };
        let err = s
            .launch(&mut clock, "k", bad, SimTime::from_us(1), |_| Ok(()))
            .unwrap_err();
        assert!(matches!(err, GpuError::InvalidLaunch { .. }));
        // failed launch does not advance the clock or stats
        assert_eq!(clock.now(), SimTime::ZERO);
        assert_eq!(s.stats().kernel_launches, 0);
    }

    #[test]
    fn launch_runs_body_and_prices_time() {
        let (ctx, mut s, mut clock) = setup();
        let d = ctx.malloc(64).unwrap();
        let cfg = LaunchConfig {
            grid: Dim3::ONE,
            block: Dim3::new(64, 1, 1),
        };
        s.launch(&mut clock, "fill", cfg, SimTime::from_us(7), |mem| {
            mem.dev_write(d, &[1u8; 64])
        })
        .unwrap();
        assert_eq!(ctx.memory().peek(d, 64).unwrap(), vec![1u8; 64]);
        // launch overhead 4.5 µs on CPU
        assert!((clock.now().as_us_f64() - 4.5).abs() < 1e-9);
        s.synchronize(&mut clock);
        // busy_until = 4.5 + 7 = 11.5; wait to 11.5 then +5 µs sync return
        assert!((clock.now().as_us_f64() - 16.5).abs() < 1e-9);
    }

    #[test]
    fn kernel_fault_reports_kernel_name() {
        let (ctx, mut s, mut clock) = setup();
        let h = ctx.host_alloc(64).unwrap();
        let cfg = LaunchConfig {
            grid: Dim3::ONE,
            block: Dim3::new(32, 1, 1),
        };
        let err = s
            .launch(&mut clock, "bad_kernel", cfg, SimTime::ZERO, |mem| {
                mem.dev_write(h, &[0u8; 4]) // device write to pageable host
            })
            .unwrap_err();
        match err {
            GpuError::KernelFault { kernel, source } => {
                assert_eq!(kernel, "bad_kernel");
                assert!(matches!(*source, GpuError::NotDeviceAccessible { .. }));
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn injected_stream_faults_leave_clock_and_stats_untouched() {
        use crate::fault::{FaultSite, SiteInjector, SiteSpec};
        let (ctx, mut s, mut clock) = setup();
        let a = ctx.malloc(64).unwrap();
        let b = ctx.malloc(64).unwrap();
        let mut specs: [SiteSpec; FaultSite::COUNT] = Default::default();
        specs[FaultSite::Kernel as usize] = SiteSpec::at(&[0]);
        specs[FaultSite::Copy as usize] = SiteSpec::at(&[0]);
        ctx.set_fault_injector(Some(Arc::new(SiteInjector::new(5, specs))));
        let cfg = LaunchConfig {
            grid: Dim3::ONE,
            block: Dim3::new(32, 1, 1),
        };
        let err = s
            .launch(&mut clock, "pack", cfg, SimTime::from_us(1), |_| Ok(()))
            .unwrap_err();
        assert_eq!(err, GpuError::StreamFault { op: "pack".into() });
        assert!(err.is_transient());
        let err = s.memcpy_async(&mut clock, b, a, 64).unwrap_err();
        assert_eq!(
            err,
            GpuError::StreamFault {
                op: "memcpy_async".into()
            }
        );
        // injected failures behave like failed submissions: no time, no work
        assert_eq!(clock.now(), SimTime::ZERO);
        assert_eq!(s.stats(), StreamStats::default());
        // the scripted ordinals are spent, so both paths now succeed
        s.launch(&mut clock, "pack", cfg, SimTime::from_us(1), |_| Ok(()))
            .unwrap();
        s.memcpy_async(&mut clock, b, a, 64).unwrap();
    }

    #[test]
    fn memcpy2d_strided_functional_and_timed() {
        let (ctx, mut s, mut clock) = setup();
        let src = ctx.malloc(64).unwrap(); // 8 rows, pitch 8, width 4
        let dst = ctx.malloc(32).unwrap(); // packed: pitch 4
        let pattern: Vec<u8> = (0..64).map(|i| i as u8).collect();
        ctx.memory().poke(src, &pattern).unwrap();
        s.memcpy_2d_async(&mut clock, dst, 4, src, 8, 4, 8).unwrap();
        s.synchronize(&mut clock);
        let got = ctx.memory().peek(dst, 32).unwrap();
        let want: Vec<u8> = (0..8u8).flat_map(|r| r * 8..r * 8 + 4).collect();
        assert_eq!(got, want);
        assert_eq!(s.stats().memcpys_2d, 1);
    }

    #[test]
    fn memcpy2d_rejects_width_wider_than_pitch() {
        let (ctx, mut s, mut clock) = setup();
        let a = ctx.malloc(64).unwrap();
        let b = ctx.malloc(64).unwrap();
        assert!(matches!(
            s.memcpy_2d_async(&mut clock, a, 4, b, 8, 6, 4),
            Err(GpuError::InvalidLaunch { .. })
        ));
    }

    #[test]
    fn two_streams_overlap() {
        // two independent copies on two streams overlap: the joint
        // completion is far less than the serial sum
        let ctx = GpuContext::new(DeviceProps::v100());
        let cost = GpuCostModel::summit_v100();
        let mut s1 = Stream::new(ctx.clone(), cost.clone());
        let mut s2 = Stream::new(ctx.clone(), cost.clone());
        let mut clock = SimClock::new();
        let a = ctx.malloc(8 << 20).unwrap();
        let b = ctx.malloc(8 << 20).unwrap();
        let c = ctx.malloc(8 << 20).unwrap();
        s1.memcpy_async(&mut clock, b, a, 8 << 20).unwrap();
        s2.memcpy_async(&mut clock, c, a, 8 << 20).unwrap();
        let serial = cost.copy_engine_time(CopyKind::D2D, 8 << 20) * 2;
        let joint = s1.busy_until().max(s2.busy_until());
        assert!(joint < clock.now() + serial);
    }
}
