//! The TEMPI library state: commit pipeline, interposed `MPI_Pack` /
//! `MPI_Unpack`, and datatype-accelerated `MPI_Send` / `MPI_Recv`.
//!
//! One [`Tempi`] instance lives per rank (per process in the real library).
//! `MPI_Type_commit` runs the paper's three-step pipeline — translation
//! (Algs. 1–4), transformation to canonical form (Algs. 5–7), kernel
//! selection (Alg. 8 + §3.3) — in [`crate::commit`], which keeps the
//! resulting [`TypePlan`]. Pack/unpack and send/recv then dispatch on it.

use std::sync::Arc;

use gpu_sim::{CopyKind, CopyRule, GpuPtr, MemSpace, PackDir, SimTime};
use mpi_sim::{
    transfer_bytes, Datatype, MpiError, MpiResult, PartInfo, ProbeInfo, RankCtx, Status,
};
use tempi_trace::{Tracer, LANE_CPU};

use crate::buffers::{BufferPool, Lease};
use crate::commit::Commits;
pub use crate::commit::{CommitReport, TypePlan};
use crate::config::{Method, TempiConfig, TunerMode};
pub use crate::kernels::PlanKind;
use crate::kernels::{execute, execute_on_host, execute_range, for_each_run, KernelKind, Typed};
use crate::ladder::{Quarantine, Rung};
use crate::model::{pipeline_chunks, Choice, SendModel, Term, RING_SLOTS};
use crate::tuner::{BucketKey, Tuner, Workload};

/// Per-call cost of going through the interposed entry point (plan-cache
/// lookup, buffer bookkeeping). This is why the paper's contiguous and
/// mvapich-specialized-vector cases show speedups slightly *below* 1
/// (0.89×–0.98×): TEMPI does the same work plus this dispatch overhead.
const TEMPI_DISPATCH_OVERHEAD: SimTime = SimTime::from_ns(300);

/// Operation counters (tests + reporting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TempiStats {
    /// `MPI_Type_commit` interceptions that built a plan.
    pub commits: u64,
    /// Commits that found an existing plan.
    pub commit_cache_hits: u64,
    /// Interposed pack calls.
    pub pack_calls: u64,
    /// Interposed unpack calls.
    pub unpack_calls: u64,
    /// Accelerated sends using the device method (the run cut included).
    pub device_sends: u64,
    /// Accelerated sends using the one-shot method.
    pub oneshot_sends: u64,
    /// Accelerated sends using the staged method.
    pub staged_sends: u64,
    /// Sends that ran the §8 pipeline: the staged recipe in chunks.
    pub pipelined_sends: u64,
    /// Receives that consumed a pipelined multi-part transfer.
    pub pipelined_recvs: u64,
    /// Operations that fell through to the system MPI.
    pub fallbacks: u64,
    /// Sends that were downgraded to a different method after a transient
    /// failure (each also appends a [`mpi_sim::DegradeEvent`] to the rank's log).
    pub degraded_sends: u64,
    /// Pack/unpack operations whose kernel path was downgraded to the CPU
    /// copy path after a transient failure.
    pub degraded_xfers: u64,
    /// Operations abandoned because the communicator failed (`PeerGone`,
    /// `Revoked`, `CommFailed`, `Corrupted`). These are *not* degradations:
    /// no rung can route around a dead peer, so the error propagates to the
    /// caller, whose recovery path (revoke → agree → shrink) takes over.
    pub comm_failures: u64,
    /// Tuner decisions that were exploration probes (deliberately non-best
    /// methods run to refresh their calibration ratios).
    pub tuner_probes: u64,
    /// Tuner decisions served from a warm (memoized) bucket.
    pub tuner_bucket_hits: u64,
    /// Times the calibrated argmin changed a bucket's memoized method.
    pub tuner_method_switches: u64,
    /// Pool takes satisfied from a pooled buffer (mirror of
    /// [`crate::buffers::BufferPool::hits`], refreshed per operation).
    pub pool_hits: u64,
    /// Fresh pool allocations (mirror of
    /// [`crate::buffers::BufferPool::fresh_allocs`], refreshed per
    /// operation). `pool_hits / (pool_hits + pool_fresh_allocs)` is the
    /// reuse rate; steady state must not grow this counter.
    pub pool_fresh_allocs: u64,
    /// Retired: never incremented. A contiguous-with-padding transfer's
    /// plan is derived per call and kept nowhere, so there is no cache to
    /// hit; the field stays only while the repo benchmark still reads it.
    pub launch_cache_hits: u64,
}

/// The packed side of an `MPI_Pack` / `MPI_Unpack`: a buffer, its size in
/// bytes, and the call's cursor into it.
type Packed<'a> = (GpuPtr, usize, &'a mut usize);

/// Per-rank TEMPI library state.
pub struct Tempi {
    /// Configuration switches (ablations, forced methods).
    pub config: TempiConfig,
    /// Intermediate-buffer pool.
    pub pool: BufferPool,
    /// Operation counters.
    pub stats: TempiStats,
    /// Online send-method autotuner: component calibration plus per-bucket
    /// memoized decisions (see [`crate::tuner`]).
    pub tuner: Tuner,
    /// The plans committed types hold, and what committing reuses.
    commits: Commits,
    /// The rungs of the degradation ladder that failed transiently, per
    /// datatype ([`crate::ladder`]): sends and packs of that type skip
    /// them while the quarantine holds.
    pub(crate) quarantine: Quarantine,
    /// What the last accelerated send decided (before any step-down).
    last_choice: Option<Choice>,
}

impl Default for Tempi {
    fn default() -> Self {
        Self::new(TempiConfig::default())
    }
}

impl Tempi {
    /// Fresh library state with the given configuration.
    pub fn new(config: TempiConfig) -> Self {
        let tuner = Tuner::new(config.tuner, config.tuner_seed);
        Tempi {
            config,
            pool: BufferPool::new(),
            stats: TempiStats::default(),
            tuner,
            commits: Commits::default(),
            quarantine: Quarantine::default(),
            last_choice: None,
        }
    }

    /// The method, and for a pipelined send the chunk size, the last
    /// accelerated send started its ladder at — "why did TEMPI do that?"
    /// without a trace.
    pub fn last_choice(&self) -> Option<Choice> {
        self.last_choice
    }

    /// Copy the pool's counters into the stats snapshot so callers
    /// reading `TempiStats` see the current reuse rate.
    fn sync_stats(&mut self) {
        self.stats.pool_hits = self.pool.hits;
        self.stats.pool_fresh_allocs = self.pool.fresh_allocs;
    }

    /// The cached plan for a committed type, if any: its slot's entry, if
    /// `dt` itself committed it.
    pub fn plan(&self, dt: Datatype) -> Option<Arc<TypePlan>> {
        self.commits.plan(dt)
    }

    /// Plans held: at most one per registry slot a commit has used.
    pub fn cached_plans(&self) -> usize {
        self.commits.cached()
    }

    /// Distinct plans held: equal plans of several types are one.
    pub fn interned_plans(&self) -> usize {
        self.commits.interned()
    }

    /// TEMPI's `MPI_Type_free`: the system free, then `dt`'s plan and its
    /// quarantined rungs go at once. A free that bypasses the library
    /// leaves the plan in place until the slot's next occupant commits, or
    /// a commit sweeps the slot table ([`crate::commit`]).
    pub fn type_free(&mut self, ctx: &mut RankCtx, dt: Datatype) -> MpiResult<()> {
        ctx.type_free(dt)?;
        self.commits.free(dt);
        self.quarantine.release(dt);
        Ok(())
    }

    /// Publish every [`TempiStats`] counter into `tracer`'s metrics
    /// registry under `tempi.*` names. Counters accumulate: call this once
    /// per rank at export time (the CLI does, before writing the JSONL
    /// dump), not per operation.
    pub fn publish_metrics(&self, tracer: &Tracer) {
        if !tracer.enabled() {
            return;
        }
        let s = &self.stats;
        tracer.count("tempi.commits", s.commits);
        tracer.count("tempi.commit_cache_hits", s.commit_cache_hits);
        tracer.count("tempi.pack_calls", s.pack_calls);
        tracer.count("tempi.unpack_calls", s.unpack_calls);
        tracer.count("tempi.device_sends", s.device_sends);
        tracer.count("tempi.oneshot_sends", s.oneshot_sends);
        tracer.count("tempi.staged_sends", s.staged_sends);
        tracer.count("tempi.pipelined_sends", s.pipelined_sends);
        tracer.count("tempi.pipelined_recvs", s.pipelined_recvs);
        tracer.count("tempi.fallbacks", s.fallbacks);
        tracer.count("tempi.degraded_sends", s.degraded_sends);
        tracer.count("tempi.degraded_xfers", s.degraded_xfers);
        tracer.count("tempi.comm_failures", s.comm_failures);
        tracer.count("tempi.tuner_probes", s.tuner_probes);
        tracer.count("tempi.tuner_bucket_hits", s.tuner_bucket_hits);
        tracer.count("tempi.tuner_method_switches", s.tuner_method_switches);
        tracer.count("tempi.pool_hits", s.pool_hits);
        tracer.count("tempi.pool_fresh_allocs", s.pool_fresh_allocs);
    }

    /// TEMPI's `MPI_Type_commit` (paper §3): native commit, then
    /// translation → transformation → kernel selection, cached per type
    /// and interned by value ([`crate::commit`]).
    pub fn type_commit(&mut self, ctx: &mut RankCtx, dt: Datatype) -> MpiResult<Arc<TypePlan>> {
        if let Some(p) = self.plan(dt) {
            self.stats.commit_cache_hits += 1;
            return Ok(p);
        }
        let (commits, config) = (&mut self.commits, &self.config);
        let plan = ctx.with_span("tempi", "type_commit", |ctx| {
            commits.commit(ctx, dt, config)
        })?;
        self.stats.commits += 1;
        Ok(plan)
    }

    /// Fetch the plan, lazily committing if the type was committed through
    /// the system MPI before TEMPI was interposed.
    fn plan_or_commit(&mut self, ctx: &mut RankCtx, dt: Datatype) -> MpiResult<Arc<TypePlan>> {
        if let Some(p) = self.plan(dt) {
            return Ok(p);
        }
        if !ctx.is_committed(dt)? {
            return Err(MpiError::NotCommitted);
        }
        self.type_commit(ctx, dt)
    }

    /// `MPI_Pack_size`.
    pub fn pack_size(
        &mut self,
        ctx: &mut RankCtx,
        incount: usize,
        dt: Datatype,
    ) -> MpiResult<usize> {
        transfer_bytes(self.plan_or_commit(ctx, dt)?.size as usize, incount)
    }

    /// TEMPI's `MPI_Pack`: pack `incount` items of `dt` from `inbuf` into
    /// `outbuf[*position..outsize]`, advancing `*position`. GPU buffers use
    /// the selected kernel; host-only calls use CPU packing like the system
    /// MPI.
    #[allow(clippy::too_many_arguments)]
    pub fn pack(
        &mut self,
        ctx: &mut RankCtx,
        inbuf: GpuPtr,
        incount: usize,
        dt: Datatype,
        outbuf: GpuPtr,
        outsize: usize,
        position: &mut usize,
    ) -> MpiResult<()> {
        let packed = (outbuf, outsize, position);
        self.xfer(ctx, PackDir::Pack, inbuf, incount, dt, packed)
    }

    /// TEMPI's `MPI_Unpack`: mirror of [`Tempi::pack`] (`inbuf` holds
    /// packed bytes at `*position..insize`; `outbuf` is the strided
    /// destination).
    #[allow(clippy::too_many_arguments)]
    pub fn unpack(
        &mut self,
        ctx: &mut RankCtx,
        inbuf: GpuPtr,
        insize: usize,
        position: &mut usize,
        outbuf: GpuPtr,
        outcount: usize,
        dt: Datatype,
    ) -> MpiResult<()> {
        let packed = (inbuf, insize, position);
        self.xfer(ctx, PackDir::Unpack, outbuf, outcount, dt, packed)
    }

    /// One interposed pack/unpack call: `count` items of `dt` at the
    /// datatype-shaped buffer `strided`, against `packed`.
    fn xfer(
        &mut self,
        ctx: &mut RankCtx,
        dir: PackDir,
        strided: GpuPtr,
        count: usize,
        dt: Datatype,
        packed: Packed<'_>,
    ) -> MpiResult<()> {
        let (calls, name) = match dir {
            PackDir::Pack => (&mut self.stats.pack_calls, "MPI_Pack"),
            PackDir::Unpack => (&mut self.stats.unpack_calls, "MPI_Unpack"),
        };
        *calls += 1;
        ctx.clock.advance(TEMPI_DISPATCH_OVERHEAD);
        let r = ctx.with_span("tempi", name, |ctx| {
            self.route(ctx, dir, strided, count, dt, packed)
        });
        self.sync_stats();
        r
    }

    /// Where [`Tempi::xfer`] goes: to the system MPI with a type TEMPI has
    /// no kernel for, else to the kernel path — staged through a device
    /// lease when the packed side is pageable — else, for host data or a
    /// kernel path that failed, to the CPU copy.
    fn route(
        &mut self,
        ctx: &mut RankCtx,
        dir: PackDir,
        strided: GpuPtr,
        count: usize,
        dt: Datatype,
        packed: Packed<'_>,
    ) -> MpiResult<()> {
        let plan = self.plan_or_commit(ctx, dt)?;
        let (buf, size, position) = packed;
        if let PlanKind::Fallback(_) = plan.kind {
            // the fall-through is the system MPI, its argument checks too
            self.stats.fallbacks += 1;
            return match dir {
                PackDir::Pack => ctx.pack(strided, count, dt, buf, size, position),
                PackDir::Unpack => ctx.unpack(buf, size, position, strided, count, dt),
            };
        }
        let x = plan.typed(strided, count, dt)?;
        let end = ctx.packed_window(dt, *position, x.bytes, size)?;
        if x.bytes == 0 {
            return Ok(());
        }
        let at = buf.add(*position);

        let kernels = !self.quarantine.holds(dt, Rung::Kernel, ctx.clock.now());
        if strided.space.device_accessible() && kernels {
            let r = if buf.space.device_accessible() {
                execute(ctx, &plan.kind, dir, x, at, self.config.force_word)
            } else {
                self.staged_host_xfer(ctx, dir, &plan.kind, x, at)
            };
            match r {
                Ok(()) => {
                    *position = end;
                    return Ok(());
                }
                // the kernel path failed transiently: the CPU copy below
                // touches no GPU resources
                Err(e) if e.is_transient() => {
                    self.degrade(ctx, dt, Rung::Kernel, ("Kernel", "HostCopy"), &e);
                }
                Err(e) => return Err(e),
            }
        }

        // Host-side strided data (or a quarantined kernel path): CPU
        // pack/unpack, as the system MPI would do — TEMPI does not
        // accelerate host-resident datatypes.
        execute_on_host(ctx, &plan.kind, dir, x, at)?;
        *position = end;
        Ok(())
    }

    /// Run `body` with an empty staging [`Lease`] and hand whatever it
    /// took back to the pool, on success and on error alike.
    fn with_lease<T>(
        &mut self,
        ctx: &mut RankCtx,
        body: impl FnOnce(&mut Self, &mut RankCtx, &mut Lease) -> MpiResult<T>,
    ) -> MpiResult<T> {
        let mut lease = Lease::default();
        let r = body(self, ctx, &mut lease);
        lease.release(&mut self.pool);
        r
    }

    /// Kernel pack/unpack when the contiguous side (`packed`) lives in
    /// plain host memory: run the kernel against a pooled device buffer and
    /// bridge with a single engine copy (reversed for unpack).
    fn staged_host_xfer(
        &mut self,
        ctx: &mut RankCtx,
        dir: PackDir,
        plan: &PlanKind,
        x: Typed,
        packed: GpuPtr,
    ) -> MpiResult<()> {
        self.with_lease(ctx, |t, ctx, lease| {
            let tmp = lease.take(&mut t.pool, ctx, MemSpace::Device, x.bytes)?;
            match dir {
                PackDir::Pack => {
                    execute(ctx, plan, dir, x, tmp, t.config.force_word)?;
                    engine_copy(ctx, packed, tmp, x.bytes, true)
                }
                PackDir::Unpack => {
                    engine_copy(ctx, tmp, packed, x.bytes, true)?;
                    execute(ctx, plan, dir, x, tmp, t.config.force_word)
                }
            }
        })
    }

    // ---- datatype-accelerated send/recv (§5) ----------------------------

    /// The Section-5 model for traffic between this rank and `peer`. Built
    /// per send on the hot path, so the cost tables are handed over as
    /// shared `Arc`s — two refcount bumps, no table copies.
    pub fn send_model(&self, ctx: &RankCtx, peer: usize) -> SendModel {
        SendModel {
            gpu: ctx.stream.cost_model_shared(),
            net: Arc::clone(&ctx.net),
            src: ctx.rank,
            dst: peer,
        }
    }

    /// Run `body` as the `name` span of an interposed `MPI_Send` or
    /// `MPI_Recv`. This is the one exit of both paths: a communicator
    /// failure (`PeerGone` / `Revoked` / `CommFailed` / `Corrupted`) is
    /// counted here, once, whichever stage met it — transient GPU errors
    /// are the degradation ladder's business — the pool counters are
    /// mirrored into the stats, and the span closes with `args` of the
    /// outcome.
    fn call<T>(
        &mut self,
        ctx: &mut RankCtx,
        name: &'static str,
        body: impl FnOnce(&mut Self, &mut RankCtx) -> MpiResult<T>,
        args: impl FnOnce(&T) -> tempi_trace::Args,
    ) -> MpiResult<T> {
        let body = |ctx: &mut RankCtx| {
            let r = body(self, ctx);
            if r.as_ref().is_err_and(MpiError::is_comm_failure) {
                self.stats.comm_failures += 1;
            }
            self.sync_stats();
            r
        };
        ctx.with_span_args("tempi", name, body, |r| match r {
            Ok(out) => {
                let mut args = args(out);
                args.push(("ok", true.into()));
                args
            }
            Err(_) => vec![("ok", false.into())],
        })
    }

    /// TEMPI's `MPI_Send`. Non-contiguous device data is packed with the
    /// selected kernel into an intermediate buffer and shipped through the
    /// system MPI; the method (device / one-shot / staged / pipelined)
    /// follows the tuner-calibrated model unless forced. Returns which
    /// method was used (`None` = fell through to the system MPI).
    pub fn send(
        &mut self,
        ctx: &mut RankCtx,
        buf: GpuPtr,
        count: usize,
        dt: Datatype,
        dest: usize,
        tag: i32,
    ) -> MpiResult<Option<Method>> {
        self.call(
            ctx,
            "MPI_Send",
            |t, ctx| t.send_inner(ctx, buf, count, dt, dest, tag),
            |m| {
                vec![
                    ("method", m.map_or("SystemMpi", Method::name).into()),
                    ("dest", dest.into()),
                    ("count", count.into()),
                ]
            },
        )
    }

    /// Pick the method for one accelerated send, and the chunk size should
    /// it be the pipelined one (the run length should it be the device
    /// recipe cut at the object's runs). A forced method bypasses the tuner
    /// and runs in one piece; otherwise every tuner mode takes the argmin of
    /// the (calibrated) §5 model over the ladder's rungs that are not
    /// quarantined, the pipelined rung included whenever the plan can be cut
    /// into chunks and the run cut whenever its runs share one length.
    fn choose_method(
        &mut self,
        ctx: &RankCtx,
        plan: &TypePlan,
        x: Typed,
        dest: usize,
        now: SimTime,
    ) -> Choice {
        let bytes = x.bytes;
        let wl = Workload {
            bytes,
            block: plan.block_bytes(),
            word: plan.word(),
        };
        let shape = match &plan.kind {
            PlanKind::Strided(kp) if kp.kind == KernelKind::Memcpy1D => 0,
            PlanKind::Strided(_) => 1,
            PlanKind::Blocks(_) | PlanKind::Multi(_) => 2,
            _ => 3,
        };
        // only a strided plan can be cut at block boundaries
        let chunkable = shape == 1 && wl.block > 0 && x.count > 0;
        if let Some(forced) = self.config.force_method {
            // a forced pipeline without a configured chunk runs at the
            // model's best one
            let chunk = if forced == Method::Pipelined && chunkable {
                self.config.pipeline_chunk.or_else(|| {
                    self.send_model(ctx, dest)
                        .choose_among(&[forced], bytes, wl.block, wl.word, &|_| 1.0)
                        .chunk
                })
            } else {
                None
            };
            return Choice {
                method: forced,
                chunk,
            };
        }
        let model = self.send_model(ctx, dest);
        let key = BucketKey::new(shape, wl.block, bytes, model.intra_node());
        let mut allowed = Method::LADDER;
        let mut n = 0;
        for m in Method::LADDER {
            if (m != Method::Pipelined || chunkable)
                && !self.quarantine.holds(x.dt, Rung::Send(m), now)
            {
                allowed[n] = m;
                n += 1;
            }
        }
        if n == 0 {
            // Every rung quarantined: hand the ladder its usual starting
            // point and let it fall through to the system MPI.
            return Choice {
                method: Method::Device,
                chunk: None,
            };
        }
        let runs = plan.run() == Some(wl.block);
        let d = (self.tuner).choose_runs(key, wl, runs, &model, &allowed[..n], now);
        self.stats.tuner_probes += d.probe as u64;
        self.stats.tuner_bucket_hits += d.bucket_hit as u64;
        self.stats.tuner_method_switches += d.switched as u64;
        ctx.tracer.debug_instant(
            ctx.world_rank as u32,
            LANE_CPU,
            "tempi",
            "tuner.decide",
            now.as_ps(),
            || {
                vec![
                    ("method", d.method.name().into()),
                    ("origin", d.origin().into()),
                    ("bytes", bytes.into()),
                    ("chunk", d.chunk.unwrap_or(0).into()),
                ]
            },
        );
        // a configured chunk replaces the pipeline's, never the cut's run
        let pinned = self.config.pipeline_chunk;
        let pinned = pinned.filter(|_| d.method == Method::Pipelined);
        Choice {
            method: d.method,
            chunk: d.chunk.map(|c| pinned.unwrap_or(c)),
        }
    }

    fn send_inner(
        &mut self,
        ctx: &mut RankCtx,
        buf: GpuPtr,
        count: usize,
        dt: Datatype,
        dest: usize,
        tag: i32,
    ) -> MpiResult<Option<Method>> {
        ctx.clock.advance(TEMPI_DISPATCH_OVERHEAD);
        let plan = self.plan_or_commit(ctx, dt)?;
        let x = plan.typed(buf, count, dt)?;
        let bytes = x.bytes;
        ctx.tracer.observe("tempi.send.bytes", bytes as u64);
        if !plan.accelerates(x) {
            self.stats.fallbacks += 1;
            ctx.send(buf, count, dt, dest, tag)?;
            return Ok(None);
        }
        let now = ctx.clock.now();
        let Choice { mut method, chunk } = self.choose_method(ctx, &plan, x, dest, now);
        // the pipelined method needs more than one chunk of blocks;
        // otherwise it degenerates to plain staged
        let cut = chunk.and_then(|c| pipeline_chunks(bytes, plan.block_bytes(), c));
        if method == Method::Pipelined && cut.is_none() {
            method = Method::Staged;
        }
        self.last_choice = Some(Choice {
            method,
            chunk: cut.map(|(chunk, _)| chunk),
        });

        // Degradation ladder (most GPU-dependent first). Start at the
        // chosen method, skip quarantined rungs, and on a transient
        // failure step down; past the last rung, fall through to the
        // system MPI, which needs no TEMPI resources at all.
        let mut rung = Method::LADDER
            .iter()
            .position(|&m| m == method)
            .and_then(|i| self.quarantine.next_rung(dt, i, now));
        let to = (dest, tag);
        loop {
            let Some(i) = rung else {
                // Ladder exhausted (or every rung quarantined): system MPI.
                self.stats.fallbacks += 1;
                ctx.send(buf, count, dt, dest, tag)?;
                return Ok(None);
            };
            let current = Method::LADDER[i];
            // Parts already on the wire commit the receiver to the rest of
            // them, so only a fault before the first is posted may step
            // down; the cut is the chosen method's, a lower rung runs whole.
            let mut posted = 0u32;
            let cut = cut.filter(|_| current == method);
            let sent = self.with_lease(ctx, |t, ctx, lease| {
                t.send_stages(ctx, lease, (current, cut), (&plan, x), to, &mut posted)
            });
            match sent {
                Ok(()) => {
                    // per-method stats count successes only
                    let sends = match current {
                        Method::Device => &mut self.stats.device_sends,
                        Method::OneShot => &mut self.stats.oneshot_sends,
                        Method::Staged => &mut self.stats.staged_sends,
                        Method::Pipelined => &mut self.stats.pipelined_sends,
                    };
                    *sends += 1;
                    return Ok(Some(current));
                }
                Err(e) if e.is_transient() && posted == 0 => {
                    rung = self.quarantine.next_rung(dt, i + 1, now);
                    let to = rung.map_or("SystemMpi", |j| Method::LADDER[j].name());
                    self.degrade(ctx, dt, Rung::Send(current), (current.name(), to), &e);
                }
                // A failed peer or a revoked communicator is not a rung
                // problem — stepping down the ladder cannot help. Surface
                // it to the recovery path.
                Err(e) => return Err(e),
            }
        }
    }

    /// The §5 model towards `peer` that the measured stages of a transfer
    /// in `n` pieces are compared against: `None` unless the tuner is
    /// calibrating online, so the other modes compute nothing, and `None`
    /// for chunks — an async chunk's CPU-clock delta is launch overhead,
    /// not stage time, so only one-piece (synchronous) stages are measured.
    fn online_model(&self, ctx: &RankCtx, peer: usize, n: usize) -> Option<SendModel> {
        (n == 1 && self.tuner.mode() == TunerMode::Online).then(|| self.send_model(ctx, peer))
    }

    /// The send executor — one rung of the ladder. It walks `method`'s
    /// [`Recipe`](crate::config::Recipe) over `n` chunks of `chunk` bytes:
    /// pack → \[D2H\] → ship per chunk, staging through `lease`, each stage
    /// boundary emitting its phase span and feeding the tuner. The three §5
    /// methods are `n = 1`; the pipelined one takes its `cut`, and a device
    /// send given one is the run cut — its pack-free `n > 1` case: the `n`
    /// runs ship as they lie in one train, with no stage but the wire. One
    /// piece and chunks differ where the branches on `n` say so: a single piece
    /// runs the plan's whole-object kernel and joins the stream after each
    /// stage, so its stage times are on the CPU clock and calibrate the
    /// tuner; chunks are packed by the async range kernel (strided plans
    /// only) into slot `k % RING_SLOTS` of chunk-sized rings and depart
    /// when the stream has staged them, so kernel and copy of chunk k+1
    /// overlap chunk k's wire time. Slot reuse needs no waiting: the stream
    /// runs in order, and the system MPI has taken a part's bytes by the
    /// time the copy refilling its pinned slot can start. `posted` counts
    /// the messages handed to the system MPI.
    fn send_stages(
        &mut self,
        ctx: &mut RankCtx,
        lease: &mut Lease,
        (method, cut): (Method, Option<(usize, usize)>),
        (plan, x): (&TypePlan, Typed),
        (dest, tag): (usize, i32),
        posted: &mut u32,
    ) -> MpiResult<()> {
        let (recipe, bytes) = (method.recipe(), x.bytes);
        let (chunk, n, ranged) = match (method, cut, &plan.kind) {
            (Method::Pipelined, Some((chunk, n)), PlanKind::Strided(kp)) => (chunk, n, Some(kp)),
            (Method::Pipelined, ..) => {
                return Err(MpiError::Internal(
                    "pipelined send needs a strided plan and a cut".to_string(),
                ));
            }
            // the run cut: no lease, no launch, no sync — the object's `n`
            // runs leave the typed buffer as the parts of one train
            (Method::Device, Some((run, n)), kind) => {
                let t0 = ctx.clock.now();
                let runs = |sink: &mut dyn FnMut(i64)| for_each_run(kind, x, sink);
                let shipped = ctx.send_bytes_runs(x.buf, (run, n), dest, tag, runs);
                phase(ctx, "wire", t0, || {
                    vec![
                        ("bytes", bytes.into()),
                        ("parts", n.into()),
                        ("dest", dest.into()),
                        ("ok", shipped.is_ok().into()),
                    ]
                });
                *posted += u32::from(shipped.is_ok());
                return shipped;
            }
            _ => (bytes, 1, None),
        };
        let ring = chunk * n.min(RING_SLOTS);
        let stage = lease.take(&mut self.pool, ctx, recipe.pack_space(), ring)?;
        let out = match recipe.bounce {
            true => lease.take(&mut self.pool, ctx, MemSpace::Pinned, ring)?,
            false => stage,
        };
        let online = self.online_model(ctx, dest, n);
        let (block, word) = (plan.block_bytes(), plan.word());
        let force_word = self.config.force_word;
        // the kernel rung's quarantine does not lapse with time: while it
        // holds, every chunk is packed by host code into its wire slot
        let mut rule = match self.quarantine.holds(x.dt, Rung::Kernel, ctx.clock.now()) {
            true => CopyRule::Backdoor,
            false => CopyRule::Kernel,
        };
        for k in 0..n {
            let at = k * chunk;
            let len = chunk.min(bytes - at);
            let slot = (k % RING_SLOTS) * chunk;

            // pack → [D2H]; once parts are on the wire, which commits the
            // receiver to the rest, a transient GPU fault moves this chunk
            // and the rest to host code, straight into their pinned slots
            loop {
                let (t0, host) = (ctx.clock.now(), rule == CopyRule::Backdoor);
                let to = if host { out } else { stage }.add(slot);
                let packed = match ranged {
                    None if host => execute_on_host(ctx, &plan.kind, PackDir::Pack, x, to),
                    None => execute(ctx, &plan.kind, PackDir::Pack, x, to, force_word),
                    Some(kp) => {
                        let first = (at / block) as i64;
                        let blocks = first..first + (len / block) as i64;
                        execute_range(kp, ctx, PackDir::Pack, x, to, blocks, rule)
                    }
                };
                let staged = packed.and_then(|()| {
                    let t1 = ctx.clock.now();
                    phase(ctx, "pack", t0, || vec![("bytes", len.into())]);
                    if let (Some(m), false) = (&online, host) {
                        let modeled = m.t_pack(PackDir::Pack, recipe.pack, len, block, word);
                        (self.tuner).observe(Term::Pack(recipe.pack), modeled, t1 - t0);
                    }
                    if recipe.bounce && !host {
                        // queues behind this chunk's pack kernel
                        engine_copy(ctx, out.add(slot), stage.add(slot), len, n == 1)?;
                        phase(ctx, "copy", t1, || {
                            vec![("bytes", len.into()), ("kind", "D2H".into())]
                        });
                        if let Some(m) = &online {
                            let (modeled, took) =
                                (m.t_copy(CopyKind::D2H, len), ctx.clock.now() - t1);
                            self.tuner.observe(Term::Copy(CopyKind::D2H), modeled, took);
                        }
                    }
                    Ok(())
                });
                match staged {
                    Err(e) if e.is_transient() && *posted > 0 && !host => {
                        self.degrade(ctx, x.dt, Rung::Kernel, ("Pipelined", "HostCopy"), &e);
                        // the chunks in flight still fill pinned slots
                        ctx.stream.synchronize(&mut ctx.clock);
                        rule = CopyRule::Backdoor;
                    }
                    staged => break staged?,
                }
            }

            // a chunk departs once the stream has staged it, one piece at
            // the CPU's now (its stages joined the stream)
            let ready = match n {
                1 => SimTime::ZERO,
                _ => ctx.stream.busy_until(),
            };
            let part = PartInfo {
                index: k as u32,
                total: n as u32,
                runs: 1,
            };
            let t2 = ctx.clock.now();
            let shipped = ctx.send_bytes_part(out.add(slot), len, dest, tag, ready, part);
            phase(ctx, "wire", t2, || {
                vec![
                    ("bytes", len.into()),
                    ("dest", dest.into()),
                    ("ok", shipped.is_ok().into()),
                ]
            });
            shipped?;
            *posted += 1;
        }
        Ok(())
    }

    /// TEMPI's `MPI_Recv`. Probes the matched message to learn the
    /// sender's buffer space, receives into the matching intermediate
    /// buffer, and unpacks with the selected kernel.
    pub fn recv(
        &mut self,
        ctx: &mut RankCtx,
        buf: GpuPtr,
        count: usize,
        dt: Datatype,
        src: Option<usize>,
        tag: Option<i32>,
    ) -> MpiResult<(Status, Option<Method>)> {
        self.call(
            ctx,
            "MPI_Recv",
            |t, ctx| t.recv_inner(ctx, buf, count, dt, src, tag),
            |(st, m)| {
                vec![
                    ("method", m.map_or("SystemMpi", Method::name).into()),
                    ("source", st.source.into()),
                    ("bytes", st.bytes.into()),
                ]
            },
        )
    }

    fn recv_inner(
        &mut self,
        ctx: &mut RankCtx,
        buf: GpuPtr,
        count: usize,
        dt: Datatype,
        src: Option<usize>,
        tag: Option<i32>,
    ) -> MpiResult<(Status, Option<Method>)> {
        ctx.clock.advance(TEMPI_DISPATCH_OVERHEAD);
        let plan = self.plan_or_commit(ctx, dt)?;
        let x = plan.typed(buf, count, dt)?;
        if !plan.accelerates(x) {
            self.stats.fallbacks += 1;
            return Ok((ctx.recv(buf, count, dt, src, tag)?, None));
        }
        let info = ctx.probe(src, tag)?;
        let (st, method) = self
            .with_lease(ctx, |t, ctx, lease| {
                t.recv_stages(ctx, lease, &plan, x, &info)
            })
            .map_err(|e| e.with_envelope(|| ctx.registry().read().get_envelope(dt).ok()))?;
        Ok((st, Some(method)))
    }

    /// The receive executor, the mirror of [`Tempi::send_stages`]: the
    /// transfer `info` announces, every part landed and then finished
    /// once, with the recipe read off the message — its sender's buffer
    /// space names the one-piece method, part tags the pipelined one.
    ///
    /// The loop lands each part, copies it H2D when the recipe bounces and,
    /// on a ring, unpacks it. Parts that end on this rank's block
    /// boundaries ride the ring: part k lands in slot `k % RING_SLOTS` of a
    /// pinned ring and its async copy and range kernel run from the same
    /// slot of a device ring, overlapping the wire time of part k+1. Any
    /// other parts, and every one-piece message, land back to back. A GPU
    /// fault in the loop is carried, not returned: the later parts still
    /// land, so the transfer is consumed whole before the fault is
    /// reported, and after a transient one a ring unpacks the faulted part
    /// and the rest by host code from their pinned slots.
    ///
    /// Then one finish: the ring's join, or one whole-object unpack through
    /// the ladder — the plan's kernel, or, when the kernel rung is
    /// quarantined or a transient fault was carried, the CPU copy from the
    /// landing buffer. A run cut's train of this receive's own runs (count
    /// and length) skips both: part k lands straight in run k, with no
    /// lease and no kernel. The remaining branches on `n` are what one
    /// piece alone does: it joins the stream after each stage, so its
    /// stages calibrate the tuner, as does its wire wait (senders pay only
    /// the send overhead, so wire time is visible on this clock), and a
    /// staged one takes its device buffer after the wire wait.
    fn recv_stages(
        &mut self,
        ctx: &mut RankCtx,
        lease: &mut Lease,
        plan: &TypePlan,
        x: Typed,
        info: &ProbeInfo,
    ) -> MpiResult<(Status, Method)> {
        let capacity = x.bytes;
        // a train carries every part of its transfer in one message
        let (parts, train) = info.part.map_or((1, 1), |p| (p.total, p.runs.max(1)));
        let (parts, train) = (parts as usize, train as usize);
        let n = parts / train;
        let method = match n {
            1 => Method::landing(info.sender_space),
            _ => Method::Pipelined,
        };
        let recipe = method.recipe();
        let (src, tag) = (Some(info.source), Some(info.tag));
        // every part but the last has the first one's size: a transfer that
        // cannot fit — one piece too large, or parts overflowing before the
        // last — is the system MPI's to refuse, which consumes it whole and
        // reports its full size
        if info.bytes > capacity || (n > 1 && info.bytes * (n - 1) >= capacity) {
            return Ok((ctx.recv(x.buf, x.count, x.dt, src, tag)?, method));
        }
        if n == 1 {
            ctx.tracer.observe("tempi.recv.bytes", info.bytes as u64);
        }
        // a train of this receive's own runs lands straight in place
        let run = info.bytes / train;
        if train > 1 && info.bytes == capacity && plan.run() == Some(run) {
            let t0 = ctx.clock.now();
            let runs = |sink: &mut dyn FnMut(i64)| for_each_run(&plan.kind, x, sink);
            let st = ctx.recv_bytes_runs(x.buf, (run, capacity), src, tag, runs)?;
            phase(ctx, "wire", t0, || {
                vec![
                    ("bytes", st.bytes.into()),
                    ("parts", train.into()),
                    ("source", info.source.into()),
                ]
            });
            return Ok((st, method));
        }
        // every part but the last has the first one's size
        let chunk = info.bytes;
        let block = plan.block_bytes();
        let ring = match &plan.kind {
            PlanKind::Strided(kp) if n > 1 && block > 0 && chunk % block == 0 => Some(kp),
            _ => None,
        };
        let staging = match (ring, n) {
            (Some(_), _) => chunk * n.min(RING_SLOTS),
            (None, 1) => info.bytes,
            (None, _) => capacity,
        };
        let land = lease.take(&mut self.pool, ctx, recipe.wire_space(), staging)?;
        // the kernel rung's quarantine does not lapse with time: asked
        // once, it answers as it would at every part
        let mut kernels = !self.quarantine.holds(x.dt, Rung::Kernel, ctx.clock.now());
        // a bouncing recipe unpacks by kernel from a device buffer, any
        // other from where the bytes landed; one piece takes that buffer
        // only after the wire wait
        let mut dev = match recipe.bounce && n > 1 && kernels {
            true => Some(lease.take(&mut self.pool, ctx, MemSpace::Device, staging)?),
            false => None,
        };
        let online = self.online_model(ctx, info.source, parts);
        let mut received = 0usize;
        let mut drained = [SimTime::ZERO; RING_SLOTS];
        // the loop's first GPU fault, carried to the finish
        let mut fault = None;
        for k in 0..n {
            let (slot, room) = match ring {
                Some(_) => {
                    // a pinned slot is taken again only once the copy that
                    // drained it is done (device slots: stream order)
                    ctx.clock.advance_to(drained[k % RING_SLOTS]);
                    ((k % RING_SLOTS) * chunk, chunk.min(capacity - received))
                }
                None => (received, capacity - received),
            };

            let t0 = ctx.clock.now();
            let st = ctx
                .recv_bytes_runs(land.add(slot), (room, room), src, tag, |at| at(0))
                .map_err(|e| match e {
                    // report the transfer so far against the receive's capacity
                    MpiError::Truncated { sent, .. } => MpiError::Truncated {
                        sent: received + sent,
                        capacity,
                        envelope: None,
                    },
                    e => e,
                })?;
            let len = st.bytes;
            phase(ctx, "wire", t0, || {
                let mut args = vec![("bytes", len.into()), ("source", info.source.into())];
                args.extend((train > 1).then(|| ("parts", train.into())));
                args
            });
            if let Some(m) = &online {
                let intra = ctx.net.same_node(ctx.rank, info.source);
                let waited = ctx.clock.now() - t0;
                let modeled = m.t_wire(recipe.wire, len);
                (self.tuner).observe(Term::Wire(recipe.wire, intra), modeled, waited);
            }

            if recipe.bounce && kernels && fault.is_none() {
                let copied = match dev {
                    Some(taken) => Ok(taken),
                    None => lease.take(&mut self.pool, ctx, MemSpace::Device, len),
                }
                .and_then(|to| {
                    dev = Some(to);
                    let t1 = ctx.clock.now();
                    engine_copy(ctx, to.add(slot), land.add(slot), len, n == 1)?;
                    phase(ctx, "copy", t1, || {
                        vec![("bytes", len.into()), ("kind", "H2D".into())]
                    });
                    if let Some(m) = &online {
                        let (modeled, took) = (m.t_copy(CopyKind::H2D, len), ctx.clock.now() - t1);
                        self.tuner.observe(Term::Copy(CopyKind::H2D), modeled, took);
                    }
                    Ok(())
                });
                fault = copied.err();
            }

            if let Some(kp) = ring {
                let first = (received / block) as i64;
                let blocks = first..first + (len / block) as i64;
                let t2 = ctx.clock.now();
                let unpack = |ctx: &mut RankCtx, from: GpuPtr, rule| {
                    let (to, blocks) = (from.add(slot), blocks.clone());
                    execute_range(kp, ctx, PackDir::Unpack, x, to, blocks, rule).err()
                };
                if fault.is_none() {
                    drained[k % RING_SLOTS] = ctx.stream.busy_until();
                    fault = match kernels {
                        true => unpack(ctx, dev.unwrap_or(land), CopyRule::Kernel),
                        false => unpack(ctx, land, CopyRule::Backdoor),
                    };
                }
                if let Some(e) = fault.take_if(|e| e.is_transient()) {
                    // this part and the rest: host code, from the pinned
                    // slots they land in
                    self.degrade(ctx, x.dt, Rung::Kernel, (method.name(), "HostCopy"), &e);
                    kernels = false;
                    fault = unpack(ctx, land, CopyRule::Backdoor);
                }
                if fault.is_none() {
                    phase(ctx, "unpack", t2, || vec![("bytes", len.into())]);
                }
            }
            received += len;
        }

        // the finish: the ring's join, or one whole-object unpack through
        // the ladder — the plan's kernel, else the CPU copy from where the
        // bytes landed
        let t2 = ctx.clock.now();
        let whole = plan.items_of(x, received);
        if ring.is_none() && kernels && fault.is_none() {
            let (from, force_word) = (dev.unwrap_or(land), self.config.force_word);
            fault = execute(ctx, &plan.kind, PackDir::Unpack, whole, from, force_word).err();
        }
        let r = match fault {
            None if ring.is_some() => {
                ctx.stream.synchronize(&mut ctx.clock);
                Ok(())
            }
            None if kernels => {
                if let (Some(m), true) = (&online, recipe.bounce) {
                    let modeled =
                        m.t_pack(PackDir::Unpack, recipe.pack, received, block, plan.word());
                    let took = ctx.clock.now() - t2;
                    self.tuner.observe(Term::Pack(recipe.pack), modeled, took);
                }
                Ok(())
            }
            Some(e) if !e.is_transient() => Err(e),
            fault => {
                if let Some(e) = fault {
                    self.degrade(ctx, x.dt, Rung::Kernel, (method.name(), "HostCopy"), &e);
                }
                execute_on_host(ctx, &plan.kind, PackDir::Unpack, whole, land)
            }
        };
        phase(ctx, "unpack", t2, || {
            let mut args = vec![("bytes", received.into())];
            if ring.is_none() {
                args.extend([("method", method.name().into()), ("ok", r.is_ok().into())]);
            }
            args
        });
        r?;
        self.stats.pipelined_recvs += u64::from(n > 1);
        let st = Status {
            source: info.source,
            tag: info.tag,
            bytes: received,
        };
        Ok((st, method))
    }
}

/// Record one phase of a commit, send or receive as a complete span on the
/// rank's CPU lane, from `t0` to now.
pub(crate) fn phase(
    ctx: &RankCtx,
    name: &'static str,
    t0: SimTime,
    args: impl FnOnce() -> tempi_trace::Args,
) {
    ctx.tracer.complete(
        ctx.world_rank as u32,
        LANE_CPU,
        "tempi",
        name,
        t0.as_ps(),
        (ctx.clock.now() - t0).as_ps(),
        args,
    );
}

/// One engine copy (`cudaMemcpyAsync`) of `len` bytes, joined at once when
/// `sync`.
fn engine_copy(
    ctx: &mut RankCtx,
    dst: GpuPtr,
    src: GpuPtr,
    len: usize,
    sync: bool,
) -> MpiResult<()> {
    ctx.stream
        .memcpy_async(&mut ctx.clock, dst, src, len)
        .map_err(MpiError::Gpu)?;
    if sync {
        ctx.stream.synchronize(&mut ctx.clock);
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::interpose::InterposedMpi;
    use crate::ir::strided_block::Member;
    use crate::ir::BlockList;
    use mpi_sim::consts::*;
    use mpi_sim::datatype::pack_cpu;
    use mpi_sim::datatype::{Order, TypeTree};
    use mpi_sim::{Combiner, World, WorldConfig};

    /// A library of the default configuration with `set` applied.
    pub(crate) fn configured(set: impl FnOnce(&mut TempiConfig)) -> Tempi {
        let mut config = TempiConfig::default();
        set(&mut config);
        Tempi::new(config)
    }

    fn ctx() -> RankCtx {
        RankCtx::standalone(&WorldConfig::summit(1))
    }

    pub(crate) fn fill(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn commit_builds_strided_plan_for_vector() {
        let mut ctx = ctx();
        let mut tempi = configured(|_| {});
        let dt = ctx.type_vector(13, 100, 128, MPI_FLOAT).unwrap();
        let plan = tempi.type_commit(&mut ctx, dt).unwrap();
        match &plan.kind {
            PlanKind::Strided(kp) => {
                assert_eq!(kp.sb.counts, vec![400, 13]);
                assert_eq!(kp.sb.strides, vec![1, 512]);
                assert_eq!(kp.kind, KernelKind::Pack2D);
                assert_eq!(kp.word, 16); // 400 and 512 both divisible by 16
            }
            other => panic!("expected strided, got {other:?}"),
        }
        assert_eq!(plan.size, 5200);
        assert!(plan.report.introspection_calls > 0);
        assert!(plan.report.commit_time > SimTime::ZERO);
        assert_eq!(tempi.stats.commits, 1);
    }

    #[test]
    fn commit_is_cached() {
        let mut ctx = ctx();
        let mut tempi = configured(|_| {});
        let dt = ctx.type_contiguous(64, MPI_INT).unwrap();
        let a = tempi.type_commit(&mut ctx, dt).unwrap();
        let t = ctx.clock.now();
        let b = tempi.type_commit(&mut ctx, dt).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(ctx.clock.now(), t, "cached commit must be free");
        assert_eq!(tempi.stats.commit_cache_hits, 1);
    }

    #[test]
    fn equivalent_constructions_get_identical_kernel_plans() {
        // the heart of the paper: vector / hvector / subarray descriptions
        // of the same 2-D object must canonicalize to the same plan
        let mut ctx = ctx();
        let mut tempi = configured(|_| {});
        let v = ctx.type_vector(13, 100, 256, MPI_BYTE).unwrap();
        let row = ctx.type_contiguous(100, MPI_BYTE).unwrap();
        let h = ctx.type_create_hvector(13, 1, 256, row).unwrap();
        let s = ctx
            .type_create_subarray(&[13, 256], &[13, 100], &[0, 0], Order::C, MPI_BYTE)
            .unwrap();
        let pv = tempi.type_commit(&mut ctx, v).unwrap();
        let ph = tempi.type_commit(&mut ctx, h).unwrap();
        let ps = tempi.type_commit(&mut ctx, s).unwrap();
        let kv = match &pv.kind {
            PlanKind::Strided(k) => k,
            _ => panic!(),
        };
        let kh = match &ph.kind {
            PlanKind::Strided(k) => k,
            _ => panic!(),
        };
        let ks = match &ps.kind {
            PlanKind::Strided(k) => k,
            _ => panic!(),
        };
        assert_eq!(kv, kh);
        assert_eq!(kh, ks);
    }

    #[test]
    fn canonicalization_off_breaks_plan_parity() {
        let mut ctx = ctx();
        let mut tempi = configured(|c| c.canonicalize = false);
        let v = ctx.type_vector(13, 100, 256, MPI_BYTE).unwrap();
        let row = ctx.type_contiguous(100, MPI_BYTE).unwrap();
        let h = ctx.type_create_hvector(13, 1, 256, row).unwrap();
        let pv = tempi.type_commit(&mut ctx, v).unwrap();
        let ph = tempi.type_commit(&mut ctx, h).unwrap();
        assert_ne!(pv.kind, ph.kind, "without canonicalization, plans differ");
    }

    #[test]
    fn pack_matches_cpu_reference_for_subarray() {
        let mut ctx = ctx();
        let mut tempi = configured(|_| {});
        let dt = ctx
            .type_create_subarray(&[32, 64], &[5, 24], &[3, 8], Order::C, MPI_BYTE)
            .unwrap();
        tempi.type_commit(&mut ctx, dt).unwrap();
        let n = 32 * 64;
        let data = fill(n);
        let src = ctx.gpu.malloc(n).unwrap();
        ctx.gpu.memory().poke(src, &data).unwrap();
        let dst = ctx.gpu.malloc(5 * 24).unwrap();
        let mut pos = 0;
        tempi
            .pack(&mut ctx, src, 1, dt, dst, 5 * 24, &mut pos)
            .unwrap();
        assert_eq!(pos, 120);
        let got = ctx.gpu.memory().peek(dst, 120).unwrap();

        // CPU oracle
        let reg = ctx.registry().read();
        let mut want = vec![0u8; 120];
        let mut p = 0;
        pack_cpu::pack(&reg, &data, 0, 1, dt, &mut want, &mut p).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn unpack_roundtrips() {
        let mut ctx = ctx();
        let mut tempi = configured(|_| {});
        let dt = ctx.type_vector(16, 8, 32, MPI_BYTE).unwrap();
        tempi.type_commit(&mut ctx, dt).unwrap();
        let span = 15 * 32 + 8;
        let data = fill(span);
        let src = ctx.gpu.malloc(span).unwrap();
        ctx.gpu.memory().poke(src, &data).unwrap();
        let mid = ctx.gpu.malloc(128).unwrap();
        let out = ctx.gpu.malloc(span).unwrap();
        let mut pos = 0;
        tempi
            .pack(&mut ctx, src, 1, dt, mid, 128, &mut pos)
            .unwrap();
        let mut pos = 0;
        tempi
            .unpack(&mut ctx, mid, 128, &mut pos, out, 1, dt)
            .unwrap();
        let got = ctx.gpu.memory().peek(out, span).unwrap();
        for b in 0..16 {
            let o = b * 32;
            assert_eq!(&got[o..o + 8], &data[o..o + 8], "block {b}");
        }
        assert_eq!(tempi.stats.pack_calls, 1);
        assert_eq!(tempi.stats.unpack_calls, 1);
    }

    #[test]
    fn pack_of_uncommitted_type_fails() {
        let mut ctx = ctx();
        let mut tempi = configured(|_| {});
        let dt = ctx.type_vector(4, 2, 8, MPI_BYTE).unwrap();
        let b = ctx.gpu.malloc(64).unwrap();
        let mut pos = 0;
        assert_eq!(
            tempi.pack(&mut ctx, b, 1, dt, b, 64, &mut pos),
            Err(MpiError::NotCommitted)
        );
    }

    #[test]
    fn pack_detects_small_output() {
        let mut ctx = ctx();
        let mut tempi = configured(|_| {});
        let dt = ctx.type_contiguous(64, MPI_BYTE).unwrap();
        tempi.type_commit(&mut ctx, dt).unwrap();
        let src = ctx.gpu.malloc(64).unwrap();
        let dst = ctx.gpu.malloc(32).unwrap();
        let mut pos = 0;
        assert!(matches!(
            tempi.pack(&mut ctx, src, 1, dt, dst, 32, &mut pos),
            Err(MpiError::BufferTooSmall { .. })
        ));
    }

    #[test]
    fn contiguous_pack_is_single_memcpy() {
        let mut ctx = ctx();
        let mut tempi = configured(|_| {});
        let dt = ctx.type_contiguous(4096, MPI_BYTE).unwrap();
        tempi.type_commit(&mut ctx, dt).unwrap();
        let src = ctx.gpu.malloc(4096).unwrap();
        let dst = ctx.gpu.malloc(4096).unwrap();
        let mut pos = 0;
        tempi
            .pack(&mut ctx, src, 1, dt, dst, 4096, &mut pos)
            .unwrap();
        assert_eq!(ctx.stream.stats().memcpys, 1);
        assert_eq!(ctx.stream.stats().kernel_launches, 0);
    }

    #[test]
    fn incount_with_padding_uses_dynamic_2d_kernel() {
        let mut ctx = ctx();
        let mut tempi = configured(|_| {});
        // 8 contiguous bytes in an extent of 16: one item is a plain copy,
        // several are one more stride dimension, worked out per call
        let c = ctx.type_contiguous(8, MPI_BYTE).unwrap();
        let mut dt = ctx.type_create_resized(c, 0, 16).unwrap();
        let span = 5 * 16;
        let src = ctx.gpu.malloc(span).unwrap();
        ctx.gpu.memory().poke(src, &fill(span)).unwrap();
        let dst = ctx.gpu.malloc(5 * 8).unwrap();
        // and the same packs again after a free and the slot's reuse
        for round in 0..2 {
            tempi.type_commit(&mut ctx, dt).unwrap();
            for count in [4, 3, 5] {
                let launches = ctx.stream.stats().kernel_launches;
                let mut pos = 0;
                tempi
                    .pack(&mut ctx, src, count, dt, dst, 5 * 8, &mut pos)
                    .unwrap();
                assert_eq!(ctx.stream.stats().kernel_launches, launches + 1);
                let mut want = vec![0u8; count * 8];
                let reg = ctx.registry().read();
                pack_cpu::pack(&reg, &fill(span), 0, count, dt, &mut want, &mut 0).unwrap();
                drop(reg);
                let got = ctx.gpu.memory().peek(dst, pos).unwrap();
                assert_eq!(got, want, "round {round}, count {count}");
            }
            tempi.type_free(&mut ctx, dt).unwrap();
            let reused = ctx.type_create_resized(c, 0, 16).unwrap();
            assert_eq!(reused.slot(), dt.slot());
            dt = reused;
        }
    }

    #[test]
    fn hindexed_uses_blocklist_kernel() {
        let mut ctx = ctx();
        let mut tempi = configured(|_| {});
        let dt = ctx
            .type_create_hindexed(&[4, 4], &[32, 0], MPI_BYTE)
            .unwrap();
        let plan = tempi.type_commit(&mut ctx, dt).unwrap();
        assert!(matches!(plan.kind, PlanKind::Blocks(_)));
        let src = ctx.gpu.malloc(64).unwrap();
        ctx.gpu.memory().poke(src, &fill(64)).unwrap();
        let dst = ctx.gpu.malloc(8).unwrap();
        let mut pos = 0;
        tempi.pack(&mut ctx, src, 1, dt, dst, 8, &mut pos).unwrap();
        assert_eq!(
            ctx.gpu.memory().peek(dst, 8).unwrap(),
            vec![32, 33, 34, 35, 0, 1, 2, 3]
        );
    }

    /// A plan kind of [`execute`]'s dispatch: its name, how to build the
    /// datatype, how many items one call moves, and whether the kernel path
    /// serves it with a launch (`Some(true)`), a plain copy (`Some(false)`)
    /// or no GPU work of its own (`None`: nothing to move, or the system
    /// MPI's business).
    type KindRow = (
        &'static str,
        fn(&mut RankCtx) -> MpiResult<Datatype>,
        usize,
        Option<bool>,
    );

    /// Every [`PlanKind`], the strided one in each shape the dispatch tells
    /// apart. The `Fallback` row is a committed struct handed that plan:
    /// commit leaves one only for offsets no buffer can hold.
    const KINDS: [KindRow; 10] = [
        ("Empty", |c| c.type_contiguous(0, MPI_INT), 5, None),
        (
            "plain copy",
            |c| c.type_contiguous(64, MPI_BYTE),
            1,
            Some(false),
        ),
        (
            "plain copy, dense items",
            |c| c.type_contiguous(16, MPI_INT),
            3,
            Some(false),
        ),
        (
            "padded contiguous items",
            |c| {
                let row = c.type_contiguous(8, MPI_BYTE)?;
                c.type_create_resized(row, 0, 16)
            },
            4,
            Some(true),
        ),
        ("2-D", |c| c.type_vector(4, 4, 8, MPI_BYTE), 2, Some(true)),
        (
            "3-D",
            |c| c.type_create_subarray(&[4, 8, 16], &[2, 4, 8], &[1, 2, 4], Order::C, MPI_BYTE),
            1,
            Some(true),
        ),
        (
            "N-D",
            |c| {
                let (sizes, sub, starts) = ([3, 4, 4, 8], [2, 2, 2, 4], [1, 1, 1, 2]);
                c.type_create_subarray(&sizes, &sub, &starts, Order::C, MPI_BYTE)
            },
            2,
            Some(true),
        ),
        (
            "Blocks",
            |c| c.type_create_hindexed(&[4, 2, 6], &[32, 0, 12], MPI_BYTE),
            2,
            Some(true),
        ),
        (
            "Multi",
            |c| {
                let plane = c.type_vector(4, 4, 8, MPI_BYTE)?;
                let row = c.type_create_resized(MPI_INT, 0, 12)?;
                c.type_create_struct(&[2, 1, 3], &[64, 0, 200], &[plane, MPI_DOUBLE, row])
            },
            2,
            Some(true),
        ),
        (
            "Fallback",
            |c| c.type_create_struct(&[2, 1], &[0, 16], &[MPI_INT, MPI_DOUBLE]),
            2,
            None,
        ),
    ];

    /// A route [`Tempi::route`] takes: where the typed and the packed buffer
    /// live, and whether the datatype's kernel path is quarantined.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Route {
        DeviceDevice,
        DeviceMapped,
        /// Pageable host memory on the packed side: staged through a lease.
        DevicePageable,
        /// The CPU path.
        HostHost,
        /// Device buffers, but the CPU path: the kernels failed before.
        Quarantined,
    }

    const ROUTES: [Route; 5] = [
        Route::DeviceDevice,
        Route::DeviceMapped,
        Route::DevicePageable,
        Route::HostHost,
        Route::Quarantined,
    ];

    #[test]
    fn every_plan_kind_moves_the_oracles_bytes_on_every_route() {
        // what one call leaves behind: the bytes it wrote (the packed
        // buffer, or the whole typed span over a 0xEE fill), its virtual
        // time, the stream's counters and the library's fall-through count
        let run = |row: KindRow, route: Route, dir: PackDir, interposed: bool| {
            let (name, build, count, _) = row;
            let mut ctx = ctx();
            let mut mpi = match interposed {
                true => InterposedMpi::new(TempiConfig::default()),
                false => InterposedMpi::system_only(),
            };
            let dt = build(&mut ctx).unwrap();
            mpi.type_commit(&mut ctx, dt).unwrap();
            if interposed {
                let plan = mpi.tempi.plan(dt).unwrap();
                let kernel = match &plan.kind {
                    PlanKind::Empty => "Empty",
                    PlanKind::Strided(kp) => match kp.kind {
                        KernelKind::Memcpy1D if count > 1 && plan.size as i64 != plan.extent => {
                            "padded contiguous items"
                        }
                        KernelKind::Memcpy1D => "plain copy",
                        KernelKind::Pack2D => "2-D",
                        KernelKind::Pack3D => "3-D",
                        _ => "N-D",
                    },
                    PlanKind::Blocks(_) if name == "Fallback" => {
                        let kind = PlanKind::Fallback(Combiner::Struct);
                        let fallback = TypePlan {
                            kind,
                            ..(*plan).clone()
                        };
                        mpi.tempi.commits.hold(dt, fallback);
                        "Fallback"
                    }
                    PlanKind::Blocks(_) => "Blocks",
                    PlanKind::Multi(_) => "Multi",
                    PlanKind::Fallback(_) => "a fallback nobody asked for",
                };
                assert!(name.starts_with(kernel), "{name} committed to {kernel}");
                if route == Route::Quarantined {
                    let e = MpiError::Internal("a kernel failed before".into());
                    mpi.tempi
                        .degrade(&mut ctx, dt, Rung::Kernel, ("Kernel", "HostCopy"), &e);
                }
            }
            let attrs = ctx.attrs(dt).unwrap();
            let size = attrs.size as usize * count;
            let span =
                (attrs.true_ub.max(attrs.ub) + (count as i64 - 1) * attrs.extent()) as usize + 16;
            let alloc = |ctx: &RankCtx, space: MemSpace, len: usize| match space {
                MemSpace::Device => ctx.gpu.malloc(len),
                MemSpace::Mapped => ctx.gpu.mapped_alloc(len),
                _ => ctx.gpu.host_alloc(len),
            };
            let (typed_space, packed_space) = match route {
                Route::DeviceDevice | Route::Quarantined => (MemSpace::Device, MemSpace::Device),
                Route::DeviceMapped => (MemSpace::Device, MemSpace::Mapped),
                Route::DevicePageable => (MemSpace::Device, MemSpace::Host),
                Route::HostHost => (MemSpace::Host, MemSpace::Host),
            };
            let typed = alloc(&ctx, typed_space, span).unwrap();
            let packed = alloc(&ctx, packed_space, size.max(1)).unwrap();

            // the oracle: the CPU pack of the pattern, and its CPU unpack
            // over a buffer of 0xEE (holes must stay 0xEE)
            let data = fill(span);
            let mut packed_want = vec![0u8; size];
            let mut unpacked_want = vec![0xEE; span];
            {
                let reg = ctx.registry().read();
                pack_cpu::pack(&reg, &data, 0, count, dt, &mut packed_want, &mut 0).unwrap();
                let into = &mut unpacked_want;
                pack_cpu::unpack(&reg, &packed_want, &mut 0, into, 0, count, dt).unwrap();
            }
            let mut pos = 0;
            ctx.stream.reset_stats();
            let t0 = ctx.clock.now();
            let (got, want) = match dir {
                PackDir::Pack => {
                    ctx.gpu.memory().poke(typed, &data).unwrap();
                    mpi.pack(&mut ctx, typed, count, dt, packed, size, &mut pos)
                        .unwrap();
                    (ctx.gpu.memory().peek(packed, size).unwrap(), packed_want)
                }
                PackDir::Unpack => {
                    ctx.gpu.memory().poke(packed, &packed_want).unwrap();
                    ctx.gpu.memory().poke(typed, &vec![0xEE; span]).unwrap();
                    mpi.unpack(&mut ctx, packed, size, &mut pos, typed, count, dt)
                        .unwrap();
                    (ctx.gpu.memory().peek(typed, span).unwrap(), unpacked_want)
                }
            };
            let took = ctx.clock.now() - t0;
            let at = format!(
                "{name} / {route:?} / {dir:?} / {}",
                if interposed { "TEMPI" } else { "system" }
            );
            assert_eq!(pos, size, "{at}: position");
            assert_eq!(got, want, "{at}: bytes against the CPU oracle");
            assert_eq!(mpi.tempi.pool.outstanding(), 0, "{at}: a lease leaked");
            (got, took, ctx.stream.stats(), mpi.tempi.stats.fallbacks)
        };

        for row in KINDS {
            for route in ROUTES {
                for dir in [PackDir::Pack, PackDir::Unpack] {
                    let (tempi_bytes, tempi_took, gpu, fell) = run(row, route, dir, true);
                    let (system_bytes, system_took, ..) = run(row, route, dir, false);
                    let at = format!("{} / {route:?} / {dir:?}", row.0);
                    assert_eq!(tempi_bytes, system_bytes, "{at}: TEMPI vs system MPI");

                    // what the route costs the stream: one launch or one
                    // copy on the kernel path, one more copy to bridge
                    // pageable memory, nothing on the CPU path
                    let staged = (route == Route::DevicePageable) as u64;
                    match (row.3, route) {
                        (None, _) if row.0 == "Empty" => {
                            assert_eq!((gpu.kernel_launches, gpu.memcpys), (0, 0), "{at}");
                        }
                        (None, _) => {
                            // the fall-through *is* the system MPI: its
                            // time, plus the interposer's dispatch
                            assert_eq!((gpu.kernel_launches, fell), (0, 1), "{at}");
                            let want = system_took + TEMPI_DISPATCH_OVERHEAD;
                            assert_eq!(tempi_took, want, "{at}: system MPI + dispatch");
                        }
                        (Some(_), Route::HostHost | Route::Quarantined) => {
                            assert_eq!((gpu.kernel_launches, gpu.memcpys), (0, 0), "{at}");
                        }
                        (Some(true), _) => {
                            assert_eq!((gpu.kernel_launches, gpu.memcpys), (1, staged), "{at}");
                        }
                        (Some(false), _) => {
                            assert_eq!((gpu.kernel_launches, gpu.memcpys), (0, 1 + staged), "{at}");
                        }
                    }
                }
            }
        }
    }

    /// A datatype of the method matrix: how to build it and how many items
    /// of it one transfer moves.
    type MatrixCase = (&'static str, fn(&mut RankCtx) -> MpiResult<Datatype>, usize);

    /// The shapes every method must move: the kernels' 2-D and 3-D strided
    /// paths, the block-list path (which cannot be cut into chunks),
    /// several padded items, and an object whose last chunk is short.
    const MATRIX: [MatrixCase; 6] = [
        ("2-D strided", |c| c.type_vector(512, 128, 256, MPI_BYTE), 1),
        (
            "3-D strided",
            |c| {
                let (sizes, sub, starts) = ([16, 64, 256], [8, 32, 128], [1, 2, 4]);
                c.type_create_subarray(&sizes, &sub, &starts, Order::C, MPI_BYTE)
            },
            1,
        ),
        (
            "block-list",
            |c| {
                let lens: Vec<i32> = (0..96).map(|i| 64 * (i % 3 + 1)).collect();
                let displs: Vec<i64> = (0..96).map(|i| i * 320).collect();
                c.type_create_hindexed(&lens, &displs, MPI_BYTE)
            },
            1,
        ),
        (
            // members of one block length and word: the model's mean block
            // prices the list to the picosecond
            "member list",
            |c| {
                let (sizes, sub) = ([16, 64, 256], [8, 32, 128]);
                let lo = c.type_create_subarray(&sizes, &sub, &[0, 0, 0], Order::C, MPI_BYTE)?;
                let hi = c.type_create_subarray(&sizes, &sub, &[8, 32, 128], Order::C, MPI_BYTE)?;
                c.type_create_struct(&[1, 1], &[0, 0], &[lo, hi])
            },
            1,
        ),
        (
            "count > 1 with padding",
            |c| {
                let v = c.type_vector(64, 128, 200, MPI_BYTE)?;
                c.type_create_resized(v, 0, 64 * 200 + 72)
            },
            3,
        ),
        (
            "short last chunk",
            |c| c.type_vector(1000, 96, 160, MPI_BYTE),
            1,
        ),
    ];

    #[test]
    fn every_method_moves_every_shape_and_one_piece_takes_what_the_model_says() {
        // the four rungs forced, then the run cut, which is never forced:
        // nothing is, in a world whose per-message overheads are zero, so
        // the model cuts every shape whose runs share one length (all but
        // the block list of unequal runs, which it must not cut)
        for forced in Method::LADDER.map(Some).into_iter().chain([None]) {
            let mut cfg = WorldConfig::summit(2);
            cfg.net.ranks_per_node = 1;
            if forced.is_none() {
                (cfg.net.send_overhead, cfg.net.recv_overhead) = (SimTime::ZERO, SimTime::ZERO);
            }
            for (name, build, count) in MATRIX {
                let results = World::run(&cfg, |ctx| {
                    let mut tempi = configured(|c| {
                        (c.force_method, c.pipeline_chunk) = (forced, Some(16 << 10))
                    });
                    let dt = build(ctx)?;
                    let plan = tempi.type_commit(ctx, dt)?;
                    let bytes = plan.size as usize * count;
                    let cut = plan.run().filter(|_| forced.is_none());
                    // a forced pipeline runs staged where it cannot be cut
                    let ran = match (&plan.kind, forced) {
                        (PlanKind::Blocks(_) | PlanKind::Multi(_), Some(Method::Pipelined)) => {
                            Method::Staged
                        }
                        (_, Some(forced)) => forced,
                        (_, None) if cut.is_some() => Method::Device,
                        // the unequal block list: whatever one piece is fastest
                        (_, None) => {
                            let three = [Method::Device, Method::OneShot, Method::Staged];
                            let model = tempi.send_model(ctx, 1 - ctx.rank);
                            let (block, word) = (plan.block_bytes(), plan.word());
                            model
                                .choose_among(&three, bytes, block, word, &|_| 1.0)
                                .method
                        }
                    };
                    let span = plan.extent as usize * count + 64;
                    let buf = ctx.gpu.malloc(span)?;
                    let data = fill(span);
                    let mut took = SimTime::ZERO;
                    // the first transfer allocates the staging buffers
                    for tag in 0..2 {
                        ctx.barrier();
                        if ctx.rank == 0 {
                            ctx.gpu.memory().poke(buf, &data)?;
                            assert_eq!(tempi.send(ctx, buf, count, dt, 1, tag)?, Some(ran));
                        } else {
                            ctx.gpu.memory().poke(buf, &vec![0u8; span])?;
                            let t0 = ctx.clock.now();
                            let (st, m) = tempi.recv(ctx, buf, count, dt, Some(0), Some(tag))?;
                            took = ctx.clock.now() - t0;
                            assert_eq!((st.bytes, m), (bytes, Some(ran)));
                            let want = oracle(ctx, &data, (count, dt), (count, dt), span);
                            assert_eq!(ctx.gpu.memory().peek(buf, span)?, want);
                        }
                    }
                    let s = tempi.stats;
                    let sends = [
                        (Method::Device, s.device_sends),
                        (Method::OneShot, s.oneshot_sends),
                        (Method::Staged, s.staged_sends),
                        (Method::Pipelined, s.pipelined_sends),
                    ];
                    for (m, n) in sends {
                        let want = if m == ran && ctx.rank == 0 { 2 } else { 0 };
                        assert_eq!(n, want, "{m:?} sends on rank {}", ctx.rank);
                    }
                    let parts = ran == Method::Pipelined && ctx.rank == 1;
                    assert_eq!(s.pipelined_recvs, if parts { 2 } else { 0 });
                    assert_eq!((s.fallbacks, s.degraded_sends, s.comm_failures), (0, 0, 0));
                    assert_eq!(tempi.pool.outstanding(), 0);
                    // the cut takes no lease and launches nothing, on either
                    // rank; the sender says so in its choice
                    let chose = tempi.last_choice().map(|c| c.chunk);
                    if let (Some(run), 0) = (cut, ctx.rank) {
                        assert_eq!(chose, Some(Some(run)), "{name}: not cut");
                    }
                    if cut.is_some() {
                        let stream = ctx.stream.stats();
                        assert_eq!((stream.kernel_launches, s.pool_fresh_allocs), (0, 0));
                    }
                    let model = tempi.send_model(ctx, 1 - ctx.rank);
                    let modeled = match cut {
                        Some(run) => model.t_cut(bytes, run),
                        None => {
                            (model.breakdown(ran, bytes, plan.block_bytes(), plan.word())).total()
                        }
                    };
                    Ok((ran, took, modeled))
                })
                .expect(name);
                // conservation, one-piece methods and the cut: the
                // receiver-side one-way time is the interposer's dispatch
                // plus the recipe's terms (the cut's closed form), to the
                // picosecond (the pipelined replay has its own, 3 %, check
                // below)
                let (ran, took, modeled) = results[1];
                if ran != Method::Pipelined {
                    assert_eq!(
                        took,
                        TEMPI_DISPATCH_OVERHEAD + modeled,
                        "{forced:?} {ran:?} / {name}: executed vs dispatch + model"
                    );
                }
            }
        }
    }

    #[test]
    fn send_of_contiguous_type_falls_through() {
        let mut cfg = WorldConfig::summit(2);
        cfg.net.ranks_per_node = 1;
        let results = World::run(&cfg, |ctx| {
            let mut tempi = configured(|_| {});
            let dt = ctx.type_contiguous(1024, MPI_BYTE)?;
            tempi.type_commit(ctx, dt)?;
            let buf = ctx.gpu.malloc(1024)?;
            if ctx.rank == 0 {
                let m = tempi.send(ctx, buf, 1, dt, 1, 0)?;
                assert_eq!(m, None);
                Ok(tempi.stats.fallbacks)
            } else {
                let (_, m) = tempi.recv(ctx, buf, 1, dt, Some(0), Some(0))?;
                assert_eq!(m, None);
                Ok(tempi.stats.fallbacks)
            }
        })
        .unwrap();
        assert_eq!(results, vec![1, 1]);
    }

    #[test]
    fn model_choice_differs_by_shape() {
        // large object, tiny blocks → device; small-ish object with big
        // blocks → one-shot (both ranks on different nodes)
        let mut cfg = WorldConfig::summit(2);
        cfg.net.ranks_per_node = 1;
        let results = World::run(&cfg, |ctx| {
            let mut tempi = configured(|_| {});
            // 4 MiB, 16-byte blocks
            let small_blocks = ctx.type_vector((4 << 20) / 16, 16, 32, MPI_BYTE)?;
            // 1 MiB, 4096-byte blocks
            let big_blocks = ctx.type_vector(256, 4096, 8192, MPI_BYTE)?;
            let p1 = tempi.type_commit(ctx, small_blocks)?;
            let p2 = tempi.type_commit(ctx, big_blocks)?;
            let m = tempi.send_model(ctx, 1 - ctx.rank);
            let three = [Method::Device, Method::OneShot, Method::Staged];
            let pick = |p: &TypePlan| {
                let (bytes, block) = (p.size as usize, p.block_bytes());
                m.choose_among(&three, bytes, block, p.word(), &|_| 1.0)
                    .method
            };
            Ok((pick(&p1), pick(&p2)))
        })
        .unwrap();
        assert_eq!(results[0], (Method::Device, Method::OneShot));
    }

    #[test]
    fn buffer_pool_reused_across_sends() {
        let mut cfg = WorldConfig::summit(2);
        cfg.net.ranks_per_node = 1;
        let results = World::run(&cfg, |ctx| {
            let mut tempi = configured(|_| {});
            let dt = ctx.type_vector(64, 16, 64, MPI_BYTE)?;
            tempi.type_commit(ctx, dt)?;
            let span = 63 * 64 + 16;
            let buf = ctx.gpu.malloc(span)?;
            for i in 0..5 {
                if ctx.rank == 0 {
                    tempi.send(ctx, buf, 1, dt, 1, i)?;
                } else {
                    tempi.recv(ctx, buf, 1, dt, Some(0), Some(i))?;
                }
            }
            Ok(tempi.pool.fresh_allocs)
        })
        .unwrap();
        // warm-up allocates; steady state reuses
        assert!(results[0] <= 2, "sender allocs {}", results[0]);
        assert!(results[1] <= 2, "receiver allocs {}", results[1]);
    }

    #[test]
    fn pipelined_send_recv_roundtrip_and_wins_at_scale() {
        let mut cfg = WorldConfig::summit(2);
        cfg.net.ranks_per_node = 1;
        let total = 4usize << 20;
        let block = 1024usize;
        let count = total / block;
        let span = count * block * 2;

        let run = |force: Option<Method>| -> (Vec<u8>, u64, SimTime) {
            let results = World::run(&cfg, |ctx| {
                let mut tempi = configured(|c| c.force_method = force);
                let dt =
                    ctx.type_vector(count as i32, block as i32, (block * 2) as i32, MPI_BYTE)?;
                tempi.type_commit(ctx, dt)?;
                let buf = ctx.gpu.malloc(span)?;
                if ctx.rank == 0 {
                    let data: Vec<u8> = (0..span).map(|i| (i % 253) as u8).collect();
                    ctx.gpu.memory().poke(buf, &data)?;
                    // warm-up + measured
                    tempi.send(ctx, buf, 1, dt, 1, 0)?;
                    ctx.barrier();
                    tempi.send(ctx, buf, 1, dt, 1, 1)?;
                    Ok((Vec::new(), tempi.stats.pipelined_sends, 0u64))
                } else {
                    tempi.recv(ctx, buf, 1, dt, Some(0), Some(0))?;
                    ctx.barrier();
                    let t0 = ctx.clock.now();
                    let (st, _) = tempi.recv(ctx, buf, 1, dt, Some(0), Some(1))?;
                    let elapsed = ctx.clock.now() - t0;
                    assert_eq!(st.bytes, total);
                    let got = ctx.gpu.memory().peek(buf, span)?;
                    Ok((got, tempi.stats.pipelined_recvs, elapsed.as_ps()))
                }
            })
            .unwrap();
            let (got, recvs, t) = results[1].clone();
            (got, recvs, SimTime::from_ps(t))
        };

        // with nothing forced and no knob set, the model pipelines a
        // 4 MiB coarse-grained object
        let (pipe_bytes, pipe_recvs, t_pipe) = run(None);
        assert_eq!(pipe_recvs, 2);
        // and that beats each one-piece method, with identical bytes
        for m in [Method::Device, Method::OneShot, Method::Staged] {
            let (plain_bytes, plain_recvs, t_plain) = run(Some(m));
            assert_eq!(plain_recvs, 0);
            assert_eq!(plain_bytes, pipe_bytes, "{m:?}");
            assert!(
                t_pipe < t_plain,
                "pipelined {t_pipe} should beat {m:?} {t_plain}"
            );
        }
    }

    #[test]
    fn pipelined_method_degenerates_to_staged_for_small_objects() {
        let mut cfg = WorldConfig::summit(2);
        cfg.net.ranks_per_node = 1;
        let results = World::run(&cfg, |ctx| {
            let mut tempi = configured(|c| {
                (c.pipeline_chunk, c.force_method) = (Some(1 << 20), Some(Method::Pipelined))
            });
            // one chunk's worth of blocks -> degenerates to staged
            let dt = ctx.type_vector(16, 64, 128, MPI_BYTE)?;
            tempi.type_commit(ctx, dt)?;
            let buf = ctx.gpu.malloc(16 * 128)?;
            if ctx.rank == 0 {
                let m = tempi.send(ctx, buf, 1, dt, 1, 0)?;
                Ok(m)
            } else {
                let (_, m) = tempi.recv(ctx, buf, 1, dt, Some(0), Some(0))?;
                Ok(m)
            }
        })
        .unwrap();
        assert_eq!(results[0], Some(Method::Staged));
        assert_eq!(results[1], Some(Method::Staged));
    }

    #[test]
    fn model_prefers_pipelined_for_large_coarse_objects() {
        let m = crate::model::SendModel::summit_internode();
        let (bytes, block, word, chunk) = (4usize << 20, 4096usize, 8usize, 256usize << 10);
        let pipelined = m.t_pipelined(bytes, block, word, chunk);
        let device = m.t_device(bytes, block, word).total();
        let oneshot = m.t_oneshot(bytes, block, word).total();
        assert!(pipelined < device, "{pipelined} vs device {device}");
        assert!(pipelined < oneshot, "{pipelined} vs oneshot {oneshot}");
    }

    #[test]
    fn struct_builds_blocklist_and_packs() {
        // no knob: a struct takes the block-list kernel by default
        let mut ctx = ctx();
        let mut tempi = configured(|_| {});
        let dt = ctx
            .type_create_struct(&[2, 1], &[0, 16], &[MPI_INT, MPI_DOUBLE])
            .unwrap();
        let plan = tempi.type_commit(&mut ctx, dt).unwrap();
        match &plan.kind {
            PlanKind::Blocks(bl) => assert_eq!(bl.blocks, vec![(0, 8), (16, 8)]),
            other => panic!("expected blocks, got {other:?}"),
        }
        let src = ctx.gpu.malloc(32).unwrap();
        ctx.gpu.memory().poke(src, &fill(32)).unwrap();
        let dst = ctx.gpu.malloc(16).unwrap();
        let mut pos = 0;
        tempi.pack(&mut ctx, src, 1, dt, dst, 16, &mut pos).unwrap();
        assert_eq!(tempi.stats.fallbacks, 0, "blocklist kernel, not fallback");
        let data = fill(32);
        let got = ctx.gpu.memory().peek(dst, 16).unwrap();
        assert_eq!(&got[..8], &data[..8]);
        assert_eq!(&got[8..16], &data[16..24]);
    }

    #[test]
    fn struct_of_vectors_keeps_its_members_strided() {
        let mut ctx = ctx();
        let mut tempi = configured(|_| {});
        let v = ctx.type_vector(2, 2, 4, MPI_BYTE).unwrap(); // blocks at 0,4
        let dt = ctx
            .type_create_struct(&[1, 2], &[32, 0], &[MPI_INT, v])
            .unwrap();
        let plan = tempi.type_commit(&mut ctx, dt).unwrap();
        let PlanKind::Multi(members) = &plan.kind else {
            panic!("expected a member list, got {:?}", plan.kind);
        };
        // int at 32, then two vector elements (extent 6) at 0 and 6: one
        // entry each, the vector's word what its place after the int allows
        let int = Member {
            word: 4,
            ..Member::run(32, 4)
        };
        let vectors = Member {
            start: 0,
            counts: [2, 2, 2, 1],
            strides: [1, 4, 6, 0],
            ndims: 3,
            word: 2,
        };
        assert_eq!(members[..], [int, vectors]);
        assert_eq!((plan.block_bytes(), plan.word()), (2, 2));
        let mut runs = Vec::new();
        vectors.for_each_block(|off, _| runs.push(off));
        assert_eq!(runs, [0, 4, 6, 10]);
    }

    /// Virtual time of one `MPI_Pack` and one `MPI_Unpack` of `dt` between
    /// device buffers, under the committed plan or under `kind` in its place.
    fn pack_unpack_times(
        ctx: &mut RankCtx,
        tempi: &mut Tempi,
        dt: Datatype,
        kind: Option<PlanKind>,
    ) -> (SimTime, SimTime) {
        let plan = tempi.type_commit(ctx, dt).unwrap();
        if let Some(kind) = kind {
            let swapped = TypePlan {
                kind,
                ..(*plan).clone()
            };
            tempi.commits.hold(dt, swapped);
        }
        let size = plan.size as usize;
        let typed = ctx.gpu.malloc(plan.extent as usize + 64).unwrap();
        let packed = ctx.gpu.malloc(size).unwrap();
        let t0 = ctx.clock.now();
        tempi.pack(ctx, typed, 1, dt, packed, size, &mut 0).unwrap();
        let t1 = ctx.clock.now();
        tempi
            .unpack(ctx, packed, size, &mut 0, typed, 1, dt)
            .unwrap();
        (t1 - t0, ctx.clock.now() - t1)
    }

    #[test]
    fn a_member_is_priced_as_its_own_strided_plan_and_a_list_below_its_runs() {
        let (mut ctx, mut tempi) = (ctx(), configured(|_| {}));
        // a list of one member takes exactly the time of that member's plan
        let (sizes, sub) = ([16, 64, 256], [8, 32, 128]);
        let boxed = ctx
            .type_create_subarray(&sizes, &sub, &[1, 2, 16], Order::C, MPI_BYTE)
            .unwrap();
        let strided = pack_unpack_times(&mut ctx, &mut tempi, boxed, None);
        let PlanKind::Strided(kp) = &tempi.plan(boxed).unwrap().kind else {
            panic!("a subarray is a strided plan");
        };
        let only = Member {
            word: kp.word as u8,
            ..Member::of(&kp.sb, 1, 0, 0).unwrap()
        };
        let alone = PlanKind::Multi(vec![only]);
        let listed = pack_unpack_times(&mut ctx, &mut tempi, boxed, Some(alone));
        assert_eq!(listed, strided);

        // and a list never takes longer than the flat list of the same runs:
        // two faces, an edge and a corner of a 68³ grid of floats (rows of
        // 256 and of 8 bytes); the struct zoo's strided members
        let halo: fn(&mut RankCtx) -> MpiResult<Datatype> = |c| {
            let region = |c: &mut RankCtx, sub: [i32; 3], start: [i32; 3]| {
                c.type_create_subarray(&[68; 3], &sub, &start, Order::C, MPI_FLOAT)
            };
            let face = region(c, [64, 64, 2], [2, 2, 64])?;
            let edge = region(c, [64, 2, 2], [2, 2, 2])?;
            let corner = region(c, [2, 2, 2], [64, 64, 64])?;
            let wide = region(c, [2, 64, 64], [2, 2, 2])?;

            c.type_create_struct(&[1; 4], &[0; 4], &[face, wide, edge, corner])
        };
        let vectors: fn(&mut RankCtx) -> MpiResult<Datatype> = |c| {
            let v = c.type_vector(3, 2, 4, MPI_BYTE)?;
            c.type_create_struct(&[2, 1], &[0, 21], &[v, MPI_INT])
        };
        let resized: fn(&mut RankCtx) -> MpiResult<Datatype> = |c| {
            let wide = c.type_create_resized(MPI_INT, 0, 9)?;
            c.type_create_struct(&[2, 1], &[0, 18], &[wide, MPI_SHORT])
        };
        for build in [halo, vectors, resized] {
            let dt = build(&mut ctx).unwrap();
            let (pack, unpack) = pack_unpack_times(&mut ctx, &mut tempi, dt, None);
            let PlanKind::Multi(members) = &tempi.plan(dt).unwrap().kind else {
                panic!("{} is a member list", ctx.describe(dt));
            };
            let mut blocks = Vec::new();
            for m in members {
                m.for_each_block(|off, len| blocks.push((off, len as u64)));
            }
            let flat = PlanKind::Blocks(BlockList { blocks });
            let (flat_pack, flat_unpack) = pack_unpack_times(&mut ctx, &mut tempi, dt, Some(flat));
            assert!(pack < flat_pack && unpack < flat_unpack);
        }
    }

    #[test]
    fn second_commit_pays_only_for_the_derived_type() {
        // the first commit of a rank pays MPI for what MPI_BYTE is; the
        // report counts priced calls, so a fresh type built on it costs
        // its own envelope and contents and nothing else
        let mut ctx = ctx();
        let mut tempi = configured(|_| {});
        let v = ctx.type_vector(4, 2, 8, MPI_BYTE).unwrap();
        let first = tempi.type_commit(&mut ctx, v).unwrap().report;
        // envelope + contents, then extent and envelope of MPI_BYTE once
        assert_eq!(first.introspection_calls, 4);

        let v = ctx.type_vector(5, 3, 9, MPI_BYTE).unwrap();
        let t0 = ctx.clock.now();
        let second = tempi.type_commit(&mut ctx, v).unwrap().report;
        assert_eq!(second.introspection_calls, 2);
        // what is not counted is not charged either
        let calls = ctx.vendor.introspection_call_cost * 2;
        assert!(ctx.clock.now() - t0 >= calls);
        assert!(second.commit_time < first.commit_time);

        let soa = ctx
            .type_create_struct(
                &[16; 8],
                &[0, 64, 128, 192, 256, 320, 384, 448],
                &[MPI_BYTE; 8],
            )
            .unwrap();
        let plan = tempi.type_commit(&mut ctx, soa).unwrap();
        assert_eq!(plan.report.introspection_calls, 2);
        match &plan.kind {
            PlanKind::Blocks(bl) => assert_eq!(bl.blocks.len(), 8),
            other => panic!("expected blocks, got {other:?}"),
        }

        // another rank's library state has learnt nothing yet
        let mut other = configured(|_| {});
        let v = ctx.type_vector(5, 3, 9, MPI_BYTE).unwrap();
        let report = other.type_commit(&mut ctx, v).unwrap().report;
        assert_eq!(report.introspection_calls, 4);

        // a derived child's extent is asked for only when a stream of more
        // than one element steps by it: a block of one element, or one
        // element in all, leaves it to the child's envelope and contents
        let rows = "hvector(13,1,256,contiguous(100,byte))";
        let plane = "subarray([512,256],[13,100],[0,0],byte)";
        for (spec, calls) in [
            (rows, 4),
            (&format!("hvector(47,1,65536,{rows})"), 6),
            ("contiguous(1,vector(4,2,8,byte))", 4),
            (&format!("vector(47,1,1,{plane})"), 5),
            ("vector(4,2,8,contiguous(3,byte))", 5),
        ] {
            let dt = spec.parse::<TypeTree>().unwrap().build(&mut ctx).unwrap();
            let report = tempi.type_commit(&mut ctx, dt).unwrap().report;
            assert_eq!(report.introspection_calls, calls, "{spec}");
        }
    }

    #[test]
    fn a_stride_no_stream_steps_by_is_never_formed() {
        // one block of one element: the system MPI accepts the type, whose
        // stride × extent leaves 64 bits, and so does TEMPI
        let mut ctx = ctx();
        let mut tempi = configured(|_| {});
        let spec = "vector(1,1,2147483647,contiguous(2147483647,double))";
        let dt = spec.parse::<TypeTree>().unwrap().build(&mut ctx).unwrap();
        let plan = tempi.type_commit(&mut ctx, dt).unwrap();
        let PlanKind::Strided(kp) = &plan.kind else {
            panic!("{spec} is one run, got {:?}", plan.kind);
        };
        assert_eq!(kp.kind, KernelKind::Memcpy1D);
        assert_eq!(kp.sb.block_count(), 1);
        assert_eq!(kp.sb.block_bytes(), 17_179_869_176);
        assert_eq!(plan.size, 17_179_869_176);
    }

    #[test]
    fn indexed_block_gets_blocklist_plan() {
        let mut ctx = ctx();
        let mut tempi = configured(|_| {});
        let dt = ctx
            .type_create_indexed_block(2, &[8, 0, 4], MPI_INT)
            .unwrap();
        let plan = tempi.type_commit(&mut ctx, dt).unwrap();
        match &plan.kind {
            PlanKind::Blocks(bl) => {
                assert_eq!(bl.blocks, vec![(32, 8), (0, 8), (16, 8)]);
            }
            other => panic!("expected blocks, got {other:?}"),
        }
        assert_eq!(plan.size, 24);
        let src = ctx.gpu.malloc(64).unwrap();
        ctx.gpu.memory().poke(src, &fill(64)).unwrap();
        let dst = ctx.gpu.malloc(24).unwrap();
        let mut pos = 0;
        tempi.pack(&mut ctx, src, 1, dt, dst, 24, &mut pos).unwrap();
        let data = fill(64);
        let got = ctx.gpu.memory().peek(dst, 24).unwrap();
        assert_eq!(&got[..8], &data[32..40]);
        assert_eq!(&got[8..16], &data[..8]);
    }

    #[test]
    fn pack_source_out_of_bounds_is_an_error_not_corruption() {
        let mut ctx = ctx();
        let mut tempi = configured(|_| {});
        let dt = ctx.type_vector(16, 8, 16, MPI_BYTE).unwrap(); // needs 248 B
        tempi.type_commit(&mut ctx, dt).unwrap();
        let src = ctx.gpu.malloc(64).unwrap(); // too small
        let dst = ctx.gpu.malloc(128).unwrap();
        let mut pos = 0;
        let err = tempi
            .pack(&mut ctx, src, 1, dt, dst, 128, &mut pos)
            .unwrap_err();
        assert!(matches!(err, MpiError::Gpu(_)), "{err}");
    }

    #[test]
    fn plan_survives_type_free_like_real_mpi_handles() {
        // MPI says a committed type may be freed after communication
        // completes; TEMPI's cached plan keeps working for the handle it
        // already captured (the plan owns its layout).
        let mut ctx = ctx();
        let mut tempi = configured(|_| {});
        let dt = ctx.type_vector(4, 4, 8, MPI_BYTE).unwrap();
        let plan = tempi.type_commit(&mut ctx, dt).unwrap();
        ctx.type_free(dt).unwrap();
        // the cached Arc is still valid
        assert_eq!(plan.size, 16);
        assert!(tempi.plan(dt).is_some());
    }

    #[test]
    fn a_reused_slot_is_never_served_its_dead_occupants_plans() {
        // A and B are each one run inside a longer extent, so 4 items are
        // one more stride dimension; B takes A's slot with another layout
        let (mut ctx, count, span) = (ctx(), 4, 4 * 128);
        let mut mpi = InterposedMpi::new(TempiConfig::default());
        let a = ctx
            .type_create_subarray(&[128], &[64], &[0], Order::C, MPI_BYTE)
            .unwrap();
        mpi.type_commit(&mut ctx, a).unwrap();
        let src = ctx.gpu.malloc(span).unwrap();
        ctx.gpu.memory().poke(src, &fill(span)).unwrap();
        let packed = ctx.gpu.malloc(span).unwrap();
        mpi.pack(&mut ctx, src, count, a, packed, span, &mut 0)
            .unwrap();
        let e = MpiError::Internal("a kernel failed before".into());
        let step = ("Kernel", "HostCopy");
        mpi.tempi.degrade(&mut ctx, a, Rung::Kernel, step, &e);
        // freed behind the library's back: A's plan and its quarantined
        // kernel rung both stay
        ctx.type_free(a).unwrap();
        let b = ctx
            .type_create_subarray(&[96], &[32], &[16], Order::C, MPI_BYTE)
            .unwrap();
        assert_eq!((b.slot(), b.generation()), (a.slot(), 1));

        let before = mpi.tempi.stats;
        let launches = ctx.stream.stats().kernel_launches;
        mpi.type_commit(&mut ctx, b).unwrap();
        let s = mpi.tempi.stats;
        assert_eq!(
            s.commit_cache_hits, before.commit_cache_hits,
            "B hit A's plan"
        );
        assert_eq!(s.commits, before.commits + 1);
        assert_eq!(mpi.tempi.cached_plans(), 1, "B's plan replaced A's");
        assert!(mpi.tempi.plan(a).is_none());
        assert!(!mpi.tempi.quarantine.holds(b, Rung::Kernel, ctx.clock.now()));

        // the pack is a kernel's, not the CPU copy's, and moves B's bytes,
        // not A's rows
        let mut pos = 0;
        mpi.pack(&mut ctx, src, count, b, packed, span, &mut pos)
            .unwrap();
        let mut want = vec![0u8; count * 32];
        let reg = ctx.registry().read();
        pack_cpu::pack(&reg, &fill(span), 0, count, b, &mut want, &mut 0).unwrap();
        drop(reg);
        assert_eq!(ctx.gpu.memory().peek(packed, pos).unwrap(), want);
        assert_eq!(mpi.tempi.stats.degraded_xfers, before.degraded_xfers);
        assert!(ctx.stream.stats().kernel_launches > launches);

        // and a send of B lands the typemap oracle's bytes
        let dst = ctx.gpu.malloc(span).unwrap();
        ctx.gpu.memory().poke(dst, &vec![0u8; span]).unwrap();
        mpi.send(&mut ctx, src, count, b, 0, 0).unwrap();
        mpi.recv(&mut ctx, dst, count, b, Some(0), Some(0)).unwrap();
        let want = oracle(&ctx, &fill(span), (count, b), (count, b), span);
        assert_eq!(ctx.gpu.memory().peek(dst, span).unwrap(), want);
        assert_eq!(mpi.stats().commit_cache_hits, before.commit_cache_hits);
    }

    #[test]
    fn a_type_over_a_freed_child_stays_uncommittable_after_its_slot_is_reused() {
        let mut ctx = ctx();
        let mut tempi = configured(|_| {});
        let row = ctx.type_contiguous(4, MPI_INT).unwrap();
        let plane = ctx.type_vector(3, 1, 2, row).unwrap();
        ctx.type_free(row).unwrap();
        let other = ctx.type_create_hvector(2, 1, 64, MPI_DOUBLE).unwrap();
        assert_eq!(other.slot(), row.slot());
        let commit = tempi.type_commit(&mut ctx, plane);
        assert_eq!(commit.unwrap_err(), MpiError::InvalidDatatype);
        assert!(tempi.plan(plane).is_none());
    }

    /// What a receive of `dt` into a zeroed `span`-byte buffer must hold
    /// after a sender sent `dt` from `data`: the CPU pack of the sender's
    /// bytes, unpacked over the receiver's type.
    pub(crate) fn oracle(
        ctx: &RankCtx,
        data: &[u8],
        send: (usize, Datatype),
        recv: (usize, Datatype),
        span: usize,
    ) -> Vec<u8> {
        let reg = ctx.registry().read();
        let bytes = reg.attrs(send.1).unwrap().size as usize * send.0;
        let mut packed = vec![0u8; bytes];
        pack_cpu::pack(&reg, data, 0, send.0, send.1, &mut packed, &mut 0).unwrap();
        let mut want = vec![0u8; span];
        pack_cpu::unpack(&reg, &packed, &mut 0, &mut want, 0, recv.0, recv.1).unwrap();
        want
    }

    #[test]
    fn any_matching_receive_completes_a_pipelined_transfer() {
        // a strided 1 MiB send the default configuration pipelines, taken
        // by receivers that know nothing about parts: TEMPI's own
        // fall-through (a contiguous MPI_BYTE receive), the system MPI's
        // typed receive, and a raw receive into host memory
        let mut cfg = WorldConfig::summit(2);
        cfg.net.ranks_per_node = 1;
        let bytes = 1usize << 20;
        let span = 4096 * 512;
        let results = World::run(&cfg, |ctx| {
            let dt = ctx.type_vector(4096, 256, 512, MPI_BYTE)?;
            let mut tempi = configured(|_| {});
            tempi.type_commit(ctx, dt)?;
            let buf = ctx.gpu.malloc(span)?;
            let data = fill(span);
            if ctx.rank == 0 {
                ctx.gpu.memory().poke(buf, &data)?;
                for tag in 0..3 {
                    let m = tempi.send(ctx, buf, 1, dt, 1, tag)?;
                    assert_eq!(m, Some(Method::Pipelined));
                }
                return Ok(true);
            }
            let mut packed = vec![0u8; bytes];
            {
                let reg = ctx.registry().read();
                pack_cpu::pack(&reg, &data, 0, 1, dt, &mut packed, &mut 0)?;
            }
            let flat = ctx.gpu.malloc(bytes)?;
            let (st, m) = tempi.recv(ctx, flat, bytes, MPI_BYTE, Some(0), Some(0))?;
            let fell_through = m.is_none() && st.bytes == bytes;
            let got_flat = ctx.gpu.memory().peek(flat, bytes)?;

            let st = ctx.recv(buf, 1, dt, Some(0), Some(1))?;
            let got_typed = ctx.gpu.memory().peek(buf, span)?;
            let want_typed = oracle(ctx, &data, (1, dt), (1, dt), span);

            let host = ctx.gpu.host_alloc(bytes)?;
            let st_host = ctx.recv_bytes(host, bytes, Some(0), Some(2))?;
            let got_host = ctx.gpu.memory().peek(host, bytes)?;
            Ok(fell_through
                && got_flat == packed
                && st.bytes == bytes
                && got_typed == want_typed
                && st_host.bytes == bytes
                && got_host == packed)
        })
        .unwrap();
        assert!(results[1], "every receive must deliver all the bytes");
    }

    #[test]
    fn chunks_cut_inside_the_receivers_blocks_are_unpacked_whole() {
        // a receiver whose type has the sender's signature but a block
        // length the chunks do not end on: the parts are staged back to
        // back and unpacked once (the matrix above covers matching types)
        let mut cfg = WorldConfig::summit(2);
        cfg.net.ranks_per_node = 1;
        let (blocks, block, recv_block, chunk) = (1024usize, 256usize, 1024usize, 96usize << 10);
        let results = World::run(&cfg, |ctx| {
            let mut tempi = configured(|c| {
                (c.force_method, c.pipeline_chunk) = (Some(Method::Pipelined), Some(chunk))
            });
            let sdt = ctx.type_vector(blocks as i32, block as i32, 2 * block as i32, MPI_BYTE)?;
            let rblocks = blocks * block / recv_block;
            let rdt = ctx.type_vector(
                rblocks as i32,
                recv_block as i32,
                2 * recv_block as i32,
                MPI_BYTE,
            )?;
            tempi.type_commit(ctx, sdt)?;
            tempi.type_commit(ctx, rdt)?;
            let span = 2 * blocks * block;
            let buf = ctx.gpu.malloc(span)?;
            let data = fill(span);
            if ctx.rank == 0 {
                ctx.gpu.memory().poke(buf, &data)?;
                let m = tempi.send(ctx, buf, 1, sdt, 1, 0)?;
                Ok(m == Some(Method::Pipelined) && tempi.pool.outstanding() == 0)
            } else {
                let (st, m) = tempi.recv(ctx, buf, 1, rdt, Some(0), Some(0))?;
                let got = ctx.gpu.memory().peek(buf, span)?;
                let want = oracle(ctx, &data, (1, sdt), (1, rdt), span);
                Ok(st.bytes == blocks * block
                    && m == Some(Method::Pipelined)
                    && got == want
                    && tempi.stats.pipelined_recvs == 1
                    && tempi.pool.outstanding() == 0)
            }
        })
        .unwrap();
        assert_eq!(results, vec![true, true]);
    }

    /// The struct-of-arrays object: eight 2 KiB fields 64 KiB apart, whose
    /// runs the model ships as they lie.
    pub(crate) fn soa(c: &mut RankCtx) -> MpiResult<Datatype> {
        let displs: Vec<i64> = (0..8).map(|i| i << 16).collect();
        c.type_create_struct(&[2048; 8], &displs, &[MPI_BYTE; 8])
    }

    #[test]
    fn a_train_lands_in_place_on_its_own_runs_and_is_unpacked_once_on_others() {
        // five cut sends of the soa object, taken by a TEMPI receive of the
        // same type (run k straight into run k: no kernel on either rank),
        // of a type of the same signature but other runs (staged, one
        // unpack kernel), by the system MPI, and by a receive too small for
        // the train (refused with the train's full size, and consumed: the
        // next receive takes the fifth)
        let mut cfg = WorldConfig::summit(2);
        cfg.net.ranks_per_node = 1;
        let span = (7 << 16) + 2048;
        let results = World::run(&cfg, |ctx| {
            let mut tempi = configured(|_| {});
            let dt = soa(ctx)?;
            let other = ctx.type_vector(4, 4096, 8192, MPI_BYTE)?;
            let small = ctx.type_vector(2, 2048, 65536, MPI_BYTE)?;
            for t in [dt, other, small] {
                tempi.type_commit(ctx, t)?;
            }
            let buf = ctx.gpu.malloc(span)?;
            let data = fill(span);
            let launches = |ctx: &RankCtx| ctx.stream.stats().kernel_launches;
            if ctx.rank == 0 {
                ctx.gpu.memory().poke(buf, &data)?;
                for tag in [0, 1, 2, 3, 3] {
                    assert_eq!(tempi.send(ctx, buf, 1, dt, 1, tag)?, Some(Method::Device));
                    assert_eq!(tempi.last_choice().and_then(|c| c.chunk), Some(2048));
                }
                assert_eq!((launches(ctx), tempi.stats.pool_fresh_allocs), (0, 0));
                return Ok(());
            }
            let take = |ctx: &mut RankCtx, mpi: &mut InterposedMpi, t: Datatype, tag| {
                ctx.gpu.memory().poke(buf, &vec![0; span])?;
                let st = mpi.recv(ctx, buf, 1, t, Some(0), Some(tag))?;
                assert_eq!(st.bytes, 16 << 10);
                let want = oracle(ctx, &data, (1, dt), (1, t), span);
                assert_eq!(
                    ctx.gpu.memory().peek(buf, span)?,
                    want,
                    "received as tag {tag}"
                );
                Ok::<_, MpiError>(())
            };
            let mut own = InterposedMpi::new(TempiConfig::default());
            own.tempi = tempi;
            take(ctx, &mut own, dt, 0)?;
            assert_eq!((launches(ctx), own.tempi.stats.pool_fresh_allocs), (0, 0));
            take(ctx, &mut own, other, 1)?;
            assert_eq!(launches(ctx), 1, "one unpack of the staged train");
            take(ctx, &mut InterposedMpi::system_only(), dt, 2)?;
            let refused = own.recv(ctx, buf, 1, small, Some(0), Some(3));
            let full = MpiError::Truncated {
                sent: 16 << 10,
                capacity: 4096,
                envelope: ctx.registry().read().get_envelope(small).ok(),
            };
            assert_eq!(refused, Err(full));
            take(ctx, &mut own, dt, 3)?;
            assert_eq!(ctx.pending_messages(), 0);
            Ok(())
        });
        results.unwrap();
    }

    #[test]
    fn executed_pipeline_takes_what_the_model_says() {
        // conservation: the receiver-side one-way time of a pipelined
        // transfer is the model's replay of it, for every chunk candidate
        let mut cfg = WorldConfig::summit(2);
        cfg.net.ranks_per_node = 1;
        for total in [1usize << 20, 2 << 20, 4 << 20] {
            for block in [8usize, 512] {
                for chunk in crate::model::CHUNK_CANDIDATES {
                    let blocks = total / block;
                    let results = World::run(&cfg, |ctx| {
                        let mut tempi = configured(|c| {
                            (c.force_method, c.pipeline_chunk) =
                                (Some(Method::Pipelined), Some(chunk))
                        });
                        let dt = ctx.type_vector(
                            blocks as i32,
                            block as i32,
                            (2 * block) as i32,
                            MPI_BYTE,
                        )?;
                        let plan = tempi.type_commit(ctx, dt)?;
                        let buf = ctx.gpu.malloc(2 * total)?;
                        let mut took = SimTime::ZERO;
                        // the first op allocates the staging rings
                        for tag in 0..2 {
                            ctx.barrier();
                            if ctx.rank == 0 {
                                tempi.send(ctx, buf, 1, dt, 1, tag)?;
                            } else {
                                let t0 = ctx.clock.now();
                                tempi.recv(ctx, buf, 1, dt, Some(0), Some(tag))?;
                                took = ctx.clock.now() - t0;
                            }
                        }
                        let model = tempi.send_model(ctx, 1 - ctx.rank).t_pipelined(
                            total,
                            plan.block_bytes(),
                            plan.word(),
                            chunk,
                        );
                        Ok((took.as_ns_f64(), model.as_ns_f64()))
                    })
                    .unwrap();
                    let (took, model) = results[1];
                    assert!(
                        (took - model).abs() <= 0.03 * model,
                        "{total} B / {block} B blocks / {chunk} B chunks: \
                         executed {took} ns, model {model} ns"
                    );
                }
            }
        }
    }

    #[test]
    fn phase_spans_are_disjoint_inside_their_call_and_in_recipe_order() {
        // a traced 2-rank transfer under every forced method, and one the
        // model cuts at its 16 runs: per rank the phase spans must not
        // overlap, must lie inside the MPI_Send / MPI_Recv span, and must
        // come in the order the recipe states — for the cut, one wire span
        // per direction, carrying its parts
        for forced in Method::LADDER.map(Some).into_iter().chain([None]) {
            let tracer = Tracer::new(tempi_trace::TraceLevel::Spans);
            let mut cfg = WorldConfig::summit(2).with_tracer(tracer.clone());
            cfg.net.ranks_per_node = 1;
            World::run(&cfg, |ctx| {
                let mut tempi =
                    configured(|c| (c.force_method, c.pipeline_chunk) = (forced, Some(16 << 10)));
                let dt = match forced {
                    Some(_) => ctx.type_vector(512, 128, 256, MPI_BYTE)?,
                    None => ctx.type_vector(16, 512, 1024, MPI_BYTE)?,
                };
                tempi.type_commit(ctx, dt)?;
                let buf = ctx.gpu.malloc(512 * 256)?;
                if ctx.rank == 0 {
                    tempi.send(ctx, buf, 1, dt, 1, 0)?;
                } else {
                    tempi.recv(ctx, buf, 1, dt, Some(0), Some(0))?;
                }
                Ok(())
            })
            .unwrap();

            use tempi_trace::EventPhase::{Begin, Complete, End};
            let events = tracer.events();
            for (pid, call, mut order) in [
                (0, "MPI_Send", vec!["pack", "copy", "wire"]),
                (1, "MPI_Recv", vec!["wire", "copy", "unpack"]),
            ] {
                let recipe = forced.unwrap_or(Method::Device).recipe();
                order.retain(|&name| match name {
                    "copy" => recipe.bounce,
                    "wire" => true,
                    _ => forced.is_some(),
                });
                // this rank's CPU lane from the call's Begin to its End
                let lane: Vec<_> = events
                    .iter()
                    .filter(|e| e.pid == pid && e.tid == LANE_CPU)
                    .skip_while(|e| !(e.ph == Begin && e.name == call))
                    .collect();
                let mut depth = 0;
                let len = lane
                    .iter()
                    .position(|e| {
                        depth += (e.ph == Begin) as i32 - (e.ph == End) as i32;
                        depth == 0 && e.ph == End
                    })
                    .unwrap_or_else(|| panic!("{forced:?}: no closed {call} span"));
                let (begin, end) = (lane[0], lane[len]);
                let phases: Vec<_> = lane[..len]
                    .iter()
                    .filter(|e| e.ph == Complete && e.cat == "tempi")
                    .collect();
                assert!(!phases.is_empty(), "{forced:?}: no phases on rank {pid}");
                let mut at = begin.ts_ps;
                for (i, e) in phases.iter().enumerate() {
                    assert!(
                        e.ts_ps >= at,
                        "{forced:?} rank {pid}: `{}` starts inside the span before it",
                        e.name
                    );
                    at = e.ts_ps + e.dur_ps;
                    // each chunk walks the recipe's stages in order; a
                    // pipelined receive ends with one more unpack, the join
                    let pipelined = forced == Some(Method::Pipelined);
                    let join = pipelined && pid == 1 && i + 1 == phases.len();
                    let want = if join {
                        "unpack"
                    } else {
                        order[i % order.len()]
                    };
                    assert_eq!(e.name, want, "{forced:?} rank {pid}, phase {i}");
                    let parts = e.args.iter().find(|(k, _)| *k == "parts");
                    let cut = forced.is_none().then_some(&tempi_trace::ArgValue::U64(16));
                    assert_eq!(parts.map(|(_, v)| v), cut, "{forced:?} rank {pid}: parts");
                }
                if forced.is_none() {
                    assert_eq!(phases.len(), 1, "rank {pid}: the cut is one wire span");
                }
                assert!(
                    at <= end.ts_ps,
                    "{forced:?} rank {pid}: a phase outlives {call}"
                );
            }
        }
    }

    #[test]
    fn online_tuner_is_deterministic_per_seed() {
        let mut cfg = WorldConfig::summit(2);
        cfg.net.ranks_per_node = 1;
        let run = |seed: u64| -> Vec<Option<Method>> {
            let results = World::run(&cfg, |ctx| {
                let mut tempi = configured(|c| (c.tuner, c.tuner_seed) = (TunerMode::Online, seed));
                let dt = ctx.type_vector(256, 64, 128, MPI_BYTE)?; // 16 KiB
                tempi.type_commit(ctx, dt)?;
                let buf = ctx.gpu.malloc(255 * 128 + 64)?;
                let mut methods = Vec::new();
                for i in 0..40 {
                    if ctx.rank == 0 {
                        methods.push(tempi.send(ctx, buf, 1, dt, 1, i)?);
                    } else {
                        tempi.recv(ctx, buf, 1, dt, Some(0), Some(i))?;
                    }
                }
                Ok(methods)
            })
            .unwrap();
            results[0].clone()
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b, "same seed must replay the same method sequence");
        assert_eq!(a.len(), 40);
        assert!(a.iter().all(|m| m.is_some()));
    }

    #[test]
    fn online_tuner_converges_to_the_model_choice() {
        // The simulator prices sends with the same cost tables the model
        // reads, so every calibration ratio stays ~1.0 and the memoized
        // method must settle on the oracle model's pick despite probes.
        let mut cfg = WorldConfig::summit(2);
        cfg.net.ranks_per_node = 1;
        let results = World::run(&cfg, |ctx| {
            let mut tempi = configured(|c| c.tuner = TunerMode::Online);
            let dt = ctx.type_vector(256, 64, 128, MPI_BYTE)?; // 16 KiB
            let plan = tempi.type_commit(ctx, dt)?;
            let buf = ctx.gpu.malloc(255 * 128 + 64)?;
            for i in 0..32 {
                if ctx.rank == 0 {
                    tempi.send(ctx, buf, 1, dt, 1, i)?;
                } else {
                    tempi.recv(ctx, buf, 1, dt, Some(0), Some(i))?;
                }
            }
            if ctx.rank != 0 {
                return Ok(true);
            }
            let oracle = tempi
                .send_model(ctx, 1)
                .choose(plan.size as usize, plan.block_bytes(), plan.word())
                .method;
            let key = BucketKey::new(1, plan.block_bytes(), plan.size as usize, false);
            let memo = tempi.tuner.memoized(&key);
            Ok(memo.map(|(m, _)| m) == Some(oracle) && tempi.stats.tuner_bucket_hits > 0)
        })
        .unwrap();
        assert!(results[0], "memoized method must match the oracle model");
    }

    #[test]
    fn every_tuner_mode_pipelines_large_coarse_objects() {
        // 4 MiB with 4 KiB blocks is the staged/one-shot crossover where
        // the §8 pipeline wins; with no configured chunk, every mode must
        // find it (and a chunk) by itself on the very first (cold) send.
        let mut cfg = WorldConfig::summit(2);
        cfg.net.ranks_per_node = 1;
        let count = (4usize << 20) / 4096;
        for tuner in [TunerMode::Off, TunerMode::Model, TunerMode::Online] {
            let results = World::run(&cfg, |ctx| {
                let mut tempi = configured(|c| c.tuner = tuner);
                let dt = ctx.type_vector(count as i32, 4096, 8192, MPI_BYTE)?;
                tempi.type_commit(ctx, dt)?;
                let buf = ctx.gpu.malloc(count * 8192)?;
                if ctx.rank == 0 {
                    tempi.send(ctx, buf, 1, dt, 1, 0)
                } else {
                    let (_, m) = tempi.recv(ctx, buf, 1, dt, Some(0), Some(0))?;
                    Ok(m)
                }
            })
            .unwrap();
            assert_eq!(results[0], Some(Method::Pipelined), "{tuner:?}");
            assert_eq!(results[1], Some(Method::Pipelined), "{tuner:?}");
        }
    }

    #[test]
    fn steady_state_sends_allocate_nothing_with_a_tracer_attached_or_not() {
        // an attached tracer that is off costs one branch per call site and
        // records nothing; a full one records the rounds, and neither puts
        // allocations back on the steady send path: a packed send reuses
        // its pooled intermediates, a cut one takes none and its train's
        // payload goes round the world's free list
        for level in [tempi_trace::TraceLevel::Off, tempi_trace::TraceLevel::Full] {
            let tracer = Tracer::new(level);
            let mut cfg = WorldConfig::summit(2).with_tracer(tracer.clone());
            cfg.net.ranks_per_node = 1;
            let results = World::run(&cfg, |ctx| {
                let mut tempi = configured(|_| {});
                // 64 runs of 16 B ship as a train; 256 of 8 B are packed
                let cut = ctx.type_vector(64, 16, 64, MPI_BYTE)?;
                let packed = ctx.type_vector(256, 8, 16, MPI_BYTE)?;
                let buf = ctx.gpu.malloc(256 * 16)?;
                let mut out = Vec::new();
                for dt in [cut, packed] {
                    tempi.type_commit(ctx, dt)?;
                    let round = |tempi: &mut Tempi, ctx: &mut RankCtx, i| {
                        ctx.barrier();
                        match ctx.rank {
                            0 => tempi.send(ctx, buf, 1, dt, 1, i).map(drop),
                            _ => tempi.recv(ctx, buf, 1, dt, Some(0), Some(i)).map(drop),
                        }
                    };
                    // the world's list, read once the payload in flight has
                    // been received and handed back
                    let settled = |ctx: &mut RankCtx| {
                        ctx.barrier();
                        ctx.pooled_payload_bytes()
                    };
                    // warm-up: allocates the intermediates
                    for i in 0..2 {
                        round(&mut tempi, ctx, i)?;
                    }
                    let (warm, payloads) = (tempi.stats, settled(ctx));
                    for i in 2..12 {
                        round(&mut tempi, ctx, i)?;
                    }
                    let s = tempi.stats;
                    let cut_sent = tempi.last_choice().and_then(|c| c.chunk) == Some(16);
                    out.push((
                        s.pool_fresh_allocs - warm.pool_fresh_allocs,
                        s.pool_hits - warm.pool_hits,
                        settled(ctx) == payloads,
                        ctx.rank == 1 || cut_sent == (dt == cut),
                    ));
                }
                Ok(out)
            })
            .unwrap();
            for (rank, per_type) in results.iter().enumerate() {
                let [cut, packed] = per_type[..] else {
                    panic!("two types")
                };
                for (fresh, _, same_payloads, chosen) in [cut, packed] {
                    assert_eq!(fresh, 0, "{level:?}: rank {rank} allocated in steady state");
                    assert!(
                        same_payloads,
                        "{level:?}: rank {rank} grew the payload list"
                    );
                    assert!(
                        chosen,
                        "{level:?}: rank {rank} did not cut only the cut type"
                    );
                }
                assert_eq!(cut.1, 0, "{level:?}: rank {rank} took a lease for a cut");
                let hits = packed.1;
                assert!(hits >= 10, "{level:?}: rank {rank} pool hits only {hits}");
            }
            let recorded = tracer.event_count() > 0;
            assert_eq!(
                recorded,
                level == tempi_trace::TraceLevel::Full,
                "{level:?}"
            );
        }
    }

    #[test]
    fn empty_type_pack_is_noop() {
        let mut ctx = ctx();
        let mut tempi = configured(|_| {});
        let dt = ctx.type_contiguous(0, MPI_INT).unwrap();
        let plan = tempi.type_commit(&mut ctx, dt).unwrap();
        assert_eq!(plan.kind, PlanKind::Empty);
        let b = ctx.gpu.malloc(4).unwrap();
        let mut pos = 0;
        tempi.pack(&mut ctx, b, 5, dt, b, 4, &mut pos).unwrap();
        assert_eq!(pos, 0);
    }
}
