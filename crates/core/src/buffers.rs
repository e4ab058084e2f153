//! Intermediate-buffer pool.
//!
//! Datatype-accelerated sends need scratch buffers — device buffers for the
//! "device" method, mapped host buffers for "one-shot", pinned buffers for
//! "staged". `cudaMalloc`/`cudaHostAlloc` cost ~100 µs each, so TEMPI (like
//! the real library) retains and reuses them; after warm-up, steady-state
//! sends pay nothing for allocation. The paper's methodology (trimean over
//! thousands of repetitions) measures exactly this steady state.

use gpu_sim::{GpuPtr, MemSpace};
use mpi_sim::{MpiResult, RankCtx};

/// Size-tracked free lists per address space.
#[derive(Default)]
pub struct BufferPool {
    device: Vec<(GpuPtr, usize)>,
    mapped: Vec<(GpuPtr, usize)>,
    pinned: Vec<(GpuPtr, usize)>,
    /// Fresh allocations performed (for tests/reporting).
    pub fresh_allocs: u64,
    /// Takes satisfied from the pool without allocating. Together with
    /// [`BufferPool::fresh_allocs`] this gives the reuse rate the
    /// steady-state ("zero allocation") assertion checks.
    pub hits: u64,
    /// Buffers handed out and not yet returned (takes minus puts). Every
    /// code path is expected to `put` what it `take`s — even on error —
    /// so at teardown this must be zero; the chaos leak oracle checks it.
    outstanding: u64,
}

impl BufferPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    fn list(&mut self, space: MemSpace) -> Option<&mut Vec<(GpuPtr, usize)>> {
        match space {
            MemSpace::Device => Some(&mut self.device),
            MemSpace::Mapped => Some(&mut self.mapped),
            MemSpace::Pinned => Some(&mut self.pinned),
            // The pool never manages pageable host buffers.
            MemSpace::Host => None,
        }
    }

    /// Take a buffer of at least `len` bytes in `space`, reusing a pooled
    /// one when possible (best fit). A fresh allocation charges the
    /// cudaMalloc overhead to the rank's clock.
    pub fn take(
        &mut self,
        ctx: &mut RankCtx,
        space: MemSpace,
        len: usize,
    ) -> MpiResult<(GpuPtr, usize)> {
        let Some(list) = self.list(space) else {
            return Err(mpi_sim::MpiError::InvalidArg(
                "the buffer pool does not manage pageable host buffers".to_string(),
            ));
        };
        // best fit: smallest pooled buffer that is large enough
        let mut best: Option<usize> = None;
        for (i, &(_, sz)) in list.iter().enumerate() {
            if sz >= len && best.is_none_or(|b| sz < list[b].1) {
                best = Some(i);
            }
        }
        if let Some(i) = best {
            let hit = list.swap_remove(i);
            self.hits += 1;
            self.outstanding += 1;
            Self::trace_take(ctx, space, len, true);
            return Ok(hit);
        }
        self.fresh_allocs += 1;
        ctx.clock.advance(ctx.stream.cost_model().alloc_overhead);
        let ptr = match space {
            MemSpace::Device => ctx.gpu.malloc(len)?,
            MemSpace::Mapped => ctx.gpu.mapped_alloc(len)?,
            MemSpace::Pinned => ctx.gpu.pinned_alloc(len)?,
            MemSpace::Host => {
                return Err(mpi_sim::MpiError::InvalidArg(
                    "the buffer pool does not manage pageable host buffers".to_string(),
                ))
            }
        };
        Self::trace_take(ctx, space, len, false);
        self.outstanding += 1;
        Ok((ptr, len))
    }

    /// Return a buffer taken with [`BufferPool::take`]. Buffers in spaces
    /// the pool does not manage are silently dropped (it never hands such
    /// buffers out, so nothing is lost).
    pub fn put(&mut self, ptr: GpuPtr, size: usize) {
        if let Some(list) = self.list(ptr.space) {
            list.push((ptr, size));
            self.outstanding = self.outstanding.saturating_sub(1);
        }
    }

    /// Number of buffers currently pooled across all spaces.
    pub fn pooled(&self) -> usize {
        self.device.len() + self.mapped.len() + self.pinned.len()
    }

    /// Buffers currently handed out and not yet [`BufferPool::put`] back.
    /// Non-zero at teardown means some send path leaked scratch space —
    /// one of the chaos invariant oracles.
    pub fn outstanding(&self) -> u64 {
        self.outstanding
    }

    /// One `pool.take` instant on the rank's CPU lane (recorded only at
    /// [`tempi_trace::TraceLevel::Full`]; the arguments are materialized
    /// after that check, so the hot path never formats anything).
    fn trace_take(ctx: &RankCtx, space: MemSpace, len: usize, hit: bool) {
        ctx.tracer.debug_instant(
            ctx.world_rank as u32,
            tempi_trace::LANE_CPU,
            "tempi",
            "pool.take",
            ctx.clock.now().as_ps(),
            || {
                vec![
                    ("space", format!("{space:?}").into()),
                    ("len", len.into()),
                    ("hit", hit.into()),
                ]
            },
        );
    }
}

/// The scratch buffers of one transfer: whatever it takes from the pool
/// through the lease goes back with one [`Lease::release`], so a stage
/// that fails half-way returns early and leaks nothing. A transfer stages
/// through at most two buffers (its pack target and a pinned bounce).
///
/// Not a `Drop` guard: the pool is owned by the `Tempi` state that also
/// runs the operations using the buffers, and a guard borrowing it would
/// fight the borrow checker for no robustness gain over one release site.
#[derive(Default)]
pub struct Lease {
    held: [Option<(GpuPtr, usize)>; 2],
}

impl Lease {
    /// [`BufferPool::take`], remembered for [`Lease::release`].
    pub fn take(
        &mut self,
        pool: &mut BufferPool,
        ctx: &mut RankCtx,
        space: MemSpace,
        len: usize,
    ) -> MpiResult<GpuPtr> {
        let Some(slot) = self.held.iter_mut().find(|s| s.is_none()) else {
            return Err(mpi_sim::MpiError::Internal(
                "a transfer stages through at most two buffers".to_string(),
            ));
        };
        let taken = pool.take(ctx, space, len)?;
        *slot = Some(taken);
        Ok(taken.0)
    }

    /// Return everything taken to `pool`.
    pub fn release(self, pool: &mut BufferPool) {
        for (ptr, size) in self.held.into_iter().flatten() {
            pool.put(ptr, size);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_sim::WorldConfig;

    fn ctx() -> RankCtx {
        RankCtx::standalone(&WorldConfig::summit(1))
    }

    #[test]
    fn fresh_alloc_charges_overhead_then_reuse_is_free() {
        let mut ctx = ctx();
        let mut pool = BufferPool::new();
        let t0 = ctx.clock.now();
        let (p, sz) = pool.take(&mut ctx, MemSpace::Device, 4096).unwrap();
        assert_eq!(sz, 4096);
        let alloc_cost = ctx.clock.now() - t0;
        assert_eq!(alloc_cost, ctx.stream.cost_model().alloc_overhead);
        pool.put(p, sz);

        let t1 = ctx.clock.now();
        let (p2, sz2) = pool.take(&mut ctx, MemSpace::Device, 1024).unwrap();
        assert_eq!(ctx.clock.now(), t1, "reuse must be free");
        assert_eq!((p2, sz2), (p, 4096));
        assert_eq!(pool.fresh_allocs, 1);
        assert_eq!(pool.hits, 1);
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient() {
        let mut ctx = ctx();
        let mut pool = BufferPool::new();
        let (a, asz) = pool.take(&mut ctx, MemSpace::Mapped, 1 << 20).unwrap();
        let (b, bsz) = pool.take(&mut ctx, MemSpace::Mapped, 4096).unwrap();
        pool.put(a, asz);
        pool.put(b, bsz);
        let (got, gsz) = pool.take(&mut ctx, MemSpace::Mapped, 2048).unwrap();
        assert_eq!((got, gsz), (b, 4096));
        assert_eq!(pool.pooled(), 1);
    }

    #[test]
    fn outstanding_counts_takes_minus_puts() {
        let mut ctx = ctx();
        let mut pool = BufferPool::new();
        let (a, asz) = pool.take(&mut ctx, MemSpace::Device, 64).unwrap();
        let (b, bsz) = pool.take(&mut ctx, MemSpace::Device, 64).unwrap();
        assert_eq!(pool.outstanding(), 2);
        pool.put(a, asz);
        assert_eq!(pool.outstanding(), 1, "one buffer still out is a leak");
        pool.put(b, bsz);
        assert_eq!(pool.outstanding(), 0);
        // reuse path counts too
        let (c, csz) = pool.take(&mut ctx, MemSpace::Device, 64).unwrap();
        assert_eq!((pool.hits, pool.outstanding()), (1, 1));
        pool.put(c, csz);
        assert_eq!(pool.outstanding(), 0);
    }

    #[test]
    fn lease_returns_what_it_took_and_holds_at_most_two() {
        let mut ctx = ctx();
        let mut pool = BufferPool::new();
        let mut lease = Lease::default();
        let d = lease
            .take(&mut pool, &mut ctx, MemSpace::Device, 64)
            .unwrap();
        let p = lease
            .take(&mut pool, &mut ctx, MemSpace::Pinned, 64)
            .unwrap();
        assert_eq!((d.space, p.space), (MemSpace::Device, MemSpace::Pinned));
        assert!(lease
            .take(&mut pool, &mut ctx, MemSpace::Mapped, 64)
            .is_err());
        assert_eq!(pool.outstanding(), 2, "the refused take took nothing");
        lease.release(&mut pool);
        assert_eq!((pool.outstanding(), pool.pooled()), (0, 2));
    }

    #[test]
    fn too_small_pooled_buffers_are_not_reused() {
        let mut ctx = ctx();
        let mut pool = BufferPool::new();
        let (a, asz) = pool.take(&mut ctx, MemSpace::Pinned, 64).unwrap();
        pool.put(a, asz);
        let (b, _) = pool.take(&mut ctx, MemSpace::Pinned, 128).unwrap();
        assert_ne!(a, b);
        assert_eq!(pool.fresh_allocs, 2);
    }

    #[test]
    fn spaces_are_segregated() {
        let mut ctx = ctx();
        let mut pool = BufferPool::new();
        let (d, dsz) = pool.take(&mut ctx, MemSpace::Device, 256).unwrap();
        pool.put(d, dsz);
        let (m, _) = pool.take(&mut ctx, MemSpace::Mapped, 256).unwrap();
        assert_ne!(d, m);
        assert_eq!(m.space, MemSpace::Mapped);
    }
}
