//! The halo exchange (paper §6.4): each rank packs its 26 halo regions
//! into a single send buffer, exchanges with one `MPI_Alltoallv`, and
//! unpacks the 26 arriving regions — one `MPI_Pack` and one `MPI_Unpack`
//! call, over the datatype that is all 26 regions of a side.
//!
//! Pack/unpack go through the interposed MPI, so the same code path runs
//! against plain system MPI (baseline) or TEMPI (accelerated) — exactly
//! the comparison of Fig. 12. `Alltoallv` is *not* a TEMPI symbol and
//! always falls through.

use gpu_sim::{GpuPtr, SimTime};
use mpi_sim::{AlltoallvBlock, Datatype, MpiError, MpiResult, RankCtx};
use tempi_core::interpose::InterposedMpi;

use crate::checkpoint::{provider_for, CheckpointStore, Frame, GenRecord, Snapshot, HEADER_LEN};
use crate::decomp::{dir_index, opposite, Decomp, DIRS};
use crate::halo::{region_type, HaloConfig, HaloTypes};

/// User tag for mirroring a checkpoint frame at the buddy rank.
const TAG_CKPT_MIRROR: i32 = 2_000;
/// User tag for serving a checkpoint frame to a rebuilding rank.
const TAG_CKPT_FETCH: i32 = 2_002;

/// Rounds one [`HaloExchanger::exchange_with_recovery`] call runs before
/// it gives up.
pub const MAX_ROUNDS: usize = 4;

/// What a rank contributes to its round's agreement: its newest committed
/// generation plus one (0 for none), above a low bit that says whether its
/// round went through. Every survivor commits the same generations, so
/// the minimum over the members carries the generation they all hold and
/// whether every round went through ([`read_vote`]).
fn round_vote(newest: Option<u64>, through: bool) -> u64 {
    (newest.map_or(0, |g| g + 1) << 1) | u64::from(through)
}

/// The newest generation and the all-through bit of an agreed
/// [`round_vote`] minimum.
fn read_vote(min: u64) -> (Option<u64>, bool) {
    ((min >> 1).checked_sub(1), min & 1 == 1)
}

/// Outcome of a fault-tolerant exchange
/// ([`HaloExchanger::exchange_with_recovery`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryOutcome {
    /// Timing of the exchange round that finally succeeded.
    pub timing: ExchangeTiming,
    /// Revoke → agree → shrink → rebuild rounds that were needed.
    pub shrinks: u64,
    /// World ranks excluded across all shrinks, in exclusion order.
    pub excluded: Vec<usize>,
    /// Communicator epoch after the successful exchange.
    pub epoch: u64,
    /// The checkpoint generation the successful round rebuilt from (`None`
    /// when no rebuild was needed or none had been committed).
    pub restored: Option<u64>,
}

/// Virtual-time split of one exchange.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExchangeTiming {
    /// Time in `MPI_Pack` of the fused send type.
    pub pack: SimTime,
    /// Time in `MPI_Alltoallv`.
    pub comm: SimTime,
    /// Time in `MPI_Unpack` of the fused recv type.
    pub unpack: SimTime,
}

impl ExchangeTiming {
    /// Total exchange time.
    pub fn total(&self) -> SimTime {
        self.pack + self.comm + self.unpack
    }
}

/// Deterministic cell value at global gridpoint `(gx, gy, gz)` — the
/// verification oracle all ranks share.
pub fn cell_value(gx: usize, gy: usize, gz: usize) -> f32 {
    let h = (gx as u64)
        .wrapping_mul(73_856_093)
        .wrapping_add((gy as u64).wrapping_mul(19_349_663))
        .wrapping_add((gz as u64).wrapping_mul(83_492_791));
    (h % 1_000_000) as f32
}

/// Send a host-side byte blob over the simulated wire: stage it into a
/// host allocation, send, free. Checkpoint traffic goes through the same
/// integrity-checked p2p path as application payloads.
fn send_blob(ctx: &mut RankCtx, bytes: &[u8], dest: usize, tag: i32) -> MpiResult<()> {
    let buf = ctx.gpu.host_alloc(bytes.len().max(1))?;
    let r = (|| {
        ctx.gpu.memory().poke(buf, bytes)?;
        ctx.send_bytes(buf, bytes.len(), dest, tag)
    })();
    ctx.gpu.free(buf)?;
    r
}

/// Receive exactly `len` bytes from `src` into a fresh `Vec`.
fn recv_blob(ctx: &mut RankCtx, len: usize, src: usize, tag: i32) -> MpiResult<Vec<u8>> {
    let buf = ctx.gpu.host_alloc(len.max(1))?;
    let r = (|| -> MpiResult<Vec<u8>> {
        let st = ctx.recv_bytes(buf, len, Some(src), Some(tag))?;
        Ok(ctx.gpu.memory().peek(buf, st.bytes)?)
    })();
    ctx.gpu.free(buf)?;
    r
}

/// Per-rank state of the halo exchange.
pub struct HaloExchanger {
    /// Geometry.
    pub cfg: HaloConfig,
    /// Process grid.
    pub decomp: Decomp,
    /// The 52 per-direction datatypes, created but not committed — MPI asks
    /// a commit only of types used in communication — and the fused pair an
    /// exchange packs and unpacks with, which is.
    pub types: HaloTypes,
    /// The committed interior subarray datatype — the region a checkpoint
    /// snapshots and a restore rebuilds.
    pub interior_dt: Datatype,
    /// Global extents of the grid at first decomposition. Restored state
    /// after shrinks is the periodic extension of this *original* grid, so
    /// oracles wrap positions into `origin` after wrapping into the
    /// current global extents (the two coincide until a shrink changes the
    /// process grid).
    pub origin: [usize; 3],
    /// The local grid allocation (device memory).
    pub grid: GpuPtr,
    sendbuf: GpuPtr,
    recvbuf: GpuPtr,
    /// Non-zero exchange blocks (≤ 26 each), ascending peer — the sparse
    /// `alltoallv` shape. O(degree) storage keeps a 10,000-rank world from
    /// holding 10,000-entry count arrays on every rank.
    send_plan: Vec<AlltoallvBlock>,
    recv_plan: Vec<AlltoallvBlock>,
    /// Checkpoint generations this rank committed (kept across recovery
    /// rebuilds).
    pub checkpoints: u64,
    /// Subdomain restores served from committed checkpoint frames (kept
    /// across recovery rebuilds).
    pub restores: u64,
}

/// Bytes a plan moves.
fn plan_bytes(plan: &[AlltoallvBlock]) -> usize {
    plan.iter().map(|b| b.count).sum()
}

/// A sparse `alltoallv` plan and the order of the directions it moves.
type Side = (Vec<AlltoallvBlock>, Vec<usize>);

/// Rank `me`'s two sides: the send plan in pack order, and the recv plan
/// in unpack order.
///
/// Both plans are derived purely from this rank's own 26 neighbor lookups
/// — O(1) in the world size, where the former dense construction walked
/// every rank times every direction. Sorting by (peer, direction index)
/// reproduces the dense ordering exactly: peers ascending, directions
/// ascending within a peer. The recv side uses the torus symmetry
/// `neighbor(src, d) == me  ⇔  src == neighbor(me, opposite(d))`. Each
/// list is made at its final size, a plan's at one block per distinct
/// peer, and both sides sort in one pair list.
fn exchange_plans(decomp: &Decomp, me: usize, cfg: &HaloConfig) -> MpiResult<(Side, Side)> {
    let mut pairs = Vec::with_capacity(DIRS.len());
    let mut grouped = |toward: fn([i32; 3]) -> [i32; 3]| {
        pairs.clear();
        let pair = |(k, &d): (usize, &[i32; 3])| (decomp.neighbor(me, toward(d)), k);
        pairs.extend(DIRS.iter().enumerate().map(pair));
        pairs.sort_unstable();
        let peers = 1 + pairs.windows(2).filter(|w| w[0].0 != w[1].0).count();
        let mut plan: Vec<AlltoallvBlock> = Vec::with_capacity(peers);
        let mut schedule = Vec::with_capacity(pairs.len());
        let mut displ = 0usize;
        for &(peer, k) in &pairs {
            schedule.push(k);
            let count = cfg.send_bytes(DIRS[k]);
            match plan.last_mut() {
                Some(b) if b.peer == peer => b.count += count,
                _ => plan.push(AlltoallvBlock { peer, count, displ }),
            }
            displ += count;
        }
        (plan, schedule)
    };
    // directions in pack order: grouped by ascending dest
    let (send_plan, pack_schedule) = grouped(|d| d);
    let (recv_plan, recv_dirs) = grouped(opposite);
    // recv directions in unpack order (grouped by ascending src, the
    // sender's direction order within a group): src's region for
    // direction d fills my ghost shell on my `opposite(d)` side
    let unpack_schedule = recv_dirs
        .into_iter()
        .map(|k| {
            dir_index(opposite(DIRS[k]))
                .ok_or_else(|| MpiError::Internal(format!("{:?} is not a halo direction", DIRS[k])))
        })
        .collect::<MpiResult<Vec<usize>>>()?;
    Ok(((send_plan, pack_schedule), (recv_plan, unpack_schedule)))
}

/// A fused type that packs to another size than its plan ships would
/// exchange short buffers.
fn check_fused(
    ctx: &mut RankCtx,
    mpi: &mut InterposedMpi,
    types: &HaloTypes,
    send_plan: &[AlltoallvBlock],
    recv_plan: &[AlltoallvBlock],
) -> MpiResult<()> {
    for (dt, plan) in [(types.fused_send, send_plan), (types.fused_recv, recv_plan)] {
        let (packs, ships) = (mpi.pack_size(ctx, 1, dt)?, plan_bytes(plan));
        if packs != ships {
            return Err(MpiError::Internal(format!(
                "a fused halo type packs {packs} bytes, its plan ships {ships}"
            )));
        }
    }
    Ok(())
}

impl HaloExchanger {
    /// Allocate the grid and buffers, precompute the exchange plans, create
    /// the datatypes in their order and commit the ones communicated with
    /// (through the interposed `MPI_Type_commit`).
    pub fn new(
        ctx: &mut RankCtx,
        mpi: &mut InterposedMpi,
        cfg: HaloConfig,
    ) -> MpiResult<HaloExchanger> {
        let decomp = Decomp::new(ctx.size);
        let ((send_plan, pack_schedule), (recv_plan, unpack_schedule)) =
            exchange_plans(&decomp, ctx.rank, &cfg)?;
        let types = HaloTypes::create(ctx, &cfg, &pack_schedule, &unpack_schedule)?;
        let interior_dt = region_type(ctx, &cfg, cfg.interior_region())?;
        for dt in [types.fused_send, types.fused_recv, interior_dt] {
            mpi.type_commit(ctx, dt)?;
        }
        check_fused(ctx, mpi, &types, &send_plan, &recv_plan)?;

        let grid = ctx.gpu.malloc(cfg.alloc_bytes())?;
        let sendbuf = ctx.gpu.malloc(plan_bytes(&send_plan).max(1))?;
        let recvbuf = ctx.gpu.malloc(plan_bytes(&recv_plan).max(1))?;

        let mut ex = HaloExchanger {
            cfg,
            decomp,
            types,
            interior_dt,
            origin: [0; 3],
            grid,
            sendbuf,
            recvbuf,
            send_plan,
            recv_plan,
            checkpoints: 0,
            restores: 0,
        };
        ex.origin = ex.global();
        Ok(ex)
    }

    /// Total bytes this rank packs per exchange.
    pub fn send_bytes(&self) -> usize {
        plan_bytes(&self.send_plan)
    }

    /// Fill the interior with the global oracle values and the ghosts with
    /// a poison value (untimed setup), written into the grid in place.
    pub fn fill(&self, ctx: &mut RankCtx) -> MpiResult<()> {
        let a = self.cfg.alloc_dims();
        let r = self.cfg.radius;
        let c = self.decomp.coords(ctx.rank);
        let mut mem = ctx.gpu.memory();
        let mut grid = mem.region_mut(self.grid);
        for z in 0..a[2] {
            for y in 0..a[1] {
                for x in 0..a[0] {
                    let interior = (r..r + self.cfg.local[0]).contains(&x)
                        && (r..r + self.cfg.local[1]).contains(&y)
                        && (r..r + self.cfg.local[2]).contains(&z);
                    let v: f32 = if interior {
                        self.oracle(c, [x, y, z])
                    } else {
                        -1.0
                    };
                    let i = self.grid.offset + self.cfg.cell_index(x, y, z) * 4;
                    grid.write(i, &v.to_le_bytes())?;
                }
            }
        }
        Ok(())
    }

    /// One full halo exchange; returns its virtual-time phase split.
    pub fn exchange(
        &mut self,
        ctx: &mut RankCtx,
        mpi: &mut InterposedMpi,
    ) -> MpiResult<ExchangeTiming> {
        ctx.with_span("stencil", "halo.exchange", |ctx| {
            self.exchange_body(ctx, mpi)
        })
    }

    fn exchange_body(
        &mut self,
        ctx: &mut RankCtx,
        mpi: &mut InterposedMpi,
    ) -> MpiResult<ExchangeTiming> {
        let (fused_send, fused_recv) = (self.types.fused_send, self.types.fused_recv);
        let (send_size, recv_size) = (self.send_bytes(), plan_bytes(&self.recv_plan));
        let (grid, sendbuf, recvbuf) = (self.grid, self.sendbuf, self.recvbuf);

        let t0 = ctx.clock.now();
        mpi.pack(ctx, grid, 1, fused_send, sendbuf, send_size, &mut 0)?;
        let t1 = ctx.clock.now();
        mpi.alltoallv_sparse_bytes(ctx, sendbuf, &self.send_plan, recvbuf, &self.recv_plan)?;
        let t2 = ctx.clock.now();
        mpi.unpack(ctx, recvbuf, recv_size, &mut 0, grid, 1, fused_recv)?;
        let t3 = ctx.clock.now();

        Ok(ExchangeTiming {
            pack: t1 - t0,
            comm: t2 - t1,
            unpack: t3 - t2,
        })
    }

    /// Free this rank's GPU allocations and the 55 datatypes (callers
    /// overwrite or drop `self` at once).
    fn release(&mut self, ctx: &mut RankCtx) -> MpiResult<()> {
        ctx.gpu.free(self.grid)?;
        ctx.gpu.free(self.sendbuf)?;
        ctx.gpu.free(self.recvbuf)?;
        ctx.type_free(self.interior_dt)?;
        self.types.free(ctx)
    }

    /// Tear the exchanger down: free the grid, both staging buffers and
    /// all 55 datatypes. Recovery rebuilds from scratch after a shrink,
    /// so nothing may leak per recovery round.
    pub fn destroy(mut self, ctx: &mut RankCtx) -> MpiResult<()> {
        self.release(ctx)
    }

    /// This rank's share of checkpoint generation `generation`: its
    /// interior packed with the interposed `MPI_Pack`, staged to the host
    /// and framed with a content checksum, mirrored at the buddy rank
    /// `(rank + 1) % size`, plus the mirror of its ring predecessor's
    /// frame. Nothing is committed here: the round's agreement decides.
    fn snapshot(
        &self,
        ctx: &mut RankCtx,
        mpi: &mut InterposedMpi,
        generation: u64,
    ) -> MpiResult<Snapshot> {
        ctx.with_span("stencil", "checkpoint", |ctx| {
            let payload = self.pack_interior(ctx, mpi)?;
            self.mirror(ctx, generation, payload)
        })
    }

    /// [`HaloExchanger::snapshot`] once the interior is packed into
    /// `payload`: this rank's frame, mirrored around the ring — my frame
    /// to (rank+1), (rank-1)'s to me. Sends are eager, so
    /// send-before-receive cannot deadlock.
    fn mirror(&self, ctx: &mut RankCtx, generation: u64, payload: Vec<u8>) -> MpiResult<Snapshot> {
        let own = Frame {
            generation,
            epoch: ctx.epoch(),
            comm_rank: ctx.rank,
            world_rank: ctx.world_rank,
            dims: self.decomp.dims,
            local: self.cfg.local,
            payload,
        };
        let record = GenRecord {
            members: ctx.comm_members(),
            dims: self.decomp.dims,
            local: self.cfg.local,
        };
        let enc = own.encode();
        let mut frames = vec![own];
        if ctx.size > 1 {
            let dest = (ctx.rank + 1) % ctx.size;
            let src = (ctx.rank + ctx.size - 1) % ctx.size;
            send_blob(ctx, &enc, dest, TAG_CKPT_MIRROR)?;
            let got = recv_blob(ctx, enc.len(), src, TAG_CKPT_MIRROR)?;
            frames.push(Frame::decode(&got)?);
        }
        Ok(Snapshot {
            generation,
            record,
            frames,
        })
    }

    /// This rank's interior as a checkpoint frame carries it: packed on
    /// the device with the interposed `MPI_Pack`, then staged to the host.
    pub fn pack_interior(&self, ctx: &mut RankCtx, mpi: &mut InterposedMpi) -> MpiResult<Vec<u8>> {
        let bytes = self.cfg.local[0] * self.cfg.local[1] * self.cfg.local[2] * 4;
        let stage = ctx.gpu.malloc(bytes)?;
        let host = ctx.gpu.host_alloc(bytes)?;
        let packed = (|| -> MpiResult<Vec<u8>> {
            let mut pos = 0usize;
            mpi.pack(ctx, self.grid, 1, self.interior_dt, stage, bytes, &mut pos)?;
            ctx.stream
                .memcpy_async(&mut ctx.clock, host, stage, bytes)
                .map_err(MpiError::Gpu)?;
            ctx.stream.synchronize(&mut ctx.clock);
            Ok(ctx.gpu.memory().peek(host, bytes)?)
        })();
        ctx.gpu.free(stage)?;
        ctx.gpu.free(host)?;
        packed
    }

    /// Rebuild this rank's subdomain from committed checkpoint
    /// `generation` — the one its round's agreement carried, which every
    /// current member holds. Runs after a shrink has re-decomposed the
    /// grid (or any time the in-memory grid is suspect).
    ///
    /// Uniform local blocks mean each post-shrink interior is exactly one
    /// pre-shrink block — the one at this rank's coordinates wrapped into
    /// the old process grid — so restore is: fetch that one frame from its
    /// deterministic provider (owner, else buddy, else spill), verify its
    /// checksum, and unpack it with the interposed `MPI_Unpack`.
    pub fn restore_from_checkpoint(
        &mut self,
        ctx: &mut RankCtx,
        mpi: &mut InterposedMpi,
        store: &CheckpointStore,
        generation: u64,
    ) -> MpiResult<()> {
        ctx.with_span("stencil", "restore", |ctx| {
            self.restore_from_checkpoint_body(ctx, mpi, store, generation)
        })
    }

    fn restore_from_checkpoint_body(
        &mut self,
        ctx: &mut RankCtx,
        mpi: &mut InterposedMpi,
        store: &CheckpointStore,
        agreed: u64,
    ) -> MpiResult<()> {
        let frame = self.fetch_frame(ctx, store, agreed)?;
        let bytes = frame.payload.len();
        let host = ctx.gpu.host_alloc(bytes)?;
        let unpacked = (|| -> MpiResult<()> {
            ctx.gpu.memory().poke(host, &frame.payload)?;
            let mut pos = 0usize;
            mpi.unpack(ctx, host, bytes, &mut pos, self.grid, 1, self.interior_dt)
        })();
        ctx.gpu.free(host)?;
        unpacked?;
        self.restores += 1;
        Ok(())
    }

    /// The frame of generation `agreed` this rank's subdomain is rebuilt
    /// from, checked against the generation, its owner and the geometry.
    /// Every rank also serves the frames it is the provider of here.
    fn fetch_frame(
        &self,
        ctx: &mut RankCtx,
        store: &CheckpointStore,
        agreed: u64,
    ) -> MpiResult<Frame> {
        let record = store
            .record(agreed)
            .ok_or_else(|| {
                MpiError::Internal(format!(
                    "generation {agreed} agreed on but not committed locally"
                ))
            })?
            .clone();
        if record.local != self.cfg.local {
            return Err(MpiError::Internal(
                "checkpoint local extents do not match the current geometry".to_string(),
            ));
        }
        let old = Decomp { dims: record.dims };
        let alive = ctx.comm_members();
        let me = ctx.world_rank;
        // Which *old* comm rank's frame a new comm rank rebuilds from.
        let needed = |r: usize| -> usize {
            let c = self.decomp.coords(r);
            old.rank_of([
                c[0] % record.dims[0],
                c[1] % record.dims[1],
                c[2] % record.dims[2],
            ])
        };
        // The fetch plan is a pure function of (record, survivors), so
        // every rank computes the same one. Post all sends first (eager),
        // then satisfy own need.
        for r in 0..ctx.size {
            let q = needed(r);
            if r != ctx.rank && provider_for(&record, q, &alive) == Some(me) {
                let owner = record.members[q];
                let frame = store.frame(agreed, owner).ok_or_else(|| {
                    MpiError::Internal(format!(
                        "provider {me} lacks the frame of world rank {owner} \
                         at generation {agreed}"
                    ))
                })?;
                send_blob(ctx, &frame.encode(), r, TAG_CKPT_FETCH)?;
            }
        }
        let q = needed(ctx.rank);
        let owner = record.members[q];
        let bytes = record.local[0] * record.local[1] * record.local[2] * 4;
        let frame = match provider_for(&record, q, &alive) {
            Some(p) if p == me => store.frame(agreed, owner).cloned().ok_or_else(|| {
                MpiError::Internal(format!(
                    "rank {me} elected itself provider but lacks the frame of \
                     world rank {owner} at generation {agreed}"
                ))
            })?,
            Some(p) => {
                let src = alive.iter().position(|&w| w == p).ok_or_else(|| {
                    MpiError::Internal(format!("provider world rank {p} not in communicator"))
                })?;
                let enc = recv_blob(ctx, HEADER_LEN + bytes + 8, src, TAG_CKPT_FETCH)?;
                Frame::decode(&enc)?
            }
            // owner and buddy both died: the disk copy is the last resort
            None => {
                ctx.tracer.instant(
                    me as u32,
                    tempi_trace::LANE_CPU,
                    "stencil",
                    "restore.spill",
                    ctx.clock.now().as_ps(),
                    || vec![("generation", agreed.into()), ("owner", owner.into())],
                );
                store.load_spilled_faulted(agreed, owner, ctx.faults.injector())?
            }
        };
        if frame.generation != agreed || frame.world_rank != owner || frame.payload.len() != bytes {
            return Err(MpiError::Internal(
                "restored frame does not match the agreed generation".to_string(),
            ));
        }
        Ok(frame)
    }

    /// One halo exchange with ULFM-style recovery, in rounds. A round is
    /// the work — a restore when the previous round failed, the exchange,
    /// a checkpoint snapshot when `checkpoint` is set — followed by
    /// exactly one agreement ([`RankCtx::agree`]) over the newest committed
    /// generation, which is also the happy path's failure detection: a
    /// survivor whose traffic never touched a dead rank learns of the
    /// death there, with everyone else. A rank whose round failed revokes
    /// first, so stragglers blocked in the exchange error out instead of
    /// hanging. The agreement decides three things on every survivor:
    ///
    /// * a clean round (nobody dead, every round through) commits its
    ///   snapshot and returns;
    /// * a failed round shrinks away the agreed dead set, re-decomposes
    ///   the grid over the survivors and runs again;
    /// * the next round rebuilds every subdomain — including the dead
    ///   ranks' — from the agreed generation, the newest every member
    ///   holds. When none was ever committed, the survivors restart from
    ///   the initial condition on the shrunk communicator (a fresh
    ///   [`HaloExchanger::new`] and [`HaloExchanger::fill`]), as a job
    ///   restarted without a checkpoint would.
    ///
    /// Snapshots are taken only at the original decomposition: after a
    /// shrink the restored state is the periodic extension of the
    /// *origin* grid, which a snapshot of the smaller grid cannot carry.
    ///
    /// Returns `Err(PeerGone)` on a rank that is itself dead (its caller
    /// should stop using the communicator), and `Err(Internal)` if
    /// [`MAX_ROUNDS`] rounds were not enough.
    pub fn exchange_with_recovery(
        &mut self,
        ctx: &mut RankCtx,
        mpi: &mut InterposedMpi,
        store: &mut CheckpointStore,
        checkpoint: bool,
    ) -> MpiResult<RecoveryOutcome> {
        self.rounds(ctx, mpi, store, checkpoint, true)
    }

    /// One checkpointing halo exchange without recovery: a single round of
    /// [`HaloExchanger::exchange_with_recovery`], whose agreement commits
    /// the snapshot when it comes back clean. A failed round fails every
    /// member instead of shrinking: a rank whose own round failed returns
    /// its error, every other member [`MpiError::Revoked`].
    pub fn exchange_and_checkpoint(
        &mut self,
        ctx: &mut RankCtx,
        mpi: &mut InterposedMpi,
        store: &mut CheckpointStore,
    ) -> MpiResult<ExchangeTiming> {
        self.rounds(ctx, mpi, store, true, false)
            .map(|out| out.timing)
    }

    /// The rounds of [`HaloExchanger::exchange_with_recovery`]; without
    /// `recover`, a failed round ends the call instead of shrinking.
    fn rounds(
        &mut self,
        ctx: &mut RankCtx,
        mpi: &mut InterposedMpi,
        store: &mut CheckpointStore,
        checkpoint: bool,
        recover: bool,
    ) -> MpiResult<RecoveryOutcome> {
        let mut excluded = Vec::new();
        let mut restore = None;
        // every round before this one failed and shrank
        for shrinks in 0..MAX_ROUNDS as u64 {
            let round = match self.round(ctx, mpi, store, restore, checkpoint) {
                Err(e) if !e.is_comm_failure() => return Err(e),
                round => round,
            };
            if round.is_err() {
                // revoke() may itself report this rank dead — the
                // agreement repeats the verdict, so its error is the one
                // we surface.
                let _ = mpi.comm_revoke(ctx);
            }
            let vote = round_vote(store.latest_committed(), round.is_ok());
            let (dead, agreed) = mpi.comm_agree(ctx, vote)?;
            let (newest, clean) = read_vote(agreed);
            if dead.is_empty() && clean {
                let timing = self.commit_round(ctx, store, round)?;
                return Ok(RecoveryOutcome {
                    timing,
                    shrinks,
                    excluded,
                    epoch: ctx.epoch(),
                    restored: restore,
                });
            }
            if !recover {
                return Err(round.err().unwrap_or(MpiError::Revoked));
            }
            self.shrink(ctx, mpi, &dead, shrinks, newest)?;
            excluded.extend(dead);
            restore = newest;
        }
        Err(MpiError::Internal(format!(
            "halo exchange still failing after {MAX_ROUNDS} recovery rounds"
        )))
    }

    /// A clean round's end: commit the snapshot it took, if any.
    fn commit_round(
        &mut self,
        ctx: &mut RankCtx,
        store: &mut CheckpointStore,
        round: MpiResult<(ExchangeTiming, Option<Snapshot>)>,
    ) -> MpiResult<ExchangeTiming> {
        let (timing, snapshot) = round?;
        if let Some(snapshot) = snapshot {
            store.commit(snapshot, ctx.faults.injector())?;
            self.checkpoints += 1;
        }
        Ok(timing)
    }

    /// A failed round's end, the `shrinks`-th: shrink `dead` away and
    /// re-decompose over the survivors, keeping the counters, and the
    /// origin when generation `newest` is to be restored. Out of line: a
    /// whole exchanger by value would otherwise sit in the frame of
    /// [`HaloExchanger::rounds`], beneath every round's exchange.
    #[inline(never)]
    fn shrink(
        &mut self,
        ctx: &mut RankCtx,
        mpi: &mut InterposedMpi,
        dead: &[usize],
        shrinks: u64,
        newest: Option<u64>,
    ) -> MpiResult<()> {
        mpi.comm_shrink(ctx, dead)?;
        let epoch = ctx.epoch();
        ctx.tracer.instant(
            ctx.world_rank as u32,
            tempi_trace::LANE_CPU,
            "stencil",
            "recovery.round",
            ctx.clock.now().as_ps(),
            || {
                vec![
                    ("shrinks", (shrinks + 1).into()),
                    ("dead", dead.len().into()),
                    ("epoch", epoch.into()),
                ]
            },
        );
        let kept = (self.origin, self.checkpoints, self.restores);
        self.release(ctx)?;
        *self = HaloExchanger::new(ctx, mpi, self.cfg)?;
        (self.checkpoints, self.restores) = (kept.1, kept.2);
        match newest {
            // restored state is the periodic extension of the original
            // grid, so `origin` survives the rebuild
            Some(_) => self.origin = kept.0,
            None => self.fill(ctx)?,
        }
        Ok(())
    }

    /// A round's work before its agreement: rebuild from generation
    /// `restore` if given, exchange, then snapshot the next generation when
    /// asked at the original decomposition. The exchange goes first because
    /// its collective gate checks every member's scheduled exit before any
    /// traffic moves: a death that passed before the round began fails
    /// every survivor there, by virtual clock alone. (The exchange writes
    /// ghost cells only, so the snapshot of the interior is the same on
    /// either side of it.)
    fn round(
        &mut self,
        ctx: &mut RankCtx,
        mpi: &mut InterposedMpi,
        store: &CheckpointStore,
        restore: Option<u64>,
        checkpoint: bool,
    ) -> MpiResult<(ExchangeTiming, Option<Snapshot>)> {
        if let Some(generation) = restore {
            self.restore_from_checkpoint(ctx, mpi, store, generation)?;
        }
        let timing = self.exchange(ctx, mpi)?;
        let snapshot = match checkpoint && self.global() == self.origin {
            true => Some(self.snapshot(ctx, mpi, store.next_generation())?),
            false => None,
        };
        Ok((timing, snapshot))
    }

    /// Global extents of the grid at the current decomposition.
    fn global(&self) -> [usize; 3] {
        let (l, d) = (self.cfg.local, self.decomp.dims);
        [l[0] * d[0], l[1] * d[1], l[2] * d[2]]
    }

    /// The oracle value of allocation cell `cell` on the rank at process
    /// coordinates `c`: [`cell_value`] of the cell's periodic global
    /// gridpoint, wrapped into the original grid (restored state after
    /// shrinks is the periodic extension of it). On the interior the
    /// mapping is the identity.
    fn oracle(&self, c: [usize; 3], cell: [usize; 3]) -> f32 {
        let (l, r, global) = (self.cfg.local, self.cfg.radius, self.global());
        let g = |i: usize| (c[i] * l[i] + cell[i]).wrapping_add(global[i] - r) % global[i];
        cell_value(
            g(0) % self.origin[0],
            g(1) % self.origin[1],
            g(2) % self.origin[2],
        )
    }

    /// The full grid this rank should hold after a successful exchange —
    /// interior *and* ghosts at their (periodic) oracle values — computed
    /// serially from [`cell_value`] without any communication. Byte-exact
    /// comparison against this is the recovery acceptance check.
    pub fn expected_grid(&self, ctx: &RankCtx) -> Vec<u8> {
        let a = self.cfg.alloc_dims();
        let c = self.decomp.coords(ctx.rank);
        let mut data = vec![0u8; self.cfg.alloc_bytes()];
        for z in 0..a[2] {
            for y in 0..a[1] {
                for x in 0..a[0] {
                    let v = self.oracle(c, [x, y, z]);
                    let i = self.cfg.cell_index(x, y, z) * 4;
                    data[i..i + 4].copy_from_slice(&v.to_le_bytes());
                }
            }
        }
        data
    }

    /// Verify every ghost cell equals the oracle value of its (periodic)
    /// global gridpoint. Returns the number of mismatching cells.
    pub fn verify_ghosts(&self, ctx: &RankCtx) -> MpiResult<usize> {
        let a = self.cfg.alloc_dims();
        let r = self.cfg.radius;
        let l = self.cfg.local;
        let c = self.decomp.coords(ctx.rank);
        let data = ctx.gpu.memory().peek(self.grid, self.cfg.alloc_bytes())?;
        let mut bad = 0usize;
        for z in 0..a[2] {
            for y in 0..a[1] {
                for x in 0..a[0] {
                    let interior = (r..r + l[0]).contains(&x)
                        && (r..r + l[1]).contains(&y)
                        && (r..r + l[2]).contains(&z);
                    if interior {
                        continue;
                    }
                    // corner/edge ghosts touching more than one wrapped
                    // axis are only exchanged by the diagonal directions;
                    // all 26 are exchanged here, so every ghost is covered.
                    let want = self.oracle(c, [x, y, z]);
                    let i = self.cfg.cell_index(x, y, z) * 4;
                    let got = data
                        .get(i..i + 4)
                        .and_then(|w| w.try_into().ok())
                        .map(f32::from_le_bytes)
                        .ok_or_else(|| {
                            MpiError::Internal(format!(
                                "ghost verification read past the grid at byte {i}"
                            ))
                        })?;
                    if got != want {
                        bad += 1;
                    }
                }
            }
        }
        Ok(bad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_sim::{World, WorldConfig};
    use tempi_core::config::TempiConfig;

    fn run_exchange(p: usize, n: usize, interposed: bool) -> Vec<(usize, ExchangeTiming)> {
        let mut cfg = WorldConfig::summit(p);
        cfg.net.ranks_per_node = 2;
        World::run(&cfg, |ctx| {
            let mut mpi = if interposed {
                InterposedMpi::new(TempiConfig::default())
            } else {
                InterposedMpi::system_only()
            };
            let mut ex = HaloExchanger::new(ctx, &mut mpi, HaloConfig::small(n))?;
            ex.fill(ctx)?;
            let t = ex.exchange(ctx, &mut mpi)?;
            let bad = ex.verify_ghosts(ctx)?;
            Ok((bad, t))
        })
        .unwrap()
    }

    /// The fused pair is the 52 per-direction types in exchange order: one
    /// `MPI_Pack` of it writes the bytes 26 calls would, one `MPI_Unpack`
    /// fills the cells 26 calls would — under TEMPI and the system MPI, with
    /// every direction to one peer (1 rank), 13 to each of two (2 ranks),
    /// and on even (8) and uneven (12) process grids.
    #[test]
    fn fused_types_move_what_the_per_direction_calls_move() {
        for (p, n, interposed) in [1, 2, 8, 12]
            .into_iter()
            .flat_map(|p| [(p, 4, true), (p, 4, false), (p, 6, true), (p, 6, false)])
        {
            World::run(&WorldConfig::summit(p), |ctx| {
                let mut mpi = match interposed {
                    true => InterposedMpi::new(TempiConfig::default()),
                    false => InterposedMpi::system_only(),
                };
                let ex = HaloExchanger::new(ctx, &mut mpi, HaloConfig::small(n))?;
                ex.fill(ctx)?;
                let at = format!("{p} ranks, n = {n}, TEMPI {interposed}, rank {}", ctx.rank);
                let (size, span) = (ex.send_bytes(), ex.cfg.alloc_bytes());
                // the schedules, as MPI holds them
                let contents = |dt| ctx.registry().read().contents(dt);
                let send = contents(ex.types.fused_send)?.datatypes;
                let recv = contents(ex.types.fused_recv)?.datatypes;
                for (members, of) in [(&send, &ex.types.send), (&recv, &ex.types.recv)] {
                    let mut sorted = members.clone();
                    sorted.sort();
                    assert_eq!(&sorted, of, "{at}: every direction, once");
                }
                for &dt in send.iter().chain(&recv) {
                    mpi.type_commit(ctx, dt)?;
                }

                let (one, each) = (ctx.gpu.malloc(size)?, ctx.gpu.malloc(size)?);
                mpi.pack(ctx, ex.grid, 1, ex.types.fused_send, one, size, &mut 0)?;
                let mut pos = 0;
                for &dt in &send {
                    mpi.pack(ctx, ex.grid, 1, dt, each, size, &mut pos)?;
                }
                assert_eq!(pos, size, "{at}");
                let packed = ctx.gpu.memory().peek(one, size)?;
                assert_eq!(packed, ctx.gpu.memory().peek(each, size)?, "{at}: pack");

                let (fused, apart) = (ctx.gpu.malloc(span)?, ctx.gpu.malloc(span)?);
                for grid in [fused, apart] {
                    ctx.gpu.memory().poke(grid, &vec![0xEE; span])?;
                }
                mpi.unpack(ctx, one, size, &mut 0, fused, 1, ex.types.fused_recv)?;
                let mut pos = 0;
                for &dt in &recv {
                    mpi.unpack(ctx, one, size, &mut pos, apart, 1, dt)?;
                }
                let filled = ctx.gpu.memory().peek(fused, span)?;
                assert_eq!(filled, ctx.gpu.memory().peek(apart, span)?, "{at}: unpack");
                Ok(())
            })
            .unwrap();
        }
    }

    #[test]
    fn a_halo_extent_that_is_no_mpi_int_is_refused() {
        let mut ctx = mpi_sim::RankCtx::standalone(&WorldConfig::summit(1));
        let mut mpi = InterposedMpi::new(TempiConfig::default());
        let cfg = HaloConfig {
            local: [4, 4, 1 << 32],
            radius: 2,
        };
        match HaloExchanger::new(&mut ctx, &mut mpi, cfg) {
            Err(MpiError::InvalidArg(why)) => assert!(why.contains("4294967300"), "{why}"),
            other => panic!("expected InvalidArg, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn single_rank_self_exchange_fills_all_ghosts() {
        for &(bad, _) in &run_exchange(1, 6, true) {
            assert_eq!(bad, 0);
        }
    }

    #[test]
    fn eight_ranks_tempi_ghosts_correct() {
        for (r, &(bad, _)) in run_exchange(8, 6, true).iter().enumerate() {
            assert_eq!(bad, 0, "rank {r}");
        }
    }

    #[test]
    fn eight_ranks_system_ghosts_correct() {
        for (r, &(bad, _)) in run_exchange(8, 6, false).iter().enumerate() {
            assert_eq!(bad, 0, "rank {r}");
        }
    }

    #[test]
    fn odd_decomposition_works() {
        // 12 = 2×2×3: uneven axes exercise the wrap logic differently per
        // dimension
        for (r, &(bad, _)) in run_exchange(12, 4, true).iter().enumerate() {
            assert_eq!(bad, 0, "rank {r}");
        }
    }

    #[test]
    fn two_ranks_wrap_on_one_axis() {
        for (r, &(bad, _)) in run_exchange(2, 4, true).iter().enumerate() {
            assert_eq!(bad, 0, "rank {r}");
        }
    }

    #[test]
    fn tempi_exchange_is_much_faster_than_system() {
        let sys = run_exchange(2, 8, false);
        let tmp = run_exchange(2, 8, true);
        for r in 0..2 {
            let (_, ts) = sys[r];
            let (_, tt) = tmp[r];
            assert!(
                tt.pack * 10 < ts.pack,
                "rank {r}: TEMPI pack {} vs system {}",
                tt.pack,
                ts.pack
            );
            assert!(tt.total() < ts.total());
        }
    }

    #[test]
    fn exchange_is_repeatable() {
        let cfg = WorldConfig::summit(2);
        let results = World::run(&cfg, |ctx| {
            let mut mpi = InterposedMpi::new(TempiConfig::default());
            let mut ex = HaloExchanger::new(ctx, &mut mpi, HaloConfig::small(4))?;
            ex.fill(ctx)?;
            let t1 = ex.exchange(ctx, &mut mpi)?;
            let t2 = ex.exchange(ctx, &mut mpi)?;
            let bad = ex.verify_ghosts(ctx)?;
            Ok((bad, t1, t2))
        })
        .unwrap();
        for (bad, t1, t2) in results {
            assert_eq!(bad, 0);
            // the second exchange stays in the same ballpark (clock skew
            // accumulated from the first may shift the comm term a little)
            assert!(t2.total() <= t1.total() * 2, "{t1:?} vs {t2:?}");
            assert!(t1.total() <= t2.total() * 2, "{t1:?} vs {t2:?}");
        }
    }

    #[test]
    fn fault_free_recovery_wrapper_is_transparent() {
        let cfg = WorldConfig::summit(8);
        let results = World::run(&cfg, |ctx| {
            let mut mpi = InterposedMpi::new(TempiConfig::default());
            let mut ex = HaloExchanger::new(ctx, &mut mpi, HaloConfig::small(4))?;
            ex.fill(ctx)?;
            let mut store = CheckpointStore::new();
            let out = ex.exchange_with_recovery(ctx, &mut mpi, &mut store, false)?;
            assert_eq!(out.shrinks, 0);
            assert!(out.excluded.is_empty());
            assert_eq!(out.epoch, 0);
            assert!(out.restored.is_none());
            // the full grid — interior and ghosts — is byte-identical to
            // the serial oracle
            let got = ctx.gpu.memory().peek(ex.grid, ex.cfg.alloc_bytes())?;
            assert_eq!(got, ex.expected_grid(ctx));
            ex.destroy(ctx)?;
            Ok(true)
        })
        .unwrap();
        assert_eq!(results, vec![true; 8]);
    }

    #[test]
    fn checkpoint_restore_rebuilds_scribbled_interiors() {
        let cfg = WorldConfig::summit(8);
        let results = World::run(&cfg, |ctx| {
            let mut mpi = InterposedMpi::new(TempiConfig::default());
            let mut ex = HaloExchanger::new(ctx, &mut mpi, HaloConfig::small(4))?;
            ex.fill(ctx)?;
            let mut store = CheckpointStore::new();
            ex.exchange_with_recovery(ctx, &mut mpi, &mut store, true)?;
            assert_eq!(store.latest_committed(), Some(0));
            // scribble over the whole allocation — interior and ghosts
            ctx.gpu
                .memory()
                .poke(ex.grid, &vec![0xEE; ex.cfg.alloc_bytes()])?;
            ex.restore_from_checkpoint(ctx, &mut mpi, &store, 0)?;
            // the interior is back; one exchange rebuilds the ghosts and
            // the grid is byte-identical to the serial oracle
            ex.exchange(ctx, &mut mpi)?;
            assert_eq!(ex.verify_ghosts(ctx)?, 0, "rank {}", ctx.rank);
            let got = ctx.gpu.memory().peek(ex.grid, ex.cfg.alloc_bytes())?;
            assert_eq!(got, ex.expected_grid(ctx));
            assert_eq!((ex.checkpoints, ex.restores), (1, 1));
            ex.destroy(ctx)?;
            Ok(true)
        })
        .unwrap();
        assert_eq!(results, vec![true; 8]);
    }

    #[test]
    fn a_checkpointing_exchange_without_recovery_commits_or_fails_everywhere() {
        // rank 3 dies inside the second round: nobody shrinks, every rank
        // fails, and only the first round's generation committed
        let plan = mpi_sim::FaultPlan::parse("exit=3@285us").unwrap();
        let cfg = WorldConfig::summit(8).with_faults(plan);
        let results = World::run(&cfg, |ctx| {
            let mut mpi = InterposedMpi::new(TempiConfig::default());
            let mut ex = HaloExchanger::new(ctx, &mut mpi, HaloConfig::small(4))?;
            ex.fill(ctx)?;
            let mut store = CheckpointStore::new();
            ex.exchange_and_checkpoint(ctx, &mut mpi, &mut store)?;
            let second = ex.exchange_and_checkpoint(ctx, &mut mpi, &mut store);
            Ok((second.err(), store.latest_committed(), ctx.epoch()))
        })
        .unwrap();
        for (rank, (err, committed, epoch)) in results.into_iter().enumerate() {
            let err = err.unwrap_or_else(|| panic!("rank {rank} went through"));
            assert!(err.is_comm_failure(), "rank {rank}: {err}");
            assert_eq!((committed, epoch), (Some(0), 0), "rank {rank}");
        }
    }

    #[test]
    fn destroy_frees_grid_and_types() {
        let mut ctx = mpi_sim::RankCtx::standalone(&WorldConfig::summit(1));
        let mut mpi = InterposedMpi::new(TempiConfig::default());
        let ex = HaloExchanger::new(&mut ctx, &mut mpi, HaloConfig::small(4)).unwrap();
        let grid = ex.grid;
        let dt = ex.types.send[0];
        ex.destroy(&mut ctx).unwrap();
        assert!(ctx.gpu.memory().peek(grid, 4).is_err());
        assert!(ctx.attrs(dt).is_err());
    }

    #[test]
    fn send_bytes_counts_match_region_sum() {
        let cfg = WorldConfig::summit(8);
        let results = World::run(&cfg, |ctx| {
            let mut mpi = InterposedMpi::new(TempiConfig::default());
            let ex = HaloExchanger::new(ctx, &mut mpi, HaloConfig::small(6))?;
            Ok(ex.send_bytes())
        })
        .unwrap();
        // total = sum over 26 directions of region bytes (l=6, r=2):
        // 6 faces (2·6·6) + 12 edges (2·2·6) + 8 corners (2·2·2) cells
        let cells = 6 * (2 * 6 * 6) + 12 * (2 * 2 * 6) + 8 * 8;
        for s in results {
            assert_eq!(s, cells * 4);
        }
    }
}
