//! The simulated multi-rank world.
//!
//! [`World::run`] executes `body` on every MPI rank; each rank receives a
//! [`RankCtx`] — its window onto the simulation: a private virtual clock, a
//! private simulated GPU (one GPU per rank, as on Summit), a shared
//! datatype registry, and a shared delivery `Router`. Virtual time
//! composes across ranks Lamport-style: messages carry their departure
//! instant, and a receive completes at `max(local now, departure + wire
//! time)`.
//!
//! Ranks run as cooperatively-yielding fibers, one at a time, on one
//! worker thread per world (see [`crate::sched`]), which scales past
//! 10,000 ranks. The order they run in follows from virtual time and the
//! program alone, so a world replays byte for byte on any machine.

use std::fmt;
use std::sync::Arc;

use gpu_sim::{DeviceProps, GpuContext, GpuCostModel, SimClock, SimTime, Stream, Tracer};
use tempi_trace::sync::{Mutex, RwLock};

use crate::datatype::registry::Lists;
use crate::datatype::tree::write_spec;
use crate::datatype::{Combiner, Datatype, Dim, Envelope, Order, TypeAttrs, TypeDef, TypeRegistry};
use crate::error::{MpiError, MpiResult};
use crate::fault::{FaultPlan, FaultSite};
use crate::net::NetModel;
use crate::reliability::FaultState;
use crate::sched::{DeadlockInfo, ParkOp, Router, SchedCore};
use crate::vendor::VendorProfile;

/// Everything that parameterizes a simulated platform.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Number of ranks.
    pub size: usize,
    /// Which system MPI the world emulates.
    pub vendor: VendorProfile,
    /// Fabric model.
    pub net: NetModel,
    /// GPU cost model (one per rank; all identical).
    pub gpu_cost: GpuCostModel,
    /// GPU hardware model.
    pub device: DeviceProps,
    /// Deterministic fault plan; `None` (the default) runs fault-free with
    /// zero hot-path cost.
    pub faults: Option<FaultPlan>,
    /// End-to-end payload integrity: senders stamp envelopes with a content
    /// checksum and receivers verify deliveries, NACKing corrupted ones.
    /// Auto-enabled by [`WorldConfig::with_faults`] when the plan's
    /// `corrupt` site is active (set it back to `false` to study silent
    /// corruption).
    pub integrity: bool,
    /// Observability sink shared by every rank of this world (the default,
    /// [`Tracer::off`], records nothing and costs one branch per hook).
    pub tracer: Tracer,
    /// Virtual time added to the latest parked rank's clock when a
    /// deadlock verdict is stamped: "the world made no progress for this
    /// long". Deadlocks are detected structurally either way; this only
    /// moves the instant ranks unwinding with [`MpiError::Deadlock`] find
    /// themselves at (default zero).
    pub deadlock_budget: SimTime,
}

impl WorldConfig {
    /// An OLCF-Summit-like platform: Spectrum MPI, V100s, 6 ranks/node.
    pub fn summit(size: usize) -> Self {
        WorldConfig {
            size,
            vendor: VendorProfile::spectrum(),
            net: NetModel::summit(),
            gpu_cost: GpuCostModel::summit_v100(),
            device: DeviceProps::v100(),
            faults: None,
            integrity: false,
            tracer: Tracer::off(),
            deadlock_budget: SimTime::ZERO,
        }
    }

    /// The paper's single-node workstation with the given MPI (openmpi or
    /// mvapich profiles).
    pub fn workstation(size: usize, vendor: VendorProfile) -> Self {
        WorldConfig {
            size,
            vendor,
            net: NetModel::workstation(),
            gpu_cost: GpuCostModel::workstation_gtx1070(),
            device: DeviceProps::gtx1070(),
            faults: None,
            integrity: false,
            tracer: Tracer::off(),
            deadlock_budget: SimTime::ZERO,
        }
    }

    /// Builder-style: run this world under `plan`. If the plan can corrupt
    /// payloads in transit, integrity envelopes are switched on so receivers
    /// can detect it (override by clearing `integrity` afterwards).
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.integrity |= plan.site(FaultSite::Corrupt).is_active();
        self.faults = Some(plan);
        self
    }

    /// Builder-style: stamp every payload-bearing envelope with a content
    /// checksum and verify on delivery, even without a fault plan.
    #[must_use]
    pub fn with_integrity(mut self) -> Self {
        self.integrity = true;
        self
    }

    /// Builder-style: record this world's activity into `tracer`. All ranks
    /// share the one event buffer, so a single export covers the world.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Builder-style: stamp deadlock verdicts `budget` of virtual time
    /// after the latest parked clock (see
    /// [`WorldConfig::deadlock_budget`]).
    #[must_use]
    pub fn with_deadlock_budget(mut self, budget: SimTime) -> Self {
        self.deadlock_budget = budget;
        self
    }

    /// A no-op, kept for callers written when the scheduler ran a pool of
    /// worker threads: every world now runs on one worker.
    #[must_use]
    pub fn with_sched_workers(self, _workers: usize) -> Self {
        self
    }
}

/// A barrier that also merges virtual clocks: every participant leaves at
/// `max(arrival clocks) + barrier_cost`.
pub(crate) struct ClockBarrier {
    size: usize,
    cost: SimTime,
    state: Mutex<BarrierState>,
}

struct BarrierState {
    arrived: usize,
    max_time: SimTime,
    release: SimTime,
    generation: u64,
    /// Ranks whose fibers are parked in this barrier. The releaser wakes
    /// each and empties the list in place, so the list keeps its capacity
    /// and a barrier allocates only until it has seen a full world.
    waiters: Vec<usize>,
}

impl ClockBarrier {
    fn new(size: usize, cost: SimTime) -> Self {
        ClockBarrier {
            size,
            cost,
            state: Mutex::new(BarrierState {
                arrived: 0,
                max_time: SimTime::ZERO,
                release: SimTime::ZERO,
                generation: 0,
                waiters: Vec::new(),
            }),
        }
    }

    /// Enter with the caller's current virtual instant; returns the common
    /// release instant, parking the caller's fiber until the last
    /// participant arrives. Returns `None` if the world was declared
    /// deadlocked while (or before) this caller was parked — the classic
    /// case being the last live ranks stuck in a barrier a dead rank will
    /// never reach; the caller withdraws its arrival (decrementing
    /// `arrived` and delisting itself) so the accounting stays coherent.
    fn wait(&self, now: SimTime, sched: &SchedCore, rank: usize) -> Option<SimTime> {
        let mut s = self.state.lock();
        let gen = s.generation;
        s.max_time = s.max_time.max(now);
        s.arrived += 1;
        if s.arrived == self.size {
            s.arrived = 0;
            s.release = s.max_time + self.cost;
            s.max_time = SimTime::ZERO;
            s.generation += 1;
            for w in s.waiters.drain(..) {
                sched.wake(w);
            }
            return Some(s.release);
        }
        if sched.verdict().is_some() {
            // Arrived into an already-condemned world: withdraw
            // immediately rather than parking forever.
            s.arrived -= 1;
            return None;
        }
        s.waiters.push(rank);
        loop {
            drop(s);
            sched.park(rank, now, ParkOp::Barrier);
            s = self.state.lock();
            if s.generation != gen {
                return Some(s.release);
            }
            if sched.verdict().is_some() {
                s.arrived -= 1;
                s.waiters.retain(|&w| w != rank);
                return None;
            }
            // A wake meant for another blocking point: loop and re-park.
        }
    }
}

/// Communicator membership map: position `i` holds the world rank sitting
/// at comm rank `i`.
///
/// Pre-shrink worlds use the identity map — represented symbolically
/// because materializing it would put an N-entry table in every rank,
/// O(N²) memory across the world (with 10,000 ranks, the second scaling
/// blocker after thread-per-rank). Only a [`RankCtx::shrink`] allocates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Members {
    /// The identity map over `0..n` (no shrink has happened).
    Identity(usize),
    /// Explicit survivor list after one or more shrinks.
    Explicit(Vec<usize>),
}

impl Members {
    /// Communicator size.
    pub(crate) fn len(&self) -> usize {
        match self {
            Members::Identity(n) => *n,
            Members::Explicit(v) => v.len(),
        }
    }

    /// World rank at comm rank `i`, if in range.
    pub(crate) fn get(&self, i: usize) -> Option<usize> {
        match self {
            Members::Identity(n) => (i < *n).then_some(i),
            Members::Explicit(v) => v.get(i).copied(),
        }
    }

    /// The comm rank of member `world`; panics when it is no member.
    pub(crate) fn rank_of(&self, world: u32) -> usize {
        let world = world as usize;
        match self {
            Members::Identity(_) => world,
            // survivors keep their world order
            Members::Explicit(v) => v.binary_search(&world).expect("a member's world rank"),
        }
    }

    /// World rank at comm rank `i`; panics when out of range.
    pub(crate) fn world(&self, i: usize) -> usize {
        self.get(i).expect("comm rank within communicator")
    }

    /// Iterate the members' world ranks in comm-rank order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len()).map(move |i| self.world(i))
    }

    /// Materialize the membership (API boundary / shrink bookkeeping).
    pub(crate) fn to_vec(&self) -> Vec<usize> {
        self.iter().collect()
    }
}

/// One rank's handle on the simulated world. All MPI-facing operations in
/// the repository go through this type (directly for "system MPI"
/// semantics, or via the TEMPI interposer in `tempi-core`).
pub struct RankCtx {
    /// This rank's index *in the current communicator*. Before any
    /// [`RankCtx::shrink`] this equals the world rank; each shrink densely
    /// renumbers the survivors.
    pub rank: usize,
    /// Size of the current communicator (shrinks after recovery).
    pub size: usize,
    /// This rank's index in the original world — stable across shrinks;
    /// indexes the channel table and the network model's locality map.
    pub world_rank: usize,
    /// Size of the original world.
    pub world_size: usize,
    /// This rank's virtual clock.
    pub clock: SimClock,
    /// This rank's simulated GPU.
    pub gpu: GpuContext,
    /// The default stream on this rank's GPU.
    pub stream: Stream,
    /// The system-MPI vendor this world emulates.
    pub vendor: VendorProfile,
    /// The fabric model. Shared (`Arc`), not owned: per-send cost
    /// estimators hold a handle to it, and cloning the model's tables on
    /// the hot path would dwarf the work being priced.
    pub net: Arc<NetModel>,
    /// The reliability layer's state for this rank ([`crate::reliability`]):
    /// the (optional) injector, what it learnt of failures, and the
    /// statistics and degradation-event log accumulated so far.
    pub faults: FaultState,
    /// Observability sink (cheap clone of the world's tracer; off by
    /// default). Layers above record spans against `world_rank`.
    pub tracer: Tracer,
    pub(crate) registry: Arc<RwLock<TypeRegistry>>,
    /// Shared delivery fabric: one bounded FIFO inbox per rank, and the
    /// scheduler this rank's blocking points park on.
    pub(crate) router: Arc<Router>,
    pub(crate) barrier: Arc<ClockBarrier>,
    /// Current communicator membership (world rank per comm rank). Starts
    /// as the (symbolic) identity map.
    pub(crate) comm_members: Members,
    /// Communicator generation; bumped by every shrink and stamped into
    /// message envelopes so late traffic from a prior epoch is rejected.
    pub(crate) epoch: u32,
    /// When the link finishes serialising the last part this rank took
    /// delivery of: the next part of the same transfer queues behind it.
    pub(crate) part_link_free: SimTime,
    /// A small spent payload kept for this rank's next send
    /// ([`RankCtx::spend`]).
    pub(crate) spare: Vec<u8>,
}

impl RankCtx {
    /// A standalone single-rank context on the caller's own thread — used
    /// by the non-communication experiments (type commit, `MPI_Pack`) and
    /// by unit tests. Self-sends are received normally; a blocking call
    /// with nothing deliverable can never be satisfied, so it returns
    /// [`MpiError::Deadlock`] at once instead of hanging.
    pub fn standalone(cfg: &WorldConfig) -> RankCtx {
        // No tasks and never run: the caller's thread is the rank.
        WorldShared::new(cfg, 1, SchedCore::new(0, cfg.deadlock_budget)).ctx(cfg, 0)
    }

    /// Run `body` inside a tracing span named `name` on this rank's CPU
    /// lane. The span closes on success and error alike (with an `ok` arg),
    /// so traced error paths never leave a dangling `B` event. When the
    /// tracer is off this is a single branch plus the call.
    pub fn with_span<T>(
        &mut self,
        cat: &'static str,
        name: &str,
        body: impl FnOnce(&mut Self) -> MpiResult<T>,
    ) -> MpiResult<T> {
        self.with_span_args(cat, name, body, |r| vec![("ok", r.is_ok().into())])
    }

    /// [`RankCtx::with_span`] whose span closes with `args` of the outcome
    /// (called only when tracing).
    pub fn with_span_args<T>(
        &mut self,
        cat: &'static str,
        name: &str,
        body: impl FnOnce(&mut Self) -> MpiResult<T>,
        args: impl FnOnce(&MpiResult<T>) -> tempi_trace::Args,
    ) -> MpiResult<T> {
        if !self.tracer.enabled() {
            return body(self);
        }
        let tracer = self.tracer.clone();
        let pid = self.world_rank as u32;
        tracer.begin(
            pid,
            tempi_trace::LANE_CPU,
            cat,
            name,
            self.clock.now().as_ps(),
        );
        let r = body(self);
        tracer.end_args(pid, tempi_trace::LANE_CPU, self.clock.now().as_ps(), || {
            args(&r)
        });
        r
    }

    /// Validate a peer rank.
    pub fn check_rank(&self, rank: usize) -> MpiResult<()> {
        if rank >= self.size {
            Err(MpiError::InvalidRank {
                rank,
                size: self.size,
            })
        } else {
            Ok(())
        }
    }

    /// `MPI_Barrier`: synchronize all ranks (and their virtual clocks).
    ///
    /// Deliberately infallible: if the world is declared deadlocked while
    /// this rank is parked here, the barrier simply returns without
    /// advancing the clock — the structured
    /// [`MpiError::Deadlock`] surfaces from the ranks blocked in receives
    /// (and any later receive this rank attempts), which is where the
    /// diagnostic context lives.
    pub fn barrier(&mut self) {
        let release = self
            .barrier
            .wait(self.clock.now(), self.router.sched(), self.world_rank);
        if let Some(release) = release {
            self.clock.advance_to(release);
        }
    }

    /// Unexpected messages a receive examined and left: the kept prefix
    /// of this rank's inbox, which no receive has matched yet (a teardown
    /// invariant for quiescent protocols).
    #[must_use]
    pub fn pending_messages(&self) -> usize {
        self.router.depths(self.world_rank).0
    }

    /// Messages in this rank's inbox that no receive has examined yet,
    /// delivered but never looked at (the companion teardown invariant to
    /// [`RankCtx::pending_messages`]).
    #[must_use]
    pub fn inbox_backlog(&self) -> usize {
        self.router.depths(self.world_rank).1
    }

    /// Reset this rank's virtual clock *and its GPU stream timeline*
    /// (between benchmark repetitions; in multi-rank worlds pair it with a
    /// barrier so no in-flight message carries a pre-reset timestamp).
    pub fn reset_clock(&mut self) {
        self.clock.reset();
        self.stream.reset_timeline();
    }

    // ---- datatype API (vendor-priced wrappers over the registry) -------

    /// Create the type `def` spells, charging one type-constructor call's
    /// CPU cost first, so a call whose arguments do not even spell a type
    /// (`def` is an error) is charged too: every `MPI_Type_*` constructor
    /// below is this one call. `def` copies its argument lists, if it has
    /// any, into lists freed types left behind ([`TypeRegistry::free`]).
    pub(crate) fn type_create(
        &mut self,
        def: impl FnOnce(&mut Lists) -> MpiResult<TypeDef>,
    ) -> MpiResult<Datatype> {
        self.clock.advance(self.vendor.type_create_cost);
        let mut reg = self.registry.write();
        let def = def(&mut reg.lists)?;
        reg.create(def)
    }

    /// `MPI_Type_contiguous`.
    pub fn type_contiguous(&mut self, count: i32, oldtype: Datatype) -> MpiResult<Datatype> {
        self.type_create(|_| Ok(TypeDef::Contiguous { count, oldtype }))
    }

    /// `MPI_Type_vector` (stride in elements).
    pub fn type_vector(
        &mut self,
        count: i32,
        blocklength: i32,
        stride: i32,
        oldtype: Datatype,
    ) -> MpiResult<Datatype> {
        self.type_create(|_| {
            Ok(TypeDef::Vector {
                count,
                blocklength,
                stride,
                oldtype,
            })
        })
    }

    /// `MPI_Type_create_hvector` (stride in bytes).
    pub fn type_create_hvector(
        &mut self,
        count: i32,
        blocklength: i32,
        stride_bytes: i64,
        oldtype: Datatype,
    ) -> MpiResult<Datatype> {
        self.type_create(|_| {
            Ok(TypeDef::Hvector {
                count,
                blocklength,
                stride_bytes,
                oldtype,
            })
        })
    }

    /// `MPI_Type_create_subarray`; lists of different lengths are
    /// [`MpiError::InvalidArg`].
    pub fn type_create_subarray(
        &mut self,
        sizes: &[i32],
        subsizes: &[i32],
        starts: &[i32],
        order: Order,
        oldtype: Datatype,
    ) -> MpiResult<Datatype> {
        self.type_create(|_| {
            Ok(TypeDef::Subarray {
                dims: Dim::from_lists(sizes, subsizes, starts, order)
                    .map_err(MpiError::InvalidArg)?,
                oldtype,
            })
        })
    }

    /// `MPI_Type_indexed` (displacements in elements).
    pub fn type_indexed(
        &mut self,
        blocklengths: &[i32],
        displacements: &[i32],
        oldtype: Datatype,
    ) -> MpiResult<Datatype> {
        self.type_create(|lists| {
            Ok(TypeDef::Indexed {
                blocklengths: lists.ints.copy(blocklengths),
                displacements: lists.ints.copy(displacements),
                oldtype,
            })
        })
    }

    /// `MPI_Type_create_indexed_block` (equal blocks, displacements in
    /// elements).
    pub fn type_create_indexed_block(
        &mut self,
        blocklength: i32,
        displacements: &[i32],
        oldtype: Datatype,
    ) -> MpiResult<Datatype> {
        self.type_create(|lists| {
            Ok(TypeDef::IndexedBlock {
                blocklength,
                displacements: lists.ints.copy(displacements),
                oldtype,
            })
        })
    }

    /// `MPI_Type_create_hindexed` (displacements in bytes).
    pub fn type_create_hindexed(
        &mut self,
        blocklengths: &[i32],
        displacements_bytes: &[i64],
        oldtype: Datatype,
    ) -> MpiResult<Datatype> {
        self.type_create(|lists| {
            Ok(TypeDef::Hindexed {
                blocklengths: lists.ints.copy(blocklengths),
                displacements_bytes: lists.addrs.copy(displacements_bytes),
                oldtype,
            })
        })
    }

    /// `MPI_Type_create_struct`.
    pub fn type_create_struct(
        &mut self,
        blocklengths: &[i32],
        displacements_bytes: &[i64],
        types: &[Datatype],
    ) -> MpiResult<Datatype> {
        self.type_create(|lists| {
            Ok(TypeDef::Struct {
                blocklengths: lists.ints.copy(blocklengths),
                displacements_bytes: lists.addrs.copy(displacements_bytes),
                types: lists.types.copy(types),
            })
        })
    }

    /// `MPI_Type_create_resized`.
    pub fn type_create_resized(
        &mut self,
        oldtype: Datatype,
        lb: i64,
        extent: i64,
    ) -> MpiResult<Datatype> {
        self.type_create(|_| {
            Ok(TypeDef::Resized {
                lb,
                extent,
                oldtype,
            })
        })
    }

    /// `MPI_Type_dup`.
    pub fn type_dup(&mut self, oldtype: Datatype) -> MpiResult<Datatype> {
        self.type_create(|_| Ok(TypeDef::Dup { oldtype }))
    }

    /// `MPI_Type_free`.
    pub fn type_free(&mut self, dt: Datatype) -> MpiResult<()> {
        self.registry.write().free(dt)
    }

    /// The *system MPI's* `MPI_Type_commit` (native work only; the TEMPI
    /// layer in `tempi-core` adds its translation/transformation on top).
    pub fn type_commit_native(&mut self, dt: Datatype) -> MpiResult<()> {
        self.clock.advance(self.vendor.type_commit_cost);
        self.registry.write().commit(dt)
    }

    // ---- priced introspection (what TEMPI's translation calls) ---------

    /// `MPI_Type_get_envelope`, priced per the vendor.
    pub fn get_envelope(&mut self, dt: Datatype) -> MpiResult<Envelope> {
        self.clock.advance(self.vendor.introspection_call_cost);
        self.registry.read().get_envelope(dt)
    }

    /// `MPI_Type_get_contents`, priced per the vendor: the C API's form,
    /// into the caller's arrays (see [`TypeRegistry::get_contents`]).
    pub fn get_contents(
        &mut self,
        dt: Datatype,
        integers: &mut [i64],
        addresses: &mut [i64],
        datatypes: &mut [Datatype],
    ) -> MpiResult<()> {
        self.clock.advance(self.vendor.introspection_call_cost);
        (self.registry.read()).get_contents(dt, integers, addresses, datatypes)
    }

    /// `MPI_Type_get_extent`, priced per the vendor.
    pub fn get_extent(&mut self, dt: Datatype) -> MpiResult<(i64, i64)> {
        self.clock.advance(self.vendor.introspection_call_cost);
        self.registry.read().extent(dt)
    }

    /// `MPI_Type_size`, priced per the vendor.
    pub fn type_size(&mut self, dt: Datatype) -> MpiResult<u64> {
        self.clock.advance(self.vendor.introspection_call_cost);
        self.registry.read().size(dt)
    }

    // ---- unpriced registry access (simulator-internal) ------------------

    /// Unpriced attribute lookup (for the simulator's own bookkeeping —
    /// *not* for code modeling real MPI calls).
    pub fn attrs(&self, dt: Datatype) -> MpiResult<TypeAttrs> {
        self.registry.read().attrs(dt)
    }

    /// Unpriced combiner lookup.
    pub fn combiner(&self, dt: Datatype) -> MpiResult<Combiner> {
        Ok(self.registry.read().get_envelope(dt)?.combiner)
    }

    /// Unpriced committed check.
    pub fn is_committed(&self, dt: Datatype) -> MpiResult<bool> {
        self.registry.read().is_committed(dt)
    }

    /// Shared registry handle (read-mostly; the TEMPI layer caches per
    /// committed type).
    pub fn registry(&self) -> &Arc<RwLock<TypeRegistry>> {
        &self.registry
    }

    /// A type's construction as a spec `tempi-cli describe` accepts (see
    /// [`TypeTree`](crate::datatype::TypeTree)), written from the registry
    /// in constant stack; a handle that is dead, or built over one that
    /// is, prints as `<dead #n>`.
    pub fn describe(&self, dt: Datatype) -> String {
        let reg = self.registry.read();
        // a handle's construction; writing into a `String` fails only here
        let def = |dt: &Datatype| reg.info(*dt).map(|info| &info.def).map_err(|_| fmt::Error);
        let mut spec = String::new();
        match def(&dt).and_then(|root| write_spec(&mut spec, root, def)) {
            Ok(()) => spec,
            Err(fmt::Error) => format!("<dead #{}>", dt.0),
        }
    }
}

/// The simulated MPI world.
pub struct World;

/// The handles every rank of one world shares, and the descriptors every
/// rank only reads, built once per world.
struct WorldShared {
    size: usize,
    registry: Arc<RwLock<TypeRegistry>>,
    net: Arc<NetModel>,
    router: Arc<Router>,
    barrier: Arc<ClockBarrier>,
    device: Arc<DeviceProps>,
    gpu_cost: Arc<GpuCostModel>,
}

impl WorldShared {
    /// The shared state of a `size`-rank world whose blocking points park
    /// on `sched`.
    fn new(cfg: &WorldConfig, size: usize, sched: SchedCore) -> WorldShared {
        WorldShared {
            size,
            registry: Arc::new(RwLock::new(TypeRegistry::new())),
            net: Arc::new(cfg.net.clone()),
            router: Arc::new(Router::new(size, sched)),
            barrier: Arc::new(ClockBarrier::new(size, cfg.net.barrier_cost)),
            device: Arc::new(cfg.device.clone()),
            gpu_cost: Arc::new(cfg.gpu_cost.clone()),
        }
    }

    /// World rank `rank`'s context.
    fn ctx(&self, cfg: &WorldConfig, rank: usize) -> RankCtx {
        let gpu = GpuContext::new(Arc::clone(&self.device));
        let faults = FaultState::new(cfg, rank, &gpu);
        let mut stream = Stream::new(gpu.clone(), Arc::clone(&self.gpu_cost));
        stream.set_tracer(cfg.tracer.clone(), rank as u32);
        RankCtx {
            rank,
            size: self.size,
            world_rank: rank,
            world_size: self.size,
            clock: SimClock::new(),
            gpu,
            stream,
            vendor: cfg.vendor.clone(),
            net: Arc::clone(&self.net),
            faults,
            tracer: cfg.tracer.clone(),
            registry: Arc::clone(&self.registry),
            router: Arc::clone(&self.router),
            barrier: Arc::clone(&self.barrier),
            comm_members: Members::Identity(self.size),
            epoch: 0,
            part_link_free: SimTime::ZERO,
            spare: Vec::new(),
        }
    }
}

/// Run one rank's body with panic isolation and the standard epilogue.
fn run_rank<F, T>(body: &F, ctx: &mut RankCtx) -> MpiResult<T>
where
    F: Fn(&mut RankCtx) -> MpiResult<T> + Sync,
{
    let rank = ctx.world_rank;
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(ctx)));
    let r = match r {
        Ok(r) => r,
        Err(payload) => {
            let message = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            // To its peers a panicked rank is simply dead: broadcast a
            // death notice at its last virtual instant so blocked
            // receivers unwind through the recovery path instead of
            // hanging.
            ctx.announce_death(ctx.clock.now());
            Err(MpiError::RankPanicked { rank, message })
        }
    };
    // A rank with a scheduled exit might return without ever tripping
    // over its own death (its clock never reached the instant).
    ctx.announce_scheduled_death();
    ctx.router.rank_done();
    r
}

/// Collapse per-rank results and the scheduler's verdict into the
/// run's result. A panic is the primary failure (any `Deadlock`/`PeerGone`
/// on other ranks is fallout); otherwise the first rank error wins; a
/// verdict only surfaces when every rank returned `Ok` (a deadlock whose
/// blocked ranks were all parked in barriers produces no per-rank error —
/// the barrier withdraws silently — and must not be lost).
fn merge_results<T>(
    results: Vec<MpiResult<T>>,
    verdict: Option<&DeadlockInfo>,
) -> MpiResult<Vec<T>> {
    let mut results = results;
    if let Some(i) = results
        .iter()
        .position(|r| matches!(r, Err(MpiError::RankPanicked { .. })))
    {
        results.swap_remove(i)?;
        unreachable!("position() matched an Err");
    }
    let out: MpiResult<Vec<T>> = results.into_iter().collect();
    match (out, verdict) {
        (Ok(_), Some(v)) => Err(MpiError::Deadlock {
            ranks: v.ranks.clone(),
            ops: v.ops.clone(),
        }),
        (out, _) => out,
    }
}

impl World {
    /// Run `body` on every rank of a world configured by `cfg`; returns the
    /// per-rank results in rank order. Every rank is a fiber on the world's
    /// one worker thread; blocking points park the fiber and deadlocks are
    /// detected structurally (see [`crate::sched`]). A panicking rank
    /// surfaces as [`MpiError::RankPanicked`] naming it (peers see it die
    /// like a fault-injected exit); an empty world is
    /// [`MpiError::InvalidArg`].
    pub fn run<F, T>(cfg: &WorldConfig, body: F) -> MpiResult<Vec<T>>
    where
        F: Fn(&mut RankCtx) -> MpiResult<T> + Sync,
        T: Send,
    {
        if cfg.size == 0 {
            return Err(MpiError::InvalidArg(
                "world size must be positive".to_string(),
            ));
        }
        let world = WorldShared::new(cfg, cfg.size, SchedCore::new(cfg.size, cfg.deadlock_budget));
        let sched = world.router.sched();
        let slots: Vec<Mutex<Option<MpiResult<T>>>> =
            (0..cfg.size).map(|_| Mutex::new(None)).collect();
        let (body, out) = (&body, &slots);
        sched.run((0..cfg.size).map(|rank| -> Box<dyn FnOnce() + Send + '_> {
            let mut ctx = world.ctx(cfg, rank);
            Box::new(move || *out[rank].lock() = Some(run_rank(body, &mut ctx)))
        }));
        let results = slots
            .into_iter()
            .map(|slot| {
                // `SchedCore::run` returns only once every body has.
                slot.into_inner()
                    .expect("every rank fiber runs to completion")
            })
            .collect();
        merge_results(results, sched.verdict())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::consts::*;

    #[test]
    fn standalone_rank_builds_types() {
        let mut ctx = RankCtx::standalone(&WorldConfig::summit(1));
        let t = ctx.type_vector(4, 2, 8, MPI_FLOAT).unwrap();
        ctx.type_commit_native(t).unwrap();
        assert!(ctx.is_committed(t).unwrap());
        // create + commit charged virtual time
        let expect = ctx.vendor.type_create_cost + ctx.vendor.type_commit_cost;
        assert_eq!(ctx.clock.now(), expect);

        // every MPI-named constructor is one priced create of the
        // `TypeDef` its arguments spell
        let cost = ctx.vendor.type_create_cost;
        type Ctor = fn(&mut RankCtx) -> MpiResult<Datatype>;
        let cases: [(Ctor, TypeDef); 10] = [
            (|c| c.type_dup(MPI_INT), TypeDef::Dup { oldtype: MPI_INT }),
            (
                |c| c.type_contiguous(3, MPI_INT),
                TypeDef::Contiguous {
                    count: 3,
                    oldtype: MPI_INT,
                },
            ),
            (
                |c| c.type_vector(4, 2, 8, MPI_FLOAT),
                TypeDef::Vector {
                    count: 4,
                    blocklength: 2,
                    stride: 8,
                    oldtype: MPI_FLOAT,
                },
            ),
            (
                |c| c.type_create_hvector(2, 3, 40, MPI_DOUBLE),
                TypeDef::Hvector {
                    count: 2,
                    blocklength: 3,
                    stride_bytes: 40,
                    oldtype: MPI_DOUBLE,
                },
            ),
            (
                |c| c.type_indexed(&[1, 2], &[0, 5], MPI_INT),
                TypeDef::Indexed {
                    blocklengths: vec![1, 2],
                    displacements: vec![0, 5],
                    oldtype: MPI_INT,
                },
            ),
            (
                |c| c.type_create_indexed_block(2, &[0, 4, 9], MPI_SHORT),
                TypeDef::IndexedBlock {
                    blocklength: 2,
                    displacements: vec![0, 4, 9],
                    oldtype: MPI_SHORT,
                },
            ),
            (
                |c| c.type_create_hindexed(&[2, 1], &[0, 24], MPI_INT),
                TypeDef::Hindexed {
                    blocklengths: vec![2, 1],
                    displacements_bytes: vec![0, 24],
                    oldtype: MPI_INT,
                },
            ),
            (
                |c| c.type_create_subarray(&[8, 6], &[4, 2], &[1, 3], Order::Fortran, MPI_BYTE),
                TypeDef::Subarray {
                    dims: Dim::from_lists(&[8, 6], &[4, 2], &[1, 3], Order::Fortran).unwrap(),
                    oldtype: MPI_BYTE,
                },
            ),
            (
                |c| c.type_create_struct(&[1, 2], &[0, 8], &[MPI_INT, MPI_DOUBLE]),
                TypeDef::Struct {
                    blocklengths: vec![1, 2],
                    displacements_bytes: vec![0, 8],
                    types: vec![MPI_INT, MPI_DOUBLE],
                },
            ),
            (
                |c| c.type_create_resized(MPI_INT, -4, 16),
                TypeDef::Resized {
                    lb: -4,
                    extent: 16,
                    oldtype: MPI_INT,
                },
            ),
        ];
        for (ctor, def) in cases {
            let before = ctx.clock.now();
            let dt = ctor(&mut ctx).unwrap();
            assert_eq!(ctx.clock.now() - before, cost, "{def:?}");
            assert_eq!(ctx.registry().read().info(dt).unwrap().def, def);
        }
        // a bad argument is still one priced call, and inserts nothing
        let bad: [Ctor; 2] = [
            |c| c.type_create_subarray(&[8, 6], &[4], &[1, 3], Order::C, MPI_BYTE),
            |c| c.type_contiguous(-1, MPI_INT),
        ];
        for ctor in bad {
            let (before, live) = (ctx.clock.now(), ctx.registry().read().live());
            assert!(matches!(ctor(&mut ctx), Err(MpiError::InvalidArg(_))));
            assert_eq!(ctx.clock.now() - before, cost);
            assert_eq!(ctx.registry().read().live(), live);
        }
    }

    #[test]
    fn introspection_is_priced() {
        let mut ctx = RankCtx::standalone(&WorldConfig::summit(1));
        let t = ctx.type_contiguous(8, MPI_INT).unwrap();
        let before = ctx.clock.now();
        let env = ctx.get_envelope(t).unwrap();
        assert_eq!(env.combiner, Combiner::Contiguous);
        let (mut ints, mut dts) = ([0; 1], [MPI_INT; 1]);
        ctx.get_contents(t, &mut ints, &mut [], &mut dts).unwrap();
        assert_eq!((ints, dts), ([8], [MPI_INT]));
        let _ = ctx.get_extent(t).unwrap();
        let _ = ctx.type_size(t).unwrap();
        assert_eq!(
            ctx.clock.now() - before,
            ctx.vendor.introspection_call_cost * 4
        );
    }

    #[test]
    fn world_runs_all_ranks() {
        let cfg = WorldConfig::summit(4);
        let results = World::run(&cfg, |ctx| Ok(ctx.rank * 10)).unwrap();
        assert_eq!(results, vec![0, 10, 20, 30]);
    }

    #[test]
    fn barrier_merges_clocks() {
        let cfg = WorldConfig::summit(3);
        let results = World::run(&cfg, |ctx| {
            // rank r works for r*10 µs, then all meet at a barrier
            ctx.clock.advance(SimTime::from_us(ctx.rank as u64 * 10));
            ctx.barrier();
            Ok(ctx.clock.now())
        })
        .unwrap();
        let expect = SimTime::from_us(20) + NetModel::summit().barrier_cost;
        assert!(results.iter().all(|&t| t == expect), "{results:?}");
    }

    #[test]
    fn shared_registry_across_ranks() {
        // all ranks create the same type concurrently; handles may differ
        // but each rank's own handle must be valid
        let cfg = WorldConfig::summit(4);
        let results = World::run(&cfg, |ctx| {
            let t = ctx.type_vector(4, 1, 2, MPI_INT)?;
            ctx.type_commit_native(t)?;
            ctx.type_size(t)
        })
        .unwrap();
        assert!(results.iter().all(|&s| s == 16));
    }

    const BUDGET: SimTime = SimTime::from_ms(1);

    #[test]
    fn deadlocked_receive_becomes_a_structured_error_naming_the_op() {
        // Rank 1 returns without ever sending; rank 0 blocks on a receive
        // that can never match. The message it left queued toward rank 1
        // will never be drained and must not mask the verdict.
        let cfg = WorldConfig::summit(2).with_deadlock_budget(BUDGET);
        let err = World::run(&cfg, |ctx| {
            if ctx.rank == 0 {
                let buf = ctx.gpu.host_alloc(64)?;
                ctx.send_bytes(buf, 64, 1, 3)?;
                ctx.recv_bytes(buf, 64, Some(1), Some(7))?;
            }
            Ok(())
        })
        .unwrap_err();
        match err {
            MpiError::Deadlock { ranks, ops } => {
                assert_eq!(ranks, vec![0]);
                assert_eq!(ops, vec!["recv(src=1, tag=7)".to_string()]);
            }
            other => panic!("expected Deadlock, got {other:?}"),
        }
    }

    #[test]
    fn lone_barrier_is_a_deadlock_surfaced_by_the_run() {
        // Rank 1 never reaches the barrier; rank 0 parks there forever.
        // The verdict surfaces as the run's result because the barrier
        // itself withdraws silently.
        let cfg = WorldConfig::summit(2).with_deadlock_budget(BUDGET);
        let err = World::run(&cfg, |ctx| {
            if ctx.rank == 0 {
                ctx.barrier();
            }
            Ok(())
        })
        .unwrap_err();
        match err {
            MpiError::Deadlock { ranks, ops } => {
                assert_eq!(ranks, vec![0]);
                assert_eq!(ops, vec!["barrier".to_string()]);
            }
            other => panic!("expected Deadlock, got {other:?}"),
        }
    }

    #[test]
    fn deadlock_budget_leaves_healthy_runs_and_their_timing_untouched() {
        let body = |ctx: &mut RankCtx| {
            ctx.clock.advance(SimTime::from_us(ctx.rank as u64 * 3));
            ctx.barrier();
            let (send, recv) = (ctx.gpu.host_alloc(3)?, ctx.gpu.host_alloc(3)?);
            ctx.gpu.memory().poke(send, &[ctx.rank as u8 + 1; 3])?;
            let (ones, displs) = ([1; 3], [0, 1, 2]);
            ctx.alltoallv_bytes(send, &ones, &displs, recv, &ones, &displs)?;
            ctx.barrier();
            Ok((ctx.clock.now(), ctx.gpu.memory().peek(recv, 3)?))
        };
        let plain = World::run(&WorldConfig::summit(3), body).unwrap();
        let budgeted =
            World::run(&WorldConfig::summit(3).with_deadlock_budget(BUDGET), body).unwrap();
        assert_eq!(
            plain, budgeted,
            "virtual time must not depend on the budget"
        );
    }

    #[test]
    fn an_empty_world_is_an_invalid_argument_not_a_panic() {
        let err = World::run(&WorldConfig::summit(0), |_| Ok(())).unwrap_err();
        assert!(matches!(err, MpiError::InvalidArg(_)), "{err:?}");
    }

    #[test]
    fn standalone_self_send_is_received_and_an_empty_inbox_is_a_deadlock() {
        let cfg = WorldConfig::summit(1).with_deadlock_budget(BUDGET);
        let mut ctx = RankCtx::standalone(&cfg);
        let (src, dst) = (
            ctx.gpu.host_alloc(8).unwrap(),
            ctx.gpu.host_alloc(8).unwrap(),
        );
        ctx.gpu.memory().poke(src, &[7u8; 8]).unwrap();
        ctx.send_bytes(src, 8, 0, 5).unwrap();
        ctx.recv_bytes(dst, 8, Some(0), Some(5)).unwrap();
        assert_eq!(ctx.gpu.memory().peek(dst, 8).unwrap(), vec![7u8; 8]);
        // Nothing is in flight and nobody else exists to send: at once,
        // not a hang.
        let before = ctx.clock.now();
        assert_eq!(
            ctx.recv_bytes(dst, 8, Some(0), Some(5)).unwrap_err(),
            MpiError::Deadlock {
                ranks: vec![0],
                ops: vec!["recv(src=0, tag=5)".to_string()],
            }
        );
        assert_eq!(ctx.clock.now(), before + BUDGET, "stamped like any verdict");
    }

    #[test]
    fn check_rank_bounds() {
        let ctx = RankCtx::standalone(&WorldConfig::summit(1));
        assert!(ctx.check_rank(0).is_ok());
        assert_eq!(
            ctx.check_rank(1),
            Err(MpiError::InvalidRank { rank: 1, size: 1 })
        );
    }
}
