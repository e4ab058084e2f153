//! What creating and committing a datatype allocates: nothing for a
//! subarray of up to four dimensions in a freed slot, nothing for a commit
//! of a shape the rank already holds a plan of, nothing for a warm create →
//! commit → free cycle of a constructor that carries lists (the freed
//! type's lists and its dead plan are the next cycle's storage), nothing
//! for a warm commit of a shape never seen before, a small fixed number for
//! the fused halo pair on a fresh library and for a halo exchanger's whole
//! set-up, nothing for filling its grid, and an intern table that holds no
//! plan no type uses; and the system MPI packing and unpacking a non-dense
//! type it has moved before, nothing. A warm tuner decides a send without
//! the heap in every mode, probes included, a traced metric that exists
//! records without it, a message of at most 64 bytes travels without it
//! (typed from a non-contiguous host buffer, or as a train, too), and a
//! warm 26-peer sparse `alltoallv` and a warm 64-rank dense one move
//! their messages without it. A thousand warm cycles in one registry slot
//! allocate nothing, the interposer is built without the heap, and a world
//! spawns each rank in three allocations.
//! The allocator counts per thread, so the tests may run side by side.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gpu_sim::{MemSpace, SimTime};

use mpi_sim::consts::{MPI_BYTE, MPI_FLOAT};
use mpi_sim::datatype::{TypeInfo, TypeTree};
use mpi_sim::{AlltoallvBlock, Datatype, Order, RankCtx, VendorProfile, World, WorldConfig};
use tempi_core::config::{Method, TempiConfig, TunerMode};
use tempi_core::interpose::InterposedMpi;
use tempi_core::{BucketKey, SendModel, TraceLevel, Tracer, Tuner, Workload};
use tempi_stencil::{HaloConfig, HaloExchanger, HaloTypes};

/// The system allocator, counting the allocations each thread asks for.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is the system allocator's, beside a counter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// The allocations `f` makes on this thread.
fn allocs(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn a_subarray_of_up_to_four_dimensions_is_created_without_the_heap() {
    let mut ctx = RankCtx::standalone(&WorldConfig::summit(1));
    let (sizes, subsizes, starts) = ([9, 8, 7, 6], [4, 3, 2, 1], [5, 4, 3, 2]);
    for n in 1..=4 {
        for order in [Order::C, Order::Fortran] {
            let create = |ctx: &mut RankCtx| {
                ctx.type_create_subarray(
                    &sizes[..n],
                    &subsizes[..n],
                    &starts[..n],
                    order,
                    MPI_FLOAT,
                )
            };
            // the first may grow the slot table; its freed slot takes the
            // next
            let dt = create(&mut ctx).unwrap();
            ctx.type_free(dt).unwrap();
            let mut again = None;
            let n_allocs = allocs(|| again = Some(create(&mut ctx).unwrap()));
            assert_eq!(n_allocs, 0, "{n} dimensions, {order:?}");
            ctx.type_free(again.unwrap()).unwrap();
        }
    }
}

#[test]
fn a_type_record_keeps_a_subarrays_dimensions_within_120_bytes() {
    assert!(std::mem::size_of::<TypeInfo>() <= 120);
}

#[test]
fn a_halo_exchanger_is_set_up_in_a_pinned_number_of_allocations() {
    for cfg in [HaloConfig::small(4), HaloConfig::paper()] {
        let mut ctx = RankCtx::standalone(&WorldConfig::summit(1));
        let mut mpi = InterposedMpi::new(TempiConfig::default());
        let mut ex = None;
        let n = allocs(|| ex = Some(HaloExchanger::new(&mut ctx, &mut mpi, cfg).unwrap()));
        // the plans and schedules at their final sizes, the 53 subarrays
        // in their slots, the fused pair's member lists and the three
        // commits: 36 (146 while each subarray allocated twice, 39 while
        // the halo types kept a list of their sizes, 38 while each fused
        // type collected its members in a list of its own)
        assert!(n <= 36, "{cfg:?}: set-up allocated {n} times");
        // the grid is filled where it lies, with no host copy of it (the
        // small grid only: a debug build fills the paper's for seconds)
        if cfg.local == HaloConfig::small(4).local {
            let ex = ex.unwrap();
            let n = allocs(|| ex.fill(&mut ctx).unwrap());
            assert_eq!(n, 0, "{cfg:?}: fill allocated {n} times");
        }
    }
}

#[test]
fn a_recreated_shape_commits_without_the_heap() {
    for spec in [
        "vector(13, 100, 256, byte)",
        "hvector(13, 100, 256, float)",
        "subarray([256, 256], [64, 64], [3, 5], byte)",
        "hvector(47, 1, 65536, hvector(13, 1, 256, contiguous(100, byte)))",
        "indexed_block(2, [8, 0, 4], int)",
        "struct([64, 64, 64], [0, 1024, 2048], [float, float, float])",
        "struct([1, 1], [0, 0], [subarray([8, 8, 8], [4, 4, 2], [2, 2, 4], float), \
         subarray([8, 8, 8], [2, 2, 2], [4, 4, 4], float)])",
        "vector(4, 1, 3, hindexed([2, 1], [0, 16], vector(2, 2, 4, short)))",
    ] {
        let tree: TypeTree = spec.parse().unwrap();
        let mut ctx = RankCtx::standalone(&WorldConfig::summit(1));
        let mut mpi = InterposedMpi::new(TempiConfig::default());
        // the first commit pays MPI for what the named types are, so its
        // report differs; the second is the shape's plan from then on, and
        // stays live
        for _ in 0..2 {
            let dt = tree.build(&mut ctx).unwrap();
            mpi.type_commit(&mut ctx, dt).unwrap();
        }
        let plans = mpi.tempi.interned_plans();
        // re-created types, freed through the library and behind its back:
        // from the second cycle on, each one commits in a slot a commit has
        // used before
        for cycle in 0..4 {
            let dt = tree.build(&mut ctx).unwrap();
            let n = allocs(|| mpi.type_commit(&mut ctx, dt).unwrap());
            assert!(
                cycle == 0 || n == 0,
                "{spec}: cycle {cycle} allocated {n} times"
            );
            assert_eq!(
                mpi.tempi.interned_plans(),
                plans,
                "{spec}: one plan, shared"
            );
            free_all(&mut ctx, &mut mpi, dt, cycle % 2 == 0);
        }
    }
}

#[test]
fn a_warm_cycle_of_a_constructor_with_lists_allocates_nothing() {
    // blockcyclic/512x128@512's and soa/8x2048@65536's lists among them
    let displs: Vec<i32> = (0..512).map(|i| 512 * i).collect();
    let soa = ([2048; 8], [0, 1, 2, 3, 4, 5, 6, 7].map(|i| i << 16));
    type Create<'a> = &'a dyn Fn(&mut RankCtx) -> Datatype;
    let constructors: [(&str, Create); 4] = [
        ("indexed", &|ctx| {
            ctx.type_indexed(&[2, 1, 3], &[0, 4, 9], MPI_FLOAT).unwrap()
        }),
        ("indexed_block", &|ctx| {
            (ctx.type_create_indexed_block(128, &displs, MPI_BYTE)).unwrap()
        }),
        ("hindexed", &|ctx| {
            (ctx.type_create_hindexed(&[2, 1], &[0, 16], MPI_FLOAT)).unwrap()
        }),
        ("struct", &|ctx| {
            (ctx.type_create_struct(&soa.0, &soa.1, &[MPI_BYTE; 8])).unwrap()
        }),
    ];
    for (name, create) in constructors {
        for through_the_library in [true, false] {
            let mut ctx = RankCtx::standalone(&WorldConfig::summit(1));
            let mut mpi = InterposedMpi::new(TempiConfig::default());
            let mut cycle = |ctx: &mut RankCtx| {
                let dt = create(ctx);
                mpi.type_commit(ctx, dt).unwrap();
                match through_the_library {
                    true => mpi.type_free(ctx, dt).unwrap(),
                    false => ctx.type_free(dt).unwrap(),
                }
            };
            // the first commit pays MPI for what the named types are, so
            // its plan differs from the next ones; by the third, the
            // translation has its lists back from a plan
            for _ in 0..3 {
                cycle(&mut ctx);
            }
            for _ in 0..4 {
                let n = allocs(|| cycle(&mut ctx));
                assert_eq!(n, 0, "{name}, through the library: {through_the_library}");
            }
        }
    }
}

/// A thousand warm create → commit → free cycles through the library in
/// one slot allocate nothing, and the registry keeps its size: a handle
/// counts 2^32 generations of its slot, so none of the cycles retires it
/// and grows the table. With 12 more live types the table is full at its
/// 24 slots, so a new slot would reallocate it; while a handle counted
/// 256 generations, the 256th cycle did.
#[test]
fn a_thousand_warm_cycles_in_one_slot_allocate_nothing() {
    let mut ctx = RankCtx::standalone(&WorldConfig::summit(1));
    let mut mpi = InterposedMpi::new(TempiConfig::default());
    let live: Vec<Datatype> = (0..12).map(|_| ctx.type_dup(MPI_BYTE).unwrap()).collect();
    ctx.type_free(live[11]).unwrap();
    let mut cycle = |ctx: &mut RankCtx| {
        let dt = ctx.type_vector(13, 100, 256, MPI_BYTE).unwrap();
        mpi.type_commit(ctx, dt).unwrap();
        mpi.type_free(ctx, dt).unwrap();
    };
    for _ in 0..3 {
        cycle(&mut ctx);
    }
    let slots = ctx.registry().read().slot_count();
    let n = allocs(|| (0..1000).for_each(|_| cycle(&mut ctx)));
    assert_eq!(n, 0, "1,000 warm cycles allocated {n} times");
    assert_eq!(ctx.registry().read().slot_count(), slots);
}

/// Building the interposer allocates nothing: its resolution table is a
/// bit set (one allocation while it was a hash set).
#[test]
fn the_interposer_is_built_without_the_heap() {
    let config = TempiConfig::default();
    let mut mpi = None;
    let n = allocs(|| mpi = Some(InterposedMpi::new(config)));
    assert_eq!(n, 0, "InterposedMpi::new allocated {n} times");
}

/// Spawning a rank allocates three times on the caller's thread: its
/// fiber stack, its boxed body and its GPU memory. The device and cost
/// descriptors are built once per world: while every rank copied both
/// (the device's name included) into fresh `Arc`s, a rank took 6.
#[test]
fn a_world_spawns_each_rank_in_three_allocations() {
    const RANKS: u64 = 64;
    let cfg = WorldConfig::summit(RANKS as usize);
    let n = allocs(|| drop(World::run(&cfg, |_| Ok(())).unwrap()));
    // the world itself takes 17 more, and 3 are to spare
    assert!(
        n <= 3 * RANKS + 20,
        "a {RANKS}-rank world with an empty body allocated {n} times"
    );
}

/// Free `dt`, through the library or behind its back, then the
/// intermediate types its construction left live, so that the next build
/// of the same tree takes the same slots.
fn free_all(ctx: &mut RankCtx, mpi: &mut InterposedMpi, dt: Datatype, through_the_library: bool) {
    if dt.named_index().is_some() {
        return;
    }
    let children = ctx.registry().read().contents(dt).unwrap().datatypes;
    match through_the_library {
        true => mpi.type_free(ctx, dt).unwrap(),
        false => ctx.type_free(dt).unwrap(),
    }
    for child in children {
        free_all(ctx, mpi, child, false);
    }
}

#[test]
fn the_fused_halo_pair_commits_on_a_fresh_library_in_a_few_allocations() {
    let order: Vec<usize> = (0..26).collect();
    for cfg in [HaloConfig::small(4), HaloConfig::paper()] {
        let mut ctx = RankCtx::standalone(&WorldConfig::summit(1));
        let types = HaloTypes::create(&mut ctx, &cfg, &order, &order).unwrap();
        let mut mpi = InterposedMpi::new(TempiConfig::default());
        let send = allocs(|| mpi.type_commit(&mut ctx, types.fused_send).unwrap());
        let recv = allocs(|| mpi.type_commit(&mut ctx, types.fused_recv).unwrap());
        // the first grows the translation's storage once; the second
        // allocates only the plan it keeps: the member list and its handle
        assert!(
            send <= 16,
            "{cfg:?}: the send type's commit allocated {send} times"
        );
        assert!(
            recv <= 2,
            "{cfg:?}: the receive type's commit allocated {recv} times"
        );
    }
}

/// Commit 10,000 distinct shapes beside a few live types and free each,
/// through the library or behind its back: the intern table never holds
/// more plans than types hold slots, and those are the live types and at
/// most as many dead ones. Past the first shapes, each new shape's plan
/// takes a dead plan's storage, so the commits allocate nothing.
fn distinct_shapes_leave_no_plan_behind(through_the_library: bool) {
    let mut ctx = RankCtx::standalone(&WorldConfig::summit(1));
    let mut mpi = InterposedMpi::new(TempiConfig::default());
    let live = [4, 8, 16].map(|n| ctx.type_vector(n, 1, 2, MPI_BYTE).unwrap());
    for &dt in &live {
        mpi.type_commit(&mut ctx, dt).unwrap();
    }
    // a free behind the library's back leaves the dead type's plan until
    // its slot's next commit, and MPI retires a slot after 256 occupants:
    // those are swept before the table grows, never more than it has room
    let most = match through_the_library {
        true => live.len() + 1,
        false => 2 * (live.len() + 1),
    };
    for k in 0..10_000 {
        let dt = ctx.type_vector(2, 1, 3 + k, MPI_BYTE).unwrap();
        let n = allocs(|| mpi.type_commit(&mut ctx, dt).unwrap());
        // the tables and the spares grow to their size over the first
        // sweeps; from then on a new shape's plan is a dead one's storage
        assert!(
            k < 2_048 || n == 0,
            "shape {k}: the commit allocated {n} times"
        );
        let (plans, held) = (mpi.tempi.interned_plans(), mpi.tempi.cached_plans());
        assert!(
            plans <= held && held <= most,
            "shape {k}: {plans} plans, {held} held"
        );
        match through_the_library {
            true => mpi.type_free(&mut ctx, dt).unwrap(),
            false => ctx.type_free(dt).unwrap(),
        }
    }
    if through_the_library {
        assert_eq!(mpi.tempi.cached_plans(), live.len());
        assert_eq!(mpi.tempi.interned_plans(), live.len());
    }
}

#[test]
fn distinct_shapes_freed_through_the_library_leave_no_plan_behind() {
    distinct_shapes_leave_no_plan_behind(true);
}

#[test]
fn distinct_shapes_freed_behind_its_back_leave_no_plan_behind() {
    distinct_shapes_leave_no_plan_behind(false);
}

/// The system MPI's `MPI_Pack` and `MPI_Unpack` of a vector, a 3-D
/// subarray and an hindexed type, on device buffers (every vendor's
/// baseline: MVAPICH's vector kernel and copy-per-block) and on host
/// buffers (the CPU pack): after one warm-up call, neither allocates.
#[test]
fn the_system_mpi_packs_and_unpacks_a_warm_type_without_the_heap() {
    for vendor in VendorProfile::all() {
        let label = vendor.id.label();
        let mut ctx = RankCtx::standalone(&WorldConfig {
            vendor,
            ..WorldConfig::summit(1)
        });
        for spec in [
            "vector(13, 100, 256, byte)",
            "subarray([16, 16, 16], [4, 5, 6], [1, 2, 3], float)",
            "hindexed([3, 5, 2], [40, 0, 200], int)",
        ] {
            let dt = spec.parse::<TypeTree>().unwrap().build(&mut ctx).unwrap();
            ctx.type_commit_native(dt).unwrap();
            let attrs = ctx.attrs(dt).unwrap();
            let (span, size) = (attrs.true_ub as usize, attrs.size as usize);
            for space in [MemSpace::Device, MemSpace::Host] {
                let alloc = |ctx: &RankCtx, n| match space {
                    MemSpace::Device => ctx.gpu.malloc(n).unwrap(),
                    _ => ctx.gpu.host_alloc(n).unwrap(),
                };
                let (typed, packed) = (alloc(&ctx, span), alloc(&ctx, size));
                for warm in [false, true] {
                    let pack = allocs(|| {
                        (ctx.pack(typed, 1, dt, packed, size, &mut 0)).unwrap();
                    });
                    let unpack = allocs(|| {
                        (ctx.unpack(packed, size, &mut 0, typed, 1, dt)).unwrap();
                    });
                    assert!(
                        !warm || (pack, unpack) == (0, 0),
                        "{label}, {spec}, {space:?}: pack {pack}, unpack {unpack} allocations"
                    );
                }
            }
        }
    }
}

#[test]
fn a_warm_tuner_decides_without_the_heap_in_every_mode() {
    let model = SendModel::summit_internode();
    let (bytes, block) = (1 << 20, 64);
    let (key, wl) = (
        BucketKey::new(1, block, bytes, false),
        Workload {
            bytes,
            block,
            word: 4,
        },
    );
    for mode in [TunerMode::Off, TunerMode::Model, TunerMode::Online] {
        let mut tuner = Tuner::new(mode, 42);
        // 100 ms apart: a re-probe falls due every third visit, and
        // ε-probes land between them
        let mut choose =
            |i: u64| tuner.choose(key, wl, &model, &Method::LADDER, SimTime::from_ms(100 * i));
        choose(0);
        let mut probes = 0;
        let n_allocs = allocs(|| (1..=512).for_each(|i| probes += choose(i).probe as u32));
        assert_eq!(n_allocs, 0, "{mode:?}");
        assert_eq!(
            probes > 0,
            mode == TunerMode::Online,
            "{mode:?}: {probes} probes"
        );
        assert_eq!(
            tuner.bucket_count(),
            (mode != TunerMode::Off) as usize,
            "{mode:?}"
        );
    }
}

#[test]
fn a_warm_metric_records_without_the_heap() {
    let tracer = Tracer::new(TraceLevel::Full);
    let record = |i: u64| {
        tracer.observe("tempi.send.bytes", 4096 * i);
        tracer.count("tempi.sends", 1);
    };
    // the first of each inserts its metric
    record(0);
    let n_allocs = allocs(|| (1..=256).for_each(record));
    assert_eq!(n_allocs, 0);
    let metrics = tracer.metrics();
    assert_eq!(metrics.histogram("tempi.send.bytes").unwrap().count, 257);
    assert_eq!(metrics.counter("tempi.sends"), 257);
}

/// A message of at most 64 bytes travels in the message itself: once the
/// world's store has a free slot, sending and receiving every length up
/// to 64 takes no buffer. While such payloads came from the free list,
/// each new capacity class allocated. A warm typed send of a
/// non-contiguous host type, and a warm train, take none either.
#[test]
fn a_message_of_at_most_64_bytes_travels_without_the_heap() {
    let mut ctx = RankCtx::standalone(&WorldConfig::summit(1));
    let (from, to) = (
        ctx.gpu.host_alloc(64).unwrap(),
        ctx.gpu.host_alloc(64).unwrap(),
    );
    ctx.send_bytes(from, 1, 0, 0).unwrap();
    ctx.recv_bytes(to, 1, Some(0), Some(0)).unwrap();
    let n_allocs = allocs(|| {
        for len in 0..=64 {
            ctx.send_bytes(from, len, 0, 0).unwrap();
            ctx.recv_bytes(to, len, Some(0), Some(0)).unwrap();
        }
    });
    assert_eq!(n_allocs, 0);
    // the system MPI's typed send and receive of a non-contiguous host
    // type, and a train landed by the one-message receive: each gathers
    // and scatters its regions straight between the buffer and the payload
    let strided = ctx.type_vector(4, 8, 16, MPI_BYTE).unwrap();
    ctx.type_commit_native(strided).unwrap();
    let runs = |sink: &mut dyn FnMut(i64)| (0..8).for_each(|k| sink(8 * k));
    let warm = |ctx: &mut RankCtx, typed: bool| match typed {
        true => {
            ctx.send(from, 1, strided, 0, 1).unwrap();
            ctx.recv(to, 1, strided, Some(0), Some(1)).unwrap();
        }
        false => {
            ctx.send_bytes_runs(from, (4, 8), 0, 2, runs).unwrap();
            ctx.recv_bytes_runs(to, (4, 32), Some(0), Some(2), runs)
                .unwrap();
        }
    };
    for typed in [true, false] {
        warm(&mut ctx, typed);
        let n_allocs = allocs(|| warm(&mut ctx, typed));
        assert_eq!(n_allocs, 0, "typed: {typed}");
    }
}

/// A warm 26-peer sparse `alltoallv` on a 64-rank 4×4×4 torus allocates
/// nothing: payloads come from the free list or the rank's spare, and
/// unexpected messages wait in the inbox they arrived in. The faces, edges
/// and corners of a halo are 512, 128 and 32 bytes, three capacity
/// classes. Before the inbox was the rank's one unexpected-message queue,
/// and while a 128-byte spare could carry a 32-byte corner, this call made
/// 30 allocations.
#[test]
fn a_warm_sparse_alltoallv_on_a_torus_moves_its_messages_without_the_heap() {
    const SIDE: usize = 4;
    let counted = World::run(&WorldConfig::summit(SIDE.pow(3)), |ctx| {
        let at = |r: usize, d: usize| (r / SIDE.pow(d as u32)) % SIDE;
        let mut blocks: Vec<AlltoallvBlock> = (0..27)
            .filter(|&dir| dir != 13)
            .map(|dir| {
                let step = |d: usize| (dir / 3usize.pow(d as u32)) % 3;
                let peer = (0..3)
                    .map(|d| (at(ctx.rank, d) + SIDE - 1 + step(d)) % SIDE * SIDE.pow(d as u32))
                    .sum();
                let axes = (0..3).filter(|&d| step(d) != 1).count();
                let count = 2048 >> (2 * axes);
                AlltoallvBlock {
                    peer,
                    count,
                    displ: 0,
                }
            })
            .collect();
        blocks.sort_by_key(|b| b.peer);
        let mut end = 0;
        for b in &mut blocks {
            (b.displ, end) = (end, end + b.count);
        }
        let (send, recv) = (ctx.gpu.malloc(end)?, ctx.gpu.malloc(end)?);
        // the warm-up enters without a barrier, as a timed loop's first
        // exchange does
        ctx.alltoallv_sparse_bytes(send, &blocks, recv, &blocks)?;
        ctx.barrier();
        let before = ALLOCS.with(Cell::get);
        ctx.barrier();
        ctx.alltoallv_sparse_bytes(send, &blocks, recv, &blocks)?;
        ctx.barrier();
        // every fiber runs on the world's one worker thread
        Ok(ALLOCS.with(Cell::get) - before)
    })
    .unwrap();
    assert_eq!(
        counted[0], 0,
        "the warm alltoallv allocated {} times",
        counted[0]
    );
}

/// A warm dense `alltoallv` of 64 bytes between every pair of 64 ranks
/// allocates nothing: its payloads travel inline, and the messages its
/// window keeps in flight wait in slots the warm-up left free. While each
/// rank queued its unexpected messages in a growable queue of its own,
/// the call allocated.
#[test]
fn a_warm_dense_alltoallv_moves_its_messages_without_the_heap() {
    const RANKS: usize = 64;
    const CHUNK: usize = 64;
    let counted = World::run(&WorldConfig::summit(RANKS), |ctx| {
        let (send, recv) = (
            ctx.gpu.malloc(CHUNK * RANKS)?,
            ctx.gpu.malloc(CHUNK * RANKS)?,
        );
        let counts = vec![CHUNK; RANKS];
        let displs: Vec<usize> = (0..RANKS).map(|j| j * CHUNK).collect();
        // the warm-up enters without a barrier, as a timed loop's first
        // exchange does
        ctx.alltoallv_bytes(send, &counts, &displs, recv, &counts, &displs)?;
        ctx.barrier();
        let before = ALLOCS.with(Cell::get);
        ctx.barrier();
        ctx.alltoallv_bytes(send, &counts, &displs, recv, &counts, &displs)?;
        ctx.barrier();
        // every fiber runs on the world's one worker thread
        Ok(ALLOCS.with(Cell::get) - before)
    })
    .unwrap();
    assert_eq!(
        counted[0], 0,
        "the warm alltoallv allocated {} times",
        counted[0]
    );
}
