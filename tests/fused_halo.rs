//! The committed plan of the fused halo datatypes: a list of strided
//! members — one allocation, a CUDA kernel's 4 KiB of parameters at most —
//! at every subdomain size, and a pack / unpack through it that touches the
//! heap not at all. This binary holds the one test, so nothing else
//! allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use mpi_sim::{RankCtx, WorldConfig};
use tempi_core::config::TempiConfig;
use tempi_core::interpose::InterposedMpi;
use tempi_core::ir::strided_block::Member;
use tempi_core::PlanKind;
use tempi_stencil::{HaloConfig, HaloExchanger, HaloTypes};

/// The system allocator, counting the allocations it serves.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is the system allocator's, beside a counter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

#[test]
fn the_fused_halo_plan_is_one_small_allocation_and_packs_without_the_heap() {
    let order: Vec<usize> = (0..26).collect();
    let mut commit_allocs = Vec::new();
    for cfg in [
        HaloConfig::small(4),
        HaloConfig::small(32),
        HaloConfig::paper(),
    ] {
        // types and plans only: the paper's grid is half a gigabyte
        let mut ctx = RankCtx::standalone(&WorldConfig::summit(1));
        let mut mpi = InterposedMpi::new(TempiConfig::default());
        let types = HaloTypes::create(&mut ctx, &cfg, &order, &order).unwrap();
        for (fused, regions) in [
            (types.fused_send, &types.send),
            (types.fused_recv, &types.recv),
        ] {
            let before = ALLOCS.load(Relaxed);
            mpi.type_commit(&mut ctx, fused).unwrap();
            commit_allocs.push(ALLOCS.load(Relaxed) - before);
            let plan = mpi.tempi.plan(fused).unwrap();
            let PlanKind::Multi(members) = &plan.kind else {
                panic!("{cfg:?}: committed to {:?}", plan.kind);
            };
            assert_eq!(members.len(), 26);
            assert_eq!(members.capacity(), 26, "the list is allocated once");
            assert!(std::mem::size_of_val(&members[..]) <= 4096);
            // every member is its region's own canonical strided block
            for (m, &region) in members.iter().zip(regions) {
                mpi.type_commit(&mut ctx, region).unwrap();
                let PlanKind::Strided(kp) = &mpi.tempi.plan(region).unwrap().kind else {
                    panic!("a halo region is a strided block");
                };
                let n = m.ndims as usize;
                assert_eq!(
                    (m.start, &m.counts[..n], &m.strides[..n]),
                    (kp.sb.start, &kp.sb.counts[..], &kp.sb.strides[..])
                );
                assert!(m.word as usize <= kp.word);
            }
        }
        assert!(std::mem::size_of::<Member>() * 26 <= 2200);
    }
    // what a commit allocates does not grow with the subdomain: the same
    // counts, a rank's first commit and its second, at 4³, 32³ and 512³
    let (small, larger) = commit_allocs.split_at(2);
    assert_eq!([small, small].concat(), larger);

    for n in [4, 32] {
        let mut ctx = RankCtx::standalone(&WorldConfig::summit(1));
        let mut mpi = InterposedMpi::new(TempiConfig::default());
        let ex = HaloExchanger::new(&mut ctx, &mut mpi, HaloConfig::small(n)).unwrap();
        ex.fill(&mut ctx).unwrap();
        let size = ex.send_bytes();
        let packed = ctx.gpu.malloc(size).unwrap();
        let (send, recv) = (ex.types.fused_send, ex.types.fused_recv);
        let before = ALLOCS.load(Relaxed);
        mpi.pack(&mut ctx, ex.grid, 1, send, packed, size, &mut 0)
            .unwrap();
        mpi.unpack(&mut ctx, packed, size, &mut 0, ex.grid, 1, recv)
            .unwrap();
        assert_eq!(ALLOCS.load(Relaxed) - before, 0, "n = {n}");
    }
}
