//! What a rank's fiber costs in memory, and what happens at its edge: a
//! stack of 80 KiB whose lowest page is a guard, so a rank may use three
//! quarters of it, a rank that overruns it dies of a memory fault between
//! half the stack and all of it, and spawning a world costs the stacks and
//! little more (80 to 84 KiB a rank). The size is measured: at least 2.5
//! times the deepest stack a debug test run uses and 10 times the deepest
//! a release workload uses, and no input can make a rank's stack grow, as
//! no walk over a datatype recurses (see `tests/deep_types.rs`, which also
//! checks the debug half). Allocations are counted per thread, so tests
//! running beside each other do not see one another's.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use common::descend;
use mpi_sim::{World, WorldConfig};

/// The system allocator, counting what it serves to each thread.
struct Counting;

thread_local! {
    /// Allocations and bytes this thread has asked for.
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// This thread's `(allocations, bytes)` so far.
fn counts() -> (u64, u64) {
    COUNTS.with(Cell::get)
}

// SAFETY: every call is the system allocator's, beside a counter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = COUNTS.try_with(|c| {
            let (n, bytes) = c.get();
            c.set((n + 1, bytes + layout.size() as u64));
        });
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Rank 0 recurses until it has used `want` bytes of its stack.
fn deep_rank(want: usize, at: fn(usize)) -> Vec<usize> {
    World::run(&WorldConfig::summit(2), |ctx| {
        let top = 0u8;
        Ok(if ctx.rank == 0 {
            descend(&top as *const u8 as usize, want, at, &mut || {})
        } else {
            0
        })
    })
    .expect("a world of one deep rank")
}

#[test]
fn a_rank_can_use_60_kib_of_its_stack() {
    let frames = deep_rank(60 << 10, |_| {})[0];
    assert!(frames >= 2, "{frames} frames");
}

/// Recurses without bound on a rank, printing each frame's depth. Run only
/// as a child process, by
/// `a_rank_that_overflows_its_stack_dies_of_a_fault_at_the_guard_page`.
#[cfg(all(unix, any(target_arch = "x86_64", target_arch = "aarch64")))]
#[test]
#[ignore = "overflows a fiber stack on purpose; run as a child process"]
fn overflowing_rank() {
    deep_rank(usize::MAX, |used| eprintln!("{used}"));
}

#[cfg(all(unix, any(target_arch = "x86_64", target_arch = "aarch64")))]
#[test]
fn a_rank_that_overflows_its_stack_dies_of_a_fault_at_the_guard_page() {
    use std::os::unix::process::ExitStatusExt;
    use std::process::Command;

    const SIGSEGV: i32 = 11;
    #[cfg(target_vendor = "apple")]
    const SIGBUS: i32 = 10;
    #[cfg(not(target_vendor = "apple"))]
    const SIGBUS: i32 = 7;

    let exe = std::env::current_exe().expect("the test binary's path");
    let out = Command::new(exe)
        .args(["--ignored", "--exact", "overflowing_rank"])
        .args(["--nocapture", "--test-threads=1"])
        .output()
        .expect("the test binary runs as a child");
    let stderr = String::from_utf8_lossy(&out.stderr);
    // Never a clean exit, and never SIGABRT: an abort would be something
    // noticing the overflow after it had written over memory.
    assert!(
        matches!(out.status.signal(), Some(SIGSEGV | SIGBUS)),
        "the overflowing rank ended with {:?}; stderr:\n{stderr}",
        out.status
    );
    // And the fault came at the guard, not after the rank wrote past it.
    let deepest = stderr.lines().filter_map(|l| l.parse::<usize>().ok()).max();
    assert!(
        deepest.is_some_and(|d| d > 40 << 10 && d < 80 << 10),
        "deepest frame before the fault: {deepest:?} bytes"
    );
}

#[test]
fn spawning_a_rank_allocates_its_stack_and_little_more() {
    // The calling thread builds the world and arms every stack before the
    // worker starts, so its count is what spawning costs.
    let before = counts().1;
    World::run(&WorldConfig::summit(64), |_| Ok(())).expect("an empty world");
    let kib_per_rank = (counts().1 - before) as f64 / 1024.0 / 64.0;
    assert!(kib_per_rank >= 80.0, "{kib_per_rank:.1} KiB: a stack is 80");
    assert!(kib_per_rank <= 84.0, "{kib_per_rank:.1} KiB per rank");
}

#[test]
fn a_warm_barrier_allocates_nothing() {
    // One worker runs every rank, so its thread's count covers all of them
    // between a rank's two reads, and nothing but barriers runs there.
    let allocs = World::run(&WorldConfig::summit(64), |ctx| {
        for _ in 0..3 {
            ctx.barrier();
        }
        let before = counts().0;
        for _ in 0..100 {
            ctx.barrier();
        }
        let allocs = counts().0 - before;
        ctx.barrier();
        Ok(allocs)
    })
    .expect("a world of barriers");
    assert!(allocs.iter().all(|&n| n == 0), "{allocs:?}");
}
