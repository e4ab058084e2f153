//! The counting `#[global_allocator]`: the benchmark's deterministic
//! stand-in for host cost.
//!
//! Every `alloc`, `alloc_zeroed` and `realloc` on any thread bumps a call
//! counter and a requested-bytes counter, and live bytes are tracked so the
//! peak is known. With one scheduler worker the library's allocation
//! sequence is a function of its inputs, so two runs of one seed read the
//! same counts — which the host clock never does on this box.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Wraps the system allocator; install with `#[global_allocator]`.
pub struct Counting;

// Statistics only: no other data is published through these, so Relaxed.
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grew(by: u64) {
    let live = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed through as received.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            CALLS.fetch_add(1, Relaxed);
            BYTES.fetch_add(layout.size() as u64, Relaxed);
            grew(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            CALLS.fetch_add(1, Relaxed);
            BYTES.fetch_add(layout.size() as u64, Relaxed);
            grew(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.fetch_add(1, Relaxed);
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        // SAFETY: `ptr` came from this allocator with this `layout`, which
        // means from `System` with the same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as in `dealloc`; `new_size` is passed through as received.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            CALLS.fetch_add(1, Relaxed);
            BYTES.fetch_add(new_size as u64, Relaxed);
            LIVE.fetch_sub(layout.size() as u64, Relaxed);
            grew(new_size as u64);
        }
        p
    }
}

/// The counters at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// `alloc` + `alloc_zeroed` + `realloc` calls so far.
    pub calls: u64,
    /// Bytes those calls requested.
    pub bytes: u64,
    /// `dealloc` calls so far.
    pub frees: u64,
    /// Bytes live now.
    pub live: u64,
    /// Most bytes ever live at once.
    pub peak: u64,
}

impl Snapshot {
    /// Read the counters now.
    pub fn now() -> Snapshot {
        Snapshot {
            calls: CALLS.load(Relaxed),
            bytes: BYTES.load(Relaxed),
            frees: FREES.load(Relaxed),
            live: LIVE.load(Relaxed),
            peak: PEAK.load(Relaxed),
        }
    }

    /// Calls and bytes between `earlier` and `self`.
    pub fn since(&self, earlier: &Snapshot) -> (u64, u64) {
        (self.calls - earlier.calls, self.bytes - earlier.bytes)
    }
}

/// Forget the peak so far: a later snapshot's `peak` is the most bytes
/// live at once since now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Allocation calls and bytes `f` causes on all threads.
pub fn count<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = Snapshot::now();
    let out = f();
    let (calls, bytes) = Snapshot::now().since(&before);
    (out, calls, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    // The test binary installs the allocator too (see main.rs); tests run
    // on parallel threads, so these assert lower bounds on shared counters
    // and exact values only on what one thread alone can observe.

    #[test]
    fn alloc_realloc_and_free_are_counted() {
        let before = Snapshot::now();
        let mut v: Vec<u8> = Vec::with_capacity(1000);
        v.extend_from_slice(&[1; 1000]);
        v.reserve_exact(3000); // realloc
        black_box(&v);
        let mid = Snapshot::now();
        let (calls, bytes) = mid.since(&before);
        assert!(calls >= 2, "alloc + realloc, got {calls}");
        assert!(bytes >= 1000 + 4000, "requested bytes, got {bytes}");
        drop(v);
        assert!(Snapshot::now().frees > before.frees);
    }

    #[test]
    fn peak_covers_a_large_transient_allocation() {
        let big = vec![0u8; 8 << 20];
        black_box(&big);
        drop(big);
        let s = Snapshot::now();
        assert!(s.peak >= 8 << 20, "peak {} below the 8 MiB buffer", s.peak);
    }
}
