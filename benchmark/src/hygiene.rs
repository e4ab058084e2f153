//! Environment hygiene: what must hold before a number is taken, as code.
//!
//! Ambient settings must not move a metric, so every `TEMPI_*` variable is
//! removed at start-up; the process pins itself to one CPU so the single
//! scheduler worker, the main thread and the probes share one cache and one
//! run queue; glibc's malloc is told to keep its mmap threshold fixed,
//! because with the default (a threshold that drifts with the history of
//! frees) the same run read 55 or 73 MiB of `VmHWM` from one start to the
//! next; and the machine facts a reader needs beside a host
//! number (CPUs, pinned CPU, L2 size, roofline buffer size) go in the run
//! header.

use std::fs;

extern "C" {
    // Declared by hand: the benchmark takes no `libc` crate. Signatures
    // are those of glibc/musl on Linux.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

#[cfg(target_env = "gnu")]
extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// `M_MMAP_THRESHOLD` of glibc's `<malloc.h>`.
#[cfg(target_env = "gnu")]
const M_MMAP_THRESHOLD: i32 = -3;

/// Allocations of at least this many bytes are mapped and unmapped on
/// their own: glibc's initial value, made permanent.
#[cfg(target_env = "gnu")]
const MMAP_THRESHOLD: i32 = 128 << 10;

/// Make resident memory a function of what is live, not of the order of
/// earlier frees: setting the threshold also stops glibc from raising it
/// whenever a mapped block is freed. Returns whether the allocator took
/// the setting. (One arena would steady it too, but puts every fiber
/// stack on the main heap and more than doubles what a 1,024-rank world
/// keeps resident, so it would no longer be what a user pays.)
fn steady_malloc() -> bool {
    #[cfg(target_env = "gnu")]
    {
        // SAFETY: `mallopt` only stores the tunable; it is called before
        // any other thread exists.
        unsafe { mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1 }
    }
    #[cfg(not(target_env = "gnu"))]
    false
}

/// 1,024 CPUs, the kernel's default `CONFIG_NR_CPUS` ceiling on x86-64.
const MASK_WORDS: usize = 16;

/// Machine facts printed in the run header.
#[derive(Debug, Clone)]
pub struct Machine {
    /// CPUs the process could use before pinning.
    pub nproc: usize,
    /// The CPU the process pinned itself to, if pinning worked.
    pub pinned_cpu: Option<usize>,
    /// L2 size of that CPU in KiB (0 when sysfs does not say).
    pub l2_kib: usize,
    /// `TEMPI_*` variables that were set and have been removed.
    pub scrubbed: Vec<String>,
    /// Did the allocator accept the fixed mmap threshold?
    pub steady_malloc: bool,
}

/// Bytes of each of the two buffers the memcpy roofline probe streams
/// through: sixteen times a 2 MiB L2, so the copy runs from memory.
pub const ROOFLINE_BYTES: usize = 32 << 20;

/// Remove every `TEMPI_*` variable. Call before any thread is spawned.
fn scrub_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("TEMPI_"))
        .collect();
    for n in &names {
        std::env::remove_var(n);
    }
    names
}

/// Pin the whole process to the highest-numbered CPU it may run on (CPU 0
/// takes most interrupts). Threads spawned later inherit the mask.
fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of the size passed; pid 0
    // names the calling thread.
    let rc = unsafe { sched_getaffinity(0, size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return None;
    }
    let cpu = (0..MASK_WORDS * 64)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of the size passed and is only read.
    let rc = unsafe { sched_setaffinity(0, size_of_val(&one), one.as_ptr()) };
    (rc == 0).then_some(cpu)
}

fn l2_kib(cpu: usize) -> usize {
    let dir = format!("/sys/devices/system/cpu/cpu{cpu}/cache");
    (0..8)
        .find(|i| {
            fs::read_to_string(format!("{dir}/index{i}/level")).is_ok_and(|l| l.trim() == "2")
        })
        .and_then(|i| fs::read_to_string(format!("{dir}/index{i}/size")).ok())
        .and_then(|s| s.trim().trim_end_matches('K').parse().ok())
        .unwrap_or(0)
}

/// Apply the hygiene rules; call first thing in `main`.
pub fn enter() -> Machine {
    let scrubbed = scrub_env();
    let steady_malloc = steady_malloc();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pinned_cpu = pin_to_one_cpu();
    Machine {
        nproc,
        pinned_cpu,
        l2_kib: l2_kib(pinned_cpu.unwrap_or(0)),
        scrubbed,
        steady_malloc,
    }
}

impl Machine {
    /// The one-line run header.
    pub fn header(&self) -> String {
        format!(
            "nproc={} pinned_cpu={} l2_kib={} roofline_buffer_mib={} sched_workers=1 steady_malloc={} scrubbed_env=[{}]",
            self.nproc,
            self.pinned_cpu
                .map_or("none".to_string(), |c| c.to_string()),
            self.l2_kib,
            ROOFLINE_BYTES >> 20,
            self.steady_malloc,
            self.scrubbed.join(","),
        )
    }
}

/// A `kB` field of `/proc/self/status`, such as `VmHWM:` or `VmRSS:`.
fn proc_status_kib(field: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The process's resident-set high-water mark in KiB.
pub fn vm_hwm_kib() -> Option<u64> {
    proc_status_kib("VmHWM:")
}

/// Reset the resident-set high-water mark to the resident set of this
/// moment, so that what is read later is the peak since now. Returns
/// whether the kernel took it (Linux 4.0 and later do).
pub fn reset_vm_hwm() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The process's resident set right now, in KiB.
pub fn vm_rss_kib() -> Option<u64> {
    proc_status_kib("VmRSS:")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_readable_and_positive() {
        assert!(vm_hwm_kib().expect("Linux /proc/self/status has VmHWM") > 0);
    }

    #[test]
    fn resetting_the_high_water_mark_forgets_an_earlier_peak() {
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        drop(big);
        let before = vm_hwm_kib().unwrap();
        assert!(before >= 64 << 10);
        if reset_vm_hwm() {
            // other tests run beside this one, but none holds 32 MiB
            assert!(vm_hwm_kib().unwrap() < before - (32 << 10));
        }
    }

    #[test]
    fn header_names_every_fact() {
        let m = Machine {
            nproc: 2,
            pinned_cpu: Some(1),
            l2_kib: 2048,
            scrubbed: vec!["TEMPI_TUNER".into()],
            steady_malloc: true,
        };
        let h = m.header();
        for part in [
            "nproc=2",
            "pinned_cpu=1",
            "l2_kib=2048",
            "roofline_buffer_mib=32",
            "TEMPI_TUNER",
        ] {
            assert!(h.contains(part), "{h}");
        }
    }
}
