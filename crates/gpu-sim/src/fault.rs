//! Deterministic fault injection for the simulated GPU runtime.
//!
//! A [`GpuFaultInjector`] decides, per call site, whether a given GPU
//! operation fails. Decisions are pure functions of a configured seed, the
//! site, and that site's call ordinal — no wall clock and no global RNG —
//! so a fault schedule replays identically run after run.
//!
//! The injector is installed on a [`crate::Memory`] (and therefore shared
//! by every clone of the owning [`crate::GpuContext`] and every
//! [`crate::Stream`] bound to it). When no injector is installed, each
//! hook is a single `Option` check and the simulator behaves exactly as it
//! did before fault injection existed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tempi_trace::json::{self, FromJson, ToJson, Value};

/// SplitMix64: mix `x` into a uniformly distributed 64-bit value.
///
/// Small, seedable and stateless — the deterministic coin the injector
/// flips instead of a global RNG.
#[inline]
#[must_use]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Map a 64-bit hash to a uniform `f64` in `[0, 1)`.
#[inline]
fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// When one injection site fires: a per-call probability, an explicit list
/// of scripted call ordinals, or both.
///
/// Serializable so higher layers (the chaos engine) can persist and replay
/// minimized fault plans byte-for-byte.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SiteSpec {
    /// Probability in `[0, 1]` that any given call at this site fails.
    pub probability: f64,
    /// Call ordinals (0-based, counted per site) that always fail,
    /// independent of `probability`.
    pub at_calls: Vec<u64>,
}

impl ToJson for SiteSpec {
    fn to_json(&self) -> Value {
        Value::object([
            ("probability", self.probability.to_json()),
            ("at_calls", self.at_calls.to_json()),
        ])
    }
}

/// A missing field reads as its default: a sparse spec never fires.
impl FromJson for SiteSpec {
    fn from_json(v: &Value) -> Result<SiteSpec, json::Error> {
        Ok(SiteSpec {
            probability: v.field_or_default("probability")?,
            at_calls: v.field_or_default("at_calls")?,
        })
    }
}

impl SiteSpec {
    /// A site that never fires (the default).
    #[must_use]
    pub fn never() -> Self {
        SiteSpec::default()
    }

    /// Fire on each call with probability `p`.
    #[must_use]
    pub fn with_probability(p: f64) -> Self {
        SiteSpec {
            probability: p,
            at_calls: Vec::new(),
        }
    }

    /// Fire exactly on the given 0-based call ordinals.
    #[must_use]
    pub fn at(calls: &[u64]) -> Self {
        SiteSpec {
            probability: 0.0,
            at_calls: calls.to_vec(),
        }
    }

    /// Does this spec ever fire?
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.probability > 0.0 || !self.at_calls.is_empty()
    }

    /// Deterministic decision for call ordinal `n` under `seed` and the
    /// site's `salt`. Public so higher layers (the MPI fault plan) flip
    /// the same coin for their own sites.
    pub fn decide(&self, seed: u64, salt: u64, n: u64) -> bool {
        if self.at_calls.contains(&n) {
            return true;
        }
        self.probability > 0.0
            && unit_f64(splitmix64(seed ^ salt ^ splitmix64(n))) < self.probability
    }
}

/// The GPU operations a fault can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GpuFaultSite {
    /// Device allocation: fires as [`crate::GpuError::OutOfMemory`].
    AllocOom,
    /// Kernel launch: fires as [`crate::GpuError::StreamFault`].
    KernelFault,
    /// Async copy (1-D, 2-D or 3-D): fires as
    /// [`crate::GpuError::StreamFault`].
    CopyFault,
}

/// Full fault configuration for one simulated GPU.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GpuFaultSpec {
    /// Seed mixed into every probabilistic decision.
    pub seed: u64,
    /// Device-allocation out-of-memory site.
    pub alloc_oom: SiteSpec,
    /// Kernel-launch failure site.
    pub kernel_fault: SiteSpec,
    /// Async-copy failure site.
    pub copy_fault: SiteSpec,
}

impl GpuFaultSpec {
    /// Does any site ever fire?
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.alloc_oom.is_active() || self.kernel_fault.is_active() || self.copy_fault.is_active()
    }
}

/// Per-device injector: a [`GpuFaultSpec`] plus per-site call counters.
///
/// Shared via `Arc` between the memory system and the streams of one
/// simulated device. Counters are atomics only because [`crate::Memory`]
/// sits behind a mutex shared across context clones; the simulator drives
/// each rank single-threaded, so call ordinals — and therefore every
/// decision — are deterministic.
#[derive(Debug)]
pub struct GpuFaultInjector {
    spec: GpuFaultSpec,
    calls: [AtomicU64; 3],
    injected: [AtomicU64; 3],
}

impl GpuFaultInjector {
    /// Per-site hash salts so the same ordinal at different sites draws
    /// independent coins.
    const SALTS: [u64; 3] = [
        0x616c_6c6f_635f_6f6d, // "alloc_om"
        0x6b65_726e_5f66_6c74, // "kern_flt"
        0x636f_7079_5f66_6c74, // "copy_flt"
    ];

    /// Build a shareable injector from a spec.
    #[must_use]
    pub fn new(spec: GpuFaultSpec) -> Arc<Self> {
        Arc::new(GpuFaultInjector {
            spec,
            calls: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
            injected: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
        })
    }

    fn idx(site: GpuFaultSite) -> usize {
        match site {
            GpuFaultSite::AllocOom => 0,
            GpuFaultSite::KernelFault => 1,
            GpuFaultSite::CopyFault => 2,
        }
    }

    fn site_spec(&self, site: GpuFaultSite) -> &SiteSpec {
        match site {
            GpuFaultSite::AllocOom => &self.spec.alloc_oom,
            GpuFaultSite::KernelFault => &self.spec.kernel_fault,
            GpuFaultSite::CopyFault => &self.spec.copy_fault,
        }
    }

    /// Record one call at `site` and decide whether it fails.
    ///
    /// Inactive sites return `false` without consuming an ordinal, so
    /// enabling one site does not shift another site's schedule.
    pub fn should_fail(&self, site: GpuFaultSite) -> bool {
        let spec = self.site_spec(site);
        if !spec.is_active() {
            return false;
        }
        let i = Self::idx(site);
        let n = self.calls[i].fetch_add(1, Ordering::Relaxed);
        let fire = spec.decide(self.spec.seed, Self::SALTS[i], n);
        if fire {
            self.injected[i].fetch_add(1, Ordering::Relaxed);
        }
        fire
    }

    /// Calls observed at `site` so far (counted only while the site is
    /// active).
    pub fn calls(&self, site: GpuFaultSite) -> u64 {
        self.calls[Self::idx(site)].load(Ordering::Relaxed)
    }

    /// Faults injected at `site` so far.
    pub fn injected(&self, site: GpuFaultSite) -> u64 {
        self.injected[Self::idx(site)].load(Ordering::Relaxed)
    }

    /// The spec this injector runs.
    pub fn spec(&self) -> &GpuFaultSpec {
        &self.spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_mixes() {
        assert_eq!(splitmix64(42), splitmix64(42));
        assert_ne!(splitmix64(42), splitmix64(43));
    }

    #[test]
    fn scripted_ordinals_fire_exactly() {
        let inj = GpuFaultInjector::new(GpuFaultSpec {
            seed: 7,
            alloc_oom: SiteSpec::at(&[1, 3]),
            ..GpuFaultSpec::default()
        });
        let fired: Vec<bool> = (0..5)
            .map(|_| inj.should_fail(GpuFaultSite::AllocOom))
            .collect();
        assert_eq!(fired, vec![false, true, false, true, false]);
        assert_eq!(inj.injected(GpuFaultSite::AllocOom), 2);
        assert_eq!(inj.calls(GpuFaultSite::AllocOom), 5);
    }

    #[test]
    fn probability_extremes() {
        let always = GpuFaultInjector::new(GpuFaultSpec {
            seed: 1,
            kernel_fault: SiteSpec::with_probability(1.0),
            ..GpuFaultSpec::default()
        });
        let never = GpuFaultInjector::new(GpuFaultSpec {
            seed: 1,
            kernel_fault: SiteSpec::with_probability(0.0),
            ..GpuFaultSpec::default()
        });
        for _ in 0..32 {
            assert!(always.should_fail(GpuFaultSite::KernelFault));
            assert!(!never.should_fail(GpuFaultSite::KernelFault));
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let spec = GpuFaultSpec {
            seed: 20260805,
            copy_fault: SiteSpec::with_probability(0.3),
            ..GpuFaultSpec::default()
        };
        let a = GpuFaultInjector::new(spec.clone());
        let b = GpuFaultInjector::new(spec);
        let sa: Vec<bool> = (0..64)
            .map(|_| a.should_fail(GpuFaultSite::CopyFault))
            .collect();
        let sb: Vec<bool> = (0..64)
            .map(|_| b.should_fail(GpuFaultSite::CopyFault))
            .collect();
        assert_eq!(sa, sb);
        assert!(sa.iter().any(|&f| f), "p=0.3 over 64 draws should fire");
        assert!(!sa.iter().all(|&f| f), "p=0.3 should not always fire");
    }

    #[test]
    fn different_sites_draw_independent_coins() {
        let spec = GpuFaultSpec {
            seed: 99,
            alloc_oom: SiteSpec::with_probability(0.5),
            kernel_fault: SiteSpec::with_probability(0.5),
            ..GpuFaultSpec::default()
        };
        let inj = GpuFaultInjector::new(spec);
        let a: Vec<bool> = (0..64)
            .map(|_| inj.should_fail(GpuFaultSite::AllocOom))
            .collect();
        let k: Vec<bool> = (0..64)
            .map(|_| inj.should_fail(GpuFaultSite::KernelFault))
            .collect();
        assert_ne!(a, k);
    }

    #[test]
    fn inactive_sites_do_not_count_calls() {
        let inj = GpuFaultInjector::new(GpuFaultSpec::default());
        assert!(!inj.should_fail(GpuFaultSite::AllocOom));
        assert_eq!(inj.calls(GpuFaultSite::AllocOom), 0);
    }
}
