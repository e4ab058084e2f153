//! Deterministic fault injection: the one table of injection sites and the
//! seeded injector that decides them.
//!
//! Seven sites can fail: three on the device (allocation, kernel launch,
//! async copy) and four on a rank's message path and checkpoint I/O (send,
//! receive, in-transit corruption, spill-file corruption). [`FaultSite`]'s
//! table gives each site its names — the variant the chaos corpus spells
//! and the `--faults` clause key — and the salt its coin is drawn under. A
//! [`SiteInjector`] holds every site's [`SiteSpec`] and counters and
//! decides: a pure function of a seed, the site and that site's call
//! ordinal — no wall clock and no global RNG — so a fault schedule replays
//! identically run after run.
//!
//! The MPI layer builds one injector per rank and, when a device site is
//! active, installs the same `Arc` on that rank's [`crate::Memory`], so
//! every clone of the owning [`crate::GpuContext`] and every
//! [`crate::Stream`] bound to it draws from the one set of counters.
//! Without one, each device hook is a single `Option` check and the
//! simulator behaves exactly as it did before fault injection existed.

use std::sync::atomic::{AtomicU64, Ordering};

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
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SiteSpec {
    /// Probability in `[0, 1]` that any given call at this site fails.
    pub probability: f64,
    /// Call ordinals (0-based, counted per site) that always fail,
    /// independent of `probability`.
    pub at_calls: Vec<u64>,
}

impl SiteSpec {
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
    /// site's `salt`. Public so higher layers flip the same coin for a
    /// site outside the table (the MPI plan's delay).
    pub fn decide(&self, seed: u64, salt: u64, n: u64) -> bool {
        if self.at_calls.contains(&n) {
            return true;
        }
        self.probability > 0.0
            && unit_f64(splitmix64(seed ^ salt ^ splitmix64(n))) < self.probability
    }
}

/// The operations a fault can target: the rows of the site table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Device allocation: fires as [`crate::GpuError::OutOfMemory`].
    Alloc,
    /// Kernel launch: fires as [`crate::GpuError::StreamFault`].
    Kernel,
    /// Async copy (1-D, 2-D or 3-D): fires as
    /// [`crate::GpuError::StreamFault`].
    Copy,
    /// Transient p2p send failure (per send attempt).
    Send,
    /// Transient p2p receive failure (per receive attempt).
    Recv,
    /// In-transit payload corruption (per delivery attempt): a
    /// deterministic bit of the arriving payload flips. With integrity on
    /// the receiver detects it and runs the NACK/retransmit handshake;
    /// without it the corruption is silent.
    Corrupt,
    /// Checkpoint spill-file corruption (per spill read or write): a
    /// deterministic bit of the frame flips on its way to or from disk, and
    /// the frame checksum turns it into a typed error on decode.
    Spill,
}

impl FaultSite {
    /// How many sites the table has.
    pub const COUNT: usize = 7;

    /// Every site, in table order.
    pub const ALL: [FaultSite; FaultSite::COUNT] = [
        FaultSite::Alloc,
        FaultSite::Kernel,
        FaultSite::Copy,
        FaultSite::Send,
        FaultSite::Recv,
        FaultSite::Corrupt,
        FaultSite::Spill,
    ];

    /// The site table, one row per site in [`FaultSite::ALL`] order:
    /// variant spelling, `--faults` clause key, and the salt that keeps
    /// the same ordinal at two sites from drawing the same coin.
    const TABLE: [(&'static str, &'static str, u64); FaultSite::COUNT] = [
        ("Alloc", "alloc", 0x616c_6c6f_635f_6f6d),     // "alloc_om"
        ("Kernel", "kernel", 0x6b65_726e_5f66_6c74),   // "kern_flt"
        ("Copy", "copy", 0x636f_7079_5f66_6c74),       // "copy_flt"
        ("Send", "send", 0x7365_6e64_5f66_6c74),       // "send_flt"
        ("Recv", "recv", 0x7265_6376_5f66_6c74),       // "recv_flt"
        ("Corrupt", "corrupt", 0x636f_7272_5f66_6c74), // "corr_flt"
        ("Spill", "spill", 0x7370_696c_5f66_6c74),     // "spil_flt"
    ];

    /// The variant's name (`"Corrupt"`), as the chaos corpus spells it.
    #[must_use]
    pub fn name(self) -> &'static str {
        Self::TABLE[self as usize].0
    }

    /// The key a `--faults` clause names the site by (`corrupt` in
    /// `corrupt=0.1`).
    #[must_use]
    pub fn key(self) -> &'static str {
        Self::TABLE[self as usize].1
    }

    /// The salt the site's coin is drawn under.
    #[must_use]
    pub fn salt(self) -> u64 {
        Self::TABLE[self as usize].2
    }

    /// Does the site fire on the device (and so need the injector
    /// installed on the rank's [`crate::GpuContext`])?
    #[must_use]
    pub fn on_device(self) -> bool {
        matches!(self, FaultSite::Alloc | FaultSite::Kernel | FaultSite::Copy)
    }

    /// The site a `--faults` clause key names.
    #[must_use]
    pub fn from_key(key: &str) -> Option<FaultSite> {
        FaultSite::ALL.into_iter().find(|s| s.key() == key)
    }
}

impl ToJson for FaultSite {
    fn to_json(&self) -> Value {
        self.name().to_json()
    }
}

impl FromJson for FaultSite {
    fn from_json(v: &Value) -> Result<FaultSite, json::Error> {
        let name = v.variant()?.0;
        FaultSite::ALL
            .into_iter()
            .find(|s| s.name() == name)
            .ok_or_else(|| json::Error(format!("unknown fault site `{name}`")))
    }
}

/// One seeded injector over every site: each site's [`SiteSpec`] and its
/// call and injected counters.
///
/// A rank's message path and its device share one via `Arc`. Counters are
/// atomics because [`crate::Memory`] sits behind a mutex shared across
/// context clones; the simulator drives each rank single-threaded, so call
/// ordinals — and therefore every decision — are deterministic.
#[derive(Debug)]
pub struct SiteInjector {
    seed: u64,
    specs: [SiteSpec; FaultSite::COUNT],
    calls: [AtomicU64; FaultSite::COUNT],
    injected: [AtomicU64; FaultSite::COUNT],
}

impl SiteInjector {
    /// An injector drawing every coin under `seed`, `specs` indexed by
    /// [`FaultSite`].
    #[must_use]
    pub fn new(seed: u64, specs: [SiteSpec; FaultSite::COUNT]) -> Self {
        SiteInjector {
            seed,
            specs,
            calls: Default::default(),
            injected: Default::default(),
        }
    }

    /// The spec `site` runs.
    #[must_use]
    pub fn spec(&self, site: FaultSite) -> &SiteSpec {
        &self.specs[site as usize]
    }

    /// Count one call at `site` and flip its coin: the call's ordinal when
    /// it fails. An inactive site neither counts nor fires, so enabling one
    /// site does not shift another site's schedule.
    fn draw(&self, site: FaultSite) -> Option<u64> {
        let i = site as usize;
        if !self.specs[i].is_active() {
            return None;
        }
        let n = self.calls[i].fetch_add(1, Ordering::Relaxed);
        if !self.specs[i].decide(self.seed, site.salt(), n) {
            return None;
        }
        self.injected[i].fetch_add(1, Ordering::Relaxed);
        Some(n)
    }

    /// Record one call at `site` and decide whether it fails.
    pub fn should_fail(&self, site: FaultSite) -> bool {
        self.draw(site).is_some()
    }

    /// Record one call at `site` over a `len`-byte buffer and, when it
    /// fails, return the (byte index, one-bit mask) to flip — derived from
    /// the same seeded draw, so a given call always flips the same bit. An
    /// empty buffer has nothing to flip.
    pub fn flip(&self, site: FaultSite, len: usize) -> Option<(usize, u8)> {
        let n = self.draw(site).filter(|_| len > 0)?;
        let h = splitmix64(self.seed ^ site.salt() ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        Some((h as usize % len, 1u8 << ((h >> 40) & 7)))
    }

    /// Calls observed at `site` so far (counted only while the site is
    /// active).
    pub fn calls(&self, site: FaultSite) -> u64 {
        self.calls[site as usize].load(Ordering::Relaxed)
    }

    /// Faults injected at `site` so far.
    pub fn injected(&self, site: FaultSite) -> u64 {
        self.injected[site as usize].load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An injector under `seed` with `site` running `spec`, every other
    /// site inactive.
    fn one_site(seed: u64, site: FaultSite, spec: SiteSpec) -> SiteInjector {
        let mut specs: [SiteSpec; FaultSite::COUNT] = Default::default();
        specs[site as usize] = spec;
        SiteInjector::new(seed, specs)
    }

    #[test]
    fn splitmix_is_deterministic_and_mixes() {
        assert_eq!(splitmix64(42), splitmix64(42));
        assert_ne!(splitmix64(42), splitmix64(43));
    }

    #[test]
    fn the_table_round_trips_every_name() {
        for (i, site) in FaultSite::ALL.into_iter().enumerate() {
            assert_eq!(site as usize, i, "ALL is in table order");
            assert_eq!(site.name(), format!("{site:?}"));
            assert_eq!(FaultSite::from_key(site.key()), Some(site));
            let back: FaultSite = json::from_str(&site.to_json().to_string()).unwrap();
            assert_eq!(back, site);
        }
        assert_eq!(FaultSite::from_key("delay"), None);
        let salts: std::collections::HashSet<u64> =
            FaultSite::ALL.iter().map(|s| s.salt()).collect();
        assert_eq!(salts.len(), FaultSite::COUNT, "salts are distinct");
    }

    #[test]
    fn scripted_ordinals_fire_exactly() {
        let inj = one_site(7, FaultSite::Alloc, SiteSpec::at(&[1, 3]));
        let fired: Vec<bool> = (0..5).map(|_| inj.should_fail(FaultSite::Alloc)).collect();
        assert_eq!(fired, vec![false, true, false, true, false]);
        assert_eq!(inj.injected(FaultSite::Alloc), 2);
        assert_eq!(inj.calls(FaultSite::Alloc), 5);
    }

    #[test]
    fn probability_extremes() {
        let always = one_site(1, FaultSite::Kernel, SiteSpec::with_probability(1.0));
        let never = one_site(1, FaultSite::Kernel, SiteSpec::with_probability(0.0));
        for _ in 0..32 {
            assert!(always.should_fail(FaultSite::Kernel));
            assert!(!never.should_fail(FaultSite::Kernel));
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let spec = SiteSpec::with_probability(0.3);
        let a = one_site(20260805, FaultSite::Copy, spec.clone());
        let b = one_site(20260805, FaultSite::Copy, spec);
        let sa: Vec<bool> = (0..64).map(|_| a.should_fail(FaultSite::Copy)).collect();
        let sb: Vec<bool> = (0..64).map(|_| b.should_fail(FaultSite::Copy)).collect();
        assert_eq!(sa, sb);
        assert!(sa.iter().any(|&f| f), "p=0.3 over 64 draws should fire");
        assert!(!sa.iter().all(|&f| f), "p=0.3 should not always fire");
    }

    #[test]
    fn different_sites_draw_independent_coins() {
        let mut specs: [SiteSpec; FaultSite::COUNT] = Default::default();
        specs[FaultSite::Alloc as usize] = SiteSpec::with_probability(0.5);
        specs[FaultSite::Kernel as usize] = SiteSpec::with_probability(0.5);
        let inj = SiteInjector::new(99, specs);
        let a: Vec<bool> = (0..64).map(|_| inj.should_fail(FaultSite::Alloc)).collect();
        let k: Vec<bool> = (0..64)
            .map(|_| inj.should_fail(FaultSite::Kernel))
            .collect();
        assert_ne!(a, k);
    }

    #[test]
    fn inactive_sites_do_not_count_calls() {
        let inj = SiteInjector::new(0, Default::default());
        assert!(!inj.should_fail(FaultSite::Alloc));
        assert_eq!(inj.flip(FaultSite::Corrupt, 64), None);
        assert_eq!(inj.calls(FaultSite::Alloc), 0);
        assert_eq!(inj.calls(FaultSite::Corrupt), 0);
    }

    #[test]
    fn an_empty_buffer_spends_its_ordinal_and_flips_nothing() {
        let inj = one_site(3, FaultSite::Spill, SiteSpec::at(&[0, 1]));
        assert_eq!(inj.flip(FaultSite::Spill, 0), None);
        let (idx, mask) = inj.flip(FaultSite::Spill, 96).unwrap();
        assert!(idx < 96);
        assert_eq!(mask.count_ones(), 1, "exactly one bit flips");
        assert_eq!(inj.calls(FaultSite::Spill), 2);
    }
}
