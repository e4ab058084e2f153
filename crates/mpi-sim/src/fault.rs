//! Deterministic fault plans, per-rank injectors, and the degradation log.
//!
//! A [`FaultPlan`] describes *what can go wrong* in a run: GPU allocation
//! OOM, kernel/copy stream faults, transient send/recv failures, extra
//! network latency, and ranks exiting at chosen virtual times. Every
//! decision is a pure function of the plan's seed, the rank, the site, and
//! that site's call ordinal — never the wall clock or a global RNG — so a
//! schedule replays identically for a fixed seed.
//!
//! A [`FaultInjector`] is the per-rank instantiation of a plan (the GPU
//! sites become a [`gpu_sim::GpuFaultInjector`] installed on that rank's
//! device). [`FaultStats`] counts what actually fired and carries the
//! [`DegradeEvent`] log that the TEMPI layer appends to when it downgrades
//! a send path; both are consulted only by the reliability layer
//! ([`crate::reliability`]), whose per-rank state holds them.

use std::fmt;

use gpu_sim::fault::splitmix64;
use gpu_sim::{GpuFaultInjector, GpuFaultSpec, SimTime, SiteSpec};
use tempi_trace::json::{self, FromJson, ToJson, Value};

use crate::error::{MpiError, MpiResult};

/// Extra-latency injection: with `probability`, a receive pays `latency`
/// on top of the modeled wire time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DelaySpec {
    /// Probability in `[0, 1]` that a given receive is delayed.
    pub probability: f64,
    /// The additional virtual latency charged when the site fires.
    pub latency: SimTime,
}

impl ToJson for DelaySpec {
    fn to_json(&self) -> Value {
        Value::object([
            ("probability", self.probability.to_json()),
            ("latency", self.latency.to_json()),
        ])
    }
}

impl FromJson for DelaySpec {
    fn from_json(v: &Value) -> Result<DelaySpec, json::Error> {
        Ok(DelaySpec {
            probability: v.field("probability")?,
            latency: v.field("latency")?,
        })
    }
}

impl DelaySpec {
    /// Does this spec ever fire?
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.probability > 0.0 && !self.latency.is_zero()
    }
}

/// A scheduled rank death: from virtual instant `at` on, peers observing
/// rank `rank` get [`MpiError::PeerGone`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankExit {
    /// The rank that exits.
    pub rank: usize,
    /// The virtual instant of the exit.
    pub at: SimTime,
}

impl ToJson for RankExit {
    fn to_json(&self) -> Value {
        Value::object([("rank", self.rank.to_json()), ("at", self.at.to_json())])
    }
}

impl FromJson for RankExit {
    fn from_json(v: &Value) -> Result<RankExit, json::Error> {
        Ok(RankExit {
            rank: v.field("rank")?,
            at: v.field("at")?,
        })
    }
}

/// The injection sites a [`ScopedFault`] can script.
///
/// Mirrors the global [`SiteSpec`] fields of a [`FaultPlan`] but names one
/// site symbolically, so a single scripted event (rank × site × ordinal)
/// can be serialized, shuffled and delta-debugged by the chaos engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Device-allocation OOM.
    Alloc,
    /// Kernel-launch failure.
    Kernel,
    /// Async-copy failure.
    Copy,
    /// Transient p2p send failure.
    Send,
    /// Transient p2p receive failure.
    Recv,
    /// In-transit payload corruption.
    Corrupt,
    /// Checkpoint spill-file I/O corruption.
    Spill,
}

impl FaultSite {
    /// The site a `--faults` clause names (`"corrupt"` in `corrupt=0.1`).
    fn named(key: &str) -> Option<FaultSite> {
        Some(match key {
            "alloc" => FaultSite::Alloc,
            "kernel" => FaultSite::Kernel,
            "copy" => FaultSite::Copy,
            "send" => FaultSite::Send,
            "recv" => FaultSite::Recv,
            "corrupt" => FaultSite::Corrupt,
            "spill" => FaultSite::Spill,
            _ => return None,
        })
    }
}

/// The variant's name (`"Corrupt"`), as the chaos corpus spells it.
impl ToJson for FaultSite {
    fn to_json(&self) -> Value {
        format!("{self:?}").to_json()
    }
}

impl FromJson for FaultSite {
    fn from_json(v: &Value) -> Result<FaultSite, json::Error> {
        Ok(match v.variant()?.0 {
            "Alloc" => FaultSite::Alloc,
            "Kernel" => FaultSite::Kernel,
            "Copy" => FaultSite::Copy,
            "Send" => FaultSite::Send,
            "Recv" => FaultSite::Recv,
            "Corrupt" => FaultSite::Corrupt,
            "Spill" => FaultSite::Spill,
            other => return Err(json::Error(format!("unknown fault site `{other}`"))),
        })
    }
}

/// One scripted fault event targeting a single rank: "on rank `rank`, call
/// ordinal `at_call` of site `site` fails". The unit of minimization for
/// the chaos shrinker — unlike the plan-wide probabilistic sites, scoped
/// events can be removed one at a time without disturbing the coins the
/// remaining events flip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScopedFault {
    /// The world rank the event fires on.
    pub rank: usize,
    /// Which injection site fails.
    pub site: FaultSite,
    /// The 0-based per-site call ordinal that fails.
    pub at_call: u64,
}

impl ToJson for ScopedFault {
    fn to_json(&self) -> Value {
        Value::object([
            ("rank", self.rank.to_json()),
            ("site", self.site.to_json()),
            ("at_call", self.at_call.to_json()),
        ])
    }
}

impl FromJson for ScopedFault {
    fn from_json(v: &Value) -> Result<ScopedFault, json::Error> {
        Ok(ScopedFault {
            rank: v.field("rank")?,
            site: v.field("site")?,
            at_call: v.field("at_call")?,
        })
    }
}

/// A complete, reproducible description of the faults in one run.
///
/// Serializable (missing fields deserialize to their defaults) so the
/// chaos engine can persist failing plans, shrink them offline, and replay
/// committed reproducers byte-for-byte.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed mixed (with the rank) into every probabilistic decision.
    pub seed: u64,
    /// Device-allocation OOM site (see [`gpu_sim::GpuFaultSite::AllocOom`]).
    pub alloc_oom: SiteSpec,
    /// Kernel-launch failure site.
    pub kernel_fault: SiteSpec,
    /// Async-copy failure site.
    pub copy_fault: SiteSpec,
    /// Transient send failure site (per p2p send call).
    pub send_fail: SiteSpec,
    /// Transient receive failure site (per p2p receive call).
    pub recv_fail: SiteSpec,
    /// In-transit payload corruption site (per delivery attempt): when it
    /// fires, a deterministic byte of the arriving payload is flipped.
    /// With integrity enabled the receiver detects the flip and runs the
    /// NACK/retransmit handshake; without it the corruption is silent.
    pub corrupt: SiteSpec,
    /// Checkpoint spill-file I/O corruption site (per spill read/write):
    /// when it fires, a deterministic byte of the frame flips on its way
    /// to or from disk. The frame checksum catches it on decode, so a
    /// corrupted spill surfaces as a typed error rather than bad data.
    pub spill_corrupt: SiteSpec,
    /// Extra-latency site (per p2p receive call).
    pub delay: DelaySpec,
    /// Scheduled rank deaths.
    pub rank_exits: Vec<RankExit>,
    /// Scripted per-rank fault events, merged into that rank's site
    /// ordinals when the plan is instantiated. The chaos shrinker's unit
    /// of minimization.
    pub scoped: Vec<ScopedFault>,
    /// Bounded-retry budget for transient p2p faults.
    pub max_retries: u32,
    /// First backoff; doubles per retry (charged to the virtual clock).
    pub backoff_base: SimTime,
}

impl ToJson for FaultPlan {
    fn to_json(&self) -> Value {
        Value::object([
            ("seed", self.seed.to_json()),
            ("alloc_oom", self.alloc_oom.to_json()),
            ("kernel_fault", self.kernel_fault.to_json()),
            ("copy_fault", self.copy_fault.to_json()),
            ("send_fail", self.send_fail.to_json()),
            ("recv_fail", self.recv_fail.to_json()),
            ("corrupt", self.corrupt.to_json()),
            ("spill_corrupt", self.spill_corrupt.to_json()),
            ("delay", self.delay.to_json()),
            ("rank_exits", self.rank_exits.to_json()),
            ("scoped", self.scoped.to_json()),
            ("max_retries", self.max_retries.to_json()),
            ("backoff_base", self.backoff_base.to_json()),
        ])
    }
}

/// A missing field reads as its *type's* default, not the plan's (no
/// retries, no backoff): a sparse plan injects nothing.
impl FromJson for FaultPlan {
    fn from_json(v: &Value) -> Result<FaultPlan, json::Error> {
        Ok(FaultPlan {
            seed: v.field_or_default("seed")?,
            alloc_oom: v.field_or_default("alloc_oom")?,
            kernel_fault: v.field_or_default("kernel_fault")?,
            copy_fault: v.field_or_default("copy_fault")?,
            send_fail: v.field_or_default("send_fail")?,
            recv_fail: v.field_or_default("recv_fail")?,
            corrupt: v.field_or_default("corrupt")?,
            spill_corrupt: v.field_or_default("spill_corrupt")?,
            delay: v.field_or_default("delay")?,
            rank_exits: v.field_or_default("rank_exits")?,
            scoped: v.field_or_default("scoped")?,
            max_retries: v.field_or_default("max_retries")?,
            backoff_base: v.field_or_default("backoff_base")?,
        })
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            alloc_oom: SiteSpec::never(),
            kernel_fault: SiteSpec::never(),
            copy_fault: SiteSpec::never(),
            send_fail: SiteSpec::never(),
            recv_fail: SiteSpec::never(),
            corrupt: SiteSpec::never(),
            spill_corrupt: SiteSpec::never(),
            delay: DelaySpec::default(),
            rank_exits: Vec::new(),
            scoped: Vec::new(),
            max_retries: 3,
            backoff_base: SimTime::from_us(10),
        }
    }
}

impl FaultPlan {
    /// Does any site ever fire?
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.alloc_oom.is_active()
            || self.kernel_fault.is_active()
            || self.copy_fault.is_active()
            || self.send_fail.is_active()
            || self.recv_fail.is_active()
            || self.corrupt.is_active()
            || self.spill_corrupt.is_active()
            || self.delay.is_active()
            || !self.rank_exits.is_empty()
            || !self.scoped.is_empty()
    }

    /// The spec of `site`: the one table from a site to the plan field
    /// that schedules it.
    pub(crate) fn site_mut(&mut self, site: FaultSite) -> &mut SiteSpec {
        match site {
            FaultSite::Alloc => &mut self.alloc_oom,
            FaultSite::Kernel => &mut self.kernel_fault,
            FaultSite::Copy => &mut self.copy_fault,
            FaultSite::Send => &mut self.send_fail,
            FaultSite::Recv => &mut self.recv_fail,
            FaultSite::Corrupt => &mut self.corrupt,
            FaultSite::Spill => &mut self.spill_corrupt,
        }
    }

    /// Parse the `--faults` mini-language: comma-separated clauses, e.g.
    /// `seed=42,alloc=0.1,kernel@3,send=0.05,delay=0.2:20us,exit=1@5ms,retries=4,backoff=10us`.
    ///
    /// Clauses:
    /// * `seed=N` — decision seed (default 0)
    /// * `alloc|kernel|copy|send|recv|corrupt|spill=P` — per-call failure
    ///   probability in `[0, 1]`
    /// * `alloc|kernel|copy|send|recv|corrupt|spill@N` — scripted 0-based
    ///   call ordinal (repeatable)
    /// * `delay=P:DUR` — receive-side extra latency `DUR` with probability
    ///   `P` in `[0, 1]`
    /// * `exit=R@DUR` — rank `R` exits at virtual time `DUR` (repeatable)
    /// * `retries=N` — transient-fault retry budget (default 3)
    /// * `backoff=DUR` — first retry backoff, doubling per retry
    ///   (default 10us)
    ///
    /// Durations take an `ns`/`us`/`ms`/`s` suffix, e.g. `20us`.
    pub fn parse(spec: &str) -> MpiResult<FaultPlan> {
        fn bad(clause: &str, why: &str) -> MpiError {
            MpiError::InvalidArg(format!("fault spec clause `{clause}`: {why}"))
        }
        fn parse_time(s: &str, clause: &str) -> MpiResult<SimTime> {
            let (digits, unit) =
                s.split_at(s.find(|c: char| c.is_ascii_alphabetic()).unwrap_or(s.len()));
            let v: u64 = digits
                .parse()
                .map_err(|_| bad(clause, "expected an integer duration like 20us"))?;
            match unit {
                "ns" => Ok(SimTime::from_ns(v)),
                "us" => Ok(SimTime::from_us(v)),
                "ms" => Ok(SimTime::from_ms(v)),
                "s" => Ok(SimTime::from_secs_f64(v as f64)),
                _ => Err(bad(clause, "duration needs an ns/us/ms/s suffix")),
            }
        }
        fn parse_probability(s: &str, clause: &str) -> MpiResult<f64> {
            let p: f64 = s
                .parse()
                .map_err(|_| bad(clause, "probability must be a float"))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(bad(clause, "probability must be in [0, 1]"));
            }
            Ok(p)
        }

        let mut plan = FaultPlan::default();
        for clause in spec.split(',').map(str::trim).filter(|c| !c.is_empty()) {
            if let Some((key, val)) = clause.split_once('=') {
                match key {
                    "seed" => {
                        plan.seed = val
                            .parse()
                            .map_err(|_| bad(clause, "seed takes an integer"))?;
                    }
                    "retries" => {
                        plan.max_retries = val
                            .parse()
                            .map_err(|_| bad(clause, "retries takes an integer"))?;
                    }
                    "backoff" => plan.backoff_base = parse_time(val, clause)?,
                    "delay" => {
                        let (p, dur) = val
                            .split_once(':')
                            .ok_or_else(|| bad(clause, "expected delay=P:DUR"))?;
                        plan.delay.probability = parse_probability(p, clause)?;
                        plan.delay.latency = parse_time(dur, clause)?;
                    }
                    "exit" => {
                        let (r, at) = val
                            .split_once('@')
                            .ok_or_else(|| bad(clause, "expected exit=RANK@TIME"))?;
                        plan.rank_exits.push(RankExit {
                            rank: r
                                .parse()
                                .map_err(|_| bad(clause, "rank must be an integer"))?,
                            at: parse_time(at, clause)?,
                        });
                    }
                    _ => {
                        let site =
                            FaultSite::named(key).ok_or_else(|| bad(clause, "unknown key"))?;
                        plan.site_mut(site).probability = parse_probability(val, clause)?;
                    }
                }
            } else if let Some((key, ord)) = clause.split_once('@') {
                let n: u64 = ord
                    .parse()
                    .map_err(|_| bad(clause, "call ordinal must be an integer"))?;
                let site = FaultSite::named(key).ok_or_else(|| bad(clause, "unknown site"))?;
                plan.site_mut(site).at_calls.push(n);
            } else {
                return Err(bad(clause, "expected key=value or site@ordinal"));
            }
        }
        Ok(plan)
    }
}

/// One recorded downgrade of a send/pack path.
///
/// The method names are strings (`"Device"`, `"OneShot"`, `"Staged"`,
/// `"SystemMpi"`, `"VendorBaseline"`) so this crate stays independent of
/// the TEMPI layer's `Method` enum; equality of logs is what the replay
/// tests assert.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradeEvent {
    /// Virtual instant of the downgrade.
    pub at: SimTime,
    /// Human-readable description of the datatype involved.
    pub datatype: String,
    /// The path that failed.
    pub from: String,
    /// The path degraded to.
    pub to: String,
    /// Why (the rendered error).
    pub cause: String,
}

impl fmt::Display for DegradeEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}: {} -> {} ({})",
            self.at, self.datatype, self.from, self.to, self.cause
        )
    }
}

/// Counters of injected faults and recovery work, plus the degradation log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultStats {
    /// Transient send failures injected.
    pub send_faults: u64,
    /// Transient receive failures injected.
    pub recv_faults: u64,
    /// Extra-latency injections.
    pub delays: u64,
    /// Total extra latency charged.
    pub delay_time: SimTime,
    /// Retries performed after transient p2p faults.
    pub retries: u64,
    /// Total virtual time spent in retry backoff.
    pub backoff_time: SimTime,
    /// Operations that failed with [`MpiError::PeerGone`] due to a
    /// scheduled rank exit.
    pub peer_gone: u64,
    /// Death notices absorbed from dying peers (one per notice received).
    pub death_notices: u64,
    /// Revocation notices absorbed (one per `REVOKE` control message that
    /// newly poisoned this rank's view of the communicator).
    pub revocations: u64,
    /// Messages dropped because they were stamped with a communicator
    /// epoch older than the current one (late traffic from before a
    /// shrink; rejected rather than misdelivered).
    pub stale_dropped: u64,
    /// Completed `agree_on_failures` rounds on this rank.
    pub agreements: u64,
    /// Payload corruptions injected on delivery attempts (detected or not).
    pub corruptions: u64,
    /// NACKs this rank sent after a checksum mismatch.
    pub nacks: u64,
    /// Retransmitted deliveries consumed after a NACK.
    pub retransmits: u64,
    /// Total virtual time charged to NACK/retransmit round trips.
    pub nack_time: SimTime,
    /// The degradation-event log, in the order the downgrades happened.
    pub events: Vec<DegradeEvent>,
}

impl FaultStats {
    /// Append a downgrade to the event log.
    pub fn record(&mut self, ev: DegradeEvent) {
        self.events.push(ev);
    }
}

/// Per-rank fault decision state: deterministic counters over the plan.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    rank_seed: u64,
    send_calls: u64,
    recv_calls: u64,
    delay_calls: u64,
    corrupt_calls: u64,
    spill_calls: u64,
}

/// Site salts for the network-level coins (distinct from the GPU salts in
/// [`gpu_sim::GpuFaultInjector`]).
const SALT_SEND: u64 = 0x7365_6e64_5f66_6c74; // "send_flt"
const SALT_RECV: u64 = 0x7265_6376_5f66_6c74; // "recv_flt"
const SALT_DELAY: u64 = 0x6465_6c61_795f_6e74; // "delay_nt"
const SALT_CORRUPT: u64 = 0x636f_7272_5f66_6c74; // "corr_flt"
const SALT_SPILL: u64 = 0x7370_696c_5f66_6c74; // "spil_flt"

impl FaultInjector {
    /// Instantiate a plan for one rank. The returned GPU injector (if the
    /// plan has active GPU sites) must be installed on that rank's
    /// [`gpu_sim::GpuContext`] by the caller.
    pub fn new(
        plan: FaultPlan,
        rank: usize,
    ) -> (FaultInjector, Option<std::sync::Arc<GpuFaultInjector>>) {
        let mut plan = plan;
        // Merge scripted per-rank events into this rank's site ordinals.
        // The plan is cloned per rank, so mutating the clone is safe and
        // other ranks never see events scoped to this one.
        for ev in std::mem::take(&mut plan.scoped) {
            if ev.rank != rank {
                continue;
            }
            let site = plan.site_mut(ev.site);
            if !site.at_calls.contains(&ev.at_call) {
                site.at_calls.push(ev.at_call);
            }
        }
        let rank_seed = splitmix64(plan.seed ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let gpu_spec = GpuFaultSpec {
            seed: rank_seed,
            alloc_oom: plan.alloc_oom.clone(),
            kernel_fault: plan.kernel_fault.clone(),
            copy_fault: plan.copy_fault.clone(),
        };
        let gpu = if gpu_spec.is_active() {
            Some(GpuFaultInjector::new(gpu_spec))
        } else {
            None
        };
        (
            FaultInjector {
                plan,
                rank_seed,
                send_calls: 0,
                recv_calls: 0,
                delay_calls: 0,
                corrupt_calls: 0,
                spill_calls: 0,
            },
            gpu,
        )
    }

    /// The plan this injector runs.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Record one p2p send attempt and decide whether it transiently fails.
    pub fn send_should_fail(&mut self) -> bool {
        let n = self.send_calls;
        self.send_calls += 1;
        self.plan.send_fail.decide(self.rank_seed, SALT_SEND, n)
    }

    /// Record one p2p receive attempt and decide whether it transiently
    /// fails.
    pub fn recv_should_fail(&mut self) -> bool {
        let n = self.recv_calls;
        self.recv_calls += 1;
        self.plan.recv_fail.decide(self.rank_seed, SALT_RECV, n)
    }

    /// Record one delivery and return the extra latency to charge, if the
    /// delay site fires.
    pub fn extra_delay(&mut self) -> Option<SimTime> {
        if !self.plan.delay.is_active() {
            return None;
        }
        let n = self.delay_calls;
        self.delay_calls += 1;
        let coin = SiteSpec::with_probability(self.plan.delay.probability);
        if coin.decide(self.rank_seed, SALT_DELAY, n) {
            Some(self.plan.delay.latency)
        } else {
            None
        }
    }

    /// Record one delivery attempt and decide whether its payload is
    /// corrupted in transit. Returns the (byte index, flip mask) to apply,
    /// derived deterministically from the same seeded draw, so a given
    /// delivery attempt always corrupts the same bit. `len == 0` payloads
    /// are never corrupted (nothing to flip).
    pub fn corrupt_delivery(&mut self, len: usize) -> Option<(usize, u8)> {
        let n = self.corrupt_calls;
        self.corrupt_calls += 1;
        if len == 0 || !self.plan.corrupt.decide(self.rank_seed, SALT_CORRUPT, n) {
            return None;
        }
        let h = splitmix64(self.rank_seed ^ SALT_CORRUPT ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        Some((h as usize % len, 1u8 << ((h >> 40) & 7)))
    }

    /// Record one checkpoint spill read/write and decide whether the frame
    /// is corrupted on its way to or from disk. Returns the (byte index,
    /// flip mask) to apply to the encoded frame, derived deterministically
    /// from the seeded draw — the disk-side analogue of
    /// [`FaultInjector::corrupt_delivery`].
    pub fn spill_corrupt_io(&mut self, len: usize) -> Option<(usize, u8)> {
        let n = self.spill_calls;
        self.spill_calls += 1;
        if len == 0
            || !self
                .plan
                .spill_corrupt
                .decide(self.rank_seed, SALT_SPILL, n)
        {
            return None;
        }
        let h = splitmix64(self.rank_seed ^ SALT_SPILL ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        Some((h as usize % len, 1u8 << ((h >> 40) & 7)))
    }

    /// The earliest scheduled exit time for `rank`, if any. Used by a rank
    /// to notice its *own* death and by the runtime to stamp death notices
    /// with the scheduled instant (not the observer's clock), so every
    /// observer converges on the same virtual time.
    pub fn exit_time(&self, rank: usize) -> Option<SimTime> {
        self.plan
            .rank_exits
            .iter()
            .filter(|e| e.rank == rank)
            .map(|e| e.at)
            .min()
    }

    /// Retry budget for transient p2p faults.
    pub fn max_retries(&self) -> u32 {
        self.plan.max_retries
    }

    /// Backoff before retry number `attempt` (0-based): base × 2^attempt.
    pub fn backoff(&self, attempt: u32) -> SimTime {
        self.plan.backoff_base * (1u64 << attempt.min(20))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_spec() {
        let p = FaultPlan::parse(
            "seed=42,alloc=0.25,kernel@3,copy@0,send=0.5,recv=0.125,delay=0.2:20us,exit=1@5ms,retries=4,backoff=7us",
        )
        .unwrap();
        assert_eq!(p.seed, 42);
        assert!((p.alloc_oom.probability - 0.25).abs() < 1e-12);
        assert_eq!(p.kernel_fault.at_calls, vec![3]);
        assert_eq!(p.copy_fault.at_calls, vec![0]);
        assert!((p.send_fail.probability - 0.5).abs() < 1e-12);
        assert!((p.recv_fail.probability - 0.125).abs() < 1e-12);
        assert!((p.delay.probability - 0.2).abs() < 1e-12);
        assert_eq!(p.delay.latency, SimTime::from_us(20));
        assert_eq!(
            p.rank_exits,
            vec![RankExit {
                rank: 1,
                at: SimTime::from_ms(5)
            }]
        );
        assert_eq!(p.max_retries, 4);
        assert_eq!(p.backoff_base, SimTime::from_us(7));
        assert!(p.is_active());
    }

    #[test]
    fn parse_rejects_junk() {
        assert!(FaultPlan::parse("frobnicate=1").is_err());
        assert!(FaultPlan::parse("alloc").is_err());
        assert!(FaultPlan::parse("delay=0.5").is_err());
        assert!(FaultPlan::parse("exit=zero@1us").is_err());
        assert!(FaultPlan::parse("backoff=10").is_err());
        // probabilities outside [0, 1] name the offending clause
        let err = FaultPlan::parse("send=1.5").unwrap_err();
        assert!(err.to_string().contains("send=1.5"), "{err}");
        assert!(FaultPlan::parse("corrupt=-0.1").is_err());
        // the delay clause's probability too: above 1 it would always fire,
        // below 0 never
        for spec in ["delay=1.5:20us", "delay=-0.5:20us"] {
            let err = FaultPlan::parse(spec).unwrap_err();
            assert!(err.to_string().contains(spec), "{err}");
        }
    }

    #[test]
    fn parse_corrupt_site() {
        let p = FaultPlan::parse("corrupt=0.25").unwrap();
        assert!((p.corrupt.probability - 0.25).abs() < 1e-12);
        assert!(p.is_active());
        let p = FaultPlan::parse("corrupt@2").unwrap();
        assert_eq!(p.corrupt.at_calls, vec![2]);
        assert!(p.is_active());
    }

    #[test]
    fn corrupt_delivery_is_scripted_and_deterministic() {
        let plan = FaultPlan::parse("corrupt@0,corrupt@2").unwrap();
        let (mut a, _) = FaultInjector::new(plan.clone(), 1);
        let (mut b, _) = FaultInjector::new(plan, 1);
        let da: Vec<_> = (0..4).map(|_| a.corrupt_delivery(64)).collect();
        let db: Vec<_> = (0..4).map(|_| b.corrupt_delivery(64)).collect();
        assert_eq!(da, db, "same rank, same seed, same flips");
        assert!(da[0].is_some() && da[2].is_some());
        assert!(da[1].is_none() && da[3].is_none());
        let (idx, mask) = da[0].unwrap();
        assert!(idx < 64);
        assert_eq!(mask.count_ones(), 1, "exactly one bit flips");
        // zero-length payloads are never corrupted
        let (mut c, _) = FaultInjector::new(FaultPlan::parse("corrupt=1.0").unwrap(), 0);
        assert_eq!(c.corrupt_delivery(0), None);
    }

    #[test]
    fn empty_spec_is_inactive_default() {
        let p = FaultPlan::parse("").unwrap();
        assert_eq!(p, FaultPlan::default());
        assert!(!p.is_active());
    }

    #[test]
    fn injector_decisions_replay_per_rank() {
        let plan = FaultPlan::parse("seed=7,send=0.4,recv=0.4").unwrap();
        let (mut a, _) = FaultInjector::new(plan.clone(), 1);
        let (mut b, _) = FaultInjector::new(plan.clone(), 1);
        let (mut c, _) = FaultInjector::new(plan, 2);
        let sa: Vec<bool> = (0..64).map(|_| a.send_should_fail()).collect();
        let sb: Vec<bool> = (0..64).map(|_| b.send_should_fail()).collect();
        let sc: Vec<bool> = (0..64).map(|_| c.send_should_fail()).collect();
        assert_eq!(sa, sb, "same rank, same seed, same schedule");
        assert_ne!(sa, sc, "different ranks draw different coins");
    }

    #[test]
    fn scripted_send_ordinals() {
        let plan = FaultPlan::parse("send@0,send@2").unwrap();
        let (mut inj, gpu) = FaultInjector::new(plan, 0);
        assert!(gpu.is_none(), "no GPU site active");
        let fired: Vec<bool> = (0..4).map(|_| inj.send_should_fail()).collect();
        assert_eq!(fired, vec![true, false, true, false]);
    }

    #[test]
    fn a_rank_exit_is_scheduled_for_that_rank_only() {
        let plan = FaultPlan::parse("exit=1@10us").unwrap();
        let (inj, _) = FaultInjector::new(plan, 0);
        assert_eq!(inj.exit_time(1), Some(SimTime::from_us(10)));
        assert_eq!(inj.exit_time(0), None);
    }

    #[test]
    fn backoff_doubles() {
        let plan = FaultPlan::parse("backoff=10us").unwrap();
        let (inj, _) = FaultInjector::new(plan, 0);
        assert_eq!(inj.backoff(0), SimTime::from_us(10));
        assert_eq!(inj.backoff(1), SimTime::from_us(20));
        assert_eq!(inj.backoff(3), SimTime::from_us(80));
    }

    #[test]
    fn gpu_injector_created_only_when_needed() {
        let (_, gpu) = FaultInjector::new(FaultPlan::parse("alloc@0").unwrap(), 0);
        assert!(gpu.is_some());
        let (_, gpu) = FaultInjector::new(FaultPlan::parse("send=1.0").unwrap(), 0);
        assert!(gpu.is_none());
    }

    #[test]
    fn parse_spill_site() {
        let p = FaultPlan::parse("spill=0.5").unwrap();
        assert!((p.spill_corrupt.probability - 0.5).abs() < 1e-12);
        assert!(p.is_active());
        let p = FaultPlan::parse("spill@1").unwrap();
        assert_eq!(p.spill_corrupt.at_calls, vec![1]);
    }

    #[test]
    fn spill_corrupt_io_is_scripted_and_deterministic() {
        let plan = FaultPlan::parse("spill@1").unwrap();
        let (mut a, _) = FaultInjector::new(plan.clone(), 0);
        let (mut b, _) = FaultInjector::new(plan, 0);
        let da: Vec<_> = (0..3).map(|_| a.spill_corrupt_io(96)).collect();
        let db: Vec<_> = (0..3).map(|_| b.spill_corrupt_io(96)).collect();
        assert_eq!(da, db);
        assert!(da[0].is_none() && da[2].is_none());
        let (idx, mask) = da[1].unwrap();
        assert!(idx < 96);
        assert_eq!(mask.count_ones(), 1);
    }

    #[test]
    fn scoped_events_merge_only_into_their_rank() {
        let mut plan = FaultPlan::default();
        plan.scoped.push(ScopedFault {
            rank: 1,
            site: FaultSite::Send,
            at_call: 2,
        });
        plan.scoped.push(ScopedFault {
            rank: 0,
            site: FaultSite::Recv,
            at_call: 0,
        });
        assert!(plan.is_active());
        let (mut r0, _) = FaultInjector::new(plan.clone(), 0);
        let (mut r1, _) = FaultInjector::new(plan, 1);
        let s0: Vec<bool> = (0..4).map(|_| r0.send_should_fail()).collect();
        let s1: Vec<bool> = (0..4).map(|_| r1.send_should_fail()).collect();
        assert_eq!(s0, vec![false; 4], "send event is scoped to rank 1");
        assert_eq!(s1, vec![false, false, true, false]);
        assert!(r0.recv_should_fail(), "recv event is scoped to rank 0");
        assert!(!r1.recv_should_fail());
    }

    #[test]
    fn scoped_gpu_events_reach_the_gpu_injector() {
        let mut plan = FaultPlan::default();
        plan.scoped.push(ScopedFault {
            rank: 0,
            site: FaultSite::Alloc,
            at_call: 0,
        });
        let (_, gpu) = FaultInjector::new(plan.clone(), 0);
        assert!(gpu.is_some(), "scoped alloc event activates the GPU side");
        let (_, gpu) = FaultInjector::new(plan, 1);
        assert!(gpu.is_none(), "other ranks stay clean");
    }

    #[test]
    fn plan_roundtrips_through_json() {
        let plan = FaultPlan::parse(
            "seed=9,alloc=0.1,send@3,corrupt=0.2,spill@0,delay=0.5:30us,exit=2@1ms,retries=5,backoff=2us",
        )
        .unwrap();
        let mut plan = plan;
        plan.scoped.push(ScopedFault {
            rank: 1,
            site: FaultSite::Corrupt,
            at_call: 4,
        });
        let back: FaultPlan = json::from_str(&plan.to_json().to_string()).unwrap();
        assert_eq!(back, plan);
        // Missing fields deserialize to type defaults; the engine always
        // serializes complete plans, so sparse JSON only occurs when a
        // reproducer is hand-edited -- and a sparse plan injects nothing.
        let sparse: FaultPlan = json::from_str(r#"{"seed": 3}"#).unwrap();
        assert_eq!(sparse.seed, 3);
        assert!(!sparse.is_active());
    }

    #[test]
    fn degrade_event_display_and_log() {
        let mut stats = FaultStats::default();
        stats.record(DegradeEvent {
            at: SimTime::from_us(11),
            datatype: "vector(13,100,256,byte)".into(),
            from: "Device".into(),
            to: "OneShot".into(),
            cause: "device out of memory: requested 1 bytes, 0 available".into(),
        });
        assert_eq!(stats.events.len(), 1);
        let s = format!("{}", stats.events[0]);
        assert!(s.contains("Device -> OneShot"), "{s}");
    }
}
