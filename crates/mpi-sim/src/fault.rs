//! Deterministic fault plans, per-rank injectors, and the degradation log.
//!
//! A [`FaultPlan`] describes *what can go wrong* in a run: one
//! [`SiteSpec`] per row of the site table ([`FaultSite`]: GPU allocation
//! OOM, kernel/copy stream faults, transient send/recv failures, in-transit
//! and spill-file corruption), extra network latency, and ranks exiting at
//! chosen virtual times. Every decision is a pure function of the plan's
//! seed, the rank, the site, and that site's call ordinal — never the wall
//! clock or a global RNG — so a schedule replays identically for a fixed
//! seed.
//!
//! A [`FaultInjector`] is the per-rank instantiation of a plan: one seeded
//! [`SiteInjector`] decides every site, shared with the rank's device when
//! a GPU site is active, and the injector keeps the rank exits, the retry
//! budget and backoff, and the delay coin. [`FaultStats`] counts what
//! actually fired and carries the [`DegradeEvent`] log that the TEMPI layer
//! appends to when it downgrades a send path; both are consulted only by
//! the reliability layer ([`crate::reliability`]), whose per-rank state
//! holds them.

use std::fmt;
use std::sync::Arc;

use gpu_sim::fault::splitmix64;
pub use gpu_sim::FaultSite;
use gpu_sim::{SimTime, SiteInjector, SiteSpec};
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
/// Written as a `--faults` spec ([`FaultPlan::parse`]) or lowered from a
/// chaos scenario, which is what the chaos engine persists and replays.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed mixed (with the rank) into every probabilistic decision.
    pub seed: u64,
    /// Every injection site's schedule, indexed by [`FaultSite`]; read
    /// through [`FaultPlan::site`] and [`FaultPlan::site_mut`].
    pub sites: [SiteSpec; FaultSite::COUNT],
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

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            sites: Default::default(),
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
        self.sites.iter().any(SiteSpec::is_active)
            || self.delay.is_active()
            || !self.rank_exits.is_empty()
            || !self.scoped.is_empty()
    }

    /// The schedule of `site`.
    #[must_use]
    pub fn site(&self, site: FaultSite) -> &SiteSpec {
        &self.sites[site as usize]
    }

    /// The schedule of `site`, to edit.
    pub fn site_mut(&mut self, site: FaultSite) -> &mut SiteSpec {
        &mut self.sites[site as usize]
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
                            FaultSite::from_key(key).ok_or_else(|| bad(clause, "unknown key"))?;
                        plan.site_mut(site).probability = parse_probability(val, clause)?;
                    }
                }
            } else if let Some((key, ord)) = clause.split_once('@') {
                let n: u64 = ord
                    .parse()
                    .map_err(|_| bad(clause, "call ordinal must be an integer"))?;
                let site = FaultSite::from_key(key).ok_or_else(|| bad(clause, "unknown site"))?;
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
    /// Completed agreements ([`RankCtx::agree`](crate::RankCtx::agree)) on
    /// this rank.
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

/// One rank's instance of a [`FaultPlan`]: the seeded [`SiteInjector`]
/// that decides every site, plus what the message path keeps for itself —
/// the rank exits, the retry budget and backoff, and the delay coin (which
/// carries a latency and has no `@N` form, so it is not a table row).
#[derive(Debug)]
pub struct FaultInjector {
    sites: Arc<SiteInjector>,
    rank_seed: u64,
    delay: DelaySpec,
    delay_calls: u64,
    rank_exits: Vec<RankExit>,
    max_retries: u32,
    backoff_base: SimTime,
}

impl FaultInjector {
    /// Instantiate `plan` for world rank `rank`: its scoped events merge
    /// into this rank's site ordinals, and every coin is drawn under a
    /// seed mixed from the plan's and the rank.
    #[must_use]
    pub fn new(plan: &FaultPlan, rank: usize) -> FaultInjector {
        let mut sites = plan.sites.clone();
        for ev in plan.scoped.iter().filter(|ev| ev.rank == rank) {
            let spec = &mut sites[ev.site as usize];
            if !spec.at_calls.contains(&ev.at_call) {
                spec.at_calls.push(ev.at_call);
            }
        }
        let rank_seed = splitmix64(plan.seed ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        FaultInjector {
            sites: Arc::new(SiteInjector::new(rank_seed, sites)),
            rank_seed,
            delay: plan.delay.clone(),
            delay_calls: 0,
            rank_exits: plan.rank_exits.clone(),
            max_retries: plan.max_retries,
            backoff_base: plan.backoff_base,
        }
    }

    /// The injector to install on the rank's device — the same one this
    /// rank draws from — if a GPU site is active.
    #[must_use]
    pub fn device_sites(&self) -> Option<&Arc<SiteInjector>> {
        let active = FaultSite::ALL
            .into_iter()
            .any(|site| site.on_device() && self.sites.spec(site).is_active());
        active.then_some(&self.sites)
    }

    /// Record one call at `site` and decide whether it fails.
    pub fn should_fail(&self, site: FaultSite) -> bool {
        self.sites.should_fail(site)
    }

    /// Record one call at `site` over a `len`-byte buffer and, when it
    /// fails, return the (byte index, flip mask) to apply — see
    /// [`SiteInjector::flip`]. Serves in-transit corruption and spill I/O.
    pub fn flip(&self, site: FaultSite, len: usize) -> Option<(usize, u8)> {
        self.sites.flip(site, len)
    }

    /// Record one delivery and return the extra latency to charge, if the
    /// delay site fires.
    pub fn extra_delay(&mut self) -> Option<SimTime> {
        if !self.delay.is_active() {
            return None;
        }
        let n = self.delay_calls;
        self.delay_calls += 1;
        let coin = SiteSpec::with_probability(self.delay.probability);
        // the delay coin's salt: "delay_nt"
        let fire = coin.decide(self.rank_seed, 0x6465_6c61_795f_6e74, n);
        fire.then_some(self.delay.latency)
    }

    /// The earliest scheduled exit time for `rank`, if any. Used by a rank
    /// to notice its *own* death and by the runtime to stamp death notices
    /// with the scheduled instant (not the observer's clock), so every
    /// observer converges on the same virtual time.
    pub fn exit_time(&self, rank: usize) -> Option<SimTime> {
        self.rank_exits
            .iter()
            .filter(|e| e.rank == rank)
            .map(|e| e.at)
            .min()
    }

    /// Retry budget for transient p2p faults.
    pub fn max_retries(&self) -> u32 {
        self.max_retries
    }

    /// Backoff before retry number `attempt` (0-based): base × 2^attempt.
    pub fn backoff(&self, attempt: u32) -> SimTime {
        self.backoff_base * (1u64 << attempt.min(20))
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
        assert!((p.site(FaultSite::Alloc).probability - 0.25).abs() < 1e-12);
        assert_eq!(p.site(FaultSite::Kernel).at_calls, vec![3]);
        assert_eq!(p.site(FaultSite::Copy).at_calls, vec![0]);
        assert!((p.site(FaultSite::Send).probability - 0.5).abs() < 1e-12);
        assert!((p.site(FaultSite::Recv).probability - 0.125).abs() < 1e-12);
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
        // every site's clause key reaches that site's spec and no other
        let keys: Vec<&str> = FaultSite::ALL.iter().map(|s| s.key()).collect();
        assert_eq!(
            keys,
            ["alloc", "kernel", "copy", "send", "recv", "corrupt", "spill"]
        );
        for site in FaultSite::ALL {
            let key = site.key();
            let p = FaultPlan::parse(&format!("{key}=0.5,{key}@7,{key}@9")).unwrap();
            assert_eq!(
                p.site(site),
                &SiteSpec {
                    probability: 0.5,
                    at_calls: vec![7, 9]
                }
            );
            for other in FaultSite::ALL.into_iter().filter(|&o| o != site) {
                assert!(!p.site(other).is_active(), "{key} reached {other:?}");
            }
        }
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
        assert!((p.site(FaultSite::Corrupt).probability - 0.25).abs() < 1e-12);
        assert!(p.is_active());
        let p = FaultPlan::parse("corrupt@2").unwrap();
        assert_eq!(p.site(FaultSite::Corrupt).at_calls, vec![2]);
        assert!(p.is_active());
    }

    #[test]
    fn corrupt_flips_are_scripted_and_deterministic() {
        let plan = FaultPlan::parse("corrupt@0,corrupt@2").unwrap();
        let (a, b) = (FaultInjector::new(&plan, 1), FaultInjector::new(&plan, 1));
        let da: Vec<_> = (0..4).map(|_| a.flip(FaultSite::Corrupt, 64)).collect();
        let db: Vec<_> = (0..4).map(|_| b.flip(FaultSite::Corrupt, 64)).collect();
        assert_eq!(da, db, "same rank, same seed, same flips");
        assert!(da[0].is_some() && da[2].is_some());
        assert!(da[1].is_none() && da[3].is_none());
        let (idx, mask) = da[0].unwrap();
        assert!(idx < 64);
        assert_eq!(mask.count_ones(), 1, "exactly one bit flips");
        // zero-length payloads are never corrupted
        let c = FaultInjector::new(&FaultPlan::parse("corrupt=1.0").unwrap(), 0);
        assert_eq!(c.flip(FaultSite::Corrupt, 0), None);
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
        let a = FaultInjector::new(&plan, 1);
        let b = FaultInjector::new(&plan, 1);
        let c = FaultInjector::new(&plan, 2);
        let sa: Vec<bool> = (0..64).map(|_| a.should_fail(FaultSite::Send)).collect();
        let sb: Vec<bool> = (0..64).map(|_| b.should_fail(FaultSite::Send)).collect();
        let sc: Vec<bool> = (0..64).map(|_| c.should_fail(FaultSite::Send)).collect();
        assert_eq!(sa, sb, "same rank, same seed, same schedule");
        assert_ne!(sa, sc, "different ranks draw different coins");

        // Every coin pinned: the first 64 decisions of each site, bit `n`
        // set when call `n` fires, and the (byte index, mask) of the first
        // flip of each flipping site over a 64-byte buffer.
        let plan = FaultPlan::parse(
            "seed=42,alloc=0.5,kernel=0.5,copy=0.5,send=0.5,recv=0.5,corrupt=0.5,spill=0.5,delay=0.5:1us",
        )
        .unwrap();
        let mut inj = FaultInjector::new(&plan, 3);
        fn mask(mut fires: impl FnMut() -> bool) -> u64 {
            (0..64).fold(0, |m, n| m | (u64::from(fires()) << n))
        }
        let pinned = [
            (FaultSite::Alloc, 0x7f92_3ad4_1713_d9fd),
            (FaultSite::Kernel, 0x9f79_38f9_e597_022f),
            (FaultSite::Copy, 0x1da1_e9cc_2e62_0f6b),
            (FaultSite::Send, 0x6c5d_e017_d3cf_c01f),
            (FaultSite::Recv, 0x18d7_de3b_ad29_4bab),
        ];
        for (site, want) in pinned {
            let got = mask(|| inj.should_fail(site));
            assert_eq!(got, want, "{site:?}: {got:#x}");
        }
        let got = mask(|| inj.extra_delay().is_some());
        assert_eq!(got, 0xced4_ccff_2be6_7024, "delay: {got:#x}");
        for (site, want, first) in [
            (FaultSite::Corrupt, 0x10a4_0b14_a384_1888, (28, 64)),
            (FaultSite::Spill, 0xae76_8232_8781_8814, (31, 128)),
        ] {
            let mut flips = Vec::new();
            let got = mask(|| {
                let flip = inj.flip(site, 64);
                flips.extend(flip);
                flip.is_some()
            });
            assert_eq!(got, want, "{site:?}: {got:#x}");
            assert_eq!(flips.first(), Some(&first), "{site:?}");
        }
    }

    #[test]
    fn scripted_send_ordinals() {
        let inj = FaultInjector::new(&FaultPlan::parse("send@0,send@2").unwrap(), 0);
        assert!(inj.device_sites().is_none(), "no GPU site active");
        let fired: Vec<bool> = (0..4).map(|_| inj.should_fail(FaultSite::Send)).collect();
        assert_eq!(fired, vec![true, false, true, false]);
    }

    #[test]
    fn a_rank_exit_is_scheduled_for_that_rank_only() {
        let inj = FaultInjector::new(&FaultPlan::parse("exit=1@10us").unwrap(), 0);
        assert_eq!(inj.exit_time(1), Some(SimTime::from_us(10)));
        assert_eq!(inj.exit_time(0), None);
    }

    #[test]
    fn backoff_doubles() {
        let inj = FaultInjector::new(&FaultPlan::parse("backoff=10us").unwrap(), 0);
        assert_eq!(inj.backoff(0), SimTime::from_us(10));
        assert_eq!(inj.backoff(1), SimTime::from_us(20));
        assert_eq!(inj.backoff(3), SimTime::from_us(80));
    }

    #[test]
    fn the_device_gets_the_rank_injector_only_when_needed() {
        let inj = FaultInjector::new(&FaultPlan::parse("alloc@0,send@1").unwrap(), 0);
        let device = inj.device_sites().expect("a GPU site is active");
        // one injector: the device and the message path count together
        assert!(device.should_fail(FaultSite::Alloc));
        assert!(!inj.should_fail(FaultSite::Send));
        assert!(
            device.should_fail(FaultSite::Send),
            "call 1 follows the rank's call 0"
        );
        let inj = FaultInjector::new(&FaultPlan::parse("send=1.0").unwrap(), 0);
        assert!(inj.device_sites().is_none());
    }

    #[test]
    fn parse_spill_site() {
        let p = FaultPlan::parse("spill=0.5").unwrap();
        assert!((p.site(FaultSite::Spill).probability - 0.5).abs() < 1e-12);
        assert!(p.is_active());
        let p = FaultPlan::parse("spill@1").unwrap();
        assert_eq!(p.site(FaultSite::Spill).at_calls, vec![1]);
    }

    #[test]
    fn spill_flips_are_scripted_and_deterministic() {
        let plan = FaultPlan::parse("spill@1").unwrap();
        let (a, b) = (FaultInjector::new(&plan, 0), FaultInjector::new(&plan, 0));
        let da: Vec<_> = (0..3).map(|_| a.flip(FaultSite::Spill, 96)).collect();
        let db: Vec<_> = (0..3).map(|_| b.flip(FaultSite::Spill, 96)).collect();
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
        let (r0, r1) = (FaultInjector::new(&plan, 0), FaultInjector::new(&plan, 1));
        let s0: Vec<bool> = (0..4).map(|_| r0.should_fail(FaultSite::Send)).collect();
        let s1: Vec<bool> = (0..4).map(|_| r1.should_fail(FaultSite::Send)).collect();
        assert_eq!(s0, vec![false; 4], "send event is scoped to rank 1");
        assert_eq!(s1, vec![false, false, true, false]);
        assert!(
            r0.should_fail(FaultSite::Recv),
            "recv event is scoped to rank 0"
        );
        assert!(!r1.should_fail(FaultSite::Recv));
    }

    #[test]
    fn scoped_gpu_events_reach_the_device() {
        let mut plan = FaultPlan::default();
        plan.scoped.push(ScopedFault {
            rank: 0,
            site: FaultSite::Alloc,
            at_call: 0,
        });
        let inj = FaultInjector::new(&plan, 0);
        assert!(
            inj.device_sites().is_some(),
            "scoped alloc event activates the GPU side"
        );
        assert!(
            FaultInjector::new(&plan, 1).device_sites().is_none(),
            "other ranks stay clean"
        );
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
