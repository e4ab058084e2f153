//! Scenario grammar: a seeded workload × a list of scripted fault events.
//!
//! A [`Scenario`] is the unit the chaos engine runs, the shrinker
//! minimizes and the corpus persists. Everything in it is plain data —
//! the same JSON replays the same virtual-time run byte for byte, which
//! is what makes a committed reproducer a regression test rather than a
//! flake.

use gpu_sim::fault::splitmix64;
use gpu_sim::SimTime;
use mpi_sim::{FaultPlan, FaultSite, RankExit, ScopedFault};
use tempi_trace::json::{self, FromJson, ToJson, Value};

/// The application the scenario drives under faults.
///
/// Each workload exercises a different slice of the stack and therefore a
/// different set of invariants: `SendStorm` the datatype/method ladder and
/// the integrity envelope, `StencilRecovery` the ULFM
/// revoke/agree/shrink/restore machinery, `CheckpointCycle` the
/// agreement-gated commit and the spill path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A ring of datatype-accelerated sends: every rank sends `messages`
    /// rounds of the datatype zoo (contiguous, vector, subarray) to its
    /// successor and byte-checks what arrives from its predecessor.
    SendStorm {
        /// Rounds of the full zoo per rank.
        messages: u32,
    },
    /// Fill, then two iterations of checkpoint + halo exchange with
    /// ULFM-style recovery around the scheduled deaths; survivors
    /// byte-check the recovered grid against the serial oracle.
    StencilRecovery {
        /// Local interior cells per dimension.
        n: usize,
    },
    /// Repeated checkpoint + exchange rounds, each committing a generation
    /// with a spill directory; every cycle re-reads this rank's spilled
    /// frame and requires corruption, if injected, to surface as a typed
    /// error.
    CheckpointCycle {
        /// Number of checkpoint generations committed.
        cycles: u32,
    },
}

/// `{"tag": body}`: an externally tagged enum variant with a payload.
fn tagged(tag: &str, body: Value) -> Value {
    Value::object([(tag, body)])
}

/// Externally tagged: `{"SendStorm": {"messages": 2}}`.
impl ToJson for Workload {
    fn to_json(&self) -> Value {
        match *self {
            Workload::SendStorm { messages } => tagged(
                "SendStorm",
                Value::object([("messages", messages.to_json())]),
            ),
            Workload::StencilRecovery { n } => {
                tagged("StencilRecovery", Value::object([("n", n.to_json())]))
            }
            Workload::CheckpointCycle { cycles } => tagged(
                "CheckpointCycle",
                Value::object([("cycles", cycles.to_json())]),
            ),
        }
    }
}

impl FromJson for Workload {
    fn from_json(v: &Value) -> Result<Workload, json::Error> {
        Ok(match v.variant()? {
            ("SendStorm", body) => Workload::SendStorm {
                messages: body.field("messages")?,
            },
            ("StencilRecovery", body) => Workload::StencilRecovery {
                n: body.field("n")?,
            },
            ("CheckpointCycle", body) => Workload::CheckpointCycle {
                cycles: body.field("cycles")?,
            },
            (other, _) => return Err(json::Error(format!("unknown workload `{other}`"))),
        })
    }
}

/// One schedulable fault event — the shrinker's unit of minimization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosEvent {
    /// A scripted single-shot fault: rank × site × call ordinal.
    Fault(ScopedFault),
    /// A scheduled rank death at a virtual time.
    Exit {
        /// The world rank that dies.
        rank: usize,
        /// Virtual time of death, in microseconds.
        at_us: u64,
    },
}

/// Externally tagged: `{"Fault": {..}}` or `{"Exit": {"rank": 4, "at_us": 250}}`.
impl ToJson for ChaosEvent {
    fn to_json(&self) -> Value {
        match *self {
            ChaosEvent::Fault(f) => tagged("Fault", f.to_json()),
            ChaosEvent::Exit { rank, at_us } => tagged(
                "Exit",
                Value::object([("rank", rank.to_json()), ("at_us", at_us.to_json())]),
            ),
        }
    }
}

impl FromJson for ChaosEvent {
    fn from_json(v: &Value) -> Result<ChaosEvent, json::Error> {
        Ok(match v.variant()? {
            ("Fault", body) => ChaosEvent::Fault(ScopedFault::from_json(body)?),
            ("Exit", body) => ChaosEvent::Exit {
                rank: body.field("rank")?,
                at_us: body.field("at_us")?,
            },
            (other, _) => return Err(json::Error(format!("unknown event `{other}`"))),
        })
    }
}

/// Virtual microseconds that bound a generated `StencilRecovery` run's
/// deaths: a fault-free `n = 6` run ends at 314 µs at 6 and at 8 ranks (the
/// engine's tests measure it), so exits drawn below this cover all of it
/// and 8 % past its end, where a death never fires.
pub(crate) const STENCIL_RUN_US: u64 = 340;

/// A complete, reproducible chaos run description.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Seed: mixed into the fault plan and (for generated scenarios) the
    /// source of every other field.
    pub seed: u64,
    /// World size.
    pub ranks: usize,
    /// The workload under test.
    pub workload: Workload,
    /// Scripted fault events (the shrinker minimizes this list).
    pub events: Vec<ChaosEvent>,
    /// Run with the end-to-end integrity envelope enabled.
    pub integrity: bool,
    /// Transient-fault retry budget handed to the fault plan.
    pub max_retries: u32,
}

impl ToJson for Scenario {
    fn to_json(&self) -> Value {
        Value::object([
            ("seed", self.seed.to_json()),
            ("ranks", self.ranks.to_json()),
            ("workload", self.workload.to_json()),
            ("events", self.events.to_json()),
            ("integrity", self.integrity.to_json()),
            ("max_retries", self.max_retries.to_json()),
        ])
    }
}

/// Only the workload is required; every other missing field reads as its
/// type's default.
impl FromJson for Scenario {
    fn from_json(v: &Value) -> Result<Scenario, json::Error> {
        Ok(Scenario {
            seed: v.field_or_default("seed")?,
            ranks: v.field_or_default("ranks")?,
            workload: v.field("workload")?,
            events: v.field_or_default("events")?,
            integrity: v.field_or_default("integrity")?,
            max_retries: v.field_or_default("max_retries")?,
        })
    }
}

impl Scenario {
    /// Lower the scenario to the `mpi-sim` fault plan it runs under.
    pub fn to_plan(&self) -> FaultPlan {
        let mut plan = FaultPlan {
            seed: self.seed,
            max_retries: self.max_retries,
            ..FaultPlan::default()
        };
        for ev in &self.events {
            match *ev {
                ChaosEvent::Fault(f) => plan.scoped.push(f),
                ChaosEvent::Exit { rank, at_us } => plan.rank_exits.push(RankExit {
                    rank,
                    at: SimTime::from_us(at_us),
                }),
            }
        }
        plan
    }

    /// World ranks with a scheduled death, deduplicated and sorted.
    pub fn scheduled_dead(&self) -> Vec<usize> {
        let mut dead: Vec<usize> = self
            .events
            .iter()
            .filter_map(|ev| match ev {
                ChaosEvent::Exit { rank, .. } => Some(*rank),
                _ => None,
            })
            .collect();
        dead.sort_unstable();
        dead.dedup();
        dead
    }

    /// A fresh scenario with the same configuration but a different event
    /// list — how the shrinker re-instantiates candidates.
    pub fn with_events(&self, events: Vec<ChaosEvent>) -> Scenario {
        Scenario {
            events,
            ..self.clone()
        }
    }

    /// Generate the `index`-th random scenario of a seeded campaign.
    ///
    /// Deterministic: `(seed, index)` fully determines the result. The
    /// generator is deliberately conservative about which sites it pairs
    /// with which workload — every generated scenario is *expected* to
    /// hold all invariants, so any violation the campaign finds is a real
    /// bug (scripted known-violating scenarios live in the corpus
    /// instead).
    pub fn generate(seed: u64, index: u64) -> Scenario {
        let mut rng = Rng::new(seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let ranks: usize = [4, 6, 8][rng.below(3) as usize];
        let workload = match rng.below(3) {
            0 => Workload::SendStorm {
                messages: 2 + rng.below(3) as u32,
            },
            1 => Workload::StencilRecovery { n: 6 },
            _ => Workload::CheckpointCycle {
                cycles: 2 + rng.below(2) as u32,
            },
        };
        let mut events = Vec::new();
        let n_faults = 2 + rng.below(6) as usize;
        for _ in 0..n_faults {
            events.push(ChaosEvent::Fault(ScopedFault {
                rank: rng.below(ranks as u64) as usize,
                site: random_site(&mut rng, workload),
                at_call: rng.below(4),
            }));
        }
        // Deaths only where the workload recovers from them; keep at
        // least four survivors so every re-decomposition has room.
        let allowed_dead = ranks.saturating_sub(4).min(2) as u64;
        if let Workload::StencilRecovery { .. } = workload {
            if allowed_dead > 0 && rng.below(2) == 1 {
                let n_dead = 1 + rng.below(allowed_dead) as usize;
                let mut dead = Vec::new();
                while dead.len() < n_dead {
                    let r = rng.below(ranks as u64) as usize;
                    if !dead.contains(&r) {
                        dead.push(r);
                    }
                }
                // Deaths land anywhere in the run — set-up, snapshot,
                // exchange, agreement, restore — or just past its end,
                // where they never fire.
                for rank in dead {
                    events.push(ChaosEvent::Exit {
                        rank,
                        at_us: rng.below(STENCIL_RUN_US),
                    });
                }
            }
        }
        Scenario {
            seed: seed ^ index,
            ranks,
            workload,
            events,
            integrity: true,
            max_retries: 3,
        }
    }
}

/// Sites that are survivable under the given workload: the generated
/// campaign only schedules faults the stack claims to absorb (degrade,
/// retry, NACK or surface as a typed error), so a violation is a bug.
/// `Alloc`/`Copy` faults can hit the *application's* own allocations and
/// copies, which nothing absorbs by contract — they stay available for
/// hand-scripted scenarios but out of the generated campaign.
fn random_site(rng: &mut Rng, workload: Workload) -> FaultSite {
    use FaultSite::*;
    let sites = match workload {
        // Corrupt is survivable here because generated scenarios run
        // with the integrity envelope on.
        Workload::SendStorm { .. } => [Kernel, Send, Recv, Corrupt],
        Workload::StencilRecovery { .. } => [Kernel, Send, Recv, Corrupt],
        Workload::CheckpointCycle { .. } => [Kernel, Send, Recv, Spill],
    };
    sites[rng.below(4) as usize]
}

/// Splitmix64: the deterministic generator behind `Scenario::generate`.
///
/// Self-contained on purpose — scenario generation must never depend on
/// an external RNG's version-to-version stream stability.
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Seeded generator.
    pub fn new(seed: u64) -> Rng {
        Rng { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let z = splitmix64(self.state);
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z
    }

    /// Uniform in `0..bound` (`bound` > 0).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = Scenario::generate(42, 7);
        let b = Scenario::generate(42, 7);
        assert_eq!(a, b);
        assert_eq!(a.to_json().to_string(), b.to_json().to_string());
        let c = Scenario::generate(42, 8);
        assert_ne!(a, c, "different indices must differ");
    }

    #[test]
    fn scenarios_roundtrip_through_json() {
        for i in 0..20 {
            let sc = Scenario::generate(1337, i);
            let back: Scenario = json::from_str(&sc.to_json().to_string()).unwrap();
            assert_eq!(sc, back, "index {i}");
        }
    }

    #[test]
    fn plan_lowering_carries_every_event() {
        let sc = Scenario {
            seed: 9,
            ranks: 8,
            workload: Workload::StencilRecovery { n: 6 },
            events: vec![
                ChaosEvent::Fault(ScopedFault {
                    rank: 3,
                    site: FaultSite::Corrupt,
                    at_call: 1,
                }),
                ChaosEvent::Exit {
                    rank: 5,
                    at_us: 7_500,
                },
            ],
            integrity: true,
            max_retries: 5,
        };
        let plan = sc.to_plan();
        assert_eq!(plan.seed, 9);
        assert_eq!(plan.max_retries, 5);
        assert_eq!(plan.scoped.len(), 1);
        assert_eq!(plan.rank_exits.len(), 1);
        assert_eq!(plan.rank_exits[0].rank, 5);
        assert_eq!(plan.rank_exits[0].at, SimTime::from_us(7_500));
        assert!(plan.is_active());
        assert_eq!(sc.scheduled_dead(), vec![5]);
    }

    #[test]
    fn generated_scenarios_keep_enough_survivors() {
        for i in 0..200 {
            let sc = Scenario::generate(7, i);
            let dead = sc.scheduled_dead();
            assert!(
                sc.ranks - dead.len() >= 4,
                "index {i}: {} ranks, {} deaths",
                sc.ranks,
                dead.len()
            );
            for ev in &sc.events {
                match *ev {
                    ChaosEvent::Fault(f) => assert!(f.rank < sc.ranks),
                    ChaosEvent::Exit { at_us, .. } => assert!(at_us < STENCIL_RUN_US),
                }
            }
        }
    }
}
