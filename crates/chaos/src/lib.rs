//! `tempi-chaos` — a deterministic chaos engine for the TEMPI
//! reproduction.
//!
//! The fault-tolerance layers (degradation ladder, integrity envelope,
//! ULFM recovery, checkpoint/restart) are each tested in isolation; this
//! crate tests their *composition*. A seeded [`Scenario`] pairs a
//! workload (a datatype send storm, a stencil with recovery, a
//! checkpoint cycle) with a randomized multi-site fault plan, runs it in
//! a virtual-time world (where a wedged schedule is a typed deadlock
//! verdict, not a hang), and judges the run with invariant [`oracle`]s: byte-exactness against a serial oracle,
//! no hangs, balanced trace spans, monotone ULFM epochs, and nothing
//! leaked at teardown.
//!
//! When a scenario violates an invariant, the [`mod@shrink`] module
//! delta-debugs its event list down to a 1-minimal reproducer —
//! deterministically, so the same seed always shrinks to the same bytes
//! — and the [`corpus`] module persists it under `chaos/corpus/` where
//! it replays forever as a regression test.
//!
//! Everything is virtual-time and single-process: a "hang" costs
//! milliseconds of wall clock and comes back as a typed
//! [`mpi_sim::MpiError::Deadlock`] naming the stuck ranks and their
//! pending operations.

pub mod corpus;
pub mod engine;
pub mod oracle;
pub mod scenario;
pub mod shrink;

pub use corpus::CorpusEntry;
pub use engine::{dump_failure, run_scenario, Outcome};
pub use oracle::{RankReport, Violation};
pub use scenario::{ChaosEvent, Rng, Scenario, Workload};
pub use shrink::{ddmin, shrink, Shrunk};
