//! Chaos-engine integration tests: the committed reproducer corpus must
//! keep telling the truth, the shrinker must minimize deterministically,
//! and a slice of the random campaign must hold every invariant oracle.

use std::path::{Path, PathBuf};

use mpi_sim::{FaultSite, ScopedFault};
use tempi_chaos::corpus::{self, CorpusEntry};
use tempi_chaos::oracle::oracle;
use tempi_chaos::{run_scenario, shrink, ChaosEvent, Scenario, Workload};
use tempi_trace::json::ToJson;

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("chaos/corpus")
}

/// The shrinker-demo scenario: one silent-corruption event buried under a
/// dozen innocuous faults the stack absorbs (kernel kills degrade to the
/// CPU path, transient send/recv failures are retried). Only the
/// corruption violates an oracle, and only because the integrity envelope
/// is off — so the minimal reproducer is exactly that one event.
fn buried_corruption() -> Scenario {
    let mut events = Vec::new();
    for rank in 0..4 {
        events.push(ChaosEvent::Fault(ScopedFault {
            rank,
            site: FaultSite::Kernel,
            at_call: rank as u64 % 3,
        }));
        events.push(ChaosEvent::Fault(ScopedFault {
            rank,
            site: FaultSite::Send,
            at_call: 0,
        }));
        events.push(ChaosEvent::Fault(ScopedFault {
            rank,
            site: FaultSite::Recv,
            at_call: 1,
        }));
    }
    events.insert(
        7,
        ChaosEvent::Fault(ScopedFault {
            rank: 2,
            site: FaultSite::Corrupt,
            at_call: 1,
        }),
    );
    Scenario {
        seed: 12,
        ranks: 4,
        workload: Workload::SendStorm { messages: 2 },
        events,
        integrity: false,
        max_retries: 3,
    }
}

/// The scale scenario: a full SendStorm ring at 256 ranks — a world size
/// the thread-per-rank backend could not schedule — with a sprinkle of
/// scripted faults the stack absorbs (a transient send, a transient
/// receive, a kernel kill degrading one rank to the CPU pack path). The
/// oracles this pins under the event scheduler: no-hang (every rank's
/// spans close), span-balance (B/E pairing survives 256-way fiber
/// interleaving), no-leak (per-rank allocations return to baseline).
fn scaled_send_storm() -> Scenario {
    Scenario {
        seed: 0x5CA1E,
        ranks: 256,
        workload: Workload::SendStorm { messages: 1 },
        events: vec![
            ChaosEvent::Fault(ScopedFault {
                rank: 17,
                site: FaultSite::Send,
                at_call: 0,
            }),
            ChaosEvent::Fault(ScopedFault {
                rank: 99,
                site: FaultSite::Recv,
                at_call: 1,
            }),
            ChaosEvent::Fault(ScopedFault {
                rank: 203,
                site: FaultSite::Kernel,
                at_call: 0,
            }),
        ],
        integrity: true,
        max_retries: 3,
    }
}

#[test]
fn the_256_rank_storm_holds_every_oracle() {
    let outcome = run_scenario(&scaled_send_storm());
    assert!(
        outcome.ok(),
        "256-rank storm violated: {:?}",
        outcome.violations
    );
    assert_eq!(outcome.reports.len(), 256, "every rank must report");
}

#[test]
fn every_corpus_entry_replays_true() {
    let entries = corpus::load_dir(&corpus_dir()).expect("corpus must load");
    assert!(!entries.is_empty(), "the corpus must not be empty");
    for (path, entry) in entries {
        corpus::replay(&entry).unwrap_or_else(|e| panic!("{} failed replay: {e}", path.display()));
    }
}

#[test]
fn the_owner_and_buddy_entry_restores_generation_0_from_the_spill() {
    // Ranks 4 and 5 die just after generation 0 commits (245.95 µs), so
    // the survivors restore it, and world rank 2 must read block 4 — both
    // of whose in-memory copies died — from the spill file.
    let path = corpus_dir().join("recovery-kill-owner-and-buddy.json");
    let entry = corpus::load(&path).expect("the entry must load");
    let outcome = run_scenario(&entry.scenario);
    assert!(outcome.ok(), "{:?}", outcome.violations);
    let events = outcome.tracer.events();
    let spill: Vec<_> = events
        .iter()
        .filter(|e| e.name == "restore.spill")
        .map(|e| (e.pid, e.args.clone()))
        .collect();
    let want = vec![("generation", 0u64.into()), ("owner", 4u64.into())];
    assert_eq!(spill, vec![(2, want)]);
}

#[test]
fn shrinker_minimizes_buried_corruption_to_one_event() {
    let sc = buried_corruption();
    assert!(sc.events.len() >= 12, "the demo needs a big haystack");
    let shrunk = shrink(&sc).expect("the scenario must fail");
    assert!(
        shrunk.scenario.events.len() <= 3,
        "expected a <=3-event reproducer, got {:?}",
        shrunk.scenario.events
    );
    assert_eq!(
        shrunk.scenario.events,
        vec![ChaosEvent::Fault(ScopedFault {
            rank: 2,
            site: FaultSite::Corrupt,
            at_call: 1,
        })],
        "the needle is the only event that matters"
    );
    assert!(
        shrunk
            .violations
            .iter()
            .any(|v| v.oracle == oracle::BYTE_EXACT),
        "the minimized scenario must still show the original symptom, got {:?}",
        shrunk.violations
    );
}

#[test]
fn shrinking_is_deterministic_to_the_byte() {
    let sc = buried_corruption();
    let a = shrink(&sc).expect("must fail");
    let b = shrink(&sc).expect("must fail");
    assert_eq!(
        a.scenario.to_json().to_string(),
        b.scenario.to_json().to_string(),
        "same seed must shrink to byte-identical JSON"
    );
}

#[test]
fn a_campaign_slice_holds_every_invariant() {
    for index in 0..6 {
        let sc = Scenario::generate(0xC4A05, index);
        let outcome = run_scenario(&sc);
        assert!(
            outcome.ok(),
            "generated scenario {index} ({:?}) violated: {:?}",
            sc.workload,
            outcome.violations
        );
    }
}

/// Regenerate the committed corpus from first principles. Run manually
/// after an intentional scenario/format change:
///
/// ```text
/// cargo test --test chaos regenerate_corpus -- --ignored
/// ```
#[test]
#[ignore = "writes chaos/corpus/ — run explicitly after intentional changes"]
fn regenerate_corpus() {
    let dir = corpus_dir();
    std::fs::create_dir_all(&dir).unwrap();

    // 1. Open gap: silent corruption when the integrity envelope is off.
    //    The committed scenario is the *shrunk* reproducer, so the file
    //    also documents what the shrinker produces.
    let shrunk = shrink(&buried_corruption()).expect("must fail");
    let violation = shrunk
        .violations
        .iter()
        .find(|v| v.oracle == oracle::BYTE_EXACT)
        .cloned();
    corpus::save(
        &dir.join("corrupt-no-integrity.json"),
        &CorpusEntry {
            name: "corrupt-no-integrity".into(),
            status: "open".into(),
            scenario: shrunk.scenario.clone(),
            violation,
        },
    )
    .unwrap();

    // 2. The fix for (1): the same corruption with integrity on is
    //    absorbed by the NACK/retransmit handshake.
    let fixed = Scenario {
        integrity: true,
        ..shrunk.scenario
    };
    assert!(run_scenario(&fixed).ok());
    corpus::save(
        &dir.join("corrupt-integrity-absorbed.json"),
        &CorpusEntry {
            name: "corrupt-integrity-absorbed".into(),
            status: "fixed".into(),
            scenario: fixed,
            violation: None,
        },
    )
    .unwrap();

    // 3. The revoke-vs-checkpoint schedule: killing a checkpoint block's
    //    owner *and* buddy at the first operation after generation 0
    //    commits (245.95 µs) forces the spill fallback, and early death
    //    detection once raced the checkpoint's commit barrier into a
    //    recovery deadlock. Green since one agreement per round decides
    //    the commit, the shrink and the restored generation.
    let recovery = Scenario {
        seed: 31,
        ranks: 8,
        workload: Workload::StencilRecovery { n: 6 },
        events: vec![
            ChaosEvent::Exit {
                rank: 4,
                at_us: 246,
            },
            ChaosEvent::Exit {
                rank: 5,
                at_us: 246,
            },
        ],
        integrity: true,
        max_retries: 3,
    };
    assert!(run_scenario(&recovery).ok());
    corpus::save(
        &dir.join("recovery-kill-owner-and-buddy.json"),
        &CorpusEntry {
            name: "recovery-kill-owner-and-buddy".into(),
            status: "fixed".into(),
            scenario: recovery,
            violation: None,
        },
    )
    .unwrap();

    // 4. The event-scheduler scale entry: 256 ranks of SendStorm with
    //    absorbed faults must hold no-hang, span-balance and no-leak.
    //    Committed so every future scheduler change replays it.
    let scale = scaled_send_storm();
    assert!(run_scenario(&scale).ok());
    corpus::save(
        &dir.join("scale-256-send-storm.json"),
        &CorpusEntry {
            name: "scale-256-send-storm".into(),
            status: "fixed".into(),
            scenario: scale,
            violation: None,
        },
    )
    .unwrap();
}
