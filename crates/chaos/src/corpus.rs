//! The reproducer corpus: minimized failing scenarios committed to the
//! repository and replayed as regression tests.
//!
//! Every entry is one JSON file under `chaos/corpus/`. Two statuses:
//!
//! * `"fixed"` — the scenario used to violate an invariant and was fixed;
//!   replay must now hold **every** oracle.
//! * `"open"` — the scenario documents a known, accepted gap (e.g. what
//!   corruption does when the integrity envelope is off); replay must
//!   still reproduce the recorded violation, so the corpus notices the
//!   day the gap closes — or silently reopens under a different symptom.

use std::path::{Path, PathBuf};

use crate::engine::run_scenario;
use crate::oracle::Violation;
use crate::scenario::Scenario;
use tempi_trace::json::{self, FromJson, ToJson, Value};

/// One corpus file: a scenario plus what we expect of it.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusEntry {
    /// Stable name (also the file stem).
    pub name: String,
    /// `"fixed"` or `"open"` (see module docs).
    pub status: String,
    /// The minimized scenario to replay.
    pub scenario: Scenario,
    /// For `"open"` entries: the violation replay must reproduce (matched
    /// by oracle name and rank).
    pub violation: Option<Violation>,
}

impl ToJson for CorpusEntry {
    fn to_json(&self) -> Value {
        Value::object([
            ("name", self.name.to_json()),
            ("status", self.status.to_json()),
            ("scenario", self.scenario.to_json()),
            ("violation", self.violation.to_json()),
        ])
    }
}

impl FromJson for CorpusEntry {
    fn from_json(v: &Value) -> Result<CorpusEntry, json::Error> {
        Ok(CorpusEntry {
            name: v.field("name")?,
            status: v.field("status")?,
            scenario: v.field("scenario")?,
            violation: v.field_or_default("violation")?,
        })
    }
}

/// Write one entry as pretty JSON (stable field order — the shrinker's
/// determinism guarantee extends to the committed artifact).
pub fn save(path: &Path, entry: &CorpusEntry) -> Result<(), String> {
    std::fs::write(path, entry.to_json().pretty() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Load one entry.
pub fn load(path: &Path) -> Result<CorpusEntry, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Load every `*.json` corpus entry under `dir` (trace dumps are
/// `*.trace.json` and are skipped), sorted by file name for stable
/// replay order.
pub fn load_dir(dir: &Path) -> Result<Vec<(PathBuf, CorpusEntry)>, String> {
    let mut entries = Vec::new();
    let rd = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = rd
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.extension().is_some_and(|x| x == "json")
                && !p
                    .file_name()
                    .is_some_and(|n| n.to_string_lossy().ends_with(".trace.json"))
        })
        .collect();
    paths.sort();
    for p in paths {
        let entry = load(&p)?;
        entries.push((p, entry));
    }
    Ok(entries)
}

/// Replay one corpus entry under its recorded seed and check the
/// expectation its status encodes. `Ok(())` means the corpus still tells
/// the truth; `Err` explains the regression.
pub fn replay(entry: &CorpusEntry) -> Result<(), String> {
    let outcome = run_scenario(&entry.scenario);
    match entry.status.as_str() {
        "fixed" => {
            if outcome.ok() {
                Ok(())
            } else {
                Err(format!(
                    "fixed reproducer `{}` regressed: {}",
                    entry.name,
                    outcome
                        .violations
                        .iter()
                        .map(|v| v.to_string())
                        .collect::<Vec<_>>()
                        .join("; ")
                ))
            }
        }
        "open" => {
            let Some(expected) = &entry.violation else {
                return Err(format!(
                    "open entry `{}` records no violation to reproduce",
                    entry.name
                ));
            };
            let reproduced = outcome
                .violations
                .iter()
                .any(|v| v.oracle == expected.oracle && v.rank == expected.rank);
            if reproduced {
                Ok(())
            } else if outcome.ok() {
                Err(format!(
                    "open entry `{}` no longer violates [{}] — the gap closed; \
                     promote it to status \"fixed\"",
                    entry.name, expected.oracle
                ))
            } else {
                Err(format!(
                    "open entry `{}` changed symptom: expected [{}] on rank {:?}, got {}",
                    entry.name,
                    expected.oracle,
                    expected.rank,
                    outcome
                        .violations
                        .iter()
                        .map(|v| v.to_string())
                        .collect::<Vec<_>>()
                        .join("; ")
                ))
            }
        }
        other => Err(format!(
            "entry `{}` has unknown status `{other}` (use \"fixed\" or \"open\")",
            entry.name
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ChaosEvent, Workload};
    use mpi_sim::{FaultSite, ScopedFault};

    fn entry(status: &str) -> CorpusEntry {
        CorpusEntry {
            name: "test-entry".into(),
            status: status.into(),
            scenario: Scenario {
                seed: 1,
                ranks: 4,
                workload: Workload::SendStorm { messages: 1 },
                events: vec![ChaosEvent::Fault(ScopedFault {
                    rank: 1,
                    site: FaultSite::Corrupt,
                    at_call: 0,
                })],
                integrity: false,
                max_retries: 3,
            },
            violation: Some(Violation {
                oracle: crate::oracle::oracle::BYTE_EXACT.into(),
                rank: Some(1),
                detail: String::new(),
            }),
        }
    }

    #[test]
    fn entries_roundtrip_through_files() {
        let dir = std::env::temp_dir().join(format!("tempi-chaos-corpus-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let e = entry("open");
        let path = dir.join("test-entry.json");
        save(&path, &e).unwrap();
        // a trace dump must not be picked up as an entry
        std::fs::write(dir.join("test-entry.trace.json"), "[]").unwrap();
        let loaded = load_dir(&dir).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].1, e);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_entries_must_reproduce_their_violation() {
        assert!(replay(&entry("open")).is_ok());
        // the same scenario as "fixed" must fail replay
        let err = replay(&entry("fixed")).unwrap_err();
        assert!(err.contains("regressed"), "{err}");
    }

    #[test]
    fn unknown_status_is_rejected() {
        assert!(replay(&entry("wontfix"))
            .unwrap_err()
            .contains("unknown status"));
    }
}
