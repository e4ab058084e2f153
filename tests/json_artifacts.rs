//! Every JSON file the repository commits was written by the registry
//! crate the in-tree module replaced; the module must read each one and
//! write the same bytes back. That pins, against files this code did not
//! produce, the float text (`96.58628399999999`, `1.0`), the field order
//! of every persisted type, `null` for an absent violation, and the pretty
//! layout.
//!
//! Each file goes through its *typed* reader and writer, so a field a
//! hand-written conversion forgot, renamed or reordered shows up as a diff.
//! (The typed round trips of generated scenarios and the sparse fault plan
//! live beside their types, in `tempi-chaos` and `mpi-sim`.)

use std::path::Path;

use tempi_bench::guidelines::GuidelineRow;
use tempi_bench::{BenchRow, ScaleRow};
use tempi_chaos::CorpusEntry;
use tempi_trace::json::{self, FromJson, ToJson};

/// Read `path` (relative to the repository root) as a `T` and check that
/// writing it back reproduces the file.
fn reemits<T: FromJson + ToJson>(path: &str) {
    let text = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(path))
        .unwrap_or_else(|e| panic!("{path}: {e}"));
    let typed: T = json::from_str(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    let written = typed.to_json().pretty() + "\n";
    assert!(written == text, "{path} does not re-emit byte for byte");
    // and the untyped tree says the same: nothing in the file was skipped
    assert_eq!(json::parse(&text).unwrap(), typed.to_json(), "{path}");
}

#[test]
fn bench_rows_and_their_baselines_reemit_byte_for_byte() {
    reemits::<Vec<BenchRow>>("BENCH_send.json");
    reemits::<Vec<BenchRow>>("results/BENCH_send.baseline.json");
    reemits::<Vec<ScaleRow>>("BENCH_scale.json");
    reemits::<Vec<ScaleRow>>("results/BENCH_scale.baseline.json");
    reemits::<Vec<GuidelineRow>>("BENCH_guidelines.json");
    reemits::<Vec<GuidelineRow>>("results/BENCH_guidelines.baseline.json");
}

#[test]
fn the_chaos_corpus_reemits_byte_for_byte() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("chaos/corpus");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.ends_with(".json"))
        .collect();
    names.sort();
    assert_eq!(names.len(), 4, "{names:?}");
    for name in names {
        reemits::<CorpusEntry>(&format!("chaos/corpus/{name}"));
    }
}
