//! End-to-end test of the DDT performance-guidelines harness: runs the
//! expanded zoo on the Summit (Spectrum MPI) profile and pins the
//! verdict set the seed produces — the same facts the committed
//! `BENCH_guidelines.json` records at full vendor coverage, which CI
//! regenerates and diffs byte for byte.

use tempi_bench::guidelines::{render_report, run_cell, run_zoo, violations, GUIDELINE_TOL as TOL};
use tempi_bench::{zoo, Platform};
use tempi_trace::json::ToJson;

#[test]
fn summit_zoo_verdicts_are_pinned() {
    let rows = run_zoo(&[Platform::Summit], TOL).unwrap();
    assert_eq!(rows.len(), zoo().len());

    for r in &rows {
        let (key, v) = (r.row_key(), r.eval);
        // G1: the typed send never loses to pack-then-send — in either
        // deployment, on any pattern (TEMPI's thesis, and even the
        // vendor baselines pack internally).
        assert!(v.g1_off && v.g1_on, "{key}: G1 violated: {r:?}");
        // G3/G4: TEMPI never introduces a violation, and
        // canonicalization never regresses a normalized layout.
        assert!(v.g3, "{key}: G3 violated: {r:?}");
        assert!(v.g4, "{key}: G4 violated: {r:?}");
        // every zoo pattern routes through a TEMPI plan (no fallbacks:
        // the expanded zoo exercises the paper's canonical coverage)
        assert!(
            r.normalized,
            "{}: plan {} is not normalized",
            r.row_key(),
            r.plan
        );
    }

    // G2 status quo: the vendor's typed path loses to the naive
    // element-wise loop on every non-contiguous pattern (the
    // Hunold/Träff finding TEMPI attacks) and satisfies it only on the
    // contiguous row.
    for r in &rows {
        assert_eq!(
            r.eval.g2_off,
            r.pattern.starts_with("row/"),
            "{}: unexpected off-side G2 verdict",
            r.row_key()
        );
    }

    // TEMPI-on fixes G2 everywhere: where a hand loop of a few big
    // contiguous messages would win, the model ships the object's runs as
    // they lie (the run cut) — except fig2d's 64 runs of 4 KiB, whose
    // train queues on the link where the loop's 64 messages are each
    // priced as if alone on it.
    let g2_on_violators: Vec<&str> = rows
        .iter()
        .filter(|r| !r.eval.g2_on)
        .map(|r| r.pattern.as_str())
        .collect();
    assert_eq!(
        g2_on_violators,
        ["fig2d/1|4096|64"],
        "the pinned G2[on] violation set changed"
    );

    // the worst surviving violation is the off-side status quo, and the
    // report names the build-failing count as zero
    let v = violations(&rows);
    assert!(!v.is_empty());
    assert!(v.iter().all(|x| x.guideline != "G3" && x.guideline != "G4"));
    assert!(v[0].guideline.starts_with("G2"));
    let report = render_report(&rows, TOL);
    assert!(report.contains("0 G3 violation(s)"), "{report}");
}

#[test]
fn guideline_measurements_are_deterministic() {
    // the whole gate rests on virtual-time reproducibility: two fresh
    // runs of one cell must agree to the picosecond
    let soa = "struct([512,512,512,512],[0,4096,8192,12288],[byte,byte,byte,byte])";
    let pattern = &soa.parse().unwrap();
    let a = run_cell(Platform::Summit, "soa/4x512@4096", pattern, TOL).unwrap();
    let b = run_cell(Platform::Summit, "soa/4x512@4096", pattern, TOL).unwrap();
    assert_eq!((a.size_bytes, a.nblocks), (4 * 512, 4));
    assert_eq!(a.to_json().to_string(), b.to_json().to_string());
}

#[test]
fn tolerance_knob_widens_the_gate() {
    // the fig2d/1|4096|64 G2[on] miss is ~1.26x: a 99%-tolerance run must
    // clear it, proving the `tol` parameter reaches the verdicts.
    let (label, pattern) = &zoo()[7];
    assert_eq!(*label, "fig2d/1|4096|64");
    let tight = run_cell(Platform::Summit, label, pattern, TOL).unwrap();
    let loose = run_cell(Platform::Summit, label, pattern, 0.99).unwrap();
    assert!(!tight.eval.g2_on && tight.eval.worst_ratio > 1.0);
    assert!(loose.eval.g2_on, "{loose:?}");
    assert!(loose.eval.g1_on && loose.eval.g3 && loose.eval.g4);
}
