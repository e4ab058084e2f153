//! `tempi-cli send` reports what the fault plan did to each rank: a
//! corrupted transfer's NACKs and retransmits, and the time they cost,
//! are on the rank's line, so a clock past the fault-free one is
//! accounted for.

use std::process::Command;

/// `tempi-cli send SPEC ARGS..`'s standard output; the run must succeed.
fn send(spec: &str, args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_tempi-cli"))
        .arg("send")
        .arg(spec)
        .args(args)
        .output()
        .expect("tempi-cli runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    stdout
}

/// The line of `rank`, and the number that follows `counter ` on it.
fn counter(stdout: &str, rank: usize, counter: &str) -> u64 {
    let prefix = format!("rank {rank}        : ");
    let line = (stdout.lines().find(|l| l.starts_with(&prefix)))
        .unwrap_or_else(|| panic!("no line for rank {rank}:\n{stdout}"));
    let at = line.find(&format!(" {counter} ")).unwrap_or_else(|| {
        panic!("rank {rank}'s line has no `{counter}` counter: {line}");
    });
    let rest = &line[at + counter.len() + 2..];
    let digits = rest.split(|c: char| !c.is_ascii_digit()).next().unwrap();
    digits.parse().unwrap()
}

#[test]
fn a_corrupted_send_reports_its_nacks_and_retransmits() {
    let spec = "vector(4096, 512, 1024, byte)";
    let clean = send(spec, &[]);
    let faulty = send(spec, &["--faults", "seed=5,corrupt=0.3,retries=8"]);
    for name in ["corruptions", "nacks", "retransmits"] {
        assert_eq!(counter(&clean, 1, name), 0, "fault-free {name}:\n{clean}");
    }
    // the receiver detects each corrupted delivery, NACKs it and consumes
    // its retransmission
    let corruptions = counter(&faulty, 1, "corruptions");
    assert!(corruptions > 0, "{faulty}");
    assert_eq!(counter(&faulty, 1, "nacks"), corruptions, "{faulty}");
    assert_eq!(counter(&faulty, 1, "retransmits"), corruptions, "{faulty}");
    assert!(
        faulty.contains("verified against the CPU pack oracle"),
        "{faulty}"
    );
}
