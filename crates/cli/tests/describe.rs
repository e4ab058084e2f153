//! `tempi-cli describe` exit codes: a spec that does not parse is a usage
//! error (exit 2); one that parses but the registry rejects exits 1.

use std::process::{Command, Output, Stdio};

fn describe(spec: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tempi-cli"))
        .args(["describe", spec])
        .output()
        .expect("tempi-cli runs")
}

#[test]
fn subarray_lists_of_different_lengths_are_a_parse_error() {
    let out = describe("subarray([4,4],[2],[0,0],byte)");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("subarray argument lists differ in length: [2, 1, 2] at byte 9"),
        "{err}"
    );
}

#[test]
fn a_subarray_the_registry_rejects_exits_1_and_a_valid_one_pastes_back() {
    assert_eq!(
        describe("subarray([4],[9],[0],byte)").status.code(),
        Some(1)
    );
    let spec = "subarray_fortran([8, 8], [2, 4], [1, 2], byte)";
    let out = describe(spec);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains(&format!("construction : {spec}\n")),
        "{stdout}"
    );
}

/// A reader that stops early ends every subcommand quietly: exit 0 and
/// nothing on standard error, where a print to a closed pipe would panic.
#[test]
fn a_closed_standard_output_ends_the_process_quietly() {
    for args in [
        &["describe", "vector(13, 100, 256, byte)"][..],
        &["model", "4194304", "32"],
        &["spec-help"],
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_tempi-cli"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("tempi-cli runs");
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("tempi-cli ends");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!((out.status.code(), &*err), (Some(0), ""), "{args:?}");
    }
}
