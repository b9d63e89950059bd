//! Front-door checks: bad flags and bad seeds exit with a usage error
//! (code 2), never a panic, and print no result line.

use std::process::Command;

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_pipebench"))
        .args(args)
        .output()
        .expect("benchmark binary runs")
}

#[test]
fn bad_arguments_exit_with_a_usage_error() {
    for args in [
        &["--workload", "triage", "--seed", "-3"][..],
        &["--workload", "triage", "--seed", "abc"],
        &["--workload", "triage", "--seed", "99999999999999999999"],
        &["--workload", "triage"],
        &["--workload", "bogus", "--seed", "1"],
        &["--workload", "triage", "--seed", "1", "--bogus", "1"],
        &["--workload", "triage", "--seed", "1", "--trace", "yes"],
        &["--workload", "triage", "--seed", "1", "--seconds", "0"],
        &["--workload", "triage", "--seed"],
        &[],
    ] {
        let out = run(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
