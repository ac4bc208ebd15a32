//! The `synquid` binary's argument handling, run as a subprocess.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Runs the built `synquid` binary from the repository root.
fn synquid(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_synquid"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("the synquid binary runs")
}

#[test]
fn fuzzing_zero_cases_is_a_usage_error() {
    let out = synquid(&["fuzz", "specs/reverse.sq", "--cases", "0"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("--cases needs a positive integer"),
        "stderr: {stderr}"
    );
}

/// Runs the built `synquid` binary from the repository root, killing it
/// and failing after 60 s: a livelock fails the test instead of hanging
/// the test run.
fn synquid_within_a_minute(args: &[&str]) -> std::process::Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_synquid"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the synquid binary runs");
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().expect("the child can be polled").is_none() {
        if Instant::now() >= deadline {
            child.kill().expect("the child can be killed");
            child.wait().expect("the killed child is reaped");
            panic!("`synquid {}` still ran after 60 s", args.join(" "));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("the output is readable")
}

/// A zero budget funds no slice, so every rung is recorded out of budget
/// without running and the goal times out at once. An empty slice that
/// is re-queued instead spins forever.
#[test]
fn a_zero_budget_times_out_at_once() {
    let out = synquid_within_a_minute(&["--timeout", "0", "specs/is_empty.sq"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout: {stdout}");
    assert!(
        stdout.contains("no solution within 0s (timed out)"),
        "stdout: {stdout}"
    );
}

/// With a zero budget no rung runs, so the trace holds no forensics for
/// the goal: `explain` says that the budget funded no rung instead of
/// ending its forensics section empty.
#[test]
fn explain_says_when_the_budget_funded_no_rung() {
    let out =
        synquid_within_a_minute(&["explain", "is_empty", "specs/is_empty.sq", "--timeout", "0"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout: {stdout}");
    assert!(
        stdout.contains("the budget funded no rung: 5 rungs out of budget"),
        "stdout: {stdout}"
    );
}
