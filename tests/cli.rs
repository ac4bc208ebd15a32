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

/// A zero budget funds no slice, so every rung is recorded out of budget
/// without running and the goal times out at once. An empty slice that
/// is re-queued instead spins forever; the watchdog turns such a
/// livelock into a failure instead of a hung test run.
#[test]
fn a_zero_budget_times_out_at_once() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_synquid"))
        .args(["--timeout", "0", "specs/is_empty.sq"])
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
            panic!("`synquid --timeout 0 specs/is_empty.sq` still ran after 60 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("the output is readable");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout: {stdout}");
    assert!(
        stdout.contains("no solution within 0s (timed out)"),
        "stdout: {stdout}"
    );
}
