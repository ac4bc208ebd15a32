//! The `synquid` binary's argument handling, run as a subprocess.

use std::process::Command;

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
