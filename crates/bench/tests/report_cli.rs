//! The `report` binary's command line: a numeric flag whose value is
//! missing or malformed is a usage error (exit 2), never the default,
//! and so is any argument the subcommand does not take.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A one-event trace file, unique to `name`.
fn one_line_trace(name: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("report-cli-{name}.jsonl"));
    std::fs::write(
        &path,
        "{\"ev\":\"trace_meta\",\"seq\":0,\"t_ms\":0.0,\"tid\":0,\"schema\":4}\n",
    )
    .expect("write trace");
    path
}

fn report(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_report"))
        .args(args)
        .output()
        .expect("run report")
}

#[test]
fn a_well_formed_numeric_flag_is_accepted() {
    let trace = one_line_trace("valid");
    let out = report(&["trace", trace.to_str().unwrap(), "--top", "3"]);
    std::fs::remove_file(&trace).ok();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn a_malformed_or_missing_numeric_flag_exits_2() {
    let trace = one_line_trace("malformed");
    let path = trace.to_str().unwrap();
    for args in [
        vec!["trace", path, "--top", "zz"],
        vec!["trace", path, "--top", "-1"],
        vec!["trace", path, "--top"],
    ] {
        let out = report(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("--top"), "{args:?}: {stderr}");
    }
    std::fs::remove_file(&trace).ok();
}

#[test]
fn an_unknown_flag_a_missing_value_or_a_surplus_argument_exits_2() {
    let trace = one_line_trace("unknown");
    let path = trace.to_str().unwrap();
    for (args, named) in [
        (vec!["trace", path, "--tpo", "3"], "--tpo"),
        (vec!["trace", path, "--top", "3", "extra"], "extra"),
        (vec!["trace", path, "--perfetto"], "--perfetto"),
    ] {
        let out = report(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(named), "{args:?}: {stderr}");
    }
    std::fs::remove_file(&trace).ok();
}
