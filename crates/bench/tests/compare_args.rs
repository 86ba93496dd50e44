//! `compare-bench` checks its arguments before running any comparison: a
//! bad invocation exits with status 2 at once and writes no ledger line.

use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

/// Runs `compare-bench --out <fresh path> args…`; returns its exit code,
/// how long it took, and whether the `--out` file exists afterwards.
fn run(case: &str, args: &[&str]) -> (Option<i32>, Duration, bool) {
    let out: PathBuf =
        std::env::temp_dir().join(format!("compare-args-{}-{case}.json", std::process::id()));
    let _ = std::fs::remove_file(&out);
    let t0 = Instant::now();
    let status = Command::new(env!("CARGO_BIN_EXE_compare-bench"))
        .arg("--out")
        .arg(&out)
        .args(args)
        .output()
        .expect("compare-bench runs")
        .status;
    (status.code(), t0.elapsed(), out.exists())
}

fn assert_rejected(case: &str, args: &[&str]) {
    let (code, took, wrote) = run(case, args);
    assert_eq!(code, Some(2), "{args:?}");
    assert!(took < Duration::from_secs(5), "{args:?} took {took:?}");
    assert!(!wrote, "{args:?} created the --out file");
}

#[test]
fn help_exits_2_without_running() {
    assert_rejected("help", &["share", "--help"]);
    assert_rejected("h", &["-h"]);
}

#[test]
fn unknown_comparison_exits_2() {
    assert_rejected("unknown", &["--quick", "shared"]);
    assert_rejected("none", &["--quick"]);
    assert_rejected("two", &["--quick", "sweep", "prune"]);
}

#[test]
fn unknown_flag_exits_2() {
    assert_rejected("typo", &["share", "--quick", "--tolerence", "50"]);
    // Settings that are constants now are unknown flags, not ignored.
    assert_rejected("budget", &["prune", "--quick", "--budget", "2k"]);
}

#[test]
fn missing_flag_value_exits_2() {
    assert_rejected("tag", &["eog", "--quick", "--tag"]);
}
