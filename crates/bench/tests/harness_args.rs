//! `harness` checks its arguments before running any experiment: a bad
//! invocation exits with status 2 at once instead of after the suite.

use std::process::Command;
use std::time::{Duration, Instant};

/// Runs `harness` with `args`; returns its exit code and how long it took.
fn run(args: &[&str]) -> (Option<i32>, Duration) {
    let out_dir = std::env::temp_dir().join(format!("harness-args-{}", std::process::id()));
    let t0 = Instant::now();
    let status = Command::new(env!("CARGO_BIN_EXE_harness"))
        .args(["--scale", "quick", "--out"])
        .arg(&out_dir)
        .args(args)
        .output()
        .expect("harness runs")
        .status;
    (status.code(), t0.elapsed())
}

#[test]
fn help_exits_2_without_running_the_suite() {
    for flag in ["--help", "-h"] {
        let (code, took) = run(&[flag]);
        assert_eq!(code, Some(2), "{flag}");
        assert!(took < Duration::from_secs(5), "{flag} took {took:?}");
    }
}

#[test]
fn unknown_experiment_exits_2_even_beside_a_valid_one() {
    let (code, took) = run(&["validate", "table9"]);
    assert_eq!(code, Some(2));
    assert!(took < Duration::from_secs(5), "took {took:?}");
}

#[test]
fn missing_experiment_exits_2() {
    assert_eq!(run(&[]).0, Some(2));
}
