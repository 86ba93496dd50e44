//! # zpre-bench — experiment runner and aggregation
//!
//! Runs the workload suite through the verifier under every (memory model,
//! strategy) combination and aggregates the measurements into the paper's
//! tables and figures. Two binaries drive it: `harness`
//! (`src/bin/harness.rs`) regenerates each table/figure, and
//! `compare-bench` (`src/bin/compare.rs`) runs the paired A/B
//! comparisons of [`compare`] into the `BENCH.json` ledger.

#![warn(missing_docs)]

pub mod aggregate;
pub mod ascii;
pub mod compare;
pub mod families;
pub mod runner;
pub mod sweep;

pub use aggregate::*;
pub use families::contended_family;
pub use runner::{
    csv_row, json_row, run_one, run_one_portfolio, run_suite, run_suite_portfolio,
    run_suite_portfolio_streaming, run_suite_streaming, telemetry_json, to_csv, to_json,
    RowTelemetry, RunConfig, TaskResult, CSV_HEADER,
};
