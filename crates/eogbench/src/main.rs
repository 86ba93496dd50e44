//! `eog-bench` — command-line driver for the EOG engine microbenchmarks.
//!
//! ```text
//! eog-bench [--quick] [--tag NAME] [--out PATH]
//! ```
//!
//! Plays every synthetic shape (chain / grid / random-DAG / near-cycle) at
//! 10²–10⁴ nodes (10²–10³ under `--quick`) through the engine in both
//! modes (incremental vs forced full DFS), prints a comparison table, and
//! appends one NDJSON line per measurement to `--out` (default
//! `BENCH_EOG.json`). A bad invocation exits 2 before any work. The
//! end-to-end `zpre` vs `zpre-dfs-check` suite comparison is
//! `compare-bench eog` in `zpre-bench`.

use std::fs::OpenOptions;
use std::io::Write as _;
use std::process::ExitCode;

use zpre_eog_bench::{run_scenario, sizes, Shape};

const USAGE: &str = "usage: eog-bench [--quick] [--tag NAME] [--out PATH]";

/// Parses `[--quick] [--tag NAME] [--out PATH]` into `(quick, tag, out)`.
fn parse(args: &[String]) -> Result<(bool, Option<String>, String), String> {
    let (mut quick, mut tag, mut out) = (false, None, "BENCH_EOG.json".to_string());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "-h" | "--help" => return Err(String::new()),
            "--quick" => quick = true,
            "--tag" => tag = Some(value()?),
            "--out" => out = value()?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok((quick, tag, out))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (quick, tag, out_path) = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("eog-bench: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let tag = tag.unwrap_or_else(|| if quick { "quick" } else { "full" }.to_string());

    let mut lines = Vec::new();
    println!(
        "{:<12} {:>7} {:<12} {:>10} {:>10} {:>12} {:>10} {:>8}",
        "shape", "nodes", "mode", "wall(ms)", "checks", "visited", "promoted", "o1%"
    );
    for shape in Shape::ALL {
        for &n in sizes(quick) {
            for full_dfs in [false, true] {
                let r = run_scenario(shape, n, 0xE06, full_dfs);
                let o1 = if r.stats.checks > 0 {
                    100.0 * r.stats.accepted_o1 as f64 / r.stats.checks as f64
                } else {
                    0.0
                };
                println!(
                    "{:<12} {:>7} {:<12} {:>10.3} {:>10} {:>12} {:>10} {:>7.1}%",
                    r.shape,
                    r.nodes,
                    r.mode,
                    r.wall_ms,
                    r.stats.checks,
                    r.stats.visited,
                    r.stats.promoted,
                    o1
                );
                lines.push(r.json_line(&tag));
            }
        }
    }

    let appended = OpenOptions::new()
        .create(true)
        .append(true)
        .open(&out_path)
        .and_then(|mut f| lines.iter().try_for_each(|l| writeln!(f, "{l}")));
    if let Err(e) = appended {
        eprintln!("eog-bench: cannot append to {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("appended {} lines to {out_path}", lines.len());
    ExitCode::SUCCESS
}
