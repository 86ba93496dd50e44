//! `compare-bench` — paired A/B comparisons under the paper's §5 protocol.
//!
//! ```text
//! compare-bench <sweep|share|prune|eog> [--quick] [--tag NAME] [--out PATH]
//! ```
//!
//! Runs one comparison of [`zpre_bench::compare`] pair by pair, prints the
//! per-family table and the gate, and appends the `row`, `family` and
//! `aggregate` lines to `--out` (default `BENCH.json`). Exits 0 when every
//! check passes, 1 when one fails (a verdict disagreement included) and 2
//! on a bad invocation, before any work and without writing anything.

use std::fs::OpenOptions;
use std::io::Write as _;
use std::process::ExitCode;

use zpre_bench::compare::Compare;

const USAGE: &str =
    "usage: compare-bench <sweep|share|prune|eog> [--quick] [--tag NAME] [--out PATH]";

struct Args {
    compare: Compare,
    quick: bool,
    tag: Option<String>,
    out: String,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut compare = None;
    let mut quick = false;
    let mut tag = None;
    let mut out = "BENCH.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "-h" | "--help" => return Err(String::new()),
            "--quick" => quick = true,
            "--tag" => tag = Some(value()?),
            "--out" => out = value()?,
            s if s.starts_with('-') => return Err(format!("unknown flag {s}")),
            name => match (compare, Compare::from_name(name)) {
                (None, Some(c)) => compare = Some(c),
                (Some(_), Some(_)) => return Err("one comparison per run".to_string()),
                (_, None) => return Err(format!("unknown comparison {name}")),
            },
        }
    }
    Ok(Args {
        compare: compare.ok_or("no comparison given")?,
        quick,
        tag,
        out,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("compare-bench: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let tag = args
        .tag
        .unwrap_or_else(|| if args.quick { "quick" } else { "full" }.to_string());

    let run = args.compare.run(args.quick);
    println!("{}", run.table());
    let checks = run.gate(args.quick);
    for c in &checks {
        println!("{} {}", if c.ok { "PASS" } else { "FAIL" }, c.what);
    }
    for r in run
        .rows
        .iter()
        .filter(|r| r.pair.a.verdict != r.pair.b.verdict)
    {
        let [a, b] = run.compare.sides();
        eprintln!(
            "VERDICT DISAGREEMENT {} {}: {a}={} {b}={}",
            r.task,
            r.mm.name(),
            r.pair.a.verdict,
            r.pair.b.verdict
        );
    }
    let accept = checks.iter().all(|c| c.ok);

    let lines = run.ndjson(&tag, accept);
    let appended = OpenOptions::new()
        .create(true)
        .append(true)
        .open(&args.out)
        .and_then(|mut f| lines.iter().try_for_each(|l| writeln!(f, "{l}")));
    if let Err(e) = appended {
        eprintln!("compare-bench: cannot append to {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    println!("appended {} lines to {}", lines.len(), args.out);
    if accept {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
