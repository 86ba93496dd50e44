//! The repository benchmark: runs one workload's verification jobs one
//! after another on one thread (a closed loop with one client), checks
//! every verdict against the checked-in reference, and prints every metric
//! by name with its unit. The last line of standard output is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`.
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` is a separate
//! traced run that reports per-layer metrics. See `README.md` next to this
//! package for the workloads and the metric → layer → workload map.

mod cli;
mod jobs;
mod pipeline;
mod reference;
mod spans;
mod stats;

use cli::{Command, RunConfig};
use jobs::{Job, Workload};
use pipeline::{Outcome, Tally};
use spans::{self_time_by_name, Tracer};
use stats::{harrell_davis, median, tail_percentile, TAIL_MIN_BEYOND};
use std::fmt::Write as _;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use zpre::Verdict;

/// `VerifyOptions::default().seed`, the seed the `harness` tables use.
pub const DEFAULT_SEED: u64 = 0xC0FFEE;
/// Most set-ups per measured run; `setup_s` is their median. The first
/// runs before any job, the others between jobs of the first pass, one per
/// `--seconds / SETUP_REPS` (outside job timing), so that `setup_s`
/// samples the machine over the whole run as the job times do.
const SETUP_REPS: usize = 25;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match cli::parse(args.iter().map(String::as_str)) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("zbench: {e}\n\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    let res = match cmd {
        Command::Help => {
            println!("{}", cli::USAGE);
            Ok(())
        }
        Command::Reference(w) => reference::print(w),
        Command::Run(cfg) => run(&cfg),
    };
    match res {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("zbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One set-up: builds the job list and joins it with the reference
/// verdicts; returns both and the time it took.
fn setup(w: Workload) -> Result<(Vec<Job>, Vec<Verdict>, f64), String> {
    let t = Instant::now();
    let jobs = jobs::jobs(w);
    let refs = reference::lookup(w, &jobs)?;
    Ok((jobs, refs, t.elapsed().as_secs_f64()))
}

/// Verdict checks against the reference, made outside the timed region.
#[derive(Default)]
struct Check {
    attempted: u64,
    wrong: u64,
    unknown: u64,
    errors: u64,
}

impl Check {
    fn add(&mut self, jobs: &[Job], refs: &[Verdict], results: &[Result<Outcome, String>]) {
        for ((job, &want), got) in jobs.iter().zip(refs).zip(results) {
            self.attempted += 1;
            match got {
                Err(e) => {
                    self.errors += 1;
                    eprintln!("zbench: {}: error: {e}", job.id);
                }
                Ok(o) if o.verdict == Verdict::Unknown => self.unknown += 1,
                Ok(o) if o.verdict != want => {
                    self.wrong += 1;
                    eprintln!(
                        "zbench: {}: verdict {} but reference {want}",
                        job.id, o.verdict
                    );
                }
                Ok(_) => {}
            }
        }
    }

    fn failed(&self) -> u64 {
        self.wrong + self.unknown + self.errors
    }
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The machine fingerprint stamped on every result.
fn fingerprint(cfg: &RunConfig, seeds: &[u64]) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let seeds: Vec<String> = seeds.iter().map(u64::to_string).collect();
    format!(
        "{{\"fingerprint\": {{\"nproc\": {nproc}, \"rustc\": {}, \"git_sha\": {}, \
         \"workload\": {}, \"seeds\": [{}], \"trace\": {}}}}}",
        json_str(&command_line("rustc", &["--version"])),
        json_str(&command_line("git", &["rev-parse", "HEAD"])),
        json_str(cfg.workload.name()),
        seeds.join(", "),
        u8::from(cfg.trace),
    )
}

/// Prints the fingerprint, the `#` metric lines and the result line;
/// returns whether the run is correct. A metric that could not be measured
/// (not finite) is printed as 0 and makes the run incorrect.
fn report(cfg: &RunConfig, seeds: &[u64], check: &Check, ok: bool, metrics: &[Metric]) -> bool {
    let measured = metrics.iter().all(|m| m.value.is_finite());
    let correct = check.wrong == 0 && check.errors == 0 && ok && measured;
    println!("{}", fingerprint(cfg, seeds));
    for m in metrics {
        println!("# {} = {} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(m.name),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        check.attempted,
        check.failed(),
        body.join(", ")
    );
    let _ = std::io::stdout().flush();
    correct
}

fn run(cfg: &RunConfig) -> Result<(), String> {
    let (jobs, refs, setup_s) = setup(cfg.workload)?;
    let ok = if cfg.trace {
        run_traced(cfg, &jobs, &refs)?
    } else {
        run_measured(cfg, &jobs, &refs, setup_s)
    };
    if ok {
        Ok(())
    } else {
        Err("run failed its correctness checks".to_string())
    }
}

type Pass = (Vec<Result<Outcome, String>>, Vec<f64>);

/// One untraced pass: every job under every pass seed, each timed on its
/// own, run in `jobs::run_order` and stored seed-major. `between` runs
/// untimed before each job.
fn pass(cfg: &RunConfig, jobs: &[Job], seeds: &[u64], mut between: impl FnMut()) -> Pass {
    let sweep = cfg.workload.is_sweep();
    let n = jobs.len() * seeds.len();
    let mut results = vec![Err(String::new()); n];
    let mut times = vec![0.0; n];
    for i in jobs::run_order(n) {
        between();
        let (seed, job) = (seeds[i / jobs.len()], &jobs[i % jobs.len()]);
        let t = Instant::now();
        results[i] = pipeline::run(job, seed, sweep);
        times[i] = t.elapsed().as_secs_f64();
    }
    (results, times)
}

/// The end-to-end run: passes repeat while another pass still fits in
/// `--seconds` (at least one). Counters are per pass, exact for a fixed
/// `--seed` and must repeat in every pass; `wall_s` and job-run times are
/// medians over passes.
fn run_measured(cfg: &RunConfig, jobs: &[Job], refs: &[Verdict], setup_s: f64) -> bool {
    let seeds = jobs::pass_seeds(cfg.seed, cfg.workload.seeds_per_pass());
    let budget = Duration::from_secs(cfg.seconds).as_secs_f64();
    let started = Instant::now();
    let interval = budget / SETUP_REPS as f64;
    let mut setups = vec![setup_s];
    let mut setup_ok = true;
    let mut last_setup = Instant::now();
    let mut passes: Vec<Pass> = vec![pass(cfg, jobs, &seeds, || {
        if setups.len() < SETUP_REPS && last_setup.elapsed().as_secs_f64() >= interval {
            match setup(cfg.workload) {
                Ok((_, _, t)) => setups.push(t),
                Err(_) => setup_ok = false,
            }
            last_setup = Instant::now();
        }
    })];
    loop {
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed + elapsed / passes.len() as f64 > budget {
            break;
        }
        passes.push(pass(cfg, jobs, &seeds, || {}));
    }

    // Everything below is outside the timed region.
    let mut check = Check::default();
    let mut deterministic = true;
    for (results, _) in &passes {
        for per_seed in results.chunks(jobs.len()) {
            check.add(jobs, refs, per_seed);
        }
        deterministic &= results == &passes[0].0;
    }
    if !deterministic {
        eprintln!("zbench: a fixed seed gave different verdicts or counters across passes");
    }
    let first = &passes[0].0;
    let n = first.len();
    let decided = first
        .iter()
        .filter(|r| matches!(r, Ok(o) if o.verdict != Verdict::Unknown))
        .count();
    let total =
        |f: fn(&Outcome) -> u64| -> f64 { first.iter().flatten().map(f).sum::<u64>() as f64 };
    let walls: Vec<f64> = passes.iter().map(|(_, t)| t.iter().sum()).collect();
    // A job's time for the median is its mean over every run of it (all
    // seeds, all passes). The runs lie apart in the shuffled order, so the
    // mean spans the machine's speed changes; a single run of a short job
    // sees only one, and the median of such runs jumps with the share of
    // the run the machine spent slow. The tail stays over single runs: a
    // job's mean hides the slow runs the tail is there to show.
    let mut per_job: Vec<f64> = (0..jobs.len())
        .map(|j| {
            let runs: Vec<f64> = passes
                .iter()
                .flat_map(|(_, t)| t.iter().skip(j).step_by(jobs.len()))
                .copied()
                .collect();
            runs.iter().sum::<f64>() / runs.len() as f64 * 1e3
        })
        .collect();
    per_job.sort_by(f64::total_cmp);
    let mut per_run: Vec<f64> = (0..n)
        .map(|i| median(&passes.iter().map(|(_, t)| t[i]).collect::<Vec<_>>()) * 1e3)
        .collect();
    per_run.sort_by(f64::total_cmp);
    let tail_p = tail_percentile(n, TAIL_MIN_BEYOND).unwrap_or(50);
    println!(
        "# {} jobs x {} seeds x {} passes; verdict_ms_p50 is over n={} jobs, each its mean \
         over {} runs; verdict_ms_tail is p{tail_p} of n={n} job runs; \
         setup_s is the median of {} set-ups; wrong_verdicts = {}",
        jobs.len(),
        seeds.len(),
        passes.len(),
        jobs.len(),
        seeds.len() * passes.len(),
        setups.len(),
        check.wrong
    );
    let metrics = [
        metric("setup_s", median(&setups), "s"),
        metric("wall_s", median(&walls), "s"),
        metric("verdict_ms_p50", harrell_davis(&per_job, 50), "ms"),
        metric("verdict_ms_tail", harrell_davis(&per_run, tail_p), "ms"),
        metric("decided_share", decided as f64 / n as f64, "share"),
        metric("decisions", total(|o| o.decisions), "count"),
        metric("conflicts", total(|o| o.conflicts), "count"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    report(cfg, &seeds, &check, deterministic && setup_ok, &metrics)
}

/// The traced run, under `--seed` alone: each job runs untraced through
/// the program's entry point, then through the rebuilt pipeline under
/// spans; both must agree exactly (fidelity check).
fn run_traced(cfg: &RunConfig, jobs: &[Job], refs: &[Verdict]) -> Result<bool, String> {
    let sweep = cfg.workload.is_sweep();
    let mut tracer = Tracer::new();
    let mut tally = Tally::new();
    let mut untraced_s = 0.0;
    let mut traced_s = 0.0;
    let mut results = Vec::with_capacity(jobs.len());
    let mut mismatches = 0u64;
    for (jid, job) in jobs.iter().enumerate() {
        let t = Instant::now();
        let plain = pipeline::run(job, cfg.seed, sweep);
        untraced_s += t.elapsed().as_secs_f64();
        let root = tracer.open("core.job", jid);
        let traced = pipeline::traced(job, cfg.seed, sweep, &mut tracer, jid, &mut tally);
        traced_s += tracer.close(root).as_secs_f64();
        if plain != traced {
            mismatches += 1;
            eprintln!(
                "zbench: {}: traced {traced:?} != untraced {plain:?}",
                job.id
            );
        }
        results.push(traced);
    }

    let mut check = Check::default();
    check.add(jobs, refs, &results);
    write_spans(cfg, tracer.spans())?;
    let ms = self_time_by_name(tracer.spans());
    let self_ms = |name: &str| ms.get(name).map_or(0.0, |d| d.as_secs_f64() * 1e3);
    let count = |name: &str| tally.get(name).copied().unwrap_or(0) as f64;
    let share = |num: &str, den: &str| count(num) / count(den).max(1.0);
    let metrics = [
        metric("prog.unroll_ms", self_ms("prog.unroll"), "ms"),
        metric("prog.ssa_ms", self_ms("prog.ssa"), "ms"),
        metric("prog.events", count("prog.events"), "count"),
        metric("analysis.prune_ms", self_ms("analysis.prune"), "ms"),
        metric("analysis.rf_pruned", count("analysis.rf_pruned"), "count"),
        metric("analysis.rf_kept", count("analysis.rf_kept"), "count"),
        metric("analysis.ws_pruned", count("analysis.ws_pruned"), "count"),
        metric(
            "analysis.reads_resolved",
            count("analysis.reads_resolved"),
            "count",
        ),
        metric("encoder.encode_ms", self_ms("encoder.encode"), "ms"),
        metric("encoder.frame_ms", self_ms("encoder.frame"), "ms"),
        metric("encoder.solver_vars", count("encoder.solver_vars"), "count"),
        metric(
            "encoder.interference_vars",
            count("encoder.interference_vars"),
            "count",
        ),
        metric("encoder.cnf_bytes", count("encoder.cnf_bytes"), "bytes"),
        metric("core.order_ms", self_ms("core.order"), "ms"),
        metric("core.frames", count("core.frames"), "count"),
        metric("sat.solve_ms", self_ms("sat.solve"), "ms"),
        metric("sat.propagations", count("sat.propagations"), "count"),
        metric(
            "sat.guided_share",
            share("sat.guided_decisions", "sat.decisions"),
            "share",
        ),
        metric("sat.restarts", count("sat.restarts"), "count"),
        metric("sat.learnt_clauses", count("sat.learnt_clauses"), "count"),
        metric("sat.reductions", count("sat.reductions"), "count"),
        metric("sat.reused_learnts", count("sat.reused_learnts"), "count"),
        metric(
            "smt.theory_conflicts",
            count("smt.theory_conflicts"),
            "count",
        ),
        metric(
            "smt.theory_propagations",
            count("smt.theory_propagations"),
            "count",
        ),
        metric("smt.eog_checks", count("smt.eog_checks"), "count"),
        metric(
            "smt.eog_o1_share",
            share("smt.eog_accepted_o1", "smt.eog_checks"),
            "share",
        ),
        metric("smt.eog_visited", count("smt.eog_visited"), "count"),
        metric("smt.eog_promoted", count("smt.eog_promoted"), "count"),
        metric("trace.overhead_s", traced_s - untraced_s, "s"),
        metric("trace.fidelity_mismatches", mismatches as f64, "count"),
        metric("wrong_verdicts", check.wrong as f64, "count"),
    ];
    println!("# traced wall_s = {traced_s} s, untraced wall_s = {untraced_s} s");
    Ok(report(cfg, &[cfg.seed], &check, mismatches == 0, &metrics))
}

/// Writes the traced run's spans as NDJSON under `out/` in this package,
/// once, after the run.
fn write_spans(cfg: &RunConfig, spans: &[spans::Span]) -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-{}.ndjson", cfg.workload.name(), cfg.seed));
    let mut text = fingerprint(cfg, &[cfg.seed]);
    text.push('\n');
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            text,
            "{{\"name\": {}, \"job\": {}, \"parent\": {parent}, \"start_us\": {}, \"end_us\": {}}}",
            json_str(s.name),
            s.job,
            s.start.as_micros(),
            s.end.as_micros()
        );
    }
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|e| format!("writing {}: {e}", path.display()))
}
