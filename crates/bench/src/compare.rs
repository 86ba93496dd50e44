//! Paired A/B comparisons under the paper's §5 protocol.
//!
//! A comparison runs a few task families under two configurations, A and
//! B. Every comparison follows the same protocol: a fixed budget of
//! 200 000 conflicts, every task under SC, TSO and PSO, and the accumulated time
//! over the pairs at least one side solved. A pair where both sides return
//! `unknown` burns the same budget twice; it measures per-conflict overhead,
//! not time to a verdict, so it stays out of the summed milliseconds (it
//! still counts for verdict agreement and the counters).
//!
//! `run_pairs` is the single pair loop: for each family × task × memory
//! model it measures side A, then side B, one pair after another. It checks
//! that the two verdicts are equal and sums per family and overall. A
//! comparison is one [`Compare`] entry, not a new code path:
//!
//! | `compare` | A → B | families | ms per side | gate |
//! |---|---|---|---|---|
//! | `sweep` | per-bound scratch 1..6 → incremental sweep | stress, wmm, loopy | wall incl. encode | stress+wmm A/B ≥ 1.5 |
//! | `share` | isolated → shared portfolio | stress, wmm, contended | solve | B ≤ (1+tol)·A; Σ `sh_import_hits` > 0 |
//! | `prune` | unpruned → pruned encoding | stress, wmm, pthread, contended | solve + encode | B ≤ (1+tol)·A; pthread+contended `vars_full − vars_left` > 0 |
//! | `eog` | `zpre-dfs-check` → `zpre` | stress, wmm, stress-large | solve | agreement only |
//!
//! Every comparison also fails on any verdict disagreement. The timing
//! tolerance `tol` is 15% at full scale and 50% under `--quick`, where
//! tiny tasks make timings noisy.
//!
//! [`Run::ndjson`] writes `row`, `family` and `aggregate` lines with one
//! key set; `compare-bench` appends them to the `BENCH.json` ledger.

use std::fmt::Write as _;

use zpre::{ShareConfig, Strategy};
use zpre_prog::{to_ssa, unroll_program, MemoryModel};
use zpre_workloads::{subcategory, Scale, Subcat, Task};

use crate::families::{contended_family, loopy_family};
use crate::runner::{run_one, run_one_portfolio, RunConfig, TaskResult};

/// Conflict budget per solve, standing in for the paper's per-task timeout.
pub(crate) const BUDGET: u64 = 200_000;
/// Unwind horizon of the sweep comparison: both sides answer bounds 1..=6.
pub(crate) const HORIZON: u32 = 6;
/// Polarity seed of every solve.
pub(crate) const SEED: u64 = 0xC0FFEE;

/// Allowed slowdown of side B against side A in the `share` and `prune`
/// timing gates, as a fraction: 0.15 at full scale, 0.50 under `--quick`.
pub(crate) fn tolerance(quick: bool) -> f64 {
    if quick {
        0.50
    } else {
        0.15
    }
}

/// One side's measurement of one (task, memory model).
#[derive(Clone, Debug)]
pub struct Side {
    /// `"safe"`, `"unsafe"`, `"unknown"` (or `"rejected"`).
    pub verdict: String,
    /// Milliseconds, measured as the comparison's table entry says.
    pub ms: f64,
}

/// Both sides of one (task, memory model) and the comparison's counters,
/// in [`Compare::counters`] order.
#[derive(Clone, Debug)]
pub struct Pair {
    /// Side A.
    pub a: Side,
    /// Side B.
    pub b: Side,
    /// Counter values, one per name in [`Compare::counters`].
    pub counters: Vec<u64>,
}

impl Pair {
    /// Both sides exhausted the budget: the pair carries no time to a
    /// verdict and stays out of the summed milliseconds.
    pub(crate) fn both_unknown(&self) -> bool {
        self.a.verdict == "unknown" && self.b.verdict == "unknown"
    }
}

/// Sums over a set of pairs: one family, or the whole run.
#[derive(Clone, Debug, Default)]
pub struct Sum {
    /// Pairs summed.
    pub rows: usize,
    /// Pairs left out of `a_ms`/`b_ms` because both sides were `unknown`.
    pub excluded: usize,
    /// Pairs whose verdicts differ.
    pub disagreements: usize,
    /// Side A milliseconds over the pairs not excluded.
    pub a_ms: f64,
    /// Side B milliseconds over the pairs not excluded.
    pub b_ms: f64,
    /// Counter sums (every pair, excluded or not).
    pub counters: Vec<u64>,
}

impl Sum {
    /// Sums `pairs`.
    pub(crate) fn of<'a>(pairs: impl IntoIterator<Item = &'a Pair>) -> Sum {
        let mut s = Sum::default();
        for p in pairs {
            s.merge(&Sum::one(p));
        }
        s
    }

    /// One pair as a sum: its ms count unless both sides are `unknown`.
    fn one(p: &Pair) -> Sum {
        let excluded = p.both_unknown();
        let ms = |side: &Side| if excluded { 0.0 } else { side.ms };
        Sum {
            rows: 1,
            excluded: usize::from(excluded),
            disagreements: usize::from(p.a.verdict != p.b.verdict),
            a_ms: ms(&p.a),
            b_ms: ms(&p.b),
            counters: p.counters.clone(),
        }
    }

    fn merge(&mut self, o: &Sum) {
        self.rows += o.rows;
        self.excluded += o.excluded;
        self.disagreements += o.disagreements;
        self.a_ms += o.a_ms;
        self.b_ms += o.b_ms;
        self.counters
            .resize(o.counters.len().max(self.counters.len()), 0);
        for (s, c) in self.counters.iter_mut().zip(&o.counters) {
            *s += c;
        }
    }
}

/// `num / den`, or `None` when the denominator is zero.
pub(crate) fn ratio(num: f64, den: f64) -> Option<f64> {
    (den > 0.0).then(|| num / den)
}

/// One measured pair and where it came from.
#[derive(Clone, Debug)]
pub struct Row {
    /// Family name.
    pub family: &'static str,
    /// Task name.
    pub task: String,
    /// Memory model.
    pub mm: MemoryModel,
    /// The measurement.
    pub pair: Pair,
}

/// A finished comparison: every row, the per-family sums and the total.
#[derive(Clone, Debug)]
pub struct Run {
    /// Which comparison ran.
    pub compare: Compare,
    /// One row per family × task × memory model, in run order.
    pub rows: Vec<Row>,
    /// Per-family sums, in family order (families without tasks skipped).
    pub families: Vec<(&'static str, Sum)>,
    /// Sum over every family.
    pub total: Sum,
}

/// The pair loop. For each family × task × memory model it calls
/// `measure`, which runs side A and then side B, and sums the pairs per
/// family and overall.
pub(crate) fn run_pairs<F>(
    compare: Compare,
    families: &[(&'static str, Vec<Task>)],
    mut measure: F,
) -> Run
where
    F: FnMut(&Task, MemoryModel) -> Pair,
{
    let mut run = Run {
        compare,
        rows: Vec::new(),
        families: Vec::new(),
        total: Sum::default(),
    };
    for (family, tasks) in families {
        if tasks.is_empty() {
            continue;
        }
        let first = run.rows.len();
        for task in tasks {
            for mm in MemoryModel::ALL {
                let pair = measure(task, mm);
                run.rows.push(Row {
                    family,
                    task: task.name.clone(),
                    mm,
                    pair,
                });
            }
        }
        let sum = Sum::of(run.rows[first..].iter().map(|r| &r.pair));
        run.total.merge(&sum);
        run.families.push((family, sum));
    }
    run
}

/// One acceptance check of a run.
#[derive(Clone, Debug)]
pub struct Check {
    /// What was checked, with the measured numbers.
    pub what: String,
    /// Whether it passed.
    pub ok: bool,
}

impl Run {
    /// Sum over the named families.
    pub(crate) fn sum_of(&self, names: &[&str]) -> Sum {
        let mut s = Sum::default();
        for (_, f) in self.families.iter().filter(|(n, _)| names.contains(n)) {
            s.merge(f);
        }
        s
    }

    /// The comparison's acceptance checks: verdict agreement, then the
    /// gates of its table entry.
    pub fn gate(&self, quick: bool) -> Vec<Check> {
        let t = &self.total;
        let mut checks = vec![Check {
            what: format!(
                "verdicts agree: {} of {} pairs",
                t.rows - t.disagreements,
                t.rows
            ),
            ok: t.disagreements == 0,
        }];
        let bar = 1.0 + tolerance(quick);
        let within_tolerance = || Check {
            what: format!("B <= {bar:.2}x A: {:.1} ms vs {:.1} ms", t.b_ms, t.a_ms),
            ok: t.b_ms <= bar * t.a_ms,
        };
        match self.compare {
            Compare::Sweep => {
                let s = self.sum_of(&["stress", "wmm"]);
                checks.push(Check {
                    what: format!(
                        "stress+wmm A/B >= 1.5: {:.1} ms vs {:.1} ms = {}",
                        s.a_ms,
                        s.b_ms,
                        fmt_ratio(ratio(s.a_ms, s.b_ms))
                    ),
                    ok: s.a_ms >= 1.5 * s.b_ms,
                });
            }
            Compare::Share => {
                checks.push(within_tolerance());
                let hits = self.counter(t, "sh_import_hits");
                checks.push(Check {
                    what: format!("sh_import_hits > 0: {hits}"),
                    ok: hits > 0,
                });
            }
            Compare::Prune => {
                checks.push(within_tolerance());
                let heavy = self.sum_of(&["pthread", "contended"]);
                let removed = self
                    .counter(&heavy, "vars_full")
                    .saturating_sub(self.counter(&heavy, "vars_left"));
                checks.push(Check {
                    what: format!("pthread+contended vars_full - vars_left > 0: {removed}"),
                    ok: removed > 0,
                });
            }
            Compare::Eog => {}
        }
        checks
    }

    fn counter(&self, sum: &Sum, name: &str) -> u64 {
        let i = self.compare.counters().iter().position(|&c| c == name);
        i.and_then(|i| sum.counters.get(i).copied()).unwrap_or(0)
    }

    /// The per-family table with the total, as printed by `compare-bench`.
    pub fn table(&self) -> String {
        let [a, b] = self.compare.sides();
        let counters = self.compare.counters();
        let mut out = format!(
            "compare {}: A = {a}, B = {b} (ms over pairs not both unknown)\n",
            self.compare.name()
        );
        let _ = write!(
            out,
            "{:<13} {:>5} {:>5} {:>12} {:>12} {:>8}",
            "family", "rows", "excl", "A(ms)", "B(ms)", "A/B"
        );
        for c in counters {
            let _ = write!(out, " {c:>w$}", w = c.len().max(10));
        }
        out.push('\n');
        let all = self.families.iter().map(|(f, s)| (*f, s));
        for (family, s) in all.chain(std::iter::once(("all", &self.total))) {
            let _ = write!(
                out,
                "{family:<13} {:>5} {:>5} {:>12.1} {:>12.1} {:>8}",
                s.rows,
                s.excluded,
                s.a_ms,
                s.b_ms,
                fmt_ratio(ratio(s.a_ms, s.b_ms))
            );
            for (c, v) in counters.iter().zip(&s.counters) {
                let _ = write!(out, " {v:>w$}", w = c.len().max(10));
            }
            out.push('\n');
        }
        if self.compare == Compare::Eog {
            for (family, s) in &self.families {
                let visited = |n: &str| self.counter(s, n) as f64;
                let _ = writeln!(
                    out,
                    "{family}: visited-nodes ratio (A/B) {}",
                    fmt_ratio(ratio(visited("visited_a"), visited("visited_b")))
                );
            }
        }
        out
    }

    /// The run's ledger lines: one `row` per pair, one `family` per
    /// family and one `aggregate`, all with the same keys. A row's ms are
    /// its measured times; family and aggregate ms sum the pairs not
    /// excluded. `accept` is the gate result on the aggregate line and
    /// `null` elsewhere.
    pub fn ndjson(&self, tag: &str, accept: bool) -> Vec<String> {
        let mut lines: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                let sum = Sum {
                    a_ms: r.pair.a.ms,
                    b_ms: r.pair.b.ms,
                    ..Sum::one(&r.pair)
                };
                self.line(tag, "row", Some(r), Some(r.family), &sum, None)
            })
            .collect();
        for (family, sum) in &self.families {
            lines.push(self.line(tag, "family", None, Some(family), sum, None));
        }
        lines.push(self.line(tag, "aggregate", None, None, &self.total, Some(accept)));
        lines
    }

    fn line(
        &self,
        tag: &str,
        kind: &str,
        row: Option<&Row>,
        family: Option<&str>,
        sum: &Sum,
        accept: Option<bool>,
    ) -> String {
        let s = |v: Option<&str>| v.map_or("null".to_string(), |v| format!("\"{}\"", esc(v)));
        let mut out = format!(
            "{{\"tag\": {}, \"compare\": \"{}\", \"kind\": \"{kind}\", \"family\": {}, \
             \"task\": {}, \"mm\": {}, \"verdict_a\": {}, \"verdict_b\": {}, \"agree\": {}, \
             \"rows\": {}, \"excluded\": {}, \"a_ms\": {:.3}, \"b_ms\": {:.3}, \"ratio\": {}, \
             \"accept\": {}",
            s(Some(tag)),
            self.compare.name(),
            s(family),
            s(row.map(|r| r.task.as_str())),
            s(row.map(|r| r.mm.name())),
            s(row.map(|r| r.pair.a.verdict.as_str())),
            s(row.map(|r| r.pair.b.verdict.as_str())),
            sum.disagreements == 0,
            sum.rows,
            sum.excluded,
            sum.a_ms,
            sum.b_ms,
            ratio(sum.a_ms, sum.b_ms).map_or("null".to_string(), |r| format!("{r:.3}")),
            accept.map_or("null".to_string(), |a| a.to_string()),
        );
        for (name, v) in self.compare.counters().iter().zip(&sum.counters) {
            let _ = write!(out, ", \"{name}\": {v}");
        }
        out.push('}');
        out
    }
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn fmt_ratio(r: Option<f64>) -> String {
    r.map_or("-".to_string(), |r| format!("{r:.2}x"))
}

/// The four comparisons.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Compare {
    /// Per-bound scratch solving vs the incremental bound sweep.
    Sweep,
    /// Isolated vs clause-sharing strategy portfolio.
    Share,
    /// Unpruned vs statically pruned encoding.
    Prune,
    /// Full-DFS cycle checks vs the incremental EOG engine.
    Eog,
}

impl Compare {
    /// Every comparison, in `make bench-compare` order.
    pub const ALL: [Compare; 4] = [Compare::Sweep, Compare::Share, Compare::Prune, Compare::Eog];

    /// Name on the command line and in the ledger's `compare` key.
    pub fn name(self) -> &'static str {
        match self {
            Compare::Sweep => "sweep",
            Compare::Share => "share",
            Compare::Prune => "prune",
            Compare::Eog => "eog",
        }
    }

    /// Inverse of [`Compare::name`].
    pub fn from_name(name: &str) -> Option<Compare> {
        Compare::ALL.into_iter().find(|c| c.name() == name)
    }

    /// Labels of sides A and B.
    pub fn sides(self) -> [&'static str; 2] {
        match self {
            Compare::Sweep => ["scratch", "sweep"],
            Compare::Share => ["isolated", "shared"],
            Compare::Prune => ["unpruned", "pruned"],
            Compare::Eog => ["zpre-dfs-check", "zpre"],
        }
    }

    /// Names of the counters each pair carries, summed per family.
    pub fn counters(self) -> &'static [&'static str] {
        match self {
            Compare::Sweep => &[
                "bound_a",
                "bound_b",
                "decisions_a",
                "decisions_b",
                "conflicts_a",
                "conflicts_b",
                "frames",
                "reused_learnts",
            ],
            Compare::Share => &["sh_exported", "sh_imported", "sh_import_hits"],
            Compare::Prune => &["vars_full", "vars_left"],
            Compare::Eog => &[
                "checks_a",
                "checks_b",
                "accepted_o1_a",
                "accepted_o1_b",
                "visited_a",
                "visited_b",
                "promoted_a",
                "promoted_b",
            ],
        }
    }

    /// The comparison's task families.
    pub(crate) fn families(self, quick: bool) -> Vec<(&'static str, Vec<Task>)> {
        let scale = scale(quick);
        let stress = || subcategory(scale, Subcat::Stress);
        let wmm = || subcategory(scale, Subcat::Wmm);
        let contended = || contended_family(if quick { 2 } else { 4 });
        match self {
            Compare::Sweep => vec![
                ("stress", stress()),
                ("wmm", wmm()),
                ("loopy", loopy_family()),
            ],
            Compare::Share => vec![
                ("stress", stress()),
                ("wmm", wmm()),
                ("contended", contended()),
            ],
            Compare::Prune => vec![
                ("stress", stress()),
                ("wmm", wmm()),
                ("pthread", subcategory(scale, Subcat::Pthread)),
                ("contended", contended()),
            ],
            // The tail of the stress ladder (seeds 200+), where cycle
            // checks are the largest share of the solve.
            Compare::Eog => {
                let large = stress()
                    .into_iter()
                    .filter(|t| t.name.starts_with("stress/s2"))
                    .collect();
                vec![
                    ("stress", stress()),
                    ("wmm", wmm()),
                    ("stress-large", large),
                ]
            }
        }
    }

    /// Measures side A and then side B on one (task, memory model).
    pub(crate) fn measure(self, task: &Task, mm: MemoryModel, quick: bool) -> Pair {
        let base = RunConfig {
            scale: scale(quick),
            max_conflicts: BUDGET,
            seed: SEED,
            validate: false,
            ..RunConfig::default()
        };
        let side = |r: &TaskResult, ms: f64| Side {
            verdict: r.verdict.clone(),
            ms,
        };
        match self {
            Compare::Sweep => crate::sweep::compare_one(task, mm, HORIZON, &base),
            Compare::Share => {
                // Telemetry on both sides, so both carry the same recorder
                // overhead and the shared side's counters land in the row.
                let iso = RunConfig {
                    telemetry: true,
                    ..base
                };
                let shared = RunConfig {
                    share: Some(ShareConfig::default()),
                    ..iso.clone()
                };
                let a = run_one_portfolio(task, mm, &iso);
                let b = run_one_portfolio(task, mm, &shared);
                let t = b.telemetry.clone().unwrap_or_default();
                Pair {
                    a: side(&a, a.solve_ms),
                    b: side(&b, b.solve_ms),
                    counters: vec![t.sh_exported, t.sh_imported, t.sh_import_hits],
                }
            }
            Compare::Prune => {
                let unpruned = RunConfig {
                    prune: false,
                    ..base.clone()
                };
                let a = run_one(task, mm, Strategy::Zpre, &unpruned);
                let b = run_one(task, mm, Strategy::Zpre, &base);
                let (full, left) = var_ledger(task, mm);
                Pair {
                    a: side(&a, a.solve_ms + a.encode_ms),
                    b: side(&b, b.solve_ms + b.encode_ms),
                    counters: vec![full, left],
                }
            }
            Compare::Eog => {
                let cfg = RunConfig {
                    telemetry: true,
                    ..base
                };
                let a = run_one(task, mm, Strategy::ZpreDfsCheck, &cfg);
                let b = run_one(task, mm, Strategy::Zpre, &cfg);
                let (ta, tb) = (
                    a.telemetry.clone().unwrap_or_default(),
                    b.telemetry.clone().unwrap_or_default(),
                );
                Pair {
                    a: side(&a, a.solve_ms),
                    b: side(&b, b.solve_ms),
                    counters: vec![
                        ta.cc_checks,
                        tb.cc_checks,
                        ta.cc_accepted_o1,
                        tb.cc_accepted_o1,
                        ta.cc_visited,
                        tb.cc_visited,
                        ta.cc_promoted,
                        tb.cc_promoted,
                    ],
                }
            }
        }
    }

    /// Runs the comparison on its families.
    pub fn run(self, quick: bool) -> Run {
        run_pairs(self, &self.families(quick), |task, mm| {
            self.measure(task, mm, quick)
        })
    }
}

fn scale(quick: bool) -> Scale {
    if quick {
        Scale::Quick
    } else {
        Scale::Full
    }
}

/// Reruns the analysis pass on its own and returns `(vars_full,
/// vars_left)`: the interference variables the unpruned encoder emits and
/// those that survive the prune report.
fn var_ledger(task: &Task, mm: MemoryModel) -> (u64, u64) {
    let ssa = to_ssa(&unroll_program(&task.program, task.unroll_bound));
    let report = zpre_analysis::analyze(&ssa, mm);
    (
        report.unpruned_interference_vars(),
        report.interference_vars(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use zpre_prog::build::ProgramBuilder;
    use zpre_workloads::Expected;

    fn task(name: &str) -> Task {
        let p = ProgramBuilder::new(name).main(vec![]).build();
        Task::new(name, Subcat::Ext, p, 1, Expected::default())
    }

    fn side(verdict: &str, ms: f64) -> Side {
        Side {
            verdict: verdict.to_string(),
            ms,
        }
    }

    fn pair(a: (&str, f64), b: (&str, f64), counters: &[u64]) -> Pair {
        Pair {
            a: side(a.0, a.1),
            b: side(b.0, b.1),
            counters: counters.to_vec(),
        }
    }

    /// Runs `compare` over `families` with a stub measurement: every pair
    /// of a task gets the same `(verdict_a, verdict_b, a_ms, b_ms,
    /// counters)`, looked up by task name. No solver runs.
    fn stub(compare: Compare, families: &[(&'static str, &[&str])], pairs: &[(&str, Pair)]) -> Run {
        let families: Vec<(&'static str, Vec<Task>)> = families
            .iter()
            .map(|(f, names)| (*f, names.iter().map(|n| task(n)).collect()))
            .collect();
        run_pairs(compare, &families, |t, _mm| {
            pairs
                .iter()
                .find(|(n, _)| *n == t.name)
                .map(|(_, p)| p.clone())
                .expect("stub pair")
        })
    }

    fn passes(run: &Run, quick: bool) -> bool {
        run.gate(quick).iter().all(|c| c.ok)
    }

    #[test]
    fn both_unknown_pairs_are_excluded_from_the_summed_ms() {
        let run = stub(
            Compare::Eog,
            &[("stress", &["solved", "exhausted"])],
            &[
                ("solved", pair(("safe", 2.0), ("safe", 1.0), &[1; 8])),
                (
                    "exhausted",
                    pair(("unknown", 500.0), ("unknown", 400.0), &[1; 8]),
                ),
            ],
        );
        let s = &run.families[0].1;
        assert_eq!((s.rows, s.excluded, s.disagreements), (6, 3, 0));
        assert_eq!((s.a_ms, s.b_ms), (6.0, 3.0));
        // Counters sum over every pair, excluded or not.
        assert_eq!(s.counters, vec![6; 8]);
        assert!(passes(&run, false));
        // Excluded rows still report their measured times.
        let line = run.ndjson("t", true)[3].clone();
        assert!(line.contains("\"task\": \"exhausted\""), "{line}");
        assert!(line.contains("\"excluded\": 1, \"a_ms\": 500.000, \"b_ms\": 400.000"));
    }

    #[test]
    fn a_disagreeing_pair_fails_the_run() {
        let agreeing = pair(("safe", 1.0), ("safe", 1.0), &[0; 8]);
        let run = stub(
            Compare::Eog,
            &[("wmm", &["ok", "bad"])],
            &[
                ("ok", agreeing.clone()),
                ("bad", pair(("safe", 1.0), ("unsafe", 1.0), &[0; 8])),
            ],
        );
        assert_eq!(run.total.disagreements, 3);
        assert!(!passes(&run, false));
        let lines = run.ndjson("t", false);
        assert!(lines[3].contains("\"agree\": false"), "{}", lines[3]);
        assert!(lines[0].contains("\"agree\": true"));
        let ok = stub(Compare::Eog, &[("wmm", &["ok"])], &[("ok", agreeing)]);
        assert!(passes(&ok, false));
    }

    #[test]
    fn sums_per_family_and_in_aggregate() {
        let run = stub(
            Compare::Prune,
            &[
                ("stress", &["s1", "s2"]),
                ("empty", &[]),
                ("pthread", &["p1"]),
            ],
            &[
                ("s1", pair(("safe", 1.0), ("safe", 0.5), &[10, 4])),
                ("s2", pair(("unsafe", 3.0), ("unsafe", 2.5), &[6, 6])),
                ("p1", pair(("safe", 5.0), ("safe", 4.0), &[8, 2])),
            ],
        );
        // Families without tasks are skipped; each task runs under 3 MMs.
        let names: Vec<&str> = run.families.iter().map(|(f, _)| *f).collect();
        assert_eq!(names, ["stress", "pthread"]);
        assert_eq!(run.rows.len(), 9);
        let stress = &run.families[0].1;
        assert_eq!((stress.rows, stress.a_ms, stress.b_ms), (6, 12.0, 9.0));
        assert_eq!(stress.counters, vec![48, 30]);
        assert_eq!(run.total.rows, 9);
        assert_eq!((run.total.a_ms, run.total.b_ms), (27.0, 21.0));
        assert_eq!(run.total.counters, vec![72, 36]);
        let lines = run.ndjson("pr", true);
        assert_eq!(lines.len(), 9 + 2 + 1);
        let agg = lines.last().unwrap();
        assert!(agg.starts_with("{\"tag\": \"pr\", \"compare\": \"prune\", \"kind\": \"aggregate\", \"family\": null, \"task\": null"), "{agg}");
        assert!(
            agg.ends_with("\"accept\": true, \"vars_full\": 72, \"vars_left\": 36}"),
            "{agg}"
        );
        assert!(lines[9].contains("\"kind\": \"family\", \"family\": \"stress\""));
        let table = run.table();
        assert!(table.contains("vars_full"), "{table}");
        assert!(table.lines().last().unwrap().starts_with("all"), "{table}");
    }

    #[test]
    fn every_line_has_the_same_keys() {
        let run = stub(
            Compare::Share,
            &[("stress", &["t"])],
            &[("t", pair(("safe", 1.0), ("safe", 1.0), &[1, 2, 3]))],
        );
        let keys = |l: &str| -> Vec<String> {
            l.split(", \"")
                .map(|kv| {
                    kv.trim_start_matches("{\"")
                        .split('"')
                        .next()
                        .unwrap()
                        .to_string()
                })
                .collect()
        };
        let lines = run.ndjson("t", true);
        for l in &lines {
            assert_eq!(keys(l), keys(&lines[0]), "{l}");
        }
        assert_eq!(
            keys(&lines[0]),
            [
                "tag",
                "compare",
                "kind",
                "family",
                "task",
                "mm",
                "verdict_a",
                "verdict_b",
                "agree",
                "rows",
                "excluded",
                "a_ms",
                "b_ms",
                "ratio",
                "accept",
                "sh_exported",
                "sh_imported",
                "sh_import_hits"
            ]
        );
    }

    #[test]
    fn sweep_gate_needs_1_5x_on_stress_and_wmm_only() {
        let families: &[(&'static str, &[&str])] =
            &[("stress", &["s"]), ("wmm", &["w"]), ("loopy", &["l"])];
        let run_with = |s_b: f64| {
            stub(
                Compare::Sweep,
                families,
                &[
                    ("s", pair(("safe", 3.0), ("safe", s_b), &[0; 8])),
                    ("w", pair(("safe", 3.0), ("safe", 1.0), &[0; 8])),
                    // The loopy family does not count towards the gate.
                    ("l", pair(("safe", 1.0), ("safe", 100.0), &[0; 8])),
                ],
            )
        };
        assert!(passes(&run_with(1.0), false));
        assert!(passes(&run_with(3.0), true), "A/B = 1.5 passes");
        assert!(!passes(&run_with(3.1), false));
    }

    #[test]
    fn share_gate_needs_tolerance_and_import_hits() {
        let run_with = |b_ms: f64, hits: u64| {
            stub(
                Compare::Share,
                &[("contended", &["c"])],
                &[("c", pair(("safe", 100.0), ("safe", b_ms), &[5, 5, hits]))],
            )
        };
        assert!(passes(&run_with(115.0, 1), false));
        assert!(!passes(&run_with(116.0, 1), false));
        assert!(passes(&run_with(150.0, 1), true), "quick allows 50%");
        assert!(!passes(&run_with(151.0, 1), true));
        assert!(!passes(&run_with(50.0, 0), false), "no import hits");
    }

    #[test]
    fn prune_gate_needs_tolerance_and_a_heavy_family_reduction() {
        let run_with = |b_ms: f64, heavy_left: u64| {
            stub(
                Compare::Prune,
                &[("stress", &["s"]), ("contended", &["c"])],
                &[
                    // A stress reduction alone does not satisfy the gate.
                    ("s", pair(("safe", 100.0), ("safe", b_ms), &[10, 0])),
                    (
                        "c",
                        pair(("safe", 100.0), ("safe", 100.0), &[10, heavy_left]),
                    ),
                ],
            )
        };
        assert!(passes(&run_with(130.0, 9), false));
        assert!(!passes(&run_with(131.0, 9), false));
        assert!(!passes(&run_with(100.0, 10), false));
        assert!(passes(&run_with(199.0, 9), true));
    }

    #[test]
    fn eog_gate_is_agreement_only_and_prints_the_visited_ratio() {
        let run = stub(
            Compare::Eog,
            &[("stress", &["s"])],
            &[(
                "s",
                pair(("safe", 1.0), ("safe", 100.0), &[0, 0, 0, 0, 50, 2, 0, 0]),
            )],
        );
        assert_eq!(run.gate(false).len(), 1);
        assert!(passes(&run, false), "a slower B does not fail eog");
        assert!(
            run.table()
                .contains("stress: visited-nodes ratio (A/B) 25.00x"),
            "{}",
            run.table()
        );
    }

    #[test]
    fn zero_denominator_ratio_is_null() {
        assert_eq!(ratio(1.0, 0.0), None);
        assert_eq!(ratio(3.0, 2.0), Some(1.5));
        let run = stub(
            Compare::Prune,
            &[("stress", &["t"])],
            &[("t", pair(("safe", 1.0), ("safe", 0.0), &[0, 0]))],
        );
        for l in run.ndjson("t", true) {
            assert!(l.contains("\"ratio\": null"), "{l}");
            assert!(!l.contains("inf"), "{l}");
        }
        assert!(run.table().contains(" - "));
    }

    #[test]
    fn table_renders_counters_and_ratio() {
        let run = stub(
            Compare::Share,
            &[("stress", &["t"])],
            &[("t", pair(("safe", 100.0), ("safe", 50.0), &[40, 20, 7]))],
        );
        let t = run.table();
        assert!(t.contains("A = isolated, B = shared"), "{t}");
        for col in [
            "sh_exported",
            "sh_imported",
            "sh_import_hits",
            "2.00x",
            "stress",
        ] {
            assert!(t.contains(col), "missing {col} in\n{t}");
        }
    }

    #[test]
    fn names_round_trip_and_every_comparison_has_families() {
        for c in Compare::ALL {
            assert_eq!(Compare::from_name(c.name()), Some(c));
            assert!(!c.families(true).is_empty());
        }
        assert_eq!(Compare::from_name("bogus"), None);
    }
}
