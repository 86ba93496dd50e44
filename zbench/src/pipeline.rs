//! Running one job: the program's own entry points for the measured run,
//! and the same pipeline rebuilt from public calls, one span per layer,
//! for the traced run.

use crate::jobs::{Job, MAX_CONFLICTS, SWEEP_HORIZON};
use crate::spans::Tracer;
use std::collections::BTreeMap;
use zpre::{decision_order, try_verify, try_verify_sweep_full, Strategy, Verdict};
use zpre_encoder::{encode_sweep_opts, try_encode_opts};
use zpre_prog::{to_ssa, unroll_program, unroll_program_sweep};
use zpre_sat::{Budget, PriorityListGuide, SolveResult, Solver, Stats};
use zpre_smt::{OrderTheory, VarRegistry};

/// What the benchmark keeps of one job's run: the verdict and the Table 2
/// search-effort counters.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Outcome {
    pub verdict: Verdict,
    pub decisions: u64,
    pub conflicts: u64,
    pub propagations: u64,
}

impl Outcome {
    fn new(verdict: Verdict, s: &Stats) -> Outcome {
        Outcome {
            verdict,
            decisions: s.decisions,
            conflicts: s.conflicts,
            propagations: s.propagations,
        }
    }
}

/// Runs `job` through `try_verify` (or `try_verify_sweep_full`).
pub fn run(job: &Job, seed: u64, sweep: bool) -> Result<Outcome, String> {
    let opts = job.options(seed);
    let out = if sweep {
        try_verify_sweep_full(&job.program, &opts).map(|o| Outcome::new(o.verdict, &o.stats))
    } else {
        try_verify(&job.program, &opts).map(|o| Outcome::new(o.verdict, &o.stats))
    };
    out.map_err(|e| e.to_string())
}

/// Per-layer work counters, keyed by metric name.
pub type Tally = BTreeMap<&'static str, u64>;

fn verdict_of(r: SolveResult) -> Verdict {
    match r {
        SolveResult::Sat => Verdict::Unsafe,
        SolveResult::Unsat => Verdict::Safe,
        SolveResult::Unknown => Verdict::Unknown,
    }
}

type ZpreSolver = Solver<OrderTheory, PriorityListGuide>;

/// Counters known once the instance is encoded.
fn tally_encoding(t: &mut Tally, solver: &ZpreSolver, registry: &VarRegistry) {
    let cc = registry.class_counts();
    *t.entry("encoder.solver_vars").or_default() += solver.num_vars() as u64;
    *t.entry("encoder.interference_vars").or_default() += (cc.rf + cc.ws) as u64;
    *t.entry("encoder.cnf_bytes").or_default() += solver.memory_bytes();
}

/// Installs the H1–H4 priority list, as the verifier does after encoding.
fn install_order(
    tr: &mut Tracer,
    jid: usize,
    solver: &mut ZpreSolver,
    reg: &VarRegistry,
    seed: u64,
) {
    let order = tr.span("core.order", jid, || {
        decision_order(reg, Strategy::Zpre.refinements())
    });
    solver.guide = PriorityListGuide::new(order, seed);
}

/// Runs `job` through the pipeline rebuilt from public calls:
/// `unroll_program` → `to_ssa` → `analyze` → `try_encode_opts` →
/// `decision_order` + `Solver::solve`, or for a sweep
/// `unroll_program_sweep` → `to_ssa` → `analyze` → `encode_sweep_opts` →
/// per frame `encode_frame` + `solve_with_assumptions`. Spans go to `tr`
/// under job id `jid`; work counters are added to `tally`.
pub fn traced(
    job: &Job,
    seed: u64,
    sweep: bool,
    tr: &mut Tracer,
    jid: usize,
    tally: &mut Tally,
) -> Result<Outcome, String> {
    let ssa = if sweep {
        let sw = tr.span("prog.unroll", jid, || {
            unroll_program_sweep(&job.program, SWEEP_HORIZON)
        });
        tr.span("prog.ssa", jid, || to_ssa(&sw.program))
    } else {
        let unrolled = tr.span("prog.unroll", jid, || {
            unroll_program(&job.program, job.bound)
        });
        tr.span("prog.ssa", jid, || to_ssa(&unrolled))
    };
    *tally.entry("prog.events").or_default() += ssa.events.len() as u64;

    let report = tr.span("analysis.prune", jid, || {
        zpre_analysis::analyze(&ssa, job.mm)
    });
    let c = &report.counters;
    for (k, v) in [
        ("analysis.rf_pruned", c.rf_pruned),
        ("analysis.rf_kept", c.rf_kept),
        ("analysis.ws_pruned", c.ws_pruned),
        ("analysis.reads_resolved", c.reads_resolved),
    ] {
        *tally.entry(k).or_default() += v;
    }

    let guide = PriorityListGuide::new(Vec::new(), seed);
    let mut solver: ZpreSolver = Solver::with_parts(OrderTheory::new(), guide);
    let budget = || Budget::with_limits(Some(MAX_CONFLICTS), None);
    let mut frames = 0u64;
    let mut reused_learnts = 0u64;
    let verdict = if sweep {
        let mut enc = tr
            .span("encoder.encode", jid, || {
                encode_sweep_opts(
                    &ssa,
                    job.mm,
                    SWEEP_HORIZON,
                    &mut solver,
                    None,
                    Some(&report),
                )
            })
            .map_err(|e| e.to_string())?;
        tally_encoding(tally, &solver, &enc.base.registry);
        install_order(tr, jid, &mut solver, &enc.base.registry, seed);
        // A loop-free program's single frame answers for every bound.
        let last = if job.program.has_loops() {
            SWEEP_HORIZON
        } else {
            1
        };
        let mut verdict = Verdict::Safe;
        for k in 1..=last {
            tr.span("encoder.frame", jid, || enc.encode_frame(k, &mut solver));
            solver.set_budget(budget());
            reused_learnts += solver.stats().learnt_clauses;
            let assumptions = enc.assumptions(k);
            let r = tr.span("sat.solve", jid, || {
                solver.solve_with_assumptions(&assumptions)
            });
            frames += 1;
            let v = verdict_of(r);
            if verdict == Verdict::Safe {
                verdict = v;
            }
            if v == Verdict::Unknown {
                break;
            }
        }
        verdict
    } else {
        let enc = tr
            .span("encoder.encode", jid, || {
                try_encode_opts(&ssa, job.mm, &mut solver, None, Some(&report))
            })
            .map_err(|e| e.to_string())?;
        tally_encoding(tally, &solver, &enc.registry);
        install_order(tr, jid, &mut solver, &enc.registry, seed);
        solver.set_budget(budget());
        frames += 1;
        verdict_of(tr.span("sat.solve", jid, || solver.solve()))
    };

    let s = *solver.stats();
    let cs = solver.theory.cycle_stats();
    for (k, v) in [
        ("core.frames", frames),
        ("sat.decisions", s.decisions),
        ("sat.guided_decisions", s.guided_decisions),
        ("sat.propagations", s.propagations),
        ("sat.restarts", s.restarts),
        ("sat.learnt_clauses", s.learnt_clauses),
        ("sat.reductions", s.reductions),
        ("sat.reused_learnts", reused_learnts),
        ("smt.theory_conflicts", s.theory_conflicts),
        ("smt.theory_propagations", s.theory_propagations),
        ("smt.eog_checks", cs.checks),
        ("smt.eog_accepted_o1", cs.accepted_o1),
        ("smt.eog_visited", cs.visited),
        ("smt.eog_promoted", cs.promoted),
    ] {
        *tally.entry(k).or_default() += v;
    }
    Ok(Outcome::new(verdict, &s))
}
