//! The sides of the `sweep` comparison: per-bound scratch solving vs the
//! incremental bound sweep.
//!
//! The paper's experimental setup generates one SMT instance per loop
//! unrolling bound `k = 1..=K` and solves each from scratch — every bound
//! pays its own unroll/SSA/encode/bit-blast and starts its solver cold.
//! The incremental driver ([`zpre::try_verify_sweep`]) encodes the horizon `K`
//! once and walks the bounds inside a single solver via assumption frames,
//! inheriting learnt clauses, phase saving, activity, and the order
//! theory's fixed program-order state from earlier bounds.
//!
//! `compare_one` races both drivers on a task, asserts the verdicts are
//! identical at every bound (this module doubles as an equivalence
//! oracle), and returns the pair with wall-clock plus bound, decision,
//! conflict, frame and reused-learnt counters for the pair loop in
//! [`crate::compare`].

use zpre::{try_verify, try_verify_sweep_full, Strategy, Verdict, VerifyOptions};
use zpre_prog::MemoryModel;
use zpre_workloads::Task;

use crate::compare::{Pair, Side};
use crate::runner::{verdict_str, RunConfig};

/// Races the per-bound scratch protocol against the incremental sweep on
/// one (task, memory model) pair and asserts the verdicts agree at every
/// bound.
///
/// Both sides follow the paper's evaluation protocol — a verdict at
/// **every** bound `1..=max_bound` (each per-bound SMT instance is an
/// independent benchmark there). Scratch pays a fresh unroll/encode/solve
/// per bound; the incremental driver encodes the horizon once and walks
/// the frames inside one solver. A loop-free program's single frame
/// stands in for all bounds (its instance is bound-independent), which is
/// exactly the reuse the sweep is meant to deliver.
///
/// # Panics
///
/// Panics when the two drivers disagree on any bound's verdict — a bench
/// run is also an equivalence check, and a divergence must sink it loudly.
pub(crate) fn compare_one(task: &Task, mm: MemoryModel, max_bound: u32, cfg: &RunConfig) -> Pair {
    let base = VerifyOptions {
        mm,
        strategy: Strategy::Zpre,
        unroll_bound: task.unroll_bound,
        max_bound,
        max_conflicts: Some(cfg.max_conflicts),
        timeout: cfg.timeout,
        max_memory: None,
        seed: cfg.seed,
        validate_models: cfg.validate,
        want_trace: false,
        cancel: None,
        certify: false,
        fault: None,
        recorder: None,
        share: None,
        prune: cfg.prune,
    };

    // Scratch: one fresh instance per bound, each paying its own encode.
    let t0 = std::time::Instant::now();
    let mut scratch_verdicts: Vec<Verdict> = Vec::new();
    let mut scratch_bound = max_bound;
    let mut scratch_decisions = 0u64;
    let mut scratch_conflicts = 0u64;
    for k in 1..=max_bound {
        let opts = VerifyOptions {
            unroll_bound: k,
            ..base.clone()
        };
        let out = try_verify(&task.program, &opts)
            .unwrap_or_else(|e| panic!("{} {mm}: scratch bound {k}: {e}", task.name));
        scratch_decisions += out.stats.decisions;
        scratch_conflicts += out.stats.conflicts;
        if scratch_verdicts.iter().all(|&v| v == Verdict::Safe) {
            scratch_bound = k;
        }
        scratch_verdicts.push(out.verdict);
        if out.verdict == Verdict::Unknown {
            break;
        }
    }
    let scratch_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Incremental: one encode at the horizon, one solver across frames.
    let t1 = std::time::Instant::now();
    let sweep = try_verify_sweep_full(&task.program, &base)
        .unwrap_or_else(|e| panic!("{} {mm}: sweep: {e}", task.name));
    let sweep_ms = t1.elapsed().as_secs_f64() * 1e3;

    for (i, &scratch_v) in scratch_verdicts.iter().enumerate() {
        // A loop-free sweep's single frame answers for every bound.
        let frame = if sweep.loop_free {
            &sweep.frames[0]
        } else {
            &sweep.frames[i]
        };
        assert_eq!(
            frame.verdict,
            scratch_v,
            "{} {mm}: bound {} verdict diverges between sweep and scratch",
            task.name,
            i + 1
        );
    }
    let scratch_verdict = scratch_verdicts
        .iter()
        .copied()
        .find(|&v| v != Verdict::Safe)
        .unwrap_or(Verdict::Safe);
    assert_eq!(
        sweep.verdict, scratch_verdict,
        "{} {mm}: overall verdict diverges between sweep and scratch",
        task.name
    );

    let side = |v: Verdict, ms: f64| Side {
        verdict: verdict_str(v).to_string(),
        ms,
    };
    Pair {
        a: side(scratch_verdict, scratch_ms),
        b: side(sweep.verdict, sweep_ms),
        // In `Compare::Sweep.counters()` order.
        counters: vec![
            u64::from(scratch_bound),
            u64::from(sweep.bound),
            scratch_decisions,
            sweep.stats.decisions,
            scratch_conflicts,
            sweep.stats.conflicts,
            sweep.frames.len() as u64,
            sweep.frames.iter().map(|f| f.reused_learnts).sum(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::{run_pairs, Compare};
    use zpre_workloads::{subcategory, Scale, Subcat};

    /// The value of the sweep counter `name` in `counters`.
    fn counter(counters: &[u64], name: &str) -> u64 {
        let i = Compare::Sweep.counters().iter().position(|&c| c == name);
        counters[i.expect("sweep counter")]
    }

    #[test]
    fn stress_rows_agree_and_carry_telemetry() {
        let tasks: Vec<Task> = subcategory(Scale::Quick, Subcat::Stress)
            .into_iter()
            .take(2)
            .collect();
        let cfg = RunConfig::default();
        let run = run_pairs(Compare::Sweep, &[("stress", tasks)], |t, mm| {
            compare_one(t, mm, 4, &cfg)
        });
        assert_eq!(run.rows.len(), 2 * MemoryModel::ALL.len());
        for r in &run.rows {
            // compare_one asserted the verdicts already; the rows must be
            // well-formed on top of that.
            let c = &r.pair.counters;
            assert_eq!(
                counter(c, "frames"),
                1,
                "loop-free sweep collapses to one frame"
            );
            assert_eq!(counter(c, "bound_b"), 1, "stress tasks are loop-free");
            assert!(r.pair.a.ms > 0.0 && r.pair.b.ms > 0.0);
        }
        assert_eq!(run.total.rows, 6);
        assert_eq!(run.total.disagreements, 0);
        let lines = run.ndjson("test", true);
        assert!(lines[6].contains("\"kind\": \"family\", \"family\": \"stress\""));
    }

    #[test]
    fn loopy_task_reuses_learnt_state() {
        use zpre_prog::build::*;
        let p = ProgramBuilder::new("kstar4")
            .shared("x", 0)
            .main(vec![
                while_(lt(v("x"), c(4)), vec![assign("x", add(v("x"), c(1)))]),
                assert_(ne(v("x"), c(4))),
            ])
            .build();
        let task = Task::new("loopy/kstar4", Subcat::Ext, p, 6, Default::default());
        let pair = compare_one(&task, MemoryModel::Sc, 6, &RunConfig::default());
        assert_eq!(pair.b.verdict, "unsafe");
        assert_eq!(counter(&pair.counters, "bound_b"), 4);
        assert_eq!(
            counter(&pair.counters, "frames"),
            6,
            "full protocol solves every bound"
        );
    }
}
