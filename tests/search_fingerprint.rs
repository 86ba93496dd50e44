//! Search fingerprint: pins the exact search effort of a few small jobs.
//!
//! Performance work on the program-order and order-theory layers, and
//! refactors of the verifier's own setup, must leave every search step as
//! it was. The first cases run the one-shot ZPRE pipeline from public calls
//! (unroll → SSA → prune → encode → H1–H4 order → solve); the last two go
//! through the verifier's entry points (`try_verify`,
//! `try_verify_sweep_full`). Each compares decisions, conflicts,
//! propagations and the order theory's cycle-check counters with recorded
//! values. A change that alters search on purpose re-records them here and
//! says so in CHANGES.md. Each case runs in well under a second in the
//! debug build.

use zpre::{decision_order, try_verify, try_verify_sweep_full, Strategy, Verdict, VerifyOptions};
use zpre_encoder::try_encode_opts;
use zpre_prog::build::*;
use zpre_prog::{to_ssa, unroll_program, MemoryModel, Program};
use zpre_sat::{PriorityListGuide, SolveResult, Solver, Stats};
use zpre_smt::{CycleStats, OrderTheory};
use zpre_workloads::util::{ballast, harness_program};
use zpre_workloads::{divine, pthread, Scale};

/// The polarity seed `harness` and the repository benchmark default to.
const SEED: u64 = 0xC0FFEE;

/// Search effort of one solve.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    result: SolveResult,
    decisions: u64,
    conflicts: u64,
    propagations: u64,
    cycles: CycleStats,
}

fn fingerprint(program: &Program, bound: u32, mm: MemoryModel) -> Fingerprint {
    let ssa = to_ssa(&unroll_program(program, bound));
    let report = zpre_analysis::analyze(&ssa, mm);
    let guide = PriorityListGuide::new(Vec::new(), SEED);
    let mut solver: Solver<OrderTheory, PriorityListGuide> =
        Solver::with_parts(OrderTheory::new(), guide);
    let enc = try_encode_opts(&ssa, mm, &mut solver, None, Some(&report)).expect("encodes");
    let order = decision_order(&enc.registry, Strategy::Zpre.refinements());
    solver.guide = PriorityListGuide::new(order, SEED);
    let result = solver.solve();
    let s = *solver.stats();
    Fingerprint {
        result,
        decisions: s.decisions,
        conflicts: s.conflicts,
        propagations: s.propagations,
        cycles: solver.theory.cycle_stats(),
    }
}

/// Store buffering padded with `b` ballast variables, as in the
/// benchmark's `wide` workload: unsafe under TSO and PSO.
fn padded_sb(b: usize) -> Program {
    let mut t1 = vec![assign("x", c(1)), assign("r1", v("y"))];
    let mut t2 = vec![assign("y", c(1)), assign("r2", v("x"))];
    let bl = ballast("z", b);
    t1.extend(bl.writer);
    t2.extend(bl.reader);
    let mut decls: Vec<(&str, u64)> = ["x", "y", "r1", "r2"].iter().map(|&n| (n, 0)).collect();
    decls.extend(bl.shared.iter().map(|(n, init)| (n.as_str(), *init)));
    let workers = vec![("t1".to_string(), t1), ("t2".to_string(), t2)];
    let property = not(and(eq(v("r1"), c(0)), eq(v("r2"), c(0))));
    harness_program("sb-padded", 8, &decls, &[], workers, property)
}

fn cycles(checks: u64, accepted_o1: u64, searched: u64, visited: u64, promoted: u64) -> CycleStats {
    CycleStats {
        checks,
        accepted_o1,
        searched,
        visited,
        promoted,
    }
}

#[test]
fn padded_store_buffering_under_tso() {
    let got = fingerprint(&padded_sb(12), 1, MemoryModel::Tso);
    let want = Fingerprint {
        result: SolveResult::Sat,
        decisions: 19,
        conflicts: 1,
        propagations: 863,
        cycles: cycles(744, 106, 638, 798, 738),
    };
    assert_eq!(got, want);
}

#[test]
fn padded_store_buffering_under_pso() {
    let got = fingerprint(&padded_sb(12), 1, MemoryModel::Pso);
    let want = Fingerprint {
        result: SolveResult::Sat,
        decisions: 29,
        conflicts: 1,
        propagations: 929,
        cycles: cycles(320, 142, 178, 262, 222),
    };
    assert_eq!(got, want);
}

#[test]
fn locked_counter_under_tso() {
    let task = pthread::tasks(Scale::Quick)
        .into_iter()
        .find(|t| t.name == "pthread/counter-2x1-locked")
        .expect("task exists");
    let got = fingerprint(&task.program, task.unroll_bound, MemoryModel::Tso);
    let want = Fingerprint {
        result: SolveResult::Unsat,
        decisions: 13,
        conflicts: 14,
        propagations: 550,
        cycles: cycles(80, 28, 52, 118, 67),
    };
    assert_eq!(got, want);
}

/// Search effort as the verifier's own entry points report it: the same
/// counters, read from the returned [`zpre_sat::Stats`]. These cases see a
/// change in the verifier's setup (theory switches, guide install, budget)
/// that the public-call cases above cannot.
#[derive(Debug, PartialEq, Eq)]
struct Effort {
    verdict: Verdict,
    decisions: u64,
    conflicts: u64,
    propagations: u64,
    /// `eog_checks`, `eog_accepted_o1`, `eog_visited`, `eog_promoted`.
    eog: [u64; 4],
}

impl Effort {
    fn of(verdict: Verdict, s: &Stats) -> Effort {
        Effort {
            verdict,
            decisions: s.decisions,
            conflicts: s.conflicts,
            propagations: s.propagations,
            eog: [
                s.eog_checks,
                s.eog_accepted_o1,
                s.eog_visited,
                s.eog_promoted,
            ],
        }
    }
}

#[test]
fn one_shot_entry_point_on_padded_store_buffering_under_tso() {
    let opts = VerifyOptions {
        unroll_bound: 1,
        seed: SEED,
        ..VerifyOptions::new(MemoryModel::Tso, Strategy::Zpre)
    };
    let out = try_verify(&padded_sb(12), &opts).expect("verifies");
    let want = Effort {
        verdict: Verdict::Unsafe,
        decisions: 19,
        conflicts: 1,
        propagations: 863,
        eog: [744, 106, 798, 738],
    };
    assert_eq!(Effort::of(out.verdict, &out.stats), want);
}

#[test]
fn sweep_entry_point_on_a_token_ring_to_horizon_4() {
    let task = divine::tasks(Scale::Quick)
        .into_iter()
        .find(|t| t.name == "divine/ring-broken-2")
        .expect("task exists");
    assert!(task.program.has_loops());
    let opts = VerifyOptions {
        max_bound: 4,
        seed: SEED,
        ..VerifyOptions::new(MemoryModel::Sc, Strategy::Zpre)
    };
    let out = try_verify_sweep_full(&task.program, &opts).expect("sweeps");
    // (bound, verdict, decisions, conflicts, propagations) per frame.
    let frames: Vec<(u32, Verdict, u64, u64, u64)> = out
        .frames
        .iter()
        .map(|f| (f.bound, f.verdict, f.decisions, f.conflicts, f.propagations))
        .collect();
    let want_frames = vec![
        (1, Verdict::Unsafe, 128, 9, 957),
        (2, Verdict::Unsafe, 39, 2, 463),
        (3, Verdict::Unsafe, 57, 2, 382),
        (4, Verdict::Unsafe, 42, 0, 287),
    ];
    assert_eq!(frames, want_frames);
    let want = Effort {
        verdict: Verdict::Unsafe,
        decisions: 266,
        conflicts: 13,
        propagations: 2089,
        eog: [123, 69, 113, 59],
    };
    assert_eq!(Effort::of(out.verdict, &out.stats), want);
}
