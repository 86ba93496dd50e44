//! Property-based end-to-end validation: random small concurrent programs
//! are verified by the SMT pipeline and cross-checked against exhaustive
//! interleaving enumeration (SC) and across strategies. The program-order
//! layer is checked for exactness on the same programs and on random DAGs:
//! the closure against a naive one, and the shortest-path search against a
//! plain reference BFS.

use proptest::prelude::*;
use std::collections::VecDeque;
use zpre::{verify, Strategy as SolveStrategy, Verdict, VerifyOptions};
use zpre_analysis::{po_pairs, PathFinder, PoClosure};
use zpre_prog::build::*;
use zpre_prog::interp::{check_sc, Limits, Outcome};
use zpre_prog::{flatten, to_ssa, unroll_program, MemoryModel, Program, Stmt};

/// A tiny statement language over two shared variables and per-thread
/// locals, rich enough to exercise rf/ws/fr, guards and the data path.
#[derive(Clone, Debug)]
enum MiniStmt {
    /// shared[var] := const
    StoreConst(usize, u64),
    /// shared[var] := shared[other] + const
    StoreAdd(usize, usize, u64),
    /// local := shared[var]
    LoadLocal(usize),
    /// shared[var] := local + const
    StoreLocal(usize, u64),
    /// if (shared[var] == const) { shared[other] := const2 }
    CondStore(usize, u64, usize, u64),
    /// lock-protected increment of shared[var]
    LockedInc(usize),
}

const VARS: [&str; 2] = ["x", "y"];

fn arb_stmt() -> impl Strategy<Value = MiniStmt> {
    prop_oneof![
        (0..2usize, 0..4u64).prop_map(|(v, k)| MiniStmt::StoreConst(v, k)),
        (0..2usize, 0..2usize, 0..3u64).prop_map(|(a, b, k)| MiniStmt::StoreAdd(a, b, k)),
        (0..2usize).prop_map(MiniStmt::LoadLocal),
        (0..2usize, 0..3u64).prop_map(|(v, k)| MiniStmt::StoreLocal(v, k)),
        (0..2usize, 0..2u64, 0..2usize, 1..4u64)
            .prop_map(|(v, k, o, k2)| MiniStmt::CondStore(v, k, o, k2)),
        (0..2usize).prop_map(MiniStmt::LockedInc),
    ]
}

fn lower(thread: usize, stmts: &[MiniStmt]) -> Vec<Stmt> {
    let local = format!("l{thread}");
    let mut out = Vec::new();
    for (i, s) in stmts.iter().enumerate() {
        match s {
            MiniStmt::StoreConst(v_, k) => out.push(assign(VARS[*v_], c(*k))),
            MiniStmt::StoreAdd(a, b_, k) => out.push(assign(VARS[*a], add(v(VARS[*b_]), c(*k)))),
            MiniStmt::LoadLocal(v_) => out.push(assign(&local, v(VARS[*v_]))),
            MiniStmt::StoreLocal(v_, k) => out.push(assign(VARS[*v_], add(v(&local), c(*k)))),
            MiniStmt::CondStore(v_, k, o, k2) => out.push(when(
                eq(v(VARS[*v_]), c(*k)),
                vec![assign(VARS[*o], c(*k2))],
            )),
            MiniStmt::LockedInc(v_) => {
                let r = format!("r{thread}_{i}");
                out.push(lock("m"));
                out.push(assign(&r, v(VARS[*v_])));
                out.push(assign(VARS[*v_], add(v(&r), c(1))));
                out.push(unlock("m"));
            }
        }
    }
    out
}

fn arb_program() -> impl Strategy<Value = Program> {
    (
        prop::collection::vec(arb_stmt(), 1..4),
        prop::collection::vec(arb_stmt(), 1..4),
        0..2usize,
        0..4u64,
        any::<bool>(),
    )
        .prop_map(|(t1, t2, avar, aconst, eq_prop)| {
            let prop_expr = if eq_prop {
                eq(v(VARS[avar]), c(aconst))
            } else {
                ne(v(VARS[avar]), c(aconst))
            };
            ProgramBuilder::new("random")
                .width(4)
                .shared("x", 0)
                .shared("y", 0)
                .mutex("m")
                .thread("t1", lower(1, &t1))
                .thread("t2", lower(2, &t2))
                .main(vec![
                    spawn(1),
                    spawn(2),
                    join(1),
                    join(2),
                    assert_(prop_expr),
                ])
                .build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The SMT verdict under SC equals exhaustive interleaving enumeration.
    #[test]
    fn smt_matches_oracle_under_sc(program in arb_program()) {
        let fp = flatten(&unroll_program(&program, 1));
        let oracle = check_sc(&fp, Limits::default());
        prop_assume!(oracle != Outcome::ResourceLimit);
        let out = verify(&program, &VerifyOptions::new(MemoryModel::Sc, SolveStrategy::Zpre));
        prop_assert_eq!(
            out.verdict == Verdict::Safe,
            oracle == Outcome::Safe,
            "smt {:?} vs oracle {:?}\n{}",
            out.verdict,
            oracle,
            zpre_prog::pretty::pretty_program(&program)
        );
    }

    /// Baseline and guided strategies agree under every memory model
    /// (the heuristic must not change satisfiability), and the verdicts
    /// respect relaxation monotonicity.
    #[test]
    fn strategies_agree_and_models_are_monotone(program in arb_program()) {
        let mut per_mm = Vec::new();
        for mm in MemoryModel::ALL {
            let mut verdicts = Vec::new();
            for strategy in [SolveStrategy::Baseline, SolveStrategy::ZpreMinus, SolveStrategy::Zpre] {
                let out = verify(&program, &VerifyOptions::new(mm, strategy));
                verdicts.push(out.verdict);
            }
            prop_assert_eq!(verdicts[0], verdicts[1]);
            prop_assert_eq!(verdicts[1], verdicts[2]);
            per_mm.push(verdicts[0]);
        }
        // SC unsafe ⇒ TSO unsafe ⇒ PSO unsafe.
        if per_mm[0] == Verdict::Unsafe {
            prop_assert_eq!(per_mm[1], Verdict::Unsafe);
        }
        if per_mm[1] == Verdict::Unsafe {
            prop_assert_eq!(per_mm[2], Verdict::Unsafe);
        }
    }
}

/// Reachability by one DFS per source node.
fn naive_closure(n: usize, pairs: &[(usize, usize)]) -> Vec<Vec<bool>> {
    let mut adj = vec![Vec::new(); n];
    for &(a, b) in pairs {
        adj[a].push(b);
    }
    (0..n)
        .map(|s| {
            let mut seen = vec![false; n];
            let mut stack: Vec<usize> = adj[s].clone();
            while let Some(x) = stack.pop() {
                if !seen[x] {
                    seen[x] = true;
                    stack.extend(&adj[x]);
                }
            }
            seen
        })
        .collect()
}

/// Shortest path by a BFS that tests for the target when it is dequeued
/// and allocates afresh per query.
fn reference_path(
    n: usize,
    pairs: &[(usize, usize)],
    from: usize,
    to: usize,
) -> Option<Vec<usize>> {
    let mut adj = vec![Vec::new(); n];
    for &(a, b) in pairs {
        adj[a].push(b);
    }
    let mut prev: Vec<Option<usize>> = vec![None; n];
    let mut seen = vec![false; n];
    let mut queue = VecDeque::from([from]);
    seen[from] = true;
    while let Some(x) = queue.pop_front() {
        if x == to {
            let mut p = vec![to];
            let mut cur = to;
            while let Some(q) = prev[cur] {
                p.push(q);
                cur = q;
            }
            p.reverse();
            return Some(p);
        }
        for &y in &adj[x] {
            if !seen[y] {
                seen[y] = true;
                prev[y] = Some(x);
                queue.push_back(y);
            }
        }
    }
    None
}

/// Compares the closure and every pairwise path with the references.
fn check_program_order(n: usize, pairs: &[(usize, usize)]) -> Result<(), TestCaseError> {
    let closure = PoClosure::new(n, pairs);
    let naive = naive_closure(n, pairs);
    let mut finder = PathFinder::new(n, pairs);
    for (a, reach) in naive.iter().enumerate() {
        for (b, &want) in reach.iter().enumerate() {
            prop_assert_eq!(closure.reaches(a, b), want, "reach {} -> {}", a, b);
            prop_assert_eq!(
                finder.path(a, b),
                reference_path(n, pairs, a, b),
                "path {} -> {}",
                a,
                b
            );
        }
    }
    Ok(())
}

/// A random DAG: `n` nodes under a random topological order, and edges
/// between random node pairs oriented along it, in random order.
fn arb_dag() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (
        2..24usize,
        prop::collection::vec((0..24usize, 0..24usize), 0..80),
        any::<u64>(),
    )
        .prop_map(|(n, raw, seed)| {
            // Rank of each node in the topological order: a seeded shuffle.
            let mut rank: Vec<usize> = (0..n).collect();
            let mut s = seed | 1;
            for i in (1..n).rev() {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                rank.swap(i, (s % (i as u64 + 1)) as usize);
            }
            let pairs = raw
                .into_iter()
                .map(|(a, b)| (a % n, b % n))
                .filter(|(a, b)| a != b)
                .map(|(a, b)| if rank[a] < rank[b] { (a, b) } else { (b, a) })
                .collect();
            (n, pairs)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On random DAGs the skipping closure equals a naive closure, and the
    /// early-exit path search returns the reference BFS's path.
    #[test]
    fn program_order_is_exact_on_random_dags((n, pairs) in arb_dag()) {
        check_program_order(n, &pairs)?;
    }

    /// The same on the program order of random programs under every model.
    #[test]
    fn program_order_is_exact_on_random_programs(program in arb_program()) {
        let ssa = to_ssa(&unroll_program(&program, 1));
        for mm in MemoryModel::ALL {
            check_program_order(ssa.events.len(), &po_pairs(&ssa, mm))?;
        }
    }
}
