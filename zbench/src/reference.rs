//! Reference verdicts, checked in as `reference.tsv`.
//!
//! Each row is `workload <TAB> job <TAB> verdict <TAB> source`, where the
//! source says where the verdict comes from:
//!
//! - `generator`: the workload generator's `Task::expected`;
//! - `litmus`: litmus semantics of the `wide` shapes;
//! - `oracle`: the explicit-state interpreter (`check_sc`/`check_wmm`) on
//!   the unrolled program, at every bound the job covers;
//! - `certified`: a one-shot run with certification on, whose Safe proof
//!   was RUP-checked or whose Unsafe witness was replayed, at every bound
//!   the job covers.
//!
//! `zbench reference --workload W` recomputes the rows of `W`.

use crate::jobs::{Job, Workload, SWEEP_HORIZON};
use std::collections::HashMap;
use zpre::{try_verify, Verdict};
use zpre_prog::interp::{check_sc, Limits, Outcome};
use zpre_prog::{check_wmm, flatten, unroll_program, MemoryModel};

const TABLE: &str = include_str!("../reference.tsv");

fn parse_verdict(s: &str) -> Option<Verdict> {
    match s {
        "safe" => Some(Verdict::Safe),
        "unsafe" => Some(Verdict::Unsafe),
        _ => None,
    }
}

/// The reference verdict of every job of `w`, in job order.
pub fn lookup(w: Workload, jobs: &[Job]) -> Result<Vec<Verdict>, String> {
    let mut table: HashMap<&str, Verdict> = HashMap::new();
    for (i, line) in TABLE.lines().enumerate() {
        let f: Vec<&str> = line.split('\t').collect();
        let [wl, job, verdict, _source] = f[..] else {
            return Err(format!("reference.tsv:{}: expected 4 fields", i + 1));
        };
        if wl != w.name() {
            continue;
        }
        let v = parse_verdict(verdict)
            .ok_or_else(|| format!("reference.tsv:{}: bad verdict {verdict:?}", i + 1))?;
        table.insert(job, v);
    }
    if table.len() != jobs.len() {
        return Err(format!(
            "reference.tsv has {} rows for {}, the workload has {} jobs",
            table.len(),
            w.name(),
            jobs.len()
        ));
    }
    jobs.iter()
        .map(|j| {
            table
                .get(j.id.as_str())
                .copied()
                .ok_or_else(|| format!("no reference verdict for {}", j.id))
        })
        .collect()
}

/// State cap of the explicit-state interpreter, which keeps its memory to
/// a few hundred MB; larger jobs fall back to certification.
const ORACLE_MAX_STATES: usize = 100_000;

/// Explicit-state verdict at one bound, if the interpreter finishes.
fn oracle_at(job: &Job, bound: u32) -> Option<Verdict> {
    let flat = flatten(&unroll_program(&job.program, bound));
    let limits = Limits {
        max_states: ORACLE_MAX_STATES,
        ..Limits::default()
    };
    let out = match job.mm {
        MemoryModel::Sc => check_sc(&flat, limits),
        mm => check_wmm(&flat, mm, limits),
    };
    match out {
        Outcome::Safe => Some(Verdict::Safe),
        Outcome::Unsafe => Some(Verdict::Unsafe),
        Outcome::ResourceLimit => None,
    }
}

/// Certified one-shot verdict at one bound.
fn certified_at(job: &Job, bound: u32) -> Result<Verdict, String> {
    let mut opts = job.options(crate::DEFAULT_SEED);
    opts.unroll_bound = bound;
    opts.max_conflicts = None;
    opts.certify = true;
    let out = try_verify(&job.program, &opts).map_err(|e| format!("{}: {e}", job.id))?;
    match (out.verdict, out.certificate) {
        (Verdict::Unknown, _) | (_, None) => Err(format!("{}: no certified verdict", job.id)),
        (v, Some(_)) => Ok(v),
    }
}

/// Folds per-bound verdicts into a sweep verdict: unsafe at any bound is
/// unsafe; safe needs every bound safe.
fn fold(bounds: &[u32], mut at: impl FnMut(u32) -> Option<Verdict>) -> Option<Verdict> {
    let mut all_safe = true;
    for &k in bounds {
        match at(k)? {
            Verdict::Unsafe => return Some(Verdict::Unsafe),
            v => all_safe &= v == Verdict::Safe,
        }
    }
    all_safe.then_some(Verdict::Safe)
}

/// Recomputes the reference row of one job.
pub fn compute(w: Workload, job: &Job) -> Result<(Verdict, &'static str), String> {
    if let Some(safe) = job.expected {
        let v = if safe { Verdict::Safe } else { Verdict::Unsafe };
        let source = if w == Workload::Wide {
            "litmus"
        } else {
            "generator"
        };
        return Ok((v, source));
    }
    let bounds: Vec<u32> = if w.is_sweep() && job.program.has_loops() {
        (1..=SWEEP_HORIZON).collect()
    } else {
        vec![job.bound]
    };
    if let Some(v) = fold(&bounds, |k| oracle_at(job, k)) {
        return Ok((v, "oracle"));
    }
    let mut err = None;
    let v = fold(&bounds, |k| {
        certified_at(job, k).map_err(|e| err = Some(e)).ok()
    });
    match (v, err) {
        (Some(v), None) => Ok((v, "certified")),
        (_, Some(e)) => Err(e),
        (None, None) => Err(format!("{}: no reference verdict", job.id)),
    }
}

/// Prints the reference rows of `w`.
pub fn print(w: Workload) -> Result<(), String> {
    for job in crate::jobs::jobs(w) {
        let (v, source) = compute(w, &job)?;
        println!("{}\t{}\t{v}\t{source}", w.name(), job.id);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checked_in_table_covers_every_job() {
        for w in Workload::ALL {
            let jobs = crate::jobs::jobs(w);
            let refs = lookup(w, &jobs).unwrap();
            // Where the generator knows the verdict, the table agrees.
            for (j, v) in jobs.iter().zip(refs) {
                if let Some(safe) = j.expected {
                    assert_eq!(v == Verdict::Safe, safe, "{}", j.id);
                }
            }
        }
    }

    #[test]
    fn fold_needs_every_bound_safe() {
        let s = Some(Verdict::Safe);
        assert_eq!(fold(&[1, 2], |_| s), s);
        assert_eq!(
            fold(&[1, 2], |k| if k == 2 { Some(Verdict::Unsafe) } else { s }),
            Some(Verdict::Unsafe)
        );
        assert_eq!(fold(&[1, 2], |k| if k == 1 { None } else { s }), None);
    }
}
