//! The three workloads as job lists. A job is one (program, memory model,
//! bound) verification; building the list is the benchmark's set-up.

use zpre::{Strategy, VerifyOptions};
use zpre_prog::build::*;
use zpre_prog::{MemoryModel, Program, Stmt};
use zpre_workloads::util::{ballast, harness_program};
use zpre_workloads::{suite, Scale, Subcat};

/// The paper's per-job conflict budget (the `harness` default).
pub const MAX_CONFLICTS: u64 = 200_000;
/// Sweep horizon: bounds `1..=SWEEP_HORIZON` are solved in one solver.
pub const SWEEP_HORIZON: u32 = 10;
/// Ballast sizes of the `wide` shapes.
pub const WIDE_BALLAST: [usize; 4] = [128, 256, 384, 512];

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Every full-suite task under SC/TSO/PSO, one-shot at its own bound.
    Paper,
    /// The loop-bearing families, incremental sweep over bounds 1..=10.
    Sweep,
    /// Ballast-padded SB/MP litmus shapes, one-shot.
    Wide,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Paper, Workload::Sweep, Workload::Wide];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::Sweep => "sweep",
            Workload::Wide => "wide",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn is_sweep(self) -> bool {
        self == Workload::Sweep
    }

    /// Polarity seeds each job runs under in one pass. One seed's search
    /// cost on the `sweep` Dekker jobs moves that workload's total by up to
    /// 1.5x, and one seed moves `wide`'s decision count by about a tenth,
    /// so those workloads average over several seeds.
    pub fn seeds_per_pass(self) -> usize {
        match self {
            Workload::Paper => 1,
            Workload::Sweep => 5,
            Workload::Wide => 3,
        }
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The polarity seeds of one pass: `seed` itself, then splitmix64 steps
/// from it. Each differs from the others above bit 0, which matters
/// because `PriorityListGuide::new` uses `seed | 1`.
pub fn pass_seeds(seed: u64, count: usize) -> Vec<u64> {
    let mut state = seed;
    let mut out = vec![seed];
    while out.len() < count {
        let z = splitmix64(&mut state);
        if out.iter().all(|&s| (s | 1) != (z | 1)) {
            out.push(z);
        }
    }
    out
}

/// The order a pass runs its `n` job runs in: one fixed shuffle, the same
/// for every seed. Generators emit a family's tasks together, so in list
/// order the cheap jobs would all fall into a few seconds of the run and
/// their times would sample the machine only then; shuffled, every kind
/// of job is spread over the whole run.
pub fn run_order(n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = 0x5EED;
    for i in (1..n).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// One verification job.
pub struct Job {
    /// `<task>@<mm>`, the key into `reference.tsv`.
    pub id: String,
    pub program: Program,
    pub bound: u32,
    pub mm: MemoryModel,
    /// The generator's verdict by construction (`true` = safe), if known.
    pub expected: Option<bool>,
}

impl Job {
    /// The options every run of this job uses: `Strategy::Zpre` with the
    /// paper's conflict budget and the given polarity seed.
    pub fn options(&self, seed: u64) -> VerifyOptions {
        VerifyOptions {
            unroll_bound: self.bound,
            max_bound: SWEEP_HORIZON,
            max_conflicts: Some(MAX_CONFLICTS),
            seed,
            ..VerifyOptions::new(self.mm, Strategy::Zpre)
        }
    }
}

fn job(name: &str, program: Program, bound: u32, mm: MemoryModel, expected: Option<bool>) -> Job {
    Job {
        id: format!("{name}@{}", mm.name()),
        program,
        bound,
        mm,
        expected,
    }
}

/// Builds the job list of `w`, task-major then SC/TSO/PSO.
pub fn jobs(w: Workload) -> Vec<Job> {
    let mut out = Vec::new();
    match w {
        Workload::Paper | Workload::Sweep => {
            for task in suite(Scale::Full) {
                let loopy = matches!(task.subcat, Subcat::Divine | Subcat::Ext | Subcat::Lit)
                    && task.program.has_loops();
                if w.is_sweep() && !loopy {
                    continue;
                }
                for mm in MemoryModel::ALL {
                    let exp = task.expected.get(mm);
                    out.push(job(
                        &task.name,
                        task.program.clone(),
                        task.unroll_bound,
                        mm,
                        exp,
                    ));
                }
            }
        }
        Workload::Wide => {
            for b in WIDE_BALLAST {
                for fenced in [false, true] {
                    for shape in [Shape::Sb, Shape::Mp] {
                        let (name, program) = wide_program(shape, fenced, b);
                        for mm in MemoryModel::ALL {
                            let exp = Some(shape.safe(fenced, mm));
                            out.push(job(&name, program.clone(), 1, mm, exp));
                        }
                    }
                }
            }
        }
    }
    out
}

#[derive(Copy, Clone)]
enum Shape {
    /// Store buffering: each thread stores one flag and loads the other.
    Sb,
    /// Message passing: data then flag, read back in the other order.
    Mp,
}

impl Shape {
    /// Litmus semantics: SB is safe only under SC, MP is unsafe only under
    /// PSO, and a full fence between the two accesses restores SC.
    fn safe(self, fenced: bool, mm: MemoryModel) -> bool {
        fenced
            || match self {
                Shape::Sb => mm == MemoryModel::Sc,
                Shape::Mp => mm != MemoryModel::Pso,
            }
    }
}

fn wide_program(shape: Shape, fenced: bool, b: usize) -> (String, Program) {
    let fence_if = |t: &mut Vec<Stmt>| {
        if fenced {
            t.push(fence());
        }
    };
    let (tag, mut t1, mut t2, shared, property) = match shape {
        Shape::Sb => {
            let mut t1 = vec![assign("x", c(1))];
            fence_if(&mut t1);
            t1.push(assign("r1", v("y")));
            let mut t2 = vec![assign("y", c(1))];
            fence_if(&mut t2);
            t2.push(assign("r2", v("x")));
            let prop = not(and(eq(v("r1"), c(0)), eq(v("r2"), c(0))));
            ("sb", t1, t2, ["x", "y", "r1", "r2"], prop)
        }
        Shape::Mp => {
            let mut t1 = vec![assign("data", c(42))];
            fence_if(&mut t1);
            t1.push(assign("flag", c(1)));
            let t2 = vec![assign("seen", v("flag")), assign("val", v("data"))];
            let prop = or(eq(v("seen"), c(0)), eq(v("val"), c(42)));
            ("mp", t1, t2, ["data", "flag", "seen", "val"], prop)
        }
    };
    let name = format!("wide/{tag}{}-b{b}", if fenced { "-fence" } else { "" });
    let bl = ballast("z", b);
    t1.extend(bl.writer);
    t2.extend(bl.reader);
    let mut decls: Vec<(&str, u64)> = shared.iter().map(|&n| (n, 0)).collect();
    decls.extend(bl.shared.iter().map(|(n, init)| (n.as_str(), *init)));
    let workers = vec![("t1".to_string(), t1), ("t2".to_string(), t2)];
    let program = harness_program(&name, 8, &decls, &[], workers, property);
    (name, program)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_ids_are_unique_and_counts_match_the_workloads() {
        for w in Workload::ALL {
            let jobs = jobs(w);
            let ids: std::collections::BTreeSet<&str> =
                jobs.iter().map(|j| j.id.as_str()).collect();
            assert_eq!(ids.len(), jobs.len(), "{}", w.name());
        }
        assert_eq!(jobs(Workload::Paper).len(), 191 * 3);
        assert_eq!(jobs(Workload::Sweep).len(), 24 * 3);
        assert_eq!(jobs(Workload::Wide).len(), WIDE_BALLAST.len() * 4 * 3);
    }

    #[test]
    fn pass_seeds_start_with_the_given_seed_and_never_collide() {
        for seed in [0, 1, 2, 0xC0FFEE] {
            let seeds = pass_seeds(seed, 6);
            assert_eq!(seeds[0], seed);
            let distinct: std::collections::BTreeSet<u64> = seeds.iter().map(|s| s | 1).collect();
            assert_eq!(distinct.len(), 6);
            assert_eq!(seeds, pass_seeds(seed, 6), "deterministic");
        }
        assert_eq!(pass_seeds(9, 1), [9]);
    }

    #[test]
    fn run_order_is_a_fixed_permutation() {
        let order = run_order(573);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..573).collect::<Vec<_>>());
        assert_eq!(order, run_order(573));
        assert_ne!(order[..10], sorted[..10], "shuffled");
    }

    #[test]
    fn sweep_jobs_all_have_loops() {
        assert!(jobs(Workload::Sweep).iter().all(|j| j.program.has_loops()));
    }

    #[test]
    fn wide_programs_validate() {
        for j in jobs(Workload::Wide) {
            assert_eq!(j.program.validate(), Ok(()), "{}", j.id);
        }
    }
}
