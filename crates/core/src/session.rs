//! One ZPRE solver session: the CDCL(T) loop of the paper's Fig. 5 with the
//! interference-guided `decide()` installed, set up once for every driver.
//!
//! A driver opens a session with its encoder (`try_encode_opts` for a
//! one-shot check, `encode_sweep_opts` for the incremental bound sweep) and
//! then calls [`Session::solve`] once per query: with no assumptions for a
//! one-shot check, under each frame's assumption set for the sweep. Every
//! step between the options and a verdict lives here, once: the theory
//! engine switches, proof logging, the pre-blast guard and static pruning,
//! the telemetry and clause-sharing hooks, the H1–H4 guide, the per-solve
//! budget, model validation, and the final statistics.

use crate::decision_order::decision_order;
use crate::errors::VerifyError;
use crate::faults::Fault;
use crate::strategy::Strategy;
use crate::verifier::{validate_model, Verdict, VerifyOptions};
use std::sync::Arc;
use std::time::{Duration, Instant};
use zpre_analysis::{ProgramOrder, PruneReport};
use zpre_encoder::{estimate_cnf, EncodeError, Encoded};
use zpre_obs::{Phase, VarClass};
use zpre_prog::SsaProgram;
use zpre_sat::{Budget, Lit, PriorityListGuide, SolveResult, Solver, Stats, Var};
use zpre_smt::{OrderTheory, VarKind};

/// A solver over one encoded SSA program, configured from one set of
/// [`VerifyOptions`].
pub(crate) struct Session<'a> {
    /// The CDCL(T) solver; drivers read its model, proof and theory for
    /// traces and certificates.
    pub(crate) solver: Solver<OrderTheory, PriorityListGuide>,
    ssa: &'a SsaProgram,
    opts: &'a VerifyOptions,
}

impl<'a> Session<'a> {
    /// Builds the solver, runs `encode` on it (handing over the pruning
    /// report, if any), and installs the telemetry hooks, the share
    /// endpoint and the strategy's guide over the encoding `base` exposes.
    /// Returns the session together with the driver's encoding.
    pub(crate) fn open<E>(
        ssa: &'a SsaProgram,
        opts: &'a VerifyOptions,
        encode: impl FnOnce(
            &mut Solver<OrderTheory, PriorityListGuide>,
            Option<&PruneReport>,
        ) -> Result<E, EncodeError>,
        base: impl FnOnce(&E) -> &Encoded,
    ) -> Result<(Session<'a>, E), VerifyError> {
        let mut theory = OrderTheory::new();
        if opts.strategy == Strategy::ZpreNoReverseProp {
            theory.set_propagate_reverse(false);
        }
        if opts.strategy == Strategy::ZpreDfsCheck {
            theory.set_full_dfs_check(true);
        }
        if opts.certify {
            theory.enable_lemma_journal();
        }
        let guide = PriorityListGuide::new(Vec::new(), opts.seed);
        let mut solver = Solver::with_parts(theory, guide);
        if opts.certify {
            solver.enable_proof_logging();
        }
        // The report carries the program order and its closure, which are
        // large on big instances: free them as soon as the encoder is done,
        // before the guide is built.
        let driver_enc = {
            let report = prepare_encoding(ssa, opts)?;
            encode(&mut solver, report.as_ref())?
        };
        let enc = base(&driver_enc);

        // With a recorder installed, resolve solver vars to interference
        // classes and stream solver/theory events into it.
        if let Some(r) = &opts.recorder {
            let mut classes = vec![VarClass::Other; solver.num_vars()];
            for (v, info) in enc.registry.iter() {
                classes[v.index()] = match info.kind {
                    VarKind::Rf { external: true, .. } => VarClass::ExternalRf,
                    VarKind::Rf {
                        external: false, ..
                    } => VarClass::InternalRf,
                    VarKind::Ws => VarClass::Ws,
                    _ => VarClass::Other,
                };
            }
            r.set_var_classes(classes);
            let sink: Arc<dyn zpre_obs::EventSink> = Arc::new(r.clone());
            solver.set_event_sink(Some(sink.clone()));
            solver.theory.set_event_sink(Some(sink));
        }

        // Hook this member into the portfolio share pool. The hot-var table
        // (external-RF interference variables get the relaxed LBD export
        // cap) comes straight from the encoder registry, independent of any
        // recorder.
        if let Some(spec) = &opts.share {
            solver.set_share(spec);
            let hot: Vec<Var> = enc
                .registry
                .iter()
                .filter(|(_, info)| matches!(info.kind, VarKind::Rf { external: true, .. }))
                .map(|(v, _)| v)
                .collect();
            solver.set_share_hot_vars(&hot);
        }

        // The decision order for the chosen strategy. For a sweep it is
        // horizon-wide: every frame's interference variables exist after
        // the single base encoding, so one priority list serves all bounds.
        let mut order: Vec<u32> = if opts.strategy.uses_interference_order() {
            decision_order(&enc.registry, opts.strategy.refinements())
        } else if opts.strategy == Strategy::BranchCond {
            // Guard variables in event order, deduplicated.
            let mut seen = std::collections::HashSet::new();
            enc.guard_lits
                .iter()
                .map(|l| l.var().index() as u32)
                .filter(|v| seen.insert(*v))
                .collect()
        } else {
            Vec::new()
        };
        if opts.fault == Some(Fault::ShuffleGuideOrder) {
            // Benign control fault: the heuristic order is scrambled, but
            // the verdict and its certificate must come out unchanged.
            order.reverse();
        }
        let mut guide = PriorityListGuide::new(order, opts.seed);
        if opts.strategy == Strategy::ZpreFixedTrue {
            guide = guide.with_fixed_polarity(true);
        }
        solver.guide = guide;
        Ok((Session { solver, ssa, opts }, driver_enc))
    }

    /// Solves under `assumptions` with a fresh budget (the per-call
    /// conflict accounting and the deadline both restart), inside a
    /// [`Phase::Solve`] span carrying `label`. An `Unsafe` model is
    /// re-validated against `enc` when the options ask for it. Returns the
    /// verdict and the time spent in the solver.
    pub(crate) fn solve(
        &mut self,
        enc: &Encoded,
        assumptions: &[Lit],
        label: Option<&str>,
    ) -> Result<(Verdict, Duration), VerifyError> {
        let opts = self.opts;
        let mut budget = Budget::with_limits(opts.max_conflicts, opts.timeout);
        if let Some(token) = &opts.cancel {
            budget = budget.with_cancel(token.clone());
        }
        if let Some(cap) = opts.max_memory {
            budget = budget.with_max_memory(cap);
        }
        self.solver.set_budget(budget);

        let rec = opts.recorder.as_ref();
        let t0 = Instant::now();
        let span = rec.map(|r| r.span_labeled(Phase::Solve, label));
        let result = self.solver.solve_with_assumptions(assumptions);
        if let Some(s) = span {
            s.close();
        }
        let solve_time = t0.elapsed();

        let verdict = match result {
            SolveResult::Sat => Verdict::Unsafe,
            SolveResult::Unsat => Verdict::Safe,
            SolveResult::Unknown => Verdict::Unknown,
        };
        if verdict == Verdict::Unsafe && opts.validate_models {
            let _validate_span = rec.map(|r| r.span(Phase::Validate));
            validate_model(self.ssa, enc, &self.solver, opts.mm)
                .map_err(VerifyError::ModelValidation)?;
        }
        Ok((verdict, solve_time))
    }

    /// Cumulative solver statistics with the order theory's cycle-check
    /// work counters copied in (the solver itself doesn't know about the
    /// theory's engine).
    pub(crate) fn stats(&self) -> Stats {
        let mut stats = *self.solver.stats();
        let cs = self.solver.theory.cycle_stats();
        stats.eog_checks = cs.checks;
        stats.eog_accepted_o1 = cs.accepted_o1;
        stats.eog_visited = cs.visited;
        stats.eog_promoted = cs.promoted;
        stats
    }
}

/// The pre-encoding steps. The program order is computed once; the
/// pre-blast size estimate and the static pruning pass both use it, and
/// the returned report hands it on to the encoder.
///
/// - Pre-blast guard: an encoding whose estimated footprint exceeds
///   `opts.max_memory` is refused before any of it is allocated.
/// - Static interference pruning (unless disabled) runs under a
///   [`Phase::Prune`] span, its counters go to the recorder, and under
///   `--certify` every justification is re-verified by the independent
///   checker before the smaller encoding is trusted.
fn prepare_encoding(
    ssa: &SsaProgram,
    opts: &VerifyOptions,
) -> Result<Option<PruneReport>, VerifyError> {
    if !opts.prune && opts.max_memory.is_none() {
        return Ok(None);
    }
    let order = ProgramOrder::new(ssa, opts.mm).ok_or(EncodeError::CyclicProgramOrder)?;
    if let Some(cap) = opts.max_memory {
        let est = estimate_cnf(ssa, &order);
        if est.bytes() > cap {
            return Err(VerifyError::Encode(EncodeError::EncodingTooLarge {
                estimated_bytes: est.bytes(),
                cap_bytes: cap,
            }));
        }
    }
    if !opts.prune {
        return Ok(None);
    }
    let rec = opts.recorder.as_ref();
    let rep = {
        let _span = rec.map(|r| r.span(Phase::Prune));
        zpre_analysis::analyze_order(ssa, order)
    };
    if let Some(r) = rec {
        let c = &rep.counters;
        r.record_prune(
            c.rf_pruned,
            c.rf_kept,
            c.ws_pruned,
            c.ws_serialized,
            c.reads_resolved,
            c.local_vars,
        );
    }
    if opts.certify {
        zpre_analysis::check_report(ssa, &rep).map_err(|reason| VerifyError::Certification {
            stage: "prune",
            reason,
        })?;
    }
    Ok(Some(rep))
}
