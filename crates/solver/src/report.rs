//! Solve reports: solution, convergence data, modeled time and the
//! statistics every figure of the evaluation reads back.

use mf_gpu::Timeline;
use mf_kernels::MixedSpmvStats;
use mf_sparse::TiledMemory;

/// What went numerically wrong in one iteration (the breakdown taxonomy of
/// the robustness layer; see DESIGN.md "Failure modes and recovery").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakdownKind {
    /// CG curvature failure: `(p, A·p) ≤ 0`. The matrix is not SPD on the
    /// current subspace (indefinite input, or quantization pushed a
    /// borderline system off the cone).
    Curvature,
    /// BiCGSTAB ρ breakdown: the shadow-residual correlation `(r, r0*)`
    /// collapsed to (sub)normal zero.
    Rho,
    /// BiCGSTAB ω breakdown: the stabilization scalar was zero
    /// (`(θ, θ) = 0`).
    Omega,
    /// A recurrence scalar (α, β, ρ or ‖r‖²) became NaN or infinite.
    NonFinite,
    /// The heartbeat watchdog fired: no warp progressed for its interval.
    Watchdog,
    /// A warp panicked; the poison flag released its siblings.
    Panic,
    /// An incomplete factorization broke down on a zero/tiny pivot and was
    /// retried with a boosted diagonal (`A + αI` scaled by `‖diag‖∞`, α
    /// doubling); one event is recorded per shifted attempt.
    FactorShift,
}

impl BreakdownKind {
    /// Stable lower-case label used in harness tables and status strings.
    pub fn label(self) -> &'static str {
        match self {
            BreakdownKind::Curvature => "curvature",
            BreakdownKind::Rho => "rho",
            BreakdownKind::Omega => "omega",
            BreakdownKind::NonFinite => "non_finite",
            BreakdownKind::Watchdog => "watchdog",
            BreakdownKind::Panic => "panic",
            BreakdownKind::FactorShift => "factor_shift",
        }
    }

    /// Stable numeric code carried in the `a` payload of a
    /// [`mf_trace::EventKind::Breakdown`] event. Append-only: codes are
    /// part of the trace format and must never be renumbered.
    pub fn trace_code(self) -> u64 {
        match self {
            BreakdownKind::Curvature => 1,
            BreakdownKind::Rho => 2,
            BreakdownKind::Omega => 3,
            BreakdownKind::NonFinite => 4,
            BreakdownKind::Watchdog => 5,
            BreakdownKind::Panic => 6,
            BreakdownKind::FactorShift => 7,
        }
    }
}

/// Last published position of one warp when a threaded solve ended — the
/// heartbeat's progress snapshot, decoded against the engine's step-name
/// table. Diagnostic payload of `Wedged` reports: it names the step every
/// warp was stuck at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WarpProgress {
    /// Warp index.
    pub warp: usize,
    /// Last iteration the warp reported reaching.
    pub iteration: usize,
    /// Name of the last step boundary the warp crossed (engine-specific
    /// step table; `"start"` when the warp never reported).
    pub step: &'static str,
}

/// What the solver did in response to a breakdown.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryAction {
    /// The Krylov process was restarted from the current residual and the
    /// solve continued.
    Restarted,
    /// The solve was terminated with a structured [`SolveFailure`].
    Aborted,
    /// The Auto front-end abandoned this method and re-dispatched the system
    /// to a different solver (CG → BiCGSTAB after curvature breakdowns).
    SwitchedSolver,
}

impl RecoveryAction {
    /// Stable numeric code carried in the `b` payload of a
    /// [`mf_trace::EventKind::Breakdown`] event. Append-only.
    pub fn trace_code(self) -> u64 {
        match self {
            RecoveryAction::Restarted => 1,
            RecoveryAction::Aborted => 2,
            RecoveryAction::SwitchedSolver => 3,
        }
    }
}

/// Synthesize the post-loop breakdown trail into trace epilogue events
/// (step = [`mf_trace::STEP_EPILOGUE`]) and fold them into `trace`.
/// Shared by every engine so sequential and threaded traces agree on the
/// encoding.
pub(crate) fn append_breakdown_epilogue(
    trace: &mut mf_trace::Trace,
    breakdowns: &[BreakdownEvent],
) {
    trace.append_epilogue(breakdowns.iter().enumerate().map(|(i, ev)| {
        mf_trace::Trace::breakdown_event(
            ev.iteration,
            ev.kind.trace_code(),
            ev.action.trace_code(),
            i as u32,
        )
    }));
}

/// One observed breakdown: where it happened, what it was, what was done.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BreakdownEvent {
    /// Zero-based iteration index at which the breakdown was detected.
    pub iteration: usize,
    /// Breakdown classification.
    pub kind: BreakdownKind,
    /// Recovery decision.
    pub action: RecoveryAction,
}

/// Structured description of a solve that terminated abnormally. `None` in
/// a report means the solve either converged or simply ran out of
/// iterations — callers can now distinguish "converged", "ran out of
/// iterations" and "broke down" without inspecting residuals.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolveFailure {
    /// No warp progressed for the heartbeat watchdog's interval
    /// ([`crate::SolverConfig::watchdog`]); the solve was poisoned and all
    /// warps released. `iteration` is the last fully completed iteration.
    Wedged {
        /// Last fully completed iteration count.
        iteration: usize,
    },
    /// A warp panicked (e.g. malformed matrix indexing); the poison flag
    /// converted the would-be hang into this failure.
    WarpPanic {
        /// Index of the warp that panicked.
        warp: usize,
        /// Downcast panic payload.
        message: String,
    },
    /// The iterate state became non-finite and no restart could recover it.
    NonFinite {
        /// Iteration at which the non-finite state was detected.
        iteration: usize,
    },
    /// Breakdown restarts reached a fixed point (restarting from the same
    /// residual repeatedly) — continuing could make no progress.
    Stalled {
        /// Iteration at which the solve was declared stalled.
        iteration: usize,
    },
}

impl SolveFailure {
    /// Stable lower-case label used in harness tables and status strings.
    pub fn short_name(&self) -> &'static str {
        match self {
            SolveFailure::Wedged { .. } => "wedged",
            SolveFailure::WarpPanic { .. } => "warp_panic",
            SolveFailure::NonFinite { .. } => "non_finite",
            SolveFailure::Stalled { .. } => "stalled",
        }
    }
}

/// Shared Table-II-style status string: `converged`, `max_iter`, or
/// `aborted(<breakdown>)` where the breakdown label comes from the last
/// aborting [`BreakdownEvent`] (falling back to the failure's own name when
/// the abort did not go through the breakdown taxonomy, e.g. a wedge or a
/// warp panic). Used by both [`SolveReport`] and the threaded reports.
pub(crate) fn status_label_parts(
    converged: bool,
    breakdowns: &[BreakdownEvent],
    failure: Option<&SolveFailure>,
) -> String {
    if converged {
        return "converged".to_string();
    }
    match failure {
        Some(f) => {
            let label = breakdowns
                .iter()
                .rev()
                .find(|e| e.action == RecoveryAction::Aborted)
                .map(|e| e.kind.label())
                .unwrap_or_else(|| f.short_name());
            format!("aborted({label})")
        }
        None => "max_iter".to_string(),
    }
}

/// Which execution path actually ran (after the Auto decision).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecutedMode {
    /// Whole solve inside one kernel (paper §III-C).
    SingleKernel,
    /// Classic one-kernel-per-operation path (fallback / baselines).
    MultiKernel,
}

/// Everything a solve produces.
#[derive(Clone, Debug)]
pub struct SolveReport {
    /// The computed solution.
    pub x: Vec<f64>,
    /// Converged within tolerance? (`false` when `fixed_iterations` ran or
    /// `max_iter` was exhausted.)
    pub converged: bool,
    /// Iterations executed.
    pub iterations: usize,
    /// Final relative residual `‖r‖₂ / ‖b‖₂` (recomputed from the true
    /// residual, not the recurrence).
    pub final_relres: f64,
    /// Which execution path ran.
    pub mode: ExecutedMode,
    /// Modeled time ledger (µs), including preprocessing phases.
    pub timeline: Timeline,
    /// Aggregated mixed-precision SpMV statistics over all iterations.
    pub spmv_stats: MixedSpmvStats,
    /// Memory footprint of the tiled structure.
    pub tiled_memory: TiledMemory,
    /// Memory footprint of the equivalent 3-array CSR (Fig. 13 baseline).
    pub csr_memory: usize,
    /// Warps the single-kernel schedule used (0 in multi-kernel mode).
    pub warp_count: usize,
    /// Relative residual after each iteration (when `trace_residuals`).
    pub residual_history: Vec<f64>,
    /// Relative error vs. the reference solution per iteration (when a
    /// reference is configured; Fig. 12).
    pub error_history: Vec<f64>,
    /// Per-iteration histogram of |p| magnitudes in the five partial-
    /// convergence ranges `[≥ε, ε..ε/10, ε/10..ε/100, ε/100..ε/1000,
    /// <ε/1000]` (when `trace_partial`; Fig. 4).
    pub p_range_history: Vec<[usize; 5]>,
    /// Per-iteration count of bypassed tiles (when `trace_partial`).
    pub bypass_history: Vec<usize>,
    /// Per-iteration histogram of current on-chip tile precisions
    /// `[FP64, FP32, FP16, FP8]` (when `trace_partial`; paper Fig. 7).
    pub precision_history: Vec<[usize; 4]>,
    /// Preprocessing wall-clock on the host running this simulation, in µs
    /// (informational; the modeled preprocess time is in `timeline`).
    pub preprocess_wall_us: f64,
    /// CSR→tiled preprocessing passes charged to this report: 1 for a cold
    /// facade solve — including `solve_auto`'s CG→BiCGSTAB re-dispatch,
    /// which reuses the first pass — and 0 when a serving-layer cache
    /// supplied the tiled matrix.
    pub preprocess_passes: usize,
    /// Every breakdown the core observed (iteration, kind, recovery).
    pub breakdowns: Vec<BreakdownEvent>,
    /// Set when the solve terminated abnormally (poisoned, stalled, or
    /// non-finite); `None` for converged and plain out-of-iterations runs.
    pub failure: Option<SolveFailure>,
    /// Merged structured event trace (when [`crate::SolverConfig::trace`]
    /// is enabled; `None` otherwise).
    pub trace: Option<mf_trace::Trace>,
    /// Every re-tier plan the adaptive precision controller applied, in
    /// application order (empty unless [`crate::SolverConfig::adaptive`]
    /// is armed). Engines apply identical plans at identical iterations,
    /// so the differential harness compares these trails verbatim.
    pub retier_trail: Vec<mf_precision::RetierDecision>,
}

impl SolveReport {
    /// Modeled solve time in µs (excludes preprocessing/factorization).
    pub fn solve_us(&self) -> f64 {
        self.timeline.solve_us()
    }

    /// Modeled total time in µs.
    pub fn total_us(&self) -> f64 {
        self.timeline.total_us()
    }

    /// Fraction of matrix nonzero *work* that was executed below FP64 or
    /// bypassed, over the whole solve (Fig. 11's stacked shares).
    pub fn low_precision_fraction(&self) -> f64 {
        let total = self.spmv_stats.nnz_total();
        if total == 0 {
            return 0.0;
        }
        let low = total - self.spmv_stats.nnz_by_prec[0];
        low as f64 / total as f64
    }

    /// Recomputes the *true* relative residual `‖b − A·x‖₂ / ‖b‖₂` against
    /// the original CSR matrix — the recurrence residual the solver tracks
    /// can drift from it on stiff systems (the attainable-accuracy effect;
    /// EXPERIMENTS.md known gap 5), so verification paths should use this.
    pub fn true_relres(&self, a: &mf_sparse::Csr, b: &[f64]) -> f64 {
        assert_eq!(a.nrows, self.x.len());
        assert_eq!(b.len(), a.nrows);
        let mut ax = vec![0.0; a.nrows];
        a.matvec(&self.x, &mut ax);
        let mut rr = 0.0;
        let mut bb = 0.0;
        for i in 0..a.nrows {
            let d = b[i] - ax[i];
            rr += d * d;
            bb += b[i] * b[i];
        }
        (rr / bb.max(f64::MIN_POSITIVE)).sqrt()
    }

    /// `true` when the solve recovered from at least one breakdown and
    /// still ran to a normal termination (converged or out of iterations).
    pub fn recovered(&self) -> bool {
        self.failure.is_none()
            && self
                .breakdowns
                .iter()
                .any(|e| e.action == RecoveryAction::Restarted)
    }

    /// One-word status for harness tables: `converged`, `max_iter`, or
    /// `aborted(<breakdown>)` — see [`status_label_parts`].
    pub fn status_label(&self) -> String {
        status_label_parts(self.converged, &self.breakdowns, self.failure.as_ref())
    }

    /// Fraction of nonzero work bypassed entirely.
    pub fn bypass_fraction(&self) -> f64 {
        let total = self.spmv_stats.nnz_total();
        if total == 0 {
            return 0.0;
        }
        self.spmv_stats.nnz_bypassed as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_gpu::Phase;

    fn dummy() -> SolveReport {
        SolveReport {
            x: vec![0.0; 4],
            converged: true,
            iterations: 10,
            final_relres: 1e-11,
            mode: ExecutedMode::SingleKernel,
            timeline: Timeline::new(),
            spmv_stats: MixedSpmvStats::default(),
            tiled_memory: TiledMemory::default(),
            csr_memory: 100,
            warp_count: 4,
            residual_history: vec![],
            error_history: vec![],
            p_range_history: vec![],
            bypass_history: vec![],
            precision_history: vec![],
            preprocess_wall_us: 0.0,
            preprocess_passes: 1,
            breakdowns: vec![],
            failure: None,
            trace: None,
            retier_trail: vec![],
        }
    }

    #[test]
    fn fractions_of_empty_stats_are_zero() {
        let r = dummy();
        assert_eq!(r.low_precision_fraction(), 0.0);
        assert_eq!(r.bypass_fraction(), 0.0);
    }

    #[test]
    fn fractions_computed() {
        let mut r = dummy();
        r.spmv_stats.nnz_by_prec = [50, 0, 0, 30];
        r.spmv_stats.nnz_bypassed = 20;
        assert!((r.low_precision_fraction() - 0.5).abs() < 1e-12);
        assert!((r.bypass_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn recovered_requires_restart_without_failure() {
        let mut r = dummy();
        assert!(!r.recovered(), "no breakdowns -> not 'recovered'");
        r.breakdowns.push(BreakdownEvent {
            iteration: 3,
            kind: BreakdownKind::Curvature,
            action: RecoveryAction::Restarted,
        });
        assert!(r.recovered());
        r.failure = Some(SolveFailure::Stalled { iteration: 5 });
        assert!(!r.recovered(), "a terminal failure is not a recovery");
    }

    #[test]
    fn status_labels_cover_the_three_outcomes() {
        let mut r = dummy();
        assert_eq!(r.status_label(), "converged");

        r.converged = false;
        assert_eq!(r.status_label(), "max_iter", "no failure means max_iter");

        r.failure = Some(SolveFailure::Stalled { iteration: 7 });
        r.breakdowns.push(BreakdownEvent {
            iteration: 3,
            kind: BreakdownKind::Curvature,
            action: RecoveryAction::Restarted,
        });
        r.breakdowns.push(BreakdownEvent {
            iteration: 7,
            kind: BreakdownKind::Curvature,
            action: RecoveryAction::Aborted,
        });
        assert_eq!(r.status_label(), "aborted(curvature)");

        // Failures that bypass the breakdown taxonomy use their own name.
        r.breakdowns.clear();
        r.failure = Some(SolveFailure::Wedged { iteration: 2 });
        assert_eq!(r.status_label(), "aborted(wedged)");
        r.failure = Some(SolveFailure::WarpPanic {
            warp: 1,
            message: "boom".into(),
        });
        assert_eq!(r.status_label(), "aborted(warp_panic)");
    }

    #[test]
    fn breakdown_epilogue_encoding_is_stable() {
        let mut trace = mf_trace::Trace::default();
        super::append_breakdown_epilogue(
            &mut trace,
            &[
                BreakdownEvent {
                    iteration: 3,
                    kind: BreakdownKind::Rho,
                    action: RecoveryAction::Restarted,
                },
                BreakdownEvent {
                    iteration: 9,
                    kind: BreakdownKind::Watchdog,
                    action: RecoveryAction::Aborted,
                },
            ],
        );
        assert_eq!(trace.events.len(), 2);
        assert!(
            trace
                .events
                .iter()
                .all(|e| e.kind == mf_trace::EventKind::Breakdown
                    && e.step == mf_trace::STEP_EPILOGUE)
        );
        assert_eq!(
            (
                trace.events[0].iteration,
                trace.events[0].a,
                trace.events[0].b
            ),
            (3, 2, 1)
        );
        assert_eq!(
            (
                trace.events[1].iteration,
                trace.events[1].a,
                trace.events[1].b
            ),
            (9, 5, 2)
        );
    }

    #[test]
    fn solve_time_excludes_preprocess() {
        let mut r = dummy();
        r.timeline.add(Phase::Preprocess, 5.0);
        r.timeline.add(Phase::Spmv, 10.0);
        assert_eq!(r.solve_us(), 10.0);
        assert_eq!(r.total_us(), 15.0);
    }
}
