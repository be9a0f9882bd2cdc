//! Solve reports: solution, convergence data, modeled time and the
//! statistics every figure of the evaluation reads back.

use crate::config::MAX_CONSECUTIVE_RESTARTS;
use mf_gpu::{InjectedFaults, Timeline};
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

/// The one restart-or-abort policy every engine applies to a breakdown
/// restart. A restart replaces the search direction without touching `x`
/// or `r`, so repeated restarts reproduce the same state: after
/// [`MAX_CONSECUTIVE_RESTARTS`] in a row a convergence-mode solve aborts
/// as [`SolveFailure::Stalled`]. Fixed-iteration runs are exempt — they
/// iterate past exact convergence on purpose, where restarts are routine.
/// A non-finite restart state always aborts, as
/// [`SolveFailure::NonFinite`], which takes precedence over `Stalled`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RestartPolicy {
    consecutive: usize,
    exempt: bool,
}

impl RestartPolicy {
    /// A fresh count; `fixed_iterations` exempts the solve from the stall
    /// abort.
    pub(crate) fn new(fixed_iterations: bool) -> RestartPolicy {
        RestartPolicy {
            consecutive: 0,
            exempt: fixed_iterations,
        }
    }

    /// `x` and `r` advanced: the consecutive count starts over.
    pub(crate) fn progressed(&mut self) {
        self.consecutive = 0;
    }

    /// Counts one restart at `iteration` whose rebuilt state is `finite`
    /// or not, and decides: the action to record, plus the failure when
    /// the solve must stop.
    pub(crate) fn restart(
        &mut self,
        iteration: usize,
        finite: bool,
    ) -> (RecoveryAction, Option<SolveFailure>) {
        self.consecutive += 1;
        let failure = if !finite {
            Some(SolveFailure::NonFinite { iteration })
        } else if !self.exempt && self.consecutive >= MAX_CONSECUTIVE_RESTARTS {
            Some(SolveFailure::Stalled { iteration })
        } else {
            None
        };
        let action = match failure {
            Some(_) => RecoveryAction::Aborted,
            None => RecoveryAction::Restarted,
        };
        (action, failure)
    }
}

/// The numeric outcome of one slot loop, before its engine or core folds
/// in the solution and telemetry: what every sequential core and threaded
/// warp records through [`drive`].
pub(crate) struct Outcome {
    pub(crate) iterations: usize,
    pub(crate) converged: bool,
    pub(crate) final_relres: f64,
    pub(crate) breakdowns: Vec<BreakdownEvent>,
    pub(crate) failure: Option<SolveFailure>,
    pub(crate) residual_history: Vec<f64>,
    pub(crate) retier_trail: Vec<mf_precision::RetierDecision>,
    recorder: Recorder,
}

/// Whose loop an [`Outcome`] records: the one place the sequential cores
/// and the engines differ in the slot loop. A sequential core's history
/// stays empty unless it traces residuals, and then also takes the
/// residual a restart slot reports; a plan observed on a sequential core's
/// last iteration still gets its refresh slot.
#[derive(Clone, Copy)]
enum Recorder {
    /// A threaded engine: the residual history holds every
    /// completed iteration's residual.
    Engine,
    /// A sequential core without `trace_residuals`.
    Sequential,
    /// A sequential core under `trace_residuals`.
    TracedSequential,
}

impl Outcome {
    /// A threaded engine's outcome.
    pub(crate) fn new() -> Outcome {
        Outcome::recorded_by(Recorder::Engine)
    }

    /// A sequential core's outcome under `trace_residuals`.
    pub(crate) fn sequential(trace_residuals: bool) -> Outcome {
        Outcome::recorded_by(match trace_residuals {
            true => Recorder::TracedSequential,
            false => Recorder::Sequential,
        })
    }

    fn recorded_by(recorder: Recorder) -> Outcome {
        Outcome {
            iterations: 0,
            converged: false,
            final_relres: f64::INFINITY,
            breakdowns: Vec::new(),
            failure: None,
            residual_history: Vec::new(),
            retier_trail: Vec::new(),
            recorder,
        }
    }

    /// Records completed iteration `it` with recurrence residual `relres`,
    /// which `converged` says ends the solve.
    fn complete(&mut self, it: usize, relres: f64, converged: bool) {
        self.iterations = it + 1;
        self.final_relres = relres;
        if !matches!(self.recorder, Recorder::Sequential) {
            self.residual_history.push(relres);
        }
        self.converged = converged;
    }

    /// Records a breakdown restart of `kind` at iteration `it` under
    /// `policy`; `relres`, when given and finite, becomes the reported
    /// residual. A traced sequential core records `relres`, or without one
    /// the residual the restart left untouched: the last completed
    /// iteration's, ∞ before the first. True when the solve must stop.
    fn restart(
        &mut self,
        policy: &mut RestartPolicy,
        it: usize,
        kind: BreakdownKind,
        finite: bool,
        relres: Option<f64>,
    ) -> bool {
        let (action, failure) = policy.restart(it, finite);
        self.breakdowns.push(BreakdownEvent {
            iteration: it,
            kind,
            action,
        });
        self.iterations = it + 1;
        if matches!(self.recorder, Recorder::TracedSequential) {
            self.residual_history
                .push(relres.unwrap_or(self.final_relres));
        }
        if let Some(r) = relres.filter(|r| r.is_finite()) {
            self.final_relres = r;
        }
        self.failure = failure;
        self.failure.is_some()
    }

    /// Aborts at iteration `it` on a non-finite state; `final_relres`
    /// keeps its last finite value.
    fn abort_nonfinite(&mut self, it: usize) {
        self.breakdowns.push(BreakdownEvent {
            iteration: it,
            kind: BreakdownKind::NonFinite,
            action: RecoveryAction::Aborted,
        });
        self.iterations = it + 1;
        self.failure = Some(SolveFailure::NonFinite { iteration: it });
    }

    /// The report fields this outcome fills; the engine adds the rest.
    pub(crate) fn report(self) -> SolveReport {
        SolveReport {
            iterations: self.iterations,
            converged: self.converged,
            final_relres: self.final_relres,
            breakdowns: self.breakdowns,
            failure: self.failure,
            residual_history: self.residual_history,
            retier_trail: self.retier_trail,
            ..SolveReport::default()
        }
    }
}

/// How one loop slot ended, as an engine body reports it to [`drive`].
pub(crate) enum Slot {
    /// The iteration completed with this recurrence residual. Unless it
    /// converged, the direction update then did what [`Direction`] says.
    Done(f64, Direction),
    /// A breakdown restarted the direction; the slot still counts as an
    /// iteration. `finite` says whether the rebuilt state is finite;
    /// `relres`, when given, is the post-restart residual to report.
    Restart {
        kind: BreakdownKind,
        finite: bool,
        relres: Option<f64>,
    },
    /// The residual went non-finite: no restart can rebuild finite state.
    NonFinite,
    /// A re-tier refresh pass: it takes a loop slot but is no iteration.
    Refreshed,
}

/// What a completed iteration's direction update ran into.
pub(crate) enum Direction {
    /// The recurrence goes on.
    Kept,
    /// BiCGSTAB restarted the direction from the residual, for this reason.
    Restarted(BreakdownKind),
    /// β went non-finite: the PCG direction is lost and the solve aborts.
    Lost,
}

/// The one convergence rule: a completed iteration with recurrence
/// residual `relres` ends a solve below `tol`, unless the solve runs a
/// fixed iteration budget.
pub(crate) fn converges(relres: f64, tol: f64, fixed_iterations: Option<usize>) -> bool {
    fixed_iterations.is_none() && relres < tol
}

/// The one slot loop of every engine: the sequential cores and the
/// threaded warps. Slot `j` runs `slot(j, refresh)`
/// after `gate()`; the loop stops after `max_iter` iterations, on
/// convergence, or on an abort under the one [`RestartPolicy`]. A
/// `fixed_iterations` budget replaces `max_iter` and runs it out: no
/// convergence check and no stall abort. An armed `ctrl` observes each
/// completed iteration after the convergence check; a plan it returns is
/// handed to the next slot as its refresh pass, which takes a slot
/// without counting as an iteration, so slots and iterations diverge only
/// in adaptive runs.
pub(crate) fn drive<E>(
    out: &mut Outcome,
    max_iter: usize,
    fixed_iterations: Option<usize>,
    tol: f64,
    mut ctrl: Option<mf_precision::PrecisionController>,
    mut gate: impl FnMut() -> Result<(), E>,
    mut slot: impl FnMut(i64, Option<&mf_precision::RetierDecision>) -> Result<Slot, E>,
) -> Result<(), E> {
    let iters = fixed_iterations.unwrap_or(max_iter);
    let mut restarts = RestartPolicy::new(fixed_iterations.is_some());
    let mut pending = None;
    let (mut it, mut j) = (0usize, 0i64);
    let engine = matches!(out.recorder, Recorder::Engine);
    while it < iters || (!engine && pending.is_some()) {
        gate()?;
        let refresh = pending.take();
        let ended = slot(j, refresh.as_ref())?;
        j += 1;
        match ended {
            Slot::Refreshed => {
                out.retier_trail.extend(refresh);
                continue;
            }
            Slot::Restart {
                kind,
                finite,
                relres,
            } => {
                if out.restart(&mut restarts, it, kind, finite, relres) {
                    break;
                }
            }
            Slot::NonFinite => {
                out.abort_nonfinite(it);
                break;
            }
            Slot::Done(relres, direction) => {
                restarts.progressed();
                let converged = converges(relres, tol, fixed_iterations);
                out.complete(it, relres, converged);
                if converged {
                    break;
                }
                match direction {
                    Direction::Kept => {}
                    Direction::Restarted(kind) => out.breakdowns.push(BreakdownEvent {
                        iteration: it,
                        kind,
                        action: RecoveryAction::Restarted,
                    }),
                    Direction::Lost => {
                        out.abort_nonfinite(it);
                        break;
                    }
                }
                if let Some(c) = ctrl.as_mut() {
                    pending = c.observe(it + 1, relres, tol);
                }
            }
        }
        it += 1;
    }
    Ok(())
}

/// Which execution path actually ran (after the Auto decision).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecutedMode {
    /// Whole solve inside one kernel (paper §III-C); the default.
    #[default]
    SingleKernel,
    /// Classic one-kernel-per-operation path (fallback / baselines).
    MultiKernel,
}

/// Telemetry only the threaded engines produce: the one optional section
/// of a [`SolveReport`].
#[derive(Clone, Debug)]
pub enum EngineSection {
    /// A run of a [`crate::threaded`] engine.
    Threaded {
        /// Each warp's last published (iteration, step) position, decoded
        /// from the progress heartbeat. Empty unless the solve ran under
        /// [`crate::WatchdogPolicy::Heartbeat`]; on a `Wedged` failure it
        /// names the step every warp was stuck at.
        last_progress: Vec<WarpProgress>,
        /// Fault-injection telemetry: the plan's repro line plus the
        /// merged injection tally. `None` under an empty plan.
        injected_faults: Option<InjectedFaults>,
    },
}

/// Everything a solve produces, whichever engine ran it.
///
/// Every engine runs the same slot-loop driver and returns this report.
/// The sequential cores fill every field but [`SolveReport::engine`]. The
/// threaded engines run single-kernel schedules and fill the
/// numeric fields, the trace and [`SolveReport::engine`] (and the
/// threaded CG engines the re-tier trail); they leave `spmv_stats` and the
/// per-iteration `error_history`, `p_range_history`, `bypass_history` and
/// `precision_history` empty. The preprocessing fields (`tiled_memory`,
/// `csr_memory`, `preprocess_wall_us`, `preprocess_passes` and the
/// preprocessing share of `timeline`) are charged by the facade: an engine
/// entry called directly, without the CSR, leaves them zero.
/// `SolveReport::default()` is the empty single-kernel report engines
/// start from.
#[derive(Clone, Debug, Default)]
pub struct SolveReport {
    /// The computed solution.
    pub x: Vec<f64>,
    /// Converged within tolerance? (`false` when `fixed_iterations` ran or
    /// `max_iter` was exhausted.)
    pub converged: bool,
    /// Iterations executed.
    pub iterations: usize,
    /// Final relative residual `‖r‖₂ / ‖b‖₂` of the recurrence: the last
    /// finite value the solver's residual recurrence produced, on every
    /// engine. It can drift from the true residual on stiff systems; see
    /// [`SolveReport::true_relres`].
    pub final_relres: f64,
    /// Which execution path ran (`SingleKernel` for the threaded
    /// engines).
    pub mode: ExecutedMode,
    /// Modeled time ledger (µs), including preprocessing phases. The
    /// threaded engines charge no modeled time.
    pub timeline: Timeline,
    /// Aggregated mixed-precision SpMV statistics over all iterations.
    pub spmv_stats: MixedSpmvStats,
    /// Memory footprint of the tiled structure.
    pub tiled_memory: TiledMemory,
    /// Memory footprint of the equivalent 3-array CSR (Fig. 13 baseline).
    pub csr_memory: usize,
    /// Warps the single-kernel schedule used (0 in multi-kernel mode): the
    /// OS threads of a threaded run.
    pub warp_count: usize,
    /// Relative residual after each iteration. The threaded engines always
    /// record the recurrence value of each completed, non-breakdown
    /// iteration. The sequential cores record only under
    /// `trace_residuals`, and then one entry per iteration: a breakdown
    /// restart records the residual it leaves (PCG and PBiCGSTAB, whose
    /// restarts report none, the last completed iteration's, ∞ before the
    /// first).
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
    /// facade solve — including `Method::Auto`'s CG→BiCGSTAB re-dispatch,
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
    /// Engine-only telemetry; `None` for the sequential cores.
    pub engine: Option<EngineSection>,
}

impl SolveReport {
    /// Fault-injection telemetry of a threaded run under a non-empty plan.
    pub fn injected_faults(&self) -> Option<&InjectedFaults> {
        let EngineSection::Threaded {
            injected_faults, ..
        } = self.engine.as_ref()?;
        injected_faults.as_ref()
    }

    /// The heartbeat's last position of each warp of a threaded run;
    /// empty otherwise.
    pub fn last_progress(&self) -> &[WarpProgress] {
        match &self.engine {
            Some(EngineSection::Threaded { last_progress, .. }) => last_progress,
            _ => &[],
        }
    }

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
    /// `aborted(<breakdown>)`, labeled by the last aborting breakdown (or
    /// the failure's own [`SolveFailure::short_name`] when the abort did not
    /// go through the breakdown taxonomy).
    pub fn status_label(&self) -> String {
        if self.converged {
            return "converged".to_string();
        }
        match &self.failure {
            Some(f) => {
                let label = self
                    .breakdowns
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
            engine: None,
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
