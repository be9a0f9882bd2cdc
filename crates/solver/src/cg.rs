//! The conjugate-gradient core (paper Algorithm 1 / Algorithm 3) and its
//! preconditioned form (PCG, §III-C), plus the bookkeeping every
//! sequential core shares.
//!
//! One numeric loop serves both execution modes and both forms: CG runs
//! inside the PCG body with the preconditioner step skipped, the way the
//! threaded engines share one body per Krylov family. The [`Coster`]
//! decides how the time of each step is charged. The numerics are exact:
//! every SpMV multiplies the (possibly dynamically lowered) quantized tile
//! values, so mixed precision genuinely perturbs convergence. Like every
//! engine, the core runs its iterations as slots of the one loop driver
//! (`report::drive`), which owns the iteration budget, convergence, the
//! restart policy and the adaptive refresh slots, and returns a
//! [`SolveReport`].

use crate::config::SolverConfig;
use crate::coster::Coster;
use crate::partial::PartialState;
use crate::precond::{applied, Bound, Precond};
use crate::report::{drive, BreakdownKind, Direction, ExecutedMode, Outcome, Slot, SolveReport};
use crate::workspace::SolverWorkspace;
use mf_gpu::Timeline;
use mf_kernels::{blas1, spmv_mixed, MixedSpmvStats, SharedTiles, VisFlag};
use mf_sparse::TiledMatrix;
use std::convert::Infallible;

/// What a sequential core records beside its [`Outcome`]: the modeled
/// time, the SpMV statistics, the host event stream (recorded as warp 0)
/// and the per-iteration trails only the sequential cores keep.
pub(crate) struct Ledger {
    pub(crate) tl: Timeline,
    pub(crate) spmv_stats: MixedSpmvStats,
    tracer: Option<mf_trace::WarpTracer>,
    traced: bool,
    mode: ExecutedMode,
    warp_count: usize,
    error_history: Vec<f64>,
    p_range_history: Vec<[usize; 5]>,
    bypass_history: Vec<usize>,
    precision_history: Vec<[usize; 4]>,
}

impl Ledger {
    /// An empty ledger for a core charged in `mode` on `warp_count` warps.
    /// `traced` arms the per-iteration trails and, when `cfg.trace` is
    /// enabled, the event stream; only unpreconditioned cores record them.
    pub(crate) fn new(
        cfg: &SolverConfig,
        traced: bool,
        mode: ExecutedMode,
        warp_count: usize,
    ) -> Ledger {
        Ledger {
            tl: Timeline::new(),
            spmv_stats: MixedSpmvStats::default(),
            tracer: (traced && cfg.trace.enabled)
                .then(|| mf_trace::WarpTracer::new(0, cfg.trace.capacity_per_warp)),
            traced,
            mode,
            warp_count,
            error_history: Vec::new(),
            p_range_history: Vec::new(),
            bypass_history: Vec::new(),
            precision_history: Vec::new(),
        }
    }

    /// Stamps the event stream at iteration `it`, step `step`.
    pub(crate) fn stamp(&self, it: i64, step: usize) {
        if let Some(t) = &self.tracer {
            t.stamp(it, step);
        }
    }

    /// Folds one SpMV call's statistics in and records its per-precision
    /// byte counters, bypass hits and the current on-chip precision
    /// histogram as events.
    pub(crate) fn spmv(&mut self, stats: &MixedSpmvStats, shared: &SharedTiles) {
        self.spmv_stats.merge(stats);
        let Some(t) = &self.tracer else { return };
        for (code, bytes) in stats.bytes_by_precision().into_iter().enumerate() {
            if bytes > 0 {
                t.record(mf_trace::EventKind::SpmvBytes, code as u64, bytes);
            }
        }
        t.record(
            mf_trace::EventKind::Bypass,
            stats.tiles_bypassed as u64,
            stats.nnz_bypassed as u64,
        );
        t.record(
            mf_trace::EventKind::Precision,
            mf_trace::pack_precision_histogram(current_precision_histogram(shared)),
            0,
        );
    }

    /// Records one applied re-tier plan as an event.
    pub(crate) fn retiered(&self, d: &mf_precision::RetierDecision) {
        if let Some(t) = &self.tracer {
            let (pa, pb) = crate::adaptive::retier_trace_payload(d);
            t.record(mf_trace::EventKind::Retier, pa, pb);
        }
    }

    /// Records one iteration's trails as `cfg` asks, on a traced ledger:
    /// the error of `x` against the reference solution, and under
    /// `trace_partial` the |p| ranges of `p`, the `bypassed` tile count and
    /// the on-chip precision histogram.
    pub(crate) fn trails(
        &mut self,
        cfg: &SolverConfig,
        x: &[f64],
        partial: &PartialState,
        p: &[f64],
        bypassed: usize,
        shared: &SharedTiles,
    ) {
        if !self.traced {
            return;
        }
        if let Some(reference) = &cfg.reference_solution {
            let (mut diff, mut norm) = (0.0, 0.0);
            for (a, b) in x.iter().zip(reference) {
                diff += (a - b) * (a - b);
                norm += b * b;
            }
            self.error_history
                .push((diff / norm.max(f64::MIN_POSITIVE)).sqrt());
        }
        if cfg.trace_partial {
            self.p_range_history.push(partial.p_range_histogram(p));
            self.bypass_history.push(bypassed);
            self.precision_history
                .push(current_precision_histogram(shared));
        }
    }

    /// The report of a loop that ended as `out` with solution `x`: the
    /// trace gets the breakdown trail as epilogue events.
    pub(crate) fn report(self, out: Outcome, x: &[f64]) -> SolveReport {
        let trace = self.tracer.map(|t| {
            let mut trace = mf_trace::Trace::merge(vec![t.finish()]);
            crate::report::append_breakdown_epilogue(&mut trace, &out.breakdowns);
            trace
        });
        SolveReport {
            x: x.to_vec(),
            mode: self.mode,
            warp_count: self.warp_count,
            timeline: self.tl,
            spmv_stats: self.spmv_stats,
            error_history: self.error_history,
            p_range_history: self.p_range_history,
            bypass_history: self.bypass_history,
            precision_history: self.precision_history,
            trace,
            ..out.report()
        }
    }

    /// The `b = 0` report: `x = 0` solves the system exactly, at
    /// iteration 0, with the set-up already charged.
    pub(crate) fn zero_rhs(self, n: usize) -> SolveReport {
        let mut out = Outcome::sequential(false);
        out.converged = true;
        out.final_relres = 0.0;
        self.report(out, &vec![0.0; n])
    }
}

/// The one CG-family breakdown rule (classic, pipelined, preconditioned,
/// threaded alike): a step `α` over the curvature `(p, A·p)`
/// (or the pipelined denominator) breaks down when `α` is not finite or
/// the curvature is not positive — `Curvature` when the curvature is a
/// finite non-positive number, `NonFinite` otherwise.
pub(crate) fn curvature_breakdown(alpha: f64, curvature: f64) -> Option<BreakdownKind> {
    if alpha.is_finite() && curvature > 0.0 {
        None
    } else if curvature.is_finite() && curvature <= 0.0 {
        Some(BreakdownKind::Curvature)
    } else {
        Some(BreakdownKind::NonFinite)
    }
}

/// Runs CG on the tiled matrix, preconditioned by `M⁻¹ = pc` when one is
/// given (PCG). `shared` is the on-chip tile copy (loaded once, mutated by
/// dynamic lowering); `partial` controls the Finding-3 strategy (pass a
/// disabled state for plain mixed/FP64 runs and for PCG). Every loop
/// vector comes from `ws`, so a warm workspace makes the iteration loop
/// allocation-free (the returned report still clones the solution out
/// once per solve).
///
/// One body serves both. Without `pc` it reads `r` wherever PCG reads
/// `z = M⁻¹r`, and skips the application, its charges and PCG's second
/// restart dot. [`SolverConfig::adaptive`] arms the re-tier controller
/// either way; only the unpreconditioned core records the event stream
/// and the per-iteration trails.
///
/// # Panics
///
/// If `pc` comes with a single-kernel `coster`: the paper applies
/// preconditioning in its multi-kernel method (§III-C), and so do the
/// charges here.
#[allow(clippy::too_many_arguments)]
pub fn run_cg(
    m: &TiledMatrix,
    shared: &mut SharedTiles,
    pc: Option<Precond<'_>>,
    b: &[f64],
    cfg: &SolverConfig,
    coster: &Coster,
    partial: &mut PartialState,
    ws: &mut SolverWorkspace,
) -> SolveReport {
    let n = m.nrows;
    assert_eq!(b.len(), n);
    assert_eq!(m.nrows, m.ncols, "CG needs a square (SPD) matrix");

    let mut led = Ledger::new(cfg, pc.is_none(), coster.mode(), coster.warp_count());
    coster.solve_start(&mut led.tl);
    let pc = pc.map(|pc| Bound::new(pc, coster.multi(), cfg, &mut led.tl, n));

    let norm_b = blas1::norm2(b);
    if norm_b == 0.0 {
        return led.zero_rhs(n);
    }

    // x0 = 0 ⇒ r0 = b, z0 = M⁻¹r0, p0 = z0 (paper Algorithm 1 lines 1–3).
    // The vectors live in the workspace; `ensure` zero-fills them without
    // reallocating once warm.
    ws.ensure(n);
    let SolverWorkspace {
        x, r, z, p, u, y, ..
    } = ws;
    r.copy_from_slice(b);
    if let Some(pc) = &pc {
        pc.apply(&mut led.tl, r, y, z);
    }
    p.copy_from_slice(applied(&pc, r, z));
    let mut rz = blas1::dot(r, applied(&pc, r, z));
    if pc.is_some() {
        coster.dot(&mut led.tl, true);
    }

    // Adaptive re-tiering (controller v2): a pure state machine observing
    // the residual trajectory at every convergence check. Built from the
    // tile census alone, so every engine replays the identical decision
    // sequence. The refresh SpMV runs with all-Keep flags — it computes
    // the *true* residual of the re-tiered operator.
    let ctrl = cfg
        .adaptive
        .map(|ac| crate::adaptive::controller_for(m, ac));
    let retier_keep = ctrl.as_ref().map(|_| keep_flags(m.tile_cols));

    let mut out = Outcome::sequential(cfg.trace_residuals);
    let mut refreshes = 0;
    let Ok(()) = drive::<Infallible>(
        &mut out,
        cfg.max_iter,
        cfg.fixed_iterations,
        cfg.tolerance,
        ctrl,
        || Ok(()),
        |j, refresh| {
            if let Some(d) = refresh {
                // ---- Adaptive re-tier epoch: apply the plan to the on-chip
                // tiles, then refresh the recurrence from the true residual
                // of the re-tiered operator — r = b − A·x, z = M⁻¹r, p = z
                // — because the recurrence tracks the *old* operator.
                shared.apply_retier(m, &d.actions);
                coster.retier(&mut led.tl, crate::adaptive::touched_nnz(m, d));
                let keepf = retier_keep.as_ref().expect("armed with controller");
                let rstats = spmv_mixed(m, shared, keepf, x, u);
                led.spmv_stats.merge(&rstats);
                coster.spmv(&mut led.tl, m, shared, keepf, &rstats);
                for i in 0..n {
                    r[i] = b[i] - u[i];
                }
                match &pc {
                    Some(pc) => {
                        coster.axpy(&mut led.tl, 1);
                        pc.apply(&mut led.tl, r, y, z);
                    }
                    None => coster.axpy(&mut led.tl, 2),
                }
                p.copy_from_slice(applied(&pc, r, z));
                rz = blas1::dot(r, applied(&pc, r, z));
                coster.dot(&mut led.tl, true);
                led.retiered(d);
                refreshes += 1;
                return Ok(Slot::Refreshed);
            }

            // ---- Step A: vis_flag retrieval + mixed-precision SpMV µ = A·p.
            led.stamp(j - refreshes, 1); // PCG_STEPS[1] = "spmv"
            partial.update(p);
            if partial.enabled() {
                coster.visflag_scan(&mut led.tl);
            }
            let stats = spmv_mixed(m, shared, &partial.vis_flags, p, u);
            led.spmv(&stats, shared);
            coster.spmv(&mut led.tl, m, shared, &partial.vis_flags, &stats);

            // ---- Step B: α = (r,z) / (µ,p).
            let py = blas1::dot(u, p);
            coster.dot(&mut led.tl, true);
            let alpha = rz / py;
            if let Some(kind) = curvature_breakdown(alpha, py) {
                // Curvature breakdown (quantization can push a borderline
                // SPD system off the cone, and fixed-iteration benchmark
                // runs keep iterating past exact convergence). Restart the
                // direction from the current (preconditioned) residual —
                // but charge the *full* iteration: the GPU kernel executes
                // every step regardless of degenerate scalars, and PCG's
                // has a second dot. A restart leaves x and r untouched, so
                // repeating it is a fixed point the driver aborts.
                p.copy_from_slice(applied(&pc, r, z));
                rz = blas1::dot(r, applied(&pc, r, z));
                coster.axpy(&mut led.tl, 2);
                coster.dot(&mut led.tl, true);
                if pc.is_some() {
                    coster.dot(&mut led.tl, true);
                }
                coster.axpy(&mut led.tl, 1);
                coster.iteration_end(&mut led.tl);
                led.trails(cfg, x, partial, p, stats.tiles_bypassed, shared);
                return Ok(Slot::Restart {
                    kind,
                    finite: rz.is_finite(),
                    // PCG's (r,z) is no residual norm: it reports none.
                    relres: pc.is_none().then(|| rz.sqrt() / norm_b),
                });
            }

            // ---- Step C: x += αp; r −= αµ; (r,r).
            blas1::axpy(alpha, p, x);
            blas1::axpy(-alpha, u, r);
            coster.axpy(&mut led.tl, 2);
            let rr = blas1::dot(r, r);
            coster.dot(&mut led.tl, true);
            if !rr.is_finite() {
                // Overflowed residual recurrence: the iterate is poisoned
                // and a restart would rebuild from the same non-finite r.
                coster.iteration_end(&mut led.tl);
                return Ok(Slot::NonFinite);
            }

            // ---- Step D: z = M⁻¹r; β = (r,z)/(r,z)_old; p = z + βp.
            let rz_new = match &pc {
                Some(pc) => {
                    pc.apply(&mut led.tl, r, y, z);
                    let rz_new = blas1::dot(r, z);
                    coster.dot(&mut led.tl, true);
                    rz_new
                }
                None => rr,
            };
            let beta = rz_new / rz;
            rz = rz_new;
            blas1::xpay(applied(&pc, r, z), beta, p);
            coster.axpy(&mut led.tl, 1);
            coster.iteration_end(&mut led.tl);
            led.trails(cfg, x, partial, p, stats.tiles_bypassed, shared);
            // A non-finite PCG β: the preconditioned correlation (r,z)
            // collapsed and the direction is lost.
            let direction = if pc.is_some() && !beta.is_finite() {
                Direction::Lost
            } else {
                Direction::Kept
            };
            Ok(Slot::Done(rr.sqrt() / norm_b, direction))
        },
    );
    led.report(out, x)
}

/// Histogram of the on-chip copy's *current* tile precisions,
/// `[FP64, FP32, FP16, FP8]` (paper Fig. 7's color counts).
pub fn current_precision_histogram(shared: &SharedTiles) -> [usize; 4] {
    let mut h = [0usize; 4];
    for &p in shared.current_prec() {
        h[p.tile_code() as usize] += 1;
    }
    h
}

/// Builds an all-`Keep` flag vector — the flag set a plain (non-dynamic)
/// tiled SpMV runs with; callers driving [`mf_kernels::spmv_mixed`] outside
/// the solver loops use it to opt out of Finding 3.
///
/// ```
/// use mf_solver::cg::keep_flags;
/// use mf_kernels::VisFlag;
/// assert_eq!(keep_flags(3), vec![VisFlag::Keep; 3]);
/// assert_eq!(keep_flags(0).len(), 1); // always indexable
/// ```
pub fn keep_flags(tile_cols: usize) -> Vec<VisFlag> {
    vec![VisFlag::Keep; tile_cols.max(1)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SolverConfig;
    use crate::coster::{Coster, MultiCoster, SingleCoster};
    use mf_gpu::{CostModel, DeviceSpec};
    use mf_precision::ClassifyOptions;
    use mf_sparse::{Coo, Csr, TiledMatrix};

    fn poisson1d(n: usize) -> Csr {
        let mut a = Coo::new(n, n);
        for i in 0..n {
            a.push(i, i, 4.0);
            if i > 0 {
                a.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                a.push(i, i + 1, -1.0);
            }
        }
        a.to_csr()
    }

    fn setup(
        a: &Csr,
        cfg: &SolverConfig,
    ) -> (TiledMatrix, SharedTiles, Coster, PartialState, Vec<f64>) {
        let m = TiledMatrix::from_csr_with(a, cfg.tile_size, &ClassifyOptions::default());
        let shared = SharedTiles::load(&m);
        let cost = CostModel::new(DeviceSpec::a100());
        let coster = Coster::Single(SingleCoster::new(cost, &m, cfg.tile_size));
        let mut b = vec![0.0; a.nrows];
        a.matvec(&vec![1.0; a.ncols], &mut b);
        let eps_abs = cfg.tolerance * blas1::norm2(&b);
        let partial =
            PartialState::new(cfg.partial_convergence, m.tile_cols, cfg.tile_size, eps_abs);
        (m, shared, coster, partial, b)
    }

    #[test]
    fn cg_converges_on_poisson() {
        let a = poisson1d(200);
        let cfg = SolverConfig::default();
        let (m, mut shared, coster, mut partial, b) = setup(&a, &cfg);
        let res = run_cg(
            &m,
            &mut shared,
            None,
            &b,
            &cfg,
            &coster,
            &mut partial,
            &mut SolverWorkspace::new(),
        );
        assert!(res.converged, "relres {}", res.final_relres);
        assert!(res.iterations < 200);
        // b = A·1 so x ≈ 1.
        for v in &res.x {
            assert!((v - 1.0).abs() < 1e-7, "{v}");
        }
    }

    #[test]
    fn cg_true_residual_matches_recurrence() {
        let a = poisson1d(150);
        let cfg = SolverConfig::default();
        let (m, mut shared, coster, mut partial, b) = setup(&a, &cfg);
        let res = run_cg(
            &m,
            &mut shared,
            None,
            &b,
            &cfg,
            &coster,
            &mut partial,
            &mut SolverWorkspace::new(),
        );
        let mut ax = vec![0.0; 150];
        m.matvec(&res.x, &mut ax);
        let true_res: f64 = b
            .iter()
            .zip(&ax)
            .map(|(bi, ai)| (bi - ai) * (bi - ai))
            .sum::<f64>()
            .sqrt()
            / blas1::norm2(&b);
        // Bypass perturbs the recurrence slightly; orders must agree.
        assert!(true_res < 1e-8, "true relres {true_res}");
    }

    #[test]
    fn fixed_iterations_run_exactly() {
        let a = poisson1d(64);
        let cfg = SolverConfig::benchmark_100_iters();
        let (m, mut shared, coster, mut partial, b) = setup(&a, &cfg);
        let res = run_cg(
            &m,
            &mut shared,
            None,
            &b,
            &cfg,
            &coster,
            &mut partial,
            &mut SolverWorkspace::new(),
        );
        assert_eq!(res.iterations, 100);
        assert!(!res.converged);
    }

    #[test]
    fn zero_rhs_trivially_converges() {
        let a = poisson1d(32);
        let cfg = SolverConfig::default();
        let (m, mut shared, coster, mut partial, _) = setup(&a, &cfg);
        let res = run_cg(
            &m,
            &mut shared,
            None,
            &vec![0.0; 32],
            &cfg,
            &coster,
            &mut partial,
            &mut SolverWorkspace::new(),
        );
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
        assert!(res.x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn traces_recorded_when_enabled() {
        let a = poisson1d(64);
        let mut cfg = SolverConfig::convergence_study();
        cfg.reference_solution = Some(vec![1.0; 64]);
        let (m, mut shared, coster, mut partial, b) = setup(&a, &cfg);
        let res = run_cg(
            &m,
            &mut shared,
            None,
            &b,
            &cfg,
            &coster,
            &mut partial,
            &mut SolverWorkspace::new(),
        );
        assert_eq!(res.residual_history.len(), res.iterations);
        assert_eq!(res.error_history.len(), res.iterations);
        assert_eq!(res.p_range_history.len(), res.iterations);
        // Residuals trend down.
        assert!(res.residual_history.last().unwrap() < &res.residual_history[0]);
        // Error approaches zero.
        assert!(res.error_history.last().unwrap() < &1e-8);
    }

    #[test]
    fn indefinite_matrix_fails_finite_with_breakdown_trail() {
        // A = −I is negative definite: (p, A·p) < 0 immediately, and a
        // restart reproduces the same state — the solve must terminate as
        // Stalled with a finite report, not NaN-spin to max_iter.
        let mut a = Coo::new(64, 64);
        for i in 0..64 {
            a.push(i, i, -1.0);
        }
        let csr = a.to_csr();
        let cfg = SolverConfig::default();
        let (m, mut shared, coster, mut partial, _) = setup(&csr, &cfg);
        let b = vec![1.0; 64];
        let res = run_cg(
            &m,
            &mut shared,
            None,
            &b,
            &cfg,
            &coster,
            &mut partial,
            &mut SolverWorkspace::new(),
        );
        assert!(!res.converged);
        assert!(res.final_relres.is_finite());
        assert!(res.x.iter().all(|v| v.is_finite()));
        assert_eq!(res.iterations, crate::config::MAX_CONSECUTIVE_RESTARTS);
        assert!(matches!(
            res.failure,
            Some(crate::report::SolveFailure::Stalled { .. })
        ));
        assert!(!res.breakdowns.is_empty());
        assert!(res
            .breakdowns
            .iter()
            .all(|e| e.kind == crate::report::BreakdownKind::Curvature));
        assert_eq!(
            res.breakdowns.last().unwrap().action,
            crate::report::RecoveryAction::Aborted
        );
    }

    #[test]
    fn fixed_iteration_mode_keeps_restarting_without_abort() {
        // Benchmark semantics: fixed-iteration runs charge every iteration
        // even when each one is a breakdown restart — no stall abort.
        let mut a = Coo::new(32, 32);
        for i in 0..32 {
            a.push(i, i, -1.0);
        }
        let csr = a.to_csr();
        let cfg = SolverConfig {
            fixed_iterations: Some(20),
            ..SolverConfig::default()
        };
        let (m, mut shared, coster, mut partial, _) = setup(&csr, &cfg);
        let b = vec![1.0; 32];
        let res = run_cg(
            &m,
            &mut shared,
            None,
            &b,
            &cfg,
            &coster,
            &mut partial,
            &mut SolverWorkspace::new(),
        );
        assert_eq!(res.iterations, 20);
        assert!(res.failure.is_none());
        assert_eq!(res.breakdowns.len(), 20);
        assert!(res
            .breakdowns
            .iter()
            .all(|e| e.action == crate::report::RecoveryAction::Restarted));
    }

    #[test]
    fn workspace_reuse_is_identical_and_allocation_free() {
        let a = poisson1d(300);
        let cfg = SolverConfig::default();
        let (m, mut shared, coster, mut partial, b) = setup(&a, &cfg);
        let mut ws = crate::workspace::SolverWorkspace::with_size(300);
        let ptrs = [ws.x.as_ptr(), ws.r.as_ptr(), ws.p.as_ptr(), ws.u.as_ptr()];
        let res1 = run_cg(
            &m,
            &mut shared,
            None,
            &b,
            &cfg,
            &coster,
            &mut partial,
            &mut ws,
        );
        assert!(res1.converged);

        // Second solve of the same system from fresh dynamic state, reusing
        // the warm workspace: identical report, stable buffer pointers.
        let mut shared2 = SharedTiles::load(&m);
        let eps_abs = cfg.tolerance * blas1::norm2(&b);
        let mut partial2 =
            PartialState::new(cfg.partial_convergence, m.tile_cols, cfg.tile_size, eps_abs);
        let res2 = run_cg(
            &m,
            &mut shared2,
            None,
            &b,
            &cfg,
            &coster,
            &mut partial2,
            &mut ws,
        );

        assert_eq!(res1.iterations, res2.iterations);
        assert_eq!(res1.x, res2.x);
        assert_eq!(res1.final_relres, res2.final_relres);
        assert_eq!(
            [ws.x.as_ptr(), ws.r.as_ptr(), ws.p.as_ptr(), ws.u.as_ptr()],
            ptrs,
            "workspace buffers must be reused, not reallocated"
        );
    }

    #[test]
    fn multi_kernel_mode_matches_numerics() {
        let a = poisson1d(120);
        let cfg = SolverConfig {
            partial_convergence: false,
            ..SolverConfig::default()
        };
        let (m, mut sh1, coster_s, mut p1, b) = setup(&a, &cfg);
        let res_s = run_cg(
            &m,
            &mut sh1,
            None,
            &b,
            &cfg,
            &coster_s,
            &mut p1,
            &mut SolverWorkspace::new(),
        );

        let mut sh2 = SharedTiles::load(&m);
        let coster_m = Coster::Multi(MultiCoster::new(
            CostModel::new(DeviceSpec::a100()),
            m.nrows,
        ));
        let mut p2 = PartialState::new(false, m.tile_cols, 16, 1e-10);
        let res_m = run_cg(
            &m,
            &mut sh2,
            None,
            &b,
            &cfg,
            &coster_m,
            &mut p2,
            &mut SolverWorkspace::new(),
        );

        // Same numerics, different time accounting.
        assert_eq!(res_s.iterations, res_m.iterations);
        assert_eq!(res_s.x, res_m.x);
        assert!(res_m.timeline.get(mf_gpu::Phase::Sync) > res_s.timeline.get(mf_gpu::Phase::Sync));
    }

    #[test]
    fn event_trace_is_inert_and_covers_every_iteration() {
        let a = poisson1d(96);
        let base = SolverConfig::default();
        let (m, mut sh1, coster, mut p1, b) = setup(&a, &base);
        let off = run_cg(
            &m,
            &mut sh1,
            None,
            &b,
            &base,
            &coster,
            &mut p1,
            &mut SolverWorkspace::new(),
        );
        assert!(off.trace.is_none(), "tracing defaults off");

        let cfg = SolverConfig {
            trace: mf_trace::TraceConfig::on(),
            ..SolverConfig::default()
        };
        let (m2, mut sh2, coster2, mut p2, b2) = setup(&a, &cfg);
        let on = run_cg(
            &m2,
            &mut sh2,
            None,
            &b2,
            &cfg,
            &coster2,
            &mut p2,
            &mut SolverWorkspace::new(),
        );
        assert_eq!(off.x, on.x, "tracing must not perturb the numerics");
        assert_eq!(off.iterations, on.iterations);
        assert_eq!(off.final_relres, on.final_relres);

        let trace = on.trace.expect("tracing enabled -> trace present");
        assert_eq!(trace.warps, 1, "sequential core records as warp 0");
        assert_eq!(trace.count(mf_trace::EventKind::IterStart), on.iterations);
        assert_eq!(trace.count(mf_trace::EventKind::Bypass), on.iterations);
        assert_eq!(trace.count(mf_trace::EventKind::Precision), on.iterations);
        assert!(trace.count(mf_trace::EventKind::SpmvBytes) >= on.iterations);
        assert_eq!(
            trace.bytes_by_precision().iter().sum::<u64>() as usize,
            on.spmv_stats.value_bytes(),
            "trace byte counters agree with the aggregate stats"
        );
        assert_eq!(
            trace.bypassed_tiles() as usize,
            on.spmv_stats.tiles_bypassed
        );
    }

    #[test]
    fn partial_convergence_bypasses_late_iterations() {
        // Decoupled system: the scaled-identity block is a single isolated
        // eigenvalue that CG eliminates within a few iterations, while the
        // unshifted Laplacian chain needs ~n iterations — so mid-solve the
        // identity columns' p entries sit far below ε·10⁻³ and bypass
        // (exactly the m3plates behaviour of Fig. 4).
        let mut a = Coo::new(128, 128);
        for i in 0..32 {
            a.push(i, i, 4.0);
        }
        for i in 32..128 {
            a.push(i, i, 2.0);
            if i > 32 {
                a.push(i, i - 1, -1.0);
            }
            if i + 1 < 128 {
                a.push(i, i + 1, -1.0);
            }
        }
        let csr = a.to_csr();
        let cfg = SolverConfig {
            trace_partial: true,
            ..SolverConfig::default()
        };
        let (m, mut shared, coster, mut partial, b) = setup(&csr, &cfg);
        let res = run_cg(
            &m,
            &mut shared,
            None,
            &b,
            &cfg,
            &coster,
            &mut partial,
            &mut SolverWorkspace::new(),
        );
        assert!(res.converged);
        assert!(
            res.spmv_stats.tiles_bypassed > 0,
            "identity block columns should bypass: {:?}",
            res.spmv_stats
        );
    }
}
