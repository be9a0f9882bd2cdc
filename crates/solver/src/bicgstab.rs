//! The BiCGSTAB core (paper Algorithm 2).
//!
//! Same structure as [`crate::cg`]: exact numerics on the quantized tiles,
//! time charged through a [`Coster`]. BiCGSTAB has two SpMVs per iteration;
//! the partial-convergence flags are refreshed before each from its own
//! input vector (`p_j` and `s_j`), matching the §III-D rule that the SpMV
//! *input* drives tile precision.

use crate::cg::{
    finish_host_trace, host_tracer, mixed_spmv, record_spmv_trace, rel_error, CoreResult,
};
use crate::config::SolverConfig;
use crate::coster::Coster;
use crate::partial::PartialState;
use crate::report::{BreakdownKind, RecoveryAction, RestartPolicy};
use crate::workspace::SolverWorkspace;
use mf_gpu::Timeline;
use mf_kernels::{blas1, SharedTiles};
use mf_sparse::TiledMatrix;

/// Runs BiCGSTAB on the tiled matrix, with its loop vectors in `ws` (see
/// [`crate::cg::run_cg`] for the workspace contract).
pub fn run_bicgstab(
    m: &TiledMatrix,
    shared: &mut SharedTiles,
    b: &[f64],
    cfg: &SolverConfig,
    coster: &Coster,
    partial: &mut PartialState,
    ws: &mut SolverWorkspace,
) -> CoreResult {
    let n = m.nrows;
    assert_eq!(b.len(), n);
    assert_eq!(m.nrows, m.ncols, "BiCGSTAB needs a square matrix");

    let mut tl = Timeline::new();
    coster.solve_start(&mut tl);

    let tracer = host_tracer(cfg);

    let norm_b = blas1::norm2(b);
    if norm_b == 0.0 {
        let mut result = CoreResult::zero_rhs(n, tl);
        finish_host_trace(tracer, &mut result);
        return result;
    }
    let mut result = CoreResult::empty();

    // x0 = 0 ⇒ r0 = b, r0* = r0, p0 = r0 (Algorithm 2 lines 1–3). The
    // workspace maps µ onto `u` and θ onto `t`.
    ws.ensure(n);
    let SolverWorkspace {
        x,
        r,
        r0s,
        p,
        u: mu,
        s,
        t: theta,
        ..
    } = ws;
    r.copy_from_slice(b);
    r0s.copy_from_slice(b); // shadow residual, fixed
    p.copy_from_slice(b);
    let threads = cfg.host_parallelism.threads_for(m.nnz());
    let mut rho = blas1::dot(r, r0s);

    let iters = cfg.fixed_iterations.unwrap_or(cfg.max_iter);
    let check_convergence = cfg.fixed_iterations.is_none();
    let mut restarts = RestartPolicy::new(!check_convergence);

    for j in 0..iters {
        // µ = A·p (first SpMV, flags from p).
        if let Some(t) = &tracer {
            t.stamp(j as i64, 0);
        }
        partial.update(p);
        if partial.enabled() {
            coster.visflag_scan(&mut tl);
        }
        let st1 = mixed_spmv(m, shared, &partial.vis_flags, p, mu, threads);
        result.spmv_stats.merge(&st1);
        if let Some(t) = &tracer {
            record_spmv_trace(t, &st1, shared);
        }
        coster.spmv(&mut tl, m, shared, &partial.vis_flags, &st1);

        // α = (r, r0*) / (µ, r0*).
        let denom = blas1::dot(mu, r0s);
        coster.dot(&mut tl, true);
        let alpha = rho / denom;
        if !alpha.is_finite() || denom.abs() < f64::MIN_POSITIVE {
            // Breakdown restart. Charge the rest of the iteration anyway —
            // the kernel pipeline runs every step regardless (the second
            // SpMV is charged at the first one's cost profile, which is
            // what it would execute with the same flags).
            let kind = if !alpha.is_finite() {
                BreakdownKind::NonFinite
            } else {
                BreakdownKind::Rho
            };
            restart(r, p, r0s, &mut rho);
            coster.axpy(&mut tl, 1);
            coster.spmv(&mut tl, m, shared, &partial.vis_flags, &st1);
            coster.dot(&mut tl, false);
            coster.dot(&mut tl, true);
            coster.axpy(&mut tl, 2);
            coster.axpy(&mut tl, 1);
            coster.dot(&mut tl, false);
            coster.dot(&mut tl, true);
            coster.axpy(&mut tl, 1);
            coster.iteration_end(&mut tl);
            record_traces(
                &mut result,
                cfg,
                partial,
                shared,
                x,
                r,
                p,
                norm_b,
                &st1,
                &st1,
            );
            // An α-restart leaves x and r untouched, so repeating it is a
            // fixed point worth aborting.
            if result.restart(&mut restarts, kind, rho.is_finite()) {
                break;
            }
            continue;
        }

        // s = r − αµ.
        blas1::waxpy(r, -alpha, mu, s);
        coster.axpy(&mut tl, 1);

        // θ = A·s (second SpMV, flags from s).
        if let Some(t) = &tracer {
            t.stamp(j as i64, 2); // BICGSTAB_STEPS[2] = "spmv_s"
        }
        partial.update(s);
        if partial.enabled() {
            coster.visflag_scan(&mut tl);
        }
        let st2 = mixed_spmv(m, shared, &partial.vis_flags, s, theta, threads);
        result.spmv_stats.merge(&st2);
        if let Some(t) = &tracer {
            record_spmv_trace(t, &st2, shared);
        }
        coster.spmv(&mut tl, m, shared, &partial.vis_flags, &st2);

        // ω = (θ,s) / (θ,θ).
        let ts = blas1::dot(theta, s);
        let tt = blas1::dot(theta, theta);
        coster.dot(&mut tl, false);
        coster.dot(&mut tl, true); // scalar pair -> one readback
        let omega = if tt > 0.0 { ts / tt } else { 0.0 };

        // x += αp + ωs (fused two-vector update, Algorithm 2 line 10).
        for i in 0..n {
            x[i] += alpha * p[i] + omega * s[i];
        }
        coster.axpy(&mut tl, 2);

        // r = s − ωθ.
        blas1::waxpy(s, -omega, theta, r);
        coster.axpy(&mut tl, 1);

        // β = (r,r0*)/(r_old,r0*) · α/ω; p = r + β(p − ωµ).
        let rho_new = blas1::dot(r, r0s);
        coster.dot(&mut tl, false);
        let rr = blas1::dot(r, r);
        coster.dot(&mut tl, true); // scalar pair -> one readback
        restarts.progressed(); // x and r advanced: real progress

        if !rr.is_finite() {
            // Poisoned residual: restarting would rebuild from the same
            // non-finite r.
            result.iterations += 1;
            result.abort_nonfinite(result.iterations - 1);
            coster.iteration_end(&mut tl);
            break;
        }

        result.iterations += 1;
        let relres = rr.sqrt() / norm_b;
        result.final_relres = relres;
        if cfg.trace_residuals {
            result.residual_history.push(relres);
        }
        if let Some(reference) = &cfg.reference_solution {
            result.error_history.push(rel_error(x, reference));
        }
        if cfg.trace_partial {
            result.p_range_history.push(partial.p_range_histogram(p));
            result
                .bypass_history
                .push(st1.tiles_bypassed + st2.tiles_bypassed);
            result
                .precision_history
                .push(crate::cg::current_precision_histogram(shared));
        }

        if check_convergence && relres < cfg.tolerance {
            result.converged = true;
            break;
        }

        let beta = (rho_new / rho) * (alpha / omega);
        if !beta.is_finite() || omega == 0.0 || rho_new.abs() < f64::MIN_POSITIVE {
            let kind = if omega == 0.0 {
                BreakdownKind::Omega
            } else if rho_new.abs() < f64::MIN_POSITIVE {
                BreakdownKind::Rho
            } else {
                BreakdownKind::NonFinite
            };
            result.record_breakdown(result.iterations - 1, kind, RecoveryAction::Restarted);
            restart(r, p, r0s, &mut rho);
            coster.axpy(&mut tl, 1); // the p-update step still executes
            coster.iteration_end(&mut tl);
            continue;
        }
        rho = rho_new;
        blas1::bicgstab_p_update(r, beta, omega, mu, p);
        coster.axpy(&mut tl, 1);
        coster.iteration_end(&mut tl);
    }

    finish_host_trace(tracer, &mut result);
    result.x = x.clone();
    result.timeline = tl;
    result
}

/// Records the per-iteration traces for a breakdown-restart iteration (the
/// normal path records inline).
#[allow(clippy::too_many_arguments)]
fn record_traces(
    result: &mut CoreResult,
    cfg: &SolverConfig,
    partial: &PartialState,
    shared: &SharedTiles,
    x: &[f64],
    r: &[f64],
    p: &[f64],
    norm_b: f64,
    st1: &mf_kernels::MixedSpmvStats,
    st2: &mf_kernels::MixedSpmvStats,
) {
    let rr = blas1::dot(r, r);
    let relres = rr.sqrt() / norm_b;
    result.final_relres = relres;
    if cfg.trace_residuals {
        result.residual_history.push(relres);
    }
    if let Some(reference) = &cfg.reference_solution {
        result.error_history.push(rel_error(x, reference));
    }
    if cfg.trace_partial {
        result.p_range_history.push(partial.p_range_histogram(p));
        result
            .bypass_history
            .push(st1.tiles_bypassed + st2.tiles_bypassed);
        result
            .precision_history
            .push(crate::cg::current_precision_histogram(shared));
    }
}

/// Breakdown recovery: restart the Krylov process from the current
/// residual (ρ and the direction are rebuilt; the shadow residual stays).
fn restart(r: &mut [f64], p: &mut Vec<f64>, r0s: &[f64], rho: &mut f64) {
    p.clear();
    p.extend_from_slice(r);
    *rho = blas1::dot(r, r0s);
    if rho.abs() < f64::MIN_POSITIVE {
        // (Sub)normal-zero shadow correlation: a ρ ≈ 0 would make the next
        // α non-finite again, so fall back to a fresh rho on r itself
        // (equivalent to restarting with r0* = r, standard practice).
        *rho = blas1::dot(r, r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MAX_CONSECUTIVE_RESTARTS;
    use crate::coster::{Coster, MultiCoster, SingleCoster};
    use crate::report::SolveFailure;
    use mf_gpu::{CostModel, DeviceSpec};
    use mf_precision::ClassifyOptions;
    use mf_sparse::{Coo, Csr, TiledMatrix};

    fn convdiff1d(n: usize) -> Csr {
        let mut a = Coo::new(n, n);
        for i in 0..n {
            a.push(i, i, 4.0);
            if i > 0 {
                a.push(i, i - 1, -1.5);
            }
            if i + 1 < n {
                a.push(i, i + 1, -0.5);
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
    fn bicgstab_converges_on_nonsymmetric() {
        let a = convdiff1d(200);
        let cfg = SolverConfig::default();
        let (m, mut shared, coster, mut partial, b) = setup(&a, &cfg);
        let res = run_bicgstab(
            &m,
            &mut shared,
            &b,
            &cfg,
            &coster,
            &mut partial,
            &mut SolverWorkspace::new(),
        );
        assert!(res.converged, "relres {}", res.final_relres);
        for v in &res.x {
            assert!((v - 1.0).abs() < 1e-6, "{v}");
        }
    }

    #[test]
    fn bicgstab_beats_its_tolerance() {
        let a = convdiff1d(100);
        let cfg = SolverConfig::default();
        let (m, mut shared, coster, mut partial, b) = setup(&a, &cfg);
        let res = run_bicgstab(
            &m,
            &mut shared,
            &b,
            &cfg,
            &coster,
            &mut partial,
            &mut SolverWorkspace::new(),
        );
        assert!(res.final_relres < 1e-10);
    }

    #[test]
    fn fixed_iteration_mode() {
        let a = convdiff1d(64);
        let cfg = SolverConfig::benchmark_100_iters();
        let (m, mut shared, coster, mut partial, b) = setup(&a, &cfg);
        let res = run_bicgstab(
            &m,
            &mut shared,
            &b,
            &cfg,
            &coster,
            &mut partial,
            &mut SolverWorkspace::new(),
        );
        assert_eq!(res.iterations, 100);
        // Two SpMVs per iteration.
        assert!(res.spmv_stats.nnz_total() >= 2 * 100 * m.nnz() / 2);
    }

    #[test]
    fn zero_rhs() {
        let a = convdiff1d(16);
        let cfg = SolverConfig::default();
        let (m, mut shared, coster, mut partial, _) = setup(&a, &cfg);
        let res = run_bicgstab(
            &m,
            &mut shared,
            &[0.0; 16],
            &cfg,
            &coster,
            &mut partial,
            &mut SolverWorkspace::new(),
        );
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
    }

    #[test]
    fn single_and_multi_kernel_same_numerics() {
        let a = convdiff1d(90);
        let cfg = SolverConfig {
            partial_convergence: false,
            ..SolverConfig::default()
        };
        let (m, mut sh1, coster_s, mut p1, b) = setup(&a, &cfg);
        let res_s = run_bicgstab(
            &m,
            &mut sh1,
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
        let res_m = run_bicgstab(
            &m,
            &mut sh2,
            &b,
            &cfg,
            &coster_m,
            &mut p2,
            &mut SolverWorkspace::new(),
        );
        assert_eq!(res_s.iterations, res_m.iterations);
        assert_eq!(res_s.x, res_m.x);
    }

    /// Skew-symmetric matrix: `(A·p, r0*) = 0` exactly on the first
    /// iteration, so α = ρ/0 is infinite before any update runs. The old
    /// core divided blindly and NaN-poisoned x; the robustness layer must
    /// restart, observe the fixed point, and abort with a structured
    /// failure and a finite residual.
    #[test]
    fn breakdown_matrix_fails_finite_with_events() {
        let n = 32;
        let mut a = Coo::new(n, n);
        for i in 0..n - 1 {
            a.push(i, i + 1, 1.0);
            a.push(i + 1, i, -1.0);
        }
        let csr = a.to_csr();
        let cfg = SolverConfig::default();
        let m = TiledMatrix::from_csr_with(&csr, cfg.tile_size, &ClassifyOptions::default());
        let mut shared = SharedTiles::load(&m);
        let coster = Coster::Single(SingleCoster::new(
            CostModel::new(DeviceSpec::a100()),
            &m,
            cfg.tile_size,
        ));
        let b = vec![1.0; n];
        let mut partial = PartialState::new(
            cfg.partial_convergence,
            m.tile_cols,
            cfg.tile_size,
            cfg.tolerance * blas1::norm2(&b),
        );
        let res = run_bicgstab(
            &m,
            &mut shared,
            &b,
            &cfg,
            &coster,
            &mut partial,
            &mut SolverWorkspace::new(),
        );
        assert!(!res.converged);
        assert!(
            res.final_relres.is_finite(),
            "breakdown must not leak NaN: {}",
            res.final_relres
        );
        for v in &res.x {
            assert!(v.is_finite(), "x poisoned: {v}");
        }
        assert!(
            matches!(res.failure, Some(SolveFailure::Stalled { .. })),
            "expected a stall abort, got {:?}",
            res.failure
        );
        assert!(
            !res.breakdowns.is_empty(),
            "breakdown events must be recorded"
        );
        assert_eq!(
            res.breakdowns.last().unwrap().action,
            RecoveryAction::Aborted
        );
        assert!(
            res.iterations <= MAX_CONSECUTIVE_RESTARTS,
            "stall abort must bound the futile restarts, ran {}",
            res.iterations
        );
    }

    #[test]
    fn event_trace_is_inert_and_records_both_spmvs() {
        let a = convdiff1d(120);
        let base = SolverConfig::default();
        let (m, mut sh1, coster, mut p1, b) = setup(&a, &base);
        let off = run_bicgstab(
            &m,
            &mut sh1,
            &b,
            &base,
            &coster,
            &mut p1,
            &mut SolverWorkspace::new(),
        );
        assert!(off.trace.is_none());

        let cfg = SolverConfig {
            trace: mf_trace::TraceConfig::on(),
            ..SolverConfig::default()
        };
        let (m2, mut sh2, coster2, mut p2, b2) = setup(&a, &cfg);
        let on = run_bicgstab(
            &m2,
            &mut sh2,
            &b2,
            &cfg,
            &coster2,
            &mut p2,
            &mut SolverWorkspace::new(),
        );
        assert_eq!(off.x, on.x, "tracing must not perturb the numerics");
        assert_eq!(off.iterations, on.iterations);

        let trace = on.trace.expect("tracing enabled -> trace present");
        assert_eq!(trace.count(mf_trace::EventKind::IterStart), on.iterations);
        // Two SpMVs per full iteration, each with a Bypass marker.
        assert_eq!(trace.count(mf_trace::EventKind::Bypass), 2 * on.iterations);
        assert_eq!(
            trace.bytes_by_precision().iter().sum::<u64>() as usize,
            on.spmv_stats.value_bytes()
        );
    }

    #[test]
    fn wide_range_matrix_still_solves() {
        // Diagonally dominant with wide-range off-diagonals (arc130-like).
        let n = 80;
        let mut a = Coo::new(n, n);
        let mut mag = 1.0e-6;
        for i in 0..n {
            a.push(i, i, 1.0 + 2.0 * mag);
            if i + 1 < n {
                a.push(i, i + 1, mag);
            }
            if i > 0 {
                a.push(i, i - 1, -mag);
            }
            mag *= 1.35;
            if mag > 1e6 {
                mag = 1e-6;
            }
        }
        let csr = a.to_csr();
        let cfg = SolverConfig::default();
        let (m, mut shared, coster, mut partial, b) = setup(&csr, &cfg);
        let res = run_bicgstab(
            &m,
            &mut shared,
            &b,
            &cfg,
            &coster,
            &mut partial,
            &mut SolverWorkspace::new(),
        );
        assert!(res.converged, "relres {}", res.final_relres);
    }
}
