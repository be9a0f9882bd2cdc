//! The BiCGSTAB core (paper Algorithm 2) and its right-preconditioned
//! form (PBiCGSTAB, §III-C).
//!
//! Same structure as [`crate::cg`]: exact numerics on the quantized tiles,
//! time charged through a [`Coster`], iterations run as slots of the one
//! loop driver, and BiCGSTAB runs inside the PBiCGSTAB body with the two
//! preconditioner applications skipped. BiCGSTAB has two SpMVs per
//! iteration; the partial-convergence flags are refreshed before each from
//! its own input vector (`p_j` and `s_j`), matching the §III-D rule that
//! the SpMV *input* drives tile precision.

use crate::cg::Ledger;
use crate::config::SolverConfig;
use crate::coster::Coster;
use crate::partial::PartialState;
use crate::precond::{applied, Bound, Precond};
use crate::report::{converges, drive, BreakdownKind, Direction, Outcome, Slot, SolveReport};
use crate::workspace::SolverWorkspace;
use mf_kernels::{blas1, spmv_mixed, SharedTiles};
use mf_sparse::TiledMatrix;
use std::convert::Infallible;

/// Runs BiCGSTAB on the tiled matrix, right-preconditioned by
/// `M⁻¹ = pc` when one is given (PBiCGSTAB: `p̂ = M⁻¹p`, `ŝ = M⁻¹s`), with
/// its loop vectors in `ws` (see [`crate::cg::run_cg`] for the workspace
/// contract and the single-kernel panic).
///
/// One body serves both. Without `pc` it reads `p` and `s` wherever
/// PBiCGSTAB reads `p̂` and `ŝ`, and skips the applications and their
/// charges; only the unpreconditioned core records the event stream and
/// the per-iteration trails.
#[allow(clippy::too_many_arguments)]
pub fn run_bicgstab(
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
    assert_eq!(m.nrows, m.ncols, "BiCGSTAB needs a square matrix");

    let mut led = Ledger::new(cfg, pc.is_none(), coster.mode(), coster.warp_count());
    coster.solve_start(&mut led.tl);
    let pc = pc.map(|pc| Bound::new(pc, coster.multi(), cfg, &mut led.tl, n));

    let norm_b = blas1::norm2(b);
    if norm_b == 0.0 {
        return led.zero_rhs(n);
    }

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
        y,
        phat,
        shat,
        ..
    } = ws;
    r.copy_from_slice(b);
    r0s.copy_from_slice(b); // shadow residual, fixed
    p.copy_from_slice(b);
    let mut rho = blas1::dot(r, r0s);

    let mut out = Outcome::sequential(cfg.trace_residuals);
    let Ok(()) = drive::<Infallible>(
        &mut out,
        cfg.max_iter,
        cfg.fixed_iterations,
        cfg.tolerance,
        None,
        || Ok(()),
        |j, _| {
            // p̂ = M⁻¹p; µ = A·p̂ (first SpMV, flags from its input).
            led.stamp(j, 1); // PBICGSTAB_STEPS[1] = "spmv_v"
            if let Some(pc) = &pc {
                pc.apply(&mut led.tl, p, y, phat);
            }
            partial.update(applied(&pc, p, phat));
            if partial.enabled() {
                coster.visflag_scan(&mut led.tl);
            }
            let st1 = spmv_mixed(m, shared, &partial.vis_flags, applied(&pc, p, phat), mu);
            led.spmv(&st1, shared);
            coster.spmv(&mut led.tl, m, shared, &partial.vis_flags, &st1);

            // α = (r, r0*) / (µ, r0*).
            let denom = blas1::dot(mu, r0s);
            coster.dot(&mut led.tl, true);
            let alpha = rho / denom;
            if let Some(kind) = alpha_breakdown(alpha, denom) {
                // Breakdown restart. Charge the rest of the iteration
                // anyway — the kernel pipeline runs every step regardless
                // (the second application and SpMV are charged, and the
                // SpMV's bypassed tiles counted, at the first one's
                // profile, which is what it would execute with the same
                // flags). An α-restart leaves x and r untouched, so
                // repeating it is a fixed point the driver aborts.
                restart(r, p, r0s, &mut rho);
                let tl = &mut led.tl;
                coster.axpy(tl, 1);
                if let Some(pc) = &pc {
                    pc.charge(tl);
                }
                coster.spmv(tl, m, shared, &partial.vis_flags, &st1);
                coster.dot(tl, false);
                coster.dot(tl, true);
                coster.axpy(tl, 2);
                coster.axpy(tl, 1);
                coster.dot(tl, false);
                coster.dot(tl, true);
                coster.axpy(tl, 1);
                coster.iteration_end(tl);
                led.trails(cfg, x, partial, p, 2 * st1.tiles_bypassed, shared);
                return Ok(Slot::Restart {
                    kind,
                    finite: rho.is_finite(),
                    relres: pc.is_none().then(|| blas1::dot(r, r).sqrt() / norm_b),
                });
            }

            // s = r − αµ.
            blas1::waxpy(r, -alpha, mu, s);
            coster.axpy(&mut led.tl, 1);

            // ŝ = M⁻¹s; θ = A·ŝ (second SpMV, flags from its input).
            led.stamp(j, 3); // PBICGSTAB_STEPS[3] = "spmv_t"
            if let Some(pc) = &pc {
                pc.apply(&mut led.tl, s, y, shat);
            }
            partial.update(applied(&pc, s, shat));
            if partial.enabled() {
                coster.visflag_scan(&mut led.tl);
            }
            let st2 = spmv_mixed(m, shared, &partial.vis_flags, applied(&pc, s, shat), theta);
            led.spmv(&st2, shared);
            coster.spmv(&mut led.tl, m, shared, &partial.vis_flags, &st2);

            // ω = (θ,s) / (θ,θ).
            let ts = blas1::dot(theta, s);
            let tt = blas1::dot(theta, theta);
            coster.dot(&mut led.tl, false);
            coster.dot(&mut led.tl, true); // scalar pair -> one readback
            let omega = if tt > 0.0 { ts / tt } else { 0.0 };

            // x += αp̂ + ωŝ (fused two-vector update, Algorithm 2 line 10).
            let (ph, sh) = (applied(&pc, p, phat), applied(&pc, s, shat));
            for i in 0..n {
                x[i] += alpha * ph[i] + omega * sh[i];
            }
            coster.axpy(&mut led.tl, 2);

            // r = s − ωθ.
            blas1::waxpy(s, -omega, theta, r);
            coster.axpy(&mut led.tl, 1);

            // β = (r,r0*)/(r_old,r0*) · α/ω; p = r + β(p − ωµ).
            let rho_new = blas1::dot(r, r0s);
            coster.dot(&mut led.tl, false);
            let rr = blas1::dot(r, r);
            coster.dot(&mut led.tl, true); // scalar pair -> one readback
            if !rr.is_finite() {
                // Poisoned residual: restarting would rebuild from the same
                // non-finite r.
                coster.iteration_end(&mut led.tl);
                return Ok(Slot::NonFinite);
            }

            let relres = rr.sqrt() / norm_b;
            let bypassed = st1.tiles_bypassed + st2.tiles_bypassed;
            led.trails(cfg, x, partial, p, bypassed, shared);
            if converges(relres, cfg.tolerance, cfg.fixed_iterations) {
                // The driver stops here: the direction update neither runs
                // nor charges.
                return Ok(Slot::Done(relres, Direction::Kept));
            }
            let beta = (rho_new / rho) * (alpha / omega);
            let direction = if let Some(kind) = restart_kind(beta, omega, rho_new) {
                restart(r, p, r0s, &mut rho);
                Direction::Restarted(kind)
            } else {
                rho = rho_new;
                blas1::bicgstab_p_update(r, beta, omega, mu, p);
                Direction::Kept
            };
            coster.axpy(&mut led.tl, 1); // the p-update step runs either way
            coster.iteration_end(&mut led.tl);
            Ok(Slot::Done(relres, direction))
        },
    );
    led.report(out, x)
}

/// Breakdown recovery: restart the Krylov process from the current
/// residual (ρ and the direction are rebuilt; the shadow residual stays).
fn restart(r: &mut [f64], p: &mut Vec<f64>, r0s: &[f64], rho: &mut f64) {
    p.clear();
    p.extend_from_slice(r);
    *rho = restart_rho(blas1::dot(r, r0s), || blas1::dot(r, r));
}

/// The one BiCGSTAB step rule (sequential, preconditioned and threaded
/// alike): `α = ρ/denom` breaks down when `α` is not finite (`NonFinite`)
/// or `denom = (A·p, r0*)` is a (sub)normal zero (`Rho`).
pub(crate) fn alpha_breakdown(alpha: f64, denom: f64) -> Option<BreakdownKind> {
    if !alpha.is_finite() {
        Some(BreakdownKind::NonFinite)
    } else if denom.abs() < f64::MIN_POSITIVE {
        Some(BreakdownKind::Rho)
    } else {
        None
    }
}

/// Why a BiCGSTAB direction update must restart from the residual, if it
/// must: ω = 0, then a (sub)normal zero ρ, else a non-finite β.
pub(crate) fn restart_kind(beta: f64, omega: f64, rho_new: f64) -> Option<BreakdownKind> {
    if omega == 0.0 {
        Some(BreakdownKind::Omega)
    } else if rho_new.abs() < f64::MIN_POSITIVE {
        Some(BreakdownKind::Rho)
    } else if !beta.is_finite() {
        Some(BreakdownKind::NonFinite)
    } else {
        None
    }
}

/// The ρ a restart continues from: `rho = (r, r0*)`, or the lazily
/// computed `(r, r)` when that shadow correlation is a (sub)normal zero —
/// a ρ ≈ 0 would make the next α non-finite again, so the process
/// restarts as if `r0* = r` (standard practice).
pub(crate) fn restart_rho(rho: f64, rr: impl FnOnce() -> f64) -> f64 {
    if rho.abs() < f64::MIN_POSITIVE {
        rr()
    } else {
        rho
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MAX_CONSECUTIVE_RESTARTS;
    use crate::coster::{Coster, MultiCoster, SingleCoster};
    use crate::report::{RecoveryAction, SolveFailure};
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
            None,
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
            None,
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
            None,
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
            None,
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
        let res_m = run_bicgstab(
            &m,
            &mut sh2,
            None,
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
            None,
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
            None,
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
            None,
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
            None,
            &b,
            &cfg,
            &coster,
            &mut partial,
            &mut SolverWorkspace::new(),
        );
        assert!(res.converged, "relres {}", res.final_relres);
    }
}
