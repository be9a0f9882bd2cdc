//! Pipelined (Ghysels–Vanroose) CG and PCG — sequential reference cores.
//!
//! The classic CG iteration needs **two** dependent global reductions per
//! iteration (`(p, Ap)` before α, `(r, r)` before β), each a full
//! synchronization epoch on the device. The pipelined recurrence
//! restructures the algorithm so one fused reduction pair per iteration
//! suffices, and that reduction's result is only consumed *after* the next
//! SpMV has been issued — on a GPU the reduction latency hides behind the
//! SpMV (Rupp et al., arXiv:1410.4054; Ghysels & Vanroose; PAPERS.md). The
//! price is two/four extra recurrence-maintained vectors and a modest,
//! *characterized* rounding drift relative to classic CG — asserted against
//! an explicit envelope by `tests/pipelined_parity.rs`, never hidden behind
//! loosened tolerances.
//!
//! Per iteration (CG): one SpMV `q = A·w`, one fused six-vector update
//! ([`blas1::cg_pipelined_update`]), one fused dot pair
//! `(γ', δ') = ((r,r), (w,r))` ([`blas1::dot2`]). The auxiliary vectors
//! maintain `s = A·p`, `z = A·s` and `w = A·r` by recurrence, so no extra
//! SpMVs run. Scalars:
//!
//! ```text
//! β = γ/γ_old            (0 on fresh start/restart)
//! α = γ/(δ − (β/α_old)·γ)  (γ/δ on fresh start/restart)
//! ```
//!
//! PCG adds the preconditioner chain `m = M⁻¹w`, `n = A·m` and maintains
//! `u = M⁻¹r`, `q = M⁻¹s`, `z = A·q` by recurrence — one SpTRSV pair, one
//! SpMV, one fused eight-vector update and one fused reduction (γ, δ plus
//! the residual norm ρ) per iteration. CG is its `M = I` case, and one
//! body runs both: with `u = r`, `m = w` and `q = s` the preconditioned
//! recurrence is the one above, so the unpreconditioned path skips the
//! applications, the `u` and `q` updates and ρ.
//!
//! Breakdown semantics mirror the classic cores exactly: a non-positive
//! α-denominator is a curvature breakdown, a non-finite α a numeric one;
//! recovery discards the direction history by flagging a fresh start (β = 0
//! rebuilds `p`, `s`, `z` from the current `r`, `w`, `q` on the next
//! iteration — no extra dots, no extra synchronization), `x` and `r` stay
//! untouched, and [`MAX_CONSECUTIVE_RESTARTS`] restarts in convergence mode
//! abort as `Stalled`.
//!
//! [`MAX_CONSECUTIVE_RESTARTS`]: crate::config::MAX_CONSECUTIVE_RESTARTS

use crate::cg::{curvature_breakdown, keep_flags, Ledger};
use crate::config::SolverConfig;
use crate::coster::Coster;
use crate::partial::PartialState;
use crate::precond::{applied, Bound, Precond};
use crate::report::{drive, Direction, Outcome, Slot, SolveReport};
use crate::workspace::SolverWorkspace;
use mf_gpu::Timeline;
use mf_kernels::{blas1, spmv_mixed, SharedTiles, VisFlag};
use mf_sparse::TiledMatrix;
use std::convert::Infallible;

/// Pipelined scalar update: returns `(beta, alpha, denom)` for the current
/// `(γ, δ)` pair. `fresh` selects the steepest-descent start used on
/// iteration 0 and after every breakdown restart. Shared with the threaded
/// engines so the sequential and in-kernel recurrences cannot diverge.
pub(crate) fn pipeline_scalars(
    fresh: bool,
    gamma: f64,
    gamma_old: f64,
    delta: f64,
    alpha_old: f64,
) -> (f64, f64, f64) {
    if fresh {
        (0.0, gamma / delta, delta)
    } else {
        let beta = gamma / gamma_old;
        let denom = delta - (beta / alpha_old) * gamma;
        (beta, gamma / denom, denom)
    }
}

/// Pipelined CG on the tiled matrix, or pipelined PCG with `M⁻¹ = pc`
/// when one is given (see [`crate::cg::run_cg`] for the workspace
/// contract and the single-kernel panic). Vector map: `u = M⁻¹r` lives in
/// `ws.z`, `m = M⁻¹w` in `ws.m`, `n = A·m` in `ws.n`, `s = A·p` in
/// `ws.s`, `q = M⁻¹s` in `ws.q`, `z = A·q` in `ws.t` and the SpTRSV
/// intermediate in `ws.y`, plus `w = A·u` in `ws.w`.
///
/// One body serves both, as the classic cores do. Without `pc` it reads
/// `r`, `w` and `s` wherever the preconditioned recurrence reads `u`, `m`
/// and `q`, so it skips the applications, the `q` and `u` updates and
/// the residual-norm dot ρ (the relres is then `γ = (r, r)` itself), and
/// fuses six vectors where PCG fuses eight. Under `pc` the SpMVs run with
/// all-`Keep` flags, `partial` and [`SolverConfig::adaptive`] are
/// ignored, and the charges are PCG's: one more update kernel and the
/// (γ, δ) pair's own dot kernel ahead of ρ's readback.
#[allow(clippy::too_many_arguments)]
pub fn run_cg_pipelined(
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

    ws.ensure(n);
    let SolverWorkspace {
        x,
        r,
        p,
        s,
        t: z,
        z: u,
        y,
        w,
        m: mv,
        n: nv,
        q,
        ..
    } = ws;
    r.copy_from_slice(b);
    let keep = keep_flags(m.tile_cols);

    // Init (x0 = 0): r = b, u = M⁻¹r, w = A·u, γ = (r,u), δ = (w,u), and
    // under `pc` ρ = (r,r) = ‖b‖². The fused init SpMV is the pipeline's
    // one-time extra cost over classic CG.
    if let Some(pc) = &pc {
        pc.apply(&mut led.tl, r, y, u);
    }
    let flags = spmv_flags(&pc, &keep, partial, applied(&pc, r, u), coster, &mut led.tl);
    let stats = spmv_mixed(m, shared, flags, applied(&pc, r, u), w);
    led.stamp(0, 0);
    led.spmv(&stats, shared);
    coster.spmv_unsync(&mut led.tl, m, shared, flags, &stats);
    let (mut gamma, mut delta) = blas1::dot2(r, w, applied(&pc, r, u));
    coster.dot_unsync(&mut led.tl, true);
    coster.barrier(&mut led.tl); // the init epoch publishing w, γ₀, δ₀
    let mut rho = if pc.is_some() { norm_b * norm_b } else { gamma };

    // Adaptive re-tiering (unpreconditioned only): the refresh recomputes
    // r = b − A·x and the recurrence seeds w = A·r, (γ, δ) from the
    // re-tiered operator and flags a fresh (steepest-descent) start — the
    // pipelined analogue of the classic core's r/p rebuild.
    let ctrl = cfg
        .adaptive
        .filter(|_| pc.is_none())
        .map(|ac| crate::adaptive::controller_for(m, ac));

    let mut gamma_old = 1.0f64;
    let mut alpha_old = 1.0f64;
    let mut fresh = true;
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
                // ---- Adaptive re-tier epoch: re-tier, then reseed the
                // whole recurrence from the true residual of the re-tiered
                // operator: r = b − A·x (via the n temp), w = A·r,
                // (γ, δ) = ((r,r), (w,r)), fresh start.
                shared.apply_retier(m, &d.actions);
                coster.retier(&mut led.tl, crate::adaptive::touched_nnz(m, d));
                let xstats = spmv_mixed(m, shared, &keep, x, nv);
                led.spmv_stats.merge(&xstats);
                coster.spmv_unsync(&mut led.tl, m, shared, &keep, &xstats);
                for i in 0..n {
                    r[i] = b[i] - nv[i];
                }
                coster.axpy_unsync(&mut led.tl, 1);
                let wstats = spmv_mixed(m, shared, &keep, r, w);
                led.spmv_stats.merge(&wstats);
                coster.spmv_unsync(&mut led.tl, m, shared, &keep, &wstats);
                (gamma, delta) = blas1::dot2(r, w, r);
                coster.dot_unsync(&mut led.tl, true);
                coster.barrier(&mut led.tl);
                rho = gamma;
                fresh = true;
                led.retiered(d);
                refreshes += 1;
                return Ok(Slot::Refreshed);
            }

            // ---- Preconditioner chain m = M⁻¹w, then SpMV n = A·m. On
            // the device these overlap the reduction that produced (γ, δ);
            // sequentially they simply run first.
            led.stamp(j - refreshes, 2); // PCG_PIPELINED_STEPS[2] = "spmv"
            if let Some(pc) = &pc {
                pc.apply(&mut led.tl, w, y, mv);
            }
            let flags = spmv_flags(
                &pc,
                &keep,
                partial,
                applied(&pc, w, mv),
                coster,
                &mut led.tl,
            );
            let stats = spmv_mixed(m, shared, flags, applied(&pc, w, mv), nv);
            led.spmv(&stats, shared);
            coster.spmv_unsync(&mut led.tl, m, shared, flags, &stats);

            // ---- Scalars from the previous reduction.
            let (beta, alpha, denom) = pipeline_scalars(fresh, gamma, gamma_old, delta, alpha_old);
            if let Some(kind) = curvature_breakdown(alpha, denom) {
                // Breakdown restart: discard the direction history (β = 0
                // next iteration rebuilds p, s, q, z from u, w, m, n)
                // without touching x or r — the same fixed-point-compatible
                // semantics as classic CG.
                fresh = true;
                coster.barrier(&mut led.tl); // epochs stay aligned with the normal path
                led.trails(cfg, x, partial, w, stats.tiles_bypassed, shared);
                return Ok(Slot::Restart {
                    kind,
                    finite: gamma.is_finite(),
                    relres: Some(rho.sqrt() / norm_b),
                });
            }

            // ---- Fused vector update (one pass; see blas1): eight
            // vectors under `pc`, charged as two kernels; six without.
            match &pc {
                Some(_) => {
                    blas1::pcg_pipelined_update(alpha, beta, mv, nv, p, s, q, z, x, r, u, w);
                    coster.axpy_unsync(&mut led.tl, 8);
                    coster.axpy_unsync(&mut led.tl, 8);
                }
                None => {
                    blas1::cg_pipelined_update(alpha, beta, nv, p, s, z, x, r, w);
                    coster.axpy_unsync(&mut led.tl, 6);
                }
            }

            // ---- Fused reduction for the next iteration, γ' = (r,u) and
            // δ' = (w,u), plus under `pc` the residual norm ρ' = (r,r) the
            // convergence test needs (γ is *not* a norm under
            // preconditioning); then THE one barrier epoch of the
            // iteration (the schedule's whole point).
            let (gamma_new, delta_new) = blas1::dot2(r, w, applied(&pc, r, u));
            if pc.is_some() {
                coster.dot_unsync(&mut led.tl, false);
            }
            let rho_new = match &pc {
                Some(_) => blas1::dot(r, r),
                None => gamma_new,
            };
            coster.dot_unsync(&mut led.tl, true);
            coster.barrier(&mut led.tl);

            gamma_old = gamma;
            alpha_old = alpha;
            gamma = gamma_new;
            delta = delta_new;
            rho = rho_new;
            fresh = false;
            if !rho.is_finite() {
                // Poisoned residual recurrence — abort observably, exactly
                // like the classic core's (r,r) check.
                return Ok(Slot::NonFinite);
            }
            led.trails(cfg, x, partial, w, stats.tiles_bypassed, shared);
            Ok(Slot::Done(rho.sqrt() / norm_b, Direction::Kept))
        },
    );
    led.report(out, x)
}

/// The flags an SpMV of `v` runs with: all-`Keep` under a
/// preconditioner, else the partial-convergence strategy's, refreshed
/// from `v` (Algorithm 4, its scan charged to `tl`).
fn spmv_flags<'f>(
    pc: &Option<Bound<'_>>,
    keep: &'f [VisFlag],
    partial: &'f mut PartialState,
    v: &[f64],
    coster: &Coster,
    tl: &mut Timeline,
) -> &'f [VisFlag] {
    if pc.is_some() {
        return keep;
    }
    partial.update(v);
    if partial.enabled() {
        coster.visflag_scan(tl);
    }
    &partial.vis_flags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::run_cg;
    use crate::config::MAX_CONSECUTIVE_RESTARTS;
    use crate::coster::{MultiCoster, SingleCoster};
    use crate::report::{BreakdownKind, SolveFailure};
    use mf_gpu::{CostModel, DeviceSpec};
    use mf_kernels::ilu0;
    use mf_precision::ClassifyOptions;
    use mf_sparse::{Coo, Csr};

    /// An infinite negative curvature gives the pipelined step
    /// `α = γ/−∞ = −0.0`, a finite number. It must still classify as
    /// `NonFinite`, exactly as the classic cores classify `(p, A·p) = −∞`.
    #[test]
    fn infinite_negative_curvature_is_non_finite() {
        for fresh in [true, false] {
            let (_, alpha, denom) = pipeline_scalars(fresh, 1.0, 1.0, f64::NEG_INFINITY, 1.0);
            assert_eq!(alpha.to_bits(), (-0.0f64).to_bits(), "fresh {fresh}");
            assert_eq!(denom, f64::NEG_INFINITY, "fresh {fresh}");
            assert_eq!(
                curvature_breakdown(alpha, denom),
                Some(BreakdownKind::NonFinite),
                "fresh {fresh}"
            );
        }
    }

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
    fn pipelined_cg_converges_on_poisson() {
        let a = poisson1d(200);
        let cfg = SolverConfig::default();
        let (m, mut shared, coster, mut partial, b) = setup(&a, &cfg);
        let res = run_cg_pipelined(
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
        assert!(res.iterations < 220);
        for v in &res.x {
            assert!((v - 1.0).abs() < 1e-7, "{v}");
        }
    }

    #[test]
    fn pipelined_matches_classic_iteration_count_closely() {
        // The rounding drift of the pipelined recurrence may cost a few
        // iterations but must stay in the same regime.
        let a = poisson1d(300);
        let cfg = SolverConfig::default();
        let (m, mut sh1, coster, mut p1, b) = setup(&a, &cfg);
        let classic = run_cg(
            &m,
            &mut sh1,
            None,
            &b,
            &cfg,
            &coster,
            &mut p1,
            &mut SolverWorkspace::new(),
        );
        let (m2, mut sh2, coster2, mut p2, b2) = setup(&a, &cfg);
        let pipe = run_cg_pipelined(
            &m2,
            &mut sh2,
            None,
            &b2,
            &cfg,
            &coster2,
            &mut p2,
            &mut SolverWorkspace::new(),
        );
        assert!(classic.converged && pipe.converged);
        let (c, p) = (classic.iterations as f64, pipe.iterations as f64);
        assert!(
            (p - c).abs() <= (0.2 * c).max(5.0),
            "classic {c} vs pipelined {p} iterations"
        );
    }

    #[test]
    fn pipelined_fixed_iterations_run_exactly() {
        let a = poisson1d(64);
        let cfg = SolverConfig::benchmark_100_iters();
        let (m, mut shared, coster, mut partial, b) = setup(&a, &cfg);
        let res = run_cg_pipelined(
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
    fn pipelined_zero_rhs_trivially_converges() {
        let a = poisson1d(32);
        let cfg = SolverConfig::default();
        let (m, mut shared, coster, mut partial, _) = setup(&a, &cfg);
        let res = run_cg_pipelined(
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
    }

    #[test]
    fn pipelined_indefinite_matrix_stalls_finite() {
        // A = −I: δ = (Ar, r) < 0 immediately; every fresh start breaks
        // down again, so the solve must stop as Stalled after the restart
        // budget with a finite report — exactly the classic semantics.
        let mut a = Coo::new(64, 64);
        for i in 0..64 {
            a.push(i, i, -1.0);
        }
        let csr = a.to_csr();
        let cfg = SolverConfig::default();
        let (m, mut shared, coster, mut partial, _) = setup(&csr, &cfg);
        let b = vec![1.0; 64];
        let res = run_cg_pipelined(
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
        assert_eq!(res.iterations, MAX_CONSECUTIVE_RESTARTS);
        assert!(matches!(res.failure, Some(SolveFailure::Stalled { .. })));
        assert!(res
            .breakdowns
            .iter()
            .all(|e| e.kind == BreakdownKind::Curvature));
    }

    #[test]
    fn pipelined_workspace_reuse_is_identical() {
        let a = poisson1d(300);
        let cfg = SolverConfig::default();
        let (m, mut shared, coster, mut partial, b) = setup(&a, &cfg);
        let mut ws = SolverWorkspace::with_size(300);
        let ptrs = [ws.x.as_ptr(), ws.w.as_ptr(), ws.t.as_ptr()];
        let res1 = run_cg_pipelined(
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

        let mut shared2 = SharedTiles::load(&m);
        let eps_abs = cfg.tolerance * blas1::norm2(&b);
        let mut partial2 =
            PartialState::new(cfg.partial_convergence, m.tile_cols, cfg.tile_size, eps_abs);
        let res2 = run_cg_pipelined(
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
        assert_eq!(
            [ws.x.as_ptr(), ws.w.as_ptr(), ws.t.as_ptr()],
            ptrs,
            "workspace buffers must be reused"
        );
    }

    #[test]
    fn pipelined_trace_is_inert_and_counts_iterations() {
        let a = poisson1d(96);
        let base = SolverConfig::default();
        let (m, mut sh1, coster, mut p1, b) = setup(&a, &base);
        let off = run_cg_pipelined(
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
        let on = run_cg_pipelined(
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
        let trace = on.trace.expect("tracing enabled");
        let s = trace.summary();
        assert_eq!(s.warps, 1);
        assert_eq!(s.iterations, on.iterations);
    }

    #[test]
    fn pipelined_pcg_converges_fast_on_tridiagonal() {
        // ILU(0) of a tridiagonal is exact, so like classic PCG the
        // pipelined variant needs only a couple of iterations.
        let a = poisson1d(400);
        let ilu = ilu0(&a).unwrap();
        let cfg = SolverConfig::default();
        let m = TiledMatrix::from_csr_with(&a, 16, &ClassifyOptions::default());
        let mut shared = SharedTiles::load(&m);
        let mc = Coster::Multi(MultiCoster::new(
            CostModel::new(DeviceSpec::a100()),
            a.nrows,
        ));
        let mut b = vec![0.0; a.nrows];
        a.matvec(&vec![1.0; a.ncols], &mut b);
        let res = run_cg_pipelined(
            &m,
            &mut shared,
            Some(Precond::Ilu0(&ilu)),
            &b,
            &cfg,
            &mc,
            &mut PartialState::new(false, m.tile_cols, 16, 1.0),
            &mut SolverWorkspace::new(),
        );
        assert!(res.converged, "relres {}", res.final_relres);
        assert!(res.iterations <= 4, "{} iterations", res.iterations);
        for v in &res.x {
            assert!((v - 1.0).abs() < 1e-6);
        }
        assert!(res.timeline.get(mf_gpu::Phase::SpTrsv) > 0.0);
    }

    #[test]
    fn pipelined_pcg_fixed_iterations_and_zero_rhs() {
        let a = poisson1d(64);
        let ilu = ilu0(&a).unwrap();
        let m = TiledMatrix::from_csr_with(&a, 16, &ClassifyOptions::default());
        let mc = Coster::Multi(MultiCoster::new(
            CostModel::new(DeviceSpec::a100()),
            a.nrows,
        ));

        let cfg = SolverConfig {
            fixed_iterations: Some(12),
            ..SolverConfig::default()
        };
        let mut shared = SharedTiles::load(&m);
        let mut b = vec![0.0; a.nrows];
        a.matvec(&vec![1.0; a.ncols], &mut b);
        let res = run_cg_pipelined(
            &m,
            &mut shared,
            Some(Precond::Ilu0(&ilu)),
            &b,
            &cfg,
            &mc,
            &mut PartialState::new(false, m.tile_cols, 16, 1.0),
            &mut SolverWorkspace::new(),
        );
        assert_eq!(res.iterations, 12);

        let mut shared2 = SharedTiles::load(&m);
        let res0 = run_cg_pipelined(
            &m,
            &mut shared2,
            Some(Precond::Ilu0(&ilu)),
            &vec![0.0; 64],
            &SolverConfig::default(),
            &mc,
            &mut PartialState::new(false, m.tile_cols, 16, 1.0),
            &mut SolverWorkspace::new(),
        );
        assert!(res0.converged);
        assert_eq!(res0.iterations, 0);
    }

    #[test]
    fn pipelined_residual_trajectory_tracks_classic() {
        // Drift characterization at the unit level: both recurrences'
        // residual trajectories agree closely while above the rounding
        // floor (the harness-level envelope test sweeps this across
        // fixtures). Below ~100·ε relative the pipelined recurrence is
        // known to level off differently — that part is floor noise, not
        // drift, and is excluded from the envelope.
        let a = poisson1d(200);
        let cfg = SolverConfig {
            trace_residuals: true,
            fixed_iterations: Some(40),
            partial_convergence: false,
            ..SolverConfig::default()
        };
        let (m, mut sh1, coster, mut p1, b) = setup(&a, &cfg);
        let mut ws = SolverWorkspace::new();
        let classic = run_cg(&m, &mut sh1, None, &b, &cfg, &coster, &mut p1, &mut ws);
        let (m2, mut sh2, coster2, mut p2, b2) = setup(&a, &cfg);
        let pipe = run_cg_pipelined(
            &m2,
            &mut sh2,
            None,
            &b2,
            &cfg,
            &coster2,
            &mut p2,
            &mut SolverWorkspace::new(),
        );
        assert_eq!(classic.residual_history.len(), 40);
        assert_eq!(pipe.residual_history.len(), 40);
        let floor = 100.0 * f64::EPSILON;
        for (i, (c, p)) in classic
            .residual_history
            .iter()
            .zip(&pipe.residual_history)
            .enumerate()
        {
            if *c < floor || *p < floor {
                break;
            }
            let drift = (p / c).ln().abs();
            assert!(
                drift < 0.5,
                "iteration {i}: classic {c:e} vs pipelined {p:e} (|ln ratio| {drift:.3})"
            );
        }
    }
}
