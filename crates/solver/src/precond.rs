//! Preconditioned CG and BiCGSTAB (paper §III-C last paragraph,
//! evaluated in §IV-C / Fig. 10).
//!
//! The paper applies preconditioning in its *multi-kernel* method ("We
//! apply the recursive block SpTRSV algorithm \[41\] to our multi-kernel
//! method"), so both loops here charge through a [`MultiCoster`]; the
//! Mille-feuille advantage comes from (a) the tiled mixed-precision SpMV
//! and (b) the recursive-block SpTRSV, whose square sub-blocks run as
//! parallel SpMVs instead of serialized dependency levels.
//!
//! The preconditioner is one pluggable `M⁻¹`, a [`Precond`], inside a
//! single recurrence: [`run_pcg`] serves ILU(0), IC(0) and block-Jacobi
//! alike, and [`run_pbicgstab`] and
//! [`crate::pipelined::run_pcg_pipelined`] apply theirs the same way.
//! The SpMVs run with all-`Keep` flags: the partial-convergence strategy
//! needs the single kernel's persistent on-chip tile copy (§III-D).

use crate::cg::{keep_flags, mixed_spmv, CoreResult};
use crate::config::SolverConfig;
use crate::coster::MultiCoster;
use crate::report::{BreakdownKind, RecoveryAction, RestartPolicy};
use crate::workspace::SolverWorkspace;
use mf_gpu::{Phase, Timeline};
use mf_kernels::{blas1, level_schedule, BlockJacobi, Ic0, Ilu0, RecursiveTrsvStats, SharedTiles};
use mf_sparse::TiledMatrix;

/// The preconditioner `M⁻¹` a preconditioned core applies. The variants
/// differ in three things only — the factorization charge, the SpTRSV
/// level count and apply-plus-charge — and the core loops are shared.
#[derive(Clone, Copy, Debug)]
pub enum Precond<'a> {
    /// `M = L·U` from ILU(0), applied through the recursive-block SpTRSV
    /// (the paper's preconditioner).
    Ilu0(&'a Ilu0),
    /// `M = L·Lᵀ` from IC(0) — an extension beyond the paper's ILU(0)
    /// evaluation that suits the SPD class: symmetric preconditioning
    /// keeps the preconditioned operator SPD and the factorization costs
    /// half the ILU work.
    Ic0(&'a Ic0),
    /// The adaptive-precision block-Jacobi `M⁻¹` — an extension following
    /// the mixed-precision preconditioning line the paper's related work
    /// cites (Anzt et al. / Ginkgo). Fully parallel application (no
    /// dependency levels), with each block's inverse stored in the
    /// narrowest precision its conditioning tolerates.
    BlockJacobi(&'a BlockJacobi),
}

/// Charges a triangular factorization itself (done once, on device —
/// modeled as two triangular sweeps over the pattern).
fn charge_factorization(mc: &MultiCoster, tl: &mut Timeline, nnz: usize, n: usize) {
    let body = mc.cost.sptrsv_us(nnz, n, (n / 32).max(1));
    tl.add(Phase::Factorize, 2.0 * body);
    tl.add(Phase::Sync, 2.0 * mc.cost.launch_us());
}

/// A [`Precond`] bound to one solve: the coster it charges, the SpTRSV
/// leaf size and the factors' combined dependency-level count.
pub(crate) struct Bound<'a> {
    pc: Precond<'a>,
    mc: &'a MultiCoster,
    leaf: usize,
    levels: usize,
}

impl<'a> Bound<'a> {
    /// Charges the factorization to `tl` and derives the level count:
    /// preprocessing decides the SpTRSV algorithm for the factor pair,
    /// recursive-block vs level-scheduled (see
    /// [`MultiCoster::sptrsv_adaptive`]).
    pub(crate) fn new(
        pc: Precond<'a>,
        mc: &'a MultiCoster,
        cfg: &SolverConfig,
        tl: &mut Timeline,
        n: usize,
    ) -> Bound<'a> {
        let levels = match pc {
            Precond::Ilu0(ilu) => {
                charge_factorization(mc, tl, ilu.nnz(), n);
                level_schedule(&ilu.l, true).num_levels + level_schedule(&ilu.u, false).num_levels
            }
            Precond::Ic0(ic) => {
                charge_factorization(mc, tl, ic.l.nnz(), n);
                level_schedule(&ic.l, true).num_levels + level_schedule(&ic.lt, false).num_levels
            }
            Precond::BlockJacobi(bj) => {
                // One dense inversion per block, parallel over blocks.
                tl.add(
                    Phase::Factorize,
                    mc.cost.kernel_body_us(
                        2.0 * bj
                            .inv_blocks
                            .iter()
                            .map(|blk| (blk.len() as f64).powf(1.5))
                            .sum::<f64>(),
                        bj.storage_bytes() as f64 * 2.0,
                        mc.cost.blas1_warps(n.max(1)),
                    ),
                );
                tl.add(Phase::Sync, mc.cost.launch_us());
                0
            }
        };
        Bound {
            pc,
            mc,
            leaf: cfg.trsv_leaf,
            levels,
        }
    }

    /// `dst = M⁻¹·src`, charged to `tl`; `scratch` holds the triangular
    /// pair's intermediate. Returns the SpTRSV work (zero for
    /// block-Jacobi) so a breakdown path can charge the same application
    /// again.
    pub(crate) fn apply(
        &self,
        tl: &mut Timeline,
        src: &[f64],
        scratch: &mut [f64],
        dst: &mut [f64],
    ) -> RecursiveTrsvStats {
        let stats = match self.pc {
            Precond::Ilu0(ilu) => ilu.apply_recursive_into(src, self.leaf, scratch, dst),
            Precond::Ic0(ic) => ic.apply_recursive_into(src, self.leaf, scratch, dst),
            Precond::BlockJacobi(bj) => {
                bj.apply_into(src, dst);
                RecursiveTrsvStats::default()
            }
        };
        self.charge(tl, &stats);
        stats
    }

    /// Charges one application that did `stats` work.
    pub(crate) fn charge(&self, tl: &mut Timeline, stats: &RecursiveTrsvStats) {
        match self.pc {
            Precond::Ilu0(ilu) => self.mc.sptrsv_adaptive(tl, stats, ilu.nnz(), self.levels),
            Precond::Ic0(ic) => self.mc.sptrsv_adaptive(tl, stats, ic.nnz(), self.levels),
            Precond::BlockJacobi(bj) => self.mc.block_jacobi(tl, bj),
        }
    }
}

/// Preconditioned CG with `M⁻¹ = pc`, loop vectors in `ws` (see
/// [`crate::cg::run_cg`] for the workspace contract).
/// [`SolverConfig::adaptive`] arms the same re-tier controller as the CG
/// core.
pub fn run_pcg(
    m: &TiledMatrix,
    shared: &mut SharedTiles,
    pc: Precond<'_>,
    b: &[f64],
    cfg: &SolverConfig,
    mc: &MultiCoster,
    ws: &mut SolverWorkspace,
) -> CoreResult {
    let n = m.nrows;
    assert_eq!(b.len(), n);

    let mut tl = Timeline::new();
    let pc = Bound::new(pc, mc, cfg, &mut tl, n);

    let norm_b = blas1::norm2(b);
    if norm_b == 0.0 {
        return CoreResult::zero_rhs(n, tl);
    }
    let mut result = CoreResult::empty();

    ws.ensure(n);
    let SolverWorkspace {
        x, r, z, p, u, y, ..
    } = ws;
    r.copy_from_slice(b);
    let threads = cfg.host_parallelism.threads_for(m.nnz());
    let keep = keep_flags(m.tile_cols);
    pc.apply(&mut tl, r, y, z);
    p.copy_from_slice(z);
    let mut rz = blas1::dot(r, z);
    mc.dot(&mut tl, true);

    // Adaptive re-tiering: same controller state machine as the CG core
    // (see `crate::adaptive`); the refresh re-derives z and rz through the
    // preconditioner because the recurrence tracks the old operator.
    let mut ctrl = cfg
        .adaptive
        .map(|ac| crate::adaptive::controller_for(m, ac));

    let iters = cfg.fixed_iterations.unwrap_or(cfg.max_iter);
    let check_convergence = cfg.fixed_iterations.is_none();
    let mut restarts = RestartPolicy::new(!check_convergence);

    for _j in 0..iters {
        let stats = mixed_spmv(m, shared, &keep, p, u, threads);
        result.spmv_stats.merge(&stats);
        mc.spmv(&mut tl, m, &stats);

        let pu = blas1::dot(p, u);
        mc.dot(&mut tl, true);
        let alpha = rz / pu;
        if !alpha.is_finite() || pu <= 0.0 {
            // Breakdown restart — the kernel sequence still runs, charge it.
            let kind = if pu.is_finite() && pu <= 0.0 {
                BreakdownKind::Curvature
            } else {
                BreakdownKind::NonFinite
            };
            p.copy_from_slice(z);
            rz = blas1::dot(r, z);
            mc.axpy(&mut tl);
            mc.axpy(&mut tl);
            mc.dot(&mut tl, true);
            mc.dot(&mut tl, true);
            mc.axpy(&mut tl);
            // A restart leaves x and r untouched, so repeating it is a
            // fixed point (see crate::cg) — abort instead of spinning.
            if result.restart(&mut restarts, kind, rz.is_finite()) {
                break;
            }
            continue;
        }
        restarts.progressed();

        blas1::axpy(alpha, p, x);
        blas1::axpy(-alpha, u, r);
        mc.axpy(&mut tl);
        mc.axpy(&mut tl);

        let rr = blas1::dot(r, r);
        mc.dot(&mut tl, true);
        if !rr.is_finite() {
            // Poisoned residual: no restart can rebuild finite state from
            // it.
            result.iterations += 1;
            result.abort_nonfinite(result.iterations - 1);
            break;
        }

        pc.apply(&mut tl, r, y, z);

        let rz_new = blas1::dot(r, z);
        mc.dot(&mut tl, true);
        let beta = rz_new / rz;
        rz = rz_new;
        blas1::xpay(z, beta, p);
        mc.axpy(&mut tl);

        result.iterations += 1;
        let relres = rr.sqrt() / norm_b;
        result.final_relres = relres;
        if cfg.trace_residuals {
            result.residual_history.push(relres);
        }
        if check_convergence && relres < cfg.tolerance {
            result.converged = true;
            break;
        }
        if !beta.is_finite() {
            // β = (r,z)_new/(r,z) went non-finite — the preconditioned
            // correlation collapsed.
            result.abort_nonfinite(result.iterations - 1);
            break;
        }

        // ---- Adaptive re-tier epoch (after the convergence check):
        // re-tier the tiles, then rebuild r = b − A·x, z = M⁻¹r, p = z and
        // rz = (r,z) from the re-tiered operator.
        if let Some(c) = ctrl.as_mut() {
            if let Some(d) = c.observe(result.iterations, relres, cfg.tolerance) {
                shared.apply_retier(m, &d.actions);
                mc.retier(&mut tl, crate::adaptive::touched_nnz(m, &d));
                let rstats = mixed_spmv(m, shared, &keep, x, u, threads);
                result.spmv_stats.merge(&rstats);
                mc.spmv(&mut tl, m, &rstats);
                for i in 0..n {
                    r[i] = b[i] - u[i];
                }
                mc.axpy(&mut tl);
                pc.apply(&mut tl, r, y, z);
                p.copy_from_slice(z);
                rz = blas1::dot(r, z);
                mc.dot(&mut tl, true);
                result.retier_trail.push(d);
            }
        }
    }

    result.x = x.clone();
    result.timeline = tl;
    result
}

/// Preconditioned BiCGSTAB (right preconditioning: `p̂ = M⁻¹p`,
/// `ŝ = M⁻¹s`), loop vectors in `ws`.
pub fn run_pbicgstab(
    m: &TiledMatrix,
    shared: &mut SharedTiles,
    pc: Precond<'_>,
    b: &[f64],
    cfg: &SolverConfig,
    mc: &MultiCoster,
    ws: &mut SolverWorkspace,
) -> CoreResult {
    let n = m.nrows;
    assert_eq!(b.len(), n);

    let mut tl = Timeline::new();
    let pc = Bound::new(pc, mc, cfg, &mut tl, n);

    let norm_b = blas1::norm2(b);
    if norm_b == 0.0 {
        return CoreResult::zero_rhs(n, tl);
    }
    let mut result = CoreResult::empty();

    ws.ensure(n);
    let SolverWorkspace {
        x,
        r,
        r0s,
        p,
        u: v,
        s,
        t,
        y,
        phat,
        shat,
        ..
    } = ws;
    r.copy_from_slice(b);
    r0s.copy_from_slice(b);
    p.copy_from_slice(b);
    let threads = cfg.host_parallelism.threads_for(m.nnz());
    let keep = keep_flags(m.tile_cols);
    let mut rho = blas1::dot(r, r0s);

    let iters = cfg.fixed_iterations.unwrap_or(cfg.max_iter);
    let check_convergence = cfg.fixed_iterations.is_none();
    let mut restarts = RestartPolicy::new(!check_convergence);

    for _j in 0..iters {
        // p̂ = M⁻¹ p ; v = A p̂.
        let st_p = pc.apply(&mut tl, p, y, phat);
        let st1 = mixed_spmv(m, shared, &keep, phat, v, threads);
        result.spmv_stats.merge(&st1);
        mc.spmv(&mut tl, m, &st1);

        let denom = blas1::dot(v, r0s);
        mc.dot(&mut tl, true);
        let alpha = rho / denom;
        if !alpha.is_finite() || denom.abs() < f64::MIN_POSITIVE {
            // Breakdown restart — charge the remaining pipeline.
            let kind = if !alpha.is_finite() {
                BreakdownKind::NonFinite
            } else {
                BreakdownKind::Rho
            };
            p.copy_from_slice(r);
            rho = blas1::dot(r, r0s);
            if rho.abs() < f64::MIN_POSITIVE {
                rho = blas1::dot(r, r);
            }
            mc.axpy(&mut tl);
            pc.charge(&mut tl, &st_p);
            mc.spmv(&mut tl, m, &st1);
            mc.dot(&mut tl, true);
            mc.dot(&mut tl, true);
            mc.axpy(&mut tl);
            mc.axpy(&mut tl);
            mc.axpy(&mut tl);
            mc.dot(&mut tl, true);
            mc.dot(&mut tl, true);
            mc.axpy(&mut tl);
            // Same fixed-point argument as the sequential BiCGSTAB core.
            if result.restart(&mut restarts, kind, rho.is_finite()) {
                break;
            }
            continue;
        }

        blas1::waxpy(r, -alpha, v, s);
        mc.axpy(&mut tl);

        // ŝ = M⁻¹ s ; t = A ŝ.
        pc.apply(&mut tl, s, y, shat);
        let st2 = mixed_spmv(m, shared, &keep, shat, t, threads);
        result.spmv_stats.merge(&st2);
        mc.spmv(&mut tl, m, &st2);

        let ts_dot = blas1::dot(t, s);
        let tt = blas1::dot(t, t);
        mc.dot(&mut tl, false);
        mc.dot(&mut tl, true); // scalar pair -> one readback
        let omega = if tt > 0.0 { ts_dot / tt } else { 0.0 };

        for i in 0..n {
            x[i] += alpha * phat[i] + omega * shat[i];
        }
        mc.axpy(&mut tl);
        mc.axpy(&mut tl);
        blas1::waxpy(s, -omega, t, r);
        mc.axpy(&mut tl);

        let rho_new = blas1::dot(r, r0s);
        mc.dot(&mut tl, false);
        let rr = blas1::dot(r, r);
        mc.dot(&mut tl, true); // scalar pair -> one readback
        restarts.progressed(); // x and r advanced: real progress

        if !rr.is_finite() {
            result.iterations += 1;
            result.abort_nonfinite(result.iterations - 1);
            break;
        }

        result.iterations += 1;
        let relres = rr.sqrt() / norm_b;
        result.final_relres = relres;
        if cfg.trace_residuals {
            result.residual_history.push(relres);
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
            p.copy_from_slice(r);
            rho = blas1::dot(r, r0s);
            if rho.abs() < f64::MIN_POSITIVE {
                rho = blas1::dot(r, r);
            }
            mc.axpy(&mut tl); // the p-update kernel still runs
            continue;
        }
        rho = rho_new;
        blas1::bicgstab_p_update(r, beta, omega, v, p);
        mc.axpy(&mut tl);
    }

    result.x = x.clone();
    result.timeline = tl;
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_gpu::{CostModel, DeviceSpec};
    use mf_kernels::ilu0;
    use mf_precision::ClassifyOptions;
    use mf_sparse::{Coo, Csr};

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

    fn nonsym1d(n: usize) -> Csr {
        let mut a = Coo::new(n, n);
        for i in 0..n {
            a.push(i, i, 4.0);
            if i > 0 {
                a.push(i, i - 1, -1.75);
            }
            if i + 1 < n {
                a.push(i, i + 1, -0.25);
            }
        }
        a.to_csr()
    }

    fn setup(a: &Csr) -> (TiledMatrix, SharedTiles, MultiCoster, Vec<f64>) {
        let m = TiledMatrix::from_csr_with(a, 16, &ClassifyOptions::default());
        let shared = SharedTiles::load(&m);
        let mc = MultiCoster::new(CostModel::new(DeviceSpec::a100()), a.nrows);
        let mut b = vec![0.0; a.nrows];
        a.matvec(&vec![1.0; a.ncols], &mut b);
        (m, shared, mc, b)
    }

    #[test]
    fn pcg_converges_much_faster_than_cg() {
        let a = poisson1d(400);
        let ilu = ilu0(&a).unwrap();
        let cfg = SolverConfig::default();
        let (m, mut shared, mc, b) = setup(&a);
        let res = run_pcg(
            &m,
            &mut shared,
            Precond::Ilu0(&ilu),
            &b,
            &cfg,
            &mc,
            &mut SolverWorkspace::new(),
        );
        assert!(res.converged, "relres {}", res.final_relres);
        // ILU(0) of a tridiagonal is exact -> 1-2 iterations.
        assert!(res.iterations <= 3, "{} iterations", res.iterations);
        for v in &res.x {
            assert!((v - 1.0).abs() < 1e-7);
        }
    }

    #[test]
    fn pcg_timeline_includes_factorize_and_sptrsv() {
        let a = poisson1d(200);
        let ilu = ilu0(&a).unwrap();
        let cfg = SolverConfig::default();
        let (m, mut shared, mc, b) = setup(&a);
        let res = run_pcg(
            &m,
            &mut shared,
            Precond::Ilu0(&ilu),
            &b,
            &cfg,
            &mc,
            &mut SolverWorkspace::new(),
        );
        assert!(res.timeline.get(Phase::Factorize) > 0.0);
        assert!(res.timeline.get(Phase::SpTrsv) > 0.0);
        assert!(res.timeline.get(Phase::Sync) > 0.0);
    }

    #[test]
    fn pbicgstab_converges_on_nonsymmetric() {
        let a = nonsym1d(300);
        let ilu = ilu0(&a).unwrap();
        let cfg = SolverConfig::default();
        let (m, mut shared, mc, b) = setup(&a);
        let res = run_pbicgstab(
            &m,
            &mut shared,
            Precond::Ilu0(&ilu),
            &b,
            &cfg,
            &mc,
            &mut SolverWorkspace::new(),
        );
        assert!(res.converged, "relres {}", res.final_relres);
        assert!(res.iterations <= 3, "{} iterations", res.iterations);
        for v in &res.x {
            assert!((v - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn fixed_iterations_respected() {
        let a = nonsym1d(64);
        let ilu = ilu0(&a).unwrap();
        let cfg = SolverConfig {
            fixed_iterations: Some(10),
            ..SolverConfig::default()
        };
        let (m, mut shared, mc, b) = setup(&a);
        let res = run_pbicgstab(
            &m,
            &mut shared,
            Precond::Ilu0(&ilu),
            &b,
            &cfg,
            &mc,
            &mut SolverWorkspace::new(),
        );
        assert_eq!(res.iterations, 10);
    }

    #[test]
    fn pcg_ic_converges_on_spd() {
        let a = poisson1d(300);
        let ic = mf_kernels::Ic0::new(&a).unwrap();
        let cfg = SolverConfig::default();
        let (m, mut shared, mc, b) = setup(&a);
        let res = run_pcg(
            &m,
            &mut shared,
            Precond::Ic0(&ic),
            &b,
            &cfg,
            &mc,
            &mut SolverWorkspace::new(),
        );
        assert!(res.converged, "relres {}", res.final_relres);
        // IC(0) of a tridiagonal is exact Cholesky -> 1-2 iterations.
        assert!(res.iterations <= 3, "{}", res.iterations);
        for v in &res.x {
            assert!((v - 1.0).abs() < 1e-7);
        }
    }

    #[test]
    fn zero_rhs_short_circuits() {
        let a = poisson1d(32);
        let ilu = ilu0(&a).unwrap();
        let cfg = SolverConfig::default();
        let (m, mut shared, mc, _) = setup(&a);
        let res = run_pcg(
            &m,
            &mut shared,
            Precond::Ilu0(&ilu),
            &vec![0.0; 32],
            &cfg,
            &mc,
            &mut SolverWorkspace::new(),
        );
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
    }
}
