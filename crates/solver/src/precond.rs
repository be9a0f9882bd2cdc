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

use crate::bicgstab::{alpha_breakdown, restart_kind, restart_rho};
use crate::cg::{curvature_breakdown, keep_flags, mixed_spmv, Ledger};
use crate::config::SolverConfig;
use crate::coster::MultiCoster;
use crate::report::{converges, drive, Direction, ExecutedMode, Outcome, Slot, SolveReport};
use crate::workspace::SolverWorkspace;
use mf_gpu::{Phase, Timeline};
use mf_kernels::{blas1, level_schedule, BlockJacobi, Ic0, Ilu0, RecursiveTrsvStats, SharedTiles};
use mf_sparse::TiledMatrix;
use std::convert::Infallible;

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
) -> SolveReport {
    let n = m.nrows;
    assert_eq!(b.len(), n);

    let mut led = Ledger::new(cfg, false, ExecutedMode::MultiKernel, 0);
    let pc = Bound::new(pc, mc, cfg, &mut led.tl, n);

    let norm_b = blas1::norm2(b);
    if norm_b == 0.0 {
        return led.zero_rhs(n);
    }

    ws.ensure(n);
    let SolverWorkspace {
        x, r, z, p, u, y, ..
    } = ws;
    r.copy_from_slice(b);
    let threads = cfg.host_parallelism.threads_for(m.nnz());
    let keep = keep_flags(m.tile_cols);
    pc.apply(&mut led.tl, r, y, z);
    p.copy_from_slice(z);
    let mut rz = blas1::dot(r, z);
    mc.dot(&mut led.tl, true);

    // Adaptive re-tiering: same controller state machine as the CG core
    // (see `crate::adaptive`); the refresh re-derives z and rz through the
    // preconditioner because the recurrence tracks the old operator.
    let ctrl = cfg
        .adaptive
        .map(|ac| crate::adaptive::controller_for(m, ac));

    let mut out = Outcome::sequential(cfg.trace_residuals);
    let Ok(()) = drive::<Infallible>(
        &mut out,
        cfg.max_iter,
        cfg.fixed_iterations,
        cfg.tolerance,
        ctrl,
        || Ok(()),
        |_, refresh| {
            let tl = &mut led.tl;
            if let Some(d) = refresh {
                // ---- Adaptive re-tier epoch: re-tier the tiles, then
                // rebuild r = b − A·x, z = M⁻¹r, p = z and rz = (r,z) from
                // the re-tiered operator.
                shared.apply_retier(m, &d.actions);
                mc.retier(tl, crate::adaptive::touched_nnz(m, d));
                let rstats = mixed_spmv(m, shared, &keep, x, u, threads);
                led.spmv_stats.merge(&rstats);
                mc.spmv(tl, m, &rstats);
                for i in 0..n {
                    r[i] = b[i] - u[i];
                }
                mc.axpy(tl);
                pc.apply(tl, r, y, z);
                p.copy_from_slice(z);
                rz = blas1::dot(r, z);
                mc.dot(tl, true);
                return Ok(Slot::Refreshed);
            }

            let stats = mixed_spmv(m, shared, &keep, p, u, threads);
            led.spmv_stats.merge(&stats);
            mc.spmv(tl, m, &stats);

            let pu = blas1::dot(p, u);
            mc.dot(tl, true);
            let alpha = rz / pu;
            if let Some(kind) = curvature_breakdown(alpha, pu) {
                // Breakdown restart — the kernel sequence still runs, charge
                // it. A restart leaves x and r untouched, so repeating it is
                // a fixed point (see crate::cg) the driver aborts.
                p.copy_from_slice(z);
                rz = blas1::dot(r, z);
                mc.axpy(tl);
                mc.axpy(tl);
                mc.dot(tl, true);
                mc.dot(tl, true);
                mc.axpy(tl);
                return Ok(Slot::Restart {
                    kind,
                    finite: rz.is_finite(),
                    relres: None,
                });
            }

            blas1::axpy(alpha, p, x);
            blas1::axpy(-alpha, u, r);
            mc.axpy(tl);
            mc.axpy(tl);

            let rr = blas1::dot(r, r);
            mc.dot(tl, true);
            if !rr.is_finite() {
                // Poisoned residual: no restart can rebuild finite state
                // from it.
                return Ok(Slot::NonFinite);
            }

            pc.apply(tl, r, y, z);

            let rz_new = blas1::dot(r, z);
            mc.dot(tl, true);
            let beta = rz_new / rz;
            rz = rz_new;
            blas1::xpay(z, beta, p);
            mc.axpy(tl);
            // A non-finite β = (r,z)_new/(r,z): the preconditioned
            // correlation collapsed and the direction is lost.
            let direction = if beta.is_finite() {
                Direction::Kept
            } else {
                Direction::Lost
            };
            Ok(Slot::Done(rr.sqrt() / norm_b, direction))
        },
    );
    led.report(out, x)
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
) -> SolveReport {
    let n = m.nrows;
    assert_eq!(b.len(), n);

    let mut led = Ledger::new(cfg, false, ExecutedMode::MultiKernel, 0);
    let pc = Bound::new(pc, mc, cfg, &mut led.tl, n);

    let norm_b = blas1::norm2(b);
    if norm_b == 0.0 {
        return led.zero_rhs(n);
    }

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

    let mut out = Outcome::sequential(cfg.trace_residuals);
    let Ok(()) = drive::<Infallible>(
        &mut out,
        cfg.max_iter,
        cfg.fixed_iterations,
        cfg.tolerance,
        None,
        || Ok(()),
        |_, _| {
            let tl = &mut led.tl;
            // p̂ = M⁻¹ p ; v = A p̂.
            let st_p = pc.apply(tl, p, y, phat);
            let st1 = mixed_spmv(m, shared, &keep, phat, v, threads);
            led.spmv_stats.merge(&st1);
            mc.spmv(tl, m, &st1);

            let denom = blas1::dot(v, r0s);
            mc.dot(tl, true);
            let alpha = rho / denom;
            if let Some(kind) = alpha_breakdown(alpha, denom) {
                // Breakdown restart — charge the remaining pipeline. Same
                // fixed-point argument as the sequential BiCGSTAB core.
                p.copy_from_slice(r);
                rho = restart_rho(blas1::dot(r, r0s), || blas1::dot(r, r));
                mc.axpy(tl);
                pc.charge(tl, &st_p);
                mc.spmv(tl, m, &st1);
                mc.dot(tl, true);
                mc.dot(tl, true);
                mc.axpy(tl);
                mc.axpy(tl);
                mc.axpy(tl);
                mc.dot(tl, true);
                mc.dot(tl, true);
                mc.axpy(tl);
                return Ok(Slot::Restart {
                    kind,
                    finite: rho.is_finite(),
                    relres: None,
                });
            }

            blas1::waxpy(r, -alpha, v, s);
            mc.axpy(tl);

            // ŝ = M⁻¹ s ; t = A ŝ.
            pc.apply(tl, s, y, shat);
            let st2 = mixed_spmv(m, shared, &keep, shat, t, threads);
            led.spmv_stats.merge(&st2);
            mc.spmv(tl, m, &st2);

            let ts_dot = blas1::dot(t, s);
            let tt = blas1::dot(t, t);
            mc.dot(tl, false);
            mc.dot(tl, true); // scalar pair -> one readback
            let omega = if tt > 0.0 { ts_dot / tt } else { 0.0 };

            for i in 0..n {
                x[i] += alpha * phat[i] + omega * shat[i];
            }
            mc.axpy(tl);
            mc.axpy(tl);
            blas1::waxpy(s, -omega, t, r);
            mc.axpy(tl);

            let rho_new = blas1::dot(r, r0s);
            mc.dot(tl, false);
            let rr = blas1::dot(r, r);
            mc.dot(tl, true); // scalar pair -> one readback
            if !rr.is_finite() {
                return Ok(Slot::NonFinite);
            }

            let relres = rr.sqrt() / norm_b;
            if converges(relres, cfg.tolerance, cfg.fixed_iterations) {
                // The driver stops here: the direction update neither runs
                // nor charges.
                return Ok(Slot::Done(relres, Direction::Kept));
            }
            let beta = (rho_new / rho) * (alpha / omega);
            let direction = if let Some(kind) = restart_kind(beta, omega, rho_new) {
                p.copy_from_slice(r);
                rho = restart_rho(blas1::dot(r, r0s), || blas1::dot(r, r));
                Direction::Restarted(kind)
            } else {
                rho = rho_new;
                blas1::bicgstab_p_update(r, beta, omega, v, p);
                Direction::Kept
            };
            mc.axpy(tl); // the p-update kernel runs either way
            Ok(Slot::Done(relres, direction))
        },
    );
    led.report(out, x)
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
