//! FP64 CSR multi-kernel solves — the algorithms the baseline libraries
//! execute, with each library's overhead profile charged per kernel call.

use crate::profile::Baseline;
use mf_gpu::{Phase, Timeline};
use mf_kernels::{blas1, level_schedule, spmv_csr, Ilu0};
use mf_solver::SolverConfig;
use mf_sparse::Csr;

/// Result of a baseline solve.
#[derive(Clone, Debug)]
pub struct BaselineReport {
    /// Solution iterate.
    pub x: Vec<f64>,
    /// Iterations executed.
    pub iterations: usize,
    /// Converged by the relative-residual criterion.
    pub converged: bool,
    /// Final relative residual.
    pub final_relres: f64,
    /// Modeled time ledger.
    pub timeline: Timeline,
    /// Per-iteration relative residuals (when traced).
    pub residual_history: Vec<f64>,
    /// Per-iteration relative error vs. the configured reference.
    pub error_history: Vec<f64>,
}

impl BaselineReport {
    /// Modeled solve time (µs), excluding factorization.
    pub fn solve_us(&self) -> f64 {
        self.timeline.solve_us()
    }

    /// Modeled total time (µs).
    pub fn total_us(&self) -> f64 {
        self.timeline.total_us()
    }
}

struct Charges<'a> {
    b: &'a Baseline,
    tl: Timeline,
}

impl<'a> Charges<'a> {
    fn new(b: &'a Baseline) -> Self {
        Charges {
            b,
            tl: Timeline::new(),
        }
    }

    fn spmv(&mut self, nnz: usize, nrows: usize) {
        let body = self.b.cost().spmv_csr_us(nnz, nrows);
        self.tl.add(Phase::Spmv, self.b.body(body));
        self.tl.add(Phase::Sync, self.b.launch_us());
    }

    fn dot(&mut self, n: usize, to_host: bool) {
        let body = self.b.cost().dot_us(n);
        self.tl.add(Phase::Dot, self.b.body(body));
        self.tl.add(Phase::Sync, self.b.launch_us());
        if to_host {
            self.tl.add(Phase::Transfer, self.b.cost().d2h_us());
        }
    }

    fn axpy(&mut self, n: usize) {
        let body = self.b.cost().axpy_us(n);
        self.tl.add(Phase::Axpy, self.b.body(body));
        self.tl.add(Phase::Sync, self.b.launch_us());
    }

    fn sptrsv(&mut self, nnz: usize, n: usize, levels: usize) {
        let body = self.b.cost().sptrsv_us(nnz, n, levels);
        self.tl.add(Phase::SpTrsv, self.b.sptrsv_body(body));
        self.tl.add(Phase::Sync, self.b.launch_us());
    }

    fn host(&mut self) {
        self.tl.add(Phase::Sync, self.b.profile.host_per_iter_us);
    }
}

fn report(
    x: Vec<f64>,
    iterations: usize,
    converged: bool,
    final_relres: f64,
    tl: Timeline,
    hist: History,
) -> BaselineReport {
    BaselineReport {
        x,
        iterations,
        converged,
        final_relres,
        timeline: tl,
        residual_history: hist.residual,
        error_history: hist.error,
    }
}

/// A loop's per-iteration histories, one entry per iteration, restarts
/// included.
#[derive(Default)]
struct History {
    residual: Vec<f64>,
    error: Vec<f64>,
}

impl History {
    /// Records `relres` under `trace_residuals` and, on an unpreconditioned
    /// run with a reference solution, the error of `x`.
    fn push(&mut self, cfg: &SolverConfig, preconditioned: bool, relres: f64, x: &[f64]) {
        if cfg.trace_residuals {
            self.residual.push(relres);
        }
        if let Some(reference) = cfg.reference_solution.as_ref() {
            if !preconditioned {
                self.error.push(rel_error(x, reference));
            }
        }
    }
}

fn rel_error(x: &[f64], reference: &[f64]) -> f64 {
    let mut diff = 0.0;
    let mut norm = 0.0;
    for (a, b) in x.iter().zip(reference) {
        diff += (a - b) * (a - b);
        norm += b * b;
    }
    (diff / norm.max(f64::MIN_POSITIVE)).sqrt()
}

/// ILU(0) factors bound to one solve: the level counts their
/// level-scheduled SpTRSV (how `cusparseSpSV_solve` executes) is charged
/// by, and the forward-solve scratch.
struct Factors<'a> {
    ilu: &'a Ilu0,
    l_levels: usize,
    u_levels: usize,
    scratch: Vec<f64>,
}

impl<'a> Factors<'a> {
    /// Analyses `ilu` and charges its factorization to `ch`.
    fn new(ilu: &'a Ilu0, ch: &mut Charges<'_>, n: usize) -> Self {
        let l_levels = level_schedule(&ilu.l, true).num_levels.max(1);
        let u_levels = level_schedule(&ilu.u, false).num_levels.max(1);
        ch.tl.add(
            Phase::Factorize,
            2.0 * ch.b.cost().sptrsv_us(ilu.nnz(), n, l_levels + u_levels),
        );
        Factors {
            ilu,
            l_levels,
            u_levels,
            scratch: vec![0.0; n],
        }
    }

    /// `dst = M⁻¹·src`, charged as the two triangular sweeps.
    fn apply(&mut self, ch: &mut Charges<'_>, src: &[f64], dst: &mut [f64]) {
        self.ilu.apply_into(src, &mut self.scratch, dst);
        let n = dst.len();
        ch.sptrsv(self.ilu.l.nnz(), n, self.l_levels);
        ch.sptrsv(self.ilu.u.nnz(), n, self.u_levels);
    }
}

/// The vector a loop reads where its preconditioned recurrence reads
/// `M⁻¹v`: `mv` under a preconditioner, `v` itself without one.
fn applied<'v>(pc: &Option<Factors<'_>>, v: &'v [f64], mv: &'v [f64]) -> &'v [f64] {
    if pc.is_some() {
        mv
    } else {
        v
    }
}

/// The BiCGSTAB restart: `p = r` and `ρ = (r, r₀*)`, falling back to
/// `‖r‖²` when that vanishes.
fn restart_direction(r: &[f64], r0s: &[f64], p: &mut [f64]) -> f64 {
    p.copy_from_slice(r);
    let rho = blas1::dot(r, r0s);
    if rho == 0.0 {
        blas1::dot(r, r)
    } else {
        rho
    }
}

impl Baseline {
    /// FP64 CSR CG through this library (Algorithm 1, one kernel per op).
    pub fn solve_cg(&self, a: &Csr, b: &[f64], cfg: &SolverConfig) -> BaselineReport {
        self.cg(a, b, cfg, None)
    }

    /// FP64 CSR BiCGSTAB through this library (Algorithm 2).
    pub fn solve_bicgstab(&self, a: &Csr, b: &[f64], cfg: &SolverConfig) -> BaselineReport {
        self.bicgstab(a, b, cfg, None)
    }

    /// FP64 PCG with ILU(0) factors `ilu` and *level-scheduled* SpTRSV
    /// (how `cusparseSpSV_solve` executes).
    pub fn solve_pcg_with(
        &self,
        a: &Csr,
        b: &[f64],
        cfg: &SolverConfig,
        ilu: &Ilu0,
    ) -> BaselineReport {
        self.cg(a, b, cfg, Some(ilu))
    }

    /// FP64 PBiCGSTAB with ILU(0) factors `ilu` and level-scheduled
    /// SpTRSV.
    pub fn solve_pbicgstab_with(
        &self,
        a: &Csr,
        b: &[f64],
        cfg: &SolverConfig,
        ilu: &Ilu0,
    ) -> BaselineReport {
        self.bicgstab(a, b, cfg, Some(ilu))
    }

    /// The CG family's one loop: PCG with `M⁻¹` from `ilu`, plain CG
    /// without it, which reads `r` where PCG reads `z = M⁻¹r`. A curvature
    /// breakdown restarts the direction from `z` and charges the skipped
    /// kernels (PCG's restart adds its second dot); only in convergence
    /// mode does PCG stop there instead. Only CG records the error
    /// history.
    fn cg(&self, a: &Csr, b: &[f64], cfg: &SolverConfig, ilu: Option<&Ilu0>) -> BaselineReport {
        let n = a.nrows;
        assert_eq!(b.len(), n);
        let mut ch = Charges::new(self);
        let mut pc = ilu.map(|ilu| Factors::new(ilu, &mut ch, n));

        let norm_b = blas1::norm2(b);
        if norm_b == 0.0 {
            return report(vec![0.0; n], 0, true, 0.0, ch.tl, History::default());
        }
        let mut x = vec![0.0; n];
        let mut r = b.to_vec();
        let mut z = vec![0.0; n];
        if let Some(pc) = &mut pc {
            pc.apply(&mut ch, &r, &mut z);
        }
        let mut p = applied(&pc, &r, &z).to_vec();
        let mut u = vec![0.0; n];
        let mut rz = blas1::dot(&r, applied(&pc, &r, &z));
        if pc.is_some() {
            ch.dot(n, true);
        }
        let mut hist = History::default();

        let iters = cfg.fixed_iterations.unwrap_or(cfg.max_iter);
        let check = cfg.fixed_iterations.is_none();
        let mut iterations = 0;
        let mut converged = false;
        let mut relres = f64::INFINITY;

        for _ in 0..iters {
            spmv_csr(a, &p, &mut u);
            ch.spmv(a.nnz(), n);
            let pu = blas1::dot(&p, &u);
            ch.dot(n, true);
            let alpha = rz / pu;
            if !alpha.is_finite() || pu <= 0.0 {
                if pc.is_some() && check {
                    break;
                }
                // Breakdown restart — the kernels still run, charge fully.
                // `r` is untouched, so the residual is the current one.
                p.copy_from_slice(applied(&pc, &r, &z));
                rz = blas1::dot(&r, applied(&pc, &r, &z));
                ch.axpy(n);
                ch.axpy(n);
                ch.dot(n, true);
                if pc.is_some() {
                    ch.dot(n, true);
                }
                ch.axpy(n);
                ch.host();
                iterations += 1;
                hist.push(cfg, pc.is_some(), relres, &x);
                continue;
            }
            blas1::axpy(alpha, &p, &mut x);
            ch.axpy(n);
            blas1::axpy(-alpha, &u, &mut r);
            ch.axpy(n);
            let rr = blas1::dot(&r, &r);
            ch.dot(n, true);
            let rz_new = match &mut pc {
                Some(pc) => {
                    pc.apply(&mut ch, &r, &mut z);
                    let rz_new = blas1::dot(&r, &z);
                    ch.dot(n, true);
                    rz_new
                }
                None => rr,
            };
            let beta = rz_new / rz;
            rz = rz_new;
            blas1::xpay(applied(&pc, &r, &z), beta, &mut p);
            ch.axpy(n);
            ch.host();

            iterations += 1;
            relres = rr.sqrt() / norm_b;
            hist.push(cfg, pc.is_some(), relres, &x);
            if check && relres < cfg.tolerance {
                converged = true;
                break;
            }
            if pc.is_some() && !beta.is_finite() {
                break;
            }
        }
        report(x, iterations, converged, relres, ch.tl, hist)
    }

    /// The BiCGSTAB family's one loop: right-preconditioned PBiCGSTAB with
    /// `M⁻¹` from `ilu`, plain BiCGSTAB without it, which reads `p` and
    /// `s` where PBiCGSTAB reads `p̂ = M⁻¹p` and `ŝ = M⁻¹s`. Beyond that
    /// only BiCGSTAB charges the kernels an α restart skips and records
    /// the error history.
    fn bicgstab(
        &self,
        a: &Csr,
        b: &[f64],
        cfg: &SolverConfig,
        ilu: Option<&Ilu0>,
    ) -> BaselineReport {
        let n = a.nrows;
        assert_eq!(b.len(), n);
        let mut ch = Charges::new(self);
        let mut pc = ilu.map(|ilu| Factors::new(ilu, &mut ch, n));

        let norm_b = blas1::norm2(b);
        if norm_b == 0.0 {
            return report(vec![0.0; n], 0, true, 0.0, ch.tl, History::default());
        }
        let mut x = vec![0.0; n];
        let mut r = b.to_vec();
        let r0s = r.clone();
        let mut p = r.clone();
        let mut v = vec![0.0; n];
        let mut s = vec![0.0; n];
        let mut t = vec![0.0; n];
        let mut phat = vec![0.0; n];
        let mut shat = vec![0.0; n];
        let mut rho = blas1::dot(&r, &r0s);
        let mut hist = History::default();

        let iters = cfg.fixed_iterations.unwrap_or(cfg.max_iter);
        let check = cfg.fixed_iterations.is_none();
        let mut iterations = 0;
        let mut converged = false;
        let mut relres = f64::INFINITY;

        for _ in 0..iters {
            if let Some(pc) = &mut pc {
                pc.apply(&mut ch, &p, &mut phat);
            }
            spmv_csr(a, applied(&pc, &p, &phat), &mut v);
            ch.spmv(a.nnz(), n);
            let denom = blas1::dot(&v, &r0s);
            ch.dot(n, true);
            let alpha = rho / denom;
            if !alpha.is_finite() || denom.abs() < f64::MIN_POSITIVE {
                rho = restart_direction(&r, &r0s, &mut p);
                if pc.is_none() {
                    // The kernels of the skipped steps still run, charge
                    // fully.
                    ch.axpy(n);
                    ch.spmv(a.nnz(), n);
                    ch.dot(n, false);
                    ch.dot(n, true);
                    ch.axpy(n);
                    ch.axpy(n);
                    ch.axpy(n);
                    ch.dot(n, false);
                    ch.dot(n, true);
                    ch.axpy(n);
                    ch.host();
                }
                iterations += 1;
                hist.push(cfg, pc.is_some(), relres, &x);
                continue;
            }
            blas1::waxpy(&r, -alpha, &v, &mut s);
            ch.axpy(n);
            if let Some(pc) = &mut pc {
                pc.apply(&mut ch, &s, &mut shat);
            }
            spmv_csr(a, applied(&pc, &s, &shat), &mut t);
            ch.spmv(a.nnz(), n);
            let ts = blas1::dot(&t, &s);
            let tt = blas1::dot(&t, &t);
            ch.dot(n, false);
            ch.dot(n, true); // (t,s) and (t,t) ride one scalar-pair readback
            let omega = if tt > 0.0 { ts / tt } else { 0.0 };
            let (ph, sh) = (applied(&pc, &p, &phat), applied(&pc, &s, &shat));
            for i in 0..n {
                x[i] += alpha * ph[i] + omega * sh[i];
            }
            ch.axpy(n);
            ch.axpy(n);
            blas1::waxpy(&s, -omega, &t, &mut r);
            ch.axpy(n);
            let rho_new = blas1::dot(&r, &r0s);
            ch.dot(n, false);
            let rr = blas1::dot(&r, &r);
            ch.dot(n, true); // ρ and ‖r‖² ride one readback
            ch.host();

            iterations += 1;
            relres = rr.sqrt() / norm_b;
            hist.push(cfg, pc.is_some(), relres, &x);
            if check && relres < cfg.tolerance {
                converged = true;
                break;
            }
            let beta = (rho_new / rho) * (alpha / omega);
            if !beta.is_finite() || omega == 0.0 || rho_new.abs() < f64::MIN_POSITIVE {
                rho = restart_direction(&r, &r0s, &mut p);
                ch.axpy(n); // the p-update kernel still runs
                continue;
            }
            rho = rho_new;
            blas1::bicgstab_p_update(&r, beta, omega, &v, &mut p);
            ch.axpy(n);
        }
        report(x, iterations, converged, relres, ch.tl, hist)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_sparse::Coo;

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
                a.push(i, i - 1, -1.5);
            }
            if i + 1 < n {
                a.push(i, i + 1, -0.5);
            }
        }
        a.to_csr()
    }

    fn rhs(a: &Csr) -> Vec<f64> {
        let mut b = vec![0.0; a.nrows];
        a.matvec(&vec![1.0; a.ncols], &mut b);
        b
    }

    #[test]
    fn all_baselines_solve_cg() {
        let a = poisson1d(200);
        let b = rhs(&a);
        let cfg = SolverConfig::default();
        for base in [
            Baseline::cusparse(),
            Baseline::hipsparse(),
            Baseline::petsc(),
            Baseline::ginkgo(),
        ] {
            let rep = base.solve_cg(&a, &b, &cfg);
            assert!(rep.converged, "{}", base.profile.name);
            for v in &rep.x {
                assert!((v - 1.0).abs() < 1e-7);
            }
        }
    }

    #[test]
    fn baselines_take_identical_iterations() {
        // Same FP64 numerics -> identical iteration counts; only time differs.
        let a = poisson1d(300);
        let b = rhs(&a);
        let cfg = SolverConfig::default();
        let cu = Baseline::cusparse().solve_cg(&a, &b, &cfg);
        let pe = Baseline::petsc().solve_cg(&a, &b, &cfg);
        let gk = Baseline::ginkgo().solve_cg(&a, &b, &cfg);
        assert_eq!(cu.iterations, pe.iterations);
        assert_eq!(cu.iterations, gk.iterations);
        assert!(pe.solve_us() > gk.solve_us());
        assert!(gk.solve_us() > cu.solve_us());
    }

    #[test]
    fn bicgstab_baseline_converges() {
        let a = nonsym1d(200);
        let b = rhs(&a);
        let rep = Baseline::cusparse().solve_bicgstab(&a, &b, &SolverConfig::default());
        assert!(rep.converged);
        for v in &rep.x {
            assert!((v - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn preconditioned_baselines_converge() {
        let a = poisson1d(256);
        let b = rhs(&a);
        let cfg = SolverConfig::default();
        let ilu = mf_kernels::ilu0(&a).unwrap();
        let rep = Baseline::cusparse().solve_pcg_with(&a, &b, &cfg, &ilu);
        assert!(rep.converged);
        assert!(rep.iterations <= 3); // exact ILU for tridiagonal
        assert!(rep.timeline.get(Phase::SpTrsv) > 0.0);

        let an = nonsym1d(256);
        let bn = rhs(&an);
        let ilun = mf_kernels::ilu0(&an).unwrap();
        let rep2 = Baseline::cusparse().solve_pbicgstab_with(&an, &bn, &cfg, &ilun);
        assert!(rep2.converged);
    }

    #[test]
    fn fixed_iterations_and_sync_share() {
        let a = poisson1d(64);
        let b = rhs(&a);
        let cfg = SolverConfig::benchmark_100_iters();
        let rep = Baseline::cusparse().solve_cg(&a, &b, &cfg);
        assert_eq!(rep.iterations, 100);
        // Fig. 2: small matrices are sync-dominated in the baseline.
        assert!(
            rep.timeline.sync_fraction() > 0.5,
            "sync fraction {}",
            rep.timeline.sync_fraction()
        );
    }

    #[test]
    fn zero_rhs_short_circuits() {
        let a = poisson1d(16);
        let rep = Baseline::ginkgo().solve_cg(&a, &[0.0; 16], &SolverConfig::default());
        assert!(rep.converged);
        assert_eq!(rep.iterations, 0);
    }
}
