//! The baseline libraries' solves: Mille-feuille's own CG and BiCGSTAB
//! cores (Algorithms 1–2) on FP64 CSR, one kernel per operation, charged
//! as each library runs its kernels.

use crate::profile::Baseline;
use mf_gpu::CostModel;
use mf_kernels::{Ilu0, SharedTiles};
use mf_precision::Precision;
use mf_solver::coster::{Coster, MultiCoster};
use mf_solver::partial::PartialState;
use mf_solver::{bicgstab, cg, Precond, SolveReport, SolverConfig, SolverWorkspace};
use mf_sparse::{Csr, TiledMatrix};

impl Baseline {
    /// FP64 CSR CG through this library (Algorithm 1, one kernel per op).
    pub fn solve_cg(&self, a: &Csr, b: &[f64], cfg: &SolverConfig) -> SolveReport {
        self.solve(cg::run_cg, a, b, cfg, None)
    }

    /// FP64 CSR BiCGSTAB through this library (Algorithm 2).
    pub fn solve_bicgstab(&self, a: &Csr, b: &[f64], cfg: &SolverConfig) -> SolveReport {
        self.solve(bicgstab::run_bicgstab, a, b, cfg, None)
    }

    /// FP64 PCG with ILU(0) factors `ilu` and *level-scheduled* SpTRSV
    /// (how `cusparseSpSV_solve` executes).
    pub fn solve_pcg_with(
        &self,
        a: &Csr,
        b: &[f64],
        cfg: &SolverConfig,
        ilu: &Ilu0,
    ) -> SolveReport {
        self.solve(cg::run_cg, a, b, cfg, Some(ilu))
    }

    /// FP64 PBiCGSTAB with ILU(0) factors `ilu` and level-scheduled
    /// SpTRSV.
    pub fn solve_pbicgstab_with(
        &self,
        a: &Csr,
        b: &[f64],
        cfg: &SolverConfig,
        ilu: &Ilu0,
    ) -> SolveReport {
        self.solve(bicgstab::run_bicgstab, a, b, cfg, Some(ilu))
    }

    /// Runs `core` on `a` loaded as uniform-FP64 tiles whose resident copy
    /// sums each row as one run, so every SpMV is bitwise `spmv_csr` of a
    /// column-sorted `a`, with the dynamic strategies off, charged by a
    /// multi-kernel coster priced by this library's profile.
    fn solve(
        &self,
        core: Core,
        a: &Csr,
        b: &[f64],
        cfg: &SolverConfig,
        ilu: Option<&Ilu0>,
    ) -> SolveReport {
        let m = TiledMatrix::from_csr_uniform(a, cfg.tile_size, Precision::Fp64);
        let mut shared = SharedTiles::load(&m).csr_order();
        let cost = CostModel::new(self.device.clone());
        let coster = Coster::Multi(MultiCoster::new(cost, a.nrows).priced_by(self.profile.clone()));
        let mut partial = PartialState::new(false, m.tile_cols, cfg.tile_size, 1.0);
        let cfg = SolverConfig {
            adaptive: None,
            ..cfg.clone()
        };
        let pc = ilu.map(Precond::Ilu0);
        let mut ws = SolverWorkspace::new();
        core(&m, &mut shared, pc, b, &cfg, &coster, &mut partial, &mut ws)
    }
}

/// The shared signature of [`cg::run_cg`] and [`bicgstab::run_bicgstab`].
type Core = fn(
    &TiledMatrix,
    &mut SharedTiles,
    Option<Precond<'_>>,
    &[f64],
    &SolverConfig,
    &Coster,
    &mut PartialState,
    &mut SolverWorkspace,
) -> SolveReport;

#[cfg(test)]
mod tests {
    use super::*;
    use mf_gpu::Phase;
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
