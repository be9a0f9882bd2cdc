//! Preconditioned CG and BiCGSTAB (paper §III-C last paragraph,
//! evaluated in §IV-C / Fig. 10).
//!
//! The paper applies preconditioning in its *multi-kernel* method ("We
//! apply the recursive block SpTRSV algorithm \[41\] to our multi-kernel
//! method"), so the preconditioned cores charge through a
//! [`MultiCoster`]; the
//! Mille-feuille advantage comes from (a) the tiled mixed-precision SpMV
//! and (b) the recursive-block SpTRSV, whose square sub-blocks run as
//! parallel SpMVs instead of serialized dependency levels. That schedule
//! lives in the cost model only: `Bound::new` derives its
//! [`RecursiveTrsvStats`] from the factor structure once per solve, and
//! every application solves by plain substitution (`Ilu0::apply_into`,
//! `Ic0::apply_into`), the order the threaded engines run too.
//!
//! The preconditioner is one pluggable `M⁻¹`, a [`Precond`], inside a
//! single recurrence per Krylov family: [`crate::cg::run_cg`] and
//! [`crate::bicgstab::run_bicgstab`] take `Option<Precond>` and run the
//! unpreconditioned method as the preconditioned body with `M⁻¹` skipped,
//! and [`crate::pipelined::run_cg_pipelined`] applies it the same way.
//! ILU(0), IC(0) and block-Jacobi differ only in what `Bound` holds.
//! The facade runs the preconditioned cores with the partial-convergence
//! strategy off, so their SpMVs see all-`Keep` flags: the strategy needs
//! the single kernel's persistent on-chip tile copy (§III-D).

use crate::config::SolverConfig;
use crate::coster::MultiCoster;
use mf_gpu::{Phase, Timeline};
use mf_kernels::{level_schedule, BlockJacobi, Ic0, Ilu0, RecursiveTrsvStats};
use mf_sparse::Csr;

/// The preconditioner `M⁻¹` a preconditioned core applies. The variants
/// differ in three things only — the factorization charge, the SpTRSV
/// level count and apply-plus-charge — and the core loops are shared. A
/// coster priced by a library profile charges a triangular pair as that
/// library's level-scheduled sweeps instead
/// ([`MultiCoster::sptrsv_pair`]).
#[derive(Clone, Copy, Debug)]
pub enum Precond<'a> {
    /// `M = L·U` from ILU(0) (the paper's preconditioner), applied by
    /// plain substitution and charged as the recursive-block SpTRSV.
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

/// The triangular pair `lower`, `upper`: each factor's nonzeros and
/// dependency-level count, and the recursive-block statistics of one
/// application.
fn trsv_pair(lower: &Csr, upper: &Csr, leaf: usize) -> ([(usize, usize); 2], RecursiveTrsvStats) {
    let (l, u) = (
        RecursiveTrsvStats::of(lower, true, leaf),
        RecursiveTrsvStats::of(upper, false, leaf),
    );
    let factors = [
        (lower.nnz(), level_schedule(lower, true).num_levels),
        (upper.nnz(), level_schedule(upper, false).num_levels),
    ];
    let stats = RecursiveTrsvStats {
        leaves: l.leaves + u.leaves,
        max_leaf_rows: l.max_leaf_rows.max(u.max_leaf_rows),
        spmv_nnz: l.spmv_nnz + u.spmv_nnz,
        trsv_nnz: l.trsv_nnz + u.trsv_nnz,
        depth: l.depth.max(u.depth),
    };
    (factors, stats)
}

/// A [`Precond`] bound to one solve: the coster it charges and, for a
/// triangular pair, each factor's nonzeros and level count and the
/// recursive-block statistics every application is charged by.
pub(crate) struct Bound<'a> {
    pc: Precond<'a>,
    mc: &'a MultiCoster,
    factors: [(usize, usize); 2],
    stats: RecursiveTrsvStats,
}

impl<'a> Bound<'a> {
    /// Charges the factorization to `tl` and analyses the factor pair
    /// once: preprocessing decides the SpTRSV algorithm it is charged as,
    /// recursive-block (leaves of `cfg.trsv_leaf` rows) vs level-scheduled
    /// (see [`MultiCoster::sptrsv_pair`]).
    pub(crate) fn new(
        pc: Precond<'a>,
        mc: &'a MultiCoster,
        cfg: &SolverConfig,
        tl: &mut Timeline,
        n: usize,
    ) -> Bound<'a> {
        let (factors, stats) = match pc {
            Precond::Ilu0(ilu) => trsv_pair(&ilu.l, &ilu.u, cfg.trsv_leaf),
            Precond::Ic0(ic) => trsv_pair(&ic.l, &ic.lt, cfg.trsv_leaf),
            Precond::BlockJacobi(_) => Default::default(),
        };
        let levels = factors.map(|(_, levels)| levels);
        match pc {
            Precond::Ilu0(ilu) => mc.factorization(tl, ilu.nnz(), levels),
            Precond::Ic0(ic) => mc.factorization(tl, ic.l.nnz(), levels),
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
            }
        }
        Bound {
            pc,
            mc,
            factors,
            stats,
        }
    }

    /// `dst = M⁻¹·src`, charged to `tl`; `scratch` holds the triangular
    /// pair's intermediate.
    pub(crate) fn apply(
        &self,
        tl: &mut Timeline,
        src: &[f64],
        scratch: &mut [f64],
        dst: &mut [f64],
    ) {
        match self.pc {
            Precond::Ilu0(ilu) => ilu.apply_into(src, scratch, dst),
            Precond::Ic0(ic) => ic.apply_into(src, scratch, dst),
            Precond::BlockJacobi(bj) => bj.apply_into(src, dst),
        }
        self.charge(tl);
    }

    /// Charges one application, as a breakdown path does for the
    /// application its skipped steps stand for.
    pub(crate) fn charge(&self, tl: &mut Timeline) {
        match self.pc {
            Precond::BlockJacobi(bj) => self.mc.block_jacobi(tl, bj),
            _ => self.mc.sptrsv_pair(tl, &self.stats, self.factors),
        }
    }
}

/// The vector a core reads where its preconditioned recurrence reads
/// `M⁻¹v`: `mv`, which holds `M⁻¹v`, under a preconditioner, and `v`
/// itself without one. CG and BiCGSTAB run inside the PCG and PBiCGSTAB
/// bodies through it without copying `v` into `mv`.
pub(crate) fn applied<'v>(pc: &Option<Bound<'_>>, v: &'v [f64], mv: &'v [f64]) -> &'v [f64] {
    if pc.is_some() {
        mv
    } else {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bicgstab::run_bicgstab;
    use crate::cg::run_cg;
    use crate::coster::Coster;
    use crate::partial::PartialState;
    use crate::workspace::SolverWorkspace;
    use mf_gpu::{CostModel, DeviceSpec};
    use mf_kernels::{ilu0, SharedTiles};
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

    fn setup(a: &Csr) -> (TiledMatrix, SharedTiles, Coster, PartialState, Vec<f64>) {
        let m = TiledMatrix::from_csr_with(a, 16, &ClassifyOptions::default());
        let shared = SharedTiles::load(&m);
        let mc = Coster::Multi(MultiCoster::new(
            CostModel::new(DeviceSpec::a100()),
            a.nrows,
        ));
        let partial = PartialState::new(false, m.tile_cols, 16, 1.0);
        let mut b = vec![0.0; a.nrows];
        a.matvec(&vec![1.0; a.ncols], &mut b);
        (m, shared, mc, partial, b)
    }

    #[test]
    fn pcg_converges_much_faster_than_cg() {
        let a = poisson1d(400);
        let ilu = ilu0(&a).unwrap();
        let cfg = SolverConfig::default();
        let (m, mut shared, mc, mut partial, b) = setup(&a);
        let res = run_cg(
            &m,
            &mut shared,
            Some(Precond::Ilu0(&ilu)),
            &b,
            &cfg,
            &mc,
            &mut partial,
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
        let (m, mut shared, mc, mut partial, b) = setup(&a);
        let res = run_cg(
            &m,
            &mut shared,
            Some(Precond::Ilu0(&ilu)),
            &b,
            &cfg,
            &mc,
            &mut partial,
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
        let (m, mut shared, mc, mut partial, b) = setup(&a);
        let res = run_bicgstab(
            &m,
            &mut shared,
            Some(Precond::Ilu0(&ilu)),
            &b,
            &cfg,
            &mc,
            &mut partial,
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
        let (m, mut shared, mc, mut partial, b) = setup(&a);
        let res = run_bicgstab(
            &m,
            &mut shared,
            Some(Precond::Ilu0(&ilu)),
            &b,
            &cfg,
            &mc,
            &mut partial,
            &mut SolverWorkspace::new(),
        );
        assert_eq!(res.iterations, 10);
    }

    #[test]
    fn pcg_ic_converges_on_spd() {
        let a = poisson1d(300);
        let ic = mf_kernels::Ic0::new(&a).unwrap();
        let cfg = SolverConfig::default();
        let (m, mut shared, mc, mut partial, b) = setup(&a);
        let res = run_cg(
            &m,
            &mut shared,
            Some(Precond::Ic0(&ic)),
            &b,
            &cfg,
            &mc,
            &mut partial,
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
        let (m, mut shared, mc, mut partial, _) = setup(&a);
        let res = run_cg(
            &m,
            &mut shared,
            Some(Precond::Ilu0(&ilu)),
            &vec![0.0; 32],
            &cfg,
            &mc,
            &mut partial,
            &mut SolverWorkspace::new(),
        );
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
    }
}
