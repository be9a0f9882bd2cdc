//! Baseline library profiles.

use mf_gpu::DeviceSpec;
pub use mf_solver::coster::BaselineProfile;

/// A baseline solver: a device model plus a library profile.
#[derive(Clone, Debug)]
pub struct Baseline {
    /// Library overheads.
    pub profile: BaselineProfile,
    /// Device the library runs on.
    pub device: DeviceSpec,
}

impl Baseline {
    /// cuSPARSE + cuBLAS v12.0 on the NVIDIA A100 (the paper's primary
    /// baseline: `cusparseSpMV`, `cublasDdot`, CSR storage).
    ///
    /// ```
    /// use mf_baselines::Baseline;
    /// use mf_solver::SolverConfig;
    /// use mf_sparse::Coo;
    ///
    /// let mut a = Coo::new(8, 8);
    /// for i in 0..8 {
    ///     a.push(i, i, 4.0);
    ///     if i > 0 { a.push(i, i - 1, -1.0); }
    ///     if i + 1 < 8 { a.push(i, i + 1, -1.0); }
    /// }
    /// let a = a.to_csr();
    /// let b = vec![1.0; 8];
    /// let rep = Baseline::cusparse().solve_cg(&a, &b, &SolverConfig::default());
    /// assert!(rep.converged);
    /// assert!(rep.timeline.sync_fraction() > 0.3); // Finding 2's premise
    /// ```
    pub fn cusparse() -> Baseline {
        Baseline {
            profile: BaselineProfile {
                name: "cuSPARSE",
                launch_factor: 1.0,
                host_per_iter_us: 0.0,
                kernel_efficiency: 0.92,
                sptrsv_efficiency: 0.45,
            },
            device: DeviceSpec::a100(),
        }
    }

    /// hipSPARSE + hipBLAS v2.3.8 on the AMD MI210.
    pub fn hipsparse() -> Baseline {
        Baseline {
            profile: BaselineProfile {
                name: "hipSPARSE",
                launch_factor: 1.0,
                host_per_iter_us: 0.0,
                kernel_efficiency: 0.88,
                sptrsv_efficiency: 0.42,
            },
            device: DeviceSpec::mi210(),
        }
    }

    /// PETSc v3.20 `KSPSolve` on the A100. Heaviest per-iteration host
    /// orchestration (the paper measures a 5.37×/3.57× geomean gap in
    /// CG/BiCGSTAB, driven by small- and mid-size matrices).
    pub fn petsc() -> Baseline {
        Baseline {
            profile: BaselineProfile {
                name: "PETSc",
                launch_factor: 1.35,
                host_per_iter_us: 24.0,
                kernel_efficiency: 0.90,
                sptrsv_efficiency: 0.45,
            },
            device: DeviceSpec::a100(),
        }
    }

    /// Ginkgo v1.7.0 on the A100. Device-resident solver, still
    /// multi-kernel; moderate orchestration overhead.
    pub fn ginkgo() -> Baseline {
        Baseline {
            profile: BaselineProfile {
                name: "Ginkgo",
                launch_factor: 1.25,
                host_per_iter_us: 11.0,
                kernel_efficiency: 0.93,
                sptrsv_efficiency: 0.50,
            },
            device: DeviceSpec::a100(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_ordering_matches_paper() {
        // Per-iteration fixed overhead of a CG iteration (6 kernels):
        // PETSc > Ginkgo > cuSPARSE, the ordering behind Figs. 8–9.
        let per_iter = |b: &Baseline| {
            6.0 * b.device.kernel_launch_us * b.profile.launch_factor + b.profile.host_per_iter_us
        };
        let cu = per_iter(&Baseline::cusparse());
        let gk = per_iter(&Baseline::ginkgo());
        let pe = per_iter(&Baseline::petsc());
        assert!(pe > gk && gk > cu, "petsc {pe}, ginkgo {gk}, cusparse {cu}");
    }

    #[test]
    fn vendors_sit_on_their_devices() {
        assert_eq!(Baseline::cusparse().device.vendor, mf_gpu::Vendor::Nvidia);
        assert_eq!(Baseline::hipsparse().device.vendor, mf_gpu::Vendor::Amd);
        assert_eq!(Baseline::petsc().device.vendor, mf_gpu::Vendor::Nvidia);
        assert_eq!(Baseline::ginkgo().device.vendor, mf_gpu::Vendor::Nvidia);
    }
}
