//! # mf-baselines
//!
//! The four systems the paper compares against (§IV-A, Table I):
//!
//! 1. **cuSPARSE/cuBLAS v12.0** on the A100 — `Baseline::cusparse()`
//! 2. **hipSPARSE/hipBLAS v2.3.8** on the MI210 — `Baseline::hipsparse()`
//! 3. **PETSc v3.20** (`KSPSolve`) on the A100 — `Baseline::petsc()`
//! 4. **Ginkgo v1.7.0** (`gko::solver::Cg/Bicgstab`) on the A100 —
//!    `Baseline::ginkgo()`
//!
//! All four run Mille-feuille's own CG and BiCGSTAB cores (Algorithms 1–2,
//! `mf_solver::cg::run_cg` and `mf_solver::bicgstab::run_bicgstab`) on
//! FP64 CSR with one kernel per operation, so the kernel sequence is
//! shared by construction; they differ in their *overhead profile*
//! (`BaselineProfile`, which prices a `MultiCoster`): how much
//! launch/synchronization and host-side orchestration each iteration
//! pays. The profiles are calibrated so the relative
//! ordering and rough magnitudes match the paper's Figs. 8–9 (see
//! EXPERIMENTS.md): vendor libraries are the leanest; Ginkgo adds device-
//! resident but still multi-kernel orchestration; PETSc's `KSPSolve` adds
//! the heaviest per-iteration host logic (extra norms, convergence
//! monitors, PetscObject overhead).
//!
//! Numerics are exact FP64 — iteration counts from these baselines are the
//! "With cuSPARSE" columns of Table II.

pub mod profile;
pub mod solve;

pub use profile::{Baseline, BaselineProfile};
