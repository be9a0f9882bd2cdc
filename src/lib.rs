//! # Mille-feuille
//!
//! A from-scratch Rust reproduction of *Mille-feuille: A Tile-Grained Mixed
//! Precision Single-Kernel Conjugate Gradient Solver on GPUs* (SC 2024).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`precision`] | software FP16/FP8, the "enough good" classifier, packed storage |
//! | [`sparse`] | COO/CSR/dense, the two-level tiled format, Matrix Market I/O |
//! | [`gpu`] | device models (A100/MI210), roofline cost model, warp scheduling, dependency arrays |
//! | [`kernels`] | SpMV (CSR/tiled/mixed), BLAS-1, SpTRSV, ILU(0)/IC(0) |
//! | [`solver`] | the Mille-feuille CG/BiCGSTAB/PCG/PBiCGSTAB solver |
//! | [`trace`] | deterministic event recorder: JSONL + Chrome `trace_event` exports |
//! | [`baselines`] | cuSPARSE/hipSPARSE/PETSc/Ginkgo-like comparison solvers |
//! | [`collection`] | synthetic SuiteSparse-style matrix collection |
//!
//! ## Quickstart
//!
//! ```
//! use mille_feuille::prelude::*;
//!
//! // A small SPD system (2-D Poisson), b = A·1.
//! let a = mille_feuille::collection::poisson2d(32, 32);
//! let mut b = vec![0.0; a.nrows];
//! a.matvec(&vec![1.0; a.ncols], &mut b);
//!
//! // Solve with Mille-feuille on the A100 device model.
//! let solver = MilleFeuille::with_defaults(DeviceSpec::a100());
//! let report = solver.solve_cg(&a, &b);
//! assert!(report.converged);
//! assert!(report.x.iter().all(|v| (v - 1.0).abs() < 1e-6));
//! println!("{} iterations, modeled {:.1} µs", report.iterations, report.solve_us());
//! ```

pub use mf_baselines as baselines;
pub use mf_collection as collection;
pub use mf_gpu as gpu;
pub use mf_kernels as kernels;
pub use mf_precision as precision;
pub use mf_solver as solver;
pub use mf_sparse as sparse;
pub use mf_trace as trace;

/// The types most programs need.
pub mod prelude {
    pub use mf_baselines::Baseline;
    pub use mf_gpu::DeviceSpec;
    pub use mf_precision::Precision;
    pub use mf_solver::{
        BreakdownEvent, BreakdownKind, ExecutedMode, FaultKind, FaultPlan, InjectedFaults,
        KernelMode, MilleFeuille, RecoveryAction, ShardedReport, SolveFailure, SolveReport,
        SolverConfig, ThreadedOpts, ThreadedReport, WatchdogPolicy,
    };
    pub use mf_sparse::{Coo, Csr, TiledMatrix};
    pub use mf_trace::{EventKind, Trace, TraceConfig, TraceEvent};
}
