//! # mf-solver
//!
//! The Mille-feuille solver (SC'24): tile-grained mixed-precision CG and
//! BiCGSTAB with a single-kernel execution scheme and partial-convergence-
//! aware dynamic precision lowering.
//!
//! ## Architecture
//!
//! The numerics and the performance model are strictly separated:
//!
//! * **Numerics** run exactly — quantized tile values, dynamic lowering and
//!   tile bypass all perturb the computation precisely the way the GPU
//!   kernels would, so iteration counts and residual histories (paper
//!   Table II, Fig. 12) are measurements, not estimates.
//! * **Time** is charged to a [`mf_gpu::Timeline`] by a *coster* matching
//!   the execution mode: the single-kernel coster charges one launch per
//!   solve, per-warp step maxima (straggler model), atomic traffic and
//!   busy-wait polls (paper Fig. 6 / Algorithm 3); the multi-kernel coster
//!   charges one launch per kernel call plus device-to-host scalar reads —
//!   the Finding-2 overhead the single kernel removes.
//!
//! ## Entry point
//!
//! [`MilleFeuille`] owns a device model and a [`SolverConfig`]. Its one
//! entry, [`MilleFeuille::solve`], takes any CSR matrix and a
//! [`SolveSpec`]: the [`Method`] (`Auto`, CG, BiCGSTAB, PCG with ILU(0) /
//! IC(0) / block-Jacobi, PBiCGSTAB), the [`Engine`] (sequential or
//! threaded), the [`PipelineMode`] and optionally caller-supplied
//! factors. It preprocesses the matrix into the tiled format (§III-B),
//! picks single- vs multi-kernel mode (§III-C, with the ≈10⁶-nnz
//! fallback), runs the solve, and returns a [`SolveReport`] with the
//! solution, convergence data and a full modeled-time breakdown, whichever
//! engine ran. Unsupported combinations are a typed [`SolveError`]. The
//! serving layer's cache-hit paths, `solve_cg_preprocessed` and
//! `solve_pcg_preprocessed`, reuse an existing [`solver::Preprocessed`].
//!
//! The [`threaded`] module contains *real* multi-threaded single-kernel
//! engines — warps as OS threads synchronized only through atomic
//! dependency counters — used to validate that the paper's in-kernel
//! synchronization scheme is correct and deadlock-free. Each engine has one
//! entry point taking a [`ThreadedOpts`] (warps, watchdog, faults, trace,
//! adaptive). Beyond plain CG and BiCGSTAB, the preconditioned engines
//! ([`run_pcg_threaded`], [`run_pbicgstab_threaded`]) run the ILU(0)
//! forward/backward triangular solves *inside* the kernel via per-row
//! dependency counters ([`mf_gpu::deps::RowDeps`]), and are deterministic
//! and warp-count invariant by construction so differential tests can
//! compare them bitwise against sequential references. Engine-only
//! telemetry (heartbeat positions, fault tallies) rides in
//! [`SolveReport::engine`].
//!
//! ## Robustness
//!
//! Every core fails *finite, fast, and observably*: scalar breakdowns
//! (curvature, ρ, ω, non-finite) trigger the classical restart, repeated
//! futile restarts abort as [`SolveFailure::Stalled`], and the threaded
//! engines add a poison flag plus a progress-heartbeat watchdog
//! ([`SolverConfig::watchdog`], [`ThreadedOpts::watchdog`]) so a panicking
//! or NaN-poisoned warp can never wedge the process. Reports carry the full [`BreakdownEvent`]
//! trail; see DESIGN.md "Failure modes and recovery".

pub mod adaptive;
pub mod bicgstab;
pub mod block;
pub mod cg;
pub mod config;
pub mod coster;
pub mod partial;
pub mod pipelined;
pub mod precond;
pub mod report;
pub mod solver;
pub mod threaded;
pub mod ticketed;
pub mod workspace;

pub use block::{run_cg_block_ws, BlockResult, BlockWorkspace, ColumnResult, ColumnStatus};
pub use config::{
    HostParallelism, KernelMode, PipelineMode, SolverConfig, WatchdogPolicy, DEFAULT_HEARTBEAT,
};
pub use pipelined::run_cg_pipelined;
pub use precond::Precond;
pub use report::{
    BreakdownEvent, BreakdownKind, EngineSection, ExecutedMode, RecoveryAction, SolveFailure,
    SolveReport, WarpProgress,
};
pub use solver::{Engine, Method, MilleFeuille, PrecondKind, SolveError, SolveSpec};
pub use threaded::{
    run_bicgstab_threaded, run_cg_pipelined_threaded, run_cg_threaded, run_ilu_sptrsv_threaded,
    run_pbicgstab_threaded, run_pcg_pipelined_threaded, run_pcg_threaded, ThreadedOpts,
    PBICGSTAB_STEPS, PCG_PIPELINED_STEPS, PCG_STEPS, SPTRSV_STEPS,
};
pub use ticketed::{
    build_tiled_ticketed, fused_unit_specs, ic0_boosted_ticketed, ilu0_boosted_ticketed,
    preprocess_fused_ticketed, preprocess_tiled_ilu0_ticketed, FactorKind, PreResult, PreUnit,
    TicketedOptions, TicketedOutcome,
};
pub use workspace::SolverWorkspace;
// The fault-injection vocabulary lives in `mf_gpu::faults`; re-export the
// pieces test harnesses compose so they need only this crate.
pub use mf_gpu::{FaultKind, FaultPlan, InjectedFaults};
// The adaptive re-tiering vocabulary lives in `mf-precision`; re-export the
// pieces callers need to arm the controller and read the decision trail.
pub use mf_precision::{
    AdaptiveConfig, PrecisionController, RetierAction, RetierDecision, TierCap, TileTier,
};
// The trace vocabulary lives in `mf-trace`; re-export the pieces callers
// need to turn recording on and consume the merged event stream.
pub use mf_trace::{EventKind, Trace, TraceConfig, TraceEvent};
