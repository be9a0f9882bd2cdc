//! Solver configuration.

use mf_precision::ClassifyOptions;
use mf_trace::TraceConfig;
use std::time::Duration;

/// Default interval of the progress-heartbeat watchdog: the solve only
/// fails as `Wedged` when **no** warp has produced a progress event for
/// this long. It does not bound total solve time, so slow-but-healthy
/// solves on huge systems never trip it; 10 s of *zero* progress, by contrast, only happens to a genuinely wedged
/// dependency chain.
pub const DEFAULT_HEARTBEAT: Duration = Duration::from_secs(10);

/// How the threaded single-kernel engines detect a wedged solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WatchdogPolicy {
    /// No watchdog at all (the paper's idealized deadlock-free
    /// assumption). A truly wedged dependency chain will spin forever.
    Disabled,
    /// Progress heartbeat: fires only when *no* warp has advanced for the
    /// given interval ([`mf_gpu::Heartbeat`]). The default.
    Heartbeat(Duration),
}

impl Default for WatchdogPolicy {
    fn default() -> Self {
        WatchdogPolicy::Heartbeat(DEFAULT_HEARTBEAT)
    }
}

/// How many *consecutive* breakdown restarts a convergence-mode solve
/// tolerates before declaring itself stalled. A breakdown restart replaces
/// the search direction with the current residual without touching `x` or
/// `r`; once that restart itself breaks down again the state is (up to
/// dynamic-precision side effects) a fixed point, so a short budget only
/// truncates provably futile work. Fixed-iteration benchmark runs are
/// exempt — they intentionally keep iterating past exact convergence,
/// where restarts are routine.
pub const MAX_CONSECUTIVE_RESTARTS: usize = 8;

/// Pipelined-recurrence selection for the CG family on the sequential
/// engine. The pipelined (Ghysels–Vanroose) variants trade a modest,
/// characterized rounding drift for a collapsed synchronization schedule —
/// one global reduction per iteration instead of two, charged as one
/// barrier epoch per single-kernel iteration instead of the classic
/// schedule's six (five steps and the iteration end; the threaded classic
/// engine measures three barriers per iteration). The threaded engines
/// run the classic schedule only.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PipelineMode {
    /// Let the cost model decide: pipelined when the predicted per-
    /// iteration sync saving beats the extra fused-update traffic.
    Auto,
    /// Always the classic (two-reduction) recurrence.
    Classic,
    /// Always the pipelined recurrence.
    Pipelined,
}

/// Execution-mode selection (§III-C).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelMode {
    /// Decide per matrix: single kernel when the tiles fit on-chip and the
    /// nonzero count is below the fallback threshold (the paper's policy).
    Auto,
    /// Force the single-kernel scheme.
    SingleKernel,
    /// Force the classic multi-kernel path.
    MultiKernel,
}

/// Host-side parallelism policy for preprocessing.
///
/// With more than one thread, tiles are classified in parallel
/// ([`mf_sparse::TiledMatrix::from_csr_par`]), and a preconditioner
/// factorization ([`crate::MilleFeuille::preprocess_with_ilu0`] and every
/// preconditioned [`crate::MilleFeuille::solve`]) runs on its own thread
/// alongside the tile build, which gets the threads left over. Every path is
/// bitwise-identical to the serial one, so this knob trades wall-clock for
/// thread occupancy without perturbing any result. The solver cores run
/// the serial SpMV whatever the policy: on a 2-core host a striped SpMV
/// ([`mf_kernels::spmv_mixed_par`]) bought nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HostParallelism {
    /// Parallelize when the matrix is large enough to amortize the thread
    /// spawns (`nnz ≥` [`AUTO_PAR_NNZ`]), using all available cores.
    Auto,
    /// Always preprocess serially.
    Serial,
    /// Always use exactly this many worker threads (clamped to ≥ 1).
    Threads(usize),
}

/// `HostParallelism::Auto` preprocesses in parallel from this stored-
/// nonzero count. Below it thread spawn/join overhead exceeds the win.
pub const AUTO_PAR_NNZ: usize = 65_536;

impl HostParallelism {
    /// Resolves the policy to a concrete worker count for a matrix with
    /// `nnz` stored nonzeros. Returns 1 when the serial path should run.
    pub fn threads_for(self, nnz: usize) -> usize {
        match self {
            HostParallelism::Serial => 1,
            HostParallelism::Threads(n) => n.max(1),
            HostParallelism::Auto => {
                if nnz >= AUTO_PAR_NNZ {
                    std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1)
                } else {
                    1
                }
            }
        }
    }
}

/// Configuration of a Mille-feuille solve.
#[derive(Clone, Debug)]
pub struct SolverConfig {
    /// Relative-residual convergence threshold ε (paper §IV-A: 1e-10).
    pub tolerance: f64,
    /// Maximum iterations (paper §IV-A: 1000).
    pub max_iter: usize,
    /// Run exactly this many iterations, ignoring convergence — the paper's
    /// performance figures (Figs. 8–10) time 100 fixed iterations.
    pub fixed_iterations: Option<usize>,
    /// Tile edge length (paper: 16).
    pub tile_size: usize,
    /// Force every tile to one uniform storage precision instead of the
    /// classified mixed precision of Finding 1 (`None`, the default). FP64
    /// is the "only FP64" baseline of Fig. 11; the other precisions are the
    /// matrix-grained storage alternative of §II-A that the granularity
    /// ablation compares. Values are quantized accordingly — choose the
    /// precision that is lossless for the whole matrix to compare fairly.
    pub uniform_precision: Option<mf_precision::Precision>,
    /// Enable the partial-convergence strategy: per-iteration `vis_flag`
    /// retrieval, dynamic on-chip lowering and tile bypass (Finding 3).
    pub partial_convergence: bool,
    /// Safety factor on the partial-convergence threshold ladder. The
    /// paper's ladder is `ε·10⁻³ … ε` (factor 1.0); the default 0.1 shifts
    /// it one decade down, which keeps stiff systems from stalling just
    /// above the tolerance while retaining almost all of the bypass volume
    /// on well-behaved systems (see EXPERIMENTS.md).
    pub partial_safety: f64,
    /// Kernel mode policy.
    pub kernel_mode: KernelMode,
    /// Classification options for the initial tile precisions.
    pub classify: ClassifyOptions,
    /// Leaf size of the recursive-block SpTRSV the preconditioned solvers
    /// are charged as. It affects modeled cost only: every engine solves
    /// the triangles by plain substitution. A leaf of 0 is treated as 1: a
    /// 0-row leaf could never end the halving.
    pub trsv_leaf: usize,
    /// Record the relative residual after every iteration (Fig. 12).
    pub trace_residuals: bool,
    /// Record the |p| range histogram after every iteration (Fig. 4) and
    /// the per-iteration bypass/precision statistics.
    pub trace_partial: bool,
    /// If set, record per-iteration relative error `‖x−x*‖₂/‖x*‖₂` against
    /// this reference solution (Fig. 12's y-axis).
    pub reference_solution: Option<Vec<f64>>,
    /// Host-side preprocessing parallelism: whether tiles are classified
    /// in parallel and the preconditioner factorization overlaps the tile
    /// build. Every path is bitwise-identical; see [`HostParallelism`].
    pub host_parallelism: HostParallelism,
    /// Wedge detection for the threaded single-kernel engines
    /// ([`crate::threaded`]): when the policy fires, the solve is poisoned
    /// and returns a [`crate::report::SolveFailure::Wedged`] failure
    /// instead of hanging. The default is the progress heartbeat
    /// ([`DEFAULT_HEARTBEAT`]): it fires only when *no* warp advances for
    /// the interval, so slow-but-healthy solves never trip it.
    /// [`WatchdogPolicy::Disabled`] turns detection off. The facade passes
    /// this to the threaded engines as [`crate::ThreadedOpts::watchdog`].
    pub watchdog: WatchdogPolicy,
    /// Structured event tracing ([`mf_trace`]): off by default (every
    /// event site is one `Option` branch). When enabled, engines record
    /// iteration/barrier/row-wait/precision/bypass/breakdown/fault events
    /// into per-warp ring buffers, merged deterministically into
    /// `SolveReport::trace` at join time.
    pub trace: TraceConfig,
    /// Adaptive precision controller v2 (residual-driven tile re-tiering,
    /// including scaled FP8): `Some(cfg)` arms a
    /// [`mf_precision::PrecisionController`] that observes the relative
    /// residual at every convergence check and emits deterministic re-tier
    /// plans applied at barrier-aligned epochs, each followed by a true-
    /// residual refresh. `None` (the default) keeps the static
    /// classification of Finding 1. Mutually exclusive with
    /// `partial_convergence` — the facade forces partial convergence off
    /// when adaptive is armed, because the one-way on-chip lowering would
    /// fight the controller's plans. Armed on CG, pipelined CG, PCG with
    /// any preconditioner (ILU(0), IC(0), block-Jacobi) and the threaded
    /// CG engine; BiCGSTAB, PBiCGSTAB and pipelined PCG ignore it.
    pub adaptive: Option<mf_precision::AdaptiveConfig>,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            tolerance: 1e-10,
            max_iter: 1000,
            fixed_iterations: None,
            tile_size: mf_sparse::DEFAULT_TILE_SIZE,
            uniform_precision: None,
            partial_convergence: true,
            partial_safety: 0.1,
            kernel_mode: KernelMode::Auto,
            classify: ClassifyOptions::default(),
            trsv_leaf: mf_kernels::sptrsv::DEFAULT_TRSV_LEAF,
            trace_residuals: false,
            trace_partial: false,
            reference_solution: None,
            host_parallelism: HostParallelism::Auto,
            watchdog: WatchdogPolicy::default(),
            trace: TraceConfig::default(),
            adaptive: None,
        }
    }
}

impl SolverConfig {
    /// The paper's benchmark configuration: 100 fixed iterations.
    pub fn benchmark_100_iters() -> Self {
        SolverConfig {
            fixed_iterations: Some(100),
            ..SolverConfig::default()
        }
    }

    /// A plain FP64 configuration (uniform FP64 tiles, the partial-
    /// convergence strategy disabled) — the "only FP64" bar of Fig. 11.
    pub fn fp64_only() -> Self {
        SolverConfig {
            uniform_precision: Some(mf_precision::Precision::Fp64),
            partial_convergence: false,
            ..SolverConfig::default()
        }
    }

    /// Convergence-study configuration (residual + error traces on).
    pub fn convergence_study() -> Self {
        SolverConfig {
            trace_residuals: true,
            trace_partial: true,
            ..SolverConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SolverConfig::default();
        assert_eq!(c.tolerance, 1e-10);
        assert_eq!(c.max_iter, 1000);
        assert_eq!(c.tile_size, 16);
        assert!(c.uniform_precision.is_none());
        assert!(c.partial_convergence);
        assert_eq!(c.kernel_mode, KernelMode::Auto);
        assert!(c.fixed_iterations.is_none());
        assert_eq!(c.host_parallelism, HostParallelism::Auto);
        assert_eq!(
            c.watchdog,
            WatchdogPolicy::Heartbeat(DEFAULT_HEARTBEAT),
            "watchdog defaults to the progress heartbeat"
        );
        assert!(!c.trace.enabled, "event tracing defaults off");
        assert!(c.adaptive.is_none(), "adaptive re-tiering defaults off");
    }

    #[test]
    fn host_parallelism_resolution() {
        assert_eq!(HostParallelism::Serial.threads_for(usize::MAX), 1);
        assert_eq!(HostParallelism::Threads(4).threads_for(10), 4);
        assert_eq!(HostParallelism::Threads(0).threads_for(10), 1);
        // Auto stays serial below the threshold regardless of core count.
        assert_eq!(HostParallelism::Auto.threads_for(AUTO_PAR_NNZ - 1), 1);
        assert!(HostParallelism::Auto.threads_for(AUTO_PAR_NNZ) >= 1);
    }

    #[test]
    fn presets() {
        assert_eq!(
            SolverConfig::benchmark_100_iters().fixed_iterations,
            Some(100)
        );
        let f = SolverConfig::fp64_only();
        assert_eq!(f.uniform_precision, Some(mf_precision::Precision::Fp64));
        assert!(!f.partial_convergence);
        let s = SolverConfig::convergence_study();
        assert!(s.trace_residuals && s.trace_partial);
    }
}
