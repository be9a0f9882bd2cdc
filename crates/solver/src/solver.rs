//! The `MilleFeuille` facade: preprocessing, mode selection, dispatch.

use crate::bicgstab::run_bicgstab;
use crate::cg::run_cg;
use crate::config::{KernelMode, PipelineMode, SolverConfig};
use crate::coster::{Coster, MultiCoster, SingleCoster};
use crate::partial::PartialState;
use crate::pipelined::run_cg_pipelined;
use crate::precond::Precond;
use crate::report::{BreakdownEvent, BreakdownKind, ExecutedMode, RecoveryAction, SolveReport};
use crate::threaded::{
    run_bicgstab_threaded, run_cg_threaded, run_pbicgstab_threaded, run_pcg_threaded, ThreadedOpts,
};
use crate::workspace::SolverWorkspace;
use mf_gpu::{CostModel, DeviceSpec, Phase, ShmemPlan, Timeline};
use mf_kernels::block_jacobi::SingularBlock;
use mf_kernels::{blas1, ilu0_boosted, BlockJacobi, FactorError, Ic0, Ilu0, SharedTiles};
use mf_sparse::{Csr, TiledMatrix};

/// The Krylov method a [`SolveSpec`] asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// Pick by matrix structure, the way the paper partitions SuiteSparse:
    /// CG for (likely) symmetric positive definite matrices, BiCGSTAB
    /// otherwise. The structure heuristic can be fooled by a symmetric,
    /// diagonally dominated-looking matrix that is indefinite. When CG then
    /// aborts on curvature breakdowns, the system is re-dispatched to
    /// BiCGSTAB on the same preprocessed matrix: the report is the BiCGSTAB
    /// one, with CG's breakdown trail and residual/error history ahead of
    /// BiCGSTAB's and the handoff recorded as a
    /// [`RecoveryAction::SwitchedSolver`] event. A caller who wants the
    /// failed CG report asks for [`Method::Cg`]. The spec's pipeline
    /// applies to the CG branch.
    Auto,
    /// Conjugate gradients (A must be SPD).
    Cg,
    /// BiCGSTAB (A nonsymmetric or indefinite).
    BiCgStab,
    /// Preconditioned CG. The sequential cores charge it in multi-kernel
    /// mode: the paper extends its multi-kernel method with
    /// preconditioning (§III-C).
    Pcg(PrecondKind),
    /// ILU(0)-preconditioned BiCGSTAB.
    PBiCgStab,
}

/// The preconditioner of [`Method::Pcg`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrecondKind {
    /// ILU(0), the paper's preconditioner: applied by plain substitution
    /// and charged as the recursive-block SpTRSV of §IV-C.
    Ilu0,
    /// IC(0), `M = L·Lᵀ`: an extension beyond the paper's ILU(0)
    /// evaluation. The symmetric factorization halves the factor work and
    /// keeps the preconditioned operator SPD.
    Ic0,
    /// Adaptive-precision block-Jacobi with blocks of this many rows
    /// ([`mf_kernels::block_jacobi`]).
    BlockJacobi(usize),
}

/// The engine that runs the iterations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// The sequential cores, charged in the §III-C mode
    /// [`MilleFeuille::decide_mode`] picks.
    Sequential,
    /// The real multi-threaded single-kernel engines
    /// ([`crate::threaded`]): warps as OS threads synchronized through
    /// atomic counters, with the ILU(0) triangular solves inside the
    /// kernel.
    Threaded {
        /// Warp (OS thread) cap.
        warps: usize,
    },
}

/// What [`MilleFeuille::solve`] runs: a method on an engine with a
/// schedule, optionally with a caller-supplied factorization.
///
/// | method | `Sequential` | `Threaded` |
/// |---|---|---|
/// | `Auto` | classic, pipelined | — |
/// | `Cg`, `Pcg(Ilu0)` | classic, pipelined | classic |
/// | `Pcg(Ic0)`, `Pcg(BlockJacobi)` | classic, pipelined | — |
/// | `BiCgStab`, `PBiCgStab` | classic | classic |
///
/// [`PipelineMode::Auto`] resolves per matrix
/// ([`MilleFeuille::decide_pipeline`]) where a pipelined schedule exists
/// and is classic elsewhere, so always classic on `Threaded`. Every other combination, factors that do not
/// match the method's preconditioner, and `Threaded { warps: 0 }` are
/// [`SolveError::Unsupported`].
#[derive(Clone, Copy, Debug)]
pub struct SolveSpec<'f> {
    /// The Krylov method.
    pub method: Method,
    /// The engine that runs it.
    pub engine: Engine,
    /// Classic or pipelined (Ghysels–Vanroose) recurrence, the latter on
    /// the sequential engine only. The pipelined schedule is charged one
    /// barrier epoch per CG iteration (two for PCG) instead of three
    /// (four); its residual trajectory drifts from the classic one only by
    /// rounding (DESIGN.md §12).
    pub pipeline: PipelineMode,
    /// A factorization to precondition with instead of one the facade
    /// builds: benchmark reuse, or corrupted factors in stress tests.
    /// Supplied block-Jacobi factors keep their own block size.
    pub factors: Option<Precond<'f>>,
}

impl SolveSpec<'static> {
    /// `method` on the sequential engine with the classic schedule, the
    /// facade building any factorization.
    pub fn new(method: Method) -> SolveSpec<'static> {
        SolveSpec {
            method,
            engine: Engine::Sequential,
            pipeline: PipelineMode::Classic,
            factors: None,
        }
    }

    /// Everything decided per matrix: [`Method::Auto`] with
    /// [`PipelineMode::Auto`] on the sequential engine.
    pub fn auto() -> SolveSpec<'static> {
        SolveSpec {
            pipeline: PipelineMode::Auto,
            ..SolveSpec::new(Method::Auto)
        }
    }
}

impl<'f> SolveSpec<'f> {
    /// This spec on the threaded engines, with at most `warps` threads.
    pub fn threaded(self, warps: usize) -> SolveSpec<'f> {
        SolveSpec {
            engine: Engine::Threaded { warps },
            ..self
        }
    }

    /// This spec with the pipelined schedule.
    pub fn pipelined(self) -> SolveSpec<'f> {
        SolveSpec {
            pipeline: PipelineMode::Pipelined,
            ..self
        }
    }

    /// This spec preconditioned with `factors` instead of a factorization
    /// the facade builds.
    pub fn with_factors<'g>(self, factors: Precond<'g>) -> SolveSpec<'g> {
        SolveSpec {
            method: self.method,
            engine: self.engine,
            pipeline: self.pipeline,
            factors: Some(factors),
        }
    }

    /// `Err` unless some engine implements this combination (see the
    /// table on [`SolveSpec`]).
    fn check(&self) -> Result<(), SolveError> {
        let sequential = self.engine == Engine::Sequential;
        let pipelined = self.pipeline == PipelineMode::Pipelined;
        let reason = match self.method {
            _ if self.engine == (Engine::Threaded { warps: 0 }) => {
                Some("the threaded engines need at least one warp")
            }
            Method::Auto if !sequential => {
                Some("Auto picks a method on the sequential engine only")
            }
            Method::Pcg(PrecondKind::Ic0 | PrecondKind::BlockJacobi(_)) if !sequential => {
                Some("IC(0) and block-Jacobi run on the sequential engine only")
            }
            Method::BiCgStab | Method::PBiCgStab if pipelined => {
                Some("BiCGSTAB has no pipelined schedule")
            }
            _ if pipelined && !sequential => {
                Some("the pipelined schedule runs on the sequential engine only")
            }
            _ => None,
        };
        let fits = matches!(
            (self.method, self.factors),
            (_, None)
                | (
                    Method::Pcg(PrecondKind::Ilu0) | Method::PBiCgStab,
                    Some(Precond::Ilu0(_))
                )
                | (Method::Pcg(PrecondKind::Ic0), Some(Precond::Ic0(_)))
                | (
                    Method::Pcg(PrecondKind::BlockJacobi(_)),
                    Some(Precond::BlockJacobi(_))
                )
        );
        let reason =
            reason.or((!fits).then_some("the factors do not match the method's preconditioner"));
        reason.map_or(Ok(()), |r| Err(SolveError::Unsupported(r)))
    }
}

/// Why [`MilleFeuille::solve`] produced no report.
#[derive(Clone, Debug, PartialEq)]
pub enum SolveError {
    /// No engine implements the spec's combination; the reason names the
    /// part that does not fit.
    Unsupported(&'static str),
    /// The ILU(0)/IC(0) factorization failed even with diagonal boosting,
    /// or the matrix is not square.
    Factor(FactorError),
    /// A block-Jacobi diagonal block is singular.
    SingularBlock(SingularBlock),
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::Unsupported(reason) => write!(f, "unsupported solve: {reason}"),
            SolveError::Factor(e) => write!(f, "factorization failed: {e}"),
            SolveError::SingularBlock(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SolveError {}

/// Prepends one [`BreakdownKind::FactorShift`] event per diagonal-boosting
/// attempt to a solve's breakdown trail, so reports show the factorization
/// recovery before any iteration-time events. The shifts come from
/// [`mf_kernels::ilu0_boosted`] / [`Ic0::new_boosted`]; `iteration` is 0
/// because the shifts happen before the first iteration.
fn prepend_factor_shifts(breakdowns: &mut Vec<BreakdownEvent>, shifts: &[f64]) {
    if shifts.is_empty() {
        return;
    }
    let mut trail: Vec<BreakdownEvent> = shifts
        .iter()
        .map(|_| BreakdownEvent {
            iteration: 0,
            kind: BreakdownKind::FactorShift,
            action: RecoveryAction::Restarted,
        })
        .collect();
    trail.extend(breakdowns.iter().copied());
    *breakdowns = trail;
}

/// Charges preprocessing to a solve's report: `pre`'s modeled time ahead
/// of the solve's, the tiled and CSR footprints, and one preprocessing
/// pass.
fn with_preprocessing(a: &Csr, pre: &Preprocessed, rep: SolveReport) -> SolveReport {
    let mut timeline = pre.timeline.clone();
    timeline.merge(&rep.timeline);
    SolveReport {
        timeline,
        tiled_memory: pre.tiled.memory_bytes(),
        csr_memory: a.memory_bytes(),
        preprocess_wall_us: pre.wall_us,
        preprocess_passes: 1,
        ..rep
    }
}

/// The Mille-feuille solver: tile-grained mixed precision + single-kernel
/// execution + partial-convergence-aware dynamic lowering.
///
/// ```
/// use mf_gpu::DeviceSpec;
/// use mf_solver::{Method, MilleFeuille, SolveSpec, SolverConfig};
/// use mf_sparse::Coo;
///
/// // A tiny SPD system.
/// let mut a = Coo::new(4, 4);
/// for i in 0..4 {
///     a.push(i, i, 4.0);
///     if i > 0 { a.push(i, i - 1, -1.0); }
///     if i + 1 < 4 { a.push(i, i + 1, -1.0); }
/// }
/// let a = a.to_csr();
/// let b = vec![1.0; 4];
///
/// let solver = MilleFeuille::new(DeviceSpec::a100(), SolverConfig::default());
/// let report = solver.solve(&a, &b, &SolveSpec::new(Method::Cg)).unwrap();
/// assert!(report.converged);
/// ```
#[derive(Clone, Debug)]
pub struct MilleFeuille {
    /// Device model the solve is priced on.
    pub device: DeviceSpec,
    /// Solver configuration.
    pub config: SolverConfig,
}

/// The signature every sequential core shares (CG or PCG, pipelined CG
/// or PCG, BiCGSTAB or PBiCGSTAB), so the facade runs them through one
/// body.
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

/// Everything produced by preprocessing (paper Fig. 14 measures its cost).
pub struct Preprocessed {
    /// The tiled mixed-precision matrix.
    pub tiled: TiledMatrix,
    /// Modeled preprocessing time, µs.
    pub timeline: Timeline,
    /// Host wall-clock of preprocessing in this simulation, µs: the tile
    /// build, plus the preconditioner factorization on the paths that
    /// set one up with it ([`MilleFeuille::preprocess_with_ilu0`] and
    /// [`MilleFeuille::solve`] of a preconditioned method).
    pub wall_us: f64,
}

impl MilleFeuille {
    /// Creates a solver for `device` with `config`.
    pub fn new(device: DeviceSpec, config: SolverConfig) -> MilleFeuille {
        MilleFeuille { device, config }
    }

    /// Creates a solver with default configuration.
    pub fn with_defaults(device: DeviceSpec) -> MilleFeuille {
        MilleFeuille::new(device, SolverConfig::default())
    }

    fn cost(&self) -> CostModel {
        CostModel::new(self.device.clone())
    }

    /// Converts a CSR matrix into the tiled format, charging the modeled
    /// preprocessing cost (format conversion + task distribution + initial
    /// precision assignment — the three components §IV-H lists).
    pub fn preprocess(&self, a: &Csr) -> Preprocessed {
        let start = std::time::Instant::now();
        let tiled = self.build_tiles(a, self.config.host_parallelism.threads_for(a.nnz()));
        let wall_us = start.elapsed().as_secs_f64() * 1e6;
        self.charge_preprocess(a, tiled, wall_us)
    }

    /// The tiled matrix this config asks for, built on `threads` host
    /// threads. Classification dominates conversion time and tiles are
    /// independent, so a mixed-precision build with more than one thread
    /// classifies in parallel ([`TiledMatrix::from_csr_par`]); the result
    /// is bit-identical to the serial build.
    fn build_tiles(&self, a: &Csr, threads: usize) -> TiledMatrix {
        let ts = self.config.tile_size;
        match self.config.uniform_precision {
            Some(p) => TiledMatrix::from_csr_uniform(a, ts, p),
            None if threads > 1 => TiledMatrix::from_csr_par(a, ts, &self.config.classify),
            None => TiledMatrix::from_csr_with(a, ts, &self.config.classify),
        }
    }

    /// Preprocesses `a` and runs `factor` (a preconditioner setup on the
    /// same `a`) with it. The two read the same CSR and share no data, so
    /// when the host-parallelism policy resolves to more than one thread
    /// `factor` runs on a scoped thread while this one builds the tiles
    /// on the threads left over; otherwise they run one after the other.
    /// Either way every per-tile and per-row kernel is the serial one, so
    /// the outputs are bitwise identical. A panic in `factor` is re-raised
    /// here. The returned `wall_us` covers both steps.
    fn preprocess_alongside<T: Send>(
        &self,
        a: &Csr,
        factor: impl FnOnce() -> T + Send,
    ) -> (Preprocessed, T) {
        let start = std::time::Instant::now();
        let threads = self.config.host_parallelism.threads_for(a.nnz());
        let (tiled, factors) = if threads > 1 {
            std::thread::scope(|s| {
                let factoring = s.spawn(factor);
                let tiled = self.build_tiles(a, threads - 1);
                let factors = factoring
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                (tiled, factors)
            })
        } else {
            (self.build_tiles(a, 1), factor())
        };
        let wall_us = start.elapsed().as_secs_f64() * 1e6;
        (self.charge_preprocess(a, tiled, wall_us), factors)
    }

    /// Prices a finished conversion and packages the [`Preprocessed`]:
    /// the modeled cost covers format conversion + task distribution +
    /// initial precision assignment (the three §IV-H components) and is
    /// identical for every host-side build strategy — host threads change
    /// wall-clock, not modeled device work.
    fn charge_preprocess(&self, a: &Csr, tiled: TiledMatrix, wall_us: f64) -> Preprocessed {
        let cost = self.cost();
        let mut tl = Timeline::new();
        let nnz = a.nnz() as f64;
        // Conversion pass: read CSR (12 B/nnz), classify (4 round-trips per
        // value), write the tiled arrays (~10 B/nnz + tile metadata).
        let conv = cost.kernel_body_us(16.0 * nnz, 26.0 * nnz, cost.spmv_warps(a.nnz().max(1)));
        // Schedule construction: one pass over the tile metadata.
        let sched = cost.kernel_body_us(
            2.0 * tiled.tile_count() as f64,
            13.0 * tiled.tile_count() as f64,
            cost.blas1_warps(tiled.tile_count().max(1)),
        );
        tl.add(Phase::Preprocess, conv + sched);
        tl.add(Phase::Sync, 2.0 * cost.launch_us());
        Preprocessed {
            tiled,
            timeline: tl,
            wall_us,
        }
    }

    /// Preprocessing together with the ILU(0) factorization the PCG cold
    /// path needs ([`mf_kernels::ilu0_boosted`]): when the host-parallelism
    /// policy resolves to more than one thread the factorization runs
    /// alongside the tile build. Tiles, factors and shift schedule are
    /// bitwise identical to the serial `preprocess` + `ilu0_boosted` pair
    /// under every policy; `wall_us` covers both steps.
    #[allow(clippy::type_complexity)]
    pub fn preprocess_with_ilu0(
        &self,
        a: &Csr,
    ) -> (Preprocessed, Result<(Ilu0, Vec<f64>), FactorError>) {
        self.preprocess_alongside(a, || ilu0_boosted(a))
    }

    /// The §III-C mode decision for a preprocessed matrix.
    pub fn decide_mode(&self, tiled: &TiledMatrix) -> ExecutedMode {
        match self.config.kernel_mode {
            KernelMode::SingleKernel => ExecutedMode::SingleKernel,
            KernelMode::MultiKernel => ExecutedMode::MultiKernel,
            KernelMode::Auto => {
                if !ShmemPlan::use_single_kernel(tiled, &self.device) {
                    return ExecutedMode::MultiKernel;
                }
                // Capacity admits the single kernel; confirm it actually
                // wins (tile-scattered matrices can be dominated by the
                // dependency-array atomic traffic — the "overhead outweighs
                // the benefit" clause of §III-C).
                let single = SingleCoster::new(self.cost(), tiled, self.config.tile_size)
                    .estimate_cg_iteration_us(&tiled.tile_prec);
                let multi =
                    MultiCoster::new(self.cost(), tiled.nrows).estimate_cg_iteration_us(tiled);
                // Slightly conservative: the estimate is a CG iteration,
                // and the multi-kernel fallback is never worse than the
                // baselines — prefer it on a near-tie.
                if single <= multi * 0.90 {
                    ExecutedMode::SingleKernel
                } else {
                    ExecutedMode::MultiKernel
                }
            }
        }
    }

    /// Resolves `pipeline` for a preprocessed matrix run in `mode`.
    /// Explicit modes win; `Auto` picks the pipelined schedule when the
    /// modeled barrier savings are a nontrivial share (>5%) of a
    /// single-kernel iteration — i.e. on synchronization-dominated
    /// (small/medium) systems, where the pipelined recurrence's rounding
    /// drift buys real time. Multi-kernel mode stays classic under `Auto`:
    /// every operation is its own kernel there, so the barrier epochs the
    /// pipeline removes were never being paid.
    pub fn decide_pipeline(
        &self,
        tiled: &TiledMatrix,
        mode: ExecutedMode,
        pipeline: PipelineMode,
    ) -> bool {
        match pipeline {
            PipelineMode::Classic => false,
            PipelineMode::Pipelined => true,
            PipelineMode::Auto => {
                if mode != ExecutedMode::SingleKernel {
                    return false;
                }
                let sc = SingleCoster::new(self.cost(), tiled, self.config.tile_size);
                let classic = sc.estimate_cg_iteration_us(&tiled.tile_prec);
                let piped = sc.estimate_cg_pipelined_iteration_us(&tiled.tile_prec);
                piped < classic * 0.95
            }
        }
    }

    /// Solves `A x = b` with the method, engine and schedule `spec` names.
    ///
    /// A preconditioned method without [`SolveSpec::factors`] factors `a`
    /// alongside the tile build, as [`Self::preprocess_with_ilu0`] does. A
    /// zero or tiny ILU(0)/IC(0) pivot is first retried with bounded
    /// diagonal boosting ([`mf_kernels::ilu0_boosted`],
    /// [`Ic0::new_boosted`]); each shift attempt leads the report's
    /// breakdown trail as a `FactorShift` event. Every engine inherits
    /// `tolerance` and `max_iter` from [`SolverConfig`]; the threaded
    /// engines also inherit its watchdog, trace and adaptive controller.
    /// Only the sequential cores honour `fixed_iterations` and partial
    /// convergence.
    ///
    /// Errors: [`SolveError::Unsupported`] before any work for a
    /// combination no engine implements; otherwise the preconditioner
    /// setup's error.
    pub fn solve(
        &self,
        a: &Csr,
        b: &[f64],
        spec: &SolveSpec<'_>,
    ) -> Result<SolveReport, SolveError> {
        spec.check()?;
        let kind = match spec.method {
            Method::Pcg(kind) if spec.factors.is_none() => kind,
            Method::PBiCgStab if spec.factors.is_none() => PrecondKind::Ilu0,
            _ => return Ok(self.run(a, &self.preprocess(a), b, spec, spec.factors)),
        };
        let (shifts, mut rep) = match kind {
            PrecondKind::Ilu0 => {
                let (pre, factors) = self.preprocess_with_ilu0(a);
                let (ilu, shifts) = factors.map_err(SolveError::Factor)?;
                let pc = Precond::Ilu0(&ilu);
                (shifts, self.run(a, &pre, b, spec, Some(pc)))
            }
            PrecondKind::Ic0 => {
                let (pre, factors) = self.preprocess_alongside(a, || Ic0::new_boosted(a));
                let (ic, shifts) = factors.map_err(SolveError::Factor)?;
                (shifts, self.run(a, &pre, b, spec, Some(Precond::Ic0(&ic))))
            }
            PrecondKind::BlockJacobi(block) => {
                let (pre, bj) = self.preprocess_alongside(a, || BlockJacobi::new(a, block));
                let bj = bj.map_err(SolveError::SingularBlock)?;
                let pc = Precond::BlockJacobi(&bj);
                (Vec::new(), self.run(a, &pre, b, spec, Some(pc)))
            }
        };
        prepend_factor_shifts(&mut rep.breakdowns, &shifts);
        Ok(rep)
    }

    /// Runs a checked `spec` on `pre`, preconditioned by `pc` exactly when
    /// the method is, and charges the preprocessing.
    fn run(
        &self,
        a: &Csr,
        pre: &Preprocessed,
        b: &[f64],
        spec: &SolveSpec<'_>,
        pc: Option<Precond<'_>>,
    ) -> SolveReport {
        let (m, tol, max_iter) = (&pre.tiled, self.config.tolerance, self.config.max_iter);
        let rep = match (spec.engine, spec.method, pc) {
            (Engine::Sequential, Method::Auto, _) => self.run_auto(a, pre, b, spec.pipeline),
            (Engine::Sequential, method, pc) => {
                // The paper extends its multi-kernel method with
                // preconditioning (§III-C).
                let mode = match pc {
                    Some(_) => ExecutedMode::MultiKernel,
                    None => self.decide_mode(m),
                };
                let core: Core = match method {
                    Method::BiCgStab | Method::PBiCgStab => run_bicgstab,
                    _ if self.decide_pipeline(m, mode, spec.pipeline) => run_cg_pipelined,
                    _ => run_cg,
                };
                self.run_core(pre, mode, b, pc, &mut SolverWorkspace::new(), core)
            }
            (Engine::Threaded { warps }, Method::Cg, _) => {
                run_cg_threaded(m, b, tol, max_iter, &self.threaded_opts(warps))
            }
            (Engine::Threaded { warps }, Method::BiCgStab, _) => {
                run_bicgstab_threaded(m, b, tol, max_iter, &self.threaded_opts(warps))
            }
            (Engine::Threaded { warps }, Method::Pcg(_), Some(Precond::Ilu0(ilu))) => {
                run_pcg_threaded(m, ilu, b, tol, max_iter, &self.threaded_opts(warps))
            }
            (Engine::Threaded { warps }, Method::PBiCgStab, Some(Precond::Ilu0(ilu))) => {
                run_pbicgstab_threaded(m, ilu, b, tol, max_iter, &self.threaded_opts(warps))
            }
            _ => unreachable!("SolveSpec::check admits no other combination"),
        };
        with_preprocessing(a, pre, rep)
    }

    fn partial_state(&self, tiled: &TiledMatrix, b: &[f64], mode: ExecutedMode) -> PartialState {
        // The dynamic strategy needs the persistent on-chip tile copy, so it
        // only runs in single-kernel mode (§III-D). Adaptive re-tiering
        // forces it off: the one-way on-chip lowering would fight the
        // controller's plans, and a bypassed tile would skip the refresh
        // SpMV's true-residual contribution.
        let enabled = self.config.partial_convergence
            && self.config.adaptive.is_none()
            && mode == ExecutedMode::SingleKernel;
        let eps_abs = self.config.tolerance * self.config.partial_safety * blas1::norm2(b);
        PartialState::new(
            enabled,
            tiled.tile_cols,
            self.config.tile_size,
            eps_abs.max(f64::MIN_POSITIVE),
        )
    }

    /// [`Method::Auto`] on a preprocessed matrix. The CG→BiCGSTAB handoff
    /// reuses `pre`: the tiled format is method-agnostic, so a second
    /// CSR→tiled pass would be pure waste (and would double-charge
    /// Preprocess).
    fn run_auto(
        &self,
        a: &Csr,
        pre: &Preprocessed,
        b: &[f64],
        pipeline: PipelineMode,
    ) -> SolveReport {
        let mode = self.decide_mode(&pre.tiled);
        let run = |core| self.run_core(pre, mode, b, None, &mut SolverWorkspace::new(), core);
        if !mf_sparse::MatrixStats::compute(a).likely_spd() {
            return run(run_bicgstab);
        }
        let cg = run(if self.decide_pipeline(&pre.tiled, mode, pipeline) {
            run_cg_pipelined
        } else {
            run_cg
        });
        let curvature_abort = cg.failure.is_some()
            && cg
                .breakdowns
                .iter()
                .any(|e| e.kind == BreakdownKind::Curvature);
        if !curvature_abort {
            return cg;
        }
        let mut handoff = cg.breakdowns;
        handoff.push(BreakdownEvent {
            iteration: cg.iterations,
            kind: BreakdownKind::Curvature,
            action: RecoveryAction::SwitchedSolver,
        });
        let mut rep = run(run_bicgstab);
        handoff.extend(rep.breakdowns.iter().copied());
        rep.breakdowns = handoff;
        // The handoff report carries the full trajectory: CG's pre-switch
        // residual/error history followed by BiCGSTAB's.
        let mut residuals = cg.residual_history;
        residuals.extend(rep.residual_history.iter().copied());
        rep.residual_history = residuals;
        let mut errors = cg.error_history;
        errors.extend(rep.error_history.iter().copied());
        rep.error_history = errors;
        rep
    }

    /// CG on an already-preprocessed matrix with a caller-provided
    /// [`SolverWorkspace`]: the serving layer's cache-hit path, where
    /// repeated solves reuse the iterate buffers instead of reallocating
    /// them. `pre` must come from [`Self::preprocess`] with this same
    /// config on this same `a` — then the solve is bitwise identical to a
    /// cold [`Self::solve`] of `SolveSpec::new(Method::Cg)` (the report
    /// differs only in `preprocess_passes`/`preprocess_wall_us`, which
    /// the caller adjusts).
    pub fn solve_cg_preprocessed(
        &self,
        a: &Csr,
        pre: &Preprocessed,
        b: &[f64],
        ws: &mut SolverWorkspace,
    ) -> SolveReport {
        let mode = self.decide_mode(&pre.tiled);
        with_preprocessing(a, pre, self.run_core(pre, mode, b, None, ws, run_cg))
    }

    /// The body every sequential path shares: run `core`, preconditioned
    /// by `pc` when given, on a fresh on-chip copy with the mode-matched
    /// coster and partial-convergence state (disabled in multi-kernel
    /// mode). The caller charges the preprocessing.
    fn run_core(
        &self,
        pre: &Preprocessed,
        mode: ExecutedMode,
        b: &[f64],
        pc: Option<Precond<'_>>,
        ws: &mut SolverWorkspace,
        core: Core,
    ) -> SolveReport {
        let mut shared = SharedTiles::load(&pre.tiled);
        let mut partial = self.partial_state(&pre.tiled, b, mode);
        let coster = self.build_coster(&pre.tiled, mode);
        core(
            &pre.tiled,
            &mut shared,
            pc,
            b,
            &self.config,
            &coster,
            &mut partial,
            ws,
        )
    }

    /// ILU(0)-PCG with caller-provided factors on an already-preprocessed
    /// matrix: the serving layer's cache-hit path (both the tiled format
    /// and the factorization come from the cache). Bitwise identical to a
    /// cold [`Self::solve`] of `SolveSpec::new(Method::Pcg(PrecondKind::Ilu0))`
    /// with the same factors, `a` and config.
    pub fn solve_pcg_preprocessed(
        &self,
        a: &Csr,
        pre: &Preprocessed,
        b: &[f64],
        ilu: &Ilu0,
    ) -> SolveReport {
        let (mode, pc) = (ExecutedMode::MultiKernel, Some(Precond::Ilu0(ilu)));
        let rep = self.run_core(pre, mode, b, pc, &mut SolverWorkspace::new(), run_cg);
        with_preprocessing(a, pre, rep)
    }

    /// The threaded engines' options from this facade's config: `max_warps`
    /// warps plus the configured watchdog, trace and adaptive controller,
    /// with no fault injection.
    fn threaded_opts(&self, max_warps: usize) -> ThreadedOpts {
        ThreadedOpts {
            watchdog: self.config.watchdog,
            trace: self.config.trace,
            adaptive: self.config.adaptive,
            ..ThreadedOpts::new(max_warps)
        }
    }

    /// The coster a sequential solve on `tiled` charges in `mode`: this
    /// facade's device model and tile size.
    pub fn build_coster(&self, tiled: &TiledMatrix, mode: ExecutedMode) -> Coster {
        match mode {
            ExecutedMode::SingleKernel => {
                Coster::Single(SingleCoster::new(self.cost(), tiled, self.config.tile_size))
            }
            ExecutedMode::MultiKernel => Coster::Multi(MultiCoster::new(self.cost(), tiled.nrows)),
        }
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

    fn rhs(a: &Csr) -> Vec<f64> {
        let mut b = vec![0.0; a.nrows];
        a.matvec(&vec![1.0; a.ncols], &mut b);
        b
    }

    #[test]
    fn facade_cg_end_to_end() {
        let a = poisson1d(500);
        let b = rhs(&a);
        let solver = MilleFeuille::with_defaults(DeviceSpec::a100());
        let rep = solver.solve(&a, &b, &SolveSpec::new(Method::Cg)).unwrap();
        assert!(rep.converged);
        assert_eq!(rep.mode, ExecutedMode::SingleKernel);
        assert!(rep.warp_count > 0);
        assert!(rep.timeline.get(Phase::Preprocess) > 0.0);
        assert!(rep.solve_us() > 0.0);
        assert!(rep.tiled_memory.total() > 0);
        for v in &rep.x {
            assert!((v - 1.0).abs() < 1e-7);
        }
    }

    #[test]
    fn facade_threaded_engines_inherit_config() {
        let a = poisson1d(300);
        let b = rhs(&a);
        let solver = MilleFeuille::with_defaults(DeviceSpec::a100());
        let rep = solver
            .solve(&a, &b, &SolveSpec::new(Method::Cg).threaded(4))
            .unwrap();
        assert!(rep.converged);
        assert!(rep.failure.is_none());
        for v in &rep.x {
            assert!((v - 1.0).abs() < 1e-7);
        }
        let rep = solver
            .solve(&a, &b, &SolveSpec::new(Method::BiCgStab).threaded(4))
            .unwrap();
        assert!(rep.converged);
        assert!(rep.failure.is_none());

        // An indefinite matrix through the facade must fail *finite* within
        // the configured watchdog, with a structured failure attached.
        let mut neg = Coo::new(64, 64);
        for i in 0..64 {
            neg.push(i, i, -1.0);
        }
        let neg = neg.to_csr();
        let b = vec![1.0; 64];
        let rep = solver
            .solve(&neg, &b, &SolveSpec::new(Method::Cg).threaded(4))
            .unwrap();
        assert!(!rep.converged);
        assert!(rep.failure.is_some());
        assert!(!rep.breakdowns.is_empty());
        assert!(rep.final_relres.is_finite());
    }

    #[test]
    fn facade_workspace_reuse_gives_identical_reports() {
        let a = poisson1d(400);
        let b = rhs(&a);
        let solver = MilleFeuille::with_defaults(DeviceSpec::a100());
        let mut ws = SolverWorkspace::new();
        let rep1 = solver.solve_cg_preprocessed(&a, &solver.preprocess(&a), &b, &mut ws);
        let ptr = ws.x.as_ptr();
        let rep2 = solver.solve_cg_preprocessed(&a, &solver.preprocess(&a), &b, &mut ws);
        assert!(rep1.converged && rep2.converged);
        assert_eq!(rep1.iterations, rep2.iterations);
        assert_eq!(rep1.x, rep2.x);
        assert_eq!(rep1.final_relres, rep2.final_relres);
        assert_eq!(ws.x.as_ptr(), ptr, "buffers must be reused across solves");
    }

    #[test]
    fn auto_mode_falls_back_for_large_matrices() {
        // > 1e6 nnz forces the multi-kernel path.
        let a = poisson1d(400_000);
        assert!(a.nnz() > 1_000_000);
        let b = rhs(&a);
        let solver = MilleFeuille::new(
            DeviceSpec::a100(),
            SolverConfig {
                fixed_iterations: Some(3),
                ..SolverConfig::default()
            },
        );
        let rep = solver.solve(&a, &b, &SolveSpec::new(Method::Cg)).unwrap();
        assert_eq!(rep.mode, ExecutedMode::MultiKernel);
        assert_eq!(rep.iterations, 3);
        // Multi-kernel: launches accumulate per kernel.
        assert!(rep.timeline.get(Phase::Sync) > 6.0 * 3.0);
    }

    #[test]
    fn forced_modes() {
        let a = poisson1d(100);
        let b = rhs(&a);
        for (mode, expect) in [
            (KernelMode::SingleKernel, ExecutedMode::SingleKernel),
            (KernelMode::MultiKernel, ExecutedMode::MultiKernel),
        ] {
            let solver = MilleFeuille::new(
                DeviceSpec::a100(),
                SolverConfig {
                    kernel_mode: mode,
                    ..SolverConfig::default()
                },
            );
            let rep = solver.solve(&a, &b, &SolveSpec::new(Method::Cg)).unwrap();
            assert_eq!(rep.mode, expect);
            assert!(rep.converged);
        }
    }

    #[test]
    fn facade_bicgstab_end_to_end() {
        let mut a = Coo::new(300, 300);
        for i in 0..300 {
            a.push(i, i, 4.0);
            if i > 0 {
                a.push(i, i - 1, -1.5);
            }
            if i + 1 < 300 {
                a.push(i, i + 1, -0.5);
            }
        }
        let a = a.to_csr();
        let b = rhs(&a);
        let solver = MilleFeuille::with_defaults(DeviceSpec::mi210());
        let rep = solver
            .solve(&a, &b, &SolveSpec::new(Method::BiCgStab))
            .unwrap();
        assert!(rep.converged);
        for v in &rep.x {
            assert!((v - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn facade_preconditioned_variants() {
        let a = poisson1d(256);
        let b = rhs(&a);
        let solver = MilleFeuille::with_defaults(DeviceSpec::a100());
        let rep = solver
            .solve(&a, &b, &SolveSpec::new(Method::Pcg(PrecondKind::Ilu0)))
            .unwrap();
        assert!(rep.converged);
        assert!(rep.iterations <= 3);
        assert!(rep.timeline.get(Phase::SpTrsv) > 0.0);

        let rep2 = solver
            .solve(&a, &b, &SolveSpec::new(Method::PBiCgStab))
            .unwrap();
        assert!(rep2.converged);
    }

    #[test]
    fn ic0_preconditioned_cg() {
        let a = poisson1d(256);
        let b = rhs(&a);
        let solver = MilleFeuille::with_defaults(DeviceSpec::a100());
        let rep = solver
            .solve(&a, &b, &SolveSpec::new(Method::Pcg(PrecondKind::Ic0)))
            .unwrap();
        assert!(rep.converged);
        // IC(0) of a tridiagonal is exact Cholesky.
        assert!(rep.iterations <= 3, "{}", rep.iterations);
        for v in &rep.x {
            assert!((v - 1.0).abs() < 1e-7);
        }
        // Indefinite input is rejected.
        let mut bad = mf_sparse::Coo::new(2, 2);
        bad.push(0, 0, -1.0);
        bad.push(1, 1, 1.0);
        assert!(solver
            .solve(
                &bad.to_csr(),
                &[1.0, 1.0],
                &SolveSpec::new(Method::Pcg(PrecondKind::Ic0))
            )
            .is_err());
    }

    /// 5-point Laplacian on a `g × g` grid with noisy couplings and a
    /// dominant diagonal: SPD, full-precision tiles the re-tier controller
    /// can demote, and a non-exact ILU(0)/IC(0).
    fn noisy_grid(g: usize) -> Csr {
        let mut a = Coo::new(g * g, g * g);
        let w = |k: usize| ((k * 2654435761) % 1000) as f64 / 1000.0;
        for i in 0..g {
            for j in 0..g {
                let r = i * g + j;
                let mut diag = 0.5 + w(3 * r + 1);
                let nbrs = [
                    (i > 0).then(|| r - g),
                    (i + 1 < g).then(|| r + g),
                    (j > 0).then(|| r - 1),
                    (j + 1 < g).then_some(r + 1),
                ];
                for c in nbrs.into_iter().flatten() {
                    let v = -(1.0 + 0.2 * w(r.min(c) + r.max(c)));
                    diag += v.abs();
                    a.push(r, c, v);
                }
                a.push(r, r, diag);
            }
        }
        a.to_csr()
    }

    #[test]
    fn adaptive_retiers_every_pcg_preconditioner() {
        let a = noisy_grid(20);
        let b = rhs(&a);
        let cfg = SolverConfig {
            partial_convergence: false,
            adaptive: Some(mf_precision::AdaptiveConfig {
                period: 4,
                ..mf_precision::AdaptiveConfig::default()
            }),
            ..SolverConfig::default()
        };
        let solver = MilleFeuille::new(DeviceSpec::a100(), cfg.clone());
        let ilu = solver
            .solve(&a, &b, &SolveSpec::new(Method::Pcg(PrecondKind::Ilu0)))
            .unwrap();
        assert!(!ilu.retier_trail.is_empty(), "ILU(0)-PCG must re-tier");
        let ic = solver
            .solve(&a, &b, &SolveSpec::new(Method::Pcg(PrecondKind::Ic0)))
            .unwrap();
        assert!(!ic.retier_trail.is_empty(), "IC(0)-PCG ignored adaptive");
        let bj = solver
            .solve(
                &a,
                &b,
                &SolveSpec::new(Method::Pcg(PrecondKind::BlockJacobi(16))),
            )
            .unwrap();
        for (name, rep) in [("ic0", &ic), ("block_jacobi", &bj)] {
            assert!(rep.converged, "{name}");
            let relres = rep.true_relres(&a, &b);
            assert!(
                relres <= 10.0 * cfg.tolerance,
                "{name}: true relres {relres:e}"
            );
        }
    }

    #[test]
    fn block_jacobi_preconditioned_cg() {
        let a = poisson1d(256);
        let b = rhs(&a);
        let solver = MilleFeuille::with_defaults(DeviceSpec::a100());
        let plain = solver.solve(&a, &b, &SolveSpec::new(Method::Cg)).unwrap();
        let rep = solver
            .solve(
                &a,
                &b,
                &SolveSpec::new(Method::Pcg(PrecondKind::BlockJacobi(16))),
            )
            .unwrap();
        assert!(rep.converged, "relres {}", rep.final_relres);
        // Block-Jacobi must reduce the iteration count of plain CG.
        assert!(
            rep.iterations < plain.iterations,
            "bj {} vs plain {}",
            rep.iterations,
            plain.iterations
        );
        for v in &rep.x {
            assert!((v - 1.0).abs() < 1e-6);
        }
        assert!(rep.timeline.get(Phase::SpTrsv) > 0.0); // bj applications
    }

    #[test]
    fn fp64_only_config_disables_mixing() {
        let a = poisson1d(128);
        let b = rhs(&a);
        let solver = MilleFeuille::new(DeviceSpec::a100(), SolverConfig::fp64_only());
        let rep = solver.solve(&a, &b, &SolveSpec::new(Method::Cg)).unwrap();
        assert!(rep.converged);
        // All executed nonzeros were FP64.
        assert_eq!(rep.spmv_stats.nnz_by_prec[1], 0);
        assert_eq!(rep.spmv_stats.nnz_by_prec[2], 0);
        assert_eq!(rep.spmv_stats.nnz_by_prec[3], 0);
        assert_eq!(rep.spmv_stats.nnz_bypassed, 0);
    }

    #[test]
    fn mixed_is_modeled_faster_than_fp64_only() {
        // Integer-valued matrix: everything classifies FP8.
        let a = poisson1d(5_000);
        let b = rhs(&a);
        let mixed = MilleFeuille::new(DeviceSpec::a100(), SolverConfig::benchmark_100_iters());
        let fp64 = MilleFeuille::new(
            DeviceSpec::a100(),
            SolverConfig {
                fixed_iterations: Some(100),
                ..SolverConfig::fp64_only()
            },
        );
        let t_mixed = mixed
            .solve(&a, &b, &SolveSpec::new(Method::Cg))
            .unwrap()
            .solve_us();
        let t_fp64 = fp64
            .solve(&a, &b, &SolveSpec::new(Method::Cg))
            .unwrap()
            .solve_us();
        assert!(
            t_mixed < t_fp64,
            "mixed {t_mixed} should beat fp64 {t_fp64}"
        );
    }

    #[test]
    fn solve_auto_picks_by_structure() {
        let spd = poisson1d(100);
        let b = rhs(&spd);
        let solver = MilleFeuille::with_defaults(DeviceSpec::a100());
        let rep = solver.solve(&spd, &b, &SolveSpec::auto()).unwrap();
        assert!(rep.converged);
        // True residual matches the recurrence on this benign system.
        assert!(rep.true_relres(&spd, &b) < 1e-9);

        let mut nonsym = Coo::new(60, 60);
        for i in 0..60 {
            nonsym.push(i, i, 4.0);
            if i > 0 {
                nonsym.push(i, i - 1, -1.5);
            }
            if i + 1 < 60 {
                nonsym.push(i, i + 1, -0.5);
            }
        }
        let nonsym = nonsym.to_csr();
        let bn = rhs(&nonsym);
        let rep = solver.solve(&nonsym, &bn, &SolveSpec::auto()).unwrap();
        assert!(rep.converged);
        assert!(rep.true_relres(&nonsym, &bn) < 1e-9);
    }

    #[test]
    fn unsupported_specs_fail_typed_before_any_work() {
        let a = poisson1d(64);
        let b = rhs(&a);
        let solver = MilleFeuille::with_defaults(DeviceSpec::a100());
        let ilu = mf_kernels::ilu0(&a).unwrap();
        let ic0 = SolveSpec::new(Method::Pcg(PrecondKind::Ic0));
        let rejected = [
            SolveSpec::auto().threaded(2),
            SolveSpec::new(Method::Cg).threaded(0),
            ic0.threaded(2),
            SolveSpec::new(Method::PBiCgStab).pipelined(),
            SolveSpec::new(Method::BiCgStab).threaded(2).pipelined(),
            SolveSpec::new(Method::Cg).threaded(2).pipelined(),
            SolveSpec::new(Method::Pcg(PrecondKind::Ilu0))
                .threaded(2)
                .pipelined(),
            SolveSpec::new(Method::Cg).with_factors(Precond::Ilu0(&ilu)),
            ic0.with_factors(Precond::Ilu0(&ilu)),
        ];
        for spec in rejected {
            assert!(
                matches!(solver.solve(&a, &b, &spec), Err(SolveError::Unsupported(_))),
                "{spec:?}"
            );
        }
        // Auto on the classic-only paths is a choice, not a fallback: it
        // runs exactly the classic schedule.
        for spec in [
            SolveSpec::new(Method::BiCgStab),
            SolveSpec::new(Method::PBiCgStab).threaded(2),
            SolveSpec::new(Method::Cg).threaded(2),
            SolveSpec::new(Method::Pcg(PrecondKind::Ilu0)).threaded(2),
        ] {
            let auto = SolveSpec {
                pipeline: PipelineMode::Auto,
                ..spec
            };
            let (auto, classic) = (
                solver.solve(&a, &b, &auto).unwrap(),
                solver.solve(&a, &b, &spec).unwrap(),
            );
            assert!(auto.converged, "{spec:?}");
            assert_eq!(auto.iterations, classic.iterations, "{spec:?}");
            let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&auto.x), bits(&classic.x), "{spec:?}");
        }
    }

    #[test]
    fn supplied_factors_match_facade_built_ones_on_every_engine() {
        let a = poisson1d(200);
        let b = rhs(&a);
        let solver = MilleFeuille::with_defaults(DeviceSpec::a100());
        let ilu = mf_kernels::ilu0(&a).unwrap();
        let ilu0 = SolveSpec::new(Method::Pcg(PrecondKind::Ilu0));
        for spec in [ilu0, ilu0.pipelined(), ilu0.threaded(2)] {
            let built = solver.solve(&a, &b, &spec).unwrap();
            let given = solver
                .solve(&a, &b, &spec.with_factors(Precond::Ilu0(&ilu)))
                .unwrap();
            assert_eq!(built.x, given.x, "{spec:?}");
            assert_eq!(built.iterations, given.iterations, "{spec:?}");
        }
    }

    #[test]
    fn engine_reports_carry_preprocessing_and_their_section() {
        let a = poisson1d(200);
        let b = rhs(&a);
        let solver = MilleFeuille::with_defaults(DeviceSpec::a100());
        let cg = SolveSpec::new(Method::Cg);
        let rep = solver.solve(&a, &b, &cg.threaded(2)).unwrap();
        assert!(rep.converged);
        assert_eq!(rep.mode, ExecutedMode::SingleKernel);
        assert_eq!(rep.preprocess_passes, 1);
        assert_eq!(rep.csr_memory, a.memory_bytes());
        assert!(rep.timeline.get(Phase::Preprocess) > 0.0);
        assert!(rep.warp_count >= 1);
        let Some(crate::report::EngineSection::Threaded { .. }) = &rep.engine else {
            panic!("the threaded engine reported {:?}", rep.engine)
        };
        assert_eq!(rep.last_progress().len(), rep.warp_count);
        let seq = solver.solve(&a, &b, &cg).unwrap();
        assert!(seq.engine.is_none() && seq.injected_faults().is_none());
    }

    #[test]
    fn facade_threaded_preconditioned_end_to_end() {
        let a = poisson1d(300);
        let b = rhs(&a);
        let solver = MilleFeuille::with_defaults(DeviceSpec::a100());
        let rep = solver
            .solve(
                &a,
                &b,
                &SolveSpec::new(Method::Pcg(PrecondKind::Ilu0)).threaded(4),
            )
            .unwrap();
        assert!(rep.converged);
        assert!(rep.failure.is_none());
        // ILU(0) is exact on a tridiagonal system.
        assert!(rep.iterations <= 3, "{}", rep.iterations);
        for v in &rep.x {
            assert!((v - 1.0).abs() < 1e-7);
        }
        let rep = solver
            .solve(&a, &b, &SolveSpec::new(Method::PBiCgStab).threaded(4))
            .unwrap();
        assert!(rep.converged);
        assert!(rep.failure.is_none());
        for v in &rep.x {
            assert!((v - 1.0).abs() < 1e-6);
        }
        // A structurally zero diagonal is no longer a hard failure: the
        // boosted ILU(0) retries on A + αI and records every attempt as a
        // FactorShift breakdown event on the threaded report.
        let mut zero_diag = Coo::new(4, 4);
        zero_diag.push(0, 1, 1.0);
        zero_diag.push(1, 0, 1.0);
        zero_diag.push(2, 2, 1.0);
        zero_diag.push(3, 3, 1.0);
        let rep = solver
            .solve(
                &zero_diag.to_csr(),
                &[1.0; 4],
                &SolveSpec::new(Method::Pcg(PrecondKind::Ilu0)).threaded(2),
            )
            .unwrap();
        let shift_events = rep
            .breakdowns
            .iter()
            .filter(|e| e.kind == crate::report::BreakdownKind::FactorShift)
            .count();
        assert!(shift_events >= 1, "boosting attempts must be recorded");
        assert!(rep.final_relres.is_finite());
        // Unrepairable factorization failures still propagate as Err, not a
        // panic: no diagonal shift fixes a shape error.
        let rect = Coo::new(2, 3).to_csr();
        assert!(solver
            .solve(
                &rect,
                &[1.0; 2],
                &SolveSpec::new(Method::Pcg(PrecondKind::Ilu0)).threaded(2)
            )
            .is_err());
    }

    /// A symmetric matrix with positive diagonal and 38/40 = 0.95 > 0.9
    /// diagonally dominant rows passes `likely_spd`, but the trailing
    /// [[1, 5], [5, 1]] block (eigenvalues 6 and −4) makes it indefinite:
    /// CG aborts on curvature breakdowns. Auto must re-dispatch to
    /// BiCGSTAB, record the handoff, and still solve the system.
    #[test]
    fn solve_auto_switches_solver_on_curvature_breakdown() {
        use crate::report::{BreakdownKind, RecoveryAction};
        let n = 40;
        let mut a = Coo::new(n, n);
        for i in 0..n - 2 {
            a.push(i, i, 4.0);
            if i > 0 {
                a.push(i, i - 1, -1.0);
            }
            if i + 1 < n - 2 {
                a.push(i, i + 1, -1.0);
            }
        }
        a.push(n - 2, n - 2, 1.0);
        a.push(n - 2, n - 1, 5.0);
        a.push(n - 1, n - 2, 5.0);
        a.push(n - 1, n - 1, 1.0);
        let a = a.to_csr();
        assert!(
            mf_sparse::MatrixStats::compute(&a).likely_spd(),
            "fixture must fool the SPD heuristic"
        );
        // RHS concentrated in the indefinite block: p₀ = b has
        // bᵀAb = [1,−1]·[[1,5],[5,1]]·[1,−1]ᵀ = −8 < 0, so CG hits the
        // curvature breakdown immediately and restarting from the residual
        // is a fixed point.
        let mut b = vec![0.0; n];
        b[n - 2] = 1.0;
        b[n - 1] = -1.0;

        let solver = MilleFeuille::with_defaults(DeviceSpec::a100());
        // CG alone breaks down on this system (prerequisite of the test).
        let cg = solver.solve(&a, &b, &SolveSpec::new(Method::Cg)).unwrap();
        assert!(cg.failure.is_some(), "CG should abort: {:?}", cg.failure);
        assert!(cg
            .breakdowns
            .iter()
            .any(|e| e.kind == BreakdownKind::Curvature));

        let rep = solver.solve(&a, &b, &SolveSpec::auto()).unwrap();
        assert!(rep.converged, "relres {}", rep.final_relres);
        assert!(rep.failure.is_none());
        assert!(rep.true_relres(&a, &b) < 1e-8);
        let switch = rep
            .breakdowns
            .iter()
            .filter(|e| e.action == RecoveryAction::SwitchedSolver)
            .count();
        assert_eq!(switch, 1, "exactly one handoff event: {:?}", rep.breakdowns);
        assert_eq!(rep.status_label(), "converged");
    }

    /// Regression: the CG→BiCGSTAB re-dispatch used to preprocess the
    /// matrix a second time and silently discard CG's pre-switch residual
    /// trajectory. The handoff report must charge exactly one preprocessing
    /// pass and carry CG's history ahead of BiCGSTAB's.
    #[test]
    fn solve_auto_handoff_reuses_preprocessing_and_keeps_cg_history() {
        use crate::report::RecoveryAction;
        // Same SPD-heuristic-fooling fixture as the switch test.
        let n = 40;
        let mut a = Coo::new(n, n);
        for i in 0..n - 2 {
            a.push(i, i, 4.0);
            if i > 0 {
                a.push(i, i - 1, -1.0);
            }
            if i + 1 < n - 2 {
                a.push(i, i + 1, -1.0);
            }
        }
        a.push(n - 2, n - 2, 1.0);
        a.push(n - 2, n - 1, 5.0);
        a.push(n - 1, n - 2, 5.0);
        a.push(n - 1, n - 1, 1.0);
        let a = a.to_csr();
        let mut b = vec![0.0; n];
        b[n - 2] = 1.0;
        b[n - 1] = -1.0;

        let solver = MilleFeuille::new(
            DeviceSpec::a100(),
            SolverConfig {
                trace_residuals: true,
                ..SolverConfig::default()
            },
        );
        let cg = solver.solve(&a, &b, &SolveSpec::new(Method::Cg)).unwrap();
        assert!(cg.failure.is_some(), "prerequisite: CG must abort");
        let cg_iters = cg.iterations;
        assert!(cg_iters > 0 && !cg.residual_history.is_empty());

        let rep = solver.solve(&a, &b, &SolveSpec::auto()).unwrap();
        assert!(rep.converged);
        assert_eq!(
            rep.preprocess_passes, 1,
            "handoff must reuse the first CSR→tiled pass"
        );
        assert!(
            rep.breakdowns
                .iter()
                .any(|e| e.action == RecoveryAction::SwitchedSolver),
            "this report is a handoff report"
        );
        // CG's pre-switch residuals lead the merged history, bitwise.
        assert!(rep.residual_history.len() > cg_iters);
        assert_eq!(&rep.residual_history[..cg_iters], &cg.residual_history[..]);
        // The modeled timeline charges preprocessing once: the handoff
        // report's Preprocess share equals a plain BiCGSTAB solve's.
        let plain = solver
            .solve(&a, &b, &SolveSpec::new(Method::BiCgStab))
            .unwrap();
        assert_eq!(
            rep.timeline.get(Phase::Preprocess),
            plain.timeline.get(Phase::Preprocess)
        );
    }

    #[test]
    fn facade_pipelined_end_to_end() {
        let a = poisson1d(500);
        let b = rhs(&a);
        let solver = MilleFeuille::with_defaults(DeviceSpec::a100());
        let rep = solver
            .solve(&a, &b, &SolveSpec::new(Method::Cg).pipelined())
            .unwrap();
        assert!(rep.converged);
        assert_eq!(rep.mode, ExecutedMode::SingleKernel);
        for v in &rep.x {
            assert!((v - 1.0).abs() < 1e-7);
        }
        let rep = solver
            .solve(
                &a,
                &b,
                &SolveSpec::new(Method::Pcg(PrecondKind::Ilu0)).pipelined(),
            )
            .unwrap();
        assert!(rep.converged);
        assert!(rep.iterations <= 4, "{}", rep.iterations);
        assert!(rep.timeline.get(Phase::SpTrsv) > 0.0);
    }

    #[test]
    fn pipeline_mode_knob_is_honored() {
        let a = poisson1d(256);
        let b = rhs(&a);
        let tiled = TiledMatrix::from_csr(&a);
        let solver = MilleFeuille::with_defaults(DeviceSpec::a100());
        let single = ExecutedMode::SingleKernel;

        assert!(!solver.decide_pipeline(&tiled, single, PipelineMode::Classic));
        assert!(solver.decide_pipeline(&tiled, single, PipelineMode::Pipelined));
        // Auto: a small single-kernel system is synchronization-dominated,
        // so the barrier savings clear the margin; multi-kernel mode never
        // pipelines under Auto (nothing to save).
        assert!(solver.decide_pipeline(&tiled, single, PipelineMode::Auto));
        assert!(!solver.decide_pipeline(&tiled, ExecutedMode::MultiKernel, PipelineMode::Auto));

        // Auto with the schedule forced converges through either path.
        for pipeline in [PipelineMode::Classic, PipelineMode::Pipelined] {
            let spec = SolveSpec {
                pipeline,
                ..SolveSpec::auto()
            };
            let rep = solver.solve(&a, &b, &spec).unwrap();
            assert!(rep.converged, "{pipeline:?}");
            assert!(rep.true_relres(&a, &b) < 1e-9, "{pipeline:?}");
        }
    }

    #[test]
    fn pipelined_timeline_charges_fewer_sync_epochs() {
        // Same fixed iteration count, same matrix: the pipelined solve's
        // modeled Wait share must be below classic (1 barrier epoch per
        // iteration instead of 6) while the arithmetic phases match.
        let a = poisson1d(512);
        let b = rhs(&a);
        let solver = MilleFeuille::new(
            DeviceSpec::a100(),
            SolverConfig {
                fixed_iterations: Some(50),
                partial_convergence: false,
                ..SolverConfig::default()
            },
        );
        let classic = solver.solve(&a, &b, &SolveSpec::new(Method::Cg)).unwrap();
        let piped = solver
            .solve(&a, &b, &SolveSpec::new(Method::Cg).pipelined())
            .unwrap();
        assert_eq!(classic.mode, ExecutedMode::SingleKernel);
        assert_eq!(classic.iterations, 50);
        assert_eq!(piped.iterations, 50);
        assert!(
            piped.timeline.get(Phase::Wait) < 0.5 * classic.timeline.get(Phase::Wait),
            "pipelined Wait {} vs classic {}",
            piped.timeline.get(Phase::Wait),
            classic.timeline.get(Phase::Wait)
        );
    }

    #[test]
    fn memory_report_matches_fig13_accounting() {
        let a = poisson1d(1_000);
        let b = rhs(&a);
        let solver = MilleFeuille::with_defaults(DeviceSpec::a100());
        let rep = solver.solve(&a, &b, &SolveSpec::new(Method::Cg)).unwrap();
        assert_eq!(rep.csr_memory, a.memory_bytes());
        assert_eq!(
            rep.tiled_memory.total(),
            TiledMatrix::from_csr(&a).memory_bytes().total()
        );
    }

    fn with_threads(threads: usize) -> MilleFeuille {
        MilleFeuille::new(
            DeviceSpec::a100(),
            SolverConfig {
                host_parallelism: crate::config::HostParallelism::Threads(threads),
                ..SolverConfig::default()
            },
        )
    }

    #[test]
    fn preprocess_alongside_times_tiles_and_factorization() {
        let a = poisson1d(64);
        let nap = std::time::Duration::from_millis(20);
        for threads in [1, 2, 3] {
            let (pre, out) = with_threads(threads).preprocess_alongside(&a, || {
                std::thread::sleep(nap);
                7
            });
            assert_eq!(out, 7);
            assert!(
                pre.wall_us >= nap.as_secs_f64() * 1e6,
                "{threads} threads: wall {} µs misses the factorization",
                pre.wall_us
            );
        }
    }

    #[test]
    fn preprocess_alongside_reraises_factor_panics() {
        let a = poisson1d(64);
        for threads in [1, 2] {
            let run = || {
                with_threads(threads).preprocess_alongside(&a, || -> u8 { panic!("factor failed") })
            };
            let Err(caught) = std::panic::catch_unwind(run) else {
                panic!("{threads} threads: the factor panic must reach the caller");
            };
            assert_eq!(caught.downcast_ref::<&str>(), Some(&"factor failed"));
        }
    }
}
