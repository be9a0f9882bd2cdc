//! Blocked (multi-right-hand-side) conjugate gradients for the serving
//! layer.
//!
//! [`run_cg_block_ws`] advances `k` independent CG recurrences on the same
//! operator in lockstep, amortizing the dominant cost — the pass over the
//! tiled matrix — across all right-hand sides with one
//! [`mf_kernels::spmm_mixed`] call per iteration instead of `k` SpMVs.
//! Every scalar (α, β, ρ) and every vector update is per-column, so each
//! column executes *exactly* the floating-point sequence of
//! [`crate::cg::run_cg`] with the partial-convergence strategy disabled
//! — a batched solve is bitwise identical to the `k` independent solves it
//! replaces (pinned by `tests/block_parity.rs`).
//!
//! Columns leave the lockstep individually:
//!
//! * **converged** — relres below tolerance: the column freezes (its `x`
//!   is final, the SpMM skips it) while the rest keep iterating;
//! * **detached** — the column hit a breakdown (non-SPD curvature,
//!   non-finite scalar) or its residual diverged from the batch by more
//!   than `SPREAD_DETACH_RATIO` (10⁸): the blocked core does not
//!   replicate the single-RHS restart machinery, it hands the column back
//!   for an individual [`crate::cg::run_cg`] solve (which the serving
//!   layer performs automatically — and which is itself bitwise what a
//!   never-batched request would have run).

use crate::config::SolverConfig;
use crate::coster::Coster;
use mf_gpu::Timeline;
use mf_kernels::spmm::{axpy_block, col, col_mut, dot_block};
use mf_kernels::{blas1, spmm_mixed, MixedSpmvStats, SharedTiles, VisFlag};
use mf_sparse::TiledMatrix;

/// Detach a column whose relative residual exceeds the best *active*
/// column's by this factor (the batch would otherwise burn shared SpMM
/// passes pacing a straggler).
const SPREAD_DETACH_RATIO: f64 = 1e8;

/// Grace period: spread detach only fires after this many iterations, so
/// transient early-iteration spread doesn't eject columns that would have
/// tracked the batch fine.
const SPREAD_DETACH_AFTER: usize = 32;

/// Why a column left the lockstep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColumnStatus {
    /// Converged by the relative-residual criterion; `x` is final.
    Converged,
    /// Ran to the iteration cap without converging; `x` is the last
    /// iterate.
    Exhausted,
    /// Left the batch (breakdown or residual spread); `x` is meaningless —
    /// re-solve this right-hand side individually.
    Detached,
}

/// Per-column outcome of a blocked solve.
#[derive(Clone, Debug)]
pub struct ColumnResult {
    /// Final iterate (meaningful unless [`ColumnStatus::Detached`]).
    pub x: Vec<f64>,
    /// Iterations this column executed before freezing.
    pub iterations: usize,
    /// Terminal state.
    pub status: ColumnStatus,
    /// Final relative residual from the recurrence.
    pub final_relres: f64,
}

/// Output of [`run_cg_block_ws`].
#[derive(Clone, Debug)]
pub struct BlockResult {
    /// One entry per right-hand side, in input order.
    pub columns: Vec<ColumnResult>,
    /// Shared SpMM passes executed (the amortized iteration count).
    pub spmm_passes: usize,
    /// Modeled time of the batched loop.
    pub timeline: Timeline,
    /// Accumulated matrix-pass statistics (one pass per iteration, however
    /// many columns were active).
    pub spmv_stats: MixedSpmvStats,
}

impl BlockResult {
    /// Indices of columns that must be re-solved individually.
    pub fn detached(&self) -> Vec<usize> {
        self.columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.status == ColumnStatus::Detached)
            .map(|(i, _)| i)
            .collect()
    }
}

/// Reusable buffers of the blocked core — the multi-vector analogue of
/// [`crate::workspace::SolverWorkspace`]. `ensure` zero-fills, so reuse
/// across batches (and across different `n`/`k`) can never leak state.
#[derive(Debug, Default)]
pub struct BlockWorkspace {
    x: Vec<f64>,
    r: Vec<f64>,
    p: Vec<f64>,
    u: Vec<f64>,
    rr: Vec<f64>,
    scalar: Vec<f64>,
    norm_b: Vec<f64>,
    relres: Vec<f64>,
    active: Vec<bool>,
}

impl BlockWorkspace {
    pub fn new() -> BlockWorkspace {
        BlockWorkspace::default()
    }

    fn ensure(&mut self, n: usize, k: usize) {
        for v in [&mut self.x, &mut self.r, &mut self.p, &mut self.u] {
            v.clear();
            v.resize(n * k, 0.0);
        }
        for v in [
            &mut self.rr,
            &mut self.scalar,
            &mut self.norm_b,
            &mut self.relres,
        ] {
            v.clear();
            v.resize(k, 0.0);
        }
        self.active.clear();
        self.active.resize(k, false);
    }
}

/// Blocked CG: solves `A · X[:, j] = B[:, j]` for `k` right-hand sides in
/// lockstep. `b` is column-major `n × k` ([`mf_kernels::spmm::col`]
/// layout). Runs with the partial-convergence strategy disabled
/// (all-`Keep` flags) — the per-column parity contract requires the shared
/// tile state to evolve identically to a single-RHS solve with
/// `partial_convergence: false`, which an all-`Keep` run guarantees (no
/// dynamic lowering ever fires).
///
/// [`SolverConfig::adaptive`] is ignored here for the same reason, only
/// more so: a re-tier plan is a function of one residual trajectory, and a
/// batch has `k` of them — any plan the lockstep applied to the *shared*
/// tile state would make each column's arithmetic depend on its
/// batch-mates, breaking the bitwise-independence contract. The serving
/// layer therefore never routes an adaptive config through the blocked
/// core: mf-serve's `solve_batch` falls back to `k` independent
/// single-RHS adaptive solves (each with its own [`SharedTiles`] and its
/// own controller), which is the only grouping-invariant semantics.
///
/// # Panics
///
/// If `m` is not square, `k` is 0 or `b.len() != m.nrows * k`.
pub fn run_cg_block_ws(
    m: &TiledMatrix,
    shared: &mut SharedTiles,
    b: &[f64],
    k: usize,
    cfg: &SolverConfig,
    coster: &Coster,
    ws: &mut BlockWorkspace,
) -> BlockResult {
    let n = m.nrows;
    assert_eq!(m.nrows, m.ncols, "CG needs a square (SPD) matrix");
    assert!(k > 0, "empty batch");
    assert_eq!(b.len(), n * k, "b must be n × k column-major");

    let mut tl = Timeline::new();
    coster.solve_start(&mut tl);

    let flags: Vec<VisFlag> = vec![VisFlag::Keep; m.tile_cols.max(1)];
    ws.ensure(n, k);
    let mut columns: Vec<ColumnResult> = (0..k)
        .map(|_| ColumnResult {
            x: Vec::new(),
            iterations: 0,
            status: ColumnStatus::Exhausted,
            final_relres: f64::INFINITY,
        })
        .collect();

    // x0 = 0 ⇒ r0 = b, p0 = r0, per column; ‖b‖ = 0 columns are solved
    // exactly by x = 0 before the loop, matching the single-RHS early
    // return.
    for (j, column) in columns.iter_mut().enumerate() {
        let bj = col(b, n, j);
        let nb = blas1::norm2(bj);
        ws.norm_b[j] = nb;
        if nb == 0.0 {
            column.status = ColumnStatus::Converged;
            column.final_relres = 0.0;
            continue;
        }
        ws.active[j] = true;
        col_mut(&mut ws.r, n, j).copy_from_slice(bj);
        col_mut(&mut ws.p, n, j).copy_from_slice(bj);
        ws.rr[j] = blas1::dot(bj, bj);
    }

    let mut result = BlockResult {
        columns: Vec::new(),
        spmm_passes: 0,
        timeline: Timeline::new(),
        spmv_stats: MixedSpmvStats::default(),
    };

    for _ in 0..cfg.max_iter {
        if !ws.active.iter().any(|&a| a) {
            break;
        }
        // ---- Step A (shared): one SpMM pass U[:, j] = A · P[:, j] over
        // every still-active column.
        let stats = spmm_mixed(m, shared, &flags, &ws.p, &mut ws.u, &ws.active);
        result.spmv_stats.merge(&stats);
        result.spmm_passes += 1;
        coster.spmv(&mut tl, m, shared, &flags, &stats);

        // ---- Step B (per column): α = (r,r)/(µ,p); detach on breakdown.
        dot_block(&ws.u, &ws.p, n, &ws.active, &mut ws.scalar);
        for (j, column) in columns.iter_mut().enumerate() {
            if !ws.active[j] {
                continue;
            }
            coster.dot(&mut tl, true);
            let py = ws.scalar[j];
            let alpha = ws.rr[j] / py;
            if !alpha.is_finite() || py <= 0.0 {
                ws.active[j] = false;
                column.status = ColumnStatus::Detached;
                continue;
            }
            ws.scalar[j] = alpha;
        }

        // ---- Step C (per column): x += αp; r −= αµ; ρ' = (r,r).
        axpy_block(&ws.scalar, &ws.p, &mut ws.x, n, &ws.active);
        for j in 0..k {
            if ws.active[j] {
                blas1::axpy(-ws.scalar[j], col(&ws.u, n, j), col_mut(&mut ws.r, n, j));
                coster.axpy(&mut tl, 2);
            }
        }
        // ρ' overwrites α in `scalar` — α is fully consumed above.
        dot_block(&ws.r, &ws.r, n, &ws.active, &mut ws.scalar);

        // ---- Step D (per column): β = ρ'/ρ; p = r + βp; convergence.
        let mut best_active = f64::INFINITY;
        for (j, column) in columns.iter_mut().enumerate() {
            if !ws.active[j] {
                continue;
            }
            coster.dot(&mut tl, true);
            let rr_new = ws.scalar[j];
            if !rr_new.is_finite() {
                ws.active[j] = false;
                column.status = ColumnStatus::Detached;
                continue;
            }
            let beta = rr_new / ws.rr[j];
            ws.rr[j] = rr_new;
            blas1::xpay(col(&ws.r, n, j), beta, col_mut(&mut ws.p, n, j));
            coster.axpy(&mut tl, 1);
            column.iterations += 1;
            let relres = rr_new.sqrt() / ws.norm_b[j];
            column.final_relres = relres;
            ws.relres[j] = relres;
            if relres < cfg.tolerance {
                ws.active[j] = false;
                column.status = ColumnStatus::Converged;
            } else {
                best_active = best_active.min(relres);
            }
        }
        coster.iteration_end(&mut tl);

        // ---- Spread detach: a straggler orders of magnitude behind the
        // best active column wastes the batch's shared passes — hand it
        // back for an individual solve.
        if result.spmm_passes >= SPREAD_DETACH_AFTER {
            for (j, column) in columns.iter_mut().enumerate() {
                if ws.active[j] && ws.relres[j] > best_active * SPREAD_DETACH_RATIO {
                    ws.active[j] = false;
                    column.status = ColumnStatus::Detached;
                }
            }
        }
    }

    for (j, c) in columns.iter_mut().enumerate() {
        c.x = if c.status == ColumnStatus::Detached {
            Vec::new()
        } else {
            col(&ws.x, n, j).to_vec()
        };
    }
    result.columns = columns;
    result.timeline = tl;
    result
}
