//! # mf-kernels
//!
//! Computational kernels for the Mille-feuille reproduction. All numerics
//! here are *exact* (the modeled GPU time lives in `mf-gpu`): these are the
//! operations the GPU kernels would perform, bit-faithful with respect to
//! the storage precisions involved.
//!
//! * [`blas1`] — dot, AXPY and friends, plus the fused pipelined updates.
//! * [`spmv`] — CSR SpMV, tiled SpMV, and the **mixed-precision SpMV with
//!   tile bypass** of paper Algorithm 5 operating on the "shared memory"
//!   copy of the tiles.
//! * [`spmm`] — blocked multi-right-hand-side variants (SpMM + per-column
//!   BLAS1) that amortize one tile pass across `k` vectors for the serving
//!   layer, bitwise identical per column to the single-vector kernels.
//! * [`visflag`] — the convergent-elements retrieval of paper Algorithm 4
//!   producing the per-column-segment `vis_flag` demands.
//! * [`sptrsv`] — sparse triangular solves: naive, level-scheduled analysis,
//!   and the recursive-block algorithm (paper §III-C, ref. \[41\]) used by the
//!   preconditioned solvers.
//! * [`ilu`] — ILU(0) and IC(0) factorizations for the PCG/PBiCGSTAB
//!   variants.
//! * [`shard`] — per-shard tile views with halo columns and the
//!   sequential-span triangular solves used by the multi-device sharded
//!   engine.

pub mod blas1;
pub mod block_jacobi;
pub mod ilu;
pub mod shard;
pub mod spmm;
pub mod spmv;
pub mod sptrsv;
pub mod visflag;

pub use block_jacobi::BlockJacobi;
pub use ilu::{
    diag_shifted, ic0, ic0_row, ilu0, ilu0_boosted, ilu0_row, initial_boost_shift, CholRowsView,
    FactorError, FactorRow, FactorRowsView, Ic0, Ic0Rows, Ic0Scratch, Ilu0, Ilu0Rows, IluScratch,
    MAX_FACTOR_SHIFTS,
};
pub use shard::{sptrsv_lower_span, sptrsv_upper_span, ShardView};
pub use spmm::{axpy_block, col, col_mut, dot_block, spmm_mixed, xpay_block};
pub use spmv::{spmv_csr, spmv_mixed, spmv_mixed_par, spmv_tiled, MixedSpmvStats, SharedTiles};
pub use sptrsv::{
    level_schedule, sptrsv_lower, sptrsv_lower_into, sptrsv_lower_recursive,
    sptrsv_lower_recursive_into, sptrsv_upper, sptrsv_upper_into, sptrsv_upper_recursive,
    sptrsv_upper_recursive_into, LevelSchedule, RecursiveTrsvStats,
};
pub use visflag::{retrieve_vis_flags, VisFlag};
