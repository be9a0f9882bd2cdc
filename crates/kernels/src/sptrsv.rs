//! Sparse triangular solves (SpTRSV).
//!
//! The preconditioned solvers (paper §III-C last paragraph, §IV-C) apply
//! `M z = r` with `M = L U` from ILU(0), which needs two triangular solves
//! per iteration. The host runs one order:
//!
//! * [`sptrsv_lower`] / [`sptrsv_upper`] and their allocation-free `_into`
//!   forms — plain substitution, each row's entries combined in CSR order.
//!   Every engine solves with it: the sequential cores and the serving
//!   layer through `Ilu0::apply_into` / `Ic0::apply_into`, the threaded
//!   engines row by row in the same order.
//!
//! Two analyses feed the cost model:
//!
//! * [`level_schedule`] — dependency levels; their number is what makes
//!   SpTRSV latency-bound on GPUs.
//! * [`RecursiveTrsvStats::of`] — the work split of the **recursive block
//!   algorithm** (ref. \[41\]) the paper runs on the GPU: a triangle is split
//!   into two smaller triangles and one square block, the square block is
//!   applied with SpMV (parallel-friendly), and the triangles recurse. It is
//!   a schedule, not different numerics, so it is priced from these
//!   statistics and never executed on the host, as with the Algorithm-3
//!   `d_s` SpMV hand-off.

use mf_sparse::Csr;

/// Forward substitution `L x = b`. `unit_diag` treats the diagonal as 1
/// (entries on the diagonal are ignored if present).
///
/// # Panics
/// Panics (in debug) if a non-unit diagonal entry is missing or zero.
pub fn sptrsv_lower(l: &Csr, b: &[f64], unit_diag: bool) -> Vec<f64> {
    let mut x = vec![0.0; b.len()];
    sptrsv_lower_into(l, b, &mut x, unit_diag);
    x
}

/// Backward substitution `U x = b`.
pub fn sptrsv_upper(u: &Csr, b: &[f64], unit_diag: bool) -> Vec<f64> {
    let mut x = vec![0.0; b.len()];
    sptrsv_upper_into(u, b, &mut x, unit_diag);
    x
}

/// Allocation-free [`sptrsv_lower`]: solves `L x = b` into `x`
/// (`x.len() == b.len()`); the allocating variant calls it. It reads only
/// solved entries of `x`, so `x` needs no initial value. This is the
/// summation-order reference for the threaded in-kernel
/// SpTRSV — both combine each row's stored entries in CSR order.
pub fn sptrsv_lower_into(l: &Csr, b: &[f64], x: &mut [f64], unit_diag: bool) {
    assert_eq!(l.nrows, l.ncols);
    assert_eq!(b.len(), l.nrows);
    assert_eq!(x.len(), l.nrows);
    for r in 0..l.nrows {
        let mut sum = 0.0;
        let mut diag = if unit_diag { 1.0 } else { 0.0 };
        for (c, v) in l.row(r) {
            if c < r {
                sum += v * x[c];
            } else if c == r && !unit_diag {
                diag = v;
            }
        }
        debug_assert!(diag != 0.0, "zero diagonal at row {r}");
        x[r] = (b[r] - sum) / diag;
    }
}

/// Allocation-free [`sptrsv_upper`]: solves `U x = b` into `x`.
pub fn sptrsv_upper_into(u: &Csr, b: &[f64], x: &mut [f64], unit_diag: bool) {
    assert_eq!(u.nrows, u.ncols);
    assert_eq!(b.len(), u.nrows);
    assert_eq!(x.len(), u.nrows);
    for r in (0..u.nrows).rev() {
        let mut sum = 0.0;
        let mut diag = if unit_diag { 1.0 } else { 0.0 };
        for (c, v) in u.row(r) {
            if c > r {
                sum += v * x[c];
            } else if c == r && !unit_diag {
                diag = v;
            }
        }
        debug_assert!(diag != 0.0, "zero diagonal at row {r}");
        x[r] = (b[r] - sum) / diag;
    }
}

/// Dependency levels of a triangular solve.
#[derive(Clone, Debug, PartialEq)]
pub struct LevelSchedule {
    /// Level of each row (0-based). Rows in the same level are independent.
    pub level_of: Vec<usize>,
    /// Number of levels — the sequential depth of the solve.
    pub num_levels: usize,
    /// Rows per level.
    pub level_sizes: Vec<usize>,
}

/// Computes the dependency levels of a (structurally) triangular matrix.
/// `lower = true` analyses `L` (dependencies are columns `< r`), otherwise
/// `U` (columns `> r`).
pub fn level_schedule(t: &Csr, lower: bool) -> LevelSchedule {
    let n = t.nrows;
    let mut level_of = vec![0usize; n];
    let mut num_levels = 0usize;
    let rows: Box<dyn Iterator<Item = usize>> = if lower {
        Box::new(0..n)
    } else {
        Box::new((0..n).rev())
    };
    for r in rows {
        let mut lvl = 0usize;
        for (c, _) in t.row(r) {
            let dep = if lower { c < r } else { c > r };
            if dep {
                lvl = lvl.max(level_of[c] + 1);
            }
        }
        level_of[r] = lvl;
        num_levels = num_levels.max(lvl + 1);
    }
    let mut level_sizes = vec![0usize; num_levels];
    for &l in &level_of {
        level_sizes[l] += 1;
    }
    LevelSchedule {
        level_of,
        num_levels,
        level_sizes,
    }
}

/// Default leaf size of the recursive algorithm.
pub const DEFAULT_TRSV_LEAF: usize = 64;

/// Work statistics of a recursive-block triangular solve, consumed by the
/// cost model (the square-block SpMV part is parallel, the leaf part is
/// level-bound only within each leaf).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RecursiveTrsvStats {
    /// Leaf triangles solved by substitution.
    pub leaves: usize,
    /// Rows of the largest leaf (bounds each leaf's sequential depth).
    pub max_leaf_rows: usize,
    /// Nonzeros applied in square-block SpMV updates (parallel work).
    pub spmv_nnz: usize,
    /// Nonzeros consumed inside leaf substitutions (sequential-ish work).
    pub trsv_nnz: usize,
    /// Recursion depth reached.
    pub depth: usize,
}

impl RecursiveTrsvStats {
    /// The statistics the recursive-block solve of ref. \[41\] would
    /// record on `t` (lower triangle when `lower`, else upper) with leaves
    /// of at most `leaf` rows; a `leaf` of 0 is treated as 1, since a 0-row
    /// leaf could never end the halving. They depend only on the structure:
    /// a dependency entry counts as leaf work when its column lies in its
    /// row's leaf and as square-block SpMV work otherwise. One counting
    /// pass over the entries, after a walk of the halving tree's
    /// O(n / leaf) nodes.
    pub fn of(t: &Csr, lower: bool, leaf: usize) -> RecursiveTrsvStats {
        let mut stats = RecursiveTrsvStats::default();
        let mut starts = Vec::new();
        if t.nrows > 0 {
            halve(0, t.nrows, leaf.max(1), 1, &mut stats, &mut starts);
        }
        starts.push(t.nrows);
        let mut k = 0;
        for r in 0..t.nrows {
            if r == starts[k + 1] {
                k += 1;
            }
            let leaf_cols = starts[k]..starts[k + 1];
            for (c, _) in t.row(r) {
                let dep = if lower { c < r } else { c > r };
                if dep && leaf_cols.contains(&c) {
                    stats.trsv_nnz += 1;
                } else if dep {
                    stats.spmv_nnz += 1;
                }
            }
        }
        stats
    }
}

/// Splits rows `[lo, hi)` in halves down to leaves of at most `leaf` rows,
/// recording the tree's shape in `stats` and each leaf's first row, in
/// ascending order, in `starts`.
fn halve(
    lo: usize,
    hi: usize,
    leaf: usize,
    depth: usize,
    stats: &mut RecursiveTrsvStats,
    starts: &mut Vec<usize>,
) {
    stats.depth = stats.depth.max(depth);
    if hi - lo <= leaf {
        stats.leaves += 1;
        stats.max_leaf_rows = stats.max_leaf_rows.max(hi - lo);
        starts.push(lo);
        return;
    }
    let mid = lo + (hi - lo) / 2;
    halve(lo, mid, leaf, depth + 1, stats, starts);
    halve(mid, hi, leaf, depth + 1, stats, starts);
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_sparse::{Coo, Dense};

    fn lower_bidiag(n: usize) -> Csr {
        let mut a = Coo::new(n, n);
        for i in 0..n {
            a.push(i, i, 2.0 + (i % 3) as f64);
            if i > 0 {
                a.push(i, i - 1, -1.0);
            }
        }
        a.to_csr()
    }

    fn random_lower(n: usize, extra: usize) -> Csr {
        let mut a = Coo::new(n, n);
        let mut state = 99u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for i in 0..n {
            a.push(i, i, 3.0 + (i % 5) as f64);
        }
        for _ in 0..extra {
            let r = next() % n;
            if r == 0 {
                continue;
            }
            let c = next() % r;
            a.push(r, c, ((next() % 9) as f64 - 4.0) / 2.0);
        }
        a.to_csr()
    }

    #[test]
    fn lower_solve_matches_dense() {
        let l = random_lower(40, 120);
        let b: Vec<f64> = (0..40).map(|i| (i as f64).cos()).collect();
        let x = sptrsv_lower(&l, &b, false);
        let d = Dense::from_csr(&l);
        let xd = d.solve(&b).unwrap();
        for i in 0..40 {
            assert!(
                (x[i] - xd[i]).abs() < 1e-9 * xd[i].abs().max(1.0),
                "row {i}"
            );
        }
    }

    #[test]
    fn upper_solve_matches_dense() {
        let u = random_lower(40, 120).transpose();
        let b: Vec<f64> = (0..40).map(|i| (i as f64).sin() + 2.0).collect();
        let x = sptrsv_upper(&u, &b, false);
        let d = Dense::from_csr(&u);
        let xd = d.solve(&b).unwrap();
        for i in 0..40 {
            assert!(
                (x[i] - xd[i]).abs() < 1e-9 * xd[i].abs().max(1.0),
                "row {i}"
            );
        }
    }

    #[test]
    fn unit_diag_ignores_stored_diagonal() {
        // L = [[7, 0], [2, 7]] with unit_diag: acts like [[1,0],[2,1]].
        let mut a = Coo::new(2, 2);
        a.push(0, 0, 7.0);
        a.push(1, 0, 2.0);
        a.push(1, 1, 7.0);
        let x = sptrsv_lower(&a.to_csr(), &[1.0, 5.0], true);
        assert_eq!(x, vec![1.0, 3.0]);
    }

    #[test]
    fn levels_of_diagonal_matrix_is_one() {
        let mut a = Coo::new(5, 5);
        for i in 0..5 {
            a.push(i, i, 1.0);
        }
        let s = level_schedule(&a.to_csr(), true);
        assert_eq!(s.num_levels, 1);
        assert_eq!(s.level_sizes, vec![5]);
    }

    #[test]
    fn levels_of_bidiagonal_is_n() {
        let l = lower_bidiag(10);
        let s = level_schedule(&l, true);
        assert_eq!(s.num_levels, 10);
        assert!(s.level_of.windows(2).all(|w| w[1] == w[0] + 1));
    }

    #[test]
    fn levels_of_upper() {
        let u = lower_bidiag(10).transpose();
        let s = level_schedule(&u, false);
        assert_eq!(s.num_levels, 10);
        assert_eq!(s.level_of[9], 0); // last row solves first
        assert_eq!(s.level_of[0], 9);
    }

    #[test]
    fn block_diagonal_has_few_levels() {
        // Two independent 3-chains: levels = 3, not 6.
        let mut a = Coo::new(6, 6);
        for i in 0..6 {
            a.push(i, i, 1.0);
        }
        a.push(1, 0, 1.0);
        a.push(2, 1, 1.0);
        a.push(4, 3, 1.0);
        a.push(5, 4, 1.0);
        let s = level_schedule(&a.to_csr(), true);
        assert_eq!(s.num_levels, 3);
        assert_eq!(s.level_sizes, vec![2, 2, 2]);
    }

    #[test]
    fn recursive_stats_account_all_offdiag_nnz() {
        let l = random_lower(64, 200);
        let stats = RecursiveTrsvStats::of(&l, true, 8);
        // Every strictly-lower nonzero is consumed exactly once, either in a
        // leaf or in a square-block SpMV.
        let strict_lower = l.nnz() - 64; // diagonal entries excluded
        assert_eq!(stats.spmv_nnz + stats.trsv_nnz, strict_lower);
        assert!(stats.spmv_nnz > 0, "recursion must offload work to SpMV");
        assert!(stats.depth > 1);
        assert_eq!((stats.leaves, stats.max_leaf_rows), (8, 8));
        // The upper solve of the transpose splits the same entries.
        assert_eq!(RecursiveTrsvStats::of(&l.transpose(), false, 8), stats);
    }

    #[test]
    fn into_variants_bitwise_match_allocating() {
        let l = random_lower(48, 160);
        let u = l.transpose();
        let b: Vec<f64> = (0..48).map(|i| (i as f64 * 0.37).sin() + 0.5).collect();

        let y_alloc = sptrsv_lower(&l, &b, false);
        let mut y = vec![0.0; 48];
        sptrsv_lower_into(&l, &b, &mut y, false);
        assert_eq!(
            y.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            y_alloc.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );

        let z_alloc = sptrsv_upper(&u, &y_alloc, true);
        let mut z = vec![0.0; 48];
        sptrsv_upper_into(&u, &y, &mut z, true);
        assert_eq!(
            z.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            z_alloc.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }
}
