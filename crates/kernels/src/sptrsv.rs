//! Sparse triangular solves (SpTRSV).
//!
//! The preconditioned solvers (paper §III-C last paragraph, §IV-C) apply
//! `M z = r` with `M = L U` from ILU(0), which needs two triangular solves
//! per iteration. Three algorithms are provided:
//!
//! * [`sptrsv_lower`] / [`sptrsv_upper`] — plain substitution (the oracle).
//! * [`level_schedule`] — dependency-level analysis; the number of levels is
//!   what makes SpTRSV latency-bound on GPUs and is fed to the cost model.
//! * [`sptrsv_lower_recursive`] / [`sptrsv_upper_recursive`] — the
//!   **recursive block algorithm** (ref. \[41\]) the paper uses: a triangular
//!   matrix is split into two smaller triangles and one square block; the
//!   square block is applied with SpMV (parallel-friendly), recursing into
//!   the triangles. §IV-C credits this for the large PCG/PBiCGSTAB speedups
//!   on matrices with high-parallelism blocks.
//!
//! On the host the recursion runs as one O(nnz) pass. Only the O(n / leaf)
//! nodes of the halving tree are walked; each leaf row is scanned once and
//! takes its ancestors' square-block sums in the recursion's order, each
//! summed in CSR order from `0.0`. Skipping a block with no entries is
//! exact, because the recursion subtracts `+0.0` there and `x − (+0.0)` is
//! `x` for every `x`. So `x` and [`RecursiveTrsvStats`] are bitwise those of
//! the recursion, which rescanned every row at every level
//! (nnz · log₂(n / leaf)). The equality relies on sorted columns, the
//! [`Csr`] invariant.

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

/// Default leaf size of the recursive algorithm.
pub const DEFAULT_TRSV_LEAF: usize = 64;

/// Recursive-block forward solve `L x = b` (ref. \[41\]).
pub fn sptrsv_lower_recursive(
    l: &Csr,
    b: &[f64],
    unit_diag: bool,
    leaf: usize,
) -> (Vec<f64>, RecursiveTrsvStats) {
    let mut x = vec![0.0; l.nrows];
    let stats = sptrsv_lower_recursive_into(l, b, &mut x, unit_diag, leaf);
    (x, stats)
}

/// In-place [`sptrsv_lower_recursive`]: the solution lands in `x`
/// (length `l.nrows`) without allocating. A `leaf` of 0 is treated as 1.
///
/// Row `r` of leaf `[lo, hi)` takes one square-block update from every
/// ancestor whose right half holds it: the sum of its entries in that
/// block's columns `[lo', mid)`, in CSR order from `0.0`. Top-down these
/// ranges tile `[0, lo)` in ascending order, so with sorted columns the
/// row's entries meet them in order and one scan flushes each sum into
/// `x[r]` as it crosses a split point. Unsorted rows still solve
/// correctly but group the sums differently.
pub fn sptrsv_lower_recursive_into(
    l: &Csr,
    b: &[f64],
    x: &mut [f64],
    unit_diag: bool,
    leaf: usize,
) -> RecursiveTrsvStats {
    assert_eq!(l.nrows, l.ncols);
    assert_eq!(b.len(), l.nrows);
    assert_eq!(x.len(), l.nrows);
    x.copy_from_slice(b);
    walk_leaves(l.nrows, leaf, true, |lo, hi, splits| {
        let (mut spmv, mut trsv) = (0, 0);
        for r in lo..hi {
            let (mut xr, mut block, mut sum, mut k) = (x[r], 0.0, 0.0, 0);
            let mut diag = if unit_diag { 1.0 } else { 0.0 };
            for (c, v) in l.row(r) {
                if c < lo {
                    // `splits` ascend to `lo`, so this loop stops in bounds.
                    while c >= splits[k] {
                        xr -= block;
                        block = 0.0;
                        k += 1;
                    }
                    block += v * x[c];
                    spmv += 1;
                } else if c < r {
                    sum += v * x[c];
                    trsv += 1;
                } else if c == r && !unit_diag {
                    diag = v;
                }
            }
            debug_assert!(diag != 0.0, "zero diagonal at row {r}");
            x[r] = (xr - block - sum) / diag;
        }
        (spmv, trsv)
    })
}

/// Recursive-block backward solve `U x = b`.
pub fn sptrsv_upper_recursive(
    u: &Csr,
    b: &[f64],
    unit_diag: bool,
    leaf: usize,
) -> (Vec<f64>, RecursiveTrsvStats) {
    let mut x = vec![0.0; u.nrows];
    let stats = sptrsv_upper_recursive_into(u, b, &mut x, unit_diag, leaf);
    (x, stats)
}

/// In-place [`sptrsv_upper_recursive`]: the solution lands in `x`
/// (length `u.nrows`) without allocating. A `leaf` of 0 is treated as 1.
///
/// The mirror of [`sptrsv_lower_recursive_into`]: leaves run right to left
/// and row `r`'s ancestor blocks tile `[hi, n)` top-down in *descending*
/// column order, which a CSR scan meets last-first. The scan therefore
/// keeps one running sum per block (resumed if an unsorted row returns to
/// a block) and subtracts them top-down after the row.
pub fn sptrsv_upper_recursive_into(
    u: &Csr,
    b: &[f64],
    x: &mut [f64],
    unit_diag: bool,
    leaf: usize,
) -> RecursiveTrsvStats {
    assert_eq!(u.nrows, u.ncols);
    assert_eq!(b.len(), u.nrows);
    assert_eq!(x.len(), u.nrows);
    x.copy_from_slice(b);
    let mut blocks = [0.0; MAX_SPLITS];
    walk_leaves(u.nrows, leaf, false, |lo, hi, splits| {
        let (mut spmv, mut trsv) = (0, 0);
        for r in (lo..hi).rev() {
            let (mut run, mut sum, mut k) = (0.0, 0.0, 0);
            let mut diag = if unit_diag { 1.0 } else { 0.0 };
            for (c, v) in u.row(r) {
                if c >= hi {
                    // Block k holds columns [splits[k], splits[k - 1]).
                    if c < splits[k] || (k > 0 && c >= splits[k - 1]) {
                        blocks[k] = run;
                        k = splits.partition_point(|&s| s > c);
                        run = blocks[k];
                    }
                    run += v * x[c];
                    spmv += 1;
                } else if c > r {
                    sum += v * x[c];
                    trsv += 1;
                } else if c == r && !unit_diag {
                    diag = v;
                }
            }
            blocks[k] = run;
            let mut xr = x[r];
            for block in &mut blocks[..splits.len()] {
                xr -= std::mem::take(block);
            }
            debug_assert!(diag != 0.0, "zero diagonal at row {r}");
            x[r] = (xr - sum) / diag;
        }
        (spmv, trsv)
    })
}

/// Split points on one root-to-leaf path: each split halves a block of at
/// least two rows, so no path holds more than `usize::BITS` of them.
const MAX_SPLITS: usize = usize::BITS as usize;

/// Walks the halving tree of ref. \[41\] over `n` rows and calls
/// `solve(lo, hi, splits)` on each leaf in solve order: left to right for
/// the forward solve (`lower`), right to left for the backward one.
/// `splits` are the midpoints of the ancestors whose square block updates
/// the leaf's rows, top-down; `solve` returns the entries it applied in
/// those blocks and in the leaf. Only the O(n / leaf) tree nodes are
/// visited, so with a one-pass `solve` the whole apply is O(nnz).
fn walk_leaves(
    n: usize,
    leaf: usize,
    lower: bool,
    solve: impl FnMut(usize, usize, &[usize]) -> (usize, usize),
) -> RecursiveTrsvStats {
    struct Tree<F> {
        leaf: usize,
        lower: bool,
        splits: [usize; MAX_SPLITS],
        stats: RecursiveTrsvStats,
        solve: F,
    }
    impl<F: FnMut(usize, usize, &[usize]) -> (usize, usize)> Tree<F> {
        fn walk(&mut self, lo: usize, hi: usize, depth: usize, k: usize) {
            self.stats.depth = self.stats.depth.max(depth);
            if hi - lo <= self.leaf {
                let (spmv, trsv) = (self.solve)(lo, hi, &self.splits[..k]);
                self.stats.leaves += 1;
                self.stats.max_leaf_rows = self.stats.max_leaf_rows.max(hi - lo);
                self.stats.spmv_nnz += spmv;
                self.stats.trsv_nnz += trsv;
                return;
            }
            let mid = lo + (hi - lo) / 2;
            let (first, second) = if self.lower {
                ((lo, mid), (mid, hi))
            } else {
                ((mid, hi), (lo, mid))
            };
            self.walk(first.0, first.1, depth + 1, k);
            self.splits[k] = mid;
            self.walk(second.0, second.1, depth + 1, k + 1);
        }
    }
    let mut tree = Tree {
        leaf: leaf.max(1),
        lower,
        splits: [0; MAX_SPLITS],
        stats: RecursiveTrsvStats::default(),
        solve,
    };
    if n > 0 {
        tree.walk(0, n, 1, 0);
    }
    tree.stats
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
    fn recursive_matches_plain_lower() {
        for leaf in [1, 2, 8, 64] {
            let l = random_lower(100, 400);
            let b: Vec<f64> = (0..100).map(|i| ((i * i) % 17) as f64 - 8.0).collect();
            let plain = sptrsv_lower(&l, &b, false);
            let (rec, stats) = sptrsv_lower_recursive(&l, &b, false, leaf);
            for i in 0..100 {
                assert!(
                    (plain[i] - rec[i]).abs() < 1e-10 * plain[i].abs().max(1.0),
                    "leaf {leaf} row {i}"
                );
            }
            assert!(stats.leaves >= 1);
            assert!(stats.max_leaf_rows <= leaf.max(1));
        }
    }

    #[test]
    fn recursive_matches_plain_upper() {
        for leaf in [1, 4, 32] {
            let u = random_lower(80, 300).transpose();
            let b: Vec<f64> = (0..80).map(|i| (i as f64 * 0.3).sin()).collect();
            let plain = sptrsv_upper(&u, &b, false);
            let (rec, _) = sptrsv_upper_recursive(&u, &b, false, leaf);
            for i in 0..80 {
                assert!(
                    (plain[i] - rec[i]).abs() < 1e-10 * plain[i].abs().max(1.0),
                    "leaf {leaf} row {i}"
                );
            }
        }
    }

    #[test]
    fn recursive_stats_account_all_offdiag_nnz() {
        let l = random_lower(64, 200);
        let b = vec![1.0; 64];
        let (_, stats) = sptrsv_lower_recursive(&l, &b, false, 8);
        // Every strictly-lower nonzero is consumed exactly once, either in a
        // leaf or in a square-block SpMV.
        let strict_lower = l.nnz() - 64; // diagonal entries excluded
        assert_eq!(stats.spmv_nnz + stats.trsv_nnz, strict_lower);
        assert!(stats.spmv_nnz > 0, "recursion must offload work to SpMV");
        assert!(stats.depth > 1);
    }

    #[test]
    fn recursive_unit_diag() {
        let mut a = Coo::new(3, 3);
        a.push(1, 0, 2.0);
        a.push(2, 1, 3.0);
        let (x, _) = sptrsv_lower_recursive(&a.to_csr(), &[1.0, 0.0, 0.0], true, 1);
        assert_eq!(x, vec![1.0, -2.0, 6.0]);
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
