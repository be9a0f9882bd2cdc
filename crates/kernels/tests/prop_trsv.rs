//! Pins the one triangular-solve order the host runs, plain substitution,
//! and the recursive-block statistics the cost model prices it by, against
//! the recursion of ref. \[41\], kept here verbatim as the oracle.
//!
//! [`RecursiveTrsvStats::of`] must equal the oracle's statistics on every
//! case: random sorted triangular factors (empty rows, entries on the wrong
//! side of the diagonal, missing or zero diagonals, both `unit_diag`
//! values), leaf sizes around every edge of the halving tree, unsorted
//! rows and a leaf of 0. On finite right-hand sides `sptrsv_lower_into` and
//! `sptrsv_upper_into` must agree with the oracle's `x` to 1e-12 relative:
//! the two orders group each row's sums differently, so only the bits may
//! differ. A factor whose zero diagonal trips the solves' debug assertion
//! must trip it in both, or in neither.

use mf_kernels::{sptrsv_lower_into, sptrsv_upper_into, RecursiveTrsvStats};
use mf_sparse::Csr;
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

// ---- Oracle: the halving recursion, verbatim ---------------------------

type Solve = (Vec<f64>, RecursiveTrsvStats);

#[allow(clippy::too_many_arguments)]
fn rec_lower(
    l: &Csr,
    x: &mut [f64],
    lo: usize,
    hi: usize,
    unit: bool,
    leaf: usize,
    stats: &mut RecursiveTrsvStats,
    depth: usize,
) {
    if hi <= lo {
        return;
    }
    stats.depth = stats.depth.max(depth);
    if hi - lo <= leaf {
        // Leaf: substitution using only columns in [lo, hi) — everything to
        // the left has already been applied by ancestor square blocks.
        stats.leaves += 1;
        stats.max_leaf_rows = stats.max_leaf_rows.max(hi - lo);
        for r in lo..hi {
            let mut sum = 0.0;
            let mut diag = if unit { 1.0 } else { 0.0 };
            for (c, v) in l.row(r) {
                if c >= lo && c < r {
                    sum += v * x[c];
                    stats.trsv_nnz += 1;
                } else if c == r && !unit {
                    diag = v;
                }
            }
            debug_assert!(diag != 0.0, "zero diagonal at row {r}");
            x[r] = (x[r] - sum) / diag;
        }
        return;
    }
    let mid = lo + (hi - lo) / 2;
    rec_lower(l, x, lo, mid, unit, leaf, stats, depth + 1);
    // Square block A21 (rows mid..hi, cols lo..mid) applied as SpMV.
    for r in mid..hi {
        let mut sum = 0.0;
        for (c, v) in l.row(r) {
            if c >= lo && c < mid {
                sum += v * x[c];
                stats.spmv_nnz += 1;
            }
        }
        x[r] -= sum;
    }
    rec_lower(l, x, mid, hi, unit, leaf, stats, depth + 1);
}

#[allow(clippy::too_many_arguments)]
fn rec_upper(
    u: &Csr,
    x: &mut [f64],
    lo: usize,
    hi: usize,
    unit: bool,
    leaf: usize,
    stats: &mut RecursiveTrsvStats,
    depth: usize,
) {
    if hi <= lo {
        return;
    }
    stats.depth = stats.depth.max(depth);
    if hi - lo <= leaf {
        stats.leaves += 1;
        stats.max_leaf_rows = stats.max_leaf_rows.max(hi - lo);
        for r in (lo..hi).rev() {
            let mut sum = 0.0;
            let mut diag = if unit { 1.0 } else { 0.0 };
            for (c, v) in u.row(r) {
                if c > r && c < hi {
                    sum += v * x[c];
                    stats.trsv_nnz += 1;
                } else if c == r && !unit {
                    diag = v;
                }
            }
            debug_assert!(diag != 0.0, "zero diagonal at row {r}");
            x[r] = (x[r] - sum) / diag;
        }
        return;
    }
    let mid = lo + (hi - lo) / 2;
    rec_upper(u, x, mid, hi, unit, leaf, stats, depth + 1);
    // Square block A12 (rows lo..mid, cols mid..hi) applied as SpMV.
    for r in lo..mid {
        let mut sum = 0.0;
        for (c, v) in u.row(r) {
            if c >= mid && c < hi {
                sum += v * x[c];
                stats.spmv_nnz += 1;
            }
        }
        x[r] -= sum;
    }
    rec_upper(u, x, lo, mid, unit, leaf, stats, depth + 1);
}

/// The oracle behind the public signature: `x = b`, then recurse from the
/// root at depth 1.
fn oracle(t: &Csr, b: &[f64], unit: bool, leaf: usize, lower: bool) -> Solve {
    let mut x = b.to_vec();
    let mut stats = RecursiveTrsvStats::default();
    if lower {
        rec_lower(t, &mut x, 0, t.nrows, unit, leaf, &mut stats, 1);
    } else {
        rec_upper(t, &mut x, 0, t.nrows, unit, leaf, &mut stats, 1);
    }
    (x, stats)
}

// ---- Generators --------------------------------------------------------

/// splitmix64: the cases are seed-deterministic, so a plain rerun replays.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn one_in(&mut self, n: u64) -> bool {
        self.next().is_multiple_of(n)
    }
}

/// An entry value. `wild` values span many magnitudes, with explicit
/// zeros and extremes so block sums cancel to `+0.0` and products overflow
/// or underflow; tame ones stay small, so the solution stays finite and
/// every rounding difference shows in the bits.
fn value(rng: &mut Rng, wild: bool) -> f64 {
    let m = (rng.below(2001) as f64 - 1000.0) / 257.0;
    if !wild {
        return m / 64.0;
    }
    match rng.below(12) {
        0 => 0.0,
        1 => -0.0,
        2 => 1e300,
        3 => -1e-300,
        _ => m * 2f64.powi(rng.below(21) as i32 - 10),
    }
}

/// A random `n × n` triangular factor with sorted, duplicate-free columns.
/// `lower` picks the side its off-diagonal entries mostly live on; a few
/// land on the wrong side, which the kernels must ignore.
fn factor(n: usize, lower: bool, wild: bool, rng: &mut Rng) -> Csr {
    let bad_diagonals = rng.one_in(4);
    let spread = 1 + rng.below(40);
    let mut rowptr = vec![0];
    let mut colidx = Vec::new();
    let mut vals = Vec::new();
    for r in 0..n {
        let mut cols = Vec::new();
        // One row in eight has no off-diagonal entries.
        if !rng.one_in(8) {
            let own_side = if lower { r } else { n - 1 - r };
            for _ in 0..rng.below(spread) {
                if own_side == 0 {
                    break;
                }
                // Half the entries hug the diagonal, half land anywhere.
                let d = if rng.one_in(2) {
                    1 + rng.below(own_side.min(8))
                } else {
                    1 + rng.below(own_side)
                };
                cols.push(if lower { r - d } else { r + d });
            }
            if rng.one_in(6) {
                cols.push(rng.below(n));
            }
        }
        if !(bad_diagonals && rng.one_in(10)) {
            cols.push(r);
        }
        cols.sort_unstable();
        cols.dedup();
        for c in cols {
            colidx.push(c);
            vals.push(if c == r {
                if bad_diagonals && rng.one_in(10) {
                    0.0
                } else {
                    let d = 1.0 + rng.below(16) as f64 / 4.0;
                    if rng.one_in(2) {
                        d
                    } else {
                        -d
                    }
                }
            } else {
                value(rng, wild)
            });
        }
        rowptr.push(colidx.len());
    }
    Csr {
        nrows: n,
        ncols: n,
        rowptr,
        colidx,
        vals,
    }
}

/// A right-hand side with signed zeros and subnormals. A `wild` one also
/// holds `±inf` and quiet and signalling NaN: with the zeros, the values
/// the skipped-empty-block argument must survive.
fn rhs(n: usize, wild: bool, rng: &mut Rng) -> Vec<f64> {
    (0..n)
        .map(|_| match rng.below(16) {
            0 => 0.0,
            1 => -0.0,
            2 => f64::MIN_POSITIVE / 8.0,
            3 => -f64::from_bits(1),
            4 if wild => f64::INFINITY,
            5 if wild => f64::NEG_INFINITY,
            6 if wild => f64::NAN,
            7 if wild => f64::from_bits(0x7ff0_0000_0000_0001),
            _ => value(rng, wild),
        })
        .collect()
}

// ---- Comparison --------------------------------------------------------

/// Plain substitution, the order every engine runs.
fn plain(t: &Csr, b: &[f64], unit: bool, lower: bool) -> Vec<f64> {
    let mut x = vec![f64::NAN; t.nrows];
    if lower {
        sptrsv_lower_into(t, b, &mut x, unit);
    } else {
        sptrsv_upper_into(t, b, &mut x, unit);
    }
    x
}

/// The oracle's statistics. They do not depend on the values, so the
/// unit-diagonal run, which cannot trip the zero-diagonal assertion,
/// stands for both.
fn oracle_stats(t: &Csr, leaf: usize, lower: bool) -> RecursiveTrsvStats {
    oracle(t, &vec![0.0; t.nrows], true, leaf, lower).1
}

/// `x` within 1e-12 of the oracle's, relative to `max(|x|, 1)`, and finite
/// exactly where the oracle's is.
fn close(xg: &[f64], xw: &[f64], case: &str) -> Result<(), String> {
    for r in 0..xw.len() {
        let (g, w) = (xg[r], xw[r]);
        let near = (g - w).abs() <= 1e-12 * w.abs().max(1.0);
        if g.is_finite() != w.is_finite() || (w.is_finite() && !near) {
            return Err(format!("x[{r}] = {g} vs oracle {w}: {case}"));
        }
    }
    Ok(())
}

/// Checks one case: the statistics always, and `x` when `b` is finite.
/// Oracle and plain substitution must both panic, or neither.
fn agree(t: &Csr, b: &[f64], unit: bool, leaf: usize, lower: bool) -> Result<(), String> {
    let case = format!("n={} lower={lower} unit={unit} leaf={leaf}", t.nrows);
    let (want, got) = (
        oracle_stats(t, leaf, lower),
        RecursiveTrsvStats::of(t, lower, leaf),
    );
    if got != want {
        return Err(format!("stats {got:?} vs oracle {want:?}: {case}"));
    }
    if !b.iter().all(|v| v.is_finite()) {
        return Ok(());
    }
    let want = catch_unwind(AssertUnwindSafe(|| oracle(t, b, unit, leaf, lower).0));
    let got = catch_unwind(AssertUnwindSafe(|| plain(t, b, unit, lower)));
    match (want, got) {
        (Ok(xw), Ok(xg)) => close(&xg, &xw, &case),
        (Err(_), Err(_)) => Ok(()),
        (w, g) => Err(format!(
            "oracle panicked: {}, plain panicked: {}: {case}",
            w.is_err(),
            g.is_err()
        )),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Statistics and solves match the recursion at every leaf size in
    /// {1, 2, 3, 7, 64, n, n + 1} and both `unit_diag` values.
    #[test]
    fn stats_and_plain_solves_match_recursion(n in 0usize..=300, seed in 0u64..u64::MAX) {
        let mut rng = Rng(seed);
        for (lower, wild) in [(true, false), (true, true), (false, false), (false, true)] {
            let t = factor(n, lower, wild, &mut rng);
            let b = rhs(n, wild, &mut rng);
            for unit in [false, true] {
                for leaf in [1, 2, 3, 7, 64, n.max(1), n + 1] {
                    let verdict = agree(&t, &b, unit, leaf, lower);
                    prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
                }
            }
        }
    }
}

/// The small-`n` edge: every size up to 40 against every leaf up to `n + 1`,
/// so each shape of the halving tree near its base is covered exhaustively.
#[test]
fn small_trees_match_recursion() {
    let mut rng = Rng(20);
    for n in 0..=40 {
        for (lower, wild) in [(true, false), (true, true), (false, false), (false, true)] {
            let t = factor(n, lower, wild, &mut rng);
            let b = rhs(n, wild, &mut rng);
            for unit in [false, true] {
                for leaf in 1..=n + 1 {
                    agree(&t, &b, unit, leaf, lower).unwrap();
                }
            }
        }
    }
}

/// A leaf of 0 is a leaf of one row (a 0-row leaf would never end the
/// halving): the same statistics as `leaf = 1`.
#[test]
fn zero_leaf_counts_as_leaf_one() {
    let mut rng = Rng(0);
    for n in [0, 1, 2, 5, 64, 129] {
        for (lower, wild) in [(true, false), (true, true), (false, false), (false, true)] {
            let t = factor(n, lower, wild, &mut rng);
            assert_eq!(
                RecursiveTrsvStats::of(&t, lower, 0),
                oracle_stats(&t, 1, lower),
                "n={n} lower={lower}"
            );
        }
    }
}

/// Unsorted rows (outside the `Csr` invariant) still solve: the same
/// statistics, and `x` equal to the oracle's up to the grouping of sums.
#[test]
fn unsorted_rows_still_solve() {
    let mut rng = Rng(7);
    for n in [3, 17, 100, 300] {
        for lower in [true, false] {
            let mut t = factor(n, lower, false, &mut rng);
            for r in 0..n {
                let (lo, hi) = (t.rowptr[r], t.rowptr[r + 1]);
                for i in (lo + 1..hi).rev() {
                    let j = lo + rng.below(i - lo + 1);
                    t.colidx.swap(i, j);
                    t.vals.swap(i, j);
                }
            }
            let b = rhs(n, false, &mut rng);
            for leaf in [1, 3, 64] {
                agree(&t, &b, true, leaf, lower).unwrap();
            }
        }
    }
}
