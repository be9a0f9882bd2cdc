//! Incomplete factorizations for the preconditioned solvers (§III-C, §IV-C).
//!
//! * [`ilu0`] — ILU(0): `A ≈ L·U` restricted to the sparsity pattern of `A`
//!   (no fill-in). `L` is unit lower triangular (unit diagonal not stored),
//!   `U` is upper triangular with the diagonal stored.
//! * [`ic0`] — IC(0): `A ≈ L·Lᵀ` for symmetric positive-definite matrices.
//!
//! Applying the preconditioner (`M z = r`) is two triangular solves by
//! plain substitution ([`crate::sptrsv`]): [`Ilu0::apply_into`] and
//! [`Ic0::apply_into`] are what every solver runs. The paper's
//! recursive-block schedule for them exists only in the cost model, priced
//! from [`crate::RecursiveTrsvStats::of`].

use crate::sptrsv::{sptrsv_lower_into, sptrsv_upper_into};
use mf_sparse::Csr;

/// An ILU(0) factorization `A ≈ L U`.
#[derive(Clone, Debug)]
pub struct Ilu0 {
    /// Strictly lower triangle of `L` (unit diagonal implicit).
    pub l: Csr,
    /// Upper triangle of `U` including the diagonal.
    pub u: Csr,
}

/// Errors of the incomplete factorizations.
#[derive(Debug, Clone, PartialEq)]
pub enum FactorError {
    /// A zero (or missing) pivot was hit at the given row.
    ZeroPivot(usize),
    /// IC(0) hit a non-positive diagonal (matrix not SPD enough).
    NotSpd(usize),
    /// The matrix is not square.
    NotSquare,
}

impl std::fmt::Display for FactorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FactorError::ZeroPivot(r) => write!(f, "zero pivot at row {r}"),
            FactorError::NotSpd(r) => write!(f, "non-positive IC(0) pivot at row {r}"),
            FactorError::NotSquare => write!(f, "matrix must be square"),
        }
    }
}

impl std::error::Error for FactorError {}

/// A pivot that cannot be divided by safely: zero, subnormal, NaN or
/// infinite. Subnormal pivots overflow the multipliers into inf/NaN and
/// poison the factors exactly like a hard zero, so the factorizations
/// treat the whole class identically.
fn unusable_pivot(p: f64) -> bool {
    !p.is_finite() || p.abs() < f64::MIN_POSITIVE
}

/// How many diagonal-boosting retries the `*_boosted` drivers attempt
/// before giving up and surfacing the last pivot failure.
pub const MAX_FACTOR_SHIFTS: usize = 4;

/// First boost is this fraction of the largest diagonal magnitude; each
/// retry doubles it.
const SHIFT_FRACTION: f64 = 1e-3;

/// The first Manteuffel shift the `*_boosted` drivers try:
/// `10⁻³ · max|a_ii|` (each retry doubles it, at most
/// [`MAX_FACTOR_SHIFTS`] attempts). Public so alternate factorization
/// drivers — the ticketed preprocessing pipeline in `mf-solver` — can
/// mirror the exact schedule and stay bitwise-identical to
/// [`ilu0_boosted`] / [`Ic0::new_boosted`].
pub fn initial_boost_shift(a: &Csr) -> f64 {
    SHIFT_FRACTION * shift_base(a)
}

/// The boosting scale ‖diag‖: largest finite |a_ii|, or 1 when the
/// diagonal is entirely absent/zero so the shift is still nonzero.
fn shift_base(a: &Csr) -> f64 {
    let mut base = 0.0f64;
    for i in 0..a.nrows.min(a.ncols) {
        let d = a.get(i, i).abs();
        if d.is_finite() && d > base {
            base = d;
        }
    }
    if base > 0.0 {
        base
    } else {
        1.0
    }
}

/// Returns `A + shift·I` as a new CSR matrix, inserting diagonal entries
/// that are structurally missing from `A`'s pattern (a missing `a_ii` is
/// precisely the structural-zero-pivot case boosting exists to repair).
pub fn diag_shifted(a: &Csr, shift: f64) -> Csr {
    let n = a.nrows;
    let mut rowptr = Vec::with_capacity(n + 1);
    let mut colidx = Vec::with_capacity(a.nnz() + n);
    let mut vals = Vec::with_capacity(a.nnz() + n);
    rowptr.push(0);
    for i in 0..n {
        let mut seen_diag = false;
        for (c, v) in a.row(i) {
            if c == i {
                colidx.push(c);
                vals.push(v + shift);
                seen_diag = true;
            } else {
                if c > i && !seen_diag && i < a.ncols {
                    colidx.push(i);
                    vals.push(shift);
                    seen_diag = true;
                }
                colidx.push(c);
                vals.push(v);
            }
        }
        if !seen_diag && i < a.ncols {
            colidx.push(i);
            vals.push(shift);
        }
        rowptr.push(colidx.len());
    }
    Csr {
        nrows: n,
        ncols: a.ncols,
        rowptr,
        colidx,
        vals,
    }
}

/// ILU(0) with zero/tiny-pivot fallback by diagonal boosting (a Manteuffel
/// shift): when the plain factorization breaks down on a pivot, retry on
/// `A + αI` with `α = 10⁻³·max|a_ii|`, doubling `α` per attempt, at most
/// [`MAX_FACTOR_SHIFTS`] retries. Returns the factorization together with
/// the shift of **every** attempt made (empty when the unshifted
/// factorization succeeded) so callers can record one
/// `BreakdownEvent::FactorShift` per attempt. The final factors
/// approximate `A + α_last·I`, which for these small `α` still
/// preconditions `A` effectively. `NotSquare` is never retried — no shift
/// repairs a shape error.
pub fn ilu0_boosted(a: &Csr) -> Result<(Ilu0, Vec<f64>), FactorError> {
    match ilu0(a) {
        Ok(f) => return Ok((f, Vec::new())),
        Err(FactorError::NotSquare) => return Err(FactorError::NotSquare),
        Err(_) => {}
    }
    let mut shifts = Vec::new();
    let mut shift = initial_boost_shift(a);
    let mut last = FactorError::ZeroPivot(0);
    for _ in 0..MAX_FACTOR_SHIFTS {
        shifts.push(shift);
        match ilu0(&diag_shifted(a, shift)) {
            Ok(f) => return Ok((f, shifts)),
            Err(e) => last = e,
        }
        shift *= 2.0;
    }
    Err(last)
}

/// One factored row: the row-granular unit of both ILU(0) and IC(0).
///
/// For ILU(0), `lower` holds the strict-lower `L` entries, `upper` the
/// `U` entries (`c >= i`, diagonal included) and `diag` caches `u_ii`.
/// For IC(0), `lower` holds the whole `L` row (diagonal last), `upper`
/// is empty, and `diag` caches `l_ii`.
#[derive(Clone, Debug, PartialEq)]
pub struct FactorRow {
    /// Lower-triangle entries `(col, value)` in ascending column order.
    pub lower: Vec<(usize, f64)>,
    /// Upper-triangle entries (ILU(0) only).
    pub upper: Vec<(usize, f64)>,
    /// The row's pivot.
    pub diag: f64,
}

/// Read access to already-factored ILU(0) rows `k < i` — what
/// [`ilu0_row`] eliminates against. Implemented by the serial
/// accumulator [`Ilu0Rows`] and by the ticketed pipeline's commit-view
/// wrapper in `mf-solver`.
pub trait FactorRowsView {
    /// Row `k` of `U` (`c >= k`, diagonal included), ascending columns.
    fn upper_row(&self, k: usize) -> &[(usize, f64)];
    /// The cached pivot `u_kk`.
    fn diag(&self, k: usize) -> f64;
}

/// Read access to already-factored IC(0) rows `j < i`.
pub trait CholRowsView {
    /// Row `j` of `L` (`c <= j`, diagonal last), ascending columns.
    fn chol_row(&self, j: usize) -> &[(usize, f64)];
    /// The cached pivot `l_jj`.
    fn chol_diag(&self, j: usize) -> f64;
}

/// Reusable dense-scatter workspace for [`ilu0_row`].
pub struct IluScratch {
    /// Position of column `c` in the current working set, or `usize::MAX`.
    pos: Vec<usize>,
    work_cols: Vec<usize>,
    work_vals: Vec<f64>,
}

impl IluScratch {
    /// Workspace for an `n × n` factorization.
    pub fn new(n: usize) -> IluScratch {
        IluScratch {
            pos: vec![usize::MAX; n],
            work_cols: Vec::new(),
            work_vals: Vec::new(),
        }
    }
}

/// Factors row `i` of ILU(0) (IKJ variant, no fill-in) against the
/// already-factored rows in `view`.
///
/// Pure in `(a, i, view)` — the arithmetic and its order are *exactly*
/// the serial [`ilu0`] inner loop, so any driver that commits rows in
/// order (serial, ticketed) produces bitwise-identical factors. The
/// caller must guarantee every pattern column `k < i` of row `i` is
/// present in `view`; with in-order commits, the row's *maximum* such
/// column suffices as the readiness watermark.
pub fn ilu0_row(
    a: &Csr,
    i: usize,
    view: &impl FactorRowsView,
    scratch: &mut IluScratch,
) -> Result<FactorRow, FactorError> {
    let IluScratch {
        pos,
        work_cols,
        work_vals,
    } = scratch;
    work_cols.clear();
    work_vals.clear();
    for (c, v) in a.row(i) {
        pos[c] = work_cols.len();
        work_cols.push(c);
        work_vals.push(v);
    }

    // Eliminate with previously finished rows k < i present in the
    // pattern (work_cols is sorted because CSR rows are sorted).
    for wk in 0..work_cols.len() {
        let k = work_cols[wk];
        if k >= i {
            break;
        }
        let pivot = view.diag(k);
        if unusable_pivot(pivot) {
            for &c in work_cols.iter() {
                pos[c] = usize::MAX;
            }
            return Err(FactorError::ZeroPivot(k));
        }
        let factor = work_vals[wk] / pivot;
        work_vals[wk] = factor;
        for &(j, ukj) in view.upper_row(k) {
            if j <= k {
                continue;
            }
            let pj = pos[j];
            if pj != usize::MAX {
                work_vals[pj] -= factor * ukj;
            }
        }
    }

    // Split the worked row into L (c < i) and U (c >= i).
    let mut lower = Vec::new();
    let mut upper = Vec::new();
    let mut diag = 0.0f64;
    for (wk, &c) in work_cols.iter().enumerate() {
        if c < i {
            lower.push((c, work_vals[wk]));
        } else {
            if c == i {
                diag = work_vals[wk];
            }
            upper.push((c, work_vals[wk]));
        }
    }
    // Clear scatter markers (scratch is reused across rows and retries).
    for &c in work_cols.iter() {
        pos[c] = usize::MAX;
    }
    if unusable_pivot(diag) {
        return Err(FactorError::ZeroPivot(i));
    }
    Ok(FactorRow { lower, upper, diag })
}

/// Accumulates committed ILU(0) rows in order; the serial
/// factorization's state and the reference [`FactorRowsView`].
pub struct Ilu0Rows {
    l_rows: Vec<Vec<(usize, f64)>>,
    u_rows: Vec<Vec<(usize, f64)>>,
    udiag: Vec<f64>,
}

impl Ilu0Rows {
    /// Empty accumulator with capacity for `n` rows.
    pub fn with_capacity(n: usize) -> Ilu0Rows {
        Ilu0Rows {
            l_rows: Vec::with_capacity(n),
            u_rows: Vec::with_capacity(n),
            udiag: Vec::with_capacity(n),
        }
    }

    /// Number of rows committed so far.
    pub fn len(&self) -> usize {
        self.u_rows.len()
    }

    /// True when no rows have been committed.
    pub fn is_empty(&self) -> bool {
        self.u_rows.is_empty()
    }

    /// Appends the next row (rows must arrive in order).
    pub fn push(&mut self, row: FactorRow) {
        self.udiag.push(row.diag);
        self.l_rows.push(row.lower);
        self.u_rows.push(row.upper);
    }

    /// Packages the accumulated rows as [`Ilu0`] factors.
    pub fn into_factors(self) -> Ilu0 {
        let n = self.l_rows.len();
        Ilu0 {
            l: rows_to_csr(n, &self.l_rows),
            u: rows_to_csr(n, &self.u_rows),
        }
    }
}

impl FactorRowsView for Ilu0Rows {
    fn upper_row(&self, k: usize) -> &[(usize, f64)] {
        &self.u_rows[k]
    }
    fn diag(&self, k: usize) -> f64 {
        self.udiag[k]
    }
}

/// Computes the ILU(0) factorization of `a` (IKJ variant, no fill-in).
///
/// Row-by-row driver over [`ilu0_row`]; the ticketed pipeline runs the
/// same row function against its commit view, so both paths share one
/// arithmetic implementation.
pub fn ilu0(a: &Csr) -> Result<Ilu0, FactorError> {
    if a.nrows != a.ncols {
        return Err(FactorError::NotSquare);
    }
    let n = a.nrows;
    let mut rows = Ilu0Rows::with_capacity(n);
    let mut scratch = IluScratch::new(n);
    for i in 0..n {
        let row = ilu0_row(a, i, &rows, &mut scratch)?;
        rows.push(row);
    }
    Ok(rows.into_factors())
}

fn rows_to_csr(n: usize, rows: &[Vec<(usize, f64)>]) -> Csr {
    let nnz: usize = rows.iter().map(Vec::len).sum();
    let mut rowptr = Vec::with_capacity(n + 1);
    let mut colidx = Vec::with_capacity(nnz);
    let mut vals = Vec::with_capacity(nnz);
    rowptr.push(0);
    for row in rows {
        for &(c, v) in row {
            colidx.push(c);
            vals.push(v);
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

impl Ilu0 {
    /// Applies the preconditioner: solves `L U z = r` by plain
    /// substitution.
    pub fn apply(&self, r: &[f64]) -> Vec<f64> {
        let (mut y, mut z) = (vec![0.0; r.len()], vec![0.0; r.len()]);
        self.apply_into(r, &mut y, &mut z);
        z
    }

    /// In-place [`Self::apply`]: solves `L y = r` into `scratch`, then
    /// `U z = y` into `z`. Allocation-free, so the solver loops reuse
    /// workspace buffers across iterations.
    pub fn apply_into(&self, r: &[f64], scratch: &mut [f64], z: &mut [f64]) {
        sptrsv_lower_into(&self.l, r, scratch, true);
        sptrsv_upper_into(&self.u, scratch, z, false);
    }

    /// Forwards to [`Self::apply_into`]. It is kept only because mfbench's
    /// `kernels.ilu_apply_us` probe calls it, and mfbench changes only
    /// with the benchmark. `leaf` is unused: the recursive-block leaf size
    /// affects modeled cost only.
    pub fn apply_recursive_into(
        &self,
        r: &[f64],
        _leaf: usize,
        scratch: &mut [f64],
        z: &mut [f64],
    ) {
        self.apply_into(r, scratch, z);
    }

    /// Total stored nonzeros of both factors.
    pub fn nnz(&self) -> usize {
        self.l.nnz() + self.u.nnz()
    }
}

/// An IC(0) factorization `A ≈ L·Lᵀ` packaged for preconditioner
/// application (both triangular solves are non-unit-diagonal).
#[derive(Clone, Debug)]
pub struct Ic0 {
    /// Lower-triangular Cholesky factor (diagonal stored).
    pub l: Csr,
    /// Its transpose, kept materialized so the backward solve streams rows.
    pub lt: Csr,
}

impl Ic0 {
    /// Factorizes an SPD matrix.
    pub fn new(a: &Csr) -> Result<Ic0, FactorError> {
        let l = ic0(a)?;
        let lt = l.transpose();
        Ok(Ic0 { l, lt })
    }

    /// IC(0) with the same bounded diagonal-boosting fallback as
    /// [`ilu0_boosted`]: zero/tiny pivots retry on `A + αI` with a doubling
    /// shift, at most [`MAX_FACTOR_SHIFTS`] attempts, all attempted shifts
    /// returned for breakdown-event recording. A genuinely indefinite
    /// matrix still fails — the largest boost tried is `8·10⁻³·max|a_ii|`,
    /// far below what it would take to make a negative eigenvalue positive
    /// — so boosting repairs borderline pivots without silently
    /// Cholesky-factoring non-SPD systems.
    pub fn new_boosted(a: &Csr) -> Result<(Ic0, Vec<f64>), FactorError> {
        match Ic0::new(a) {
            Ok(f) => return Ok((f, Vec::new())),
            Err(FactorError::NotSquare) => return Err(FactorError::NotSquare),
            Err(_) => {}
        }
        let mut shifts = Vec::new();
        let mut shift = initial_boost_shift(a);
        let mut last = FactorError::ZeroPivot(0);
        for _ in 0..MAX_FACTOR_SHIFTS {
            shifts.push(shift);
            match Ic0::new(&diag_shifted(a, shift)) {
                Ok(f) => return Ok((f, shifts)),
                Err(e) => last = e,
            }
            shift *= 2.0;
        }
        Err(last)
    }

    /// Applies the preconditioner: solves `L Lᵀ z = r` by substitution.
    pub fn apply(&self, r: &[f64]) -> Vec<f64> {
        let (mut y, mut z) = (vec![0.0; r.len()], vec![0.0; r.len()]);
        self.apply_into(r, &mut y, &mut z);
        z
    }

    /// In-place [`Self::apply`] (see [`Ilu0::apply_into`]).
    pub fn apply_into(&self, r: &[f64], scratch: &mut [f64], z: &mut [f64]) {
        sptrsv_lower_into(&self.l, r, scratch, false);
        sptrsv_upper_into(&self.lt, scratch, z, false);
    }

    /// Total stored nonzeros of both factor copies.
    pub fn nnz(&self) -> usize {
        self.l.nnz() + self.lt.nnz()
    }
}

/// Reusable dense-scatter workspace for [`ic0_row`].
pub struct Ic0Scratch {
    /// Dense scatter of the current row of L (columns <= i).
    dense: Vec<f64>,
    cols: Vec<usize>,
}

impl Ic0Scratch {
    /// Workspace for an `n × n` factorization.
    pub fn new(n: usize) -> Ic0Scratch {
        Ic0Scratch {
            dense: vec![0.0f64; n],
            cols: Vec::new(),
        }
    }
}

/// Factors row `i` of IC(0) against the already-factored rows in
/// `view`. Pure in `(a, i, view)` with the exact serial arithmetic
/// order — see [`ilu0_row`] for the sharing contract.
pub fn ic0_row(
    a: &Csr,
    i: usize,
    view: &impl CholRowsView,
    scratch: &mut Ic0Scratch,
) -> Result<FactorRow, FactorError> {
    let Ic0Scratch { dense, cols } = scratch;
    cols.clear();
    for (c, v) in a.row(i) {
        if c <= i {
            dense[c] = v;
            cols.push(c);
        }
    }
    // l_ij = (a_ij - sum_{k<j} l_ik l_jk) / l_jj  for pattern entries.
    let mut row = Vec::with_capacity(cols.len());
    let mut diag = 0.0f64;
    for &j in cols.iter() {
        let mut s = dense[j];
        // Intersection of row i's current partial entries and row j of L.
        if j < i {
            for &(k, ljk) in view.chol_row(j) {
                if k < j {
                    s -= dense[k] * ljk;
                }
            }
            let v = s / view.chol_diag(j);
            dense[j] = v;
            row.push((j, v));
        } else {
            // diagonal: l_ii = sqrt(a_ii - sum l_ik^2)
            let mut d = s;
            for &(k, lik) in &row {
                let _ = k;
                d -= lik * lik;
            }
            if d <= 0.0 || !d.is_finite() {
                for &c in cols.iter() {
                    dense[c] = 0.0;
                }
                return Err(FactorError::NotSpd(i));
            }
            let v = d.sqrt();
            diag = v;
            row.push((i, v));
        }
    }
    // Clear scatter (scratch is reused across rows and retries).
    for &c in cols.iter() {
        dense[c] = 0.0;
    }
    if unusable_pivot(diag) {
        return Err(FactorError::ZeroPivot(i));
    }
    Ok(FactorRow {
        lower: row,
        upper: Vec::new(),
        diag,
    })
}

/// Accumulates committed IC(0) rows in order; the serial
/// factorization's state and the reference [`CholRowsView`].
pub struct Ic0Rows {
    l_rows: Vec<Vec<(usize, f64)>>,
    ldiag: Vec<f64>,
}

impl Ic0Rows {
    /// Empty accumulator with capacity for `n` rows.
    pub fn with_capacity(n: usize) -> Ic0Rows {
        Ic0Rows {
            l_rows: Vec::with_capacity(n),
            ldiag: Vec::with_capacity(n),
        }
    }

    /// Number of rows committed so far.
    pub fn len(&self) -> usize {
        self.l_rows.len()
    }

    /// True when no rows have been committed.
    pub fn is_empty(&self) -> bool {
        self.l_rows.is_empty()
    }

    /// Appends the next row (rows must arrive in order).
    pub fn push(&mut self, row: FactorRow) {
        self.ldiag.push(row.diag);
        self.l_rows.push(row.lower);
    }

    /// Packages the accumulated rows as the lower Cholesky factor.
    pub fn into_factor(self) -> Csr {
        let n = self.l_rows.len();
        rows_to_csr(n, &self.l_rows)
    }
}

impl CholRowsView for Ic0Rows {
    fn chol_row(&self, j: usize) -> &[(usize, f64)] {
        &self.l_rows[j]
    }
    fn chol_diag(&self, j: usize) -> f64 {
        self.ldiag[j]
    }
}

/// Computes the IC(0) factorization `A ≈ L Lᵀ` of an SPD matrix; returns the
/// lower-triangular factor with the diagonal stored.
///
/// Row-by-row driver over [`ic0_row`] (see [`ilu0`] for the sharing
/// contract with the ticketed pipeline).
pub fn ic0(a: &Csr) -> Result<Csr, FactorError> {
    if a.nrows != a.ncols {
        return Err(FactorError::NotSquare);
    }
    let n = a.nrows;
    let mut rows = Ic0Rows::with_capacity(n);
    let mut scratch = Ic0Scratch::new(n);
    for i in 0..n {
        let row = ic0_row(a, i, &rows, &mut scratch)?;
        rows.push(row);
    }
    Ok(rows.into_factor())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_sparse::{Coo, Dense};

    fn tridiag_spd(n: usize) -> Csr {
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

    fn nonsym(n: usize) -> Csr {
        let mut a = Coo::new(n, n);
        for i in 0..n {
            a.push(i, i, 5.0 + (i % 3) as f64);
            if i > 0 {
                a.push(i, i - 1, -1.5);
            }
            if i + 1 < n {
                a.push(i, i + 1, -0.5);
            }
            if i + 3 < n {
                a.push(i, i + 3, 0.25);
            }
        }
        a.to_csr()
    }

    /// Multiplies L (unit lower) * U as dense, for exactness checks.
    fn lu_product(f: &Ilu0) -> Dense {
        let n = f.l.nrows;
        let mut ld = Dense::from_csr(&f.l);
        for i in 0..n {
            ld[(i, i)] = 1.0;
        }
        let ud = Dense::from_csr(&f.u);
        let mut prod = Dense::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for k in 0..n {
                    s += ld[(i, k)] * ud[(k, j)];
                }
                prod[(i, j)] = s;
            }
        }
        prod
    }

    #[test]
    fn ilu0_of_tridiagonal_is_exact_lu() {
        // A tridiagonal matrix has no fill-in, so ILU(0) == LU and L*U == A.
        let a = tridiag_spd(20);
        let f = ilu0(&a).unwrap();
        let prod = lu_product(&f);
        let ad = Dense::from_csr(&a);
        for i in 0..20 {
            for j in 0..20 {
                assert!(
                    (prod[(i, j)] - ad[(i, j)]).abs() < 1e-12,
                    "mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn ilu0_apply_solves_exactly_for_no_fill_matrices() {
        let a = tridiag_spd(30);
        let f = ilu0(&a).unwrap();
        let b: Vec<f64> = (0..30).map(|i| (i as f64).sin() + 1.5).collect();
        let z = f.apply(&b);
        // L U z = b exactly (up to roundoff) since ILU==LU here.
        let mut r = vec![0.0; 30];
        a.matvec(&z, &mut r);
        for i in 0..30 {
            assert!((r[i] - b[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn ilu0_pattern_matches_input() {
        let a = nonsym(25);
        let f = ilu0(&a).unwrap();
        // No fill-in: L and U patterns are subsets of A's pattern.
        for r in 0..25 {
            for (c, _) in f.l.row(r) {
                assert!(a.get(r, c) != 0.0 || c == r, "L fill at ({r},{c})");
                assert!(c < r);
            }
            for (c, _) in f.u.row(r) {
                assert!(a.get(r, c) != 0.0 || c == r, "U fill at ({r},{c})");
                assert!(c >= r);
            }
        }
        assert_eq!(f.nnz(), a.nnz());
    }

    #[test]
    fn ilu0_zero_pivot_detected() {
        let mut a = Coo::new(2, 2);
        a.push(0, 1, 1.0);
        a.push(1, 0, 1.0);
        a.push(1, 1, 1.0);
        // a(0,0) missing -> structural zero pivot.
        assert!(matches!(ilu0(&a.to_csr()), Err(FactorError::ZeroPivot(0))));
    }

    #[test]
    fn ilu0_rejects_rectangular() {
        let a = Coo::new(2, 3).to_csr();
        assert!(matches!(ilu0(&a), Err(FactorError::NotSquare)));
    }

    #[test]
    fn ic0_of_tridiagonal_is_exact_cholesky() {
        let a = tridiag_spd(15);
        let l = ic0(&a).unwrap();
        // L * L^T == A for no-fill matrices.
        let ld = Dense::from_csr(&l);
        let ad = Dense::from_csr(&a);
        for i in 0..15 {
            for j in 0..15 {
                let mut s = 0.0;
                for k in 0..15 {
                    s += ld[(i, k)] * ld[(j, k)];
                }
                assert!((s - ad[(i, j)]).abs() < 1e-12, "({i},{j})");
            }
        }
    }

    #[test]
    fn ic0_wrapper_applies_preconditioner() {
        let a = tridiag_spd(25);
        let ic = Ic0::new(&a).unwrap();
        let b: Vec<f64> = (0..25).map(|i| (i as f64).cos() + 2.0).collect();
        // Exact Cholesky for tridiagonal: applying M^{-1} solves the system.
        let z = ic.apply(&b);
        let mut r = vec![0.0; 25];
        a.matvec(&z, &mut r);
        for i in 0..25 {
            assert!((r[i] - b[i]).abs() < 1e-10);
        }
        assert_eq!(ic.nnz(), ic.l.nnz() * 2);
    }

    #[test]
    fn ic0_rejects_indefinite() {
        let mut a = Coo::new(2, 2);
        a.push(0, 0, -1.0);
        a.push(1, 1, 1.0);
        assert!(matches!(ic0(&a.to_csr()), Err(FactorError::NotSpd(0))));
    }

    #[test]
    fn diag_shifted_inserts_missing_diagonal() {
        let mut a = Coo::new(3, 3);
        a.push(0, 1, 2.0); // row 0: no diagonal, off-diag after it
        a.push(1, 1, 5.0); // row 1: diagonal present
        a.push(2, 0, 3.0); // row 2: no diagonal, off-diag before it
        let s = diag_shifted(&a.to_csr(), 0.5);
        assert_eq!(s.get(0, 0), 0.5);
        assert_eq!(s.get(0, 1), 2.0);
        assert_eq!(s.get(1, 1), 5.5);
        assert_eq!(s.get(2, 0), 3.0);
        assert_eq!(s.get(2, 2), 0.5);
        // Columns stay sorted within each row.
        for r in 0..3 {
            let cols: Vec<usize> = s.row(r).map(|(c, _)| c).collect();
            let mut sorted = cols.clone();
            sorted.sort_unstable();
            assert_eq!(cols, sorted, "row {r} unsorted");
        }
    }

    #[test]
    fn ilu0_boosted_recovers_structural_zero_pivot() {
        // (0,0) and (1,1) structurally missing: plain ILU(0) fails, the
        // boosted driver inserts the diagonal and factors A + αI.
        let mut a = Coo::new(4, 4);
        a.push(0, 1, 1.0);
        a.push(1, 0, 1.0);
        a.push(2, 2, 1.0);
        a.push(3, 3, 1.0);
        let a = a.to_csr();
        assert!(matches!(ilu0(&a), Err(FactorError::ZeroPivot(0))));
        let (f, shifts) = ilu0_boosted(&a).unwrap();
        assert!(!shifts.is_empty(), "a shift must have been applied");
        for w in shifts.windows(2) {
            assert_eq!(w[1], 2.0 * w[0], "shift schedule doubles");
        }
        // α‖diag‖ scaling: base is max|a_ii| = 1.
        assert_eq!(shifts[0], 1e-3);
        assert_eq!(f.l.nrows, 4);
        assert_eq!(f.u.nrows, 4);
    }

    #[test]
    fn ilu0_boosted_clean_matrix_is_shift_free() {
        let a = tridiag_spd(12);
        let (f, shifts) = ilu0_boosted(&a).unwrap();
        assert!(shifts.is_empty(), "no breakdown → no shift");
        // Identical to the plain factorization.
        let plain = ilu0(&a).unwrap();
        assert_eq!(f.u.vals, plain.u.vals);
        assert_eq!(f.l.vals, plain.l.vals);
    }

    #[test]
    fn ilu0_boosted_never_retries_shape_errors() {
        let a = Coo::new(2, 3).to_csr();
        assert!(matches!(ilu0_boosted(&a), Err(FactorError::NotSquare)));
    }

    #[test]
    fn ilu0_rejects_subnormal_pivot() {
        // A tiny (subnormal) pivot is as unusable as an exact zero: the
        // 1/pivot multiplier overflows. Must fail, and boosting must fix it.
        let mut a = Coo::new(2, 2);
        a.push(0, 0, 1e-320);
        a.push(0, 1, 1.0);
        a.push(1, 0, 1.0);
        a.push(1, 1, 1.0);
        let a = a.to_csr();
        assert!(matches!(ilu0(&a), Err(FactorError::ZeroPivot(0))));
        let (_, shifts) = ilu0_boosted(&a).unwrap();
        assert!(!shifts.is_empty());
    }

    #[test]
    fn ic0_boosted_recovers_zero_diagonal() {
        // Missing (0,0) entry: plain IC(0) hits a zero pivot; boosting
        // inserts α on the diagonal and succeeds.
        let mut a = Coo::new(2, 2);
        a.push(1, 1, 4.0);
        let a = a.to_csr();
        assert!(Ic0::new(&a).is_err());
        let (ic, shifts) = Ic0::new_boosted(&a).unwrap();
        assert!(!shifts.is_empty());
        assert_eq!(ic.l.nrows, 2);
    }

    #[test]
    fn ic0_boosted_still_rejects_indefinite() {
        // Eigenvalue −1 needs a shift > 1; the bounded schedule tops out at
        // 8e-3·max|a_ii|, so a genuinely indefinite matrix still fails.
        let mut a = Coo::new(2, 2);
        a.push(0, 0, -1.0);
        a.push(1, 1, 1.0);
        assert!(matches!(
            Ic0::new_boosted(&a.to_csr()),
            Err(FactorError::NotSpd(0))
        ));
    }

    #[test]
    fn ilu0_preconditioner_reduces_condition() {
        // For the 2D-Laplacian-like matrix, M^{-1}A should be much closer to
        // identity than A: check ||M^{-1}A - I||_F < ||A - I||_F.
        let a = tridiag_spd(40);
        let f = ilu0(&a).unwrap();
        let n = 40;
        let mut minva = Dense::zeros(n, n);
        for j in 0..n {
            let mut e = vec![0.0; n];
            e[j] = 1.0;
            let mut col = vec![0.0; n];
            a.matvec(&e, &mut col);
            let z = f.apply(&col);
            for i in 0..n {
                minva[(i, j)] = z[i];
            }
        }
        let mut dist_precond = 0.0;
        let ad = Dense::from_csr(&a);
        let mut dist_raw = 0.0;
        for i in 0..n {
            for j in 0..n {
                let idm = if i == j { 1.0 } else { 0.0 };
                dist_precond += (minva[(i, j)] - idm).powi(2);
                dist_raw += (ad[(i, j)] - idm).powi(2);
            }
        }
        assert!(dist_precond.sqrt() < 1e-8, "ILU exact for tridiag");
        assert!(dist_raw.sqrt() > 1.0);
    }
}
