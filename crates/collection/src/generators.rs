//! Structural matrix generators.
//!
//! Every generator is deterministic given its seed, and SPD generators are
//! SPD *by construction* (symmetric + strictly diagonally dominant with a
//! positive diagonal), so the CG suite never depends on a numerical check.

use crate::values::ValueClass;
use mf_sparse::{Coo, Csr};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// 2-D Poisson 5-point stencil on an `nx × ny` grid (SPD; values 4/−1,
/// exact in FP8 — the classic stencil matrix, `minsurfo`-like).
pub fn poisson2d(nx: usize, ny: usize) -> Csr {
    let n = nx * ny;
    let mut a = Coo::with_capacity(n, n, 5 * n);
    let idx = |i: usize, j: usize| i * ny + j;
    for i in 0..nx {
        for j in 0..ny {
            let r = idx(i, j);
            a.push(r, r, 4.0);
            if i > 0 {
                a.push(r, idx(i - 1, j), -1.0);
            }
            if i + 1 < nx {
                a.push(r, idx(i + 1, j), -1.0);
            }
            if j > 0 {
                a.push(r, idx(i, j - 1), -1.0);
            }
            if j + 1 < ny {
                a.push(r, idx(i, j + 1), -1.0);
            }
        }
    }
    a.to_csr()
}

/// 3-D Poisson 7-point stencil on an `nx × ny × nz` grid (SPD; 6/−1).
pub fn poisson3d(nx: usize, ny: usize, nz: usize) -> Csr {
    let n = nx * ny * nz;
    let mut a = Coo::with_capacity(n, n, 7 * n);
    let idx = |i: usize, j: usize, k: usize| (i * ny + j) * nz + k;
    for i in 0..nx {
        for j in 0..ny {
            for k in 0..nz {
                let r = idx(i, j, k);
                a.push(r, r, 6.0);
                if i > 0 {
                    a.push(r, idx(i - 1, j, k), -1.0);
                }
                if i + 1 < nx {
                    a.push(r, idx(i + 1, j, k), -1.0);
                }
                if j > 0 {
                    a.push(r, idx(i, j - 1, k), -1.0);
                }
                if j + 1 < ny {
                    a.push(r, idx(i, j + 1, k), -1.0);
                }
                if k > 0 {
                    a.push(r, idx(i, j, k - 1), -1.0);
                }
                if k + 1 < nz {
                    a.push(r, idx(i, j, k + 1), -1.0);
                }
            }
        }
    }
    a.to_csr()
}

/// Symmetric tridiagonal matrix with constant diagonal/off-diagonal.
pub fn tridiag(n: usize, diag: f64, off: f64) -> Csr {
    let mut a = Coo::with_capacity(n, n, 3 * n);
    for i in 0..n {
        a.push(i, i, diag);
        if i > 0 {
            a.push(i, i - 1, off);
        }
        if i + 1 < n {
            a.push(i, i + 1, off);
        }
    }
    a.to_csr()
}

/// Diagonal mass matrix with positive entries of the given value class
/// (`bcsstm22`-like: trivially SPD, solves in a handful of iterations —
/// exactly the matrices where synchronization overhead dominates, Fig. 8's
/// largest speedups).
pub fn mass_matrix(n: usize, class: ValueClass, seed: u64) -> Csr {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut a = Coo::with_capacity(n, n, n);
    for i in 0..n {
        a.push(i, i, class.sample_positive(&mut rng));
    }
    a.to_csr()
}

/// Symmetric banded SPD matrix: off-diagonals within `half_bw` of the
/// diagonal drawn from `class`, diagonal = row sum of magnitudes + a
/// positive sample (strict diagonal dominance ⇒ SPD).
#[allow(clippy::needless_range_loop)] // i indexes both the matrix rows and row_abs
pub fn banded_spd(n: usize, half_bw: usize, class: ValueClass, seed: u64) -> Csr {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut a = Coo::with_capacity(n, n, n * (half_bw + 1));
    // Build strictly-lower entries, mirror, then fix the diagonal.
    let mut row_abs = vec![0.0f64; n];
    for i in 0..n {
        let lo = i.saturating_sub(half_bw);
        for j in lo..i {
            // Thin the band a little so patterns differ between rows.
            if rng.random_bool(0.7) {
                let v = class.sample(&mut rng);
                a.push(i, j, v);
                a.push(j, i, v);
                row_abs[i] += v.abs();
                row_abs[j] += v.abs();
            }
        }
    }
    for i in 0..n {
        a.push(i, i, row_abs[i] + class.sample_positive(&mut rng));
    }
    a.to_csr()
}

/// Random-pattern SPD matrix with ~`avg_off_per_row` off-diagonal entries
/// per row drawn from `class` (diagonally dominant by construction).
#[allow(clippy::needless_range_loop)] // i indexes both the matrix rows and row_abs
pub fn random_spd(n: usize, avg_off_per_row: usize, class: ValueClass, seed: u64) -> Csr {
    let mut rng = StdRng::seed_from_u64(seed);
    let pairs = n * avg_off_per_row / 2;
    let mut a = Coo::with_capacity(n, n, 2 * pairs + n);
    let mut row_abs = vec![0.0f64; n];
    for _ in 0..pairs {
        let i = rng.random_range(0..n);
        let j = rng.random_range(0..n);
        if i == j {
            continue;
        }
        let v = class.sample(&mut rng);
        a.push(i, j, v);
        a.push(j, i, v);
        row_abs[i] += v.abs();
        row_abs[j] += v.abs();
    }
    for i in 0..n {
        a.push(i, i, row_abs[i] + class.sample_positive(&mut rng) + 1.0);
    }
    // Duplicates may exist; compaction sums them, which can break strict
    // dominance only if signs cancel — re-add a safety margin equal to the
    // worst possible duplicate magnitude. Simpler: compact and re-dominate.
    let mut csr = a.to_csr();
    redominate(&mut csr, &mut rng, class);
    csr
}

/// Ensures strict diagonal dominance after duplicate-summing, preserving
/// symmetry (the diagonal is per-row independent).
fn redominate(a: &mut Csr, rng: &mut StdRng, class: ValueClass) {
    for r in 0..a.nrows {
        let mut off = 0.0;
        let mut diag_k = None;
        for k in a.rowptr[r]..a.rowptr[r + 1] {
            if a.colidx[k] == r {
                diag_k = Some(k);
            } else {
                off += a.vals[k].abs();
            }
        }
        // Relative dominance margin: an absolute +1 margin is meaningless
        // next to 1e9-scale rows (the Jacobi radius would approach 1 and
        // wide-range matrices would never converge); 1.3·off keeps the
        // radius below ~0.77 for every value class. Ceiling the bound keeps
        // integer-valued rows classifiable to narrow precisions (a generic
        // real diagonal would force the whole diagonal tile to FP64).
        let need = (1.3 * off + 1.0).ceil();
        match diag_k {
            Some(k) => {
                if a.vals[k] < need {
                    a.vals[k] = need + class.sample_positive(rng).min(8.0);
                }
            }
            None => unreachable!("generators always place a diagonal"),
        }
    }
}

/// 2-D convection–diffusion 5-point upwind stencil (nonsymmetric). `conv`
/// controls the convection strength (0 = symmetric Poisson). Values are
/// generic reals unless `conv` is chosen dyadic.
pub fn convdiff2d(nx: usize, ny: usize, conv_x: f64, conv_y: f64) -> Csr {
    let n = nx * ny;
    let mut a = Coo::with_capacity(n, n, 5 * n);
    let idx = |i: usize, j: usize| i * ny + j;
    for i in 0..nx {
        for j in 0..ny {
            let r = idx(i, j);
            a.push(r, r, 4.0 + conv_x + conv_y);
            if i > 0 {
                a.push(r, idx(i - 1, j), -1.0 - conv_x);
            }
            if i + 1 < nx {
                a.push(r, idx(i + 1, j), -1.0);
            }
            if j > 0 {
                a.push(r, idx(i, j - 1), -1.0 - conv_y);
            }
            if j + 1 < ny {
                a.push(r, idx(i, j + 1), -1.0);
            }
        }
    }
    a.to_csr()
}

/// Circuit-like nonsymmetric matrix (`ASIC_320k`-style, Fig. 1 right):
/// `nblocks` dense-ish diagonal device blocks of `block` rows with
/// small-integer conductance values (FP8-classifiable), plus `hub_links`
/// wide-dynamic-range entries (FP64) confined to a contiguous *hub band* of
/// `hub_fraction·n` supply/clock nodes — the "row/column rectangular
/// connections" the paper observes to need FP64 while the device blocks
/// classify to FP8. Diagonally dominated.
pub fn circuit_like(
    nblocks: usize,
    block: usize,
    hub_links: usize,
    hub_fraction: f64,
    seed: u64,
) -> Csr {
    circuit_like_with(
        nblocks,
        block,
        hub_links,
        hub_fraction,
        ValueClass::Wide,
        seed,
    )
}

/// [`circuit_like`] with an explicit hub value class — `WideModerate` keeps
/// the system solvable to 1e-10 (the `poli` proxy), full `Wide` reproduces
/// the extreme dynamic range of post-layout circuits (`ASIC_320k`).
pub fn circuit_like_with(
    nblocks: usize,
    block: usize,
    hub_links: usize,
    hub_fraction: f64,
    hub_class: ValueClass,
    seed: u64,
) -> Csr {
    let n = nblocks * block;
    let nhubs = ((n as f64 * hub_fraction) as usize).clamp(1, n);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut a = Coo::with_capacity(n, n, nblocks * block * block / 2 + 2 * hub_links + n);
    for b in 0..nblocks {
        let base = b * block;
        for i in 0..block {
            for j in 0..block {
                if i != j && rng.random_bool(0.45) {
                    a.push(base + i, base + j, ValueClass::Integer.sample(&mut rng));
                }
            }
        }
    }
    // Rectangular hub connections: every wide-range entry lives in a hub
    // *row* (supply/clock nets fan out to arbitrary columns). Keeping the
    // FP64 values inside the hub stripe is what reproduces Fig. 1's
    // ASIC_320k picture: FP8 device blocks, FP64 rectangular connections —
    // and it keeps the diagonal-dominance fix from widening non-hub rows.
    for _ in 0..hub_links {
        let hub = rng.random_range(0..nhubs);
        let other = rng.random_range(0..n);
        if hub != other {
            a.push(hub, other, hub_class.sample(&mut rng));
        }
    }
    for i in 0..n {
        a.push(i, i, 1.0); // placeholder, fixed below
    }
    let mut csr = a.to_csr();
    redominate(&mut csr, &mut rng, ValueClass::Integer);
    csr
}

/// Banded nonsymmetric diagonally dominant matrix (chemical/structural
/// nonsymmetric problems like `cz40948`). Its ILU(0) factors have dependency
/// chains of length ~n, which is where the recursive-block SpTRSV earns the
/// paper's largest preconditioned speedups (§IV-C).
pub fn banded_nonsym(n: usize, half_bw: usize, class: ValueClass, seed: u64) -> Csr {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut a = Coo::with_capacity(n, n, n * (2 * half_bw + 1));
    for i in 0..n {
        let lo = i.saturating_sub(half_bw);
        let hi = (i + half_bw + 1).min(n);
        for j in lo..hi {
            if j != i && rng.random_bool(0.8) {
                a.push(i, j, class.sample(&mut rng));
            }
        }
        a.push(i, i, 1.0);
    }
    let mut csr = a.to_csr();
    redominate(&mut csr, &mut rng, class);
    csr
}

/// Random-pattern nonsymmetric diagonally dominant matrix.
pub fn random_nonsym(n: usize, avg_off_per_row: usize, class: ValueClass, seed: u64) -> Csr {
    let mut rng = StdRng::seed_from_u64(seed);
    let entries = n * avg_off_per_row;
    let mut a = Coo::with_capacity(n, n, entries + n);
    for _ in 0..entries {
        let i = rng.random_range(0..n);
        let j = rng.random_range(0..n);
        if i != j {
            a.push(i, j, class.sample(&mut rng));
        }
    }
    for i in 0..n {
        a.push(i, i, 1.0);
    }
    let mut csr = a.to_csr();
    redominate(&mut csr, &mut rng, class);
    csr
}

/// Block-diagonal matrix where a `coupled_fraction` of the blocks are
/// Poisson-like (slow to converge) and the rest are (scaled) identity
/// blocks whose solution components converge immediately — the `m3plates`
/// behaviour of Fig. 4 ("a large portion of elements remaining unchanged
/// from the very beginning"), which is what the partial-convergence bypass
/// exploits.
pub fn decoupled_blocks(nblocks: usize, block: usize, coupled_fraction: f64, seed: u64) -> Csr {
    decoupled_blocks_with(nblocks, block, coupled_fraction, 4.0, seed)
}

/// [`decoupled_blocks`] with an explicit chain diagonal: `chain_diag = 2.0`
/// gives unshifted Laplacian chains whose condition grows with `block²`, so
/// the coupled part converges slowly while the identity part converges
/// immediately — maximizing the partial-convergence window (Fig. 4's
/// `m3plates`).
pub fn decoupled_blocks_with(
    nblocks: usize,
    block: usize,
    coupled_fraction: f64,
    chain_diag: f64,
    seed: u64,
) -> Csr {
    let n = nblocks * block;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut a = Coo::with_capacity(n, n, n * 3);
    for b in 0..nblocks {
        let base = b * block;
        if rng.random_bool(coupled_fraction) {
            // 1-D Laplacian chain block.
            for i in 0..block {
                a.push(base + i, base + i, chain_diag);
                if i > 0 {
                    a.push(base + i, base + i - 1, -1.0);
                }
                if i + 1 < block {
                    a.push(base + i, base + i + 1, -1.0);
                }
            }
        } else {
            // Identity-like block: converges in one step.
            for i in 0..block {
                a.push(base + i, base + i, 2.0);
            }
        }
    }
    a.to_csr()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_sparse::MatrixStats;

    #[test]
    fn poisson2d_is_spd() {
        let a = poisson2d(12, 9);
        assert_eq!(a.nrows, 108);
        let s = MatrixStats::compute(&a);
        assert!(s.symmetric);
        assert!(s.likely_spd());
        assert_eq!(s.max_abs, 4.0);
        // interior rows have 5 entries
        assert_eq!(a.get(13, 13), 4.0);
    }

    #[test]
    fn poisson3d_shape() {
        let a = poisson3d(5, 4, 3);
        assert_eq!(a.nrows, 60);
        let s = MatrixStats::compute(&a);
        assert!(s.likely_spd());
        // Interior point has 7 nonzeros.
        let interior = (4 + 1) * 3 + 1;
        assert_eq!(
            a.rowptr[interior + 1] - a.rowptr[interior],
            7,
            "row {interior}"
        );
    }

    #[test]
    fn tridiag_values() {
        let a = tridiag(5, 2.0, -1.0);
        assert_eq!(a.nnz(), 13);
        assert!(a.is_symmetric(0.0));
    }

    #[test]
    fn mass_matrix_is_diagonal() {
        let a = mass_matrix(50, ValueClass::Integer, 3);
        assert_eq!(a.nnz(), 50);
        let s = MatrixStats::compute(&a);
        assert!(s.likely_spd());
        assert_eq!(s.bandwidth, 0);
    }

    #[test]
    fn banded_spd_is_spd() {
        for class in [ValueClass::Integer, ValueClass::Real] {
            let a = banded_spd(200, 4, class, 11);
            let s = MatrixStats::compute(&a);
            assert!(s.symmetric, "{class:?}");
            assert_eq!(s.diag_dominant_fraction, 1.0, "{class:?}");
            assert!(s.positive_diagonal);
            assert!(s.bandwidth <= 4);
        }
    }

    #[test]
    fn random_spd_is_spd() {
        for seed in 0..5 {
            let a = random_spd(300, 6, ValueClass::Real, seed);
            let s = MatrixStats::compute(&a);
            assert!(s.symmetric, "seed {seed}");
            assert_eq!(s.diag_dominant_fraction, 1.0, "seed {seed}");
            assert!(s.positive_diagonal, "seed {seed}");
        }
    }

    #[test]
    fn convdiff_is_nonsymmetric() {
        let a = convdiff2d(10, 10, 0.6, 0.3);
        let s = MatrixStats::compute(&a);
        assert!(!s.symmetric);
        // Interior rows sit exactly on the weak-dominance boundary; float
        // summation order can tip them an ulp either way.
        assert!(
            s.diag_dominant_fraction > 0.3,
            "{}",
            s.diag_dominant_fraction
        );
        let dyadic = convdiff2d(10, 10, 0.5, 0.25);
        let s2 = MatrixStats::compute(&dyadic);
        assert_eq!(s2.diag_dominant_fraction, 1.0); // dyadic sums are exact
    }

    #[test]
    fn convdiff_zero_convection_is_poisson() {
        let a = convdiff2d(7, 7, 0.0, 0.0);
        let b = poisson2d(7, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn circuit_like_structure() {
        let a = circuit_like(30, 8, 100, 0.1, 5);
        assert_eq!(a.nrows, 240);
        let s = MatrixStats::compute(&a);
        assert!(!s.symmetric);
        assert_eq!(s.diag_dominant_fraction, 1.0);
        // Wide value range from the hub links.
        assert!(s.max_abs / s.min_abs > 1e6);
    }

    #[test]
    fn random_nonsym_dominant() {
        let a = random_nonsym(250, 5, ValueClass::SingleExact, 9);
        let s = MatrixStats::compute(&a);
        assert!(!s.symmetric);
        assert_eq!(s.diag_dominant_fraction, 1.0);
    }

    #[test]
    fn decoupled_blocks_structure() {
        let a = decoupled_blocks(10, 20, 0.5, 17);
        assert_eq!(a.nrows, 200);
        let s = MatrixStats::compute(&a);
        assert!(s.likely_spd());
        // Identity blocks exist: some rows have exactly one entry.
        let singleton_rows = (0..200)
            .filter(|&r| a.rowptr[r + 1] - a.rowptr[r] == 1)
            .count();
        assert!(singleton_rows > 0);
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(
            random_spd(100, 4, ValueClass::Real, 42),
            random_spd(100, 4, ValueClass::Real, 42)
        );
        assert_ne!(
            random_spd(100, 4, ValueClass::Real, 42),
            random_spd(100, 4, ValueClass::Real, 43)
        );
    }
}
