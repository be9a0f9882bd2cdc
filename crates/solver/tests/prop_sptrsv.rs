//! Property tests for the in-kernel SpTRSV dependency protocol: across
//! random triangular factors, segment sizes, symmetric permutations and
//! 1–8 warps, `run_ilu_sptrsv_threaded` must be **bitwise** identical to
//! the sequential `sptrsv_lower_into` + `sptrsv_upper_into` kernels — the
//! per-row epoch counters only reorder the *waiting*, never the
//! floating-point combination order. On ILU(0) factors it must also match
//! `Ilu0::apply_into`, the apply the sequential cores and the serving
//! layer run, so every engine solves a triangle in one order.

use mf_kernels::{ilu0, sptrsv_lower_into, sptrsv_upper_into};
use mf_solver::{run_ilu_sptrsv_threaded, ThreadedOpts};
use mf_sparse::{Coo, Csr};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Random strictly-lower factor with `fill` off-diagonal entries per row
/// on average; explicit unit diagonal is implied when `unit` is set,
/// otherwise a safely-nonzero diagonal entry is stored.
fn random_lower(n: usize, fill: usize, unit: bool, rng: &mut StdRng) -> Csr {
    let mut coo = Coo::new(n, n);
    for r in 0..n {
        if r > 0 && fill > 0 {
            let k = rng.random_range(0usize..fill + 1).min(r);
            for _ in 0..k {
                let c = rng.random_range(0usize..r);
                coo.push(r, c, rng.random_range(-1.0f64..1.0));
            }
        }
        if !unit {
            coo.push(r, r, 1.0 + rng.random_range(0.0f64..2.0));
        }
    }
    coo.to_csr()
}

/// Random upper factor with a stored nonzero diagonal.
fn random_upper(n: usize, fill: usize, rng: &mut StdRng) -> Csr {
    let mut coo = Coo::new(n, n);
    for r in 0..n {
        let above = n - 1 - r;
        if above > 0 && fill > 0 {
            let k = rng.random_range(0usize..fill + 1).min(above);
            for _ in 0..k {
                let c = rng.random_range(r + 1..n);
                coo.push(r, c, rng.random_range(-1.0f64..1.0));
            }
        }
        coo.push(r, r, 1.0 + rng.random_range(0.0f64..2.0));
    }
    coo.to_csr()
}

/// Random symmetric diagonally dominant matrix under a random symmetric
/// permutation — realistic, irregular ILU(0) dependency structure.
fn permuted_spd(n: usize, extra: usize, rng: &mut StdRng) -> Csr {
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.random_range(0usize..i + 1);
        perm.swap(i, j);
    }
    let mut coo = Coo::new(n, n);
    let mut row_abs = vec![0.0; n];
    for _ in 0..extra {
        let i = rng.random_range(0usize..n);
        let j = rng.random_range(0usize..n);
        if i == j {
            continue;
        }
        let v = rng.random_range(-1.0f64..1.0);
        coo.push(perm[i], perm[j], v);
        coo.push(perm[j], perm[i], v);
        row_abs[i] += v.abs();
        row_abs[j] += v.abs();
    }
    for i in 0..n {
        coo.push(perm[i], perm[i], 1.5 * row_abs[i] + 1.0);
    }
    coo.to_csr()
}

/// Sequential reference: x = U⁻¹ L⁻¹ b.
fn sequential(l: &Csr, u: &Csr, b: &[f64], unit_lower: bool, unit_upper: bool) -> Vec<f64> {
    let n = l.nrows;
    let mut y = vec![0.0; n];
    let mut x = vec![0.0; n];
    sptrsv_lower_into(l, b, &mut y, unit_lower);
    sptrsv_upper_into(u, &y, &mut x, unit_upper);
    x
}

fn assert_bitwise(
    rep: &mf_solver::SolveReport,
    x: &[f64],
) -> proptest::test_runner::TestCaseResult {
    prop_assert!(rep.converged);
    prop_assert!(rep.failure.is_none(), "failure: {:?}", rep.failure);
    for (i, (e, s)) in rep.x.iter().zip(x).enumerate() {
        prop_assert!(e.to_bits() == s.to_bits(), "row {}: {} vs {}", i, e, s);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random triangular factors, random segment size (≡ tile size),
    /// random warp count, optional unit lower diagonal.
    #[test]
    fn threaded_sptrsv_bitwise_matches_sequential(
        n in 1usize..140,
        fill in 0usize..6,
        seg in 1usize..40,
        warps in 1usize..9,
        unit in 0u8..2,
        seed in 0u64..10_000,
    ) {
        let unit_lower = unit == 1;
        let mut rng = StdRng::seed_from_u64(seed);
        let l = random_lower(n, fill, unit_lower, &mut rng);
        let u = random_upper(n, fill, &mut rng);
        let b: Vec<f64> = (0..n).map(|_| rng.random_range(-2.0f64..2.0)).collect();

        let x = sequential(&l, &u, &b, unit_lower, false);
        let rep = run_ilu_sptrsv_threaded(&l, &u, &b, unit_lower, false, seg, &ThreadedOpts::new(warps));
        assert_bitwise(&rep, &x)?;
    }

    /// ILU(0) factors of a randomly permuted diagonally dominant matrix:
    /// irregular cross-warp dependency chains in both sweeps.
    #[test]
    fn threaded_sptrsv_matches_on_permuted_ilu_factors(
        n in 4usize..120,
        extra in 0usize..200,
        seg in 1usize..33,
        warps in 1usize..9,
        seed in 0u64..5_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = permuted_spd(n, extra, &mut rng);
        let f = ilu0(&a).expect("dominant matrix factors");
        let b: Vec<f64> = (0..n).map(|_| rng.random_range(-2.0f64..2.0)).collect();

        let x = sequential(&f.l, &f.u, &b, true, false);
        let rep = run_ilu_sptrsv_threaded(&f.l, &f.u, &b, true, false, seg, &ThreadedOpts::new(warps));
        assert_bitwise(&rep, &x)?;
        let (mut y, mut z) = (vec![0.0; n], vec![0.0; n]);
        f.apply_into(&b, &mut y, &mut z);
        assert_bitwise(&rep, &z)?;
    }
}
