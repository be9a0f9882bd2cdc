//! Property-based tests for the computational kernels.

use mf_kernels::{
    blas1, ilu0, level_schedule, spmv_csr, spmv_mixed, spmv_mixed_par, spmv_tiled, sptrsv_lower,
    SharedTiles, VisFlag,
};
use mf_precision::{ClassifyOptions, Precision};
use mf_sparse::{Coo, Csr, TiledMatrix};
use proptest::prelude::*;

fn coo_strategy(max_n: usize, max_nnz: usize) -> impl Strategy<Value = Csr> {
    (2..max_n).prop_flat_map(move |n| {
        prop::collection::vec((0..n, 0..n, -8i32..=8), 0..max_nnz).prop_map(move |entries| {
            let mut a = Coo::new(n, n);
            for i in 0..n {
                a.push(i, i, 20.0); // dominant diagonal
            }
            for (r, c, v) in entries {
                if r != c && v != 0 {
                    a.push(r, c, v as f64 / 2.0);
                }
            }
            a.to_csr()
        })
    })
}

/// Like [`coo_strategy`] but with values spread over many magnitudes, so
/// precision lowering is genuinely lossy and per-tile classification picks
/// different precisions — the interesting regime for bitwise-identity tests.
fn varied_coo_strategy(max_n: usize, max_nnz: usize) -> impl Strategy<Value = Csr> {
    (2..max_n).prop_flat_map(move |n| {
        prop::collection::vec((0..n, 0..n, 1i32..=2000), 0..max_nnz).prop_map(move |entries| {
            let mut a = Coo::new(n, n);
            for i in 0..n {
                a.push(i, i, 20.0 + (i % 7) as f64 * 0.013);
            }
            for (r, c, v) in entries {
                if r != c {
                    let mag = 10f64.powi((v % 11) - 5);
                    a.push(r, c, v as f64 / 777.0 * mag);
                }
            }
            a.to_csr()
        })
    })
}

/// Deterministic value vector for the fused-kernel equivalence tests: mostly
/// finite values across magnitudes, with NaN and ±Inf mixed in (1-in-16 slots
/// each) so the fused pass is proven to propagate non-finite data exactly
/// like the unfused sequence.
fn special_vec(n: usize, seed: u64, salt: u64) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let h = seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(i as u64 * 131 + salt);
            match h % 16 {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                k => ((h >> 8) as f64 / (1u64 << 40) as f64 - 8.0) * 10f64.powi(k as i32 - 8),
            }
        })
        .collect()
}

/// Bitwise comparison that treats every NaN payload as equal (the unfused
/// reference can produce a differently-signed NaN from `-alpha * inf`-style
/// intermediates on some orderings; the contract is "NaN where NaN").
fn bits_match(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

const FLAG_CHOICES: [VisFlag; 5] = [
    VisFlag::Bypass,
    VisFlag::Fp16,
    VisFlag::Fp8,
    VisFlag::Fp32,
    VisFlag::Keep,
];

/// Deterministic pseudo-random flag pattern for `tile_cols` column segments.
fn flag_pattern(tile_cols: usize, seed: u64, round: u64) -> Vec<VisFlag> {
    (0..tile_cols)
        .map(|c| {
            let h = seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(c as u64 * 97 + round * 131);
            FLAG_CHOICES[(h % FLAG_CHOICES.len() as u64) as usize]
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Mixed SpMV with all-Keep flags equals CSR SpMV (values here are
    /// exactly representable at every classified precision).
    #[test]
    fn mixed_spmv_matches_csr(a in coo_strategy(60, 250)) {
        let t = TiledMatrix::from_csr(&a);
        let mut shared = SharedTiles::load(&t);
        let flags = vec![VisFlag::Keep; t.tile_cols];
        let x: Vec<f64> = (0..a.ncols).map(|i| ((i * 3 + 1) % 7) as f64 - 3.0).collect();
        let mut y1 = vec![0.0; a.nrows];
        let mut y2 = vec![0.0; a.nrows];
        spmv_csr(&a, &x, &mut y1);
        let stats = spmv_mixed(&t, &mut shared, &flags, &x, &mut y2);
        for i in 0..a.nrows {
            prop_assert!((y1[i] - y2[i]).abs() < 1e-9 * y1[i].abs().max(1.0));
        }
        prop_assert_eq!(stats.nnz_total(), a.nnz());
    }

    /// Bypassing a column set equals zeroing those x entries.
    #[test]
    fn bypass_equals_zeroed_input(a in coo_strategy(50, 200), bypass_col in 0usize..4) {
        let t = TiledMatrix::from_csr(&a);
        if t.tile_cols == 0 { return Ok(()); }
        let bc = bypass_col % t.tile_cols;
        let mut shared = SharedTiles::load(&t);
        let mut flags = vec![VisFlag::Keep; t.tile_cols];
        flags[bc] = VisFlag::Bypass;
        let x: Vec<f64> = (0..a.ncols).map(|i| (i % 5) as f64 + 1.0).collect();
        let mut y1 = vec![0.0; a.nrows];
        spmv_mixed(&t, &mut shared, &flags, &x, &mut y1);
        // Oracle: zero the bypassed columns.
        let mut x2 = x.clone();
        for (i, e) in x2.iter_mut().enumerate() {
            if i / t.tile_size == bc {
                *e = 0.0;
            }
        }
        let mut y2 = vec![0.0; a.nrows];
        spmv_csr(&a, &x2, &mut y2);
        for i in 0..a.nrows {
            prop_assert!((y1[i] - y2[i]).abs() < 1e-9 * y2[i].abs().max(1.0));
        }
    }

    /// Triangular solves invert the triangle: L·x == b after solving.
    #[test]
    fn lower_solve_inverts(a in coo_strategy(50, 200)) {
        let l = a.lower_triangle();
        let b: Vec<f64> = (0..l.nrows).map(|i| ((i * 7) % 11) as f64 - 5.0).collect();
        let x = sptrsv_lower(&l, &b, false);
        let mut back = vec![0.0; l.nrows];
        l.matvec(&x, &mut back);
        for i in 0..l.nrows {
            prop_assert!((back[i] - b[i]).abs() < 1e-8 * b[i].abs().max(1.0));
        }
    }

    /// ILU(0) preconditioning: applying M⁻¹ never produces NaN on dominant
    /// systems, and M⁻¹·(A·x) ≈ x for tridiagonal-like patterns where the
    /// factorization is exact.
    #[test]
    fn ilu_apply_is_finite(a in coo_strategy(50, 200)) {
        let f = ilu0(&a).unwrap();
        let b: Vec<f64> = (0..a.nrows).map(|i| (i as f64).cos()).collect();
        let z = f.apply(&b);
        prop_assert!(z.iter().all(|v| v.is_finite()));
    }

    /// Level schedules are valid topological orders: every dependency of a
    /// row sits in a strictly earlier level.
    #[test]
    fn level_schedule_is_topological(a in coo_strategy(60, 250)) {
        let l = a.lower_triangle();
        let s = level_schedule(&l, true);
        for r in 0..l.nrows {
            for (c, _) in l.row(r) {
                if c < r {
                    prop_assert!(s.level_of[c] < s.level_of[r]);
                }
            }
        }
        prop_assert_eq!(s.level_sizes.iter().sum::<usize>(), l.nrows);
    }

    /// The stripe-parallel mixed SpMV is bitwise-identical to the serial
    /// engine — outputs, stats, arena bits, and precision state — across
    /// random matrices, tile sizes, thread counts, and flag patterns,
    /// including mid-run precision lowering and bypass (two rounds with
    /// different demands against the *same* shared-tile state).
    #[test]
    fn par_mixed_spmv_bitwise_equals_serial(
        a in varied_coo_strategy(80, 400),
        tile_pick in 0usize..5,
        threads in 2usize..9,
        flag_seed in 0u64..1_000_000,
    ) {
        let tile = [2usize, 4, 8, 16, 32][tile_pick];
        let t = TiledMatrix::from_csr_with(&a, tile, &ClassifyOptions::default());
        let x: Vec<f64> = (0..a.ncols)
            .map(|i| ((i * 13 + 5) % 29) as f64 * 0.37 - 4.0)
            .collect();
        let mut sh_s = SharedTiles::load(&t);
        let mut sh_p = SharedTiles::load(&t);
        for round in 0..2u64 {
            let flags = flag_pattern(t.tile_cols, flag_seed, round);
            let mut y_s = vec![0.0; a.nrows];
            let mut y_p = vec![0.0; a.nrows];
            let st_s = spmv_mixed(&t, &mut sh_s, &flags, &x, &mut y_s);
            let st_p = spmv_mixed_par(&t, &mut sh_p, &flags, &x, &mut y_p, threads);
            prop_assert_eq!(st_s, st_p);
            for i in 0..a.nrows {
                prop_assert_eq!(y_s[i].to_bits(), y_p[i].to_bits());
            }
        }
        // Shared state after both rounds: identical lowered values (bitwise)
        // and identical per-tile precision records.
        for i in 0..t.tile_count() {
            let (v_s, v_p) = (sh_s.tile_values(&t, i), sh_p.tile_values(&t, i));
            prop_assert_eq!(v_s.len(), v_p.len());
            for k in 0..v_s.len() {
                prop_assert_eq!(v_s[k].to_bits(), v_p[k].to_bits());
            }
        }
        prop_assert_eq!(sh_s.current_prec(), sh_p.current_prec());
    }

    /// BLAS-1 identities: dot linearity and axpy/xpay consistency.
    #[test]
    fn blas1_identities(v in prop::collection::vec(-100.0f64..100.0, 1..200), alpha in -10.0f64..10.0) {
        let n = v.len();
        let w: Vec<f64> = v.iter().map(|x| x * 0.5 + 1.0).collect();
        // dot(v, w) == dot(w, v)
        prop_assert!((blas1::dot(&v, &w) - blas1::dot(&w, &v)).abs() < 1e-9);
        // axpy then subtract recovers the original.
        let mut y = w.clone();
        blas1::axpy(alpha, &v, &mut y);
        blas1::axpy(-alpha, &v, &mut y);
        for i in 0..n {
            prop_assert!((y[i] - w[i]).abs() < 1e-9 * w[i].abs().max(1.0));
        }
        // waxpy(x, a, y) == x + a*y elementwise.
        let mut z = vec![0.0; n];
        blas1::waxpy(&v, alpha, &w, &mut z);
        for i in 0..n {
            prop_assert!((z[i] - (v[i] + alpha * w[i])).abs() < 1e-12 * z[i].abs().max(1.0));
        }
    }

    /// The fused pipelined-CG update applied per random segment is bitwise
    /// identical to the unfused whole-vector xpay/axpy sequence — over random
    /// values (including NaN/Inf), scalars, and segment splits. This is the
    /// exact claim the threaded engines rely on: fusing five kernels into one
    /// pass, cut at arbitrary owner-segment boundaries, changes no bits.
    #[test]
    fn fused_cg_update_bitwise_equals_unfused(
        n in 1usize..300,
        seed in 0u64..u64::MAX,
        alpha_raw in -100.0f64..100.0,
        alpha_kind in 0u8..10,
        beta in -100.0f64..100.0,
    ) {
        // 1-in-5 cases drive a non-finite alpha through the fused pass.
        let alpha = match alpha_kind {
            8 => f64::INFINITY,
            9 => f64::NAN,
            _ => alpha_raw,
        };
        let mk = |salt: u64| special_vec(n, seed, salt);
        let q = mk(1);
        let (p0, s0, z0, x0, r0, w0) = (mk(2), mk(3), mk(7), mk(4), mk(5), mk(6));

        // Unfused reference over the whole vector.
        let (mut p1, mut s1, mut z1, mut x1, mut r1, mut w1) = (
            p0.clone(), s0.clone(), z0.clone(), x0.clone(), r0.clone(), w0.clone(),
        );
        blas1::xpay(&r1.clone(), beta, &mut p1);
        blas1::xpay(&w1.clone(), beta, &mut s1);
        blas1::xpay(&q, beta, &mut z1);
        blas1::axpy(alpha, &p1, &mut x1);
        blas1::axpy(-alpha, &s1, &mut r1);
        blas1::axpy(-alpha, &z1, &mut w1);

        // Fused pass over random contiguous segments (cut points from the
        // same seed), mimicking arbitrary owner-warp boundaries.
        let mut bounds: Vec<usize> = (0..(seed % 5) as usize)
            .map(|k| (seed.wrapping_mul(k as u64 * 2 + 3) % (n as u64 + 1)) as usize)
            .collect();
        bounds.push(0);
        bounds.push(n);
        bounds.sort_unstable();
        bounds.dedup();
        let (mut p2, mut s2, mut z2, mut x2, mut r2, mut w2) = (
            p0.clone(), s0.clone(), z0.clone(), x0.clone(), r0.clone(), w0.clone(),
        );
        for win in bounds.windows(2) {
            let (lo, hi) = (win[0], win[1]);
            blas1::cg_pipelined_update(
                alpha, beta, &q[lo..hi],
                &mut p2[lo..hi], &mut s2[lo..hi], &mut z2[lo..hi],
                &mut x2[lo..hi], &mut r2[lo..hi], &mut w2[lo..hi],
            );
        }
        for i in 0..n {
            prop_assert!(bits_match(p1[i], p2[i]), "p[{i}]: {:e} vs {:e}", p1[i], p2[i]);
            prop_assert!(bits_match(s1[i], s2[i]), "s[{i}]: {:e} vs {:e}", s1[i], s2[i]);
            prop_assert!(bits_match(z1[i], z2[i]), "z[{i}]: {:e} vs {:e}", z1[i], z2[i]);
            prop_assert!(bits_match(x1[i], x2[i]), "x[{i}]: {:e} vs {:e}", x1[i], x2[i]);
            prop_assert!(bits_match(r1[i], r2[i]), "r[{i}]: {:e} vs {:e}", r1[i], r2[i]);
            prop_assert!(bits_match(w1[i], w2[i]), "w[{i}]: {:e} vs {:e}", w1[i], w2[i]);
        }
    }

    /// Same claim for the eight-way fused pipelined-PCG update.
    #[test]
    fn fused_pcg_update_bitwise_equals_unfused(
        n in 1usize..250,
        seed in 0u64..u64::MAX,
        alpha in -50.0f64..50.0,
        beta_raw in -50.0f64..50.0,
        beta_kind in 0u8..9,
        cut in 0usize..250,
    ) {
        let beta = if beta_kind == 8 { f64::NEG_INFINITY } else { beta_raw };
        let m_vals = special_vec(n, seed, 21);
        let nn_vals = special_vec(n, seed, 22);
        let m = &m_vals[..];
        let nn = &nn_vals[..];
        let mk = |k: f64| -> Vec<f64> { (0..n).map(|i| ((i as f64) * k).sin() * 1e2).collect() };
        let (p0, s0, q0, zz0) = (mk(0.1), mk(0.2), mk(0.3), mk(0.4));
        let (x0, r0, u0, w0) = (mk(0.5), mk(0.6), mk(0.8), mk(1.1));

        let (mut p1, mut s1, mut q1, mut zz1) = (p0.clone(), s0.clone(), q0.clone(), zz0.clone());
        let (mut x1, mut r1, mut u1, mut w1) = (x0.clone(), r0.clone(), u0.clone(), w0.clone());
        blas1::xpay(&u1.clone(), beta, &mut p1);
        blas1::xpay(&w1.clone(), beta, &mut s1);
        blas1::xpay(m, beta, &mut q1);
        blas1::xpay(nn, beta, &mut zz1);
        blas1::axpy(alpha, &p1, &mut x1);
        blas1::axpy(-alpha, &s1, &mut r1);
        blas1::axpy(-alpha, &q1, &mut u1);
        blas1::axpy(-alpha, &zz1, &mut w1);

        let (mut p2, mut s2, mut q2, mut zz2) = (p0.clone(), s0.clone(), q0.clone(), zz0.clone());
        let (mut x2, mut r2, mut u2, mut w2) = (x0.clone(), r0.clone(), u0.clone(), w0.clone());
        let c = cut.min(n);
        for (lo, hi) in [(0, c), (c, n)] {
            blas1::pcg_pipelined_update(
                alpha, beta, &m[lo..hi], &nn[lo..hi],
                &mut p2[lo..hi], &mut s2[lo..hi], &mut q2[lo..hi], &mut zz2[lo..hi],
                &mut x2[lo..hi], &mut r2[lo..hi], &mut u2[lo..hi], &mut w2[lo..hi],
            );
        }
        for i in 0..n {
            prop_assert!(bits_match(p1[i], p2[i]));
            prop_assert!(bits_match(s1[i], s2[i]));
            prop_assert!(bits_match(q1[i], q2[i]));
            prop_assert!(bits_match(zz1[i], zz2[i]));
            prop_assert!(bits_match(x1[i], x2[i]));
            prop_assert!(bits_match(r1[i], r2[i]));
            prop_assert!(bits_match(u1[i], u2[i]));
            prop_assert!(bits_match(w1[i], w2[i]));
        }
    }

    /// The fused dot pair returns exactly the bits of two separate dots.
    #[test]
    fn dot2_bitwise_equals_two_dots(
        x1 in prop::collection::vec(-1.0e8f64..1.0e8, 1..400),
        seed in 0u64..u64::MAX,
    ) {
        let n = x1.len();
        let x2: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7 + seed as f64 * 1e-12).cos()).collect();
        let y: Vec<f64> = (0..n).map(|i| ((i * 13 + 7) % 101) as f64 * 1e-3 - 0.05).collect();
        let (a, b) = blas1::dot2(&x1, &x2, &y);
        prop_assert_eq!(a.to_bits(), blas1::dot(&x1, &y).to_bits());
        prop_assert_eq!(b.to_bits(), blas1::dot(&x2, &y).to_bits());
    }

    /// The FP64 tiled SpMV computes the CSR product on a few-thousand-row
    /// matrix with values spread over eight decades: the two differ only
    /// by the per-tile regrouping of each row sum.
    #[test]
    fn tiled_spmv_matches_csr(
        delta in 0usize..64,
        seed in 0u64..1_000_000,
        extra in prop::collection::vec((0usize..4_160, 0usize..4_160, 1i32..=100), 0..200),
    ) {
        let n = 4_064 + delta;
        let x: Vec<f64> = (0..n)
            .map(|i| ((i as u64 * 31 + seed) % 97) as f64 * 10f64.powi((i % 13) as i32 - 6))
            .collect();
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 20.0 + (i % 5) as f64 * 0.017);
        }
        for (r, c, v) in extra {
            if r < n && c < n && r != c {
                coo.push(r, c, v as f64 * 10f64.powi((v % 9) - 4));
            }
        }
        let a = coo.to_csr();
        let mut y1 = vec![0.0; n];
        spmv_csr(&a, &x, &mut y1);
        let t = TiledMatrix::from_csr_uniform(&a, 16, Precision::Fp64);
        let mut y2 = vec![0.0; n];
        spmv_tiled(&t, &x, &mut y2);
        for r in 0..n {
            let mag: f64 = (a.rowptr[r]..a.rowptr[r + 1])
                .map(|k| (a.vals[k] * x[a.colidx[k]]).abs())
                .sum();
            prop_assert!((y1[r] - y2[r]).abs() <= 1e-14 * mag, "row {}", r);
        }
    }
}
