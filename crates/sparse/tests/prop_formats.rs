//! Property-based tests for the sparse formats.

use mf_precision::{ClassifyOptions, Precision};
use mf_sparse::{Coo, Csr, Dense, TiledMatrix};
use proptest::prelude::*;

/// Strategy generating a random COO matrix with exactly-representable values
/// (multiples of 1/8 in [-16, 16] are exact in every precision >= FP8),
/// so format round-trips are bit-exact.
fn exact_coo(max_n: usize, max_nnz: usize) -> impl Strategy<Value = Coo> {
    (1..max_n, 1..max_n).prop_flat_map(move |(nr, nc)| {
        prop::collection::vec((0..nr, 0..nc, -128i32..=128), 0..max_nnz).prop_map(move |entries| {
            let mut a = Coo::new(nr, nc);
            for (r, c, v) in entries {
                a.push(r, c, v as f64 / 8.0);
            }
            a.compact();
            a
        })
    })
}

/// Strategy generating arbitrary-valued square COO matrices.
fn general_coo(max_n: usize, max_nnz: usize) -> impl Strategy<Value = Coo> {
    (2..max_n).prop_flat_map(move |n| {
        prop::collection::vec((0..n, 0..n, -1e3f64..1e3), 1..max_nnz).prop_map(move |entries| {
            let mut a = Coo::new(n, n);
            for (r, c, v) in entries {
                a.push(r, c, v);
            }
            a.compact();
            a
        })
    })
}

proptest! {
    /// COO -> CSR -> COO is the identity on compacted matrices.
    #[test]
    fn coo_csr_roundtrip(a in general_coo(40, 200)) {
        let mut back = a.to_csr().to_coo();
        back.compact();
        prop_assert_eq!(back, a);
    }

    /// CSR transpose is an involution.
    #[test]
    fn transpose_involution(a in general_coo(30, 150)) {
        let csr = a.to_csr();
        prop_assert_eq!(csr.transpose().transpose(), csr);
    }

    /// Tiled round-trip is exact for exactly-representable values, at every
    /// tile size.
    #[test]
    fn tiled_roundtrip_exact(a in exact_coo(50, 300), ts in 2usize..32) {
        let csr = a.to_csr();
        let t = TiledMatrix::from_csr_with(&csr, ts, &ClassifyOptions::default());
        prop_assert_eq!(t.to_csr(), csr.clone());
        prop_assert_eq!(t.nnz(), csr.nnz());
    }

    /// For arbitrary values, the tiled round-trip equals quantizing each
    /// value at its tile's precision — and with classification, the tile
    /// precision loses nothing (loss < 1e-15 relative by construction).
    #[test]
    fn tiled_roundtrip_loss_bound(a in general_coo(40, 200), ts in 2usize..20) {
        let csr = a.to_csr();
        let t = TiledMatrix::from_csr_with(&csr, ts, &ClassifyOptions::default());
        let back = t.to_csr();
        prop_assert_eq!(back.rowptr, csr.rowptr.clone());
        prop_assert_eq!(back.colidx, csr.colidx.clone());
        for (v, w) in csr.vals.iter().zip(&back.vals) {
            let rel = (v - w).abs() / v.abs().max(f64::MIN_POSITIVE);
            prop_assert!(rel < 1e-15, "value {v} stored as {w}");
        }
    }

    /// Tiled SpMV agrees with CSR SpMV for exact values.
    #[test]
    fn tiled_matvec_matches_csr(a in exact_coo(40, 250), ts in 2usize..20) {
        let csr = a.to_csr();
        let t = TiledMatrix::from_csr_with(&csr, ts, &ClassifyOptions::default());
        let x: Vec<f64> = (0..csr.ncols).map(|i| ((i * 7 + 3) % 11) as f64 - 5.0).collect();
        let mut y1 = vec![0.0; csr.nrows];
        let mut y2 = vec![0.0; csr.nrows];
        csr.matvec(&x, &mut y1);
        t.matvec(&x, &mut y2);
        for i in 0..csr.nrows {
            prop_assert!((y1[i] - y2[i]).abs() <= 1e-9 * y1[i].abs().max(1.0));
        }
    }

    /// Forcing uniform FP64 keeps any matrix bit-exact.
    #[test]
    fn uniform_fp64_lossless(a in general_coo(30, 150), ts in 2usize..20) {
        let csr = a.to_csr();
        let t = TiledMatrix::from_csr_uniform(&csr, ts, Precision::Fp64);
        prop_assert_eq!(t.to_csr(), csr);
    }

    /// Histogram invariants: per-tile and per-nnz histograms sum correctly.
    #[test]
    fn histogram_invariants(a in general_coo(30, 150)) {
        let csr = a.to_csr();
        let t = TiledMatrix::from_csr(&csr);
        prop_assert_eq!(t.tile_precision_histogram().iter().sum::<usize>(), t.tile_count());
        prop_assert_eq!(t.nnz_precision_histogram().iter().sum::<usize>(), t.nnz());
    }

    /// Memory model: tiled value bytes never exceed CSR value bytes, and the
    /// whole structure is within a small factor of CSR for any matrix.
    #[test]
    fn memory_sanity(a in general_coo(40, 200)) {
        let csr = a.to_csr();
        let t = TiledMatrix::from_csr(&csr);
        let m = t.memory_bytes();
        prop_assert!(m.values <= 8 * csr.nnz());
        prop_assert!(m.total() > 0 || csr.nnz() == 0);
    }

    /// CSR matvec agrees with the dense oracle.
    #[test]
    fn csr_matvec_matches_dense(a in general_coo(20, 80)) {
        let csr = a.to_csr();
        let d = Dense::from_csr(&csr);
        let x: Vec<f64> = (0..csr.ncols).map(|i| (i as f64).sin()).collect();
        let mut y1 = vec![0.0; csr.nrows];
        let mut y2 = vec![0.0; csr.nrows];
        csr.matvec(&x, &mut y1);
        d.matvec(&x, &mut y2);
        for i in 0..csr.nrows {
            prop_assert!((y1[i] - y2[i]).abs() < 1e-9 * y1[i].abs().max(1.0));
        }
    }

    /// get() agrees with dense indexing.
    #[test]
    fn csr_get_matches_dense(a in general_coo(15, 60)) {
        let csr = a.to_csr();
        let d = Dense::from_csr(&csr);
        for r in 0..csr.nrows {
            for c in 0..csr.ncols {
                prop_assert_eq!(csr.get(r, c), d[(r, c)]);
            }
        }
    }

    /// Matrix Market write/read round-trips any compacted COO matrix.
    #[test]
    fn matrix_market_roundtrip(a in general_coo(25, 100)) {
        let mut buf = Vec::new();
        mf_sparse::mm::write_matrix_market(&mut buf, &a).unwrap();
        let b = mf_sparse::mm::read_matrix_market(&buf[..]).unwrap();
        prop_assert_eq!(a, b);
    }
}

#[test]
fn tiled_handles_identity_at_every_tile_size() {
    for ts in [2, 3, 4, 7, 16, 17, 32] {
        let csr = Csr::identity(65);
        let t = TiledMatrix::from_csr_with(&csr, ts, &ClassifyOptions::default());
        assert_eq!(t.to_csr(), csr, "tile size {ts}");
        // Identity values are 1.0 -> every tile classifies to FP8.
        assert_eq!(t.tile_precision_histogram()[3], t.tile_count());
    }
}
