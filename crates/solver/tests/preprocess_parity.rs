//! Facade preprocessing is policy-invariant, bitwise.
//!
//! `MilleFeuille::preprocess` and `MilleFeuille::preprocess_with_ilu0`
//! may build tiles and factor on several host threads, but every kernel
//! they run is the serial one, so under every [`HostParallelism`] policy
//! the result must equal the serial reference
//! (`TiledMatrix::from_csr_with` + `ilu0_boosted`): tile arrays and value
//! bytes, L/U patterns and value bits, the boost-shift trail, and the
//! factorization error. Preconditioned `MilleFeuille::solve` calls inherit the
//! same guarantee: `x` and the iteration count do not depend on the
//! policy.

use mf_collection::ValueClass;
use mf_gpu::DeviceSpec;
use mf_kernels::{ilu0_boosted, FactorError, Ilu0};
use mf_solver::config::AUTO_PAR_NNZ;
use mf_solver::{
    HostParallelism, Method, MilleFeuille, PrecondKind, SolveError, SolveSpec, SolverConfig,
};
use mf_sparse::{Coo, Csr, TiledMatrix};

const POLICIES: [HostParallelism; 4] = [
    HostParallelism::Serial,
    HostParallelism::Threads(2),
    HostParallelism::Threads(3),
    HostParallelism::Auto,
];

fn facade(policy: HostParallelism) -> MilleFeuille {
    MilleFeuille::new(
        DeviceSpec::a100(),
        SolverConfig {
            host_parallelism: policy,
            ..SolverConfig::default()
        },
    )
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A 5-point grid above [`AUTO_PAR_NNZ`] whose couplings alternate by
/// tile band between exact small integers and values that need FP64, so
/// the classifier assigns mixed tile precisions. Strictly dominant
/// diagonal: SPD, and ILU(0) succeeds unshifted.
fn large_mixed_grid() -> Csr {
    let g = 120;
    let n = g * g;
    let mut a = Coo::new(n, n);
    for i in 0..g {
        for j in 0..g {
            let r = i * g + j;
            let exact = (r / 64) % 2 == 0;
            let coupling = |c: usize| {
                if exact {
                    -1.0
                } else {
                    -1.0 - ((r * 31 + c * 17) % 97) as f64 / 977.0
                }
            };
            let mut diag = 0.5;
            let mut neighbours = Vec::new();
            if i > 0 {
                neighbours.push(r - g);
            }
            if i + 1 < g {
                neighbours.push(r + g);
            }
            if j > 0 {
                neighbours.push(r - 1);
            }
            if j + 1 < g {
                neighbours.push(r + 1);
            }
            for c in neighbours {
                let v = coupling(c);
                diag += v.abs();
                a.push(r, c, v);
            }
            a.push(r, r, diag);
        }
    }
    let a = a.to_csr();
    assert!(a.nnz() >= AUTO_PAR_NNZ, "fixture must exercise Auto");
    a
}

/// Row 0 is an isolated hard-zero pivot: ILU(0) succeeds only through
/// the boost schedule, so the shift trail is non-empty.
fn boosted_matrix() -> Csr {
    let mut a = Coo::new(48, 48);
    a.push(0, 0, 0.0);
    for i in 1..48 {
        a.push(i, i, 3.0 + i as f64 * 0.125);
        if i > 1 {
            a.push(i, i - 1, -1.0);
            a.push(i - 1, i, -1.0);
        }
    }
    a.to_csr()
}

fn non_square() -> Csr {
    let mut a = Coo::new(40, 48);
    for i in 0..40 {
        a.push(i, i, 2.0);
        a.push(i, i + 8, -0.5);
    }
    a.to_csr()
}

fn matrices() -> Vec<(&'static str, Csr)> {
    vec![
        ("large_mixed_grid", large_mixed_grid()),
        ("boosted", boosted_matrix()),
        ("non_square", non_square()),
        (
            "banded_spd",
            mf_collection::banded_spd(300, 6, ValueClass::WideModerate, 9),
        ),
    ]
}

fn assert_tiled_eq(got: &TiledMatrix, want: &TiledMatrix, ctx: &str) {
    assert_eq!((got.nrows, got.ncols), (want.nrows, want.ncols), "{ctx}");
    assert_eq!(got.tile_prec, want.tile_prec, "tile_prec: {ctx}");
    assert_eq!(got.tile_rowidx, want.tile_rowidx, "tile_rowidx: {ctx}");
    assert_eq!(got.tile_colidx, want.tile_colidx, "tile_colidx: {ctx}");
    assert_eq!(got.tile_nnz, want.tile_nnz, "tile_nnz: {ctx}");
    assert_eq!(got.nonrow, want.nonrow, "nonrow: {ctx}");
    assert_eq!(got.csr_rowptr, want.csr_rowptr, "csr_rowptr: {ctx}");
    assert_eq!(got.row_index, want.row_index, "row_index: {ctx}");
    assert_eq!(got.csr_colidx, want.csr_colidx, "csr_colidx: {ctx}");
    assert_eq!(got.vals_raw(), want.vals_raw(), "packed values: {ctx}");
    assert_eq!(got.val_offsets, want.val_offsets, "val_offsets: {ctx}");
}

fn assert_factors_eq(
    got: &Result<(Ilu0, Vec<f64>), FactorError>,
    want: &Result<(Ilu0, Vec<f64>), FactorError>,
    ctx: &str,
) {
    match (got, want) {
        (Ok((g, gs)), Ok((w, ws))) => {
            assert_eq!(g.l.rowptr, w.l.rowptr, "L pattern: {ctx}");
            assert_eq!(g.l.colidx, w.l.colidx, "L pattern: {ctx}");
            assert_eq!(bits(&g.l.vals), bits(&w.l.vals), "L values: {ctx}");
            assert_eq!(g.u.rowptr, w.u.rowptr, "U pattern: {ctx}");
            assert_eq!(g.u.colidx, w.u.colidx, "U pattern: {ctx}");
            assert_eq!(bits(&g.u.vals), bits(&w.u.vals), "U values: {ctx}");
            assert_eq!(bits(gs), bits(ws), "shift trail: {ctx}");
        }
        (Err(g), Err(w)) => assert_eq!(g, w, "factor error: {ctx}"),
        _ => panic!(
            "factor outcome diverged: {ctx}: got ok={}, want ok={}",
            got.is_ok(),
            want.is_ok()
        ),
    }
}

#[test]
fn fixtures_cover_shifts_and_errors() {
    let shifts = ilu0_boosted(&boosted_matrix())
        .expect("boost repairs row 0")
        .1;
    assert!(!shifts.is_empty(), "the boosted fixture must need shifts");
    assert_eq!(
        ilu0_boosted(&non_square()).err(),
        Some(FactorError::NotSquare)
    );
    let cfg = SolverConfig::default();
    let hist = TiledMatrix::from_csr_with(&large_mixed_grid(), cfg.tile_size, &cfg.classify)
        .tile_precision_histogram();
    assert!(
        hist.iter().filter(|&&n| n > 0).count() >= 2,
        "the large fixture must mix tile precisions: {hist:?}"
    );
}

#[test]
fn preprocess_matches_serial_build_under_every_policy() {
    let cfg = SolverConfig::default();
    for (name, a) in matrices() {
        let want = TiledMatrix::from_csr_with(&a, cfg.tile_size, &cfg.classify);
        for policy in POLICIES {
            let ctx = format!("{name} under {policy:?}");
            let pre = facade(policy).preprocess(&a);
            assert_tiled_eq(&pre.tiled, &want, &ctx);
        }
    }
}

#[test]
fn preprocess_with_ilu0_matches_serial_pair_under_every_policy() {
    let cfg = SolverConfig::default();
    for (name, a) in matrices() {
        let want_tiled = TiledMatrix::from_csr_with(&a, cfg.tile_size, &cfg.classify);
        let want_factors = ilu0_boosted(&a);
        for policy in POLICIES {
            let ctx = format!("{name} under {policy:?}");
            let (pre, factors) = facade(policy).preprocess_with_ilu0(&a);
            assert_tiled_eq(&pre.tiled, &want_tiled, &ctx);
            assert_factors_eq(&factors, &want_factors, &ctx);
        }
    }
}

#[test]
fn one_shot_preconditioned_solves_are_policy_invariant() {
    let a = large_mixed_grid();
    let b: Vec<f64> = (0..a.nrows).map(|i| 1.0 + (i % 7) as f64 * 0.25).collect();
    let serial = facade(HostParallelism::Serial);
    let threaded = facade(HostParallelism::Threads(2));

    let want = serial
        .solve(&a, &b, &SolveSpec::new(Method::Pcg(PrecondKind::Ilu0)))
        .expect("ILU(0) factors");
    let got = threaded
        .solve(&a, &b, &SolveSpec::new(Method::Pcg(PrecondKind::Ilu0)))
        .expect("ILU(0) factors");
    assert!(want.converged, "reference PCG must converge");
    assert_eq!(got.iterations, want.iterations, "ILU(0)-PCG iterations");
    assert_eq!(bits(&got.x), bits(&want.x), "ILU(0)-PCG x");
    assert_eq!(got.breakdowns, want.breakdowns, "ILU(0)-PCG breakdowns");

    let want = serial
        .solve(&a, &b, &SolveSpec::new(Method::Pcg(PrecondKind::Ic0)))
        .expect("IC(0) factors");
    let got = threaded
        .solve(&a, &b, &SolveSpec::new(Method::Pcg(PrecondKind::Ic0)))
        .expect("IC(0) factors");
    assert!(want.converged, "reference IC(0)-PCG must converge");
    assert_eq!(got.iterations, want.iterations, "IC(0)-PCG iterations");
    assert_eq!(bits(&got.x), bits(&want.x), "IC(0)-PCG x");
}

#[test]
fn one_shot_errors_are_policy_invariant() {
    let a = non_square();
    let b = vec![1.0; a.nrows];
    for policy in POLICIES {
        let mf = facade(policy);
        let ctx = format!("non_square under {policy:?}");
        assert_eq!(
            mf.solve(&a, &b, &SolveSpec::new(Method::Pcg(PrecondKind::Ilu0)))
                .err(),
            Some(SolveError::Factor(FactorError::NotSquare)),
            "{ctx}"
        );
        assert_eq!(
            mf.solve(&a, &b, &SolveSpec::new(Method::Pcg(PrecondKind::Ic0)))
                .err(),
            Some(SolveError::Factor(FactorError::NotSquare)),
            "{ctx}"
        );
        assert_eq!(
            mf.solve(&a, &b, &SolveSpec::new(Method::PBiCgStab)).err(),
            Some(SolveError::Factor(FactorError::NotSquare)),
            "{ctx}"
        );
    }
}
