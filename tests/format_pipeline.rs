//! End-to-end format pipeline: Matrix Market text → COO → CSR → tiled →
//! solve → report, plus the threaded single-kernel engine on named proxies.

use mille_feuille::collection::named_matrix;
use mille_feuille::prelude::*;
use mille_feuille::solver::threaded::{run_cg_threaded, ThreadedOpts};
use mille_feuille::sparse::mm;

#[test]
fn mtx_text_to_solution() {
    // A 4x4 SPD system shipped as Matrix Market text.
    let text = "%%MatrixMarket matrix coordinate real symmetric\n\
                4 4 7\n\
                1 1 4.0\n\
                2 2 4.0\n\
                3 3 4.0\n\
                4 4 4.0\n\
                2 1 -1.0\n\
                3 2 -1.0\n\
                4 3 -1.0\n";
    let coo = mm::read_matrix_market(text.as_bytes()).unwrap();
    let a = coo.to_csr();
    assert!(a.is_symmetric(0.0));

    let mut b = vec![0.0; 4];
    a.matvec(&[1.0, 1.0, 1.0, 1.0], &mut b);
    let rep = MilleFeuille::with_defaults(DeviceSpec::a100())
        .solve(&a, &b, &SolveSpec::new(Method::Cg))
        .unwrap();
    assert!(rep.converged);
    for v in &rep.x {
        assert!((v - 1.0).abs() < 1e-9);
    }
}

#[test]
fn mtx_file_roundtrip_preserves_solution() {
    let a = mille_feuille::collection::poisson2d(9, 9);
    let dir = std::env::temp_dir().join("mf_integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("poisson.mtx");
    mm::write_matrix_market_file(&path, &a.to_coo()).unwrap();
    let back = mm::read_matrix_market_file(&path).unwrap().to_csr();
    assert_eq!(back, a);
}

#[test]
fn tiled_format_survives_named_proxies() {
    for name in ["mesh3e1", "pores_1", "Hamrle1", "CAG_mat72", "wang1"] {
        let a = named_matrix(name).unwrap().generate();
        let t = TiledMatrix::from_csr(&a);
        assert_eq!(t.nnz(), a.nnz(), "{name}");
        // Structure is preserved exactly; values within classification loss.
        let back = t.to_csr();
        assert_eq!(back.rowptr, a.rowptr, "{name}");
        assert_eq!(back.colidx, a.colidx, "{name}");
        for (v, w) in a.vals.iter().zip(&back.vals) {
            let rel = (v - w).abs() / v.abs().max(f64::MIN_POSITIVE);
            assert!(rel < 1e-15, "{name}: {v} vs {w}");
        }
    }
}

#[test]
fn threaded_engine_on_named_proxy() {
    let a = named_matrix("mesh3e1").unwrap().generate();
    let mut b = vec![0.0; a.nrows];
    a.matvec(&vec![1.0; a.ncols], &mut b);
    let t = TiledMatrix::from_csr(&a);
    let rep = run_cg_threaded(&t, &b, 1e-10, 1000, &ThreadedOpts::new(8));
    assert!(rep.converged, "relres {}", rep.final_relres);
    for v in &rep.x {
        assert!((v - 1.0).abs() < 1e-6);
    }
    // And it agrees with the modeled solver.
    let facade = MilleFeuille::with_defaults(DeviceSpec::a100())
        .solve(&a, &b, &SolveSpec::new(Method::Cg))
        .unwrap();
    assert!(facade.converged);
    for (t, s) in rep.x.iter().zip(&facade.x) {
        assert!((t - s).abs() < 1e-6);
    }
}

#[test]
fn report_is_internally_consistent() {
    let a = named_matrix("thermal").unwrap().generate();
    let mut b = vec![0.0; a.nrows];
    a.matvec(&vec![1.0; a.ncols], &mut b);
    let cfg = SolverConfig {
        trace_residuals: true,
        trace_partial: true,
        ..SolverConfig::default()
    };
    let rep = MilleFeuille::new(DeviceSpec::a100(), cfg)
        .solve(&a, &b, &SolveSpec::new(Method::Cg))
        .unwrap();
    assert!(rep.converged);
    assert_eq!(rep.residual_history.len(), rep.iterations);
    assert_eq!(rep.p_range_history.len(), rep.iterations);
    // Monotone-ish residual trend: last < first.
    assert!(rep.residual_history.last().unwrap() < &rep.residual_history[0]);
    // Total time covers all phases; solve excludes preprocessing.
    assert!(rep.total_us() >= rep.solve_us());
    // SpMV work accounting: iterations × nnz == total considered work.
    assert_eq!(rep.spmv_stats.nnz_total(), rep.iterations * a.nnz());
}
