//! Facade edge cases a serving loop exposes: zero right-hand sides hitting
//! every engine, and one long-lived workspace fed matrices of different
//! sizes back to back.

use mf_gpu::{CostModel, DeviceSpec};
use mf_kernels::{blas1, SharedTiles};
use mf_solver::bicgstab::run_bicgstab;
use mf_solver::coster::{Coster, SingleCoster};
use mf_solver::partial::PartialState;
use mf_solver::{
    run_cg_pipelined, Method, MilleFeuille, Precond, PrecondKind, SolveReport, SolveSpec,
    SolverConfig, SolverWorkspace,
};
use mf_sparse::{Coo, Csr, TiledMatrix};

fn poisson1d(n: usize) -> Csr {
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

fn seeded_vec(n: usize, seed: u64) -> Vec<f64> {
    let mut s = seed;
    (0..n)
        .map(|_| {
            s = s.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^= z >> 31;
            (z as f64 / u64::MAX as f64) * 2.0 - 1.0
        })
        .collect()
}

fn assert_zero_rhs_report(rep: &SolveReport, label: &str) {
    assert!(rep.converged, "{label}: zero RHS must converge");
    assert_eq!(rep.iterations, 0, "{label}: at iteration 0");
    assert_eq!(rep.final_relres, 0.0, "{label}");
    assert!(rep.x.iter().all(|&v| v == 0.0), "{label}: x must be 0");
    assert!(rep.failure.is_none(), "{label}");
    assert!(rep.breakdowns.is_empty(), "{label}");
}

/// b = 0 ⇒ x = 0 exactly, at iteration 0, through every sequential facade
/// — a serving loop must be able to hand any engine a zero RHS (a client
/// warming a cache entry, a zero-padded batch column) and get the same
/// trivial report back.
#[test]
fn zero_rhs_is_uniform_across_sequential_facades() {
    let n = 64;
    let a = poisson1d(n);
    let b = vec![0.0; n];
    let solver = MilleFeuille::with_defaults(DeviceSpec::a100());

    assert_zero_rhs_report(
        &solver.solve(&a, &b, &SolveSpec::new(Method::Cg)).unwrap(),
        "cg",
    );
    assert_zero_rhs_report(
        &solver
            .solve(&a, &b, &SolveSpec::new(Method::Cg).pipelined())
            .unwrap(),
        "cg_pipelined",
    );
    assert_zero_rhs_report(
        &solver
            .solve(&a, &b, &SolveSpec::new(Method::BiCgStab))
            .unwrap(),
        "bicgstab",
    );
    assert_zero_rhs_report(&solver.solve(&a, &b, &SolveSpec::auto()).unwrap(), "auto");
    assert_zero_rhs_report(
        &solver
            .solve(&a, &b, &SolveSpec::new(Method::Pcg(PrecondKind::Ilu0)))
            .unwrap(),
        "pcg",
    );
    assert_zero_rhs_report(
        &solver
            .solve(&a, &b, &SolveSpec::new(Method::Pcg(PrecondKind::Ic0)))
            .unwrap(),
        "pcg_ic0",
    );
    assert_zero_rhs_report(
        &solver
            .solve(
                &a,
                &b,
                &SolveSpec::new(Method::Pcg(PrecondKind::Ilu0)).pipelined(),
            )
            .unwrap(),
        "pcg_pipelined",
    );
    assert_zero_rhs_report(
        &solver
            .solve(
                &a,
                &b,
                &SolveSpec::new(Method::Pcg(PrecondKind::BlockJacobi(16))),
            )
            .unwrap(),
        "pcg_bj",
    );
    assert_zero_rhs_report(
        &solver
            .solve(&a, &b, &SolveSpec::new(Method::PBiCgStab))
            .unwrap(),
        "pbicgstab",
    );
}

/// The threaded single-kernel engines agree: zero RHS, zero iterations,
/// zero solution — independent of warp count.
#[test]
fn zero_rhs_is_uniform_across_threaded_facades() {
    let n = 64;
    let a = poisson1d(n);
    let b = vec![0.0; n];
    let solver = MilleFeuille::with_defaults(DeviceSpec::a100());

    for warps in [1usize, 4] {
        for (label, rep) in [
            (
                "cg_threaded",
                solver
                    .solve(&a, &b, &SolveSpec::new(Method::Cg).threaded(warps))
                    .unwrap(),
            ),
            (
                "bicgstab_threaded",
                solver
                    .solve(&a, &b, &SolveSpec::new(Method::BiCgStab).threaded(warps))
                    .unwrap(),
            ),
            (
                "pcg_threaded",
                solver
                    .solve(
                        &a,
                        &b,
                        &SolveSpec::new(Method::Pcg(PrecondKind::Ilu0)).threaded(warps),
                    )
                    .unwrap(),
            ),
            (
                "pbicgstab_threaded",
                solver
                    .solve(&a, &b, &SolveSpec::new(Method::PBiCgStab).threaded(warps))
                    .unwrap(),
            ),
        ] {
            assert!(rep.converged, "{label} warps={warps}");
            assert_eq!(rep.iterations, 0, "{label} warps={warps}");
            assert_eq!(rep.final_relres, 0.0, "{label} warps={warps}");
            assert!(
                rep.x.iter().all(|&v| v == 0.0),
                "{label} warps={warps}: x must be 0"
            );
            assert!(rep.failure.is_none(), "{label} warps={warps}");
        }
    }
}

/// Runs a sequential core on `a` with the default configuration,
/// single-kernel pricing and `ws` as its workspace.
fn run_core(core: Core, a: &Csr, b: &[f64], ws: &mut SolverWorkspace) -> SolveReport {
    let cfg = SolverConfig::default();
    let m = TiledMatrix::from_csr_with(a, cfg.tile_size, &cfg.classify);
    let cost = CostModel::new(DeviceSpec::a100());
    let coster = Coster::Single(SingleCoster::new(cost, &m, cfg.tile_size));
    let eps_abs = cfg.tolerance * blas1::norm2(b);
    let mut partial =
        PartialState::new(cfg.partial_convergence, m.tile_cols, cfg.tile_size, eps_abs);
    let mut shared = SharedTiles::load(&m);
    core(&m, &mut shared, None, b, &cfg, &coster, &mut partial, ws)
}

type Core = fn(
    &TiledMatrix,
    &mut SharedTiles,
    Option<Precond<'_>>,
    &[f64],
    &SolverConfig,
    &Coster,
    &mut PartialState,
    &mut SolverWorkspace,
) -> SolveReport;

/// One long-lived workspace fed n=100 → n=37 → n=250 → n=37 across CG,
/// BiCGSTAB and pipelined CG: every solve must be bitwise identical to a
/// fresh-workspace solve. Guards `SolverWorkspace::ensure`'s zero-fill
/// contract against stale-buffer reuse on shrink-then-grow (the serving
/// loop's exact access pattern: one warm workspace, arbitrary matrix
/// sizes).
#[test]
fn workspace_interleaved_across_sizes_and_engines_is_clean() {
    let solver = MilleFeuille::with_defaults(DeviceSpec::a100());
    let mut ws = SolverWorkspace::new();

    for (round, &n) in [100usize, 37, 250, 37, 100].iter().enumerate() {
        let a = poisson1d(n);
        let b = seeded_vec(n, round as u64 + 1);

        let warm_cg = solver.solve_cg_preprocessed(&a, &solver.preprocess(&a), &b, &mut ws);
        let cold_cg = solver.solve(&a, &b, &SolveSpec::new(Method::Cg)).unwrap();
        assert_eq!(warm_cg.x, cold_cg.x, "cg n={n} round={round}");
        assert_eq!(warm_cg.iterations, cold_cg.iterations);
        assert_eq!(warm_cg.final_relres, cold_cg.final_relres);

        let warm_bi = run_core(run_bicgstab, &a, &b, &mut ws);
        let cold_bi = run_core(run_bicgstab, &a, &b, &mut SolverWorkspace::new());
        assert_eq!(warm_bi.x, cold_bi.x, "bicgstab n={n} round={round}");
        assert_eq!(warm_bi.iterations, cold_bi.iterations);

        let warm_pipe = run_core(run_cg_pipelined, &a, &b, &mut ws);
        let cold_pipe = run_core(run_cg_pipelined, &a, &b, &mut SolverWorkspace::new());
        assert_eq!(warm_pipe.x, cold_pipe.x, "pipelined n={n} round={round}");
        assert_eq!(warm_pipe.iterations, cold_pipe.iterations);
    }
}
