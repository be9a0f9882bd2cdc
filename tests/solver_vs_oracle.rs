//! Cross-crate integration: every solver path must reproduce the dense LU
//! oracle's solution on matrices from every generator family.

use mille_feuille::baselines::Baseline;
use mille_feuille::collection as gen;
use mille_feuille::collection::ValueClass;
use mille_feuille::prelude::*;
use mille_feuille::sparse::Dense;

fn rhs(a: &Csr) -> Vec<f64> {
    let mut b = vec![0.0; a.nrows];
    a.matvec(&vec![1.0; a.ncols], &mut b);
    b
}

fn check_against_oracle(a: &Csr, x: &[f64], tol: f64, label: &str) {
    let d = Dense::from_csr(a);
    let b = rhs(a);
    let oracle = d.solve(&b).expect("oracle solvable");
    for i in 0..a.nrows {
        let scale = oracle[i].abs().max(1.0);
        assert!(
            (x[i] - oracle[i]).abs() <= tol * scale,
            "{label}: row {i}: {} vs oracle {}",
            x[i],
            oracle[i]
        );
    }
}

#[test]
fn cg_matches_oracle_on_spd_families() {
    let cases: Vec<(&str, Csr)> = vec![
        ("poisson2d", gen::poisson2d(12, 11)),
        ("poisson3d", gen::poisson3d(5, 5, 5)),
        (
            "banded_int",
            gen::banded_spd(120, 3, ValueClass::Integer, 1),
        ),
        ("banded_real", gen::banded_spd(120, 4, ValueClass::Real, 2)),
        ("random_spd", gen::random_spd(100, 5, ValueClass::Real, 3)),
        ("mass", gen::mass_matrix(90, ValueClass::Real, 4)),
        ("decoupled", gen::decoupled_blocks(6, 16, 0.5, 5)),
    ];
    let solver = MilleFeuille::with_defaults(DeviceSpec::a100());
    for (label, a) in cases {
        let rep = solver.solve_cg(&a, &rhs(&a));
        assert!(
            rep.converged,
            "{label} did not converge: {}",
            rep.final_relres
        );
        check_against_oracle(&a, &rep.x, 1e-6, label);
    }
}

#[test]
fn bicgstab_matches_oracle_on_nonsym_families() {
    let cases: Vec<(&str, Csr)> = vec![
        ("convdiff2d", gen::convdiff2d(11, 10, 0.5, 0.25)),
        (
            // moderate hub range: the full Wide span sits below BiCGSTAB's
            // attainable-accuracy floor at 1e-10 (see EXPERIMENTS.md)
            "circuit",
            gen::circuit_like_with(12, 8, 60, 0.1, ValueClass::WideModerate, 7),
        ),
        (
            "random_nonsym",
            gen::random_nonsym(110, 4, ValueClass::SingleExact, 8),
        ),
        (
            "banded_nonsym",
            gen::banded_nonsym(100, 2, ValueClass::Real, 9),
        ),
    ];
    let solver = MilleFeuille::with_defaults(DeviceSpec::mi210());
    for (label, a) in cases {
        let rep = solver.solve_bicgstab(&a, &rhs(&a));
        assert!(
            rep.converged,
            "{label} did not converge: {}",
            rep.final_relres
        );
        check_against_oracle(&a, &rep.x, 1e-5, label);
    }
}

#[test]
fn preconditioned_solvers_match_oracle() {
    let a = gen::poisson2d(10, 10);
    let solver = MilleFeuille::with_defaults(DeviceSpec::a100());
    let rep = solver.solve_pcg(&a, &rhs(&a)).unwrap();
    assert!(rep.converged);
    check_against_oracle(&a, &rep.x, 1e-6, "pcg");

    let an = gen::convdiff2d(10, 10, 0.5, 0.5);
    let rep = solver.solve_pbicgstab(&an, &rhs(&an)).unwrap();
    assert!(rep.converged);
    check_against_oracle(&an, &rep.x, 1e-5, "pbicgstab");
}

#[test]
fn baselines_match_oracle_too() {
    let a = gen::poisson2d(11, 11);
    let b = rhs(&a);
    for base in [Baseline::cusparse(), Baseline::petsc()] {
        let rep = base.solve_cg(&a, &b, &SolverConfig::default());
        assert!(rep.converged);
        check_against_oracle(&a, &rep.x, 1e-6, base.profile.name);
    }
}

#[test]
fn all_solvers_agree_with_each_other() {
    // MF single-kernel, MF multi-kernel, threaded engine and the baseline
    // must land on the same solution of the same system.
    let a = gen::poisson2d(13, 13);
    let b = rhs(&a);

    let single = MilleFeuille::new(
        DeviceSpec::a100(),
        SolverConfig {
            kernel_mode: KernelMode::SingleKernel,
            ..SolverConfig::default()
        },
    )
    .solve_cg(&a, &b);
    let multi = MilleFeuille::new(
        DeviceSpec::a100(),
        SolverConfig {
            kernel_mode: KernelMode::MultiKernel,
            ..SolverConfig::default()
        },
    )
    .solve_cg(&a, &b);
    let baseline = Baseline::cusparse().solve_cg(&a, &b, &SolverConfig::default());
    let tiled = TiledMatrix::from_csr(&a);
    let threaded = mille_feuille::solver::threaded::run_cg_threaded(
        &tiled,
        &b,
        1e-10,
        1000,
        &ThreadedOpts::new(6),
    );

    for (label, x) in [
        ("multi", &multi.x),
        ("baseline", &baseline.x),
        ("threaded", &threaded.x),
    ] {
        #[allow(clippy::needless_range_loop)]
        for i in 0..a.nrows {
            assert!(
                (single.x[i] - x[i]).abs() < 1e-6,
                "{label} row {i}: {} vs {}",
                single.x[i],
                x[i]
            );
        }
    }
}
