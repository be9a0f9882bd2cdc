//! Cross-crate integration: the robustness layer through the public facade.
//!
//! Every solver entry point must fail *finite, fast, and observably* on
//! pathological inputs — no hang, no NaN solution, and a structured
//! `SolveFailure` plus a `BreakdownEvent` trail on the report.

use mille_feuille::prelude::*;
use std::time::Duration;

fn rhs(a: &Csr) -> Vec<f64> {
    let mut b = vec![0.0; a.nrows];
    a.matvec(&vec![1.0; a.ncols], &mut b);
    b
}

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

/// diag(-1): every CG curvature check fails immediately.
fn negative_definite(n: usize) -> Csr {
    let mut a = Coo::new(n, n);
    for i in 0..n {
        a.push(i, i, -1.0);
    }
    a.to_csr()
}

/// Skew-symmetric tridiagonal: BiCGSTAB's alpha denominator is exactly 0.
fn skew(n: usize) -> Csr {
    let mut a = Coo::new(n, n);
    for i in 0..n - 1 {
        a.push(i, i + 1, 1.0);
        a.push(i + 1, i, -1.0);
    }
    a.to_csr()
}

fn assert_failed_finite(rep: &SolveReport, label: &str) {
    assert!(!rep.converged, "{label}: must not claim convergence");
    assert!(
        rep.failure.is_some(),
        "{label}: expected a structured failure"
    );
    assert!(
        !rep.breakdowns.is_empty(),
        "{label}: breakdown trail must not be empty"
    );
    assert!(
        !rep.final_relres.is_nan(),
        "{label}: final_relres must never be NaN"
    );
    for v in &rep.x {
        assert!(!v.is_nan(), "{label}: NaN leaked into the solution vector");
    }
}

#[test]
fn modeled_cores_fail_finite_on_breakdown() {
    let solver = MilleFeuille::with_defaults(DeviceSpec::a100());

    let a = negative_definite(64);
    let b = rhs(&a);
    let rep = solver.solve(&a, &b, &SolveSpec::new(Method::Cg)).unwrap();
    assert_failed_finite(&rep, "cg/negative-definite");
    assert!(matches!(rep.failure, Some(SolveFailure::Stalled { .. })));
    assert!(rep
        .breakdowns
        .iter()
        .all(|e| e.kind == BreakdownKind::Curvature));
    assert_eq!(
        rep.breakdowns.last().unwrap().action,
        RecoveryAction::Aborted
    );

    let a = skew(32);
    let b = vec![1.0; 32];
    let rep = solver
        .solve(&a, &b, &SolveSpec::new(Method::BiCgStab))
        .unwrap();
    assert_failed_finite(&rep, "bicgstab/skew");
}

#[test]
fn threaded_facade_fails_finite_within_watchdog() {
    let config = SolverConfig {
        watchdog: WatchdogPolicy::Heartbeat(Duration::from_secs(5)),
        ..SolverConfig::default()
    };
    let solver = MilleFeuille::new(DeviceSpec::a100(), config);

    let a = negative_definite(96);
    let b = rhs(&a);
    let rep: SolveReport = solver
        .solve(&a, &b, &SolveSpec::new(Method::Cg).threaded(4))
        .unwrap();
    assert!(!rep.converged);
    assert!(rep.failure.is_some(), "{:?}", rep.failure);
    assert!(!rep.breakdowns.is_empty());
    assert!(rep.final_relres.is_finite());

    let a = skew(32);
    let b = vec![1.0; 32];
    let rep = solver
        .solve(&a, &b, &SolveSpec::new(Method::BiCgStab).threaded(2))
        .unwrap();
    assert!(!rep.converged);
    assert!(rep.failure.is_some(), "{:?}", rep.failure);
    assert!(!rep.final_relres.is_nan());
}

#[test]
fn healthy_solves_report_no_failure() {
    let solver = MilleFeuille::with_defaults(DeviceSpec::a100());
    let a = poisson1d(256);
    let b = rhs(&a);

    let rep = solver.solve(&a, &b, &SolveSpec::new(Method::Cg)).unwrap();
    assert!(rep.converged);
    assert!(rep.failure.is_none());
    assert!(rep.breakdowns.is_empty());

    let rep = solver
        .solve(&a, &b, &SolveSpec::new(Method::Cg).threaded(4))
        .unwrap();
    assert!(rep.converged);
    assert!(rep.failure.is_none());
    assert!(rep.breakdowns.is_empty());
}

/// ILU(0)/IC(0) zero- and tiny-pivot breakdowns no longer hard-fail the
/// preconditioned facade: bounded diagonal boosting retries the
/// factorization on `A + αI` (α = 10⁻³·max|a_ii|, doubling, at most
/// `MAX_FACTOR_SHIFTS` attempts), and every attempt is recorded as a
/// `FactorShift` breakdown event at iteration 0. Unrepairable inputs
/// (shape errors, genuinely indefinite IC(0) input) still propagate `Err`.
#[test]
fn factorization_fallback_boosts_diagonal() {
    use mille_feuille::kernels::MAX_FACTOR_SHIFTS;
    let solver = MilleFeuille::with_defaults(DeviceSpec::a100());

    // Structurally missing diagonal in the leading 2×2 block: plain ILU(0)
    // hits a structural zero pivot at row 0.
    let mut a = Coo::new(6, 6);
    a.push(0, 1, 1.0);
    a.push(1, 0, 1.0);
    for i in 2..6 {
        a.push(i, i, 4.0);
        if i > 2 {
            a.push(i, i - 1, -1.0);
            a.push(i - 1, i, -1.0);
        }
    }
    let a = a.to_csr();
    let b = vec![1.0; 6];

    let rep = solver
        .solve(&a, &b, &SolveSpec::new(Method::PBiCgStab))
        .unwrap();
    let shifts = rep
        .breakdowns
        .iter()
        .filter(|e| e.kind == BreakdownKind::FactorShift)
        .count();
    assert!(
        (1..=MAX_FACTOR_SHIFTS).contains(&shifts),
        "expected 1..=4 shift events, got {shifts}"
    );
    assert_eq!(rep.breakdowns[0].iteration, 0, "shifts precede iteration 1");
    assert_eq!(rep.breakdowns[0].action, RecoveryAction::Restarted);
    assert!(rep.final_relres.is_finite());

    // Same recovery on the PCG and threaded-PCG paths.
    let rep = solver
        .solve(&a, &b, &SolveSpec::new(Method::Pcg(PrecondKind::Ilu0)))
        .unwrap();
    assert!(rep
        .breakdowns
        .iter()
        .any(|e| e.kind == BreakdownKind::FactorShift));
    let rep = solver
        .solve(
            &a,
            &b,
            &SolveSpec::new(Method::Pcg(PrecondKind::Ilu0)).threaded(3),
        )
        .unwrap();
    assert!(rep
        .breakdowns
        .iter()
        .any(|e| e.kind == BreakdownKind::FactorShift));

    // Healthy input factors shift-free — boosting must stay invisible.
    let good = poisson1d(32);
    let bg = rhs(&good);
    let rep = solver
        .solve(&good, &bg, &SolveSpec::new(Method::Pcg(PrecondKind::Ilu0)))
        .unwrap();
    assert!(rep.converged);
    assert!(!rep
        .breakdowns
        .iter()
        .any(|e| e.kind == BreakdownKind::FactorShift));

    // Unrepairable: no diagonal shift fixes a rectangular matrix …
    assert!(solver
        .solve(
            &Coo::new(2, 3).to_csr(),
            &[1.0; 2],
            &SolveSpec::new(Method::Pcg(PrecondKind::Ilu0))
        )
        .is_err());
    // … and the bounded schedule never Cholesky-factors an indefinite
    // matrix (eigenvalue −1 would need a shift > 1 ≫ 8·10⁻³·max|a_ii|).
    let mut indef = Coo::new(2, 2);
    indef.push(0, 0, -1.0);
    indef.push(1, 1, 1.0);
    assert!(solver
        .solve(
            &indef.to_csr(),
            &[1.0, 1.0],
            &SolveSpec::new(Method::Pcg(PrecondKind::Ic0))
        )
        .is_err());
}

/// An overflowing right-hand side poisons every path's recurrence on the
/// first step. Every facade row — each sequential core, `Auto` and the
/// threaded engines at 2 warps — must abort as `NonFinite` with a non-NaN `final_relres` (its
/// last finite value, or the `∞` of a solve that never had one) and a
/// NaN-free solution.
#[test]
fn overflowing_rhs_never_reports_nan_relres() {
    let solver = MilleFeuille::with_defaults(DeviceSpec::a100());
    let a = mille_feuille::collection::poisson2d(8, 8);
    let b = vec![1e200; a.nrows];
    let ilu = Method::Pcg(PrecondKind::Ilu0);
    let rows = [
        ("cg", SolveSpec::new(Method::Cg)),
        ("cg_pipelined", SolveSpec::new(Method::Cg).pipelined()),
        ("bicgstab", SolveSpec::new(Method::BiCgStab)),
        ("pcg_ilu0", SolveSpec::new(ilu)),
        ("pcg_ic0", SolveSpec::new(Method::Pcg(PrecondKind::Ic0))),
        (
            "pcg_block_jacobi",
            SolveSpec::new(Method::Pcg(PrecondKind::BlockJacobi(16))),
        ),
        ("pcg_pipelined", SolveSpec::new(ilu).pipelined()),
        ("pbicgstab", SolveSpec::new(Method::PBiCgStab)),
        ("auto", SolveSpec::auto()),
        ("cg_threaded", SolveSpec::new(Method::Cg).threaded(2)),
        (
            "bicgstab_threaded",
            SolveSpec::new(Method::BiCgStab).threaded(2),
        ),
        ("pcg_threaded", SolveSpec::new(ilu).threaded(2)),
        (
            "pbicgstab_threaded",
            SolveSpec::new(Method::PBiCgStab).threaded(2),
        ),
    ];
    let mut wrong = Vec::new();
    for (name, spec) in &rows {
        let rep = solver.solve(&a, &b, spec).unwrap();
        let ok = !rep.final_relres.is_nan()
            && matches!(rep.failure, Some(SolveFailure::NonFinite { .. }))
            && !rep.x.iter().any(|v| v.is_nan());
        if !ok {
            wrong.push(format!(
                "{name}: final_relres {}, failure {:?}",
                rep.final_relres, rep.failure
            ));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

/// `trsv_leaf: 0` is treated as a leaf of one row by the recursive-block
/// cost model, so every sequential path that applies ILU(0) or IC(0) solves
/// instead of panicking, bitwise as with `trsv_leaf: 1`.
#[test]
fn zero_trsv_leaf_solves_like_leaf_one() {
    let a = mille_feuille::collection::poisson2d(8, 8);
    let b = rhs(&a);
    let with_leaf = |trsv_leaf| {
        MilleFeuille::new(
            DeviceSpec::a100(),
            SolverConfig {
                trsv_leaf,
                ..SolverConfig::default()
            },
        )
    };
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let ilu = Method::Pcg(PrecondKind::Ilu0);
    let rows = [
        ("pcg_ilu0", SolveSpec::new(ilu)),
        ("pcg_ic0", SolveSpec::new(Method::Pcg(PrecondKind::Ic0))),
        ("pbicgstab", SolveSpec::new(Method::PBiCgStab)),
        ("pcg_pipelined", SolveSpec::new(ilu).pipelined()),
    ];
    for (name, spec) in &rows {
        let zero = with_leaf(0).solve(&a, &b, spec).unwrap();
        let one = with_leaf(1).solve(&a, &b, spec).unwrap();
        assert!(zero.converged, "{name}: must converge");
        assert_eq!(bits(&zero.x), bits(&one.x), "{name}: x");
        assert_eq!(zero.iterations, one.iterations, "{name}: iterations");
        assert_eq!(
            bits(&zero.residual_history),
            bits(&one.residual_history),
            "{name}: residual history"
        );
        assert_eq!(
            zero.timeline.total_us().to_bits(),
            one.timeline.total_us().to_bits(),
            "{name}: modeled time"
        );
    }
}
