//! Cross-engine differential tests for the threaded preconditioned engines.
//!
//! Every combination in a seeded (matrix × precision × warp-count) grid is
//! run through the threaded in-kernel engine and through a sequential
//! reference that mirrors it operation-for-operation (`tests/common`), and
//! the two are compared **bitwise**: iteration counts, convergence flags,
//! residual trajectories and solution vectors. Converged FP64 runs are
//! additionally checked against a dense-LU oracle, and corrupted ILU
//! factors must fail as structured `Wedged`/`WarpPanic` reports in bounded
//! time — never hang.

#[allow(dead_code)]
mod common;

use common::{assert_matches_oracle, paper_rhs, reference_pbicgstab, reference_pcg, RefReport};
use mille_feuille::collection as gen;
use mille_feuille::collection::ValueClass;
use mille_feuille::kernels::ilu0;
use mille_feuille::kernels::Ilu0;
use mille_feuille::precision::ClassifyOptions;
use mille_feuille::prelude::*;
use mille_feuille::solver::{
    run_bicgstab_threaded, run_ilu_sptrsv_threaded, run_pbicgstab_threaded, run_pcg_threaded,
};
use mille_feuille::sparse::Coo;
use std::time::{Duration, Instant};

/// The three tile-precision configurations every grid matrix is solved in:
/// the paper's mixed classifier, uniform FP64, uniform FP32.
fn tilings(a: &Csr, ts: usize) -> Vec<(&'static str, TiledMatrix)> {
    vec![
        (
            "mixed",
            TiledMatrix::from_csr_with(a, ts, &ClassifyOptions::default()),
        ),
        (
            "fp64",
            TiledMatrix::from_csr_uniform(a, ts, Precision::Fp64),
        ),
        (
            "fp32",
            TiledMatrix::from_csr_uniform(a, ts, Precision::Fp32),
        ),
    ]
}

/// Bitwise parity between a threaded run and its sequential reference.
/// Far stronger than the 1e-12-relative acceptance bar (asserted too, for
/// the record): any divergence in summation order or synchronization shows
/// up as a bit mismatch at a specific iteration/row.
fn assert_parity(name: &str, rep: &SolveReport, reference: &RefReport) {
    assert_eq!(rep.iterations, reference.iterations, "{name}: iterations");
    assert_eq!(rep.converged, reference.converged, "{name}: converged");
    assert_eq!(
        rep.failure.is_some(),
        reference.failed,
        "{name}: failure presence (engine: {:?})",
        rep.failure
    );
    assert_eq!(
        rep.final_relres.to_bits(),
        reference.final_relres.to_bits(),
        "{name}: final relres {:e} vs {:e}",
        rep.final_relres,
        reference.final_relres
    );
    if reference.final_relres.is_finite() {
        let scale = reference.final_relres.abs().max(f64::MIN_POSITIVE);
        assert!(
            (rep.final_relres - reference.final_relres).abs() <= 1e-12 * scale,
            "{name}: relres outside 1e-12 relative"
        );
    }
    assert_eq!(
        rep.residual_history.len(),
        reference.residual_history.len(),
        "{name}: trajectory length"
    );
    for (i, (e, r)) in rep
        .residual_history
        .iter()
        .zip(&reference.residual_history)
        .enumerate()
    {
        assert_eq!(
            e.to_bits(),
            r.to_bits(),
            "{name}: trajectory[{i}] {e:e} vs {r:e}"
        );
    }
    for (i, (e, r)) in rep.x.iter().zip(&reference.x).enumerate() {
        assert_eq!(e.to_bits(), r.to_bits(), "{name}: x[{i}] {e} vs {r}");
    }
}

/// Tentpole grid, PCG side: 4 SPD matrices × 3 precisions × 5 warp counts
/// = 60 seeded combinations, every one bitwise-identical to the reference.
#[test]
fn pcg_grid_matches_sequential_reference_bitwise() {
    let fixtures: Vec<(&str, Csr)> = vec![
        ("poisson2d_8x7", gen::poisson2d(8, 7)),
        ("poisson3d_4x4x4", gen::poisson3d(4, 4, 4)),
        ("banded_spd_60", gen::banded_spd(60, 3, ValueClass::Real, 7)),
        (
            "random_spd_48",
            gen::random_spd(48, 4, ValueClass::WideModerate, 11),
        ),
    ];
    let warp_counts = [1usize, 2, 3, 5, 8];
    let (tol, max_iter) = (1e-10, 200);
    let mut combos = 0usize;

    for (mname, a) in &fixtures {
        let ilu = ilu0(a).expect("ILU(0) on an SPD grid fixture");
        let b = paper_rhs(a);
        for (pname, m) in tilings(a, 8) {
            let reference = reference_pcg(&m, &ilu, &b, tol, max_iter);
            assert!(!reference.failed, "{mname}/{pname}: reference aborted");
            for &wc in &warp_counts {
                let rep = run_pcg_threaded(&m, &ilu, &b, tol, max_iter, &ThreadedOpts::new(wc));
                assert_parity(&format!("pcg {mname}/{pname}/w{wc}"), &rep, &reference);
                combos += 1;
            }
            // Uniform FP64 tiles represent A exactly, so a converged run
            // must also agree with the dense-LU solution of A itself.
            if pname == "fp64" {
                assert!(reference.converged, "{mname}/fp64 should converge");
                assert_matches_oracle(a, &b, &reference.x, 1e-5, &format!("pcg {mname}"));
            }
        }
    }
    assert!(combos >= 50, "grid too small: {combos} combos");
}

/// The PCG grid again, this time under a seeded benign fault plan
/// (per-poll delays + periodic barrier stalls): schedule perturbation may
/// reorder *waiting* but never arithmetic, so every combination must stay
/// bitwise-identical to the same sequential reference the clean grid is
/// checked against. This is the differential harness's strongest
/// determinism statement: the protocol's results are a function of the
/// inputs alone, not of thread timing.
#[test]
fn pcg_grid_bitwise_under_seeded_perturbation() {
    let fixtures: Vec<(&str, Csr)> = vec![
        ("poisson2d_8x7", gen::poisson2d(8, 7)),
        ("poisson3d_4x4x4", gen::poisson3d(4, 4, 4)),
        ("banded_spd_60", gen::banded_spd(60, 3, ValueClass::Real, 7)),
        (
            "random_spd_48",
            gen::random_spd(48, 4, ValueClass::WideModerate, 11),
        ),
    ];
    let warp_counts = [1usize, 2, 3, 5, 8];
    let (tol, max_iter) = (1e-10, 200);
    let plan = FaultPlan::seeded(42).with_delay(60, 12).with_stall(64, 20);

    for (mname, a) in &fixtures {
        let ilu = ilu0(a).expect("ILU(0) on an SPD grid fixture");
        let b = paper_rhs(a);
        for (pname, m) in tilings(a, 8) {
            let reference = reference_pcg(&m, &ilu, &b, tol, max_iter);
            for &wc in &warp_counts {
                let rep = run_pcg_threaded(
                    &m,
                    &ilu,
                    &b,
                    tol,
                    max_iter,
                    &ThreadedOpts {
                        faults: plan.clone(),
                        ..ThreadedOpts::new(wc)
                    },
                );
                assert_parity(
                    &format!("pcg+{plan} {mname}/{pname}/w{wc}"),
                    &rep,
                    &reference,
                );
                assert!(
                    rep.injected_faults().is_some(),
                    "{mname}/{pname}/w{wc}: telemetry missing"
                );
            }
        }
    }
}

/// PBiCGSTAB under the same seeded perturbation (one tiling per matrix —
/// the clean grid already covers the precision axis).
#[test]
fn pbicgstab_grid_bitwise_under_seeded_perturbation() {
    let fixtures: Vec<(&str, Csr)> = vec![
        ("convdiff2d_7x6", gen::convdiff2d(7, 6, 0.4, 0.2)),
        (
            "banded_nonsym_50",
            gen::banded_nonsym(50, 2, ValueClass::Real, 3),
        ),
        (
            "random_nonsym_40",
            gen::random_nonsym(40, 3, ValueClass::Integer, 9),
        ),
    ];
    let warp_counts = [1usize, 3, 7];
    let (tol, max_iter) = (1e-10, 300);
    let plan = FaultPlan::seeded(43).with_delay(60, 12).with_stall(64, 20);

    for (mname, a) in &fixtures {
        let ilu = ilu0(a).expect("ILU(0) on a nonsymmetric grid fixture");
        let b = paper_rhs(a);
        for (pname, m) in tilings(a, 8) {
            if pname != "mixed" {
                continue;
            }
            let reference = reference_pbicgstab(&m, &ilu, &b, tol, max_iter);
            for &wc in &warp_counts {
                let rep = run_pbicgstab_threaded(
                    &m,
                    &ilu,
                    &b,
                    tol,
                    max_iter,
                    &ThreadedOpts {
                        faults: plan.clone(),
                        ..ThreadedOpts::new(wc)
                    },
                );
                assert_parity(
                    &format!("pbicgstab+{plan} {mname}/{pname}/w{wc}"),
                    &rep,
                    &reference,
                );
            }
        }
    }
}

/// Tentpole grid, PBiCGSTAB side: 3 nonsymmetric matrices × 3 precisions
/// × 3 warp counts = 27 more seeded combinations.
#[test]
fn pbicgstab_grid_matches_sequential_reference_bitwise() {
    let fixtures: Vec<(&str, Csr)> = vec![
        ("convdiff2d_7x6", gen::convdiff2d(7, 6, 0.4, 0.2)),
        (
            "banded_nonsym_50",
            gen::banded_nonsym(50, 2, ValueClass::Real, 3),
        ),
        (
            "random_nonsym_40",
            gen::random_nonsym(40, 3, ValueClass::Integer, 9),
        ),
    ];
    let warp_counts = [1usize, 3, 7];
    let (tol, max_iter) = (1e-10, 300);

    for (mname, a) in &fixtures {
        let ilu = ilu0(a).expect("ILU(0) on a nonsymmetric grid fixture");
        let b = paper_rhs(a);
        for (pname, m) in tilings(a, 8) {
            let reference = reference_pbicgstab(&m, &ilu, &b, tol, max_iter);
            for &wc in &warp_counts {
                let rep =
                    run_pbicgstab_threaded(&m, &ilu, &b, tol, max_iter, &ThreadedOpts::new(wc));
                assert_parity(
                    &format!("pbicgstab {mname}/{pname}/w{wc}"),
                    &rep,
                    &reference,
                );
            }
            if pname == "fp64" {
                assert!(reference.converged, "{mname}/fp64 should converge");
                assert_matches_oracle(a, &b, &reference.x, 1e-5, &format!("pbicgstab {mname}"));
            }
        }
    }
}

/// Breakdown parity: an indefinite diagonal makes PCG hit negative
/// curvature at iteration 0; the restart is a fixed point, so both engine
/// and reference must abort as Stalled after exactly
/// `MAX_CONSECUTIVE_RESTARTS` futile restarts — same iteration count, same
/// structured failure, at every warp count.
#[test]
fn pcg_breakdown_parity_with_reference() {
    let n = 24;
    let mut coo = Coo::new(n, n);
    for i in 0..n {
        let d = if i == n - 1 { -(n as f64) } else { 1.0 };
        coo.push(i, i, d);
    }
    let a = coo.to_csr();
    let ilu = ilu0(&a).expect("diagonal ILU(0)");
    // Concentrate the RHS on the negative diagonal entry so that
    // p₀ᵀ A p₀ = bᵀA⁻¹b = −1/n < 0 from the very first iteration.
    let mut b = vec![0.0; n];
    b[n - 1] = 1.0;
    let m = TiledMatrix::from_csr_uniform(&a, 8, Precision::Fp64);

    let reference = reference_pcg(&m, &ilu, &b, 1e-10, 100);
    assert!(
        reference.failed,
        "reference should abort on stalled restarts"
    );
    assert!(!reference.converged);

    for wc in [1usize, 2, 3] {
        let rep = run_pcg_threaded(&m, &ilu, &b, 1e-10, 100, &ThreadedOpts::new(wc));
        assert_parity(&format!("pcg breakdown w{wc}"), &rep, &reference);
        assert!(
            matches!(rep.failure, Some(SolveFailure::Stalled { .. })),
            "w{wc}: expected Stalled, got {:?}",
            rep.failure
        );
        assert_eq!(rep.status_label(), "aborted(curvature)");
        assert!(rep
            .breakdowns
            .iter()
            .all(|e| e.kind == BreakdownKind::Curvature));
    }
}

/// A zero right-hand side is an immediate converged no-op on both sides.
#[test]
fn zero_rhs_parity() {
    let a = gen::poisson2d(5, 5);
    let ilu = ilu0(&a).unwrap();
    let b = vec![0.0; a.nrows];
    let m = TiledMatrix::from_csr_uniform(&a, 8, Precision::Fp64);
    let reference = reference_pcg(&m, &ilu, &b, 1e-10, 50);
    let rep = run_pcg_threaded(&m, &ilu, &b, 1e-10, 50, &ThreadedOpts::new(4));
    assert_parity("pcg zero rhs", &rep, &reference);
    assert!(rep.converged);
    assert_eq!(rep.iterations, 0);
}

/// Facade-level integration: threaded ILU(0)-PCG / PBiCGSTAB through `solve`
/// factor, preprocess with the session config and converge to the oracle.
#[test]
fn facade_threaded_solves_match_oracle() {
    let a = gen::poisson2d(9, 9);
    let b = paper_rhs(&a);
    let solver = MilleFeuille::new(DeviceSpec::a100(), SolverConfig::default());

    let pcg = solver
        .solve(
            &a,
            &b,
            &SolveSpec::new(Method::Pcg(PrecondKind::Ilu0)).threaded(4),
        )
        .expect("factorable");
    assert!(pcg.converged, "facade PCG: {}", pcg.status_label());
    assert_matches_oracle(&a, &b, &pcg.x, 1e-5, "facade pcg");

    let bi = solver
        .solve(&a, &b, &SolveSpec::new(Method::PBiCgStab).threaded(3))
        .expect("factorable");
    assert!(bi.converged, "facade PBiCGSTAB: {}", bi.status_label());
    assert_matches_oracle(&a, &b, &bi.x, 1e-5, "facade pbicgstab");
}

/// Watchdog stress: an ILU factor corrupted into a cross-warp dependency
/// cycle genuinely wedges the in-kernel SpTRSV; the watchdog must turn
/// that into a structured `Wedged` failure in bounded time. An
/// out-of-bounds column index must surface as `WarpPanic`. Neither may
/// hang the process — that is the property the single-kernel dependency
/// protocol promises.
#[test]
fn corrupted_factors_fail_structured_never_hang() {
    let a = gen::poisson2d(10, 8); // n = 80, 4 warps × 20 rows
    let b = paper_rhs(&a);
    let budget = Duration::from_secs(30);
    let cfg = SolverConfig {
        watchdog: WatchdogPolicy::Heartbeat(Duration::from_millis(250)),
        ..SolverConfig::default()
    };
    let solver = MilleFeuille::new(DeviceSpec::a100(), cfg);

    // Row 5 (warp 0) now "depends" on row 60 (warp 3), whose own chain of
    // predecessors runs back through rows warp 0 will never finish: a cycle.
    let mut wedged = ilu0(&a).unwrap();
    wedged.l.colidx[wedged.l.rowptr[5]] = 60;
    let t0 = Instant::now();
    let rep = solver
        .solve(
            &a,
            &b,
            &SolveSpec::new(Method::Pcg(PrecondKind::Ilu0))
                .threaded(4)
                .with_factors(Precond::Ilu0(&wedged)),
        )
        .unwrap();
    assert!(
        matches!(rep.failure, Some(SolveFailure::Wedged { .. })),
        "expected Wedged, got {:?}",
        rep.failure
    );
    assert_eq!(rep.status_label(), "aborted(watchdog)");
    assert!(!rep.converged);
    assert!(
        t0.elapsed() < budget,
        "wedge was not bounded by the watchdog"
    );

    // Same cycle through the standalone SpTRSV runner.
    let good = ilu0(&a).unwrap();
    let t0 = Instant::now();
    let opts = ThreadedOpts {
        watchdog: WatchdogPolicy::Heartbeat(Duration::from_millis(250)),
        ..ThreadedOpts::new(4)
    };
    let rep = run_ilu_sptrsv_threaded(&wedged.l, &good.u, &b, true, false, 8, &opts);
    assert!(
        matches!(rep.failure, Some(SolveFailure::Wedged { .. })),
        "runner: expected Wedged, got {:?}",
        rep.failure
    );
    assert!(t0.elapsed() < budget);

    // An out-of-bounds column panics one warp; the poison flag must fail
    // the rest as a structured WarpPanic, again in bounded time.
    let mut panicky = ilu0(&a).unwrap();
    panicky.l.colidx[panicky.l.rowptr[5]] = 10_000;
    let cfg = SolverConfig {
        watchdog: WatchdogPolicy::Heartbeat(Duration::from_millis(500)),
        ..SolverConfig::default()
    };
    let solver = MilleFeuille::new(DeviceSpec::a100(), cfg);
    let t0 = Instant::now();
    let rep = solver
        .solve(
            &a,
            &b,
            &SolveSpec::new(Method::PBiCgStab)
                .threaded(4)
                .with_factors(Precond::Ilu0(&panicky)),
        )
        .unwrap();
    assert!(
        matches!(rep.failure, Some(SolveFailure::WarpPanic { .. })),
        "expected WarpPanic, got {:?}",
        rep.failure
    );
    assert_eq!(rep.status_label(), "aborted(panic)");
    assert!(t0.elapsed() < budget);
}

/// Bitwise equality of two threaded reports: solution, iterations,
/// residual history, breakdown trail, failure and final residual.
fn assert_same_report(name: &str, got: &SolveReport, want: &SolveReport) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&got.x), bits(&want.x), "{name}: x");
    assert_eq!(got.iterations, want.iterations, "{name}: iterations");
    assert_eq!(
        bits(&got.residual_history),
        bits(&want.residual_history),
        "{name}: residual history"
    );
    assert_eq!(got.breakdowns, want.breakdowns, "{name}: breakdown trail");
    assert_eq!(got.failure, want.failure, "{name}: failure");
    assert_eq!(
        got.final_relres.to_bits(),
        want.final_relres.to_bits(),
        "{name}: final relres"
    );
}

/// With the identity factor (empty `L`, `U = I`) the preconditioned
/// engine runs the unpreconditioned method: PBiCGSTAB(I) is BiCGSTAB, bit
/// for bit, on converging systems and through the α, ρ and ω breakdown
/// branches alike.
#[test]
fn identity_factor_engines_match_unpreconditioned_bitwise() {
    let rotation = |n: usize| {
        let mut coo = Coo::new(n, n);
        for k in 0..n / 2 {
            coo.push(2 * k, 2 * k + 1, 1.0);
            coo.push(2 * k + 1, 2 * k, -1.0);
        }
        coo.to_csr()
    };
    let skew = |n: usize| {
        let mut coo = Coo::new(n, n);
        for i in 0..n - 1 {
            let c = 1.0 + (i % 7) as f64 / 7.0;
            coo.push(i, i + 1, c);
            coo.push(i + 1, i, -c);
        }
        coo.to_csr()
    };
    let nonsym = [
        ("convdiff", gen::convdiff2d(14, 14, 0.7, -0.3)),
        ("rotation", rotation(64)),
        ("skew", skew(97)),
    ];
    let identity = |n: usize| Ilu0 {
        l: Coo::new(n, n).to_csr(),
        u: Csr::identity(n),
    };
    let mut kinds = Vec::new();
    for wc in [1usize, 2, 3] {
        let opts = ThreadedOpts::new(wc);
        for (name, a) in &nonsym {
            let m = TiledMatrix::from_csr(a);
            let (b, ilu) = (paper_rhs(a), identity(a.nrows));
            let plain = run_bicgstab_threaded(&m, &b, 1e-10, 300, &opts);
            let pre = run_pbicgstab_threaded(&m, &ilu, &b, 1e-10, 300, &opts);
            assert_same_report(&format!("bicgstab {name}/w{wc}"), &pre, &plain);
            kinds.extend(plain.breakdowns.iter().map(|e| e.kind));
        }
    }
    for kind in [
        BreakdownKind::NonFinite,
        BreakdownKind::Rho,
        BreakdownKind::Omega,
    ] {
        assert!(kinds.contains(&kind), "no {kind:?} breakdown exercised");
    }
}

/// Release-only deep sweep: a 576-row Poisson problem at mixed precision,
/// bitwise parity at asymmetric warp counts (including one that does not
/// divide the segment count evenly).
#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: large parity sweep")]
fn pcg_parity_large_release() {
    let a = gen::poisson2d(24, 24);
    let ilu = ilu0(&a).unwrap();
    let b = paper_rhs(&a);
    let (tol, max_iter) = (1e-10, 400);
    for (pname, m) in tilings(&a, 16) {
        let reference = reference_pcg(&m, &ilu, &b, tol, max_iter);
        for wc in [1usize, 6, 13] {
            let rep = run_pcg_threaded(&m, &ilu, &b, tol, max_iter, &ThreadedOpts::new(wc));
            assert_parity(&format!("large pcg {pname}/w{wc}"), &rep, &reference);
        }
    }

    let c = gen::convdiff2d(20, 20, 0.7, -0.3);
    let ilu = ilu0(&c).unwrap();
    let b = paper_rhs(&c);
    for (pname, m) in tilings(&c, 16) {
        let reference = reference_pbicgstab(&m, &ilu, &b, tol, max_iter);
        for wc in [1usize, 5, 11] {
            let rep = run_pbicgstab_threaded(&m, &ilu, &b, tol, max_iter, &ThreadedOpts::new(wc));
            assert_parity(&format!("large pbicgstab {pname}/w{wc}"), &rep, &reference);
        }
    }
}
