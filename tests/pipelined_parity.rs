//! Cross-engine differential tests for the pipelined single-kernel engines.
//!
//! Two properties, asserted separately and never traded against each other:
//!
//! 1. **Pipelined vs pipelined is bitwise.** Every (matrix × precision ×
//!    warp-count) combination of `run_cg_pipelined_threaded` /
//!    `run_pcg_pipelined_threaded` must match the sequential references in
//!    `tests/common` bit-for-bit — iteration counts, residual trajectories,
//!    solutions — clean and under seeded schedule perturbation alike.
//!
//! 2. **Pipelined vs classic is a bounded drift, not an equality.** The
//!    Ghysels–Vanroose recurrence maintains `r`, `s = A·p`, `w = A·r`,
//!    `z = A·s` by fused AXPYs instead of recomputation, so its residual
//!    trajectory *drifts* from the classic three-term recurrence in finite
//!    precision. That drift is pinned to an explicit envelope here
//!    (`|ln(pipelined/classic)| < 0.5` per iteration above a `100 ε`
//!    noise floor, iteration counts within `max(5, classic/10)`) — the
//!    global 1e-12 parity bars stay untouched.

#[allow(dead_code)]
mod common;

use common::{
    assert_matches_oracle, paper_rhs, reference_cg_pipelined, reference_pcg_pipelined, RefReport,
};
use mille_feuille::collection as gen;
use mille_feuille::collection::ValueClass;
use mille_feuille::kernels::ilu0;
use mille_feuille::precision::ClassifyOptions;
use mille_feuille::prelude::*;
use mille_feuille::solver::{
    run_cg_pipelined_threaded, run_cg_threaded, run_pcg_pipelined_threaded, run_pcg_threaded,
};
use mille_feuille::sparse::Coo;
use std::time::{Duration, Instant};

/// The three tile-precision configurations every grid matrix is solved in.
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

/// Bitwise parity between a threaded pipelined run and its sequential
/// reference (same shape as `tests/threaded_parity.rs`).
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

/// The SPD fixture set shared by the pipelined grids.
fn spd_fixtures() -> Vec<(&'static str, Csr)> {
    vec![
        ("poisson2d_8x7", gen::poisson2d(8, 7)),
        ("poisson3d_4x4x4", gen::poisson3d(4, 4, 4)),
        ("banded_spd_60", gen::banded_spd(60, 3, ValueClass::Real, 7)),
        (
            "random_spd_48",
            gen::random_spd(48, 4, ValueClass::WideModerate, 11),
        ),
    ]
}

/// Tentpole grid, pipelined-CG side: 4 SPD matrices × 3 precisions × 4
/// warp counts (including the acceptance triple {1, 4, 7}), every one
/// bitwise-identical to the sequential reference — the engine's one
/// barrier per iteration loses no determinism relative to classic's four.
#[test]
fn cg_pipelined_grid_matches_sequential_reference_bitwise() {
    let warp_counts = [1usize, 2, 4, 7];
    let (tol, max_iter) = (1e-10, 400);
    let mut combos = 0usize;

    for (mname, a) in &spd_fixtures() {
        let b = paper_rhs(a);
        for (pname, m) in tilings(a, 8) {
            let reference = reference_cg_pipelined(&m, &b, tol, max_iter);
            for &wc in &warp_counts {
                let rep = run_cg_pipelined_threaded(&m, &b, tol, max_iter, &ThreadedOpts::new(wc));
                assert_parity(&format!("cg-pipe {mname}/{pname}/w{wc}"), &rep, &reference);
                combos += 1;
            }
            // Uniform FP64 tiles represent A exactly, so a converged run
            // must also agree with the dense-LU solution of A itself.
            if pname == "fp64" {
                assert!(reference.converged, "{mname}/fp64 should converge");
                assert_matches_oracle(a, &b, &reference.x, 1e-5, &format!("cg-pipe {mname}"));
            }
        }
    }
    assert!(combos >= 48, "grid too small: {combos} combos");
}

/// Tentpole grid, pipelined-PCG side: same fixtures through the in-kernel
/// ILU(0) + two-barrier schedule.
#[test]
fn pcg_pipelined_grid_matches_sequential_reference_bitwise() {
    let warp_counts = [1usize, 2, 4, 7];
    let (tol, max_iter) = (1e-10, 200);
    let mut combos = 0usize;

    for (mname, a) in &spd_fixtures() {
        let ilu = ilu0(a).expect("ILU(0) on an SPD grid fixture");
        let b = paper_rhs(a);
        for (pname, m) in tilings(a, 8) {
            let reference = reference_pcg_pipelined(&m, &ilu, &b, tol, max_iter);
            for &wc in &warp_counts {
                let rep =
                    run_pcg_pipelined_threaded(&m, &ilu, &b, tol, max_iter, &ThreadedOpts::new(wc));
                assert_parity(&format!("pcg-pipe {mname}/{pname}/w{wc}"), &rep, &reference);
                combos += 1;
            }
            if pname == "fp64" {
                assert!(reference.converged, "{mname}/fp64 should converge");
                assert_matches_oracle(a, &b, &reference.x, 1e-5, &format!("pcg-pipe {mname}"));
            }
        }
    }
    assert!(combos >= 48, "grid too small: {combos} combos");
}

/// Both pipelined grids again under a seeded benign fault plan (per-poll
/// delays + periodic barrier stalls): schedule perturbation may reorder
/// *waiting* but never arithmetic, so every combination must stay
/// bitwise-identical to the same clean sequential reference. With only
/// 1–2 barriers per iteration the pipelined engines have far fewer wait
/// sites than classic — each one carries more of the determinism burden,
/// which is exactly why the perturbed grid re-runs here.
#[test]
fn pipelined_grids_bitwise_under_seeded_perturbation() {
    let warp_counts = [1usize, 4, 7];
    let (tol, max_iter) = (1e-10, 200);
    let plan = FaultPlan::seeded(42).with_delay(60, 12).with_stall(64, 20);

    for (mname, a) in &spd_fixtures() {
        let ilu = ilu0(a).expect("ILU(0) on an SPD grid fixture");
        let b = paper_rhs(a);
        for (pname, m) in tilings(a, 8) {
            if pname != "mixed" {
                // The clean grids already cover the precision axis.
                continue;
            }
            let cg_ref = reference_cg_pipelined(&m, &b, tol, max_iter);
            let pcg_ref = reference_pcg_pipelined(&m, &ilu, &b, tol, max_iter);
            for &wc in &warp_counts {
                let rep = run_cg_pipelined_threaded(
                    &m,
                    &b,
                    tol,
                    max_iter,
                    &ThreadedOpts {
                        faults: plan.clone(),
                        ..ThreadedOpts::new(wc)
                    },
                );
                assert_parity(&format!("cg-pipe+{plan} {mname}/w{wc}"), &rep, &cg_ref);
                assert!(
                    rep.injected_faults().is_some(),
                    "cg-pipe {mname}/w{wc}: telemetry missing"
                );
                let rep = run_pcg_pipelined_threaded(
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
                assert_parity(&format!("pcg-pipe+{plan} {mname}/w{wc}"), &rep, &pcg_ref);
                assert!(
                    rep.injected_faults().is_some(),
                    "pcg-pipe {mname}/w{wc}: telemetry missing"
                );
            }
        }
    }
}

/// Asserts the pipelined trajectory tracks the classic one within the
/// explicit drift envelope: per-iteration ratio `|ln(p/c)| < 0.5` above a
/// `100 ε` noise floor, iteration counts within `max(5, classic/10)`.
/// Returns how many trajectory points were actually compared so callers
/// can reject vacuous passes.
fn assert_drift_envelope(name: &str, classic: &[f64], pipelined: &[f64]) -> usize {
    let floor = 100.0 * f64::EPSILON;
    let mut compared = 0usize;
    for (i, (c, p)) in classic.iter().zip(pipelined).enumerate() {
        if *c < floor || *p < floor {
            // Below the noise floor the ratio measures rounding, not drift.
            break;
        }
        let drift = (p / c).ln().abs();
        assert!(
            drift < 0.5,
            "{name}: iteration {i}: drift |ln({p:e}/{c:e})| = {drift:.3} >= 0.5"
        );
        compared += 1;
    }
    compared
}

/// Tentpole acceptance: pipelined vs classic residual trajectories are
/// pinned to a measured, asserted drift envelope — convergence behaviour
/// is preserved without loosening any global tolerance. Both engines run
/// to convergence on the same operators; mixed and uniform-FP64 tilings
/// both stay inside the envelope.
#[test]
fn pipelined_vs_classic_drift_envelope() {
    let a = gen::poisson2d(16, 16);
    let ilu = ilu0(&a).expect("ILU(0) on poisson2d");
    let b = paper_rhs(&a);
    let (tol, max_iter, wc) = (1e-10, 600, 2);

    for (pname, m) in tilings(&a, 8) {
        if pname == "fp32" {
            // FP32 tiles stagnate near 1e-7; the drift envelope is about
            // the recurrence, not the representation, so compare the two
            // tilings that converge at 1e-10.
            continue;
        }
        let classic = run_cg_threaded(&m, &b, tol, max_iter, &ThreadedOpts::new(wc));
        let piped = run_cg_pipelined_threaded(&m, &b, tol, max_iter, &ThreadedOpts::new(wc));
        assert!(classic.converged, "cg classic {pname} should converge");
        assert!(piped.converged, "cg pipelined {pname} should converge");
        let envelope = 5usize.max(classic.iterations.div_ceil(10));
        assert!(
            classic.iterations.abs_diff(piped.iterations) <= envelope,
            "cg {pname}: iterations {} vs {} outside envelope {envelope}",
            classic.iterations,
            piped.iterations
        );
        let compared = assert_drift_envelope(
            &format!("cg {pname}"),
            &classic.residual_history,
            &piped.residual_history,
        );
        assert!(
            compared >= 10,
            "cg {pname}: vacuous comparison ({compared})"
        );

        let classic = run_pcg_threaded(&m, &ilu, &b, tol, max_iter, &ThreadedOpts::new(wc));
        let piped = run_pcg_pipelined_threaded(&m, &ilu, &b, tol, max_iter, &ThreadedOpts::new(wc));
        assert!(classic.converged, "pcg classic {pname} should converge");
        assert!(piped.converged, "pcg pipelined {pname} should converge");
        let envelope = 5usize.max(classic.iterations.div_ceil(10));
        assert!(
            classic.iterations.abs_diff(piped.iterations) <= envelope,
            "pcg {pname}: iterations {} vs {} outside envelope {envelope}",
            classic.iterations,
            piped.iterations
        );
        let compared = assert_drift_envelope(
            &format!("pcg {pname}"),
            &classic.residual_history,
            &piped.residual_history,
        );
        assert!(
            compared >= 10,
            "pcg {pname}: vacuous comparison ({compared})"
        );
    }
}

/// Breakdown parity: an indefinite diagonal puts negative curvature into
/// the very first `(γ, δ)` pair; the pipelined restart is a flag flip that
/// re-reads the same published scalars, so it is a fixed point — engine
/// and reference must abort as `Stalled` after exactly
/// `MAX_CONSECUTIVE_RESTARTS` futile restarts at every warp count.
#[test]
fn pipelined_breakdown_parity_with_reference() {
    let n = 24;
    let mut coo = Coo::new(n, n);
    for i in 0..n {
        let d = if i == n - 1 { -(n as f64) } else { 1.0 };
        coo.push(i, i, d);
    }
    let a = coo.to_csr();
    let ilu = ilu0(&a).expect("diagonal ILU(0)");
    let mut b = vec![0.0; n];
    b[n - 1] = 1.0;
    let m = TiledMatrix::from_csr_uniform(&a, 8, Precision::Fp64);

    let cg_ref = reference_cg_pipelined(&m, &b, 1e-10, 100);
    let pcg_ref = reference_pcg_pipelined(&m, &ilu, &b, 1e-10, 100);
    for reference in [&cg_ref, &pcg_ref] {
        assert!(
            reference.failed,
            "reference should abort on stalled restarts"
        );
        assert!(!reference.converged);
    }

    for wc in [1usize, 2, 3] {
        let rep = run_cg_pipelined_threaded(&m, &b, 1e-10, 100, &ThreadedOpts::new(wc));
        assert_parity(&format!("cg-pipe breakdown w{wc}"), &rep, &cg_ref);
        assert!(
            matches!(rep.failure, Some(SolveFailure::Stalled { .. })),
            "cg w{wc}: expected Stalled, got {:?}",
            rep.failure
        );
        assert_eq!(rep.status_label(), "aborted(curvature)");
        assert!(rep
            .breakdowns
            .iter()
            .all(|e| e.kind == BreakdownKind::Curvature));

        let rep = run_pcg_pipelined_threaded(&m, &ilu, &b, 1e-10, 100, &ThreadedOpts::new(wc));
        assert_parity(&format!("pcg-pipe breakdown w{wc}"), &rep, &pcg_ref);
        assert!(
            matches!(rep.failure, Some(SolveFailure::Stalled { .. })),
            "pcg w{wc}: expected Stalled, got {:?}",
            rep.failure
        );
    }
}

/// A zero right-hand side is an immediate converged no-op on both sides.
#[test]
fn pipelined_zero_rhs_parity() {
    let a = gen::poisson2d(5, 5);
    let ilu = ilu0(&a).unwrap();
    let b = vec![0.0; a.nrows];
    let m = TiledMatrix::from_csr_uniform(&a, 8, Precision::Fp64);

    let reference = reference_cg_pipelined(&m, &b, 1e-10, 50);
    let rep = run_cg_pipelined_threaded(&m, &b, 1e-10, 50, &ThreadedOpts::new(4));
    assert_parity("cg-pipe zero rhs", &rep, &reference);
    assert!(rep.converged);
    assert_eq!(rep.iterations, 0);

    let reference = reference_pcg_pipelined(&m, &ilu, &b, 1e-10, 50);
    let rep = run_pcg_pipelined_threaded(&m, &ilu, &b, 1e-10, 50, &ThreadedOpts::new(4));
    assert_parity("pcg-pipe zero rhs", &rep, &reference);
    assert!(rep.converged);
    assert_eq!(rep.iterations, 0);
}

/// The pipelined PCG engine runs its SpTRSV in-kernel, so a corrupted ILU
/// factor must fail exactly like the classic engine's: a cross-warp
/// dependency cycle becomes a structured `Wedged` report, an out-of-bounds
/// column index becomes `WarpPanic` — both in bounded time, never a hang.
#[test]
fn pcg_pipelined_corrupted_factors_fail_structured_never_hang() {
    let a = gen::poisson2d(10, 8); // n = 80, 4 warps × 20 rows
    let b = paper_rhs(&a);
    let budget = Duration::from_secs(30);

    // Row 5 (warp 0) now "depends" on row 60 (warp 3), whose predecessors
    // run back through rows warp 0 will never finish: a cycle.
    let mut wedged = ilu0(&a).unwrap();
    wedged.l.colidx[wedged.l.rowptr[5]] = 60;
    let t0 = Instant::now();
    let rep = run_pcg_pipelined_threaded(
        &TiledMatrix::from_csr_uniform(&a, 8, Precision::Fp64),
        &wedged,
        &b,
        1e-10,
        100,
        &ThreadedOpts {
            watchdog: WatchdogPolicy::Heartbeat(Duration::from_millis(250)),
            ..ThreadedOpts::new(4)
        },
    );
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

    let mut panicky = ilu0(&a).unwrap();
    panicky.l.colidx[panicky.l.rowptr[5]] = 10_000;
    let t0 = Instant::now();
    let rep = run_pcg_pipelined_threaded(
        &TiledMatrix::from_csr_uniform(&a, 8, Precision::Fp64),
        &panicky,
        &b,
        1e-10,
        100,
        &ThreadedOpts {
            watchdog: WatchdogPolicy::Heartbeat(Duration::from_millis(500)),
            ..ThreadedOpts::new(4)
        },
    );
    assert!(
        matches!(rep.failure, Some(SolveFailure::WarpPanic { .. })),
        "expected WarpPanic, got {:?}",
        rep.failure
    );
    assert_eq!(rep.status_label(), "aborted(panic)");
    assert!(t0.elapsed() < budget);
}

/// Release-only deep sweep: a 576-row Poisson problem, bitwise parity at
/// asymmetric warp counts (including one that does not divide the segment
/// count evenly), for both pipelined engines and all three tilings.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only: large pipelined parity sweep"
)]
fn pipelined_parity_large_release() {
    let a = gen::poisson2d(24, 24);
    let ilu = ilu0(&a).unwrap();
    let b = paper_rhs(&a);
    let (tol, max_iter) = (1e-10, 800);
    for (pname, m) in tilings(&a, 16) {
        let cg_ref = reference_cg_pipelined(&m, &b, tol, max_iter);
        let pcg_ref = reference_pcg_pipelined(&m, &ilu, &b, tol, max_iter);
        for wc in [1usize, 6, 13] {
            let rep = run_cg_pipelined_threaded(&m, &b, tol, max_iter, &ThreadedOpts::new(wc));
            assert_parity(&format!("large cg-pipe {pname}/w{wc}"), &rep, &cg_ref);
            let rep =
                run_pcg_pipelined_threaded(&m, &ilu, &b, tol, max_iter, &ThreadedOpts::new(wc));
            assert_parity(&format!("large pcg-pipe {pname}/w{wc}"), &rep, &pcg_ref);
        }
    }
}
