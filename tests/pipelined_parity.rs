//! The pipelined (Ghysels–Vanroose) recurrence against the classic one on
//! the sequential engine.
//!
//! Pipelined vs classic is a bounded drift, not an equality. The
//! recurrence maintains `r`, `s = A·p`, `w = A·r`, `z = A·s` by fused AXPYs
//! instead of recomputation, so its residual trajectory *drifts* from the
//! classic three-term recurrence in finite precision. That drift is pinned
//! to an explicit envelope here (`|ln(pipelined/classic)| < 0.5` per
//! iteration above a `100 ε` noise floor, iteration counts within
//! `max(5, classic/10)`) — the global 1e-12 parity bars stay untouched.
//! The fixtures and bounds are those the retired threaded pipelined
//! engines were held to.

#[allow(dead_code)]
mod common;

use common::paper_rhs;
use mille_feuille::collection as gen;
use mille_feuille::prelude::*;

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

/// The drift envelope on the sequential engine: the facade's classic and
/// pipelined CG, and the same pair for ILU(0) PCG, on the fixtures and
/// bounds of the threaded comparison above, with the residual trajectory
/// recorded by `trace_residuals`.
#[test]
fn sequential_pipelined_vs_classic_drift_envelope() {
    let a = gen::poisson2d(16, 16);
    let b = paper_rhs(&a);
    let (tol, max_iter) = (1e-10, 600);

    for (pname, uniform) in [("mixed", None), ("fp64", Some(Precision::Fp64))] {
        let solver = MilleFeuille::new(
            DeviceSpec::a100(),
            SolverConfig {
                tolerance: tol,
                max_iter,
                tile_size: 8,
                uniform_precision: uniform,
                trace_residuals: true,
                ..SolverConfig::default()
            },
        );
        for (family, method) in [("cg", Method::Cg), ("pcg", Method::Pcg(PrecondKind::Ilu0))] {
            let spec = SolveSpec::new(method);
            let classic = solver.solve(&a, &b, &spec).unwrap();
            let piped = solver.solve(&a, &b, &spec.pipelined()).unwrap();
            assert!(
                classic.converged,
                "{family} classic {pname} should converge"
            );
            assert!(
                piped.converged,
                "{family} pipelined {pname} should converge"
            );
            let envelope = 5usize.max(classic.iterations.div_ceil(10));
            assert!(
                classic.iterations.abs_diff(piped.iterations) <= envelope,
                "{family} {pname}: iterations {} vs {} outside envelope {envelope}",
                classic.iterations,
                piped.iterations
            );
            let compared = assert_drift_envelope(
                &format!("sequential {family} {pname}"),
                &classic.residual_history,
                &piped.residual_history,
            );
            assert!(
                compared >= 10,
                "{family} {pname}: vacuous comparison ({compared})"
            );
        }
    }
}
