//! Property tests for the progress-heartbeat watchdog
//! ([`mf_solver::WatchdogPolicy::Heartbeat`]) under seeded schedule
//! perturbation.
//!
//! Two liveness/accuracy properties, each across random engines, warp
//! counts and fault seeds:
//!
//! 1. **No false wedges.** A schedule whose warps keep making monotone
//!    progress must never be reported `Wedged`, even when the *cumulative*
//!    injected stall time is an order of magnitude larger than the
//!    heartbeat interval — each individual stall stays below the interval,
//!    and the heartbeat only fires on a genuine global stop. The perturbed
//!    run must also stay **bitwise** identical to the clean one.
//! 2. **No missed wedges.** A plan that halts every warp after a random
//!    number of barrier entries genuinely stops all progress; the
//!    heartbeat must always report `Wedged`, and the report's
//!    `last_progress` snapshot must name a real step of the engine (or
//!    `"start"` when a warp was halted before its first step boundary).
//!
//! A halting plan is only ever combined with an armed heartbeat here:
//! under `WatchdogPolicy::Disabled` the halted barrier would spin forever
//! — the exact hang the watchdog exists to prevent — so that combination
//! is deliberately untestable and excluded.

use mf_gpu::FaultPlan;
use mf_solver::threaded::{
    run_bicgstab_threaded, run_cg_threaded, run_pbicgstab_threaded, run_pcg_threaded, ThreadedOpts,
    ThreadedReport, BICGSTAB_STEPS, CG_STEPS, PBICGSTAB_STEPS, PCG_STEPS,
};
use mf_solver::{SolveFailure, WatchdogPolicy};
use mf_sparse::{Coo, TiledMatrix};
use proptest::prelude::*;
use std::time::Duration;

const ENGINES: [&str; 4] = ["cg", "bicgstab", "pcg", "pbicgstab"];

fn steps_of(engine: &str) -> &'static [&'static str] {
    match engine {
        "cg" => CG_STEPS,
        "bicgstab" => BICGSTAB_STEPS,
        "pcg" => PCG_STEPS,
        "pbicgstab" => PBICGSTAB_STEPS,
        _ => unreachable!(),
    }
}

/// 1-D Poisson fixture, b = A·1: small enough that perturbed runs finish
/// quickly, large enough that every warp count splits into real work.
fn fixture(n: usize) -> (TiledMatrix, mf_kernels::Ilu0, Vec<f64>) {
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
    let a = a.to_csr();
    let mut b = vec![0.0; n];
    a.matvec(&vec![1.0; n], &mut b);
    (TiledMatrix::from_csr(&a), mf_kernels::ilu0(&a).unwrap(), b)
}

#[allow(clippy::too_many_arguments)]
fn run(
    tiled: &TiledMatrix,
    ilu: &mf_kernels::Ilu0,
    b: &[f64],
    engine: &str,
    tol: f64,
    max_iter: usize,
    warps: usize,
    wd: WatchdogPolicy,
    plan: &FaultPlan,
) -> ThreadedReport {
    let opts = ThreadedOpts {
        watchdog: wd,
        faults: plan.clone(),
        ..ThreadedOpts::new(warps)
    };
    match engine {
        "cg" => run_cg_threaded(tiled, b, tol, max_iter, &opts),
        "bicgstab" => run_bicgstab_threaded(tiled, b, tol, max_iter, &opts),
        "pcg" => run_pcg_threaded(tiled, ilu, b, tol, max_iter, &opts),
        "pbicgstab" => run_pbicgstab_threaded(tiled, ilu, b, tol, max_iter, &opts),
        _ => unreachable!(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Property 1: monotone progress is never a wedge, no matter how much
    /// scheduling abuse accumulates. Every barrier entry stalls 3–5 ms
    /// against a 20–25 ms heartbeat; over the whole solve the injected
    /// stall time exceeds 10× the interval, yet no gap between progress
    /// beats ever reaches it.
    #[test]
    fn monotone_progress_never_wedges(
        engine_idx in 0usize..4,
        warps in 1usize..8,
        interval_ms in 20u64..26,
        stall_us in 3000u64..5001,
        seed in 0u64..1000,
    ) {
        let engine = ENGINES[engine_idx];
        let (tiled, ilu, b) = fixture(48);
        let max_iter = 12; // bounds injected wall-clock, convergence not required
        let wd = WatchdogPolicy::Heartbeat(Duration::from_millis(interval_ms));
        let plan = FaultPlan::seeded(seed).with_stall(1, stall_us).with_delay(100, 16);

        let clean =
            run(&tiled, &ilu, &b, engine, 1e-10, max_iter, warps, wd, &FaultPlan::default());
        let rep = run(&tiled, &ilu, &b, engine, 1e-10, max_iter, warps, wd, &plan);

        prop_assert!(
            !matches!(rep.failure, Some(SolveFailure::Wedged { .. })),
            "{engine}/{warps} warps/{plan}: false wedge"
        );
        // Bitwise identical to the unperturbed run.
        prop_assert_eq!(rep.converged, clean.converged);
        prop_assert_eq!(rep.iterations, clean.iterations);
        for (t, c) in rep.x.iter().zip(&clean.x) {
            prop_assert!(t.to_bits() == c.to_bits(), "{plan}: x diverged");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property 2: a genuinely halting schedule is always detected. All
    /// warps halt after 1–19 barrier entries; the heartbeat (25–30 ms)
    /// must report `Wedged`, and every warp's final progress entry must
    /// name a real step of the engine's table (or the pre-first-step
    /// marker "start").
    #[test]
    fn halting_plan_always_wedges(
        engine_idx in 0usize..4,
        warps in 1usize..8,
        after_barriers in 1u32..20,
        interval_ms in 25u64..31,
        seed in 0u64..1000,
    ) {
        let engine = ENGINES[engine_idx];
        let (tiled, ilu, b) = fixture(48);
        let wd = WatchdogPolicy::Heartbeat(Duration::from_millis(interval_ms));
        let plan = FaultPlan::seeded(seed).with_halt(None, after_barriers);

        // Tolerance 0 is unreachable, so the solve cannot converge before
        // the halt fires — a fast-converging engine (exact ILU on a
        // tridiagonal factors in 2 iterations) would otherwise finish
        // before its `after_barriers`-th barrier entry.
        let rep = run(&tiled, &ilu, &b, engine, 0.0, 500, warps, wd, &plan);

        prop_assert!(
            matches!(rep.failure, Some(SolveFailure::Wedged { .. })),
            "{engine}/{warps} warps/{plan}: expected Wedged, got {:?}",
            rep.failure
        );
        prop_assert_eq!(rep.last_progress.len(), rep.warps);
        let steps = steps_of(engine);
        for p in &rep.last_progress {
            prop_assert!(
                p.step == "start" || steps.contains(&p.step),
                "{engine}/{warps} warps/{plan}: warp {} stuck at unknown step {:?}",
                p.warp,
                p.step
            );
        }
    }
}
