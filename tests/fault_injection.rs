//! Schedule-perturbation fault-injection matrix for the threaded
//! single-kernel engines.
//!
//! Every [`FaultKind`] is driven through every engine (CG, BiCGSTAB, PCG,
//! PBiCGSTAB) at 1, 4 and 7 warps:
//!
//! * **Benign** plans (delays, yields, bounded stalls, retry storms) merely
//!   perturb the schedule; the dependency protocol must absorb them with
//!   **bitwise-identical** results — same solution bits, same iteration
//!   count, same residual trajectory — because determinism is the property
//!   the single-kernel protocol promises (fixed-order reductions, single
//!   writers, monotone barriers).
//! * **Malign** plans (warp panic, poison, halt) must produce a structured
//!   [`SolveFailure`] in bounded time — never a hang, never a poisoned
//!   default result.
//!
//! Every failure message echoes the plan's `Display` repro line, which is a
//! compilable builder expression: paste it into a test to replay the exact
//! perturbation.

use mille_feuille::collection as gen;
use mille_feuille::kernels::{ilu0, Ilu0};
use mille_feuille::prelude::*;
use mille_feuille::solver::{
    run_bicgstab_threaded, run_cg_threaded, run_pbicgstab_threaded, run_pcg_threaded,
};
use mille_feuille::sparse::TiledMatrix;
use std::time::{Duration, Instant};

const ENGINES: [&str; 4] = ["cg", "bicgstab", "pcg", "pbicgstab"];
const WARPS: [usize; 3] = [1, 4, 7];

/// One fixture shared by the whole matrix: a small SPD Poisson system all
/// four engines can run (BiCGSTAB and the preconditioned engines accept
/// SPD input too), b = A·1.
struct Fixture {
    tiled: TiledMatrix,
    ilu: Ilu0,
    b: Vec<f64>,
}

fn fixture() -> Fixture {
    let a = gen::poisson2d(9, 8); // n = 72: odd warp counts split unevenly
    let mut b = vec![0.0; a.nrows];
    a.matvec(&vec![1.0; a.ncols], &mut b);
    Fixture {
        tiled: TiledMatrix::from_csr(&a),
        ilu: ilu0(&a).unwrap(),
        b,
    }
}

fn run(
    f: &Fixture,
    engine: &str,
    warps: usize,
    wd: WatchdogPolicy,
    plan: &FaultPlan,
) -> ThreadedReport {
    let (tol, it) = (1e-10, 500);
    let opts = ThreadedOpts {
        watchdog: wd,
        faults: plan.clone(),
        ..ThreadedOpts::new(warps)
    };
    match engine {
        "cg" => run_cg_threaded(&f.tiled, &f.b, tol, it, &opts),
        "bicgstab" => run_bicgstab_threaded(&f.tiled, &f.b, tol, it, &opts),
        "pcg" => run_pcg_threaded(&f.tiled, &f.ilu, &f.b, tol, it, &opts),
        "pbicgstab" => run_pbicgstab_threaded(&f.tiled, &f.ilu, &f.b, tol, it, &opts),
        other => panic!("unknown engine {other}"),
    }
}

/// A deterministic per-kind plan. Seeds differ per kind so the matrix
/// exercises distinct splitmix64 streams.
fn plan_for(kind: FaultKind) -> FaultPlan {
    match kind {
        FaultKind::Delay => FaultPlan::seeded(7).with_delay(150, 24),
        FaultKind::Yield => FaultPlan::seeded(8).with_yield(100),
        FaultKind::Stall => FaultPlan::seeded(9).with_stall(8, 40),
        FaultKind::RetryStorm => FaultPlan::seeded(10).with_retry_storm(6, 3),
        FaultKind::Panic => FaultPlan::seeded(11).with_panic_at(0, 0, 0),
        FaultKind::Poison => FaultPlan::seeded(12).with_poison_at(0, 0, 0),
        FaultKind::Halt => FaultPlan::seeded(13).with_halt(None, 2),
    }
}

fn assert_bitwise(clean: &ThreadedReport, faulted: &ThreadedReport, ctx: &str) {
    assert_eq!(clean.converged, faulted.converged, "{ctx}: converged");
    assert_eq!(clean.iterations, faulted.iterations, "{ctx}: iterations");
    assert_eq!(
        clean.final_relres.to_bits(),
        faulted.final_relres.to_bits(),
        "{ctx}: final_relres"
    );
    assert_eq!(
        clean.residual_history.len(),
        faulted.residual_history.len(),
        "{ctx}: history length"
    );
    for (i, (c, t)) in clean
        .residual_history
        .iter()
        .zip(&faulted.residual_history)
        .enumerate()
    {
        assert_eq!(c.to_bits(), t.to_bits(), "{ctx}: residual_history[{i}]");
    }
    for (i, (c, t)) in clean.x.iter().zip(&faulted.x).enumerate() {
        assert_eq!(c.to_bits(), t.to_bits(), "{ctx}: x[{i}]");
    }
}

/// Benign kinds × engines × warps: the perturbed schedule must reproduce
/// the clean run bit for bit, and the report must carry the telemetry
/// proving faults actually fired.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: full injection matrix")]
fn benign_plans_are_bitwise_inert() {
    let f = fixture();
    for engine in ENGINES {
        for warps in WARPS {
            let clean = run(
                &f,
                engine,
                warps,
                WatchdogPolicy::default(),
                &FaultPlan::default(),
            );
            assert!(clean.converged, "{engine}/{warps}: clean run must converge");
            assert!(clean.injected_faults.is_none());
            for kind in FaultKind::ALL.into_iter().filter(|k| k.is_benign()) {
                let plan = plan_for(kind);
                let ctx = format!("{engine}/{warps} warps/{plan}");
                let rep = run(&f, engine, warps, WatchdogPolicy::default(), &plan);
                assert!(rep.converged, "{ctx}: must still converge");
                assert!(rep.failure.is_none(), "{ctx}: {:?}", rep.failure);
                assert_bitwise(&clean, &rep, &ctx);
                let inj = rep
                    .injected_faults
                    .unwrap_or_else(|| panic!("{ctx}: telemetry missing"));
                assert_eq!(inj.plan, plan.to_string(), "{ctx}: repro line");
                // Delay/Yield fire per spin poll; a 1-warp run satisfies
                // every barrier on arrival and may legitimately never poll.
                // Stalls and retry storms fire on barrier *entry*, so they
                // must fire at any warp count.
                let per_poll = matches!(kind, FaultKind::Delay | FaultKind::Yield);
                if warps > 1 || !per_poll {
                    assert!(inj.counts.total() > 0, "{ctx}: no fault ever fired");
                }
            }
        }
    }
}

/// A panic planted at (warp 0, iteration 0, step 0) — a site every engine
/// executes — must surface as a structured `WarpPanic` naming the site, on
/// every engine and warp count, in bounded time.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: full injection matrix")]
fn planted_panic_fails_structured() {
    let f = fixture();
    let plan = plan_for(FaultKind::Panic);
    for engine in ENGINES {
        for warps in WARPS {
            let ctx = format!("{engine}/{warps} warps/{plan}");
            let t0 = Instant::now();
            let rep = run(&f, engine, warps, WatchdogPolicy::default(), &plan);
            assert!(!rep.converged, "{ctx}");
            match &rep.failure {
                Some(SolveFailure::WarpPanic { warp, message }) => {
                    assert_eq!(*warp, 0, "{ctx}");
                    assert!(message.contains("injected"), "{ctx}: {message}");
                }
                other => panic!("{ctx}: expected WarpPanic, got {other:?}"),
            }
            assert!(t0.elapsed() < Duration::from_secs(10), "{ctx}: not bounded");
        }
    }
}

/// A poison planted at (0, 0, 0) must abort every engine as `Wedged`
/// without any panic unwinding.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: full injection matrix")]
fn planted_poison_fails_structured() {
    let f = fixture();
    let plan = plan_for(FaultKind::Poison);
    for engine in ENGINES {
        for warps in WARPS {
            let ctx = format!("{engine}/{warps} warps/{plan}");
            let t0 = Instant::now();
            let rep = run(&f, engine, warps, WatchdogPolicy::default(), &plan);
            assert!(!rep.converged, "{ctx}");
            assert!(
                matches!(rep.failure, Some(SolveFailure::Wedged { .. })),
                "{ctx}: expected Wedged, got {:?}",
                rep.failure
            );
            assert!(t0.elapsed() < Duration::from_secs(10), "{ctx}: not bounded");
        }
    }
}

/// Halting every warp after two barrier entries wedges the dependency
/// protocol for real; the progress heartbeat (50 ms) must convert that
/// into a `Wedged` failure in well under 2 s on every engine — the
/// acceptance bound of this PR — with the stuck step named in the
/// progress snapshot.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: full injection matrix")]
fn halted_warps_wedge_within_heartbeat_bound() {
    let f = fixture();
    let plan = plan_for(FaultKind::Halt);
    let wd = WatchdogPolicy::Heartbeat(Duration::from_millis(50));
    for engine in ENGINES {
        for warps in WARPS {
            let ctx = format!("{engine}/{warps} warps/{plan}");
            let t0 = Instant::now();
            let rep = run(&f, engine, warps, wd, &plan);
            let elapsed = t0.elapsed();
            assert!(!rep.converged, "{ctx}");
            assert!(
                matches!(rep.failure, Some(SolveFailure::Wedged { .. })),
                "{ctx}: expected Wedged, got {:?}",
                rep.failure
            );
            assert!(
                elapsed < Duration::from_secs(2),
                "{ctx}: wedge took {elapsed:?}, bound is 2 s"
            );
            assert_eq!(rep.last_progress.len(), rep.warps, "{ctx}: snapshot");
            let inj = rep.injected_faults.as_ref().expect("telemetry");
            assert!(inj.counts.halts > 0, "{ctx}: halt never fired");
        }
    }
}

/// Halting a *single* warp (not all of them) must wedge the others at the
/// next barrier and still fail structured — the asymmetric variant of the
/// halt fault, closest to a real lost/descheduled warp.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: full injection matrix")]
fn single_halted_warp_wedges_the_rest() {
    let f = fixture();
    let plan = FaultPlan::seeded(21).with_halt(Some(0), 3);
    let wd = WatchdogPolicy::Heartbeat(Duration::from_millis(50));
    for engine in ENGINES {
        for warps in [4, 7] {
            let ctx = format!("{engine}/{warps} warps/{plan}");
            let t0 = Instant::now();
            let rep = run(&f, engine, warps, wd, &plan);
            assert!(
                matches!(rep.failure, Some(SolveFailure::Wedged { .. })),
                "{ctx}: expected Wedged, got {:?}",
                rep.failure
            );
            assert!(t0.elapsed() < Duration::from_secs(2), "{ctx}: not bounded");
        }
    }
}

/// The debug-profile smoke slice of the matrix: one benign and one malign
/// plan through every engine at 4 warps, so `cargo test` without
/// `--release` still exercises the injection plumbing end to end.
#[test]
fn injection_smoke_all_engines() {
    let f = fixture();
    let benign = FaultPlan::seeded(3).with_delay(100, 8).with_yield(50);
    let wd = WatchdogPolicy::Heartbeat(Duration::from_millis(100));
    let halt = FaultPlan::seeded(4).with_halt(None, 2);
    for engine in ENGINES {
        let clean = run(
            &f,
            engine,
            4,
            WatchdogPolicy::default(),
            &FaultPlan::default(),
        );
        let rep = run(&f, engine, 4, WatchdogPolicy::default(), &benign);
        assert_bitwise(&clean, &rep, engine);
        let rep = run(&f, engine, 4, wd, &halt);
        assert!(
            matches!(rep.failure, Some(SolveFailure::Wedged { .. })),
            "{engine}: {:?}",
            rep.failure
        );
    }
}
