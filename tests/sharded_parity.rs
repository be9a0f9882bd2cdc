//! Differential harness for the multi-device sharded engine.
//!
//! Every combination in a seeded (matrix × precision × shard-count ×
//! warp-count) grid is run through `run_cg_sharded` / `run_pcg_sharded`
//! and through the single-device threaded engine, and the two are
//! compared **bitwise**: iteration counts, convergence flags, breakdown
//! trails, failure taxonomy, residual trajectories and solution vectors.
//! The same grid is then rerun under a seeded benign fault plan (per-poll
//! delays + periodic barrier stalls): faults charge modeled time but may
//! never perturb arithmetic, so the faulted sharded runs must stay
//! bitwise-identical to the *clean* single-device baseline.
//!
//! Repro: any failing combination prints its (matrix, precision, shards,
//! warps) coordinates, and the faulted grid uses the reproducible plan
//! `FaultPlan::seeded(42).with_delay(60, 12).with_stall(64, 20)`.

// `common` also carries the sequential references used by the other
// parity binaries; this one compares engine-vs-engine.
#[allow(dead_code)]
mod common;

use common::{assert_matches_oracle, paper_rhs};
use mille_feuille::collection as gen;
use mille_feuille::collection::ValueClass;
use mille_feuille::kernels::ilu0;
use mille_feuille::precision::ClassifyOptions;
use mille_feuille::prelude::*;
use mille_feuille::solver::threaded::{run_cg_threaded, run_pcg_threaded};
use mille_feuille::solver::{
    run_cg_sharded, run_cg_sharded_full, run_pcg_sharded, run_pcg_sharded_full, SolverWorkspace,
};
use mille_feuille::sparse::Coo;

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

fn grid_fixtures() -> Vec<(&'static str, Csr)> {
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

/// Bitwise parity between a sharded run and the single-device engine,
/// including the failure taxonomy and the breakdown trail.
fn assert_parity(name: &str, rep: &ShardedReport, single: &ThreadedReport) {
    assert_eq!(rep.iterations, single.iterations, "{name}: iterations");
    assert_eq!(rep.converged, single.converged, "{name}: converged");
    assert_eq!(rep.failure, single.failure, "{name}: failure");
    assert_eq!(rep.breakdowns, single.breakdowns, "{name}: breakdowns");
    assert_eq!(
        rep.final_relres.to_bits(),
        single.final_relres.to_bits(),
        "{name}: final relres {:e} vs {:e}",
        rep.final_relres,
        single.final_relres
    );
    assert_eq!(
        rep.residual_history.len(),
        single.residual_history.len(),
        "{name}: trajectory length"
    );
    for (i, (e, r)) in rep
        .residual_history
        .iter()
        .zip(&single.residual_history)
        .enumerate()
    {
        assert_eq!(
            e.to_bits(),
            r.to_bits(),
            "{name}: trajectory[{i}] {e:e} vs {r:e}"
        );
    }
    for (i, (e, r)) in rep.x.iter().zip(&single.x).enumerate() {
        assert_eq!(e.to_bits(), r.to_bits(), "{name}: x[{i}] {e} vs {r}");
    }
}

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
const WARP_COUNTS: [usize; 3] = [1, 4, 7];

/// Tentpole grid, CG side: 4 SPD matrices × 3 precisions × 3 shard counts
/// × 3 warp counts = 108 combinations, every one bitwise-identical to the
/// single-device threaded engine.
#[test]
fn cg_grid_matches_single_device_bitwise() {
    let (tol, max_iter) = (1e-10, 200);
    let mut combos = 0usize;
    for (mname, a) in &grid_fixtures() {
        let b = paper_rhs(a);
        for (pname, m) in tilings(a, 8) {
            for &wc in &WARP_COUNTS {
                let single = run_cg_threaded(&m, &b, tol, max_iter, &ThreadedOpts::new(wc));
                for &sc in &SHARD_COUNTS {
                    let rep = run_cg_sharded(&m, &b, tol, max_iter, sc, wc);
                    assert_parity(&format!("cg {mname}/{pname}/s{sc}/w{wc}"), &rep, &single);
                    combos += 1;
                }
            }
            // Uniform FP64 tiles represent A exactly: converged sharded
            // solutions must also agree with the dense-LU oracle of A.
            let check = run_cg_sharded(&m, &b, tol, max_iter, 4, 4);
            if pname == "fp64" {
                assert!(check.converged, "{mname}/fp64 should converge");
                assert_matches_oracle(a, &b, &check.x, 1e-5, &format!("cg {mname}"));
            }
        }
    }
    assert!(combos >= 100, "grid too small: {combos} combos");
}

/// Tentpole grid, PCG side: same grid through the sharded ILU(0)-PCG with
/// its sequential-span triangular solves.
#[test]
fn pcg_grid_matches_single_device_bitwise() {
    let (tol, max_iter) = (1e-10, 200);
    let mut combos = 0usize;
    for (mname, a) in &grid_fixtures() {
        let ilu = ilu0(a).expect("ILU(0) on an SPD grid fixture");
        let b = paper_rhs(a);
        for (pname, m) in tilings(a, 8) {
            for &wc in &WARP_COUNTS {
                let single = run_pcg_threaded(&m, &ilu, &b, tol, max_iter, &ThreadedOpts::new(wc));
                for &sc in &SHARD_COUNTS {
                    let rep = run_pcg_sharded(&m, &ilu, &b, tol, max_iter, sc, wc);
                    assert_parity(&format!("pcg {mname}/{pname}/s{sc}/w{wc}"), &rep, &single);
                    combos += 1;
                }
            }
        }
    }
    assert!(combos >= 100, "grid too small: {combos} combos");
}

/// The CG grid again under the seeded benign fault plan: injected delays,
/// stalls and retries charge modeled wait/sync time on the device
/// timelines but may never touch arithmetic, so every faulted sharded run
/// must stay bitwise-identical to the **clean** single-device baseline,
/// while reporting the plan it ran under.
#[test]
fn cg_grid_bitwise_under_seeded_faults() {
    let (tol, max_iter) = (1e-10, 200);
    let plan = FaultPlan::seeded(42).with_delay(60, 12).with_stall(64, 20);
    for (mname, a) in &grid_fixtures() {
        let b = paper_rhs(a);
        for (pname, m) in tilings(a, 8) {
            let single = run_cg_threaded(&m, &b, tol, max_iter, &ThreadedOpts::new(4));
            for &sc in &SHARD_COUNTS {
                let rep = run_cg_sharded_full(
                    &m,
                    &b,
                    tol,
                    max_iter,
                    sc,
                    4,
                    &DeviceSpec::a100(),
                    mille_feuille::gpu::Interconnect::nvlink3(),
                    &plan,
                    &TraceConfig::default(),
                    &mut SolverWorkspace::new(),
                );
                assert_parity(
                    &format!("cg-faulted {mname}/{pname}/s{sc} plan=[{plan}]"),
                    &rep,
                    &single,
                );
                let inj = rep.injected_faults.expect("plan is non-empty");
                assert_eq!(inj.plan, plan.to_string(), "repro line");
            }
        }
    }
}

/// PCG under the same seeded plan, at the largest shard count.
#[test]
fn pcg_bitwise_under_seeded_faults() {
    let (tol, max_iter) = (1e-10, 200);
    let plan = FaultPlan::seeded(42).with_delay(60, 12).with_stall(64, 20);
    for (mname, a) in &grid_fixtures() {
        let ilu = ilu0(a).expect("ILU(0) on an SPD grid fixture");
        let b = paper_rhs(a);
        for (pname, m) in tilings(a, 8) {
            let single = run_pcg_threaded(&m, &ilu, &b, tol, max_iter, &ThreadedOpts::new(4));
            let rep = run_pcg_sharded_full(
                &m,
                &ilu,
                &b,
                tol,
                max_iter,
                4,
                4,
                &DeviceSpec::a100(),
                mille_feuille::gpu::Interconnect::nvlink3(),
                &plan,
                &TraceConfig::default(),
                &mut SolverWorkspace::new(),
            );
            assert_parity(
                &format!("pcg-faulted {mname}/{pname}/s4 plan=[{plan}]"),
                &rep,
                &single,
            );
        }
    }
}

/// An indefinite diagonal drives CG into repeated curvature breakdowns
/// until the stall abort: the sharded engine must reproduce the threaded
/// engine's breakdown trail, `Stalled` failure and `aborted(curvature)`
/// status at every shard count.
#[test]
fn breakdown_taxonomy_matches_across_shards() {
    let n = 24;
    let mut a = Coo::new(n, n);
    for i in 0..n {
        let d = if i + 1 == n {
            -(n as f64)
        } else {
            2.0 + i as f64
        };
        a.push(i, i, d);
    }
    let csr = a.to_csr();
    let m = TiledMatrix::from_csr_uniform(&csr, 8, Precision::Fp64);
    let mut b = vec![0.0; n];
    b[n - 1] = 1.0;

    let single = run_cg_threaded(&m, &b, 1e-12, 100, &ThreadedOpts::new(2));
    assert!(
        matches!(single.failure, Some(SolveFailure::Stalled { .. })),
        "baseline must stall, got {:?}",
        single.failure
    );
    for &sc in &SHARD_COUNTS {
        let rep = run_cg_sharded(&m, &b, 1e-12, 100, sc, 2);
        assert_parity(&format!("breakdown s{sc}"), &rep, &single);
        assert_eq!(rep.status_label(), "aborted(curvature)");
    }
}

/// `b = 0` short-circuits to the trivial converged report, like every
/// other engine in the workspace.
#[test]
fn zero_rhs_trivially_converges() {
    let a = gen::poisson2d(6, 6);
    let m = TiledMatrix::from_csr(&a);
    for &sc in &SHARD_COUNTS {
        let rep = run_cg_sharded(&m, &vec![0.0; a.nrows], 1e-10, 50, sc, 3);
        assert!(rep.converged);
        assert_eq!(rep.iterations, 0);
        assert_eq!(rep.final_relres.to_bits(), 0.0f64.to_bits());
        assert!(rep.residual_history.is_empty());
    }
}

/// Facade round-trip: `MilleFeuille::solve_cg_sharded` preprocesses with
/// the same classifier as `solve_cg_threaded` (adaptive re-tiering off,
/// which the threaded facade path leaves disabled by default) and the two
/// stay bitwise-identical; the PCG facade applies the same boosted-ILU
/// recovery as its threaded counterpart.
#[test]
fn facade_matches_threaded_facade() {
    let a = gen::poisson2d(9, 8);
    let b = paper_rhs(&a);
    let solver = MilleFeuille::with_defaults(DeviceSpec::a100());

    let single = solver.solve_cg_threaded(&a, &b, 4);
    for &sc in &SHARD_COUNTS {
        let rep = solver.solve_cg_sharded(&a, &b, sc, 4);
        assert_eq!(rep.iterations, single.iterations, "facade s{sc}");
        assert_eq!(
            rep.final_relres.to_bits(),
            single.final_relres.to_bits(),
            "facade s{sc}"
        );
        for (e, r) in rep.x.iter().zip(&single.x) {
            assert_eq!(e.to_bits(), r.to_bits(), "facade s{sc}");
        }
        assert_eq!(rep.shards, sc);
    }

    let prep = solver
        .solve_pcg_sharded(&a, &b, 2, 4)
        .expect("ILU(0) succeeds on Poisson");
    let pthreaded = solver.solve_pcg_threaded(&a, &b, 4).unwrap();
    assert_eq!(prep.iterations, pthreaded.iterations);
    assert_eq!(
        prep.final_relres.to_bits(),
        pthreaded.final_relres.to_bits()
    );
}

/// Sharding telemetry sanity: halo traffic appears exactly when there is
/// more than one device, and the per-shard matrix payload splits the
/// packed value bytes.
#[test]
fn telemetry_reflects_sharding() {
    let a = gen::poisson2d(10, 10);
    let m = TiledMatrix::from_csr(&a);
    let b = paper_rhs(&a);

    let one = run_cg_sharded(&m, &b, 1e-10, 200, 1, 4);
    assert_eq!(one.halo_bytes, 0, "single shard has no halo");
    assert_eq!(one.halo_messages, 0);
    assert_eq!(one.per_shard_value_bytes, vec![m.vals_raw().len()]);

    let four = run_cg_sharded(&m, &b, 1e-10, 200, 4, 4);
    assert!(four.halo_bytes > 0, "4 shards must exchange halos");
    assert!(four.halo_messages > 0);
    assert_eq!(four.per_shard_value_bytes.len(), 4);
    assert_eq!(
        four.per_shard_value_bytes.iter().sum::<usize>(),
        m.vals_raw().len(),
        "shard payloads partition the packed values"
    );
    let max_shard = *four.per_shard_value_bytes.iter().max().unwrap();
    assert!(
        max_shard < m.vals_raw().len(),
        "no shard holds the whole matrix"
    );
}
