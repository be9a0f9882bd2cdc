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
use mille_feuille::solver::{run_cg_sharded, run_pcg_sharded, ShardedOpts, SolverWorkspace};
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

/// The sharding section of a sharded report: shard count, halo bytes,
/// halo messages and per-shard value bytes.
fn sharding(rep: &SolveReport) -> (usize, u64, u64, Vec<usize>) {
    match &rep.engine {
        Some(EngineSection::Sharded {
            shards,
            halo_bytes,
            halo_messages,
            per_shard_value_bytes,
            ..
        }) => (
            *shards,
            *halo_bytes,
            *halo_messages,
            per_shard_value_bytes.clone(),
        ),
        other => panic!("not a sharded report: {other:?}"),
    }
}

/// Bitwise parity between a sharded run and the single-device engine,
/// including the failure taxonomy and the breakdown trail.
fn assert_parity(name: &str, rep: &SolveReport, single: &SolveReport) {
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
                    let rep = run_cg_sharded(
                        &m,
                        &b,
                        tol,
                        max_iter,
                        &ShardedOpts::new(sc, wc),
                        &mut SolverWorkspace::new(),
                    );
                    assert_parity(&format!("cg {mname}/{pname}/s{sc}/w{wc}"), &rep, &single);
                    combos += 1;
                }
            }
            // Uniform FP64 tiles represent A exactly: converged sharded
            // solutions must also agree with the dense-LU oracle of A.
            let check = run_cg_sharded(
                &m,
                &b,
                tol,
                max_iter,
                &ShardedOpts::new(4, 4),
                &mut SolverWorkspace::new(),
            );
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
                    let rep = run_pcg_sharded(
                        &m,
                        &ilu,
                        &b,
                        tol,
                        max_iter,
                        &ShardedOpts::new(sc, wc),
                        &mut SolverWorkspace::new(),
                    );
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
                let opts = ShardedOpts {
                    faults: plan.clone(),
                    ..ShardedOpts::new(sc, 4)
                };
                let rep = run_cg_sharded(&m, &b, tol, max_iter, &opts, &mut SolverWorkspace::new());
                assert_parity(
                    &format!("cg-faulted {mname}/{pname}/s{sc} plan=[{plan}]"),
                    &rep,
                    &single,
                );
                let inj = rep.injected_faults().expect("plan is non-empty");
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
            let opts = ShardedOpts {
                faults: plan.clone(),
                ..ShardedOpts::new(4, 4)
            };
            let rep = run_pcg_sharded(
                &m,
                &ilu,
                &b,
                tol,
                max_iter,
                &opts,
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
        let rep = run_cg_sharded(
            &m,
            &b,
            1e-12,
            100,
            &ShardedOpts::new(sc, 2),
            &mut SolverWorkspace::new(),
        );
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
        let rep = run_cg_sharded(
            &m,
            &vec![0.0; a.nrows],
            1e-10,
            50,
            &ShardedOpts::new(sc, 3),
            &mut SolverWorkspace::new(),
        );
        assert!(rep.converged);
        assert_eq!(rep.iterations, 0);
        assert_eq!(rep.final_relres.to_bits(), 0.0f64.to_bits());
        assert!(rep.residual_history.is_empty());
    }
}

/// Facade round-trip: sharded CG through `MilleFeuille::solve` preprocesses
/// with the same classifier as threaded CG (adaptive re-tiering off,
/// which the threaded facade path leaves disabled by default) and the two
/// stay bitwise-identical; the PCG facade applies the same boosted-ILU
/// recovery as its threaded counterpart.
#[test]
fn facade_matches_threaded_facade() {
    let a = gen::poisson2d(9, 8);
    let b = paper_rhs(&a);
    let solver = MilleFeuille::with_defaults(DeviceSpec::a100());

    let single = solver
        .solve(&a, &b, &SolveSpec::new(Method::Cg).threaded(4))
        .unwrap();
    for &sc in &SHARD_COUNTS {
        let rep = solver
            .solve(&a, &b, &SolveSpec::new(Method::Cg).sharded(sc, 4))
            .unwrap();
        assert_eq!(rep.iterations, single.iterations, "facade s{sc}");
        assert_eq!(
            rep.final_relres.to_bits(),
            single.final_relres.to_bits(),
            "facade s{sc}"
        );
        for (e, r) in rep.x.iter().zip(&single.x) {
            assert_eq!(e.to_bits(), r.to_bits(), "facade s{sc}");
        }
        assert_eq!(sharding(&rep).0, sc);
    }

    let prep = solver
        .solve(
            &a,
            &b,
            &SolveSpec::new(Method::Pcg(PrecondKind::Ilu0)).sharded(2, 4),
        )
        .expect("ILU(0) succeeds on Poisson");
    let pthreaded = solver
        .solve(
            &a,
            &b,
            &SolveSpec::new(Method::Pcg(PrecondKind::Ilu0)).threaded(4),
        )
        .unwrap();
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

    let one = run_cg_sharded(
        &m,
        &b,
        1e-10,
        200,
        &ShardedOpts::new(1, 4),
        &mut SolverWorkspace::new(),
    );
    let (_, halo_bytes, halo_messages, per_shard) = sharding(&one);
    assert_eq!(halo_bytes, 0, "single shard has no halo");
    assert_eq!(halo_messages, 0);
    assert_eq!(per_shard, vec![m.vals_raw().len()]);

    let four = run_cg_sharded(
        &m,
        &b,
        1e-10,
        200,
        &ShardedOpts::new(4, 4),
        &mut SolverWorkspace::new(),
    );
    let (_, halo_bytes, halo_messages, per_shard) = sharding(&four);
    assert!(halo_bytes > 0, "4 shards must exchange halos");
    assert!(halo_messages > 0);
    assert_eq!(per_shard.len(), 4);
    assert_eq!(
        per_shard.iter().sum::<usize>(),
        m.vals_raw().len(),
        "shard payloads partition the packed values"
    );
    let max_shard = *per_shard.iter().max().unwrap();
    assert!(
        max_shard < m.vals_raw().len(),
        "no shard holds the whole matrix"
    );
}

/// FNV-1a over a stream of 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The sharded engines' modeled time, pinned bitwise: for CG and PCG at
/// (2 shards, 2 warps) and (3 shards, 1 warp), clean and under the seeded
/// benign fault plan, the per-phase ledger (`timeline.get(p)` for every
/// [`Phase`]) digests to a fixed value. Halo messages, reduction combines,
/// host transfers, kernel charges and fault waits all land in it, in the
/// order the devices add them. On a mismatch the observed table is printed
/// in source form.
#[test]
fn sharded_modeled_time_is_pinned() {
    use mille_feuille::gpu::Phase;
    let a = gen::poisson2d(9, 8);
    let m = TiledMatrix::from_csr_with(&a, 8, &ClassifyOptions::default());
    let ilu = ilu0(&a).expect("ILU(0) on Poisson");
    let b = paper_rhs(&a);
    let plan = FaultPlan::seeded(42).with_delay(60, 12).with_stall(64, 20);
    let mut observed: Vec<(String, u64)> = Vec::new();
    for (sc, wc) in [(2, 2), (3, 1)] {
        for faulted in [false, true] {
            let opts = ShardedOpts {
                faults: if faulted {
                    plan.clone()
                } else {
                    FaultPlan::default()
                },
                ..ShardedOpts::new(sc, wc)
            };
            let tag = if faulted { "faulted" } else { "clean" };
            let cg = run_cg_sharded(&m, &b, 1e-10, 200, &opts, &mut SolverWorkspace::new());
            let pcg = run_pcg_sharded(&m, &ilu, &b, 1e-10, 200, &opts, &mut SolverWorkspace::new());
            for (engine, rep) in [("cg", cg), ("pcg", pcg)] {
                assert!(rep.converged, "{engine}/s{sc}/w{wc}/{tag}");
                let digest = fnv(Phase::ALL.iter().map(|&p| rep.timeline.get(p).to_bits()));
                observed.push((format!("{engine}/s{sc}/w{wc}/{tag}"), digest));
            }
        }
    }
    let expected: [(&str, u64); 8] = [
        ("cg/s2/w2/clean", 0x6ede55cdcac13651),
        ("pcg/s2/w2/clean", 0xfd7155c0e8ce4c35),
        ("cg/s2/w2/faulted", 0x589db6a6723808c3),
        ("pcg/s2/w2/faulted", 0x08b48aa59f73986f),
        ("cg/s3/w1/clean", 0xb8b8b4fe9be23f1b),
        ("pcg/s3/w1/clean", 0x1441ab43880a8296),
        ("cg/s3/w1/faulted", 0xeefe6a9b298b3db1),
        ("pcg/s3/w1/faulted", 0x4f88a79d7088bbd1),
    ];
    let table: String = observed
        .iter()
        .map(|(name, d)| format!("        (\"{name}\", {d:#018x}),\n"))
        .collect();
    assert_eq!(observed.len(), expected.len(), "observed table:\n{table}");
    for ((name, got), (ename, want)) in observed.iter().zip(&expected) {
        assert_eq!(name, ename, "row order; observed table:\n{table}");
        assert_eq!(got, want, "{name} moved; observed table:\n{table}");
    }
}
