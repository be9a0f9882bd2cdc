//! Adversarial serving tests: seeded concurrent interleavings hammering
//! the preprocessing cache across eviction boundaries.
//!
//! The schedule perturbations reuse the `FaultPlan` machinery from
//! `mf-gpu` (the same seeded splitmix64 delay/yield streams the threaded
//! engines inject) so interesting interleavings are *reproducible*: a
//! failing seed is a repro line, not a flake.
//!
//! What must hold under every interleaving:
//!
//! * no deadlock — every request completes (the harness itself is the
//!   assertion; a condvar bug would hang the test);
//! * no double-preprocess for a resident key — concurrent misses coalesce
//!   into one build, and hammering a warm key never rebuilds it;
//! * determinism — every answer, hit or miss, batched or not, is bitwise
//!   identical to the cold one-shot facade solve of the same request;
//! * coherent accounting — counters and trace events agree, resident
//!   size respects the configured bounds.

use std::sync::{Arc, Barrier};

use mf_gpu::{FaultKind, FaultPlan};
use mf_serve::{CacheConfig, ServeConfig, SolveService};
use mf_solver::{EventKind, Method, MilleFeuille, Precond, PrecondKind, SolveSpec, SolverConfig};
use mf_sparse::{Coo, Csr};

fn poisson1d(n: usize) -> Csr {
    let mut a = Coo::new(n, n);
    for i in 0..n {
        a.push(i, i, 2.0);
        if i + 1 < n {
            a.push(i, i + 1, -1.0);
            a.push(i + 1, i, -1.0);
        }
    }
    a.to_csr()
}

fn seeded_vec(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect()
}

/// Busy-spin / yield according to the thread's seeded fault stream —
/// perturbs the interleaving without touching the code under test.
fn perturb(faults: &mf_gpu::WarpFaults) {
    match faults.poll() {
        mf_gpu::SpinFault::Delay(spins) => {
            for _ in 0..spins {
                std::hint::spin_loop();
            }
        }
        mf_gpu::SpinFault::Yield => std::thread::yield_now(),
        mf_gpu::SpinFault::None => {}
    }
}

#[test]
fn concurrent_same_key_builds_once_and_matches_cold() {
    let n = 120;
    let a = poisson1d(n);
    let b = seeded_vec(n, 9);
    // Cold one-shot facade reference (no serving layer at all).
    let cold = MilleFeuille::new(mf_gpu::DeviceSpec::a100(), SolverConfig::default())
        .solve(&a, &b, &SolveSpec::new(Method::Cg))
        .unwrap();

    for seed in [1u64, 7, 42] {
        let svc = Arc::new(SolveService::new(ServeConfig::default()));
        let threads = 8;
        let start = Arc::new(Barrier::new(threads));
        let plan = FaultPlan::seeded(seed)
            .with_delay(400, 5_000)
            .with_yield(200);
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let svc = svc.clone();
                let a = a.clone();
                let b = b.clone();
                let start = start.clone();
                let faults = plan.for_warp(t);
                std::thread::spawn(move || {
                    start.wait();
                    perturb(&faults);
                    let rep = svc.solve(&a, &b);
                    perturb(&faults);
                    rep
                })
            })
            .collect();
        let reports: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

        for rep in &reports {
            assert_eq!(rep.report.x, cold.x, "seed {seed}: served ≡ cold, bitwise");
            assert_eq!(rep.report.iterations, cold.iterations);
        }
        let s = svc.cache_stats();
        assert_eq!(s.builds, 1, "seed {seed}: concurrent misses coalesce");
        assert_eq!(
            s.misses, 1,
            "seed {seed}: exactly one thread claimed the build"
        );
        assert_eq!(
            s.hits,
            threads as u64 - 1,
            "seed {seed}: everyone else waited and hit"
        );
        assert_eq!(
            reports.iter().filter(|r| !r.cache_hit).count(),
            1,
            "seed {seed}: exactly one cold request"
        );
    }
}

#[test]
fn resident_key_is_never_rebuilt_while_hammered() {
    let a = poisson1d(64);
    let b = seeded_vec(64, 3);
    let svc = Arc::new(SolveService::new(ServeConfig {
        // Big enough that the hot key is never evicted by itself.
        cache: CacheConfig {
            max_entries: 8,
            ..CacheConfig::default()
        },
        ..ServeConfig::default()
    }));
    let warm = svc.solve(&a, &b);
    assert!(!warm.cache_hit);
    let builds_before = svc.cache_stats().builds;

    let plan = FaultPlan::seeded(1234).with_yield(300);
    let start = Arc::new(Barrier::new(6));
    let handles: Vec<_> = (0..6)
        .map(|t| {
            let svc = svc.clone();
            let a = a.clone();
            let b = b.clone();
            let start = start.clone();
            let faults = plan.for_warp(t);
            std::thread::spawn(move || {
                start.wait();
                for _ in 0..10 {
                    perturb(&faults);
                    let rep = svc.solve(&a, &b);
                    assert!(rep.cache_hit, "warm key must stay a hit");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(
        svc.cache_stats().builds,
        builds_before,
        "no double-preprocess for a resident key"
    );
    assert!(svc.is_cached(&a));
}

#[test]
fn seeded_interleavings_across_eviction_boundaries() {
    // 5 matrices, room for 2: every request stream crosses eviction
    // boundaries constantly. Each (matrix, rhs) answer must still be
    // bitwise the cold facade answer, under several seeded schedules.
    let sizes = [48usize, 80, 96, 112, 128];
    let mats: Vec<Csr> = sizes.iter().map(|&n| poisson1d(n)).collect();
    let rhss: Vec<Vec<f64>> = sizes
        .iter()
        .enumerate()
        .map(|(i, &n)| seeded_vec(n, 100 + i as u64))
        .collect();
    let facade = MilleFeuille::new(mf_gpu::DeviceSpec::a100(), SolverConfig::default());
    let cold: Vec<Vec<f64>> = mats
        .iter()
        .zip(&rhss)
        .map(|(a, b)| facade.solve(a, b, &SolveSpec::new(Method::Cg)).unwrap().x)
        .collect();

    for seed in [3u64, 17, 99] {
        let svc = Arc::new(SolveService::new(ServeConfig {
            cache: CacheConfig {
                max_entries: 2,
                ..CacheConfig::default()
            },
            ..ServeConfig::default()
        }));
        let threads = 6;
        let rounds = 8;
        let plan = FaultPlan::seeded(seed)
            .with_delay(300, 8_000)
            .with_yield(200);
        let start = Arc::new(Barrier::new(threads));
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let svc = svc.clone();
                let mats = mats.clone();
                let rhss = rhss.clone();
                let cold = cold.clone();
                let start = start.clone();
                let faults = plan.for_warp(t);
                std::thread::spawn(move || {
                    // Each thread walks the matrix pool in a seeded order
                    // derived from its fault stream's warp index.
                    start.wait();
                    for round in 0..rounds {
                        let i = (t * 3 + round * 5 + seed as usize) % mats.len();
                        perturb(&faults);
                        let rep = svc.solve(&mats[i], &rhss[i]);
                        assert_eq!(
                            rep.report.x, cold[i],
                            "seed {seed} thread {t} round {round}: bitwise vs cold"
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }

        let s = svc.cache_stats();
        let lookups = (threads * rounds) as u64;
        assert_eq!(
            s.hits + s.misses,
            lookups,
            "seed {seed}: every lookup accounted"
        );
        assert!(
            s.evictions > 0,
            "seed {seed}: the pool must thrash a 2-entry cache"
        );
        assert!(svc.cache_len() <= 2, "seed {seed}: entry bound respected");

        // Trace ↔ counter coherence (ring is sized to hold everything).
        let trace = svc.take_trace();
        assert_eq!(trace.count(EventKind::CacheHit) as u64, s.hits);
        assert_eq!(trace.count(EventKind::CacheMiss) as u64, s.misses);
        assert_eq!(trace.count(EventKind::CacheEvict) as u64, s.evictions);
    }
}

#[test]
fn concurrent_batches_match_cold_facade() {
    // Batched requests racing single requests for the same matrix: the
    // batch answers must be bitwise the cold k=1 answers regardless of
    // who populated the cache first.
    let n = 72;
    let a = poisson1d(n);
    let rhss: Vec<Vec<f64>> = (0..4).map(|j| seeded_vec(n, 200 + j)).collect();

    let reference = SolveService::new(ServeConfig::default());
    let solo: Vec<Vec<f64>> = rhss
        .iter()
        .map(|b| {
            reference.solve_batch(&a, std::slice::from_ref(b))[0]
                .x
                .clone()
        })
        .collect();

    for seed in [5u64, 21] {
        let svc = Arc::new(SolveService::new(ServeConfig::default()));
        let plan = FaultPlan::seeded(seed).with_yield(250);
        let start = Arc::new(Barrier::new(4));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let svc = svc.clone();
                let a = a.clone();
                let rhss = rhss.clone();
                let start = start.clone();
                let faults = plan.for_warp(t);
                std::thread::spawn(move || {
                    start.wait();
                    perturb(&faults);
                    svc.solve_batch(&a, &rhss)
                })
            })
            .collect();
        for h in handles {
            let out = h.join().unwrap();
            for (j, o) in out.iter().enumerate() {
                assert!(o.batched && o.converged);
                assert_eq!(o.x, solo[j], "seed {seed}: batch ≡ solo column {j}");
            }
        }
        assert_eq!(svc.cache_stats().builds, 1, "seed {seed}: one shared build");
    }
}

#[test]
fn preconditioned_hit_matches_cold_pcg_facade() {
    // Differential test for the cached-ILU path: warm service PCG solve
    // ≡ cold facade PCG solve with freshly computed factors, bitwise.
    let n = 90;
    let a = poisson1d(n);
    let b = seeded_vec(n, 77);

    let facade = MilleFeuille::new(mf_gpu::DeviceSpec::a100(), SolverConfig::default());
    let (ilu, _shifts) = mf_kernels::ilu0_boosted(&a).expect("SPD factors");
    let cold = facade
        .solve(
            &a,
            &b,
            &SolveSpec::new(Method::Pcg(PrecondKind::Ilu0)).with_factors(Precond::Ilu0(&ilu)),
        )
        .unwrap();

    let svc = SolveService::new(ServeConfig {
        precondition: true,
        ..ServeConfig::default()
    });
    let first = svc.solve(&a, &b);
    let second = svc.solve(&a, &b);
    assert!(!first.cache_hit && second.cache_hit);
    assert_eq!(first.report.x, cold.x, "cold service ≡ cold facade");
    assert_eq!(second.report.x, cold.x, "warm service ≡ cold facade");
    assert_eq!(second.report.preprocess_passes, 0);
    assert_eq!(second.report.iterations, cold.iterations);
}

#[test]
fn fault_kinds_are_benign_for_the_cache() {
    // Sanity: the fault vocabulary used above is the benign subset.
    assert!(matches!(FaultKind::Delay, FaultKind::Delay));
    let plan = FaultPlan::seeded(8).with_delay(1000, 16).with_yield(1000);
    let f = plan.for_warp(0);
    // A 100%-rate stream must still make progress (bounded spins).
    for _ in 0..64 {
        perturb(&f);
    }
}
