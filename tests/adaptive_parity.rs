//! Cross-engine differential tests for the adaptive precision controller
//! v2 (residual-driven tile re-tiering).
//!
//! The controller is replicated per warp with zero extra synchronization,
//! so its correctness claim is a determinism claim: every engine — the
//! sequential classic core, the sequential pipelined core, and the
//! threaded engines at any warp count, clean or under a seeded benign
//! fault plan — must replay *one* decision sequence for a given
//! `(matrix, rhs, config)`. A seeded (matrix × precision × warp-count)
//! grid pins that:
//!
//! * **within a family** (same engine, different warp counts, clean vs
//!   perturbed schedule) results are **bitwise** identical — solution,
//!   iteration count, final residual, and re-tier trail;
//! * **across families** (classic vs pipelined, sequential vs threaded)
//!   the recurrences differ in summation order, so the solutions agree to
//!   solver tolerance rather than bitwise — but the *decision trail* is
//!   identical, because decisions depend only on residual decades and the
//!   tile census, both of which the engines share exactly.

use mille_feuille::collection as gen;
use mille_feuille::collection::ValueClass;
use mille_feuille::gpu::CostModel;
use mille_feuille::kernels::{blas1, SharedTiles};
use mille_feuille::precision::ClassifyOptions;
use mille_feuille::prelude::*;
use mille_feuille::solver::cg::{run_cg_ws, CoreResult};
use mille_feuille::solver::coster::{Coster, SingleCoster};
use mille_feuille::solver::partial::PartialState;
use mille_feuille::solver::pipelined::run_cg_pipelined_ws;
use mille_feuille::solver::{
    run_cg_pipelined_threaded, run_cg_threaded, AdaptiveConfig, RetierDecision, SolverWorkspace,
};
use mille_feuille::sparse::{Coo, Dense};

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

/// Diagonally dominant SPD tridiagonal with noisy (not exactly
/// representable) values: tiles classify at full precision, so the
/// controller has demotion headroom and the grid is not vacuous.
fn noisy_spd(n: usize, seed: u64) -> Csr {
    let noise = seeded_vec(n, seed);
    let mut a = Coo::new(n, n);
    for (i, &w) in noise.iter().enumerate() {
        a.push(i, i, 4.0 + 0.3 * w.abs());
        if i + 1 < n {
            let v = -1.0 + 0.1 * w;
            a.push(i, i + 1, v);
            a.push(i + 1, i, v);
        }
    }
    a.to_csr()
}

/// The pinned grid configuration: adaptive armed, partial convergence off
/// (the facade forces that combination too).
fn adaptive_cfg() -> SolverConfig {
    SolverConfig {
        partial_convergence: false,
        adaptive: Some(AdaptiveConfig::default()),
        ..SolverConfig::default()
    }
}

/// The two tile-precision configurations every grid matrix is solved in:
/// the paper's mixed classifier and uniform FP64 (on which the controller
/// always has maximal demotion headroom).
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
    ]
}

fn coster_for(m: &TiledMatrix) -> Coster {
    Coster::Single(SingleCoster::new(
        CostModel::new(DeviceSpec::a100()),
        m,
        m.tile_size,
    ))
}

fn seq_classic(m: &TiledMatrix, b: &[f64], cfg: &SolverConfig) -> CoreResult {
    let mut shared = SharedTiles::load(m);
    let coster = coster_for(m);
    let eps_abs = cfg.tolerance * blas1::norm2(b);
    let mut partial = PartialState::new(false, m.tile_cols, m.tile_size, eps_abs);
    run_cg_ws(
        m,
        &mut shared,
        b,
        cfg,
        &coster,
        &mut partial,
        &mut SolverWorkspace::new(),
    )
}

fn seq_pipelined(m: &TiledMatrix, b: &[f64], cfg: &SolverConfig) -> CoreResult {
    let mut shared = SharedTiles::load(m);
    let coster = coster_for(m);
    let eps_abs = cfg.tolerance * blas1::norm2(b);
    let mut partial = PartialState::new(false, m.tile_cols, m.tile_size, eps_abs);
    run_cg_pipelined_ws(
        m,
        &mut shared,
        b,
        cfg,
        &coster,
        &mut partial,
        &mut SolverWorkspace::new(),
    )
}

fn thr_classic(
    m: &TiledMatrix,
    b: &[f64],
    cfg: &SolverConfig,
    warps: usize,
    plan: &FaultPlan,
) -> ThreadedReport {
    run_cg_threaded(
        m,
        b,
        cfg.tolerance,
        cfg.max_iter,
        &ThreadedOpts {
            faults: plan.clone(),
            adaptive: cfg.adaptive,
            ..ThreadedOpts::new(warps)
        },
    )
}

fn thr_pipelined(
    m: &TiledMatrix,
    b: &[f64],
    cfg: &SolverConfig,
    warps: usize,
    plan: &FaultPlan,
) -> ThreadedReport {
    run_cg_pipelined_threaded(
        m,
        b,
        cfg.tolerance,
        cfg.max_iter,
        &ThreadedOpts {
            faults: plan.clone(),
            adaptive: cfg.adaptive,
            ..ThreadedOpts::new(warps)
        },
    )
}

/// Decision-sequence equality: iteration, residual decade, cap and the
/// full per-tile action list of every plan.
fn assert_trails_equal(label: &str, left: &[RetierDecision], right: &[RetierDecision]) {
    assert_eq!(
        left.len(),
        right.len(),
        "{label}: trail length {} vs {}\n  left: {left:?}\n  right: {right:?}",
        left.len(),
        right.len()
    );
    for (i, (l, r)) in left.iter().zip(right).enumerate() {
        assert_eq!(l, r, "{label}: decision {i} diverges");
    }
}

fn assert_bitwise_x(label: &str, left: &[f64], right: &[f64]) {
    assert_eq!(left.len(), right.len(), "{label}: solution length");
    for (i, (l, r)) in left.iter().zip(right).enumerate() {
        assert_eq!(l.to_bits(), r.to_bits(), "{label}: x[{i}] {l} vs {r}");
    }
}

/// `x` agrees with the dense-LU solution of the exact `A` row-wise — only
/// meaningful for uniform-FP64 tilings, where the tiles represent `A`
/// exactly and the end-game cap restores them after any demotion.
fn assert_matches_oracle(a: &Csr, b: &[f64], x: &[f64], label: &str) {
    let oracle = Dense::from_csr(a).solve(b).expect("oracle solvable");
    for i in 0..a.nrows {
        let scale = oracle[i].abs().max(1.0);
        assert!(
            (x[i] - oracle[i]).abs() <= 1e-6 * scale,
            "{label}: row {i}: {} vs oracle {}",
            x[i],
            oracle[i]
        );
    }
}

/// Tentpole grid, clean schedules: 3 seeded SPD matrices × 2 precisions ×
/// {1, 4, 7} warps, all four engine families. Within each threaded family
/// every warp count is bitwise identical; every family replays the same
/// decision sequence; uniform-FP64 runs also agree with the dense oracle.
#[test]
fn adaptive_grid_replays_one_decision_sequence_across_engines() {
    let cfg = adaptive_cfg();
    let fixtures: Vec<(&str, Csr)> = vec![
        ("noisy_spd_144", noisy_spd(144, 3)),
        ("noisy_spd_200", noisy_spd(200, 17)),
        (
            "banded_spd_120",
            gen::banded_spd(120, 3, ValueClass::Real, 7),
        ),
    ];
    let warp_counts = [1usize, 4, 7];
    let clean = FaultPlan::default();
    let mut combos = 0usize;

    for (mname, a) in &fixtures {
        let b = seeded_vec(a.nrows, 29);
        for (pname, m) in tilings(a, cfg.tile_size) {
            let tag = format!("{mname}/{pname}");
            let seq = seq_classic(&m, &b, &cfg);
            assert!(seq.converged, "{tag}: sequential classic did not converge");
            let pipe = seq_pipelined(&m, &b, &cfg);
            assert!(
                pipe.converged,
                "{tag}: sequential pipelined did not converge"
            );

            // Non-vacuity: on uniform FP64 every tile has demotion headroom,
            // so a silent controller means the grid is testing nothing.
            if pname == "fp64" {
                assert!(
                    !seq.retier_trail.is_empty(),
                    "{tag}: the controller never fired — vacuous combination"
                );
            }

            // Cross-family (classic vs pipelined): same Krylov process, same
            // residual decades, hence the same decision sequence.
            assert_trails_equal(
                &format!("{tag} seq classic vs pipelined"),
                &seq.retier_trail,
                &pipe.retier_trail,
            );

            // Threaded classic: warp-count invariant bitwise, and replays
            // the sequential classic trail.
            let t1 = thr_classic(&m, &b, &cfg, warp_counts[0], &clean);
            assert!(t1.converged, "{tag}/w1 classic: {:?}", t1.failure);
            assert_trails_equal(
                &format!("{tag} thr classic vs seq"),
                &seq.retier_trail,
                &t1.retier_trail,
            );
            for &wc in &warp_counts[1..] {
                let t = thr_classic(&m, &b, &cfg, wc, &clean);
                let wtag = format!("{tag}/w{wc} classic");
                assert_eq!(t1.iterations, t.iterations, "{wtag}: iterations");
                assert_eq!(
                    t1.final_relres.to_bits(),
                    t.final_relres.to_bits(),
                    "{wtag}: final relres"
                );
                assert_bitwise_x(&wtag, &t1.x, &t.x);
                assert_trails_equal(&wtag, &t1.retier_trail, &t.retier_trail);
                combos += 1;
            }

            // Threaded pipelined: same statements against the sequential
            // pipelined trail.
            let p1 = thr_pipelined(&m, &b, &cfg, warp_counts[0], &clean);
            assert!(p1.converged, "{tag}/w1 pipelined: {:?}", p1.failure);
            assert_trails_equal(
                &format!("{tag} thr pipelined vs seq"),
                &pipe.retier_trail,
                &p1.retier_trail,
            );
            for &wc in &warp_counts[1..] {
                let p = thr_pipelined(&m, &b, &cfg, wc, &clean);
                let wtag = format!("{tag}/w{wc} pipelined");
                assert_eq!(p1.iterations, p.iterations, "{wtag}: iterations");
                assert_eq!(
                    p1.final_relres.to_bits(),
                    p.final_relres.to_bits(),
                    "{wtag}: final relres"
                );
                assert_bitwise_x(&wtag, &p1.x, &p.x);
                assert_trails_equal(&wtag, &p1.retier_trail, &p.retier_trail);
                combos += 1;
            }

            if pname == "fp64" {
                assert_matches_oracle(a, &b, &seq.x, &format!("{tag} seq classic"));
                assert_matches_oracle(a, &b, &pipe.x, &format!("{tag} seq pipelined"));
                assert_matches_oracle(a, &b, &t1.x, &format!("{tag} thr classic"));
                assert_matches_oracle(a, &b, &p1.x, &format!("{tag} thr pipelined"));
            }
            combos += 2;
        }
    }
    assert!(combos >= 30, "grid too small: {combos} combos");
}

/// The same grid under a seeded benign fault plan (per-poll delays +
/// periodic barrier stalls): schedule perturbation may reorder *waiting*
/// but never arithmetic, so every threaded adaptive run must stay bitwise
/// identical to its clean twin — including the re-tier trail, whose
/// refresh passes ride the same dependency-counter protocol.
#[test]
fn adaptive_grid_bitwise_under_seeded_perturbation() {
    let cfg = adaptive_cfg();
    let fixtures: Vec<(&str, Csr)> = vec![
        ("noisy_spd_144", noisy_spd(144, 3)),
        (
            "banded_spd_120",
            gen::banded_spd(120, 3, ValueClass::Real, 7),
        ),
    ];
    let warp_counts = [1usize, 4, 7];
    let clean = FaultPlan::default();
    let plan = FaultPlan::seeded(42).with_delay(60, 12).with_stall(64, 20);

    for (mname, a) in &fixtures {
        let b = seeded_vec(a.nrows, 29);
        for (pname, m) in tilings(a, cfg.tile_size) {
            for &wc in &warp_counts {
                let tag = format!("{mname}/{pname}/w{wc}+{plan}");

                let base = thr_classic(&m, &b, &cfg, wc, &clean);
                let hit = thr_classic(&m, &b, &cfg, wc, &plan);
                assert!(
                    hit.injected_faults.is_some(),
                    "{tag} classic: telemetry missing"
                );
                assert_eq!(base.iterations, hit.iterations, "{tag} classic: iterations");
                assert_eq!(
                    base.final_relres.to_bits(),
                    hit.final_relres.to_bits(),
                    "{tag} classic: final relres"
                );
                assert_bitwise_x(&format!("{tag} classic"), &base.x, &hit.x);
                assert_trails_equal(
                    &format!("{tag} classic"),
                    &base.retier_trail,
                    &hit.retier_trail,
                );

                let base = thr_pipelined(&m, &b, &cfg, wc, &clean);
                let hit = thr_pipelined(&m, &b, &cfg, wc, &plan);
                assert!(
                    hit.injected_faults.is_some(),
                    "{tag} pipelined: telemetry missing"
                );
                assert_eq!(
                    base.iterations, hit.iterations,
                    "{tag} pipelined: iterations"
                );
                assert_eq!(
                    base.final_relres.to_bits(),
                    hit.final_relres.to_bits(),
                    "{tag} pipelined: final relres"
                );
                assert_bitwise_x(&format!("{tag} pipelined"), &base.x, &hit.x);
                assert_trails_equal(
                    &format!("{tag} pipelined"),
                    &base.retier_trail,
                    &hit.retier_trail,
                );
            }
        }
    }
}

/// Structural sanity of one trail: decisions fire on period boundaries in
/// strictly increasing order, the cap only ever widens after the initial
/// demotion, plans are never empty, and the plan count is bounded (the
/// termination guarantee).
#[test]
fn decision_trail_is_well_formed() {
    let cfg = adaptive_cfg();
    let a = noisy_spd(160, 5);
    let b = seeded_vec(160, 77);
    let m = TiledMatrix::from_csr_uniform(&a, cfg.tile_size, Precision::Fp64);
    let seq = seq_classic(&m, &b, &cfg);
    let trail = &seq.retier_trail;
    let period = AdaptiveConfig::default().period;

    assert!(!trail.is_empty(), "controller never fired on the fixture");
    assert!(trail.len() <= 4, "unbounded plan count: {}", trail.len());
    for d in trail {
        assert_eq!(
            d.iteration % period,
            0,
            "off-period decision at {}",
            d.iteration
        );
        assert!(
            !d.actions.is_empty(),
            "empty plan at iteration {}",
            d.iteration
        );
    }
    for w in trail.windows(2) {
        assert!(w[0].iteration < w[1].iteration, "non-increasing iterations");
        assert!(
            w[0].cap <= w[1].cap,
            "cap narrowed mid-solve: {:?} then {:?}",
            w[0].cap,
            w[1].cap
        );
    }
}

/// A zero right-hand side converges before the loop on every engine: no
/// iterations, no decisions.
#[test]
fn adaptive_zero_rhs_is_an_immediate_noop() {
    let cfg = adaptive_cfg();
    let a = noisy_spd(96, 9);
    let b = vec![0.0; 96];
    let m = TiledMatrix::from_csr_with(&a, cfg.tile_size, &ClassifyOptions::default());
    let clean = FaultPlan::default();

    let seq = seq_classic(&m, &b, &cfg);
    let pipe = seq_pipelined(&m, &b, &cfg);
    let thr = thr_classic(&m, &b, &cfg, 4, &clean);
    let thp = thr_pipelined(&m, &b, &cfg, 4, &clean);
    for (label, converged, iterations, trail_len) in [
        (
            "seq classic",
            seq.converged,
            seq.iterations,
            seq.retier_trail.len(),
        ),
        (
            "seq pipelined",
            pipe.converged,
            pipe.iterations,
            pipe.retier_trail.len(),
        ),
        (
            "thr classic",
            thr.converged,
            thr.iterations,
            thr.retier_trail.len(),
        ),
        (
            "thr pipelined",
            thp.converged,
            thp.iterations,
            thp.retier_trail.len(),
        ),
    ] {
        assert!(converged, "{label}");
        assert_eq!(iterations, 0, "{label}");
        assert_eq!(trail_len, 0, "{label}: decisions on a zero RHS");
    }
}
