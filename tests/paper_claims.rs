//! Integration tests pinning the paper's qualitative claims to the model —
//! these are the regression guards for the calibration recorded in
//! EXPERIMENTS.md.

use mille_feuille::baselines::Baseline;
use mille_feuille::collection::{self as gen, cg_suite, SuiteOptions, ValueClass};
use mille_feuille::gpu::Phase;
use mille_feuille::prelude::*;

fn rhs(a: &Csr) -> Vec<f64> {
    let mut b = vec![0.0; a.nrows];
    a.matvec(&vec![1.0; a.ncols], &mut b);
    b
}

fn bench_cfg() -> SolverConfig {
    SolverConfig {
        fixed_iterations: Some(100),
        ..SolverConfig::default()
    }
}

/// Finding 2 / Fig. 8: Mille-feuille beats the vendor baseline on every
/// matrix of a small sweep, with geomean speedup in the paper's band.
#[test]
fn headline_speedup_band() {
    let opts = SuiteOptions {
        count: 18,
        max_nnz: 60_000,
        seed: 99,
    };
    let mut speedups = Vec::new();
    for e in cg_suite(&opts) {
        let a = e.generate();
        let b = rhs(&a);
        let mf = MilleFeuille::new(DeviceSpec::a100(), bench_cfg())
            .solve(&a, &b, &SolveSpec::new(Method::Cg))
            .unwrap();
        let base = Baseline::cusparse().solve_cg(&a, &b, &bench_cfg());
        let s = base.solve_us() / mf.solve_us();
        assert!(
            s >= 1.0,
            "{}: Mille-feuille must never lose ({s:.3}x)",
            e.name
        );
        speedups.push(s.ln());
    }
    let geomean = (speedups.iter().sum::<f64>() / speedups.len() as f64).exp();
    assert!(
        (1.8..=8.0).contains(&geomean),
        "CG geomean speedup {geomean:.2} outside the plausible band (paper: 3.03)"
    );
}

/// Fig. 2: the multi-kernel baseline spends >30% of its time synchronizing.
#[test]
fn baseline_sync_share_over_30_percent() {
    let a = gen::poisson2d(60, 60);
    let b = rhs(&a);
    let rep = Baseline::cusparse().solve_cg(&a, &b, &bench_cfg());
    assert!(
        rep.timeline.sync_fraction() > 0.3,
        "sync share {}",
        rep.timeline.sync_fraction()
    );
}

/// Finding 2's inverse: the single-kernel scheme pays exactly one launch.
#[test]
fn single_kernel_launches_once() {
    let a = gen::poisson2d(30, 30);
    let b = rhs(&a);
    let cfg = SolverConfig {
        kernel_mode: KernelMode::SingleKernel,
        fixed_iterations: Some(50),
        ..SolverConfig::default()
    };
    let rep = MilleFeuille::new(DeviceSpec::a100(), cfg)
        .solve(&a, &b, &SolveSpec::new(Method::Cg))
        .unwrap();
    // Preprocess adds 2 modeled launches; the solve itself adds 1.
    let launch = DeviceSpec::a100().kernel_launch_us;
    assert!(
        (rep.timeline.get(Phase::Sync) - 3.0 * launch).abs() < 1e-9,
        "expected exactly 3 launches, got {} µs of sync",
        rep.timeline.get(Phase::Sync)
    );
    assert!(
        rep.timeline.get(Phase::Wait) > 0.0,
        "busy-wait must be charged"
    );
}

/// §III-C: the solver falls back to multi-kernel past ~1e6 nonzeros.
#[test]
fn auto_mode_crossover() {
    let small = gen::poisson2d(50, 50);
    let solver = MilleFeuille::with_defaults(DeviceSpec::a100());
    assert_eq!(
        solver.decide_mode(&TiledMatrix::from_csr(&small)),
        ExecutedMode::SingleKernel
    );
    let big = gen::tridiag(400_000, 4.0, -1.0);
    assert!(big.nnz() > 1_000_000);
    assert_eq!(
        solver.decide_mode(&TiledMatrix::from_csr(&big)),
        ExecutedMode::MultiKernel
    );
}

/// Table II: mixed precision may cost extra iterations but bounded (~1.5x),
/// and the solve must still beat the baseline in time.
#[test]
fn mixed_precision_iteration_overhead_bounded() {
    let cases: Vec<Csr> = vec![
        gen::poisson2d(20, 20),
        gen::banded_spd(600, 3, ValueClass::Real, 11),
        gen::random_spd(400, 5, ValueClass::Real, 12),
    ];
    for a in cases {
        let b = rhs(&a);
        let mf = MilleFeuille::with_defaults(DeviceSpec::a100())
            .solve(&a, &b, &SolveSpec::new(Method::Cg))
            .unwrap();
        let base = Baseline::cusparse().solve_cg(&a, &b, &SolverConfig::default());
        assert!(mf.converged && base.converged);
        let ratio = mf.iterations as f64 / base.iterations as f64;
        assert!(ratio <= 1.6, "iteration blow-up {ratio}");
        assert!(
            mf.solve_us() < base.solve_us(),
            "despite {} vs {} iterations, time must win",
            mf.iterations,
            base.iterations
        );
    }
}

/// Fig. 13: tiled memory stays within ~2.3x of CSR and often below it.
#[test]
fn memory_ratio_band() {
    let cases: Vec<Csr> = vec![
        gen::poisson2d(40, 40),
        gen::mass_matrix(900, ValueClass::Real, 3),
        gen::random_nonsym(800, 5, ValueClass::Real, 4),
        gen::circuit_like(60, 8, 300, 0.1, 5),
    ];
    for a in cases {
        let t = TiledMatrix::from_csr(&a);
        let ratio = t.memory_bytes().total() as f64 / a.memory_bytes() as f64;
        assert!(
            (0.2..=2.4).contains(&ratio),
            "ratio {ratio} out of band for n={}",
            a.nrows
        );
    }
}

/// Fig. 14: preprocessing costs no more than a few iterations.
#[test]
fn preprocessing_is_cheap() {
    let a = gen::poisson2d(80, 80);
    let b = rhs(&a);
    let rep = MilleFeuille::new(DeviceSpec::a100(), bench_cfg())
        .solve(&a, &b, &SolveSpec::new(Method::Cg))
        .unwrap();
    let per_iter = rep.solve_us() / 100.0;
    let preprocess = rep.timeline.get(Phase::Preprocess);
    assert!(
        preprocess <= 3.0 * per_iter,
        "preprocess {preprocess} vs per-iteration {per_iter}"
    );
}

/// Finding 3: on a system with early-converging components, the bypass
/// fires and does not break convergence.
#[test]
fn partial_convergence_bypasses_and_converges() {
    let a = gen::decoupled_blocks_with(30, 64, 0.3, 2.0, 21);
    let b = rhs(&a);
    let rep = MilleFeuille::with_defaults(DeviceSpec::a100())
        .solve(&a, &b, &SolveSpec::new(Method::Cg))
        .unwrap();
    assert!(rep.converged, "relres {}", rep.final_relres);
    assert!(
        rep.spmv_stats.nnz_bypassed > 0,
        "bypass should fire: {:?}",
        rep.spmv_stats
    );
    // The solution is still right (b = A·1).
    for v in &rep.x {
        assert!((v - 1.0).abs() < 1e-6);
    }
}

/// Fig. 1: the precision classification of the three example matrices has
/// the documented character.
#[test]
fn fig1_precision_characters() {
    use mille_feuille::precision::{classification_histogram, ClassifyOptions};
    let opts = ClassifyOptions::default();
    let garon2 = mille_feuille::collection::named_matrix("garon2")
        .unwrap()
        .generate();
    let h = classification_histogram(&garon2.vals, &opts);
    assert!(
        h[2] + h[3] > garon2.nnz() * 9 / 10,
        "garon2 low-precision: {h:?}"
    );

    let asic = mille_feuille::collection::named_matrix("ASIC_320k")
        .unwrap()
        .generate();
    let h = classification_histogram(&asic.vals, &opts);
    assert!(h[3] > asic.nnz() / 2, "ASIC FP8 majority: {h:?}");
    assert!(
        h[0] > asic.nnz() / 20,
        "ASIC FP64 hub-connection share: {h:?}"
    );
}

/// PETSc/Ginkgo/cuSPARSE ordering (Fig. 9): on the same matrix, the modeled
/// baseline times order PETSc > Ginkgo > cuSPARSE.
#[test]
fn library_overhead_ordering() {
    let a = gen::poisson2d(30, 30);
    let b = rhs(&a);
    let cu = Baseline::cusparse()
        .solve_cg(&a, &b, &bench_cfg())
        .solve_us();
    let gk = Baseline::ginkgo().solve_cg(&a, &b, &bench_cfg()).solve_us();
    let pe = Baseline::petsc().solve_cg(&a, &b, &bench_cfg()).solve_us();
    assert!(pe > gk && gk > cu, "petsc {pe}, ginkgo {gk}, cusparse {cu}");
}
