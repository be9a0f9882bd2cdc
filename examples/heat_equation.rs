//! Steady-state heat conduction: a 3-D Poisson system solved with PCG, and
//! a small configuration study — mixed precision on/off, single- vs
//! multi-kernel, A100 vs MI210 — on one realistic workload.
//!
//! ```text
//! cargo run --release --example heat_equation
//! ```

use mille_feuille::collection::poisson3d;
use mille_feuille::prelude::*;

fn main() {
    // 3-D heat cube, 40³ unknowns, 7-point stencil.
    let a = poisson3d(40, 40, 40);
    let n = a.nrows;
    // Heat source in one corner octant.
    let b: Vec<f64> = (0..n).map(|i| if i < n / 8 { 1.0 } else { 0.0 }).collect();
    println!("heat system: n = {n}, nnz = {}\n", a.nnz());

    // --- Plain CG vs ILU(0)-preconditioned CG.
    let solver = MilleFeuille::with_defaults(DeviceSpec::a100());
    let cg = solver
        .solve(&a, &b, &SolveSpec::new(Method::Cg))
        .expect("every method runs on the sequential engine");
    let pcg = solver
        .solve(&a, &b, &SolveSpec::new(Method::Pcg(PrecondKind::Ilu0)))
        .expect("stencil ILU(0) cannot break down");
    println!(
        "CG : {:>4} iterations, {:>10.1} µs, relres {:.2e} [{:?}]",
        cg.iterations,
        cg.solve_us(),
        cg.final_relres,
        cg.mode
    );
    println!(
        "PCG: {:>4} iterations, {:>10.1} µs, relres {:.2e} (recursive-block SpTRSV)",
        pcg.iterations,
        pcg.solve_us(),
        pcg.final_relres
    );
    assert!(pcg.iterations < cg.iterations, "ILU(0) must cut iterations");

    // Solutions agree.
    let diff =
        cg.x.iter()
            .zip(&pcg.x)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
    println!("max |x_cg - x_pcg| = {diff:.2e}\n");

    // --- Configuration sweep on CG.
    println!(
        "{:<42} {:>6} {:>12} {:>10}",
        "configuration", "iters", "solve µs", "relres"
    );
    let configs: Vec<(&str, DeviceSpec, SolverConfig)> = vec![
        (
            "A100, mixed + partial (paper default)",
            DeviceSpec::a100(),
            SolverConfig::default(),
        ),
        (
            "A100, mixed, partial convergence off",
            DeviceSpec::a100(),
            SolverConfig {
                partial_convergence: false,
                ..SolverConfig::default()
            },
        ),
        (
            "A100, FP64 only",
            DeviceSpec::a100(),
            SolverConfig::fp64_only(),
        ),
        (
            "A100, forced multi-kernel",
            DeviceSpec::a100(),
            SolverConfig {
                kernel_mode: KernelMode::MultiKernel,
                ..SolverConfig::default()
            },
        ),
        (
            "MI210, mixed + partial",
            DeviceSpec::mi210(),
            SolverConfig::default(),
        ),
    ];
    for (label, device, cfg) in configs {
        let rep = MilleFeuille::new(device, cfg)
            .solve(&a, &b, &SolveSpec::new(Method::Cg))
            .expect("every method runs on the sequential engine");
        println!(
            "{label:<42} {:>6} {:>12.1} {:>10.2e}",
            rep.iterations,
            rep.solve_us(),
            rep.final_relres
        );
    }
}
