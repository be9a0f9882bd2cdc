//! Quickstart: build a sparse SPD system, solve it with Mille-feuille, and
//! inspect what the solver did.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use mille_feuille::prelude::*;

fn main() {
    // A 2-D Poisson problem on a 96×96 grid — the classic SPD test system.
    // Its stencil values (4 / −1) are exactly representable in FP8, so the
    // classifier will store every tile in one byte per nonzero.
    let a = mille_feuille::collection::poisson2d(96, 96);
    let mut b = vec![0.0; a.nrows];
    a.matvec(&vec![1.0; a.ncols], &mut b); // b = A·1 like the paper (§IV-A)

    // Solve on the modeled NVIDIA A100 with the paper's defaults:
    // tile-grained mixed precision, single-kernel execution, and the
    // partial-convergence strategy all enabled.
    let solver = MilleFeuille::with_defaults(DeviceSpec::a100());
    let report = solver
        .solve(&a, &b, &SolveSpec::new(Method::Cg))
        .expect("every method runs on the sequential engine");

    println!("system:        n = {}, nnz = {}", a.nrows, a.nnz());
    println!(
        "converged:     {} ({} iterations)",
        report.converged, report.iterations
    );
    println!("rel. residual: {:.3e}", report.final_relres);
    println!(
        "mode:          {:?} with {} warps",
        report.mode, report.warp_count
    );
    println!(
        "modeled time:  {:.1} µs solve, {:.1} µs total",
        report.solve_us(),
        report.total_us()
    );
    println!("breakdown:     {}", report.timeline);
    println!(
        "precision:     {:.1}% of SpMV work below FP64, {:.1}% bypassed",
        100.0 * report.low_precision_fraction(),
        100.0 * report.bypass_fraction()
    );
    let mem = report.tiled_memory;
    println!(
        "memory:        tiled {} B vs CSR {} B (ratio {:.3})",
        mem.total(),
        report.csr_memory,
        mem.total() as f64 / report.csr_memory as f64
    );

    // Verify against the exact solution (b = A·1 ⇒ x = 1).
    let worst = report
        .x
        .iter()
        .map(|v| (v - 1.0).abs())
        .fold(0.0f64, f64::max);
    println!("max |x - 1|:   {worst:.3e}");
    assert!(report.converged && worst < 1e-6);

    // Compare with the cuSPARSE-style FP64 multi-kernel baseline.
    let base = Baseline::cusparse().solve_cg(&a, &b, &SolverConfig::default());
    println!(
        "\nbaseline:      {} iterations, {:.1} µs -> Mille-feuille speedup {:.2}x",
        base.iterations,
        base.solve_us(),
        base.solve_us() / report.solve_us()
    );
}
