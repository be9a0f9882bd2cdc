//! Circuit transient simulation: repeated BiCGSTAB solves against the same
//! circuit matrix with a time-varying right-hand side — the workload class
//! (`ASIC_320k`, `rajat24`) the paper's introduction motivates.
//!
//! Circuit matrices mix small-integer device stamps (FP8-classifiable
//! blocks) with wide-dynamic-range interconnect entries (FP64) — exactly
//! the precision structure Fig. 1 shows — and the factorization is reused
//! across time steps for the preconditioned variant.
//!
//! ```text
//! cargo run --release --example circuit_transient
//! ```

use mille_feuille::collection::{circuit_like_with, ValueClass};
use mille_feuille::kernels::ilu0;
use mille_feuille::prelude::*;

fn main() {
    // A 4000-node circuit: 500 blocks of 8 nodes plus 2000 hub interconnects.
    // Hub values span ~5 decades (WideModerate): stiff but solvable to the
    // 1e-10 tolerance — the full post-layout range sits below BiCGSTAB's
    // attainable-accuracy floor (see EXPERIMENTS.md).
    let a = circuit_like_with(500, 8, 2_000, 0.04, ValueClass::WideModerate, 42);
    println!(
        "circuit matrix: n = {}, nnz = {} ({} tiles)",
        a.nrows,
        a.nnz(),
        TiledMatrix::from_csr(&a).tile_count()
    );
    let hist = TiledMatrix::from_csr(&a).tile_precision_histogram();
    println!(
        "tile precisions: FP64 {}  FP32 {}  FP16 {}  FP8 {}\n",
        hist[0], hist[1], hist[2], hist[3]
    );

    let solver = MilleFeuille::with_defaults(DeviceSpec::a100());
    let ilu = ilu0(&a).expect("circuit matrices are diagonally dominated");

    // Time-stepped excitation: the source vector swings each step.
    let n = a.nrows;
    let steps = 8;
    let mut total_mf = 0.0;
    let mut total_pre = 0.0;
    let mut x_prev = vec![0.0; n];
    println!("step | BiCGSTAB iters     µs | PBiCGSTAB iters     µs | Δx");
    for step in 0..steps {
        let t = step as f64 / steps as f64;
        let b: Vec<f64> = (0..n)
            .map(|i| (1.0 + (2.0 * std::f64::consts::PI * t).sin()) * ((i % 7) as f64 - 3.0))
            .collect();

        let rep = solver
            .solve(&a, &b, &SolveSpec::new(Method::BiCgStab))
            .expect("every method runs on the sequential engine");
        assert!(rep.converged, "step {step} must converge");
        total_mf += rep.solve_us();

        let pre = solver
            .solve(
                &a,
                &b,
                &SolveSpec::new(Method::PBiCgStab).with_factors(Precond::Ilu0(&ilu)),
            )
            .expect("every method runs on the sequential engine");
        assert!(pre.converged);
        total_pre += pre.solve_us();

        let dx = rep
            .x
            .iter()
            .zip(&x_prev)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        x_prev = rep.x.clone();
        println!(
            "{step:>4} | {:>14} {:>6.1} | {:>15} {:>6.1} | {dx:.3e}",
            rep.iterations,
            rep.solve_us(),
            pre.iterations,
            pre.solve_us()
        );
    }
    println!(
        "\ntotal modeled time over {steps} steps: {total_mf:.1} µs unpreconditioned, \
         {total_pre:.1} µs preconditioned (ILU(0) reused across steps)"
    );
}
