//! **Ablation (Finding 1)**: tile-grained initial precision vs the two
//! coarser alternatives §II-A discusses — whole-matrix *uniform* precision
//! (the narrowest type that is lossless for **every** nonzero) and plain
//! FP64.
//!
//! Tile-grained storage wins whenever precision demand is spatially mixed:
//! one FP64-requiring nonzero forces the *whole matrix* wide under uniform
//! storage, but only its own 16×16 tile under tile-grained storage. On
//! matrices whose values classify uniformly (all-FP8 stencils), the two
//! granularities tie — which this ablation also shows.

use mf_bench::{harness::paper_rhs, iters_from_env, write_csv, Table};
use mf_collection::{fig11_names, named_matrix, SolverKind};
use mf_gpu::DeviceSpec;
use mf_precision::{classify_group, ClassifyOptions, Precision};
use mf_solver::{Method, MilleFeuille, SolveSpec, SolverConfig};
use rayon::prelude::*;

fn main() {
    let iters = iters_from_env();
    println!("Ablation — precision granularity (A100, {iters} iterations)\n");
    println!(
        "{:<16} {:>9} | {:>9} | {:>11} {:>11} {:>11} | {:>7} {:>7}",
        "matrix", "nnz", "uniform", "tiled µs", "uniform µs", "fp64 µs", "vs unif", "vs fp64"
    );

    let rows: Vec<Vec<String>> = fig11_names()
        .into_par_iter()
        .map(|name| {
            let m = named_matrix(name).expect("named proxy");
            let a = m.generate();
            let b = paper_rhs(&a);
            // The matrix-grained precision: what one uniform storage type
            // would have to be for lossless storage of every nonzero.
            let uniform = classify_group(&a.vals, &ClassifyOptions::default());

            let run = |cfg: SolverConfig| {
                let solver = MilleFeuille::new(DeviceSpec::a100(), cfg);
                match m.kind {
                    SolverKind::Cg => solver.solve(&a, &b, &SolveSpec::new(Method::Cg)).unwrap(),
                    SolverKind::Bicgstab => solver.solve(&a, &b, &SolveSpec::new(Method::BiCgStab)).unwrap(),
                }
            };
            // Multi-kernel mode: SpMV streams the stored values every
            // iteration, so storage precision directly scales the bandwidth
            // term (in single-kernel mode the resident tiles hide it — the
            // granularity there shows up as shared-memory capacity and
            // footprint instead, which the memory column reports).
            let base_cfg = SolverConfig {
                fixed_iterations: Some(iters),
                partial_convergence: false, // isolate the storage effect
                kernel_mode: mf_solver::KernelMode::MultiKernel,
                ..SolverConfig::default()
            };
            let tiled = run(base_cfg.clone());
            let unif = run(SolverConfig {
                uniform_precision: Some(uniform),
                ..base_cfg.clone()
            });
            let fp64 = run(SolverConfig {
                uniform_precision: Some(Precision::Fp64),
                ..base_cfg
            });

            let mem_ratio =
                unif.tiled_memory.total() as f64 / tiled.tiled_memory.total() as f64;
            println!(
                "{:<16} {:>9} | {:>9} | {:>11.1} {:>11.1} {:>11.1} | {:>6.2}x {:>6.2}x | mem unif/tiled {:>5.2}x",
                name,
                a.nnz(),
                uniform.to_string(),
                tiled.solve_us(),
                unif.solve_us(),
                fp64.solve_us(),
                unif.solve_us() / tiled.solve_us(),
                fp64.solve_us() / tiled.solve_us(),
                mem_ratio,
            );
            vec![
                name.to_string(),
                a.nnz().to_string(),
                uniform.to_string(),
                format!("{:.3}", tiled.solve_us()),
                format!("{:.3}", unif.solve_us()),
                format!("{:.3}", fp64.solve_us()),
                format!("{mem_ratio:.4}"),
            ]
        })
        .collect();

    let mut table = Table::new(vec![
        "name",
        "nnz",
        "uniform_precision",
        "tiled_us",
        "uniform_us",
        "fp64_us",
        "mem_uniform_over_tiled",
    ]);
    for r in rows {
        table.row(r);
    }
    let path = write_csv("ablation_granularity", &table).unwrap();
    println!("\ncsv -> {}", path.display());
    println!(
        "Expectation: tiled == uniform on uniformly-classifying matrices;\n\
         tiled beats uniform wherever one wide value would force the whole\n\
         matrix to FP64 (circuit/semiconductor classes)."
    );
}
