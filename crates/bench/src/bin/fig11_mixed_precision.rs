//! **Figure 11**: per-tile precision distribution of 24 representative
//! matrices, and the speedup of mixed precision (tile-grained + dynamic
//! lowering/bypass) over an FP64-only configuration of the same solver.
//!
//! Paper reference: high-bypass matrices (`shallow_water1`, `rajat24`) gain
//! the most; small matrices with high low-precision ratios (`thermal`,
//! `wang1`) gain little extra because the single-kernel scheme already
//! dominates their runtime.

use mf_bench::{harness::paper_rhs, iters_from_env, write_csv, Table};
use mf_collection::{fig11_names, named_matrix, SolverKind};
use mf_gpu::DeviceSpec;
use mf_solver::{Method, MilleFeuille, SolveSpec, SolverConfig};
use rayon::prelude::*;

struct Row {
    name: &'static str,
    nnz: usize,
    tile_hist: [usize; 4],
    bypass_frac: f64,
    low_frac: f64,
    fp64_us: f64,
    mixed_us: f64,
}

fn main() {
    let iters = iters_from_env();
    println!("Figure 11 — precision distribution and mixed-precision gains ({iters} iterations)\n");

    let rows: Vec<Row> = fig11_names()
        .into_par_iter()
        .map(|name| {
            let m = named_matrix(name).expect("named proxy");
            let a = m.generate();
            let b = paper_rhs(&a);
            let device = DeviceSpec::a100();

            let mixed_cfg = SolverConfig {
                fixed_iterations: Some(iters),
                ..SolverConfig::default()
            };
            let fp64_cfg = SolverConfig {
                fixed_iterations: Some(iters),
                ..SolverConfig::fp64_only()
            };
            let run = |cfg: SolverConfig| {
                let solver = MilleFeuille::new(device.clone(), cfg);
                match m.kind {
                    SolverKind::Cg => solver.solve(&a, &b, &SolveSpec::new(Method::Cg)).unwrap(),
                    SolverKind::Bicgstab => solver
                        .solve(&a, &b, &SolveSpec::new(Method::BiCgStab))
                        .unwrap(),
                }
            };
            let mixed = run(mixed_cfg);
            let fp64 = run(fp64_cfg);
            let tiled = mf_sparse::TiledMatrix::from_csr(&a);
            Row {
                name,
                nnz: a.nnz(),
                tile_hist: tiled.tile_precision_histogram(),
                bypass_frac: mixed.bypass_fraction(),
                low_frac: mixed.low_precision_fraction(),
                fp64_us: fp64.solve_us(),
                mixed_us: mixed.solve_us(),
            }
        })
        .collect();

    let mut table = Table::new(vec![
        "name",
        "nnz",
        "tiles_fp64",
        "tiles_fp32",
        "tiles_fp16",
        "tiles_fp8",
        "low_prec_work%",
        "bypass_work%",
        "fp64_us",
        "mixed_us",
        "speedup",
    ]);
    println!(
        "{:<16} {:>9} | {:>6} {:>6} {:>6} {:>6} | {:>6} {:>6} | {:>8}",
        "matrix", "nnz", "t64", "t32", "t16", "t8", "low%", "byp%", "speedup"
    );
    let mut speedups = Vec::new();
    for r in &rows {
        let sp = r.fp64_us / r.mixed_us;
        speedups.push(sp);
        println!(
            "{:<16} {:>9} | {:>6} {:>6} {:>6} {:>6} | {:>5.1} {:>5.1} | {:>7.2}x",
            r.name,
            r.nnz,
            r.tile_hist[0],
            r.tile_hist[1],
            r.tile_hist[2],
            r.tile_hist[3],
            100.0 * r.low_frac,
            100.0 * r.bypass_frac,
            sp
        );
        table.row(vec![
            r.name.to_string(),
            r.nnz.to_string(),
            r.tile_hist[0].to_string(),
            r.tile_hist[1].to_string(),
            r.tile_hist[2].to_string(),
            r.tile_hist[3].to_string(),
            format!("{:.2}", 100.0 * r.low_frac),
            format!("{:.2}", 100.0 * r.bypass_frac),
            format!("{:.3}", r.fp64_us),
            format!("{:.3}", r.mixed_us),
            format!("{:.4}", sp),
        ]);
    }
    let s = mf_bench::summarize(&speedups);
    println!(
        "\nmixed-precision speedup over FP64-only: geomean {:.2}x, max {:.2}x",
        s.geomean, s.max
    );
    let path = write_csv("fig11_mixed_precision", &table).unwrap();
    println!("csv -> {}", path.display());
}
