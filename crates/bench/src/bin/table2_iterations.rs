//! **Table II**: iteration counts and solve times of the 14 matrices that
//! converge within 200 iterations — FP64 cuSPARSE baseline vs the
//! mixed-precision Mille-feuille.
//!
//! Paper reference: mixed precision costs on average 1.06× (up to 1.47×)
//! more iterations, yet every solve is faster thanks to the single-kernel
//! scheme and the cheaper tiles (e.g. mesh3e1: 53 vs 36 iterations but
//! 2.89× faster; pores_1: same 43 iterations, 5.83× faster).

use mf_baselines::Baseline;
use mf_bench::{barriers_per_iter, harness::paper_rhs, metric_cell, write_csv, Table};
use mf_collection::{named_matrix, table2_names};
use mf_gpu::DeviceSpec;
use mf_solver::{Method, MilleFeuille, SolveSpec, SolverConfig};

fn main() {
    println!("Table II — iterations and solve time, converged runs (ε = 1e-10)\n");
    let (cg_names, bi_names) = table2_names();
    let mut table = Table::new(vec![
        "method",
        "matrix",
        "base_iters",
        "base_ms",
        "mf_iters",
        "mf_ms",
        "iter_ratio",
        "time_speedup",
        "mf_status",
        "barriers_iter",
    ]);

    println!(
        "{:<8} {:<16} | {:>10} {:>10} | {:>8} {:>8} | {:>6} {:>8} | status  b/iter",
        "method", "matrix", "base iter", "base ms", "mf iter", "mf ms", "iterx", "speedup"
    );

    let mut iter_ratios = Vec::new();
    let mut run = |method: &str, name: &str| {
        let m = named_matrix(name).expect("named proxy");
        let a = m.generate();
        let b = paper_rhs(&a);
        let cfg = SolverConfig::default();
        let solver = MilleFeuille::new(DeviceSpec::a100(), cfg.clone());
        let base = Baseline::cusparse();
        let (mf, bl) = if method == "CG" {
            (
                solver.solve(&a, &b, &SolveSpec::new(Method::Cg)).unwrap(),
                base.solve_cg(&a, &b, &cfg),
            )
        } else {
            (
                solver
                    .solve(&a, &b, &SolveSpec::new(Method::BiCgStab))
                    .unwrap(),
                base.solve_bicgstab(&a, &b, &cfg),
            )
        };
        let ratio = mf.iterations as f64 / bl.iterations.max(1) as f64;
        let speedup = bl.solve_us() / mf.solve_us();
        let status = mf.status_label();
        // Tracing is off here, and the sequential model cores record no
        // barrier epochs anyway, so this renders `-`; the fig_pipeline
        // bench's threaded runs are where the column carries numbers.
        let barriers = metric_cell(barriers_per_iter(mf.trace.as_ref()));
        iter_ratios.push(ratio);
        println!(
            "{:<8} {:<16} | {:>10} {:>10.3} | {:>8} {:>8.3} | {:>5.2}x {:>7.2}x | {}  {}{}",
            method,
            name,
            bl.iterations,
            bl.solve_us() / 1e3,
            mf.iterations,
            mf.solve_us() / 1e3,
            ratio,
            speedup,
            status,
            barriers,
            if bl.converged { "" } else { "  [base !conv]" },
        );
        table.row(vec![
            method.to_string(),
            name.to_string(),
            bl.iterations.to_string(),
            format!("{:.4}", bl.solve_us() / 1e3),
            mf.iterations.to_string(),
            format!("{:.4}", mf.solve_us() / 1e3),
            format!("{ratio:.3}"),
            format!("{speedup:.3}"),
            status,
            barriers,
        ]);
    };

    for name in cg_names {
        run("CG", name);
    }
    for name in bi_names {
        run("BiCGSTAB", name);
    }

    let mean = iter_ratios.iter().sum::<f64>() / iter_ratios.len() as f64;
    let max = iter_ratios.iter().copied().fold(0.0, f64::max);
    println!(
        "\nmixed-precision iteration overhead: mean {mean:.2}x, max {max:.2}x (paper: 1.06x mean, 1.47x max)"
    );
    let path = write_csv("table2_iterations", &table).unwrap();
    println!("csv -> {}", path.display());
}
