//! **Ablation (Finding 3)**: the partial-convergence strategy (dynamic
//! lowering + bypass) on vs off, with tile-grained initial precision held
//! fixed, over the Fig. 11 matrix set. Reports both the modeled time and
//! the numerical cost (iterations to ε = 1e-10).

use mf_bench::{harness::paper_rhs, write_csv, Table};
use mf_collection::{fig11_names, named_matrix, SolverKind};
use mf_gpu::DeviceSpec;
use mf_solver::{Method, MilleFeuille, SolveSpec, SolverConfig};
use rayon::prelude::*;

fn main() {
    println!("Ablation — partial-convergence strategy on/off (A100, converge to 1e-10)\n");
    println!(
        "{:<16} | {:>8} {:>8} | {:>11} {:>11} | {:>7} | {:>6}",
        "matrix", "it(on)", "it(off)", "on µs", "off µs", "speedup", "byp%"
    );

    let rows: Vec<Option<Vec<String>>> = fig11_names()
        .into_par_iter()
        .map(|name| {
            let m = named_matrix(name).expect("named proxy");
            let a = m.generate();
            let b = paper_rhs(&a);
            let run = |partial: bool| {
                let cfg = SolverConfig {
                    partial_convergence: partial,
                    ..SolverConfig::default()
                };
                let solver = MilleFeuille::new(DeviceSpec::a100(), cfg);
                match m.kind {
                    SolverKind::Cg => solver.solve(&a, &b, &SolveSpec::new(Method::Cg)).unwrap(),
                    SolverKind::Bicgstab => solver
                        .solve(&a, &b, &SolveSpec::new(Method::BiCgStab))
                        .unwrap(),
                }
            };
            let on = run(true);
            let off = run(false);
            if !on.converged || !off.converged {
                return None; // only converged pairs are comparable
            }
            let speedup = off.solve_us() / on.solve_us();
            println!(
                "{:<16} | {:>8} {:>8} | {:>11.1} {:>11.1} | {:>6.2}x | {:>5.1}",
                name,
                on.iterations,
                off.iterations,
                on.solve_us(),
                off.solve_us(),
                speedup,
                100.0 * on.bypass_fraction()
            );
            Some(vec![
                name.to_string(),
                on.iterations.to_string(),
                off.iterations.to_string(),
                format!("{:.3}", on.solve_us()),
                format!("{:.3}", off.solve_us()),
                format!("{speedup:.4}"),
                format!("{:.2}", 100.0 * on.bypass_fraction()),
            ])
        })
        .collect();

    let mut table = Table::new(vec![
        "name",
        "iters_on",
        "iters_off",
        "on_us",
        "off_us",
        "speedup",
        "bypass_pct",
    ]);
    let mut speedups = Vec::new();
    for r in rows.into_iter().flatten() {
        speedups.push(r[5].parse::<f64>().unwrap());
        table.row(r);
    }
    let s = mf_bench::summarize(&speedups);
    println!(
        "\nconverged pairs: {}; partial-convergence speedup geomean {:.3}x, max {:.2}x",
        s.count, s.geomean, s.max
    );
    let path = write_csv("ablation_partial", &table).unwrap();
    println!("csv -> {}", path.display());
}
