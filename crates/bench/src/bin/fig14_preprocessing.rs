//! **Figure 14**: preprocessing overhead (format conversion + task
//! distribution + initial precision assignment) as a proportion of the
//! total runtime of 100 solver iterations.
//!
//! Paper reference: preprocessing rarely exceeds the cost of a single CG
//! iteration and is a negligible share of a 100-iteration solve.

use mf_bench::{
    bicgstab_entries, cg_entries, harness::paper_rhs, iters_from_env, write_csv, Table,
};
use mf_collection::{SolverKind, SuiteEntry};
use mf_gpu::{DeviceSpec, Phase};
use mf_solver::{Method, MilleFeuille, SolveSpec, SolverConfig};
use rayon::prelude::*;

struct Row {
    name: String,
    nnz: usize,
    preprocess_us: f64,
    total_us: f64,
    per_iter_us: f64,
}

fn measure(entries: &[SuiteEntry], kind: SolverKind, iters: usize) -> Vec<Row> {
    entries
        .par_iter()
        .map(|e| {
            let a = e.generate();
            let b = paper_rhs(&a);
            let cfg = SolverConfig {
                fixed_iterations: Some(iters),
                ..SolverConfig::default()
            };
            let solver = MilleFeuille::new(DeviceSpec::a100(), cfg);
            let rep = match kind {
                SolverKind::Cg => solver.solve(&a, &b, &SolveSpec::new(Method::Cg)).unwrap(),
                SolverKind::Bicgstab => solver
                    .solve(&a, &b, &SolveSpec::new(Method::BiCgStab))
                    .unwrap(),
            };
            let preprocess_us = rep.timeline.get(Phase::Preprocess);
            Row {
                name: e.name.clone(),
                nnz: a.nnz(),
                preprocess_us,
                total_us: rep.total_us(),
                per_iter_us: rep.solve_us() / iters.max(1) as f64,
            }
        })
        .collect()
}

fn emit(label: &str, rows: &[Row], table: &mut Table) {
    let fracs: Vec<f64> = rows.iter().map(|r| r.preprocess_us / r.total_us).collect();
    let mean = 100.0 * fracs.iter().sum::<f64>() / fracs.len() as f64;
    let max = 100.0 * fracs.iter().copied().fold(0.0, f64::max);
    let under_one_iter = rows
        .iter()
        .filter(|r| r.preprocess_us <= r.per_iter_us)
        .count();
    println!(
        "{label}: mean preprocessing share {mean:.2}% of total (max {max:.2}%); \
         {under_one_iter}/{} matrices preprocess in <= one iteration",
        rows.len()
    );
    for r in rows {
        table.row(vec![
            label.to_string(),
            r.name.clone(),
            r.nnz.to_string(),
            format!("{:.3}", r.preprocess_us),
            format!("{:.3}", r.per_iter_us),
            format!("{:.3}", r.total_us),
            format!("{:.4}", r.preprocess_us / r.total_us),
        ]);
    }
}

fn main() {
    let iters = iters_from_env();
    println!("Figure 14 — preprocessing share of {iters}-iteration solves (A100)\n");
    let mut table = Table::new(vec![
        "method",
        "name",
        "nnz",
        "preprocess_us",
        "per_iter_us",
        "total_us",
        "fraction",
    ]);
    let cg = measure(&cg_entries(), SolverKind::Cg, iters);
    emit("CG", &cg, &mut table);
    let bi = measure(&bicgstab_entries(), SolverKind::Bicgstab, iters);
    emit("BiCGSTAB", &bi, &mut table);
    let path = write_csv("fig14_preprocessing", &table).unwrap();
    println!("\ncsv -> {}", path.display());
}
