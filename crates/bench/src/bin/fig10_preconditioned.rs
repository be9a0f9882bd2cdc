//! **Figure 10**: ILU(0)-preconditioned CG and BiCGSTAB vs the vendor
//! baselines on both devices, 100 iterations.
//!
//! Mille-feuille's preconditioner application is modeled as the
//! recursive-block SpTRSV (ref. \[41\]); the baselines are modeled as
//! level-scheduled SpSV (cusparseSpSV-style), which is what drives the large
//! speedups on banded/blocky matrices.
//!
//! Paper reference numbers (geometric mean, max):
//!   PCG:       3.82× / 40.38× (A100)   3.47× / 47.75× (MI210)
//!   PBiCGSTAB: 1.79× / 45.63× (A100)   1.63× / 44.34× (MI210)
//!
//! Exits non-zero when a baseline row ran fewer iterations than the fixed
//! budget: a baseline that stops short is charged less time, and its
//! speedup is not comparable.

use mf_baselines::Baseline;
use mf_bench::{
    bicgstab_entries, cg_entries, compare_pbicgstab, compare_pcg, iters_from_env, summarize,
    write_csv, CompareRow, Table,
};
use mf_gpu::DeviceSpec;

/// Prints and writes one comparison; returns how many baseline rows ran
/// fewer than `iters` iterations.
fn emit(label: &str, rows: &[CompareRow], iters: usize, paper_geo: f64, paper_max: f64) -> usize {
    let speedups: Vec<f64> = rows.iter().map(|r| r.speedup).collect();
    let s = summarize(&speedups);
    println!(
        "{label:<26} {:>4} matrices  geomean {:.2}x (paper {paper_geo:.2}x)  max {:.2}x (paper {paper_max:.2}x)",
        s.count, s.geomean, s.max
    );
    let mut sorted: Vec<&CompareRow> = rows.iter().collect();
    sorted.sort_by(|a, b| b.speedup.total_cmp(&a.speedup));
    for r in sorted.iter().take(4) {
        println!("    {:<22} nnz={:<9} {:.2}x", r.name, r.nnz, r.speedup);
    }
    // A baseline that stops short of the budget is charged less time.
    let base_iters: Vec<String> = rows.iter().map(|r| r.base_iters.to_string()).collect();
    println!("    baseline iterations: {}", base_iters.join(" "));
    let mut table = Table::new(vec![
        "name",
        "n",
        "nnz",
        "mf_us",
        "base_us",
        "speedup",
        "base_iters",
    ]);
    for r in rows {
        table.row(vec![
            r.name.clone(),
            r.n.to_string(),
            r.nnz.to_string(),
            format!("{:.3}", r.mf_us),
            format!("{:.3}", r.base_us),
            format!("{:.4}", r.speedup),
            r.base_iters.to_string(),
        ]);
    }
    let csv = label.to_lowercase().replace([' ', '/'], "_");
    let path = write_csv(&format!("fig10_{csv}"), &table).unwrap();
    println!("    csv -> {}\n", path.display());
    rows.iter().filter(|r| r.base_iters < iters).count()
}

fn main() {
    let iters = iters_from_env();
    // The SpTRSV level analysis and ILU make the preconditioned sweep the
    // slowest experiment; the population is capped separately.
    let cap: usize = std::env::var("MF_PRECOND_COUNT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(40);
    let cg: Vec<_> = cg_entries().into_iter().take(cap).collect();
    let bi: Vec<_> = bicgstab_entries().into_iter().take(cap).collect();
    println!(
        "Figure 10 — preconditioned solvers vs vendor baselines, {iters} iterations, {}+{} matrices\n",
        cg.len(),
        bi.len()
    );
    let a100 = DeviceSpec::a100();
    let mi210 = DeviceSpec::mi210();

    let short = emit(
        "PCG vs cuSPARSE A100",
        &compare_pcg(&cg, &a100, &Baseline::cusparse(), iters),
        iters,
        3.82,
        40.38,
    ) + emit(
        "PCG vs hipSPARSE MI210",
        &compare_pcg(&cg, &mi210, &Baseline::hipsparse(), iters),
        iters,
        3.47,
        47.75,
    ) + emit(
        "PBiCGSTAB vs cuSPARSE A100",
        &compare_pbicgstab(&bi, &a100, &Baseline::cusparse(), iters),
        iters,
        1.79,
        45.63,
    ) + emit(
        "PBiCGSTAB vs hipSPARSE MI210",
        &compare_pbicgstab(&bi, &mi210, &Baseline::hipsparse(), iters),
        iters,
        1.63,
        44.34,
    );
    if short > 0 {
        eprintln!("fig10: {short} baseline rows ran fewer than the {iters}-iteration budget");
        std::process::exit(1);
    }
}
