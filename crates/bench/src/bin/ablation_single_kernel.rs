//! **Ablation (Finding 2)**: single-kernel vs multi-kernel execution of the
//! *same* Mille-feuille numerics across a nonzero sweep — exposes the
//! crossover that motivates the paper's fallback threshold (§III-C; the
//! 10⁶-nnz mark on the Figs. 8–9 x-axes).

use mf_bench::{harness::paper_rhs, iters_from_env, write_csv, Table};
use mf_collection::poisson2d;
use mf_gpu::DeviceSpec;
use mf_solver::{KernelMode, Method, MilleFeuille, SolveSpec, SolverConfig};

fn main() {
    let iters = iters_from_env();
    println!("Ablation — single-kernel vs multi-kernel CG, {iters} iterations (A100)\n");
    println!(
        "{:>9} {:>9} | {:>12} {:>12} | {:>9} | {:>6}",
        "n", "nnz", "single µs", "multi µs", "single/multi", "auto"
    );

    let mut table = Table::new(vec![
        "n",
        "nnz",
        "single_us",
        "multi_us",
        "ratio",
        "auto_mode",
    ]);
    for grid in [8usize, 16, 32, 64, 96, 128, 192, 256, 384, 512, 640] {
        let a = poisson2d(grid, grid);
        let b = paper_rhs(&a);
        let run = |mode: KernelMode| {
            let cfg = SolverConfig {
                fixed_iterations: Some(iters),
                kernel_mode: mode,
                ..SolverConfig::default()
            };
            MilleFeuille::new(DeviceSpec::a100(), cfg)
                .solve(&a, &b, &SolveSpec::new(Method::Cg))
                .unwrap()
        };
        let single = run(KernelMode::SingleKernel);
        let multi = run(KernelMode::MultiKernel);
        let auto = run(KernelMode::Auto);
        let ratio = single.solve_us() / multi.solve_us();
        println!(
            "{:>9} {:>9} | {:>12.1} {:>12.1} | {:>11.3} | {:?}",
            a.nrows,
            a.nnz(),
            single.solve_us(),
            multi.solve_us(),
            ratio,
            auto.mode
        );
        table.row(vec![
            a.nrows.to_string(),
            a.nnz().to_string(),
            format!("{:.3}", single.solve_us()),
            format!("{:.3}", multi.solve_us()),
            format!("{ratio:.4}"),
            format!("{:?}", auto.mode),
        ]);
    }
    let path = write_csv("ablation_single_kernel", &table).unwrap();
    println!("\ncsv -> {}", path.display());
    println!(
        "Expectation: ratio << 1 for small matrices (launch overhead dominates\n\
         the multi-kernel path) and approaching / exceeding 1 near the shared-\n\
         memory capacity, where Auto flips to MultiKernel."
    );
}
