//! **Extension ablation**: the three preconditioners on SPD systems —
//! ILU(0) + recursive-block SpTRSV (the paper's §IV-C path), IC(0) + the
//! same SpTRSV (symmetric-factor extension), and adaptive-precision
//! block-Jacobi (fully parallel application, Anzt-style precision
//! selection). Converged solves at ε = 1e-10, plus plain CG for reference.

use mf_bench::{harness::paper_rhs, write_csv, Table};
use mf_collection::{named_matrix, SolverKind};
use mf_gpu::DeviceSpec;
use mf_solver::{Method, MilleFeuille, PrecondKind, SolveSpec};

fn main() {
    println!("Ablation — preconditioner comparison on SPD systems (A100, ε = 1e-10)\n");
    println!(
        "{:<16} | {:>9} | {:>6} {:>10} | {:>6} {:>10} | {:>6} {:>10} | {:>6} {:>10}",
        "matrix", "nnz", "cg-it", "cg µs", "ilu-it", "ilu µs", "ic-it", "ic µs", "bj-it", "bj µs"
    );
    let mut table = Table::new(vec![
        "name",
        "nnz",
        "cg_iters",
        "cg_us",
        "ilu_iters",
        "ilu_us",
        "ic_iters",
        "ic_us",
        "bj_iters",
        "bj_us",
        "bj_fp16_blocks",
    ]);

    let names = [
        "mesh3e1", "thermal", "LFAT5000", "Muu", "minsurfo", "crystm02",
    ];
    for name in names {
        let m = named_matrix(name).expect("named proxy");
        assert_eq!(m.kind, SolverKind::Cg, "{name} must be SPD");
        let a = m.generate();
        let b = paper_rhs(&a);
        let solver = MilleFeuille::with_defaults(DeviceSpec::a100());

        let cg = solver.solve(&a, &b, &SolveSpec::new(Method::Cg)).unwrap();
        let ilu = solver
            .solve(&a, &b, &SolveSpec::new(Method::Pcg(PrecondKind::Ilu0)))
            .expect("ilu0");
        let ic = solver
            .solve(&a, &b, &SolveSpec::new(Method::Pcg(PrecondKind::Ic0)))
            .expect("ic0");
        let bj = solver
            .solve(
                &a,
                &b,
                &SolveSpec::new(Method::Pcg(PrecondKind::BlockJacobi(16))),
            )
            .expect("block-jacobi");
        let bj_hist = mf_kernels::BlockJacobi::new(&a, 16)
            .unwrap()
            .precision_histogram();

        println!(
            "{:<16} | {:>9} | {:>6} {:>10.1} | {:>6} {:>10.1} | {:>6} {:>10.1} | {:>6} {:>10.1}",
            name,
            a.nnz(),
            cg.iterations,
            cg.solve_us(),
            ilu.iterations,
            ilu.solve_us(),
            ic.iterations,
            ic.solve_us(),
            bj.iterations,
            bj.solve_us(),
        );
        assert!(cg.converged && ilu.converged && ic.converged && bj.converged);
        table.row(vec![
            name.to_string(),
            a.nnz().to_string(),
            cg.iterations.to_string(),
            format!("{:.3}", cg.solve_us()),
            ilu.iterations.to_string(),
            format!("{:.3}", ilu.solve_us()),
            ic.iterations.to_string(),
            format!("{:.3}", ic.solve_us()),
            bj.iterations.to_string(),
            format!("{:.3}", bj.solve_us()),
            bj_hist[2].to_string(),
        ]);
    }

    let path = write_csv("ablation_preconditioners", &table).unwrap();
    println!("\ncsv -> {}", path.display());
    println!(
        "Reading: ILU(0)/IC(0) cut iterations the most but pay triangular\n\
         solves; block-Jacobi's fully parallel application wins per-iteration\n\
         cost at a weaker iteration reduction; plain CG pays no factorization\n\
         (and the single-kernel scheme) — which one wins is matrix-dependent,\n\
         exactly why the library exposes all four."
    );
}
