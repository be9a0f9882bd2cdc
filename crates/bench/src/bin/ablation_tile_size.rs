//! **Ablation**: tile size sweep (4/8/16/32) — the paper fixes 16×16; this
//! shows the trade: smaller tiles classify more precisely (narrower
//! storage) but multiply metadata; larger tiles amortize metadata but get
//! forced wide by any single demanding nonzero.

use mf_bench::{harness::paper_rhs, iters_from_env, write_csv, Table};
use mf_collection::{named_matrix, SolverKind};
use mf_gpu::DeviceSpec;
use mf_solver::{Method, MilleFeuille, SolveSpec, SolverConfig};
use mf_sparse::TiledMatrix;

fn main() {
    let iters = iters_from_env();
    println!("Ablation — tile size (A100, {iters} iterations)\n");
    let names = ["garon2", "nmos3", "shallow_water1", "thermomech_TC", "poli"];
    let mut table = Table::new(vec![
        "name",
        "tile",
        "tiles",
        "mem_ratio_vs_csr",
        "fp8_tiles",
        "fp64_tiles",
        "solve_us",
    ]);

    for name in names {
        let m = named_matrix(name).expect("named proxy");
        let a = m.generate();
        let b = paper_rhs(&a);
        println!("{name} (nnz {}):", a.nnz());
        println!(
            "  {:>5} {:>9} {:>10} {:>10} {:>10} {:>12}",
            "tile", "tiles", "mem/CSR", "fp8-tiles", "fp64-tiles", "solve µs"
        );
        for ts in [4usize, 8, 16, 32] {
            let t = TiledMatrix::from_csr_with(&a, ts, &Default::default());
            let hist = t.tile_precision_histogram();
            let ratio = t.memory_bytes().total() as f64 / a.memory_bytes() as f64;
            let cfg = SolverConfig {
                fixed_iterations: Some(iters),
                tile_size: ts,
                ..SolverConfig::default()
            };
            let solver = MilleFeuille::new(DeviceSpec::a100(), cfg);
            let rep = match m.kind {
                SolverKind::Cg => solver.solve(&a, &b, &SolveSpec::new(Method::Cg)).unwrap(),
                SolverKind::Bicgstab => solver
                    .solve(&a, &b, &SolveSpec::new(Method::BiCgStab))
                    .unwrap(),
            };
            println!(
                "  {:>5} {:>9} {:>10.3} {:>10} {:>10} {:>12.1}",
                ts,
                t.tile_count(),
                ratio,
                hist[3],
                hist[0],
                rep.solve_us()
            );
            table.row(vec![
                name.to_string(),
                ts.to_string(),
                t.tile_count().to_string(),
                format!("{ratio:.4}"),
                hist[3].to_string(),
                hist[0].to_string(),
                format!("{:.3}", rep.solve_us()),
            ]);
        }
        println!();
    }
    let path = write_csv("ablation_tile_size", &table).unwrap();
    println!("csv -> {}", path.display());
}
