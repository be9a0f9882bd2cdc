//! **Figure 4**: evolution of the |p_j| magnitude distribution over CG
//! iterations for three representative matrices (`bcsstm37` "pretty
//! normal", `Muu` early convergence, `m3plates` many elements unchanged
//! from the start).
//!
//! Prints, per iteration, the share of elements of `p` in the five ranges
//! the paper colors (≥ε · ε/10 · ε/100 · ε/1000 · below).

use mf_bench::{write_csv, Table};
use mf_collection::named_matrix;
use mf_gpu::DeviceSpec;
use mf_solver::{Method, MilleFeuille, SolveSpec, SolverConfig};

fn main() {
    let mut table = Table::new(vec![
        "matrix",
        "iteration",
        "ge_eps",
        "eps_1e1",
        "eps_1e2",
        "eps_1e3",
        "below",
    ]);

    println!("Figure 4 — |p_j| range evolution during CG (ε = 1e-10·‖b‖)\n");
    for name in ["bcsstm37", "Muu", "m3plates"] {
        let a = named_matrix(name).expect("named proxy").generate();
        let mut b = vec![0.0; a.nrows];
        a.matvec(&vec![1.0; a.ncols], &mut b);

        let cfg = SolverConfig {
            trace_partial: true,
            max_iter: 400,
            ..SolverConfig::default()
        };
        let solver = MilleFeuille::new(DeviceSpec::a100(), cfg);
        let rep = solver.solve(&a, &b, &SolveSpec::new(Method::Cg)).unwrap();
        println!(
            "{name}: n={}, {} iterations, converged={}",
            a.nrows, rep.iterations, rep.converged
        );

        // Print ~12 sample points across the run.
        let hist = &rep.p_range_history;
        let step = (hist.len() / 12).max(1);
        println!("  iter |   >=eps  eps/10  eps/100 eps/1000  below   bypassed-tiles");
        for (j, h) in hist.iter().enumerate() {
            let total: usize = h.iter().sum();
            let pct = |c: usize| 100.0 * c as f64 / total as f64;
            if j % step == 0 || j + 1 == hist.len() {
                println!(
                    "  {j:>4} | {:>7.1} {:>7.1} {:>8.1} {:>8.1} {:>6.1}   {}",
                    pct(h[0]),
                    pct(h[1]),
                    pct(h[2]),
                    pct(h[3]),
                    pct(h[4]),
                    rep.bypass_history.get(j).copied().unwrap_or(0)
                );
            }
            table.row(vec![
                name.to_string(),
                j.to_string(),
                h[0].to_string(),
                h[1].to_string(),
                h[2].to_string(),
                h[3].to_string(),
                h[4].to_string(),
            ]);
        }
        println!();
    }
    let path = write_csv("fig04_partial_convergence", &table).unwrap();
    println!("csv -> {}", path.display());
    println!(
        "Paper reference: bcsstm37 drains gradually; Muu shows early partial\n\
         convergence; m3plates has a large share below threshold from the start."
    );
}
