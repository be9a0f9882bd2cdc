//! Criterion companion to **Table II**: converged solves (ε = 1e-10, no
//! fixed iteration count) of the Table II matrices — mixed-precision
//! Mille-feuille vs the FP64 cuSPARSE-like baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mf_baselines::Baseline;
use mf_collection::named_matrix;
use mf_gpu::DeviceSpec;
use mf_solver::{Method, MilleFeuille, SolveSpec, SolverConfig};
use std::hint::black_box;

fn bench_converged_solves(c: &mut Criterion) {
    let mut g = c.benchmark_group("table2_converged");
    // The fast-converging subset keeps bench time reasonable.
    let cg = ["mesh3e1", "m3plates"];
    let bi = ["pores_1", "cz308", "Hamrle1"];

    for name in cg {
        let a = named_matrix(name).unwrap().generate();
        let mut b = vec![0.0; a.nrows];
        a.matvec(&vec![1.0; a.ncols], &mut b);
        g.bench_with_input(BenchmarkId::new("mf_cg", name), &a, |bch, a| {
            let solver = MilleFeuille::with_defaults(DeviceSpec::a100());
            bch.iter(|| {
                solver
                    .solve(black_box(a), black_box(&b), &SolveSpec::new(Method::Cg))
                    .unwrap()
            })
        });
        g.bench_with_input(BenchmarkId::new("base_cg", name), &a, |bch, a| {
            let base = Baseline::cusparse();
            bch.iter(|| base.solve_cg(black_box(a), black_box(&b), &SolverConfig::default()))
        });
    }
    for name in bi {
        let a = named_matrix(name).unwrap().generate();
        let mut b = vec![0.0; a.nrows];
        a.matvec(&vec![1.0; a.ncols], &mut b);
        g.bench_with_input(BenchmarkId::new("mf_bicgstab", name), &a, |bch, a| {
            let solver = MilleFeuille::with_defaults(DeviceSpec::a100());
            bch.iter(|| {
                solver
                    .solve(
                        black_box(a),
                        black_box(&b),
                        &SolveSpec::new(Method::BiCgStab),
                    )
                    .unwrap()
            })
        });
        g.bench_with_input(BenchmarkId::new("base_bicgstab", name), &a, |bch, a| {
            let base = Baseline::cusparse();
            bch.iter(|| base.solve_bicgstab(black_box(a), black_box(&b), &SolverConfig::default()))
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_converged_solves
}
criterion_main!(benches);
