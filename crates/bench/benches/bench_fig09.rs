//! Criterion companion to **Figure 9**: PETSc-like and Ginkgo-like solve
//! pipelines against Mille-feuille on the A100 model.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mf_baselines::Baseline;
use mf_collection::named_matrix;
use mf_gpu::DeviceSpec;
use mf_solver::{Method, MilleFeuille, SolveSpec, SolverConfig};
use std::hint::black_box;

fn cfg() -> SolverConfig {
    SolverConfig {
        fixed_iterations: Some(100),
        ..SolverConfig::default()
    }
}

fn bench_libraries(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig09_libraries_100iters");
    for name in ["mesh3e1", "Muu"] {
        let a = named_matrix(name).unwrap().generate();
        let mut b = vec![0.0; a.nrows];
        a.matvec(&vec![1.0; a.ncols], &mut b);
        g.bench_with_input(BenchmarkId::new("mille_feuille", name), &a, |bch, a| {
            let solver = MilleFeuille::new(DeviceSpec::a100(), cfg());
            bch.iter(|| {
                solver
                    .solve(black_box(a), black_box(&b), &SolveSpec::new(Method::Cg))
                    .unwrap()
            })
        });
        for base in [Baseline::petsc(), Baseline::ginkgo()] {
            let label = base.profile.name.to_lowercase();
            g.bench_with_input(
                BenchmarkId::new(format!("{label}_like"), name),
                &a,
                |bch, a| bch.iter(|| base.solve_cg(black_box(a), black_box(&b), &cfg())),
            );
        }
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_libraries
}
criterion_main!(benches);
