//! Criterion companion to **Figure 10**: preconditioned solves — ILU(0)
//! factorization and the full PCG pipeline against the level-scheduled
//! baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mf_baselines::Baseline;
use mf_collection::named_matrix;
use mf_gpu::DeviceSpec;
use mf_kernels::ilu0;
use mf_solver::{Method, MilleFeuille, Precond, PrecondKind, SolveSpec, SolverConfig};
use std::hint::black_box;

fn cfg() -> SolverConfig {
    SolverConfig {
        fixed_iterations: Some(100),
        ..SolverConfig::default()
    }
}

fn bench_pcg(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig10_pcg_100iters");
    for name in ["LFAT5000", "mesh3e1"] {
        let a = named_matrix(name).unwrap().generate();
        let ilu = ilu0(&a).expect("ilu0");
        let mut b = vec![0.0; a.nrows];
        a.matvec(&vec![1.0; a.ncols], &mut b);
        g.bench_with_input(BenchmarkId::new("mille_feuille", name), &a, |bch, a| {
            let solver = MilleFeuille::new(DeviceSpec::a100(), cfg());
            bch.iter(|| {
                solver
                    .solve(
                        black_box(a),
                        black_box(&b),
                        &SolveSpec::new(Method::Pcg(PrecondKind::Ilu0))
                            .with_factors(Precond::Ilu0(&ilu)),
                    )
                    .unwrap()
            })
        });
        g.bench_with_input(BenchmarkId::new("cusparse_like", name), &a, |bch, a| {
            let base = Baseline::cusparse();
            bch.iter(|| base.solve_pcg_with(black_box(a), black_box(&b), &cfg(), &ilu))
        });
    }
    g.finish();
}

fn bench_factorize(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig10_ilu0_factorize");
    for name in ["mesh3e1", "wang1", "garon2"] {
        let a = named_matrix(name).unwrap().generate();
        g.bench_with_input(BenchmarkId::from_parameter(name), &a, |bch, a| {
            bch.iter(|| ilu0(black_box(a)).unwrap())
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_pcg, bench_factorize
}
criterion_main!(benches);
