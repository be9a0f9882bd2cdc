//! Criterion companion to **Figure 8**: wall time of the full Mille-feuille
//! vs vendor-baseline solve pipeline (100 fixed iterations) on three
//! representative matrices per method. The figure binary reports modeled
//! GPU time; this measures the real cost of running the reproduction.

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

fn bench_cg(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig08_cg_100iters");
    for name in ["bcsstm22", "mesh3e1", "thermal"] {
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
        g.bench_with_input(BenchmarkId::new("cusparse_like", name), &a, |bch, a| {
            let base = Baseline::cusparse();
            bch.iter(|| base.solve_cg(black_box(a), black_box(&b), &cfg()))
        });
    }
    g.finish();
}

fn bench_bicgstab(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig08_bicgstab_100iters");
    for name in ["pores_1", "mhdb416", "wang1"] {
        let a = named_matrix(name).unwrap().generate();
        let mut b = vec![0.0; a.nrows];
        a.matvec(&vec![1.0; a.ncols], &mut b);
        g.bench_with_input(BenchmarkId::new("mille_feuille", name), &a, |bch, a| {
            let solver = MilleFeuille::new(DeviceSpec::mi210(), cfg());
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
        g.bench_with_input(BenchmarkId::new("hipsparse_like", name), &a, |bch, a| {
            let base = Baseline::hipsparse();
            bch.iter(|| base.solve_bicgstab(black_box(a), black_box(&b), &cfg()))
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_cg, bench_bicgstab
}
criterion_main!(benches);
