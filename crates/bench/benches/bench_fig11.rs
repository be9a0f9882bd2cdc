//! Criterion companion to **Figure 11**: mixed precision vs FP64-only
//! configurations of the same solver on precision-diverse matrices.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mf_collection::{named_matrix, SolverKind};
use mf_gpu::DeviceSpec;
use mf_precision::Precision;
use mf_solver::{Method, MilleFeuille, SolveSpec, SolverConfig};
use std::hint::black_box;

fn bench_mixed_vs_fp64(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig11_mixed_vs_fp64_100iters");
    for name in ["thermal", "wang1", "t2dal_bci"] {
        let m = named_matrix(name).unwrap();
        let a = m.generate();
        let mut b = vec![0.0; a.nrows];
        a.matvec(&vec![1.0; a.ncols], &mut b);
        for (label, mixed) in [("mixed", true), ("fp64_only", false)] {
            let cfg = SolverConfig {
                fixed_iterations: Some(100),
                uniform_precision: (!mixed).then_some(Precision::Fp64),
                partial_convergence: mixed,
                ..SolverConfig::default()
            };
            g.bench_with_input(BenchmarkId::new(label, name), &a, |bch, a| {
                let solver = MilleFeuille::new(DeviceSpec::a100(), cfg.clone());
                bch.iter(|| match m.kind {
                    SolverKind::Cg => solver
                        .solve(black_box(a), black_box(&b), &SolveSpec::new(Method::Cg))
                        .unwrap(),
                    SolverKind::Bicgstab => solver
                        .solve(
                            black_box(a),
                            black_box(&b),
                            &SolveSpec::new(Method::BiCgStab),
                        )
                        .unwrap(),
                })
            });
        }
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_mixed_vs_fp64
}
criterion_main!(benches);
