//! Criterion: real CPU wall time of the computational kernels — CSR vs
//! tiled vs mixed-precision SpMV, BLAS-1, SpTRSV and the ILU(0) apply.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mf_collection::{convdiff2d, poisson2d};
use mf_kernels::{
    blas1, ilu0, retrieve_vis_flags, spmv_csr, spmv_mixed, spmv_tiled, sptrsv_lower_into,
    SharedTiles, VisFlag,
};
use mf_sparse::TiledMatrix;
use std::hint::black_box;

fn bench_spmv(c: &mut Criterion) {
    let a = poisson2d(200, 200);
    let t = TiledMatrix::from_csr(&a);
    let x: Vec<f64> = (0..a.ncols).map(|i| (i as f64 * 0.01).sin()).collect();
    let mut y = vec![0.0; a.nrows];
    let mut shared = SharedTiles::load(&t);
    let keep = vec![VisFlag::Keep; t.tile_cols];

    let mut g = c.benchmark_group("spmv");
    g.throughput(Throughput::Elements(a.nnz() as u64));
    g.bench_function("csr", |b| {
        b.iter(|| spmv_csr(black_box(&a), black_box(&x), &mut y))
    });
    g.bench_function("tiled", |b| {
        b.iter(|| spmv_tiled(black_box(&t), black_box(&x), &mut y))
    });
    g.bench_function("mixed_keep", |b| {
        b.iter(|| spmv_mixed(black_box(&t), &mut shared, &keep, black_box(&x), &mut y))
    });
    let bypass = vec![VisFlag::Bypass; t.tile_cols];
    g.bench_function("mixed_all_bypass", |b| {
        b.iter(|| spmv_mixed(black_box(&t), &mut shared, &bypass, black_box(&x), &mut y))
    });
    g.finish();
}

fn bench_blas1(c: &mut Criterion) {
    let n = 100_000;
    let x: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
    let mut y: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();

    let mut g = c.benchmark_group("blas1");
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("dot", |b| {
        b.iter(|| blas1::dot(black_box(&x), black_box(&y)))
    });
    g.bench_function("axpy", |b| {
        b.iter(|| blas1::axpy(1.0001, black_box(&x), &mut y))
    });
    g.bench_function("visflag_scan", |b| {
        let mut flags = Vec::new();
        b.iter(|| retrieve_vis_flags(black_box(&y), 16, 1e-10, &mut flags))
    });
    g.finish();
}

fn bench_sptrsv(c: &mut Criterion) {
    let a = convdiff2d(120, 120, 0.5, 0.25);
    let f = ilu0(&a).expect("ilu0");
    let b: Vec<f64> = (0..a.nrows).map(|i| (i as f64 * 0.1).sin()).collect();

    let (mut y, mut z) = (vec![0.0; a.nrows], vec![0.0; a.nrows]);
    let mut g = c.benchmark_group("sptrsv");
    g.bench_function("lower_into", |bch| {
        bch.iter(|| sptrsv_lower_into(black_box(&f.l), black_box(&b), &mut y, true))
    });
    g.bench_function("ilu_apply_into", |bch| {
        bch.iter(|| f.apply_into(black_box(&b), &mut y, &mut z))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_spmv, bench_blas1, bench_sptrsv
}
criterion_main!(benches);
