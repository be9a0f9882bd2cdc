//! Host SpMV scaling: wall-clock of the row-striped mixed-precision SpMV
//! (`spmv_mixed_par`) versus the serial kernel on a large matrix, at the
//! solvers' tile size.
//!
//! Unlike the figure binaries (which report *modeled* GPU time), this bench
//! measures real host wall-clock: it records whether splitting the row
//! kernel over threads buys anything on this host (the solvers run the
//! serial kernel). Output:
//!
//! * `bench_out/spmv_scaling.csv` — one row per thread count.
//! * `BENCH_spmv.json` — machine-readable perf trajectory record, including
//!   the host's actually-available parallelism (speedup beyond 1× is only
//!   physically possible when the host has that many cores).
//!
//! Env knobs: `MF_SPMV_GRID` (Poisson grid side, default 320 → 102,400
//! rows), `MF_SPMV_REPS` (timed reps per thread count, default 20),
//! `MF_SPMV_THREADS` (comma list, default `1,2,4,8`).

use std::io::Write as _;
use std::time::Instant;

use mf_bench::{write_csv, Table};
use mf_collection::poisson2d;
use mf_kernels::{spmv_mixed, spmv_mixed_par, SharedTiles, VisFlag};
use mf_precision::ClassifyOptions;
use mf_sparse::{TiledMatrix, DEFAULT_TILE_SIZE};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_threads() -> Vec<usize> {
    std::env::var("MF_SPMV_THREADS")
        .ok()
        .map(|v| {
            v.split(',')
                .filter_map(|t| t.trim().parse().ok())
                .filter(|&t| t >= 1)
                .collect()
        })
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| vec![1, 2, 4, 8])
}

/// The flag pattern used by the correctness suite: bypass some column
/// segments, demand lowering on others, keep the rest — so the bench
/// exercises decode, lowering and bypass, not just the f64 fast path.
fn mixed_flags(tile_cols: usize) -> Vec<VisFlag> {
    (0..tile_cols)
        .map(|c| match c % 5 {
            0 => VisFlag::Bypass,
            1 => VisFlag::Fp16,
            2 => VisFlag::Fp8,
            3 => VisFlag::Fp32,
            _ => VisFlag::Keep,
        })
        .collect()
}

struct Sample {
    threads: usize,
    mean_us: f64,
    min_us: f64,
}

fn time_spmv(m: &TiledMatrix, flags: &[VisFlag], x: &[f64], threads: usize, reps: usize) -> Sample {
    let mut shared = SharedTiles::load(m);
    let mut y = vec![0.0; m.nrows];
    // Warm-up: first call performs the demanded lowerings; afterwards the
    // kernel is in steady state (decode + FMA only), which is what we time.
    for _ in 0..2 {
        spmv_mixed_par(m, &mut shared, flags, x, &mut y, threads);
    }
    let mut total = 0.0f64;
    let mut min = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        spmv_mixed_par(m, &mut shared, flags, x, &mut y, threads);
        let us = t0.elapsed().as_secs_f64() * 1e6;
        total += us;
        min = min.min(us);
    }
    Sample {
        threads,
        mean_us: total / reps as f64,
        min_us: min,
    }
}

fn main() {
    let grid = env_usize("MF_SPMV_GRID", 320);
    let reps = env_usize("MF_SPMV_REPS", 20);
    let thread_counts = env_threads();
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    let a = poisson2d(grid, grid);
    let tile_size = DEFAULT_TILE_SIZE;
    let m = TiledMatrix::from_csr_with(&a, tile_size, &ClassifyOptions::default());
    let flags = mixed_flags(m.tile_cols);
    let x: Vec<f64> = (0..m.nrows)
        .map(|i| ((i % 23) as f64) * 0.37 - 4.0)
        .collect();

    // Sanity: the parallel path must be bitwise-identical to the serial one
    // on this matrix/flag pattern before we bother timing it.
    let mut bitwise = true;
    {
        let mut sh_s = SharedTiles::load(&m);
        let mut sh_p = SharedTiles::load(&m);
        let mut y_s = vec![0.0; m.nrows];
        let mut y_p = vec![0.0; m.nrows];
        let st_s = spmv_mixed(&m, &mut sh_s, &flags, &x, &mut y_s);
        let st_p = spmv_mixed_par(&m, &mut sh_p, &flags, &x, &mut y_p, 4);
        bitwise &= st_s == st_p;
        bitwise &= y_s
            .iter()
            .zip(&y_p)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        bitwise &= sh_s.current_prec() == sh_p.current_prec();
        bitwise &= (0..m.tile_count()).all(|i| {
            let (v_s, v_p) = (sh_s.tile_values(&m, i), sh_p.tile_values(&m, i));
            v_s.iter()
                .zip(&v_p)
                .all(|(a, b)| a.to_bits() == b.to_bits())
        });
    }

    let samples: Vec<Sample> = thread_counts
        .iter()
        .map(|&t| time_spmv(&m, &flags, &x, t, reps))
        .collect();
    let serial_min = samples
        .iter()
        .find(|s| s.threads == 1)
        .map_or(samples[0].min_us, |s| s.min_us);

    let mut table = Table::new(vec![
        "threads",
        "mean_us",
        "min_us",
        "speedup_vs_serial",
        "host_threads_available",
    ]);
    for s in &samples {
        table.row(vec![
            s.threads.to_string(),
            format!("{:.2}", s.mean_us),
            format!("{:.2}", s.min_us),
            format!("{:.3}", serial_min / s.min_us),
            host_threads.to_string(),
        ]);
    }
    println!(
        "SpMV scaling: poisson2d {grid}x{grid} (n={}, nnz={}), tile={}, reps={}",
        m.nrows,
        m.nnz(),
        tile_size,
        reps
    );
    println!("bitwise serial==par: {bitwise}");
    println!("{}", table.render());
    let csv = write_csv("spmv_scaling", &table).expect("write csv");
    println!("wrote {}", csv.display());

    // Hand-rolled JSON (no serde in the offline workspace).
    let mut results = String::new();
    for (i, s) in samples.iter().enumerate() {
        if i > 0 {
            results.push(',');
        }
        results.push_str(&format!(
            "\n    {{\"threads\": {}, \"mean_us\": {:.2}, \"min_us\": {:.2}, \"speedup_vs_serial\": {:.3}}}",
            s.threads,
            s.mean_us,
            s.min_us,
            serial_min / s.min_us
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"spmv_scaling\",\n  \"matrix\": {{\"kind\": \"poisson2d\", \"grid\": {grid}, \"n\": {}, \"nnz\": {}, \"tile_size\": {tile_size}}},\n  \"reps\": {reps},\n  \"host_threads_available\": {host_threads},\n  \"bitwise_identical_to_serial\": {bitwise},\n  \"results\": [{results}\n  ]\n}}\n",
        m.nrows,
        m.nnz()
    );
    let mut f = std::fs::File::create("BENCH_spmv.json").expect("create BENCH_spmv.json");
    f.write_all(json.as_bytes()).expect("write BENCH_spmv.json");
    println!("wrote BENCH_spmv.json");
}
