//! The layer-probe phase of the traced run, and the host bandwidth
//! ceilings.
//!
//! Each probe times one public call of one layer on the workload's own
//! operators, from outside the library: min-of-N after a warm-up call
//! ([`min_us`]). The ceilings are STREAM triads: one on arrays sized past
//! the last-level cache, one sized to the workload's SpMV working set.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use mf_kernels::{
    blas1, ilu0_boosted, level_schedule, retrieve_vis_flags, spmm_mixed, spmv_mixed,
    spmv_mixed_par, SharedTiles, VisFlag,
};
use mf_solver::report::ExecutedMode;
use mf_solver::{build_tiled_ticketed, preprocess_tiled_ilu0_ticketed, TicketedOptions};
use mf_sparse::{TileBuildPlan, TiledMatrix};

use crate::trace::Tracer;
use crate::workloads::{Cold, Inputs, BATCH_K};

/// Timed repetitions after the warm-up: at least `MIN_REPS`, then more
/// until `REP_TIME` has passed or `MAX_REPS` ran.
const MIN_REPS: usize = 5;
const MAX_REPS: usize = 200;
const REP_TIME: Duration = Duration::from_millis(200);
/// A call slower than this is timed once: its warm-up is the sample.
const LONG_CALL: Duration = Duration::from_millis(500);

/// Min-of-N wall time of `f` in µs, recorded as one span.
pub fn min_us<T>(tr: &mut Tracer, name: &'static str, op: usize, f: impl FnMut() -> T) -> f64 {
    timed(tr, name, op, f).1
}

/// [`min_us`] that also hands back the warm-up call's result.
fn timed<T>(tr: &mut Tracer, name: &'static str, op: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let span = tr.begin(name, op as u64);
    let t0 = Instant::now();
    let out = f();
    let first = t0.elapsed();
    let mut best = first;
    if first < LONG_CALL {
        best = Duration::MAX;
        let start = Instant::now();
        let mut reps = 0;
        while reps < MIN_REPS || (reps < MAX_REPS && start.elapsed() < REP_TIME) {
            let t = Instant::now();
            let r = f();
            best = best.min(t.elapsed());
            // Dropped outside the timed span: call to return only.
            drop(black_box(r));
            reps += 1;
        }
    }
    tr.end(span);
    (out, best.as_secs_f64() * 1e6)
}

/// Everything the probes measured on one operator.
#[derive(Clone, Debug, Default)]
pub struct OpProbe {
    pub fingerprint_us: f64,
    pub tile_plan_us: f64,
    pub classify_us: f64,
    pub nnz_by_prec: [usize; 4],
    pub tickets: usize,
    pub accepted: usize,
    pub fallbacks: usize,
    pub preprocess_us: f64,
    pub preprocess_serial_us: f64,
    pub iterations: usize,
    pub solve_us: f64,
    pub true_relres: f64,
    pub modeled_solve_us: f64,
    pub value_bytes: usize,
    pub nnz_bypassed: usize,
    pub nnz_total: usize,
    /// Replayed kernel time of the reference solve (coverage numerator).
    pub replayed_us: f64,
    pub load_us: f64,
    pub level_us: f64,
    pub spmv_threads: usize,
    pub spmv_us: f64,
    pub spmv_serial_us: f64,
    pub spmv_bytes: f64,
    pub vis_us: f64,
    pub blas1_us: f64,
    pub ilu_apply_us: f64,
    pub ilu0_us: f64,
    pub spmm_us: f64,
}

/// Computed bytes one SpMV moves: 8-byte arena values and 1-byte in-tile
/// column indices per nonzero; 4-byte row offsets and 1-byte row ids per
/// non-empty row; per tile the row/column index, nnz and row offsets, the
/// 8-byte arena offset and the precision byte; `x` read and `y` written
/// once. Cache misses are not counted.
pub fn spmv_bytes(t: &TiledMatrix) -> f64 {
    let (nnz, rows, tiles) = (t.nnz(), t.nonempty_row_count(), t.tile_count());
    (9 * nnz + 5 * rows + 25 * tiles + 8 * (t.ncols + t.nrows)) as f64
}

/// Probes every layer on operator `i` of the workload.
pub fn probe_op(w: &Inputs, i: usize, tr: &mut Tracer) -> OpProbe {
    let (a, b) = (&w.ops[i], &w.rhs[i]);
    let mf = w.facade();
    let cfg = &mf.config;
    let pcg = w.kind.preconditioned();
    let ts = cfg.tile_size;
    let mut p = OpProbe {
        fingerprint_us: min_us(tr, "probe:Csr::fingerprint", i, || a.fingerprint()),
        tile_plan_us: min_us(tr, "probe:TileBuildPlan::new", i, || {
            TileBuildPlan::new(a, ts)
        }),
        ..OpProbe::default()
    };
    let plan = TileBuildPlan::new(a, ts);
    p.classify_us = min_us(tr, "probe:classify_tile", i, || {
        (0..plan.tile_count())
            .map(|t| plan.classify_tile(a, t, &cfg.classify))
            .collect::<Vec<_>>()
    });

    let topts = TicketedOptions {
        workers: cfg.host_parallelism.threads_for(a.nnz()),
        ..TicketedOptions::default()
    };
    let stats = if pcg {
        preprocess_tiled_ilu0_ticketed(a, ts, &cfg.classify, &topts)
            .2
            .stats
    } else {
        build_tiled_ticketed(a, ts, &cfg.classify, &topts).1.stats
    };
    (p.tickets, p.accepted, p.fallbacks) = (stats.tickets, stats.accepted, stats.fallbacks);

    p.preprocess_us = min_us(tr, "probe:facade_preprocess", i, || {
        Cold::prepare(&mf, a, pcg)
    });
    p.preprocess_serial_us = min_us(tr, "probe:serial_preprocess", i, || {
        let tiled = TiledMatrix::from_csr_with(a, ts, &cfg.classify);
        (tiled, pcg.then(|| ilu0_boosted(a)))
    });

    let cold = Cold::prepare(&mf, a, pcg);
    let tiled = &cold.pre.tiled;
    p.nnz_by_prec = tiled.nnz_precision_histogram();
    let (rep, solve_us) = timed(tr, "probe:reference_solve", i, || cold.solve(&mf, a, b));
    let rep = rep.expect("the probe operators factor");
    p.solve_us = solve_us;
    p.iterations = rep.iterations;
    p.true_relres = rep.true_relres(a, b);
    p.modeled_solve_us = rep.solve_us();
    p.value_bytes = rep.spmv_stats.value_bytes();
    p.nnz_bypassed = rep.spmv_stats.nnz_bypassed;
    p.nnz_total = rep.spmv_stats.nnz_total();

    p.load_us = min_us(tr, "probe:SharedTiles::load", i, || {
        SharedTiles::load(tiled)
    });
    // The CG workloads never factor; their ILU probes price what
    // preconditioning the same operator would cost.
    let ilu = match &cold.ilu {
        Some(Ok(f)) => f.clone(),
        _ => ilu0_boosted(a).expect("the probe operators factor").0,
    };
    p.ilu0_us = min_us(tr, "probe:ilu0_boosted", i, || ilu0_boosted(a));
    p.level_us = min_us(tr, "probe:level_schedule", i, || {
        (level_schedule(&ilu.l, true), level_schedule(&ilu.u, false))
    });
    let n = a.nrows;
    let (mut y, mut z) = (vec![0.0; n], vec![0.0; n]);
    p.ilu_apply_us = min_us(tr, "probe:Ilu0::apply_recursive_into", i, || {
        ilu.apply_recursive_into(b, cfg.trsv_leaf, &mut y, &mut z)
    });

    let mut shared = SharedTiles::load(tiled);
    let keep = vec![VisFlag::Keep; tiled.tile_cols.max(1)];
    p.spmv_threads = cfg.host_parallelism.threads_for(a.nnz());
    let threads = p.spmv_threads;
    p.spmv_us = min_us(tr, "probe:spmv_mixed_par", i, || {
        spmv_mixed_par(tiled, &mut shared, &keep, b, &mut y, threads)
    });
    p.spmv_serial_us = min_us(tr, "probe:spmv_mixed", i, || {
        spmv_mixed(tiled, &mut shared, &keep, b, &mut y)
    });
    p.spmv_bytes = spmv_bytes(tiled);

    let eps = cfg.tolerance * cfg.partial_safety * blas1::norm2(b);
    let mut flags = Vec::new();
    p.vis_us = min_us(tr, "probe:retrieve_vis_flags", i, || {
        retrieve_vis_flags(b, ts, eps, &mut flags)
    });

    // One iteration's BLAS-1 set: CG takes two dots, PCG three, plus two
    // axpys and one xpay.
    let dots = if pcg { 3 } else { 2 };
    let (mut v1, mut v2) = (b.clone(), b.clone());
    p.blas1_us = min_us(tr, "probe:blas1_iteration", i, || {
        let s: f64 = (0..dots).map(|_| blas1::dot(b, &z)).sum();
        blas1::axpy(1e-12, b, &mut v1);
        blas1::axpy(-1e-12, &z, &mut v2);
        blas1::xpay(b, 0.5, &mut y);
        s
    });

    let xb: Vec<f64> = (0..BATCH_K).flat_map(|_| b.iter().copied()).collect();
    let mut yb = vec![0.0; n * BATCH_K];
    let active = [true; BATCH_K];
    p.spmm_us = min_us(tr, "probe:spmm_mixed", i, || {
        spmm_mixed(tiled, &mut shared, &keep, &xb, &mut yb, &active)
    });

    // Coverage: what the replayed kernels predict for the reference solve.
    // Vis-flag retrieval runs only where partial convergence is live.
    let partial = cfg.partial_convergence && rep.mode == ExecutedMode::SingleKernel;
    let per_iter = p.spmv_us
        + p.blas1_us
        + if partial { p.vis_us } else { 0.0 }
        + if pcg { p.ilu_apply_us } else { 0.0 };
    let fixed = p.load_us
        + if pcg {
            p.level_us + p.ilu_apply_us
        } else {
            0.0
        };
    p.replayed_us = per_iter * p.iterations as f64 + fixed;
    p
}

/// The host's bandwidth ceilings.
#[derive(Clone, Debug, Default)]
pub struct Host {
    pub llc_bytes: usize,
    pub dram_array_bytes: usize,
    pub dram_gbs: f64,
    pub ws_array_bytes: usize,
    pub ws_gbs: f64,
}

/// Array size of the DRAM triad: four times the last-level cache, capped
/// so three arrays stay near 1 GiB on a machine other jobs share. Three
/// arrays past the cache stream from DRAM either way.
const DRAM_ARRAY_CAP: usize = 384 << 20;

/// Measures both triads. `ws_bytes` is the SpMV working set to match,
/// `ws_threads` the thread count that SpMV ran at.
pub fn host_ceilings(ws_bytes: f64, ws_threads: usize, tr: &mut Tracer) -> Host {
    let llc_bytes = llc_bytes().unwrap_or(0);
    let dram_array_bytes = if llc_bytes == 0 {
        DRAM_ARRAY_CAP
    } else {
        (4 * llc_bytes).min(DRAM_ARRAY_CAP)
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let s = tr.begin("probe:triad_dram", 0);
    let dram_gbs = triad_gbs(dram_array_bytes / 8, cores);
    tr.end(s);
    let ws_array_bytes = ((ws_bytes / 3.0) as usize).max(4096);
    let s = tr.begin("probe:triad_working_set", 0);
    let ws_gbs = triad_gbs(ws_array_bytes / 8, ws_threads);
    tr.end(s);
    Host {
        llc_bytes,
        dram_array_bytes,
        dram_gbs,
        ws_array_bytes,
        ws_gbs,
    }
}

/// Size of cpu0's highest-level cache, from sysfs.
fn llc_bytes() -> Option<usize> {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let mut best: Option<(u32, usize)> = None;
    for entry in std::fs::read_dir(base).ok()?.flatten() {
        let dir = entry.path();
        let read = |f: &str| std::fs::read_to_string(dir.join(f)).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        let size = size.trim();
        let (digits, scale) = match size.chars().last() {
            Some('K') => (&size[..size.len() - 1], 1 << 10),
            Some('M') => (&size[..size.len() - 1], 1 << 20),
            _ => (size, 1),
        };
        let Ok(v) = digits.parse::<usize>() else {
            continue;
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, v * scale));
        }
    }
    best.map(|(_, bytes)| bytes)
}

/// Trials per triad, each at least `TRIAD_TRIAL` long.
const TRIAD_TRIALS: usize = 5;
const TRIAD_TRIAL: Duration = Duration::from_millis(40);

/// STREAM triad `a = b + s·c` over `len`-element arrays on `threads`
/// threads. Each thread streams its own chunk for a whole trial; the best
/// trial's per-pass time gives GB/s at 24 bytes per element.
fn triad_gbs(len: usize, threads: usize) -> f64 {
    let threads = threads.clamp(1, len.max(1));
    let mut a = vec![0.0f64; len];
    let b = vec![1.0f64; len];
    let c = vec![2.0f64; len];
    let chunk = len.div_ceil(threads);
    let trial = |a: &mut [f64], passes: usize| -> Duration {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for ((ac, bc), cc) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                s.spawn(move || {
                    for _ in 0..passes {
                        let ac = black_box(&mut *ac);
                        for ((x, y), z) in ac.iter_mut().zip(black_box(bc)).zip(black_box(cc)) {
                            *x = y + 3.0 * z;
                        }
                    }
                });
            }
        });
        t0.elapsed()
    };
    // Warm-up pass (faults the pages in), then size the trials.
    let one = trial(&mut a, 1).max(Duration::from_nanos(1));
    let passes = (TRIAD_TRIAL.as_secs_f64() / one.as_secs_f64())
        .ceil()
        .max(1.0) as usize;
    let best = (0..TRIAD_TRIALS)
        .map(|_| trial(&mut a, passes).as_secs_f64() / passes as f64)
        .fold(f64::INFINITY, f64::min);
    black_box(&a);
    24.0 * len as f64 / best / 1e9
}

/// Layer metrics of a workload from its operators' probes: times are
/// means per operator, ratios are ratios of sums.
pub fn layer_values(probes: &[OpProbe], host: &Host) -> Vec<(&'static str, f64)> {
    let k = probes.len().max(1) as f64;
    let sum = |f: &dyn Fn(&OpProbe) -> f64| probes.iter().map(f).sum::<f64>();
    let mean = |f: &dyn Fn(&OpProbe) -> f64| sum(f) / k;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let nnz: [f64; 4] = std::array::from_fn(|c| sum(&|p| p.nnz_by_prec[c] as f64));
    let nnz_all: f64 = nnz.iter().sum();
    let iters = sum(&|p| p.iterations as f64);
    let spmv = sum(&|p| p.spmv_us);
    let spmv_gbs = ratio(sum(&|p| p.spmv_bytes), spmv) / 1e3;
    vec![
        ("sparse.tile_plan_ms", mean(&|p| p.tile_plan_us) / 1e3),
        ("sparse.fingerprint_us", mean(&|p| p.fingerprint_us)),
        ("precision.classify_ms", mean(&|p| p.classify_us) / 1e3),
        ("precision.nnz_frac_fp64", ratio(nnz[0], nnz_all)),
        ("precision.nnz_frac_fp32", ratio(nnz[1], nnz_all)),
        ("precision.nnz_frac_fp16", ratio(nnz[2], nnz_all)),
        ("precision.nnz_frac_fp8", ratio(nnz[3], nnz_all)),
        ("ticket.tickets", mean(&|p| p.tickets as f64)),
        ("ticket.fallbacks", mean(&|p| p.fallbacks as f64)),
        (
            "ticket.accept_ratio",
            ratio(sum(&|p| p.accepted as f64), sum(&|p| p.tickets as f64)),
        ),
        ("solver.preprocess_ms", mean(&|p| p.preprocess_us) / 1e3),
        (
            "solver.preprocess_serial_ms",
            mean(&|p| p.preprocess_serial_us) / 1e3,
        ),
        (
            "solver.preprocess_over_serial",
            ratio(sum(&|p| p.preprocess_us), sum(&|p| p.preprocess_serial_us)),
        ),
        ("solver.iterations", iters / k),
        ("solver.iter_us", ratio(sum(&|p| p.solve_us), iters)),
        (
            "solver.true_relres_max",
            probes.iter().map(|p| p.true_relres).fold(0.0, f64::max),
        ),
        (
            "solver.modeled_solve_ms",
            mean(&|p| p.modeled_solve_us) / 1e3,
        ),
        (
            "solver.measured_over_modeled",
            ratio(sum(&|p| p.solve_us), sum(&|p| p.modeled_solve_us)),
        ),
        (
            "solver.modeled_value_mb_per_iter",
            ratio(sum(&|p| p.value_bytes as f64), iters) / 1e6,
        ),
        (
            "solver.bypass_frac",
            ratio(
                sum(&|p| p.nnz_bypassed as f64),
                sum(&|p| p.nnz_total as f64),
            ),
        ),
        (
            "solver.coverage_frac",
            ratio(sum(&|p| p.replayed_us), sum(&|p| p.solve_us)),
        ),
        ("kernels.shared_tiles_load_us", mean(&|p| p.load_us)),
        ("kernels.level_schedule_us", mean(&|p| p.level_us)),
        ("kernels.spmv_us", spmv / k),
        ("kernels.spmv_serial_us", mean(&|p| p.spmv_serial_us)),
        (
            "kernels.spmv_par_speedup",
            ratio(sum(&|p| p.spmv_serial_us), spmv),
        ),
        ("kernels.spmv_host_gbs", spmv_gbs),
        ("kernels.spmv_frac_of_ceiling", ratio(spmv_gbs, host.ws_gbs)),
        ("kernels.vis_flags_us", mean(&|p| p.vis_us)),
        ("kernels.blas1_us", mean(&|p| p.blas1_us)),
        ("kernels.ilu_apply_us", mean(&|p| p.ilu_apply_us)),
        ("kernels.ilu0_ms", mean(&|p| p.ilu0_us) / 1e3),
        (
            "kernels.spmm_us_per_rhs",
            mean(&|p| p.spmm_us) / BATCH_K as f64,
        ),
        (
            "kernels.spmm_amortization",
            ratio(
                sum(&|p| p.spmv_serial_us),
                sum(&|p| p.spmm_us) / BATCH_K as f64,
            ),
        ),
        ("host.llc_mb", host.llc_bytes as f64 / 1e6),
        ("host.triad_array_mb", host.dram_array_bytes as f64 / 1e6),
        ("host.triad_ws_array_mb", host.ws_array_bytes as f64 / 1e6),
        ("host.triad_dram_gbs", host.dram_gbs),
        ("host.triad_ws_gbs", host.ws_gbs),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spmv_bytes_counts_values_indices_and_vectors() {
        let a = mf_collection::poisson2d(16, 16);
        let t = TiledMatrix::from_csr(&a);
        let expect = 9 * t.nnz() + 5 * t.nonempty_row_count() + 25 * t.tile_count() + 8 * 512;
        assert_eq!(spmv_bytes(&t), expect as f64);
    }

    #[test]
    fn triad_reports_a_positive_rate() {
        assert!(triad_gbs(1 << 12, 1) > 0.0);
        assert!(triad_gbs(1 << 12, 2) > 0.0);
    }
}
