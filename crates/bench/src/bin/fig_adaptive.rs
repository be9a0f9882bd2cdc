//! Adaptive precision controller v2 vs static classification: traffic to
//! tolerance (ROADMAP "adaptive re-tiering").
//!
//! For every matrix of a small SPD population the same system is solved
//! twice through the facade — once with the static classification-time
//! tiers (`adaptive: None`), once with the residual-driven controller
//! armed (`adaptive: Some(default)`) — both in convergence mode with the
//! partial-convergence strategy off, so the only difference is the
//! controller. The figure of merit is **total value bytes moved by matrix
//! passes over the whole solve** (iterations × bytes-per-pass, summed
//! exactly by [`mf_kernels::MixedSpmvStats`], *including* the controller's
//! own residual-refresh passes — the re-tier overhead is charged, not
//! hidden).
//!
//! Gates (exit 1 on failure):
//!
//! * the adaptive solve reaches the same termination status as static and
//!   never moves **more** bytes, on *every* matrix — on value-classes the
//!   classifier already stores narrow (integer Poisson stencils) the
//!   savings guard must keep the controller silent, making the two runs
//!   identical;
//! * on at least **half** the population the adaptive solve moves
//!   *strictly fewer* bytes (the population is majority noisy-valued, so
//!   the controller has real headroom).
//!
//! The table's `b/it` columns break the per-iteration traffic down by
//! executed tier `[fp64, fp32, fp16, fp8]` (`-` when a tier moved
//! nothing), making the demote-then-widen trajectory visible at a glance.
//!
//! Output: `bench_out/fig_adaptive.csv` + `BENCH_adaptive.json`.
//!
//! Env knobs: `MF_ADAPT_TOL` (default 1e-10), `MF_ADAPT_MAXITER` (default
//! 4000), `MF_ADAPT_SCALE` (size multiplier on the population, default 1).

use std::fmt::Write as _;
use std::io::Write as _;

use mf_bench::{metric_cell, write_csv, Table};
use mf_collection::{banded_spd, poisson2d, poisson3d, random_spd, ValueClass};
use mf_gpu::DeviceSpec;
use mf_solver::{AdaptiveConfig, Method, MilleFeuille, SolveReport, SolveSpec, SolverConfig};
use mf_sparse::{Coo, Csr};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Diagonally dominant SPD tridiagonal with noisy (not exactly
/// representable) values — the classifier stores it wide, so the
/// controller has maximal demotion headroom. The coupling is strong
/// (row dominance margin ≈ 0.2) so the solve runs long enough for a
/// demotion to amortize its refresh pass.
fn noisy_spd(n: usize, seed: u64) -> Csr {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    let mut a = Coo::new(n, n);
    for i in 0..n {
        let d = next();
        a.push(i, i, 4.0 + 0.3 * d.abs());
        if i + 1 < n {
            let v = -1.9 + 0.05 * next();
            a.push(i, i + 1, v);
            a.push(i + 1, i, v);
        }
    }
    a.to_csr()
}

/// `b = A · 1`, the paper's right-hand side.
fn rhs(a: &Csr) -> Vec<f64> {
    let mut b = vec![0.0; a.nrows];
    a.matvec(&vec![1.0; a.ncols], &mut b);
    b
}

struct AdaptRow {
    matrix: String,
    n: usize,
    nnz: usize,
    statik: SolveReport,
    adaptive: SolveReport,
    pass: bool,
}

/// Per-tier value bytes per iteration, `None` where a tier moved nothing
/// (or the solve did no iterations).
fn bytes_per_iter_by_tier(rep: &SolveReport) -> [Option<f64>; 4] {
    let by = rep.spmv_stats.bytes_by_precision();
    let mut out = [None; 4];
    if rep.iterations > 0 {
        for (o, &b) in out.iter_mut().zip(&by) {
            if b > 0 {
                *o = Some(b as f64 / rep.iterations as f64);
            }
        }
    }
    out
}

fn main() {
    let tol = env_f64("MF_ADAPT_TOL", 1e-10);
    let max_iter = env_usize("MF_ADAPT_MAXITER", 4000);
    let scale = env_usize("MF_ADAPT_SCALE", 1).max(1);

    // Majority noisy-valued (controller-actionable) population plus two
    // integer Poisson stencils the classifier already stores in FP8 — the
    // guard rows where adaptive must equal static exactly.
    let systems: Vec<(String, Csr)> = vec![
        ("noisy_spd_4000".into(), noisy_spd(4000 * scale, 5)),
        (
            "banded_spd_real_2000".into(),
            banded_spd(2000 * scale, 5, ValueClass::Real, 7),
        ),
        (
            "banded_spd_real_3000".into(),
            banded_spd(3000 * scale, 3, ValueClass::Real, 21),
        ),
        (
            "random_spd_wide_1500".into(),
            random_spd(1500 * scale, 6, ValueClass::WideModerate, 11),
        ),
        ("poisson2d_48".into(), poisson2d(48 * scale, 48 * scale)),
        (
            "poisson3d_12".into(),
            poisson3d(12 * scale, 12 * scale, 12 * scale),
        ),
    ];

    let base_cfg = SolverConfig {
        tolerance: tol,
        max_iter,
        partial_convergence: false,
        ..SolverConfig::default()
    };
    let static_solver = MilleFeuille::new(DeviceSpec::a100(), base_cfg.clone());
    let adaptive_solver = MilleFeuille::new(
        DeviceSpec::a100(),
        SolverConfig {
            adaptive: Some(AdaptiveConfig::default()),
            ..base_cfg
        },
    );

    println!(
        "fig_adaptive: {} SPD systems, tol {tol:e}, controller {:?}",
        systems.len(),
        AdaptiveConfig::default()
    );

    let mut rows: Vec<AdaptRow> = Vec::new();
    for (name, a) in &systems {
        let b = rhs(a);
        let statik = static_solver
            .solve(a, &b, &SolveSpec::new(Method::Cg))
            .unwrap();
        let adaptive = adaptive_solver
            .solve(a, &b, &SolveSpec::new(Method::Cg))
            .unwrap();
        let pass = statik.status_label() == adaptive.status_label()
            && adaptive.spmv_stats.value_bytes() <= statik.spmv_stats.value_bytes();
        rows.push(AdaptRow {
            matrix: name.clone(),
            n: a.nrows,
            nnz: a.nnz(),
            statik,
            adaptive,
            pass,
        });
    }

    let mut table = Table::new(vec![
        "matrix",
        "mode",
        "n",
        "nnz",
        "iters",
        "relres",
        "status",
        "plans",
        "bytes_total",
        "b/it_fp64",
        "b/it_fp32",
        "b/it_fp16",
        "b/it_fp8",
    ]);
    for r in &rows {
        for (mode, rep) in [("static", &r.statik), ("adaptive", &r.adaptive)] {
            let tiers = bytes_per_iter_by_tier(rep);
            table.row(vec![
                r.matrix.clone(),
                mode.to_string(),
                r.n.to_string(),
                r.nnz.to_string(),
                rep.iterations.to_string(),
                format!("{:.3e}", rep.final_relres),
                rep.status_label(),
                rep.retier_trail.len().to_string(),
                rep.spmv_stats.value_bytes().to_string(),
                metric_cell(tiers[0]),
                metric_cell(tiers[1]),
                metric_cell(tiers[2]),
                metric_cell(tiers[3]),
            ]);
        }
    }
    println!("{}", table.render());
    let csv = write_csv("fig_adaptive", &table).expect("write csv");
    println!("wrote {}", csv.display());

    let wins = rows
        .iter()
        .filter(|r| r.adaptive.spmv_stats.value_bytes() < r.statik.spmv_stats.value_bytes())
        .count();
    let all_pass = rows.iter().all(|r| r.pass);
    let majority = wins * 2 >= rows.len();
    for r in rows.iter().filter(|r| !r.pass) {
        eprintln!(
            "FAIL: {}: static {} / {} bytes vs adaptive {} / {} bytes",
            r.matrix,
            r.statik.status_label(),
            r.statik.spmv_stats.value_bytes(),
            r.adaptive.status_label(),
            r.adaptive.spmv_stats.value_bytes(),
        );
    }
    if !majority {
        eprintln!(
            "FAIL: adaptive strictly cheaper on only {wins}/{} matrices",
            rows.len()
        );
    }

    // ---- JSON (hand-rolled; no serde in the offline workspace). ----
    let pass = all_pass && majority;
    let mut json = String::new();
    let _ = write!(
        json,
        concat!(
            "{{\n",
            "  \"bench\": \"fig_adaptive\",\n",
            "  \"tolerance\": {tol:e},\n",
            "  \"controller\": {{\"period\": {period}, \"margin_decades\": {margin}, \"min_savings_passes\": {guard}}},\n",
            "  \"gates\": {{\"bytes_never_worse\": true, \"strict_win_fraction_min\": 0.5}},\n",
            "  \"strict_wins\": {wins},\n",
            "  \"matrices\": [\n"
        ),
        tol = tol,
        period = AdaptiveConfig::default().period,
        margin = AdaptiveConfig::default().margin_decades,
        guard = AdaptiveConfig::default().min_savings_passes,
        wins = wins,
    );
    for (i, r) in rows.iter().enumerate() {
        let mode_json = |rep: &SolveReport| {
            let by = rep.spmv_stats.bytes_by_precision();
            format!(
                "{{\"iterations\": {}, \"relres\": {:e}, \"status\": \"{}\", \"plans\": {}, \"value_bytes\": {}, \"bytes_by_tier\": [{}, {}, {}, {}]}}",
                rep.iterations,
                rep.final_relres,
                rep.status_label(),
                rep.retier_trail.len(),
                rep.spmv_stats.value_bytes(),
                by[0], by[1], by[2], by[3],
            )
        };
        let _ = write!(
            json,
            concat!(
                "    {{\"matrix\": \"{name}\", \"n\": {n}, \"nnz\": {nnz},\n",
                "     \"static\": {statik},\n",
                "     \"adaptive\": {adaptive},\n",
                "     \"strict_win\": {win}, \"pass\": {pass}}}{comma}\n"
            ),
            name = r.matrix,
            n = r.n,
            nnz = r.nnz,
            statik = mode_json(&r.statik),
            adaptive = mode_json(&r.adaptive),
            win = r.adaptive.spmv_stats.value_bytes() < r.statik.spmv_stats.value_bytes(),
            pass = r.pass,
            comma = if i + 1 < rows.len() { "," } else { "" },
        );
    }
    let _ = write!(json, "  ],\n  \"pass\": {pass}\n}}\n");
    let mut f = std::fs::File::create("BENCH_adaptive.json").expect("create BENCH_adaptive.json");
    f.write_all(json.as_bytes())
        .expect("write BENCH_adaptive.json");
    println!("wrote BENCH_adaptive.json");

    if !pass {
        eprintln!("FAIL: fig_adaptive gates");
        std::process::exit(1);
    }
    println!("fig_adaptive gates PASS");
}
