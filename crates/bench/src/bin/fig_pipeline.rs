//! Pipelined vs classic single-kernel engines: barrier schedule density,
//! wall time, and iterations-to-tolerance (ROADMAP "pipelined CG/PCG").
//!
//! Two measurements over the threaded engines, both gated (exit 1 on
//! failure):
//!
//! 1. **Barrier schedule density** — mf-trace counts every `BarrierEnter`
//!    per warp, so the per-iteration epoch count is measured exactly: two
//!    traced fixed-budget runs (tolerance 0 ⇒ exactly `max_iter`
//!    iterations execute) at budgets K and 2K, and the *marginal* density
//!    `(count(2K) − count(K)) / (warps · K)` cancels the init epochs.
//!    The schedules are deterministic, so the gates are tight: pipelined
//!    CG = 1 and pipelined PCG = 2 epochs per iteration (±1%), classic
//!    ≥ 3, and pipelined strictly below classic. Classic PCG's
//!    owner-computes schedule shows the flat ~4 epochs the ROADMAP
//!    cites; classic CG's scatter-gather SpMV additionally spin-waits
//!    once per consumed segment, so its count grows with
//!    `segments / warps` (~35 on the default proxy) — exactly the
//!    sync surface the pipelined owner-computes engines eliminate.
//! 2. **Solve to tolerance** — classic vs pipelined on each matrix of a
//!    small SPD population (a 2-D Poisson proxy + synthetic SPD suite
//!    entries): host wall time (min of reps, tracing off), iterations to
//!    the 1e-10 tolerance, termination status, and the `barriers/iter`
//!    column from one traced rerun. Gate: the pipelined run reaches the
//!    same status as classic, with the iteration count inside the drift
//!    envelope `|Δiters| ≤ max(5, 10% of classic)` — pipelined CG's
//!    rounding drift is characterized, not hidden.
//!
//! Output: `bench_out/fig_pipeline.csv` + `BENCH_pipeline.json`.
//!
//! Env knobs: `MF_PIPE_GRID` (Poisson proxy side, default 32),
//! `MF_PIPE_WARPS` (default 2 — schedule density is warp-normalized and
//! exact at any count), `MF_PIPE_REPS` (timed reps, default 2),
//! `MF_PIPE_BUDGET` (density budget K for CG, default 12; PCG uses K/2 to
//! stay clear of ILU(0)'s faster convergence), `MF_PIPE_COUNT` (suite
//! entries, default 2), `MF_PIPE_TOL` (default 1e-10), `MF_PIPE_MAXITER`
//! (default 2000).

use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

use mf_bench::{barriers_per_iter, metric_cell, write_csv, Table};
use mf_collection::{cg_suite, poisson2d, SuiteOptions};
use mf_kernels::{ilu0, Ilu0};
use mf_solver::{
    run_cg_pipelined_threaded, run_cg_threaded, run_pcg_pipelined_threaded, run_pcg_threaded,
    EventKind, SolveReport, ThreadedOpts, TraceConfig,
};
use mf_sparse::{Csr, TiledMatrix};

/// Ring capacity for traced runs — large enough that the density window
/// and the convergence runs keep complete streams (checked via `dropped`).
const TRACE_CAP: usize = 1 << 17;

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

/// One threaded solve: classic or pipelined, CG (`ilu = None`) or PCG.
#[allow(clippy::too_many_arguments)]
fn solve_once(
    pipelined: bool,
    m: &TiledMatrix,
    ilu: Option<&Ilu0>,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    warps: usize,
    cfg: &TraceConfig,
) -> SolveReport {
    let opts = ThreadedOpts {
        trace: *cfg,
        ..ThreadedOpts::new(warps)
    };
    match (ilu, pipelined) {
        (None, false) => run_cg_threaded(m, b, tol, max_iter, &opts),
        (None, true) => run_cg_pipelined_threaded(m, b, tol, max_iter, &opts),
        (Some(p), false) => run_pcg_threaded(m, p, b, tol, max_iter, &opts),
        (Some(p), true) => run_pcg_pipelined_threaded(m, p, b, tol, max_iter, &opts),
    }
}

/// Barrier epochs in a traced report's complete stream.
fn barrier_count(rep: &SolveReport) -> usize {
    let s = rep.trace.as_ref().expect("traced run").summary();
    assert_eq!(s.dropped, 0, "trace ring dropped events; raise TRACE_CAP");
    s.count(EventKind::BarrierEnter)
}

/// Marginal (steady-state) and raw barrier density of one engine, from
/// fixed-budget traced runs at `budget` and `2·budget` iterations.
fn schedule_density(
    pipelined: bool,
    m: &TiledMatrix,
    ilu: Option<&Ilu0>,
    b: &[f64],
    budget: usize,
    warps: usize,
) -> (f64, f64) {
    let cfg = TraceConfig::with_capacity(TRACE_CAP);
    let lo = solve_once(pipelined, m, ilu, b, 0.0, budget, warps, &cfg);
    let hi = solve_once(pipelined, m, ilu, b, 0.0, 2 * budget, warps, &cfg);
    for (r, want) in [(&lo, budget), (&hi, 2 * budget)] {
        assert!(r.failure.is_none(), "density run failed: {:?}", r.failure);
        assert_eq!(r.iterations, want, "budgeted run must execute the budget");
        assert!(
            r.breakdowns.is_empty(),
            "breakdown inside the density window perturbs the schedule — lower MF_PIPE_BUDGET"
        );
    }
    assert_eq!(lo.warp_count, hi.warp_count);
    let marginal =
        (barrier_count(&hi) - barrier_count(&lo)) as f64 / (hi.warp_count * budget) as f64;
    let raw = barrier_count(&hi) as f64 / (hi.warp_count * 2 * budget) as f64;
    (marginal, raw)
}

/// Solve-to-tolerance measurement: min-of-`reps` wall time with tracing
/// off (rep 0 is warm-up), plus one traced rerun for the schedule column
/// (tracing is bitwise-inert, so the trajectory is the same solve).
#[allow(clippy::too_many_arguments)]
fn timed_solve(
    pipelined: bool,
    m: &TiledMatrix,
    ilu: Option<&Ilu0>,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    warps: usize,
    reps: usize,
) -> (f64, SolveReport) {
    let mut min = f64::INFINITY;
    for rep in 0..=reps {
        let t0 = Instant::now();
        let out = solve_once(
            pipelined,
            m,
            ilu,
            b,
            tol,
            max_iter,
            warps,
            &TraceConfig::default(),
        );
        let us = t0.elapsed().as_secs_f64() * 1e6;
        if rep > 0 {
            min = min.min(us);
        }
        drop(out);
    }
    let traced = solve_once(
        pipelined,
        m,
        ilu,
        b,
        tol,
        max_iter,
        warps,
        &TraceConfig::with_capacity(TRACE_CAP),
    );
    (min, traced)
}

/// `b = A · 1`, the paper's right-hand side.
fn rhs(a: &Csr) -> Vec<f64> {
    let mut b = vec![0.0; a.nrows];
    a.matvec(&vec![1.0; a.ncols], &mut b);
    b
}

struct SolveRow {
    matrix: String,
    method: &'static str,
    n: usize,
    nnz: usize,
    classic_us: f64,
    classic: SolveReport,
    piped_us: f64,
    piped: SolveReport,
    envelope: usize,
    pass: bool,
}

fn main() {
    let grid = env_usize("MF_PIPE_GRID", 32);
    let warps = env_usize("MF_PIPE_WARPS", 2).max(1);
    let reps = env_usize("MF_PIPE_REPS", 2).max(1);
    let budget = env_usize("MF_PIPE_BUDGET", 12).max(4);
    let count = env_usize("MF_PIPE_COUNT", 2);
    let tol = env_f64("MF_PIPE_TOL", 1e-10);
    let max_iter = env_usize("MF_PIPE_MAXITER", 2000);

    let poisson = poisson2d(grid, grid);
    let m = TiledMatrix::from_csr(&poisson);
    let ilu = ilu0(&poisson).expect("ILU(0) on the Poisson proxy");
    let b = rhs(&poisson);

    println!(
        "fig_pipeline: poisson2d {grid}x{grid} (n={}, nnz={}), {warps} warp(s)",
        poisson.nrows,
        poisson.nnz()
    );

    // ---- 1. Barrier schedule density (exact, via mf-trace). ----
    let (cg_classic, cg_classic_raw) = schedule_density(false, &m, None, &b, budget, warps);
    let (cg_piped, cg_piped_raw) = schedule_density(true, &m, None, &b, budget, warps);
    let pcg_budget = (budget / 2).max(2);
    let (pcg_classic, pcg_classic_raw) =
        schedule_density(false, &m, Some(&ilu), &b, pcg_budget, warps);
    let (pcg_piped, pcg_piped_raw) = schedule_density(true, &m, Some(&ilu), &b, pcg_budget, warps);

    println!("barrier epochs per iteration (marginal / raw incl. init):");
    println!("  CG   classic {cg_classic:.2} / {cg_classic_raw:.2}   pipelined {cg_piped:.2} / {cg_piped_raw:.2}");
    println!("  PCG  classic {pcg_classic:.2} / {pcg_classic_raw:.2}   pipelined {pcg_piped:.2} / {pcg_piped_raw:.2}");

    let schedule_pass = cg_piped <= 1.01
        && pcg_piped <= 2.02
        && cg_classic >= 3.0
        && pcg_classic >= 3.0
        && cg_piped < cg_classic
        && pcg_piped < pcg_classic;
    if !schedule_pass {
        eprintln!("FAIL: barrier schedule gates (pipelined CG <= 1, PCG <= 2, classic >= 3)");
    }

    // ---- 2. Solve to tolerance across the population. ----
    let mut systems: Vec<(String, Csr)> = vec![(format!("poisson2d_{grid}"), poisson)];
    // `cg_suite` emits its named proxies first and truncates to `count`,
    // so a small request never reaches the synthetic `spd_*` families.
    // Ask for a larger suite (entries are lazy specs — only the taken
    // ones generate) and keep synthetics in the traced-solve size band.
    let opts = SuiteOptions {
        count: 64,
        max_nnz: 40_000,
        seed: 7,
    };
    systems.extend(
        cg_suite(&opts)
            .into_iter()
            .filter(|e| e.name.starts_with("spd_"))
            .filter_map(|e| {
                let a = e.generate();
                (a.nnz() >= 1_000).then_some((e.name, a))
            })
            .take(count),
    );

    let mut rows: Vec<SolveRow> = Vec::new();
    for (name, a) in &systems {
        let tiled = TiledMatrix::from_csr(a);
        let b = rhs(a);
        let precs: Vec<(&'static str, Option<Ilu0>)> = vec![("cg", None), ("pcg", ilu0(a).ok())];
        for (method, prec) in precs {
            if method == "pcg" && prec.is_none() {
                continue; // ILU(0) broke down — CG row still covers the matrix
            }
            let p = prec.as_ref();
            let (classic_us, classic) =
                timed_solve(false, &tiled, p, &b, tol, max_iter, warps, reps);
            let (piped_us, piped) = timed_solve(true, &tiled, p, &b, tol, max_iter, warps, reps);
            let envelope = 5usize.max(classic.iterations.div_ceil(10));
            let drift = classic.iterations.abs_diff(piped.iterations);
            let pass = classic.status_label() == piped.status_label() && drift <= envelope;
            rows.push(SolveRow {
                matrix: name.clone(),
                method,
                n: a.nrows,
                nnz: a.nnz(),
                classic_us,
                classic,
                piped_us,
                piped,
                envelope,
                pass,
            });
        }
    }

    let mut table = Table::new(vec![
        "method",
        "matrix",
        "engine",
        "n",
        "nnz",
        "wall_us",
        "iters",
        "relres",
        "status",
        "barriers_iter",
    ]);
    for r in &rows {
        for (engine, us, rep) in [
            ("classic", r.classic_us, &r.classic),
            ("pipelined", r.piped_us, &r.piped),
        ] {
            table.row(vec![
                r.method.to_string(),
                r.matrix.clone(),
                engine.to_string(),
                r.n.to_string(),
                r.nnz.to_string(),
                format!("{us:.1}"),
                rep.iterations.to_string(),
                format!("{:.3e}", rep.final_relres),
                rep.status_label(),
                metric_cell(barriers_per_iter(rep.trace.as_ref())),
            ]);
        }
    }
    println!("{}", table.render());
    let solves_pass = rows.iter().all(|r| r.pass);
    for r in rows.iter().filter(|r| !r.pass) {
        eprintln!(
            "FAIL: {}/{}: classic {} in {} iters vs pipelined {} in {} iters (envelope {})",
            r.method,
            r.matrix,
            r.classic.status_label(),
            r.classic.iterations,
            r.piped.status_label(),
            r.piped.iterations,
            r.envelope,
        );
    }
    let csv = write_csv("fig_pipeline", &table).expect("write csv");
    println!("wrote {}", csv.display());

    // ---- JSON (hand-rolled; no serde in the offline workspace). ----
    let pass = schedule_pass && solves_pass;
    let mut json = String::new();
    let _ = write!(
        json,
        concat!(
            "{{\n",
            "  \"bench\": \"fig_pipeline\",\n",
            "  \"warps\": {warps},\n",
            "  \"tolerance\": {tol:e},\n",
            "  \"schedule\": {{\n",
            "    \"matrix\": {{\"kind\": \"poisson2d\", \"grid\": {grid}}},\n",
            "    \"budget_iters\": {{\"cg\": {bk}, \"pcg\": {pk}}},\n",
            "    \"barriers_per_iteration\": {{\n",
            "      \"cg\":  {{\"classic\": {cgc:.4}, \"pipelined\": {cgp:.4}, \"classic_raw\": {cgcr:.4}, \"pipelined_raw\": {cgpr:.4}}},\n",
            "      \"pcg\": {{\"classic\": {pcc:.4}, \"pipelined\": {pcp:.4}, \"classic_raw\": {pccr:.4}, \"pipelined_raw\": {pcpr:.4}}}\n",
            "    }},\n",
            "    \"gates\": {{\"pipelined_cg_max\": 1.01, \"pipelined_pcg_max\": 2.02, \"classic_min\": 3.0}},\n",
            "    \"pass\": {sp}\n",
            "  }},\n",
            "  \"solves\": [\n"
        ),
        warps = warps,
        tol = tol,
        grid = grid,
        bk = budget,
        pk = pcg_budget,
        cgc = cg_classic,
        cgp = cg_piped,
        cgcr = cg_classic_raw,
        cgpr = cg_piped_raw,
        pcc = pcg_classic,
        pcp = pcg_piped,
        pccr = pcg_classic_raw,
        pcpr = pcg_piped_raw,
        sp = schedule_pass,
    );
    for (i, r) in rows.iter().enumerate() {
        let engine_json = |us: f64, rep: &SolveReport| {
            format!(
                "{{\"wall_us\": {us:.1}, \"iterations\": {}, \"relres\": {:e}, \"status\": \"{}\", \"barriers_per_iter\": {}}}",
                rep.iterations,
                rep.final_relres,
                rep.status_label(),
                barriers_per_iter(rep.trace.as_ref())
                    .map_or("null".to_string(), |d| format!("{d:.4}")),
            )
        };
        let _ = write!(
            json,
            concat!(
                "    {{\"matrix\": \"{name}\", \"method\": \"{method}\", \"n\": {n}, \"nnz\": {nnz},\n",
                "     \"classic\": {classic},\n",
                "     \"pipelined\": {piped},\n",
                "     \"iter_drift\": {drift}, \"drift_envelope\": {env}, \"pass\": {pass}}}{comma}\n"
            ),
            name = r.matrix,
            method = r.method,
            n = r.n,
            nnz = r.nnz,
            classic = engine_json(r.classic_us, &r.classic),
            piped = engine_json(r.piped_us, &r.piped),
            drift = r.classic.iterations.abs_diff(r.piped.iterations),
            env = r.envelope,
            pass = r.pass,
            comma = if i + 1 < rows.len() { "," } else { "" },
        );
    }
    let _ = write!(json, "  ],\n  \"pass\": {pass}\n}}\n");
    let mut f = std::fs::File::create("BENCH_pipeline.json").expect("create BENCH_pipeline.json");
    f.write_all(json.as_bytes())
        .expect("write BENCH_pipeline.json");
    println!("wrote BENCH_pipeline.json");

    if !pass {
        eprintln!("FAIL: fig_pipeline gates");
        std::process::exit(1);
    }
    println!("fig_pipeline gates PASS");
}
