//! Multi-device sharding: per-device matrix footprint and interconnect
//! traffic versus shard count (ROADMAP "multi-device sharding").
//!
//! Every matrix of a small SPD population is solved through the sharded
//! engine at shard counts {1, 2, 4} (simulated devices connected by an
//! explicit NVLink-3 [`Interconnect`]) and through the single-device
//! threaded engine at the same warp cap. The sharded engine is
//! deterministic and shard-count invariant by construction, so the
//! figure of merit is the **scaling shape**: how the packed matrix
//! payload splits across devices (weak-scaling memory headroom) and what
//! halo traffic the row-block decomposition pays for it.
//!
//! Gates (exit 1 on failure):
//!
//! * **bitwise invariance** — at *every* shard count the sharded solve's
//!   solution, final residual and trajectory are bitwise identical to the
//!   single-device threaded engine on every matrix;
//! * **footprint split** — on the largest grid matrix at 4 shards, the
//!   largest per-device matrix payload is at most `MF_SHARD_SPLIT_GATE`
//!   (default 0.35) of the single-device payload: the decomposition must
//!   actually shed memory, not mirror the matrix.
//!
//! Output: `bench_out/fig_shard.csv` + `BENCH_shard.json`.
//!
//! Env knobs: `MF_SHARD_GRID` (largest Poisson side, default 96),
//! `MF_SHARD_TOL` (default 1e-10), `MF_SHARD_MAXITER` (default 2000),
//! `MF_SHARD_WARPS` (default 4), `MF_SHARD_SPLIT_GATE` (default 0.35).

use std::fmt::Write as _;
use std::io::Write as _;

use mf_bench::{write_csv, Table};
use mf_collection::{banded_spd, poisson2d, random_spd, ValueClass};
use mf_gpu::Phase;
use mf_solver::threaded::{run_cg_threaded, ThreadedOpts};
use mf_solver::{run_cg_sharded, ShardedReport};
use mf_sparse::{Csr, TiledMatrix};

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

/// `b = A · 1`, the paper's right-hand side.
fn rhs(a: &Csr) -> Vec<f64> {
    let mut b = vec![0.0; a.nrows];
    a.matvec(&vec![1.0; a.ncols], &mut b);
    b
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

struct ShardRow {
    matrix: String,
    n: usize,
    nnz: usize,
    shards: usize,
    rep: ShardedReport,
    bitwise: bool,
    max_shard_bytes: usize,
    total_bytes: usize,
}

fn main() {
    let grid = env_usize("MF_SHARD_GRID", 96).max(8);
    let tol = env_f64("MF_SHARD_TOL", 1e-10);
    let max_iter = env_usize("MF_SHARD_MAXITER", 2000);
    let warps = env_usize("MF_SHARD_WARPS", 4).max(1);
    let split_gate = env_f64("MF_SHARD_SPLIT_GATE", 0.35);
    let shard_counts = [1usize, 2, 4];

    // The largest grid matrix carries the footprint gate; the rest widen
    // the bitwise-invariance evidence across value classes.
    let largest = format!("poisson2d_{grid}x{grid}");
    let systems: Vec<(String, Csr)> = vec![
        (largest.clone(), poisson2d(grid, grid)),
        (
            "poisson2d_40x40".into(),
            poisson2d(grid.min(40), grid.min(40)),
        ),
        (
            "banded_spd_real_600".into(),
            banded_spd(600, 4, ValueClass::Real, 7),
        ),
        (
            "random_spd_wide_300".into(),
            random_spd(300, 5, ValueClass::WideModerate, 11),
        ),
    ];

    println!(
        "fig_shard: {} SPD systems, shards {:?}, tol {tol:e}, {warps} warps",
        systems.len(),
        shard_counts
    );

    let mut rows: Vec<ShardRow> = Vec::new();
    for (name, a) in &systems {
        let m = TiledMatrix::from_csr(a);
        let b = rhs(a);
        let single = run_cg_threaded(&m, &b, tol, max_iter, &ThreadedOpts::new(warps));
        let total_bytes = m.vals_raw().len();
        for &sc in &shard_counts {
            let rep = run_cg_sharded(&m, &b, tol, max_iter, sc, warps);
            let bitwise = rep.iterations == single.iterations
                && rep.converged == single.converged
                && rep.final_relres.to_bits() == single.final_relres.to_bits()
                && bits(&rep.residual_history) == bits(&single.residual_history)
                && bits(&rep.x) == bits(&single.x);
            let max_shard_bytes = rep.per_shard_value_bytes.iter().copied().max().unwrap_or(0);
            rows.push(ShardRow {
                matrix: name.clone(),
                n: a.nrows,
                nnz: a.nnz(),
                shards: sc,
                rep,
                bitwise,
                max_shard_bytes,
                total_bytes,
            });
        }
    }

    let mut table = Table::new(vec![
        "matrix",
        "shards",
        "n",
        "nnz",
        "iters",
        "relres",
        "status",
        "bitwise",
        "max_shard_bytes",
        "split",
        "halo_bytes",
        "halo_msgs",
        "transfer_us",
    ]);
    for r in &rows {
        table.row(vec![
            r.matrix.clone(),
            r.shards.to_string(),
            r.n.to_string(),
            r.nnz.to_string(),
            r.rep.iterations.to_string(),
            format!("{:.3e}", r.rep.final_relres),
            r.rep.status_label(),
            r.bitwise.to_string(),
            r.max_shard_bytes.to_string(),
            format!("{:.3}", r.max_shard_bytes as f64 / r.total_bytes as f64),
            r.rep.halo_bytes.to_string(),
            r.rep.halo_messages.to_string(),
            format!("{:.1}", r.rep.timeline.get(Phase::Transfer)),
        ]);
    }
    println!("{}", table.render());
    let csv = write_csv("fig_shard", &table).expect("write csv");
    println!("wrote {}", csv.display());

    // ---- Gates. ----
    let all_bitwise = rows.iter().all(|r| r.bitwise);
    for r in rows.iter().filter(|r| !r.bitwise) {
        eprintln!(
            "FAIL: {} at {} shards diverged from the single-device engine",
            r.matrix, r.shards
        );
    }
    let split_row = rows
        .iter()
        .find(|r| r.matrix == largest && r.shards == 4)
        .expect("largest grid at 4 shards");
    let split = split_row.max_shard_bytes as f64 / split_row.total_bytes as f64;
    let split_ok = split <= split_gate;
    if !split_ok {
        eprintln!(
            "FAIL: {largest} at 4 shards keeps {split:.3} of the matrix payload on one device (gate {split_gate})"
        );
    }

    // ---- JSON (hand-rolled; no serde in the offline workspace). ----
    let pass = all_bitwise && split_ok;
    let mut json = String::new();
    let _ = write!(
        json,
        concat!(
            "{{\n",
            "  \"bench\": \"fig_shard\",\n",
            "  \"tolerance\": {tol:e},\n",
            "  \"warps\": {warps},\n",
            "  \"gates\": {{\"bitwise_all_shard_counts\": true, \"max_split_at_4_shards\": {gate}}},\n",
            "  \"largest\": \"{largest}\",\n",
            "  \"largest_split_at_4_shards\": {split:.6},\n",
            "  \"rows\": [\n"
        ),
        tol = tol,
        warps = warps,
        gate = split_gate,
        largest = largest,
        split = split,
    );
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            concat!(
                "    {{\"matrix\": \"{name}\", \"n\": {n}, \"nnz\": {nnz}, \"shards\": {shards},\n",
                "     \"iterations\": {iters}, \"relres\": {relres:e}, \"status\": \"{status}\",\n",
                "     \"bitwise\": {bitwise}, \"max_shard_value_bytes\": {msb}, \"total_value_bytes\": {tvb},\n",
                "     \"halo_bytes\": {hb}, \"halo_messages\": {hm}, \"transfer_us\": {tus:.3}}}{comma}\n"
            ),
            name = r.matrix,
            n = r.n,
            nnz = r.nnz,
            shards = r.shards,
            iters = r.rep.iterations,
            relres = r.rep.final_relres,
            status = r.rep.status_label(),
            bitwise = r.bitwise,
            msb = r.max_shard_bytes,
            tvb = r.total_bytes,
            hb = r.rep.halo_bytes,
            hm = r.rep.halo_messages,
            tus = r.rep.timeline.get(Phase::Transfer),
            comma = if i + 1 < rows.len() { "," } else { "" },
        );
    }
    let _ = write!(json, "  ],\n  \"pass\": {pass}\n}}\n");
    let mut f = std::fs::File::create("BENCH_shard.json").expect("create BENCH_shard.json");
    f.write_all(json.as_bytes())
        .expect("write BENCH_shard.json");
    println!("wrote BENCH_shard.json");

    if !pass {
        eprintln!("FAIL: fig_shard gates");
        std::process::exit(1);
    }
    println!("fig_shard gates PASS");
}
