//! **Figure 6 companion**: traces the single-kernel dependency machinery on
//! the paper's own example — a 6×6 matrix stored as five 2×2 tiles in three
//! tile rows, solved by three warps — printing the `d_s`/`d_d`/`d_a`
//! initialization and the per-step schedule, then running the *real*
//! threaded engine on the same system to show the scheme executes
//! concurrently without deadlock.

use mf_gpu::{DepArrays, SpmvSchedule, VectorSchedule};
use mf_precision::ClassifyOptions;
use mf_solver::threaded::{run_cg_threaded, ThreadedOpts};
use mf_sparse::{Coo, TiledMatrix};

fn main() {
    // The Fig. 6 layout: tiles at (0,0), (1,1), (1,2), (2,0), (2,2) of a
    // 6x6 matrix with 2x2 tiles -> d_s = [1, 2, 2]. Values chosen SPD.
    let mut a = Coo::new(6, 6);
    for i in 0..6 {
        a.push(i, i, 8.0);
    }
    // tile (1,2): rows 2-3, cols 4-5
    a.push(2, 4, -1.0);
    a.push(3, 5, -1.0);
    // tile (2,0): rows 4-5, cols 0-1 (and mirror for symmetry -> tile (0,1)?
    // keep the exact tile set of Fig. 6 by mirroring into existing tiles)
    a.push(4, 0, -1.0);
    a.push(5, 1, -1.0);
    a.push(0, 4, -1.0); // mirror entries keep A symmetric; they land in
    a.push(1, 5, -1.0); // tile (0,2), giving d_s = [2, 2, 2]
    a.push(4, 2, -1.0);
    a.push(5, 3, -1.0);
    let csr = a.to_csr();
    let m = TiledMatrix::from_csr_with(&csr, 2, &ClassifyOptions::default());

    println!("Figure 6 — single-kernel dependency machinery on the paper's example\n");
    println!(
        "matrix: 6x6, {} tiles of 2x2 in {} tile rows",
        m.tile_count(),
        m.tile_rows
    );
    for i in 0..m.tile_count() {
        println!(
            "  tile {i}: position ({}, {}), {} nnz, precision {}",
            m.tile_rowidx[i],
            m.tile_colidx[i],
            m.tile_nnz[i + 1] - m.tile_nnz[i],
            m.tile_prec[i]
        );
    }

    let ds = DepArrays::init_ds(&m);
    println!("\nd_s initialization (tiles per tile row): {ds:?}");

    let warps = 3;
    let spmv = SpmvSchedule::for_warps(&m, warps);
    let vecs = VectorSchedule::build(6, 2, warps);
    println!("warps: {warps}  (d_d and d_a track {warps} completions per phase)");
    for w in 0..spmv.warp_count() {
        let (lo, hi) = spmv.warp_tiles[w];
        println!(
            "  warp {w}: SpMV tiles {lo}..{hi} ({} nnz), vector segments {:?}",
            spmv.warp_nnz[w],
            vecs.warp_segments.get(w)
        );
    }

    println!("\nStep protocol per iteration (Algorithm 3):");
    println!("  A: each tile's SpMV lands -> atomicSub(d_s[row_tile]); warps spin until their row tiles drain");
    println!("  B: dot (u, p) per segment -> atomicSub(d_d); spin until 0; alpha = rr/y");
    println!("  C: x += alpha p, r -= alpha u; dot (r, r) -> atomicAdd(d_d); spin until warp_num");
    println!(
        "  D: p = r + beta p -> atomicAdd(d_a); spin until warp_num; in-kernel residual check"
    );

    // Now actually run it, concurrently, with real threads and atomics.
    let mut b = vec![0.0; 6];
    csr.matvec(&[1.0; 6], &mut b);
    let rep = run_cg_threaded(&m, &b, 1e-12, 100, &ThreadedOpts::new(warps));
    println!(
        "\nthreaded engine: {} warps, converged = {} in {} iterations (relres {:.2e})",
        rep.warps, rep.converged, rep.iterations, rep.final_relres
    );
    let err = rep.x.iter().map(|v| (v - 1.0).abs()).fold(0.0f64, f64::max);
    println!("max |x - 1| = {err:.2e}");
    assert!(rep.converged && err < 1e-9);
}
