//! The blocked-CG determinism contract: a batched solve is bitwise
//! identical, per column, to the k independent single-RHS solves it
//! replaces (partial-convergence strategy disabled on both sides).

use mf_gpu::{CostModel, DeviceSpec};
use mf_kernels::{blas1, SharedTiles};
use mf_solver::block::{run_cg_block_ws, BlockWorkspace, ColumnStatus};
use mf_solver::cg::run_cg;
use mf_solver::coster::{Coster, SingleCoster};
use mf_solver::partial::PartialState;
use mf_solver::{SolverConfig, SolverWorkspace};
use mf_sparse::{Coo, Csr, TiledMatrix};

fn poisson1d(n: usize) -> Csr {
    let mut a = Coo::new(n, n);
    for i in 0..n {
        a.push(i, i, 4.0);
        if i > 0 {
            a.push(i, i - 1, -1.0);
        }
        if i + 1 < n {
            a.push(i, i + 1, -1.0);
        }
    }
    a.to_csr()
}

fn seeded_vec(n: usize, seed: u64) -> Vec<f64> {
    let mut s = seed;
    (0..n)
        .map(|_| {
            s = s.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^= z >> 31;
            (z as f64 / u64::MAX as f64) * 2.0 - 1.0
        })
        .collect()
}

/// Diagonally dominant SPD tridiagonal with noisy (not exactly
/// representable) values, so tiles classify at full precision and the
/// adaptive controller has demotion headroom.
fn noisy_spd(n: usize, seed: u64) -> Csr {
    let noise = seeded_vec(n, seed);
    let mut a = Coo::new(n, n);
    for (i, &w) in noise.iter().enumerate() {
        a.push(i, i, 4.0 + 0.3 * w.abs());
        if i + 1 < n {
            let v = -1.0 + 0.1 * w;
            a.push(i, i + 1, v);
            a.push(i + 1, i, v);
        }
    }
    a.to_csr()
}

fn single_solve(a: &Csr, cfg: &SolverConfig, b: &[f64]) -> mf_solver::SolveReport {
    let m = TiledMatrix::from_csr_with(a, cfg.tile_size, &mf_precision::ClassifyOptions::default());
    let mut shared = SharedTiles::load(&m);
    let coster = Coster::Single(SingleCoster::new(
        CostModel::new(DeviceSpec::a100()),
        &m,
        cfg.tile_size,
    ));
    let eps_abs = cfg.tolerance * blas1::norm2(b);
    let mut partial = PartialState::new(false, m.tile_cols, cfg.tile_size, eps_abs);
    run_cg(
        &m,
        &mut shared,
        None,
        b,
        cfg,
        &coster,
        &mut partial,
        &mut SolverWorkspace::new(),
    )
}

#[test]
fn batched_columns_are_bitwise_single_solves() {
    let n = 180;
    let a = poisson1d(n);
    let cfg = SolverConfig {
        partial_convergence: false,
        ..SolverConfig::default()
    };
    let k = 4;
    // Column 2 is a zero RHS — exercises the trivial-convergence path
    // inside a batch.
    let mut b = Vec::new();
    for j in 0..k {
        if j == 2 {
            b.extend(std::iter::repeat_n(0.0, n));
        } else {
            b.extend(seeded_vec(n, j as u64 + 1));
        }
    }

    let m =
        TiledMatrix::from_csr_with(&a, cfg.tile_size, &mf_precision::ClassifyOptions::default());
    let mut shared = SharedTiles::load(&m);
    let coster = Coster::Single(SingleCoster::new(
        CostModel::new(DeviceSpec::a100()),
        &m,
        cfg.tile_size,
    ));
    let res = run_cg_block_ws(
        &m,
        &mut shared,
        &b,
        k,
        &cfg,
        &coster,
        &mut BlockWorkspace::new(),
    );

    for j in 0..k {
        let bj = &b[j * n..(j + 1) * n];
        let solo = single_solve(&a, &cfg, bj);
        let col = &res.columns[j];
        assert_eq!(col.status, ColumnStatus::Converged, "column {j}");
        assert_eq!(col.iterations, solo.iterations, "column {j}");
        assert_eq!(col.x, solo.x, "column {j} must be bitwise the solo solve");
        assert!(
            col.final_relres == solo.final_relres
                || (j == 2 && col.final_relres == 0.0 && solo.final_relres == 0.0),
            "column {j}: {} vs {}",
            col.final_relres,
            solo.final_relres
        );
    }

    // The amortization actually happened: one SpMM pass per lockstep
    // iteration, i.e. the pass count equals the slowest column's iteration
    // count, not the sum over columns.
    let max_iters = res.columns.iter().map(|c| c.iterations).max().unwrap();
    assert_eq!(res.spmm_passes, max_iters);
    let sum_iters: usize = res.columns.iter().map(|c| c.iterations).sum();
    assert!(res.spmm_passes < sum_iters, "no amortization for k>1");
}

#[test]
fn k1_batch_matches_single_solve() {
    let n = 95;
    let a = poisson1d(n);
    let cfg = SolverConfig {
        partial_convergence: false,
        ..SolverConfig::default()
    };
    let b = seeded_vec(n, 7);
    let solo = single_solve(&a, &cfg, &b);

    let m =
        TiledMatrix::from_csr_with(&a, cfg.tile_size, &mf_precision::ClassifyOptions::default());
    let mut shared = SharedTiles::load(&m);
    let coster = Coster::Single(SingleCoster::new(
        CostModel::new(DeviceSpec::a100()),
        &m,
        cfg.tile_size,
    ));
    let res = run_cg_block_ws(
        &m,
        &mut shared,
        &b,
        1,
        &cfg,
        &coster,
        &mut BlockWorkspace::new(),
    );
    assert_eq!(res.columns[0].x, solo.x);
    assert_eq!(res.columns[0].iterations, solo.iterations);
}

#[test]
fn breakdown_column_detaches_without_poisoning_batch() {
    // Column 1's system is negative definite (A = -I on that RHS is not
    // expressible per column — instead drive breakdown via an indefinite
    // operator for the whole batch and confirm every column detaches
    // rather than NaN-spinning).
    let n = 48;
    let mut coo = Coo::new(n, n);
    for i in 0..n {
        coo.push(i, i, -1.0);
    }
    let a = coo.to_csr();
    let cfg = SolverConfig {
        partial_convergence: false,
        ..SolverConfig::default()
    };
    let m =
        TiledMatrix::from_csr_with(&a, cfg.tile_size, &mf_precision::ClassifyOptions::default());
    let mut shared = SharedTiles::load(&m);
    let coster = Coster::Single(SingleCoster::new(
        CostModel::new(DeviceSpec::a100()),
        &m,
        cfg.tile_size,
    ));
    let b: Vec<f64> = (0..2).flat_map(|j| seeded_vec(n, j + 1)).collect();
    let res = run_cg_block_ws(
        &m,
        &mut shared,
        &b,
        2,
        &cfg,
        &coster,
        &mut BlockWorkspace::new(),
    );
    for c in &res.columns {
        assert_eq!(c.status, ColumnStatus::Detached);
        assert!(c.x.is_empty(), "detached columns carry no iterate");
    }
    assert_eq!(res.detached(), vec![0, 1]);
    assert_eq!(res.spmm_passes, 1, "breakdown detected on the first pass");
}

#[test]
fn adaptive_config_is_inert_in_the_lockstep() {
    // The blocked core must ignore `SolverConfig::adaptive` entirely: a
    // re-tier plan is a function of one residual trajectory, and applying
    // any column's plan to the shared tile state would couple the
    // batch-mates' arithmetic. The serving layer routes adaptive configs
    // around the lockstep (k independent solves); this pins the other half
    // of that contract — an armed controller reaching the lockstep anyway
    // changes nothing, bitwise.
    let n = 140;
    let a = noisy_spd(n, 3);
    let base = SolverConfig {
        partial_convergence: false,
        ..SolverConfig::default()
    };
    let armed = SolverConfig {
        adaptive: Some(mf_solver::AdaptiveConfig::default()),
        ..base.clone()
    };
    let k = 3;
    let b: Vec<f64> = (0..k).flat_map(|j| seeded_vec(n, j as u64 + 5)).collect();

    let m = TiledMatrix::from_csr_with(
        &a,
        base.tile_size,
        &mf_precision::ClassifyOptions::default(),
    );
    let coster = Coster::Single(SingleCoster::new(
        CostModel::new(DeviceSpec::a100()),
        &m,
        base.tile_size,
    ));
    let run = |cfg: &SolverConfig| {
        let mut shared = SharedTiles::load(&m);
        run_cg_block_ws(
            &m,
            &mut shared,
            &b,
            k,
            cfg,
            &coster,
            &mut BlockWorkspace::new(),
        )
    };
    let plain = run(&base);
    let with_controller = run(&armed);
    for j in 0..k {
        assert_eq!(
            plain.columns[j].x, with_controller.columns[j].x,
            "column {j}: an armed adaptive config must be inert in the lockstep"
        );
        assert_eq!(
            plain.columns[j].iterations,
            with_controller.columns[j].iterations
        );
    }

    // Sanity (non-vacuity): the same armed config does re-tier through the
    // single-RHS adaptive path on this matrix.
    let solo = single_solve(&a, &armed, &b[..n]);
    assert!(
        !solo.retier_trail.is_empty(),
        "expected the armed controller to fire on the single-RHS path"
    );
}

#[test]
fn workspace_reuse_across_batches_is_clean() {
    // Interleave different n and k through one workspace: results must be
    // bitwise equal to fresh-workspace runs (ensure() zero-fills).
    let cfg = SolverConfig {
        partial_convergence: false,
        ..SolverConfig::default()
    };
    let mut ws = BlockWorkspace::new();
    for (n, k) in [(100usize, 3usize), (37, 1), (250, 2), (37, 4)] {
        let a = poisson1d(n);
        let b: Vec<f64> = (0..k).flat_map(|j| seeded_vec(n, j as u64 + 11)).collect();
        let m = TiledMatrix::from_csr_with(
            &a,
            cfg.tile_size,
            &mf_precision::ClassifyOptions::default(),
        );
        let coster = Coster::Single(SingleCoster::new(
            CostModel::new(DeviceSpec::a100()),
            &m,
            cfg.tile_size,
        ));
        let mut sh1 = SharedTiles::load(&m);
        let warm = run_cg_block_ws(&m, &mut sh1, &b, k, &cfg, &coster, &mut ws);
        let mut sh2 = SharedTiles::load(&m);
        let fresh = run_cg_block_ws(
            &m,
            &mut sh2,
            &b,
            k,
            &cfg,
            &coster,
            &mut BlockWorkspace::new(),
        );
        for j in 0..k {
            assert_eq!(warm.columns[j].x, fresh.columns[j].x, "n={n} k={k} col {j}");
            assert_eq!(warm.columns[j].iterations, fresh.columns[j].iterations);
        }
    }
}
