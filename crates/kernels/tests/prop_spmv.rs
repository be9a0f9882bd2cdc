//! Pins the Algorithm-5 executors bit for bit against the tile loops they
//! grew from, kept here verbatim as the oracle: the sequential tile span
//! behind `spmv_mixed`, the column-block pass of `spmm_mixed`, and the
//! fresh-decode re-tier of `SharedTiles::retier_tile`.
//!
//! The oracle keeps its own tile-order store ([`Store`]: one decoded arena
//! in tile order plus a precision per tile), so the executors may lay
//! their resident copy out however they like. Every `y` bit, every tile's
//! resident bits (read through `SharedTiles::tile_values`), every
//! `current_prec` entry and every [`MixedSpmvStats`] field must match
//! after each round, over random
//! rectangular matrices whose values span many magnitudes (so
//! classification picks every precision), tile sizes around the small and
//! ragged edges, vis-flag patterns mixing `Keep`, `Bypass` and every
//! demanded precision, re-tier plans applied between rounds, and inputs
//! full of NaN and ±Inf. `spmv_mixed_par` runs at 2 threads; every active
//! `spmm_mixed` column must also be bitwise the oracle SpMV of that
//! column.
//!
//! A second property pins `SharedTiles::csr_order`: on uniform-FP64
//! tiles, `spmv_mixed` under all-`Keep` flags is bitwise `spmv_csr`, and a
//! `Bypass` flag panics.

use mf_kernels::{
    spmm_mixed, spmv_csr, spmv_mixed, spmv_mixed_par, MixedSpmvStats, SharedTiles, VisFlag,
};
use mf_precision::{ClassifyOptions, Precision, RetierAction, TileTier};
use mf_sparse::{Coo, Csr, TiledMatrix};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

// ---- Oracle: the Algorithm-5 tile loops, verbatim ----------------------

/// The oracle's resident copy: every tile decoded in tile order (tile `i`
/// at `m.tile_nnz[i]..m.tile_nnz[i + 1]`) and its current precision.
#[derive(Clone)]
struct Store {
    arena: Vec<f64>,
    current_prec: Vec<Precision>,
}

impl Store {
    fn load(m: &TiledMatrix) -> Store {
        let mut arena = vec![0.0; m.nnz()];
        for i in 0..m.tile_count() {
            m.decode_tile_into(
                i,
                &mut arena[m.tile_nnz[i] as usize..m.tile_nnz[i + 1] as usize],
            );
        }
        Store {
            arena,
            current_prec: m.tile_prec.clone(),
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn oracle_span(
    m: &TiledMatrix,
    vis_flags: &[VisFlag],
    x: &[f64],
    tiles: std::ops::Range<usize>,
    tile_off: &[usize],
    y: &mut [f64],
    y_base: usize,
    arena: &mut [f64],
    arena_base: usize,
    prec: &mut [Precision],
) -> MixedSpmvStats {
    let mut stats = MixedSpmvStats::default();
    let prec_base = tiles.start;
    for i in tiles {
        let v_f = vis_flags[m.tile_colidx[i] as usize];
        let tile_nnz = (m.tile_nnz[i + 1] - m.tile_nnz[i]) as usize;
        if v_f == VisFlag::Bypass {
            stats.tiles_bypassed += 1;
            stats.nnz_bypassed += tile_nnz;
            continue;
        }
        let pi = i - prec_base;
        let (a_lo, a_hi) = (tile_off[i] - arena_base, tile_off[i + 1] - arena_base);
        if let Some(demanded) = v_f.demanded() {
            if demanded < prec[pi] {
                prec[pi] = demanded;
                demanded.quantize_slice(&mut arena[a_lo..a_hi]);
                stats.conversions += 1;
            }
        }
        let exec_prec = prec[pi];
        stats.tiles_computed += 1;
        stats.nnz_by_prec[exec_prec.tile_code() as usize] += tile_nnz;

        let base_row = m.tile_rowidx[i] as usize * m.tile_size;
        let base_col = m.tile_colidx[i] as usize * m.tile_size;
        let nnz_base = m.tile_nnz[i] as usize;
        let vals = &arena[a_lo..a_hi];
        for ri in m.nonrow[i] as usize..m.nonrow[i + 1] as usize {
            let r = base_row + m.row_index[ri] as usize;
            let mut sum = 0.0;
            for k in m.csr_rowptr[ri] as usize..m.csr_rowptr[ri + 1] as usize {
                sum += vals[k - nnz_base] * x[base_col + m.csr_colidx[k] as usize];
            }
            y[r - y_base] += sum;
        }
    }
    stats
}

fn oracle_spmv(
    m: &TiledMatrix,
    shared: &mut Store,
    vis_flags: &[VisFlag],
    x: &[f64],
    y: &mut [f64],
) -> MixedSpmvStats {
    y.fill(0.0);
    let tile_off: Vec<usize> = m.tile_nnz.iter().map(|&o| o as usize).collect();
    oracle_span(
        m,
        vis_flags,
        x,
        0..m.tile_count(),
        &tile_off,
        y,
        0,
        &mut shared.arena,
        0,
        &mut shared.current_prec,
    )
}

fn oracle_spmm(
    m: &TiledMatrix,
    shared: &mut Store,
    vis_flags: &[VisFlag],
    x: &[f64],
    y: &mut [f64],
    active: &[bool],
) -> MixedSpmvStats {
    let (n_in, n_out) = (m.ncols, m.nrows);
    for (j, &live) in active.iter().enumerate() {
        if live {
            y[j * n_out..(j + 1) * n_out].fill(0.0);
        }
    }

    let mut stats = MixedSpmvStats::default();
    for i in 0..m.tile_count() {
        let v_f = vis_flags[m.tile_colidx[i] as usize];
        let tile_nnz = (m.tile_nnz[i + 1] - m.tile_nnz[i]) as usize;
        if v_f == VisFlag::Bypass {
            stats.tiles_bypassed += 1;
            stats.nnz_bypassed += tile_nnz;
            continue;
        }
        let (a_lo, a_hi) = (m.tile_nnz[i] as usize, m.tile_nnz[i + 1] as usize);
        if let Some(demanded) = v_f.demanded() {
            if demanded < shared.current_prec[i] {
                shared.current_prec[i] = demanded;
                demanded.quantize_slice(&mut shared.arena[a_lo..a_hi]);
                stats.conversions += 1;
            }
        }
        let exec_prec = shared.current_prec[i];
        stats.tiles_computed += 1;
        stats.nnz_by_prec[exec_prec.tile_code() as usize] += tile_nnz;

        let base_row = m.tile_rowidx[i] as usize * m.tile_size;
        let base_col = m.tile_colidx[i] as usize * m.tile_size;
        let nnz_base = m.tile_nnz[i] as usize;
        let vals = &shared.arena[a_lo..a_hi];
        for ri in m.nonrow[i] as usize..m.nonrow[i + 1] as usize {
            let r = base_row + m.row_index[ri] as usize;
            let (e_lo, e_hi) = (m.csr_rowptr[ri] as usize, m.csr_rowptr[ri + 1] as usize);
            for (j, _) in active.iter().enumerate().filter(|(_, a)| **a) {
                let xj = &x[j * n_in..(j + 1) * n_in];
                let mut sum = 0.0;
                for e in e_lo..e_hi {
                    sum += vals[e - nnz_base] * xj[base_col + m.csr_colidx[e] as usize];
                }
                y[j * n_out + r] += sum;
            }
        }
    }
    stats
}

fn oracle_retier(m: &TiledMatrix, shared: &mut Store, actions: &[RetierAction]) {
    for a in actions {
        let i = a.tile as usize;
        let (lo, hi) = (m.tile_nnz[i] as usize, m.tile_nnz[i + 1] as usize);
        m.decode_tile_into(i, &mut shared.arena[lo..hi]);
        a.to.quantize_slice(&mut shared.arena[lo..hi]);
        shared.current_prec[i] = a.to.storage();
    }
}

// ---- Generated inputs ---------------------------------------------------

/// splitmix64: every flag pattern, input vector and plan below is a pure
/// function of the drawn seed, so a failing case replays exactly.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const FLAGS: [VisFlag; 5] = [
    VisFlag::Keep,
    VisFlag::Bypass,
    VisFlag::Fp32,
    VisFlag::Fp16,
    VisFlag::Fp8,
];

const TIERS: [TileTier; 5] = [
    TileTier::Full(Precision::Fp64),
    TileTier::Full(Precision::Fp32),
    TileTier::Full(Precision::Fp16),
    TileTier::Full(Precision::Fp8),
    TileTier::ScaledFp8 { scale_exp: 0 },
];

/// One flag per tile column (plus a spare, as the solvers pass), mostly
/// drawn from one round-wide bias so whole rounds of `Keep` or heavy
/// lowering occur alongside fully mixed patterns.
fn flags(mix: &mut Mix, tile_cols: usize) -> Vec<VisFlag> {
    let bias = mix.below(6) as usize;
    (0..=tile_cols)
        .map(|_| match bias {
            5 => FLAGS[mix.below(5) as usize],
            b if mix.below(4) > 0 => FLAGS[b % 5],
            _ => FLAGS[mix.below(5) as usize],
        })
        .collect()
}

/// Finite values over many magnitudes with NaN, ±Inf, ±0 and subnormals
/// mixed in.
fn input(mix: &mut Mix, n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| match mix.below(20) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => -0.0,
            4 => f64::MIN_POSITIVE / 8.0,
            k => {
                ((mix.next() >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 10f64.powi(k as i32 - 12)
            }
        })
        .collect()
}

/// A re-tier plan over a random subset of tiles, in tile order, each
/// moving to any tier (scaled FP8 with a random exponent).
fn plan(mix: &mut Mix, tiles: usize) -> Vec<RetierAction> {
    let mut actions = Vec::new();
    for i in 0..tiles {
        if mix.below(3) > 0 {
            continue;
        }
        let to = match TIERS[mix.below(5) as usize] {
            TileTier::ScaledFp8 { .. } => TileTier::ScaledFp8 {
                scale_exp: mix.below(24) as i16 - 12,
            },
            t => t,
        };
        actions.push(RetierAction {
            tile: i as u32,
            from: TileTier::Full(Precision::Fp64),
            to,
        });
    }
    actions
}

fn matrix(rows: usize, cols: usize, entries: &[(usize, usize, u32)], ts: usize) -> TiledMatrix {
    TiledMatrix::from_csr_with(&csr(rows, cols, entries), ts, &ClassifyOptions::default())
}

/// The column-sorted CSR matrix behind [`matrix`].
fn csr(rows: usize, cols: usize, entries: &[(usize, usize, u32)]) -> Csr {
    let mut a = Coo::new(rows, cols);
    for &(r, c, v) in entries {
        let (r, c) = (r % rows, c % cols);
        // Small integers (exact in FP8) beside values spread over twelve
        // decades, so tiles classify to every precision.
        let val = match v % 4 {
            0 => (v % 9) as f64 - 4.0,
            _ => (v as f64 / 997.0 - 2.0) * 10f64.powi((v % 13) as i32 - 6),
        };
        a.push(r, c, val);
    }
    a.to_csr()
}

// ---- Comparison ---------------------------------------------------------

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn same_state(m: &TiledMatrix, got: &SharedTiles, want: &Store) -> Result<(), TestCaseError> {
    for i in 0..m.tile_count() {
        let span = m.tile_nnz[i] as usize..m.tile_nnz[i + 1] as usize;
        let got_bits: Vec<u64> = got.tile_values(m, i).iter().map(|v| v.to_bits()).collect();
        prop_assert!(
            got_bits == bits(&want.arena[span]),
            "tile {} bits differ",
            i
        );
    }
    prop_assert_eq!(got.current_prec(), &want.current_prec[..]);
    Ok(())
}

const ROUNDS: usize = 4;
const TILE_SIZES: [usize; 6] = [2, 3, 4, 5, 8, 16];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn executors_match_the_verbatim_tile_loops(
        rows in 1usize..70,
        cols in 1usize..70,
        entries in prop::collection::vec((0usize..70, 0usize..70, 0u32..100_000), 0..400),
        ts in 0usize..TILE_SIZES.len(),
        k in 1usize..4,
        seed in 0u64..u64::MAX,
    ) {
        let m = matrix(rows, cols, &entries, TILE_SIZES[ts]);
        let mut mix = Mix(seed);
        let base = SharedTiles::load(&m);
        let (mut serial, mut par, mut block) = (base.clone(), base.clone(), base);
        let mut oracle = Store::load(&m);
        let mut block_oracle = oracle.clone();
        for round in 0..ROUNDS {
            if round > 0 && mix.below(2) == 0 {
                let actions = plan(&mut mix, m.tile_count());
                oracle_retier(&m, &mut oracle, &actions);
                oracle_retier(&m, &mut block_oracle, &actions);
                for s in [&mut serial, &mut par, &mut block] {
                    s.apply_retier(&m, &actions);
                }
                same_state(&m, &serial, &oracle)?;
            }
            let vis = flags(&mut mix, m.tile_cols);

            // Single vector: the serial and 2-thread kernels against the
            // verbatim span.
            let x = input(&mut mix, m.ncols);
            let mut want = vec![f64::NAN; m.nrows];
            let want_stats = oracle_spmv(&m, &mut oracle, &vis, &x, &mut want);
            let mut got = vec![f64::NAN; m.nrows];
            prop_assert_eq!(spmv_mixed(&m, &mut serial, &vis, &x, &mut got), want_stats);
            prop_assert!(bits(&got) == bits(&want), "spmv_mixed y, round {round}");
            same_state(&m, &serial, &oracle)?;
            let mut got = vec![f64::NAN; m.nrows];
            prop_assert_eq!(spmv_mixed_par(&m, &mut par, &vis, &x, &mut got, 2), want_stats);
            prop_assert!(bits(&got) == bits(&want), "spmv_mixed_par y, round {round}");
            same_state(&m, &par, &oracle)?;

            // Column block: inactive columns keep their sentinel, active
            // ones match the verbatim block pass and the per-column SpMV.
            let xb = input(&mut mix, m.ncols * k);
            let active: Vec<bool> = (0..k).map(|j| j == 0 || mix.below(3) > 0).collect();
            let before = block_oracle.clone();
            let mut want = vec![7.25; m.nrows * k];
            let want_stats = oracle_spmm(&m, &mut block_oracle, &vis, &xb, &mut want, &active);
            let mut got = vec![7.25; m.nrows * k];
            prop_assert_eq!(spmm_mixed(&m, &mut block, &vis, &xb, &mut got, &active), want_stats);
            prop_assert!(bits(&got) == bits(&want), "spmm_mixed y, round {round}");
            same_state(&m, &block, &block_oracle)?;
            for j in (0..k).filter(|&j| active[j]) {
                let mut solo = before.clone();
                let mut yj = vec![0.0; m.nrows];
                let xj = &xb[j * m.ncols..(j + 1) * m.ncols];
                prop_assert_eq!(oracle_spmv(&m, &mut solo, &vis, xj, &mut yj), want_stats);
                prop_assert!(
                    bits(&got[j * m.nrows..(j + 1) * m.nrows]) == bits(&yj),
                    "spmm_mixed column {j} vs its SpMV, round {round}"
                );
                prop_assert!(bits(&solo.arena) == bits(&block_oracle.arena), "solo arena bits differ");
                prop_assert_eq!(&solo.current_prec, &block_oracle.current_prec);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn csr_order_copy_computes_spmv_csr(
        rows in 1usize..70,
        cols in 1usize..70,
        entries in prop::collection::vec((0usize..70, 0usize..70, 0u32..100_000), 0..400),
        ts in 2usize..=16,
        seed in 0u64..u64::MAX,
    ) {
        let a = csr(rows, cols, &entries);
        let m = TiledMatrix::from_csr_uniform(&a, ts, Precision::Fp64);
        let mut shared = SharedTiles::load(&m).csr_order();
        let mut mix = Mix(seed);
        let keep = vec![VisFlag::Keep; m.tile_cols];
        for round in 0..ROUNDS {
            let x = input(&mut mix, m.ncols);
            let mut want = vec![f64::NAN; m.nrows];
            spmv_csr(&a, &x, &mut want);
            let mut got = vec![f64::NAN; m.nrows];
            spmv_mixed(&m, &mut shared, &keep, &x, &mut got);
            prop_assert!(bits(&got) == bits(&want), "round {round}");
        }

        let mut bypass = keep;
        bypass[mix.below(m.tile_cols as u64) as usize] = VisFlag::Bypass;
        let (x, mut y) = (vec![1.0; m.ncols], vec![0.0; m.nrows]);
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let bypassed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            spmv_mixed(&m, &mut shared, &bypass, &x, &mut y)
        }));
        std::panic::set_hook(hook);
        prop_assert!(bypassed.is_err(), "a Bypass flag must panic on a CSR-order copy");
    }
}
