//! Sparse matrix–vector products.
//!
//! Three kernels, mirroring the paper's implementations:
//!
//! * [`spmv_csr`] — the FP64 CSR kernel the cuSPARSE/hipSPARSE baselines
//!   call.
//! * [`spmv_tiled`] — the tiled kernel at each tile's *initial* precision.
//! * [`spmv_mixed`] — paper **Algorithm 5**: the tiled kernel driven by the
//!   per-column `vis_flag` demands, with on-chip (shared-memory copy)
//!   precision lowering and tile bypass. [`spmv_mixed_par`] runs it over
//!   row stripes on scoped threads, bitwise identical to the serial kernel.
//!
//! Algorithm 5's per-tile body lives here once, in two pieces every
//! executor runs: the crate-private *admission step* (bypass check,
//! one-way in-place lowering of the tile's resident copy, statistics) and
//! the public *row kernel* [`tile_row_sums`] (each nonempty row's CSR-order
//! partial sum, started from `0.0`, added into the output once). The
//! serial and stripe-parallel kernels call both once per tile;
//! [`crate::spmm_mixed`] admits a tile once and runs the row kernel once
//! per active column; the threaded engines in `mf-solver` run the row kernel
//! over their per-warp resident arenas ([`decode_tiles`]), which they
//! re-tier with the same fresh-decode rule ([`retier_values`]) as
//! [`SharedTiles::retier_tile`].

use crate::visflag::VisFlag;
use mf_precision::{Precision, RetierAction, TileTier};
use mf_sparse::{Csr, TiledMatrix};
use std::ops::Range;

/// Reference FP64 CSR SpMV: `y = A x`.
pub fn spmv_csr(a: &Csr, x: &[f64], y: &mut [f64]) {
    a.matvec(x, y);
}

/// Tiled SpMV at initial tile precisions: `y = A x`.
pub fn spmv_tiled(m: &TiledMatrix, x: &[f64], y: &mut [f64]) {
    m.matvec(x, y);
}

/// The "shared memory" copy of the matrix tiles held across iterations by
/// the single-kernel scheme (§III-C). Values are decoded once at load time;
/// the dynamic strategy (§III-D) lowers a tile's precision by requantizing
/// this copy *in place* — a one-way, once-per-level conversion, exactly as
/// the paper describes ("our precision conversion occurs only once in
/// on-chip memory; thereafter, the low-precision values ... can be reused").
///
/// Values live in one flat arena laid out like the matrix's nonzeros (tile
/// `i` at `m.tile_nnz[i]..m.tile_nnz[i + 1]`), so a span of whole tile
/// rows owns a contiguous arena range — which is what
/// lets [`spmv_mixed_par`] hand disjoint `&mut` stripes to worker threads
/// with `split_at_mut`, no locks.
#[derive(Clone, Debug)]
pub struct SharedTiles {
    /// Flat arena of decoded values; tile `i` occupies
    /// `arena[m.tile_nnz[i]..m.tile_nnz[i + 1]]`.
    pub arena: Vec<f64>,
    /// Current (possibly lowered) precision per tile.
    pub current_prec: Vec<Precision>,
}

impl SharedTiles {
    /// Loads (decodes) every tile — the one-time off-chip → on-chip copy.
    pub fn load(m: &TiledMatrix) -> SharedTiles {
        SharedTiles {
            arena: decode_tiles(m, 0..m.tile_count()),
            current_prec: m.tile_prec.clone(),
        }
    }

    /// Decoded values of tile `i` of `m` (the matrix this copy was loaded
    /// from) at its current precision.
    #[inline]
    pub fn tile_values(&self, m: &TiledMatrix, i: usize) -> &[f64] {
        &self.arena[tile_span(m, i)]
    }

    /// Re-tiers tile `i` to `tier` (adaptive controller v2) through
    /// [`retier_values`]: no re-tiling, the tile layout and arena range are
    /// untouched, only the resident values and the precision tag change.
    /// `current_prec` records the tier's storage precision (scaled FP8
    /// accounts as FP8), so the SpMV statistics and the cost model see the
    /// re-tiered traffic with no kernel changes.
    pub fn retier_tile(&mut self, m: &TiledMatrix, i: usize, tier: TileTier) {
        retier_values(m, i, tier, &mut self.arena[tile_span(m, i)]);
        self.current_prec[i] = tier.storage();
    }

    /// Applies a whole re-tier plan, in action order.
    pub fn apply_retier(&mut self, m: &TiledMatrix, actions: &[RetierAction]) {
        for a in actions {
            self.retier_tile(m, a.tile as usize, a.to);
        }
    }
}

/// Tile `i`'s nonzero range, which is also its place in the arena.
pub(crate) fn tile_span(m: &TiledMatrix, i: usize) -> Range<usize> {
    m.tile_nnz[i] as usize..m.tile_nnz[i + 1] as usize
}

/// Decodes tiles `tiles` of `m` into one flat arena — the off-chip →
/// on-chip copy. Tile `i` lands at
/// `m.tile_nnz[i] - m.tile_nnz[tiles.start]` onward, in tile order.
pub fn decode_tiles(m: &TiledMatrix, tiles: Range<usize>) -> Vec<f64> {
    let base = m.tile_nnz[tiles.start] as usize;
    let mut arena = vec![0.0; m.tile_nnz[tiles.end] as usize - base];
    for i in tiles {
        let span = tile_span(m, i);
        m.decode_tile_into(i, &mut arena[span.start - base..span.end - base]);
    }
    arena
}

/// Re-tiers one resident tile copy: `vals` (tile `i`'s values) becomes a
/// fresh decode of the *classification-time* stored values, quantized to
/// `tier`. Unlike the one-way §III-D lowering, which deliberately
/// requantizes the current on-chip copy, re-tiering always starts from a
/// fresh decode: quantizing an already-quantized copy would compound
/// rounding, making the values depend on the plan history rather than on
/// the plan — and promotion would be impossible.
pub fn retier_values(m: &TiledMatrix, i: usize, tier: TileTier, vals: &mut [f64]) {
    m.decode_tile_into(i, vals);
    tier.quantize_slice(vals);
}

/// Execution statistics of one mixed-precision SpMV — feeds both the cost
/// model (weighted FLOPs/bytes) and the Fig. 11 per-precision accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MixedSpmvStats {
    /// Tiles actually multiplied.
    pub tiles_computed: usize,
    /// Tiles skipped by the bypass rule.
    pub tiles_bypassed: usize,
    /// On-chip precision conversions performed during this call.
    pub conversions: usize,
    /// Nonzeros multiplied, by executed precision `[FP64, FP32, FP16, FP8]`.
    pub nnz_by_prec: [usize; 4],
    /// Nonzeros skipped by bypass.
    pub nnz_bypassed: usize,
}

impl MixedSpmvStats {
    /// FP64-equivalent FLOPs performed (2 per nonzero, weighted by the
    /// executed precision's throughput ratio).
    pub fn weighted_flops(&self) -> f64 {
        let mut f = 0.0;
        for (code, &n) in self.nnz_by_prec.iter().enumerate() {
            let p = Precision::from_tile_code(code as u8).unwrap();
            f += 2.0 * n as f64 * p.flop_cost();
        }
        f
    }

    /// Value bytes touched (per executed precision) — the bandwidth the
    /// kernel would consume if the tile were streamed from global memory;
    /// on-chip resident tiles don't pay it after the first load.
    pub fn value_bytes(&self) -> usize {
        self.bytes_by_precision().iter().sum::<u64>() as usize
    }

    /// Value bytes split per executed precision `[FP64, FP32, FP16, FP8]`
    /// — the per-precision breakdown of [`value_bytes`], recorded as
    /// `SpmvBytes` trace events and summed by the trace-timeline bench.
    ///
    /// [`value_bytes`]: MixedSpmvStats::value_bytes
    pub fn bytes_by_precision(&self) -> [u64; 4] {
        let mut bytes = [0u64; 4];
        for (code, &n) in self.nnz_by_prec.iter().enumerate() {
            bytes[code] = (n * Precision::from_tile_code(code as u8).unwrap().bytes()) as u64;
        }
        bytes
    }

    /// Total nonzeros considered (computed + bypassed).
    pub fn nnz_total(&self) -> usize {
        self.nnz_by_prec.iter().sum::<usize>() + self.nnz_bypassed
    }

    /// Merges another call's stats (per-iteration accumulation).
    pub fn merge(&mut self, o: &MixedSpmvStats) {
        self.tiles_computed += o.tiles_computed;
        self.tiles_bypassed += o.tiles_bypassed;
        self.conversions += o.conversions;
        for i in 0..4 {
            self.nnz_by_prec[i] += o.nnz_by_prec[i];
        }
        self.nnz_bypassed += o.nnz_bypassed;
    }
}

/// Paper **Algorithm 5**: mixed-precision SpMV `y = A x` with per-column
/// precision demands.
///
/// For every tile: look up `vis_flag[TileColidx[i]]`; bypass if demanded;
/// otherwise lower the shared-memory copy once if the demand is narrower
/// than the tile's current precision, and multiply using the (possibly
/// lowered) on-chip values.
///
/// `vis_flags` must have one entry per tile column (`m.tile_cols`) — produced
/// by [`crate::visflag::retrieve_vis_flags`] with `segment_len == tile_size`.
pub fn spmv_mixed(
    m: &TiledMatrix,
    shared: &mut SharedTiles,
    vis_flags: &[VisFlag],
    x: &[f64],
    y: &mut [f64],
) -> MixedSpmvStats {
    check_mixed_inputs(m, vis_flags, x, y, 1);
    y.fill(0.0);
    mixed_span(
        m,
        vis_flags,
        x,
        0..m.tile_count(),
        y,
        0,
        &mut shared.arena,
        0,
        &mut shared.current_prec,
    )
}

/// The shape contract of the mixed kernels over `k` column-major vectors.
pub(crate) fn check_mixed_inputs(
    m: &TiledMatrix,
    vis_flags: &[VisFlag],
    x: &[f64],
    y: &[f64],
    k: usize,
) {
    assert_eq!(x.len(), m.ncols * k, "x must be ncols × k column-major");
    assert_eq!(y.len(), m.nrows * k, "y must be nrows × k column-major");
    assert!(
        vis_flags.len() >= m.tile_cols,
        "need one vis_flag per tile column: {} < {}",
        vis_flags.len(),
        m.tile_cols
    );
}

/// Algorithm 5's admission step for tile `i`, whose resident values are
/// `vals` at precision `prec`: bypass the tile if its column's flag says
/// so, otherwise lower the copy once, in place, when the demand is
/// narrower than `prec` (one-way, §III-D), and count the work in `stats`.
/// Returns whether the tile is to be multiplied.
#[inline]
pub(crate) fn admit(
    m: &TiledMatrix,
    i: usize,
    vis_flags: &[VisFlag],
    vals: &mut [f64],
    prec: &mut Precision,
    stats: &mut MixedSpmvStats,
) -> bool {
    let v_f = vis_flags[m.tile_colidx[i] as usize];
    if v_f == VisFlag::Bypass {
        stats.tiles_bypassed += 1;
        stats.nnz_bypassed += vals.len();
        return false;
    }
    if let Some(demanded) = v_f.demanded() {
        if demanded < *prec {
            *prec = demanded;
            demanded.quantize_slice(vals);
            stats.conversions += 1;
        }
    }
    stats.tiles_computed += 1;
    stats.nnz_by_prec[prec.tile_code() as usize] += vals.len();
    true
}

/// Algorithm 5's row kernel for tile `i` with resident values `vals`: for
/// each nonempty row, the partial sum of `vals · x` in CSR order, started
/// from `0.0`, is added once into `out[local_row]` — `out[0]` is the tile
/// row's first matrix row. `x` loads the input at a global column index,
/// so plain slices and atomic bit-cells share this code. Called in tile
/// order, this reproduces `TiledMatrix::matvec`'s per-row summation bit
/// for bit.
#[inline]
pub fn tile_row_sums(
    m: &TiledMatrix,
    i: usize,
    vals: &[f64],
    x: impl Fn(usize) -> f64,
    out: &mut [f64],
) {
    let base_col = m.tile_colidx[i] as usize * m.tile_size;
    let nnz_base = m.tile_nnz[i] as usize;
    for ri in m.nonrow[i] as usize..m.nonrow[i + 1] as usize {
        let mut sum = 0.0;
        for k in m.csr_rowptr[ri] as usize..m.csr_rowptr[ri + 1] as usize {
            sum += vals[k - nnz_base] * x(base_col + m.csr_colidx[k] as usize);
        }
        // atomicAdd(u[...], sum) in the kernel; a plain add here because
        // every executor owns its output rows exclusively.
        out[m.row_index[ri] as usize] += sum;
    }
}

/// The Algorithm-5 engine over one contiguous tile span. Both the
/// sequential kernel (one span: every tile) and the stripe-parallel kernel
/// (one span per worker) run *this exact loop*, which is what makes
/// [`spmv_mixed_par`] bitwise-identical to [`spmv_mixed`]: a stripe of
/// whole tile rows owns a disjoint row range of `y` and a contiguous arena
/// range, and within the stripe tiles execute in the same order with the
/// same accumulation order as the sequential engine.
///
/// Slice windows: `y` covers matrix rows `[y_base, y_base + y.len())`,
/// `arena` covers arena indices `[arena_base, ..)`, and `prec` covers tiles
/// `[tiles.start, tiles.end)`. `y` must be pre-zeroed; results accumulate.
#[allow(clippy::too_many_arguments)]
fn mixed_span(
    m: &TiledMatrix,
    vis_flags: &[VisFlag],
    x: &[f64],
    tiles: Range<usize>,
    y: &mut [f64],
    y_base: usize,
    arena: &mut [f64],
    arena_base: usize,
    prec: &mut [Precision],
) -> MixedSpmvStats {
    let mut stats = MixedSpmvStats::default();
    let prec_base = tiles.start;
    for i in tiles {
        let span = tile_span(m, i);
        let vals = &mut arena[span.start - arena_base..span.end - arena_base];
        if admit(m, i, vis_flags, vals, &mut prec[i - prec_base], &mut stats) {
            let base_row = m.tile_rowidx[i] as usize * m.tile_size;
            tile_row_sums(m, i, vals, |c| x[c], &mut y[base_row - y_base..]);
        }
    }
    stats
}

/// Stripe-parallel mixed-precision SpMV: **bitwise-identical** to
/// [`spmv_mixed`] (outputs *and* stats), the CPU analogue of assigning row
/// tiles to independent thread blocks.
///
/// Tiles are sorted by `(tile_row, tile_col)`, so cutting the tile-row space
/// into `threads` contiguous stripes (balanced by nonzero count) gives every
/// worker a disjoint `y` row range, a contiguous arena range, and a
/// contiguous `current_prec` range — all handed out via `split_at_mut`, so
/// stripes run with no atomics or locks. Precision lowering stays an
/// exclusive in-place write within the owning stripe. Per-stripe stats are
/// merged in stripe order (integer sums — exact).
pub fn spmv_mixed_par(
    m: &TiledMatrix,
    shared: &mut SharedTiles,
    vis_flags: &[VisFlag],
    x: &[f64],
    y: &mut [f64],
    threads: usize,
) -> MixedSpmvStats {
    check_mixed_inputs(m, vis_flags, x, y, 1);
    let t = m.tile_count();
    let threads = threads.max(1).min(m.tile_rows.max(1));
    if threads <= 1 || t == 0 {
        return spmv_mixed(m, shared, vis_flags, x, y);
    }

    let row_start = m.tile_row_starts();

    // Cut the tile-row space into `threads` contiguous stripes balanced by
    // nonzero count.
    let total_nnz = m.tile_nnz[t] as usize;
    let mut cuts = vec![0usize; threads + 1];
    cuts[threads] = m.tile_rows;
    {
        let mut tr = 0usize;
        for (k, cut) in cuts.iter_mut().enumerate().take(threads).skip(1) {
            let target = total_nnz * k / threads;
            while tr < m.tile_rows && (m.tile_nnz[row_start[tr]] as usize) < target {
                tr += 1;
            }
            *cut = tr;
        }
    }

    // Hand every stripe exclusive windows of y / arena / current_prec.
    let (ts, nrows) = (m.tile_size, m.nrows);
    let (mut y_rest, mut arena_rest) = (y, shared.arena.as_mut_slice());
    let mut prec_rest = shared.current_prec.as_mut_slice();
    let parts: Vec<MixedSpmvStats> = std::thread::scope(|s| {
        let handles: Vec<_> = cuts
            .windows(2)
            .map(|c| {
                let tiles = row_start[c[0]]..row_start[c[1]];
                let (y_lo, y_hi) = ((c[0] * ts).min(nrows), (c[1] * ts).min(nrows));
                let (a_lo, a_hi) = (
                    m.tile_nnz[tiles.start] as usize,
                    m.tile_nnz[tiles.end] as usize,
                );
                let (y, rest) = std::mem::take(&mut y_rest).split_at_mut(y_hi - y_lo);
                y_rest = rest;
                let (arena, rest) = std::mem::take(&mut arena_rest).split_at_mut(a_hi - a_lo);
                arena_rest = rest;
                let (prec, rest) = std::mem::take(&mut prec_rest).split_at_mut(tiles.len());
                prec_rest = rest;
                s.spawn(move || {
                    y.fill(0.0);
                    mixed_span(m, vis_flags, x, tiles, y, y_lo, arena, a_lo, prec)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("spmv stripe worker panicked"))
            .collect()
    });
    let mut stats = MixedSpmvStats::default();
    for p in &parts {
        stats.merge(p);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_precision::ClassifyOptions;
    use mf_sparse::Coo;

    fn all_keep(n: usize) -> Vec<VisFlag> {
        vec![VisFlag::Keep; n]
    }

    fn sample() -> (Csr, TiledMatrix) {
        let mut a = Coo::new(8, 8);
        // Exact-in-FP8 values on a banded pattern.
        for i in 0..8usize {
            a.push(i, i, 4.0);
            if i > 0 {
                a.push(i, i - 1, -1.0);
            }
            if i + 1 < 8 {
                a.push(i, i + 1, -2.0);
            }
        }
        let csr = a.to_csr();
        let t = TiledMatrix::from_csr_with(&csr, 2, &ClassifyOptions::default());
        (csr, t)
    }

    #[test]
    fn tiled_matches_csr_on_a_large_matrix() {
        let n = 8_000;
        let mut a = Coo::new(n, n);
        for i in 0..n {
            a.push(i, i, 2.0);
            a.push(i, (i * 13 + 7) % n, 0.5);
            if i > 0 {
                a.push(i, i - 1, -1.0);
            }
        }
        let csr = a.to_csr();
        let t = TiledMatrix::from_csr_with(&csr, 16, &ClassifyOptions::default());
        let x: Vec<f64> = (0..n).map(|i| ((i % 17) as f64) - 8.0).collect();
        let mut y1 = vec![0.0; n];
        let mut y2 = vec![0.0; n];
        spmv_csr(&csr, &x, &mut y1);
        spmv_tiled(&t, &x, &mut y2);
        for i in 0..n {
            assert!((y1[i] - y2[i]).abs() < 1e-12, "row {i}");
        }
    }

    #[test]
    fn csr_and_tiled_agree() {
        let (csr, t) = sample();
        let x: Vec<f64> = (0..8).map(|i| i as f64 - 4.0).collect();
        let mut y1 = vec![0.0; 8];
        let mut y2 = vec![0.0; 8];
        spmv_csr(&csr, &x, &mut y1);
        spmv_tiled(&t, &x, &mut y2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn mixed_with_all_keep_matches_tiled() {
        let (_, t) = sample();
        let mut shared = SharedTiles::load(&t);
        let x: Vec<f64> = (0..8).map(|i| (i + 1) as f64).collect();
        let mut y1 = vec![0.0; 8];
        let mut y2 = vec![0.0; 8];
        spmv_tiled(&t, &x, &mut y1);
        let stats = spmv_mixed(&t, &mut shared, &all_keep(t.tile_cols), &x, &mut y2);
        assert_eq!(y1, y2);
        assert_eq!(stats.tiles_bypassed, 0);
        assert_eq!(stats.conversions, 0);
        assert_eq!(stats.nnz_total(), t.nnz());
    }

    #[test]
    fn bypass_skips_columns() {
        let (_, t) = sample();
        let mut shared = SharedTiles::load(&t);
        let mut flags = all_keep(t.tile_cols);
        flags[0] = VisFlag::Bypass; // kill tile column 0 (matrix cols 0..2)
        let x = vec![1.0; 8];
        let mut y = vec![0.0; 8];
        let stats = spmv_mixed(&t, &mut shared, &flags, &x, &mut y);
        assert!(stats.tiles_bypassed > 0);
        // Equivalent to multiplying with x zeroed on the bypassed columns.
        let mut x2 = x.clone();
        x2[0] = 0.0;
        x2[1] = 0.0;
        let mut y2 = vec![0.0; 8];
        spmv_tiled(&t, &x2, &mut y2);
        assert_eq!(y, y2);
    }

    #[test]
    fn lowering_happens_once() {
        let (_, t) = sample();
        let mut shared = SharedTiles::load(&t);
        let mut flags = all_keep(t.tile_cols);
        for f in flags.iter_mut() {
            *f = VisFlag::Fp16;
        }
        let x = vec![1.0; 8];
        let mut y = vec![0.0; 8];
        // Values are FP8-exact -> tiles start at FP8, FP16 demand is *wider*,
        // so no conversion may happen (one-way rule).
        let s1 = spmv_mixed(&t, &mut shared, &flags, &x, &mut y);
        assert_eq!(s1.conversions, 0);
        assert!(shared.current_prec.iter().all(|&p| p == Precision::Fp8));
    }

    #[test]
    fn lowering_quantizes_values() {
        // A tile with a value only exact in FP64; demand FP16.
        let mut a = Coo::new(2, 2);
        a.push(0, 0, 0.1);
        let t = TiledMatrix::from_csr_with(&a.to_csr(), 2, &ClassifyOptions::default());
        assert_eq!(t.tile_prec[0], Precision::Fp64);
        let mut shared = SharedTiles::load(&t);
        let flags = vec![VisFlag::Fp16];
        let x = vec![1.0, 1.0];
        let mut y = vec![0.0; 2];
        let s = spmv_mixed(&t, &mut shared, &flags, &x, &mut y);
        assert_eq!(s.conversions, 1);
        assert_eq!(shared.current_prec[0], Precision::Fp16);
        assert_eq!(y[0], Precision::Fp16.quantize(0.1));
        // Second call: no further conversion.
        let s2 = spmv_mixed(&t, &mut shared, &flags, &x, &mut y);
        assert_eq!(s2.conversions, 0);
        // Demanding FP8 later lowers further.
        let s3 = spmv_mixed(&t, &mut shared, &[VisFlag::Fp8], &x, &mut y);
        assert_eq!(s3.conversions, 1);
        assert_eq!(y[0], Precision::Fp8.quantize(Precision::Fp16.quantize(0.1)));
    }

    #[test]
    fn stats_weighted_flops() {
        let s = MixedSpmvStats {
            nnz_by_prec: [10, 0, 0, 80], // 10 FP64 + 80 FP8 nonzeros
            ..Default::default()
        };
        let f = s.weighted_flops();
        assert!((f - (2.0 * 10.0 + 2.0 * 80.0 * 0.125)).abs() < 1e-12);
        assert_eq!(s.value_bytes(), 10 * 8 + 80);
        assert_eq!(s.bytes_by_precision(), [80, 0, 0, 80]);
        assert_eq!(
            s.bytes_by_precision().iter().sum::<u64>() as usize,
            s.value_bytes(),
            "per-precision bytes sum to the total"
        );
    }

    #[test]
    fn stats_merge() {
        let mut a = MixedSpmvStats {
            tiles_computed: 1,
            nnz_by_prec: [1, 0, 0, 0],
            ..Default::default()
        };
        let b = MixedSpmvStats {
            tiles_bypassed: 2,
            nnz_bypassed: 5,
            conversions: 1,
            nnz_by_prec: [0, 0, 0, 3],
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.tiles_bypassed, 2);
        assert_eq!(a.nnz_total(), 9);
    }

    #[test]
    fn retier_decodes_fresh_not_compounded() {
        use mf_precision::{pick_scale_exp, TileTier};
        // A tile with a value only exact in FP64.
        let mut a = Coo::new(2, 2);
        a.push(0, 0, 0.1);
        let t = TiledMatrix::from_csr_with(&a.to_csr(), 2, &ClassifyOptions::default());
        let mut shared = SharedTiles::load(&t);
        // Degrade the on-chip copy first (the §III-D one-way path)...
        let mut y = [0.0; 2];
        spmv_mixed(&t, &mut shared, &[VisFlag::Fp8], &[1.0; 2], &mut y);
        assert_eq!(shared.tile_values(&t, 0)[0], Precision::Fp8.quantize(0.1));
        // ...then re-tier to FP16: the result must be FP16(0.1), NOT
        // FP16(FP8(0.1)) — a fresh decode, not a compounded requantize.
        shared.retier_tile(&t, 0, TileTier::Full(Precision::Fp16));
        assert_eq!(shared.tile_values(&t, 0)[0], Precision::Fp16.quantize(0.1));
        assert_eq!(shared.current_prec[0], Precision::Fp16);
        // Promotion back to the classification tier restores the value.
        shared.retier_tile(&t, 0, TileTier::Full(Precision::Fp64));
        assert_eq!(shared.tile_values(&t, 0)[0], 0.1);
        // Scaled FP8 applies the scaled codec and accounts as FP8.
        let e = pick_scale_exp(0.1);
        shared.retier_tile(&t, 0, TileTier::ScaledFp8 { scale_exp: e });
        assert_eq!(
            shared.tile_values(&t, 0)[0],
            mf_precision::quantize_scaled_e4m3(0.1, e)
        );
        assert_eq!(shared.current_prec[0], Precision::Fp8);
        // Within the documented scaled-FP8 round-trip envelope.
        assert!((shared.tile_values(&t, 0)[0] - 0.1).abs() <= 0.1 * 2f64.powi(-4));
    }

    #[test]
    fn mixed_par_bitwise_matches_serial() {
        let n = 4_000;
        let mut a = Coo::new(n, n);
        for i in 0..n {
            a.push(i, i, 3.0 + (i % 5) as f64 * 0.1);
            a.push(i, (i * 31 + 3) % n, 0.25);
            if i > 0 {
                a.push(i, i - 1, -0.125);
            }
        }
        let t = TiledMatrix::from_csr_with(&a.to_csr(), 8, &ClassifyOptions::default());
        let x: Vec<f64> = (0..n).map(|i| ((i % 23) as f64) * 0.37 - 4.0).collect();
        // Mixed flag pattern: bypass some columns, demand lowering on others.
        let flags: Vec<VisFlag> = (0..t.tile_cols)
            .map(|c| match c % 5 {
                0 => VisFlag::Bypass,
                1 => VisFlag::Fp16,
                2 => VisFlag::Fp8,
                3 => VisFlag::Fp32,
                _ => VisFlag::Keep,
            })
            .collect();
        for threads in [2, 3, 4, 7] {
            let mut sh1 = SharedTiles::load(&t);
            let mut sh2 = SharedTiles::load(&t);
            let mut y1 = vec![0.0; n];
            let mut y2 = vec![0.0; n];
            let s1 = spmv_mixed(&t, &mut sh1, &flags, &x, &mut y1);
            let s2 = spmv_mixed_par(&t, &mut sh2, &flags, &x, &mut y2, threads);
            assert_eq!(s1, s2, "stats differ at {threads} threads");
            assert!(
                y1.iter().zip(&y2).all(|(a, b)| a.to_bits() == b.to_bits()),
                "outputs not bitwise-identical at {threads} threads"
            );
            assert_eq!(sh1.current_prec, sh2.current_prec);
            assert_eq!(sh1.arena, sh2.arena);
        }
    }
}
