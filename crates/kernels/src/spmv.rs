//! Sparse matrix–vector products.
//!
//! Three kernels, mirroring the paper's implementations:
//!
//! * [`spmv_csr`] — the FP64 CSR kernel the cuSPARSE/hipSPARSE baselines
//!   call.
//! * [`spmv_tiled`] — the tiled kernel at each tile's *initial* precision.
//! * [`spmv_mixed`] — paper **Algorithm 5**: the tiled kernel driven by the
//!   per-column `vis_flag` demands, with on-chip (shared-memory copy)
//!   precision lowering and tile bypass.
//!
//! Algorithm 5 runs here once, over one resident copy ([`SharedTiles`])
//! laid out in matrix-row order. Each call first runs the *admission
//! step* once per tile column — bypass, one-way in-place lowering of the
//! column's tiles, statistics — then the *row kernel*: each row sums its
//! tile runs in tile order, every run from `0.0`, and adds each run's sum
//! into the row once. That is the order `TiledMatrix::matvec` adds the
//! tiles' partial sums in, so every executor is bitwise that loop:
//! [`spmv_mixed`], its row-striped twin [`spmv_mixed_par`],
//! [`crate::spmm_mixed`] (one pass per group of up to eight columns, one
//! sum pair per column) and the
//! threaded engines in `mf-solver`, whose warps each run the kernel over
//! their own [`RowWindow`].

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

/// The top bit of a resident column index marks the first entry of a tile
/// run (one tile's entries in one row).
const RUN_START: u32 = 1 << 31;

/// The "shared memory" copy of the matrix tiles held across iterations by
/// the single-kernel scheme (§III-C). Values are decoded once at load time;
/// the dynamic strategy (§III-D) lowers a tile's precision by requantizing
/// this copy *in place* — a one-way, once-per-level conversion, exactly as
/// the paper describes ("our precision conversion occurs only once in
/// on-chip memory; thereafter, the low-precision values ... can be reused").
///
/// The values sit in matrix-row order: row `r`'s entries are its tile
/// runs, in tile order, each run in the tile's in-row order. Beside each
/// value is its global column (top bit set on a run's first entry); each
/// nonempty tile row `ri` (the index of `m.csr_rowptr`) records where its
/// run starts, which is how lowering and re-tiering reach a tile. Per tile
/// column the copy keeps its tile count, its nonzeros by current precision
/// and a bound on its widest current precision, so admission costs
/// O(tile columns) per call and walks a column's tiles only to lower them.
///
/// Lowering and re-tiering keep [`SharedTiles::current_prec`] and the
/// column counters in step.
#[derive(Clone, Debug)]
pub struct SharedTiles {
    /// Resident values; row `r` at `rowptr[r]..rowptr[r + 1]`.
    vals: Vec<f64>,
    /// Global column of each value, [`RUN_START`] on each run's first.
    cols: Vec<u32>,
    /// Row offsets into `vals`, length `nrows + 1`.
    rowptr: Vec<u32>,
    /// Offset in `vals` of each nonempty tile row's run.
    run_off: Vec<u32>,
    /// Tiles grouped by tile column: column `c`'s tiles are
    /// `col_tiles[col_start[c]..col_start[c + 1]]`, in tile order. The
    /// grouping is built by the first call that lowers a tile.
    col_start: Vec<u32>,
    col_tiles: Vec<u32>,
    /// Per tile column: nonzeros by current precision `[FP64, FP32, FP16,
    /// FP8]`, and a precision no tile of the column is wider than.
    col_nnz: Vec<[u32; 4]>,
    col_widest: Vec<Precision>,
    /// Current (possibly lowered) precision per tile.
    current_prec: Vec<Precision>,
    /// False once [`SharedTiles::csr_order`] made each row one run.
    runs_follow_tiles: bool,
}

impl SharedTiles {
    /// Loads (decodes) every tile — the one-time off-chip → on-chip copy —
    /// straight into matrix-row order.
    ///
    /// # Panics
    ///
    /// If `m.ncols` needs the top bit of a `u32` column index.
    pub fn load(m: &TiledMatrix) -> SharedTiles {
        assert!(
            (m.ncols as u64) < u64::from(RUN_START),
            "SharedTiles needs ncols < 2^31, got {}",
            m.ncols
        );
        let (nnz, ts) = (m.nnz(), m.tile_size);
        let mut col_start = vec![0u32; m.tile_cols + 1];
        let mut col_nnz = vec![[0u32; 4]; m.tile_cols];
        let mut col_widest = vec![Precision::Fp8; m.tile_cols];
        for i in 0..m.tile_count() {
            let (c, p) = (m.tile_colidx[i] as usize, m.tile_prec[i]);
            col_start[c + 1] += 1;
            col_nnz[c][p.tile_code() as usize] += m.tile_nnz[i + 1] - m.tile_nnz[i];
            col_widest[c] = col_widest[c].max(p);
        }
        for c in 0..m.tile_cols {
            col_start[c + 1] += col_start[c];
        }

        // One tile row at a time: count its rows' entries, decode its
        // tiles (one call per stretch of tiles at one precision, whose
        // packed runs are contiguous), then place each tile's runs at its
        // rows' next free slots, in tile order.
        let mut rowptr = vec![0u32; m.nrows + 1];
        let mut vals = vec![0.0; nnz];
        let mut cols = vec![0u32; nnz];
        let mut run_off = vec![0u32; m.nonempty_row_count()];
        let (mut next, mut decoded) = (vec![0u32; ts], Vec::new());
        let starts = m.tile_row_starts();
        for (tr, tiles) in starts.windows(2).enumerate() {
            let tiles = tiles[0]..tiles[1];
            next.fill(0);
            for ri in m.nonrow[tiles.start] as usize..m.nonrow[tiles.end] as usize {
                next[m.row_index[ri] as usize] += m.csr_rowptr[ri + 1] - m.csr_rowptr[ri];
            }
            let rows = tr * ts..((tr + 1) * ts).min(m.nrows);
            let mut at = rowptr[rows.start];
            for (slot, r) in next.iter_mut().zip(rows) {
                (*slot, at) = (at, at + *slot);
                rowptr[r + 1] = at;
            }
            let base = m.tile_nnz[tiles.start] as usize;
            decoded.resize(m.tile_nnz[tiles.end] as usize - base, 0.0);
            let mut a = tiles.start;
            while a < tiles.end {
                let p = m.tile_prec[a];
                let b = (a + 1..tiles.end)
                    .find(|&b| m.tile_prec[b] != p)
                    .unwrap_or(tiles.end);
                let span = m.tile_nnz[a] as usize - base..m.tile_nnz[b] as usize - base;
                m.vals.decode_run(m.val_offsets[a], p, &mut decoded[span]);
                a = b;
            }
            for i in tiles {
                let base_col = m.tile_colidx[i] * ts as u32;
                for ri in m.nonrow[i] as usize..m.nonrow[i + 1] as usize {
                    let slot = &mut next[m.row_index[ri] as usize];
                    run_off[ri] = *slot;
                    let mut at = *slot as usize;
                    let mut mark = RUN_START;
                    // Element by element: most runs hold one to three
                    // entries, too few for a slice copy to pay.
                    for k in m.csr_rowptr[ri] as usize..m.csr_rowptr[ri + 1] as usize {
                        vals[at] = decoded[k - base];
                        cols[at] = (base_col + u32::from(m.csr_colidx[k])) | mark;
                        mark = 0;
                        at += 1;
                    }
                    *slot = at as u32;
                }
            }
        }

        SharedTiles {
            vals,
            cols,
            rowptr,
            run_off,
            col_start,
            col_tiles: Vec::new(),
            col_nnz,
            col_widest,
            current_prec: m.tile_prec.clone(),
            runs_follow_tiles: true,
        }
    }

    /// This copy with each row summed as one run in its stored order,
    /// from `0.0`, as [`spmv_csr`] sums it: loaded from a column-sorted
    /// matrix's uniform-FP64 tiles, it makes [`spmv_mixed`] under all-`Keep`
    /// flags bitwise [`spmv_csr`]. The baseline libraries multiply so.
    ///
    /// A row's runs no longer follow its tiles, so a `Bypass` flag against
    /// the result panics; lowering and re-tiering still work.
    pub fn csr_order(mut self) -> SharedTiles {
        for c in &mut self.cols {
            *c &= !RUN_START;
        }
        self.runs_follow_tiles = false;
        self
    }

    /// Current (possibly lowered) precision per tile.
    pub fn current_prec(&self) -> &[Precision] {
        &self.current_prec
    }

    /// Tile `i`'s resident values at its current precision, in the tile's
    /// own nonzero order (`m` is the matrix this copy was loaded from).
    pub fn tile_values(&self, m: &TiledMatrix, i: usize) -> Vec<f64> {
        tile_runs(m, &self.run_off, i)
            .flat_map(|run| &self.vals[run])
            .copied()
            .collect()
    }

    /// Re-tiers tile `i` to `tier` (adaptive controller v2): no
    /// re-tiling, the layout is untouched, only the resident values and
    /// the precision tag change. `current_prec` records the tier's storage
    /// precision (scaled FP8 accounts as FP8), so the SpMV statistics and
    /// the cost model see the re-tiered traffic with no kernel changes.
    ///
    /// Unlike the one-way §III-D lowering, which deliberately requantizes
    /// the current on-chip copy, re-tiering always starts from a fresh
    /// decode of the *classification-time* values: quantizing an
    /// already-quantized copy would compound rounding, making the values
    /// depend on the plan history rather than on the plan — and promotion
    /// would be impossible.
    pub fn retier_tile(&mut self, m: &TiledMatrix, i: usize, tier: TileTier) {
        retier_runs(m, &self.run_off, 0, i, tier, &mut self.vals);
        let (c, to) = (m.tile_colidx[i] as usize, tier.storage());
        self.recount(m, c, i, to);
        self.col_widest[c] = self.col_widest[c].max(to);
    }

    /// Applies a whole re-tier plan, in action order.
    pub fn apply_retier(&mut self, m: &TiledMatrix, actions: &[RetierAction]) {
        for a in actions {
            self.retier_tile(m, a.tile as usize, a.to);
        }
    }

    /// Splits the copy into exclusive windows of consecutive rows,
    /// `bounds[w]..bounds[w + 1]` for each `w`, so that concurrent
    /// workers can each run the row kernel over, and re-tier the tiles
    /// of, their own rows. `bounds` must start at 0, end at `nrows` and
    /// never decrease.
    pub fn row_windows(&mut self, bounds: &[usize]) -> Vec<RowWindow<'_>> {
        assert_eq!(bounds.first(), Some(&0), "windows start at row 0");
        assert_eq!(
            bounds.last(),
            Some(&(self.rowptr.len() - 1)),
            "windows end at nrows"
        );
        let mut rest = self.vals.as_mut_slice();
        bounds
            .windows(2)
            .map(|w| {
                let (lo, hi) = (self.rowptr[w[0]] as usize, self.rowptr[w[1]] as usize);
                let (vals, tail) = std::mem::take(&mut rest).split_at_mut(hi - lo);
                rest = tail;
                RowWindow {
                    rows: w[0]..w[1],
                    base: lo,
                    vals,
                    cols: &self.cols,
                    rowptr: &self.rowptr,
                    run_off: &self.run_off,
                }
            })
            .collect()
    }

    /// Groups the tiles by tile column into `col_tiles`.
    fn group_tiles(&mut self, m: &TiledMatrix) {
        let mut fill = self.col_start.clone();
        self.col_tiles = vec![0; m.tile_count()];
        for (i, &c) in m.tile_colidx.iter().enumerate() {
            self.col_tiles[fill[c as usize] as usize] = i as u32;
            fill[c as usize] += 1;
        }
    }

    /// Moves tile `i` (of tile column `c`) to precision `to` in the
    /// column's nonzero counters and in `current_prec`.
    fn recount(&mut self, m: &TiledMatrix, c: usize, i: usize, to: Precision) {
        let n = m.tile_nnz[i + 1] - m.tile_nnz[i];
        self.col_nnz[c][self.current_prec[i].tile_code() as usize] -= n;
        self.col_nnz[c][to.tile_code() as usize] += n;
        self.current_prec[i] = to;
    }

    /// Algorithm 5's admission step for one call, per tile column: bypass
    /// the column's tiles if its flag says so, otherwise lower each tile
    /// wider than the demand once, in place (one-way, §III-D), and count
    /// the work. A column is walked only when its widest-precision bound
    /// exceeds the demand. Returns the call's statistics and whether any
    /// column is bypassed.
    pub(crate) fn admit(
        &mut self,
        m: &TiledMatrix,
        vis_flags: &[VisFlag],
    ) -> (MixedSpmvStats, bool) {
        let mut stats = MixedSpmvStats::default();
        let mut bypass = false;
        for (c, &flag) in vis_flags.iter().enumerate().take(m.tile_cols) {
            let tiles = (self.col_start[c + 1] - self.col_start[c]) as usize;
            if flag == VisFlag::Bypass {
                assert!(
                    self.runs_follow_tiles,
                    "a CSR-order copy cannot bypass a tile column"
                );
                bypass = true;
                stats.tiles_bypassed += tiles;
                stats.nnz_bypassed += self.col_nnz[c].iter().sum::<u32>() as usize;
                continue;
            }
            if let Some(demanded) = flag.demanded().filter(|&d| d < self.col_widest[c]) {
                if self.col_tiles.is_empty() {
                    self.group_tiles(m);
                }
                for t in self.col_start[c] as usize..self.col_start[c + 1] as usize {
                    let i = self.col_tiles[t] as usize;
                    if demanded < self.current_prec[i] {
                        for run in tile_runs(m, &self.run_off, i) {
                            demanded.quantize_slice(&mut self.vals[run]);
                        }
                        self.recount(m, c, i, demanded);
                        stats.conversions += 1;
                    }
                }
                self.col_widest[c] = demanded;
            }
            stats.tiles_computed += tiles;
            for (s, &n) in stats.nnz_by_prec.iter_mut().zip(&self.col_nnz[c]) {
                *s += n as usize;
            }
        }
        (stats, bypass)
    }

    /// [`Self::rows_with`] for one input vector `x`, writing row `r`'s sum
    /// to `y[r - rows.start]`.
    fn rows_into(
        &self,
        ts: usize,
        vis_flags: &[VisFlag],
        bypass: bool,
        x: &[f64],
        rows: Range<usize>,
        y: &mut [f64],
    ) {
        // Rows arrive in order: writing through the iterator spares a
        // bounds check per row.
        let mut out = y.iter_mut();
        let store = |_, [v]: [f64; 1]| {
            if let Some(o) = out.next() {
                *o = v;
            }
        };
        self.rows_with(ts, vis_flags, bypass, rows, |_, c| x[c], store);
    }

    /// The row kernel ([`row_sums`]) over rows `rows`, `K` input vectors
    /// at a time, handing each row's sums to `store`; runs of bypassed
    /// tile columns are skipped when `bypass` is set.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn rows_with<const K: usize>(
        &self,
        ts: usize,
        vis_flags: &[VisFlag],
        bypass: bool,
        rows: Range<usize>,
        x: impl Fn(usize, usize) -> f64 + Copy,
        mut store: impl FnMut(usize, [f64; K]),
    ) {
        let spans = self.rowptr[rows.start..=rows.end].windows(2).zip(rows);
        let span = |w: &[u32]| w[0] as usize..w[1] as usize;
        if bypass {
            let tile_col = tile_col(ts);
            let skip = |c: usize| vis_flags[tile_col(c)] == VisFlag::Bypass;
            for (w, r) in spans {
                store(
                    r,
                    row_sums(&self.cols[span(w)], &self.vals[span(w)], skip, x),
                );
            }
        } else {
            for (w, r) in spans {
                store(
                    r,
                    row_sums(&self.cols[span(w)], &self.vals[span(w)], |_| false, x),
                );
            }
        }
    }
}

/// The tile column of global column `c`, `c / ts`, as a multiply and a
/// shift (a division per run start slowed the bypass path measurably).
/// With `c < 2^31` and a shift of `31 + ⌈log2 ts⌉`, the reciprocal's
/// rounding error stays below `2^-⌈log2 ts⌉ ≤ 1/ts`, so the quotient is
/// exact, and the product stays below `2^63`.
fn tile_col(ts: usize) -> impl Fn(usize) -> usize + Copy {
    let shift = 32 + (ts - 1).ilog2();
    let recip = (1u64 << shift).div_ceil(ts as u64);
    move |c| ((c as u64 * recip) >> shift) as usize
}

/// One worker's exclusive window of consecutive rows of a [`SharedTiles`]
/// copy ([`SharedTiles::row_windows`]): the row kernel over its rows with
/// every tile kept, and fresh-decode re-tiering of the tiles in them.
/// Re-tiering through a window changes only the resident values; the
/// copy's `current_prec` and column counters keep their old tiers.
#[derive(Debug)]
pub struct RowWindow<'a> {
    rows: Range<usize>,
    /// Offset of `vals[0]` in the whole copy.
    base: usize,
    vals: &'a mut [f64],
    cols: &'a [u32],
    rowptr: &'a [u32],
    run_off: &'a [u32],
}

impl RowWindow<'_> {
    /// Row `r`'s sum of `value · x(column)`, all tiles kept — bitwise the
    /// row of [`spmv_mixed`] under all-`Keep` flags. `x` loads the input
    /// at a global column, so plain slices and atomic bit-cells share it.
    #[inline]
    pub fn row_sum(&self, r: usize, x: impl Fn(usize) -> f64) -> f64 {
        debug_assert!(self.rows.contains(&r));
        let (lo, hi) = (self.rowptr[r] as usize, self.rowptr[r + 1] as usize);
        let vals = &self.vals[lo - self.base..hi - self.base];
        let [sum] = row_sums(&self.cols[lo..hi], vals, |_| false, |_, c| x(c));
        sum
    }

    /// Re-tiers, by the [`SharedTiles::retier_tile`] rule, every tile the
    /// plan names whose rows lie in this window.
    pub fn retier(&mut self, m: &TiledMatrix, actions: &[RetierAction]) {
        for a in actions {
            let i = a.tile as usize;
            if self
                .rows
                .contains(&(m.tile_rowidx[i] as usize * m.tile_size))
            {
                retier_runs(m, self.run_off, self.base, i, a.to, self.vals);
            }
        }
    }
}

/// Algorithm 5's row kernel over one row's resident entries, for `K`
/// input vectors at once (`x(j, column)` loads vector `j`): in each lane,
/// each tile run sums `value · x` from `0.0` (runs whose tile column
/// `skip`s contribute nothing), and every run's sum is added into the
/// row's sum once, from `0.0`, in tile order ([`flush`]). The lanes are
/// fixed-size arrays so that they stay in registers, where a run's sum
/// keeps its own NaN against a NaN product as the tile kernel's does.
#[inline(always)]
fn row_sums<const K: usize>(
    cols: &[u32],
    vals: &[f64],
    skip: impl Fn(usize) -> bool,
    x: impl Fn(usize, usize) -> f64,
) -> [f64; K] {
    let (mut acc, mut block, mut live) = ([0.0; K], [0.0; K], true);
    for (&c, &v) in cols.iter().zip(vals) {
        let col = (c & !RUN_START) as usize;
        if c & RUN_START != 0 {
            for (a, b) in acc.iter_mut().zip(&mut block) {
                *a = flush(*a, *b);
                *b = 0.0;
            }
            live = !skip(col);
        }
        if live {
            for (j, b) in block.iter_mut().enumerate() {
                *b += v * x(j, col);
            }
        }
    }
    std::array::from_fn(|j| flush(acc[j], block[j]))
}

/// Adds one tile run's sum into its row's sum. The tile kernel adds each
/// run's sum into memory (`y[r] += sum`), and when both are NaN the run's
/// NaN is the one that survives; a NaN run therefore replaces the row's
/// sum here rather than relying on which operand the compiler puts first.
/// A skipped run's `0.0` leaves every sum unchanged: the row's sum starts
/// at `+0.0` and never becomes `−0.0`.
#[inline(always)]
fn flush(acc: f64, block: f64) -> f64 {
    if block.is_nan() {
        block
    } else {
        acc + block
    }
}

/// Tile `i`'s runs as ranges of the copy's values, in the tile's row order.
fn tile_runs<'a>(
    m: &'a TiledMatrix,
    run_off: &'a [u32],
    i: usize,
) -> impl Iterator<Item = Range<usize>> + 'a {
    (m.nonrow[i] as usize..m.nonrow[i + 1] as usize).map(move |ri| {
        let at = run_off[ri] as usize;
        at..at + (m.csr_rowptr[ri + 1] - m.csr_rowptr[ri]) as usize
    })
}

/// Fresh-decodes tile `i` into its runs of `vals` (which start at offset
/// `base` of the copy) and quantizes them to `tier`; quantization is
/// elementwise, so run by run gives the bits of the whole tile at once.
fn retier_runs(
    m: &TiledMatrix,
    run_off: &[u32],
    base: usize,
    i: usize,
    tier: TileTier,
    vals: &mut [f64],
) {
    let p = m.tile_prec[i];
    let ris = m.nonrow[i] as usize..m.nonrow[i + 1] as usize;
    for (ri, run) in ris.zip(tile_runs(m, run_off, i)) {
        let run = &mut vals[run.start - base..run.end - base];
        let k = (m.csr_rowptr[ri] - m.tile_nnz[i]) as usize;
        m.vals.decode_run(m.val_offsets[i] + k * p.bytes(), p, run);
        tier.quantize_slice(run);
    }
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
/// For every tile column: look up `vis_flag`; bypass its tiles if
/// demanded; otherwise lower the shared-memory copy of each tile once if
/// the demand is narrower than the tile's current precision. Then every
/// row sums its kept tile runs from the (possibly lowered) on-chip values
/// (see the module docs for the summation order).
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
    let (stats, bypass) = shared.admit(m, vis_flags);
    shared.rows_into(m.tile_size, vis_flags, bypass, x, 0..m.nrows, y);
    stats
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

/// [`spmv_mixed`] with the row kernel split over `threads` scoped threads,
/// each owning a stripe of consecutive rows balanced by nonzero count:
/// **bitwise-identical** to [`spmv_mixed`] (outputs *and* stats), since
/// admission runs once on the calling thread and every row's sum is the
/// same code over the same values. The solvers run the serial kernel; on
/// a 2-core host the stripes bought nothing, and this entry stays for the
/// benchmark probe that measures that.
pub fn spmv_mixed_par(
    m: &TiledMatrix,
    shared: &mut SharedTiles,
    vis_flags: &[VisFlag],
    x: &[f64],
    y: &mut [f64],
    threads: usize,
) -> MixedSpmvStats {
    check_mixed_inputs(m, vis_flags, x, y, 1);
    let threads = threads.max(1).min(m.nrows.max(1));
    if threads <= 1 {
        return spmv_mixed(m, shared, vis_flags, x, y);
    }
    let (stats, bypass) = shared.admit(m, vis_flags);
    let shared = &*shared;
    let nnz = shared.vals.len();
    let mut bounds: Vec<usize> = (1..threads)
        .map(|k| {
            let target = nnz * k / threads;
            shared
                .rowptr
                .partition_point(|&o| (o as usize) < target)
                .min(m.nrows)
        })
        .collect();
    bounds.push(m.nrows);
    std::thread::scope(|s| {
        let mut rest = y;
        let mut lo = 0;
        for &hi in &bounds {
            let (stripe, tail) = std::mem::take(&mut rest).split_at_mut(hi - lo);
            rest = tail;
            let rows = lo..hi;
            s.spawn(move || shared.rows_into(m.tile_size, vis_flags, bypass, x, rows, stripe));
            lo = hi;
        }
    });
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
        assert!(shared.current_prec().iter().all(|&p| p == Precision::Fp8));
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
        assert_eq!(shared.current_prec()[0], Precision::Fp16);
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
        assert_eq!(shared.current_prec()[0], Precision::Fp16);
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
        assert_eq!(shared.current_prec()[0], Precision::Fp8);
        // Within the documented scaled-FP8 round-trip envelope.
        assert!((shared.tile_values(&t, 0)[0] - 0.1).abs() <= 0.1 * 2f64.powi(-4));
    }

    /// Rows whose tiles sum to different NaNs: `∞ + (−∞)` gives the
    /// negative default NaN, `1·NaN` keeps the input's positive one. The
    /// tile kernel adds each tile's block into the row with the block as
    /// the NaN that wins, so every executor must return the later block's
    /// NaN, bit for bit what `TiledMatrix::matvec` returns.
    #[test]
    fn nan_blocks_combine_like_the_tile_sums() {
        // Tile size 2, x = [∞, −∞, NaN, 1, ∞, −∞]. Row 0: −NaN block in
        // tile column 0, +NaN block in tile column 1. Row 1: +NaN in tile
        // column 1, −NaN in tile column 2. Row 2: −NaN in tile column 0
        // beside a finite block. Row 3: blocks −∞ and ∞, whose sum is the
        // NaN.
        let mut a = Coo::new(4, 6);
        for (r, c, v) in [
            (0, 0, 1.0),
            (0, 1, 1.0),
            (0, 2, 1.0),
            (1, 2, 1.0),
            (1, 4, 1.0),
            (1, 5, 1.0),
            (2, 0, 2.0),
            (2, 1, 2.0),
            (2, 3, 2.0),
            (3, 1, 2.0),
            (3, 4, 2.0),
        ] {
            a.push(r, c, v);
        }
        let t = TiledMatrix::from_csr_with(&a.to_csr(), 2, &ClassifyOptions::default());
        let (inf, nan) = (f64::INFINITY, f64::NAN);
        let x = [inf, -inf, nan, 1.0, inf, -inf];
        let x2 = [nan, 1.0, inf, -inf, inf, -inf];
        let bits = |v: &[f64]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let keep = all_keep(t.tile_cols);
        let mut want = vec![0.0; 4];
        t.matvec(&x, &mut want);
        assert!(want.iter().all(|v| v.is_nan()), "every row sums to a NaN");
        assert_ne!(want[0].to_bits(), want[1].to_bits(), "the NaN signs differ");

        let mut y = vec![1.0; 4];
        spmv_mixed(&t, &mut SharedTiles::load(&t), &keep, &x, &mut y);
        assert_eq!(bits(&y), bits(&want), "spmv_mixed");
        let mut y = vec![1.0; 4];
        spmv_mixed_par(&t, &mut SharedTiles::load(&t), &keep, &x, &mut y, 2);
        assert_eq!(bits(&y), bits(&want), "spmv_mixed_par");

        let mut want2 = vec![0.0; 4];
        t.matvec(&x2, &mut want2);
        let xb: Vec<f64> = x.iter().chain(&x2).copied().collect();
        let mut yb = vec![1.0; 8];
        let mut shared = SharedTiles::load(&t);
        crate::spmm_mixed(&t, &mut shared, &keep, &xb, &mut yb, &[true, true]);
        assert_eq!(bits(&yb[..4]), bits(&want), "spmm_mixed column 0");
        assert_eq!(bits(&yb[4..]), bits(&want2), "spmm_mixed column 1");
    }

    #[test]
    fn tile_col_divides_exactly() {
        for ts in 2..=256usize {
            let tc = tile_col(ts);
            let top = (1usize << 31) - 1;
            for base in [0, top / ts * ts - 4 * ts] {
                for c in base..(base + 4 * ts).min(top + 1) {
                    assert_eq!(tc(c), c / ts, "c = {c}, ts = {ts}");
                }
            }
            assert_eq!(tc(top), top / ts, "ts = {ts}");
        }
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
            assert_eq!(sh1.current_prec(), sh2.current_prec());
            for i in 0..t.tile_count() {
                let bits = |v: Vec<f64>| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(sh1.tile_values(&t, i)), bits(sh2.tile_values(&t, i)));
            }
        }
    }
}
