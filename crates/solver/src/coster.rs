//! Time charging for the two execution modes.
//!
//! The numerics of an iteration are identical in both modes; what differs —
//! and what the paper measures — is *where the time goes*:
//!
//! * [`MultiCoster`] prices the classic path: every operation is its own
//!   kernel (aggregate roofline body with the minimum-body floor), plus one
//!   launch+sync per kernel and a device-to-host scalar read wherever the
//!   host consumes a dot result. For a CG iteration that is 6 launches and
//!   2 transfers (Fig. 2's "synchronization" share).
//! * [`SingleCoster`] prices the single-kernel scheme of Algorithm 3: one
//!   launch per *solve*, a one-time HBM→shared-memory load of the resident
//!   tiles, and per iteration the **per-warp straggler maxima** of each
//!   step (a step cannot finish before its slowest warp), the atomic
//!   updates of the dependency arrays and one busy-wait poll per barrier.
//!
//! A [`MultiCoster`] priced by a [`BaselineProfile`] charges the same
//! kernel sequence as one of the baseline libraries runs it (§IV-A): FP64
//! CSR SpMV, library-efficiency kernel bodies and launches, per-iteration
//! host orchestration, and level-scheduled triangular sweeps.

use crate::report::ExecutedMode;
use mf_gpu::{CostModel, Phase, ShmemPlan, SpmvSchedule, Timeline, VectorSchedule};
use mf_kernels::{MixedSpmvStats, SharedTiles, VisFlag};
use mf_precision::Precision;
use mf_sparse::TiledMatrix;

/// Per-warp sustained rates derived from the device peaks (a single warp
/// cannot use more than its share of the pipelines).
#[derive(Clone, Copy, Debug)]
pub struct WarpRates {
    /// FP64-equivalent FLOPs per µs per warp.
    pub flops_per_us: f64,
    /// Global-memory bytes per µs per warp.
    pub bytes_per_us: f64,
}

impl WarpRates {
    /// Derives the per-warp rates from a device cost model.
    pub fn of(cost: &CostModel) -> WarpRates {
        WarpRates {
            flops_per_us: cost.device.flops_per_us() / cost.device.warps_for_peak_compute as f64,
            bytes_per_us: cost.device.bytes_per_us() / cost.device.warps_for_peak_bw as f64,
        }
    }

    /// Time for one warp to execute `flops` and `bytes` (overlapped).
    #[inline]
    pub fn warp_time(&self, flops: f64, bytes: f64) -> f64 {
        (flops / self.flops_per_us).max(bytes / self.bytes_per_us)
    }
}

/// Coster for the single-kernel scheme.
#[derive(Debug)]
pub struct SingleCoster {
    /// Device cost model.
    pub cost: CostModel,
    /// Tile → warp assignment for Step A.
    pub spmv_sched: SpmvSchedule,
    /// Segment → warp assignment for Steps B–D.
    pub vec_sched: VectorSchedule,
    /// Shared-memory residency plan.
    pub plan: ShmemPlan,
    rates: WarpRates,
    tile_nnz: Vec<usize>,
    tile_col: Vec<u32>,
    tile_bytes_global: Vec<usize>,
}

impl SingleCoster {
    /// Builds the coster: the kernel launches enough warps to give every
    /// vector segment an owner (capped by device occupancy), and the SpMV
    /// tiles are balanced over those same warps (§III-C).
    pub fn new(cost: CostModel, m: &TiledMatrix, tile_size: usize) -> SingleCoster {
        let greedy = SpmvSchedule::build_default(m);
        let segments = m.nrows.div_ceil(tile_size).max(1);
        let warps = greedy
            .warp_count()
            .max(segments)
            .clamp(1, cost.device.max_resident_warps());
        let spmv_sched = SpmvSchedule::for_warps(m, warps);
        let vec_sched = VectorSchedule::build(m.nrows, tile_size, warps);
        let plan = ShmemPlan::plan(m, &cost.device);
        let rates = WarpRates::of(&cost);
        let tile_nnz = (0..m.tile_count())
            .map(|i| (m.tile_nnz[i + 1] - m.tile_nnz[i]) as usize)
            .collect();
        let tile_bytes_global = (0..m.tile_count())
            .map(|i| {
                if plan.in_shared[i] {
                    0
                } else {
                    ShmemPlan::tile_bytes(m, i)
                }
            })
            .collect();
        SingleCoster {
            cost,
            spmv_sched,
            vec_sched,
            plan,
            rates,
            tile_nnz,
            tile_col: m.tile_colidx.clone(),
            tile_bytes_global,
        }
    }

    /// Warps the kernel launches.
    pub fn warp_count(&self) -> usize {
        self.vec_sched
            .warp_count()
            .max(self.spmv_sched.warp_count())
            .max(1)
    }

    /// One-time costs: a single kernel launch and the HBM → shared-memory
    /// tile load that subsequent iterations reuse.
    pub fn solve_start(&self, tl: &mut Timeline) {
        tl.add(Phase::Sync, self.cost.launch_us());
        let load = self.plan.shared_bytes as f64 / self.cost.device.bytes_per_us();
        tl.add(Phase::Spmv, load);
    }

    /// Per-warp straggler body of the mixed-precision SpMV plus the active
    /// tile count (needed for the dependency-array atomic charge).
    fn spmv_body(&self, prec: &[Precision], vis: &[VisFlag]) -> (f64, usize) {
        let mut worst = 0.0f64;
        let mut active_tiles = 0usize;
        for (w, &(lo, hi)) in self.spmv_sched.warp_tiles.iter().enumerate() {
            let _ = w;
            let mut flops = 0.0;
            let mut bytes = 0.0;
            for i in lo..hi {
                if vis[self.tile_col[i] as usize] == VisFlag::Bypass {
                    continue;
                }
                active_tiles += 1;
                let nnz = self.tile_nnz[i] as f64;
                flops += 2.0 * nnz * prec[i].flop_cost();
                // Resident tiles cost no HBM traffic; overflow tiles stream
                // from global memory each iteration. The x-gather is global
                // either way.
                bytes += self.tile_bytes_global[i] as f64 + 8.0 * nnz;
            }
            worst = worst.max(self.rates.warp_time(flops, bytes));
        }
        (worst, active_tiles)
    }

    /// Per-warp straggler body of a dot-product step.
    fn dot_body(&self) -> f64 {
        let e = self.vec_sched.max_warp_elems() as f64;
        let t = self.rates.warp_time(2.0 * e, 16.0 * e);
        t + 0.02 * (self.warp_count() as f64).log2().max(1.0)
    }

    /// Per-warp straggler body of a `fused`-vector AXPY-like step.
    fn axpy_body(&self, fused: usize) -> f64 {
        let e = self.vec_sched.max_warp_elems() as f64;
        let f = fused as f64;
        self.rates.warp_time(2.0 * e * f, 24.0 * e * f)
    }

    /// Step A: per-warp maxima of the mixed-precision SpMV. `prec` holds
    /// the current (possibly lowered) tile precisions; `vis` decides
    /// bypass. Also charges the per-tile atomics and the Step-A barrier.
    pub fn spmv(&self, tl: &mut Timeline, prec: &[Precision], vis: &[VisFlag]) {
        let (worst, active_tiles) = self.spmv_body(prec, vis);
        tl.add(Phase::Spmv, worst);
        tl.add(Phase::Atomic, self.cost.atomics_us(active_tiles));
        tl.add(Phase::Wait, self.cost.spin_us());
    }

    /// [`SingleCoster::spmv`] without the end-of-step synchronization: the
    /// pipelined schedule's SpMV publishes through the iteration's one
    /// explicit [`SingleCoster::barrier`] instead of its own epoch. The
    /// per-tile dependency atomics still apply (owner hand-off bookkeeping).
    pub fn spmv_unsync(&self, tl: &mut Timeline, prec: &[Precision], vis: &[VisFlag]) {
        let (worst, active_tiles) = self.spmv_body(prec, vis);
        tl.add(Phase::Spmv, worst);
        tl.add(Phase::Atomic, self.cost.atomics_us(active_tiles));
    }

    /// A dot-product step over the length-`n` vector pair (Steps B/C):
    /// per-warp maxima + block reduction + one atomic per warp + barrier.
    pub fn dot(&self, tl: &mut Timeline) {
        tl.add(Phase::Dot, self.dot_body());
        tl.add(Phase::Atomic, self.cost.atomics_us(self.warp_count()));
        tl.add(Phase::Wait, self.cost.spin_us());
    }

    /// [`SingleCoster::dot`] without its own barrier epoch (pipelined
    /// schedule: the partials ride the iteration's one barrier). The
    /// per-warp partial publication atomics still apply.
    pub fn dot_unsync(&self, tl: &mut Timeline) {
        tl.add(Phase::Dot, self.dot_body());
        tl.add(Phase::Atomic, self.cost.atomics_us(self.warp_count()));
    }

    /// An AXPY-like step updating `fused` vectors in one pass (Step C/D
    /// tails): per-warp maxima + one atomic per warp + barrier.
    pub fn axpy(&self, tl: &mut Timeline, fused: usize) {
        tl.add(Phase::Axpy, self.axpy_body(fused));
        tl.add(Phase::Atomic, self.cost.atomics_us(self.warp_count()));
        tl.add(Phase::Wait, self.cost.spin_us());
    }

    /// [`SingleCoster::axpy`] without its own barrier epoch (pipelined
    /// schedule).
    pub fn axpy_unsync(&self, tl: &mut Timeline, fused: usize) {
        tl.add(Phase::Axpy, self.axpy_body(fused));
    }

    /// One explicit global barrier epoch: every warp bumps the shared
    /// counter and busy-waits for the rest. The pipelined variants pay for
    /// synchronization here — once (CG) or twice (PCG) per iteration —
    /// instead of at every step.
    pub fn barrier(&self, tl: &mut Timeline) {
        tl.add(Phase::Atomic, self.cost.atomics_us(self.warp_count()));
        tl.add(Phase::Wait, self.cost.spin_us());
    }

    /// The Algorithm-4 `vis_flag` scan of `p` (one streaming read).
    pub fn visflag_scan(&self, tl: &mut Timeline) {
        let e = self.vec_sched.max_warp_elems() as f64;
        tl.add(Phase::Axpy, self.rates.warp_time(4.0 * e, 8.0 * e));
    }

    /// End of iteration: the residual check happens *inside* the kernel
    /// (no device-to-host transfer — that is the point of Finding 2).
    pub fn iteration_end(&self, tl: &mut Timeline) {
        tl.add(Phase::Wait, self.cost.spin_us());
    }

    /// A barrier-aligned re-tier epoch: the owning warps re-quantize the
    /// `touched_nnz` nonzeros of the re-tiered tiles in place (read the
    /// stored byte, write the new encoding — ≤ 9 bytes of traffic per
    /// nonzero at the widest transition) and every warp joins one extra
    /// barrier so no SpMV overlaps the swap.
    pub fn retier(&self, tl: &mut Timeline, touched_nnz: usize) {
        tl.add(
            Phase::Retier,
            9.0 * touched_nnz as f64 / self.cost.device.bytes_per_us(),
        );
        self.barrier(tl);
    }

    /// Modeled cost of one CG iteration at the tiles' initial precisions
    /// (all columns active). Used by the Auto mode decision: the paper
    /// reverts to multi-kernel "when the overhead ... outweighs the
    /// performance benefits of a single kernel" — which this estimate makes
    /// operational (tile-scattered matrices whose dependency-array atomic
    /// traffic dominates fall back).
    pub fn estimate_cg_iteration_us(&self, initial_prec: &[Precision]) -> f64 {
        let mut tl = Timeline::new();
        // spmv() indexes vis by tile column; build a full Keep vector.
        let max_col = self.tile_col.iter().copied().max().unwrap_or(0) as usize;
        let keep = vec![VisFlag::Keep; max_col + 1];
        self.spmv(&mut tl, initial_prec, &keep);
        self.dot(&mut tl);
        self.axpy(&mut tl, 2);
        self.dot(&mut tl);
        self.axpy(&mut tl, 1);
        self.iteration_end(&mut tl);
        tl.total_us()
    }

    /// Modeled cost of one *pipelined* CG iteration (Ghysels–Vanroose
    /// schedule): the same SpMV, one fused six-vector update, one fused dot
    /// pair, and exactly ONE barrier epoch instead of the six `Phase::Wait`
    /// epochs [`SingleCoster::estimate_cg_iteration_us`] charges (five
    /// steps and the iteration end; the threaded classic engine measures
    /// three barriers per iteration). `PipelineMode::Auto` compares this against
    /// [`SingleCoster::estimate_cg_iteration_us`] to decide whether the
    /// barrier savings justify the pipelined recurrence's rounding drift.
    pub fn estimate_cg_pipelined_iteration_us(&self, initial_prec: &[Precision]) -> f64 {
        let mut tl = Timeline::new();
        let max_col = self.tile_col.iter().copied().max().unwrap_or(0) as usize;
        let keep = vec![VisFlag::Keep; max_col + 1];
        self.spmv_unsync(&mut tl, initial_prec, &keep);
        // dot2 streams the same two vectors one dot would; the second
        // accumulator is register traffic.
        self.dot_unsync(&mut tl);
        self.axpy_unsync(&mut tl, 6);
        self.barrier(&mut tl);
        tl.total_us()
    }
}

/// Overhead character of one baseline library.
#[derive(Clone, Debug)]
pub struct BaselineProfile {
    /// Library name for reports.
    pub name: &'static str,
    /// Multiplier on the device's kernel-launch latency (library call
    /// stacks add dispatch cost on top of the raw driver launch).
    pub launch_factor: f64,
    /// Host-side orchestration charged once per iteration, µs (convergence
    /// monitors, object bookkeeping — dominant for PETSc on small systems).
    pub host_per_iter_us: f64,
    /// Kernel-body efficiency relative to the roofline (≤ 1.0).
    pub kernel_efficiency: f64,
    /// Triangular-solve efficiency relative to the level-bound model
    /// (≤ 1.0). Vendor SpSV implementations are well known to reach only a
    /// fraction of the achievable rate — the gap the recursive-block
    /// algorithm exploits in Fig. 10.
    pub sptrsv_efficiency: f64,
}

/// Coster for the classic multi-kernel path.
#[derive(Debug)]
pub struct MultiCoster {
    /// Device cost model.
    pub cost: CostModel,
    nrows: usize,
    profile: Option<BaselineProfile>,
}

impl MultiCoster {
    /// Builds a multi-kernel coster for an `nrows`-row system.
    pub fn new(cost: CostModel, nrows: usize) -> MultiCoster {
        MultiCoster {
            cost,
            nrows,
            profile: None,
        }
    }

    /// This coster priced as the library `profile` runs its kernels: FP64
    /// CSR SpMV bodies, every body divided by the library's efficiency,
    /// every launch multiplied by its launch factor, its host time at
    /// every iteration end, and triangular pairs as level-scheduled sweeps.
    pub fn priced_by(self, profile: BaselineProfile) -> MultiCoster {
        MultiCoster {
            profile: Some(profile),
            ..self
        }
    }

    /// A kernel body under the profile (÷ 1 without one, which is exact).
    fn body(&self, us: f64) -> f64 {
        us / self.profile.as_ref().map_or(1.0, |p| p.kernel_efficiency)
    }

    /// Launch + sync overhead of one kernel under the profile.
    fn launch(&self) -> f64 {
        self.cost.launch_us() * self.profile.as_ref().map_or(1.0, |p| p.launch_factor)
    }

    /// No per-solve setup: every kernel pays its own launch.
    pub fn solve_start(&self, _tl: &mut Timeline) {}

    /// A tiled mixed-precision SpMV kernel call: aggregate roofline of the
    /// executed work (weighted FLOPs, packed value bytes + index bytes +
    /// vector traffic) plus launch overhead. A library profile runs the
    /// FP64 CSR kernel instead.
    pub fn spmv(&self, tl: &mut Timeline, m: &TiledMatrix, stats: &MixedSpmvStats) {
        let executed_nnz: usize = stats.nnz_by_prec.iter().sum();
        // The fallback keeps a plain FP64 CSR kernel in its pocket: on
        // tile-scattered matrices (≈1 nnz per tile) the tiled metadata
        // stream outweighs the precision savings, and the solver runs
        // whichever kernel its preprocessing predicted to be faster.
        let csr_body = self.cost.spmv_csr_us(executed_nnz, self.nrows);
        let body = if self.profile.is_some() {
            csr_body
        } else {
            let idx_bytes = executed_nnz as f64 // csr_colidx u8
                + 13.0 * m.tile_count() as f64; // high-level metadata
            let vec_bytes = 8.0 * executed_nnz as f64 + 12.0 * self.nrows as f64;
            let bytes = stats.value_bytes() as f64 + idx_bytes + vec_bytes;
            let warps = self.cost.spmv_warps(executed_nnz.max(1));
            let tiled_body = self
                .cost
                .kernel_body_us(stats.weighted_flops(), bytes, warps);
            tiled_body.min(csr_body)
        };
        tl.add(Phase::Spmv, self.body(body));
        tl.add(Phase::Sync, self.launch());
    }

    /// A plain FP64 CSR SpMV kernel call (used by the FP64-only ablation).
    pub fn spmv_csr(&self, tl: &mut Timeline, nnz: usize) {
        tl.add(
            Phase::Spmv,
            self.body(self.cost.spmv_csr_us(nnz, self.nrows)),
        );
        tl.add(Phase::Sync, self.launch());
    }

    /// A dot-product kernel; `to_host` adds the scalar readback the host
    /// needs before it can launch the next kernel.
    pub fn dot(&self, tl: &mut Timeline, to_host: bool) {
        tl.add(Phase::Dot, self.body(self.cost.dot_us(self.nrows)));
        tl.add(Phase::Sync, self.launch());
        if to_host {
            tl.add(Phase::Transfer, self.cost.d2h_us());
        }
    }

    /// An AXPY kernel call.
    pub fn axpy(&self, tl: &mut Timeline) {
        tl.add(Phase::Axpy, self.body(self.cost.axpy_us(self.nrows)));
        tl.add(Phase::Sync, self.launch());
    }

    /// A triangular factorization of `nnz` nonzeros, done once on device:
    /// two sweeps over the pattern and their launches. A library profile
    /// prices the sweeps at the factor pair's `levels` (each at least
    /// one), launch-free.
    pub fn factorization(&self, tl: &mut Timeline, nnz: usize, levels: [usize; 2]) {
        if self.profile.is_some() {
            let levels = levels[0].max(1) + levels[1].max(1);
            tl.add(
                Phase::Factorize,
                2.0 * self.cost.sptrsv_us(nnz, self.nrows, levels),
            );
        } else {
            let body = self
                .cost
                .sptrsv_us(nnz, self.nrows, (self.nrows / 32).max(1));
            tl.add(Phase::Factorize, 2.0 * body);
            tl.add(Phase::Sync, 2.0 * self.cost.launch_us());
        }
    }

    /// One application of a triangular pair whose factors hold
    /// `factors[k] = (nonzeros, dependency levels)`: the SpTRSV algorithm
    /// preprocessing picks ([`MultiCoster::sptrsv_adaptive`]), or under a
    /// library profile one level-scheduled sweep per factor (how
    /// `cusparseSpSV_solve` executes), each with at least one level, at
    /// the library's SpSV efficiency.
    pub fn sptrsv_pair(
        &self,
        tl: &mut Timeline,
        stats: &mf_kernels::RecursiveTrsvStats,
        factors: [(usize, usize); 2],
    ) {
        let Some(p) = &self.profile else {
            let [(l_nnz, l_levels), (u_nnz, u_levels)] = factors;
            return self.sptrsv_adaptive(tl, stats, l_nnz + u_nnz, l_levels + u_levels);
        };
        for (nnz, levels) in factors {
            let body = self.cost.sptrsv_us(nnz, self.nrows, levels.max(1));
            tl.add(Phase::SpTrsv, body / p.sptrsv_efficiency);
            tl.add(Phase::Sync, self.launch());
        }
    }

    /// Triangular solve with the algorithm the solver's preprocessing picks
    /// for this matrix: plain level scheduling (wins when the factor is
    /// already level-parallel, e.g. scattered circuit patterns) or the
    /// recursive-block scheme of paper §III-C, ref. \[41\], whose leaf
    /// triangles serialize while its square blocks run as parallel SpMVs
    /// (wins when the factor has deep dependency chains — banded/FEM
    /// matrices, where the paper reports its 40×+ PCG speedups). `levels`
    /// is the combined level count of the factors the call applies; `nnz`
    /// their nonzeros.
    pub fn sptrsv_adaptive(
        &self,
        tl: &mut Timeline,
        stats: &mf_kernels::RecursiveTrsvStats,
        nnz: usize,
        levels: usize,
    ) {
        let recursive = {
            let leaf_sweeps = stats.leaves as f64 * 0.8;
            let spmv_body = self.cost.roofline_us(
                2.0 * stats.spmv_nnz as f64,
                20.0 * stats.spmv_nnz as f64,
                self.cost.spmv_warps(stats.spmv_nnz.max(1)),
            );
            let leaf_body = self.cost.roofline_us(
                2.0 * stats.trsv_nnz as f64,
                12.0 * stats.trsv_nnz as f64,
                32,
            );
            leaf_sweeps + spmv_body + leaf_body
        };
        let level_sched = self.cost.sptrsv_us(nnz, self.nrows, levels);
        let t = recursive
            .min(level_sched)
            .max(self.cost.device.min_kernel_body_us);
        tl.add(Phase::SpTrsv, t);
        tl.add(Phase::Sync, self.cost.launch_us());
    }

    /// End of iteration: the host checks the residual, which requires the
    /// dot result — already charged via `dot(to_host=true)`. A library
    /// profile adds its host orchestration.
    pub fn iteration_end(&self, tl: &mut Timeline) {
        if let Some(p) = &self.profile {
            tl.add(Phase::Sync, p.host_per_iter_us);
        }
    }

    /// A re-tier pass as its own kernel: stream the `touched_nnz` nonzeros
    /// of the re-tiered tiles through the converter (≤ 9 bytes/nnz) plus
    /// the usual launch overhead.
    pub fn retier(&self, tl: &mut Timeline, touched_nnz: usize) {
        let body = self.cost.roofline_us(
            touched_nnz as f64,
            9.0 * touched_nnz as f64,
            self.cost.spmv_warps(touched_nnz.max(1)),
        );
        tl.add(Phase::Retier, self.body(body));
        tl.add(Phase::Sync, self.launch());
    }

    /// A block-Jacobi application kernel: one small dense mat-vec per block,
    /// fully parallel (no dependency levels — the structural advantage over
    /// SpTRSV), priced at the blocks' storage precisions.
    pub fn block_jacobi(&self, tl: &mut Timeline, bj: &mf_kernels::BlockJacobi) {
        let flops = bj.apply_flops();
        let bytes = (bj.storage_bytes() + 16 * bj.n) as f64;
        let warps = self
            .cost
            .blas1_warps(bj.n.max(1))
            .max(bj.nblocks().min(self.cost.device.max_resident_warps()));
        let body = self.cost.kernel_body_us(flops, bytes, warps);
        tl.add(Phase::SpTrsv, self.body(body));
        tl.add(Phase::Sync, self.launch());
    }

    /// Modeled cost of one multi-kernel CG iteration on the tiled matrix at
    /// its initial precisions (for the Auto mode decision).
    pub fn estimate_cg_iteration_us(&self, m: &TiledMatrix) -> f64 {
        let mut tl = Timeline::new();
        let mut stats = MixedSpmvStats {
            tiles_computed: m.tile_count(),
            ..Default::default()
        };
        for i in 0..m.tile_count() {
            stats.nnz_by_prec[m.tile_prec[i].tile_code() as usize] +=
                (m.tile_nnz[i + 1] - m.tile_nnz[i]) as usize;
        }
        self.spmv(&mut tl, m, &stats);
        self.dot(&mut tl, true);
        self.axpy(&mut tl);
        self.axpy(&mut tl);
        self.dot(&mut tl, true);
        self.axpy(&mut tl);
        self.iteration_end(&mut tl);
        tl.total_us()
    }
}

/// Mode-dispatching coster.
///
/// The `Single` variant carries the warp schedules (a few Vecs); one coster
/// exists per solve, so the size imbalance between the variants is
/// irrelevant.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Coster {
    /// Single-kernel scheme.
    Single(SingleCoster),
    /// Multi-kernel fallback.
    Multi(MultiCoster),
}

impl Coster {
    /// The execution mode this coster charges.
    pub(crate) fn mode(&self) -> ExecutedMode {
        match self {
            Coster::Single(_) => ExecutedMode::SingleKernel,
            Coster::Multi(_) => ExecutedMode::MultiKernel,
        }
    }

    /// The multi-kernel coster a preconditioned core charges its
    /// factorization and SpTRSV through.
    ///
    /// # Panics
    ///
    /// On a single-kernel coster: the paper applies preconditioning in its
    /// multi-kernel method (§III-C).
    pub(crate) fn multi(&self) -> &MultiCoster {
        match self {
            Coster::Multi(mc) => mc,
            Coster::Single(_) => panic!("preconditioned cores charge in multi-kernel mode"),
        }
    }

    /// Warps the execution uses (0 = not warp-scheduled).
    pub fn warp_count(&self) -> usize {
        match self {
            Coster::Single(s) => s.warp_count(),
            Coster::Multi(_) => 0,
        }
    }

    /// Per-solve setup charges.
    pub fn solve_start(&self, tl: &mut Timeline) {
        match self {
            Coster::Single(s) => s.solve_start(tl),
            Coster::Multi(m) => m.solve_start(tl),
        }
    }

    /// Charges one SpMV.
    pub fn spmv(
        &self,
        tl: &mut Timeline,
        m: &TiledMatrix,
        shared: &SharedTiles,
        vis: &[VisFlag],
        stats: &MixedSpmvStats,
    ) {
        match self {
            Coster::Single(s) => s.spmv(tl, shared.current_prec(), vis),
            Coster::Multi(mc) => mc.spmv(tl, m, stats),
        }
    }

    /// Charges one dot product (`to_host` only matters multi-kernel).
    pub fn dot(&self, tl: &mut Timeline, to_host: bool) {
        match self {
            Coster::Single(s) => s.dot(tl),
            Coster::Multi(m) => m.dot(tl, to_host),
        }
    }

    /// Charges `fused` AXPY-like vector updates executed as one step
    /// (single kernel) or as `fused` separate kernels (multi kernel).
    pub fn axpy(&self, tl: &mut Timeline, fused: usize) {
        match self {
            Coster::Single(s) => s.axpy(tl, fused),
            Coster::Multi(m) => {
                for _ in 0..fused {
                    m.axpy(tl);
                }
            }
        }
    }

    /// Charges one SpMV *without* a trailing barrier epoch (pipelined
    /// schedule). Multi-kernel: identical to [`Coster::spmv`] — the kernel
    /// boundary there *is* the synchronization and cannot be elided.
    pub fn spmv_unsync(
        &self,
        tl: &mut Timeline,
        m: &TiledMatrix,
        shared: &SharedTiles,
        vis: &[VisFlag],
        stats: &MixedSpmvStats,
    ) {
        match self {
            Coster::Single(s) => s.spmv_unsync(tl, shared.current_prec(), vis),
            Coster::Multi(mc) => mc.spmv(tl, m, stats),
        }
    }

    /// Charges one dot product without a trailing barrier epoch (pipelined
    /// schedule); multi-kernel is unchanged, including the `to_host` scalar
    /// readback the host-side recurrence still needs.
    pub fn dot_unsync(&self, tl: &mut Timeline, to_host: bool) {
        match self {
            Coster::Single(s) => s.dot_unsync(tl),
            Coster::Multi(m) => m.dot(tl, to_host),
        }
    }

    /// Charges a `fused`-vector update without a trailing barrier epoch
    /// (pipelined schedule). Multi-kernel executes the fusion as ONE kernel
    /// (that is what fusing buys on the classic path) rather than `fused`
    /// launches.
    pub fn axpy_unsync(&self, tl: &mut Timeline, fused: usize) {
        match self {
            Coster::Single(s) => s.axpy_unsync(tl, fused),
            Coster::Multi(m) => m.axpy(tl),
        }
    }

    /// Charges one explicit global barrier epoch — the pipelined variants'
    /// per-iteration synchronization. Multi-kernel: no-op (kernel
    /// boundaries are already priced as launches on every call).
    pub fn barrier(&self, tl: &mut Timeline) {
        if let Coster::Single(s) = self {
            s.barrier(tl);
        }
    }

    /// Charges the Algorithm-4 scan (single-kernel only; the multi-kernel
    /// path does not run the dynamic strategy).
    pub fn visflag_scan(&self, tl: &mut Timeline) {
        if let Coster::Single(s) = self {
            s.visflag_scan(tl);
        }
    }

    /// Charges end-of-iteration bookkeeping.
    pub fn iteration_end(&self, tl: &mut Timeline) {
        match self {
            Coster::Single(s) => s.iteration_end(tl),
            Coster::Multi(m) => m.iteration_end(tl),
        }
    }

    /// Charges one adaptive re-tier epoch touching `touched_nnz` stored
    /// nonzeros (tile re-quantization; the refresh SpMV/dots are charged
    /// separately through the normal step methods).
    pub fn retier(&self, tl: &mut Timeline, touched_nnz: usize) {
        match self {
            Coster::Single(s) => s.retier(tl, touched_nnz),
            Coster::Multi(m) => m.retier(tl, touched_nnz),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_gpu::DeviceSpec;
    use mf_precision::ClassifyOptions;
    use mf_sparse::{Coo, TiledMatrix};

    fn tiled(n: usize) -> TiledMatrix {
        let mut a = Coo::new(n, n);
        for i in 0..n {
            a.push(i, i, 4.0);
            if i + 1 < n {
                a.push(i, i + 1, -1.0);
                a.push(i + 1, i, -1.0);
            }
        }
        TiledMatrix::from_csr_with(&a.to_csr(), 16, &ClassifyOptions::default())
    }

    fn cost() -> CostModel {
        CostModel::new(DeviceSpec::a100())
    }

    #[test]
    fn warp_rates_are_fractions_of_peak() {
        let c = cost();
        let r = WarpRates::of(&c);
        assert!(
            r.flops_per_us * c.device.warps_for_peak_compute as f64
                <= c.device.flops_per_us() * 1.001
        );
        assert!(r.warp_time(1000.0, 0.0) > 0.0);
        // Roofline: the max of the two terms.
        assert_eq!(r.warp_time(0.0, 1000.0), 1000.0 / r.bytes_per_us);
    }

    #[test]
    fn single_coster_charges_one_launch_per_solve() {
        let m = tiled(256);
        let sc = SingleCoster::new(cost(), &m, 16);
        let mut tl = Timeline::new();
        sc.solve_start(&mut tl);
        assert_eq!(tl.get(Phase::Sync), cost().launch_us());
        // 10 iterations add no further Sync.
        let shared = SharedTiles::load(&m);
        let vis = vec![VisFlag::Keep; m.tile_cols];
        for _ in 0..10 {
            sc.spmv(&mut tl, shared.current_prec(), &vis);
            sc.dot(&mut tl);
            sc.axpy(&mut tl, 2);
            sc.dot(&mut tl);
            sc.axpy(&mut tl, 1);
            sc.iteration_end(&mut tl);
        }
        assert_eq!(tl.get(Phase::Sync), cost().launch_us());
        assert!(tl.get(Phase::Atomic) > 0.0);
        assert!(tl.get(Phase::Wait) > 0.0);
    }

    #[test]
    fn multi_coster_charges_launch_per_kernel() {
        let m = tiled(256);
        let mc = MultiCoster::new(cost(), 256);
        let mut tl = Timeline::new();
        let shared = SharedTiles::load(&m);
        let vis = vec![VisFlag::Keep; m.tile_cols];
        let mut y = vec![0.0; 256];
        let x = vec![1.0; 256];
        let mut sh = shared.clone();
        let stats = mf_kernels::spmv_mixed(&m, &mut sh, &vis, &x, &mut y);
        // One CG iteration: 1 spmv + 2 dots + 3 axpys = 6 launches.
        mc.spmv(&mut tl, &m, &stats);
        mc.dot(&mut tl, true);
        mc.axpy(&mut tl);
        mc.axpy(&mut tl);
        mc.dot(&mut tl, true);
        mc.axpy(&mut tl);
        assert!((tl.get(Phase::Sync) - 6.0 * cost().launch_us()).abs() < 1e-9);
        assert!((tl.get(Phase::Transfer) - 2.0 * cost().d2h_us()).abs() < 1e-9);
    }

    #[test]
    fn profile_prices_bodies_launches_host_time_and_sweeps() {
        let profile = BaselineProfile {
            name: "test",
            launch_factor: 2.0,
            host_per_iter_us: 5.0,
            kernel_efficiency: 0.5,
            sptrsv_efficiency: 0.25,
        };
        let plain = MultiCoster::new(cost(), 256);
        let priced = MultiCoster::new(cost(), 256).priced_by(profile);
        let (mut a, mut b) = (Timeline::new(), Timeline::new());
        for (mc, tl) in [(&plain, &mut a), (&priced, &mut b)] {
            mc.dot(tl, true);
            mc.axpy(tl);
            mc.iteration_end(tl);
        }
        assert_eq!(b.get(Phase::Dot), 2.0 * a.get(Phase::Dot));
        assert_eq!(b.get(Phase::Axpy), 2.0 * a.get(Phase::Axpy));
        assert_eq!(b.get(Phase::Sync), 2.0 * a.get(Phase::Sync) + 5.0);
        assert_eq!(b.get(Phase::Transfer), a.get(Phase::Transfer));

        // One level-scheduled sweep per factor, each at least one level.
        let mut tl = Timeline::new();
        let stats = mf_kernels::RecursiveTrsvStats::default();
        priced.sptrsv_pair(&mut tl, &stats, [(100, 0), (300, 7)]);
        let sweeps = cost().sptrsv_us(100, 256, 1) / 0.25 + cost().sptrsv_us(300, 256, 7) / 0.25;
        assert_eq!(tl.get(Phase::SpTrsv), sweeps);
        assert_eq!(tl.get(Phase::Sync), 4.0 * cost().launch_us());
    }

    #[test]
    fn single_kernel_wins_for_small_systems() {
        // The whole premise: for a small matrix, 100 single-kernel
        // iterations are far cheaper than 100 multi-kernel iterations.
        let m = tiled(512);
        let sc = SingleCoster::new(cost(), &m, 16);
        let mc = MultiCoster::new(cost(), 512);
        let shared = SharedTiles::load(&m);
        let vis = vec![VisFlag::Keep; m.tile_cols];
        let mut y = vec![0.0; 512];
        let x = vec![1.0; 512];
        let mut sh = shared.clone();
        let stats = mf_kernels::spmv_mixed(&m, &mut sh, &vis, &x, &mut y);

        let mut tl_s = Timeline::new();
        sc.solve_start(&mut tl_s);
        let mut tl_m = Timeline::new();
        for _ in 0..100 {
            sc.spmv(&mut tl_s, shared.current_prec(), &vis);
            sc.dot(&mut tl_s);
            sc.axpy(&mut tl_s, 2);
            sc.dot(&mut tl_s);
            sc.axpy(&mut tl_s, 1);

            mc.spmv(&mut tl_m, &m, &stats);
            mc.dot(&mut tl_m, true);
            mc.axpy(&mut tl_m);
            mc.axpy(&mut tl_m);
            mc.dot(&mut tl_m, true);
            mc.axpy(&mut tl_m);
        }
        assert!(
            tl_m.total_us() > 2.0 * tl_s.total_us(),
            "multi {} vs single {}",
            tl_m.total_us(),
            tl_s.total_us()
        );
        // And the multi-kernel sync share matches Fig. 2 (>30%).
        assert!(tl_m.sync_fraction() > 0.3, "{}", tl_m.sync_fraction());
    }

    #[test]
    fn adaptive_sptrsv_picks_cheaper_algorithm() {
        let mc = MultiCoster::new(cost(), 20_000);
        // Serialized factor (levels == n): recursion must win.
        let stats = mf_kernels::RecursiveTrsvStats {
            leaves: 313,
            max_leaf_rows: 64,
            spmv_nnz: 30_000,
            trsv_nnz: 10_000,
            depth: 9,
        };
        let mut tl_deep = Timeline::new();
        mc.sptrsv_adaptive(&mut tl_deep, &stats, 40_000, 20_000);
        assert!(
            tl_deep.get(Phase::SpTrsv) < mc.cost.sptrsv_us(40_000, 20_000, 20_000) / 10.0,
            "recursion should dominate serialized factors"
        );
        // Level-parallel factor (few levels): level scheduling must win.
        let mut tl_flat = Timeline::new();
        mc.sptrsv_adaptive(&mut tl_flat, &stats, 40_000, 8);
        assert!(tl_flat.get(Phase::SpTrsv) <= mc.cost.sptrsv_us(40_000, 20_000, 8) + 1e-9);
    }

    #[test]
    fn pipelined_estimate_removes_barrier_epochs() {
        let m = tiled(512);
        let sc = SingleCoster::new(cost(), &m, 16);
        let classic = sc.estimate_cg_iteration_us(&m.tile_prec);
        let piped = sc.estimate_cg_pipelined_iteration_us(&m.tile_prec);
        // 1 barrier instead of 6 epochs (and one fused dot pass instead of
        // two): strictly cheaper on a sync-dominated (small) system, even
        // though the fused six-vector update streams more AXPY traffic.
        assert!(piped < classic, "pipelined {piped} vs classic {classic}");
        // The savings are at least the three removed barrier epochs minus
        // the extra fused-update traffic — concretely, positive and real:
        let epoch = cost().barrier_us(sc.warp_count());
        assert!(
            classic - piped > epoch,
            "gap {} epoch {epoch}",
            classic - piped
        );

        // The explicit barrier charge itself lands on Atomic + Wait.
        let mut tl = Timeline::new();
        sc.barrier(&mut tl);
        assert!(tl.get(Phase::Wait) > 0.0);
        assert!(tl.get(Phase::Atomic) > 0.0);
        assert_eq!(tl.get(Phase::Spmv), 0.0);
    }

    #[test]
    fn bypass_reduces_single_kernel_spmv_cost() {
        let m = tiled(4096);
        let sc = SingleCoster::new(cost(), &m, 16);
        let shared = SharedTiles::load(&m);
        let keep = vec![VisFlag::Keep; m.tile_cols];
        let byp = vec![VisFlag::Bypass; m.tile_cols];
        let mut tl_k = Timeline::new();
        sc.spmv(&mut tl_k, shared.current_prec(), &keep);
        let mut tl_b = Timeline::new();
        sc.spmv(&mut tl_b, shared.current_prec(), &byp);
        assert!(tl_b.get(Phase::Spmv) < tl_k.get(Phase::Spmv));
        assert_eq!(tl_b.get(Phase::Atomic), 0.0);
    }
}
