//! Roofline cost model.
//!
//! Wall time of a kernel body is modeled as
//! `max(flops / compute_rate, bytes / bandwidth)`, where both rates are
//! de-rated when too few warps are in flight to saturate the device (small
//! matrices cannot hide latency — this produces the flat left side of the
//! paper's time-vs-nnz plots, Figs. 8–10). FLOPs are expressed in *FP64
//! equivalents*: a FLOP executed in precision `p` counts `p.flop_cost()`
//! (0.125 for FP8 … 1.0 for FP64), which is how tile-grained mixed precision
//! earns its compute-side speedup; the memory side is charged the actual
//! byte counts of the packed tile storage.
//!
//! Fixed latencies (kernel launch + sync, D2H scalar copies, atomics, spin
//! polls) come from the [`DeviceSpec`] and are charged by the solver engines,
//! not here — this module prices kernel *bodies* only, so that the same body
//! prices feed both the multi-kernel baselines (which add 6–10 launches per
//! iteration) and the single-kernel scheme (which adds atomics instead).

use crate::device::DeviceSpec;

/// Prices kernel bodies on a given device.
#[derive(Clone, Debug)]
pub struct CostModel {
    /// The device being modeled.
    pub device: DeviceSpec,
}

/// Elements each warp of a BLAS-1 kernel processes (grid-stride loop).
const ELEMS_PER_WARP_BLAS1: usize = 256;
/// Nonzeros each warp of the baseline CSR SpMV processes on average.
const NNZ_PER_WARP_SPMV: usize = 128;

impl CostModel {
    /// Creates a cost model for `device`.
    pub fn new(device: DeviceSpec) -> CostModel {
        CostModel { device }
    }

    /// Compute-rate utilization for `warps` warps in flight.
    #[inline]
    fn util(&self, warps: usize, warps_for_peak: usize) -> f64 {
        let w = warps.max(1) as f64;
        (w / warps_for_peak as f64).clamp(1.0 / warps_for_peak as f64, 1.0)
    }

    /// Generic roofline: `flops` FP64-equivalent FLOPs and `bytes` of global
    /// memory traffic executed by `warps` concurrent warps. Returns µs.
    pub fn roofline_us(&self, flops: f64, bytes: f64, warps: usize) -> f64 {
        let cu = self.util(warps, self.device.warps_for_peak_compute);
        let bu = self.util(warps, self.device.warps_for_peak_bw);
        let t_compute = flops / (self.device.flops_per_us() * cu);
        let t_mem = bytes / (self.device.bytes_per_us() * bu);
        t_compute.max(t_mem)
    }

    /// Same as [`CostModel::roofline_us`] but with the minimum-kernel-body
    /// floor applied — use for *standalone* kernel launches (the multi-kernel
    /// path). Steps inside the single kernel have no such floor.
    pub fn kernel_body_us(&self, flops: f64, bytes: f64, warps: usize) -> f64 {
        self.roofline_us(flops, bytes, warps)
            .max(self.device.min_kernel_body_us)
    }

    /// Launch + inter-kernel synchronization overhead of one kernel call.
    #[inline]
    pub fn launch_us(&self) -> f64 {
        self.device.kernel_launch_us
    }

    /// Device-to-host scalar transfer (residual / dot result readback).
    #[inline]
    pub fn d2h_us(&self) -> f64 {
        self.device.d2h_scalar_us
    }

    /// Cost of `n` global atomic updates.
    #[inline]
    pub fn atomics_us(&self, n: usize) -> f64 {
        n as f64 * self.device.atomic_us
    }

    /// One busy-wait barrier poll step of the single-kernel scheme.
    #[inline]
    pub fn spin_us(&self) -> f64 {
        self.device.spin_poll_us
    }

    /// One global barrier epoch of the single-kernel scheme: every warp
    /// bumps the shared epoch counter (one atomic each) and busy-waits for
    /// the count to reach the warp total (one poll step charged; further
    /// polls overlap the stragglers' remaining work). This is the unit the
    /// pipelined schedules minimize — the classic CG model charges six such
    /// epochs per iteration (five steps and the iteration end), pipelined
    /// CG exactly one.
    #[inline]
    pub fn barrier_us(&self, warps: usize) -> f64 {
        self.atomics_us(warps) + self.spin_us()
    }

    /// Number of warps a BLAS-1 kernel over `n` elements puts in flight.
    pub fn blas1_warps(&self, n: usize) -> usize {
        n.div_ceil(ELEMS_PER_WARP_BLAS1)
            .clamp(1, self.device.max_resident_warps())
    }

    /// Number of warps the baseline CSR SpMV puts in flight.
    pub fn spmv_warps(&self, nnz: usize) -> usize {
        nnz.div_ceil(NNZ_PER_WARP_SPMV)
            .clamp(1, self.device.max_resident_warps())
    }

    /// Kernel body of the FP64 CSR SpMV as the cuSPARSE baseline runs it:
    /// 2 FLOPs per nonzero; traffic = 12 B/nnz (colidx + value) + 8 B/nnz
    /// gathered `x` + 12 B/row (`rowptr` + streamed `y`).
    pub fn spmv_csr_us(&self, nnz: usize, nrows: usize) -> f64 {
        let flops = 2.0 * nnz as f64;
        let bytes = 20.0 * nnz as f64 + 12.0 * nrows as f64;
        self.kernel_body_us(flops, bytes, self.spmv_warps(nnz))
    }

    /// Kernel body of a dot product over `n` elements (2 loads per element,
    /// 2 FLOPs, reduction traffic negligible).
    pub fn dot_us(&self, n: usize) -> f64 {
        let flops = 2.0 * n as f64;
        let bytes = 16.0 * n as f64;
        self.kernel_body_us(flops, bytes, self.blas1_warps(n))
    }

    /// Kernel body of an AXPY over `n` elements (2 loads + 1 store, 2 FLOPs).
    pub fn axpy_us(&self, n: usize) -> f64 {
        let flops = 2.0 * n as f64;
        let bytes = 24.0 * n as f64;
        self.kernel_body_us(flops, bytes, self.blas1_warps(n))
    }

    /// Kernel body of a sparse triangular solve with `nnz` nonzeros over `n`
    /// rows executed in `levels` dependency levels. Each level is a
    /// device-wide round trip (that is why SpTRSV is so much slower than
    /// SpMV), plus the roofline body of the touched data.
    pub fn sptrsv_us(&self, nnz: usize, n: usize, levels: usize) -> f64 {
        let body = self.roofline_us(
            2.0 * nnz as f64,
            20.0 * nnz as f64 + 20.0 * n as f64,
            self.spmv_warps(nnz),
        );
        let level_cost = levels as f64 * 0.8; // µs per dependency level sweep
        (body + level_cost).max(self.device.min_kernel_body_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;

    fn model() -> CostModel {
        CostModel::new(DeviceSpec::a100())
    }

    #[test]
    fn small_kernels_hit_the_floor() {
        let m = model();
        // A 100-element dot cannot beat the minimum kernel body time.
        assert_eq!(m.dot_us(100), m.device.min_kernel_body_us);
        assert_eq!(m.axpy_us(1), m.device.min_kernel_body_us);
    }

    #[test]
    fn large_spmv_is_bandwidth_bound() {
        let m = model();
        let nnz = 50_000_000;
        let us = m.spmv_csr_us(nnz, 1_000_000);
        // At full utilization: 20 B/nnz + 12 B/row over 1.555 TB/s.
        let expect = (20.0 * nnz as f64 + 12.0 * 1_000_000.0) / m.device.bytes_per_us();
        assert!((us - expect).abs() / expect < 1e-9, "{us} vs {expect}");
    }

    #[test]
    fn cost_scales_monotonically() {
        let m = model();
        let mut last = 0.0;
        for k in [1_000, 10_000, 100_000, 1_000_000, 10_000_000] {
            let us = m.spmv_csr_us(k, k / 5);
            assert!(us >= last, "not monotone at nnz={k}");
            last = us;
        }
    }

    #[test]
    fn mixed_precision_reduces_cost() {
        let m = model();
        // Same logical SpMV, FP8 values: 1 B/value instead of 8, FLOPs at
        // 1/8 weight — the roofline must price it lower.
        let nnz = 10_000_000usize;
        let fp64 = m.roofline_us(2.0 * nnz as f64, 20.0 * nnz as f64, m.spmv_warps(nnz));
        let fp8 = m.roofline_us(0.25 * nnz as f64, 13.0 * nnz as f64, m.spmv_warps(nnz));
        assert!(fp8 < fp64 * 0.8, "fp8 {fp8} vs fp64 {fp64}");
    }

    #[test]
    fn utilization_derates_small_work() {
        let m = model();
        // The same flops executed by 1 warp vs many warps is far slower.
        let one = m.roofline_us(1e6, 0.0, 1);
        let many = m.roofline_us(1e6, 0.0, m.device.warps_for_peak_compute);
        assert!(one > many * 100.0);
    }

    #[test]
    fn sptrsv_levels_dominate_for_sequential_matrices() {
        let m = model();
        // A bidiagonal matrix has n levels: SpTRSV cost is latency-bound.
        let serial = m.sptrsv_us(2_000, 1_000, 1_000);
        let parallel = m.sptrsv_us(2_000, 1_000, 4);
        assert!(serial > parallel * 10.0);
    }

    #[test]
    fn launch_and_sync_costs_exposed() {
        let m = model();
        assert_eq!(m.launch_us(), m.device.kernel_launch_us);
        assert_eq!(m.atomics_us(100), 100.0 * m.device.atomic_us);
        assert!(m.d2h_us() > 0.0);
        assert!(m.spin_us() > 0.0);
        // A barrier epoch is the atomic bumps plus one poll, and it grows
        // with the warp count (more counter traffic to serialize).
        assert_eq!(m.barrier_us(8), m.atomics_us(8) + m.spin_us());
        assert!(m.barrier_us(32) > m.barrier_us(2));
    }

    #[test]
    fn finding2_premise_holds() {
        // For a small matrix (the bcsstm22 scale: n=138, nnz=138), the six
        // kernel launches of a multi-kernel CG iteration cost more than the
        // kernel bodies themselves -> sync share > 50%, matching Fig. 2.
        let m = model();
        let n = 138;
        let body = m.spmv_csr_us(n, n) + 2.0 * m.dot_us(n) + 3.0 * m.axpy_us(n);
        let sync = 6.0 * m.launch_us() + 2.0 * m.d2h_us();
        assert!(sync > body, "sync {sync} vs body {body}");
    }
}
