//! Multi-device sharded CG/PCG over simulated devices ([`SimDevice`]).
//!
//! The matrix is row-block partitioned across N simulated devices by a
//! [`ShardPlan`] (shard boundaries on `tile_size`-row segment boundaries),
//! each device holding its contiguous tile span. Every iteration:
//!
//! 1. **Halo exchange** — each shard receives the boundary `p`-vector
//!    entries its tiles reference from their owner shards, one message per
//!    peer, charged to the [`Interconnect`] (`link_latency_us` + bytes /
//!    bandwidth) and recorded as a [`EventKind::Halo`] trace event with
//!    `(shard, iteration, step)` coordinates.
//! 2. **Local kernels** — per-shard SpMV over the shard's tile span
//!    (bitwise the shard's rows of the global SpMV, see
//!    [`mf_kernels::shard`]), then the AXPY-shaped updates on owned rows.
//! 3. **Two-level reduction** — every dot/norm is computed as per-segment
//!    partials on the owning device (level 1, the engines' single-writer
//!    layout), then combined by a fixed-order fold over the global segment
//!    sequence (level 2). Shards own contiguous segment runs, so the fold
//!    order is independent of the shard count — the totals are bitwise
//!    identical to `run_cg_threaded`'s `seg_total` at any (shards, warps).
//!
//! The orchestration is sequential over shards on the host, so the
//! numerics are deterministic by construction. Each shard keeps its own
//! copy of the search direction `p`, written on its owned rows and — only
//! by the halo exchange — on the halo entries its tiles read, so a stale
//! or missing halo entry breaks the numerics and trips the parity harness.
//! Kernels and transfers are charged to each device's [`Timeline`], and
//! the remaining iterates (`x`, `r`, `u`, `y`, `z`) are staged in the
//! reusable [`SolverWorkspace`], standing in for device-local memory.
//!
//! Under a [`FaultPlan`], the per-shard fault streams are polled at every
//! halo step (`poll` + `barrier_entry`): delays/stalls/retries charge
//! modeled wait/sync time and are tallied into [`InjectedFaults`], but —
//! because the orchestrator is sequential — they cannot reorder any
//! arithmetic, and the liveness faults (`Halt`, panic, poison) have no
//! thread to wedge, so they are counted and otherwise ignored. The parity
//! harness exploits exactly this: a faulted sharded solve must stay
//! bitwise identical to the clean one.

use crate::cg::curvature_breakdown;
use crate::report::{drive, Direction, EngineSection, Outcome, Slot, SolveReport};
use crate::workspace::SolverWorkspace;
use mf_gpu::{
    BarrierFault, DeviceSpec, FaultCounts, FaultPlan, InjectedFaults, Interconnect, Phase,
    ShardPlan, SimDevice, SpinFault, Timeline, WarpFaults,
};
use mf_kernels::shard::{sptrsv_lower_span, sptrsv_upper_span, ShardView};
use mf_kernels::Ilu0;
use mf_sparse::{Csr, TiledMatrix};
use mf_trace::{EventKind, Trace, TraceConfig, WarpTrace, WarpTracer};
use std::convert::Infallible;
use std::ops::Range;

/// Options of the sharded engines, one struct instead of telescoping
/// entry points (the [`crate::threaded::ThreadedOpts`] pattern).
#[derive(Clone, Debug)]
pub struct ShardedOpts {
    /// Requested shard (device) count; the effective count, clamped to the
    /// segment count, is reported in the report's
    /// [`EngineSection::Sharded`] section.
    pub shards: usize,
    /// Warp cap of the equivalent single-device schedule (the threaded
    /// engines' clamp; a cost-model input only). Must be ≥ 1.
    pub warps: usize,
    /// Device model every shard is priced on.
    pub device: DeviceSpec,
    /// Interconnect charged for halo messages and the level-2 reduction.
    pub link: Interconnect,
    /// Deterministic schedule perturbation, polled at every halo step (see
    /// the module docs). The empty default injects nothing and reports
    /// `injected_faults: None`.
    pub faults: FaultPlan,
    /// Event tracing: halo events carry `warp = shard`. A disabled config
    /// is bitwise inert.
    pub trace: TraceConfig,
}

impl ShardedOpts {
    /// `shards` devices and at most `warps` warps, with every other option
    /// at its default: A100 devices, an NVLink-3 interconnect, no faults,
    /// tracing off.
    pub fn new(shards: usize, warps: usize) -> ShardedOpts {
        ShardedOpts {
            shards,
            warps,
            device: DeviceSpec::a100(),
            link: Interconnect::nvlink3(),
            faults: FaultPlan::default(),
            trace: TraceConfig::default(),
        }
    }
}

/// The `b = 0` fast path, mirroring the threaded engines' prologue.
fn trivial_report(n: usize, warps: usize, shards: usize, value_bytes: Vec<usize>) -> SolveReport {
    SolveReport {
        x: vec![0.0; n],
        converged: true,
        warp_count: warps,
        engine: Some(EngineSection::Sharded {
            shards,
            halo_bytes: 0,
            halo_messages: 0,
            per_shard_value_bytes: value_bytes,
            injected_faults: None,
        }),
        ..SolveReport::default()
    }
}

/// Left-to-right fold over per-segment partials in global segment order —
/// the level-2 (inter-device) combine, identical to the threaded engines'
/// `seg_total`.
fn seg_fold(partials: &[f64]) -> f64 {
    let mut t = 0.0;
    for &v in partials {
        t += v;
    }
    t
}

/// Groups `cols` by their owning shard, in ascending shard order.
fn group_by_owner(plan: &ShardPlan, cols: &[usize]) -> Vec<(usize, Vec<usize>)> {
    let mut out: Vec<(usize, Vec<usize>)> = Vec::new();
    for &c in cols {
        let owner = plan.owner_of_row(c);
        match out.last_mut() {
            Some((o, v)) if *o == owner => v.push(c),
            _ => out.push((owner, vec![c])),
        }
    }
    out
}

/// Everything the orchestrator threads through both solvers: the devices,
/// the partition, the halo routing tables, tracers and fault streams.
struct ShardedRun<'m> {
    m: &'m TiledMatrix,
    plan: ShardPlan,
    views: Vec<ShardView>,
    devs: Vec<SimDevice>,
    /// Per shard: the device's copy of `p`, global-indexed; only owned
    /// rows and halo entries are ever read or written.
    p: Vec<Vec<f64>>,
    link: Interconnect,
    /// Per shard: `(peer, columns owned by peer)` for the `p` halo.
    p_peers: Vec<Vec<(usize, Vec<usize>)>>,
    warps_k: Vec<usize>,
    tracers: Vec<Option<WarpTracer>>,
    faults: Vec<Option<WarpFaults>>,
    halo_bytes: u64,
    halo_messages: u64,
}

impl<'m> ShardedRun<'m> {
    fn new(m: &'m TiledMatrix, opts: &ShardedOpts) -> ShardedRun<'m> {
        let (spec, trace, fault_plan) = (&opts.device, &opts.trace, &opts.faults);
        let plan = ShardPlan::for_matrix(m, opts.shards);
        let views = ShardView::build_all(m, &plan);
        let s = plan.shards;
        let devs = (0..s).map(|_| SimDevice::new(spec.clone())).collect();
        let p = vec![vec![0.0; m.nrows]; s];
        let p_peers = views
            .iter()
            .map(|v| group_by_owner(&plan, &v.halo_cols))
            .collect();
        let warps_k = (0..s)
            .map(|k| plan.segs(k).len().min(opts.warps).max(1))
            .collect();
        let tracers = (0..s)
            .map(|k| {
                trace
                    .enabled
                    .then(|| WarpTracer::new(k, trace.capacity_per_warp))
            })
            .collect();
        let faults = (0..s)
            .map(|k| (!fault_plan.is_empty()).then(|| fault_plan.for_warp(k)))
            .collect();
        ShardedRun {
            m,
            plan,
            views,
            devs,
            p,
            link: opts.link,
            p_peers,
            warps_k,
            tracers,
            faults,
            halo_bytes: 0,
            halo_messages: 0,
        }
    }

    fn shards(&self) -> usize {
        self.plan.shards
    }

    fn elems(&self, s: usize) -> Range<usize> {
        (s * self.plan.tile_size)..((s + 1) * self.plan.tile_size).min(self.plan.n)
    }

    /// Polls shard `k`'s fault stream at a halo step: schedule faults
    /// charge modeled time; liveness faults are tallied but cannot affect
    /// a sequential orchestrator (documented in the module header).
    fn poll_faults(&mut self, k: usize, j: i64, step: usize) {
        let Some(wf) = &self.faults[k] else { return };
        match wf.poll() {
            SpinFault::None => {}
            SpinFault::Delay(spins) => self.devs[k].charge(Phase::Wait, f64::from(spins) * 1e-3),
            SpinFault::Yield => self.devs[k].charge(Phase::Wait, 1.0),
        }
        let bf = self.faults[k].as_ref().unwrap().barrier_entry();
        match bf {
            BarrierFault::None => {}
            BarrierFault::Stall(d) => self.devs[k].charge(Phase::Sync, d.as_secs_f64() * 1e6),
            BarrierFault::Retry(polls) => self.devs[k].charge(Phase::Sync, f64::from(polls) * 1e-3),
            BarrierFault::Halt => {} // counted; nothing to wedge
        }
        if bf != BarrierFault::None {
            if let Some(t) = &self.tracers[k] {
                t.stamp(j, step);
                t.record(EventKind::Fault, bf.trace_code(), 0);
            }
        }
    }

    /// One charged halo message into shard `k` from `peer`, recorded as a
    /// `Halo` trace event at `(k, j, step)`.
    fn charge_halo(&mut self, k: usize, peer: usize, bytes: u64, j: i64, step: usize) {
        let us = self.link.transfer_us(bytes);
        self.devs[k].charge(Phase::Transfer, us);
        self.halo_bytes += bytes;
        self.halo_messages += 1;
        if let Some(t) = &self.tracers[k] {
            t.stamp(j, step);
            t.record(EventKind::Halo, bytes, ((peer as u64) << 32) | 1);
        }
    }

    /// The per-iteration `p` halo exchange: every shard receives the
    /// boundary entries its tiles reference, one message per peer, copied
    /// from the peer's copy of `p`. The copied values are load-bearing —
    /// the SpMV reads the shard's own copy, so a wrong halo set breaks
    /// parity.
    fn exchange_p(&mut self, j: i64, step: usize) {
        for k in 0..self.shards() {
            self.poll_faults(k, j, step);
            for pi in 0..self.p_peers[k].len() {
                let (peer, cols) = &self.p_peers[k][pi];
                let peer = *peer;
                for &c in cols {
                    self.p[k][c] = self.p[peer][c];
                }
                let bytes = 8 * cols.len() as u64;
                self.charge_halo(k, peer, bytes, j, step);
            }
        }
    }

    /// Prices shard `k`'s SpMV on its own roofline.
    fn charge_spmv(&mut self, k: usize) {
        let v = &self.views[k];
        let nnz = (self.m.tile_nnz[v.tiles.end] - self.m.tile_nnz[v.tiles.start]) as f64;
        let rows = v.rows.len() as f64;
        let flops = 2.0 * nnz;
        let bytes = v.value_bytes as f64 + 6.0 * nnz + 16.0 * rows;
        let w = self.warps_k[k];
        self.devs[k].charge_kernel(Phase::Spmv, flops, bytes, w);
    }

    /// Prices one fused AXPY/dot pass over shard `k`'s rows.
    fn charge_vector_pass(
        &mut self,
        k: usize,
        phase: Phase,
        flops_per_row: f64,
        bytes_per_row: f64,
    ) {
        let rows = self.views[k].rows.len() as f64;
        let w = self.warps_k[k];
        self.devs[k].charge_kernel(phase, flops_per_row * rows, bytes_per_row * rows, w);
    }

    /// Prices the level-2 combine: each device ships its segment partials
    /// over the link in fixed order.
    fn charge_reduce(&mut self, k: usize) {
        let bytes = 8 * self.plan.segs(k).len() as u64;
        let us = self.link.transfer_us(bytes);
        self.devs[k].charge(Phase::Atomic, us);
    }

    /// Segment partials of `Σ a[e]·b[e]` for shard `k`'s segments, pushed
    /// onto `out` in global segment order (callers iterate shards 0..N).
    fn dot_partials(&self, k: usize, a: &[f64], b: &[f64], out: &mut Vec<f64>) {
        for s in self.plan.segs(k) {
            let mut part = 0.0;
            for e in self.elems(s) {
                part += a[e] * b[e];
            }
            out.push(part);
        }
    }

    /// Charges each device's download of its row block of `x` (staged in
    /// `ws.x`) over the host link, then folds the run's telemetry and `out`
    /// into the report.
    fn finish(
        mut self,
        faults: &FaultPlan,
        ws: &SolverWorkspace,
        warps: usize,
        out: Outcome,
    ) -> SolveReport {
        for k in 0..self.shards() {
            let own = self.plan.rows(k).len();
            if own > 0 {
                self.devs[k].charge_host_transfer(own);
            }
        }
        let injected_faults = (!faults.is_empty()).then(|| InjectedFaults {
            plan: faults.to_string(),
            counts: self
                .faults
                .iter()
                .flatten()
                .fold(FaultCounts::default(), |a, f| a.merge(f.counts())),
        });
        let warp_traces: Vec<WarpTrace> = self
            .tracers
            .into_iter()
            .flatten()
            .map(|t| t.finish())
            .collect();
        let trace = (!warp_traces.is_empty()).then(|| {
            let mut tr = Trace::merge(warp_traces);
            crate::report::append_breakdown_epilogue(&mut tr, &out.breakdowns);
            tr
        });
        let mut timeline = Timeline::new();
        for d in &self.devs {
            timeline.merge(d.timeline());
        }
        SolveReport {
            x: ws.x.clone(),
            warp_count: warps,
            trace,
            timeline,
            engine: Some(EngineSection::Sharded {
                shards: self.plan.shards,
                halo_bytes: self.halo_bytes,
                halo_messages: self.halo_messages,
                per_shard_value_bytes: self.views.iter().map(|v| v.value_bytes).collect(),
                injected_faults,
            }),
            ..out.report()
        }
    }
}

/// Sharded CG across `opts.shards` simulated devices — bitwise identical
/// in every numeric output to `run_cg_threaded` at
/// `ThreadedOpts::new(opts.warps)` for any `(shards, warps)` (pinned by
/// `tests/sharded_parity.rs`). The host-staged vectors live in `ws`.
pub fn run_cg_sharded(
    m: &TiledMatrix,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    opts: &ShardedOpts,
    ws: &mut SolverWorkspace,
) -> SolveReport {
    run_sharded(m, None, b, tol, max_iter, opts, ws)
}

/// Sharded ILU(0)-PCG — bitwise identical in every numeric output to
/// `run_pcg_threaded` for any `(shards, warps)`. The triangular solves
/// run shard spans sequentially (0→N−1 for `L`, N−1→0 for `U`), each
/// shard importing the cross-shard entries its rows reference over the
/// interconnect before its span; see [`mf_kernels::shard`].
pub fn run_pcg_sharded(
    m: &TiledMatrix,
    ilu: &Ilu0,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    opts: &ShardedOpts,
    ws: &mut SolverWorkspace,
) -> SolveReport {
    run_sharded(m, Some(ilu), b, tol, max_iter, opts, ws)
}

/// The one sharded CG-family body, mirroring the threaded one step for
/// step on the same loop driver: PCG with `ilu`, plain CG without it —
/// `z` is then `r` itself, no preconditioner step runs, and the initial ρ
/// is the plain left-to-right `‖b‖²`.
fn run_sharded(
    m: &TiledMatrix,
    ilu: Option<&Ilu0>,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    opts: &ShardedOpts,
    ws: &mut SolverWorkspace,
) -> SolveReport {
    let n = m.nrows;
    assert_eq!(b.len(), n);
    assert_eq!(m.nrows, m.ncols);
    if let Some(f) = ilu {
        assert_eq!(f.l.nrows, n);
        assert_eq!(f.u.nrows, n);
    }
    assert!(opts.warps >= 1);

    let ts = m.tile_size;
    let segments = n.div_ceil(ts).max(1);
    let warps = segments.min(opts.warps).max(1);

    let mut run = ShardedRun::new(m, opts);
    let s_count = run.shards();

    let norm_b: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
    if norm_b == 0.0 {
        let vb = run.views.iter().map(|v| v.value_bytes).collect();
        return trivial_report(n, warps, s_count, vb);
    }

    // Cross-shard columns of the triangular factors, grouped by owner —
    // the halo each sequential SpTRSV span imports before it runs.
    let peers = |t: &Csr, run: &ShardedRun<'_>| -> Vec<Vec<(usize, Vec<usize>)>> {
        (0..s_count)
            .map(|k| group_by_owner(&run.plan, &run.plan.csr_halo_columns(t, k)))
            .collect()
    };
    let halos = ilu.map(|f| (peers(&f.l, &run), peers(&f.u, &run)));
    let row_nnz = |t: &Csr, rows: Range<usize>| (t.rowptr[rows.end] - t.rowptr[rows.start]) as f64;

    ws.ensure(n);
    ws.r.copy_from_slice(b);
    let mut out = Outcome::new();

    // z = M⁻¹ r: sequential shard spans with charged halo imports. The
    // imported values already sit in the host-staged global vectors — the
    // charge models the movement a real device pair would pay.
    let apply_precond =
        |run: &mut ShardedRun<'_>, ws: &mut SolverWorkspace, j: i64, step: usize| {
            let (Some(f), Some((l_peers, u_peers))) = (ilu, &halos) else {
                return;
            };
            for (k, peers) in l_peers.iter().enumerate() {
                for (peer, cols) in peers {
                    run.charge_halo(k, *peer, 8 * cols.len() as u64, j, step);
                }
                sptrsv_lower_span(&f.l, &ws.r, &mut ws.y, true, run.plan.rows(k));
                let fl = 2.0 * row_nnz(&f.l, run.plan.rows(k));
                run.devs[k].charge_kernel(Phase::SpTrsv, fl, 6.0 * fl, run.warps_k[k]);
            }
            for (k, peers) in u_peers.iter().enumerate().rev() {
                for (peer, cols) in peers {
                    run.charge_halo(k, *peer, 8 * cols.len() as u64, j, step);
                }
                sptrsv_upper_span(&f.u, &ws.y, &mut ws.z, false, run.plan.rows(k));
                let fl = 2.0 * row_nnz(&f.u, run.plan.rows(k));
                run.devs[k].charge_kernel(Phase::SpTrsv, fl, 6.0 * fl, run.warps_k[k]);
            }
        };
    // Restarts the direction from the residual: p = z on every shard's
    // copy and ρ = (r, z); z is r without a preconditioner.
    let redirect = |run: &mut ShardedRun<'_>, ws: &SolverWorkspace| {
        let z = if ilu.is_some() { &ws.z } else { &ws.r };
        let mut seg_rz: Vec<f64> = Vec::with_capacity(segments);
        for k in 0..s_count {
            let own = run.plan.rows(k);
            run.p[k][own.clone()].copy_from_slice(&z[own]);
            run.dot_partials(k, &ws.r, z, &mut seg_rz);
            if ilu.is_some() {
                run.charge_vector_pass(k, Phase::Dot, 2.0, 24.0);
                run.charge_reduce(k);
            } else {
                run.charge_vector_pass(k, Phase::Dot, 2.0, 8.0);
                run.charge_reduce(k);
                run.charge_vector_pass(k, Phase::Axpy, 0.0, 16.0);
            }
        }
        seg_fold(&seg_rz)
    };

    // ---- Init: z = M⁻¹ r (r = b), p = z, ρ = (r, z); CG uploads p = b
    // and starts from ρ = ‖b‖².
    let mut rz = if ilu.is_some() {
        apply_precond(&mut run, ws, 0, 0);
        redirect(&mut run, ws)
    } else {
        for k in 0..s_count {
            let own = run.plan.rows(k);
            if !own.is_empty() {
                run.p[k][own.clone()].copy_from_slice(&b[own.clone()]);
                run.devs[k].charge_host_transfer(own.len());
            }
        }
        b.iter().map(|v| v * v).sum()
    };

    let Ok(()) = drive::<Infallible>(
        &mut out,
        max_iter,
        tol,
        None,
        || Ok(()),
        |j, _| {
            // ---- u = A p; curvature pᵀ A p.
            run.exchange_p(j, 1);
            let mut seg_pu: Vec<f64> = Vec::with_capacity(segments);
            for k in 0..s_count {
                let own = run.plan.rows(k);
                run.views[k].spmv(m, &run.p[k], &mut ws.u[own]);
                run.charge_spmv(k);
                run.dot_partials(k, &ws.u, &run.p[k], &mut seg_pu);
                run.charge_vector_pass(k, Phase::Dot, 2.0, 16.0);
                run.charge_reduce(k);
            }
            let pu = seg_fold(&seg_pu);
            let alpha = rz / pu;
            if let Some(kind) = curvature_breakdown(alpha, pu) {
                // ---- Breakdown: restart the direction from the residual.
                rz = redirect(&mut run, ws);
                return Ok(Slot::Restart {
                    kind,
                    finite: rz.is_finite(),
                    relres: ilu.is_none().then(|| rz.max(0.0).sqrt() / norm_b),
                });
            }

            // ---- x += αp, r −= αu, ‖r‖² partials.
            let mut seg_rr: Vec<f64> = Vec::with_capacity(segments);
            for k in 0..s_count {
                let pbuf = &run.p[k];
                for s in run.plan.segs(k) {
                    let mut part = 0.0;
                    for e in run.elems(s) {
                        ws.x[e] += alpha * pbuf[e];
                        let rv = ws.r[e] - alpha * ws.u[e];
                        ws.r[e] = rv;
                        part += rv * rv;
                    }
                    seg_rr.push(part);
                }
            }
            for k in 0..s_count {
                run.charge_vector_pass(k, Phase::Axpy, 4.0, 48.0);
                run.charge_vector_pass(k, Phase::Dot, 2.0, 8.0);
                run.charge_reduce(k);
            }
            let rr = seg_fold(&seg_rr);
            if !rr.is_finite() {
                return Ok(Slot::NonFinite);
            }

            // ---- z = M⁻¹ r and ρ' = (r, z); without a preconditioner ρ' is
            // ‖r‖² itself.
            let rz_new = if ilu.is_some() {
                apply_precond(&mut run, ws, j, 3);
                let mut seg_rz: Vec<f64> = Vec::with_capacity(segments);
                for k in 0..s_count {
                    run.dot_partials(k, &ws.r, &ws.z, &mut seg_rz);
                    run.charge_vector_pass(k, Phase::Dot, 2.0, 16.0);
                    run.charge_reduce(k);
                }
                seg_fold(&seg_rz)
            } else {
                rr
            };
            let beta = rz_new / rz;
            rz = rz_new;

            // ---- p = z + βp on every shard's copy.
            let z = if ilu.is_some() { &ws.z } else { &ws.r };
            for k in 0..s_count {
                let own = run.plan.rows(k);
                let pbuf = &mut run.p[k];
                for e in own {
                    pbuf[e] = z[e] + beta * pbuf[e];
                }
                run.charge_vector_pass(k, Phase::Axpy, 2.0, 24.0);
            }
            let lost = ilu.is_some() && !beta.is_finite();
            let direction = if lost {
                Direction::Lost
            } else {
                Direction::Kept
            };
            Ok(Slot::Done(rr.max(0.0).sqrt() / norm_b, direction))
        },
    );

    run.finish(&opts.faults, ws, warps, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_sparse::Coo;

    fn poisson1d(n: usize) -> Csr {
        let mut a = Coo::new(n, n);
        for i in 0..n {
            a.push(i, i, 2.0);
            if i > 0 {
                a.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                a.push(i, i + 1, -1.0);
            }
        }
        a.to_csr()
    }

    #[test]
    fn sharded_cg_matches_threaded_bitwise() {
        let a = poisson1d(96);
        let m = TiledMatrix::from_csr(&a);
        let mut b = vec![0.0; 96];
        a.matvec(&vec![1.0; 96], &mut b);
        let opts = crate::threaded::ThreadedOpts::new(4);
        let single = crate::threaded::run_cg_threaded(&m, &b, 1e-10, 300, &opts);
        for shards in [1, 2, 3, 4] {
            let rep = run_cg_sharded(
                &m,
                &b,
                1e-10,
                300,
                &ShardedOpts::new(shards, 4),
                &mut SolverWorkspace::new(),
            );
            assert_eq!(rep.iterations, single.iterations, "{shards} shards");
            assert_eq!(rep.converged, single.converged);
            assert_eq!(rep.final_relres.to_bits(), single.final_relres.to_bits());
            assert_eq!(
                rep.residual_history
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                single
                    .residual_history
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>()
            );
            assert_eq!(
                rep.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                single.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
            let Some(EngineSection::Sharded {
                shards: used,
                halo_bytes,
                ..
            }) = rep.engine
            else {
                panic!("a sharded run reports its sharding");
            };
            assert_eq!(used, shards.min(6));
            if shards > 1 {
                assert!(halo_bytes > 0);
                assert!(rep.timeline.get(Phase::Transfer) > 0.0);
            }
        }
    }

    #[test]
    fn zero_rhs_is_trivially_converged() {
        let a = poisson1d(40);
        let m = TiledMatrix::from_csr(&a);
        let rep = run_cg_sharded(
            &m,
            &vec![0.0; 40],
            1e-10,
            50,
            &ShardedOpts::new(3, 2),
            &mut SolverWorkspace::new(),
        );
        assert!(rep.converged);
        assert_eq!(rep.iterations, 0);
        assert_eq!(rep.final_relres, 0.0);
        assert_eq!(rep.status_label(), "converged");
    }

    #[test]
    fn value_bytes_split_sums_to_total() {
        let a = poisson1d(128);
        let m = TiledMatrix::from_csr(&a);
        let rep = run_cg_sharded(
            &m,
            &vec![1.0; 128],
            1e-10,
            5,
            &ShardedOpts::new(4, 2),
            &mut SolverWorkspace::new(),
        );
        let Some(EngineSection::Sharded {
            per_shard_value_bytes,
            ..
        }) = rep.engine
        else {
            panic!("a sharded run reports its sharding");
        };
        assert_eq!(
            per_shard_value_bytes.iter().sum::<usize>(),
            m.vals_raw().len()
        );
        assert_eq!(per_shard_value_bytes.len(), 4);
    }
}
