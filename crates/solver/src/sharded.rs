//! Multi-device sharded CG/PCG on top of the [`Device`] backend trait.
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
//! numerics are deterministic by construction; what the backend trait
//! contributes is the *ownership and cost seam*: the distributed `p` and
//! result `x` live in [`Device`] buffers (a stale or missing halo entry
//! breaks the numerics and trips the parity harness), kernels and
//! transfers are charged to each device's [`Timeline`], and the
//! per-device private iterates (`r`, `u`, `y`, `z`) are staged in the
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

use crate::config::MAX_CONSECUTIVE_RESTARTS;
use crate::report::{BreakdownEvent, BreakdownKind, RecoveryAction, SolveFailure};
use crate::workspace::SolverWorkspace;
use mf_gpu::{
    BarrierFault, BufferId, Device, DeviceSpec, FaultCounts, FaultPlan, InjectedFaults,
    Interconnect, Phase, ShardPlan, SimDevice, SpinFault, Timeline, WarpFaults,
};
use mf_kernels::shard::{sptrsv_lower_span, sptrsv_upper_span, ShardView};
use mf_kernels::Ilu0;
use mf_sparse::{Csr, TiledMatrix};
use mf_trace::{EventKind, Trace, TraceConfig, WarpTrace, WarpTracer};
use std::ops::Range;

/// Result of a sharded solve. The numeric fields (`x`, `iterations`,
/// `converged`, `final_relres`, `residual_history`, `breakdowns`,
/// `failure`) mirror [`crate::threaded::ThreadedReport`] field-for-field
/// and are bitwise identical to it for any shard count; the rest is
/// sharding telemetry.
#[derive(Clone, Debug)]
pub struct ShardedReport {
    /// Solution (assembled from the per-device row blocks).
    pub x: Vec<f64>,
    /// Iterations executed.
    pub iterations: usize,
    /// Converged within tolerance.
    pub converged: bool,
    /// Final relative residual (recurrence; last *finite* value observed).
    pub final_relres: f64,
    /// Effective shard (device) count after clamping to the segment count.
    pub shards: usize,
    /// Warps the equivalent single-device schedule would use (the same
    /// clamp as the threaded engines; cost-model input only).
    pub warps: usize,
    /// Every breakdown observed, in iteration order.
    pub breakdowns: Vec<BreakdownEvent>,
    /// Set when the solve terminated abnormally (same taxonomy and same
    /// decisions as the threaded engines).
    pub failure: Option<SolveFailure>,
    /// Recurrence relative residual after each completed (non-breakdown)
    /// iteration.
    pub residual_history: Vec<f64>,
    /// Fault-injection telemetry (`None` under an empty plan).
    pub injected_faults: Option<InjectedFaults>,
    /// Merged per-shard event trace (halo events carry `warp = shard`);
    /// `None` unless tracing was enabled.
    pub trace: Option<Trace>,
    /// Total bytes moved over the interconnect by halo traffic.
    pub halo_bytes: u64,
    /// Total halo messages (one per (receiver, peer) pair per exchange).
    pub halo_messages: u64,
    /// Packed matrix value bytes resident on each device — the `fig_shard`
    /// scaling-shape metric (≈ total / shards per device).
    pub per_shard_value_bytes: Vec<usize>,
    /// Modeled time, merged across every device's ledger.
    pub timeline: Timeline,
}

impl ShardedReport {
    /// Table-II style status: `converged`, `max_iter`, or
    /// `aborted(<breakdown>)` — same labeling as the other reports.
    pub fn status_label(&self) -> String {
        crate::report::status_label_parts(self.converged, &self.breakdowns, self.failure.as_ref())
    }
}

/// The `b = 0` fast path, mirroring the threaded `trivial_report`.
fn trivial_report(n: usize, warps: usize, shards: usize, value_bytes: Vec<usize>) -> ShardedReport {
    ShardedReport {
        x: vec![0.0; n],
        iterations: 0,
        converged: true,
        final_relres: 0.0,
        shards,
        warps,
        breakdowns: Vec::new(),
        failure: None,
        residual_history: Vec::new(),
        injected_faults: None,
        trace: None,
        halo_bytes: 0,
        halo_messages: 0,
        per_shard_value_bytes: value_bytes,
        timeline: Timeline::new(),
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
    devs: Vec<Box<dyn Device>>,
    p_id: Vec<BufferId>,
    x_id: Vec<BufferId>,
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
    fn new(
        m: &'m TiledMatrix,
        shards: usize,
        max_warps: usize,
        spec: &DeviceSpec,
        link: Interconnect,
        fault_plan: &FaultPlan,
        trace: &TraceConfig,
    ) -> ShardedRun<'m> {
        let plan = ShardPlan::for_matrix(m, shards);
        let views = ShardView::build_all(m, &plan);
        let s = plan.shards;
        let mut devs: Vec<Box<dyn Device>> = Vec::with_capacity(s);
        let mut p_id = Vec::with_capacity(s);
        let mut x_id = Vec::with_capacity(s);
        for k in 0..s {
            let mut d = SimDevice::new(format!("sim:{k}"), spec.clone());
            // Global-indexed views: only owned rows (+ halo entries for p)
            // are ever read or written on device k.
            p_id.push(d.alloc(m.nrows));
            x_id.push(d.alloc(m.nrows));
            devs.push(Box::new(d));
        }
        let p_peers = views
            .iter()
            .map(|v| group_by_owner(&plan, &v.halo_cols))
            .collect();
        let warps_k = (0..s)
            .map(|k| plan.segs(k).len().min(max_warps).max(1))
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
            p_id,
            x_id,
            link,
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
    /// device-to-device. The copied values are load-bearing — the SpMV
    /// reads `p` from the device buffer, so a wrong halo set breaks parity.
    fn exchange_p(&mut self, j: i64, step: usize) {
        for k in 0..self.shards() {
            self.poll_faults(k, j, step);
            for pi in 0..self.p_peers[k].len() {
                let (peer, cols) = self.p_peers[k][pi].clone();
                let src = self.devs[peer].buffer(self.p_id[peer]).as_slice();
                let vals: Vec<f64> = cols.iter().map(|&c| src[c]).collect();
                let dst = self.devs[k].buffer_mut(self.p_id[k]).as_mut_slice();
                for (&c, &v) in cols.iter().zip(&vals) {
                    dst[c] = v;
                }
                self.charge_halo(k, peer, 8 * cols.len() as u64, j, step);
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

    /// Writes the solve's row blocks of `x` into each device's result
    /// buffer and downloads them back (charging the host link), assembling
    /// into `ws.x`.
    fn download_x(&mut self, x: &mut [f64]) {
        for k in 0..self.shards() {
            let own = self.plan.rows(k);
            if own.is_empty() {
                continue;
            }
            let xb = self.devs[k].buffer_mut(self.x_id[k]).as_mut_slice();
            xb[own.clone()].copy_from_slice(&x[own.clone()]);
            let mut block = vec![0.0; own.len()];
            self.devs[k].download(self.x_id[k], own.start, &mut block);
            x[own].copy_from_slice(&block);
        }
    }

    /// Folds the run's telemetry into a report skeleton.
    fn finish(
        self,
        fault_plan: &FaultPlan,
        breakdowns: &[BreakdownEvent],
    ) -> (
        Option<InjectedFaults>,
        Option<Trace>,
        u64,
        u64,
        Vec<usize>,
        Timeline,
    ) {
        let injected = (!fault_plan.is_empty()).then(|| InjectedFaults {
            plan: fault_plan.to_string(),
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
            crate::report::append_breakdown_epilogue(&mut tr, breakdowns);
            tr
        });
        let mut timeline = Timeline::new();
        for d in &self.devs {
            timeline.merge(d.timeline());
        }
        let value_bytes = self.views.iter().map(|v| v.value_bytes).collect();
        (
            injected,
            trace,
            self.halo_bytes,
            self.halo_messages,
            value_bytes,
            timeline,
        )
    }
}

/// Sharded CG with defaults: A100 devices, NVLink-3 interconnect, no
/// faults, no tracing, a throwaway workspace.
pub fn run_cg_sharded(
    m: &TiledMatrix,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    shards: usize,
    max_warps: usize,
) -> ShardedReport {
    run_cg_sharded_full(
        m,
        b,
        tol,
        max_iter,
        shards,
        max_warps,
        &DeviceSpec::a100(),
        Interconnect::nvlink3(),
        &FaultPlan::default(),
        &TraceConfig::default(),
        &mut SolverWorkspace::new(),
    )
}

/// Sharded CG across `shards` simulated devices — bitwise identical in
/// every numeric output to `run_cg_threaded` at `ThreadedOpts::new(warps)`
/// for any `(shards, warps)` (pinned by `tests/sharded_parity.rs`).
#[allow(clippy::too_many_arguments)]
pub fn run_cg_sharded_full(
    m: &TiledMatrix,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    shards: usize,
    max_warps: usize,
    spec: &DeviceSpec,
    link: Interconnect,
    fault_plan: &FaultPlan,
    trace: &TraceConfig,
    ws: &mut SolverWorkspace,
) -> ShardedReport {
    let n = m.nrows;
    assert_eq!(b.len(), n);
    assert_eq!(m.nrows, m.ncols);
    assert!(max_warps >= 1);

    let ts = m.tile_size;
    let segments = n.div_ceil(ts).max(1);
    let warps = segments.min(max_warps).max(1);

    let mut run = ShardedRun::new(m, shards, max_warps, spec, link, fault_plan, trace);
    let s_count = run.shards();

    let norm_b: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
    if norm_b == 0.0 {
        let vb = run.views.iter().map(|v| v.value_bytes).collect();
        return trivial_report(n, warps, s_count, vb);
    }
    let rr0: f64 = b.iter().map(|v| v * v).sum();

    ws.ensure(n);
    ws.r.copy_from_slice(b);
    for k in 0..s_count {
        let own = run.plan.rows(k);
        if !own.is_empty() {
            run.devs[k].upload(run.p_id[k], own.start, &b[own]);
        }
    }

    let mut rr = rr0;
    let mut consecutive_restarts = 0usize;
    let mut events: Vec<BreakdownEvent> = Vec::new();
    let mut trail: Vec<f64> = Vec::new();
    let mut iterations = 0usize;
    let mut converged = false;
    let mut final_relres = f64::INFINITY;
    let mut failure: Option<SolveFailure> = None;

    for j in 0..max_iter as i64 {
        let it = j as usize;
        // ---- Step A/B: halo in, u = A·p, per-segment (u, p) partials.
        run.exchange_p(j, 0);
        let mut seg_y: Vec<f64> = Vec::with_capacity(segments);
        for k in 0..s_count {
            let own = run.plan.rows(k);
            {
                let pbuf = run.devs[k].buffer(run.p_id[k]).as_slice();
                run.views[k].spmv(m, pbuf, &mut ws.u[own]);
            }
            run.charge_spmv(k);
            let pbuf = run.devs[k].buffer(run.p_id[k]).as_slice();
            for s in run.plan.segs(k) {
                let mut part = 0.0;
                #[allow(clippy::needless_range_loop)]
                // e indexes the host vectors and the device p buffer together
                for e in (s * ts)..(((s + 1) * ts).min(n)) {
                    part += ws.u[e] * pbuf[e];
                }
                seg_y.push(part);
            }
            run.charge_vector_pass(k, Phase::Dot, 2.0, 16.0);
            run.charge_reduce(k);
        }
        let py = seg_fold(&seg_y);
        let alpha = rr / py;

        if !alpha.is_finite() || py <= 0.0 {
            // ---- Breakdown: restart the direction from the residual.
            let kind = if py.is_finite() && py <= 0.0 {
                BreakdownKind::Curvature
            } else {
                BreakdownKind::NonFinite
            };
            let mut seg_bd: Vec<f64> = Vec::with_capacity(segments);
            for k in 0..s_count {
                run.dot_partials(k, &ws.r, &ws.r, &mut seg_bd);
                run.charge_vector_pass(k, Phase::Dot, 2.0, 8.0);
                run.charge_reduce(k);
            }
            let rr_restart = seg_fold(&seg_bd);
            for k in 0..s_count {
                let own = run.plan.rows(k);
                let pbuf = run.devs[k].buffer_mut(run.p_id[k]).as_mut_slice();
                pbuf[own.clone()].copy_from_slice(&ws.r[own]);
                run.charge_vector_pass(k, Phase::Axpy, 0.0, 16.0);
            }
            rr = rr_restart;
            consecutive_restarts += 1;
            let abort_nonfinite = !rr_restart.is_finite();
            let abort_stalled = consecutive_restarts >= MAX_CONSECUTIVE_RESTARTS;
            let action = if abort_nonfinite || abort_stalled {
                RecoveryAction::Aborted
            } else {
                RecoveryAction::Restarted
            };
            events.push(BreakdownEvent {
                iteration: it,
                kind,
                action,
            });
            iterations = it + 1;
            let relres = rr_restart.max(0.0).sqrt() / norm_b;
            if relres.is_finite() {
                final_relres = relres;
            }
            if abort_nonfinite {
                failure = Some(SolveFailure::NonFinite { iteration: it });
                break;
            } else if abort_stalled {
                failure = Some(SolveFailure::Stalled { iteration: it });
                break;
            }
            continue;
        }

        // ---- Step C: x += αp, r −= αu, per-segment ‖r‖² partials.
        let mut seg_z: Vec<f64> = Vec::with_capacity(segments);
        for k in 0..s_count {
            let pbuf = run.devs[k].buffer(run.p_id[k]).as_slice();
            for s in run.plan.segs(k) {
                let mut part_z = 0.0;
                #[allow(clippy::needless_range_loop)]
                // e indexes the host vectors and the device p buffer together
                for e in (s * ts)..(((s + 1) * ts).min(n)) {
                    ws.x[e] += alpha * pbuf[e];
                    let rv = ws.r[e] - alpha * ws.u[e];
                    ws.r[e] = rv;
                    part_z += rv * rv;
                }
                seg_z.push(part_z);
            }
        }
        for k in 0..s_count {
            run.charge_vector_pass(k, Phase::Axpy, 4.0, 48.0);
            run.charge_vector_pass(k, Phase::Dot, 2.0, 8.0);
            run.charge_reduce(k);
        }
        let rr_new = seg_fold(&seg_z);

        if !rr_new.is_finite() {
            events.push(BreakdownEvent {
                iteration: it,
                kind: BreakdownKind::NonFinite,
                action: RecoveryAction::Aborted,
            });
            iterations = it + 1;
            failure = Some(SolveFailure::NonFinite { iteration: it });
            break;
        }
        consecutive_restarts = 0;
        let beta = rr_new / rr;
        rr = rr_new;

        // ---- Step D: p = r + βp on the device buffers.
        for k in 0..s_count {
            let own = run.plan.rows(k);
            let pbuf = run.devs[k].buffer_mut(run.p_id[k]).as_mut_slice();
            for e in own {
                pbuf[e] = ws.r[e] + beta * pbuf[e];
            }
            run.charge_vector_pass(k, Phase::Axpy, 2.0, 24.0);
        }

        let relres = rr_new.max(0.0).sqrt() / norm_b;
        iterations = it + 1;
        final_relres = relres;
        trail.push(relres);
        if relres < tol {
            converged = true;
            break;
        }
    }

    run.download_x(&mut ws.x);
    let (injected_faults, trace, halo_bytes, halo_messages, per_shard_value_bytes, timeline) =
        run.finish(fault_plan, &events);
    ShardedReport {
        x: ws.x.clone(),
        iterations,
        converged,
        final_relres,
        shards: s_count,
        warps,
        breakdowns: events,
        failure,
        residual_history: trail,
        injected_faults,
        trace,
        halo_bytes,
        halo_messages,
        per_shard_value_bytes,
        timeline,
    }
}

/// Sharded ILU(0)-PCG with defaults; see [`run_pcg_sharded_full`].
pub fn run_pcg_sharded(
    m: &TiledMatrix,
    ilu: &Ilu0,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    shards: usize,
    max_warps: usize,
) -> ShardedReport {
    run_pcg_sharded_full(
        m,
        ilu,
        b,
        tol,
        max_iter,
        shards,
        max_warps,
        &DeviceSpec::a100(),
        Interconnect::nvlink3(),
        &FaultPlan::default(),
        &TraceConfig::default(),
        &mut SolverWorkspace::new(),
    )
}

/// Sharded ILU(0)-PCG — bitwise identical in every numeric output to
/// `run_pcg_threaded` for any `(shards, warps)`. The triangular solves
/// run shard spans sequentially (0→N−1 for `L`, N−1→0 for `U`), each
/// shard importing the cross-shard entries its rows reference over the
/// interconnect before its span; see [`mf_kernels::shard`].
#[allow(clippy::too_many_arguments)]
pub fn run_pcg_sharded_full(
    m: &TiledMatrix,
    ilu: &Ilu0,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    shards: usize,
    max_warps: usize,
    spec: &DeviceSpec,
    link: Interconnect,
    fault_plan: &FaultPlan,
    trace: &TraceConfig,
    ws: &mut SolverWorkspace,
) -> ShardedReport {
    let n = m.nrows;
    assert_eq!(b.len(), n);
    assert_eq!(m.nrows, m.ncols);
    assert_eq!(ilu.l.nrows, n);
    assert_eq!(ilu.u.nrows, n);
    assert!(max_warps >= 1);

    let ts = m.tile_size;
    let segments = n.div_ceil(ts).max(1);
    let warps = segments.min(max_warps).max(1);

    let mut run = ShardedRun::new(m, shards, max_warps, spec, link, fault_plan, trace);
    let s_count = run.shards();

    let norm_b: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
    if norm_b == 0.0 {
        let vb = run.views.iter().map(|v| v.value_bytes).collect();
        return trivial_report(n, warps, s_count, vb);
    }

    // Cross-shard columns of the triangular factors, grouped by owner —
    // the halo each sequential SpTRSV span imports before it runs.
    let l_peers: Vec<Vec<(usize, Vec<usize>)>> = (0..s_count)
        .map(|k| group_by_owner(&run.plan, &run.plan.csr_halo_columns(&ilu.l, k)))
        .collect();
    let u_peers: Vec<Vec<(usize, Vec<usize>)>> = (0..s_count)
        .map(|k| group_by_owner(&run.plan, &run.plan.csr_halo_columns(&ilu.u, k)))
        .collect();
    let row_nnz = |t: &Csr, rows: Range<usize>| (t.rowptr[rows.end] - t.rowptr[rows.start]) as f64;

    ws.ensure(n);
    ws.r.copy_from_slice(b);

    let mut events: Vec<BreakdownEvent> = Vec::new();
    let mut trail: Vec<f64> = Vec::new();
    let mut iterations = 0usize;
    let mut converged = false;
    let mut final_relres = f64::INFINITY;
    let mut failure: Option<SolveFailure> = None;

    // z = M⁻¹ r: sequential shard spans with charged halo imports. The
    // imported values already sit in the host-staged global vectors — the
    // charge models the movement a real device pair would pay.
    macro_rules! apply_precond {
        ($j:expr, $step:expr) => {{
            for k in 0..s_count {
                for (peer, cols) in l_peers[k].clone() {
                    run.charge_halo(k, peer, 8 * cols.len() as u64, $j, $step);
                }
                sptrsv_lower_span(&ilu.l, &ws.r, &mut ws.y, true, run.plan.rows(k));
                let fl = 2.0 * row_nnz(&ilu.l, run.plan.rows(k));
                run.devs[k].charge_kernel(Phase::SpTrsv, fl, 6.0 * fl, run.warps_k[k]);
            }
            for k in (0..s_count).rev() {
                for (peer, cols) in u_peers[k].clone() {
                    run.charge_halo(k, peer, 8 * cols.len() as u64, $j, $step);
                }
                sptrsv_upper_span(&ilu.u, &ws.y, &mut ws.z, false, run.plan.rows(k));
                let fl = 2.0 * row_nnz(&ilu.u, run.plan.rows(k));
                run.devs[k].charge_kernel(Phase::SpTrsv, fl, 6.0 * fl, run.warps_k[k]);
            }
        }};
    }

    // ---- Init: z = M⁻¹ r (r = b), p = z, ρ = (r, z).
    apply_precond!(0, 0);
    let mut seg_rz: Vec<f64> = Vec::with_capacity(segments);
    for k in 0..s_count {
        let own = run.plan.rows(k);
        {
            let pbuf = run.devs[k].buffer_mut(run.p_id[k]).as_mut_slice();
            pbuf[own.clone()].copy_from_slice(&ws.z[own]);
        }
        run.dot_partials(k, &ws.r, &ws.z, &mut seg_rz);
        run.charge_vector_pass(k, Phase::Dot, 2.0, 24.0);
        run.charge_reduce(k);
    }
    let mut rz = seg_fold(&seg_rz);
    let mut consecutive_restarts = 0usize;

    for j in 0..max_iter as i64 {
        let it = j as usize;
        // ---- u = A p; curvature pᵀ A p.
        run.exchange_p(j, 1);
        let mut seg_pu: Vec<f64> = Vec::with_capacity(segments);
        for k in 0..s_count {
            let own = run.plan.rows(k);
            {
                let pbuf = run.devs[k].buffer(run.p_id[k]).as_slice();
                run.views[k].spmv(m, pbuf, &mut ws.u[own]);
            }
            run.charge_spmv(k);
            let pbuf = run.devs[k].buffer(run.p_id[k]).as_slice();
            for s in run.plan.segs(k) {
                let mut part = 0.0;
                #[allow(clippy::needless_range_loop)]
                // e indexes the host vectors and the device p buffer together
                for e in (s * ts)..(((s + 1) * ts).min(n)) {
                    part += ws.u[e] * pbuf[e];
                }
                seg_pu.push(part);
            }
            run.charge_vector_pass(k, Phase::Dot, 2.0, 16.0);
            run.charge_reduce(k);
        }
        let pu = seg_fold(&seg_pu);
        let alpha = rz / pu;

        if !alpha.is_finite() || pu <= 0.0 {
            // ---- Breakdown: p = z, ρ = (r, z), maybe abort.
            let kind = if pu.is_finite() && pu <= 0.0 {
                BreakdownKind::Curvature
            } else {
                BreakdownKind::NonFinite
            };
            let mut seg_bd: Vec<f64> = Vec::with_capacity(segments);
            for k in 0..s_count {
                let own = run.plan.rows(k);
                {
                    let pbuf = run.devs[k].buffer_mut(run.p_id[k]).as_mut_slice();
                    pbuf[own.clone()].copy_from_slice(&ws.z[own]);
                }
                run.dot_partials(k, &ws.r, &ws.z, &mut seg_bd);
                run.charge_vector_pass(k, Phase::Dot, 2.0, 24.0);
                run.charge_reduce(k);
            }
            let rz_restart = seg_fold(&seg_bd);
            rz = rz_restart;
            consecutive_restarts += 1;
            let abort_nonfinite = !rz_restart.is_finite();
            let abort_stalled = consecutive_restarts >= MAX_CONSECUTIVE_RESTARTS;
            let action = if abort_nonfinite || abort_stalled {
                RecoveryAction::Aborted
            } else {
                RecoveryAction::Restarted
            };
            events.push(BreakdownEvent {
                iteration: it,
                kind,
                action,
            });
            iterations = it + 1;
            if abort_nonfinite {
                failure = Some(SolveFailure::NonFinite { iteration: it });
                break;
            } else if abort_stalled {
                failure = Some(SolveFailure::Stalled { iteration: it });
                break;
            }
            continue;
        }

        // ---- x += αp, r −= αu, ‖r‖² partials.
        let mut seg_rr: Vec<f64> = Vec::with_capacity(segments);
        for k in 0..s_count {
            let pbuf = run.devs[k].buffer(run.p_id[k]).as_slice();
            for s in run.plan.segs(k) {
                let mut part = 0.0;
                #[allow(clippy::needless_range_loop)]
                // e indexes the host vectors and the device p buffer together
                for e in (s * ts)..(((s + 1) * ts).min(n)) {
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
            events.push(BreakdownEvent {
                iteration: it,
                kind: BreakdownKind::NonFinite,
                action: RecoveryAction::Aborted,
            });
            iterations = it + 1;
            failure = Some(SolveFailure::NonFinite { iteration: it });
            break;
        }
        consecutive_restarts = 0;

        // ---- z = M⁻¹ r and ρ' = (r, z).
        apply_precond!(j, 3);
        let mut seg_rz_new: Vec<f64> = Vec::with_capacity(segments);
        for k in 0..s_count {
            run.dot_partials(k, &ws.r, &ws.z, &mut seg_rz_new);
            run.charge_vector_pass(k, Phase::Dot, 2.0, 16.0);
            run.charge_reduce(k);
        }
        let rz_new = seg_fold(&seg_rz_new);
        let beta = rz_new / rz;
        rz = rz_new;

        // ---- p = z + βp.
        for k in 0..s_count {
            let own = run.plan.rows(k);
            let pbuf = run.devs[k].buffer_mut(run.p_id[k]).as_mut_slice();
            for e in own {
                pbuf[e] = ws.z[e] + beta * pbuf[e];
            }
            run.charge_vector_pass(k, Phase::Axpy, 2.0, 24.0);
        }
        let relres = rr.max(0.0).sqrt() / norm_b;
        iterations = it + 1;
        final_relres = relres;
        trail.push(relres);
        if relres < tol {
            converged = true;
            break;
        }
        if !beta.is_finite() {
            events.push(BreakdownEvent {
                iteration: it,
                kind: BreakdownKind::NonFinite,
                action: RecoveryAction::Aborted,
            });
            failure = Some(SolveFailure::NonFinite { iteration: it });
            break;
        }
    }

    run.download_x(&mut ws.x);
    let (injected_faults, trace, halo_bytes, halo_messages, per_shard_value_bytes, timeline) =
        run.finish(fault_plan, &events);
    ShardedReport {
        x: ws.x.clone(),
        iterations,
        converged,
        final_relres,
        shards: s_count,
        warps,
        breakdowns: events,
        failure,
        residual_history: trail,
        injected_faults,
        trace,
        halo_bytes,
        halo_messages,
        per_shard_value_bytes,
        timeline,
    }
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
            let rep = run_cg_sharded(&m, &b, 1e-10, 300, shards, 4);
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
            assert_eq!(rep.shards, shards.min(6));
            if shards > 1 {
                assert!(rep.halo_bytes > 0);
                assert!(rep.timeline.get(Phase::Transfer) > 0.0);
            }
        }
    }

    #[test]
    fn zero_rhs_is_trivially_converged() {
        let a = poisson1d(40);
        let m = TiledMatrix::from_csr(&a);
        let rep = run_cg_sharded(&m, &vec![0.0; 40], 1e-10, 50, 3, 2);
        assert!(rep.converged);
        assert_eq!(rep.iterations, 0);
        assert_eq!(rep.final_relres, 0.0);
        assert_eq!(rep.status_label(), "converged");
    }

    #[test]
    fn value_bytes_split_sums_to_total() {
        let a = poisson1d(128);
        let m = TiledMatrix::from_csr(&a);
        let rep = run_cg_sharded(&m, &vec![1.0; 128], 1e-10, 5, 4, 2);
        let total: usize = rep.per_shard_value_bytes.iter().sum();
        assert_eq!(total, m.vals_raw().len());
        assert_eq!(rep.per_shard_value_bytes.len(), 4);
    }
}
