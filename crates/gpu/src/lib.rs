//! # mf-gpu
//!
//! GPU execution-model substrate for the Mille-feuille reproduction.
//!
//! The paper runs on an NVIDIA A100 and an AMD MI210. This crate replaces the
//! physical devices with an explicit *model* of the parts of GPU execution
//! the paper's findings depend on:
//!
//! * [`device`] — device specifications (SM/CU count, clock, HBM bandwidth,
//!   per-precision throughput, kernel launch/synchronization latency, shared
//!   memory capacity) with presets for the paper's two GPUs (Table I).
//! * [`cost`] — a roofline cost model: every kernel-level operation costs
//!   `max(flops/throughput, bytes/bandwidth)`, de-rated for partial
//!   occupancy, plus fixed launch overheads. This is what turns the *exact*
//!   numerics computed by `mf-kernels` into modeled GPU runtimes.
//! * [`timeline`] — a phase-tagged time ledger (SpMV/dot/AXPY/sync/…)
//!   used to regenerate the paper's runtime-breakdown figure (Fig. 2).
//! * [`sharedmem`] — the shared-memory capacity planner deciding which tiles
//!   stay on-chip across iterations (§III-C) and whether the single-kernel
//!   scheme applies at all (the ≈10⁶-nnz fallback).
//! * [`schedule`] — the warp workload partitioner: load-balanced tile
//!   assignment for SpMV (bounded nonzeros *and* tiles per warp) and
//!   segment-based assignment for vector operations (§III-C).
//! * [`deps`] — the per-row [`RowDeps`] epoch counters the threaded
//!   engines' in-kernel SpTRSV spins on, and the progress [`Heartbeat`]
//!   backing the adaptive watchdog. No engine executes the Fig. 6
//!   `d_s`/`d_d`/`d_a` arrays; the single-kernel coster in `mf-solver`
//!   charges their atomics over the [`schedule`] partition.
//! * [`faults`] — deterministic, seed-reproducible schedule perturbation
//!   and fault injection ([`FaultPlan`]) for stress-testing the
//!   dependency protocol's determinism and liveness claims.
//! * [`ticket`] — the sequencer/worker/committer "Ticketed Parallel
//!   Execution" runtime: deterministic per-ticket seeds, strict
//!   commit-order replay with revalidation and serial fallback, seeded
//!   [`TicketFaults`] perturbation, and the schedule model behind
//!   `fig_ticket`. The concurrency substrate for host-side
//!   preprocessing in `mf-solver`.
//! * [`backend`] — the [`SimDevice`] each shard of the sharded engine is
//!   charged on (roofline pricing, a host link, its own [`Timeline`]) and
//!   the [`Interconnect`] link model for halo messages and reductions.
//! * [`shard`] — deterministic row-block domain decomposition
//!   ([`ShardPlan`]) with halo-column extraction, the partitioning layer
//!   under the multi-device sharded engine in `mf-solver`.

pub mod backend;
pub mod cost;
pub mod deps;
pub mod device;
pub mod faults;
pub mod schedule;
pub mod shard;
pub mod sharedmem;
pub mod ticket;
pub mod timeline;

pub use backend::{Interconnect, SimDevice};
pub use cost::CostModel;
pub use deps::{Heartbeat, RowDeps};
pub use device::{DeviceSpec, Vendor};
pub use faults::{
    BarrierFault, FaultCounts, FaultKind, FaultPlan, InjectedFaults, SpinFault, StepFault,
    WarpFaults,
};
pub use schedule::{SpmvSchedule, VectorSchedule};
pub use shard::ShardPlan;
pub use sharedmem::ShmemPlan;
pub use ticket::{
    run_ticketed, simulate_barrier_pipeline, simulate_ticketed, ticket_seed, CommitInfo,
    CommitView, TicketConfig, TicketError, TicketFaults, TicketStats, UnitSpec,
};
pub use timeline::{Phase, Timeline};
