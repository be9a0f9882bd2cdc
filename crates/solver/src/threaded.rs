//! A *real* multi-threaded single-kernel CG engine.
//!
//! Everything else in this crate models GPU time while computing
//! deterministically. This module instead **executes** the single-kernel
//! scheme concurrently: each warp is an OS thread, and the only
//! synchronization is atomic counters polled in busy-wait loops — no
//! mutexes, no channels, no barriers from the standard library. It exists
//! to validate that the scheme is correct and deadlock-free, which is the
//! paper's central systems claim.
//!
//! ## Host schedule vs. the modeled GPU schedule
//!
//! The paper's Algorithm 3 hands SpMV partials from load-balanced producer
//! warps to segment owners through the `d_s` tile-row counters. That
//! schedule is what [`mf_gpu::SpmvSchedule`] and the single-kernel coster
//! model, and what the paper's GPU numbers come from. On the host it lost
//! to the simpler alternative, so every engine here runs:
//!
//! * an **owner-computes SpMV**: warp `w` runs the row kernel over its own
//!   rows of one resident tile copy, with one plain store per row;
//! * **barrier epochs** on one monotone counter per solve;
//! * per-row **SpTRSV counters** ([`RowDeps`]) for the in-kernel
//!   triangular solves of the preconditioned engines.
//!
//! The row kernel combines every row's tile partials in the same order as
//! the hand-off did, so the results are bitwise those of the Algorithm-3
//! schedule at any warp count.
//!
//! Every entry asserts its shape preconditions and documents them under
//! `# Panics`; typed input errors belong to [`crate::MilleFeuille::solve`].
//!
//! One deliberate deviation from the paper's pseudocode: instead of
//! *resetting* the dependency counters between iterations (Algorithm 3
//! re-initializes them after the Step-D check, which needs a subtle
//! leader/followers protocol to avoid racing the next iteration's
//! decrements), the counters here **count up monotonically** and every
//! wait targets an epoch-scaled value. This is behaviourally identical and
//! race-free by construction.
//!
//! ## One body per method family, one loop driver
//!
//! CG and PCG share one body, as do BiCGSTAB and PBiCGSTAB and pipelined
//! CG and pipelined PCG: without a preconditioner the body skips the
//! triangular sweeps (and, pipelined, their publish barrier) and reads `r`
//! (or `p`, `s`, `w`) where the preconditioned path reads `z` (`p̂`, `ŝ`,
//! `M⁻¹w`). Every body reports each loop slot to the one driver,
//! `report::drive`, which owns the iteration cap, the restart policy,
//! convergence and aborts, and the adaptive refresh slots.
//!
//! ## Robustness (deviation from the paper)
//!
//! The paper assumes well-behaved SPD inputs, where the scheme is indeed
//! deadlock-free. On real inputs two extra failure classes appear and both
//! used to wedge the process forever:
//!
//! * **Numerical breakdown** — an indefinite matrix makes `α = rr/pᵀAp`
//!   meaningless (or NaN), the NaN propagates into every vector, and
//!   `relres < tol` is never true again. The engines run the same
//!   breakdown-restart semantics as the sequential cores: the decision is
//!   derived from the *shared* dot accumulators after a barrier, so every
//!   warp takes the identical branch and the barrier epochs stay aligned.
//!   Futile restart loops abort as [`SolveFailure::Stalled`].
//! * **A stuck warp** — a panic (e.g. out-of-bounds indexing on a
//!   malformed [`TiledMatrix`]) leaves its siblings spinning on a counter
//!   that will never advance. Every warp body runs under
//!   [`std::panic::catch_unwind`]; the catcher sets a shared **poison
//!   flag** that every spin loop polls, converting the would-be hang into
//!   a [`SolveFailure::WarpPanic`]. The progress-heartbeat **watchdog**
//!   ([`ThreadedOpts::watchdog`]) backstops everything else: once no warp
//!   has progressed for its interval, the solve is poisoned and all warps
//!   return a [`SolveFailure::Wedged`] report.
//!
//! The poison flag is *failure-path* machinery only: on a healthy solve
//! the per-iteration overhead is one relaxed load per spin poll and one
//! heartbeat check per iteration, and the iterate arithmetic is
//! bitwise-unchanged.
//!
//! ## One entry point per engine
//!
//! Each of the seven engines has exactly one public entry — its own
//! leading arguments plus a [`ThreadedOpts`]. One private launcher owns the
//! glue they share: the poison flag, heartbeat arming, the scoped spawn
//! loop with per-warp sync/tracer/fault set-up, the panic guard, the join,
//! and report assembly.
//!
//! Wedge detection is a [`WatchdogPolicy`]: `Disabled`, or the progress
//! heartbeat ([`mf_gpu::Heartbeat`], the default) — every warp publishes a
//! monotone iteration × step position at step boundaries and pulses on
//! every cleared wait/finished segment/solved row, and the solve only
//! fails as [`SolveFailure::Wedged`] when **no** warp has produced a
//! progress event for the interval. Slow-but-healthy schedules therefore
//! never trip it, while a wedged dependency chain (which stops *all*
//! beats) still converts into a structured failure.
//!
//! [`ThreadedOpts::faults`] is a [`FaultPlan`]: a deterministic,
//! seed-reproducible schedule perturbation threaded through the
//! spin/barrier sites ([`mf_gpu::faults`]). Benign plans (delays, yields,
//! stalls, retry storms) must leave results **bitwise identical** — which
//! is why all iterative engines use owner-computes SpMV partials plus
//! per-segment single-writer dot reductions in fixed segment order, never
//! arrival-order atomic adds. Malign plans (panic, poison, halt) must fail
//! structurally within the heartbeat bound; `tests/fault_injection.rs`
//! locks both families down.

use crate::bicgstab::{alpha_breakdown, restart_kind, restart_rho};
use crate::cg::curvature_breakdown;
use crate::config::WatchdogPolicy;
use crate::pipelined::pipeline_scalars;
use crate::report::{
    drive, BreakdownEvent, BreakdownKind, Direction, EngineSection, Outcome, RecoveryAction, Slot,
    SolveFailure, SolveReport, WarpProgress,
};
use mf_gpu::{
    BarrierFault, FaultCounts, FaultPlan, Heartbeat, InjectedFaults, RowDeps, SpinFault, StepFault,
    WarpFaults,
};
use mf_kernels::ilu::Ilu0;
use mf_kernels::{RowWindow, SharedTiles};
use mf_precision::{AdaptiveConfig, RetierDecision};
use mf_sparse::{Csr, TiledMatrix};
use mf_trace::{EventKind, Trace, TraceConfig, WarpTrace, WarpTracer};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Instant;

/// Options every threaded entry point takes: the warp cap plus the
/// watchdog, fault-injection, tracing and adaptive-precision switches.
/// [`ThreadedOpts::new`] gives the defaults; override fields with struct
/// update syntax:
///
/// ```
/// use mf_solver::{FaultPlan, ThreadedOpts, TraceConfig};
///
/// let opts = ThreadedOpts {
///     faults: FaultPlan::seeded(7).with_delay(200, 16),
///     trace: TraceConfig::on(),
///     ..ThreadedOpts::new(4)
/// };
/// assert_eq!(opts.warps, 4);
/// ```
#[derive(Clone, Debug)]
pub struct ThreadedOpts {
    /// Warp (OS thread) cap. Each engine runs `warps.min(segments)` warps
    /// and reports the count as [`SolveReport::warp_count`]. Must be ≥ 1.
    pub warps: usize,
    /// Wedge detection. The default progress heartbeat fails a solve as
    /// [`SolveFailure::Wedged`] only when *no* warp has progressed for the
    /// interval, and fills [`SolveReport::last_progress`] with each
    /// warp's last (iteration, step) from the engine's `*_STEPS` table.
    /// `Disabled` is the paper's idealized deadlock-free assumption: no
    /// progress record, and a truly wedged dependency chain spins forever.
    pub watchdog: WatchdogPolicy,
    /// Deterministic, seed-reproducible schedule perturbation. The empty
    /// default injects nothing and reports `injected_faults: None`; a
    /// non-empty plan is echoed as [`InjectedFaults`] (repro line + merged
    /// tally). Benign plans leave every engine's result bitwise identical;
    /// malign plans fail structurally within the heartbeat bound.
    pub faults: FaultPlan,
    /// Event tracing. With `enabled`, each warp records into its own ring
    /// buffer ([`mf_trace::WarpTracer`]) and the merged stream lands in
    /// [`SolveReport::trace`]; the in-kernel SpTRSV passes contribute
    /// one aggregate `RowWait` event each. A disabled config is bitwise
    /// inert.
    pub trace: TraceConfig,
    /// Adaptive precision controller v2. Only the two CG engines read it
    /// ([`run_cg_threaded`], [`run_cg_pipelined_threaded`]); the others
    /// ignore it. `None` is bitwise inert. Every warp builds the identical
    /// controller from the same census and observes the identical residual
    /// at the loop bottom, so every warp computes the same re-tier plan
    /// with zero extra synchronization. An applied plan consumes one
    /// **refresh pass**: a barrier-aligned loop slot in which each warp
    /// requantizes its resident tiles from a fresh decode (the
    /// [`mf_kernels::SharedTiles::retier_tile`] rule) and the true residual
    /// `r = b − A·x` restarts the recurrence. Refresh passes advance the
    /// physical slot index but not the reported iteration count, matching
    /// the sequential engines.
    pub adaptive: Option<AdaptiveConfig>,
}

impl ThreadedOpts {
    /// At most `warps` warps with every other option at its default: the
    /// progress heartbeat ([`crate::config::DEFAULT_HEARTBEAT`]), no
    /// faults, tracing off, no adaptive controller.
    pub fn new(warps: usize) -> ThreadedOpts {
        ThreadedOpts {
            warps,
            watchdog: WatchdogPolicy::default(),
            faults: FaultPlan::default(),
            trace: TraceConfig::default(),
            adaptive: None,
        }
    }
}

// Poison codes: why the solve was released early. First writer wins (CAS
// from NONE), every spin loop polls the flag.
const POISON_NONE: i64 = 0;
const POISON_WEDGED: i64 = 1;
const POISON_PANIC: i64 = 2;

// ---- Step-name tables ------------------------------------------------------
//
// Each engine calls `WarpSync::step(j, idx)` at the top of every logical
// step; `idx` indexes its family's table below. The same (iteration, step)
// coordinates address `FaultPlan::with_panic_at`/`with_poison_at` sites and
// decode `SolveReport::last_progress`. Every engine stamps step 0 of
// iteration 0, so a point fault at (w, 0, 0) is engine-portable.

/// Step names of the CG family ([`run_cg_threaded`], [`run_pcg_threaded`]):
/// `init` runs once before iteration 0 and opens every adaptive refresh
/// pass; CG has no `precond` step.
pub const PCG_STEPS: &[&str] = &["init", "spmv", "update", "precond", "direction"];
/// Step names of the BiCGSTAB family ([`run_bicgstab_threaded`],
/// [`run_pbicgstab_threaded`]); without a preconditioner the `precond_*`
/// steps only publish `p` and `s` for the SpMVs.
pub const PBICGSTAB_STEPS: &[&str] = &["precond_p", "spmv_v", "precond_s", "spmv_t", "update"];
/// Step names of the standalone SpTRSV runner.
pub const SPTRSV_STEPS: &[&str] = &["lower", "upper"];
/// Step names of the pipelined engines ([`run_cg_pipelined_threaded`],
/// [`run_pcg_pipelined_threaded`]): `init` runs once before iteration 0 and
/// opens every adaptive refresh pass; pipelined CG has no `precond` step
/// and passes one global barrier per iteration, inside `update`; pipelined
/// PCG passes two, after `precond` and inside `update`.
pub const PCG_PIPELINED_STEPS: &[&str] = &["init", "precond", "spmv", "scalars", "update"];

/// Per-warp view of the shared poison flag, the progress heartbeat and the
/// warp's fault stream; all barrier waits go through
/// [`WarpSync::spin_until`], which is where a stuck solve is detected and
/// broken and where schedule perturbations are injected.
#[derive(Clone, Copy)]
struct WarpSync<'a> {
    poison: &'a AtomicI64,
    heartbeat: Option<&'a Heartbeat>,
    faults: Option<&'a WarpFaults>,
    /// Event recorder; `None` (the default) makes every event site a
    /// single branch.
    tracer: Option<&'a WarpTracer>,
    warp: usize,
}

impl WarpSync<'_> {
    /// True when the heartbeat watchdog has fired: no warp has progressed
    /// for a full interval.
    #[inline]
    fn expired(&self) -> bool {
        self.heartbeat.is_some_and(|hb| hb.stalled())
    }

    /// Poisons the solve as wedged (first writer wins) and returns the
    /// winning code.
    fn wedge(&self) -> i64 {
        let _ = self.poison.compare_exchange(
            POISON_NONE,
            POISON_WEDGED,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
        self.poison.load(Ordering::Acquire)
    }

    /// A progress event without a position change (a produced tile, a
    /// solved triangular row, a cleared wait).
    #[inline]
    fn pulse(&self) {
        if let Some(hb) = self.heartbeat {
            hb.pulse();
        }
    }

    /// Step boundary: move the trace stamp and publish this warp's
    /// (iteration, step) position to the heartbeat, then fire any injected
    /// point fault addressed at it (recording the firing first, so a
    /// panicking/poisoning site still shows up in the trace).
    #[inline]
    fn step(&self, iteration: i64, step: usize) -> Result<(), i64> {
        if let Some(t) = self.tracer {
            t.stamp(iteration, step);
        }
        if let Some(hb) = self.heartbeat {
            hb.beat(self.warp, Heartbeat::pack(iteration as usize, step));
        }
        if let Some(f) = self.faults {
            let fault = f.step_fault(iteration as usize, step);
            if fault != StepFault::None {
                if let Some(t) = self.tracer {
                    t.record(EventKind::Fault, fault.trace_code(), 0);
                }
            }
            match fault {
                StepFault::None => {}
                StepFault::Panic => panic!(
                    "injected fault: warp {} panicked at iteration {} step {}",
                    self.warp, iteration, step
                ),
                StepFault::Poison => return Err(self.wedge()),
            }
        }
        Ok(())
    }

    /// Spins until `counter >= target`, or fails with the poison code when
    /// the solve was poisoned or the watchdog fired while waiting. The
    /// watchdog is polled every 512 spins (including the very first
    /// unsatisfied one). Fault hooks: the warp's `barrier_entry` fault
    /// fires once on entry — *before* the satisfied check, so a `Halt`
    /// wedges even a single-warp solve — and the per-poll `poll` fault
    /// fires on every unsatisfied re-read. A successful exit pulses the
    /// heartbeat, so a schedule that keeps clearing waits (however slowly)
    /// is never reported as wedged.
    fn spin_until(&self, counter: &AtomicI64, target: i64) -> Result<(), i64> {
        self.enter_fault(counter)?;
        if let Some(t) = self.tracer {
            t.record(EventKind::BarrierEnter, target.max(0) as u64, 0);
            let polls = self.spin_core(counter, target)?;
            t.add_polls(polls);
            t.record(EventKind::BarrierExit, target.max(0) as u64, polls);
            Ok(())
        } else {
            self.spin_core(counter, target).map(|_| ())
        }
    }

    /// Row-dependency wait inside the in-kernel SpTRSV: identical fault,
    /// poison and watchdog semantics to [`WarpSync::spin_until`], but no
    /// per-wait events — at one wait per dependent row they would swamp
    /// the ring. Spin polls still accumulate into the tracer; the SpTRSV
    /// passes record one aggregate `RowWait` event each instead.
    fn spin_until_row(&self, counter: &AtomicI64, target: i64) -> Result<(), i64> {
        self.enter_fault(counter)?;
        let polls = self.spin_core(counter, target)?;
        if let Some(t) = self.tracer {
            t.add_polls(polls);
        }
        Ok(())
    }

    /// Fires the warp's barrier-entry fault hook and executes its arm
    /// (recording non-trivial firings as `Fault` events — the hook draws
    /// from deterministic per-warp state, so the events are too).
    fn enter_fault(&self, counter: &AtomicI64) -> Result<(), i64> {
        let Some(f) = self.faults else {
            return Ok(());
        };
        let fault = f.barrier_entry();
        if fault != BarrierFault::None {
            if let Some(t) = self.tracer {
                t.record(EventKind::Fault, fault.trace_code(), 0);
            }
        }
        match fault {
            BarrierFault::None => {}
            BarrierFault::Stall(d) => {
                let until = Instant::now() + d;
                while Instant::now() < until {
                    let code = self.poison.load(Ordering::Acquire);
                    if code != POISON_NONE {
                        return Err(code);
                    }
                    std::hint::spin_loop();
                }
            }
            BarrierFault::Retry(extra) => {
                for _ in 0..extra {
                    let _ = counter.load(Ordering::Acquire);
                }
            }
            BarrierFault::Halt => loop {
                // Dead warp: never advances again, but keeps polling the
                // poison flag and the watchdog so the run is reapable.
                let code = self.poison.load(Ordering::Acquire);
                if code != POISON_NONE {
                    return Err(code);
                }
                if self.expired() {
                    return Err(self.wedge());
                }
                std::thread::yield_now();
            },
        }
        Ok(())
    }

    /// The raw poll loop shared by both wait flavours: spins until
    /// `counter >= target`, returning the number of unsatisfied polls it
    /// burned (schedule-dependent — trace payloads only).
    fn spin_core(&self, counter: &AtomicI64, target: i64) -> Result<u64, i64> {
        let mut polls = 0u64;
        loop {
            if counter.load(Ordering::Acquire) >= target {
                self.pulse();
                return Ok(polls);
            }
            let code = self.poison.load(Ordering::Acquire);
            if code != POISON_NONE {
                return Err(code);
            }
            if let Some(f) = self.faults {
                match f.poll() {
                    SpinFault::None => {}
                    SpinFault::Delay(spins) => {
                        for _ in 0..spins {
                            std::hint::spin_loop();
                        }
                    }
                    SpinFault::Yield => std::thread::yield_now(),
                }
            }
            if polls.is_multiple_of(512) {
                if self.expired() {
                    return Err(self.wedge());
                }
                std::thread::yield_now();
            }
            std::hint::spin_loop();
            polls = polls.wrapping_add(1);
        }
    }

    /// Top-of-iteration gate: fail fast if the solve is already poisoned
    /// or the watchdog already fired (so warps that never wait at a
    /// barrier still notice a wedged solve).
    #[inline]
    fn iteration_gate(&self) -> Result<(), i64> {
        let code = self.poison.load(Ordering::Acquire);
        if code != POISON_NONE {
            return Err(code);
        }
        if self.expired() {
            return Err(self.wedge());
        }
        Ok(())
    }

    /// Warp 0 records an applied re-tier plan as one `Retier` trace event.
    fn retiered(&self, d: &RetierDecision) {
        if let Some(t) = self.tracer.filter(|_| self.warp == 0) {
            let (pa, pb) = crate::adaptive::retier_trace_payload(d);
            t.record(EventKind::Retier, pa, pb);
        }
    }
}

/// One warp's handle, passed by the launcher to an engine's body: its
/// index, its sync view and its own [`Outcome`]. Every warp records the
/// identical outcome (all decisions come from shared reductions); warp 0's
/// is reported. It lives outside the panic guard, so a panicking warp
/// still reports the iteration it reached.
struct Warp<'a> {
    w: usize,
    sync: WarpSync<'a>,
    out: Outcome,
}

/// What one warp thread hands back through its join handle.
struct WarpOut {
    out: Outcome,
    panic: Option<String>,
    /// Faults this warp actually injected (zero under an empty plan).
    faults: FaultCounts,
    /// This warp's event recorder (created outside the panic guard, so
    /// events up to a panic survive it). `None` when tracing is off.
    tracer: Option<WarpTracer>,
}

/// Folds one warp's `catch_unwind` outcome into a [`WarpOut`], poisoning
/// the siblings first on a panic so nobody spins on a dead counter.
fn settle_warp(
    body: std::thread::Result<Result<(), i64>>,
    poison: &AtomicI64,
    out: Outcome,
    faults: FaultCounts,
    tracer: Option<WarpTracer>,
) -> WarpOut {
    let panic = body.err().map(|payload| {
        let _ = poison.compare_exchange(
            POISON_NONE,
            POISON_PANIC,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
        panic_message(payload)
    });
    WarpOut {
        out,
        panic,
        faults,
        tracer,
    }
}

/// Join-failure fallback: the warp died outside the panic guard.
fn dead_warp() -> WarpOut {
    WarpOut {
        out: Outcome::new(),
        panic: Some("warp thread died outside the panic guard".to_string()),
        faults: FaultCounts::default(),
        tracer: None,
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "warp panicked with a non-string payload".to_string()
    }
}

/// The one warp launcher (the single-kernel "launch"): arms the watchdog,
/// spawns `lay.warps` scoped threads — each with its sync view, tracer,
/// fault stream and its own entry of `owned` — runs `body` on each under a
/// panic guard, joins, and assembles the report with `x` as the solution
/// and `steps` naming the heartbeat positions.
fn launch<S, F>(
    lay: &Layout,
    opts: &ThreadedOpts,
    steps: &'static [&'static str],
    x: &[AtomicU64],
    owned: Vec<S>,
    body: F,
) -> SolveReport
where
    S: Send,
    F: Fn(&mut Warp<'_>, S) -> Result<(), i64> + Sync,
{
    let poison = AtomicI64::new(POISON_NONE);
    let heartbeat = match opts.watchdog {
        WatchdogPolicy::Disabled => None,
        WatchdogPolicy::Heartbeat(i) => Some(Heartbeat::new(i, lay.warps)),
    };
    let outs: Vec<WarpOut> = crossbeam::scope(|scope| {
        let handles: Vec<_> = owned
            .into_iter()
            .enumerate()
            .map(|(w, state)| {
                let (poison, body, hb) = (&poison, &body, heartbeat.as_ref());
                scope.spawn(move |_| {
                    let wf = (!opts.faults.is_empty()).then(|| opts.faults.for_warp(w));
                    let tracer = opts
                        .trace
                        .enabled
                        .then(|| WarpTracer::new(w, opts.trace.capacity_per_warp));
                    let mut warp = Warp {
                        w,
                        sync: WarpSync {
                            poison,
                            heartbeat: hb,
                            faults: wf.as_ref(),
                            tracer: tracer.as_ref(),
                            warp: w,
                        },
                        out: Outcome::new(),
                    };
                    let result = catch_unwind(AssertUnwindSafe(|| body(&mut warp, state)));
                    let faults = wf.as_ref().map(|f| f.counts()).unwrap_or_default();
                    settle_warp(result, poison, warp.out, faults, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| dead_warp()))
            .collect()
    })
    .expect("threaded engine scope failed");
    let wedged = poison.load(Ordering::Acquire) == POISON_WEDGED;
    finish_report(
        x,
        lay.warps,
        wedged,
        heartbeat.as_ref(),
        steps,
        &opts.faults,
        outs,
    )
}

/// Assembles the report from warp 0's [`Outcome`] and the per-warp
/// outputs: panics beat the watchdog beat the deterministic aborts, and
/// the terminal Panic/Watchdog event is appended to warp 0's trail. The
/// heartbeat snapshot is decoded through the engine's step-name table into
/// [`SolveReport::last_progress`]; a non-empty plan is echoed as
/// [`InjectedFaults`] telemetry (repro line + merged tally).
fn finish_report(
    x: &[AtomicU64],
    warps: usize,
    wedged: bool,
    heartbeat: Option<&Heartbeat>,
    steps: &'static [&'static str],
    plan: &FaultPlan,
    mut outs: Vec<WarpOut>,
) -> SolveReport {
    let injected_faults = (!plan.is_empty()).then(|| InjectedFaults {
        plan: plan.to_string(),
        counts: outs
            .iter()
            .fold(FaultCounts::default(), |a, o| a.merge(o.faults)),
    });
    let last_progress: Vec<WarpProgress> = heartbeat
        .map(|hb| {
            hb.snapshot()
                .iter()
                .enumerate()
                .map(|(wi, &packed)| match Heartbeat::unpack(packed) {
                    None => WarpProgress {
                        warp: wi,
                        iteration: 0,
                        step: "start",
                    },
                    Some((iteration, stp)) => WarpProgress {
                        warp: wi,
                        iteration,
                        step: steps.get(stp).copied().unwrap_or("?"),
                    },
                })
                .collect()
        })
        .unwrap_or_default();
    let mut out = outs.first_mut().map_or_else(Outcome::new, |o| {
        std::mem::replace(&mut o.out, Outcome::new())
    });
    let panic_hit = outs
        .iter()
        .enumerate()
        .find_map(|(w, o)| o.panic.as_ref().map(|m| (w, m.clone())));
    let terminal = match panic_hit {
        Some((warp, message)) => Some((
            BreakdownKind::Panic,
            SolveFailure::WarpPanic { warp, message },
        )),
        None if wedged => Some((
            BreakdownKind::Watchdog,
            SolveFailure::Wedged {
                iteration: out.iterations,
            },
        )),
        None => None,
    };
    if let Some((kind, failure)) = terminal {
        out.breakdowns.push(BreakdownEvent {
            iteration: out.iterations,
            kind,
            action: RecoveryAction::Aborted,
        });
        out.failure = Some(failure);
    }
    // Merge the per-warp event streams after the breakdown trail is final,
    // so the epilogue includes the host-appended Panic/Watchdog events.
    let warp_traces: Vec<WarpTrace> = outs
        .iter_mut()
        .filter_map(|o| o.tracer.take())
        .map(|t| t.finish())
        .collect();
    let trace = (!warp_traces.is_empty()).then(|| {
        let mut tr = Trace::merge(warp_traces);
        crate::report::append_breakdown_epilogue(&mut tr, &out.breakdowns);
        tr
    });
    SolveReport {
        x: x.iter().map(ld).collect(),
        warp_count: warps,
        trace,
        engine: Some(EngineSection::Threaded {
            last_progress,
            injected_faults,
        }),
        ..out.report()
    }
}

/// Entry prologue of the six iterative engines: checks shapes, lays the
/// rows out over warps and answers `b = 0` directly — `x = 0` converges in
/// zero iterations, with an (empty) trace when tracing is on, as in the
/// sequential cores. Otherwise loads the resident tiles the warps share
/// and returns them with the layout and `‖b‖₂`; a malformed matrix that
/// panics the load fails the solve as a panic of warp 0, as it would
/// inside the kernel.
fn prologue(
    m: &TiledMatrix,
    tri: Option<&TriSolve<'_>>,
    b: &[f64],
    opts: &ThreadedOpts,
    steps: &'static [&'static str],
) -> Result<(Layout, f64, SharedTiles), Box<SolveReport>> {
    let n = m.nrows;
    assert_eq!(b.len(), n);
    assert_eq!(m.nrows, m.ncols);
    if let Some(t) = tri {
        assert_eq!(t.l.nrows, n);
        assert_eq!(t.u.nrows, n);
    }
    let lay = Layout::new(m.nrows, m.tile_size, opts.warps);
    let norm_b: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
    if norm_b == 0.0 {
        return Err(Box::new(SolveReport {
            x: vec![0.0; n],
            converged: true,
            warp_count: lay.warps,
            trace: opts.trace.enabled.then(|| Trace {
                warps: lay.warps,
                ..Trace::default()
            }),
            engine: Some(EngineSection::Threaded {
                last_progress: Vec::new(),
                injected_faults: None,
            }),
            ..SolveReport::default()
        }));
    }
    match catch_unwind(AssertUnwindSafe(|| SharedTiles::load(m))) {
        Ok(resident) => Ok((lay, norm_b, resident)),
        Err(payload) => {
            let panic = Some(panic_message(payload));
            let died = vec![WarpOut {
                panic,
                ..dead_warp()
            }];
            let (x, faults) = (zeros(n), &opts.faults);
            Err(Box::new(finish_report(
                &x, lay.warps, false, None, steps, faults, died,
            )))
        }
    }
}

/// How an engine's rows are laid out over its warps: segments of `ts`
/// rows, warp `w` owning segments `seg_lo[w]..seg_lo[w + 1]`.
struct Layout {
    n: usize,
    ts: usize,
    warps: usize,
    seg_lo: Vec<usize>,
}

impl Layout {
    fn new(n: usize, ts: usize, max_warps: usize) -> Layout {
        assert!(max_warps >= 1);
        let segments = n.div_ceil(ts).max(1);
        let warps = segments.min(max_warps).max(1);
        let (base, extra) = (segments / warps, segments % warps);
        let mut seg_lo = vec![0usize];
        for w in 0..warps {
            seg_lo.push(seg_lo[w] + base + usize::from(w < extra));
        }
        Layout {
            n,
            ts,
            warps,
            seg_lo,
        }
    }

    fn segments(&self) -> usize {
        self.seg_lo[self.warps]
    }

    /// Warp `w`'s segments.
    fn segs(&self, w: usize) -> Range<usize> {
        self.seg_lo[w]..self.seg_lo[w + 1]
    }

    /// Segment `s`'s rows.
    fn elems(&self, s: usize) -> Range<usize> {
        (s * self.ts)..((s + 1) * self.ts).min(self.n)
    }

    /// Warp `w`'s rows: its segments' rows, contiguous and in order.
    fn rows(&self, w: usize) -> Range<usize> {
        (self.seg_lo[w] * self.ts)..(self.seg_lo[w + 1] * self.ts).min(self.n)
    }

    /// Every warp's exclusive window of `m`'s resident copy: warp `w`
    /// runs the row kernel over, and re-tiers the tiles of, its own rows,
    /// so its SpMV needs no atomics and reproduces `TiledMatrix::matvec`'s
    /// per-row summation bitwise at any warp count.
    fn windows<'t>(&self, resident: &'t mut SharedTiles) -> Vec<RowWindow<'t>> {
        let bounds: Vec<usize> = self
            .seg_lo
            .iter()
            .map(|&s| (s * self.ts).min(self.n))
            .collect();
        resident.row_windows(&bounds)
    }

    /// One per-segment dot-partial array. One array per dot site — at
    /// least one barrier always separates a site's reads from its next
    /// writes.
    fn seg_cells(&self) -> Vec<AtomicU64> {
        zeros(self.segments())
    }
}

// ---- Shared vectors as atomic bit-cells -------------------------------------
//
// Every element is written by exactly one warp between barriers, so plain
// Acquire/Release loads and stores of the f64 bits suffice.

#[inline]
fn ld(c: &AtomicU64) -> f64 {
    f64::from_bits(c.load(Ordering::Acquire))
}

#[inline]
fn st(c: &AtomicU64, v: f64) {
    c.store(v.to_bits(), Ordering::Release);
}

fn cells(v: &[f64]) -> Vec<AtomicU64> {
    v.iter().map(|&x| AtomicU64::new(x.to_bits())).collect()
}

fn zeros(n: usize) -> Vec<AtomicU64> {
    (0..n).map(|_| AtomicU64::new(0)).collect()
}

/// Reduces per-segment partials in fixed segment order — identical on
/// every warp and independent of the warp count.
fn seg_total(cells: &[AtomicU64]) -> f64 {
    let mut t = 0.0;
    for cell in cells {
        t += ld(cell);
    }
    t
}

/// Per-segment single-writer dot partials: for each segment in `segs`,
/// sums `term(e)` over its rows in order into `outs[k][s]`. `term` may
/// also update vectors (fused update + dot), always row by row.
fn seg_dots<const K: usize>(
    lay: &Layout,
    segs: Range<usize>,
    outs: [&[AtomicU64]; K],
    mut term: impl FnMut(usize) -> [f64; K],
) {
    for s in segs {
        let mut parts = [0.0f64; K];
        for e in lay.elems(s) {
            let t = term(e);
            for k in 0..K {
                parts[k] += t[k];
            }
        }
        for k in 0..K {
            st(&outs[k][s], parts[k]);
        }
    }
}

/// [`seg_dots`] with a single partial.
fn seg_dot(
    lay: &Layout,
    segs: Range<usize>,
    out: &[AtomicU64],
    mut term: impl FnMut(usize) -> f64,
) {
    seg_dots(lay, segs, [out], |e| [term(e)]);
}

/// An all-warps barrier on one monotone counter: a warp's k-th wait
/// targets `warps·k`, so every warp must pass the same sequence of waits —
/// which it does, since every branch is decided from shared reductions.
struct Barrier<'a> {
    counter: &'a AtomicI64,
    warps: i64,
    epoch: i64,
    sync: WarpSync<'a>,
}

impl<'a> Barrier<'a> {
    fn new(counter: &'a AtomicI64, lay: &Layout, sync: WarpSync<'a>) -> Barrier<'a> {
        Barrier {
            counter,
            warps: lay.warps as i64,
            epoch: 0,
            sync,
        }
    }

    fn wait(&mut self) -> Result<(), i64> {
        self.epoch += 1;
        self.counter.fetch_add(1, Ordering::AcqRel);
        self.sync.spin_until(self.counter, self.warps * self.epoch)
    }
}

/// One warp's window of the resident tiles ([`Layout::windows`]) and
/// its segments.
struct WarpTiles<'a> {
    lay: &'a Layout,
    sync: WarpSync<'a>,
    segs: Range<usize>,
    win: RowWindow<'a>,
}

impl<'a> WarpTiles<'a> {
    fn owned(lay: &'a Layout, sync: WarpSync<'a>, w: usize, win: RowWindow<'a>) -> Self {
        let segs = lay.segs(w);
        WarpTiles {
            lay,
            sync,
            segs,
            win,
        }
    }

    /// Re-tiers the resident tiles of `m` an applied plan names in this
    /// warp's rows (the [`mf_kernels::SharedTiles::retier_tile`] rule).
    fn retier(&mut self, m: &TiledMatrix, d: &RetierDecision) {
        self.win.retier(m, &d.actions);
    }

    /// Owner-computes `output = A·input` over this warp's rows: each row
    /// runs the Algorithm-5 row kernel, then one plain store — no atomics,
    /// no inter-iteration zeroing.
    fn spmv_own(&mut self, input: &[AtomicU64], output: &[AtomicU64]) {
        for s in self.segs.clone() {
            for e in self.lay.elems(s) {
                st(&output[e], self.win.row_sum(e, |c| ld(&input[c])));
            }
            self.sync.pulse();
        }
    }
}

/// Shared state of the in-kernel triangular solve pair `L y = rhs`,
/// `U out = y`: the factors, the forward-solve scratch `y` and one
/// [`RowDeps`] epoch counter per row and sweep.
struct TriSolve<'a> {
    l: &'a Csr,
    u: &'a Csr,
    unit_lower: bool,
    unit_upper: bool,
    y: Vec<AtomicU64>,
    fwd: RowDeps,
    bwd: RowDeps,
}

impl<'a> TriSolve<'a> {
    fn new(l: &'a Csr, u: &'a Csr, unit_lower: bool, unit_upper: bool) -> Self {
        let n = l.nrows;
        TriSolve {
            l,
            u,
            unit_lower,
            unit_upper,
            y: zeros(n),
            fwd: RowDeps::new(n),
            bwd: RowDeps::new(n),
        }
    }

    /// The ILU(0) preconditioner `M⁻¹ = U⁻¹ L⁻¹` (unit-diagonal `L`).
    fn ilu(f: &'a Ilu0) -> Self {
        Self::new(&f.l, &f.u, true, false)
    }

    /// Warp `w`'s handle on the pair; it counts the warp's applications.
    fn warp(&'a self, lay: &Layout, w: usize, sync: WarpSync<'a>) -> WarpTri<'a> {
        WarpTri {
            tri: self,
            rows: lay.rows(w),
            epoch: 0,
            sync,
        }
    }
}

/// One warp's rows of a [`TriSolve`] plus its application epoch.
struct WarpTri<'a> {
    tri: &'a TriSolve<'a>,
    rows: Range<usize>,
    epoch: i64,
    sync: WarpSync<'a>,
}

impl WarpTri<'_> {
    /// The forward sweep `L y = rhs` of the next application.
    fn lower(&mut self, rhs: &[AtomicU64]) -> Result<(), i64> {
        self.epoch += 1;
        let t = self.tri;
        warp_sweep(
            t.l,
            t.unit_lower,
            rhs,
            &t.y,
            &t.fwd,
            &self.rows,
            true,
            self.epoch,
            self.sync,
        )
    }

    /// The backward sweep `U out = y` of the current application.
    fn upper(&self, out: &[AtomicU64]) -> Result<(), i64> {
        let t = self.tri;
        warp_sweep(
            t.u,
            t.unit_upper,
            &t.y,
            out,
            &t.bwd,
            &self.rows,
            false,
            self.epoch,
            self.sync,
        )
    }

    /// `out = U⁻¹ L⁻¹ rhs` on this warp's rows; cross-warp flow goes
    /// through the row counters only.
    fn apply(&mut self, rhs: &[AtomicU64], out: &[AtomicU64]) -> Result<(), i64> {
        self.lower(rhs)?;
        self.upper(out)
    }
}

/// `out = M⁻¹ rhs` on this warp's rows when preconditioned. Without a
/// preconditioner the engines read `rhs` where they would read `out`, so
/// there is nothing to do.
fn precondition(
    pc: &mut Option<WarpTri<'_>>,
    rhs: &[AtomicU64],
    out: &[AtomicU64],
) -> Result<(), i64> {
    pc.as_mut().map_or(Ok(()), |pc| pc.apply(rhs, out))
}

/// One warp's rows of a dependency-ordered triangular substitution —
/// ascending rows for the forward (`lower`) sweep, descending for the
/// backward one — spinning on [`RowDeps`] for every entry outside the
/// already-completed own range. On a well-formed factor this combines each
/// row's entries in CSR order — bitwise-identical to
/// [`mf_kernels::sptrsv::sptrsv_lower`] / `sptrsv_upper`. Unlike the
/// sequential kernels, entries on the wrong side of the diagonal are not
/// silently ignored but treated as dependencies: a corrupted/cyclic factor
/// therefore wedges the spin loop (and fails as `Wedged` via the watchdog)
/// instead of reading garbage.
#[allow(clippy::too_many_arguments)]
fn warp_sweep(
    tri: &Csr,
    unit_diag: bool,
    rhs: &[AtomicU64],
    out: &[AtomicU64],
    deps: &RowDeps,
    rows: &Range<usize>,
    lower: bool,
    epoch: i64,
    sync: WarpSync<'_>,
) -> Result<(), i64> {
    let polls0 = sync.tracer.map(|t| t.polls()).unwrap_or(0);
    for t in 0..rows.len() {
        let r = if lower {
            rows.start + t
        } else {
            rows.end - 1 - t
        };
        let mut sum = 0.0;
        let mut diag = if unit_diag { 1.0 } else { 0.0 };
        for (c, v) in tri.row(r) {
            if c == r {
                if !unit_diag {
                    diag = v;
                }
                continue;
            }
            let solved_here = if lower {
                rows.start <= c && c < r
            } else {
                r < c && c < rows.end
            };
            if !solved_here {
                sync.spin_until_row(deps.counter(c), epoch)?;
            }
            sum += v * ld(&out[c]);
        }
        st(&out[r], (ld(&rhs[r]) - sum) / diag);
        deps.complete(r);
        sync.pulse();
    }
    if let Some(t) = sync.tracer {
        t.record(EventKind::RowWait, rows.len() as u64, t.polls() - polls0);
    }
    Ok(())
}

// ---- Classic engines ---------------------------------------------------------

/// Runs CG on `opts.warps.min(segments)` threads synchronized purely
/// through atomic counters. Tiles execute at their stored (initial)
/// precision; the dynamic strategy is not exercised here — this engine
/// validates the *synchronization* scheme.
///
/// Deterministic and warp-count invariant by construction: the SpMV is
/// owner-computes over whole tile rows (the per-row summation order of
/// [`TiledMatrix::matvec`]), and every dot product is a per-segment
/// single-writer partial reduced in fixed segment order — no arrival-order
/// atomic adds anywhere. A benign [`ThreadedOpts::faults`] plan therefore
/// cannot change a single bit of the result. Each iteration passes three
/// barriers: after the curvature dot, after the update dot and after the
/// direction update.
///
/// Reads [`ThreadedOpts::adaptive`]: an applied re-tier plan's refresh
/// pass requantizes each warp's tiles, recomputes `u = A·x` and rebuilds
/// `r = b − u`, `p = r` and `rr = (r, r)` behind one barrier.
///
/// ```
/// use mf_solver::threaded::{run_cg_threaded, ThreadedOpts};
/// use mf_sparse::{Coo, TiledMatrix};
///
/// let n = 64;
/// let mut a = Coo::new(n, n);
/// for i in 0..n {
///     a.push(i, i, 4.0);
///     if i > 0 { a.push(i, i - 1, -1.0); }
///     if i + 1 < n { a.push(i, i + 1, -1.0); }
/// }
/// let a = a.to_csr();
/// let mut b = vec![0.0; n];
/// a.matvec(&vec![1.0; n], &mut b);
///
/// let t = TiledMatrix::from_csr(&a);
/// let rep = run_cg_threaded(&t, &b, 1e-10, 1000, &ThreadedOpts::new(4));
/// assert!(rep.converged);
/// assert!(rep.x.iter().all(|v| (v - 1.0).abs() < 1e-7));
/// ```
///
/// # Panics
///
/// If `m` is not square, `b.len() != m.nrows` or `opts.warps` is 0.
pub fn run_cg_threaded(
    m: &TiledMatrix,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    opts: &ThreadedOpts,
) -> SolveReport {
    cg_family(m, None, b, tol, max_iter, opts)
}

/// Runs ILU(0)-preconditioned CG entirely inside the "single kernel":
/// warps cooperate on the forward/backward SpTRSV through per-row
/// [`RowDeps`] epoch counters, busy-waiting on predecessor rows with the
/// poison flag and watchdog polled in every spin (a wedged triangular
/// dependency fails as [`SolveFailure::Wedged`], a panicking warp as
/// [`SolveFailure::WarpPanic`]). Breakdown/restart semantics mirror the
/// sequential PCG core ([`crate::cg::run_cg`] with a preconditioner):
/// non-positive curvature restarts the direction from `p = z`, futile
/// restarts abort as `Stalled`.
///
/// The same body as [`run_cg_threaded`], with the triangular solves
/// combining each row's entries in CSR order exactly like the sequential
/// kernel, so residual trajectories are bitwise-reproducible across 1..k
/// warps — the property the differential harness in
/// `tests/threaded_parity.rs` locks down. `opts.adaptive` is ignored.
///
/// # Panics
///
/// If `m` is not square, `b.len()` or `ilu`'s factors differ from
/// `m.nrows`, or `opts.warps` is 0.
pub fn run_pcg_threaded(
    m: &TiledMatrix,
    ilu: &Ilu0,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    opts: &ThreadedOpts,
) -> SolveReport {
    // Only the unpreconditioned CG engines honour `adaptive`.
    let opts = ThreadedOpts {
        adaptive: None,
        ..opts.clone()
    };
    cg_family(m, Some(&TriSolve::ilu(ilu)), b, tol, max_iter, &opts)
}

/// The CG family's one body: PCG with the triangular solve pair `tri`,
/// plain CG without it — `z` is then `r` itself, no `precond` step runs,
/// and the initial ρ is the plain left-to-right `‖b‖²`.
fn cg_family(
    m: &TiledMatrix,
    tri: Option<&TriSolve<'_>>,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    opts: &ThreadedOpts,
) -> SolveReport {
    let (lay, norm_b, mut resident) = match prologue(m, tri, b, opts, PCG_STEPS) {
        Ok(setup) => setup,
        Err(done) => return *done,
    };
    let n = lay.n;
    // CG starts from p = r = b; PCG's init pass sets p = z = M⁻¹b.
    let (x, r, u) = (zeros(n), cells(b), zeros(n)); // u = A p
    let p = if tri.is_some() { zeros(n) } else { cells(b) };
    let z_own = tri.map(|_| zeros(n));
    let z = z_own.as_deref().unwrap_or(&r);
    let bar = AtomicI64::new(0);
    let [seg_pu, seg_rr, seg_rz] = std::array::from_fn(|_| lay.seg_cells());
    let rr0: f64 = b.iter().map(|v| v * v).sum();

    let windows = lay.windows(&mut resident);
    launch(&lay, opts, PCG_STEPS, &x, windows, |warp, win| {
        let sync = warp.sync;
        let (segs, own) = (lay.segs(warp.w), lay.rows(warp.w));
        let mut tiles = WarpTiles::owned(&lay, sync, warp.w, win);
        let mut bar = Barrier::new(&bar, &lay, sync);
        let mut precond = tri.map(|t| t.warp(&lay, warp.w, sync));
        // Restarts the direction from the residual: p = z and the (r, z)
        // partials, published by one barrier; returns ρ = (r, z).
        let redirect = |bar: &mut Barrier<'_>| {
            seg_dot(&lay, segs.clone(), &seg_rz, |e| {
                let zv = ld(&z[e]);
                st(&p[e], zv);
                ld(&r[e]) * zv
            });
            bar.wait().map(|()| seg_total(&seg_rz))
        };

        // ---- Init: z = M⁻¹ r (r = b), p = z, ρ = (r, z).
        sync.iteration_gate()?;
        sync.step(0, 0)?;
        let mut rz = match precond.as_mut() {
            Some(pc) => {
                pc.apply(&r, z)?;
                redirect(&mut bar)?
            }
            None => rr0,
        };
        let ctrl = opts
            .adaptive
            .map(|ac| crate::adaptive::controller_for(m, ac));
        drive(
            &mut warp.out,
            max_iter,
            None,
            tol,
            ctrl,
            || sync.iteration_gate(),
            |j, refresh| {
                if let Some(d) = refresh {
                    // ---- Re-tier refresh pass (a slot, not an iteration):
                    // requantize, rebuild the true residual r = b − A·x and
                    // restart the direction from it.
                    sync.step(j, 0)?;
                    tiles.retier(m, d);
                    tiles.spmv_own(&x, &u);
                    for e in own.clone() {
                        st(&r[e], b[e] - ld(&u[e]));
                    }
                    precondition(&mut precond, &r, z)?;
                    rz = redirect(&mut bar)?;
                    sync.retiered(d);
                    return Ok(Slot::Refreshed);
                }

                // ---- u = A p; curvature pᵀ A p.
                sync.step(j, 1)?;
                tiles.spmv_own(&p, &u);
                seg_dot(&lay, segs.clone(), &seg_pu, |e| ld(&u[e]) * ld(&p[e]));
                bar.wait()?;
                let pu = seg_total(&seg_pu);
                let alpha = rz / pu;
                if let Some(kind) = curvature_breakdown(alpha, pu) {
                    // ---- Breakdown: every warp read the same `pu`, so every
                    // warp restarts the direction from the current residual.
                    rz = redirect(&mut bar)?;
                    return Ok(Slot::Restart {
                        kind,
                        finite: rz.is_finite(),
                        relres: tri.is_none().then(|| rz.max(0.0).sqrt() / norm_b),
                    });
                }

                // ---- x += αp, r −= αu, ‖r‖² partials.
                sync.step(j, 2)?;
                seg_dot(&lay, segs.clone(), &seg_rr, |e| {
                    st(&x[e], ld(&x[e]) + alpha * ld(&p[e]));
                    let rv = ld(&r[e]) - alpha * ld(&u[e]);
                    st(&r[e], rv);
                    rv * rv
                });
                bar.wait()?;
                let rr = seg_total(&seg_rr);
                if !rr.is_finite() {
                    return Ok(Slot::NonFinite);
                }

                // ---- z = M⁻¹ r and ρ' = (r, z); without a preconditioner
                // ρ' is ‖r‖² itself.
                let rz_new = match precond.as_mut() {
                    Some(pc) => {
                        sync.step(j, 3)?;
                        pc.apply(&r, z)?;
                        seg_dot(&lay, segs.clone(), &seg_rz, |e| ld(&r[e]) * ld(&z[e]));
                        bar.wait()?;
                        seg_total(&seg_rz)
                    }
                    None => rr,
                };
                let beta = rz_new / rz;
                rz = rz_new;

                // ---- p = z + βp, published for the next SpMV.
                sync.step(j, 4)?;
                for e in own.clone() {
                    st(&p[e], ld(&z[e]) + beta * ld(&p[e]));
                }
                bar.wait()?;
                let lost = tri.is_some() && !beta.is_finite();
                let direction = if lost {
                    Direction::Lost
                } else {
                    Direction::Kept
                };
                Ok(Slot::Done(rr.max(0.0).sqrt() / norm_b, direction))
            },
        )
    })
}

/// Runs BiCGSTAB on threads synchronized purely through atomic counters —
/// the two-SpMV variant of the single-kernel scheme ("the consolidation
/// applies to BiCGSTAB as well", §III-C). Per iteration the warps pass
/// five barriers: `p` published, the α dot, `s` published, the ω dots and
/// the β/‖r‖ dots. Breakdowns (α non-finite, subnormal ρ, ω = 0) run the
/// sequential cores' restart semantics. Like [`run_cg_threaded`] the SpMV
/// is owner-computes and every dot is a per-segment single-writer
/// reduction, so the result is bitwise warp-count invariant and immune to
/// benign schedule perturbations.
///
/// # Panics
///
/// If `m` is not square, `b.len() != m.nrows` or `opts.warps` is 0.
pub fn run_bicgstab_threaded(
    m: &TiledMatrix,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    opts: &ThreadedOpts,
) -> SolveReport {
    bicgstab_family(m, None, b, tol, max_iter, opts)
}

/// Right-preconditioned BiCGSTAB inside the single kernel: two in-kernel
/// SpTRSV applications (`p̂ = M⁻¹p`, `ŝ = M⁻¹s`) and two owner-computes
/// SpMVs per iteration, five barriers. The same body as
/// [`run_bicgstab_threaded`], with the dependency-counter, poison and
/// watchdog story of [`run_pcg_threaded`]; breakdown/restart semantics
/// mirror the sequential PBiCGSTAB core ([`crate::bicgstab::run_bicgstab`]
/// with a preconditioner: ρ/ω restarts, `Stalled` abort after futile
/// restarts). `opts.adaptive` is ignored.
///
/// # Panics
///
/// If `m` is not square, `b.len()` or `ilu`'s factors differ from
/// `m.nrows`, or `opts.warps` is 0.
pub fn run_pbicgstab_threaded(
    m: &TiledMatrix,
    ilu: &Ilu0,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    opts: &ThreadedOpts,
) -> SolveReport {
    bicgstab_family(m, Some(&TriSolve::ilu(ilu)), b, tol, max_iter, opts)
}

/// The BiCGSTAB family's one body: PBiCGSTAB with the triangular solve
/// pair `tri`, plain BiCGSTAB without it — `p̂` and `ŝ` are then `p` and
/// `s` themselves. `opts.adaptive` is ignored.
fn bicgstab_family(
    m: &TiledMatrix,
    tri: Option<&TriSolve<'_>>,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    opts: &ThreadedOpts,
) -> SolveReport {
    let (lay, norm_b, mut resident) = match prologue(m, tri, b, opts, PBICGSTAB_STEPS) {
        Ok(setup) => setup,
        Err(done) => return *done,
    };
    let n = lay.n;
    let (x, r, p) = (zeros(n), cells(b), cells(b));
    let (v, sv, tv) = (zeros(n), zeros(n), zeros(n)); // v = A p̂, s, t = A ŝ
    let hats = tri.map(|_| [zeros(n), zeros(n)]); // p̂ = M⁻¹ p, ŝ = M⁻¹ s
    let (phat, shat) = match &hats {
        Some([ph, sh]) => (&ph[..], &sh[..]),
        None => (&p[..], &sv[..]),
    };
    let r0s = b; // shadow residual, immutable
    let bar = AtomicI64::new(0);
    let [seg_denom, seg_ts, seg_tt, seg_rho, seg_rr] = std::array::from_fn(|_| lay.seg_cells());
    let rho0: f64 = b.iter().map(|v| v * v).sum();

    let windows = lay.windows(&mut resident);
    launch(&lay, opts, PBICGSTAB_STEPS, &x, windows, |warp, win| {
        let sync = warp.sync;
        let (segs, own) = (lay.segs(warp.w), lay.rows(warp.w));
        let mut tiles = WarpTiles::owned(&lay, sync, warp.w, win);
        let mut bar = Barrier::new(&bar, &lay, sync);
        let mut precond = tri.map(|t| t.warp(&lay, warp.w, sync));
        let mut rho = rho0;
        drive(
            &mut warp.out,
            max_iter,
            None,
            tol,
            None,
            || sync.iteration_gate(),
            |j, _| {
                // ---- p̂ = M⁻¹ p (own rows of p feed the forward solve;
                // cross-warp flow is through the counters), published for
                // the SpMV.
                sync.step(j, 0)?;
                precondition(&mut precond, &p, phat)?;
                bar.wait()?;

                // ---- v = A p̂; denom = (v, r0*).
                sync.step(j, 1)?;
                tiles.spmv_own(phat, &v);
                seg_dot(&lay, segs.clone(), &seg_denom, |e| ld(&v[e]) * r0s[e]);
                bar.wait()?;
                let denom = seg_total(&seg_denom);
                let alpha = rho / denom;
                if let Some(kind) = alpha_breakdown(alpha, denom) {
                    // ---- α breakdown: restart with p = r and ρ = (r, r0*)
                    // (‖r‖² fallback), as sequential.
                    seg_dots(&lay, segs.clone(), [&seg_rho, &seg_rr], |e| {
                        let rv = ld(&r[e]);
                        st(&p[e], rv);
                        [rv * r0s[e], rv * rv]
                    });
                    bar.wait()?;
                    let rr = seg_total(&seg_rr);
                    rho = restart_rho(seg_total(&seg_rho), || rr);
                    return Ok(Slot::Restart {
                        kind,
                        finite: rho.is_finite() && rr.is_finite(),
                        relres: Some(rr.max(0.0).sqrt() / norm_b),
                    });
                }

                // ---- s = r − αv; ŝ = M⁻¹ s, published for the SpMV.
                sync.step(j, 2)?;
                for e in own.clone() {
                    st(&sv[e], ld(&r[e]) - alpha * ld(&v[e]));
                }
                precondition(&mut precond, &sv, shat)?;
                bar.wait()?;

                // ---- t = A ŝ; (t, s) and (t, t).
                sync.step(j, 3)?;
                tiles.spmv_own(shat, &tv);
                seg_dots(&lay, segs.clone(), [&seg_ts, &seg_tt], |e| {
                    let t = ld(&tv[e]);
                    [t * ld(&sv[e]), t * t]
                });
                bar.wait()?;
                let tt = seg_total(&seg_tt);
                let omega = if tt > 0.0 {
                    seg_total(&seg_ts) / tt
                } else {
                    0.0
                };

                // ---- x += αp̂ + ωŝ; r = s − ωt; ρ', ‖r‖² partials.
                sync.step(j, 4)?;
                seg_dots(&lay, segs.clone(), [&seg_rho, &seg_rr], |e| {
                    st(
                        &x[e],
                        ld(&x[e]) + alpha * ld(&phat[e]) + omega * ld(&shat[e]),
                    );
                    let rv = ld(&sv[e]) - omega * ld(&tv[e]);
                    st(&r[e], rv);
                    [rv * r0s[e], rv * rv]
                });
                bar.wait()?;
                let rho_new = seg_total(&seg_rho);
                let rr = seg_total(&seg_rr);
                if !rr.is_finite() {
                    return Ok(Slot::NonFinite);
                }

                // ---- p = r + β(p − ωv), or restart p = r. The next slot's
                // first barrier publishes it.
                let beta = (rho_new / rho) * (alpha / omega);
                let restart = restart_kind(beta, omega, rho_new);
                for e in own.clone() {
                    let pv = if restart.is_some() {
                        ld(&r[e])
                    } else {
                        ld(&r[e]) + beta * (ld(&p[e]) - omega * ld(&v[e]))
                    };
                    st(&p[e], pv);
                }
                rho = restart_rho(rho_new, || rr);
                let direction = restart.map_or(Direction::Kept, Direction::Restarted);
                Ok(Slot::Done(rr.max(0.0).sqrt() / norm_b, direction))
            },
        )
    })
}

/// Executes one forward + backward triangular solve pair (`L y = b`, then
/// `U x = y`) with warps cooperating through per-row [`RowDeps`] counters —
/// the standalone harness for the in-kernel SpTRSV protocol used by the
/// preconditioned engines. Rows are segmented in chunks of `seg` (the
/// "tile size") over `opts.warps.min(segments)` warps; `opts.adaptive` is
/// ignored.
///
/// On success the report has `converged = true`, `iterations = 1` and
/// `x` holding the backward-solve result (`final_relres` is not
/// meaningful for a direct solve and is reported as `0`). A dependency
/// cycle (corrupted factor) fails as [`SolveFailure::Wedged`] once the
/// heartbeat watchdog fires; a panicking warp (e.g. out-of-range column
/// index) fails as [`SolveFailure::WarpPanic`] — never a hang.
///
/// # Panics
///
/// If `l` or `u` is not square, `l`, `u` and `b` differ in size, or `seg`
/// or `opts.warps` is 0.
pub fn run_ilu_sptrsv_threaded(
    l: &Csr,
    u: &Csr,
    b: &[f64],
    unit_lower: bool,
    unit_upper: bool,
    seg: usize,
    opts: &ThreadedOpts,
) -> SolveReport {
    let n = l.nrows;
    assert_eq!(l.nrows, l.ncols);
    assert_eq!(u.nrows, u.ncols);
    assert_eq!(u.nrows, n);
    assert_eq!(b.len(), n);
    assert!(seg >= 1);
    let lay = Layout::new(n, seg, opts.warps);
    let (rhs, z) = (cells(b), zeros(n));
    let tri = TriSolve::new(l, u, unit_lower, unit_upper);
    let done = AtomicI64::new(0);

    let mut rep = launch(
        &lay,
        opts,
        SPTRSV_STEPS,
        &z,
        vec![(); lay.warps],
        |warp, ()| {
            let sync = warp.sync;
            let mut solve = tri.warp(&lay, warp.w, sync);
            sync.iteration_gate()?;
            sync.step(0, 0)?;
            solve.lower(&rhs)?;
            sync.step(0, 1)?;
            solve.upper(&z)?;
            // Completion barrier so success is only reported once every warp
            // finished (a late panic must win).
            Barrier::new(&done, &lay, sync).wait()?;
            warp.out.iterations = 1;
            warp.out.converged = true;
            Ok(())
        },
    );
    rep.final_relres = 0.0;
    rep
}

// ---- Pipelined engines -----------------------------------------------------
//
// The classic threaded CG passes three barriers per iteration: the
// curvature dot, the update dot and the direction publish. The pipelined
// recurrence (see `crate::pipelined`) removes the dependency of the SpMV on
// the current reduction, which lets the whole iteration collapse onto ONE
// global barrier:
//
// * `w` — the only vector another warp ever reads — is double-buffered, and
//   the fused six-vector update writes the *other* slot, so the SpMV of a
//   slow warp can still be reading the published slot while a fast warp is
//   already one step ahead;
// * the dot-partial arrays are double-buffered the same way, and both
//   parities flip only on a *successful* update (a deterministic decision,
//   identical on every warp), so a breakdown iteration simply re-reads the
//   same slots — restart needs no copies, exactly like the sequential core.
//
// The pipelined PCG keeps two barriers: `m = M⁻¹w` must be published before
// the SpMV `n = A·m` reads it cross-warp. Everything else (`w`, `u`, and
// the six recurrence vectors) is only ever touched by its segment owner,
// so the classic publish and extra dot barriers disappear. Both run one
// body, `pipelined_family`: `w` is double-buffered on both paths, so the
// unpreconditioned path, which reads `w` itself where PCG reads `M⁻¹w`,
// needs no barrier of its own, and the precondition step and its barrier
// run only under a preconditioner. Determinism and warp-count invariance
// hold for the same reasons as the classic engines: owner-computes SpMV
// in global tile order, per-segment single-writer dot partials reduced in
// fixed segment order, and SpTRSV rows combined in CSR order.

/// Runs Ghysels–Vanroose pipelined CG inside the single kernel with ONE
/// global barrier per iteration (the classic engine passes three; see the
/// module-section comment above for how the collapse works).
/// Breakdown/restart semantics mirror [`crate::pipelined::run_cg_pipelined`]:
/// the restart is a flag flip (β = 0 rebuilds the direction state on the
/// next iteration), futile restarts abort as `Stalled`, and a non-finite γ
/// aborts as `NonFinite` — all decided from the shared reduction, so every
/// warp takes the identical branch and the barrier epochs stay aligned.
///
/// Reads [`ThreadedOpts::adaptive`]: a refresh pass here costs two global
/// barriers — one publishing the rebuilt true residual `r = b − A·x`, one
/// publishing the reseeded recurrence (`w = A·r` into the *current* parity
/// slot plus its (γ, δ) partials) — after which the direction stack
/// restarts exactly like a flag-only breakdown restart. The parities do
/// not flip.
///
/// # Panics
///
/// If `m` is not square, `b.len() != m.nrows` or `opts.warps` is 0.
pub fn run_cg_pipelined_threaded(
    m: &TiledMatrix,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    opts: &ThreadedOpts,
) -> SolveReport {
    pipelined_family(m, None, b, tol, max_iter, opts)
}

/// Runs Ghysels–Vanroose pipelined PCG inside the single kernel with TWO
/// global barriers per iteration (the classic engine passes four): one
/// publishes `m = M⁻¹w` for the SpMV, one publishes the fused dot partials.
/// The in-kernel SpTRSV, poison/watchdog and fault-injection machinery are
/// identical to [`run_pcg_threaded`]; breakdown semantics mirror
/// [`crate::pipelined::run_cg_pipelined`] with a preconditioner.
/// `opts.adaptive` is ignored.
///
/// # Panics
///
/// If `m` is not square, `b.len()` or `ilu`'s factors differ from
/// `m.nrows`, or `opts.warps` is 0.
pub fn run_pcg_pipelined_threaded(
    m: &TiledMatrix,
    ilu: &Ilu0,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    opts: &ThreadedOpts,
) -> SolveReport {
    // Only the unpreconditioned CG engines honour `adaptive`.
    let opts = ThreadedOpts {
        adaptive: None,
        ..opts.clone()
    };
    pipelined_family(m, Some(&TriSolve::ilu(ilu)), b, tol, max_iter, &opts)
}

/// The pipelined family's dot partials, double-buffered on the parity of
/// `w`: γ and δ always, ρ = (r, r) only under a preconditioner — without
/// one it is γ itself.
struct PipelinedPartials {
    gamma: [Vec<AtomicU64>; 2],
    delta: [Vec<AtomicU64>; 2],
    rho: Option<[Vec<AtomicU64>; 2]>,
}

impl PipelinedPartials {
    fn new(lay: &Layout, preconditioned: bool) -> Self {
        let pair = || [lay.seg_cells(), lay.seg_cells()];
        PipelinedPartials {
            gamma: pair(),
            delta: pair(),
            rho: preconditioned.then(pair),
        }
    }

    /// Stores the (γ, δ, ρ) partials `term` yields for `segs` into
    /// parity slot `k`.
    fn store(
        &self,
        lay: &Layout,
        segs: Range<usize>,
        k: usize,
        mut term: impl FnMut(usize) -> [f64; 3],
    ) {
        let (gamma, delta) = (&self.gamma[k][..], &self.delta[k][..]);
        match &self.rho {
            Some(rho) => seg_dots(lay, segs, [gamma, delta, &rho[k]], term),
            None => seg_dots(lay, segs, [gamma, delta], |e| {
                let [g, d, _] = term(e);
                [g, d]
            }),
        }
    }

    /// ρ from parity slot `k`.
    fn rho(&self, k: usize) -> f64 {
        seg_total(self.rho.as_ref().map_or(&self.gamma[k], |rho| &rho[k]))
    }
}

/// The pipelined family's one body: pipelined PCG with the triangular
/// solve pair `tri`, pipelined CG without it — `u = M⁻¹r`, `m = M⁻¹w` and
/// `q = M⁻¹s` are then `r`, `w` and `s` themselves, so the `precond` step
/// and its publish barrier, the `q` and `u` updates and the ρ partials
/// are skipped (the relres is then `γ = (r, r)` itself).
fn pipelined_family(
    m: &TiledMatrix,
    tri: Option<&TriSolve<'_>>,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    opts: &ThreadedOpts,
) -> SolveReport {
    let (lay, norm_b, mut resident) = match prologue(m, tri, b, opts, PCG_PIPELINED_STEPS) {
        Ok(setup) => setup,
        Err(done) => return *done,
    };
    let n = lay.n;
    let (x, r, p) = (zeros(n), cells(b), zeros(n));
    // Recurrences s = A·p, z = A·q; n = A·m is the per-iteration SpMV.
    let (s, zz, nv) = (zeros(n), zeros(n), zeros(n));
    // PCG's own vectors: u = M⁻¹r and q = M⁻¹s (recurrences) and
    // m = M⁻¹w — the one cross-warp vector of the preconditioned path.
    let [u_own, q_own, mv] = std::array::from_fn(|_| tri.map(|_| zeros(n)));
    let u = u_own.as_deref().unwrap_or(&r);
    // w = A·u, double-buffered: slot k%2 is the published input of the
    // current iteration, the fused update writes slot (k+1)%2 (k counts
    // successful updates, so a breakdown iteration re-reads the same slot).
    let wbuf = [zeros(n), zeros(n)];
    let bar = AtomicI64::new(0);
    let parts = PipelinedPartials::new(&lay, tri.is_some());
    // Seeds the recurrence from the current r into parity slot `k`:
    // u = M⁻¹r (its own barrier publishes u for the SpMV), w = A·u,
    // γ = (r,u), δ = (w,u), ρ = (r,r), then the barrier publishing w and
    // the partials.
    let reseed = |tiles: &mut WarpTiles<'_>,
                  precond: &mut Option<WarpTri<'_>>,
                  bar: &mut Barrier<'_>,
                  k: usize|
     -> Result<(), i64> {
        if let Some(pc) = precond {
            pc.apply(&r, u)?;
            bar.wait()?;
        }
        tiles.spmv_own(u, &wbuf[k]);
        parts.store(&lay, tiles.segs.clone(), k, |e| {
            let (rv, uv) = (ld(&r[e]), ld(&u[e]));
            [rv * uv, ld(&wbuf[k][e]) * uv, rv * rv]
        });
        bar.wait()
    };

    let windows = lay.windows(&mut resident);
    launch(&lay, opts, PCG_PIPELINED_STEPS, &x, windows, |warp, win| {
        let sync = warp.sync;
        let (segs, own) = (lay.segs(warp.w), lay.rows(warp.w));
        let mut tiles = WarpTiles::owned(&lay, sync, warp.w, win);
        let mut bar = Barrier::new(&bar, &lay, sync);
        let mut precond = tri.map(|t| t.warp(&lay, warp.w, sync));

        // ---- Init (r = b).
        sync.iteration_gate()?;
        sync.step(0, 0)?;
        reseed(&mut tiles, &mut precond, &mut bar, 0)?;

        let mut k = 0usize; // successful updates completed
        let mut gamma_old = 1.0f64;
        let mut alpha_old = 1.0f64;
        let mut fresh = true;
        let ctrl = opts
            .adaptive
            .map(|ac| crate::adaptive::controller_for(m, ac));
        drive(
            &mut warp.out,
            max_iter,
            None,
            tol,
            ctrl,
            || sync.iteration_gate(),
            |j, refresh| {
                let s_in = k % 2;
                let s_out = (k + 1) % 2;
                let (w_in, w_out) = (&wbuf[s_in], &wbuf[s_out]);

                if let Some(d) = refresh {
                    // ---- Re-tier refresh pass (a slot, not an iteration):
                    // requantize, rebuild the true residual r = b − A·x
                    // (barrier publishes r), reseed the current parity slot
                    // (barrier publishes it), then restart the direction stack.
                    sync.step(j, 0)?;
                    tiles.retier(m, d);
                    tiles.spmv_own(&x, &nv);
                    for e in own.clone() {
                        st(&r[e], b[e] - ld(&nv[e]));
                    }
                    bar.wait()?;
                    reseed(&mut tiles, &mut precond, &mut bar, s_in)?;
                    fresh = true;
                    sync.retiered(d);
                    return Ok(Slot::Refreshed);
                }

                // ---- m = M⁻¹w (w is warp-private: the SpTRSV rhs reads own
                // rows only), published by its own barrier.
                let m_in = match (precond.as_mut(), &mv) {
                    (Some(pc), Some(mv)) => {
                        sync.step(j, 1)?;
                        pc.apply(w_in, mv)?;
                        bar.wait()?;
                        &mv[..]
                    }
                    _ => &w_in[..],
                };

                // ---- n = A·m: reads what the last barrier published; never
                // races the updates, which write the other w slot.
                sync.step(j, 2)?;
                tiles.spmv_own(m_in, &nv);

                // ---- Scalars from the published reduction — identical on
                // every warp (fixed segment order).
                sync.step(j, 3)?;
                let gamma = seg_total(&parts.gamma[s_in]);
                let delta = seg_total(&parts.delta[s_in]);
                let (beta, alpha, denom) =
                    pipeline_scalars(fresh, gamma, gamma_old, delta, alpha_old);
                if let Some(kind) = curvature_breakdown(alpha, denom) {
                    // Flag-only restart: β = 0 next iteration rebuilds the
                    // direction stack wholesale; the parities do not flip,
                    // so the same (γ, δ) and the same w slot are re-read.
                    // One barrier keeps the epoch count aligned with the
                    // normal path.
                    fresh = true;
                    bar.wait()?;
                    return Ok(Slot::Restart {
                        kind,
                        finite: gamma.is_finite(),
                        relres: Some(parts.rho(s_in).max(0.0).sqrt() / norm_b),
                    });
                }

                // ---- Fused update + next dot partials (elementwise order
                // matches blas1::pcg_pipelined_update, and without a
                // preconditioner blas1::cg_pipelined_update, exactly, so the
                // drift envelope is shared).
                sync.step(j, 4)?;
                parts.store(&lay, segs.clone(), s_out, |e| {
                    let (uo, wo) = (ld(&u[e]), ld(&w_in[e]));
                    let pv = uo + beta * ld(&p[e]);
                    st(&p[e], pv);
                    let sv = wo + beta * ld(&s[e]);
                    st(&s[e], sv);
                    let qv = match &q_own {
                        Some(q) => {
                            let qv = ld(&m_in[e]) + beta * ld(&q[e]);
                            st(&q[e], qv);
                            qv
                        }
                        None => sv,
                    };
                    let zv = ld(&nv[e]) + beta * ld(&zz[e]);
                    st(&zz[e], zv);
                    st(&x[e], ld(&x[e]) + alpha * pv);
                    let rv = ld(&r[e]) - alpha * sv;
                    st(&r[e], rv);
                    let un = match &u_own {
                        Some(u) => {
                            let un = uo - alpha * qv;
                            st(&u[e], un);
                            un
                        }
                        None => rv,
                    };
                    let wn = wo - alpha * zv;
                    st(&w_out[e], wn);
                    [rv * un, wn * un, rv * rv]
                });
                bar.wait()?; // publishes w' + the partials

                k += 1;
                gamma_old = gamma;
                alpha_old = alpha;
                fresh = false;

                let rho_new = parts.rho(s_out);
                if !rho_new.is_finite() {
                    return Ok(Slot::NonFinite);
                }
                Ok(Slot::Done(
                    rho_new.max(0.0).sqrt() / norm_b,
                    Direction::Kept,
                ))
            },
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MAX_CONSECUTIVE_RESTARTS;
    use mf_precision::ClassifyOptions;
    use mf_sparse::{Coo, Csr};
    use std::time::Duration;

    /// The unpreconditioned entry points, as a single fn-pointer type so
    /// tests can table-drive over them.
    type Engine = fn(&TiledMatrix, &[f64], f64, usize, &ThreadedOpts) -> SolveReport;

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

    fn tiled(a: &Csr) -> TiledMatrix {
        TiledMatrix::from_csr_with(a, 16, &ClassifyOptions::default())
    }

    /// One system every engine can run: SPD tridiagonal, with its exact
    /// ILU(0) factors for the preconditioned engines and the SpTRSV runner.
    struct Fixture {
        m: TiledMatrix,
        f: mf_kernels::Ilu0,
    }

    /// All seven engines behind one signature, with their step tables.
    type Entry = fn(&Fixture, &[f64], &ThreadedOpts) -> SolveReport;

    fn all_engines() -> [(&'static str, Entry, &'static [&'static str]); 7] {
        [
            (
                "cg",
                |x, b, o| run_cg_threaded(&x.m, b, 1e-10, 1000, o),
                PCG_STEPS,
            ),
            (
                "bicgstab",
                |x, b, o| run_bicgstab_threaded(&x.m, b, 1e-10, 1000, o),
                PBICGSTAB_STEPS,
            ),
            (
                "pcg",
                |x, b, o| run_pcg_threaded(&x.m, &x.f, b, 1e-10, 1000, o),
                PCG_STEPS,
            ),
            (
                "pbicgstab",
                |x, b, o| run_pbicgstab_threaded(&x.m, &x.f, b, 1e-10, 1000, o),
                PBICGSTAB_STEPS,
            ),
            (
                "cg_pipelined",
                |x, b, o| run_cg_pipelined_threaded(&x.m, b, 1e-10, 1000, o),
                PCG_PIPELINED_STEPS,
            ),
            (
                "pcg_pipelined",
                |x, b, o| run_pcg_pipelined_threaded(&x.m, &x.f, b, 1e-10, 1000, o),
                PCG_PIPELINED_STEPS,
            ),
            (
                "sptrsv",
                |x, b, o| run_ilu_sptrsv_threaded(&x.f.l, &x.f.u, b, true, false, 16, o),
                SPTRSV_STEPS,
            ),
        ]
    }

    /// The options plumbing reaches every engine: fault telemetry and
    /// inertness, trace switch, heartbeat progress decoding, and the
    /// zero right-hand side.
    #[test]
    fn every_engine_honours_threaded_opts() {
        let a = poisson1d(96);
        let fx = Fixture {
            m: tiled(&a),
            f: mf_kernels::ilu0(&a).unwrap(),
        };
        let mut b = vec![0.0; 96];
        a.matvec(&vec![1.0; 96], &mut b);
        let plan = FaultPlan::seeded(11).with_delay(200, 16).with_stall(1, 50);
        for (name, run, steps) in all_engines() {
            let clean = run(&fx, &b, &ThreadedOpts::new(3));
            assert!(clean.converged, "{name}");
            assert!(
                clean.injected_faults().is_none(),
                "{name}: empty plan → no telemetry"
            );
            assert!(clean.trace.is_none(), "{name}: tracing defaults off");
            assert_eq!(clean.last_progress().len(), clean.warp_count, "{name}");
            assert!(
                clean
                    .last_progress()
                    .iter()
                    .all(|p| steps.contains(&p.step)),
                "{name}: {:?}",
                clean.last_progress()
            );

            let faulted = ThreadedOpts {
                faults: plan.clone(),
                ..ThreadedOpts::new(3)
            };
            let rep = run(&fx, &b, &faulted);
            assert!(rep.converged, "{name}");
            let inj = rep.injected_faults().expect("non-empty plan → telemetry");
            assert_eq!(inj.plan, plan.to_string(), "{name}: repro line round-trips");
            assert!(
                inj.counts.total() > 0,
                "{name}: benign faults actually fired"
            );
            for (t, c) in rep.x.iter().zip(&clean.x) {
                assert_eq!(
                    t.to_bits(),
                    c.to_bits(),
                    "{name}: benign plan is bitwise inert"
                );
            }

            let traced = ThreadedOpts {
                trace: TraceConfig::on(),
                ..ThreadedOpts::new(3)
            };
            assert!(
                run(&fx, &b, &traced).trace.is_some(),
                "{name}: trace on → Some"
            );

            let unwatched = ThreadedOpts {
                watchdog: WatchdogPolicy::Disabled,
                ..ThreadedOpts::new(3)
            };
            let rep = run(&fx, &b, &unwatched);
            assert!(rep.converged, "{name}");
            assert!(
                rep.last_progress().is_empty(),
                "{name}: no heartbeat → no progress"
            );

            // b = 0: x = 0 immediately, and the trace still comes back
            // (like the sequential cores).
            let rep = run(&fx, &vec![0.0; 96], &traced);
            assert!(rep.converged, "{name}");
            assert!(rep.x.iter().all(|&v| v == 0.0), "{name}");
            let tr = rep.trace.expect("b = 0 keeps the trace");
            assert_eq!(tr.warps, rep.warp_count, "{name}");
        }
    }

    #[test]
    fn threaded_cg_converges() {
        let a = poisson1d(512);
        let m = tiled(&a);
        let mut b = vec![0.0; 512];
        a.matvec(&vec![1.0; 512], &mut b);
        let rep = run_cg_threaded(&m, &b, 1e-10, 1000, &ThreadedOpts::new(8));
        assert!(rep.converged, "relres {}", rep.final_relres);
        assert_eq!(rep.warp_count, 8);
        assert!(rep.failure.is_none());
        assert!(rep.breakdowns.is_empty());
        for v in &rep.x {
            assert!((v - 1.0).abs() < 1e-7, "{v}");
        }
    }

    #[test]
    fn threaded_matches_sequential_iterations() {
        let a = poisson1d(256);
        let m = tiled(&a);
        let mut b = vec![0.0; 256];
        a.matvec(&vec![1.0; 256], &mut b);

        let rep_t = run_cg_threaded(&m, &b, 1e-10, 1000, &ThreadedOpts::new(4));

        // Sequential reference through the public solver path (partial
        // convergence off so numerics match the threaded engine's plain
        // tiled SpMV).
        let solver = crate::MilleFeuille::new(
            mf_gpu::DeviceSpec::a100(),
            crate::SolverConfig {
                partial_convergence: false,
                ..crate::SolverConfig::default()
            },
        );
        let rep_s = solver
            .solve(&a, &b, &crate::SolveSpec::new(crate::Method::Cg))
            .unwrap();
        assert!(rep_t.converged && rep_s.converged);
        // Atomic accumulation reorders float adds; iteration counts may
        // differ by a hair, the solutions must agree.
        assert!(rep_t.iterations.abs_diff(rep_s.iterations) <= 2);
        for (t, s) in rep_t.x.iter().zip(&rep_s.x) {
            assert!((t - s).abs() < 1e-7);
        }
    }

    #[test]
    fn single_warp_degenerate_case() {
        let a = poisson1d(64);
        let m = tiled(&a);
        let mut b = vec![0.0; 64];
        a.matvec(&vec![1.0; 64], &mut b);
        let rep = run_cg_threaded(&m, &b, 1e-10, 1000, &ThreadedOpts::new(1));
        assert!(rep.converged);
        assert_eq!(rep.warp_count, 1);
    }

    #[test]
    fn many_warps_capped_by_segments() {
        let a = poisson1d(64); // 4 segments of 16
        let m = tiled(&a);
        let mut b = vec![0.0; 64];
        a.matvec(&vec![1.0; 64], &mut b);
        let rep = run_cg_threaded(&m, &b, 1e-10, 1000, &ThreadedOpts::new(64));
        assert_eq!(rep.warp_count, 4);
        assert!(rep.converged);
    }

    #[test]
    fn zero_rhs() {
        let a = poisson1d(32);
        let m = tiled(&a);
        let rep = run_cg_threaded(&m, &vec![0.0; 32], 1e-10, 100, &ThreadedOpts::new(4));
        assert!(rep.converged);
        assert_eq!(rep.iterations, 0);
        assert!(rep.failure.is_none());
    }

    #[test]
    fn max_iter_respected() {
        let a = poisson1d(128);
        let m = tiled(&a);
        let mut b = vec![0.0; 128];
        a.matvec(&vec![1.0; 128], &mut b);
        let rep = run_cg_threaded(&m, &b, 1e-30, 5, &ThreadedOpts::new(4));
        assert!(!rep.converged);
        assert_eq!(rep.iterations, 5);
        // Out-of-iterations is a normal termination, not a failure.
        assert!(rep.failure.is_none());
    }

    fn convdiff1d(n: usize) -> Csr {
        let mut a = Coo::new(n, n);
        for i in 0..n {
            a.push(i, i, 4.0);
            if i > 0 {
                a.push(i, i - 1, -1.5);
            }
            if i + 1 < n {
                a.push(i, i + 1, -0.5);
            }
        }
        a.to_csr()
    }

    #[test]
    fn threaded_bicgstab_converges() {
        let a = convdiff1d(400);
        let m = tiled(&a);
        let mut b = vec![0.0; 400];
        a.matvec(&vec![1.0; 400], &mut b);
        let rep = run_bicgstab_threaded(&m, &b, 1e-10, 1000, &ThreadedOpts::new(8));
        assert!(rep.converged, "relres {}", rep.final_relres);
        assert!(rep.failure.is_none());
        for v in &rep.x {
            assert!((v - 1.0).abs() < 1e-6, "{v}");
        }
    }

    #[test]
    fn threaded_bicgstab_single_warp() {
        let a = convdiff1d(48);
        let m = tiled(&a);
        let mut b = vec![0.0; 48];
        a.matvec(&vec![1.0; 48], &mut b);
        let rep = run_bicgstab_threaded(&m, &b, 1e-10, 1000, &ThreadedOpts::new(1));
        assert!(rep.converged);
        assert_eq!(rep.warp_count, 1);
    }

    #[test]
    fn threaded_bicgstab_zero_rhs_and_max_iter() {
        let a = convdiff1d(32);
        let m = tiled(&a);
        let rep = run_bicgstab_threaded(&m, &vec![0.0; 32], 1e-10, 50, &ThreadedOpts::new(4));
        assert!(rep.converged);
        assert_eq!(rep.iterations, 0);
        let mut b = vec![0.0; 32];
        a.matvec(&vec![1.0; 32], &mut b);
        let rep = run_bicgstab_threaded(&m, &b, 1e-30, 5, &ThreadedOpts::new(4));
        assert!(!rep.converged);
        assert_eq!(rep.iterations, 5);
    }

    #[test]
    fn threaded_bicgstab_repeated_runs() {
        let a = convdiff1d(150);
        let m = tiled(&a);
        let mut b = vec![0.0; 150];
        a.matvec(&vec![1.0; 150], &mut b);
        for trial in 0..10 {
            let rep = run_bicgstab_threaded(&m, &b, 1e-10, 1000, &ThreadedOpts::new(5));
            assert!(rep.converged, "trial {trial}");
            for v in &rep.x {
                assert!((v - 1.0).abs() < 1e-6, "trial {trial}: {v}");
            }
        }
    }

    #[test]
    fn repeated_runs_are_consistent() {
        // Stress the synchronization: 20 back-to-back threaded solves must
        // all converge to the same solution (catches latent races).
        let a = poisson1d(200);
        let m = tiled(&a);
        let mut b = vec![0.0; 200];
        a.matvec(&vec![1.0; 200], &mut b);
        for trial in 0..20 {
            let rep = run_cg_threaded(&m, &b, 1e-10, 1000, &ThreadedOpts::new(7));
            assert!(rep.converged, "trial {trial}");
            for v in &rep.x {
                assert!((v - 1.0).abs() < 1e-7, "trial {trial}: {v}");
            }
        }
    }

    // ---- Robustness regressions ------------------------------------------

    /// A = −I is indefinite: pᵀAp = −‖p‖² < 0 on the very first iteration.
    /// The old engine computed a meaningless α, NaN-poisoned every vector
    /// and spun all `max_iter` iterations; now every warp must take the
    /// identical restart branch, observe the fixed point and abort with a
    /// structured failure and a finite residual.
    #[test]
    fn threaded_cg_indefinite_fails_finite() {
        let n = 64;
        let mut a = Coo::new(n, n);
        for i in 0..n {
            a.push(i, i, -1.0);
        }
        let m = tiled(&a.to_csr());
        let b = vec![1.0; n];
        for warps in [1, 4] {
            let rep = run_cg_threaded(&m, &b, 1e-10, 1000, &ThreadedOpts::new(warps));
            assert!(!rep.converged, "warps {warps}");
            assert!(
                rep.final_relres.is_finite(),
                "warps {warps}: NaN leaked: {}",
                rep.final_relres
            );
            assert!(rep.x.iter().all(|v| v.is_finite()), "warps {warps}");
            assert!(
                matches!(rep.failure, Some(SolveFailure::Stalled { .. })),
                "warps {warps}: {:?}",
                rep.failure
            );
            assert_eq!(rep.iterations, MAX_CONSECUTIVE_RESTARTS, "warps {warps}");
            assert!(!rep.breakdowns.is_empty());
            assert!(rep
                .breakdowns
                .iter()
                .all(|e| e.kind == BreakdownKind::Curvature));
            assert_eq!(
                rep.breakdowns.last().unwrap().action,
                RecoveryAction::Aborted
            );
        }
    }

    /// Skew-symmetric matrix: `(A·p, r0*) = 0` exactly, so the old engine's
    /// unguarded `α = ρ/denom` was infinite on iteration 0. The guarded
    /// engine must restart (with the sequential `restart()` semantics, not
    /// the old `rho_new.max(rr)` hack), observe the fixed point, and abort.
    #[test]
    fn threaded_bicgstab_breakdown_matrix_fails_finite() {
        let n = 32;
        let mut a = Coo::new(n, n);
        for i in 0..n - 1 {
            a.push(i, i + 1, 1.0);
            a.push(i + 1, i, -1.0);
        }
        let m = tiled(&a.to_csr());
        let b = vec![1.0; n];
        for warps in [1, 2] {
            let rep = run_bicgstab_threaded(&m, &b, 1e-10, 1000, &ThreadedOpts::new(warps));
            assert!(!rep.converged, "warps {warps}");
            assert!(rep.final_relres.is_finite(), "warps {warps}");
            assert!(rep.x.iter().all(|v| v.is_finite()), "warps {warps}");
            assert!(
                matches!(rep.failure, Some(SolveFailure::Stalled { .. })),
                "warps {warps}: {:?}",
                rep.failure
            );
            assert_eq!(rep.iterations, MAX_CONSECUTIVE_RESTARTS, "warps {warps}");
            assert_eq!(
                rep.breakdowns.last().unwrap().action,
                RecoveryAction::Aborted
            );
        }
    }

    /// A malformed tile column index makes one warp index out of bounds.
    /// The old engine left the sibling warps spinning forever and the
    /// scope never joined; the poison flag must convert this into a
    /// `WarpPanic` failure, promptly, with every thread joined.
    #[test]
    fn panicking_warp_propagates_instead_of_hanging() {
        let a = poisson1d(128);
        let mut m = tiled(&a);
        let last = m.tile_colidx.len() - 1;
        m.tile_colidx[last] = 10_000; // way past ncols -> index panic
        let mut b = vec![0.0; 128];
        a.matvec(&vec![1.0; 128], &mut b);
        let rep = run_cg_threaded(&m, &b, 1e-10, 1000, &ThreadedOpts::new(4));
        assert!(!rep.converged);
        assert!(
            matches!(rep.failure, Some(SolveFailure::WarpPanic { .. })),
            "{:?}",
            rep.failure
        );
        assert_eq!(rep.breakdowns.last().unwrap().kind, BreakdownKind::Panic);
        // Same protocol on the BiCGSTAB engine.
        let rep = run_bicgstab_threaded(&m, &b, 1e-10, 1000, &ThreadedOpts::new(4));
        assert!(matches!(rep.failure, Some(SolveFailure::WarpPanic { .. })));
    }

    /// Four warps, every one halted at its first barrier entry, under a
    /// 250 ms heartbeat: nothing ever progresses again.
    fn halted_opts() -> ThreadedOpts {
        ThreadedOpts {
            watchdog: WatchdogPolicy::Heartbeat(Duration::from_millis(250)),
            faults: FaultPlan::seeded(5).with_halt(None, 0),
            ..ThreadedOpts::new(4)
        }
    }

    /// A solve whose warps all halt must wedge within the heartbeat bound —
    /// clean `Wedged` report, no hang, all threads joined.
    #[test]
    fn watchdog_halt_wedges_cleanly() {
        let a = poisson1d(128);
        let m = tiled(&a);
        let mut b = vec![0.0; 128];
        a.matvec(&vec![1.0; 128], &mut b);
        for (engine, name) in [
            (run_cg_threaded as Engine, "cg"),
            (run_bicgstab_threaded as Engine, "bicgstab"),
        ] {
            let started = Instant::now();
            let rep = engine(&m, &b, 1e-10, 1000, &halted_opts());
            assert!(started.elapsed() < Duration::from_secs(30), "{name}");
            assert!(!rep.converged, "{name}");
            assert!(
                matches!(rep.failure, Some(SolveFailure::Wedged { .. })),
                "{name}: {:?}",
                rep.failure
            );
            assert_eq!(
                rep.breakdowns.last().unwrap().kind,
                BreakdownKind::Watchdog,
                "{name}"
            );
        }
    }

    // ---- In-kernel SpTRSV / preconditioned engines -----------------------

    #[test]
    fn sptrsv_runner_bitwise_matches_sequential() {
        use mf_kernels::{ilu0, sptrsv_lower_into, sptrsv_upper_into};
        let a = poisson1d(130); // ragged tail segment (130 = 8*16 + 2)
        let f = ilu0(&a).unwrap();
        let b: Vec<f64> = (0..130).map(|i| 0.3 + (i as f64) * 0.01).collect();
        let mut y = vec![0.0; 130];
        let mut z = vec![0.0; 130];
        sptrsv_lower_into(&f.l, &b, &mut y, true);
        sptrsv_upper_into(&f.u, &y, &mut z, false);
        for warps in [1, 3, 8] {
            let rep =
                run_ilu_sptrsv_threaded(&f.l, &f.u, &b, true, false, 16, &ThreadedOpts::new(warps));
            assert!(rep.converged, "warps {warps}");
            assert!(rep.failure.is_none(), "warps {warps}: {:?}", rep.failure);
            for (i, (t, s)) in rep.x.iter().zip(&z).enumerate() {
                assert_eq!(
                    t.to_bits(),
                    s.to_bits(),
                    "warps {warps} row {i}: {t} vs {s}"
                );
            }
        }
    }

    /// A mutually-cyclic pair of "dependencies" in L (rows 5 and 80 in
    /// different warps' ranges pointing at each other) can never be
    /// satisfied: both warps spin on each other's counter. The watchdog
    /// must convert that into `Wedged` — the protocol's whole point.
    #[test]
    fn cyclic_factor_wedges_instead_of_hanging() {
        use mf_kernels::ilu0;
        let a = poisson1d(128);
        let mut f = ilu0(&a).unwrap();
        // Row 5 gains a dependency on row 80 (an upper entry in L), while
        // row 80 already depends on row 79..; rewire row 80's sub-diagonal
        // entry to depend on row 5's completion *after* corrupting row 5
        // to wait on 80 -> genuine cycle across warp boundaries.
        let k5 = f.l.rowptr[5]; // row 5's first (only) strictly-lower entry
        f.l.colidx[k5] = 80;
        let started = Instant::now();
        let opts = ThreadedOpts {
            watchdog: WatchdogPolicy::Heartbeat(Duration::from_millis(250)),
            ..ThreadedOpts::new(4)
        };
        let rep = run_ilu_sptrsv_threaded(&f.l, &f.u, &vec![1.0; 128], true, false, 16, &opts);
        assert!(
            matches!(rep.failure, Some(SolveFailure::Wedged { .. })),
            "{:?}",
            rep.failure
        );
        assert!(!rep.converged);
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "wedge detection took {:?}",
            started.elapsed()
        );
    }

    fn pcg_fixture(n: usize) -> (Csr, TiledMatrix, mf_kernels::Ilu0, Vec<f64>) {
        let a = poisson1d(n);
        let m = tiled(&a);
        let f = mf_kernels::ilu0(&a).unwrap();
        let mut b = vec![0.0; n];
        a.matvec(&vec![1.0; n], &mut b);
        (a, m, f, b)
    }

    #[test]
    fn threaded_pcg_converges_and_is_warp_invariant() {
        let (_, m, f, b) = pcg_fixture(512);
        let base = run_pcg_threaded(&m, &f, &b, 1e-10, 1000, &ThreadedOpts::new(1));
        assert!(base.converged, "relres {}", base.final_relres);
        assert!(base.failure.is_none());
        for v in &base.x {
            assert!((v - 1.0).abs() < 1e-7, "{v}");
        }
        for warps in [2, 5, 8] {
            let rep = run_pcg_threaded(&m, &f, &b, 1e-10, 1000, &ThreadedOpts::new(warps));
            assert!(rep.converged, "warps {warps}");
            assert_eq!(rep.iterations, base.iterations, "warps {warps}");
            assert_eq!(
                rep.final_relres.to_bits(),
                base.final_relres.to_bits(),
                "warps {warps}"
            );
            assert_eq!(rep.residual_history, base.residual_history);
            for (i, (t, s)) in rep.x.iter().zip(&base.x).enumerate() {
                assert_eq!(t.to_bits(), s.to_bits(), "warps {warps} row {i}");
            }
        }
    }

    #[test]
    fn threaded_pbicgstab_converges_and_is_warp_invariant() {
        let a = convdiff1d(400);
        let m = tiled(&a);
        let f = mf_kernels::ilu0(&a).unwrap();
        let mut b = vec![0.0; 400];
        a.matvec(&vec![1.0; 400], &mut b);
        let base = run_pbicgstab_threaded(&m, &f, &b, 1e-10, 1000, &ThreadedOpts::new(1));
        assert!(base.converged, "relres {}", base.final_relres);
        for v in &base.x {
            assert!((v - 1.0).abs() < 1e-6, "{v}");
        }
        for warps in [3, 7] {
            let rep = run_pbicgstab_threaded(&m, &f, &b, 1e-10, 1000, &ThreadedOpts::new(warps));
            assert!(rep.converged, "warps {warps}");
            assert_eq!(rep.iterations, base.iterations, "warps {warps}");
            assert_eq!(rep.residual_history, base.residual_history);
            for (t, s) in rep.x.iter().zip(&base.x) {
                assert_eq!(t.to_bits(), s.to_bits(), "warps {warps}");
            }
        }
    }

    #[test]
    fn threaded_pcg_zero_rhs_and_max_iter() {
        let (_, m, f, _) = pcg_fixture(64);
        let rep = run_pcg_threaded(&m, &f, &vec![0.0; 64], 1e-10, 100, &ThreadedOpts::new(4));
        assert!(rep.converged);
        assert_eq!(rep.iterations, 0);
        let mut b = vec![0.0; 64];
        poisson1d(64).matvec(&vec![1.0; 64], &mut b);
        // ILU(0) is *exact* on a tridiagonal matrix, so any positive
        // tolerance is reachable; tol = 0 forces the iteration cap.
        let rep = run_pcg_threaded(&m, &f, &b, 0.0, 3, &ThreadedOpts::new(4));
        assert!(!rep.converged);
        assert_eq!(rep.iterations, 3);
        assert!(rep.failure.is_none());
        assert_eq!(rep.status_label(), "max_iter");
    }

    /// A corrupted L with a cycle must wedge the *engines* too (mid-solve,
    /// inside the preconditioner application), not just the standalone
    /// runner, and a poisoned column index must surface as `WarpPanic`.
    #[test]
    fn pcg_wedge_and_panic_mid_sptrsv() {
        let (_, m, f, b) = pcg_fixture(128);
        let mut cyc = f.clone();
        let k5 = cyc.l.rowptr[5];
        cyc.l.colidx[k5] = 80;
        let wd = ThreadedOpts {
            watchdog: WatchdogPolicy::Heartbeat(Duration::from_millis(250)),
            ..ThreadedOpts::new(4)
        };
        let rep = run_pcg_threaded(&m, &cyc, &b, 1e-10, 1000, &wd);
        assert!(
            matches!(rep.failure, Some(SolveFailure::Wedged { .. })),
            "{:?}",
            rep.failure
        );
        assert_eq!(rep.status_label(), "aborted(watchdog)");

        let mut bad = f.clone();
        let k5 = bad.l.rowptr[5];
        bad.l.colidx[k5] = 10_000; // out of bounds -> index panic in a warp
        let rep = run_pcg_threaded(&m, &bad, &b, 1e-10, 1000, &wd);
        assert!(
            matches!(rep.failure, Some(SolveFailure::WarpPanic { .. })),
            "{:?}",
            rep.failure
        );
        assert_eq!(rep.status_label(), "aborted(panic)");

        let rep = run_pbicgstab_threaded(&m, &cyc, &b, 1e-10, 1000, &wd);
        assert!(
            matches!(rep.failure, Some(SolveFailure::Wedged { .. })),
            "{:?}",
            rep.failure
        );
    }

    /// Stress: {indefinite, singular, badly-scaled} × {1, 4, 7} warps ×
    /// both engines all terminate within the watchdog and never hang. A
    /// singular-but-consistent-free system simply runs out of iterations
    /// (normal termination); the other two must report a structured
    /// failure.
    #[test]
    fn stress_bad_matrices_never_hang() {
        let n = 97;
        let indefinite = {
            let mut a = Coo::new(n, n);
            for i in 0..n {
                a.push(i, i, if i % 2 == 0 { 2.0 } else { -2.0 });
            }
            a.to_csr()
        };
        let singular = {
            let mut a = Coo::new(n, n);
            for i in 0..n - 1 {
                a.push(i, i, 1.0); // last row/col all zero
            }
            a.to_csr()
        };
        let badly_scaled = {
            let mut a = Coo::new(n, n);
            for i in 0..n {
                a.push(i, i, 1e200); // forces Inf dot products with b=1e200
            }
            a.to_csr()
        };
        let wd = WatchdogPolicy::Heartbeat(Duration::from_secs(2));
        // `must_fail` lists the engines that have to report a structured
        // failure: CG breaks on indefinite curvature, but BiCGSTAB solves a
        // nonsingular indefinite system legitimately (it never required SPD).
        for (name, a, b_val, must_fail) in [
            ("indefinite", &indefinite, 1.0, &["cg"][..]),
            ("singular", &singular, 1.0, &[][..]),
            (
                "badly_scaled",
                &badly_scaled,
                1e200,
                &["cg", "bicgstab"][..],
            ),
        ] {
            let m = tiled(a);
            let b = vec![b_val; n];
            for warps in [1, 4, 7] {
                for (engine, ename) in [
                    (run_cg_threaded as Engine, "cg"),
                    (run_bicgstab_threaded as Engine, "bicgstab"),
                ] {
                    let opts = ThreadedOpts {
                        watchdog: wd,
                        ..ThreadedOpts::new(warps)
                    };
                    let rep = engine(&m, &b, 1e-10, 100, &opts);
                    assert!(
                        !rep.final_relres.is_nan(),
                        "{name}/{ename}/{warps}: NaN relres"
                    );
                    if must_fail.contains(&ename) {
                        assert!(
                            rep.failure.is_some(),
                            "{name}/{ename}/{warps}: expected a structured failure"
                        );
                        assert!(
                            !rep.breakdowns.is_empty(),
                            "{name}/{ename}/{warps}: breakdown trail empty"
                        );
                    } else {
                        // Terminated (converged / out of iterations /
                        // structured failure) — the point is: no hang.
                        assert!(rep.iterations <= 100, "{name}/{ename}/{warps}");
                    }
                }
            }
        }
    }

    // ---- Pipelined engines -----------------------------------------------

    #[test]
    fn pipelined_cg_converges_and_is_warp_invariant() {
        let a = poisson1d(512);
        let m = tiled(&a);
        let mut b = vec![0.0; 512];
        a.matvec(&vec![1.0; 512], &mut b);
        let base = run_cg_pipelined_threaded(&m, &b, 1e-10, 1000, &ThreadedOpts::new(1));
        assert!(base.converged, "relres {}", base.final_relres);
        assert!(base.failure.is_none());
        for v in &base.x {
            assert!((v - 1.0).abs() < 1e-7, "{v}");
        }
        for warps in [2, 5, 8] {
            let rep = run_cg_pipelined_threaded(&m, &b, 1e-10, 1000, &ThreadedOpts::new(warps));
            assert!(rep.converged, "warps {warps}");
            assert_eq!(rep.iterations, base.iterations, "warps {warps}");
            assert_eq!(
                rep.final_relres.to_bits(),
                base.final_relres.to_bits(),
                "warps {warps}"
            );
            assert_eq!(rep.residual_history, base.residual_history);
            for (i, (t, s)) in rep.x.iter().zip(&base.x).enumerate() {
                assert_eq!(t.to_bits(), s.to_bits(), "warps {warps} row {i}");
            }
        }
    }

    #[test]
    fn pipelined_pcg_converges_and_is_warp_invariant() {
        let (_, m, f, b) = pcg_fixture(512);
        let base = run_pcg_pipelined_threaded(&m, &f, &b, 1e-10, 1000, &ThreadedOpts::new(1));
        assert!(base.converged, "relres {}", base.final_relres);
        assert!(base.failure.is_none());
        for v in &base.x {
            assert!((v - 1.0).abs() < 1e-7, "{v}");
        }
        for warps in [4, 7] {
            let rep =
                run_pcg_pipelined_threaded(&m, &f, &b, 1e-10, 1000, &ThreadedOpts::new(warps));
            assert!(rep.converged, "warps {warps}");
            assert_eq!(rep.iterations, base.iterations, "warps {warps}");
            assert_eq!(rep.residual_history, base.residual_history);
            for (i, (t, s)) in rep.x.iter().zip(&base.x).enumerate() {
                assert_eq!(t.to_bits(), s.to_bits(), "warps {warps} row {i}");
            }
        }
    }

    #[test]
    fn pipelined_cg_iteration_count_tracks_classic() {
        // The pipelined recurrence is the same Krylov method with different
        // rounding; on a well-conditioned fixture the convergence iteration
        // may only drift by a hair.
        let a = poisson1d(256);
        let m = tiled(&a);
        let mut b = vec![0.0; 256];
        a.matvec(&vec![1.0; 256], &mut b);
        let classic = run_cg_threaded(&m, &b, 1e-10, 1000, &ThreadedOpts::new(4));
        let pipelined = run_cg_pipelined_threaded(&m, &b, 1e-10, 1000, &ThreadedOpts::new(4));
        assert!(classic.converged && pipelined.converged);
        assert!(
            classic.iterations.abs_diff(pipelined.iterations) <= 5,
            "classic {} vs pipelined {}",
            classic.iterations,
            pipelined.iterations
        );
        for (t, s) in pipelined.x.iter().zip(&classic.x) {
            assert!((t - s).abs() < 1e-7);
        }
    }

    #[test]
    fn pipelined_cg_indefinite_fails_finite() {
        let n = 64;
        let mut a = Coo::new(n, n);
        for i in 0..n {
            a.push(i, i, -1.0);
        }
        let m = tiled(&a.to_csr());
        let b = vec![1.0; n];
        for warps in [1, 4] {
            let rep = run_cg_pipelined_threaded(&m, &b, 1e-10, 1000, &ThreadedOpts::new(warps));
            assert!(!rep.converged, "warps {warps}");
            assert!(rep.final_relres.is_finite(), "warps {warps}");
            assert!(rep.x.iter().all(|v| v.is_finite()), "warps {warps}");
            assert!(
                matches!(rep.failure, Some(SolveFailure::Stalled { .. })),
                "warps {warps}: {:?}",
                rep.failure
            );
            assert_eq!(rep.iterations, MAX_CONSECUTIVE_RESTARTS, "warps {warps}");
            assert!(rep
                .breakdowns
                .iter()
                .all(|e| e.kind == BreakdownKind::Curvature));
            assert_eq!(
                rep.breakdowns.last().unwrap().action,
                RecoveryAction::Aborted
            );
        }
    }

    #[test]
    fn pipelined_zero_rhs_and_max_iter() {
        let a = poisson1d(64);
        let m = tiled(&a);
        let rep = run_cg_pipelined_threaded(&m, &vec![0.0; 64], 1e-10, 100, &ThreadedOpts::new(4));
        assert!(rep.converged);
        assert_eq!(rep.iterations, 0);
        let mut b = vec![0.0; 64];
        a.matvec(&vec![1.0; 64], &mut b);
        let rep = run_cg_pipelined_threaded(&m, &b, 1e-30, 5, &ThreadedOpts::new(4));
        assert!(!rep.converged);
        assert_eq!(rep.iterations, 5);
        assert!(rep.failure.is_none());

        let (_, m, f, b) = pcg_fixture(64);
        let rep =
            run_pcg_pipelined_threaded(&m, &f, &vec![0.0; 64], 1e-10, 100, &ThreadedOpts::new(4));
        assert!(rep.converged);
        assert_eq!(rep.iterations, 0);
        let rep = run_pcg_pipelined_threaded(&m, &f, &b, 0.0, 3, &ThreadedOpts::new(4));
        assert!(!rep.converged);
        assert_eq!(rep.iterations, 3);
        assert!(rep.failure.is_none());
    }

    #[test]
    fn pipelined_benign_faults_bitwise_inert() {
        let a = poisson1d(160);
        let m = tiled(&a);
        let mut b = vec![0.0; 160];
        a.matvec(&vec![1.0; 160], &mut b);
        let plan = FaultPlan::seeded(11).with_delay(200, 16).with_stall(4, 50);
        let clean = run_cg_pipelined_threaded(&m, &b, 1e-10, 1000, &ThreadedOpts::new(4));
        let rep = run_cg_pipelined_threaded(
            &m,
            &b,
            1e-10,
            1000,
            &ThreadedOpts {
                faults: plan.clone(),
                ..ThreadedOpts::new(4)
            },
        );
        assert!(rep.converged);
        let inj = rep.injected_faults().expect("non-empty plan → telemetry");
        assert!(inj.counts.total() > 0, "benign faults actually fired");
        for (t, c) in rep.x.iter().zip(&clean.x) {
            assert_eq!(t.to_bits(), c.to_bits(), "benign plan is bitwise inert");
        }

        let (_, pm, f, pb) = pcg_fixture(160);
        let clean = run_pcg_pipelined_threaded(&pm, &f, &pb, 1e-10, 1000, &ThreadedOpts::new(4));
        let rep = run_pcg_pipelined_threaded(
            &pm,
            &f,
            &pb,
            1e-10,
            1000,
            &ThreadedOpts {
                faults: plan.clone(),
                ..ThreadedOpts::new(4)
            },
        );
        assert!(rep.converged);
        for (t, c) in rep.x.iter().zip(&clean.x) {
            assert_eq!(t.to_bits(), c.to_bits(), "benign plan is bitwise inert");
        }
    }

    #[test]
    fn pipelined_watchdog_halt_wedges_cleanly() {
        let a = poisson1d(128);
        let m = tiled(&a);
        let mut b = vec![0.0; 128];
        a.matvec(&vec![1.0; 128], &mut b);
        let started = Instant::now();
        let rep = run_cg_pipelined_threaded(&m, &b, 1e-10, 1000, &halted_opts());
        assert!(started.elapsed() < Duration::from_secs(30));
        assert!(!rep.converged);
        assert!(
            matches!(rep.failure, Some(SolveFailure::Wedged { .. })),
            "{:?}",
            rep.failure
        );
        assert_eq!(rep.breakdowns.last().unwrap().kind, BreakdownKind::Watchdog);
    }

    /// The tentpole claim, measured: the classic CG passes three barrier
    /// epochs per iteration, the pipelined CG exactly one (plus one at init);
    /// classic PCG four barriers, pipelined PCG two (plus two at init). The
    /// trace counts every `BarrierEnter` per warp, so the densities are
    /// directly comparable (SpTRSV row waits are recorded as `RowWait` and
    /// do not inflate the metric).
    #[test]
    fn pipelined_trace_shows_barrier_collapse() {
        let tr = TraceConfig {
            enabled: true,
            capacity_per_warp: 65536,
        };
        let wd = WatchdogPolicy::default();
        let plan = FaultPlan::default();

        let a = poisson1d(256);
        let m = tiled(&a);
        let mut b = vec![0.0; 256];
        a.matvec(&vec![1.0; 256], &mut b);
        let classic = run_cg_threaded(
            &m,
            &b,
            1e-10,
            1000,
            &ThreadedOpts {
                watchdog: wd,
                faults: plan.clone(),
                trace: tr,
                ..ThreadedOpts::new(4)
            },
        );
        let piped = run_cg_pipelined_threaded(
            &m,
            &b,
            1e-10,
            1000,
            &ThreadedOpts {
                watchdog: wd,
                faults: plan.clone(),
                trace: tr,
                ..ThreadedOpts::new(4)
            },
        );
        assert!(classic.converged && piped.converged);
        let cs = classic.trace.as_ref().unwrap().summary();
        let ps = piped.trace.as_ref().unwrap().summary();
        assert_eq!(cs.dropped + ps.dropped, 0, "ring too small for the test");
        let (cd, pd) = (cs.barriers_per_iteration(), ps.barriers_per_iteration());
        assert!(pd <= 1.5, "pipelined CG barrier density {pd}");
        assert!(pd < cd, "pipelined {pd} not below classic {cd}");

        // 2D Poisson: ILU(0) is *inexact* there, so PCG runs enough
        // iterations to amortize the two init barriers (the tridiagonal
        // fixture converges in one iteration, where density = 2 + 2/1 = 4
        // says nothing about the steady state).
        let k = 16;
        let n = k * k;
        let mut a2 = Coo::new(n, n);
        for i in 0..k {
            for jj in 0..k {
                let row = i * k + jj;
                a2.push(row, row, 4.0);
                if i > 0 {
                    a2.push(row, row - k, -1.0);
                }
                if i + 1 < k {
                    a2.push(row, row + k, -1.0);
                }
                if jj > 0 {
                    a2.push(row, row - 1, -1.0);
                }
                if jj + 1 < k {
                    a2.push(row, row + 1, -1.0);
                }
            }
        }
        let a2 = a2.to_csr();
        let pm = tiled(&a2);
        let f = mf_kernels::ilu0(&a2).unwrap();
        let mut pb = vec![0.0; n];
        a2.matvec(&vec![1.0; n], &mut pb);
        let classic = run_pcg_threaded(
            &pm,
            &f,
            &pb,
            1e-10,
            1000,
            &ThreadedOpts {
                watchdog: wd,
                faults: plan.clone(),
                trace: tr,
                ..ThreadedOpts::new(4)
            },
        );
        let piped = run_pcg_pipelined_threaded(
            &pm,
            &f,
            &pb,
            1e-10,
            1000,
            &ThreadedOpts {
                watchdog: wd,
                faults: plan.clone(),
                trace: tr,
                ..ThreadedOpts::new(4)
            },
        );
        assert!(classic.converged && piped.converged);
        let cs = classic.trace.as_ref().unwrap().summary();
        let ps = piped.trace.as_ref().unwrap().summary();
        assert_eq!(cs.dropped + ps.dropped, 0, "ring too small for the test");
        let (cd, pd) = (cs.barriers_per_iteration(), ps.barriers_per_iteration());
        assert!(pd <= 2.5, "pipelined PCG barrier density {pd}");
        assert!(pd < cd, "pipelined {pd} not below classic {cd}");
    }

    #[test]
    fn pipelined_repeated_runs_are_consistent() {
        let a = poisson1d(200);
        let m = tiled(&a);
        let mut b = vec![0.0; 200];
        a.matvec(&vec![1.0; 200], &mut b);
        let base = run_cg_pipelined_threaded(&m, &b, 1e-10, 1000, &ThreadedOpts::new(7));
        assert!(base.converged);
        for trial in 0..10 {
            let rep = run_cg_pipelined_threaded(&m, &b, 1e-10, 1000, &ThreadedOpts::new(7));
            assert!(rep.converged, "trial {trial}");
            for (t, s) in rep.x.iter().zip(&base.x) {
                assert_eq!(t.to_bits(), s.to_bits(), "trial {trial}");
            }
        }
    }
}
