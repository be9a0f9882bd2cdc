//! A *real* multi-threaded single-kernel CG engine.
//!
//! Everything else in this crate models GPU time while computing
//! deterministically. This module instead **executes** the paper's
//! Algorithm 3 concurrently: each warp is an OS thread; the only
//! synchronization is the atomic dependency counters (`d_s`, `d_d`, `d_a`
//! of Fig. 6) polled in busy-wait loops — no mutexes, no channels, no
//! barriers from the standard library. It exists to validate that the
//! single-kernel scheme is correct and deadlock-free, which is the paper's
//! central systems claim.
//!
//! One deliberate deviation from the paper's pseudocode: instead of
//! *resetting* the dependency arrays between iterations (Algorithm 3
//! re-initializes them after the Step-D check, which needs a subtle
//! leader/followers protocol to avoid racing the next iteration's
//! decrements), the counters here **count up monotonically** and every
//! barrier waits for an iteration-scaled target (`init·(j+1)`). This is
//! behaviourally identical, race-free by construction, and uses the same
//! number of atomic operations.
//!
//! ## Robustness (deviation from the paper)
//!
//! The paper assumes well-behaved SPD inputs, where the scheme is indeed
//! deadlock-free. On real inputs two extra failure classes appear and both
//! used to wedge the process forever:
//!
//! * **Numerical breakdown** — an indefinite matrix makes `α = rr/pᵀAp`
//!   meaningless (or NaN), the NaN propagates into every vector, and
//!   `relres < tol` is never true again. Both engines now run the same
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
//! The poison flag and the `Mutex`-free failure cells are *failure-path*
//! machinery only: on a healthy solve the per-iteration overhead is one
//! relaxed load per spin poll and one heartbeat check per iteration, and
//! the iterate arithmetic is bitwise-unchanged.
//!
//! ## One entry point per engine
//!
//! Each of the seven engines has exactly one public entry — its own
//! leading arguments plus a [`ThreadedOpts`] — and supplies only its state
//! allocation and its per-warp step bodies. One private launcher owns the
//! glue they share: the poison flag and failure cells, heartbeat arming,
//! the scoped spawn loop with per-warp sync/tracer/fault set-up, the
//! panic guard, the join, and report assembly.
//!
//! Wedge detection is a [`WatchdogPolicy`]: `Disabled`, or the progress
//! heartbeat ([`mf_gpu::Heartbeat`], the default) — every warp publishes a
//! monotone iteration × step position at step boundaries and pulses on
//! every cleared wait/produced tile/solved row, and the solve only fails
//! as [`SolveFailure::Wedged`] when **no** warp has produced a progress
//! event for the interval. Slow-but-healthy schedules therefore never
//! trip it, while a wedged dependency chain (which stops *all* beats)
//! still converts into a structured failure.
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

use crate::config::WatchdogPolicy;
use crate::pipelined::{breakdown_kind, pipeline_scalars};
use crate::report::{
    BreakdownEvent, BreakdownKind, RecoveryAction, RestartPolicy, SolveFailure, WarpProgress,
};
use mf_gpu::{
    BarrierFault, FaultCounts, FaultPlan, Heartbeat, InjectedFaults, RowDeps, SpinFault,
    SpmvSchedule, StepFault, WarpFaults,
};
use mf_kernels::ilu::Ilu0;
use mf_precision::{AdaptiveConfig, RetierDecision};
use mf_sparse::{Csr, TiledMatrix};
use mf_trace::{EventKind, Trace, TraceConfig, WarpTrace, WarpTracer};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;
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
    /// and reports the count as [`ThreadedReport::warps`]. Must be ≥ 1.
    pub warps: usize,
    /// Wedge detection. The default progress heartbeat fails a solve as
    /// [`SolveFailure::Wedged`] only when *no* warp has progressed for the
    /// interval, and fills [`ThreadedReport::last_progress`] with each
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
    /// [`ThreadedReport::trace`]; the in-kernel SpTRSV passes contribute
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

/// Result of a threaded solve.
#[derive(Clone, Debug)]
pub struct ThreadedReport {
    /// Solution.
    pub x: Vec<f64>,
    /// Iterations executed.
    pub iterations: usize,
    /// Converged within tolerance.
    pub converged: bool,
    /// Final relative residual (recurrence; last *finite* value observed).
    pub final_relres: f64,
    /// Warps (threads) used.
    pub warps: usize,
    /// Every breakdown observed, in iteration order (warp 0's trail — the
    /// decisions are deterministic, so every warp records the same one).
    pub breakdowns: Vec<BreakdownEvent>,
    /// Set when the solve terminated abnormally; `None` for converged and
    /// plain out-of-iterations runs.
    pub failure: Option<SolveFailure>,
    /// Recurrence relative residual after each completed (non-breakdown)
    /// iteration, recorded by warp 0 — the threaded counterpart of
    /// [`crate::SolveReport::residual_history`], used by the differential
    /// harness to assert trajectory parity against the sequential oracle.
    pub residual_history: Vec<f64>,
    /// Each warp's last published (iteration, step) position, decoded from
    /// the progress heartbeat. Empty unless the solve ran under
    /// [`WatchdogPolicy::Heartbeat`]; on a `Wedged` failure this names the
    /// step every warp was stuck at.
    pub last_progress: Vec<WarpProgress>,
    /// Fault-injection telemetry: the plan's repro line plus the merged
    /// injection tally. `None` when the solve ran with an empty
    /// [`FaultPlan`] (the normal case).
    pub injected_faults: Option<InjectedFaults>,
    /// Merged event trace ([`mf_trace`]): per-warp ring buffers joined in
    /// deterministic `(iteration, step, warp, seq)` order, with the
    /// breakdown trail appended as epilogue events. `None` unless
    /// [`ThreadedOpts::trace`] is enabled.
    pub trace: Option<Trace>,
    /// Re-tier plans applied by the adaptive precision controller, in
    /// epoch order (warp 0's copy — every warp replicates the identical
    /// controller, so every warp computes the same plans). Empty unless
    /// [`ThreadedOpts::adaptive`] armed a controller on a CG engine. The
    /// differential harness compares these trails verbatim against the
    /// sequential engines'.
    pub retier_trail: Vec<RetierDecision>,
}

impl ThreadedReport {
    /// Table-II style status: `converged`, `max_iter`, or
    /// `aborted(<breakdown>)` naming why the solve stopped early (same
    /// labeling as [`crate::SolveReport::status_label`]).
    pub fn status_label(&self) -> String {
        crate::report::status_label_parts(self.converged, &self.breakdowns, self.failure.as_ref())
    }
}

// Poison codes: why the solve was released early. First writer wins (CAS
// from NONE), every spin loop polls the flag.
const POISON_NONE: i64 = 0;
const POISON_WEDGED: i64 = 1;
const POISON_PANIC: i64 = 2;

// Deterministic-abort codes, set by warp 0 (all warps reach the identical
// decision from shared accumulator reads).
const FAIL_NONE: i64 = 0;
const FAIL_NONFINITE: i64 = 1;
const FAIL_STALLED: i64 = 2;

// ---- Step-name tables ------------------------------------------------------
//
// Each engine calls `WarpSync::step(j, idx)` at the top of every logical
// step; `idx` indexes the engine's table below. The same (iteration, step)
// coordinates address `FaultPlan::with_panic_at`/`with_poison_at` sites and
// decode `ThreadedReport::last_progress`. Step 0 of iteration 0 exists on
// every engine, so a point fault at (w, 0, 0) is engine-portable.

/// Step names of the unpreconditioned CG engine.
pub const CG_STEPS: &[&str] = &["spmv", "dot", "update", "direction"];
/// Step names of the unpreconditioned BiCGSTAB engine.
pub const BICGSTAB_STEPS: &[&str] = &["spmv_p", "svec", "spmv_s", "update", "direction"];
/// Step names of the PCG engine (`init` runs once, before iteration 0).
pub const PCG_STEPS: &[&str] = &["init", "spmv", "update", "precond", "direction"];
/// Step names of the PBiCGSTAB engine.
pub const PBICGSTAB_STEPS: &[&str] = &["precond_p", "spmv_v", "precond_s", "spmv_t", "update"];
/// Step names of the standalone SpTRSV runner.
pub const SPTRSV_STEPS: &[&str] = &["lower", "upper"];
/// Step names of the pipelined CG engine (`init` runs once, before
/// iteration 0; each iteration passes exactly one global barrier, inside
/// `update`).
pub const CG_PIPELINED_STEPS: &[&str] = &["init", "spmv", "scalars", "update"];
/// Step names of the pipelined PCG engine (`init` runs once; each iteration
/// passes two global barriers — after `precond` and inside `update`).
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
}

/// State every warp of one solve shares: the poison flag, the report cells
/// warp 0 writes (iterations, convergence, final residual, deterministic
/// abort with its iteration — first write wins) and the applied re-tier
/// trail.
struct Shared {
    poison: AtomicI64,
    iterations: AtomicI64,
    converged: AtomicI64,
    relres_bits: AtomicU64,
    fail_code: AtomicI64,
    fail_iter: AtomicI64,
    /// Warp 0's applied-plan trail; uncontended (single writer) and read
    /// only after the scope joins.
    retier: Mutex<Vec<RetierDecision>>,
}

impl Shared {
    fn new() -> Shared {
        Shared {
            poison: AtomicI64::new(POISON_NONE),
            iterations: AtomicI64::new(0),
            converged: AtomicI64::new(0),
            relres_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            fail_code: AtomicI64::new(FAIL_NONE),
            fail_iter: AtomicI64::new(0),
            retier: Mutex::new(Vec::new()),
        }
    }

    fn fail(&self, code: i64, iter: i64) {
        if self
            .fail_code
            .compare_exchange(FAIL_NONE, code, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            self.fail_iter.store(iter, Ordering::Release);
        }
    }
}

/// One warp's handle, passed by the launcher to an engine's body: its
/// index, its sync view, the shared cells, and the warp-local trails.
struct Warp<'a> {
    w: usize,
    sync: WarpSync<'a>,
    shared: &'a Shared,
    /// Breakdown trail (every warp records the identical one; warp 0's is
    /// reported).
    events: Vec<BreakdownEvent>,
    /// Warp 0's per-iteration recurrence relres trail (empty elsewhere).
    trail: Vec<f64>,
}

impl Warp<'_> {
    /// Records completed iteration `it` with recurrence residual `relres`;
    /// true once converged — the in-kernel convergence check of
    /// Algorithm 3, identical on every warp.
    fn complete(&mut self, it: i64, relres: f64, tol: f64) -> bool {
        let done = relres < tol;
        if self.w == 0 {
            self.shared.iterations.store(it + 1, Ordering::Release);
            self.shared
                .relres_bits
                .store(relres.to_bits(), Ordering::Release);
            self.trail.push(relres);
            if done {
                self.shared.converged.store(1, Ordering::Release);
            }
        }
        done
    }

    /// Aborts at iteration `it` on a poisoned (non-finite) residual: no
    /// restart can rebuild finite state from it. `final_relres` keeps its
    /// last finite value.
    fn abort_nonfinite(&mut self, it: i64) {
        self.events.push(BreakdownEvent {
            iteration: it as usize,
            kind: BreakdownKind::NonFinite,
            action: RecoveryAction::Aborted,
        });
        if self.w == 0 {
            self.shared.iterations.store(it + 1, Ordering::Release);
            self.shared.fail(FAIL_NONFINITE, it);
        }
    }

    /// Records a breakdown restart at iteration `it` under `restarts` (the
    /// one [`RestartPolicy`]) and returns whether the warp must stop
    /// instead. `relres` is the post-restart residual, kept when finite.
    fn restart(
        &mut self,
        it: i64,
        kind: BreakdownKind,
        restarts: &mut RestartPolicy,
        nonfinite: bool,
        relres: Option<f64>,
    ) -> bool {
        let (action, failure) = restarts.restart(it as usize, !nonfinite);
        self.events.push(BreakdownEvent {
            iteration: it as usize,
            kind,
            action,
        });
        if self.w == 0 {
            self.shared.iterations.store(it + 1, Ordering::Release);
            if let Some(r) = relres.filter(|r| r.is_finite()) {
                self.shared
                    .relres_bits
                    .store(r.to_bits(), Ordering::Release);
            }
            match failure {
                Some(SolveFailure::NonFinite { .. }) => self.shared.fail(FAIL_NONFINITE, it),
                Some(_) => self.shared.fail(FAIL_STALLED, it),
                None => {}
            }
        }
        failure.is_some()
    }

    /// Warp 0 records an applied re-tier plan: one `Retier` trace event
    /// and the report trail entry.
    fn retiered(&self, d: RetierDecision) {
        if self.w == 0 {
            if let Some(t) = self.sync.tracer {
                let (pa, pb) = crate::adaptive::retier_trace_payload(&d);
                t.record(EventKind::Retier, pa, pb);
            }
            if let Ok(mut g) = self.shared.retier.lock() {
                g.push(d);
            }
        }
    }
}

/// What one warp thread hands back through its join handle.
struct WarpOut {
    events: Vec<BreakdownEvent>,
    panic: Option<String>,
    /// Warp 0's per-iteration recurrence relres trail (empty elsewhere).
    trail: Vec<f64>,
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
    events: Vec<BreakdownEvent>,
    trail: Vec<f64>,
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
        events,
        panic,
        trail,
        faults,
        tracer,
    }
}

/// Join-failure fallback: the warp died outside the panic guard.
fn dead_warp() -> WarpOut {
    WarpOut {
        events: Vec::new(),
        panic: Some("warp thread died outside the panic guard".to_string()),
        trail: Vec::new(),
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
/// spawns `lay.warps` scoped threads — each with its sync view, tracer and
/// fault stream — runs `body` on each under a panic guard, joins, and
/// assembles the report with `x` as the solution and `steps` naming the
/// heartbeat positions.
fn launch<F>(
    lay: &Layout,
    opts: &ThreadedOpts,
    steps: &'static [&'static str],
    x: &[AtomicU64],
    body: F,
) -> ThreadedReport
where
    F: Fn(&mut Warp<'_>) -> Result<(), i64> + Sync,
{
    let shared = Shared::new();
    let heartbeat = match opts.watchdog {
        WatchdogPolicy::Disabled => None,
        WatchdogPolicy::Heartbeat(i) => Some(Heartbeat::new(i, lay.warps)),
    };
    let outs: Vec<WarpOut> = crossbeam::scope(|scope| {
        let handles: Vec<_> = (0..lay.warps)
            .map(|w| {
                let (shared, body, hb) = (&shared, &body, heartbeat.as_ref());
                scope.spawn(move |_| {
                    let wf = (!opts.faults.is_empty()).then(|| opts.faults.for_warp(w));
                    let tracer = opts
                        .trace
                        .enabled
                        .then(|| WarpTracer::new(w, opts.trace.capacity_per_warp));
                    let mut warp = Warp {
                        w,
                        sync: WarpSync {
                            poison: &shared.poison,
                            heartbeat: hb,
                            faults: wf.as_ref(),
                            tracer: tracer.as_ref(),
                            warp: w,
                        },
                        shared,
                        events: Vec::new(),
                        trail: Vec::new(),
                    };
                    let result = catch_unwind(AssertUnwindSafe(|| body(&mut warp)));
                    let Warp { events, trail, .. } = warp;
                    let faults = wf.as_ref().map(|f| f.counts()).unwrap_or_default();
                    settle_warp(result, &shared.poison, events, trail, faults, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| dead_warp()))
            .collect()
    })
    .expect("threaded engine scope failed");
    finish_report(
        x,
        lay.warps,
        shared,
        heartbeat.as_ref(),
        steps,
        &opts.faults,
        outs,
    )
}

/// Assembles the report from the shared cells and the per-warp outputs:
/// panics beat the watchdog beat the deterministic aborts, and the host
/// appends the terminal Panic/Watchdog event to warp 0's trail. The
/// heartbeat snapshot is decoded through the engine's step-name table into
/// [`ThreadedReport::last_progress`]; a non-empty plan is echoed as
/// [`InjectedFaults`] telemetry (repro line + merged tally).
fn finish_report(
    x: &[AtomicU64],
    warps: usize,
    shared: Shared,
    heartbeat: Option<&Heartbeat>,
    steps: &'static [&'static str],
    plan: &FaultPlan,
    mut outs: Vec<WarpOut>,
) -> ThreadedReport {
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
    let iterations = shared.iterations.load(Ordering::Acquire) as usize;
    let (mut breakdowns, residual_history) = match outs.first_mut() {
        Some(o) => (std::mem::take(&mut o.events), std::mem::take(&mut o.trail)),
        None => (Vec::new(), Vec::new()),
    };
    let panic_hit = outs
        .iter()
        .enumerate()
        .find_map(|(w, o)| o.panic.as_ref().map(|m| (w, m.clone())));
    let failure = if let Some((warp, message)) = panic_hit {
        breakdowns.push(BreakdownEvent {
            iteration: iterations,
            kind: BreakdownKind::Panic,
            action: RecoveryAction::Aborted,
        });
        Some(SolveFailure::WarpPanic { warp, message })
    } else if shared.poison.load(Ordering::Acquire) == POISON_WEDGED {
        breakdowns.push(BreakdownEvent {
            iteration: iterations,
            kind: BreakdownKind::Watchdog,
            action: RecoveryAction::Aborted,
        });
        Some(SolveFailure::Wedged {
            iteration: iterations,
        })
    } else {
        let iter = shared.fail_iter.load(Ordering::Acquire) as usize;
        match shared.fail_code.load(Ordering::Acquire) {
            FAIL_NONFINITE => Some(SolveFailure::NonFinite { iteration: iter }),
            FAIL_STALLED => Some(SolveFailure::Stalled { iteration: iter }),
            _ => None,
        }
    };
    // Merge the per-warp event streams after the breakdown trail is final,
    // so the epilogue includes the host-appended Panic/Watchdog events.
    let warp_traces: Vec<WarpTrace> = outs
        .iter_mut()
        .filter_map(|o| o.tracer.take())
        .map(|t| t.finish())
        .collect();
    let trace = (!warp_traces.is_empty()).then(|| {
        let mut tr = Trace::merge(warp_traces);
        crate::report::append_breakdown_epilogue(&mut tr, &breakdowns);
        tr
    });
    ThreadedReport {
        x: x.iter().map(ld).collect(),
        iterations,
        converged: shared.converged.load(Ordering::Acquire) == 1,
        final_relres: f64::from_bits(shared.relres_bits.load(Ordering::Acquire)),
        warps,
        breakdowns,
        failure,
        residual_history,
        last_progress,
        injected_faults,
        trace,
        retier_trail: shared
            .retier
            .into_inner()
            .unwrap_or_else(|e| e.into_inner()),
    }
}

/// Entry prologue of the six iterative engines: checks shapes, lays the
/// rows out over warps and answers `b = 0` directly — `x = 0` converges in
/// zero iterations, with an (empty) trace when tracing is on, as in the
/// sequential cores. Returns the layout and `‖b‖₂` otherwise.
fn prologue(
    m: &TiledMatrix,
    ilu: Option<&Ilu0>,
    b: &[f64],
    opts: &ThreadedOpts,
) -> Result<(Layout, f64), Box<ThreadedReport>> {
    let n = m.nrows;
    assert_eq!(b.len(), n);
    assert_eq!(m.nrows, m.ncols);
    if let Some(f) = ilu {
        assert_eq!(f.l.nrows, n);
        assert_eq!(f.u.nrows, n);
    }
    let lay = Layout::for_matrix(m, opts.warps);
    let norm_b: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
    if norm_b != 0.0 {
        return Ok((lay, norm_b));
    }
    Err(Box::new(ThreadedReport {
        x: vec![0.0; n],
        iterations: 0,
        converged: true,
        final_relres: 0.0,
        warps: lay.warps,
        breakdowns: Vec::new(),
        failure: None,
        residual_history: Vec::new(),
        last_progress: Vec::new(),
        injected_faults: None,
        trace: opts.trace.enabled.then(|| Trace {
            warps: lay.warps,
            ..Trace::default()
        }),
        retier_trail: Vec::new(),
    }))
}

/// How an engine's rows are laid out over its warps: segments of `ts`
/// rows, warp `w` owning segments `seg_lo[w]..seg_lo[w + 1]`. `tr_start`
/// holds each tile row's first tile index (tiles are stored sorted by
/// `(tile_row, tile_col)`), padded to `segments + 1` entries so trailing
/// all-zero tile rows own an empty range; it is empty for the SpTRSV
/// runner, which has no tiles.
struct Layout {
    n: usize,
    ts: usize,
    warps: usize,
    seg_lo: Vec<usize>,
    tr_start: Vec<usize>,
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
            tr_start: Vec::new(),
        }
    }

    /// Tile-size segments of `m`. Warp `w` of the owner-computes engines
    /// owns exactly the tiles of its tile rows, so their SpMV needs no
    /// atomics and reproduces `TiledMatrix::matvec`'s per-row summation
    /// order bitwise at any warp count.
    fn for_matrix(m: &TiledMatrix, max_warps: usize) -> Layout {
        let mut lay = Layout::new(m.nrows, m.tile_size, max_warps);
        let segments = lay.segments();
        let mut starts = vec![0usize; segments + 1];
        for &tr in &m.tile_rowidx {
            starts[tr as usize + 1] += 1;
        }
        for s in 0..segments {
            starts[s + 1] += starts[s];
        }
        lay.tr_start = starts;
        lay
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
/// targets `warps·k`, so every path through a loop slot must pass the
/// same number of waits (breakdown paths add stand-in waits).
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

/// The producer/consumer SpMV hand-off of the classic CG and BiCGSTAB
/// engines: one slot per tile-row entry, where the producing warp stores
/// its tile's per-row partial (Release) before bumping the tile row's
/// `d_s` epoch; the segment owner assembles rows from the slots in global
/// tile order, so the sum is identical for every warp count and schedule
/// perturbation.
struct Handoff {
    scratch: Vec<AtomicU64>,
    d_s: Vec<AtomicI64>,
    /// Producers per tile row: epoch `k` of row `s` is complete at
    /// `ds_init[s]·k`.
    ds_init: Vec<i64>,
}

impl Handoff {
    fn new(m: &TiledMatrix) -> Handoff {
        let mut ds_init = vec![0i64; m.tile_rows];
        for &tr in &m.tile_rowidx {
            ds_init[tr as usize] += 1;
        }
        Handoff {
            scratch: zeros(m.row_index.len()),
            d_s: (0..m.tile_rows).map(|_| AtomicI64::new(0)).collect(),
            ds_init,
        }
    }
}

/// `Σ_k vals[k]·input[col_k]` over CSR row `ri` of tile `i` — the one SpMV
/// inner loop every engine runs.
#[inline]
fn row_dot(m: &TiledMatrix, i: usize, vals: &[f64], ri: usize, input: &[AtomicU64]) -> f64 {
    let base_col = m.tile_colidx[i] as usize * m.tile_size;
    let nnz_base = m.tile_nnz[i] as usize;
    let mut sum = 0.0;
    for k in m.csr_rowptr[ri] as usize..m.csr_rowptr[ri + 1] as usize {
        sum += vals[k - nnz_base] * ld(&input[base_col + m.csr_colidx[k] as usize]);
    }
    sum
}

/// One warp's resident tiles, decoded once ("loaded into shared memory")
/// and requantized only by re-tier refresh passes, plus its segments and
/// row accumulator.
struct WarpTiles<'a> {
    m: &'a TiledMatrix,
    lay: &'a Layout,
    sync: WarpSync<'a>,
    segs: Range<usize>,
    tiles: Range<usize>,
    vals: Vec<Vec<f64>>,
    acc: Vec<f64>,
}

impl<'a> WarpTiles<'a> {
    /// The tiles of warp `w`'s own tile rows (owner-computes engines).
    fn owned(m: &'a TiledMatrix, lay: &'a Layout, sync: WarpSync<'a>, w: usize) -> Self {
        let tiles = lay.tr_start[lay.seg_lo[w]]..lay.tr_start[lay.seg_lo[w + 1]];
        Self::load(m, lay, sync, w, tiles)
    }

    /// Warp `w`'s load-balanced share of `spmv` (producer/consumer
    /// engines).
    fn balanced(
        m: &'a TiledMatrix,
        lay: &'a Layout,
        sync: WarpSync<'a>,
        w: usize,
        spmv: &SpmvSchedule,
    ) -> Self {
        let tiles = spmv.warp_tiles.get(w).map_or(0..0, |&(lo, hi)| lo..hi);
        Self::load(m, lay, sync, w, tiles)
    }

    fn load(
        m: &'a TiledMatrix,
        lay: &'a Layout,
        sync: WarpSync<'a>,
        w: usize,
        tiles: Range<usize>,
    ) -> Self {
        WarpTiles {
            m,
            lay,
            sync,
            segs: lay.segs(w),
            vals: tiles.clone().map(|i| m.decode_tile_values(i)).collect(),
            tiles,
            acc: vec![0.0; lay.ts],
        }
    }

    /// Requantizes the resident tiles an applied re-tier plan names, from
    /// a fresh decode (the [`mf_kernels::SharedTiles::retier_tile`] rule).
    fn retier(&mut self, d: &RetierDecision) {
        for (ti, i) in self.tiles.clone().enumerate() {
            if let Some(a) = d.actions.iter().find(|a| a.tile as usize == i) {
                let mut fresh = self.m.decode_tile_values(i);
                a.to.quantize_slice(&mut fresh);
                self.vals[ti] = fresh;
            }
        }
    }

    /// Owner-computes `output = A·input` over this warp's whole tile rows:
    /// local accumulation per segment in global tile order, one plain
    /// store per row — no atomics, no inter-iteration zeroing.
    fn spmv_own(&mut self, input: &[AtomicU64], output: &[AtomicU64]) {
        let (m, lay) = (self.m, self.lay);
        for s in self.segs.clone() {
            let rows = lay.elems(s);
            self.acc[..rows.len()].fill(0.0);
            for i in lay.tr_start[s]..lay.tr_start[s + 1] {
                let vals = &self.vals[i - self.tiles.start];
                for ri in m.nonrow[i] as usize..m.nonrow[i + 1] as usize {
                    self.acc[m.row_index[ri] as usize] += row_dot(m, i, vals, ri, input);
                }
            }
            for (e, v) in rows.zip(&self.acc) {
                st(&output[e], *v);
            }
            self.sync.pulse();
        }
    }

    /// Producer half of one hand-off SpMV epoch: store each of this warp's
    /// tiles' per-row partials of `A·input` (slots keyed by absolute CSR
    /// row id), then bump the tile row's `d_s` epoch (`atomicSub(d_s[...])`
    /// in the paper).
    fn produce(&self, input: &[AtomicU64], h: &Handoff) {
        let m = self.m;
        for (ti, i) in self.tiles.clone().enumerate() {
            for ri in m.nonrow[i] as usize..m.nonrow[i + 1] as usize {
                st(&h.scratch[ri], row_dot(m, i, &self.vals[ti], ri, input));
            }
            h.d_s[m.tile_rowidx[i] as usize].fetch_add(1, Ordering::AcqRel);
            self.sync.pulse();
        }
    }

    /// Stand-in for a skipped producer epoch: bumps each tile's `d_s`
    /// without producing, keeping the epochs aligned.
    fn skip_produce(&self, h: &Handoff) {
        for i in self.tiles.clone() {
            h.d_s[self.m.tile_rowidx[i] as usize].fetch_add(1, Ordering::AcqRel);
        }
    }

    /// Consumer half: once segment `s`'s row tiles have all produced epoch
    /// `epoch`, assemble its rows from the slots in *global tile order*
    /// into `out`.
    fn gather(&mut self, s: usize, h: &Handoff, epoch: i64, out: &[AtomicU64]) -> Result<(), i64> {
        let (m, lay) = (self.m, self.lay);
        if s < h.ds_init.len() {
            self.sync.spin_until(&h.d_s[s], h.ds_init[s] * epoch)?;
        }
        let rows = lay.elems(s);
        self.acc[..rows.len()].fill(0.0);
        for i in lay.tr_start[s]..lay.tr_start[s + 1] {
            for ri in m.nonrow[i] as usize..m.nonrow[i + 1] as usize {
                self.acc[m.row_index[ri] as usize] += ld(&h.scratch[ri]);
            }
        }
        for (e, v) in rows.zip(&self.acc) {
            st(&out[e], *v);
        }
        Ok(())
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
/// through atomic dependency counters. Tiles execute at their stored
/// (initial) precision; the dynamic strategy is not exercised here — this
/// engine validates the *synchronization* scheme.
///
/// Deterministic and warp-count invariant by construction: producers store
/// per-tile-row SpMV partials into a per-entry scratch array (the `d_s`
/// protocol is unchanged), segment owners assemble `u = A p` in global
/// tile order, and every dot product is a per-segment single-writer
/// partial reduced in fixed segment order — no arrival-order atomic adds
/// anywhere. A benign [`ThreadedOpts::faults`] plan therefore cannot
/// change a single bit of the result.
///
/// Reads [`ThreadedOpts::adaptive`]: an applied re-tier plan's refresh
/// pass has the normal pass's exact counter footprint (one `d_s` epoch per
/// tile, two `d_d` epochs, one `d_a` epoch), recomputing `u = A·x` through
/// the normal scratch protocol so segment owners rebuild `r = b − u`,
/// `p = r`, `rr = (r, r)`.
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
pub fn run_cg_threaded(
    m: &TiledMatrix,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    opts: &ThreadedOpts,
) -> ThreadedReport {
    let (lay, norm_b) = match prologue(m, None, b, opts) {
        Ok(setup) => setup,
        Err(done) => return *done,
    };
    let n = lay.n;
    let spmv = SpmvSchedule::for_warps(m, lay.warps);
    // x, r, p are written by the segment owner; u by the segment owner
    // during the gather.
    let (x, r, p, u) = (zeros(n), cells(b), cells(b), zeros(n));
    let h = Handoff::new(m);
    let (d_d, d_a) = (AtomicI64::new(0), AtomicI64::new(0));
    let [seg_y, seg_z, seg_z_bd] = std::array::from_fn(|_| lay.seg_cells());
    let rr0: f64 = b.iter().map(|v| v * v).sum();

    launch(&lay, opts, CG_STEPS, &x, |warp| {
        let sync = warp.sync;
        let (segs, own) = (lay.segs(warp.w), lay.rows(warp.w));
        let mut tiles = WarpTiles::balanced(m, &lay, sync, warp.w, &spmv);
        let (mut dd, mut da) = (
            Barrier::new(&d_d, &lay, sync),
            Barrier::new(&d_a, &lay, sync),
        );
        let mut rr = rr0;
        let mut restarts = RestartPolicy::new(false);
        let mut ctrl = opts
            .adaptive
            .map(|ac| crate::adaptive::controller_for(m, ac));
        let mut pending: Option<RetierDecision> = None;
        // Physical loop slots `j` (barrier epochs) vs completed CG
        // iterations: refresh passes consume a slot without counting as an
        // iteration, so the two diverge only in adaptive runs.
        let mut iters: i64 = 0;
        let mut j: i64 = -1;
        loop {
            j += 1;
            if iters >= max_iter as i64 {
                break;
            }
            sync.iteration_gate()?;
            let it = iters;

            if let Some(d) = pending.take() {
                // ---- Re-tier refresh pass (slot `j`, not an iteration):
                // requantize, u = A·x through the normal scratch protocol,
                // r = b − u, p = r, rr = (r, r); epoch-matching waits leave
                // every counter exactly where a normal pass would.
                sync.step(j, 0)?;
                tiles.retier(&d);
                tiles.produce(&x, &h);
                sync.step(j, 1)?;
                for s in segs.clone() {
                    tiles.gather(s, &h, j + 1, &u)?;
                }
                seg_dot(&lay, segs.clone(), &seg_y, |e| {
                    let rv = b[e] - ld(&u[e]);
                    st(&r[e], rv);
                    st(&p[e], rv);
                    rv * rv
                });
                dd.wait()?;
                rr = seg_total(&seg_y);
                dd.wait()?;
                da.wait()?;
                warp.retiered(d);
                continue;
            }

            // ---- Step A: produce the per-tile-row partials of u = A·p
            // for my (load-balanced) tiles.
            sync.step(j, 0)?;
            tiles.produce(&p, &h);

            // ---- Step B: once a segment's row tiles are all produced,
            // assemble its rows of u and take the (u, p) partial.
            sync.step(j, 1)?;
            for s in segs.clone() {
                tiles.gather(s, &h, j + 1, &u)?;
            }
            seg_dot(&lay, segs.clone(), &seg_y, |e| ld(&u[e]) * ld(&p[e]));
            dd.wait()?;
            let py = seg_total(&seg_y);
            let alpha = rr / py;

            if !alpha.is_finite() || py <= 0.0 {
                // ---- Breakdown: the curvature pᵀAp is not positive (or a
                // scalar went non-finite). Every warp reads the same
                // `py`/`rr`, so every warp is here; the waits below match
                // the normal path exactly. Restart needs rr = (r, r): reuse
                // the second dot barrier for it, then p = r (u needs no
                // zeroing — the Step-B gather overwrites it wholesale).
                let kind = if py.is_finite() && py <= 0.0 {
                    BreakdownKind::Curvature
                } else {
                    BreakdownKind::NonFinite
                };
                seg_dot(&lay, segs.clone(), &seg_z_bd, |e| ld(&r[e]) * ld(&r[e]));
                dd.wait()?;
                let rr_restart = seg_total(&seg_z_bd);
                for e in own.clone() {
                    st(&p[e], ld(&r[e]));
                }
                rr = rr_restart;
                da.wait()?;
                iters = it + 1;
                let relres = rr_restart.max(0.0).sqrt() / norm_b;
                if warp.restart(
                    it,
                    kind,
                    &mut restarts,
                    !rr_restart.is_finite(),
                    Some(relres),
                ) {
                    return Ok(());
                }
                continue;
            }

            // ---- Step C: x += αp, r −= αu, then dot (r, r).
            sync.step(j, 2)?;
            seg_dot(&lay, segs.clone(), &seg_z, |e| {
                st(&x[e], ld(&x[e]) + alpha * ld(&p[e]));
                let rv = ld(&r[e]) - alpha * ld(&u[e]);
                st(&r[e], rv);
                rv * rv
            });
            dd.wait()?;
            let rr_new = seg_total(&seg_z);
            if !rr_new.is_finite() {
                warp.abort_nonfinite(it);
                return Ok(());
            }
            restarts.progressed();
            let beta = rr_new / rr;
            rr = rr_new;

            // ---- Step D: p = r + βp.
            sync.step(j, 3)?;
            for e in own.clone() {
                st(&p[e], ld(&r[e]) + beta * ld(&p[e]));
            }
            da.wait()?;

            let relres = rr_new.max(0.0).sqrt() / norm_b;
            iters = it + 1;
            if warp.complete(it, relres, tol) {
                break;
            }
            // Adaptive hook (after the convergence check, like the
            // sequential cores): every warp arms the same plan; the next
            // slot becomes the refresh pass.
            if let Some(c) = ctrl.as_mut() {
                pending = c.observe(iters as usize, relres, tol);
            }
        }
        Ok(())
    })
}

/// Runs BiCGSTAB on threads synchronized purely through atomic dependency
/// counters — the two-SpMV variant of the single-kernel scheme ("the
/// consolidation applies to BiCGSTAB as well", §III-C). Per iteration the
/// warps pass two row-tile SpMV epochs, three dot barriers (α, ω, β/‖r‖)
/// and two vector barriers (s ready before the second SpMV; p/u/θ ready
/// before the next iteration). Breakdowns (α non-finite, subnormal ρ,
/// ω = 0) run the sequential cores' restart semantics with all barrier
/// epochs kept aligned. Like [`run_cg_threaded`] the SpMV partials go
/// through a per-entry scratch array and every dot is a per-segment
/// single-writer reduction, so the result is bitwise warp-count invariant
/// and immune to benign schedule perturbations.
pub fn run_bicgstab_threaded(
    m: &TiledMatrix,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    opts: &ThreadedOpts,
) -> ThreadedReport {
    let (lay, norm_b) = match prologue(m, None, b, opts) {
        Ok(setup) => setup,
        Err(done) => return *done,
    };
    let n = lay.n;
    let spmv = SpmvSchedule::for_warps(m, lay.warps);
    let (x, r, p) = (zeros(n), cells(b), cells(b));
    let (sv, u, th) = (zeros(n), zeros(n), zeros(n)); // s, µ = A p, θ = A s
    let r0s = b; // shadow residual, immutable
                 // Shared by both SpMV epochs: the dot barrier after each gather
                 // separates a slot's reads from its next writes.
    let h = Handoff::new(m);
    let d_d = AtomicI64::new(0); // three dot barriers per iteration
    let d_b = AtomicI64::new(0); // s-ready barrier
    let d_a = AtomicI64::new(0); // end-of-iteration barrier
    let [seg_denom, seg_ts, seg_tt, seg_rho, seg_rr, seg_rho_bd, seg_rr_bd] =
        std::array::from_fn(|_| lay.seg_cells());
    let rho0: f64 = b.iter().map(|v| v * v).sum();

    launch(&lay, opts, BICGSTAB_STEPS, &x, |warp| {
        let sync = warp.sync;
        let (segs, own) = (lay.segs(warp.w), lay.rows(warp.w));
        let mut tiles = WarpTiles::balanced(m, &lay, sync, warp.w, &spmv);
        let mut dd = Barrier::new(&d_d, &lay, sync);
        let mut db = Barrier::new(&d_b, &lay, sync);
        let mut da = Barrier::new(&d_a, &lay, sync);
        let mut rho = rho0;
        let mut restarts = RestartPolicy::new(false);
        for j in 0..max_iter as i64 {
            sync.iteration_gate()?;

            // ---- µ = A p (first SpMV epoch: targets init·(2j+1)).
            sync.step(j, 0)?;
            tiles.produce(&p, &h);
            for s in segs.clone() {
                tiles.gather(s, &h, 2 * j + 1, &u)?;
            }
            seg_dot(&lay, segs.clone(), &seg_denom, |e| ld(&u[e]) * r0s[e]);
            dd.wait()?;
            let denom = seg_total(&seg_denom);
            let alpha = rho / denom;

            if !alpha.is_finite() || denom.abs() < f64::MIN_POSITIVE {
                // ---- α breakdown. Every warp reads the same denom/ρ, so
                // every warp is here; each skipped step gets a stand-in
                // wait so all epochs stay aligned with the normal path.
                let kind = if !alpha.is_finite() {
                    BreakdownKind::NonFinite
                } else {
                    BreakdownKind::Rho
                };
                tiles.skip_produce(&h); // the skipped second SpMV epoch
                db.wait()?;
                // Restart scalars ρ = (r, r0*) and ‖r‖² at the second dot
                // barrier.
                seg_dots(&lay, segs.clone(), [&seg_rho_bd, &seg_rr_bd], |e| {
                    let rv = ld(&r[e]);
                    [rv * r0s[e], rv * rv]
                });
                dd.wait()?;
                let mut rho_restart = seg_total(&seg_rho_bd);
                let rr = seg_total(&seg_rr_bd);
                if rho_restart.abs() < f64::MIN_POSITIVE {
                    // Orthogonal shadow residual: restart with r0* = r
                    // semantics (sequential restart()).
                    rho_restart = rr;
                }
                // p = r (no zeroing: the gathers overwrite u and θ).
                for e in own.clone() {
                    st(&p[e], ld(&r[e]));
                }
                rho = rho_restart;
                dd.wait()?; // third dot wait keeps the d_d epoch aligned
                da.wait()?;
                let nonfinite = !rho_restart.is_finite() || !rr.is_finite();
                let relres = rr.max(0.0).sqrt() / norm_b;
                if warp.restart(j, kind, &mut restarts, nonfinite, Some(relres)) {
                    return Ok(());
                }
                continue;
            }

            // ---- s = r − αµ on my segments; barrier before SpMV2 (other
            // warps read every segment of s).
            sync.step(j, 1)?;
            for e in own.clone() {
                st(&sv[e], ld(&r[e]) - alpha * ld(&u[e]));
            }
            db.wait()?;

            // ---- θ = A s (second SpMV epoch: targets init·(2j+2)).
            sync.step(j, 2)?;
            tiles.produce(&sv, &h);
            for s in segs.clone() {
                tiles.gather(s, &h, 2 * j + 2, &th)?;
            }
            seg_dots(&lay, segs.clone(), [&seg_ts, &seg_tt], |e| {
                let t = ld(&th[e]);
                [t * ld(&sv[e]), t * t]
            });
            dd.wait()?;
            let tt = seg_total(&seg_tt);
            let omega = if tt > 0.0 {
                seg_total(&seg_ts) / tt
            } else {
                0.0
            };

            // ---- x += αp + ωs; r = s − ωθ; ρ' and ‖r‖² partials.
            sync.step(j, 3)?;
            seg_dots(&lay, segs.clone(), [&seg_rho, &seg_rr], |e| {
                st(&x[e], ld(&x[e]) + alpha * ld(&p[e]) + omega * ld(&sv[e]));
                let rv = ld(&sv[e]) - omega * ld(&th[e]);
                st(&r[e], rv);
                [rv * r0s[e], rv * rv]
            });
            dd.wait()?;
            let rho_new = seg_total(&seg_rho);
            let rr = seg_total(&seg_rr);
            let relres = rr.max(0.0).sqrt() / norm_b;
            if !rr.is_finite() {
                warp.abort_nonfinite(j);
                return Ok(());
            }
            restarts.progressed(); // x and r advanced

            // ---- p = r + β(p − ωµ).
            sync.step(j, 4)?;
            let beta = (rho_new / rho) * (alpha / omega);
            let restart = !beta.is_finite() || omega == 0.0 || rho_new.abs() < f64::MIN_POSITIVE;
            for e in own.clone() {
                let pv = if restart {
                    ld(&r[e])
                } else {
                    ld(&r[e]) + beta * (ld(&p[e]) - omega * ld(&u[e]))
                };
                st(&p[e], pv);
            }
            // Sequential restart() semantics: ρ = (r, r0*) (= rho_new),
            // falling back to ‖r‖² when the shadow correlation is
            // (sub)normal zero.
            rho = if restart && rho_new.abs() < f64::MIN_POSITIVE {
                rr
            } else {
                rho_new
            };
            da.wait()?;

            if warp.complete(j, relres, tol) {
                break;
            }
            if restart {
                warp.events.push(BreakdownEvent {
                    iteration: j as usize,
                    kind: restart_kind(omega, rho_new),
                    action: RecoveryAction::Restarted,
                });
            }
        }
        Ok(())
    })
}

/// Why a BiCGSTAB direction update restarted: ω = 0, then a (sub)normal
/// zero ρ, else a non-finite β.
fn restart_kind(omega: f64, rho_new: f64) -> BreakdownKind {
    if omega == 0.0 {
        BreakdownKind::Omega
    } else if rho_new.abs() < f64::MIN_POSITIVE {
        BreakdownKind::Rho
    } else {
        BreakdownKind::NonFinite
    }
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
pub fn run_ilu_sptrsv_threaded(
    l: &Csr,
    u: &Csr,
    b: &[f64],
    unit_lower: bool,
    unit_upper: bool,
    seg: usize,
    opts: &ThreadedOpts,
) -> ThreadedReport {
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

    let mut rep = launch(&lay, opts, SPTRSV_STEPS, &z, |warp| {
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
        if warp.w == 0 {
            warp.shared.iterations.store(1, Ordering::Release);
            warp.shared.converged.store(1, Ordering::Release);
        }
        Ok(())
    });
    rep.final_relres = 0.0;
    rep
}

/// Runs ILU(0)-preconditioned CG entirely inside the "single kernel":
/// warps cooperate on the forward/backward SpTRSV through per-row
/// [`RowDeps`] epoch counters, busy-waiting on predecessor rows with the
/// poison flag and watchdog polled in every spin (a wedged triangular
/// dependency fails as [`SolveFailure::Wedged`], a panicking warp as
/// [`SolveFailure::WarpPanic`]). Breakdown/restart semantics mirror the
/// sequential `run_pcg` core: non-positive curvature restarts the
/// direction from `p = z`, futile restarts abort as `Stalled`.
///
/// The engine is deterministic *and warp-count invariant by construction*:
/// the SpMV is owner-computes over whole tile rows (no atomic adds, same
/// per-row summation order as [`TiledMatrix::matvec`]), dot products are
/// per-segment single-writer partials reduced in fixed segment order by
/// every warp, and the triangular solves combine each row's entries in
/// CSR order exactly like the sequential kernel. Residual trajectories
/// are therefore bitwise-reproducible across 1..k warps — the property
/// the differential harness in `tests/threaded_parity.rs` locks down.
/// `opts.adaptive` is ignored.
pub fn run_pcg_threaded(
    m: &TiledMatrix,
    ilu: &Ilu0,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    opts: &ThreadedOpts,
) -> ThreadedReport {
    let (lay, norm_b) = match prologue(m, Some(ilu), b, opts) {
        Ok(setup) => setup,
        Err(done) => return *done,
    };
    let n = lay.n;
    let (x, r, p) = (zeros(n), cells(b), zeros(n));
    let (uv, z) = (zeros(n), zeros(n)); // u = A p; preconditioned residual
    let tri = TriSolve::ilu(ilu);
    let bar = AtomicI64::new(0);
    let [seg_pu, seg_rr, seg_rz, seg_rz_bd] = std::array::from_fn(|_| lay.seg_cells());

    launch(&lay, opts, PCG_STEPS, &x, |warp| {
        let sync = warp.sync;
        let (segs, own) = (lay.segs(warp.w), lay.rows(warp.w));
        let mut tiles = WarpTiles::owned(m, &lay, sync, warp.w);
        let mut bar = Barrier::new(&bar, &lay, sync);
        let mut precond = tri.warp(&lay, warp.w, sync);
        let mut restarts = RestartPolicy::new(false);

        // ---- Init: z = M⁻¹ r (r = b), p = z, ρ = (r, z).
        sync.iteration_gate()?;
        sync.step(0, 0)?;
        precond.apply(&r, &z)?;
        seg_dot(&lay, segs.clone(), &seg_rz, |e| {
            let zv = ld(&z[e]);
            st(&p[e], zv);
            ld(&r[e]) * zv
        });
        bar.wait()?; // publishes p and the ρ partials
        let mut rz = seg_total(&seg_rz);

        for j in 0..max_iter as i64 {
            sync.iteration_gate()?;

            // ---- u = A p; curvature pᵀ A p.
            sync.step(j, 1)?;
            tiles.spmv_own(&p, &uv);
            seg_dot(&lay, segs.clone(), &seg_pu, |e| ld(&uv[e]) * ld(&p[e]));
            bar.wait()?;
            let pu = seg_total(&seg_pu);
            let alpha = rz / pu;

            if !alpha.is_finite() || pu <= 0.0 {
                // ---- Breakdown: restart the direction from the current
                // residual (p = z, ρ = (r, z)); identical decision on
                // every warp, barrier counts aligned.
                let kind = if pu.is_finite() && pu <= 0.0 {
                    BreakdownKind::Curvature
                } else {
                    BreakdownKind::NonFinite
                };
                seg_dot(&lay, segs.clone(), &seg_rz_bd, |e| {
                    let zv = ld(&z[e]);
                    st(&p[e], zv);
                    ld(&r[e]) * zv
                });
                bar.wait()?;
                rz = seg_total(&seg_rz_bd);
                if warp.restart(j, kind, &mut restarts, !rz.is_finite(), None) {
                    return Ok(());
                }
                continue;
            }

            // ---- x += αp, r −= αu, ‖r‖² partials.
            sync.step(j, 2)?;
            seg_dot(&lay, segs.clone(), &seg_rr, |e| {
                st(&x[e], ld(&x[e]) + alpha * ld(&p[e]));
                let rv = ld(&r[e]) - alpha * ld(&uv[e]);
                st(&r[e], rv);
                rv * rv
            });
            bar.wait()?;
            let rr = seg_total(&seg_rr);
            if !rr.is_finite() {
                warp.abort_nonfinite(j);
                return Ok(());
            }
            restarts.progressed();

            // ---- z = M⁻¹ r (the barrier above published every segment of
            // r) and ρ' = (r, z).
            sync.step(j, 3)?;
            precond.apply(&r, &z)?;
            seg_dot(&lay, segs.clone(), &seg_rz, |e| ld(&r[e]) * ld(&z[e]));
            bar.wait()?;
            let rz_new = seg_total(&seg_rz);
            let beta = rz_new / rz;
            rz = rz_new;

            // ---- p = z + βp.
            sync.step(j, 4)?;
            for e in own.clone() {
                st(&p[e], ld(&z[e]) + beta * ld(&p[e]));
            }
            if warp.complete(j, rr.max(0.0).sqrt() / norm_b, tol) {
                break;
            }
            if !beta.is_finite() {
                warp.abort_nonfinite(j);
                return Ok(());
            }
            bar.wait()?; // publishes p for the next SpMV
        }
        Ok(())
    })
}

/// Right-preconditioned BiCGSTAB inside the single kernel: two in-kernel
/// SpTRSV applications (`p̂ = M⁻¹p`, `ŝ = M⁻¹s`) and two owner-computes
/// SpMVs per iteration, five barriers on the normal path. Same
/// determinism, dependency-counter, poison and watchdog story as
/// [`run_pcg_threaded`]; breakdown/restart semantics mirror the
/// sequential `run_pbicgstab` core (ρ/ω restarts, `Stalled` abort after
/// futile restarts). `opts.adaptive` is ignored.
pub fn run_pbicgstab_threaded(
    m: &TiledMatrix,
    ilu: &Ilu0,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    opts: &ThreadedOpts,
) -> ThreadedReport {
    let (lay, norm_b) = match prologue(m, Some(ilu), b, opts) {
        Ok(setup) => setup,
        Err(done) => return *done,
    };
    let n = lay.n;
    let (x, r, p) = (zeros(n), cells(b), cells(b));
    let (phat, v) = (zeros(n), zeros(n)); // p̂ = M⁻¹ p, v = A p̂
    let (sv, shat, tv) = (zeros(n), zeros(n), zeros(n)); // s, ŝ = M⁻¹ s, t = A ŝ
    let r0s = b; // shadow residual, immutable
    let tri = TriSolve::ilu(ilu);
    let bar = AtomicI64::new(0);
    let [seg_denom, seg_ts, seg_tt, seg_rho, seg_rr, seg_rho_bd, seg_rr_bd] =
        std::array::from_fn(|_| lay.seg_cells());
    let rho0: f64 = b.iter().map(|v| v * v).sum();

    launch(&lay, opts, PBICGSTAB_STEPS, &x, |warp| {
        let sync = warp.sync;
        let (segs, own) = (lay.segs(warp.w), lay.rows(warp.w));
        let mut tiles = WarpTiles::owned(m, &lay, sync, warp.w);
        let mut bar = Barrier::new(&bar, &lay, sync);
        let mut precond = tri.warp(&lay, warp.w, sync);
        let mut rho = rho0;
        let mut restarts = RestartPolicy::new(false);

        for j in 0..max_iter as i64 {
            sync.iteration_gate()?;

            // ---- p̂ = M⁻¹ p (own rows of p feed the forward solve;
            // cross-warp flow is through the counters).
            sync.step(j, 0)?;
            precond.apply(&p, &phat)?;
            bar.wait()?; // p̂ published for the SpMV

            // ---- v = A p̂; denom = (v, r0*).
            sync.step(j, 1)?;
            tiles.spmv_own(&phat, &v);
            seg_dot(&lay, segs.clone(), &seg_denom, |e| ld(&v[e]) * r0s[e]);
            bar.wait()?;
            let denom = seg_total(&seg_denom);
            let alpha = rho / denom;

            if !alpha.is_finite() || denom.abs() < f64::MIN_POSITIVE {
                // ---- α breakdown: restart with p = r and ρ = (r, r0*)
                // (‖r‖² fallback), as sequential.
                let kind = if !alpha.is_finite() {
                    BreakdownKind::NonFinite
                } else {
                    BreakdownKind::Rho
                };
                seg_dots(&lay, segs.clone(), [&seg_rho_bd, &seg_rr_bd], |e| {
                    let rv = ld(&r[e]);
                    st(&p[e], rv);
                    [rv * r0s[e], rv * rv]
                });
                bar.wait()?;
                let mut rho_restart = seg_total(&seg_rho_bd);
                let rrv = seg_total(&seg_rr_bd);
                if rho_restart.abs() < f64::MIN_POSITIVE {
                    rho_restart = rrv;
                }
                rho = rho_restart;
                let nonfinite = !rho_restart.is_finite() || !rrv.is_finite();
                let relres = rrv.max(0.0).sqrt() / norm_b;
                if warp.restart(j, kind, &mut restarts, nonfinite, Some(relres)) {
                    return Ok(());
                }
                continue;
            }

            // ---- s = r − αv; ŝ = M⁻¹ s.
            sync.step(j, 2)?;
            for e in own.clone() {
                st(&sv[e], ld(&r[e]) - alpha * ld(&v[e]));
            }
            precond.apply(&sv, &shat)?;
            bar.wait()?; // ŝ published for the SpMV

            // ---- t = A ŝ; (t, s) and (t, t).
            sync.step(j, 3)?;
            tiles.spmv_own(&shat, &tv);
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
            let rrv = seg_total(&seg_rr);
            let relres = rrv.max(0.0).sqrt() / norm_b;
            if !rrv.is_finite() {
                warp.abort_nonfinite(j);
                return Ok(());
            }
            restarts.progressed();

            // ---- p = r + β(p − ωv) (or restart p = r).
            let beta = (rho_new / rho) * (alpha / omega);
            let restart = !beta.is_finite() || omega == 0.0 || rho_new.abs() < f64::MIN_POSITIVE;
            for e in own.clone() {
                let pv = if restart {
                    ld(&r[e])
                } else {
                    ld(&r[e]) + beta * (ld(&p[e]) - omega * ld(&v[e]))
                };
                st(&p[e], pv);
            }
            rho = if restart && rho_new.abs() < f64::MIN_POSITIVE {
                rrv
            } else {
                rho_new
            };
            if warp.complete(j, relres, tol) {
                break;
            }
            if restart {
                warp.events.push(BreakdownEvent {
                    iteration: j as usize,
                    kind: restart_kind(omega, rho_new),
                    action: RecoveryAction::Restarted,
                });
            }
        }
        Ok(())
    })
}

// ---- Pipelined engines -----------------------------------------------------
//
// The classic threaded CG passes four synchronization epochs per iteration
// (the per-segment `d_s` waits, two `d_d` dot barriers, one `d_a` vector
// barrier). The pipelined recurrence (see `crate::pipelined`) removes the
// dependency of the SpMV on the current reduction, which lets the whole
// iteration collapse onto ONE global barrier:
//
// * the SpMV is owner-computes over whole tile rows (as in the classic PCG
//   engine), so there is no producer/consumer `d_s` hand-off at all;
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
// so the second classic publish barrier and both extra dot barriers
// disappear. Determinism and warp-count invariance hold for the same
// reasons as the classic engines: owner-computes SpMV in global tile
// order, per-segment single-writer dot partials reduced in fixed segment
// order, and SpTRSV rows combined in CSR order.

/// Runs Ghysels–Vanroose pipelined CG inside the single kernel with ONE
/// global barrier per iteration (the classic engine passes four wait sites;
/// see the module-section comment above for how the collapse works).
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
pub fn run_cg_pipelined_threaded(
    m: &TiledMatrix,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    opts: &ThreadedOpts,
) -> ThreadedReport {
    let (lay, norm_b) = match prologue(m, None, b, opts) {
        Ok(setup) => setup,
        Err(done) => return *done,
    };
    let n = lay.n;
    let (x, r, p) = (zeros(n), cells(b), zeros(n));
    // s = A·p and z = A·s (recurrence), q = A·w (per-iteration SpMV).
    let (s, z, q) = (zeros(n), zeros(n), zeros(n));
    // w = A·r, double-buffered: slot k%2 is the published input of the
    // current iteration, the fused update writes slot (k+1)%2 (k counts
    // successful updates, so a breakdown iteration re-reads the same slot).
    let wbuf = [zeros(n), zeros(n)];
    let bar = AtomicI64::new(0);
    // Dot-partial arrays, double-buffered on the same parity as `w`.
    let seg_gamma = [lay.seg_cells(), lay.seg_cells()];
    let seg_delta = [lay.seg_cells(), lay.seg_cells()];
    // Seeds the recurrence from the current r: w = A·r into parity slot
    // `k`, γ = (r, r), δ = (w, r).
    let reseed = |tiles: &mut WarpTiles<'_>, k: usize| {
        tiles.spmv_own(&r, &wbuf[k]);
        let segs = tiles.segs.clone();
        seg_dots(&lay, segs, [&seg_gamma[k], &seg_delta[k]], |e| {
            let rv = ld(&r[e]);
            [rv * rv, ld(&wbuf[k][e]) * rv]
        });
    };

    launch(&lay, opts, CG_PIPELINED_STEPS, &x, |warp| {
        let sync = warp.sync;
        let (segs, own) = (lay.segs(warp.w), lay.rows(warp.w));
        let mut tiles = WarpTiles::owned(m, &lay, sync, warp.w);
        let mut bar = Barrier::new(&bar, &lay, sync);

        // ---- Init: w = A·r (r = b), γ₀ = (r,r), δ₀ = (w,r).
        sync.iteration_gate()?;
        sync.step(0, 0)?;
        reseed(&mut tiles, 0);
        bar.wait()?; // publishes w and the (γ₀, δ₀) partials

        let mut k = 0usize; // successful updates completed
        let mut gamma_old = 1.0f64;
        let mut alpha_old = 1.0f64;
        let mut fresh = true;
        let mut restarts = RestartPolicy::new(false);
        let mut ctrl = opts
            .adaptive
            .map(|ac| crate::adaptive::controller_for(m, ac));
        let mut pending: Option<RetierDecision> = None;
        let mut iters: i64 = 0;
        let mut j: i64 = -1;
        loop {
            j += 1;
            if iters >= max_iter as i64 {
                break;
            }
            sync.iteration_gate()?;
            let it = iters;
            let s_in = k % 2;
            let s_out = (k + 1) % 2;

            if let Some(d) = pending.take() {
                // ---- Re-tier refresh pass (slot `j`, not an iteration):
                // requantize, rebuild the true residual r = b − A·x
                // (barrier publishes r), reseed the current parity slot
                // (barrier publishes it), then restart the direction stack.
                sync.step(j, 1)?;
                tiles.retier(&d);
                tiles.spmv_own(&x, &q);
                for e in own.clone() {
                    st(&r[e], b[e] - ld(&q[e]));
                }
                bar.wait()?;
                sync.step(j, 3)?;
                reseed(&mut tiles, s_in);
                bar.wait()?;
                fresh = true;
                warp.retiered(d);
                continue;
            }

            // ---- q = A·w: reads the slot the last barrier published;
            // never races the updates, which write the other slot.
            sync.step(j, 1)?;
            tiles.spmv_own(&wbuf[s_in], &q);

            // ---- Scalars from the published reduction — identical on
            // every warp (fixed segment order).
            sync.step(j, 2)?;
            let gamma = seg_total(&seg_gamma[s_in]);
            let delta = seg_total(&seg_delta[s_in]);
            let (beta, alpha, denom) = pipeline_scalars(fresh, gamma, gamma_old, delta, alpha_old);
            if let Some(kind) = breakdown_kind(alpha, denom) {
                // Flag-only restart: β = 0 next iteration rebuilds p, s, z
                // wholesale; the parities do not flip, so the same (γ, δ)
                // and the same w slot are re-read. One barrier keeps the
                // epoch count aligned with the normal path.
                fresh = true;
                bar.wait()?;
                iters = it + 1;
                let relres = gamma.max(0.0).sqrt() / norm_b;
                if warp.restart(it, kind, &mut restarts, !gamma.is_finite(), Some(relres)) {
                    return Ok(());
                }
                continue;
            }
            restarts.progressed();

            // ---- Fused six-vector update + next dot partials (elementwise
            // order matches blas1::cg_pipelined_update exactly, so the
            // drift envelope is shared).
            sync.step(j, 3)?;
            seg_dots(
                &lay,
                segs.clone(),
                [&seg_gamma[s_out], &seg_delta[s_out]],
                |e| {
                    let wv = ld(&wbuf[s_in][e]);
                    let qv = ld(&q[e]);
                    let pv = ld(&r[e]) + beta * ld(&p[e]);
                    st(&p[e], pv);
                    let sv = wv + beta * ld(&s[e]);
                    st(&s[e], sv);
                    let zv = qv + beta * ld(&z[e]);
                    st(&z[e], zv);
                    st(&x[e], ld(&x[e]) + alpha * pv);
                    let rv = ld(&r[e]) - alpha * sv;
                    st(&r[e], rv);
                    let wn = wv - alpha * zv;
                    st(&wbuf[s_out][e], wn);
                    [rv * rv, wn * rv]
                },
            );
            bar.wait()?; // THE barrier: publishes w' + (γ', δ')

            k += 1;
            gamma_old = gamma;
            alpha_old = alpha;
            fresh = false;

            let gamma_new = seg_total(&seg_gamma[s_out]);
            if !gamma_new.is_finite() {
                warp.abort_nonfinite(it);
                return Ok(());
            }
            let relres = gamma_new.max(0.0).sqrt() / norm_b;
            iters = it + 1;
            if warp.complete(it, relres, tol) {
                break;
            }
            // Adaptive hook (after the convergence check, like the
            // sequential cores): every warp arms the same plan; the next
            // slot becomes the refresh pass.
            if let Some(c) = ctrl.as_mut() {
                pending = c.observe(iters as usize, relres, tol);
            }
        }
        Ok(())
    })
}

/// Runs Ghysels–Vanroose pipelined PCG inside the single kernel with TWO
/// global barriers per iteration (the classic engine passes four): one
/// publishes `m = M⁻¹w` for the SpMV, one publishes the fused dot partials.
/// The in-kernel SpTRSV, poison/watchdog and fault-injection machinery are
/// identical to [`run_pcg_threaded`]; breakdown semantics mirror
/// [`crate::pipelined::run_pcg_pipelined`]. `opts.adaptive` is ignored.
pub fn run_pcg_pipelined_threaded(
    m: &TiledMatrix,
    ilu: &Ilu0,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    opts: &ThreadedOpts,
) -> ThreadedReport {
    let (lay, norm_b) = match prologue(m, Some(ilu), b, opts) {
        Ok(setup) => setup,
        Err(done) => return *done,
    };
    let n = lay.n;
    let (x, r, p) = (zeros(n), cells(b), zeros(n));
    // Recurrences s = A·p, q = M⁻¹s, z = A·q; u = M⁻¹r.
    let (s, q, zz, u) = (zeros(n), zeros(n), zeros(n), zeros(n));
    let wv = zeros(n); // w = A·u — warp-private (own rows only)
    let mv = zeros(n); // m = M⁻¹w — the one cross-warp vector
    let nv = zeros(n); // n = A·m
    let tri = TriSolve::ilu(ilu);
    let bar = AtomicI64::new(0);
    let seg_gamma = [lay.seg_cells(), lay.seg_cells()];
    let seg_delta = [lay.seg_cells(), lay.seg_cells()];
    let seg_rho = [lay.seg_cells(), lay.seg_cells()];

    launch(&lay, opts, PCG_PIPELINED_STEPS, &x, |warp| {
        let sync = warp.sync;
        let segs = lay.segs(warp.w);
        let mut tiles = WarpTiles::owned(m, &lay, sync, warp.w);
        let mut bar = Barrier::new(&bar, &lay, sync);
        let mut precond = tri.warp(&lay, warp.w, sync);

        // ---- Init: u = M⁻¹r (r = b), then w = A·u, γ₀ = (r,u),
        // δ₀ = (w,u), ρ₀ = (r,r).
        sync.iteration_gate()?;
        sync.step(0, 0)?;
        precond.apply(&r, &u)?;
        bar.wait()?; // publishes u for the SpMV
        tiles.spmv_own(&u, &wv);
        let init: [&[AtomicU64]; 3] = [&seg_gamma[0], &seg_delta[0], &seg_rho[0]];
        seg_dots(&lay, segs.clone(), init, |e| {
            let rv = ld(&r[e]);
            let uv = ld(&u[e]);
            [rv * uv, ld(&wv[e]) * uv, rv * rv]
        });
        bar.wait()?; // publishes the (γ₀, δ₀, ρ₀) partials

        let mut k = 0usize;
        let mut gamma_old = 1.0f64;
        let mut alpha_old = 1.0f64;
        let mut fresh = true;
        let mut restarts = RestartPolicy::new(false);

        for j in 0..max_iter as i64 {
            sync.iteration_gate()?;
            let s_in = k % 2;
            let s_out = (k + 1) % 2;

            // ---- m = M⁻¹w (w is warp-private: the SpTRSV rhs reads own
            // rows only).
            sync.step(j, 1)?;
            precond.apply(&wv, &mv)?;
            bar.wait()?; // barrier 1 of 2: publishes m

            // ---- n = A·m.
            sync.step(j, 2)?;
            tiles.spmv_own(&mv, &nv);

            // ---- Scalars from the published reduction.
            sync.step(j, 3)?;
            let gamma = seg_total(&seg_gamma[s_in]);
            let delta = seg_total(&seg_delta[s_in]);
            let (beta, alpha, denom) = pipeline_scalars(fresh, gamma, gamma_old, delta, alpha_old);
            if let Some(kind) = breakdown_kind(alpha, denom) {
                // Flag-only restart, as in pipelined CG; the second
                // barrier keeps the epoch count aligned.
                fresh = true;
                bar.wait()?;
                let relres = seg_total(&seg_rho[s_in]).max(0.0).sqrt() / norm_b;
                if warp.restart(j, kind, &mut restarts, !gamma.is_finite(), Some(relres)) {
                    return Ok(());
                }
                continue;
            }
            restarts.progressed();

            // ---- Fused eight-vector update + next dot partials
            // (elementwise order matches blas1::pcg_pipelined_update).
            sync.step(j, 4)?;
            let next: [&[AtomicU64]; 3] = [&seg_gamma[s_out], &seg_delta[s_out], &seg_rho[s_out]];
            seg_dots(&lay, segs.clone(), next, |e| {
                let mvv = ld(&mv[e]);
                let nvv = ld(&nv[e]);
                let uo = ld(&u[e]);
                let wo = ld(&wv[e]);
                let pv = uo + beta * ld(&p[e]);
                st(&p[e], pv);
                let sv = wo + beta * ld(&s[e]);
                st(&s[e], sv);
                let qv = mvv + beta * ld(&q[e]);
                st(&q[e], qv);
                let zv = nvv + beta * ld(&zz[e]);
                st(&zz[e], zv);
                st(&x[e], ld(&x[e]) + alpha * pv);
                let rv = ld(&r[e]) - alpha * sv;
                st(&r[e], rv);
                let un = uo - alpha * qv;
                st(&u[e], un);
                let wn = wo - alpha * zv;
                st(&wv[e], wn);
                [rv * un, wn * un, rv * rv]
            });
            bar.wait()?; // barrier 2 of 2: publishes the partials

            k += 1;
            gamma_old = gamma;
            alpha_old = alpha;
            fresh = false;

            let rho_new = seg_total(&seg_rho[s_out]);
            if !rho_new.is_finite() {
                warp.abort_nonfinite(j);
                return Ok(());
            }
            if warp.complete(j, rho_new.max(0.0).sqrt() / norm_b, tol) {
                break;
            }
        }
        Ok(())
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
    type Engine = fn(&TiledMatrix, &[f64], f64, usize, &ThreadedOpts) -> ThreadedReport;

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
    type Entry = fn(&Fixture, &[f64], &ThreadedOpts) -> ThreadedReport;

    fn all_engines() -> [(&'static str, Entry, &'static [&'static str]); 7] {
        [
            (
                "cg",
                |x, b, o| run_cg_threaded(&x.m, b, 1e-10, 1000, o),
                CG_STEPS,
            ),
            (
                "bicgstab",
                |x, b, o| run_bicgstab_threaded(&x.m, b, 1e-10, 1000, o),
                BICGSTAB_STEPS,
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
                CG_PIPELINED_STEPS,
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
                clean.injected_faults.is_none(),
                "{name}: empty plan → no telemetry"
            );
            assert!(clean.trace.is_none(), "{name}: tracing defaults off");
            assert_eq!(clean.last_progress.len(), clean.warps, "{name}");
            assert!(
                clean.last_progress.iter().all(|p| steps.contains(&p.step)),
                "{name}: {:?}",
                clean.last_progress
            );

            let faulted = ThreadedOpts {
                faults: plan.clone(),
                ..ThreadedOpts::new(3)
            };
            let rep = run(&fx, &b, &faulted);
            assert!(rep.converged, "{name}");
            let inj = rep.injected_faults.expect("non-empty plan → telemetry");
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
                rep.last_progress.is_empty(),
                "{name}: no heartbeat → no progress"
            );

            // b = 0: x = 0 immediately, and the trace still comes back
            // (like the sequential cores).
            let rep = run(&fx, &vec![0.0; 96], &traced);
            assert!(rep.converged, "{name}");
            assert!(rep.x.iter().all(|&v| v == 0.0), "{name}");
            let tr = rep.trace.expect("b = 0 keeps the trace");
            assert_eq!(tr.warps, rep.warps, "{name}");
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
        assert_eq!(rep.warps, 8);
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
        let rep_s = solver.solve_cg(&a, &b);
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
        assert_eq!(rep.warps, 1);
    }

    #[test]
    fn many_warps_capped_by_segments() {
        let a = poisson1d(64); // 4 segments of 16
        let m = tiled(&a);
        let mut b = vec![0.0; 64];
        a.matvec(&vec![1.0; 64], &mut b);
        let rep = run_cg_threaded(&m, &b, 1e-10, 1000, &ThreadedOpts::new(64));
        assert_eq!(rep.warps, 4);
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
        assert_eq!(rep.warps, 1);
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
        let inj = rep.injected_faults.expect("non-empty plan → telemetry");
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

    /// The tentpole claim, measured: the classic CG passes ~4 synchronization
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
