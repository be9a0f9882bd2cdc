//! Deterministic, seed-reproducible fault injection for the single-kernel
//! dependency protocol.
//!
//! The threaded engines in `mf-solver` coordinate warps exclusively through
//! monotone atomic counters (barrier epochs and `RowDeps`). Their determinism
//! and liveness claims quantify over *all* schedules, but the host OS only
//! ever produces a few. A [`FaultPlan`] closes that gap: it perturbs the
//! schedule at the protocol's own synchronization sites — spin polls,
//! barrier entries, step boundaries — in a way that is
//!
//! * **deterministic**: every warp derives its own [splitmix64] stream from
//!   `seed`, so a failing combination replays exactly;
//! * **reproducible from the report**: the plan's `Display` form is a pure
//!   Rust builder expression, echoed in failure output as a repro line;
//! * **free when absent**: engines hold `Option<&WarpFaults>` and an empty
//!   plan never constructs one, so fault-free solves pay a single branch.
//!
//! Two fault families exist. *Benign* perturbations (delays, yields,
//! stalls, retry storms) skew the schedule without violating the protocol;
//! the engines must produce **bitwise identical** results under them.
//! *Malign* faults (panic, poison, halt) break a warp outright; the engines
//! must convert them into structured failures within the heartbeat bound —
//! never a hang.
//!
//! [splitmix64]: https://prng.di.unimi.it/splitmix64.c

use std::cell::Cell;
use std::fmt;
use std::time::Duration;

/// Probability knobs are expressed in per-mille (0..=1000) so plans stay
/// integer-literal and hash-stable across platforms.
pub const PER_MILLE: u64 = 1000;

/// Per-spin-poll delay injection: with probability `per_mille`/1000, burn
/// a random 1..=`max_spins` `spin_loop` hints before re-polling.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DelaySpec {
    /// Injection probability per poll, in per-mille.
    pub per_mille: u16,
    /// Upper bound on the injected busy-spin length.
    pub max_spins: u32,
}

/// Per-spin-poll yield injection: with probability `per_mille`/1000 the
/// polling thread calls `yield_now`, handing the core to another warp.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct YieldSpec {
    /// Injection probability per poll, in per-mille.
    pub per_mille: u16,
}

/// Bounded stall at barrier entries: every `period`-th wait the warp
/// enters, it sleeps (busy, poison-aware) for `micros` microseconds before
/// starting to poll.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StallSpec {
    /// Stall every `period`-th barrier entry (1 = every entry).
    pub period: u32,
    /// Stall length in microseconds.
    pub micros: u64,
}

/// Forced epoch-retry storm: every `period`-th barrier entry, the warp
/// re-reads the dependency counter `extra_polls` extra times even after it
/// is satisfied, amplifying the acquire-load traffic the protocol must
/// tolerate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryStormSpec {
    /// Storm every `period`-th barrier entry (1 = every entry).
    pub period: u32,
    /// Number of redundant counter reads injected.
    pub extra_polls: u32,
}

/// A (warp, iteration, step) coordinate for the point faults.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SiteSpec {
    /// Warp index the fault fires on.
    pub warp: usize,
    /// Iteration the fault fires at.
    pub iteration: usize,
    /// Step index within the iteration (engine-specific; see the engine's
    /// step-name table).
    pub step: usize,
}

/// Halts warps dead: after `after_barriers` barrier entries the warp stops
/// making progress forever (it still polls the poison flag and the
/// watchdog so the run can be reaped). `warp: None` halts every warp —
/// the canonical "wedge the whole solve" plan for watchdog tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HaltSpec {
    /// Which warp to halt, or `None` for all of them.
    pub warp: Option<usize>,
    /// Number of barrier entries the warp survives before halting.
    pub after_barriers: u32,
}

/// The injectable fault kinds, for test matrices that iterate over them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Benign: per-poll busy-spin delays ([`DelaySpec`]).
    Delay,
    /// Benign: per-poll scheduler yields ([`YieldSpec`]).
    Yield,
    /// Benign: bounded barrier-entry stalls ([`StallSpec`]).
    Stall,
    /// Benign: redundant epoch re-polls ([`RetryStormSpec`]).
    RetryStorm,
    /// Malign: panic at a chosen (warp, iteration, step) ([`SiteSpec`]).
    Panic,
    /// Malign: poison the run at a chosen site ([`SiteSpec`]).
    Poison,
    /// Malign: halt warps after N barrier entries ([`HaltSpec`]).
    Halt,
}

impl FaultKind {
    /// Every fault kind, in declaration order.
    pub const ALL: [FaultKind; 7] = [
        FaultKind::Delay,
        FaultKind::Yield,
        FaultKind::Stall,
        FaultKind::RetryStorm,
        FaultKind::Panic,
        FaultKind::Poison,
        FaultKind::Halt,
    ];

    /// Whether plans of this kind must leave results bitwise unchanged.
    pub fn is_benign(self) -> bool {
        matches!(
            self,
            FaultKind::Delay | FaultKind::Yield | FaultKind::Stall | FaultKind::RetryStorm
        )
    }
}

/// A deterministic schedule-perturbation plan.
///
/// Build one with [`FaultPlan::seeded`] plus the `with_*` combinators; an
/// empty (default) plan is a guaranteed no-op. The `Display` form is a
/// compilable builder expression — paste it from a failure report to
/// replay the exact perturbation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of the per-warp splitmix64 streams.
    pub seed: u64,
    /// Per-poll delay injection.
    pub delay: Option<DelaySpec>,
    /// Per-poll yield injection.
    pub yields: Option<YieldSpec>,
    /// Barrier-entry stalls.
    pub stall: Option<StallSpec>,
    /// Barrier-entry retry storms.
    pub retry_storm: Option<RetryStormSpec>,
    /// Panic at a (warp, iteration, step) site.
    pub panic_at: Option<SiteSpec>,
    /// Poison at a (warp, iteration, step) site.
    pub poison_at: Option<SiteSpec>,
    /// Halt warps after N barrier entries.
    pub halt: Option<HaltSpec>,
}

impl FaultPlan {
    /// An empty plan with an RNG seed (faults added via `with_*`).
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Adds per-poll busy-spin delays.
    pub fn with_delay(mut self, per_mille: u16, max_spins: u32) -> FaultPlan {
        self.delay = Some(DelaySpec {
            per_mille,
            max_spins: max_spins.max(1),
        });
        self
    }

    /// Adds per-poll scheduler yields.
    pub fn with_yield(mut self, per_mille: u16) -> FaultPlan {
        self.yields = Some(YieldSpec { per_mille });
        self
    }

    /// Adds a stall of `micros` µs on every `period`-th barrier entry.
    pub fn with_stall(mut self, period: u32, micros: u64) -> FaultPlan {
        self.stall = Some(StallSpec {
            period: period.max(1),
            micros,
        });
        self
    }

    /// Adds a retry storm of `extra_polls` redundant counter reads on
    /// every `period`-th barrier entry.
    pub fn with_retry_storm(mut self, period: u32, extra_polls: u32) -> FaultPlan {
        self.retry_storm = Some(RetryStormSpec {
            period: period.max(1),
            extra_polls,
        });
        self
    }

    /// Panics `warp` when it reaches (`iteration`, `step`).
    pub fn with_panic_at(mut self, warp: usize, iteration: usize, step: usize) -> FaultPlan {
        self.panic_at = Some(SiteSpec {
            warp,
            iteration,
            step,
        });
        self
    }

    /// Poisons the run when `warp` reaches (`iteration`, `step`).
    pub fn with_poison_at(mut self, warp: usize, iteration: usize, step: usize) -> FaultPlan {
        self.poison_at = Some(SiteSpec {
            warp,
            iteration,
            step,
        });
        self
    }

    /// Halts `warp` (or all warps, for `None`) after `after_barriers`
    /// barrier entries.
    pub fn with_halt(mut self, warp: Option<usize>, after_barriers: u32) -> FaultPlan {
        self.halt = Some(HaltSpec {
            warp,
            after_barriers,
        });
        self
    }

    /// Whether the plan injects nothing (engines skip hook construction).
    pub fn is_empty(&self) -> bool {
        self.delay.is_none()
            && self.yields.is_none()
            && self.stall.is_none()
            && self.retry_storm.is_none()
            && self.panic_at.is_none()
            && self.poison_at.is_none()
            && self.halt.is_none()
    }

    /// The fault kinds this plan injects, in [`FaultKind::ALL`] order.
    pub fn kinds(&self) -> Vec<FaultKind> {
        let mut out = Vec::new();
        if self.delay.is_some() {
            out.push(FaultKind::Delay);
        }
        if self.yields.is_some() {
            out.push(FaultKind::Yield);
        }
        if self.stall.is_some() {
            out.push(FaultKind::Stall);
        }
        if self.retry_storm.is_some() {
            out.push(FaultKind::RetryStorm);
        }
        if self.panic_at.is_some() {
            out.push(FaultKind::Panic);
        }
        if self.poison_at.is_some() {
            out.push(FaultKind::Poison);
        }
        if self.halt.is_some() {
            out.push(FaultKind::Halt);
        }
        out
    }

    /// Materializes the per-warp view for warp `w`: an independent RNG
    /// stream plus copies of the relevant specs.
    pub fn for_warp(&self, w: usize) -> WarpFaults {
        let stream = self
            .seed
            .wrapping_add((w as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        WarpFaults {
            warp: w,
            rng: Cell::new(stream),
            delay: self.delay,
            yields: self.yields,
            stall: self.stall,
            retry_storm: self.retry_storm,
            panic_at: self.panic_at.filter(|s| s.warp == w),
            poison_at: self.poison_at.filter(|s| s.warp == w),
            halt_after: self
                .halt
                .filter(|h| h.warp.is_none() || h.warp == Some(w))
                .map(|h| h.after_barriers),
            barriers_entered: Cell::new(0),
            counts: Cell::new(FaultCounts::default()),
        }
    }
}

impl fmt::Display for FaultPlan {
    /// Emits a compilable builder expression — the repro line.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FaultPlan::seeded({})", self.seed)?;
        if let Some(d) = self.delay {
            write!(f, ".with_delay({}, {})", d.per_mille, d.max_spins)?;
        }
        if let Some(y) = self.yields {
            write!(f, ".with_yield({})", y.per_mille)?;
        }
        if let Some(s) = self.stall {
            write!(f, ".with_stall({}, {})", s.period, s.micros)?;
        }
        if let Some(r) = self.retry_storm {
            write!(f, ".with_retry_storm({}, {})", r.period, r.extra_polls)?;
        }
        if let Some(p) = self.panic_at {
            write!(f, ".with_panic_at({}, {}, {})", p.warp, p.iteration, p.step)?;
        }
        if let Some(p) = self.poison_at {
            write!(
                f,
                ".with_poison_at({}, {}, {})",
                p.warp, p.iteration, p.step
            )?;
        }
        if let Some(h) = self.halt {
            match h.warp {
                Some(w) => write!(f, ".with_halt(Some({}), {})", w, h.after_barriers)?,
                None => write!(f, ".with_halt(None, {})", h.after_barriers)?,
            }
        }
        Ok(())
    }
}

/// What a spin-poll site should do before re-reading its counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpinFault {
    /// Poll normally.
    None,
    /// Burn this many `spin_loop` hints first.
    Delay(u32),
    /// Call `yield_now` first.
    Yield,
}

/// What a barrier-entry site should do before starting to wait.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BarrierFault {
    /// Enter normally.
    None,
    /// Busy-sleep this long first (poison-aware at the call site).
    Stall(Duration),
    /// Re-read the counter this many redundant times.
    Retry(u32),
    /// Stop making progress forever (poll poison/watchdog only).
    Halt,
}

impl BarrierFault {
    /// Stable numeric code carried by trace `Fault` events (0 = no fault;
    /// codes are disjoint from [`StepFault::trace_code`]).
    pub fn trace_code(self) -> u64 {
        match self {
            BarrierFault::None => 0,
            BarrierFault::Stall(_) => 1,
            BarrierFault::Retry(_) => 2,
            BarrierFault::Halt => 3,
        }
    }
}

/// What a step boundary should do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepFault {
    /// Proceed.
    None,
    /// Panic this warp.
    Panic,
    /// Poison the run (warp sets the shared wedge flag and exits).
    Poison,
}

impl StepFault {
    /// Stable numeric code carried by trace `Fault` events (0 = no fault;
    /// codes are disjoint from [`BarrierFault::trace_code`]).
    pub fn trace_code(self) -> u64 {
        match self {
            StepFault::None => 0,
            StepFault::Panic => 4,
            StepFault::Poison => 5,
        }
    }
}

/// Tally of faults actually injected, per warp — merged into
/// `InjectedFaults` on the report so tests can assert the perturbation
/// really happened.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Busy-spin delays injected.
    pub delays: u64,
    /// Scheduler yields injected.
    pub yields: u64,
    /// Barrier stalls injected.
    pub stalls: u64,
    /// Retry storms injected.
    pub retries: u64,
    /// Warps halted.
    pub halts: u64,
    /// Panics fired.
    pub panics: u64,
    /// Poisons fired.
    pub poisons: u64,
}

impl FaultCounts {
    /// Element-wise sum (for merging per-warp tallies).
    pub fn merge(self, o: FaultCounts) -> FaultCounts {
        FaultCounts {
            delays: self.delays + o.delays,
            yields: self.yields + o.yields,
            stalls: self.stalls + o.stalls,
            retries: self.retries + o.retries,
            halts: self.halts + o.halts,
            panics: self.panics + o.panics,
            poisons: self.poisons + o.poisons,
        }
    }

    /// Total injected events of any kind.
    pub fn total(self) -> u64 {
        self.delays
            + self.yields
            + self.stalls
            + self.retries
            + self.halts
            + self.panics
            + self.poisons
    }
}

/// Fault telemetry attached to a report produced under a non-empty plan:
/// the repro line plus the merged injection tally.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InjectedFaults {
    /// `FaultPlan` repro line (its `Display` form).
    pub plan: String,
    /// Merged per-warp injection counts.
    pub counts: FaultCounts,
}

/// One warp's materialized view of a [`FaultPlan`]: private RNG stream,
/// spec copies, and injection tallies. Lives on the warp's own stack; all
/// interior mutability is `Cell` (never shared across threads).
#[derive(Debug)]
pub struct WarpFaults {
    warp: usize,
    rng: Cell<u64>,
    delay: Option<DelaySpec>,
    yields: Option<YieldSpec>,
    stall: Option<StallSpec>,
    retry_storm: Option<RetryStormSpec>,
    panic_at: Option<SiteSpec>,
    poison_at: Option<SiteSpec>,
    halt_after: Option<u32>,
    barriers_entered: Cell<u32>,
    counts: Cell<FaultCounts>,
}

impl WarpFaults {
    /// The warp this view belongs to.
    pub fn warp(&self) -> usize {
        self.warp
    }

    /// splitmix64 step.
    fn next(&self) -> u64 {
        let mut z = self.rng.get().wrapping_add(0x9E37_79B9_7F4A_7C15);
        self.rng.set(z);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn roll(&self, per_mille: u16) -> bool {
        self.next() % PER_MILLE < u64::from(per_mille)
    }

    fn bump(&self, f: impl FnOnce(&mut FaultCounts)) {
        let mut c = self.counts.get();
        f(&mut c);
        self.counts.set(c);
    }

    /// Hook for every spin-poll: maybe delay or yield before re-reading.
    pub fn poll(&self) -> SpinFault {
        if let Some(d) = self.delay {
            if self.roll(d.per_mille) {
                self.bump(|c| c.delays += 1);
                return SpinFault::Delay((self.next() % u64::from(d.max_spins)) as u32 + 1);
            }
        }
        if let Some(y) = self.yields {
            if self.roll(y.per_mille) {
                self.bump(|c| c.yields += 1);
                return SpinFault::Yield;
            }
        }
        SpinFault::None
    }

    /// Hook for every barrier/wait entry: maybe stall, storm, or halt.
    /// Halt dominates (once the entry count passes the threshold the warp
    /// never comes back), then stall, then retry storm.
    pub fn barrier_entry(&self) -> BarrierFault {
        let n = self.barriers_entered.get() + 1;
        self.barriers_entered.set(n);
        if let Some(after) = self.halt_after {
            if n > after {
                self.bump(|c| c.halts += 1);
                return BarrierFault::Halt;
            }
        }
        if let Some(s) = self.stall {
            if n.is_multiple_of(s.period) {
                self.bump(|c| c.stalls += 1);
                return BarrierFault::Stall(Duration::from_micros(s.micros));
            }
        }
        if let Some(r) = self.retry_storm {
            if n.is_multiple_of(r.period) {
                self.bump(|c| c.retries += 1);
                return BarrierFault::Retry(r.extra_polls);
            }
        }
        BarrierFault::None
    }

    /// Hook for step boundaries: fire the point faults.
    pub fn step_fault(&self, iteration: usize, step: usize) -> StepFault {
        if let Some(p) = self.panic_at {
            if p.iteration == iteration && p.step == step {
                self.bump(|c| c.panics += 1);
                return StepFault::Panic;
            }
        }
        if let Some(p) = self.poison_at {
            if p.iteration == iteration && p.step == step {
                self.bump(|c| c.poisons += 1);
                return StepFault::Poison;
            }
        }
        StepFault::None
    }

    /// The injection tally so far.
    pub fn counts(&self) -> FaultCounts {
        self.counts.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty_and_displays_seed_only() {
        let p = FaultPlan::default();
        assert!(p.is_empty());
        assert!(p.kinds().is_empty());
        assert_eq!(p.to_string(), "FaultPlan::seeded(0)");
    }

    #[test]
    fn display_is_a_builder_roundtrip() {
        let p = FaultPlan::seeded(42)
            .with_delay(300, 64)
            .with_yield(250)
            .with_stall(5, 300)
            .with_retry_storm(3, 256)
            .with_panic_at(0, 2, 1)
            .with_poison_at(1, 0, 0)
            .with_halt(Some(2), 7);
        assert_eq!(
            p.to_string(),
            "FaultPlan::seeded(42).with_delay(300, 64).with_yield(250)\
             .with_stall(5, 300).with_retry_storm(3, 256).with_panic_at(0, 2, 1)\
             .with_poison_at(1, 0, 0).with_halt(Some(2), 7)"
        );
        assert_eq!(p.kinds(), FaultKind::ALL.to_vec());
    }

    #[test]
    fn warp_streams_are_deterministic_and_independent() {
        let p = FaultPlan::seeded(7).with_delay(500, 32);
        let a1 = p.for_warp(0);
        let a2 = p.for_warp(0);
        let b = p.for_warp(1);
        let s1: Vec<SpinFault> = (0..64).map(|_| a1.poll()).collect();
        let s2: Vec<SpinFault> = (0..64).map(|_| a2.poll()).collect();
        let s3: Vec<SpinFault> = (0..64).map(|_| b.poll()).collect();
        assert_eq!(s1, s2, "same warp, same seed, same stream");
        assert_ne!(s1, s3, "different warps draw different streams");
        assert!(a1.counts().delays > 0, "500 per-mille over 64 polls fires");
    }

    #[test]
    fn point_faults_target_their_warp_only() {
        let p = FaultPlan::seeded(1)
            .with_panic_at(2, 3, 1)
            .with_poison_at(0, 0, 0);
        assert_eq!(p.for_warp(2).step_fault(3, 1), StepFault::Panic);
        assert_eq!(p.for_warp(1).step_fault(3, 1), StepFault::None);
        assert_eq!(p.for_warp(0).step_fault(0, 0), StepFault::Poison);
        assert_eq!(p.for_warp(0).step_fault(1, 0), StepFault::None);
    }

    #[test]
    fn halt_fires_after_threshold_and_dominates() {
        let p = FaultPlan::seeded(3).with_halt(None, 2).with_stall(1, 10);
        let w = p.for_warp(5);
        assert_ne!(w.barrier_entry(), BarrierFault::Halt); // entry 1
        assert_ne!(w.barrier_entry(), BarrierFault::Halt); // entry 2
        assert_eq!(w.barrier_entry(), BarrierFault::Halt); // entry 3
        assert_eq!(w.barrier_entry(), BarrierFault::Halt);
        let scoped = FaultPlan::seeded(3).with_halt(Some(1), 0);
        assert_eq!(scoped.for_warp(1).barrier_entry(), BarrierFault::Halt);
        assert_eq!(scoped.for_warp(0).barrier_entry(), BarrierFault::None);
    }

    #[test]
    fn stall_and_retry_respect_period() {
        let p = FaultPlan::seeded(9)
            .with_stall(2, 50)
            .with_retry_storm(3, 8);
        let w = p.for_warp(0);
        let faults: Vec<BarrierFault> = (0..6).map(|_| w.barrier_entry()).collect();
        assert_eq!(
            faults,
            vec![
                BarrierFault::None,
                BarrierFault::Stall(Duration::from_micros(50)),
                BarrierFault::Retry(8),
                BarrierFault::Stall(Duration::from_micros(50)),
                BarrierFault::None,
                BarrierFault::Stall(Duration::from_micros(50)), // stall wins on lcm entries
            ]
        );
        let c = w.counts();
        assert_eq!((c.stalls, c.retries), (3, 1));
    }
}
