//! Host-side progress and dependency primitives of the threaded engines.
//!
//! * [`RowDeps`] — per-row epoch counters for the in-kernel ILU(0)
//!   SpTRSV: a warp combines `x[c]` into its row only once the warp
//!   owning row `c` has published it (`atomicAdd` + busy-wait, at row
//!   granularity).
//! * [`Heartbeat`] — the progress heartbeat behind the adaptive watchdog.
//!
//! The paper's Fig. 6 `d_s`/`d_d`/`d_a` arrays (Algorithm 3) coordinate
//! the SpMV, dot and AXPY steps of one iteration. The host engines replace
//! them with owner-computes steps and monotone barriers, so no atomic
//! version of them runs here; the single-kernel coster still charges their
//! atomic traffic to the modeled timeline.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Shared progress heartbeat for the progress-based watchdog.
///
/// The wall-clock watchdog (PR 2) bounds the *whole solve*, so a slow but
/// healthy run on a huge matrix trips it spuriously. The heartbeat instead
/// bounds the *gap between progress events*: every warp calls
/// [`Heartbeat::beat`] at step boundaries (publishing its packed
/// iteration × step position) and [`Heartbeat::pulse`] whenever it clears a
/// wait, and [`Heartbeat::stalled`] fires only when **no** warp has
/// advanced for the configured interval. A wedged dependency chain stops
/// all beats, so the deadline still fires; a merely slow schedule keeps
/// ticking and never does.
///
/// Concurrency: `ticks` is a global monotone event counter. `stalled()`
/// keeps a (tick-count, timestamp) snapshot; whenever the counter moved
/// since the snapshot it re-snapshots and reports liveness, and it only
/// fires when the counter has provably sat still for a full interval. The
/// snapshot pair is published timestamp-first with a `Release` store on
/// the tick half, so an `Acquire` reader never pairs a fresh tick count
/// with a stale timestamp; racing re-snapshots can only *delay* firing
/// (conservative), never fire early.
#[derive(Debug)]
pub struct Heartbeat {
    interval_ns: u64,
    start: Instant,
    ticks: AtomicU64,
    snap_ticks: AtomicU64,
    snap_at_ns: AtomicU64,
    progress: Vec<AtomicU64>,
}

impl Heartbeat {
    /// A heartbeat for `warps` warps that fires after `interval` without
    /// any progress event.
    pub fn new(interval: Duration, warps: usize) -> Heartbeat {
        Heartbeat {
            interval_ns: interval.as_nanos().min(u128::from(u64::MAX)) as u64,
            start: Instant::now(),
            ticks: AtomicU64::new(0),
            snap_ticks: AtomicU64::new(0),
            snap_at_ns: AtomicU64::new(0),
            progress: (0..warps).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Packs an (iteration, step) coordinate for [`Heartbeat::beat`]:
    /// biased so 0 remains "not started yet".
    #[inline]
    pub fn pack(iteration: usize, step: usize) -> u64 {
        ((iteration as u64 + 1) << 8) | (step as u64 & 0xFF)
    }

    /// Inverse of [`Heartbeat::pack`]; `None` for a warp that never beat.
    #[inline]
    pub fn unpack(v: u64) -> Option<(usize, usize)> {
        if v == 0 {
            None
        } else {
            Some((((v >> 8) - 1) as usize, (v & 0xFF) as usize))
        }
    }

    /// A step boundary: publish the warp's position and tick the global
    /// progress counter.
    #[inline]
    pub fn beat(&self, warp: usize, packed: u64) {
        self.progress[warp].store(packed, Ordering::Relaxed);
        self.ticks.fetch_add(1, Ordering::Relaxed);
    }

    /// A progress event without a position change (e.g. a cleared wait or
    /// a completed tile inside a step).
    #[inline]
    pub fn pulse(&self) {
        self.ticks.fetch_add(1, Ordering::Relaxed);
    }

    /// True when no warp has produced a progress event for a full
    /// interval. Cheap enough to call from spin loops (two relaxed loads
    /// on the live path).
    pub fn stalled(&self) -> bool {
        let cur = self.ticks.load(Ordering::Relaxed);
        let snap = self.snap_ticks.load(Ordering::Acquire);
        let now_ns = self.start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        if cur != snap {
            // Progress since the last snapshot: re-snapshot, timestamp
            // first (see the struct docs for the ordering argument).
            self.snap_at_ns.store(now_ns, Ordering::Relaxed);
            self.snap_ticks.store(cur, Ordering::Release);
            return false;
        }
        now_ns.saturating_sub(self.snap_at_ns.load(Ordering::Relaxed)) > self.interval_ns
    }

    /// Snapshot of every warp's last published packed position.
    pub fn snapshot(&self) -> Vec<u64> {
        self.progress
            .iter()
            .map(|p| p.load(Ordering::Relaxed))
            .collect()
    }

    /// Number of warps tracked.
    pub fn warps(&self) -> usize {
        self.progress.len()
    }
}

/// Per-row dependency counters for in-kernel SpTRSV.
///
/// The preconditioned solvers run the ILU(0) triangular solves *inside*
/// the fused kernel: a warp may only combine `x[c]` into row `r` once the
/// warp owning row `c` has finished it. On the GPU this is the
/// `atomicAdd` + busy-wait pattern of the paper's `d_s` array, but at
/// **row** granularity and — like the threaded engine's barriers — counting
/// *up monotonically* instead of resetting between preconditioner
/// applications: after the `e`-th application of the factor, `done[r] ==
/// e` for every row, so a consumer in application `e` waits for
/// `done[c] >= e`. No reset step exists to race with, and a stale read
/// can only under-estimate the counter (the wait is conservative, never
/// unsound).
#[derive(Debug)]
pub struct RowDeps {
    done: Vec<AtomicI64>,
}

impl RowDeps {
    /// Counters for an `n`-row triangular factor, all starting at zero
    /// (no application has completed yet).
    pub fn new(n: usize) -> RowDeps {
        RowDeps {
            done: (0..n).map(|_| AtomicI64::new(0)).collect(),
        }
    }

    /// Number of rows tracked.
    #[inline]
    pub fn len(&self) -> usize {
        self.done.len()
    }

    /// True when no rows are tracked.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.done.is_empty()
    }

    /// Publishes that `row` finished its current application
    /// (`atomicAdd(done[row], 1)`); the store of `x[row]` must happen
    /// before this call. Returns the new epoch.
    #[inline]
    pub fn complete(&self, row: usize) -> i64 {
        self.done[row].fetch_add(1, Ordering::AcqRel) + 1
    }

    /// The raw counter for `row`, for spin loops that interleave the wait
    /// with poison/watchdog checks (the threaded engine polls through
    /// its `WarpSync` so a wedged dependency chain fails as `Wedged`
    /// instead of hanging).
    #[inline]
    pub fn counter(&self, row: usize) -> &AtomicI64 {
        &self.done[row]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_deps_monotone_epochs() {
        let deps = RowDeps::new(4);
        assert_eq!(deps.len(), 4);
        assert!(!deps.is_empty());
        let epoch = |r: usize| deps.counter(r).load(Ordering::Acquire);
        assert_eq!(epoch(2), 0);
        assert_eq!(deps.complete(2), 1);
        assert_eq!(epoch(2), 1);
        // A second application pushes the epoch, never resets it.
        assert_eq!(deps.complete(2), 2);
        assert_eq!(epoch(2), 2);
        assert_eq!(epoch(1), 0, "other rows are untouched");
    }

    #[test]
    fn heartbeat_pack_roundtrip() {
        assert_eq!(Heartbeat::unpack(0), None);
        for (it, st) in [(0usize, 0usize), (3, 2), (917, 255)] {
            assert_eq!(Heartbeat::unpack(Heartbeat::pack(it, st)), Some((it, st)));
        }
    }

    #[test]
    fn heartbeat_fires_only_without_progress() {
        let hb = Heartbeat::new(Duration::from_millis(40), 2);
        assert!(!hb.stalled(), "first call snapshots, never fires");
        // Keep beating for > interval: never stalls.
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_millis(90) {
            hb.beat(0, Heartbeat::pack(1, 0));
            std::thread::sleep(Duration::from_millis(5));
            assert!(!hb.stalled(), "progress within the interval");
        }
        // Now stop beating: must fire within a bounded wait.
        let t0 = Instant::now();
        while !hb.stalled() {
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "heartbeat never fired"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(hb.snapshot()[0], Heartbeat::pack(1, 0));
        assert_eq!(hb.snapshot()[1], 0, "warp 1 never started");
        assert_eq!(hb.warps(), 2);
    }

    #[test]
    fn heartbeat_pulse_counts_as_progress() {
        let hb = Heartbeat::new(Duration::from_millis(40), 1);
        assert!(!hb.stalled());
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_millis(90) {
            hb.pulse();
            std::thread::sleep(Duration::from_millis(5));
            assert!(!hb.stalled(), "pulses are progress too");
        }
        // Position snapshot stays "never started" without beats.
        assert_eq!(hb.snapshot(), vec![0]);
    }

    #[test]
    fn row_deps_cross_thread_chain() {
        // A strict chain 0 → 1 → 2 executed by three threads completing
        // out of spawn order still resolves: each waits for its
        // predecessor's epoch before completing its own row.
        let deps = RowDeps::new(3);
        crossbeam::scope(|scope| {
            for r in (0..3).rev() {
                let deps = &deps;
                scope.spawn(move |_| {
                    if r > 0 {
                        while deps.counter(r - 1).load(Ordering::Acquire) < 1 {
                            std::thread::yield_now();
                        }
                    }
                    deps.complete(r);
                });
            }
        })
        .unwrap();
        for r in 0..3 {
            assert_eq!(deps.counter(r).load(Ordering::Acquire), 1);
        }
    }
}
