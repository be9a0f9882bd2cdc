//! The preprocessing cache: fingerprint-keyed, LRU + byte-budget bounded,
//! build-deduplicating, trace-observable.
//!
//! A [`PreparedMatrix`] is everything a solve request pays for that
//! depends only on the operator: the tiled mixed-precision matrix (CSR→
//! tiled conversion + precision classification), the optional ILU(0)
//! factorization, and the coster's execution decisions (kernel mode,
//! pipeline schedule). The cache maps [`Fingerprint`] → `Arc<PreparedMatrix>`
//! under one mutex; builds happen *outside* the lock with a `Building`
//! placeholder + condvar so concurrent misses on the same key perform
//! exactly one preprocessing pass (no thundering herd, no double build for
//! a resident key).
//!
//! Eviction is LRU over entries, additionally bounded by a total byte
//! budget; oversized entries (admission control) are never inserted — the
//! request is still served, the prepared state is just not retained.
//!
//! Observability: every lookup appends a `CacheHit`/`CacheMiss` event and
//! every eviction a `CacheEvict` event to an internal `mf-trace` ring
//! (payload `a` = low 64 bits of the fingerprint, `b` = entry bytes), and
//! aggregate [`CacheStats`] counters are readable at any time. Event
//! *payloads* are deterministic; event *order* is schedule-dependent under
//! concurrency (see the mf-trace event table).

use std::collections::HashMap;
use std::sync::Arc;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use mf_kernels::Ilu0;
use mf_solver::report::ExecutedMode;
use mf_solver::solver::Preprocessed;
use mf_sparse::Fingerprint;
use mf_trace::{EventKind, Trace, WarpTracer};

/// Cache sizing and admission knobs.
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Maximum resident entries (LRU beyond this).
    pub max_entries: usize,
    /// Total byte budget across resident entries (LRU beyond this).
    pub byte_budget: usize,
    /// Admission control: a prepared matrix larger than this is served but
    /// never cached (it would evict the whole working set for one tenant).
    /// Also implicitly capped by `byte_budget`.
    pub max_entry_bytes: usize,
    /// Ring capacity of the internal cache-event trace.
    pub trace_capacity: usize,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig {
            max_entries: 64,
            byte_budget: 256 << 20,
            max_entry_bytes: 64 << 20,
            trace_capacity: 4096,
        }
    }
}

/// Matrix-dependent state prepared once and reused across requests.
pub struct PreparedMatrix {
    /// Content fingerprint this entry is keyed by.
    pub fingerprint: Fingerprint,
    /// Tiled matrix + modeled preprocessing cost.
    pub pre: Preprocessed,
    /// ILU(0) factors when the service preconditioned (and the
    /// factorization succeeded); `None` otherwise.
    pub ilu: Option<Ilu0>,
    /// Cached coster decision: which execution mode the solve runs in.
    pub mode: ExecutedMode,
    /// Resident size used for the byte budget (tiled structure + factors).
    pub bytes: usize,
}

/// Aggregate cache counters (monotonic over the service lifetime).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups resolved from a resident entry — including requests that
    /// arrived while the entry was building and waited for it.
    pub hits: u64,
    /// Lookups that claimed the build for an absent key.
    pub misses: u64,
    /// Entries evicted by the LRU / byte-budget bound.
    pub evictions: u64,
    /// Builds rejected by admission control (served, not cached).
    pub rejected: u64,
    /// Preprocessing builds actually executed (`misses` counts intents;
    /// `builds` counts completed passes — equal unless a build panicked).
    pub builds: u64,
}

enum Slot {
    Ready(Arc<PreparedMatrix>),
    Building,
}

struct Inner {
    map: HashMap<Fingerprint, Slot>,
    /// Ready keys, least-recently-used first. `Building` keys are not in
    /// the LRU (they cannot be evicted).
    lru: Vec<Fingerprint>,
    bytes: usize,
    stats: CacheStats,
    tracer: WarpTracer,
    seq: i64,
}

impl Inner {
    fn record(&mut self, kind: EventKind, fp: Fingerprint, bytes: usize) {
        self.tracer.stamp(self.seq, 0);
        self.seq += 1;
        self.tracer.record(kind, fp.0[0], bytes as u64);
    }

    fn touch(&mut self, fp: Fingerprint) {
        if let Some(pos) = self.lru.iter().position(|k| *k == fp) {
            let k = self.lru.remove(pos);
            self.lru.push(k);
        }
    }
}

/// Removes the `Building` placeholder if the build unwinds, so waiters
/// retry instead of hanging on a slot nobody will ever fill.
struct BuildGuard<'a> {
    cache: &'a PreparedCache,
    fp: Fingerprint,
    armed: bool,
}

impl Drop for BuildGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            let mut inner = self.cache.lock();
            inner.map.remove(&self.fp);
            self.cache.cond.notify_all();
        }
    }
}

/// The fingerprint-keyed preprocessing cache. All methods take `&self`;
/// the cache is `Sync` and meant to be shared across request threads.
pub struct PreparedCache {
    config: CacheConfig,
    inner: Mutex<Inner>,
    cond: Condvar,
}

impl PreparedCache {
    pub fn new(config: CacheConfig) -> PreparedCache {
        PreparedCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                lru: Vec::new(),
                bytes: 0,
                stats: CacheStats::default(),
                tracer: WarpTracer::new(0, config.trace_capacity),
                seq: 0,
            }),
            cond: Condvar::new(),
            config,
        }
    }

    /// Locks the bookkeeping, recovering it if a thread panicked while
    /// holding the lock. Builds run unlocked, so no critical section calls
    /// user code; each one only edits counters, the map and the LRU, and
    /// later calls tolerate those half-done (eviction skips a key the map
    /// no longer holds, and [`BuildGuard`] drops an abandoned `Building`
    /// slot). Unwrapping instead would turn one panic into a panic on every
    /// later request, and into an abort when `BuildGuard::drop` runs during
    /// unwinding.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns the prepared state for `fp`, building it with `build` on a
    /// miss. The second value is `true` on a cache hit. Exactly one caller
    /// builds per absent key; concurrent requests for the same key block
    /// until the build completes and then count as hits.
    pub fn get_or_build<F>(&self, fp: Fingerprint, build: F) -> (Arc<PreparedMatrix>, bool)
    where
        F: FnOnce() -> PreparedMatrix,
    {
        let mut inner = self.lock();
        loop {
            match inner.map.get(&fp) {
                Some(Slot::Ready(arc)) => {
                    let arc = arc.clone();
                    inner.stats.hits += 1;
                    let bytes = arc.bytes;
                    inner.record(EventKind::CacheHit, fp, bytes);
                    inner.touch(fp);
                    return (arc, true);
                }
                Some(Slot::Building) => {
                    inner = self
                        .cond
                        .wait(inner)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                None => break,
            }
        }
        inner.map.insert(fp, Slot::Building);
        inner.stats.misses += 1;
        inner.record(EventKind::CacheMiss, fp, 0);
        drop(inner);

        let mut guard = BuildGuard {
            cache: self,
            fp,
            armed: true,
        };
        let prepared = Arc::new(build());
        guard.armed = false;

        let mut inner = self.lock();
        inner.stats.builds += 1;
        let cap = self.config.max_entry_bytes.min(self.config.byte_budget);
        if prepared.bytes > cap {
            // Admission control: serve, don't retain.
            inner.map.remove(&fp);
            inner.stats.rejected += 1;
            self.cond.notify_all();
            return (prepared, false);
        }
        inner.bytes += prepared.bytes;
        inner.map.insert(fp, Slot::Ready(prepared.clone()));
        inner.lru.push(fp);
        while inner.lru.len() > self.config.max_entries || inner.bytes > self.config.byte_budget {
            // Never evict the entry we just inserted (it is the most
            // recent); the LRU front is the victim.
            let Some(pos) = inner.lru.iter().position(|k| *k != fp) else {
                break;
            };
            let victim = inner.lru.remove(pos);
            if let Some(Slot::Ready(old)) = inner.map.remove(&victim) {
                inner.bytes -= old.bytes;
                inner.stats.evictions += 1;
                let bytes = old.bytes;
                inner.record(EventKind::CacheEvict, victim, bytes);
            }
        }
        self.cond.notify_all();
        (prepared, false)
    }

    /// Current aggregate counters.
    pub fn stats(&self) -> CacheStats {
        self.lock().stats
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        self.lock().lru.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resident bytes.
    pub fn resident_bytes(&self) -> usize {
        self.lock().bytes
    }

    /// Whether `fp` is resident (Ready) right now.
    pub fn contains(&self, fp: Fingerprint) -> bool {
        matches!(self.lock().map.get(&fp), Some(Slot::Ready(_)))
    }

    /// Drains the cache-event trace recorded so far, resetting the ring.
    pub fn take_trace(&self) -> Trace {
        let mut inner = self.lock();
        let tracer = std::mem::replace(
            &mut inner.tracer,
            WarpTracer::new(0, self.config.trace_capacity),
        );
        Trace::merge(vec![tracer.finish()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_gpu::DeviceSpec;
    use mf_solver::{MilleFeuille, SolverConfig};
    use mf_sparse::{Coo, Csr};

    fn diag(n: usize, v: f64) -> Csr {
        let mut a = Coo::new(n, n);
        for i in 0..n {
            a.push(i, i, v);
        }
        a.to_csr()
    }

    fn prepare(a: &Csr) -> PreparedMatrix {
        let solver = MilleFeuille::new(DeviceSpec::a100(), SolverConfig::default());
        let pre = solver.preprocess(a);
        let mode = solver.decide_mode(&pre.tiled);
        let bytes = pre.tiled.memory_bytes().total();
        PreparedMatrix {
            fingerprint: a.fingerprint(),
            pre,
            ilu: None,
            mode,
            bytes,
        }
    }

    #[test]
    fn hit_miss_and_counters() {
        let cache = PreparedCache::new(CacheConfig::default());
        let a = diag(16, 2.0);
        let fp = a.fingerprint();
        let (_, hit) = cache.get_or_build(fp, || prepare(&a));
        assert!(!hit);
        let (_, hit) = cache.get_or_build(fp, || panic!("must not rebuild"));
        assert!(hit);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.builds), (1, 1, 1));
        assert!(cache.contains(fp));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let cache = PreparedCache::new(CacheConfig {
            max_entries: 2,
            ..CacheConfig::default()
        });
        let mats: Vec<Csr> = (0..3).map(|i| diag(16, 2.0 + i as f64)).collect();
        for m in &mats {
            cache.get_or_build(m.fingerprint(), || prepare(m));
        }
        assert_eq!(cache.len(), 2);
        assert!(!cache.contains(mats[0].fingerprint()), "oldest evicted");
        assert!(cache.contains(mats[2].fingerprint()));
        assert_eq!(cache.stats().evictions, 1);
        // Touching an entry protects it: hit 1, insert 3 → 2 is evicted.
        cache.get_or_build(mats[1].fingerprint(), || panic!("resident"));
        cache.get_or_build(mats[0].fingerprint(), || prepare(&mats[0]));
        assert!(cache.contains(mats[1].fingerprint()));
        assert!(!cache.contains(mats[2].fingerprint()));
    }

    #[test]
    fn byte_budget_bounds_and_admission_rejects() {
        let a = diag(64, 3.0);
        let entry_bytes = prepare(&a).bytes;
        // Budget fits one entry only.
        let cache = PreparedCache::new(CacheConfig {
            max_entries: 10,
            byte_budget: entry_bytes + entry_bytes / 2,
            max_entry_bytes: entry_bytes,
            ..CacheConfig::default()
        });
        let b = diag(64, 4.0);
        cache.get_or_build(a.fingerprint(), || prepare(&a));
        cache.get_or_build(b.fingerprint(), || prepare(&b));
        assert_eq!(cache.len(), 1, "byte budget holds a single entry");
        assert!(cache.contains(b.fingerprint()), "newest survives");
        assert!(cache.resident_bytes() <= entry_bytes + entry_bytes / 2);

        // An entry over max_entry_bytes is served but never cached.
        let big = diag(4096, 5.0);
        let (arc, hit) = cache.get_or_build(big.fingerprint(), || prepare(&big));
        assert!(!hit);
        assert!(arc.bytes > entry_bytes);
        assert!(!cache.contains(big.fingerprint()));
        assert_eq!(cache.stats().rejected, 1);
    }

    #[test]
    fn trace_records_cache_events() {
        let cache = PreparedCache::new(CacheConfig {
            max_entries: 1,
            ..CacheConfig::default()
        });
        let a = diag(16, 2.0);
        let b = diag(16, 3.0);
        cache.get_or_build(a.fingerprint(), || prepare(&a));
        cache.get_or_build(a.fingerprint(), || panic!("resident"));
        cache.get_or_build(b.fingerprint(), || prepare(&b)); // evicts a
        let trace = cache.take_trace();
        assert_eq!(trace.count(EventKind::CacheMiss), 2);
        assert_eq!(trace.count(EventKind::CacheHit), 1);
        assert_eq!(trace.count(EventKind::CacheEvict), 1);
        // Payload a = fingerprint low word.
        let hit = trace
            .events
            .iter()
            .find(|e| e.kind == EventKind::CacheHit)
            .unwrap();
        assert_eq!(hit.a, a.fingerprint().0[0]);
        // Drained: a fresh take sees nothing.
        assert_eq!(cache.take_trace().events.len(), 0);
    }

    #[test]
    fn poisoned_lock_still_answers() {
        let cache = Arc::new(PreparedCache::new(CacheConfig::default()));
        let a = diag(16, 2.0);
        let fp = a.fingerprint();
        cache.get_or_build(fp, || prepare(&a));
        let c2 = cache.clone();
        let poisoner = std::thread::spawn(move || {
            let _held = c2.inner.lock().unwrap();
            panic!("injected panic while holding the cache lock");
        });
        assert!(poisoner.join().is_err());
        assert!(cache.inner.is_poisoned());

        let (_, hit) = cache.get_or_build(fp, || panic!("resident"));
        assert!(hit);
        let b = diag(16, 3.0);
        let (_, hit) = cache.get_or_build(b.fingerprint(), || prepare(&b));
        assert!(!hit);
        assert_eq!(cache.len(), 2);
        assert!(cache.contains(fp) && cache.contains(b.fingerprint()));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.builds), (1, 2, 2));

        // A build that panics now unwinds through `BuildGuard::drop`, which
        // locks the poisoned mutex: it must clean up, not abort.
        let c = diag(16, 4.0);
        let fc = c.fingerprint();
        let c3 = cache.clone();
        let failed = std::thread::spawn(move || {
            c3.get_or_build(fc, || panic!("injected build failure"));
        });
        assert!(failed.join().is_err());
        assert!(!cache.contains(fc));
        let (_, hit) = cache.get_or_build(fc, || prepare(&c));
        assert!(!hit);
        assert!(cache.contains(fc));
    }

    #[test]
    fn failed_build_unblocks_waiters() {
        let cache = Arc::new(PreparedCache::new(CacheConfig::default()));
        let a = diag(16, 2.0);
        let fp = a.fingerprint();
        let c2 = cache.clone();
        let panicker = std::thread::spawn(move || {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                c2.get_or_build(fp, || panic!("injected build failure"));
            }));
        });
        panicker.join().unwrap();
        // The Building placeholder was cleaned up: a new request builds.
        let (_, hit) = cache.get_or_build(fp, || prepare(&a));
        assert!(!hit);
        assert!(cache.contains(fp));
    }
}
