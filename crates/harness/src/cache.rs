//! Memoized fault-free baselines.
//!
//! The `StatePreservation` oracle compares every checkpointed plan against a
//! fault-free run of the same seed. That baseline is a deterministic replay
//! artifact: it depends only on `(scenario name, seed, horizon floor)` and
//! on nothing about the faulted plan itself, so it can be memoized under a
//! key holding exactly those inputs — the same way deterministic-execution
//! systems cache replay artifacts by their inputs.
//!
//! The plan's durable policy is not among them. A fault-free world never
//! restores, replays or recovers, so checkpoints, upstream backup, storage
//! latency and budget leave its tap counts and
//! app names where the plain world puts them;
//! `a_fault_free_world_is_the_same_under_every_policy` checks that over a
//! grid of policies. [`crate::runner::compute_baseline`] therefore builds
//! every baseline as the plain world, and one entry serves every
//! checkpointed policy of a seed.
//!
//! One [`BaselineCache`] serves all three baseline consumers:
//!
//! 1. phase-1 plan evaluation ([`crate::runner::run_plan`], including the
//!    determinism replay, which hits the entry its primary run populated),
//! 2. the concurrent shrink walk ([`crate::shrink`]), whose candidates keep
//!    the *original* plan's horizon as their floor and therefore share one
//!    floor-keyed entry, and
//! 3. the `campaign` binary's `--replay` path.
//!
//! Every plan seed is distinct, so a campaign revisits an entry in two
//! places only: the determinism replay, which is the next lookup its
//! worker makes after the primary run, and the shrink walk of at most
//! `max_failures` failing plans. The memo is sized for that ([`DEFAULT_BASELINE_CAPACITY`]), not
//! for the whole campaign: by the time phase 2 shrinks a failing plan, the
//! entry phase 1 made for it may be gone, and the walk recomputes that
//! baseline once — its candidates then hit the entry the recompute left.
//!
//! Correctness does not depend on the cache: every entry is a pure function
//! of its key, so hits, misses, and evictions can never change a campaign
//! report — only how often the baseline world is re-simulated. That is what
//! keeps reports byte-identical with the cache enabled or disabled and at
//! any `--jobs` count.

use crate::oracle::BaselineSummary;
use crate::runner::compute_baseline;
use crate::scenario::{Scenario, WorldPolicy};
use sps_sim::SimTime;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default entry capacity: what a campaign revisits (module doc) — each
/// worker's latest entry until its determinism replay, and a failing plan's
/// entry through its shrink walk — with room to spare at any `--jobs` the
/// host has cores for. Entries a campaign will not look up again are evicted
/// instead of held to the end.
pub const DEFAULT_BASELINE_CAPACITY: usize = 64;

/// Canonical identity of one fault-free baseline. Two runs with equal keys
/// produce bit-equal [`BaselineSummary`]s, which is the invariant
/// memoization rests on.
///
/// The scenario is keyed by **name**, standing in for every field
/// [`compute_baseline`] reads from it (warmup, windows, builder fn, taps).
/// That is sound for the scenario registry, where names are injective —
/// but a hand-built `Scenario` variant that reuses a registered name with
/// different timings/builder must NOT share a cache with the original, or
/// lookups would alias the wrong baseline.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct BaselineKey {
    /// Scenario name (the builder fn is keyed by it).
    pub scenario: &'static str,
    /// World seed — drives both the workload and the plan stream.
    pub seed: u64,
    /// Horizon floor in simulated millis: the faulted plan's horizon, which
    /// the baseline run must match so both cover the same simulated span.
    /// `None` means the plan never outruns the nominal fault window.
    pub horizon_floor_ms: Option<u64>,
}

impl BaselineKey {
    /// The key of `scenario`'s baseline at `seed` and `horizon_floor`. The
    /// policy is ignored: every baseline is the plain world (module doc).
    /// It stays a parameter for the traced twin of `run_plan` in the `perf`
    /// bench, which calls this with the plan's policy.
    pub fn new(
        scenario: &Scenario,
        seed: u64,
        _policy: WorldPolicy,
        horizon_floor: Option<SimTime>,
    ) -> Self {
        BaselineKey {
            scenario: scenario.name,
            seed,
            horizon_floor_ms: horizon_floor.map(|t| t.as_millis()),
        }
    }
}

/// Hit/miss counters at one point in time (what `campaign --timing` prints).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
}

impl CacheStats {
    /// Fraction of lookups served from memory; 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter delta since an earlier snapshot (per-campaign accounting on a
    /// shared cache).
    pub fn since(&self, earlier: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
        }
    }
}

struct Entry {
    value: Arc<BaselineSummary>,
    /// Logical access clock for least-recently-used eviction.
    last_used: u64,
}

struct Inner {
    map: HashMap<BaselineKey, Entry>,
    clock: u64,
}

/// Concurrency-safe memo of fault-free baselines keyed by [`BaselineKey`].
///
/// Shared by reference across campaign worker threads; values are `Arc`ed
/// so a hit costs a lock, a map probe, and a refcount bump. Capacity is
/// bounded with least-recently-used eviction so unbounded campaigns cannot
/// grow the memo without limit — an evicted entry is simply recomputed on
/// the next lookup, with no effect on any report. A disabled cache
/// ([`BaselineCache::disabled`]) recomputes at every point of use — the
/// reference arm of the cache on ≡ off ≡ warm identity suite.
pub struct BaselineCache {
    /// `None` disables memoization entirely.
    inner: Option<Mutex<Inner>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for BaselineCache {
    fn default() -> Self {
        BaselineCache::with_capacity(DEFAULT_BASELINE_CAPACITY)
    }
}

impl BaselineCache {
    /// An enabled cache with the default capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// An enabled cache holding at most `capacity` entries (LRU eviction).
    /// `capacity == 0` is the disabled cache.
    pub fn with_capacity(capacity: usize) -> Self {
        BaselineCache {
            inner: (capacity > 0).then(|| {
                Mutex::new(Inner {
                    map: HashMap::new(),
                    clock: 0,
                })
            }),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// A cache that never stores: every lookup recomputes the baseline.
    pub fn disabled() -> Self {
        BaselineCache::with_capacity(0)
    }

    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.inner
            .as_ref()
            .map_or(0, |m| m.lock().expect("baseline cache poisoned").map.len())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// The fault-free baseline for `(scenario, seed, horizon_floor)`,
    /// memoized. A miss simulates the baseline world via
    /// [`compute_baseline`] *outside* the lock, so a slow baseline never
    /// serializes unrelated workers.
    pub fn get_or_compute(
        &self,
        scenario: &Scenario,
        seed: u64,
        horizon_floor: Option<SimTime>,
    ) -> Arc<BaselineSummary> {
        self.get_or_insert_with(
            BaselineKey::new(scenario, seed, WorldPolicy::default(), horizon_floor),
            || compute_baseline(scenario, seed, horizon_floor),
        )
    }

    /// Core memoization: look up `key`, computing and installing on a miss.
    /// Exposed so capacity/eviction semantics are testable without
    /// simulating worlds.
    pub fn get_or_insert_with(
        &self,
        key: BaselineKey,
        compute: impl FnOnce() -> BaselineSummary,
    ) -> Arc<BaselineSummary> {
        if let Some(inner) = &self.inner {
            let mut guard = inner.lock().expect("baseline cache poisoned");
            guard.clock += 1;
            let clock = guard.clock;
            if let Some(entry) = guard.map.get_mut(&key) {
                entry.last_used = clock;
                let value = Arc::clone(&entry.value);
                drop(guard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return value;
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let value = Arc::new(compute());
        if let Some(inner) = &self.inner {
            let mut guard = inner.lock().expect("baseline cache poisoned");
            guard.clock += 1;
            let clock = guard.clock;
            // Two workers can race to the same missing key; both compute the
            // identical value (the key pins every input), so keeping the
            // first insertion is safe and keeps their Arcs interchangeable.
            guard.map.entry(key).or_insert(Entry {
                value: Arc::clone(&value),
                last_used: clock,
            });
            while guard.map.len() > self.capacity {
                // O(n) LRU scan: capacity is small (64 by default), so this
                // never shows up next to the cost of simulating even one
                // baseline world.
                let Some(oldest) = guard
                    .map
                    // sslint: allow(unordered-iter, eviction victim choice is perf-only: values are key-pinned, any evictee recomputes bit-identically)
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| k.clone())
                else {
                    break;
                };
                guard.map.remove(&oldest);
            }
        }
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(seed: u64) -> BaselineKey {
        BaselineKey {
            scenario: "trend",
            seed,
            horizon_floor_ms: Some(9_000),
        }
    }

    fn summary(mark: i64) -> BaselineSummary {
        let mut s = BaselineSummary::default();
        s.taps
            .insert((sps_runtime::JobId(1), "snk".to_string()), mark);
        s
    }

    #[test]
    fn memoizes_by_key_and_counts_hits() {
        let cache = BaselineCache::new();
        let mut computes = 0;
        for _ in 0..3 {
            let v = cache.get_or_insert_with(key(7), || {
                computes += 1;
                summary(42)
            });
            assert_eq!(v.taps.values().next(), Some(&42));
        }
        assert_eq!(computes, 1, "one compute serves all lookups");
        assert_eq!(cache.stats(), CacheStats { hits: 2, misses: 1 });
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_keys_do_not_alias() {
        let cache = BaselineCache::new();
        let a = cache.get_or_insert_with(key(1), || summary(1));
        let b = cache.get_or_insert_with(key(2), || summary(2));
        let mut floor_differs = key(1);
        floor_differs.horizon_floor_ms = None;
        let c = cache.get_or_insert_with(floor_differs, || summary(3));
        let mut scenario_differs = key(1);
        scenario_differs.scenario = "live";
        let d = cache.get_or_insert_with(scenario_differs, || summary(4));
        assert_ne!(a.taps, b.taps);
        assert_ne!(a.taps, c.taps);
        assert_ne!(a.taps, d.taps);
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.stats().misses, 4);
    }

    #[test]
    fn the_policy_does_not_enter_the_key() {
        use sps_runtime::{CheckpointPolicy, StorageModel};
        let trend = crate::scenario::trend();
        let floor = Some(SimTime::from_secs(9));
        let plain = BaselineKey::new(&trend, 7, WorldPolicy::default(), floor);
        let durable = WorldPolicy::checkpointed(
            CheckpointPolicy::every(5)
                .upstream_backup(true)
                .storage(StorageModel::default().with_write(250, 0).with_budget(4096)),
        );
        assert_eq!(BaselineKey::new(&trend, 7, durable, floor), plain);
        assert_eq!(plain, key(7));
    }

    #[test]
    fn capacity_bounds_the_memo_with_lru_eviction() {
        let cache = BaselineCache::with_capacity(2);
        cache.get_or_insert_with(key(1), || summary(1));
        cache.get_or_insert_with(key(2), || summary(2));
        // Touch key 1 so key 2 is the least recently used…
        cache.get_or_insert_with(key(1), || unreachable!("must hit"));
        cache.get_or_insert_with(key(3), || summary(3));
        assert_eq!(cache.len(), 2, "capacity is a hard bound");
        // …then key 2 must recompute (evicted) while 1 and 3 still hit.
        let mut recomputed = false;
        cache.get_or_insert_with(key(2), || {
            recomputed = true;
            summary(2)
        });
        assert!(recomputed, "LRU entry was not evicted");
        // Reinserting 2 evicted the then-LRU entry (1); 3 and 2 remain.
        assert_eq!(cache.len(), 2);
        cache.get_or_insert_with(key(3), || unreachable!("3 still resident"));
        cache.get_or_insert_with(key(2), || unreachable!("2 just reinserted"));
    }

    #[test]
    fn disabled_cache_recomputes_every_time() {
        let cache = BaselineCache::disabled();
        assert!(!cache.enabled());
        let mut computes = 0;
        for _ in 0..3 {
            cache.get_or_insert_with(key(7), || {
                computes += 1;
                summary(0)
            });
        }
        assert_eq!(computes, 3);
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 3 });
    }

    #[test]
    fn stats_deltas_support_shared_caches() {
        let cache = BaselineCache::new();
        cache.get_or_insert_with(key(1), || summary(1));
        let before = cache.stats();
        cache.get_or_insert_with(key(1), || unreachable!());
        cache.get_or_insert_with(key(2), || summary(2));
        let delta = cache.stats().since(before);
        assert_eq!(delta, CacheStats { hits: 1, misses: 1 });
        assert!((delta.hit_rate() - 0.5).abs() < 1e-9);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }
}
