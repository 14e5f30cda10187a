//! A thread-shareable prepared-video cache: the serve-daemon seed.
//!
//! [`exec::Session`](crate::exec::Session) historically owned its
//! Phase-1 cache outright, which made it impossible for a pool of worker
//! threads (one EVQL session per client connection) to share the
//! expensive `(dataset, score, scale, seed, step)` preparations. This
//! module extracts that state into [`SharedCache`]: an
//! `Arc<Mutex<…>>`-backed LRU map with **single-flight** builds — when N
//! sessions race on the same missing key, exactly one thread runs Phase 1
//! and the rest block on a condvar until the entry is ready. That is what
//! a production pooler's prepared-statement cache does, and it has a
//! welcome side effect: cache hit/miss counters are *deterministic* under
//! concurrency (misses = distinct keys built, independent of thread
//! interleaving), which the serve determinism harness relies on.
//!
//! Eviction is LRU over monotone ticks, exactly as the private cache
//! was; in-flight builds are never evicted. Every [`SharedCache`] clone
//! shares the same state, so `everest-serve` hands one cache to all
//! worker sessions while a standalone [`Session`](crate::exec::Session)
//! still gets a private one by default.

use crate::catalog::{ScoreFn, SourceEntry};
use crate::exec::PreparedEntry;
use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex};

/// Cache key: one Phase-1 preparation per combination.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CacheKey {
    /// Dataset name, lower-cased.
    pub source: String,
    /// Score display form (`count(car)`, `tailgating()`, …).
    pub score: String,
    /// Catalog scale divisor.
    pub scale: usize,
    /// Dataset build seed.
    pub seed: u64,
    /// Quantization step, bit-cast (steps are exact user literals).
    pub step_bits: u64,
}

impl CacheKey {
    /// The key of one `(dataset, score, scale, seed, step)` preparation.
    pub fn new(source: &SourceEntry, score: ScoreFn, scale: usize, seed: u64, step: f64) -> Self {
        CacheKey {
            source: source.name.to_ascii_lowercase(),
            score: score.display(),
            scale,
            seed,
            step_bits: step.to_bits(),
        }
    }

    /// Human-readable form for `SHOW CACHES`.
    pub fn display(&self) -> String {
        format!(
            "{} / {} / scale {} / seed {} / step {}",
            self.source,
            self.score,
            self.scale,
            self.seed,
            f64::from_bits(self.step_bits)
        )
    }
}

/// One slot: ready entry with LRU tick, or a build in flight.
enum Slot {
    Ready {
        entry: Arc<PreparedEntry>,
        last_used: u64,
    },
    /// Some thread is running Phase 1 for this key; waiters block on the
    /// cache condvar until it flips to `Ready` (or is removed on panic).
    Building,
}

/// Counter snapshot for `SHOW CACHES` / metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a ready entry (including single-flight
    /// waiters, which reused another thread's build).
    pub hits: u64,
    /// Lookups that ran Phase 1 themselves.
    pub misses: u64,
    /// Ready entries dropped by LRU pressure.
    pub evictions: u64,
    /// `clear()` calls (the serve daemon's `RELOAD`).
    pub reloads: u64,
}

struct State {
    slots: BTreeMap<CacheKey, Slot>,
    capacity: usize,
    tick: u64,
    stats: CacheStats,
}

impl State {
    fn ready_len(&self) -> usize {
        self.slots
            .values()
            .filter(|s| matches!(s, Slot::Ready { .. }))
            .count()
    }

    /// Drops the least-recently-used *ready* entry (builds in flight are
    /// untouchable — a waiter is about to receive them).
    fn evict_lru(&mut self) {
        if let Some(key) = self
            .slots
            .iter()
            .filter_map(|(k, s)| match s {
                Slot::Ready { last_used, .. } => Some((*last_used, k.clone())),
                Slot::Building => None,
            })
            .min()
            .map(|(_, k)| k)
        {
            self.slots.remove(&key);
            self.stats.evictions += 1;
        }
    }
}

/// An `Arc`-shareable, LRU-bounded, single-flight Phase-1 cache.
///
/// Cloning is cheap and shares state; see the module docs.
#[derive(Clone)]
pub struct SharedCache {
    inner: Arc<Inner>,
}

struct Inner {
    state: Mutex<State>,
    built: Condvar,
}

impl Default for SharedCache {
    fn default() -> Self {
        SharedCache::with_capacity(crate::exec::DEFAULT_CACHE_CAPACITY)
    }
}

impl std::fmt::Debug for SharedCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.lock();
        f.debug_struct("SharedCache")
            .field("entries", &st.ready_len())
            .field("capacity", &st.capacity)
            .field("stats", &st.stats)
            .finish()
    }
}

impl SharedCache {
    /// A fresh cache capped at `capacity` ready entries (≥ 1).
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity >= 1, "cache capacity must be at least 1");
        SharedCache {
            inner: Arc::new(Inner {
                state: Mutex::new(State {
                    slots: BTreeMap::new(),
                    capacity,
                    tick: 0,
                    stats: CacheStats::default(),
                }),
                built: Condvar::new(),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        match self.inner.state.lock() {
            Ok(g) => g,
            // A builder panicking between lock scopes leaves no broken
            // invariant (the Building slot is cleaned up by its guard),
            // so recover rather than propagate the poison.
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Returns the entry for `key`, building it with `build` on a miss.
    /// The bool is `true` on a cache hit (including waiting out another
    /// thread's in-flight build of the same key).
    ///
    /// `build` runs **outside** the cache lock, so concurrent sessions
    /// keep hitting other keys while a multi-second Phase 1 runs. If it
    /// panics, the in-flight marker is removed and waiters retry (one of
    /// them becomes the next builder).
    pub fn get_or_build<F>(&self, key: &CacheKey, build: F) -> (Arc<PreparedEntry>, bool)
    where
        F: FnOnce() -> PreparedEntry,
    {
        let mut st = self.lock();
        loop {
            let next_tick = st.tick + 1;
            match st.slots.get_mut(key) {
                Some(Slot::Ready { entry, last_used }) => {
                    *last_used = next_tick;
                    let out = Arc::clone(entry);
                    st.tick = next_tick;
                    st.stats.hits += 1;
                    return (out, true);
                }
                Some(Slot::Building) => {
                    st = match self.inner.built.wait(st) {
                        Ok(g) => g,
                        Err(poisoned) => poisoned.into_inner(),
                    };
                }
                None => break,
            }
        }
        // Miss: this thread builds. Evict before building so peak memory
        // never holds capacity + 1 ready preparations.
        st.stats.misses += 1;
        while st.ready_len() >= st.capacity {
            st.evict_lru();
        }
        st.slots.insert(key.clone(), Slot::Building);
        drop(st);

        // Remove the in-flight marker and wake waiters even if `build`
        // panics, so they retry instead of deadlocking.
        struct Cleanup<'a> {
            cache: &'a SharedCache,
            key: &'a CacheKey,
            done: bool,
        }
        impl Drop for Cleanup<'_> {
            fn drop(&mut self) {
                if !self.done {
                    let mut st = self.cache.lock();
                    st.slots.remove(self.key);
                    drop(st);
                    self.cache.inner.built.notify_all();
                }
            }
        }
        let mut guard = Cleanup {
            cache: self,
            key,
            done: false,
        };
        let entry = Arc::new(build());
        guard.done = true;

        let mut st = self.lock();
        st.tick += 1;
        let tick = st.tick;
        // Re-check capacity under the lock: other single-flight builds of
        // *different* keys may have landed while this one ran, and each
        // only evicted against the ready population it saw pre-build.
        while st.ready_len() >= st.capacity {
            st.evict_lru();
        }
        st.slots.insert(
            key.clone(),
            Slot::Ready {
                entry: Arc::clone(&entry),
                last_used: tick,
            },
        );
        drop(st);
        self.inner.built.notify_all();
        (entry, false)
    }

    /// Number of ready (built) entries.
    pub fn len(&self) -> usize {
        self.lock().ready_len()
    }

    /// True when no entry is ready.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current cap on ready entries.
    pub fn capacity(&self) -> usize {
        self.lock().capacity
    }

    /// Re-caps the cache (≥ 1), evicting LRU entries immediately if the
    /// new cap is smaller.
    pub fn set_capacity(&self, capacity: usize) {
        assert!(capacity >= 1, "cache capacity must be at least 1");
        let mut st = self.lock();
        st.capacity = capacity;
        while st.ready_len() > st.capacity {
            st.evict_lru();
        }
    }

    /// Drops every ready entry and counts a reload. Builds in flight are
    /// left to finish (their waiters still get an answer; the entry then
    /// populates the now-empty cache).
    pub fn clear(&self) {
        let mut st = self.lock();
        st.slots.retain(|_, s| matches!(s, Slot::Building));
        st.stats.reloads += 1;
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.lock().stats
    }

    /// Ready keys in deterministic (BTreeMap) order, with their LRU tick.
    pub fn keys(&self) -> Vec<(CacheKey, u64)> {
        self.lock()
            .slots
            .iter()
            .filter_map(|(k, s)| match s {
                Slot::Ready { last_used, .. } => Some((k.clone(), *last_used)),
                Slot::Building => None,
            })
            .collect()
    }

    /// Builds currently in flight (for `SHOW CACHES`).
    pub fn building(&self) -> usize {
        self.lock()
            .slots
            .values()
            .filter(|s| matches!(s, Slot::Building))
            .count()
    }

    /// `SHOW CACHES` rendering: capacity, entries, counters.
    pub fn render(&self) -> String {
        let st = self.lock();
        let mut out = format!(
            "prepared-video cache: {} / {} entries ({} building)\n\
             hits={}  misses={}  evictions={}  reloads={}\n",
            st.ready_len(),
            st.capacity,
            st.slots
                .values()
                .filter(|s| matches!(s, Slot::Building))
                .count(),
            st.stats.hits,
            st.stats.misses,
            st.stats.evictions,
            st.stats.reloads,
        );
        for (k, s) in &st.slots {
            if let Slot::Ready { last_used, .. } = s {
                out.push_str(&format!("  [lru {last_used:>4}] {}\n", k.display()));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal PreparedEntry stand-in is impossible (fields are real
    /// engine artifacts), so contention tests build the cheapest real
    /// preparation: the smallest catalog source at extreme scale.
    fn tiny_entry(seed: u64) -> PreparedEntry {
        let src = crate::catalog::source_by_name("Archie").unwrap();
        let built = src.build(src.default_score, 100_000, seed);
        // A real Phase-1 run would dominate the test; the cache only
        // stores the struct, so a degenerate prepared video suffices.
        let cfg = everest_core::phase1::Phase1Config {
            sample_frac: 0.05,
            sample_cap: 60,
            sample_min: 20,
            grid: everest_nn::HyperGrid::single(2, 4),
            train: everest_nn::train::TrainConfig {
                epochs: 1,
                ..everest_nn::train::TrainConfig::default()
            },
            conv_channels: vec![2],
            seed,
            threads: 1,
            ..everest_core::phase1::Phase1Config::default()
        };
        let prepared =
            everest_core::pipeline::Everest::prepare(built.video.as_ref(), &built.oracle, &cfg);
        PreparedEntry {
            prepared,
            oracle: built.oracle,
        }
    }

    fn key(seed: u64) -> CacheKey {
        CacheKey {
            source: "archie".into(),
            score: "count(car)".into(),
            scale: 100_000,
            seed,
            step_bits: 1.0f64.to_bits(),
        }
    }

    #[test]
    fn single_flight_dedups_concurrent_builds() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cache = SharedCache::with_capacity(4);
        let builds = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = cache.clone();
                let builds = &builds;
                scope.spawn(move || {
                    let (_, _hit) = cache.get_or_build(&key(1), || {
                        builds.fetch_add(1, Ordering::SeqCst);
                        tiny_entry(1)
                    });
                });
            }
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1, "exactly one build");
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 7, "waiters count as hits");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn eviction_under_contention_never_exceeds_capacity() {
        let capacity = 3;
        let cache = SharedCache::with_capacity(capacity);
        std::thread::scope(|scope| {
            for t in 0..6u64 {
                let cache = cache.clone();
                scope.spawn(move || {
                    for i in 0..4u64 {
                        let seed = (t + i) % 7;
                        let (entry, _) = cache.get_or_build(&key(seed), || tiny_entry(seed));
                        // entries handed out stay usable even if evicted
                        // underneath (Arc keeps them alive)
                        assert!(!entry.prepared.phase1.relation.is_empty());
                        assert!(
                            cache.len() <= capacity,
                            "capacity must bound the cache under contention"
                        );
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 24, "every lookup is counted");
        assert!(
            stats.misses >= 7 - capacity as u64,
            "distinct keys exceed cap"
        );
        assert!(cache.len() <= capacity);
    }

    #[test]
    fn builder_panic_wakes_waiters_who_then_rebuild() {
        let cache = SharedCache::with_capacity(2);
        let k = key(2);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_build(&k, || panic!("phase 1 exploded"));
        }));
        assert!(panicked.is_err());
        // The in-flight marker must be gone: a later lookup rebuilds
        // rather than deadlocking on a Building slot no one owns.
        let (_, hit) = cache.get_or_build(&k, || tiny_entry(2));
        assert!(!hit, "post-panic lookup is a miss that rebuilds");
        assert_eq!(cache.len(), 1);
    }

    /// `build` is the one caller-supplied code a cache lock owner runs. It
    /// must run with the lock released: a build that calls back into the
    /// same cache would otherwise deadlock on the non-reentrant mutex. On
    /// a spawned thread, so that regression fails on the timeout instead
    /// of hanging the suite.
    #[test]
    fn build_may_reenter_the_cache() {
        let cache = SharedCache::with_capacity(4);
        let (tx, rx) = std::sync::mpsc::channel();
        let inner = cache.clone();
        std::thread::spawn(move || {
            let (_, hit) = inner.get_or_build(&key(1), || {
                assert_eq!(inner.len(), 0, "the outer entry is still building");
                assert_eq!(inner.stats().misses, 1);
                let (_, nested_hit) = inner.get_or_build(&key(2), || tiny_entry(2));
                assert!(!nested_hit);
                tiny_entry(1)
            });
            let _ = tx.send(hit);
        });
        let hit = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("a build re-entering the cache must complete");
        assert!(!hit);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn clear_counts_a_reload_and_drops_ready_entries() {
        let cache = SharedCache::with_capacity(4);
        cache.get_or_build(&key(1), || tiny_entry(1));
        cache.get_or_build(&key(2), || tiny_entry(2));
        assert_eq!(cache.len(), 2);
        cache.clear();
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats().reloads, 1);
        let (_, hit) = cache.get_or_build(&key(1), || tiny_entry(1));
        assert!(!hit, "cleared entries rebuild");
    }

    #[test]
    fn render_lists_keys_deterministically() {
        let cache = SharedCache::with_capacity(4);
        cache.get_or_build(&key(3), || tiny_entry(3));
        cache.get_or_build(&key(1), || tiny_entry(1));
        let text = cache.render();
        assert!(text.contains("2 / 4 entries"), "{text}");
        let pos1 = text.find("seed 1").unwrap();
        let pos3 = text.find("seed 3").unwrap();
        assert!(pos1 < pos3, "BTreeMap order, not insertion order: {text}");
    }
}
