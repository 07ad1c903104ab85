//! Size-bounded, single-flight LRU for the engine's cache rows.
//!
//! The engine keeps one kind of row: a program's compiled unit and its
//! profile together, keyed by the program's source fingerprint alone
//! (see the crate docs), so a request's three `reused` flags
//! (`StageReuse`) all report its row's hit; `unit` and `decoded` go with
//! the next `kremlin-serve-v1` bump. [`ArtifactCache`]
//! knows nothing about rows: it is generic over key and value, and the
//! builder that fills a slot also reports what the value costs in bytes.
//!
//! Population is **single-flight**: concurrent requests for the same
//! missing key run the builder exactly once while the rest block on a
//! condvar and then take the hit path. Builder failures are never
//! cached — the slot is vacated and waiters retry (one of them becomes
//! the next builder).
//!
//! Hits, misses and evictions are published as `engine.cache.hits`,
//! `engine.cache.misses` and `engine.cache.evictions`, and the live
//! footprint as the `engine.cache.bytes`/`.entries` gauges, all in the
//! `kremlin-metrics-v1` snapshot. The cache also keeps its own always-on
//! [`CacheStats`] so behavior is testable without touching the
//! process-global metrics switch.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::{Condvar, Mutex};

/// Always-on cache accounting (independent of the global metrics switch).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Ready entries currently resident.
    pub entries: usize,
    /// Bytes charged against the budget.
    pub bytes: usize,
    /// Lookups served from a resident entry.
    pub hits: u64,
    /// Lookups that ran the builder.
    pub misses: u64,
    /// Entries dropped to fit the byte budget.
    pub evictions: u64,
}

enum Slot<V> {
    /// A builder is producing this value; waiters block on the condvar.
    InFlight,
    Ready {
        value: V,
        bytes: usize,
    },
}

struct Inner<K, V> {
    map: HashMap<K, Slot<V>>,
    /// LRU order over *ready* keys; front is the next eviction victim.
    order: VecDeque<K>,
    bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: Eq + Hash + Clone, V: Clone> Inner<K, V> {
    /// The ready value for `key`, counted as a hit and moved to the
    /// most-recent end; `None` when absent or in flight.
    fn hit(&mut self, key: &K) -> Option<V> {
        let Some(Slot::Ready { value, .. }) = self.map.get(key) else { return None };
        let value = value.clone();
        if let Some(pos) = self.order.iter().position(|k| k == key) {
            let touched = self.order.remove(pos).expect("position is in range");
            self.order.push_back(touched);
        }
        self.hits += 1;
        kremlin_obs::counter!("engine.cache.hits").incr();
        Some(value)
    }
}

/// Size-bounded, single-flight LRU from `K` to `V`. Values should be
/// cheap to clone (`Arc`s): a hit hands the caller a clone of the value
/// every other session sees.
pub struct ArtifactCache<K, V> {
    budget_bytes: usize,
    inner: Mutex<Inner<K, V>>,
    ready: Condvar,
}

impl<K: Eq + Hash + Clone, V: Clone> ArtifactCache<K, V> {
    /// Creates a cache that evicts least-recently-used entries once the
    /// resident set exceeds `budget_bytes`.
    pub fn new(budget_bytes: usize) -> Self {
        ArtifactCache {
            budget_bytes,
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                order: VecDeque::new(),
                bytes: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
            ready: Condvar::new(),
        }
    }

    /// Returns the value for `key`, running `build` at most once across
    /// all concurrent callers if it is not resident. `build` returns the
    /// value and the bytes it is charged against the budget. The `bool`
    /// is `true` for a cache hit (including waiters that blocked behind
    /// the in-flight builder and woke to a ready slot).
    ///
    /// # Errors
    ///
    /// Propagates the builder's error; failures are not cached.
    pub fn get_or_build<E>(
        &self,
        key: K,
        build: impl FnOnce() -> Result<(V, usize), E>,
    ) -> Result<(V, bool), E> {
        let mut inner = self.inner.lock().expect("cache lock");
        loop {
            if let Some(value) = inner.hit(&key) {
                return Ok((value, true));
            }
            if !inner.map.contains_key(&key) {
                break;
            }
            inner = self.ready.wait(inner).expect("cache lock");
        }
        // This caller is the single-flight builder for `key`.
        inner.map.insert(key.clone(), Slot::InFlight);
        inner.misses += 1;
        kremlin_obs::counter!("engine.cache.misses").incr();
        drop(inner);

        let built = build();

        let mut inner = self.inner.lock().expect("cache lock");
        let result = match built {
            Ok((value, bytes)) => {
                inner.map.insert(key.clone(), Slot::Ready { value: value.clone(), bytes });
                inner.order.push_back(key);
                inner.bytes += bytes;
                self.evict_over_budget(&mut inner);
                Ok((value, false))
            }
            Err(e) => {
                inner.map.remove(&key);
                Err(e)
            }
        };
        self.ready.notify_all();
        result
    }

    /// Returns the resident value for `key` without building, counting a
    /// hit and refreshing recency when present. In-flight slots read as
    /// absent.
    pub fn lookup(&self, key: K) -> Option<V> {
        self.inner.lock().expect("cache lock").hit(&key)
    }

    /// Current accounting snapshot.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("cache lock");
        CacheStats {
            entries: inner.order.len(),
            bytes: inner.bytes,
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
        }
    }

    /// Resident keys from least- to most-recently used (test aid).
    pub fn keys_lru(&self) -> Vec<K> {
        self.inner.lock().expect("cache lock").order.iter().cloned().collect()
    }

    /// Evicts from the LRU front until within budget. May evict the
    /// just-inserted entry when it alone exceeds the budget — the caller
    /// already holds its value, the cache simply does not retain it.
    fn evict_over_budget(&self, inner: &mut Inner<K, V>) {
        while inner.bytes > self.budget_bytes {
            let Some(victim) = inner.order.pop_front() else { break };
            if let Some(Slot::Ready { bytes, .. }) = inner.map.remove(&victim) {
                inner.bytes -= bytes;
                inner.evictions += 1;
                kremlin_obs::counter!("engine.cache.evictions").incr();
            }
        }
        kremlin_obs::gauge!("engine.cache.bytes").set(inner.bytes as u64);
        kremlin_obs::gauge!("engine.cache.entries").set(inner.order.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    type Cache = ArtifactCache<u64, Arc<Vec<u64>>>;

    /// A value of `len` words, charged `len * 8 + 32` bytes.
    fn value(len: usize) -> Result<(Arc<Vec<u64>>, usize), ()> {
        Ok((Arc::new(vec![7; len]), len * 8 + 32))
    }

    #[test]
    fn hit_after_miss_returns_same_arc() {
        let cache = Cache::new(1 << 20);
        let (a, hit) = cache.get_or_build(1, || value(4)).unwrap();
        assert!(!hit);
        let (b, hit) = cache.get_or_build::<()>(1, || panic!("must not rebuild")).unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn build_failure_is_not_cached() {
        let cache = Cache::new(1 << 20);
        assert!(cache.get_or_build(1, || Err("boom")).is_err());
        assert!(cache.lookup(1).is_none());
        // The slot is vacated: the next caller builds again.
        let (_, hit) = cache.get_or_build(1, || value(1)).unwrap();
        assert!(!hit);
    }

    #[test]
    fn eviction_is_lru_ordered() {
        // Each value costs 10 * 8 + 32 = 112 bytes; the budget fits two.
        let cache = Cache::new(250);
        for key in 1..=2 {
            cache.get_or_build(key, || value(10)).unwrap();
        }
        // Touch key 1 so key 2 becomes the LRU victim.
        assert!(cache.lookup(1).is_some());
        cache.get_or_build(3, || value(10)).unwrap();
        assert!(cache.lookup(2).is_none(), "LRU victim must be the untouched key");
        assert!(cache.lookup(1).is_some());
        assert!(cache.lookup(3).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn oversized_artifact_is_returned_but_not_retained() {
        let cache = Cache::new(64);
        let (a, hit) = cache.get_or_build(9, || value(100)).unwrap();
        assert!(!hit);
        assert_eq!(a.len(), 100);
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().bytes, 0);
    }
}
