//! Content-addressed artifact cache for the staged pipeline.
//!
//! Every stage output is keyed by the content it was derived from: the
//! module fingerprint already embedded in `kremlin-trace v1` for
//! trace-derived artifacts (per-depth cost histograms, profiles), and an
//! FNV-1a hash of `(name, source)` for compiled units. Decoded event
//! arenas are never cached: the profile built from one is.
//! Identical submissions therefore collapse onto the same cache rows no
//! matter which client — CLI invocation or `kremlin serve` request —
//! produced them.
//!
//! The cache is a size-bounded LRU with **single-flight** population:
//! concurrent requests for the same missing key run the builder exactly
//! once while the rest block on a condvar and then take the hit path.
//! Builder failures are never cached — the slot is vacated and waiters
//! retry (one of them becomes the next builder).
//!
//! Hits, misses, and evictions are published per artifact kind as
//! `engine.cache.<kind>.hits`/`.misses` plus `engine.cache.evictions`,
//! and the live footprint as the `engine.cache.bytes`/`.entries` gauges,
//! all in the `kremlin-metrics-v1` snapshot. The cache also keeps its own
//! always-on [`CacheStats`] so behavior is testable without touching the
//! process-global metrics switch.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};

use kremlin::{CompiledUnit, ProfileOutcome};

/// Identity of one pipeline artifact, derived purely from content.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArtifactKey {
    /// Compiled unit, keyed by FNV-1a of `(source_name, source)`.
    Unit {
        /// [`source_fingerprint`] of the submitted source.
        source_fp: u64,
    },
    /// Per-depth shard-planning cost histogram for a decoded arena.
    DepthCost {
        /// Module fingerprint the histogram was derived from.
        module_fp: u64,
    },
    /// Compressed parallelism profile. Profiling config participates in
    /// the key: the same module profiled with a different depth window
    /// or dependence-breaking mode is a different artifact.
    Profile {
        /// Module fingerprint of the profiled program.
        module_fp: u64,
        /// [`kremlin::HcpaConfig`] depth window.
        window: usize,
        /// Whether reduction/induction dependences were broken.
        break_deps: bool,
    },
}

impl ArtifactKey {
    /// Stable kind label used in metric names.
    pub fn kind(&self) -> &'static str {
        match self {
            ArtifactKey::Unit { .. } => "unit",
            ArtifactKey::DepthCost { .. } => "depth_cost",
            ArtifactKey::Profile { .. } => "profile",
        }
    }
}

/// A cached stage output. All variants are `Arc`-shared: a hit hands the
/// caller the same allocation every other session sees.
#[derive(Debug, Clone)]
pub enum Artifact {
    /// Compiled and statically analyzed program.
    Unit(Arc<CompiledUnit>),
    /// Per-depth cost histogram (input to weighted shard planning).
    DepthCost(Arc<Vec<u64>>),
    /// Profile + profiler stats + run result.
    Profile(Arc<ProfileOutcome>),
}

impl Artifact {
    /// Approximate resident size, charged against the byte budget.
    ///
    /// Structural estimates: the cache needs relative weight for
    /// eviction, not accounting-grade numbers.
    pub fn cost_bytes(&self) -> usize {
        match self {
            Artifact::Unit(unit) => {
                let values: usize = unit
                    .module
                    .funcs
                    .iter()
                    .map(|f| f.values.len() * 96 + f.blocks.len() * 64)
                    .sum();
                values + unit.module.regions.len() * 128 + 4096
            }
            Artifact::DepthCost(hist) => hist.len() * 8 + 32,
            Artifact::Profile(outcome) => {
                outcome.profile.dict.compressed_bytes() as usize
                    + outcome.profile.executed_regions() * 256
                    + 1024
            }
        }
    }

    /// Downcast helpers — callers know which kind a key yields.
    pub fn into_unit(self) -> Arc<CompiledUnit> {
        match self {
            Artifact::Unit(u) => u,
            other => panic!("expected unit artifact, got {}", kind_of(&other)),
        }
    }

    /// See [`Artifact::into_unit`].
    pub fn into_depth_cost(self) -> Arc<Vec<u64>> {
        match self {
            Artifact::DepthCost(h) => h,
            other => panic!("expected depth_cost artifact, got {}", kind_of(&other)),
        }
    }

    /// See [`Artifact::into_unit`].
    pub fn into_profile(self) -> Arc<ProfileOutcome> {
        match self {
            Artifact::Profile(p) => p,
            other => panic!("expected profile artifact, got {}", kind_of(&other)),
        }
    }
}

fn kind_of(a: &Artifact) -> &'static str {
    match a {
        Artifact::Unit(_) => "unit",
        Artifact::DepthCost(_) => "depth_cost",
        Artifact::Profile(_) => "profile",
    }
}

/// FNV-1a over `(name, NUL, source)` — the compiled-unit cache key. The
/// same hash the trace layer uses for module fingerprints, applied to
/// the pre-compilation content.
pub fn source_fingerprint(name: &str, source: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in [name.as_bytes(), &[0u8], source.as_bytes()] {
        for &b in chunk {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

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

enum Slot {
    /// A builder is producing this artifact; waiters block on the condvar.
    InFlight,
    Ready {
        artifact: Artifact,
        bytes: usize,
    },
}

struct Inner {
    map: HashMap<ArtifactKey, Slot>,
    /// LRU order over *ready* keys; front is the next eviction victim.
    order: VecDeque<ArtifactKey>,
    bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Inner {
    fn touch(&mut self, key: &ArtifactKey) {
        if let Some(pos) = self.order.iter().position(|k| k == key) {
            self.order.remove(pos);
            self.order.push_back(*key);
        }
    }
}

/// Size-bounded, single-flight LRU over pipeline artifacts.
pub struct ArtifactCache {
    budget_bytes: usize,
    inner: Mutex<Inner>,
    ready: Condvar,
}

impl ArtifactCache {
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

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// Returns the artifact for `key`, running `build` at most once
    /// across all concurrent callers if it is not resident. The `bool`
    /// is `true` for a cache hit (including waiters that blocked behind
    /// the in-flight builder and woke to a ready slot).
    ///
    /// # Errors
    ///
    /// Propagates the builder's error; failures are not cached.
    pub fn get_or_build<E>(
        &self,
        key: ArtifactKey,
        build: impl FnOnce() -> Result<Artifact, E>,
    ) -> Result<(Artifact, bool), E> {
        let mut inner = self.inner.lock().expect("cache lock");
        loop {
            match inner.map.get(&key) {
                Some(Slot::Ready { artifact, .. }) => {
                    let artifact = artifact.clone();
                    inner.touch(&key);
                    inner.hits += 1;
                    bump_hit(&key);
                    return Ok((artifact, true));
                }
                Some(Slot::InFlight) => {
                    inner = self.ready.wait(inner).expect("cache lock");
                }
                None => break,
            }
        }
        // This caller is the single-flight builder for `key`.
        inner.map.insert(key, Slot::InFlight);
        inner.misses += 1;
        bump_miss(&key);
        drop(inner);

        let built = build();

        let mut inner = self.inner.lock().expect("cache lock");
        match built {
            Ok(artifact) => {
                let bytes = artifact.cost_bytes();
                inner.map.insert(key, Slot::Ready { artifact: artifact.clone(), bytes });
                inner.order.push_back(key);
                inner.bytes += bytes;
                self.evict_over_budget(&mut inner);
                self.ready.notify_all();
                Ok((artifact, false))
            }
            Err(e) => {
                inner.map.remove(&key);
                self.ready.notify_all();
                Err(e)
            }
        }
    }

    /// Returns the resident artifact for `key` without building,
    /// counting a hit and refreshing recency when present. In-flight
    /// slots read as absent.
    pub fn lookup(&self, key: ArtifactKey) -> Option<Artifact> {
        let mut inner = self.inner.lock().expect("cache lock");
        match inner.map.get(&key) {
            Some(Slot::Ready { artifact, .. }) => {
                let artifact = artifact.clone();
                inner.touch(&key);
                inner.hits += 1;
                bump_hit(&key);
                Some(artifact)
            }
            _ => None,
        }
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
    pub fn keys_lru(&self) -> Vec<ArtifactKey> {
        self.inner.lock().expect("cache lock").order.iter().copied().collect()
    }

    /// Evicts from the LRU front until within budget. May evict the
    /// just-inserted entry when it alone exceeds the budget — the caller
    /// already holds its `Arc`, the cache simply does not retain it.
    fn evict_over_budget(&self, inner: &mut Inner) {
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

fn bump_hit(key: &ArtifactKey) {
    match key {
        ArtifactKey::Unit { .. } => kremlin_obs::counter!("engine.cache.unit.hits").incr(),
        ArtifactKey::DepthCost { .. } => {
            kremlin_obs::counter!("engine.cache.depth_cost.hits").incr()
        }
        ArtifactKey::Profile { .. } => kremlin_obs::counter!("engine.cache.profile.hits").incr(),
    }
}

fn bump_miss(key: &ArtifactKey) {
    match key {
        ArtifactKey::Unit { .. } => kremlin_obs::counter!("engine.cache.unit.misses").incr(),
        ArtifactKey::DepthCost { .. } => {
            kremlin_obs::counter!("engine.cache.depth_cost.misses").incr()
        }
        ArtifactKey::Profile { .. } => kremlin_obs::counter!("engine.cache.profile.misses").incr(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(depth: u64, len: usize) -> Artifact {
        Artifact::DepthCost(Arc::new(vec![depth; len]))
    }

    fn key(fp: u64) -> ArtifactKey {
        ArtifactKey::DepthCost { module_fp: fp }
    }

    #[test]
    fn hit_after_miss_returns_same_arc() {
        let cache = ArtifactCache::new(1 << 20);
        let (a, hit) = cache.get_or_build::<()>(key(1), || Ok(hist(7, 4))).unwrap();
        assert!(!hit);
        let (b, hit) = cache.get_or_build::<()>(key(1), || panic!("must not rebuild")).unwrap();
        assert!(hit);
        let (a, b) = (a.into_depth_cost(), b.into_depth_cost());
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn build_failure_is_not_cached() {
        let cache = ArtifactCache::new(1 << 20);
        assert!(cache.get_or_build(key(1), || Err("boom")).is_err());
        assert!(cache.lookup(key(1)).is_none());
        // The slot is vacated: the next caller builds again.
        let (_, hit) = cache.get_or_build::<()>(key(1), || Ok(hist(1, 1))).unwrap();
        assert!(!hit);
    }

    #[test]
    fn eviction_is_lru_ordered() {
        // Each histogram costs len*8 + 32 = 112 bytes; budget fits two.
        let cache = ArtifactCache::new(250);
        for fp in 1..=2 {
            cache.get_or_build::<()>(key(fp), || Ok(hist(fp, 10))).unwrap();
        }
        // Touch key 1 so key 2 becomes the LRU victim.
        assert!(cache.lookup(key(1)).is_some());
        cache.get_or_build::<()>(key(3), || Ok(hist(3, 10))).unwrap();
        assert!(cache.lookup(key(2)).is_none(), "LRU victim must be the untouched key");
        assert!(cache.lookup(key(1)).is_some());
        assert!(cache.lookup(key(3)).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn oversized_artifact_is_returned_but_not_retained() {
        let cache = ArtifactCache::new(64);
        let (a, hit) = cache.get_or_build::<()>(key(9), || Ok(hist(9, 100))).unwrap();
        assert!(!hit);
        assert_eq!(a.into_depth_cost().len(), 100);
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().bytes, 0);
    }

    #[test]
    fn source_fingerprint_separates_name_and_source() {
        assert_ne!(source_fingerprint("a.kc", "x"), source_fingerprint("a.kcx", ""));
        assert_ne!(source_fingerprint("a.kc", "x"), source_fingerprint("a.kc", "y"));
        assert_eq!(source_fingerprint("a.kc", "x"), source_fingerprint("a.kc", "x"));
    }
}
