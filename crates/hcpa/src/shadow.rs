//! Multi-level (hierarchical) shadow state.
//!
//! HCPA "must effectively maintain many versions of the shadow memory"
//! (paper §4.2): each location carries a fixed-size array of availability
//! times, one per region-nesting depth, and a time is valid only for the
//! region instance that wrote it. Two regions at the same depth map to the
//! same slot; a time written under a previous region instance reads as 0
//! instead — exactly the reuse-avoidance rule of §4.2.
//!
//! Two stores exist, mirroring the paper's split:
//!
//! * [`ShadowMemory`] — a two-level table over the interpreter's slot
//!   address space, pages allocated on demand (§4.1 "dynamic allocation of
//!   shadow memory");
//! * [`ShadowRegs`] — a directly addressed per-frame table for SSA values
//!   (§4.1 "shadow register tables for local variables").
//!
//! # One write stamp per location
//!
//! The paper tags every depth slot with its writer's region-instance ID.
//! These stores keep a single **write stamp** per location instead, which
//! encodes the same rule exactly:
//!
//! * instance tags are issued in region-entry order and instances nest in
//!   time, so the instance open at depth `d` now (tag `T_d`) was also open
//!   at `d` when the location was last written iff `T_d ≤ stamp`, the last
//!   tag issued before that write;
//! * `T_d` grows with `d`, so the depths that pass form a **prefix** of the
//!   tracked range, and the last write covered every depth of that prefix
//!   (its instance was open, hence tracked, when the write happened).
//!
//! Times past the written prefix may be stale, but they are unreachable:
//! a later read at such a depth observes an instance opened after the
//! stamp. The rule is checked against the paper's per-slot tags on random
//! properly nested region streams (tests below).
//!
//! # Hot-path layout
//!
//! A location is one run of `window + 1` words, `[stamp, t_0, …,
//! t_{window-1}]`, laid out **depth-contiguous**: 200 B at the default
//! window of 24, where per-slot `(tag, time)` pairs take 384 B. A read
//! computes the prefix length once and returns that many contiguous
//! times, with no per-depth tag compare; a write stores the stamp and the
//! times of the tracked depths. [`ShadowMemory`] resolves the page
//! **once per access** and keeps a one-entry **last-page cache** in front
//! of its page index. The cache misses on about half of all accesses
//! (loop bodies alternate between arrays on different pages), so the
//! index hashes page keys with two Fibonacci multiplies (`PageHashing`)
//! instead of SipHash's rounds. The index stays a hash map: pages are
//! allocated only where a location is written, so a replayed trace's
//! arbitrary addresses cost only the pages they touch.
//!
//! Every depth is *relative* to the profiler's tracked range
//! (`d - min_depth`): a `tags` argument lists the tags of the instances
//! open at relative depths `0..tags.len()` (increasing, at most `window`
//! of them). The frozen pre-optimization stores, which keep the paper's
//! per-slot tags, live in [`crate::seed`], the reference the differential
//! tests and the benchmark baseline compare against.

use std::cell::Cell;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// Slots per shadow-memory page (power of two).
const PAGE_SLOTS: u64 = 1024;

/// Length of the valid prefix of a location stamped `stamp`, observed
/// from the open instances `tags` (see the module docs).
#[inline]
fn valid_prefix(stamp: u64, tags: &[u64]) -> usize {
    match tags.last() {
        Some(&deepest) if deepest <= stamp => tags.len(),
        _ => tags.partition_point(|&tag| tag <= stamp),
    }
}

/// The times of `run` (`[stamp, t_0, …]`) that are valid under `tags`.
#[inline]
fn valid_times<'r>(run: &'r [u64], tags: &[u64]) -> &'r [u64] {
    &run[1..1 + valid_prefix(run[0], tags)]
}

/// 2^64/φ, the Fibonacci hashing multiplier.
const FIBONACCI: u64 = 0x9E37_79B9_7F4A_7C15;

/// Hashing for the shadow page index: Fibonacci hashing of the page key
/// XORed with a random per-index seed, folded and multiplied once more so
/// that every key bit reaches the bits `HashMap` takes its bucket index
/// and tag from.
///
/// Page keys come from replayed traces, which arrive from outside the
/// program. One bare multiply is invertible, so page keys that collide
/// could be computed offline and uploaded to make every lookup a linear
/// probe; the unknown seed rules that out, as SipHash's random keys do.
#[derive(Debug, Clone)]
struct PageHashing {
    seed: u64,
}

impl PageHashing {
    fn new() -> Self {
        PageHashing { seed: RandomState::new().hash_one(0u64) }
    }
}

impl BuildHasher for PageHashing {
    type Hasher = PageHasher;

    fn build_hasher(&self) -> PageHasher {
        PageHasher { seed: self.seed, hash: 0 }
    }
}

#[derive(Debug)]
struct PageHasher {
    seed: u64,
    hash: u64,
}

impl Hasher for PageHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.hash.rotate_left(8) ^ u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, key: u64) {
        let h = (key ^ self.seed).wrapping_mul(FIBONACCI);
        self.hash = (h ^ (h >> 32)).wrapping_mul(FIBONACCI);
    }

    /// The product's high bits mix every bit of its input: rotate them
    /// down to the bucket index.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(32)
    }
}

/// A per-frame shadow register table: one stamped, depth-contiguous run
/// per SSA value.
#[derive(Debug)]
pub struct ShadowRegs {
    /// Words per value: the stamp plus one time per tracked depth.
    stride: usize,
    cells: Vec<u64>,
}

impl ShadowRegs {
    /// Creates a table for `n_values` SSA values with `window` depths.
    pub fn new(n_values: usize, window: usize) -> Self {
        ShadowRegs { stride: window + 1, cells: vec![0; n_values * (window + 1)] }
    }

    /// The times of `value` that are valid under `tags`, one per leading
    /// relative depth (empty if the value was never written under an open
    /// instance).
    #[inline]
    pub fn read_run(&self, value: usize, tags: &[u64]) -> &[u64] {
        let base = value * self.stride;
        valid_times(&self.cells[base..base + self.stride], tags)
    }

    /// Stamps `value` with `stamp` (the last tag issued) and returns its
    /// first `n` times — one per tracked depth — for the caller to fill.
    #[inline]
    pub fn write_run(&mut self, value: usize, stamp: u64, n: usize) -> &mut [u64] {
        let base = value * self.stride;
        let run = &mut self.cells[base..base + self.stride];
        run[0] = stamp;
        &mut run[1..1 + n]
    }
}

/// Two-level shadow memory over slot addresses: a hash index from page
/// key to a densely stored page of stamped runs, with a one-entry
/// last-page cache in front of the index.
#[derive(Debug)]
pub struct ShadowMemory {
    /// Words per location: the stamp plus one time per tracked depth.
    stride: usize,
    index: HashMap<u64, u32, PageHashing>,
    pages: Vec<Box<[u64]>>,
    /// `(page key, index into pages)` of the most recently touched page.
    /// `u64::MAX` is an impossible key (addresses are `< u64::MAX`), so
    /// the initial value never falsely hits.
    last: Cell<(u64, u32)>,
    /// Pages ever allocated (for reporting historical shadow footprint).
    pages_allocated: u64,
    /// Last-page-cache hit/miss tally, recorded only when `collect` is
    /// set (captured from the `kremlin_obs` metrics switch at
    /// construction) so the disabled hot path pays one predictable
    /// branch.
    cache_hits: Cell<u64>,
    cache_misses: Cell<u64>,
    collect: bool,
}

impl ShadowMemory {
    /// Creates an empty shadow memory with `window` depths per location.
    pub fn new(window: usize) -> Self {
        ShadowMemory {
            stride: window + 1,
            index: HashMap::with_hasher(PageHashing::new()),
            pages: Vec::new(),
            last: Cell::new((u64::MAX, 0)),
            pages_allocated: 0,
            cache_hits: Cell::new(0),
            cache_misses: Cell::new(0),
            collect: kremlin_obs::metrics_enabled(),
        }
    }

    #[inline]
    fn cached(&self, key: u64) -> Option<u32> {
        let (ck, ci) = self.last.get();
        let hit = ck == key;
        if self.collect {
            let tally = if hit { &self.cache_hits } else { &self.cache_misses };
            tally.set(tally.get() + 1);
        }
        hit.then_some(ci)
    }

    #[inline]
    fn page_of(&self, addr: u64) -> Option<u32> {
        let key = addr / PAGE_SLOTS;
        if let Some(i) = self.cached(key) {
            return Some(i);
        }
        let i = *self.index.get(&key)?;
        self.last.set((key, i));
        Some(i)
    }

    #[inline]
    fn page_of_mut(&mut self, addr: u64) -> u32 {
        let key = addr / PAGE_SLOTS;
        if let Some(i) = self.cached(key) {
            return i;
        }
        let i = match self.index.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => *e.get(),
            std::collections::hash_map::Entry::Vacant(e) => {
                let i = self.pages.len() as u32;
                self.pages.push(vec![0; PAGE_SLOTS as usize * self.stride].into_boxed_slice());
                self.pages_allocated += 1;
                *e.insert(i)
            }
        };
        self.last.set((key, i));
        i
    }

    /// The times stored at `addr` that are valid under `tags` (see
    /// [`ShadowRegs::read_run`]); empty for an unallocated page.
    #[inline]
    pub fn read_run(&self, addr: u64, tags: &[u64]) -> &[u64] {
        let Some(i) = self.page_of(addr) else { return &[] };
        let base = (addr % PAGE_SLOTS) as usize * self.stride;
        valid_times(&self.pages[i as usize][base..base + self.stride], tags)
    }

    /// Stamps `addr` with `stamp` and returns its first `n` times for the
    /// caller to fill, allocating the page on first touch.
    #[inline]
    pub fn write_run(&mut self, addr: u64, stamp: u64, n: usize) -> &mut [u64] {
        let i = self.page_of_mut(addr) as usize;
        let base = (addr % PAGE_SLOTS) as usize * self.stride;
        let run = &mut self.pages[i][base..base + self.stride];
        run[0] = stamp;
        &mut run[1..1 + n]
    }

    /// Number of distinct pages ever allocated (historical; never
    /// decreases).
    pub fn pages_allocated(&self) -> u64 {
        self.pages_allocated
    }

    /// Number of pages currently resident.
    pub fn live_pages(&self) -> u64 {
        self.pages.len() as u64
    }

    /// Current shadow-memory footprint in bytes of the live pages, derived
    /// from the run layout (`window + 1` words per location).
    pub fn footprint_bytes(&self) -> u64 {
        self.live_pages() * PAGE_SLOTS * (self.stride * std::mem::size_of::<u64>()) as u64
    }

    /// `(hits, misses)` of the last-page cache. Counts are collected only
    /// while `kremlin_obs` metrics are enabled at construction time.
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.cache_hits.get(), self.cache_misses.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// xorshift64*: deterministic, no external crates.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// The paper's rule stated directly: every `(location, depth)` keeps
    /// the `(tag, time)` of its last writer, and a read under `tag` sees
    /// the time only when the tags match.
    #[derive(Default)]
    struct Model(HashMap<(u64, usize), (u64, u64)>);

    impl Model {
        fn write(&mut self, loc: u64, tags: &[u64], times: &[u64]) {
            for (d, (&tag, &time)) in tags.iter().zip(times).enumerate() {
                self.0.insert((loc, d), (tag, time));
            }
        }

        /// One time per relative depth of `tags`.
        fn read(&self, loc: u64, tags: &[u64]) -> Vec<u64> {
            (0..tags.len())
                .map(|d| match self.0.get(&(loc, d)) {
                    Some(&(tag, time)) if tag == tags[d] => time,
                    _ => 0,
                })
                .collect()
        }
    }

    /// A stamped read padded to one time per relative depth of `tags`, the
    /// shape the model answers in.
    fn padded(run: &[u64], tags: &[u64]) -> Vec<u64> {
        assert!(run.len() <= tags.len(), "a read never covers more depths than are open");
        let mut v = run.to_vec();
        v.resize(tags.len(), 0);
        v
    }

    /// Drives the stamp stores and the per-slot model with one random,
    /// properly nested region stream (push and pop with fresh increasing
    /// tags) and checks that every read agrees. The stack wanders below
    /// `min_depth` and past `min_depth + window`, so reads see every
    /// tracked depth, an empty tracked range and depths outside the
    /// window; addresses cluster around page boundaries, reach
    /// `u64::MAX - PAGE_SLOTS`, and include pages never written.
    fn check_stamp_rule_against_model(seed: u64, window: usize, min_depth: usize) {
        const VALUES: u64 = 12;
        let mut rng = Rng(seed);
        let bases: [u64; 6] = [0, 1000, 1040, 1 << 30, 7 << 40, u64::MAX - PAGE_SLOTS];
        let written_bases = &bases[..5]; // the `7 << 40` page is only ever read
        let max_depth = (min_depth + window + 3) as u64;

        let mut stack: Vec<u64> = Vec::new();
        let mut next_tag = 1u64;
        let mut mem = ShadowMemory::new(window);
        let mut mem_model = Model::default();
        let mut regs = ShadowRegs::new(VALUES as usize, window);
        let mut regs_model = Model::default();
        let mut pages: HashSet<u64> = HashSet::new();

        for step in 0..20_000u32 {
            let lo = min_depth.min(stack.len());
            let hi = stack.len().min(min_depth + window);
            let tags = stack[lo..hi].to_vec();
            let stamp = next_tag - 1;
            let times: Vec<u64> = (0..tags.len()).map(|_| 1 + rng.below(1 << 20)).collect();
            let addr = if rng.below(2) == 0 {
                written_bases[rng.below(5) as usize] + rng.below(64)
            } else {
                bases[rng.below(6) as usize] + rng.below(64)
            };
            let value = rng.below(VALUES);
            match rng.below(16) {
                0..=2 if (stack.len() as u64) < max_depth => {
                    stack.push(next_tag);
                    next_tag += 1;
                }
                3..=5 if !stack.is_empty() => {
                    stack.pop();
                }
                6 => {
                    // A function entry: a fresh frame reads 0 everywhere.
                    regs = ShadowRegs::new(VALUES as usize, window);
                    regs_model = Model::default();
                    assert!(regs.read_run(value as usize, &tags).is_empty(), "step {step}");
                }
                7 | 8 if addr >> 40 != 7 => {
                    mem.write_run(addr, stamp, tags.len()).copy_from_slice(&times);
                    mem_model.write(addr, &tags, &times);
                    pages.insert(addr / PAGE_SLOTS);
                }
                9 | 10 => {
                    regs.write_run(value as usize, stamp, tags.len()).copy_from_slice(&times);
                    regs_model.write(value, &tags, &times);
                }
                11..=13 => {
                    assert_eq!(
                        padded(mem.read_run(addr, &tags), &tags),
                        mem_model.read(addr, &tags),
                        "step {step}: memory read at {addr}, open tags {tags:?}"
                    );
                }
                _ => {
                    assert_eq!(
                        padded(regs.read_run(value as usize, &tags), &tags),
                        regs_model.read(value, &tags),
                        "step {step}: register read of value {value}, open tags {tags:?}"
                    );
                }
            }
        }

        // Reads never allocate: only written pages exist, and the
        // footprint follows the stamped run layout.
        assert!(pages.len() >= 2, "the stream must write several pages");
        assert_eq!(mem.pages_allocated(), pages.len() as u64);
        assert_eq!(mem.live_pages(), pages.len() as u64);
        assert_eq!(mem.footprint_bytes(), mem.live_pages() * PAGE_SLOTS * (window as u64 + 1) * 8);
        assert!(mem.read_run(7 << 40, &[1]).is_empty(), "unallocated page reads empty");
    }

    /// Keys that differ only in their high bits (far-apart pages) and
    /// sequential keys (neighbouring pages) both spread over the bucket
    /// bits, under any seed.
    #[test]
    fn page_hashing_spreads_high_and_low_key_bits() {
        for hashing in [PageHashing::new(), PageHashing { seed: 0 }] {
            for keys in [(0..4096u64).map(|i| i << 40).collect::<Vec<_>>(), (0..4096).collect()] {
                let buckets: HashSet<u64> =
                    keys.iter().map(|&k| hashing.hash_one(k) & 4095).collect();
                assert!(buckets.len() > 2000, "{} of 4096 buckets used", buckets.len());
            }
        }
    }

    #[test]
    fn stamp_stores_match_per_slot_tags_on_nested_region_streams() {
        for (seed, window, min_depth) in [
            (0x9E37_79B9_7F4A_7C15u64, 6, 0),
            (42, 3, 0),
            (0xDEAD_BEEF, 4, 2),
            (7, 1, 1),
            (0x5EED, 24, 0),
        ] {
            check_stamp_rule_against_model(seed, window, min_depth);
        }
    }
}
