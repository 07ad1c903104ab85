//! Multi-level (hierarchical) shadow state.
//!
//! HCPA "must effectively maintain many versions of the shadow memory"
//! (paper §4.2): each location carries a fixed-size array of availability
//! times, one slot per region-nesting depth, and every slot is **tagged**
//! with the region-instance ID of its writer. Two regions at the same
//! depth map to the same slot; a tag mismatch on read means the data
//! belongs to a previous region instance and time 0 is assumed instead —
//! exactly the reuse-avoidance rule of §4.2.
//!
//! Two stores exist, mirroring the paper's split:
//!
//! * [`ShadowMemory`] — a two-level table over the interpreter's slot
//!   address space, pages allocated on demand (§4.1 "dynamic allocation of
//!   shadow memory");
//! * [`ShadowRegs`] — a directly addressed per-frame table for SSA values
//!   (§4.1 "shadow register tables for local variables").
//!
//! # Hot-path layout
//!
//! The profiler touches every tracked depth of a location on every
//! instruction, so the layout is optimized for that access pattern:
//!
//! * `(tag, time)` pairs are interleaved in one [`Slot`] and laid out
//!   **depth-contiguous per location**, so the per-instruction depth loop
//!   is a branch-light scan over one contiguous run instead of two
//!   strided walks over separate tag/time arrays;
//! * [`ShadowMemory`] resolves the page **once per access** via
//!   [`ShadowMemory::gather_max`] / [`ShadowMemory::write_run`] and keeps
//!   a one-entry **last-page cache** — loop bodies hit the same page
//!   repeatedly, so most accesses skip the hash lookup entirely.
//!
//! Every `depth` argument is *relative* to the profiler's tracked range
//! (`d - min_depth`); the bulk operations cover relative depths
//! `0..t.len()` in one call. The frozen pre-optimization stores live in
//! [`crate::seed`], the reference the differential tests and the
//! benchmark baseline compare against.

use std::cell::Cell;
use std::collections::HashMap;

/// Slots per shadow-memory page (power of two).
const PAGE_SLOTS: u64 = 1024;

/// One shadow cell: the region-instance tag of the writer and the
/// availability time it recorded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Slot {
    /// Region-instance tag of the writer (0 = never written).
    pub tag: u64,
    /// Availability time recorded by the writer.
    pub time: u64,
}

/// A per-frame shadow register table: one depth-contiguous [`Slot`] run
/// per SSA value.
#[derive(Debug)]
pub struct ShadowRegs {
    window: usize,
    slots: Vec<Slot>,
}

impl ShadowRegs {
    /// Creates a table for `n_values` SSA values with `window` depth slots.
    pub fn new(n_values: usize, window: usize) -> Self {
        ShadowRegs { window, slots: vec![Slot::default(); n_values * window] }
    }

    /// Availability time of `value` at `depth`, or 0 on tag mismatch or
    /// out-of-window depth.
    #[inline]
    pub fn read(&self, value: usize, depth: usize, tag: u64) -> u64 {
        if depth >= self.window {
            return 0;
        }
        let s = self.slots[value * self.window + depth];
        if s.tag == tag {
            s.time
        } else {
            0
        }
    }

    /// Records `time` for `value` at `depth` under `tag`.
    #[inline]
    pub fn write(&mut self, value: usize, depth: usize, tag: u64, time: u64) {
        if depth >= self.window {
            return;
        }
        self.slots[value * self.window + depth] = Slot { tag, time };
    }

    /// Folds `value`'s times into `t`: for each relative depth `i`,
    /// `t[i] = max(t[i], time at depth i under tags[i])`. `tags` and `t`
    /// have equal length, at most `window`.
    #[inline]
    pub fn gather_max(&self, value: usize, tags: &[u64], t: &mut [u64]) {
        let run = &self.slots[value * self.window..];
        for ((slot, &tag), s) in t.iter_mut().zip(tags).zip(run) {
            // Branch-light select: tag mismatch contributes 0.
            let time = if s.tag == tag { s.time } else { 0 };
            *slot = (*slot).max(time);
        }
    }

    /// Writes `t[i]` under `tags[i]` at every relative depth `i`.
    #[inline]
    pub fn write_run(&mut self, value: usize, tags: &[u64], t: &[u64]) {
        let run = &mut self.slots[value * self.window..];
        for ((&time, &tag), s) in t.iter().zip(tags).zip(run) {
            *s = Slot { tag, time };
        }
    }
}

/// Two-level shadow memory over slot addresses: a hash index from page
/// key to a densely stored page of depth-contiguous [`Slot`] runs, with a
/// one-entry last-page cache in front of the index.
#[derive(Debug, Default)]
pub struct ShadowMemory {
    window: usize,
    index: HashMap<u64, u32>,
    pages: Vec<Box<[Slot]>>,
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
    #[inline]
    fn page_of(&self, addr: u64) -> Option<u32> {
        let key = addr / PAGE_SLOTS;
        let (ck, ci) = self.last.get();
        if ck == key {
            if self.collect {
                self.cache_hits.set(self.cache_hits.get() + 1);
            }
            return Some(ci);
        }
        if self.collect {
            self.cache_misses.set(self.cache_misses.get() + 1);
        }
        let i = *self.index.get(&key)?;
        self.last.set((key, i));
        Some(i)
    }

    #[inline]
    fn page_of_mut(&mut self, addr: u64) -> u32 {
        let key = addr / PAGE_SLOTS;
        let (ck, ci) = self.last.get();
        if ck == key {
            if self.collect {
                self.cache_hits.set(self.cache_hits.get() + 1);
            }
            return ci;
        }
        if self.collect {
            self.cache_misses.set(self.cache_misses.get() + 1);
        }
        let i = match self.index.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => *e.get(),
            std::collections::hash_map::Entry::Vacant(e) => {
                let i = self.pages.len() as u32;
                self.pages.push(
                    vec![Slot::default(); PAGE_SLOTS as usize * self.window].into_boxed_slice(),
                );
                self.pages_allocated += 1;
                *e.insert(i)
            }
        };
        self.last.set((key, i));
        i
    }

    /// The depth run of `addr`, if its page is allocated.
    #[inline]
    pub fn run(&self, addr: u64) -> Option<&[Slot]> {
        let page = &self.pages[self.page_of(addr)? as usize];
        let base = (addr % PAGE_SLOTS) as usize * self.window;
        Some(&page[base..base + self.window])
    }

    /// Mutable depth run of `addr`, allocating its page on first touch.
    #[inline]
    pub fn run_mut(&mut self, addr: u64) -> &mut [Slot] {
        let i = self.page_of_mut(addr) as usize;
        let window = self.window;
        let page = &mut self.pages[i];
        let base = (addr % PAGE_SLOTS) as usize * window;
        &mut page[base..base + window]
    }

    /// Creates an empty shadow memory with `window` depth slots per
    /// location.
    pub fn new(window: usize) -> Self {
        ShadowMemory {
            window,
            index: HashMap::new(),
            pages: Vec::new(),
            last: Cell::new((u64::MAX, 0)),
            pages_allocated: 0,
            cache_hits: Cell::new(0),
            cache_misses: Cell::new(0),
            collect: kremlin_obs::metrics_enabled(),
        }
    }

    /// Availability time of the value stored at `addr`, observed at
    /// `depth`, or 0 on tag mismatch, unallocated page, or out-of-window
    /// depth.
    #[inline]
    pub fn read(&self, addr: u64, depth: usize, tag: u64) -> u64 {
        if depth >= self.window {
            return 0;
        }
        let Some(run) = self.run(addr) else { return 0 };
        let s = run[depth];
        if s.tag == tag {
            s.time
        } else {
            0
        }
    }

    /// Records `time` for `addr` at `depth` under `tag`, allocating the
    /// page on first touch.
    #[inline]
    pub fn write(&mut self, addr: u64, depth: usize, tag: u64, time: u64) {
        if depth >= self.window {
            return;
        }
        self.run_mut(addr)[depth] = Slot { tag, time };
    }

    /// Folds `addr`'s times into `t` (see [`ShadowRegs::gather_max`]); an
    /// unallocated page leaves `t` untouched.
    #[inline]
    pub fn gather_max(&self, addr: u64, tags: &[u64], t: &mut [u64]) {
        let Some(run) = self.run(addr) else { return };
        for ((slot, &tag), s) in t.iter_mut().zip(tags).zip(run) {
            let time = if s.tag == tag { s.time } else { 0 };
            *slot = (*slot).max(time);
        }
    }

    /// Writes `t[i]` under `tags[i]` at every relative depth `i` of `addr`.
    #[inline]
    pub fn write_run(&mut self, addr: u64, tags: &[u64], t: &[u64]) {
        let run = self.run_mut(addr);
        for ((&time, &tag), s) in t.iter().zip(tags).zip(run) {
            *s = Slot { tag, time };
        }
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

    /// Current shadow-memory footprint in bytes, derived from the actual
    /// slot layout of live pages.
    pub fn footprint_bytes(&self) -> u64 {
        // Derived from the actual slot layout rather than a hard-coded
        // per-slot constant.
        self.live_pages() * PAGE_SLOTS * self.window as u64 * std::mem::size_of::<Slot>() as u64
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

    #[test]
    fn regs_tag_mismatch_reads_zero() {
        let mut r = ShadowRegs::new(4, 8);
        r.write(2, 3, 7, 100);
        assert_eq!(r.read(2, 3, 7), 100);
        assert_eq!(r.read(2, 3, 8), 0, "stale tag must read as 0");
        assert_eq!(r.read(2, 4, 7), 0, "other depth untouched");
        // Out-of-window writes are silent.
        let mut r = ShadowRegs::new(2, 4);
        r.write(1, 9, 1, 50);
        assert_eq!(r.read(1, 9, 1), 0);
    }

    #[test]
    fn memory_semantics_hold() {
        let mut m = ShadowMemory::new(4);
        assert_eq!(m.read(12345, 0, 1), 0);
        assert_eq!(m.pages_allocated(), 0);
        m.write(12345, 0, 1, 42);
        assert_eq!(m.pages_allocated(), 1);
        assert_eq!(m.read(12345, 0, 1), 42);
        // Same page, different slot.
        m.write(12346, 0, 1, 43);
        assert_eq!(m.pages_allocated(), 1);
        // Far address: new page.
        m.write(9_999_999, 2, 5, 44);
        assert_eq!(m.pages_allocated(), 2);
        assert_eq!(m.read(9_999_999, 2, 5), 44);
        assert_eq!(m.live_pages(), 2);
        assert!(m.footprint_bytes() > 0);

        // Depths are independent.
        m.write(100, 0, 1, 10);
        m.write(100, 1, 2, 20);
        assert_eq!(m.read(100, 0, 1), 10);
        assert_eq!(m.read(100, 1, 2), 20);
        assert_eq!(m.read(100, 1, 1), 0, "wrong tag at depth 1");

        // Two loop iterations at the same depth: iteration 2 must not see
        // iteration 1's time (paper §4.2 tag rule).
        m.write(64, 2, 1001, 55); // iteration 1 (instance 1001)
        assert_eq!(m.read(64, 2, 1002), 0); // iteration 2 (instance 1002)
        m.write(64, 2, 1002, 5);
        assert_eq!(m.read(64, 2, 1002), 5);

        // Out-of-window access is silent.
        m.write(64, 9, 1, 1);
        assert_eq!(m.read(64, 9, 1), 0);
    }

    #[test]
    fn footprint_derives_from_slot_layout() {
        let mut m = ShadowMemory::new(4);
        m.write(0, 0, 1, 1);
        assert_eq!(m.live_pages(), 1);
        assert_eq!(m.footprint_bytes(), PAGE_SLOTS * 4 * std::mem::size_of::<Slot>() as u64);
        assert_eq!(m.footprint_bytes(), m.live_pages() * PAGE_SLOTS * 4 * 16);
    }

    #[test]
    fn bulk_ops_match_scalar_ops() {
        let mut packed = ShadowMemory::new(6);
        let tags = [3u64, 4, 5, 6];
        let times = [10u64, 0, 30, 40];
        packed.write_run(777, &tags, &times);
        for (i, (&tag, &time)) in tags.iter().zip(&times).enumerate() {
            assert_eq!(packed.read(777, i, tag), time);
        }
        let mut t = [5u64, 5, 5, 5];
        // Query with one mismatching tag: that depth contributes 0.
        packed.gather_max(777, &[3, 9, 5, 6], &mut t);
        assert_eq!(t, [10, 5, 30, 40]);
        // Unallocated page: gather leaves t untouched.
        let mut t2 = [1u64, 2, 3, 4];
        packed.gather_max(999_999, &[1, 1, 1, 1], &mut t2);
        assert_eq!(t2, [1, 2, 3, 4]);
    }

    /// Differential check against the simplest possible model: a
    /// `HashMap<(addr, depth), (tag, time)>`. Randomized accesses are
    /// clustered so runs repeatedly revisit pages (exercising the
    /// last-page cache) while still spraying across many pages and the
    /// full 64-bit address range.
    fn check_memory_against_naive_model(seed: u64) {
        const WINDOW: usize = 6;
        // xorshift64*: deterministic, no external crates.
        let mut state = seed;
        let mut rng = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        // Page-crossing cluster bases plus one far-away page.
        let bases: [u64; 5] = [0, 1000, 1040, 1 << 30, u64::MAX - PAGE_SLOTS];
        let addr = move |r: u64| {
            let base = bases[(r >> 8) as usize % bases.len()];
            base + r % 64
        };

        let mut model: HashMap<(u64, usize), (u64, u64)> = HashMap::new();
        let mut mem = ShadowMemory::new(WINDOW);
        let model_read =
            |model: &HashMap<(u64, usize), (u64, u64)>, a: u64, d: usize, tag: u64| match model
                .get(&(a, d))
            {
                Some(&(t, time)) if t == tag => time,
                _ => 0,
            };

        for step in 0..20_000u64 {
            let r = rng();
            let a = addr(rng());
            let d = (r >> 16) as usize % (WINDOW + 2); // sometimes out of window
            let tag = 1 + (r >> 24) % 5; // small tag set => frequent collisions
            let time = r >> 40;
            match r % 4 {
                0 => {
                    mem.write(a, d, tag, time);
                    if d < WINDOW {
                        model.insert((a, d), (tag, time));
                    }
                }
                1 => {
                    assert_eq!(
                        mem.read(a, d, tag),
                        if d < WINDOW { model_read(&model, a, d, tag) } else { 0 },
                        "step {step}: read(addr={a}, depth={d}, tag={tag})"
                    );
                }
                2 => {
                    let n = 1 + (r >> 32) as usize % WINDOW;
                    let tags: Vec<u64> = (0..n).map(|i| 1 + (tag + i as u64) % 5).collect();
                    let times: Vec<u64> = (0..n).map(|i| time + i as u64).collect();
                    mem.write_run(a, &tags, &times);
                    for (i, (&t, &tm)) in tags.iter().zip(&times).enumerate() {
                        model.insert((a, i), (t, tm));
                    }
                }
                _ => {
                    let n = 1 + (r >> 32) as usize % WINDOW;
                    let tags: Vec<u64> = (0..n).map(|i| 1 + (tag + i as u64) % 5).collect();
                    let mut got: Vec<u64> = (0..n as u64).map(|i| time / 2 + i).collect();
                    let want: Vec<u64> = got
                        .iter()
                        .enumerate()
                        .map(|(i, &acc)| acc.max(model_read(&model, a, i, tags[i])))
                        .collect();
                    mem.gather_max(a, &tags, &mut got);
                    assert_eq!(got, want, "step {step}: gather_max(addr={a})");
                }
            }
        }

        // Final sweep: every cell the model knows about reads back equal.
        for (&(a, d), &(tag, time)) in &model {
            assert_eq!(mem.read(a, d, tag), time, "final read(addr={a}, depth={d})");
            assert_eq!(mem.read(a, d, tag + 100), 0, "final stale-tag read(addr={a})");
        }
        assert!(mem.live_pages() >= bases.len() as u64 - 1);
    }

    #[test]
    fn packed_memory_matches_naive_model_on_random_trace() {
        for seed in [0x9E37_79B9_7F4A_7C15u64, 42, 0xDEAD_BEEF] {
            check_memory_against_naive_model(seed);
        }
    }

    #[test]
    fn last_page_cache_stays_coherent() {
        let mut m = ShadowMemory::new(2);
        // Touch page A, then page B, then read back from A through the
        // cold path and the cached path.
        m.write(10, 0, 1, 11);
        m.write(5000, 0, 1, 22);
        assert_eq!(m.read(10, 0, 1), 11);
        assert_eq!(m.read(10, 1, 1), 0);
        assert_eq!(m.read(5000, 0, 1), 22);
        m.write(10, 1, 2, 33);
        assert_eq!(m.read(10, 1, 2), 33);
        assert_eq!(m.live_pages(), 2);
    }
}
