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
//! * [`ShadowMemory`] — a page table over the interpreter's slot address
//!   space, pages allocated on demand (§4.1 "dynamic allocation of shadow
//!   memory");
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
//! **once per access**, with one bounds-checked index into a flat page
//! table. A dense table fits because the address space is small: every
//! address comes from an execution, or from a replay that admits only
//! addresses the live stack holds (`kremlin_interp::memory::StackTop`),
//! and compilation refuses globals past
//! [`MAX_GLOBAL_SLOTS`](kremlin_ir::MAX_GLOBAL_SLOTS). So the table has
//! one entry per 1,024 slots of globals and stack, at most 8,192 (32 KB)
//! for 4,194,304 slots of each. Pages are still allocated only where a
//! location is written.
//!
//! Every depth is *relative* to the profiler's tracked range
//! (`d - min_depth`): a `tags` argument lists the tags of the instances
//! open at relative depths `0..tags.len()` (increasing, at most `window`
//! of them). The frozen pre-optimization stores, which keep the paper's
//! per-slot tags, live in [`crate::seed`], the reference the differential
//! tests and the benchmark baseline compare against.

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

/// Shadow memory over slot addresses: a page table indexed by page
/// number, each written page a densely stored block of stamped runs.
///
/// Addresses must lie in a compiled program's address space (execution
/// and validated replay guarantee it, and compilation caps the globals):
/// a write grows the table up to its page.
#[derive(Debug)]
pub struct ShadowMemory {
    /// Words per location: the stamp plus one time per tracked depth.
    stride: usize,
    /// One entry per page number up to the highest page written: one plus
    /// its index into `pages`, or 0 for a page never written.
    table: Vec<u32>,
    pages: Vec<Box<[u64]>>,
}

impl ShadowMemory {
    /// Creates an empty shadow memory with `window` depths per location.
    pub fn new(window: usize) -> Self {
        ShadowMemory { stride: window + 1, table: Vec::new(), pages: Vec::new() }
    }

    /// The page number of `addr` and the range of its stamped run inside
    /// that page.
    #[inline]
    fn locate(&self, addr: u64) -> (usize, std::ops::Range<usize>) {
        let base = (addr % PAGE_SLOTS) as usize * self.stride;
        ((addr / PAGE_SLOTS) as usize, base..base + self.stride)
    }

    /// The times stored at `addr` that are valid under `tags` (see
    /// [`ShadowRegs::read_run`]); empty for a page never written.
    #[inline]
    pub fn read_run(&self, addr: u64, tags: &[u64]) -> &[u64] {
        let (page, run) = self.locate(addr);
        match self.table.get(page) {
            Some(&slot) if slot != 0 => valid_times(&self.pages[slot as usize - 1][run], tags),
            _ => &[],
        }
    }

    /// Stamps `addr` with `stamp` and returns its first `n` times for the
    /// caller to fill, allocating the page on first touch.
    #[inline]
    pub fn write_run(&mut self, addr: u64, stamp: u64, n: usize) -> &mut [u64] {
        let (page, run) = self.locate(addr);
        if page >= self.table.len() {
            self.table.resize(page + 1, 0);
        }
        let slot = &mut self.table[page];
        if *slot == 0 {
            self.pages.push(vec![0; PAGE_SLOTS as usize * self.stride].into_boxed_slice());
            *slot = self.pages.len() as u32;
        }
        let run = &mut self.pages[*slot as usize - 1][run];
        run[0] = stamp;
        &mut run[1..1 + n]
    }

    /// Number of pages allocated: the pages written so far, none ever
    /// freed.
    pub fn pages_allocated(&self) -> u64 {
        self.pages.len() as u64
    }

    /// Shadow-memory footprint in bytes of the allocated pages, derived
    /// from the run layout (`window + 1` words per location).
    pub fn footprint_bytes(&self) -> u64 {
        self.pages_allocated() * PAGE_SLOTS * (self.stride * std::mem::size_of::<u64>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kremlin_interp::MachineConfig;
    use std::collections::{HashMap, HashSet};

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
    /// window; addresses cluster around page boundaries, span the largest
    /// address space a compiled program has (the most globals, then the
    /// default stack), and include pages never written, inside the page
    /// table and past its end.
    fn check_stamp_rule_against_model(seed: u64, window: usize, min_depth: usize) {
        const VALUES: u64 = 12;
        let mut rng = Rng(seed);
        let top = kremlin_ir::MAX_GLOBAL_SLOTS + MachineConfig::default().stack_slots;
        let bases: [u64; 7] =
            [0, 1000, 1040, 3 * PAGE_SLOTS - 32, top / 2, 10 * PAGE_SLOTS, top - 64];
        let written_bases = &bases[..5];
        let read_only = [bases[5] / PAGE_SLOTS, bases[6] / PAGE_SLOTS];
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
                bases[rng.below(7) as usize] + rng.below(64)
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
                7 | 8 if !read_only.contains(&(addr / PAGE_SLOTS)) => {
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

        // Reads never allocate: only written pages exist, the table ends
        // at the highest of them, and the footprint follows the stamped
        // run layout.
        assert!(pages.len() >= 2, "the stream must write several pages");
        assert_eq!(mem.pages_allocated(), pages.len() as u64);
        assert_eq!(mem.table.len() as u64, pages.iter().max().unwrap() + 1);
        assert_eq!(
            mem.footprint_bytes(),
            pages.len() as u64 * PAGE_SLOTS * (window as u64 + 1) * 8
        );
        for never in [bases[5], bases[6]] {
            assert!(mem.read_run(never, &[1]).is_empty(), "unwritten page {never} reads empty");
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
