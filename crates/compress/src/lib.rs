//! # kremlin-compress — dictionary compression of region summaries
//!
//! A profiled program produces one summary per **dynamic region instance**
//! — for deeply nested loops that is easily billions of records ("750 MB to
//! 54 GB" raw for the NPB suite, paper §4.4). Kremlin's key observation is
//! that most summaries are identical, so it interns each exit tuple
//! `(static region, critical path, work, children)` into a growing
//! *alphabet*: children are described by previously-interned characters and
//! their repeat counts, so the alphabet necessarily starts at leaf regions
//! and grows toward `main`.
//!
//! Crucially the planner never decompresses: self-parallelism and instance
//! counts are computed **directly on dictionary entries**, each of which
//! may stand for thousands of dynamic regions (§4.4: "processing each
//! character therefore corresponds to processing thousands of dynamic
//! regions").
//!
//! This crate is deliberately independent of the IR: static regions are
//! identified by a plain `u32` ([`StaticId`]), so the dictionary can be
//! unit-tested and benchmarked in isolation.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Identifies a static region (the IR's `RegionId` index).
pub type StaticId = u32;

/// A character in the compression alphabet: one unique region summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EntryId(pub u32);

impl EntryId {
    /// The underlying index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EntryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// One dictionary entry: a unique `(static region, work, cp, children)`
/// summary. Children always reference earlier entries, so the entry list
/// is topologically ordered leaf-to-root.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Entry {
    /// The static region this summarizes.
    pub static_id: StaticId,
    /// Total work (sum of executed instruction latencies, children
    /// included).
    pub work: u64,
    /// Critical path length at this region's nesting level.
    pub cp: u64,
    /// Child summaries as `(entry, repeat count)`, sorted by entry ID.
    /// Order of dynamic children is *not* preserved — that is what buys
    /// the extra compression over whole-program path schemes (paper §7).
    pub children: Vec<(EntryId, u64)>,
}

impl Entry {
    /// Sum over children of `count * f(child)`.
    fn sum_children(&self, f: impl Fn(EntryId) -> u64) -> u64 {
        self.children.iter().map(|(c, n)| n * f(*c)).sum()
    }

    /// Total number of direct dynamic children.
    pub fn child_instances(&self) -> u64 {
        self.children.iter().map(|(_, n)| *n).sum()
    }

    /// Work done in this region excluding its children (`SW(R)` in paper
    /// eq. 2). Saturates at zero to tolerate rounding in synthetic inputs.
    pub fn self_work(&self, dict: &Dictionary) -> u64 {
        self.work.saturating_sub(self.sum_children(|c| dict.entry(c).work))
    }
}

/// The fields a summary is interned by, borrowed.
type SummaryRef<'a> = (StaticId, u64, u64, &'a [(EntryId, u64)]);

/// Anything that can stand for a summary in an interner lookup: an owned
/// [`Entry`] or a caller's borrowed [`SummaryRef`], so looking a summary up
/// allocates nothing.
trait Summary {
    fn summary(&self) -> SummaryRef<'_>;
}

impl Summary for Entry {
    fn summary(&self) -> SummaryRef<'_> {
        (self.static_id, self.work, self.cp, &self.children)
    }
}

impl Summary for SummaryRef<'_> {
    fn summary(&self) -> SummaryRef<'_> {
        *self
    }
}

impl Hash for dyn Summary + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.summary().hash(state);
    }
}

impl PartialEq for dyn Summary + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.summary() == other.summary()
    }
}

impl Eq for dyn Summary + '_ {}

/// An interned entry as the interner's key. It hashes and compares
/// through [`Summary`], exactly as a borrowed `dyn Summary` does.
#[derive(Debug, Clone)]
struct Key(Entry);

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.summary().hash(state);
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.0.summary() == other.0.summary()
    }
}

impl Eq for Key {}

impl<'a> Borrow<dyn Summary + 'a> for Key {
    fn borrow(&self) -> &(dyn Summary + 'a) {
        &self.0
    }
}

/// The dictionary: alphabet of unique region summaries plus raw-stream
/// accounting for the compression statistics of paper §4.4.
#[derive(Debug, Clone, Default)]
pub struct Dictionary {
    entries: Vec<Entry>,
    /// Default-hashed: summaries derive from submitted programs.
    interner: HashMap<Key, EntryId>,
    /// Per static region, the entry it last interned: a region that
    /// repeats its previous summary (every iteration of a regular loop
    /// body) is answered without hashing.
    last: Vec<Option<EntryId>>,
    /// Reused buffer for canonicalizing children given out of order.
    scratch: Vec<(EntryId, u64)>,
    /// Total dynamic region instances summarized (the uncompressed stream
    /// length).
    raw_summaries: u64,
    /// The root entry (main's summary), set by [`Dictionary::set_root`].
    root: Option<EntryId>,
}

/// Two dictionaries are equal when they hold the same entries in the same
/// order, the same root and the same raw summary count; the interner's
/// lookup state is not compared.
impl PartialEq for Dictionary {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries
            && self.root == other.root
            && self.raw_summaries == other.raw_summaries
    }
}

impl Eq for Dictionary {}

impl Dictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a region summary, returning its character. Allocates only
    /// when the summary is new.
    ///
    /// `children` may be in any order and may contain duplicate entry IDs;
    /// they are canonicalized (sorted, merged) here.
    ///
    /// # Panics
    ///
    /// Panics if a child references an entry that does not exist yet
    /// (violating leaf-to-root construction).
    pub fn intern(
        &mut self,
        static_id: StaticId,
        work: u64,
        cp: u64,
        children: &[(EntryId, u64)],
    ) -> EntryId {
        for (c, _) in children {
            assert!(c.index() < self.entries.len(), "child {c} not yet interned");
        }
        if children.windows(2).all(|w| w[0].0 < w[1].0) {
            return self.intern_canonical((static_id, work, cp, children));
        }
        let mut sorted = std::mem::take(&mut self.scratch);
        sorted.clear();
        sorted.extend_from_slice(children);
        sorted.sort_unstable_by_key(|(c, _)| *c);
        sorted.dedup_by(|a, b| {
            if a.0 == b.0 {
                b.1 += a.1;
                true
            } else {
                false
            }
        });
        let id = self.intern_canonical((static_id, work, cp, &sorted));
        self.scratch = sorted;
        id
    }

    fn intern_canonical(&mut self, summary: SummaryRef<'_>) -> EntryId {
        self.raw_summaries += 1;
        let region = summary.0 as usize;
        if region >= self.last.len() {
            self.last.resize(region + 1, None);
        }
        let memo = self.last[region].filter(|id| self.entries[id.index()].summary() == summary);
        if let Some(id) = memo.or_else(|| self.interner.get(&summary as &dyn Summary).copied()) {
            kremlin_obs::counter!("compress.dict_hits").incr();
            self.last[region] = Some(id);
            return id;
        }
        kremlin_obs::counter!("compress.dict_misses").incr();
        let id = EntryId(u32::try_from(self.entries.len()).expect("alphabet overflow"));
        let (static_id, work, cp, children) = summary;
        let entry = Entry { static_id, work, cp, children: children.to_vec() };
        self.entries.push(entry.clone());
        self.interner.insert(Key(entry), id);
        self.last[region] = Some(id);
        id
    }

    /// Marks the whole-program (root) entry.
    pub fn set_root(&mut self, root: EntryId) {
        self.root = Some(root);
    }

    /// The root entry, if set.
    pub fn root(&self) -> Option<EntryId> {
        self.root
    }

    /// Looks up an entry.
    pub fn entry(&self, id: EntryId) -> &Entry {
        &self.entries[id.index()]
    }

    /// Number of unique entries (alphabet size).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total dynamic region instances summarized.
    pub fn raw_summaries(&self) -> u64 {
        self.raw_summaries
    }

    /// Iterates entries leaf-to-root.
    pub fn iter(&self) -> impl Iterator<Item = (EntryId, &Entry)> {
        self.entries.iter().enumerate().map(|(i, e)| (EntryId(i as u32), e))
    }

    // ---- compressed-domain analyses ---------------------------------------

    /// Dynamic instance count of every entry, counted from the root
    /// (the root itself counts once). Entries unreachable from the root
    /// count zero.
    ///
    /// One pass over the alphabet — never decompresses the region stream.
    pub fn instance_counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.entries.len()];
        let Some(root) = self.root else { return counts };
        counts[root.index()] = 1;
        // Children have smaller indices than parents, so a reverse pass
        // propagates counts in one sweep.
        for i in (0..self.entries.len()).rev() {
            let c = counts[i];
            if c == 0 {
                continue;
            }
            for &(child, n) in &self.entries[i].children {
                counts[child.index()] += c * n;
            }
        }
        counts
    }

    /// Like [`Dictionary::instance_counts`], but counting only *outermost*
    /// instances with respect to static region `mask`: propagation stops at
    /// entries of that region, so an activation nested inside another
    /// activation of the same static region is not counted again. This is
    /// how per-region totals stay ≤ whole-program work under recursion
    /// (the gprof self/total-time distinction, applied to regions).
    pub fn instance_counts_masked(&self, mask: StaticId) -> Vec<u64> {
        let mut counts = vec![0u64; self.entries.len()];
        let Some(root) = self.root else { return counts };
        counts[root.index()] = 1;
        for i in (0..self.entries.len()).rev() {
            let c = counts[i];
            if c == 0 {
                continue;
            }
            // Masked entries absorb their count without propagating — an
            // activation nested inside another activation of the masked
            // region is invisible. The root always propagates, even when
            // it is itself of the masked region.
            if self.entries[i].static_id == mask && EntryId(i as u32) != root {
                continue;
            }
            for &(child, n) in &self.entries[i].children {
                counts[child.index()] += c * n;
            }
        }
        counts
    }

    /// Self-parallelism of every entry (paper eq. 1):
    /// `SP(R) = (Σ cp(children) + SW(R)) / cp(R)`.
    ///
    /// Entries with zero critical path get SP 1 (empty regions).
    pub fn self_parallelism(&self) -> Vec<f64> {
        self.entries
            .iter()
            .map(|e| {
                if e.cp == 0 {
                    return 1.0;
                }
                let child_cp = e.sum_children(|c| self.entry(c).cp);
                let sw = e.self_work(self);
                (child_cp + sw) as f64 / e.cp as f64
            })
            .collect()
    }

    /// Total parallelism (`work / cp`, paper §2.2) of every entry.
    pub fn total_parallelism(&self) -> Vec<f64> {
        self.entries
            .iter()
            .map(|e| if e.cp == 0 { 1.0 } else { e.work as f64 / e.cp as f64 })
            .collect()
    }

    // ---- compression statistics (paper §4.4) -------------------------------

    /// Estimated bytes of the uncompressed summary stream: each dynamic
    /// region instance records `(static id, work, cp, child count)` =
    /// 28 bytes, matching the fixed part of a Kremlin log record.
    pub fn raw_bytes(&self) -> u64 {
        self.raw_summaries * 28
    }

    /// Estimated bytes of the dictionary: fixed fields plus 12 bytes per
    /// distinct child reference.
    pub fn compressed_bytes(&self) -> u64 {
        self.entries.iter().map(|e| 28 + 12 * e.children.len() as u64).sum()
    }

    /// `raw_bytes / compressed_bytes` (the ~119,000× of paper §4.4).
    pub fn compression_ratio(&self) -> f64 {
        let c = self.compressed_bytes();
        if c == 0 {
            1.0
        } else {
            self.raw_bytes() as f64 / c as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the dictionary for a synthetic program:
    /// main { loop × 1 { body × N } }, every body identical.
    fn loop_dict(n_iters: u64, body_work: u64, serial: bool) -> (Dictionary, EntryId) {
        let mut d = Dictionary::new();
        let body = d.intern(2, body_work, body_work, &[]);
        // All iterations produce the same body character.
        for _ in 1..n_iters {
            let again = d.intern(2, body_work, body_work, &[]);
            assert_eq!(again, body);
        }
        let loop_cp = if serial { n_iters * body_work } else { body_work };
        let lp = d.intern(1, n_iters * body_work, loop_cp, &[(body, n_iters)]);
        let root = d.intern(0, n_iters * body_work + 10, n_iters * body_work + 10, &[(lp, 1)]);
        d.set_root(root);
        (d, lp)
    }

    #[test]
    fn identical_summaries_intern_once() {
        let (d, _) = loop_dict(1000, 50, false);
        assert_eq!(d.len(), 3); // body, loop, main
        assert_eq!(d.raw_summaries(), 1002);
    }

    #[test]
    fn fig5_parallel_children_sp_is_n() {
        // Paper Figure 5: n parallel children, no self work:
        // SP = n*cp_i / cp_i = n.
        let (d, lp) = loop_dict(8, 100, false);
        let sp = d.self_parallelism();
        assert!((sp[lp.index()] - 8.0).abs() < 1e-9);
    }

    #[test]
    fn fig5_serial_children_sp_is_one() {
        // Paper Figure 5: n serial children: SP = n*cp_i / (n*cp_i) = 1.
        let (d, lp) = loop_dict(8, 100, true);
        let sp = d.self_parallelism();
        assert!((sp[lp.index()] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn self_work_excludes_children() {
        let mut d = Dictionary::new();
        let c = d.intern(5, 40, 40, &[]);
        let p = d.intern(4, 100, 60, &[(c, 2)]);
        assert_eq!(d.entry(p).self_work(&d), 20);
        assert_eq!(d.entry(p).child_instances(), 2);
    }

    #[test]
    fn instance_counts_multiply_down_the_tree() {
        let mut d = Dictionary::new();
        let leaf = d.intern(3, 1, 1, &[]);
        let mid = d.intern(2, 10, 10, &[(leaf, 4)]);
        let root = d.intern(1, 100, 100, &[(mid, 5)]);
        d.set_root(root);
        let counts = d.instance_counts();
        assert_eq!(counts[root.index()], 1);
        assert_eq!(counts[mid.index()], 5);
        assert_eq!(counts[leaf.index()], 20);
    }

    #[test]
    fn instance_counts_without_root_are_zero() {
        let mut d = Dictionary::new();
        d.intern(0, 1, 1, &[]);
        assert!(d.instance_counts().iter().all(|&c| c == 0));
    }

    #[test]
    fn children_order_is_canonicalized() {
        let mut d = Dictionary::new();
        let a = d.intern(1, 5, 5, &[]);
        let b = d.intern(2, 6, 6, &[]);
        let p1 = d.intern(3, 30, 11, &[(b, 1), (a, 2)]);
        let p2 = d.intern(3, 30, 11, &[(a, 1), (b, 1), (a, 1)]);
        assert_eq!(p1, p2, "same multiset of children must intern identically");
    }

    #[test]
    fn summaries_of_one_region_intern_exactly_whatever_the_order() {
        let mut d = Dictionary::new();
        let leaf = d.intern(9, 1, 1, &[]);
        let a = d.intern(1, 10, 5, &[]);
        assert_eq!(d.intern(1, 10, 5, &[]), a, "a repeat is the same entry");
        let by_cp = d.intern(1, 10, 6, &[]);
        let by_children = d.intern(1, 10, 5, &[(leaf, 1)]);
        let by_work = d.intern(1, 11, 5, &[]);
        let other_region = d.intern(2, 10, 5, &[]);
        let ids = [a, by_cp, by_children, by_work, other_region];
        for (i, x) in ids.iter().enumerate() {
            assert!(ids[i + 1..].iter().all(|y| y != x), "{ids:?}");
        }
        assert_eq!(d.intern(1, 10, 5, &[]), a, "found again after the region moved on");
        assert_eq!(d.intern(1, 10, 6, &[]), by_cp);
        assert_eq!(d.len(), 6);
        assert_eq!(d.raw_summaries(), 9);
    }

    #[test]
    fn compression_ratio_grows_with_repetition() {
        let (small, _) = loop_dict(10, 50, false);
        let (large, _) = loop_dict(100_000, 50, false);
        assert_eq!(small.len(), large.len());
        assert!(large.compression_ratio() > small.compression_ratio());
        assert!(large.compression_ratio() > 10_000.0);
    }

    #[test]
    fn total_parallelism_bounds_self_parallelism_at_leaves() {
        let mut d = Dictionary::new();
        let leaf = d.intern(1, 120, 30, &[]);
        let sp = d.self_parallelism();
        let tp = d.total_parallelism();
        // For a leaf, SP == TP == work/cp.
        assert!((sp[leaf.index()] - 4.0).abs() < 1e-9);
        assert!((tp[leaf.index()] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn zero_cp_entries_are_sp_one() {
        let mut d = Dictionary::new();
        let e = d.intern(1, 0, 0, &[]);
        assert_eq!(d.self_parallelism()[e.index()], 1.0);
        assert_eq!(d.total_parallelism()[e.index()], 1.0);
    }

    #[test]
    fn masked_counts_stop_at_recursive_activations() {
        // root(s=0) -> f(s=1) -> f(s=1) -> leaf(s=2)
        let mut d = Dictionary::new();
        let leaf = d.intern(2, 5, 5, &[]);
        let f_inner = d.intern(1, 10, 10, &[(leaf, 1)]);
        let f_outer = d.intern(1, 25, 20, &[(f_inner, 2)]);
        let root = d.intern(0, 30, 25, &[(f_outer, 1)]);
        d.set_root(root);
        // Global counts see both activation layers.
        let c = d.instance_counts();
        assert_eq!(c[f_outer.index()], 1);
        assert_eq!(c[f_inner.index()], 2);
        assert_eq!(c[leaf.index()], 2);
        // Masked at s=1: only the outermost activation counts, and the
        // leaf below it is invisible (it belongs to the nested call).
        let m = d.instance_counts_masked(1);
        assert_eq!(m[f_outer.index()], 1);
        assert_eq!(m[f_inner.index()], 0);
        assert_eq!(m[leaf.index()], 0);
        // Masking an unrelated region changes nothing.
        let m2 = d.instance_counts_masked(7);
        assert_eq!(m2, c);
    }

    #[test]
    #[should_panic(expected = "not yet interned")]
    fn forward_child_reference_panics() {
        let mut d = Dictionary::new();
        d.intern(1, 1, 1, &[(EntryId(5), 1)]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;

    /// Minimal xorshift64* PRNG so these seeded property tests need no
    /// external crates (mirrors `kremlin_bench::rng::XorShift`, which this
    /// crate cannot depend on without a cycle).
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn range(&mut self, lo: u64, hi: u64) -> u64 {
            lo + ((self.next() as u128 * (hi - lo) as u128) >> 64) as u64
        }
    }

    /// A random region stream: a forest description as
    /// (static id, self work, cp fraction seed, child picks) that we fold
    /// into a dictionary bottom-up.
    fn random_spec(rng: &mut Rng) -> Vec<(u32, u64, u64, usize)> {
        let len = rng.range(1, 40) as usize;
        (0..len)
            .map(|_| {
                (
                    rng.range(0, 12) as u32,
                    rng.range(1, 500),
                    rng.range(1, 100),
                    rng.range(0, 4) as usize,
                )
            })
            .collect()
    }

    #[test]
    fn dictionary_invariants_hold_on_random_streams() {
        for case in 0..64u64 {
            let spec = random_spec(&mut Rng(0xD1C7 + case * 0x9E37_79B9));
            let mut d = Dictionary::new();
            let mut pool: Vec<EntryId> = Vec::new();
            for (sid, self_work, cp_seed, n_children) in spec {
                // Pick up to n_children existing entries as children.
                let children: Vec<(EntryId, u64)> =
                    pool.iter().rev().take(n_children).map(|&c| (c, 1 + (cp_seed % 3))).collect();
                let child_work: u64 = children.iter().map(|(c, n)| n * d.entry(*c).work).sum();
                let child_cp: u64 = children.iter().map(|(c, n)| n * d.entry(*c).cp).sum();
                let work = self_work + child_work;
                // cp between max(child cp contribution needed) and work.
                let cp = (child_cp / 2 + self_work / 2).clamp(1, work.max(1));
                pool.push(d.intern(sid, work, cp, &children));
            }
            let root = *pool.last().unwrap();
            d.set_root(root);

            // Invariants: SP >= 1 wherever cp <= work holds by construction;
            // instance counts of the root's closure are positive; compression
            // accounting is consistent.
            let counts = d.instance_counts();
            assert_eq!(counts[root.index()], 1);
            let tp = d.total_parallelism();
            for (id, e) in d.iter() {
                assert!(e.cp <= e.work.max(1));
                assert!(tp[id.index()] >= 0.99);
                assert!(e.self_work(&d) <= e.work);
            }
            // Raw accounting is linear in the stream; the dictionary is
            // not (re-interning the same stream leaves the alphabet and
            // the compressed size untouched while raw bytes double).
            assert_eq!(d.raw_bytes(), 28 * d.raw_summaries());
            let len_before = d.len();
            let compressed_before = d.compressed_bytes();
            let raw_before = d.raw_bytes();
            let entries: Vec<Entry> = d.iter().map(|(_, e)| e.clone()).collect();
            for e in entries {
                d.intern(e.static_id, e.work, e.cp, &e.children);
            }
            assert_eq!(d.len(), len_before);
            assert_eq!(d.compressed_bytes(), compressed_before);
            assert!(d.raw_bytes() > raw_before);
            // Re-interning the root summary yields the same character.
            let e0 = d.entry(root).clone();
            let again = d.intern(e0.static_id, e0.work, e0.cp, &e0.children);
            assert_eq!(again, root, "case {case}");
        }
    }
}
