//! Per-static-region parallelism profiles.
//!
//! The dictionary summarizes *dynamic* region instances; the planner wants
//! per-*static*-region numbers (the rows of the paper's Figure 3 output:
//! self-parallelism, coverage). This module aggregates the compressed
//! profile — without decompressing — into [`RegionStats`] keyed by
//! [`RegionId`], and derives the dynamic region graph (which static
//! regions appeared as children of which).

use kremlin_compress::{Dictionary, EntryId};
use kremlin_ir::{RegionId, RegionKind, RegionTable};
use std::collections::{BTreeMap, HashSet};

/// Aggregated statistics for one static region.
#[derive(Debug, Clone)]
pub struct RegionStats {
    /// The region.
    pub region: RegionId,
    /// Kind (function / loop / loop body).
    pub kind: RegionKind,
    /// Human-readable label (`main#L0`, `blur`, ...).
    pub label: String,
    /// Source location rendered like the paper's plan column
    /// (`file.kc (49-58)`).
    pub location: String,
    /// Number of dynamic instances observed.
    pub instances: u64,
    /// Total work across all instances (children included).
    pub total_work: u64,
    /// Fraction of whole-program work spent in this region (`[0, 1]`).
    pub coverage: f64,
    /// Work-weighted average self-parallelism.
    pub self_p: f64,
    /// Work-weighted average total parallelism (`work/cp`).
    pub total_p: f64,
    /// Average direct dynamic children per instance (iteration count for
    /// loops).
    pub avg_children: f64,
    /// DOALL classification (paper §5.1: SP ≈ iteration count).
    pub is_doall: bool,
    /// Whether this loop contains a detected reduction accumulator.
    pub is_reduction: bool,
}

/// Integer accumulator for one static region's instances at one nesting
/// depth. Everything is exact integer arithmetic; floats appear only in
/// the final [`RegionStats`] derivation, so accumulators from different
/// runs (or depth-sharded slices) can be recombined without rounding
/// drift.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct DepthAcc {
    instances: u64,
    work: u64,
    children_instances: u64,
    /// Integer weight per distinct `(sp, tp)` bit pattern. Grouping by
    /// *value* before the f64 reduction makes the aggregate independent of
    /// how the dictionary partitioned instances into entries: depth-ranged
    /// runs collapse untracked-depth descendants differently, refining or
    /// coarsening the entry partition without changing any instance's
    /// sp/tp — so stitched profiles come out bit-identical to full-window
    /// ones.
    groups: BTreeMap<(u64, u64), u128>,
}

impl DepthAcc {
    fn add(&mut self, other: &DepthAcc) {
        self.instances += other.instances;
        self.work += other.work;
        self.children_instances += other.children_instances;
        for (&k, &w) in &other.groups {
            *self.groups.entry(k).or_insert(0) += w;
        }
    }
}

/// The aggregated profile of one run.
#[derive(Debug, Clone)]
pub struct ParallelismProfile {
    /// Stats per region; `None` for regions never executed.
    stats: Vec<Option<RegionStats>>,
    /// Per region, per nesting depth, the exact integer accumulators the
    /// stats were derived from. A region called from several places
    /// appears at several depths; [`ParallelismProfile::stitch_at`] uses this
    /// to take each depth's numbers from the depth-range run that tracked
    /// it.
    depth_accs: Vec<BTreeMap<usize, DepthAcc>>,
    /// Whole-program work.
    pub root_work: u64,
    /// The root (main) region.
    pub root: Option<RegionId>,
    /// Dynamic region-graph children: `graph[r]` = static regions observed
    /// as direct children of `r` (includes call edges).
    graph: Vec<HashSet<RegionId>>,
    /// The compressed dictionary the profile was computed from (the
    /// simulator replays plans over it).
    pub dict: Dictionary,
}

/// Depth-resolved outermost-instance counts for entries, masked at static
/// region `mask`: `counts[e][d]` is the number of dynamic instances of
/// entry `e` at nesting depth `d` that are not nested inside another
/// activation of `mask` (the depth-resolved analogue of
/// [`Dictionary::instance_counts_masked`]). Depth is path length from the
/// root, a purely structural property — identical for every depth-range
/// run of the same execution, however differently their dictionaries
/// collapse instances into entries.
fn depth_counts_masked(dict: &Dictionary, mask: u32) -> Vec<BTreeMap<usize, u64>> {
    let n = dict.iter().count();
    let mut counts: Vec<BTreeMap<usize, u64>> = vec![BTreeMap::new(); n];
    let Some(root) = dict.root() else { return counts };
    counts[root.index()].insert(0, 1);
    // Children have smaller indices than parents, so a reverse pass
    // propagates counts in one sweep.
    for i in (0..n).rev() {
        if counts[i].is_empty() {
            continue;
        }
        let e = dict.entry(EntryId(i as u32));
        // Masked entries absorb their count without propagating (the root
        // always propagates, as in `instance_counts_masked`).
        if e.static_id == mask && EntryId(i as u32) != root {
            continue;
        }
        let parent = counts[i].clone();
        for &(child, m) in &e.children {
            for (&d, &c) in &parent {
                *counts[child.index()].entry(d + 1).or_insert(0) += c * m;
            }
        }
    }
    counts
}

/// Derives the numeric [`RegionStats`] fields from an integer accumulator.
/// Every profile — built directly or stitched from depth slices — goes
/// through this one function, so equal accumulators give bit-equal floats.
fn numeric_stats(meta: RegionStats, a: &DepthAcc, root_work: u64) -> RegionStats {
    // Reduce the value groups in sorted order: deterministic and
    // entry-partition independent.
    let mut w_sp = 0.0;
    let mut w_tp = 0.0;
    let mut weight = 0.0;
    for (&(sp_bits, tp_bits), &w) in &a.groups {
        let w = w as f64;
        w_sp += w * f64::from_bits(sp_bits);
        w_tp += w * f64::from_bits(tp_bits);
        weight += w;
    }
    let self_p = if weight > 0.0 { w_sp / weight } else { 1.0 };
    let total_p = if weight > 0.0 { w_tp / weight } else { 1.0 };
    let avg_children = a.children_instances as f64 / a.instances.max(1) as f64;
    // DOALL: a loop whose SP tracks its iteration count (within 20%, at
    // least 2 iterations).
    let is_doall =
        meta.kind == RegionKind::Loop && avg_children >= 2.0 && self_p >= 0.8 * avg_children;
    RegionStats {
        instances: a.instances,
        total_work: a.work,
        coverage: if root_work > 0 { a.work as f64 / root_work as f64 } else { 0.0 },
        self_p,
        total_p,
        avg_children,
        is_doall,
        ..meta
    }
}

impl ParallelismProfile {
    /// Aggregates a dictionary into per-region statistics.
    ///
    /// `reduction_loops` comes from the static induction/reduction
    /// analysis (`CompiledUnit::reduction_loops`).
    pub fn build(
        regions: &RegionTable,
        dict: Dictionary,
        reduction_loops: &HashSet<RegionId>,
    ) -> ParallelismProfile {
        let n = regions.len();
        let counts = dict.instance_counts();
        let sp = dict.self_parallelism();
        let tp = dict.total_parallelism();

        // Per-region totals must not double-count recursive activations:
        // for each static region appearing in the profile, count only the
        // *outermost* instances (propagation masked at that region),
        // resolved by nesting depth so depth-sharded runs can be stitched
        // per depth.
        let mut masked: std::collections::HashMap<u32, Vec<BTreeMap<usize, u64>>> =
            std::collections::HashMap::new();

        let mut depth_accs: Vec<BTreeMap<usize, DepthAcc>> = vec![BTreeMap::new(); n];
        let mut graph: Vec<HashSet<RegionId>> = vec![HashSet::new(); n];

        for (id, e) in dict.iter() {
            if counts[id.index()] == 0 {
                continue;
            }
            let s = e.static_id as usize;
            let by_depth = masked
                .entry(e.static_id)
                .or_insert_with(|| depth_counts_masked(&dict, e.static_id));
            for (&d, &c) in &by_depth[id.index()] {
                if c == 0 {
                    continue;
                }
                let a = depth_accs[s].entry(d).or_default();
                a.instances += c;
                a.work += c * e.work;
                // Weight by work so long-running instances dominate, with
                // +1 to keep zero-work instances from vanishing.
                let w = c as u128 * (e.work as u128 + 1);
                *a.groups
                    .entry((sp[id.index()].to_bits(), tp[id.index()].to_bits()))
                    .or_insert(0) += w;
                a.children_instances += c * e.child_instances();
            }
            for (child, _) in &e.children {
                let child_sid = dict.entry(*child).static_id;
                graph[s].insert(RegionId(child_sid));
            }
        }

        let root = dict.root().map(|r| RegionId(dict.entry(r).static_id));
        let root_work = dict.root().map(|r| dict.entry(r).work).unwrap_or(0);

        let stats = (0..n)
            .map(|s| {
                let mut a = DepthAcc::default();
                for acc in depth_accs[s].values() {
                    a.add(acc);
                }
                if a.instances == 0 {
                    return None;
                }
                let info = regions.info(RegionId(s as u32));
                Some(numeric_stats(
                    RegionStats {
                        region: info.id,
                        kind: info.kind,
                        label: info.label.clone(),
                        location: format!("{} ({})", "", info.span.line_range()),
                        instances: 0,
                        total_work: 0,
                        coverage: 0.0,
                        self_p: 1.0,
                        total_p: 1.0,
                        avg_children: 0.0,
                        is_doall: false,
                        is_reduction: reduction_loops.contains(&info.id),
                    },
                    &a,
                    root_work,
                ))
            })
            .collect();

        ParallelismProfile { stats, depth_accs, root_work, root, graph, dict }
    }

    /// Sets the source file name used in the `location` field.
    pub fn set_source_name(&mut self, name: &str) {
        for s in self.stats.iter_mut().flatten() {
            // location was rendered with an empty name placeholder.
            if s.location.starts_with(" (") {
                s.location = format!("{name}{}", s.location);
            }
        }
    }

    /// Stats for one region (`None` if it never executed).
    pub fn stats(&self, r: RegionId) -> Option<&RegionStats> {
        self.stats.get(r.index()).and_then(|s| s.as_ref())
    }

    /// Iterates stats of all executed regions, in region-ID order.
    pub fn iter(&self) -> impl Iterator<Item = &RegionStats> {
        self.stats.iter().flatten()
    }

    /// Number of executed regions.
    pub fn executed_regions(&self) -> usize {
        self.stats.iter().flatten().count()
    }

    /// Direct children of `r` in the dynamic region graph (call edges
    /// included).
    pub fn children(&self, r: RegionId) -> impl Iterator<Item = RegionId> + '_ {
        self.graph.get(r.index()).into_iter().flatten().copied()
    }

    /// All regions reachable from `r` (excluding `r` itself).
    pub fn descendants(&self, r: RegionId) -> HashSet<RegionId> {
        let mut out = HashSet::new();
        let mut stack: Vec<RegionId> = self.children(r).collect();
        while let Some(c) = stack.pop() {
            if out.insert(c) {
                stack.extend(self.children(c));
            }
        }
        out
    }

    /// Stitches depth-sliced runs into one profile (paper §4.2: the
    /// depth-range flag "facilitat[es] parallel data collection for the
    /// HCPA").
    ///
    /// `starts[k]` is the first depth *owned* by slice `k` (`starts[0]`
    /// must be 0, strictly increasing); slice `k` must be the profile of a
    /// run with `min_depth = starts[k]` whose window also covers the next
    /// slice's first depth (the one-depth overlap of
    /// [`crate::parallel::plan_shards_weighted`]'s plans). Slicing only
    /// affects *timing* state: every slice observes the same region
    /// instances at the same depths, but an instance's cp (and so sp/tp)
    /// is only valid in the slice whose range covers both the instance's
    /// depth and its children's. Stitching therefore recombines the
    /// per-`(region, depth)` accumulators, taking each depth `d` from the
    /// last slice whose start is `<= d` — a region called at several
    /// depths (say, a function invoked at top level *and* deep inside a
    /// loop nest) gets each call site's instances from the slice that
    /// tracked them. The result is bit-identical to a full-window run
    /// ([`ParallelismProfile::identical_stats`]).
    ///
    /// Coverage is normalized against slice 0's whole-program work: a
    /// slice whose range excludes depth 0 credits call latencies only
    /// inside its range, so its own root work runs short; slice 0 tracks
    /// depth 0 and matches a full run's.
    ///
    /// The stitched profile supports *planning* (per-region stats and the
    /// region graph are correct); the embedded dictionary is the slice-0
    /// dictionary, whose per-entry cp values are only valid inside slice
    /// 0's range — run an unsliced profile when the simulator is needed.
    ///
    /// # Panics
    ///
    /// Panics if `slices` is empty, `starts` has a different length,
    /// `starts[0] != 0`, starts are not strictly increasing, or the
    /// profiles disagree on region count.
    #[must_use]
    pub fn stitch_at(slices: &[ParallelismProfile], starts: &[usize]) -> ParallelismProfile {
        assert!(!slices.is_empty(), "stitch of zero slices");
        assert_eq!(slices.len(), starts.len(), "one start depth per slice");
        assert_eq!(starts[0], 0, "slice 0 must own depth 0");
        assert!(starts.windows(2).all(|w| w[0] < w[1]), "starts must strictly increase");
        let n = slices[0].stats.len();
        assert!(slices.iter().all(|p| p.stats.len() == n), "mismatched modules");
        let owner = |d: usize| starts.partition_point(|&s| s <= d) - 1;
        let mut merged = slices[0].clone();
        let root_work = merged.root_work;
        for r in 0..n {
            let mut accs: BTreeMap<usize, DepthAcc> = BTreeMap::new();
            for (k, slice) in slices.iter().enumerate() {
                for (&d, a) in &slice.depth_accs[r] {
                    if owner(d) == k {
                        accs.insert(d, a.clone());
                    }
                }
            }
            let mut total = DepthAcc::default();
            for a in accs.values() {
                total.add(a);
            }
            merged.stats[r] = match merged.stats[r].take() {
                Some(meta) if total.instances > 0 => Some(numeric_stats(meta, &total, root_work)),
                other => other,
            };
            merged.depth_accs[r] = accs;
        }
        merged
    }

    /// True when two profiles agree **bit-for-bit** on every per-region
    /// statistic (floating-point fields compared by bit pattern), the
    /// root, total work, and the region graph.
    ///
    /// The embedded dictionaries are *not* compared: a stitched profile
    /// carries its slice-0 dictionary, which legitimately differs from a
    /// full-window run's. This is the equivalence that depth-sharded
    /// collection ([`crate::parallel`]) guarantees against a single
    /// full-window pass.
    #[must_use]
    pub fn identical_stats(&self, other: &ParallelismProfile) -> bool {
        fn feq(a: f64, b: f64) -> bool {
            a.to_bits() == b.to_bits()
        }
        fn seq(a: &RegionStats, b: &RegionStats) -> bool {
            a.region == b.region
                && a.kind == b.kind
                && a.label == b.label
                && a.location == b.location
                && a.instances == b.instances
                && a.total_work == b.total_work
                && feq(a.coverage, b.coverage)
                && feq(a.self_p, b.self_p)
                && feq(a.total_p, b.total_p)
                && feq(a.avg_children, b.avg_children)
                && a.is_doall == b.is_doall
                && a.is_reduction == b.is_reduction
        }
        self.root == other.root
            && self.root_work == other.root_work
            && self.stats.len() == other.stats.len()
            && self.stats.iter().zip(&other.stats).all(|(a, b)| match (a, b) {
                (None, None) => true,
                (Some(a), Some(b)) => seq(a, b),
                _ => false,
            })
            && self.depth_accs == other.depth_accs
            && self.graph == other.graph
    }

    /// Work-weighted merge of several runs of the *same module* (paper
    /// §2.4: "Kremlin supports aggregation of data from multiple runs").
    ///
    /// # Panics
    ///
    /// Panics if `profiles` is empty or the profiles have different region
    /// counts.
    pub fn merge(profiles: &[ParallelismProfile]) -> ParallelismProfile {
        assert!(!profiles.is_empty(), "merge of zero profiles");
        let n = profiles[0].stats.len();
        assert!(
            profiles.iter().all(|p| p.stats.len() == n),
            "profiles come from different modules"
        );
        let mut merged = profiles[0].clone();
        for p in &profiles[1..] {
            merged.root_work += p.root_work;
            for (i, s) in p.stats.iter().enumerate() {
                let Some(s) = s else { continue };
                match &mut merged.stats[i] {
                    slot @ None => *slot = Some(s.clone()),
                    Some(m) => {
                        let w0 = m.total_work as f64;
                        let w1 = s.total_work as f64;
                        let tot = (w0 + w1).max(1.0);
                        m.self_p = (m.self_p * w0 + s.self_p * w1) / tot;
                        m.total_p = (m.total_p * w0 + s.total_p * w1) / tot;
                        m.avg_children = (m.avg_children * m.instances as f64
                            + s.avg_children * s.instances as f64)
                            / (m.instances + s.instances).max(1) as f64;
                        m.instances += s.instances;
                        m.total_work += s.total_work;
                        m.is_doall = m.is_doall && s.is_doall;
                        m.is_reduction |= s.is_reduction;
                    }
                }
                merged.graph[i].extend(p.graph[i].iter().copied());
            }
            for (i, accs) in p.depth_accs.iter().enumerate() {
                for (&d, a) in accs {
                    merged.depth_accs[i].entry(d).or_default().add(a);
                }
            }
        }
        let root_work = merged.root_work;
        for s in merged.stats.iter_mut().flatten() {
            s.coverage = if root_work > 0 { s.total_work as f64 / root_work as f64 } else { 0.0 };
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::{HcpaConfig, Profiler};
    use kremlin_interp::{run_with_hook, MachineConfig};
    use kremlin_ir::compile;

    fn profile(src: &str) -> (kremlin_ir::CompiledUnit, ParallelismProfile) {
        let unit = compile(src, "t.kc").expect("compiles");
        let mut p = Profiler::new(&unit.module, HcpaConfig::default());
        run_with_hook(&unit.module, &mut p, MachineConfig::default()).expect("runs");
        let (dict, _) = p.finish();
        let prof = ParallelismProfile::build(&unit.module.regions, dict, &unit.reduction_loops());
        (unit, prof)
    }

    const DOALL_SRC: &str = "float a[64]; float b[64];\n\
        int main() {\n\
          for (int i = 0; i < 64; i++) { a[i] = (float) i; }\n\
          for (int i = 0; i < 64; i++) { b[i] = a[i] * 2.0 + 1.0; }\n\
          return (int) b[63];\n\
        }";

    #[test]
    fn doall_classification() {
        let (unit, prof) = profile(DOALL_SRC);
        let l1 = unit.module.regions.by_label("main#L1").unwrap();
        let s = prof.stats(l1).unwrap();
        assert!(s.is_doall, "SP {} vs iters {}", s.self_p, s.avg_children);
        assert!((s.avg_children - 64.0).abs() < 1e-9);
        assert!(s.coverage > 0.1 && s.coverage < 1.0);
    }

    #[test]
    fn coverage_of_root_is_one() {
        let (unit, prof) = profile(DOALL_SRC);
        let main = unit.module.regions.by_label("main").unwrap();
        let s = prof.stats(main).unwrap();
        assert!((s.coverage - 1.0).abs() < 1e-9);
        assert_eq!(s.instances, 1);
        assert_eq!(prof.root, Some(main));
    }

    #[test]
    fn region_graph_follows_call_edges() {
        let (unit, prof) = profile(
            "float sq(float x) { return x * x; }\n\
             int main() { float s = 0.0; for (int i = 0; i < 4; i++) { s += sq((float) i); } return (int) s; }",
        );
        let body = unit.module.regions.by_label("main#L0b").unwrap();
        let sq = unit.module.regions.by_label("sq").unwrap();
        let children: Vec<_> = prof.children(body).collect();
        assert!(children.contains(&sq), "call edge body -> sq missing: {children:?}");
        let main = unit.module.regions.by_label("main").unwrap();
        assert!(prof.descendants(main).contains(&sq));
    }

    #[test]
    fn unexecuted_regions_have_no_stats() {
        let (unit, prof) = profile(
            "void never() { for (int i = 0; i < 5; i++) { } }\n\
             int main() { if (0) { never(); } return 0; }",
        );
        let never = unit.module.regions.by_label("never").unwrap();
        assert!(prof.stats(never).is_none());
        assert!(prof.executed_regions() >= 1);
    }

    #[test]
    fn reduction_flag_propagates() {
        let (unit, prof) = profile(
            "float a[32];\n\
             int main() { float s = 0.0; for (int i = 0; i < 32; i++) { s += a[i]; } return (int) s; }",
        );
        let l0 = unit.module.regions.by_label("main#L0").unwrap();
        assert!(prof.stats(l0).unwrap().is_reduction);
    }

    #[test]
    fn recursion_does_not_inflate_coverage() {
        let (unit, prof) = profile(
            "int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }\n\
             int main() { return fib(14); }",
        );
        let fib = unit.module.regions.by_label("fib").unwrap();
        let s = prof.stats(fib).unwrap();
        assert!(
            s.coverage <= 1.0 + 1e-9,
            "recursive coverage must stay <= 100%, got {}",
            s.coverage * 100.0
        );
        assert!(s.coverage > 0.9, "fib dominates the program: {}", s.coverage);
        // Only the outermost activation is counted.
        assert_eq!(s.instances, 1);
    }

    #[test]
    fn merge_combines_runs() {
        let (_, p1) = profile(DOALL_SRC);
        let (_, p2) = profile(DOALL_SRC);
        let merged = ParallelismProfile::merge(&[p1.clone(), p2]);
        let r = merged.root.unwrap();
        assert_eq!(merged.stats(r).unwrap().instances, 2);
        assert_eq!(merged.root_work, 2 * p1.root_work);
        // Coverage stays normalized.
        assert!((merged.stats(r).unwrap().coverage - 1.0).abs() < 1e-9);
    }

    #[test]
    fn set_source_name_rewrites_locations() {
        let (unit, mut prof) = profile(DOALL_SRC);
        prof.set_source_name("demo.kc");
        let main = unit.module.regions.by_label("main").unwrap();
        assert!(prof.stats(main).unwrap().location.starts_with("demo.kc ("));
    }
}
