//! The OpenMP planner personality (paper §5.1).
//!
//! Constraints encoded, straight from the paper:
//!
//! * **No nested parallel regions** — "the planner disallows nested
//!   parallel regions to avoid the performance penalty we observed":
//!   formally, pick a region set with at most one selected node on any
//!   root-to-leaf path of the region graph.
//! * **Bottom-up dynamic programming** — a greedy pick of the single best
//!   region is suboptimal when a set of child regions collectively beats
//!   their parent (observed in `ft` and `lu`): at each node take
//!   `max(saved(node), Σ best(children))`.
//! * **Thresholds** — minimum self-parallelism (default 5.0), minimum
//!   whole-program speedup of 0.1% for DOALL and 3% for DOACROSS regions
//!   (DOACROSS is synchronization-heavy and costs more programmer effort),
//!   and enough per-invocation work for reduction loops to amortize
//!   OpenMP's reduction overhead.
//! * **No core-count cap** on estimated speedup (§5.1 found the cap
//!   counterproductive; high SP correlates with real speedup headroom).

use crate::estimate::{program_speedup, time_saved};
use crate::plan::{Plan, PlanEntry, PlanKind};
use crate::Personality;
use kremlin_hcpa::{ParallelismProfile, RegionStats};
use kremlin_ir::{RegionId, RegionKind};
use std::collections::{HashMap, HashSet};

/// Tunable thresholds of the OpenMP personality.
#[derive(Debug, Clone, Copy)]
pub struct OpenMpParams {
    /// Minimum self-parallelism for a region to be exploited (paper: 5.0).
    pub sp_min: f64,
    /// Minimum ideal whole-program speedup for DOALL regions
    /// (paper: 0.1% → 1.001).
    pub doall_min_speedup: f64,
    /// Minimum ideal whole-program speedup for DOACROSS regions
    /// (paper: 3% → 1.03).
    pub doacross_min_speedup: f64,
    /// Minimum average work per dynamic loop instance for reduction loops
    /// (amortizes OpenMP reduction overhead; §5.1's art/ammp-vs-ep
    /// distinction).
    pub reduction_min_work: u64,
    /// Minimum average work per dynamic loop instance for *any* region —
    /// the "region granularity" machine property of §5.3: fork–join costs
    /// bound the smallest region that can attain speedup.
    pub min_instance_work: u64,
}

impl Default for OpenMpParams {
    fn default() -> Self {
        OpenMpParams {
            sp_min: 5.0,
            doall_min_speedup: 1.001,
            doacross_min_speedup: 1.03,
            reduction_min_work: 10_000,
            min_instance_work: 800,
        }
    }
}

/// The OpenMP planner.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpenMpPlanner {
    /// Threshold parameters.
    pub params: OpenMpParams,
}

impl OpenMpPlanner {
    /// Creates a planner with custom thresholds.
    pub fn with_params(params: OpenMpParams) -> Self {
        OpenMpPlanner { params }
    }

    /// Whether a region can be parallelized under OpenMP, and how.
    /// Returns `(kind, ideal time saved)`.
    fn eligible(&self, s: &RegionStats, root_work: u64) -> Option<(PlanKind, f64)> {
        if s.kind != RegionKind::Loop {
            return None; // OpenMP pragmas target loops
        }
        if s.self_p < self.params.sp_min {
            return None;
        }
        if s.total_work / s.instances.max(1) < self.params.min_instance_work {
            return None; // too fine-grained for fork-join to amortize
        }
        let kind = if s.is_doall {
            if s.is_reduction {
                PlanKind::Reduction
            } else {
                PlanKind::Doall
            }
        } else {
            PlanKind::Doacross
        };
        if kind == PlanKind::Reduction {
            let per_instance = s.total_work / s.instances.max(1);
            if per_instance < self.params.reduction_min_work {
                return None;
            }
        }
        let est = program_speedup(s, root_work);
        let threshold = match kind {
            PlanKind::Doacross => self.params.doacross_min_speedup,
            _ => self.params.doall_min_speedup,
        };
        if est < threshold {
            return None;
        }
        Some((kind, time_saved(s)))
    }
}

impl Personality for OpenMpPlanner {
    fn name(&self) -> &'static str {
        "openmp"
    }

    fn plan(&self, profile: &ParallelismProfile, exclude: &HashSet<RegionId>) -> Plan {
        let _span = kremlin_obs::span("plan");
        let Some(root) = profile.root else {
            return Plan { personality: self.name().into(), entries: vec![] };
        };

        // Per-region own saving (0 if ineligible/excluded).
        let own: HashMap<RegionId, (PlanKind, f64)> = profile
            .iter()
            .filter(|s| !exclude.contains(&s.region))
            .filter_map(|s| self.eligible(s, profile.root_work).map(|e| (s.region, e)))
            .collect();
        kremlin_obs::counter!("planner.candidates").add(own.len() as u64);

        // Bottom-up DP over the (possibly cyclic, for recursion) region
        // graph: iterative post-order with an on-stack set; back edges
        // contribute zero (a region cannot host a plan "beneath itself").
        let mut best: HashMap<RegionId, f64> = HashMap::new();
        let mut take_self: HashMap<RegionId, bool> = HashMap::new();
        let mut on_stack: HashSet<RegionId> = HashSet::new();
        enum Step {
            Enter(RegionId),
            Leave(RegionId),
        }
        let mut stack = vec![Step::Enter(root)];
        while let Some(step) = stack.pop() {
            match step {
                Step::Enter(r) => {
                    if best.contains_key(&r) || on_stack.contains(&r) {
                        continue;
                    }
                    on_stack.insert(r);
                    stack.push(Step::Leave(r));
                    for c in profile.children(r) {
                        stack.push(Step::Enter(c));
                    }
                }
                Step::Leave(r) => {
                    on_stack.remove(&r);
                    let children_sum: f64 =
                        profile.children(r).map(|c| best.get(&c).copied().unwrap_or(0.0)).sum();
                    let own_saved = own.get(&r).map(|(_, s)| *s).unwrap_or(0.0);
                    // Strictly-greater keeps the plan minimal when a parent
                    // ties with its children.
                    if own_saved > children_sum {
                        best.insert(r, own_saved);
                        take_self.insert(r, true);
                    } else {
                        best.insert(r, children_sum);
                        take_self.insert(r, false);
                    }
                }
            }
        }

        // Extract the selection: descend until a taken region, then stop
        // (no nesting below a parallelized region).
        let mut selected: Vec<RegionId> = Vec::new();
        let mut seen: HashSet<RegionId> = HashSet::new();
        let mut stack = vec![root];
        while let Some(r) = stack.pop() {
            if !seen.insert(r) {
                continue;
            }
            if take_self.get(&r).copied().unwrap_or(false)
                && best.get(&r).copied().unwrap_or(0.0) > 0.0
            {
                selected.push(r);
                continue;
            }
            stack.extend(profile.children(r));
        }

        // Enforce the antichain property globally: shared function nodes
        // can otherwise be reached both directly and below another
        // selection. Keep higher-benefit regions.
        selected.sort_by(|a, b| {
            let sa = own.get(a).map(|(_, s)| *s).unwrap_or(0.0);
            let sb = own.get(b).map(|(_, s)| *s).unwrap_or(0.0);
            // Tie-break on the static region id so the plan does not
            // depend on profile traversal order (the region graph's hash
            // sets iterate in a different order in every profile).
            sb.partial_cmp(&sa).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(b))
        });
        let mut kept: Vec<RegionId> = Vec::new();
        let mut blocked: HashSet<RegionId> = HashSet::new();
        for r in selected {
            if blocked.contains(&r) {
                continue;
            }
            let desc = profile.descendants(r);
            if kept.iter().any(|k| desc.contains(k)) {
                continue;
            }
            blocked.extend(desc);
            kept.push(r);
        }

        let mut entries: Vec<PlanEntry> = kept
            .into_iter()
            .filter_map(|r| {
                let s = profile.stats(r)?;
                let (kind, _) = *own.get(&r)?;
                Some(PlanEntry {
                    region: r,
                    label: s.label.clone(),
                    location: s.location.clone(),
                    self_p: s.self_p,
                    coverage: s.coverage,
                    est_speedup: program_speedup(s, profile.root_work),
                    kind,
                    verdict: None,
                })
            })
            .collect();
        entries.sort_by(|a, b| {
            b.est_speedup
                .partial_cmp(&a.est_speedup)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(b.coverage.partial_cmp(&a.coverage).unwrap_or(std::cmp::Ordering::Equal))
                .then(a.region.cmp(&b.region))
        });
        kremlin_obs::counter!("planner.selected").add(entries.len() as u64);
        Plan { personality: self.name().into(), entries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::profile_src;

    #[test]
    fn recommends_the_doall_loop() {
        let (unit, profile) = profile_src(
            "float a[256]; float b[256];\n\
             int main() {\n\
               for (int i = 0; i < 256; i++) { a[i] = (float) i; }\n\
               for (int r = 0; r < 50; r++) {\n\
                 for (int i = 0; i < 256; i++) { b[i] = a[i] * 2.0 + sqrt(a[i]); }\n\
               }\n\
               return (int) b[1];\n\
             }",
        );
        let plan = OpenMpPlanner::default().plan(&profile, &HashSet::new());
        assert!(!plan.is_empty());
        // The repeat loop (L1) is serial-ish at top (r iterations are
        // identical DOALLs) — the planner may pick L1 (outer, DOALL since
        // iterations independent) or L2; both are fine, but the big inner
        // nest must be covered by exactly one of them.
        let l1 = unit.module.regions.by_label("main#L1").unwrap();
        let l2 = unit.module.regions.by_label("main#L2").unwrap();
        assert!(plan.contains(l1) ^ plan.contains(l2), "exactly one of the nest: {plan}");
    }

    #[test]
    fn no_nested_selections() {
        let (_, profile) = profile_src(
            "float m[64][64];\n\
             int main() {\n\
               for (int i = 0; i < 64; i++) {\n\
                 for (int j = 0; j < 64; j++) { m[i][j] = (float)(i + j) * 0.5; }\n\
               }\n\
               return (int) m[1][2];\n\
             }",
        );
        let plan = OpenMpPlanner::default().plan(&profile, &HashSet::new());
        let regions = plan.regions();
        for &r in &regions {
            let desc = profile.descendants(r);
            for &other in &regions {
                if other != r {
                    assert!(!desc.contains(&other), "nested selection {other:?} under {r:?}");
                }
            }
        }
        assert_eq!(plan.len(), 1, "one loop of the nest: {plan}");
    }

    #[test]
    fn serial_loops_are_rejected() {
        let (_, profile) = profile_src(
            "float x[512];\n\
             int main() {\n\
               x[0] = 1.0;\n\
               for (int i = 1; i < 512; i++) { x[i] = x[i - 1] * 0.99 + 1.0; }\n\
               return (int) x[511];\n\
             }",
        );
        let plan = OpenMpPlanner::default().plan(&profile, &HashSet::new());
        assert!(plan.is_empty(), "serial recurrence must not be planned: {plan}");
    }

    #[test]
    fn exclusion_list_reroutes_the_plan() {
        let (unit, profile) = profile_src(
            "float m[64][64];\n\
             int main() {\n\
               for (int i = 0; i < 64; i++) {\n\
                 for (int j = 0; j < 64; j++) { m[i][j] = (float)(i * j) * 0.5; }\n\
               }\n\
               return (int) m[1][2];\n\
             }",
        );
        let planner = OpenMpPlanner::default();
        let plan1 = planner.plan(&profile, &HashSet::new());
        assert_eq!(plan1.len(), 1);
        let first = plan1.entries[0].region;
        // User says "I can't parallelize that one" → planner recommends the
        // other level of the nest (paper §3's exclusion-list workflow).
        let mut exclude = HashSet::new();
        exclude.insert(first);
        let plan2 = planner.plan(&profile, &exclude);
        assert_eq!(plan2.len(), 1);
        assert_ne!(plan2.entries[0].region, first);
        let l0 = unit.module.regions.by_label("main#L0").unwrap();
        let l1 = unit.module.regions.by_label("main#L1").unwrap();
        assert!(plan2.contains(l0) || plan2.contains(l1));
    }

    #[test]
    fn small_reduction_rejected_large_accepted() {
        // Tiny reduction loop (art/ammp-style): below the work threshold.
        let (_, profile) = profile_src(
            "float a[16];\n\
             int main() { float s = 0.0; for (int i = 0; i < 16; i++) { s += a[i]; } return (int) s; }",
        );
        let plan = OpenMpPlanner::default().plan(&profile, &HashSet::new());
        assert!(plan.is_empty(), "tiny reduction must be rejected: {plan}");

        // ep-style reduction with ample work: accepted.
        let (_, profile) = profile_src(
            "float a[4096];\n\
             int main() {\n\
               for (int i = 0; i < 4096; i++) { a[i] = (float) (i % 7); }\n\
               float s = 0.0;\n\
               for (int i = 0; i < 4096; i++) { s += sqrt(a[i]) * a[i] + exp(a[i] * 0.001); }\n\
               return (int) s;\n\
             }",
        );
        let plan = OpenMpPlanner::default().plan(&profile, &HashSet::new());
        let reds: Vec<_> = plan.entries.iter().filter(|e| e.kind == PlanKind::Reduction).collect();
        assert!(!reds.is_empty(), "big reduction must be planned: {plan}");
    }

    #[test]
    fn plan_is_ordered_by_estimated_speedup() {
        let (_, profile) = profile_src(
            "float a[2048]; float b[64];\n\
             int main() {\n\
               for (int i = 0; i < 2048; i++) { a[i] = sqrt((float) i) * 2.0; }\n\
               for (int r = 0; r < 40; r++) { for (int i = 0; i < 64; i++) { b[i] = b[i] + 1.0; } }\n\
               return (int) (a[5] + b[5]);\n\
             }",
        );
        let plan = OpenMpPlanner::default().plan(&profile, &HashSet::new());
        for w in plan.entries.windows(2) {
            assert!(w[0].est_speedup >= w[1].est_speedup);
        }
    }
}
