//! # kremlin-planner — parallelism planning with personalities
//!
//! "Because of the complexity of the task, we believe profilers for
//! parallel programming should not only provide self-parallelism, work,
//! and other information about program regions but also combine these
//! factors with Amdahl's Law and target system properties to estimate
//! which regions are worth pursuing" (paper §1).
//!
//! A [`Personality`] turns a [`ParallelismProfile`] plus an exclusion list
//! into an ordered [`Plan`]. Provided personalities:
//!
//! * [`OpenMpPlanner`] — the paper's §5.1 planner: bottom-up dynamic
//!   programming, no nested parallel regions, DOALL/DOACROSS speedup
//!   thresholds, reduction-work floor;
//! * [`CilkPlanner`] — §5.2: nesting-aware, lower thresholds, spawnable
//!   function tasks;
//! * [`WorkOnlyPlanner`] / [`SelfPFilterPlanner`] — the Figure 9 baselines
//!   (gprof hotspot list; + self-parallelism filter).
//!
//! ```
//! use kremlin_planner::{OpenMpPlanner, Personality};
//! use std::collections::HashSet;
//! let unit = kremlin_ir::compile(
//!     "float a[256];\n\
//!      int main() { for (int i = 0; i < 256; i++) { a[i] = sqrt((float) i); } return 0; }",
//!     "demo.kc",
//! ).unwrap();
//! let outcome = kremlin_hcpa::profile_unit(&unit, Default::default()).unwrap();
//! let plan = OpenMpPlanner::default().plan(&outcome.profile, &HashSet::new());
//! assert_eq!(plan.len(), 1); // the DOALL loop
//! ```

pub mod baseline;
pub mod cilk;
pub mod estimate;
pub mod openmp;
pub mod plan;

pub use baseline::{plannable_region_count, SelfPFilterPlanner, WorkOnlyPlanner};
pub use cilk::{CilkParams, CilkPlanner};
pub use openmp::{OpenMpParams, OpenMpPlanner};
pub use plan::{Plan, PlanEntry, PlanKind};

use kremlin_hcpa::ParallelismProfile;
use kremlin_ir::RegionId;
use std::collections::HashSet;

/// A planner personality (paper §2.3): a set of constraints — language,
/// machine, and human — that orders the parallelizable regions.
pub trait Personality {
    /// Short name used in plan headers (`openmp`, `cilk`, ...).
    fn name(&self) -> &'static str;

    /// Produces an ordered plan from a profile, skipping `exclude`d
    /// regions (the paper's rerun-with-exclusions workflow, §3).
    fn plan(&self, profile: &ParallelismProfile, exclude: &HashSet<RegionId>) -> Plan;
}

/// The four provided personalities, each under its own
/// [`Personality::name`]: `openmp`, `cilk`, `work-only` and
/// `self-parallelism`.
pub fn personalities() -> [Box<dyn Personality>; 4] {
    [
        Box::<OpenMpPlanner>::default(),
        Box::<CilkPlanner>::default(),
        Box::<WorkOnlyPlanner>::default(),
        Box::<SelfPFilterPlanner>::default(),
    ]
}

/// The provided personality whose [`Personality::name`] is `name`: the
/// one lookup behind the CLI's `--personality` flag and `kremlin serve`'s
/// `personality` field and `x-kremlin-personality` header.
///
/// # Errors
///
/// A message naming `name` and the four known names.
pub fn personality(name: &str) -> Result<Box<dyn Personality>, String> {
    if let Some(found) = personalities().into_iter().find(|p| p.name() == name) {
        return Ok(found);
    }
    let known: Vec<&str> = personalities().iter().map(|p| p.name()).collect();
    Err(format!("unknown personality `{name}` (expected one of {})", known.join(", ")))
}

#[cfg(test)]
pub(crate) mod testutil {
    use kremlin_hcpa::{profile_unit, HcpaConfig, ParallelismProfile};
    use kremlin_ir::CompiledUnit;

    /// Compiles and profiles a source snippet (test helper).
    pub(crate) fn profile_src(src: &str) -> (CompiledUnit, ParallelismProfile) {
        let unit = kremlin_ir::compile(src, "t.kc").expect("compiles");
        let outcome = profile_unit(&unit, HcpaConfig::default()).expect("profiles");
        (unit, outcome.profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use testutil::profile_src;

    #[test]
    fn personalities_share_the_interface() {
        let (_, profile) = profile_src(
            "float a[128];\n\
             int main() { for (int i = 0; i < 128; i++) { a[i] = (float) i * 3.0; } return 0; }",
        );
        let none = HashSet::new();
        for p in personalities() {
            let plan = p.plan(&profile, &none);
            assert_eq!(plan.personality, p.name());
        }
    }

    #[test]
    fn personalities_are_found_by_their_own_names_only() {
        for p in personalities() {
            assert_eq!(personality(p.name()).unwrap().name(), p.name());
        }
        for unknown in ["selfp", "workonly", "mpi"] {
            let e = personality(unknown).err().expect("unknown name");
            assert!(e.contains(unknown), "{e}");
            for known in ["openmp", "cilk", "work-only", "self-parallelism"] {
                assert!(e.contains(known), "{e}");
            }
        }
    }
}
