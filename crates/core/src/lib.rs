//! # kremlin — like gprof, but for parallelization
//!
//! A faithful reimplementation of **Kremlin** (Garcia, Jeon, Louie,
//! Taylor — *Kremlin: Rethinking and Rebooting gprof for the Multicore
//! Age*, PLDI 2011): given a *serial* program, answer the question *which
//! parts should I parallelize first?*
//!
//! The pipeline mirrors the paper's Figure 4:
//!
//! 1. **Static instrumentation** — `kremlin-minic` + `kremlin-ir` compile
//!    mini-C to an SSA IR with region and control-dependence markers and
//!    induction/reduction annotations;
//! 2. **Execution** — `kremlin-interp` runs the program while
//!    `kremlin-hcpa` performs hierarchical critical path analysis,
//!    emitting a dictionary-compressed parallelism profile
//!    (`kremlin-compress`);
//! 3. **Planning** — `kremlin-planner` personalities (OpenMP, Cilk++,
//!    gprof-style baselines) turn the profile into a ranked parallelism
//!    plan;
//! 4. **Evaluation** — `kremlin-sim` models plan execution on a multicore
//!    machine (the role of the paper's 32-core testbed).
//!
//! The paper's command-line session
//!
//! ```text
//! $> make CC=kremlin-cc
//! $> ./tracking data
//! $> kremlin tracking --personality=openmp
//! ```
//!
//! becomes:
//!
//! ```
//! use kremlin::Kremlin;
//! let analysis = Kremlin::default().analyze(
//!     "float a[256];\n\
//!      int main() { for (int i = 0; i < 256; i++) { a[i] = sqrt((float) i); } return 0; }",
//!     "demo.kc",
//! )?;
//! let plan = analysis.plan_openmp();
//! assert_eq!(plan.len(), 1);
//! println!("{plan}"); // the paper's Figure 3 table
//! # Ok::<(), kremlin::KremlinError>(())
//! ```

pub mod corpus;
pub mod diag;
pub mod oracle;
pub mod persist;
pub mod report;

pub use kremlin_compress as compress;
pub use kremlin_hcpa as hcpa;
pub use kremlin_interp as interp;
pub use kremlin_ir as ir;
pub use kremlin_minic as minic;
pub use kremlin_obs as obs;
pub use kremlin_planner as planner;
pub use kremlin_sim as sim;

pub use kremlin_hcpa::{HcpaConfig, ParallelismProfile, ProfileOutcome, RegionStats};
pub use kremlin_interp::{MachineConfig, Trace, TraceError};
pub use kremlin_ir::{CompiledUnit, DependenceInfo, LoopVerdict, RegionId};
pub use kremlin_planner::{
    CilkPlanner, OpenMpPlanner, Personality, Plan, SelfPFilterPlanner, WorkOnlyPlanner,
};
pub use kremlin_sim::{MachineModel, PlanEvaluation, Simulator};

use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

/// Errors from the end-to-end pipeline.
#[derive(Debug)]
pub enum KremlinError {
    /// The frontend or an IR pass rejected the program.
    Compile(kremlin_ir::CompileError),
    /// The program failed at runtime while being profiled.
    Runtime(kremlin_interp::InterpError),
    /// A MANUAL-plan label does not name a region of the program.
    UnknownRegion(String),
    /// A recorded trace could not be replayed (corrupt, or recorded from
    /// a different program).
    Trace(kremlin_interp::TraceError),
}

impl fmt::Display for KremlinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KremlinError::Compile(e) => write!(f, "{e}"),
            KremlinError::Runtime(e) => write!(f, "{e}"),
            KremlinError::UnknownRegion(l) => write!(f, "unknown region label `{l}`"),
            KremlinError::Trace(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for KremlinError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            KremlinError::Compile(e) => Some(e),
            KremlinError::Runtime(e) => Some(e),
            KremlinError::UnknownRegion(_) => None,
            KremlinError::Trace(e) => Some(e),
        }
    }
}

impl From<kremlin_ir::CompileError> for KremlinError {
    fn from(e: kremlin_ir::CompileError) -> Self {
        KremlinError::Compile(e)
    }
}

impl From<kremlin_interp::InterpError> for KremlinError {
    fn from(e: kremlin_interp::InterpError) -> Self {
        KremlinError::Runtime(e)
    }
}

impl From<kremlin_interp::TraceError> for KremlinError {
    fn from(e: kremlin_interp::TraceError) -> Self {
        KremlinError::Trace(e)
    }
}

/// The Kremlin tool: configuration for the profiling run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Kremlin {
    /// HCPA configuration (depth window, dependence breaking, costs).
    pub hcpa: HcpaConfig,
    /// Interpreter limits (fuel, stack, call depth).
    pub machine: MachineConfig,
}

impl Kremlin {
    /// Creates a tool instance with default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Compiles, instruments, executes, and profiles `src`.
    ///
    /// # Errors
    ///
    /// Returns [`KremlinError::Compile`] for invalid programs and
    /// [`KremlinError::Runtime`] if the program faults (or exceeds the
    /// configured fuel) during the profiled run.
    pub fn analyze(&self, src: &str, name: &str) -> Result<Analysis, KremlinError> {
        let unit = kremlin_ir::compile(src, name)?;
        let outcome = kremlin_hcpa::profile_unit_with_machine(&unit, self.hcpa, self.machine)?;
        Ok(Analysis::from_parts(Arc::new(unit), Arc::new(outcome)))
    }

    /// Like [`Kremlin::analyze`], but via the record-once/replay-many
    /// path: the program executes exactly once while its event stream is
    /// recorded, the profile is produced by replaying that trace
    /// (depth-sharded across `jobs` worker threads), and the trace —
    /// with the source embedded so it is self-contained — is returned
    /// for saving. This is the `kremlin --save-trace` path.
    ///
    /// # Errors
    ///
    /// As [`Kremlin::analyze`].
    pub fn analyze_recorded(
        &self,
        src: &str,
        name: &str,
        jobs: usize,
    ) -> Result<(Analysis, kremlin_interp::Trace), KremlinError> {
        let unit = kremlin_ir::compile(src, name)?;
        let mut trace = kremlin_interp::trace::record(&unit.module, self.machine)?;
        trace.source = src.to_owned();
        let outcome = kremlin_hcpa::profile_trace_parallel(&unit, &trace, self.parallel(jobs))
            .expect("a freshly recorded trace replays against its own module");
        Ok((Analysis::from_parts(Arc::new(unit), Arc::new(outcome)), trace))
    }

    /// Profiles a previously recorded trace without executing anything:
    /// recompiles the trace's embedded source and replays the event
    /// stream into the profiler, depth-sharded across `jobs` worker
    /// threads. This is the library form of `kremlin replay`.
    ///
    /// # Errors
    ///
    /// [`KremlinError::Compile`] if the embedded source no longer
    /// compiles, [`KremlinError::Trace`] if the recompiled module does
    /// not match the trace's fingerprint or the event stream is corrupt.
    pub fn analyze_trace(
        &self,
        trace: &kremlin_interp::Trace,
        jobs: usize,
    ) -> Result<Analysis, KremlinError> {
        let unit = kremlin_ir::compile(&trace.source, &trace.source_name)?;
        let outcome = kremlin_hcpa::profile_trace_parallel(&unit, trace, self.parallel(jobs))?;
        Ok(Analysis::from_parts(Arc::new(unit), Arc::new(outcome)))
    }

    /// The sharded-replay configuration for `jobs` workers under this
    /// tool's HCPA settings.
    fn parallel(&self, jobs: usize) -> kremlin_hcpa::ParallelConfig {
        kremlin_hcpa::ParallelConfig { jobs, hcpa: self.hcpa, ..Default::default() }
    }

    /// Analyzes the same program over several inputs (here: several runs)
    /// and merges the profiles, the paper's §2.4 aggregation.
    ///
    /// # Errors
    ///
    /// As [`Kremlin::analyze`]; the runs must all succeed.
    pub fn analyze_runs(
        &self,
        src: &str,
        name: &str,
        runs: usize,
    ) -> Result<Analysis, KremlinError> {
        assert!(runs >= 1, "at least one run");
        let unit = kremlin_ir::compile(src, name)?;
        let mut profiles = Vec::with_capacity(runs);
        let mut last = None;
        for _ in 0..runs {
            let outcome = kremlin_hcpa::profile_unit_with_machine(&unit, self.hcpa, self.machine)?;
            profiles.push(outcome.profile.clone());
            last = Some(outcome);
        }
        let mut outcome = last.expect("runs >= 1");
        outcome.profile = ParallelismProfile::merge(&profiles);
        Ok(Analysis::from_parts(Arc::new(unit), Arc::new(outcome)))
    }
}

/// A completed analysis: compiled program plus parallelism profile.
///
/// Both artifacts are reference-counted so a content-addressed cache
/// (the `kremlin-engine` session layer) can hand the same compiled unit
/// and profile to many concurrent sessions without copying them.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// The compiled and analyzed program.
    pub unit: Arc<CompiledUnit>,
    /// Profile, profiler stats, and the program's own run result.
    pub outcome: Arc<ProfileOutcome>,
}

impl Analysis {
    /// Assembles an analysis from already-shared pipeline artifacts —
    /// the constructor the engine's cache-hit path uses.
    pub fn from_parts(unit: Arc<CompiledUnit>, outcome: Arc<ProfileOutcome>) -> Self {
        Analysis { unit, outcome }
    }

    /// The parallelism profile.
    pub fn profile(&self) -> &ParallelismProfile {
        &self.outcome.profile
    }

    /// Plans with an arbitrary personality and exclusion list. Entries
    /// are annotated with their static dependence verdicts.
    pub fn plan_with(&self, personality: &dyn Personality, exclude: &HashSet<RegionId>) -> Plan {
        let mut plan = personality.plan(&self.outcome.profile, exclude);
        plan.annotate(&self.unit.depend);
        plan
    }

    /// Plans with the OpenMP personality (the paper's default).
    pub fn plan_openmp(&self) -> Plan {
        self.plan_with(&OpenMpPlanner::default(), &HashSet::new())
    }

    /// Plans with the Cilk++ personality.
    pub fn plan_cilk(&self) -> Plan {
        self.plan_with(&CilkPlanner::default(), &HashSet::new())
    }

    /// Resolves a region label (e.g. `main#L0`).
    ///
    /// # Errors
    ///
    /// Returns [`KremlinError::UnknownRegion`] if no region has the label.
    pub fn region(&self, label: &str) -> Result<RegionId, KremlinError> {
        self.unit
            .module
            .regions
            .by_label(label)
            .ok_or_else(|| KremlinError::UnknownRegion(label.to_owned()))
    }

    /// Resolves a set of labels (e.g. a workload's MANUAL plan).
    ///
    /// # Errors
    ///
    /// Returns [`KremlinError::UnknownRegion`] for the first unknown label.
    pub fn regions(&self, labels: &[&str]) -> Result<HashSet<RegionId>, KremlinError> {
        labels.iter().map(|l| self.region(l)).collect()
    }

    /// Builds a simulator over this analysis' profile.
    pub fn simulator(&self, model: MachineModel) -> Simulator<'_> {
        Simulator::new(&self.outcome.profile, &self.unit.module.regions, model)
    }

    /// Evaluates a plan on the default machine model (best of 1..32
    /// cores), the role of the paper's testbed runs.
    pub fn evaluate(&self, plan: &Plan) -> PlanEvaluation {
        self.evaluate_regions(&plan.regions())
    }

    /// Evaluates an explicit region set (e.g. a MANUAL plan).
    pub fn evaluate_regions(&self, regions: &HashSet<RegionId>) -> PlanEvaluation {
        self.simulator(MachineModel::default()).evaluate(regions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEMO: &str = "float a[512]; float b[512];\n\
        int main() {\n\
          for (int i = 0; i < 512; i++) { a[i] = sqrt((float) i) + exp((float)(i % 3)); }\n\
          b[0] = 1.0;\n\
          for (int i = 1; i < 512; i++) { b[i] = b[i - 1] * 0.9 + a[i]; }\n\
          return (int) b[100];\n\
        }";

    #[test]
    fn end_to_end_analysis() {
        let analysis = Kremlin::new().analyze(DEMO, "demo.kc").unwrap();
        let plan = analysis.plan_openmp();
        // Only the first loop is parallelizable.
        assert_eq!(plan.len(), 1, "{plan}");
        let l0 = analysis.region("main#L0").unwrap();
        assert!(plan.contains(l0));
        // The serial loop is known but unplanned.
        let l1 = analysis.region("main#L1").unwrap();
        assert!(!plan.contains(l1));
        // Evaluating the plan beats serial.
        let eval = analysis.evaluate(&plan);
        assert!(eval.speedup > 1.2, "{eval:?}");
    }

    #[test]
    fn recorded_analysis_matches_live_and_replays_from_disk() {
        let serial = Kremlin::new().analyze(DEMO, "demo.kc").unwrap();
        let (recorded, trace) = Kremlin::new().analyze_recorded(DEMO, "demo.kc", 3).unwrap();
        assert!(
            recorded.profile().identical_stats(serial.profile()),
            "replay-collected profile must match live collection"
        );
        assert_eq!(recorded.outcome.run, serial.outcome.run);
        // Serialize, reload, and replay — the full record/replay workflow.
        let back = Trace::from_bytes(&trace.to_bytes()).unwrap();
        assert_eq!(back.source, DEMO, "trace must be self-contained");
        let replayed = Kremlin::new().analyze_trace(&back, 2).unwrap();
        assert!(replayed.profile().identical_stats(serial.profile()));
        assert_eq!(replayed.plan_openmp().regions(), serial.plan_openmp().regions());
    }

    #[test]
    fn unknown_label_is_reported() {
        let analysis = Kremlin::new().analyze(DEMO, "demo.kc").unwrap();
        let e = analysis.region("main#L9").unwrap_err();
        assert!(matches!(e, KremlinError::UnknownRegion(_)));
        assert!(e.to_string().contains("main#L9"));
    }

    #[test]
    fn multi_run_aggregation() {
        let analysis = Kremlin::new().analyze_runs(DEMO, "demo.kc", 3).unwrap();
        let main = analysis.region("main").unwrap();
        assert_eq!(analysis.profile().stats(main).unwrap().instances, 3);
        // Planning still works on merged profiles.
        assert_eq!(analysis.plan_openmp().len(), 1);
    }

    #[test]
    fn compile_and_runtime_errors_propagate() {
        let e = Kremlin::new().analyze("int main() { return x; }", "bad.kc").unwrap_err();
        assert!(matches!(e, KremlinError::Compile(_)));
        let e = Kremlin::new()
            .analyze("int main() { int z = 0; return 1 / z; }", "div.kc")
            .unwrap_err();
        assert!(matches!(e, KremlinError::Runtime(_)));
    }
}
