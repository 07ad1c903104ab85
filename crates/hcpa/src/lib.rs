//! # kremlin-hcpa — hierarchical critical path analysis
//!
//! The core contribution of the Kremlin paper (PLDI 2011): run a critical
//! path analysis **per dynamic region nesting level** so parallelism can be
//! localized to specific loops and functions, and compute
//! **self-parallelism**
//!
//! ```text
//! SP(R) = (Σ_k cp(child_k(R)) + SW(R)) / cp(R)
//! ```
//!
//! which factors out the parallelism contributed by a region's children —
//! the parallel analogue of gprof's *self time*.
//!
//! The pieces, mirroring the paper's §4:
//!
//! * [`cost`] — instruction latency model (availability time arithmetic);
//! * [`shadow`] — multi-level shadow memory and shadow register tables,
//!   with one region-instance **write stamp** per location to prevent
//!   cross-instance reuse (§4.2's tags, encoded exactly);
//! * [`profiler`] — the [`kremlin_interp::ExecHook`] implementation:
//!   per-depth time propagation, control-dependence stack, induction/
//!   reduction breaking, segment folding (shadow work only for values
//!   whose times leave their straight-line run), and online dictionary
//!   compression (§4.1, §4.4);
//! * [`profile`] — per-static-region aggregation ([`RegionStats`]:
//!   self-parallelism, coverage, DOALL classification) computed in the
//!   compressed domain.
//!
//! End-to-end:
//!
//! ```
//! use kremlin_hcpa::{profile_unit, HcpaConfig};
//! let unit = kremlin_ir::compile(
//!     "float a[32];\n\
//!      int main() { for (int i = 0; i < 32; i++) { a[i] = (float) i * 2.0; } return 0; }",
//!     "demo.kc",
//! ).unwrap();
//! let outcome = profile_unit(&unit, HcpaConfig::default())?;
//! let loop_region = unit.module.regions.by_label("main#L0").unwrap();
//! let stats = outcome.profile.stats(loop_region).unwrap();
//! assert!(stats.is_doall && stats.self_p > 20.0);
//! # Ok::<(), kremlin_interp::InterpError>(())
//! ```

pub mod cost;
pub mod parallel;
pub mod profile;
pub mod profiler;
pub mod seed;
pub mod shadow;

pub use cost::CostModel;
pub use parallel::{
    plan_shards_weighted, profile_decoded_parallel, shard_plan_cost, ParallelConfig,
    ReplayStrategy, ShardSpec,
};
pub use profile::{ParallelismProfile, RegionStats};
pub use profiler::{HcpaConfig, Profiler, ProfilerStats};
pub use seed::{profile_unit_seed, SeedProfiler};

use kremlin_interp::trace::{DecodedTrace, Trace, TraceError};
use kremlin_interp::{InterpError, MachineConfig, RunResult};
use kremlin_ir::CompiledUnit;

/// Everything produced by one profiled run.
#[derive(Debug)]
pub struct ProfileOutcome {
    /// The aggregated per-region parallelism profile (owns the compressed
    /// dictionary).
    pub profile: ParallelismProfile,
    /// Profiler statistics (shadow footprint, dynamic region count, ...).
    pub stats: ProfilerStats,
    /// The program's own result (exit code, instruction count).
    pub run: RunResult,
}

/// Compiles-in the profiler and runs `main`: the equivalent of executing a
/// Kremlin-instrumented binary (paper Figure 4).
///
/// # Errors
///
/// Propagates interpreter failures ([`InterpError`]).
pub fn profile_unit(
    unit: &CompiledUnit,
    config: HcpaConfig,
) -> Result<ProfileOutcome, InterpError> {
    profile_unit_with_machine(unit, config, MachineConfig::default())
}

/// [`profile_unit`] with explicit interpreter limits.
///
/// # Errors
///
/// Propagates interpreter failures ([`InterpError`]).
pub fn profile_unit_with_machine(
    unit: &CompiledUnit,
    config: HcpaConfig,
    machine: MachineConfig,
) -> Result<ProfileOutcome, InterpError> {
    let _span = kremlin_obs::span("shadow");
    let mut profiler = Profiler::new(&unit.module, config);
    let run = kremlin_interp::run_with_hook(&unit.module, &mut profiler, machine)?;
    Ok(outcome(unit, profiler, run))
}

/// Profiles a *recorded* execution in one pass: streams the trace's
/// events into the HCPA profiler as they are decoded and validated
/// ([`kremlin_interp::trace::replay`]), without executing the program or
/// building an arena. The replayed event stream is observably identical
/// to live execution, so the outcome equals [`profile_unit`]'s with the
/// same `config`, dictionary included.
///
/// # Errors
///
/// [`TraceError::ModuleMismatch`] when the trace was not recorded from
/// `unit`'s module; [`TraceError::Corrupt`] for a damaged event stream.
pub fn profile_trace(
    unit: &CompiledUnit,
    trace: &Trace,
    config: HcpaConfig,
) -> Result<ProfileOutcome, TraceError> {
    let _span = kremlin_obs::span("shadow");
    let mut profiler = Profiler::new(&unit.module, config);
    let run = kremlin_interp::trace::replay(trace, &unit.module, &mut profiler)?;
    Ok(outcome(unit, profiler, run))
}

/// Profiles a *recorded* execution from its [`DecodedTrace`] arena, with
/// zero varint work per event: what every depth-shard worker of
/// [`profile_decoded_parallel`] runs. The outcome equals
/// [`profile_unit`]'s with the same `config`.
///
/// # Errors
///
/// [`TraceError::ModuleMismatch`] when the trace was not decoded from
/// `unit`'s module.
pub fn profile_decoded(
    unit: &CompiledUnit,
    decoded: &DecodedTrace,
    config: HcpaConfig,
) -> Result<ProfileOutcome, TraceError> {
    replay_profile(unit, decoded, Profiler::new(&unit.module, config))
}

/// Replays `decoded` into `profiler` and builds the profile.
fn replay_profile(
    unit: &CompiledUnit,
    decoded: &DecodedTrace,
    mut profiler: Profiler<'_>,
) -> Result<ProfileOutcome, TraceError> {
    let _span = kremlin_obs::span("shadow");
    let run = kremlin_interp::trace::replay_decoded(decoded, &unit.module, &mut profiler)?;
    Ok(outcome(unit, profiler, run))
}

/// Finishes `profiler`, whose event source ended with `run`, and builds
/// the profile: the last step of every profiling pass.
fn outcome(unit: &CompiledUnit, profiler: Profiler<'_>, run: RunResult) -> ProfileOutcome {
    let (dict, stats) = profiler.finish();
    let _build = kremlin_obs::span("profile.build");
    let mut profile =
        ParallelismProfile::build(&unit.module.regions, dict, &unit.reduction_loops());
    profile.set_source_name(&unit.module.source_name);
    ProfileOutcome { profile, stats, run }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiled_run_matches_plain_run() {
        let unit = kremlin_ir::compile(
            "int main() { int s = 0; for (int i = 0; i < 33; i++) { s += i * i; } return s % 97; }",
            "t.kc",
        )
        .unwrap();
        let plain = kremlin_interp::run(&unit.module).unwrap();
        let out = profile_unit(&unit, HcpaConfig::default()).unwrap();
        assert_eq!(plain.exit, out.run.exit, "profiling must not change semantics");
        assert_eq!(plain.instrs_executed, out.run.instrs_executed);
    }

    #[test]
    fn outcome_has_consistent_root() {
        let unit = kremlin_ir::compile("int main() { return 3; }", "t.kc").unwrap();
        let out = profile_unit(&unit, HcpaConfig::default()).unwrap();
        let main = unit.module.regions.by_label("main").unwrap();
        assert_eq!(out.profile.root, Some(main));
        assert_eq!(out.stats.dynamic_regions, 1);
    }
}
