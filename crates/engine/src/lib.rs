//! # kremlin-engine — the staged, cached profiling pipeline
//!
//! The core crate answers *one* question for *one* invocation:
//! [`kremlin::Kremlin::analyze`] compiles, executes, profiles, and throws
//! everything away. This crate reshapes that monolith into a **session
//! engine** whose pipeline
//!
//! ```text
//! compile ─┬─ jobs <= 1: execute under the profiler ────────────────┬─ profile ── plan
//!          └─ jobs > 1 or upload: record/load ── decode ── replay ──┘
//! ```
//!
//! caches two artifacts (see [`cache`]): the compiled unit keyed by a
//! source fingerprint, and the compressed profile keyed by the module
//! fingerprint already embedded in `kremlin-trace v1` plus profiling
//! config. A one-shard source request profiles while the program
//! executes, as the paper's instrumented binary does; only depth-sharded
//! requests and trace uploads build a decoded event arena, and it lives
//! for that request alone. The second request for a hot module skips
//! compile, execution and replay entirely and pays only the plan.
//!
//! Everything downstream is a thin client of [`Engine`]: the `kremlin`
//! CLI binary for one-shot runs, and the [`serve`] daemon (`kremlin
//! serve`) for a long-running profiling service with a worker pool,
//! admission control, and live `kremlin-metrics-v1` telemetry.

pub mod cache;
pub mod http;
pub mod protocol;
pub mod serve;

use std::sync::Arc;

use kremlin::hcpa::{self, ParallelConfig};
use kremlin::interp::trace::{self, DecodedTrace, Trace};
use kremlin::{Analysis, CompiledUnit, Kremlin, KremlinError, ProfileOutcome};

use cache::{Artifact, ArtifactCache, ArtifactKey};

/// Engine construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// The profiling tool configuration every session of this engine
    /// shares (HCPA window, machine limits, cost model). Fixed per
    /// engine: artifacts cached under one engine were all produced with
    /// this configuration.
    pub tool: Kremlin,
    /// Byte budget for the artifact cache's LRU.
    pub cache_bytes: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig { tool: Kremlin::default(), cache_bytes: 256 << 20 }
    }
}

/// Which pipeline stages were served from cache for one request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageReuse {
    /// Compile stage skipped (unit was resident).
    pub unit: bool,
    /// This request recorded and decoded nothing. Arenas are never
    /// cached, so on [`Engine::analyze_source`] and
    /// [`Engine::analyze_trace`] this equals `profile`: only the profile
    /// builder records or decodes.
    pub decoded: bool,
    /// Profiling skipped (profile was resident).
    pub profile: bool,
}

/// A completed engine request: the analysis plus cache provenance.
#[derive(Debug, Clone)]
pub struct EngineAnalysis {
    /// The compiled program and its parallelism profile, `Arc`-shared
    /// with every other session that requested the same content.
    pub analysis: Analysis,
    /// Per-stage cache reuse for this request.
    pub reused: StageReuse,
    /// The module fingerprint (the `kremlin-trace v1` identity) the
    /// profile is keyed by.
    pub module_fp: u64,
}

impl EngineAnalysis {
    fn new(
        (unit, unit_hit): (Arc<CompiledUnit>, bool),
        (outcome, profile_hit): (Arc<ProfileOutcome>, bool),
        module_fp: u64,
    ) -> Self {
        EngineAnalysis {
            analysis: Analysis::from_parts(unit, outcome),
            reused: StageReuse { unit: unit_hit, decoded: profile_hit, profile: profile_hit },
            module_fp,
        }
    }
}

/// The session engine: staged pipeline over a content-addressed cache.
///
/// `Engine` is `Sync`; one instance serves many threads (the `kremlin
/// serve` worker pool shares a single engine behind an `Arc`).
pub struct Engine {
    config: EngineConfig,
    cache: ArtifactCache,
}

impl Engine {
    /// Creates an engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        let cache = ArtifactCache::new(config.cache_bytes);
        Engine { config, cache }
    }

    /// Engine over `tool` with the default cache budget.
    pub fn with_tool(tool: Kremlin) -> Self {
        Engine::new(EngineConfig { tool, ..EngineConfig::default() })
    }

    /// The engine-wide configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The artifact cache (stats and introspection).
    pub fn cache(&self) -> &ArtifactCache {
        &self.cache
    }

    /// Stage 1 — compile: returns the compiled unit for `(src, name)`,
    /// reusing the cached unit when the identical source was compiled
    /// before. The `bool` is `true` on reuse.
    ///
    /// # Errors
    ///
    /// [`KremlinError::Compile`] when the frontend rejects the program.
    pub fn compile(
        &self,
        src: &str,
        name: &str,
    ) -> Result<(Arc<CompiledUnit>, bool), KremlinError> {
        let key = ArtifactKey::Unit { source_fp: cache::source_fingerprint(name, src) };
        let (artifact, hit) = self.cache.get_or_build(key, || {
            kremlin::ir::compile(src, name)
                .map(|unit| Artifact::Unit(Arc::new(unit)))
                .map_err(KremlinError::from)
        })?;
        Ok((artifact.into_unit(), hit))
    }

    /// Record and decode: executes `unit` once while recording its event
    /// stream and decodes the recording into an arena for
    /// [`Engine::profile`]. Arenas are not cached (the profile built
    /// from one is), so the `bool` is always `false`. Sharded
    /// [`Engine::analyze_source`] requests run this inside their profile
    /// builder; one-shard requests never do.
    ///
    /// # Errors
    ///
    /// [`KremlinError::Runtime`] when the recorded execution faults.
    pub fn decode_unit(
        &self,
        unit: &Arc<CompiledUnit>,
    ) -> Result<(Arc<DecodedTrace>, bool), KremlinError> {
        let recorded = trace::record(&unit.module, self.config.tool.machine)?;
        let decoded = DecodedTrace::decode(&recorded, &unit.module)
            .expect("a freshly recorded trace decodes against its own module");
        Ok((Arc::new(decoded), false))
    }

    /// Profile: replays the decoded arena through HCPA, sharded across
    /// `jobs` workers via
    /// [`kremlin::hcpa::parallel::profile_decoded_parallel`], and caches
    /// the result in the same profile row [`Engine::analyze_source`] and
    /// [`Engine::analyze_trace`] use: module fingerprint plus profiling
    /// config. `jobs` is deliberately *not* part of the key because
    /// sharded stitching is bit-identical to the serial replay.
    ///
    /// # Errors
    ///
    /// [`KremlinError::Trace`] when `decoded` was not produced from
    /// `unit`'s module.
    pub fn profile(
        &self,
        unit: &Arc<CompiledUnit>,
        decoded: &Arc<DecodedTrace>,
        jobs: usize,
    ) -> Result<(Arc<ProfileOutcome>, bool), KremlinError> {
        self.profile_row(decoded.fingerprint(), || self.replay(unit, decoded, jobs))
    }

    /// Full pipeline over submitted source: compile, then the profile
    /// row of the compiled module. Only a miss on that row runs the
    /// program: a one-shard request (`jobs <= 1`) executes it under the
    /// profiler, with no trace at all; a sharded request records and
    /// decodes it once and replays the arena in `jobs` depth shards.
    /// This is what both the CLI one-shot path and the `POST
    /// /v1/profile` endpoint run.
    ///
    /// # Errors
    ///
    /// As the individual stages.
    pub fn analyze_source(
        &self,
        src: &str,
        name: &str,
        jobs: usize,
    ) -> Result<EngineAnalysis, KremlinError> {
        let (unit, unit_hit) = self.compile(src, name)?;
        let module_fp = trace::module_fingerprint(&unit.module);
        let profile = self.profile_row(module_fp, || {
            if jobs <= 1 {
                let tool = self.config.tool;
                return Ok(hcpa::profile_unit_with_machine(&unit, tool.hcpa, tool.machine)?);
            }
            let (decoded, _) = self.decode_unit(&unit)?;
            self.replay(&unit, &decoded, jobs)
        })?;
        Ok(EngineAnalysis::new((unit, unit_hit), profile, module_fp))
    }

    /// Full pipeline over an uploaded trace: recompile the embedded
    /// source, then the profile row of the trace's module, which only on
    /// a miss decodes the trace and replays it in `jobs` depth shards.
    /// The `POST /v1/trace` endpoint and `kremlin replay` run this.
    ///
    /// # Errors
    ///
    /// As the individual stages, plus [`KremlinError::Trace`] when the
    /// recompiled module no longer matches the trace fingerprint or a
    /// decoded event stream is corrupt.
    pub fn analyze_trace(
        &self,
        trace: &Trace,
        jobs: usize,
    ) -> Result<EngineAnalysis, KremlinError> {
        let (unit, unit_hit) = self.compile(&trace.source, &trace.source_name)?;
        if !trace.matches(&unit.module) {
            return Err(KremlinError::Trace(kremlin::TraceError::ModuleMismatch));
        }
        let module_fp = trace.fingerprint();
        let profile = self.profile_row(module_fp, || {
            let decoded = DecodedTrace::decode(trace, &unit.module)?;
            self.replay(&unit, &decoded, jobs)
        })?;
        Ok(EngineAnalysis::new((unit, unit_hit), profile, module_fp))
    }

    /// The profile row of `module_fp` under this engine's HCPA config,
    /// running `build` only when the row is not resident. Single-flight:
    /// racing requests for one module build it once. `build` must not
    /// call [`Engine::profile`], which would wait on this very slot.
    fn profile_row(
        &self,
        module_fp: u64,
        build: impl FnOnce() -> Result<ProfileOutcome, KremlinError>,
    ) -> Result<(Arc<ProfileOutcome>, bool), KremlinError> {
        let hcpa_cfg = self.config.tool.hcpa;
        let key = ArtifactKey::Profile {
            module_fp,
            window: hcpa_cfg.window,
            break_deps: hcpa_cfg.break_carried_deps,
        };
        let (artifact, hit) =
            self.cache.get_or_build(key, || build().map(|o| Artifact::Profile(Arc::new(o))))?;
        Ok((artifact.into_profile(), hit))
    }

    /// Replays `decoded` through HCPA in `jobs` depth shards. The arena
    /// stays the caller's and is dropped with it.
    fn replay(
        &self,
        unit: &CompiledUnit,
        decoded: &DecodedTrace,
        jobs: usize,
    ) -> Result<ProfileOutcome, KremlinError> {
        let config =
            ParallelConfig { jobs, hcpa: self.config.tool.hcpa, ..ParallelConfig::default() };
        Ok(hcpa::profile_decoded_parallel(unit, decoded, config)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEMO: &str = "float a[256];\n\
        int main() { for (int i = 0; i < 256; i++) { a[i] = sqrt((float) i); } return 0; }";

    #[test]
    fn second_request_reuses_every_stage() {
        let engine = Engine::new(EngineConfig::default());
        let cold = engine.analyze_source(DEMO, "demo.kc", 1).unwrap();
        assert_eq!(cold.reused, StageReuse::default());
        let warm = engine.analyze_source(DEMO, "demo.kc", 1).unwrap();
        assert_eq!(warm.reused, StageReuse { unit: true, decoded: true, profile: true });
        assert!(Arc::ptr_eq(&cold.analysis.unit, &warm.analysis.unit));
        assert!(Arc::ptr_eq(&cold.analysis.outcome, &warm.analysis.outcome));
        assert_eq!(cold.module_fp, warm.module_fp);
    }

    #[test]
    fn engine_matches_monolithic_pipeline() {
        let engine = Engine::new(EngineConfig::default());
        let via_engine = engine.analyze_source(DEMO, "demo.kc", 1).unwrap();
        let direct = Kremlin::default().analyze(DEMO, "demo.kc").unwrap();
        assert!(via_engine.analysis.profile().identical_stats(direct.profile()));
        assert_eq!(
            via_engine.analysis.plan_openmp().to_string(),
            direct.plan_openmp().to_string(),
            "engine plan must be bit-identical to the monolithic path"
        );
    }

    #[test]
    fn sharded_profile_hits_the_serial_cache_row() {
        let engine = Engine::new(EngineConfig::default());
        let serial = engine.analyze_source(DEMO, "demo.kc", 1).unwrap();
        // jobs differ, result is bit-identical, so the key must collide.
        let sharded = engine.analyze_source(DEMO, "demo.kc", 3).unwrap();
        assert!(sharded.reused.profile);
        assert!(Arc::ptr_eq(&serial.analysis.outcome, &sharded.analysis.outcome));
    }

    #[test]
    fn trace_upload_and_source_share_one_profile_row() {
        let (_, trace) = Kremlin::default().analyze_recorded(DEMO, "demo.kc", 1).unwrap();
        let upload = |engine: &Engine| engine.analyze_trace(&trace, 1).unwrap();
        let source = |engine: &Engine| engine.analyze_source(DEMO, "demo.kc", 1).unwrap();
        for upload_first in [true, false] {
            let engine = Engine::new(EngineConfig::default());
            let (first, second) = if upload_first {
                (upload(&engine), source(&engine))
            } else {
                (source(&engine), upload(&engine))
            };
            assert_eq!(first.reused, StageReuse::default());
            assert_eq!(second.reused, StageReuse { unit: true, decoded: true, profile: true });
            assert!(Arc::ptr_eq(&first.analysis.outcome, &second.analysis.outcome));
            assert_eq!(first.module_fp, second.module_fp);
            let stats = engine.cache().stats();
            assert_eq!((stats.entries, stats.misses), (2, 2), "one unit row, one profile row");
        }
    }

    #[test]
    fn compile_errors_propagate_and_are_not_cached() {
        let engine = Engine::new(EngineConfig::default());
        for _ in 0..2 {
            let e = engine.analyze_source("int main() { return x; }", "bad.kc", 1).unwrap_err();
            assert!(matches!(e, KremlinError::Compile(_)));
        }
        assert_eq!(engine.cache().stats().misses, 2, "failures must not occupy cache slots");
    }
}
