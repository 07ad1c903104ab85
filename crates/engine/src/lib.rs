//! # kremlin-engine — the staged, cached profiling pipeline
//!
//! The core crate answers *one* question for *one* invocation:
//! [`kremlin::Kremlin::analyze`] compiles, executes, profiles, and throws
//! everything away. This crate reshapes that monolith into a **session
//! engine** whose pipeline stages
//!
//! ```text
//! compile ── record/load trace ── decode ── profile ── plan
//! ```
//!
//! are explicit, individually cacheable artifacts (see [`cache`]): the
//! compiled unit keyed by a source fingerprint, the decoded event arena
//! and per-depth cost histograms keyed by the module fingerprint already
//! embedded in `kremlin-trace v1`, and the compressed profile keyed by
//! module fingerprint plus profiling config. The second request for a
//! hot module skips compile, record, and decode entirely and pays only
//! plan+stitch.
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
    /// Record+decode stages skipped (arena was resident).
    pub decoded: bool,
    /// Replay stage skipped (profile was resident).
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
    /// trace-derived artifacts are keyed by.
    pub module_fp: u64,
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

    /// Stages 2+3 — record and decode: returns the decoded event arena
    /// for `unit`, executing the program once (recording its event
    /// stream) and decoding it only when no arena for this module
    /// fingerprint is resident. The interpreter is deterministic, so the
    /// fingerprint fully identifies the arena.
    ///
    /// # Errors
    ///
    /// [`KremlinError::Runtime`] when the recorded execution faults.
    pub fn decode_unit(
        &self,
        unit: &Arc<CompiledUnit>,
    ) -> Result<(Arc<DecodedTrace>, bool), KremlinError> {
        let module_fp = trace::module_fingerprint(&unit.module);
        let key = ArtifactKey::Decoded { module_fp };
        let unit = Arc::clone(unit);
        let (artifact, hit) = self.cache.get_or_build(key, || {
            let recorded = trace::record(&unit.module, self.config.tool.machine)?;
            let decoded = DecodedTrace::decode(&recorded, &unit.module)
                .expect("a freshly recorded trace decodes against its own module");
            Ok::<_, KremlinError>(Artifact::Decoded(Arc::new(decoded)))
        })?;
        Ok((artifact.into_decoded(), hit))
    }

    /// Stage 3 for uploaded traces — decode a recorded `.ktrace` against
    /// its unit, reusing a resident arena with the same fingerprint (an
    /// upload of a module the engine has already decoded costs nothing).
    ///
    /// # Errors
    ///
    /// [`KremlinError::Trace`] when the trace was not recorded from
    /// `unit`'s module or its event stream is corrupt.
    pub fn decode_trace(
        &self,
        unit: &Arc<CompiledUnit>,
        trace: &Trace,
    ) -> Result<(Arc<DecodedTrace>, bool), KremlinError> {
        if !trace.matches(&unit.module) {
            return Err(KremlinError::Trace(kremlin::TraceError::ModuleMismatch));
        }
        let key = ArtifactKey::Decoded { module_fp: trace.fingerprint() };
        let module = &unit.module;
        let (artifact, hit) = self.cache.get_or_build(key, || {
            DecodedTrace::decode(trace, module)
                .map(|d| Artifact::Decoded(Arc::new(d)))
                .map_err(KremlinError::from)
        })?;
        Ok((artifact.into_decoded(), hit))
    }

    /// Stage 4 — profile: replays the decoded arena through HCPA,
    /// sharded across `jobs` workers via
    /// [`kremlin::hcpa::parallel::profile_decoded_parallel`]. The profile
    /// is cached by module fingerprint plus profiling config; `jobs` is
    /// deliberately *not* part of the key because sharded stitching is
    /// bit-identical to the serial replay.
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
        let hcpa_cfg = self.config.tool.hcpa;
        let key = ArtifactKey::Profile {
            module_fp: decoded.fingerprint(),
            window: hcpa_cfg.window,
            break_deps: hcpa_cfg.break_carried_deps,
        };
        let (unit, decoded) = (Arc::clone(unit), Arc::clone(decoded));
        let (artifact, hit) = self.cache.get_or_build(key, || {
            let config = ParallelConfig { jobs, hcpa: hcpa_cfg, ..ParallelConfig::default() };
            let outcome = hcpa::profile_decoded_parallel(&unit, &decoded, config)?;
            Ok::<_, KremlinError>(Artifact::Profile(Arc::new(outcome)))
        })?;
        Ok((artifact.into_profile(), hit))
    }

    /// Full pipeline over submitted source: compile → record → decode →
    /// profile, each stage skipped when its artifact is resident. This
    /// is what both the CLI one-shot path and the `POST /v1/profile`
    /// endpoint run.
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
        let (decoded, decoded_hit) = self.decode_unit(&unit)?;
        let module_fp = decoded.fingerprint();
        let (outcome, profile_hit) = self.profile(&unit, &decoded, jobs)?;
        Ok(EngineAnalysis {
            analysis: Analysis::from_parts(unit, outcome),
            reused: StageReuse { unit: unit_hit, decoded: decoded_hit, profile: profile_hit },
            module_fp,
        })
    }

    /// Full pipeline over an uploaded trace: recompile the embedded
    /// source, decode (or reuse) the arena, profile. The `POST
    /// /v1/trace` endpoint and `kremlin replay` run this.
    ///
    /// # Errors
    ///
    /// As the individual stages, plus [`KremlinError::Trace`] when the
    /// recompiled module no longer matches the trace fingerprint.
    pub fn analyze_trace(
        &self,
        trace: &Trace,
        jobs: usize,
    ) -> Result<EngineAnalysis, KremlinError> {
        let (unit, unit_hit) = self.compile(&trace.source, &trace.source_name)?;
        let (decoded, decoded_hit) = self.decode_trace(&unit, trace)?;
        let module_fp = decoded.fingerprint();
        let (outcome, profile_hit) = self.profile(&unit, &decoded, jobs)?;
        Ok(EngineAnalysis {
            analysis: Analysis::from_parts(unit, outcome),
            reused: StageReuse { unit: unit_hit, decoded: decoded_hit, profile: profile_hit },
            module_fp,
        })
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
    fn trace_upload_reuses_decoded_arena() {
        let engine = Engine::new(EngineConfig::default());
        let tool = Kremlin::default();
        let (_, trace) = tool.analyze_recorded(DEMO, "demo.kc", 1).unwrap();
        let cold = engine.analyze_trace(&trace, 1).unwrap();
        assert!(!cold.reused.decoded);
        // Same module via the source path: arena fingerprint matches.
        let warm = engine.analyze_source(DEMO, "demo.kc", 1).unwrap();
        assert!(warm.reused.decoded, "source path must reuse the uploaded module's arena");
        assert_eq!(cold.module_fp, warm.module_fp);
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
