//! # kremlin-engine — the staged, cached profiling pipeline
//!
//! The core crate answers *one* question for *one* invocation:
//! [`kremlin::Kremlin::analyze`] compiles, executes, profiles, and throws
//! everything away. This crate reshapes that monolith into a **session
//! engine** whose pipeline
//!
//! ```text
//! compile ─┬─ source: execute under the profiler ───────────┬─ profile ── plan
//!          └─ upload: stream the trace into the profiler ───┘
//! ```
//!
//! caches one kind of row (see [`cache`]): the compiled unit and its
//! compressed profile together, keyed by the program's source
//! fingerprint alone (an upload's embedded source). Every program is
//! profiled in exactly one pass of one profiler, the paper's online
//! analysis: a source request while the program executes, as the
//! instrumented binary does; an upload as its recorded events are
//! decoded, with no arena. The profile does not depend on the event
//! source or on a request's shard count (`jobs` is accepted and
//! ignored), so source requests at any shard count and uploads of the
//! same program share one row, and the second request for a hot program
//! skips compile, execution and replay and pays only the plan. Each
//! [`StageReuse`] flag reports the one row's hit; `unit` and `decoded`
//! go with the next `kremlin-serve-v1` bump.
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

use kremlin::hcpa::ParallelConfig;
use kremlin::interp::trace::{self, DecodedTrace, Trace};
use kremlin::{Analysis, CompiledUnit, Kremlin, KremlinError, ProfileOutcome};

use cache::ArtifactCache;

/// Engine construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// The profiling tool configuration every session of this engine
    /// shares (HCPA window, machine limits, cost model). Fixed per
    /// engine: rows cached under one engine were all produced with this
    /// configuration, so it is not part of their key.
    pub tool: Kremlin,
    /// Byte budget for the artifact cache's LRU.
    pub cache_bytes: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig { tool: Kremlin::default(), cache_bytes: 256 << 20 }
    }
}

/// Which pipeline stages were served from cache for one request. The
/// unit and its profile live in one row, so all three flags report that
/// row's hit; `unit` and `decoded` go with the next `kremlin-serve-v1`
/// bump.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageReuse {
    /// Compile skipped: the request's row was resident.
    pub unit: bool,
    /// Nothing recorded or decoded: the row was resident.
    pub decoded: bool,
    /// Profiling skipped: the row was resident.
    pub profile: bool,
}

/// A completed engine request: the analysis plus cache provenance.
#[derive(Debug, Clone)]
pub struct EngineAnalysis {
    /// The compiled program and its parallelism profile, `Arc`-shared
    /// with every other session that requested the same row.
    pub analysis: Analysis,
    /// Per-stage cache reuse for this request.
    pub reused: StageReuse,
    /// The module fingerprint (the trace header's identity, which covers
    /// the source since `kremlin-trace v2`) reported on the wire.
    pub module_fp: u64,
}

impl EngineAnalysis {
    fn new(analysis: Analysis, hit: bool, module_fp: u64) -> Self {
        let reused = StageReuse { unit: hit, decoded: hit, profile: hit };
        EngineAnalysis { analysis, reused, module_fp }
    }
}

/// The session engine: staged pipeline over a content-addressed cache
/// whose rows are keyed by [`kremlin::ir::source_fingerprint`].
///
/// `Engine` is `Sync`; one instance serves many threads (the `kremlin
/// serve` worker pool shares a single engine behind an `Arc`).
pub struct Engine {
    config: EngineConfig,
    cache: ArtifactCache<u64, Analysis>,
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
    pub fn cache(&self) -> &ArtifactCache<u64, Analysis> {
        &self.cache
    }

    /// Stage 1 — compile `src`. Units are cached only inside rows, so
    /// this stage neither reads nor fills the cache and the `bool` is
    /// always `false`.
    ///
    /// # Errors
    ///
    /// [`KremlinError::Compile`] when the frontend rejects the program.
    pub fn compile(
        &self,
        src: &str,
        name: &str,
    ) -> Result<(Arc<CompiledUnit>, bool), KremlinError> {
        Ok((Arc::new(kremlin::ir::compile(src, name)?), false))
    }

    /// Record and decode: executes `unit` once while recording its event
    /// stream and decodes the recording into an arena for
    /// [`Engine::profile`]. No request runs this stage and arenas are
    /// never cached, so the `bool` is always `false`; it times the
    /// record and decode layers for the benchmarks.
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

    /// Profile: replays the decoded arena through HCPA in `jobs` depth
    /// shards ([`kremlin::hcpa::profile_decoded_parallel`]). No request
    /// runs this stage, and an arena carries no source to key a row by,
    /// so it neither reads nor fills the cache and the `bool` is always
    /// `false`; it times the replay layers for the benchmarks.
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
        let config = ParallelConfig { jobs, hcpa: self.config.tool.hcpa, ..Default::default() };
        let outcome = kremlin::hcpa::profile_decoded_parallel(unit, decoded, config)?;
        Ok((Arc::new(outcome), false))
    }

    /// Full pipeline over submitted source: the row of `(name, src)`.
    /// Only a miss compiles the program and executes it under the
    /// profiler, with no trace at all. The shard count `_jobs` is
    /// ignored: every request profiles in one pass. This is what both
    /// the CLI one-shot path and the `POST /v1/profile` endpoint run.
    ///
    /// # Errors
    ///
    /// As the individual stages.
    pub fn analyze_source(
        &self,
        src: &str,
        name: &str,
        _jobs: usize,
    ) -> Result<EngineAnalysis, KremlinError> {
        let (analysis, hit) = self.row(src, name, |unit| self.config.tool.profile(unit))?;
        let module_fp = trace::module_fingerprint(&analysis.unit.module);
        Ok(EngineAnalysis::new(analysis, hit, module_fp))
    }

    /// Full pipeline over an uploaded trace: the row of its embedded
    /// source, which only on a miss recompiles the source and streams
    /// the trace into one profiler ([`Kremlin::replay`]). A source
    /// request and an upload of the same program share one row. A hit
    /// streams the trace through the same validation into a
    /// [`NullHook`](kremlin::interp::NullHook), so an upload is refused
    /// or answered alike whatever the cache holds. The `POST /v1/trace`
    /// endpoint, `kremlin replay` and `kremlin --save-trace` run this.
    ///
    /// # Errors
    ///
    /// As the individual stages, plus [`KremlinError::Trace`] when the
    /// trace was not recorded from its embedded source (module
    /// fingerprint mismatch) or its event stream is corrupt, resident
    /// row or not.
    pub fn analyze_trace(&self, trace: &Trace) -> Result<EngineAnalysis, KremlinError> {
        let (analysis, hit) = self
            .row(&trace.source, &trace.source_name, |unit| self.config.tool.replay(unit, trace))?;
        if hit {
            trace::replay(trace, &analysis.unit.module, &mut kremlin::interp::NullHook)?;
        }
        Ok(EngineAnalysis::new(analysis, hit, trace.fingerprint()))
    }

    /// The row of `(name, src)`. Only a miss runs anything: it compiles
    /// the source and hands the unit to `profile`. Single-flight: racing
    /// requests for one row build it once.
    fn row(
        &self,
        src: &str,
        name: &str,
        profile: impl FnOnce(&Arc<CompiledUnit>) -> Result<ProfileOutcome, KremlinError>,
    ) -> Result<(Analysis, bool), KremlinError> {
        self.cache.get_or_build(kremlin::ir::source_fingerprint(name, src), || {
            let unit = Arc::new(kremlin::ir::compile(src, name)?);
            let outcome = profile(&unit)?;
            let bytes = row_bytes(&unit, &outcome);
            Ok((Analysis::from_parts(unit, Arc::new(outcome)), bytes))
        })
    }
}

/// A row's charge against the byte budget: structural estimates of the
/// unit and of the profile. The LRU needs relative weight, not
/// accounting-grade numbers.
fn row_bytes(unit: &CompiledUnit, outcome: &ProfileOutcome) -> usize {
    let values: usize =
        unit.module.funcs.iter().map(|f| f.values.len() * 96 + f.blocks.len() * 64).sum();
    let unit_bytes = values + unit.module.regions.len() * 128 + 4096;
    let profile = &outcome.profile;
    unit_bytes + profile.dict.compressed_bytes() as usize + profile.executed_regions() * 256 + 1024
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
    fn trace_upload_and_source_share_one_profile_row() {
        let unit = kremlin::ir::compile(DEMO, "demo.kc").unwrap();
        let trace = Kremlin::default().record(&unit, DEMO).unwrap();
        let upload = |engine: &Engine| engine.analyze_trace(&trace).unwrap();
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
            assert_eq!((stats.entries, stats.misses), (1, 1), "one row holds unit and profile");
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
