//! Engine integration tests: cache behavior under adversarial access
//! patterns, single-flight population under real concurrency, the
//! acceptance end-to-end — a warm engine serves every paper workload
//! without recompiling or reprofiling, bit-identical to the cold CLI
//! path — and agreement between the two producers of a profile row
//! (live execution and trace replay).

use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;

use kremlin::interp::trace::{self, Trace};
use kremlin::persist::save_profile;
use kremlin::{Analysis, Kremlin, MachineConfig};
use kremlin_engine::cache::{Artifact, ArtifactCache, ArtifactKey};
use kremlin_engine::{Engine, EngineConfig, StageReuse};

/// The obs registry is process-global; tests that reset or read it must
/// not interleave. Poisoning is fine to ignore — the registry itself is
/// still consistent after a failed test.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn obs_guard() -> MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn hist_artifact(len: usize) -> Artifact {
    Artifact::DepthCost(Arc::new(vec![1; len]))
}

fn hist_key(fp: u64) -> ArtifactKey {
    ArtifactKey::DepthCost { module_fp: fp }
}

fn hist_bytes(len: usize) -> usize {
    hist_artifact(len).cost_bytes()
}

/// The record/decode run counters, read from a metrics snapshot.
fn record_decode_runs(snap: &kremlin_obs::Snapshot) -> (u64, u64) {
    (snap.counter("trace.record.runs"), snap.counter("trace.decode.runs"))
}

/// Records `source` once and round-trips the trace through its byte
/// format, as a `.ktrace` upload arrives.
fn uploaded_trace(source: &str, name: &str) -> Trace {
    let unit = kremlin::ir::compile(source, name).unwrap();
    let mut recorded = trace::record(&unit.module, MachineConfig::default()).unwrap();
    recorded.source = source.to_owned();
    Trace::from_bytes(&recorded.to_bytes()).unwrap()
}

// ---------------------------------------------------------------------------
// LRU + byte-budget properties
// ---------------------------------------------------------------------------

/// A recency touch (hit) must move a key off the eviction front: after
/// touching the oldest entry, the *second*-oldest is evicted first.
#[test]
fn hits_refresh_recency_before_eviction() {
    // Cache operations bump global obs counters when the metrics switch
    // is on; serialize against the counter-asserting tests below.
    let _guard = obs_guard();
    let row = hist_bytes(8);
    let cache = ArtifactCache::new(3 * row);
    for fp in 0..3u64 {
        cache.get_or_build::<()>(hist_key(fp), || Ok(hist_artifact(8))).unwrap();
    }
    // Touch the LRU victim-to-be, then overflow the budget.
    assert!(cache.lookup(hist_key(0)).is_some());
    cache.get_or_build::<()>(hist_key(3), || Ok(hist_artifact(8))).unwrap();
    let resident = cache.keys_lru();
    assert!(!resident.contains(&hist_key(1)), "key 1 was the true LRU victim");
    assert_eq!(resident, vec![hist_key(2), hist_key(0), hist_key(3)]);
}

/// Deterministic pseudo-random walk over inserts and lookups, checked
/// against a reference model: resident bytes never exceed the budget,
/// the cache's LRU order always matches the model's, and hit/miss/evict
/// totals agree exactly.
#[test]
fn random_walk_matches_reference_lru_model() {
    let _guard = obs_guard();
    let budget = 10 * hist_bytes(4);
    let cache = ArtifactCache::new(budget);

    // Reference model: (key, bytes) from least- to most-recent.
    let mut model: Vec<(u64, usize)> = Vec::new();
    let (mut model_hits, mut model_misses, mut model_evictions) = (0u64, 0u64, 0u64);

    let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 33
    };

    for _ in 0..2000 {
        let fp = next() % 24; // small key space => plenty of re-touches
        let len = 1 + (next() % 8) as usize;
        let bytes = hist_bytes(len);
        if next() % 3 == 0 {
            // Pure lookup: touches on hit, no insert on miss.
            let present = model.iter().position(|(k, _)| *k == fp);
            let got = cache.lookup(hist_key(fp));
            assert_eq!(got.is_some(), present.is_some());
            if let Some(pos) = present {
                let entry = model.remove(pos);
                model.push(entry);
                model_hits += 1;
            }
        } else {
            let (_, was_hit) =
                cache.get_or_build::<()>(hist_key(fp), || Ok(hist_artifact(len))).unwrap();
            match model.iter().position(|(k, _)| *k == fp) {
                Some(pos) => {
                    assert!(was_hit);
                    let entry = model.remove(pos);
                    model.push(entry);
                    model_hits += 1;
                }
                None => {
                    assert!(!was_hit);
                    model.push((fp, bytes));
                    model_misses += 1;
                    let mut total: usize = model.iter().map(|(_, b)| *b).sum();
                    while total > budget {
                        let (_, evicted) = model.remove(0);
                        total -= evicted;
                        model_evictions += 1;
                    }
                }
            }
        }

        let stats = cache.stats();
        assert!(stats.bytes <= budget, "budget violated: {} > {budget}", stats.bytes);
        assert_eq!(stats.bytes, model.iter().map(|(_, b)| *b).sum::<usize>());
        let model_order: Vec<ArtifactKey> = model.iter().map(|(k, _)| hist_key(*k)).collect();
        assert_eq!(cache.keys_lru(), model_order, "LRU order diverged from model");
    }

    let stats = cache.stats();
    assert_eq!(
        (stats.hits, stats.misses, stats.evictions),
        (model_hits, model_misses, model_evictions)
    );
}

// ---------------------------------------------------------------------------
// Single-flight under real concurrency
// ---------------------------------------------------------------------------

/// Eight threads race to submit the same module; the obs counters must
/// show exactly one compile and one profile build, with every other
/// request a hit on each. A sharded (`jobs = 2`) build records and
/// decodes the program exactly once; a one-shard build profiles while
/// executing and never records or decodes. All results share one
/// allocation per artifact.
#[test]
fn concurrent_same_module_compiles_and_decodes_exactly_once() {
    let _guard = obs_guard();
    const SRC: &str = "float v[128];\n\
        int main() { for (int i = 0; i < 128; i++) { v[i] = i * 2.0; } return 0; }";
    const THREADS: usize = 8;

    for jobs in [1, 2] {
        kremlin_obs::set_metrics(true);
        kremlin_obs::reset();
        let engine = Arc::new(Engine::new(EngineConfig::default()));
        let results: Vec<_> = thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    let engine = Arc::clone(&engine);
                    s.spawn(move || engine.analyze_source(SRC, "race.kc", jobs).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        let snap = kremlin_obs::snapshot();
        kremlin_obs::set_metrics(false);

        for kind in ["unit", "profile"] {
            assert_eq!(
                snap.counter(&format!("engine.cache.{kind}.misses")),
                1,
                "jobs={jobs}: {kind} must be built exactly once across {THREADS} concurrent submits"
            );
            assert_eq!(
                snap.counter(&format!("engine.cache.{kind}.hits")),
                (THREADS - 1) as u64,
                "jobs={jobs}: every other submit must take the {kind} hit path"
            );
        }
        let runs = if jobs == 1 { 0 } else { 1 };
        assert_eq!(record_decode_runs(&snap), (runs, runs), "jobs={jobs}: record/decode runs");
        for r in &results[1..] {
            assert!(Arc::ptr_eq(&results[0].analysis.unit, &r.analysis.unit));
            assert!(Arc::ptr_eq(&results[0].analysis.outcome, &r.analysis.outcome));
        }
    }
}

/// Under a 23 MB budget, which bt's 22 MB arena alone nearly fills, a
/// bt → ep → bt sequence must answer the third request from cache — as
/// a one-shard source request, a sharded one, or a `.ktrace` upload —
/// without recording or decoding anything: no arena may enter the
/// cache and evict the profile row the request came for.
#[test]
fn a_request_never_evicts_the_profile_it_came_for() {
    let _guard = obs_guard();
    let workloads = kremlin_workloads::all();
    let program = |name: &str| workloads.iter().find(|w| w.name == name).unwrap();
    let (bt, ep) = (program("bt"), program("ep"));
    let bt_upload = uploaded_trace(bt.source, &bt.file_name());

    for variant in ["jobs=1", "jobs=2", "upload"] {
        let jobs = if variant == "jobs=2" { 2 } else { 1 };
        let engine = Engine::new(EngineConfig { tool: Kremlin::new(), cache_bytes: 23 << 20 });
        kremlin_obs::set_metrics(true);
        kremlin_obs::reset();
        for w in [bt, ep] {
            let cold = engine.analyze_source(w.source, &w.file_name(), jobs).unwrap();
            assert_eq!(cold.reused, StageReuse::default(), "{variant}: {} is cold", w.name);
        }
        let before = record_decode_runs(&kremlin_obs::snapshot());
        let third = if variant == "upload" {
            engine.analyze_trace(&bt_upload, jobs)
        } else {
            engine.analyze_source(bt.source, &bt.file_name(), jobs)
        };
        let after = record_decode_runs(&kremlin_obs::snapshot());
        kremlin_obs::set_metrics(false);
        assert_eq!(
            third.unwrap().reused,
            StageReuse { unit: true, decoded: true, profile: true },
            "{variant}: the repeat of bt must be a full hit"
        );
        assert_eq!(after, before, "{variant}: a full hit records and decodes nothing");
        assert_eq!(engine.cache().stats().evictions, 0, "{variant}");
    }
}

// ---------------------------------------------------------------------------
// Acceptance end-to-end: warm engine vs cold CLI path, all workloads
// ---------------------------------------------------------------------------

/// For every paper workload: the second engine request reuses every
/// stage (proven by the `kremlin-metrics-v1` cache counters,
/// round-tripped through the published JSON schema), cold one-shard
/// requests profile while executing without recording or decoding
/// anything, and the engine's ranked plan is byte-for-byte identical to
/// the cold monolithic `Kremlin::analyze` path.
#[test]
fn warm_engine_skips_compile_and_decode_for_every_workload() {
    let _guard = obs_guard();
    kremlin_obs::set_metrics(true);
    kremlin_obs::reset();

    let workloads = kremlin_workloads::all();
    assert_eq!(workloads.len(), 12, "paper workload suite changed size");

    // A budget large enough that nothing is ever evicted — this test is
    // about reuse, not pressure.
    let engine = Engine::new(EngineConfig { tool: Kremlin::new(), cache_bytes: usize::MAX / 4 });

    let mut cold_plans = Vec::new();
    for w in &workloads {
        let cold = engine.analyze_source(w.source, &w.file_name(), 1).unwrap();
        assert_eq!(cold.reused, StageReuse::default(), "{}: first request must be cold", w.name);
        cold_plans.push(cold.analysis.plan_openmp().to_string());
    }

    let after_cold = kremlin_obs::snapshot();
    assert_eq!(after_cold.counter("engine.cache.unit.misses"), 12);
    assert_eq!(after_cold.counter("engine.cache.profile.misses"), 12);
    assert_eq!(after_cold.counter("engine.cache.unit.hits"), 0);
    assert_eq!(
        record_decode_runs(&after_cold),
        (0, 0),
        "one-shard requests profile while executing: no trace is recorded or decoded"
    );

    for (w, cold_plan) in workloads.iter().zip(&cold_plans) {
        let warm = engine.analyze_source(w.source, &w.file_name(), 1).unwrap();
        assert_eq!(
            warm.reused,
            StageReuse { unit: true, decoded: true, profile: true },
            "{}: warm request must skip compile, execution, and profiling",
            w.name
        );
        assert_eq!(
            &warm.analysis.plan_openmp().to_string(),
            cold_plan,
            "{}: warm plan must be bit-identical to the cold plan",
            w.name
        );
    }

    // The proof, read back through the published `kremlin-metrics-v1`
    // schema rather than internal accounting.
    let snap = kremlin_obs::Snapshot::from_json(&kremlin_obs::snapshot().to_json()).unwrap();
    kremlin_obs::set_metrics(false);
    assert_eq!(snap.counter("engine.cache.unit.misses"), 12, "no recompiles on warm requests");
    assert_eq!(snap.counter("engine.cache.profile.misses"), 12, "no reprofiling on warm requests");
    assert!(snap.counter("engine.cache.unit.hits") >= 12);
    assert!(snap.counter("engine.cache.profile.hits") >= 12);
    assert_eq!(record_decode_runs(&snap), (0, 0), "warm requests record and decode nothing");
    assert_eq!(snap.counter("engine.cache.evictions"), 0);

    // And the ground truth: the engine's cold plan equals the monolithic
    // single-shot pipeline's plan on every workload.
    for (w, cold_plan) in workloads.iter().zip(&cold_plans) {
        let direct = Kremlin::new().analyze(w.source, &w.file_name()).unwrap();
        assert_eq!(
            &direct.plan_openmp().to_string(),
            cold_plan,
            "{}: engine and monolithic plans diverge",
            w.name
        );
    }
}

// ---------------------------------------------------------------------------
// The two producers of a profile row
// ---------------------------------------------------------------------------

/// Everything a consumer of a cached profile reads, rendered for
/// comparison: the planner's text, the simulator's verdict on the OpenMP
/// plan, and the `--save-profile` bytes (which list the dictionary).
fn consumer_view(a: &Analysis) -> (String, kremlin::PlanEvaluation, String) {
    let plan = a.plan_openmp();
    let unit = &a.unit;
    let saved = save_profile(
        &unit.module.source_name,
        &unit.module.regions,
        &unit.reduction_loops(),
        a.profile(),
    );
    (plan.to_string(), a.evaluate(&plan), saved)
}

/// The cache hands a row built by live execution (a one-shard source
/// request) and a row built by replaying a trace (an upload) to either
/// kind of request, so on every workload the two must agree on all a
/// consumer reads — including the dictionary, which the simulator reads
/// and `identical_stats` skips.
#[test]
fn live_and_replayed_profile_rows_agree_for_every_consumer() {
    // Recording bumps the global trace counters other tests assert on.
    let _guard = obs_guard();
    for w in kremlin_workloads::all() {
        let name = w.file_name();
        let live = Engine::new(EngineConfig::default()).analyze_source(w.source, &name, 1).unwrap();
        let upload = uploaded_trace(w.source, &name);
        let replayed = Engine::new(EngineConfig::default()).analyze_trace(&upload, 1).unwrap();
        assert_eq!(live.module_fp, replayed.module_fp, "{}", w.name);
        let (live, replayed) = (&live.analysis, &replayed.analysis);

        let (ld, rd) = (&live.profile().dict, &replayed.profile().dict);
        assert_eq!(ld.len(), rd.len(), "{}: dictionary sizes differ", w.name);
        for ((id, le), (_, re)) in ld.iter().zip(rd.iter()) {
            assert_eq!(le, re, "{}: dictionary entry {} differs", w.name, id.0);
        }
        assert_eq!(ld.root(), rd.root(), "{}: dictionary roots differ", w.name);
        assert_eq!(ld.raw_summaries(), rd.raw_summaries(), "{}", w.name);
        assert!(live.profile().identical_stats(replayed.profile()), "{}: stats differ", w.name);
        assert_eq!(consumer_view(live), consumer_view(replayed), "{}", w.name);
    }
}
