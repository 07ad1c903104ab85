//! Engine integration tests: cache behavior under adversarial access
//! patterns, single-flight population under real concurrency, the
//! acceptance end-to-end — a warm engine serves every paper workload
//! without recompiling or reprofiling, bit-identical to the cold CLI
//! path — agreement between the two producers of a row (live execution
//! and streamed trace replay), one row per program whatever the request
//! shape, and rows that no other program can answer or forged uploads
//! reach.

use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;

use kremlin::interp::trace::Trace;
use kremlin::ir::CompileError;
use kremlin::persist::save_profile;
use kremlin::{Analysis, Kremlin, KremlinError, TraceError};
use kremlin_engine::cache::ArtifactCache;
use kremlin_engine::{Engine, EngineConfig, StageReuse};

mod forged;

/// The obs registry is process-global; tests that reset or read it must
/// not interleave. Poisoning is fine to ignore — the registry itself is
/// still consistent after a failed test.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn obs_guard() -> MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The byte cost of a [`value`] of `len` words.
fn value_bytes(len: usize) -> usize {
    len * 8 + 32
}

/// A plain cache value of `len` words and its byte cost, as a builder
/// returns them.
fn value(len: usize) -> Result<(Arc<Vec<u64>>, usize), ()> {
    Ok((Arc::new(vec![1; len]), value_bytes(len)))
}

/// The record/decode run counters, read from a metrics snapshot.
fn record_decode_runs(snap: &kremlin_obs::Snapshot) -> (u64, u64) {
    (snap.counter("trace.record.runs"), snap.counter("trace.decode.runs"))
}

/// Records `source` once and round-trips the trace through its byte
/// format, as a `.ktrace` upload arrives.
fn uploaded_trace(source: &str, name: &str) -> Trace {
    let unit = kremlin::ir::compile(source, name).unwrap();
    let recorded = Kremlin::new().record(&unit, source).unwrap();
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
    let row = value_bytes(8);
    let cache = ArtifactCache::new(3 * row);
    for key in 0..3u64 {
        cache.get_or_build(key, || value(8)).unwrap();
    }
    // Touch the LRU victim-to-be, then overflow the budget.
    assert!(cache.lookup(0).is_some());
    cache.get_or_build(3, || value(8)).unwrap();
    let resident = cache.keys_lru();
    assert!(!resident.contains(&1), "key 1 was the true LRU victim");
    assert_eq!(resident, vec![2, 0, 3]);
}

/// Deterministic pseudo-random walk over inserts and lookups, checked
/// against a reference model: resident bytes never exceed the budget,
/// the cache's LRU order always matches the model's, and hit/miss/evict
/// totals agree exactly.
#[test]
fn random_walk_matches_reference_lru_model() {
    let _guard = obs_guard();
    let budget = 10 * value_bytes(4);
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
        let bytes = value_bytes(len);
        if next() % 3 == 0 {
            // Pure lookup: touches on hit, no insert on miss.
            let present = model.iter().position(|(k, _)| *k == fp);
            let got = cache.lookup(fp);
            assert_eq!(got.is_some(), present.is_some());
            if let Some(pos) = present {
                let entry = model.remove(pos);
                model.push(entry);
                model_hits += 1;
            }
        } else {
            let (_, was_hit) = cache.get_or_build(fp, || value(len)).unwrap();
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
        let model_order: Vec<u64> = model.iter().map(|(k, _)| *k).collect();
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

/// Eight threads race to submit the same module at shard counts 1, 2
/// and 3; the obs counters must show exactly one row build (one compile,
/// one profile while executing, nothing recorded or decoded), with every
/// other request a hit. All results share one allocation per artifact.
#[test]
fn concurrent_same_module_compiles_and_profiles_exactly_once() {
    let _guard = obs_guard();
    const SRC: &str = "float v[128];\n\
        int main() { for (int i = 0; i < 128; i++) { v[i] = i * 2.0; } return 0; }";
    const THREADS: usize = 8;

    kremlin_obs::set_metrics(true);
    kremlin_obs::reset();
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    let results: Vec<_> = thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|i| {
                let engine = Arc::clone(&engine);
                s.spawn(move || engine.analyze_source(SRC, "race.kc", 1 + i % 3).unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let snap = kremlin_obs::snapshot();
    kremlin_obs::set_metrics(false);

    assert_eq!(
        snap.counter("engine.cache.misses"),
        1,
        "the row must be built exactly once across {THREADS} concurrent submits"
    );
    assert_eq!(
        snap.counter("engine.cache.hits"),
        (THREADS - 1) as u64,
        "every other submit must take the hit path"
    );
    assert_eq!(record_decode_runs(&snap), (0, 0), "a row build records and decodes nothing");
    for r in &results[1..] {
        assert!(Arc::ptr_eq(&results[0].analysis.unit, &r.analysis.unit));
        assert!(Arc::ptr_eq(&results[0].analysis.outcome, &r.analysis.outcome));
    }
}

/// Under a 23 MB budget, which bt's 22 MB event arena alone would nearly
/// fill, a bt → ep → bt sequence must answer the third request from
/// cache — as a source request at one or two shards, or a `.ktrace`
/// upload — without recording or decoding anything: nothing but rows
/// enters the cache, so nothing evicts the row the request came for.
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
            engine.analyze_trace(&bt_upload)
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

/// Two programs that differ only in a loop bound have the same shapes;
/// the source fingerprint in the row key and in the module fingerprint
/// tells them apart: each misses and returns its own exit code, whether
/// submitted as source or uploaded as a trace.
#[test]
fn programs_that_differ_only_in_a_constant_get_their_own_profile_rows() {
    let _guard = obs_guard();
    let program = |n: u32| {
        format!("int main() {{ int s = 0; for (int i = 0; i < {n}; i++) {{ s += i; }} return s; }}")
    };
    let (short, long) = (program(10), program(20));
    for via in ["source", "upload"] {
        let engine = Engine::new(EngineConfig::default());
        let results: Vec<_> = [&short, &long]
            .into_iter()
            .map(|src| match via {
                "source" => engine.analyze_source(src, "x.kc", 1).unwrap(),
                _ => engine.analyze_trace(&uploaded_trace(src, "x.kc")).unwrap(),
            })
            .collect();
        assert_ne!(results[0].module_fp, results[1].module_fp, "{via}: it covers the source");
        for (result, exit) in results.iter().zip([45, 190]) {
            assert!(!result.reused.profile, "{via}: exit {exit} must miss the profile row");
            assert_eq!(result.analysis.outcome.run.exit, exit, "{via}");
        }
    }
}

/// A trace header carries the fingerprint of the module it was recorded
/// from, and that fingerprint covers the source: events recorded from
/// the bound-10 program that carry the bound-20 source are rejected by
/// replay and by the engine, whether or not bound 20's row is resident,
/// and never fill that row.
#[test]
fn an_upload_recorded_from_another_source_is_rejected() {
    let _guard = obs_guard();
    let program = |n: u32| {
        format!("int main() {{ int s = 0; for (int i = 0; i < {n}; i++) {{ s += i; }} return s; }}")
    };
    let (short, long) = (program(10), program(20));
    let short_unit = kremlin::ir::compile(&short, "x.kc").unwrap();
    let recorded = Kremlin::new().record(&short_unit, &long).unwrap();
    let mismatched = Trace::from_bytes(&recorded.to_bytes()).unwrap();

    let long_unit = kremlin::ir::compile(&long, "x.kc").unwrap();
    let replayed = Kremlin::new().replay(&long_unit, &mismatched);
    assert!(matches!(replayed, Err(KremlinError::Trace(TraceError::ModuleMismatch))));

    let engine = Engine::new(EngineConfig::default());
    let rejected = |engine: &Engine| {
        matches!(
            engine.analyze_trace(&mismatched),
            Err(KremlinError::Trace(TraceError::ModuleMismatch))
        )
    };
    assert!(rejected(&engine), "cold: the upload must be rejected");
    let source = engine.analyze_source(&long, "x.kc", 1).unwrap();
    assert!(!source.reused.profile, "the rejected upload must not fill bound 20's row");
    assert_eq!(source.analysis.outcome.run.exit, 190);
    assert!(rejected(&engine), "warm: bound 20's row is resident, the upload is still rejected");
}

/// A hit validates the upload as a miss does: every forged trace gets
/// the same error from an engine that holds its program's row as from
/// one that does not.
#[test]
fn forged_uploads_are_refused_alike_with_and_without_their_row() {
    let _guard = obs_guard();
    for (what, why, bytes) in forged::traces() {
        let trace = Trace::from_bytes(&bytes).unwrap();
        let cold = Engine::new(EngineConfig::default()).analyze_trace(&trace).unwrap_err();
        assert!(matches!(cold, KremlinError::Trace(TraceError::Corrupt { .. })), "{what}: {cold}");
        assert!(cold.to_string().contains(why), "{what}: {cold}");
        let warm = Engine::new(EngineConfig::default());
        warm.analyze_source(&trace.source, &trace.source_name, 1).unwrap();
        let refused = warm.analyze_trace(&trace).unwrap_err();
        assert_eq!(warm.cache().stats().hits, 1, "{what}: the upload must hit the row");
        assert_eq!(refused.to_string(), cold.to_string(), "{what}");
    }
}

/// A program whose globals take more slots than compilation admits is
/// refused before anything is sized from its address space: as an upload
/// (the shadow page table takes 4 B per 1,024 slots) and as a source (the
/// live run's memory takes 8 B per slot), and neither leaves a row.
#[test]
fn programs_past_the_globals_cap_are_refused_before_anything_is_sized() {
    let _guard = obs_guard();
    let trace = Trace::from_bytes(&forged::oversized_globals()).unwrap();
    let engine = Engine::new(EngineConfig::default());
    let too_large = |e: KremlinError| {
        let slots = match e {
            KremlinError::Compile(CompileError::GlobalsTooLarge { slots }) => slots,
            other => panic!("expected the globals cap, got {other}"),
        };
        assert_eq!(slots, 1000 * u64::from(u32::MAX));
    };
    too_large(engine.analyze_trace(&trace).unwrap_err());
    too_large(engine.analyze_source(&trace.source, &trace.source_name, 1).unwrap_err());
    assert_eq!(engine.cache().stats().entries, 0);
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
    assert_eq!(after_cold.counter("engine.cache.misses"), 12);
    assert_eq!(after_cold.counter("engine.cache.hits"), 0);
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
    assert_eq!(snap.counter("engine.cache.misses"), 12, "no rebuilds on warm requests");
    assert!(snap.counter("engine.cache.hits") >= 12);
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

/// The cache hands a row built by live execution (a source request) and
/// a row built by streaming a trace into the profiler (an upload) to
/// either kind of request, so on every workload the two must agree on
/// all a consumer reads — including the dictionary, which the simulator
/// reads and `identical_stats` skips.
#[test]
fn live_and_replayed_profile_rows_agree_for_every_consumer() {
    // Recording bumps the global trace counters other tests assert on.
    let _guard = obs_guard();
    for w in kremlin_workloads::all() {
        let name = w.file_name();
        let live = Engine::new(EngineConfig::default()).analyze_source(w.source, &name, 1).unwrap();
        let upload = uploaded_trace(w.source, &name);
        let replayed = Engine::new(EngineConfig::default()).analyze_trace(&upload).unwrap();
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

/// One profiling pass per program. On every workload, a `jobs = 3`
/// source request builds the program's row, and `jobs = 1` and
/// `jobs = 2` source requests and an upload of the workload's own trace
/// all hit it, recording and decoding nothing; the row gives every
/// consumer what a fresh engine's live profile gives.
#[test]
fn every_request_for_a_program_shares_its_one_row() {
    let _guard = obs_guard();
    for w in kremlin_workloads::all() {
        let name = w.file_name();
        let fresh =
            Engine::new(EngineConfig::default()).analyze_source(w.source, &name, 1).unwrap();
        let want = consumer_view(&fresh.analysis);
        let upload = uploaded_trace(w.source, &name);

        let engine = Engine::new(EngineConfig::default());
        kremlin_obs::set_metrics(true);
        kremlin_obs::reset();
        let first = engine.analyze_source(w.source, &name, 3).unwrap();
        for jobs in [Some(1), Some(2), None] {
            let again = match jobs {
                Some(jobs) => engine.analyze_source(w.source, &name, jobs),
                None => engine.analyze_trace(&upload),
            }
            .unwrap();
            let at = format!("{} jobs={jobs:?}", w.name);
            assert_eq!(
                again.reused,
                StageReuse { unit: true, decoded: true, profile: true },
                "{at}"
            );
            assert!(Arc::ptr_eq(&again.analysis.outcome, &first.analysis.outcome), "{at}");
        }
        let snap = kremlin_obs::snapshot();
        kremlin_obs::set_metrics(false);
        assert_eq!(snap.counter("engine.cache.misses"), 1, "{}", w.name);
        assert_eq!(record_decode_runs(&snap), (0, 0), "{}", w.name);
        assert_eq!(snap.counter("trace.replay.runs"), 1, "{}: the hit validates", w.name);
        assert_eq!(consumer_view(&first.analysis), want, "{}", w.name);
    }
}
