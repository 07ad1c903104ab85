//! Integration tests for the `kremlin-obs` observability layer: the
//! disabled-mode no-op guarantees, span-nesting balance over the full
//! workload suite, and the persisted JSON snapshot schema.
//!
//! The obs registry and the enable flags are process-global, so every
//! test here serializes on one mutex and resets the layer before and
//! after touching it.

use kremlin_repro::obs;
use std::sync::{Mutex, MutexGuard};

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn clean_slate() -> MutexGuard<'static, ()> {
    let guard = lock();
    obs::set_metrics(false);
    obs::set_tracing(false);
    obs::reset();
    guard
}

/// Runs the full pipeline (parse → lower → interp → shadow → plan) on one
/// workload source.
fn analyze(source: &str, file: &str) {
    let analysis =
        kremlin_repro::kremlin::Kremlin::new().analyze(source, file).expect("workload analyzes");
    let _ = analysis.plan_openmp();
}

#[test]
fn disabled_layer_records_nothing() {
    let _guard = clean_slate();

    let c = obs::counter("obs_it.disabled_counter");
    let g = obs::gauge("obs_it.disabled_gauge");
    let h = obs::histogram("obs_it.disabled_hist");
    c.add(41);
    c.incr();
    g.set(7);
    g.set_max(9);
    h.record(1024);
    {
        let _span = obs::span("obs_it.disabled_span");
    }

    assert_eq!(c.get(), 0, "disabled counter must not move");
    assert_eq!(g.get(), 0, "disabled gauge must not move");
    assert_eq!(h.total(), 0, "disabled histogram must not move");
    assert_eq!(obs::open_spans(), 0);
    assert!(obs::take_trace().is_empty(), "disabled span must not trace");

    // A full pipeline run with the layer off must leave an empty snapshot.
    let w = kremlin_repro::workloads::by_name("cg").expect("cg exists");
    analyze(w.source, &w.file_name());
    let snap = obs::snapshot();
    assert!(snap.is_noop(), "disabled pipeline left metrics behind: {}", snap.to_json());
    obs::reset();
}

#[test]
fn spans_balance_across_every_workload() {
    let _guard = clean_slate();

    for w in kremlin_repro::workloads::all() {
        obs::set_metrics(true);
        obs::set_tracing(true);
        analyze(w.source, &w.file_name());
        obs::set_metrics(false);
        obs::set_tracing(false);

        assert_eq!(obs::open_spans(), 0, "unbalanced spans after workload {}", w.name);
        let trace = obs::take_trace();
        assert!(!trace.is_empty(), "no spans traced for workload {}", w.name);
        for phase in ["parse", "lower", "interp", "shadow", "plan"] {
            assert!(
                trace.iter().any(|e| e.name == phase),
                "workload {} traced no `{phase}` span",
                w.name
            );
        }
        // Nesting sanity: a span at depth d+1 only exists inside some span
        // at depth d, so every depth from 0 up to the max must occur.
        let max_depth = trace.iter().map(|e| e.depth).max().unwrap();
        for d in 0..=max_depth {
            assert!(
                trace.iter().any(|e| e.depth == d),
                "workload {} has a depth gap at {d}",
                w.name
            );
        }
        obs::reset();
    }
}

#[test]
fn sharded_replay_publishes_per_shard_worker_metrics() {
    let _guard = clean_slate();

    let w = kremlin_repro::workloads::by_name("bt").expect("bt exists");
    let unit = kremlin_repro::ir::compile(w.source, &w.file_name()).expect("compiles");
    let trace = kremlin_repro::interp::record(
        &unit.module,
        kremlin_repro::interp::MachineConfig::default(),
    )
    .expect("record");

    obs::set_metrics(true);
    let jobs = 3;
    kremlin_repro::hcpa::profile_trace_parallel(
        &unit,
        &trace,
        kremlin_repro::hcpa::ParallelConfig { jobs, ..Default::default() },
    )
    .expect("sharded replay");
    obs::set_metrics(false);

    let snap = obs::snapshot();
    for shard in 0..jobs {
        assert_eq!(
            snap.counter(&format!("shard.{shard}.events")),
            trace.events(),
            "shard {shard} must replay the whole shared trace"
        );
        assert!(
            snap.counter(&format!("shard.{shard}.instr_events")) > 0,
            "shard {shard} touched no instruction events"
        );
        assert!(
            snap.counter(&format!("shard.{shard}.shadow_live_pages")) > 0,
            "shard {shard} reported no shadow slots"
        );
        assert!(
            snap.gauge(&format!("shard.{shard}.wall_us")) > 0,
            "shard {shard} reported no wall time"
        );
    }
    // The snapshot survives its own JSON round trip with dynamic names.
    let restored = obs::Snapshot::from_json(&snap.to_json()).expect("parses");
    assert_eq!(snap, restored);
    obs::reset();
}

/// Every depth shard replays the whole run, so the run-wide figures must
/// be published once: a 3-shard replay moves `hcpa.instr_events`,
/// `hcpa.dynamic_regions` and the `hcpa.region_work` histogram exactly as
/// much as a serial one.
#[test]
fn sharded_replay_publishes_run_wide_counters_once() {
    let _guard = clean_slate();

    let w = kremlin_repro::workloads::by_name("cg").expect("cg exists");
    let unit = kremlin_repro::ir::compile(w.source, &w.file_name()).expect("compiles");
    let kremlin = kremlin_repro::kremlin::Kremlin::new();
    let trace = kremlin.record(&unit, w.source).expect("records");
    let decoded =
        kremlin_repro::interp::trace::DecodedTrace::decode(&trace, &unit.module).expect("decodes");

    let deltas = |jobs: usize| {
        obs::reset();
        obs::set_metrics(true);
        let outcome = kremlin.replay(&unit, &decoded, jobs).expect("replays");
        obs::set_metrics(false);
        let snap = obs::snapshot();
        let region_work = snap
            .histograms
            .iter()
            .find(|(name, _)| name == "hcpa.region_work")
            .map(|(_, buckets)| buckets.clone())
            .expect("region work histogram");
        assert_eq!(snap.counter("hcpa.instr_events"), outcome.stats.instr_events, "jobs {jobs}");
        assert_eq!(snap.counter("hcpa.dynamic_regions"), outcome.stats.dynamic_regions);
        (snap.counter("hcpa.instr_events"), snap.counter("hcpa.dynamic_regions"), region_work)
    };
    let serial = deltas(1);
    assert!(serial.0 > 0 && serial.1 > 0, "{serial:?}");
    assert_eq!(deltas(3), serial, "3-shard deltas differ from the serial ones");
    obs::reset();
}

#[test]
fn snapshot_schema_round_trips_through_a_file() {
    let _guard = clean_slate();

    obs::set_metrics(true);
    obs::set_tracing(true);
    let w = kremlin_repro::workloads::by_name("bt").expect("bt exists");
    analyze(w.source, &w.file_name());
    obs::set_metrics(false);
    obs::set_tracing(false);

    let snap = obs::snapshot();
    assert!(!snap.is_noop(), "enabled pipeline produced no metrics");

    let path = std::env::temp_dir().join("kremlin-obs-roundtrip.json");
    std::fs::write(&path, snap.to_json()).expect("persist snapshot");
    let restored =
        obs::Snapshot::from_json(&std::fs::read_to_string(&path).expect("read snapshot back"))
            .expect("snapshot parses");

    assert_eq!(snap, restored, "snapshot JSON round-trip must be lossless");
    for key in
        ["minic.funcs", "ir.regions", "interp.instrs", "hcpa.instr_events", "planner.candidates"]
    {
        assert!(restored.counter(key) > 0, "restored snapshot lost counter {key}");
    }
    assert!(restored.phase("interp").is_some());

    // The trace side persists as JSONL: one valid object per line.
    let trace = obs::take_trace();
    let jsonl = obs::trace_to_jsonl(&trace);
    assert_eq!(jsonl.lines().count(), trace.len());
    for line in jsonl.lines() {
        let v = obs::json::parse(line).expect("every trace line is valid JSON");
        assert!(v.get("span").and_then(|n| n.as_str()).is_some());
        assert!(v.get("dur_us").and_then(|d| d.as_f64()).is_some());
    }
    obs::reset();
}
