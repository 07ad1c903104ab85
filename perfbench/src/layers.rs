//! Per-layer decomposition of source → plan, timed around each layer's
//! public entry points, one row per paper program. Every number is a
//! measured wall time on this host; sharded replay runs on real threads.

use std::sync::Arc;

use kremlin::hcpa::{self, HcpaConfig, ParallelConfig, ParallelismProfile, ReplayStrategy};
use kremlin::interp::trace::{self, DecodedTrace};
use kremlin::interp::NullHook;
use kremlin::{Analysis, MachineConfig};

use crate::gen::Program;
use crate::reference::Expected;
use crate::stats::timed;
use crate::Report;

/// Shards for the sharding rows (the cold-sharded `jobs`).
const JOBS: usize = 2;

/// One program's decomposition.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub name: &'static str,
    /// Trace events.
    pub events: u64,
    /// `kremlin_minic::compile_frontend`.
    pub frontend_ms: f64,
    /// `kremlin_ir::compile` minus the frontend.
    pub lower_ms: f64,
    /// `trace::record`.
    pub record_ms: f64,
    /// Encoded trace payload bytes.
    pub trace_bytes: u64,
    /// `DecodedTrace::decode`.
    pub decode_ms: f64,
    /// Decoded arena bytes.
    pub arena_bytes: u64,
    /// `replay_decoded` into a `NullHook`: the dispatch floor.
    pub dispatch_ms: f64,
    /// `profile_decoded` at window 2: the depth-independent cost.
    pub fixed_ms: f64,
    /// `profile_decoded` at the full window.
    pub replay_ms: f64,
    /// Shadow footprint of the full-window replay.
    pub shadow_bytes: u64,
    /// `profile_decoded_parallel`, `jobs = 2`, real threads.
    pub sharded_ms: f64,
    /// Per-shard `profile_decoded` at the weighted boundaries.
    pub shard_ms: Vec<f64>,
    /// `stitch_at` over the shard slices.
    pub stitch_ms: f64,
    /// Dictionary entries of the profile.
    pub dict_entries: u64,
    /// Compressed profile bytes.
    pub profile_bytes: u64,
    /// `Analysis::plan_openmp`.
    pub plan_ms: f64,
    /// `Analysis::evaluate` of that plan.
    pub evaluate_ms: f64,
    /// `evaluate()` differs between the `jobs = 2` and `jobs = 1` profiles.
    pub divergent: bool,
    /// Serial and sharded plans both equal the reference.
    pub plans_ok: bool,
}

impl Row {
    /// Slowest shard.
    pub fn shard_max_ms(&self) -> f64 {
        self.shard_ms.iter().copied().fold(0.0, f64::max)
    }

    /// Mean shard wall.
    pub fn shard_mean_ms(&self) -> f64 {
        self.shard_ms.iter().sum::<f64>() / self.shard_ms.len() as f64
    }
}

/// Decomposes `program`'s source → plan path.
///
/// # Errors
///
/// Compile, runtime or trace errors, as text.
pub fn decompose(program: &Program, expected: &Expected) -> Result<Row, String> {
    let (src, file) = (program.source, program.file.as_str());
    let machine = MachineConfig::default();
    let full = HcpaConfig::default();
    let err = |e: &dyn std::fmt::Display| format!("{}: {e}", program.name);

    let (frontend_ms, _) = timed(|| kremlin::minic::compile_frontend(src));
    let (compile_ms, unit) = timed(|| kremlin::ir::compile(src, file));
    let unit = Arc::new(unit.map_err(|e| err(&e))?);
    let module = &unit.module;

    let (record_ms, recorded) = timed(|| trace::record(module, machine));
    let recorded = recorded.map_err(|e| err(&e))?;
    let (decode_ms, decoded) = timed(|| DecodedTrace::decode(&recorded, module));
    let decoded = decoded.map_err(|e| err(&e))?;
    let (dispatch_ms, _) =
        timed(|| trace::replay_decoded(&decoded, module, &mut NullHook).map(|_| ()));

    let window2 = HcpaConfig { window: 2, ..full };
    let (fixed_ms, _) = timed(|| hcpa::profile_decoded(&unit, &decoded, window2).is_ok());
    let (replay_ms, serial) = timed(|| hcpa::profile_decoded(&unit, &decoded, full));
    let serial = serial.map_err(|e| err(&e))?;

    let parallel = ParallelConfig {
        jobs: JOBS,
        depth_hint: None,
        strategy: ReplayStrategy::Decoded,
        hcpa: full,
        machine,
    };
    let (sharded_ms, sharded) =
        timed(|| hcpa::parallel::profile_decoded_parallel(&unit, &decoded, parallel));
    let sharded = sharded.map_err(|e| err(&e))?;

    let shards =
        hcpa::plan_shards_weighted(&hcpa::parallel::shard_plan_cost(&decoded), full.window, JOBS);
    let mut shard_ms = Vec::new();
    let mut slices = Vec::new();
    for s in &shards {
        let cfg = HcpaConfig { window: s.window, min_depth: s.min_depth, ..full };
        let (ms, outcome) = timed(|| hcpa::profile_decoded(&unit, &decoded, cfg));
        shard_ms.push(ms);
        slices.push(outcome.map_err(|e| err(&e))?.profile);
    }
    let starts: Vec<usize> = shards.iter().map(|s| s.min_depth).collect();
    let (stitch_ms, _) = timed(|| ParallelismProfile::stitch_at(&slices, &starts));

    let dict_entries = serial.profile.dict.len() as u64;
    let profile_bytes = serial.profile.dict.compressed_bytes();
    let shadow_bytes = serial.stats.shadow_bytes;
    let serial = Analysis::from_parts(Arc::clone(&unit), Arc::new(serial));
    let (plan_ms, plan) = timed(|| serial.plan_openmp());
    let (evaluate_ms, evaluation) = timed(|| serial.evaluate(&plan));
    let sharded = Analysis::from_parts(Arc::clone(&unit), Arc::new(sharded));
    let sharded_plan = sharded.plan_openmp();
    let divergent = sharded.evaluate(&sharded_plan) != evaluation;
    let plans_ok = plan.to_string() == expected.plan && sharded_plan.to_string() == expected.plan;

    Ok(Row {
        name: program.name,
        events: decoded.events(),
        frontend_ms,
        lower_ms: (compile_ms - frontend_ms).max(0.0),
        record_ms,
        trace_bytes: recorded.encoded_len() as u64,
        decode_ms,
        arena_bytes: decoded.arena_bytes() as u64,
        dispatch_ms,
        fixed_ms,
        replay_ms,
        shadow_bytes,
        sharded_ms,
        shard_ms,
        stitch_ms,
        dict_entries,
        profile_bytes,
        plan_ms,
        evaluate_ms,
        divergent,
        plans_ok,
    })
}

/// Decomposes every program, prints one row each, and records the
/// suite totals (sums over programs; per-event figures are total time
/// over total events) into `report`.
///
/// # Errors
///
/// As [`decompose`].
pub fn report_suite(
    programs: &[Program],
    expected: &[Expected],
    report: &mut Report,
) -> Result<(), String> {
    let nproc = crate::nproc();
    let rows: Vec<Row> =
        programs.iter().zip(expected).map(|(p, e)| decompose(p, e)).collect::<Result<_, _>>()?;
    for r in &rows {
        report.check(Ok(r.plans_ok));
        report.notes.push(format!(
            "layers {:<9} nproc={nproc} events={:<8} frontend={:.3} lower={:.3} record={:.2} \
             decode={:.2} dispatch={:.2} fixed={:.2} replay={:.2} sharded={:.2} \
             shard_max={:.2} imbalance={:.3} stitch={:.3} plan={:.3} evaluate={:.3} \
             divergent={} (ms)",
            r.name,
            r.events,
            r.frontend_ms,
            r.lower_ms,
            r.record_ms,
            r.decode_ms,
            r.dispatch_ms,
            r.fixed_ms,
            r.replay_ms,
            r.sharded_ms,
            r.shard_max_ms(),
            r.shard_max_ms() / r.shard_mean_ms(),
            r.stitch_ms,
            r.plan_ms,
            r.evaluate_ms,
            r.divergent,
        ));
    }
    let n = rows.len();
    let sum = |f: &dyn Fn(&Row) -> f64| rows.iter().map(f).sum::<f64>();
    let events = sum(&|r| r.events as f64);
    report.set("minic.frontend_ms", sum(&|r| r.frontend_ms), n);
    report.set("ir.lower_ms", sum(&|r| r.lower_ms), n);
    report.set("interp.record_ms", sum(&|r| r.record_ms), n);
    report.set("interp.record_ns_per_event", sum(&|r| r.record_ms) * 1e6 / events, n);
    report.set("interp.trace_bytes_per_event", sum(&|r| r.trace_bytes as f64) / events, n);
    report.set("trace.decode_ms", sum(&|r| r.decode_ms), n);
    report.set("trace.arena_bytes", sum(&|r| r.arena_bytes as f64), n);
    report.set("trace.dispatch_ms", sum(&|r| r.dispatch_ms), n);
    report.set("hcpa.fixed_ms", sum(&|r| r.fixed_ms), n);
    report.set("hcpa.replay_ms", sum(&|r| r.replay_ms), n);
    report.set("hcpa.ns_per_event", sum(&|r| r.replay_ms) * 1e6 / events, n);
    report.set("hcpa.shadow_bytes", sum(&|r| r.shadow_bytes as f64), n);
    report.set("hcpa.sharded_ms", sum(&|r| r.sharded_ms), n);
    report.set("hcpa.shard_max_ms", sum(&|r| r.shard_max_ms()), n);
    report.set("hcpa.shard_imbalance", sum(&|r| r.shard_max_ms()) / sum(&|r| r.shard_mean_ms()), n);
    report.set("hcpa.stitch_ms", sum(&|r| r.stitch_ms), n);
    report.set("compress.dict_entries", sum(&|r| r.dict_entries as f64), n);
    report.set("compress.profile_bytes", sum(&|r| r.profile_bytes as f64), n);
    report.set("planner.plan_ms", sum(&|r| r.plan_ms), n);
    report.set("sim.evaluate_ms", sum(&|r| r.evaluate_ms), n);
    report.set("sim.sharded_divergent", rows.iter().filter(|r| r.divergent).count() as f64, n);
    Ok(())
}
