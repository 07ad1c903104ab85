//! Profiler hot-path + depth-sharding benchmark — emits `BENCH_profiler.json`.
//!
//! Measures, per workload (NPB-derived bt/lu/cg kernels):
//!
//! * `interp_only_ms` — the plain interpreter with no profiling hook;
//! * `serial_seed_ms` — the **frozen pre-optimization profiler**
//!   ([`kremlin_hcpa::seed`]): depth-major shadow lookups (one page hash
//!   per depth), O(depth) per-instruction work accounting, per-call
//!   allocations. This is the baseline every speedup is against.
//! * `serial_optimized_ms` — the current profiler (stamped shadow runs,
//!   flat page table, O(1) work accrual, segment folding);
//! * `shadow_commits` — that profiler's committed instruction events
//!   (the rest are folded), deterministic per workload;
//! * 3-way depth-sharded collection ([`kremlin_hcpa::parallel`]): one
//!   `record` pass captures the event trace, one `DecodedTrace::decode`
//!   pass materializes it into a shared arena (and yields a per-depth
//!   cost histogram for free), then per-shard `profile_decoded` replays
//!   at `plan_shards_weighted`'s cost-balanced boundaries, plus the
//!   stitch cost.
//!
//! **Sharded wall-clock methodology**: each shard is an independent
//! replay of the shared arena; on a machine with ≥ `jobs` cores they run
//! concurrently and the elapsed time is the slowest shard plus the stitch
//! — the *critical path*. Each shard pass is timed on its own, so
//! `decoded_replay_sharded_critical_path_ms = max(shard) + stitch` is a
//! *modeled* multi-core wall clock (`host_cores` records the machine).
//! Record and decode are one-time costs per trace, reported separately.
//!
//! The stitched profile is asserted bit-identical to the serial profile
//! before any number is reported, so the speedup is never of a wrong
//! answer.
//!
//! **Gated ratios**: the seed, optimized and shard passes — the inputs
//! of the two speedups `ci-gate` checks — run interleaved, each once per
//! iteration. Each pass reports its minimum over the iterations, and each
//! speedup is the median over the iterations of that iteration's own
//! ratio, so host drift moves numerator and denominator together (the
//! ratio of the two minimums, picked from different moments, spread
//! 1.5-4.7x wider over the same ten recordings on a shared 2-core
//! host). The other passes report medians.
//!
//! All timing passes run with `kremlin_obs` metrics **disabled** (the
//! disabled layer is budgeted at < 2% of the critical path; see the
//! `obs_overhead` bench). A separate non-timed pass per workload collects
//! a `kremlin-metrics-v1` snapshot that is embedded under each workload's
//! `"metrics"` key — the same schema `kremlin --metrics=json` prints —
//! so `ci-gate` can diff counters as well as timings.
//!
//! ```text
//! bench_profiler [--workloads=bt,lu,cg] [--warmup=N] [--iters=N] [--out=PATH]
//! ```

use kremlin_bench::timer::{bench, interleaved};
use kremlin_hcpa::{
    plan_shards_weighted, profile_decoded, profile_unit, profile_unit_seed, shard_plan_cost,
    HcpaConfig, ParallelismProfile,
};
use kremlin_interp::trace::DecodedTrace;
use kremlin_interp::{record, MachineConfig};
use kremlin_planner::{OpenMpPlanner, Personality};
use std::collections::HashSet;
use std::hint::black_box;

const JOBS: usize = 3;

struct Args {
    workloads: Vec<String>,
    warmup: usize,
    iters: usize,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workloads: vec!["bt".into(), "lu".into(), "cg".into()],
        warmup: 1,
        iters: 5,
        out: "BENCH_profiler.json".into(),
    };
    for arg in std::env::args().skip(1) {
        if let Some(v) = arg.strip_prefix("--workloads=") {
            a.workloads = v.split(',').map(|s| s.trim().to_owned()).collect();
            if a.workloads.is_empty() {
                return Err("--workloads needs at least one name".into());
            }
        } else if let Some(v) = arg.strip_prefix("--warmup=") {
            a.warmup = v.parse().map_err(|_| format!("bad --warmup value `{v}`"))?;
        } else if let Some(v) = arg.strip_prefix("--iters=") {
            a.iters = v.parse().map_err(|_| format!("bad --iters value `{v}`"))?;
            if a.iters == 0 {
                return Err("--iters must be at least 1".into());
            }
        } else if let Some(v) = arg.strip_prefix("--out=") {
            a.out = v.to_owned();
        } else {
            return Err(format!(
                "unknown argument `{arg}`\nusage: bench_profiler [--workloads=bt,lu,cg] \
                 [--warmup=N] [--iters=N] [--out=PATH]"
            ));
        }
    }
    Ok(a)
}

struct Row {
    name: String,
    interp_only_ms: f64,
    serial_seed_ms: f64,
    serial_optimized_ms: f64,
    record_ms: f64,
    decode_ms: f64,
    decoded_shard_ms: Vec<f64>,
    decoded_stitch_ms: f64,
    decoded_arena_bytes: u64,
    per_depth_cost: Vec<u64>,
    trace_events: u64,
    trace_bytes: u64,
    max_depth: usize,
    instr_events: u64,
    shadow_commits: u64,
    /// Median over the iterations of each iteration's seed / optimized
    /// ratio.
    serial_speedup: f64,
    /// Median over the iterations of each iteration's seed / (slowest
    /// shard + stitch) ratio.
    decoded_sharded_speedup: f64,
    seed_shadow_bytes: u64,
    /// Sum of the per-shard shadow footprints under the weighted plan:
    /// what §4.2 sharding actually allocates across workers.
    sharded_shadow_bytes: u64,
    /// `kremlin-metrics-v1` snapshot of one obs-enabled (non-timed) pass.
    metrics_json: String,
}

impl Row {
    /// Steady-state decoded-replay wall clock: the arena already exists
    /// (decoded once per trace, amortized across replays exactly like
    /// `record_ms`), cost-balanced shard workers replay the shared
    /// buffers concurrently, and the elapsed time is the slowest shard
    /// plus the stitch.
    fn decoded_critical_path_ms(&self) -> f64 {
        self.decoded_shard_ms.iter().copied().fold(0.0, f64::max) + self.decoded_stitch_ms
    }

    /// Cold-start decoded wall clock for callers holding only a trace
    /// file: one decode pass plus the decoded-replay critical path.
    fn decode_plus_replay_ms(&self) -> f64 {
        self.decode_ms + self.decoded_critical_path_ms()
    }

    /// Max/mean of the decoded shard walls: 1.0 is a perfectly flat
    /// plan, and anything near `jobs` means one shard carries the run.
    fn decoded_imbalance(&self) -> f64 {
        let max = self.decoded_shard_ms.iter().copied().fold(0.0, f64::max);
        let mean = self.decoded_shard_ms.iter().sum::<f64>() / self.decoded_shard_ms.len() as f64;
        max / mean
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn json_f(x: f64) -> String {
    format!("{x:.3}")
}

/// One obs-enabled pipeline pass returning the metrics snapshot as
/// JSON. Runs the full record → decode → decoded-replay → plan
/// pipeline (not a live `profile_unit`) so the `trace.record.*`,
/// `trace.decode.*`, and `trace.replay.*` counters in the embedded
/// snapshot reflect real work instead of sitting at zero. Runs outside
/// any timed region.
fn collect_metrics(unit: &kremlin_ir::CompiledUnit, config: HcpaConfig) -> String {
    kremlin_obs::reset();
    kremlin_obs::set_metrics(true);
    let trace = record(&unit.module, MachineConfig::default()).expect("metrics pass records");
    let decoded = DecodedTrace::decode(&trace, &unit.module).expect("metrics pass decodes");
    let outcome = profile_decoded(unit, &decoded, config).expect("metrics pass profiles");
    let _plan = OpenMpPlanner::default().plan(&outcome.profile, &HashSet::new());
    kremlin_obs::set_metrics(false);
    let json = kremlin_obs::snapshot().to_json();
    kremlin_obs::reset();
    json
}

fn measure(name: &str, warmup: usize, iters: usize) -> Row {
    let w = kremlin_workloads::by_name(name).expect("workload exists");
    let unit = kremlin_ir::compile(w.source, &format!("{name}.kc")).expect("compiles");
    let config = HcpaConfig::default();
    let machine = MachineConfig::default();

    // One serial pass for ground truth.
    let serial = profile_unit(&unit, config).expect("serial profile");
    let trace = record(&unit.module, machine).expect("record");

    // Correctness gate: shard profiles replayed from the shared decoded
    // arena at the cost-balanced boundaries must stitch to a profile
    // bit-identical to the serial one before their speed is worth
    // reporting.
    let decoded = DecodedTrace::decode(&trace, &unit.module).expect("decode");
    let per_depth_cost = shard_plan_cost(&decoded);
    let wshards = plan_shards_weighted(&per_depth_cost, config.window, JOBS);
    assert_eq!(wshards.len(), JOBS, "{name}: expected a full {JOBS}-way weighted split");
    let decoded_outcomes: Vec<_> = wshards
        .iter()
        .map(|s| {
            let cfg = HcpaConfig { window: s.window, min_depth: s.min_depth, ..config };
            profile_decoded(&unit, &decoded, cfg).expect("decoded shard profile")
        })
        .collect();
    let sharded_shadow_bytes = decoded_outcomes.iter().map(|o| o.stats.shadow_bytes).sum();
    let decoded_slices: Vec<ParallelismProfile> =
        decoded_outcomes.into_iter().map(|o| o.profile).collect();
    let wstarts: Vec<usize> = wshards.iter().map(|s| s.min_depth).collect();
    let decoded_stitched = ParallelismProfile::stitch_at(&decoded_slices, &wstarts);
    assert!(
        decoded_stitched.identical_stats(&serial.profile),
        "{name}: decoded-replay stitched profile differs from serial"
    );

    let seed_outcome = profile_unit_seed(&unit, config, machine).expect("seed profile");
    assert!(
        seed_outcome.profile.identical_stats(&serial.profile),
        "{name}: seed profile differs from optimized"
    );

    let metrics_json = collect_metrics(&unit, config);

    let interp =
        bench("interp", warmup, iters, || kremlin_interp::run(&unit.module).expect("plain run"));
    let mut seed_pass = || {
        black_box(profile_unit_seed(&unit, config, machine).expect("seed profile"));
    };
    let mut opt_pass = || {
        black_box(profile_unit(&unit, config).expect("profile"));
    };
    let mut shard_passes: Vec<_> = wshards
        .iter()
        .map(|s| {
            let cfg = HcpaConfig { window: s.window, min_depth: s.min_depth, ..config };
            let (unit, decoded) = (&unit, &decoded);
            move || {
                black_box(profile_decoded(unit, decoded, cfg).expect("decoded shard profile"));
            }
        })
        .collect();
    let mut passes: Vec<&mut dyn FnMut()> = vec![&mut seed_pass, &mut opt_pass];
    passes.extend(shard_passes.iter_mut().map(|p| p as &mut dyn FnMut()));
    let samples = interleaved(warmup, iters, &mut passes);
    let record_pass =
        bench("record", warmup, iters, || record(&unit.module, machine).expect("record"));
    let decode_pass = bench("decode", warmup, iters, || {
        DecodedTrace::decode(&trace, &unit.module).expect("decode")
    });
    let decoded_stitch = bench("decoded-stitch", warmup, iters, || {
        ParallelismProfile::stitch_at(&decoded_slices, &wstarts)
    });
    // Each pass reports its fastest iteration. Each speedup is the median
    // of the iterations' own ratios: passes timed side by side share the
    // host's state, while two minimums picked apart need not.
    let min_ms = |p: usize| samples.iter().map(|row| row[p]).fold(f64::INFINITY, f64::min) * 1e3;
    let critical_path =
        |row: &[f64]| row[2..].iter().copied().fold(0.0, f64::max) + decoded_stitch.median_s;

    Row {
        name: name.to_owned(),
        interp_only_ms: interp.median_ms(),
        serial_seed_ms: min_ms(0),
        serial_optimized_ms: min_ms(1),
        record_ms: record_pass.median_ms(),
        decode_ms: decode_pass.median_ms(),
        decoded_shard_ms: (2..2 + wshards.len()).map(min_ms).collect(),
        decoded_stitch_ms: decoded_stitch.median_ms(),
        decoded_arena_bytes: decoded.arena_bytes() as u64,
        per_depth_cost,
        trace_events: trace.events(),
        trace_bytes: trace.encoded_len() as u64,
        max_depth: serial.stats.max_depth,
        instr_events: serial.stats.instr_events,
        shadow_commits: serial.stats.shadow_commits,
        serial_speedup: median(samples.iter().map(|row| row[0] / row[1]).collect()),
        decoded_sharded_speedup: median(
            samples.iter().map(|row| row[0] / critical_path(row)).collect(),
        ),
        seed_shadow_bytes: seed_outcome.stats.shadow_bytes,
        sharded_shadow_bytes,
        metrics_json,
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let rows: Vec<Row> =
        args.workloads.iter().map(|n| measure(n, args.warmup, args.iters)).collect();

    println!(
        "{:<4} {:>10} {:>9} {:>9} {:>14} {:>9} {:>8}",
        "", "seed(ms)", "opt(ms)", "opt-spd", "shards(ms)", "dec(ms)", "dec-spd"
    );
    for r in &rows {
        println!(
            "{:<4} {:>10.1} {:>9.1} {:>8.2}x {:>14} {:>9.1} {:>7.2}x",
            r.name,
            r.serial_seed_ms,
            r.serial_optimized_ms,
            r.serial_speedup,
            r.decoded_shard_ms.iter().map(|x| format!("{x:.0}")).collect::<Vec<_>>().join("/"),
            r.decoded_critical_path_ms(),
            r.decoded_sharded_speedup,
        );
    }

    let min_decoded = rows.iter().map(|r| r.decoded_sharded_speedup).fold(f64::INFINITY, f64::min);
    let geomean_decoded = (rows.iter().map(|r| r.decoded_sharded_speedup.ln()).sum::<f64>()
        / rows.len() as f64)
        .exp();
    println!(
        "\ndecode-once arena + weighted shards: min {min_decoded:.2}x, geomean {geomean_decoded:.2}x \
         (decode pass amortized like record); shard imbalance max/mean: {}",
        rows.iter()
            .map(|r| format!("{} {:.2}x", r.name, r.decoded_imbalance()))
            .collect::<Vec<_>>()
            .join(", ")
    );

    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"profiler\",\n");
    out.push_str(&format!(
        "  \"config\": {{\"window\": 24, \"jobs\": {JOBS}, \"warmup\": {}, \
         \"iters\": {}, \"host_cores\": {host_cores}}},\n",
        args.warmup, args.iters
    ));
    out.push_str(
        "  \"methodology\": \"Baseline is the frozen pre-optimization profiler \
         (kremlin_hcpa::seed). The event trace is recorded once (record_ms) and decoded once \
         into a shared arena (decode_ms); both are one-time costs amortized across replays. \
         The decode pass's per-depth histogram (per_depth_cost) drives an exact DP \
         cost-balanced shard plan, and every shard replays the shared arena. Shard passes are \
         timed one at a time, so decoded_replay_sharded_critical_path_ms = \
         max(decoded_replay_shard_pass_ms) + decoded_stitch_ms is a modeled wall clock for a \
         machine with >= jobs cores; decode_plus_replay_ms adds the one-time decode, and \
         decoded_shard_imbalance is max/mean of the decoded shard walls (1.0 = perfectly flat \
         plan). The stitched profile is asserted bit-identical to the serial profile before \
         timing. shadow_bytes_sharded_total sums the per-shard shadow footprints under the \
         weighted plan; the former shadow_bytes_packed field was dropped because slot packing \
         changes locality, not size, so it was byte-identical to shadow_bytes_baseline on \
         every workload. The seed, optimized and shard passes run interleaved, once each per \
         iteration: each reports its minimum over the timed iterations, and each speedup is \
         the median over the iterations of that iteration's own ratio (seed / optimized, \
         seed / (slowest shard + stitch)); the other passes report medians. shadow_commits \
         counts the optimized profiler's committed instruction events (the rest are \
         folded). Timing passes run with kremlin_obs \
         disabled; each workload's 'metrics' object is a kremlin-metrics-v1 snapshot from a \
         separate non-timed record/decode/decoded-replay/plan pipeline pass (so the \
         trace.record.*, trace.decode.*, and trace.replay.* counters are live).\",\n",
    );
    out.push_str("  \"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"max_depth\": {}, \"instr_events\": {}, \
             \"shadow_commits\": {},\n",
            r.name, r.max_depth, r.instr_events, r.shadow_commits
        ));
        out.push_str(&format!(
            "     \"interp_only_ms\": {}, \"serial_baseline_ms\": {}, \
             \"serial_optimized_ms\": {},\n",
            json_f(r.interp_only_ms),
            json_f(r.serial_seed_ms),
            json_f(r.serial_optimized_ms)
        ));
        out.push_str(&format!(
            "     \"record_ms\": {}, \"decode_ms\": {}, \"decoded_replay_shard_pass_ms\": [{}], \
             \"decoded_stitch_ms\": {},\n",
            json_f(r.record_ms),
            json_f(r.decode_ms),
            r.decoded_shard_ms.iter().map(|x| json_f(*x)).collect::<Vec<_>>().join(", "),
            json_f(r.decoded_stitch_ms)
        ));
        out.push_str(&format!(
            "     \"decoded_replay_sharded_critical_path_ms\": {}, \"decode_plus_replay_ms\": {},\n",
            json_f(r.decoded_critical_path_ms()),
            json_f(r.decode_plus_replay_ms())
        ));
        out.push_str(&format!(
            "     \"decoded_shard_imbalance\": {}, \"decoded_arena_bytes\": {},\n",
            json_f(r.decoded_imbalance()),
            r.decoded_arena_bytes
        ));
        out.push_str(&format!(
            "     \"per_depth_cost\": [{}],\n",
            r.per_depth_cost.iter().map(u64::to_string).collect::<Vec<_>>().join(", ")
        ));
        out.push_str(&format!(
            "     \"trace_events\": {}, \"trace_bytes\": {},\n",
            r.trace_events, r.trace_bytes
        ));
        out.push_str(&format!(
            "     \"speedup_serial_optimized\": {}, \
             \"speedup_decoded_replay_sharded_critical_path\": {},\n",
            json_f(r.serial_speedup),
            json_f(r.decoded_sharded_speedup)
        ));
        out.push_str(&format!(
            "     \"shadow_bytes_baseline\": {}, \"shadow_bytes_sharded_total\": {}, \
             \"stitched_identical\": true,\n",
            r.seed_shadow_bytes, r.sharded_shadow_bytes,
        ));
        out.push_str(&format!(
            "     \"metrics\": {}}}{}\n",
            r.metrics_json,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"summary\": {{\"min_decoded_replay_sharded_speedup\": {}, \
         \"geomean_decoded_replay_sharded_speedup\": {}}}\n",
        json_f(min_decoded),
        json_f(geomean_decoded)
    ));
    out.push_str("}\n");

    std::fs::write(&args.out, &out).unwrap_or_else(|e| panic!("write {}: {e}", args.out));
    println!("wrote {}", args.out);
}
