//! Depth-sharded parallel HCPA collection over a recorded trace.
//!
//! The paper's §4.2 depth-range flag "facilitat[es] parallel data
//! collection for the HCPA": since shadow state for one depth range is
//! independent of every other range, the profile can be collected as K
//! passes with disjoint ranges and stitched. This module turns that into
//! a first-class API — and, unlike instrumented native re-execution,
//! pays for the program's execution **once**: a recorded trace is the
//! input, [`profile_trace_parallel`] decodes it **once** into a
//! [`DecodedTrace`] arena, and [`profile_decoded_parallel`] replays the
//! decoded buffers into K depth-shard profilers (one per `std::thread`
//! worker, zero varint work each) and stitches the slices with
//! [`ParallelismProfile::stitch_at`]. The decode pass also makes depth
//! discovery free: it accumulates the per-depth cost histogram that
//! [`plan_shards_weighted`] balances shard boundaries with — uniform
//! strides leave the shallowest shard well above the mean on skewed
//! workloads, and the max shard wall *is* the critical path.
//!
//! Shard ranges overlap by exactly one depth (each shard's window is
//! one more than the depth span it owns): a region's self-parallelism
//! needs the availability times of both the region's depth *and its
//! children's*, so the shard that owns depth `d` also tracks `d + 1`.
//! With ranges planned this way the stitched profile is
//! **bit-identical** to a single full-window pass
//! ([`ParallelismProfile::identical_stats`]) whenever the depth estimate
//! covers the real nesting depth — which the decoded trace's own
//! histogram guarantees when no hint is supplied.

use crate::profile::ParallelismProfile;
use crate::profiler::{HcpaConfig, Profiler};
use crate::{profile_decoded, replay_profile, ProfileOutcome};
use kremlin_interp::trace::{DecodedTrace, Trace, TraceError};
use kremlin_interp::MachineConfig;
use kremlin_ir::CompiledUnit;
use std::time::Instant;

/// One shard's tracked depth range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// First tracked depth.
    pub min_depth: usize,
    /// Number of tracked depths. One more than the depth span the shard
    /// owns: each shard also tracks the first depth of the next shard's
    /// range, so every region's children are observed by the region's
    /// own shard.
    pub window: usize,
}

/// How shard workers consume the shared trace. The decode-once arena is
/// the only strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplayStrategy {
    /// Decode the varint stream **once** into a shared
    /// [`DecodedTrace`] arena; every worker replays the decoded buffers
    /// with zero varint work, and shard boundaries are cost-balanced
    /// from the per-depth histogram the decode pass produces for free.
    #[default]
    Decoded,
}

/// Configuration for depth-sharded collection.
#[derive(Debug, Clone, Copy)]
pub struct ParallelConfig {
    /// Number of depth shards, each run on its own worker thread.
    pub jobs: usize,
    /// Maximum region nesting depth of the program, if known (e.g.
    /// `ProfilerStats::max_depth` from an earlier run). Sharding splits
    /// this range rather than the nominal window, so shallow programs
    /// don't leave most shards idle. When `None`, the decoded trace's
    /// per-depth histogram supplies it. An *underestimate* trades the
    /// bit-identity guarantee for speed (depths beyond the estimate fall
    /// into the last shard's range untracked).
    pub depth_hint: Option<usize>,
    /// How workers consume the shared trace (the decode-once arena, the
    /// only [`ReplayStrategy`]).
    pub strategy: ReplayStrategy,
    /// The profiling configuration of the equivalent serial pass. Its
    /// `window` is the total tracked-depth budget; `min_depth` must be 0
    /// (sharding owns the depth ranges).
    pub hcpa: HcpaConfig,
    /// Interpreter limits. Sharded collection replays a recording and
    /// never interprets, so it does not read them.
    pub machine: MachineConfig,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            jobs: 3,
            depth_hint: None,
            strategy: ReplayStrategy::default(),
            hcpa: HcpaConfig::default(),
            machine: MachineConfig::default(),
        }
    }
}

/// How many per-level instruction updates one region instance costs in
/// the shard planning model. An instance at a tracked stack position
/// pays enter/exit bookkeeping there — tag allocation, dictionary node
/// open/close, instance-stat merge — which is far heavier than one
/// instruction's per-level availability update. Calibrated on the NPB
/// workloads: measured decoded shard walls fit
/// `wall ≈ fixed + s · (level_updates + W · instances)` for `W` in the
/// 40–75 range, and the profiler's per-instance work (~hundreds of ns)
/// over its per-level update (~6 ns) agrees. Only shifts planned
/// boundaries; never affects correctness (stitching is bit-identical
/// at any boundaries).
pub const REGION_INSTANCE_WEIGHT: u64 = 64;

/// Per-depth planning cost for weighted sharding: the decode-time
/// instruction histogram ([`DecodedTrace::per_depth_cost`] — how many
/// per-level availability updates tracking each depth costs) plus
/// [`REGION_INSTANCE_WEIGHT`] times the region instances created at
/// that stack position ([`DecodedTrace::region_enter_hist`] — the
/// instance-churn term that dominates innermost loop depths).
#[must_use]
pub fn shard_plan_cost(decoded: &DecodedTrace) -> Vec<u64> {
    let instr = decoded.per_depth_cost();
    let enters = decoded.region_enter_hist();
    let len = instr.len().max(enters.len());
    let mut cost = vec![0u64; len];
    for (d, c) in cost.iter_mut().enumerate() {
        *c = instr.get(d).copied().unwrap_or(0)
            + REGION_INSTANCE_WEIGHT * enters.get(d).copied().unwrap_or(0);
    }
    cost
}

/// Plans cost-balanced shard depth ranges from a per-depth cost
/// histogram (what [`shard_plan_cost`] models from the decode pass's
/// histograms): an exact dynamic-programming linear partition of the
/// contiguous depth range into at most `jobs` chunks minimizing the
/// **maximum** shard cost — the replay critical path — instead of
/// uniform strides.
///
/// A shard owning depths `[a, b)` also tracks the overlap depth `b`
/// (the one-depth-overlap invariant that makes stitching bit-identical),
/// so its cost in the optimization is `cost[a..=b]`, not `cost[a..b]`:
/// the planner charges each shard for the overlap work it really does.
///
/// Returns one full-window shard when no histogram is available (empty
/// or all-zero `per_depth_cost`), and fewer than `jobs` shards when
/// there aren't enough depths: at least one shard always.
#[must_use]
pub fn plan_shards_weighted(per_depth_cost: &[u64], window: usize, jobs: usize) -> Vec<ShardSpec> {
    let eff = per_depth_cost.len().min(window.max(1));
    let cost = &per_depth_cost[..eff];
    if eff == 0 || cost.iter().all(|&c| c == 0) {
        return vec![ShardSpec { min_depth: 0, window }];
    }
    let chunks = jobs.max(1).min(eff);

    let mut prefix = vec![0u64; eff + 1];
    for (d, &c) in cost.iter().enumerate() {
        prefix[d + 1] = prefix[d] + c;
    }
    // True cost of a shard owning [a, b): the owned span plus the
    // one-depth overlap at b (tracked but owned by the next shard).
    let chunk_cost =
        |a: usize, b: usize| -> u64 { prefix[b] - prefix[a] + if b < eff { cost[b] } else { 0 } };

    // dp[k][i]: minimal achievable max shard cost partitioning depths
    // [i, eff) into exactly k+1 chunks; cut[k][i] records the first
    // boundary of an optimal split. O(jobs · eff²) with eff ≤ window.
    let mut dp = vec![vec![u64::MAX; eff + 1]; chunks];
    let mut cut = vec![vec![0usize; eff + 1]; chunks];
    for (i, slot) in dp[0].iter_mut().enumerate().take(eff) {
        *slot = chunk_cost(i, eff);
    }
    for k in 1..chunks {
        // k more cuts need at least k depths after the first chunk.
        for i in 0..eff - k {
            for b in i + 1..=eff - k {
                let worst = chunk_cost(i, b).max(dp[k - 1][b]);
                if worst < dp[k][i] {
                    dp[k][i] = worst;
                    cut[k][i] = b;
                }
            }
        }
    }

    let mut starts = Vec::with_capacity(chunks);
    let mut at = 0usize;
    for k in (0..chunks).rev() {
        starts.push(at);
        if k > 0 {
            at = cut[k][at];
        }
    }

    let mut shards = Vec::with_capacity(starts.len());
    for (k, &min_depth) in starts.iter().enumerate() {
        let end = starts.get(k + 1).copied().unwrap_or(eff);
        // One more than the owned span: the overlap depth, clipped by the
        // serial clamp.
        shards.push(ShardSpec { min_depth, window: (end - min_depth + 1).min(window - min_depth) });
    }
    shards
}

/// Profiles a recorded trace with depth-sharded parallel collection,
/// without any execution at all: decodes the shared immutable `trace`
/// **once** into a [`DecodedTrace`] arena and hands it to
/// [`profile_decoded_parallel`], whatever `config.jobs` is. The tool
/// itself does not call it: `kremlin replay`, `--save-trace` and trace
/// uploads decode in the engine and replay through `Kremlin::replay`,
/// which calls [`profile_decoded_parallel`].
///
/// # Errors
///
/// [`TraceError::ModuleMismatch`] when the trace was not recorded from
/// `unit`'s module; [`TraceError::Corrupt`] for damaged event streams.
///
/// # Panics
///
/// Panics if `config.hcpa.min_depth != 0`.
pub fn profile_trace_parallel(
    unit: &CompiledUnit,
    trace: &Trace,
    config: ParallelConfig,
) -> Result<ProfileOutcome, TraceError> {
    if !trace.matches(&unit.module) {
        return Err(TraceError::ModuleMismatch);
    }
    let decoded = DecodedTrace::decode(trace, &unit.module)?;
    profile_decoded_parallel(unit, &decoded, config)
}

/// [`profile_trace_parallel`] over an already-decoded trace: plans
/// cost-balanced shard boundaries from the arena's per-depth histogram,
/// replays the shared decoded buffers into K depth-shard profilers (one
/// per worker thread, disjoint one-depth-overlapping tracked ranges),
/// and stitches them into one profile. Use this directly to amortize one
/// decode across many profiling configurations.
///
/// The stitched profile's per-region statistics are bit-identical to a
/// single serial pass with `config.hcpa` (see
/// [`ParallelismProfile::identical_stats`]); the returned stats
/// aggregate shadow footprint across shards, and the embedded dictionary
/// is the shard-0 dictionary (see [`ParallelismProfile::stitch_at`]).
/// With `jobs <= 1`, a window too small to split (`window < 2`), or a
/// plan of one shard, this is the serial [`profile_decoded`] pass, so
/// `jobs` never changes the result.
///
/// When metrics are enabled, the run-wide counters (`hcpa.instr_events`,
/// `hcpa.dynamic_regions`, the `hcpa.region_work` histogram) are
/// published once, by shard 0, as a serial pass would publish them; the
/// shadow-work counters (`hcpa.shadow.*`) sum every shard's work. Each
/// worker additionally publishes its own counter set under a `shard.N.`
/// prefix: `events` (events replayed), `instr_events` and
/// `shadow_live_pages` (shadow slots touched), and a `wall_us` gauge
/// (worker wall time).
///
/// # Errors
///
/// [`TraceError::ModuleMismatch`] when the trace was not recorded from
/// `unit`'s module.
///
/// # Panics
///
/// Panics if `config.hcpa.min_depth != 0`.
pub fn profile_decoded_parallel(
    unit: &CompiledUnit,
    decoded: &DecodedTrace,
    config: ParallelConfig,
) -> Result<ProfileOutcome, TraceError> {
    assert_eq!(config.hcpa.min_depth, 0, "sharding owns the depth ranges");
    if !decoded.matches(&unit.module) {
        return Err(TraceError::ModuleMismatch);
    }
    // A window below 2 cannot cover a region and its children, so there
    // is nothing to split.
    if config.jobs <= 1 || config.hcpa.window < 2 {
        return profile_decoded(unit, decoded, config.hcpa);
    }
    let cost = shard_plan_cost(decoded);
    // A depth hint keeps its documented meaning: it truncates the
    // planning domain (an underestimate trades bit-identity for speed).
    let dom = config.depth_hint.unwrap_or(cost.len()).min(cost.len());
    let shards = plan_shards_weighted(&cost[..dom], config.hcpa.window, config.jobs);
    if shards.len() <= 1 {
        return profile_decoded(unit, decoded, config.hcpa);
    }
    run_shards(unit, decoded, &shards, config.hcpa)
}

/// Per-worker metric handles, resolved **once** before the worker
/// spawns: `counter_named` allocates and takes a registry lock, which is
/// fine per shard but not inside hot reporting paths.
struct ShardMetrics {
    events: &'static kremlin_obs::Counter,
    instr_events: &'static kremlin_obs::Counter,
    shadow_live_pages: &'static kremlin_obs::Counter,
    wall_us: &'static kremlin_obs::Gauge,
}

impl ShardMetrics {
    fn resolve(k: usize) -> ShardMetrics {
        ShardMetrics {
            events: kremlin_obs::counter_named(&format!("shard.{k}.events")),
            instr_events: kremlin_obs::counter_named(&format!("shard.{k}.instr_events")),
            shadow_live_pages: kremlin_obs::counter_named(&format!("shard.{k}.shadow_live_pages")),
            wall_us: kremlin_obs::gauge_named(&format!("shard.{k}.wall_us")),
        }
    }

    fn publish(&self, events: u64, outcome: &ProfileOutcome, started: Instant) {
        self.events.add(events);
        self.instr_events.add(outcome.stats.instr_events);
        self.shadow_live_pages.add(outcome.stats.shadow_live_pages);
        self.wall_us.set_max(started.elapsed().as_micros() as u64);
    }
}

/// Spawns one worker per shard, each replaying the whole shared arena
/// with its shard's depth range installed, then collects the slices,
/// aggregates shadow stats, and stitches at the planned boundaries.
fn run_shards(
    unit: &CompiledUnit,
    decoded: &DecodedTrace,
    shards: &[ShardSpec],
    config: HcpaConfig,
) -> Result<ProfileOutcome, TraceError> {
    let mut outcomes: Vec<Option<Result<ProfileOutcome, TraceError>>> = Vec::new();
    outcomes.resize_with(shards.len(), || None);
    let metrics_on = kremlin_obs::metrics_enabled();
    std::thread::scope(|scope| {
        for (k, (shard, slot)) in shards.iter().zip(outcomes.iter_mut()).enumerate() {
            let hcpa = HcpaConfig { window: shard.window, min_depth: shard.min_depth, ..config };
            let metrics = metrics_on.then(|| ShardMetrics::resolve(k));
            scope.spawn(move || {
                let started = Instant::now();
                // Every shard sees the whole run: shard 0 alone publishes
                // its run-wide metrics.
                let profiler = Profiler::new(&unit.module, hcpa);
                let profiler = if k == 0 { profiler } else { profiler.without_run_metrics() };
                let res = replay_profile(unit, decoded, profiler);
                if let (Some(m), Ok(o)) = (&metrics, &res) {
                    m.publish(decoded.events(), o, started);
                }
                *slot = Some(res);
            });
        }
    });

    let mut slices = Vec::with_capacity(outcomes.len());
    let mut stats = None;
    let mut run = None;
    for outcome in outcomes {
        let o = outcome.expect("shard worker finished")?;
        match &mut stats {
            None => {
                stats = Some(o.stats);
                run = Some(o.run);
            }
            Some(s) => {
                debug_assert_eq!(run, Some(o.run), "shards disagree on execution");
                s.shadow_pages += o.stats.shadow_pages;
                s.shadow_live_pages += o.stats.shadow_live_pages;
                s.shadow_bytes += o.stats.shadow_bytes;
                s.shadow_commits += o.stats.shadow_commits;
            }
        }
        slices.push(o.profile);
    }
    let stats = stats.expect("at least one shard");
    let starts: Vec<usize> = shards.iter().map(|s| s.min_depth).collect();
    let stitch_span = kremlin_obs::span("stitch");
    let profile = ParallelismProfile::stitch_at(&slices, &starts);
    drop(stitch_span);
    kremlin_obs::counter!("hcpa.stitch.slices").add(slices.len() as u64);
    Ok(ProfileOutcome { profile, stats, run: run.expect("at least one shard") })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile_unit;

    const DEEP_SRC: &str = "float acc[16];\n\
        float work(float x) { float s = 0.0; for (int k = 0; k < 6; k++) { s += sqrt(x + (float) k); } return s; }\n\
        int main() {\n\
          for (int i = 0; i < 6; i++) {\n\
            for (int j = 0; j < 6; j++) {\n\
              acc[j] += work((float) (i * j));\n\
            }\n\
          }\n\
          return (int) acc[3];\n\
        }";

    /// Cost a shard really pays: the histogram over its full tracked
    /// range (owned span plus the overlap depth).
    fn shard_cost(cost: &[u64], s: &ShardSpec) -> u64 {
        let hi = (s.min_depth + s.window).min(cost.len());
        cost[s.min_depth.min(hi)..hi].iter().sum()
    }

    /// Exhaustive minimum over every contiguous partition of the
    /// effective depth range into at most `jobs` chunks.
    fn brute_force_best(cost: &[u64], window: usize, jobs: usize) -> u64 {
        let eff = cost.len().min(window);
        fn go(cost: &[u64], eff: usize, at: usize, left: usize) -> u64 {
            if left == 1 || at + 1 >= eff {
                return cost[at..eff].iter().sum();
            }
            let mut best = u64::MAX;
            for b in at + 1..eff {
                let head: u64 = cost[at..b].iter().sum::<u64>() + cost[b];
                best = best.min(head.max(go(cost, eff, b, left - 1)));
            }
            // Also allow using fewer chunks than permitted.
            best.min(cost[at..eff].iter().sum())
        }
        go(cost, eff, 0, jobs)
    }

    #[test]
    fn weighted_plans_preserve_the_overlap_invariant() {
        let hists: [&[u64]; 6] = [
            &[100, 90, 80, 40, 10, 2, 1, 1],      // typical suffix-sum skew
            &[7, 7, 7, 7, 7, 7, 7, 7],            // uniform
            &[1000, 1, 1, 1, 1, 1, 1, 1],         // extreme head spike
            &[5, 0, 0, 5, 0, 0, 5, 0],            // zero plateaus
            &[3],                                 // single depth
            &[50, 40, 30, 20, 10, 9, 8, 7, 6, 5], // deeper than some windows
        ];
        for cost in hists {
            for (window, jobs) in [(24, 3), (24, 1), (8, 2), (4, 4), (24, 16)] {
                let shards = plan_shards_weighted(cost, window, jobs);
                assert!(!shards.is_empty());
                assert!(shards.len() <= jobs.max(1), "{shards:?}");
                assert_eq!(shards[0].min_depth, 0, "{shards:?}");
                for w in shards.windows(2) {
                    assert_eq!(
                        w[0].min_depth + w[0].window,
                        w[1].min_depth + 1,
                        "one-depth overlap broken: {shards:?}"
                    );
                }
                let last = shards.last().unwrap();
                let eff = cost.len().min(window);
                assert!(
                    last.min_depth + last.window >= eff.min(window),
                    "plan does not cover the range: {shards:?}"
                );
                for s in &shards {
                    assert!(s.min_depth + s.window <= window, "serial clamp broken: {shards:?}");
                }
            }
        }
    }

    #[test]
    fn weighted_plans_are_optimal_against_brute_force() {
        let hists: [&[u64]; 5] = [
            &[100, 90, 80, 40, 10, 2, 1, 1],
            &[7, 7, 7, 7, 7, 7],
            &[1000, 1, 1, 1, 1, 1],
            &[5, 0, 0, 5, 0, 0, 5],
            &[1, 2, 3, 4, 5, 6, 7, 8],
        ];
        for cost in hists {
            for (window, jobs) in [(24, 2), (24, 3), (24, 4), (5, 3)] {
                let shards = plan_shards_weighted(cost, window, jobs);
                let planned_max = shards.iter().map(|s| shard_cost(cost, s)).max().unwrap();
                let best = brute_force_best(cost, window, jobs);
                assert_eq!(
                    planned_max, best,
                    "suboptimal split for cost={cost:?} window={window} jobs={jobs}: {shards:?}"
                );
            }
        }
    }

    #[test]
    fn weighted_plan_flattens_a_skewed_histogram() {
        // Suffix-sum-shaped skew: uniform strides overload shard 0.
        let cost: &[u64] = &[90, 60, 40, 12, 8, 4, 2, 1, 1];
        let uniform = [
            ShardSpec { min_depth: 0, window: 4 },
            ShardSpec { min_depth: 3, window: 4 },
            ShardSpec { min_depth: 6, window: 4 },
        ];
        let weighted = plan_shards_weighted(cost, 24, 3);
        let max = |plan: &[ShardSpec]| plan.iter().map(|s| shard_cost(cost, s)).max().unwrap();
        assert!(
            max(&weighted) < max(&uniform),
            "weighted {weighted:?} ({}) not flatter than uniform {uniform:?} ({})",
            max(&weighted),
            max(&uniform)
        );
    }

    #[test]
    fn shard_plan_cost_combines_level_updates_and_instance_churn() {
        let unit = kremlin_ir::compile(DEEP_SRC, "deep.kc").unwrap();
        let trace = kremlin_interp::trace::record(&unit.module, MachineConfig::default()).unwrap();
        let decoded = kremlin_interp::trace::DecodedTrace::decode(&trace, &unit.module).unwrap();
        let cost = shard_plan_cost(&decoded);
        let instr = decoded.per_depth_cost();
        let enters = decoded.region_enter_hist();
        assert_eq!(cost.len(), instr.len().max(enters.len()));
        for (d, &c) in cost.iter().enumerate() {
            assert_eq!(
                c,
                instr.get(d).copied().unwrap_or(0)
                    + REGION_INSTANCE_WEIGHT * enters.get(d).copied().unwrap_or(0),
                "depth {d}"
            );
        }
        // Every region instance lands somewhere: the churn term's total
        // is the weight times the number of enter events.
        let enters_total: u64 = enters.iter().sum();
        let instr_total: u64 = instr.iter().sum();
        let cost_total: u64 = cost.iter().sum();
        assert_eq!(cost_total, instr_total + REGION_INSTANCE_WEIGHT * enters_total);
        assert!(enters_total > 0, "deep program must create region instances");
    }

    #[test]
    fn weighted_plan_without_a_histogram_is_one_full_window_shard() {
        let whole = vec![ShardSpec { min_depth: 0, window: 24 }];
        assert_eq!(plan_shards_weighted(&[], 24, 3), whole);
        assert_eq!(plan_shards_weighted(&[0; 8], 24, 3), whole);
        assert_eq!(
            plan_shards_weighted(&[0; 30], 8, 2),
            vec![ShardSpec { min_depth: 0, window: 8 }]
        );
    }

    #[test]
    fn recorded_trace_knows_the_profiled_depth() {
        let unit = kremlin_ir::compile(DEEP_SRC, "deep.kc").unwrap();
        let serial = profile_unit(&unit, HcpaConfig::default()).unwrap();
        let trace = kremlin_interp::trace::record(&unit.module, MachineConfig::default()).unwrap();
        assert_eq!(trace.max_depth(), serial.stats.max_depth);
    }

    #[test]
    fn sharded_profile_is_bit_identical_to_serial() {
        let unit = kremlin_ir::compile(DEEP_SRC, "deep.kc").unwrap();
        let serial = profile_unit(&unit, HcpaConfig::default()).unwrap();
        let trace = kremlin_interp::trace::record(&unit.module, MachineConfig::default()).unwrap();
        let decoded = DecodedTrace::decode(&trace, &unit.module).unwrap();
        // `max_depth` jobs is one depth per shard: the many-slice stitch.
        for jobs in [2, 3, 4, serial.stats.max_depth] {
            let sharded = profile_decoded_parallel(
                &unit,
                &decoded,
                ParallelConfig { jobs, ..ParallelConfig::default() },
            )
            .unwrap();
            assert!(
                sharded.profile.identical_stats(&serial.profile),
                "{jobs}-way sharded profile differs from serial"
            );
            assert_eq!(sharded.run, serial.run);
            assert_eq!(sharded.stats.max_depth, serial.stats.max_depth);
            assert_eq!(sharded.stats.instr_events, serial.stats.instr_events);
        }
    }

    #[test]
    fn depth_hint_still_matches_serial() {
        let unit = kremlin_ir::compile(DEEP_SRC, "deep.kc").unwrap();
        let serial = profile_unit(&unit, HcpaConfig::default()).unwrap();
        let trace = kremlin_interp::trace::record(&unit.module, MachineConfig::default()).unwrap();
        let sharded = profile_trace_parallel(
            &unit,
            &trace,
            ParallelConfig {
                jobs: 3,
                depth_hint: Some(serial.stats.max_depth),
                ..ParallelConfig::default()
            },
        )
        .unwrap();
        assert!(sharded.profile.identical_stats(&serial.profile));
    }

    #[test]
    fn replaying_one_trace_into_shards_matches_serial() {
        let unit = kremlin_ir::compile(DEEP_SRC, "deep.kc").unwrap();
        let serial = profile_unit(&unit, HcpaConfig::default()).unwrap();
        let trace = kremlin_interp::trace::record(&unit.module, MachineConfig::default()).unwrap();
        for jobs in [2, 3] {
            let sharded = profile_trace_parallel(
                &unit,
                &trace,
                ParallelConfig { jobs, ..ParallelConfig::default() },
            )
            .unwrap();
            assert!(
                sharded.profile.identical_stats(&serial.profile),
                "{jobs}-way replay-sharded profile differs from serial"
            );
            assert_eq!(sharded.run, serial.run);
            assert_eq!(sharded.stats.instr_events, serial.stats.instr_events);
        }
    }

    #[test]
    fn foreign_trace_is_rejected_not_misattributed() {
        let unit = kremlin_ir::compile(DEEP_SRC, "deep.kc").unwrap();
        let other = kremlin_ir::compile("int main() { return 1; }", "other.kc").unwrap();
        let trace = kremlin_interp::trace::record(&other.module, MachineConfig::default()).unwrap();
        let e = profile_trace_parallel(&unit, &trace, ParallelConfig::default()).unwrap_err();
        assert!(matches!(e, TraceError::ModuleMismatch));
    }

    #[test]
    fn single_shard_falls_back_to_serial() {
        // A flat program plans one shard, and a window below 2 cannot be
        // split at all: either way `jobs` must not change the result. A
        // one-depth window with two jobs once panicked in the planner.
        let flat = kremlin_ir::compile("int main() { return 7; }", "t.kc").unwrap();
        let deep = kremlin_ir::compile(DEEP_SRC, "deep.kc").unwrap();
        for (unit, window) in [(&flat, HcpaConfig::default().window), (&deep, 0), (&deep, 1)] {
            let hcpa = HcpaConfig { window, ..HcpaConfig::default() };
            let trace =
                kremlin_interp::trace::record(&unit.module, MachineConfig::default()).unwrap();
            let decoded = DecodedTrace::decode(&trace, &unit.module).unwrap();
            let serial = profile_unit(unit, hcpa).unwrap();
            for jobs in [2, 4] {
                let config = ParallelConfig { jobs, hcpa, ..ParallelConfig::default() };
                let out = profile_decoded_parallel(unit, &decoded, config).unwrap();
                let at = format!("window {window}, {jobs} jobs");
                assert!(out.profile.identical_stats(&serial.profile), "{at}");
                assert!(out.profile.dict == serial.profile.dict, "{at}");
                assert_eq!(out.run, serial.run, "{at}");
            }
        }
    }
}
