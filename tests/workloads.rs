//! Workload-suite validation: every benchmark analogue compiles, runs
//! deterministically, has a resolvable MANUAL plan, and profiles into a
//! well-formed parallelism profile.

use kremlin_repro::interp::{CallCtx, ExecHook, InstrCtx, RetCtx};
use kremlin_repro::ir::{FuncId, RegionId, RegionKind, ValueId};
use kremlin_repro::kremlin::Kremlin;

#[test]
fn every_workload_compiles_runs_and_profiles() {
    for w in kremlin_repro::workloads::all() {
        let analysis = Kremlin::new()
            .analyze(w.source, &w.file_name())
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert!(
            analysis.outcome.run.instrs_executed > 10_000,
            "{}: trivially small ({} instrs)",
            w.name,
            analysis.outcome.run.instrs_executed
        );
        assert!(analysis.profile().root.is_some(), "{}: no root region", w.name);
    }
}

#[test]
fn every_manual_label_resolves_to_a_loop_that_executed() {
    for w in kremlin_repro::workloads::all() {
        let analysis = Kremlin::new().analyze(w.source, &w.file_name()).unwrap();
        for label in w.manual_plan {
            let region = analysis.region(label).unwrap_or_else(|e| panic!("{}: {e}", w.name));
            let stats = analysis
                .profile()
                .stats(region)
                .unwrap_or_else(|| panic!("{}: {label} never executed", w.name));
            assert_eq!(
                stats.kind,
                RegionKind::Loop,
                "{}: MANUAL label {label} is not a loop",
                w.name
            );
        }
    }
}

#[test]
fn workload_runs_are_deterministic() {
    for w in kremlin_repro::workloads::all() {
        let a = Kremlin::new().analyze(w.source, &w.file_name()).unwrap();
        let b = Kremlin::new().analyze(w.source, &w.file_name()).unwrap();
        assert_eq!(a.outcome.run.exit, b.outcome.run.exit, "{}", w.name);
        assert_eq!(a.outcome.run.instrs_executed, b.outcome.run.instrs_executed, "{}", w.name);
        // Profiles are identical too (dictionary sizes as a proxy).
        assert_eq!(a.profile().dict.len(), b.profile().dict.len(), "{}", w.name);
        assert_eq!(a.profile().root_work, b.profile().root_work, "{}", w.name);
    }
}

#[test]
fn profiles_satisfy_structural_invariants() {
    for w in kremlin_repro::workloads::all() {
        let analysis = Kremlin::new().analyze(w.source, &w.file_name()).unwrap();
        let profile = analysis.profile();
        let dict = &profile.dict;
        let sp = dict.self_parallelism();
        for (id, e) in dict.iter() {
            assert!(e.cp <= e.work.max(1), "{}: cp > work in {id}", w.name);
            let child_work: u64 = e.children.iter().map(|(c, n)| n * dict.entry(*c).work).sum();
            assert!(e.work >= child_work, "{}: child work exceeds parent in {id}", w.name);
            assert!(sp[id.index()] >= 0.99, "{}: SP < 1 in {id}", w.name);
        }
        // Coverage of the root is 1; every other coverage is in (0, 1].
        for s in profile.iter() {
            assert!(s.coverage > 0.0 && s.coverage <= 1.0 + 1e-9, "{}: {}", w.name, s.label);
            assert!(s.instances > 0);
        }
    }
}

#[test]
fn kremlin_never_recommends_more_total_regions_than_manual_overall() {
    // Figure 6a's headline: Kremlin plans are smaller in aggregate.
    let mut manual = 0usize;
    let mut kremlin = 0usize;
    for w in kremlin_repro::workloads::all() {
        if w.paper.is_none() {
            continue;
        }
        let analysis = Kremlin::new().analyze(w.source, &w.file_name()).unwrap();
        manual += w.manual_plan.len();
        kremlin += analysis.plan_openmp().len();
    }
    assert!(kremlin < manual, "Kremlin total {kremlin} should be below MANUAL total {manual}");
    let ratio = manual as f64 / kremlin as f64;
    assert!(
        (1.2..2.2).contains(&ratio),
        "plan-size reduction {ratio:.2} out of the paper's ballpark (1.57x)"
    );
}

#[test]
fn profiler_matches_the_seed_profiler_on_every_workload() {
    // Segment folding skips the shadow work of most instruction events;
    // the frozen seed profiler does it all. Every profile must agree on
    // every program and in the configs that move the tracked range.
    use kremlin_repro::hcpa::{profile_unit, profile_unit_seed, HcpaConfig};
    let configs = [
        HcpaConfig::default(),
        HcpaConfig { window: 2, ..HcpaConfig::default() },
        HcpaConfig { window: 4, min_depth: 2, ..HcpaConfig::default() },
        HcpaConfig { break_carried_deps: false, ..HcpaConfig::default() },
    ];
    for w in kremlin_repro::workloads::all() {
        let unit = kremlin_repro::ir::compile(w.source, &w.file_name()).unwrap();
        for config in configs {
            let at = format!("{}, {config:?}", w.name);
            let live = profile_unit(&unit, config).unwrap();
            let seed = profile_unit_seed(&unit, config, Default::default()).unwrap();
            assert!(live.profile.dict == seed.profile.dict, "dictionaries differ ({at})");
            assert!(live.profile.identical_stats(&seed.profile), "profiles differ ({at})");
            assert_eq!(live.run, seed.run, "{at}");
            assert_eq!(live.stats.instr_events, seed.stats.instr_events, "{at}");
            assert_eq!(live.stats.dynamic_regions, seed.stats.dynamic_regions, "{at}");
        }
    }
}

/// FNV-1a 64-bit over `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Selects every instruction event and folds every event of a run, in
/// order and with all its fields, into one FNV-1a-style hash of words.
struct EventStream {
    events: u64,
    hash: u64,
}

impl EventStream {
    fn new() -> Self {
        EventStream { events: 0, hash: 0xcbf2_9ce4_8422_2325 }
    }

    fn fold(&mut self, words: &[u64]) {
        self.events += 1;
        for &w in words {
            self.hash = (self.hash ^ w).wrapping_mul(0x100_0000_01b3);
        }
    }
}

impl ExecHook for EventStream {
    fn selects_instr(&self, _: FuncId, _: ValueId) -> bool {
        true
    }

    fn on_instr(&mut self, ctx: &InstrCtx<'_>) {
        let none = u64::MAX;
        let phi = ctx.phi_source.map_or(none, |v| u64::from(v.0));
        let value = u64::from(ctx.value.0);
        self.fold(&[0, u64::from(ctx.func.id.0), value, ctx.mem_addr.unwrap_or(none), phi]);
    }

    fn on_call(&mut self, ctx: &CallCtx<'_>) {
        let callee = u64::from(ctx.callee.0);
        self.fold(&[1, u64::from(ctx.caller.id.0), callee, u64::from(ctx.call_value.0)]);
    }

    fn on_function_enter(&mut self, func: FuncId, region: RegionId) {
        self.fold(&[2, u64::from(func.0), u64::from(region.0)]);
    }

    fn on_return(&mut self, ctx: &RetCtx) {
        let returned = ctx.returned.map_or(u64::MAX, |v| u64::from(v.0));
        self.fold(&[3, u64::from(ctx.func.0), u64::from(ctx.region.0), returned]);
    }

    fn on_region_enter(&mut self, region: RegionId) {
        self.fold(&[4, u64::from(region.0)]);
    }

    fn on_region_exit(&mut self, region: RegionId) {
        self.fold(&[5, u64::from(region.0)]);
    }

    fn on_cd_push(&mut self, cond: ValueId) {
        self.fold(&[6, u64::from(cond.0)]);
    }

    fn on_cd_pop(&mut self) {
        self.fold(&[7]);
    }
}

#[test]
fn interpreter_output_is_pinned_on_every_workload() {
    // Each workload's result, its full event stream and its recording.
    // `RUNS`: exit code, instructions executed, and the events of a run
    // that selects every instruction with their order-sensitive hash
    // (pinned before recordings dropped folded values, so the
    // interpreter itself has not moved). `RECORDINGS`: the trace's
    // events, `to_bytes()` length and FNV-1a-64. Any change to what the
    // interpreter computes, which events it fires or in what order, or
    // to what a recording carries shows up here.
    use kremlin_repro::interp::{record, run, run_with_hook, MachineConfig, RunResult};
    const RUNS: [(&str, i64, u64, u64, u64); 12] = [
        ("ammp", 91, 1_612_200, 1_612_252, 0x1787_a091_001f_3597),
        ("art", 42, 2_107_716, 2_107_792, 0xc6d4_141d_7327_ec89),
        ("equake", 13, 909_329, 909_423, 0x0e42_868a_b912_1060),
        ("bt", 16, 2_737_289, 2_737_353, 0x8229_078c_2a6f_b41e),
        ("cg", 5, 1_321_446, 1_321_532, 0xcfcc_ff9d_3c4c_060b),
        ("ep", 19, 309_409, 309_411, 0xe772_878d_7ea5_b22a),
        ("ft", 60, 1_366_277, 1_366_313, 0xc7b5_457d_2406_d4fb),
        ("is", 24, 648_395, 648_415, 0xf4c8_1859_5ab0_a3b1),
        ("lu", 39, 3_268_806, 3_268_898, 0x5a30_d4ee_800d_14a3),
        ("mg", 62, 659_953, 660_013, 0xf2cf_93b8_6de4_8365),
        ("sp", 39, 2_210_951, 2_210_991, 0xc307_5ab1_13e5_14c3),
        ("tracking", 10, 1_122_729, 1_122_753, 0xda51_09ba_f187_9f75),
    ];
    const RECORDINGS: [(&str, u64, usize, u64); 12] = [
        ("ammp", 882_062, 2_140_917, 0xcbb6_ad86_29cc_a12a),
        ("art", 792_014, 2_128_810, 0x54cc_fa8f_028b_b59a),
        ("equake", 341_726, 879_155, 0x107a_8b1b_cf89_7b02),
        ("bt", 984_657, 2_457_792, 0x323d_1826_0b0b_8ade),
        ("cg", 728_928, 1_754_794, 0x2ad8_fda0_8bd8_58eb),
        ("ep", 132_591, 334_666, 0xa240_df42_56da_f2e8),
        ("ft", 533_397, 1_470_637, 0x5973_27f2_b67a_c3e2),
        ("is", 295_931, 756_911, 0x16df_4a54_f438_5d16),
        ("lu", 1_123_315, 2_815_306, 0xa7be_d0ba_9980_5414),
        ("mg", 269_318, 621_930, 0xc145_11e2_7c69_5ecd),
        ("sp", 733_850, 1_842_119, 0xb0a7_408c_a818_8242),
        ("tracking", 474_364, 1_069_472, 0x49ad_3a90_9d00_2719),
    ];
    assert_eq!(RUNS.len(), kremlin_repro::workloads::all().len());
    for ((name, exit, instrs_executed, events, hash), recording) in RUNS.into_iter().zip(RECORDINGS)
    {
        assert_eq!(recording.0, name);
        let w = kremlin_repro::workloads::by_name(name).unwrap();
        let unit = kremlin_repro::ir::compile(w.source, &w.file_name()).unwrap();
        let pinned = RunResult { exit, instrs_executed };
        assert_eq!(run(&unit.module).unwrap(), pinned, "{name}");
        let mut stream = EventStream::new();
        let streamed = run_with_hook(&unit.module, &mut stream, MachineConfig::default());
        assert_eq!(streamed.unwrap(), pinned, "{name}");
        assert_eq!((stream.events, stream.hash), (events, hash), "{name}: every event, hashed");
        let trace = record(&unit.module, MachineConfig::default()).unwrap();
        assert_eq!(trace.run_result(), pinned, "{name}");
        let bytes = trace.to_bytes();
        assert_eq!(
            (name, trace.events(), bytes.len(), fnv1a64(&bytes)),
            recording,
            "{name}: events, bytes and FNV-1a-64 of the recording"
        );
    }
}
