//! Workload-suite validation: every benchmark analogue compiles, runs
//! deterministically, has a resolvable MANUAL plan, and profiles into a
//! well-formed parallelism profile.

use kremlin_repro::ir::RegionKind;
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

#[test]
fn interpreter_output_is_pinned_on_every_workload() {
    // Each workload's result and recorded trace: exit code, instructions
    // executed, trace events, `to_bytes()` length and its FNV-1a-64. Any
    // change to what the interpreter computes, which events it fires or
    // in what order shows up here.
    use kremlin_repro::interp::{record, run, MachineConfig, RunResult};
    const PINS: [(&str, i64, u64, u64, usize, u64); 12] = [
        ("ammp", 91, 1_612_200, 1_612_252, 3_600_036, 0x6759_3cdc_793c_fa18),
        ("art", 42, 2_107_716, 2_107_792, 4_735_247, 0xb452_1697_2a41_abc9),
        ("equake", 13, 909_329, 909_423, 1_992_899, 0x160c_1e26_4c37_c781),
        ("bt", 16, 2_737_289, 2_737_353, 5_961_838, 0x1900_19a1_5b95_be6f),
        ("cg", 5, 1_321_446, 1_321_532, 2_939_226, 0x790c_518a_23e9_1934),
        ("ep", 19, 309_409, 309_411, 688_306, 0x6f38_ad98_31de_8449),
        ("ft", 60, 1_366_277, 1_366_313, 3_135_975, 0x6f65_b0eb_a954_4da0),
        ("is", 24, 648_395, 648_415, 1_461_799, 0x8d2e_bfe9_39f6_1804),
        ("lu", 39, 3_268_806, 3_268_898, 7_104_371, 0x4d72_3cef_a9a6_8404),
        ("mg", 62, 659_953, 660_013, 1_391_039, 0x4932_9a7b_d343_92fd),
        ("sp", 39, 2_210_951, 2_210_991, 4_795_404, 0x567b_1e87_f3e3_9ef3),
        ("tracking", 10, 1_122_729, 1_122_753, 2_365_975, 0xe7b0_0d78_9bc4_1488),
    ];
    assert_eq!(PINS.len(), kremlin_repro::workloads::all().len());
    for (name, exit, instrs_executed, events, len, hash) in PINS {
        let w = kremlin_repro::workloads::by_name(name).unwrap();
        let unit = kremlin_repro::ir::compile(w.source, &w.file_name()).unwrap();
        let pinned = RunResult { exit, instrs_executed };
        assert_eq!(run(&unit.module).unwrap(), pinned, "{name}");
        let trace = record(&unit.module, MachineConfig::default()).unwrap();
        assert_eq!(trace.run_result(), pinned, "{name}");
        let bytes = trace.to_bytes();
        assert_eq!(
            (trace.events(), bytes.len(), fnv1a64(&bytes)),
            (events, len, hash),
            "{name}: events, bytes and FNV-1a-64 of the trace"
        );
    }
}
