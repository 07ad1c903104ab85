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
