//! Property-style tests over generated programs and profiles.
//!
//! Program generation sticks to a well-typed subset by construction:
//! random loop nests with random per-loop body statements drawn from
//! DOALL updates, reductions, recurrences, and branches — enough to
//! exercise the lexer/parser round-trip, interpreter determinism, and the
//! HCPA invariants on arbitrary nesting structures.
//!
//! Formerly proptest-based; now driven by the in-repo seeded generator
//! (`kremlin_bench::progen`) so the default workspace builds with zero
//! external crates. Every case is reproducible: failures print the case
//! seed and the generated source.

use kremlin_bench::{progen, XorShift};
use std::collections::HashSet;

const CASES: u64 = 48;

/// Runs `check` over `CASES` generated programs, reporting the seed and
/// source on failure.
fn for_each_program(base_seed: u64, deep: bool, mut check: impl FnMut(&str)) {
    for case in 0..CASES {
        let seed = base_seed ^ (case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let src = progen::program(&mut XorShift::new(seed), deep);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| check(&src)));
        if let Err(e) = result {
            eprintln!("failing case seed {seed:#x}:\n{src}");
            std::panic::resume_unwind(e);
        }
    }
}

#[test]
fn generated_programs_compile_and_run() {
    for_each_program(0xC0FFEE, false, |src| {
        let unit = kremlin_repro::ir::compile(src, "gen.kc").expect("compiles");
        kremlin_repro::ir::verify::verify_module(&unit.module).expect("verifies");
        let r = kremlin_repro::interp::run(&unit.module).expect("runs");
        // Deterministic.
        let r2 = kremlin_repro::interp::run(&unit.module).expect("runs");
        assert_eq!(r.exit, r2.exit);
        assert_eq!(r.instrs_executed, r2.instrs_executed);
    });
}

#[test]
fn hcpa_invariants_hold_on_generated_programs() {
    for_each_program(0xBEEF, true, |src| {
        let analysis =
            kremlin_repro::kremlin::Kremlin::new().analyze(src, "gen.kc").expect("analyzes");
        let dict = &analysis.profile().dict;
        let sp = dict.self_parallelism();
        let tp = dict.total_parallelism();
        for (id, e) in dict.iter() {
            // cp never exceeds work; work is conserved down the tree.
            assert!(e.cp <= e.work.max(1));
            let child_work: u64 = e.children.iter().map(|(c, n)| n * dict.entry(*c).work).sum();
            assert!(e.work >= child_work);
            // 1 <= SP; leaf SP equals total parallelism.
            assert!(sp[id.index()] >= 0.99);
            if e.children.is_empty() {
                assert!((sp[id.index()] - tp[id.index()]).abs() < 1e-9);
            }
        }
        // Profiling must not change semantics.
        let plain = kremlin_repro::interp::run(&analysis.unit.module).expect("runs");
        assert_eq!(plain.exit, analysis.outcome.run.exit);
    });
}

/// The live profiler and the frozen seed profiler agree on every
/// generated program: same region statistics, same run, and the same
/// dictionary entry by entry (which `identical_stats` does not compare).
#[test]
fn profiler_matches_the_seed_profiler_on_generated_programs() {
    use kremlin_repro::hcpa::{profile_unit, profile_unit_seed, HcpaConfig};
    let configs = [
        HcpaConfig::default(),
        HcpaConfig { window: 2, ..HcpaConfig::default() },
        HcpaConfig { window: 4, min_depth: 2, ..HcpaConfig::default() },
        HcpaConfig { break_carried_deps: false, ..HcpaConfig::default() },
    ];
    for deep in [false, true] {
        for_each_program(0x5EED, deep, |src| {
            let unit = kremlin_repro::ir::compile(src, "gen.kc").expect("compiles");
            for config in configs {
                let live = profile_unit(&unit, config).expect("profiles");
                let seed = profile_unit_seed(&unit, config, Default::default()).expect("profiles");
                assert_eq!(live.run, seed.run);
                assert!(live.profile.identical_stats(&seed.profile), "{config:?}");
                assert!(live.profile.dict == seed.profile.dict, "{config:?}");
                assert_eq!(live.stats.instr_events, seed.stats.instr_events);
                assert_eq!(live.stats.dynamic_regions, seed.stats.dynamic_regions);
                assert_eq!(live.stats.shadow_pages, seed.stats.shadow_pages);
            }
        });
    }
}

#[test]
fn openmp_plans_are_antichains_on_generated_programs() {
    for_each_program(0xFACE, false, |src| {
        let analysis =
            kremlin_repro::kremlin::Kremlin::new().analyze(src, "gen.kc").expect("analyzes");
        let plan = analysis.plan_openmp();
        let regions: HashSet<_> = plan.regions();
        for &r in &regions {
            let desc = analysis.profile().descendants(r);
            for &o in &regions {
                assert!(o == r || !desc.contains(&o));
            }
        }
        // Every entry is estimated to help.
        for e in &plan.entries {
            assert!(e.est_speedup >= 1.0);
            assert!(e.self_p >= 5.0);
        }
    });
}

#[test]
fn scenario_classes_compile_verify_and_replay_bit_identically() {
    use kremlin_repro::kremlin::Kremlin;
    use kremlin_workloads::scenario::{ScenarioSpec, CLASSES};

    // A seeded sample per class on top of each class's canonical floor,
    // so every lowering path is exercised at both extremes.
    let mut rng = XorShift::new(0x5EED_C0DE);
    let mut specs: Vec<ScenarioSpec> =
        CLASSES.iter().map(|&c| kremlin_workloads::scenario::minimal(c)).collect();
    for &class in &CLASSES {
        let mut s = ScenarioSpec::sample(&mut rng);
        s.class = class;
        specs.push(s.normalized());
    }

    for spec in specs {
        let src = spec.lower();
        let name = spec.file_name();
        let unit = kremlin_repro::ir::compile(&src, &name)
            .unwrap_or_else(|e| panic!("{spec}: does not compile: {e}\n{src}"));
        kremlin_repro::ir::verify::verify_module(&unit.module)
            .unwrap_or_else(|e| panic!("{spec}: fails IR verification: {e}"));

        // Record once, then sharded replay must reproduce the live
        // profile bit-for-bit.
        let tool = Kremlin::new();
        let live =
            tool.analyze(&src, &name).unwrap_or_else(|e| panic!("{spec}: does not run: {e}"));
        let (replayed, _) = tool
            .analyze_recorded(&src, &name, 3)
            .unwrap_or_else(|e| panic!("{spec}: sharded replay fails: {e}"));
        assert!(
            replayed.profile().identical_stats(live.profile()),
            "{spec}: sharded replay diverges from the live profile"
        );
    }
}

#[test]
fn iteration_space_oracle_agrees_on_fuzzed_specs() {
    use kremlin_repro::kremlin::oracle;
    use kremlin_workloads::scenario::ScenarioSpec;

    // The dependence-test ladder's correctness backbone: on 200
    // fuzzer-generated specs, enumerate every loop instance's concrete
    // address touches and demand that no provably-doall loop shows a
    // cross-iteration conflict and every memory-proven carried(d)
    // verdict is witnessed at exactly distance d.
    const SEEDS: u64 = 200;
    let mut rng = XorShift::new(0x17E2_A710_5ACE);
    for case in 0..SEEDS {
        let spec = ScenarioSpec::sample(&mut rng);
        let src = spec.lower();
        let unit = kremlin_repro::ir::compile(&src, &spec.file_name())
            .unwrap_or_else(|e| panic!("case {case} {spec}: does not compile: {e}\n{src}"));
        let obs = oracle::enumerate(&unit, kremlin_repro::interp::MachineConfig::default())
            .unwrap_or_else(|e| panic!("case {case} {spec}: does not run: {e}"));
        let violations = oracle::check(&unit, &obs);
        assert!(
            violations.is_empty(),
            "case {case} {spec}: static verdicts contradict the enumeration:\n{}\n{src}",
            violations.join("\n")
        );
    }
}

#[test]
fn parser_pretty_roundtrip() {
    for_each_program(0xD00D, true, |src| {
        let ast = kremlin_repro::minic::parser::parse(src).expect("parses");
        let printed = kremlin_repro::minic::pretty::program(&ast);
        let reparsed = kremlin_repro::minic::parser::parse(&printed).expect("reparses");
        let reprinted = kremlin_repro::minic::pretty::program(&reparsed);
        assert_eq!(printed, reprinted, "pretty-printing must be a fixed point");
    });
}

#[test]
fn simulation_times_are_sane() {
    for_each_program(0xAB1E, false, |src| {
        let analysis =
            kremlin_repro::kremlin::Kremlin::new().analyze(src, "gen.kc").expect("analyzes");
        let plan = analysis.plan_openmp();
        let eval = analysis.evaluate(&plan);
        assert!(eval.serial_time > 0.0);
        assert!(eval.parallel_time > 0.0);
        assert!(eval.parallel_time.is_finite());
        // Best-of-cores with an empty-plan option in the sweep can never
        // be worse than ~serial plus one fork-join.
        assert!(eval.parallel_time <= eval.serial_time * 1.5 + 10_000.0);
    });
}
