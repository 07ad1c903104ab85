//! Cross-crate integration tests: the full compile → instrument →
//! execute → profile → plan → simulate pipeline on hand-written programs.

use kremlin_repro::kremlin::{Kremlin, KremlinError};
use std::collections::HashSet;

#[test]
fn profiling_preserves_program_semantics() {
    // The profiled run and a plain interpreter run must agree exactly.
    let src = "int collatz_steps(int n) {\n\
                 int steps = 0;\n\
                 while (n != 1) { if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; } steps++; }\n\
                 return steps;\n\
               }\n\
               int main() { int total = 0; for (int n = 1; n < 50; n++) { total += collatz_steps(n); } return total; }";
    let unit = kremlin_repro::ir::compile(src, "collatz.kc").unwrap();
    let plain = kremlin_repro::interp::run(&unit.module).unwrap();
    let analysis = Kremlin::new().analyze(src, "collatz.kc").unwrap();
    assert_eq!(plain.exit, analysis.outcome.run.exit);
    assert_eq!(plain.instrs_executed, analysis.outcome.run.instrs_executed);
}

#[test]
fn plan_regions_are_loops_with_locations() {
    let src = "float a[128];\n\
               int main() { for (int i = 0; i < 128; i++) { a[i] = sqrt((float) i) * 2.0; } return 0; }";
    let analysis = Kremlin::new().analyze(src, "loc.kc").unwrap();
    let plan = analysis.plan_openmp();
    assert_eq!(plan.len(), 1);
    let e = &plan.entries[0];
    assert!(e.location.starts_with("loc.kc ("), "location: {}", e.location);
    assert!(e.self_p > 100.0);
    assert!(e.coverage > 0.9);
}

#[test]
fn openmp_plan_is_an_antichain_on_every_workload() {
    for w in kremlin_repro::workloads::all() {
        let analysis = Kremlin::new().analyze(w.source, &w.file_name()).unwrap();
        let plan = analysis.plan_openmp();
        let regions = plan.regions();
        for &r in &regions {
            let desc = analysis.profile().descendants(r);
            for &other in &regions {
                assert!(
                    other == r || !desc.contains(&other),
                    "{}: nested selections {r:?} > {other:?}",
                    w.name
                );
            }
        }
    }
}

#[test]
fn cilk_plans_are_supersets_of_openmp_plans_in_nests() {
    let src = "float m[64][64];\n\
               int main() {\n\
                 for (int i = 0; i < 64; i++) { for (int j = 0; j < 64; j++) { m[i][j] = sqrt((float)(i + j + 1)); } }\n\
                 return (int) m[2][3];\n\
               }";
    let analysis = Kremlin::new().analyze(src, "nest.kc").unwrap();
    let omp = analysis.plan_openmp();
    let cilk = analysis.plan_cilk();
    assert!(cilk.len() > omp.len(), "cilk {} vs omp {}", cilk.len(), omp.len());
}

#[test]
fn simulator_agrees_with_amdahl_on_simple_program() {
    // One loop, ~full coverage, SP >> cores: speedup should approach the
    // core count minus overheads.
    let src = "float a[8192];\n\
               int main() { for (int i = 0; i < 8192; i++) { a[i] = sqrt((float) i) * exp((float)(i % 3)); } return 0; }";
    let analysis = Kremlin::new().analyze(src, "amdahl.kc").unwrap();
    let plan = analysis.plan_openmp();
    let eval = analysis.evaluate(&plan);
    assert!(eval.speedup > 12.0, "{eval:?}");
    assert!(eval.speedup <= 32.0, "{eval:?}");
}

#[test]
fn runtime_errors_surface_through_the_facade() {
    let e = Kremlin::new()
        .analyze("int main() { float a[4]; int i = 9; a[i] = 1.0; return 0; }", "oob.kc")
        .unwrap_err();
    assert!(matches!(e, KremlinError::Runtime(_)), "{e}");
}

#[test]
fn exclusion_workflow_is_stable_under_iteration() {
    // Repeatedly excluding the top recommendation must terminate with an
    // empty plan (the paper's §3 iterative workflow cannot loop forever).
    let w = kremlin_repro::workloads::by_name("ft").unwrap();
    let analysis = Kremlin::new().analyze(w.source, &w.file_name()).unwrap();
    let planner = kremlin_repro::planner::OpenMpPlanner::default();
    let mut exclude = HashSet::new();
    let mut rounds = 0;
    loop {
        let plan =
            kremlin_repro::planner::Personality::plan(&planner, analysis.profile(), &exclude);
        if plan.is_empty() {
            break;
        }
        exclude.insert(plan.entries[0].region);
        rounds += 1;
        assert!(rounds < 100, "exclusion loop did not converge");
    }
    assert!(rounds >= 6, "ft should yield several rounds, got {rounds}");
}

#[test]
fn sliced_profiles_plan_identically_to_full_profiles() {
    for name in ["mg", "cg", "tracking"] {
        let w = kremlin_repro::workloads::by_name(name).unwrap();
        let unit = kremlin_repro::ir::compile(w.source, &w.file_name()).unwrap();
        let full = kremlin_repro::hcpa::profile_unit(&unit, Default::default()).unwrap();
        // One depth per shard: the most slices the depth range allows.
        let trace = kremlin_repro::interp::record(&unit.module, Default::default()).unwrap();
        let decoded =
            kremlin_repro::interp::trace::DecodedTrace::decode(&trace, &unit.module).unwrap();
        let sliced = kremlin_repro::hcpa::profile_decoded_parallel(
            &unit,
            &decoded,
            kremlin_repro::hcpa::ParallelConfig {
                jobs: full.stats.max_depth,
                ..Default::default()
            },
        )
        .unwrap();
        let none = std::collections::HashSet::new();
        let planner = kremlin_repro::planner::OpenMpPlanner::default();
        use kremlin_repro::planner::Personality;
        let p1 = planner.plan(&full.profile, &none);
        let p2 = planner.plan(&sliced.profile, &none);
        let labels = |p: &kremlin_repro::planner::Plan| {
            let mut v: Vec<_> = p.entries.iter().map(|e| e.label.clone()).collect();
            v.sort();
            v
        };
        assert_eq!(labels(&p1), labels(&p2), "{name}: sliced plan diverged");
    }
}

#[test]
fn multi_run_aggregation_is_consistent() {
    let src = "float a[64];\n\
               int main() { for (int i = 0; i < 64; i++) { a[i] = (float) i * 2.0; } return 0; }";
    let one = Kremlin::new().analyze(src, "agg.kc").unwrap();
    let three = Kremlin::new().analyze_runs(src, "agg.kc", 3).unwrap();
    let r = one.region("main#L0").unwrap();
    let s1 = one.profile().stats(r).unwrap();
    let s3 = three.profile().stats(r).unwrap();
    assert_eq!(s3.instances, 3 * s1.instances);
    assert!((s1.self_p - s3.self_p).abs() < 1e-9, "SP must be stable across runs");
    assert!((s1.coverage - s3.coverage).abs() < 1e-9);
}
