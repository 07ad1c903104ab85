//! Golden tests for the static loop-dependence analyzer.
//!
//! The verdict tables live in `ANALYZE_verdicts.json`, which the CI
//! analyze-smoke job reads too, so both gate the same expectations:
//!
//! * every loop of every workload gets exactly the checked-in verdict;
//! * the suite exercises all four verdict classes;
//! * **zero false hazards** — no region the planner recommends as DOALL
//!   (or reduction) is statically classified as loop-carried;
//! * the `--json` output is schema-versioned and deterministic.

use kremlin::diag::{audit_plan, static_diagnostics, to_json, Severity};
use kremlin::obs::json::{self, Value};
use kremlin::planner::PlanKind;
use kremlin::{Kremlin, LoopVerdict, OpenMpPlanner};
use std::collections::HashSet;

/// The four verdict names, as `LoopVerdict::name()` spells them.
const VERDICTS: [&str; 4] = ["provably-doall", "doall-after-breaking", "carried", "unknown"];

/// The parsed `ANALYZE_verdicts.json`.
fn golden() -> Value {
    let doc = json::parse(include_str!("../../../ANALYZE_verdicts.json"))
        .expect("ANALYZE_verdicts.json is valid JSON");
    assert_eq!(doc.get("schema").and_then(Value::as_str), Some("kremlin-analyze-expected-v1"));
    doc
}

/// One workload's checked-in `(loop label, verdict)` list, in region order.
fn expected_verdicts(golden: &Value, name: &str) -> Vec<(String, String)> {
    let table = golden.get("workloads").and_then(|w| w.get(name)).and_then(Value::as_obj);
    let table = table.unwrap_or_else(|| panic!("{name} missing from ANALYZE_verdicts.json"));
    table
        .iter()
        .map(|(label, verdict)| {
            let verdict =
                verdict.as_str().unwrap_or_else(|| panic!("{name}: {label} not a string"));
            (label.clone(), verdict.to_owned())
        })
        .collect()
}

/// Compiles one workload (no execution) and checks its verdict table.
fn check_verdicts(name: &str) {
    let w = kremlin_workloads::by_name(name).expect("workload exists");
    let unit = kremlin::ir::compile(w.source, &w.file_name()).expect("workload compiles");
    let expected = expected_verdicts(&golden(), name);

    let got: Vec<(String, String)> =
        unit.depend.loops.iter().map(|l| (l.label.clone(), l.verdict.name().to_owned())).collect();
    assert_eq!(got, expected, "{name}: verdict table drifted from golden");
}

/// Runs one workload end to end and checks the plan audit finds no
/// hazards: every planned DOALL/reduction region must be statically
/// provably-doall, doall-after-breaking, or (at worst) unknown — never
/// a definite carried dependence.
fn check_no_false_hazards(name: &str) {
    let w = kremlin_workloads::by_name(name).expect("workload exists");
    let analysis = Kremlin::new().analyze(w.source, &w.file_name()).expect("workload runs");
    let plan = analysis.plan_with(&OpenMpPlanner::default(), &HashSet::new());

    for e in &plan.entries {
        if matches!(e.kind, PlanKind::Doall | PlanKind::Reduction) {
            assert!(
                !matches!(e.verdict, Some(LoopVerdict::Carried { .. })),
                "{name}: planner recommends `{}` as {} but static analysis proves a \
                 loop-carried dependence — a false hazard",
                e.label,
                e.kind,
            );
        }
    }

    let diags = audit_plan(&analysis, &plan);
    let hazards: Vec<_> = diags.iter().filter(|d| d.code == "K010").collect();
    assert!(hazards.is_empty(), "{name}: plan audit reported hazards: {hazards:?}");
    assert!(
        diags.iter().all(|d| d.severity != Severity::Error),
        "{name}: plan audit reported errors: {diags:?}"
    );
}

macro_rules! workload_tests {
    ($($name:ident),* $(,)?) => {
        $(
            mod $name {
                #[test]
                fn golden_verdicts() {
                    super::check_verdicts(stringify!($name));
                }

                #[test]
                fn no_false_hazards() {
                    super::check_no_false_hazards(stringify!($name));
                }
            }
        )*
    };
}

workload_tests!(ammp, art, equake, bt, cg, ep, ft, is, lu, mg, sp, tracking);

#[test]
fn suite_exercises_all_four_verdicts() {
    let mut totals = [0usize; 4];
    for w in kremlin_workloads::all() {
        let unit = kremlin::ir::compile(w.source, &w.file_name()).expect("workload compiles");
        let counts = unit.depend.counts();
        for (t, c) in totals.iter_mut().zip(counts) {
            *t += c;
        }
    }
    for (name, total) in VERDICTS.iter().zip(totals) {
        assert!(total > 0, "no workload loop is classified `{name}`");
    }
}

#[test]
fn golden_tables_cover_every_workload() {
    let golden = golden();
    let workloads = golden.get("workloads").and_then(Value::as_obj).expect("a workloads object");
    let mut names: Vec<&str> = workloads.iter().map(|(name, _)| name.as_str()).collect();
    let mut registry: Vec<&str> = kremlin_workloads::all().iter().map(|w| w.name).collect();
    names.sort_unstable();
    registry.sort_unstable();
    assert_eq!(names, registry, "ANALYZE_verdicts.json has extra or missing workloads");
    let mut seen = HashSet::new();
    for name in registry {
        let table = expected_verdicts(&golden, name);
        assert!(!table.is_empty(), "{name} table is empty");
        for (label, verdict) in table {
            assert!(label.contains("#L"), "{label} is not a loop region label");
            assert!(VERDICTS.contains(&verdict.as_str()), "{name} has unknown verdict `{verdict}`");
            seen.insert(verdict);
        }
    }
    for verdict in VERDICTS {
        assert!(seen.contains(verdict), "no workload exercises verdict `{verdict}`");
    }
}

#[test]
fn k012_count_stays_within_the_checked_in_budget() {
    // The CI analyze-smoke job counts `[K012]` notes (planned DOALL,
    // statically unverified) across the suite's plan audits and gates
    // them against `k012_budget` in `ANALYZE_verdicts.json`. Keep that
    // budget in lockstep here: it must be spendable (actual ≤ budget)
    // and tight (actual == budget), so coverage regressions AND stale
    // over-generous budgets both fail.
    let budget = golden()
        .get("k012_budget")
        .and_then(Value::as_f64)
        .expect("ANALYZE_verdicts.json declares a k012_budget") as usize;

    let mut actual = 0;
    for w in kremlin_workloads::all() {
        let analysis = Kremlin::new().analyze(w.source, &w.file_name()).expect("workload runs");
        let plan = analysis.plan_with(&OpenMpPlanner::default(), &HashSet::new());
        actual += audit_plan(&analysis, &plan).iter().filter(|d| d.code == "K012").count();
    }
    assert_eq!(
        actual, budget,
        "K012 notes across the suite drifted from the checked-in budget; \
         update k012_budget in ANALYZE_verdicts.json"
    );
}

#[test]
fn json_output_is_schema_versioned_and_deterministic() {
    let w = kremlin_workloads::by_name("tracking").expect("workload exists");
    let render = || {
        let unit = kremlin::ir::compile(w.source, &w.file_name()).expect("workload compiles");
        let diags = static_diagnostics(&unit);
        to_json(&unit, &diags)
    };
    let a = render();
    let b = render();
    assert_eq!(a, b, "analyze JSON must be deterministic across runs");
    assert!(
        a.starts_with("{\"schema\":\"kremlin-analyze-v1\""),
        "JSON must lead with the schema version: {}",
        &a[..a.len().min(80)]
    );
    for key in ["\"source\":", "\"verdicts\":", "\"loops\":", "\"diagnostics\":"] {
        assert!(a.contains(key), "JSON missing {key}");
    }
}
