//! Integration tests for the scripted scenario corpus and its
//! four-oracle harness.
//!
//! Mirrors the `ANALYZE_verdicts.json` pattern: the checked-in
//! `CORPUS_verdicts.json` golden pins the expected static verdict and
//! self-parallelism band for every grid scenario, and these tests keep
//! the golden, the generator, and the oracles in lockstep:
//!
//! * the golden on disk is byte-identical to what `--emit-golden`
//!   produces (no hand-edits that the generator would silently revert);
//! * every grid scenario passes the four-oracle cross-check;
//! * the full golden gate is clean against freshly measured reports;
//! * a fixed-seed fuzz smoke returns zero findings.

use kremlin::corpus::{fuzz, gate_against_golden, golden_json, run_oracles};
use kremlin_workloads::scenario::{corpus, CLASSES};

const GOLDEN: &str = include_str!("../../../CORPUS_verdicts.json");

#[test]
fn golden_file_is_regenerable() {
    assert_eq!(
        GOLDEN,
        golden_json(),
        "CORPUS_verdicts.json drifted from the generator — run \
         `kremlin corpus --emit-golden > CORPUS_verdicts.json`"
    );
}

#[test]
fn grid_passes_three_oracles_and_the_golden_gate() {
    let specs = corpus();
    for class in CLASSES {
        assert!(specs.iter().any(|s| s.class == class), "grid misses class {}", class.name());
    }

    let reports: Vec<_> = specs
        .iter()
        .map(|s| run_oracles(s).unwrap_or_else(|e| panic!("{s}: oracle run failed: {e}")))
        .collect();
    for r in &reports {
        assert!(
            r.clean(),
            "{}: oracle disagreement(s): {:?}\nsource:\n{}",
            r.spec,
            r.disagreements,
            r.source
        );
        assert!(r.replay_identical, "{}: streamed replay diverged", r.spec);
    }

    let failures = gate_against_golden(GOLDEN, &reports);
    assert!(failures.is_empty(), "golden gate failures: {failures:#?}");
}

#[test]
fn fixed_seed_fuzz_smoke_is_clean() {
    let outcome = fuzz(2026, 12);
    assert_eq!(outcome.checked, 12);
    assert!(
        outcome.findings.is_empty(),
        "fixed-seed fuzz smoke found oracle disagreements: {:?}",
        outcome
            .findings
            .iter()
            .map(|f| (f.seed, f.report.disagreements.clone()))
            .collect::<Vec<_>>()
    );
}

#[test]
fn malformed_golden_is_rejected_not_ignored() {
    let reports: Vec<_> = corpus().iter().take(0).map(|s| run_oracles(s).unwrap()).collect();
    let failures = gate_against_golden("{\"schema\": \"something-else\"}", &reports);
    assert!(
        failures.iter().any(|f| f.contains("schema")),
        "wrong schema must be a gate failure: {failures:?}"
    );
}
