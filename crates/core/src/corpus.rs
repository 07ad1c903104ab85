//! # Four-oracle corpus harness and parallelism-structure fuzzer
//!
//! The scenario layer (`kremlin_workloads::scenario`) lowers declarative
//! parallelism structures to mini-C; this module cross-checks **four
//! independent oracles** on every generated program:
//!
//! 1. **Static** — the `ir::depend` verdict for the spec's hot loop (and
//!    any auxiliary pinned labels);
//! 2. **Dynamic** — the hot loop's measured self-parallelism from the
//!    HCPA profile, which must land in the spec's class-derived band;
//! 3. **Replay** — depth-sharded replay of the recorded trace must
//!    reproduce the live profile bit-identically;
//! 4. **Enumeration** — the exhaustive iteration-space oracle
//!    (`crate::oracle`) re-runs the program concretely and refutes any
//!    dependence verdict the observed address overlaps contradict.
//!
//! Any pairwise disagreement (a provably-DOALL loop that measures
//! serial, a carried chain with no dynamic serialization, a replay shard
//! that diverges) is a reportable finding with a stable `C0xx` code —
//! the disagreement taxonomy in DESIGN.md §12. [`fuzz`] samples random
//! specs, and [`shrink`] greedily minimizes a failing spec while the
//! disagreement still reproduces, so findings come back as the smallest
//! program that exhibits them.

use crate::{Kremlin, KremlinError};
use kremlin_interp::MachineConfig;
use kremlin_workloads::rng::XorShift;
use kremlin_workloads::scenario::{corpus, ScenarioSpec};

/// Trip count below which a DOALL loop is too small for the
/// static-DOALL-but-dynamic-serial pairwise check to be meaningful.
const PAIRWISE_MIN_TRIP: u32 = 8;

/// Measured self-parallelism below which a loop counts as dynamically
/// serialized for the pairwise cross-checks.
const SERIAL_SP: f64 = 2.0;

/// One oracle disagreement on one generated program.
#[derive(Debug, Clone)]
pub struct Disagreement {
    /// Stable taxonomy code (`C001`–`C007`, see [`Disagreement::codes`]).
    pub code: &'static str,
    /// Human-readable explanation with the observed values.
    pub detail: String,
}

impl Disagreement {
    /// The disagreement taxonomy: code, oracle pair, meaning.
    pub fn codes() -> &'static [(&'static str, &'static str)] {
        &[
            ("C001", "static verdict differs from the spec's expected verdict"),
            ("C002", "measured self-parallelism outside the spec's band"),
            ("C003", "statically provably-doall but dynamically serialized"),
            ("C004", "statically carried chain but no dynamic serialization"),
            ("C005", "replay shard profile diverges from the live profile"),
            ("C006", "generated program failed to compile, verify, or run"),
            ("C007", "static verdict contradicts the exhaustive iteration-space enumeration"),
        ]
    }
}

/// Everything the four oracles observed for one spec.
#[derive(Debug)]
pub struct OracleReport {
    /// The spec under test.
    pub spec: ScenarioSpec,
    /// The lowered mini-C source (the repro).
    pub source: String,
    /// Static verdict name observed for the hot loop.
    pub static_verdict: String,
    /// Measured self-parallelism of the hot loop.
    pub self_p: f64,
    /// Expected verdict (from the spec).
    pub expected_verdict: &'static str,
    /// Expected self-parallelism band (from the spec).
    pub band: (f64, f64),
    /// Whether every replay configuration reproduced the live profile.
    pub replay_identical: bool,
    /// All cross-check failures (empty = the oracles agree).
    pub disagreements: Vec<Disagreement>,
}

impl OracleReport {
    /// True when every oracle agreed.
    pub fn clean(&self) -> bool {
        self.disagreements.is_empty()
    }
}

/// Runs the four oracles on one spec.
///
/// Pipeline: lower → compile (+ IR verify) → profile the live execution
/// (the reference) → record the execution once and replay it
/// depth-sharded, demanding bit-identical stats → compare the static
/// verdict and measured SP against the spec.
///
/// # Errors
///
/// Infrastructure failures (the generated source does not compile or
/// run) surface as [`KremlinError`]; oracle *disagreements* are data,
/// returned inside the report.
pub fn run_oracles(spec: &ScenarioSpec) -> Result<OracleReport, KremlinError> {
    let spec = spec.normalized();
    let source = spec.lower();
    let expect = spec.expectation();
    let name = spec.file_name();

    let unit = crate::ir::compile(&source, &name)?;
    crate::ir::verify::verify_module(&unit.module)
        .unwrap_or_else(|e| panic!("{spec}: generated program fails IR verification: {e}"));

    let mut disagreements = Vec::new();

    // Oracle 1: static verdicts, hot loop + auxiliary pins.
    let verdict_of = |label: &str| -> Option<String> {
        unit.depend.loops.iter().find(|l| l.label == label).map(|l| l.verdict.name().to_owned())
    };
    let static_verdict = verdict_of(&expect.hot).unwrap_or_else(|| "missing".to_owned());
    if static_verdict != expect.verdict {
        disagreements.push(Disagreement {
            code: "C001",
            detail: format!(
                "hot loop {}: static verdict `{static_verdict}`, spec expects `{}`",
                expect.hot, expect.verdict
            ),
        });
    }
    for (label, want) in &expect.also {
        let got = verdict_of(label).unwrap_or_else(|| "missing".to_owned());
        if got != *want {
            disagreements.push(Disagreement {
                code: "C001",
                detail: format!("{label}: static verdict `{got}`, spec expects `{want}`"),
            });
        }
    }

    // Oracle 2: dynamic self-parallelism from the live execution.
    let tool = Kremlin::new();
    let analysis = tool.analyze(&source, &name)?;
    let hot_region = analysis.region(&expect.hot)?;
    let self_p = analysis
        .profile()
        .stats(hot_region)
        .map(|s| s.self_p)
        .unwrap_or_else(|| panic!("{spec}: hot loop {} never executed", expect.hot));
    let (lo, hi) = expect.self_p;
    if !(lo - 1e-9..=hi + 1e-9).contains(&self_p) {
        disagreements.push(Disagreement {
            code: "C002",
            detail: format!(
                "hot loop {}: self-parallelism {self_p:.2} outside band [{lo:.1}, {hi:.1}]",
                expect.hot
            ),
        });
    }

    // Pairwise static ↔ dynamic checks, independent of the band: these
    // catch the case where *both* the spec and one oracle drift.
    if static_verdict == "provably-doall"
        && expect.hot_trip >= PAIRWISE_MIN_TRIP
        && self_p < SERIAL_SP
    {
        disagreements.push(Disagreement {
            code: "C003",
            detail: format!(
                "hot loop {}: provably-doall with trip {} but measured self-parallelism {self_p:.2}",
                expect.hot, expect.hot_trip
            ),
        });
    }
    if static_verdict == "carried" && spec.serial_by_construction() {
        let d = f64::from(spec.distance);
        // Index arithmetic around the chain is itself parallel, so a
        // healthy carried(d) loop can measure up to ~1.5·d + 1.5.
        if self_p > 1.5 * d + 1.5 {
            disagreements.push(Disagreement {
                code: "C004",
                detail: format!(
                    "hot loop {}: carried(d≤{d}) chain but self-parallelism {self_p:.2} shows no \
                     dynamic serialization",
                    expect.hot
                ),
            });
        }
    }

    // Oracle 3: a recorded trace replayed in depth shards must
    // reproduce the live profile bit-for-bit.
    let replayed = tool.record(&unit, &source).and_then(|trace| {
        let decoded = kremlin_interp::trace::DecodedTrace::decode(&trace, &unit.module)?;
        tool.replay(&unit, &decoded, 3)
    });
    let (replay_identical, replay_detail) = match replayed {
        Ok(replayed) => (
            replayed.profile.identical_stats(analysis.profile()),
            "sharded replay (jobs=3) produced a different profile".to_owned(),
        ),
        Err(e) => (false, format!("sharded replay failed outright: {e}")),
    };
    if !replay_identical {
        disagreements.push(Disagreement { code: "C005", detail: replay_detail });
    }

    // Oracle 4: exhaustive iteration-space enumeration. Run the program
    // concretely, record which addresses every iteration of every loop
    // instance touches, and refute any static verdict the observed
    // conflicts (or their absence) contradict.
    let observations = crate::oracle::enumerate(&unit, MachineConfig::default())?;
    for detail in crate::oracle::check(&unit, &observations) {
        disagreements.push(Disagreement { code: "C007", detail });
    }

    Ok(OracleReport {
        spec,
        source,
        static_verdict,
        self_p,
        expected_verdict: expect.verdict,
        band: expect.self_p,
        replay_identical,
        disagreements,
    })
}

/// Greedily shrinks `spec` while `still_fails` keeps reproducing: try
/// each strictly smaller candidate in order, restart from the first one
/// that still fails, stop at a spec none of whose candidates fail. The
/// predicate sees only normalized specs, and the result is a local
/// minimum of [`ScenarioSpec::weight`] under the candidate moves.
pub fn shrink(
    spec: &ScenarioSpec,
    mut still_fails: impl FnMut(&ScenarioSpec) -> bool,
) -> ScenarioSpec {
    let mut current = spec.normalized();
    'outer: loop {
        for cand in current.shrink_candidates() {
            if still_fails(&cand) {
                debug_assert!(cand.weight() < current.weight(), "shrink must make progress");
                current = cand;
                continue 'outer;
            }
        }
        return current;
    }
}

/// One minimized fuzzer finding.
#[derive(Debug)]
pub struct Finding {
    /// Seed that produced the original failing spec.
    pub seed: u64,
    /// The spec as sampled.
    pub original: ScenarioSpec,
    /// The report for the *shrunk* spec (disagreements, source, ...).
    pub report: OracleReport,
}

/// Outcome of a fuzzing run.
#[derive(Debug)]
pub struct FuzzOutcome {
    /// Specs checked (after dedup by name), in seed order.
    pub checked: usize,
    /// Per-class check tallies `(class name, count)`.
    pub by_class: Vec<(&'static str, usize)>,
    /// Minimized findings (empty = all oracles agreed everywhere).
    pub findings: Vec<Finding>,
}

/// Samples `seeds` scenario specs from `base_seed` and cross-checks the
/// four oracles on each, shrinking any disagreement to a minimal repro.
/// Deterministic: same `base_seed` and `seeds`, same outcome.
///
/// Specs whose oracle run fails outright (compile/runtime error on
/// generated source) become `C006` findings — the generator is supposed
/// to be well-typed by construction, so that is itself a bug.
pub fn fuzz(base_seed: u64, seeds: usize) -> FuzzOutcome {
    let mut findings = Vec::new();
    let mut by_class: Vec<(&'static str, usize)> = Vec::new();
    let mut checked = 0usize;
    for case in 0..seeds as u64 {
        let seed = base_seed ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let spec = ScenarioSpec::sample(&mut XorShift::new(seed));
        checked += 1;
        match by_class.iter_mut().find(|(c, _)| *c == spec.class.name()) {
            Some((_, n)) => *n += 1,
            None => by_class.push((spec.class.name(), 1)),
        }
        let disagrees = |s: &ScenarioSpec| match run_oracles(s) {
            Ok(r) => !r.clean(),
            Err(_) => true,
        };
        let report = match run_oracles(&spec) {
            Ok(r) if r.clean() => continue,
            Ok(r) => r,
            Err(e) => OracleReport {
                spec,
                source: spec.lower(),
                static_verdict: "error".into(),
                self_p: 0.0,
                expected_verdict: spec.expectation().verdict,
                band: spec.expectation().self_p,
                replay_identical: false,
                disagreements: vec![Disagreement {
                    code: "C006",
                    detail: format!("oracle pipeline failed: {e}"),
                }],
            },
        };
        // Minimize, then re-run the oracles on the minimum for the final
        // report (the shrunk repro is what gets dumped for the user).
        let shrunk = shrink(&report.spec, disagrees);
        let shrunk_report = match run_oracles(&shrunk) {
            Ok(r) => r,
            Err(_) => report,
        };
        findings.push(Finding { seed, original: spec, report: shrunk_report });
    }
    FuzzOutcome { checked, by_class, findings }
}

/// Renders the checked-in golden table for the corpus grid — the
/// generator for `CORPUS_verdicts.json` (`kremlin corpus --emit-golden`).
/// Bands are printed with one decimal so the workloads lockstep test can
/// match them textually.
pub fn golden_json() -> String {
    let mut out =
        String::from("{\n  \"schema\": \"kremlin-corpus-expected-v1\",\n  \"scenarios\": {\n");
    let specs = corpus();
    for (i, spec) in specs.iter().enumerate() {
        let e = spec.expectation();
        out.push_str(&format!(
            "    \"{}\": {{\n      \"class\": \"{}\",\n      \"hot\": \"{}\",\n      \
             \"verdict\": \"{}\",\n      \"self_p\": [{:.1}, {:.1}]\n    }}{}\n",
            spec.name(),
            spec.class.name(),
            e.hot,
            e.verdict,
            e.self_p.0,
            e.self_p.1,
            if i + 1 == specs.len() { "" } else { "," }
        ));
    }
    out.push_str("  }\n}\n");
    out
}

/// Verifies a parsed `CORPUS_verdicts.json` against the in-code grid and
/// a set of fresh oracle reports: every scenario present with the pinned
/// verdict and band, every report clean, and the observed verdict equal
/// to the pinned one. Returns human-readable failures (empty = gate
/// passes).
pub fn gate_against_golden(golden: &str, reports: &[OracleReport]) -> Vec<String> {
    let mut failures = Vec::new();
    let doc = match kremlin_obs::json::parse(golden) {
        Ok(v) => v,
        Err(e) => return vec![format!("golden file does not parse: {e}")],
    };
    if doc.get("schema").and_then(|v| v.as_str()) != Some("kremlin-corpus-expected-v1") {
        failures.push("golden file schema is not kremlin-corpus-expected-v1".to_owned());
        return failures;
    }
    let Some(scenarios) = doc.get("scenarios") else {
        return vec!["golden file has no `scenarios` object".to_owned()];
    };
    let scenario_count = scenarios.as_obj().map(|o| o.len()).unwrap_or(0);
    if scenario_count != reports.len() {
        failures.push(format!(
            "golden file pins {scenario_count} scenarios, corpus grid has {}",
            reports.len()
        ));
    }
    for r in reports {
        let name = r.spec.name();
        let Some(row) = scenarios.get(&name) else {
            failures.push(format!("{name}: missing from golden file"));
            continue;
        };
        let pinned = row.get("verdict").and_then(|v| v.as_str()).unwrap_or("missing");
        if pinned != r.static_verdict {
            failures.push(format!(
                "{name}: golden pins verdict `{pinned}`, analyzer says `{}`",
                r.static_verdict
            ));
        }
        let band: Vec<f64> = row
            .get("self_p")
            .and_then(|v| v.as_arr())
            .map(|a| a.iter().filter_map(|x| x.as_f64()).collect())
            .unwrap_or_default();
        match band.as_slice() {
            [lo, hi] => {
                if !(lo - 1e-9..=hi + 1e-9).contains(&r.self_p) {
                    failures.push(format!(
                        "{name}: measured self-parallelism {:.2} outside golden band [{lo:.1}, \
                         {hi:.1}]",
                        r.self_p
                    ));
                }
            }
            _ => failures.push(format!("{name}: golden row has no self_p band")),
        }
        for d in &r.disagreements {
            failures.push(format!("{name}: {} {}", d.code, d.detail));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use kremlin_workloads::scenario::{minimal, ScenarioClass};

    #[test]
    fn taxonomy_codes_are_stable_and_unique() {
        let codes = Disagreement::codes();
        assert_eq!(codes.len(), 7);
        let mut names: Vec<_> = codes.iter().map(|(c, _)| *c).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 7, "duplicate taxonomy codes");
        assert_eq!(names[0], "C001");
    }

    #[test]
    fn shrink_finds_the_injected_minimum() {
        // Injected bug: "fails" iff trip >= 10 and depth >= 2. Greedy
        // shrinking from a large nest must land exactly on the smallest
        // spec satisfying the predicate reachable by the moves.
        let start = ScenarioSpec {
            class: ScenarioClass::DoallNest,
            trip: 64,
            depth: 3,
            distance: 2,
            stages: 2,
            inner: 16,
            linearized: true,
        }
        .normalized();
        let bug = |s: &ScenarioSpec| s.trip >= 10 && s.depth >= 2;
        assert!(bug(&start), "injected bug must fire on the start spec");
        let shrunk = shrink(&start, bug);
        assert!(bug(&shrunk), "shrinking must preserve the failure");
        assert_eq!(shrunk.depth, 2, "depth should shrink to the bug's floor");
        assert_eq!(shrunk.trip, 10, "trip should shrink to the bug's floor");
        assert_eq!(shrunk.inner, 4, "unconstrained axes should hit their class floor");
        // Local minimum: no candidate still fails.
        assert!(shrunk.shrink_candidates().iter().all(|c| !bug(c)));
        assert!(shrunk.weight() < start.weight());
    }

    #[test]
    fn shrink_on_a_passing_spec_is_identity() {
        let spec = minimal(ScenarioClass::SerialChain);
        assert_eq!(shrink(&spec, |_| false), spec);
    }

    #[test]
    fn golden_generator_matches_grid() {
        let text = golden_json();
        let doc = kremlin_obs::json::parse(&text).expect("golden JSON parses");
        let scenarios = doc.get("scenarios").expect("has scenarios");
        let grid = corpus();
        assert_eq!(scenarios.as_obj().expect("object").len(), grid.len());
        for spec in grid {
            assert!(scenarios.get(&spec.name()).is_some(), "{spec} missing");
        }
    }

    #[test]
    fn gate_flags_verdict_and_band_drift() {
        // A fabricated report that matches nothing in a doctored golden.
        let spec = minimal(ScenarioClass::SerialChain);
        let e = spec.expectation();
        let report = OracleReport {
            spec,
            source: spec.lower(),
            static_verdict: "carried".into(),
            self_p: 1.0,
            expected_verdict: e.verdict,
            band: e.self_p,
            replay_identical: true,
            disagreements: Vec::new(),
        };
        let golden = format!(
            "{{\n  \"schema\": \"kremlin-corpus-expected-v1\",\n  \"scenarios\": {{\n    \
             \"{}\": {{ \"class\": \"serial-chain\", \"hot\": \"main#L0\", \"verdict\": \
             \"provably-doall\", \"self_p\": [30.0, 40.0] }}\n  }}\n}}\n",
            spec.name()
        );
        let failures = gate_against_golden(&golden, &[report]);
        assert!(failures.iter().any(|f| f.contains("verdict")), "{failures:?}");
        assert!(failures.iter().any(|f| f.contains("outside golden band")), "{failures:?}");
        let bad = gate_against_golden("{ \"schema\": \"nope\" }", &[]);
        assert_eq!(bad.len(), 1);
    }
}
