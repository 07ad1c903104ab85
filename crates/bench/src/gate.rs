//! CI regression gate over `BENCH_profiler.json` baselines.
//!
//! Compares a freshly produced bench report against the checked-in
//! baseline and reports violations of the tolerance bands. The gate is
//! designed to be robust to machine-speed differences between the
//! baseline host and CI runners, so it never compares absolute
//! milliseconds:
//!
//! * **speedups** (`speedup_serial_optimized`,
//!   `speedup_decoded_replay_sharded_critical_path`) are dimensionless
//!   ratios of two passes on the *same* host — a fresh value may not drop
//!   more than `Tolerance::speedup_drop` below the baseline
//!   (critical-path-speedup regression);
//! * **`instr_events`** is deterministic per workload and must match
//!   exactly (a mismatch means the pipeline changed semantics, not speed);
//! * **`shadow_commits`** (the profiler's committed instruction events;
//!   the rest are folded) is deterministic too and must match exactly: a
//!   lost fold or an over-eager commit rule changes it on any host, with
//!   no timing noise;
//! * the embedded **`hcpa.dynamic_regions`** (region instances
//!   summarized) and **`hcpa.shadow.pages_allocated`** (shadow-memory
//!   pages written) counters are deterministic work counts and must
//!   match exactly too: an event source that drops or repeats region
//!   events, or a store that lands on a page the program never wrote,
//!   changes them with no timing noise;
//! * **`shadow_bytes_baseline`** is deterministic too, but a small growth
//!   band (`Tolerance::shadow_growth`) is allowed for intentional layout
//!   tweaks — beyond it is a shadow-footprint blowup. (Old baselines
//!   carried the same number under `shadow_bytes_packed` — the packed
//!   backend changed locality, not size, so the field was redundant and
//!   dropped; the gate falls back to it for pre-rename baselines.)
//!   `shadow_bytes_sharded_total` is informational only: the weighted
//!   shard plan moves with the cost histogram, so per-shard footprint
//!   sums can shift legitimately;
//! * embedded **metrics** (when both sides carry them) must stay nonzero
//!   wherever the baseline is nonzero: a pipeline-phase counter falling to
//!   zero means instrumentation was silently lost.
//!
//! Workloads are matched by name; a workload present in only one file is
//! skipped (CI smoke runs measure a subset), but matching zero workloads
//! is itself a violation.

use kremlin_obs::json::{self, Value};

/// Embedded metrics counters that are deterministic per workload and
/// must match the baseline exactly.
const EXACT_COUNTERS: [&str; 2] = ["hcpa.dynamic_regions", "hcpa.shadow.pages_allocated"];

/// Allowed drift between baseline and fresh reports.
#[derive(Debug, Clone, Copy)]
pub struct Tolerance {
    /// Maximum allowed absolute drop in a speedup ratio (e.g. 0.5 lets a
    /// 2.4x baseline degrade to 1.9x before failing).
    pub speedup_drop: f64,
    /// Maximum allowed relative growth of the packed shadow footprint
    /// (0.10 = +10%).
    pub shadow_growth: f64,
}

impl Default for Tolerance {
    fn default() -> Self {
        // Bands sized from observed jitter, not guessed: across the PR-1
        // and PR-2 baseline regenerations the speedup ratios moved by at
        // most ~0.08 absolute between runs on the same host, so 0.35 is a
        // >4x cushion that still catches the failure mode the gate exists
        // for (a shard or replay path silently degrading from ~2.0x toward
        // 1.0x). The old 0.5 band would have let a 2.0x -> 1.55x regression
        // through. Shadow bytes are fully deterministic — the 5% band only
        // covers intentional layout tweaks, and anything larger is a
        // footprint blowup that should fail loudly.
        Tolerance { speedup_drop: 0.35, shadow_growth: 0.05 }
    }
}

/// The gate verdict: which workloads were compared and every violation.
#[derive(Debug, Default)]
pub struct GateReport {
    /// Names of workloads present in both reports.
    pub compared: Vec<String>,
    /// Human-readable tolerance-band violations; empty means pass.
    pub violations: Vec<String>,
}

impl GateReport {
    /// True when every band held.
    pub fn passed(&self) -> bool {
        !self.compared.is_empty() && self.violations.is_empty()
    }
}

fn workloads(doc: &Value) -> Vec<&Value> {
    doc.get("workloads").and_then(Value::as_arr).map(|a| a.iter().collect()).unwrap_or_default()
}

fn name_of(w: &Value) -> Option<&str> {
    w.get("name").and_then(Value::as_str)
}

fn num(w: &Value, key: &str) -> Option<f64> {
    w.get(key).and_then(Value::as_f64)
}

/// Checks `fresh` against `baseline` (both `BENCH_profiler.json` texts).
///
/// # Errors
///
/// Returns a message if either document fails to parse — malformed input
/// is an error, not a violation, so CI distinguishes "bench broke" from
/// "bench regressed".
pub fn check(baseline: &str, fresh: &str, tol: Tolerance) -> Result<GateReport, String> {
    let base = json::parse(baseline).map_err(|e| format!("baseline: {e}"))?;
    let new = json::parse(fresh).map_err(|e| format!("fresh: {e}"))?;
    let mut report = GateReport::default();

    for bw in workloads(&base) {
        let Some(name) = name_of(bw) else { continue };
        let Some(nw) = workloads(&new).into_iter().find(|w| name_of(w) == Some(name)) else {
            continue; // smoke runs measure a subset of the baseline
        };
        report.compared.push(name.to_owned());
        let mut violation = |msg: String| report.violations.push(format!("{name}: {msg}"));

        // Deterministic pipeline identity and profiler work.
        for key in ["instr_events", "shadow_commits"] {
            if let (Some(b), Some(n)) = (num(bw, key), num(nw, key)) {
                if b != n {
                    violation(format!("{key} changed: baseline {b} -> fresh {n}"));
                }
            }
        }

        // Shadow-footprint blowup. `shadow_bytes_baseline` is the serial
        // footprint. The pre-PR-5 `shadow_bytes_packed` spelling is no
        // longer accepted: `BENCH_profiler.json` has been regenerated
        // twice since, so a baseline still using the old key is stale and
        // must be refreshed, not silently grandfathered.
        let shadow = |w: &Value| num(w, "shadow_bytes_baseline");
        if num(bw, "shadow_bytes_packed").is_some() && shadow(bw).is_none() {
            violation(
                "stale baseline: `shadow_bytes_packed` is no longer accepted (renamed \
                 `shadow_bytes_baseline` in PR 5, and BENCH_profiler.json has been regenerated \
                 twice since) — re-run bench_profiler and check in a fresh baseline"
                    .to_string(),
            );
        } else if let (Some(b), Some(n)) = (shadow(bw), shadow(nw)) {
            if b > 0.0 && n > b * (1.0 + tol.shadow_growth) {
                violation(format!(
                    "shadow footprint blowup: {b:.0} -> {n:.0} bytes (allowed +{:.0}%)",
                    tol.shadow_growth * 100.0
                ));
            }
        }

        // Critical-path-speedup regressions. The decoded-replay key
        // shares the band: it is the same kind of same-host ratio with
        // the same observed jitter, and the failure mode it guards —
        // the decode-once arena or the weighted planner silently
        // degrading toward a serial pass's cost — shows up as an
        // absolute drop well past 0.35.
        for key in ["speedup_serial_optimized", "speedup_decoded_replay_sharded_critical_path"] {
            if let (Some(b), Some(n)) = (num(bw, key), num(nw, key)) {
                if n < b - tol.speedup_drop {
                    violation(format!(
                        "{key} regressed: {b:.3} -> {n:.3} (allowed drop {:.3})",
                        tol.speedup_drop
                    ));
                }
            }
        }

        // Embedded metrics: the deterministic work counters must match
        // exactly, and every counter the baseline saw nonzero must still
        // be nonzero (instrumentation silently lost otherwise).
        if let (Some(bm), Some(nm)) = (
            bw.get("metrics").and_then(|m| m.get("counters")).and_then(Value::as_obj),
            nw.get("metrics").and_then(|m| m.get("counters")).and_then(Value::as_obj),
        ) {
            let counter = |m: &[(String, Value)], key: &str| {
                m.iter().find(|(k, _)| k == key).and_then(|(_, v)| v.as_f64())
            };
            for key in EXACT_COUNTERS {
                if let (Some(b), Some(n)) = (counter(bm, key), counter(nm, key)) {
                    if b != n {
                        violation(format!(
                            "metrics counter {key} changed: baseline {b} -> fresh {n}"
                        ));
                    }
                }
            }
            for (cname, bval) in bm {
                let b = bval.as_f64().unwrap_or(0.0);
                if b <= 0.0 {
                    continue;
                }
                let n = nm
                    .iter()
                    .find(|(k, _)| k == cname)
                    .and_then(|(_, v)| v.as_f64())
                    .unwrap_or(0.0);
                if n <= 0.0 {
                    violation(format!("metrics counter {cname} fell to zero (baseline {b:.0})"));
                }
            }
        }
    }

    if report.compared.is_empty() {
        report.violations.push("no workloads in common between baseline and fresh report".into());
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(name: &str, instr: u64, shadow: u64, spd: f64, counters: &str) -> String {
        format!(
            r#"{{"bench":"profiler","workloads":[{{"name":"{name}","instr_events":{instr},
               "shadow_bytes_baseline":{shadow},"speedup_serial_optimized":{spd},
               "metrics":{{"schema":"kremlin-metrics-v1","counters":{{{counters}}}}}}}]}}"#
        )
    }

    #[test]
    fn identical_reports_pass() {
        let d = doc("cg", 1000, 4096, 2.0, r#""interp.instrs":5"#);
        let r = check(&d, &d, Tolerance::default()).unwrap();
        assert!(r.passed(), "{:?}", r.violations);
        assert_eq!(r.compared, ["cg"]);
    }

    #[test]
    fn speedup_within_band_passes_beyond_band_fails() {
        let base = doc("cg", 1000, 4096, 2.0, "");
        let ok = doc("cg", 1000, 4096, 1.7, "");
        assert!(check(&base, &ok, Tolerance::default()).unwrap().passed());
        let bad = doc("cg", 1000, 4096, 1.6, "");
        let r = check(&base, &bad, Tolerance::default()).unwrap();
        assert!(!r.passed());
        assert!(r.violations.iter().any(|v| v.contains("regressed")), "{:?}", r.violations);
    }

    #[test]
    fn decoded_replay_sharded_speedup_is_gated_too() {
        let mk = |spd: f64| {
            format!(
                r#"{{"workloads":[{{"name":"bt","instr_events":5,
                   "speedup_decoded_replay_sharded_critical_path":{spd}}}]}}"#
            )
        };
        let base = mk(3.0);
        assert!(check(&base, &mk(2.7), Tolerance::default()).unwrap().passed());
        let r = check(&base, &mk(2.5), Tolerance::default()).unwrap();
        assert!(
            r.violations.iter().any(|v| v.contains("decoded_replay_sharded")),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn legacy_shadow_bytes_packed_baseline_fails_as_stale() {
        // Pre-PR-5 baselines spell the footprint `shadow_bytes_packed`.
        // That grace period is over: the gate names the stale key and the
        // fix instead of silently accepting an old baseline.
        let base = r#"{"workloads":[{"name":"cg","instr_events":5,"shadow_bytes_packed":4096}]}"#;
        let fresh =
            r#"{"workloads":[{"name":"cg","instr_events":5,"shadow_bytes_baseline":4200}]}"#;
        let r = check(base, fresh, Tolerance::default()).unwrap();
        assert!(!r.passed());
        assert!(
            r.violations
                .iter()
                .any(|v| v.contains("stale baseline") && v.contains("shadow_bytes_packed")),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn instr_events_must_match_exactly() {
        let base = doc("cg", 1000, 4096, 2.0, "");
        let bad = doc("cg", 1001, 4096, 2.0, "");
        let r = check(&base, &bad, Tolerance::default()).unwrap();
        assert!(r.violations.iter().any(|v| v.contains("instr_events")), "{:?}", r.violations);
    }

    #[test]
    fn shadow_commits_must_match_exactly() {
        let mk = |commits: u64| {
            format!(
                r#"{{"workloads":[{{"name":"cg","instr_events":9,"shadow_commits":{commits}}}]}}"#
            )
        };
        assert!(check(&mk(4), &mk(4), Tolerance::default()).unwrap().passed());
        for changed in [3, 5] {
            let r = check(&mk(4), &mk(changed), Tolerance::default()).unwrap();
            assert!(
                r.violations.iter().any(|v| v.contains("shadow_commits changed")),
                "{:?}",
                r.violations
            );
        }
    }

    #[test]
    fn dynamic_regions_and_shadow_pages_must_match_exactly() {
        let counters = |regions: u64, pages: u64| {
            format!(r#""hcpa.dynamic_regions":{regions},"hcpa.shadow.pages_allocated":{pages}"#)
        };
        let base = doc("bt", 1000, 4096, 2.0, &counters(91_567, 13));
        assert!(check(&base, &base, Tolerance::default()).unwrap().passed());
        for (fresh, key) in [
            (counters(91_568, 13), "hcpa.dynamic_regions"),
            (counters(91_567, 14), "hcpa.shadow.pages_allocated"),
        ] {
            let r =
                check(&base, &doc("bt", 1000, 4096, 2.0, &fresh), Tolerance::default()).unwrap();
            assert!(
                r.violations.iter().any(|v| v.contains(&format!("{key} changed"))),
                "{:?}",
                r.violations
            );
        }
        // A fresh report without the counter is checked by the nonzero
        // rule, not this one.
        let r = check(&base, &doc("bt", 1000, 4096, 2.0, ""), Tolerance::default()).unwrap();
        assert!(!r.violations.iter().any(|v| v.contains(" changed")), "{:?}", r.violations);
    }

    #[test]
    fn shadow_blowup_is_caught() {
        let base = doc("cg", 1000, 4096, 2.0, "");
        let ok = doc("cg", 1000, 4300, 2.0, ""); // +5%
        assert!(check(&base, &ok, Tolerance::default()).unwrap().passed());
        let bad = doc("cg", 1000, 8192, 2.0, ""); // 2x
        let r = check(&base, &bad, Tolerance::default()).unwrap();
        assert!(r.violations.iter().any(|v| v.contains("blowup")), "{:?}", r.violations);
    }

    #[test]
    fn lost_instrumentation_is_caught() {
        let base = doc("cg", 1000, 4096, 2.0, r#""interp.instrs":5,"ir.regions":3"#);
        let bad = doc("cg", 1000, 4096, 2.0, r#""interp.instrs":7,"ir.regions":0"#);
        let r = check(&base, &bad, Tolerance::default()).unwrap();
        assert!(r.violations.iter().any(|v| v.contains("ir.regions")), "{:?}", r.violations);
    }

    #[test]
    fn disjoint_workload_sets_are_a_violation() {
        let base = doc("bt", 1, 1, 1.0, "");
        let new = doc("cg", 1, 1, 1.0, "");
        let r = check(&base, &new, Tolerance::default()).unwrap();
        assert!(!r.passed());
    }

    #[test]
    fn subset_runs_compare_only_common_workloads() {
        let base = format!(
            r#"{{"workloads":[{},{}]}}"#,
            r#"{"name":"bt","instr_events":5,"speedup_serial_optimized":2.0}"#,
            r#"{"name":"cg","instr_events":9,"speedup_serial_optimized":2.0}"#
        );
        let fresh =
            r#"{"workloads":[{"name":"cg","instr_events":9,"speedup_serial_optimized":1.9}]}"#;
        let r = check(&base, fresh, Tolerance::default()).unwrap();
        assert_eq!(r.compared, ["cg"]);
        assert!(r.passed(), "{:?}", r.violations);
    }

    #[test]
    fn malformed_input_is_an_error_not_a_violation() {
        assert!(check("{", "{}", Tolerance::default()).is_err());
        assert!(check("{}", "nope", Tolerance::default()).is_err());
    }
}
