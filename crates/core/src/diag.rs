//! Lint-style diagnostics over the static dependence analysis.
//!
//! Two producers feed one sink:
//!
//! * [`static_diagnostics`] — compile-time only (`kremlin analyze`): one
//!   diagnostic per loop region describing its dependence verdict;
//! * [`audit_plan`] — cross-checks a dynamic plan against the static
//!   verdicts (`--audit-plan`): *hazards* where the profile says DOALL
//!   but the IR proves a carried dependence, and *missed parallelism*
//!   where the IR proves DOALL but the planner skipped the loop.
//!
//! Codes are stable and machine-checkable (CI gates on them):
//!
//! | code | severity | meaning |
//! |------|----------|---------|
//! | K001 | info     | loop proven DOALL |
//! | K002 | info     | DOALL after breaking detected reductions |
//! | K003 | warning  | definite loop-carried dependence |
//! | K004 | note     | dependences unprovable (may-dependence) |
//! | K010 | error    | hazard: planned DOALL, statically carried |
//! | K011 | warning/note | missed parallelism: proven DOALL, unplanned |
//! | K012 | note     | unverified DOALL: planned, statically unknown |
//!
//! Rendered form is one `file:line: severity[KNNN]: message` line per
//! diagnostic; [`to_json`] emits the `kremlin-analyze-v1` document the
//! CI smoke test snapshots.

use crate::{Analysis, Plan};
use kremlin_ir::{CompiledUnit, LoopVerdict, RegionId};
use kremlin_obs::json::Value;
use kremlin_planner::PlanKind;
use std::collections::HashSet;
use std::fmt;

/// Diagnostic severity, ordered most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// A contradiction that must be resolved (plan hazards).
    Error,
    /// Likely-actionable finding.
    Warning,
    /// Informational caveat.
    Note,
    /// Positive confirmation.
    Info,
}

impl Severity {
    /// Stable lowercase name (rendered and JSON forms).
    pub fn name(&self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Note => "note",
            Severity::Info => "info",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Stable code (`K001`..).
    pub code: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// Region label the finding is about (e.g. `main#L0`).
    pub label: String,
    /// 1-based source line the region starts on.
    pub line: u32,
    /// Human-readable message.
    pub message: String,
}

/// Counts per severity, for summaries and exit codes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SeverityCounts {
    /// Number of `error` diagnostics.
    pub errors: usize,
    /// Number of `warning` diagnostics.
    pub warnings: usize,
    /// Number of `note` diagnostics.
    pub notes: usize,
    /// Number of `info` diagnostics.
    pub infos: usize,
}

/// Tallies diagnostics by severity.
pub fn count_severities(diags: &[Diagnostic]) -> SeverityCounts {
    let mut c = SeverityCounts::default();
    for d in diags {
        match d.severity {
            Severity::Error => c.errors += 1,
            Severity::Warning => c.warnings += 1,
            Severity::Note => c.notes += 1,
            Severity::Info => c.infos += 1,
        }
    }
    c
}

/// One `K001`–`K004` diagnostic per analyzed loop, in region order.
pub fn static_diagnostics(unit: &CompiledUnit) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for l in &unit.depend.loops {
        let line = unit.module.regions.info(l.region).span.line_start;
        // K003 quotes the evidence line that *proves* the dependence;
        // K004 quotes the line the analyzer gave up on (e.g. "MIV bounds
        // inconclusive at dim 1"), so the user sees which subscript
        // dimension and which test to blame — not just whichever
        // evidence line happens to sort first.
        let evidence = |definite: bool| {
            l.evidence
                .iter()
                .find(|e| e.definite == definite)
                .or_else(|| l.evidence.first())
                .map(|e| format!(": {}", e.detail))
                .unwrap_or_default()
        };
        let (code, severity, message) = match l.verdict {
            LoopVerdict::ProvablyDoall => (
                "K001",
                Severity::Info,
                "loop proven DOALL: no loop-carried dependences".to_owned(),
            ),
            LoopVerdict::DoallAfterBreaking => (
                "K002",
                Severity::Info,
                format!(
                    "loop is DOALL after breaking {} reduction accumulator{}",
                    l.reductions,
                    if l.reductions == 1 { "" } else { "s" }
                ),
            ),
            LoopVerdict::Carried { distance: Some(d) } => (
                "K003",
                Severity::Warning,
                format!("definite loop-carried dependence at distance {d}{}", evidence(true)),
            ),
            LoopVerdict::Carried { distance: None } => (
                "K003",
                Severity::Warning,
                format!("definite loop-carried dependence{}", evidence(true)),
            ),
            LoopVerdict::Unknown => {
                ("K004", Severity::Note, format!("dependences unprovable{}", evidence(false)))
            }
        };
        out.push(Diagnostic { code, severity, label: l.label.clone(), line, message });
    }
    out
}

/// Fraction of program coverage below which missed parallelism is only a
/// note, not a warning.
const MISSED_COVERAGE_WARN: f64 = 0.05;

/// Cross-checks a plan against the static verdicts: `K010` hazards,
/// `K011` missed parallelism, `K012` unverified DOALLs.
pub fn audit_plan(analysis: &Analysis, plan: &Plan) -> Vec<Diagnostic> {
    let unit = &analysis.unit;
    let regions = &unit.module.regions;
    let mut out = Vec::new();

    // Planned-DOALL entries vs static verdicts.
    for e in &plan.entries {
        if !matches!(e.kind, PlanKind::Doall | PlanKind::Reduction) {
            continue;
        }
        let line = regions.info(e.region).span.line_start;
        match unit.depend.verdict(e.region) {
            Some(LoopVerdict::Carried { distance }) => {
                let dist = distance.map(|d| format!(" (distance {d})")).unwrap_or_default();
                out.push(Diagnostic {
                    code: "K010",
                    severity: Severity::Error,
                    label: e.label.clone(),
                    line,
                    message: format!(
                        "hazard: the profile marks this loop {} but static analysis proves a \
                         loop-carried dependence{dist} — the plan is unsound for other inputs",
                        e.kind
                    ),
                });
            }
            Some(LoopVerdict::Unknown) => {
                out.push(Diagnostic {
                    code: "K012",
                    severity: Severity::Note,
                    label: e.label.clone(),
                    line,
                    message: format!(
                        "unverified {}: the profiled run saw independent iterations but the \
                         dependences are statically unprovable — verify before parallelizing",
                        e.kind
                    ),
                });
            }
            _ => {}
        }
    }

    // Statically proven DOALLs the planner skipped entirely (no planned
    // ancestor that would subsume them, no planned descendant already
    // carrying the parallelism).
    let planned: HashSet<RegionId> = plan.regions();
    let mut planned_lineage: HashSet<RegionId> = HashSet::new();
    for &p in &planned {
        planned_lineage.extend(regions.ancestors(p));
    }
    for l in &unit.depend.loops {
        if !matches!(l.verdict, LoopVerdict::ProvablyDoall | LoopVerdict::DoallAfterBreaking) {
            continue;
        }
        let in_planned_subtree = regions.ancestors(l.region).any(|a| planned.contains(&a));
        if in_planned_subtree || planned_lineage.contains(&l.region) {
            continue;
        }
        let coverage = analysis.profile().stats(l.region).map(|s| s.coverage).unwrap_or(0.0);
        let severity =
            if coverage >= MISSED_COVERAGE_WARN { Severity::Warning } else { Severity::Note };
        out.push(Diagnostic {
            code: "K011",
            severity,
            label: l.label.clone(),
            line: regions.info(l.region).span.line_start,
            message: format!(
                "missed parallelism: statically {} but not in the plan ({:.1}% of program work)",
                l.verdict,
                coverage * 100.0
            ),
        });
    }

    out.sort_by(|a, b| a.severity.cmp(&b.severity).then(a.line.cmp(&b.line)));
    out
}

/// Renders diagnostics in compiler-lint form, one line each.
pub fn render(source_name: &str, diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&format!(
            "{source_name}:{}: {}[{}]: {} [{}]\n",
            d.line, d.severity, d.code, d.message, d.label
        ));
    }
    let c = count_severities(diags);
    if c.errors + c.warnings > 0 {
        out.push_str(&format!(
            "{} error{}, {} warning{}\n",
            c.errors,
            if c.errors == 1 { "" } else { "s" },
            c.warnings,
            if c.warnings == 1 { "" } else { "s" },
        ));
    }
    out
}

/// Serializes the verdicts and diagnostics as a `kremlin-analyze-v1` JSON
/// document (stable key order, deterministic across runs).
pub fn to_json(unit: &CompiledUnit, diags: &[Diagnostic]) -> String {
    let text = |s: &str| Value::Str(s.to_owned());
    let names = ["provably-doall", "doall-after-breaking", "carried", "unknown"];
    let verdicts = names
        .iter()
        .zip(unit.depend.counts())
        .map(|(name, c)| ((*name).to_owned(), Value::Num(c as f64)))
        .collect();
    let loops = unit
        .depend
        .loops
        .iter()
        .map(|l| {
            let distance = match l.verdict {
                LoopVerdict::Carried { distance: Some(d) } => Value::Num(d as f64),
                _ => Value::Null,
            };
            let line = unit.module.regions.info(l.region).span.line_start;
            Value::Obj(vec![
                ("label".into(), text(&l.label)),
                ("line".into(), Value::Num(line.into())),
                ("verdict".into(), text(l.verdict.name())),
                ("distance".into(), distance),
                ("inductions".into(), Value::Num(l.inductions as f64)),
                ("reductions".into(), Value::Num(l.reductions as f64)),
            ])
        })
        .collect();
    let diagnostics = diags
        .iter()
        .map(|d| {
            Value::Obj(vec![
                ("code".into(), text(d.code)),
                ("severity".into(), text(d.severity.name())),
                ("label".into(), text(&d.label)),
                ("line".into(), Value::Num(d.line.into())),
                ("message".into(), text(&d.message)),
            ])
        })
        .collect();
    Value::Obj(vec![
        ("schema".into(), text("kremlin-analyze-v1")),
        ("source".into(), text(&unit.module.source_name)),
        ("verdicts".into(), Value::Obj(verdicts)),
        ("loops".into(), Value::Arr(loops)),
        ("diagnostics".into(), Value::Arr(diagnostics)),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Kremlin;

    const MIXED: &str = "float a[256]; float b[256];\n\
        int main() {\n\
          for (int i = 0; i < 256; i++) { a[i] = sqrt((float) i); }\n\
          for (int i = 1; i < 256; i++) { b[i] = b[i - 1] + a[i]; }\n\
          return 0;\n\
        }";

    #[test]
    fn static_diagnostics_cover_verdicts() {
        let unit = kremlin_ir::compile(MIXED, "mixed.kc").unwrap();
        let diags = static_diagnostics(&unit);
        assert_eq!(diags.len(), 2);
        assert_eq!(diags[0].code, "K001");
        assert_eq!(diags[0].severity, Severity::Info);
        assert_eq!(diags[1].code, "K003");
        assert_eq!(diags[1].severity, Severity::Warning);
        assert!(diags[1].message.contains("distance 1"), "{}", diags[1].message);
        let rendered = render("mixed.kc", &diags);
        assert!(rendered.contains("mixed.kc:3: info[K001]"), "{rendered}");
        assert!(rendered.contains("warning[K003]"), "{rendered}");
        assert!(rendered.contains("1 warning"), "{rendered}");
    }

    #[test]
    fn k003_quotes_the_proving_evidence_not_the_first_line() {
        // The may-dependence on `a` (non-affine subscript) is recorded
        // before the definite recurrence on `b`; K003 must still quote
        // the line that *proves* the carried dependence.
        let src = "float a[64]; float b[64];\n\
            int main() {\n\
              for (int i = 1; i < 64; i++) {\n\
                a[i] = a[i / 2] + 1.0;\n\
                b[i] = b[i - 1] * 0.5;\n\
              }\n\
              return 0;\n\
            }";
        let unit = kremlin_ir::compile(src, "pick.kc").unwrap();
        let l = &unit.depend.loops[0];
        assert!(!l.evidence[0].definite, "setup: first evidence line should be the may-line");
        let diags = static_diagnostics(&unit);
        let k3 = diags.iter().find(|d| d.code == "K003").expect("carried loop diagnosed");
        assert!(k3.message.contains("proven by"), "{}", k3.message);
        assert!(k3.message.contains("`b`"), "{}", k3.message);
    }

    #[test]
    fn k004_names_the_failing_dimension_and_test() {
        // Rows of width 8 overlap under a stride-16 outer subscript space
        // of extent 16: MIV bounds cannot separate them, and the K004
        // note must say which test gave up and where.
        let src = "float m[256];\n\
            int main() {\n\
              for (int i = 0; i < 16; i++) {\n\
                for (int j = 0; j < 16; j++) {\n\
                  m[i * 8 + j] = m[i * 8 + j] + 1.0;\n\
                }\n\
              }\n\
              return 0;\n\
            }";
        let unit = kremlin_ir::compile(src, "rows.kc").unwrap();
        let diags = static_diagnostics(&unit);
        let k4 = diags.iter().find(|d| d.code == "K004").expect("unknown loop diagnosed");
        assert!(k4.message.contains("MIV bounds inconclusive at dim 0"), "{}", k4.message);
    }

    #[test]
    fn audit_flags_no_hazard_on_consistent_plan() {
        let analysis = Kremlin::new().analyze(MIXED, "mixed.kc").unwrap();
        let plan = analysis.plan_openmp();
        assert!(plan.contains(analysis.region("main#L0").unwrap()));
        let diags = audit_plan(&analysis, &plan);
        assert!(diags.iter().all(|d| d.code != "K010"), "no hazards expected: {diags:?}");
    }

    #[test]
    fn audit_reports_hazard_when_static_contradicts_plan() {
        // Hand-build a plan claiming the carried loop is DOALL.
        let analysis = Kremlin::new().analyze(MIXED, "mixed.kc").unwrap();
        let l1 = analysis.region("main#L1").unwrap();
        let plan = Plan {
            personality: "test".into(),
            entries: vec![kremlin_planner::PlanEntry {
                region: l1,
                label: "main#L1".into(),
                location: "mixed.kc (4)".into(),
                self_p: 100.0,
                coverage: 0.5,
                est_speedup: 1.5,
                kind: PlanKind::Doall,
                verdict: None,
            }],
        };
        let diags = audit_plan(&analysis, &plan);
        let hazard = diags.iter().find(|d| d.code == "K010").expect("hazard reported");
        assert_eq!(hazard.severity, Severity::Error);
        assert_eq!(hazard.label, "main#L1");
        // And the proven-DOALL loop it skipped shows as missed.
        assert!(diags.iter().any(|d| d.code == "K011"), "{diags:?}");
    }

    #[test]
    fn json_is_schema_versioned_and_stable() {
        let unit = kremlin_ir::compile(MIXED, "mixed.kc").unwrap();
        let diags = static_diagnostics(&unit);
        let j1 = to_json(&unit, &diags);
        let unit2 = kremlin_ir::compile(MIXED, "mixed.kc").unwrap();
        let j2 = to_json(&unit2, &static_diagnostics(&unit2));
        assert_eq!(j1, j2, "analyze output must be deterministic");
        assert!(j1.starts_with("{\"schema\":\"kremlin-analyze-v1\""));
        assert!(j1.contains("\"verdicts\":{\"provably-doall\":1"), "{j1}");
        assert!(j1.contains("\"label\":\"main#L1\""), "{j1}");
        assert!(j1.contains("\"distance\":1"), "{j1}");
    }
}
