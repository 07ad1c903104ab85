//! Profile persistence: the on-disk parallelism profile.
//!
//! Kremlin's workflow separates the (expensive) profiled run from the
//! (cheap, repeatable) planning step: "the user executes this binary...
//! [it] produces a parallelism profile that Kremlin's parallelism planner
//! uses" (paper §3, Figure 4) — possibly with different personalities or
//! exclusion lists, without re-running. This module gives the reproduction
//! the same property with a small, versioned, line-oriented text format
//! (no external serialization dependencies):
//!
//! ```text
//! kremlin-profile v1
//! source <name>
//! region <id> <func|loop|body> <line_start> <line_end> <label>
//! reduction <region-id>
//! entry <static-id> <work> <cp> [<child-entry>:<count> ...]
//! root <entry-id>
//! ```
//!
//! Entries appear leaf-to-root (their dictionary order), so loading can
//! re-intern them in one pass.
//!
//! Recorded execution traces follow the same conventions (magic line,
//! version, integrity check, graceful errors) in a binary format owned by
//! [`kremlin_interp::trace`]; [`save_trace`]/[`load_trace`] are the
//! path-level entry points used by `kremlin record`/`replay` and
//! `--save-trace`.

use kremlin_compress::{Dictionary, EntryId};
use kremlin_hcpa::ParallelismProfile;
use kremlin_interp::Trace;
use kremlin_ir::{RegionId, RegionKind, RegionTable};
use kremlin_minic::Span;
use std::collections::HashSet;
use std::fmt;
use std::path::Path;

/// Writes a recorded trace to `path` in the binary `kremlin-trace`
/// format and returns the file's size in bytes.
///
/// # Errors
///
/// Returns a path-prefixed message on I/O failure.
pub fn save_trace(path: &Path, trace: &Trace) -> Result<usize, String> {
    let bytes = trace.to_bytes();
    std::fs::write(path, &bytes).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(bytes.len())
}

/// Reads and validates a `kremlin-trace` file.
///
/// # Errors
///
/// Returns a path-prefixed message on I/O failure, truncation, corruption,
/// or version mismatch — never panics on damaged input.
pub fn load_trace(path: &Path) -> Result<Trace, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Trace::from_bytes(&bytes).map_err(|e| format!("{}: {e}", path.display()))
}

/// A self-contained, reloadable profile: region metadata plus the
/// compressed dictionary.
#[derive(Debug)]
pub struct SavedProfile {
    /// Source name recorded at profiling time.
    pub source_name: String,
    /// The region table (labels, kinds, source lines).
    pub regions: RegionTable,
    /// Loop regions with detected reduction accumulators.
    pub reduction_loops: HashSet<RegionId>,
    /// The rebuilt parallelism profile.
    pub profile: ParallelismProfile,
}

/// Errors from [`load_profile`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileFormatError {
    /// 1-based line of the offending record.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ProfileFormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "profile format error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ProfileFormatError {}

/// Serializes a profile (with its region table and reduction set) to the
/// text format.
pub fn save_profile(
    source_name: &str,
    regions: &RegionTable,
    reduction_loops: &HashSet<RegionId>,
    profile: &ParallelismProfile,
) -> String {
    let mut out = String::new();
    out.push_str("kremlin-profile v1\n");
    out.push_str(&format!("source {source_name}\n"));
    for r in regions.iter() {
        let kind = match r.kind {
            RegionKind::Func => "func",
            RegionKind::Loop => "loop",
            RegionKind::LoopBody => "body",
        };
        out.push_str(&format!(
            "region {} {} {} {} {}\n",
            r.id.0, kind, r.span.line_start, r.span.line_end, r.label
        ));
    }
    let mut reds: Vec<_> = reduction_loops.iter().collect();
    reds.sort();
    for r in reds {
        out.push_str(&format!("reduction {}\n", r.0));
    }
    for (_, e) in profile.dict.iter() {
        out.push_str(&format!("entry {} {} {}", e.static_id, e.work, e.cp));
        for (c, n) in &e.children {
            out.push_str(&format!(" {}:{}", c.0, n));
        }
        out.push('\n');
    }
    if let Some(root) = profile.dict.root() {
        out.push_str(&format!("root {}\n", root.0));
    }
    out
}

/// Parses the text format back into a [`SavedProfile`].
///
/// # Errors
///
/// Returns [`ProfileFormatError`] on version mismatch, malformed records,
/// or dangling references.
pub fn load_profile(text: &str) -> Result<SavedProfile, ProfileFormatError> {
    let err = |line: usize, message: String| ProfileFormatError { line, message };
    let mut lines = text.lines().enumerate();
    let (_, first) = lines.next().ok_or_else(|| err(1, "empty profile".into()))?;
    if first.trim() != "kremlin-profile v1" {
        return Err(err(1, format!("unsupported header `{first}`")));
    }

    let mut source_name = String::new();
    let mut regions = RegionTable::new();
    let mut reduction_loops = HashSet::new();
    let mut dict = Dictionary::new();
    let mut root: Option<EntryId> = None;
    let mut next_region = 0u32;
    let mut next_entry = 0u32;

    for (i, line) in lines {
        let lineno = i + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("source") => {
                source_name = parts.collect::<Vec<_>>().join(" ");
            }
            Some("region") => {
                let id: u32 = parse(parts.next(), lineno, "region id")?;
                if id != next_region {
                    return Err(err(lineno, format!("region ids must be dense, got {id}")));
                }
                next_region += 1;
                let kind = match parts.next() {
                    Some("func") => RegionKind::Func,
                    Some("loop") => RegionKind::Loop,
                    Some("body") => RegionKind::LoopBody,
                    other => return Err(err(lineno, format!("bad region kind {other:?}"))),
                };
                let ls: u32 = parse(parts.next(), lineno, "line_start")?;
                let le: u32 = parse(parts.next(), lineno, "line_end")?;
                let label = parts.collect::<Vec<_>>().join(" ");
                if label.is_empty() {
                    return Err(err(lineno, "region label missing".into()));
                }
                // The saved format does not carry static parents; planning
                // uses the dynamic graph from the dictionary instead.
                regions.add(kind, kremlin_ir::FuncId(0), None, label, Span::new(0, 0, ls, le));
            }
            Some("reduction") => {
                let id: u32 = parse(parts.next(), lineno, "region id")?;
                reduction_loops.insert(RegionId(id));
            }
            Some("entry") => {
                let sid: u32 = parse(parts.next(), lineno, "static id")?;
                let work: u64 = parse(parts.next(), lineno, "work")?;
                let cp: u64 = parse(parts.next(), lineno, "cp")?;
                let mut children = Vec::new();
                for p in parts {
                    let (c, n) = p
                        .split_once(':')
                        .ok_or_else(|| err(lineno, format!("bad child ref `{p}`")))?;
                    let c: u32 =
                        c.parse().map_err(|_| err(lineno, format!("bad child id `{c}`")))?;
                    let n: u64 =
                        n.parse().map_err(|_| err(lineno, format!("bad child count `{n}`")))?;
                    if c >= next_entry {
                        return Err(err(lineno, format!("child e{c} not yet defined")));
                    }
                    children.push((EntryId(c), n));
                }
                if sid >= next_region {
                    return Err(err(lineno, format!("entry references unknown region {sid}")));
                }
                dict.intern(sid, work, cp, &children);
                next_entry += 1;
            }
            Some("root") => {
                let id: u32 = parse(parts.next(), lineno, "root id")?;
                if id >= next_entry {
                    return Err(err(lineno, format!("root e{id} not defined")));
                }
                root = Some(EntryId(id));
            }
            Some(other) => return Err(err(lineno, format!("unknown record `{other}`"))),
            None => {}
        }
    }

    if let Some(root) = root {
        dict.set_root(root);
    }
    let mut profile = ParallelismProfile::build(&regions, dict, &reduction_loops);
    profile.set_source_name(&source_name);
    Ok(SavedProfile { source_name, regions, reduction_loops, profile })
}

fn parse<T: std::str::FromStr>(
    tok: Option<&str>,
    line: usize,
    what: &str,
) -> Result<T, ProfileFormatError> {
    tok.and_then(|t| t.parse().ok())
        .ok_or_else(|| ProfileFormatError { line, message: format!("missing or invalid {what}") })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Kremlin;
    use kremlin_planner::{OpenMpPlanner, Personality};

    const SRC: &str = "float a[128];\n\
        float f(float x) { return sqrt(x) * 2.0; }\n\
        int main() {\n\
          float s = 0.0;\n\
          for (int i = 0; i < 128; i++) { a[i] = f((float) i); }\n\
          for (int i = 0; i < 128; i++) { s += a[i]; }\n\
          return (int) s;\n\
        }";

    #[test]
    fn round_trip_preserves_planning() {
        let analysis = Kremlin::new().analyze(SRC, "persist.kc").unwrap();
        let text = save_profile(
            "persist.kc",
            &analysis.unit.module.regions,
            &analysis.unit.reduction_loops(),
            analysis.profile(),
        );
        let loaded = load_profile(&text).expect("loads");
        assert_eq!(loaded.source_name, "persist.kc");

        // Same plan from the reloaded profile, by label.
        let none = std::collections::HashSet::new();
        let plan_orig = OpenMpPlanner::default().plan(analysis.profile(), &none);
        let plan_loaded = OpenMpPlanner::default().plan(&loaded.profile, &none);
        let labels = |p: &kremlin_planner::Plan| {
            let mut v: Vec<String> = p.entries.iter().map(|e| e.label.clone()).collect();
            v.sort();
            v
        };
        assert_eq!(labels(&plan_orig), labels(&plan_loaded));
        // Metrics survive exactly.
        for (a, b) in plan_orig.entries.iter().zip(&plan_loaded.entries) {
            assert!((a.self_p - b.self_p).abs() < 1e-9);
            assert!((a.coverage - b.coverage).abs() < 1e-9);
        }
    }

    #[test]
    fn round_trip_preserves_stats() {
        let analysis = Kremlin::new().analyze(SRC, "persist.kc").unwrap();
        let text = save_profile(
            "persist.kc",
            &analysis.unit.module.regions,
            &analysis.unit.reduction_loops(),
            analysis.profile(),
        );
        let loaded = load_profile(&text).unwrap();
        for s in analysis.profile().iter() {
            let l = loaded
                .regions
                .by_label(&s.label)
                .and_then(|r| loaded.profile.stats(r))
                .unwrap_or_else(|| panic!("{} missing after reload", s.label));
            assert_eq!(s.total_work, l.total_work, "{}", s.label);
            assert_eq!(s.instances, l.instances, "{}", s.label);
            assert!((s.self_p - l.self_p).abs() < 1e-9, "{}", s.label);
            assert_eq!(s.is_reduction, l.is_reduction, "{}", s.label);
        }
    }

    #[test]
    fn save_is_idempotent_through_reload() {
        let analysis = Kremlin::new().analyze(SRC, "persist.kc").unwrap();
        let text = save_profile(
            "persist.kc",
            &analysis.unit.module.regions,
            &analysis.unit.reduction_loops(),
            analysis.profile(),
        );
        let loaded = load_profile(&text).unwrap();
        let text2 = save_profile(
            &loaded.source_name,
            &loaded.regions,
            &loaded.reduction_loops,
            &loaded.profile,
        );
        assert_eq!(text, text2);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(load_profile("").is_err());
        assert!(load_profile("not-a-profile").is_err());
        let e = load_profile("kremlin-profile v1\nbogus 1 2 3\n").unwrap_err();
        assert!(e.message.contains("unknown record"), "{e}");
        let e = load_profile("kremlin-profile v1\nregion 5 loop 1 2 x\n").unwrap_err();
        assert!(e.message.contains("dense"), "{e}");
        let e = load_profile("kremlin-profile v1\nregion 0 loop 1 2 l\nentry 0 10 5 7:1\n")
            .unwrap_err();
        assert!(e.message.contains("not yet defined"), "{e}");
    }
}
