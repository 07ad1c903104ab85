//! The `kremlin-serve-v1` wire schema.
//!
//! JSON over HTTP, built with the same zero-dependency
//! [`kremlin_obs::json`] reader/writer the metrics schema uses. The
//! version policy mirrors the trace layer's reject-unknown-versions
//! rule (`kremlin-trace v2`): a request carrying any schema other than
//! [`SCHEMA`], or addressed to any `/vN/` prefix other than `/v1/`, is
//! rejected with a message naming both the found and the supported
//! version. Additive response fields do not bump the version; any
//! change to existing fields or request semantics does.

use kremlin::planner::Plan;
use kremlin::LoopVerdict;
use kremlin_obs::json::{self, Value};

use crate::{EngineAnalysis, StageReuse};

/// The one request/response schema this server speaks.
pub const SCHEMA: &str = "kremlin-serve-v1";

/// A parsed `POST /v1/profile` body.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileRequest {
    /// Program source to compile and profile.
    pub source: String,
    /// Source name used in labels and plans.
    pub name: String,
    /// Depth shards: `1` profiles while the program executes; more
    /// record it once and replay the recording in that many shards.
    pub jobs: usize,
    /// Planner personality (`openmp`, `cilk`, ...).
    pub personality: String,
}

/// Parses and validates a profile request.
///
/// # Errors
///
/// A human-readable message for malformed JSON, a wrong `schema` (both
/// versions named), or a missing `source`.
pub fn parse_profile_request(body: &str) -> Result<ProfileRequest, String> {
    let doc = json::parse(body).map_err(|e| format!("invalid JSON: {e}"))?;
    let schema = doc.get("schema").and_then(Value::as_str).unwrap_or("(missing)");
    if schema != SCHEMA {
        return Err(format!(
            "schema mismatch: request speaks {schema:?}, this server speaks {SCHEMA:?}"
        ));
    }
    let source = doc
        .get("source")
        .and_then(Value::as_str)
        .ok_or("missing required field \"source\"")?
        .to_string();
    let name = doc.get("name").and_then(Value::as_str).unwrap_or("submitted.kc").to_string();
    let jobs = match doc.get("jobs") {
        None => 1,
        Some(v) => parse_jobs(v.as_f64())?,
    };
    let personality =
        doc.get("personality").and_then(Value::as_str).unwrap_or("openmp").to_string();
    Ok(ProfileRequest { source, name, jobs, personality })
}

/// The one check of a requested shard count, for the `jobs` body field
/// and the `x-kremlin-jobs` header alike: `n` must be an integer in
/// `1..=64`, and `None` (a value that is not a number) fails too.
///
/// # Errors
///
/// `"jobs" must be an integer in 1..=64`.
pub(crate) fn parse_jobs(n: Option<f64>) -> Result<usize, String> {
    match n {
        Some(n) if (1.0..=64.0).contains(&n) && n.fract() == 0.0 => Ok(n as usize),
        _ => Err("\"jobs\" must be an integer in 1..=64".into()),
    }
}

/// Renders a successful profile/trace response.
///
/// `plan_text` is the exact Figure-3 table the CLI prints — clients
/// byte-compare it across requests to prove determinism end to end.
pub fn profile_response(result: &EngineAnalysis, personality: &str, plan: &Plan) -> String {
    let run = &result.analysis.outcome.run;
    let entries: Vec<Value> = plan
        .entries
        .iter()
        .map(|e| {
            Value::Obj(vec![
                ("label".into(), Value::Str(e.label.clone())),
                ("location".into(), Value::Str(e.location.clone())),
                ("self_p".into(), Value::Num(e.self_p)),
                ("coverage".into(), Value::Num(e.coverage)),
                ("est_speedup".into(), Value::Num(e.est_speedup)),
                ("kind".into(), Value::Str(e.kind.to_string())),
                ("verdict".into(), verdict_value(e.verdict)),
            ])
        })
        .collect();
    Value::Obj(vec![
        ("schema".into(), Value::Str(SCHEMA.into())),
        ("module_fingerprint".into(), Value::Str(format!("{:#018x}", result.module_fp))),
        ("exit".into(), Value::Num(run.exit as f64)),
        ("instrs_executed".into(), Value::Num(run.instrs_executed as f64)),
        ("reused".into(), reuse_value(result.reused)),
        ("personality".into(), Value::Str(personality.into())),
        ("plan".into(), Value::Str(plan.to_string())),
        ("entries".into(), Value::Arr(entries)),
    ])
    .to_string()
}

/// The `reused` object: `unit` (compile skipped), `decoded` (nothing
/// recorded or decoded) and `profile` (profiling skipped). The unit and
/// its profile live in one cache row, so all three report that row's
/// hit; `unit` and `decoded` go with the next schema bump.
fn reuse_value(reused: StageReuse) -> Value {
    Value::Obj(vec![
        ("unit".into(), Value::Bool(reused.unit)),
        ("decoded".into(), Value::Bool(reused.decoded)),
        ("profile".into(), Value::Bool(reused.profile)),
    ])
}

fn verdict_value(v: Option<LoopVerdict>) -> Value {
    match v {
        Some(LoopVerdict::ProvablyDoall) => Value::Str("doall".into()),
        Some(LoopVerdict::DoallAfterBreaking) => Value::Str("doall-after-breaking".into()),
        Some(LoopVerdict::Carried { distance: Some(d) }) => Value::Str(format!("carried({d})")),
        Some(LoopVerdict::Carried { distance: None }) => Value::Str("carried".into()),
        Some(LoopVerdict::Unknown) => Value::Str("unknown".into()),
        None => Value::Null,
    }
}

/// Renders an error body.
pub fn error_response(message: &str) -> String {
    Value::Obj(vec![
        ("schema".into(), Value::Str(SCHEMA.into())),
        ("error".into(), Value::Str(message.into())),
    ])
    .to_string()
}

/// Checks a request path's `/vN/` prefix against the supported `/v1/`,
/// the HTTP face of the trace layer's reject-unknown-versions policy.
///
/// # Errors
///
/// A message naming the requested and the supported version.
pub fn check_path_version(path: &str) -> Result<(), String> {
    let Some(rest) = path.strip_prefix("/v") else { return Ok(()) };
    let n: String = rest.chars().take_while(char::is_ascii_digit).collect();
    if !n.is_empty() && n != "1" {
        return Err(format!(
            "unsupported protocol version v{n}: this server speaks {SCHEMA} (use /v1/...)"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_and_full_requests() {
        let r = parse_profile_request(
            r#"{"schema":"kremlin-serve-v1","source":"int main() { return 0; }"}"#,
        )
        .unwrap();
        assert_eq!(r.name, "submitted.kc");
        assert_eq!(r.jobs, 1);
        assert_eq!(r.personality, "openmp");
        let r = parse_profile_request(
            r#"{"schema":"kremlin-serve-v1","source":"s","name":"bt.kc","jobs":3,"personality":"cilk"}"#,
        )
        .unwrap();
        assert_eq!((r.name.as_str(), r.jobs, r.personality.as_str()), ("bt.kc", 3, "cilk"));
    }

    #[test]
    fn rejects_wrong_schema_naming_both_versions() {
        let e = parse_profile_request(r#"{"schema":"kremlin-serve-v2","source":"s"}"#).unwrap_err();
        assert!(e.contains("kremlin-serve-v2"), "{e}");
        assert!(e.contains("kremlin-serve-v1"), "{e}");
    }

    #[test]
    fn rejects_missing_source_and_bad_jobs() {
        assert!(parse_profile_request(r#"{"schema":"kremlin-serve-v1"}"#)
            .unwrap_err()
            .contains("source"));
        assert!(parse_profile_request(r#"{"schema":"kremlin-serve-v1","source":"s","jobs":0}"#)
            .unwrap_err()
            .contains("jobs"));
    }

    #[test]
    fn version_gate_rejects_future_paths_only() {
        assert!(check_path_version("/v1/profile").is_ok());
        assert!(check_path_version("/healthz").is_ok());
        let e = check_path_version("/v2/profile").unwrap_err();
        assert!(e.contains("v2") && e.contains("kremlin-serve-v1"), "{e}");
    }
}
