//! Reference plans, from an implementation independent of the code
//! under test: the frozen seed profiler
//! ([`kremlin::hcpa::profile_unit_seed`]) plus the OpenMP planner.
//!
//! The paper programs' references live in `expected_plans.json` next to
//! this crate, compiled in; regenerate it with
//! `perfbench --write-expected perfbench/expected_plans.json`. Scenario
//! programs are referenced at run time by [`seed_plan`], outside every
//! timed region.

use std::sync::Arc;

use kremlin::obs::json::{self, Value};
use kremlin::{Analysis, HcpaConfig, MachineConfig};

use crate::gen::Program;

/// The compiled-in expected file.
const EXPECTED: &str = include_str!("../expected_plans.json");

/// Schema tag of the expected file.
const SCHEMA: &str = "perfbench-expected-v1";

/// A paper program's reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    /// Workload name.
    pub name: String,
    /// Trace events one execution records (the `events_per_s` numerator).
    pub events: u64,
    /// The reference OpenMP plan, as printed.
    pub plan: String,
}

/// The OpenMP plan of `source` from the seed profiler, and the number
/// of trace events its execution records.
///
/// # Errors
///
/// The compile or runtime error, as text.
pub fn seed_plan(source: &str, file: &str) -> Result<(String, u64), String> {
    let unit = kremlin::ir::compile(source, file).map_err(|e| e.to_string())?;
    let events = kremlin::interp::trace::record(&unit.module, MachineConfig::default())
        .map_err(|e| e.to_string())?
        .events();
    let outcome =
        kremlin::hcpa::profile_unit_seed(&unit, HcpaConfig::default(), MachineConfig::default())
            .map_err(|e| e.to_string())?;
    let plan = Analysis::from_parts(Arc::new(unit), Arc::new(outcome)).plan_openmp().to_string();
    Ok((plan, events))
}

/// Loads the compiled-in references, in `programs` order.
///
/// # Errors
///
/// A malformed file, or one that does not cover exactly `programs`.
pub fn load(programs: &[Program]) -> Result<Vec<Expected>, String> {
    let doc = json::parse(EXPECTED).map_err(|e| format!("expected_plans.json: {e}"))?;
    if doc.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
        return Err(format!("expected_plans.json: schema is not {SCHEMA}"));
    }
    let rows = doc.get("programs").and_then(Value::as_arr).ok_or("expected_plans.json: no rows")?;
    programs
        .iter()
        .map(|p| {
            let row = rows
                .iter()
                .find(|r| r.get("name").and_then(Value::as_str) == Some(p.name))
                .ok_or_else(|| format!("expected_plans.json has no row for {}", p.name))?;
            Ok(Expected {
                name: p.name.to_owned(),
                events: row.get("events").and_then(Value::as_f64).ok_or("row without events")?
                    as u64,
                plan: row.get("plan").and_then(Value::as_str).ok_or("row without plan")?.into(),
            })
        })
        .collect()
}

/// Renders the expected file for `programs` from the seed profiler.
///
/// # Errors
///
/// As [`seed_plan`].
pub fn render(programs: &[Program]) -> Result<String, String> {
    let mut rows = Vec::new();
    for p in programs {
        let (plan, events) = seed_plan(p.source, &p.file)?;
        rows.push(format!(
            "    {{\"name\": {}, \"events\": {events}, \"plan\": {}}}",
            json::escape(p.name),
            json::escape(&plan)
        ));
    }
    Ok(format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"reference\": \"kremlin_hcpa::profile_unit_seed + \
         OpenMpPlanner\",\n  \"programs\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    ))
}
