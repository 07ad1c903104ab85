//! The `kremlin` command-line tool — the paper's Figure 3 user interface.
//!
//! ```text
//! kremlin <program.kc> [options]
//! kremlin analyze <program.kc> [--json]      static dependence lint, no run
//! kremlin record <program.kc> [-o FILE]      record an execution trace
//! kremlin replay <trace> [--jobs=N] [...]    profile a recorded trace
//! kremlin corpus [--list|--emit-golden|--emit DIR|--golden FILE]
//!                                            four-oracle scenario corpus
//! kremlin fuzz --seeds N [--seed S] [--dump DIR]
//!                                            parallelism-structure fuzzer
//! kremlin serve --port P --workers N         profiling service daemon
//!                                            (kremlin-serve-v1 over HTTP)
//! kremlin --metrics-diff A.json B.json       compare two metrics snapshots
//!
//! options:
//!   --personality=<openmp|cilk|work-only|self-parallelism>   (default openmp)
//!   --exclude=<label,label,...>   regions the user cannot parallelize (§3)
//!   --regions                     dump per-region profile stats instead
//!   --evaluate                    simulate the plan on the machine model
//!   --runs=<n>                    profile n runs and aggregate (§2.4)
//!   --window=<n>                  HCPA depth window (§4.2's flag)
//!   --jobs=<n>                    depth-sharded parallel collection with
//!                                 n worker threads (§4.2; alias --depth-shards)
//!   --no-break-deps               disable induction/reduction breaking
//!   --save-profile=<path>         write the parallelism profile
//!   --load-profile=<path>         plan from a saved profile (skips execution)
//!   --save-trace=<path>           record the event trace, profile by replay,
//!                                 and write the trace file
//!   --audit-plan                  cross-check the plan against the static
//!                                 dependence verdicts (K010 hazards exit 1)
//!   --verify-ir                   run the IR verifier on the compiled module
//!                                 (always on in debug builds)
//!   --dump-ir                     print the instrumented IR and exit
//!   --metrics[=json|pretty]       self-instrumentation: print pipeline
//!                                 counters/gauges/phase timings (json: one
//!                                 object as the last stdout line)
//!   --trace <file>                write phase spans as JSONL
//! ```
//!
//! Exit codes: 0 success, 1 pipeline failure (I/O, compile, runtime,
//! corrupt trace), 2 usage error.
//!
//! Every pipeline-running mode is a thin client of the
//! [`kremlin_engine::Engine`] session layer; `kremlin serve` exposes the
//! same engine — with its content-addressed artifact cache shared across
//! requests — over HTTP.

use kremlin::persist::{load_profile, load_trace, save_profile, save_trace};
use kremlin::{
    CilkPlanner, Kremlin, OpenMpPlanner, Personality, SelfPFilterPlanner, WorkOnlyPlanner,
};
use kremlin_engine::serve::{ServeConfig, Server};
use kremlin_engine::{Engine, EngineConfig};
use std::collections::HashSet;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

/// CLI outcomes that are not plain success, each with its exit code.
enum CliError {
    /// `--help`: usage on stdout, exit 0.
    Help,
    /// Bad invocation: message + usage on stderr, exit 2.
    Usage(String),
    /// The pipeline failed (I/O, compile, runtime): stderr, exit 1.
    Failure(String),
}

/// Convenience for `?` on pipeline results.
fn fail(e: impl std::fmt::Display) -> CliError {
    CliError::Failure(e.to_string())
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum MetricsMode {
    Off,
    Pretty,
    Json,
}

struct Options {
    input: Option<String>,
    personality: String,
    exclude: Vec<String>,
    regions: bool,
    evaluate: bool,
    runs: usize,
    window: Option<usize>,
    jobs: usize,
    break_deps: bool,
    save_profile: Option<String>,
    load_profile: Option<String>,
    save_trace: Option<String>,
    metrics_diff: Option<(String, String)>,
    dump_ir: bool,
    report: bool,
    audit_plan: bool,
    verify_ir: bool,
    metrics: MetricsMode,
    trace: Option<String>,
}

fn usage() -> &'static str {
    "usage: kremlin <program.kc> [--personality=openmp|cilk|work-only|self-parallelism]\n\
     \x20              [--exclude=l1,l2] [--regions] [--evaluate] [--runs=N]\n\
     \x20              [--window=N] [--jobs=N|--depth-shards=N] [--no-break-deps]\n\
     \x20              [--save-profile=PATH] [--load-profile=PATH] [--save-trace=PATH]\n\
     \x20              [--dump-ir] [--report] [--audit-plan] [--verify-ir]\n\
     \x20              [--metrics[=json|pretty]] [--trace FILE]\n\
     \x20      kremlin analyze <program.kc> [--json] [--verify-ir]\n\
     \x20      kremlin record <program.kc> [-o FILE] [--metrics[=json|pretty]]\n\
     \x20      kremlin replay <trace-file> [--jobs=N] [--personality=...]\n\
     \x20              [--evaluate] [--metrics[=json|pretty]]\n\
     \x20      kremlin corpus [--list] [--emit-golden] [--emit DIR] [--golden FILE]\n\
     \x20              [--filter CLASS]\n\
     \x20      kremlin fuzz --seeds N [--seed S] [--dump DIR]\n\
     \x20      kremlin serve [--port=N] [--workers=N] [--queue=N] [--cache-mb=N]\n\
     \x20              [--jobs=N]\n\
     \x20      kremlin --metrics-diff A.json B.json"
}

fn parse_args(args: &[String]) -> Result<Options, CliError> {
    let mut o = Options {
        input: None,
        personality: "openmp".into(),
        exclude: Vec::new(),
        regions: false,
        evaluate: false,
        runs: 1,
        window: None,
        jobs: 1,
        break_deps: true,
        save_profile: None,
        load_profile: None,
        save_trace: None,
        metrics_diff: None,
        dump_ir: false,
        report: false,
        audit_plan: false,
        verify_ir: false,
        metrics: MetricsMode::Off,
        trace: None,
    };
    let bad = |msg: String| CliError::Usage(format!("{msg}\n{}", usage()));
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        i += 1;
        if let Some(v) = a.strip_prefix("--personality=") {
            o.personality = v.to_owned();
        } else if let Some(v) = a.strip_prefix("--exclude=") {
            o.exclude.extend(v.split(',').map(|s| s.trim().to_owned()));
        } else if a == "--regions" {
            o.regions = true;
        } else if a == "--evaluate" {
            o.evaluate = true;
        } else if let Some(v) = a.strip_prefix("--runs=") {
            o.runs = v.parse().map_err(|_| bad(format!("bad --runs value `{v}`")))?;
            if o.runs == 0 {
                return Err(bad("--runs must be at least 1".into()));
            }
        } else if let Some(v) = a.strip_prefix("--window=") {
            // Window 0 would track no depth at all and plan nothing.
            let window = v.parse().ok().filter(|&w| w > 0);
            o.window =
                Some(window.ok_or_else(|| bad(format!("bad --window value `{v}` (at least 1)")))?);
        } else if let Some(v) =
            a.strip_prefix("--jobs=").or_else(|| a.strip_prefix("--depth-shards="))
        {
            o.jobs = v.parse().map_err(|_| bad(format!("bad {a} value")))?;
            if o.jobs == 0 {
                return Err(bad("--jobs must be at least 1".into()));
            }
        } else if a == "--no-break-deps" {
            o.break_deps = false;
        } else if let Some(v) = a.strip_prefix("--save-profile=") {
            o.save_profile = Some(v.to_owned());
        } else if let Some(v) = a.strip_prefix("--load-profile=") {
            o.load_profile = Some(v.to_owned());
        } else if let Some(v) = a.strip_prefix("--save-trace=") {
            o.save_trace = Some(v.to_owned());
        } else if a == "--metrics-diff" {
            let (Some(p1), Some(p2)) = (args.get(i), args.get(i + 1)) else {
                return Err(bad("--metrics-diff requires two metrics JSON files".into()));
            };
            o.metrics_diff = Some((p1.clone(), p2.clone()));
            i += 2;
        } else if a == "--dump-ir" {
            o.dump_ir = true;
        } else if a == "--report" {
            o.report = true;
        } else if a == "--audit-plan" {
            o.audit_plan = true;
        } else if a == "--verify-ir" {
            o.verify_ir = true;
        } else if a == "--metrics" || a == "--metrics=pretty" {
            o.metrics = MetricsMode::Pretty;
        } else if a == "--metrics=json" {
            o.metrics = MetricsMode::Json;
        } else if let Some(v) = a.strip_prefix("--metrics=") {
            return Err(bad(format!("bad --metrics value `{v}` (expected json or pretty)")));
        } else if a == "--trace" {
            let Some(path) = args.get(i) else {
                return Err(bad("--trace requires a file argument".into()));
            };
            o.trace = Some(path.clone());
            i += 1;
        } else if let Some(v) = a.strip_prefix("--trace=") {
            o.trace = Some(v.to_owned());
        } else if a == "--help" || a == "-h" {
            return Err(CliError::Help);
        } else if a.starts_with("--") {
            return Err(bad(format!("unknown option `{a}`")));
        } else if o.input.is_none() {
            o.input = Some(a.clone());
        } else {
            return Err(bad(format!("unexpected argument `{a}`")));
        }
    }
    Ok(o)
}

fn personality(name: &str) -> Result<Box<dyn Personality>, CliError> {
    Ok(match name {
        "openmp" => Box::new(OpenMpPlanner::default()),
        "cilk" => Box::new(CilkPlanner::default()),
        "work-only" => Box::new(WorkOnlyPlanner::default()),
        "self-parallelism" => Box::new(SelfPFilterPlanner::default()),
        other => {
            return Err(CliError::Usage(format!("unknown personality `{other}`\n{}", usage())))
        }
    })
}

/// Emits `--metrics` / `--trace` output after the pipeline has run.
fn emit_observability(o: &Options) -> Result<(), CliError> {
    match o.metrics {
        MetricsMode::Off => {}
        MetricsMode::Pretty => print!("{}", kremlin::obs::snapshot().render_pretty()),
        // One object as the last stdout line, so scripts can parse it.
        MetricsMode::Json => println!("{}", kremlin::obs::snapshot().to_json()),
    }
    if let Some(path) = &o.trace {
        let events = kremlin::obs::take_trace();
        let jsonl = kremlin::obs::trace_to_jsonl(&events);
        std::fs::write(path, jsonl).map_err(|e| fail(format!("{path}: {e}")))?;
        eprintln!("[kremlin] {} spans written to {path}", events.len());
    }
    Ok(())
}

/// Parses the arguments a subcommand shares with the main mode (metrics,
/// jobs, personality, evaluate) plus up to `positionals` free arguments.
fn parse_sub_args(
    args: &[String],
    positionals: &mut Vec<String>,
    allow_out: bool,
) -> Result<Options, CliError> {
    let bad = |msg: String| CliError::Usage(format!("{msg}\n{}", usage()));
    let mut o = parse_args(&[])?;
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        i += 1;
        if a == "--help" || a == "-h" {
            return Err(CliError::Help);
        } else if a == "--metrics" || a == "--metrics=pretty" {
            o.metrics = MetricsMode::Pretty;
        } else if a == "--metrics=json" {
            o.metrics = MetricsMode::Json;
        } else if let Some(v) = a.strip_prefix("--jobs=") {
            o.jobs = v.parse().map_err(|_| bad(format!("bad --jobs value `{v}`")))?;
            if o.jobs == 0 {
                return Err(bad("--jobs must be at least 1".into()));
            }
        } else if a == "--jobs" {
            let Some(v) = args.get(i) else {
                return Err(bad("--jobs requires a value".into()));
            };
            o.jobs = v.parse().map_err(|_| bad(format!("bad --jobs value `{v}`")))?;
            if o.jobs == 0 {
                return Err(bad("--jobs must be at least 1".into()));
            }
            i += 1;
        } else if let Some(v) = a.strip_prefix("--personality=") {
            o.personality = v.to_owned();
        } else if a == "--evaluate" {
            o.evaluate = true;
        } else if allow_out && a == "-o" {
            let Some(v) = args.get(i) else {
                return Err(bad("-o requires a file argument".into()));
            };
            o.save_trace = Some(v.clone());
            i += 1;
        } else if allow_out && a.starts_with("--out=") {
            o.save_trace = Some(a["--out=".len()..].to_owned());
        } else if a.starts_with('-') {
            return Err(bad(format!("unknown option `{a}`")));
        } else {
            positionals.push(a.clone());
        }
    }
    Ok(o)
}

/// Runs the IR verifier when `--verify-ir` was passed; always runs it in
/// debug builds so pipeline bugs surface as reports, not bad profiles.
fn maybe_verify(module: &kremlin::ir::Module, requested: bool) -> Result<(), CliError> {
    if requested || cfg!(debug_assertions) {
        kremlin::ir::verify::verify_module(module)
            .map_err(|e| fail(format!("IR verification failed: {e}")))?;
        if requested {
            eprintln!("[kremlin] IR verified");
        }
    }
    Ok(())
}

/// `kremlin analyze <program.kc> [--json]`: compile-time dependence lint
/// over every loop region — no execution, no profile.
fn cmd_analyze(args: &[String]) -> Result<(), CliError> {
    let mut input = None;
    let mut json = false;
    let mut verify_ir = false;
    for a in args {
        match a.as_str() {
            "--json" => json = true,
            "--verify-ir" => verify_ir = true,
            "--help" | "-h" => return Err(CliError::Help),
            _ if a.starts_with('-') => {
                return Err(CliError::Usage(format!("unknown option `{a}`\n{}", usage())))
            }
            _ if input.is_none() => input = Some(a.clone()),
            _ => return Err(CliError::Usage(format!("unexpected argument `{a}`\n{}", usage()))),
        }
    }
    let Some(input) = input else {
        return Err(CliError::Usage(format!(
            "analyze takes exactly one program file\n{}",
            usage()
        )));
    };
    let src = std::fs::read_to_string(&input).map_err(|e| fail(format!("{input}: {e}")))?;
    let name = source_name(&input);
    let unit = kremlin::ir::compile(&src, &name).map_err(fail)?;
    maybe_verify(&unit.module, verify_ir)?;
    let diags = kremlin::diag::static_diagnostics(&unit);
    if json {
        println!("{}", kremlin::diag::to_json(&unit, &diags));
    } else {
        let c = unit.depend.counts();
        println!(
            "static dependence analysis — {name}: {} loops ({} provably doall, {} doall after \
             breaking, {} carried, {} unknown)",
            unit.depend.loops.len(),
            c[0],
            c[1],
            c[2],
            c[3]
        );
        print!("{}", kremlin::diag::render(&name, &diags));
    }
    Ok(())
}

/// `kremlin record <program.kc> [-o FILE]`: execute once, capture the
/// event stream, and write a self-contained trace file.
fn cmd_record(args: &[String]) -> Result<(), CliError> {
    let mut positionals = Vec::new();
    let o = parse_sub_args(args, &mut positionals, true)?;
    let [input] = positionals.as_slice() else {
        return Err(CliError::Usage(format!("record takes exactly one program file\n{}", usage())));
    };
    if o.metrics != MetricsMode::Off {
        kremlin::obs::set_metrics(true);
    }
    let out = o.save_trace.clone().unwrap_or_else(|| format!("{input}.ktrace"));
    let src = std::fs::read_to_string(input).map_err(|e| fail(format!("{input}: {e}")))?;
    let name = source_name(input);
    let unit = kremlin::ir::compile(&src, &name).map_err(fail)?;
    let mut trace = kremlin::interp::trace::record(&unit.module, kremlin::MachineConfig::default())
        .map_err(fail)?;
    trace.source = src;
    save_trace(Path::new(&out), &trace).map_err(fail)?;
    kremlin::obs::gauge!("trace.file.bytes").set(trace.to_bytes().len() as u64);
    eprintln!(
        "[kremlin] trace: {} events, {} payload bytes -> {out}",
        trace.events(),
        trace.encoded_len()
    );
    print!("{}", kremlin::report::render_trace_info(&trace));
    emit_observability(&o)
}

/// `kremlin replay <trace> [--jobs=N]`: recompile the embedded source and
/// profile by replaying the recorded event stream — no execution at all.
fn cmd_replay(args: &[String]) -> Result<(), CliError> {
    let mut positionals = Vec::new();
    let o = parse_sub_args(args, &mut positionals, false)?;
    let [path] = positionals.as_slice() else {
        return Err(CliError::Usage(format!("replay takes exactly one trace file\n{}", usage())));
    };
    let planner = personality(&o.personality)?;
    if o.metrics != MetricsMode::Off {
        kremlin::obs::set_metrics(true);
    }
    let trace = load_trace(Path::new(path)).map_err(fail)?;
    if trace.source.is_empty() {
        return Err(fail(format!("{path}: trace has no embedded source to recompile")));
    }
    let engine = Engine::with_tool(Kremlin::new());
    let analysis = engine.analyze_trace(&trace, o.jobs).map_err(fail)?.analysis;
    eprintln!(
        "[kremlin] replayed {} events: exit={} instrs={} dynamic-regions={} max-depth={}",
        trace.events(),
        analysis.outcome.run.exit,
        analysis.outcome.run.instrs_executed,
        analysis.outcome.stats.dynamic_regions,
        analysis.outcome.stats.max_depth
    );
    let plan = analysis.plan_with(planner.as_ref(), &HashSet::new());
    print!("{plan}");
    if o.evaluate {
        let eval = analysis.evaluate(&plan);
        println!(
            "\nestimated: {:.2}x speedup on {} cores (serial {:.0} -> {:.0})",
            eval.speedup, eval.best_cores, eval.serial_time, eval.parallel_time
        );
    }
    emit_observability(&o)
}

/// `kremlin corpus`: run the four-oracle cross-check over the fixed
/// scenario grid; `--list` only enumerates, `--emit DIR` dumps the
/// generated sources, `--emit-golden` prints the golden table, and
/// `--golden FILE` additionally gates observations against the
/// checked-in `CORPUS_verdicts.json`. Any oracle disagreement exits 1.
fn cmd_corpus(args: &[String]) -> Result<(), CliError> {
    let bad = |msg: String| CliError::Usage(format!("{msg}\n{}", usage()));
    let (mut list, mut emit_golden) = (false, false);
    let (mut emit_dir, mut golden, mut filter) = (None, None, None);
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        i += 1;
        let mut take = |what: &str| -> Result<String, CliError> {
            let v = args.get(i).cloned().ok_or_else(|| bad(format!("{what} requires a value")))?;
            i += 1;
            Ok(v)
        };
        match a.as_str() {
            "--list" => list = true,
            "--emit-golden" => emit_golden = true,
            "--emit" => emit_dir = Some(take("--emit")?),
            "--golden" => golden = Some(take("--golden")?),
            "--filter" => filter = Some(take("--filter")?),
            "--help" | "-h" => return Err(CliError::Help),
            other => return Err(bad(format!("unknown corpus argument `{other}`"))),
        }
    }
    let filter = filter
        .map(|f| {
            kremlin::corpus::class_from_name(&f)
                .ok_or_else(|| bad(format!("unknown scenario class `{f}`")))
        })
        .transpose()?;
    let specs: Vec<_> = kremlin_workloads::scenario::corpus()
        .into_iter()
        .filter(|s| filter.is_none_or(|c| s.class == c))
        .collect();
    if emit_golden {
        print!("{}", kremlin::corpus::golden_json());
        return Ok(());
    }
    if let Some(dir) = &emit_dir {
        std::fs::create_dir_all(dir).map_err(|e| fail(format!("{dir}: {e}")))?;
        for spec in &specs {
            let path = format!("{dir}/{}", spec.file_name());
            std::fs::write(&path, spec.lower()).map_err(|e| fail(format!("{path}: {e}")))?;
        }
        eprintln!("[kremlin] {} scenario sources written to {dir}", specs.len());
    }
    if list {
        println!(
            "{:<28} {:<20} {:<9} {:<21} {:>14}",
            "scenario", "class", "hot", "verdict", "self-p band"
        );
        for spec in &specs {
            let e = spec.expectation();
            println!(
                "{:<28} {:<20} {:<9} {:<21} [{:>4.1}, {:>4.1}]",
                spec.name(),
                spec.class.name(),
                e.hot,
                e.verdict,
                e.self_p.0,
                e.self_p.1
            );
        }
        return Ok(());
    }
    let mut reports = Vec::with_capacity(specs.len());
    for spec in &specs {
        reports.push(kremlin::corpus::run_oracles(spec).map_err(fail)?);
    }
    let mut disagreements = 0usize;
    println!(
        "{:<28} {:<21} {:>7} {:>14} {:>7} {:>6}",
        "scenario", "static verdict", "self-p", "band", "replay", "oracle"
    );
    for r in &reports {
        disagreements += r.disagreements.len();
        println!(
            "{:<28} {:<21} {:>7.2} [{:>4.1}, {:>4.1}] {:>7} {:>6}",
            r.spec.name(),
            r.static_verdict,
            r.self_p,
            r.band.0,
            r.band.1,
            if r.replay_identical { "ok" } else { "DIFF" },
            if r.clean() { "agree" } else { "FAIL" }
        );
        for d in &r.disagreements {
            println!("    {} {}", d.code, d.detail);
        }
    }
    let mut failures: Vec<String> = Vec::new();
    if let Some(path) = &golden {
        if filter.is_some() {
            return Err(bad("--golden gates the full grid; drop --filter".into()));
        }
        let text = std::fs::read_to_string(path).map_err(|e| fail(format!("{path}: {e}")))?;
        failures = kremlin::corpus::gate_against_golden(&text, &reports);
        for f in &failures {
            eprintln!("[corpus-gate] {f}");
        }
    }
    if disagreements > 0 || !failures.is_empty() {
        return Err(fail(format!(
            "corpus check failed: {disagreements} oracle disagreement(s), {} golden-gate \
             failure(s)",
            failures.len()
        )));
    }
    println!(
        "\ncorpus check: {} scenarios, four oracles agree on all{}",
        reports.len(),
        if golden.is_some() { ", golden gate clean" } else { "" }
    );
    Ok(())
}

/// `kremlin fuzz --seeds N [--seed S] [--dump DIR]`: sample N random
/// scenario specs, cross-check the four oracles on each, shrink any
/// disagreement to a minimal repro, and (with `--dump`) write the repro
/// source + oracle report per finding. Findings exit 1.
fn cmd_fuzz(args: &[String]) -> Result<(), CliError> {
    let bad = |msg: String| CliError::Usage(format!("{msg}\n{}", usage()));
    let (mut seeds, mut base_seed, mut dump) = (None, 2026u64, None);
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        i += 1;
        let mut take = |what: &str| -> Result<String, CliError> {
            let v = args.get(i).cloned().ok_or_else(|| bad(format!("{what} requires a value")))?;
            i += 1;
            Ok(v)
        };
        if let Some(v) = a.strip_prefix("--seeds=") {
            seeds = Some(v.parse().map_err(|_| bad(format!("bad --seeds value `{v}`")))?);
        } else if a == "--seeds" {
            let v = take("--seeds")?;
            seeds = Some(v.parse().map_err(|_| bad(format!("bad --seeds value `{v}`")))?);
        } else if let Some(v) = a.strip_prefix("--seed=") {
            base_seed = v.parse().map_err(|_| bad(format!("bad --seed value `{v}`")))?;
        } else if a == "--seed" {
            let v = take("--seed")?;
            base_seed = v.parse().map_err(|_| bad(format!("bad --seed value `{v}`")))?;
        } else if let Some(v) = a.strip_prefix("--dump=") {
            dump = Some(v.to_owned());
        } else if a == "--dump" {
            dump = Some(take("--dump")?);
        } else if a == "--help" || a == "-h" {
            return Err(CliError::Help);
        } else {
            return Err(bad(format!("unknown fuzz argument `{a}`")));
        }
    }
    let Some(seeds) = seeds else {
        return Err(bad("fuzz requires --seeds N".into()));
    };
    if seeds == 0 {
        return Err(bad("--seeds must be at least 1".into()));
    }
    let outcome = kremlin::corpus::fuzz(base_seed, seeds);
    let classes: Vec<String> = outcome.by_class.iter().map(|(c, n)| format!("{c}:{n}")).collect();
    eprintln!(
        "[kremlin] fuzzed {} structure specs (base seed {base_seed}) — {}",
        outcome.checked,
        classes.join(" ")
    );
    if let Some(dir) = &dump {
        std::fs::create_dir_all(dir).map_err(|e| fail(format!("{dir}: {e}")))?;
        for f in &outcome.findings {
            let stem = format!("{dir}/finding-{:016x}", f.seed);
            std::fs::write(format!("{stem}.kc"), &f.report.source)
                .map_err(|e| fail(format!("{stem}.kc: {e}")))?;
            let mut report = format!(
                "seed: {:#018x}\noriginal: {}\nshrunk: {}\nstatic verdict: {}\nself-parallelism: \
                 {:.3}\nexpected: {} in [{:.1}, {:.1}]\nreplay identical: {}\n",
                f.seed,
                f.original,
                f.report.spec,
                f.report.static_verdict,
                f.report.self_p,
                f.report.expected_verdict,
                f.report.band.0,
                f.report.band.1,
                f.report.replay_identical
            );
            for d in &f.report.disagreements {
                report.push_str(&format!("{} {}\n", d.code, d.detail));
            }
            std::fs::write(format!("{stem}.report.txt"), report)
                .map_err(|e| fail(format!("{stem}.report.txt: {e}")))?;
        }
        if !outcome.findings.is_empty() {
            eprintln!("[kremlin] {} repro(s) written to {dir}", outcome.findings.len());
        }
    }
    for f in &outcome.findings {
        println!("finding (seed {:#018x}): {} shrunk to {}", f.seed, f.original, f.report.spec);
        for d in &f.report.disagreements {
            println!("    {} {}", d.code, d.detail);
        }
    }
    if !outcome.findings.is_empty() {
        return Err(fail(format!(
            "structure fuzzing found {} oracle disagreement(s) in {} specs",
            outcome.findings.len(),
            outcome.checked
        )));
    }
    println!("fuzz: {} specs, four oracles agree on all", outcome.checked);
    Ok(())
}

/// `kremlin serve [--port=N] [--workers=N] [--queue=N] [--cache-mb=N]
/// [--jobs=N]`: run the profiling pipeline as a long-lived HTTP service.
/// One engine — and thus one content-addressed artifact cache — is
/// shared by all requests, so the second submission of a hot module
/// skips compile, record, and decode.
fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let bad = |msg: String| CliError::Usage(format!("{msg}\n{}", usage()));
    let mut config = ServeConfig::default();
    let mut cache_mb: usize = 256;
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        i += 1;
        let mut value = |flag: &str, inline: Option<&str>| -> Result<String, CliError> {
            if let Some(v) = inline {
                return Ok(v.to_owned());
            }
            let v = args.get(i).cloned().ok_or_else(|| bad(format!("{flag} requires a value")))?;
            i += 1;
            Ok(v)
        };
        let parse_num = |flag: &str, v: &str| -> Result<usize, CliError> {
            v.parse().map_err(|_| bad(format!("bad {flag} value `{v}`")))
        };
        if a == "--help" || a == "-h" {
            return Err(CliError::Help);
        } else if a == "--port" || a.starts_with("--port=") {
            let v = value("--port", a.strip_prefix("--port="))?;
            config.port = v.parse().map_err(|_| bad(format!("bad --port value `{v}`")))?;
        } else if a == "--workers" || a.starts_with("--workers=") {
            let v = value("--workers", a.strip_prefix("--workers="))?;
            config.workers = parse_num("--workers", &v)?;
            if config.workers == 0 {
                return Err(bad("--workers must be at least 1".into()));
            }
        } else if a == "--queue" || a.starts_with("--queue=") {
            let v = value("--queue", a.strip_prefix("--queue="))?;
            config.queue_depth = parse_num("--queue", &v)?;
            if config.queue_depth == 0 {
                return Err(bad("--queue must be at least 1".into()));
            }
        } else if a == "--cache-mb" || a.starts_with("--cache-mb=") {
            let v = value("--cache-mb", a.strip_prefix("--cache-mb="))?;
            cache_mb = parse_num("--cache-mb", &v)?;
        } else if a == "--jobs" || a.starts_with("--jobs=") {
            let v = value("--jobs", a.strip_prefix("--jobs="))?;
            config.default_jobs = parse_num("--jobs", &v)?;
            if config.default_jobs == 0 {
                return Err(bad("--jobs must be at least 1".into()));
            }
        } else {
            return Err(bad(format!("unknown serve argument `{a}`")));
        }
    }
    let engine =
        Arc::new(Engine::new(EngineConfig { tool: Kremlin::new(), cache_bytes: cache_mb << 20 }));
    let server = Server::start(config, engine).map_err(fail)?;
    eprintln!(
        "[kremlin] serving kremlin-serve-v1 on http://{} ({} workers, queue {}, cache {} MiB)",
        server.addr(),
        config.workers,
        config.queue_depth,
        cache_mb
    );
    server.join();
    Ok(())
}

/// `kremlin --metrics-diff A.json B.json`: per-counter deltas between two
/// saved `kremlin-metrics-v1` snapshots.
fn cmd_metrics_diff(a: &str, b: &str) -> Result<(), CliError> {
    let load = |path: &str| -> Result<kremlin::obs::Snapshot, CliError> {
        let text = std::fs::read_to_string(path).map_err(|e| fail(format!("{path}: {e}")))?;
        // Snapshots are the last stdout line of `--metrics=json` runs, so
        // accept a file with leading plan output before the JSON object.
        let line = text.lines().rfind(|l| !l.trim().is_empty()).unwrap_or("");
        kremlin::obs::Snapshot::from_json(line).map_err(|e| fail(format!("{path}: {e}")))
    };
    let base = load(a)?;
    let fresh = load(b)?;
    print!("{}", base.render_diff(&fresh));
    Ok(())
}

fn source_name(input: &str) -> String {
    std::path::Path::new(input)
        .file_name()
        .map(|f| f.to_string_lossy().into_owned())
        .unwrap_or_else(|| input.to_owned())
}

fn run() -> Result<(), CliError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return Err(CliError::Usage(usage().to_owned()));
    }
    match args[0].as_str() {
        "analyze" => return cmd_analyze(&args[1..]),
        "record" => return cmd_record(&args[1..]),
        "replay" => return cmd_replay(&args[1..]),
        "corpus" => return cmd_corpus(&args[1..]),
        "fuzz" => return cmd_fuzz(&args[1..]),
        "serve" => return cmd_serve(&args[1..]),
        _ => {}
    }
    let o = parse_args(&args)?;
    if let Some((a, b)) = &o.metrics_diff {
        return cmd_metrics_diff(a, b);
    }
    let planner = personality(&o.personality)?;
    if o.metrics != MetricsMode::Off {
        kremlin::obs::set_metrics(true);
    }
    if o.trace.is_some() {
        kremlin::obs::set_tracing(true);
    }

    // Plan from a previously saved profile: no execution needed.
    if let Some(path) = &o.load_profile {
        let text = std::fs::read_to_string(path).map_err(|e| fail(format!("{path}: {e}")))?;
        let saved = load_profile(&text).map_err(fail)?;
        let exclude = resolve_excludes(&o.exclude, |l| saved.regions.by_label(l))?;
        let plan = planner.plan(&saved.profile, &exclude);
        print!("{plan}");
        if o.evaluate {
            let sim = kremlin::Simulator::new(
                &saved.profile,
                &saved.regions,
                kremlin::MachineModel::default(),
            );
            let eval = sim.evaluate(&plan.regions());
            println!(
                "\nestimated: {:.2}x speedup on {} cores (serial {:.0} -> {:.0})",
                eval.speedup, eval.best_cores, eval.serial_time, eval.parallel_time
            );
        }
        return emit_observability(&o);
    }

    let input = o.input.as_deref().ok_or_else(|| CliError::Usage(usage().to_owned()))?;
    let src = std::fs::read_to_string(input).map_err(|e| fail(format!("{input}: {e}")))?;
    let name = source_name(input);

    if o.dump_ir {
        let unit = kremlin::ir::compile(&src, &name).map_err(fail)?;
        print!("{}", kremlin::ir::printer::print_module(&unit.module));
        return emit_observability(&o);
    }

    let mut tool = Kremlin::new();
    if let Some(w) = o.window {
        tool.hcpa.window = w;
    }
    tool.hcpa.break_carried_deps = o.break_deps;

    if o.jobs > 1 && o.runs > 1 {
        return Err(CliError::Usage(format!("--jobs and --runs cannot be combined\n{}", usage())));
    }
    if o.save_trace.is_some() && o.runs > 1 {
        return Err(CliError::Usage(format!(
            "--save-trace and --runs cannot be combined\n{}",
            usage()
        )));
    }
    let analysis = if let Some(path) = &o.save_trace {
        // Record-once/replay path: the profile below comes from replaying
        // the very trace being saved, so the file provably reproduces it.
        let (analysis, trace) = tool.analyze_recorded(&src, &name, o.jobs).map_err(fail)?;
        save_trace(Path::new(path), &trace).map_err(fail)?;
        kremlin::obs::gauge!("trace.file.bytes").set(trace.to_bytes().len() as u64);
        eprintln!(
            "[kremlin] trace saved to {path} ({} events, {} payload bytes)",
            trace.events(),
            trace.encoded_len()
        );
        Ok(analysis)
    } else if o.runs > 1 {
        tool.analyze_runs(&src, &name, o.runs)
    } else {
        // The common one-shot path is a thin client of the session
        // engine: same staged pipeline (and cache keys) the `serve`
        // daemon uses, bit-identical profile to the monolithic path.
        Engine::with_tool(tool).analyze_source(&src, &name, o.jobs).map(|r| r.analysis)
    }
    .map_err(fail)?;
    maybe_verify(&analysis.unit.module, o.verify_ir)?;

    eprintln!(
        "[kremlin] exit={} instrs={} dynamic-regions={} max-depth={}",
        analysis.outcome.run.exit,
        analysis.outcome.run.instrs_executed,
        analysis.outcome.stats.dynamic_regions,
        analysis.outcome.stats.max_depth
    );

    if let Some(path) = &o.save_profile {
        let text = save_profile(
            &name,
            &analysis.unit.module.regions,
            &analysis.unit.reduction_loops(),
            analysis.profile(),
        );
        std::fs::write(path, text).map_err(|e| fail(format!("{path}: {e}")))?;
        eprintln!("[kremlin] profile saved to {path}");
    }

    if o.regions {
        println!(
            "{:<24} {:>6} {:>10} {:>9} {:>9} {:>8} {:>7} {:>6}",
            "region", "kind", "instances", "cov.(%)", "self-p", "total-p", "iters", "doall"
        );
        for s in analysis.profile().iter() {
            println!(
                "{:<24} {:>6} {:>10} {:>9.2} {:>9.1} {:>8.1} {:>7.1} {:>6}",
                s.label,
                s.kind.to_string(),
                s.instances,
                s.coverage * 100.0,
                s.self_p,
                s.total_p,
                s.avg_children,
                if s.is_doall { "yes" } else { "no" }
            );
        }
        return emit_observability(&o);
    }

    if o.report {
        print!(
            "{}",
            kremlin::report::render(
                &analysis,
                planner.as_ref(),
                kremlin::report::ReportOptions::default()
            )
        );
        return emit_observability(&o);
    }

    let exclude = resolve_excludes(&o.exclude, |l| analysis.unit.module.regions.by_label(l))?;
    let plan = analysis.plan_with(planner.as_ref(), &exclude);
    print!("{plan}");

    if o.audit_plan {
        let diags = kremlin::diag::audit_plan(&analysis, &plan);
        if diags.is_empty() {
            println!("\nplan audit: clean (every planned region statically consistent)");
        } else {
            println!("\nplan audit:");
            print!("{}", kremlin::diag::render(&name, &diags));
        }
        let counts = kremlin::diag::count_severities(&diags);
        if counts.errors > 0 {
            emit_observability(&o)?;
            return Err(fail(format!(
                "plan audit found {} hazard(s): dynamic DOALL contradicted by a statically \
                 proven dependence",
                counts.errors
            )));
        }
    }

    if o.evaluate {
        let eval = analysis.evaluate(&plan);
        println!(
            "\nestimated: {:.2}x speedup on {} cores (serial {:.0} -> {:.0})",
            eval.speedup, eval.best_cores, eval.serial_time, eval.parallel_time
        );
    }
    emit_observability(&o)
}

fn resolve_excludes(
    labels: &[String],
    lookup: impl Fn(&str) -> Option<kremlin::RegionId>,
) -> Result<HashSet<kremlin::RegionId>, CliError> {
    labels
        .iter()
        .map(|l| lookup(l).ok_or_else(|| fail(format!("unknown region label `{l}` in --exclude"))))
        .collect()
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Help) => {
            println!("{}", usage());
            ExitCode::SUCCESS
        }
        Err(CliError::Usage(msg)) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
        Err(CliError::Failure(msg)) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
