//! The `kremlin` command-line tool — the paper's Figure 3 user interface.
//!
//! ```text
//! kremlin <program.kc> [options]
//! kremlin --load-profile=<path> [plan options]   plan from a saved profile
//! kremlin analyze <program.kc> [--json]      static dependence lint, no run
//! kremlin record <program.kc> [-o FILE]      record an execution trace
//! kremlin replay <trace> [options]           profile a recorded trace
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
//!   --window=<n>                  HCPA depth window (§4.2's flag), 1..=256
//!   --no-break-deps               disable induction/reduction breaking
//!   --save-profile=<path>         write the parallelism profile
//!   --load-profile=<path>         plan from a saved profile (no program, no run)
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
//! Every value flag takes `--flag=V` or `--flag V` (`--metrics` takes
//! its value inline only). `replay` takes the options above except
//! `--runs`, `--save-trace` and `--load-profile`; `--load-profile` takes
//! only the personality, `--exclude`, `--regions`, `--evaluate` and the
//! observability flags. A flag the input cannot honour is a usage error,
//! and so is a flag the output would drop: at most one of `--dump-ir`,
//! `--regions` and `--report`; none of them with `--exclude`,
//! `--evaluate` or `--audit-plan`; `--personality` not with `--regions`
//! or `--dump-ir`; `--save-trace`, `--save-profile` and `--verify-ir`
//! not with `--dump-ir`; and `--save-profile` not with `--runs` above 1.
//!
//! Exit codes: 0 success, 1 pipeline failure (I/O, compile, runtime,
//! corrupt trace), 2 usage error.
//!
//! Every mode that ends in a plan gets its profile from one
//! [`kremlin_engine::Engine`] (the `--runs` aggregation excepted) and
//! prints through one render step; `kremlin serve` exposes the same
//! engine — with its content-addressed artifact cache shared across
//! requests — over HTTP.

use kremlin::ir::RegionTable;
use kremlin::persist::{load_profile, load_trace, save_profile, save_trace};
use kremlin::{Analysis, Kremlin, MachineModel, ParallelismProfile, Personality, Simulator, Trace};
use kremlin_engine::serve::{ServeConfig, Server};
use kremlin_engine::{Engine, EngineConfig};
use std::collections::HashSet;
use std::fmt::Display;
use std::ops::RangeInclusive;
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;
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
fn fail(e: impl Display) -> CliError {
    CliError::Failure(e.to_string())
}

/// A usage error: `msg`, then the usage text.
fn usage_error(msg: impl Display) -> CliError {
    CliError::Usage(format!("{msg}\n{}", usage()))
}

fn usage() -> &'static str {
    "usage: kremlin <program.kc> [--personality=openmp|cilk|work-only|self-parallelism]\n\
     \x20              [--exclude=l1,l2] [--regions] [--evaluate] [--runs=N]\n\
     \x20              [--window=N (1..=256)] [--no-break-deps]\n\
     \x20              [--save-profile=PATH] [--save-trace=PATH]\n\
     \x20              [--dump-ir] [--report] [--audit-plan] [--verify-ir]\n\
     \x20              [--metrics[=json|pretty]] [--trace FILE]\n\
     \x20      kremlin --load-profile=PATH [--personality=...] [--exclude=l1,l2]\n\
     \x20              [--regions] [--evaluate] [--metrics[=json|pretty]] [--trace FILE]\n\
     \x20      kremlin analyze <program.kc> [--json] [--verify-ir]\n\
     \x20      kremlin record <program.kc> [-o FILE] [--metrics[=json|pretty]]\n\
     \x20      kremlin replay <trace-file> [the first form's options except\n\
     \x20              --runs and --save-trace]\n\
     \x20      kremlin corpus [--list] [--emit-golden] [--emit DIR] [--golden FILE]\n\
     \x20              [--filter CLASS]\n\
     \x20      kremlin fuzz --seeds N [--seed S] [--dump DIR]\n\
     \x20      kremlin serve [--port=N] [--workers=N] [--queue=N] [--cache-mb=N]\n\
     \x20      kremlin --metrics-diff A.json B.json\n\
     every value flag takes --flag=V or --flag V"
}

/// One command-line argument as [`Flags`] reads it.
enum Arg<'a> {
    /// `--flag`, `--flag=V` or `-o`, without the `=V`.
    Flag(&'a str),
    /// Anything not starting with `-`.
    Positional(&'a str),
}

/// The one flag reader every mode uses. A mode matches the [`Arg`]s it
/// knows and hands the rest to [`Flags::unknown`]; a flag that takes a
/// value asks for it with [`Flags::value`], which accepts `--flag=V` and
/// `--flag V` alike. `--help`/`-h` anywhere ends the parse, and `=V` on
/// a flag that takes no value is a usage error.
struct Flags<'a> {
    args: std::slice::Iter<'a, String>,
    /// The flag last returned by [`Flags::next`].
    flag: &'a str,
    /// Its inline `=V`, until the mode asks for it.
    inline: Option<&'a str>,
}

impl<'a> Flags<'a> {
    fn new(args: &'a [String]) -> Self {
        Flags { args: args.iter(), flag: "", inline: None }
    }

    fn next(&mut self) -> Result<Option<Arg<'a>>, CliError> {
        if let Some(v) = self.inline.take() {
            return Err(usage_error(format!("{} takes no value (got `{v}`)", self.flag)));
        }
        let Some(a) = self.args.next().map(String::as_str) else { return Ok(None) };
        if a == "--help" || a == "-h" {
            return Err(CliError::Help);
        }
        if !a.starts_with('-') {
            return Ok(Some(Arg::Positional(a)));
        }
        (self.flag, self.inline) = match a.split_once('=') {
            Some((flag, v)) => (flag, Some(v)),
            None => (a, None),
        };
        Ok(Some(Arg::Flag(self.flag)))
    }

    /// The current flag's value: its `=V`, or else the next argument.
    fn value(&mut self) -> Result<&'a str, CliError> {
        self.inline
            .take()
            .or_else(|| self.args.next().map(String::as_str))
            .ok_or_else(|| usage_error(format!("{} requires a value", self.flag)))
    }

    /// The current flag's value as a number of at least `min`.
    fn number<T: FromStr + PartialOrd + Display>(&mut self, min: T) -> Result<T, CliError> {
        let v = self.value()?;
        v.parse().ok().filter(|n| *n >= min).ok_or_else(|| {
            usage_error(format!("bad {} value `{v}` (expected a whole number >= {min})", self.flag))
        })
    }

    /// The current flag's value as a number in `range`.
    fn number_in<T: FromStr + PartialOrd + Display>(
        &mut self,
        range: RangeInclusive<T>,
    ) -> Result<T, CliError> {
        let v = self.value()?;
        v.parse().ok().filter(|n| range.contains(n)).ok_or_else(|| {
            let (lo, hi) = (range.start(), range.end());
            usage_error(format!(
                "bad {} value `{v}` (expected a whole number in {lo}..={hi})",
                self.flag
            ))
        })
    }

    /// `--metrics` (pretty), `--metrics=pretty` or `--metrics=json`. The
    /// value is inline only, so a following program stays positional.
    fn metrics(&mut self) -> Result<MetricsMode, CliError> {
        match self.inline.take() {
            None | Some("pretty") => Ok(MetricsMode::Pretty),
            Some("json") => Ok(MetricsMode::Json),
            Some(v) => {
                Err(usage_error(format!("bad --metrics value `{v}` (expected json or pretty)")))
            }
        }
    }

    /// The usage error for an argument the mode does not take.
    fn unknown(&self, arg: Arg) -> CliError {
        match arg {
            Arg::Flag(flag) => usage_error(format!("unknown option `{flag}`")),
            Arg::Positional(p) => usage_error(format!("unexpected argument `{p}`")),
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum MetricsMode {
    Off,
    Pretty,
    Json,
}

/// The options of the main mode and `replay`.
struct Options {
    input: Option<String>,
    /// Every flag as given, for [`plan_input`]'s check.
    given: Vec<String>,
    personality: String,
    exclude: Vec<String>,
    regions: bool,
    evaluate: bool,
    runs: usize,
    window: Option<usize>,
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

fn parse_args(args: &[String]) -> Result<Options, CliError> {
    let mut o = Options {
        input: None,
        given: Vec::new(),
        personality: "openmp".into(),
        exclude: Vec::new(),
        regions: false,
        evaluate: false,
        runs: 1,
        window: None,
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
    let mut r = Flags::new(args);
    while let Some(arg) = r.next()? {
        if let Arg::Flag(flag) = arg {
            o.given.push(flag.to_owned());
        }
        match arg {
            Arg::Positional(p) if o.input.is_none() => o.input = Some(p.to_owned()),
            Arg::Flag("--personality") => o.personality = r.value()?.to_owned(),
            Arg::Flag("--exclude") => {
                o.exclude.extend(r.value()?.split(',').map(|s| s.trim().to_owned()));
            }
            Arg::Flag("--regions") => o.regions = true,
            Arg::Flag("--evaluate") => o.evaluate = true,
            Arg::Flag("--runs") => o.runs = r.number(1)?,
            Arg::Flag("--window") => o.window = Some(r.number_in(WINDOW)?),
            Arg::Flag("--no-break-deps") => o.break_deps = false,
            Arg::Flag("--save-profile") => o.save_profile = Some(r.value()?.to_owned()),
            Arg::Flag("--load-profile") => o.load_profile = Some(r.value()?.to_owned()),
            Arg::Flag("--save-trace") => o.save_trace = Some(r.value()?.to_owned()),
            Arg::Flag("--metrics-diff") => {
                o.metrics_diff = Some((r.value()?.to_owned(), r.value()?.to_owned()));
            }
            Arg::Flag("--dump-ir") => o.dump_ir = true,
            Arg::Flag("--report") => o.report = true,
            Arg::Flag("--audit-plan") => o.audit_plan = true,
            Arg::Flag("--verify-ir") => o.verify_ir = true,
            Arg::Flag("--metrics") => o.metrics = r.metrics()?,
            Arg::Flag("--trace") => o.trace = Some(r.value()?.to_owned()),
            arg => return Err(r.unknown(arg)),
        }
    }
    Ok(o)
}

/// What a plan is computed from.
enum Input<'a> {
    /// A mini-C program to compile, run and profile.
    Program(&'a str),
    /// A recorded `.ktrace` to replay (`kremlin replay`).
    Trace(&'a str),
    /// A saved profile to plan from directly (`--load-profile`).
    Profile(&'a str),
}

/// The `--window` values the CLI accepts. Window 0 would track no depth
/// at all and plan nothing. The window sizes the control-dependence stack, the
/// scratch buffer and every shadow run, so a huge one only exhausts
/// memory: 256 is more than ten times the default of 24, and no workload
/// nests deeper than 8.
const WINDOW: RangeInclusive<usize> = 1..=256;

/// Flags that need the program to run.
const RUN_FLAGS: [&str; 4] = ["--runs", "--window", "--no-break-deps", "--save-trace"];

/// Flags that need the compiled program. Re-saving a loaded profile
/// would only copy the file.
const PROGRAM_FLAGS: [&str; 5] =
    ["--report", "--audit-plan", "--dump-ir", "--verify-ir", "--save-profile"];

/// Output modes other than the plan; at most one is taken.
const OUTPUT_MODES: [&str; 3] = ["--dump-ir", "--regions", "--report"];

/// Resolves what `o` plans from, and rejects, in this one place, every
/// flag that input or the chosen output cannot honour.
fn plan_input(o: &Options, replay: bool) -> Result<Input<'_>, CliError> {
    let reject =
        |input: &str, flags: &[&str]| match o.given.iter().find(|f| flags.contains(&f.as_str())) {
            Some(flag) => Err(usage_error(format!("{flag} cannot be used with {input}"))),
            None => Ok(()),
        };
    // Rejects a given flag of `a` beside a different given flag of `b`.
    let conflict = |a: &[&str], b: &[&str]| {
        for flag in o.given.iter().filter(|f| a.contains(&f.as_str())) {
            if let Some(other) = o.given.iter().find(|g| *g != flag && b.contains(&g.as_str())) {
                return Err(usage_error(format!("{flag} cannot be used with {other}")));
            }
        }
        Ok(())
    };
    conflict(&OUTPUT_MODES, &OUTPUT_MODES)?;
    conflict(&["--exclude", "--evaluate", "--audit-plan"], &OUTPUT_MODES)?;
    conflict(&["--personality"], &["--regions", "--dump-ir"])?;
    conflict(&["--save-trace", "--save-profile", "--verify-ir"], &["--dump-ir"])?;
    if o.runs > 1 && o.save_profile.is_some() {
        // The merged profile keeps one run's dictionary.
        return Err(usage_error(format!("--save-profile cannot be used with --runs={}", o.runs)));
    }
    if replay {
        reject("replay", &["--runs", "--save-trace", "--load-profile", "--metrics-diff"])?;
        let trace = o.input.as_deref();
        return trace.map(Input::Trace).ok_or_else(|| usage_error("replay takes one trace file"));
    }
    if let Some(path) = &o.load_profile {
        if let Some(program) = &o.input {
            return Err(usage_error(format!(
                "--load-profile plans without a program (`{program}`)"
            )));
        }
        reject("--load-profile", &RUN_FLAGS)?;
        reject("--load-profile", &PROGRAM_FLAGS)?;
        return Ok(Input::Profile(path));
    }
    if o.runs > 1 {
        reject("--runs", &["--save-trace"])?;
    }
    o.input.as_deref().map(Input::Program).ok_or_else(|| CliError::Usage(usage().to_owned()))
}

/// Emits `--metrics` / `--trace` output after the pipeline has run.
fn emit_observability(metrics: MetricsMode, trace: Option<&str>) -> Result<(), CliError> {
    match metrics {
        MetricsMode::Off => {}
        MetricsMode::Pretty => print!("{}", kremlin::obs::snapshot().render_pretty()),
        // One object as the last stdout line, so scripts can parse it.
        MetricsMode::Json => println!("{}", kremlin::obs::snapshot().to_json()),
    }
    if let Some(path) = trace {
        let events = kremlin::obs::take_trace();
        let jsonl = kremlin::obs::trace_to_jsonl(&events);
        std::fs::write(path, jsonl).map_err(|e| fail(format!("{path}: {e}")))?;
        eprintln!("[kremlin] {} spans written to {path}", events.len());
    }
    Ok(())
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
    let (mut input, mut json, mut verify_ir) = (None, false, false);
    let mut r = Flags::new(args);
    while let Some(arg) = r.next()? {
        match arg {
            Arg::Positional(p) if input.is_none() => input = Some(p),
            Arg::Flag("--json") => json = true,
            Arg::Flag("--verify-ir") => verify_ir = true,
            arg => return Err(r.unknown(arg)),
        }
    }
    let input = input.ok_or_else(|| usage_error("analyze takes exactly one program file"))?;
    let src = read_source(input)?;
    let name = source_name(input);
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

/// Compiles `src` through `engine`, records one execution with the
/// source embedded, and saves the trace to `out`: `kremlin record` and
/// `--save-trace`.
fn record_to(engine: &Engine, src: &str, name: &str, out: &str) -> Result<Trace, CliError> {
    let (unit, _) = engine.compile(src, name).map_err(fail)?;
    let trace = engine.config().tool.record(&unit, src).map_err(fail)?;
    let bytes = save_trace(Path::new(out), &trace).map_err(fail)?;
    kremlin::obs::gauge!("trace.file.bytes").set(bytes as u64);
    eprintln!(
        "[kremlin] trace saved to {out} ({} events, {} payload bytes)",
        trace.events(),
        trace.encoded_len()
    );
    Ok(trace)
}

/// `kremlin record <program.kc> [-o FILE]`: execute once, capture the
/// event stream, and write a self-contained trace file.
fn cmd_record(args: &[String]) -> Result<(), CliError> {
    let (mut input, mut out, mut metrics) = (None, None, MetricsMode::Off);
    let mut r = Flags::new(args);
    while let Some(arg) = r.next()? {
        match arg {
            Arg::Positional(p) if input.is_none() => input = Some(p),
            Arg::Flag("-o" | "--out") => out = Some(r.value()?.to_owned()),
            Arg::Flag("--metrics") => metrics = r.metrics()?,
            arg => return Err(r.unknown(arg)),
        }
    }
    let input = input.ok_or_else(|| usage_error("record takes exactly one program file"))?;
    if metrics != MetricsMode::Off {
        kremlin::obs::set_metrics(true);
    }
    let out = out.unwrap_or_else(|| format!("{input}.ktrace"));
    let src = read_source(input)?;
    let trace = record_to(&Engine::with_tool(Kremlin::new()), &src, &source_name(input), &out)?;
    print!("{}", kremlin::report::render_trace_info(&trace));
    emit_observability(metrics, None)
}

/// The main mode and `kremlin replay`: profile the input through one
/// engine, then render. A saved profile skips straight to rendering.
fn cmd_plan(o: &Options, replay: bool) -> Result<(), CliError> {
    let input = plan_input(o, replay)?;
    let planner = kremlin::planner::personality(&o.personality).map_err(usage_error)?;
    if o.metrics != MetricsMode::Off {
        kremlin::obs::set_metrics(true);
    }
    if o.trace.is_some() {
        kremlin::obs::set_tracing(true);
    }
    let rendered = plan(o, input, planner.as_ref());
    emit_observability(o.metrics, o.trace.as_deref())?;
    rendered
}

fn plan(o: &Options, input: Input, planner: &dyn Personality) -> Result<(), CliError> {
    let replaying = matches!(input, Input::Trace(_));
    let (trace, src, name) = match input {
        Input::Profile(path) => {
            let saved = load_profile(&read_source(path)?).map_err(fail)?;
            return render(o, planner, &saved.profile, &saved.regions, None);
        }
        Input::Trace(path) => {
            let trace = load_trace(Path::new(path)).map_err(fail)?;
            if trace.source.is_empty() {
                return Err(fail(format!("{path}: trace has no embedded source to recompile")));
            }
            let (src, name) = (trace.source.clone(), trace.source_name.clone());
            (Some(trace), src, name)
        }
        Input::Program(path) => (None, read_source(path)?, source_name(path)),
    };

    let mut tool = Kremlin::new();
    if let Some(w) = o.window {
        tool.hcpa.window = w;
    }
    tool.hcpa.break_carried_deps = o.break_deps;
    let engine = Engine::with_tool(tool);
    if o.dump_ir {
        let (unit, _) = engine.compile(&src, &name).map_err(fail)?;
        print!("{}", kremlin::ir::printer::print_module(&unit.module));
        return Ok(());
    }
    // With --save-trace the profile comes from replaying the very trace
    // being saved, so the file provably reproduces the printed plan.
    let trace = match (trace, &o.save_trace) {
        (None, Some(out)) => Some(record_to(&engine, &src, &name, out)?),
        (trace, _) => trace,
    };
    let analysis = match &trace {
        Some(trace) => engine.analyze_trace(trace).map(|r| r.analysis),
        None if o.runs > 1 => tool.analyze_runs(&src, &name, o.runs),
        None => engine.analyze_source(&src, &name, 1).map(|r| r.analysis),
    }
    .map_err(fail)?;
    maybe_verify(&analysis.unit.module, o.verify_ir)?;

    let replayed = match &trace {
        Some(trace) if replaying => format!("replayed {} events: ", trace.events()),
        _ => String::new(),
    };
    eprintln!(
        "[kremlin] {replayed}exit={} instrs={} dynamic-regions={} max-depth={}",
        analysis.outcome.run.exit,
        analysis.outcome.run.instrs_executed,
        analysis.outcome.stats.dynamic_regions,
        analysis.outcome.stats.max_depth
    );
    if let Some(path) = &o.save_profile {
        let unit = &analysis.unit;
        let text =
            save_profile(&name, &unit.module.regions, &unit.reduction_loops(), analysis.profile());
        std::fs::write(path, text).map_err(|e| fail(format!("{path}: {e}")))?;
        eprintln!("[kremlin] profile saved to {path}");
    }
    render(o, planner, analysis.profile(), &analysis.unit.module.regions, Some(&analysis))
}

/// The one render step of every mode that ends in a plan: the region
/// table, the report, or the plan with its audit and estimate.
/// `analysis` is `None` for a saved profile, whose input rejects the
/// flags that need it ([`plan_input`]).
fn render(
    o: &Options,
    planner: &dyn Personality,
    profile: &ParallelismProfile,
    regions: &RegionTable,
    analysis: Option<&Analysis>,
) -> Result<(), CliError> {
    if o.regions {
        println!(
            "{:<24} {:>6} {:>10} {:>9} {:>9} {:>8} {:>7} {:>6}",
            "region", "kind", "instances", "cov.(%)", "self-p", "total-p", "iters", "doall"
        );
        for s in profile.iter() {
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
        return Ok(());
    }
    if o.report {
        let analysis = analysis.expect("plan_input rejects --report without a program");
        let options = kremlin::report::ReportOptions::default();
        print!("{}", kremlin::report::render(analysis, planner, options));
        return Ok(());
    }

    let exclude = o
        .exclude
        .iter()
        .map(|l| {
            regions
                .by_label(l)
                .ok_or_else(|| fail(format!("unknown region label `{l}` in --exclude")))
        })
        .collect::<Result<HashSet<_>, _>>()?;
    let mut plan = planner.plan(profile, &exclude);
    if let Some(analysis) = analysis {
        plan.annotate(&analysis.unit.depend);
    }
    print!("{plan}");

    if o.audit_plan {
        let analysis = analysis.expect("plan_input rejects --audit-plan without a program");
        let diags = kremlin::diag::audit_plan(analysis, &plan);
        if diags.is_empty() {
            println!("\nplan audit: clean (every planned region statically consistent)");
        } else {
            println!("\nplan audit:");
            print!("{}", kremlin::diag::render(&analysis.unit.module.source_name, &diags));
        }
        let counts = kremlin::diag::count_severities(&diags);
        if counts.errors > 0 {
            return Err(fail(format!(
                "plan audit found {} hazard(s): dynamic DOALL contradicted by a statically \
                 proven dependence",
                counts.errors
            )));
        }
    }

    if o.evaluate {
        let eval =
            Simulator::new(profile, regions, MachineModel::default()).evaluate(&plan.regions());
        println!(
            "\nestimated: {:.2}x speedup on {} cores (serial {:.0} -> {:.0})",
            eval.speedup, eval.best_cores, eval.serial_time, eval.parallel_time
        );
    }
    Ok(())
}

/// `kremlin corpus`: run the four-oracle cross-check over the fixed
/// scenario grid; `--list` only enumerates, `--emit DIR` dumps the
/// generated sources, `--emit-golden` prints the golden table, and
/// `--golden FILE` additionally gates observations against the
/// checked-in `CORPUS_verdicts.json`. Any oracle disagreement exits 1.
fn cmd_corpus(args: &[String]) -> Result<(), CliError> {
    let (mut list, mut emit_golden) = (false, false);
    let (mut emit_dir, mut golden, mut filter) = (None, None, None);
    let mut r = Flags::new(args);
    while let Some(arg) = r.next()? {
        match arg {
            Arg::Flag("--list") => list = true,
            Arg::Flag("--emit-golden") => emit_golden = true,
            Arg::Flag("--emit") => emit_dir = Some(r.value()?),
            Arg::Flag("--golden") => golden = Some(r.value()?),
            Arg::Flag("--filter") => filter = Some(r.value()?),
            arg => return Err(r.unknown(arg)),
        }
    }
    let filter = filter
        .map(|f| {
            kremlin_workloads::scenario::ScenarioClass::from_name(f)
                .ok_or_else(|| usage_error(format!("unknown scenario class `{f}`")))
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
    if let Some(dir) = emit_dir {
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
    if let Some(path) = golden {
        if filter.is_some() {
            return Err(usage_error("--golden gates the full grid; drop --filter"));
        }
        let text = read_source(path)?;
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
    let (mut seeds, mut base_seed, mut dump) = (None, 2026u64, None);
    let mut r = Flags::new(args);
    while let Some(arg) = r.next()? {
        match arg {
            Arg::Flag("--seeds") => seeds = Some(r.number(1)?),
            Arg::Flag("--seed") => base_seed = r.number(0)?,
            Arg::Flag("--dump") => dump = Some(r.value()?),
            arg => return Err(r.unknown(arg)),
        }
    }
    let seeds = seeds.ok_or_else(|| usage_error("fuzz requires --seeds N"))?;
    let outcome = kremlin::corpus::fuzz(base_seed, seeds);
    let classes: Vec<String> = outcome.by_class.iter().map(|(c, n)| format!("{c}:{n}")).collect();
    eprintln!(
        "[kremlin] fuzzed {} structure specs (base seed {base_seed}) — {}",
        outcome.checked,
        classes.join(" ")
    );
    if let Some(dir) = dump {
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

/// `kremlin serve [--port=N] [--workers=N] [--queue=N] [--cache-mb=N]`:
/// run the profiling pipeline as a long-lived HTTP service.
/// One engine — and thus one content-addressed artifact cache — is
/// shared by all requests, so the second submission of a hot program
/// skips compile and profiling.
fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let mut config = ServeConfig::default();
    let mut cache_mb: usize = 256;
    let mut r = Flags::new(args);
    while let Some(arg) = r.next()? {
        match arg {
            Arg::Flag("--port") => config.port = r.number(0)?,
            Arg::Flag("--workers") => config.workers = r.number(1)?,
            Arg::Flag("--queue") => config.queue_depth = r.number(1)?,
            Arg::Flag("--cache-mb") => cache_mb = r.number(0)?,
            arg => return Err(r.unknown(arg)),
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
        let text = read_source(path)?;
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

/// Reads a text input, naming the path in the error.
fn read_source(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| fail(format!("{path}: {e}")))
}

fn source_name(input: &str) -> String {
    std::path::Path::new(input)
        .file_name()
        .map(|f| f.to_string_lossy().into_owned())
        .unwrap_or_else(|| input.to_owned())
}

fn run() -> Result<(), CliError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(mode) = args.first() else {
        return Err(CliError::Usage(usage().to_owned()));
    };
    let rest = &args[1..];
    match mode.as_str() {
        "analyze" => cmd_analyze(rest),
        "record" => cmd_record(rest),
        "replay" => cmd_plan(&parse_args(rest)?, true),
        "corpus" => cmd_corpus(rest),
        "fuzz" => cmd_fuzz(rest),
        "serve" => cmd_serve(rest),
        _ => {
            let o = parse_args(&args)?;
            match &o.metrics_diff {
                Some((a, b)) => cmd_metrics_diff(a, b),
                None => cmd_plan(&o, false),
            }
        }
    }
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
