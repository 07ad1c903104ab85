//! `cold-serial` and `cold-sharded`: the 12 paper programs, each on a
//! fresh [`Engine`], in a seeded shuffled order from one closed-loop
//! client. Each cold request is followed by a resubmission to the same
//! engine, whose latency is the warm (profile-resident) figure.

use std::time::Instant;

use kremlin::Analysis;
use kremlin_engine::{Engine, EngineConfig, StageReuse};

use crate::gen::{self, Program, Stream};
use crate::reference;
use crate::spans::Tracer;
use crate::stats::{fastest, median, ms, quantile};
use crate::{layers, serve, Args, Report};

/// The program each setup analyzes once to finish lazy process set-up
/// (`tracking`, the paper's running example).
const SETUP_PROGRAM: &str = "tracking";
/// Fewest cold samples per run (p90 needs at least 100).
pub const MIN_SAMPLES: usize = 108;

/// One cold request through [`Engine::analyze_source`] plus the ranked
/// OpenMP plan — the path the CLI and daemon run.
fn analyze(engine: &Engine, p: &Program, jobs: usize) -> Result<(String, StageReuse), String> {
    let result = engine.analyze_source(p.source, &p.file, jobs).map_err(|e| e.to_string())?;
    Ok((result.analysis.plan_openmp().to_string(), result.reused))
}

/// The same request stage by stage, each engine stage in its own span
/// under a `request` span.
pub fn analyze_traced(
    tracer: &mut Tracer,
    request: u64,
    p: &Program,
    jobs: usize,
) -> Result<(String, StageReuse), String> {
    let root = tracer.begin("request", request, None);
    let engine = Engine::new(EngineConfig::default());
    let err = |e: kremlin::KremlinError| e.to_string();
    let unit = tracer.child(root, "compile", || engine.compile(p.source, &p.file));
    let (unit, unit_hit) = unit.map_err(err)?;
    let decoded = tracer.child(root, "decode_unit", || engine.decode_unit(&unit));
    let (decoded, decoded_hit) = decoded.map_err(err)?;
    let outcome = tracer.child(root, "profile", || engine.profile(&unit, &decoded, jobs));
    let (outcome, profile_hit) = outcome.map_err(err)?;
    let plan = tracer
        .child(root, "plan", || Analysis::from_parts(unit, outcome).plan_openmp().to_string());
    tracer.end(root);
    Ok((plan, StageReuse { unit: unit_hit, decoded: decoded_hit, profile: profile_hit }))
}

/// Stage self times of the traced requests: mean ms per request for
/// each stage, and the share of request latency no stage span covers.
pub fn report_stages(tracer: &Tracer, report: &mut Report) {
    let times = tracer.self_times();
    let requests = times.get("request").map_or(0, |t| t.1);
    let total: f64 = tracer.spans().iter().filter(|s| s.parent.is_none()).map(|s| s.ms()).sum();
    for (name, metric) in [
        ("compile", "stage.compile_ms"),
        ("decode_unit", "stage.decode_unit_ms"),
        ("profile", "stage.profile_ms"),
        ("plan", "stage.plan_ms"),
    ] {
        let (self_ms, n) = times.get(name).copied().unwrap_or((0.0, 0));
        report.set(metric, self_ms / n.max(1) as f64, n);
    }
    let uncovered = times.get("request").map_or(0.0, |t| t.0);
    report.set("stage.uncovered_share", uncovered / total, requests);
}

/// Number of samples in per-program groups.
fn samples(groups: &[Vec<f64>]) -> usize {
    groups.iter().map(Vec::len).sum()
}

/// Runs a cold workload with `jobs` shards per request.
///
/// # Errors
///
/// A missing or malformed reference file, or a failing setup.
pub fn run(args: &Args, jobs: usize) -> Result<Report, String> {
    let programs = gen::paper_programs();
    let expected = reference::load(&programs)?;
    let mut report = Report::default();

    let setup_idx = programs.iter().position(|p| p.name == SETUP_PROGRAM).expect("setup program");
    // One set-up before every pass, so the set-ups sample the whole run.
    let mut setups = Vec::new();
    let mut setup = || -> Result<(), String> {
        let t = Instant::now();
        let engine = Engine::new(EngineConfig::default());
        let (plan, _) = analyze(&engine, &programs[setup_idx], jobs)?;
        setups.push(t.elapsed().as_secs_f64());
        if plan != expected[setup_idx].plan {
            return Err(format!("setup plan of {SETUP_PROGRAM} differs from its reference"));
        }
        Ok(())
    };

    let mut rng = gen::rng(args.seed, Stream::PassOrder);
    let mut tracer = Tracer::new();
    let mut warm = Vec::new();
    let (mut gaps, mut resident) = (Vec::new(), Vec::new());
    let mut reuse = [0usize; 3];
    let mut per_program = vec![Vec::new(); programs.len()];
    let mut warm_by_program = vec![Vec::new(); programs.len()];
    let mut traced_by_program = vec![Vec::new(); programs.len()];
    let mut evictions = 0u64;
    let start = Instant::now();
    let mut pass = 0usize;
    while start.elapsed().as_secs_f64() < args.seconds
        || samples(&per_program) + samples(&traced_by_program) < MIN_SAMPLES
    {
        setup()?;
        let mut last_done = None;
        // Traced runs alternate untraced and traced passes, so the
        // tracing overhead is measured within one run.
        let traced = args.trace && pass % 2 == 1;
        for i in gen::shuffled(&mut rng, programs.len()) {
            let (p, want) = (&programs[i], &expected[i]);
            let request = (pass * programs.len() + i) as u64;
            let t0 = Instant::now();
            if let Some(done) = last_done {
                gaps.push(ms(t0 - done));
            }
            let result = if traced {
                analyze_traced(&mut tracer, request, p, jobs)
            } else {
                let engine = Engine::new(EngineConfig::default());
                let r = analyze(&engine, p, jobs);
                let lat = ms(t0.elapsed());
                if r.is_ok() {
                    per_program[i].push(lat);
                }
                // Warm: the same request again, every stage resident.
                let t1 = Instant::now();
                let again = analyze(&engine, p, jobs);
                let warm_ms = ms(t1.elapsed());
                warm.push(warm_ms);
                warm_by_program[i].push(warm_ms);
                let stats = engine.cache().stats();
                resident.push(stats.bytes as f64);
                evictions += stats.evictions;
                report.check(again.map(|(plan, reused)| reused.profile && plan == want.plan));
                r
            };
            if traced {
                traced_by_program[i].push(ms(t0.elapsed()));
            }
            report.check(result.map(|(plan, reused)| {
                reuse[0] += usize::from(reused.unit);
                reuse[1] += usize::from(reused.decoded);
                reuse[2] += usize::from(reused.profile);
                plan == want.plan
            }));
            last_done = Some(Instant::now());
        }
        pass += 1;
    }

    for (i, p) in programs.iter().enumerate() {
        let (cold, warm) = (&per_program[i], &warm_by_program[i]);
        report.notes.push(format!(
            "program {:<9} n={:<4} cold fastest={:.2} p50={:.2} warm fastest={:.4} p50={:.4} (ms)",
            p.name,
            cold.len(),
            quantile(cold, 0.0),
            median(cold),
            quantile(warm, 0.0),
            median(warm)
        ));
    }
    if !args.trace {
        // Requests of one program do the same work: see `stats::fastest`.
        let all = fastest(&per_program);
        let events: u64 =
            per_program.iter().zip(&expected).map(|(v, e)| v.len() as u64 * e.events).sum();
        report.set("setup_s", quantile(&setups, 0.0), setups.len());
        report.set("latency_p50_ms", median(&all), all.len());
        report.set("latency_p90_ms", quantile(&all, 0.9), all.len());
        report.set("events_per_s", events as f64 * 1e3 / all.iter().sum::<f64>(), all.len());
        report.set("warm_p50_ms", median(&fastest(&warm_by_program)), warm.len());
        report.set("peak_rss_mb", crate::peak_rss_mb().unwrap_or(f64::NAN), 1);
        report.set("success_share", report.success_share(), report.attempted as usize);
        return Ok(report);
    }

    let requests = samples(&per_program) + samples(&traced_by_program);
    for (k, metric) in
        ["engine.hit_ratio.unit", "engine.hit_ratio.decoded", "engine.hit_ratio.profile"]
            .into_iter()
            .enumerate()
    {
        report.set(metric, reuse[k] as f64 / requests as f64, requests);
    }
    report.set("engine.evictions", evictions as f64, resident.len());
    report.set("engine.resident_bytes", median(&resident), resident.len());
    report.set("engine.hit_ms", median(&warm), warm.len());
    report.set("loadgen.late_p90_ms", quantile(&gaps, 0.9), gaps.len());
    report_stages(&tracer, &mut report);
    let traced = fastest(&traced_by_program);
    let untraced = fastest(&per_program);
    report.set("tracing.overhead_ms", median(&traced) - median(&untraced), traced.len());
    serve::report_probe(&programs, &expected, &mut report)?;
    layers::report_suite(&programs, &expected, &mut report)?;
    crate::write_spans(args, &tracer, &mut report);
    Ok(report)
}
