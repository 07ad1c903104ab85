//! `serve-mix`: an in-process `kremlin serve` (2 workers, `jobs = 1`)
//! fed over loopback by one open-loop generator at a fixed rate, with
//! at most [`OUTSTANDING`] requests in flight. The mix (see
//! [`crate::gen::serve_requests`]) resubmits paper programs with a
//! skewed popularity, submits unique scenario programs, and uploads
//! `.ktrace` files; the cache budget is below the suite's total arena
//! bytes, so the LRU evicts and the hit ratio is partial.

use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use kremlin::obs::json::{self, Value};
use kremlin_engine::serve::{ServeConfig, Server};
use kremlin_engine::{Engine, EngineConfig};

use crate::gen::{self, Program, Request};
use crate::http::{self, Reply};
use crate::reference::{self, Expected};
use crate::spans::Tracer;
use crate::stats::{fastest, median, ms, quantile};
use crate::{cold, layers, Args, Report};

/// Offered load, requests per second: about half the rate at which this
/// mix runs without a growing backlog on a 2-core host.
pub const RATE_PER_S: f64 = 12.0;
/// Daemon worker threads.
pub const WORKERS: usize = 2;
/// Requests in flight at once (the host's 2 cores).
pub const OUTSTANDING: usize = 2;
/// Artifact cache budget, below the suite's ~149 MB of arenas.
pub const CACHE_BYTES: usize = 144 << 20;
/// Set-ups at each end of a run; `setup_s` is the fastest of them.
const SETUPS_EACH_END: usize = 2;

/// What a request checks its plan against, and the events it profiles.
struct Target<'a> {
    plan: &'a str,
    events: u64,
}

/// One answered request.
#[derive(Debug, Clone)]
struct Outcome {
    index: usize,
    due: Instant,
    sent: Instant,
    done: Instant,
    status: u16,
    /// `reused` flags (unit, decoded, profile); all false on failure.
    reused: [bool; 3],
    /// 200 with the reference plan.
    ok: bool,
    error: Option<String>,
}

impl Outcome {
    fn latency_ms(&self) -> f64 {
        ms(self.done - self.due)
    }
}

/// Sends one request; `upload` is the body of an upload request.
fn send(addr: SocketAddr, request: &Request, programs: &[Program], upload: &[u8]) -> Reply {
    let result = match request {
        Request::Paper(i) => {
            let p = &programs[*i];
            http::post(addr, "/v1/profile", &[], &profile_body(&p.file, p.source))
        }
        Request::Scenario { name, source } => {
            http::post(addr, "/v1/profile", &[], &profile_body(name, source))
        }
        Request::Upload { .. } => http::post(addr, "/v1/trace", &[("x-kremlin-jobs", "1")], upload),
    };
    result.unwrap_or_else(|e| Reply { status: 0, body: e.to_string().into_bytes() })
}

fn profile_body(name: &str, source: &str) -> Vec<u8> {
    format!(
        "{{\"schema\":\"kremlin-serve-v1\",\"name\":{},\"source\":{},\"jobs\":1}}",
        json::escape(name),
        json::escape(source)
    )
    .into_bytes()
}

/// Checks a reply against `want`: the plan, and the reuse flags.
fn judge(reply: &Reply, want: &str) -> (bool, [bool; 3], Option<String>) {
    if reply.status != 200 {
        let body = String::from_utf8_lossy(&reply.body).into_owned();
        return (false, [false; 3], Some(format!("status {}: {body}", reply.status)));
    }
    let Some(doc) = std::str::from_utf8(&reply.body).ok().and_then(|b| json::parse(b).ok()) else {
        return (false, [false; 3], Some("unparseable response body".into()));
    };
    let flag = |k: &str| doc.get("reused").and_then(|r| r.get(k)) == Some(&Value::Bool(true));
    let reused = [flag("unit"), flag("decoded"), flag("profile")];
    let plan = doc.get("plan").and_then(Value::as_str);
    (plan == Some(want), reused, None)
}

/// Starts a daemon over a fresh engine and warms its cache by submitting
/// the paper programs `warm`, in order.
fn start(
    programs: &[Program],
    expected: &[Expected],
    warm: &[usize],
) -> Result<(Server, Arc<Engine>), String> {
    let engine =
        Arc::new(Engine::new(EngineConfig { cache_bytes: CACHE_BYTES, ..EngineConfig::default() }));
    let config = ServeConfig { port: 0, workers: WORKERS, queue_depth: 32, default_jobs: 1 };
    let server = Server::start(config, Arc::clone(&engine)).map_err(|e| format!("bind: {e}"))?;
    for &i in warm {
        let reply = send(server.addr(), &Request::Paper(i), programs, &[]);
        let (ok, _, error) = judge(&reply, &expected[i].plan);
        if !ok {
            stop(server);
            return Err(format!(
                "warm-up of {}: {}",
                programs[i].name,
                error.unwrap_or("plan differs".into())
            ));
        }
    }
    Ok((server, engine))
}

/// Stops a daemon. [`Server::start`] switches the process-wide metrics
/// registry on; switch it back off so later in-process timings do not
/// pay for it.
fn stop(server: Server) {
    server.shutdown();
    kremlin::obs::set_metrics(false);
}

/// Sends `requests` on the open-loop schedule and collects the outcomes
/// (in completion order) and the generator's lateness per request.
fn drive(
    addr: SocketAddr,
    requests: &[Request],
    targets: &[Target<'_>],
    programs: &[Program],
    uploads: &[Vec<u8>],
) -> (Vec<Outcome>, Vec<f64>) {
    let outcomes = Mutex::new(Vec::with_capacity(requests.len()));
    let mut late = Vec::with_capacity(requests.len());
    // A rendezvous channel: a send completes only when an idle client
    // takes the request, which caps the in-flight requests.
    let (tx, rx) = sync_channel::<(usize, Instant)>(0);
    let rx = Mutex::new(rx);
    std::thread::scope(|scope| {
        for _ in 0..OUTSTANDING {
            scope.spawn(|| loop {
                let job = rx.lock().expect("client queue lock").recv();
                let Ok((index, due)) = job else { break };
                let sent = Instant::now();
                let reply = send(addr, &requests[index], programs, &uploads[index]);
                let done = Instant::now();
                let (ok, reused, error) = judge(&reply, targets[index].plan);
                let outcome =
                    Outcome { index, due, sent, done, status: reply.status, reused, ok, error };
                outcomes.lock().expect("outcome lock").push(outcome);
            });
        }
        let t0 = Instant::now() + Duration::from_millis(5);
        for index in 0..requests.len() {
            let due = t0 + Duration::from_secs_f64(index as f64 / RATE_PER_S);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            tx.send((index, due)).expect("client threads outlive the generator");
            late.push(ms(Instant::now() - due));
        }
        drop(tx);
    });
    (outcomes.into_inner().expect("outcome lock"), late)
}

/// Runs the serve-mix workload.
///
/// # Errors
///
/// A missing reference file, a failing reference, or a failing setup.
pub fn run(args: &Args) -> Result<Report, String> {
    let programs = gen::paper_programs();
    let expected = reference::load(&programs)?;
    let decks = ((RATE_PER_S * args.seconds) / gen::DECK as f64).round().max(1.0) as usize;
    let requests = gen::serve_requests(args.seed, decks);
    let uploads = gen::upload_bodies(&requests, &programs);
    let mut scenario_refs = HashMap::new();
    for r in &requests {
        if let Request::Scenario { name, source } = r {
            scenario_refs.insert(name.clone(), reference::seed_plan(source, name)?);
        }
    }
    let targets: Vec<Target<'_>> = requests
        .iter()
        .map(|r| match r {
            Request::Paper(i) | Request::Upload { program: i, .. } => {
                Target { plan: &expected[*i].plan, events: expected[*i].events }
            }
            Request::Scenario { name, .. } => {
                let (plan, events) = &scenario_refs[name];
                Target { plan, events: *events }
            }
        })
        .collect();

    // Set-ups before and after the measured requests, so they sample
    // both ends of the run; the last one before serves the run.
    let mut setups = Vec::new();
    // Least popular first, so the hot set ends resident.
    let warm_order: Vec<usize> = (0..programs.len()).rev().collect();
    let set_up = |setups: &mut Vec<f64>| {
        let t = Instant::now();
        let live = start(&programs, &expected, &warm_order)?;
        setups.push(t.elapsed().as_secs_f64());
        Ok::<_, String>(live)
    };
    for _ in 1..SETUPS_EACH_END {
        stop(set_up(&mut setups)?.0);
    }
    let (server, engine) = set_up(&mut setups)?;
    let before = engine.cache().stats();
    let (outcomes, late) = drive(server.addr(), &requests, &targets, &programs, &uploads);
    let after = engine.cache().stats();

    let mut report = Report::default();
    // Requests of one class (kind, paper program, profile hit or miss) do
    // the same work; latencies are grouped by class for `stats::fastest`.
    let mut classes: BTreeMap<(&str, usize, bool), (Vec<f64>, u64)> = BTreeMap::new();
    let (mut http_hits, mut upload) = (Vec::new(), Vec::new());
    let mut rejected = 0usize;
    let mut reuse = [0usize; 3];
    for o in &outcomes {
        report.check(match &o.error {
            Some(e) => Err(format!("request {}: {e}", o.index)),
            None => Ok(o.ok),
        });
        rejected += usize::from(o.status == 429);
        if o.status != 200 {
            continue;
        }
        for (k, hit) in o.reused.iter().enumerate() {
            reuse[k] += usize::from(*hit);
        }
        let (kind, program) = match requests[o.index] {
            Request::Paper(i) => ("paper", i),
            Request::Upload { program, .. } => ("upload", program),
            Request::Scenario { .. } => ("scenario", 0),
        };
        let class = classes.entry((kind, program, o.reused[2])).or_default();
        class.0.push(o.latency_ms());
        class.1 += targets[o.index].events;
        match requests[o.index] {
            Request::Paper(_) if o.reused == [true; 3] => http_hits.push(ms(o.done - o.sent)),
            Request::Upload { .. } => upload.push(o.latency_ms()),
            _ => {}
        }
    }
    for ((kind, program, hit), (lat, _)) in &classes {
        let name = if *kind == "scenario" { "*" } else { programs[*program].name };
        report.notes.push(format!(
            "class {kind:<8} {name:<9} {:<4} n={:<4} fastest={:.2} p50={:.2} p90={:.2} (ms)",
            if *hit { "hit" } else { "miss" },
            lat.len(),
            quantile(lat, 0.0),
            median(lat),
            quantile(lat, 0.9)
        ));
    }
    let answered: usize = classes.values().map(|c| c.0.len()).sum();
    let lists = |warm: bool| classes.iter().filter(move |(k, _)| k.2 == warm).map(|(_, c)| &c.0);
    let warm = fastest(lists(true));

    if !args.trace {
        stop(server);
        // Free the measured daemon's cache first, so the later set-ups
        // do not add to `peak_rss_mb`.
        drop(engine);
        for _ in 0..SETUPS_EACH_END {
            stop(set_up(&mut setups)?.0);
        }
        let all = fastest(classes.values().map(|c| &c.0));
        let (events, miss_ms) =
            classes.iter().filter(|(k, _)| !k.2).fold((0u64, 0.0), |(e, t), (_, c)| {
                (e + c.1, t + quantile(&c.0, 0.0) * c.0.len() as f64)
            });
        report.set("setup_s", quantile(&setups, 0.0), setups.len());
        report.set("latency_p50_ms", median(&all), all.len());
        report.set("latency_p90_ms", quantile(&all, 0.9), all.len());
        report.set("events_per_s", events as f64 * 1e3 / miss_ms, all.len() - warm.len());
        report.set("warm_p50_ms", median(&warm), warm.len());
        report.set("peak_rss_mb", crate::peak_rss_mb().unwrap_or(f64::NAN), 1);
        report.set("success_share", report.success_share(), report.attempted as usize);
        return Ok(report);
    }

    // In-process hits on the daemon's own engine, for the HTTP overhead.
    let mut hits = Vec::new();
    for p in &programs {
        for _ in 0..5 {
            let t = Instant::now();
            let Ok(r) = engine.analyze_source(p.source, &p.file, 1) else { break };
            let _plan = r.analysis.plan_openmp().to_string();
            if r.reused.unit && r.reused.decoded && r.reused.profile {
                hits.push(ms(t.elapsed()));
            }
        }
    }
    stop(server);

    for (k, metric) in
        ["engine.hit_ratio.unit", "engine.hit_ratio.decoded", "engine.hit_ratio.profile"]
            .into_iter()
            .enumerate()
    {
        report.set(metric, reuse[k] as f64 / answered as f64, answered);
    }
    report.set("engine.evictions", (after.evictions - before.evictions) as f64, answered);
    report.set("engine.resident_bytes", after.bytes as f64, 1);
    report.set("engine.hit_ms", median(&hits), hits.len());
    report.set("serve.http_overhead_ms", median(&http_hits) - median(&hits), http_hits.len());
    report.set("serve.upload_ms", median(&upload), upload.len());
    report.set("serve.rejected", rejected as f64, outcomes.len());
    report.set("loadgen.late_p90_ms", quantile(&late, 0.9), late.len());

    // Client-side spans: `request.<kind>` from due to done, with an
    // `http` child from hand-off to done (the root's self time is the
    // generator's lateness). Every other request is traced.
    let mut tracer = Tracer::new();
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    for o in &outcomes {
        if o.index % 2 == 1 {
            untraced.push(o.latency_ms());
            continue;
        }
        traced.push(o.latency_ms());
        let kind = match requests[o.index] {
            Request::Paper(_) => "request.paper",
            Request::Scenario { .. } => "request.scenario",
            Request::Upload { .. } => "request.upload",
        };
        tracer.record(kind, o.index as u64, o.due, o.done);
        let root = tracer.spans().len() - 1;
        tracer.record_child(root, "http", o.sent, o.done);
    }
    report.set("tracing.overhead_ms", median(&traced) - median(&untraced), traced.len());

    // Engine stages cannot be spanned inside the daemon; one in-process
    // traced cold pass over the paper programs gives their split.
    let mut stages = Tracer::new();
    for (i, p) in programs.iter().enumerate() {
        let r = cold::analyze_traced(&mut stages, i as u64, p, 1);
        report.check(r.map(|(plan, _)| plan == expected[i].plan));
    }
    cold::report_stages(&stages, &mut report);
    layers::report_suite(&programs, &expected, &mut report)?;
    crate::write_spans(args, &tracer, &mut report);
    Ok(report)
}

/// The serve-layer probe for the cold workloads' traced runs: HTTP hit
/// latency against an in-process hit of the same program on the same
/// engine, and `.ktrace` upload latency, on the smallest paper program.
///
/// # Errors
///
/// A failing bind or warm-up.
pub fn report_probe(
    programs: &[Program],
    expected: &[Expected],
    report: &mut Report,
) -> Result<(), String> {
    const REPS: usize = 20;
    let i = programs.iter().position(|p| p.name == "ep").expect("ep is a paper program");
    let upload = Request::Upload { program: i, variant: 0 };
    let body = gen::upload_body(&programs[i], 0);
    let (server, engine) = start(programs, expected, &[i])?;
    let (mut http_hits, mut uploads, mut hits) = (Vec::new(), Vec::new(), Vec::new());
    let mut rejected = 0usize;
    for _ in 0..REPS {
        for (request, sink) in [(&Request::Paper(i), &mut http_hits), (&upload, &mut uploads)] {
            let t = Instant::now();
            let reply = send(server.addr(), request, programs, &body);
            sink.push(ms(t.elapsed()));
            rejected += usize::from(reply.status == 429);
            let (ok, _, error) = judge(&reply, &expected[i].plan);
            report.check(error.map_or(Ok(ok), Err));
        }
        let t = Instant::now();
        let r = engine.analyze_source(programs[i].source, &programs[i].file, 1);
        let r = r.map(|r| r.analysis.plan_openmp().to_string());
        hits.push(ms(t.elapsed()));
        report.check(r.map(|plan| plan == expected[i].plan).map_err(|e| e.to_string()));
    }
    stop(server);
    report.set("serve.http_overhead_ms", median(&http_hits) - median(&hits), http_hits.len());
    report.set("serve.upload_ms", median(&uploads), uploads.len());
    report.set("serve.rejected", rejected as f64, 2 * REPS);
    Ok(())
}
