//! # kremlin-perfbench — source → ranked plan, end to end and per layer
//!
//! Three workloads drive the public `kremlin-engine` API, the path the
//! `kremlin` CLI and the `kremlin serve` daemon share:
//!
//! * `cold-serial` — the 12 paper programs, each on a fresh [`Engine`]
//!   with `jobs = 1`, in a seeded shuffled order from one closed-loop
//!   client;
//! * `cold-sharded` — the same programs and order with `jobs = 2` on
//!   real threads;
//! * `serve-mix` — an in-process `kremlin serve` fed over loopback by
//!   an open-loop generator: resubmitted paper programs, unique scenario
//!   programs and `.ktrace` uploads.
//!
//! `BENCHMARK.json` gates `cold-serial` and `serve-mix`; `cold-sharded`
//! is run by hand (see `README.md` for why).
//!
//! Every plan is checked against a reference from the frozen seed
//! profiler ([`kremlin::hcpa::profile_unit_seed`]) plus the OpenMP
//! planner. With `--trace 1` the run also records spans around the calls
//! into each layer and reports the per-layer metrics instead of the
//! end-to-end ones. See `README.md` next to this crate for the metric
//! map and the prediction table.
//!
//! [`Engine`]: kremlin_engine::Engine

mod cold;
pub mod gen;
mod http;
mod layers;
pub mod reference;
mod serve;
mod spans;
mod stats;

use std::fmt::Write as _;

/// End-to-end metrics (`--trace 0`), with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("events_per_s", "1/s"),
    ("warm_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("success_share", "ratio"),
];

/// Per-layer metrics (`--trace 1`), with their units, named by crate.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("minic.frontend_ms", "ms"),
    ("ir.lower_ms", "ms"),
    ("interp.record_ms", "ms"),
    ("interp.record_ns_per_event", "ns"),
    ("interp.trace_bytes_per_event", "B"),
    ("trace.decode_ms", "ms"),
    ("trace.arena_bytes", "B"),
    ("trace.dispatch_ms", "ms"),
    ("hcpa.fixed_ms", "ms"),
    ("hcpa.replay_ms", "ms"),
    ("hcpa.ns_per_event", "ns"),
    ("hcpa.shadow_bytes", "B"),
    ("hcpa.sharded_ms", "ms"),
    ("hcpa.shard_max_ms", "ms"),
    ("hcpa.shard_imbalance", "ratio"),
    ("hcpa.stitch_ms", "ms"),
    ("compress.dict_entries", "count"),
    ("compress.profile_bytes", "B"),
    ("planner.plan_ms", "ms"),
    ("sim.evaluate_ms", "ms"),
    ("sim.sharded_divergent", "count"),
    ("engine.hit_ratio.unit", "ratio"),
    ("engine.hit_ratio.decoded", "ratio"),
    ("engine.hit_ratio.profile", "ratio"),
    ("engine.evictions", "count"),
    ("engine.resident_bytes", "B"),
    ("engine.hit_ms", "ms"),
    ("serve.http_overhead_ms", "ms"),
    ("serve.upload_ms", "ms"),
    ("serve.rejected", "count"),
    ("loadgen.late_p90_ms", "ms"),
    ("stage.compile_ms", "ms"),
    ("stage.decode_unit_ms", "ms"),
    ("stage.profile_ms", "ms"),
    ("stage.plan_ms", "ms"),
    ("stage.uncovered_share", "ratio"),
    ("tracing.overhead_ms", "ms"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fresh engine per program, `jobs = 1`.
    ColdSerial,
    /// Fresh engine per program, `jobs = 2` on real threads.
    ColdSharded,
    /// In-process daemon under an open-loop request mix.
    ServeMix,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::ColdSerial, Workload::ColdSharded, Workload::ServeMix];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdSerial => "cold-serial",
            Workload::ColdSharded => "cold-sharded",
            Workload::ServeMix => "serve-mix",
        }
    }

    /// Parses a `--workload` name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured duration.
    pub seconds: f64,
    /// `true` reports the per-layer metrics from a traced run.
    pub trace: bool,
}

/// Usage line printed on argument errors.
pub const USAGE: &str = "usage: perfbench --workload <cold-serial|cold-sharded|serve-mix> \
                         --seed <n> --seconds <s> --trace <0|1>\n       \
                         perfbench --write-expected <path>";

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`.
    ///
    /// # Errors
    ///
    /// A message naming the bad or missing argument.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::from_name(value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    );
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| format!("bad seconds {value:?}"))?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err(format!("seconds must be positive, got {value}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                    });
                }
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
        })
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name (from [`END_TO_END`] or [`PER_LAYER`]).
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, from the metric table.
    pub unit: &'static str,
    /// Number of samples the value summarizes.
    pub samples: usize,
}

/// The outcome of one run: correctness accounting plus metrics.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted in the measured region.
    pub attempted: u64,
    /// Failed operations: non-200, 429, typed error or wrong plan.
    pub failed: u64,
    /// Metrics in insertion order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the metric table.
    pub notes: Vec<String>,
}

impl Report {
    /// Records `name` (which must appear in a metric table).
    ///
    /// # Panics
    ///
    /// On a name missing from both tables — a bug in this benchmark.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric { name, value, unit, samples });
    }

    /// Counts one operation whose output was checked: `Ok(true)` matched
    /// its reference, `Ok(false)` did not, `Err` failed outright.
    pub fn check(&mut self, outcome: Result<bool, String>) {
        self.attempted += 1;
        match outcome {
            Ok(true) => {}
            Ok(false) => self.failed += 1,
            Err(e) => {
                self.failed += 1;
                self.notes.push(format!("error: {e}"));
            }
        }
    }

    /// Success share, `1 - failed / attempted`.
    pub fn success_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            1.0 - self.failed as f64 / self.attempted as f64
        }
    }

    /// Renders the notes, a metric table with sample counts, and — last —
    /// the one-line JSON result restricted to `wanted`.
    ///
    /// # Errors
    ///
    /// Names a metric of `wanted` the run did not produce.
    pub fn render(&self, wanted: &[(&str, &str)]) -> Result<String, String> {
        let mut out = String::new();
        for note in &self.notes {
            let _ = writeln!(out, "{note}");
        }
        let _ = writeln!(out, "{:<30} {:>16} {:<6} {:>8}", "metric", "value", "unit", "samples");
        let mut json = Vec::new();
        for (name, _) in wanted {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == *name)
                .ok_or_else(|| format!("run produced no value for metric {name}"))?;
            if !m.value.is_finite() {
                return Err(format!("metric {name} is not finite ({})", m.value));
            }
            let _ =
                writeln!(out, "{:<30} {:>16.6} {:<6} {:>8}", m.name, m.value, m.unit, m.samples);
            json.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        let correct = self.failed == 0;
        let _ = writeln!(
            out,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            json.join(", ")
        );
        Ok(out)
    }
}

/// Peak resident set of this process in MB (`VmHWM`), or `None` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Logical cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Writes a traced run's spans as JSON lines under the build directory
/// (`$CARGO_TARGET_DIR`, else `.bench_build`) and notes the path.
pub fn write_spans(args: &Args, tracer: &spans::Tracer, report: &mut Report) {
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
    let path = std::path::Path::new(&dir).join(format!(
        "perfbench-spans-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_jsonl()));
    report.notes.push(match written {
        Ok(()) => format!("spans: {} written to {}", tracer.spans().len(), path.display()),
        Err(e) => format!("spans: could not write {}: {e}", path.display()),
    });
}

/// Runs one workload and returns its report.
///
/// # Errors
///
/// Setup failures (missing reference file, socket errors).
pub fn run(args: &Args) -> Result<Report, String> {
    match args.workload {
        Workload::ColdSerial => cold::run(args, 1),
        Workload::ColdSharded => cold::run(args, 2),
        Workload::ServeMix => serve::run(args),
    }
}
