//! End-to-end tests of the `kremlin` CLI binary.

use std::process::Command;

mod forged;

fn kremlin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_kremlin"))
}

fn write_temp(name: &str, content: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("kremlin-cli-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    std::fs::write(&path, content).expect("write temp file");
    path
}

const DEMO: &str = "float a[128];\n\
    int main() {\n\
      for (int i = 0; i < 128; i++) { a[i] = sqrt((float) i) * 2.0; }\n\
      return 0;\n\
    }";

#[test]
fn plans_a_program() {
    let src = write_temp("demo.kc", DEMO);
    let out = kremlin().arg(&src).output().expect("runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("parallelism plan [openmp]"), "{stdout}");
    assert!(stdout.contains("DOALL"), "{stdout}");
    assert!(stdout.contains("demo.kc ("), "{stdout}");
}

#[test]
fn evaluate_flag_reports_speedup() {
    let src = write_temp("demo2.kc", DEMO);
    let out = kremlin().arg(&src).arg("--evaluate").output().expect("runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("estimated:"), "{stdout}");
    assert!(stdout.contains("x speedup on"), "{stdout}");
}

#[test]
fn save_then_load_profile() {
    let src = write_temp("demo3.kc", DEMO);
    let prof = std::env::temp_dir().join("kremlin-cli-tests").join("demo3.prof");
    let out = kremlin()
        .arg(&src)
        .arg(format!("--save-profile={}", prof.display()))
        .output()
        .expect("runs");
    assert!(out.status.success());
    assert!(prof.exists());

    let out = kremlin()
        .arg(format!("--load-profile={}", prof.display()))
        .arg("--personality=work-only")
        .output()
        .expect("runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("parallelism plan [work-only]"), "{stdout}");

    // The region table renders from a saved profile as from a live run.
    let live = kremlin().arg(&src).arg("--regions").output().expect("runs");
    let loaded = kremlin()
        .arg(format!("--load-profile={}", prof.display()))
        .arg("--regions")
        .output()
        .expect("runs");
    assert!(loaded.status.success(), "stderr: {}", String::from_utf8_lossy(&loaded.stderr));
    assert!(String::from_utf8_lossy(&loaded.stdout).contains("main#L0"));
    assert_eq!(String::from_utf8_lossy(&loaded.stdout), String::from_utf8_lossy(&live.stdout));
}

#[test]
fn regions_dump_and_dump_ir() {
    let src = write_temp("demo4.kc", DEMO);
    let out = kremlin().arg(&src).arg("--regions").output().expect("runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("main#L0"), "{stdout}");
    assert!(stdout.contains("self-p"), "{stdout}");

    let out = kremlin().arg(&src).arg("--dump-ir").output().expect("runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("region.enter"), "{stdout}");
    assert!(stdout.contains("phi"), "{stdout}");
}

#[test]
fn usage_errors_exit_2_and_print_usage() {
    // Unknown option.
    let out = kremlin().arg("--bogus").output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown option"), "{stderr}");
    assert!(stderr.contains("usage: kremlin"), "usage must be printed: {stderr}");

    // Bad flag values.
    let out = kremlin().arg("x.kc").arg("--runs=zero").output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad --runs"));
    // A window outside 1..=256 is a usage error: 0 tracks nothing, and a
    // huge one would size every shadow run past any memory.
    for window in ["--window=0", "--window=257", "--window=1000000000000"] {
        let out = kremlin().arg("x.kc").arg(window).output().expect("runs");
        assert_eq!(out.status.code(), Some(2), "{window}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("bad --window value"), "{window}");
    }

    // Unknown personality.
    let out = kremlin().arg("x.kc").arg("--personality=mpi").output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown personality"));

    // No arguments at all.
    let out = kremlin().output().expect("runs");
    assert_eq!(out.status.code(), Some(2));

    // Removed options are unknown, in the main mode, in `replay` and in
    // `serve` (where the bad port keeps a daemon from starting).
    for args in [
        &["x.kc", "--streaming"][..],
        &["replay", "x.ktrace", "--streaming"],
        &["x.kc", "--jobs=2"],
        &["x.kc", "--depth-shards=2"],
        &["replay", "x.ktrace", "--jobs=2"],
        &["serve", "--jobs=2", "--port=x"],
    ] {
        let out = kremlin().args(args).output().expect("runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("unknown option"), "{args:?}");
    }

    // Flags the input cannot honour (a saved profile has no program to
    // run or compile, and a trace is one recorded run), and a value on a
    // flag that takes none. They are usage errors, reported before any
    // file is read.
    for args in [
        &["/nonexistent.kc", "--load-profile=cg.prof", "--report"][..],
        &["--load-profile=cg.prof", "--regions", "--runs=2", "--window=4"],
        &["--load-profile=cg.prof", "--audit-plan"],
        &["--load-profile=cg.prof", "--report"],
        &["--load-profile=cg.prof", "--no-break-deps"],
        &["--load-profile", "cg.prof", "--save-trace=t.ktrace"],
        &["replay", "x.ktrace", "--runs=2"],
        &["replay", "x.ktrace", "--save-trace=t.ktrace"],
        &["replay", "x.ktrace", "--load-profile=cg.prof"],
        &["x.kc", "--regions=yes"],
    ] {
        let out = kremlin().args(args).output().expect("runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: kremlin"), "{args:?}: {stderr}");
    }

    // Flags the chosen output would drop, named in the message, also
    // before any file is read.
    for (args, named) in [
        (
            &["x.kc", "--regions", "--report", "--evaluate", "--audit-plan"][..],
            ["--regions", "--report"],
        ),
        (&["x.kc", "--dump-ir", "--regions"], ["--dump-ir", "--regions"]),
        (&["x.kc", "--report", "--evaluate"], ["--evaluate", "--report"]),
        (&["x.kc", "--regions", "--audit-plan"], ["--audit-plan", "--regions"]),
        (&["x.kc", "--dump-ir", "--exclude=main#L0"], ["--exclude", "--dump-ir"]),
        (&["replay", "x.ktrace", "--regions", "--evaluate"], ["--evaluate", "--regions"]),
        (&["x.kc", "--regions", "--personality=cilk"], ["--personality", "--regions"]),
        (&["x.kc", "--dump-ir", "--personality", "cilk"], ["--personality", "--dump-ir"]),
        (&["x.kc", "--dump-ir", "--save-trace=t.ktrace"], ["--save-trace", "--dump-ir"]),
        (&["x.kc", "--dump-ir", "--save-profile=p.prof"], ["--save-profile", "--dump-ir"]),
        (&["x.kc", "--verify-ir", "--dump-ir"], ["--verify-ir", "--dump-ir"]),
        (&["x.kc", "--runs=3", "--save-profile=p.prof"], ["--save-profile", "--runs"]),
    ] {
        let out = kremlin().args(args).output().expect("runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: kremlin"), "{args:?}: {stderr}");
        let message = stderr.lines().next().unwrap_or("");
        assert!(named.iter().all(|flag| message.contains(flag)), "{args:?}: {message}");
    }
}

#[test]
fn pipeline_failures_exit_1() {
    // Missing file.
    let out = kremlin().arg("/nonexistent/x.kc").output().expect("runs");
    assert_eq!(out.status.code(), Some(1));

    // Compile error in the program.
    let bad = write_temp("bad.kc", "int main() { return x; }");
    let out = kremlin().arg(&bad).output().expect("runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("undeclared"));

    // Unknown exclude label (depends on the profiled program, so it is a
    // pipeline failure, not a usage error).
    let src = write_temp("demo5.kc", DEMO);
    let out = kremlin().arg(&src).arg("--exclude=main#L9").output().expect("runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown region label"));
}

#[test]
fn help_exits_0_with_usage_on_stdout() {
    let out = kremlin().arg("--help").output().expect("runs");
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage: kremlin"));
}

#[test]
fn metrics_json_reports_every_pipeline_phase() {
    let src = write_temp("demo_metrics.kc", DEMO);
    let out = kremlin().arg(&src).arg("--metrics=json").output().expect("runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let json_line = stdout.lines().last().expect("metrics line");
    let snap = kremlin::obs::Snapshot::from_json(json_line).expect("valid metrics JSON");
    // Every pipeline stage must have recorded something.
    for counter in [
        "minic.funcs",        // parse
        "ir.regions",         // lower
        "interp.instrs",      // interp
        "hcpa.instr_events",  // shadow
        "compress.dict_hits", // compress
        "planner.candidates", // plan
    ] {
        assert!(snap.counter(counter) > 0, "counter {counter} is zero: {json_line}");
    }
    for phase in ["parse", "lower", "interp", "shadow", "plan"] {
        let (count, _) = snap.phase(phase).unwrap_or_else(|| panic!("phase {phase} missing"));
        assert!(count > 0, "phase {phase} has no spans");
    }
    assert!(snap.gauge("hcpa.shadow.footprint_bytes") > 0, "{json_line}");
}

#[test]
fn metrics_pretty_prints_a_table() {
    let src = write_temp("demo_metrics2.kc", DEMO);
    let out = kremlin().arg(&src).arg("--metrics").output().expect("runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("-- kremlin metrics --"), "{stdout}");
    assert!(stdout.contains("interp.instrs"), "{stdout}");
    assert!(stdout.contains("phase/shadow"), "{stdout}");
}

#[test]
fn metrics_absent_without_the_flag() {
    let src = write_temp("demo_metrics3.kc", DEMO);
    let out = kremlin().arg(&src).output().expect("runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("kremlin-metrics"), "{stdout}");
    assert!(!stdout.contains("-- kremlin metrics --"), "{stdout}");
}

#[test]
fn trace_writes_balanced_jsonl_spans() {
    let src = write_temp("demo_trace.kc", DEMO);
    let trace = std::env::temp_dir().join("kremlin-cli-tests").join("demo.trace.jsonl");
    let out = kremlin().arg(&src).arg("--trace").arg(&trace).output().expect("runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&trace).expect("trace file written");
    let mut names = Vec::new();
    for line in text.lines() {
        let v = kremlin::obs::json::parse(line).expect("trace line is JSON");
        names.push(v.get("span").and_then(kremlin::obs::json::Value::as_str).unwrap().to_owned());
        assert!(v.get("dur_us").is_some() && v.get("depth").is_some(), "{line}");
    }
    for expected in ["parse", "lower", "interp", "shadow", "plan"] {
        assert!(names.iter().any(|n| n == expected), "span {expected} missing: {names:?}");
    }
}

#[test]
fn record_then_replay_reproduces_the_plan() {
    let src = write_temp("demo_rr.kc", DEMO);
    let trace = std::env::temp_dir().join("kremlin-cli-tests").join("demo_rr.ktrace");

    let out = kremlin().arg("record").arg(&src).arg("-o").arg(&trace).output().expect("runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(trace.exists());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Recorded trace"), "{stdout}");
    assert!(stdout.contains("bytes/event"), "{stdout}");

    // Live and replayed runs share one render step, so their whole
    // stdout agrees, estimate included.
    let cases: [&[&str]; 3] = [&[], &["--evaluate", "--personality=cilk"], &["--regions"]];
    for args in cases {
        let live = kremlin().arg(&src).args(args).output().expect("runs");
        assert!(live.status.success(), "stderr: {}", String::from_utf8_lossy(&live.stderr));
        let out = kremlin().arg("replay").arg(&trace).args(args).output().expect("runs");
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&live.stdout),
            "replay ({args:?}) must print what the live analysis prints"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("replayed"), "{stderr}");
    }
}

#[test]
fn save_trace_writes_a_replayable_file() {
    let src = write_temp("demo_st.kc", DEMO);
    let trace = std::env::temp_dir().join("kremlin-cli-tests").join("demo_st.ktrace");
    let out = kremlin()
        .arg(&src)
        .arg(format!("--save-trace={}", trace.display()))
        .output()
        .expect("runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("trace saved"), "stderr");

    // The printed plan came from replaying the saved file.
    let replayed = kremlin().arg("replay").arg(&trace).output().expect("runs");
    assert!(replayed.status.success(), "stderr: {}", String::from_utf8_lossy(&replayed.stderr));
    assert_eq!(String::from_utf8_lossy(&replayed.stdout), String::from_utf8_lossy(&out.stdout));
}

#[test]
fn corrupt_and_truncated_traces_fail_cleanly() {
    let src = write_temp("demo_corrupt.kc", DEMO);
    let trace = std::env::temp_dir().join("kremlin-cli-tests").join("demo_corrupt.ktrace");
    let out = kremlin().arg("record").arg(&src).arg("-o").arg(&trace).output().expect("runs");
    assert!(out.status.success());
    let bytes = std::fs::read(&trace).expect("trace bytes");

    // Truncated file.
    let cut = write_temp_bytes("cut.ktrace", &bytes[..bytes.len() / 2]);
    let out = kremlin().arg("replay").arg(&cut).output().expect("runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("truncated"), "stderr");

    // Bit-flipped file.
    let mut flipped = bytes.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x20;
    let flip = write_temp_bytes("flip.ktrace", &flipped);
    let out = kremlin().arg("replay").arg(&flip).output().expect("runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("checksum") || stderr.contains("corrupt") || stderr.contains("truncated"),
        "{stderr}"
    );

    // Not a trace at all.
    let junk = write_temp("junk.ktrace", "this is not a trace");
    let out = kremlin().arg("replay").arg(&junk).output().expect("runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad magic"), "stderr");
}

/// A trace that parses but that no execution produced fails with one
/// line on stderr and exit 1, never an abort.
#[test]
fn forged_traces_fail_with_one_line() {
    for (what, bytes) in forged::traces() {
        let file = format!("forged-{}.ktrace", what.replace(|c: char| !c.is_alphanumeric(), "-"));
        let out =
            kremlin().arg("replay").arg(write_temp_bytes(&file, &bytes)).output().expect("runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{what}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{what}: {stderr}");
        assert!(stderr.contains("corrupt trace event stream"), "{what}: {stderr}");
        assert!(out.stdout.is_empty(), "{what}");
    }
}

fn write_temp_bytes(name: &str, content: &[u8]) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("kremlin-cli-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    std::fs::write(&path, content).expect("write temp file");
    path
}

#[test]
fn metrics_diff_compares_two_snapshots() {
    let src = write_temp("demo_diff.kc", DEMO);
    let dir = std::env::temp_dir().join("kremlin-cli-tests");
    let a = dir.join("diff-a.json");
    let b = dir.join("diff-b.json");
    for (path, runs) in [(&a, "1"), (&b, "2")] {
        let out = kremlin()
            .arg(&src)
            .arg("--metrics=json")
            .arg(format!("--runs={runs}"))
            .output()
            .expect("runs");
        assert!(out.status.success());
        let stdout = String::from_utf8_lossy(&out.stdout);
        std::fs::write(path, stdout.lines().last().unwrap()).expect("write snapshot");
    }

    let out = kremlin().arg("--metrics-diff").arg(&a).arg(&b).output().expect("runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("kremlin metrics diff"), "{stdout}");
    assert!(stdout.contains("interp.instrs"), "{stdout}");
    assert!(stdout.contains('%'), "{stdout}");

    // Schema mismatch exits 1.
    let bogus = write_temp("bogus-metrics.json", "{\"schema\":\"not-kremlin\"}");
    let out = kremlin().arg("--metrics-diff").arg(&a).arg(&bogus).output().expect("runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("schema"), "stderr");

    // Missing file also exits 1; missing second argument is a usage error.
    let out = kremlin().arg("--metrics-diff").arg(&a).output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn exclusion_changes_the_plan() {
    let src = write_temp("demo6.kc", DEMO);
    let out = kremlin().arg(&src).output().expect("runs");
    let with = String::from_utf8_lossy(&out.stdout).to_string();
    let out = kremlin().arg(&src).arg("--exclude=main#L0").output().expect("runs");
    assert!(out.status.success());
    let without = String::from_utf8_lossy(&out.stdout).to_string();
    assert_ne!(with, without);
    assert!(without.contains("no profitable regions"), "{without}");
}

#[test]
fn no_break_deps_flag_changes_analysis() {
    let src = write_temp(
        "red.kc",
        "float a[4096];\n\
         int main() { float s = 0.0; for (int i = 0; i < 4096; i++) { s += sqrt((float) i); } return (int) s; }",
    );
    let plan_on = kremlin().arg(&src).output().expect("runs");
    let on = String::from_utf8_lossy(&plan_on.stdout).to_string();
    assert!(on.contains("REDUCTION"), "{on}");
    let plan_off = kremlin().arg(&src).arg("--no-break-deps").output().expect("runs");
    let off = String::from_utf8_lossy(&plan_off.stdout).to_string();
    assert!(
        off.contains("no profitable regions") || !off.contains("REDUCTION"),
        "without breaking, the reduction loop must not appear DOALL: {off}"
    );
}

#[test]
fn analyze_subcommand_lints_without_running() {
    let src = write_temp(
        "stencil.kc",
        "float x[64];\n\
         int main() {\n\
           for (int i = 0; i < 64; i++) { x[i] = (float) i; }\n\
           for (int i = 1; i < 64; i++) { x[i] = x[i-1] * 0.5; }\n\
           return 0;\n\
         }",
    );
    let out = kremlin().arg("analyze").arg(&src).output().expect("runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("static dependence analysis"), "{stdout}");
    assert!(stdout.contains("K001"), "first loop should be proven DOALL: {stdout}");
    assert!(stdout.contains("K003"), "second loop carries a dependence: {stdout}");
    assert!(stdout.contains("distance 1"), "{stdout}");

    // --json is schema-versioned and machine readable.
    let out = kremlin().arg("analyze").arg(&src).arg("--json").output().expect("runs");
    assert!(out.status.success());
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.starts_with("{\"schema\":\"kremlin-analyze-v1\""), "{json}");
    assert!(json.contains("\"verdict\":\"carried\""), "{json}");

    // Usage errors exit 2.
    let out = kremlin().arg("analyze").output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    let out = kremlin().arg("analyze").arg(&src).arg("--bogus").output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn corpus_list_prints_the_grid_without_running() {
    let out = kremlin().arg("corpus").arg("--list").output().expect("runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for class in ["doall-nest", "serial-chain", "carried-dist", "wavefront", "pipeline"] {
        assert!(stdout.contains(class), "class {class} missing from listing: {stdout}");
    }
    assert!(stdout.contains("provably-doall"), "{stdout}");
    assert!(stdout.contains("main#L"), "{stdout}");
}

#[test]
fn corpus_filter_runs_one_class_through_the_oracles() {
    let out = kremlin().arg("corpus").arg("--filter").arg("serial-chain").output().expect("runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("serial_chain_t16"), "{stdout}");
    assert!(!stdout.contains("doall_nest"), "filter must exclude other classes: {stdout}");
    assert!(stdout.contains("four oracles agree"), "{stdout}");
}

#[test]
fn corpus_emits_scenario_sources_and_gates_the_golden() {
    let dir = std::env::temp_dir().join("kremlin-cli-tests").join("corpus-emit");
    let out = kremlin()
        .arg("corpus")
        .arg("--filter")
        .arg("reduction")
        .arg("--emit")
        .arg(&dir)
        .output()
        .expect("runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(dir.join("reduction_t16.kc").exists());
    // Emitted sources are valid kremlin inputs end to end.
    let out = kremlin().arg(dir.join("reduction_t16.kc")).output().expect("runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    // The checked-in golden gates clean; a wrong golden fails with exit 1.
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/../../CORPUS_verdicts.json");
    let out = kremlin().arg("corpus").arg("--golden").arg(golden).output().expect("runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("golden gate clean"));

    let bogus = write_temp("bogus-corpus.json", "{\"schema\": \"not-the-corpus\"}");
    let out = kremlin().arg("corpus").arg("--golden").arg(&bogus).output().expect("runs");
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn corpus_usage_errors_exit_2() {
    let out = kremlin().arg("corpus").arg("--filter").arg("nonsense").output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown scenario class"));

    let out = kremlin().arg("corpus").arg("--bogus").output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn fuzz_smoke_is_clean_and_reports_coverage() {
    let out = kremlin()
        .arg("fuzz")
        .arg("--seeds")
        .arg("6")
        .arg("--seed")
        .arg("7")
        .output()
        .expect("runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("fuzzed 6 structure specs"), "{stderr}");
    assert!(stderr.contains("base seed 7"), "{stderr}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("four oracles agree"));
}

#[test]
fn fuzz_usage_errors_exit_2() {
    // --seeds is mandatory.
    let out = kremlin().arg("fuzz").output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--seeds"));

    let out = kremlin().arg("fuzz").arg("--seeds").arg("0").output().expect("runs");
    assert_eq!(out.status.code(), Some(2));

    let out = kremlin().arg("fuzz").arg("--seeds").arg("many").output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn audit_plan_flag_reports_consistency() {
    let src = write_temp("audit.kc", DEMO);
    let out = kremlin().arg(&src).arg("--audit-plan").output().expect("runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("plan audit"), "{stdout}");
    assert!(!stdout.contains("K010"), "the demo DOALL must not be a hazard: {stdout}");
}

#[test]
fn verify_ir_flag_confirms_verification() {
    let src = write_temp("verify.kc", DEMO);
    let out = kremlin().arg(&src).arg("--verify-ir").output().expect("runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    assert!(stderr.contains("IR verified"), "{stderr}");
}

#[test]
fn metrics_diff_names_both_schema_versions_on_mismatch() {
    let src = write_temp("demo_schema_diff.kc", DEMO);
    let out = kremlin().arg(&src).arg("--metrics=json").output().expect("runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let good = write_temp("schema-good.json", stdout.lines().last().unwrap());

    // A snapshot from a hypothetical future kremlin: the error must name
    // the version found in the file AND the version this build speaks.
    let stale = write_temp(
        "schema-stale.json",
        r#"{"schema":"kremlin-metrics-v9","counters":{},"gauges":{},"histograms":{},"phases":{}}"#,
    );
    let out = kremlin().arg("--metrics-diff").arg(&good).arg(&stale).output().expect("runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("kremlin-metrics-v9"), "must name the mismatched version: {stderr}");
    assert!(stderr.contains("kremlin-metrics-v1"), "must name the supported version: {stderr}");
    assert!(stderr.contains("schema-stale.json"), "must name the offending file: {stderr}");

    // A snapshot with no schema field at all reports `(missing)`.
    let unversioned = write_temp("schema-missing.json", r#"{"counters":{}}"#);
    let out = kremlin().arg("--metrics-diff").arg(&good).arg(&unversioned).output().expect("runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("(missing)"), "{stderr}");
    assert!(stderr.contains("kremlin-metrics-v1"), "{stderr}");
}

#[test]
fn serve_usage_errors_exit_2() {
    for bad_args in [
        &["serve", "--workers=0"][..],
        &["serve", "--queue=0"],
        &["serve", "--port"],
        &["serve", "--cache-mb=lots"],
        &["serve", "--daemonize"],
    ] {
        let out = kremlin().args(bad_args).output().expect("runs");
        assert_eq!(out.status.code(), Some(2), "args: {bad_args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage"), "args {bad_args:?}: {stderr}");
    }
}

#[test]
fn serve_help_mentions_the_daemon() {
    let out = kremlin().args(["serve", "--help"]).output().expect("runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("serve"));
}
