//! End-to-end tests of the `ci-gate` binary against the checked-in
//! `BENCH_profiler.json` baseline and synthetic regressions of it.

use std::path::PathBuf;
use std::process::Command;

fn ci_gate() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ci-gate"))
}

fn baseline_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_profiler.json")
}

fn write_temp(name: &str, content: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("kremlin-ci-gate-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    std::fs::write(&path, content).expect("write temp file");
    path
}

#[test]
fn baseline_against_itself_passes() {
    let baseline = baseline_path();
    let out = ci_gate()
        .arg(format!("--baseline={}", baseline.display()))
        .arg(format!("--fresh={}", baseline.display()))
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("OK"));
}

#[test]
fn synthetically_regressed_run_fails() {
    let baseline = std::fs::read_to_string(baseline_path()).expect("baseline exists");
    // Collapse every sharded speedup to 0.1x — far below any tolerance.
    let mut regressed = String::new();
    for line in baseline.lines() {
        regressed.push_str(&replace_number(
            line,
            "speedup_decoded_replay_sharded_critical_path",
            "0.1",
        ));
        regressed.push('\n');
    }
    let fresh = write_temp("regressed.json", &regressed);
    let out = ci_gate()
        .arg(format!("--baseline={}", baseline_path().display()))
        .arg(format!("--fresh={}", fresh.display()))
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("regressed"), "{stderr}");
}

#[test]
fn usage_errors_exit_2() {
    let out = ci_gate().arg("--bogus").output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: ci-gate"));

    let out = ci_gate().output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn missing_fresh_file_exits_1() {
    let out = ci_gate()
        .arg(format!("--baseline={}", baseline_path().display()))
        .arg("--fresh=/nonexistent/fresh.json")
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(1));
}

/// Replaces the numeric value of `"key": <num>` on `line` with `value`
/// (tiny helper so these tests need no regex crate). Lines without the
/// key pass through unchanged.
fn replace_number(line: &str, key: &str, value: &str) -> String {
    let marker = format!("\"{key}\":");
    let Some(start) = line.find(&marker) else { return line.to_owned() };
    let val_start = start + marker.len();
    let rest = &line[val_start..];
    let skip = rest.len() - rest.trim_start().len();
    let val_end = rest[skip..]
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .map(|i| val_start + skip + i)
        .unwrap_or(line.len());
    format!("{} {}{}", &line[..val_start], value, &line[val_end..])
}
