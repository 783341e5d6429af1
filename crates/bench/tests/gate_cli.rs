//! End-to-end acceptance for the one `gate` binary: fed two suite
//! files, it must exit 0 when the current suite is the baseline and
//! exit 1 — naming the moved column — on every doctored move, whichever
//! way it points: a 1 % or a 10 % throughput move, a 2× time-to-detect,
//! a new false positive, a new misattribution, a liveness flip, a
//! sustained-storm flip, a 2× time-to-stabilize. This is the same code
//! path CI runs — the only difference there is that the current suite
//! comes from a live fixed-seed run instead of a file. Setup mistakes
//! (missing baseline, unknown, incomplete or conflicting flags) are
//! exit 2 and never start a live run.

use std::path::PathBuf;
use std::process::{Command, Output};

use depfast_bench::{DetectRecord, RunRecord, ScenarioRecord, Suite};
use depfast_incident::ScoreCell;

fn run(driver: &str, fault: &str, throughput: f64) -> RunRecord {
    RunRecord {
        driver: driver.to_string(),
        fault: fault.to_string(),
        cluster: "3_nodes".to_string(),
        ops: 10_000,
        throughput,
        mean_ms: 2.0,
        p50_ms: 1.5,
        p99_ms: 6.0,
        crashed: false,
        drift: 1.0,
        profile: vec![("disk:log_durable".to_string(), 123_456)],
    }
}

fn bench_suite(scale: f64) -> Suite {
    let mut s = Suite::new("gate", 20210531);
    s.config("clients", 64.0);
    for (driver, fault, tput) in [
        ("DepFastRaft", "none", 5000.0),
        ("DepFastRaft", "disk_slow", 4800.0),
        ("SyncRaft (TiDB-style)", "none", 4200.0),
        ("SyncRaft (TiDB-style)", "disk_slow", 2500.0),
    ] {
        s.runs.push(run(driver, fault, tput * scale));
    }
    s
}

const MS: u64 = 1_000_000;

fn quality(ttd_ms: Option<u64>, false_positives: u64, misattributions: u64) -> ScoreCell {
    ScoreCell {
        detected: ttd_ms.is_some(),
        ttd_ns: ttd_ms.map(|v| v * MS),
        ttm_ns: ttd_ms.map(|v| v * MS / 2),
        ttr_ns: ttd_ms.map(|_| 1200 * MS),
        false_positives,
        false_negatives: 0,
        misattributions,
        ..ScoreCell::default()
    }
}

/// The shape `gate detect` itself emits: two drivers × [healthy,
/// disk-slow], doctored on the DepFastRaft cells.
fn detect_suite(ttd_scale: u64, false_positives: u64, misattributions: u64) -> Suite {
    let ttd = Some(200 * ttd_scale);
    let mut s = Suite::new("detect", 20210531);
    s.config("clients", 64.0);
    for (driver, fault, score) in [
        ("DepFastRaft", "none", quality(None, false_positives, 0)),
        (
            "DepFastRaft",
            "Disk Slowness",
            quality(ttd, 0, misattributions),
        ),
        ("SyncRaft (TiDB-style)", "none", quality(None, 0, 0)),
        ("SyncRaft (TiDB-style)", "Disk Slowness", quality(ttd, 0, 0)),
    ] {
        s.detect.push(DetectRecord {
            driver: driver.to_string(),
            fault: fault.to_string(),
            cluster: "3x64".to_string(),
            score,
        });
    }
    s
}

/// One storm-monitored survival cell, the shape `gate scenario` emits
/// for the retry-storm cell.
fn storm_suite(live: bool, sustained: bool, tts_ms: Option<u64>, amp: f64) -> Suite {
    let mut s = Suite::new("scenarios", 20210531);
    s.config("clients", 160.0);
    s.scenarios.push(ScenarioRecord {
        scenario: "retry-storm".to_string(),
        driver: "DepFastRaft".to_string(),
        live,
        crashed: false,
        throughput: 430.0,
        floor: 0.0,
        p99_ms: 900.0,
        stall_ms: 1700.0,
        score: ScoreCell {
            ttm_ns: None,
            ttr_ns: Some(900 * MS),
            tts_ns: tts_ms.map(|v| v * MS),
            storm_sustained: sustained,
            ..quality(Some(210), 0, 0)
        },
        amp: Some(amp),
        give_up: 0,
    });
    s
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("depfast_gate_{}_{name}.json", std::process::id()))
}

fn write_suite(name: &str, s: &Suite) -> PathBuf {
    let path = tmp(name);
    std::fs::write(&path, s.to_json()).expect("write suite file");
    path
}

fn gate(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gate"))
        .args(args)
        .output()
        .expect("spawn gate")
}

/// Runs `gate <suite> --baseline <baseline> --current <current>` and
/// returns `(exit code, stdout)`.
fn diff(suite: &str, name: &str, baseline: &Suite, current: &Suite) -> (Option<i32>, String) {
    let base = write_suite(&format!("{name}_base"), baseline);
    let cur = write_suite(&format!("{name}_cur"), current);
    let out = gate(&[
        suite,
        "--baseline",
        base.to_str().unwrap(),
        "--current",
        cur.to_str().unwrap(),
    ]);
    let _ = std::fs::remove_file(base);
    let _ = std::fs::remove_file(cur);
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.code(), text)
}

#[test]
fn identical_suites_pass_every_subcommand() {
    let storm = storm_suite(true, false, Some(800), 1.5);
    for (suite, s) in [
        ("bench", bench_suite(1.0)),
        ("detect", detect_suite(1, 0, 0)),
        ("scenario", storm),
    ] {
        let (code, text) = diff(suite, &format!("same_{suite}"), &s, &s);
        assert_eq!(code, Some(0), "gate {suite} must pass on itself:\n{text}");
        assert!(text.contains(&format!("{} cell(s) checked", s.cells())));
    }
}

/// Every doctored move drives the real binary to exit 1, and the
/// failure report names the moved column.
#[test]
fn doctored_suites_fail_the_gate_naming_the_metric() {
    let storm = storm_suite(true, false, Some(800), 1.5);
    let mut flipped = storm.clone();
    flipped.scenarios[0].live = false;
    let cases: [(&str, &str, Suite, Suite, &str); 10] = [
        (
            "bench",
            "tput",
            bench_suite(1.0),
            bench_suite(0.9),
            "throughput: 5000 → 4500",
        ),
        // A 1 % move, and an improvement: it fails until re-pinned.
        (
            "bench",
            "tput1",
            bench_suite(1.0),
            bench_suite(1.01),
            "throughput: 5000 → 5050",
        ),
        (
            "detect",
            "ttd",
            detect_suite(1, 0, 0),
            detect_suite(2, 0, 0),
            "ttd_ms: 200 → 400",
        ),
        (
            "detect",
            "fp",
            detect_suite(1, 0, 0),
            detect_suite(1, 1, 0),
            "false_positives: 0 → 1",
        ),
        (
            "detect",
            "mis",
            detect_suite(1, 0, 0),
            detect_suite(1, 0, 1),
            "misattributions: 0 → 1",
        ),
        // Any subcommand holds a suite to every section it carries: a
        // doctored detect artifact fails `gate bench` the same way.
        (
            "bench",
            "cross",
            detect_suite(1, 0, 0),
            detect_suite(2, 0, 0),
            "ttd_ms: 200 → 400",
        ),
        (
            "scenario",
            "live",
            storm.clone(),
            flipped,
            "live: true → false",
        ),
        // The mitigation stopped working: the storm outlives its fault.
        (
            "scenario",
            "storm",
            storm.clone(),
            storm_suite(false, true, None, 6.1),
            "storm_sustained: false → true",
        ),
        // Still dissolves, but takes 2× as long.
        (
            "scenario",
            "tts",
            storm.clone(),
            storm_suite(true, false, Some(1600), 1.5),
            "tts_ms: 800 → 1600",
        ),
        // Dissolves faster: an improvement fails until re-pinned too.
        (
            "scenario",
            "tts_faster",
            storm,
            storm_suite(true, false, Some(400), 1.5),
            "tts_ms: 800 → 400",
        ),
    ];
    for (suite, name, baseline, current, metric) in cases {
        let (code, text) = diff(suite, name, &baseline, &current);
        assert_eq!(code, Some(1), "{name}: gate {suite} must exit 1:\n{text}");
        assert!(
            text.contains(metric),
            "{name}: failure report should name {metric:?}:\n{text}"
        );
        assert!(text.contains("--write-baseline"), "{name}: {text}");
    }
}

#[test]
fn missing_baseline_is_a_usage_error_not_a_regression() {
    let current = write_suite("nobase_cur", &bench_suite(1.0));
    for suite in ["bench", "detect", "scenario"] {
        let out = gate(&[
            suite,
            "--baseline",
            tmp("does_not_exist").to_str().unwrap(),
            "--current",
            current.to_str().unwrap(),
        ]);
        assert_eq!(
            out.status.code(),
            Some(2),
            "a missing baseline is exit 2 (setup problem), not exit 1 (regression)"
        );
    }
    let _ = std::fs::remove_file(current);
}

/// A suite file the strict parser refuses — a required column deleted,
/// a key held twice — is a setup problem (exit 2, naming the cell), not
/// a verdict.
#[test]
fn a_truncated_or_duplicated_suite_file_is_a_setup_error() {
    let good = bench_suite(1.0).to_json();
    let truncated: String = good
        .split_inclusive('\n')
        .filter(|line| !line.contains("\"crashed\""))
        .collect();
    let mut twice = bench_suite(1.0);
    twice.runs.push(twice.runs[0].clone());
    let base = write_suite("strict_base", &bench_suite(1.0));
    for (name, text, what) in [
        ("truncated", truncated, "\"crashed\""),
        ("twice", twice.to_json(), "duplicate"),
    ] {
        let cur = tmp(&format!("strict_{name}"));
        std::fs::write(&cur, text).expect("write suite file");
        for (baseline, current) in [(&base, &cur), (&cur, &base)] {
            let out = gate(&[
                "bench",
                "--baseline",
                baseline.to_str().unwrap(),
                "--current",
                current.to_str().unwrap(),
            ]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
            assert!(stderr.contains(what), "{name}: {stderr}");
            assert!(stderr.contains("DepFastRaft | 3_nodes | none"), "{stderr}");
        }
        let _ = std::fs::remove_file(cur);
    }
    let _ = std::fs::remove_file(base);
}

/// A typo must never silently become a live run that overwrites the
/// repo-root artifact: each of these exits 2 with usage on stderr
/// (instantly — a live run would take seconds and print cells).
#[test]
fn unknown_flags_and_missing_values_are_usage_errors() {
    // One flag of each pair would be silently ignored.
    let conflicts: [&[&str]; 4] = [
        &["bench", "--current", "x.json", "--write-baseline"],
        &["bench", "--write-baseline", "--current", "x.json"],
        &["bench", "--current", "x.json", "--out", "y.json"],
        &["bench", "--out", "y.json", "--write-baseline"],
    ];
    for args in [
        &["bench", "--curent", "x.json"][..],
        &["bench", "--current"],
        &["bench", "--current", "--baseline"],
        &["detect", "--reports"],
        conflicts[0],
        conflicts[1],
        conflicts[2],
        conflicts[3],
        &["benchmark"],
        &[],
    ] {
        let out = gate(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: gate"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} must not start a run");
        if conflicts.contains(&args) {
            let error = stderr.lines().next().unwrap_or_default();
            for flag in args.iter().filter(|a| a.starts_with("--")) {
                assert!(error.contains(flag), "{args:?} must name {flag}: {stderr}");
            }
        }
    }
    let help = gate(&["--help"]);
    assert_eq!(help.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&help.stdout).contains("usage: gate"));
}
