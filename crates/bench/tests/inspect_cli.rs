//! End-to-end acceptance for the one run artifact and its one viewer: a
//! fixed-seed short disk-slow run with trace + profiler + detector on is
//! exported, parses back to the report's own records, dump and profile
//! lines, and drives the real `depfast-inspect` binary — exit 0 with all
//! three renderings (and one Chrome file carrying the incident track
//! *over* the trace), exit 1 naming `file:line` on a truncated section,
//! exit 2 with usage on a CLI mistake.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::OnceLock;
use std::time::Duration;

use depfast_bench::{out_dir, Artifact, Json, Run, RunReport};
use depfast_detect::DetectorMode;
use depfast_fault::FaultKind;

fn short_disk_slow() -> RunReport {
    let warmup = Duration::from_millis(1200);
    let mut run = Run {
        n_clients: 16,
        warmup,
        measure: Duration::from_millis(800),
        records: 10_000,
        ..Run::default()
    }
    .with_detector(DetectorMode::SelfBaseline)
    .with_fault([2], FaultKind::DiskSlow { bw_factor: 0.008 }, warmup, None);
    run.instruments.trace = true;
    run.instruments.profiler = true;
    run.execute()
}

/// The exported fixture, written once per test process.
fn exported() -> &'static PathBuf {
    static PATH: OnceLock<PathBuf> = OnceLock::new();
    PATH.get_or_init(|| {
        short_disk_slow()
            .export("test_inspect_cli")
            .expect("write run artifact")
    })
}

fn inspect(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_depfast-inspect"))
        .args(args)
        .output()
        .expect("spawn depfast-inspect")
}

#[test]
fn export_round_trips_and_is_byte_identical_across_same_seed_runs() {
    let (a, b) = (short_disk_slow(), short_disk_slow());
    let text = a.artifact();
    assert_eq!(text, b.artifact(), "same seed, same .run bytes");
    let parsed = Artifact::parse(&text).expect("a fresh artifact parses");

    let trace = parsed.trace.as_ref().expect("trace section");
    assert!(!a.records.is_empty(), "tracing recorded nothing");
    assert_eq!(trace.dropped, a.trace_dropped);
    // TraceRecord has no PartialEq; Debug is exhaustive.
    assert_eq!(format!("{:?}", trace.records), format!("{:?}", a.records));

    let (dump, back) = (a.dump(), &parsed.dumps[0]);
    assert_eq!(parsed.dumps.len(), 1, "single group: no per-group split");
    assert!(
        !dump.events.is_empty(),
        "the episode recorded no health events"
    );
    assert_eq!((&back.driver, &back.fault), (&dump.driver, &dump.fault));
    assert_eq!((back.seed, back.end_ns), (dump.seed, dump.end_ns));
    assert_eq!(back.faults, dump.faults);
    assert_eq!(back.events, dump.events);
    // The series is written to six decimals.
    assert_eq!(back.throughput.len(), dump.throughput.len());
    for (x, y) in back.throughput.iter().zip(&dump.throughput) {
        assert!(x.0 == y.0 && (x.1 - y.1).abs() < 1e-6, "{x:?} vs {y:?}");
    }

    let profile = parsed.profile.as_ref().expect("profile section");
    let profiler = a.profiler.as_ref().expect("profiler was on");
    assert_eq!(profile.driver, profiler.driver());
    assert_eq!(profile.lines, profiler.lines());
    assert!(parsed.series.is_some() && parsed.metrics.is_some());
}

#[test]
fn inspect_renders_every_section_of_an_exported_run() {
    let path = exported().to_str().unwrap();
    let out = inspect(&[path]);
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    for rendering in [
        "series: ",
        "critical-path blame over",
        "Top wait sites — DepFastRaft",
        "incident report · driver=DepFastRaft fault=Disk Slowness",
        "scorecard:",
    ] {
        assert!(
            stdout.contains(rendering),
            "missing {rendering:?}:\n{stdout}"
        );
    }

    // One Chrome file: the incident lane over the trace's own slices.
    let dir = out_dir().unwrap();
    let (chrome, svg) = (
        dir.join("test_inspect_cli.json"),
        dir.join("test_inspect_cli.svg"),
    );
    let out = inspect(&[
        path,
        "--chrome",
        chrome.to_str().unwrap(),
        "--svg",
        svg.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0));
    let json = std::fs::read_to_string(&chrome).expect("chrome file written");
    assert!(json.contains("\"cat\":\"incident\""), "no incident track");
    assert!(json.contains("\"cat\":\"quorum\""), "no trace slices");
    let parsed = Json::parse(&json).expect("the chrome file is JSON");
    let events = parsed.get("traceEvents").and_then(Json::as_arr);
    assert!(events.is_some_and(|e| !e.is_empty()), "no traceEvents");
    assert!(std::fs::read_to_string(&svg).unwrap().starts_with("<svg"));
}

#[test]
fn a_truncated_section_exits_1_naming_file_and_line() {
    let text = std::fs::read_to_string(exported()).unwrap();
    // Cut line 50 (inside the trace section) off after its tag.
    let cut_line = 50;
    let mut kept: String = text.split_inclusive('\n').take(cut_line - 1).collect();
    let line = text.lines().nth(cut_line - 1).unwrap();
    kept.push_str(&line[..=line.find('\t').unwrap()]);
    let path = out_dir().unwrap().join("test_inspect_cli_truncated.run");
    std::fs::write(&path, kept).unwrap();

    let out = inspect(&[path.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    let at = format!("{}:{cut_line}:", path.display());
    assert!(stderr.contains(&at), "expected {at:?} in: {stderr}");

    let out = inspect(&[out_dir().unwrap().join("no_such.run").to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "an unreadable file is exit 1");
}

/// A typo must never silently become a different rendering: each of
/// these exits 2 with usage on stderr and prints nothing.
#[test]
fn unknown_flags_and_missing_values_are_usage_errors() {
    for args in [
        &["x.run", "--chrom", "out.json"][..],
        &["x.run", "--top", "5"],
        &["x.run", "--band", "0.8"],
        &["x.run", "--chrome"],
        &["x.run", "--svg", "--chrome", "out.json"],
        &["x.run", "y.run", "--chrome", "out.json"],
        &["--chrome", "out.json"],
        &[],
    ] {
        let out = inspect(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage: depfast-inspect"),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} must not render");
    }
    let help = inspect(&["--help"]);
    assert_eq!(help.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&help.stdout).contains("usage: depfast-inspect"));
}
