//! Tier-1 smoke test of the regression gate, its suite format and the
//! run-artifact path, so `cargo test -q` at the root cannot be green
//! while any is broken: every committed suite file parses, re-serialises
//! to its own bytes and diffs empty against itself, and a doctored copy
//! both diffs and serialises differently; a
//! baseline that lost a required column or carries one key twice is
//! refused instead of silently passing everything; two live
//! gate cells — the healthy DepFastRaft and SyncRaft cells of `gate
//! bench`, so a drift in the legacy drivers shows as well — still equal
//! their committed records field for field; and a run with every
//! instrument on survives `.run` text → parse → render.

use std::time::Duration;

use depfast_bench::suites::bench_cell;
use depfast_bench::{repo_root, Artifact, Run, Suite};
use depfast_detect::DetectorMode;
use depfast_fault::FaultKind;
use depfast_raft::cluster::RaftKind;

fn committed(name: &str) -> (String, Suite) {
    let path = repo_root().join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let suite = Suite::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
    (text, suite)
}

#[test]
fn committed_baselines_round_trip_and_self_compare_green() {
    for (name, cells) in [
        ("BENCH_baseline.json", 5),
        ("BENCH_detect_baseline.json", 20),
        ("BENCH_scenarios_baseline.json", 41),
        // The one with `profile` arrays, `8g9n/g3`-style cluster labels
        // and a crashed cell.
        ("BENCH_fig1.json", 50),
    ] {
        let (text, suite) = committed(name);
        assert_eq!(suite.cells(), cells, "{name}: cell count");
        assert_eq!(
            suite.to_json(),
            text,
            "{name} must re-serialise to its own bytes"
        );
        assert_eq!(suite.diff(&suite), Vec::<String>::new(), "{name}");
        // `diff` is empty exactly when the bytes are equal: one column
        // of one cell, moved by a hundredth, is one line and one
        // byte-level difference.
        let mut doctored = suite.clone();
        let column = if let Some(cell) = doctored.runs.last_mut() {
            cell.throughput += 0.01;
            "throughput"
        } else if let Some(cell) = doctored.detect.last_mut() {
            cell.score.false_positives += 1;
            "false_positives"
        } else {
            doctored.scenarios[0].p99_ms += 0.01;
            "p99_ms"
        };
        assert_ne!(suite.to_json(), doctored.to_json(), "{name}");
        let differences = suite.diff(&doctored);
        assert_eq!(differences.len(), 1, "{name}: {differences:?}");
        let named = format!("] {column}: ");
        assert!(differences[0].contains(&named), "{name}: {differences:?}");
    }
}

/// Every column that is always written is required on read: a baseline
/// with its `live` and `detected` lines deleted used to parse, default
/// both to false, and then pass an all-dead, all-undetected suite.
#[test]
fn a_baseline_missing_a_required_column_is_refused_by_name() {
    let (text, _) = committed("BENCH_scenarios_baseline.json");
    for field in ["live", "detected", "stall_ms", "false_positives"] {
        let key = format!("\"{field}\": ");
        let doctored: String = text
            .split_inclusive('\n')
            .filter(|line| !line.trim_start().starts_with(&key))
            .collect();
        assert_ne!(doctored, text, "{field}: nothing was deleted");
        let e = Suite::parse(&doctored).expect_err("a truncated baseline must not parse");
        for what in ["\"scenarios\"", "disk-slow-follower | DepFastRaft", field] {
            assert!(e.contains(what), "{field}: error should name {what}: {e}");
        }
    }
    // The documented optionals may be absent: the committed file has
    // cells without `ttm_ms` and without the storm part.
    assert!(text.matches("\"ttd_ms\"").count() > text.matches("\"ttm_ms\"").count());
    for meta in ["suite", "seed"] {
        let doctored = text.replacen(&format!("\"{meta}\":"), "\"x\":", 1);
        let e = Suite::parse(&doctored).expect_err("provenance is required");
        assert!(e.contains(meta), "{e}");
    }
}

/// Cells are matched by key, so the second holder of a key would never
/// be looked at: a file carrying one is a parse error, a live suite
/// carrying one is a difference, both naming the key.
#[test]
fn a_duplicate_cell_key_is_refused_by_name() {
    let (_, baseline) = committed("BENCH_baseline.json");
    let mut doctored = baseline.clone();
    let mut copy = doctored.runs[0].clone();
    copy.throughput = 1.0;
    doctored.runs.push(copy);
    let differences = baseline.diff(&doctored);
    assert_eq!(differences.len(), 1, "{differences:?}");
    for what in ["duplicate", "DepFastRaft |  | none"] {
        assert!(differences[0].contains(what), "{differences:?}");
    }
    let e = Suite::parse(&doctored.to_json()).expect_err("duplicate keys must not parse");
    assert!(
        e.contains("duplicate") && e.contains("DepFastRaft |  | none"),
        "{e}"
    );
}

#[test]
fn live_healthy_cells_equal_their_committed_records() {
    let (_, baseline) = committed("BENCH_baseline.json");
    // (driver, index of its healthy cell in the committed suite)
    for (kind, cell) in [(RaftKind::DepFast, 0), (RaftKind::Sync, 2)] {
        let run = bench_cell(kind).execute();
        let record = run.perf(kind.name(), "none", "");
        // Through the artifact format, which is where the rounding lives.
        let mut live = Suite::new(&baseline.suite, baseline.seed);
        live.runs.push(record);
        let live = Suite::parse(&live.to_json()).expect("a fresh suite parses");
        assert_eq!(live.runs[0], baseline.runs[cell], "{}", kind.name());
    }
}

/// What `depfast-inspect` does, minus the argv: a short disk-slow run
/// with trace + profiler + detector on renders all of its sections from
/// the `.run` text alone, and a cut-off file is refused with its line.
#[test]
fn a_run_artifact_parses_and_renders_every_section() {
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
    let text = run.execute().artifact();
    let artifact = Artifact::parse(&text).expect("a fresh artifact parses");
    let rendered = artifact.render();
    for rendering in [
        "series: ",
        "critical-path blame over",
        "Top wait sites",
        "incident report",
    ] {
        assert!(
            rendered.contains(rendering),
            "missing {rendering:?}:\n{rendered}"
        );
    }
    // Line 50 is a trace record; keep its tag and drop the rest.
    let head: usize = text.split_inclusive('\n').take(49).map(str::len).sum();
    let cut = head + text[head..].find('\t').expect("a record has fields") + 1;
    let e = Artifact::parse(&text[..cut]).err().expect("cut mid-record");
    assert_eq!(e.line, 50, "{e}");
}
