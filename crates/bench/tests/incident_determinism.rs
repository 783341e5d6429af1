//! Determinism of every incident artifact: two runs of the same seeded
//! configuration must produce byte-identical scorecard suite JSON, `.run`
//! files (incident dump, series, final metrics), and the timeline report
//! and Chrome incident track rendered from them. This is what lets
//! `BENCH_detect.json` be diffed in CI and `.run` files be attached to
//! bug reports as exact reproductions.

use std::time::Duration;

use depfast_bench::suites::GATE_SEED;
use depfast_bench::{Artifact, DetectRecord, Run, RunReport, Suite};
use depfast_detect::DetectorMode;
use depfast_fault::FaultKind;
use depfast_raft::cluster::RaftKind;

fn episode() -> RunReport {
    Run {
        kind: RaftKind::DepFast,
        n_clients: 32,
        warmup: Duration::from_secs(2),
        measure: Duration::from_millis(2400),
        records: 10_000,
        ..Run::default()
    }
    .with_detector(DetectorMode::SelfBaseline)
    .with_fault(
        [2],
        FaultKind::DiskSlow { bw_factor: 0.008 },
        Duration::from_secs(2),
        Some(Duration::from_millis(1000)),
    )
    .execute()
}

/// Suite JSON, `.run` text, and the report + Chrome track rendered from
/// the `.run` text alone.
fn artifacts(run: &RunReport) -> (String, String, String, String) {
    let mut suite = Suite::new("detect", GATE_SEED);
    suite.detect.push(DetectRecord::from_dump(&run.dump()));
    let text = run.artifact();
    let parsed = Artifact::parse(&text).expect("a fresh artifact parses");
    let (report, chrome) = (parsed.render(), parsed.chrome());
    (suite.to_json(), text, report, chrome)
}

#[test]
fn same_seed_episodes_produce_byte_identical_artifacts() {
    let a = episode();
    let b = episode();
    let (suite_a, run_a, report_a, chrome_a) = artifacts(&a);
    let (suite_b, run_b, report_b, chrome_b) = artifacts(&b);
    assert!(
        !a.health.is_empty(),
        "episode produced no health events; the determinism check would be vacuous"
    );
    assert!(report_a.contains("incident report"), "{report_a}");
    assert!(chrome_a.contains("\"incidents\""), "no incident track");
    assert_eq!(suite_a, suite_b, "scorecard suite JSON must be byte-stable");
    assert_eq!(run_a, run_b, "the .run artifact must be byte-stable");
    assert_eq!(report_a, report_b, "timeline report must be byte-stable");
    assert_eq!(
        chrome_a, chrome_b,
        "Chrome incident track must be byte-stable"
    );
}
