//! Determinism of every incident artifact: two runs of the same seeded
//! configuration must produce byte-identical scorecard suite JSON,
//! incident serial dumps, timeline reports, and Chrome incident tracks.
//! This is what lets `BENCH_detect.json` be diffed in CI and incident
//! dumps be attached to bug reports as exact reproductions.

use std::time::Duration;

use depfast_bench::suites::gate_detector_cfg;
use depfast_bench::{DetectRecord, Run, Suite};
use depfast_fault::FaultKind;
use depfast_incident::{
    incident_track, render_report, score, serialize_dumps, IncidentDump, RECOVERY_BAND,
};
use depfast_raft::cluster::RaftKind;
use depfast_trace_analysis::{chrome_trace_with_incidents, TraceIndex};

fn episode() -> IncidentDump {
    Run {
        kind: RaftKind::DepFast,
        n_clients: 32,
        warmup: Duration::from_secs(2),
        measure: Duration::from_millis(2400),
        records: 10_000,
        ..Run::default()
    }
    .with_detector(gate_detector_cfg())
    .with_fault(
        [2],
        FaultKind::DiskSlow { bw_factor: 0.008 },
        Duration::from_secs(2),
        Some(Duration::from_millis(1000)),
    )
    .execute()
    .dump()
}

fn artifacts(dump: &IncidentDump) -> (String, String, String, String) {
    let cell = score(dump, RECOVERY_BAND);
    let mut suite = Suite::new("detect", 20210531);
    suite.detect.push(DetectRecord::from_cell(dump, &cell));
    let (spans, marks) = incident_track(dump);
    let chrome = chrome_trace_with_incidents(&TraceIndex::build(&[]), &spans, &marks);
    (
        suite.to_json(),
        serialize_dumps(std::slice::from_ref(dump)),
        render_report(dump, &cell),
        chrome,
    )
}

#[test]
fn same_seed_episodes_produce_byte_identical_artifacts() {
    let a = episode();
    let b = episode();
    let (suite_a, dump_a, report_a, chrome_a) = artifacts(&a);
    let (suite_b, dump_b, report_b, chrome_b) = artifacts(&b);
    assert!(
        !a.events.is_empty(),
        "episode produced no health events; the determinism check would be vacuous"
    );
    assert_eq!(suite_a, suite_b, "scorecard suite JSON must be byte-stable");
    assert_eq!(dump_a, dump_b, "incident serial dump must be byte-stable");
    assert_eq!(report_a, report_b, "timeline report must be byte-stable");
    assert_eq!(
        chrome_a, chrome_b,
        "Chrome incident track must be byte-stable"
    );
}
