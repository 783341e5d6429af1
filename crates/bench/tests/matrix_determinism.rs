//! Matrix-runner determinism and detector-track behavior, end to end:
//! same-seed sub-matrices render byte-identical survival reports, the
//! correlated-pair cell is caught by the fallback track that the
//! peer-relative signal alone misses, and survival regressions doctored
//! into a recorded suite fail the gate comparison.

use depfast_bench::suites::{matrix_cell, GATE_SEED};
use depfast_bench::{compare, render_survival_report, ScenarioRecord, Suite, SurvivalCell};
use depfast_raft::cluster::RaftKind;
use depfast_scenario::catalog;

/// One matrix cell, the way `gate scenario` runs it.
fn run_cell(name: &str, kind: RaftKind) -> SurvivalCell {
    let scenario = catalog()
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("{name} missing from catalog"));
    matrix_cell(&scenario, kind).expect("catalog scenarios compile on the matrix shape")
}

/// Two same-seed runs of the same sub-matrix — including a flapping
/// schedule and the mitigation-wired leader cell — produce byte-identical
/// survival reports.
#[test]
fn same_seed_sub_matrix_renders_byte_identical_reports() {
    let run = || {
        let mut cells = Vec::new();
        for scenario in ["flapping-disk-follower", "leader-cpu-slow"] {
            for kind in [RaftKind::DepFast, RaftKind::Chain] {
                cells.push(run_cell(scenario, kind));
            }
        }
        render_survival_report("Scenario survival matrix", &cells, GATE_SEED)
    };
    let first = run();
    let second = run();
    assert!(!first.is_empty());
    assert_eq!(first, second, "same-seed reports must be byte-identical");
}

/// The correlated two-follower cell is exactly the regime where the
/// peer-relative signal degenerates (each slow node's peers are equally
/// slow): the matrix detector's fallback track must still catch it, and
/// inside the recovery band.
#[test]
fn correlated_pair_cell_is_detected_via_the_fallback_track() {
    let cell = run_cell("correlated-disk-pair", RaftKind::DepFast);
    assert!(cell.score.detected, "correlated slowness must be detected");
    assert_eq!(
        cell.score.false_negatives, 0,
        "no faulted node may be missed"
    );
    let ttd = cell.score.ttd_ns.expect("detected implies a TTD");
    assert!(
        ttd <= 1_000_000_000,
        "TTD {ttd}ns outside the 1s band for an in-window detection"
    );
    // The timeline itself shows which track fired: correlated slowness is
    // only visible to the absolute-baseline fallback.
    let suspect_evidence: Vec<&str> = cell
        .dump
        .events
        .iter()
        .filter(|e| e.transition == "suspect")
        .map(|e| e.evidence.as_str())
        .collect();
    assert!(
        suspect_evidence.iter().any(|e| e.contains("[fallback]")),
        "expected a fallback-track suspicion, got {suspect_evidence:?}"
    );
}

/// Doctoring a recorded suite — liveness flip or a 2× TTD — turns a
/// passing gate comparison into a failing one (the CI contract the
/// committed `BENCH_scenarios_baseline.json` rides on).
#[test]
fn doctored_survival_records_fail_the_gate_comparison() {
    let cell = run_cell("disk-slow-follower", RaftKind::DepFast);
    let record = ScenarioRecord::from_cell(&cell);
    assert!(
        record.live && record.quality.detected,
        "healthy baseline cell expected"
    );
    let mut baseline = Suite::new("scenarios", GATE_SEED);
    baseline.scenarios = vec![record.clone()];

    // Identical current suite: pass.
    let mut current = Suite::new("scenarios", GATE_SEED);
    current.scenarios = vec![record.clone()];
    assert!(compare(&baseline, &current).passed());

    // Liveness flip: fail.
    let mut flipped = record.clone();
    flipped.live = false;
    current.scenarios = vec![flipped];
    let outcome = compare(&baseline, &current);
    assert!(!outcome.passed());
    assert!(
        outcome.failures.iter().any(|f| f.contains("liveness")),
        "failures: {:?}",
        outcome.failures
    );

    // 2× TTD: fail (default band is +50% + 50ms on a 200ms TTD).
    let mut slower = record.clone();
    slower.quality.ttd_ms = record.quality.ttd_ms.map(|v| v * 2.0);
    current.scenarios = vec![slower];
    let outcome = compare(&baseline, &current);
    assert!(!outcome.passed());
    assert!(
        outcome
            .failures
            .iter()
            .any(|f| f.contains("time-to-detect")),
        "failures: {:?}",
        outcome.failures
    );
}
