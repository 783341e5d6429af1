//! Matrix-runner determinism and detector-track behavior, end to end:
//! same-seed sub-matrices render byte-identical survival reports, the
//! correlated-pair cell is caught by the fallback track that the
//! peer-relative signal alone misses, survival moves doctored into a
//! recorded suite are differences naming their column, and the scenario
//! counters audit what a cell actually injected.

use depfast_bench::suites::{episode, matrix_cell, GATE_SEED};
use depfast_bench::{ScenarioRecord, Suite};
use depfast_detect::DetectorMode;
use depfast_incident::IncidentDump;
use depfast_metrics::Key;
use depfast_raft::cluster::RaftKind;
use depfast_scenario::{catalog, Schedule};

/// One matrix cell, the way `gate scenario` runs it.
fn run_cell(name: &str, kind: RaftKind) -> (ScenarioRecord, IncidentDump) {
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
        let mut suite = Suite::new("Scenario survival matrix", GATE_SEED);
        for scenario in ["flapping-disk-follower", "leader-cpu-slow"] {
            for kind in [RaftKind::DepFast, RaftKind::Chain] {
                suite.scenarios.push(run_cell(scenario, kind).0);
            }
        }
        suite.render_cells()
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
    let (cell, dump) = run_cell("correlated-disk-pair", RaftKind::DepFast);
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
    let suspect_evidence: Vec<&str> = dump
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

/// Doctoring a recorded suite — liveness flip or a 2× TTD — turns an
/// empty diff into one naming the moved column (the CI contract the
/// committed `BENCH_scenarios_baseline.json` rides on).
#[test]
fn doctored_survival_records_fail_the_gate_comparison() {
    let (record, _) = run_cell("disk-slow-follower", RaftKind::DepFast);
    assert!(
        record.live && record.score.detected,
        "healthy baseline cell expected"
    );
    let key = format!("[{} | {}]", record.scenario, record.driver);
    let mut baseline = Suite::new("scenarios", GATE_SEED);
    baseline.scenarios = vec![record.clone()];

    // Identical current suite: pass.
    let mut current = baseline.clone();
    assert_eq!(baseline.diff(&current), Vec::<String>::new());

    // Liveness flip: fail.
    current.scenarios[0].live = false;
    assert_eq!(
        baseline.diff(&current),
        [format!("{key} live: true → false")]
    );

    // 2× TTD: fail.
    let mut slower = record.clone();
    slower.score.ttd_ns = record.score.ttd_ns.map(|v| v * 2);
    current.scenarios = vec![slower];
    let differences = baseline.diff(&current);
    assert_eq!(differences.len(), 1, "{differences:?}");
    assert!(
        differences[0].starts_with(&format!("{key} ttd_ms: ")),
        "{differences:?}"
    );
}

/// The audit `docs/OBSERVABILITY.md` promises: `scenario.windows.armed`
/// equals the plan's window count, and a load-triggered cell whose
/// commit threshold is crossed shows every trigger in
/// `scenario.trigger.fired` — a cell that silently tested nothing would
/// read 0.
#[test]
fn the_scenario_counters_equal_the_plan_that_ran() {
    let mut load_triggered = 0;
    for scenario in catalog() {
        let triggered = matches!(scenario.schedule, Schedule::LoadTriggered { .. });
        if !triggered && scenario.name != "flapping-disk-follower" {
            continue;
        }
        load_triggered += usize::from(triggered);
        let run = episode(RaftKind::DepFast, DetectorMode::PeerWithFallback)
            .with_scenario(&scenario)
            .expect("catalog scenarios compile on the matrix shape");
        assert_eq!(
            triggered,
            !run.plan.triggers.is_empty(),
            "{}",
            scenario.name
        );
        assert_eq!(triggered, run.plan.windows.is_empty(), "{}", scenario.name);
        let report = run.execute();
        let count = |name| report.metrics.counter(Key::global(name)).get() as usize;
        assert_eq!(
            count("scenario.windows.armed"),
            run.plan.windows.len(),
            "{}",
            scenario.name
        );
        assert_eq!(
            count("scenario.trigger.fired"),
            run.plan.triggers.len(),
            "{}",
            scenario.name
        );
    }
    assert_eq!(load_triggered, 1, "the catalog has one load-triggered cell");
}
