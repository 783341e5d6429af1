//! The retry-storm cell, end to end: it must stabilise after the
//! leader's 1 s CPU fault clears, and it must render byte-identically
//! across same-seed runs — the properties the committed
//! `BENCH_scenarios_baseline.json` pins and `gate scenario` enforces.
//!
//! The cell used to be "metastable", and the cause was
//! not the retries alone. The starved leader filled both followers' append
//! windows, so both were quarantined, and a quorum then needed one of them
//! to drain lazy catch-up chunks. The catch-up law judged a chunk by how
//! long its drain took to be *seen* — the leader's own round trip and its
//! next heartbeat's probe included — so the followers were never resumed:
//! commits crawled at the catch-up pace, every attempt timed out, and the
//! storm outlived the fault. Judged by whether each chunk gained on the
//! leader, the followers are resumed 0.76 s after the fault clears and the
//! storm dissolves with clients that retry at once.

use depfast_bench::suites::{storm_catalog, GATE_SEED, STORM_STALL_LIMIT};
use depfast_bench::{ScenarioRecord, Suite};

fn pick<'a>(cells: &'a [ScenarioRecord], name: &str) -> &'a ScenarioRecord {
    cells
        .iter()
        .find(|c| c.scenario == name)
        .unwrap_or_else(|| panic!("{name} missing from storm matrix"))
}

/// Asserts that `cell` stabilised within `tts_max_ns` of the fault
/// clearing and stayed live.
fn assert_stabilises(cell: &ScenarioRecord, tts_max_ns: u64) {
    let name = &cell.scenario;
    assert!(
        !cell.score.storm_sustained,
        "{name}: the storm must not outlive the fault"
    );
    let tts = cell
        .score
        .tts_ns
        .unwrap_or_else(|| panic!("{name}: a dissolved storm has a finite time-to-stabilize"));
    assert!(
        tts <= tts_max_ns,
        "{name}: time-to-stabilize {tts} ns outside the {tts_max_ns} ns band"
    );
    assert!(cell.live, "{name}: the cell must stay live");
}

#[test]
fn the_storm_cell_stabilises_and_renders_deterministically() {
    let run = || -> Vec<ScenarioRecord> {
        storm_catalog()
            .iter()
            .map(|run| run.execute().survival(STORM_STALL_LIMIT).0)
            .collect()
    };
    let amp = |c: &ScenarioRecord| c.amp.expect("storm cells carry an amplification factor");
    let first = run();

    // The followers rejoin the quorum, zombie attempts stop timing out,
    // and offered load falls back to about one attempt per fresh op.
    let storm = pick(&first, "retry-storm");
    assert_stabilises(storm, 2_000_000_000);
    assert!(
        amp(storm) < 2.0,
        "offered load must fall back below 2× goodput, got {:.2}",
        amp(storm)
    );

    // Determinism: a second same-seed run renders the identical report.
    let second = run();
    let report = |cells: Vec<ScenarioRecord>| {
        let mut suite = Suite::new("Retry storm", GATE_SEED);
        suite.scenarios = cells;
        suite.render_cells()
    };
    let (report_a, report_b) = (report(first), report(second));
    assert!(report_a.contains("| Amp "), "storm tables carry Amp");
    assert_eq!(
        report_a, report_b,
        "same-seed storm reports must be byte-identical"
    );
}
