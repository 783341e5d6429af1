//! The retry-storm ablation pair, end to end: the unmitigated cell must
//! be genuinely metastable (goodput stays collapsed after the ledger
//! says the fault cleared, offered load amplified ≥ 2×), the
//! retry-budget cell must dissolve the same storm (finite
//! time-to-stabilize, verdict live), and the whole storm matrix must
//! render byte-identically across same-seed runs — the properties the
//! committed `BENCH_scenarios_baseline.json` pins and `gate scenario`
//! enforces.

use depfast_bench::suites::{storm_catalog, GATE_SEED, STORM_STALL_LIMIT};
use depfast_bench::{ScenarioRecord, Suite};

fn pick<'a>(cells: &'a [ScenarioRecord], name: &str) -> &'a ScenarioRecord {
    cells
        .iter()
        .find(|c| c.scenario == name)
        .unwrap_or_else(|| panic!("{name} missing from storm matrix"))
}

#[test]
fn storm_matrix_is_metastable_without_budget_and_deterministic() {
    let run = || -> Vec<ScenarioRecord> {
        storm_catalog()
            .iter()
            .map(|run| run.execute().survival(STORM_STALL_LIMIT).0)
            .collect()
    };
    let amp = |c: &ScenarioRecord| c.amp.expect("storm cells carry an amplification factor");
    let first = run();

    // Unmitigated cell: a 1 s fault births a storm the cluster never
    // escapes — zombie retries keep per-attempt latency above the
    // deadline long after the fault clears.
    let storm = pick(&first, "retry-storm");
    assert!(
        storm.score.storm_sustained,
        "retry-storm must sustain past the fault clearing"
    );
    assert!(
        storm.score.tts_ns.is_none(),
        "a sustained storm has no time-to-stabilize"
    );
    assert!(!storm.live, "metastable collapse must flunk liveness");
    assert!(
        amp(storm) >= 2.0,
        "offered load must be ≥ 2× goodput, got {:.2}",
        amp(storm)
    );

    // Same fault, same clients, plus a token-bucket retry budget: the
    // storm dissolves shortly after the fault clears.
    let budget = pick(&first, "retry-storm-budget");
    assert!(
        !budget.score.storm_sustained,
        "the retry budget must dissolve the storm"
    );
    let tts = budget
        .score
        .tts_ns
        .expect("a dissolved storm has a finite time-to-stabilize");
    assert!(
        tts <= 2_000_000_000,
        "time-to-stabilize {tts} ns outside the 2 s band"
    );
    assert!(budget.live, "the mitigated cell must stay live");
    assert!(
        amp(budget) < amp(storm),
        "admission control must cut amplification ({:.2} vs {:.2})",
        amp(budget),
        amp(storm)
    );

    // Determinism: a second same-seed run renders the identical report.
    let second = run();
    let report = |cells: Vec<ScenarioRecord>| {
        let mut suite = Suite::new("Retry-storm ablation", GATE_SEED);
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
