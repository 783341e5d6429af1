//! Tier-1 smoke test of the regression gate and its artifact format, so
//! `cargo test -q` at the root cannot be green while either is broken:
//! every committed baseline parses, re-serialises to its own bytes and
//! self-compares green over all of its cells, and two live gate cells —
//! the healthy DepFastRaft and SyncRaft cells of `gate bench`, so a drift
//! in the legacy drivers shows as well — still equal their committed
//! records field for field.

use depfast_bench::suites::bench_cell;
use depfast_bench::{compare, repo_root, RunRecord, Suite};
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
        ("BENCH_scenarios_baseline.json", 42),
    ] {
        let (text, suite) = committed(name);
        assert_eq!(suite.cells(), cells, "{name}: cell count");
        assert_eq!(
            suite.to_json(),
            text,
            "{name} must re-serialise to its own bytes"
        );
        let outcome = compare(&suite, &suite);
        assert!(outcome.passed(), "{name}: {:?}", outcome.failures);
        assert!(outcome.notes.is_empty(), "{name}: {:?}", outcome.notes);
        assert_eq!(outcome.checked, cells, "{name}: every cell is checked");
    }
}

#[test]
fn live_healthy_cells_equal_their_committed_records() {
    let (_, baseline) = committed("BENCH_baseline.json");
    // (driver, index of its healthy cell in the committed suite)
    for (kind, cell) in [(RaftKind::DepFast, 0), (RaftKind::Sync, 2)] {
        let run = bench_cell(kind).execute();
        let record = RunRecord::from_stats(
            kind.name(),
            "none",
            "",
            &run.stats,
            None,
            run.profiler.as_ref(),
        );
        // Through the artifact format, which is where the rounding lives.
        let mut live = Suite::new(&baseline.suite, baseline.seed);
        live.runs.push(record);
        let live = Suite::parse(&live.to_json()).expect("a fresh suite parses");
        assert_eq!(live.runs[0], baseline.runs[cell], "{}", kind.name());
    }
}
