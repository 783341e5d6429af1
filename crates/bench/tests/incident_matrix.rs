//! The no-fault matrix: every driver, across seeds, with the fail-slow
//! detector attached, must produce an EMPTY incident timeline and an
//! all-zero scorecard. This is the false-positive floor the detector
//! scorecard is judged against — a healthy cluster that trips suspicion,
//! quarantine, or mitigation anywhere in the matrix is a regression,
//! whatever its size.

use std::time::Duration;

use depfast_bench::Run;
use depfast_detect::DetectorMode;
use depfast_incident::{score, ScoreCell};
use depfast_raft::cluster::RaftKind;

const DRIVERS: [RaftKind; 5] = [
    RaftKind::DepFast,
    RaftKind::Sync,
    RaftKind::Backlog,
    RaftKind::Callback,
    RaftKind::Chain,
];

const SEEDS: [u64; 3] = [7, 1234, 20210531];

fn healthy_cfg(kind: RaftKind, seed: u64) -> Run {
    Run {
        kind,
        n_clients: 16,
        seed,
        warmup: Duration::from_millis(600),
        // Long enough for the detector to warm up (5 × 200 ms windows)
        // AND judge several live windows afterwards.
        measure: Duration::from_millis(2400),
        records: 10_000,
        ..Run::default()
    }
    .with_detector(DetectorMode::SelfBaseline)
}

#[test]
fn no_fault_matrix_is_silent_and_scores_all_zero() {
    for kind in DRIVERS {
        for seed in SEEDS {
            let dump = healthy_cfg(kind, seed).execute().dump();
            assert!(
                dump.faults.is_empty(),
                "{} seed {seed}: no fault was injected but the ledger has {} record(s)",
                kind.name(),
                dump.faults.len()
            );
            assert!(
                dump.events.is_empty(),
                "{} seed {seed}: healthy run produced health events: {:?}",
                kind.name(),
                dump.events
            );
            let cell = score(&dump);
            assert_eq!(
                cell,
                ScoreCell::default(),
                "{} seed {seed}: healthy run must score all-zero",
                kind.name()
            );
        }
    }
}
