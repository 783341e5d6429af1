//! Integration acceptance for critical-path blame attribution: the same
//! disk fault on follower 2 is *absorbed* by DepFastRaft's quorum
//! structure (the slow node almost never bounds a commit) but lands on
//! the critical path of the TiDB-style sync driver (inline cold reads
//! blamed on the laggard), and the blame report, folded live from the
//! trace records, proves both.

use std::time::Duration;

use depfast_bench::{Artifact, Run};
use depfast_fault::FaultKind;
use depfast_raft::cluster::RaftKind;
use simkit::NodeId;

fn traced_cfg(kind: RaftKind) -> Run {
    let warmup = Duration::from_millis(500);
    let mut run = Run {
        kind,
        n_clients: 32,
        warmup,
        measure: Duration::from_secs(2),
        records: 10_000,
        ..Run::default()
    }
    .with_fault(
        [2],
        FaultKind::DiskSlow { bw_factor: 0.008 },
        warmup / 2,
        None,
    );
    run.instruments.trace = true;
    run
}

#[test]
fn depfast_quorum_keeps_the_disk_slow_follower_off_the_critical_path() {
    let run = traced_cfg(RaftKind::DepFast).execute();
    assert!(run.stats.ops > 100, "workload ran: {}", run.stats.ops);
    let report = run.blame.expect("traced");
    assert!(report.commits > 100, "commits analyzed: {}", report.commits);
    assert!(!report.total.is_zero(), "commits were blamed on someone");
    let share = report.node_share(NodeId(2));
    assert!(
        share < 0.10,
        "DepFastRaft must absorb the slow follower: node 2 carries {:.1}% of blame\n{}",
        share * 100.0,
        report.table()
    );
}

#[test]
fn sync_driver_blame_lands_on_the_disk_slow_follower() {
    // Larger values make the TiDB-style failure mode pronounced: cold
    // reads below the cache floor are byte-sized (inline on the region
    // thread) while apply cost is per-entry, so the laggard-induced disk
    // reads dominate the critical path — exactly the paper's §2 story.
    let cfg = Run {
        value_size: 4096,
        ..traced_cfg(RaftKind::Sync)
    };
    let run = cfg.execute();
    assert!(run.stats.ops > 100, "workload ran: {}", run.stats.ops);
    let report = run.blame.expect("traced");
    assert!(report.commits > 100, "commits analyzed: {}", report.commits);
    // Node 2 carries blame, and more than any other node does.
    let slow = report.node_share(NodeId(2));
    let others = report.by.keys().filter(|k| k.node != NodeId(2));
    assert!(
        slow > 0.0 && others.map(|k| report.node_share(k.node)).all(|s| s < slow),
        "SyncRaft's inline cold reads must put the laggard on top\n{}",
        report.table()
    );
}

#[test]
fn traced_runs_are_deterministic_and_exports_are_byte_identical() {
    let cfg = Run {
        measure: Duration::from_secs(1),
        ..traced_cfg(RaftKind::DepFast)
    };
    let (a, b) = (cfg.execute().artifact(), cfg.execute().artifact());
    assert_eq!(a, b, "same seed must record the same trace");
    let parsed = Artifact::parse(&a).expect("a fresh artifact parses");
    assert!(!parsed
        .trace
        .as_ref()
        .expect("trace section")
        .records
        .is_empty());
    assert!(parsed.chrome().starts_with("{\"displayTimeUnit\""));
}
