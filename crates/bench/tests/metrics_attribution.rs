//! End-to-end attribution check for the observability layer: inject a
//! disk-bandwidth fault into one follower of a 3-node DepFastRaft
//! cluster and verify the story the metrics tell (the paper's §2.3
//! argument made executable):
//!
//! * the fault is identifiable from the substrate series alone —
//!   `sim.disk.service` inflates on the faulted node and nowhere else;
//! * the consensus layer shields clients — the leader's
//!   `raft.commit_lag` drifts by less than 5% versus the no-fault run;
//! * the straggler counters name the slow follower — quorums complete
//!   without it, and `event.quorum.straggler` points at it.

use std::time::Duration;

use depfast_bench::{Instruments, Run, RunReport};
use depfast_fault::FaultKind;
use depfast_metrics::Key;
use depfast_raft::cluster::RaftKind;

const SLOW: u32 = 1;

fn run(fault: Option<FaultKind>) -> RunReport {
    let warmup = Duration::from_millis(600);
    let run = Run {
        kind: RaftKind::DepFast,
        n_clients: 64,
        warmup,
        measure: Duration::from_secs(2),
        records: 10_000,
        instruments: Instruments {
            sampler: true,
            ..Instruments::default()
        },
        ..Run::default()
    };
    match fault {
        Some(f) => run.with_fault([SLOW], f, warmup / 2, None),
        None => run,
    }
    .execute()
}

#[test]
fn disk_fault_shows_in_substrate_metrics_but_not_commit_lag() {
    let base = run(None);
    let faulted = run(Some(FaultKind::DiskSlow { bw_factor: 0.1 }));
    assert!(!base.stats.server_crashed && !faulted.stats.server_crashed);

    // 1. Fault class: the faulted node's disk service time inflates
    //    (bandwidth cut to 10% ≈ 10× slower writes) …
    let disk_mean = |run: &RunReport, node: u32| {
        let snap = run
            .metrics
            .histogram(Key::node("sim.disk.service", node))
            .snapshot();
        assert!(snap.count > 0, "node {node} recorded no disk ops");
        snap.mean_ns as f64
    };
    let slow_ratio = disk_mean(&faulted, SLOW) / disk_mean(&base, SLOW);
    assert!(
        slow_ratio > 3.0,
        "faulted node's disk service should inflate: {slow_ratio:.2}x"
    );
    // … while the healthy follower's disk stays flat.
    let healthy_ratio = disk_mean(&faulted, 2) / disk_mean(&base, 2);
    assert!(
        healthy_ratio < 1.5,
        "healthy node's disk should stay flat: {healthy_ratio:.2}x"
    );

    // 2. Fault isolation: DepFastRaft commits on the majority quorum, so
    //    the leader's commit lag barely moves.
    let commit_mean = |run: &RunReport| {
        let snap = run
            .metrics
            .histogram(Key::node("raft.commit_lag", 0))
            .snapshot();
        assert!(snap.count > 0, "leader recorded no commits");
        snap.mean_ns as f64
    };
    let drift = (commit_mean(&faulted) - commit_mean(&base)).abs() / commit_mean(&base);
    assert!(
        drift < 0.05,
        "commit lag should drift <5% under a minority disk fault: {:.1}%",
        drift * 100.0
    );

    // 3. Attribution: the straggler counters name the slow follower
    //    (tagged with the quorum's label, "replicate" in DepFastRaft).
    let stragglers = |run: &RunReport, node: u32| {
        run.metrics
            .counter(Key::tagged("event.quorum.straggler", node, "replicate"))
            .get()
    };
    let slow = stragglers(&faulted, SLOW);
    let healthy = stragglers(&faulted, 2);
    assert!(
        slow > 10 * healthy.max(1),
        "straggler counters should single out node {SLOW}: slow={slow} healthy={healthy}"
    );

    // The time series is populated and carries the same story.
    assert!(faulted.sampler.rows().len() > 10);
    assert!(faulted.sampler.to_csv().contains("sim.disk.service"));
}
