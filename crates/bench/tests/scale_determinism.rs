//! Determinism of the multi-group cluster: two runs of the same seeded
//! sharded configuration must agree operation for operation — identical
//! per-group statistics and byte-identical per-group incident dumps and
//! reports. Multi-group routing, co-located group scheduling, and the
//! group-scoped serial format all sit on this.

use std::time::Duration;

use depfast_bench::{striped, Run, RunReport};
use depfast_detect::DetectorMode;
use depfast_fault::FaultKind;
use depfast_incident::{render_report, score};
use depfast_raft::cluster::RaftKind;

fn episode() -> RunReport {
    Run {
        kind: RaftKind::DepFast,
        placement: striped(4, 5),
        n_clients: 48,
        warmup: Duration::from_secs(2),
        measure: Duration::from_millis(2400),
        records: 10_000,
        ..Run::default()
    }
    .with_detector(DetectorMode::SelfBaseline)
    .with_fault(
        [4],
        FaultKind::DiskSlow { bw_factor: 0.008 },
        Duration::from_secs(2),
        Some(Duration::from_millis(1000)),
    )
    .execute()
}

#[test]
fn same_seed_sharded_runs_are_byte_identical() {
    let a = episode();
    let b = episode();

    // Client-visible statistics agree group by group.
    assert_eq!(a.stats.ops, b.stats.ops);
    assert_eq!(a.stats.errors, b.stats.errors);
    for (ga, gb) in a.stats.groups.iter().zip(&b.stats.groups) {
        assert_eq!(ga.gid, gb.gid);
        assert_eq!(ga.ops, gb.ops, "g{} op count drifted", ga.gid);
        assert_eq!(
            ga.latency.p99, gb.latency.p99,
            "g{} latency tail drifted",
            ga.gid
        );
    }

    // The group-scoped incident artifacts are byte-stable.
    let (dumps_a, dumps_b) = (a.group_dumps(), b.group_dumps());
    assert!(
        dumps_a.iter().any(|d| !d.events.is_empty()),
        "no group recorded health events; the check would be vacuous"
    );
    assert!(
        dumps_a
            .iter()
            .flat_map(|d| &d.events)
            .any(|e| e.group.is_some()),
        "no group-stamped events; the 7-field serial path is untested"
    );
    assert_eq!(
        a.artifact(),
        b.artifact(),
        "the .run artifact (cluster dump + per-group dumps) must be byte-stable"
    );
    for (da, db) in dumps_a.iter().zip(&dumps_b) {
        let (ca, cb) = (score(da), score(db));
        assert_eq!(
            render_report(da, &ca),
            render_report(db, &cb),
            "{} report must be byte-stable",
            da.cluster
        );
    }
}
