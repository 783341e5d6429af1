//! Fleet-scale blast radius: one fail-slow disk, many Raft groups.
//!
//! Topology: 4 groups of 3 striped over 5 nodes, so node 4 hosts
//! replicas of groups 3 and 4 (as a *follower* in both — their leaders
//! sit on nodes 2 and 3). A disk-slow fault on node 4 therefore has a
//! ground-truth blast radius of exactly {g3, g4}:
//!
//! - the per-group incident scorecards must show the split — hosted
//!   groups detect (and, for DepFast, quarantine) the fault, while the
//!   non-hosted groups' cells stay all-zero;
//! - DepFastRaft confines the damage: every group's throughput holds,
//!   because quarantine takes the slow follower off the hot path;
//! - SyncRaft's coupled pipeline drags the hosted groups down with the
//!   slow disk — and, through the shared closed-loop clients, bleeds
//!   into the rest of the fleet.

use std::time::Duration;

use depfast_bench::{striped, Run, RunReport};
use depfast_detect::DetectorMode;
use depfast_fault::FaultKind;
use depfast_incident::{score, ScoreCell};
use depfast_raft::cluster::RaftKind;

const FAULT_NODE: u32 = 4;

fn cfg(kind: RaftKind) -> Run {
    Run {
        kind,
        placement: striped(4, 5),
        n_clients: 64,
        warmup: Duration::from_secs(2),
        measure: Duration::from_millis(2400),
        records: 10_000,
        ..Run::default()
    }
}

fn incident(kind: RaftKind) -> RunReport {
    // The gate's lowered sample floor: a SyncRaft group coupled to a
    // 125x-slow disk completes too few appends per window for the
    // default floor.
    cfg(kind)
        .with_detector(DetectorMode::SelfBaseline)
        .with_fault(
            [FAULT_NODE],
            FaultKind::DiskSlow { bw_factor: 0.008 },
            Duration::from_secs(2),
            None,
        )
        .execute()
}

/// Per-group P99 of the faulted run normalized to the same group's
/// healthy run, indexed by `gid - 1`. (Throughput cannot isolate the
/// radius here: the groups share closed-loop clients, so a slow shard
/// lowers every group's op rate evenly. Latency is attributed to the
/// group that served the op, so it splits cleanly.)
fn p99_inflation(kind: RaftKind, faulted: &RunReport) -> Vec<f64> {
    let healthy = cfg(kind).execute();
    healthy
        .stats
        .groups
        .iter()
        .zip(&faulted.stats.groups)
        .map(|(h, f)| f.latency.p99.as_secs_f64() / h.latency.p99.as_secs_f64())
        .collect()
}

#[test]
fn scorecards_confine_the_fault_to_hosted_groups() {
    let run = incident(RaftKind::DepFast);
    let hosted = run.hosted(FAULT_NODE);
    assert_eq!(hosted, vec![3, 4], "striping changed under us");
    for dump in &run.group_dumps() {
        let gid: u32 = dump.cluster.rsplit('g').next().unwrap().parse().unwrap();
        let cell = score(dump);
        if hosted.contains(&gid) {
            assert_eq!(dump.faults.len(), 1, "g{gid} hosts the fault: {dump:?}");
            assert!(cell.detected, "g{gid} must detect its fault: {cell:?}");
            assert_eq!(cell.misattributions, 0, "g{gid}: {cell:?}");
            // DepFast's raft layer reacts too: the quarantine events are
            // stamped with this group, so TTM lands in this group's cell.
            assert!(cell.ttm_ns.is_some(), "g{gid} never quarantined: {cell:?}");
        } else {
            assert!(dump.faults.is_empty(), "g{gid} is outside the radius");
            assert_eq!(
                cell,
                ScoreCell::default(),
                "g{gid} is not hosted on n{FAULT_NODE}"
            );
        }
    }
}

#[test]
fn depfast_confines_p99_where_sync_drags_hosted_groups() {
    let dep = incident(RaftKind::DepFast);
    let sync = incident(RaftKind::Sync);
    let dep_p99 = p99_inflation(RaftKind::DepFast, &dep);
    let sync_p99 = p99_inflation(RaftKind::Sync, &sync);
    const BAND: f64 = 1.15;

    // DepFast: quarantine takes the slow follower off the hot path; no
    // group's tail moves, hosted or not.
    for (i, r) in dep_p99.iter().enumerate() {
        assert!(
            *r < BAND,
            "DepFast g{} P99 inflated despite quarantine: {:.2}x (all: {:?})",
            i + 1,
            r,
            dep_p99
        );
    }

    // Sync: the region thread couples the hosted groups to the slow
    // disk — their tails inflate — while groups not hosted on the fault
    // node stay flat. That's the blast radius, group by group.
    for gid in 1..=4u32 {
        let r = sync_p99[(gid - 1) as usize];
        if sync.hosted(FAULT_NODE).contains(&gid) {
            assert!(
                r > BAND,
                "SyncRaft hosted g{gid} should feel the slow disk: {:.2}x (all: {sync_p99:?})",
                r
            );
            // And harder than DepFast's same group under the same fault.
            assert!(
                r > dep_p99[(gid - 1) as usize],
                "SyncRaft must degrade g{gid} harder than DepFast: sync {sync_p99:?} vs dep {dep_p99:?}"
            );
        } else {
            assert!(
                r < BAND,
                "SyncRaft g{gid} is outside the radius but inflated {:.2}x",
                r
            );
        }
    }
}
