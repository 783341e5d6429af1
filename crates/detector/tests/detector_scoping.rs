//! Detector and mitigation scoping: only a fail-slow *leader* triggers
//! the demotion path; a fail-slow follower is detected but left alone
//! (DepFastRaft already tolerates it — demoting anything would be wrong).

use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use depfast_detect::{spawn_leader_mitigation, DetectorMode, FailSlowDetector};
use depfast_kv::KvCluster;
use depfast_raft::cluster::RaftKind;
use depfast_raft::core::{RaftCfg, RaftCore};
use simkit::{NodeId, Sim, World, WorldCfg};

fn setup() -> (
    Sim,
    World,
    Rc<KvCluster>,
    FailSlowDetector,
    Vec<Rc<RaftCore>>,
) {
    let sim = Sim::new(51);
    let world = World::new(
        sim.clone(),
        WorldCfg {
            nodes: 3 + 8,
            ..WorldCfg::default()
        },
    );
    let cluster = Rc::new(KvCluster::build(
        &sim,
        &world,
        RaftKind::DepFast,
        3,
        8,
        RaftCfg {
            bootstrap_leader: Some(0),
            ..RaftCfg::default()
        },
    ));
    let cores: Vec<Rc<RaftCore>> = cluster.raft.groups[0]
        .servers
        .iter()
        .map(|s| s.core().clone())
        .collect();
    let detector = FailSlowDetector::spawn(&sim, &cluster.raft.tracer, DetectorMode::SelfBaseline);
    spawn_leader_mitigation(&sim, &detector, cores.clone());
    (sim, world, cluster, detector, cores)
}

fn drive(sim: &Sim, cluster: &Rc<KvCluster>, ops_per_client: u32) {
    let handles: Vec<_> = (0..cluster.clients.len())
        .map(|c| {
            let cl = cluster.clone();
            sim.spawn(async move {
                for i in 0..ops_per_client {
                    let key = Bytes::from(format!("{c}:{i}"));
                    let _ = cl.clients[c].put(key, Bytes::from(vec![0u8; 64])).await;
                }
            })
        })
        .collect();
    for h in handles {
        sim.run_until(h);
    }
}

/// A fail-slow *follower* may be flagged by append-latency statistics, but
/// the mitigation must not touch the (healthy) leader.
#[test]
fn slow_follower_does_not_trigger_leader_demotion() {
    let (sim, world, cluster, detector, cores) = setup();
    drive(&sim, &cluster, 400); // Baselines.
    world.set_cpu_quota(NodeId(2), 0.02);
    drive(&sim, &cluster, 300);
    sim.run_until_time(sim.now() + Duration::from_secs(3));
    // The leader is untouched regardless of what was suspected.
    assert!(
        cores[0].is_leader(),
        "leader must keep leading; suspects: {:?}",
        detector.suspects()
    );
    // And nothing ever suspected the leader itself.
    assert!(
        !detector.history().iter().any(|s| s.node == NodeId(0)),
        "healthy leader wrongly suspected: {:?}",
        detector.history()
    );
}

/// The detector's append-latency view flags the slow follower itself.
#[test]
fn slow_follower_is_observable_via_append_latency() {
    let (sim, world, cluster, detector, _cores) = setup();
    drive(&sim, &cluster, 400);
    world.set_egress_delay(NodeId(1), Duration::from_millis(400));
    drive(&sim, &cluster, 300);
    sim.run_until_time(sim.now() + Duration::from_secs(3));
    assert!(
        detector.history().iter().any(|s| s.node == NodeId(1)),
        "net-slow follower should be flagged via append_entries latency: {:?}",
        detector.history()
    );
}
