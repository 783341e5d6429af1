//! End-to-end run → SPG → verification pipeline tests (the Figure 2
//! topology at test scale).

use std::collections::BTreeSet;
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use depfast::spg::{self, EdgeKind};
use depfast::verify;
use depfast_raft::core::RaftCfg;
use depfast_txn::ShardedCluster;
use simkit::{NodeId, Sim, World, WorldCfg};

fn folded_sharded_run() -> (Rc<ShardedCluster>, spg::Spg) {
    let sim = Sim::new(2);
    let world = World::new(
        sim.clone(),
        WorldCfg {
            nodes: 12,
            ..WorldCfg::default()
        },
    );
    let cluster = Rc::new(ShardedCluster::build(
        &sim,
        &world,
        3,
        3,
        3,
        RaftCfg {
            bootstrap_leader: Some(0),
            ..RaftCfg::default()
        },
    ));
    cluster.tracer.install_spg_fold();
    let handles: Vec<_> = (0..3)
        .map(|c| {
            let cl = cluster.clone();
            sim.spawn(async move {
                for i in 0..40u32 {
                    let key = Bytes::from(format!("key-{c}-{i}"));
                    let _ = cl.clients[c]
                        .transact(vec![(key, Bytes::from(vec![0u8; 32]))])
                        .await;
                }
            })
        })
        .collect();
    for h in handles {
        sim.run_until(h);
    }
    sim.run_until_time(sim.now() + Duration::from_millis(200));
    let graph = cluster.tracer.finish_spg_fold();
    (cluster, graph)
}

#[test]
fn figure2_topology_has_green_quorum_edges_and_red_client_edges() {
    let (_cluster, graph) = folded_sharded_run();
    let edges = graph.edges();
    assert!(!edges.is_empty(), "the run produced no SPG edges");

    // Green 2/3 edges exist from each shard leader to its followers.
    for (leader, followers) in [(0u32, [1u32, 2]), (3, [4, 5]), (6, [7, 8])] {
        for f in followers {
            assert!(
                edges.iter().any(|e| e.from == NodeId(leader)
                    && e.to == NodeId(f)
                    && e.kind == EdgeKind::Quorum
                    && e.label == "2/3"),
                "missing green 2/3 edge s{} -> s{}",
                leader + 1,
                f + 1
            );
        }
    }
    // Red 1/1 edges exist from clients (nodes 9..12) to shard leaders.
    let client_reds: Vec<_> = edges
        .iter()
        .filter(|e| e.from.0 >= 9 && e.kind == EdgeKind::Singular)
        .collect();
    assert!(!client_reds.is_empty(), "clients must wait 1/1 on leaders");
    for e in &client_reds {
        assert!(
            [0u32, 3, 6].contains(&e.to.0),
            "client red edge should point at a leader, got {:?}",
            e
        );
        assert_eq!(e.label, "1/1");
    }
    // No red edges between servers (intra-quorum singular waits).
    assert!(
        !edges
            .iter()
            .any(|e| e.from.0 < 9 && e.to.0 < 9 && e.kind == EdgeKind::Singular),
        "DepFastRaft must not have server-to-server singular waits"
    );
}

#[test]
fn verifier_passes_depfast_and_propagation_matches_paper() {
    let (_cluster, graph) = folded_sharded_run();
    let violations = verify::check_fail_slow_tolerance(&graph, |l| l.starts_with("raft:"));
    assert!(
        violations.is_empty(),
        "DepFastRaft coroutines must be fail-slow fault-tolerant: {violations:?}"
    );

    // A slow follower impacts nobody; a slow leader impacts its clients.
    let slow_follower: BTreeSet<NodeId> = [NodeId(4)].into();
    assert_eq!(verify::propagation_impact(&graph, &slow_follower).len(), 1);

    let slow_leader: BTreeSet<NodeId> = [NodeId(3)].into();
    let impact = verify::propagation_impact(&graph, &slow_leader);
    assert!(
        impact.iter().any(|n| n.0 >= 9),
        "slow leader must impact at least one client: {impact:?}"
    );
    // But not the other shards' servers.
    assert!(
        !impact.iter().any(|n| n.0 < 9 && n.0 != 3),
        "slow leader must not impact other servers: {impact:?}"
    );
}

#[test]
fn dot_output_is_well_formed() {
    let (_cluster, graph) = folded_sharded_run();
    let dot = graph.to_dot(|n| {
        if n.0 < 9 {
            format!("s{}", n.0 + 1)
        } else {
            format!("c{}", n.0 - 8)
        }
    });
    assert!(dot.starts_with("digraph spg {"));
    assert!(dot.trim_end().ends_with('}'));
    assert!(dot.contains("color=green"));
    assert!(dot.contains("color=red"));
    assert!(dot.contains("label=\"2/3\""));
    assert!(dot.contains("label=\"1/1\""));
}
