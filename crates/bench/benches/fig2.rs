//! **Figure 2** — the slowness propagation graph (SPG) of DepFastRaft
//! deployed with three shards (quorums {s1–s3}, {s4–s6}, {s7–s9}) and
//! three clients (c1–c3).
//!
//! The bench runs a short workload on exactly that topology, folds the SPG
//! from its waits as they begin, prints the aggregated edge table and the
//! Graphviz DOT (also written to `target/depfast-bench/fig2_spg.dot`), and
//! then reproduces the figure's two analytical observations:
//!
//! 1. every intra-quorum edge is green (no single-event waits inside a
//!    replica group — checked with `verify::check_fail_slow_tolerance`);
//! 2. clients wait on leaders with red `1/1` edges, so a slow *leader*
//!    impacts its clients (checked with `verify::propagation_impact`).

use std::collections::BTreeSet;
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use depfast::spg::EdgeKind;
use depfast::verify;
use depfast_bench::Table;
use depfast_raft::core::RaftCfg;
use depfast_txn::ShardedCluster;
use simkit::{NodeId, Sim, World, WorldCfg};

fn name_of(n: NodeId) -> String {
    if n.0 < 9 {
        format!("s{}", n.0 + 1)
    } else {
        format!("c{}", n.0 - 8)
    }
}

fn main() {
    let sim = Sim::new(2);
    let world = World::new(
        sim.clone(),
        WorldCfg {
            nodes: 12, // s1..s9 + c1..c3
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

    // Each client transacts one key at a time: both phases of a
    // transaction go to the leader of the one shard that owns the key, so
    // each client waits 1/1 on every leader in turn and no wait spans two
    // shards. (The cross-shard, nested-quorum wait is covered by the law
    // table in `depfast::spg` and by `depfast::verify`'s tests.)
    let handles: Vec<_> = (0..3)
        .map(|c| {
            let cl = cluster.clone();
            sim.spawn(async move {
                for i in 0..200u32 {
                    let key = Bytes::from(format!("key-{c}-{i}"));
                    let _ = cl.clients[c]
                        .transact(vec![(key, Bytes::from(vec![0u8; 64]))])
                        .await;
                }
            })
        })
        .collect();
    for h in handles {
        sim.run_until(h);
    }
    sim.run_until_time(sim.now() + Duration::from_millis(200));
    let spg = cluster.tracer.finish_spg_fold();

    let mut table = Table::new(
        "Figure 2: SPG edges (aggregated; red = singular wait, green = quorum wait)",
        &["From", "To", "Color", "Quorum", "Waits"],
    );
    for e in spg.edges() {
        table.row(vec![
            name_of(e.from),
            name_of(e.to),
            match e.kind {
                EdgeKind::Singular => "red".into(),
                EdgeKind::Quorum => "green".into(),
            },
            e.label.clone(),
            e.count.to_string(),
        ]);
    }
    table.print();
    let _ = table.write_csv("fig2_edges");

    let dot = spg.to_dot(name_of);
    if let Ok(dir) = depfast_bench::out_dir() {
        let dot_path = dir.join("fig2_spg.dot");
        if std::fs::write(&dot_path, &dot).is_ok() {
            println!("[dot] {}", dot_path.display());
        }
    }

    // Observation 1: no singular waits inside the replica groups.
    let violations = verify::check_fail_slow_tolerance(&spg, |l| l.starts_with("raft:"));
    println!(
        "\nIntra-quorum singular waits on raft coroutines: {} (paper: none — \
         \"no single-event wait in the interactions within each quorum\")",
        violations.len()
    );
    for v in &violations {
        println!("  VIOLATION: {v}");
    }

    // Observation 2: a slow leader impacts its client; a slow follower
    // impacts no one.
    let leader_s1: BTreeSet<NodeId> = [NodeId(0)].into();
    let impact_leader = verify::propagation_impact(&spg, &leader_s1);
    let follower_s2: BTreeSet<NodeId> = [NodeId(1)].into();
    let impact_follower = verify::propagation_impact(&spg, &follower_s2);
    let show = |set: &BTreeSet<NodeId>| {
        set.iter()
            .map(|n| name_of(*n))
            .collect::<Vec<_>>()
            .join(", ")
    };
    println!(
        "Impact of slow leader s1:   {{{}}}  (paper: \"the clients wait for leader \
         nodes — if a leader fails slow, the corresponding client will be affected\")",
        show(&impact_leader)
    );
    println!(
        "Impact of slow follower s2: {{{}}}  (absorbed by the 2/3 quorum)",
        show(&impact_follower)
    );
    assert!(
        violations.is_empty(),
        "DepFastRaft must have no red intra-quorum edges"
    );
    assert!(
        impact_leader.len() > 1,
        "slow leader must impact its client"
    );
    assert_eq!(
        impact_follower.len(),
        1,
        "slow follower must impact nobody else"
    );
    println!("\nFigure 2 checks passed.");
}
