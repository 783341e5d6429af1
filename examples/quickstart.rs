//! Quickstart: a 3-node DepFastRaft replicated KV store in ~40 lines.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use bytes::Bytes;
use depfast_kv::KvCluster;
use depfast_raft::cluster::RaftKind;
use depfast_raft::core::RaftCfg;
use simkit::{Sim, World, WorldCfg};
use std::rc::Rc;

fn main() {
    // A deterministic simulated cluster: 3 server nodes + 1 client host.
    let sim = Sim::new(42);
    let world = World::new(
        sim.clone(),
        WorldCfg {
            nodes: 4,
            ..WorldCfg::default()
        },
    );

    // Build DepFastRaft + the KV layer on nodes 0..3, a client on node 3.
    // (`KvCluster` is the flat view of `Placement::Single`: one Raft
    // group, gid 0 — the same builder every multi-group cluster uses.)
    let cluster = Rc::new(KvCluster::build(
        &sim,
        &world,
        RaftKind::DepFast,
        3,
        1,
        RaftCfg {
            bootstrap_leader: Some(0),
            ..RaftCfg::default()
        },
    ));

    let cl = cluster.clone();
    let s = sim.clone();
    sim.block_on(async move {
        let client = &cl.clients[0];
        client
            .put(
                Bytes::from_static(b"greeting"),
                Bytes::from_static(b"hello, depfast"),
            )
            .await
            .expect("replicated put");
        let value = client
            .get(Bytes::from_static(b"greeting"))
            .await
            .expect("linearizable get");
        println!(
            "[{}] get(greeting) = {:?}",
            s.now(),
            value.map(|v| String::from_utf8_lossy(&v).into_owned())
        );
    });

    // Let the followers' apply loops drain, then show replica convergence.
    sim.run_until_time(sim.now() + std::time::Duration::from_secs(1));
    for (i, server) in cluster.servers.iter().enumerate() {
        println!(
            "server {}: {} key(s), leader = {}",
            i,
            server.keys(),
            server.raft().is_leader()
        );
    }
    println!("total virtual time: {}", sim.now());
}
