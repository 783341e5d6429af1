//! Scale-out: shard one keyspace across many co-located Raft groups.
//!
//! ```sh
//! cargo run --release --example scale_out
//! ```
//!
//! Two demos in one file:
//!
//! 1. **Routing** — a 4-group cluster striped over 5 nodes; a handful of
//!    puts show each key hashing to its owning group and landing on that
//!    group's leader, with reads routed the same way.
//! 2. **Sweep** — the same YCSB-B workload against 1, 2, 4, and 8 groups
//!    on a fixed 9-node fleet. One group is leader-CPU-bound; more groups
//!    mean more leaders, so aggregate throughput climbs until the shared
//!    fleet saturates. (The committed `BENCH_fig1.json` runs the full
//!    sweep out to 64 groups.)

use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use depfast_bench::{striped, Run};
use depfast_kv::ShardedKvCluster;
use depfast_raft::cluster::{Placement, RaftKind};
use depfast_raft::core::RaftCfg;
use simkit::{Sim, World, WorldCfg};

fn routing_demo() {
    let sim = Sim::new(7);
    let world = World::new(
        sim.clone(),
        WorldCfg {
            nodes: 6, // 5 server nodes + 1 client host
            ..WorldCfg::default()
        },
    );
    let cluster = Rc::new(ShardedKvCluster::build(
        &sim,
        &world,
        RaftKind::DepFast,
        Placement::Striped {
            groups: 4,
            nodes: 5,
            size: 3,
        },
        1, // clients
        RaftCfg {
            bootstrap_leader: Some(0),
            ..RaftCfg::default()
        },
        Duration::from_micros(50),
    ));

    println!("4 Raft groups striped over 5 nodes:");
    for g in &cluster.raft.groups {
        println!("  g{} on nodes {:?}", g.gid, g.members);
    }

    let cl = cluster.clone();
    sim.block_on(async move {
        let client = &cl.clients[0];
        for key in ["user:alice", "user:bob", "cart:9931", "order:77"] {
            let gid = client.shard_map().group_of(key.as_bytes());
            client
                .put(Bytes::from(key), Bytes::from_static(b"v1"))
                .await
                .expect("sharded put");
            let back = client.get(Bytes::from(key)).await.expect("sharded get");
            println!(
                "  put+get {key:<10} -> g{gid} (leader {:?}), read back {:?}",
                cl.raft.group(gid).members[0],
                back.map(|v| String::from_utf8_lossy(&v).into_owned()),
            );
        }
    });
}

fn sweep_demo() {
    println!("\nscale-out sweep (9 nodes, 128 closed-loop clients, YCSB-B):");
    println!(
        "  {:>6}  {:>10}  {:>8}  {:>8}",
        "groups", "req/s", "p99 ms", "speedup"
    );
    let mut one_group = None;
    for n_groups in [1usize, 2, 4, 8] {
        let stats = Run {
            placement: striped(n_groups, 9),
            n_clients: 128,
            warmup: Duration::from_secs(1),
            measure: Duration::from_millis(1500),
            records: 10_000,
            ..Run::default()
        }
        .execute()
        .stats;
        let base = *one_group.get_or_insert(stats.throughput);
        println!(
            "  {:>6}  {:>10.0}  {:>8.2}  {:>7.2}x",
            n_groups,
            stats.throughput,
            stats.latency.p99.as_secs_f64() * 1e3,
            stats.throughput / base,
        );
    }
}

fn main() {
    routing_demo();
    sweep_demo();
}
