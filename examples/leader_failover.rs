//! The §5 mitigation loop, end to end: a leader fails slow, the
//! trace-point detector flags it, and the mitigation demotes it into a
//! (well-tolerated) fail-slow follower.
//!
//! ```sh
//! cargo run --release --example leader_failover
//! ```

use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use depfast_detect::{spawn_leader_mitigation, DetectorMode, FailSlowDetector};
use depfast_kv::KvCluster;
use depfast_raft::cluster::RaftKind;
use depfast_raft::core::{RaftCfg, RaftCore};
use simkit::{NodeId, Sim, World, WorldCfg};

fn main() {
    let sim = Sim::new(3);
    let world = World::new(
        sim.clone(),
        WorldCfg {
            nodes: 19, // 3 servers + 16 client hosts
            ..WorldCfg::default()
        },
    );
    let cluster = Rc::new(KvCluster::build(
        &sim,
        &world,
        RaftKind::DepFast,
        3,
        16,
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
    detector.on_suspect(|s| {
        println!(
            "[detector] {} suspected fail-slow via `{}`: {:?} vs baseline {:?} (at {})",
            s.node, s.label, s.observed, s.baseline, s.at
        );
    });
    spawn_leader_mitigation(&sim, &detector, cores.clone());

    let drive = |label: &str, ops_per_client: u32| {
        let t0 = sim.now();
        let handles: Vec<_> = (0..cluster.clients.len())
            .map(|c| {
                let cl = cluster.clone();
                sim.spawn(async move {
                    let mut ok = 0u32;
                    for i in 0..ops_per_client {
                        let key = Bytes::from(format!("{c}:{i}"));
                        if cl.clients[c]
                            .put(key, Bytes::from(vec![0u8; 64]))
                            .await
                            .is_ok()
                        {
                            ok += 1;
                        }
                    }
                    ok
                })
            })
            .collect();
        let ok: u32 = handles.into_iter().map(|h| sim.run_until(h)).sum();
        let dt = (sim.now() - t0).as_secs_f64();
        let leader = match cores.iter().find(|c| c.is_leader()) {
            Some(c) => format!("leader {} in term {}", c.id, c.log.current_term()),
            None => "no leader".to_string(),
        };
        println!(
            "[{label}] {ok} commits in {dt:.2}s virtual = {:.0} req/s ({leader})",
            ok as f64 / dt
        );
    };

    drive("healthy baseline", 700);

    println!("\n>>> injecting CPU slowness (5% quota) into the LEADER, node n0\n");
    world.set_cpu_quota(NodeId(0), 0.05);

    drive("leader fail-slow", 150);
    sim.run_until_time(sim.now() + Duration::from_secs(2));

    drive("after mitigation", 300);
    println!(
        "\nn0 is now a fail-slow follower — exactly the failure mode DepFastRaft \
         tolerates by construction (paper §5)."
    );
}
