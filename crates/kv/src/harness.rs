//! One-call construction of a complete replicated KV deployment: the
//! server nodes of a [`Placement`] host the replicas, the nodes right
//! after them host the client sessions.

use std::time::Duration;

use depfast_raft::cluster::{Placement, RaftCluster, RaftKind};
use depfast_raft::core::{RaftCfg, RaftServer};
use depfast_rpc::Endpoint;
use simkit::{NodeId, Sim, World};

use crate::client::KvClient;
use crate::server::{KvServer, DEFAULT_SERVE_CPU};
use crate::shard::{ShardMap, ShardedKvClient};

/// The one deploy step: a started Raft cluster, a KV state machine on
/// every replica (`servers[group][replica]`, indexed like
/// `raft.groups[group].members`) and one endpoint per client session.
/// `world` must have `placement.server_nodes() + n_clients` nodes.
fn deploy(
    sim: &Sim,
    world: &World,
    kind: RaftKind,
    placement: Placement,
    n_clients: usize,
    cfg: RaftCfg,
    serve_cpu: Duration,
) -> (RaftCluster, Vec<Vec<KvServer>>, Vec<Endpoint>) {
    let raft = RaftCluster::build(sim, world, kind, cfg, placement);
    let install = |s: &RaftServer| KvServer::install_tuned(s.clone(), serve_cpu);
    let servers = raft
        .groups
        .iter()
        .map(|g| g.servers.iter().map(install).collect())
        .collect();
    let clients = raft.client_endpoints(sim, world, n_clients);
    (raft, servers, clients)
}

/// A running single-group KV cluster plus client sessions: the flat view
/// of a [`Placement::Single`] deployment.
pub struct KvCluster {
    /// The underlying Raft cluster (one group, gid 0).
    pub raft: RaftCluster,
    /// One KV server per cluster node.
    pub servers: Vec<KvServer>,
    /// Client sessions (one per client host node).
    pub clients: Vec<KvClient>,
    /// Client host node ids.
    pub client_nodes: Vec<NodeId>,
}

impl KvCluster {
    /// Builds `n_servers` KV servers of the given driver and `n_clients`
    /// clients on one `world` (which must have at least
    /// `n_servers + n_clients` nodes), at [`DEFAULT_SERVE_CPU`].
    pub fn build(
        sim: &Sim,
        world: &World,
        kind: RaftKind,
        n_servers: usize,
        n_clients: usize,
        cfg: RaftCfg,
    ) -> Self {
        Self::build_tuned(
            sim,
            world,
            kind,
            n_servers,
            n_clients,
            cfg,
            DEFAULT_SERVE_CPU,
        )
    }

    /// [`KvCluster::build`] with an explicit per-request serve CPU cost
    /// (used by the benchmark harness to calibrate leader utilization).
    pub fn build_tuned(
        sim: &Sim,
        world: &World,
        kind: RaftKind,
        n_servers: usize,
        n_clients: usize,
        cfg: RaftCfg,
        serve_cpu: Duration,
    ) -> Self {
        let single = Placement::Single { n: n_servers };
        let (raft, mut servers, eps) = deploy(sim, world, kind, single, n_clients, cfg, serve_cpu);
        let members = raft.groups[0].members.clone();
        KvCluster {
            raft,
            servers: servers.remove(0),
            client_nodes: eps.iter().map(Endpoint::node).collect(),
            clients: (1..)
                .zip(eps)
                .map(|(id, ep)| KvClient::new(ep, members.clone(), id, 0))
                .collect(),
        }
    }
}

/// A running KV deployment over any [`Placement`], with shard-aware
/// client sessions on the nodes after the servers. A single group is the
/// one-group case: its sessions route every key to group 0.
pub struct ShardedKvCluster {
    /// The underlying Raft cluster.
    pub raft: RaftCluster,
    /// KV servers per group: `servers[g][r]` is replica `r` of
    /// `raft.groups[g]` (indexed like its `members`).
    pub servers: Vec<Vec<KvServer>>,
    /// Shard-aware client sessions (one per client host node).
    pub clients: Vec<ShardedKvClient>,
    /// Client host node ids.
    pub client_nodes: Vec<NodeId>,
    /// The key → group partition clients route by.
    pub map: ShardMap,
}

impl ShardedKvCluster {
    /// Builds the Raft groups of `placement`, installs one KV state
    /// machine per group replica, and creates `n_clients` shard-aware
    /// clients. `world` must have at least
    /// `placement.server_nodes() + n_clients` nodes.
    pub fn build(
        sim: &Sim,
        world: &World,
        kind: RaftKind,
        placement: Placement,
        n_clients: usize,
        cfg: RaftCfg,
        serve_cpu: Duration,
    ) -> Self {
        let (raft, servers, eps) = deploy(sim, world, kind, placement, n_clients, cfg, serve_cpu);
        let groups = placement.groups();
        ShardedKvCluster {
            raft,
            servers,
            map: ShardMap::new(groups.len()),
            client_nodes: eps.iter().map(Endpoint::node).collect(),
            clients: (1..)
                .zip(eps)
                .map(|(id, ep)| ShardedKvClient::new(ep, groups.clone(), id))
                .collect(),
        }
    }

    /// [`ShardedKvCluster::build`] on [`Placement::Striped`], spelled
    /// positionally (the form `benchmark/` calls).
    #[allow(clippy::too_many_arguments)]
    pub fn build_tuned(
        sim: &Sim,
        world: &World,
        kind: RaftKind,
        n_groups: usize,
        n_nodes: usize,
        group_size: usize,
        n_clients: usize,
        cfg: RaftCfg,
        serve_cpu: Duration,
    ) -> Self {
        let striped = Placement::Striped {
            groups: n_groups,
            nodes: n_nodes,
            size: group_size,
        };
        Self::build(sim, world, kind, striped, n_clients, cfg, serve_cpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use simkit::WorldCfg;
    use std::rc::Rc;

    fn world(n: usize) -> (Sim, World) {
        let sim = Sim::new(31);
        let world = World::new(
            sim.clone(),
            WorldCfg {
                nodes: n,
                ..WorldCfg::default()
            },
        );
        (sim, world)
    }

    #[test]
    fn put_then_get_round_trips() {
        let (sim, w) = world(4);
        let cl = KvCluster::build(
            &sim,
            &w,
            RaftKind::DepFast,
            3,
            1,
            RaftCfg {
                bootstrap_leader: Some(0),
                ..RaftCfg::default()
            },
        );
        let cl = Rc::new(cl);
        let cl2 = cl.clone();
        let out = sim.block_on(async move {
            let c = &cl2.clients[0];
            c.put(Bytes::from_static(b"k"), Bytes::from_static(b"v"))
                .await
                .unwrap();
            c.get(Bytes::from_static(b"k")).await.unwrap()
        });
        assert_eq!(out, Some(Bytes::from_static(b"v")));
    }

    /// One acknowledged put and one ReadIndex get of a `len`-byte value;
    /// returns each replica's log payload for the put, each replica's
    /// stored value, and the value the get handed the client.
    fn put_then_read_index_get(len: usize) -> (Vec<Bytes>, Vec<Bytes>, Bytes) {
        let (sim, w) = world(4);
        let cfg = RaftCfg {
            bootstrap_leader: Some(0),
            ..RaftCfg::default()
        };
        let cl = Rc::new(KvCluster::build(&sim, &w, RaftKind::DepFast, 3, 1, cfg));
        for s in &cl.servers {
            s.set_read_index(true);
        }
        let key = Bytes::from_static(b"user0000000000000000042");
        let (cl2, k) = (cl.clone(), key.clone());
        let got = sim.block_on(async move {
            let c = &cl2.clients[0];
            c.put(k.clone(), Bytes::from(vec![7u8; len])).await.unwrap();
            c.get(k).await.unwrap()
        });
        // Let the followers apply.
        sim.run_until_time(sim.now() + std::time::Duration::from_secs(1));
        let logged = |s: &KvServer| {
            let log = &s.raft().core().log;
            let (entries, _) = log.read_raw(log.last_index(), log.last_index() + 1);
            entries[0].payload.clone()
        };
        (
            cl.servers.iter().map(logged).collect(),
            cl.servers
                .iter()
                .map(|s| s.local_get(&key).expect("applied"))
                .collect(),
            got.expect("the get sees the put"),
        )
    }

    /// A record-sized value is copied once, by the client that encodes the
    /// put: all three logs, all three state machines and the get's reply
    /// hold views of that one buffer. A silent fall-back to a copy per hop
    /// fails here, not only in a later memory benchmark.
    #[test]
    fn a_large_value_is_one_allocation_from_the_put_to_every_replica_and_back() {
        let (payloads, values, got) = put_then_read_index_get(1000);
        let body = payloads[0].as_ptr_range();
        for p in &payloads {
            assert_eq!(p.as_ptr_range(), body, "each log holds the client's buffer");
        }
        for v in values.iter().chain([&got]) {
            assert_eq!(v.len(), 1000);
            let v = v.as_ptr_range();
            assert!(body.start <= v.start && v.end <= body.end, "a view of it");
        }
    }

    /// Below the splice line a value travels by copy, as every message
    /// did: the contract is equality, and says nothing about sharing.
    #[test]
    fn a_small_value_arrives_equal_everywhere() {
        let (payloads, values, got) = put_then_read_index_get(100);
        assert!(payloads.iter().all(|p| *p == payloads[0]));
        assert!(values.iter().chain([&got]).all(|v| v[..] == [7u8; 100]));
    }

    #[test]
    fn client_discovers_leader_via_redirect() {
        let (sim, w) = world(4);
        let cl = Rc::new(KvCluster::build(
            &sim,
            &w,
            RaftKind::DepFast,
            3,
            1,
            RaftCfg {
                bootstrap_leader: Some(2),
                ..RaftCfg::default()
            },
        ));
        let cl2 = cl.clone();
        sim.block_on(async move {
            cl2.clients[0]
                .put(Bytes::from_static(b"a"), Bytes::from_static(b"1"))
                .await
                .unwrap();
        });
        assert_eq!(cl.clients[0].known_leader(), Some(NodeId(2)));
    }

    #[test]
    fn all_replicas_converge_on_applied_state() {
        let (sim, w) = world(4);
        let cl = Rc::new(KvCluster::build(
            &sim,
            &w,
            RaftKind::DepFast,
            3,
            1,
            RaftCfg {
                bootstrap_leader: Some(0),
                ..RaftCfg::default()
            },
        ));
        let cl2 = cl.clone();
        sim.block_on(async move {
            for i in 0..10u8 {
                cl2.clients[0]
                    .put(Bytes::from(vec![b'k', i]), Bytes::from(vec![b'v', i]))
                    .await
                    .unwrap();
            }
        });
        // Let follower apply loops drain.
        sim.run_until_time(sim.now() + std::time::Duration::from_secs(1));
        for s in &cl.servers {
            assert_eq!(s.keys(), 10, "replica state must converge");
        }
    }

    #[test]
    fn sharded_cluster_routes_puts_and_gets_per_group() {
        let (sim, w) = world(8);
        // 4 groups of 3 replicas striped over 6 nodes, 2 clients.
        let cl = Rc::new(ShardedKvCluster::build(
            &sim,
            &w,
            RaftKind::DepFast,
            Placement::Striped {
                groups: 4,
                nodes: 6,
                size: 3,
            },
            2,
            RaftCfg {
                bootstrap_leader: Some(0),
                ..RaftCfg::default()
            },
            DEFAULT_SERVE_CPU,
        ));
        let cl2 = cl.clone();
        sim.block_on(async move {
            for i in 0..20u32 {
                let key = Bytes::from(format!("key{i:04}"));
                let val = Bytes::from(format!("val{i}"));
                cl2.clients[(i % 2) as usize].put(key, val).await.unwrap();
            }
        });
        let cl2 = cl.clone();
        let out = sim.block_on(async move {
            let mut got = 0;
            for i in 0..20u32 {
                let key = Bytes::from(format!("key{i:04}"));
                let v = cl2.clients[0].get(key).await.unwrap();
                assert_eq!(v, Some(Bytes::from(format!("val{i}"))));
                got += 1;
            }
            got
        });
        assert_eq!(out, 20);
        // Keys landed in more than one group (the partition is real) and
        // every group's replicas agree.
        sim.run_until_time(sim.now() + std::time::Duration::from_secs(1));
        let mut nonempty = 0;
        for group in &cl.servers {
            let keys = group[0].keys();
            if keys > 0 {
                nonempty += 1;
            }
            for replica in group {
                assert_eq!(replica.keys(), keys, "replicas within a group converge");
            }
        }
        assert!(nonempty >= 2, "only {nonempty} of 4 groups hold keys");
    }

    #[test]
    fn retried_put_is_applied_once() {
        let (sim, w) = world(4);
        let cl = Rc::new(KvCluster::build(
            &sim,
            &w,
            RaftKind::DepFast,
            3,
            1,
            RaftCfg {
                bootstrap_leader: Some(0),
                ..RaftCfg::default()
            },
        ));
        let cl2 = cl.clone();
        sim.block_on(async move {
            cl2.clients[0]
                .put(Bytes::from_static(b"k"), Bytes::from_static(b"v"))
                .await
                .unwrap();
        });
        sim.run_until_time(sim.now() + std::time::Duration::from_millis(500));
        let applied_leader = cl.servers[0].applied();
        assert_eq!(applied_leader, 1);
    }
}
