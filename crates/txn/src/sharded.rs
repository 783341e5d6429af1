//! Sharded cluster harness: M Raft groups of N servers plus coordinator
//! (client) hosts — the topology of the paper's Figure 2 (3 shards ×
//! 3 servers, s1–s9, with clients c1–c3).
//!
//! Built on the one cluster builder ([`RaftCluster::build`]): shard `i`
//! is Raft group `i + 1`, so transaction RPCs ride group-namespaced
//! method ids and every group's Raft metrics and health events carry its
//! `g{gid}` label. Placement is [`Placement::Disjoint`] to preserve the
//! figure's one-shard-per-node-triple layout.

use depfast::Tracer;
use depfast_raft::cluster::{Placement, RaftCluster, RaftKind};
use depfast_raft::core::RaftCfg;
use simkit::{NodeId, Sim, World};

use crate::coordinator::TxnClient;
use crate::server::TxnServer;

/// A sharded transactional deployment.
pub struct ShardedCluster {
    /// The underlying Raft cluster (shard `i` is group `i + 1`).
    pub raft: RaftCluster,
    /// `servers[shard][replica]`.
    pub servers: Vec<Vec<TxnServer>>,
    /// Shard membership (node ids), `shards[shard]`.
    pub shards: Vec<Vec<NodeId>>,
    /// Coordinator clients, one per client host.
    pub clients: Vec<TxnClient>,
    /// Client host node ids.
    pub client_nodes: Vec<NodeId>,
    /// Shared tracer (enable full recording to build the Figure 2 SPG).
    pub tracer: Tracer,
}

impl ShardedCluster {
    /// Builds `n_shards` DepFastRaft groups of `group_size` servers and
    /// `n_clients` coordinators. Server nodes are
    /// `0..n_shards*group_size`, clients follow.
    pub fn build(
        sim: &Sim,
        world: &World,
        n_shards: usize,
        group_size: usize,
        n_clients: usize,
        cfg: RaftCfg,
    ) -> Self {
        let disjoint = Placement::Disjoint {
            groups: n_shards,
            size: group_size,
        };
        let raft = RaftCluster::build(sim, world, RaftKind::DepFast, cfg, disjoint);
        let servers = raft
            .groups
            .iter()
            .map(|g| g.servers.iter().cloned().map(TxnServer::install).collect())
            .collect();
        let shards: Vec<Vec<NodeId>> = raft.groups.iter().map(|g| g.members.clone()).collect();
        let eps = raft.client_endpoints(sim, world, n_clients);
        ShardedCluster {
            servers,
            client_nodes: eps.iter().map(|ep| ep.node()).collect(),
            clients: (1..)
                .zip(eps)
                .map(|(id, ep)| TxnClient::new(ep.runtime().clone(), ep, shards.clone(), id))
                .collect(),
            shards,
            tracer: raft.tracer.clone(),
            raft,
        }
    }

    /// Routes a key to its shard (same hash the coordinator uses).
    pub fn shard_of(&self, key: &bytes::Bytes) -> usize {
        crate::coordinator::shard_of(key, self.shards.len())
    }
}
