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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::{TxnCmd, TxnVote};
    use depfast::event::Watchable;
    use depfast_rpc::wire::{WireRead, WireWrite};
    use depfast_storage::Record;
    use simkit::WorldCfg;
    use std::time::Duration;

    /// Proposes `cmd` on `server` and returns the shard's vote.
    fn exec(sim: &Sim, server: &TxnServer, cmd: TxnCmd) -> Option<TxnVote> {
        let ev = server.raft().propose(cmd.to_bytes());
        sim.block_on(async move {
            ev.handle().wait_timeout(Duration::from_secs(3)).await;
            ev.take().and_then(|b| TxnVote::from_bytes(&b))
        })
    }

    /// `examples/sharded_txn.rs`' shape — three shards of three — with a
    /// log compaction *and a snapshot* between a cross-shard transaction's
    /// prepare and its commit. Shard 0's replica B misses everything; its
    /// leader dies after the prepare; the new leader A has compacted its
    /// log past anything B holds, so what B knows of the prepared
    /// transaction — its staged write, its lock — it knows from A's
    /// `TxnState` snapshot alone. The commit must find both there.
    #[test]
    fn a_prepared_transaction_survives_compaction_and_snapshot() {
        const TXN: u64 = 1_000_000;
        let sim = Sim::new(9);
        let world = World::new(
            sim.clone(),
            WorldCfg {
                nodes: 3 * 3 + 1,
                ..WorldCfg::default()
            },
        );
        let cfg = RaftCfg {
            bootstrap_leader: Some(0),
            ..RaftCfg::default()
        };
        let cl = ShardedCluster::build(&sim, &world, 3, 3, 1, cfg);
        let (a, b) = (&cl.servers[0][1], &cl.servers[0][2]);
        for peer in [NodeId(0), NodeId(1)] {
            world.partition(b.raft().node(), peer);
        }
        // 1 100 single-key transactions straight into shard 0's log: 2 200
        // entries, more than two slacks.
        let leader = &cl.servers[0][0];
        let mut last = None;
        for txn in 1..=1_100u64 {
            let key = format!("filler{}", txn % 50);
            let writes = vec![Record::new(key.as_bytes(), txn.to_string().as_bytes())];
            leader
                .raft()
                .propose(TxnCmd::Prepare { txn, writes }.to_bytes());
            last = Some(leader.raft().propose(TxnCmd::Commit { txn }.to_bytes()));
        }
        let last = last.expect("proposed");
        let done = async move { last.handle().wait_timeout(Duration::from_secs(10)).await };
        assert!(sim.block_on(done).is_ready());

        // Phase one of the cross-shard transaction, on every shard.
        let write = |shard: usize| Record::new(format!("account{shard}").as_bytes(), b"100");
        for shard in 0..3 {
            let writes = vec![write(shard)];
            let vote = exec(
                &sim,
                &cl.servers[shard][0],
                TxnCmd::Prepare { txn: TXN, writes },
            );
            assert_eq!(vote, Some(TxnVote::Yes), "shard {shard} prepares");
        }
        sim.run_until_time(sim.now() + Duration::from_secs(1));
        let (a_log, b_log) = (&a.raft().core().log, &b.raft().core().log);
        assert!(a_log.first_index() > b_log.last_index() + 1, "A compacted");
        assert_eq!((b.locked_keys(), b.commits()), (0, 0), "B saw none of it");

        // The leader dies between the phases; A takes over and can bring B
        // forward only by snapshot.
        world.crash(NodeId(0));
        world.heal(b.raft().node(), NodeId(1));
        sim.run_until_time(sim.now() + Duration::from_secs(4));
        assert!(a.raft().is_leader());
        assert_eq!(b_log.last_index(), a_log.last_index(), "B caught up");
        assert!(b_log.first_index() > 2_000, "by snapshot, not by log");
        assert_eq!(b.commits(), 1_100);
        assert_eq!(b.locked_keys(), 1, "the prepared lock came with the state");
        assert_eq!(b.local_get(&write(0).key()), None, "staged, not applied");

        // Phase two.
        let leaders = [a, &cl.servers[1][0], &cl.servers[2][0]];
        for (shard, leader) in leaders.into_iter().enumerate() {
            let vote = exec(&sim, leader, TxnCmd::Commit { txn: TXN });
            assert_eq!(vote, Some(TxnVote::Yes), "shard {shard} commits");
        }
        sim.run_until_time(sim.now() + Duration::from_secs(1));
        for (shard, replicas) in cl.servers.iter().enumerate() {
            for r in replicas {
                if world.is_crashed(r.raft().node()) {
                    continue;
                }
                let node = r.raft().node().0;
                assert_eq!(
                    r.local_get(&write(shard).key()),
                    Some(write(shard).value()),
                    "node {node}: the staged write was applied"
                );
                assert_eq!(r.locked_keys(), 0, "node {node}: the lock was released");
            }
        }
        assert_eq!(b.commits(), 1_101);
    }
}
