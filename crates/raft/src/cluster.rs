//! Cluster assembly: build `n` Raft servers of a chosen driver on a
//! simulated world, sharing one tracer and RPC registry.

use depfast::runtime::Runtime;
use depfast::Tracer;
use depfast_rpc::endpoint::Registry;
use depfast_rpc::{BufferPolicy, Endpoint, RpcCfg};
use simkit::{NodeId, Sim, World};

use crate::backlog_driver::BacklogRaft;
use crate::callback_driver::CallbackRaft;
use crate::chain_driver::ChainRaft;
use crate::core::{RaftCfg, RaftCore, RaftServer};
use crate::depfast_driver::DepFastRaft;
use crate::sync_driver::SyncRaft;

/// Which implementation style drives the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaftKind {
    /// §3.4's fail-slow tolerant implementation.
    DepFast,
    /// TiDB-style single region thread with inline cold reads.
    Sync,
    /// RethinkDB-style unbounded leader-side replication queues.
    Backlog,
    /// MongoDB-style message loop with synchronous flow-control probes.
    Callback,
    /// Chain replication (head→…→tail), for the §3.3 tradeoff analysis.
    Chain,
}

impl RaftKind {
    /// Display name used in benchmark tables.
    pub fn name(self) -> &'static str {
        match self {
            RaftKind::DepFast => "DepFastRaft",
            RaftKind::Sync => "SyncRaft (TiDB-style)",
            RaftKind::Backlog => "BacklogRaft (RethinkDB-style)",
            RaftKind::Callback => "CallbackRaft (MongoDB-style)",
            RaftKind::Chain => "ChainRaft (chain replication)",
        }
    }

    /// Starts this driver's coroutines on `core` and wraps it.
    fn start(self, core: std::rc::Rc<RaftCore>) -> RaftServer {
        match self {
            RaftKind::DepFast => DepFastRaft::start(&core),
            RaftKind::Sync => SyncRaft::start(&core),
            RaftKind::Backlog => BacklogRaft::start(&core),
            RaftKind::Callback => CallbackRaft::start(&core),
            RaftKind::Chain => ChainRaft::start(&core),
        }
        RaftServer::new(core, self)
    }
}

/// The node among `servers` that claims leadership, if exactly one does.
fn sole_leader(servers: &[RaftServer]) -> Option<NodeId> {
    let mut leaders = servers.iter().filter(|s| s.is_leader());
    let one = leaders.next()?;
    leaders.next().is_none().then(|| one.node())
}

/// A built cluster: servers, runtimes, endpoints and the shared tracer.
pub struct RaftCluster {
    /// One server handle per node, indexed by node id.
    pub servers: Vec<RaftServer>,
    /// Per-node DepFast runtimes.
    pub runtimes: Vec<Runtime>,
    /// Per-node RPC endpoints.
    pub endpoints: Vec<Endpoint>,
    /// The cluster-shared tracer.
    pub tracer: Tracer,
    /// The cluster-shared RPC registry.
    pub registry: Registry,
}

impl RaftCluster {
    /// The current leader's node id, if exactly one server claims it.
    pub fn leader(&self) -> Option<NodeId> {
        sole_leader(&self.servers)
    }
}

/// RPC configuration appropriate for `kind`: DepFastRaft uses bounded
/// buffers (part of its design); legacy drivers use unbounded transport
/// buffers like the systems they model.
pub fn rpc_cfg_for(kind: RaftKind) -> RpcCfg {
    match kind {
        RaftKind::DepFast => RpcCfg::default(),
        _ => RpcCfg {
            buffer: BufferPolicy::Unbounded,
            ..RpcCfg::default()
        },
    }
}

/// Builds and starts a cluster of `n` nodes of the given driver on nodes
/// `0..n` of `world`.
pub fn build_cluster(
    sim: &Sim,
    world: &World,
    kind: RaftKind,
    n: usize,
    cfg: RaftCfg,
) -> RaftCluster {
    // One tracer recording into the world's registry: substrate (`sim.*`),
    // transport (`rpc.*`), event (`event.*`) and driver (`raft.*`) series
    // all land in one place, keyed by node.
    let tracer = Tracer::with_metrics(world.metrics());
    let registry = Registry::new();
    let members: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
    let mut servers = Vec::with_capacity(n);
    let mut runtimes = Vec::with_capacity(n);
    let mut endpoints = Vec::with_capacity(n);
    for id in &members {
        let rt = Runtime::with_tracer(sim.clone(), *id, tracer.clone());
        let ep = Endpoint::new(&rt, world, &registry, rpc_cfg_for(kind));
        let core = RaftCore::new(&rt, world, &ep, members.clone(), cfg);
        servers.push(kind.start(core));
        runtimes.push(rt);
        endpoints.push(ep);
    }
    RaftCluster {
        servers,
        runtimes,
        endpoints,
        tracer,
        registry,
    }
}

/// One Raft group of a multi-group cluster: its id, its member nodes and
/// a server handle per member (same order as `members`).
pub struct RaftGroup {
    /// Group id (1-based; 0 is reserved for the legacy single-group
    /// namespace).
    pub gid: u32,
    /// Member nodes, in placement order (`members[0]` is the bootstrap
    /// leader when the cluster was built with one).
    pub members: Vec<NodeId>,
    /// One server handle per member, indexed like `members`.
    pub servers: Vec<RaftServer>,
}

impl RaftGroup {
    /// The group's current leader node, if exactly one member claims it.
    pub fn leader(&self) -> Option<NodeId> {
        sole_leader(&self.servers)
    }

    /// Whether `node` hosts a replica of this group.
    pub fn hosts(&self, node: NodeId) -> bool {
        self.members.contains(&node)
    }
}

/// A multi-group cluster: `groups.len()` Raft groups striped over
/// `runtimes.len()` nodes, sharing one world, tracer, registry and one
/// RPC endpoint per node.
pub struct MultiRaftCluster {
    /// The groups, in gid order (`groups[i].gid == i as u32 + 1`).
    pub groups: Vec<RaftGroup>,
    /// Per-node DepFast runtimes, indexed by node id.
    pub runtimes: Vec<Runtime>,
    /// Per-node RPC endpoints, indexed by node id (shared by every group
    /// co-located on that node).
    pub endpoints: Vec<Endpoint>,
    /// The cluster-shared tracer.
    pub tracer: Tracer,
    /// The cluster-shared RPC registry.
    pub registry: Registry,
}

impl MultiRaftCluster {
    /// The group with id `gid` (1-based).
    pub fn group(&self, gid: u32) -> &RaftGroup {
        &self.groups[(gid - 1) as usize]
    }

    /// Ids of every group hosting a replica on `node`.
    pub fn groups_on(&self, node: NodeId) -> Vec<u32> {
        self.groups
            .iter()
            .filter(|g| g.hosts(node))
            .map(|g| g.gid)
            .collect()
    }
}

/// How a multi-group cluster lays its replicas over the server nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupPlacement {
    /// Group `g` (1-based) lives on nodes `(g - 1 + r) % n_nodes` —
    /// consecutive groups start one node apart, so replicas (and
    /// bootstrap leaders, which round-robin with the stripe) spread
    /// evenly and any single node hosts roughly
    /// `n_groups * group_size / n_nodes` replicas. This co-location is
    /// the fleet-scale topology the blast-radius experiments model.
    Striped,
    /// Group `g` (1-based) owns nodes
    /// `(g-1)*group_size .. g*group_size` exclusively — the paper's
    /// Figure 2 topology (shard 1 on s1–s3, shard 2 on s4–s6, …).
    /// Requires `n_nodes >= n_groups * group_size`.
    Disjoint,
}

/// Builds and starts `n_groups` Raft groups of `group_size` replicas
/// each, striped over nodes `0..n_nodes` of `world`
/// ([`GroupPlacement::Striped`]).
///
/// All groups co-located on a node share that node's runtime and RPC
/// endpoint; method-id namespacing ([`RaftCore::method`]) and `g{gid}`
/// metric tags keep them apart. When `cfg.bootstrap_leader` is set (to
/// any value), each group bootstraps its first member as leader.
pub fn build_multi_cluster(
    sim: &Sim,
    world: &World,
    kind: RaftKind,
    n_groups: usize,
    n_nodes: usize,
    group_size: usize,
    cfg: RaftCfg,
) -> MultiRaftCluster {
    build_multi_cluster_placed(
        sim,
        world,
        kind,
        n_groups,
        n_nodes,
        group_size,
        cfg,
        GroupPlacement::Striped,
    )
}

/// [`build_multi_cluster`] with an explicit [`GroupPlacement`].
#[allow(clippy::too_many_arguments)]
pub fn build_multi_cluster_placed(
    sim: &Sim,
    world: &World,
    kind: RaftKind,
    n_groups: usize,
    n_nodes: usize,
    group_size: usize,
    cfg: RaftCfg,
    placement: GroupPlacement,
) -> MultiRaftCluster {
    assert!(n_groups >= 1 && group_size >= 1 && n_nodes >= group_size);
    if placement == GroupPlacement::Disjoint {
        assert!(
            n_nodes >= n_groups * group_size,
            "disjoint placement needs {} nodes, world has {n_nodes}",
            n_groups * group_size
        );
    }
    let tracer = Tracer::with_metrics(world.metrics());
    let registry = Registry::new();
    let mut runtimes = Vec::with_capacity(n_nodes);
    let mut endpoints = Vec::with_capacity(n_nodes);
    for id in 0..n_nodes as u32 {
        let rt = Runtime::with_tracer(sim.clone(), NodeId(id), tracer.clone());
        let ep = Endpoint::new(&rt, world, &registry, rpc_cfg_for(kind));
        runtimes.push(rt);
        endpoints.push(ep);
    }
    let mut groups = Vec::with_capacity(n_groups);
    for g in 1..=n_groups as u32 {
        let members: Vec<NodeId> = (0..group_size as u32)
            .map(|r| match placement {
                GroupPlacement::Striped => NodeId((g - 1 + r) % n_nodes as u32),
                GroupPlacement::Disjoint => NodeId((g - 1) * group_size as u32 + r),
            })
            .collect();
        let group_cfg = RaftCfg {
            bootstrap_leader: cfg.bootstrap_leader.map(|_| members[0].0),
            ..cfg
        };
        let mut servers = Vec::with_capacity(group_size);
        for m in &members {
            let rt = &runtimes[m.0 as usize];
            let ep = &endpoints[m.0 as usize];
            let core = RaftCore::new_in_group(rt, world, ep, members.clone(), group_cfg, g);
            servers.push(kind.start(core));
        }
        groups.push(RaftGroup {
            gid: g,
            members,
            servers,
        });
    }
    MultiRaftCluster {
        groups,
        runtimes,
        endpoints,
        tracer,
        registry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use depfast::event::Watchable;
    use simkit::WorldCfg;
    use std::time::Duration;

    #[test]
    fn every_kind_builds_and_commits() {
        for kind in [
            RaftKind::DepFast,
            RaftKind::Sync,
            RaftKind::Backlog,
            RaftKind::Callback,
            RaftKind::Chain,
        ] {
            let sim = Sim::new(17);
            let world = World::new(
                sim.clone(),
                WorldCfg {
                    nodes: 3,
                    ..WorldCfg::default()
                },
            );
            let cl = build_cluster(
                &sim,
                &world,
                kind,
                3,
                RaftCfg {
                    bootstrap_leader: Some(0),
                    ..RaftCfg::default()
                },
            );
            for i in 0..20u8 {
                let ev = cl.servers[0].propose(Bytes::from(vec![i; 16]));
                let out = sim.block_on({
                    let ev = ev.clone();
                    async move { ev.handle().wait_timeout(Duration::from_secs(2)).await }
                });
                assert!(out.is_ready(), "{} failed to commit #{i}", kind.name());
            }
            assert_eq!(cl.leader(), Some(NodeId(0)));
            // Let the followers catch up, then every replica's log must
            // match the leader's term by term.
            sim.run_until_time(sim.now() + Duration::from_secs(1));
            let leader_log = &cl.servers[0].core().log;
            assert!(leader_log.last_index() >= 20);
            for s in &cl.servers[1..] {
                let log = &s.core().log;
                let node = s.node().0;
                assert_eq!(
                    log.last_index(),
                    leader_log.last_index(),
                    "{}: node {node} log length",
                    kind.name()
                );
                for i in 1..=leader_log.last_index() {
                    assert_eq!(
                        log.term_at(i),
                        leader_log.term_at(i),
                        "{}: node {node} log matching at {i}",
                        kind.name()
                    );
                }
            }
        }
    }

    #[test]
    fn five_node_cluster_commits() {
        let sim = Sim::new(23);
        let world = World::new(
            sim.clone(),
            WorldCfg {
                nodes: 5,
                ..WorldCfg::default()
            },
        );
        let cl = build_cluster(
            &sim,
            &world,
            RaftKind::DepFast,
            5,
            RaftCfg {
                bootstrap_leader: Some(0),
                ..RaftCfg::default()
            },
        );
        let ev = cl.servers[0].propose(Bytes::from_static(b"five"));
        let out = sim.block_on({
            let ev = ev.clone();
            async move { ev.handle().wait_timeout(Duration::from_secs(2)).await }
        });
        assert!(out.is_ready());
    }

    #[test]
    fn multi_group_cluster_commits_in_every_group() {
        let sim = Sim::new(29);
        let world = World::new(
            sim.clone(),
            WorldCfg {
                nodes: 5,
                ..WorldCfg::default()
            },
        );
        let mc = build_multi_cluster(
            &sim,
            &world,
            RaftKind::DepFast,
            4,
            5,
            3,
            RaftCfg {
                bootstrap_leader: Some(0),
                ..RaftCfg::default()
            },
        );
        assert_eq!(mc.groups.len(), 4);
        // Striped placement: group g starts on node g-1, leaders round-robin.
        assert_eq!(mc.group(1).members[0], NodeId(0));
        assert_eq!(mc.group(3).members[0], NodeId(2));
        assert_eq!(mc.groups_on(NodeId(2)), vec![1, 2, 3]);
        for g in &mc.groups {
            let ev = g.servers[0].propose(Bytes::from_static(b"multi"));
            let out = sim.block_on({
                let ev = ev.clone();
                async move { ev.handle().wait_timeout(Duration::from_secs(2)).await }
            });
            assert!(out.is_ready(), "group {} failed to commit", g.gid);
            assert_eq!(g.leader(), Some(g.members[0]));
        }
    }

    #[test]
    fn disjoint_placement_gives_each_group_its_own_nodes() {
        let sim = Sim::new(37);
        let world = World::new(
            sim.clone(),
            WorldCfg {
                nodes: 6,
                ..WorldCfg::default()
            },
        );
        let mc = build_multi_cluster_placed(
            &sim,
            &world,
            RaftKind::DepFast,
            2,
            6,
            3,
            RaftCfg {
                bootstrap_leader: Some(0),
                ..RaftCfg::default()
            },
            GroupPlacement::Disjoint,
        );
        assert_eq!(mc.group(1).members, vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(mc.group(2).members, vec![NodeId(3), NodeId(4), NodeId(5)]);
        assert_eq!(mc.groups_on(NodeId(4)), vec![2]);
        for g in &mc.groups {
            let ev = g.servers[0].propose(Bytes::from_static(b"disjoint"));
            let out = sim.block_on({
                let ev = ev.clone();
                async move { ev.handle().wait_timeout(Duration::from_secs(2)).await }
            });
            assert!(out.is_ready(), "group {} failed to commit", g.gid);
        }
    }
}
