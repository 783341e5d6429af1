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

/// RPC configuration appropriate for `kind`: DepFastRaft uses bounded
/// buffers (part of its design); legacy drivers use unbounded transport
/// buffers like the systems they model.
pub fn rpc_cfg_for(kind: RaftKind) -> RpcCfg {
    match kind {
        RaftKind::DepFast => RpcCfg::default(),
        _ => RpcCfg {
            buffer: BufferPolicy::Unbounded,
        },
    }
}

/// How a cluster lays its Raft groups over the server nodes `0..`. Pure
/// data: [`Placement::groups`] is the whole rule, and a single group is
/// simply the one-group case — group id 0 is the identity namespace for
/// method ids ([`depfast_rpc::group_method`]), metric tags and
/// [`depfast::HealthEvent::group`], so its wire and metric bytes are those
/// of a cluster that never heard of groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// One group, gid 0, on nodes `0..n`. `cfg.bootstrap_leader` names
    /// the bootstrap leader.
    Single {
        /// Replicas.
        n: usize,
    },
    /// Group `g` (gids from 1) lives on nodes `(g - 1 + r) % nodes` —
    /// consecutive groups start one node apart, so replicas (and
    /// bootstrap leaders, which round-robin with the stripe) spread
    /// evenly and any single node hosts roughly `groups * size / nodes`
    /// replicas. This co-location is the fleet-scale topology the
    /// blast-radius experiments model.
    Striped {
        /// Raft groups.
        groups: usize,
        /// Server nodes the groups are striped over.
        nodes: usize,
        /// Replicas per group.
        size: usize,
    },
    /// Group `g` (gids from 1) owns nodes `(g-1)*size .. g*size`
    /// exclusively — the paper's Figure 2 topology (shard 1 on s1–s3,
    /// shard 2 on s4–s6, …).
    Disjoint {
        /// Raft groups.
        groups: usize,
        /// Replicas per group.
        size: usize,
    },
}

impl Placement {
    /// Server nodes the placement occupies (`0..server_nodes()`).
    pub fn server_nodes(&self) -> usize {
        match *self {
            Placement::Single { n } => n,
            Placement::Striped { nodes, .. } => nodes,
            Placement::Disjoint { groups, size } => groups * size,
        }
    }

    /// Every group as `(gid, members)`, in gid order; `members[0]` is
    /// the bootstrap leader of a multi-group placement.
    pub fn groups(&self) -> Vec<(u32, Vec<NodeId>)> {
        let node = |n: usize| NodeId(n as u32);
        let gid = |g: usize| g as u32 + 1;
        match *self {
            Placement::Single { n } => {
                assert!(n >= 1, "a group needs a replica");
                vec![(0, (0..n).map(node).collect())]
            }
            Placement::Striped {
                groups,
                nodes,
                size,
            } => {
                assert!(groups >= 1 && size >= 1, "empty placement");
                assert!(nodes >= size, "{size} replicas do not fit {nodes} nodes");
                (0..groups)
                    .map(|g| (gid(g), (g..g + size).map(|n| node(n % nodes)).collect()))
                    .collect()
            }
            Placement::Disjoint { groups, size } => {
                assert!(groups >= 1 && size >= 1, "empty placement");
                (0..groups)
                    .map(|g| (gid(g), (g * size..(g + 1) * size).map(node).collect()))
                    .collect()
            }
        }
    }
}

/// One Raft group of a cluster: its id, its member nodes and a server
/// handle per member (same order as `members`).
pub struct RaftGroup {
    /// Group id: 0 for [`Placement::Single`], 1.. otherwise.
    pub gid: u32,
    /// Member nodes, in placement order.
    pub members: Vec<NodeId>,
    /// One server handle per member, indexed like `members`.
    pub servers: Vec<RaftServer>,
}

impl RaftGroup {
    /// Test probe: the group's current leader node, if exactly one member claims it.
    #[doc(hidden)]
    pub fn leader(&self) -> Option<NodeId> {
        let mut leaders = self.servers.iter().filter(|s| s.is_leader());
        let one = leaders.next()?;
        leaders.next().is_none().then(|| one.node())
    }
}

/// A built cluster: `groups.len()` Raft groups over `runtimes.len()`
/// server nodes, sharing one world, tracer, registry and one RPC
/// endpoint per node.
pub struct RaftCluster {
    /// The groups, in gid order.
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

impl RaftCluster {
    /// Builds and starts every group of `placement` on nodes `0..` of
    /// `world`, all running the `kind` driver.
    ///
    /// Groups co-located on a node share that node's runtime and RPC
    /// endpoint; method-id namespacing ([`RaftCore::method`]) and `g{gid}`
    /// metric tags keep them apart. [`Placement::Single`] bootstraps the
    /// node `cfg.bootstrap_leader` names; with several groups a set
    /// `cfg.bootstrap_leader` (any value) makes each group's first
    /// member its leader.
    pub fn build(
        sim: &Sim,
        world: &World,
        kind: RaftKind,
        cfg: RaftCfg,
        placement: Placement,
    ) -> RaftCluster {
        let n_nodes = placement.server_nodes();
        assert!(
            world.node_count() >= n_nodes,
            "{placement:?} needs {n_nodes} nodes, world has {}",
            world.node_count()
        );
        // One tracer recording into the world's registry: substrate
        // (`sim.*`), transport (`rpc.*`), event (`event.*`) and driver
        // (`raft.*`) series all land in one place, keyed by node.
        let tracer = Tracer::with_metrics(world.metrics());
        let registry = Registry::new();
        let endpoints = node_endpoints(sim, world, &tracer, &registry, kind, 0..n_nodes);
        let groups = placement
            .groups()
            .into_iter()
            .map(|(gid, members)| {
                let cfg = match placement {
                    Placement::Single { .. } => cfg,
                    _ => RaftCfg {
                        bootstrap_leader: cfg.bootstrap_leader.map(|_| members[0].0),
                        ..cfg
                    },
                };
                let servers = members
                    .iter()
                    .map(|m| {
                        let ep = &endpoints[m.0 as usize];
                        let members = members.clone();
                        kind.start(RaftCore::new(ep.runtime(), world, ep, members, cfg, gid))
                    })
                    .collect();
                RaftGroup {
                    gid,
                    members,
                    servers,
                }
            })
            .collect();
        RaftCluster {
            groups,
            runtimes: endpoints.iter().map(|ep| ep.runtime().clone()).collect(),
            endpoints,
            tracer,
            registry,
        }
    }

    /// Frees the cluster's world, ending it: the executor drops every
    /// task and timer ([`Sim::shutdown`]), every endpoint of the registry,
    /// client sessions included, drops its services, calls and queues
    /// ([`Registry::teardown`]), and the thread's ambient trace context
    /// and phase are left as a fresh process has them. Read what is to
    /// be kept first; the cluster serves nothing afterwards.
    pub fn teardown(&self, sim: &Sim) {
        sim.shutdown();
        self.registry.teardown();
        depfast::set_trace_ctx(None);
        depfast::runtime::swap_current_phase(None);
    }

    /// The group with id `gid`.
    pub fn group(&self, gid: u32) -> &RaftGroup {
        self.groups
            .iter()
            .find(|g| g.gid == gid)
            .unwrap_or_else(|| panic!("no group {gid}"))
    }

    /// Endpoints for `n` client sessions on the nodes right after the
    /// servers, on the cluster's tracer and registry.
    pub fn client_endpoints(&self, sim: &Sim, world: &World, n: usize) -> Vec<Endpoint> {
        let first = self.runtimes.len();
        assert!(
            world.node_count() >= first + n,
            "world too small: {} nodes for {first} servers + {n} clients",
            world.node_count(),
        );
        let kind = self.groups[0].servers[0].kind();
        let nodes = first..first + n;
        node_endpoints(sim, world, &self.tracer, &self.registry, kind, nodes)
    }
}

/// One runtime and one endpoint on it per node of `nodes`.
fn node_endpoints(
    sim: &Sim,
    world: &World,
    tracer: &Tracer,
    registry: &Registry,
    kind: RaftKind,
    nodes: std::ops::Range<usize>,
) -> Vec<Endpoint> {
    nodes
        .map(|n| {
            let rt = Runtime::with_tracer(sim.clone(), NodeId(n as u32), tracer.clone());
            Endpoint::new(&rt, world, registry, rpc_cfg_for(kind))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::{self, bootstrapped};
    use crate::types::{VoteReq, VoteResp, APPEND_ENTRIES, CLIENT_PROPOSE, REQUEST_VOTE};
    use bytes::Bytes;
    use depfast::event::Watchable;
    use depfast_rpc::wire::WireRead;
    use std::time::Duration;

    fn build(seed: u64, nodes: usize, kind: RaftKind, placement: Placement) -> (Sim, RaftCluster) {
        let world = fixture::nodes(nodes);
        let (sim, _world, cl) = fixture::cluster(seed, kind, bootstrapped(), world, placement);
        (sim, cl)
    }

    fn commits(sim: &Sim, server: &RaftServer, payload: Bytes) -> bool {
        let ev = server.propose(payload);
        sim.block_on(async move { ev.handle().wait_timeout(Duration::from_secs(2)).await })
            .is_ready()
    }

    fn ids(nodes: &[u32]) -> Vec<NodeId> {
        nodes.iter().copied().map(NodeId).collect()
    }

    /// The placements every gate suite, benchmark workload and example
    /// builds: gids, member lists and (as `members[0]`) bootstrap leaders.
    #[test]
    fn placement_table() {
        let single = Placement::Single { n: 3 };
        assert_eq!(single.groups(), vec![(0, ids(&[0, 1, 2]))]);
        assert_eq!(single.server_nodes(), 3);

        // `scale-out`: 16 groups of 3 on 12 nodes; the stripe wraps.
        let scale_out = Placement::Striped {
            groups: 16,
            nodes: 12,
            size: 3,
        };
        let groups = scale_out.groups();
        assert_eq!(groups.len(), 16);
        assert_eq!(groups[0], (1, ids(&[0, 1, 2])));
        assert_eq!(groups[10], (11, ids(&[10, 11, 0])));
        assert_eq!(groups[11], (12, ids(&[11, 0, 1])));
        assert_eq!(groups[12], (13, ids(&[0, 1, 2])));
        assert_eq!(groups[15], (16, ids(&[3, 4, 5])));
        assert_eq!(scale_out.server_nodes(), 12);

        // The blast-radius cell: node 8 of 9 hosts exactly g7 and g8.
        let blast = Placement::Striped {
            groups: 8,
            nodes: 9,
            size: 3,
        };
        let on_8: Vec<u32> = blast
            .groups()
            .into_iter()
            .filter(|(_, m)| m.contains(&NodeId(8)))
            .map(|(gid, _)| gid)
            .collect();
        assert_eq!(on_8, vec![7, 8]);

        // Figure 2: shard 1 on s1–s3, shard 2 on s4–s6.
        let fig2 = Placement::Disjoint { groups: 2, size: 3 };
        assert_eq!(
            fig2.groups(),
            vec![(1, ids(&[0, 1, 2])), (2, ids(&[3, 4, 5]))]
        );
        assert_eq!(fig2.server_nodes(), 6);
    }

    #[test]
    #[should_panic(expected = "do not fit")]
    fn striped_refuses_groups_wider_than_the_node_set() {
        Placement::Striped {
            groups: 2,
            nodes: 2,
            size: 3,
        }
        .groups();
    }

    #[test]
    #[should_panic(expected = "needs 6 nodes, world has 5")]
    fn disjoint_refuses_a_world_with_too_few_nodes() {
        build(
            1,
            5,
            RaftKind::DepFast,
            Placement::Disjoint { groups: 2, size: 3 },
        );
    }

    /// The facts the byte-identical baselines rest on: a single group is
    /// group 0, and group 0 is the identity namespace.
    #[test]
    fn single_group_lives_in_the_identity_namespace() {
        let (sim, cl) = build(41, 3, RaftKind::DepFast, Placement::Single { n: 3 });
        let [group] = &cl.groups[..] else {
            panic!("one group expected");
        };
        assert_eq!(group.gid, 0);
        let leader = &group.servers[0];
        for m in [APPEND_ENTRIES, REQUEST_VOTE, CLIENT_PROPOSE] {
            assert_eq!(leader.core().method(m), m);
        }
        // A service answers under the base id: a stale vote request from
        // node 1 is refused by node 0, not dropped.
        let stale = VoteReq {
            term: 0,
            candidate: 1,
            last_index: 0,
            last_term: 0,
        };
        let ev = cl.endpoints[1]
            .proxy(NodeId(0))
            .call_t(REQUEST_VOTE, "probe", &stale);
        let reply = sim.block_on({
            let ev = ev.clone();
            async move {
                ev.handle().wait_timeout(Duration::from_secs(1)).await;
                ev.take().and_then(|b| VoteResp::from_frame(&b))
            }
        });
        assert!(!reply.expect("served under the base id").granted);

        // A disk-slow follower under load trips the leader's append
        // window: raft-layer health events, none group-stamped.
        leader.core().world.set_disk_bw_factor(NodeId(2), 0.001);
        for i in 0..400u32 {
            leader.propose(Bytes::from(vec![i as u8; 4096]));
        }
        sim.run_until_time(sim.now() + Duration::from_secs(3));
        let health = cl.tracer.take_health_events();
        assert!(
            health.iter().any(|e| e.layer == "raft"),
            "no flow-control transition recorded"
        );
        assert!(health.iter().all(|e| e.group.is_none()));
        let raft_keys: Vec<_> = cl
            .tracer
            .metrics()
            .snapshot()
            .into_iter()
            .map(|(k, _)| k)
            .filter(|k| k.name.starts_with("raft."))
            .collect();
        assert!(!raft_keys.is_empty());
        assert!(raft_keys.iter().all(|k| k.tag.is_none()), "{raft_keys:?}");
    }

    #[test]
    fn every_kind_builds_and_commits() {
        for kind in [
            RaftKind::DepFast,
            RaftKind::Sync,
            RaftKind::Backlog,
            RaftKind::Callback,
            RaftKind::Chain,
        ] {
            let (sim, cl) = build(17, 3, kind, Placement::Single { n: 3 });
            let group = &cl.groups[0];
            for i in 0..20u8 {
                assert!(
                    commits(&sim, &group.servers[0], Bytes::from(vec![i; 16])),
                    "{} failed to commit #{i}",
                    kind.name()
                );
            }
            assert_eq!(group.leader(), Some(NodeId(0)));
            // Let the followers catch up, then every replica's log must
            // match the leader's term by term.
            sim.run_until_time(sim.now() + Duration::from_secs(1));
            let leader_log = &group.servers[0].core().log;
            assert!(leader_log.last_index() >= 20);
            for s in &group.servers[1..] {
                let log = &s.core().log;
                let node = s.node().0;
                assert_eq!(
                    log.last_index(),
                    leader_log.last_index(),
                    "{}: node {node} log length",
                    kind.name()
                );
                // From the first entry both still hold: a compacted prefix
                // is applied, hence identical, and `term_at` answers 0 for
                // it on both sides.
                let from = log.first_index().max(leader_log.first_index());
                assert!(from <= s.core().applied_idx.get() + 1);
                for i in from..=leader_log.last_index() {
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
        let (sim, cl) = build(23, 5, RaftKind::DepFast, Placement::Single { n: 5 });
        assert!(commits(
            &sim,
            &cl.groups[0].servers[0],
            Bytes::from_static(b"five")
        ));
    }

    #[test]
    fn multi_group_cluster_commits_in_every_group() {
        let striped = Placement::Striped {
            groups: 4,
            nodes: 5,
            size: 3,
        };
        let (sim, mc) = build(29, 5, RaftKind::DepFast, striped);
        assert_eq!(mc.groups.len(), 4);
        // Striped placement: group g starts on node g-1, leaders round-robin.
        assert_eq!(mc.group(1).members[0], NodeId(0));
        assert_eq!(mc.group(3).members[0], NodeId(2));
        for g in &mc.groups {
            assert!(
                commits(&sim, &g.servers[0], Bytes::from_static(b"multi")),
                "group {} failed to commit",
                g.gid
            );
            assert_eq!(g.leader(), Some(g.members[0]));
        }
    }

    #[test]
    fn disjoint_placement_gives_each_group_its_own_nodes() {
        let disjoint = Placement::Disjoint { groups: 2, size: 3 };
        let (sim, mc) = build(37, 6, RaftKind::DepFast, disjoint);
        assert_eq!(mc.group(1).members, ids(&[0, 1, 2]));
        assert_eq!(mc.group(2).members, ids(&[3, 4, 5]));
        for g in &mc.groups {
            assert!(
                commits(&sim, &g.servers[0], Bytes::from_static(b"disjoint")),
                "group {} failed to commit",
                g.gid
            );
        }
    }
}
