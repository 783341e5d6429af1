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
    use crate::client::{KvError, RetryPolicy};
    use crate::command::{KvOp, KvRequest, KvResponse, KvStatus};
    use bytes::Bytes;
    use depfast::event::Watchable;
    use depfast_raft::depfast_driver::DepFastRaft;
    use depfast_rpc::wire::{WireRead, WireWrite};
    use depfast_storage::{LogStoreCfg, Record};
    use simkit::{MemCfg, WorldCfg};
    use std::cell::{Cell, RefCell};
    use std::collections::VecDeque;
    use std::rc::Rc;

    fn world(n: usize) -> (Sim, World) {
        let sim = Sim::new(31);
        let world = World::new(
            sim.clone(),
            WorldCfg {
                nodes: n,
                // Room for BacklogRaft's per-follower queues (charged 768x)
                // behind a partitioned peer: these tests are about the log.
                mem: MemCfg {
                    limit: 1 << 50,
                    ..MemCfg::default()
                },
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
    /// stored record, and the value the get handed the client.
    fn put_then_read_index_get(len: usize) -> (Vec<Bytes>, Vec<Record>, Bytes) {
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
                .map(|s| s.stored(&key).expect("applied"))
                .collect(),
            got.expect("the get sees the put"),
        )
    }

    /// A put is one buffer at any size, the one the leader received the
    /// client's request in: every log holds a view of it (a follower's
    /// entry is the leader's payload, spliced into each `AppendEntries`,
    /// not a view of the append's run), and every replica's stored key
    /// and value lie inside it, so a put costs a replica no allocation. A
    /// record-sized value comes back in the get's reply as a view of it
    /// too. A silent fall-back to a copy per replica, or to a view of an
    /// `AppendEntries` run, fails here, not only in a later memory
    /// benchmark.
    #[test]
    fn a_put_is_one_buffer_from_the_request_to_every_replica() {
        let key = b"user0000000000000000042";
        // (value length, the reply is a view of it: it is spliced back)
        for (len, reply_is_a_view) in [(100, false), (1000, true)] {
            let (payloads, records, got) = put_then_read_index_get(len);
            let body = payloads[0].as_ptr_range();
            for p in &payloads {
                assert_eq!(p.as_ptr_range(), body, "{len} B: the leader's payload");
            }
            let inside = |v: Bytes| {
                let v = v.as_ptr_range();
                body.start <= v.start && v.end <= body.end
            };
            let value = vec![7u8; len];
            for r in &records {
                assert_eq!((&r.key()[..], &r.value()[..]), (&key[..], &value[..]));
                for (part, v) in [("key", r.key()), ("value", r.value())] {
                    assert!(inside(v), "{len} B: the stored {part} is a view of it");
                }
            }
            assert_eq!(got[..], value[..]);
            if reply_is_a_view {
                assert!(inside(got), "{len} B: the reply is a view of it");
            }
        }
    }

    /// A 100 B put's record is, on all three replicas, a view of the one
    /// buffer the client encoded its request in: the request crosses the
    /// wire to the leader as a segment of its own, not copied into the
    /// run of the envelope around it, and from there into every log and
    /// every record. The request goes out from a bare endpoint, so the
    /// test holds that buffer.
    #[test]
    fn a_small_puts_record_is_a_view_of_the_clients_request_on_every_replica() {
        let (sim, w) = world(4);
        let cfg = RaftCfg {
            bootstrap_leader: Some(0),
            ..RaftCfg::default()
        };
        let cl = KvCluster::build(&sim, &w, RaftKind::DepFast, 3, 0, cfg);
        let ep = cl.raft.client_endpoints(&sim, &w, 1).remove(0);
        let key = Bytes::from_static(b"user0000000000000000042");
        let put = KvRequest {
            client: 1,
            seq: 1,
            op: KvOp::Put,
            key: key.clone(),
            value: Bytes::from(vec![7u8; 100]),
        };
        let request = put.to_bytes();
        assert_eq!(request.len(), 148, "a scale-out put");
        let method = depfast_raft::types::CLIENT_PROPOSE;
        let call = ep
            .proxy(NodeId(0))
            .call(method, "kv_request", request.clone());
        sim.run_until_time(sim.now() + Duration::from_secs(1));
        let reply = call.take().and_then(|f| KvResponse::from_frame(&f));
        assert_eq!(reply.map(|r| r.status), Some(KvStatus::Ok), "acknowledged");
        let buffer = request.as_ptr_range();
        for (r, s) in cl.servers.iter().enumerate() {
            let record = s.stored(&key).expect("applied");
            assert_eq!(
                (record.key(), record.value()),
                (key.clone(), put.value.clone())
            );
            for (part, v) in [("key", record.key()), ("value", record.value())] {
                let v = v.as_ptr_range();
                let inside = buffer.start <= v.start && v.end <= buffer.end;
                assert!(
                    inside,
                    "replica {r}: the {part} lies in the client's request"
                );
            }
        }
    }

    /// What the log-GC tests below build on: three servers of `kind` led
    /// by node 0, and `n_clients` sessions.
    fn trio(kind: RaftKind, n_clients: usize) -> (Sim, World, Rc<KvCluster>) {
        trio_caching(kind, n_clients, LogStoreCfg::default().cache_bytes)
    }

    /// [`trio`] with an EntryCache of `cache_bytes` per replica.
    fn trio_caching(
        kind: RaftKind,
        n_clients: usize,
        cache_bytes: u64,
    ) -> (Sim, World, Rc<KvCluster>) {
        let (sim, w) = world(3 + n_clients);
        let cfg = RaftCfg {
            bootstrap_leader: Some(0),
            log: LogStoreCfg {
                cache_bytes,
                ..LogStoreCfg::default()
            },
            ..RaftCfg::default()
        };
        let cl = KvCluster::build(&sim, &w, kind, 3, n_clients, cfg);
        (sim, w, Rc::new(cl))
    }

    fn key(i: u32) -> Bytes {
        Bytes::from(format!("user{i:019}"))
    }

    /// Puts number `range` of a run — put `i` writes a `len`-byte value
    /// to key `i % keys` — from every session but `spare` of them at
    /// once, each taking the next put as it finishes its last.
    fn put_many(
        sim: &Sim,
        cl: &Rc<KvCluster>,
        range: std::ops::Range<u32>,
        keys: u32,
        len: usize,
        spare: usize,
    ) {
        let queue: VecDeque<u32> = range.collect();
        let queue = Rc::new(RefCell::new(queue));
        let sessions = cl.clients.len() - spare;
        let idle = Rc::new(Cell::new(0));
        for c in 0..sessions {
            let (cl, queue, idle) = (cl.clone(), queue.clone(), idle.clone());
            sim.spawn(async move {
                loop {
                    let Some(i) = queue.borrow_mut().pop_front() else {
                        break;
                    };
                    let mut value = format!("{i:08}").into_bytes();
                    value.resize(len.max(8), b'.');
                    let put = cl.clients[c].put(key(i % keys), value.into());
                    put.await.expect("acknowledged");
                }
                idle.set(idle.get() + 1);
            });
        }
        while idle.get() < sessions {
            sim.run_until_time(sim.now() + Duration::from_millis(20));
        }
    }

    fn settle(sim: &Sim, secs: u64) {
        sim.run_until_time(sim.now() + Duration::from_secs(secs));
    }

    /// Entries a replica's log holds.
    fn held(s: &KvServer) -> u64 {
        let log = &s.raft().core().log;
        log.last_index() + 1 - log.first_index()
    }

    /// `InstallSnapshot` calls answered so far, cluster-wide.
    fn snapshots_answered(cl: &KvCluster) -> u64 {
        let calls = cl.raft.tracer.metrics().histograms_named("rpc.latency");
        let snapshots = calls
            .iter()
            .filter(|(k, _)| k.tag == Some("install_snapshot"));
        snapshots.map(|(_, h)| h.snapshot().count).sum()
    }

    /// `replicas` agree on what they applied and on every key's value.
    fn assert_converged(cl: &KvCluster, replicas: &[usize], keys: u32, case: &str) {
        let first = &cl.servers[replicas[0]];
        assert!(first.applied() > 0, "{case}: nothing applied");
        for &r in &replicas[1..] {
            let s = &cl.servers[r];
            assert_eq!(s.applied(), first.applied(), "{case}: replica {r} applied");
            assert_eq!(s.keys(), first.keys(), "{case}: replica {r} keys");
            for k in (0..keys).map(key) {
                assert_eq!(s.local_get(&k), first.local_get(&k), "{case}: {k:?}");
            }
        }
    }

    /// The log no longer grows with the run: ten times the puts, the same
    /// entries held — one to two slacks of 1 024 applied entries once
    /// nothing is in flight — under every driver, on every replica whose
    /// rule lets it compact (ChainRaft's head never learns a match index,
    /// so it retains for its peers until the size limit). No replica is
    /// behind, so nobody is sent a snapshot. (BacklogRaft and ChainRaft
    /// send nothing while idle, so their followers learn of the last
    /// round's commit with the next one: the state comparison is for the
    /// three drivers that heartbeat.)
    #[test]
    fn a_ten_times_longer_run_holds_the_same_log() {
        for kind in [
            RaftKind::DepFast,
            RaftKind::Sync,
            RaftKind::Backlog,
            RaftKind::Callback,
            RaftKind::Chain,
        ] {
            let (sim, _w, cl) = trio(kind, 8);
            let compacting = if kind == RaftKind::Chain { 1..3 } else { 0..3 };
            let heartbeats = !matches!(kind, RaftKind::Backlog | RaftKind::Chain);
            for (run, puts) in [(0..2_000, 2_000), (2_000..22_000, 22_000)] {
                put_many(&sim, &cl, run, 200, 16, 0);
                settle(&sim, 1);
                let case = format!("{} after {puts} puts", kind.name());
                for s in &cl.servers {
                    let log = &s.raft().core().log;
                    assert_eq!(log.last_index(), puts as u64, "{case}");
                }
                for s in &cl.servers[compacting.clone()] {
                    assert!(held(s) <= 2 * 1_024, "{case}: holds {}", held(s));
                    assert!(held(s) >= 1_024.min(puts as u64), "{case}");
                }
                if heartbeats {
                    assert_converged(&cl, &[0, 1, 2], 200, &case);
                }
                assert_eq!(snapshots_answered(&cl), 0, "{case}");
            }
        }
    }

    /// A put's record is a view of its body, key and all; an overwrite
    /// replaces the whole record, so the key goes with the value it was
    /// stored with. A key that stayed a view of the first body ever
    /// written for it would pin that body for good, and compacting the
    /// log would free nothing.
    #[test]
    fn a_stored_key_does_not_pin_the_first_body_written_for_it() {
        let (sim, _w, cl) = trio(RaftKind::DepFast, 1);
        let k = key(9_999);
        let bodies: Vec<Bytes> = (0..2)
            .map(|round: u8| {
                let (cl2, k2) = (cl.clone(), k.clone());
                let put = async move { cl2.clients[0].put(k2, vec![round; 1000].into()).await };
                sim.block_on(put).expect("acknowledged");
                let log = &cl.servers[0].raft().core().log;
                let (entries, _) = log.read_raw(log.last_index(), log.last_index() + 1);
                entries[0].payload.clone()
            })
            .collect();
        // A compaction past both puts: the log lets go of both bodies.
        put_many(&sim, &cl, 0..2_100, 50, 16, 0);
        settle(&sim, 1);
        for s in &cl.servers {
            assert!(s.raft().core().log.first_index() > 2, "compacted past both");
            let record = s.stored(&k).expect("stored");
            let (key, value) = (record.key(), record.value());
            let first = bodies[0].as_ptr_range();
            assert!(
                !first.contains(&key.as_ptr()),
                "the key left the first body"
            );
            assert_eq!(value[..], [1u8; 1000]);
            let second = bodies[1].as_ptr_range();
            for v in [key.as_ptr_range(), value.as_ptr_range()] {
                assert!(
                    second.start <= v.start && v.end <= second.end,
                    "key and value are a view of the second body"
                );
            }
        }
    }

    /// Vanilla Raft §7, the path no gated run reaches: follower B misses
    /// everything, the leader and follower A compact far past B's log, the
    /// leader dies, A — whose log no longer reaches back to B — wins, and B
    /// can only be brought forward by A's state machine. That state
    /// includes the dedup sessions: a put A applied before the crash,
    /// retried after it, is answered from the table B was *sent*.
    /// DepFastRaft only: it is the one driver that elects (the legacy
    /// leaders are fixed, and a follower made to campaign under them runs
    /// no leader loop to send anything from).
    #[test]
    fn a_follower_behind_the_new_leaders_base_converges_by_snapshot() {
        const A: usize = 1;
        const B: usize = 2;
        let (sim, w, cl) = trio(RaftKind::DepFast, 5);
        let b = cl.servers[B].raft().node();
        put_many(&sim, &cl, 0..100, 200, 16, 1);
        settle(&sim, 1);
        for peer in [NodeId(0), NodeId(1)] {
            w.partition(b, peer);
        }
        put_many(&sim, &cl, 100..3_000, 200, 16, 1);
        // The spare session's only put, ever: `(client, seq 1)`.
        let cl2 = cl.clone();
        let once = async move {
            let value = Bytes::from_static(b"once");
            cl2.clients[4].put(key(1_000), value).await
        };
        sim.block_on(once).expect("acknowledged");
        settle(&sim, 1);
        let (a_log, b_log) = (
            &cl.servers[A].raft().core().log,
            &cl.servers[B].raft().core().log,
        );
        assert!(
            a_log.first_index() > b_log.last_index() + 1,
            "A compacted past the end of B's log"
        );
        assert_eq!(snapshots_answered(&cl), 0);

        w.crash(NodeId(0));
        w.heal(b, NodeId(1));
        settle(&sim, 3);
        assert!(cl.servers[A].raft().is_leader(), "A holds the longer log");
        put_many(&sim, &cl, 3_000..3_050, 200, 16, 1);
        settle(&sim, 2);
        assert!(snapshots_answered(&cl) >= 1, "B was sent A's state");
        assert_eq!(b_log.last_index(), a_log.last_index());
        assert!(
            b_log.first_index() > 2_000,
            "B's log restarts at the snapshot"
        );
        assert_converged(&cl, &[A, B], 1_001, "after the snapshot");

        // The retry of `(client 5, seq 1)`, with a value that would show.
        let applied = cl.servers[A].applied();
        let retry = KvRequest {
            client: cl.clients[4].id(),
            seq: 1,
            op: KvOp::Put,
            key: key(1_000),
            value: Bytes::from_static(b"twice"),
        };
        let ev = cl.servers[A].raft().propose(retry.to_bytes());
        let ack = async move { ev.handle().wait_timeout(Duration::from_secs(2)).await };
        assert!(sim.block_on(ack).is_ready());
        settle(&sim, 1);
        for r in [A, B] {
            let s = &cl.servers[r];
            assert_eq!(
                &s.local_get(&key(1_000)).unwrap()[..],
                b"once",
                "replica {r}"
            );
            assert_eq!(s.applied(), applied, "replica {r} applied it twice");
        }
    }

    /// Cut loose by size: with B unreachable the leader retains what B has
    /// not matched — until the log passes the 72 MB limit. Then it compacts
    /// past B's match like a follower would, and when B is back the leader
    /// finds B's next entry below its base and sends state instead — from
    /// DepFastRaft's catch-up sends, SyncRaft's region thread and
    /// CallbackRaft's message loop alike (BacklogRaft feeds from its own
    /// queue and has its own test below; ChainRaft's head digests no
    /// append reply, so it has no `next_index` to find below anything).
    #[test]
    fn a_peer_the_size_limit_cut_loose_comes_back_by_snapshot() {
        const B: usize = 2;
        for kind in [RaftKind::DepFast, RaftKind::Sync, RaftKind::Callback] {
            let (sim, w, cl) = trio(kind, 4);
            let b = cl.servers[B].raft().node();
            put_many(&sim, &cl, 0..2_000, 100, 16, 0);
            settle(&sim, 1);
            let core = cl.servers[0].raft().core().clone();
            let b_match = core.match_index(b);
            assert_eq!(b_match, 2_000, "{}", kind.name());
            for peer in [NodeId(0), NodeId(1)] {
                w.partition(b, peer);
            }
            // Under the limit the leader keeps everything B lacks...
            put_many(&sim, &cl, 2_000..3_000, 100, 64 * 1024, 0);
            assert!(core.log.first_index() <= b_match + 1, "retained for B");
            assert!(core.log.bytes() > 60 << 20);
            // ...past it, B is cut loose.
            put_many(&sim, &cl, 3_000..3_200, 100, 64 * 1024, 0);
            assert!(core.log.first_index() > b_match + 1, "compacted past B");
            assert!(core.log.bytes() <= 72 << 20);
            assert_eq!(snapshots_answered(&cl), 0);

            for peer in [NodeId(0), NodeId(1)] {
                w.heal(b, peer);
            }
            settle(&sim, 5);
            assert!(snapshots_answered(&cl) >= 1, "B was sent the state");
            assert!(core.is_leader());
            assert_eq!(core.match_index(b), core.log.last_index());
            assert_converged(&cl, &[0, 1, B], 100, kind.name());
        }
    }

    /// The race the fork has to survive. B is slow, not gone: the leader
    /// keeps feeding it, every read for it comes off the disk (a 1 MB
    /// EntryCache under 16 KB values), and the leader's apply passes go on
    /// meanwhile. When the log crosses the size limit one of them compacts
    /// far past the entries a read has in its hands; the request that read
    /// was for can no longer be built (`append_req` is `None`) and B is
    /// brought forward by state instead. CallbackRaft, with a cold-read
    /// helper in flight every round, is in exactly that interleaving here
    /// (an `append_req` that panics below the base fails this test);
    /// DepFastRaft's paced quarantine reads are rarely on the disk at the
    /// crossing — `raft::core`'s unit test pins its interleaving — and
    /// what this adds for it is the cut-loose peer that was never
    /// partitioned: state sent from the lazy catch-up path.
    #[test]
    fn a_cold_read_in_flight_when_the_log_crosses_the_limit_ends_in_a_snapshot() {
        const B: usize = 2;
        for kind in [RaftKind::DepFast, RaftKind::Callback] {
            let (sim, w, cl) = trio_caching(kind, 4, 1 << 20);
            let b = cl.servers[B].raft().node();
            put_many(&sim, &cl, 0..2_000, 100, 16, 0);
            settle(&sim, 1);
            w.set_cpu_quota(b, 0.02);
            let core = cl.servers[0].raft().core().clone();
            put_many(&sim, &cl, 2_000..7_200, 100, 16 * 1024, 0);
            assert!(core.log.cache_misses() > 0, "B was fed from the disk");
            w.set_cpu_quota(b, 1.0);
            settle(&sim, 5);
            assert!(snapshots_answered(&cl) >= 1, "{}", kind.name());
            assert_eq!(core.match_index(b), core.log.last_index());
            assert_converged(&cl, &[0, 1, B], 100, kind.name());
        }
    }

    /// The other way a read is overtaken: the leader is deposed while its
    /// cold-read helpers for B are on the disk. Its loop finishes the pass
    /// it was in, applies, and — the law is told of no peers any more —
    /// compacts as a follower would, past what those helpers hold. They
    /// must send nothing at all: not an append standing on a term the log
    /// has dropped, and not the state of a node that no longer leads.
    #[test]
    fn a_leader_deposed_with_cold_reads_in_flight_sends_nothing() {
        const B: usize = 2;
        let (sim, w, cl) = trio_caching(RaftKind::Callback, 4, 1 << 20);
        let b = cl.servers[B].raft().node();
        put_many(&sim, &cl, 0..2_000, 100, 16, 0);
        settle(&sim, 1);
        w.set_cpu_quota(b, 0.02);
        put_many(&sim, &cl, 2_000..4_000, 100, 16 * 1024, 0);
        let core = cl.servers[0].raft().core().clone();
        assert!(
            core.log.first_index() <= core.next_index(b),
            "retained for B"
        );
        assert!(core.log.cache_misses() > 100, "B is fed from the disk");
        // Writes keep coming (and fail, once nobody leads: CallbackRaft has
        // a fixed leader) while A is made to campaign.
        for c in 0..4 {
            let cl = cl.clone();
            sim.spawn(async move {
                for i in 0..50 {
                    let value = vec![b'x'; 16 * 1024];
                    let _ = cl.clients[c].put(key(i), value.into()).await;
                }
            });
        }
        sim.run_until_time(sim.now() + Duration::from_millis(40));
        DepFastRaft::force_campaign(cl.servers[1].raft().core());
        settle(&sim, 2);
        assert!(!core.is_leader());
        assert!(
            core.log.first_index() > core.next_index(b),
            "the deposed leader compacted past what it was reading for B"
        );
        assert_eq!(snapshots_answered(&cl), 0);
    }

    /// BacklogRaft feeds a follower from its own queue, not from the log,
    /// and builds a chunk's request when the chunk leaves the queue: the 64
    /// chunks (1 024 entries) in flight toward a partitioned B were built
    /// while the log still held their `prev_index`. The one that leaves
    /// after the size limit has cut B loose finds it gone and is covered by
    /// the state machine instead — as is every chunk behind it that the
    /// snapshot's ack has already matched, without another snapshot each.
    #[test]
    fn a_backlog_chunk_the_log_was_compacted_past_is_covered_by_a_snapshot() {
        const B: usize = 2;
        let (sim, w, cl) = trio(RaftKind::Backlog, 4);
        let b = cl.servers[B].raft().node();
        put_many(&sim, &cl, 0..2_000, 100, 16, 0);
        let core = cl.servers[0].raft().core().clone();
        // BacklogRaft sends nothing while idle: the last ack arrives with
        // the next round, so B's match is read after the partition.
        for peer in [NodeId(0), NodeId(1)] {
            w.partition(b, peer);
        }
        put_many(&sim, &cl, 2_000..4_400, 100, 32 * 1024, 0);
        let b_match = core.match_index(b);
        assert!(b_match <= 2_000);
        assert!(
            core.log.first_index() > b_match + 1 + 1_024 + 16,
            "compacted past everything in flight toward B"
        );
        assert_eq!(snapshots_answered(&cl), 0);

        for peer in [NodeId(0), NodeId(1)] {
            w.heal(b, peer);
        }
        settle(&sim, 5);
        assert_eq!(snapshots_answered(&cl), 1, "one snapshot covers them all");
        assert_eq!(core.match_index(b), core.log.last_index());
        // One more round tells the followers of the last commit.
        put_many(&sim, &cl, 4_400..4_401, 100, 16, 0);
        settle(&sim, 1);
        put_many(&sim, &cl, 4_401..4_402, 100, 16, 0);
        settle(&sim, 1);
        let applied: Vec<u64> = cl.servers.iter().map(KvServer::applied).collect();
        assert_eq!(applied[B], applied[1], "B is where A is");
        for k in (0..100).map(key) {
            assert_eq!(cl.servers[B].local_get(&k), cl.servers[1].local_get(&k));
        }
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
    fn a_leader_hint_on_the_last_attempt_routes_the_next_operation() {
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
        // Session 1's default server is node 1, a follower; let it learn
        // its leader first.
        sim.run_until_time(sim.now() + Duration::from_millis(100));
        cl.clients[0].set_policy(RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        });
        let cl2 = cl.clone();
        let (first, hint, second) = sim.block_on(async move {
            let c = &cl2.clients[0];
            let first = c.put(Bytes::from_static(b"a"), Bytes::from_static(b"1"));
            let first = first.await;
            let hint = c.known_leader();
            let second = c.put(Bytes::from_static(b"a"), Bytes::from_static(b"2"));
            (first, hint, second.await)
        });
        // The one attempt met the follower, which named the leader...
        assert_eq!((first, hint), (Err(KvError::Timeout), Some(NodeId(2))));
        // ...so the next operation's one attempt went there.
        assert_eq!(second, Ok(()));
        assert_eq!(cl.servers[2].local_get(b"a").as_deref(), Some(&b"2"[..]));
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
