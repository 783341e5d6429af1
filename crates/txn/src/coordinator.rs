//! The 2PC coordinator, written in DepFast's nested-event style.
//!
//! Phase 1 waits on `OrEvent(AndEvent(per-shard prepared…), any_abort)`
//! with a timeout — the §3.2 fast-path/slow-path pattern applied to
//! transaction commit. Phase 2 fires commits (or aborts) to every
//! participant and waits for all of them under a single compound event.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::time::Duration;

use bytes::Bytes;
use depfast::event::{AndEvent, OrEvent, QuorumEvent, QuorumMode, Signal, Watchable};
use depfast::runtime::Runtime;
use depfast_kv::ShardMap;
use depfast_rpc::wire::WireRead;
use depfast_rpc::{group_method, Endpoint};
use simkit::NodeId;

use crate::command::{TxnCmd, TxnVote, TxnWrite, TXN_EXEC};

/// Routes a key to a shard: shard `i` is the group `ShardMap` numbers
/// `i + 1`.
pub fn shard_of(key: &Bytes, n_shards: usize) -> usize {
    (ShardMap::new(n_shards).group_of(key) - 1) as usize
}

/// Transaction failure modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnError {
    /// A participant voted no (lock conflict); the transaction aborted.
    Conflict,
    /// Prepares did not resolve in time; the transaction aborted.
    Timeout,
}

impl std::fmt::Display for TxnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxnError::Conflict => write!(f, "transaction aborted: lock conflict"),
            TxnError::Timeout => write!(f, "transaction aborted: prepare timeout"),
        }
    }
}

impl std::error::Error for TxnError {}

/// A 2PC coordinator session on one client host.
pub struct TxnClient {
    rt: Runtime,
    ep: Endpoint,
    shards: Vec<Vec<NodeId>>,
    leaders: RefCell<HashMap<usize, NodeId>>,
    client_id: u64,
    seq: Cell<u64>,
    /// Phase-1 deadline.
    pub prepare_timeout: Duration,
}

impl TxnClient {
    /// Creates a coordinator talking to `shards` (member lists per shard).
    pub fn new(rt: Runtime, ep: Endpoint, shards: Vec<Vec<NodeId>>, client_id: u64) -> Self {
        TxnClient {
            rt,
            ep,
            shards,
            leaders: RefCell::new(HashMap::new()),
            client_id,
            seq: Cell::new(0),
            prepare_timeout: Duration::from_millis(1000),
        }
    }

    fn leader_of(&self, shard: usize) -> NodeId {
        self.leaders
            .borrow()
            .get(&shard)
            .copied()
            .unwrap_or(self.shards[shard][0])
    }

    fn exec(&self, shard: usize, cmd: &TxnCmd, label: &'static str) -> depfast_rpc::RpcEvent {
        // Shard `i` is served by Raft group `i + 1` (the ShardedCluster
        // convention), so the call rides the group-namespaced method id.
        self.ep.proxy(self.leader_of(shard)).call_t(
            group_method(TXN_EXEC, shard as u32 + 1),
            label,
            cmd,
        )
    }

    /// Runs one write transaction across however many shards its keys
    /// touch. Returns `Ok(true)` on commit; `Err` describes the abort.
    pub async fn transact(&self, writes: Vec<(Bytes, Bytes)>) -> Result<bool, TxnError> {
        assert!(!writes.is_empty(), "empty transaction");
        let txn = self.client_id << 32 | {
            let s = self.seq.get() + 1;
            self.seq.set(s);
            s
        };
        // Group writes by shard.
        let mut by_shard: HashMap<usize, Vec<TxnWrite>> = HashMap::new();
        for (key, value) in writes {
            let shard = shard_of(&key, self.shards.len());
            by_shard
                .entry(shard)
                .or_default()
                .push(TxnWrite { key, value });
        }
        let participants: Vec<usize> = by_shard.keys().copied().collect();

        // ---- Phase 1: prepare everywhere. --------------------------------
        // all_prepared = AndEvent over per-shard classified votes;
        // any_abort   = QuorumEvent(count=1) over per-shard "voted no".
        let all_prepared = AndEvent::labeled(&self.rt, "txn_all_prepared");
        let any_abort = QuorumEvent::labeled(&self.rt, QuorumMode::Count(1), "txn_any_abort");
        for (&shard, writes) in &by_shard {
            let cmd = TxnCmd::Prepare {
                txn,
                writes: writes.clone(),
            };
            let ev = self.exec(shard, &cmd, "txn_prepare");
            let target = self.leader_of(shard);
            let yes = depfast::EventHandle::with_sampling(
                &self.rt,
                depfast::EventKind::Rpc { target },
                "txn_prepare",
                false,
            );
            let no = depfast::EventHandle::with_sampling(
                &self.rt,
                depfast::EventKind::Rpc { target },
                "txn_prepare",
                false,
            );
            let (y2, n2) = (yes.clone(), no.clone());
            let ev2 = ev.clone();
            ev.handle().on_fire(move |s| {
                let vote = if s == Signal::Ok {
                    ev2.take().and_then(|b| TxnVote::from_bytes(&b))
                } else {
                    None
                };
                match vote {
                    Some(TxnVote::Yes) => {
                        y2.fire(Signal::Ok);
                        n2.fire(Signal::Err);
                    }
                    _ => {
                        y2.fire(Signal::Err);
                        n2.fire(Signal::Ok);
                    }
                }
            });
            all_prepared.add(&yes);
            any_abort.add(&no);
        }
        let outcome = OrEvent::labeled(&self.rt, "txn_phase1");
        outcome.add(&all_prepared);
        outcome.add(&any_abort);
        outcome.handle().wait_timeout(self.prepare_timeout).await;

        // ---- Phase 2: commit or abort everywhere. ------------------------
        if all_prepared.ready() {
            let done = QuorumEvent::labeled(
                &self.rt,
                QuorumMode::Count(participants.len()),
                "txn_commit",
            );
            for &shard in &participants {
                let ev = self.exec(shard, &TxnCmd::Commit { txn }, "txn_commit");
                done.add(ev.handle());
            }
            done.wait_timeout(Duration::from_secs(5)).await;
            Ok(true)
        } else {
            for &shard in &participants {
                // Fire-and-forget aborts; shards also GC via replay safety.
                self.exec(shard, &TxnCmd::Abort { txn }, "txn_abort");
            }
            if any_abort.ready() {
                Err(TxnError::Conflict)
            } else {
                Err(TxnError::Timeout)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::ShardedCluster;
    use depfast_raft::core::RaftCfg;
    use simkit::{Sim, World, WorldCfg};
    use std::rc::Rc;

    fn setup(n_shards: usize, n_clients: usize) -> (Sim, World, Rc<ShardedCluster>) {
        let sim = Sim::new(41);
        let world = World::new(
            sim.clone(),
            WorldCfg {
                nodes: n_shards * 3 + n_clients,
                ..WorldCfg::default()
            },
        );
        let cl = ShardedCluster::build(
            &sim,
            &world,
            n_shards,
            3,
            n_clients,
            RaftCfg {
                bootstrap_leader: Some(0),
                ..RaftCfg::default()
            },
        );
        (sim, world, Rc::new(cl))
    }

    const PINS: [(&str, usize, usize); 8] = [
        ("", 3, 2),
        ("k", 1, 0),
        ("key0", 3, 2),
        ("key1", 3, 0),
        ("key2", 3, 1),
        ("shared-key", 2, 0),
        ("other-key", 2, 1),
        ("user00000042", 16, 0),
    ];

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    /// Routing must not move: these values were pinned against the
    /// FNV-1a this crate carried by hand before it routed through
    /// `ShardMap`.
    #[test]
    fn key_to_shard_routing_is_pinned() {
        for (key, n_shards, shard) in PINS {
            assert_eq!(shard_of(&b(key), n_shards), shard, "{key} over {n_shards}");
        }
    }

    #[test]
    fn cross_shard_transaction_commits_atomically() {
        let (sim, _w, cl) = setup(3, 1);
        let cl2 = cl.clone();
        let keys: Vec<Bytes> = (0..6).map(|i| b(&format!("key{i}"))).collect();
        let keys2 = keys.clone();
        let out = sim.block_on(async move {
            let writes = keys2.iter().map(|k| (k.clone(), b("v"))).collect();
            cl2.clients[0].transact(writes).await
        });
        assert_eq!(out, Ok(true));
        sim.run_until_time(sim.now() + Duration::from_secs(1));
        // Every key is visible on its shard's replicas.
        for k in &keys {
            let shard = cl.shard_of(k);
            for replica in &cl.servers[shard] {
                assert_eq!(replica.local_get(k), Some(b("v")), "key {k:?}");
            }
        }
        // No locks left behind.
        for group in &cl.servers {
            for replica in group {
                assert_eq!(replica.locked_keys(), 0);
            }
        }
    }

    #[test]
    fn conflicting_transactions_one_wins() {
        let (sim, _w, cl) = setup(2, 2);
        let (a, b1) = (b("shared-key"), b("other-key"));
        let cl2 = cl.clone();
        let (ka, kb) = (a.clone(), b1.clone());
        let h1 = sim.spawn({
            let cl = cl2.clone();
            let (ka, kb) = (ka.clone(), kb.clone());
            async move {
                cl.clients[0]
                    .transact(vec![(ka, b("from-1")), (kb, b("x"))])
                    .await
            }
        });
        let h2 = sim.spawn({
            let cl = cl2.clone();
            async move { cl.clients[1].transact(vec![(ka, b("from-2"))]).await }
        });
        sim.run_until_time(sim.now() + Duration::from_secs(8));
        let r1 = h1.try_take().expect("txn1 finished");
        let r2 = h2.try_take().expect("txn2 finished");
        // At least one commits; if both ran they serialized via the lock.
        assert!(r1 == Ok(true) || r2 == Ok(true));
        // No dangling locks either way.
        sim.run_until_time(sim.now() + Duration::from_secs(1));
        for group in &cl.servers {
            for replica in group {
                assert_eq!(replica.locked_keys(), 0);
            }
        }
    }

    #[test]
    fn single_shard_transaction_works() {
        let (sim, _w, cl) = setup(1, 1);
        let cl2 = cl.clone();
        let out =
            sim.block_on(async move { cl2.clients[0].transact(vec![(b("k"), b("v"))]).await });
        assert_eq!(out, Ok(true));
    }

    #[test]
    fn commit_survives_one_slow_replica_per_shard() {
        let (sim, world, cl) = setup(2, 1);
        // One fail-slow follower in each shard.
        world.set_cpu_quota(NodeId(2), 0.01);
        world.set_cpu_quota(NodeId(5), 0.01);
        let cl2 = cl.clone();
        let t0 = sim.now();
        let out = sim.block_on(async move {
            cl2.clients[0]
                .transact(vec![
                    (b("aa"), b("1")),
                    (b("bb"), b("2")),
                    (b("cc"), b("3")),
                ])
                .await
        });
        assert_eq!(out, Ok(true));
        assert!(
            sim.now() - t0 < Duration::from_millis(500),
            "slow followers must not slow the transaction: {:?}",
            sim.now() - t0
        );
    }
}
