//! The 2PC coordinator, written in DepFast's nested-event style.
//!
//! Phase 1 waits on `OrEvent(AndEvent(per-shard prepared…), any_abort)`
//! with a timeout — the §3.2 fast-path/slow-path pattern applied to
//! transaction commit. Phase 2 [`broadcast()`]s the commit to every
//! participant and waits for all of them under a single quorum event (or
//! fires aborts and waits for nothing).

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use depfast::event::{AndEvent, OrEvent, QuorumEvent, QuorumMode};
use depfast::runtime::Runtime;
use depfast_kv::{route::Route, ShardMap};
use depfast_rpc::{broadcast, group_method, inverse, Endpoint, Method};
use simkit::NodeId;

use crate::command::{Prepare, TxnCmd, TxnVote, TXN_EXEC};

/// Phase-1 deadline: past it, a transaction not yet prepared everywhere
/// aborts.
const PREPARE_TIMEOUT: Duration = Duration::from_millis(1000);

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
    /// A participant was not its shard's leader; the transaction aborted
    /// and the coordinator will ask another member of that shard next
    /// time. Retry.
    NotLeader,
}

impl std::fmt::Display for TxnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxnError::Conflict => write!(f, "transaction aborted: lock conflict"),
            TxnError::Timeout => write!(f, "transaction aborted: prepare timeout"),
            TxnError::NotLeader => write!(f, "transaction aborted: shard leader moved, retry"),
        }
    }
}

impl std::error::Error for TxnError {}

/// A 2PC coordinator session on one client host.
pub struct TxnClient {
    rt: Runtime,
    ep: Endpoint,
    /// Per shard, which member its commands go to; every shard's
    /// rotation starts at its member 0.
    routes: Rc<Vec<RefCell<Route>>>,
    client_id: u64,
    seq: Cell<u64>,
}

impl TxnClient {
    /// Creates a coordinator talking to `shards` (member lists per shard).
    pub fn new(rt: Runtime, ep: Endpoint, shards: Vec<Vec<NodeId>>, client_id: u64) -> Self {
        let routes = shards.into_iter().map(|m| RefCell::new(Route::new(m, 0)));
        TxnClient {
            rt,
            ep,
            routes: Rc::new(routes.collect()),
            client_id,
            seq: Cell::new(0),
        }
    }

    /// Where `shard`'s commands go: its route's target, under the method
    /// id of Raft group `shard + 1` (the ShardedCluster convention).
    fn route(&self, shard: usize) -> (NodeId, Method) {
        let target = self.routes[shard].borrow().target();
        (target, group_method(TXN_EXEC, shard as u32 + 1))
    }

    /// The judge of the prepare vote `asked` gives for `shard`: `Yes`
    /// counts and confirms `asked` as the shard's leader. `NotLeader`
    /// marks the attempt `redirected` and is a failure of `asked` on the
    /// shard's route.
    fn prepare_judge(
        &self,
        shard: usize,
        asked: NodeId,
        redirected: &Rc<Cell<bool>>,
    ) -> impl Fn(Option<TxnVote>) -> bool {
        let (routes, redirected) = (self.routes.clone(), redirected.clone());
        move |vote| {
            match vote {
                Some(TxnVote::Yes) => routes[shard].borrow_mut().confirmed(asked),
                Some(TxnVote::NotLeader) => routes[shard].borrow_mut().failed(asked, None),
                _ => {}
            }
            redirected.set(redirected.get() || vote == Some(TxnVote::NotLeader));
            vote == Some(TxnVote::Yes)
        }
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
        let mut by_shard: HashMap<usize, Vec<(Bytes, Bytes)>> = HashMap::new();
        for (key, value) in writes {
            let shard = shard_of(&key, self.routes.len());
            by_shard.entry(shard).or_default().push((key, value));
        }
        let participants: Vec<usize> = by_shard.keys().copied().collect();

        // ---- Phase 1: prepare everywhere. --------------------------------
        // all_prepared = AndEvent over per-shard classified votes;
        // any_abort   = QuorumEvent(count=1) over their inverses.
        let all_prepared = AndEvent::labeled(&self.rt, "txn_all_prepared");
        let any_abort = QuorumEvent::labeled(&self.rt, QuorumMode::Count(1), "txn_any_abort");
        let redirected = Rc::new(Cell::new(false));
        for (&shard, writes) in &by_shard {
            let cmd = Prepare { txn, writes };
            let (leader, method) = self.route(shard);
            let yes = self.ep.proxy(leader).call_classified(
                method,
                "txn_prepare",
                &cmd,
                None,
                self.prepare_judge(shard, leader, &redirected),
            );
            all_prepared.add(&yes);
            any_abort.add(&inverse(&yes));
        }
        all_prepared.seal();
        let outcome = OrEvent::labeled(&self.rt, "txn_phase1");
        outcome.add(&all_prepared);
        outcome.add(&any_abort);
        outcome.wait_timeout(PREPARE_TIMEOUT).await;

        // ---- Phase 2: commit or abort everywhere. ------------------------
        if all_prepared.ready() {
            let done = QuorumEvent::labeled(
                &self.rt,
                QuorumMode::Count(participants.len()),
                "txn_commit",
            );
            let commits = participants.iter().map(|&shard| {
                let (leader, method) = self.route(shard);
                (leader, method, TxnCmd::Commit { txn })
            });
            let committed = |vote: Option<TxnVote>| vote == Some(TxnVote::Yes);
            broadcast(
                &self.ep,
                &done,
                None,
                "txn_commit",
                commits,
                committed,
                false,
            );
            done.wait_timeout(Duration::from_secs(5)).await;
            Ok(true)
        } else {
            for &shard in &participants {
                // Fire-and-forget aborts; shards also GC via replay safety.
                let (leader, method) = self.route(shard);
                self.ep
                    .proxy(leader)
                    .call_t(method, "txn_abort", &TxnCmd::Abort { txn });
            }
            if redirected.get() {
                Err(TxnError::NotLeader)
            } else if any_abort.ready() {
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
    fn a_moved_shard_leader_is_followed_not_read_as_a_conflict() {
        let (sim, _w, cl) = setup(1, 1);
        // Leadership of the only shard leaves member 0.
        depfast_raft::depfast_driver::DepFastRaft::force_campaign(cl.servers[0][1].raft().core());
        sim.run_until_time(sim.now() + Duration::from_secs(1));
        assert!(cl.servers[0][1].raft().is_leader());
        let cl2 = cl.clone();
        let results = sim.block_on(async move {
            let mut results = Vec::new();
            for i in 0..5 {
                let writes = vec![(b(&format!("k{i}")), b("v"))];
                results.push(cl2.clients[0].transact(writes).await);
            }
            results
        });
        // The first attempt learns that member 0 no longer leads — a
        // retryable error, not a lock conflict — and every later one goes
        // to the member that does.
        assert_eq!(results[0], Err(TxnError::NotLeader), "{results:?}");
        assert_eq!(results[1..], [Ok(true); 4], "{results:?}");
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
