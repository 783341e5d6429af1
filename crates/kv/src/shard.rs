//! Keyspace sharding: key → Raft group, and a shard-aware client router.
//!
//! The single-group KV story funnels every apply and every serve through
//! one leader — the CPU ceiling the batching work (PR 6) ran into. A
//! [`ShardMap`] partitions the keyspace across N groups by hash, so
//! apply and kv-serve run per-group; a [`ShardedKvClient`] resolves
//! key → group → leader, reusing the per-group [`KvClient`]'s
//! wrong-leader redirect for the leader half of the lookup.

use bytes::Bytes;
use depfast_rpc::Endpoint;
use simkit::NodeId;

use crate::client::{KvClient, KvError, RetryPolicy};

/// Partitions the keyspace over `n_groups` Raft groups, numbered from 1
/// as every multi-group `Placement` numbers them; `group_of(key) - 1` is
/// the owning group's index whatever the gids are.
///
/// Hash partitioning with FNV-1a: total (every key maps to exactly one
/// group), deterministic (a pure function of the bytes — clients,
/// servers, and offline analysis all agree without coordination), and
/// balanced (FNV-1a spreads YCSB-style keys within a few percent of
/// uniform; see the proptest coverage in `crates/kv/tests`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    n_groups: u32,
}

impl ShardMap {
    /// A map over `n_groups` groups (must be ≥ 1).
    pub fn new(n_groups: usize) -> Self {
        assert!(n_groups >= 1, "a shard map needs at least one group");
        ShardMap {
            n_groups: n_groups as u32,
        }
    }

    /// The 1-based group id owning `key`.
    pub fn group_of(&self, key: &[u8]) -> u32 {
        // FNV-1a. The one hash of the workspace (the txn coordinator
        // routes through this map too), which keeps routing auditable.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in key {
            h ^= *b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        (h % self.n_groups as u64) as u32 + 1
    }
}

/// A shard-aware KV client session: one [`KvClient`] per group, all on
/// the caller's endpoint, routed through a [`ShardMap`].
///
/// Each operation resolves key → group (pure hash) → leader (the
/// per-group client's cached leader plus its `NotLeader`-redirect retry
/// loop), so a wrong or stale leader hint converges without any global
/// routing table.
pub struct ShardedKvClient {
    map: ShardMap,
    /// One session per group, in the cluster's group order.
    groups: Vec<KvClient>,
}

impl ShardedKvClient {
    /// Creates a session from `ep`'s node to the `(gid, members)` groups
    /// of a cluster, in the cluster's group order.
    pub fn new(ep: Endpoint, groups: Vec<(u32, Vec<NodeId>)>, client_id: u64) -> Self {
        let map = ShardMap::new(groups.len());
        let groups = groups
            .into_iter()
            .map(|(gid, servers)| KvClient::new(ep.clone(), servers, client_id, gid))
            .collect();
        ShardedKvClient { map, groups }
    }

    /// The shard map in use.
    pub fn shard_map(&self) -> ShardMap {
        self.map
    }

    /// The runtime of the client's host node.
    pub fn runtime(&self) -> &depfast::Runtime {
        self.groups[0].runtime()
    }

    /// The per-group session owning `key`.
    pub fn client_for(&self, key: &[u8]) -> &KvClient {
        &self.groups[(self.map.group_of(key) - 1) as usize]
    }

    /// Test probe: all per-group sessions, in the cluster's group order.
    #[doc(hidden)]
    pub fn groups(&self) -> &[KvClient] {
        &self.groups
    }

    /// Replaces the retry policy on every per-group session.
    pub fn set_policy(&self, policy: RetryPolicy) {
        for g in &self.groups {
            g.set_policy(policy);
        }
    }

    /// Inserts or overwrites `key` in its owning group.
    pub async fn put(&self, key: Bytes, value: Bytes) -> Result<(), KvError> {
        self.client_for(&key).put(key.clone(), value).await
    }

    /// Linearizable read of `key` from its owning group.
    pub async fn get(&self, key: Bytes) -> Result<Option<Bytes>, KvError> {
        self.client_for(&key).get(key.clone()).await
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mapping_is_total_and_deterministic() {
        let m = ShardMap::new(16);
        for i in 0..1000u32 {
            let key = format!("user{i:08}");
            let g = m.group_of(key.as_bytes());
            assert!((1..=16).contains(&g));
            assert_eq!(g, m.group_of(key.as_bytes()));
        }
    }

    #[test]
    fn single_group_maps_everything_to_group_one() {
        let m = ShardMap::new(1);
        assert_eq!(m.group_of(b"anything"), 1);
        assert_eq!(m.group_of(b""), 1);
    }

    #[test]
    fn ycsb_style_keys_balance_within_bounds() {
        let m = ShardMap::new(8);
        let mut counts = [0usize; 8];
        let n = 10_000;
        for i in 0..n {
            let key = format!("user{i:08}");
            counts[(m.group_of(key.as_bytes()) - 1) as usize] += 1;
        }
        let ideal = n / 8;
        for (g, c) in counts.iter().enumerate() {
            assert!(
                (*c as f64) > ideal as f64 * 0.8 && (*c as f64) < ideal as f64 * 1.2,
                "group {} holds {} of {} keys (ideal {})",
                g + 1,
                c,
                n,
                ideal
            );
        }
    }
}
