//! Raft replicated state machines: the paper's case study (§2) and
//! demonstration system (§3.4), five ways.
//!
//! The protocol logic — terms, election, log matching, commit rules, the
//! steps of a leader round and the snapshot that stands in for a compacted
//! prefix — is shared ([`core`], [`types`]), and so is how a peer that is
//! behind gets its data: log or state, what the log retains, and
//! DepFastRaft's quarantine are one law ([`feed`]). What differs
//! between the five drivers is *where the implementation waits*, which is
//! precisely the paper's point (wait site = the label `depfast-profile`
//! prints for it):
//!
//! | Driver | Waits like | Wait site (profile label) | Paper root cause |
//! |---|---|---|---|
//! | [`DepFastRaft`](depfast_driver::DepFastRaft) | `QuorumEvent` over {own disk write} ∪ {peer acks}; bounded buffers; a round's `AppendEntries` still queued to slow peers cancelled once its quorum fires (`CancelToken::cancel_when`); per-follower append window ([`flow`]) and quarantine ([`feed`]); ReadIndex gets sharing confirmation rounds ([`reads`]) | `replicate_wait` (a quorum, never one peer) | none — §3.4's fail-slow tolerant implementation |
//! | [`SyncRaft`](sync_driver::SyncRaft) | one region thread does everything serially; EntryCache misses for a lagging follower are read from disk *inline* | `cold_read` | TiDB (§2.2): "blocking the whole thread during the disk I/O" |
//! | [`BacklogRaft`](backlog_driver::BacklogRaft) | per-follower unbounded replication queues charged to leader memory; stop-and-wait senders | `queue_drain` | RethinkDB (§2.2): "unbounded buffer ... run out of memory" |
//! | [`CallbackRaft`](callback_driver::CallbackRaft) | one message loop runs every callback serially; lag triggers synchronous flow-control probes of the slow follower | `flow_probe` | MongoDB-style event-loop head-of-line blocking; tail amplification |
//! | [`ChainRaft`](chain_driver::ChainRaft) | head→…→tail forwarding, each hop a singular wait | `hop_wait` | §2.1/§3.3's chained-replication tradeoff: slowness anywhere propagates everywhere |
//!
//! All five expose the same [`RaftServer`] surface so the
//! KV layer, fault injector and benchmarks treat them interchangeably.

pub mod backlog_driver;
pub mod callback_driver;
pub mod chain_driver;
pub mod cluster;
pub mod core;
pub mod depfast_driver;
pub mod feed;
pub mod flow;
pub mod reads;
pub mod sync_driver;
pub mod types;

pub use cluster::{Placement, RaftCluster, RaftGroup, RaftKind};
pub use core::{RaftCfg, RaftCore, RaftServer, Role, StateMachine};
/// What a [`StateMachine`] is handed to apply.
pub use depfast_storage::Entry;
pub use types::{AppendReq, AppendResp, SnapshotReq, VoteReq, VoteResp};

#[cfg(test)]
mod fixture;
