//! The replicated key-value store: §3.4's "Raft-based replicated key-value
//! store" over any of the five Raft drivers.
//!
//! * [`command`] — the client command/response wire format and session
//!   ids. There are two operations, `Put` and a linearizable `Get`;
//!   nothing removes a key;
//! * [`server`] — installs the KV state machine (with exactly-once session
//!   dedup) on a Raft server and serves client proposals;
//! * [`route`] — session routing stated once: a pure law for which member
//!   of a group a session asks next, shared with the 2PC coordinator;
//! * [`client`] — closed-loop clients with leader discovery and retry.
//!   A client's wait on the leader is a deliberate singular (red) edge —
//!   exactly what Figure 2 of the paper shows: "the clients wait for
//!   leader nodes — if a leader fails slow, the corresponding client will
//!   be affected."
//! * [`shard`] — the keyspace's one key → group hash ([`ShardMap`]) and a
//!   client that routes each key to its group's leader;
//! * [`harness`] — one-call construction of a full cluster + clients;
//! * `history` — the read rule stated once: a pure checker of whether
//!   what clients observed (each operation's invoke, return and value on
//!   the virtual clock) is linearizable, key by key.

pub mod client;
pub mod command;
pub mod harness;
/// Hidden until a shipped instrument checks its runs' histories: today
/// only tests call the checker.
#[doc(hidden)]
pub mod history;
pub mod route;
pub mod server;
pub mod shard;

pub use client::{KvClient, KvError, RetryPolicy};
pub use command::{KvOp, KvRequest, KvResponse, KvStatus};
pub use harness::{KvCluster, ShardedKvCluster};
pub use server::{KvServer, DEFAULT_SERVE_CPU};
pub use shard::{ShardMap, ShardedKvClient};
