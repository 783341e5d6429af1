//! Storage substrate for DepFast systems.
//!
//! Three pieces, all shaped by root causes the paper documents:
//!
//! * [`wal`] — a write-ahead log whose `fsync`s run through the simulated
//!   disk via a group-commit flusher (the paper's "I/O helper threads ...
//!   deal with synchronous I/O events, e.g., the fsync calls");
//! * [`log`] — a Raft log store with an in-memory **EntryCache**: recent
//!   entries are served instantly, but entries evicted under the byte
//!   budget must be re-read from disk. §2.2's TiDB root cause — "a
//!   fail-slow follower could force the leader to read old entries from
//!   the disk (those entries have been evicted from the in-memory
//!   EntryCache), thus blocking the whole thread" — is exactly a cache
//!   miss on this path. The log is what lies after a compaction base:
//!   a prefix the replication layer no longer needs is dropped for free;
//! * [`kv`] — the in-memory KV state machine replicated by the Raft
//!   drivers, whose wire encoding is its snapshot;
//! * [`record`] — the record store it keeps its data in, and the 2PC
//!   shards theirs: a key and its value in one buffer, one slot per key.

pub mod kv;
pub mod log;
pub mod record;
pub mod wal;

pub use kv::MemKv;
pub use log::{Entry, LogStore, LogStoreCfg};
pub use record::{Record, Records};
pub use wal::{IoEvent, Wal, WalCfg};
