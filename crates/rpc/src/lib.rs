//! RPC framework for DepFast systems, over the simulated network.
//!
//! The paper (§2.3, "logic versus framework") argues that framework code —
//! RPC, buffering, disk flushing — must carry a *clean abstraction* to the
//! logic code, and must be quorum-aware: "if the framework is aware that
//! this is a broadcast that can succeed with a quorum of replies, it can
//! safely discard the messages for the slow connection". This crate is
//! that framework layer:
//!
//! * [`wire`] — a hand-rolled binary codec, so the network model charges
//!   bandwidth for true message sizes; a message is encoded once, into a
//!   [`simkit::Frame`] that carries large payloads by reference, and
//!   decodes from any segmentation of its byte string;
//! * [`conn`] — per-peer connections with credit-based flow control and a
//!   pluggable [`BufferPolicy`]: `Unbounded` buffers
//!   reproduce the RethinkDB backlog/OOM root cause, bounded buffers are
//!   what DepFast systems use;
//! * [`endpoint`] — per-node servers: [`Endpoint::serve`] decodes a typed
//!   request, runs its handler in a coroutine and replies; replies route
//!   back to [`RpcEvent`]s; envelope header and typed body are written in
//!   one pass;
//! * [`proxy`] — the caller side: `proxy.call(...)` returns an event, the
//!   paper's `rpc_proxy.AppendEntries(entries)` shape, and
//!   [`Proxy::call_classified`] one that fires with the protocol's verdict
//!   on the reply;
//! * [`broadcast`](mod@broadcast) — the quorum call: one classified
//!   request per peer, every verdict added to a
//!   [`QuorumEvent`](depfast::QuorumEvent), with optional discard of
//!   still-queued sends once the quorum is satisfied.
//!
//! # The quorum call
//!
//! §3.1's shape — broadcast, add each reply to a `QuorumEvent`, wait once —
//! is one call and one wait. This is the round DepFastRaft's leadership
//! confirmation, PreVote and election and the 2PC coordinator's commit
//! phase all run (they differ in request, judge and threshold):
//!
//! ```
//! use depfast::event::{QuorumEvent, QuorumMode, WaitResult};
//! use depfast::runtime::Runtime;
//! use depfast_rpc::endpoint::Registry;
//! use depfast_rpc::{broadcast, Endpoint, RpcCfg};
//! use simkit::{NodeId, Sim, World, WorldCfg};
//!
//! const VOTE: u32 = 1;
//! let sim = Sim::new(1);
//! let world = World::new(sim.clone(), WorldCfg { nodes: 3, ..WorldCfg::default() });
//! let (registry, tracer) = (Registry::new(), depfast::Tracer::new());
//! let eps: Vec<Endpoint> = (0..3)
//!     .map(|i| {
//!         let rt = Runtime::with_tracer(sim.clone(), NodeId(i), tracer.clone());
//!         Endpoint::new(&rt, &world, &registry, RpcCfg::default())
//!     })
//!     .collect();
//! // Every node grants a vote for an even term.
//! for ep in &eps {
//!     ep.serve(VOTE, "svc:vote", |_from, term: u64| async move { Some(term.is_multiple_of(2)) });
//! }
//! // Node 2 is fail-slow beyond anyone's patience; the round does not care.
//! world.crash(NodeId(2));
//!
//! // The candidate's own vote plus one peer's is a majority of three.
//! let granted = QuorumEvent::labeled(eps[0].runtime(), QuorumMode::Count(2), "election_ok");
//! let peers = [NodeId(1), NodeId(2)].map(|peer| (peer, VOTE, 4u64));
//! let judge = |reply: Option<bool>| reply == Some(true);
//! broadcast(&eps[0], &granted, Some("self_vote"), "request_vote", peers, judge, true);
//! let outcome = sim.block_on(async move { granted.wait().await });
//! assert_eq!(outcome, WaitResult::Ready);
//! ```

pub mod broadcast;
pub mod conn;
pub mod endpoint;
pub mod proxy;
pub mod wire;

pub use broadcast::broadcast;
pub use conn::BufferPolicy;
pub use endpoint::{Endpoint, Responder, RpcCfg};
pub use proxy::{classified_reply, inverse, Proxy, RpcEvent};
pub use wire::{WireRead, WireWrite};

/// RPC method identifier. Applications define their own constants.
pub type Method = u32;

/// Namespaces a base method id into a Raft-group-specific method id.
///
/// All base method constants in this workspace live below `0x100`, so
/// the group id is packed into the upper bits: `base | (group << 8)`.
/// Group `0` is the legacy single-group namespace — `group_method(m, 0)
/// == m` — which keeps every existing single-group artifact
/// byte-identical. Co-located groups on one [`Endpoint`] register
/// disjoint method ids instead of silently overwriting each other.
pub fn group_method(base: Method, group: u32) -> Method {
    base | (group << 8)
}
