//! **DepFast** — the Dependably Fast Library.
//!
//! A Rust reproduction of the programming framework from *"Fail-slow fault
//! tolerance needs programming support"* (HotOS '21). DepFast's thesis:
//! distributed systems fail to tolerate fail-slow faults not because their
//! protocols are wrong but because their *implementations* wait in the
//! wrong places. The library therefore makes waiting points first-class:
//!
//! * [`Coroutine`]s give logic code a synchronous shape
//!   (no shredded callbacks) on a lightweight cooperative scheduler;
//! * [`event`]s wrap every waiting point. Basic events cover network/disk
//!   completions and simple conditions; compound events —
//!   [`QuorumEvent`], [`AndEvent`],
//!   [`OrEvent`] — compose them, and can be nested to
//!   express conditions like "fast-quorum ok, or minority-plus-one reject";
//! * waiting on a [`QuorumEvent`] instead of individual
//!   completions is what makes code *fail-slow fault-tolerant by
//!   construction*: no single slow component sits on the critical path;
//! * every event doubles as a trace point. The [`trace`] module records
//!   waiting-for relationships, [`spg`] folds each wait, as it begins, into
//!   a slowness propagation graph from the live events, [`blame`] folds
//!   the records into each committed command's critical-path blame, and
//!   [`verify`] checks — at runtime, from real executions — that a code
//!   path has no singular remote waits and predicts how far a slow node's
//!   impact would propagate.
//!
//! # Quick example
//!
//! The paper's motivating snippet — broadcast `AppendEntries`, add each
//! reply to a quorum event, proceed on a majority — is one call and one
//! wait once the RPC layer supplies the per-peer events. With
//! `depfast-rpc` (whose crate documentation runs this end to end):
//!
//! ```text
//! let quorum = QuorumEvent::labeled(&rt, QuorumMode::Count(majority), "read_index");
//! broadcast(&ep, &quorum, Some("self_ack"), "read_index", requests, judge, false);
//! quorum.wait_timeout(deadline).await   // any majority; no single peer can delay it
//! ```
//!
//! What the wait does, with plain events standing in for the replies:
//!
//! ```
//! use depfast::event::{Notify, QuorumEvent, Signal, WaitResult};
//! use depfast::runtime::Runtime;
//! use simkit::{NodeId, Sim};
//!
//! let sim = Sim::new(1);
//! let rt = Runtime::new_sim(sim.clone(), NodeId(0));
//! let quorum = QuorumEvent::majority(&rt);
//! let peers: Vec<Notify> = (0..3).map(|_| Notify::new(&rt)).collect();
//! for p in &peers {
//!     quorum.add(p);
//! }
//! // Two of three replies arrive; the third (fail-slow) never does.
//! peers[0].set(Signal::Ok);
//! peers[1].set(Signal::Ok);
//! let q = quorum.clone();
//! let done = sim.block_on(async move { q.wait().await });
//! assert_eq!(done, WaitResult::Ready);
//! ```
//!
//! [`QuorumEvent`], [`AndEvent`] and [`OrEvent`] are one k-of-n tally
//! under three kinds. A verdict that a child added later could overturn —
//! "all of n" met, "any of n" lost, a threshold unreachable — is decided
//! only once the child set is declared complete: by `seal()`, by
//! [`OrEvent::of2`], or by waiting through the compound's own `wait` /
//! `wait_timeout`.

pub mod blame;
pub mod event;
pub mod runtime;
pub mod spg;
pub mod trace;
pub mod verify;

pub use event::{
    AndEvent, EventHandle, EventId, EventKind, Notify, OrEvent, PhaseGuard, PhaseSpan, QuorumEvent,
    Signal, TimerEvent, TypedEvent, ValueEvent, WaitResult, Watchable,
};
pub use runtime::{
    current_coro_label, current_phase, set_trace_ctx, trace_ctx, CoroId, Coroutine, Recurring,
    Runtime,
};
pub use trace::{
    Health, HealthEvent, SpanId, TraceCtx, TraceRecord, Tracer, WaitObservation, WaitProbe,
};
