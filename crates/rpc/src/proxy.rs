//! The caller side: proxies and RPC events.
//!
//! §3.1's example is the model:
//!
//! ```text
//! auto rpc_event = rpc_proxy.AppendEntries(entries);
//! rpc_event.Wait(); // possible slowness
//! ```
//!
//! [`Proxy::call`] returns an [`RpcEvent`] immediately; waiting on it is a
//! *singular* waiting point (a red SPG edge), which is why logic code
//! should hand these events to a [`QuorumEvent`](depfast::QuorumEvent)
//! (see [`crate::broadcast::broadcast`]) instead of waiting on them one by one.
//!
//! A quorum counts *protocol* outcomes, not reply arrivals: a vote
//! refused, an append rejected and a request the transport dropped are all
//! "no". [`Proxy::call_classified`] is the typed call whose result is
//! that verdict — the reply-side twin of [`Proxy::call_t`].

use depfast::event::{EventHandle, Signal, Watchable};
use depfast::TypedEvent;
use simkit::{Frame, NodeId};

use crate::conn::CancelToken;
use crate::endpoint::{Endpoint, Typed};
use crate::wire::{WireRead, WireWrite};
use crate::Method;

/// The reply event of an outstanding RPC. Fires `Ok` with the reply
/// payload, or `Err` if the framework dropped the request (buffer policy,
/// disconnect); never firing at all (peer crashed or fail-slow beyond the
/// caller's patience) is handled by waiting with a timeout.
pub type RpcEvent = TypedEvent<Frame>;

/// A client handle for calling one remote node.
#[derive(Clone)]
pub struct Proxy {
    ep: Endpoint,
    peer: NodeId,
}

impl Proxy {
    pub(crate) fn new(ep: Endpoint, peer: NodeId) -> Self {
        Proxy { ep, peer }
    }

    /// Issues an RPC; the returned event fires when the reply arrives.
    ///
    /// `label` names this waiting point in traces and reports (e.g.
    /// `"append_entries"`).
    pub fn call(&self, method: Method, label: &'static str, payload: impl Into<Frame>) -> RpcEvent {
        self.ep
            .call_raw(self.peer, method, label, payload.into(), None)
    }

    /// Typed convenience over [`Proxy::call`].
    pub fn call_t<Req: WireWrite>(
        &self,
        method: Method,
        label: &'static str,
        req: &Req,
    ) -> RpcEvent {
        self.ep.call_raw(self.peer, method, label, Typed(req), None)
    }

    /// Typed call whose reply is classified: the returned event fires `Ok`
    /// iff `judge` accepts the decoded reply (see [`classified_reply`]).
    /// With a `cancel` token the request can be discarded while queued.
    pub fn call_classified<Req: WireWrite, Resp: WireRead + 'static>(
        &self,
        method: Method,
        label: &'static str,
        req: &Req,
        cancel: Option<CancelToken>,
        judge: impl FnOnce(Option<Resp>) -> bool + 'static,
    ) -> EventHandle {
        let ev = self
            .ep
            .call_raw(self.peer, method, label, Typed(req), cancel);
        classified_reply(&ev, judge)
    }

    /// An unfired event with the identity of a classified reply from this
    /// peer, for a round that must hand its quorum the child *before* the
    /// call can be issued (the send may first read cold entries): the
    /// caller fires it with the verdict of the eventual
    /// [`Proxy::call_classified`], or `Err` if the call is never made.
    pub fn pending_reply(&self, label: &'static str) -> EventHandle {
        let kind = depfast::EventKind::Rpc { target: self.peer };
        EventHandle::with_sampling(self.ep.runtime(), kind, label, false)
    }
}

/// An unfired twin of `of`: same runtime, kind and label, outside RPC
/// latency sampling (the completion it derives from is already counted).
fn derived(of: &EventHandle) -> EventHandle {
    EventHandle::with_sampling(of.runtime(), of.kind(), of.label(), false)
}

/// Creates a classified view over an RPC reply: an event with the call's
/// RPC identity (for the SPG) that fires `Ok`/`Err` according to `judge`,
/// letting a [`QuorumEvent`](depfast::QuorumEvent) count protocol-level
/// outcomes rather than mere reply arrival. `judge` sees `None` when the
/// framework dropped the request or the reply does not decode.
pub fn classified_reply<R: WireRead + 'static>(
    ev: &RpcEvent,
    judge: impl FnOnce(Option<R>) -> bool + 'static,
) -> EventHandle {
    let verdict = derived(ev.handle());
    let v = verdict.clone();
    ev.on_fire_take(move |reply| {
        let decoded = reply.and_then(|b| R::from_frame(&b));
        v.fire(if judge(decoded) {
            Signal::Ok
        } else {
            Signal::Err
        });
    });
    verdict
}

/// The inverse of a classified vote: fires `Ok` when `vote` fires `Err`
/// and the reverse. A "rejected by minority-plus-one" or "any participant
/// aborted" quorum counts these.
pub fn inverse(vote: &EventHandle) -> EventHandle {
    let inv = derived(vote);
    let i = inv.clone();
    vote.on_fire(move |s| {
        i.fire(match s {
            Signal::Ok => Signal::Err,
            Signal::Err => Signal::Ok,
        })
    });
    inv
}
