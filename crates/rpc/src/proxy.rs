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

use bytes::Bytes;
use depfast::TypedEvent;
use simkit::NodeId;

use crate::conn::CancelToken;
use crate::endpoint::Endpoint;
use crate::wire::WireWrite;
use crate::Method;

/// The reply event of an outstanding RPC. Fires `Ok` with the reply
/// payload, or `Err` if the framework dropped the request (buffer policy,
/// disconnect); never firing at all (peer crashed or fail-slow beyond the
/// caller's patience) is handled by waiting with a timeout.
pub type RpcEvent = TypedEvent<Bytes>;

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

    /// The remote node this proxy targets.
    pub fn peer(&self) -> NodeId {
        self.peer
    }

    /// Issues an RPC; the returned event fires when the reply arrives.
    ///
    /// `label` names this waiting point in traces and reports (e.g.
    /// `"append_entries"`).
    pub fn call(&self, method: Method, label: &'static str, payload: Bytes) -> RpcEvent {
        self.ep.call_raw(self.peer, method, label, payload, None)
    }

    /// Like [`Proxy::call`] but the request can be discarded while still
    /// queued if `cancel` fires — the hook quorum-aware broadcast uses.
    pub fn call_cancellable(
        &self,
        method: Method,
        label: &'static str,
        payload: Bytes,
        cancel: CancelToken,
    ) -> RpcEvent {
        self.ep
            .call_raw(self.peer, method, label, payload, Some(cancel))
    }

    /// Typed convenience over [`Proxy::call`].
    pub fn call_t<Req: WireWrite>(
        &self,
        method: Method,
        label: &'static str,
        req: &Req,
    ) -> RpcEvent {
        self.call(method, label, req.to_bytes())
    }
}
