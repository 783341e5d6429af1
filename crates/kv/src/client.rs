//! KV client: leader discovery, retries and session sequencing.
//!
//! The client's wait on the leader's reply is a singular remote wait —
//! Figure 2's red `c → s` edge. The paper accepts this: a fail-slow
//! *leader* is out of scope for follower-tolerance (§2) and is instead
//! handled by detection + re-election (§5, implemented in
//! `depfast-detect`).
//!
//! The retry loop is where "Building on Quicksand"-style metastability
//! is born, so it is fully instrumented: every attempt is counted
//! (`client.attempts`), every retry is attributed to a reason
//! (`client.retry[timeout|not_leader|error]`), exhausted operations are
//! visible (`client.give_up`), and each attempt opens a [`PhaseSpan`]
//! blamed on the server it targeted — so a blame report charges retry
//! time to the slow component, not to the client. A retry goes out at
//! once to the server the session's [`Route`] names next: the policy is
//! an attempt deadline and an attempt cap, with no backoff and no
//! admission control.

use std::cell::{Cell, RefCell};
use std::time::Duration;

use bytes::Bytes;
use depfast::event::Watchable;
use depfast::PhaseSpan;
use depfast_metrics::{Counter, Key};
use depfast_raft::types::CLIENT_PROPOSE;
use depfast_rpc::wire::{WireRead, WireWrite};
use depfast_rpc::{group_method, Endpoint, Method};
use simkit::NodeId;

use crate::command::{KvOp, KvRequest, KvResponse, KvStatus};
use crate::route::Route;

/// Client-side failure after exhausting retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvError {
    /// No attempt got a successful reply in time.
    Timeout,
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvError::Timeout => write!(f, "request timed out"),
        }
    }
}

impl std::error::Error for KvError {}

/// Retry policy of one client session: each attempt waits at most
/// `attempt_timeout` for its reply, and an operation gives up after
/// `max_attempts` attempts.
///
/// [`RetryPolicy::default`] reproduces the historical client behavior
/// byte-for-byte: 1500 ms attempt timeout, 6 attempts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Per-attempt reply deadline.
    pub attempt_timeout: Duration,
    /// Maximum attempts per operation.
    pub max_attempts: usize,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempt_timeout: Duration::from_millis(1500),
            max_attempts: 6,
        }
    }
}

/// Why an attempt is being retried (tags the `client.retry` counter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RetryReason {
    Timeout,
    NotLeader,
    Error,
}

/// Client-side telemetry handles, resolved once per session.
struct ClientMetrics {
    /// Fresh operations started (`client.ops`).
    ops: Counter,
    /// Operations completed `Ok` (`client.success`) — the goodput side
    /// of the amplification ratio.
    success: Counter,
    /// RPC attempts sent (`client.attempts`) — the offered-load side.
    attempts: Counter,
    /// Retries by reason (`client.retry[timeout|not_leader|error]`).
    retry_timeout: Counter,
    retry_not_leader: Counter,
    retry_error: Counter,
    /// Operations that exhausted every attempt (`client.give_up`).
    give_up: Counter,
}

impl ClientMetrics {
    fn new(metrics: &depfast_metrics::MetricsRegistry) -> Self {
        let tagged = |tag: &'static str| Key {
            name: "client.retry",
            node: None,
            tag: Some(tag),
        };
        ClientMetrics {
            ops: metrics.counter(Key::global("client.ops")),
            success: metrics.counter(Key::global("client.success")),
            attempts: metrics.counter(Key::global("client.attempts")),
            retry_timeout: metrics.counter(tagged("timeout")),
            retry_not_leader: metrics.counter(tagged("not_leader")),
            retry_error: metrics.counter(tagged("error")),
            give_up: metrics.counter(Key::global("client.give_up")),
        }
    }

    fn retry(&self, reason: RetryReason) {
        match reason {
            RetryReason::Timeout => self.retry_timeout.inc(),
            RetryReason::NotLeader => self.retry_not_leader.inc(),
            RetryReason::Error => self.retry_error.inc(),
        }
    }
}

/// A KV client session bound to one client host node.
pub struct KvClient {
    ep: Endpoint,
    /// Which server each attempt goes to.
    route: RefCell<Route>,
    client_id: u64,
    /// The (possibly group-namespaced) method id requests go to.
    method: Method,
    seq: Cell<u64>,
    /// Retry policy (attempt deadline, attempt cap).
    policy: Cell<RetryPolicy>,
    metrics: ClientMetrics,
}

impl KvClient {
    /// Creates a client session from `ep`'s node to Raft group `group`,
    /// whose member nodes are `servers`: requests go to the
    /// group-namespaced `CLIENT_PROPOSE` method, so co-located groups on
    /// a server node cannot intercept each other's traffic (group 0, a
    /// cluster's only group, is the base method id).
    pub fn new(ep: Endpoint, servers: Vec<NodeId>, client_id: u64, group: u32) -> Self {
        let metrics = ClientMetrics::new(&ep.runtime().tracer().metrics());
        KvClient {
            ep,
            route: RefCell::new(Route::new(servers, client_id as usize)),
            client_id,
            method: group_method(CLIENT_PROPOSE, group),
            seq: Cell::new(0),
            policy: Cell::new(RetryPolicy::default()),
            metrics,
        }
    }

    /// Test probe: the session id.
    #[doc(hidden)]
    pub fn id(&self) -> u64 {
        self.client_id
    }

    /// The runtime of the client's host node. Drivers should run the
    /// client loop as a `depfast::Coroutine` on this runtime so the
    /// causal context set per operation stays scoped to the session.
    pub fn runtime(&self) -> &depfast::Runtime {
        self.ep.runtime()
    }

    /// Test probe: the leader the session's route believes in.
    #[doc(hidden)]
    pub fn known_leader(&self) -> Option<NodeId> {
        self.route.borrow().leader
    }

    /// Replaces the session's retry policy.
    pub fn set_policy(&self, policy: RetryPolicy) {
        self.policy.set(policy);
    }

    /// Inserts or overwrites `key`.
    pub async fn put(&self, key: Bytes, value: Bytes) -> Result<(), KvError> {
        self.run(KvOp::Put, key, value).await.map(|_| ())
    }

    /// Linearizable read of `key`.
    pub async fn get(&self, key: Bytes) -> Result<Option<Bytes>, KvError> {
        self.run(KvOp::Get, key, Bytes::new()).await
    }

    async fn run(&self, op: KvOp, key: Bytes, value: Bytes) -> Result<Option<Bytes>, KvError> {
        let seq = self.seq.get() + 1;
        self.seq.set(seq);
        let req = KvRequest {
            client: self.client_id,
            seq,
            op,
            key,
            value,
        };
        let payload = req.to_bytes();
        self.metrics.ops.inc();
        // Root of this operation's causal trace. Retries reuse the trace
        // id: they are attempts at the *same* client operation.
        let tracer = self.ep.runtime().tracer();
        let trace_id = tracer.next_trace_id();
        let node = self.ep.node();
        let t = self.ep.runtime().now();
        tracer.record(|| depfast::TraceRecord::TraceBegin {
            t,
            node,
            trace_id,
            label: "kv_request",
        });
        depfast::set_trace_ctx(Some(depfast::TraceCtx {
            trace_id,
            parent_span: depfast::SpanId::NONE,
        }));
        let policy = self.policy.get();
        for _ in 0..policy.max_attempts {
            let target = self.route.borrow().target();
            self.metrics.attempts.inc();
            let span = PhaseSpan::begin_blaming(self.ep.runtime(), "client:attempt", target);
            let ev = self
                .ep
                .proxy(target)
                .call(self.method, "kv_request", payload.clone());
            let out = ev.handle().wait_timeout(policy.attempt_timeout).await;
            drop(span);
            let reply = out.is_ready().then(|| ev.take()).flatten();
            // A reply that never came (or did not decode) is a timeout.
            let (reason, hint) = match reply.and_then(|b| KvResponse::from_frame(&b)) {
                None => (RetryReason::Timeout, None),
                Some(resp) => match resp.status {
                    KvStatus::Ok => {
                        self.route.borrow_mut().confirmed(target);
                        self.metrics.success.inc();
                        return Ok(resp.value);
                    }
                    KvStatus::NotLeader => (RetryReason::NotLeader, resp.leader_hint.map(NodeId)),
                    // Leadership churn mid-commit: retry (the session
                    // dedup makes this safe).
                    KvStatus::Error => (RetryReason::Error, None),
                },
            };
            self.metrics.retry(reason);
            self.route.borrow_mut().failed(target, hint);
        }
        self.metrics.give_up.inc();
        Err(KvError::Timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_matches_the_historical_client() {
        let p = RetryPolicy::default();
        assert_eq!(p.attempt_timeout, Duration::from_millis(1500));
        assert_eq!(p.max_attempts, 6);
    }
}
