//! Per-node RPC endpoints: dispatch, reply routing and the receive pump.
//!
//! An [`Endpoint`] owns one node's RPC machinery: the inbox fed by the
//! network, a receive-pump coroutine that charges per-message CPU (this is
//! where a CPU-slow node becomes slow to *everyone*), the registered
//! services, the table of pending outbound calls, and the node's
//! connections, one per peer while it carries something.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::future::{poll_fn, Future};
use std::rc::{Rc, Weak};
use std::task::Poll;
use std::time::Duration;

use depfast::event::{EventKind, Watchable};
use depfast::runtime::{Coroutine, Runtime};
use depfast::TypedEvent;
use simkit::{Frame, NodeId, WakerSlot, World};

use crate::conn::{BufferPolicy, Links, OutMsg};
use crate::proxy::{Proxy, RpcEvent};
use crate::wire::{Reader, WireRead, WireWrite, Writer};
use crate::Method;

/// Endpoint configuration.
#[derive(Debug, Clone, Copy)]
pub struct RpcCfg {
    /// Outgoing buffer policy.
    pub buffer: BufferPolicy,
}

impl Default for RpcCfg {
    fn default() -> Self {
        RpcCfg {
            buffer: BufferPolicy::Bounded { cap: 4096 },
        }
    }
}

/// CPU charged on the sender per outgoing message.
const TX_CPU: Duration = Duration::from_micros(15);

/// Flow-control window per connection.
const WINDOW: usize = 128;

/// CPU charged on the receiver per incoming message (in the pump).
const RX_CPU: Duration = Duration::from_micros(15);

/// Delay before a processed message's credit returns to the sender
/// (models the transport ack round-trip).
const ACK_LATENCY: Duration = Duration::from_micros(250);

/// What every RPC message is on the wire: routing header, then the payload
/// behind its `u32` length. `P` is the payload's form on the sending side
/// — already-encoded segments, or a [`Typed`] body encoded in the same
/// pass; a received envelope's payload is a [`Frame`] of views.
///
/// Public (and hidden) so that robustness tests can forge a message with
/// the codec the endpoint itself uses.
#[doc(hidden)]
#[derive(Debug, PartialEq)]
pub struct Envelope<P> {
    pub is_reply: bool,
    pub rpc_id: u64,
    pub method: u32,
    /// Causal-trace id of the client operation this message serves
    /// (`0` = untraced).
    pub trace_id: u64,
    /// Span that caused this message (the RPC event on the caller for
    /// requests, the service coroutine for replies; `0` = none).
    pub parent_span: u64,
    pub payload: P,
}

impl<P: WireWrite> WireWrite for Envelope<P> {
    fn write(&self, w: &mut Writer) {
        self.is_reply.write(w);
        self.rpc_id.write(w);
        self.method.write(w);
        self.trace_id.write(w);
        self.parent_span.write(w);
        self.payload.write(w);
    }
}

impl WireRead for Envelope<Frame> {
    fn read(r: &mut Reader<'_>) -> Option<Self> {
        Some(Envelope {
            is_reply: WireRead::read(r)?,
            rpc_id: WireRead::read(r)?,
            method: WireRead::read(r)?,
            trace_id: WireRead::read(r)?,
            parent_span: WireRead::read(r)?,
            payload: WireRead::read(r)?,
        })
    }
}

/// A typed body in payload position: its encoding goes straight into the
/// envelope's sink, and the length a decoder reads the payload by is
/// patched in once it is known — no body buffer is built to be copied.
pub(crate) struct Typed<'a, T>(pub(crate) &'a T);

impl<T: WireWrite> WireWrite for Typed<'_, T> {
    fn write(&self, w: &mut Writer) {
        w.length_prefixed(|w| self.0.write(w));
    }
}

/// Encodes the ambient [`TraceCtx`] for the wire (`(0, 0)` = untraced),
/// with `parent_span` replaced by the given span.
fn wire_ctx(parent: depfast::SpanId) -> (u64, u64) {
    match depfast::trace_ctx() {
        Some(ctx) => (ctx.trace_id, parent.0),
        None => (0, 0),
    }
}

/// Decodes a wire context back into a [`TraceCtx`].
fn unwire_ctx(trace_id: u64, parent_span: u64) -> Option<depfast::TraceCtx> {
    (trace_id != 0 || parent_span != 0).then_some(depfast::TraceCtx {
        trace_id,
        parent_span: depfast::SpanId(parent_span),
    })
}

type Service = Rc<dyn Fn(NodeId, Frame, Responder)>;

/// Shared registry so endpoints can return flow-control credits to each
/// other's connections. One per cluster.
#[derive(Clone, Default)]
pub struct Registry {
    endpoints: Rc<RefCell<HashMap<u32, Weak<EndpointInner>>>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tears down every endpoint still alive: drops its services, pending
    /// calls, connections with their queued sends, and inbox, firing none
    /// of them. A service holds the server that holds its endpoint, and a
    /// call nobody answered holds its reply hooks and what they capture;
    /// once the executor has dropped its tasks (`Sim::shutdown`), this is
    /// what frees the cluster.
    pub fn teardown(&self) {
        for ep in self.endpoints.borrow().values().filter_map(Weak::upgrade) {
            // Each `take` ends its borrow before what it took is dropped.
            ep.services.take();
            ep.pending.take();
            ep.links.close_all();
            ep.inbox.take();
        }
    }
}

pub(crate) struct EndpointInner {
    rt: Runtime,
    world: World,
    node: NodeId,
    services: RefCell<HashMap<Method, (&'static str, Service)>>,
    pending: RefCell<HashMap<u64, RpcEvent>>,
    next_id: Cell<u64>,
    links: Rc<Links>,
    registry: Registry,
    inbox: RefCell<VecDeque<simkit::world::NetMessage>>,
    /// Where the receive pump parks on an empty inbox.
    pump: WakerSlot,
}

/// One node's RPC endpoint. Cheap to clone.
#[derive(Clone)]
pub struct Endpoint {
    pub(crate) inner: Rc<EndpointInner>,
}

impl Endpoint {
    /// Creates the endpoint for `rt`'s node, wires it to the network and
    /// starts its receive pump.
    pub fn new(rt: &Runtime, world: &World, registry: &Registry, cfg: RpcCfg) -> Self {
        let node = rt.node();
        let inner = Rc::new(EndpointInner {
            rt: rt.clone(),
            world: world.clone(),
            node,
            services: RefCell::new(HashMap::new()),
            pending: RefCell::new(HashMap::new()),
            next_id: Cell::new(1),
            links: Links::new(rt, world, cfg.buffer, WINDOW, TX_CPU),
            registry: registry.clone(),
            inbox: RefCell::new(VecDeque::new()),
            pump: WakerSlot::default(),
        });
        registry
            .endpoints
            .borrow_mut()
            .insert(node.0, Rc::downgrade(&inner));
        let ep = Endpoint { inner };
        let weak = Rc::downgrade(&ep.inner);
        world.register_handler(node, move |msg| {
            if let Some(inner) = weak.upgrade() {
                inner.inbox.borrow_mut().push_back(msg);
                inner.pump.wake();
            }
        });
        ep.spawn_pump();
        ep
    }

    /// The node this endpoint serves.
    pub fn node(&self) -> NodeId {
        self.inner.node
    }

    /// The runtime this endpoint runs on.
    pub fn runtime(&self) -> &Runtime {
        &self.inner.rt
    }

    /// Registers a service: requests for `method` run `f` in a fresh
    /// coroutine labelled `label`. `f` replies through the [`Responder`].
    pub fn register(
        &self,
        method: Method,
        label: &'static str,
        f: impl Fn(NodeId, Frame, Responder) + 'static,
    ) {
        self.inner
            .services
            .borrow_mut()
            .insert(method, (label, Rc::new(f)));
    }

    /// Registers a typed service, the shape of every protocol handler: a
    /// request that does not decode as `Req` is dropped (the caller times
    /// out); otherwise `handler` runs *at delivery* up to the future it
    /// returns — whatever must happen in arrival order, such as taking a
    /// FIFO ticket, goes in that synchronous prefix — and the future runs
    /// in a fresh coroutine labelled `label`, replying iff it resolves to
    /// `Some`.
    pub fn serve<Req, Resp, Fut>(
        &self,
        method: Method,
        label: &'static str,
        handler: impl Fn(NodeId, Req) -> Fut + 'static,
    ) where
        Req: WireRead,
        Resp: WireWrite,
        Fut: Future<Output = Option<Resp>> + 'static,
    {
        let rt = self.inner.rt.clone();
        self.register(method, label, move |from, payload, responder| {
            let Some(req) = Req::from_frame(&payload) else {
                return;
            };
            let work = handler(from, req);
            Coroutine::create(&rt, label, async move {
                if let Some(resp) = work.await {
                    responder.reply_t(&resp);
                }
            });
        });
    }

    /// Returns a proxy for calling `peer`.
    pub fn proxy(&self, peer: NodeId) -> Proxy {
        Proxy::new(self.clone(), peer)
    }

    /// Messages queued to `peer`; 0 when nothing is, connection or not.
    pub fn queue_len(&self, peer: NodeId) -> usize {
        self.inner.links.queue_len(peer)
    }

    /// Issues an RPC to `peer`, returning the reply event.
    pub(crate) fn call_raw(
        &self,
        peer: NodeId,
        method: Method,
        label: &'static str,
        payload: impl WireWrite,
        cancel: Option<crate::conn::CancelToken>,
    ) -> RpcEvent {
        let event: RpcEvent =
            TypedEvent::new(&self.inner.rt, EventKind::Rpc { target: peer }, label);
        let rpc_id = self.inner.next_id.get();
        self.inner.next_id.set(rpc_id + 1);
        self.inner
            .pending
            .borrow_mut()
            .insert(rpc_id, event.clone());
        // The request carries the caller's causal context; its parent span
        // is the RPC event itself, so the callee's work hangs under it.
        let (trace_id, parent_span) = wire_ctx(depfast::SpanId::event(event.handle().id()));
        let env = Envelope {
            is_reply: false,
            rpc_id,
            method,
            trace_id,
            parent_span,
            payload,
        };
        let ev = event.clone();
        let me = Rc::downgrade(&self.inner);
        self.inner.links.enqueue(
            peer,
            OutMsg {
                bytes: env.to_frame(),
                cancel,
                on_drop: Some(Box::new(move || {
                    if let Some(inner) = me.upgrade() {
                        inner.pending.borrow_mut().remove(&rpc_id);
                    }
                    ev.fire_err();
                })),
            },
        );
        event
    }

    /// Sends a reply for `rpc_id` back to `peer`.
    fn reply(&self, peer: NodeId, rpc_id: u64, payload: impl WireWrite, ctx: (u64, u64)) {
        let env = Envelope {
            is_reply: true,
            rpc_id,
            method: 0,
            trace_id: ctx.0,
            parent_span: ctx.1,
            payload,
        };
        self.inner.links.enqueue(
            peer,
            OutMsg {
                bytes: env.to_frame(),
                cancel: None,
                on_drop: None,
            },
        );
    }

    /// The receive pump: pops the inbox, charges receive CPU, returns the
    /// sender's flow-control credit, then routes the message.
    fn spawn_pump(&self) {
        let ep = self.clone();
        Coroutine::create(&self.inner.rt, "rpc:pump", async move {
            loop {
                let msg = poll_fn(|cx| match ep.inner.inbox.borrow_mut().pop_front() {
                    Some(m) => Poll::Ready(m),
                    None => {
                        ep.inner.pump.park(cx);
                        Poll::Pending
                    }
                })
                .await;
                if ep.inner.world.cpu(ep.inner.node, RX_CPU).await.is_err() {
                    break; // Node crashed: stop serving.
                }
                ep.return_credit(msg.from);
                ep.route(msg.from, msg.payload);
            }
        });
    }

    /// Schedules the transport-level credit back to `from`'s connection
    /// to this node — whichever connection that is when the credit lands.
    fn return_credit(&self, from: NodeId) {
        let registry = self.inner.registry.endpoints.borrow();
        let Some(sender) = registry.get(&from.0).and_then(Weak::upgrade) else {
            return;
        };
        let links = Rc::downgrade(&sender.links);
        let me = self.inner.node;
        let at = self.inner.rt.now() + ACK_LATENCY;
        self.inner.rt.schedule_call(at, move || {
            if let Some(links) = links.upgrade() {
                links.grant_credit(me);
            }
        });
    }

    fn route(&self, from: NodeId, raw: Frame) {
        let Some(env) = Envelope::from_frame(&raw) else {
            return; // Malformed: drop.
        };
        if env.is_reply {
            let pending = self.inner.pending.borrow_mut().remove(&env.rpc_id);
            if let Some(event) = pending {
                event.fire_ok(env.payload);
            }
            return;
        }
        let svc = self.inner.services.borrow().get(&env.method).cloned();
        let Some((label, svc)) = svc else {
            return; // Unknown method: drop (caller times out).
        };
        let ctx = unwire_ctx(env.trace_id, env.parent_span);
        let responder = Responder {
            ep: self.clone(),
            to: from,
            rpc_id: env.rpc_id,
            ctx: (env.trace_id, env.parent_span),
        };
        let payload = env.payload;
        let f = svc.clone();
        // The service coroutine resumes the caller's causal context, so
        // everything it does — and everything it spawns — stays in the
        // request's trace tree.
        Coroutine::create_traced(&self.inner.rt, label, ctx, async move {
            f(from, payload, responder);
        });
    }
}

/// Capability to answer one specific request.
pub struct Responder {
    ep: Endpoint,
    to: NodeId,
    rpc_id: u64,
    /// Wire-encoded trace context of the request, echoed on the reply.
    ctx: (u64, u64),
}

impl Responder {
    /// Sends the reply payload.
    pub fn reply(self, payload: impl Into<Frame>) {
        self.ep
            .reply(self.to, self.rpc_id, payload.into(), self.ctx);
    }

    /// Sends a typed reply.
    pub fn reply_t<T: WireWrite>(self, value: &T) {
        self.ep.reply(self.to, self.rpc_id, Typed(value), self.ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use depfast::event::{WaitResult, Watchable};
    use proptest::prelude::*;
    use simkit::{Sim, WorldCfg};

    pub(crate) const ECHO: Method = 1;
    pub(crate) const DOUBLE: Method = 2;

    pub(crate) fn cluster(n: usize) -> (Sim, World, Vec<Endpoint>) {
        let sim = Sim::new(7);
        let world = World::new(
            sim.clone(),
            WorldCfg {
                nodes: n,
                ..WorldCfg::default()
            },
        );
        let registry = Registry::new();
        let tracer = depfast::Tracer::new();
        let eps: Vec<Endpoint> = (0..n as u32)
            .map(|i| {
                let rt = Runtime::with_tracer(sim.clone(), NodeId(i), tracer.clone());
                Endpoint::new(&rt, &world, &registry, RpcCfg::default())
            })
            .collect();
        for ep in &eps {
            ep.register(ECHO, "svc:echo", |_, payload, r| r.reply(payload));
            ep.register(DOUBLE, "svc:double", |_, payload, r| {
                let v = u64::from_frame(&payload).unwrap();
                r.reply_t(&(v * 2));
            });
        }
        (sim, world, eps)
    }

    proptest! {
        #[test]
        fn envelope_decodes_from_any_segmentation(
            is_reply in any::<bool>(),
            ids in (0u64..u64::MAX, 0u32..u32::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
            pick in 0usize..4,
            cuts in prop::collection::vec(any::<usize>(), 0..6),
        ) {
            let (rpc_id, method, trace_id, parent_span) = ids;
            let payload = Frame::from(crate::wire::testing::payload(pick, rpc_id as u8));
            let env = Envelope { is_reply, rpc_id, method, trace_id, parent_span, payload };
            crate::wire::testing::assert_segmentation_agnostic(&env, &cuts);
        }

        /// A typed body written in the envelope's own pass is the same
        /// byte string as the finished body carried as an opaque payload.
        #[test]
        fn typed_body_in_one_pass_equals_the_encoded_body_as_payload(
            rpc_id in any::<u64>(),
            pick in 0usize..4,
        ) {
            let body = crate::wire::testing::payload(pick, rpc_id as u8);
            fn env<P>(rpc_id: u64, payload: P) -> Envelope<P> {
                Envelope { is_reply: false, rpc_id, method: 7, trace_id: 1, parent_span: 2, payload }
            }
            let one_pass = env(rpc_id, Typed(&body)).to_frame();
            let two_pass = env(rpc_id, Frame::from(body.to_bytes())).to_frame();
            prop_assert_eq!(&one_pass, &two_pass);
            let decoded = Envelope::from_frame(&one_pass).expect("decodes");
            prop_assert_eq!(Bytes::from_frame(&decoded.payload), Some(body));
        }
    }

    #[test]
    fn trace_ctx_crosses_the_wire_into_the_service_coroutine() {
        use depfast::{set_trace_ctx, trace_ctx, SpanId, TraceCtx};
        let (sim, _world, eps) = cluster(2);
        let seen = Rc::new(RefCell::new(None));
        let s = seen.clone();
        eps[1].register(77, "svc:probe", move |_, _, r| {
            *s.borrow_mut() = Some(trace_ctx());
            r.reply(Bytes::new());
        });
        let caller = eps[0].clone();
        let rt = caller.runtime().clone();
        let sent_span = Rc::new(Cell::new(SpanId::NONE));
        let sp = sent_span.clone();
        Coroutine::create(&rt, "client", async move {
            set_trace_ctx(Some(TraceCtx {
                trace_id: 42,
                parent_span: SpanId::NONE,
            }));
            let ev = caller.proxy(NodeId(1)).call(77, "probe", Bytes::new());
            sp.set(SpanId::event(ev.handle().id()));
            ev.handle().wait().await;
        });
        sim.run();
        // The service saw the caller's trace id, parented under the RPC
        // event the caller is waiting on.
        let got = seen.borrow().expect("service ran");
        assert_eq!(
            got,
            Some(TraceCtx {
                trace_id: 42,
                parent_span: sent_span.get(),
            })
        );
    }

    /// A typed service on node 1: doubles even numbers after `10 - n` ms
    /// (so completions invert arrival order), resolves to `None` on odd
    /// ones, and logs each request in its synchronous prefix.
    fn serve_doubler(ep: &Endpoint) -> Rc<RefCell<Vec<u64>>> {
        let seen = Rc::new(RefCell::new(Vec::new()));
        let (s, rt) = (seen.clone(), ep.runtime().clone());
        ep.serve(90, "svc:typed", move |_from, n: u64| {
            s.borrow_mut().push(n);
            let rt = rt.clone();
            async move {
                rt.sleep(Duration::from_millis(10 - n)).await;
                n.is_multiple_of(2).then_some(n * 2)
            }
        });
        seen
    }

    #[test]
    fn serve_drops_a_malformed_request_before_any_coroutine() {
        let (sim, _world, eps) = cluster(2);
        let seen = serve_doubler(&eps[1]);
        let tracer = eps[1].runtime().tracer().clone();
        tracer.set_record_full(true);
        // The `svc:typed` coroutines one call starts: the one that routes
        // the request and, if it decodes, the handler's.
        let services = |payload: Bytes| {
            let ev = eps[0].proxy(NodeId(1)).call(90, "typed", payload);
            let out = sim
                .block_on(async move { ev.handle().wait_timeout(Duration::from_millis(50)).await });
            let started = tracer
                .take_records()
                .into_iter()
                .filter(|r| {
                    matches!(r, depfast::TraceRecord::CoroutineStart { label, .. } if *label == "svc:typed")
                })
                .count();
            (out, started)
        };
        let (ok, served) = services(4u64.to_bytes());
        let (bad, dropped) = services(Bytes::from_static(b"not a u64"));
        assert!(ok.is_ready());
        assert_eq!(
            bad,
            WaitResult::Timeout,
            "no reply to a request that does not decode"
        );
        assert_eq!(*seen.borrow(), vec![4], "the handler never saw it");
        assert_eq!(
            (served, dropped),
            (2, 1),
            "and no handler coroutine was spawned"
        );
    }

    #[test]
    fn serve_sends_no_reply_when_the_handler_resolves_to_none() {
        let (sim, _world, eps) = cluster(2);
        let seen = serve_doubler(&eps[1]);
        let ev = eps[0].proxy(NodeId(1)).call_t(90, "typed", &3u64);
        let out =
            sim.block_on(async move { ev.handle().wait_timeout(Duration::from_millis(50)).await });
        assert_eq!(out, WaitResult::Timeout);
        assert_eq!(*seen.borrow(), vec![3], "the handler ran");
    }

    #[test]
    fn serve_runs_the_synchronous_prefix_in_delivery_order() {
        let (sim, _world, eps) = cluster(2);
        let seen = serve_doubler(&eps[1]);
        let order = Rc::new(RefCell::new(Vec::new()));
        for n in [0u64, 2, 4, 6] {
            let ev = eps[0].proxy(NodeId(1)).call_t(90, "typed", &n);
            let (o, ev2) = (order.clone(), ev.clone());
            ev.handle().on_fire(move |_| {
                let reply = ev2.take().and_then(|b| u64::from_frame(&b));
                o.borrow_mut().push(reply);
            });
        }
        sim.run();
        assert_eq!(*seen.borrow(), vec![0, 2, 4, 6], "prefixes: arrival order");
        let replies = [Some(12), Some(8), Some(4), Some(0)];
        assert_eq!(*order.borrow(), replies, "futures: their own pace");
    }

    #[test]
    fn request_reply_round_trip() {
        let (sim, _world, eps) = cluster(2);
        let ev = eps[0]
            .proxy(NodeId(1))
            .call(ECHO, "echo", Bytes::from_static(b"ping"));
        let ev2 = ev.clone();
        let out = sim.block_on(async move { ev2.handle().wait().await });
        assert!(out.is_ready());
        assert_eq!(ev.take().unwrap().into_bytes(), Bytes::from_static(b"ping"));
    }

    #[test]
    fn typed_round_trip() {
        let (sim, _world, eps) = cluster(2);
        let ev = eps[0].proxy(NodeId(1)).call_t(DOUBLE, "double", &21u64);
        let ev2 = ev.clone();
        sim.block_on(async move { ev2.handle().wait().await });
        let reply: u64 = u64::from_frame(&ev.take().unwrap()).unwrap();
        assert_eq!(reply, 42);
    }

    #[test]
    fn rpc_to_crashed_node_times_out() {
        let (sim, world, eps) = cluster(2);
        world.crash(NodeId(1));
        let ev = eps[0].proxy(NodeId(1)).call(ECHO, "echo", Bytes::new());
        let out =
            sim.block_on(async move { ev.handle().wait_timeout(Duration::from_millis(100)).await });
        assert_eq!(out, WaitResult::Timeout);
    }

    #[test]
    fn unknown_method_times_out() {
        let (sim, _world, eps) = cluster(2);
        let ev = eps[0].proxy(NodeId(1)).call(999, "nope", Bytes::new());
        let out =
            sim.block_on(async move { ev.handle().wait_timeout(Duration::from_millis(50)).await });
        assert_eq!(out, WaitResult::Timeout);
    }

    #[test]
    fn teardown_frees_what_an_unanswered_classified_call_captured() {
        let (sim, _world, eps) = cluster(2);
        let captured = Rc::new(());
        let c = captured.clone();
        let verdict = eps[0].proxy(NodeId(1)).call_classified(
            999,
            "nope",
            &7u64,
            None,
            move |_: Option<u64>| {
                drop(c);
                true
            },
        );
        drop(verdict);
        sim.run();
        let weak = Rc::downgrade(&captured);
        drop(captured);
        assert_eq!(weak.strong_count(), 1, "the call is still pending");
        sim.shutdown();
        eps[0].inner.registry.teardown();
        assert_eq!(weak.strong_count(), 0);
    }

    #[test]
    fn slow_receiver_backpressures_sender_queue() {
        let (sim, world, eps) = cluster(2);
        // Make node 1 CPU-starved so its pump drains slowly.
        world.set_cpu_quota(NodeId(1), 0.01);
        for _ in 0..3000 {
            eps[0]
                .proxy(NodeId(1))
                .call(ECHO, "echo", Bytes::from_static(b"x"));
        }
        sim.run_until_time(simkit::SimTime::from_millis(200));
        assert!(
            eps[0].queue_len(NodeId(1)) > 0,
            "sender queue should back up behind a slow receiver"
        );
    }

    #[test]
    fn concurrent_calls_route_replies_correctly() {
        let (sim, _world, eps) = cluster(3);
        let evs: Vec<_> = (0..10u64)
            .map(|i| {
                let peer = NodeId(1 + (i % 2) as u32);
                eps[0].proxy(peer).call_t(DOUBLE, "double", &i)
            })
            .collect();
        sim.run();
        for (i, ev) in evs.iter().enumerate() {
            let reply = u64::from_frame(&ev.take().unwrap()).unwrap();
            assert_eq!(reply, i as u64 * 2);
        }
    }

    #[test]
    fn an_idle_link_holds_no_connection_and_no_sender() {
        let (sim, _world, eps) = cluster(2);
        let ev = eps[0].proxy(NodeId(1)).call_t(DOUBLE, "double", &21u64);
        sim.run();
        assert_eq!(ev.take().and_then(|b| u64::from_frame(&b)), Some(42));
        for ep in &eps {
            assert_eq!(ep.inner.links.conns_open(), 0, "node {}", ep.node().0);
            // A running sender holds its links; none is left running.
            assert_eq!(Rc::strong_count(&ep.inner.links), 1);
        }
    }

    #[test]
    fn a_reopened_connection_sends_under_the_full_window() {
        let (sim, world, eps) = cluster(2);
        let sent = eps[0]
            .runtime()
            .tracer()
            .metrics()
            .node(0)
            .counter("rpc.sent");
        let calls = |n: usize| {
            for _ in 0..n {
                eps[0].proxy(NodeId(1)).call(ECHO, "echo", Bytes::new());
            }
        };
        let ms = |n: u64| sim.now() + Duration::from_millis(n);
        // Node 1 takes 15 ms to receive a message: no credit comes back
        // while node 0 sends what its window lets out.
        world.set_cpu_quota(NodeId(1), 0.001);
        calls(1);
        sim.run_until_time(ms(1));
        // The sender has ended, the message's credit is still out.
        calls(2 * WINDOW);
        sim.run_until_time(ms(5));
        assert_eq!(
            sent.get(),
            WINDOW as u64,
            "the first message is in the window"
        );
        assert_eq!(eps[0].queue_len(NodeId(1)), WINDOW + 1);
        world.set_cpu_quota(NodeId(1), 1.0);
        sim.run();
        assert_eq!(eps[0].inner.links.conns_open(), 0);
        // Idle, the connection closed; the one that opens now has its
        // whole window again.
        let before = sent.get();
        world.set_cpu_quota(NodeId(1), 0.001);
        calls(2 * WINDOW);
        sim.run_until_time(ms(5));
        assert_eq!(sent.get() - before, WINDOW as u64);
        assert_eq!(eps[0].queue_len(NodeId(1)), WINDOW);
    }

    #[test]
    fn a_late_grant_for_a_reclaimed_credit_reaches_the_current_connection() {
        let (sim, world, eps) = cluster(2);
        // Nothing crosses the link: the test returns node 0's credit
        // itself, as node 1's receive pump would.
        world.partition(NodeId(0), NodeId(1));
        let call = |cancel| {
            eps[0].proxy(NodeId(1)).call_classified(
                ECHO,
                "echo",
                &0u64,
                cancel,
                |_: Option<u64>| true,
            );
        };
        let us = |n: u64| sim.now() + Duration::from_micros(n);
        call(None);
        sim.run_until_time(sim.now() + Duration::from_secs(3));
        // Node 1 takes the message in only now, long after its credit
        // expired; the grant lands in 250 µs.
        eps[1].return_credit(NodeId(0));
        // Before it does, a discarded send reclaims the expired credit,
        // and the connection, idle, closes.
        let discarded = crate::conn::CancelToken::new();
        discarded.cancel();
        call(Some(discarded));
        sim.run_until_time(us(10));
        assert_eq!(eps[0].inner.links.conns_open(), 0);
        // The next send opens a fresh connection, one credit out.
        call(None);
        sim.run_until_time(us(100));
        assert_eq!(eps[0].inner.links.conns_open(), 1);
        // The late grant returns that credit: the connection is idle.
        sim.run_until_time(us(300));
        assert_eq!(eps[0].inner.links.conns_open(), 0);
    }
}
