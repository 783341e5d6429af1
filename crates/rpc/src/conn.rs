//! Outgoing connections: buffering, flow control and cancellation.
//!
//! Each directed peer pair has one [`Connection`] with an outgoing queue.
//! Three mechanisms meet here, all central to the paper:
//!
//! * **Buffer policy** — [`BufferPolicy::Unbounded`] reproduces the
//!   RethinkDB root cause (§2.2): queued messages are charged to the node's
//!   memory model, so a backlog to a slow peer inflates memory pressure and
//!   can OOM-crash the node. The bounded policy caps the queue and drops
//!   the overflow instead — what a DepFast system uses.
//! * **Credit flow control** — a window of unacknowledged messages per
//!   connection, standing in for TCP backpressure: a peer that processes
//!   slowly returns credits slowly, so the sender's queue (not the
//!   network) absorbs the backlog, exactly where the pathology lives.
//! * **Cancellation** — a [`CancelToken`] lets quorum-aware broadcast
//!   discard messages that are still queued once the quorum is satisfied
//!   (§2.3's framework-awareness optimization).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::{poll_fn, Future};
use std::pin::Pin;
use std::rc::Rc;
use std::task::Poll;
use std::time::Duration;

use depfast::event::Watchable;
use depfast::runtime::{Coroutine, Runtime};
use depfast_metrics::{Counter, Gauge};
use simkit::{Frame, NodeId, WakerSlot, World};

/// Outgoing buffer sizing policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferPolicy {
    /// No cap; queued bytes are charged to the node's memory model. This
    /// is the legacy-system behaviour that backlogs and eventually OOMs.
    Unbounded,
    /// Cap at `cap` messages; beyond it the newest message is dropped
    /// (its completion callback fails).
    Bounded {
        /// Maximum queued messages.
        cap: usize,
    },
}

/// Shared cancellation flag for queued messages.
#[derive(Clone, Default)]
pub struct CancelToken(Rc<std::cell::Cell<bool>>);

impl CancelToken {
    /// Creates an un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cancels every still-queued message carrying this token.
    pub fn cancel(&self) {
        self.0.set(true);
    }

    /// `true` once cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.0.get()
    }

    /// Cancels when `round` resolves either way: a quorum that has been
    /// reached, or can no longer be, needs none of its queued requests.
    pub fn cancel_when(&self, round: &impl Watchable) {
        let token = self.clone();
        round.handle().on_fire(move |_| token.cancel());
    }
}

pub(crate) struct OutMsg {
    pub bytes: Frame,
    pub cancel: Option<CancelToken>,
    /// Runs if the message is discarded without being sent.
    pub on_drop: Option<Box<dyn FnOnce()>>,
}

/// Cached handles into the shared registry, aggregated per sending node
/// (`rpc.*` series): buffer occupancy gauges rise while a backlog to a
/// slow peer builds, which is how the RethinkDB pathology (§2.2) becomes
/// visible *before* the OOM.
struct ConnStats {
    buffer_bytes: Gauge,
    buffer_msgs: Gauge,
    sent: Counter,
    dropped: Counter,
}

struct ConnInner {
    from: NodeId,
    stats: ConnStats,
    queue: VecDeque<OutMsg>,
    credits: usize,
    window: usize,
    /// Send timestamps of credit-consuming messages still unacknowledged;
    /// entries older than the credit timeout are reclaimed (the transport
    /// analog of a TCP retransmission timer — without it, messages dropped
    /// by a partition would leak their credits and wedge the link).
    outstanding: VecDeque<simkit::SimTime>,
    /// Where the sender coroutine parks between messages.
    sender: WakerSlot,
    policy: BufferPolicy,
    queued_bytes: u64,
    sent: u64,
    dropped: u64,
}

/// How long an unacknowledged credit stays outstanding before reclaim.
const CREDIT_TIMEOUT: Duration = Duration::from_millis(2000);

/// One directed connection with an outgoing queue and a sender coroutine.
#[derive(Clone)]
pub struct Connection {
    inner: Rc<RefCell<ConnInner>>,
}

impl Connection {
    /// Opens a connection from `rt`'s node to `to` and spawns its sender.
    ///
    /// `tx_cpu` is the per-message serialization/send CPU cost charged to
    /// the sending node; `window` is the credit window.
    pub fn open(
        rt: &Runtime,
        world: &World,
        to: NodeId,
        policy: BufferPolicy,
        window: usize,
        tx_cpu: Duration,
    ) -> Self {
        assert!(window > 0, "window must be positive");
        let scope = rt.tracer().metrics().node(rt.node().0);
        let stats = ConnStats {
            buffer_bytes: scope.gauge("rpc.buffer.bytes"),
            buffer_msgs: scope.gauge("rpc.buffer.msgs"),
            sent: scope.counter("rpc.sent"),
            dropped: scope.counter("rpc.dropped"),
        };
        let conn = Connection {
            inner: Rc::new(RefCell::new(ConnInner {
                from: rt.node(),
                stats,
                queue: VecDeque::new(),
                credits: window,
                window,
                outstanding: VecDeque::new(),
                sender: WakerSlot::default(),
                policy,
                queued_bytes: 0,
                sent: 0,
                dropped: 0,
            })),
        };
        let c = conn.clone();
        let world = world.clone();
        let from = rt.node();
        Coroutine::create(rt, "rpc:sender", async move {
            loop {
                let msg = c.pop_msg(world.sim()).await;
                let len = msg.bytes.len() as u64;
                if msg.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                    c.finish_msg(&world, len, false);
                    if let Some(f) = msg.on_drop {
                        f();
                    }
                    continue;
                }
                if world.cpu(from, tx_cpu).await.is_err() {
                    break; // Node crashed.
                }
                world.send(from, to, msg.bytes);
                c.finish_msg(&world, len, true);
            }
        });
        conn
    }

    fn finish_msg(&self, world: &World, len: u64, sent: bool) {
        let mut inner = self.inner.borrow_mut();
        inner.queued_bytes -= len;
        inner.stats.buffer_bytes.sub(len as i64);
        inner.stats.buffer_msgs.sub(1);
        if sent {
            inner.sent += 1;
            inner.stats.sent.inc();
        } else {
            inner.dropped += 1;
            inner.stats.dropped.inc();
        }
        world.mem_free(inner.from, len);
    }

    /// Enqueues a message. Applies the buffer policy and charges the
    /// node's memory model; an out-of-memory allocation crashes the node
    /// (the unbounded-backlog failure mode).
    pub(crate) fn enqueue(&self, world: &World, msg: OutMsg) {
        let drop_msg = {
            let mut inner = self.inner.borrow_mut();
            match inner.policy {
                BufferPolicy::Bounded { cap } if inner.queue.len() >= cap => {
                    inner.dropped += 1;
                    inner.stats.dropped.inc();
                    Some(msg)
                }
                _ => {
                    let len = msg.bytes.len() as u64;
                    if world.mem_alloc(inner.from, len).is_err() {
                        // The process exceeded its memory limit
                        // buffering for a slow peer: OOM kill.
                        world.crash(inner.from);
                        Some(msg)
                    } else {
                        inner.queued_bytes += len;
                        inner.stats.buffer_bytes.add(len as i64);
                        inner.stats.buffer_msgs.add(1);
                        inner.queue.push_back(msg);
                        inner.sender.wake();
                        None
                    }
                }
            }
        };
        if let Some(f) = drop_msg.and_then(|m| m.on_drop) {
            f();
        }
    }

    /// Returns one flow-control credit (the peer processed a message).
    pub fn grant_credit(&self) {
        let mut inner = self.inner.borrow_mut();
        inner.outstanding.pop_front();
        if inner.credits < inner.window {
            inner.credits += 1;
        }
        inner.sender.wake();
    }

    /// Reclaims credits whose messages have gone unacknowledged past the
    /// credit timeout (dropped by a partition or a crashed peer). Called
    /// lazily from the sender's pop path, so an idle connection schedules
    /// no timers and the simulation can go quiescent.
    fn reclaim_expired(&self, now: simkit::SimTime) {
        let mut inner = self.inner.borrow_mut();
        let mut reclaimed = 0;
        while let Some(t) = inner.outstanding.front() {
            if now - *t >= CREDIT_TIMEOUT {
                inner.outstanding.pop_front();
                reclaimed += 1;
            } else {
                break;
            }
        }
        inner.credits = (inner.credits + reclaimed).min(inner.window);
    }

    /// Resolves to the next sendable message: waits for a non-empty queue
    /// *and* an available credit (reclaiming expired credits lazily).
    fn pop_msg(&self, sim: &simkit::Sim) -> impl Future<Output = OutMsg> + '_ {
        let sim = sim.clone();
        // Wake-up at the oldest outstanding credit's expiry, armed while
        // blocked on credits; cancelled with this future when one returns.
        let mut credit_expiry: Option<simkit::Sleep> = None;
        poll_fn(move |cx| {
            let now = sim.now();
            self.reclaim_expired(now);
            let mut inner = self.inner.borrow_mut();
            // Cancelled messages do not consume credits.
            if let Some(front) = inner.queue.front() {
                let cancelled = front.cancel.as_ref().is_some_and(CancelToken::is_cancelled);
                if cancelled || inner.credits > 0 {
                    if !cancelled {
                        inner.credits -= 1;
                        inner.outstanding.push_back(now);
                    }
                    let msg = inner.queue.pop_front().expect("front was just seen");
                    return Poll::Ready(msg);
                }
                // Blocked on credits with traffic pending: arm a wake at the
                // oldest credit's expiry so a partition cannot wedge the link.
                // Once per expiry: every enqueue on the stalled link polls this.
                if let Some(t) = inner.outstanding.front() {
                    let expiry = *t + CREDIT_TIMEOUT;
                    let sleep = match &mut credit_expiry {
                        Some(armed) if armed.deadline() == expiry => armed,
                        stale => stale.insert(sim.sleep_until(expiry)),
                    };
                    let _ = Pin::new(sleep).poll(cx);
                }
            }
            inner.sender.park(cx);
            Poll::Pending
        })
    }

    /// Messages currently queued.
    pub fn queue_len(&self) -> usize {
        self.inner.borrow().queue.len()
    }

    /// Test probe: bytes currently queued (and charged to the memory model).
    #[doc(hidden)]
    pub fn queued_bytes(&self) -> u64 {
        self.inner.borrow().queued_bytes
    }

    /// Test probe: messages sent so far.
    #[doc(hidden)]
    pub fn sent(&self) -> u64 {
        self.inner.borrow().sent
    }

    /// Messages dropped (policy or cancellation) so far.
    pub fn dropped(&self) -> u64 {
        self.inner.borrow().dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use simkit::{Sim, WorldCfg};
    use std::cell::Cell;

    fn setup() -> (Sim, World, Runtime) {
        let sim = Sim::new(1);
        let world = World::new(sim.clone(), WorldCfg::default());
        let rt = Runtime::new_sim(sim.clone(), NodeId(0));
        (sim, world, rt)
    }

    fn msg(n: usize) -> OutMsg {
        OutMsg {
            bytes: Bytes::from(vec![0u8; n]).into(),
            cancel: None,
            on_drop: None,
        }
    }

    #[test]
    fn messages_flow_to_peer() {
        let (sim, world, rt) = setup();
        let got = Rc::new(Cell::new(0));
        let g = got.clone();
        world.register_handler(NodeId(1), move |_| g.set(g.get() + 1));
        let conn = Connection::open(
            &rt,
            &world,
            NodeId(1),
            BufferPolicy::Unbounded,
            4,
            Duration::from_micros(10),
        );
        for _ in 0..3 {
            conn.enqueue(&world, msg(10));
        }
        sim.run();
        assert_eq!(got.get(), 3);
        assert_eq!(conn.sent(), 3);
        assert_eq!(conn.queued_bytes(), 0);
    }

    #[test]
    fn credits_gate_sending() {
        let (sim, world, rt) = setup();
        let conn = Connection::open(
            &rt,
            &world,
            NodeId(1),
            BufferPolicy::Unbounded,
            2,
            Duration::from_micros(1),
        );
        for _ in 0..5 {
            conn.enqueue(&world, msg(1));
        }
        // Within the credit timeout, only the 2-credit window goes out.
        sim.run_until_time(sim.now() + Duration::from_millis(100));
        assert_eq!(conn.sent(), 2);
        assert_eq!(conn.queue_len(), 3);
        conn.grant_credit();
        sim.run_until_time(sim.now() + Duration::from_millis(100));
        assert_eq!(conn.sent(), 3);
        // Unacknowledged credits are eventually reclaimed (the TCP
        // retransmission-timer analog), so the link never wedges.
        sim.run();
        assert_eq!(conn.sent(), 5);
    }

    #[test]
    fn stalled_link_arms_one_credit_expiry_timer() {
        let (sim, world, rt) = setup();
        let conn = Connection::open(
            &rt,
            &world,
            NodeId(1),
            BufferPolicy::Unbounded,
            1,
            Duration::from_micros(1),
        );
        // The only credit goes out with the first message and is never
        // returned: from here on the link has none.
        conn.enqueue(&world, msg(1));
        sim.run_until_time(sim.now() + Duration::from_millis(1));
        assert_eq!(conn.sent(), 1);
        let (timers, polls) = (sim.timers_scheduled(), sim.polls());
        for _ in 0..100 {
            conn.enqueue(&world, msg(1));
            // Every enqueue wakes the sender, which finds no credit.
            sim.run_until_time(sim.now() + Duration::from_millis(1));
        }
        assert_eq!(sim.polls() - polls, 100);
        assert_eq!(conn.queue_len(), 100);
        assert_eq!(sim.timers_scheduled() - timers, 1);
        assert_eq!(sim.pending_timers(), 1);
        // The blocked pop takes its timer with it when it ends: a returned
        // credit ends it, and the only timer left pending is the one armed
        // by the next pop, blocked behind the message that credit let out.
        conn.grant_credit();
        sim.run_until_time(sim.now() + Duration::from_millis(10));
        assert_eq!(conn.sent(), 2);
        assert_eq!(sim.pending_timers(), 1);
    }

    #[test]
    fn partition_does_not_wedge_the_link_forever() {
        let (sim, world, rt) = setup();
        let got = Rc::new(Cell::new(0));
        let g = got.clone();
        world.register_handler(NodeId(1), move |_| g.set(g.get() + 1));
        let conn = Connection::open(
            &rt,
            &world,
            NodeId(1),
            BufferPolicy::Unbounded,
            4,
            Duration::from_micros(1),
        );
        world.partition(NodeId(0), NodeId(1));
        for _ in 0..20 {
            conn.enqueue(&world, msg(8));
        }
        sim.run_until_time(sim.now() + Duration::from_millis(200));
        assert_eq!(got.get(), 0, "partitioned: nothing delivered");
        world.heal(NodeId(0), NodeId(1));
        // Credits for the dropped sends are reclaimed on timeout; all
        // remaining traffic flows after healing.
        sim.run();
        assert!(got.get() >= 16, "post-heal deliveries: {}", got.get());
    }

    #[test]
    fn bounded_drop_newest_caps_queue() {
        let (sim, world, rt) = setup();
        let dropped = Rc::new(Cell::new(0));
        let conn = Connection::open(
            &rt,
            &world,
            NodeId(1),
            BufferPolicy::Bounded { cap: 2 },
            // Zero effective throughput: one credit, never returned after
            // first send... use window 1 and don't run the sim yet.
            1,
            Duration::from_micros(1),
        );
        for i in 0..5 {
            let d = dropped.clone();
            conn.enqueue(
                &world,
                OutMsg {
                    bytes: Bytes::from_static(b"x").into(),
                    cancel: None,
                    on_drop: Some(Box::new(move || d.set(d.get() + 1))),
                },
            );
            let _ = i;
        }
        assert_eq!(conn.queue_len(), 2);
        assert_eq!(dropped.get(), 3);
        assert_eq!(conn.dropped(), 3);
        let metric = rt.tracer().metrics().node(0).counter("rpc.dropped");
        assert_eq!(metric.get(), 3, "accessor agrees with the metric");
        sim.run();
    }

    #[test]
    fn cancelled_messages_are_discarded_not_sent() {
        let (sim, world, rt) = setup();
        let got = Rc::new(Cell::new(0));
        let g = got.clone();
        world.register_handler(NodeId(1), move |_| g.set(g.get() + 1));
        let conn = Connection::open(
            &rt,
            &world,
            NodeId(1),
            BufferPolicy::Unbounded,
            1, // One credit: messages trickle, leaving time to cancel.
            Duration::from_micros(1),
        );
        let token = CancelToken::new();
        for _ in 0..4 {
            conn.enqueue(
                &world,
                OutMsg {
                    bytes: Bytes::from_static(b"x").into(),
                    cancel: Some(token.clone()),
                    on_drop: None,
                },
            );
        }
        token.cancel();
        sim.run();
        // Everything still queued at cancel time was discarded. At most
        // the first (already-popped) message can have gone out.
        assert!(got.get() <= 1, "got {}", got.get());
        assert!(conn.dropped() >= 3);
    }

    #[test]
    fn unbounded_backlog_charges_memory_and_ooms() {
        let (sim, world, rt) = setup();
        // Squeeze the node's memory: baseline + 1 MB.
        let limit = world.mem_used(NodeId(0)) + 1024 * 1024;
        world.set_mem_limit(NodeId(0), limit);
        let conn = Connection::open(
            &rt,
            &world,
            NodeId(1),
            BufferPolicy::Unbounded,
            1,
            Duration::from_micros(1),
        );
        // Queue 2 MB without credits to drain it.
        for _ in 0..2048 {
            conn.enqueue(&world, msg(1024));
            if world.is_crashed(NodeId(0)) {
                break;
            }
        }
        assert!(
            world.is_crashed(NodeId(0)),
            "unbounded buffering must OOM-crash the node"
        );
        sim.run();
    }

    #[test]
    fn buffer_occupancy_metrics_track_the_backlog() {
        let (sim, world, rt) = setup();
        let m = rt.tracer().metrics();
        let conn = Connection::open(
            &rt,
            &world,
            NodeId(1),
            BufferPolicy::Unbounded,
            1, // One credit: the backlog builds behind the first send.
            Duration::from_micros(1),
        );
        for _ in 0..5 {
            conn.enqueue(&world, msg(100));
        }
        let bytes = m.node(0).gauge("rpc.buffer.bytes");
        let msgs = m.node(0).gauge("rpc.buffer.msgs");
        assert_eq!(bytes.get(), 500);
        assert_eq!(msgs.get(), 5);
        sim.run_until_time(sim.now() + Duration::from_millis(100));
        // One credit consumed: exactly one message left the buffer.
        assert_eq!(m.node(0).counter("rpc.sent").get(), 1);
        assert_eq!(bytes.get(), 400);
        assert_eq!(msgs.get(), 4);
        // Unreturned credits expire, so the rest drains too.
        sim.run();
        assert_eq!(m.node(0).counter("rpc.sent").get(), 5);
        assert_eq!(bytes.get(), 0);
        assert_eq!(msgs.get(), 0);
    }
}
