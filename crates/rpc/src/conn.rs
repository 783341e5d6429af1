//! Outgoing connections: buffering, flow control and cancellation.
//!
//! A node has at most one connection per peer, and only while it
//! carries something: a queued message, a running sender or a credit the
//! peer has not returned yet. A connection with none of these is in a
//! fresh one's state — its whole window of credits, nothing queued — so
//! it is closed, and the next send to that peer opens a fresh one. A
//! closed connection's state is kept, buffers and all, for the node's next
//! connection to open. Its sender is a burst, not a resident task: the
//! enqueue that finds none running spawns it, and it ends when the queue
//! drains.
//!
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

use std::cell::{OnceCell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::future::{poll_fn, Future};
use std::pin::Pin;
use std::rc::Rc;
use std::task::Poll;
use std::time::Duration;

use depfast::event::Watchable;
use depfast::runtime::{Recurring, Runtime};
use depfast_metrics::{Counter, Gauge};
use simkit::{Frame, NodeId, SimTime, WakerSlot, World};

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

impl OutMsg {
    fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }
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

/// What one connection carries. Its free credits are the window less
/// `outstanding`: a credit is either free or held by a message in flight.
#[derive(Default)]
struct ConnState {
    queue: VecDeque<OutMsg>,
    /// Send timestamps of credit-consuming messages still unacknowledged;
    /// entries older than the credit timeout are reclaimed (the transport
    /// analog of a TCP retransmission timer — without it, messages dropped
    /// by a partition would leak their credits and wedge the link).
    outstanding: VecDeque<SimTime>,
    /// A sender burst is running: from the enqueue that found none until
    /// the queue drains (for good once the node crashes).
    sending: bool,
    /// Where the running sender parks while it waits for a credit.
    parked: WakerSlot,
}

impl ConnState {
    /// Reclaims credits whose messages have gone unacknowledged past the
    /// credit timeout (dropped by a partition or a crashed peer). Called
    /// lazily, so a stalled connection schedules no timer of its own.
    fn reclaim_expired(&mut self, now: SimTime) {
        while self
            .outstanding
            .front()
            .is_some_and(|t| now - *t >= CREDIT_TIMEOUT)
        {
            self.outstanding.pop_front();
        }
    }

    fn is_idle(&self) -> bool {
        !self.sending && self.queue.is_empty() && self.outstanding.is_empty()
    }
}

/// How long an unacknowledged credit stays outstanding before reclaim.
const CREDIT_TIMEOUT: Duration = Duration::from_millis(2000);

/// One node's connections, keyed by peer, and what they share: the buffer
/// policy, credit window and per-message send cost, the node's `rpc.*`
/// series and the one `rpc:sender` coroutine every send burst runs under.
pub(crate) struct Links {
    rt: Runtime,
    world: World,
    policy: BufferPolicy,
    window: usize,
    tx_cpu: Duration,
    /// Resolved by the node's first send.
    stats: OnceCell<ConnStats>,
    sender: Recurring,
    conns: RefCell<HashMap<u32, Rc<RefCell<ConnState>>>>,
    /// Closed connections' states, each a fresh one's whose queue and
    /// timestamp buffers keep their capacity: the next connections to
    /// open take them. No more than the node ever had open at once.
    closed: RefCell<Vec<Rc<RefCell<ConnState>>>>,
}

impl Links {
    /// The connections of `rt`'s node: `tx_cpu` is the per-message
    /// serialization/send CPU cost charged to it, `window` the credit
    /// window of each connection.
    pub(crate) fn new(
        rt: &Runtime,
        world: &World,
        policy: BufferPolicy,
        window: usize,
        tx_cpu: Duration,
    ) -> Rc<Self> {
        assert!(window > 0, "window must be positive");
        Rc::new(Links {
            rt: rt.clone(),
            world: world.clone(),
            policy,
            window,
            tx_cpu,
            stats: OnceCell::new(),
            sender: Recurring::new("rpc:sender"),
            conns: RefCell::new(HashMap::new()),
            closed: RefCell::new(Vec::new()),
        })
    }

    fn stats(&self) -> &ConnStats {
        self.stats.get_or_init(|| {
            let scope = self.rt.tracer().metrics().node(self.rt.node().0);
            ConnStats {
                buffer_bytes: scope.gauge("rpc.buffer.bytes"),
                buffer_msgs: scope.gauge("rpc.buffer.msgs"),
                sent: scope.counter("rpc.sent"),
                dropped: scope.counter("rpc.dropped"),
            }
        })
    }

    /// Enqueues a message to `to`, opening the connection if there is
    /// none and starting its sender if none runs. Applies the buffer
    /// policy and charges the node's memory model; an out-of-memory
    /// allocation crashes the node (the unbounded-backlog failure mode).
    pub(crate) fn enqueue(self: &Rc<Self>, to: NodeId, msg: OutMsg) {
        let from = self.rt.node();
        let stats = self.stats();
        let rejected = match self.policy {
            BufferPolicy::Bounded { cap } if self.queue_len(to) >= cap => {
                stats.dropped.inc();
                Some(msg)
            }
            _ => {
                let len = msg.bytes.len() as u64;
                if self.world.mem_alloc(from, len).is_err() {
                    // The process exceeded its memory limit buffering
                    // for a slow peer: OOM kill.
                    self.world.crash(from);
                    Some(msg)
                } else {
                    stats.buffer_bytes.add(len as i64);
                    stats.buffer_msgs.add(1);
                    // Opened, if it is not open, on a closed one's state.
                    let conn = self
                        .conns
                        .borrow_mut()
                        .entry(to.0)
                        .or_insert_with(|| self.closed.borrow_mut().pop().unwrap_or_default())
                        .clone();
                    let mut c = conn.borrow_mut();
                    c.queue.push_back(msg);
                    if c.sending {
                        c.parked.wake();
                    } else {
                        c.sending = true;
                        drop(c);
                        self.send_burst(to, conn);
                    }
                    None
                }
            }
        };
        if let Some(f) = rejected.and_then(|m| m.on_drop) {
            f();
        }
    }

    /// Spawns the sender of the connection to `to`: it sends until the
    /// queue drains, then ends, closing the connection if it is idle.
    fn send_burst(self: &Rc<Self>, to: NodeId, conn: Rc<RefCell<ConnState>>) {
        let links = self.clone();
        self.sender.spawn(&self.rt, async move {
            let (world, from) = (&links.world, links.rt.node());
            while let Some(msg) = links.pop_msg(&conn).await {
                let len = msg.bytes.len() as u64;
                if msg.is_cancelled() {
                    links.finish_msg(len, false);
                    if let Some(f) = msg.on_drop {
                        f();
                    }
                    continue;
                }
                if world.cpu(from, links.tx_cpu).await.is_err() {
                    // Node crashed: the connection keeps `sending`, so it
                    // never sends again.
                    return;
                }
                world.send(from, to, msg.bytes);
                links.finish_msg(len, true);
            }
            conn.borrow_mut().sending = false;
            links.close_if_idle(to, &conn);
        });
    }

    fn close_if_idle(&self, to: NodeId, conn: &RefCell<ConnState>) {
        if !conn.borrow().is_idle() {
            return;
        }
        if let Some(state) = self.conns.borrow_mut().remove(&to.0) {
            // An idle state is a fresh one's but for the waker of a burst
            // that its credit's expiry woke: the next connection's sender
            // parks here, so no finished burst may stay parked.
            state.borrow_mut().parked = WakerSlot::default();
            self.closed.borrow_mut().push(state);
        }
    }

    fn finish_msg(&self, len: u64, sent: bool) {
        let stats = self.stats();
        stats.buffer_bytes.sub(len as i64);
        stats.buffer_msgs.sub(1);
        if sent {
            stats.sent.inc();
        } else {
            stats.dropped.inc();
        }
        self.world.mem_free(self.rt.node(), len);
    }

    /// Returns one flow-control credit (the peer processed a message) to
    /// whichever connection to `to` is open when it lands, as a connection
    /// that had never closed would take it. With none open, the window is
    /// whole already. On an idle connection the grant also reclaims what
    /// has expired, as the wake-up of a parked sender would.
    pub(crate) fn grant_credit(&self, to: NodeId) {
        let Some(conn) = self.conns.borrow().get(&to.0).cloned() else {
            return;
        };
        let mut c = conn.borrow_mut();
        c.outstanding.pop_front();
        if c.sending {
            c.parked.wake();
        } else {
            c.reclaim_expired(self.rt.now());
            drop(c);
            self.close_if_idle(to, &conn);
        }
    }

    /// Resolves to the connection's next sendable message once a credit
    /// is free for it (reclaiming expired credits lazily), or to `None`
    /// once its queue is empty.
    fn pop_msg<'a>(
        &'a self,
        conn: &'a RefCell<ConnState>,
    ) -> impl Future<Output = Option<OutMsg>> + 'a {
        let sim = self.world.sim().clone();
        // Wake-up at the oldest outstanding credit's expiry, armed while
        // blocked on credits; cancelled with this future when one returns.
        let mut credit_expiry: Option<simkit::Sleep> = None;
        poll_fn(move |cx| {
            let now = sim.now();
            let mut c = conn.borrow_mut();
            c.reclaim_expired(now);
            let Some(front) = c.queue.front() else {
                return Poll::Ready(None);
            };
            // Cancelled messages do not consume credits.
            let cancelled = front.is_cancelled();
            if cancelled || c.outstanding.len() < self.window {
                if !cancelled {
                    c.outstanding.push_back(now);
                }
                return Poll::Ready(c.queue.pop_front());
            }
            // Blocked on credits with traffic pending: arm a wake at the
            // oldest credit's expiry so a partition cannot wedge the link.
            // Once per expiry: every enqueue on the stalled link polls this.
            let expiry = c.outstanding[0] + CREDIT_TIMEOUT;
            let sleep = match &mut credit_expiry {
                Some(armed) if armed.deadline() == expiry => armed,
                stale => stale.insert(sim.sleep_until(expiry)),
            };
            let _ = Pin::new(sleep).poll(cx);
            c.parked.park(cx);
            Poll::Pending
        })
    }

    /// Closes every connection, dropping its queued sends unsent and
    /// firing none of their callbacks.
    pub(crate) fn close_all(&self) {
        self.conns.take();
    }

    /// Connections open now.
    #[cfg(test)]
    pub(crate) fn conns_open(&self) -> usize {
        self.conns.borrow().len()
    }

    /// Messages queued to `to`; 0 with no connection.
    pub(crate) fn queue_len(&self, to: NodeId) -> usize {
        self.conns
            .borrow()
            .get(&to.0)
            .map_or(0, |c| c.borrow().queue.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use simkit::{Sim, WorldCfg};
    use std::cell::Cell;

    /// A connection on links of its own, so the node-level counters are
    /// this connection's.
    struct Connection {
        links: Rc<Links>,
        to: NodeId,
    }

    impl Connection {
        fn open(
            rt: &Runtime,
            world: &World,
            to: NodeId,
            policy: BufferPolicy,
            window: usize,
            tx_cpu: Duration,
        ) -> Self {
            let links = Links::new(rt, world, policy, window, tx_cpu);
            Connection { links, to }
        }

        fn enqueue(&self, _world: &World, msg: OutMsg) {
            self.links.enqueue(self.to, msg);
        }

        fn grant_credit(&self) {
            self.links.grant_credit(self.to);
        }

        fn queue_len(&self) -> usize {
            self.links.queue_len(self.to)
        }

        fn sent(&self) -> u64 {
            self.links.stats().sent.get()
        }
    }

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
        let queued = rt.tracer().metrics().node(0).gauge("rpc.buffer.bytes");
        assert_eq!(queued.get(), 0);
    }

    /// A waker that counts its wakes.
    #[derive(Default)]
    struct Wakes(std::sync::atomic::AtomicU32);

    impl std::task::Wake for Wakes {
        fn wake(self: std::sync::Arc<Self>) {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    #[test]
    fn a_reopened_connection_is_the_closed_ones_state_made_fresh() {
        let (sim, world, rt) = setup();
        let to = NodeId(1);
        let links = Links::new(
            &rt,
            &world,
            BufferPolicy::Unbounded,
            4,
            Duration::from_micros(1),
        );
        let settle = || sim.run_until_time(sim.now() + Duration::from_millis(1));
        for _ in 0..8 {
            links.enqueue(to, msg(1));
        }
        settle();
        let state = links.conns.borrow()[&to.0].clone();
        // Four credits back: the burst sends the other four and ends with
        // their credits out.
        for _ in 0..4 {
            links.grant_credit(to);
        }
        settle();
        assert_eq!(links.stats().sent.get(), 8);
        assert!(!state.borrow().sending);
        // What a burst leaves parked when its credit's expiry, not the
        // slot, woke it: its waker.
        let old = std::sync::Arc::new(Wakes::default());
        let waker = std::task::Waker::from(old.clone());
        state
            .borrow()
            .parked
            .park(&std::task::Context::from_waker(&waker));
        let capacity = (
            state.borrow().queue.capacity(),
            state.borrow().outstanding.capacity(),
        );
        for _ in 0..4 {
            links.grant_credit(to);
        }
        assert_eq!(links.conns_open(), 0);
        let kept = (
            state.borrow().queue.capacity(),
            state.borrow().outstanding.capacity(),
        );
        assert_eq!(kept, capacity);

        // The next burst runs on that state: the whole window free, and its
        // enqueues wake no burst but its own.
        for _ in 0..8 {
            links.enqueue(to, msg(1));
        }
        assert!(Rc::ptr_eq(&links.conns.borrow()[&to.0], &state));
        settle();
        assert_eq!(links.stats().sent.get(), 12);
        assert_eq!(old.0.load(std::sync::atomic::Ordering::Relaxed), 0);
        sim.run();
        assert_eq!(links.stats().sent.get(), 16);
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
        let metric = rt.tracer().metrics().node(0).counter("rpc.dropped");
        assert_eq!(metric.get(), 3, "the node counts each drop");
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
        let dropped = rt.tracer().metrics().node(0).counter("rpc.dropped");
        assert!(dropped.get() >= 3);
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
