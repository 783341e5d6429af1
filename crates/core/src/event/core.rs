//! The shared state every event is built from.

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};
use std::time::Duration;

use simkit::{NodeId, SimTime, Sleep};

use super::quorum::{self, Tally};
use crate::runtime::{
    current_coro, current_coro_label, current_phase, swap_current_phase, trace_ctx, Runtime,
};
use crate::trace::{TraceRecord, WaitObservation};

/// Identifier of an event, unique within one [`Tracer`](crate::Tracer)
/// (i.e. cluster-wide when runtimes share a tracer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(pub u64);

/// Terminal outcome an event fires with.
///
/// Compound events count both: a [`QuorumEvent`](super::QuorumEvent)
/// becomes ready on enough `Ok` children and *unreachable* once too many
/// children signal `Err` — the "minority-plus-one-reject" conditions of
/// §3.2 fall out of this distinction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Signal {
    /// The awaited thing happened (reply arrived, write durable, ...).
    Ok,
    /// The awaited thing definitively failed (RPC error, vote rejected).
    Err,
}

/// What a wait observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitResult {
    /// The event fired with [`Signal::Ok`].
    Ready,
    /// The event fired with [`Signal::Err`].
    Failed,
    /// The wait's deadline passed before the event fired.
    Timeout,
}

impl WaitResult {
    /// `true` for [`WaitResult::Ready`].
    pub fn is_ready(self) -> bool {
        matches!(self, WaitResult::Ready)
    }
}

/// The structural kind of an event, used by tracing and SPG construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Manually-triggered condition.
    Notify,
    /// Watched variable threshold.
    Value,
    /// Virtual-time timer.
    Timer,
    /// Local disk I/O completion.
    Io,
    /// Remote procedure call completion; `target` is the callee node.
    Rpc {
        /// Node the call was sent to (where the slowness would come from).
        target: NodeId,
    },
    /// k-of-n compound event.
    Quorum,
    /// All-of compound event.
    And,
    /// Any-of compound event.
    Or,
    /// Driver-annotated phase of request processing (WAL append, inline
    /// cold read, flow-control probe, ...). Nothing waits on phase events;
    /// they exist so critical-path analysis can decompose a driver's time
    /// and charge it to `blame` — the node whose slowness the phase's
    /// duration evidences (often the annotating node itself).
    Phase {
        /// Node this phase's duration is charged to.
        blame: NodeId,
    },
}

impl EventKind {
    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Notify => "notify",
            EventKind::Value => "value",
            EventKind::Timer => "timer",
            EventKind::Io => "io",
            EventKind::Rpc { .. } => "rpc",
            EventKind::Quorum => "quorum",
            EventKind::And => "and",
            EventKind::Or => "or",
            EventKind::Phase { .. } => "phase",
        }
    }
}

type Hook = Box<dyn FnOnce(Signal)>;

struct Inner {
    id: EventId,
    label: &'static str,
    kind: EventKind,
    node: NodeId,
    created_at: SimTime,
    fired: Option<Signal>,
    sample: bool,
    wakers: Vec<Waker>,
    hooks: Vec<Hook>,
    /// A compound event's own tally: what the SPG fold walks. A tally
    /// holds no handle, so this link closes no cycle.
    tally: Option<Rc<RefCell<Tally>>>,
}

/// The reference-counted core shared by all event types.
///
/// `EventHandle` provides firing, hook subscription (how compound events
/// watch their children) and the [`Wait`] future. Concrete event types wrap
/// a handle and add their own semantics.
#[derive(Clone)]
pub struct EventHandle {
    rt: Runtime,
    inner: Rc<RefCell<Inner>>,
}

/// Anything that exposes an [`EventHandle`] and can therefore be awaited or
/// added to a compound event.
pub trait Watchable {
    /// The underlying event core.
    fn handle(&self) -> &EventHandle;
}

impl Watchable for EventHandle {
    fn handle(&self) -> &EventHandle {
        self
    }
}

impl EventHandle {
    /// Creates a fresh, unfired event owned by `rt`'s node.
    pub fn new(rt: &Runtime, kind: EventKind, label: &'static str) -> Self {
        Self::with_sampling(rt, kind, label, true)
    }

    /// Like [`EventHandle::new`], but lets derived events (e.g. a
    /// classified view over an RPC reply) opt out of RPC latency sampling
    /// so the underlying completion is not double-counted.
    pub fn with_sampling(rt: &Runtime, kind: EventKind, label: &'static str, sample: bool) -> Self {
        let id = rt.tracer().next_event_id();
        let node = rt.node();
        let created_at = rt.now();
        rt.tracer().record(|| TraceRecord::EventCreated {
            t: created_at,
            node,
            coro: current_coro().map(|(_, c)| c),
            event: id,
            kind,
            label,
            ctx: trace_ctx(),
        });
        EventHandle {
            rt: rt.clone(),
            inner: Rc::new(RefCell::new(Inner {
                id,
                label,
                kind,
                node,
                created_at,
                fired: None,
                sample,
                wakers: Vec::new(),
                hooks: Vec::new(),
                tally: None,
            })),
        }
    }

    /// A compound event's handle, linked to its tally.
    pub(super) fn compound(
        rt: &Runtime,
        kind: EventKind,
        label: &'static str,
        tally: Rc<RefCell<Tally>>,
    ) -> Self {
        let h = Self::new(rt, kind, label);
        h.inner.borrow_mut().tally = Some(tally);
        h
    }

    /// A compound event's tally, if this is one.
    pub(super) fn tally(&self) -> Option<Rc<RefCell<Tally>>> {
        self.inner.borrow().tally.clone()
    }

    /// This event's id.
    pub fn id(&self) -> EventId {
        self.inner.borrow().id
    }

    /// The label given at creation (names the waiting point in reports).
    pub fn label(&self) -> &'static str {
        self.inner.borrow().label
    }

    /// The structural kind.
    pub fn kind(&self) -> EventKind {
        self.inner.borrow().kind
    }

    /// Node that created the event.
    pub fn node(&self) -> NodeId {
        self.inner.borrow().node
    }

    /// Virtual time at which the event was created.
    pub fn created_at(&self) -> SimTime {
        self.inner.borrow().created_at
    }

    /// The runtime this event belongs to.
    pub fn runtime(&self) -> &Runtime {
        &self.rt
    }

    /// `true` once the event has fired with [`Signal::Ok`].
    pub fn ready(&self) -> bool {
        self.inner.borrow().fired == Some(Signal::Ok)
    }

    /// The signal the event fired with, if any.
    pub fn fired(&self) -> Option<Signal> {
        self.inner.borrow().fired
    }

    /// Fires the event. Idempotent: only the first signal takes effect.
    ///
    /// Waiters are woken and subscribed hooks run immediately (still on the
    /// scheduler thread), so compound parents observe the child in the same
    /// instant.
    pub fn fire(&self, signal: Signal) {
        let (wakers, hooks, latency, kind, sample) = {
            let mut inner = self.inner.borrow_mut();
            if inner.fired.is_some() {
                return;
            }
            inner.fired = Some(signal);
            (
                std::mem::take(&mut inner.wakers),
                std::mem::take(&mut inner.hooks),
                self.rt.now() - inner.created_at,
                inner.kind,
                inner.sample,
            )
        };
        let t = self.rt.now();
        self.rt.tracer().record(|| TraceRecord::EventFired {
            t,
            event: self.id(),
            signal,
            by: self.tally().and_then(|t| t.borrow().by),
        });
        // RPC completion latency feeds the fail-slow detector's per-peer
        // statistics.
        if sample {
            if let EventKind::Rpc { target } = kind {
                self.rt
                    .tracer()
                    .sample_rpc(target, self.label(), latency, signal);
            }
        }
        for w in wakers {
            w.wake();
        }
        for h in hooks {
            h(signal);
        }
    }

    /// Subscribes `hook` to run when the event fires (immediately if it
    /// already has). Used by compound events to watch children.
    pub fn on_fire(&self, hook: impl FnOnce(Signal) + 'static) {
        let fired = self.inner.borrow().fired;
        match fired {
            Some(s) => hook(s),
            None => self.inner.borrow_mut().hooks.push(Box::new(hook)),
        }
    }

    /// Returns a future that resolves when the event fires.
    pub fn wait(&self) -> Wait {
        Wait {
            handle: self.clone(),
            deadline: None,
            begun_at: None,
        }
    }

    /// Returns a future that resolves when the event fires or after `d`.
    pub fn wait_timeout(&self, d: Duration) -> Wait {
        Wait {
            handle: self.clone(),
            deadline: Some(self.rt.sleep_until(self.rt.now() + d)),
            begun_at: None,
        }
    }

    fn register_waker(&self, waker: Waker) {
        let mut inner = self.inner.borrow_mut();
        // Deduplicate: a task re-polled by a spurious wake must not add a
        // second registration (quadratic wake storms otherwise).
        if !inner.wakers.iter().any(|w| w.will_wake(&waker)) {
            inner.wakers.push(waker);
        }
    }
}

/// Future returned by [`EventHandle::wait`] / [`EventHandle::wait_timeout`].
///
/// Each `Wait` is one *waiting point*. Its begin is folded into the SPG
/// when a fold is installed ([`crate::spg`]) and its end is delivered to
/// the wait probe; neither is a trace record, since no trace reader
/// needs one.
///
/// A wait that ends before its deadline, resolved or dropped, takes the
/// deadline's timer with it: a timeout that does not fire costs nothing
/// afterwards.
pub struct Wait {
    handle: EventHandle,
    deadline: Option<Sleep>,
    begun_at: Option<SimTime>,
}

impl Wait {
    fn finish(&self) {
        let h = &self.handle;
        let t = h.rt.now();
        let begun = self.begun_at.unwrap_or(t);
        h.rt.tracer().probe_wait(|| WaitObservation {
            node: h.rt.node(),
            coro_label: current_coro_label(),
            phase: current_phase(),
            kind: h.kind(),
            label: h.label(),
            waited: t - begun,
        });
    }
}

impl Future for Wait {
    type Output = WaitResult;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<WaitResult> {
        let h = self.handle.clone();
        if self.begun_at.is_none() {
            self.begun_at = Some(h.rt.now());
            h.rt.tracer().fold_wait(|| {
                // What the wait waits for, read off the live tallies.
                let inner = h.inner.borrow();
                let shape = quorum::shape(inner.kind, inner.label, inner.tally.as_ref());
                (h.rt.node(), current_coro_label().unwrap_or("?"), shape)
            });
        }
        if let Some(signal) = h.fired() {
            let result = match signal {
                Signal::Ok => WaitResult::Ready,
                Signal::Err => WaitResult::Failed,
            };
            self.finish();
            return Poll::Ready(result);
        }
        if let Some(deadline) = &mut self.deadline {
            if Pin::new(deadline).poll(cx).is_ready() {
                self.finish();
                return Poll::Ready(WaitResult::Timeout);
            }
        }
        h.register_waker(cx.waker().clone());
        Poll::Pending
    }
}

/// RAII annotation of one *phase* of request processing inside a driver
/// (WAL append, inline cold read, commit wait, ...).
///
/// A phase span is an ordinary event of kind [`EventKind::Phase`]: created
/// when the phase begins, fired `Ok` when it ends (or when the span is
/// dropped), carrying the ambient [`TraceCtx`](crate::TraceCtx) like any
/// other event. Nothing ever waits on it — it exists purely so trace
/// analysis can decompose where a driver's wall-clock time went and charge
/// each slice to the node named by `blame`.
pub struct PhaseSpan {
    handle: EventHandle,
    prev_phase: Option<&'static str>,
}

impl PhaseSpan {
    /// Opens a phase charged to the annotating node itself.
    pub fn begin(rt: &Runtime, label: &'static str) -> Self {
        Self::begin_blaming(rt, label, rt.node())
    }

    /// Opens a phase whose duration is charged to `blame` (e.g. an inline
    /// cold read performed *for* a lagging peer).
    pub fn begin_blaming(rt: &Runtime, label: &'static str, blame: NodeId) -> Self {
        // Besides the trace event, the span sets the coroutine's ambient
        // phase so the wait-state profiler attributes everything awaited
        // inside it (and every simkit resource it consumes) to `label`.
        let prev_phase = swap_current_phase(Some(label));
        PhaseSpan {
            handle: EventHandle::with_sampling(rt, EventKind::Phase { blame }, label, false),
            prev_phase,
        }
    }

    /// Closes the phase explicitly (dropping the span does the same).
    pub fn end(self) {}
}

impl Drop for PhaseSpan {
    fn drop(&mut self) {
        swap_current_phase(self.prev_phase);
        self.handle.fire(Signal::Ok);
    }
}

/// Lightweight RAII phase annotation that only sets the coroutine's ambient
/// phase — no trace event is created or fired.
///
/// Use this to label waits for the profiler in paths where a full
/// [`PhaseSpan`] would perturb the event-id stream or add trace volume
/// (e.g. per-iteration waits in hot driver loops). Nesting restores the
/// enclosing phase on drop, so guards compose with spans.
pub struct PhaseGuard {
    prev_phase: Option<&'static str>,
}

impl PhaseGuard {
    /// Sets the current coroutine's ambient phase to `label` until drop.
    pub fn enter(label: &'static str) -> Self {
        PhaseGuard {
            prev_phase: swap_current_phase(Some(label)),
        }
    }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        swap_current_phase(self.prev_phase);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::Sim;

    fn rt() -> (Sim, Runtime) {
        let sim = Sim::new(1);
        let rt = Runtime::new_sim(sim.clone(), NodeId(0));
        (sim, rt)
    }

    #[test]
    fn fire_is_idempotent() {
        let (_sim, rt) = rt();
        let h = EventHandle::new(&rt, EventKind::Notify, "t");
        h.fire(Signal::Ok);
        h.fire(Signal::Err);
        assert_eq!(h.fired(), Some(Signal::Ok));
        assert!(h.ready());
    }

    #[test]
    fn wait_resolves_on_fire() {
        let (sim, rt) = rt();
        let h = EventHandle::new(&rt, EventKind::Notify, "t");
        let h2 = h.clone();
        let s = sim.clone();
        let out = sim.block_on(async move {
            s.spawn(async move {
                h2.fire(Signal::Ok);
            });
            h.wait().await
        });
        assert_eq!(out, WaitResult::Ready);
    }

    #[test]
    fn wait_observes_err_as_failed() {
        let (sim, rt) = rt();
        let h = EventHandle::new(&rt, EventKind::Notify, "t");
        h.fire(Signal::Err);
        let out = sim.block_on(async move { h.wait().await });
        assert_eq!(out, WaitResult::Failed);
    }

    #[test]
    fn wait_timeout_fires_at_deadline() {
        let (sim, rt) = rt();
        let h = EventHandle::new(&rt, EventKind::Notify, "t");
        let out = sim.block_on(async move { h.wait_timeout(Duration::from_millis(10)).await });
        assert_eq!(out, WaitResult::Timeout);
        assert_eq!(sim.now(), SimTime::from_millis(10));
    }

    #[test]
    fn timeouts_that_did_not_fire_leave_nothing_behind() {
        let (sim, rt) = rt();
        let s = sim.clone();
        let resolved = sim.block_on(async move {
            let mut resolved = 0;
            for _ in 0..10_000 {
                let h = EventHandle::new(&rt, EventKind::Notify, "t");
                let h2 = h.clone();
                let s2 = s.clone();
                s.spawn(async move {
                    s2.sleep(Duration::from_micros(10)).await;
                    h2.fire(Signal::Ok);
                });
                resolved += h.wait_timeout(Duration::from_secs(5)).await.is_ready() as u32;
            }
            resolved
        });
        assert_eq!(resolved, 10_000);
        // One deadline and one sleep per round were armed; none is left.
        assert_eq!(sim.timers_scheduled(), 20_000);
        assert_eq!(sim.pending_timers(), 0);
        let (now, polls) = (sim.now(), sim.polls());
        sim.run();
        // So no deadline fires later, moves the clock or wakes the waiter.
        assert_eq!((sim.now(), sim.polls()), (now, polls));
    }

    #[test]
    fn hook_runs_immediately_if_already_fired() {
        let (_sim, rt) = rt();
        let h = EventHandle::new(&rt, EventKind::Notify, "t");
        h.fire(Signal::Ok);
        let hit = Rc::new(RefCell::new(None));
        let hit2 = hit.clone();
        h.on_fire(move |s| *hit2.borrow_mut() = Some(s));
        assert_eq!(*hit.borrow(), Some(Signal::Ok));
    }

    #[test]
    fn phase_annotations_nest_and_stick_across_awaits() {
        use crate::runtime::{current_phase, Coroutine};
        let (sim, rt) = rt();
        let seen = Rc::new(RefCell::new(Vec::new()));
        let s = seen.clone();
        let rt2 = rt.clone();
        Coroutine::create(&rt, "probe", async move {
            assert_eq!(current_phase(), None);
            let _span = PhaseSpan::begin(&rt2, "outer");
            s.borrow_mut().push(current_phase());
            {
                let _g = PhaseGuard::enter("inner");
                s.borrow_mut().push(current_phase());
                // The phase survives this coroutine's own awaits.
                rt2.sleep(Duration::from_millis(1)).await;
                s.borrow_mut().push(current_phase());
            }
            s.borrow_mut().push(current_phase());
        });
        sim.run();
        assert_eq!(
            *seen.borrow(),
            vec![Some("outer"), Some("inner"), Some("inner"), Some("outer")]
        );
        // The ambient slot is clean outside any poll.
        assert_eq!(current_phase(), None);
    }

    #[test]
    fn wait_probe_sees_phase_and_event_attribution() {
        use crate::runtime::Coroutine;
        use crate::trace::WaitObservation;
        let (sim, rt) = rt();
        let seen: Rc<RefCell<Vec<WaitObservation>>> = Rc::new(RefCell::new(Vec::new()));
        let s = seen.clone();
        rt.tracer()
            .set_wait_probe(Some(Rc::new(move |o: &WaitObservation| {
                s.borrow_mut().push(*o);
            })));
        let h = EventHandle::new(&rt, EventKind::Io, "wal_fsync");
        let h2 = h.clone();
        let rt2 = rt.clone();
        Coroutine::create(&rt, "server", async move {
            let _span = PhaseSpan::begin(&rt2, "wal_append");
            h2.wait().await;
        });
        let s2 = sim.clone();
        sim.spawn(async move {
            s2.sleep(Duration::from_millis(3)).await;
            h.fire(Signal::Ok);
        });
        sim.run();
        let seen = seen.borrow();
        // The phase span's own fire also finishes no wait; exactly the one
        // explicit wait is observed.
        assert_eq!(seen.len(), 1);
        let o = &seen[0];
        assert_eq!(o.coro_label, Some("server"));
        assert_eq!(o.phase, Some("wal_append"));
        assert_eq!(o.label, "wal_fsync");
        assert_eq!(o.kind, EventKind::Io);
        assert_eq!(o.waited, Duration::from_millis(3));
        drop(seen);
        rt.tracer().set_wait_probe(None);
    }

    #[test]
    fn multiple_waiters_all_wake() {
        let (sim, rt) = rt();
        let h = EventHandle::new(&rt, EventKind::Notify, "t");
        let a = sim.spawn({
            let h = h.clone();
            async move { h.wait().await }
        });
        let b = sim.spawn({
            let h = h.clone();
            async move { h.wait().await }
        });
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(Duration::from_millis(1)).await;
            h.fire(Signal::Ok);
        });
        sim.run();
        assert_eq!(a.try_take(), Some(WaitResult::Ready));
        assert_eq!(b.try_take(), Some(WaitResult::Ready));
    }
}
