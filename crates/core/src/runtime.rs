//! The DepFast runtime: coroutines on a cooperative scheduler.
//!
//! §3.3: *"A DepFast runtime instance consists of four major components:
//! coroutines, events, a scheduler, and I/O helper threads."* One
//! [`Runtime`] is created per server node; its scheduler is the
//! deterministic `simkit` executor, and "I/O helper threads" are
//! asynchronous completions with modelled latency from the same substrate.
//!
//! Multiple runtime instances share one [`Tracer`], which is
//! how cross-node waiting-for relationships are stitched together for the
//! slowness propagation graph (§3.3, "multiple DepFast runtime instances
//! will work together for the tracing").

use std::cell::Cell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};
use std::time::Duration;

use simkit::{NodeId, Sim, SimTime, Sleep};

use crate::trace::{TraceCtx, TraceRecord, Tracer};

/// Identifier of a coroutine, unique within one [`Tracer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoroId(pub u64);

struct RtInner {
    node: NodeId,
    sim: Sim,
    tracer: Tracer,
}

/// One DepFast runtime instance, scoped to a node.
///
/// Cheap to clone. Everything an event or coroutine needs — time, timers,
/// spawning, tracing, node identity — flows through here.
#[derive(Clone)]
pub struct Runtime {
    inner: Rc<RtInner>,
}

impl Runtime {
    /// Creates a runtime on the simulation substrate with a private tracer.
    pub fn new_sim(sim: Sim, node: NodeId) -> Self {
        Self::with_tracer(sim, node, Tracer::new())
    }

    /// Creates a runtime sharing `tracer` with other runtime instances
    /// (required for cluster-wide SPGs).
    pub fn with_tracer(sim: Sim, node: NodeId, tracer: Tracer) -> Self {
        Runtime {
            inner: Rc::new(RtInner { node, sim, tracer }),
        }
    }

    /// The node this runtime instance belongs to.
    pub fn node(&self) -> NodeId {
        self.inner.node
    }

    /// The shared tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.inner.tracer
    }

    /// Current (virtual) time.
    pub fn now(&self) -> SimTime {
        self.inner.sim.now()
    }

    /// Runs `f` on the scheduler thread at instant `at`.
    pub fn schedule_call(&self, at: SimTime, f: impl FnOnce() + 'static) {
        self.inner.sim.schedule_call(at, f);
    }

    /// Sleeps for virtual duration `d`, counted from the first poll.
    pub async fn sleep(&self, d: Duration) {
        self.inner.sim.sleep(d).await
    }

    /// A future that completes at instant `deadline`. Every wait with a
    /// timeout is built on one: dropped early, it cancels its timer, so a
    /// deadline that was met costs nothing afterwards.
    pub fn sleep_until(&self, deadline: SimTime) -> Sleep {
        self.inner.sim.sleep_until(deadline)
    }

    /// Draws a uniformly random `u64` from the substrate's seeded stream.
    pub fn rand_u64(&self) -> u64 {
        self.inner.sim.rand_u64()
    }

    /// Draws a random value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn rand_range(&self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "rand_range requires lo < hi");
        lo + self.rand_u64() % (hi - lo)
    }

    /// Spawns a bare task (without coroutine identity). Prefer
    /// [`Coroutine::create`] for logic code so waits are attributed.
    pub fn spawn(&self, fut: impl Future<Output = ()> + 'static) {
        self.inner.sim.spawn_detached(Box::pin(fut));
    }
}

thread_local! {
    static CURRENT_CORO: Cell<Option<(NodeId, CoroId, &'static str)>> = const { Cell::new(None) };
    static CURRENT_TRACE: Cell<Option<TraceCtx>> = const { Cell::new(None) };
    static CURRENT_PHASE: Cell<Option<&'static str>> = const { Cell::new(None) };
}

/// The coroutine currently being polled, if any (node, coroutine id).
pub(crate) fn current_coro() -> Option<(NodeId, CoroId)> {
    CURRENT_CORO.with(|c| c.get()).map(|(n, id, _)| (n, id))
}

/// The label of the coroutine currently being polled, if any.
///
/// Public so the wait-state profiler (`depfast-profile`) can attribute
/// resource and event waits to the logical task that incurred them.
pub fn current_coro_label() -> Option<&'static str> {
    CURRENT_CORO.with(|c| c.get()).map(|(_, _, l)| l)
}

/// The protocol phase the current coroutine is executing, if any.
///
/// Phases are set by [`PhaseSpan`](crate::PhaseSpan) /
/// [`PhaseGuard`](crate::PhaseGuard) and, like the causal context, are
/// per-coroutine state: they survive awaits and are restored around every
/// poll. The profiler uses this to partition a coroutine's waits by phase.
pub fn current_phase() -> Option<&'static str> {
    CURRENT_PHASE.with(|c| c.get())
}

/// Replaces the current coroutine's ambient phase, returning the previous
/// one. Used by the RAII phase annotations; prefer those over calling this
/// directly so the previous phase is always restored.
pub fn swap_current_phase(phase: Option<&'static str>) -> Option<&'static str> {
    CURRENT_PHASE.with(|c| c.replace(phase))
}

/// The causal context of the coroutine currently being polled, if any.
///
/// The context is per-coroutine state: it survives awaits, is inherited by
/// coroutines spawned while it is set, and is stamped onto every event the
/// coroutine creates (and every RPC it sends).
pub fn trace_ctx() -> Option<TraceCtx> {
    CURRENT_TRACE.with(|c| c.get())
}

/// Replaces the current coroutine's causal context.
///
/// Outside a coroutine poll this still sets the ambient context for the
/// remainder of the synchronous call, which covers events created from
/// plain callbacks; it does not persist anywhere.
pub fn set_trace_ctx(ctx: Option<TraceCtx>) {
    CURRENT_TRACE.with(|c| c.set(ctx));
}

/// The coroutine interface (§3.1): launch logic tasks with identity.
///
/// `Coroutine::create` mirrors the paper's `Coroutine::Create(...)`. The
/// label names the task in traces, SPGs and verification reports.
pub struct Coroutine;

impl Coroutine {
    /// Spawns `fut` as a labelled coroutine on `rt` and returns its id.
    ///
    /// # Examples
    ///
    /// ```
    /// use depfast::runtime::{Coroutine, Runtime};
    /// use simkit::{NodeId, Sim};
    ///
    /// let sim = Sim::new(0);
    /// let rt = Runtime::new_sim(sim.clone(), NodeId(0));
    /// Coroutine::create(&rt, "hello", async move {
    ///     // logic code, written synchronously
    /// });
    /// sim.run();
    /// ```
    pub fn create(
        rt: &Runtime,
        label: &'static str,
        fut: impl Future<Output = ()> + 'static,
    ) -> CoroId {
        // A coroutine spawned while a causal context is active belongs to
        // the same request: inherit the ambient context.
        Self::create_traced(rt, label, trace_ctx(), fut)
    }

    /// Spawns `fut` as a labelled coroutine carrying an explicit causal
    /// context (used by the RPC layer to resume the context an envelope
    /// carried across nodes). `None` severs inheritance.
    pub fn create_traced(
        rt: &Runtime,
        label: &'static str,
        trace: Option<TraceCtx>,
        fut: impl Future<Output = ()> + 'static,
    ) -> CoroId {
        let id = start(rt, label);
        spawn_as(rt, id, label, trace, fut);
        id
    }
}

/// Names a new coroutine and writes its start record.
fn start(rt: &Runtime, label: &'static str) -> CoroId {
    let id = rt.tracer().next_coro_id();
    let (t, node) = (rt.now(), rt.node());
    rt.tracer().record(|| TraceRecord::CoroutineStart {
        t,
        node,
        coro: id,
        label,
    });
    id
}

fn spawn_as(
    rt: &Runtime,
    id: CoroId,
    label: &'static str,
    trace: Option<TraceCtx>,
    fut: impl Future<Output = ()> + 'static,
) {
    rt.spawn(Scoped {
        ctx: (rt.node(), id, label),
        trace: Cell::new(trace),
        phase: Cell::new(None),
        fut,
    });
}

/// One coroutine whose work comes in bursts, each burst a task of its own:
/// plumbing that is idle most of the time (a connection's sender) holds no
/// task between bursts. The first burst names the coroutine and writes its
/// one start record; every burst runs under that id and label. A burst
/// carries no causal context, since one coroutine serves many requests.
pub struct Recurring {
    label: &'static str,
    id: Cell<Option<CoroId>>,
}

impl Recurring {
    /// A coroutine labelled `label` that has not run yet.
    pub fn new(label: &'static str) -> Self {
        Recurring {
            label,
            id: Cell::new(None),
        }
    }

    /// Spawns `fut` as the coroutine's next burst.
    pub fn spawn(&self, rt: &Runtime, fut: impl Future<Output = ()> + 'static) {
        let id = match self.id.get() {
            Some(id) => id,
            None => {
                let id = start(rt, self.label);
                self.id.set(Some(id));
                id
            }
        };
        spawn_as(rt, id, self.label, None, fut);
    }
}

/// Wrapper future that exposes coroutine identity (and carries the
/// coroutine's causal context and protocol phase) during polls.
struct Scoped<F> {
    ctx: (NodeId, CoroId, &'static str),
    trace: Cell<Option<TraceCtx>>,
    phase: Cell<Option<&'static str>>,
    fut: F,
}

impl<F: Future> Future for Scoped<F> {
    type Output = F::Output;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        // SAFETY: we never move `fut` out of the pinned wrapper; this is
        // standard structural pinning of the only non-`Unpin` field.
        let (ctx, trace, phase, fut) = unsafe {
            let this = self.get_unchecked_mut();
            (
                this.ctx,
                &this.trace,
                &this.phase,
                Pin::new_unchecked(&mut this.fut),
            )
        };
        let prev = CURRENT_CORO.with(|c| c.replace(Some(ctx)));
        let prev_trace = CURRENT_TRACE.with(|c| c.replace(trace.get()));
        let prev_phase = CURRENT_PHASE.with(|c| c.replace(phase.get()));
        let out = fut.poll(cx);
        // Read the ambient slots back so a mid-poll `set_trace_ctx` or
        // phase change sticks to this coroutine across awaits.
        trace.set(CURRENT_TRACE.with(|c| c.replace(prev_trace)));
        phase.set(CURRENT_PHASE.with(|c| c.replace(prev_phase)));
        CURRENT_CORO.with(|c| c.set(prev));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn coroutine_identity_visible_during_poll() {
        let sim = Sim::new(1);
        let rt = Runtime::new_sim(sim.clone(), NodeId(3));
        let seen = Rc::new(RefCell::new(None));
        let seen2 = seen.clone();
        let id = Coroutine::create(&rt, "probe", async move {
            *seen2.borrow_mut() = current_coro();
        });
        sim.run();
        assert_eq!(*seen.borrow(), Some((NodeId(3), id)));
        // Outside any poll there is no current coroutine.
        assert_eq!(current_coro(), None);
    }

    #[test]
    fn nested_spawn_restores_outer_identity() {
        let sim = Sim::new(1);
        let rt = Runtime::new_sim(sim.clone(), NodeId(0));
        let log = Rc::new(RefCell::new(Vec::new()));
        let l = log.clone();
        let rt2 = rt.clone();
        Coroutine::create(&rt, "outer", async move {
            l.borrow_mut().push(current_coro().unwrap().1);
            let l2 = l.clone();
            Coroutine::create(&rt2, "inner", async move {
                l2.borrow_mut().push(current_coro().unwrap().1);
            });
            rt2.sleep(Duration::from_millis(1)).await;
            l.borrow_mut().push(current_coro().unwrap().1);
        });
        sim.run();
        let log = log.borrow();
        assert_eq!(log.len(), 3);
        assert_eq!(log[0], log[2]);
        assert_ne!(log[0], log[1]);
    }

    #[test]
    fn a_recurring_coroutine_runs_every_burst_under_one_identity() {
        use crate::trace::SpanId;
        let sim = Sim::new(1);
        let rt = Runtime::new_sim(sim.clone(), NodeId(2));
        rt.tracer().set_record_full(true);
        let bursts = Recurring::new("bursty");
        let seen = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..3 {
            let s = seen.clone();
            // A burst spawned under a request's context does not take it.
            set_trace_ctx(Some(TraceCtx {
                trace_id: 9,
                parent_span: SpanId::NONE,
            }));
            bursts.spawn(&rt, async move {
                let who = CURRENT_CORO.with(|c| c.get());
                s.borrow_mut().push((who, trace_ctx()));
            });
            set_trace_ctx(None);
            sim.run();
        }
        let seen = seen.borrow();
        assert_eq!(seen.len(), 3);
        let (who, ctx) = seen[0];
        assert!(seen.iter().all(|s| *s == (who, None)), "{seen:?}");
        assert_eq!(ctx, None);
        assert!(matches!(who, Some((NodeId(2), _, "bursty"))));
        let starts = rt.tracer().take_records();
        assert!(matches!(
            starts[..],
            [TraceRecord::CoroutineStart {
                label: "bursty",
                ..
            }]
        ));
    }

    #[test]
    fn runtime_sleep_uses_virtual_time() {
        let sim = Sim::new(1);
        let rt = Runtime::new_sim(sim.clone(), NodeId(0));
        let rt2 = rt.clone();
        sim.block_on(async move {
            rt2.sleep(Duration::from_millis(250)).await;
        });
        assert_eq!(sim.now(), SimTime::from_millis(250));
    }

    #[test]
    fn rand_range_within_bounds() {
        let sim = Sim::new(7);
        let rt = Runtime::new_sim(sim, NodeId(0));
        for _ in 0..100 {
            let v = rt.rand_range(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn trace_ctx_sticks_to_coroutine_and_is_inherited() {
        use crate::trace::SpanId;
        let sim = Sim::new(1);
        let rt = Runtime::new_sim(sim.clone(), NodeId(0));
        let seen = Rc::new(RefCell::new(Vec::new()));
        let s = seen.clone();
        let rt2 = rt.clone();
        let ctx = TraceCtx {
            trace_id: 7,
            parent_span: SpanId::NONE,
        };
        Coroutine::create(&rt, "outer", async move {
            assert_eq!(trace_ctx(), None);
            set_trace_ctx(Some(ctx));
            // Spawned while the ctx is set: the child inherits it.
            let s2 = s.clone();
            Coroutine::create(&rt2, "inner", async move {
                s2.borrow_mut().push(("inner", trace_ctx()));
            });
            // The ctx survives this coroutine's own awaits.
            rt2.sleep(Duration::from_millis(1)).await;
            s.borrow_mut().push(("outer", trace_ctx()));
        });
        sim.run();
        assert_eq!(
            *seen.borrow(),
            vec![("inner", Some(ctx)), ("outer", Some(ctx))]
        );
        // The ambient slot is clean outside any poll.
        assert_eq!(trace_ctx(), None);
    }

    #[test]
    fn create_traced_sets_and_severs_context() {
        use crate::trace::SpanId;
        let sim = Sim::new(1);
        let rt = Runtime::new_sim(sim.clone(), NodeId(0));
        let seen = Rc::new(RefCell::new(Vec::new()));
        let ctx = TraceCtx {
            trace_id: 3,
            parent_span: SpanId::event(crate::event::EventId(99)),
        };
        let s1 = seen.clone();
        Coroutine::create_traced(&rt, "with", Some(ctx), async move {
            s1.borrow_mut().push(trace_ctx());
        });
        let s2 = seen.clone();
        Coroutine::create_traced(&rt, "without", None, async move {
            s2.borrow_mut().push(trace_ctx());
        });
        sim.run();
        assert_eq!(*seen.borrow(), vec![Some(ctx), None]);
    }

    #[test]
    fn shared_tracer_spans_runtimes() {
        let sim = Sim::new(1);
        let tracer = Tracer::new();
        tracer.set_record_full(true);
        let a = Runtime::with_tracer(sim.clone(), NodeId(0), tracer.clone());
        let b = Runtime::with_tracer(sim.clone(), NodeId(1), tracer.clone());
        Coroutine::create(&a, "on-a", async {});
        Coroutine::create(&b, "on-b", async {});
        sim.run();
        let recs = tracer.take_records();
        let nodes: Vec<NodeId> = recs
            .iter()
            .filter_map(|r| match r {
                TraceRecord::CoroutineStart { node, .. } => Some(*node),
                _ => None,
            })
            .collect();
        assert_eq!(nodes, vec![NodeId(0), NodeId(1)]);
    }
}
