//! Event trace points: the raw material for runtime verification.
//!
//! §3.3: *"Having events as trace points, DepFast supports runtime
//! verification and trace analysis for fail-slow fault tolerance."* Every
//! coroutine launch, event creation, child add and fire can be recorded,
//! with the request roots and proposal→round links drivers add: exactly
//! what [`TraceIndex`], the queryable form the offline analyses share,
//! reads. RPC completions additionally feed the per-callee `rpc.latency`
//! / `rpc.errors` registry series that the fail-slow detector
//! (`depfast-detect`) reads from registry snapshots.
//!
//! Full recording is opt-in ([`Tracer::set_record_full`]) because a
//! saturated benchmark produces millions of records; the registry series
//! are cheap and always on. A record can also be folded as it is made,
//! without being kept: the blame fold ([`Tracer::install_blame_fold`])
//! sees every one, whether or not full recording buffers it. A wait is not
//! a record: two synchronous taps see it instead, the SPG fold as it begins
//! ([`Tracer::install_spg_fold`]) and the wait probe as it ends
//! ([`Tracer::set_wait_probe`]); a quorum's resolution lands in the
//! `event.quorum.*` series.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use depfast_metrics::{Counter, Key, MetricsRegistry};
use simkit::{NodeId, SimTime};

use crate::blame::{BlameReport, Fold};
use crate::event::{EventId, EventKind, Signal};
use crate::runtime::CoroId;
use crate::spg::{Shape, Spg};

mod index;

pub use index::{CoroInfo, EventInfo, TraceIndex};

/// Identifier of a span in a request's causal tree.
///
/// Spans are not a third id space: every span *is* an event, so a
/// `SpanId` is an [`EventId`] plus one, above a low bit that is always clear.
/// `SpanId(0)` is reserved as "no span" for the wire encoding (the first
/// event id maps to span 2, so 0 is never produced).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The "no span" sentinel used on the wire (`0`).
    pub const NONE: SpanId = SpanId(0);

    /// The span identifying event `e`.
    pub fn event(e: EventId) -> SpanId {
        SpanId((e.0 + 1) << 1)
    }
}

/// Causal context of one client operation, propagated from the KV client
/// through RPC envelopes into the Raft drivers (§3.3's trace analysis,
/// taken from per-event records to per-*request* trees).
///
/// The context travels ambiently: every coroutine carries at most one, the
/// runtime restores it around polls, and [`crate::trace_ctx`] /
/// [`crate::set_trace_ctx`] read and replace the current coroutine's
/// context. RPC envelopes carry it across nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceCtx {
    /// The client operation this work belongs to.
    pub trace_id: u64,
    /// The span that caused the current work (an RPC event, ...).
    /// [`SpanId::NONE`] at the root.
    pub parent_span: SpanId,
}

/// One trace record. Records are self-contained: analysis never needs the
/// live event objects.
#[derive(Debug, Clone)]
pub enum TraceRecord {
    /// A new request trace was started (at the KV client, typically).
    TraceBegin {
        /// Virtual time.
        t: SimTime,
        /// Node the request originates from.
        node: NodeId,
        /// The allocated trace id.
        trace_id: u64,
        /// What the request is (e.g. `"kv_request"`).
        label: &'static str,
    },
    /// A coroutine was launched.
    CoroutineStart {
        /// Virtual time.
        t: SimTime,
        /// Node the coroutine runs on.
        node: NodeId,
        /// Coroutine id.
        coro: CoroId,
        /// Label given to [`Coroutine::create`](crate::Coroutine::create).
        label: &'static str,
    },
    /// An event was created.
    EventCreated {
        /// Virtual time.
        t: SimTime,
        /// Owning node.
        node: NodeId,
        /// Creating coroutine, if created inside one.
        coro: Option<CoroId>,
        /// Event id.
        event: EventId,
        /// Structural kind.
        kind: EventKind,
        /// Waiting-point label.
        label: &'static str,
        /// Causal context active at creation, if any.
        ctx: Option<TraceCtx>,
    },
    /// Links a proposal's completion event to the replication round
    /// (quorum event) that carries it — the hop critical-path analysis
    /// walks from a committed command to the round's deciding child — and,
    /// likewise, a ReadIndex get's wait to the confirmation round that
    /// ended it.
    RoundLink {
        /// Virtual time.
        t: SimTime,
        /// The proposal's completion event, or the get's wait.
        proposal: EventId,
        /// The round's quorum event.
        round: EventId,
    },
    /// An event fired.
    EventFired {
        /// Virtual time.
        t: SimTime,
        /// Event id.
        event: EventId,
        /// Outcome.
        signal: Signal,
        /// A compound event's deciding child: the last child to fire
        /// before the verdict (an `Ok` quorum's k-th arrival, the child
        /// blame charges a round to). `None` for a simple event and for a
        /// compound one no child fired before (an empty `All` sealed).
        by: Option<EventId>,
    },
}

/// Default cap on full-record collection (~a few hundred MB worst case);
/// see [`Tracer::set_record_capacity`].
pub const DEFAULT_RECORD_CAPACITY: usize = 4_000_000;

/// One finished event wait, delivered synchronously to an installed
/// [wait probe](Tracer::set_wait_probe).
///
/// This is the profiler's feed: unlike full trace records it is not
/// buffered, carries the ambient coroutine/phase attribution already
/// resolved, and costs one `Option` check when no probe is installed.
#[derive(Debug, Clone, Copy)]
pub struct WaitObservation {
    /// Node the waiting coroutine runs on.
    pub node: NodeId,
    /// Label of the waiting coroutine (`None` outside any coroutine).
    pub coro_label: Option<&'static str>,
    /// Protocol phase active at the wait, if any.
    pub phase: Option<&'static str>,
    /// Structural kind of the awaited event.
    pub kind: EventKind,
    /// Label of the awaited event.
    pub label: &'static str,
    /// How long the wait blocked (virtual time).
    pub waited: Duration,
}

/// Callback receiving every finished wait while installed.
pub type WaitProbe = Rc<dyn Fn(&WaitObservation)>;

/// One structured health-state transition reported by a reacting layer
/// (the fail-slow detector, a driver's quarantine machinery, the leader
/// mitigation, ...). Unlike full trace records these are always on: they
/// are rare by construction — a healthy run records none — and they are
/// the raw material of the incident timeline (`depfast-incident`), which
/// joins them against the fault ledger's ground truth. The fields are in
/// the incident timeline's canonical order, so the derived order sorts a
/// timeline by time, then subject, layer, transition, evidence and group.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct HealthEvent {
    /// Virtual time of the transition.
    pub t: SimTime,
    /// The *subject* node — the one suspected / quarantined / demoted —
    /// not the observer that recorded the transition.
    pub node: NodeId,
    /// Reacting layer: `"detector"`, `"raft"`, `"mitigation"`, `"storm"`.
    pub layer: &'static str,
    /// State transition, e.g. `"suspect"`, `"quarantine"`, `"probe"`,
    /// `"resume"`, `"clear"`, `"demote"`.
    pub transition: &'static str,
    /// Free-form supporting evidence (deterministically formatted).
    pub evidence: String,
    /// Raft group the transition belongs to, when the reacting layer is
    /// group-scoped (multi-group clusters tag raft-layer events with
    /// their group id). `None` for node-level layers — the detector
    /// watches a node's RPC latencies regardless of which co-located
    /// group produced them — and for legacy single-group runs.
    pub group: Option<u32>,
}

/// What a reacting layer's law decided — the transition and why — before
/// its shell adds when, about whom and on whose behalf
/// ([`Tracer::record_health`]). The pure laws (`raft::feed::Feed`, the
/// detector's and the storm monitor's) return this; only shells record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Health {
    /// State transition ([`HealthEvent::transition`]).
    pub transition: &'static str,
    /// Supporting evidence ([`HealthEvent::evidence`]).
    pub evidence: String,
}

impl Health {
    /// `transition`, because of `evidence`.
    pub fn new(transition: &'static str, evidence: String) -> Self {
        Health {
            transition,
            evidence,
        }
    }
}

/// Cap on buffered health events; a run that floods past it is itself an
/// incident (counted in the global `trace.health_dropped` metric, which
/// incident and survival reports surface as a warning when non-zero).
pub const HEALTH_EVENT_CAPACITY: usize = 65_536;

struct TraceInner {
    record_full: bool,
    records: Vec<TraceRecord>,
    capacity: usize,
    dropped: Counter,
    health: Vec<HealthEvent>,
    health_dropped: Counter,
    next_event: u64,
    next_coro: u64,
    next_trace: u64,
    metrics: MetricsRegistry,
    wait_probe: Option<WaitProbe>,
    spg: Option<Spg>,
    blame: Option<Fold>,
}

impl TraceInner {
    /// What [`Tracer::recording`] answers.
    fn recording(&self) -> bool {
        self.record_full || self.blame.is_some()
    }
}

/// The cluster-shared trace sink and id allocator. Cheap to clone.
#[derive(Clone)]
pub struct Tracer {
    inner: Rc<RefCell<TraceInner>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// Creates a tracer with full recording disabled and a private metric
    /// registry (suitable for unit tests; clusters built on a simulated
    /// world use [`Tracer::with_metrics`] instead).
    pub fn new() -> Self {
        Self::with_metrics(MetricsRegistry::new())
    }

    /// Creates a tracer that records into `metrics` — typically the
    /// registry of the underlying `simkit` world, so RPC-, event- and
    /// driver-level series land next to the substrate's `sim.*` series.
    pub fn with_metrics(metrics: MetricsRegistry) -> Self {
        Tracer {
            inner: Rc::new(RefCell::new(TraceInner {
                record_full: false,
                records: Vec::new(),
                capacity: DEFAULT_RECORD_CAPACITY,
                dropped: metrics.counter(Key::global("trace.dropped")),
                health: Vec::new(),
                health_dropped: metrics.counter(Key::global("trace.health_dropped")),
                next_event: 0,
                next_coro: 0,
                // Trace id 0 is the wire's "untraced" sentinel.
                next_trace: 1,
                metrics,
                wait_probe: None,
                spg: None,
                blame: None,
            })),
        }
    }

    /// The metric registry this tracer records into.
    pub fn metrics(&self) -> MetricsRegistry {
        self.inner.borrow().metrics.clone()
    }

    /// Enables or disables full record collection.
    pub fn set_record_full(&self, on: bool) {
        self.inner.borrow_mut().record_full = on;
    }

    /// `true` if [`Tracer::record`] makes the records it is given: full
    /// recording is on or the blame fold is installed. A record site that
    /// must gather its records' inputs first asks this.
    pub fn recording(&self) -> bool {
        self.inner.borrow().recording()
    }

    /// Allocates a cluster-unique event id.
    pub fn next_event_id(&self) -> EventId {
        let mut inner = self.inner.borrow_mut();
        let id = inner.next_event;
        inner.next_event += 1;
        EventId(id)
    }

    /// Allocates a cluster-unique coroutine id.
    pub fn next_coro_id(&self) -> CoroId {
        let mut inner = self.inner.borrow_mut();
        let id = inner.next_coro;
        inner.next_coro += 1;
        CoroId(id)
    }

    /// Allocates a cluster-unique trace (client-operation) id. Ids start
    /// at 1; `0` is reserved as "untraced" in wire encodings.
    pub fn next_trace_id(&self) -> u64 {
        let mut inner = self.inner.borrow_mut();
        let id = inner.next_trace;
        inner.next_trace += 1;
        id
    }

    /// Caps full-record collection at `cap` records. Once the buffer is
    /// full, further records are counted in the global `trace.dropped`
    /// metric and discarded, so a traced run (`--trace`) cannot exhaust
    /// memory however long it is. Default: [`DEFAULT_RECORD_CAPACITY`].
    pub fn set_record_capacity(&self, cap: usize) {
        self.inner.borrow_mut().capacity = cap;
    }

    /// Makes `make()` if [`Tracer::recording`], feeds it to the fold, and
    /// keeps it under full recording (past the capacity, counts it as
    /// dropped). The closure keeps the disabled path allocation-free.
    pub fn record(&self, make: impl FnOnce() -> TraceRecord) {
        let mut inner = self.inner.borrow_mut();
        if !inner.recording() {
            return;
        }
        let keep = inner.record_full && inner.records.len() < inner.capacity;
        if inner.record_full && !keep {
            inner.dropped.inc();
            if inner.blame.is_none() {
                return;
            }
        }
        let rec = make();
        if let Some(fold) = &mut inner.blame {
            fold.feed(&rec);
        }
        if keep {
            inner.records.push(rec);
        }
    }

    /// Installs (or, with `None`, removes) the wait probe: a callback
    /// invoked synchronously for every finished event wait on runtimes
    /// sharing this tracer. At most one probe is installed at a time; the
    /// profiler owns it for the duration of a profiled run.
    pub fn set_wait_probe(&self, probe: Option<WaitProbe>) {
        self.inner.borrow_mut().wait_probe = probe;
    }

    /// Delivers a finished wait to the installed probe, if any. The closure
    /// keeps the disabled path free of attribution lookups.
    pub fn probe_wait(&self, make: impl FnOnce() -> WaitObservation) {
        // Clone the probe out so the callback runs without holding the
        // tracer borrow (it may legitimately read tracer state).
        let probe = self.inner.borrow().wait_probe.clone();
        if let Some(p) = probe {
            p(&make());
        }
    }

    /// Starts folding every wait that begins on runtimes sharing this
    /// tracer into a fresh slowness propagation graph, until
    /// [`Tracer::finish_spg_fold`]. Independent of the wait probe: the
    /// profiler and the fold can run together.
    pub fn install_spg_fold(&self) {
        self.inner.borrow_mut().spg = Some(Spg::default());
    }

    /// Stops the fold and yields the graph it built (empty if none was
    /// installed).
    pub fn finish_spg_fold(&self) -> Spg {
        self.inner.borrow_mut().spg.take().unwrap_or_default()
    }

    /// Starts folding every record made on runtimes sharing this tracer
    /// into critical-path blame ([`crate::blame`]), whether or not full
    /// recording keeps it, until [`Tracer::finish_blame_fold`]. Beside the
    /// SPG fold: a run needs no stored stream to know its blame.
    pub fn install_blame_fold(&self) {
        self.inner.borrow_mut().blame = Some(Fold::default());
    }

    /// Stops the blame fold and yields its report (empty if none was
    /// installed).
    pub fn finish_blame_fold(&self) -> BlameReport {
        let fold = self.inner.borrow_mut().blame.take();
        fold.map(Fold::finish).unwrap_or_default()
    }

    /// Folds one beginning wait — `(waiter, coroutine label, what it waits
    /// for)` — into the installed SPG, if any. The closure keeps the
    /// disabled path free of the walk over the live events.
    pub(crate) fn fold_wait(&self, make: impl FnOnce() -> (NodeId, &'static str, Shape)) {
        if let Some(spg) = &mut self.inner.borrow_mut().spg {
            let (waiter, coro_label, shape) = make();
            spg.fold(waiter, coro_label, &shape);
        }
    }

    /// Feeds one RPC completion into the shared registry, scoped to the
    /// *callee*: an `rpc.latency` series that inflates names the slow
    /// peer, which is exactly the attribution the fail-slow detector
    /// needs.
    pub fn sample_rpc(
        &self,
        callee: NodeId,
        label: &'static str,
        latency: Duration,
        signal: Signal,
    ) {
        let metrics = self.metrics();
        metrics
            .histogram(Key::tagged("rpc.latency", callee.0, label))
            .record(latency);
        if signal == Signal::Err {
            metrics
                .counter(Key::tagged("rpc.errors", callee.0, label))
                .inc();
        }
    }

    /// Moves the full-record buffer out, leaving it empty. The capacity
    /// budget resets with it: subsequent records fill a fresh buffer.
    pub fn take_records(&self) -> Vec<TraceRecord> {
        std::mem::take(&mut self.inner.borrow_mut().records)
    }

    /// Records one health-state transition — the one way to say one: at
    /// `t`, `layer` decided `health` about the subject `node`, on behalf
    /// of `group` (see [`HealthEvent`] for each part). Always on (no
    /// gating flag): reacting layers call this only when something is
    /// actually wrong, so a healthy run's buffer stays empty — which the
    /// incident layer's false-positive tests rely on.
    pub fn record_health(
        &self,
        t: SimTime,
        node: NodeId,
        layer: &'static str,
        health: Health,
        group: Option<u32>,
    ) {
        let mut inner = self.inner.borrow_mut();
        if inner.health.len() < HEALTH_EVENT_CAPACITY {
            inner.health.push(HealthEvent {
                t,
                node,
                layer,
                transition: health.transition,
                evidence: health.evidence,
                group,
            });
        } else {
            inner.health_dropped.inc();
        }
    }

    /// Number of health events dropped on the capacity cap
    /// (`trace.health_dropped`). Non-zero means the health timeline is
    /// incomplete — reports must say so rather than present a truncated
    /// timeline as the whole story.
    pub fn health_dropped(&self) -> u64 {
        self.inner.borrow().health_dropped.get()
    }

    /// Moves the health-event buffer out, leaving it empty.
    pub fn take_health_events(&self) -> Vec<HealthEvent> {
        std::mem::take(&mut self.inner.borrow_mut().health)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_sequential() {
        let t = Tracer::new();
        assert_eq!(t.next_event_id(), EventId(0));
        assert_eq!(t.next_event_id(), EventId(1));
        assert_eq!(t.next_coro_id(), CoroId(0));
        assert_eq!(t.next_coro_id(), CoroId(1));
    }

    #[test]
    fn recording_is_gated() {
        let t = Tracer::new();
        t.record(|| panic!("must not be built when disabled"));
        assert_eq!(t.take_records().len(), 0);
        t.set_record_full(true);
        t.record(|| TraceRecord::EventFired {
            t: SimTime::ZERO,
            event: EventId(0),
            signal: Signal::Ok,
            by: None,
        });
        assert_eq!(t.take_records().len(), 1);
    }

    #[test]
    fn the_blame_fold_alone_is_recording() {
        let t = Tracer::new();
        assert!(!t.recording());
        t.install_blame_fold();
        assert!(t.recording());
        t.finish_blame_fold();
        assert!(!t.recording());
        t.set_record_full(true);
        assert!(t.recording());
    }

    #[test]
    fn the_blame_fold_sees_records_full_recording_does_not_keep() {
        let t = Tracer::new();
        t.install_blame_fold();
        t.record(|| TraceRecord::EventCreated {
            t: SimTime::ZERO,
            node: NodeId(0),
            coro: None,
            event: EventId(0),
            kind: EventKind::Notify,
            label: "proposal",
            ctx: None,
        });
        t.set_record_full(true);
        t.set_record_capacity(0);
        t.record(|| TraceRecord::EventFired {
            t: SimTime::from_nanos(7),
            event: EventId(0),
            signal: Signal::Ok,
            by: None,
        });
        assert!(t.take_records().is_empty());
        let report = t.finish_blame_fold();
        assert_eq!((report.commits, report.total), (1, Duration::from_nanos(7)));
        // Finished: the disabled path is back.
        t.set_record_full(false);
        t.record(|| panic!("must not be built when nothing reads it"));
        assert_eq!(t.finish_blame_fold().commits, 0);
    }

    #[test]
    fn span_ids_are_disjoint() {
        let e = SpanId::event(EventId(0));
        assert_ne!(e, SpanId::NONE);
        assert_ne!(SpanId::event(EventId(1)), e);
    }

    #[test]
    fn record_capacity_caps_and_counts_drops() {
        let r = MetricsRegistry::new();
        let t = Tracer::with_metrics(r.clone());
        t.set_record_full(true);
        t.set_record_capacity(3);
        for i in 0..5 {
            t.record(|| TraceRecord::EventFired {
                t: SimTime::ZERO,
                event: EventId(i),
                signal: Signal::Ok,
                by: None,
            });
        }
        let taken = t.take_records();
        assert_eq!(taken.len(), 3);
        assert_eq!(r.counter(Key::global("trace.dropped")).get(), 2);
        // Taking the buffer frees the budget again.
        assert_eq!(t.take_records().len(), 0);
        t.record(|| TraceRecord::EventFired {
            t: SimTime::ZERO,
            event: EventId(9),
            signal: Signal::Ok,
            by: None,
        });
        assert_eq!(t.take_records().len(), 1);
        assert_eq!(r.counter(Key::global("trace.dropped")).get(), 2);
    }

    #[test]
    fn health_events_are_always_on_and_capped() {
        let r = MetricsRegistry::new();
        let t = Tracer::with_metrics(r.clone());
        assert!(t.take_health_events().is_empty());
        let health = Health::new("suspect", "mean 40ms vs baseline 1ms".into());
        t.record_health(SimTime::from_nanos(5), NodeId(2), "detector", health, None);
        // Recording is not gated on full recording.
        assert!(!t.recording());
        let taken = t.take_health_events();
        assert_eq!(taken.len(), 1);
        assert_eq!(taken[0].node, NodeId(2));
        assert!(t.take_health_events().is_empty());
        assert_eq!(r.counter(Key::global("trace.health_dropped")).get(), 0);
    }

    #[test]
    fn take_records_moves_the_buffer() {
        let t = Tracer::new();
        t.set_record_full(true);
        t.record(|| TraceRecord::EventFired {
            t: SimTime::ZERO,
            event: EventId(0),
            signal: Signal::Ok,
            by: None,
        });
        assert_eq!(t.take_records().len(), 1);
        assert!(t.take_records().is_empty());
    }

    #[test]
    fn rpc_samples_mirror_into_the_metric_registry() {
        let r = MetricsRegistry::new();
        let t = Tracer::with_metrics(r.clone());
        t.sample_rpc(NodeId(2), "append", Duration::from_millis(7), Signal::Ok);
        t.sample_rpc(NodeId(2), "append", Duration::from_millis(9), Signal::Err);
        // Scoped to the callee (node 2), tagged with the RPC label.
        let h = r.histogram(Key::tagged("rpc.latency", 2, "append"));
        assert_eq!(h.snapshot().count, 2);
        assert_eq!(h.snapshot().max_ns, 9_000_000);
        assert_eq!(r.counter(Key::tagged("rpc.errors", 2, "append")).get(), 1);
    }
}
