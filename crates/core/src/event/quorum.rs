//! `QuorumEvent`: the key building block for fail-slow fault tolerance.
//!
//! §3.1: *"an QuorumEvent waits for a quorum or a collection of events
//! (e.g., any majority). It allows the coroutine to tolerate fail-slow
//! faults in any minority. [...] The principle of using the DepFast
//! framework to write the logic code of a system is waiting on QuorumEvent
//! as much as possible and avoid waiting on other types of singular-point
//! events."*

use std::cell::RefCell;
use std::rc::Rc;

use depfast_metrics::Key;

use super::core::{EventHandle, EventId, EventKind, Signal, Watchable};
use crate::runtime::Runtime;
use crate::spg::Shape;

/// How the threshold of a [`QuorumEvent`] is determined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuorumMode {
    /// `⌊n/2⌋ + 1` of the children added so far (the paper's
    /// `FLAG_MAJORITY`).
    Majority,
    /// A fixed count of `Ok` children ([`OrEvent`](super::OrEvent) is
    /// `Count(1)`).
    Count(usize),
    /// All children ([`AndEvent`](super::AndEvent) is this mode).
    All,
}

/// The one k-of-n counter behind [`QuorumEvent`] and its
/// [`AndEvent`](super::AndEvent) / [`OrEvent`](super::OrEvent) faces.
pub(super) struct Tally {
    mode: QuorumMode,
    ok: usize,
    err: usize,
    sealed: bool,
    /// Each child, in add order.
    children: Vec<Child>,
    /// The last child to fire: at the verdict, the child that decided it
    /// (an `Ok` quorum's k-th arrival), which the fire record names.
    pub(super) by: Option<EventId>,
}

/// What a tally keeps of one child. Not its handle: a child's hook holds
/// the quorum, so a child that never fires would keep both alive for good.
struct Child {
    kind: EventKind,
    label: &'static str,
    /// Whether it has fired, for straggler attribution: when the quorum
    /// fires `Ok`, the children that have *not* fired name the replicas the
    /// round did not wait for.
    fired: bool,
    /// A compound child's own tally, which the SPG fold walks.
    tally: Option<Rc<RefCell<Tally>>>,
}

/// The SPG shape of an event of `kind` and `label`, whose tally, if it is
/// compound, is `tally`.
pub(super) fn shape(
    kind: EventKind,
    label: &'static str,
    tally: Option<&Rc<RefCell<Tally>>>,
) -> Shape {
    let (k, children) = tally.map_or((0, Vec::new()), |t| {
        let t = t.borrow();
        let children = t.children.iter();
        let children = children.map(|c| shape(c.kind, c.label, c.tally.as_ref()));
        (t.threshold(), children.collect())
    });
    Shape {
        kind,
        label,
        k,
        children,
    }
}

impl Tally {
    fn threshold(&self) -> usize {
        match self.mode {
            QuorumMode::Majority => self.children.len() / 2 + 1,
            QuorumMode::Count(k) => k,
            QuorumMode::All => self.children.len(),
        }
    }

    /// What the counts decide, if anything yet: `Ok` at `k` successes,
    /// `Err` once so many children failed that `k` successes cannot
    /// happen. A verdict that a child added later could overturn waits for
    /// the child set to be sealed — "all of n" cannot be met before then,
    /// a fixed or majority threshold cannot be missed before then — while
    /// "all of n" is lost at the first failure whatever is added after it.
    fn verdict(&self) -> Option<Signal> {
        let k = self.threshold();
        let all = self.mode == QuorumMode::All;
        if self.ok >= k && (self.sealed || !all) {
            Some(Signal::Ok)
        } else if self.children.len() - self.err < k && (self.sealed || all) {
            Some(Signal::Err)
        } else {
            None
        }
    }
}

/// A compound event that becomes ready when *k of n* children fire `Ok`.
///
/// It fires `Err` ("unreachable") as soon as so many children have failed
/// that `k` successes can no longer happen — the precise
/// "minority-plus-one-reject" condition §3.2 says traditional code
/// approximates badly. Unreachability is only decidable once the child
/// set is complete, which [`QuorumEvent::seal`] declares; waiting through
/// [`QuorumEvent::wait`] / [`QuorumEvent::wait_timeout`] seals implicitly.
/// For the same reason [`QuorumMode::All`] never fires `Ok` before it is
/// sealed.
///
/// Add all children before the first child can fire (adds are synchronous,
/// completions arrive via the scheduler, so ordinary straight-line code
/// satisfies this automatically); with [`QuorumMode::Majority`] the
/// threshold is evaluated against the current child count.
///
/// **Pitfall:** adding an *already-fired* child first under
/// [`QuorumMode::Majority`] resolves the quorum immediately (majority of
/// one). When seeding a quorum with a pre-fired local event (a self vote,
/// a completed disk write), use [`QuorumMode::Count`] with the final
/// threshold instead — see `depfast-raft`'s leadership-confirmation round
/// for the bug this doc comment is written in memory of.
///
/// # Examples
///
/// ```
/// use depfast::event::{Notify, QuorumEvent, Signal};
/// use depfast::runtime::Runtime;
/// use simkit::{NodeId, Sim};
///
/// let sim = Sim::new(0);
/// let rt = Runtime::new_sim(sim.clone(), NodeId(0));
/// let q = QuorumEvent::majority(&rt);
/// let replies: Vec<Notify> = (0..5).map(|_| Notify::new(&rt)).collect();
/// for r in &replies {
///     q.add(r);
/// }
/// replies[0].set(Signal::Ok);
/// replies[3].set(Signal::Ok);
/// assert!(!q.ready());
/// replies[4].set(Signal::Ok); // 3 of 5: majority reached
/// assert!(q.ready());
/// ```
#[derive(Clone)]
pub struct QuorumEvent {
    handle: EventHandle,
    state: Rc<RefCell<Tally>>,
}

impl QuorumEvent {
    /// Creates a quorum event with the given mode and label.
    pub fn labeled(rt: &Runtime, mode: QuorumMode, label: &'static str) -> Self {
        Self::with_kind(rt, EventKind::Quorum, mode, label)
    }

    /// The tally under another structural kind: how the And/Or faces keep
    /// their own trace identity.
    pub(super) fn with_kind(
        rt: &Runtime,
        kind: EventKind,
        mode: QuorumMode,
        label: &'static str,
    ) -> Self {
        let state = Rc::new(RefCell::new(Tally {
            mode,
            ok: 0,
            err: 0,
            sealed: false,
            children: Vec::new(),
            by: None,
        }));
        QuorumEvent {
            handle: EventHandle::compound(rt, kind, label, state.clone()),
            state,
        }
    }

    /// Creates a majority quorum event (`FLAG_MAJORITY`).
    pub fn majority(rt: &Runtime) -> Self {
        Self::labeled(rt, QuorumMode::Majority, "quorum")
    }

    /// Creates a fixed-threshold quorum event.
    pub fn count(rt: &Runtime, k: usize) -> Self {
        Self::labeled(rt, QuorumMode::Count(k), "quorum")
    }

    /// Adds a child event; its outcome counts toward the quorum.
    pub fn add(&self, child: &impl Watchable) {
        let child_handle = child.handle();
        let index = {
            let mut st = self.state.borrow_mut();
            st.children.push(Child {
                kind: child_handle.kind(),
                label: child_handle.label(),
                fired: false,
                tally: child_handle.tally(),
            });
            st.children.len() - 1
        };
        let (me, id) = (self.clone(), child_handle.id());
        child_handle.on_fire(move |s| me.on_child(index, id, s));
        self.maybe_fire();
    }

    fn on_child(&self, index: usize, id: EventId, signal: Signal) {
        {
            let mut st = self.state.borrow_mut();
            st.children[index].fired = true;
            st.by = Some(id);
            match signal {
                Signal::Ok => st.ok += 1,
                Signal::Err => st.err += 1,
            }
        }
        self.maybe_fire();
    }

    fn maybe_fire(&self) {
        let verdict = self.state.borrow().verdict();
        if let Some(s) = verdict {
            let first = self.handle.fired().is_none();
            self.handle.fire(s);
            if first && s == Signal::Ok {
                self.record_quorum_metrics();
            }
        }
    }

    /// Records how long the quorum took and which replicas it did *not*
    /// wait for — the straggler attribution the paper's §3.3 trace
    /// analysis calls for. Runs exactly once, at the `Ok` fire.
    fn record_quorum_metrics(&self) {
        let rt = self.handle.runtime();
        let metrics = rt.tracer().metrics();
        let label = self.handle.label();
        let waited = rt.now() - self.handle.created_at();
        metrics
            .histogram(Key::tagged(
                "event.quorum.wait",
                self.handle.node().0,
                label,
            ))
            .record(waited);
        for c in &self.state.borrow().children {
            if let (EventKind::Rpc { target }, false) = (c.kind, c.fired) {
                metrics
                    .counter(Key::tagged("event.quorum.straggler", target.0, label))
                    .inc();
            }
        }
    }

    /// Declares the child set complete, enabling every verdict that
    /// depends on it: "quorum unreachable" (`Err`), and `Ok` under
    /// [`QuorumMode::All`]. Waiting via [`QuorumEvent::wait`] seals
    /// implicitly.
    pub fn seal(&self) {
        self.state.borrow_mut().sealed = true;
        self.maybe_fire();
    }

    /// Seals the child set and waits for the quorum outcome.
    pub fn wait(&self) -> super::core::Wait {
        self.seal();
        self.handle.wait()
    }

    /// Seals the child set and waits with a deadline.
    pub fn wait_timeout(&self, d: std::time::Duration) -> super::core::Wait {
        self.seal();
        self.handle.wait_timeout(d)
    }

    /// `true` once the quorum has been reached.
    pub fn ready(&self) -> bool {
        self.handle.ready()
    }

    /// Test probe: number of children added.
    #[doc(hidden)]
    pub fn n(&self) -> usize {
        self.state.borrow().children.len()
    }
}

impl Watchable for QuorumEvent {
    fn handle(&self) -> &EventHandle {
        &self.handle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Notify, WaitResult};
    use simkit::{NodeId, Sim};
    use std::time::Duration;

    fn setup(n: usize) -> (Sim, Runtime, QuorumEvent, Vec<Notify>) {
        let sim = Sim::new(1);
        let rt = Runtime::new_sim(sim.clone(), NodeId(0));
        let q = QuorumEvent::majority(&rt);
        let children: Vec<Notify> = (0..n).map(|_| Notify::new(&rt)).collect();
        for c in &children {
            q.add(c);
        }
        (sim, rt, q, children)
    }

    #[test]
    fn slowest_child_never_blocks_quorum() {
        let (sim, _rt, q, c) = setup(3);
        c[0].set(Signal::Ok);
        c[1].set(Signal::Ok);
        // c[2] is fail-slow and never fires; the wait still completes now.
        let out = sim.block_on(async move { q.wait().await });
        assert_eq!(out, WaitResult::Ready);
        assert_eq!(sim.now().as_nanos(), 0);
    }

    #[test]
    fn unreachable_quorum_fails_fast() {
        let (sim, _rt, q, c) = setup(5);
        // Threshold 3; three rejections make it unreachable.
        c[0].set(Signal::Err);
        c[1].set(Signal::Err);
        assert!(q.handle().fired().is_none());
        c[2].set(Signal::Err);
        let out = sim.block_on(async move { q.wait().await });
        assert_eq!(out, WaitResult::Failed);
    }

    #[test]
    fn counts_are_exposed() {
        let (_s, _rt, q, c) = setup(5);
        c[0].set(Signal::Ok);
        c[1].set(Signal::Err);
        assert_eq!(c.iter().filter(|c| c.handle().ready()).count(), 1);
        assert_eq!(q.n(), 5);
        assert_eq!(q.state.borrow().threshold(), 3);
    }

    #[test]
    fn straggler_counters_name_the_slow_replica() {
        let sim = Sim::new(1);
        let rt = Runtime::new_sim(sim.clone(), NodeId(0));
        let q = QuorumEvent::labeled(&rt, QuorumMode::Majority, "replicate");
        let peers: Vec<EventHandle> = (1..=3)
            .map(|p| {
                EventHandle::with_sampling(
                    &rt,
                    EventKind::Rpc { target: NodeId(p) },
                    "append_entries",
                    false,
                )
            })
            .collect();
        for p in &peers {
            q.add(p);
        }
        peers[0].fire(Signal::Ok);
        peers[1].fire(Signal::Ok);
        // Node 3's reply never arrives; the quorum fires without it.
        assert!(q.ready());
        let m = rt.tracer().metrics();
        let slow = m.counter(Key::tagged("event.quorum.straggler", 3, "replicate"));
        assert_eq!(slow.get(), 1, "unfired child must be attributed");
        for fast in [1, 2] {
            let c = m.counter(Key::tagged("event.quorum.straggler", fast, "replicate"));
            assert_eq!(c.get(), 0, "node {fast} answered in time");
        }
        let wait = m.histogram(Key::tagged("event.quorum.wait", 0, "replicate"));
        assert_eq!(wait.snapshot().count, 1);
        // A late arrival must not retroactively change the attribution.
        peers[2].fire(Signal::Ok);
        assert_eq!(slow.get(), 1);
        assert_eq!(wait.snapshot().count, 1);
    }

    #[test]
    fn wait_timeout_when_quorum_never_reached() {
        let (sim, _rt, q, c) = setup(3);
        c[0].set(Signal::Ok);
        let out = sim.block_on(async move { q.wait_timeout(Duration::from_millis(50)).await });
        assert_eq!(out, WaitResult::Timeout);
    }

    #[test]
    fn nested_quorum_of_quorums() {
        // An outer majority over two inner majorities: fires only when two
        // of the inner groups reach their own quorums.
        let sim = Sim::new(1);
        let rt = Runtime::new_sim(sim.clone(), NodeId(0));
        let outer = QuorumEvent::labeled(&rt, QuorumMode::All, "outer");
        let mut groups = Vec::new();
        for _ in 0..2 {
            let inner = QuorumEvent::majority(&rt);
            let children: Vec<Notify> = (0..3).map(|_| Notify::new(&rt)).collect();
            for c in &children {
                inner.add(c);
            }
            outer.add(&inner);
            groups.push((inner, children));
        }
        outer.seal();
        groups[0].1[0].set(Signal::Ok);
        groups[0].1[1].set(Signal::Ok);
        assert!(groups[0].0.ready());
        assert!(!outer.ready());
        groups[1].1[1].set(Signal::Ok);
        groups[1].1[2].set(Signal::Ok);
        assert!(outer.ready());
    }
}
