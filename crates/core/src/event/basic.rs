//! Basic (non-compound) event types.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use super::core::{EventHandle, EventId, EventKind, Signal, Watchable};
use crate::runtime::Runtime;

/// A manually-triggered condition event.
///
/// The simplest basic event: something calls [`Notify::set`], waiters
/// resume. Useful for in-process conditions ("stop requested", "snapshot
/// installed").
///
/// # Examples
///
/// ```
/// use depfast::event::{Notify, Signal, Watchable};
/// use depfast::runtime::Runtime;
/// use simkit::{NodeId, Sim};
///
/// let sim = Sim::new(0);
/// let rt = Runtime::new_sim(sim.clone(), NodeId(0));
/// let n = Notify::new(&rt);
/// assert!(!n.handle().ready());
/// n.set(Signal::Ok);
/// assert!(n.handle().ready());
/// ```
#[derive(Clone)]
pub struct Notify {
    handle: EventHandle,
}

impl Notify {
    /// Creates an unfired notification event.
    pub fn new(rt: &Runtime) -> Self {
        Self::labeled(rt, "notify")
    }

    /// Creates an unfired notification event with a report label.
    pub fn labeled(rt: &Runtime, label: &'static str) -> Self {
        Notify {
            handle: EventHandle::new(rt, EventKind::Notify, label),
        }
    }

    /// Fires the event (idempotent).
    pub fn set(&self, signal: Signal) {
        self.handle.fire(signal);
    }
}

impl Watchable for Notify {
    fn handle(&self) -> &EventHandle {
        &self.handle
    }
}

/// An event that carries a payload when it fires.
///
/// This is the shape of RPC-reply and disk-completion events: the waiter
/// needs both the signal *and* the response. `depfast-rpc` builds its
/// `RpcEvent` on this, with [`EventKind::Rpc`] so the tracer knows the
/// remote target; `depfast-storage` uses [`EventKind::Io`].
#[derive(Clone)]
pub struct TypedEvent<T> {
    handle: EventHandle,
    value: Rc<RefCell<Option<T>>>,
}

impl<T: 'static> TypedEvent<T> {
    /// Creates an unfired typed event of structural `kind`.
    pub fn new(rt: &Runtime, kind: EventKind, label: &'static str) -> Self {
        TypedEvent {
            handle: EventHandle::new(rt, kind, label),
            value: Rc::new(RefCell::new(None)),
        }
    }

    /// Fires with [`Signal::Ok`], storing the payload for the waiter.
    pub fn fire_ok(&self, value: T) {
        *self.value.borrow_mut() = Some(value);
        self.handle.fire(Signal::Ok);
    }

    /// Fires with [`Signal::Err`] (no payload).
    pub fn fire_err(&self) {
        self.handle.fire(Signal::Err);
    }

    /// Takes the payload, if the event fired `Ok` and it was not yet taken.
    pub fn take(&self) -> Option<T> {
        self.value.borrow_mut().take()
    }

    /// Subscribes `hook` to the firing, handing it the payload taken
    /// (`None` on `Err` or once taken). The hook holds the payload slot,
    /// not the event: an event that never fires does not keep itself
    /// alive through its own hook.
    pub fn on_fire_take(&self, hook: impl FnOnce(Option<T>) + 'static) {
        let value = self.value.clone();
        self.handle
            .on_fire(move |_| hook(value.borrow_mut().take()));
    }
}

impl<T> Watchable for TypedEvent<T> {
    fn handle(&self) -> &EventHandle {
        &self.handle
    }
}

/// A virtual-time timer event.
#[derive(Clone)]
pub struct TimerEvent {
    handle: EventHandle,
}

impl TimerEvent {
    /// Creates an event that fires [`Signal::Ok`] after `d`.
    pub fn after(rt: &Runtime, d: Duration) -> Self {
        let handle = EventHandle::new(rt, EventKind::Timer, "timer");
        let h = handle.clone();
        let at = rt.now() + d;
        rt.schedule_call(at, move || h.fire(Signal::Ok));
        TimerEvent { handle }
    }
}

impl Watchable for TimerEvent {
    fn handle(&self) -> &EventHandle {
        &self.handle
    }
}

struct ValueInner<T> {
    value: T,
    // Waiters keyed by the threshold they are waiting for.
    waiters: Vec<(T, EventHandle)>,
}

/// A watched variable: waiters block until it reaches a threshold.
///
/// The paper lists "waiting for a variable to be set [to a] certain value"
/// among the basic events. The canonical use in an RSM is the *commit
/// index*: the apply loop waits until `commit_index >= n`.
///
/// # Examples
///
/// ```
/// use depfast::event::ValueEvent;
/// use depfast::runtime::Runtime;
/// use simkit::{NodeId, Sim};
///
/// let sim = Sim::new(0);
/// let rt = Runtime::new_sim(sim.clone(), NodeId(0));
/// let commit = ValueEvent::new(&rt, 0u64);
/// let at5 = commit.when_at_least(5);
/// commit.set(3);
/// assert!(!at5.ready());
/// commit.set(7);
/// assert!(at5.ready());
/// assert_eq!(commit.get(), 7);
/// ```
#[derive(Clone)]
pub struct ValueEvent<T: Copy + PartialOrd> {
    rt: Runtime,
    label: &'static str,
    kind: EventKind,
    inner: Rc<RefCell<ValueInner<T>>>,
}

impl<T: Copy + PartialOrd + 'static> ValueEvent<T> {
    /// Creates a watched variable with an initial value.
    pub fn new(rt: &Runtime, initial: T) -> Self {
        Self::labeled(rt, initial, "value")
    }

    /// Creates a watched variable with a report label.
    pub fn labeled(rt: &Runtime, initial: T, label: &'static str) -> Self {
        Self::with_kind(rt, initial, EventKind::Value, label)
    }

    /// Creates a watched variable whose threshold waits carry `kind`
    /// instead of [`EventKind::Value`]. A watermark is often a proxy for
    /// another resource — the WAL's durable index *is* disk completion —
    /// and the kind is what tracing, blame, and the wait-state profiler
    /// classify by.
    pub fn with_kind(rt: &Runtime, initial: T, kind: EventKind, label: &'static str) -> Self {
        ValueEvent {
            rt: rt.clone(),
            label,
            kind,
            inner: Rc::new(RefCell::new(ValueInner {
                value: initial,
                waiters: Vec::new(),
            })),
        }
    }

    /// Current value.
    pub fn get(&self) -> T {
        self.inner.borrow().value
    }

    /// Sets the value if it is larger, firing all satisfied waiters.
    ///
    /// Monotonic semantics fit the RSM use cases (commit index, applied
    /// index, term); a lower value is ignored.
    pub fn set(&self, v: T) {
        let fired: Vec<EventHandle> = {
            let mut inner = self.inner.borrow_mut();
            if v <= inner.value {
                return;
            }
            inner.value = v;
            let mut fired = Vec::new();
            inner.waiters.retain(|(threshold, h)| {
                if *threshold <= v {
                    fired.push(h.clone());
                    false
                } else {
                    true
                }
            });
            fired
        };
        for h in fired {
            h.fire(Signal::Ok);
        }
    }

    /// Fires every pending threshold wait with [`Signal::Err`]: the value
    /// will not get there on its owner's present course (a deposed leader's
    /// watermark), and a waiter should hear so before its deadline.
    pub fn fail_waiters(&self) {
        let waiters = std::mem::take(&mut self.inner.borrow_mut().waiters);
        for (_, h) in waiters {
            h.fire(Signal::Err);
        }
    }

    /// The pending threshold waits a `set(v)` would fire, by event id —
    /// for a tracing setter to link each to the cause of the set before
    /// making it.
    pub fn waiting_through(&self, v: T) -> Vec<EventId> {
        let inner = self.inner.borrow();
        let due = inner
            .waiters
            .iter()
            .filter(|(threshold, _)| *threshold <= v);
        due.map(|(_, h)| h.id()).collect()
    }

    /// Returns an event that fires once the value reaches `threshold`
    /// (immediately if it already has).
    pub fn when_at_least(&self, threshold: T) -> EventHandle {
        let h = EventHandle::new(&self.rt, self.kind, self.label);
        let mut inner = self.inner.borrow_mut();
        if inner.value >= threshold {
            drop(inner);
            h.fire(Signal::Ok);
        } else {
            inner.waiters.push((threshold, h.clone()));
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::WaitResult;
    use simkit::{NodeId, Sim};

    fn rt() -> (Sim, Runtime) {
        let sim = Sim::new(1);
        let rt = Runtime::new_sim(sim.clone(), NodeId(0));
        (sim, rt)
    }

    #[test]
    fn typed_event_delivers_payload() {
        let (sim, rt) = rt();
        let e: TypedEvent<String> = TypedEvent::new(&rt, EventKind::Io, "io");
        let e2 = e.clone();
        let out = sim.block_on(async move {
            e2.fire_ok("done".to_string());
            let r = e.handle().wait().await;
            (r, e.take())
        });
        assert_eq!(out.0, WaitResult::Ready);
        assert_eq!(out.1, Some("done".to_string()));
    }

    #[test]
    fn typed_event_err_has_no_payload() {
        let (_sim, rt) = rt();
        let e: TypedEvent<u32> = TypedEvent::new(&rt, EventKind::Io, "io");
        e.fire_err();
        assert_eq!(e.take(), None);
        assert_eq!(e.handle().fired(), Some(Signal::Err));
    }

    #[test]
    fn timer_event_fires_at_deadline() {
        let (sim, rt) = rt();
        let t = TimerEvent::after(&rt, Duration::from_millis(7));
        let out = sim.block_on(async move { t.handle().wait().await });
        assert_eq!(out, WaitResult::Ready);
        assert_eq!(sim.now().as_nanos(), 7_000_000);
    }

    #[test]
    fn value_event_is_monotonic() {
        let (_sim, rt) = rt();
        let v = ValueEvent::new(&rt, 10u64);
        v.set(5); // Ignored: lower than current.
        assert_eq!(v.get(), 10);
        v.set(20);
        assert_eq!(v.get(), 20);
    }

    #[test]
    fn value_event_wakes_thresholds_in_range() {
        let (_sim, rt) = rt();
        let v = ValueEvent::new(&rt, 0u64);
        let a = v.when_at_least(3);
        let b = v.when_at_least(10);
        v.set(5);
        assert!(a.ready());
        assert!(!b.ready());
        assert_eq!(v.waiting_through(10), vec![b.id()], "a fired, b pending");
        assert_eq!(v.waiting_through(9), vec![]);
        v.set(10);
        assert!(b.ready());
    }

    #[test]
    fn value_event_fails_its_pending_waiters_once() {
        let (_sim, rt) = rt();
        let v = ValueEvent::new(&rt, 0u64);
        let (reached, pending) = (v.when_at_least(0), v.when_at_least(3));
        v.fail_waiters();
        assert_eq!(reached.fired(), Some(Signal::Ok));
        assert_eq!(pending.fired(), Some(Signal::Err));
        // The variable itself goes on: a later waiter is served as ever.
        let later = v.when_at_least(3);
        v.set(3);
        assert!(later.ready() && !pending.ready());
    }

    #[test]
    fn value_event_immediate_when_already_reached() {
        let (_sim, rt) = rt();
        let v = ValueEvent::new(&rt, 100u64);
        assert!(v.when_at_least(50).ready());
    }

    #[test]
    fn notify_signals_propagate() {
        let (_sim, rt) = rt();
        let n = Notify::new(&rt);
        n.set(Signal::Err);
        assert_eq!(n.handle().fired(), Some(Signal::Err));
        assert!(!n.handle().ready());
    }
}
