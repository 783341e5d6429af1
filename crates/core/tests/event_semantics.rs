//! Adversarial event-semantics tests: races between firing, timeouts and
//! composition that unit tests of individual types do not cover.

use std::time::Duration;

use depfast::event::{
    AndEvent, Notify, OrEvent, QuorumEvent, QuorumMode, Signal, TimerEvent, WaitResult, Watchable,
};
use depfast::runtime::{Coroutine, Runtime};
use simkit::{NodeId, Sim};

fn rt() -> (Sim, Runtime) {
    let sim = Sim::new(5);
    let rt = Runtime::new_sim(sim.clone(), NodeId(0));
    (sim, rt)
}

/// An event firing at exactly the wait deadline: the fire wins (it is
/// processed before the timer in the same instant if it was scheduled
/// first).
#[test]
fn fire_and_deadline_same_instant_is_deterministic() {
    let run = || {
        let (sim, rt) = rt();
        let n = Notify::new(&rt);
        let n2 = n.clone();
        let rt2 = rt.clone();
        Coroutine::create(&rt, "firer", async move {
            rt2.sleep(Duration::from_millis(10)).await;
            n2.set(Signal::Ok);
        });
        let h = n.handle().clone();
        let out = sim.spawn(async move { h.wait_timeout(Duration::from_millis(10)).await });
        sim.run();
        out.try_take().unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same-instant resolution must be deterministic");
}

/// Waiting on an event after its wait timed out earlier still works.
#[test]
fn rewait_after_timeout_sees_late_fire() {
    let (sim, rt) = rt();
    let n = Notify::new(&rt);
    let h = n.handle().clone();
    let first = sim.block_on({
        let h = h.clone();
        async move { h.wait_timeout(Duration::from_millis(5)).await }
    });
    assert_eq!(first, WaitResult::Timeout);
    n.set(Signal::Ok);
    let second = sim.block_on(async move { h.wait().await });
    assert_eq!(second, WaitResult::Ready);
}

/// A quorum sealed with zero children fails immediately (0 < k).
#[test]
fn empty_sealed_quorum_fails() {
    let (sim, rt) = rt();
    let q = QuorumEvent::count(&rt, 1);
    let out = sim.block_on(async move { q.wait_timeout(Duration::from_millis(5)).await });
    assert_eq!(out, WaitResult::Failed);
}

/// Deep nesting: Or(And(Quorum, Quorum), Quorum) resolves correctly from
/// the innermost fires.
#[test]
fn three_level_nesting_resolves() {
    let (_sim, rt) = rt();
    let q1 = QuorumEvent::majority(&rt);
    let q2 = QuorumEvent::majority(&rt);
    let q3 = QuorumEvent::majority(&rt);
    let all: Vec<Vec<Notify>> = (0..3)
        .map(|_| (0..3).map(|_| Notify::new(&rt)).collect())
        .collect();
    for (q, children) in [(&q1, &all[0]), (&q2, &all[1]), (&q3, &all[2])] {
        for c in children {
            q.add(c);
        }
    }
    let and = AndEvent::new(&rt);
    and.add(&q1);
    and.add(&q2);
    let or = OrEvent::of2(&rt, &and, &q3);
    // Fire q3's majority: the Or resolves through the right branch.
    all[2][0].set(Signal::Ok);
    all[2][1].set(Signal::Ok);
    assert!(or.ready());
    assert!(!and.ready());
}

/// A disjunction does not fail on the strength of its first child alone:
/// `of2` adds `a` and then `b`, and `a` having already failed says nothing
/// about `b`.
#[test]
fn or_of_a_failed_and_a_pending_child_waits_for_the_pending_one() {
    let (_sim, rt) = rt();
    let a = Notify::new(&rt);
    let b = Notify::new(&rt);
    a.set(Signal::Err);
    let or = OrEvent::of2(&rt, &a, &b);
    assert_eq!(or.handle().fired(), None, "b has not spoken");
    b.set(Signal::Ok);
    assert_eq!(or.handle().fired(), Some(Signal::Ok));
}

/// A conjunction does not hold on the strength of its first child alone:
/// `a` having already succeeded when it is added says nothing about `b`.
#[test]
fn and_with_a_ready_first_child_waits_for_the_later_one() {
    let (_sim, rt) = rt();
    let a = Notify::new(&rt);
    let b = Notify::new(&rt);
    a.set(Signal::Ok);
    let and = AndEvent::new(&rt);
    and.add(&a);
    assert_eq!(and.handle().fired(), None, "b is not even added yet");
    and.add(&b);
    b.set(Signal::Err);
    assert_eq!(and.handle().fired(), Some(Signal::Err));
}

/// Signals arriving after an event resolved are ignored everywhere in a
/// compound tree (no double counting, no panic).
#[test]
fn late_signals_are_inert() {
    let (_sim, rt) = rt();
    let q = QuorumEvent::count(&rt, 1);
    let a = Notify::new(&rt);
    let b = Notify::new(&rt);
    q.add(&a);
    q.add(&b);
    a.set(Signal::Ok);
    let oks = || [&a, &b].iter().filter(|c| c.handle().ready()).count();
    assert!(q.ready());
    assert_eq!(oks(), 1);
    b.set(Signal::Ok);
    b.set(Signal::Err);
    assert_eq!(oks(), 2, "a late ok still fires its child");
    assert!(q.ready());
}

/// A timer used inside a quorum behaves like any other child.
#[test]
fn timer_as_quorum_child() {
    let (sim, rt) = rt();
    let q = QuorumEvent::count(&rt, 2);
    let t1 = TimerEvent::after(&rt, Duration::from_millis(5));
    let t2 = TimerEvent::after(&rt, Duration::from_millis(10));
    let never = Notify::new(&rt);
    q.add(&t1);
    q.add(&t2);
    q.add(&never);
    let out = sim.block_on(async move { q.wait_timeout(Duration::from_secs(1)).await });
    assert_eq!(out, WaitResult::Ready);
    assert_eq!(sim.now().as_nanos(), 10_000_000);
}

/// Many concurrent waiters on one quorum all resolve at the same virtual
/// instant.
#[test]
fn hundred_waiters_wake_together() {
    let (sim, rt) = rt();
    let q = QuorumEvent::count(&rt, 1);
    let n = Notify::new(&rt);
    q.add(&n);
    let handles: Vec<_> = (0..100)
        .map(|_| {
            let h = q.handle().clone();
            sim.spawn(async move { h.wait().await })
        })
        .collect();
    let rt2 = rt.clone();
    Coroutine::create(&rt, "firer", async move {
        rt2.sleep(Duration::from_millis(3)).await;
        n.set(Signal::Ok);
    });
    sim.run();
    for h in handles {
        assert_eq!(h.try_take(), Some(WaitResult::Ready));
    }
}

/// The §3.2 nested pattern under its timeout: neither quorum resolves, the
/// Or wait times out, and both branches remain individually inspectable.
#[test]
fn fastpath_timeout_leaves_branches_inspectable() {
    let (sim, rt) = rt();
    let fast_ok = QuorumEvent::labeled(&rt, QuorumMode::Count(3), "fast_ok");
    let fast_reject = QuorumEvent::labeled(&rt, QuorumMode::Count(2), "fast_reject");
    for _ in 0..3 {
        fast_ok.add(&Notify::new(&rt));
    }
    for _ in 0..3 {
        fast_reject.add(&Notify::new(&rt));
    }
    let fastpath = OrEvent::of2(&rt, &fast_ok, &fast_reject);
    let fp = fastpath.clone();
    let out = sim.block_on(async move { fp.wait_timeout(Duration::from_millis(100)).await });
    assert_eq!(out, WaitResult::Timeout);
    assert!(!fast_ok.ready());
    assert!(!fast_reject.ready());
    assert!(fastpath.handle().fired().is_none());
}
