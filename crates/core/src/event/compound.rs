//! `AndEvent` and `OrEvent`: the remaining compound combinators.
//!
//! §3.2: *"An AndEvent is triggered when all its subevents are triggered;
//! an OrEvent is triggered when one of its subevents is triggered. Note
//! that Events can be nested, e.g., an AndEvent can contain many
//! QuorumEvents as its subevents."*
//!
//! Both are faces of the one k-of-n tally, [`QuorumEvent`]: "all" is
//! [`QuorumMode::All`], "any" is [`QuorumMode::Count`]`(1)`. Each keeps its
//! own [`EventKind`] (what the SPG and the profiler classify by) and
//! dereferences to the tally for `add`, `seal`, the sealing waits and the
//! counts.

use std::ops::Deref;

use super::core::{EventHandle, EventKind, Watchable};
use super::quorum::{QuorumEvent, QuorumMode};
use crate::runtime::Runtime;

/// Fires `Ok` when **all** children have fired `Ok` and the child set is
/// sealed; fires `Err` as soon as any child fires `Err` (the conjunction
/// can no longer hold).
///
/// The sharded-transaction layer nests one classified vote per participant
/// shard under a single `AndEvent`: "every shard prepared".
#[derive(Clone)]
pub struct AndEvent(QuorumEvent);

impl AndEvent {
    /// Creates an empty conjunction.
    pub fn new(rt: &Runtime) -> Self {
        Self::labeled(rt, "and")
    }

    /// Creates an empty conjunction with a report label.
    pub fn labeled(rt: &Runtime, label: &'static str) -> Self {
        AndEvent(QuorumEvent::with_kind(
            rt,
            EventKind::And,
            QuorumMode::All,
            label,
        ))
    }
}

/// Fires `Ok` when **any** child fires `Ok`; fires `Err` only when the
/// child set is sealed and every child has fired `Err`.
///
/// The paper's fast-path/slow-path example waits on
/// `OrEvent(fast_ok, fast_reject)` and then inspects which branch fired.
#[derive(Clone)]
pub struct OrEvent(QuorumEvent);

impl OrEvent {
    /// Creates an empty disjunction.
    pub fn new(rt: &Runtime) -> Self {
        Self::labeled(rt, "or")
    }

    /// Creates an empty disjunction with a report label.
    pub fn labeled(rt: &Runtime, label: &'static str) -> Self {
        OrEvent(QuorumEvent::with_kind(
            rt,
            EventKind::Or,
            QuorumMode::Count(1),
            label,
        ))
    }

    /// Creates the sealed disjunction of two events (the common binary
    /// case).
    pub fn of2(rt: &Runtime, a: &impl Watchable, b: &impl Watchable) -> Self {
        let e = Self::new(rt);
        e.add(a);
        e.add(b);
        e.seal();
        e
    }
}

impl Deref for AndEvent {
    type Target = QuorumEvent;

    fn deref(&self) -> &QuorumEvent {
        &self.0
    }
}

impl Deref for OrEvent {
    type Target = QuorumEvent;

    fn deref(&self) -> &QuorumEvent {
        &self.0
    }
}

impl Watchable for AndEvent {
    fn handle(&self) -> &EventHandle {
        self.0.handle()
    }
}

impl Watchable for OrEvent {
    fn handle(&self) -> &EventHandle {
        self.0.handle()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Notify, Signal, WaitResult};
    use simkit::{NodeId, Sim};
    use std::time::Duration;

    fn rt() -> (Sim, Runtime) {
        let sim = Sim::new(1);
        let rt = Runtime::new_sim(sim.clone(), NodeId(0));
        (sim, rt)
    }

    /// One step of a tally script; the number names a child.
    #[derive(Clone, Copy)]
    enum Step {
        Add(usize),
        Ok(usize),
        Err(usize),
        Seal,
    }
    use Step::{Add, Err, Ok, Seal};

    #[derive(Clone, Copy)]
    enum Face {
        Quorum(QuorumMode),
        And,
        Or,
    }
    use Face::{And, Or, Quorum};
    use QuorumMode::{All, Count, Majority};

    const FIRED_OK: Option<Signal> = Some(Signal::Ok);
    const FIRED_ERR: Option<Signal> = Some(Signal::Err);

    /// What is asserted, the faces it holds for, the script, and the signal
    /// the compound has latched after it.
    type Row = (
        &'static str,
        &'static [Face],
        &'static [Step],
        Option<Signal>,
    );

    /// The tally's whole decision table: face × mode × {child pre-fired
    /// (`Ok`/`Err` before its `Add`), child added late, sealed, unsealed}
    /// → expected signal.
    const TABLE: &[Row] = &[
        // Majority: ⌊n/2⌋+1 of the children added so far.
        (
            "one of three is no majority",
            &[Quorum(Majority)],
            &[Add(0), Add(1), Add(2), Ok(0)],
            None,
        ),
        (
            "two of three is",
            &[Quorum(Majority)],
            &[Add(0), Add(1), Add(2), Ok(0), Ok(2)],
            FIRED_OK,
        ),
        (
            "the documented pitfall: a pre-fired first child is a majority of one",
            &[Quorum(Majority)],
            &[Ok(0), Add(0), Add(1), Add(2)],
            FIRED_OK,
        ),
        (
            "three of five rejecting decides nothing while unsealed",
            &[Quorum(Majority)],
            &[
                Add(0),
                Add(1),
                Add(2),
                Add(3),
                Add(4),
                Err(0),
                Err(1),
                Err(2),
            ],
            None,
        ),
        (
            "and makes the majority unreachable once sealed",
            &[Quorum(Majority)],
            &[
                Add(0),
                Add(1),
                Add(2),
                Add(3),
                Add(4),
                Err(0),
                Err(1),
                Err(2),
                Seal,
            ],
            FIRED_ERR,
        ),
        // Count(k), and Or = Count(1).
        (
            "any of n: the first ok decides, sealed or not",
            &[Quorum(Count(1)), Or],
            &[Add(0), Add(1), Ok(1)],
            FIRED_OK,
        ),
        (
            "any of n: one failure of two decides nothing",
            &[Quorum(Count(1)), Or],
            &[Add(0), Add(1), Err(0), Seal],
            None,
        ),
        (
            "any of n: fails once sealed and every child failed",
            &[Quorum(Count(1)), Or],
            &[Add(0), Add(1), Seal, Err(0), Err(1)],
            FIRED_ERR,
        ),
        (
            "any of n: never fails while a child may still be added",
            &[Quorum(Count(1)), Or],
            &[Add(0), Add(1), Err(0), Err(1)],
            None,
        ),
        (
            "any of n: a pre-failed first child does not decide for the late one",
            &[Quorum(Count(1)), Or],
            &[Err(0), Add(0), Add(1), Ok(1), Seal],
            FIRED_OK,
        ),
        (
            "any of n: sealed empty is unreachable",
            &[Quorum(Count(1)), Or],
            &[Seal],
            FIRED_ERR,
        ),
        (
            "pre-fired children count on add",
            &[Quorum(Count(2))],
            &[Ok(0), Ok(1), Add(0), Add(1)],
            FIRED_OK,
        ),
        (
            "a fixed threshold waits for the real quorum behind a pre-fired seed",
            &[Quorum(Count(2))],
            &[Ok(0), Add(0), Add(1)],
            None,
        ),
        // All, and And = All.
        (
            "all of n: one of two is not all",
            &[Quorum(All), And],
            &[Add(0), Add(1), Ok(0), Seal],
            None,
        ),
        (
            "all of n: every child ok and sealed",
            &[Quorum(All), And],
            &[Add(0), Add(1), Ok(0), Ok(1), Seal],
            FIRED_OK,
        ),
        (
            "all of n: never ok while a child may still be added",
            &[Quorum(All), And],
            &[Add(0), Add(1), Ok(0), Ok(1)],
            None,
        ),
        (
            "all of n: a pre-fired first child does not decide for the late one",
            &[Quorum(All), And],
            &[Ok(0), Add(0), Add(1), Err(1), Seal],
            FIRED_ERR,
        ),
        (
            "all of n: a child added after the others fired still counts",
            &[Quorum(All), And],
            &[Add(0), Ok(0), Add(1), Seal],
            None,
        ),
        (
            "all of n: fails fast on the first failure, unsealed",
            &[Quorum(All), And],
            &[Add(0), Add(1), Err(0)],
            FIRED_ERR,
        ),
        (
            "all of n: empty fires only once sealed",
            &[Quorum(All), And],
            &[],
            None,
        ),
    ];

    #[test]
    fn tally_decision_table() {
        for (what, faces, script, expect) in TABLE {
            for face in *faces {
                let (_s, rt) = rt();
                let tally: QuorumEvent = match face {
                    Quorum(mode) => QuorumEvent::labeled(&rt, *mode, "q"),
                    And => (*AndEvent::new(&rt)).clone(),
                    Or => (*OrEvent::new(&rt)).clone(),
                };
                let children: Vec<Notify> = (0..5).map(|_| Notify::new(&rt)).collect();
                for step in *script {
                    match *step {
                        Add(i) => tally.add(&children[i]),
                        Ok(i) => children[i].set(Signal::Ok),
                        Err(i) => children[i].set(Signal::Err),
                        Seal => tally.seal(),
                    }
                }
                assert_eq!(tally.handle().fired(), *expect, "{what}");
            }
        }
    }

    #[test]
    fn faces_keep_their_kinds_and_record_the_quorum_series_under_their_labels() {
        let (_s, rt) = rt();
        let and = AndEvent::labeled(&rt, "both");
        let or = OrEvent::new(&rt);
        assert_eq!(and.handle().kind(), EventKind::And);
        assert_eq!(or.handle().kind(), EventKind::Or);
        assert_eq!((and.handle().label(), or.handle().label()), ("both", "or"));
        let a = Notify::new(&rt);
        and.add(&a);
        and.seal();
        a.set(Signal::Ok);
        assert!(and.ready());
        // The face's own tally: all of one child.
        let h = and.handle();
        let shape = crate::event::quorum::shape(h.kind(), h.label(), h.tally().as_ref());
        assert_eq!((shape.k, shape.children.len()), (1, 1));
        let key = depfast_metrics::Key::tagged("event.quorum.wait", 0, "both");
        let waits = rt.tracer().metrics().histogram(key);
        assert_eq!(waits.snapshot().count, 1);
    }

    #[test]
    fn fast_path_slow_path_pattern() {
        // The §3.2 example: OrEvent(fast_ok, fast_reject) with a timeout,
        // then branch on which sub-event is ready.
        let (sim, rt) = rt();
        let fast_ok = QuorumEvent::count(&rt, 3);
        let fast_reject = QuorumEvent::count(&rt, 2);
        let replies: Vec<Notify> = (0..4).map(|_| Notify::new(&rt)).collect();
        for r in &replies {
            fast_ok.add(r);
        }
        let rejects: Vec<Notify> = (0..4).map(|_| Notify::new(&rt)).collect();
        for r in &rejects {
            fast_reject.add(r);
        }
        let fastpath = OrEvent::of2(&rt, &fast_ok, &fast_reject);
        // Two rejects arrive: the fast path is rejected.
        rejects[0].set(Signal::Ok);
        rejects[1].set(Signal::Ok);
        let fp = fastpath.clone();
        let out = sim
            .block_on(async move { fp.handle().wait_timeout(Duration::from_millis(1000)).await });
        assert_eq!(out, WaitResult::Ready);
        assert!(!fast_ok.ready());
        assert!(fast_reject.ready());
    }

    #[test]
    fn and_of_quorums_nests() {
        let (_s, rt) = rt();
        let and = AndEvent::new(&rt);
        let q1 = QuorumEvent::majority(&rt);
        let q2 = QuorumEvent::majority(&rt);
        let g1: Vec<Notify> = (0..3).map(|_| Notify::new(&rt)).collect();
        let g2: Vec<Notify> = (0..3).map(|_| Notify::new(&rt)).collect();
        for c in &g1 {
            q1.add(c);
        }
        for c in &g2 {
            q2.add(c);
        }
        and.add(&q1);
        and.add(&q2);
        and.seal();
        g1[0].set(Signal::Ok);
        g1[1].set(Signal::Ok);
        g2[0].set(Signal::Ok);
        assert!(!and.ready());
        g2[2].set(Signal::Ok);
        assert!(and.ready());
    }
}
