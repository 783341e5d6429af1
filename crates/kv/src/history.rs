//! The read rule, stated once: is what the clients observed a history a
//! linearizable key-value store could have produced?
//!
//! A pure checker in [`depfast_raft::reads`]' shape: operations come in
//! with their instants on the virtual clock, a verdict comes out; there is
//! no `Sim`. An operation takes effect at one instant between its invoke
//! and its return, and a get returns the value of the last put of its key
//! that took effect before it (`None` before the first). So:
//!
//! * a get sees every put of its key acknowledged before the get was
//!   invoked, or a later one, and nothing invoked after it returned;
//! * once a get has returned a value, no get invoked later returns an
//!   older one — whether or not the put was acknowledged yet;
//! * each put takes effect **at most once**: a retried put that the
//!   servers apply twice (a lost session dedup) brings back a value that
//!   was overwritten in between, and that is a violation;
//! * nothing is assumed of writers or values: a key may have any number of
//!   writers, and two puts may write the same value.
//!
//! "Maybe applied" has one representation: `ret: None`. A put with no
//! return (it timed out, or its client gave up) may take effect at any
//! instant after its invoke, or never. A get with no return carries no
//! information; callers do not record it, and the checker ignores it.
//! Two operations are concurrent unless one returned strictly before the
//! other was invoked.
//!
//! Keys are checked one at a time: linearizability is compositional
//! (Herlihy & Wing), so a map of registers is linearizable exactly when
//! each key's sub-history is. A key is searched as Wing and Gong do —
//! take any operation no pending one must precede, apply it to the
//! register, backtrack when a get disagrees — with Lowe's memo on (the
//! set of operations taken, the register's value), so no state is visited
//! twice.

use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::hash::Hash;

use simkit::SimTime;

/// What an operation did to its key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Kind<V> {
    /// Wrote this value.
    Put(V),
    /// Returned this value; `None` for a key never written.
    Get(Option<V>),
}

/// One client operation, as its session saw it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op<K, V> {
    pub key: K,
    pub invoke: SimTime,
    /// `None`: the operation never returned — a put that may have been
    /// applied.
    pub ret: Option<SimTime>,
    pub kind: Kind<V>,
}

/// A key whose operations no linearization explains, and a sub-history
/// of them that is itself rejected: the operations invoked by the first
/// return at which the key's history fails (those still pending then left
/// open), less every get and unread put that the failure does not need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation<K, V> {
    pub key: K,
    pub ops: Vec<Op<K, V>>,
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Display for Violation<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = |t: SimTime| t.as_nanos() as f64 / 1e6;
        write!(f, "key {:?}: no linearization of", self.key)?;
        for op in &self.ops {
            match &op.kind {
                Kind::Put(v) => write!(f, "\n  put {v:?}")?,
                Kind::Get(v) => write!(f, "\n  get -> {v:?}")?,
            }
            write!(f, " invoked {:.3} ms, ", ms(op.invoke))?;
            match op.ret {
                Some(t) => write!(f, "returned {:.3} ms", ms(t))?,
                None => write!(f, "never returned")?,
            }
        }
        Ok(())
    }
}

/// Checks `ops` key by key; the first key in key order that fails is
/// returned with its [`Violation`] sub-history.
pub fn check_linearizable<K, V>(ops: &[Op<K, V>]) -> Result<(), Violation<K, V>>
where
    K: Ord + Clone,
    V: Eq + Hash + Clone,
{
    let mut keys: BTreeMap<&K, Vec<&Op<K, V>>> = BTreeMap::new();
    for op in ops {
        keys.entry(&op.key).or_default().push(op);
    }
    for (key, ops) in keys {
        if !linearizes(&ops) {
            return Err(Violation {
                key: key.clone(),
                ops: witness(&ops),
            });
        }
    }
    Ok(())
}

/// Whether one key's operations have a linearization.
fn linearizes<K, V: Eq + Hash + Clone>(ops: &[&Op<K, V>]) -> bool {
    // An open get says nothing, and neither does an open put whose value
    // no get returned: wherever it could take effect, no get sees it.
    let ops: Vec<&Op<K, V>> = (ops.iter().copied())
        .filter(|op| match &op.kind {
            _ if op.ret.is_some() => true,
            Kind::Put(v) => is_read(ops.iter().copied(), v),
            Kind::Get(_) => false,
        })
        .collect();
    // Closed operations by invoke and by return; open puts, which
    // nothing forces and which are tried last, by invoke.
    let (mut by_invoke, mut open): (Vec<usize>, Vec<usize>) =
        (0..ops.len()).partition(|&i| ops[i].ret.is_some());
    by_invoke.sort_by_key(|&i| ops[i].invoke);
    open.sort_by_key(|&i| ops[i].invoke);
    let mut by_ret = by_invoke.clone();
    by_ret.sort_by_key(|&i| ops[i].ret);
    let closed = by_invoke.len();

    let mut taken = vec![0u64; ops.len().div_ceil(64)];
    let is_taken = |taken: &[u64], i: usize| taken[i / 64] & (1 << (i % 64)) != 0;
    let mut value: Option<V> = None;
    let mut seen: HashSet<(Vec<u64>, Option<V>)> = HashSet::new();
    // The operations taken, each with what it replaced: the register's
    // value, the two first-untaken positions and the candidate cursor.
    let mut path: Vec<(usize, Option<V>, usize, usize, usize)> = Vec::new();
    // Every closed operation before `first_invoke` in invoke order, and
    // before `first_ret` in return order, is taken. A candidate position
    // below `closed` is in `by_invoke`, at or above it in `open`.
    let (mut first_invoke, mut first_ret, mut cursor) = (0, 0, 0usize);
    loop {
        let Some(&due) = by_ret.get(first_ret) else {
            return true; // every closed operation is taken
        };
        // An operation may go next unless a pending one returned before
        // it was invoked.
        let horizon = ops[due].ret;
        let mut next = None;
        while next.is_none() {
            let i = match cursor.checked_sub(closed) {
                None => by_invoke[cursor],
                Some(j) if j < open.len() => open[j],
                Some(_) => break,
            };
            if Some(ops[i].invoke) > horizon {
                if cursor >= closed {
                    break;
                }
                cursor = closed;
                continue;
            }
            cursor += 1;
            if is_taken(&taken, i) {
                continue;
            }
            let after = match &ops[i].kind {
                Kind::Put(v) => Some(v.clone()),
                Kind::Get(v) if *v == value => value.clone(),
                Kind::Get(_) => continue,
            };
            taken[i / 64] |= 1 << (i % 64);
            if seen.insert((taken.clone(), after.clone())) {
                next = Some((i, after));
            } else {
                taken[i / 64] &= !(1 << (i % 64));
            }
        }
        if let Some((i, after)) = next {
            let before = std::mem::replace(&mut value, after);
            path.push((i, before, first_invoke, first_ret, cursor));
            while first_invoke < closed && is_taken(&taken, by_invoke[first_invoke]) {
                first_invoke += 1;
            }
            while first_ret < closed && is_taken(&taken, by_ret[first_ret]) {
                first_ret += 1;
            }
            cursor = first_invoke;
        } else {
            let Some((i, before, fi, fr, c)) = path.pop() else {
                return false;
            };
            taken[i / 64] &= !(1 << (i % 64));
            (value, first_invoke, first_ret, cursor) = (before, fi, fr, c);
        }
    }
}

/// Whether some get among `ops` returned `v`.
fn is_read<'a, K: 'a, V: Eq + 'a>(ops: impl IntoIterator<Item = &'a Op<K, V>>, v: &V) -> bool {
    (ops.into_iter()).any(|g| matches!(&g.kind, Kind::Get(Some(r)) if r == v))
}

/// A rejected sub-history of `ops`, which are rejected. Each step keeps
/// the verdict honest: a history that linearizes still does after it.
///
/// 1. Cut at the earliest return `t` that fails: keep the operations
///    invoked by `t`, with a put still pending at `t` left open and a get
///    still pending dropped. Any linearization of the whole orders the
///    cut too.
/// 2. Drop, one at a time while the rest still fails, each get, and each
///    put whose value no remaining get returned.
fn witness<K: Clone, V: Eq + Hash + Clone>(ops: &[&Op<K, V>]) -> Vec<Op<K, V>> {
    let cut = |t: SimTime| -> Vec<Op<K, V>> {
        (ops.iter())
            .filter(|op| op.invoke <= t)
            .filter(|op| op.ret.is_some_and(|r| r <= t) || matches!(op.kind, Kind::Put(_)))
            .map(|&op| Op {
                ret: op.ret.filter(|r| *r <= t),
                ..op.clone()
            })
            .collect()
    };
    let rejects = |ops: &[Op<K, V>]| !linearizes(&ops.iter().collect::<Vec<_>>());
    let mut returns: Vec<SimTime> = ops.iter().filter_map(|op| op.ret).collect();
    returns.sort();
    returns.dedup();
    // The cut at the last return holds all that can fail, so it fails.
    let mut ops = cut(returns[returns.partition_point(|&t| !rejects(&cut(t)))]);

    let mut shrunk = true;
    while shrunk {
        shrunk = false;
        let mut i = 0;
        while i < ops.len() {
            let droppable = match &ops[i].kind {
                Kind::Get(_) => true,
                Kind::Put(v) => !is_read(&ops, v),
            };
            let mut rest = ops.clone();
            rest.remove(i);
            if droppable && rejects(&rest) {
                ops = rest;
                shrunk = true;
            } else {
                i += 1;
            }
        }
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn put(v: u64, invoke: u64, ret: u64) -> Op<&'static str, u64> {
        Op {
            key: "k",
            invoke: at(invoke),
            ret: Some(at(ret)),
            kind: Kind::Put(v),
        }
    }

    /// A put that never returned: maybe applied.
    fn open_put(v: u64, invoke: u64) -> Op<&'static str, u64> {
        Op {
            ret: None,
            ..put(v, invoke, invoke)
        }
    }

    /// A get that returned `v` (0: the key was never written).
    fn get(v: u64, invoke: u64, ret: u64) -> Op<&'static str, u64> {
        Op {
            key: "k",
            invoke: at(invoke),
            ret: Some(at(ret)),
            kind: Kind::Get((v > 0).then_some(v)),
        }
    }

    /// Checks `ops`; a rejection must name a key whose witness is rejected
    /// again, with the same key, and holds only that key's operations.
    fn verdict(ops: &[Op<&'static str, u64>]) -> Result<(), Violation<&'static str, u64>> {
        let out = check_linearizable(ops);
        if let Err(v) = &out {
            assert!(v.ops.len() <= ops.len(), "{v}");
            assert!(v.ops.iter().all(|op| op.key == v.key), "{v}");
            let again = check_linearizable(&v.ops).expect_err("the witness is rejected again");
            assert_eq!(again.key, v.key);
        }
        out
    }

    #[test]
    fn legal_histories_pass() {
        let rows: &[(&str, Vec<Op<&str, u64>>)] = &[
            ("an empty history", vec![]),
            ("a key never written reads None", vec![get(0, 0, 10)]),
            (
                "a get sees the last acknowledged put",
                vec![put(1, 0, 10), put(2, 20, 30), get(2, 40, 50)],
            ),
            (
                "a get concurrent with a put may see either value",
                vec![
                    put(1, 0, 10),
                    put(2, 20, 60),
                    get(1, 30, 40),
                    get(2, 45, 50),
                ],
            ),
            (
                "two concurrent puts read as 1 then 2",
                vec![
                    put(1, 0, 100),
                    put(2, 0, 100),
                    get(1, 10, 20),
                    get(2, 30, 40),
                ],
            ),
            (
                "two concurrent puts read as 2 then 1",
                vec![
                    put(1, 0, 100),
                    put(2, 0, 100),
                    get(2, 10, 20),
                    get(1, 30, 40),
                ],
            ),
            (
                "a read that sees a maybe-applied put",
                vec![
                    put(1, 0, 10),
                    open_put(2, 20),
                    get(2, 30, 40),
                    get(2, 50, 60),
                ],
            ),
            (
                "a maybe-applied put that is never seen",
                vec![
                    put(1, 0, 10),
                    open_put(2, 20),
                    get(1, 30, 40),
                    get(1, 100, 110),
                ],
            ),
            (
                "a maybe-applied put seen late, after an older value",
                vec![
                    put(1, 0, 10),
                    open_put(2, 20),
                    get(1, 30, 40),
                    get(2, 50, 60),
                ],
            ),
            (
                "two writers may write the same value: 1, 2, 1 is two puts of 1",
                vec![
                    put(1, 0, 10),
                    put(2, 20, 30),
                    get(2, 40, 50),
                    put(1, 60, 70),
                    get(1, 80, 90),
                ],
            ),
            (
                "equal instants are concurrent",
                vec![put(1, 0, 10), put(2, 10, 20), get(1, 20, 20)],
            ),
        ];
        for (what, ops) in rows {
            assert_eq!(verdict(ops), Ok(()), "{what}");
        }
    }

    #[test]
    fn illegal_histories_are_rejected_with_a_witness() {
        let rows: &[(&str, Vec<Op<&str, u64>>)] = &[
            (
                "a stale read: 2 was acknowledged before the get",
                vec![put(1, 0, 10), put(2, 20, 30), get(1, 40, 50)],
            ),
            (
                "a read from the future: 2 is put after the get returned",
                vec![put(1, 0, 10), get(2, 20, 30), put(2, 40, 50)],
            ),
            ("a value never written", vec![put(1, 0, 10), get(7, 20, 30)]),
            (
                "None after an acknowledged put",
                vec![put(1, 0, 10), get(0, 20, 30)],
            ),
            (
                "a value that reappears after being overwritten",
                vec![
                    put(1, 0, 10),
                    put(2, 20, 30),
                    get(2, 40, 50),
                    get(1, 60, 70),
                ],
            ),
            (
                "a duplicate apply of a retried put: 1 is seen, overwritten, seen again",
                vec![
                    put(1, 0, 100),
                    get(1, 5, 8),
                    put(2, 10, 20),
                    get(2, 30, 40),
                    get(1, 60, 70),
                ],
            ),
            (
                "a new-old inversion: 2 is seen before it is acknowledged, then 1",
                vec![
                    put(1, 0, 10),
                    put(2, 20, 200),
                    get(2, 30, 40),
                    get(1, 50, 60),
                ],
            ),
            (
                "a new-old inversion over a maybe-applied put",
                vec![
                    put(1, 0, 10),
                    open_put(2, 20),
                    get(2, 30, 40),
                    get(1, 50, 60),
                ],
            ),
        ];
        for (what, ops) in rows {
            assert!(verdict(ops).is_err(), "{what}");
        }
    }

    /// The rule this checker replaced bounded a get's value between the
    /// largest acknowledged before its invoke and the largest invoked
    /// before its return, with one writer per key writing 1, 2, 3, ...
    /// It passes every get of a new-old inversion.
    #[test]
    fn the_new_old_inversion_passes_the_old_bounds_but_not_the_checker() {
        let ops = [
            put(1, 0, 10),
            put(2, 20, 200),
            get(2, 30, 40),
            get(1, 50, 60),
        ];
        for g in &ops {
            let Kind::Get(Some(v)) = g.kind else { continue };
            let largest = |keep: &dyn Fn(&Op<&str, u64>) -> bool| {
                let puts = ops.iter().filter(|p| keep(p));
                puts.filter_map(|p| match p.kind {
                    Kind::Put(v) => Some(v),
                    Kind::Get(_) => None,
                })
                .max()
                .unwrap_or(0)
            };
            let lo = largest(&|p| p.ret.is_some_and(|r| r < g.invoke));
            let hi = largest(&|p| Some(p.invoke) <= g.ret);
            assert!(lo <= v && v <= hi, "the old rule rejects {v}");
        }
        let v = verdict(&ops).expect_err("the inversion is rejected");
        assert_eq!(v.ops.len(), 4, "every operation is needed: {v}");
    }

    #[test]
    fn the_witness_is_the_failing_prefix_less_what_the_failure_does_not_need() {
        let mut ops = vec![put(1, 0, 10), get(1, 12, 14), put(2, 20, 30)];
        ops.extend([get(1, 40, 50), get(1, 60, 70), put(3, 80, 90)]);
        let v = verdict(&ops).expect_err("a stale read");
        assert_eq!(v.key, "k");
        assert_eq!(v.ops, [put(1, 0, 10), put(2, 20, 30), get(1, 40, 50)]);
        // A put pending at the failing return is left open in the witness.
        let ops = vec![
            put(1, 0, 10),
            get(1, 20, 30),
            put(2, 35, 100),
            get(2, 40, 50),
            get(1, 60, 70),
            get(2, 110, 120),
        ];
        let v = verdict(&ops).expect_err("a new-old inversion");
        assert!(v.ops.contains(&open_put(2, 35)), "{v}");
        assert!(v
            .to_string()
            .contains("put 2 invoked 35.000 ms, never returned"));
    }

    #[test]
    fn keys_are_checked_apart_and_the_first_failing_key_is_named() {
        let on = |key, op: Op<&'static str, u64>| Op { key, ..op };
        let ops = vec![
            on("a", put(1, 0, 10)),
            on("b", put(1, 0, 10)),
            on("c", put(5, 0, 10)),
            on("b", put(2, 20, 30)),
            // "a" still reads 1 after "b" moved on: no cross-key order.
            on("a", get(1, 40, 50)),
            on("c", get(5, 40, 50)),
            on("b", get(1, 40, 50)),
            on("c", get(0, 60, 70)),
        ];
        let v = verdict(&ops).expect_err("b is stale, c lost its value");
        assert_eq!(v.key, "b");
        assert_eq!(v.ops.len(), 3, "{v}");
    }

    /// A long closed-loop history stays cheap: each step is taken once.
    #[test]
    fn a_long_history_with_overlapping_writers_and_open_puts_passes() {
        let mut ops = Vec::new();
        for i in 0..2_000u64 {
            let t = 10 * i;
            ops.push(put(i + 1, t, t + 25));
            if i % 7 == 0 {
                ops.push(open_put(1_000_000 + i, t));
            }
            ops.push(get(i, t + 1, t + 2));
        }
        assert_eq!(verdict(&ops), Ok(()));
    }
}
