//! Output verification: what the clients observed and what the replicas
//! hold must be a history a linearizable store could have produced.
//!
//! Checked after the drain, per repetition:
//!
//! 1. all replicas of a group report the same `applied()` and identical
//!    `local_get` on a sample of up to 1 000 keys;
//! 2. each sampled key's final value is one that was written to it, and
//!    is not a write acknowledged before another acknowledged write to
//!    that key was invoked (that later write must have overwritten it);
//! 3. no get returned a value older than the last update acknowledged
//!    before the get was invoked.
//!
//! A write the client gave up on may still have been applied, so it is
//! accepted as a final or read value but never proves another one stale.
//! Every violation counts as one failed operation.

use std::collections::BTreeMap;

use crate::adapter::{Bed, Bytes};
use crate::workload::{fingerprint, OpRec};

const SAMPLE_KEYS: usize = 1000;

/// The outcome of [`check`].
pub struct Verdict {
    pub failures: u64,
    pub first: Option<String>,
}

impl Verdict {
    fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failures += 1;
        if self.first.is_none() {
            self.first = Some(what());
        }
    }
}

/// `true` when every replica of every group has applied the same number
/// of commands.
pub fn replicas_agree(bed: &Bed) -> bool {
    bed.applied()
        .iter()
        .all(|group| group.iter().all(|a| *a == group[0]))
}

struct Write {
    value: u128,
    invoke_ns: u64,
    done_ns: u64,
    ok: bool,
}

/// `w` was acknowledged, and an acknowledged write that was invoked after
/// that acknowledgement had itself been acknowledged by `before_ns`: a
/// reader starting at `before_ns` must not see `w`.
fn overwritten(writes: &[Write], w: &Write, before_ns: u64) -> bool {
    w.ok && writes
        .iter()
        .any(|w2| w2.ok && w2.invoke_ns > w.done_ns && w2.done_ns < before_ns)
}

fn show(key: &Bytes) -> String {
    String::from_utf8_lossy(key).into_owned()
}

/// Checks the history `ops` against the replicas of `bed`.
pub fn check(bed: &Bed, ops: &[OpRec], check_reads: bool) -> Verdict {
    let mut v = Verdict {
        failures: 0,
        first: None,
    };
    for (g, applied) in bed.applied().iter().enumerate() {
        if applied.iter().any(|a| *a != applied[0]) {
            v.fail(|| format!("group {g}: replicas applied {applied:?}"));
        }
    }

    let mut writes: BTreeMap<&Bytes, Vec<Write>> = BTreeMap::new();
    for op in ops.iter().filter(|op| !op.read) {
        writes.entry(&op.key).or_default().push(Write {
            value: op.value.expect("a write has a value"),
            invoke_ns: op.invoke_ns,
            done_ns: op.done_ns,
            ok: op.ok,
        });
    }

    let stride = writes.len().div_ceil(SAMPLE_KEYS).max(1);
    for (key, ws) in writes.iter().step_by(stride) {
        let replicas = bed.local_get(bed.group_of(key), key);
        if replicas.iter().any(|r| *r != replicas[0]) {
            v.fail(|| format!("key {}: replicas hold different values", show(key)));
            continue;
        }
        let held = replicas[0].as_ref().map(fingerprint);
        match held.and_then(|fp| ws.iter().find(|w| w.value == fp)) {
            None if ws.iter().any(|w| w.ok) => {
                v.fail(|| format!("key {}: final value was never written to it", show(key)))
            }
            None => {}
            Some(w) if overwritten(ws, w, u64::MAX) => {
                v.fail(|| format!("key {}: final value had been overwritten", show(key)))
            }
            Some(_) => {}
        }
    }

    if check_reads {
        let none: Vec<Write> = Vec::new();
        for op in ops.iter().filter(|op| op.read && op.ok) {
            let ws = writes.get(&op.key).unwrap_or(&none);
            match op.value {
                None => {
                    if ws.iter().any(|w| w.ok && w.done_ns < op.invoke_ns) {
                        v.fail(|| format!("get {}: absent after a write", show(&op.key)));
                    }
                }
                Some(fp) => match ws.iter().find(|w| w.value == fp) {
                    None => v.fail(|| format!("get {}: value never written", show(&op.key))),
                    Some(w) if overwritten(ws, w, op.invoke_ns) => v.fail(|| {
                        format!(
                            "get {} at {} ns: value older than the last acknowledged update",
                            show(&op.key),
                            op.invoke_ns
                        )
                    }),
                    Some(_) => {}
                },
            }
        }
    }
    v
}
