//! Slowness propagation graphs (SPGs).
//!
//! §3.3: *"Based on linking the coroutines, DepFast can generate slowness
//! propagation graphs (SPGs) at runtime. [...] Each edge is directed — the
//! direction suggests the waiting-for relationship. Each edge is colored: a
//! wait on a basic event (e.g., an RpcEvent) contributes to a red edge; a
//! wait on a QuorumEvent contributes to a green edge."*
//!
//! [`build`] reconstructs, from a full trace, every *wait group*: node `A`
//! waited for `k` of the events targeting nodes `{B₁…Bₙ}`. Singular remote
//! waits (`k = n = 1` on an RPC) are the red edges; quorum waits are green
//! with a `k/n` label — exactly the Figure 2 visualization, which
//! [`Spg::to_dot`] emits in Graphviz form.

use std::collections::{BTreeMap, BTreeSet};

use simkit::{NodeId, SimTime};

use crate::event::{EventId, EventKind};
use crate::runtime::CoroId;
use crate::trace::{TraceIndex, TraceRecord};

/// Color of an SPG edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EdgeKind {
    /// Red: a wait whose completion hinges on one specific remote node.
    Singular,
    /// Green: a wait that tolerates stragglers (k of n).
    Quorum,
}

/// One reconstructed waiting point: `waiter` needed `k` of the events
/// targeting `targets`.
#[derive(Debug, Clone)]
pub struct WaitGroup {
    /// Node that waited.
    pub waiter: NodeId,
    /// Coroutine that waited, if the wait happened inside one.
    pub coro: Option<CoroId>,
    /// Label of the waiting coroutine (`"?"` if unknown).
    pub coro_label: &'static str,
    /// Label of the waited-on event.
    pub event_label: &'static str,
    /// Remote nodes the wait depended on (one entry per dependence; a
    /// node appearing twice counts twice toward `k`).
    pub targets: Vec<NodeId>,
    /// Successes required *among the remote targets* (local children —
    /// e.g. the leader's own WAL write inside a replication quorum — have
    /// already been discounted).
    pub k: usize,
    /// Edge color this group contributes.
    pub kind: EdgeKind,
    /// Display label numerator (the quorum's full threshold).
    pub label_k: usize,
    /// Display label denominator (the quorum's full child count).
    pub label_n: usize,
    /// When the wait began.
    pub t: SimTime,
}

/// An aggregated directed edge of the SPG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpgEdge {
    /// Waiting node.
    pub from: NodeId,
    /// Waited-on node.
    pub to: NodeId,
    /// Color.
    pub kind: EdgeKind,
    /// Quorum label, e.g. `"2/3"` or `"1/1"`.
    pub label: String,
    /// Number of waits aggregated into this edge.
    pub count: u64,
}

/// A slowness propagation graph reconstructed from a trace.
#[derive(Debug, Clone, Default)]
pub struct Spg {
    /// Every reconstructed waiting point (used by `verify`).
    pub groups: Vec<WaitGroup>,
}

/// Builds an SPG from full trace records.
///
/// Requires the tracer to have been in full-recording mode
/// ([`crate::Tracer::set_record_full`]) during the run.
pub fn build(records: &[TraceRecord]) -> Spg {
    let index = TraceIndex::build(records);
    let mut groups = Vec::new();
    for rec in records {
        let TraceRecord::WaitBegin {
            t,
            node,
            coro,
            coro_label,
            event,
            quorum,
        } = rec
        else {
            continue;
        };
        let coro_label = if *coro_label != "?" {
            coro_label
        } else {
            coro.and_then(|c| index.coros.get(&c))
                .map_or("?", |c| c.label)
        };
        collect_groups(
            &index,
            *event,
            *quorum,
            *node,
            *coro,
            coro_label,
            *t,
            &mut groups,
        );
    }
    Spg { groups }
}

/// Every remote (RPC) leaf target under `event`, in child order.
fn leaf_targets(index: &TraceIndex, event: EventId, out: &mut Vec<NodeId>) {
    let Some(info) = index.events.get(&event) else {
        return;
    };
    match info.kind {
        EventKind::Rpc { target } => out.push(target),
        EventKind::Quorum | EventKind::And | EventKind::Or => {
            for c in index.children_of(event) {
                leaf_targets(index, *c, out);
            }
        }
        _ => {}
    }
}

/// Splits a compound event's children into remote leaf targets and the
/// count of purely-local children.
fn split_children(index: &TraceIndex, children: &[EventId]) -> (Vec<NodeId>, usize) {
    let mut targets = Vec::new();
    let mut local = 0;
    for c in children {
        let mut t = Vec::new();
        leaf_targets(index, *c, &mut t);
        if t.is_empty() {
            local += 1;
        } else {
            targets.extend(t);
        }
    }
    (targets, local)
}

#[allow(clippy::too_many_arguments)]
fn collect_groups(
    index: &TraceIndex,
    event: EventId,
    wait_quorum: Option<(usize, usize)>,
    waiter: NodeId,
    coro: Option<CoroId>,
    coro_label: &'static str,
    t: SimTime,
    out: &mut Vec<WaitGroup>,
) {
    let Some(info) = index.events.get(&event) else {
        return;
    };
    let children = index.children_of(event);
    // A requirement over remote targets. If every remote dependence is on
    // one single node, the wait is semantically singular on that node (the
    // paper's red edge) no matter how it was composed.
    let push = |out: &mut Vec<WaitGroup>,
                targets: Vec<NodeId>,
                k: usize,
                label_k: usize,
                label_n: usize,
                kind: EdgeKind| {
        if targets.is_empty() || k == 0 {
            return; // Purely local, or locally satisfiable.
        }
        let distinct: std::collections::BTreeSet<NodeId> = targets.iter().copied().collect();
        if distinct.len() == 1 {
            out.push(WaitGroup {
                waiter,
                coro,
                coro_label,
                event_label: info.label,
                targets: vec![*distinct.iter().next().expect("non-empty")],
                k: 1,
                kind: EdgeKind::Singular,
                label_k: 1,
                label_n: 1,
                t,
            });
        } else {
            out.push(WaitGroup {
                waiter,
                coro,
                coro_label,
                event_label: info.label,
                targets,
                k,
                kind,
                label_k,
                label_n,
                t,
            });
        }
    };
    match info.kind {
        EventKind::Rpc { target } => {
            push(out, vec![target], 1, 1, 1, EdgeKind::Singular);
        }
        EventKind::Quorum => {
            let n_children = children.len();
            let (k, _n) = wait_quorum
                .or(index.quorum_meta.get(&event).copied())
                .unwrap_or((n_children / 2 + 1, n_children));
            // An all-mode quorum over compound children — a quorum of
            // quorums — requires every child individually, so each nested
            // quorum keeps its own threshold (recovered from the
            // `parent_meta` snapshots in `ChildAdded` records). Partial
            // (k < n) outer thresholds over compound children stay
            // flattened below: the flat WaitGroup form cannot express
            // "k of these sub-requirements".
            let compound: Vec<EventId> = children
                .iter()
                .copied()
                .filter(|c| {
                    matches!(
                        index.events.get(c).map(|i| i.kind),
                        Some(EventKind::Quorum | EventKind::And | EventKind::Or)
                    )
                })
                .collect();
            if k == n_children && !compound.is_empty() {
                for c in &compound {
                    let meta = index.quorum_meta.get(c).copied();
                    collect_groups(index, *c, meta, waiter, coro, coro_label, t, out);
                }
                let simple: Vec<EventId> = children
                    .iter()
                    .copied()
                    .filter(|c| !compound.contains(c))
                    .collect();
                let (targets, local) = split_children(index, &simple);
                let k_remote = simple.len().saturating_sub(local);
                push(out, targets, k_remote, k, n_children, EdgeKind::Quorum);
                return;
            }
            let (targets, local) = split_children(index, children);
            // Local children (own disk write, self vote) are assumed to
            // succeed; the remote requirement shrinks accordingly.
            let k_remote = k.saturating_sub(local);
            push(out, targets, k_remote, k, n_children, EdgeKind::Quorum);
        }
        EventKind::And => {
            // Each conjunct is its own requirement: recurse per child so a
            // nested quorum keeps its own threshold.
            for c in children {
                let meta = index.quorum_meta.get(c).copied();
                collect_groups(index, *c, meta, waiter, coro, coro_label, t, out);
            }
        }
        EventKind::Or => {
            // Any branch suffices. A fully-local branch means the wait can
            // resolve without any remote node; otherwise it needs one of
            // the union of leaf dependences (a conservative green edge).
            let (targets, local) = split_children(index, children);
            let k_remote = if local > 0 { 0 } else { 1 };
            push(out, targets, k_remote, 1, children.len(), EdgeKind::Quorum);
        }
        // Local waits (notify, value, timer, io) do not produce SPG edges.
        _ => {}
    }
}

impl Spg {
    /// Aggregated directed edges, ordered by (from, to, kind, label).
    pub fn edges(&self) -> Vec<SpgEdge> {
        let mut agg: BTreeMap<(u32, u32, EdgeKind, String), u64> = BTreeMap::new();
        for g in &self.groups {
            let label = format!("{}/{}", g.label_k, g.label_n);
            for t in &g.targets {
                *agg.entry((g.waiter.0, t.0, g.kind, label.clone()))
                    .or_insert(0) += 1;
            }
        }
        agg.into_iter()
            .map(|((from, to, kind, label), count)| SpgEdge {
                from: NodeId(from),
                to: NodeId(to),
                kind,
                label,
                count,
            })
            .collect()
    }

    /// All nodes appearing in the graph.
    pub fn nodes(&self) -> BTreeSet<NodeId> {
        let mut s = BTreeSet::new();
        for g in &self.groups {
            s.insert(g.waiter);
            s.extend(g.targets.iter().copied());
        }
        s
    }

    /// Renders the SPG as Graphviz DOT, Figure 2 style: red edges for
    /// singular waits, green for quorum waits, labels like `2/3`.
    ///
    /// `name` maps node ids to display names (e.g. `s1`..`s9`, `c1`..`c3`).
    pub fn to_dot(&self, name: impl Fn(NodeId) -> String) -> String {
        let mut out = String::from("digraph spg {\n  rankdir=LR;\n  node [shape=circle];\n");
        for n in self.nodes() {
            out.push_str(&format!("  \"{}\";\n", name(n)));
        }
        for e in self.edges() {
            let color = match e.kind {
                EdgeKind::Singular => "red",
                EdgeKind::Quorum => "green",
            };
            out.push_str(&format!(
                "  \"{}\" -> \"{}\" [color={}, label=\"{}\", penwidth={}];\n",
                name(e.from),
                name(e.to),
                color,
                e.label,
                1.0 + (e.count as f64).log10().max(0.0),
            ));
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventHandle, Notify, QuorumEvent, Watchable};
    use crate::runtime::{Coroutine, Runtime};
    use crate::trace::Tracer;
    use simkit::Sim;

    fn traced_rt(node: u32) -> (Sim, Runtime) {
        let sim = Sim::new(1);
        let tracer = Tracer::new();
        tracer.set_record_full(true);
        let rt = Runtime::with_tracer(sim.clone(), NodeId(node), tracer);
        (sim, rt)
    }

    fn rpc_like(rt: &Runtime, target: u32) -> EventHandle {
        EventHandle::new(
            rt,
            EventKind::Rpc {
                target: NodeId(target),
            },
            "append_entries",
        )
    }

    #[test]
    fn singular_rpc_wait_is_red_edge() {
        let (sim, rt) = traced_rt(0);
        let e = rpc_like(&rt, 2);
        let rt2 = rt.clone();
        Coroutine::create(&rt, "replicate", async move {
            let e2 = e.clone();
            rt2.schedule_call(rt2.now() + std::time::Duration::from_millis(1), move || {
                e2.fire(crate::event::Signal::Ok)
            });
            e.wait().await;
        });
        sim.run();
        let spg = build(&rt.tracer().records());
        let edges = spg.edges();
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].from, NodeId(0));
        assert_eq!(edges[0].to, NodeId(2));
        assert_eq!(edges[0].kind, EdgeKind::Singular);
        assert_eq!(edges[0].label, "1/1");
    }

    #[test]
    fn quorum_wait_is_green_edges_with_k_of_n() {
        let (sim, rt) = traced_rt(0);
        let q = QuorumEvent::majority(&rt);
        for t in 1..=3u32 {
            let e = rpc_like(&rt, t);
            q.add(&e);
            e.fire(crate::event::Signal::Ok);
        }
        let q2 = q.clone();
        Coroutine::create(&rt, "replicate", async move {
            q2.handle().wait().await;
        });
        sim.run();
        let spg = build(&rt.tracer().records());
        let edges = spg.edges();
        assert_eq!(edges.len(), 3);
        for e in &edges {
            assert_eq!(e.kind, EdgeKind::Quorum);
            assert_eq!(e.label, "2/3");
        }
    }

    #[test]
    fn local_waits_produce_no_edges() {
        let (sim, rt) = traced_rt(0);
        let n = Notify::new(&rt);
        n.set(crate::event::Signal::Ok);
        let h = n.handle().clone();
        Coroutine::create(&rt, "local", async move {
            h.wait().await;
        });
        sim.run();
        let spg = build(&rt.tracer().records());
        assert!(spg.edges().is_empty());
    }

    #[test]
    fn dot_output_contains_colors_and_labels() {
        let (sim, rt) = traced_rt(0);
        let q = QuorumEvent::majority(&rt);
        for t in 1..=3u32 {
            let e = rpc_like(&rt, t);
            q.add(&e);
            e.fire(crate::event::Signal::Ok);
        }
        let q2 = q.clone();
        Coroutine::create(&rt, "replicate", async move {
            q2.handle().wait().await;
        });
        sim.run();
        let spg = build(&rt.tracer().records());
        let dot = spg.to_dot(|n| format!("s{}", n.0 + 1));
        assert!(dot.contains("color=green"));
        assert!(dot.contains("label=\"2/3\""));
        assert!(dot.contains("\"s1\" -> \"s2\""));
    }

    #[test]
    fn nested_and_of_quorums_keeps_child_thresholds() {
        let (sim, rt) = traced_rt(0);
        let and = crate::event::AndEvent::new(&rt);
        for shard in 0..2u32 {
            let q = QuorumEvent::majority(&rt);
            for i in 0..3u32 {
                let e = rpc_like(&rt, 1 + shard * 3 + i);
                q.add(&e);
                e.fire(crate::event::Signal::Ok);
            }
            and.add(&q);
        }
        Coroutine::create(&rt, "txn", async move {
            and.wait().await;
        });
        sim.run();
        let spg = build(&rt.tracer().records());
        // Two quorum groups of 3 targets each, k=2.
        let quorum_groups: Vec<_> = spg
            .groups
            .iter()
            .filter(|g| g.kind == EdgeKind::Quorum)
            .collect();
        assert_eq!(quorum_groups.len(), 2);
        for g in quorum_groups {
            assert_eq!(g.k, 2);
            assert_eq!(g.targets.len(), 3);
        }
    }
}
