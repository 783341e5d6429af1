//! Slowness propagation graphs (SPGs).
//!
//! §3.3: *"Based on linking the coroutines, DepFast can generate slowness
//! propagation graphs (SPGs) at runtime. [...] Each edge is directed — the
//! direction suggests the waiting-for relationship. Each edge is colored: a
//! wait on a basic event (e.g., an RpcEvent) contributes to a red edge; a
//! wait on a QuorumEvent contributes to a green edge."*
//!
//! The graph is folded at runtime, once per wait, when the wait begins
//! ([`Tracer::install_spg_fold`](crate::Tracer::install_spg_fold)). The
//! awaited event and its compound children, read off their live tallies,
//! are a `Shape`; the pure law `wait_groups` turns it into *wait groups*:
//! node `A` waited for `k` of the events targeting nodes `{B₁…Bₙ}`.
//! Singular remote waits (`k = n = 1` on an RPC) are the red edges; quorum
//! waits are green with a `k/n` label — exactly the Figure 2 visualization,
//! which [`Spg::to_dot`] emits in Graphviz form. A wait that never ends —
//! one parked on a fail-slow node — is folded like any other.

use std::collections::{BTreeMap, BTreeSet};

use simkit::NodeId;

use crate::event::EventKind;

/// Color of an SPG edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EdgeKind {
    /// Red: a wait whose completion hinges on one specific remote node.
    Singular,
    /// Green: a wait that tolerates stragglers (k of n).
    Quorum,
}

/// One waiting point: `waiter` needed `k` of the events targeting
/// `targets`, `count` times.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaitGroup {
    /// Node that waited.
    pub waiter: NodeId,
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
    /// Waits folded into this waiting point.
    pub count: u64,
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

/// A slowness propagation graph, folded from the waits of a run.
#[derive(Debug, Clone, Default)]
pub struct Spg {
    /// Every distinct waiting point, in the order first seen (used by
    /// `verify`).
    pub groups: Vec<WaitGroup>,
}

/// What one wait waits for, as far as slowness can travel: the awaited
/// event and, for a compound one, its threshold and children.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Shape {
    /// Structural kind.
    pub kind: EventKind,
    /// The event's label (the `event_label` of the groups it yields).
    pub label: &'static str,
    /// Success threshold of a compound event (0 otherwise).
    pub k: usize,
    /// Children of a compound event, in add order.
    pub children: Vec<Shape>,
}

impl Shape {
    fn is_compound(&self) -> bool {
        matches!(
            self.kind,
            EventKind::Quorum | EventKind::And | EventKind::Or
        )
    }

    /// Every remote (RPC) leaf target under `self`, in child order.
    fn leaf_targets(&self, out: &mut Vec<NodeId>) {
        match self.kind {
            EventKind::Rpc { target } => out.push(target),
            _ => self.children.iter().for_each(|c| c.leaf_targets(out)),
        }
    }
}

/// The remote leaf targets under `children`, and how many of them have
/// none (purely local children).
fn split<'a>(children: impl IntoIterator<Item = &'a Shape>) -> (Vec<NodeId>, usize) {
    let mut targets = Vec::new();
    let mut local = 0;
    for c in children {
        let before = targets.len();
        c.leaf_targets(&mut targets);
        local += usize::from(targets.len() == before);
    }
    (targets, local)
}

/// The waiting points one wait of coroutine `coro_label` on `waiter` puts
/// on remote nodes, each with `count` 1 — the SPG's one law:
///
/// - an RPC is a red `1/1` requirement on its target;
/// - a quorum needs `k` of its children's leaf targets, with local
///   children (own disk write, self vote) assumed to succeed and discounted
///   from `k`;
/// - an all-of quorum over compound children (a quorum of quorums) needs
///   each nested child with its own threshold; a partial one stays
///   flattened, as a flat group cannot say "k of these sub-requirements";
/// - an `And` needs each child;
/// - an `Or` with a local branch needs no remote node, otherwise one of its
///   leaf targets (a conservative green `1/n`);
/// - a requirement whose remote targets are all on one node is a red `1/1`
///   on that node, however it was composed.
pub(crate) fn wait_groups(
    waiter: NodeId,
    coro_label: &'static str,
    shape: &Shape,
) -> Vec<WaitGroup> {
    let mut out = Vec::new();
    requirements(shape, &mut |event_label, targets, k, (label_k, label_n)| {
        if targets.is_empty() || k == 0 {
            return; // Purely local, or locally satisfiable.
        }
        let (targets, k, kind, label_k, label_n) = if targets.iter().all(|t| *t == targets[0]) {
            (vec![targets[0]], 1, EdgeKind::Singular, 1, 1)
        } else {
            (targets, k, EdgeKind::Quorum, label_k, label_n)
        };
        out.push(WaitGroup {
            waiter,
            coro_label,
            event_label,
            targets,
            k,
            kind,
            label_k,
            label_n,
            count: 1,
        });
    });
    out
}

/// Calls `need(event label, remote targets, k, display k/n)` once per
/// requirement a wait on `shape` makes.
fn requirements(
    shape: &Shape,
    need: &mut dyn FnMut(&'static str, Vec<NodeId>, usize, (usize, usize)),
) {
    let (k, n) = (shape.k, shape.children.len());
    match shape.kind {
        EventKind::Rpc { target } => need(shape.label, vec![target], 1, (1, 1)),
        EventKind::Quorum => {
            let nested = k == n && shape.children.iter().any(Shape::is_compound);
            let (compound, simple): (Vec<&Shape>, Vec<&Shape>) = shape
                .children
                .iter()
                .partition(|c| nested && c.is_compound());
            compound.into_iter().for_each(|c| requirements(c, need));
            let k_simple = if nested { simple.len() } else { k };
            let (targets, local) = split(simple);
            need(shape.label, targets, k_simple.saturating_sub(local), (k, n));
        }
        EventKind::And => shape.children.iter().for_each(|c| requirements(c, need)),
        EventKind::Or => {
            let (targets, local) = split(&shape.children);
            need(shape.label, targets, usize::from(local == 0), (1, n));
        }
        // Local waits (notify, value, timer, io, phase) need no remote node.
        _ => {}
    }
}

impl Spg {
    /// Folds one wait of coroutine `coro_label` on `waiter`, on an event of
    /// `shape`, into its waiting points.
    pub(crate) fn fold(&mut self, waiter: NodeId, coro_label: &'static str, shape: &Shape) {
        for mut g in wait_groups(waiter, coro_label, shape) {
            // Equal but for the count is the same waiting point.
            let seen = self.groups.iter_mut().find(|old| {
                g.count = old.count;
                **old == g
            });
            match seen {
                Some(old) => old.count += 1,
                None => self.groups.push(WaitGroup { count: 1, ..g }),
            }
        }
    }

    /// Aggregated directed edges, ordered by (from, to, kind, label).
    pub fn edges(&self) -> Vec<SpgEdge> {
        let mut agg: BTreeMap<(u32, u32, EdgeKind, String), u64> = BTreeMap::new();
        for g in &self.groups {
            let label = format!("{}/{}", g.label_k, g.label_n);
            for t in &g.targets {
                *agg.entry((g.waiter.0, t.0, g.kind, label.clone()))
                    .or_insert(0) += g.count;
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
    use crate::event::{EventHandle, Notify, QuorumEvent, Signal, Watchable};
    use crate::runtime::{Coroutine, Runtime};
    use simkit::Sim;
    use std::time::Duration;

    fn folding_rt(node: u32) -> (Sim, Runtime) {
        let sim = Sim::new(1);
        let rt = Runtime::new_sim(sim.clone(), NodeId(node));
        rt.tracer().install_spg_fold();
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

    fn shape(kind: EventKind, label: &'static str, k: usize, children: Vec<Shape>) -> Shape {
        Shape {
            kind,
            label,
            k,
            children,
        }
    }

    fn rpc(target: u32) -> Shape {
        let kind = EventKind::Rpc {
            target: NodeId(target),
        };
        shape(kind, "rpc", 0, Vec::new())
    }

    fn local() -> Shape {
        shape(EventKind::Io, "wal", 0, Vec::new())
    }

    fn quorum(label: &'static str, k: usize, children: Vec<Shape>) -> Shape {
        shape(EventKind::Quorum, label, k, children)
    }

    fn replicas(first: u32) -> Vec<Shape> {
        (first..first + 3).map(rpc).collect()
    }

    #[test]
    fn requirement_law_table() {
        use EdgeKind::{Quorum as Green, Singular as Red};
        type Want = (&'static str, Vec<u32>, usize, EdgeKind, (usize, usize));
        let table: Vec<(&str, Shape, Vec<Want>)> = vec![
            (
                "an rpc is a red 1/1 on its target",
                rpc(2),
                vec![("rpc", vec![2], 1, Red, (1, 1))],
            ),
            ("a purely local wait needs no remote node", local(), vec![]),
            (
                "local children are discounted from k",
                quorum("q", 2, vec![local(), rpc(1), rpc(2)]),
                vec![("q", vec![1, 2], 1, Green, (2, 3))],
            ),
            (
                "a quorum of local children needs no remote node",
                quorum("q", 2, vec![local(), local(), rpc(1)]),
                vec![],
            ),
            (
                "remote targets all on one node collapse to a red 1/1",
                quorum("q", 2, vec![local(), rpc(1)]),
                vec![("q", vec![1], 1, Red, (1, 1))],
            ),
            (
                "a duplicate target counts twice toward k",
                quorum("q", 2, vec![rpc(1), rpc(1), rpc(2)]),
                vec![("q", vec![1, 1, 2], 2, Green, (2, 3))],
            ),
            (
                "an and needs each child, under each child's label",
                shape(
                    EventKind::And,
                    "and",
                    3,
                    vec![quorum("q", 2, replicas(1)), rpc(4), local()],
                ),
                vec![
                    ("q", vec![1, 2, 3], 2, Green, (2, 3)),
                    ("rpc", vec![4], 1, Red, (1, 1)),
                ],
            ),
            (
                "an all-of quorum over compound children keeps each nested threshold",
                quorum(
                    "outer",
                    3,
                    vec![
                        quorum("s1", 2, replicas(1)),
                        quorum("s2", 2, replicas(4)),
                        rpc(7),
                    ],
                ),
                vec![
                    ("s1", vec![1, 2, 3], 2, Green, (2, 3)),
                    ("s2", vec![4, 5, 6], 2, Green, (2, 3)),
                    ("outer", vec![7], 1, Red, (1, 1)),
                ],
            ),
            (
                "a partial quorum over compound children stays flattened",
                quorum(
                    "outer",
                    1,
                    vec![quorum("s1", 2, replicas(1)), quorum("s2", 2, replicas(4))],
                ),
                vec![("outer", vec![1, 2, 3, 4, 5, 6], 1, Green, (1, 2))],
            ),
            (
                "an or with a local branch needs no remote node",
                shape(EventKind::Or, "or", 1, vec![local(), rpc(1)]),
                vec![],
            ),
            (
                "an or over remote branches needs one of them",
                shape(EventKind::Or, "or", 1, vec![rpc(1), rpc(2)]),
                vec![("or", vec![1, 2], 1, Green, (1, 2))],
            ),
        ];
        for (what, shape, want) in table {
            let got: Vec<Want> = wait_groups(NodeId(0), "c", &shape)
                .into_iter()
                .map(|g| {
                    assert_eq!((g.waiter, g.coro_label, g.count), (NodeId(0), "c", 1));
                    let targets = g.targets.iter().map(|t| t.0).collect();
                    (g.event_label, targets, g.k, g.kind, (g.label_k, g.label_n))
                })
                .collect();
            assert_eq!(got, want, "{what}");
        }
    }

    #[test]
    fn singular_rpc_wait_is_red_edge() {
        let (sim, rt) = folding_rt(0);
        let e = rpc_like(&rt, 2);
        let rt2 = rt.clone();
        Coroutine::create(&rt, "replicate", async move {
            let e2 = e.clone();
            rt2.schedule_call(rt2.now() + Duration::from_millis(1), move || {
                e2.fire(Signal::Ok)
            });
            e.wait().await;
        });
        sim.run();
        let spg = rt.tracer().finish_spg_fold();
        let edges = spg.edges();
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].from, NodeId(0));
        assert_eq!(edges[0].to, NodeId(2));
        assert_eq!(edges[0].kind, EdgeKind::Singular);
        assert_eq!(edges[0].label, "1/1");
    }

    #[test]
    fn a_wait_that_never_ends_is_a_red_edge() {
        let (sim, rt) = folding_rt(0);
        // Node 2 never answers: the coroutine stays parked for good.
        let e = rpc_like(&rt, 2);
        Coroutine::create(&rt, "replicate", async move {
            e.wait().await;
        });
        sim.run();
        let edges = rt.tracer().finish_spg_fold().edges();
        let red = SpgEdge {
            from: NodeId(0),
            to: NodeId(2),
            kind: EdgeKind::Singular,
            label: "1/1".into(),
            count: 1,
        };
        assert_eq!(edges, vec![red]);
    }

    #[test]
    fn identical_waits_fold_into_one_waiting_point() {
        let (sim, rt) = folding_rt(0);
        let rt2 = rt.clone();
        Coroutine::create(&rt, "replicate", async move {
            for _ in 0..5 {
                let e = rpc_like(&rt2, 2);
                let e2 = e.clone();
                rt2.schedule_call(rt2.now() + Duration::from_millis(1), move || {
                    e2.fire(Signal::Ok)
                });
                e.wait().await;
            }
        });
        sim.run();
        let spg = rt.tracer().finish_spg_fold();
        assert_eq!(spg.groups.len(), 1, "groups: {:?}", spg.groups);
        assert_eq!(spg.groups[0].count, 5);
        let edges = spg.edges();
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].count, 5);
    }

    #[test]
    fn quorum_wait_is_green_edges_with_k_of_n() {
        let (sim, rt) = folding_rt(0);
        let q = QuorumEvent::majority(&rt);
        for t in 1..=3u32 {
            let e = rpc_like(&rt, t);
            q.add(&e);
            e.fire(Signal::Ok);
        }
        let q2 = q.clone();
        Coroutine::create(&rt, "replicate", async move {
            q2.handle().wait().await;
        });
        sim.run();
        let spg = rt.tracer().finish_spg_fold();
        let edges = spg.edges();
        assert_eq!(edges.len(), 3);
        for e in &edges {
            assert_eq!(e.kind, EdgeKind::Quorum);
            assert_eq!(e.label, "2/3");
        }
    }

    #[test]
    fn local_waits_produce_no_edges() {
        let (sim, rt) = folding_rt(0);
        let n = Notify::new(&rt);
        n.set(Signal::Ok);
        let h = n.handle().clone();
        Coroutine::create(&rt, "local", async move {
            h.wait().await;
        });
        sim.run();
        let spg = rt.tracer().finish_spg_fold();
        assert!(spg.edges().is_empty());
    }

    #[test]
    fn dot_output_contains_colors_and_labels() {
        let (sim, rt) = folding_rt(0);
        let q = QuorumEvent::majority(&rt);
        for t in 1..=3u32 {
            let e = rpc_like(&rt, t);
            q.add(&e);
            e.fire(Signal::Ok);
        }
        let q2 = q.clone();
        Coroutine::create(&rt, "replicate", async move {
            q2.handle().wait().await;
        });
        sim.run();
        let spg = rt.tracer().finish_spg_fold();
        let dot = spg.to_dot(|n| format!("s{}", n.0 + 1));
        assert!(dot.contains("color=green"));
        assert!(dot.contains("label=\"2/3\""));
        assert!(dot.contains("\"s1\" -> \"s2\""));
    }

    #[test]
    fn nested_and_of_quorums_keeps_child_thresholds() {
        let (sim, rt) = folding_rt(0);
        let and = crate::event::AndEvent::new(&rt);
        for shard in 0..2u32 {
            let q = QuorumEvent::majority(&rt);
            for i in 0..3u32 {
                let e = rpc_like(&rt, 1 + shard * 3 + i);
                q.add(&e);
                e.fire(Signal::Ok);
            }
            and.add(&q);
        }
        Coroutine::create(&rt, "txn", async move {
            and.wait().await;
        });
        sim.run();
        let spg = rt.tracer().finish_spg_fold();
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
