//! The metric registry: named, per-node-scoped counters, gauges and
//! histograms behind cheap `Rc` handles.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

use crate::histogram::Histogram;
use crate::text::JsonStr;

/// Identity of one metric: a static name plus optional node scope and
/// optional tag (e.g. an RPC label).
///
/// Names are dot-separated and layer-prefixed by convention —
/// `sim.disk.service`, `rpc.buffer.bytes`, `raft.commit_lag` — see
/// `docs/OBSERVABILITY.md` for the full namespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key {
    /// Metric name (`layer.component.metric`).
    pub name: &'static str,
    /// Node the measurement belongs to, if node-scoped.
    pub node: Option<u32>,
    /// Free-form discriminator within the name (e.g. RPC label).
    pub tag: Option<&'static str>,
}

impl Key {
    /// A cluster-global metric.
    pub fn global(name: &'static str) -> Self {
        Key {
            name,
            node: None,
            tag: None,
        }
    }

    /// A metric scoped to one node.
    pub fn node(name: &'static str, node: u32) -> Self {
        Key {
            name,
            node: Some(node),
            tag: None,
        }
    }

    /// A node-scoped metric with a tag discriminator.
    pub fn tagged(name: &'static str, node: u32, tag: &'static str) -> Self {
        Key {
            name,
            node: Some(node),
            tag: Some(tag),
        }
    }
}

impl std::fmt::Display for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name)?;
        if let Some(t) = self.tag {
            write!(f, "[{t}]")?;
        }
        if let Some(n) = self.node {
            write!(f, "@n{n}")?;
        }
        Ok(())
    }
}

/// A monotonically increasing count. Saturates at `u64::MAX` instead of
/// wrapping, so a counter can never appear to move backwards.
#[derive(Clone, Debug, Default)]
pub struct Counter(Rc<Cell<u64>>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` (saturating).
    pub fn add(&self, n: u64) {
        self.0.set(self.0.get().saturating_add(n));
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.get()
    }
}

/// An instantaneous level (buffer occupancy, commit index, …).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Rc<Cell<i64>>);

impl Gauge {
    /// Sets the level.
    pub fn set(&self, v: i64) {
        self.0.set(v);
    }

    /// Adds `d` (saturating).
    pub fn add(&self, d: i64) {
        self.0.set(self.0.get().saturating_add(d));
    }

    /// Subtracts `d` (saturating).
    pub fn sub(&self, d: i64) {
        self.0.set(self.0.get().saturating_sub(d));
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.0.get()
    }
}

/// A shared handle to a registered [`Histogram`].
#[derive(Clone, Debug)]
pub struct HistogramHandle(Rc<RefCell<Histogram>>);

impl HistogramHandle {
    /// Records one sample in nanoseconds.
    pub fn record_ns(&self, nanos: u64) {
        self.0.borrow_mut().record_ns(nanos);
    }

    /// Records one [`std::time::Duration`] sample.
    pub fn record(&self, d: std::time::Duration) {
        self.0.borrow_mut().record(d);
    }

    /// Cumulative snapshot (count, totals, quantiles). Detectors diff
    /// consecutive snapshots to get per-window means.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot::from(&*self.0.borrow())
    }

    /// Runs `f` against the underlying histogram (full quantile access).
    pub fn with<T>(&self, f: impl FnOnce(&Histogram) -> T) -> T {
        f(&self.0.borrow())
    }
}

/// Point-in-time numbers extracted from a histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistSnapshot {
    /// Samples recorded so far.
    pub count: u64,
    /// Sum of samples in nanoseconds.
    pub total_ns: u128,
    /// Mean in nanoseconds (0 if empty).
    pub mean_ns: u64,
    /// Median in nanoseconds.
    pub p50_ns: u64,
    /// 99th percentile in nanoseconds.
    pub p99_ns: u64,
    /// Maximum in nanoseconds.
    pub max_ns: u64,
}

impl From<&Histogram> for HistSnapshot {
    fn from(h: &Histogram) -> Self {
        HistSnapshot {
            count: h.count(),
            total_ns: h.total_nanos(),
            mean_ns: h.mean().as_nanos() as u64,
            p50_ns: h.quantile(0.5).as_nanos() as u64,
            p99_ns: h.quantile(0.99).as_nanos() as u64,
            max_ns: h.max().as_nanos() as u64,
        }
    }
}

/// One metric's current value, as captured by snapshots and samplers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge level.
    Gauge(i64),
    /// Histogram snapshot.
    Histogram(HistSnapshot),
}

impl MetricValue {
    /// The value as a scalar: counter value, gauge level, or histogram
    /// sample count.
    pub fn scalar(&self) -> i128 {
        match self {
            MetricValue::Counter(v) => *v as i128,
            MetricValue::Gauge(v) => *v as i128,
            MetricValue::Histogram(h) => h.count as i128,
        }
    }

    /// Short kind label used in CSV output.
    pub fn kind(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        }
    }
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(HistogramHandle),
}

#[derive(Default)]
struct Inner {
    // BTreeMap: deterministic iteration order for snapshots and CSV.
    metrics: BTreeMap<Key, Metric>,
}

/// The cluster-shared metric registry. Cheap to clone (one `Rc`); one
/// registry serves every node of a simulated cluster via [`Key`] node
/// scoping.
///
/// Metrics are created lazily on first access and live for the life of
/// the registry. Accessing an existing key with a different metric kind
/// panics — names are namespaced by layer, so collisions indicate a bug.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Rc<RefCell<Inner>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter registered under `key` (created on first use).
    pub fn counter(&self, key: Key) -> Counter {
        let mut inner = self.inner.borrow_mut();
        match inner
            .metrics
            .entry(key)
            .or_insert_with(|| Metric::Counter(Counter::default()))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {key} already registered with a different kind"),
        }
    }

    /// The gauge registered under `key` (created on first use).
    pub fn gauge(&self, key: Key) -> Gauge {
        let mut inner = self.inner.borrow_mut();
        match inner
            .metrics
            .entry(key)
            .or_insert_with(|| Metric::Gauge(Gauge::default()))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {key} already registered with a different kind"),
        }
    }

    /// The histogram registered under `key` (created on first use).
    pub fn histogram(&self, key: Key) -> HistogramHandle {
        let mut inner = self.inner.borrow_mut();
        match inner.metrics.entry(key).or_insert_with(|| {
            Metric::Histogram(HistogramHandle(Rc::new(RefCell::new(Histogram::new()))))
        }) {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {key} already registered with a different kind"),
        }
    }

    /// A recording scope bound to one node: `registry.node(3).counter("x")`
    /// is `registry.counter(Key::node("x", 3))`.
    pub fn node(&self, node: u32) -> NodeScope {
        NodeScope {
            registry: self.clone(),
            node,
            tag: None,
        }
    }

    /// All histograms registered under `name`, with their keys. The
    /// fail-slow detector uses this to find every `(node, label)` RPC
    /// latency series without knowing the labels up front.
    pub fn histograms_named(&self, name: &str) -> Vec<(Key, HistogramHandle)> {
        self.inner
            .borrow()
            .metrics
            .iter()
            .filter(|(k, _)| k.name == name)
            .filter_map(|(k, m)| match m {
                Metric::Histogram(h) => Some((*k, h.clone())),
                _ => None,
            })
            .collect()
    }

    /// A deterministic snapshot of every registered metric.
    pub fn snapshot(&self) -> Vec<(Key, MetricValue)> {
        self.inner
            .borrow()
            .metrics
            .iter()
            .map(|(k, m)| {
                let v = match m {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                };
                (*k, v)
            })
            .collect()
    }

    /// Renders the current state as a JSON array, one object per metric,
    /// in the same deterministic key order as [`MetricsRegistry::snapshot`].
    ///
    /// Counters and gauges carry `value`; histograms carry `count`,
    /// `mean_ns`, `p50_ns`, `p99_ns` and `max_ns`. `node`/`tag` are
    /// `null` when the key is unscoped. The bench harness writes this as
    /// the `metrics` section of a run's `.run` file, next to the
    /// sampler's `series`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, (k, v)) in self.snapshot().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n  {");
            let _ = write!(out, "\"name\": {}", JsonStr(k.name));
            match k.node {
                Some(n) => {
                    let _ = write!(out, ", \"node\": {n}");
                }
                None => out.push_str(", \"node\": null"),
            }
            match k.tag {
                Some(t) => {
                    let _ = write!(out, ", \"tag\": {}", JsonStr(t));
                }
                None => out.push_str(", \"tag\": null"),
            }
            let _ = write!(out, ", \"kind\": {}", JsonStr(v.kind()));
            match v {
                MetricValue::Counter(c) => {
                    let _ = write!(out, ", \"value\": {c}");
                }
                MetricValue::Gauge(g) => {
                    let _ = write!(out, ", \"value\": {g}");
                }
                MetricValue::Histogram(h) => {
                    let _ = write!(
                        out,
                        ", \"count\": {}, \"mean_ns\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}",
                        h.count, h.mean_ns, h.p50_ns, h.p99_ns, h.max_ns
                    );
                }
            }
            out.push('}');
        }
        out.push_str("\n]\n");
        out
    }
}

/// A [`MetricsRegistry`] view bound to one node id and, optionally, one
/// tag.
#[derive(Clone)]
pub struct NodeScope {
    registry: MetricsRegistry,
    node: u32,
    tag: Option<&'static str>,
}

impl NodeScope {
    /// This scope with every key carrying `tag` (`None` = untagged):
    /// `registry.node(3).tagged(Some("g2")).counter("x")` is
    /// `registry.counter(Key::tagged("x", 3, "g2"))`.
    pub fn tagged(self, tag: Option<&'static str>) -> NodeScope {
        NodeScope { tag, ..self }
    }

    fn key(&self, name: &'static str) -> Key {
        Key {
            name,
            node: Some(self.node),
            tag: self.tag,
        }
    }

    /// Counter in this scope.
    pub fn counter(&self, name: &'static str) -> Counter {
        self.registry.counter(self.key(name))
    }

    /// Gauge in this scope.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        self.registry.gauge(self.key(name))
    }

    /// Histogram in this scope.
    pub fn histogram(&self, name: &'static str) -> HistogramHandle {
        self.registry.histogram(self.key(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share() {
        let r = MetricsRegistry::new();
        let a = r.counter(Key::global("x"));
        let b = r.counter(Key::global("x"));
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
    }

    #[test]
    fn counter_saturates_instead_of_wrapping() {
        let r = MetricsRegistry::new();
        let c = r.counter(Key::global("x"));
        c.add(u64::MAX - 1);
        c.add(5);
        assert_eq!(c.get(), u64::MAX, "overflow must saturate, not wrap");
        c.inc();
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn node_scoping_separates_series() {
        let r = MetricsRegistry::new();
        r.node(0).counter("rpc.sent").inc();
        r.node(1).counter("rpc.sent").add(7);
        assert_eq!(r.counter(Key::node("rpc.sent", 0)).get(), 1);
        assert_eq!(r.counter(Key::node("rpc.sent", 1)).get(), 7);
    }

    #[test]
    fn tags_separate_series_under_one_name() {
        let r = MetricsRegistry::new();
        let append = r.node(2).tagged(Some("append"));
        append.histogram("rpc.latency").record_ns(10);
        let vote = r.node(2).tagged(Some("vote"));
        vote.histogram("rpc.latency").record_ns(20);
        let found = r.histograms_named("rpc.latency");
        assert_eq!(found.len(), 2);
        assert!(found.iter().all(|(k, _)| k.node == Some(2)));
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_collision_panics() {
        let r = MetricsRegistry::new();
        r.counter(Key::global("x"));
        r.gauge(Key::global("x"));
    }

    #[test]
    fn gauge_tracks_levels() {
        let r = MetricsRegistry::new();
        let g = r.node(4).gauge("rpc.buffer.bytes");
        g.add(1000);
        g.sub(400);
        assert_eq!(g.get(), 600);
        g.set(-5);
        assert_eq!(g.get(), -5);
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let r = MetricsRegistry::new();
        r.node(1).counter("b").inc();
        r.counter(Key::global("a")).inc();
        r.node(0).histogram("c").record_ns(5);
        let snap = r.snapshot();
        let keys: Vec<&str> = snap.iter().map(|(k, _)| k.name).collect();
        assert_eq!(keys, vec!["a", "b", "c"]);
    }

    #[test]
    fn json_mirrors_snapshot_deterministically() {
        let r = MetricsRegistry::new();
        r.node(0).counter("rpc.sent").add(3);
        r.node(1).gauge("rpc.buffer.bytes").set(-2);
        let append = r.node(0).tagged(Some("append"));
        append.histogram("rpc.latency").record_ns(1500);
        let json = r.to_json();
        assert_eq!(json, r.to_json(), "same state must emit identical bytes");
        assert!(json.starts_with('['));
        assert!(json.ends_with("]\n"));
        assert!(json.contains("{\"name\": \"rpc.sent\", \"node\": 0, \"tag\": null, \"kind\": \"counter\", \"value\": 3}"));
        assert!(json.contains("\"value\": -2"));
        assert!(json.contains("\"tag\": \"append\", \"kind\": \"histogram\", \"count\": 1"));
    }
}
