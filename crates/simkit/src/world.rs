//! The simulated cluster: per-node resource models plus a shared network.
//!
//! A [`World`] owns one [`CpuModel`], [`DiskModel`] and [`MemoryModel`] per
//! node and a single [`NetModel`]. Higher layers (the RPC framework, the
//! storage engine, the fault injector) talk to the world rather than to the
//! models directly, so every resource interaction goes through one place
//! where fail-slow distortion, memory-pressure slowdown and crash checks
//! compose.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use depfast_metrics::{Counter, Gauge, HistogramHandle, MetricsRegistry};

use crate::cpu::{CpuCfg, CpuModel};
use crate::disk::{DiskCfg, DiskModel, DiskOp};
use crate::executor::Sim;
use crate::frame::Frame;
use crate::memory::{MemCfg, MemoryModel, Oom};
use crate::net::{NetCfg, NetModel};
use crate::Crashed;

/// Identifier of a simulated node (server or client host).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Configuration of a whole simulated cluster.
#[derive(Debug, Clone, Copy)]
pub struct WorldCfg {
    /// Number of nodes.
    pub nodes: usize,
    /// Per-node CPU configuration.
    pub cpu: CpuCfg,
    /// Per-node disk configuration.
    pub disk: DiskCfg,
    /// Per-node memory configuration.
    pub mem: MemCfg,
    /// Shared network configuration.
    pub net: NetCfg,
}

impl Default for WorldCfg {
    fn default() -> Self {
        WorldCfg {
            nodes: 3,
            cpu: CpuCfg::default(),
            disk: DiskCfg::default(),
            mem: MemCfg::default(),
            net: NetCfg::default(),
        }
    }
}

/// A message in flight between two nodes.
#[derive(Debug, Clone)]
pub struct NetMessage {
    /// Sending node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Serialized payload.
    pub payload: Frame,
}

/// Cached metric handles for one node's substrate series (`sim.*` in the
/// metric namespace — see `docs/OBSERVABILITY.md`). Caching keeps the
/// hot paths free of registry lookups.
struct NodeStats {
    cpu_wait: HistogramHandle,
    cpu_service: HistogramHandle,
    disk_wait: HistogramHandle,
    disk_service: HistogramHandle,
    disk_bytes: Counter,
    disk_ops: Counter,
    mem_used: Gauge,
    mem_slowdown_milli: Gauge,
    net_delay: HistogramHandle,
    net_msgs: Counter,
    net_bytes: Counter,
}

impl NodeStats {
    fn new(registry: &MetricsRegistry, node: u32) -> Self {
        let scope = registry.node(node);
        NodeStats {
            cpu_wait: scope.histogram("sim.cpu.wait"),
            cpu_service: scope.histogram("sim.cpu.service"),
            disk_wait: scope.histogram("sim.disk.wait"),
            disk_service: scope.histogram("sim.disk.service"),
            disk_bytes: scope.counter("sim.disk.bytes"),
            disk_ops: scope.counter("sim.disk.ops"),
            mem_used: scope.gauge("sim.mem.used"),
            mem_slowdown_milli: scope.gauge("sim.mem.slowdown_milli"),
            net_delay: scope.histogram("sim.net.delay"),
            net_msgs: scope.counter("sim.net.msgs"),
            net_bytes: scope.counter("sim.net.bytes"),
        }
    }

    fn observe_mem(&self, mem: &MemoryModel) {
        self.mem_used.set(mem.used() as i64);
        self.mem_slowdown_milli
            .set((mem.slowdown() * 1000.0) as i64);
    }
}

struct NodeState {
    cpu: CpuModel,
    disk: DiskModel,
    mem: MemoryModel,
    crashed: bool,
    stats: NodeStats,
}

/// Which simulated resource a [`ResourceObservation`] concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResourceKind {
    /// A [`CpuModel`] work item.
    Cpu,
    /// A [`DiskModel`] operation.
    Disk,
}

/// One resource interaction, delivered synchronously to an installed
/// [resource probe](World::set_resource_probe) at schedule time (i.e.
/// inside the calling task's poll, before the completion is awaited).
///
/// `wait` is queueing delay (run-queue / device-queue), `service` the
/// effective busy time including fail-slow and swap inflation.
#[derive(Debug, Clone, Copy)]
pub struct ResourceObservation {
    /// Node whose resource was used.
    pub node: NodeId,
    /// Which resource.
    pub resource: ResourceKind,
    /// Queueing delay before service began.
    pub wait: Duration,
    /// Effective service time (after distortion multipliers).
    pub service: Duration,
    /// Memory-pressure swap multiplier in effect (1.0 = none).
    pub slowdown: f64,
}

/// Callback receiving every CPU/disk interaction while installed.
pub type ResourceProbe = Rc<dyn Fn(&ResourceObservation)>;

type Handler = Rc<dyn Fn(NetMessage)>;

struct WorldInner {
    nodes: Vec<NodeState>,
    net: NetModel,
    handlers: Vec<Option<Handler>>,
    metrics: MetricsRegistry,
    resource_probe: Option<ResourceProbe>,
}

/// Handle to the simulated cluster. Cheap to clone.
#[derive(Clone)]
pub struct World {
    sim: Sim,
    inner: Rc<RefCell<WorldInner>>,
}

impl World {
    /// Builds a cluster of `cfg.nodes` identical nodes on `sim`.
    pub fn new(sim: Sim, cfg: WorldCfg) -> Self {
        let metrics = MetricsRegistry::new();
        let nodes = (0..cfg.nodes)
            .map(|i| NodeState {
                cpu: CpuModel::new(cfg.cpu),
                disk: DiskModel::new(cfg.disk),
                mem: MemoryModel::new(cfg.mem),
                crashed: false,
                stats: NodeStats::new(&metrics, i as u32),
            })
            .collect();
        World {
            sim,
            inner: Rc::new(RefCell::new(WorldInner {
                nodes,
                net: NetModel::new(cfg.net),
                handlers: vec![None; cfg.nodes],
                metrics,
                resource_probe: None,
            })),
        }
    }

    /// The underlying simulator handle.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// The cluster-shared metric registry. Every resource interaction on
    /// this world records into it under `sim.*` names; higher layers
    /// (RPC, the event runtime, Raft drivers) adopt the same registry so
    /// one snapshot covers the whole stack.
    pub fn metrics(&self) -> MetricsRegistry {
        self.inner.borrow().metrics.clone()
    }

    /// Number of nodes in the cluster.
    pub fn node_count(&self) -> usize {
        self.inner.borrow().nodes.len()
    }

    fn check(&self, node: NodeId) -> Result<(), Crashed> {
        if self.inner.borrow().nodes[node.0 as usize].crashed {
            Err(Crashed)
        } else {
            Ok(())
        }
    }

    /// Returns `true` if `node` has crashed.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.inner.borrow().nodes[node.0 as usize].crashed
    }

    /// Kills `node`: all of its pending and future operations fail and
    /// messages to or from it are dropped.
    pub fn crash(&self, node: NodeId) {
        self.inner.borrow_mut().nodes[node.0 as usize].crashed = true;
    }

    /// Installs (or, with `None`, removes) the resource probe: a callback
    /// invoked synchronously for every CPU/disk interaction on this world,
    /// at schedule time and hence inside the polling task (so ambient
    /// per-coroutine attribution in higher layers is still in scope). The
    /// wait-state profiler owns it for the duration of a profiled run.
    pub fn set_resource_probe(&self, probe: Option<ResourceProbe>) {
        self.inner.borrow_mut().resource_probe = probe;
    }

    fn probe_resource(&self, obs: ResourceObservation) {
        // Clone the probe out so the callback runs without the world borrow.
        let probe = self.inner.borrow().resource_probe.clone();
        if let Some(p) = probe {
            p(&obs);
        }
    }

    /// Executes `work` of CPU time on `node`, queueing on its cores and
    /// paying the current fail-slow and swap multipliers.
    pub async fn cpu(&self, node: NodeId, work: Duration) -> Result<(), Crashed> {
        self.check(node)?;
        let (finish, obs) = {
            let now = self.sim.now();
            let mut inner = self.inner.borrow_mut();
            let state = &mut inner.nodes[node.0 as usize];
            let slowdown = state.mem.slowdown();
            let start = now.max(state.cpu.next_free_at());
            let finish = state.cpu.schedule(now, work, slowdown);
            state.stats.cpu_wait.record(start - now);
            state.stats.cpu_service.record(finish - start);
            (
                finish,
                ResourceObservation {
                    node,
                    resource: ResourceKind::Cpu,
                    wait: start - now,
                    service: finish - start,
                    slowdown,
                },
            )
        };
        self.probe_resource(obs);
        self.sim.sleep_until(finish).await;
        self.check(node)
    }

    /// Performs a disk operation on `node`'s FIFO device queue.
    pub async fn disk(&self, node: NodeId, op: DiskOp) -> Result<(), Crashed> {
        self.check(node)?;
        let (finish, obs) = {
            let now = self.sim.now();
            let mut inner = self.inner.borrow_mut();
            let state = &mut inner.nodes[node.0 as usize];
            let slowdown = state.mem.slowdown();
            let start = now.max(state.disk.queue_free_at());
            let finish = state.disk.schedule(now, op, slowdown);
            state.stats.disk_wait.record(start - now);
            state.stats.disk_service.record(finish - start);
            state.stats.disk_ops.inc();
            if let DiskOp::Write { bytes } | DiskOp::Fsync { bytes } = op {
                state.stats.disk_bytes.add(bytes);
            }
            (
                finish,
                ResourceObservation {
                    node,
                    resource: ResourceKind::Disk,
                    wait: start - now,
                    service: finish - start,
                    slowdown,
                },
            )
        };
        self.probe_resource(obs);
        self.sim.sleep_until(finish).await;
        self.check(node)
    }

    /// Accounts `bytes` of new memory usage on `node`.
    pub fn mem_alloc(&self, node: NodeId, bytes: u64) -> Result<(), Oom> {
        let mut inner = self.inner.borrow_mut();
        let state = &mut inner.nodes[node.0 as usize];
        let res = state.mem.alloc(bytes);
        state.stats.observe_mem(&state.mem);
        res
    }

    /// Releases `bytes` of memory usage on `node`.
    pub fn mem_free(&self, node: NodeId, bytes: u64) {
        let mut inner = self.inner.borrow_mut();
        let state = &mut inner.nodes[node.0 as usize];
        state.mem.free(bytes);
        state.stats.observe_mem(&state.mem);
    }

    /// Current memory usage of `node` in bytes.
    pub fn mem_used(&self, node: NodeId) -> u64 {
        self.inner.borrow().nodes[node.0 as usize].mem.used()
    }

    /// Test probe: current swap-penalty multiplier of `node`.
    #[doc(hidden)]
    pub fn mem_slowdown(&self, node: NodeId) -> f64 {
        self.inner.borrow().nodes[node.0 as usize].mem.slowdown()
    }

    /// Registers the delivery handler for messages addressed to `node`.
    ///
    /// The handler runs on the executor thread between task polls; it
    /// should only enqueue and wake, never block.
    pub fn register_handler(&self, node: NodeId, handler: impl Fn(NetMessage) + 'static) {
        self.inner.borrow_mut().handlers[node.0 as usize] = Some(Rc::new(handler));
    }

    /// Sends `payload` from `from` to `to`. Delivery is asynchronous; the
    /// message is silently dropped if the link is partitioned or either
    /// end has crashed by delivery time.
    pub fn send(&self, from: NodeId, to: NodeId, payload: impl Into<Frame>) {
        let payload = payload.into();
        if self.is_crashed(from) {
            return;
        }
        let deliver_at = {
            let mut inner = self.inner.borrow_mut();
            let now = self.sim.now();
            let bytes = payload.len() as u64;
            let WorldInner { net, nodes, .. } = &mut *inner;
            let at = self
                .sim
                .with_rng(|rng| net.delivery_time(now, from, to, bytes, rng));
            let stats = &nodes[from.0 as usize].stats;
            stats.net_msgs.inc();
            stats.net_bytes.add(bytes);
            if let Some(at) = at {
                stats.net_delay.record(at - now);
            }
            at
        };
        let Some(at) = deliver_at else { return };
        let world = self.clone();
        self.sim.schedule_call(at, move || {
            if world.is_crashed(to) || world.is_crashed(from) {
                return;
            }
            let handler = world.inner.borrow().handlers[to.0 as usize].clone();
            if let Some(h) = handler {
                h(NetMessage { from, to, payload });
            }
        });
    }

    // ------------------------------------------------------------------
    // Fault-injection knobs (used by `depfast-fault`).
    // ------------------------------------------------------------------

    /// Sets the cgroup-style CPU quota of `node` (Table 1, "CPU (slow)").
    pub fn set_cpu_quota(&self, node: NodeId, quota: f64) {
        self.inner.borrow_mut().nodes[node.0 as usize]
            .cpu
            .set_quota(quota);
    }

    /// Sets or clears CPU contention on `node` (Table 1, "CPU (contention)").
    pub fn set_cpu_contention(&self, node: NodeId, share: Option<f64>) {
        self.inner.borrow_mut().nodes[node.0 as usize]
            .cpu
            .set_contention(share);
    }

    /// Sets the disk bandwidth factor of `node` (Table 1, "Disk (slow)").
    pub fn set_disk_bw_factor(&self, node: NodeId, factor: f64) {
        self.inner.borrow_mut().nodes[node.0 as usize]
            .disk
            .set_bw_factor(factor);
    }

    /// Sets the memory limit of `node` (Table 1, "Memory (contention)").
    pub fn set_mem_limit(&self, node: NodeId, limit: u64) {
        let mut inner = self.inner.borrow_mut();
        let state = &mut inner.nodes[node.0 as usize];
        state.mem.set_limit(limit);
        state.stats.observe_mem(&state.mem);
    }

    /// Restores the configured memory limit of `node`.
    pub fn reset_mem_limit(&self, node: NodeId) {
        let mut inner = self.inner.borrow_mut();
        let state = &mut inner.nodes[node.0 as usize];
        state.mem.reset_limit();
        state.stats.observe_mem(&state.mem);
    }

    /// Sets the `tc`-style egress delay of `node` (Table 1, "Network (slow)").
    pub fn set_egress_delay(&self, node: NodeId, delay: Duration) {
        self.inner.borrow_mut().net.set_egress_delay(node, delay);
    }

    /// Severs the link between `a` and `b`.
    pub fn partition(&self, a: NodeId, b: NodeId) {
        self.inner.borrow_mut().net.partition(a, b);
    }

    /// Heals the link between `a` and `b`.
    pub fn heal(&self, a: NodeId, b: NodeId) {
        self.inner.borrow_mut().net.heal(a, b);
    }

    // ------------------------------------------------------------------
    // Reporting.
    // ------------------------------------------------------------------

    /// Total messages accepted by the network so far.
    pub fn net_messages(&self) -> u64 {
        self.inner.borrow().net.messages()
    }

    /// Total payload bytes accepted by the network so far.
    pub fn net_bytes(&self) -> u64 {
        self.inner.borrow().net.bytes()
    }

    /// Test probe: current effective CPU rate multiplier of `node`.
    #[doc(hidden)]
    pub fn cpu_rate(&self, node: NodeId) -> f64 {
        self.inner.borrow().nodes[node.0 as usize].cpu.rate()
    }

    /// CPU utilization of `node` over a window ending now (fraction of
    /// all cores busy, assuming the node was busy only within `window`).
    pub fn cpu_utilization(&self, node: NodeId, window: std::time::Duration) -> f64 {
        self.inner.borrow().nodes[node.0 as usize]
            .cpu
            .utilization(window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;
    use bytes::Bytes;

    fn world() -> (Sim, World) {
        let sim = Sim::new(42);
        let cfg = WorldCfg {
            nodes: 3,
            net: NetCfg {
                base_latency: Duration::from_micros(100),
                jitter: Duration::ZERO,
                bandwidth_bps: 1e9,
                hiccup_prob: 0.0,
                hiccup_delay: Duration::ZERO,
            },
            ..WorldCfg::default()
        };
        let w = World::new(sim.clone(), cfg);
        (sim, w)
    }

    #[test]
    fn cpu_work_advances_time() {
        let (sim, w) = world();
        let w2 = w.clone();
        sim.block_on(async move {
            w2.cpu(NodeId(0), Duration::from_millis(2)).await.unwrap();
        });
        assert_eq!(sim.now(), SimTime::from_millis(2));
    }

    #[test]
    fn cpu_quota_fault_slows_node() {
        let (sim, w) = world();
        w.set_cpu_quota(NodeId(0), 0.05);
        let w2 = w.clone();
        sim.block_on(async move {
            w2.cpu(NodeId(0), Duration::from_millis(1)).await.unwrap();
        });
        assert_eq!(sim.now(), SimTime::from_millis(20));
    }

    #[test]
    fn crashed_node_operations_fail() {
        let (sim, w) = world();
        w.crash(NodeId(1));
        let w2 = w.clone();
        let res = sim.block_on(async move { w2.cpu(NodeId(1), Duration::from_millis(1)).await });
        assert_eq!(res, Err(Crashed));
    }

    #[test]
    fn messages_are_delivered_with_latency() {
        let (sim, w) = world();
        let got: Rc<RefCell<Vec<(NodeId, Frame)>>> = Rc::new(RefCell::new(Vec::new()));
        let got2 = got.clone();
        w.register_handler(NodeId(1), move |m| {
            got2.borrow_mut().push((m.from, m.payload));
        });
        w.send(NodeId(0), NodeId(1), Bytes::from_static(b"hello"));
        sim.run();
        assert_eq!(got.borrow().len(), 1);
        assert_eq!(got.borrow()[0].0, NodeId(0));
        assert!(sim.now() >= SimTime::from_micros(100));
    }

    #[test]
    fn messages_to_crashed_node_are_dropped() {
        let (sim, w) = world();
        let hit = Rc::new(RefCell::new(0));
        let hit2 = hit.clone();
        w.register_handler(NodeId(1), move |_| *hit2.borrow_mut() += 1);
        w.send(NodeId(0), NodeId(1), Bytes::from_static(b"x"));
        w.crash(NodeId(1));
        sim.run();
        assert_eq!(*hit.borrow(), 0);
    }

    #[test]
    fn partition_blocks_traffic() {
        let (sim, w) = world();
        let hit = Rc::new(RefCell::new(0));
        let hit2 = hit.clone();
        w.register_handler(NodeId(2), move |_| *hit2.borrow_mut() += 1);
        w.partition(NodeId(0), NodeId(2));
        w.send(NodeId(0), NodeId(2), Bytes::from_static(b"x"));
        sim.run();
        assert_eq!(*hit.borrow(), 0);
        w.heal(NodeId(0), NodeId(2));
        w.send(NodeId(0), NodeId(2), Bytes::from_static(b"x"));
        sim.run();
        assert_eq!(*hit.borrow(), 1);
    }

    #[test]
    fn memory_pressure_slows_cpu() {
        let (sim, w) = world();
        let limit = w.mem_used(NodeId(0)) + 100;
        w.set_mem_limit(NodeId(0), limit);
        w.mem_alloc(NodeId(0), 100).unwrap();
        assert!(w.mem_slowdown(NodeId(0)) > 1.0);
        let w2 = w.clone();
        sim.block_on(async move {
            w2.cpu(NodeId(0), Duration::from_millis(1)).await.unwrap();
        });
        assert!(sim.now() > SimTime::from_millis(1));
    }

    #[test]
    fn substrate_metrics_attribute_disk_queueing_to_the_right_node() {
        let (sim, w) = world();
        let m = w.metrics();
        // Two concurrent fsyncs on node 1: the FIFO queue forces the
        // second to wait behind the first.
        for _ in 0..2 {
            let w2 = w.clone();
            sim.spawn(async move {
                w2.disk(NodeId(1), DiskOp::Fsync { bytes: 1_000_000 })
                    .await
                    .unwrap();
            });
        }
        sim.run();
        let waited = m.node(1).histogram("sim.disk.wait");
        assert_eq!(waited.snapshot().count, 2);
        assert!(waited.snapshot().max_ns > 0, "second fsync must queue");
        // Node 0 never touched its disk: its series stays empty.
        assert_eq!(m.node(0).histogram("sim.disk.wait").snapshot().count, 0);
        assert_eq!(m.node(1).counter("sim.disk.ops").get(), 2);
        assert_eq!(m.node(1).counter("sim.disk.bytes").get(), 2_000_000);
    }

    #[test]
    fn substrate_metrics_expose_cpu_contention_stalls() {
        let (sim, w) = world();
        let m = w.metrics();
        w.set_cpu_quota(NodeId(0), 0.05);
        let w2 = w.clone();
        sim.block_on(async move {
            w2.cpu(NodeId(0), Duration::from_millis(1)).await.unwrap();
        });
        let svc = m.node(0).histogram("sim.cpu.service").snapshot();
        // 1 ms of work at 5% quota inflates to 20 ms of service time.
        assert_eq!(svc.max_ns, 20_000_000);
    }

    #[test]
    fn substrate_metrics_track_memory_pressure() {
        let (_sim, w) = world();
        let m = w.metrics();
        let base = w.mem_used(NodeId(2));
        w.set_mem_limit(NodeId(2), base + 100);
        w.mem_alloc(NodeId(2), 100).unwrap();
        assert_eq!(m.node(2).gauge("sim.mem.used").get(), (base + 100) as i64);
        assert!(m.node(2).gauge("sim.mem.slowdown_milli").get() > 1000);
        w.mem_free(NodeId(2), 100);
        assert_eq!(m.node(2).gauge("sim.mem.used").get(), base as i64);
    }

    #[test]
    fn substrate_metrics_record_network_sends() {
        let (sim, w) = world();
        let m = w.metrics();
        w.register_handler(NodeId(1), |_| {});
        w.send(NodeId(0), NodeId(1), Bytes::from_static(b"hello"));
        sim.run();
        assert_eq!(m.node(0).counter("sim.net.msgs").get(), 1);
        assert_eq!(m.node(0).counter("sim.net.bytes").get(), 5);
        let delay = m.node(0).histogram("sim.net.delay").snapshot();
        assert_eq!(delay.count, 1);
        assert!(delay.max_ns >= 100_000, "base latency is 100 µs");
    }

    #[test]
    fn resource_probe_observes_queueing_and_service() {
        let (sim, w) = world();
        let seen: Rc<RefCell<Vec<ResourceObservation>>> = Rc::new(RefCell::new(Vec::new()));
        let s = seen.clone();
        w.set_resource_probe(Some(Rc::new(move |o: &ResourceObservation| {
            s.borrow_mut().push(*o);
        })));
        // Two concurrent fsyncs on node 1: FIFO queueing makes the second
        // observation carry nonzero wait.
        for _ in 0..2 {
            let w2 = w.clone();
            sim.spawn(async move {
                w2.disk(NodeId(1), DiskOp::Fsync { bytes: 1_000_000 })
                    .await
                    .unwrap();
            });
        }
        let w2 = w.clone();
        sim.spawn(async move {
            w2.cpu(NodeId(0), Duration::from_millis(1)).await.unwrap();
        });
        sim.run();
        let obs = seen.borrow();
        assert_eq!(obs.len(), 3);
        let disk: Vec<_> = obs
            .iter()
            .filter(|o| o.resource == ResourceKind::Disk)
            .collect();
        assert_eq!(disk.len(), 2);
        assert!(disk.iter().all(|o| o.node == NodeId(1)));
        assert_eq!(disk[0].wait, Duration::ZERO);
        assert!(disk[1].wait > Duration::ZERO, "second fsync must queue");
        let cpu: Vec<_> = obs
            .iter()
            .filter(|o| o.resource == ResourceKind::Cpu)
            .collect();
        assert_eq!(cpu.len(), 1);
        assert_eq!(cpu[0].node, NodeId(0));
        assert_eq!(cpu[0].service, Duration::from_millis(1));
        drop(obs);
        // Removing the probe stops delivery.
        w.set_resource_probe(None);
        let w2 = w.clone();
        sim.spawn(async move {
            w2.cpu(NodeId(0), Duration::from_millis(1)).await.unwrap();
        });
        sim.run();
        assert_eq!(seen.borrow().len(), 3);
    }

    #[test]
    fn egress_delay_slows_only_faulty_sender() {
        let (sim, w) = world();
        let stamp: Rc<RefCell<Vec<SimTime>>> = Rc::new(RefCell::new(Vec::new()));
        let s2 = stamp.clone();
        let sim2 = sim.clone();
        w.register_handler(NodeId(0), move |_| s2.borrow_mut().push(sim2.now()));
        w.set_egress_delay(NodeId(1), Duration::from_millis(400));
        w.send(NodeId(1), NodeId(0), Bytes::from_static(b"slow"));
        w.send(NodeId(2), NodeId(0), Bytes::from_static(b"fast"));
        sim.run();
        let st = stamp.borrow();
        assert_eq!(st.len(), 2);
        assert!(st[0] < SimTime::from_millis(1)); // fast arrives first
        assert!(st[1] >= SimTime::from_millis(400));
    }
}
