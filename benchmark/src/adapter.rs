//! The only file of the benchmark that names repository APIs.
//!
//! Everything else in `benchmark/src` talks to the system under test
//! through the plain types defined here, so a rewrite of a layer crate
//! (or of `depfast-bench`, which this package deliberately does not
//! depend on) touches this file and nothing else.
//!
//! The calibrated operating point of the paper's §3.4 evaluation is
//! copied here from `depfast_bench::experiment` (`bench_raft_cfg`,
//! 250 µs serve CPU, `bench_world_cfg`): DepFastRaft near 5 K req/s with
//! the leader around 75 % CPU at 256 closed-loop clients.

use std::cell::Cell;
use std::future::Future;
use std::rc::Rc;
use std::time::{Duration, Instant};

use depfast::event::{Notify, QuorumEvent, Signal, Watchable};
use depfast::{Coroutine, Runtime, TraceRecord, Tracer};
use depfast_fault::FaultKind;
use depfast_kv::{KvCluster, KvOp, KvRequest, KvServer, ShardedKvCluster};
use depfast_metrics::{Counter, Histogram, Key, MetricValue, MetricsRegistry, Sampler};
use depfast_profile::Profiler;
use depfast_raft::cluster::RaftKind;
use depfast_raft::core::RaftCfg;
use depfast_raft::types::{to_wire, AppendReq};
use depfast_rpc::endpoint::Registry;
use depfast_rpc::wire::{WireRead, WireWrite};
use depfast_rpc::{Endpoint, RpcCfg};
use depfast_storage::{Entry, LogStore, LogStoreCfg, MemKv, Wal, WalCfg};
use depfast_trace_analysis::{blame_report, TraceIndex};
use depfast_ycsb::workload::{DistKind, OpGen, OpKind, WorkloadSpec};
use simkit::disk::DiskOp;
use simkit::executor::yield_now;
use simkit::{MemCfg, NodeId, Sim, SimTime, World, WorldCfg};

pub use bytes::Bytes;

// ----------------------------------------------------------------------
// Calibrated operating point (copied, see the module docs).
// ----------------------------------------------------------------------

fn raft_cfg() -> RaftCfg {
    RaftCfg {
        bootstrap_leader: Some(0),
        batch_max: 64,
        batch_window: Duration::from_millis(4),
        max_entries_per_append: 512,
        propose_cpu: Duration::from_micros(30),
        apply_cpu: Duration::from_micros(190),
        append_cpu_base: Duration::from_micros(30),
        append_cpu_per_entry: Duration::from_micros(120),
        log: LogStoreCfg {
            cache_bytes: 1024 * 1024,
            wal: WalCfg::default(),
        },
        ..RaftCfg::default()
    }
}

const SERVE_CPU: Duration = Duration::from_micros(250);

fn world_cfg(nodes: usize) -> WorldCfg {
    WorldCfg {
        nodes,
        mem: MemCfg {
            limit: 16 * 1024 * 1024 * 1024,
            baseline: 2 * 1024 * 1024 * 1024,
            swap_threshold: 0.80,
            swap_max_slowdown: 10.0,
        },
        ..WorldCfg::default()
    }
}

// ----------------------------------------------------------------------
// Test bed: world, cluster, sessions.
// ----------------------------------------------------------------------

/// Shape of the deployment a workload runs on.
#[derive(Debug, Clone, Copy)]
pub struct Topology {
    /// Server nodes.
    pub servers: usize,
    /// Raft groups striped over the servers; 0 means one unsharded
    /// group spanning all of them.
    pub groups: usize,
    /// Client sessions, each on its own client host node.
    pub sessions: usize,
    /// Serve gets through ReadIndex instead of the log.
    pub read_index: bool,
}

/// A simulated world with no cluster on it yet.
pub struct BareWorld {
    sim: Sim,
    world: World,
}

/// Creates the simulator and the world of `topo` (`setup.world`).
pub fn world(seed: u64, topo: &Topology) -> BareWorld {
    // A causal context left in the ambient slot by an earlier run in
    // this process would change trace ids.
    depfast::set_trace_ctx(None);
    let sim = Sim::new(seed);
    let world = World::new(sim.clone(), world_cfg(topo.servers + topo.sessions));
    BareWorld { sim, world }
}

#[derive(Clone)]
enum Cluster {
    Single(Rc<KvCluster>),
    Sharded(Rc<ShardedKvCluster>),
}

/// A running cluster with its client sessions.
#[derive(Clone)]
pub struct Bed {
    sim: Sim,
    world: World,
    cluster: Cluster,
    /// The KV servers, per group.
    replicas: Rc<Vec<Vec<KvServer>>>,
    servers: usize,
}

impl BareWorld {
    /// Builds and starts the DepFastRaft cluster of `topo`
    /// (`setup.cluster`).
    pub fn cluster(self, topo: &Topology) -> Bed {
        let BareWorld { sim, world } = self;
        let cluster = if topo.groups == 0 {
            let c = KvCluster::build_tuned(
                &sim,
                &world,
                RaftKind::DepFast,
                topo.servers,
                topo.sessions,
                raft_cfg(),
                SERVE_CPU,
            );
            for s in &c.servers {
                s.set_read_index(topo.read_index);
            }
            Cluster::Single(Rc::new(c))
        } else {
            let c = ShardedKvCluster::build_tuned(
                &sim,
                &world,
                RaftKind::DepFast,
                topo.groups,
                topo.servers,
                3,
                topo.sessions,
                raft_cfg(),
                SERVE_CPU,
            );
            for s in c.servers.iter().flatten() {
                s.set_read_index(topo.read_index);
            }
            Cluster::Sharded(Rc::new(c))
        };
        let replicas = Rc::new(match &cluster {
            Cluster::Single(c) => vec![c.servers.clone()],
            Cluster::Sharded(c) => c.servers.clone(),
        });
        Bed {
            sim,
            world,
            cluster,
            replicas,
            servers: topo.servers,
        }
    }
}

/// One client session. Only one operation may be outstanding on it at a
/// time: the state machine deduplicates on `(session, sequence number)`.
#[derive(Clone)]
pub struct Session {
    cluster: Cluster,
    idx: usize,
    sent: Counter,
}

impl Session {
    /// Writes `value` under `key`; `false` if the client gave up.
    pub async fn put(&self, key: Bytes, value: Bytes) -> bool {
        match &self.cluster {
            Cluster::Single(c) => c.clients[self.idx].put(key, value).await.is_ok(),
            Cluster::Sharded(c) => c.clients[self.idx].put(key, value).await.is_ok(),
        }
    }

    /// Linearizable read of `key`; `Err` if the client gave up.
    pub async fn get(&self, key: Bytes) -> Result<Option<Bytes>, ()> {
        match &self.cluster {
            Cluster::Single(c) => c.clients[self.idx].get(key).await.map_err(|_| ()),
            Cluster::Sharded(c) => c.clients[self.idx].get(key).await.map_err(|_| ()),
        }
    }

    /// Messages this session's host has handed to the network. A session
    /// sends one request per attempt and nothing else, so the difference
    /// across an operation is its attempt count.
    pub fn sent(&self) -> u64 {
        self.sent.get()
    }
}

impl Bed {
    /// Current virtual time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.sim.now().as_nanos()
    }

    /// Runs the simulation up to virtual instant `t_ns`.
    pub fn run_until_ns(&self, t_ns: u64) {
        self.sim.run_until_time(SimTime::from_nanos(t_ns));
    }

    /// A future that completes at virtual instant `t_ns`.
    pub fn sleep_until_ns(&self, t_ns: u64) -> impl Future<Output = ()> {
        self.sim.sleep_until(SimTime::from_nanos(t_ns))
    }

    /// Spawns a benchmark-owned task (load generator, sampler).
    pub fn spawn_task(&self, fut: impl Future<Output = ()> + 'static) {
        self.sim.spawn(fut);
    }

    /// Runs `fut` as a coroutine on session `idx`'s host, which keeps the
    /// causal context of its operations scoped to that session.
    pub fn spawn_on_session(&self, idx: usize, fut: impl Future<Output = ()> + 'static) {
        let rt = match &self.cluster {
            Cluster::Single(c) => c.clients[idx].runtime().clone(),
            Cluster::Sharded(c) => c.clients[idx].runtime().clone(),
        };
        Coroutine::create(&rt, "bench:session", fut);
    }

    /// Handle to session `idx`.
    pub fn session(&self, idx: usize) -> Session {
        let node = (self.servers + idx) as u32;
        Session {
            cluster: self.cluster.clone(),
            idx,
            sent: self
                .world
                .metrics()
                .counter(Key::node("sim.net.msgs", node)),
        }
    }

    /// Schedules Table 1's disk-slow fault on `node` for the virtual
    /// interval `[from_ns, until_ns)`, counted from now.
    pub fn disk_slow(&self, node: u32, bw_factor: f64, from_ns: u64, until_ns: u64) {
        depfast_fault::inject_at(
            &self.sim,
            &self.world,
            NodeId(node),
            FaultKind::DiskSlow { bw_factor },
            Duration::from_nanos(from_ns),
            Some(Duration::from_nanos(until_ns - from_ns)),
        );
    }

    fn tracer(&self) -> &Tracer {
        match &self.cluster {
            Cluster::Single(c) => &c.raft.tracer,
            Cluster::Sharded(c) => &c.raft.tracer,
        }
    }

    /// Index of the replica group that owns `key`.
    pub fn group_of(&self, key: &[u8]) -> usize {
        match &self.cluster {
            Cluster::Single(_) => 0,
            Cluster::Sharded(c) => (c.map.group_of(key) - 1) as usize,
        }
    }

    /// `applied()` of every replica, per group.
    pub fn applied(&self) -> Vec<Vec<u64>> {
        self.replicas
            .iter()
            .map(|g| g.iter().map(KvServer::applied).collect())
            .collect()
    }

    /// `local_get(key)` on every replica of `group`.
    pub fn local_get(&self, group: usize, key: &Bytes) -> Vec<Option<Bytes>> {
        self.replicas[group]
            .iter()
            .map(|s| s.local_get(key))
            .collect()
    }

    /// Largest distance, in log entries, between a group's leader and
    /// its furthest-behind replica.
    pub fn follower_lag_entries(&self) -> u64 {
        self.replicas
            .iter()
            .map(|g| {
                let last = |s: &KvServer| s.raft().core().log.last_index();
                let lead = g.iter().find(|s| s.raft().is_leader()).map_or(0, last);
                let min = g.iter().map(last).min().unwrap_or(0);
                lead.saturating_sub(min)
            })
            .max()
            .unwrap_or(0)
    }
}

// ----------------------------------------------------------------------
// Workload generation (the `ycsb` layer).
// ----------------------------------------------------------------------

/// One generated client operation.
pub struct Op {
    /// `true` for a get, `false` for an update.
    pub read: bool,
    /// Record key.
    pub key: Bytes,
    /// Value to write (empty for a get).
    pub value: Bytes,
}

/// Seeded operation generator over a fixed keyspace.
pub struct Gen(OpGen);

impl Gen {
    /// `read_share` of gets, the rest updates, over `records` keys drawn
    /// uniformly or YCSB-zipfian (θ = 0.99).
    pub fn new(records: u64, value_size: usize, read_share: f64, zipfian: bool, seed: u64) -> Gen {
        Gen(OpGen::new(
            WorkloadSpec {
                records,
                value_size,
                update_prop: 1.0 - read_share,
                read_prop: read_share,
                insert_prop: 0.0,
                dist: if zipfian {
                    DistKind::Zipfian
                } else {
                    DistKind::Uniform
                },
            },
            seed,
        ))
    }

    /// Draws the next operation.
    pub fn next_op(&mut self) -> Op {
        let (kind, key, value) = self.0.next_op();
        Op {
            read: kind == OpKind::Read,
            key,
            value,
        }
    }
}

/// The key of record `index`, in the generator's format.
pub fn record_key(index: u64) -> Bytes {
    Bytes::from(format!("user{index:019}"))
}

// ----------------------------------------------------------------------
// Group A: public counters.
// ----------------------------------------------------------------------

/// Cumulative counters read from the layers' public surfaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum C {
    Polls,
    Timers,
    Tasks,
    NetMsgs,
    NetBytes,
    DiskOps,
    DiskBytes,
    LeaderBusyNs,
    QuorumWaits,
    QuorumWaitNs,
    QuorumStragglers,
    RpcCalls,
    RpcDropped,
    RpcErrors,
    AppendRpcs,
    AppendEntries,
    WalSyncs,
    WalRecords,
    LogCacheHits,
    LogCacheMisses,
    RaftRounds,
    RaftBatches,
    RaftBatchEntries,
    PipelineStalls,
    AppendWindowSkips,
    Suspects,
    LeaderEpochs,
    KvOps,
    KvAttempts,
    RetriesTimeout,
    RetriesNotLeader,
    GiveUps,
}

/// Number of [`C`] counters.
pub const N_COUNTS: usize = C::GiveUps as usize + 1;

/// A snapshot of every [`C`] counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts(pub [u64; N_COUNTS]);

impl Counts {
    /// The counter `c`.
    pub fn get(&self, c: C) -> u64 {
        self.0[c as usize]
    }

    /// Growth of every counter since `earlier`.
    pub fn since(&self, earlier: &Counts) -> Counts {
        let mut out = [0; N_COUNTS];
        for (o, (a, b)) in out.iter_mut().zip(self.0.iter().zip(earlier.0.iter())) {
            *o = a - b;
        }
        Counts(out)
    }
}

/// Medians of the Raft lag histograms over the whole run (log-bucketed,
/// so coarse).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lags {
    /// Propose → commit, virtual ns.
    pub commit_p50_ns: u64,
    /// Propose → apply, virtual ns.
    pub apply_p50_ns: u64,
}

impl Bed {
    /// Reads every counter. The leader-CPU counter covers node 0 of an
    /// unsharded cluster and the mean over server nodes of a sharded one
    /// (every node leads some groups).
    pub fn counts(&self) -> Counts {
        let mut c = [0u64; N_COUNTS];
        let mut add = |which: C, v: u64| c[which as usize] += v;
        add(C::Polls, self.sim.polls());
        add(C::Timers, self.sim.timers_scheduled());
        add(C::Tasks, self.sim.tasks_spawned());
        add(C::NetMsgs, self.world.net_messages());
        add(C::NetBytes, self.world.net_bytes());
        let now = self.sim.now() - SimTime::ZERO;
        let cpu_nodes = if matches!(self.cluster, Cluster::Single(_)) {
            1
        } else {
            self.servers
        };
        let busy: f64 = (0..cpu_nodes as u32)
            .map(|n| self.world.cpu_utilization(NodeId(n), now) * now.as_nanos() as f64)
            .sum();
        add(C::LeaderBusyNs, (busy / cpu_nodes as f64) as u64);
        for (key, value) in self.world.metrics().snapshot() {
            // A counter adds its value; a histogram adds its sample count
            // and, where a companion is named, the sum of its samples.
            let (count, sum) = match (key.name, key.tag) {
                ("sim.disk.ops", _) => (C::DiskOps, None),
                ("sim.disk.bytes", _) => (C::DiskBytes, None),
                ("event.quorum.straggler", _) => (C::QuorumStragglers, None),
                ("event.quorum.wait", _) => (C::QuorumWaits, Some(C::QuorumWaitNs)),
                ("rpc.latency", _) => (C::RpcCalls, None),
                ("rpc.dropped", _) => (C::RpcDropped, None),
                ("rpc.errors", _) => (C::RpcErrors, None),
                ("rpc.entries_per_append", _) => (C::AppendRpcs, Some(C::AppendEntries)),
                ("wal.batch_records", _) => (C::WalSyncs, Some(C::WalRecords)),
                ("raft.batch.rounds", _) => (C::RaftRounds, None),
                ("raft.batch.size", _) => (C::RaftBatches, Some(C::RaftBatchEntries)),
                ("raft.pipeline.stalls", _) => (C::PipelineStalls, None),
                ("raft.append.window_skips", _) => (C::AppendWindowSkips, None),
                ("raft.append.suspects", _) => (C::Suspects, None),
                ("client.ops", _) => (C::KvOps, None),
                ("client.attempts", _) => (C::KvAttempts, None),
                ("client.retry", Some("timeout")) => (C::RetriesTimeout, None),
                ("client.retry", Some("not_leader")) => (C::RetriesNotLeader, None),
                ("client.give_up", _) => (C::GiveUps, None),
                _ => continue,
            };
            match value {
                MetricValue::Counter(v) => add(count, v),
                MetricValue::Gauge(_) => {}
                MetricValue::Histogram(h) => {
                    add(count, h.count);
                    if let Some(sum) = sum {
                        add(sum, h.total_ns as u64);
                    }
                }
            }
        }
        for s in self.replicas.iter().flatten() {
            let core = s.raft().core();
            add(C::LogCacheHits, core.log.cache_hits());
            add(C::LogCacheMisses, core.log.cache_misses());
            add(C::LeaderEpochs, core.st.borrow().leader_epoch);
        }
        Counts(c)
    }

    /// Medians of `raft.commit_lag` and `raft.apply_lag`, merged over
    /// every node and group.
    pub fn lags(&self) -> Lags {
        let metrics = self.world.metrics();
        let p50 = |name: &str| {
            let mut all = Histogram::new();
            for (_, h) in metrics.histograms_named(name) {
                h.with(|h| all.merge(h));
            }
            all.quantile(0.5).as_nanos() as u64
        };
        Lags {
            commit_p50_ns: p50("raft.commit_lag"),
            apply_p50_ns: p50("raft.apply_lag"),
        }
    }
}

// ----------------------------------------------------------------------
// Group B: the repository's own instruments.
// ----------------------------------------------------------------------

/// Critical-path blame, as shares of all blamed time.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Records the tracer retained.
    pub records: u64,
    /// Records the tracer dropped at its capacity.
    pub dropped: u64,
    /// `(layer, node, share)` rows; shares sum to 1 when anything was
    /// blamed.
    pub blame: Vec<(String, u32, f64)>,
}

/// A wait-state profiler installed on a [`Bed`].
pub struct Profile(Profiler);

impl Bed {
    /// Turns full trace recording on.
    pub fn trace_on(&self) {
        self.tracer().set_record_full(true);
    }

    /// Takes the recorded trace and runs the critical-path analysis.
    pub fn trace_summary(&self) -> TraceSummary {
        let tracer = self.tracer();
        tracer.set_record_full(false);
        let records: Vec<TraceRecord> = tracer.take_records();
        let report = blame_report(&TraceIndex::build(&records));
        TraceSummary {
            records: records.len() as u64,
            dropped: self
                .world
                .metrics()
                .counter(Key::global("trace.dropped"))
                .get(),
            blame: report
                .rows()
                .into_iter()
                .map(|(k, _, share)| (k.layer.to_string(), k.node.0, share))
                .collect(),
        }
    }

    /// Installs the wait-state profiler.
    pub fn profile_on(&self) -> Profile {
        let p = Profiler::new("DepFastRaft");
        p.install(self.tracer(), &self.world);
        Profile(p)
    }

    /// Removes the profiler and returns node 0's `(site, virtual ns)`
    /// rows, summed over phases.
    pub fn profile_summary(&self, profile: Profile) -> Vec<(String, u64)> {
        profile.0.uninstall(self.tracer(), &self.world);
        let mut rows: Vec<(String, u64)> = Vec::new();
        for line in profile.0.lines().into_iter().filter(|l| l.node == 0) {
            match rows.iter_mut().find(|(site, _)| *site == line.site) {
                Some(row) => row.1 += line.nanos,
                None => rows.push((line.site, line.nanos)),
            }
        }
        rows
    }
}

// ----------------------------------------------------------------------
// Group C: isolated probes of each layer's public functions.
// ----------------------------------------------------------------------

/// What one probe batch measured.
pub struct ProbeOut {
    /// Host nanoseconds spent in the timed section.
    pub host_ns: u64,
    /// Calls made in the timed section.
    pub calls: u64,
    /// A second reading some probes take (virtual time, polls).
    pub extra: f64,
}

/// How many calls a probe batch makes.
#[derive(Debug, Clone, Copy)]
pub enum Calls {
    /// As many as fill the harness's batch time.
    Auto,
    /// The same, but no more than this (the probe's memory grows with
    /// every call).
    AtMost(u64),
    /// Exactly this many (the probe is a fixed piece of work).
    Exactly(u64),
}

/// One probe: `run(n)` performs about `n` calls and times them, set-up
/// excluded.
pub struct Probe {
    /// Metric name.
    pub name: &'static str,
    /// Calls per batch.
    pub calls: Calls,
    /// Report calls per host second instead of host ns per call.
    pub per_second: bool,
    /// Name and unit of the second reading, when the probe takes one.
    /// It is a cost (lower is better) unless its unit is a rate.
    pub extra: Option<(&'static str, &'static str)>,
    /// Runs one batch.
    pub run: fn(u64) -> ProbeOut,
}

impl Probe {
    fn new(name: &'static str, run: fn(u64) -> ProbeOut) -> Probe {
        Probe {
            name,
            calls: Calls::Auto,
            per_second: false,
            extra: None,
            run,
        }
    }

    fn with_extra(
        name: &'static str,
        extra: (&'static str, &'static str),
        run: fn(u64) -> ProbeOut,
    ) -> Probe {
        Probe {
            extra: Some(extra),
            ..Probe::new(name, run)
        }
    }

    fn per_second(self) -> Probe {
        Probe {
            per_second: true,
            ..self
        }
    }

    fn calls(self, calls: Calls) -> Probe {
        Probe { calls, ..self }
    }
}

fn timed(calls: u64, f: impl FnOnce()) -> ProbeOut {
    let t = Instant::now();
    f();
    ProbeOut {
        host_ns: t.elapsed().as_nanos() as u64,
        calls,
        extra: 0.0,
    }
}

fn probe_world(nodes: usize) -> (Sim, World) {
    let sim = Sim::new(7);
    let world = World::new(sim.clone(), world_cfg(nodes));
    (sim, world)
}

fn append_req(entries: u64, payload: usize) -> AppendReq {
    let es: Vec<Entry> = (1..=entries)
        .map(|i| Entry {
            term: 1,
            index: i,
            payload: Bytes::from(vec![i as u8; payload]),
        })
        .collect();
    AppendReq {
        term: 1,
        leader: 0,
        prev_index: 0,
        prev_term: 0,
        entries: to_wire(&es),
        commit: 0,
        lazy: false,
    }
}

fn log_with(rt: &Runtime, world: &World, entries: u64) -> LogStore {
    let log = LogStore::new(rt, world, raft_cfg().log);
    let batch: Vec<Entry> = (1..=entries)
        .map(|i| Entry {
            term: 1,
            index: i,
            payload: Bytes::from(vec![0u8; 1000]),
        })
        .collect();
    log.append(&batch);
    log
}

/// A single-server cluster driven closed-loop by 64 sessions: the
/// baseline a replicated run is compared against.
fn single_node(ops: u64) -> ProbeOut {
    let topo = Topology {
        servers: 1,
        groups: 0,
        sessions: 64,
        read_index: false,
    };
    let bed = world(7, &topo).cluster(&topo);
    // (operations not yet started, operations finished)
    let progress = Rc::new(Cell::new((ops, 0u64)));
    for i in 0..topo.sessions {
        let (session, progress) = (bed.session(i), progress.clone());
        let mut gen = Gen::new(50_000, 1000, 0.0, false, 7 + i as u64);
        bed.spawn_on_session(i, async move {
            while progress.get().0 > 0 {
                progress.set((progress.get().0 - 1, progress.get().1));
                let op = gen.next_op();
                session.put(op.key, op.value).await;
                progress.set((progress.get().0, progress.get().1 + 1));
            }
        });
    }
    let mut out = timed(ops, || {
        while progress.get().1 < ops {
            bed.run_until_ns(bed.now_ns() + 10_000_000);
        }
    });
    out.extra = ops as f64 / (bed.now_ns() as f64 / 1e9);
    out
}

/// Every group-C probe, in reporting order.
pub fn probes() -> Vec<Probe> {
    vec![
        Probe::new("simkit.probe.spawn_ns", |n| {
            let sim = Sim::new(7);
            let out = timed(n, || {
                for _ in 0..n {
                    sim.spawn(async {});
                }
            });
            sim.run();
            out
        }),
        Probe::new("simkit.probe.poll_ns", |n| {
            let sim = Sim::new(7);
            sim.spawn(async move {
                for _ in 0..n {
                    yield_now().await;
                }
            });
            timed(n, || sim.run())
        }),
        Probe::new("simkit.probe.timer_ns", |n| {
            // 1 000 tasks sleeping in turn: the timer heap stays
            // about 1 000 deep, as it does under 256 sessions.
            let sim = Sim::new(7);
            let per_task = (n / 1000).max(1);
            for t in 0..1000u64 {
                let s = sim.clone();
                sim.spawn(async move {
                    for _ in 0..per_task {
                        s.sleep(Duration::from_micros(100 + t)).await;
                    }
                });
            }
            timed(per_task * 1000, || sim.run())
        }),
        Probe::new("simkit.probe.net_send_ns", |n| {
            let (sim, world) = probe_world(2);
            world.register_handler(NodeId(1), |_| {});
            let payload = Bytes::from(vec![0u8; 1000]);
            timed(n, || {
                for _ in 0..n {
                    world.send(NodeId(0), NodeId(1), payload.clone());
                }
                sim.run();
            })
        }),
        Probe::new("simkit.probe.cpu_await_ns", |n| {
            let (sim, world) = probe_world(1);
            sim.spawn(async move {
                for _ in 0..n {
                    let _ = world.cpu(NodeId(0), Duration::from_micros(10)).await;
                }
            });
            timed(n, || sim.run())
        }),
        Probe::new("simkit.probe.disk_await_ns", |n| {
            let (sim, world) = probe_world(1);
            sim.spawn(async move {
                for _ in 0..n {
                    let _ = world.disk(NodeId(0), DiskOp::Fsync { bytes: 4096 }).await;
                }
            });
            timed(n, || sim.run())
        }),
        Probe::new("core.probe.notify_fire_ns", |n| {
            let sim = Sim::new(7);
            let rt = Runtime::new_sim(sim, NodeId(0));
            timed(n, || {
                for _ in 0..n {
                    Notify::new(&rt).set(Signal::Ok);
                }
            })
        }),
        Probe::new("core.probe.quorum3_ns", |n| {
            let sim = Sim::new(7);
            let rt = Runtime::new_sim(sim, NodeId(0));
            timed(n, || {
                for _ in 0..n {
                    let q = QuorumEvent::majority(&rt);
                    let kids = [Notify::new(&rt), Notify::new(&rt), Notify::new(&rt)];
                    for k in &kids {
                        q.add(k);
                    }
                    kids[0].set(Signal::Ok);
                    kids[1].set(Signal::Ok);
                    std::hint::black_box(q.ready());
                }
            })
        }),
        Probe::new("core.probe.coroutine_switch_ns", |n| {
            // Two coroutines handing control back and forth through
            // events: create, wait, fire, resume.
            let sim = Sim::new(7);
            let rt = Runtime::new_sim(sim.clone(), NodeId(0));
            let rt2 = rt.clone();
            Coroutine::create(&rt, "probe", async move {
                for _ in 0..n {
                    let ev = Notify::new(&rt2);
                    let ev2 = ev.clone();
                    Coroutine::create(&rt2, "probe:peer", async move {
                        ev2.set(Signal::Ok);
                    });
                    ev.handle().wait().await;
                }
            });
            timed(n, || sim.run())
        }),
        Probe::new("core.probe.tracer_record_ns", |n| {
            let tracer = Tracer::new();
            tracer.set_record_capacity(n as usize);
            tracer.set_record_full(true);
            timed(n, || {
                for i in 0..n {
                    tracer.record(|| TraceRecord::TraceBegin {
                        t: SimTime::from_nanos(i),
                        node: NodeId(0),
                        trace_id: i,
                        label: "probe",
                    });
                }
            })
        }),
        Probe::new("rpc.probe.encode_append25_ns", |n| {
            let req = append_req(25, 1000);
            timed(n, || {
                for _ in 0..n {
                    std::hint::black_box(std::hint::black_box(&req).to_bytes());
                }
            })
        }),
        Probe::new("rpc.probe.decode_append25_ns", |n| {
            let wire = append_req(25, 1000).to_bytes();
            timed(n, || {
                for _ in 0..n {
                    std::hint::black_box(AppendReq::from_bytes(std::hint::black_box(&wire)));
                }
            })
        }),
        Probe::with_extra(
            "rpc.probe.call_roundtrip_ns",
            ("rpc.probe.call_roundtrip_polls", "polls/call"),
            |n| {
                let (sim, world) = probe_world(2);
                let registry = Registry::new();
                let eps: Vec<Endpoint> = (0..2)
                    .map(|i| {
                        let rt = Runtime::new_sim(sim.clone(), NodeId(i));
                        Endpoint::new(&rt, &world, &registry, RpcCfg::default())
                    })
                    .collect();
                eps[1].register(0x40, "probe:echo", |_from, payload, responder| {
                    responder.reply(payload);
                });
                let caller = eps[0].clone();
                let payload = Bytes::from(vec![0u8; 100]);
                Coroutine::create(&caller.runtime().clone(), "probe", async move {
                    for _ in 0..n {
                        let ev = caller.proxy(NodeId(1)).call(0x40, "echo", payload.clone());
                        ev.handle().wait().await;
                    }
                });
                let polls = sim.polls();
                let mut out = timed(n, || sim.run());
                out.extra = (sim.polls() - polls) as f64 / n as f64;
                drop(eps);
                out
            },
        ),
        Probe::new("storage.probe.wal_append_ns", |n| {
            let (sim, world) = probe_world(1);
            let rt = Runtime::new_sim(sim.clone(), NodeId(0));
            let wal = Wal::new(&rt, &world, WalCfg::default());
            timed(n, || {
                for _ in 0..n {
                    wal.append(1016);
                }
                sim.run();
            })
        }),
        Probe::new("storage.probe.log_append25_ns", |n| {
            let (sim, world) = probe_world(1);
            let rt = Runtime::new_sim(sim.clone(), NodeId(0));
            let log = LogStore::new(&rt, &world, raft_cfg().log);
            let payload = Bytes::from(vec![0u8; 1000]);
            timed(n, || {
                for b in 0..n {
                    let batch: Vec<Entry> = (1..=25)
                        .map(|i| Entry {
                            term: 1,
                            index: b * 25 + i,
                            payload: payload.clone(),
                        })
                        .collect();
                    log.append(&batch);
                }
                sim.run();
            })
        }),
        Probe::new("storage.probe.log_read_cached_ns", |n| {
            let (sim, world) = probe_world(1);
            let rt = Runtime::new_sim(sim, NodeId(0));
            let log = log_with(&rt, &world, 10_000);
            timed(n, || {
                for _ in 0..n {
                    std::hint::black_box(log.read_raw(9_970, 9_995));
                }
            })
        }),
        Probe::new("storage.probe.log_read_evicted_ns", |n| {
            let (sim, world) = probe_world(1);
            let rt = Runtime::new_sim(sim, NodeId(0));
            let log = log_with(&rt, &world, 10_000);
            timed(n, || {
                for _ in 0..n {
                    std::hint::black_box(log.read_raw(100, 125));
                }
            })
        }),
        Probe::new("storage.probe.memkv_apply_ns", |n| {
            let mut kv = MemKv::new();
            let keys: Vec<Bytes> = (0..1000).map(record_key).collect();
            let value = Bytes::from(vec![0u8; 1000]);
            let reply = Bytes::from_static(b"ok");
            timed(n, || {
                for i in 0..n {
                    let key = keys[(i % 1000) as usize].clone();
                    kv.apply_dedup(i % 256, i, |kv| {
                        kv.put(key, value.clone());
                        reply.clone()
                    });
                }
            })
        }),
        Probe::new("kv.probe.request_codec_ns", |n| {
            let req = KvRequest {
                client: 1,
                seq: 1,
                op: KvOp::Put,
                key: record_key(1),
                value: Bytes::from(vec![0u8; 1000]),
            };
            timed(n, || {
                for _ in 0..n {
                    let wire = std::hint::black_box(&req).to_bytes();
                    std::hint::black_box(KvRequest::from_bytes(&wire));
                }
            })
        }),
        Probe::new("metrics.probe.histogram_record_ns", |n| {
            let h = MetricsRegistry::new().histogram(Key::node("probe", 0));
            timed(n, || {
                for i in 0..n {
                    h.record_ns(1_000 + (i & 0xffff) * 97);
                }
            })
        }),
        Probe::new("metrics.probe.counter_lookup_ns", |n| {
            // A registry as full as a 3-node cluster's.
            let (_sim, world) = probe_world(3 + 256);
            let m = world.metrics();
            timed(n, || {
                for i in 0..n {
                    m.counter(Key::tagged("rpc.errors", (i % 3) as u32, "append"))
                        .inc();
                }
            })
        }),
        Probe::new("metrics.probe.sampler_sample_ns", |n| {
            let (_sim, world) = probe_world(3 + 256);
            let mut sampler = Sampler::new(world.metrics(), 1);
            timed(n, || {
                for i in 0..n {
                    sampler.sample_at(i + 1);
                }
            })
        })
        // Every sample keeps a row of the whole registry.
        .calls(Calls::AtMost(200)),
        Probe::new("ycsb.probe.next_op_zipf_ns", |n| {
            let mut gen = Gen::new(20_000, 1000, 0.95, true, 7);
            timed(n, || {
                for _ in 0..n {
                    std::hint::black_box(gen.next_op());
                }
            })
        }),
        Probe::with_extra(
            "raft.probe.single_node_ops_per_wall_s",
            ("raft.probe.single_node_virt_tput_ops_s", "1/s"),
            single_node,
        )
        .per_second()
        .calls(Calls::Exactly(10_000)),
    ]
}
