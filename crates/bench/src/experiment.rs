//! The one run harness, following the paper's methodology (§2.1): build
//! a cluster, drive a YCSB update workload with enough concurrent
//! clients to load the leader to ~75% CPU, inject faults, measure.
//!
//! A [`Run`] describes one such procedure — cluster shape, Raft tuning,
//! an [`InjectionPlan`] of fault windows and load triggers, and the
//! opt-in [`Instruments`] — and [`Run::execute`] returns one
//! [`RunReport`] that owns everything derived from it: statistics,
//! metric series, traces, profiles, incident dumps and the survival
//! verdict. Deterministic: same description, byte-identical report.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Duration;

use depfast_detect::{DetectorMode, FailSlowDetector, StormMonitor};
use depfast_fault::{FaultKind, FaultLedger, FaultRecord};
use depfast_incident::{score, IncidentDump};
use depfast_kv::{RetryPolicy, ShardedKvCluster};
use depfast_metrics::{group_label, Key, MetricValue, MetricsRegistry, Sampler, Summary};
use depfast_profile::Profiler;
use depfast_raft::cluster::{Placement, RaftKind};
use depfast_raft::core::RaftCfg;
use depfast_scenario::{CompileError, InjectionPlan, Scenario, Target, Window};
use depfast_storage::{LogStoreCfg, WalCfg};
use depfast_ycsb::driver::{run_workload, DriverCfg, RunStats};
use depfast_ycsb::workload::WorkloadSpec;
use simkit::{MemCfg, NodeId, Sim, World, WorldCfg};

use crate::cells::{RunRecord, ScenarioRecord};
use crate::suites::GATE_SEED;

/// Raft tuning used by every experiment: calibrated so a healthy 3-node
/// DepFastRaft cluster lands near the paper's ~5 K req/s base performance
/// with the leader around 75% CPU.
pub fn bench_raft_cfg() -> RaftCfg {
    RaftCfg {
        bootstrap_leader: Some(0),
        batch_max: 64,
        // Group-commit linger while the pipeline is busy: coalesces the
        // pipelined round stream into ~20-entry batches at the ~5 K req/s
        // operating point (one WAL fsync + one per-peer append per round
        // instead of per entry). See docs/PERFORMANCE.md.
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

/// Per-request processing cost on the serving node (runs across cores);
/// together with [`bench_raft_cfg`] it puts the leader near 75% CPU at the
/// ~5 K req/s operating point.
pub fn bench_serve_cpu() -> Duration {
    Duration::from_micros(250)
}

/// World tuning shared by the experiments (Standard_D4s_v3-like nodes).
pub fn bench_world_cfg(nodes: usize) -> WorldCfg {
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

/// The Table 1 memory-contention limit used in experiments: squeezes the
/// process to just above its baseline so paging pressure is real.
pub fn mem_contention_limit() -> u64 {
    2 * 1024 * 1024 * 1024 + 200 * 1024 * 1024
}

/// Sampling interval of the metric sampler, the storm monitor and the
/// load-trigger poll; the survival series are on this grid.
pub const SAMPLE_EVERY: Duration = Duration::from_millis(100);

/// `groups` groups of 3 replicas striped over `nodes` server nodes.
pub fn striped(groups: usize, nodes: usize) -> Placement {
    Placement::Striped {
        groups,
        nodes,
        size: 3,
    }
}

/// What a run records beyond client statistics. Everything is off by
/// default; instruments compose (any subset may be on at once) and none
/// of sampler / trace / profiler changes the simulated results.
#[derive(Debug, Clone, Copy, Default)]
pub struct Instruments {
    /// Sample the metric registry every [`SAMPLE_EVERY`] of virtual
    /// time. Implied by `detector` and `retry`, whose verdicts read the
    /// series.
    pub sampler: bool,
    /// Full causal tracing for the whole run ([`RunReport::records`]),
    /// with critical-path blame folded live ([`RunReport::blame`]).
    pub trace: bool,
    /// Wait-state profiler installed for the whole run, warm-up
    /// included ([`RunReport::profiler`]).
    pub profiler: bool,
    /// Fail-slow detector watching the cluster's `rpc.latency` series,
    /// judging against this mode's references.
    pub detector: Option<DetectorMode>,
    /// §5's leader handover when the detector suspects the leader: the
    /// suspect holds its proposals until its healthiest follower has its
    /// whole log, then that follower campaigns (one group only; needs
    /// `detector`).
    pub leader_mitigation: bool,
    /// Retry policy installed on every client session, plus a storm
    /// monitor ticked with the sampler. The survival series becomes
    /// client *goodput* — a storm commits plenty of duplicate work while
    /// clients see nothing.
    pub retry: Option<RetryPolicy>,
}

/// One experiment: the §2.1 procedure as data.
#[derive(Debug, Clone)]
pub struct Run {
    /// Raft driver under test (every group runs the same one).
    pub kind: RaftKind,
    /// Where the Raft groups live. There is no separate single-group
    /// path: [`Placement::Single`] is one group at gid 0, and gid 0 is the
    /// identity namespace (base method ids, untagged `raft.*` keys,
    /// `HealthEvent::group == None`), so its results are byte-identical
    /// to a cluster that never heard of groups.
    pub placement: Placement,
    /// Concurrent closed-loop clients, one per host node.
    pub n_clients: usize,
    /// Determinism seed (sim, workload and scenario target choice).
    pub seed: u64,
    /// Warm-up excluded from stats.
    pub warmup: Duration,
    /// Measurement window.
    pub measure: Duration,
    /// YCSB keyspace size.
    pub records: u64,
    /// YCSB value bytes.
    pub value_size: usize,
    /// Raft tuning ([`bench_raft_cfg`] unless an ablation edits it).
    pub raft: RaftCfg,
    /// Name of what is injected — `"none"`, a fault-class name or a
    /// scenario name; keys incident dumps and suite cells.
    pub fault: String,
    /// Fault windows and load triggers to arm.
    pub plan: InjectionPlan,
    /// Opt-in instruments.
    pub instruments: Instruments,
}

impl Default for Run {
    fn default() -> Self {
        Run {
            kind: RaftKind::DepFast,
            placement: Placement::Single { n: 3 },
            n_clients: 256,
            seed: GATE_SEED,
            warmup: Duration::from_secs(2),
            measure: Duration::from_secs(10),
            records: 500_000,
            value_size: 1000,
            raft: bench_raft_cfg(),
            fault: "none".to_string(),
            plan: InjectionPlan::default(),
            instruments: Instruments::default(),
        }
    }
}

impl Run {
    /// Adds one window of `kind` per node in `nodes`, from `at` for
    /// `duration` (`None` = the rest of the run), and names the run
    /// after the fault class. Table 1 experiments inject at
    /// `warmup / 2`; incident experiments past the detector's warm-up
    /// windows.
    pub fn with_fault(
        mut self,
        nodes: impl IntoIterator<Item = u32>,
        kind: FaultKind,
        at: Duration,
        duration: Option<Duration>,
    ) -> Run {
        self.fault = kind.name().to_string();
        self.plan
            .windows
            .extend(nodes.into_iter().map(|node| Window {
                node,
                kind,
                at,
                duration,
            }));
        self
    }

    /// Compiles `scenario` onto this (single-group, 0-led) cluster,
    /// names the run after it, and wires leader mitigation for DepFast
    /// leader cells (needs a detector to act on).
    pub fn with_scenario(mut self, scenario: &Scenario) -> Result<Run, CompileError> {
        let Placement::Single { n } = self.placement else {
            panic!("scenarios compile onto a single group");
        };
        self.plan = scenario.compile(n, 0, self.seed)?;
        self.fault = scenario.name.clone();
        self.instruments.leader_mitigation =
            self.kind == RaftKind::DepFast && scenario.target == Target::Leader;
        Ok(self)
    }

    /// Turns on the detector in `mode` (and with it the sampler).
    pub fn with_detector(mut self, mode: DetectorMode) -> Run {
        self.instruments.detector = Some(mode);
        self
    }

    /// The cluster-shape discriminator used in suite cells and incident
    /// dumps: `"{servers}x{clients}"` or `"{groups}g{nodes}n"`.
    pub fn cluster_label(&self) -> String {
        match self.placement {
            Placement::Single { n } => format!("{n}x{}", self.n_clients),
            p => format!("{}g{}n", p.groups().len(), p.server_nodes()),
        }
    }

    /// Runs the experiment end to end.
    pub fn execute(&self) -> RunReport {
        let ins = &self.instruments;
        let sim = Sim::new(self.seed);
        let world = World::new(
            sim.clone(),
            bench_world_cfg(self.placement.server_nodes() + self.n_clients),
        );
        let metrics = world.metrics();
        let cluster = Rc::new(ShardedKvCluster::build(
            &sim,
            &world,
            self.kind,
            self.placement,
            self.n_clients,
            self.raft,
            bench_serve_cpu(),
        ));
        let tracer = cluster.raft.tracer.clone();
        let ledger = FaultLedger::new();
        let monitor = ins.retry.map(|policy| {
            for client in &cluster.clients {
                client.set_policy(policy);
            }
            StormMonitor::new(&tracer, &ledger)
        });
        if ins.trace {
            tracer.set_record_full(true);
            tracer.install_blame_fold();
        }
        let profiler = ins.profiler.then(|| {
            let p = Profiler::new(self.kind.name());
            p.install(&tracer, &world);
            p
        });
        let sampler = Rc::new(RefCell::new(Sampler::new(
            metrics.clone(),
            SAMPLE_EVERY.as_nanos() as u64,
        )));
        let inject = {
            let (sim, world, ledger) = (sim.clone(), world.clone(), ledger.clone());
            move |node: u32, kind, at, duration| {
                depfast_fault::inject_at_logged(
                    &sim,
                    &world,
                    NodeId(node),
                    kind,
                    at,
                    duration,
                    &ledger,
                )
            }
        };
        let mut armed = self.plan.triggers.clone();
        if ins.sampler || ins.detector.is_some() || monitor.is_some() || !armed.is_empty() {
            // The run's one virtual-clock tick; rows align to the interval
            // grid. A load trigger is checked on the row just taken and
            // fires the first time that row's commit level reaches its
            // threshold.
            let (sampler, monitor, sim2) = (sampler.clone(), monitor.clone(), sim.clone());
            let (inject, metrics) = (inject.clone(), metrics.clone());
            sim.spawn(async move {
                loop {
                    sim2.sleep(SAMPLE_EVERY).await;
                    if let Some(m) = &monitor {
                        m.tick(sim2.now());
                    }
                    let mut sampler = sampler.borrow_mut();
                    sampler.sample_at(sim2.now().as_nanos());
                    if armed.is_empty() {
                        continue;
                    }
                    let row = sampler.rows().last().expect("a row was just taken");
                    let commits = Series::Commits.level(&row.values);
                    let (due, waiting): (Vec<_>, Vec<_>) = std::mem::take(&mut armed)
                        .into_iter()
                        .partition(|t| commits >= t.commits as i128);
                    armed = waiting;
                    for t in due {
                        for &node in &t.nodes {
                            inject(node, t.kind, Duration::ZERO, Some(t.duration));
                        }
                        metrics.counter(Key::global("scenario.trigger.fired")).inc();
                    }
                }
            });
        }
        let detector = ins
            .detector
            .map(|mode| FailSlowDetector::spawn(&sim, &tracer, mode));
        if ins.leader_mitigation {
            let ([group], Some(detector)) = (&cluster.raft.groups[..], &detector) else {
                panic!("leader mitigation needs a single group and a detector");
            };
            let cores = group.servers.iter().map(|s| s.core().clone()).collect();
            depfast_detect::spawn_leader_mitigation(&sim, detector, cores);
        }
        for w in &self.plan.windows {
            inject(w.node, w.kind, w.at, w.duration);
        }
        metrics
            .counter(Key::global("scenario.windows.armed"))
            .add(self.plan.windows.len() as u64);
        let spec = WorkloadSpec::update_heavy()
            .with_records(self.records)
            .with_value_size(self.value_size);
        let dcfg = DriverCfg {
            warmup: self.warmup,
            measure: self.measure,
            seed: self.seed ^ 0x5eed,
        };
        let stats = run_workload(&sim, &world, &cluster, spec, dcfg);
        let (records, blame) = if ins.trace {
            tracer.set_record_full(false);
            (tracer.take_records(), Some(tracer.finish_blame_fold()))
        } else {
            (Vec::new(), None)
        };
        if let Some(p) = &profiler {
            p.uninstall(&tracer, &world);
        }
        let health = tracer.take_health_events();
        // The one rule for loss: both capacity-capped buffers are read
        // here, once, and carried by the report.
        let health_dropped = tracer.health_dropped();
        let trace_dropped = metrics.counter(Key::global("trace.dropped")).get();
        let faults = ledger.records();
        // Everything the report keeps has been read: the world ends here,
        // and with the sampling task gone the sampler is the report's.
        cluster.raft.teardown(&sim);
        let sampler = Rc::into_inner(sampler).expect("the sampling task is gone");
        RunReport {
            run: self.clone(),
            stats,
            sampler: sampler.into_inner(),
            health,
            health_dropped,
            trace_dropped,
            records,
            blame,
            profiler,
            faults,
            metrics,
        }
    }
}

/// The level rule of every series a run differences, over one snapshot's
/// `(name, tag, level)` points: `name`'s level is the max over a group's
/// replicas (leadership may move), summed over groups (a group's points
/// carry its tag). With `tag`, only that group's points count.
pub(crate) fn level<'a, T>(
    points: impl IntoIterator<Item = (&'a str, Option<&'a str>, T)>,
    name: &str,
    tag: Option<&str>,
) -> T
where
    T: Copy + PartialOrd + std::iter::Sum,
{
    let mut groups: BTreeMap<Option<&str>, T> = BTreeMap::new();
    for (n, t, v) in points {
        if n == name && (tag.is_none() || t == tag) {
            let level = groups.entry(t).or_insert(v);
            if v > *level {
                *level = v;
            }
        }
    }
    groups.into_values().sum()
}

/// The cumulative counter a survival series differences.
#[derive(Clone, Copy)]
enum Series {
    /// Commits anywhere in the cluster.
    Commits,
    /// Commits of one group (by gid).
    GroupCommits(u32),
    /// One cluster-global counter, e.g. `client.success` (goodput).
    Global(&'static str),
}

impl Series {
    /// The counter's [`level`] in one registry snapshot.
    fn level(self, values: &[(Key, MetricValue)]) -> i128 {
        let (name, tag) = match self {
            // Group 0 is a cluster's only group, and its series are untagged.
            Series::Commits | Series::GroupCommits(0) => ("raft.commit_index", None),
            Series::GroupCommits(gid) => ("raft.commit_index", Some(group_label(gid))),
            Series::Global(name) => (name, None),
        };
        let points = values.iter().map(|(k, v)| (k.name, k.tag, v.scalar()));
        level(points, name, tag)
    }

    /// `(t_ns, ops/s)` per sampling interval: the level differenced
    /// across consecutive sample rows.
    fn rate(self, sampler: &Sampler) -> Vec<(u64, f64)> {
        let mut out = Vec::new();
        let mut prev: Option<(u64, i128)> = None;
        for row in sampler.rows() {
            let level = self.level(&row.values);
            if let Some((pt, pl)) = prev {
                let dt = row.t_ns.saturating_sub(pt);
                if dt > 0 {
                    out.push((row.t_ns, (level - pl).max(0) as f64 / (dt as f64 / 1e9)));
                }
            }
            prev = Some((row.t_ns, level));
        }
        out
    }
}

/// Everything one [`Run`] produced.
pub struct RunReport {
    /// The description that was run.
    pub run: Run,
    /// Client-side workload statistics: the aggregate and, in
    /// `stats.groups`, the per-group split (one element for one group).
    pub stats: RunStats,
    /// The cluster-shared registry with final cumulative values for
    /// every `sim.*` / `rpc.*` / `event.*` / `raft.*` series.
    pub metrics: MetricsRegistry,
    /// Interval-aligned time series (empty unless sampled).
    pub sampler: Sampler,
    /// Every health-state transition recorded during the run (always on;
    /// empty for a healthy run with no detector installed).
    pub health: Vec<depfast::HealthEvent>,
    /// Health events lost at the tracer's capacity cap. Nonzero means
    /// `health` — and every dump and scorecard built from it — is
    /// incomplete; a live gate run fails on it.
    pub health_dropped: u64,
    /// Every trace record the ring buffer retained (empty unless traced).
    pub records: Vec<depfast::TraceRecord>,
    /// Records the ring buffer had to drop (`trace.dropped`). Nonzero
    /// means the exported trace, and a blame replayed from it, is
    /// truncated; `blame` saw every record.
    pub trace_dropped: u64,
    /// Critical-path blame, folded live from every record (when traced).
    pub blame: Option<depfast::blame::BlameReport>,
    /// The wait-state profile of the whole run, ready for folded/SVG
    /// export (when profiled).
    pub profiler: Option<Profiler>,
    /// Ground truth: the fault ledger.
    pub faults: Vec<FaultRecord>,
}

impl RunReport {
    fn dump_of(
        &self,
        cluster: String,
        series: Series,
        fault_on: impl Fn(NodeId) -> bool,
        event_in: impl Fn(&depfast::HealthEvent) -> bool,
    ) -> IncidentDump {
        let mut dump = IncidentDump {
            driver: self.run.kind.name().to_string(),
            fault: self.run.fault.clone(),
            cluster,
            seed: self.run.seed,
            faults: self
                .faults
                .iter()
                .filter(|r| fault_on(r.node))
                .cloned()
                .collect(),
            events: self
                .health
                .iter()
                .filter(|e| event_in(e))
                .cloned()
                .collect(),
            throughput: series.rate(&self.sampler),
            end_ns: (self.run.warmup + self.run.measure).as_nanos() as u64,
            health_dropped: self.health_dropped,
        };
        dump.canonicalize();
        dump
    }

    /// The run's joined incident record — ground-truth ledger, reaction
    /// timeline, throughput series (goodput under a retry policy,
    /// cluster-wide commits otherwise) — canonicalized and ready for
    /// scoring, reporting or serialization.
    pub fn dump(&self) -> IncidentDump {
        let series = match self.run.instruments.retry {
            Some(_) => Series::Global("client.success"),
            None => Series::Commits,
        };
        self.dump_of(self.run.cluster_label(), series, |_| true, |_| true)
    }

    /// One incident dump per group, indexed like `stats.groups` — the
    /// blast radius split. Ground truth is restricted to the group's
    /// replicas (a fault on a non-member node is outside the group's
    /// radius by construction, so its scorecard must stay all-zero); the
    /// reaction timeline is the group-stamped events for this gid plus
    /// node-level layers (detector, mitigation) on member nodes; the
    /// series differences this group's own commit index.
    pub fn group_dumps(&self) -> Vec<IncidentDump> {
        self.run
            .placement
            .groups()
            .into_iter()
            .map(|(gid, mine)| {
                self.dump_of(
                    format!("{}/g{gid}", self.run.cluster_label()),
                    Series::GroupCommits(gid),
                    |node| mine.contains(&node),
                    |e| e.group.map_or_else(|| mine.contains(&e.node), |g| g == gid),
                )
            })
            .collect()
    }

    /// Gids of groups hosting a replica on `node`.
    pub fn hosted(&self, node: u32) -> Vec<u32> {
        self.run
            .placement
            .groups()
            .into_iter()
            .filter(|(_, mine)| mine.contains(&NodeId(node)))
            .map(|(gid, _)| gid)
            .collect()
    }

    fn perf_of(&self, labels: [&str; 3], ops: u64, throughput: f64, latency: Summary) -> RunRecord {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let [driver, fault, cluster] = labels.map(str::to_string);
        RunRecord {
            driver,
            fault,
            cluster,
            ops,
            throughput,
            mean_ms: ms(latency.mean),
            p50_ms: ms(latency.p50),
            p99_ms: ms(latency.p99),
            crashed: self.stats.server_crashed,
            drift: 1.0,
            profile: Vec::new(),
        }
    }

    /// This run as a perf cell under the labels its suite pins — the
    /// driver is usually `kind.name()` but an ablation names its knob,
    /// and fault / cluster labels are each suite's own. Carries the
    /// wait-profile rollup when the run was profiled; `drift` is 1.0
    /// until [`RunRecord::over`] sets it.
    pub fn perf(&self, driver: &str, fault: &str, cluster: &str) -> RunRecord {
        let mut profile = std::collections::BTreeMap::<String, u64>::new();
        for line in self.profiler.iter().flat_map(Profiler::lines) {
            *profile.entry(line.site).or_insert(0) += line.nanos;
        }
        let s = &self.stats;
        RunRecord {
            profile: profile.into_iter().collect(),
            ..self.perf_of([driver, fault, cluster], s.ops, s.throughput, s.latency)
        }
    }

    /// One group's client numbers as a perf cell (the blast-radius
    /// split treats a group like a small cluster); never profiled.
    pub fn group_perf(&self, gid: u32, driver: &str, fault: &str, cluster: &str) -> RunRecord {
        let g = self.stats.groups.iter().find(|g| g.gid == gid);
        let g = g.unwrap_or_else(|| panic!("no group {gid} in this run"));
        self.perf_of([driver, fault, cluster], g.ops, g.throughput, g.latency)
    }

    /// The survival cell of a single-group run, with the incident dump
    /// it was judged from: client-visible survival numbers over
    /// [`RunReport::dump`]'s series joined with its scorecard. A run
    /// whose longest post-warm-up stall exceeds `stall_limit` is not
    /// live even if throughput recovers later.
    pub fn survival(&self, stall_limit: Duration) -> (ScenarioRecord, IncidentDump) {
        let dump = self.dump();
        let warmup_ns = self.run.warmup.as_nanos() as u64;
        let onset_ns = dump.faults.iter().map(|f| f.onset.as_nanos()).min();
        let floor = dump
            .throughput
            .iter()
            .filter(|(t, _)| *t >= onset_ns.unwrap_or(warmup_ns))
            .map(|(_, ops)| *ops)
            .fold(f64::INFINITY, f64::min);
        // Longest run of near-dead samples after warm-up: the wedge
        // signal a throughput average would hide.
        let (mut stall, mut longest) = (0usize, 0usize);
        for (t, ops) in &dump.throughput {
            if *t < warmup_ns {
                continue;
            }
            stall = if *ops < 1.0 { stall + 1 } else { 0 };
            longest = longest.max(stall);
        }
        let stall_ms = longest as f64 * SAMPLE_EVERY.as_secs_f64() * 1e3;
        // Attempts per fresh op from the onset on: what the storm monitor's
        // ticks, taken with the sampler's rows, added up. A counter grew by
        // its level at the last row less its level at the row before the
        // first one at or after onset (0 before the first row).
        let amp = self.run.instruments.retry.map(|_| {
            let rows = self.sampler.rows();
            let from = rows.partition_point(|r| r.t_ns < onset_ns.unwrap_or(0));
            let grown = |name| {
                let at = |i: usize| Series::Global(name).level(&rows[i].values);
                rows.len().checked_sub(1).map_or(0, at) - from.checked_sub(1).map_or(0, at)
            };
            grown("client.attempts") as f64 / grown("client.ops").max(1) as f64
        });
        let cell = ScenarioRecord {
            scenario: self.run.fault.clone(),
            driver: self.run.kind.name().to_string(),
            live: !self.stats.server_crashed
                && self.stats.ops > 0
                && stall_ms <= stall_limit.as_secs_f64() * 1e3,
            crashed: self.stats.server_crashed,
            throughput: self.stats.throughput,
            floor: if floor.is_finite() { floor } else { 0.0 },
            p99_ms: self.stats.latency.p99.as_secs_f64() * 1e3,
            stall_ms,
            score: score(&dump),
            amp,
            give_up: Series::Global("client.give_up").level(&self.metrics.snapshot()) as u64,
        };
        (cell, dump)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(kind: RaftKind) -> Run {
        Run {
            kind,
            n_clients: 64,
            warmup: Duration::from_millis(600),
            measure: Duration::from_secs(2),
            records: 10_000,
            ..Run::default()
        }
    }

    fn slow_follower(kind: RaftKind, fault: FaultKind) -> f64 {
        let base = quick(kind);
        let slow = base
            .clone()
            .with_fault([1], fault, base.warmup / 2, None)
            .execute();
        slow.stats.throughput / base.execute().stats.throughput
    }

    #[test]
    fn baseline_depfast_hits_healthy_throughput() {
        let s = quick(RaftKind::DepFast).execute().stats;
        assert!(s.throughput > 1000.0, "got {:.0}/s", s.throughput);
        assert!(!s.server_crashed);
    }

    #[test]
    fn depfast_tolerates_slow_follower() {
        let ratio = slow_follower(RaftKind::DepFast, FaultKind::CpuSlow { quota: 0.05 });
        assert!(
            ratio > 0.90,
            "DepFastRaft throughput should hold: {ratio:.2}"
        );
    }

    #[test]
    fn sync_raft_degrades_under_slow_follower() {
        let delay = Duration::from_millis(400);
        let ratio = slow_follower(RaftKind::Sync, FaultKind::NetSlow { delay });
        assert!(ratio < 0.95, "SyncRaft should lose throughput: {ratio:.2}");
    }

    fn sharded(n_groups: usize, n_clients: usize) -> RunReport {
        Run {
            placement: striped(n_groups, 6),
            n_clients,
            ..quick(RaftKind::DepFast)
        }
        .execute()
    }

    #[test]
    fn sharded_baseline_commits_on_every_group() {
        let r = sharded(4, 48);
        assert!(
            r.stats.throughput > 1000.0,
            "got {:.0}/s",
            r.stats.throughput
        );
        assert_eq!(r.stats.groups.len(), 4);
        for g in &r.stats.groups {
            assert!(g.ops > 0, "group {} starved: {:?}", g.gid, g.ops);
        }
    }

    #[test]
    fn more_groups_scale_aggregate_throughput() {
        let (one, four) = (sharded(1, 128), sharded(4, 128));
        let ratio = four.stats.throughput / one.stats.throughput;
        assert!(
            ratio > 1.5,
            "4 groups should out-commit 1: {ratio:.2} ({:.0} vs {:.0})",
            four.stats.throughput,
            one.stats.throughput
        );
    }

    /// A striped run's cluster-wide series is its groups' commits added
    /// up, not the busiest group's.
    #[test]
    fn the_cluster_commit_series_sums_its_groups() {
        let mut run = Run {
            placement: striped(2, 3),
            n_clients: 16,
            measure: Duration::from_millis(500),
            ..quick(RaftKind::DepFast)
        };
        run.instruments.sampler = true;
        let r = run.execute();
        let cluster = r.dump().throughput;
        let groups = r.group_dumps();
        assert_eq!(groups.len(), 2);
        assert!(cluster.len() > 5, "{cluster:?}");
        for (i, &(t, rate)) in cluster.iter().enumerate() {
            let sum: f64 = groups.iter().map(|g| g.throughput[i].1).sum();
            assert!(groups.iter().all(|g| g.throughput[i].0 == t));
            assert!((rate - sum).abs() < 1e-6, "at {t}: {rate} != {sum}");
        }
        assert!(cluster.iter().any(|&(_, rate)| rate > 0.0));
    }

    #[test]
    fn a_plan_with_a_trigger_and_no_other_instrument_still_fires_it() {
        let mut run = quick(RaftKind::DepFast);
        run.plan.triggers = vec![depfast_scenario::Trigger {
            commits: 500,
            nodes: vec![1],
            kind: FaultKind::CpuSlow { quota: 0.05 },
            duration: Duration::from_millis(300),
        }];
        let r = run.execute();
        let fired = r.metrics.counter(Key::global("scenario.trigger.fired"));
        assert_eq!(fired.get(), 1, "fired once, not once per tick");
        let [fault] = &r.faults[..] else {
            panic!("one ledger record, got {:?}", r.faults);
        };
        assert_eq!(fault.node, NodeId(1));
        // On the tick grid, at the first row whose commit level reached it.
        let onset = fault.onset.as_nanos();
        assert_eq!(onset % SAMPLE_EVERY.as_nanos() as u64, 0);
        let level_at = |t| {
            let row = r.sampler.rows().iter().find(|row| row.t_ns == t);
            Series::Commits.level(&row.expect("a row per tick").values)
        };
        assert!(level_at(onset) >= 500);
        assert!(level_at(onset - SAMPLE_EVERY.as_nanos() as u64) < 500);
    }

    /// Once `execute` returns, no executor of the run is alive, and so no
    /// world, runtime, endpoint or Raft core either: each holds one. A
    /// disk-slow follower leaves calls unanswered and quorums unresolved
    /// when the run stops, under every driver and over a striped fleet;
    /// the gated `leader-cpu-slow` cell adds the detector and the leader
    /// mitigation, whose hook the detector owns.
    #[test]
    fn a_run_frees_its_world() {
        let disk_slow = |run: Run| {
            let at = run.warmup / 2;
            run.with_fault([2], FaultKind::DiskSlow { bw_factor: 0.008 }, at, None)
        };
        let short = |kind| Run {
            measure: Duration::from_secs(1),
            ..quick(kind)
        };
        let striped = Run {
            placement: striped(8, 9),
            ..short(RaftKind::DepFast)
        };
        let leader_cpu_slow = depfast_scenario::catalog()
            .into_iter()
            .find(|s| s.name == "leader-cpu-slow")
            .expect("a catalog cell");
        let mode = DetectorMode::PeerWithFallback;
        let mitigated = crate::suites::episode(RaftKind::DepFast, mode)
            .with_scenario(&leader_cpu_slow)
            .expect("compiles");
        let runs = crate::suites::ALL_DRIVERS
            .map(short)
            .into_iter()
            .chain([striped])
            .map(disk_slow)
            .chain([mitigated]);
        for run in runs {
            let before = Sim::alive_on_this_thread();
            let report = run.execute();
            assert!(report.stats.ops > 0, "{} ran", run.cluster_label());
            let demoted = report.health.iter().any(|e| e.transition == "demote");
            assert_eq!(demoted, run.instruments.leader_mitigation, "{}", run.fault);
            assert_eq!(
                Sim::alive_on_this_thread(),
                before,
                "{} on {} kept its world",
                run.kind.name(),
                run.cluster_label()
            );
        }
    }

    /// Each old wrapper enabled exactly one instrument; the one harness
    /// lets them all run at once, and none may move the simulation.
    #[test]
    fn instruments_compose_without_perturbing_the_run() {
        let bare = quick(RaftKind::DepFast);
        let bare = bare.clone().with_fault(
            [2],
            FaultKind::DiskSlow { bw_factor: 0.008 },
            bare.warmup / 2,
            None,
        );
        let mut all = bare.clone();
        all.instruments = Instruments {
            sampler: true,
            trace: true,
            profiler: true,
            ..Instruments::default()
        };
        let (a, b) = (bare.execute(), all.execute());
        assert_eq!(a.stats.ops, b.stats.ops);
        assert_eq!(a.stats.errors, b.stats.errors);
        assert_eq!(a.stats.throughput, b.stats.throughput);
        assert_eq!(a.stats.latency, b.stats.latency);
        assert_eq!(a.stats.server_crashed, b.stats.server_crashed);
        assert!(a.records.is_empty() && a.profiler.is_none() && a.sampler.rows().is_empty());
        assert!(!b.records.is_empty(), "tracing recorded nothing");
        assert!(b.sampler.rows().len() > 10, "sampler recorded nothing");
        let profiler = b.profiler.expect("profiler was on");
        assert!(!profiler.lines().is_empty(), "profiler saw no samples");
    }
}
