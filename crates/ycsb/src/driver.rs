//! Closed-loop workload driver: the paper's measurement loop.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use depfast_kv::{KvError, ShardedKvCluster};
use depfast_metrics::{Histogram, Summary};
use simkit::{NodeId, Sim, World};

use crate::workload::{OpGen, OpKind, WorkloadSpec};

/// Driver configuration.
#[derive(Debug, Clone, Copy)]
pub struct DriverCfg {
    /// Warm-up window excluded from statistics.
    pub warmup: Duration,
    /// Measurement window.
    pub measure: Duration,
    /// Base seed for per-client generators.
    pub seed: u64,
}

impl Default for DriverCfg {
    fn default() -> Self {
        DriverCfg {
            warmup: Duration::from_secs(2),
            measure: Duration::from_secs(10),
            seed: 42,
        }
    }
}

/// Results of one workload run: the aggregate plus the per-group split
/// the blast-radius analysis reads.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Successful operations inside the measurement window.
    pub ops: u64,
    /// Failed operations inside the measurement window.
    pub errors: u64,
    /// Throughput over the measurement window (ops/s).
    pub throughput: f64,
    /// Latency distribution of successful measured operations.
    pub latency: Summary,
    /// `true` if any server node crashed during the run (e.g. the
    /// BacklogRaft leader OOM).
    pub server_crashed: bool,
    /// The same numbers per Raft group, in the cluster's group order
    /// (one element, equal to the aggregate, for a single group).
    pub groups: Vec<GroupStats>,
}

/// One group's share of a workload run.
#[derive(Debug, Clone)]
pub struct GroupStats {
    /// Raft group id.
    pub gid: u32,
    /// Successful operations routed to this group in the window.
    pub ops: u64,
    /// Failed operations routed to this group in the window.
    pub errors: u64,
    /// This group's throughput over the measurement window (ops/s).
    pub throughput: f64,
    /// Latency distribution of this group's measured operations.
    pub latency: Summary,
}

#[derive(Default)]
struct Recorder {
    hist: Histogram,
    ops: u64,
    errors: u64,
}

impl Recorder {
    fn record(&mut self, result: Result<(), KvError>, latency: Duration) {
        match result {
            Ok(()) => {
                self.ops += 1;
                self.hist.record(latency);
            }
            Err(_) => self.errors += 1,
        }
    }
}

/// Runs `spec` against `cluster` with all of its clients in closed loop,
/// then reports statistics for the measurement window. Every operation
/// is also attributed to the Raft group its key routes to.
pub fn run_workload(
    sim: &Sim,
    world: &World,
    cluster: &Rc<ShardedKvCluster>,
    spec: WorkloadSpec,
    cfg: DriverCfg,
) -> RunStats {
    let n_groups = cluster.raft.groups.len();
    // The aggregate, then one recorder per group.
    let recs: Rc<RefCell<Vec<Recorder>>> = Rc::new(RefCell::new(
        (0..=n_groups).map(|_| Recorder::default()).collect(),
    ));
    let t_start = sim.now();
    let t_measure = t_start + cfg.warmup;
    let t_end = t_measure + cfg.measure;
    for i in 0..cluster.clients.len() {
        let cluster = cluster.clone();
        let recs = recs.clone();
        let sim2 = sim.clone();
        let mut gen = OpGen::new(spec, cfg.seed.wrapping_add(i as u64 * 7919));
        // Each client loop is a proper coroutine so the causal context a
        // `KvClient` operation sets stays scoped to this session instead
        // of leaking through the ambient slot into unrelated tasks.
        let rt = cluster.clients[i].runtime().clone();
        depfast::Coroutine::create(&rt, "ycsb:client", async move {
            let client = &cluster.clients[i];
            loop {
                let now = sim2.now();
                if now >= t_end {
                    break;
                }
                let (kind, key, value) = gen.next_op();
                let group = cluster.map.group_of(&key) as usize;
                let t0 = sim2.now();
                let result = match kind {
                    OpKind::Update | OpKind::Insert => client.put(key, value).await,
                    OpKind::Read => client.get(key).await.map(|_| ()),
                };
                let t1 = sim2.now();
                if t0 >= t_measure && t1 <= t_end {
                    let mut recs = recs.borrow_mut();
                    recs[0].record(result, t1 - t0);
                    recs[group].record(result, t1 - t0);
                }
            }
        });
    }
    sim.run_until_time(t_end);
    let server_crashed =
        (0..cluster.raft.runtimes.len()).any(|n| world.is_crashed(NodeId(n as u32)));
    let recs = recs.borrow();
    let throughput = |r: &Recorder| r.ops as f64 / cfg.measure.as_secs_f64();
    let groups = cluster
        .raft
        .groups
        .iter()
        .zip(&recs[1..])
        .map(|(g, r)| GroupStats {
            gid: g.gid,
            ops: r.ops,
            errors: r.errors,
            throughput: throughput(r),
            latency: r.hist.summary(),
        })
        .collect();
    let total = &recs[0];
    RunStats {
        ops: total.ops,
        errors: total.errors,
        throughput: throughput(total),
        latency: total.hist.summary(),
        server_crashed,
        groups,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use depfast_raft::cluster::{Placement, RaftKind};
    use depfast_raft::core::RaftCfg;
    use simkit::WorldCfg;

    fn run(kind: RaftKind, n_clients: usize) -> RunStats {
        let sim = Sim::new(77);
        let world = World::new(
            sim.clone(),
            WorldCfg {
                nodes: 3 + n_clients,
                ..WorldCfg::default()
            },
        );
        let cluster = Rc::new(ShardedKvCluster::build(
            &sim,
            &world,
            kind,
            Placement::Single { n: 3 },
            n_clients,
            RaftCfg {
                bootstrap_leader: Some(0),
                ..RaftCfg::default()
            },
            depfast_kv::DEFAULT_SERVE_CPU,
        ));
        run_workload(
            &sim,
            &world,
            &cluster,
            WorkloadSpec::update_heavy()
                .with_records(1000)
                .with_value_size(128),
            DriverCfg {
                warmup: Duration::from_millis(500),
                measure: Duration::from_secs(2),
                seed: 1,
            },
        )
    }

    #[test]
    fn depfast_driver_sustains_throughput() {
        let stats = run(RaftKind::DepFast, 8);
        assert!(stats.ops > 100, "got {} ops", stats.ops);
        assert_eq!(stats.errors, 0);
        assert!(!stats.server_crashed);
        assert!(stats.latency.p50 > Duration::ZERO);
        assert!(stats.latency.p99 >= stats.latency.p50);
        // A single group's split is one element: the aggregate, at gid 0.
        let [only] = &stats.groups[..] else {
            panic!("one group expected, got {}", stats.groups.len());
        };
        assert_eq!((only.gid, only.ops, only.errors), (0, stats.ops, 0));
        assert_eq!(only.latency, stats.latency);
    }

    #[test]
    fn throughput_scales_with_clients() {
        let one = run(RaftKind::DepFast, 1);
        let many = run(RaftKind::DepFast, 16);
        assert!(
            many.throughput > one.throughput * 2.0,
            "1 client: {:.0}/s, 16 clients: {:.0}/s",
            one.throughput,
            many.throughput
        );
    }

    #[test]
    fn legacy_drivers_also_run() {
        for kind in [RaftKind::Sync, RaftKind::Backlog, RaftKind::Callback] {
            let stats = run(kind, 4);
            assert!(stats.ops > 50, "{kind:?}: {} ops", stats.ops);
        }
    }
}
