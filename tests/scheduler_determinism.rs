//! The scheduler's promises, checked on a whole cluster: a seed fixes the
//! run down to the executor's own counters, on whichever thread it runs,
//! and a timeout that did not fire leaves nothing behind, so the timer
//! queue follows the live tasks and not the operations served.

use std::rc::Rc;
use std::sync::OnceLock;
use std::time::Duration;

use depfast_kv::{ShardedKvCluster, DEFAULT_SERVE_CPU};
use depfast_raft::cluster::{Placement, RaftKind};
use depfast_raft::core::RaftCfg;
use depfast_ycsb::driver::{run_workload, DriverCfg};
use depfast_ycsb::workload::WorkloadSpec;
use simkit::{Sim, SimTime, World, WorldCfg};

const SERVERS: usize = 3;
const CLIENTS: usize = 16;

/// What one run leaves: served operations, the executor-level fingerprint
/// `(now, commit index, polls, timers scheduled)` at the end of the
/// workload, and the timers still pending once the cluster has gone idle.
type Outcome = (u64, (SimTime, u64, u64, u64), usize);

fn run(seed: u64) -> Outcome {
    let sim = Sim::new(seed);
    let world = World::new(
        sim.clone(),
        WorldCfg {
            nodes: SERVERS + CLIENTS,
            ..WorldCfg::default()
        },
    );
    let cluster = Rc::new(ShardedKvCluster::build(
        &sim,
        &world,
        RaftKind::DepFast,
        Placement::Single { n: SERVERS },
        CLIENTS,
        RaftCfg {
            bootstrap_leader: Some(0),
            ..RaftCfg::default()
        },
        DEFAULT_SERVE_CPU,
    ));
    let stats = run_workload(
        &sim,
        &world,
        &cluster,
        WorkloadSpec::update_heavy()
            .with_records(1_000)
            .with_value_size(128),
        DriverCfg {
            warmup: Duration::from_millis(200),
            measure: Duration::from_secs(1),
            seed,
        },
    );
    assert_eq!(stats.errors, 0);
    let commit = cluster.raft.groups[0].servers[0].core().commit.get();
    let fingerprint = (sim.now(), commit, sim.polls(), sim.timers_scheduled());
    // The sessions have stopped. Let what is in flight finish, for far
    // less than the shortest timeout armed per operation (1.5 s).
    sim.run_until_time(sim.now() + Duration::from_millis(100));
    (stats.ops, fingerprint, sim.pending_timers())
}

/// `run(7)`, made once and shared by the tests that compare with it.
fn seven() -> Outcome {
    static SEVEN: OnceLock<Outcome> = OnceLock::new();
    *SEVEN.get_or_init(|| run(7))
}

#[test]
fn same_seed_same_run_down_to_polls_and_timers() {
    let (a, b) = (seven(), run(7));
    assert_eq!(a, b);
    assert_ne!(a.1, run(8).1, "the seed reaches the run");
}

/// Worlds on two threads at once share nothing: each thread's run is the
/// serial run.
#[test]
fn a_run_on_each_of_two_threads_is_the_serial_run() {
    let parallel = std::thread::scope(|s| {
        let threads = [s.spawn(|| run(7)), s.spawn(|| run(7))];
        threads.map(|t| t.join().expect("the run finished"))
    });
    assert_eq!(parallel, [seven(), seven()]);
}

#[test]
fn idle_cluster_holds_timers_for_its_tasks_not_for_the_ops_it_served() {
    let (ops, (_, commit, _, scheduled), pending) = seven();
    assert!(ops > 1_000 && commit >= ops, "ops {ops}, commit {commit}");
    assert!(scheduled > 10 * ops, "every op arms several timers");
    // Heartbeat and election sleeps: a few per server, whatever was served.
    assert!(
        pending <= 4 * SERVERS,
        "{pending} timers pending on an idle cluster after {ops} ops"
    );
}
