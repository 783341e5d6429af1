//! The standard YCSB letter workloads all run against the replicated KV
//! store, and their op mixes reach the state machine as expected. A to D
//! are the letters point operations express: E (scans) and F
//! (read-modify-write) need operations the KV interface and the driver do
//! not have.

use std::rc::Rc;
use std::time::Duration;

use depfast_kv::{ShardedKvCluster, DEFAULT_SERVE_CPU};
use depfast_raft::cluster::{Placement, RaftKind};
use depfast_raft::core::RaftCfg;
use depfast_ycsb::driver::{run_workload, DriverCfg};
use depfast_ycsb::workload::{DistKind, WorkloadSpec};
use simkit::{Sim, World, WorldCfg};

fn run(spec: WorkloadSpec) -> depfast_ycsb::driver::RunStats {
    let sim = Sim::new(83);
    let world = World::new(
        sim.clone(),
        WorldCfg {
            nodes: 3 + 16,
            ..WorldCfg::default()
        },
    );
    let cluster = Rc::new(ShardedKvCluster::build(
        &sim,
        &world,
        RaftKind::DepFast,
        Placement::Single { n: 3 },
        16,
        RaftCfg {
            bootstrap_leader: Some(0),
            ..RaftCfg::default()
        },
        DEFAULT_SERVE_CPU,
    ));
    run_workload(
        &sim,
        &world,
        &cluster,
        spec.with_records(2_000).with_value_size(256),
        DriverCfg {
            warmup: Duration::from_millis(300),
            measure: Duration::from_millis(1500),
            seed: 5,
        },
    )
}

/// A YCSB letter mix over the paper's keyspace and value size.
fn mix(update_prop: f64, read_prop: f64, insert_prop: f64, dist: DistKind) -> WorkloadSpec {
    WorkloadSpec {
        update_prop,
        read_prop,
        insert_prop,
        dist,
        ..WorkloadSpec::update_heavy()
    }
}

#[test]
fn all_letter_workloads_complete() {
    for (name, spec) in [
        ("A", mix(0.5, 0.5, 0.0, DistKind::Zipfian)),
        ("B", mix(0.05, 0.95, 0.0, DistKind::Zipfian)),
        ("C", mix(0.0, 1.0, 0.0, DistKind::Zipfian)),
        ("D", mix(0.0, 0.95, 0.05, DistKind::Latest)),
    ] {
        let stats = run(spec);
        assert!(stats.ops > 200, "workload {name}: only {} ops", stats.ops);
        assert_eq!(stats.errors, 0, "workload {name}");
        assert!(!stats.server_crashed, "workload {name}");
    }
}

#[test]
fn read_heavy_workloads_are_not_slower_than_update_heavy() {
    // Reads go through the log too (linearizable), so they cost roughly
    // the same; this guards against an accidental read-path regression.
    let updates = run(WorkloadSpec::update_heavy());
    let reads = run(mix(0.0, 1.0, 0.0, DistKind::Zipfian));
    assert!(
        reads.throughput > updates.throughput * 0.5,
        "reads {:.0}/s vs updates {:.0}/s",
        reads.throughput,
        updates.throughput
    );
}

#[test]
fn inserts_extend_the_keyspace() {
    let spec = WorkloadSpec {
        update_prop: 0.0,
        read_prop: 0.0,
        insert_prop: 1.0,
        ..WorkloadSpec::update_heavy()
    };
    let stats = run(spec);
    assert!(stats.ops > 200, "{} inserts", stats.ops);
    assert_eq!(stats.errors, 0);
}
