//! Integration tests for the paper's headline claims, in miniature:
//! DepFastRaft holds its performance under a minority of fail-slow
//! followers while the legacy styles degrade (Figures 1 and 3, shrunk to
//! test-suite scale — the full-scale reproduction lives in
//! `crates/bench`).

use std::time::Duration;

use depfast_bench::{Placement, Run};
use depfast_fault::FaultKind;
use depfast_raft::cluster::RaftKind;
use depfast_ycsb::driver::RunStats;

fn quick(kind: RaftKind, n_servers: usize, fault: Option<FaultKind>, slow: usize) -> RunStats {
    let warmup = Duration::from_millis(800);
    let run = Run {
        kind,
        placement: Placement::Single { n: n_servers },
        n_clients: 96,
        warmup,
        measure: Duration::from_millis(2500),
        records: 20_000,
        ..Run::default()
    };
    match fault {
        Some(f) => run.with_fault(1..=slow as u32, f, warmup / 2, None),
        None => run,
    }
    .execute()
    .stats
}

#[test]
fn depfast_three_nodes_tolerates_every_table1_fault() {
    let base = quick(RaftKind::DepFast, 3, None, 0);
    assert!(base.throughput > 500.0, "baseline {:.0}", base.throughput);
    let mem_limit = depfast_bench::experiment::mem_contention_limit();
    for fault in FaultKind::table1(mem_limit) {
        let s = quick(RaftKind::DepFast, 3, Some(fault), 1);
        let tput_ratio = s.throughput / base.throughput;
        assert!(
            tput_ratio > 0.85,
            "{}: throughput ratio {tput_ratio:.2}",
            fault.name()
        );
        assert!(!s.server_crashed, "{}: crashed", fault.name());
    }
}

#[test]
fn depfast_five_nodes_tolerates_two_slow_followers() {
    let base = quick(RaftKind::DepFast, 5, None, 0);
    let s = quick(
        RaftKind::DepFast,
        5,
        Some(FaultKind::CpuSlow { quota: 0.05 }),
        2,
    );
    let ratio = s.throughput / base.throughput;
    assert!(ratio > 0.85, "five-node minority tolerance: {ratio:.2}");
}

#[test]
fn sync_raft_throughput_drops_under_net_slow_follower() {
    let base = quick(RaftKind::Sync, 3, None, 0);
    let s = quick(
        RaftKind::Sync,
        3,
        Some(FaultKind::NetSlow {
            delay: Duration::from_millis(400),
        }),
        1,
    );
    let ratio = s.throughput / base.throughput;
    assert!(
        ratio < 0.95,
        "SyncRaft should degrade (TiDB pattern): ratio {ratio:.2}"
    );
}

#[test]
fn callback_raft_p99_inflates_under_cpu_slow_follower() {
    let base = quick(RaftKind::Callback, 3, None, 0);
    let s = quick(
        RaftKind::Callback,
        3,
        Some(FaultKind::CpuSlow { quota: 0.05 }),
        1,
    );
    let p99_ratio = s.latency.p99.as_secs_f64() / base.latency.p99.as_secs_f64();
    assert!(
        p99_ratio > 1.5,
        "CallbackRaft tail should inflate (MongoDB pattern): x{p99_ratio:.2}"
    );
}

#[test]
fn backlog_raft_leader_memory_grows_under_cpu_slow_follower() {
    // (The OOM crash itself is covered in the driver's unit tests and the
    // fig1 bench; here we check the precursor at test scale.)
    use depfast_kv::{ShardedKvCluster, DEFAULT_SERVE_CPU};
    use depfast_raft::cluster::Placement;
    use depfast_raft::core::RaftCfg;
    use simkit::{NodeId, Sim, World};
    use std::rc::Rc;

    let sim = Sim::new(31);
    let world = World::new(
        sim.clone(),
        depfast_bench::experiment::bench_world_cfg(3 + 32),
    );
    let cluster = Rc::new(ShardedKvCluster::build(
        &sim,
        &world,
        RaftKind::Backlog,
        Placement::Single { n: 3 },
        32,
        RaftCfg {
            bootstrap_leader: Some(0),
            ..RaftCfg::default()
        },
        DEFAULT_SERVE_CPU,
    ));
    world.set_cpu_quota(NodeId(2), 0.01);
    let before = world.mem_used(NodeId(0));
    depfast_ycsb::driver::run_workload(
        &sim,
        &world,
        &cluster,
        depfast_ycsb::workload::WorkloadSpec::update_heavy()
            .with_records(5_000)
            .with_value_size(1000),
        depfast_ycsb::driver::DriverCfg {
            warmup: Duration::from_millis(200),
            measure: Duration::from_secs(2),
            seed: 9,
        },
    );
    let after = world.mem_used(NodeId(0));
    assert!(
        after > before + 50 * 1024 * 1024,
        "leader memory should balloon (RethinkDB pattern): {} -> {} bytes",
        before,
        after
    );
}
