//! Integration acceptance for the wait-state profiler.
//!
//! Two properties make profiles trustworthy enough to commit as perf
//! baselines: fixed-seed runs export byte-identical `.run` files, hence
//! folded stacks and SVGs (the profiler is a pure observer of a
//! deterministic simulation),
//! and enabling it does not change the simulated results at all (probes
//! are synchronous callbacks — no events, no virtual-clock interaction).
//! On top of that, the profiles must tell the paper's story: the same
//! disk-slow follower dominates its own node profile with `disk` wait
//! sites under the TiDB-style sync driver, while DepFastRaft's lazy
//! catch-up keeps that node's append handlers from waiting on its disk.
//! The SPG fold taps the same waits as they begin, so it can run beside
//! the profiler without moving a byte of the profile.

use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use depfast_bench::{Artifact, Instruments, Run};
use depfast_fault::FaultKind;
use depfast_kv::KvCluster;
use depfast_profile::Profiler;
use depfast_raft::cluster::RaftKind;
use depfast_raft::core::RaftCfg;
use simkit::{NodeId, Sim, World, WorldCfg};

fn profiled_cfg(kind: RaftKind) -> Run {
    let warmup = Duration::from_millis(500);
    let mut run = Run {
        kind,
        n_clients: 32,
        warmup,
        measure: Duration::from_secs(2),
        records: 10_000,
        ..Run::default()
    }
    .with_fault(
        [2],
        FaultKind::DiskSlow { bw_factor: 0.008 },
        warmup / 2,
        None,
    );
    run.instruments.profiler = true;
    run
}

fn profile(cfg: &Run) -> Profiler {
    cfg.execute().profiler.expect("profiler was on")
}

#[test]
fn profiled_exports_are_byte_identical_across_same_seed_runs() {
    let cfg = profiled_cfg(RaftKind::DepFast);
    let (a, b) = (cfg.execute().artifact(), cfg.execute().artifact());
    assert_eq!(a, b, "the .run artifact must be byte-identical");
    let parsed = Artifact::parse(&a).expect("a fresh artifact parses");
    let profile = parsed.profile.as_ref().expect("profile section");
    assert!(!profile.lines.is_empty(), "profiler saw no samples");
    assert!(parsed.svg().expect("renders").starts_with("<svg"));
}

#[test]
fn profiling_does_not_perturb_the_simulation() {
    let cfg = profiled_cfg(RaftKind::Sync);
    let profiled = cfg.execute().stats;
    let plain = Run {
        instruments: Instruments::default(),
        ..cfg
    }
    .execute()
    .stats;
    assert_eq!(profiled.ops, plain.ops, "ops must match");
    assert_eq!(profiled.errors, plain.errors, "errors must match");
    assert_eq!(
        profiled.latency, plain.latency,
        "latency must match exactly"
    );
    assert_eq!(
        profiled.throughput, plain.throughput,
        "throughput must match exactly"
    );
}

/// Fraction of `node`'s *blocked* time — everything except on-CPU service
/// (`cpu`) and its swap inflation (`mem:*`) — spent at sites of
/// `site_kind`: a node can be busy *and* disk-bound, and the wait share
/// isolates the waiting from the work. Zero if the node never waited.
fn wait_share(profile: &Profiler, node: NodeId, site_kind: &str) -> f64 {
    let (mut waited, mut matched) = (0u64, 0u64);
    for l in profile.lines().into_iter().filter(|l| l.node == node.0) {
        let kind = l.site.split(':').next().unwrap();
        if kind == "cpu" || kind == "mem" {
            continue;
        }
        waited += l.nanos;
        if kind == site_kind {
            matched += l.nanos;
        }
    }
    if waited == 0 {
        0.0
    } else {
        matched as f64 / waited as f64
    }
}

/// Time `node`'s append handlers (`raft:handle_append`) spent at `disk`
/// sites: parked on the WAL's durability watermark, or on the device.
fn append_handlers_on_disk(profile: &Profiler, node: NodeId) -> Duration {
    let parked = profile.lines().into_iter().filter(|l| {
        l.node == node.0 && l.phase == "raft:handle_append" && l.site.starts_with("disk")
    });
    Duration::from_nanos(parked.map(|l| l.nanos).sum())
}

/// The paper's §2.2 story, read straight off the wait-state profile of the
/// *faulty node itself*: under the TiDB-style sync driver the disk-slow
/// follower spends the majority of its blocked time at `disk` wait sites
/// (the WAL durability watermark plus device/queue time), because the
/// leader keeps feeding it at full cluster pace and every append handler
/// piles up behind the crawling disk. DepFastRaft's quorum structure
/// commits without the laggard and feeds it by lazy appends, whose handlers
/// answer with the durable prefix instead of waiting for the disk: the same
/// node's append handlers spend a tenth of the time there or less. (Its
/// whole-node disk share says less: that counts the WAL flusher writing
/// the catch-up, which is the disk doing its work, not a handler waiting.)
#[test]
fn disk_wait_dominates_the_slow_follower_under_sync_but_not_depfast() {
    let sync = profile(&profiled_cfg(RaftKind::Sync));
    let depfast = profile(&profiled_cfg(RaftKind::DepFast));
    let sync_share = wait_share(&sync, NodeId(2), "disk");
    assert!(
        sync_share > 0.5,
        "SyncRaft: the disk-slow follower's waiting should be disk-dominated, got {sync_share:.3}"
    );
    let sync_parked = append_handlers_on_disk(&sync, NodeId(2));
    let depfast_parked = append_handlers_on_disk(&depfast, NodeId(2));
    assert!(
        depfast_parked * 10 < sync_parked,
        "DepFastRaft's append handlers should not park on node 2's disk: \
         {depfast_parked:?} against SyncRaft's {sync_parked:?}"
    );
}

/// The folded stacks of a CallbackRaft run with a CPU-starved follower —
/// one with red edges — and the number of SPG edges folded beside them.
fn profile_beside_the_fold(fold: bool) -> (String, usize) {
    let sim = Sim::new(7);
    let world = World::new(
        sim.clone(),
        WorldCfg {
            nodes: 5,
            ..WorldCfg::default()
        },
    );
    let cfg = RaftCfg {
        bootstrap_leader: Some(0),
        ..RaftCfg::default()
    };
    let cluster = Rc::new(KvCluster::build(
        &sim,
        &world,
        RaftKind::Callback,
        3,
        2,
        cfg,
    ));
    world.set_cpu_quota(NodeId(2), 0.02);
    let tracer = cluster.raft.tracer.clone();
    let profiler = Profiler::new("CallbackRaft");
    profiler.install(&tracer, &world);
    if fold {
        tracer.install_spg_fold();
    }
    let clients: Vec<_> = (0..2)
        .map(|c| {
            let cl = cluster.clone();
            sim.spawn(async move {
                for i in 0..300u32 {
                    let key = Bytes::from(format!("k{c}-{i}"));
                    let _ = cl.clients[c].put(key, Bytes::from(vec![0u8; 256])).await;
                }
            })
        })
        .collect();
    for h in clients {
        sim.run_until(h);
    }
    let edges = tracer.finish_spg_fold().edges().len();
    profiler.uninstall(&tracer, &world);
    // The next run starts from the ambient state a fresh process has.
    cluster.raft.teardown(&sim);
    (profiler.folded(), edges)
}

#[test]
fn the_spg_fold_beside_the_profiler_leaves_the_profile_byte_identical() {
    let (alone, no_edges) = profile_beside_the_fold(false);
    let (beside, edges) = profile_beside_the_fold(true);
    assert_eq!(no_edges, 0, "no fold was installed");
    assert!(edges > 0, "the fold saw the run's waits");
    assert!(!alone.is_empty(), "the profiler saw the run's waits");
    assert_eq!(alone, beside, "the fold must not move the profile");
}
