//! End-to-end checks for the leader-side group-commit + pipelined
//! replication path (docs/PERFORMANCE.md):
//!
//! * batching and pipelining stay inside the deterministic-simulation
//!   contract — same seed, same stats, byte for byte;
//! * pipelining round k+1 ahead of round k's quorum never reorders the
//!   committed log;
//! * a fail-slow follower fills *its own* append window and is
//!   quarantined into lazy-probe catch-up, without dragging the batch
//!   quorum (the §2.3 story at the batching layer);
//! * once its disk recovers, the quarantined follower's catch-up outruns
//!   the leader's arrivals until it is resumed.

use std::time::Duration;

use bytes::Bytes;
use depfast_bench::experiment::{bench_raft_cfg, bench_world_cfg};
use depfast_bench::{Run, RunReport};
use depfast_fault::FaultKind;
use depfast_metrics::Key;
use depfast_raft::cluster::{Placement, RaftCluster, RaftKind};
use depfast_raft::core::RaftCfg;
use simkit::{NodeId, Sim, SimTime, World, WorldCfg};

fn batched_cfg() -> Run {
    let mut run = Run {
        n_clients: 64,
        warmup: Duration::from_millis(600),
        measure: Duration::from_secs(2),
        records: 10_000,
        ..Run::default()
    };
    // Pin the tentpole knobs explicitly so this test keeps covering
    // batching + pipelining even if the bench defaults move.
    run.raft.batch_max = 64;
    run.raft.batch_window = Duration::from_millis(4);
    run.raft.pipeline_depth = 4;
    run
}

/// Group commit and pipelining introduce no hidden nondeterminism: two
/// runs of the same seed produce identical client-visible statistics.
#[test]
fn same_seed_runs_are_identical_with_batching_on() {
    let a = batched_cfg().execute().stats;
    let b = batched_cfg().execute().stats;
    assert_eq!(a.ops, b.ops, "op counts must match exactly");
    assert_eq!(a.errors, b.errors);
    assert_eq!(a.throughput, b.throughput, "throughput must be bit-equal");
    assert_eq!(a.latency.p99, b.latency.p99, "P99 must be bit-equal");
}

/// Shipping round k+1 before round k's quorum resolves must not reorder
/// commits: every proposal lands at the next log index, in proposal
/// order, on every node.
#[test]
fn pipelined_rounds_preserve_commit_order() {
    let sim = Sim::new(77);
    let world = World::new(
        sim.clone(),
        WorldCfg {
            nodes: 3,
            ..WorldCfg::default()
        },
    );
    let cl = RaftCluster::build(
        &sim,
        &world,
        RaftKind::DepFast,
        RaftCfg {
            bootstrap_leader: Some(0),
            // Small batches + deep pipeline: many rounds in flight at
            // once, the order-sensitive regime.
            batch_max: 4,
            batch_window: Duration::ZERO,
            pipeline_depth: 4,
            ..RaftCfg::default()
        },
        Placement::Single { n: 3 },
    );
    // Fire all proposals without waiting in between, so consecutive
    // batches ride different pipelined rounds.
    let events: Vec<_> = (0..200u32)
        .map(|i| cl.groups[0].servers[0].propose(Bytes::from(i.to_be_bytes().to_vec())))
        .collect();
    for ev in &events {
        use depfast::event::Watchable;
        let out = sim.block_on({
            let ev = ev.clone();
            async move { ev.handle().wait_timeout(Duration::from_secs(2)).await }
        });
        assert!(out.is_ready(), "every pipelined proposal must commit");
    }
    sim.run_until_time(sim.now() + Duration::from_secs(1)); // Heartbeat catch-up.
    for s in &cl.groups[0].servers {
        let core = s.core();
        let node = core.id.0;
        assert_eq!(core.log.last_index(), 200, "node {node} fully replicated");
        // Whatever the log still holds (all of it, this short) must be in
        // proposal order; a compacted prefix was applied in log order.
        let first = core.log.first_index();
        assert!(first <= core.applied_idx.get() + 1);
        let (entries, _) = core.log.read_raw(first, 201);
        assert_eq!(entries.len() as u64, 201 - first);
        for e in &entries {
            let i = (e.index - 1) as u32;
            assert_eq!(
                e.payload.as_ref(),
                i.to_be_bytes(),
                "proposal {i} must sit at index {} on node {node}",
                e.index,
            );
        }
    }
}

/// A disk-crawling follower fills its per-follower append window (the
/// fail-slow signal), gets quarantined into lazy-probe catch-up, and the
/// leader's group-commit quorum keeps committing on the healthy
/// majority at essentially full throughput.
#[test]
fn fail_slow_follower_stalls_its_window_not_the_batch_quorum() {
    const SLOW: u32 = 2;
    let base_cfg = batched_cfg();
    let base = base_cfg.execute();
    let faulted = base_cfg
        .clone()
        .with_fault(
            [SLOW],
            FaultKind::DiskSlow { bw_factor: 0.008 },
            base_cfg.warmup / 2,
            None,
        )
        .execute();
    assert!(!base.stats.server_crashed && !faulted.stats.server_crashed);

    let leader_counter =
        |run: &RunReport, name: &'static str| run.metrics.counter(Key::node(name, 0)).get();
    // The window filled at least once and the peer was quarantined …
    assert!(
        leader_counter(&faulted, "raft.append.window_skips") > 0,
        "slow follower should overflow its append window"
    );
    assert!(
        leader_counter(&faulted, "raft.append.suspects") > 0,
        "window overflow should quarantine the slow follower"
    );
    // … while the healthy run never saw either signal: the window is a
    // fail-slow detector, not a throttle healthy traffic trips over.
    assert_eq!(
        leader_counter(&base, "raft.append.window_skips"),
        0,
        "healthy pipelining must not fill the append window"
    );
    assert_eq!(leader_counter(&base, "raft.append.suspects"), 0);

    // The batch quorum is decoupled from the quarantined peer: client
    // throughput holds.
    let ratio = faulted.stats.throughput / base.stats.throughput;
    assert!(
        ratio > 0.9,
        "batched commits should ride the healthy majority: ratio {ratio:.2} ({:.0} vs {:.0})",
        faulted.stats.throughput,
        base.stats.throughput
    );
}

/// Open loop at 3 000 proposals/s — 57 % of what the leader's serial apply
/// stage sustains (1 / 190 µs) — with one follower's disk at 0.8 %
/// bandwidth from 1 s to 3 s, and the load stopping at 7 s.
///
/// The fault quarantines the follower and leaves it about 3 400 entries
/// behind: one catch-up chunk is in flight at a time, and the next ships
/// on the first heartbeat after the last is durable, so even the crawling
/// disk is fed at the rate it drains. A law that backs off every chunk the
/// follower did not gain on the leader with — and under the fault none
/// gains — halves each one and pauses after it, and leaves the follower
/// about 5 500 behind. Once its disk recovers, its catch-up chunks outrun
/// what the leader appends meanwhile, so its lag, sampled each second from
/// the clear, never grows again. It is resumed within 6 s of the clear.
///
/// The catch-up closes the gap in about 3.5 s. While the load runs, the lag
/// then settles at one catch-up cycle of arrivals: a chunk of ~270 entries
/// costs more than a heartbeat of append CPU, so its drain is seen two
/// heartbeats after it ships and the next ships on the third. That is a
/// 90 ms sawtooth of ~100–370 entries, above the 2 × `batch_max` resume
/// threshold, so the resume itself comes when the load stops. The load
/// stops at the first sample of that sawtooth: a second one, a second
/// later, would read the cycle 10 ms further on, not a trend.
///
/// The quorum never waited on the follower. Its crawling disk takes 3.2
/// MB/s of log at 1.6 MB/s, so a round that waited on it would wait longer
/// with every round, hundreds of milliseconds within the fault. Instead no
/// proposal took more than twice as long to commit as in the healthy second
/// before the fault. The few extra milliseconds appear during the
/// catch-up, while the follower is in no round at all.
#[test]
fn a_recovered_follower_gains_on_the_leader_until_it_is_resumed() {
    const SLOW: NodeId = NodeId(2);
    const RATE: u64 = 3_000;
    let secs = SimTime::from_secs;
    let (onset, clear, load_end) = (secs(1), secs(3), secs(7));
    let sim = Sim::new(20210531);
    let world = World::new(sim.clone(), bench_world_cfg(3));
    let cl = RaftCluster::build(
        &sim,
        &world,
        RaftKind::DepFast,
        bench_raft_cfg(),
        Placement::Single { n: 3 },
    );
    depfast_fault::inject_at(
        &sim,
        &world,
        SLOW,
        FaultKind::DiskSlow { bw_factor: 0.008 },
        onset - SimTime::ZERO,
        Some(clear - onset),
    );
    let leader = cl.groups[0].servers[0].core().clone();
    let (sim2, proposer) = (sim.clone(), leader.clone());
    sim.spawn(async move {
        let payload = Bytes::from(vec![7u8; 1000]);
        let mut next = sim2.now();
        while next < load_end {
            sim2.sleep_until(next).await;
            // Open loop: the commit event is not waited on.
            drop(proposer.propose(payload.clone()));
            next += Duration::from_nanos(1_000_000_000 / RATE);
        }
    });
    let slow = cl.groups[0].servers[SLOW.0 as usize].core().clone();
    let lag = || leader.log.last_index() - slow.log.last_index();
    let commit_lag_max = || {
        let h = world.metrics().histogram(Key::node("raft.commit_lag", 0));
        h.with(|h| h.max())
    };

    sim.run_until_time(onset);
    let healthy_commit_lag = commit_lag_max();
    sim.run_until_time(clear);
    let mut lags = vec![lag()];
    for k in 1..=7 {
        sim.run_until_time(clear + Duration::from_secs(k));
        lags.push(lag());
    }
    assert!(
        (1_000..=4_500).contains(&lags[0]),
        "the fault left it {} behind",
        lags[0]
    );
    for pair in lags.windows(2) {
        assert!(pair[1] <= pair[0], "lag grew after the clear: {lags:?}");
    }

    let health = cl.tracer.take_health_events();
    let resumed = health
        .iter()
        .find(|e| e.node == SLOW && e.transition == "resume")
        .expect("the recovered follower is resumed");
    let took = resumed.t - clear;
    assert!(
        resumed.t > clear && took <= Duration::from_secs(6),
        "resumed {took:?} after the clear"
    );

    let worst = commit_lag_max();
    assert!(
        worst <= healthy_commit_lag * 2,
        "a proposal waited {worst:?} to commit, healthy at most {healthy_commit_lag:?}"
    );
}
