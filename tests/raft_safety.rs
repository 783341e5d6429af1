//! Cross-crate Raft safety tests: the protocol invariants hold under fault
//! schedules, for every driver.

use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use depfast::event::Watchable;
use depfast_fault::{inject_at, FaultKind};
use depfast_kv::KvCluster;
use depfast_raft::cluster::{Placement, RaftCluster, RaftKind};
use depfast_raft::core::RaftCfg;
use simkit::{NodeId, Sim, World, WorldCfg};

const ALL_KINDS: [RaftKind; 4] = [
    RaftKind::DepFast,
    RaftKind::Sync,
    RaftKind::Backlog,
    RaftKind::Callback,
];

fn world(sim: &Sim, nodes: usize) -> World {
    World::new(
        sim.clone(),
        WorldCfg {
            nodes,
            ..WorldCfg::default()
        },
    )
}

/// Drives `n` sequential proposals through the leader, returning commits.
fn drive(sim: &Sim, cl: &RaftCluster, n: u32, size: usize) -> u32 {
    let mut ok = 0;
    for i in 0..n {
        let ev = cl.groups[0].servers[0].propose(Bytes::from(vec![(i % 251) as u8; size]));
        let out = sim.block_on({
            let ev = ev.clone();
            async move { ev.handle().wait_timeout(Duration::from_secs(2)).await }
        });
        if out.is_ready() {
            ok += 1;
        }
    }
    ok
}

/// Log matching: all drivers converge to identical logs after load with a
/// transient fail-slow follower.
#[test]
fn logs_match_across_replicas_under_transient_fault() {
    for kind in ALL_KINDS {
        let sim = Sim::new(101);
        let w = world(&sim, 3);
        let cl = RaftCluster::build(
            &sim,
            &w,
            kind,
            RaftCfg {
                bootstrap_leader: Some(0),
                ..RaftCfg::default()
            },
            Placement::Single { n: 3 },
        );
        // Transient CPU slowness on follower 2 during the middle of the run.
        inject_at(
            &sim,
            &w,
            NodeId(2),
            FaultKind::CpuSlow { quota: 0.05 },
            Duration::from_millis(100),
            Some(Duration::from_millis(700)),
        );
        let committed = drive(&sim, &cl, 60, 128);
        assert!(committed >= 58, "{}: committed {committed}", kind.name());
        // Give the laggard time to catch up after the fault clears.
        sim.run_until_time(sim.now() + Duration::from_secs(5));
        let leader_log = &cl.groups[0].servers[0].core().log;
        let last = leader_log.last_index();
        for s in &cl.groups[0].servers[1..] {
            let flog = &s.core().log;
            assert_eq!(
                flog.last_index(),
                last,
                "{}: replica behind after recovery",
                kind.name()
            );
            // Terms are compared where both logs still hold the entry. What
            // either has compacted away it has applied — committed, hence
            // identical — and `term_at` would answer 0 for it on both sides,
            // which is not agreement.
            let from = flog.first_index().max(leader_log.first_index());
            assert!(
                from <= s.core().applied_idx.get() + 1,
                "{}: compacted past what was applied",
                kind.name()
            );
            for i in from..=last {
                assert_eq!(
                    flog.term_at(i),
                    leader_log.term_at(i),
                    "{}: log divergence at {i}",
                    kind.name()
                );
            }
        }
    }
}

/// Commit index never exceeds what a majority durably holds: crash the
/// two followers and verify the leader stops committing.
#[test]
fn no_commit_without_majority() {
    let sim = Sim::new(5);
    let w = world(&sim, 3);
    let cl = RaftCluster::build(
        &sim,
        &w,
        RaftKind::DepFast,
        RaftCfg {
            bootstrap_leader: Some(0),
            ..RaftCfg::default()
        },
        Placement::Single { n: 3 },
    );
    assert_eq!(drive(&sim, &cl, 10, 32), 10);
    w.crash(NodeId(1));
    w.crash(NodeId(2));
    let before = cl.groups[0].servers[0].core().commit.get();
    let committed = drive(&sim, &cl, 5, 32);
    assert_eq!(committed, 0, "no majority, no commit");
    assert_eq!(cl.groups[0].servers[0].core().commit.get(), before);
}

/// Linearizable sessions: a value read after a commit reflects it, for
/// every driver, even with a fail-slow follower.
#[test]
fn read_your_writes_with_slow_follower() {
    for kind in ALL_KINDS {
        let sim = Sim::new(23);
        let w = world(&sim, 4);
        let cluster = Rc::new(KvCluster::build(
            &sim,
            &w,
            kind,
            3,
            1,
            RaftCfg {
                bootstrap_leader: Some(0),
                ..RaftCfg::default()
            },
        ));
        w.set_cpu_quota(NodeId(1), 0.05);
        let cl = cluster.clone();
        let out = sim.block_on(async move {
            let c = &cl.clients[0];
            for i in 0..20u8 {
                c.put(Bytes::from(vec![b'k', i]), Bytes::from(vec![i]))
                    .await
                    .unwrap();
            }
            c.get(Bytes::from(vec![b'k', 19])).await.unwrap()
        });
        assert_eq!(out, Some(Bytes::from(vec![19u8])), "{}", kind.name());
    }
}

/// Randomized fault soak: across seeds and fault kinds, DepFastRaft keeps
/// committing and replicas converge.
#[test]
fn depfast_soak_across_random_faults() {
    let mem_limit = 3 * 1024 * 1024 * 1024u64;
    for seed in [1u64, 2, 3, 4, 5] {
        let sim = Sim::new(seed);
        let w = world(&sim, 3);
        let cl = RaftCluster::build(
            &sim,
            &w,
            RaftKind::DepFast,
            RaftCfg {
                bootstrap_leader: Some(0),
                ..RaftCfg::default()
            },
            Placement::Single { n: 3 },
        );
        let faults = FaultKind::table1(mem_limit);
        let fault = faults[(seed as usize) % faults.len()];
        let target = NodeId(1 + (seed % 2) as u32);
        inject_at(&sim, &w, target, fault, Duration::from_millis(50), None);
        let committed = drive(&sim, &cl, 40, 256);
        assert_eq!(
            committed,
            40,
            "seed {seed} fault {:?} broke DepFastRaft commits",
            fault.name()
        );
    }
}

/// Determinism: identical seeds produce identical commit traces.
#[test]
fn identical_seeds_identical_outcomes() {
    let run = |seed: u64| -> (u64, u64) {
        let sim = Sim::new(seed);
        let w = world(&sim, 3);
        let cl = RaftCluster::build(
            &sim,
            &w,
            RaftKind::DepFast,
            RaftCfg {
                bootstrap_leader: Some(0),
                ..RaftCfg::default()
            },
            Placement::Single { n: 3 },
        );
        drive(&sim, &cl, 30, 64);
        (
            sim.now().as_nanos(),
            cl.groups[0].servers[0].core().commit.get(),
        )
    };
    assert_eq!(run(77), run(77));
    assert_ne!(run(77).0, run(78).0);
}
