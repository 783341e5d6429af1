//! Liveness and safety under partitions, crashes and leadership churn —
//! DepFastRaft as a *correct* Raft, not just a fail-slow-tolerant one.

use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use depfast::event::Watchable;
use depfast_kv::KvCluster;
use depfast_raft::cluster::{Placement, RaftCluster, RaftKind};
use depfast_raft::core::RaftCfg;
use simkit::{NodeId, Sim, World, WorldCfg};

fn world(sim: &Sim, nodes: usize) -> World {
    World::new(
        sim.clone(),
        WorldCfg {
            nodes,
            ..WorldCfg::default()
        },
    )
}

fn propose_ok(sim: &Sim, cl: &RaftCluster, node: usize) -> bool {
    let ev = cl.groups[0].servers[node].propose(Bytes::from_static(b"x"));
    sim.block_on({
        let ev = ev.clone();
        async move { ev.handle().wait_timeout(Duration::from_secs(2)).await }
    })
    .is_ready()
}

fn current_leader(cl: &RaftCluster, w: &World) -> Option<usize> {
    (0..cl.groups[0].servers.len())
        .find(|i| !w.is_crashed(NodeId(*i as u32)) && cl.groups[0].servers[*i].is_leader())
}

/// A leader cut off from both followers stops committing; the majority
/// side elects a new leader and continues; after healing, the old leader
/// rejoins as follower and converges.
#[test]
fn partitioned_leader_loses_leadership_majority_continues() {
    let sim = Sim::new(61);
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
    assert!(propose_ok(&sim, &cl, 0));
    // Isolate the leader.
    w.partition(NodeId(0), NodeId(1));
    w.partition(NodeId(0), NodeId(2));
    sim.run_until_time(sim.now() + Duration::from_secs(3));
    let new_leader = (1..3).find(|i| cl.groups[0].servers[*i].is_leader());
    assert!(new_leader.is_some(), "majority side must elect a leader");
    let new_leader = new_leader.unwrap();
    assert!(propose_ok(&sim, &cl, new_leader), "majority side commits");
    // The isolated old leader cannot commit.
    assert!(!propose_ok(&sim, &cl, 0), "minority leader must not commit");

    // Heal: the old leader steps down and converges.
    w.heal(NodeId(0), NodeId(1));
    w.heal(NodeId(0), NodeId(2));
    sim.run_until_time(sim.now() + Duration::from_secs(3));
    assert!(
        !cl.groups[0].servers[0].is_leader(),
        "old leader must have stepped down"
    );
    let last = cl.groups[0].servers[new_leader].core().log.last_index();
    assert_eq!(
        cl.groups[0].servers[0].core().log.last_index(),
        last,
        "healed node must converge"
    );
    // From the first entry both still hold: a compacted prefix is applied,
    // hence identical, and `term_at` answers 0 for it on both sides.
    let (healed, leader) = (
        cl.groups[0].servers[0].core(),
        cl.groups[0].servers[new_leader].core(),
    );
    let from = healed.log.first_index().max(leader.log.first_index());
    assert!(from <= healed.applied_idx.get().min(leader.applied_idx.get()) + 1);
    for i in from..=last {
        assert_eq!(healed.log.term_at(i), leader.log.term_at(i));
    }
}

/// An isolated minority node (with PreVote) does not inflate the term and
/// does not disrupt the cluster when it returns.
#[test]
fn prevote_prevents_partitioned_node_disruption() {
    let sim = Sim::new(67);
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
    assert!(propose_ok(&sim, &cl, 0));
    let term_before = cl.groups[0].servers[0].core().log.current_term();
    // Isolate follower 2 for a long time.
    w.partition(NodeId(2), NodeId(0));
    w.partition(NodeId(2), NodeId(1));
    for _ in 0..20 {
        assert!(propose_ok(&sim, &cl, 0));
        sim.run_until_time(sim.now() + Duration::from_millis(300));
    }
    // Its term must not have ballooned (PreVote fails without a majority).
    assert_eq!(
        cl.groups[0].servers[2].core().log.current_term(),
        term_before,
        "PreVote must stop term inflation in the minority"
    );
    // Healing does not depose the leader.
    w.heal(NodeId(2), NodeId(0));
    w.heal(NodeId(2), NodeId(1));
    sim.run_until_time(sim.now() + Duration::from_secs(2));
    assert!(
        cl.groups[0].servers[0].is_leader(),
        "returning node must not disrupt"
    );
    assert_eq!(
        cl.groups[0].servers[0].core().log.current_term(),
        term_before
    );
}

/// Repeated leader crashes: the cluster keeps making progress as long as
/// a majority survives, and committed data is never lost.
#[test]
fn serial_leader_crashes_preserve_committed_data() {
    let sim = Sim::new(71);
    let w = world(&sim, 6);
    let cluster = Rc::new(KvCluster::build(
        &sim,
        &w,
        RaftKind::DepFast,
        5,
        1,
        RaftCfg {
            bootstrap_leader: Some(0),
            ..RaftCfg::default()
        },
    ));
    let put = |key: &str, value: &str| -> bool {
        let cl = cluster.clone();
        let (k, v) = (
            Bytes::copy_from_slice(key.as_bytes()),
            Bytes::copy_from_slice(value.as_bytes()),
        );
        sim.block_on(async move { cl.clients[0].put(k, v).await.is_ok() })
    };
    assert!(put("k0", "v0"));
    // Crash two leaders in sequence (5-node cluster tolerates 2 failures).
    for round in 0..2 {
        let leader = current_leader(&cluster.raft, &w).expect("leader exists");
        w.crash(NodeId(leader as u32));
        sim.run_until_time(sim.now() + Duration::from_secs(4));
        assert!(
            put(&format!("k{}", round + 1), "v"),
            "progress after crash {round}"
        );
    }
    // All committed keys still readable.
    let cl = cluster.clone();
    let got = sim.block_on(async move { cl.clients[0].get(Bytes::from_static(b"k0")).await });
    assert_eq!(got.unwrap(), Some(Bytes::from_static(b"v0")));
}

/// No split brain: at no point do two non-crashed nodes both believe they
/// are leader *of the same term*.
#[test]
fn no_two_leaders_in_same_term() {
    let sim = Sim::new(73);
    let w = world(&sim, 3);
    // No bootstrap: full election from cold start.
    let cl = RaftCluster::build(
        &sim,
        &w,
        RaftKind::DepFast,
        RaftCfg::default(),
        Placement::Single { n: 3 },
    );
    for step in 0..100 {
        sim.run_until_time(sim.now() + Duration::from_millis(100));
        let leaders: Vec<(usize, u64)> = (0..3)
            .filter(|i| cl.groups[0].servers[*i].is_leader())
            .map(|i| (i, cl.groups[0].servers[i].core().log.current_term()))
            .collect();
        if leaders.len() > 1 {
            let mut terms: Vec<u64> = leaders.iter().map(|(_, t)| *t).collect();
            terms.dedup();
            assert_eq!(
                terms.len(),
                leaders.len(),
                "two leaders share a term at step {step}: {leaders:?}"
            );
        }
    }
    // And eventually exactly one leader exists.
    let leaders = (0..3)
        .filter(|i| cl.groups[0].servers[*i].is_leader())
        .count();
    assert_eq!(leaders, 1);
}
