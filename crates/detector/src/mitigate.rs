//! Mitigation: demote a detected fail-slow leader.
//!
//! §5 names the procedure exactly: *"if the leader is detected to
//! fail-slow, a leader re-election can be triggered to turn the fail-slow
//! leader into a fail-slow follower, which is well tolerated by
//! DepFastRaft."*
//!
//! On suspicion of the current leader, the mitigation (playing the role of
//! the cluster's control plane) steps that node down and penalizes its
//! next candidacies, so a healthy follower's election timer fires first
//! and the cluster re-forms around a fast leader.

use std::rc::Rc;
use std::time::Duration;

use depfast::Health;
use depfast_raft::core::RaftCore;
use depfast_raft::depfast_driver::DepFastRaft;
use simkit::Sim;

use crate::detect::FailSlowDetector;

/// How long a demoted leader's candidacies are held back
/// ([`RaftCore::election_penalty`]), so a healthy follower's election
/// timer fires first.
const ELECTION_PENALTY: Duration = Duration::from_secs(2);

/// Wires `detector` suspicions to leadership transfer across `cores`.
///
/// On suspicion of the current leader, the mitigation penalizes the
/// suspect's future candidacies by two seconds, waits for its healthiest
/// follower to be caught up (the suspect keeps leading — and replicating
/// — meanwhile), and then triggers that follower to campaign. The
/// higher-term election demotes the fail-slow leader into a fail-slow
/// follower, which DepFastRaft tolerates by construction.
pub fn spawn_leader_mitigation(sim: &Sim, detector: &FailSlowDetector, cores: Vec<Rc<RaftCore>>) {
    let sim = sim.clone();
    detector.on_suspect(move |suspicion| {
        let node = suspicion.node;
        let Some(suspect) = cores.iter().find(|c| c.id == node && c.is_leader()) else {
            return;
        };
        suspect.election_penalty.set(ELECTION_PENALTY);
        // Healthiest follower = highest replicated index from the
        // suspect's view.
        let Some(target_id) = suspect
            .peers
            .iter()
            .copied()
            .max_by_key(|p| suspect.match_index(*p))
        else {
            return;
        };
        let Some(target) = cores.iter().find(|c| c.id == target_id).cloned() else {
            return;
        };
        let suspect = suspect.clone();
        let evidence = format!(
            "fail-slow leader: election penalty {}ms, transfer to n{}",
            ELECTION_PENALTY.as_millis(),
            target_id.0
        );
        let demote = Health::new("demote", evidence);
        let tracer = suspect.rt.tracer();
        tracer.record_health(sim.now(), suspect.id, "mitigation", demote, None);
        let s = sim.clone();
        sim.spawn(async move {
            // Leadership transfer: wait for the target to be (nearly)
            // caught up, then have it campaign at a higher term.
            for _ in 0..100 {
                if !suspect.is_leader() {
                    return; // Someone already took over.
                }
                let caught_up = suspect.match_index(target.id) + 8 >= suspect.log.last_index();
                if caught_up {
                    let evidence = format!("leadership transfer from n{}", suspect.id.0);
                    let campaign = Health::new("campaign", evidence);
                    let tracer = target.rt.tracer();
                    tracer.record_health(s.now(), target.id, "mitigation", campaign, None);
                    DepFastRaft::force_campaign(&target);
                    s.sleep(Duration::from_millis(400)).await;
                    if !suspect.is_leader() {
                        return;
                    }
                } else {
                    s.sleep(Duration::from_millis(20)).await;
                }
            }
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::DetectorCfg;
    use bytes::Bytes;
    use depfast_kv::KvCluster;
    use depfast_raft::cluster::RaftKind;
    use depfast_raft::core::RaftCfg;
    use simkit::{NodeId, Sim, World, WorldCfg};

    /// End-to-end §5 scenario: leader goes fail-slow → detector flags it →
    /// mitigation demotes it → healthy node leads → commits stay fast.
    #[test]
    fn fail_slow_leader_is_demoted_and_cluster_recovers() {
        let sim = Sim::new(3);
        let world = World::new(
            sim.clone(),
            WorldCfg {
                nodes: 19, // 3 servers + 16 client hosts
                ..WorldCfg::default()
            },
        );
        let cl = std::rc::Rc::new(KvCluster::build(
            &sim,
            &world,
            RaftKind::DepFast,
            3,
            16,
            RaftCfg {
                bootstrap_leader: Some(0),
                ..RaftCfg::default()
            },
        ));
        let cores: Vec<Rc<RaftCore>> = cl.raft.groups[0]
            .servers
            .iter()
            .map(|s| s.core().clone())
            .collect();
        let current_leader = || cores.iter().find(|c| c.is_leader()).map(|c| c.id);
        let detector = FailSlowDetector::spawn(&sim, &cl.raft.tracer, DetectorCfg::default());
        spawn_leader_mitigation(&sim, &detector, cores.clone());

        // Concurrent closed-loop clients over real RPC (their kv_request
        // completions are the detector's per-leader samples).
        let drive = |ops_per_client: u32| -> u32 {
            let handles: Vec<_> = (0..cl.clients.len())
                .map(|c| {
                    let cl2 = cl.clone();
                    sim.spawn(async move {
                        let mut ok = 0u32;
                        for round in 0..ops_per_client {
                            let key = Bytes::from(format!("k{c}-{round}"));
                            if cl2.clients[c]
                                .put(key, Bytes::from(vec![0u8; 64]))
                                .await
                                .is_ok()
                            {
                                ok += 1;
                            }
                        }
                        ok
                    })
                })
                .collect();
            handles.into_iter().map(|h| sim.run_until(h)).sum()
        };

        // Healthy traffic builds the baseline (long enough to span the
        // detector's warm-up windows).
        let healthy_ok = drive(700);
        assert!(healthy_ok >= 11_000, "healthy commits: {healthy_ok}");
        assert_eq!(current_leader(), Some(NodeId(0)));

        // The leader fails slow (CPU quota 5%).
        world.set_cpu_quota(NodeId(0), 0.05);
        drive(120); // Slow traffic the detector can observe.
        sim.run_until_time(sim.now() + Duration::from_secs(3));

        assert!(
            detector.history().iter().any(|s| s.node == NodeId(0)),
            "detector must flag the slow leader; history: {:?}",
            detector.history()
        );
        let new_leader = current_leader();
        assert!(
            new_leader.is_some() && new_leader != Some(NodeId(0)),
            "a healthy node must take over, got {new_leader:?}"
        );
        // The whole incident is on the health timeline: the detector's
        // suspicion of n0, the mitigation demoting it, and the transfer
        // target campaigning.
        let events = cl.raft.tracer.take_health_events();
        let has = |layer: &str, transition: &str, node: NodeId| {
            events
                .iter()
                .any(|e| e.layer == layer && e.transition == transition && e.node == node)
        };
        assert!(has("detector", "suspect", NodeId(0)), "events: {events:?}");
        assert!(has("mitigation", "demote", NodeId(0)), "events: {events:?}");
        assert!(
            events
                .iter()
                .any(|e| e.layer == "mitigation" && e.transition == "campaign"),
            "events: {events:?}"
        );
        // And the cluster commits briskly again (slow node is a follower).
        let t0 = sim.now();
        let done = drive(50);
        assert!(done >= 50 * 16 - 16, "recovered commits: {done}");
        let per_op = (sim.now() - t0) / done;
        assert!(
            per_op < Duration::from_millis(20),
            "recovered throughput too slow: {per_op:?} per op"
        );
    }
}
