//! Runtime verification of fail-slow fault tolerance.
//!
//! §3.1 gives the definition this module checks: *"we define code that
//! only uses QuorumEvent and has no other waiting points as fail-slow
//! fault-tolerant code."* [`check_fail_slow_tolerance`] scans the SPG of a
//! real run for singular remote waits inside the coroutines the caller
//! designates as critical, and reports each one as a [`Violation`] — the analysis that
//! took the paper's authors "two person-years" to do by hand with printf
//! timestamps (§2.3).
//!
//! [`propagation_impact`] answers the complementary what-if question on
//! the same data: given that some nodes fail slow, which other nodes'
//! waits would stall? It runs a fixed point over the folded wait
//! groups: a singular wait stalls if its one target is impacted; a k-of-n
//! quorum wait stalls only when fewer than `k` healthy targets remain.

use std::collections::{BTreeMap, BTreeSet};

use simkit::NodeId;

use crate::spg::{EdgeKind, Spg};

/// A singular remote wait found on a critical code path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Node whose code contains the wait.
    pub waiter: NodeId,
    /// Remote node the wait depends on.
    pub target: NodeId,
    /// Label of the offending coroutine.
    pub coro_label: &'static str,
    /// Label of the waited-on event.
    pub event_label: &'static str,
    /// How many times this wait occurred in the folded window.
    pub count: u64,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "coroutine `{}` on {} waits singularly on `{}` from {} ({} times)",
            self.coro_label, self.waiter, self.event_label, self.target, self.count
        )
    }
}

/// Scans an SPG for singular remote waits in critical coroutines.
///
/// `is_critical` selects coroutines by label (e.g. everything starting
/// with `"raft"`). Returns one aggregated [`Violation`] per distinct
/// (waiter, target, coroutine label, event label), ordered
/// deterministically.
pub fn check_fail_slow_tolerance(spg: &Spg, is_critical: impl Fn(&str) -> bool) -> Vec<Violation> {
    let mut agg: BTreeMap<(u32, u32, &'static str, &'static str), u64> = BTreeMap::new();
    for g in &spg.groups {
        if g.kind != EdgeKind::Singular || !is_critical(g.coro_label) {
            continue;
        }
        for t in &g.targets {
            if *t == g.waiter {
                continue; // A wait on oneself is a local wait.
            }
            *agg.entry((g.waiter.0, t.0, g.coro_label, g.event_label))
                .or_insert(0) += g.count;
        }
    }
    agg.into_iter()
        .map(|((w, t, cl, el), count)| Violation {
            waiter: NodeId(w),
            target: NodeId(t),
            coro_label: cl,
            event_label: el,
            count,
        })
        .collect()
}

/// Computes the transitive impact set of a set of slow nodes.
///
/// Returns every node (including the seeds) whose waits would stall if the
/// seed nodes were arbitrarily slow, according to the wait groups observed
/// in the run.
pub fn propagation_impact(spg: &Spg, slow: &BTreeSet<NodeId>) -> BTreeSet<NodeId> {
    let mut impacted = slow.clone();
    loop {
        let mut changed = false;
        for g in &spg.groups {
            if impacted.contains(&g.waiter) {
                continue;
            }
            let slow_targets = g.targets.iter().filter(|t| impacted.contains(t)).count();
            let healthy = g.targets.len() - slow_targets;
            if healthy < g.k {
                impacted.insert(g.waiter);
                changed = true;
            }
        }
        if !changed {
            return impacted;
        }
    }
}

/// Probabilistic slowness propagation — the paper's planned extension
/// (§3.3: *"we plan to extend the analysis ... by integrating the
/// probability models that consider transient fail-slow events"*).
///
/// `base` gives each node's marginal probability of being (transiently)
/// fail-slow. The analysis iterates the propagation fixed point in
/// probability space: a wait group stalls when more than `n − k` of its
/// targets are impacted (computed exactly with a Poisson-binomial DP,
/// treating targets as independent), and a node is impacted if it is slow
/// itself or any of its wait groups stalls. Returns each node's impact
/// probability.
///
/// Independence across targets is an approximation (shared-fate faults
/// correlate); the result is an analytic estimate, not a bound.
pub fn propagation_probability(spg: &Spg, base: &BTreeMap<NodeId, f64>) -> BTreeMap<NodeId, f64> {
    // Collect every node and seed with its base probability.
    let mut prob: BTreeMap<NodeId, f64> = BTreeMap::new();
    for g in &spg.groups {
        prob.entry(g.waiter).or_insert(0.0);
        for t in &g.targets {
            prob.entry(*t).or_insert(0.0);
        }
    }
    for (n, p) in base {
        prob.insert(*n, p.clamp(0.0, 1.0));
    }
    // Deduplicate groups per waiter so repeated identical waits are not
    // treated as independent stall opportunities.
    let mut by_waiter: BTreeMap<NodeId, Vec<(Vec<NodeId>, usize)>> = BTreeMap::new();
    for g in &spg.groups {
        let mut targets = g.targets.clone();
        targets.sort_unstable();
        let entry = by_waiter.entry(g.waiter).or_default();
        if !entry.iter().any(|(t, k)| *t == targets && *k == g.k) {
            entry.push((targets, g.k));
        }
    }
    // Fixed point: impact probabilities only increase, bounded by 1.
    for _ in 0..32 {
        let mut next = prob.clone();
        let mut changed = false;
        for (waiter, groups) in &by_waiter {
            let own = base.get(waiter).copied().unwrap_or(0.0);
            let mut p_ok = 1.0 - own;
            for (targets, k) in groups {
                let p_stall = stall_probability(targets, *k, &prob);
                p_ok *= 1.0 - p_stall;
            }
            let p_impacted = 1.0 - p_ok;
            let cur = prob.get(waiter).copied().unwrap_or(0.0);
            if p_impacted > cur + 1e-12 {
                next.insert(*waiter, p_impacted);
                changed = true;
            }
        }
        prob = next;
        if !changed {
            break;
        }
    }
    prob
}

/// P(fewer than `k` of `targets` are healthy), Poisson-binomial DP.
fn stall_probability(targets: &[NodeId], k: usize, prob: &BTreeMap<NodeId, f64>) -> f64 {
    let n = targets.len();
    if k == 0 || n == 0 {
        return 0.0;
    }
    // dp[h] = probability exactly h targets healthy so far.
    let mut dp = vec![0.0f64; n + 1];
    dp[0] = 1.0;
    for (i, t) in targets.iter().enumerate() {
        let p_healthy = 1.0 - prob.get(t).copied().unwrap_or(0.0);
        for h in (0..=i).rev() {
            let v = dp[h];
            dp[h + 1] += v * p_healthy;
            dp[h] = v * (1.0 - p_healthy);
        }
    }
    dp[..k.min(n + 1)].iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spg::WaitGroup;

    fn group(waiter: u32, targets: &[u32], k: usize, kind: EdgeKind) -> WaitGroup {
        WaitGroup {
            waiter: NodeId(waiter),
            coro_label: "raft:replicate",
            event_label: "append_entries",
            targets: targets.iter().map(|t| NodeId(*t)).collect(),
            k,
            kind,
            label_k: k,
            label_n: targets.len(),
            count: 1,
        }
    }

    fn spg(groups: Vec<WaitGroup>) -> Spg {
        Spg { groups }
    }

    #[test]
    fn singular_remote_wait_is_flagged() {
        let s = spg(vec![group(0, &[1], 1, EdgeKind::Singular)]);
        let v = check_fail_slow_tolerance(&s, |_| true);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].waiter, NodeId(0));
        assert_eq!(v[0].target, NodeId(1));
    }

    #[test]
    fn quorum_wait_is_not_flagged() {
        let s = spg(vec![group(0, &[1, 2, 3], 2, EdgeKind::Quorum)]);
        assert!(check_fail_slow_tolerance(&s, |_| true).is_empty());
    }

    #[test]
    fn filter_scopes_the_check() {
        let s = spg(vec![group(0, &[1], 1, EdgeKind::Singular)]);
        assert!(check_fail_slow_tolerance(&s, |l| l.starts_with("client")).is_empty());
        assert_eq!(
            check_fail_slow_tolerance(&s, |l| l.starts_with("raft")).len(),
            1
        );
    }

    #[test]
    fn repeated_waits_aggregate() {
        let s = spg(vec![
            group(0, &[1], 1, EdgeKind::Singular),
            group(0, &[1], 1, EdgeKind::Singular),
        ]);
        let v = check_fail_slow_tolerance(&s, |_| true);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].count, 2);
    }

    #[test]
    fn self_wait_is_not_remote() {
        let s = spg(vec![group(0, &[0], 1, EdgeKind::Singular)]);
        assert!(check_fail_slow_tolerance(&s, |_| true).is_empty());
    }

    #[test]
    fn propagation_through_singular_chain() {
        // c -> leader -> follower (all singular): slow follower impacts all.
        let s = spg(vec![
            group(9, &[0], 1, EdgeKind::Singular),
            group(0, &[1], 1, EdgeKind::Singular),
        ]);
        let slow: BTreeSet<NodeId> = [NodeId(1)].into();
        let impacted = propagation_impact(&s, &slow);
        assert_eq!(impacted, [NodeId(0), NodeId(1), NodeId(9)].into());
    }

    #[test]
    fn quorum_absorbs_minority_slowness() {
        // Leader waits 2-of-3; one slow follower does not impact it.
        let s = spg(vec![group(0, &[1, 2, 3], 2, EdgeKind::Quorum)]);
        let slow: BTreeSet<NodeId> = [NodeId(1)].into();
        let impacted = propagation_impact(&s, &slow);
        assert_eq!(impacted, [NodeId(1)].into());
    }

    #[test]
    fn quorum_breaks_under_majority_slowness() {
        let s = spg(vec![group(0, &[1, 2, 3], 2, EdgeKind::Quorum)]);
        let slow: BTreeSet<NodeId> = [NodeId(1), NodeId(2)].into();
        let impacted = propagation_impact(&s, &slow);
        assert!(impacted.contains(&NodeId(0)));
    }

    #[test]
    fn probability_singular_wait_inherits_target_probability() {
        let s = spg(vec![group(0, &[1], 1, EdgeKind::Singular)]);
        let base: BTreeMap<NodeId, f64> = [(NodeId(1), 0.3)].into();
        let p = propagation_probability(&s, &base);
        assert!((p[&NodeId(0)] - 0.3).abs() < 1e-9, "got {p:?}");
    }

    #[test]
    fn probability_quorum_dampens_transient_slowness() {
        // 2-of-3 quorum over targets each slow with p=0.1 independently:
        // stall needs >= 2 slow: 3*0.1^2*0.9 + 0.1^3 = 0.028.
        let s = spg(vec![group(0, &[1, 2, 3], 2, EdgeKind::Quorum)]);
        let base: BTreeMap<NodeId, f64> =
            [(NodeId(1), 0.1), (NodeId(2), 0.1), (NodeId(3), 0.1)].into();
        let p = propagation_probability(&s, &base);
        assert!((p[&NodeId(0)] - 0.028).abs() < 1e-9, "got {p:?}");
    }

    #[test]
    fn probability_chains_compose() {
        // client -> leader (singular), leader -> 2-of-3 quorum.
        let s = spg(vec![
            group(9, &[0], 1, EdgeKind::Singular),
            group(0, &[1, 2, 3], 2, EdgeKind::Quorum),
        ]);
        let base: BTreeMap<NodeId, f64> =
            [(NodeId(1), 0.1), (NodeId(2), 0.1), (NodeId(3), 0.1)].into();
        let p = propagation_probability(&s, &base);
        // The client inherits the leader's (quorum-dampened) probability.
        assert!((p[&NodeId(9)] - 0.028).abs() < 1e-9, "got {p:?}");
    }

    #[test]
    fn probability_own_slowness_dominates() {
        let s = spg(vec![group(0, &[1, 2, 3], 2, EdgeKind::Quorum)]);
        let base: BTreeMap<NodeId, f64> = [(NodeId(0), 1.0)].into();
        let p = propagation_probability(&s, &base);
        assert!((p[&NodeId(0)] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn probability_duplicate_groups_not_double_counted() {
        let s = spg(vec![
            group(0, &[1], 1, EdgeKind::Singular),
            group(0, &[1], 1, EdgeKind::Singular),
        ]);
        let base: BTreeMap<NodeId, f64> = [(NodeId(1), 0.5)].into();
        let p = propagation_probability(&s, &base);
        assert!((p[&NodeId(0)] - 0.5).abs() < 1e-9, "got {p:?}");
    }

    #[test]
    fn propagation_with_nested_quorums_from_a_real_trace() {
        // Quorum-of-quorums, folded from a real run (not hand-built
        // groups): a coordinator on node 0 waits for *all* of two per-shard
        // majorities, each 2-of-3 over RPCs to that shard's replicas. The
        // inner thresholds are read off the nested tallies.
        use crate::event::{EventHandle, EventKind, QuorumEvent, QuorumMode};
        use crate::runtime::{Coroutine, Runtime};
        use simkit::Sim;
        use std::time::Duration;

        let sim = Sim::new(1);
        let rt = Runtime::new_sim(sim.clone(), NodeId(0));
        rt.tracer().install_spg_fold();
        let outer = QuorumEvent::labeled(&rt, QuorumMode::All, "xshard");
        for shard in 0..2u32 {
            let inner = QuorumEvent::labeled(&rt, QuorumMode::Majority, "shard");
            for replica in 1..=3u32 {
                let target = NodeId(shard * 3 + replica);
                let ev =
                    EventHandle::with_sampling(&rt, EventKind::Rpc { target }, "prepare", false);
                inner.add(&ev);
            }
            outer.add(&inner);
        }
        let o = outer.clone();
        Coroutine::create(&rt, "txn:coordinator", async move {
            o.wait_timeout(Duration::from_millis(5)).await;
        });
        sim.run();

        let s = rt.tracer().finish_spg_fold();
        // One 2-of-3 quorum group per shard; no singular edges.
        let quorums: Vec<_> = s
            .groups
            .iter()
            .filter(|g| g.kind == EdgeKind::Quorum && g.targets.len() == 3)
            .collect();
        assert_eq!(quorums.len(), 2, "groups: {:?}", s.groups);
        assert!(quorums.iter().all(|g| g.k == 2));
        assert!(check_fail_slow_tolerance(&s, |_| true).is_empty());

        // One slow replica per shard: both inner majorities absorb it.
        let slow: BTreeSet<NodeId> = [NodeId(1), NodeId(4)].into();
        assert_eq!(propagation_impact(&s, &slow), slow.clone());
        // A broken majority in *either* shard stalls the coordinator,
        // even though 4 of the 6 replicas overall are healthy.
        let slow: BTreeSet<NodeId> = [NodeId(1), NodeId(2)].into();
        let impacted = propagation_impact(&s, &slow);
        assert!(impacted.contains(&NodeId(0)), "impacted: {impacted:?}");
    }

    #[test]
    fn client_impacted_via_slow_leader_despite_quorum_cluster() {
        // Figure 2's observation: clients wait 1/1 on leaders. A slow
        // leader impacts its clients even though the quorum edges within
        // the group stay green.
        let s = spg(vec![
            group(9, &[0], 1, EdgeKind::Singular),     // client -> leader
            group(0, &[1, 2, 3], 2, EdgeKind::Quorum), // leader -> followers
        ]);
        let slow: BTreeSet<NodeId> = [NodeId(0)].into();
        let impacted = propagation_impact(&s, &slow);
        assert_eq!(impacted, [NodeId(0), NodeId(9)].into());
    }
}
