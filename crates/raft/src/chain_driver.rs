//! **ChainRaft** — chain replication over the same substrate, for the
//! paper's design-tradeoff analysis.
//!
//! §2.1 turns chained replication *off* in the measured systems because it
//! "by design could propagate fail-slow faults", and §3.3 names exactly
//! this tradeoff — fail-slow fault tolerance versus load balancing in
//! chained replication — as something SPG analysis can reason about. This
//! driver exists to make that analysis runnable: writes flow
//! head → middle… → tail, each hop waits *singularly* on its successor's
//! ack, so the SPG is a chain of red edges and
//! [`verify::propagation_impact`](depfast::verify::propagation_impact)
//! predicts that slowness anywhere in the chain impacts everyone — the
//! opposite of the quorum structure, in exchange for chain replication's
//! lower leader load (the head ships each entry once, not `n-1` times).

use std::rc::Rc;
use std::time::Duration;

use depfast::event::Watchable;
use depfast::runtime::Coroutine;
use simkit::NodeId;

use crate::core::{RaftCore, Role};
use crate::types::{AppendReq, AppendResp, CHAIN_FORWARD};

/// Per-hop ack deadline.
const HOP_TIMEOUT: Duration = Duration::from_millis(1500);

/// The chain replication driver (head = `bootstrap_leader`; chain order =
/// member order).
pub struct ChainRaft;

impl ChainRaft {
    fn successor(core: &RaftCore) -> Option<NodeId> {
        let pos = core.members.iter().position(|m| *m == core.id)?;
        core.members.get(pos + 1).copied()
    }

    /// Starts ChainRaft coroutines on `core`.
    pub fn start(core: &Rc<RaftCore>) {
        Self::install_forward_service(core);
        core.spawn_apply_loop();
        if core.is_leader() {
            Self::spawn_head_loop(core);
        }
    }

    /// Handles a forwarded batch: append durably, relay down-chain, and
    /// only then acknowledge up-chain (so the head's ack implies the tail
    /// has the data).
    fn install_forward_service(core: &Rc<RaftCore>) {
        let c = core.clone();
        core.ep.serve(
            core.method(CHAIN_FORWARD),
            "chain:forward",
            move |_from, req: AppendReq| {
                let c = c.clone();
                async move {
                    let entry_count = req.entries.len();
                    let cpu =
                        c.cfg.append_cpu_base + c.cfg.append_cpu_per_entry * entry_count as u32;
                    c.world.cpu(c.id, cpu).await.ok()?;
                    // Append (idempotently) and wait for durability.
                    let entries = crate::types::from_wire(req.entries.clone());
                    let mut new = Vec::new();
                    for e in entries {
                        if e.index > c.log.last_index() {
                            new.push(e);
                        }
                    }
                    let match_to = req.prev_index + entry_count as u64;
                    if !new.is_empty() {
                        c.log.append(&new);
                    }
                    if match_to > 0 && c.log.durable_index() < match_to {
                        let _g = depfast::PhaseGuard::enter("wal_wait");
                        let gate = c.log.wait_durable(match_to.min(c.log.last_index()));
                        if !gate.wait().await.is_ready() {
                            return None;
                        }
                    }
                    c.set_commit(req.commit.min(match_to));
                    // Relay to the successor and wait for its ack — the
                    // chain's singular dependence, by design.
                    let mut success = true;
                    if let Some(next) = Self::successor(&c) {
                        let ok = Self::forward(&c, next, &req);
                        let phase = depfast::PhaseSpan::begin_blaming(&c.rt, "hop_wait", next);
                        success = ok.wait_timeout(HOP_TIMEOUT).await.is_ready();
                        phase.end();
                    }
                    Some(AppendResp {
                        term: c.log.current_term(),
                        success,
                        match_index: match_to,
                        verified: match_to,
                    })
                }
            },
        );
    }

    /// Forwards `req` to the successor `next`; the returned event fires
    /// `Ok` iff `next` (and so everything behind it) acknowledged.
    fn forward(core: &Rc<RaftCore>, next: NodeId, req: &AppendReq) -> depfast::EventHandle {
        core.ep.proxy(next).call_classified(
            core.method(CHAIN_FORWARD),
            "chain_forward",
            req,
            None,
            |resp: Option<AppendResp>| resp.is_some_and(|r| r.success),
        )
    }

    /// The head's loop: batch, append locally, forward once down the
    /// chain, wait for the (tail-implied) ack, commit.
    fn spawn_head_loop(core: &Rc<RaftCore>) {
        let core = core.clone();
        Coroutine::create(&core.rt.clone(), "chain:head", async move {
            loop {
                if core.st.borrow().role != Role::Leader || core.world.is_crashed(core.id) {
                    break;
                }
                let Ok(batch) = core.intake(None).await else {
                    break;
                };
                let term = core.log.current_term();
                let phase = depfast::PhaseSpan::begin(&core.rt, "wal_append");
                let staged = core.stage_batch(batch);
                if !staged.durable.handle().wait().await.is_ready() {
                    break;
                }
                phase.end();
                let Some(next) = Self::successor(&core) else {
                    core.set_commit(staged.hi); // Single-node chain.
                    continue;
                };
                // What was just staged is not applied, so not compacted.
                let Some(req) = core.append_req(term, staged.lo - 1, &staged.entries, false) else {
                    continue;
                };
                let ok = Self::forward(&core, next, &req);
                // The head waits on ONE successor — a red SPG edge. (The
                // successor is itself waiting on its own successor: the
                // whole chain is on the critical path.)
                let phase = depfast::PhaseSpan::begin_blaming(&core.rt, "hop_wait", next);
                if ok.wait_timeout(HOP_TIMEOUT).await.is_ready() {
                    core.set_commit(staged.hi);
                }
                phase.end();
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{RaftCluster, RaftKind};
    use crate::fixture::{bootstrapped, trio};
    use simkit::{Sim, World};

    fn cluster() -> (Sim, World, RaftCluster) {
        trio(19, RaftKind::Chain, bootstrapped())
    }

    /// `(committed, virtual time taken)` of `n` 64-byte proposals.
    fn drive(sim: &Sim, cl: &RaftCluster, n: u32) -> (u32, Duration) {
        let d = crate::fixture::drive(sim, cl, n, 64, Duration::from_secs(3));
        (d.committed, d.elapsed)
    }

    #[test]
    fn healthy_chain_commits_and_replicates_to_tail() {
        let (sim, _world, cl) = cluster();
        let (ok, _) = drive(&sim, &cl, 30);
        assert_eq!(ok, 30);
        sim.run_until_time(sim.now() + Duration::from_secs(1));
        for s in &cl.groups[0].servers {
            assert_eq!(s.core().log.last_index(), 30, "chain fully replicated");
        }
    }

    #[test]
    fn slow_tail_slows_the_entire_chain() {
        let (sim, world, cl) = cluster();
        let (_, healthy) = drive(&sim, &cl, 30);
        // The TAIL fails slow — in a quorum system this is harmless.
        world.set_egress_delay(NodeId(2), Duration::from_millis(400));
        let (ok, slowed) = drive(&sim, &cl, 30);
        assert_eq!(ok, 30, "chain still commits, just slowly");
        assert!(
            slowed > healthy * 20,
            "every write now pays the tail's delay: {healthy:?} -> {slowed:?}"
        );
    }

    #[test]
    fn verifier_flags_every_chain_hop() {
        let (sim, _world, cl) = cluster();
        cl.tracer.install_spg_fold();
        drive(&sim, &cl, 10);
        let spg = cl.tracer.finish_spg_fold();
        let violations =
            depfast::verify::check_fail_slow_tolerance(&spg, |l| l.starts_with("chain:"));
        // Head waits on middle, middle waits on tail: two singular hops.
        let pairs: Vec<(u32, u32)> = violations
            .iter()
            .map(|v| (v.waiter.0, v.target.0))
            .collect();
        assert!(
            pairs.contains(&(0, 1)),
            "head->middle hop flagged: {pairs:?}"
        );
        assert!(
            pairs.contains(&(1, 2)),
            "middle->tail hop flagged: {pairs:?}"
        );
    }

    #[test]
    fn propagation_analysis_shows_chain_wide_impact() {
        let (sim, _world, cl) = cluster();
        cl.tracer.install_spg_fold();
        drive(&sim, &cl, 10);
        let spg = cl.tracer.finish_spg_fold();
        // Slow TAIL impacts every chain member — the §3.3 tradeoff,
        // quantified from a real run.
        let impacted = depfast::verify::propagation_impact(&spg, &[NodeId(2)].into());
        assert!(impacted.contains(&NodeId(0)), "head impacted: {impacted:?}");
        assert!(
            impacted.contains(&NodeId(1)),
            "middle impacted: {impacted:?}"
        );
    }
}
