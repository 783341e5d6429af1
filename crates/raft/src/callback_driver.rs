//! **CallbackRaft** — the MongoDB-style event-loop baseline.
//!
//! The third pattern behind Figure 1: a callback/message-loop architecture
//! (§2.3's "spaghetti" style) where one loop serially executes every
//! callback — client intake, replication acks, periodic maintenance — and
//! replication lag engages a *flow-control* path that throttles intake and
//! synchronously probes the lagging follower with a short deadline.
//! Nothing here is algorithmically wrong (commit still needs only a
//! majority), yet the singular probe wait and the serialized loop put the
//! slow follower back on the critical path intermittently: modest
//! throughput loss, strongly amplified tail latency.
//!
//! The synchronous probe is exactly the kind of wait
//! [`depfast::verify::check_fail_slow_tolerance`] exists to flag, and the
//! tests assert that it does.

use std::rc::Rc;
use std::time::Duration;

use depfast::event::Watchable;
use depfast::runtime::Coroutine;
use simkit::disk::DiskOp;
use simkit::SimTime;

use crate::core::{Fed, RaftCore, Role, HEARTBEAT};
use crate::types::FLOW_PROBE;

/// Replication lag (entries) beyond which flow control engages.
const FLOW_THRESHOLD: u64 = 256;
/// Extra per-batch CPU burned while flow control is engaged.
const FLOW_CPU: Duration = Duration::from_micros(150);
/// Deadline of the synchronous follower probe.
const PROBE_TIMEOUT: Duration = Duration::from_millis(30);
/// Minimum interval between synchronous probes.
const PROBE_EVERY: Duration = Duration::from_millis(100);

/// The CallbackRaft driver (fixed leader; use `bootstrap_leader`).
pub struct CallbackRaft;

impl CallbackRaft {
    /// Starts CallbackRaft coroutines on `core`.
    pub fn start(core: &Rc<RaftCore>) {
        core.install_follower_services();
        Self::install_probe_service(core);
        if core.is_leader() {
            // Apply runs as callbacks on the message loop itself.
            Self::spawn_message_loop(core);
        } else {
            core.spawn_apply_loop();
        }
    }

    fn install_probe_service(core: &Rc<RaftCore>) {
        let c = core.clone();
        core.ep.serve(
            core.method(FLOW_PROBE),
            "raft:handle_probe",
            move |_from, (): ()| {
                let c = c.clone();
                async move {
                    // Status computation on the (possibly slow) follower.
                    c.world.cpu(c.id, Duration::from_micros(200)).await.ok()?;
                    Some(c.log.last_index())
                }
            },
        );
    }

    fn spawn_message_loop(core: &Rc<RaftCore>) {
        let core = core.clone();
        Coroutine::create(&core.rt.clone(), "raft:message_loop", async move {
            let mut last_probe = SimTime::ZERO;
            loop {
                if core.st.borrow().role != Role::Leader || core.world.is_crashed(core.id) {
                    break;
                }
                let tick = core.rt.now() + HEARTBEAT;
                let Ok(batch) = core.intake(Some(tick)).await else {
                    break;
                };

                // Flow control: replication lag of the slowest member.
                let max_lag = {
                    let last = core.log.last_index();
                    core.peers
                        .iter()
                        .map(|p| last.saturating_sub(core.match_index(*p)))
                        .max()
                        .unwrap_or(0)
                };
                if max_lag > FLOW_THRESHOLD {
                    // Throttling work runs inline on the loop.
                    if core.world.cpu(core.id, FLOW_CPU).await.is_err() {
                        break;
                    }
                    if core.rt.now() - last_probe >= PROBE_EVERY {
                        last_probe = core.rt.now();
                        let laggard = {
                            let last = core.log.last_index();
                            core.peers
                                .iter()
                                .copied()
                                .max_by_key(|p| last.saturating_sub(core.match_index(*p)))
                                .expect("has peers")
                        };
                        let ev = core.ep.proxy(laggard).call_t(
                            core.method(FLOW_PROBE),
                            "flow_probe",
                            &(),
                        );
                        // THE SINGULAR WAIT: the whole message loop stalls
                        // on the slow follower, up to PROBE_TIMEOUT.
                        let phase =
                            depfast::PhaseSpan::begin_blaming(&core.rt, "flow_probe", laggard);
                        ev.handle().wait_timeout(PROBE_TIMEOUT).await;
                        phase.end();
                    }
                }

                if !batch.is_empty() {
                    let phase = depfast::PhaseSpan::begin(&core.rt, "wal_append");
                    let staged = core.stage_batch(batch);
                    if !staged.durable.handle().wait().await.is_ready() {
                        break;
                    }
                    phase.end();
                }
                let hi = core.log.last_index();

                // Sends are asynchronous; replies come back as callbacks
                // that also run (their CPU) on this node.
                for peer in core.peers.clone() {
                    let next = core.next_index(peer);
                    let send_hi = (hi + 1).min(next + core.cfg.max_entries_per_append as u64);
                    match core.feed(peer, core.log.current_term(), next, send_hi, Vec::new()) {
                        Fed::Append(req) => {
                            core.send_append(peer, &req);
                        }
                        // Cold reads happen on a helper, not the loop.
                        Fed::Cold(to_send, bytes) => {
                            let c = core.clone();
                            Coroutine::create(&core.rt.clone(), "raft:cold_read", async move {
                                if c.world.disk(c.id, DiskOp::Read { bytes }).await.is_err() {
                                    return;
                                }
                                // The loop has gone on to apply meanwhile
                                // and may have compacted past `next`: then
                                // this sends state, or nothing.
                                let term = c.log.current_term();
                                let fed = c.feed(peer, term, next, send_hi, to_send);
                                if let Fed::Append(req) = fed {
                                    c.send_append(peer, &req);
                                }
                            });
                        }
                        _ => {}
                    }
                }
                // Commit wait, then the apply callbacks, on this same loop.
                if core.commit_then_apply(hi).await.is_err() {
                    break;
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{RaftCluster, RaftKind};
    use crate::fixture::{bootstrapped, trio};
    use bytes::Bytes;
    use simkit::{NodeId, Sim, World};

    fn cluster() -> (Sim, World, RaftCluster) {
        trio(13, RaftKind::Callback, bootstrapped())
    }

    /// `(committed, slowest commit)` of `n` 128-byte proposals.
    fn drive(sim: &Sim, cl: &RaftCluster, n: u32) -> (u32, Duration) {
        let d = crate::fixture::drive(sim, cl, n, 128, Duration::from_secs(2));
        (d.committed, d.worst)
    }

    #[test]
    fn healthy_cluster_commits() {
        let (sim, _world, cl) = cluster();
        let (committed, _) = drive(&sim, &cl, 30);
        assert_eq!(committed, 30);
    }

    /// Reachable when `DepFastRaft::force_campaign` (which works on any
    /// core) elects a follower while this leader misses the vote request:
    /// every later append is answered at the higher term.
    #[test]
    fn higher_term_reply_deposes_the_leader() {
        let (sim, _world, cl) = cluster();
        for follower in &cl.groups[0].servers[1..] {
            follower.core().step_down(2, None);
        }
        let ev = cl.groups[0].servers[0].propose(Bytes::from_static(b"stale"));
        sim.block_on({
            let ev = ev.clone();
            async move { ev.handle().wait_timeout(Duration::from_secs(2)).await }
        });
        let leader = cl.groups[0].servers[0].core();
        assert_eq!(leader.st.borrow().role, Role::Follower);
        assert_eq!(leader.log.current_term(), 2);
        assert_eq!(
            ev.handle().fired(),
            Some(depfast::Signal::Err),
            "a deposed leader must fail its pending proposals"
        );
        assert_eq!(cl.groups[0].leader(), None);
    }

    /// The cold-read helper, a route to the fork of its own. The loop hands
    /// a lagging follower's cold read to a helper and goes on; the log is
    /// compacted past those entries while they are on the disk. The helper
    /// hands them back, finds them gone, and sends state itself — before
    /// the loop's next pass, a heartbeat later, would have.
    #[test]
    fn a_cold_read_helper_overtaken_by_compaction_sends_state_itself() {
        let cfg = crate::core::RaftCfg {
            log: depfast_storage::LogStoreCfg {
                cache_bytes: 64,
                ..Default::default()
            },
            ..bootstrapped()
        };
        let (sim, world, cl) = trio(13, RaftKind::Callback, cfg);
        let core = cl.groups[0].servers[0].core().clone();
        let b = NodeId(2);
        world.partition(NodeId(0), b);
        assert_eq!(drive(&sim, &cl, 20).0, 20);
        let state_to_b = || {
            let feed = core.feed.borrow();
            let fork = feed.fork(core.rt.now(), b, 0, 1, true, |_| false);
            matches!(fork, Some(crate::feed::Fork::Waiting(_)))
        };
        // One more round: the loop's read for B goes to the disk.
        let misses = core.log.cache_misses();
        cl.groups[0].servers[0].propose(Bytes::from_static(b"x"));
        while core.log.cache_misses() == misses {
            sim.run_until_time(sim.now() + Duration::from_micros(10));
        }
        core.log.compact_through(10);
        assert!(!state_to_b());
        sim.run_until_time(sim.now() + HEARTBEAT / 3);
        assert!(state_to_b());
    }

    #[test]
    fn slow_follower_amplifies_tail_latency() {
        let (sim, world, cl) = cluster();
        let (_, healthy_worst) = drive(&sim, &cl, 100);
        world.set_cpu_quota(NodeId(2), 0.01);
        let (committed, slow_worst) = drive(&sim, &cl, 600);
        assert_eq!(committed, 600, "commits keep succeeding");
        assert!(
            slow_worst > healthy_worst * 2,
            "probes should spike the tail: healthy {healthy_worst:?} vs slow {slow_worst:?}"
        );
    }

    #[test]
    fn verifier_flags_the_synchronous_probe() {
        let (sim, world, cl) = cluster();
        let tracer = cl.tracer.clone();
        world.set_cpu_quota(NodeId(2), 0.01);
        // Build up lag first, then fold a window in which flow control is
        // active.
        drive(&sim, &cl, 400);
        tracer.install_spg_fold();
        drive(&sim, &cl, 200);
        let spg = tracer.finish_spg_fold();
        let violations =
            depfast::verify::check_fail_slow_tolerance(&spg, |l| l.starts_with("raft:"));
        assert!(
            violations
                .iter()
                .any(|v| v.event_label == "flow_probe" && v.waiter == NodeId(0)),
            "the flow probe must be flagged as a singular remote wait, got {violations:?}"
        );
    }
}
