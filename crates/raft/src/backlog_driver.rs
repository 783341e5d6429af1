//! **BacklogRaft** — the RethinkDB-style baseline.
//!
//! §2.2, second root cause: *"RethinkDB maintains an unbounded buffer at
//! the leader for outgoing writes — a slow follower can drive the leader
//! to use an excessive amount of memory, or even run out of memory."*
//!
//! BacklogRaft keeps a per-follower **unbounded replication queue** of
//! full entries at the leader, charged to the leader's memory model with a
//! per-entry amplification factor (the serialized buffers, change-feed
//! structures and indexes a real system keeps per queued write). A
//! stop-and-wait sender per follower drains its queue at the follower's
//! pace. A fail-slow follower therefore grows its queue without bound:
//! first the leader crosses its swap threshold and *everything* on the
//! node slows down, then the allocation that exceeds the limit OOM-kills
//! the leader — the paper's observed RethinkDB crash under CPU faults.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::poll_fn;
use std::rc::Rc;
use std::task::Poll;
use std::time::Duration;

use depfast::event::Watchable;
use depfast::runtime::Coroutine;
use depfast_storage::Entry;
use simkit::{NodeId, WakerSlot};

use crate::core::{Fed, RaftCore, Role, HEARTBEAT};

/// Entries per send.
const CHUNK: usize = 16;
/// Maximum chunks in flight per follower (the replication pipeline — the
/// transport is competent; the pathology is the unbounded queue *behind*
/// it).
const PIPELINE: usize = 64;
/// Memory charged per queued entry byte (models per-write buffer
/// amplification in the real system).
const AMPLIFICATION: u64 = 768;
/// Per-send reply deadline before retrying.
const RPC_TIMEOUT: Duration = Duration::from_millis(500);

#[derive(Default)]
struct FollowerQueue {
    q: VecDeque<Entry>,
    charged: u64,
    in_flight: usize,
    /// Where the follower's sender parks: on an empty queue or a full
    /// pipeline.
    sender: WakerSlot,
}

/// The BacklogRaft driver (fixed leader; use `bootstrap_leader`).
pub struct BacklogRaft;

impl BacklogRaft {
    /// Starts BacklogRaft coroutines on `core`.
    pub fn start(core: &Rc<RaftCore>) {
        core.install_follower_services();
        if core.is_leader() {
            let queues: Vec<Rc<RefCell<FollowerQueue>>> =
                core.peers.iter().map(|_| Rc::default()).collect();
            for (i, peer) in core.peers.clone().into_iter().enumerate() {
                Self::spawn_sender(core, peer, queues[i].clone());
            }
            Self::spawn_main_loop(core, queues);
        } else {
            core.spawn_apply_loop();
        }
    }

    fn spawn_main_loop(core: &Rc<RaftCore>, queues: Vec<Rc<RefCell<FollowerQueue>>>) {
        let core = core.clone();
        Coroutine::create(&core.rt.clone(), "raft:backlog_main", async move {
            loop {
                if core.st.borrow().role != Role::Leader || core.world.is_crashed(core.id) {
                    break;
                }
                let tick = core.rt.now() + HEARTBEAT;
                let Ok(batch) = core.intake(Some(tick)).await else {
                    break;
                };
                if batch.is_empty() {
                    continue;
                }
                let phase = depfast::PhaseSpan::begin(&core.rt, "wal_append");
                let staged = core.stage_batch(batch);
                if !staged.durable.handle().wait().await.is_ready() {
                    break;
                }
                phase.end();
                // Push full copies onto every follower queue — unbounded,
                // charged to leader memory with amplification.
                let phase = depfast::PhaseSpan::begin(&core.rt, "queue_push");
                for q in &queues {
                    let mut fq = q.borrow_mut();
                    for e in &staged.entries {
                        let charge = e.size() * AMPLIFICATION;
                        if core.world.mem_alloc(core.id, charge).is_err() {
                            // OOM: the leader process is killed.
                            core.world.crash(core.id);
                            return;
                        }
                        fq.charged += charge;
                        fq.q.push_back(e.clone());
                    }
                    fq.sender.wake();
                }
                phase.end();
                // Commit wait, then apply, on the main loop (the swap
                // penalty from the growing buffers slows this directly).
                if core.commit_then_apply(staged.hi).await.is_err() {
                    break;
                }
            }
        });
    }

    /// Pipelined sender: up to [`PIPELINE`] chunks in flight, each
    /// individually retried until acknowledged. The transport keeps up
    /// with latency; a follower whose *throughput* is degraded still sets
    /// the drain rate, and the queue behind the pipeline grows unbounded.
    fn spawn_sender(core: &Rc<RaftCore>, peer: NodeId, queue: Rc<RefCell<FollowerQueue>>) {
        let core = core.clone();
        Coroutine::create(&core.rt.clone(), "raft:backlog_sender", async move {
            loop {
                if core.world.is_crashed(core.id) {
                    break;
                }
                let chunk: Vec<Entry> = poll_fn(|cx| {
                    let mut fq = queue.borrow_mut();
                    if fq.q.is_empty() || fq.in_flight >= PIPELINE {
                        fq.sender.park(cx);
                        return Poll::Pending;
                    }
                    let take = fq.q.len().min(CHUNK);
                    Poll::Ready(fq.q.drain(..take).collect())
                })
                .await;
                queue.borrow_mut().in_flight += 1;
                let c = core.clone();
                let q = queue.clone();
                Coroutine::create(&core.rt.clone(), "raft:backlog_ack", async move {
                    // `None` for a chunk that sat in the queue until the log
                    // was compacted past it (the size limit cut this
                    // follower loose): the feed law covers it instead.
                    let (lo, hi) = (chunk[0].index, chunk[chunk.len() - 1].index + 1);
                    let term = c.log.current_term();
                    let req = c.append_req(term, lo - 1, &chunk, false);
                    // Retry until this chunk is acknowledged.
                    loop {
                        let accepted = match &req {
                            Some(req) => c.send_append(peer, req),
                            None if c.match_index(peer) >= hi - 1 => break,
                            None => match c.feed(peer, term, lo, hi, chunk.clone()) {
                                Fed::Pending(sent) => sent,
                                _ => return, // Deposed: it has no state to impose.
                            },
                        };
                        // The singular wait: this ack path is fully coupled
                        // to this one follower's speed.
                        let out = {
                            let _g = depfast::PhaseGuard::enter("queue_drain");
                            accepted.wait_timeout(RPC_TIMEOUT).await
                        };
                        if out.is_ready() {
                            break;
                        }
                        if c.world.is_crashed(c.id) || !c.is_leader() {
                            return; // Crashed or deposed: stop re-sending.
                        }
                    }
                    // Chunk acknowledged: release its memory charge.
                    let released: u64 = chunk.iter().map(|e| e.size() * AMPLIFICATION).sum();
                    {
                        let mut fq = q.borrow_mut();
                        fq.charged = fq.charged.saturating_sub(released);
                        fq.in_flight -= 1;
                    }
                    c.world.mem_free(c.id, released);
                    q.borrow().sender.wake();
                });
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Placement, RaftCluster, RaftKind};
    use crate::fixture::{self, bootstrapped, drive};
    use bytes::Bytes;
    use simkit::{MemCfg, Sim, SimTime, World, WorldCfg};

    fn cluster(mem_limit: u64) -> (Sim, World, RaftCluster) {
        let world = WorldCfg {
            nodes: 3,
            mem: MemCfg {
                limit: mem_limit,
                baseline: mem_limit / 8,
                swap_threshold: 0.5,
                swap_max_slowdown: 10.0,
            },
            ..WorldCfg::default()
        };
        let single = Placement::Single { n: 3 };
        fixture::cluster(9, RaftKind::Backlog, bootstrapped(), world, single)
    }

    #[test]
    fn healthy_cluster_commits() {
        let (sim, _world, cl) = cluster(1 << 30);
        let committed = drive(&sim, &cl, 30, 64, Duration::from_secs(2)).committed;
        assert_eq!(committed, 30);
    }

    #[test]
    fn slow_follower_grows_leader_memory() {
        let (sim, world, cl) = cluster(1 << 30);
        world.set_cpu_quota(NodeId(2), 0.005);
        let before = world.mem_used(NodeId(0));
        drive(&sim, &cl, 300, 512, Duration::from_secs(1));
        let after = world.mem_used(NodeId(0));
        assert!(
            after > before + 10 * 1024 * 1024,
            "queue to slow follower should charge leader memory: {before} -> {after}"
        );
    }

    #[test]
    fn sustained_backlog_ooms_the_leader() {
        let (sim, world, cl) = cluster(64 * 1024 * 1024);
        world.set_cpu_quota(NodeId(2), 0.002);
        // Open-loop pressure: propose without waiting for each commit.
        let mut crashed = false;
        'outer: for _round in 0..200 {
            for i in 0..64u32 {
                cl.groups[0].servers[0].propose(Bytes::from(vec![(i % 251) as u8; 1024]));
            }
            sim.run_until_time(sim.now() + Duration::from_millis(50));
            if world.is_crashed(NodeId(0)) {
                crashed = true;
                break 'outer;
            }
        }
        assert!(crashed, "unbounded backlog must OOM-crash the leader");
        assert!(sim.now() < SimTime::from_secs(60));
    }
}
