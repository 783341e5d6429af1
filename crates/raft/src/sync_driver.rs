//! **SyncRaft** — the TiDB-style baseline.
//!
//! §2.2, first root cause: *"TiDB Raftstore uses a single thread for each
//! data region. A fail-slow follower could force the leader to read old
//! entries from the disk (those entries have been evicted from the
//! in-memory EntryCache), thus blocking the whole thread during the disk
//! I/O."*
//!
//! SyncRaft reproduces the pattern: one *region thread* (coroutine) owns
//! proposal intake, the local WAL wait, and the per-follower send
//! preparation — including the EntryCache read. When a follower lags
//! behind the cache floor, the resulting disk read happens **inline on the
//! region thread**, stalling every client of the region, even though the
//! commit rule itself only needs the healthy majority.

use std::rc::Rc;

use depfast::event::Watchable;
use depfast::runtime::Coroutine;
use simkit::disk::DiskOp;

use crate::core::{Fed, RaftCore, Role, HEARTBEAT};

/// The SyncRaft driver (fixed leader; use `bootstrap_leader`).
pub struct SyncRaft;

impl SyncRaft {
    /// Starts SyncRaft coroutines on `core`.
    ///
    /// On the leader, *apply also runs on the region thread* (TiDB's
    /// raftstore architecture) — so anything that blocks the thread blocks
    /// the state machine too.
    pub fn start(core: &Rc<RaftCore>) {
        core.install_follower_services();
        if core.is_leader() {
            Self::spawn_region_thread(core);
        } else {
            core.spawn_apply_loop();
        }
    }

    /// The single region thread: batch intake → sync local append → one
    /// sequential send-preparation pass (with inline cold reads) → commit
    /// wait → inline apply.
    fn spawn_region_thread(core: &Rc<RaftCore>) {
        let core = core.clone();
        Coroutine::create(&core.rt.clone(), "raft:region_thread", async move {
            loop {
                if core.st.borrow().role != Role::Leader {
                    break;
                }
                let tick = core.rt.now() + HEARTBEAT;
                let Ok(batch) = core.intake(Some(tick)).await else {
                    break;
                };
                let term = core.log.current_term();
                if !batch.is_empty() {
                    let phase = depfast::PhaseSpan::begin(&core.rt, "wal_append");
                    // Synchronous wait on the local WAL: the region thread
                    // does nothing else meanwhile.
                    let staged = core.stage_batch(batch);
                    if !staged.durable.handle().wait().await.is_ready() {
                        break;
                    }
                    phase.end();
                }
                let hi = core.log.last_index();

                // Sequential send preparation, one follower at a time.
                for peer in core.peers.clone() {
                    let lo = core.next_index(peer);
                    let send_hi = (hi + 1).min(lo + core.cfg.max_entries_per_append as u64);
                    let mut fed = core.feed(peer, term, lo, send_hi, Vec::new());
                    if let Fed::Cold(to_send, bytes) = fed {
                        // THE ROOT CAUSE: the evicted-entry disk read runs
                        // inline on the region thread. Blame the follower
                        // whose lag forced the read below the cache floor.
                        let phase = depfast::PhaseSpan::begin_blaming(&core.rt, "cold_read", peer);
                        let read = core.world.disk(core.id, DiskOp::Read { bytes });
                        if read.await.is_err() {
                            return;
                        }
                        phase.end();
                        fed = core.feed(peer, term, lo, send_hi, to_send);
                    }
                    // Replies are digested by hooks (the region thread
                    // does not wait for them individually).
                    if let Fed::Append(req) = fed {
                        core.send_append(peer, &req);
                    }
                }
                // Wait for this round's entries to commit before the next
                // intake (single-threaded pipeline of depth one), then
                // apply on the region thread itself.
                if core.commit_then_apply(hi).await.is_err() {
                    break;
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use crate::cluster::{RaftCluster, RaftKind};
    use crate::core::RaftCfg;
    use crate::fixture::{bootstrapped, drive, trio};
    use depfast_storage::LogStoreCfg;
    use simkit::{NodeId, Sim, World};
    use std::time::Duration;

    const PATIENCE: Duration = Duration::from_secs(2);

    fn cluster(cache_bytes: u64) -> (Sim, World, RaftCluster) {
        let cfg = RaftCfg {
            log: LogStoreCfg {
                cache_bytes,
                ..LogStoreCfg::default()
            },
            ..bootstrapped()
        };
        trio(5, RaftKind::Sync, cfg)
    }

    #[test]
    fn healthy_cluster_commits() {
        let (sim, _world, cl) = cluster(1 << 20);
        assert_eq!(drive(&sim, &cl, 30, 64, PATIENCE).committed, 30);
    }

    #[test]
    fn slow_follower_forces_cache_misses_on_leader() {
        let (sim, world, cl) = cluster(64 * 1024);
        // Slow follower 2's network egress so its acks lag and its
        // next_index falls behind the cache floor.
        world.set_egress_delay(NodeId(2), Duration::from_millis(400));
        drive(&sim, &cl, 200, 1024, PATIENCE);
        let leader_log = &cl.groups[0].servers[0].core().log;
        assert!(
            leader_log.cache_misses() > 0,
            "lagging follower should push reads below the cache floor"
        );
    }

    #[test]
    fn commits_continue_with_one_slow_follower() {
        let (sim, world, cl) = cluster(64 * 1024);
        world.set_cpu_quota(NodeId(1), 0.05);
        let committed = drive(&sim, &cl, 50, 256, PATIENCE).committed;
        assert_eq!(committed, 50, "majority commit must still work");
    }
}
