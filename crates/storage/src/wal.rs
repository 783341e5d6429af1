//! Write-ahead log with group commit.
//!
//! [`Wal::append`] returns an [`IoEvent`] immediately; a background flusher
//! coroutine batches everything appended while the disk was busy into one
//! buffered write + `fsync`, then fires the batch's events. Group commit is
//! emergent: the slower the disk, the bigger the batches.

use std::cell::RefCell;
use std::future::poll_fn;
use std::rc::Rc;
use std::task::Poll;

use depfast::event::EventKind;
use depfast::runtime::{Coroutine, Runtime};
use depfast::TypedEvent;
use depfast_metrics::HistogramHandle;
use simkit::disk::DiskOp;
use simkit::{NodeId, WakerSlot, World};

/// Completion event of a durable append. Fires `Ok(())` once the batch
/// containing the append has been fsynced; fires `Err` if the node crashed
/// first.
pub type IoEvent = TypedEvent<()>;

/// WAL configuration.
#[derive(Debug, Clone, Copy)]
pub struct WalCfg {
    /// Fixed per-record framing overhead added to each append's size.
    pub record_overhead: u64,
}

impl Default for WalCfg {
    fn default() -> Self {
        WalCfg {
            record_overhead: 24,
        }
    }
}

struct WalInner {
    pending: Vec<(u64, IoEvent)>,
    /// Where the flusher parks while nothing is pending.
    flusher: WakerSlot,
    appended: u64,
    synced_batches: u64,
    synced_bytes: u64,
    stopped: bool,
}

/// A per-node write-ahead log.
#[derive(Clone)]
pub struct Wal {
    rt: Runtime,
    world: World,
    node: NodeId,
    cfg: WalCfg,
    /// `wal.batch_records` series: appends coalesced per fsync batch
    /// (group-commit effectiveness as a distribution, not just a ratio).
    batch_records: HistogramHandle,
    /// `wal.batch_bytes` series: bytes made durable per fsync batch.
    batch_bytes: HistogramHandle,
    inner: Rc<RefCell<WalInner>>,
}

impl Wal {
    /// Creates the WAL for `rt`'s node and starts its flusher coroutine.
    pub fn new(rt: &Runtime, world: &World, cfg: WalCfg) -> Self {
        let scope = rt.tracer().metrics().node(rt.node().0);
        let wal = Wal {
            rt: rt.clone(),
            world: world.clone(),
            node: rt.node(),
            cfg,
            batch_records: scope.histogram("wal.batch_records"),
            batch_bytes: scope.histogram("wal.batch_bytes"),
            inner: Rc::new(RefCell::new(WalInner {
                pending: Vec::new(),
                flusher: WakerSlot::default(),
                appended: 0,
                synced_batches: 0,
                synced_bytes: 0,
                stopped: false,
            })),
        };
        wal.spawn_flusher();
        wal
    }

    /// Appends `bytes` of log data; the returned event fires when durable.
    pub fn append(&self, bytes: u64) -> IoEvent {
        let event: IoEvent = TypedEvent::new(&self.rt, EventKind::Io, "wal:append");
        let mut inner = self.inner.borrow_mut();
        if inner.stopped {
            drop(inner);
            event.fire_err();
            return event;
        }
        inner.appended += 1;
        inner
            .pending
            .push((bytes + self.cfg.record_overhead, event.clone()));
        inner.flusher.wake();
        event
    }

    /// Test probe: number of fsync batches completed (group-commit effectiveness).
    #[doc(hidden)]
    pub fn synced_batches(&self) -> u64 {
        self.inner.borrow().synced_batches
    }

    /// Test probe: total records appended.
    #[doc(hidden)]
    pub fn appended(&self) -> u64 {
        self.inner.borrow().appended
    }

    /// Test probe: total bytes made durable.
    #[doc(hidden)]
    pub fn synced_bytes(&self) -> u64 {
        self.inner.borrow().synced_bytes
    }

    fn spawn_flusher(&self) {
        let wal = self.clone();
        Coroutine::create(&self.rt, "wal:flusher", async move {
            loop {
                // The next batch of pending appends (`None` once stopped).
                let batch = poll_fn(|cx| {
                    let mut inner = wal.inner.borrow_mut();
                    if inner.stopped {
                        return Poll::Ready(None);
                    }
                    if !inner.pending.is_empty() {
                        return Poll::Ready(Some(std::mem::take(&mut inner.pending)));
                    }
                    inner.flusher.park(cx);
                    Poll::Pending
                })
                .await;
                let Some(batch) = batch else { break };
                let total: u64 = batch.iter().map(|(b, _)| *b).sum();
                let ok = wal
                    .world
                    .disk(wal.node, DiskOp::Write { bytes: total })
                    .await
                    .is_ok()
                    && wal
                        .world
                        .disk(wal.node, DiskOp::Fsync { bytes: total })
                        .await
                        .is_ok();
                {
                    let mut inner = wal.inner.borrow_mut();
                    if ok {
                        inner.synced_batches += 1;
                        inner.synced_bytes += total;
                    } else {
                        inner.stopped = true;
                    }
                }
                if ok {
                    wal.batch_records.record_ns(batch.len() as u64);
                    wal.batch_bytes.record_ns(total);
                }
                for (_, event) in batch {
                    if ok {
                        event.fire_ok(());
                    } else {
                        event.fire_err();
                    }
                }
                if !ok {
                    break; // Node crashed.
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use depfast::event::Watchable;
    use simkit::{Sim, SimTime, WorldCfg};
    use std::time::Duration;

    fn setup() -> (Sim, World, Wal) {
        let sim = Sim::new(1);
        let world = World::new(sim.clone(), WorldCfg::default());
        let rt = Runtime::new_sim(sim.clone(), NodeId(0));
        let wal = Wal::new(&rt, &world, WalCfg::default());
        (sim, world, wal)
    }

    #[test]
    fn append_becomes_durable() {
        let (sim, _world, wal) = setup();
        let ev = wal.append(100);
        let out = sim.block_on({
            let ev = ev.clone();
            async move { ev.handle().wait().await }
        });
        assert!(out.is_ready());
        assert!(sim.now() > SimTime::ZERO, "durability costs disk time");
        assert_eq!(wal.synced_batches(), 1);
    }

    #[test]
    fn appends_during_busy_disk_group_commit() {
        let (sim, _world, wal) = setup();
        let evs: Vec<IoEvent> = (0..64).map(|_| wal.append(256)).collect();
        sim.run();
        for ev in &evs {
            assert!(ev.handle().ready());
        }
        // Far fewer fsync batches than appends.
        assert!(
            wal.synced_batches() < 10,
            "expected grouping, got {} batches",
            wal.synced_batches()
        );
        assert_eq!(wal.appended(), 64);
    }

    #[test]
    fn slow_disk_grows_batches_not_backlog() {
        let (sim, world, wal) = setup();
        world.set_disk_bw_factor(NodeId(0), 0.05);
        let evs: Vec<IoEvent> = (0..128).map(|_| wal.append(4096)).collect();
        sim.run();
        assert!(evs.iter().all(|e| e.handle().ready()));
    }

    #[test]
    fn crash_fails_pending_appends() {
        let (sim, world, wal) = setup();
        let ev = wal.append(100);
        world.crash(NodeId(0));
        let out = sim.block_on({
            let ev = ev.clone();
            async move { ev.handle().wait_timeout(Duration::from_millis(100)).await }
        });
        // Either the flusher noticed the crash (Failed) or nothing ran.
        assert!(!out.is_ready());
        // Subsequent appends fail immediately once stopped.
        sim.run();
        let ev2 = wal.append(1);
        assert_eq!(ev2.handle().fired(), Some(depfast::Signal::Err));
    }

    #[test]
    fn synced_bytes_include_overhead() {
        let (sim, _world, wal) = setup();
        wal.append(100);
        sim.run();
        assert_eq!(wal.synced_bytes(), 100 + WalCfg::default().record_overhead);
    }
}
