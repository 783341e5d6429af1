//! Fail-slow fault injection: Table 1 of the paper, as code.
//!
//! > *"We build a fail-slow fault injection tool. It injects different
//! > types of fail-slow faults (related to CPU, memory, SSD, and NIC) into
//! > the target systems and measures their impact on system performance."*
//!
//! Each variant of [`FaultKind`] maps one row of Table 1 onto the
//! simulator's resource models:
//!
//! | Table 1 row | Injection there | Injection here |
//! |---|---|---|
//! | CPU (slow) | cgroup quota: 5% CPU | CPU rate ×0.05 |
//! | CPU (contention) | contender with 16× CPU share | victim share 1/17 while the contender burst is active |
//! | Disk (slow) | cgroup blkio bandwidth limit | disk bandwidth factor |
//! | Disk (contention) | contending heavy writer | background write+fsync task through the same disk queue |
//! | Memory (contention) | cgroup max user memory | lowered memory limit → swap penalty / OOM on new allocations |
//! | Network (slow) | `tc` +400 ms on the interface | +400 ms egress delay |
//!
//! A fault is a window: [`inject_at`] applies one to a node at a virtual
//! offset and, given a duration, clears it that much later. Every window
//! is journaled into a per-run [`FaultLedger`] — the *ground truth* side
//! of the incident timeline: each [`FaultRecord`] carries exact
//! virtual-clock onset and clear times, so detector reactions
//! (`depfast-incident`) can be scored against what actually happened and
//! when.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Duration;

use simkit::disk::DiskOp;
use simkit::{NodeId, Sim, SimTime, World};

/// One fail-slow fault, parameterized; defaults reproduce Table 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// cgroup-style CPU quota (Table 1: 5%).
    CpuSlow {
        /// Fraction of CPU the process may use.
        quota: f64,
    },
    /// A contending program with a higher CPU share, bursty.
    CpuContention {
        /// Victim's share while the contender runs (1/(1+16) for 16×).
        share: f64,
        /// Contender burst length.
        on: Duration,
        /// Gap between bursts.
        off: Duration,
    },
    /// cgroup-style disk bandwidth limit.
    DiskSlow {
        /// Remaining fraction of disk bandwidth.
        bw_factor: f64,
    },
    /// A contending program writing heavily to the shared disk.
    DiskContention {
        /// Bytes written (and fsynced) per burst.
        write_bytes: u64,
        /// Burst period.
        period: Duration,
    },
    /// cgroup-style maximum user memory.
    MemContention {
        /// New, lower memory limit in bytes.
        limit: u64,
    },
    /// `tc`-style egress delay on the node's interface.
    NetSlow {
        /// Added one-way delay.
        delay: Duration,
    },
    /// Partial network partition: this node and `peer` cannot reach each
    /// other, while every other link stays up (the "A sees B, B can't
    /// see C" gray failure). Not part of Table 1; used by the scenario
    /// matrix.
    PartialPartition {
        /// The node on the other side of the severed link.
        peer: u32,
    },
}

impl FaultKind {
    /// The six faults of Table 1 with the paper's parameters (where the
    /// paper gives them) or calibrated defaults (where it does not).
    pub fn table1(mem_limit_for_contention: u64) -> [FaultKind; 6] {
        [
            FaultKind::CpuSlow { quota: 0.05 },
            FaultKind::CpuContention {
                share: 1.0 / 17.0,
                on: Duration::from_millis(150),
                off: Duration::from_millis(50),
            },
            FaultKind::DiskSlow { bw_factor: 0.008 },
            FaultKind::DiskContention {
                write_bytes: 2200 * 1024,
                period: Duration::from_millis(10),
            },
            FaultKind::MemContention {
                limit: mem_limit_for_contention,
            },
            FaultKind::NetSlow {
                delay: Duration::from_millis(400),
            },
        ]
    }

    /// Display name matching the paper's legend.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::CpuSlow { .. } => "CPU Slowness",
            FaultKind::CpuContention { .. } => "CPU Contention",
            FaultKind::DiskSlow { .. } => "Disk Slowness",
            FaultKind::DiskContention { .. } => "Disk Contention",
            FaultKind::MemContention { .. } => "Memory Contention",
            FaultKind::NetSlow { .. } => "Network Slowness",
            FaultKind::PartialPartition { .. } => "Partial Partition",
        }
    }

    /// Coarse injected intensity in `(0, 1]` — the ledger's `severity`
    /// field. Where the parameters give a resource fraction the formula is
    /// exact (fraction of the resource taken away, duty-cycle weighted for
    /// bursty contention); the two contention kinds whose pressure depends
    /// on runtime state use documented nominal values.
    pub fn severity(&self) -> f64 {
        match self {
            FaultKind::CpuSlow { quota } => 1.0 - quota,
            FaultKind::CpuContention { share, on, off } => {
                let duty = on.as_secs_f64() / (on.as_secs_f64() + off.as_secs_f64()).max(1e-12);
                (1.0 - share) * duty
            }
            FaultKind::DiskSlow { bw_factor } => 1.0 - bw_factor,
            // A saturating writer on the shared queue: nominal full
            // pressure (actual starvation depends on queue depth).
            FaultKind::DiskContention { .. } => 1.0,
            // Pressure depends on the victim's live usage vs the limit;
            // nominal (the Table 1 setting squeezes to just above usage).
            FaultKind::MemContention { .. } => 0.75,
            FaultKind::NetSlow { delay } => (delay.as_secs_f64() / 0.4).min(1.0),
            // One link fully severed: complete loss on that path.
            FaultKind::PartialPartition { .. } => 1.0,
        }
    }
}

/// Ground truth of one injected fault, with virtual-clock timestamps.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRecord {
    /// The afflicted node.
    pub node: NodeId,
    /// The injected fault's name ([`FaultKind::name`]).
    pub kind: &'static str,
    /// When the fault took effect.
    pub onset: SimTime,
    /// When the fault was cleared; `None` while it is still active (a
    /// window without a duration never clears).
    pub cleared: Option<SimTime>,
    /// Injected intensity ([`FaultKind::severity`]).
    pub severity: f64,
}

/// Per-run journal of injected faults (cheap to clone; all clones share
/// the same records). This is the ground-truth half of the incident
/// timeline: reacting layers report [`depfast::HealthEvent`]s, and the
/// scorecard joins the two.
///
/// The ledger also decides which window owns a node's resource knob. A
/// run arms all its windows into one ledger, and the latest window armed
/// on a knob owns it: an older window's clear, or its contender loop,
/// leaves the knob alone. A flapping schedule that re-arms a fault at the
/// instant the older window clears thus gets adjacent, non-overlapping
/// records and keeps the new fault active, whichever call runs first.
#[derive(Clone, Default)]
pub struct FaultLedger {
    records: Rc<RefCell<Vec<FaultRecord>>>,
    /// Owner epoch per knob ([`knob`]); the latest claim holds it.
    owners: Rc<RefCell<HashMap<[u32; 3], u64>>>,
}

impl FaultLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a record at fault onset, returning its slot for `close`.
    fn open(&self, node: NodeId, kind: FaultKind, onset: SimTime) -> usize {
        let mut records = self.records.borrow_mut();
        records.push(FaultRecord {
            node,
            kind: kind.name(),
            onset,
            cleared: None,
            severity: kind.severity(),
        });
        records.len() - 1
    }

    /// Stamps a record's clear time (idempotent: first clear wins).
    fn close(&self, slot: usize, at: SimTime) {
        if let Some(r) = self.records.borrow_mut().get_mut(slot) {
            if r.cleared.is_none() {
                r.cleared = Some(at);
            }
        }
    }

    /// Makes a new window the owner of its knob, returning the epoch that
    /// names it.
    fn claim(&self, node: NodeId, kind: FaultKind) -> u64 {
        let mut owners = self.owners.borrow_mut();
        let epoch = owners.entry(knob(node, kind)).or_insert(0);
        *epoch += 1;
        *epoch
    }

    /// `true` while no later window has claimed the knob `epoch` owns.
    fn owns(&self, node: NodeId, kind: FaultKind, epoch: u64) -> bool {
        self.owners.borrow().get(&knob(node, kind)) == Some(&epoch)
    }

    /// Test probe: records an onset that happened outside the injection
    /// API (hand-built ground truth). Returns the record's slot for
    /// `log_clear`.
    #[doc(hidden)]
    pub fn log_onset(&self, node: NodeId, kind: FaultKind, onset: SimTime) -> usize {
        self.open(node, kind, onset)
    }

    /// Test probe: stamps the clear time of a record opened with
    /// `log_onset` (idempotent).
    #[doc(hidden)]
    pub fn log_clear(&self, slot: usize, at: SimTime) {
        self.close(slot, at);
    }

    /// Snapshot of all records (open faults have `cleared: None`).
    pub fn records(&self) -> Vec<FaultRecord> {
        self.records.borrow().clone()
    }
}

/// The world knob a fault kind turns. Two windows of one class on one
/// node contend for one knob; partial partitions are per link, so the
/// peer is part of the key.
fn knob(node: NodeId, kind: FaultKind) -> [u32; 3] {
    let (class, param) = match kind {
        FaultKind::CpuSlow { .. } => (0, 0),
        FaultKind::CpuContention { .. } => (1, 0),
        FaultKind::DiskSlow { .. } => (2, 0),
        FaultKind::DiskContention { .. } => (3, 0),
        FaultKind::MemContention { .. } => (4, 0),
        FaultKind::NetSlow { .. } => (5, 0),
        FaultKind::PartialPartition { peer } => (6, peer),
    };
    [node.0, class, param]
}

/// Schedules `kind` on `node` at virtual offset `at`, cleared after
/// `duration` if one is given.
pub fn inject_at(
    sim: &Sim,
    world: &World,
    node: NodeId,
    kind: FaultKind,
    at: Duration,
    duration: Option<Duration>,
) {
    inject_at_logged(sim, world, node, kind, at, duration, &FaultLedger::new())
}

/// Like [`inject_at`], journaling the window into `ledger`, which also
/// owns the knobs the window turns (see [`FaultLedger`]). The record is
/// opened at onset and, when `duration` is given, stamped with the exact
/// clear time.
pub fn inject_at_logged(
    sim: &Sim,
    world: &World,
    node: NodeId,
    kind: FaultKind,
    at: Duration,
    duration: Option<Duration>,
    ledger: &FaultLedger,
) {
    let (sim2, world, ledger) = (sim.clone(), world.clone(), ledger.clone());
    let onset = sim.now() + at;
    sim.schedule_call(onset, move || {
        let clear = arm(&sim2, &world, node, kind, &ledger);
        if let Some(d) = duration {
            sim2.schedule_call(onset + d, clear);
        }
    });
}

/// Applies `kind` to `node` now and opens its record, returning the
/// closure that clears the window: it stops the window's contender and
/// resets the knob if the window still owns it.
fn arm(
    sim: &Sim,
    world: &World,
    node: NodeId,
    kind: FaultKind,
    ledger: &FaultLedger,
) -> impl FnOnce() + 'static {
    let stop = Rc::new(Cell::new(false));
    let epoch = ledger.claim(node, kind);
    match kind {
        FaultKind::CpuSlow { quota } => world.set_cpu_quota(node, quota),
        FaultKind::CpuContention { share, on, off } => {
            let (w, s, l, stop) = (world.clone(), sim.clone(), ledger.clone(), stop.clone());
            sim.spawn(async move {
                // The contending program: bursts of activity that squeeze
                // the victim's share, with gaps in between. Every touch of
                // the contention knob is ownership-checked: once a newer
                // window re-arms the node, this loop exits without
                // resetting state it no longer owns.
                loop {
                    if stop.get() || w.is_crashed(node) {
                        if l.owns(node, kind, epoch) {
                            w.set_cpu_contention(node, None);
                        }
                        break;
                    }
                    if !l.owns(node, kind, epoch) {
                        break;
                    }
                    w.set_cpu_contention(node, Some(share));
                    s.sleep(on).await;
                    if l.owns(node, kind, epoch) {
                        w.set_cpu_contention(node, None);
                    }
                    s.sleep(off).await;
                }
            });
        }
        FaultKind::DiskSlow { bw_factor } => world.set_disk_bw_factor(node, bw_factor),
        FaultKind::DiskContention {
            write_bytes,
            period,
        } => {
            let (w, s, l, stop) = (world.clone(), sim.clone(), ledger.clone(), stop.clone());
            sim.spawn(async move {
                // The contending program: a heavy writer submitting bursts
                // on a fixed schedule, regardless of completion — it can
                // oversubscribe the shared disk queue, exactly how a
                // misbehaving neighbour starves foreground fsyncs. The
                // ownership check stops a stale writer the moment a newer
                // window takes over the node's disk queue.
                loop {
                    if stop.get() || w.is_crashed(node) || !l.owns(node, kind, epoch) {
                        break;
                    }
                    let w2 = w.clone();
                    s.spawn(async move {
                        let _ = w2.disk(node, DiskOp::Fsync { bytes: write_bytes }).await;
                    });
                    s.sleep(period).await;
                }
            });
        }
        FaultKind::MemContention { limit } => world.set_mem_limit(node, limit),
        FaultKind::NetSlow { delay } => world.set_egress_delay(node, delay),
        FaultKind::PartialPartition { peer } => world.partition(node, NodeId(peer)),
    }
    let slot = ledger.open(node, kind, sim.now());
    let (sim, world, ledger) = (sim.clone(), world.clone(), ledger.clone());
    move || {
        stop.set(true);
        if ledger.owns(node, kind, epoch) {
            match kind {
                FaultKind::CpuSlow { .. } => world.set_cpu_quota(node, 1.0),
                FaultKind::CpuContention { .. } => world.set_cpu_contention(node, None),
                FaultKind::DiskSlow { .. } => world.set_disk_bw_factor(node, 1.0),
                FaultKind::DiskContention { .. } => {}
                FaultKind::MemContention { .. } => world.reset_mem_limit(node),
                FaultKind::NetSlow { .. } => world.set_egress_delay(node, Duration::ZERO),
                FaultKind::PartialPartition { peer } => world.heal(node, NodeId(peer)),
            }
        }
        ledger.close(slot, sim.now());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::WorldCfg;

    fn setup() -> (Sim, World) {
        let sim = Sim::new(1);
        let world = World::new(sim.clone(), WorldCfg::default());
        (sim, world)
    }

    /// Arms a window on `node` starting now and runs to its onset, so the
    /// fault is in force when the caller looks.
    fn arm_now(sim: &Sim, w: &World, node: NodeId, kind: FaultKind, duration: Option<Duration>) {
        inject_at(sim, w, node, kind, Duration::ZERO, duration);
        sim.run_until_time(sim.now());
    }

    #[test]
    fn cpu_slow_inflates_service_time_and_reverts() {
        let (sim, w) = setup();
        let kind = FaultKind::CpuSlow { quota: 0.05 };
        arm_now(&sim, &w, NodeId(0), kind, Some(Duration::from_millis(10)));
        assert!((w.cpu_rate(NodeId(0)) - 0.05).abs() < 1e-12);
        sim.run_until_time(SimTime::from_millis(10));
        assert!((w.cpu_rate(NodeId(0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn a_window_without_duration_stays_active() {
        let (sim, w) = setup();
        let kind = FaultKind::CpuSlow { quota: 0.05 };
        arm_now(&sim, &w, NodeId(0), kind, None);
        sim.run_until_time(SimTime::from_secs(1));
        assert!((w.cpu_rate(NodeId(0)) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn cpu_contention_toggles_share() {
        let (sim, w) = setup();
        let kind = FaultKind::CpuContention {
            share: 1.0 / 17.0,
            on: Duration::from_millis(10),
            off: Duration::from_millis(10),
        };
        arm_now(&sim, &w, NodeId(1), kind, None);
        sim.run_until_time(SimTime::from_millis(5));
        assert!(w.cpu_rate(NodeId(1)) < 0.1, "contender active");
        sim.run_until_time(SimTime::from_millis(15));
        assert!((w.cpu_rate(NodeId(1)) - 1.0).abs() < 1e-12, "gap");
    }

    #[test]
    fn disk_contention_delays_foreground_io() {
        let (sim, w) = setup();
        // Measure a foreground fsync with and without the contender.
        let w2 = w.clone();
        let t_healthy = {
            let s2 = sim.clone();
            sim.block_on(async move {
                let t0 = s2.now();
                w2.disk(NodeId(0), DiskOp::Fsync { bytes: 4096 })
                    .await
                    .unwrap();
                s2.now() - t0
            })
        };
        let kind = FaultKind::DiskContention {
            write_bytes: 8 * 1024 * 1024,
            period: Duration::from_millis(1),
        };
        arm_now(&sim, &w, NodeId(0), kind, None);
        sim.run_until_time(sim.now() + Duration::from_millis(50));
        let w3 = w.clone();
        let s3 = sim.clone();
        let t_contended = sim.block_on(async move {
            let t0 = s3.now();
            w3.disk(NodeId(0), DiskOp::Fsync { bytes: 4096 })
                .await
                .unwrap();
            s3.now() - t0
        });
        assert!(
            t_contended > t_healthy * 3,
            "contended {t_contended:?} vs healthy {t_healthy:?}"
        );
    }

    #[test]
    fn mem_contention_induces_swap_slowdown() {
        let (sim, w) = setup();
        let used = w.mem_used(NodeId(2));
        let kind = FaultKind::MemContention {
            limit: (used as f64 * 1.05) as u64,
        };
        arm_now(&sim, &w, NodeId(2), kind, None);
        assert!(w.mem_slowdown(NodeId(2)) > 1.0);
    }

    #[test]
    fn net_slow_delays_egress_only() {
        let (sim, w) = setup();
        let kind = FaultKind::NetSlow {
            delay: Duration::from_millis(400),
        };
        arm_now(&sim, &w, NodeId(1), kind, None);
        let stamps: Rc<RefCell<Vec<SimTime>>> = Rc::default();
        let st = stamps.clone();
        let s2 = sim.clone();
        w.register_handler(NodeId(0), move |_| st.borrow_mut().push(s2.now()));
        w.send(NodeId(1), NodeId(0), bytes::Bytes::from_static(b"x"));
        sim.run();
        assert!(stamps.borrow()[0] >= SimTime::from_millis(400));
    }

    #[test]
    fn inject_at_applies_and_reverts_on_schedule() {
        let (sim, w) = setup();
        inject_at(
            &sim,
            &w,
            NodeId(0),
            FaultKind::CpuSlow { quota: 0.05 },
            Duration::from_millis(100),
            Some(Duration::from_millis(100)),
        );
        sim.run_until_time(SimTime::from_millis(50));
        assert!((w.cpu_rate(NodeId(0)) - 1.0).abs() < 1e-12);
        sim.run_until_time(SimTime::from_millis(150));
        assert!((w.cpu_rate(NodeId(0)) - 0.05).abs() < 1e-12);
        sim.run_until_time(SimTime::from_millis(250));
        assert!((w.cpu_rate(NodeId(0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn table1_has_six_faults_with_names() {
        let faults = FaultKind::table1(1 << 30);
        assert_eq!(faults.len(), 6);
        let names: Vec<&str> = faults.iter().map(|f| f.name()).collect();
        assert!(names.contains(&"CPU Slowness"));
        assert!(names.contains(&"Network Slowness"));
        for f in &faults {
            let s = f.severity();
            assert!(s > 0.0 && s <= 1.0, "{}: severity {s}", f.name());
        }
    }

    #[test]
    fn ledger_records_exact_onset_and_clear_times() {
        let (sim, w) = setup();
        let ledger = FaultLedger::new();
        sim.run_until_time(SimTime::from_millis(10));
        inject_at_logged(
            &sim,
            &w,
            NodeId(1),
            FaultKind::CpuSlow { quota: 0.05 },
            Duration::ZERO,
            Some(Duration::from_millis(25)),
            &ledger,
        );
        sim.run_until_time(sim.now());
        assert_eq!(ledger.records().len(), 1);
        let open = &ledger.records()[0];
        assert_eq!(open.node, NodeId(1));
        assert_eq!(open.kind, "CPU Slowness");
        assert_eq!(open.onset, SimTime::from_millis(10));
        assert_eq!(open.cleared, None);
        assert!((open.severity - 0.95).abs() < 1e-12);
        sim.run_until_time(SimTime::from_millis(35));
        let rec = &ledger.records()[0];
        assert_eq!(rec.cleared, Some(SimTime::from_millis(35)));
        assert_eq!(
            rec.cleared.map(|c| c - rec.onset),
            Some(Duration::from_millis(25))
        );
    }

    #[test]
    fn inject_at_logged_opens_the_record_at_the_scheduled_onset() {
        let (sim, w) = setup();
        let ledger = FaultLedger::new();
        inject_at_logged(
            &sim,
            &w,
            NodeId(2),
            FaultKind::DiskSlow { bw_factor: 0.008 },
            Duration::from_millis(100),
            Some(Duration::from_millis(50)),
            &ledger,
        );
        // Nothing recorded until the injection actually runs.
        assert!(ledger.records().is_empty());
        sim.run_until_time(SimTime::from_millis(120));
        let rec = &ledger.records()[0];
        assert_eq!(rec.onset, SimTime::from_millis(100));
        assert_eq!(rec.cleared, None, "still active");
        sim.run_until_time(SimTime::from_millis(200));
        let rec = &ledger.records()[0];
        assert_eq!(rec.cleared, Some(SimTime::from_millis(150)));
        assert_eq!(
            rec.cleared.map(|c| c - rec.onset),
            Some(Duration::from_millis(50))
        );
    }

    #[test]
    fn flapping_reinjection_keeps_fault_active_with_disjoint_intervals() {
        // Two adjacent windows scheduled upfront, exactly how a flapping
        // schedule arms: window 2's injection fires at the same instant as
        // window 1's revert, and (same-time timers run in scheduling
        // order) *before* it. The stale revert must not stomp the newly
        // armed fault, and the ledger must show adjacent, non-overlapping
        // intervals.
        let (sim, w) = setup();
        let ledger = FaultLedger::new();
        let kind = FaultKind::CpuSlow { quota: 0.05 };
        for at_ms in [100, 200] {
            inject_at_logged(
                &sim,
                &w,
                NodeId(0),
                kind,
                Duration::from_millis(at_ms),
                Some(Duration::from_millis(100)),
                &ledger,
            );
        }
        sim.run_until_time(SimTime::from_millis(250));
        assert!(
            (w.cpu_rate(NodeId(0)) - 0.05).abs() < 1e-12,
            "window 2 must stay active across the re-arm boundary; rate {}",
            w.cpu_rate(NodeId(0))
        );
        sim.run_until_time(SimTime::from_millis(350));
        assert!((w.cpu_rate(NodeId(0)) - 1.0).abs() < 1e-12, "window 2 over");
        let recs = ledger.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].onset, SimTime::from_millis(100));
        assert_eq!(recs[0].cleared, Some(SimTime::from_millis(200)));
        assert_eq!(recs[1].onset, SimTime::from_millis(200));
        assert_eq!(recs[1].cleared, Some(SimTime::from_millis(300)));
        // Interval disjointness: each record clears no later than the next
        // one starts (half-open [onset, cleared) intervals back to back).
        for pair in recs.windows(2) {
            assert!(
                pair[0].cleared.expect("closed") <= pair[1].onset,
                "overlapping ledger intervals: {pair:?}"
            );
        }
    }

    #[test]
    fn a_ramp_hands_the_knob_to_the_latest_window() {
        // Two adjacent NetSlow windows on node 1, 100 ms then 200 ms. At
        // 200 ms the second onset runs before the first window's clear,
        // which no longer owns the egress delay: the 200 ms step holds.
        let (sim, w) = setup();
        let ledger = FaultLedger::new();
        let ms = Duration::from_millis;
        for (at, delay) in [(100, 100), (200, 200)] {
            let kind = FaultKind::NetSlow { delay: ms(delay) };
            inject_at_logged(&sim, &w, NodeId(1), kind, ms(at), Some(ms(100)), &ledger);
        }
        // One probe per step, told apart by its length. Probes 1 and 3
        // share a link, so probe 3 is sent after probe 1 arrives; probe 2
        // takes the other link, where nothing it would queue behind is
        // in flight.
        let arrivals: Rc<RefCell<HashMap<usize, SimTime>>> = Rc::default();
        for dst in [0, 2] {
            let (a, s) = (arrivals.clone(), sim.clone());
            w.register_handler(NodeId(dst), move |m| {
                a.borrow_mut().insert(m.payload.len(), s.now());
            });
        }
        let mut one_way = Vec::new();
        for (len, dst, at) in [(1, 0, 150), (2, 2, 250), (3, 0, 300)] {
            let at = SimTime::from_millis(at);
            sim.run_until_time(at);
            w.send(NodeId(1), NodeId(dst), bytes::Bytes::from(vec![0; len]));
            one_way.push((len, at));
        }
        sim.run();
        let one_way: Vec<Duration> = one_way
            .into_iter()
            .map(|(len, at)| arrivals.borrow()[&len] - at)
            .collect();
        assert!(one_way[0] >= ms(100) && one_way[0] < ms(150), "{one_way:?}");
        assert!(
            one_way[1] >= ms(200) && one_way[1] < ms(250),
            "the latest window owns the delay at the boundary: {one_way:?}"
        );
        assert!(one_way[2] < ms(50), "the last clear resets it: {one_way:?}");
    }

    #[test]
    fn stale_contention_loop_does_not_stomp_a_reinjection() {
        let (sim, w) = setup();
        let ledger = FaultLedger::new();
        let kind = FaultKind::CpuContention {
            share: 1.0 / 17.0,
            on: Duration::from_millis(10),
            off: Duration::from_millis(10),
        };
        let window = |duration| {
            inject_at_logged(&sim, &w, NodeId(0), kind, Duration::ZERO, duration, &ledger);
            sim.run_until_time(sim.now());
        };
        window(Some(Duration::from_millis(5)));
        sim.run_until_time(SimTime::from_millis(4));
        assert!(w.cpu_rate(NodeId(0)) < 0.1, "first burst active");
        // Clear at 5 ms and re-arm at once: window 1's background loop is
        // still asleep mid-burst and wakes at 10 ms, inside window 2's
        // first burst.
        sim.run_until_time(SimTime::from_millis(5));
        window(None);
        sim.run_until_time(SimTime::from_millis(12));
        assert!(
            w.cpu_rate(NodeId(0)) < 0.1,
            "window 2's burst survives window 1's stale loop tick; rate {}",
            w.cpu_rate(NodeId(0))
        );
    }

    #[test]
    fn partial_partition_drops_the_link_and_heals_on_clear() {
        let (sim, w) = setup();
        let hits: Rc<RefCell<Vec<u32>>> = Rc::default();
        for target in [1u32, 2] {
            let h = hits.clone();
            w.register_handler(NodeId(target), move |_| h.borrow_mut().push(target));
        }
        let kind = FaultKind::PartialPartition { peer: 1 };
        arm_now(&sim, &w, NodeId(0), kind, Some(Duration::from_millis(100)));
        w.send(NodeId(0), NodeId(1), bytes::Bytes::from_static(b"x"));
        w.send(NodeId(0), NodeId(2), bytes::Bytes::from_static(b"y"));
        sim.run_until_time(SimTime::from_millis(50));
        assert_eq!(*hits.borrow(), vec![2], "0↔1 severed, 0↔2 alive");
        sim.run_until_time(SimTime::from_millis(100));
        w.send(NodeId(0), NodeId(1), bytes::Bytes::from_static(b"z"));
        sim.run();
        assert_eq!(*hits.borrow(), vec![2, 1], "link heals on clear");
    }

    #[test]
    fn permanent_scheduled_fault_stays_open_in_the_ledger() {
        let (sim, w) = setup();
        let ledger = FaultLedger::new();
        inject_at_logged(
            &sim,
            &w,
            NodeId(1),
            FaultKind::NetSlow {
                delay: Duration::from_millis(400),
            },
            Duration::from_millis(10),
            None,
            &ledger,
        );
        sim.run_until_time(SimTime::from_millis(500));
        let rec = &ledger.records()[0];
        assert_eq!(rec.cleared, None);
        assert!(w.cpu_rate(NodeId(1)) > 0.0); // sim alive; fault persists
    }
}
