//! Property-based tests on the resource models' invariants and on the
//! executor's timer queue.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use simkit::cpu::{CpuCfg, CpuModel};
use simkit::disk::{DiskCfg, DiskModel, DiskOp};
use simkit::memory::{MemCfg, MemoryModel};
use simkit::net::{NetCfg, NetModel};
use simkit::{NodeId, Sim, SimTime};
use std::sync::{Arc, Mutex};
use std::task::{Wake, Waker};
use std::time::Duration;

/// A waker that logs its timer's number when woken.
struct LogWake(usize, Arc<Mutex<Vec<usize>>>);

impl Wake for LogWake {
    fn wake(self: Arc<Self>) {
        self.1.lock().unwrap().push(self.0);
    }
}

proptest! {
    /// CPU completions never precede submission, and total busy time
    /// equals the sum of effective service times.
    #[test]
    fn cpu_completions_causal(
        cores in 1usize..8,
        jobs in prop::collection::vec((0u64..10_000, 0u64..5_000), 1..40),
    ) {
        let mut cpu = CpuModel::new(CpuCfg { cores });
        let mut now = SimTime::ZERO;
        for (gap, work) in jobs {
            now += Duration::from_micros(gap);
            let fin = cpu.schedule(now, Duration::from_micros(work), 1.0);
            prop_assert!(fin >= now);
            prop_assert!(fin >= now + Duration::from_micros(work));
        }
    }

    /// With one core, jobs finish in submission order (FIFO).
    #[test]
    fn single_core_is_fifo(
        jobs in prop::collection::vec(1u64..5_000, 2..30),
    ) {
        let mut cpu = CpuModel::new(CpuCfg { cores: 1 });
        let mut last = SimTime::ZERO;
        for work in jobs {
            let fin = cpu.schedule(SimTime::ZERO, Duration::from_micros(work), 1.0);
            prop_assert!(fin >= last);
            last = fin;
        }
    }

    /// More cores never make any individual job finish later.
    #[test]
    fn more_cores_never_hurt(
        jobs in prop::collection::vec(1u64..5_000, 1..30),
    ) {
        let run = |cores: usize| -> Vec<SimTime> {
            let mut cpu = CpuModel::new(CpuCfg { cores });
            jobs.iter()
                .map(|w| cpu.schedule(SimTime::ZERO, Duration::from_micros(*w), 1.0))
                .collect()
        };
        let narrow = run(2);
        let wide = run(4);
        for (n, w) in narrow.iter().zip(&wide) {
            prop_assert!(w <= n, "wider machine slower: {w:?} > {n:?}");
        }
    }

    /// Disk queue is strictly FIFO and completions are causal.
    #[test]
    fn disk_fifo_and_causal(
        ops in prop::collection::vec((0u64..3, 1u64..1_000_000), 1..40),
    ) {
        let mut disk = DiskModel::new(DiskCfg::default());
        let mut last = SimTime::ZERO;
        for (kind, bytes) in ops {
            let op = match kind {
                0 => DiskOp::Write { bytes },
                1 => DiskOp::Fsync { bytes },
                _ => DiskOp::Read { bytes },
            };
            let fin = disk.schedule(SimTime::ZERO, op, 1.0);
            prop_assert!(fin >= last, "queue must be FIFO");
            last = fin;
        }
    }

    /// Memory accounting never goes negative and never exceeds the limit.
    #[test]
    fn memory_accounting_bounded(
        ops in prop::collection::vec((any::<bool>(), 1u64..1_000), 1..100),
    ) {
        let mut mem = MemoryModel::new(MemCfg {
            limit: 10_000,
            baseline: 1_000,
            swap_threshold: 0.8,
            swap_max_slowdown: 5.0,
        });
        for (is_alloc, bytes) in ops {
            if is_alloc {
                let _ = mem.alloc(bytes);
            } else {
                mem.free(bytes);
            }
            prop_assert!(mem.used() <= 10_000);
            prop_assert!(mem.slowdown() >= 1.0);
            prop_assert!(mem.slowdown() <= 5.0);
            prop_assert!(mem.peak() >= mem.used());
        }
    }

    /// Per-link network delivery preserves FIFO order for any message mix.
    #[test]
    fn net_fifo_per_link(
        msgs in prop::collection::vec((0u64..1_000, 0u64..100_000), 1..50),
        seed in any::<u64>(),
    ) {
        let mut net = NetModel::new(NetCfg::default());
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut now = SimTime::ZERO;
        let mut last_delivery = SimTime::ZERO;
        for (gap, bytes) in msgs {
            now += Duration::from_micros(gap);
            let d = net
                .delivery_time(now, NodeId(0), NodeId(1), bytes, &mut rng)
                .expect("no partition");
            prop_assert!(d >= now, "delivery before send");
            prop_assert!(d >= last_delivery, "FIFO violated");
            last_delivery = d;
        }
    }

    /// Partitions drop everything; healing restores everything.
    #[test]
    fn partitions_are_symmetric(a in 0u32..4, b in 0u32..4, seed in any::<u64>()) {
        prop_assume!(a != b);
        let mut net = NetModel::new(NetCfg::default());
        let mut rng = SmallRng::seed_from_u64(seed);
        net.partition(NodeId(a), NodeId(b));
        prop_assert!(net
            .delivery_time(SimTime::ZERO, NodeId(a), NodeId(b), 0, &mut rng)
            .is_none());
        prop_assert!(net
            .delivery_time(SimTime::ZERO, NodeId(b), NodeId(a), 0, &mut rng)
            .is_none());
        net.heal(NodeId(a), NodeId(b));
        prop_assert!(net
            .delivery_time(SimTime::ZERO, NodeId(a), NodeId(b), 0, &mut rng)
            .is_some());
    }

    /// The determinism contract of the executor: whatever is scheduled,
    /// cancelled and run in between, the timers that survive fire in
    /// exactly `(deadline, schedule order)`, and nothing else fires. The
    /// reference model is a `Vec` sorted when time advances. Deadlines
    /// are whole milliseconds a few apart, so that many of them tie.
    #[test]
    fn surviving_timers_fire_in_deadline_then_schedule_order(
        ops in prop::collection::vec((0u8..4, 0u64..6), 1..200),
    ) {
        let sim = Sim::new(0);
        let fired = Arc::new(Mutex::new(Vec::new()));
        // Model: the live timers as (deadline, schedule order = number).
        let mut live: Vec<(SimTime, usize)> = Vec::new();
        let mut expected = Vec::new();
        let mut cancellable = Vec::new();
        let mut scheduled = 0;
        for (kind, arg) in ops {
            let at = sim.now() + Duration::from_millis(arg);
            match kind {
                0 => {
                    let waker = Waker::from(Arc::new(LogWake(scheduled, fired.clone())));
                    cancellable.push((sim.schedule_wake(at, waker), at, scheduled));
                    live.push((at, scheduled));
                    scheduled += 1;
                }
                1 => {
                    let (log, number) = (fired.clone(), scheduled);
                    sim.schedule_call(at, move || log.lock().unwrap().push(number));
                    live.push((at, scheduled));
                    scheduled += 1;
                }
                2 if !cancellable.is_empty() => {
                    // May name a timer that already fired or was cancelled.
                    let (id, at, number) = cancellable[arg as usize % cancellable.len()];
                    sim.cancel_timer(id);
                    live.retain(|t| *t != (at, number));
                }
                _ => {
                    sim.run_until_time(at);
                    live.sort();
                    let due = live.partition_point(|(t, _)| *t <= at);
                    expected.extend(live.drain(..due).map(|(_, number)| number));
                }
            }
            prop_assert_eq!(sim.pending_timers(), live.len());
            prop_assert_eq!(&*fired.lock().unwrap(), &expected);
        }
        sim.run();
        live.sort();
        expected.extend(live.into_iter().map(|(_, number)| number));
        prop_assert_eq!(&*fired.lock().unwrap(), &expected);
        prop_assert_eq!(sim.timers_scheduled(), scheduled as u64);
    }
}
