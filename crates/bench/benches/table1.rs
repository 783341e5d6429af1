//! **Table 1** — the simulated fail-slow faults and their injection
//! methods, demonstrated on the raw substrate.
//!
//! The paper's Table 1 is a specification (fault type → injection method).
//! This bench reproduces it as *measurement*: for each fault it reports
//! the direct effect on the afflicted resource — CPU service time, disk
//! fsync latency, memory slowdown multiplier, or one-way message delay —
//! next to the healthy value, so the calibration behind Figures 1 and 3
//! is auditable.

use std::rc::Rc;
use std::time::Duration;

use depfast_bench::Table;
use depfast_fault::{inject_at, FaultKind};
use simkit::disk::DiskOp;
use simkit::{NodeId, Sim, World, WorldCfg};

const NODE: NodeId = NodeId(0);

fn measure_cpu(sim: &Sim, world: &World) -> Duration {
    let w = world.clone();
    let s = sim.clone();
    sim.block_on(async move {
        let t0 = s.now();
        // 100 sequential 1 ms work items on one core.
        for _ in 0..100 {
            w.cpu(NODE, Duration::from_millis(1)).await.unwrap();
        }
        (s.now() - t0) / 100
    })
}

fn measure_fsync(sim: &Sim, world: &World) -> Duration {
    let w = world.clone();
    let s = sim.clone();
    sim.block_on(async move {
        let t0 = s.now();
        for _ in 0..50 {
            w.disk(NODE, DiskOp::Fsync { bytes: 64 * 1024 })
                .await
                .unwrap();
        }
        (s.now() - t0) / 50
    })
}

fn measure_delay(sim: &Sim, world: &World) -> Duration {
    // One-way delivery latency NODE -> n1 of a queue-free message.
    let stamps: Rc<std::cell::RefCell<Vec<Duration>>> = Rc::default();
    let st = stamps.clone();
    let s2 = sim.clone();
    let t_base = sim.now();
    world.register_handler(NodeId(1), move |_| {
        st.borrow_mut().push(s2.now() - t_base);
    });
    world.send(NODE, NodeId(1), bytes::Bytes::from_static(b"ping"));
    sim.run_until_time(sim.now() + Duration::from_secs(2));
    let v = stamps.borrow();
    v.first().copied().unwrap_or(Duration::ZERO)
}

fn main() {
    let mut table = Table::new(
        "Table 1: simulated fail-slow faults and their substrate-level effect",
        &[
            "Fail-slow type",
            "Injection (paper -> simulator)",
            "Metric",
            "Healthy",
            "Faulty",
            "Inflation",
        ],
    );

    let mem_limit = (2.3 * 1024.0 * 1024.0 * 1024.0) as u64;
    for kind in FaultKind::table1(mem_limit) {
        let sim = Sim::new(1);
        let world = World::new(sim.clone(), WorldCfg::default());
        let (metric, healthy) = match kind {
            FaultKind::CpuSlow { .. } | FaultKind::CpuContention { .. } => {
                ("1ms CPU work", measure_cpu(&sim, &world))
            }
            FaultKind::DiskSlow { .. } | FaultKind::DiskContention { .. } => {
                ("64KiB fsync", measure_fsync(&sim, &world))
            }
            FaultKind::MemContention { .. } => ("1ms CPU work", measure_cpu(&sim, &world)),
            FaultKind::NetSlow { .. } => ("one-way msg", measure_delay(&sim, &world)),
            // Not a Table 1 row; only the scenario matrix injects it.
            FaultKind::PartialPartition { .. } => unreachable!("not a Table 1 fault"),
        };
        let injection = match kind {
            FaultKind::CpuSlow { quota } => format!("cgroup 5% quota -> rate x{quota}"),
            FaultKind::CpuContention { share, .. } => {
                format!("16x-share contender -> bursty share {share:.3}")
            }
            FaultKind::DiskSlow { bw_factor } => {
                format!("cgroup blkio limit -> bandwidth x{bw_factor}")
            }
            FaultKind::DiskContention { write_bytes, .. } => {
                format!("contending writer -> {write_bytes}B bursts on shared queue")
            }
            FaultKind::MemContention { limit } => {
                format!("cgroup memory max -> limit {}MiB", limit / (1024 * 1024))
            }
            FaultKind::NetSlow { delay } => format!("tc netem -> +{}ms egress", delay.as_millis()),
            FaultKind::PartialPartition { .. } => unreachable!("not a Table 1 fault"),
        };
        // A window for the rest of the row, in force before it measures.
        inject_at(&sim, &world, NODE, kind, Duration::ZERO, None);
        sim.run_until_time(sim.now());
        if matches!(kind, FaultKind::MemContention { .. }) {
            // Memory pressure only bites once usage is near the limit.
            world
                .mem_alloc(NODE, 300 * 1024 * 1024)
                .expect("allocation fits");
        }
        // Let contender tasks spin up.
        sim.run_until_time(sim.now() + Duration::from_millis(20));
        let faulty = match kind {
            FaultKind::CpuSlow { .. }
            | FaultKind::CpuContention { .. }
            | FaultKind::MemContention { .. } => measure_cpu(&sim, &world),
            FaultKind::DiskSlow { .. } | FaultKind::DiskContention { .. } => {
                measure_fsync(&sim, &world)
            }
            FaultKind::NetSlow { .. } => measure_delay(&sim, &world),
            FaultKind::PartialPartition { .. } => unreachable!("not a Table 1 fault"),
        };
        let inflation = faulty.as_secs_f64() / healthy.as_secs_f64().max(1e-12);
        table.row(vec![
            kind.name().to_string(),
            injection,
            metric.to_string(),
            format!("{:.3} ms", healthy.as_secs_f64() * 1e3),
            format!("{:.3} ms", faulty.as_secs_f64() * 1e3),
            format!("{inflation:.1}x"),
        ]);
    }
    table.print();
    if let Ok(p) = table.write_csv("table1") {
        println!("[csv] {}", p.display());
    }
}
