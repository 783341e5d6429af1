//! Simulator throughput profiler: runs the calibrated DepFastRaft
//! workload at several client counts and reports virtual throughput, wall
//! time and executor counters. Used to keep the simulation fast enough
//! for the figure benches (see DESIGN.md).
//!
//! ```sh
//! cargo run --release -p depfast-bench --bin profile_sim
//! ```
use depfast_bench::Run;
use std::time::{Duration, Instant};

fn main() {
    for clients in [128usize, 192, 256] {
        let wall = Instant::now();
        let run = Run {
            n_clients: clients,
            seed: 1,
            warmup: Duration::from_millis(500),
            measure: Duration::from_secs(2),
            records: 50_000,
            ..Run::default()
        }
        .execute();
        let (stats, sim, world) = (&run.stats, &run.sim, &run.world);
        println!("clients={clients} tput={:.0}/s p99={:?} wall={:?} tasks={} netmsgs={} timers={} polls={}",
            stats.throughput, stats.latency.p99, wall.elapsed(), sim.tasks_spawned(), world.net_messages(), sim.timers_scheduled(), sim.polls());
        println!(
            "  leader cpu util ~{:.0}%",
            world.cpu_utilization(simkit::NodeId(0), sim.now() - simkit::SimTime::ZERO) * 100.0
        );
    }
}
