//! The paper's headline experiment, miniaturized: inject a fail-slow
//! follower and compare DepFastRaft against the three legacy-style
//! implementations.
//!
//! ```sh
//! cargo run --release --example fail_slow_follower
//! ```

use std::time::Duration;

use depfast_bench::Run;
use depfast_fault::FaultKind;
use depfast_raft::cluster::RaftKind;

fn main() {
    let fault = FaultKind::CpuSlow { quota: 0.05 };
    println!(
        "Injecting {:?} into one follower of each 3-node cluster...\n",
        fault.name()
    );
    println!(
        "{:<32} {:>14} {:>14} {:>9} {:>10} {:>10}",
        "System", "healthy req/s", "faulty req/s", "tput", "avg lat", "p99 lat"
    );
    for kind in [
        RaftKind::DepFast,
        RaftKind::Sync,
        RaftKind::Backlog,
        RaftKind::Callback,
    ] {
        let cfg = Run {
            kind,
            n_clients: 128,
            warmup: Duration::from_secs(1),
            measure: Duration::from_secs(4),
            records: 100_000,
            ..Run::default()
        };
        let healthy = cfg.execute().stats;
        // One slow follower (node 1), from mid-warm-up to the end.
        let at = cfg.warmup / 2;
        let faulty = cfg.with_fault([1], fault, at, None).execute().stats;
        if faulty.server_crashed {
            println!(
                "{:<32} {:>14.0} {:>14} {:>9} {:>10} {:>10}",
                kind.name(),
                healthy.throughput,
                "CRASH",
                "-",
                "-",
                "-"
            );
            continue;
        }
        println!(
            "{:<32} {:>14.0} {:>14.0} {:>8.0}% {:>9.0}% {:>9.0}%",
            kind.name(),
            healthy.throughput,
            faulty.throughput,
            faulty.throughput / healthy.throughput * 100.0,
            faulty.latency.mean.as_secs_f64() / healthy.latency.mean.as_secs_f64() * 100.0,
            faulty.latency.p99.as_secs_f64() / healthy.latency.p99.as_secs_f64() * 100.0,
        );
    }
    println!(
        "\n(percentages are faulty/healthy; DepFastRaft should sit near 100% on all three \
         while the legacy styles degrade — the paper's Figure 1 vs Figure 3 contrast)"
    );
}
