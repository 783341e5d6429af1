//! **Figure 3** — performance of DepFastRaft with a minority of fail-slow
//! followers, 3-node and 5-node deployments.
//!
//! Paper claims (§3.4): *"In all cases where a minority of follower(s) are
//! slowed down, DepFastRaft's performance does not show performance drift
//! over 5% in both latency and throughput. The base performance of
//! DepFastRaft is at about 5K requests per second."*
//!
//! This bench reports absolute throughput, average latency and P99 (the
//! paper's three panels) for each Table 1 fault, for 3 nodes (one slow
//! follower) and 5 nodes (two slow followers — the largest minority), and
//! flags any drift beyond 5%.
//!
//! Environment knobs: `FIG3_MEASURE_SECS` (default 10),
//! `FIG3_CLIENTS` (default 256).
//!
//! Every side mode below exports each of its runs as one `.run` file
//! under `target/depfast-bench/` (`RunReport::export`), rendered offline
//! by `depfast-inspect`; same seed, byte-identical files. See
//! `docs/OBSERVABILITY.md`.
//!
//! Pass `--metrics` to sample every run's metric registry on a 100 ms
//! virtual-clock grid and export one run per (cluster, condition).
//! Because these are DepFastRaft runs, the series include the
//! `event.quorum.*` straggler-attribution counters that name the slow
//! follower(s).
//!
//! Pass `--incidents` to run each cluster shape through one
//! incident-instrumented disk-slow episode: per-run incident reports and
//! a detector scorecard table.
//!
//! Pass `--profile` for one short profiled disk-slow run per cluster
//! shape.

use std::time::Duration;

use depfast_bench::suites::{contrast, disk_slow_episode, episode, short_disk_slow};
use depfast_bench::{
    condition, env_knob, format_ms, run_figure_cell, write_repo_artifact, DetectRecord, Placement,
    Run, Suite, Table,
};
use depfast_detect::DetectorMode;
use depfast_fault::FaultKind;
use depfast_raft::cluster::RaftKind;

/// The first `k` followers of a 0-led cluster.
fn followers(k: usize) -> Vec<u32> {
    (1..=k as u32).collect()
}

/// The `--profile` mode: one short, fixed-seed, profiled DepFastRaft run
/// per cluster shape with a disk-slow follower minority.
fn profile_mode() {
    for (n_servers, slow_followers) in [(3usize, 1usize), (5, 2)] {
        let mut cfg = short_disk_slow(RaftKind::DepFast, n_servers, followers(slow_followers));
        cfg.instruments.profiler = true;
        eprintln!(
            "[fig3] profiled run ({n_servers} nodes, {slow_followers} disk-slow follower(s), seed {})...",
            cfg.seed
        );
        let run = cfg.execute();
        println!("{n_servers} nodes  {:>6.0} req/s", run.stats.throughput);
        run.export(&format!("fig3_profile_{n_servers}_nodes"))
            .expect("write run artifact");
    }
}

/// The `--incidents` mode: one incident-instrumented disk-slow episode
/// per cluster shape — onset at 2 s (after the detector's warm-up
/// windows), healed 1.2 s later — scored against the ground-truth fault
/// ledger. Prints each run's incident report and a scorecard table.
fn incidents_mode() {
    let title = "Figure 3 incidents: DepFastRaft detector scorecard (disk-slow minority)";
    let mut suite = Suite::new(title, Run::default().seed);
    for (n_servers, slow_followers) in [(3usize, 1usize), (5, 2)] {
        eprintln!(
            "[fig3] incident run ({n_servers} nodes, {slow_followers} disk-slow follower(s))..."
        );
        let run = Run {
            placement: Placement::Single { n: n_servers },
            ..episode(RaftKind::DepFast, DetectorMode::SelfBaseline)
        };
        let run = disk_slow_episode(run, followers(slow_followers)).execute();
        let dump = run.dump();
        let cell = DetectRecord::from_dump(&dump);
        print!("{}", depfast_incident::render_report(&dump, &cell.score));
        suite.detect.push(cell);
        run.export(&format!("fig3_incidents_{n_servers}_nodes"))
            .expect("write run artifact");
    }
    print!("{}", suite.render_cells());
}

fn main() {
    if std::env::args().any(|a| a == "--incidents") {
        incidents_mode();
        return;
    }
    if std::env::args().any(|a| a == "--profile") {
        profile_mode();
        return;
    }
    let metrics = std::env::args().any(|a| a == "--metrics");
    let measure = Duration::from_secs(env_knob("FIG3_MEASURE_SECS", 10));
    let clients = env_knob("FIG3_CLIENTS", 256) as usize;
    let mem_limit = depfast_bench::experiment::mem_contention_limit();
    let faults = FaultKind::table1(mem_limit);

    let mut table = Table::new(
        "Figure 3: DepFastRaft with a minority of fail-slow followers",
        &[
            "Cluster",
            "Condition",
            "Tput (req/s)",
            "Tput drift",
            "Avg (ms)",
            "Avg drift",
            "P99 (ms)",
            "P99 drift",
        ],
    );
    let mut worst_drift: f64 = 0.0;
    let mut suite = Suite::new("fig3", Run::default().seed);
    suite.config("clients", clients as f64);
    suite.config("measure_secs", measure.as_secs_f64());

    for (n_servers, slow_followers) in [(3usize, 1usize), (5, 2)] {
        let base_cfg = Run {
            placement: Placement::Single { n: n_servers },
            n_clients: clients,
            measure,
            ..Run::default()
        };
        // The largest follower minority under each Table 1 fault; each
        // cell is profiled, or sampled and exported as
        // `<cluster>_<condition>` under `--metrics`.
        let cluster = format!("{n_servers}_nodes");
        let slow = followers(slow_followers);
        let sweep: Vec<_> = faults.iter().map(|f| (f.name(), &slow[..], *f)).collect();
        let cell = |run: &Run| {
            let name = format!("{cluster}_{}", condition(run));
            run_figure_cell("fig3", &name, run, metrics)
        };
        let labels = (RaftKind::DepFast.name(), cluster.as_str());
        let reports = contrast(&mut suite, labels, &base_cfg, &sweep, cell);
        let base = &reports[0].stats;
        table.row(vec![
            format!("{n_servers} Nodes"),
            "No Slowness".into(),
            format!("{:.0}", base.throughput),
            "--".into(),
            format_ms(base.latency.mean),
            "--".into(),
            format_ms(base.latency.p99),
            "--".into(),
        ]);
        for (fault, report) in faults.iter().zip(&reports[1..]) {
            let stats = &report.stats;
            let drift = |v: f64, b: f64| (v - b) / b;
            let d_t = drift(stats.throughput, base.throughput);
            let d_a = drift(
                stats.latency.mean.as_secs_f64(),
                base.latency.mean.as_secs_f64(),
            );
            let d_p = drift(
                stats.latency.p99.as_secs_f64(),
                base.latency.p99.as_secs_f64(),
            );
            for d in [d_t.abs(), d_a.abs(), d_p.abs()] {
                worst_drift = worst_drift.max(d);
            }
            table.row(vec![
                format!("{n_servers} Nodes"),
                fault.name().to_string(),
                format!("{:.0}", stats.throughput),
                format!("{:+.1}%", d_t * 100.0),
                format_ms(stats.latency.mean),
                format!("{:+.1}%", d_a * 100.0),
                format_ms(stats.latency.p99),
                format!("{:+.1}%", d_p * 100.0),
            ]);
        }
    }
    table.print();
    if let Ok(p) = table.write_csv("fig3") {
        println!("[csv] {}", p.display());
    }
    match write_repo_artifact("BENCH_fig3.json", &suite.to_json()) {
        Ok(p) => println!("[bench-json] {}", p.display()),
        Err(e) => eprintln!("[fig3] cannot write BENCH_fig3.json: {e}"),
    }
    println!(
        "\nWorst absolute drift across all conditions and metrics: {:.1}% \
         (paper: within 5%; base performance ~5K req/s).",
        worst_drift * 100.0
    );
}
