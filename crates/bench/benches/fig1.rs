//! **Figure 1** — performance of three legacy-style RSM implementations
//! with one fail-slow follower, 3-node deployments.
//!
//! Paper methodology (§2.1–2.2): YCSB update workload over 500 K records,
//! high client concurrency, one follower afflicted with each of Table 1's
//! six faults; report throughput, average latency and P99 *normalized to
//! each system's own no-fault baseline*.
//!
//! Expected shape (paper §2.2): up to 17–41% throughput loss, 21–50%
//! average-latency inflation, 1.6–3.46× P99 inflation across the three
//! systems — and the RethinkDB-style system's leader *crashes* under CPU
//! faults (reported as CRASH below).
//!
//! Environment knobs: `FIG1_MEASURE_SECS` (default 10),
//! `FIG1_CLIENTS` (default 256); for the multi-Raft sections,
//! `FIG1_SCALE_CLIENTS` (default 1024) and `FIG1_SCALE_MEASURE_SECS`
//! (default 4).
//!
//! Every side mode below exports each of its runs as one `.run` file
//! under `target/depfast-bench/` (`RunReport::export`), rendered offline
//! by `depfast-inspect`; same seed, byte-identical files. See
//! `docs/OBSERVABILITY.md`.
//!
//! Pass `--metrics` (`cargo bench -p depfast-bench --bench fig1 --
//! --metrics`) to additionally sample every run's metric registry on a
//! 100 ms virtual-clock grid and export one run per (system, condition)
//! — the per-layer series (`sim.*`, `rpc.*`, `event.*`, `raft.*`) that
//! let an operator attribute a collapse to a fault class and name the
//! slow follower without touching the workload numbers.
//!
//! Pass `--trace` to instead run ONE short fully-traced DepFastRaft
//! experiment with a disk-slow follower: the blame table, folded live
//! from every record, is printed, and `depfast-inspect --chrome` turns
//! the export into Chrome `trace_event` JSON (load in Perfetto).
//!
//! Pass `--incidents` to run each legacy system (plus DepFastRaft for
//! contrast) through one incident-instrumented disk-slow episode:
//! ground-truth fault ledger vs health-event timeline, per-run incident
//! reports and a detector scorecard table.
//!
//! Pass `--profile` for one short profiled disk-slow run per system.

use std::time::Duration;

use depfast_bench::suites::{
    contrast, disk_slow_episode, episode, short_disk_slow, DISK_SLOW, EPISODE_AT,
};
use depfast_bench::{
    condition, env_knob, format_ms, run_figure_cell, slug, striped, write_repo_artifact,
    DetectRecord, Run, Suite, Table,
};
use depfast_detect::DetectorMode;
use depfast_fault::FaultKind;
use depfast_raft::cluster::RaftKind;
use depfast_ycsb::driver::RunStats;
use simkit::NodeId;

/// One of Figures 1a–1c: its table, the value it plots, how it prints.
type Panel<'a> = (&'a mut Table, fn(&RunStats) -> f64, fn(f64) -> String);

/// Seconds as milliseconds with two decimals ([`format_ms`] on a float).
fn format_secs(secs: f64) -> String {
    format!("{:.2}", secs * 1e3)
}

/// The `--trace` mode: one short, fully-traced, fixed-seed DepFastRaft
/// run with a disk-slow follower (node 2).
fn trace_mode() {
    let mut cfg = short_disk_slow(RaftKind::DepFast, 3, [2]);
    cfg.instruments.trace = true;
    eprintln!(
        "[fig1] traced run (DepFastRaft, disk-slow follower 2, seed {})...",
        cfg.seed
    );
    let run = cfg.execute();
    eprintln!(
        "[fig1] {} records, {:.0} req/s over the traced window",
        run.records.len(),
        run.stats.throughput
    );
    let blame = run.blame.as_ref().expect("the blame fold was on");
    print!("{}", blame.table());
    run.export("fig1_trace").expect("write run artifact");
}

/// The `--incidents` mode: one incident-instrumented disk-slow episode
/// per system — fault onset at 2 s (after the detector's warm-up
/// windows), healed 1.2 s later — scored against the ground-truth fault
/// ledger. Prints each run's incident report and a scorecard table.
fn incidents_mode() {
    let title = "Figure 1 incidents: detector scorecard (disk-slow follower 2)";
    let mut suite = Suite::new(title, Run::default().seed);
    for kind in [
        RaftKind::DepFast,
        RaftKind::Sync,
        RaftKind::Backlog,
        RaftKind::Callback,
    ] {
        eprintln!(
            "[fig1] incident run ({}, disk-slow follower 2)...",
            kind.name()
        );
        let run = disk_slow_episode(episode(kind, DetectorMode::SelfBaseline), [2]).execute();
        let dump = run.dump();
        let cell = DetectRecord::from_dump(&dump);
        print!("{}", depfast_incident::render_report(&dump, &cell.score));
        suite.detect.push(cell);
        run.export(&format!("fig1_incidents_{}", slug(kind.name())))
            .expect("write run artifact");
    }
    print!("{}", suite.render_cells());
}

/// The `--profile` mode: one short, fixed-seed, profiled run per system
/// with a disk-slow follower (node 2).
fn profile_mode() {
    for kind in [
        RaftKind::DepFast,
        RaftKind::Sync,
        RaftKind::Backlog,
        RaftKind::Callback,
    ] {
        let mut cfg = short_disk_slow(kind, 3, [2]);
        cfg.instruments.profiler = true;
        eprintln!(
            "[fig1] profiled run ({}, disk-slow follower 2, seed {})...",
            kind.name(),
            cfg.seed
        );
        let run = cfg.execute();
        let profiler = run.profiler.as_ref().expect("profiler was on");
        println!(
            "{:<28} {:>6.0} req/s  node-2 disk share {:>5.1}%",
            kind.name(),
            run.stats.throughput,
            profiler.node_site_share(NodeId(2), "disk") * 100.0,
        );
        run.export(&format!("fig1_profile_{}", slug(kind.name())))
            .expect("write run artifact");
    }
}

fn main() {
    if std::env::args().any(|a| a == "--trace") {
        trace_mode();
        return;
    }
    if std::env::args().any(|a| a == "--incidents") {
        incidents_mode();
        return;
    }
    if std::env::args().any(|a| a == "--profile") {
        profile_mode();
        return;
    }
    let metrics = std::env::args().any(|a| a == "--metrics");
    let measure = Duration::from_secs(env_knob("FIG1_MEASURE_SECS", 10));
    let clients = env_knob("FIG1_CLIENTS", 256) as usize;
    let systems = [RaftKind::Sync, RaftKind::Backlog, RaftKind::Callback];
    let mem_limit = depfast_bench::experiment::mem_contention_limit();
    let faults = FaultKind::table1(mem_limit);
    let mut suite = Suite::new("fig1", Run::default().seed);
    suite.config("clients", clients as f64);
    suite.config("measure_secs", measure.as_secs_f64());

    let mut tput = Table::new(
        "Figure 1a: normalized throughput (legacy RSMs, one fail-slow follower)",
        &["System", "Condition", "Tput (req/s)", "Normalized"],
    );
    let mut avg = Table::new(
        "Figure 1b: normalized average latency",
        &["System", "Condition", "Avg (ms)", "Normalized"],
    );
    let mut p99 = Table::new(
        "Figure 1c: normalized P99 latency",
        &["System", "Condition", "P99 (ms)", "Normalized"],
    );

    for kind in systems {
        let base_cfg = Run {
            kind,
            n_clients: clients,
            measure,
            ..Run::default()
        };
        // One follower under each Table 1 fault; each cell is profiled,
        // or sampled and exported as `<system>_<condition>` under
        // `--metrics`.
        let sweep: Vec<_> = faults.iter().map(|f| (f.name(), &[1][..], *f)).collect();
        let cell = |run: &Run| {
            let name = format!("{}_{}", kind.name(), condition(run));
            run_figure_cell("fig1", &name, run, metrics)
        };
        let reports = contrast(&mut suite, (kind.name(), ""), &base_cfg, &sweep, cell);
        // One row per run in each panel: the value, and the value over
        // the same system's healthy run.
        let panels: [Panel; 3] = [
            (&mut tput, |s| s.throughput, |v| format!("{v:.0}")),
            (&mut avg, |s| s.latency.mean.as_secs_f64(), format_secs),
            (&mut p99, |s| s.latency.p99.as_secs_f64(), format_secs),
        ];
        for (table, value, show) in panels {
            for report in &reports {
                let condition = condition(&report.run).to_string();
                let (v, healthy) = (value(&report.stats), value(&reports[0].stats));
                let [shown, normalized] = match report.stats.server_crashed {
                    true => ["CRASH".to_string(), "CRASH".to_string()],
                    false => [show(v), format!("{:.2}", v / healthy)],
                };
                let system = kind.name().to_string();
                table.row(vec![system, condition, shown, normalized]);
            }
        }
    }
    // Figure 1d (repro extension): the DepFastRaft leader's group commit +
    // pipelined replication as a step function of client concurrency.
    // Three leader configurations over rising client counts:
    //   unbatched      — batch_max 1, pipeline depth 1 (one entry, one
    //                    round, strictly serialized: the naive leader)
    //   group-commit   — calibrated batch_max, depth 1 (PR-6's batching
    //                    without pipelining)
    //   batched+pipelined — the shipping defaults (batch + depth-4
    //                    pipeline + per-follower append window)
    // The gain is a step function: at low concurrency all three track each
    // other; at high concurrency the unbatched leader collapses to
    // ~1/round-trip while the batched ones hold the apply-loop ceiling.
    let mut step = Table::new(
        "Figure 1d: DepFastRaft batching/pipelining vs client count (healthy)",
        &["Config", "Clients", "Tput (req/s)", "P99 (ms)"],
    );
    let configs: [(&str, Option<usize>, Option<usize>); 3] = [
        ("unbatched", Some(1), Some(1)),
        ("group-commit", None, Some(1)),
        ("batched+pipelined", None, None),
    ];
    for (label, batch_max, pipeline_depth) in configs {
        for n_clients in [64usize, 256, 512] {
            eprintln!("[fig1] DepFastRaft {label} @ {n_clients} clients...");
            let mut cfg = Run {
                n_clients,
                measure,
                ..Run::default()
            };
            cfg.raft.batch_max = batch_max.unwrap_or(cfg.raft.batch_max);
            cfg.raft.pipeline_depth = pipeline_depth.unwrap_or(cfg.raft.pipeline_depth);
            let name = format!("DepFastRaft_{label}_{n_clients}c");
            let run = run_figure_cell("fig1", &name, &cfg, metrics);
            let cluster = format!("{label}/{n_clients}c");
            suite.runs.push(run.perf("DepFastRaft", "none", &cluster));
            let stats = run.stats;
            step.row(vec![
                label.to_string(),
                n_clients.to_string(),
                format!("{:.0}", stats.throughput),
                format_ms(stats.latency.p99),
            ]);
        }
    }

    // Figure 1e (repro extension): multi-Raft scale-out. Fixed client
    // population, fixed 12 server nodes, rising group count with the
    // keyspace hash-partitioned across groups — aggregate throughput
    // grows as leaders (and apply/serve work) spread over the fleet.
    // Each cell's `drift` is its speedup over the 1-group cell.
    let scale_clients = env_knob("FIG1_SCALE_CLIENTS", 1024) as usize;
    let scale_measure = Duration::from_secs(env_knob("FIG1_SCALE_MEASURE_SECS", 4));
    suite.config("scale_clients", scale_clients as f64);
    suite.config("scale_measure_secs", scale_measure.as_secs_f64());
    let mut scale = Table::new(
        "Figure 1e: multi-Raft scale-out (DepFastRaft, 12 nodes, fixed clients)",
        &["Groups", "Tput (req/s)", "Speedup", "P99 (ms)"],
    );
    let mut one_group: Option<f64> = None;
    for n_groups in [1usize, 4, 16, 64] {
        eprintln!("[fig1] DepFastRaft scale-out @ {n_groups} group(s)...");
        let cfg = Run {
            placement: striped(n_groups, 12),
            n_clients: scale_clients,
            measure: scale_measure,
            ..Run::default()
        };
        let run = cfg.execute();
        let stats = &run.stats;
        let base = *one_group.get_or_insert(stats.throughput);
        let cell = run.perf(cfg.kind.name(), "none", &cfg.cluster_label());
        suite.runs.push(cell.over(base));
        scale.row(vec![
            n_groups.to_string(),
            format!("{:.0}", stats.throughput),
            format!("{:.2}x", stats.throughput / base),
            format_ms(stats.latency.p99),
        ]);
    }

    // Figure 1f (repro extension): fleet-scale blast radius. 8 groups of
    // 3 striped over 9 nodes put node 8 under exactly two groups (g7 and
    // g8, as a follower in both); a disk-slow fault there should touch
    // nothing else. Per-group P99 is normalized to the same group's
    // healthy run; the per-group incident scorecard shows which groups
    // detected a fault inside their own replica set.
    let mut blast = Table::new(
        "Figure 1f: blast radius (8 groups / 9 nodes, disk-slow node 8)",
        &[
            "System",
            "Group",
            "Hosted",
            "Tput (req/s)",
            "P99 vs healthy",
            "Detected",
            "TTD (ms)",
        ],
    );
    for kind in [RaftKind::DepFast, RaftKind::Sync] {
        let base_cfg = Run {
            kind,
            placement: striped(8, 9),
            n_clients: scale_clients.min(256),
            measure: scale_measure,
            ..Run::default()
        };
        eprintln!("[fig1] {} blast-radius baseline...", kind.name());
        let healthy = base_cfg.execute();
        eprintln!("[fig1] {} blast-radius episode...", kind.name());
        let run = base_cfg
            .with_detector(DetectorMode::SelfBaseline)
            .with_fault([8], DISK_SLOW, EPISODE_AT, None)
            .execute();
        let (dumps, hosted) = (run.group_dumps(), run.hosted(8));
        for ((h, f), dump) in healthy
            .stats
            .groups
            .iter()
            .zip(&run.stats.groups)
            .zip(&dumps)
        {
            let score = DetectRecord::from_dump(dump);
            let cell = run.group_perf(f.gid, kind.name(), DISK_SLOW.name(), &dump.cluster);
            suite.runs.push(cell.over(h.throughput));
            blast.row(vec![
                kind.name().to_string(),
                format!("g{}", h.gid),
                if hosted.contains(&h.gid) { "yes" } else { "" }.to_string(),
                format!("{:.0}", f.throughput),
                format!(
                    "{:.2}x",
                    f.latency.p99.as_secs_f64() / h.latency.p99.as_secs_f64()
                ),
                if dump.faults.is_empty() {
                    "n/a".to_string()
                } else {
                    score.shown("Detected")
                },
                score.shown("TTD (ms)"),
            ]);
        }
    }

    tput.print();
    avg.print();
    p99.print();
    step.print();
    scale.print();
    blast.print();
    for (t, name) in [
        (&scale, "fig1e_scale_out"),
        (&blast, "fig1f_blast_radius"),
        (&step, "fig1d_batching"),
        (&tput, "fig1a_throughput"),
        (&avg, "fig1b_avg_latency"),
        (&p99, "fig1c_p99_latency"),
    ] {
        if let Ok(p) = t.write_csv(name) {
            println!("[csv] {}", p.display());
        }
    }
    match write_repo_artifact("BENCH_fig1.json", &suite.to_json()) {
        Ok(p) => println!("[bench-json] {}", p.display()),
        Err(e) => eprintln!("[fig1] cannot write BENCH_fig1.json: {e}"),
    }
    println!(
        "\nPaper reference (Fig 1 / §2.2): throughput drops up to 17-41%, avg latency +21-50%, \
         P99 x1.6-3.46; RethinkDB's leader crashed under CPU faults."
    );
}
