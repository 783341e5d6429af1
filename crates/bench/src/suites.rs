//! The three gated suites: their fixed-seed cells, catalogs and verdict
//! thresholds. Each is a list of [`Run`]s rolled into a [`Suite`] that
//! the `gate` binary diffs against a committed baseline:
//!
//! - [`bench()`] — perf: [DepFastRaft, SyncRaft] × [healthy, disk-slow
//!   follower] plus one multi-group cell, profiled (wait-state site
//!   rollups land in the JSON). Small enough for CI, still covering the
//!   paper's central contrast.
//! - [`detect`] — the detector: the same four cells incident-instrumented
//!   and scored against the ground-truth fault ledger, plus per-group
//!   blast-radius scorecards of a sharded fleet.
//! - [`scenario`] — survival: the 8 gray-failure scenarios of
//!   [`depfast_scenario::catalog`] × all five drivers, plus the
//!   retry-storm cell of [`storm_catalog`].

use std::time::Duration;

use depfast_detect::DetectorMode;
use depfast_fault::FaultKind;
use depfast_incident::{render_report, score, IncidentDump, RECOVERY_BAND};
use depfast_kv::RetryPolicy;
use depfast_raft::cluster::{Placement, RaftKind};
use depfast_scenario::{CompileError, Scenario};

use crate::cells::{DetectRecord, ScenarioRecord, Suite};
use crate::experiment::{striped, Instruments, Run, RunReport};

/// Seed of every gated cell, and [`Run::default`]'s: HotOS '21 opening
/// day.
pub const GATE_SEED: u64 = 20210531;

/// A matrix cell whose longest post-warm-up commit stall exceeds this
/// is verdicted not-live.
pub const MATRIX_STALL_LIMIT: Duration = Duration::from_millis(1500);

/// Storm cells tolerate their 1 s fault window plus the recovery band:
/// a storm cell is only verdicted not-live when the collapse *outlives*
/// its cause.
pub const STORM_STALL_LIMIT: Duration = Duration::from_millis(2500);

/// The disk-slow fault of every gated cell and figure side mode: Table
/// 1's 125× write-bandwidth cut.
pub const DISK_SLOW: FaultKind = FaultKind::DiskSlow { bw_factor: 0.008 };

/// The one rule for loss: a dump whose health timeline was truncated at
/// the tracer's capacity cap under-counts reactions, so a gate run that
/// produced one fails rather than warns. Returns the failure line.
fn health_loss(dump: &IncidentDump) -> Option<String> {
    (dump.health_dropped > 0).then(|| {
        format!(
            "[{} | {} | {}] {} health event(s) dropped at the tracer capacity cap — its scorecard under-counts reactions",
            dump.driver, dump.cluster, dump.fault, dump.health_dropped
        )
    })
}

/// What a live suite run produced: the suite, and one failure line per
/// incident dump that lost health events (`health_loss`).
pub struct Live {
    /// The fresh suite.
    pub suite: Suite,
    /// Cells whose scorecards cannot be trusted.
    pub lost: Vec<String>,
}

impl Live {
    fn new(name: &str) -> Live {
        Live {
            suite: Suite::new(name, GATE_SEED),
            lost: Vec::new(),
        }
    }

    /// Admits the incident dump a cell is scored from: its incident
    /// report on stderr when asked for, a failure line if it lost
    /// health events.
    fn admit(&mut self, dump: &IncidentDump, report: bool) {
        if report {
            eprint!("{}", render_report(dump, &score(dump)));
        }
        self.lost.extend(health_loss(dump));
    }
}

/// The perf contrast every figure, ablation and the perf gate runs:
/// `healthy` as is, then once more per `(label, nodes, fault)` with that
/// fault on `nodes` from mid-warm-up on. Pushes one perf cell per run
/// into `suite` under `driver` / `cluster` — each faulted cell's drift
/// is over the healthy throughput — and returns the reports, healthy
/// first. `execute` is [`Run::execute`] or a figure's instrumented
/// variant of it.
pub fn contrast(
    suite: &mut Suite,
    (driver, cluster): (&str, &str),
    healthy: &Run,
    faults: &[(&str, &[u32], FaultKind)],
    execute: impl Fn(&Run) -> RunReport,
) -> Vec<RunReport> {
    eprintln!("[{}] {driver} | {cluster} | none...", suite.suite);
    let base = execute(healthy);
    suite.runs.push(base.perf(driver, "none", cluster));
    let mut reports = vec![base];
    for &(label, nodes, fault) in faults {
        eprintln!("[{}] {driver} | {cluster} | {label}...", suite.suite);
        let at = healthy.warmup / 2;
        let faulted = execute(&healthy.clone().with_fault(nodes.to_vec(), fault, at, None));
        let cell = faulted.perf(driver, label, cluster);
        suite.runs.push(cell.over(reports[0].stats.throughput));
        reports.push(faulted);
    }
    reports
}

/// The short fixed-seed run of the figures' `--trace` / `--profile`
/// side modes: `n` servers, [`DISK_SLOW`] on `nodes` from mid-warm-up on.
pub fn short_disk_slow(kind: RaftKind, n: usize, nodes: impl IntoIterator<Item = u32>) -> Run {
    let warmup = Duration::from_millis(500);
    Run {
        kind,
        placement: Placement::Single { n },
        n_clients: 32,
        warmup,
        measure: Duration::from_secs(1),
        records: 10_000,
        ..Run::default()
    }
    .with_fault(nodes, DISK_SLOW, warmup / 2, None)
}

/// One healthy, profiled cell of the perf suite.
pub fn bench_cell(kind: RaftKind) -> Run {
    Run {
        kind,
        n_clients: 64,
        warmup: Duration::from_millis(600),
        measure: Duration::from_secs(2),
        records: 10_000,
        instruments: Instruments {
            profiler: true,
            ..Instruments::default()
        },
        ..Run::default()
    }
}

/// Runs the perf suite.
pub fn bench(_report: bool) -> Result<Live, String> {
    let mut live = Live::new("gate");
    let suite = &mut live.suite;
    let shape = bench_cell(RaftKind::DepFast);
    suite.config("clients", shape.n_clients as f64);
    suite.config("warmup_ms", shape.warmup.as_millis() as f64);
    suite.config("measure_secs", shape.measure.as_secs_f64());
    suite.config("records", shape.records as f64);
    for kind in [RaftKind::DepFast, RaftKind::Sync] {
        let slow_follower = [("disk_slow", &[2][..], DISK_SLOW)];
        let healthy = bench_cell(kind);
        contrast(
            suite,
            (kind.name(), ""),
            &healthy,
            &slow_follower,
            Run::execute,
        );
    }
    // The multi-group cell: 8 DepFastRaft groups striped over 9 nodes,
    // same small seed/window. Guards the sharded routing + co-located
    // group scheduling path — its aggregate throughput moving is a
    // scale-out regression even when the single-group cells hold.
    let sharded = Run {
        placement: striped(8, 9),
        n_clients: 96,
        instruments: Instruments::default(),
        ..shape
    };
    suite.config("scale_groups", sharded.placement.groups().len() as f64);
    suite.config("scale_nodes", sharded.placement.server_nodes() as f64);
    suite.config("scale_clients", sharded.n_clients as f64);
    let cluster = sharded.cluster_label();
    eprintln!("[gate] DepFastRaft | {cluster} | none...");
    let cell = sharded
        .execute()
        .perf(sharded.kind.name(), "none", &cluster);
    suite.runs.push(cell);
    Ok(live)
}

/// The shape of every detect / scenario cell: 64 clients, 2 s warm-up,
/// 3.2 s measurement, 10 K records — the catalog's faults land at 2 s,
/// after the detector's warm-up windows (5 × 200 ms of polling need
/// healthy traffic first), and heal 1.2 s later, before the run ends,
/// so time-to-recover is observable. The detector judges in `mode`.
pub fn episode(kind: RaftKind, mode: DetectorMode) -> Run {
    Run {
        kind,
        n_clients: 64,
        warmup: Duration::from_secs(2),
        measure: Duration::from_millis(3200),
        records: 10_000,
        ..Run::default()
    }
    .with_detector(mode)
}

/// When an [`episode`]'s fault lands…
pub const EPISODE_AT: Duration = Duration::from_secs(2);
/// …and how long it lasts.
pub const EPISODE_FOR: Duration = Duration::from_millis(1200);

/// `run` with one [`DISK_SLOW`] episode on `nodes`.
pub fn disk_slow_episode(run: Run, nodes: impl IntoIterator<Item = u32>) -> Run {
    run.with_fault(nodes, DISK_SLOW, EPISODE_AT, Some(EPISODE_FOR))
}

/// Runs the detection-quality suite. `report` also prints each cell's
/// incident report (stderr).
pub fn detect(report: bool) -> Result<Live, String> {
    let mut live = Live::new("detect");
    let suite = &mut live.suite;
    let base = episode(RaftKind::DepFast, DetectorMode::SelfBaseline);
    suite.config("clients", base.n_clients as f64);
    suite.config("warmup_secs", base.warmup.as_secs_f64());
    suite.config("measure_secs", base.measure.as_secs_f64());
    suite.config("records", base.records as f64);
    suite.config("fault_at_secs", EPISODE_AT.as_secs_f64());
    suite.config("fault_duration_secs", EPISODE_FOR.as_secs_f64());
    suite.config("recovery_band", RECOVERY_BAND);
    // Blast-radius cells: 8 groups of 3 striped over 9 nodes put node 8
    // under exactly two groups (g7, g8 — as a follower in both); one
    // disk-slow episode there yields eight per-group scorecards. The
    // gate pins the whole split: the two hosted groups must keep
    // detecting the fault inside their replica set, and the other six
    // must stay all-zero — a detector that starts bleeding suspicion
    // across group boundaries fails CI.
    let blast = Run {
        placement: striped(8, 9),
        ..base
    };
    let blast = disk_slow_episode(blast, [8]);
    suite.config("blast_groups", blast.placement.groups().len() as f64);
    suite.config("blast_nodes", blast.placement.server_nodes() as f64);
    suite.config("blast_fault_node", f64::from(blast.plan.windows[0].node));
    for kind in [RaftKind::DepFast, RaftKind::Sync] {
        let healthy = episode(kind, DetectorMode::SelfBaseline);
        let faulted = disk_slow_episode(healthy.clone(), [2]);
        for run in [healthy, faulted] {
            eprintln!("[gate] {} / {}...", kind.name(), run.fault);
            let dump = run.execute().dump();
            live.admit(&dump, report);
            live.suite.detect.push(DetectRecord::from_dump(&dump));
        }
    }
    for kind in [RaftKind::DepFast, RaftKind::Sync] {
        eprintln!(
            "[gate] {} / blast radius (8 groups, disk-slow node 8)...",
            kind.name()
        );
        let run = Run {
            kind,
            ..blast.clone()
        };
        for dump in run.execute().group_dumps() {
            live.admit(&dump, report);
            live.suite.detect.push(DetectRecord::from_dump(&dump));
        }
    }
    Ok(live)
}

/// Every Raft driver under test, in fixed report order.
pub const ALL_DRIVERS: [RaftKind; 5] = [
    RaftKind::DepFast,
    RaftKind::Sync,
    RaftKind::Backlog,
    RaftKind::Callback,
    RaftKind::Chain,
];

/// The fixed retry-storm cell: a short severe leader fault under a
/// population of clients with a short attempt deadline. A storm cell
/// measures how the *client population* survives: the fault can tip the
/// system into a metastable state where the retries themselves keep
/// goodput collapsed long after it cleared — the "Building on Quicksand"
/// feedback loop. No leader mitigation is armed, so the cell shows
/// whether retries alone outlive their fault. The measurement window is
/// long enough to observe the post-clear regime.
pub fn storm_catalog() -> Vec<Run> {
    let mut run = Run {
        n_clients: 160,
        measure: Duration::from_millis(5500),
        ..episode(RaftKind::DepFast, DetectorMode::PeerWithFallback)
    }
    .with_fault(
        [0],
        FaultKind::CpuSlow { quota: 0.02 },
        Duration::from_millis(2500),
        Some(Duration::from_secs(1)),
    );
    run.fault = "retry-storm".to_string();
    run.instruments.retry = Some(RetryPolicy {
        attempt_timeout: Duration::from_millis(150),
        max_attempts: 8,
    });
    vec![run]
}

/// One scenario × driver cell of the survival matrix, with the incident
/// dump it was judged from.
pub fn matrix_cell(
    scenario: &Scenario,
    kind: RaftKind,
) -> Result<(ScenarioRecord, IncidentDump), CompileError> {
    let run = episode(kind, DetectorMode::PeerWithFallback).with_scenario(scenario)?;
    Ok(run.execute().survival(MATRIX_STALL_LIMIT))
}

/// Runs the survival suite. `report` also prints each cell's incident
/// report (stderr).
pub fn scenario(report: bool) -> Result<Live, String> {
    let mut live = Live::new("scenarios");
    let base = episode(RaftKind::DepFast, DetectorMode::PeerWithFallback);
    let suite = &mut live.suite;
    suite.config("n_servers", 3.0);
    suite.config("clients", base.n_clients as f64);
    suite.config("warmup_secs", base.warmup.as_secs_f64());
    suite.config("measure_secs", base.measure.as_secs_f64());
    suite.config("records", base.records as f64);
    suite.config("stall_limit_secs", MATRIX_STALL_LIMIT.as_secs_f64());
    suite.config("recovery_band", RECOVERY_BAND);
    suite.config("storm_stall_limit_secs", STORM_STALL_LIMIT.as_secs_f64());
    for s in depfast_scenario::catalog() {
        for kind in ALL_DRIVERS {
            eprintln!("[gate] {} / {}...", s.name, kind.name());
            let (cell, dump) = matrix_cell(&s, kind)
                .map_err(|e| format!("scenario {} failed to compile: {e}", s.name))?;
            live.admit(&dump, report);
            live.suite.scenarios.push(cell);
        }
    }
    for run in storm_catalog() {
        eprintln!("[gate] {} / {}...", run.fault, run.kind.name());
        let (cell, dump) = run.execute().survival(STORM_STALL_LIMIT);
        live.admit(&dump, report);
        live.suite.scenarios.push(cell);
    }
    Ok(live)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_dump_that_lost_health_events_fails_the_gate_by_name() {
        let mut dump = IncidentDump {
            driver: "DepFastRaft".into(),
            fault: "Disk Slowness".into(),
            cluster: "3x64".into(),
            seed: 7,
            faults: Vec::new(),
            events: Vec::new(),
            throughput: Vec::new(),
            end_ns: 0,
            health_dropped: 0,
        };
        assert_eq!(health_loss(&dump), None);
        dump.health_dropped = 7;
        let line = health_loss(&dump).expect("a lossy dump must fail");
        assert!(
            line.contains("DepFastRaft | 3x64 | Disk Slowness"),
            "{line}"
        );
        assert!(line.contains("7 health event(s) dropped"), "{line}");
    }
}
