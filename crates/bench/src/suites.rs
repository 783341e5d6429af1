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
//!   retry-storm ablation pair of [`storm_catalog`].

use std::time::Duration;

use depfast_detect::{DetectorCfg, DetectorMode};
use depfast_fault::FaultKind;
use depfast_incident::{render_report, score, IncidentDump, RECOVERY_BAND};
use depfast_kv::{RetryBudget, RetryPolicy};
use depfast_raft::cluster::RaftKind;
use depfast_scenario::{CompileError, Scenario};

use crate::baseline::{health_loss, DetectRecord, RunRecord, ScenarioRecord, Suite};
use crate::experiment::{render_survival_report, striped, Instruments, Run, SurvivalCell};

/// Seed of every gated cell.
pub const GATE_SEED: u64 = 20210531;

/// A matrix cell whose longest post-warm-up commit stall exceeds this
/// is verdicted not-live.
pub const MATRIX_STALL_LIMIT: Duration = Duration::from_millis(1500);

/// Storm cells tolerate their 1 s fault window plus the recovery band:
/// a storm cell is only verdicted not-live when the collapse *outlives*
/// its cause.
pub const STORM_STALL_LIMIT: Duration = Duration::from_millis(2500);

/// Environment allowlists (comma-separated name substrings) that shrink
/// the scenario suite for local runs. CI runs the full matrix, and a
/// baseline is never written from a filtered one.
pub const SCENARIO_FILTERS: [&str; 2] = ["SCEN_SCALE_SCENARIOS", "SCEN_SCALE_DRIVERS"];

const DISK_SLOW: FaultKind = FaultKind::DiskSlow { bw_factor: 0.008 };

/// Detector tuning of the gated suites. The sample floor is lowered from
/// 10: a SyncRaft leader coupled to a 125×-slow disk completes so few
/// appends per 200 ms window that the default starves the detector and
/// the fault goes entirely unnoticed — which is itself the paper's
/// point, but makes the DepFast-vs-Sync time-to-detect comparison
/// degenerate. Four completions per window still reject scheduler noise
/// at a 3× threshold.
pub fn gate_detector_cfg() -> DetectorCfg {
    DetectorCfg {
        min_samples: 4,
        ..DetectorCfg::default()
    }
}

/// Detector tuning of the scenario matrix: the gate floor plus the
/// peer-relative mode with its absolute-baseline fallback track.
pub fn matrix_detector_cfg() -> DetectorCfg {
    DetectorCfg {
        mode: DetectorMode::PeerWithFallback,
        ..gate_detector_cfg()
    }
}

/// What a live suite run produced: the suite, and one failure line per
/// incident dump that lost health events ([`health_loss`]).
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

    fn push_detect(&mut self, dump: &IncidentDump, report: bool) {
        let cell = score(dump, RECOVERY_BAND);
        if report {
            eprint!("{}", render_report(dump, &cell));
        }
        self.lost.extend(health_loss(dump));
        self.suite.detect.push(DetectRecord::from_cell(dump, &cell));
    }

    fn push_survival(&mut self, cell: &SurvivalCell) {
        eprintln!(
            "[gate] {} / {}: {} ({:.0} op/s, floor {:.0})",
            cell.scenario,
            cell.driver,
            cell.verdict(),
            cell.throughput,
            cell.floor
        );
        self.lost.extend(health_loss(&cell.dump));
        self.suite.scenarios.push(ScenarioRecord::from_cell(cell));
    }
}

/// One healthy, profiled cell of the perf suite.
pub fn bench_cell(kind: RaftKind) -> Run {
    Run {
        kind,
        n_clients: 64,
        seed: GATE_SEED,
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
    suite.config("clients", 64.0);
    suite.config("warmup_ms", 600.0);
    suite.config("measure_secs", 2.0);
    suite.config("records", 10_000.0);
    for kind in [RaftKind::DepFast, RaftKind::Sync] {
        let cell = bench_cell(kind);
        eprintln!("[gate] {} healthy...", kind.name());
        let base = cell.execute();
        eprintln!("[gate] {} + disk-slow follower...", kind.name());
        let slow = cell
            .clone()
            .with_fault([2], DISK_SLOW, cell.warmup / 2, None)
            .execute();
        for (fault, r, over) in [
            ("none", &base, None),
            ("disk_slow", &slow, Some(base.stats.throughput)),
        ] {
            let profiler = r.profiler.as_ref();
            suite.runs.push(RunRecord::from_stats(
                kind.name(),
                fault,
                "",
                &r.stats,
                over,
                profiler,
            ));
        }
    }
    // The multi-group cell: 8 DepFastRaft groups striped over 9 nodes,
    // same small seed/window. Guards the sharded routing + co-located
    // group scheduling path — its aggregate throughput moving is a
    // scale-out regression even when the single-group cells hold.
    suite.config("scale_groups", 8.0);
    suite.config("scale_nodes", 9.0);
    suite.config("scale_clients", 96.0);
    eprintln!("[gate] DepFastRaft 8 groups / 9 nodes healthy...");
    let sharded = Run {
        placement: striped(8, 9),
        n_clients: 96,
        instruments: Instruments::default(),
        ..bench_cell(RaftKind::DepFast)
    };
    suite.runs.push(RunRecord::from_stats(
        RaftKind::DepFast.name(),
        "none",
        &sharded.cluster_label(),
        &sharded.execute().stats,
        None,
        None,
    ));
    Ok(live)
}

/// The shape of every detect / scenario cell: 64 clients, 2 s warm-up,
/// 3.2 s measurement, 10 K records — the catalog's faults land at 2 s,
/// after the detector's warm-up windows (5 × 200 ms of polling need
/// healthy traffic first), and heal 1.2 s later, before the run ends,
/// so time-to-recover is observable.
pub fn episode(kind: RaftKind, dcfg: DetectorCfg) -> Run {
    Run {
        kind,
        n_clients: 64,
        seed: GATE_SEED,
        warmup: Duration::from_secs(2),
        measure: Duration::from_millis(3200),
        records: 10_000,
        ..Run::default()
    }
    .with_detector(dcfg)
}

const EPISODE_AT: Duration = Duration::from_secs(2);
const EPISODE_FOR: Option<Duration> = Some(Duration::from_millis(1200));

/// Runs the detection-quality suite. `report` also prints each cell's
/// incident report.
pub fn detect(report: bool) -> Result<Live, String> {
    let mut live = Live::new("detect");
    let suite = &mut live.suite;
    suite.config("clients", 64.0);
    suite.config("warmup_secs", 2.0);
    suite.config("measure_secs", 3.2);
    suite.config("records", 10_000.0);
    suite.config("fault_at_secs", 2.0);
    suite.config("fault_duration_secs", 1.2);
    suite.config("recovery_band", RECOVERY_BAND);
    // Blast-radius cells: 8 groups of 3 striped over 9 nodes put node 8
    // under exactly two groups (g7, g8 — as a follower in both); one
    // disk-slow episode there yields eight per-group scorecards. The
    // gate pins the whole split: the two hosted groups must keep
    // detecting the fault inside their replica set, and the other six
    // must stay all-zero — a detector that starts bleeding suspicion
    // across group boundaries fails CI.
    suite.config("blast_groups", 8.0);
    suite.config("blast_nodes", 9.0);
    suite.config("blast_fault_node", 8.0);
    for kind in [RaftKind::DepFast, RaftKind::Sync] {
        let healthy = episode(kind, gate_detector_cfg());
        let faulted = healthy
            .clone()
            .with_fault([2], DISK_SLOW, EPISODE_AT, EPISODE_FOR);
        for run in [healthy, faulted] {
            eprintln!("[gate] {} / {}...", kind.name(), run.fault);
            live.push_detect(&run.execute().dump(), report);
        }
    }
    for kind in [RaftKind::DepFast, RaftKind::Sync] {
        eprintln!(
            "[gate] {} / blast radius (8 groups, disk-slow node 8)...",
            kind.name()
        );
        let run = Run {
            placement: striped(8, 9),
            ..episode(kind, gate_detector_cfg())
        }
        .with_fault([8], DISK_SLOW, EPISODE_AT, EPISODE_FOR);
        for dump in run.execute().group_dumps() {
            live.push_detect(&dump, report);
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

/// The fixed retry-storm pair: the same short severe leader fault and
/// aggressive-timeout client population, with and without a client-side
/// retry budget (token-bucket admission), so the survival report reads
/// as an ablation. A storm cell measures how the *client population*
/// survives: the fault can tip the system into a metastable state where
/// the retries themselves keep goodput collapsed long after it cleared
/// — the "Building on Quicksand" feedback loop. No leader mitigation is
/// armed: the retry budget is the only intervention under test. The
/// measurement window is long enough to observe the post-clear regime.
pub fn storm_catalog() -> Vec<Run> {
    let aggressive = RetryPolicy::aggressive(Duration::from_millis(150), 8);
    let budget = aggressive.with_budget(RetryBudget {
        rate_per_sec: 4.0,
        burst: 2.0,
    });
    [("retry-storm", aggressive), ("retry-storm-budget", budget)]
        .into_iter()
        .map(|(name, policy)| {
            let mut run = Run {
                n_clients: 160,
                measure: Duration::from_millis(5500),
                ..episode(RaftKind::DepFast, matrix_detector_cfg())
            }
            .with_fault(
                [0],
                FaultKind::CpuSlow { quota: 0.02 },
                Duration::from_millis(2500),
                Some(Duration::from_secs(1)),
            );
            run.fault = name.to_string();
            run.instruments.retry = Some(policy);
            run
        })
        .collect()
}

/// The allowlist in `var` as a predicate on names (everything passes
/// when it is unset).
/// One scenario × driver cell of the survival matrix.
pub fn matrix_cell(scenario: &Scenario, kind: RaftKind) -> Result<SurvivalCell, CompileError> {
    let run = episode(kind, matrix_detector_cfg()).with_scenario(scenario)?;
    Ok(run.execute().survival(MATRIX_STALL_LIMIT))
}

fn env_filter(var: &str) -> impl Fn(&str) -> bool {
    let list = std::env::var(var).ok();
    if let Some(list) = &list {
        eprintln!("[gate] {var} set: suite filtered to {list:?}");
    }
    move |name| {
        list.as_ref().is_none_or(|l| {
            l.split(',')
                .map(str::trim)
                .any(|a| !a.is_empty() && name.contains(a))
        })
    }
}

/// Runs the survival suite, shrunk by [`SCENARIO_FILTERS`] when set.
/// `report` also prints the survival tables.
pub fn scenario(report: bool) -> Result<Live, String> {
    let [keep_scenario, keep_driver] = SCENARIO_FILTERS.map(env_filter);
    let mut live = Live::new("scenarios");
    let base = episode(RaftKind::DepFast, matrix_detector_cfg());
    let suite = &mut live.suite;
    suite.config("n_servers", 3.0);
    suite.config("clients", base.n_clients as f64);
    suite.config("warmup_secs", base.warmup.as_secs_f64());
    suite.config("measure_secs", base.measure.as_secs_f64());
    suite.config("records", base.records as f64);
    suite.config("stall_limit_secs", MATRIX_STALL_LIMIT.as_secs_f64());
    suite.config("recovery_band", RECOVERY_BAND);
    suite.config("storm_stall_limit_secs", STORM_STALL_LIMIT.as_secs_f64());
    let mut cells = Vec::new();
    for s in depfast_scenario::catalog() {
        for kind in ALL_DRIVERS {
            if !keep_scenario(&s.name) || !keep_driver(kind.name()) {
                continue;
            }
            let cell = matrix_cell(&s, kind)
                .map_err(|e| format!("scenario {} failed to compile: {e}", s.name))?;
            live.push_survival(&cell);
            cells.push(cell);
        }
    }
    let mut storm_cells = Vec::new();
    for run in storm_catalog() {
        if keep_scenario(&run.fault) {
            let cell = run.execute().survival(STORM_STALL_LIMIT);
            live.push_survival(&cell);
            storm_cells.push(cell);
        }
    }
    if report {
        let table = |title, cells: &[SurvivalCell]| {
            print!("{}", render_survival_report(title, cells, GATE_SEED));
        };
        table("Scenario survival matrix", &cells);
        if !storm_cells.is_empty() {
            table("Retry-storm ablation", &storm_cells);
        }
    }
    Ok(live)
}
