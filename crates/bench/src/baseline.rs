//! Machine-readable suites and the regression gate.
//!
//! Every bench emitter rolls its runs into a [`Suite`] and writes it as
//! `BENCH_<suite>.json` at the repo root via
//! [`crate::write_repo_artifact`]. A suite carries up to three sections,
//! each a list of cells keyed within the section: perf `runs`
//! ([`RunRecord`]), `detect` scorecards ([`DetectRecord`]) and
//! `scenarios` survival verdicts ([`ScenarioRecord`]). The `gate` binary
//! re-runs a fixed-seed suite and [`compare`]s it against its committed
//! baseline, exiting nonzero on regression; CI runs that on every push.
//!
//! Simulated time is deterministic, so the numbers only move when the
//! code's behavior moves — the tolerance bands exist for intentional
//! drift (tuning, new instrumentation on the simulated CPU), not for
//! noise. Throughput is gated tighter than tail latency because the
//! paper's claims are throughput-shaped. Correctness verdicts — liveness,
//! crashes, lost detections, false positives / negatives,
//! misattributions, a storm newly outliving its fault — are gated at
//! zero: a detector that cries wolf or blames the wrong node is broken
//! no matter how fast it is.

use std::path::Path;

use crate::experiment::SurvivalCell;
use crate::json::Json;
use depfast_incident::{IncidentDump, ScoreCell};
use depfast_profile::Profiler;
use depfast_ycsb::driver::RunStats;

/// Format marker embedded in every artifact.
pub const SCHEMA: &str = "depfast-bench/v1";

/// Max allowed relative throughput drop of a perf cell (−8%).
pub const THROUGHPUT_DROP: f64 = 0.08;
/// Max allowed relative P99 rise of a perf cell (+30%).
pub const P99_RISE: f64 = 0.30;
/// Max allowed relative rise of time-to-detect / time-to-stabilize…
pub const TIME_RISE: f64 = 0.5;
/// …plus this absolute slack, milliseconds (one detector poll window of
/// jitter is legitimate when event interleavings shift). A 2× regression
/// at realistic times always trips the band.
pub const TIME_SLACK_MS: f64 = 50.0;
/// Relative throughput drift of a scenario cell that earns a note (the
/// perf cells own those numbers; double-gating them would make every
/// calibration change fail twice).
pub const THROUGHPUT_NOTE: f64 = 0.10;

/// A cell of one suite section: serializable, keyed, diffable.
trait Cell: Sized {
    /// The section's JSON key, also naming it in gate messages.
    const SECTION: &'static str;
    fn key(&self) -> String;
    fn to_json(&self) -> Json;
    fn from_json(v: &Json) -> Result<Self, String>;
    /// Diffs `cur` against `self`, the baseline cell of the same key.
    fn check(&self, cur: &Self, key: &str, out: &mut GateOutcome);
}

fn str_field(v: &Json, k: &str) -> Result<String, String> {
    v.str(k)
        .map(str::to_string)
        .ok_or_else(|| format!("record missing string field {k:?}"))
}

fn num_field(v: &Json, k: &str) -> Result<f64, String> {
    v.num(k)
        .ok_or_else(|| format!("record missing numeric field {k:?}"))
}

fn flag(v: &Json, k: &str) -> bool {
    matches!(v.get(k), Some(Json::Bool(true)))
}

/// Sets `k` only when there is a measurement: an absent key means "no
/// measurement", distinct from 0.0.
fn set_opt(o: &mut Json, k: &str, v: Option<f64>) {
    if let Some(v) = v {
        o.set(k, Json::Num(round4(v)));
    }
}

fn round2(v: f64) -> f64 {
    (v * 1e2).round() / 1e2
}

fn round4(v: f64) -> f64 {
    (v * 1e4).round() / 1e4
}

/// Fails `what` when it rose past `base × (1 + TIME_RISE) + TIME_SLACK_MS`.
fn check_time(what: &str, base: f64, cur: f64, key: &str, out: &mut GateOutcome) {
    let limit = base * (1.0 + TIME_RISE) + TIME_SLACK_MS;
    if cur > limit {
        out.failures.push(format!(
            "[{key}] {what} {base:.1} → {cur:.1} ms (limit {limit:.1} ms)"
        ));
    }
}

/// One (driver, fault, cluster) measurement cell.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Raft driver name (`RaftKind::name()`).
    pub driver: String,
    /// Fault-class name, `"none"` for the healthy baseline.
    pub fault: String,
    /// Cluster shape discriminator (e.g. `"3_nodes"`); empty when the
    /// suite has only one shape.
    pub cluster: String,
    /// Committed operations in the measurement window.
    pub ops: u64,
    /// Requests per second.
    pub throughput: f64,
    /// Mean latency, milliseconds.
    pub mean_ms: f64,
    /// Median latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile latency, milliseconds.
    pub p99_ms: f64,
    /// Whether a server crashed during the run (RethinkDB-style leaders
    /// do, under CPU faults).
    pub crashed: bool,
    /// Throughput normalized to the same driver+cluster healthy run
    /// (1.0 for the baseline itself).
    pub drift: f64,
    /// Wait-state profiler rollup: total nanoseconds per site, summed
    /// across nodes and phases. Empty when the run was not profiled.
    pub profile: Vec<(String, u64)>,
}

impl RunRecord {
    /// Builds a record from workload statistics. `base_throughput` is the
    /// same driver+cluster healthy-run throughput (drift denominator).
    pub fn from_stats(
        driver: &str,
        fault: &str,
        cluster: &str,
        stats: &RunStats,
        base_throughput: Option<f64>,
        profiler: Option<&Profiler>,
    ) -> RunRecord {
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        let mut profile = std::collections::BTreeMap::<String, u64>::new();
        for line in profiler.map(Profiler::lines).unwrap_or_default() {
            *profile.entry(line.site).or_insert(0) += line.nanos;
        }
        RunRecord {
            driver: driver.to_string(),
            fault: fault.to_string(),
            cluster: cluster.to_string(),
            ops: stats.ops,
            throughput: stats.throughput,
            mean_ms: ms(stats.latency.mean),
            p50_ms: ms(stats.latency.p50),
            p99_ms: ms(stats.latency.p99),
            crashed: stats.server_crashed,
            drift: match base_throughput {
                Some(b) if b > 0.0 => stats.throughput / b,
                _ => 1.0,
            },
            profile: profile.into_iter().collect(),
        }
    }
}

impl Cell for RunRecord {
    const SECTION: &'static str = "runs";

    fn key(&self) -> String {
        format!("{} | {} | {}", self.driver, self.cluster, self.fault)
    }

    fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("driver", Json::Str(self.driver.clone()));
        o.set("fault", Json::Str(self.fault.clone()));
        o.set("cluster", Json::Str(self.cluster.clone()));
        o.set("ops", Json::Num(self.ops as f64));
        o.set("throughput", Json::Num(round2(self.throughput)));
        o.set("mean_ms", Json::Num(round4(self.mean_ms)));
        o.set("p50_ms", Json::Num(round4(self.p50_ms)));
        o.set("p99_ms", Json::Num(round4(self.p99_ms)));
        o.set("crashed", Json::Bool(self.crashed));
        o.set("drift", Json::Num(round4(self.drift)));
        let mut sites = Vec::new();
        for (site, nanos) in &self.profile {
            let mut s = Json::obj();
            s.set("site", Json::Str(site.clone()));
            s.set("ns", Json::Num(*nanos as f64));
            sites.push(s);
        }
        o.set("profile", Json::Arr(sites));
        o
    }

    fn from_json(v: &Json) -> Result<RunRecord, String> {
        let mut profile = Vec::new();
        for s in v.get("profile").and_then(Json::as_arr).unwrap_or(&[]) {
            profile.push((
                s.str("site").unwrap_or("").to_string(),
                s.num("ns").unwrap_or(0.0) as u64,
            ));
        }
        Ok(RunRecord {
            driver: str_field(v, "driver")?,
            fault: str_field(v, "fault")?,
            cluster: str_field(v, "cluster")?,
            ops: num_field(v, "ops")? as u64,
            throughput: num_field(v, "throughput")?,
            mean_ms: num_field(v, "mean_ms")?,
            p50_ms: num_field(v, "p50_ms")?,
            p99_ms: num_field(v, "p99_ms")?,
            crashed: flag(v, "crashed"),
            drift: v.num("drift").unwrap_or(1.0),
            profile,
        })
    }

    /// Fails when throughput drops more than [`THROUGHPUT_DROP`], P99
    /// rises more than [`P99_RISE`], or the cell crashes where the
    /// baseline did not. Improvements are notes.
    fn check(&self, cur: &RunRecord, key: &str, out: &mut GateOutcome) {
        if cur.crashed && !self.crashed {
            out.failures
                .push(format!("[{key}] crashed (baseline did not)"));
            return;
        }
        if self.crashed {
            // Crash cells have no meaningful numbers; matching crash
            // behavior is all the gate asks.
            if !cur.crashed {
                out.notes.push(format!("[{key}] no longer crashes"));
            }
            return;
        }
        if self.throughput > 0.0 {
            let rel = cur.throughput / self.throughput - 1.0;
            if rel < -THROUGHPUT_DROP {
                out.failures.push(format!(
                    "[{key}] throughput {:.0} → {:.0} req/s ({:+.1}%, tolerance −{:.0}%)",
                    self.throughput,
                    cur.throughput,
                    rel * 100.0,
                    THROUGHPUT_DROP * 100.0
                ));
            } else if rel > THROUGHPUT_DROP {
                out.notes.push(format!(
                    "[{key}] throughput improved {:+.1}% — consider refreshing the baseline",
                    rel * 100.0
                ));
            }
        }
        if self.p99_ms > 0.0 {
            let rel = cur.p99_ms / self.p99_ms - 1.0;
            if rel > P99_RISE {
                out.failures.push(format!(
                    "[{key}] p99 {:.2} → {:.2} ms ({:+.1}%, tolerance +{:.0}%)",
                    self.p99_ms,
                    cur.p99_ms,
                    rel * 100.0,
                    P99_RISE * 100.0
                ));
            }
        }
    }
}

/// Detection quality of one cell — the suite-level form of
/// `depfast_incident::ScoreCell`, times in milliseconds. Embedded by
/// both [`DetectRecord`] and [`ScenarioRecord`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Detection {
    /// Every injected fault was suspected (vacuously false with no fault).
    pub detected: bool,
    /// Time to detect, milliseconds.
    pub ttd_ms: Option<f64>,
    /// Time to mitigate, milliseconds.
    pub ttm_ms: Option<f64>,
    /// Time to recover, milliseconds.
    pub ttr_ms: Option<f64>,
    /// Suspicions with no fault injected anywhere.
    pub false_positives: u64,
    /// Injected faults never suspected.
    pub false_negatives: u64,
    /// Suspicions of healthy nodes during a fault elsewhere.
    pub misattributions: u64,
}

fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

impl Detection {
    /// Lifts a scorecard cell.
    pub fn from_score(cell: &ScoreCell) -> Detection {
        Detection {
            detected: cell.detected,
            ttd_ms: cell.ttd_ns.map(ns_to_ms),
            ttm_ms: cell.ttm_ns.map(ns_to_ms),
            ttr_ms: cell.ttr_ns.map(ns_to_ms),
            false_positives: cell.false_positives,
            false_negatives: cell.false_negatives,
            misattributions: cell.misattributions,
        }
    }

    fn write(&self, o: &mut Json) {
        o.set("detected", Json::Bool(self.detected));
        set_opt(o, "ttd_ms", self.ttd_ms);
        set_opt(o, "ttm_ms", self.ttm_ms);
        set_opt(o, "ttr_ms", self.ttr_ms);
        o.set("false_positives", Json::Num(self.false_positives as f64));
        o.set("false_negatives", Json::Num(self.false_negatives as f64));
        o.set("misattributions", Json::Num(self.misattributions as f64));
    }

    fn read(v: &Json) -> Detection {
        Detection {
            detected: flag(v, "detected"),
            ttd_ms: v.num("ttd_ms"),
            ttm_ms: v.num("ttm_ms"),
            ttr_ms: v.num("ttr_ms"),
            false_positives: v.num("false_positives").unwrap_or(0.0) as u64,
            false_negatives: v.num("false_negatives").unwrap_or(0.0) as u64,
            misattributions: v.num("misattributions").unwrap_or(0.0) as u64,
        }
    }

    /// Fails on a lost detection, a grown false-positive /
    /// false-negative / misattribution count, or a time-to-detect past
    /// its band. A halved time-to-detect is a note.
    fn check(&self, cur: &Detection, key: &str, out: &mut GateOutcome) {
        if self.detected && !cur.detected {
            out.failures
                .push(format!("[{key}] fault no longer detected"));
        }
        for (what, b, c) in [
            ("false positives", self.false_positives, cur.false_positives),
            ("false negatives", self.false_negatives, cur.false_negatives),
            ("misattributions", self.misattributions, cur.misattributions),
        ] {
            if c > b {
                out.failures.push(format!("[{key}] {what} {b} → {c}"));
            }
        }
        if let (Some(b), Some(c)) = (self.ttd_ms, cur.ttd_ms) {
            check_time("time-to-detect", b, c, key, out);
            if c < b * 0.5 {
                out.notes.push(format!(
                    "[{key}] time-to-detect improved {b:.1} → {c:.1} ms — consider refreshing the baseline"
                ));
            }
        }
    }
}

/// Detection quality of one `(driver, fault, cluster)` cell.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectRecord {
    /// Raft driver name (`RaftKind::name()`).
    pub driver: String,
    /// Fault-class name, `"none"` for the no-fault matrix.
    pub fault: String,
    /// Cluster shape discriminator.
    pub cluster: String,
    /// The scorecard.
    pub quality: Detection,
}

impl DetectRecord {
    /// Scores nothing itself: lifts a dump's identity and its scorecard
    /// cell into a suite record.
    pub fn from_cell(dump: &IncidentDump, cell: &ScoreCell) -> DetectRecord {
        DetectRecord {
            driver: dump.driver.clone(),
            fault: dump.fault.clone(),
            cluster: dump.cluster.clone(),
            quality: Detection::from_score(cell),
        }
    }
}

impl Cell for DetectRecord {
    const SECTION: &'static str = "detect";

    fn key(&self) -> String {
        format!("{} | {} | {}", self.driver, self.cluster, self.fault)
    }

    fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("driver", Json::Str(self.driver.clone()));
        o.set("fault", Json::Str(self.fault.clone()));
        o.set("cluster", Json::Str(self.cluster.clone()));
        self.quality.write(&mut o);
        o
    }

    fn from_json(v: &Json) -> Result<DetectRecord, String> {
        Ok(DetectRecord {
            driver: str_field(v, "driver")?,
            fault: str_field(v, "fault")?,
            cluster: str_field(v, "cluster")?,
            quality: Detection::read(v),
        })
    }

    fn check(&self, cur: &DetectRecord, key: &str, out: &mut GateOutcome) {
        self.quality.check(&cur.quality, key, out);
    }
}

/// One scenario × driver survival cell: liveness plus client-visible
/// survival numbers plus detection quality.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRecord {
    /// Scenario name (DSL catalog key).
    pub scenario: String,
    /// Raft driver name (`RaftKind::name()`).
    pub driver: String,
    /// Liveness verdict: no crash, work completed, no over-limit stall.
    pub live: bool,
    /// Any server node crashed during the cell.
    pub crashed: bool,
    /// Measurement-window throughput (ops/s).
    pub throughput: f64,
    /// Minimum post-onset throughput sample (ops/s).
    pub floor: f64,
    /// Client-visible p99 latency, milliseconds.
    pub p99_ms: f64,
    /// Longest post-warm-up stall, milliseconds.
    pub stall_ms: f64,
    /// The scorecard.
    pub quality: Detection,
    /// Time to stabilize, milliseconds: fault-clear → `storm_cleared`.
    /// `None` in a storm cell means the storm never dissolved; also
    /// `None` for cells without a storm monitor.
    pub tts_ms: Option<f64>,
    /// Storm verdict: `Some(true)` when a retry storm outlived its
    /// fault (metastable), `Some(false)` when monitored and it did not,
    /// `None` for cells without a storm monitor.
    pub storm_sustained: Option<bool>,
    /// Retry amplification (attempts per fresh op) at/after fault
    /// onset. `None` for cells without a storm monitor.
    pub amp: Option<f64>,
}

impl ScenarioRecord {
    /// Lifts a survival cell. The storm columns are set only for
    /// storm-monitored cells (those carrying an amplification factor).
    pub fn from_cell(cell: &SurvivalCell) -> ScenarioRecord {
        ScenarioRecord {
            scenario: cell.scenario.clone(),
            driver: cell.driver.clone(),
            live: cell.live,
            crashed: cell.crashed,
            throughput: cell.throughput,
            floor: cell.floor,
            p99_ms: cell.p99_ms,
            stall_ms: cell.stall_ms,
            quality: Detection::from_score(&cell.score),
            tts_ms: cell.amp.and(cell.score.tts_ns).map(ns_to_ms),
            storm_sustained: cell.amp.map(|_| cell.score.storm_sustained),
            amp: cell.amp,
        }
    }
}

impl Cell for ScenarioRecord {
    const SECTION: &'static str = "scenarios";

    fn key(&self) -> String {
        format!("{} | {}", self.scenario, self.driver)
    }

    fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("scenario", Json::Str(self.scenario.clone()));
        o.set("driver", Json::Str(self.driver.clone()));
        o.set("live", Json::Bool(self.live));
        o.set("crashed", Json::Bool(self.crashed));
        o.set("throughput", Json::Num(round2(self.throughput)));
        o.set("floor", Json::Num(round2(self.floor)));
        o.set("p99_ms", Json::Num(round4(self.p99_ms)));
        o.set("stall_ms", Json::Num(round2(self.stall_ms)));
        self.quality.write(&mut o);
        // Storm columns: emitted only for storm-monitored cells.
        set_opt(&mut o, "tts_ms", self.tts_ms);
        if let Some(v) = self.storm_sustained {
            o.set("storm_sustained", Json::Bool(v));
        }
        set_opt(&mut o, "amp", self.amp);
        o
    }

    fn from_json(v: &Json) -> Result<ScenarioRecord, String> {
        Ok(ScenarioRecord {
            scenario: str_field(v, "scenario")?,
            driver: str_field(v, "driver")?,
            live: flag(v, "live"),
            crashed: flag(v, "crashed"),
            throughput: v.num("throughput").unwrap_or(0.0),
            floor: v.num("floor").unwrap_or(0.0),
            p99_ms: v.num("p99_ms").unwrap_or(0.0),
            stall_ms: v.num("stall_ms").unwrap_or(0.0),
            quality: Detection::read(v),
            tts_ms: v.num("tts_ms"),
            storm_sustained: match v.get("storm_sustained") {
                Some(Json::Bool(b)) => Some(*b),
                _ => None,
            },
            amp: v.num("amp"),
        })
    }

    /// Fails on a liveness flip, a new crash, any [`Detection`] failure,
    /// a retry storm that newly outlives its fault, or a lost or slowed
    /// stabilization. Verdict improvements and throughput drift are
    /// notes.
    fn check(&self, cur: &ScenarioRecord, key: &str, out: &mut GateOutcome) {
        if self.live && !cur.live {
            out.failures.push(format!(
                "[{key}] liveness verdict flipped: live → {}",
                if cur.crashed { "crashed" } else { "stalled" }
            ));
        } else if !self.live && cur.live {
            out.notes.push(format!(
                "[{key}] now survives (baseline did not) — consider refreshing the baseline"
            ));
        }
        if cur.crashed && !self.crashed {
            out.failures
                .push(format!("[{key}] crashed (baseline did not)"));
        }
        self.quality.check(&cur.quality, key, out);
        match (self.storm_sustained, cur.storm_sustained) {
            (Some(false), Some(true)) => out.failures.push(format!(
                "[{key}] retry storm now sustained past fault clear (metastable)"
            )),
            (Some(true), Some(false)) => out.notes.push(format!(
                "[{key}] retry storm no longer sustained — consider refreshing the baseline"
            )),
            _ => {}
        }
        match (self.tts_ms, cur.tts_ms) {
            (Some(b), Some(c)) => check_time("time-to-stabilize", b, c, key, out),
            (Some(b), None) if cur.storm_sustained.is_some() => {
                out.failures.push(format!(
                    "[{key}] no longer stabilizes (baseline TTS {b:.1} ms, storm never cleared)"
                ));
            }
            (None, Some(c)) => out.notes.push(format!(
                "[{key}] now stabilizes in {c:.1} ms (baseline never did) — consider refreshing the baseline"
            )),
            _ => {}
        }
        if self.throughput > 0.0 {
            let rel = cur.throughput / self.throughput - 1.0;
            if rel.abs() > THROUGHPUT_NOTE {
                out.notes.push(format!(
                    "[{key}] throughput {:.0} → {:.0} op/s ({:+.1}%)",
                    self.throughput,
                    cur.throughput,
                    rel * 100.0
                ));
            }
        }
    }
}

/// A full bench suite: provenance plus the cells of each section.
#[derive(Debug, Clone, PartialEq)]
pub struct Suite {
    /// Suite name (`fig1`, `fig3`, `ablations`, `gate`, `detect`,
    /// `scenarios`).
    pub suite: String,
    /// Determinism seed the runs used.
    pub seed: u64,
    /// Free-form config provenance (clients, measure window, …).
    pub config: Vec<(String, f64)>,
    /// The measurement cells.
    pub runs: Vec<RunRecord>,
    /// Detection-quality cells. The JSON array is emitted only when
    /// nonempty, so pure perf artifacts do not carry it.
    pub detect: Vec<DetectRecord>,
    /// Scenario-matrix survival cells (same emitted-only-when-nonempty
    /// rule as `detect`).
    pub scenarios: Vec<ScenarioRecord>,
}

fn section_to_json<C: Cell>(cells: &[C]) -> Json {
    Json::Arr(cells.iter().map(C::to_json).collect())
}

fn section_from_json<C: Cell>(v: &Json) -> Result<Vec<C>, String> {
    let cells = v.get(C::SECTION).and_then(Json::as_arr).unwrap_or(&[]);
    cells.iter().map(C::from_json).collect()
}

impl Suite {
    /// An empty suite.
    pub fn new(suite: &str, seed: u64) -> Suite {
        Suite {
            suite: suite.to_string(),
            seed,
            config: Vec::new(),
            runs: Vec::new(),
            detect: Vec::new(),
            scenarios: Vec::new(),
        }
    }

    /// Records one config provenance entry.
    pub fn config(&mut self, key: &str, value: f64) {
        self.config.push((key.to_string(), value));
    }

    /// Cells across all sections.
    pub fn cells(&self) -> usize {
        self.runs.len() + self.detect.len() + self.scenarios.len()
    }

    /// Serializes the suite (deterministic bytes for identical content).
    pub fn to_json(&self) -> String {
        let mut o = Json::obj();
        o.set("schema", Json::Str(SCHEMA.to_string()));
        o.set("suite", Json::Str(self.suite.clone()));
        o.set("seed", Json::Num(self.seed as f64));
        let mut cfg = Json::obj();
        for (k, v) in &self.config {
            cfg.set(k, Json::Num(*v));
        }
        o.set("config", cfg);
        o.set(RunRecord::SECTION, section_to_json(&self.runs));
        if !self.detect.is_empty() {
            o.set(DetectRecord::SECTION, section_to_json(&self.detect));
        }
        if !self.scenarios.is_empty() {
            o.set(ScenarioRecord::SECTION, section_to_json(&self.scenarios));
        }
        o.pretty()
    }

    /// Parses a suite previously written by [`Suite::to_json`].
    pub fn parse(text: &str) -> Result<Suite, String> {
        let v = Json::parse(text)?;
        match v.str("schema") {
            Some(SCHEMA) => {}
            Some(other) => return Err(format!("unsupported schema {other:?}")),
            None => return Err("not a bench suite (no schema field)".into()),
        }
        let mut config = Vec::new();
        if let Some(Json::Obj(pairs)) = v.get("config") {
            for (k, val) in pairs {
                if let Some(n) = val.as_f64() {
                    config.push((k.clone(), n));
                }
            }
        }
        Ok(Suite {
            suite: v.str("suite").unwrap_or("?").to_string(),
            seed: v.num("seed").unwrap_or(0.0) as u64,
            config,
            runs: section_from_json(&v)?,
            detect: section_from_json(&v)?,
            scenarios: section_from_json(&v)?,
        })
    }
}

impl Suite {
    /// One human-readable line per cell, section by section (what the
    /// gate prints under its verdict).
    pub fn render_cells(&self) -> String {
        let opt = |v: Option<f64>| v.map_or_else(|| "      -".to_string(), |m| format!("{m:>7.1}"));
        let quality = |q: &Detection| {
            format!(
                "detected={:<5} ttd{} ms  ttm{} ms  ttr{} ms  fp={} fn={} misattr={}",
                q.detected,
                opt(q.ttd_ms),
                opt(q.ttm_ms),
                opt(q.ttr_ms),
                q.false_positives,
                q.false_negatives,
                q.misattributions
            )
        };
        let mut out = String::new();
        for r in &self.runs {
            out += &format!(
                "  {:<45} {:>7.0} req/s  p99 {:>7.2} ms  drift {:.2}\n",
                r.key(),
                r.throughput,
                r.p99_ms,
                r.drift
            );
        }
        for r in &self.detect {
            out += &format!("  {:<45} {}\n", r.key(), quality(&r.quality));
        }
        for r in &self.scenarios {
            let storm = match r.storm_sustained {
                Some(true) => format!("  storm=SUSTAINED amp={:.1}", r.amp.unwrap_or(0.0)),
                Some(false) => format!(
                    "  storm=dissolved tts{} ms amp={:.1}",
                    opt(r.tts_ms),
                    r.amp.unwrap_or(0.0)
                ),
                None => String::new(),
            };
            out += &format!(
                "  {:<55} live={:<5} tput={:>6.0} floor={:>6.0} {}{storm}\n",
                r.key(),
                r.live,
                r.throughput,
                r.floor,
                quality(&r.quality),
            );
        }
        out
    }
}

/// Reads and parses a suite file.
pub fn load_suite(path: &Path) -> Result<Suite, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Suite::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The gate's verdict: hard failures plus informational notes.
#[derive(Debug, Default)]
pub struct GateOutcome {
    /// Cells compared against the baseline.
    pub checked: usize,
    /// Regressions (nonempty ⇒ the gate fails).
    pub failures: Vec<String>,
    /// Non-failing observations (new cells, improvements).
    pub notes: Vec<String>,
}

impl GateOutcome {
    /// True when no cell regressed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// One section's walk: a baseline cell missing from `current` fails, a
/// cell only in `current` is a note, a matched pair is checked.
fn diff<C: Cell>(baseline: &[C], current: &[C], out: &mut GateOutcome) {
    for base in baseline {
        let key = base.key();
        match current.iter().find(|c| c.key() == key) {
            Some(cur) => {
                out.checked += 1;
                base.check(cur, &key, out);
            }
            None => out.failures.push(format!(
                "[{key}] missing from the current suite's {:?}",
                C::SECTION
            )),
        }
    }
    for cur in current {
        let key = cur.key();
        if !baseline.iter().any(|b| b.key() == key) {
            out.notes.push(format!(
                "[{key}] new cell in {:?}, not in baseline",
                C::SECTION
            ));
        }
    }
}

/// Diffs `current` against `baseline`, section by section and cell by
/// cell; see each record's `check` for what fails it.
pub fn compare(baseline: &Suite, current: &Suite) -> GateOutcome {
    let mut out = GateOutcome::default();
    diff(&baseline.runs, &current.runs, &mut out);
    diff(&baseline.detect, &current.detect, &mut out);
    diff(&baseline.scenarios, &current.scenarios, &mut out);
    out
}

/// The one rule for loss: a dump whose health timeline was truncated at
/// the tracer's capacity cap under-counts reactions, so a gate run that
/// produced one fails rather than warns. Returns the failure line.
pub fn health_loss(dump: &IncidentDump) -> Option<String> {
    (dump.health_dropped > 0).then(|| {
        format!(
            "[{} | {} | {}] {} health event(s) dropped at the tracer capacity cap — its scorecard under-counts reactions",
            dump.driver, dump.cluster, dump.fault, dump.health_dropped
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(driver: &str, fault: &str, tput: f64, p99: f64) -> RunRecord {
        RunRecord {
            driver: driver.into(),
            fault: fault.into(),
            cluster: String::new(),
            ops: (tput * 2.0) as u64,
            throughput: tput,
            mean_ms: p99 / 2.0,
            p50_ms: p99 / 4.0,
            p99_ms: p99,
            crashed: false,
            drift: 1.0,
            profile: vec![("cpu".into(), 1_000_000), ("disk:device".into(), 2_000_000)],
        }
    }

    fn suite(runs: Vec<RunRecord>) -> Suite {
        let mut s = Suite::new("gate", 7);
        s.config("clients", 64.0);
        s.runs = runs;
        s
    }

    fn quality(ttd_ms: Option<f64>) -> Detection {
        Detection {
            detected: ttd_ms.is_some(),
            ttd_ms,
            ttm_ms: ttd_ms.map(|v| v + 50.0),
            ttr_ms: ttd_ms.map(|v| v + 500.0),
            ..Detection::default()
        }
    }

    fn detect_record(driver: &str, fault: &str, ttd_ms: Option<f64>) -> DetectRecord {
        DetectRecord {
            driver: driver.into(),
            fault: fault.into(),
            cluster: "3x64".into(),
            quality: quality(ttd_ms),
        }
    }

    fn detect_suite(detect: Vec<DetectRecord>) -> Suite {
        let mut s = Suite::new("detect", 7);
        s.detect = detect;
        s
    }

    fn scenario_record(scenario: &str, driver: &str, live: bool) -> ScenarioRecord {
        ScenarioRecord {
            scenario: scenario.into(),
            driver: driver.into(),
            live,
            crashed: false,
            throughput: 3000.0,
            floor: 800.0,
            p99_ms: 25.0,
            stall_ms: 200.0,
            quality: quality(Some(400.0)),
            tts_ms: None,
            storm_sustained: None,
            amp: None,
        }
    }

    /// A storm-monitored cell: the mitigated shape (stabilizes, not
    /// sustained) unless doctored otherwise.
    fn storm_record(scenario: &str) -> ScenarioRecord {
        let mut r = scenario_record(scenario, "DepFastRaft", true);
        r.tts_ms = Some(800.0);
        r.storm_sustained = Some(false);
        r.amp = Some(1.5);
        r
    }

    fn scenario_suite(scenarios: Vec<ScenarioRecord>) -> Suite {
        let mut s = Suite::new("scenarios", 7);
        s.scenarios = scenarios;
        s
    }

    /// One two-cell suite per section, for the section-generic walk.
    fn one_of_each() -> [Suite; 3] {
        [
            suite(vec![
                record("d", "none", 5000.0, 8.0),
                record("d", "disk_slow", 4000.0, 10.0),
            ]),
            detect_suite(vec![
                detect_record("d", "Disk Slowness", Some(400.0)),
                detect_record("d", "none", None),
            ]),
            scenario_suite(vec![
                scenario_record("disk-slow-follower", "d", true),
                storm_record("retry-storm-budget"),
            ]),
        ]
    }

    fn drop_last(mut s: Suite) -> Suite {
        let _ = s.runs.pop().is_some() || s.detect.pop().is_some() || s.scenarios.pop().is_some();
        s
    }

    #[test]
    fn every_section_round_trips_passes_itself_and_flags_missing_and_new_cells() {
        for s in one_of_each() {
            let text = s.to_json();
            assert_eq!(text, s.to_json(), "serialization must be deterministic");
            let back = Suite::parse(&text).unwrap();
            assert_eq!(back, s);
            assert_eq!(back.to_json(), text);

            let same = compare(&s, &s);
            assert!(same.passed(), "{:?}", same.failures);
            assert!(same.notes.is_empty(), "{:?}", same.notes);
            assert_eq!(same.checked, 2);

            let short = drop_last(s.clone());
            assert_eq!(short.cells(), 1, "{}", s.suite);
            let missing = compare(&s, &short);
            assert_eq!(missing.failures.len(), 1, "{:?}", missing.failures);
            assert!(missing.failures[0].contains("missing"));
            let new = compare(&short, &s);
            assert!(new.passed(), "{:?}", new.failures);
            assert_eq!(new.notes.len(), 1, "{:?}", new.notes);
            assert!(new.notes[0].contains("new cell"));
        }
    }

    #[test]
    fn rounding_happens_at_serialization_and_optional_parts_stay_absent() {
        // A parse → serialize cycle is idempotent even for values with
        // more precision than stored.
        let mut ragged = suite(vec![record("DepFastRaft", "none", 5000.0, 8.0)]);
        ragged.runs[0].mean_ms = 2.0 / 3.0;
        let text = ragged.to_json();
        assert_eq!(Suite::parse(&text).unwrap().to_json(), text);
        // A pure perf suite carries no other section's array.
        assert!(!text.contains("detect") && !text.contains("scenarios"));
        // Absent optional times stay absent, and storm keys appear only
        // on storm-monitored cells.
        let [_, detect, scenarios] = one_of_each();
        let back = Suite::parse(&detect.to_json()).unwrap();
        assert!(back.detect[1].quality.ttd_ms.is_none());
        let text = scenarios.to_json();
        assert_eq!(text.matches("storm_sustained").count(), 1);
        assert_eq!(text.matches("tts_ms").count(), 1);
        assert_eq!(text.matches("\"amp\"").count(), 1);
    }

    #[test]
    fn parse_rejects_foreign_json() {
        assert!(Suite::parse("{\"schema\": \"other/v9\"}").is_err());
        assert!(Suite::parse("[1,2,3]").is_err());
    }

    fn compare_runs(base: RunRecord, cur: RunRecord) -> GateOutcome {
        compare(&suite(vec![base]), &suite(vec![cur]))
    }

    #[test]
    fn ten_percent_throughput_regression_fails() {
        let out = compare_runs(
            record("d", "none", 5000.0, 8.0),
            record("d", "none", 4500.0, 8.0),
        );
        assert!(!out.passed());
        assert!(out.failures[0].contains("throughput"), "{:?}", out.failures);
    }

    #[test]
    fn small_drift_inside_the_band_passes() {
        let out = compare_runs(
            record("d", "none", 5000.0, 8.0),
            record("d", "none", 4800.0, 9.0),
        );
        assert!(out.passed(), "{:?}", out.failures);
    }

    #[test]
    fn p99_blowup_fails() {
        let out = compare_runs(
            record("d", "none", 5000.0, 8.0),
            record("d", "none", 5000.0, 12.0),
        );
        assert!(!out.passed());
        assert!(out.failures[0].contains("p99"), "{:?}", out.failures);
    }

    #[test]
    fn new_crash_fails_but_a_pinned_crash_passes() {
        let mut crashed = record("d", "cpu_slow", 0.0, 0.0);
        crashed.crashed = true;
        let out = compare_runs(record("d", "cpu_slow", 5000.0, 8.0), crashed.clone());
        assert_eq!(out.failures.len(), 1, "{:?}", out.failures);
        assert!(out.failures[0].contains("crashed"));
        // A cell that crashed in the baseline and still crashes is fine.
        assert!(compare_runs(crashed.clone(), crashed).passed());
    }

    #[test]
    fn throughput_improvement_is_a_note() {
        let out = compare_runs(
            record("d", "none", 5000.0, 8.0),
            record("d", "none", 6000.0, 8.0),
        );
        assert!(out.passed(), "{:?}", out.failures);
        assert_eq!(out.notes.len(), 1, "{:?}", out.notes);
    }

    /// The five detection checks are defined once; both embedding
    /// sections must trip each of them.
    #[test]
    fn detection_regressions_fail_in_both_embedding_sections() {
        type Doctor = fn(&mut Detection);
        let cases: [(&str, Doctor); 5] = [
            ("time-to-detect", |q| q.ttd_ms = Some(800.0)),
            ("false positives", |q| q.false_positives = 1),
            ("false negatives", |q| q.false_negatives = 1),
            ("misattributions", |q| q.misattributions = 1),
            ("no longer detected", |q| q.detected = false),
        ];
        for (what, doctor) in cases {
            let base = detect_record("d", "Disk Slowness", Some(400.0));
            let mut cur = base.clone();
            doctor(&mut cur.quality);
            let out = compare(&detect_suite(vec![base]), &detect_suite(vec![cur]));
            assert_eq!(out.failures.len(), 1, "{what}: {:?}", out.failures);
            assert!(out.failures[0].contains(what), "{:?}", out.failures);

            let base = scenario_record("leader-cpu-slow", "d", true);
            let mut cur = base.clone();
            doctor(&mut cur.quality);
            let out = compare(&scenario_suite(vec![base]), &scenario_suite(vec![cur]));
            assert_eq!(out.failures.len(), 1, "{what}: {:?}", out.failures);
            assert!(out.failures[0].contains(what), "{:?}", out.failures);
        }
    }

    #[test]
    fn detection_improvement_is_a_note() {
        let out = compare(
            &detect_suite(vec![detect_record("d", "Disk Slowness", Some(400.0))]),
            &detect_suite(vec![detect_record("d", "Disk Slowness", Some(150.0))]),
        );
        assert!(out.passed(), "{:?}", out.failures);
        assert_eq!(out.notes.len(), 1, "{:?}", out.notes);
    }

    fn compare_scenarios(base: ScenarioRecord, cur: ScenarioRecord) -> GateOutcome {
        compare(&scenario_suite(vec![base]), &scenario_suite(vec![cur]))
    }

    #[test]
    fn liveness_flip_fails_the_scenario_gate() {
        let mut flipped = scenario_record("partial-partition", "d", false);
        flipped.stall_ms = 3000.0;
        let out = compare_scenarios(scenario_record("partial-partition", "d", true), flipped);
        assert!(!out.passed());
        assert!(
            out.failures[0].contains("liveness verdict flipped"),
            "{:?}",
            out.failures
        );
    }

    #[test]
    fn scenario_throughput_drift_is_a_note_not_a_failure() {
        let mut slower = scenario_record("ramp-net-follower", "d", true);
        slower.throughput = 2000.0;
        let out = compare_scenarios(scenario_record("ramp-net-follower", "d", true), slower);
        assert!(out.passed(), "{:?}", out.failures);
        assert_eq!(out.notes.len(), 1, "{:?}", out.notes);
    }

    #[test]
    fn sustained_storm_flip_fails_the_gate() {
        let mut flipped = storm_record("retry-storm-budget");
        flipped.storm_sustained = Some(true);
        flipped.tts_ms = None;
        let out = compare_scenarios(storm_record("retry-storm-budget"), flipped);
        for what in ["sustained", "no longer stabilizes"] {
            assert!(
                out.failures.iter().any(|f| f.contains(what)),
                "{what}: {:?}",
                out.failures
            );
        }
    }

    #[test]
    fn doubled_tts_fails_the_gate_but_dissolving_is_a_note() {
        let mut slower = storm_record("retry-storm-budget");
        slower.tts_ms = Some(1600.0);
        let out = compare_scenarios(storm_record("retry-storm-budget"), slower);
        assert!(!out.passed());
        assert!(
            out.failures.iter().any(|f| f.contains("time-to-stabilize")),
            "{:?}",
            out.failures
        );
        // The unmitigated cell learning to stabilize is an improvement.
        let mut sustained_base = storm_record("retry-storm");
        sustained_base.storm_sustained = Some(true);
        sustained_base.tts_ms = None;
        sustained_base.live = false;
        let mut healed = sustained_base.clone();
        healed.storm_sustained = Some(false);
        healed.tts_ms = Some(500.0);
        let out = compare_scenarios(sustained_base, healed);
        assert!(out.passed(), "{:?}", out.failures);
        assert!(out.notes.len() >= 2, "{:?}", out.notes);
    }

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
