//! The cell vocabulary and the suite-file format: what a bench suite
//! holds and how it is written, read back and printed.
//!
//! Every bench emitter rolls its runs into a [`Suite`] and writes it as
//! `BENCH_<suite>.json` at the repo root via
//! [`crate::write_repo_artifact`]. A suite carries up to three sections,
//! each a list of cells keyed within the section: perf `runs`
//! ([`RunRecord`]), `detect` scorecards ([`DetectRecord`]) and
//! `scenarios` survival verdicts ([`ScenarioRecord`]).
//!
//! Which fields a cell has, how each is rounded, when it is omitted and
//! how it prints is decided here and nowhere else: each section states
//! its columns once (`Cell::columns` — JSON key, table header, the field
//! and how it is stored), and [`Suite::to_json`], the strict
//! [`Suite::parse`] and every table a cell is printed in walk that
//! list. What fails the gate is policy, not format: [`crate::baseline`].

use crate::json::Json;
use crate::report::Table;
use depfast_incident::{score, IncidentDump, ScoreCell, RECOVERY_BAND};

/// Format marker embedded in every artifact.
pub const SCHEMA: &str = "depfast-bench/v1";

/// One field of a cell, borrowed for a walk over its columns; the kind
/// decides the JSON encoding. Borrowed mutably because parsing fills
/// the same fields writing reads — writers and tables walk a copy.
pub(crate) enum Slot<'a> {
    /// A label. An empty one counts as absent in tables.
    Text(&'a mut String),
    /// `true` / `false`.
    Flag(&'a mut bool),
    /// An integer count.
    Count(&'a mut u64),
    /// A measurement: rounded by the given function when written, shown
    /// with the given number of decimals in tables.
    Num(&'a mut f64, fn(f64) -> f64, usize),
    /// A [`Slot::Num`] that is omitted while there is no measurement —
    /// an absent key is distinct from 0.0.
    OptNum(&'a mut Option<f64>, fn(f64) -> f64, usize),
    /// A time held in nanoseconds and written as [`round4`]
    /// milliseconds (which survives the ms → ns → ms trip exactly);
    /// omitted while `None`.
    Ms(&'a mut Option<u64>),
    /// The wait-profile rollup, an array of `{site, ns}`. Not tabulated.
    Sites(&'a mut Vec<(String, u64)>),
}
use Slot::{Count, Flag, Ms, Num, OptNum, Sites, Text};

/// One column of a cell: everything the file format and the tables know
/// about a field.
pub(crate) struct Column<'a> {
    /// JSON key.
    key: &'static str,
    /// Table header.
    header: &'static str,
    slot: Slot<'a>,
    /// `false` when the column belongs to an optional part this cell
    /// lacks: it is not written, and may be absent on read.
    present: bool,
}

fn col<'a>(key: &'static str, header: &'static str, slot: Slot<'a>) -> Column<'a> {
    Column {
        key,
        header,
        slot,
        present: true,
    }
}

fn round2(v: f64) -> f64 {
    (v * 1e2).round() / 1e2
}

fn round4(v: f64) -> f64 {
    (v * 1e4).round() / 1e4
}

/// Nanoseconds as milliseconds.
pub(crate) fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

impl Column<'_> {
    /// Marks the column as belonging to an optional part of the cell,
    /// `present` or not.
    fn only_if(self, present: bool) -> Self {
        Column { present, ..self }
    }

    /// Whether a cell may lack this column. Every other column is
    /// always written, so a file without it is refused.
    fn optional(&self) -> bool {
        !self.present || matches!(self.slot, OptNum(..) | Ms(..))
    }

    /// The column's JSON value, `None` when it is omitted.
    fn write(&self) -> Option<Json> {
        if !self.present {
            return None;
        }
        Some(match &self.slot {
            Text(s) => Json::Str((*s).clone()),
            Flag(b) => Json::Bool(**b),
            Count(n) => Json::Num(**n as f64),
            Num(v, round, _) => Json::Num(round(**v)),
            OptNum(v, round, _) => Json::Num(round((**v)?)),
            Ms(ns) => Json::Num(round4(ms((**ns)?))),
            Sites(sites) => {
                let site = |(site, nanos): &(String, u64)| {
                    let mut s = Json::obj();
                    s.set("site", Json::Str(site.clone()));
                    s.set("ns", Json::Num(*nanos as f64));
                    s
                };
                Json::Arr(sites.iter().map(site).collect())
            }
        })
    }

    /// Fills the field from `v`; `None` when `v` has the wrong JSON
    /// type.
    fn read(self, v: &Json) -> Option<()> {
        match self.slot {
            Text(s) => *s = v.as_str()?.to_string(),
            Flag(b) => match v {
                Json::Bool(v) => *b = *v,
                _ => return None,
            },
            Count(n) => *n = v.as_f64()? as u64,
            Num(n, ..) => *n = v.as_f64()?,
            OptNum(n, ..) => *n = Some(v.as_f64()?),
            Ms(ns) => *ns = Some((v.as_f64()? * 1e6).round() as u64),
            Sites(sites) => {
                let site = |s: &Json| Some((s.str("site")?.to_string(), s.num("ns")? as u64));
                *sites = v.as_arr()?.iter().map(site).collect::<Option<_>>()?;
            }
        }
        Some(())
    }

    /// The column's table text — its stored value, so tables and files
    /// cannot disagree; `None` when it is absent.
    fn show(&self) -> Option<String> {
        let decimals = match self.slot {
            Num(.., d) | OptNum(.., d) => d,
            Ms(..) => 1,
            _ => 0,
        };
        match self.write()? {
            Json::Str(s) => (!s.is_empty()).then_some(s),
            Json::Bool(b) => Some(b.to_string()),
            Json::Num(n) => Some(format!("{n:.decimals$}")),
            _ => None,
        }
    }
}

/// A cell of one suite section: a column list and a key.
pub(crate) trait Cell: Clone + Default {
    /// The section's JSON key, also naming it in gate messages.
    const SECTION: &'static str;
    /// The section's column list, in file order, over this cell's
    /// fields.
    fn columns(&mut self) -> Vec<Column<'_>>;
    /// Identifies the cell within its section.
    fn key(&self) -> String;
}

/// One (driver, fault, cluster) measurement cell; built from a run by
/// [`crate::RunReport::perf`].
#[derive(Debug, Clone, PartialEq, Default)]
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
    /// Sets `drift` to this cell's throughput over `healthy`, the
    /// throughput of the same driver+cluster healthy run.
    pub fn over(mut self, healthy: f64) -> RunRecord {
        if healthy > 0.0 {
            self.drift = self.throughput / healthy;
        }
        self
    }
}

impl Cell for RunRecord {
    const SECTION: &'static str = "runs";

    fn columns(&mut self) -> Vec<Column<'_>> {
        vec![
            col("driver", "Driver", Text(&mut self.driver)),
            col("fault", "Fault", Text(&mut self.fault)),
            col("cluster", "Cluster", Text(&mut self.cluster)),
            col("ops", "Ops", Count(&mut self.ops)),
            col(
                "throughput",
                "Tput (req/s)",
                Num(&mut self.throughput, round2, 0),
            ),
            col("mean_ms", "Mean (ms)", Num(&mut self.mean_ms, round4, 2)),
            col("p50_ms", "P50 (ms)", Num(&mut self.p50_ms, round4, 2)),
            col("p99_ms", "P99 (ms)", Num(&mut self.p99_ms, round4, 2)),
            col("crashed", "Crashed", Flag(&mut self.crashed)),
            col("drift", "Drift", Num(&mut self.drift, round4, 2)),
            col("profile", "", Sites(&mut self.profile)),
        ]
    }

    fn key(&self) -> String {
        format!("{} | {} | {}", self.driver, self.cluster, self.fault)
    }
}

/// The scorecard columns, declared once and embedded by both sections
/// whose cells carry a [`ScoreCell`]: the seven detection columns, then
/// the scorecard's share of the storm part (`storm`: whether the cell
/// is storm-monitored).
fn scorecard(s: &mut ScoreCell, storm: bool) -> Vec<Column<'_>> {
    vec![
        col("detected", "Detected", Flag(&mut s.detected)),
        col("ttd_ms", "TTD (ms)", Ms(&mut s.ttd_ns)),
        col("ttm_ms", "TTM (ms)", Ms(&mut s.ttm_ns)),
        col("ttr_ms", "TTR (ms)", Ms(&mut s.ttr_ns)),
        col("false_positives", "FP", Count(&mut s.false_positives)),
        col("false_negatives", "FN", Count(&mut s.false_negatives)),
        col("misattributions", "Misattr", Count(&mut s.misattributions)),
        col("tts_ms", "TTS (ms)", Ms(&mut s.tts_ns)).only_if(storm),
        col("storm_sustained", "Storm", Flag(&mut s.storm_sustained)).only_if(storm),
    ]
}

/// Detection quality of one `(driver, fault, cluster)` cell.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DetectRecord {
    /// Raft driver name (`RaftKind::name()`).
    pub driver: String,
    /// Fault-class name, `"none"` for the no-fault matrix.
    pub fault: String,
    /// Cluster shape discriminator.
    pub cluster: String,
    /// The scorecard. A detect cell is never storm-monitored, so the
    /// storm fields stay out of the file.
    pub score: ScoreCell,
}

impl DetectRecord {
    /// A dump's identity and its scorecard at [`RECOVERY_BAND`].
    pub fn from_dump(dump: &IncidentDump) -> DetectRecord {
        DetectRecord {
            driver: dump.driver.clone(),
            fault: dump.fault.clone(),
            cluster: dump.cluster.clone(),
            score: score(dump, RECOVERY_BAND),
        }
    }

    /// This cell's text under `header`, exactly as the suite's tables
    /// print it (`-` when absent) — for tables that mix scorecard
    /// columns with their own.
    pub fn shown(&self, header: &str) -> String {
        let mut cell = self.clone();
        let column = cell.columns().into_iter().find(|c| c.header == header);
        let column = column.unwrap_or_else(|| panic!("no scorecard column {header:?}"));
        column.show().unwrap_or_else(|| "-".to_string())
    }
}

impl Cell for DetectRecord {
    const SECTION: &'static str = "detect";

    fn columns(&mut self) -> Vec<Column<'_>> {
        let mut columns = vec![
            col("driver", "Driver", Text(&mut self.driver)),
            col("fault", "Fault", Text(&mut self.fault)),
            col("cluster", "Cluster", Text(&mut self.cluster)),
        ];
        columns.extend(scorecard(&mut self.score, false));
        columns
    }

    fn key(&self) -> String {
        format!("{} | {} | {}", self.driver, self.cluster, self.fault)
    }
}

/// One scenario × driver survival cell: liveness plus client-visible
/// survival numbers plus detection quality; built from a run by
/// [`crate::RunReport::survival`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScenarioRecord {
    /// Scenario name (DSL catalog key).
    pub scenario: String,
    /// Raft driver name (`RaftKind::name()`).
    pub driver: String,
    /// Liveness verdict: no crash, work completed, no over-limit stall.
    pub live: bool,
    /// Any server node crashed during the cell.
    pub crashed: bool,
    /// Measurement-window throughput (ops/s; goodput in storm cells).
    pub throughput: f64,
    /// Minimum series sample at/after fault onset (ops/s).
    pub floor: f64,
    /// Client-visible p99 latency, milliseconds.
    pub p99_ms: f64,
    /// Longest post-warm-up run of near-zero series samples,
    /// milliseconds.
    pub stall_ms: f64,
    /// The scorecard. Its storm fields (`tts_ns`: fault-clear →
    /// `storm_cleared`, `None` when the storm never dissolved;
    /// `storm_sustained`: the storm outlived its fault) are part of the
    /// cell only when it is storm-monitored.
    pub score: ScoreCell,
    /// The storm part: `Some` exactly when the cell ran under a retry
    /// policy and its storm monitor. The value is the retry
    /// amplification at/after fault onset — RPC attempts per fresh
    /// operation started; ~1 in a healthy system, ≥ 2 means the offered
    /// load is mostly retries.
    pub amp: Option<f64>,
}

impl Cell for ScenarioRecord {
    const SECTION: &'static str = "scenarios";

    fn columns(&mut self) -> Vec<Column<'_>> {
        let mut columns = vec![
            col("scenario", "Scenario", Text(&mut self.scenario)),
            col("driver", "Driver", Text(&mut self.driver)),
            col("live", "Live", Flag(&mut self.live)),
            col("crashed", "Crashed", Flag(&mut self.crashed)),
            col(
                "throughput",
                "Tput (op/s)",
                Num(&mut self.throughput, round2, 0),
            ),
            col("floor", "Floor (op/s)", Num(&mut self.floor, round2, 0)),
            col("p99_ms", "P99 (ms)", Num(&mut self.p99_ms, round4, 1)),
            col("stall_ms", "Stall (ms)", Num(&mut self.stall_ms, round2, 0)),
        ];
        columns.extend(scorecard(&mut self.score, self.amp.is_some()));
        columns.push(col("amp", "Amp", OptNum(&mut self.amp, round4, 1)));
        columns
    }

    fn key(&self) -> String {
        format!("{} | {}", self.scenario, self.driver)
    }
}

/// A full bench suite: provenance plus the cells of each section.
#[derive(Debug, Clone, PartialEq, Default)]
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
    let cell = |c: &mut C| {
        let mut o = Json::obj();
        for column in c.columns() {
            if let Some(v) = column.write() {
                o.set(column.key, v);
            }
        }
        o
    };
    Json::Arr(cells.to_vec().iter_mut().map(cell).collect())
}

/// Strict: a cell lacking a column that is always written, holding one
/// of the wrong type, or sharing its key with an earlier cell is an
/// error naming section, cell and field — a lenient default would let a
/// truncated baseline pass anything, and cells are matched by key, so a
/// second holder would never be looked at.
fn section_from_json<C: Cell>(v: &Json) -> Result<Vec<C>, String> {
    let mut cells: Vec<C> = Vec::new();
    for v in v.get(C::SECTION).and_then(Json::as_arr).unwrap_or(&[]) {
        let mut cell = C::default();
        // The first column that cannot be filled, if any.
        let bad = cell.columns().into_iter().find_map(|column| {
            let key = column.key;
            let filled = match v.get(key) {
                Some(v) => column.read(v),
                None => column.optional().then_some(()),
            };
            filled.is_none().then_some(key)
        });
        let at = format!("{:?} cell {} [{}]", C::SECTION, cells.len(), cell.key());
        if let Some(field) = bad {
            return Err(format!(
                "{at}: required field {field:?} is missing or mistyped"
            ));
        }
        if cells.iter().any(|c| c.key() == cell.key()) {
            return Err(format!("{at}: duplicate cell key"));
        }
        cells.push(cell);
    }
    Ok(cells)
}

/// The cells as a table, one column per entry of the section's column
/// list. A column that is absent in every row is dropped — the storm
/// columns outside storm tables, an all-empty label; one absent in some
/// rows prints `-` there.
fn table<C: Cell>(title: &str, cells: &[C]) -> Table {
    let mut cells = cells.to_vec();
    let rows: Vec<Vec<(&str, Option<String>)>> = cells
        .iter_mut()
        .map(|c| c.columns().iter().map(|c| (c.header, c.show())).collect())
        .collect();
    let shown: Vec<usize> = (0..rows.first().map_or(0, Vec::len))
        .filter(|&column| rows.iter().any(|row| row[column].1.is_some()))
        .collect();
    let headers: Vec<&str> = shown.iter().map(|&column| rows[0][column].0).collect();
    let mut table = Table::new(title, &headers);
    for row in &rows {
        let text = |&column: &usize| row[column].1.clone().unwrap_or_else(|| "-".to_string());
        table.row(shown.iter().map(text).collect());
    }
    table
}

impl Suite {
    /// An empty suite.
    pub fn new(suite: &str, seed: u64) -> Suite {
        Suite {
            suite: suite.to_string(),
            seed,
            ..Suite::default()
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

    /// Parses a suite previously written by [`Suite::to_json`] —
    /// strictly: a cell that lacks a required column or repeats a key,
    /// or a file without its `suite` / `seed`, is an error.
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
        let suite = v.str("suite").ok_or("suite file has no \"suite\" name")?;
        Ok(Suite {
            suite: suite.to_string(),
            seed: v.num("seed").ok_or("suite file has no \"seed\"")? as u64,
            config,
            runs: section_from_json(&v)?,
            detect: section_from_json(&v)?,
            scenarios: section_from_json(&v)?,
        })
    }

    /// Every cell, one table per nonempty section: what the gate prints
    /// under its verdict, and how any list of cells is shown to people.
    /// Pure function of the cells, so same-seed suites render
    /// byte-identical tables.
    pub fn render_cells(&self) -> String {
        fn section<C: Cell>(suite: &Suite, cells: &[C]) -> String {
            if cells.is_empty() {
                return String::new();
            }
            let (name, seed) = (&suite.suite, suite.seed);
            table(
                &format!("{name} · {} cell(s) · seed {seed}", cells.len()),
                cells,
            )
            .render()
        }
        section(self, &self.runs) + &section(self, &self.detect) + &section(self, &self.scenarios)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(scenario: &str, ttm_ns: Option<u64>) -> ScenarioRecord {
        ScenarioRecord {
            scenario: scenario.into(),
            driver: "d".into(),
            live: true,
            throughput: 3000.4,
            score: ScoreCell {
                detected: true,
                ttd_ns: Some(200_040_000),
                ttm_ns,
                ..ScoreCell::default()
            },
            ..ScenarioRecord::default()
        }
    }

    /// The "Amp only in storm tables" rule, for every column: absent in
    /// every row → dropped; absent in some → `-` there.
    #[test]
    fn an_all_absent_column_is_dropped_and_a_partly_absent_one_prints_a_dash() {
        let mut suite = Suite::new("t", 7);
        suite.scenarios = vec![cell("a", Some(34_800_000)), cell("b", None)];
        let text = suite.render_cells();
        let lines: Vec<&str> = text.lines().filter(|l| l.starts_with('|')).collect();
        let cells = |line: &str| -> Vec<String> {
            let inner = line.trim_matches('|').split('|');
            inner.map(|c| c.trim().to_string()).collect()
        };
        let header = cells(lines[0]);
        for dropped in ["TTR (ms)", "TTS (ms)", "Storm", "Amp"] {
            assert!(!header.contains(&dropped.to_string()), "{dropped}: {text}");
        }
        let ttm = header.iter().position(|h| h == "TTM (ms)").expect("TTM");
        assert_eq!(cells(lines[2])[ttm], "34.8");
        assert_eq!(cells(lines[3])[ttm], "-", "{text}");
        let ttd = header.iter().position(|h| h == "TTD (ms)").expect("TTD");
        assert_eq!(cells(lines[2])[ttd], "200.0", "shown as stored: {text}");
        // One storm-monitored row brings the whole storm part back.
        suite.scenarios[1].amp = Some(1.52);
        let text = suite.render_cells();
        let lines: Vec<&str> = text.lines().filter(|l| l.starts_with('|')).collect();
        let header = cells(lines[0]);
        let at = |h: &str| header.iter().position(|x| x == h).expect("header");
        assert_eq!(cells(lines[2])[at("Amp")], "-");
        assert_eq!(cells(lines[3])[at("Amp")], "1.5");
        assert_eq!(cells(lines[3])[at("Storm")], "false");
        // …except what no row holds: this storm never dissolved.
        assert!(!header.contains(&"TTS (ms)".to_string()), "{text}");
    }
}
