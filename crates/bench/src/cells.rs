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
//! [`Suite::parse`], [`Suite::diff`] and every table a cell is printed
//! in walk that list. The gate's one rule is [`Suite::diff`]: a fresh
//! suite passes when it is its baseline, byte for byte.

use std::path::Path;

use crate::json::Json;
use crate::report::Table;
use depfast_incident::{score, IncidentDump, ScoreCell};

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
fn ms(ns: u64) -> f64 {
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
    /// A dump's identity and its scorecard.
    pub fn from_dump(dump: &IncidentDump) -> DetectRecord {
        DetectRecord {
            driver: dump.driver.clone(),
            fault: dump.fault.clone(),
            cluster: dump.cluster.clone(),
            score: score(dump),
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
    /// Client operations that spent every attempt of their retry policy
    /// over the whole run (`client.give_up`). Omitted while 0.
    pub give_up: u64,
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
        let gave_up = self.give_up > 0;
        columns.push(col("give_up", "Give-ups", Count(&mut self.give_up)).only_if(gave_up));
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

/// Each cell's key and how many earlier cells of the list hold it: a
/// baseline cell pairs with the current cell of the same key and count,
/// so a second holder of a key is a cell of its own, never looked past.
fn keyed<C: Cell>(cells: &[C]) -> Vec<(String, usize)> {
    let mut keyed: Vec<(String, usize)> = Vec::new();
    for cell in cells {
        let key = cell.key();
        let held = keyed.iter().filter(|(k, _)| *k == key).count();
        keyed.push((key, held));
    }
    keyed
}

/// A written value as the diff shows it: on one line, `absent` when the
/// column is omitted.
fn shown(text: Option<&str>) -> String {
    text.map_or("absent".to_string(), |t| {
        t.split_whitespace().collect::<Vec<_>>().join(" ")
    })
}

/// One section's share of [`Suite::diff`]: a cell missing or new (a
/// second holder of a key is a duplicate), the paired cells out of
/// order, and every column whose written value differs within a pair.
fn section_diff<C: Cell>(base: &[C], cur: &[C], out: &mut Vec<String>) {
    let section = C::SECTION;
    let (base_ids, cur_ids) = (keyed(base), keyed(cur));
    let cell = |held: usize| if held == 0 { "cell" } else { "duplicate cell" };
    for (b, id @ (key, held)) in base.iter().zip(&base_ids) {
        let Some(at) = cur_ids.iter().position(|c| c == id) else {
            out.push(format!(
                "[{key}] {} missing from the current suite's {section:?}",
                cell(*held)
            ));
            continue;
        };
        let (mut b, mut c) = (b.clone(), cur[at].clone());
        for (b, c) in b.columns().iter().zip(c.columns().iter()) {
            let (was, is) = (b.write().map(|v| v.pretty()), c.write().map(|v| v.pretty()));
            if was != is {
                out.push(format!(
                    "[{key}] {}: {} → {}",
                    b.key,
                    shown(was.as_deref()),
                    shown(is.as_deref())
                ));
            }
        }
    }
    for (key, held) in cur_ids.iter().filter(|id| !base_ids.contains(id)) {
        out.push(format!(
            "[{key}] new {} in the current suite's {section:?}",
            cell(*held)
        ));
    }
    let in_base = base_ids.iter().filter(|id| cur_ids.contains(id));
    let in_cur = cur_ids.iter().filter(|id| base_ids.contains(id));
    if let Some((b, c)) = in_base.zip(in_cur).find(|(b, c)| b != c) {
        out.push(format!(
            "[{}] out of order in the current suite's {section:?}: the baseline has [{}] there",
            c.0, b.0
        ));
    }
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

    /// The provenance fields, as written after the schema.
    fn provenance(&self) -> [(&'static str, Json); 3] {
        let mut cfg = Json::obj();
        for (k, v) in &self.config {
            cfg.set(k, Json::Num(*v));
        }
        [
            ("suite", Json::Str(self.suite.clone())),
            ("seed", Json::Num(self.seed as f64)),
            ("config", cfg),
        ]
    }

    /// Serializes the suite (deterministic bytes for identical content).
    pub fn to_json(&self) -> String {
        let mut o = Json::obj();
        o.set("schema", Json::Str(SCHEMA.to_string()));
        for (key, value) in self.provenance() {
            o.set(key, value);
        }
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

    /// Reads and parses a suite file.
    pub fn load(path: &Path) -> Result<Suite, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Suite::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Every way `current` differs from `self` as a baseline, one line
    /// each: a provenance field (suite, seed, config); a cell missing,
    /// new, duplicated or out of order; `[key] column: base → cur` for
    /// each column whose written value moved. Empty exactly when
    /// `self.to_json() == current.to_json()` — the gate's one rule.
    pub fn diff(&self, current: &Suite) -> Vec<String> {
        let mut out = Vec::new();
        for ((key, was), (_, is)) in self.provenance().into_iter().zip(current.provenance()) {
            let (was, is) = (was.pretty(), is.pretty());
            if was != is {
                out.push(format!(
                    "{key}: {} → {}",
                    shown(Some(&was)),
                    shown(Some(&is))
                ));
            }
        }
        section_diff(&self.runs, &current.runs, &mut out);
        section_diff(&self.detect, &current.detect, &mut out);
        section_diff(&self.scenarios, &current.scenarios, &mut out);
        out
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
        for dropped in ["TTR (ms)", "TTS (ms)", "Storm", "Amp", "Give-ups"] {
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

    const MS: u64 = 1_000_000;

    fn quality(ttd_ms: Option<u64>) -> ScoreCell {
        ScoreCell {
            detected: ttd_ms.is_some(),
            ttd_ns: ttd_ms.map(|v| v * MS),
            ttm_ns: ttd_ms.map(|v| (v + 50) * MS),
            ttr_ns: ttd_ms.map(|v| (v + 500) * MS),
            ..ScoreCell::default()
        }
    }

    fn detect_record(driver: &str, fault: &str, ttd_ms: Option<u64>) -> DetectRecord {
        DetectRecord {
            driver: driver.into(),
            fault: fault.into(),
            cluster: "3x64".into(),
            score: quality(ttd_ms),
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
            score: quality(Some(400)),
            amp: None,
            give_up: 0,
        }
    }

    /// A storm-monitored cell of the mitigated shape: it stabilizes and
    /// is not sustained.
    fn storm_record() -> ScenarioRecord {
        let mut r = scenario_record("retry-storm", "DepFastRaft", true);
        r.score.tts_ns = Some(800 * MS);
        r.amp = Some(1.5);
        r.give_up = 12;
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
                detect_record("d", "Disk Slowness", Some(400)),
                detect_record("d", "none", None),
            ]),
            scenario_suite(vec![
                scenario_record("disk-slow-follower", "d", true),
                storm_record(),
            ]),
        ]
    }

    fn drop_last(mut s: Suite) -> Suite {
        let _ = s.runs.pop().is_some() || s.detect.pop().is_some() || s.scenarios.pop().is_some();
        s
    }

    #[test]
    fn every_section_round_trips_and_a_missing_or_new_cell_is_a_difference() {
        for s in one_of_each() {
            let text = s.to_json();
            assert_eq!(text, s.to_json(), "serialization must be deterministic");
            let back = Suite::parse(&text).unwrap();
            assert_eq!(back, s);
            assert_eq!(back.to_json(), text);
            assert_eq!(s.diff(&back), Vec::<String>::new());

            let short = drop_last(s.clone());
            assert_eq!(short.cells(), 1, "{}", s.suite);
            let missing = s.diff(&short);
            assert_eq!(missing.len(), 1, "{missing:?}");
            assert!(missing[0].contains("cell missing"), "{missing:?}");
            // A new cell fails too: the baseline is re-pinned to hold it.
            let new = short.diff(&s);
            assert_eq!(new.len(), 1, "{new:?}");
            assert!(new[0].contains("new cell"), "{new:?}");
        }
    }

    #[test]
    fn provenance_and_cell_order_are_differences() {
        let [base, ..] = one_of_each();
        let mut swapped = base.clone();
        swapped.runs.reverse();
        assert_eq!(
            base.diff(&swapped),
            [
                "[d |  | disk_slow] out of order in the current suite's \"runs\": \
                 the baseline has [d |  | none] there"
            ]
        );
        let mut other = base.clone();
        other.seed = 8;
        other.config[0].1 = 32.0;
        assert_eq!(
            base.diff(&other),
            [
                "seed: 7 → 8",
                "config: { \"clients\": 64 } → { \"clients\": 32 }"
            ]
        );
    }

    /// Moves the field behind `slot`: an optional time appears or
    /// disappears, any other value changes.
    fn doctor(slot: Slot) {
        match slot {
            Text(s) => s.push('x'),
            Flag(b) => *b = !*b,
            Count(n) => *n += 1,
            Num(v, ..) => *v += 1.0,
            OptNum(v, ..) => *v = Some(v.unwrap_or(0.0) + 1.0),
            Ms(ns) => *ns = if ns.is_some() { None } else { Some(5 * MS) },
            Sites(sites) => sites.push(("cpu".into(), 1)),
        }
    }

    /// Doctors each column of `sample` alone and diffs the one-cell
    /// suite `wrap` makes of it against the undoctored one: exactly one
    /// line, naming the cell and the column. Returns the columns
    /// doctored — all but the labels, which make up the key (a renamed
    /// cell is a missing one plus a new one), and an optional part the
    /// sample lacks.
    fn doctor_each<C: Cell>(sample: C, wrap: fn(Vec<C>) -> Suite) -> Vec<&'static str> {
        let (base, key) = (wrap(vec![sample.clone()]), sample.key());
        let mut doctored = Vec::new();
        for i in 0..sample.clone().columns().len() {
            let mut cell = sample.clone();
            let column = cell.columns().swap_remove(i);
            if matches!(column.slot, Text(_)) || !column.present {
                continue;
            }
            let name = column.key;
            doctor(column.slot);
            let lines = base.diff(&wrap(vec![cell]));
            assert_eq!(lines.len(), 1, "{name}: {lines:?}");
            let head = format!("[{key}] {name}: ");
            assert!(lines[0].starts_with(&head), "{name}: {lines:?}");
            doctored.push(name);
        }
        doctored
    }

    #[test]
    fn each_column_moved_alone_is_one_difference_naming_its_cell_and_column() {
        let runs = doctor_each(record("d", "none", 5000.0, 8.0), suite);
        let all = "ops throughput mean_ms p50_ms p99_ms crashed drift profile";
        assert_eq!(runs.join(" "), all);
        let scorecard =
            "detected ttd_ms ttm_ms ttr_ms false_positives false_negatives misattributions";
        // No TTM: that optional column appears, TTD disappears.
        let mut detect = detect_record("d", "Disk Slowness", Some(400));
        detect.score.ttm_ns = None;
        assert_eq!(doctor_each(detect, detect_suite).join(" "), scorecard);
        let mut storm = storm_record();
        storm.score.ttm_ns = None;
        let scenarios = doctor_each(storm, scenario_suite).join(" ");
        let all = format!(
            "live crashed throughput floor p99_ms stall_ms {scorecard} tts_ms storm_sustained amp give_up"
        );
        assert_eq!(scenarios, all);

        // No move is too small to be a difference.
        let base = record("d", "none", 5000.0, 8.0);
        let mut moved = base.clone();
        moved.throughput *= 1.01;
        assert_eq!(
            suite(vec![base]).diff(&suite(vec![moved])),
            ["[d |  | none] throughput: 5000 → 5050"]
        );
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
        // Absent optional times stay absent, storm keys appear only on
        // storm-monitored cells, and `give_up` only where one was counted.
        let [_, detect, scenarios] = one_of_each();
        let back = Suite::parse(&detect.to_json()).unwrap();
        assert!(back.detect[1].score.ttd_ns.is_none());
        let text = scenarios.to_json();
        assert_eq!(text.matches("storm_sustained").count(), 1);
        assert_eq!(text.matches("tts_ms").count(), 1);
        assert_eq!(text.matches("\"amp\"").count(), 1);
        assert_eq!(text.matches("\"give_up\"").count(), 1);
    }

    #[test]
    fn parse_rejects_foreign_json() {
        assert!(Suite::parse("{\"schema\": \"other/v9\"}").is_err());
        assert!(Suite::parse("[1,2,3]").is_err());
    }
}
