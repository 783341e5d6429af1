//! The regression gate: what it takes for a fresh [`Suite`] to pass
//! against its committed baseline.
//!
//! The `gate` binary re-runs a fixed-seed suite and [`compare`]s it
//! against its committed baseline, exiting nonzero on regression; CI
//! runs that on every push. The file format is [`crate::cells`]'s
//! business; this module is the policy — one explicit `check` per
//! section.
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

use crate::cells::{ms, Cell, DetectRecord, RunRecord, ScenarioRecord, Suite};
use depfast_incident::{IncidentDump, ScoreCell};

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

/// Diffs `cur` against `base`, the baseline cell of the same `key`.
type Check<C> = fn(base: &C, cur: &C, key: &str, out: &mut GateOutcome);

/// Fails `what` when it rose past `base × (1 + TIME_RISE) + TIME_SLACK_MS`.
fn check_time(what: &str, base: f64, cur: f64, key: &str, out: &mut GateOutcome) {
    let limit = base * (1.0 + TIME_RISE) + TIME_SLACK_MS;
    if cur > limit {
        out.failures.push(format!(
            "[{key}] {what} {base:.1} → {cur:.1} ms (limit {limit:.1} ms)"
        ));
    }
}

/// Fails when throughput drops more than [`THROUGHPUT_DROP`], P99
/// rises more than [`P99_RISE`], or the cell crashes where the
/// baseline did not. Improvements are notes.
fn check_run(base: &RunRecord, cur: &RunRecord, key: &str, out: &mut GateOutcome) {
    if cur.crashed && !base.crashed {
        out.failures
            .push(format!("[{key}] crashed (baseline did not)"));
        return;
    }
    if base.crashed {
        // Crash cells have no meaningful numbers; matching crash
        // behavior is all the gate asks.
        if !cur.crashed {
            out.notes.push(format!("[{key}] no longer crashes"));
        }
        return;
    }
    if base.throughput > 0.0 {
        let rel = cur.throughput / base.throughput - 1.0;
        if rel < -THROUGHPUT_DROP {
            out.failures.push(format!(
                "[{key}] throughput {:.0} → {:.0} req/s ({:+.1}%, tolerance −{:.0}%)",
                base.throughput,
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
    if base.p99_ms > 0.0 {
        let rel = cur.p99_ms / base.p99_ms - 1.0;
        if rel > P99_RISE {
            out.failures.push(format!(
                "[{key}] p99 {:.2} → {:.2} ms ({:+.1}%, tolerance +{:.0}%)",
                base.p99_ms,
                cur.p99_ms,
                rel * 100.0,
                P99_RISE * 100.0
            ));
        }
    }
}

fn check_detect(base: &DetectRecord, cur: &DetectRecord, key: &str, out: &mut GateOutcome) {
    check_detection(&base.score, &cur.score, key, out);
}

/// The detection checks, shared by both sections that embed a scorecard:
/// fails on a lost detection, a grown false-positive / false-negative /
/// misattribution count, or a time-to-detect past its band. A halved
/// time-to-detect is a note.
fn check_detection(base: &ScoreCell, cur: &ScoreCell, key: &str, out: &mut GateOutcome) {
    if base.detected && !cur.detected {
        out.failures
            .push(format!("[{key}] fault no longer detected"));
    }
    for (what, b, c) in [
        ("false positives", base.false_positives, cur.false_positives),
        ("false negatives", base.false_negatives, cur.false_negatives),
        ("misattributions", base.misattributions, cur.misattributions),
    ] {
        if c > b {
            out.failures.push(format!("[{key}] {what} {b} → {c}"));
        }
    }
    if let (Some(b), Some(c)) = (base.ttd_ns.map(ms), cur.ttd_ns.map(ms)) {
        check_time("time-to-detect", b, c, key, out);
        if c < b * 0.5 {
            out.notes.push(format!(
                "[{key}] time-to-detect improved {b:.1} → {c:.1} ms — consider refreshing the baseline"
            ));
        }
    }
}

/// Fails on a liveness flip, a new crash, any detection failure, a
/// retry storm that newly outlives its fault, or a lost or slowed
/// stabilization. Verdict improvements and throughput drift are
/// notes.
fn check_scenario(base: &ScenarioRecord, cur: &ScenarioRecord, key: &str, out: &mut GateOutcome) {
    if base.live && !cur.live {
        out.failures.push(format!(
            "[{key}] liveness verdict flipped: live → {}",
            if cur.crashed { "crashed" } else { "stalled" }
        ));
    } else if !base.live && cur.live {
        out.notes.push(format!(
            "[{key}] now survives (baseline did not) — consider refreshing the baseline"
        ));
    }
    if cur.crashed && !base.crashed {
        out.failures
            .push(format!("[{key}] crashed (baseline did not)"));
    }
    check_detection(&base.score, &cur.score, key, out);
    let sustained = |r: &ScenarioRecord| r.amp.map(|_| r.score.storm_sustained);
    match (sustained(base), sustained(cur)) {
        (Some(false), Some(true)) => out.failures.push(format!(
            "[{key}] retry storm now sustained past fault clear (metastable)"
        )),
        (Some(true), Some(false)) => out.notes.push(format!(
            "[{key}] retry storm no longer sustained — consider refreshing the baseline"
        )),
        _ => {}
    }
    let tts = |r: &ScenarioRecord| r.amp.and(r.score.tts_ns).map(ms);
    match (tts(base), tts(cur)) {
        (Some(b), Some(c)) => check_time("time-to-stabilize", b, c, key, out),
        (Some(b), None) if cur.amp.is_some() => {
            out.failures.push(format!(
                "[{key}] no longer stabilizes (baseline TTS {b:.1} ms, storm never cleared)"
            ));
        }
        (None, Some(c)) => out.notes.push(format!(
            "[{key}] now stabilizes in {c:.1} ms (baseline never did) — consider refreshing the baseline"
        )),
        _ => {}
    }
    if base.throughput > 0.0 {
        let rel = cur.throughput / base.throughput - 1.0;
        if rel.abs() > THROUGHPUT_NOTE {
            out.notes.push(format!(
                "[{key}] throughput {:.0} → {:.0} op/s ({:+.1}%)",
                base.throughput,
                cur.throughput,
                rel * 100.0
            ));
        }
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
/// cell only in `current` is a note, a matched pair is checked, and a
/// key `current` holds twice fails — pairs match by key, so the second
/// holder would never be looked at (a parsed suite cannot hold one; a
/// live one can).
fn diff<C: Cell>(baseline: &[C], current: &[C], check: Check<C>, out: &mut GateOutcome) {
    for base in baseline {
        let key = base.key();
        match current.iter().find(|c| c.key() == key) {
            Some(cur) => {
                out.checked += 1;
                check(base, cur, &key, out);
            }
            None => out.failures.push(format!(
                "[{key}] missing from the current suite's {:?}",
                C::SECTION
            )),
        }
    }
    for (i, cur) in current.iter().enumerate() {
        let key = cur.key();
        if current[..i].iter().any(|c| c.key() == key) {
            out.failures.push(format!(
                "[{key}] duplicate cell in the current suite's {:?}",
                C::SECTION
            ));
        } else if !baseline.iter().any(|b| b.key() == key) {
            out.notes.push(format!(
                "[{key}] new cell in {:?}, not in baseline",
                C::SECTION
            ));
        }
    }
}

/// Diffs `current` against `baseline`, section by section and cell by
/// cell; see each section's `check_*` for what fails it.
pub fn compare(baseline: &Suite, current: &Suite) -> GateOutcome {
    let mut out = GateOutcome::default();
    diff(&baseline.runs, &current.runs, check_run, &mut out);
    diff(&baseline.detect, &current.detect, check_detect, &mut out);
    diff(
        &baseline.scenarios,
        &current.scenarios,
        check_scenario,
        &mut out,
    );
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
        }
    }

    /// A storm-monitored cell: the mitigated shape (stabilizes, not
    /// sustained) unless doctored otherwise.
    fn storm_record() -> ScenarioRecord {
        let mut r = scenario_record("retry-storm", "DepFastRaft", true);
        r.score.tts_ns = Some(800 * MS);
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
        assert!(back.detect[1].score.ttd_ns.is_none());
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
        type Doctor = fn(&mut ScoreCell);
        let cases: [(&str, Doctor); 5] = [
            ("time-to-detect", |q| q.ttd_ns = Some(800 * MS)),
            ("false positives", |q| q.false_positives = 1),
            ("false negatives", |q| q.false_negatives = 1),
            ("misattributions", |q| q.misattributions = 1),
            ("no longer detected", |q| q.detected = false),
        ];
        for (what, doctor) in cases {
            let base = detect_record("d", "Disk Slowness", Some(400));
            let mut cur = base.clone();
            doctor(&mut cur.score);
            let out = compare(&detect_suite(vec![base]), &detect_suite(vec![cur]));
            assert_eq!(out.failures.len(), 1, "{what}: {:?}", out.failures);
            assert!(out.failures[0].contains(what), "{:?}", out.failures);

            let base = scenario_record("leader-cpu-slow", "d", true);
            let mut cur = base.clone();
            doctor(&mut cur.score);
            let out = compare(&scenario_suite(vec![base]), &scenario_suite(vec![cur]));
            assert_eq!(out.failures.len(), 1, "{what}: {:?}", out.failures);
            assert!(out.failures[0].contains(what), "{:?}", out.failures);
        }
    }

    #[test]
    fn detection_improvement_is_a_note() {
        let out = compare(
            &detect_suite(vec![detect_record("d", "Disk Slowness", Some(400))]),
            &detect_suite(vec![detect_record("d", "Disk Slowness", Some(150))]),
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
        let mut flipped = storm_record();
        flipped.score.storm_sustained = true;
        flipped.score.tts_ns = None;
        let out = compare_scenarios(storm_record(), flipped);
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
        let mut slower = storm_record();
        slower.score.tts_ns = Some(1600 * MS);
        let out = compare_scenarios(storm_record(), slower);
        assert!(!out.passed());
        assert!(
            out.failures.iter().any(|f| f.contains("time-to-stabilize")),
            "{:?}",
            out.failures
        );
        // The unmitigated cell learning to stabilize is an improvement.
        let mut sustained_base = storm_record();
        sustained_base.score.storm_sustained = true;
        sustained_base.score.tts_ns = None;
        sustained_base.live = false;
        let mut healed = sustained_base.clone();
        healed.score.storm_sustained = false;
        healed.score.tts_ns = Some(500 * MS);
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
