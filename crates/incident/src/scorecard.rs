//! The detector scorecard: ledger × timeline → quality numbers.
//!
//! For one `(driver, fault)` cell the scorecard answers, from the dump
//! alone:
//!
//! - **time-to-detect** — first detector suspicion of an injected node at
//!   or after its fault's onset, minus the onset;
//! - **time-to-mitigate** — first *reaction* (raft quarantine / probe /
//!   chunk, or mitigation demote / campaign) touching an injected node at
//!   or after onset, minus the onset;
//! - **time-to-recover** — onset until throughput is back inside the
//!   pre-onset baseline band (two consecutive samples at or above
//!   [`RECOVERY_BAND`] × the baseline, judged from the fault's clear time
//!   onward — or from onset, for drivers that never dipped);
//! - **false positives** — suspicions with no injected fault to blame
//!   (every suspicion in a no-fault run, and in faulted runs suspicions
//!   of healthy nodes are counted under *misattribution*);
//! - **false negatives** — injected faults never suspected;
//! - **misattributions** — suspicions of a node that was not injected
//!   while a fault was active elsewhere;
//! - **time-to-stabilize** — for runs the storm monitor flagged
//!   (`storm_onset` on the `storm` layer), last fault clear until the
//!   storm monitor declared the storm over (`storm_cleared`); `None`
//!   when the storm never dissolved inside the observed window — the
//!   metastable outcome;
//! - **storm sustained** — whether the storm monitor flagged the run
//!   metastable (`storm_sustained`: the storm outlived its cause).

use depfast_fault::FaultRecord;
use simkit::{NodeId, SimTime};

use crate::IncidentDump;

/// Fraction of the pre-onset throughput baseline that counts as
/// "recovered".
pub const RECOVERY_BAND: f64 = 0.8;

/// Pre-onset samples averaged into the recovery baseline.
const BASELINE_POINTS: usize = 5;

/// Detection-quality numbers for one `(driver, fault)` cell.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ScoreCell {
    /// `true` when every injected fault was suspected.
    pub detected: bool,
    /// Onset → first suspicion of an injected node.
    pub ttd_ns: Option<u64>,
    /// Onset → first reacting-layer action on an injected node.
    pub ttm_ns: Option<u64>,
    /// Onset → throughput back inside the baseline band.
    pub ttr_ns: Option<u64>,
    /// Suspicions raised with no fault injected anywhere.
    pub false_positives: u64,
    /// Injected faults that were never suspected.
    pub false_negatives: u64,
    /// Suspicions of healthy nodes while a fault was active elsewhere.
    pub misattributions: u64,
    /// Last fault clear → storm monitor's `storm_cleared`. `None` when
    /// no storm was flagged, or the storm never dissolved (metastable).
    pub tts_ns: Option<u64>,
    /// `true` when the storm monitor flagged the run metastable (the
    /// retry storm outlived the fault that seeded it).
    pub storm_sustained: bool,
}

/// Scores one dump; recovery is judged at [`RECOVERY_BAND`].
pub fn score(dump: &IncidentDump) -> ScoreCell {
    let mut cell = ScoreCell::default();
    let suspicions: Vec<_> = dump
        .events_in("detector")
        .filter(|e| e.transition == "suspect")
        .collect();

    // Storm verdicts come from the storm monitor's own layer; they are
    // deliberately excluded from the detector FP/FN/misattribution
    // accounting above (those judge the fail-slow detector, not the
    // metastability monitor).
    cell.storm_sustained = dump
        .events_in("storm")
        .any(|e| e.transition == "storm_sustained");
    let storm_flagged = dump
        .events_in("storm")
        .any(|e| e.transition == "storm_onset");
    if storm_flagged && !dump.faults.is_empty() {
        // TTS runs from the moment the system was last healthy by ground
        // truth — every injected fault cleared — to the monitor's
        // all-clear. A fault that never cleared leaves TTS undefined
        // (recovery was never physically possible).
        let last_clear = dump
            .faults
            .iter()
            .map(|f| f.cleared)
            .collect::<Option<Vec<SimTime>>>()
            .and_then(|clears| clears.into_iter().max());
        if let Some(last_clear) = last_clear {
            cell.tts_ns = dump
                .events_in("storm")
                .filter(|e| e.transition == "storm_cleared" && e.t >= last_clear)
                .map(|e| since(last_clear, e.t))
                .min();
        }
    }

    if dump.faults.is_empty() {
        cell.false_positives = suspicions.len() as u64;
        // `detected` is vacuously false; there was nothing to detect.
        return cell;
    }

    let injected = |node: NodeId| dump.faults.iter().any(|f| f.node == node);
    cell.misattributions = suspicions.iter().filter(|s| !injected(s.node)).count() as u64;

    let mut detected_all = true;
    for f in &dump.faults {
        let ttd = suspicions
            .iter()
            .filter(|s| s.node == f.node && s.t >= f.onset)
            .map(|s| since(f.onset, s.t))
            .min();
        match ttd {
            Some(d) => cell.ttd_ns = Some(cell.ttd_ns.map_or(d, |c| c.min(d))),
            None => {
                detected_all = false;
                cell.false_negatives += 1;
            }
        }
        let ttm = dump
            .events
            .iter()
            .filter(|e| {
                (e.layer == "raft" || e.layer == "mitigation") && e.node == f.node && e.t >= f.onset
            })
            .map(|e| since(f.onset, e.t))
            .min();
        if let Some(m) = ttm {
            cell.ttm_ns = Some(cell.ttm_ns.map_or(m, |c| c.min(m)));
        }
        if let Some(r) = time_to_recover(dump, f) {
            cell.ttr_ns = Some(cell.ttr_ns.map_or(r, |c| c.max(r)));
        }
    }
    cell.detected = detected_all;
    cell
}

/// Nanoseconds from `from` to `to` (`to` is not earlier).
fn since(from: SimTime, to: SimTime) -> u64 {
    to.as_nanos() - from.as_nanos()
}

/// Onset → first of two consecutive throughput samples at or above
/// [`RECOVERY_BAND`] × the pre-onset baseline, searching from the fault's clear
/// time (or its onset, if it never cleared — a driver that tolerates the
/// fault recovers while it is still active). `None` when there is no
/// pre-onset traffic to define a baseline, or recovery never happens
/// inside the observed window.
fn time_to_recover(dump: &IncidentDump, f: &FaultRecord) -> Option<u64> {
    let onset_ns = f.onset.as_nanos();
    let pre: Vec<f64> = dump
        .throughput
        .iter()
        .filter(|(t, _)| *t <= onset_ns)
        .map(|(_, v)| *v)
        .collect();
    if pre.is_empty() {
        return None;
    }
    let tail = &pre[pre.len().saturating_sub(BASELINE_POINTS)..];
    let baseline = tail.iter().sum::<f64>() / tail.len() as f64;
    if baseline <= 0.0 {
        return None;
    }
    let threshold = baseline * RECOVERY_BAND;
    let from = f.cleared.unwrap_or(f.onset).as_nanos();
    let post: Vec<&(u64, f64)> = dump.throughput.iter().filter(|(t, _)| *t >= from).collect();
    for w in post.windows(2) {
        if w[0].1 >= threshold && w[1].1 >= threshold {
            return Some(w[0].0.saturating_sub(onset_ns));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::event;

    fn no_fault_dump() -> IncidentDump {
        IncidentDump {
            driver: "Sync".into(),
            fault: "none".into(),
            cluster: "3x64".into(),
            seed: 1,
            faults: vec![],
            events: vec![],
            throughput: vec![(1_000_000_000, 1000.0), (2_000_000_000, 1000.0)],
            end_ns: 2_000_000_000,
            health_dropped: 0,
        }
    }

    fn storm_event(t_ns: u64, transition: &'static str) -> depfast::HealthEvent {
        let evidence = "goodput 5/tick vs baseline 100/tick, amp x100 = 3000, attempts 300";
        event(t_ns, 2, "storm", transition, evidence)
    }

    #[test]
    fn clean_run_scores_all_zero() {
        let cell = score(&no_fault_dump());
        assert_eq!(cell, ScoreCell::default());
    }

    #[test]
    fn suspicion_without_fault_is_a_false_positive() {
        let mut d = no_fault_dump();
        d.events
            .push(event(1_500_000_000, 1, "detector", "suspect", "phantom"));
        let cell = score(&d);
        assert_eq!(cell.false_positives, 1);
        assert_ne!(cell, ScoreCell::default());
    }

    #[test]
    fn full_incident_yields_ttd_ttm_ttr() {
        let mut d = crate::tests::sample_dump();
        d.canonicalize();
        let cell = score(&d);
        assert!(cell.detected);
        assert_eq!(cell.ttd_ns, Some(400_000_000));
        assert_eq!(cell.ttm_ns, Some(450_000_000));
        // Cleared at 3.2s; the first two consecutive in-band samples from
        // there start at 3.5s → 1.5s after the 2.0s onset.
        assert_eq!(cell.ttr_ns, Some(1_500_000_000));
        assert_eq!(cell.false_positives, 0);
        assert_eq!(cell.false_negatives, 0);
        assert_eq!(cell.misattributions, 0);
    }

    #[test]
    fn undetected_fault_is_a_false_negative() {
        let mut d = crate::tests::sample_dump();
        d.events.clear();
        let cell = score(&d);
        assert!(!cell.detected);
        assert_eq!(cell.false_negatives, 1);
        assert_eq!(cell.ttd_ns, None);
        assert_eq!(cell.ttm_ns, None);
    }

    #[test]
    fn suspecting_the_wrong_node_is_misattribution() {
        let mut d = crate::tests::sample_dump();
        d.events
            .push(event(2_500_000_000, 0, "detector", "suspect", "wrong node"));
        let cell = score(&d);
        assert_eq!(cell.misattributions, 1);
        assert_eq!(cell.false_positives, 0, "faulted runs count misattribution");
        assert!(cell.detected, "the real fault was still found");
    }

    #[test]
    fn storm_that_dissolves_yields_a_finite_tts() {
        let mut d = crate::tests::sample_dump();
        // Fault cleared at 3.2s; the storm monitor declares all-clear at
        // 3.8s → TTS 600ms, and the run was never flagged metastable.
        d.events.push(storm_event(2_600_000_000, "storm_onset"));
        d.events.push(storm_event(3_800_000_000, "storm_cleared"));
        d.canonicalize();
        let cell = score(&d);
        assert_eq!(cell.tts_ns, Some(600_000_000));
        assert!(!cell.storm_sustained);
    }

    #[test]
    fn sustained_storm_without_clear_is_metastable() {
        let mut d = crate::tests::sample_dump();
        d.events.push(storm_event(2_600_000_000, "storm_onset"));
        d.events.push(storm_event(3_900_000_000, "storm_sustained"));
        d.canonicalize();
        let cell = score(&d);
        assert!(cell.storm_sustained);
        assert_eq!(cell.tts_ns, None, "never stabilized");
        // Storm events must not leak into the detector's accounting.
        assert_eq!(cell.false_positives, 0);
        assert_eq!(cell.misattributions, 0);
        assert!(cell.detected);
    }

    #[test]
    fn storm_free_runs_have_no_tts() {
        let mut d = crate::tests::sample_dump();
        d.canonicalize();
        let cell = score(&d);
        assert_eq!(cell.tts_ns, None);
        assert!(!cell.storm_sustained);
    }

    #[test]
    fn never_cleared_fault_leaves_tts_undefined() {
        let mut d = crate::tests::sample_dump();
        d.faults[0].cleared = None;
        d.events.push(storm_event(2_600_000_000, "storm_onset"));
        d.events.push(storm_event(3_800_000_000, "storm_cleared"));
        d.canonicalize();
        let cell = score(&d);
        assert_eq!(cell.tts_ns, None);
    }

    #[test]
    fn tolerant_driver_recovers_while_fault_is_active() {
        let mut d = crate::tests::sample_dump();
        // Never cleared, but throughput never left the band either.
        d.faults[0].cleared = None;
        d.throughput = vec![
            (1_000_000_000, 1000.0),
            (1_500_000_000, 1000.0),
            (2_500_000_000, 980.0),
            (3_000_000_000, 985.0),
        ];
        let cell = score(&d);
        assert_eq!(cell.ttr_ns, Some(500_000_000));
    }
}
