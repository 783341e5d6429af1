//! The human-readable incident report.
//!
//! One screen answers "what happened, who reacted, how fast": ground
//! truth first, then the reaction timeline (with runs of repeated
//! transitions coalesced — forty probe polls are one line), then the
//! scorecard verdict.

use depfast::HealthEvent;
use simkit::SimTime;

use crate::scorecard::ScoreCell;
use crate::IncidentDump;

fn fmt_t(t: SimTime) -> String {
    let ns = t.as_nanos();
    format!(
        "{}.{:03}s",
        ns / 1_000_000_000,
        (ns % 1_000_000_000) / 1_000_000
    )
}

fn fmt_ms(ns: u64) -> String {
    format!("{}.{}ms", ns / 1_000_000, (ns % 1_000_000) / 100_000)
}

fn fmt_opt_ms(v: Option<u64>) -> String {
    v.map_or_else(|| "-".to_string(), fmt_ms)
}

/// Renders one dump (expected [canonicalized](IncidentDump::canonicalize))
/// and its score as a plain-text report. Pure function of its inputs, so
/// same-seed runs render byte-identical reports.
pub fn render_report(dump: &IncidentDump, cell: &ScoreCell) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "incident report · driver={} fault={} cluster={} seed={}\n",
        dump.driver, dump.fault, dump.cluster, dump.seed
    ));

    out.push_str("ground truth:\n");
    if dump.faults.is_empty() {
        out.push_str("  (no fault injected)\n");
    }
    for f in &dump.faults {
        out.push_str(&format!(
            "  {}  {}  onset {}  {}  severity {:.3}\n",
            f.node,
            f.kind,
            fmt_t(f.onset),
            f.cleared.map_or_else(
                || "never cleared".to_string(),
                |c| format!("cleared {}", fmt_t(c))
            ),
            f.severity
        ));
    }

    out.push_str("timeline:\n");
    if dump.events.is_empty() {
        out.push_str("  (no health events)\n");
    }
    // Coalesce consecutive events with the same (node, group, layer,
    // transition): the first occurrence keeps its evidence; repeats fold
    // into a count and a time range. Group-scoped events render the
    // group next to the node; ungrouped lines are unchanged.
    let subject = |e: &HealthEvent| match e.group {
        Some(g) => format!("{}/g{g}", e.node),
        None => e.node.to_string(),
    };
    let mut i = 0;
    while i < dump.events.len() {
        let e = &dump.events[i];
        let mut j = i + 1;
        while j < dump.events.len() {
            let n = &dump.events[j];
            if n.node == e.node
                && n.group == e.group
                && n.layer == e.layer
                && n.transition == e.transition
            {
                j += 1;
            } else {
                break;
            }
        }
        if j - i == 1 {
            out.push_str(&format!(
                "  {}  {}  {:<10}  {:<10}  {}\n",
                fmt_t(e.t),
                subject(e),
                e.layer,
                e.transition,
                e.evidence
            ));
        } else {
            out.push_str(&format!(
                "  {}..{}  {}  {:<10}  {:<10}  x{}  {}\n",
                fmt_t(e.t),
                fmt_t(dump.events[j - 1].t),
                subject(e),
                e.layer,
                e.transition,
                j - i,
                e.evidence
            ));
        }
        i = j;
    }
    if dump.health_dropped > 0 {
        out.push_str(&format!(
            "  WARNING: {} health events dropped at the tracer capacity cap — timeline above is incomplete\n",
            dump.health_dropped
        ));
    }

    out.push_str(&format!(
        "scorecard:\n  detected={} ttd={} ttm={} ttr={} tts={} storm={} fp={} fn={} misattr={}\n",
        if dump.faults.is_empty() {
            "n/a".to_string()
        } else {
            cell.detected.to_string()
        },
        fmt_opt_ms(cell.ttd_ns),
        fmt_opt_ms(cell.ttm_ns),
        fmt_opt_ms(cell.ttr_ns),
        fmt_opt_ms(cell.tts_ns),
        cell.storm_sustained,
        cell.false_positives,
        cell.false_negatives,
        cell.misattributions
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scorecard::score;
    use crate::tests::event;

    #[test]
    fn report_has_truth_timeline_and_verdict() {
        let mut d = crate::tests::sample_dump();
        d.canonicalize();
        let cell = score(&d);
        let r = render_report(&d, &cell);
        assert!(r.contains("driver=DepFast fault=Disk Slowness"));
        assert!(r.contains("n2  Disk Slowness  onset 2.000s  cleared 3.200s"));
        assert!(r.contains("2.400s  n2  detector    suspect"));
        assert!(r.contains("detected=true ttd=400.0ms ttm=450.0ms ttr=1500.0ms"));
        assert!(r.contains("fp=0 fn=0 misattr=0"));
    }

    #[test]
    fn repeated_transitions_coalesce() {
        let mut d = crate::tests::sample_dump();
        for k in 0..40u64 {
            let evidence = format!("lazy probe; acked={}", 1200 + k);
            d.events.push(event(
                2_500_000_000 + k * 20_000_000,
                2,
                "raft",
                "probe",
                &evidence,
            ));
        }
        d.canonicalize();
        let cell = score(&d);
        let r = render_report(&d, &cell);
        assert!(r.contains("x40"), "{r}");
        assert_eq!(
            r.matches("probe").count(),
            2,
            "one line + its evidence: {r}"
        );
    }

    #[test]
    fn dropped_health_events_are_called_out() {
        let mut d = crate::tests::sample_dump();
        let cell = score(&d);
        let clean = render_report(&d, &cell);
        assert!(!clean.contains("WARNING"), "{clean}");
        d.health_dropped = 12;
        let r = render_report(&d, &cell);
        assert!(
            r.contains("WARNING: 12 health events dropped"),
            "silent loss must be visible: {r}"
        );
        assert!(r.contains("timeline above is incomplete"));
    }

    #[test]
    fn no_fault_report_says_so() {
        let d = crate::IncidentDump {
            driver: "Sync".into(),
            fault: "none".into(),
            cluster: "3x64".into(),
            seed: 7,
            faults: vec![],
            events: vec![],
            throughput: vec![],
            end_ns: 0,
            health_dropped: 0,
        };
        let cell = score(&d);
        let r = render_report(&d, &cell);
        assert!(r.contains("(no fault injected)"));
        assert!(r.contains("(no health events)"));
        assert!(r.contains("detected=n/a"));
    }
}
