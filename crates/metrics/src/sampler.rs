//! Virtual-clock time-series sampling of a [`MetricsRegistry`].
//!
//! A [`Sampler`] turns cumulative metrics into per-interval curves: the
//! harness calls [`Sampler::sample_at`] from a simulation-clock loop,
//! and each produced row is pinned to an exact multiple of the sampling
//! interval regardless of caller jitter — so rows from different runs
//! and different metrics align by construction.

use crate::registry::{Key, MetricValue, MetricsRegistry};
use crate::TimeNs;
use std::fmt::Write as _;

/// One sampled row: a timestamp on the interval grid plus a snapshot of
/// every metric registered at that moment.
#[derive(Debug, Clone)]
pub struct SampleRow {
    /// Virtual timestamp, an exact multiple of the sampling interval.
    pub t_ns: TimeNs,
    /// Snapshot values, sorted by key.
    pub values: Vec<(Key, MetricValue)>,
}

/// Periodic snapshot collector driven by an external (virtual) clock.
pub struct Sampler {
    registry: MetricsRegistry,
    interval_ns: TimeNs,
    rows: Vec<SampleRow>,
}

impl Sampler {
    /// Creates a sampler reading `registry` every `interval_ns`.
    ///
    /// # Panics
    /// If `interval_ns` is zero.
    pub fn new(registry: MetricsRegistry, interval_ns: TimeNs) -> Self {
        assert!(interval_ns > 0, "sampling interval must be positive");
        Sampler {
            registry,
            interval_ns,
            rows: Vec::new(),
        }
    }

    /// Offers the sampler the current virtual time. Records a row if a
    /// new interval tick has been reached, aligning the row's timestamp
    /// down to the interval grid; returns `true` when a row was taken.
    ///
    /// Call sites typically loop `sleep(interval); sample_at(now)` — the
    /// alignment makes the recorded series independent of wake-up
    /// jitter, and a late caller records one row (not a backlog of
    /// missed ticks).
    pub fn sample_at(&mut self, now_ns: TimeNs) -> bool {
        let tick = now_ns - now_ns % self.interval_ns;
        if let Some(last) = self.rows.last() {
            if tick <= last.t_ns {
                return false;
            }
        }
        self.rows.push(SampleRow {
            t_ns: tick,
            values: self.registry.snapshot(),
        });
        true
    }

    /// All rows recorded so far.
    pub fn rows(&self) -> &[SampleRow] {
        &self.rows
    }

    /// Renders the series as long-format CSV:
    /// `t_seconds,name,node,tag,kind,value,delta,mean_ns`.
    ///
    /// `value` is the cumulative scalar (counter value, gauge level or
    /// histogram count); `delta` is its change since the previous row —
    /// i.e. per-interval throughput for counters. For histograms the
    /// `mean_ns` column carries the windowed mean latency of the interval
    /// (from snapshot differencing). The detector computes its own window
    /// means the same way, from the registry's `rpc.latency` histograms
    /// at its own poll period; it reads no sampler row.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("t_seconds,name,node,tag,kind,value,delta,mean_ns\n");
        let mut prev: Option<&SampleRow> = None;
        for row in &self.rows {
            for (k, v) in &row.values {
                let prev_v =
                    prev.and_then(|p| p.values.iter().find(|(pk, _)| pk == k).map(|(_, pv)| *pv));
                let delta = v.scalar() - prev_v.map_or(0, |p| p.scalar());
                let mean_ns = match (v, prev_v) {
                    (MetricValue::Histogram(h), prev) => {
                        let (pc, pt) = match prev {
                            Some(MetricValue::Histogram(p)) => (p.count, p.total_ns),
                            _ => (0, 0),
                        };
                        let dc = h.count.saturating_sub(pc);
                        let dt = h.total_ns.saturating_sub(pt);
                        if dc > 0 {
                            ((dt / dc as u128) as u64).to_string()
                        } else {
                            String::new()
                        }
                    }
                    _ => String::new(),
                };
                let _ = writeln!(
                    out,
                    "{:.3},{},{},{},{},{},{},{}",
                    row.t_ns as f64 / 1e9,
                    k.name,
                    k.node.map(|n| n.to_string()).unwrap_or_default(),
                    k.tag.unwrap_or(""),
                    v.kind(),
                    v.scalar(),
                    delta,
                    mean_ns
                );
            }
            prev = Some(row);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    #[test]
    fn rows_align_to_interval_grid() {
        let r = MetricsRegistry::new();
        let c = r.node(0).counter("ops");
        let mut s = Sampler::new(r, 10 * MS);
        // Jittered call times: rows must still land on exact multiples.
        assert!(s.sample_at(13 * MS));
        c.add(5);
        assert!(s.sample_at(27 * MS));
        c.add(5);
        assert!(s.sample_at(30 * MS));
        let ts: Vec<u64> = s.rows().iter().map(|r| r.t_ns).collect();
        assert_eq!(ts, vec![10 * MS, 20 * MS, 30 * MS]);
    }

    #[test]
    fn same_tick_is_sampled_once() {
        let r = MetricsRegistry::new();
        let mut s = Sampler::new(r, 10 * MS);
        assert!(s.sample_at(10 * MS));
        assert!(!s.sample_at(14 * MS));
        assert!(!s.sample_at(19 * MS));
        assert!(s.sample_at(20 * MS));
        assert_eq!(s.rows().len(), 2);
    }

    #[test]
    fn late_caller_records_one_row_not_a_backlog() {
        let r = MetricsRegistry::new();
        let mut s = Sampler::new(r, 10 * MS);
        assert!(s.sample_at(10 * MS));
        // Five intervals pass before the next call: exactly one row.
        assert!(s.sample_at(63 * MS));
        let ts: Vec<u64> = s.rows().iter().map(|r| r.t_ns).collect();
        assert_eq!(ts, vec![10 * MS, 60 * MS]);
    }

    #[test]
    fn csv_deltas_give_per_interval_rates() {
        let r = MetricsRegistry::new();
        let ops = r.node(0).counter("ops");
        let lat = r.node(0).histogram("lat");
        let mut s = Sampler::new(r, 10 * MS);
        ops.add(100);
        lat.record_ns(1_000);
        s.sample_at(10 * MS);
        ops.add(250);
        lat.record_ns(3_000);
        lat.record_ns(5_000);
        s.sample_at(20 * MS);
        let csv = s.to_csv();
        // Second interval: +250 ops, histogram windowed mean (3000+5000)/2.
        assert!(csv.contains("0.020,ops,0,,counter,350,250,"), "csv:\n{csv}");
        assert!(
            csv.contains("0.020,lat,0,,histogram,3,2,4000"),
            "csv:\n{csv}"
        );
    }
}
