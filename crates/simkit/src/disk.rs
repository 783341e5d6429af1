//! Disk model: a single FIFO device queue with bandwidth and latency.
//!
//! Table 1's two disk fail-slow modes map onto this model as follows:
//!
//! * **Disk (slow)** — "use cgroup to limit disk I/O bandwidth available
//!   for the RSM process": [`DiskModel::set_bw_factor`] scales the
//!   process-visible bandwidth down.
//! * **Disk (contention)** — "run a contending program that writes heavily
//!   on the shared disk": the fault injector submits large background
//!   writes through the same FIFO queue, so foreground `fsync`s wait
//!   behind them exactly as they would on a shared device.
//!
//! Writes are buffered (cheap) and `fsync` pays for the accumulated dirty
//! bytes, which mirrors how journaling databases interact with the page
//! cache and lets group commit show up naturally in the simulation.

use std::time::Duration;

use crate::time::SimTime;

/// Static disk configuration for one node.
#[derive(Debug, Clone, Copy)]
pub struct DiskCfg {
    /// Fixed cost of any I/O request (submission + device latency).
    pub base_latency: Duration,
    /// Extra fixed cost of a flush barrier.
    pub fsync_latency: Duration,
    /// Sequential bandwidth in bytes per second.
    pub bandwidth_bps: f64,
}

impl Default for DiskCfg {
    fn default() -> Self {
        // Roughly a premium cloud SSD: ~100 µs access, ~200 MB/s.
        DiskCfg {
            base_latency: Duration::from_micros(80),
            fsync_latency: Duration::from_micros(120),
            bandwidth_bps: 200.0 * 1024.0 * 1024.0,
        }
    }
}

/// A disk I/O request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskOp {
    /// Buffered write of `bytes` (cheap until fsynced).
    Write { bytes: u64 },
    /// Flush barrier paying for `bytes` of dirty data.
    Fsync { bytes: u64 },
    /// Read of `bytes` that misses the page cache.
    Read { bytes: u64 },
}

/// Per-node disk state: FIFO queue tail plus fault knobs.
#[derive(Debug, Clone)]
pub struct DiskModel {
    cfg: DiskCfg,
    bw_factor: f64,
    queue_free_at: SimTime,
}

impl DiskModel {
    /// Creates an idle disk.
    pub fn new(cfg: DiskCfg) -> Self {
        assert!(cfg.bandwidth_bps > 0.0, "bandwidth must be positive");
        DiskModel {
            cfg,
            bw_factor: 1.0,
            queue_free_at: SimTime::ZERO,
        }
    }

    /// Sets the bandwidth factor in `(0, 1]` (1.0 = unrestricted).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not in `(0, 1]`.
    pub fn set_bw_factor(&mut self, factor: f64) {
        assert!(factor > 0.0 && factor <= 1.0, "factor must be in (0, 1]");
        self.bw_factor = factor;
    }

    /// Current effective bandwidth in bytes/second.
    pub fn effective_bandwidth(&self) -> f64 {
        self.cfg.bandwidth_bps * self.bw_factor
    }

    /// Instant at which the FIFO queue drains: the start time the next
    /// request would get. Exposed so the world can observe per-request
    /// queueing delay.
    pub fn queue_free_at(&self) -> SimTime {
        self.queue_free_at
    }

    /// Service time of `op` in isolation (no queueing).
    pub fn service_time(&self, op: DiskOp) -> Duration {
        let bw = self.effective_bandwidth();
        let transfer = |bytes: u64| Duration::from_nanos((bytes as f64 / bw * 1e9) as u64);
        match op {
            // A buffered write only pays the submission cost; the data
            // transfer cost is deferred to the next fsync.
            DiskOp::Write { .. } => self.cfg.base_latency,
            DiskOp::Fsync { bytes } => {
                self.cfg.base_latency + self.cfg.fsync_latency + transfer(bytes)
            }
            DiskOp::Read { bytes } => self.cfg.base_latency + transfer(bytes),
        }
    }

    /// Enqueues `op` behind everything already queued and returns its
    /// completion instant. `slowdown` is the memory-pressure multiplier.
    pub fn schedule(&mut self, now: SimTime, op: DiskOp, slowdown: f64) -> SimTime {
        let service = self.service_time(op);
        let effective = Duration::from_nanos((service.as_nanos() as f64 * slowdown) as u64);
        let start = now.max(self.queue_free_at);
        let finish = start + effective;
        self.queue_free_at = finish;
        finish
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> DiskModel {
        DiskModel::new(DiskCfg {
            base_latency: Duration::from_micros(100),
            fsync_latency: Duration::from_micros(100),
            bandwidth_bps: 1_000_000.0, // 1 MB/s for easy arithmetic
        })
    }

    #[test]
    fn buffered_write_pays_only_base_latency() {
        let mut d = disk();
        let f = d.schedule(SimTime::ZERO, DiskOp::Write { bytes: 500_000 }, 1.0);
        assert_eq!(f, SimTime::from_micros(100));
    }

    #[test]
    fn fsync_pays_for_dirty_bytes() {
        let mut d = disk();
        // 1 MB at 1 MB/s = 1 s transfer + 200 µs fixed.
        let f = d.schedule(SimTime::ZERO, DiskOp::Fsync { bytes: 1_000_000 }, 1.0);
        assert_eq!(f, SimTime::from_micros(1_000_200));
    }

    #[test]
    fn fifo_queueing_serializes_requests() {
        let mut d = disk();
        let a = d.schedule(SimTime::ZERO, DiskOp::Read { bytes: 1_000_000 }, 1.0);
        let b = d.schedule(SimTime::ZERO, DiskOp::Read { bytes: 1_000_000 }, 1.0);
        assert_eq!(a, SimTime::from_micros(1_000_100));
        assert_eq!(b, SimTime::from_micros(2_000_200));
    }

    #[test]
    fn bandwidth_factor_slows_transfers() {
        let mut d = disk();
        d.set_bw_factor(0.1);
        let f = d.schedule(SimTime::ZERO, DiskOp::Read { bytes: 1_000_000 }, 1.0);
        // 1 MB at 0.1 MB/s = 10 s.
        assert_eq!(f, SimTime::from_micros(10_000_100));
    }

    #[test]
    fn slowdown_multiplier_applies() {
        let mut d = disk();
        let f = d.schedule(SimTime::ZERO, DiskOp::Write { bytes: 1 }, 2.0);
        assert_eq!(f, SimTime::from_micros(200));
    }

    #[test]
    fn contending_writes_delay_foreground_fsync() {
        let mut d = disk();
        // Background contender floods the queue.
        d.schedule(SimTime::ZERO, DiskOp::Fsync { bytes: 5_000_000 }, 1.0);
        // Foreground fsync of 1 KB now waits ~5 s behind it.
        let f = d.schedule(SimTime::ZERO, DiskOp::Fsync { bytes: 1_000 }, 1.0);
        assert!(f > SimTime::from_secs(5));
    }
}
