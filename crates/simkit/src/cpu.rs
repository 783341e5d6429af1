//! CPU model: a multi-core FIFO server with cgroup-style rate distortion.
//!
//! Table 1 of the paper injects two CPU fail-slow modes:
//!
//! * **CPU (slow)** — "use cgroup to limit each RSM process to utilize only
//!   5% CPU": modelled by the [`quota`](CpuModel::set_quota) multiplier,
//!   which scales the rate at which every core retires work.
//! * **CPU (contention)** — "run a contending program (assigned with 16×
//!   higher CPU share than the process)": modelled by the
//!   [`contention share`](CpuModel::set_contention), the fraction of CPU
//!   time the victim process receives while a contender is active
//!   (1/(1+16) ≈ 5.9% for the paper's setting).
//!
//! Work items are scheduled onto the earliest-free core, so the model
//! captures both service-time inflation and queueing under load.

use std::time::Duration;

use crate::time::SimTime;

/// Static CPU configuration for one node.
#[derive(Debug, Clone, Copy)]
pub struct CpuCfg {
    /// Number of cores (the paper's Standard_D4s_v3 instances have 4).
    pub cores: usize,
}

impl Default for CpuCfg {
    fn default() -> Self {
        CpuCfg { cores: 4 }
    }
}

/// Per-node CPU state: one free-at timestamp per core plus the fault knobs.
#[derive(Debug, Clone)]
pub struct CpuModel {
    core_free_at: Vec<SimTime>,
    quota: f64,
    contention_share: Option<f64>,
    /// Cumulative busy nanoseconds, for utilization reporting.
    busy_nanos: u64,
}

impl CpuModel {
    /// Creates an idle CPU with full quota and no contention.
    pub fn new(cfg: CpuCfg) -> Self {
        assert!(cfg.cores > 0, "a CPU needs at least one core");
        CpuModel {
            core_free_at: vec![SimTime::ZERO; cfg.cores],
            quota: 1.0,
            contention_share: None,
            busy_nanos: 0,
        }
    }

    /// Sets the cgroup-style quota in `(0, 1]` (1.0 = unrestricted).
    ///
    /// # Panics
    ///
    /// Panics if `quota` is not in `(0, 1]`.
    pub fn set_quota(&mut self, quota: f64) {
        assert!(quota > 0.0 && quota <= 1.0, "quota must be in (0, 1]");
        self.quota = quota;
    }

    /// Activates (`Some(share)`) or clears (`None`) CPU contention.
    ///
    /// `share` is the fraction of CPU time the victim still receives, e.g.
    /// `1.0 / 17.0` for a contender with 16× higher share.
    ///
    /// # Panics
    ///
    /// Panics if `share` is not in `(0, 1]`.
    pub fn set_contention(&mut self, share: Option<f64>) {
        if let Some(s) = share {
            assert!(s > 0.0 && s <= 1.0, "share must be in (0, 1]");
        }
        self.contention_share = share;
    }

    /// Effective rate multiplier currently applied to work.
    pub fn rate(&self) -> f64 {
        self.quota * self.contention_share.unwrap_or(1.0)
    }

    /// Instant at which the earliest-free core becomes available: the
    /// start time the next scheduled work item would get. Exposed so the
    /// world can observe queueing delay (contention stalls) per request.
    pub fn next_free_at(&self) -> SimTime {
        self.core_free_at
            .iter()
            .copied()
            .min()
            .expect("at least one core")
    }

    /// Schedules `work` onto the earliest-free core and returns the finish
    /// instant. `slowdown` is an extra multiplier (memory-pressure swap
    /// penalty); the effective service time is
    /// `work / rate() * slowdown`.
    pub fn schedule(&mut self, now: SimTime, work: Duration, slowdown: f64) -> SimTime {
        let idx = self
            .core_free_at
            .iter()
            .enumerate()
            .min_by_key(|(_, t)| **t)
            .map(|(i, _)| i)
            .expect("at least one core");
        let start = now.max(self.core_free_at[idx]);
        let effective_nanos = (work.as_nanos() as f64 / self.rate() * slowdown) as u64;
        let finish = start + Duration::from_nanos(effective_nanos);
        self.core_free_at[idx] = finish;
        self.busy_nanos += effective_nanos;
        finish
    }

    /// Utilization over `[window_start, now]`, clamped to `[0, 1]`.
    pub fn utilization(&self, window: Duration) -> f64 {
        if window.is_zero() {
            return 0.0;
        }
        let capacity = window.as_nanos() as f64 * self.core_free_at.len() as f64;
        (self.busy_nanos as f64 / capacity).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn work_finishes_after_service_time() {
        let mut cpu = CpuModel::new(CpuCfg { cores: 1 });
        let f = cpu.schedule(SimTime::ZERO, ms(10), 1.0);
        assert_eq!(f, SimTime::from_millis(10));
    }

    #[test]
    fn quota_inflates_service_time() {
        let mut cpu = CpuModel::new(CpuCfg { cores: 1 });
        cpu.set_quota(0.05);
        let f = cpu.schedule(SimTime::ZERO, ms(10), 1.0);
        assert_eq!(f, SimTime::from_millis(200));
    }

    #[test]
    fn contention_share_composes_with_quota() {
        let mut cpu = CpuModel::new(CpuCfg { cores: 1 });
        cpu.set_quota(0.5);
        cpu.set_contention(Some(0.5));
        assert!((cpu.rate() - 0.25).abs() < 1e-12);
        let f = cpu.schedule(SimTime::ZERO, ms(1), 1.0);
        assert_eq!(f, SimTime::from_millis(4));
    }

    #[test]
    fn multi_core_runs_in_parallel_then_queues() {
        let mut cpu = CpuModel::new(CpuCfg { cores: 2 });
        let a = cpu.schedule(SimTime::ZERO, ms(10), 1.0);
        let b = cpu.schedule(SimTime::ZERO, ms(10), 1.0);
        let c = cpu.schedule(SimTime::ZERO, ms(10), 1.0);
        assert_eq!(a, SimTime::from_millis(10));
        assert_eq!(b, SimTime::from_millis(10));
        // Third item waits for a free core.
        assert_eq!(c, SimTime::from_millis(20));
    }

    #[test]
    fn slowdown_multiplier_applies() {
        let mut cpu = CpuModel::new(CpuCfg { cores: 1 });
        let f = cpu.schedule(SimTime::ZERO, ms(10), 3.0);
        assert_eq!(f, SimTime::from_millis(30));
    }

    #[test]
    fn utilization_tracks_busy_time() {
        let mut cpu = CpuModel::new(CpuCfg { cores: 4 });
        for _ in 0..4 {
            cpu.schedule(SimTime::ZERO, ms(5), 1.0);
        }
        let u = cpu.utilization(ms(10));
        assert!((u - 0.5).abs() < 1e-9, "got {u}");
    }

    #[test]
    #[should_panic(expected = "quota")]
    fn zero_quota_rejected() {
        let mut cpu = CpuModel::new(CpuCfg::default());
        cpu.set_quota(0.0);
    }
}
