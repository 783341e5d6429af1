//! Memory model: usage accounting, swap-pressure slowdown and OOM.
//!
//! Table 1's **memory (contention)** fault — "use cgroup to set the maximum
//! amount of user memory for the RSM process" — is modelled by shrinking
//! the limit at runtime. Two behaviours fall out:
//!
//! * as usage approaches the limit the node pays a growing *swap penalty*
//!   (a service-time multiplier applied to its CPU and disk operations),
//!   capturing the thrashing a memory-squeezed process experiences;
//! * allocations beyond the limit fail with [`Oom`], which the caller (the
//!   RPC buffer layer) turns into a node crash — reproducing §2.2's
//!   RethinkDB observation that an unbounded leader-side buffer "can drive
//!   the leader to use an excessive amount of memory, or even run out of
//!   memory".

/// Static memory configuration for one node.
#[derive(Debug, Clone, Copy)]
pub struct MemCfg {
    /// Hard limit in bytes (the paper's VMs have 16 GiB).
    pub limit: u64,
    /// Baseline resident set of the process before any buffering.
    pub baseline: u64,
    /// Usage fraction above which the swap penalty starts.
    pub swap_threshold: f64,
    /// Service-time multiplier at 100% usage.
    pub swap_max_slowdown: f64,
}

impl Default for MemCfg {
    fn default() -> Self {
        MemCfg {
            limit: 16 * 1024 * 1024 * 1024,
            baseline: 2 * 1024 * 1024 * 1024,
            swap_threshold: 0.80,
            swap_max_slowdown: 10.0,
        }
    }
}

/// Error returned when an allocation would exceed the memory limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Oom {
    /// Bytes requested by the failing allocation.
    pub requested: u64,
    /// Bytes in use at the time of the failure.
    pub used: u64,
    /// The limit that was exceeded.
    pub limit: u64,
}

impl std::fmt::Display for Oom {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "out of memory: requested {} with {}/{} bytes in use",
            self.requested, self.used, self.limit
        )
    }
}

impl std::error::Error for Oom {}

/// Per-node memory state.
#[derive(Debug, Clone)]
pub struct MemoryModel {
    cfg: MemCfg,
    limit: u64,
    used: u64,
    /// High-water mark, for reporting.
    peak: u64,
}

impl MemoryModel {
    /// Creates a model with `cfg.baseline` bytes already in use.
    pub fn new(cfg: MemCfg) -> Self {
        assert!(cfg.baseline <= cfg.limit, "baseline must fit in the limit");
        assert!(
            (0.0..1.0).contains(&cfg.swap_threshold),
            "swap threshold must be in [0, 1)"
        );
        assert!(cfg.swap_max_slowdown >= 1.0, "slowdown must be >= 1");
        MemoryModel {
            limit: cfg.limit,
            used: cfg.baseline,
            peak: cfg.baseline,
            cfg,
        }
    }

    /// Bytes currently in use.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Test probe: high-water mark of usage.
    #[doc(hidden)]
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// Changes the limit (the cgroup memory fault). Usage already above the
    /// new limit does not immediately OOM — like a cgroup, pressure applies
    /// to *new* allocations — but the swap penalty kicks in at once.
    pub fn set_limit(&mut self, limit: u64) {
        assert!(limit > 0, "limit must be positive");
        self.limit = limit;
    }

    /// Restores the configured limit.
    pub fn reset_limit(&mut self) {
        self.limit = self.cfg.limit;
    }

    /// Attempts to account `bytes` of new usage.
    pub fn alloc(&mut self, bytes: u64) -> Result<(), Oom> {
        if self.used.saturating_add(bytes) > self.limit {
            return Err(Oom {
                requested: bytes,
                used: self.used,
                limit: self.limit,
            });
        }
        self.used += bytes;
        self.peak = self.peak.max(self.used);
        Ok(())
    }

    /// Releases `bytes` of usage (saturating: freeing more than allocated
    /// clamps to the baseline rather than underflowing).
    pub fn free(&mut self, bytes: u64) {
        self.used = self
            .used
            .saturating_sub(bytes)
            .max(self.cfg.baseline.min(self.used));
    }

    /// Usage as a fraction of the current limit (may exceed 1.0 after the
    /// limit is lowered below existing usage).
    pub fn pressure(&self) -> f64 {
        self.used as f64 / self.limit as f64
    }

    /// The swap-penalty multiplier to apply to CPU and disk service times.
    ///
    /// 1.0 below the threshold, rising linearly to `swap_max_slowdown` at
    /// 100% usage (and clamped there beyond).
    pub fn slowdown(&self) -> f64 {
        let p = self.pressure();
        let t = self.cfg.swap_threshold;
        if p <= t {
            1.0
        } else {
            let frac = ((p - t) / (1.0 - t)).min(1.0);
            1.0 + frac * (self.cfg.swap_max_slowdown - 1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> MemoryModel {
        MemoryModel::new(MemCfg {
            limit: 1000,
            baseline: 100,
            swap_threshold: 0.8,
            swap_max_slowdown: 11.0,
        })
    }

    #[test]
    fn alloc_and_free_track_usage() {
        let mut m = model();
        m.alloc(300).unwrap();
        assert_eq!(m.used(), 400);
        m.free(200);
        assert_eq!(m.used(), 200);
        assert_eq!(m.peak(), 400);
    }

    #[test]
    fn alloc_beyond_limit_is_oom() {
        let mut m = model();
        m.alloc(900).unwrap();
        let err = m.alloc(1).unwrap_err();
        assert_eq!(err.used, 1000);
        assert_eq!(err.limit, 1000);
    }

    #[test]
    fn no_slowdown_below_threshold() {
        let mut m = model();
        m.alloc(600).unwrap(); // 70% usage
        assert_eq!(m.slowdown(), 1.0);
    }

    #[test]
    fn slowdown_rises_linearly_above_threshold() {
        let mut m = model();
        m.alloc(800).unwrap(); // 90% usage: halfway between 0.8 and 1.0
        let s = m.slowdown();
        assert!((s - 6.0).abs() < 1e-9, "got {s}");
    }

    #[test]
    fn lowering_limit_raises_pressure_without_instant_oom() {
        let mut m = model();
        m.alloc(400).unwrap(); // 500 used
        m.set_limit(500);
        assert!((m.pressure() - 1.0).abs() < 1e-9);
        assert_eq!(m.slowdown(), 11.0);
        // New allocations now fail.
        assert!(m.alloc(1).is_err());
        m.reset_limit();
        assert!(m.alloc(1).is_ok());
    }

    #[test]
    fn free_never_drops_below_zero() {
        let mut m = model();
        m.free(10_000);
        assert!(m.used() <= 100);
    }
}
