//! The scenario DSL: `Scenario = fault kind × schedule × target ×
//! correlation`.
//!
//! A scenario is pure data. [`Scenario::compile`](crate::compile) turns
//! it into an [`InjectionPlan`](crate::InjectionPlan) — a list of
//! concrete `(node, kind, at, duration)` windows plus load triggers —
//! which the matrix runner arms through the `FaultLedger`-logged
//! injection API. Keeping the two steps separate makes the interesting
//! properties (determinism, never-a-majority) checkable without running
//! a cluster.

use std::time::Duration;

use depfast_fault::FaultKind;

/// When (and how often) the fault is active.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Schedule {
    /// One contiguous window; `duration: None` never clears.
    Constant {
        /// Onset, as an offset from run start.
        at: Duration,
        /// Active span (`None` = rest of the run).
        duration: Option<Duration>,
    },
    /// Periodic on/off windows: active for `period × duty` at the start
    /// of each period, from `at` until `until`. `duty = 1.0` produces
    /// back-to-back windows — the case for the `FaultLedger`'s knob
    /// ownership.
    Flapping {
        /// First onset.
        at: Duration,
        /// Full on+off cycle length.
        period: Duration,
        /// Active fraction of each period, in `(0, 1]`.
        duty: f64,
        /// No window starts at or after this offset.
        until: Duration,
    },
    /// Severity ramp: `steps` back-to-back windows between `at` and
    /// `until`, fault severity interpolated from mild to the scenario's
    /// full `kind` (see [`scale_kind`](crate::compile::scale_kind)).
    Ramp {
        /// Ramp start.
        at: Duration,
        /// Ramp end (last window clears here).
        until: Duration,
        /// Number of severity steps (≥ 1).
        steps: u32,
    },
    /// Load-induced fault: injects once the cluster's commit index
    /// first reaches `commits` (the metastable "tips over under load"
    /// shape), active for `duration`.
    LoadTriggered {
        /// Commit-index threshold that arms the fault.
        commits: u64,
        /// Active span once triggered.
        duration: Duration,
    },
}

/// Which replica(s) the fault lands on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// One follower, chosen deterministically from the seed.
    Follower,
    /// The (bootstrap) leader — exercises demotion/campaign mitigation.
    Leader,
    /// The largest follower set that is still a strict minority
    /// (`⌊(n-1)/2⌋` nodes): the paper's quorum-tolerable envelope.
    QuorumMinority,
    /// Two followers degrading *together* — the correlated-slowness
    /// case where a peer-relative detector has no healthy majority.
    /// On a 3-node group this is a majority and requires
    /// [`Scenario::allow_majority`].
    CorrelatedPair,
}

/// One composable gray-failure scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Stable name; keys the survival report and the CI baseline.
    pub name: String,
    /// The fault applied in each active window (full severity).
    pub kind: FaultKind,
    /// When the fault is active.
    pub schedule: Schedule,
    /// Which replica(s) it lands on.
    pub target: Target,
    /// Explicit opt-in for plans that degrade a majority of the group
    /// (compilation refuses otherwise).
    pub allow_majority: bool,
}

impl Scenario {
    /// A constant single-window scenario — the common case.
    pub fn constant(
        name: &str,
        kind: FaultKind,
        target: Target,
        at: Duration,
        duration: Duration,
    ) -> Self {
        Scenario {
            name: name.to_string(),
            kind,
            schedule: Schedule::Constant {
                at,
                duration: Some(duration),
            },
            target,
            allow_majority: false,
        }
    }
}

/// Onset/duration shared by the catalog cells: past the detector's
/// warm-up windows (5 × 200 ms polls starting at 2 s warm-up's ~1 s
/// steady point), healed with enough tail to measure recovery.
const AT: Duration = Duration::from_secs(2);
const DUR: Duration = Duration::from_millis(1200);

/// The fixed scenario matrix: 8 cells spanning constant, flapping,
/// ramped, load-triggered, leader-targeted, quorum-minority, correlated
/// and partial-partition gray failures. Every cell runs against all five
/// drivers in the survival matrix.
pub fn catalog() -> Vec<Scenario> {
    vec![
        Scenario::constant(
            "disk-slow-follower",
            FaultKind::DiskSlow { bw_factor: 0.008 },
            Target::Follower,
            AT,
            DUR,
        ),
        Scenario {
            name: "flapping-disk-follower".to_string(),
            kind: FaultKind::DiskSlow { bw_factor: 0.008 },
            schedule: Schedule::Flapping {
                at: AT,
                period: Duration::from_millis(600),
                duty: 0.5,
                until: AT + Duration::from_millis(2400),
            },
            target: Target::Follower,
            allow_majority: false,
        },
        Scenario::constant(
            "leader-cpu-slow",
            FaultKind::CpuSlow { quota: 0.05 },
            Target::Leader,
            AT,
            DUR,
        ),
        Scenario {
            name: "correlated-disk-pair".to_string(),
            kind: FaultKind::DiskSlow { bw_factor: 0.008 },
            schedule: Schedule::Constant {
                at: AT,
                duration: Some(DUR),
            },
            target: Target::CorrelatedPair,
            // Two of three replicas: a majority, taken deliberately.
            allow_majority: true,
        },
        Scenario::constant(
            "partial-partition-follower",
            // peer 0 = the bootstrap leader: the follower falls off the
            // leader's horizon while staying reachable from its peer.
            FaultKind::PartialPartition { peer: 0 },
            Target::Follower,
            AT,
            DUR,
        ),
        Scenario {
            name: "ramp-net-follower".to_string(),
            kind: FaultKind::NetSlow {
                delay: Duration::from_millis(400),
            },
            schedule: Schedule::Ramp {
                at: AT,
                until: AT + Duration::from_millis(2400),
                steps: 4,
            },
            target: Target::Follower,
            allow_majority: false,
        },
        Scenario::constant(
            "quorum-minority-cpu-contention",
            FaultKind::CpuContention {
                share: 1.0 / 17.0,
                on: Duration::from_millis(30),
                off: Duration::from_millis(30),
            },
            Target::QuorumMinority,
            AT,
            DUR,
        ),
        Scenario {
            name: "load-spike-disk-contention".to_string(),
            kind: FaultKind::DiskContention {
                write_bytes: 2200 * 1024,
                period: Duration::from_millis(10),
            },
            schedule: Schedule::LoadTriggered {
                commits: 5_000,
                duration: DUR,
            },
            target: Target::Follower,
            allow_majority: false,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_the_required_shapes() {
        let cat = catalog();
        assert!(cat.len() >= 8);
        assert!(cat
            .iter()
            .any(|s| matches!(s.schedule, Schedule::Flapping { .. })));
        assert!(cat.iter().any(|s| s.target == Target::CorrelatedPair));
        assert!(cat
            .iter()
            .any(|s| matches!(s.kind, FaultKind::PartialPartition { .. })));
        assert!(cat.iter().any(|s| s.target == Target::Leader));
        assert!(cat
            .iter()
            .any(|s| matches!(s.schedule, Schedule::LoadTriggered { .. })));
        // Names are unique: they key baseline records.
        let mut names: Vec<&str> = cat.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), cat.len());
    }
}
