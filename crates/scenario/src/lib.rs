//! Gray-failure scenarios as pure data.
//!
//! The paper's Table 1 measures six *static, single-node* fail-slow
//! faults. Real fleets see flapping disks, correlated stragglers,
//! partial partitions and load-induced metastable states — regimes
//! where "recovery is the normal case" and a detector's blind spots
//! matter more than its happy path. This crate turns those regimes into
//! data:
//!
//! - [`dsl`]: `Scenario = fault kind × schedule (constant | flapping |
//!   ramp | load-triggered) × target (follower | leader |
//!   quorum-minority | correlated-pair)`, with [`dsl::catalog`] as the
//!   fixed 8-cell matrix.
//! - [`compile`]: pure scenario → [`InjectionPlan`] lowering, enforcing
//!   the never-degrade-a-majority invariant before anything runs.
//!
//! Nothing here touches a clock or a cluster. `depfast-bench` runs a
//! plan (its `Run` description holds one) and `gate scenario` diffs the
//! fixed-seed scenario × driver matrix against the committed
//! `BENCH_scenarios_baseline.json`.

#![warn(missing_docs)]

pub mod compile;
pub mod dsl;

pub use compile::{scale_kind, CompileError, InjectionPlan, Trigger, Window};
pub use dsl::{catalog, Scenario, Schedule, Target};
