//! Fail-slow failure detection and mitigation — the paper's §5 future
//! work, implemented:
//!
//! > *"We realize that the events in principle provide trace points needed
//! > by existing monitoring techniques ... Therefore, we plan to implement
//! > failure detectors based on those trace points. Lastly, we will
//! > develop mitigation procedures specific to the detected failure modes.
//! > For instance, in DepFastRaft, if the leader is detected to fail-slow,
//! > a leader re-election can be triggered to turn the fail-slow leader
//! > into a fail-slow follower, which is well tolerated by DepFastRaft."*
//!
//! [`detect`] polls the callee-scoped `rpc.latency` histograms every RPC
//! event fire records into the shared metric registry and flags nodes
//! whose completion latencies deviate from their own baseline; [`mitigate`]
//! implements the named mitigation: hand a suspected fail-slow leader's
//! leadership to a follower that can serve, until leadership moves.

pub mod detect;
pub mod mitigate;
pub mod storm;

pub use detect::{DetectorMode, FailSlowDetector, Suspicion};
pub use mitigate::spawn_leader_mitigation;
pub use storm::StormMonitor;
