//! Deterministic discrete-event simulation substrate for the DepFast
//! reproduction.
//!
//! `simkit` provides everything below the DepFast programming model:
//!
//! * a virtual clock ([`SimTime`]) and a single-threaded, deterministic
//!   async executor ([`Sim`]) that advances time only when every runnable
//!   task has yielded,
//! * seeded randomness so that whole-cluster experiments replay exactly,
//! * resource models for the four hardware components the paper's Table 1
//!   injects fail-slow faults into: [`cpu`], [`disk`], [`memory`] and
//!   [`net`],
//! * a [`World`] that wires per-node resource models and a
//!   shared network into one simulated cluster, carrying each message as
//!   a [`Frame`] — charged by its length, held in shared segments.
//!
//! The substrate replaces the paper's Azure testbed (see `DESIGN.md` §1):
//! fail-slow faults are *performance* faults, so a discrete-event simulator
//! that distorts service times the same way `cgroup`/`tc` would reproduces
//! the behaviour the paper measures, deterministically and far faster than
//! real time.

pub mod cpu;
pub mod disk;
pub mod executor;
pub mod frame;
pub mod memory;
pub mod net;
pub mod time;
pub mod world;

pub use cpu::CpuCfg;
pub use disk::DiskCfg;
pub use executor::{JoinHandle, Sim, Sleep, TimerId, WakerSlot};
pub use frame::Frame;
pub use memory::MemCfg;
pub use net::NetCfg;
pub use time::SimTime;
pub use world::{NodeId, ResourceKind, ResourceObservation, ResourceProbe, World, WorldCfg};

/// Convenience alias for the non-`Send` boxed futures the executor runs.
pub type LocalBoxFuture<T> = std::pin::Pin<Box<dyn std::future::Future<Output = T>>>;

/// Error returned by resource operations on a crashed node.
///
/// A node crashes when it is explicitly killed (fail-stop injection) or when
/// its [`memory::MemoryModel`] hits the out-of-memory limit — the mechanism
/// behind the paper's observation that "fail-slow faults on CPUs crashed the
/// leader" in RethinkDB (§2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crashed;

impl std::fmt::Display for Crashed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node has crashed")
    }
}

impl std::error::Error for Crashed {}
