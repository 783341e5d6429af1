//! The one cluster fixture of this crate's unit tests: a simulated world
//! with one driver on it, and a closed-loop proposer for the group's first
//! server.

use std::time::Duration;

use bytes::Bytes;
use depfast::event::Watchable;
use simkit::{Sim, World, WorldCfg};

use crate::cluster::{Placement, RaftCluster, RaftKind};
use crate::core::RaftCfg;

/// The steady-state configuration: node 0 starts as leader of term 1.
pub(crate) fn bootstrapped() -> RaftCfg {
    RaftCfg {
        bootstrap_leader: Some(0),
        ..RaftCfg::default()
    }
}

/// A default world of `nodes` nodes.
pub(crate) fn nodes(nodes: usize) -> WorldCfg {
    WorldCfg {
        nodes,
        ..WorldCfg::default()
    }
}

/// Builds `placement` of `kind` on a fresh world.
pub(crate) fn cluster(
    seed: u64,
    kind: RaftKind,
    cfg: RaftCfg,
    world: WorldCfg,
    placement: Placement,
) -> (Sim, World, RaftCluster) {
    let sim = Sim::new(seed);
    let world = World::new(sim.clone(), world);
    let cl = RaftCluster::build(&sim, &world, kind, cfg, placement);
    (sim, world, cl)
}

/// One group of three on three default nodes.
pub(crate) fn trio(seed: u64, kind: RaftKind, cfg: RaftCfg) -> (Sim, World, RaftCluster) {
    cluster(seed, kind, cfg, nodes(3), Placement::Single { n: 3 })
}

/// What [`drive`] observed.
pub(crate) struct Driven {
    /// Proposals that committed within their patience.
    pub committed: u32,
    /// Virtual time the whole drive took.
    pub elapsed: Duration,
    /// Slowest committed proposal.
    pub worst: Duration,
}

/// Proposes `n` payloads of `size` bytes to the first group's first
/// server, one at a time, waiting up to `patience` for each to commit.
pub(crate) fn drive(
    sim: &Sim,
    cl: &RaftCluster,
    n: u32,
    size: usize,
    patience: Duration,
) -> Driven {
    let start = sim.now();
    let mut out = Driven {
        committed: 0,
        elapsed: Duration::ZERO,
        worst: Duration::ZERO,
    };
    for i in 0..n {
        let t0 = sim.now();
        let ev = cl.groups[0].servers[0].propose(Bytes::from(vec![(i % 251) as u8; size]));
        let done = sim.block_on(async move { ev.handle().wait_timeout(patience).await });
        if done.is_ready() {
            out.committed += 1;
            out.worst = out.worst.max(sim.now() - t0);
        }
    }
    out.elapsed = sim.now() - start;
    out
}
