//! # depfast-metrics — the unified observability layer
//!
//! The paper's core argument (§2.3, §3.3) is that fail-slow fault
//! tolerance needs *built-in* measurement support: two person-years of
//! manual debugging at scale would have been erased by trace points and
//! latency accounting living inside the runtime. This crate is that
//! substrate for the whole workspace: every layer — the simulated
//! hardware ([`simkit`]'s CPU/disk/memory/network models), the RPC
//! transport, the DepFast event runtime and the five Raft drivers —
//! records into one shared [`MetricsRegistry`], so a Figure 1 collapse
//! can be attributed to a layer without ad-hoc printf work.
//!
//! Three design rules keep it simulation-native and dependency-free:
//!
//! 1. **Zero dependencies.** Time is plain `u64` nanoseconds
//!    ([`TimeNs`]); the crate never reads a wall clock, so it can sit
//!    below `simkit` in the dependency graph and stays fully
//!    deterministic.
//! 2. **Cheap hot paths.** [`Counter`], [`Gauge`] and [`Histogram`]
//!    handles are `Rc`-backed and cached by the recording site; updating
//!    one is a `Cell` store, not a map lookup. Storage is paid for what
//!    is recorded: a [`Histogram`] is 64 B, plus 256 B for each power of
//!    two a sample has landed in, so every node can keep its own
//!    always-on series.
//! 3. **Per-node scoping.** One registry serves a whole simulated
//!    cluster: a [`Key`] is `(name, node, tag)`, and [`NodeScope`] makes
//!    per-replica recording one call.
//!
//! ```
//! use depfast_metrics::{MetricsRegistry, Key};
//!
//! let registry = MetricsRegistry::new();
//! // A per-node counter, recorded through a cached handle.
//! let sent = registry.node(2).counter("rpc.sent");
//! sent.inc();
//! sent.add(4);
//! assert_eq!(sent.get(), 5);
//!
//! // A latency histogram tagged with an RPC label.
//! let lat = registry.histogram(Key::tagged("rpc.latency", 1, "append_entries"));
//! lat.record_ns(2_000_000);
//! assert_eq!(lat.snapshot().count, 1);
//! ```
//!
//! Time series come from [`Sampler`]: the benchmark harness calls
//! [`Sampler::sample_at`] from a virtual-clock loop and gets rows pinned
//! to exact interval multiples, ready for CSV export
//! ([`Sampler::to_csv`]) and offline attribution. See
//! `docs/OBSERVABILITY.md` for the metric namespace and a worked
//! fault-attribution example.
//!
//! [`simkit`]: https://docs.rs/simkit
//! [`Counter`]: crate::Counter
//! [`Gauge`]: crate::Gauge
//! [`Histogram`]: crate::Histogram

#![warn(missing_docs)]

pub mod histogram;
pub mod registry;
pub mod sampler;
pub mod text;

pub use histogram::{Histogram, Summary};
pub use registry::{
    Counter, Gauge, HistSnapshot, HistogramHandle, Key, MetricValue, MetricsRegistry, NodeScope,
};
pub use sampler::{SampleRow, Sampler};

/// Virtual time in nanoseconds. The crate is clock-agnostic: callers
/// (usually the simulator) supply timestamps.
pub type TimeNs = u64;

/// Interns the per-Raft-group metric tag for `group` (`"g1"`, `"g2"`,
/// …) as a `&'static str`.
///
/// [`Key`] tags are `&'static str` so the hot path stays a copy, not an
/// allocation; multi-group clusters need one tag per group id, minted at
/// cluster build time. Labels are leaked once and cached — calling this
/// twice with the same id returns the same pointer.
pub fn group_label(group: u32) -> &'static str {
    use std::collections::BTreeMap;
    use std::sync::{Mutex, OnceLock};
    static LABELS: OnceLock<Mutex<BTreeMap<u32, &'static str>>> = OnceLock::new();
    let labels = LABELS.get_or_init(|| Mutex::new(BTreeMap::new()));
    let mut map = labels.lock().expect("group label registry poisoned");
    map.entry(group)
        .or_insert_with(|| Box::leak(format!("g{group}").into_boxed_str()))
}
