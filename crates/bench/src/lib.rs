//! Benchmark harness shared by the table/figure reproductions and the
//! regression gate.
//!
//! Each paper artifact has a dedicated bench target (all `harness = false`):
//!
//! | Target | Paper artifact |
//! |---|---|
//! | `table1` | Table 1 — the six fault injections, measured on the raw substrate |
//! | `fig1` | Figure 1 — legacy RSMs under one fail-slow follower (normalized) |
//! | `fig2` | Figure 2 — DepFastRaft slowness propagation graph (DOT + edges) |
//! | `fig3` | Figure 3 — DepFastRaft under minority fail-slow followers (absolute) |
//! | `ablations` | design-choice ablations (buffers, EntryCache, wait style) |
//!
//! Run one with `cargo bench -p depfast-bench --bench fig1`, or everything
//! with `cargo bench --workspace`.
//!
//! Every experiment anywhere in the tree is one [`Run`] description
//! executed into one [`RunReport`] ([`experiment`]), whose one on-disk
//! form is the `.run` file of [`artifact`] (`RunReport::export` writes
//! it, the `depfast-inspect` binary renders it); the fixed-seed
//! [`suites`] are lists of `Run`s rolled into a [`Suite`] of cells
//! ([`cells`]: the one place that knows the `BENCH_*.json` format), and
//! the `gate` binary (`gate bench | detect | scenario`) passes a fresh
//! suite only when [`Suite::diff`] finds nothing between it and its
//! committed baseline.

pub mod artifact;
pub mod cells;
pub mod experiment;
pub mod json;
pub mod report;
pub mod suites;

pub use artifact::Artifact;
pub use cells::{DetectRecord, RunRecord, ScenarioRecord, Suite};
pub use depfast_raft::cluster::Placement;
pub use experiment::{striped, Instruments, Run, RunReport, SAMPLE_EVERY};
pub use json::Json;
pub use report::{
    condition, env_knob, format_ms, out_dir, repo_root, run_figure_cell, slug, write_repo_artifact,
    Table,
};
