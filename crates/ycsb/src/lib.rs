//! YCSB-style workload generation and measurement.
//!
//! §2.1: *"We run Yahoo! Cloud Serving Benchmark (YCSB) with and without
//! the fail-slow faults. The workload is a write workload that updates
//! 500K records (we focus on writes because a write involves a majority of
//! nodes). We run 256–1200 concurrent clients that drive the CPU
//! utilization of the leader nodes to around 75%."*
//!
//! * [`dist`] — key-choosing distributions: uniform, YCSB zipfian (θ =
//!   0.99, the one θ in use) and latest;
//! * [`workload`] — op mixes and record/value sizing (the paper's update
//!   workload is [`WorkloadSpec::update_heavy`]; any other mix, such as a
//!   YCSB letter workload, is a struct literal over it);
//! * [`driver`] — closed-loop client driver with warm-up trimming; its
//!   latency [`Histogram`] and [`Summary`] are `depfast-metrics`' own.

pub mod dist;
pub mod driver;
pub mod workload;

pub use depfast_metrics::{Histogram, Summary};
pub use dist::{KeyDist, Latest, Uniform, Zipfian};
pub use driver::{run_workload, DriverCfg, GroupStats, RunStats};
pub use workload::{OpKind, WorkloadSpec};
