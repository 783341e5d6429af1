//! Metric definitions and their derivation from a repetition.
//!
//! End-to-end metrics are what a user of the system sees, on two clocks:
//! the host clock (how fast the simulator runs on this machine) and the
//! virtual clock (how fast the simulated cluster serves its clients,
//! exact under a seed). Per-layer metrics carry the crate name of the
//! layer they measure as their prefix.

use crate::adapter::{self, TraceSummary, C};
use crate::stats::quantile;
use crate::workload::{Rep, WORKLOADS};

/// Which clock an end-to-end metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    Host,
    Virtual,
}

/// Definition of one end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct E2e {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    higher_is_better: bool,
    bound: f64,
) -> E2e {
    E2e {
        name,
        unit,
        clock,
        higher_is_better,
        bound,
    }
}

/// The bounded end-to-end metrics, in reporting order.
///
/// Four more are measured and printed but carry no bound. One must be
/// zero: `failed_ops_share` is reported as `failed` over `attempted`, and
/// any failure makes the run incorrect. Three vary more from seed to seed
/// than any bound could allow on at least one workload
/// (`virt_max_stall_ms`, `virt_tput_fault_over_healthy`,
/// `virt_p99_fault_over_healthy`); they are listed with the per-layer
/// metrics, and the fault's effect is bounded through the throughput and
/// tail latency of `fail-slow-follower`, a third of whose measured part
/// runs under the fault.
pub const E2E: [E2e; 7] = [
    e2e("setup_s", "s", Clock::Host, false, 0.25),
    e2e("sim_ops_per_wall_s", "1/s", Clock::Host, true, 0.25),
    e2e("peak_rss_mb", "MB", Clock::Host, false, 0.10),
    e2e("virt_tput_ops_s", "1/s", Clock::Virtual, true, 0.03),
    e2e("virt_p50_ms", "ms", Clock::Virtual, false, 0.05),
    e2e("virt_p99_ms", "ms", Clock::Virtual, false, 0.15),
    e2e("virt_p999_ms", "ms", Clock::Virtual, false, 0.15),
];

/// Definition of one per-layer metric read from counters (group A) or
/// from the repository's instruments (group B). Group C is defined by
/// [`adapter::probes`].
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn cost(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn gain(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        higher_is_better: true,
    }
}

/// The unbounded end-to-end metrics and groups A and B, in reporting
/// order.
pub const LAYERS: [Layer; 57] = [
    cost("virt_max_stall_ms", "ms"),
    gain("virt_tput_fault_over_healthy", "ratio"),
    cost("virt_p99_fault_over_healthy", "ratio"),
    // A: public counters over the measured part.
    cost("simkit.polls_per_op", "1/op"),
    cost("simkit.timers_per_op", "1/op"),
    cost("simkit.tasks_per_op", "1/op"),
    cost("simkit.net_msgs_per_op", "1/op"),
    cost("simkit.net_bytes_per_op", "B/op"),
    cost("simkit.disk_ops_per_op", "1/op"),
    cost("simkit.disk_bytes_per_op", "B/op"),
    cost("simkit.leader_cpu_util", "ratio"),
    cost("simkit.host_ns_per_poll", "ns"),
    cost("core.quorum_waits_per_op", "1/op"),
    cost("core.quorum_wait_virt_us_mean", "us"),
    cost("core.quorum_stragglers_per_op", "1/op"),
    cost("rpc.calls_per_op", "1/op"),
    gain("rpc.entries_per_append_mean", "count"),
    cost("rpc.dropped", "count"),
    cost("rpc.errors", "count"),
    cost("storage.wal_syncs_per_op", "1/op"),
    gain("storage.wal_batch_records_mean", "count"),
    cost("storage.log_cache_miss_ratio", "ratio"),
    cost("raft.rounds_per_op", "1/op"),
    gain("raft.batch_size_mean", "count"),
    cost("raft.pipeline_stalls", "count"),
    cost("raft.commit_lag_virt_us_p50", "us"),
    cost("raft.apply_lag_virt_us_p50", "us"),
    cost("raft.append_window_skips", "count"),
    cost("raft.suspects", "count"),
    cost("raft.follower_lag_max_entries", "count"),
    cost("raft.catchup_virt_ms", "ms"),
    cost("raft.leader_changes", "count"),
    cost("kv.attempts_per_op", "1/op"),
    cost("kv.retries_timeout", "count"),
    cost("kv.retries_not_leader", "count"),
    cost("kv.give_ups", "count"),
    cost("ycsb.openloop_backlog_max", "count"),
    cost("ycsb.gen_late_virt_us_p99", "us"),
    // B: wait-state profile of node 0, critical-path blame, and what the
    // instruments themselves cost.
    cost("profile.proposal_wait_share", "ratio"),
    cost("profile.cpu_share", "ratio"),
    cost("profile.run_queue_share", "ratio"),
    cost("profile.disk_device_share", "ratio"),
    cost("profile.disk_log_durable_share", "ratio"),
    cost("profile.quorum_replicate_share", "ratio"),
    cost("profile.quorum_read_index_share", "ratio"),
    cost("profile.commit_index_wait_share", "ratio"),
    cost("trace-analysis.blame_queue_share", "ratio"),
    cost("trace-analysis.blame_rpc_share", "ratio"),
    cost("trace-analysis.blame_disk_share", "ratio"),
    cost("trace-analysis.blame_apply_share", "ratio"),
    cost("trace-analysis.blame_unattributed_share", "ratio"),
    cost("trace-analysis.blame_slow_node_share", "ratio"),
    cost("core.trace_records_per_op", "1/op"),
    cost("core.trace_dropped", "count"),
    cost("core.trace_wall_overhead_ratio", "ratio"),
    cost("profile.wall_overhead_ratio", "ratio"),
    cost("core.trace_virt_perturbation", "count"),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (operations, calls, batches).
    pub n: u64,
    /// Exact under a seed: must repeat bit for bit.
    pub exact: bool,
}

impl Value {
    /// A value of the end-to-end or per-layer metric called `name`.
    ///
    /// # Panics
    ///
    /// Panics if no table defines `name`: that is a bug in this program.
    pub fn of(name: &str, value: f64, n: u64, exact: bool) -> Value {
        let (name, unit) = E2E
            .iter()
            .map(|d| (d.name, d.unit))
            .chain(LAYERS.iter().map(|d| (d.name, d.unit)))
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not defined"));
        Value {
            name,
            value,
            unit,
            n,
            exact,
        }
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Operations acknowledged in the measured part of `rep`.
pub fn acked(rep: &Rep) -> u64 {
    rep.ops.iter().filter(|op| op.measured && op.ok).count() as u64
}

/// The virtual-clock end-to-end metrics of one repetition. Latency runs
/// from the instant an operation was due, so a stall taxes every
/// operation queued behind it.
pub fn virtual_e2e(rep: &Rep) -> Vec<Value> {
    let ops: Vec<_> = rep.ops.iter().filter(|op| op.measured && op.ok).collect();
    let n = ops.len() as u64;
    let mut lat: Vec<u64> = ops.iter().map(|op| op.done_ns - op.due_ns).collect();
    lat.sort_unstable();
    let mut done: Vec<u64> = ops.iter().map(|op| op.done_ns).collect();
    done.sort_unstable();
    let mut stall = 0;
    let mut prev = rep.t0_ns;
    for t in &done {
        stall = stall.max(t - prev);
        prev = *t;
    }
    let span_s = (rep.t_end_ns - rep.t0_ns) as f64 / 1e9;
    let ms = |ns: u64| ns as f64 / 1e6;

    // Windows: completions count where they happened, latencies where
    // the operation was due.
    let [cut0, cut1] = rep.window_cuts_ns;
    let window = |lo: u64, hi: u64| {
        let completed = done.iter().filter(|t| (lo..hi).contains(*t)).count();
        let mut lat: Vec<u64> = ops
            .iter()
            .filter(|op| (lo..hi).contains(&op.due_ns))
            .map(|op| op.done_ns - op.due_ns)
            .collect();
        lat.sort_unstable();
        (
            ratio(completed as f64, (hi - lo) as f64 / 1e9),
            quantile(&lat, 0.99),
        )
    };
    let (tput_healthy, p99_healthy) = window(rep.t0_ns, cut0);
    let (tput_fault, p99_fault) = window(cut0, cut1);

    let v = |name, value| Value::of(name, value, n, true);
    vec![
        v("virt_tput_ops_s", ratio(n as f64, span_s)),
        v("virt_p50_ms", ms(quantile(&lat, 0.50))),
        v("virt_p99_ms", ms(quantile(&lat, 0.99))),
        v("virt_p999_ms", ms(quantile(&lat, 0.999))),
        v("virt_max_stall_ms", ms(stall)),
        v(
            "virt_tput_fault_over_healthy",
            ratio(tput_fault, tput_healthy),
        ),
        v(
            "virt_p99_fault_over_healthy",
            ratio(p99_fault as f64, p99_healthy as f64),
        ),
    ]
}

/// Group A: the layers' public counters over the measured part, divided
/// by acknowledged operations. Exact under a seed, except
/// `simkit.host_ns_per_poll`.
pub fn layer_counts(rep: &Rep) -> Vec<Value> {
    let n = acked(rep);
    let c = &rep.counts;
    let total = |which: C| c.get(which) as f64;
    let per_op = |which: C| ratio(total(which), n as f64);
    let span_ns = (rep.t_end_ns - rep.t0_ns) as f64;

    let lag_max = rep.lag_samples.iter().map(|(_, lag)| *lag).max();
    let catchup_ms = rep.fault_clear_ns.map_or(0.0, |clear| {
        let caught = rep
            .lag_samples
            .iter()
            .find(|(t, lag)| *t >= clear && *lag < 64)
            .or(rep.lag_samples.last())
            .map_or(clear, |(t, _)| *t);
        (caught - clear) as f64 / 1e6
    });
    let mut late: Vec<u64> = rep
        .ops
        .iter()
        .filter(|op| op.measured)
        .map(|op| op.invoke_ns - op.due_ns)
        .collect();
    late.sort_unstable();

    let v = |name, value| Value::of(name, value, n, true);
    vec![
        v("simkit.polls_per_op", per_op(C::Polls)),
        v("simkit.timers_per_op", per_op(C::Timers)),
        v("simkit.tasks_per_op", per_op(C::Tasks)),
        v("simkit.net_msgs_per_op", per_op(C::NetMsgs)),
        v("simkit.net_bytes_per_op", per_op(C::NetBytes)),
        v("simkit.disk_ops_per_op", per_op(C::DiskOps)),
        v("simkit.disk_bytes_per_op", per_op(C::DiskBytes)),
        v(
            "simkit.leader_cpu_util",
            ratio(total(C::LeaderBusyNs), span_ns),
        ),
        Value::of(
            "simkit.host_ns_per_poll",
            ratio(rep.measure_wall_s() * 1e9, total(C::Polls)),
            c.get(C::Polls),
            false,
        ),
        v("core.quorum_waits_per_op", per_op(C::QuorumWaits)),
        v(
            "core.quorum_wait_virt_us_mean",
            ratio(total(C::QuorumWaitNs) / 1e3, total(C::QuorumWaits)),
        ),
        v("core.quorum_stragglers_per_op", per_op(C::QuorumStragglers)),
        v("rpc.calls_per_op", per_op(C::RpcCalls)),
        v(
            "rpc.entries_per_append_mean",
            ratio(total(C::AppendEntries), total(C::AppendRpcs)),
        ),
        v("rpc.dropped", total(C::RpcDropped)),
        v("rpc.errors", total(C::RpcErrors)),
        v("storage.wal_syncs_per_op", per_op(C::WalSyncs)),
        v(
            "storage.wal_batch_records_mean",
            ratio(total(C::WalRecords), total(C::WalSyncs)),
        ),
        v(
            "storage.log_cache_miss_ratio",
            ratio(
                total(C::LogCacheMisses),
                total(C::LogCacheHits) + total(C::LogCacheMisses),
            ),
        ),
        v("raft.rounds_per_op", per_op(C::RaftRounds)),
        v(
            "raft.batch_size_mean",
            ratio(total(C::RaftBatchEntries), total(C::RaftBatches)),
        ),
        v("raft.pipeline_stalls", total(C::PipelineStalls)),
        v(
            "raft.commit_lag_virt_us_p50",
            rep.lags.commit_p50_ns as f64 / 1e3,
        ),
        v(
            "raft.apply_lag_virt_us_p50",
            rep.lags.apply_p50_ns as f64 / 1e3,
        ),
        v("raft.append_window_skips", total(C::AppendWindowSkips)),
        v("raft.suspects", total(C::Suspects)),
        v("raft.follower_lag_max_entries", lag_max.unwrap_or(0) as f64),
        v("raft.catchup_virt_ms", catchup_ms),
        v("raft.leader_changes", total(C::LeaderEpochs)),
        v("kv.attempts_per_op", per_op(C::KvAttempts)),
        v("kv.retries_timeout", total(C::RetriesTimeout)),
        v("kv.retries_not_leader", total(C::RetriesNotLeader)),
        v("kv.give_ups", total(C::GiveUps)),
        v("ycsb.openloop_backlog_max", rep.backlog_max as f64),
        v(
            "ycsb.gen_late_virt_us_p99",
            quantile(&late, 0.99) as f64 / 1e3,
        ),
    ]
}

/// Group B, part one: the wait-state profile of node 0 as shares of all
/// its profiled virtual time. Coroutine-seconds, not seconds: 256 serving
/// coroutines each waiting for their proposal make `proposal_wait_share`
/// the largest by far, and the other shares say where the pipeline under
/// that wait spends its time.
pub fn profile_shares(rows: &[(String, u64)], n: u64) -> Vec<Value> {
    let total: u64 = rows.iter().map(|(_, ns)| ns).sum();
    let share = |site: &str| {
        let ns: u64 = rows
            .iter()
            .filter(|(s, _)| s == site)
            .map(|(_, ns)| ns)
            .sum();
        ratio(ns as f64, total as f64)
    };
    [
        ("profile.proposal_wait_share", "notify:proposal"),
        ("profile.cpu_share", "cpu"),
        ("profile.run_queue_share", "run_queue"),
        ("profile.disk_device_share", "disk:device"),
        ("profile.disk_log_durable_share", "disk:log_durable"),
        ("profile.quorum_replicate_share", "quorum:replicate"),
        ("profile.quorum_read_index_share", "quorum:read_index"),
        ("profile.commit_index_wait_share", "value:commit_index"),
    ]
    .into_iter()
    .map(|(name, site)| Value::of(name, share(site), n, true))
    .collect()
}

/// Group B, part two: critical-path blame by layer. The five layer
/// shares sum to 1; `blame_slow_node_share` cuts the same total by node
/// instead (node 1, the follower that the fault workload slows).
pub fn blame_shares(trace: &TraceSummary, n: u64) -> Vec<Value> {
    let sum = |keep: &dyn Fn(&str, u32) -> bool| {
        trace
            .blame
            .iter()
            .filter(|(layer, node, _)| keep(layer, *node))
            .map(|(_, _, share)| share)
            .sum::<f64>()
            + 0.0 // an empty sum is -0.0
    };
    let named = ["queue", "rpc", "disk", "apply"];
    let v = |name, value| Value::of(name, value, n, true);
    vec![
        v(
            "trace-analysis.blame_queue_share",
            sum(&|l, _| l == "queue"),
        ),
        v("trace-analysis.blame_rpc_share", sum(&|l, _| l == "rpc")),
        v("trace-analysis.blame_disk_share", sum(&|l, _| l == "disk")),
        v(
            "trace-analysis.blame_apply_share",
            sum(&|l, _| l == "apply"),
        ),
        v(
            "trace-analysis.blame_unattributed_share",
            sum(&|l, _| !named.contains(&l)),
        ),
        v(
            "trace-analysis.blame_slow_node_share",
            sum(&|_, node| node == 1),
        ),
    ]
}

/// The text of `BENCHMARK.json`, generated from the tables above so that
/// the file and the program cannot disagree.
pub fn manifest(run_seconds: u64) -> String {
    let better = |higher: bool| if higher { "higher" } else { "lower" };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let e2e: Vec<String> = E2E
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                d.name,
                d.unit,
                better(d.higher_is_better),
                d.bound
            )
        })
        .collect();
    let layers: Vec<String> = LAYERS
        .iter()
        .map(|d| (d.name, d.unit, d.higher_is_better))
        .chain(adapter::probes().iter().flat_map(|p| {
            let main = (
                p.name,
                if p.per_second { "1/s" } else { "ns" },
                p.per_second,
            );
            std::iter::once(main).chain(p.extra.map(|(name, unit)| (name, unit, unit == "1/s")))
        }))
        .map(|(name, unit, higher)| {
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                better(higher)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {run_seconds},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}
