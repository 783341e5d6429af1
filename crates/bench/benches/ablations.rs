//! Ablations of the design choices DESIGN.md calls out.
//!
//! * **Wait style** (§3.1's two code snippets, measured): the same
//!   broadcast logic waiting per-RPC sequentially vs. on one
//!   `QuorumEvent`, under a fail-slow peer.
//! * **Buffers & quorum-discard** (§2.3): queue growth toward a slow peer
//!   with unbounded buffers, bounded buffers, and bounded + discard.
//! * **EntryCache size** (TiDB root cause): SyncRaft throughput under a
//!   lagging follower as the cache budget shrinks.
//!
//! Environment knob: `ABL_MEASURE_SECS` (default 5).

use std::time::Duration;

use bytes::Bytes;
use depfast::event::{QuorumEvent, QuorumMode, Watchable};
use depfast::runtime::Runtime;
use depfast_bench::suites::contrast;
use depfast_bench::{env_knob, Run, Suite, Table};
use depfast_fault::FaultKind;
use depfast_raft::cluster::RaftKind;
use depfast_rpc::broadcast::broadcast;
use depfast_rpc::endpoint::{Endpoint, Registry, RpcCfg};
use depfast_rpc::{BufferPolicy, WireRead, WireWrite};
use simkit::{NodeId, Sim, World, WorldCfg};

const ECHO: u32 = 1;

/// How long either wait style of the wait-style ablation waits for a reply.
const ROUND_PATIENCE: Duration = Duration::from_millis(600);

fn echo_cluster(n: usize, buffer: BufferPolicy) -> (Sim, World, Vec<Endpoint>) {
    let sim = Sim::new(5);
    let world = World::new(
        sim.clone(),
        WorldCfg {
            nodes: n,
            ..WorldCfg::default()
        },
    );
    let registry = Registry::new();
    let tracer = depfast::Tracer::new();
    let eps: Vec<Endpoint> = (0..n as u32)
        .map(|i| {
            let rt = Runtime::with_tracer(sim.clone(), NodeId(i), tracer.clone());
            Endpoint::new(&rt, &world, &registry, RpcCfg { buffer })
        })
        .collect();
    for ep in &eps {
        ep.register(ECHO, "svc:echo", |_, payload, r| r.reply(payload));
    }
    (sim, world, eps)
}

/// §3.1 snippet 1: wait on each RPC individually, in a loop.
fn sequential_round(sim: &Sim, eps: &[Endpoint], peers: &[NodeId]) -> Duration {
    let t0 = sim.now();
    for peer in peers {
        let ev = eps[0]
            .proxy(*peer)
            .call(ECHO, "append_entries", Bytes::from_static(b"x"));
        sim.block_on(async move { ev.handle().wait_timeout(ROUND_PATIENCE).await });
    }
    sim.now() - t0
}

/// §3.1 snippet 2: broadcast in parallel, wait on the majority quorum —
/// the call DepFastRaft's confirmation, vote and 2PC rounds make. Every
/// echo that arrives counts; `discard` is §2.3's quorum-aware discard.
fn quorum_round<M: WireWrite + WireRead + Clone + 'static>(
    sim: &Sim,
    ep: &Endpoint,
    peers: &[NodeId],
    msg: &M,
    discard: bool,
    patience: Duration,
) -> Duration {
    let t0 = sim.now();
    let quorum = QuorumEvent::labeled(ep.runtime(), QuorumMode::Majority, "append_entries");
    let calls = peers.iter().map(|&p| (p, ECHO, msg.clone()));
    let arrived = |echo: Option<M>| echo.is_some();
    broadcast(ep, &quorum, None, "append_entries", calls, arrived, discard);
    sim.block_on(async move { quorum.wait_timeout(patience).await });
    sim.now() - t0
}

fn ablation_wait_style() {
    let mut t = Table::new(
        "Ablation: per-RPC sequential waits vs one QuorumEvent (3 peers, 200 rounds)",
        &[
            "Peer state",
            "Sequential wait (ms/round)",
            "QuorumEvent (ms/round)",
        ],
    );
    for slow in [false, true] {
        let (sim, world, eps) = echo_cluster(4, RpcCfg::default().buffer);
        if slow {
            world.set_egress_delay(NodeId(3), Duration::from_millis(400));
        }
        let peers = [NodeId(1), NodeId(2), NodeId(3)];
        let mut seq = Duration::ZERO;
        let mut quo = Duration::ZERO;
        for _ in 0..200 {
            seq += sequential_round(&sim, &eps, &peers);
            // One byte on the wire, as `sequential_round` sends.
            quo += quorum_round(&sim, &eps[0], &peers, &b'x', true, ROUND_PATIENCE);
        }
        t.row(vec![
            if slow {
                "one peer +400ms".into()
            } else {
                "all healthy".to_string()
            },
            format!("{:.3}", seq.as_secs_f64() * 1e3 / 200.0),
            format!("{:.3}", quo.as_secs_f64() * 1e3 / 200.0),
        ]);
    }
    t.print();
    let _ = t.write_csv("ablation_wait_style");
}

fn ablation_buffers() {
    let mut t = Table::new(
        "Ablation: outgoing-buffer policy vs queue to a CPU-starved peer (2000 broadcasts)",
        &[
            "Policy",
            "Queued msgs to slow peer",
            "Dropped",
            "Sender mem (MiB over baseline)",
        ],
    );
    let policies: [(&str, BufferPolicy, bool); 3] = [
        ("Unbounded (legacy)", BufferPolicy::Unbounded, false),
        (
            "Bounded cap=4096",
            BufferPolicy::Bounded { cap: 4096 },
            false,
        ),
        (
            "Bounded + quorum-discard (DepFast)",
            BufferPolicy::Bounded { cap: 4096 },
            true,
        ),
    ];
    for (name, policy, discard) in policies {
        let (sim, world, eps) = echo_cluster(4, policy);
        let baseline_mem = world.mem_used(NodeId(0));
        world.set_cpu_quota(NodeId(3), 0.001);
        let peers = [NodeId(1), NodeId(2), NodeId(3)];
        // 512 bytes on the wire: the length prefix and 508 of body.
        let body = Bytes::from_static(&[0u8; 508]);
        for _ in 0..2000 {
            quorum_round(
                &sim,
                &eps[0],
                &peers,
                &body,
                discard,
                Duration::from_secs(1),
            );
        }
        // Only sends to the slow peer queue long enough to be dropped.
        let dropped = eps[0]
            .runtime()
            .tracer()
            .metrics()
            .node(0)
            .counter("rpc.dropped");
        t.row(vec![
            name.to_string(),
            eps[0].queue_len(NodeId(3)).to_string(),
            dropped.get().to_string(),
            format!(
                "{:.1}",
                (world.mem_used(NodeId(0)).saturating_sub(baseline_mem)) as f64 / (1024.0 * 1024.0)
            ),
        ]);
    }
    t.print();
    let _ = t.write_csv("ablation_buffers");
}

fn abl_measure() -> Duration {
    Duration::from_secs(env_knob("ABL_MEASURE_SECS", 5))
}

/// The shared ablation shape: enough concurrency that the leader (not
/// client supply) is the bottleneck — the fig1 operating point.
fn abl_run(kind: RaftKind, n_clients: usize, measure: Duration) -> Run {
    Run {
        kind,
        n_clients,
        warmup: Duration::from_secs(1),
        measure,
        records: 100_000,
        ..Run::default()
    }
}

const NET_SLOW: FaultKind = FaultKind::NetSlow {
    delay: Duration::from_millis(400),
};

fn ablation_entrycache(suite: &mut Suite) {
    let mut t = Table::new(
        "Ablation: SyncRaft EntryCache size vs slow-follower impact",
        &[
            "Cache (KiB)",
            "Tput healthy (req/s)",
            "Tput w/ net-slow follower",
            "Ratio",
        ],
    );
    // A +400 ms follower lags ~1 MiB of entries at this throughput, so
    // the sweep brackets that point: small caches put big evicted-entry
    // reads on the region thread every round, large caches absorb the
    // lag.
    for cache_kib in [128u64, 512, 2048, 4096, 16384] {
        let mut run = abl_run(RaftKind::Sync, 256, abl_measure());
        run.raft.log.cache_bytes = cache_kib * 1024;
        // Fault follower 1: it is iterated first in the region loop, so
        // its inline evicted-entry read delays the *healthy* follower's
        // send too (stall position matters in single-threaded designs).
        let driver = format!("SyncRaft cache={cache_kib}KiB");
        let net_slow = [("net_slow", &[1][..], NET_SLOW)];
        let reports = contrast(suite, (&driver, ""), &run, &net_slow, Run::execute);
        let (healthy, slow) = (&reports[0].stats, &reports[1].stats);
        t.row(vec![
            cache_kib.to_string(),
            format!("{:.0}", healthy.throughput),
            format!("{:.0}", slow.throughput),
            format!("{:.2}", slow.throughput / healthy.throughput),
        ]);
    }
    t.print();
    let _ = t.write_csv("ablation_entrycache");
}

/// The PR-6 tentpole knobs, ablated: batch size cap (1 = per-entry
/// rounds vs 64) × group-commit linger window (0 vs lingered) ×
/// replication pipeline depth (1 vs 4), healthy and with a
/// disk-contended follower. Two findings worth a table: the step
/// function lives entirely in `batch_max` (at 256 closed-loop clients a
/// batch forms from the queued proposals whether or not the window
/// lingers), and the fail-slow column stays ~1.0 in every row —
/// pipelining must not re-couple the leader to the slow follower; the
/// per-follower append window sheds sends to it instead (visible as
/// `raft.append.window_skips`).
fn ablation_batching(suite: &mut Suite) {
    let mut t = Table::new(
        "Ablation: batch cap x linger window x pipeline depth (DepFastRaft, 256 clients)",
        &[
            "Batch",
            "Window",
            "Depth",
            "Tput healthy",
            "P99 healthy (ms)",
            "Tput w/ disk-contended follower",
            "Ratio",
        ],
    );
    let configs: [(usize, &str, Duration, usize); 5] = [
        (1, "0", Duration::ZERO, 1), // per-entry rounds: the pre-batching baseline
        (64, "0", Duration::ZERO, 1),
        (64, "0", Duration::ZERO, 4),
        (64, "200us", Duration::from_micros(200), 1),
        (64, "200us", Duration::from_micros(200), 4),
    ];
    for (batch_max, window_label, window, depth) in configs {
        let mut run = abl_run(RaftKind::DepFast, 256, abl_measure());
        run.raft.batch_max = batch_max;
        run.raft.batch_window = window;
        run.raft.pipeline_depth = depth;
        let contention = FaultKind::DiskContention {
            write_bytes: 2200 * 1024,
            period: Duration::from_millis(10),
        };
        let driver = format!("DepFastRaft batch={batch_max} window={window_label} depth={depth}");
        let contended = [("disk_contention", &[1][..], contention)];
        let reports = contrast(suite, (&driver, ""), &run, &contended, Run::execute);
        let (healthy, contended) = (&reports[0].stats, &reports[1].stats);
        t.row(vec![
            batch_max.to_string(),
            window_label.to_string(),
            depth.to_string(),
            format!("{:.0}", healthy.throughput),
            format!("{:.2}", healthy.latency.p99.as_secs_f64() * 1e3),
            format!("{:.0}", contended.throughput),
            format!("{:.2}", contended.throughput / healthy.throughput.max(1.0)),
        ]);
    }
    t.print();
    let _ = t.write_csv("ablation_batching");
}

/// Chain replication vs quorum replication under a slow *tail* — the
/// §2.1/§3.3 tradeoff, measured.
fn ablation_chain_vs_quorum(suite: &mut Suite) {
    let mut t = Table::new(
        "Ablation: chain replication vs quorum under one fail-slow member",
        &[
            "System",
            "Tput healthy",
            "Tput w/ slow member",
            "Ratio",
            "P99 healthy (ms)",
            "P99 slow (ms)",
        ],
    );
    for kind in [RaftKind::DepFast, RaftKind::Chain] {
        let mut run = abl_run(kind, 128, Duration::from_secs(4));
        run.instruments.profiler = true;
        // The slow member is node 2: DepFastRaft's follower, ChainRaft's tail.
        let net_slow = [("net_slow", &[2][..], NET_SLOW)];
        let reports = contrast(suite, (kind.name(), ""), &run, &net_slow, Run::execute);
        let (healthy, slow) = (&reports[0].stats, &reports[1].stats);
        t.row(vec![
            kind.name().to_string(),
            format!("{:.0}", healthy.throughput),
            format!("{:.0}", slow.throughput),
            format!("{:.2}", slow.throughput / healthy.throughput.max(1.0)),
            format!("{:.2}", healthy.latency.p99.as_secs_f64() * 1e3),
            format!("{:.2}", slow.latency.p99.as_secs_f64() * 1e3),
        ]);
    }
    t.print();
    let _ = t.write_csv("ablation_chain_vs_quorum");
}

fn main() {
    ablation_wait_style();
    ablation_buffers();
    let mut suite = Suite::new("ablations", Run::default().seed);
    ablation_entrycache(&mut suite);
    ablation_batching(&mut suite);
    ablation_chain_vs_quorum(&mut suite);
    match depfast_bench::write_repo_artifact("BENCH_ablations.json", &suite.to_json()) {
        Ok(p) => println!("[bench-json] {}", p.display()),
        Err(e) => eprintln!("[ablations] cannot write BENCH_ablations.json: {e}"),
    }
}
