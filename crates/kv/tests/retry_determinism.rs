//! Retry-path determinism, end to end: two same-seed runs that exercise
//! the full client retry surface — timeouts, rotation, give-ups, then
//! clean successes — must produce byte-identical `client.*` metric
//! snapshots and byte-identical attempt-annotated trace exports.

use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use depfast::{EventKind, TraceRecord};
use depfast_kv::{KvCluster, RetryPolicy};
use depfast_raft::cluster::RaftKind;
use depfast_raft::core::RaftCfg;
use simkit::{Sim, World, WorldCfg};

/// One deterministic run: a 3-server / 2-client cluster where the first
/// burst of puts runs under a policy whose 300 µs attempt deadline is
/// far below commit latency (every attempt times out and rotates; every
/// op gives up), then the default policy takes over and the same clients
/// complete ops successfully. Returns the sorted `client.*` metric
/// snapshot and the attempt trace export.
fn run_once(seed: u64) -> (String, String) {
    depfast::set_trace_ctx(None);
    let sim = Sim::new(seed);
    let world = World::new(
        sim.clone(),
        WorldCfg {
            nodes: 5,
            ..WorldCfg::default()
        },
    );
    let cluster = Rc::new(KvCluster::build(
        &sim,
        &world,
        RaftKind::DepFast,
        3,
        2,
        RaftCfg {
            bootstrap_leader: Some(0),
            ..RaftCfg::default()
        },
    ));
    let tracer = cluster.raft.tracer.clone();
    tracer.set_record_full(true);

    let storm_policy = RetryPolicy {
        attempt_timeout: Duration::from_micros(300),
        max_attempts: 3,
    };
    for c in &cluster.clients {
        c.set_policy(storm_policy);
    }
    let cl = cluster.clone();
    sim.block_on(async move {
        for round in 0..3u8 {
            for c in &cl.clients {
                // Every attempt must die on the 300 µs deadline.
                let out = c
                    .put(Bytes::from(vec![b'a', round]), Bytes::from_static(b"x"))
                    .await;
                assert!(out.is_err(), "a 300 µs deadline cannot outrun commit");
            }
        }
    });

    for c in &cluster.clients {
        c.set_policy(RetryPolicy::default());
    }
    let cl = cluster.clone();
    sim.block_on(async move {
        for round in 0..3u8 {
            for c in &cl.clients {
                c.put(Bytes::from(vec![b'b', round]), Bytes::from_static(b"y"))
                    .await
                    .expect("default policy must complete");
            }
        }
    });

    let mut metric_lines: Vec<String> = tracer
        .metrics()
        .snapshot()
        .into_iter()
        .filter(|(k, _)| k.name.starts_with("client."))
        .map(|(k, v)| {
            format!(
                "{}[{}]@{:?} = {}",
                k.name,
                k.tag.unwrap_or("-"),
                k.node,
                v.scalar()
            )
        })
        .collect();
    metric_lines.sort();

    let export: String = tracer
        .take_records()
        .into_iter()
        .filter_map(|r| match r {
            TraceRecord::EventCreated {
                t,
                node,
                kind: EventKind::Phase { blame },
                label,
                ..
            } if label.starts_with("client:") => Some(format!(
                "{t:?} {label} client_node={node:?} blame={blame:?}\n"
            )),
            _ => None,
        })
        .collect();

    depfast::set_trace_ctx(None);
    (metric_lines.join("\n"), export)
}

#[test]
fn same_seed_runs_produce_identical_client_metrics_and_attempt_traces() {
    let (metrics_a, export_a) = run_once(1123);
    let (metrics_b, export_b) = run_once(1123);
    assert_eq!(
        metrics_a, metrics_b,
        "same-seed client.* snapshots must be byte-identical"
    );
    assert_eq!(
        export_a, export_b,
        "same-seed attempt-annotated trace exports must be byte-identical"
    );

    // The run actually exercised the storm surface: timeout retries,
    // exhausted ops — and then clean successes.
    for needle in [
        "client.retry[timeout]",
        "client.give_up",
        "client.success",
        "client.attempts",
    ] {
        assert!(
            metrics_a.contains(needle),
            "snapshot must carry {needle}:\n{metrics_a}"
        );
    }
    let count = |name: &str| -> i128 {
        metrics_a
            .lines()
            .find(|l| l.starts_with(name))
            .and_then(|l| l.rsplit(" = ").next())
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    assert!(
        count("client.retry[timeout]") > 0,
        "timeout retries expected"
    );
    assert!(count("client.give_up") > 0, "exhausted ops expected");
    assert!(count("client.success") > 0, "phase-2 successes expected");

    // The export is attempt-annotated and blames the targeted servers —
    // and rotation moved the blame across more than one server.
    assert!(export_a.contains("client:attempt"), "export:\n{export_a}");
    let blamed: std::collections::BTreeSet<&str> = export_a
        .lines()
        .filter(|l| l.contains("client:attempt"))
        .filter_map(|l| l.split("blame=").nth(1))
        .collect();
    assert!(
        blamed.len() >= 2,
        "rotation must spread attempts over several servers, saw {blamed:?}"
    );
}
