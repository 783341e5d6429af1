//! Critical-path blame has one implementation, the core's blame fold,
//! fed two ways: live by the tracer during a traced run, and replayed
//! from the recorded stream by `TraceIndex::build`. The two must agree
//! on every driver, on a cell where a deposed leader fails its proposals
//! `Err`, and without full recording at all; and the live fold must hold
//! only what is in flight, however long the run. Where rounds decide, a
//! witness that does not read the fold names each round's deciding child
//! a second way.

use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use depfast::blame::{BlameKey, BlameReport, Fold};
use depfast::{EventKind, Signal, TraceRecord};
use depfast_bench::suites::episode;
use depfast_bench::Run;
use depfast_detect::DetectorMode;
use depfast_fault::FaultKind;
use depfast_kv::KvCluster;
use depfast_raft::cluster::RaftKind;
use depfast_raft::core::RaftCfg;
use depfast_trace_analysis::{blame_report, TraceIndex};
use simkit::{NodeId, Sim, World, WorldCfg};

/// A short traced run of `kind` with a disk-slow follower 2.
fn traced(kind: RaftKind) -> Run {
    let warmup = Duration::from_millis(500);
    let mut run = Run {
        kind,
        n_clients: 16,
        warmup,
        measure: Duration::from_secs(1),
        records: 10_000,
        ..Run::default()
    }
    .with_fault(
        [2],
        FaultKind::DiskSlow { bw_factor: 0.008 },
        warmup / 2,
        None,
    );
    run.instruments.trace = true;
    run
}

/// Runs `run` and checks its live blame against the replay of its
/// records, and a DepFastRaft run's against [`deciding_children`];
/// returns the live report.
fn live_equals_replay(run: &Run, what: &str) -> BlameReport {
    let report = run.execute();
    assert_eq!(
        report.trace_dropped, 0,
        "{what}: the replay saw every record"
    );
    let live = report.blame.expect("a traced run folds blame");
    assert!(live.commits > 50, "{what}: {} commits", live.commits);
    let replay = blame_report(&TraceIndex::build(&report.records));
    assert_eq!(live, replay, "{what}\nlive:\n{}", live.table());
    if run.kind == RaftKind::DepFast {
        assert_children(&live, &report.records, what);
    }
    live
}

/// The round segments of every committed proposal, by the key of its
/// round's deciding child, named without the round's fire record's `by`:
/// a quorum fires inside its deciding child's fire, so that child is the
/// last event to fire before it.
fn deciding_children(records: &[TraceRecord]) -> BTreeMap<BlameKey, Duration> {
    let mut created = HashMap::new();
    let mut fired = HashMap::new();
    let mut round_of = HashMap::new();
    let mut last = None;
    for rec in records {
        match *rec {
            TraceRecord::EventCreated {
                t,
                node,
                event,
                kind,
                label,
                ..
            } => {
                created.insert(event, (t, node, kind, label));
            }
            TraceRecord::RoundLink {
                proposal, round, ..
            } => {
                round_of.insert(proposal, round);
            }
            TraceRecord::EventFired {
                t, event, signal, ..
            } => {
                fired.entry(event).or_insert((t, signal, last));
                last = Some(event);
            }
            _ => {}
        }
    }
    let mut out = BTreeMap::new();
    for (proposal, round) in &round_of {
        let (Some((_, Signal::Ok, _)), Some((t1, ..)), Some(&(t2, Signal::Ok, Some(child)))) =
            (fired.get(proposal), created.get(round), fired.get(round))
        else {
            continue;
        };
        if created[proposal].3 != "proposal" || t2 == *t1 {
            continue;
        }
        let key = match created[&child] {
            (_, node, EventKind::Io, _) => BlameKey {
                node,
                layer: "disk",
            },
            (_, _, EventKind::Rpc { target }, _) => BlameKey {
                node: target,
                layer: "rpc",
            },
            other => panic!("a round decided by {other:?}"),
        };
        *out.entry(key).or_default() += t2 - *t1;
    }
    out
}

/// `live`'s round segments are the witness's.
fn assert_children(live: &BlameReport, records: &[TraceRecord], what: &str) {
    let mut rounds = live.by.clone();
    rounds.retain(|k, _| k.layer == "disk" || k.layer == "rpc");
    assert!(!rounds.is_empty(), "{what}: no round was blamed");
    assert_eq!(rounds, deciding_children(records), "{what}");
}

#[test]
fn every_drivers_live_blame_is_the_replay_of_its_trace() {
    for kind in [
        RaftKind::DepFast,
        RaftKind::Sync,
        RaftKind::Backlog,
        RaftKind::Callback,
        RaftKind::Chain,
    ] {
        live_equals_replay(&traced(kind), kind.name());
    }
}

/// §5's handover cell: the slow leader is deposed and fails the
/// proposals it still holds `Err`, which blame must ignore both ways.
#[test]
fn the_mitigated_leader_cell_blames_the_same_live_and_replayed() {
    let scenario = depfast_scenario::catalog()
        .into_iter()
        .find(|s| s.name == "leader-cpu-slow")
        .expect("the catalog has the cell");
    let mut run = episode(RaftKind::DepFast, DetectorMode::PeerWithFallback)
        .with_scenario(&scenario)
        .expect("compiles");
    assert!(run.instruments.leader_mitigation);
    run.instruments.trace = true;
    let live = live_equals_replay(&run, "leader-cpu-slow / DepFastRaft");
    // The leader changed: both the old and the new one committed.
    assert!(live
        .by
        .keys()
        .any(|k| k.node != NodeId(0) && k.layer == "queue"));
}

/// One DepFastRaft cluster, two closed-loop clients of `puts` puts each
/// (with `read_index`, each put followed by a ReadIndex get of its key),
/// with the blame fold on or not and full recording on or not: the
/// fold's report and the recorded stream.
fn cluster_run(
    puts: u32,
    fold: bool,
    full: bool,
    read_index: bool,
) -> (BlameReport, Vec<TraceRecord>) {
    let sim = Sim::new(11);
    let world = World::new(
        sim.clone(),
        WorldCfg {
            nodes: 5,
            ..WorldCfg::default()
        },
    );
    let cfg = RaftCfg {
        bootstrap_leader: Some(0),
        ..RaftCfg::default()
    };
    let cluster = Rc::new(KvCluster::build(&sim, &world, RaftKind::DepFast, 3, 2, cfg));
    for s in &cluster.servers {
        s.set_read_index(read_index);
    }
    let tracer = cluster.raft.tracer.clone();
    tracer.set_record_full(full);
    if fold {
        tracer.install_blame_fold();
    }
    let clients: Vec<_> = (0..2)
        .map(|c| {
            let cl = cluster.clone();
            sim.spawn(async move {
                for i in 0..puts {
                    let key = Bytes::from(format!("k{c}-{i}"));
                    let _ = cl.clients[c]
                        .put(key.clone(), Bytes::from(vec![0u8; 256]))
                        .await;
                    if read_index {
                        let _ = cl.clients[c].get(key).await;
                    }
                }
            })
        })
        .collect();
    for h in clients {
        sim.run_until(h);
    }
    let report = tracer.finish_blame_fold();
    let records = tracer.take_records();
    cluster.raft.teardown(&sim);
    (report, records)
}

#[test]
fn the_fold_needs_no_full_recording() {
    let (folded, none) = cluster_run(300, true, false, false);
    assert!(none.is_empty(), "full recording was off");
    assert_eq!(folded.commits, 600);
    let (_, records) = cluster_run(300, false, true, false);
    assert_eq!(folded, blame_report(&TraceIndex::build(&records)));
    assert_children(&folded, &records, "a cluster with full recording off");
}

/// ReadIndex gets are linked to the confirmation round that woke them
/// whenever records are made, the fold's alone included.
#[test]
fn a_read_index_run_folds_without_full_recording_what_it_replays() {
    let (folded, none) = cluster_run(300, true, false, true);
    assert!(none.is_empty(), "full recording was off");
    assert_eq!(folded.commits, 600);
    let (_, records) = cluster_run(300, false, true, true);
    let rounds = records.iter().filter(|r| {
        matches!(
            r,
            TraceRecord::EventCreated {
                label: "read_index",
                ..
            }
        )
    });
    assert!(rounds.count() > 0, "the gets confirmed no round");
    assert_eq!(folded, blame_report(&TraceIndex::build(&records)));
    assert_children(&folded, &records, "ReadIndex with full recording off");
}

/// The most entries a fold holds while fed `records`.
fn peak_held(records: &[TraceRecord]) -> usize {
    let mut fold = Fold::default();
    let mut peak = 0;
    for rec in records {
        fold.feed(rec);
        peak = peak.max(fold.held());
    }
    peak
}

#[test]
fn the_fold_holds_what_is_in_flight_not_what_has_run() {
    let (_, short) = cluster_run(200, false, true, false);
    let (_, long) = cluster_run(2_000, false, true, false);
    assert!(long.len() > 9 * short.len());
    // An entry kept per command would hold ten times as many.
    let (short, long) = (peak_held(&short), peak_held(&long));
    assert!(
        long < 2 * short,
        "a 10x longer run held {long} entries at its peak, the short one {short}"
    );
}
