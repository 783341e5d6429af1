//! ReadIndex linearizable reads: correctness under partitions and
//! performance under fail-slow followers.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use depfast::runtime::Coroutine;
use depfast::trace::TraceIndex;
use depfast::{EventId, EventKind, Signal};
use depfast_kv::history::{check_linearizable, Kind, Op};
use depfast_kv::{KvCluster, RetryPolicy};
use depfast_raft::cluster::RaftKind;
use depfast_raft::core::RaftCfg;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use simkit::{NodeId, Sim, SimTime, World, WorldCfg};

fn cluster(sim: &Sim, w: &World, clients: usize, read_index: bool) -> Rc<KvCluster> {
    let cl = Rc::new(KvCluster::build(
        sim,
        w,
        RaftKind::DepFast,
        3,
        clients,
        RaftCfg {
            bootstrap_leader: Some(0),
            ..RaftCfg::default()
        },
    ));
    for s in &cl.servers {
        s.set_read_index(read_index);
    }
    cl
}

fn world(sim: &Sim, nodes: usize) -> World {
    World::new(
        sim.clone(),
        WorldCfg {
            nodes,
            ..WorldCfg::default()
        },
    )
}

#[test]
fn read_index_reads_see_prior_writes() {
    let sim = Sim::new(91);
    let w = world(&sim, 4);
    let cl = cluster(&sim, &w, 1, true);
    let cl2 = cl.clone();
    let got = sim.block_on(async move {
        let c = &cl2.clients[0];
        c.put(Bytes::from_static(b"k"), Bytes::from_static(b"v1"))
            .await
            .unwrap();
        c.put(Bytes::from_static(b"k"), Bytes::from_static(b"v2"))
            .await
            .unwrap();
        c.get(Bytes::from_static(b"k")).await.unwrap()
    });
    assert_eq!(got, Some(Bytes::from_static(b"v2")));
}

#[test]
fn read_index_is_cheaper_than_logged_reads() {
    // Log appends are skipped entirely: same read count, far fewer log
    // entries and disk batches.
    let measure = |read_index: bool| -> (u64, Duration) {
        let sim = Sim::new(93);
        let w = world(&sim, 4);
        let cl = cluster(&sim, &w, 1, read_index);
        let cl2 = cl.clone();
        let t0 = sim.now();
        sim.block_on(async move {
            let c = &cl2.clients[0];
            c.put(Bytes::from_static(b"k"), Bytes::from_static(b"v"))
                .await
                .unwrap();
            for _ in 0..200 {
                c.get(Bytes::from_static(b"k")).await.unwrap();
            }
        });
        (
            cl.raft.groups[0].servers[0].core().log.last_index(),
            sim.now() - t0,
        )
    };
    let (entries_logged, _) = measure(false);
    let (entries_ri, _) = measure(true);
    assert!(
        entries_logged > 200,
        "logged reads append entries: {entries_logged}"
    );
    assert_eq!(entries_ri, 1, "ReadIndex reads append nothing");
}

#[test]
fn read_index_tolerates_fail_slow_follower() {
    let sim = Sim::new(95);
    let w = world(&sim, 4);
    let cl = cluster(&sim, &w, 1, true);
    w.set_cpu_quota(NodeId(2), 0.02);
    let cl2 = cl.clone();
    let t0 = sim.now();
    let got = sim.block_on(async move {
        let c = &cl2.clients[0];
        c.put(Bytes::from_static(b"k"), Bytes::from_static(b"v"))
            .await
            .unwrap();
        let mut last = None;
        for _ in 0..100 {
            last = c.get(Bytes::from_static(b"k")).await.unwrap();
        }
        last
    });
    assert_eq!(got, Some(Bytes::from_static(b"v")));
    let per_op = (sim.now() - t0) / 101;
    assert!(
        per_op < Duration::from_millis(10),
        "quorum confirmation must not wait on the slow follower: {per_op:?}"
    );
}

/// The linearizability guard: a deposed leader (isolated by a partition)
/// must refuse ReadIndex reads rather than serve stale data.
#[test]
fn deposed_leader_refuses_stale_reads() {
    let sim = Sim::new(97);
    let w = world(&sim, 5); // 3 servers + 2 client hosts
    let cl = cluster(&sim, &w, 2, true);
    let cl2 = cl.clone();
    sim.block_on(async move {
        cl2.clients[0]
            .put(Bytes::from_static(b"k"), Bytes::from_static(b"old"))
            .await
            .unwrap();
    });
    // Isolate the leader (node 0) from the other servers, but leave its
    // link to client 0 intact so the stale read attempt reaches it.
    w.partition(NodeId(0), NodeId(1));
    w.partition(NodeId(0), NodeId(2));
    // Client 1 can only reach the majority side; wait for a new leader and
    // write a new value there.
    w.partition(NodeId(3), NodeId(0)); // Client 0's host is node 3... keep client1 (node 4) with majority.
    sim.run_until_time(sim.now() + Duration::from_secs(3));
    let cl2 = cl.clone();
    sim.block_on(async move {
        cl2.clients[1]
            .put(Bytes::from_static(b"k"), Bytes::from_static(b"new"))
            .await
            .unwrap();
    });
    // Client 0 still believes node 0 is leader; its read must NOT return
    // the stale "old" value from the deposed leader — the leadership
    // confirmation fails and the client retries against the majority,
    // eventually seeing "new" (or timing out, never "old").
    w.heal(NodeId(3), NodeId(0));
    let cl2 = cl.clone();
    let got = sim.block_on(async move { cl2.clients[0].get(Bytes::from_static(b"k")).await });
    // Timing out (Err) is linearizable too.
    if let Ok(v) = got {
        assert_eq!(v, Some(Bytes::from_static(b"new")), "stale read!");
    }
}

/// Raft §6.4: a newly elected leader's commit index trails whatever its
/// predecessor acknowledged after the last heartbeat it heard, and a
/// leadership confirmation proves leadership, not commit coverage. Until
/// an entry of its own term commits, it must not serve a get from that
/// commit index.
#[test]
fn new_leader_does_not_read_below_its_predecessors_acknowledged_writes() {
    for seed in 0..8 {
        let sim = Sim::new(seed);
        let w = world(&sim, 5); // 3 servers + 2 client hosts
        let cl = cluster(&sim, &w, 2, true);
        let cl2 = cl.clone();
        sim.block_on(async move {
            let c = &cl2.clients[0];
            for v in ["old", "new"] {
                c.put(Bytes::from_static(b"k"), Bytes::from_static(v.as_bytes()))
                    .await
                    .unwrap();
            }
        });
        // Both acknowledged; the leader dies before its next heartbeat
        // carries the commit index that covers "new".
        w.crash(NodeId(0));
        sim.run_until_time(sim.now() + Duration::from_secs(3));
        let cl2 = cl.clone();
        let got = sim.block_on(async move { cl2.clients[1].get(Bytes::from_static(b"k")).await });
        assert_eq!(got, Ok(Some(Bytes::from_static(b"new"))), "seed {seed}");
    }
}

const SESSIONS: usize = 32;
/// The first `WRITERS` sessions each own a key; the rest only read, so
/// they stay with a leader for as long as it answers gets.
const WRITERS: usize = 16;
/// When the oracle run isolates its leader.
const CUT: SimTime = SimTime::from_millis(200);
/// A writer's policy for puts from [`CUT`] on: one attempt, with a
/// deadline about as long as a commit.
const ONE_ATTEMPT: RetryPolicy = RetryPolicy {
    attempt_timeout: Duration::from_millis(2),
    max_attempts: 1,
};

/// What one oracle run leaves: the history, the number of confirmation
/// rounds and successful gets of the healthy part, and the executor
/// fingerprints `(now, commit, polls, timers scheduled)` — the one
/// `tests/scheduler_determinism.rs` compares — at the end of the healthy
/// part and of the run.
struct OracleRun {
    history: Vec<Op<usize, u64>>,
    healthy_rounds: u64,
    healthy_gets: u64,
    fingerprints: [(SimTime, u64, u64, u64); 2],
}

/// `SESSIONS` closed-loop sessions at the benchmark's operating point
/// (250 µs serve CPU, so gets overlap on the leader's cores and share
/// rounds). Session `i < WRITERS` writes 1, 2, 3, ... to key `i`; every
/// session gets keys at random. The leader is cut off from both followers
/// — client links stay up — from [`CUT`] for two seconds, then the run
/// goes on for another half. Once the cut is made the sessions pace
/// themselves (20 ms between operations), which keeps the history, and the
/// test, short, and a put gets [`ONE_ATTEMPT`]: one sent to the isolated
/// leader gives up, and so do some that the new leader applies. The
/// history holds each open, maybe applied. A get that gave up is not
/// recorded.
fn oracle_run(seed: u64) -> OracleRun {
    let sim = Sim::new(seed);
    let w = world(&sim, 3 + SESSIONS);
    let cl = Rc::new(KvCluster::build_tuned(
        &sim,
        &w,
        RaftKind::DepFast,
        3,
        SESSIONS,
        RaftCfg {
            bootstrap_leader: Some(0),
            ..RaftCfg::default()
        },
        Duration::from_micros(250),
    ));
    for s in &cl.servers {
        s.set_read_index(true);
    }
    let key = |k: usize| Bytes::from(format!("key{k:02}"));
    let history = Rc::new(RefCell::new(Vec::new()));
    let heal = CUT + Duration::from_secs(2);
    let end = heal + Duration::from_millis(500);
    for i in 0..SESSIONS {
        let (cl, history) = (cl.clone(), history.clone());
        let rt = cl.clients[i].runtime().clone();
        Coroutine::create(&rt.clone(), "session", async move {
            let c = &cl.clients[i];
            let mut rng = SmallRng::seed_from_u64(seed ^ ((i as u64) << 32));
            let mut written = 0u64;
            while rt.now() < end {
                if rt.now() >= CUT {
                    rt.sleep(Duration::from_millis(20)).await;
                }
                let invoke = rt.now();
                let op = if i < WRITERS && rng.random_range(0..5u32) == 0 {
                    written += 1;
                    if invoke >= CUT {
                        c.set_policy(ONE_ATTEMPT);
                    }
                    let acked = c.put(key(i), Bytes::from(written.to_string())).await;
                    c.set_policy(RetryPolicy::default());
                    Some((i, acked.is_ok(), Kind::Put(written)))
                } else {
                    let k = rng.random_range(0..WRITERS);
                    let value = |v: Bytes| std::str::from_utf8(&v).unwrap().parse().unwrap();
                    let read = c.get(key(k)).await.ok();
                    read.map(|v| (k, true, Kind::Get(v.map(value))))
                };
                if let Some((key, returned, kind)) = op {
                    history.borrow_mut().push(Op {
                        key,
                        invoke,
                        ret: returned.then(|| rt.now()),
                        kind,
                    });
                }
            }
        });
    }
    let fingerprint = || {
        let commit = cl.servers.iter().map(|s| s.raft().core().commit.get());
        let commit = commit.max().unwrap();
        (sim.now(), commit, sim.polls(), sim.timers_scheduled())
    };

    sim.run_until_time(CUT);
    let healthy = fingerprint();
    let rounds = cl
        .raft
        .tracer
        .metrics()
        .histograms_named("event.quorum.wait");
    let healthy_rounds = rounds
        .iter()
        .filter(|(key, _)| key.tag == Some("read_index"))
        .map(|(_, h)| h.with(|h| h.count()))
        .sum();
    let is_get = |op: &&Op<usize, u64>| matches!(op.kind, Kind::Get(_));
    let healthy_gets = history.borrow().iter().filter(is_get).count() as u64;

    for follower in [NodeId(1), NodeId(2)] {
        w.partition(NodeId(0), follower);
    }
    sim.run_until_time(heal);
    for follower in [NodeId(1), NodeId(2)] {
        w.heal(NodeId(0), follower);
    }
    // Past `end`, for every session's last operation to return: one
    // attempt may still time out (1.5 s) on the deposed leader.
    sim.run_until_time(end + Duration::from_secs(2));
    let fingerprints = [healthy, fingerprint()];
    let history = Rc::try_unwrap(history).ok();
    OracleRun {
        history: history.expect("every session has returned").into_inner(),
        healthy_rounds,
        healthy_gets,
        fingerprints,
    }
}

/// The history of [`oracle_run`] — shared rounds under a fault, with
/// maybe-applied puts — is linearizable, as `depfast_kv::history` judges
/// it: the test states no read rule of its own.
#[test]
fn shared_rounds_serve_no_stale_read_while_the_leader_is_isolated() {
    for seed in 0..8 {
        let run = oracle_run(seed);
        if let Err(v) = check_linearizable(&run.history) {
            panic!("seed {seed}: {v}");
        }
        let mut checked = [0, 0]; // gets invoked before / after the cut
        for op in &run.history {
            if let Kind::Get(_) = op.kind {
                checked[(op.invoke >= CUT) as usize] += 1;
            }
        }
        // A get saw a put left open: the checker placed a maybe-applied
        // put. Each key has one writer, so a value names its put.
        let seen_open = run.history.iter().any(|p| match p.kind {
            Kind::Put(v) if p.ret.is_none() => {
                (run.history.iter()).any(|g| g.key == p.key && g.kind == Kind::Get(Some(v)))
            }
            _ => false,
        });
        assert!(seen_open, "seed {seed}: no get saw a maybe-applied put");
        assert!(checked[0] > 1_000, "seed {seed}: {checked:?}");
        assert!(checked[1] > 1_000, "seed {seed}: {checked:?}");
        // Rounds really were shared while the cluster was healthy.
        assert!(
            run.healthy_rounds > 0 && 2 * run.healthy_rounds <= run.healthy_gets,
            "seed {seed}: {} rounds for {} gets",
            run.healthy_rounds,
            run.healthy_gets
        );
        if seed == 0 {
            assert_eq!(oracle_run(seed).fingerprints, run.fingerprints);
        }
    }
}

/// The path from symptom to cause: in a traced run, every get that waited
/// for a confirmation is linked to the round whose end woke it — the
/// flow arrow `depfast-inspect --chrome` draws — and a shared round shows
/// all its riders.
#[test]
fn a_traced_get_links_to_the_confirmation_round_that_woke_it() {
    let sim = Sim::new(99);
    let w = world(&sim, 3 + 8);
    let cl = cluster(&sim, &w, 8, true);
    let cl2 = cl.clone();
    sim.block_on(async move {
        let put = cl2.clients[0].put(Bytes::from_static(b"k"), Bytes::from_static(b"v"));
        put.await.unwrap();
    });
    cl.raft.tracer.set_record_full(true);
    for i in 0..8 {
        let cl = cl.clone();
        let rt = cl.clients[i].runtime().clone();
        Coroutine::create(&rt, "session", async move {
            for _ in 0..20 {
                cl.clients[i].get(Bytes::from_static(b"k")).await.unwrap();
            }
        });
    }
    sim.run_until_time(sim.now() + Duration::from_secs(1));

    let index = TraceIndex::build(&cl.raft.tracer.take_records());
    let ok_fire_time = |e: EventId| match index.fired.get(&e) {
        Some(&(t, Signal::Ok)) => Some(t),
        _ => None,
    };
    let mut riders: HashMap<EventId, usize> = HashMap::new();
    for (wait, _) in index
        .events
        .iter()
        .filter(|(_, e)| e.label == "read_confirmed")
    {
        let round = index.round_of[wait];
        let quorum = &index.events[&round];
        assert_eq!(
            (quorum.label, quorum.kind),
            ("read_index", EventKind::Quorum)
        );
        assert_eq!(ok_fire_time(*wait), ok_fire_time(round));
        *riders.entry(round).or_default() += 1;
    }
    let shared = riders.values().filter(|n| **n > 1).count();
    assert!(shared > 0, "no round had two riders: {riders:?}");
}
