//! ReadIndex linearizable reads: correctness under partitions and
//! performance under fail-slow followers.

use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use depfast_kv::KvCluster;
use depfast_raft::cluster::RaftKind;
use depfast_raft::core::RaftCfg;
use simkit::{NodeId, Sim, World, WorldCfg};

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
