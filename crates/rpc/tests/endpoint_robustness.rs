//! Robustness tests for the RPC endpoint: malformed input, crashed peers,
//! reply routing under churn.

use std::time::Duration;

use bytes::Bytes;
use depfast::event::{WaitResult, Watchable};
use depfast::runtime::Runtime;
use depfast::Tracer;
use depfast_rpc::endpoint::{Endpoint, Envelope, Registry, RpcCfg};
use depfast_rpc::wire::{WireRead, WireWrite};
use simkit::{Frame, NodeId, Sim, World, WorldCfg};

const ECHO: u32 = 1;

fn cluster(n: usize) -> (Sim, World, Vec<Endpoint>) {
    let sim = Sim::new(11);
    let world = World::new(
        sim.clone(),
        WorldCfg {
            nodes: n,
            ..WorldCfg::default()
        },
    );
    let registry = Registry::new();
    let tracer = Tracer::new();
    let eps: Vec<Endpoint> = (0..n as u32)
        .map(|i| {
            let rt = Runtime::with_tracer(sim.clone(), NodeId(i), tracer.clone());
            Endpoint::new(&rt, &world, &registry, RpcCfg::default())
        })
        .collect();
    for ep in &eps {
        ep.register(ECHO, "svc:echo", |_, payload, r| r.reply(payload));
    }
    (sim, world, eps)
}

/// Raw garbage on the wire is dropped without panicking or wedging the
/// endpoint.
#[test]
fn malformed_frames_are_dropped() {
    let (sim, world, eps) = cluster(2);
    for garbage in [
        Bytes::new(),
        Bytes::from_static(&[0xff; 3]),
        Bytes::from(vec![0xab; 1024]),
    ] {
        world.send(NodeId(0), NodeId(1), garbage);
    }
    sim.run_until_time(sim.now() + Duration::from_millis(50));
    // The endpoint still serves correctly afterwards.
    let ev = eps[0]
        .proxy(NodeId(1))
        .call(ECHO, "echo", Bytes::from_static(b"still alive"));
    let out = sim.block_on({
        let ev = ev.clone();
        async move { ev.handle().wait_timeout(Duration::from_secs(1)).await }
    });
    assert!(out.is_ready());
    assert_eq!(
        ev.take().unwrap().into_bytes(),
        Bytes::from_static(b"still alive")
    );
}

/// A reply envelope as the endpoint itself would encode it, sent raw
/// from node 1 to node 0.
fn forged_reply(rpc_id: u64, payload: &'static [u8]) -> Frame {
    let env = Envelope {
        is_reply: true,
        rpc_id,
        method: 0,
        trace_id: 0,
        parent_span: 0,
        payload: Frame::from(Bytes::from_static(payload)),
    };
    let wire = env.to_frame();
    assert!(
        Envelope::from_frame(&wire).is_some_and(|e| e.is_reply && e.rpc_id == rpc_id),
        "the forgery must get past the decoder to test anything behind it"
    );
    wire
}

/// A reply whose rpc id no longer has a pending entry (duplicate delivery
/// or very late arrival) is ignored.
#[test]
fn unmatched_replies_are_ignored() {
    let (sim, world, eps) = cluster(2);
    let ev = eps[0]
        .proxy(NodeId(1))
        .call(ECHO, "echo", Bytes::from_static(b"a"));
    sim.run_until_time(sim.now() + Duration::from_millis(100));
    assert!(ev.handle().ready());
    // A stale reply for the already-completed id (an endpoint's first call
    // is id 1), and one for an id that was never issued.
    world.send(NodeId(1), NodeId(0), forged_reply(1, b"x"));
    world.send(NodeId(1), NodeId(0), forged_reply(999_999, b"x"));
    sim.run_until_time(sim.now() + Duration::from_millis(50));
    // Payload of the original event is intact (stale reply did not clobber).
    assert_eq!(ev.take().unwrap().into_bytes(), Bytes::from_static(b"a"));
}

/// A reply that names a *pending* call but does not decode as an envelope
/// is dropped by the decoder: the call stays pending, the endpoint keeps
/// serving, and the same reply well-formed completes it.
#[test]
fn malformed_envelopes_are_dropped_and_the_endpoint_keeps_serving() {
    let (sim, world, eps) = cluster(2);
    // Nobody serves method 999, so call 1 stays pending.
    let pending = eps[0].proxy(NodeId(1)).call(999, "nope", Bytes::new());
    let good = forged_reply(1, b"forged").into_bytes();
    let truncated = good.slice(..good.len() - 1);
    let mut trailing = good.to_vec();
    trailing.push(0);
    // The header without its two trace fields: is_reply, rpc_id, method,
    // payload — well-formed once, malformed since the envelope grew.
    let mut short_header = good[..13].to_vec();
    short_header.extend_from_slice(&good[29..]);
    for bad in [truncated, Bytes::from(trailing), Bytes::from(short_header)] {
        world.send(NodeId(1), NodeId(0), bad);
    }
    sim.run_until_time(sim.now() + Duration::from_millis(50));
    assert!(
        !pending.handle().ready(),
        "a malformed reply completed a call"
    );
    let ev = eps[0]
        .proxy(NodeId(1))
        .call(ECHO, "echo", Bytes::from_static(b"still alive"));
    sim.run_until_time(sim.now() + Duration::from_millis(50));
    assert_eq!(
        ev.take().unwrap().into_bytes(),
        Bytes::from_static(b"still alive")
    );
    world.send(NodeId(1), NodeId(0), good);
    sim.run_until_time(sim.now() + Duration::from_millis(50));
    assert_eq!(
        pending.take().unwrap().into_bytes(),
        Bytes::from_static(b"forged")
    );
}

/// Hundreds of interleaved calls across several peers keep reply routing
/// exact (no cross-talk).
#[test]
fn reply_routing_is_exact_under_interleaving() {
    let (sim, _world, eps) = cluster(4);
    for ep in &eps {
        ep.register(2, "svc:tag", |from, payload, r| {
            let v = u64::from_frame(&payload).unwrap();
            // Tag the reply with the callee-visible caller id so the test
            // can detect cross-talk.
            r.reply_t(&(v * 1000 + from.0 as u64));
        });
    }
    let mut expected = Vec::new();
    let mut events = Vec::new();
    for i in 0..300u64 {
        let peer = NodeId(1 + (i % 3) as u32);
        let ev = eps[0].proxy(peer).call_t(2, "tag", &i);
        expected.push(i * 1000);
        events.push(ev);
    }
    sim.run_until_time(sim.now() + Duration::from_secs(2));
    for (i, ev) in events.iter().enumerate() {
        let got = u64::from_frame(&ev.take().expect("reply")).unwrap();
        assert_eq!(got, expected[i], "call {i} got someone else's reply");
    }
}

/// Calls to a node that crashes mid-flight resolve by timeout, and the
/// caller's pending table does not leak completed entries.
#[test]
fn crash_mid_flight_times_out_cleanly() {
    let (sim, world, eps) = cluster(2);
    let evs: Vec<_> = (0..50)
        .map(|_| {
            eps[0]
                .proxy(NodeId(1))
                .call(ECHO, "echo", Bytes::from(vec![0u8; 64]))
        })
        .collect();
    world.crash(NodeId(1));
    let mut timeouts = 0;
    for ev in &evs {
        let h = ev.handle().clone();
        let out = sim.block_on(async move { h.wait_timeout(Duration::from_millis(300)).await });
        if out == WaitResult::Timeout {
            timeouts += 1;
        }
    }
    assert!(timeouts > 0, "at least the unsent calls must time out");
}
