//! Property-based tests on the log store's invariants under random
//! append/truncate/compact/snapshot/read interleavings.

use bytes::Bytes;
use depfast::runtime::Runtime;
use depfast_storage::{Entry, LogStore, LogStoreCfg, WalCfg};
use proptest::prelude::*;
use simkit::{NodeId, Sim, World, WorldCfg};

#[derive(Debug, Clone)]
enum Op {
    /// `count` entries of `size` bytes, at a fresh term or, `continued`,
    /// at the last entry's term, so that the store's term runs merge.
    Append {
        count: u8,
        size: u16,
        continued: bool,
    },
    Truncate {
        back: u8,
    },
    Compact {
        keep: u8,
    },
    /// A snapshot at `off` past the base: with the held entry's own term
    /// or, not `matching`, another; past the end when `off` is.
    InstallSnapshot {
        off: u8,
        matching: bool,
    },
    Read {
        lo_off: u8,
        len: u8,
    },
    ReadRaw {
        lo_off: u8,
        len: u8,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u8..8, 1u16..512, any::<bool>()).prop_map(|(count, size, continued)| Op::Append {
            count,
            size,
            continued
        }),
        (1u8..8, 1u16..512, any::<bool>()).prop_map(|(count, size, continued)| Op::Append {
            count,
            size,
            continued
        }),
        (0u8..16).prop_map(|back| Op::Truncate { back }),
        (0u8..24).prop_map(|keep| Op::Compact { keep }),
        (0u8..24, any::<bool>()).prop_map(|(off, matching)| Op::InstallSnapshot { off, matching }),
        (0u8..32, 1u8..16).prop_map(|(lo_off, len)| Op::Read { lo_off, len }),
        (0u8..32, 1u8..16).prop_map(|(lo_off, len)| Op::ReadRaw { lo_off, len }),
    ]
}

fn store(sim: &Sim) -> LogStore {
    let world = World::new(sim.clone(), WorldCfg::default());
    let rt = Runtime::new_sim(sim.clone(), NodeId(0));
    LogStore::new(
        &rt,
        &world,
        LogStoreCfg {
            cache_bytes: 4096, // Tiny: forces eviction + disk reads.
            wal: WalCfg::default(),
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A reference `Vec<Entry>` of everything ever appended (and not
    /// truncated) plus a base index agrees with the LogStore under any
    /// interleaving of append, truncate, compact, snapshot and read —
    /// `first_index`, `term_at` everywhere and the terms every read
    /// returns, which the store keeps as runs; and a twin store fed the
    /// same operations *without* the compactions (a snapshot that replaces
    /// the log is, for the twin, the entries it stands for) answers every
    /// read above the base identically — same entries, same miss bytes,
    /// same hit/miss counts — so compaction is invisible to whoever reads
    /// what is kept.
    #[test]
    fn log_store_matches_reference_model(ops in prop::collection::vec(arb_op(), 1..60)) {
        let sim = Sim::new(7);
        let log = store(&sim);
        let twin = store(&sim);
        let mut model: Vec<Entry> = Vec::new();
        let mut base = 0u64;
        let mut high_water = 0u64;
        for (step, op) in ops.into_iter().enumerate() {
            match op {
                Op::Append { count, size, continued } => {
                    let start = model.len() as u64 + 1;
                    // Terms change along the log, so a base term read off
                    // the wrong entry shows; a continued one merges runs.
                    let term = match model.last() {
                        Some(e) if continued => e.term,
                        _ => 1 + step as u64,
                    };
                    let new: Vec<Entry> = (0..count as u64)
                        .map(|i| Entry {
                            term,
                            index: start + i,
                            payload: Bytes::from(vec![0u8; size as usize]),
                        })
                        .collect();
                    model.extend(new.iter().cloned());
                    log.append(&new);
                    twin.append(&new);
                }
                Op::Truncate { back } => {
                    // Nothing at or below the base is ever in conflict.
                    let keep = (model.len().saturating_sub(back as usize)).max(base as usize);
                    model.truncate(keep);
                    log.truncate_from(keep as u64 + 1);
                    twin.truncate_from(keep as u64 + 1);
                }
                Op::Compact { keep } => {
                    // May point below the base (a no-op) or, with `keep`
                    // 0, at the last entry (an empty log with a base).
                    let through = (model.len() as u64).saturating_sub(keep as u64);
                    let last = log.last_index();
                    log.compact_through(through);
                    base = base.max(through);
                    prop_assert_eq!(log.last_index(), last, "compaction moves no end");
                }
                Op::InstallSnapshot { off, matching } => {
                    let index = base + off as u64;
                    let end = model.len() as u64;
                    let own = |i: u64| i.checked_sub(1).and_then(|i| model.get(i as usize)).map(|e| e.term);
                    let term = match own(index) {
                        // At or below the base the snapshot agrees with it.
                        Some(t) if matching || index <= base => t,
                        Some(t) => t + 1_000,
                        None if index == 0 => 0,
                        None => 1_000 + step as u64,
                    };
                    if index > base && (index > end || !matching) {
                        // Nothing held is known to follow: the log is the
                        // snapshot, whose last entry the twin holds.
                        let keep = index.min(end) as usize - usize::from(index <= end);
                        model.truncate(keep);
                        let fill: Vec<Entry> = (keep as u64 + 1..=index)
                            .map(|i| Entry { term, index: i, payload: Bytes::new() })
                            .collect();
                        model.extend(fill.iter().cloned());
                        twin.truncate_from(keep as u64 + 1);
                        twin.append(&fill);
                    }
                    log.install_snapshot(index, term, 64);
                    base = base.max(index);
                }
                Op::Read { lo_off, len } => {
                    let lo = 1 + lo_off as u64;
                    let hi = lo + len as u64;
                    let log2 = log.clone();
                    let got = sim.block_on(async move { log2.read(lo, hi).await.unwrap() });
                    let expect: Vec<Entry> = model
                        .iter()
                        .filter(|e| e.index > base && e.index >= lo && e.index < hi)
                        .cloned()
                        .collect();
                    prop_assert_eq!(got, expect);
                }
                Op::ReadRaw { lo_off, len } => {
                    // Anchored at the base so most reads land above it.
                    let lo = base + lo_off as u64;
                    let hi = lo + len as u64;
                    let counts = |l: &LogStore| (l.cache_hits(), l.cache_misses());
                    let (before, twin_before) = (counts(&log), counts(&twin));
                    let (got, miss) = log.read_raw(lo, hi);
                    let expect: Vec<Entry> = model
                        .iter()
                        .filter(|e| e.index > base && e.index >= lo && e.index < hi)
                        .cloned()
                        .collect();
                    prop_assert_eq!(&got, &expect, "reads clamp to the base");
                    if lo > base {
                        let (twin_got, twin_miss) = twin.read_raw(lo, hi);
                        prop_assert_eq!(got, twin_got);
                        prop_assert_eq!(miss, twin_miss);
                        let delta = |a: (u64, u64), b: (u64, u64)| (a.0 - b.0, a.1 - b.1);
                        prop_assert_eq!(
                            delta(counts(&log), before),
                            delta(counts(&twin), twin_before)
                        );
                    }
                }
            }
            high_water = high_water.max(model.len() as u64);
            prop_assert_eq!(log.last_index(), model.len() as u64);
            prop_assert_eq!(log.first_index(), base + 1);
            // The base still answers with the dropped entry's term; below
            // it and past the end there is nothing to answer with.
            for e in &model {
                let expect = if e.index >= base { e.term } else { 0 };
                prop_assert_eq!(log.term_at(e.index), expect, "term_at({})", e.index);
            }
            prop_assert_eq!(log.term_at(0), 0);
            prop_assert_eq!(log.term_at(model.len() as u64 + 1), 0);
            // The books: bytes held, and bytes in the EntryCache.
            let held = model.iter().filter(|e| e.index > base);
            prop_assert_eq!(log.bytes(), held.clone().map(Entry::size).sum::<u64>());
            let cached = held.filter(|e| e.index >= log.cache_low());
            prop_assert_eq!(log.cached_bytes(), cached.map(Entry::size).sum::<u64>());
            prop_assert!(log.cache_low() > base);
            // Drain pending I/O so durability catches up deterministically.
            sim.run();
            // The durable index is monotonic by design (truncations do not
            // lower it), so it is bounded by the high-water mark, not the
            // current length.
            prop_assert!(log.durable_index() <= high_water);
        }
    }

    /// `term_at` agrees with the model everywhere, including past the end.
    #[test]
    fn term_at_total_function(appends in prop::collection::vec(1u8..5, 1..10)) {
        let sim = Sim::new(9);
        let world = World::new(sim.clone(), WorldCfg::default());
        let rt = Runtime::new_sim(sim.clone(), NodeId(0));
        let log = LogStore::new(&rt, &world, LogStoreCfg::default());
        let mut next = 1u64;
        for (round, count) in appends.iter().enumerate() {
            let new: Vec<Entry> = (0..*count as u64)
                .map(|i| Entry {
                    term: round as u64 + 1,
                    index: next + i,
                    payload: Bytes::new(),
                })
                .collect();
            next += *count as u64;
            log.append(&new);
        }
        let mut idx = 1u64;
        for (round, count) in appends.iter().enumerate() {
            for _ in 0..*count {
                prop_assert_eq!(log.term_at(idx), round as u64 + 1);
                idx += 1;
            }
        }
        prop_assert_eq!(log.term_at(0), 0);
        prop_assert_eq!(log.term_at(idx), 0);
        prop_assert_eq!(log.term_at(idx + 100), 0);
    }
}
