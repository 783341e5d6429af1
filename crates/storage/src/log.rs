//! Raft log store with an in-memory EntryCache.
//!
//! Appends go through the [`Wal`]; reads of *recent*
//! entries are served from the EntryCache instantly, while entries evicted
//! under the cache's byte budget cost a simulated disk read. When a
//! follower lags far enough behind, the leader's reads for it fall off the
//! cache — the paper's TiDB root cause (§2.2). Whether that disk read
//! blocks anything else is the *driver's* choice: `SyncRaft` performs it
//! inline on its single region thread; `DepFastRaft` performs it in the
//! requesting coroutine where it harms only the laggard's replication.
//!
//! # The compaction base
//!
//! The log is what lies *after* a base `(first_index - 1, base_term)`,
//! `(0, 0)` for a log that was never compacted.
//! [`LogStore::compact_through`] drops a prefix and moves the base up to
//! its last entry, so [`LogStore::term_at`] still answers for the base —
//! the `prev_term` of the first entry kept — and answers 0 below it;
//! reads clamp to what is kept, and the EntryCache accounting moves with
//! the prefix. When to compact is the replication layer's decision
//! (`depfast_raft::feed`); this module only guarantees that compaction is a
//! metadata delete: no disk operation, no virtual time, O(1) per dropped
//! entry on the host. [`LogStore::install_snapshot`] is the other way the
//! base moves: to a snapshot's position, keeping the suffix that matches
//! it or nothing.
//!
//! # What an entry costs the host
//!
//! The log keeps an entry as its payload alone, one 16 B [`Bytes`] slot:
//! its index is its position after the base, and its term is that of its
//! *run*. Terms change only at elections, so the log keeps them as runs
//! of equal term, `(first index, term)` in ascending order — a handful
//! per log, where a slot per entry would repeat the term and the index
//! thousands of times. [`LogStore::read_raw`] builds the [`Entry`]s it
//! hands out from the two.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use bytes::Bytes;
use depfast::event::{EventHandle, EventKind, ValueEvent, Watchable};
use depfast::runtime::Runtime;
use simkit::disk::DiskOp;
use simkit::{Crashed, NodeId, World};

use crate::wal::{IoEvent, Wal, WalCfg};

/// One replicated log entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Term the entry was proposed in.
    pub term: u64,
    /// Position in the log (1-based; 0 is the sentinel before the log).
    pub index: u64,
    /// Opaque state-machine command.
    pub payload: Bytes,
}

const _: () = assert!(
    std::mem::size_of::<Entry>() <= 32,
    "an entry is at most 32 B"
);

impl Entry {
    /// Approximate serialized size, used for cache budgeting and I/O.
    pub fn size(&self) -> u64 {
        size(&self.payload)
    }
}

/// Log store configuration.
#[derive(Debug, Clone, Copy)]
pub struct LogStoreCfg {
    /// EntryCache byte budget; entries beyond it are evicted oldest-first.
    pub cache_bytes: u64,
    /// WAL configuration.
    pub wal: WalCfg,
}

impl Default for LogStoreCfg {
    fn default() -> Self {
        LogStoreCfg {
            cache_bytes: 4 * 1024 * 1024,
            wal: WalCfg::default(),
        }
    }
}

/// What the log keeps of one entry: its payload. The entry's index is its
/// position and its term is its run's.
const _: () = assert!(
    std::mem::size_of::<Bytes>() <= 16,
    "a log slot is at most 16 B"
);

/// [`Entry::size`] of an entry carrying `payload`.
fn size(payload: &Bytes) -> u64 {
    16 + payload.len() as u64
}

struct LogInner {
    /// The payload of every entry from `first_index` (ground truth; what
    /// "disk" holds): entry `first_index + i` is `payloads[i]`. A deque:
    /// compaction pops the front without moving the rest.
    payloads: VecDeque<Bytes>,
    /// The terms of the held entries as runs of one term, `(first index,
    /// term)` in ascending index order: a run ends where the next starts,
    /// the first starts at `first_index`, and the log holds none while it
    /// holds no entry.
    runs: VecDeque<(u64, u64)>,
    /// Index of `payloads[0]`: one past the compaction base.
    first_index: u64,
    /// Term of the entry at the base, `first_index - 1` (0 while that is
    /// the sentinel).
    base_term: u64,
    /// Sum of [`Entry::size`] over the held entries.
    bytes: u64,
    /// Entries with `index >= cache_low` are in the EntryCache.
    cache_low: u64,
    cached_bytes: u64,
    /// Term/vote metadata (persisted via the WAL on change).
    term: u64,
    voted_for: Option<u32>,
    /// Counters.
    cache_hits: u64,
    cache_misses: u64,
}

impl LogInner {
    fn last_index(&self) -> u64 {
        self.first_index + self.payloads.len() as u64 - 1
    }

    /// The position in `runs` of the run that holds `index`, a held entry.
    fn run_of(&self, index: u64) -> usize {
        self.runs.partition_point(|&(start, _)| start <= index) - 1
    }

    /// Takes entry `index`, which has just left `payloads`, off the books.
    fn forget(&mut self, index: u64, payload: &Bytes) {
        self.bytes -= size(payload);
        if index >= self.cache_low {
            self.cached_bytes -= size(payload);
        }
    }

    /// Evicts oldest-first until the EntryCache fits `budget`.
    fn evict(&mut self, budget: u64) {
        while self.cached_bytes > budget {
            let idx = (self.cache_low - self.first_index) as usize;
            let Some(payload) = self.payloads.get(idx) else {
                break;
            };
            self.cached_bytes -= size(payload);
            self.cache_low += 1;
        }
    }
}

/// A per-node Raft log store: WAL-durable appends + EntryCache reads.
#[derive(Clone)]
pub struct LogStore {
    world: World,
    node: NodeId,
    wal: Wal,
    cfg: LogStoreCfg,
    inner: Rc<RefCell<LogInner>>,
    /// Highest log index whose WAL batch has been fsynced. Monotonic;
    /// acknowledgements must wait on it, not merely on log membership —
    /// otherwise a retransmitted entry could be acked from memory while
    /// its fsync is still queued behind a slow disk.
    durable: ValueEvent<u64>,
}

impl LogStore {
    /// Creates an empty log store for `rt`'s node.
    pub fn new(rt: &Runtime, world: &World, cfg: LogStoreCfg) -> Self {
        LogStore {
            world: world.clone(),
            node: rt.node(),
            wal: Wal::new(rt, world, cfg.wal),
            cfg,
            inner: Rc::new(RefCell::new(LogInner {
                payloads: VecDeque::new(),
                runs: VecDeque::new(),
                first_index: 1,
                base_term: 0,
                bytes: 0,
                cache_low: 1,
                cached_bytes: 0,
                term: 0,
                voted_for: None,
                cache_hits: 0,
                cache_misses: 0,
            })),
            // Io-kinded: a wait on the durable watermark is a wait for
            // WAL disk completion, and tracing/blame/profiling all
            // classify that as disk time on this node.
            durable: ValueEvent::with_kind(rt, 0, EventKind::Io, "log_durable"),
        }
    }

    /// Highest index known durable on this node's WAL.
    pub fn durable_index(&self) -> u64 {
        self.durable.get()
    }

    /// An event that fires once everything up to `index` is durable
    /// (immediately if it already is).
    pub fn wait_durable(&self, index: u64) -> EventHandle {
        self.durable.when_at_least(index)
    }

    /// Test probe: the WAL backing this log.
    #[doc(hidden)]
    pub fn wal(&self) -> &Wal {
        &self.wal
    }

    /// Index of the first entry still held: one past the compaction base
    /// (1 for a log never compacted).
    pub fn first_index(&self) -> u64 {
        self.inner.borrow().first_index
    }

    /// Index of the last entry (the base's if none is held; 0 if empty).
    pub fn last_index(&self) -> u64 {
        self.inner.borrow().last_index()
    }

    /// Bytes of the entries still held ([`Entry::size`] summed).
    pub fn bytes(&self) -> u64 {
        self.inner.borrow().bytes
    }

    /// Term of the entry at `index`: the entry's if it is held, the base's
    /// at the base, and 0 for the sentinel, below the base or past the end.
    pub fn term_at(&self, index: u64) -> u64 {
        let inner = self.inner.borrow();
        if index + 1 == inner.first_index {
            return inner.base_term;
        }
        if index < inner.first_index || index > inner.last_index() {
            return 0;
        }
        inner.runs[inner.run_of(index)].1
    }

    /// Current persistent term.
    pub fn current_term(&self) -> u64 {
        self.inner.borrow().term
    }

    /// Current persistent vote.
    pub fn voted_for(&self) -> Option<u32> {
        self.inner.borrow().voted_for
    }

    /// Persists term/vote metadata; the returned event fires when durable.
    pub fn set_term_vote(&self, term: u64, voted_for: Option<u32>) -> IoEvent {
        {
            let mut inner = self.inner.borrow_mut();
            inner.term = term;
            inner.voted_for = voted_for;
        }
        self.wal.append(16)
    }

    /// Appends `new` entries (already assigned indices continuing the
    /// log) and returns the durability event of the batch.
    ///
    /// # Panics
    ///
    /// Panics if the entries do not continue the log contiguously.
    pub fn append(&self, new: &[Entry]) -> IoEvent {
        let mut bytes = 0;
        {
            let mut inner = self.inner.borrow_mut();
            for e in new {
                assert_eq!(e.index, inner.last_index() + 1, "non-contiguous append");
                bytes += e.size();
                inner.payloads.push_back(e.payload.clone());
                if inner.runs.back().map(|&(_, term)| term) != Some(e.term) {
                    inner.runs.push_back((e.index, e.term));
                }
            }
            inner.bytes += bytes;
            inner.cached_bytes += bytes;
            inner.evict(self.cfg.cache_bytes);
        }
        self.durable_after(bytes, new.last().map_or(0, |e| e.index))
    }

    /// A WAL record of `bytes`; once it is durable, so is the log through
    /// `through`.
    fn durable_after(&self, bytes: u64, through: u64) -> IoEvent {
        let io = self.wal.append(bytes);
        if through > 0 {
            let durable = self.durable.clone();
            io.handle().on_fire(move |sig| {
                if sig == depfast::Signal::Ok {
                    durable.set(through);
                }
            });
        }
        io
    }

    /// Removes all entries at `index` and beyond (conflict resolution),
    /// returning the durability event of the truncation record. Nothing at
    /// or below the compaction base can be removed: it is committed.
    pub fn truncate_from(&self, index: u64) -> IoEvent {
        {
            let mut inner = self.inner.borrow_mut();
            if index >= inner.first_index {
                let keep = ((index - inner.first_index) as usize).min(inner.payloads.len());
                let end = inner.first_index + keep as u64;
                for (at, payload) in (end..).zip(inner.payloads.split_off(keep)) {
                    inner.forget(at, &payload);
                }
                while inner.runs.back().is_some_and(|&(start, _)| start >= end) {
                    inner.runs.pop_back();
                }
                inner.cache_low = inner.cache_low.min(end);
            }
        }
        self.wal.append(16)
    }

    /// Drops every entry at or below `index` (clamped to the log) and
    /// makes the last one dropped the compaction base. A metadata delete:
    /// the disk model has no capacity to give back, so it costs no disk
    /// operation and no virtual time. `last_index` does not move.
    pub fn compact_through(&self, index: u64) {
        let mut inner = self.inner.borrow_mut();
        let index = index.min(inner.last_index());
        if index < inner.first_index {
            return;
        }
        inner.base_term = inner.runs[inner.run_of(index)].1;
        while inner.first_index <= index {
            let payload = inner.payloads.pop_front().expect("index is in the log");
            let at = inner.first_index;
            inner.forget(at, &payload);
            inner.first_index += 1;
        }
        let first = inner.first_index;
        while inner.runs.get(1).is_some_and(|&(start, _)| start <= first) {
            inner.runs.pop_front();
        }
        if inner.payloads.is_empty() {
            inner.runs.clear();
        } else {
            inner.runs[0].0 = first;
        }
        inner.cache_low = inner.cache_low.max(first);
    }

    /// Moves the compaction base to a snapshot's position `(index, term)`:
    /// if the log holds that very entry, the suffix after it is kept (it
    /// extends the snapshot); otherwise nothing the log holds is known to
    /// follow the snapshot and all of it goes. The returned event fires
    /// once a WAL record of the snapshot's `bytes` is durable — and with
    /// it the log through `index`. At or below the base there is nothing to
    /// move: that prefix is committed, and the snapshot agrees with it.
    pub fn install_snapshot(&self, index: u64, term: u64, bytes: u64) -> IoEvent {
        if index >= self.first_index() {
            if index <= self.last_index() && self.term_at(index) == term {
                self.compact_through(index);
            } else {
                let mut inner = self.inner.borrow_mut();
                inner.payloads.clear();
                inner.runs.clear();
                inner.bytes = 0;
                inner.cached_bytes = 0;
                inner.first_index = index + 1;
                inner.base_term = term;
                inner.cache_low = index + 1;
            }
        }
        self.durable_after(bytes, index)
    }

    /// Reads entries `[lo, hi)`. Cached ranges return instantly; any part
    /// below the cache floor costs a simulated disk read of its size —
    /// the TiDB root-cause path.
    pub async fn read(&self, lo: u64, hi: u64) -> Result<Vec<Entry>, Crashed> {
        let (slice, miss_bytes) = self.read_raw(lo, hi);
        if miss_bytes > 0 {
            self.world
                .disk(self.node, DiskOp::Read { bytes: miss_bytes })
                .await?;
        }
        Ok(slice)
    }

    /// Like [`LogStore::read`] but *blind to cost*: returns the entries
    /// (clamped to the log) and the cache-miss byte count without
    /// performing the disk read, counting one hit or one miss. Legacy
    /// drivers use this to charge the read wherever their (pathological)
    /// threading model puts it.
    pub fn read_raw(&self, lo: u64, hi: u64) -> (Vec<Entry>, u64) {
        let mut inner = self.inner.borrow_mut();
        let first = inner.first_index;
        let lo = lo.max(first);
        let hi = hi.min(inner.last_index() + 1);
        if lo >= hi {
            return (Vec::new(), 0);
        }
        let at = |index: u64| (index - first) as usize;
        // One stretch of payloads per run the range crosses.
        let mut slice = Vec::with_capacity(at(hi) - at(lo));
        let runs = &inner.runs;
        for (i, &(start, term)) in runs.iter().enumerate().skip(inner.run_of(lo)) {
            let from = start.max(lo);
            if from >= hi {
                break;
            }
            let to = runs.get(i + 1).map_or(hi, |&(next, _)| next.min(hi));
            let payloads = inner.payloads.range(at(from)..at(to));
            slice.extend((from..).zip(payloads).map(|(index, payload)| Entry {
                term,
                index,
                payload: payload.clone(),
            }));
        }
        if lo >= inner.cache_low {
            inner.cache_hits += 1;
            (slice, 0)
        } else {
            inner.cache_misses += 1;
            let miss_hi = hi.min(inner.cache_low);
            let missed = inner.payloads.range(at(lo)..at(miss_hi));
            let bytes: u64 = missed.map(size).sum();
            (slice, bytes)
        }
    }

    /// EntryCache hit count.
    pub fn cache_hits(&self) -> u64 {
        self.inner.borrow().cache_hits
    }

    /// EntryCache miss count.
    pub fn cache_misses(&self) -> u64 {
        self.inner.borrow().cache_misses
    }

    /// Test probe: lowest index currently in the EntryCache.
    #[doc(hidden)]
    pub fn cache_low(&self) -> u64 {
        self.inner.borrow().cache_low
    }

    /// Test probe: bytes currently in the EntryCache ([`Entry::size`] summed from
    /// [`LogStore::cache_low`] up). The eviction books, exposed for
    /// `tests/proptest_log.rs` to hold against its model.
    #[doc(hidden)]
    pub fn cached_bytes(&self) -> u64 {
        self.inner.borrow().cached_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use depfast::event::Watchable;
    use simkit::{Sim, WorldCfg};

    fn setup(cache_bytes: u64) -> (Sim, World, LogStore) {
        let sim = Sim::new(1);
        let world = World::new(sim.clone(), WorldCfg::default());
        let rt = Runtime::new_sim(sim.clone(), NodeId(0));
        let log = LogStore::new(
            &rt,
            &world,
            LogStoreCfg {
                cache_bytes,
                wal: WalCfg::default(),
            },
        );
        (sim, world, log)
    }

    fn entry(index: u64, size: usize) -> Entry {
        Entry {
            term: 1,
            index,
            payload: Bytes::from(vec![0u8; size]),
        }
    }

    #[test]
    fn append_and_read_back() {
        let (sim, _w, log) = setup(1 << 20);
        log.append(&[entry(1, 10), entry(2, 10)]);
        sim.run();
        assert_eq!(log.last_index(), 2);
        let log2 = log.clone();
        let got = sim.block_on(async move { log2.read(1, 3).await.unwrap() });
        assert_eq!(got.len(), 2);
        assert_eq!(got[1].index, 2);
        assert_eq!(log.cache_hits(), 1);
    }

    #[test]
    fn eviction_moves_cache_floor() {
        let (_sim, _w, log) = setup(100);
        // Each entry ~36 bytes: the fourth append evicts the first.
        for i in 1..=4 {
            log.append(&[entry(i, 20)]);
        }
        assert!(log.cache_low() > 1, "cache floor should have moved");
    }

    #[test]
    fn old_reads_miss_and_cost_disk_time() {
        let (sim, _w, log) = setup(100);
        for i in 1..=10 {
            log.append(&[entry(i, 50)]);
        }
        sim.run();
        let before = sim.now();
        let log2 = log.clone();
        let got = sim.block_on(async move { log2.read(1, 3).await.unwrap() });
        assert_eq!(got.len(), 2);
        assert_eq!(log.cache_misses(), 1);
        assert!(sim.now() > before, "cache miss must cost disk time");
    }

    #[test]
    fn recent_reads_hit_instantly() {
        let (sim, _w, log) = setup(1 << 20);
        for i in 1..=10 {
            log.append(&[entry(i, 50)]);
        }
        sim.run();
        let before = sim.now();
        let log2 = log.clone();
        sim.block_on(async move { log2.read(9, 11).await.unwrap() });
        assert_eq!(sim.now(), before, "cache hit is free");
    }

    #[test]
    fn truncate_removes_conflicting_suffix() {
        let (sim, _w, log) = setup(1 << 20);
        for i in 1..=5 {
            log.append(&[entry(i, 10)]);
        }
        log.truncate_from(3);
        sim.run();
        assert_eq!(log.last_index(), 2);
        assert_eq!(log.term_at(3), 0);
        // Re-append from 3 works.
        log.append(&[Entry {
            term: 2,
            index: 3,
            payload: Bytes::new(),
        }]);
        assert_eq!(log.last_index(), 3);
        assert_eq!(log.term_at(3), 2);
    }

    #[test]
    fn compaction_keeps_the_base_term_and_clamps_reads() {
        let (sim, _w, log) = setup(1 << 20);
        for i in 1..=6 {
            log.append(&[Entry {
                term: i,
                index: i,
                payload: Bytes::new(),
            }]);
        }
        sim.run();
        log.compact_through(4);
        assert_eq!((log.first_index(), log.last_index()), (5, 6));
        assert_eq!(log.term_at(4), 4, "the base answers for the dropped entry");
        assert_eq!(log.term_at(3), 0);
        assert_eq!(log.bytes(), 2 * 16);
        let (got, miss) = log.read_raw(1, 7);
        assert_eq!(got.iter().map(|e| e.index).collect::<Vec<_>>(), [5, 6]);
        assert_eq!(miss, 0);
        // Past the end is clamped: an empty log that still knows its base.
        log.compact_through(100);
        assert_eq!((log.first_index(), log.last_index()), (7, 6));
        assert_eq!(log.term_at(6), 6);
        log.append(&[Entry {
            term: 7,
            index: 7,
            payload: Bytes::new(),
        }]);
        assert_eq!(log.last_index(), 7);
    }

    #[test]
    fn a_snapshot_keeps_a_matching_suffix_and_nothing_else() {
        // (snapshot index, snapshot term) -> (first, last) afterwards, on a
        // log of 1..=5 at term 1.
        for (index, term, first, last) in [
            (3, 1, 4, 5),  // the log holds that entry: 4..5 extend the snapshot
            (3, 2, 4, 3),  // it holds another at 3: nothing is known to follow
            (9, 1, 10, 9), // past the end
        ] {
            let (sim, _w, log) = setup(1 << 20);
            for i in 1..=5 {
                log.append(&[entry(i, 10)]);
            }
            sim.run();
            let io = log.install_snapshot(index, term, 4096);
            assert_eq!((log.first_index(), log.last_index()), (first, last));
            assert_eq!(log.term_at(index), term);
            assert_eq!(log.bytes(), (last + 1 - first) * 26);
            assert_eq!(log.cached_bytes(), log.bytes());
            sim.run();
            assert!(io.handle().ready(), "the snapshot's write is awaited");
            assert!(log.durable_index() >= index);
        }
    }

    #[test]
    fn term_vote_round_trip() {
        let (sim, _w, log) = setup(1 << 20);
        let ev = log.set_term_vote(5, Some(2));
        sim.run();
        assert!(ev.handle().ready());
        assert_eq!(log.current_term(), 5);
        assert_eq!(log.voted_for(), Some(2));
    }

    #[test]
    fn read_raw_reports_miss_bytes_without_cost() {
        let (sim, _w, log) = setup(100);
        for i in 1..=10 {
            log.append(&[entry(i, 50)]);
        }
        let before = sim.now();
        let (entries, miss) = log.read_raw(1, 3);
        assert_eq!(entries.len(), 2);
        assert!(miss > 0);
        assert_eq!(sim.now(), before);
    }

    #[test]
    fn out_of_range_reads_are_empty() {
        let (sim, _w, log) = setup(1 << 20);
        log.append(&[entry(1, 10)]);
        let log2 = log.clone();
        let got = sim.block_on(async move { log2.read(5, 10).await.unwrap() });
        assert!(got.is_empty());
    }

    #[test]
    #[should_panic(expected = "non-contiguous")]
    fn non_contiguous_append_panics() {
        let (_sim, _w, log) = setup(1 << 20);
        log.append(&[entry(5, 10)]);
    }
}
