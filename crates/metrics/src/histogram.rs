//! A log-bucketed latency histogram (HdrHistogram-style, ~3% relative
//! resolution), generalized from the YCSB client statistics so every
//! layer of the stack shares one distribution type.
//!
//! The buckets are stored by power of two, and a power's block of counts
//! is added the first time a sample lands in it: a histogram is 64 B, plus
//! 256 B per power it has seen, in one vector of blocks.

use std::time::Duration;

/// Number of linear sub-buckets per power-of-two bucket.
const SUBS: usize = 32;
/// Number of power-of-two buckets. The top one is [2^39, 2^40) ns, about
/// 550–1 100 s; a larger value lands in its last sub-bucket.
const POWERS: usize = 40;

/// The counts of one power of two, one per sub-bucket.
type Block = [u64; SUBS];

/// A log-bucketed histogram of nanosecond values.
///
/// Buckets are powers of two split into 32 linear sub-buckets, giving
/// roughly 3% relative resolution across twelve decades; below 32 ns
/// every value has its own bucket. Recording is O(1); quantiles walk the
/// buckets. Means are exact (computed from the running total, not the
/// buckets).
///
/// Only the powers that hold a sample have a block, so an idle or narrow
/// series costs well under 1 KiB, not the 10 KiB of all 40.
///
/// ```
/// use depfast_metrics::Histogram;
/// use std::time::Duration;
///
/// let mut h = Histogram::new();
/// h.record(Duration::from_millis(10));
/// h.record(Duration::from_millis(30));
/// assert_eq!(h.mean(), Duration::from_millis(20));
/// assert_eq!(h.count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Bit `p` is set when power `p` has a block.
    present: u64,
    /// The blocks of the present powers, in power order.
    blocks: Vec<Block>,
    count: u64,
    total_nanos: u128,
    max_nanos: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram. It allocates nothing.
    pub fn new() -> Self {
        Histogram {
            present: 0,
            blocks: Vec::new(),
            count: 0,
            total_nanos: 0,
            max_nanos: 0,
        }
    }

    fn index(nanos: u64) -> usize {
        let n = nanos.clamp(1, (1 << POWERS) - 1);
        let power = 63 - n.leading_zeros() as usize;
        // Position within [2^power, 2^(power+1)); one value per sub-bucket
        // below 2^5.
        let sub = ((n - (1 << power)) >> power.saturating_sub(5)) as usize;
        power * SUBS + sub
    }

    fn bucket_value(index: usize) -> u64 {
        let power = index / SUBS;
        let sub = (index % SUBS) as u64;
        (1u64 << power) + (sub << power.saturating_sub(5))
    }

    /// Records one latency sample.
    pub fn record(&mut self, d: Duration) {
        self.record_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Records one sample given directly in nanoseconds.
    pub fn record_ns(&mut self, nanos: u64) {
        let i = Self::index(nanos);
        self.block_mut(i / SUBS)[i % SUBS] += 1;
        self.count += 1;
        self.total_nanos += nanos as u128;
        self.max_nanos = self.max_nanos.max(nanos);
    }

    /// Power `power`'s block, added empty if it has none yet.
    fn block_mut(&mut self, power: usize) -> &mut Block {
        if self.present & 1 << power == 0 {
            return self.add_block(power);
        }
        let slot = self.slot(power);
        &mut self.blocks[slot]
    }

    /// Where power `power`'s block is, or goes: after one block per
    /// present power below it.
    fn slot(&self, power: usize) -> usize {
        (self.present & ((1 << power) - 1)).count_ones() as usize
    }

    /// Adds an empty block for `power`, which has none yet. Out of line,
    /// so that recording into a present power makes no call; the vector
    /// grows by exactly one block.
    #[cold]
    #[inline(never)]
    fn add_block(&mut self, power: usize) -> &mut Block {
        let slot = self.slot(power);
        self.present |= 1 << power;
        self.blocks.reserve_exact(1);
        self.blocks.insert(slot, [0; SUBS]);
        &mut self.blocks[slot]
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (power, theirs) in other.powers() {
            for (a, b) in self.block_mut(power).iter_mut().zip(theirs) {
                *a += b;
            }
        }
        self.count += other.count;
        self.total_nanos += other.total_nanos;
        self.max_nanos = self.max_nanos.max(other.max_nanos);
    }

    /// Test probe: powers of two that hold a block of counts.
    #[doc(hidden)]
    pub fn blocks_allocated(&self) -> usize {
        self.blocks.len()
    }

    /// The present powers and their blocks, in power order.
    fn powers(&self) -> impl Iterator<Item = (usize, &Block)> {
        let powers = (0..POWERS).filter(|p| self.present & 1 << p != 0);
        powers.zip(&self.blocks)
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples in nanoseconds. Together with
    /// [`Histogram::count`] this gives windowed means via snapshot
    /// differencing (how the fail-slow detector consumes histograms).
    pub fn total_nanos(&self) -> u128 {
        self.total_nanos
    }

    /// Mean latency (zero if empty).
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos((self.total_nanos / self.count as u128) as u64)
    }

    /// Maximum recorded latency.
    pub fn max(&self) -> Duration {
        Duration::from_nanos(if self.count == 0 { 0 } else { self.max_nanos })
    }

    /// The `q`-quantile (`0.0..=1.0`): the *lower edge* of the bucket that
    /// holds the nearest-rank sample (the `⌈q·count⌉`-th smallest, at least
    /// the first). A bucket is 1/32 of a power of two, so the answer is up
    /// to 3.1 % below that sample, and a p99 can read below the mean of
    /// the same samples.
    pub fn quantile(&self, q: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let target = ((q.clamp(0.0, 1.0)) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (power, block) in self.powers() {
            for (sub, c) in block.iter().enumerate() {
                seen += c;
                if seen >= target {
                    return Duration::from_nanos(Self::bucket_value(power * SUBS + sub));
                }
            }
        }
        self.max()
    }

    /// Summary of the distribution.
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count,
            mean: self.mean(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
            max: self.max(),
        }
    }
}

/// A latency distribution summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Summary {
    /// Samples.
    pub count: u64,
    /// Mean.
    pub mean: Duration,
    /// Median.
    pub p50: Duration,
    /// 95th percentile.
    pub p95: Duration,
    /// 99th percentile.
    pub p99: Duration,
    /// 99.9th percentile.
    pub p999: Duration,
    /// Maximum.
    pub max: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// The reference: every bucket allocated up front, and the raw samples
    /// for the exact statistics.
    struct Dense {
        buckets: Vec<u64>,
        samples: Vec<u64>,
    }

    impl Dense {
        fn new() -> Self {
            Dense {
                buckets: vec![0; POWERS * SUBS],
                samples: Vec::new(),
            }
        }

        fn record_ns(&mut self, n: u64) {
            self.buckets[Histogram::index(n)] += 1;
            self.samples.push(n);
        }

        fn quantile(&self, q: f64) -> Duration {
            let target = (q * self.samples.len() as f64).ceil().max(1.0) as u64;
            let mut seen = 0;
            for (i, c) in self.buckets.iter().enumerate() {
                seen += c;
                if seen >= target {
                    return Duration::from_nanos(Histogram::bucket_value(i));
                }
            }
            unreachable!("the buckets hold every sample")
        }

        fn assert_matches(&self, h: &Histogram) {
            let total: u128 = self.samples.iter().map(|&s| s as u128).sum();
            let n = self.samples.len() as u128;
            assert_eq!(h.count() as u128, n);
            assert_eq!(h.total_nanos(), total);
            assert_eq!(h.mean(), Duration::from_nanos((total / n) as u64));
            let max = self.samples.iter().max().expect("a sample");
            assert_eq!(h.max(), Duration::from_nanos(*max));
            for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
                assert_eq!(h.quantile(q), self.quantile(q), "quantile {q}");
            }
        }
    }

    /// A value in [2^p, 2^(p+1)) for a power `p` drawn from 0..64, so every
    /// bucket power and the clamped range above the top one are reached.
    fn sample() -> impl Strategy<Value = (usize, u64)> {
        (0usize..64, any::<u64>()).prop_map(|(p, r)| (p, (1u64 << p) + (r & ((1u64 << p) - 1))))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn sparse_agrees_with_dense(samples in prop::collection::vec(sample(), 1..200)) {
            let mut h = Histogram::new();
            let mut dense = Dense::new();
            for &(_, n) in &samples {
                h.record_ns(n);
                dense.record_ns(n);
            }
            dense.assert_matches(&h);
        }

        #[test]
        fn merge_of_disjoint_powers_agrees_with_dense(
            samples in prop::collection::vec(sample(), 2..200),
        ) {
            // Even bucket powers go to `a`, odd ones to `b`.
            let (mut a, mut b) = (Histogram::new(), Histogram::new());
            let mut dense = Dense::new();
            for &(p, n) in &samples {
                let side = if p.min(POWERS - 1) % 2 == 0 { &mut a } else { &mut b };
                side.record_ns(n);
                dense.record_ns(n);
            }
            let blocks = a.blocks_allocated() + b.blocks_allocated();
            a.merge(&b);
            prop_assert_eq!(a.blocks_allocated(), blocks);
            dense.assert_matches(&a);
        }
    }

    #[test]
    fn a_block_is_allocated_per_power_seen() {
        let mut h = Histogram::new();
        assert_eq!(h.blocks_allocated(), 0);
        // Three samples in 2^3, two in 2^20, one past the top power.
        for n in [8, 9, 15, 1 << 20, (1 << 21) - 1, u64::MAX] {
            h.record_ns(n);
        }
        assert_eq!(h.blocks_allocated(), 3);
        let mut empty = Histogram::new();
        empty.merge(&Histogram::new());
        assert_eq!(empty.blocks_allocated(), 0);
        h.merge(&empty);
        assert_eq!(h.blocks_allocated(), 3);
        empty.merge(&h);
        assert_eq!(empty.blocks_allocated(), 3);
    }

    #[test]
    fn every_value_lands_in_the_bucket_that_brackets_it() {
        let top = (1u64 << POWERS) - 1;
        for n in (1..4096).chain([top]) {
            let i = Histogram::index(n);
            let (lo, hi) = (Histogram::bucket_value(i), Histogram::bucket_value(i + 1));
            assert!(lo <= n && n < hi, "{n} in [{lo}, {hi})");
            if n < 32 {
                assert_eq!(lo, n, "{n} ns must be exact");
            }
        }
        // Zero reads as 1 ns; a value past the top power shares its last
        // bucket, whose lower edge is still below it.
        assert_eq!(Histogram::index(0), Histogram::index(1));
        for n in [1 << POWERS, 1 << (POWERS + 1), u64::MAX] {
            assert_eq!(Histogram::index(n), Histogram::index(top), "{n}");
        }
    }

    #[test]
    fn empty_histogram_is_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), Duration::ZERO);
        assert_eq!(h.quantile(0.99), Duration::ZERO);
    }

    #[test]
    fn mean_is_exact() {
        let mut h = Histogram::new();
        h.record(ms(10));
        h.record(ms(20));
        h.record(ms(30));
        assert_eq!(h.mean(), ms(20));
    }

    #[test]
    fn quantiles_are_approximately_right() {
        let mut h = Histogram::new();
        for i in 1..=1000u64 {
            h.record(Duration::from_micros(i));
        }
        let p50 = h.quantile(0.5).as_micros() as f64;
        let p99 = h.quantile(0.99).as_micros() as f64;
        assert!((450.0..560.0).contains(&p50), "p50 {p50}");
        assert!((900.0..1100.0).contains(&p99), "p99 {p99}");
    }

    #[test]
    fn bucket_resolution_within_a_few_percent() {
        let mut h = Histogram::new();
        h.record(Duration::from_nanos(1_234_567));
        let q = h.quantile(1.0).as_nanos() as f64;
        let err = (q - 1_234_567.0).abs() / 1_234_567.0;
        assert!(err < 0.05, "relative error {err}");
    }

    #[test]
    fn bucket_boundaries_are_exact_at_powers_of_two() {
        // A power of two must land in its own bucket: recording 2^k and
        // querying the max quantile must return exactly 2^k (the bucket's
        // lower edge).
        for k in 0..34u32 {
            let v = 1u64 << k;
            let mut h = Histogram::new();
            h.record_ns(v);
            assert_eq!(
                h.quantile(1.0).as_nanos() as u64,
                v,
                "2^{k} must be a bucket lower edge"
            );
        }
    }

    #[test]
    fn adjacent_sub_buckets_separate_close_values() {
        // Values one sub-bucket apart must not collapse into one bucket
        // once above the linear range.
        let base = 1u64 << 20;
        let step = 1u64 << 15; // sub-bucket width at this power
        let mut h = Histogram::new();
        h.record_ns(base);
        h.record_ns(base + step);
        assert_eq!(h.quantile(0.5).as_nanos() as u64, base);
        assert_eq!(h.quantile(1.0).as_nanos() as u64, base + step);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(ms(1));
        b.record(ms(100));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), ms(100));
        assert!(a.quantile(0.25) <= ms(2));
    }

    #[test]
    fn summary_orders_quantiles() {
        let mut h = Histogram::new();
        for i in 0..10_000u64 {
            h.record(Duration::from_micros(10 + i % 5000));
        }
        let s = h.summary();
        assert!(s.p50 <= s.p95);
        assert!(s.p95 <= s.p99);
        assert!(s.p99 <= s.p999);
        assert!(s.p999 <= s.max);
    }

    #[test]
    fn extreme_values_do_not_panic() {
        let mut h = Histogram::new();
        h.record(Duration::ZERO);
        h.record(Duration::from_secs(10_000));
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), Duration::from_secs(10_000));
        // Past the top power a value reads as its last bucket, 1 082 s,
        // not where an unclamped sub-bucket wrapped to (653 s here).
        let last = (1u64 << 39) + (31 << 34);
        assert_eq!(h.quantile(1.0), Duration::from_nanos(last));
    }

    #[test]
    fn windowed_mean_via_snapshot_differencing() {
        let mut h = Histogram::new();
        h.record_ns(1_000);
        let (c0, t0) = (h.count(), h.total_nanos());
        h.record_ns(5_000);
        h.record_ns(7_000);
        let dc = h.count() - c0;
        let dt = h.total_nanos() - t0;
        assert_eq!(dc, 2);
        assert_eq!(dt / dc as u128, 6_000);
    }
}
