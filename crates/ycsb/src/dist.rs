//! Key-choosing distributions, matching the YCSB generators.

use std::cell::RefCell;

use rand::rngs::SmallRng;
use rand::Rng;

/// A distribution over record indices `0..n`.
pub trait KeyDist {
    /// Draws a record index.
    fn next(&mut self, rng: &mut SmallRng) -> u64;
    /// Number of records.
    fn n(&self) -> u64;
}

/// Uniform over `0..n`.
#[derive(Debug, Clone)]
pub struct Uniform {
    n: u64,
}

impl Uniform {
    /// Creates a uniform distribution over `n` records.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: u64) -> Self {
        assert!(n > 0, "need at least one record");
        Uniform { n }
    }
}

impl KeyDist for Uniform {
    fn next(&mut self, rng: &mut SmallRng) -> u64 {
        rng.random_range(0..self.n)
    }
    fn n(&self) -> u64 {
        self.n
    }
}

/// The YCSB scrambled-free zipfian generator (Gray et al.), θ = 0.99.
///
/// Hot items are the low indices; YCSB proper scrambles with a hash —
/// callers hash the index into a key, which has the same effect.
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    alpha: f64,
    zeta_n: f64,
    eta: f64,
}

thread_local! {
    /// Every zipfian this thread has built, one per keyspace size: a
    /// client session's generator reuses its keyspace's constants instead
    /// of summing ζ(n) again. Per thread, so nothing is shared between
    /// worlds that run on different threads.
    static BUILT: RefCell<Vec<Zipfian>> = const { RefCell::new(Vec::new()) };
}

#[cfg(test)]
thread_local! {
    /// Keyspaces this thread has summed ζ(n) over (`Zipfian::build` calls).
    static SUMS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl Zipfian {
    /// Standard YCSB constant.
    pub const THETA: f64 = 0.99;

    /// Creates a zipfian distribution over `n` records with θ = 0.99.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: u64) -> Self {
        assert!(n > 0, "need at least one record");
        BUILT.with_borrow_mut(|built| {
            if let Some(z) = built.iter().find(|z| z.n == n) {
                return z.clone();
            }
            let z = Self::build(n);
            built.push(z.clone());
            z
        })
    }

    /// Computes the constants of a keyspace of `n` records.
    fn build(n: u64) -> Self {
        #[cfg(test)]
        SUMS.set(SUMS.get() + 1);
        let zeta_n = Self::zeta(n);
        let zeta2 = Self::zeta(2);
        let alpha = 1.0 / (1.0 - Self::THETA);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - Self::THETA)) / (1.0 - zeta2 / zeta_n);
        Zipfian {
            n,
            alpha,
            zeta_n,
            eta,
        }
    }

    fn zeta(n: u64) -> f64 {
        // O(n): summed once per thread per keyspace (see `BUILT`), not once
        // per client session.
        (1..=n).map(|i| 1.0 / (i as f64).powf(Self::THETA)).sum()
    }
}

impl KeyDist for Zipfian {
    fn next(&mut self, rng: &mut SmallRng) -> u64 {
        let u: f64 = rng.random();
        let uz = u * self.zeta_n;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(Self::THETA) {
            return 1;
        }
        let idx = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        idx.min(self.n - 1)
    }
    fn n(&self) -> u64 {
        self.n
    }
}

/// "Latest": zipfian-skewed toward the most recently inserted records.
#[derive(Debug, Clone)]
pub struct Latest {
    inner: Zipfian,
}

impl Latest {
    /// Creates a latest distribution over `n` records.
    pub fn new(n: u64) -> Self {
        Latest {
            inner: Zipfian::new(n),
        }
    }
}

impl KeyDist for Latest {
    fn next(&mut self, rng: &mut SmallRng) -> u64 {
        let n = self.inner.n;
        n - 1 - self.inner.next(rng)
    }
    fn n(&self) -> u64 {
        self.inner.n
    }
}

/// FNV-1a scramble of a record index into a stable key id (stands in for
/// YCSB's key hashing, spreading hot items over the keyspace).
pub fn scramble(index: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in index.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn uniform_covers_range() {
        let mut d = Uniform::new(10);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[d.next(&mut rng) as usize] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn zipfian_within_bounds() {
        let mut d = Zipfian::new(1000);
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..10_000 {
            assert!(d.next(&mut rng) < 1000);
        }
    }

    #[test]
    fn zipfian_is_skewed_to_head() {
        let mut d = Zipfian::new(10_000);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut head = 0u64;
        const DRAWS: u64 = 50_000;
        for _ in 0..DRAWS {
            if d.next(&mut rng) < 100 {
                head += 1;
            }
        }
        // Top 1% of keys should draw far more than 1% of accesses (YCSB
        // θ=0.99 gives them roughly half).
        let frac = head as f64 / DRAWS as f64;
        assert!(frac > 0.3, "head fraction {frac}");
    }

    #[test]
    fn latest_is_skewed_to_tail() {
        let mut d = Latest::new(10_000);
        let mut rng = SmallRng::seed_from_u64(4);
        let mut tail = 0u64;
        for _ in 0..50_000 {
            if d.next(&mut rng) >= 9_900 {
                tail += 1;
            }
        }
        assert!(tail as f64 / 50_000.0 > 0.3);
    }

    #[test]
    fn zipfian_deterministic_per_seed() {
        let draw = |seed| {
            let mut d = Zipfian::new(500);
            let mut rng = SmallRng::seed_from_u64(seed);
            (0..20).map(|_| d.next(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    /// Keyspace sizes in the order a thread builds them: each size again
    /// after others, so every warm construction follows a different one.
    const SIZES: [u64; 10] = [20_000, 1_000, 20_000, 1, 2, 3, 1_000, 20_000, 3, 1];

    /// `d`'s first 1 000 draws at `seed`.
    fn draws(d: &mut impl KeyDist, seed: u64) -> Vec<u64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..1_000).map(|_| d.next(&mut rng)).collect()
    }

    fn bits(z: &Zipfian) -> [u64; 4] {
        [z.n, z.alpha.to_bits(), z.zeta_n.to_bits(), z.eta.to_bits()]
    }

    #[test]
    fn a_warm_keyspace_is_its_cold_sum_bit_for_bit() {
        for (i, n) in SIZES.into_iter().enumerate() {
            let (mut warm, mut cold) = (Zipfian::new(n), Zipfian::build(n));
            assert_eq!(bits(&warm), bits(&cold), "n = {n}, construction {i}");
            assert_eq!(draws(&mut warm, i as u64), draws(&mut cold, i as u64));
            let mut latest = Latest::new(n);
            let mut cold = Latest {
                inner: Zipfian::build(n),
            };
            assert_eq!(bits(&latest.inner), bits(&cold.inner), "latest, n = {n}");
            assert_eq!(draws(&mut latest, i as u64), draws(&mut cold, i as u64));
        }
    }

    #[test]
    fn a_fresh_thread_draws_what_a_warm_one_does() {
        for n in SIZES {
            Zipfian::new(n);
        }
        let here = draws(&mut Zipfian::new(20_000), 9);
        let there = std::thread::spawn(|| draws(&mut Zipfian::new(20_000), 9));
        assert_eq!(here, there.join().unwrap());
    }

    #[test]
    fn a_keyspace_is_summed_once_per_thread() {
        let before = SUMS.get();
        for _ in 0..256 {
            Zipfian::new(4_321);
            Latest::new(4_321);
        }
        assert_eq!(SUMS.get() - before, 1);
    }

    #[test]
    fn scramble_spreads_consecutive_indices() {
        let a = scramble(1);
        let b = scramble(2);
        assert_ne!(a, b);
        assert!(a.abs_diff(b) > 1000);
    }

    #[test]
    #[should_panic(expected = "at least one record")]
    fn empty_keyspace_rejected() {
        Uniform::new(0);
    }
}
