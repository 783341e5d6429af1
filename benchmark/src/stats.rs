//! Small numeric helpers: order statistics, the benchmark's own seeded
//! generator (inputs are made here, never inside the program under
//! test), and the calibration loop that tells how fast the machine is
//! running right now.

use std::collections::HashMap;
use std::time::Instant;

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank quantile `q` of an ascending slice (0 when empty).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// splitmix64: a seeded stream for arrival times and preload values.
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream is fixed by `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// `len` random bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }
}

/// Host nanoseconds the calibration loop takes on the machine this
/// benchmark was defined on, in a quiet phase (median over 30 fresh
/// processes). Host times are reported as if the machine always ran at
/// this speed.
pub const CALIBRATION_NOMINAL_NS: f64 = 57.0e6;

/// Times a fixed piece of work that belongs to the benchmark and never
/// changes: a hash map of small buffers under insert and lookup, and a
/// log of 1000-byte records filled five times over. The simulator does
/// much the same to memory, and slows by much the same factor when the
/// machine does. The least of three rounds is reported: interference only
/// ever adds time. It holds 30 MB at most, so that it cannot set the
/// memory high-water mark of a repetition.
pub fn calibration_ns() -> u64 {
    let round = || {
        let started = Instant::now();
        let mut rng = Rng::new(0xca11b);
        let mut map: HashMap<u64, (u64, Vec<u8>)> = HashMap::new();
        for i in 0..100_000 {
            map.insert(rng.next_u64() % 50_000, (i, vec![0u8; 200]));
            if let Some(v) = map.get_mut(&(rng.next_u64() % 50_000)) {
                v.0 += 1;
            }
        }
        let record = vec![7u8; 1000];
        for _ in 0..5 {
            let log: Vec<Vec<u8>> = (0..20_000).map(|_| record.clone()).collect();
            std::hint::black_box(&log);
        }
        std::hint::black_box(&map);
        started.elapsed().as_nanos() as u64
    };
    (0..3).map(|_| round()).min().expect("three rounds")
}
