//! Workload specifications: op mixes and record sizing.

use std::io::Write;

use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::dist::{scramble, KeyDist, Latest, Uniform, Zipfian};

/// Which key distribution a workload uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistKind {
    /// Uniform over the keyspace.
    Uniform,
    /// YCSB zipfian, θ = 0.99.
    Zipfian,
    /// Skewed toward recently inserted records.
    Latest,
}

/// One generated operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Overwrite an existing record.
    Update,
    /// Read a record.
    Read,
    /// Insert a new record.
    Insert,
}

/// A YCSB-style workload specification.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Records in the keyspace.
    pub records: u64,
    /// Value bytes per record (YCSB default: 10 fields × 100 B).
    pub value_size: usize,
    /// Proportion of updates in `[0, 1]`.
    pub update_prop: f64,
    /// Proportion of reads in `[0, 1]`.
    pub read_prop: f64,
    /// Proportion of inserts (remainder).
    pub insert_prop: f64,
    /// Key distribution.
    pub dist: DistKind,
}

impl WorkloadSpec {
    /// The paper's measurement workload: updates over 500 K records.
    pub fn update_heavy() -> Self {
        WorkloadSpec {
            records: 500_000,
            value_size: 1000,
            update_prop: 1.0,
            read_prop: 0.0,
            insert_prop: 0.0,
            dist: DistKind::Zipfian,
        }
    }

    /// Scale the keyspace down (for fast tests).
    pub fn with_records(self, records: u64) -> Self {
        WorkloadSpec { records, ..self }
    }

    /// Change the value size.
    pub fn with_value_size(self, value_size: usize) -> Self {
        WorkloadSpec { value_size, ..self }
    }
}

/// A seeded per-client operation generator.
pub struct OpGen {
    spec: WorkloadSpec,
    dist: Box<dyn KeyDist>,
    rng: SmallRng,
    inserted: u64,
    /// Where each value is drawn before it is copied into its buffer.
    value: Vec<u8>,
}

impl OpGen {
    /// Creates a generator for `spec` seeded with `seed`.
    pub fn new(spec: WorkloadSpec, seed: u64) -> Self {
        use rand::SeedableRng;
        let dist: Box<dyn KeyDist> = match spec.dist {
            DistKind::Uniform => Box::new(Uniform::new(spec.records)),
            DistKind::Zipfian => Box::new(Zipfian::new(spec.records)),
            DistKind::Latest => Box::new(Latest::new(spec.records)),
        };
        OpGen {
            spec,
            dist,
            rng: SmallRng::seed_from_u64(seed),
            inserted: 0,
            value: Vec::new(),
        }
    }

    /// Draws the next operation: kind, key and (for writes) value.
    pub fn next_op(&mut self) -> (OpKind, Bytes, Bytes) {
        let r: f64 = self.rng.random();
        let kind = if r < self.spec.update_prop {
            OpKind::Update
        } else if r < self.spec.update_prop + self.spec.read_prop {
            OpKind::Read
        } else {
            OpKind::Insert
        };
        let key = match kind {
            OpKind::Insert => {
                self.inserted += 1;
                self.spec.records + self.inserted
            }
            _ => scramble(self.dist.next(&mut self.rng)) % self.spec.records,
        };
        let key = key_bytes(key);
        let value = match kind {
            OpKind::Read => Bytes::new(),
            _ => {
                self.value.resize(self.spec.value_size, 0);
                self.rng.fill(&mut self.value[..]);
                Bytes::copy_from_slice(&self.value)
            }
        };
        (kind, key, value)
    }
}

/// `user` and `n` in 19 zero-padded digits, formatted on the stack (24 B
/// holds a `u64` of 20) and copied once into its buffer.
fn key_bytes(n: u64) -> Bytes {
    let mut buf = [0u8; 24];
    let unwritten = {
        let mut rest = &mut buf[..];
        write!(rest, "user{n:019}").expect("a u64 key fits 24 bytes");
        rest.len()
    };
    Bytes::copy_from_slice(&buf[..buf.len() - unwritten])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_key_is_what_format_writes() {
        for n in [
            0,
            7,
            9_999_999_999_999_999_999,
            10_000_000_000_000_000_000,
            u64::MAX,
        ] {
            assert_eq!(key_bytes(n)[..], *format!("user{n:019}").as_bytes());
        }
    }

    #[test]
    fn update_heavy_generates_only_updates() {
        let mut g = OpGen::new(WorkloadSpec::update_heavy().with_records(100), 1);
        for _ in 0..200 {
            let (kind, key, value) = g.next_op();
            assert_eq!(kind, OpKind::Update);
            assert!(key.starts_with(b"user"));
            assert_eq!(value.len(), 1000);
        }
    }

    #[test]
    fn mixed_workload_respects_proportions() {
        let spec = WorkloadSpec {
            update_prop: 0.5,
            read_prop: 0.5,
            ..WorkloadSpec::update_heavy().with_records(100)
        };
        let mut g = OpGen::new(spec, 2);
        let mut updates = 0;
        let mut reads = 0;
        for _ in 0..2000 {
            match g.next_op().0 {
                OpKind::Update => updates += 1,
                OpKind::Read => reads += 1,
                OpKind::Insert => {}
            }
        }
        let frac = updates as f64 / (updates + reads) as f64;
        assert!((0.42..0.58).contains(&frac), "update frac {frac}");
    }

    #[test]
    fn reads_have_empty_values() {
        let spec = WorkloadSpec {
            update_prop: 0.05,
            read_prop: 0.95,
            ..WorkloadSpec::update_heavy().with_records(100)
        };
        let mut g = OpGen::new(spec, 3);
        for _ in 0..100 {
            let (kind, _, value) = g.next_op();
            if kind == OpKind::Read {
                assert!(value.is_empty());
                return;
            }
        }
        panic!("no read generated");
    }

    #[test]
    fn inserts_use_fresh_keys() {
        let spec = WorkloadSpec {
            update_prop: 0.0,
            read_prop: 0.0,
            insert_prop: 1.0,
            ..WorkloadSpec::update_heavy().with_records(10)
        };
        let mut g = OpGen::new(spec, 4);
        let (_, k1, _) = g.next_op();
        let (_, k2, _) = g.next_op();
        assert_ne!(k1, k2);
    }

    #[test]
    fn generator_is_deterministic() {
        let run = |seed| {
            let mut g = OpGen::new(WorkloadSpec::update_heavy().with_records(50), seed);
            (0..10).map(|_| g.next_op().1).collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }
}
