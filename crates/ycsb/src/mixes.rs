//! The standard YCSB workload letter mixes, as specs: A to D, the ones
//! [`OpKind`](crate::workload::OpKind)'s point operations express.
//!
//! The paper's measurement uses the update-only variant
//! ([`WorkloadSpec::update_heavy`]); these are provided so the harness
//! generalizes to the broader YCSB suite. Workloads E (scans) and F
//! (read-modify-write) need operations the point-addressed replicated KV
//! interface and the driver do not have, so there is no spec for them.

use crate::workload::{DistKind, WorkloadSpec};

/// YCSB workload A: 50% update / 50% read, zipfian.
pub fn workload_a() -> WorkloadSpec {
    WorkloadSpec {
        records: 500_000,
        value_size: 1000,
        update_prop: 0.5,
        read_prop: 0.5,
        insert_prop: 0.0,
        dist: DistKind::Zipfian,
    }
}

/// YCSB workload B: 5% update / 95% read, zipfian.
pub fn workload_b() -> WorkloadSpec {
    WorkloadSpec {
        update_prop: 0.05,
        read_prop: 0.95,
        ..workload_a()
    }
}

/// YCSB workload C: 100% read, zipfian.
pub fn workload_c() -> WorkloadSpec {
    WorkloadSpec {
        update_prop: 0.0,
        read_prop: 1.0,
        ..workload_a()
    }
}

/// YCSB workload D: 95% read / 5% insert, latest distribution.
pub fn workload_d() -> WorkloadSpec {
    WorkloadSpec {
        update_prop: 0.0,
        read_prop: 0.95,
        insert_prop: 0.05,
        dist: DistKind::Latest,
        ..workload_a()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{OpGen, OpKind};

    #[test]
    fn proportions_sum_to_at_most_one() {
        for w in [workload_a(), workload_b(), workload_c(), workload_d()] {
            let sum = w.update_prop + w.read_prop + w.insert_prop;
            assert!((0.0..=1.0 + 1e-9).contains(&sum), "{w:?}");
        }
    }

    #[test]
    fn d_uses_latest_distribution() {
        assert_eq!(workload_d().dist, DistKind::Latest);
    }

    #[test]
    fn c_is_read_only() {
        let c = workload_c();
        assert_eq!(c.update_prop, 0.0);
        assert_eq!(c.read_prop, 1.0);
    }

    #[test]
    fn mixed_workload_respects_proportions() {
        let mut g = OpGen::new(workload_a().with_records(100), 2);
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
        let mut g = OpGen::new(workload_b().with_records(100), 3);
        for _ in 0..100 {
            let (kind, _, value) = g.next_op();
            if kind == OpKind::Read {
                assert!(value.is_empty());
                return;
            }
        }
        panic!("no read generated");
    }
}
