//! Criterion micro-benchmarks of the YCSB generator in `read-mostly`'s
//! shape (95 % gets, 1 000 B values, zipfian over 20 000 records): what
//! opening a workload's 256 client sessions costs, and what one operation
//! costs once they are open.
//!
//! A zipfian keyspace's constants are summed once per thread
//! (`depfast_ycsb::Zipfian::new`), so the first row, warm after its first
//! iteration, times 256 sessions that sum nothing. The cold sum is
//! `benchmark/`'s setup cost and is booked in `docs/PERFORMANCE.md` §23.
//!
//! ```sh
//! cargo bench -p depfast-ycsb --bench generator
//! ```

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use depfast_ycsb::workload::{DistKind, OpGen, WorkloadSpec};

const SESSIONS: u64 = 256;

fn read_mostly() -> WorkloadSpec {
    WorkloadSpec {
        records: 20_000,
        value_size: 1000,
        update_prop: 0.05,
        read_prop: 0.95,
        insert_prop: 0.0,
        dist: DistKind::Zipfian,
    }
}

fn bench_sessions(c: &mut Criterion) {
    c.bench_function("opgen_new_x256/zipf_20000", |b| {
        b.iter(|| {
            (0..SESSIONS)
                .map(|seed| OpGen::new(read_mostly(), seed))
                .collect::<Vec<_>>()
        });
    });
}

fn bench_next_op(c: &mut Criterion) {
    let mut gen = OpGen::new(read_mostly(), 7);
    c.bench_function("next_op/zipf_20000", |b| {
        b.iter(|| black_box(gen.next_op()));
    });
}

criterion_group!(benches, bench_sessions, bench_next_op);
criterion_main!(benches);
