//! Criterion micro-benchmarks of the executor's hot path: what a task
//! costs to spawn, poll, put to sleep, and to give a deadline it does not
//! need. Each runs on an empty timer queue and again with 50 000
//! far-future timers resident — the queue a busy simulation used to carry
//! when timeouts that had resolved were never removed, and the case in
//! which the cost of a timer operation depends on the queue's depth.

use std::future::{poll_fn, Future};
use std::pin::Pin;
use std::task::Poll;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use simkit::executor::yield_now;
use simkit::{Sim, SimTime};

const RESIDENT: [usize; 2] = [0, 50_000];

/// A simulator with `resident` timers that never come due in a bench.
fn sim_with(resident: usize) -> Sim {
    let sim = Sim::new(1);
    for i in 0..resident as u64 {
        sim.schedule_call(SimTime::from_secs(1_000_000 + i), || {});
    }
    sim
}

/// Runs what is runnable now, and the timers due now, and nothing later.
fn settle(sim: &Sim) {
    sim.run_until_time(sim.now());
}

/// Benches `routine` as `name` on an empty queue and on a deep one.
fn bench(c: &mut Criterion, name: &str, routine: impl Fn(&Sim)) {
    for resident in RESIDENT {
        c.bench_function(&format!("{name}/{resident}_resident"), |b| {
            let sim = sim_with(resident);
            b.iter(|| routine(&sim));
        });
    }
}

fn bench_spawn_and_complete(c: &mut Criterion) {
    bench(c, "spawn_and_complete", |sim| {
        sim.spawn_detached(Box::pin(async {}));
        settle(sim);
    });
}

fn bench_yield_poll(c: &mut Criterion) {
    bench(c, "yield_now_x100", |sim| {
        sim.spawn_detached(Box::pin(async {
            for _ in 0..100 {
                yield_now().await;
            }
        }));
        settle(sim);
    });
}

fn bench_sleep_fire(c: &mut Criterion) {
    bench(c, "sleep_fire_x100", |sim| {
        let s = sim.clone();
        sim.block_on(async move {
            for _ in 0..100 {
                s.sleep(Duration::from_micros(1)).await;
            }
        });
    });
}

/// The `wait_timeout` that resolves early: arm a deadline, then drop it.
fn bench_arm_and_cancel(c: &mut Criterion) {
    bench(c, "arm_and_cancel_x100", |sim| {
        let s = sim.clone();
        sim.spawn_detached(Box::pin(async move {
            for _ in 0..100 {
                let mut deadline = s.sleep(Duration::from_secs(5));
                poll_fn(|cx| {
                    assert!(Pin::new(&mut deadline).poll(cx).is_pending());
                    Poll::Ready(())
                })
                .await;
            }
        }));
        settle(sim);
    });
}

criterion_group!(
    benches,
    bench_spawn_and_complete,
    bench_yield_poll,
    bench_sleep_fire,
    bench_arm_and_cancel
);
criterion_main!(benches);
