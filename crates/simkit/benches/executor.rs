//! Criterion micro-benchmarks of the one thing no `benchmark/` probe
//! isolates: what a timer operation costs as a function of the queue's
//! depth. Each bench runs on an empty timer queue and again with 50 000
//! far-future timers resident — the queue a busy simulation used to carry
//! when timeouts that had resolved were never removed.
//!
//! Everything else about the executor and the event core (spawn, poll,
//! sleeping tasks ~1 000 deep, notify fire, majority quorum, coroutine
//! switch) is a bound-gated `simkit.probe.*` / `core.probe.*` line of
//! `benchmark/` and is measured there, once.

use std::future::{poll_fn, Future};
use std::pin::Pin;
use std::task::Poll;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
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

criterion_group!(benches, bench_sleep_fire, bench_arm_and_cancel);
criterion_main!(benches);
