//! What spawning and waking a task allocates, counted by a global
//! allocator: a task's boxed future, and the task table's and woken
//! queue's amortised growth. A task's waker is its id, so cloning, waking
//! and dropping it allocate nothing.
//!
//! Its own test binary, so that the counting allocator sees this test only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::future::poll_fn;
use std::rc::Rc;
use std::task::{Poll, Waker};

use simkit::Sim;

struct Counting;

thread_local! {
    /// Allocations made on this thread, `realloc`s included.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded to `System` unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

const TASKS: usize = 1_000;
const WAKES: u32 = 10;

#[test]
fn spawning_and_waking_allocates_the_futures_and_amortised_growth_only() {
    let sim = Sim::new(1);
    // Where each task keeps its waker, sized before counting starts.
    let wakers: Rc<RefCell<Vec<Option<Waker>>>> = Rc::new(RefCell::new(vec![None; TASKS]));
    let before = allocations();
    for i in 0..TASKS {
        let wakers = wakers.clone();
        let mut polls = 0;
        sim.spawn_detached(Box::pin(poll_fn(move |cx| {
            polls += 1;
            if polls > WAKES {
                return Poll::Ready(());
            }
            wakers.borrow_mut()[i] = Some(cx.waker().clone());
            Poll::Pending
        })));
    }
    sim.run();
    for _ in 0..WAKES {
        for waker in wakers.borrow_mut().iter_mut() {
            waker.take().expect("a parked task").wake();
        }
        sim.run();
    }
    let made = allocations() - before;
    assert_eq!(sim.polls(), TASKS as u64 * (WAKES as u64 + 1));
    assert!(
        wakers.borrow().iter().all(Option::is_none),
        "every task ran to its end"
    );
    // One boxed future per task, and the task table, its free list and the
    // woken queue each doubling about log2(TASKS) times.
    assert!(
        (TASKS as u64..TASKS as u64 + 64).contains(&made),
        "{TASKS} tasks woken {WAKES} times each made {made} allocations"
    );
}
