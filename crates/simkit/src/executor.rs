//! Deterministic single-threaded async executor with virtual time.
//!
//! The executor is the heart of the simulation: it polls tasks until every
//! one of them is blocked, then jumps the virtual clock to the next timer
//! deadline. Because there is exactly one thread, the ready queue is FIFO
//! and timers fire in `(deadline, schedule order)`, a given seed always
//! produces the same interleaving — the property the whole benchmark
//! harness relies on.
//!
//! Host cost follows *live* work. Tasks sit in a slab indexed by the low
//! bits of their [`TaskId`] (no hashing per poll; a generation above them
//! rejects wakes meant for a finished task whose slot was reused).
//! Timers can be cancelled by the [`TimerId`] [`Sim::schedule_wake`]
//! returns, so a timeout whose wait resolved early leaves nothing behind:
//! no waker, no wake, no poll, and a queue no deeper than twice the timers
//! still wanted.
//!
//! A task's [`Waker`] is its [`TaskId`]: the waker's data word is the id
//! itself, never dereferenced, so spawning allocates only the boxed
//! future, and cloning or dropping a waker costs nothing. The id packs
//! the executor's key, the slot's generation and the slot index (see
//! [`TaskId`]). A wake looks its executor up by key in a thread-local
//! registry and pushes the id on that executor's woken queue, a plain
//! `RefCell<VecDeque>`: a wake takes no lock and touches no atomic.
//!
//! **A `Sim` and its tasks live on one thread.** A task's waker woken on
//! another thread, or after its executor is dropped, finds no executor
//! with its key and wakes nothing. Independent worlds may run one per
//! thread: their executors share nothing. Wakers that are not task
//! wakers — whatever a caller hands to [`Sim::schedule_wake`] or parks in a
//! [`WakerSlot`] — are woken as they are, on this thread.
//!
//! The DepFast paper (§3.3) describes a runtime with "coroutines, events, a
//! scheduler, and I/O helper threads". This executor plays the scheduler
//! role; the DepFast crate layers coroutine identity and event tracing on
//! top, and the resource models in this crate stand in for the I/O helper
//! threads by completing simulated I/O after a modelled delay.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::time::SimTime;
use crate::LocalBoxFuture;

/// Identifier of a spawned task, and the data word of its waker:
/// `executor key << 48 | generation << 24 | slot index`.
///
/// The key tells the executors alive on a thread apart. The generation
/// is bumped each time the slot's occupant finishes, so it wraps after
/// 2^24 (16 777 216) reuses of one slot; only a waker kept that long past
/// its task's end could then wake the slot's occupant, with a spurious
/// poll. A slab of 2^24 slots bounds the tasks alive at once.
pub type TaskId = u64;

const INDEX_BITS: u32 = 24;
const INDEX_MASK: TaskId = (1 << INDEX_BITS) - 1;
const GENERATION_BITS: u32 = 24;
const GENERATION_MASK: u32 = (1 << GENERATION_BITS) - 1;
const KEY_SHIFT: u32 = INDEX_BITS + GENERATION_BITS;

// A task id is the waker's pointer-sized data word.
const _: () = assert!(usize::BITS == TaskId::BITS);

/// Handle to a scheduled wake-up, for [`Sim::cancel_timer`].
///
/// It names the timer by where it is kept and by its number in schedule
/// order. Numbers are never reused, so cancelling a timer that already
/// fired (or was already cancelled) is a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerId {
    slot: u32,
    seq: u64,
}

/// What a timer fires: either waking a task or running a callback.
///
/// Callbacks let the network model deliver messages without a dedicated
/// pump task; they run on the executor thread between task polls.
enum TimerAction {
    Wake(Waker),
    Call(Box<dyn FnOnce()>),
}

/// `TimerSlot::seq` of a slot that holds no timer; never a timer's number.
const VACANT: u64 = u64::MAX;

struct TimerSlot {
    seq: u64,
    action: Option<TimerAction>,
}

/// The pending timers, in firing order `(deadline, schedule order)`.
///
/// A binary heap of `(deadline, seq, slot)` keys over a slab of actions.
/// Cancelling a timer empties its slot at once (the waker is dropped, the
/// slot can be reused) and leaves its key in the heap as a tombstone: a
/// key whose slot no longer holds its `seq`. Tombstones are dropped when
/// they surface and swept when they outnumber the live keys, so the heap
/// stays within twice the live timers and every operation costs
/// O(log live), amortised.
#[derive(Default)]
struct TimerQueue {
    heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    slots: Vec<TimerSlot>,
    free_slots: Vec<u32>,
    tombstones: usize,
    /// Timers ever scheduled; the next one's `seq`.
    scheduled: u64,
}

impl TimerQueue {
    fn len(&self) -> usize {
        self.heap.len() - self.tombstones
    }

    fn schedule(&mut self, at: SimTime, action: TimerAction) -> TimerId {
        let seq = self.scheduled;
        self.scheduled += 1;
        let occupant = TimerSlot {
            seq,
            action: Some(action),
        };
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                self.slots[slot as usize] = occupant;
                slot
            }
            None => {
                self.slots.push(occupant);
                u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 pending timers")
            }
        };
        self.heap.push(Reverse((at, seq, slot)));
        TimerId { slot, seq }
    }

    /// Empties `slot`, whose timer is firing or cancelled.
    fn vacate(&mut self, slot: u32) -> TimerAction {
        self.free_slots.push(slot);
        let slot = &mut self.slots[slot as usize];
        slot.seq = VACANT;
        slot.action.take().expect("an occupied slot has an action")
    }

    /// Removes timer `id` if it is still pending and returns its action
    /// (for the caller to drop where no borrow is held).
    fn cancel(&mut self, id: TimerId) -> Option<TimerAction> {
        if self.slots.get(id.slot as usize)?.seq != id.seq {
            return None;
        }
        let action = self.vacate(id.slot);
        self.tombstones += 1;
        if self.tombstones > self.heap.len() / 2 {
            let slots = &self.slots;
            self.heap
                .retain(|Reverse((_, seq, slot))| slots[*slot as usize].seq == *seq);
            self.tombstones = 0;
        }
        Some(action)
    }

    /// Deadline of the earliest pending timer.
    fn next_at(&mut self) -> Option<SimTime> {
        while let Some(&Reverse((at, seq, slot))) = self.heap.peek() {
            if self.slots[slot as usize].seq == seq {
                return Some(at);
            }
            self.heap.pop();
            self.tombstones -= 1;
        }
        None
    }

    /// Moves the actions of every timer due at the earliest pending
    /// deadline to `due`, in schedule order, and returns that deadline.
    fn pop_instant(&mut self, due: &mut Vec<TimerAction>) -> Option<SimTime> {
        let instant = self.next_at()?;
        while let Some(&Reverse((at, seq, slot))) = self.heap.peek() {
            if at > instant {
                break;
            }
            self.heap.pop();
            if self.slots[slot as usize].seq == seq {
                due.push(self.vacate(slot));
            } else {
                self.tombstones -= 1;
            }
        }
        Some(instant)
    }
}

/// One executor's FIFO of tasks whose wakers have fired. It may name a
/// task twice, or one that has since finished; the slab's generation
/// check drops the latter.
struct WokenQueue {
    /// The executor's key, in place: `key << KEY_SHIFT`.
    key: TaskId,
    queue: RefCell<VecDeque<TaskId>>,
}

thread_local! {
    /// The woken queues of the executors alive on this thread, for wakes.
    static WOKEN: RefCell<Vec<Rc<WokenQueue>>> = const { RefCell::new(Vec::new()) };
}

/// Executor keys ever drawn in this process, so that no two executors
/// alive on one thread share a key (it wraps after 2^16 executors, and a
/// key still alive on this thread is skipped).
static KEYS: AtomicU64 = AtomicU64::new(0);

/// A task's waker. The data word is the [`TaskId`], only ever read as an
/// integer: cloning copies it and dropping does nothing.
static TASK_WAKER: RawWakerVTable =
    RawWakerVTable::new(clone_task, wake_task, wake_task, drop_task);

fn task_waker(id: TaskId) -> Waker {
    let raw = RawWaker::new(std::ptr::without_provenance(id as usize), &TASK_WAKER);
    // SAFETY: no entry of the vtable dereferences the data word, and each
    // is sound on any thread: a wake on a thread with no executor of the
    // word's key does nothing.
    unsafe { Waker::from_raw(raw) }
}

fn clone_task(word: *const ()) -> RawWaker {
    RawWaker::new(word, &TASK_WAKER)
}

fn wake_task(word: *const ()) {
    let id = word.addr() as TaskId;
    // A thread that is exiting has no executor left to wake.
    let _ = WOKEN.try_with(|woken| {
        let key = id >> KEY_SHIFT << KEY_SHIFT;
        if let Some(q) = woken.borrow().iter().find(|q| q.key == key) {
            q.queue.borrow_mut().push_back(id);
        }
    });
}

fn drop_task(_: *const ()) {}

/// One entry of the task slab.
struct Slot {
    /// Bumped when the occupant finishes, so its wakers stop matching.
    generation: u32,
    /// The occupant; `None` while it is being polled or the slot is free.
    task: Option<LocalBoxFuture<()>>,
}

struct Core {
    /// This executor's key, as in [`WokenQueue::key`].
    key: TaskId,
    now: SimTime,
    tasks: Vec<Slot>,
    free_slots: Vec<u32>,
    timers: TimerQueue,
    /// Scratch for the timers of one instant, kept for its capacity.
    due: Vec<TimerAction>,
    rng: SmallRng,
    /// Total tasks ever spawned, for diagnostics.
    spawned: u64,
    /// Total task polls, for diagnostics.
    polls: u64,
}

// Executors alive on this thread, for `Sim::alive_on_this_thread`.
thread_local!(static ALIVE: Cell<usize> = const { Cell::new(0) });

impl Drop for Core {
    fn drop(&mut self) {
        ALIVE.with(|n| n.set(n.get() - 1));
        // From here on this executor's wakers wake nothing, the wakes of
        // its tasks' destructors included.
        let _ = WOKEN.try_with(|woken| woken.borrow_mut().retain(|q| q.key != self.key));
    }
}

/// A deterministic, single-threaded discrete-event simulator and executor.
///
/// `Sim` is cheap to clone (it is a reference-counted handle) and is the
/// entry point for everything time-related: spawning tasks, sleeping,
/// scheduling callbacks and drawing seeded random numbers.
///
/// # Examples
///
/// ```
/// use simkit::Sim;
/// use std::time::Duration;
///
/// let sim = Sim::new(42);
/// let s = sim.clone();
/// let out = sim.block_on(async move {
///     s.sleep(Duration::from_millis(5)).await;
///     s.now().as_nanos()
/// });
/// assert_eq!(out, 5_000_000);
/// ```
#[derive(Clone)]
pub struct Sim {
    core: Rc<RefCell<Core>>,
    woken: Rc<WokenQueue>,
}

impl Sim {
    /// Creates a new simulator whose random stream is derived from `seed`.
    pub fn new(seed: u64) -> Self {
        ALIVE.with(|n| n.set(n.get() + 1));
        let woken = WOKEN.with(|woken| {
            let mut woken = woken.borrow_mut();
            let key = loop {
                let key = KEYS.fetch_add(1, Ordering::Relaxed) << KEY_SHIFT;
                if woken.iter().all(|q| q.key != key) {
                    break key;
                }
            };
            let queue = Rc::new(WokenQueue {
                key,
                queue: RefCell::default(),
            });
            woken.push(queue.clone());
            queue
        });
        Sim {
            core: Rc::new(RefCell::new(Core {
                key: woken.key,
                now: SimTime::ZERO,
                tasks: Vec::new(),
                free_slots: Vec::new(),
                timers: TimerQueue::default(),
                due: Vec::new(),
                rng: SmallRng::seed_from_u64(seed),
                spawned: 0,
                polls: 0,
            })),
            woken,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.borrow().now
    }

    /// Test probe: executors on this thread not yet freed. An executor
    /// lives while any handle on it does, and every world, runtime,
    /// endpoint and server built on it holds one.
    #[doc(hidden)]
    pub fn alive_on_this_thread() -> usize {
        ALIVE.with(Cell::get)
    }

    /// Number of tasks spawned so far (diagnostics).
    pub fn tasks_spawned(&self) -> u64 {
        self.core.borrow().spawned
    }

    /// Number of timers scheduled so far (diagnostics).
    pub fn timers_scheduled(&self) -> u64 {
        self.core.borrow().timers.scheduled
    }

    /// Test probe: number of timers scheduled and neither fired nor
    /// cancelled yet.
    #[doc(hidden)]
    pub fn pending_timers(&self) -> usize {
        self.core.borrow().timers.len()
    }

    /// Number of task polls performed so far (diagnostics).
    pub fn polls(&self) -> u64 {
        self.core.borrow().polls
    }

    /// Draws a uniformly random `u64` from the seeded stream.
    pub fn rand_u64(&self) -> u64 {
        self.core.borrow_mut().rng.random()
    }

    /// Runs `f` with mutable access to the seeded RNG.
    pub fn with_rng<T>(&self, f: impl FnOnce(&mut SmallRng) -> T) -> T {
        f(&mut self.core.borrow_mut().rng)
    }

    /// Spawns a task and returns a handle that resolves to its output.
    ///
    /// The task takes a free slot of the task table (the table grows by
    /// one if there is none), starts on the ready queue and is polled
    /// during the next executor iteration; spawning never polls inline,
    /// which keeps re-entrancy away from callers holding borrows.
    pub fn spawn<T: 'static>(&self, fut: impl Future<Output = T> + 'static) -> JoinHandle<T> {
        let slot: Rc<JoinSlot<T>> = Rc::new(JoinSlot {
            value: RefCell::new(None),
            joiner: WakerSlot::default(),
        });
        let slot2 = slot.clone();
        self.spawn_detached(Box::pin(async move {
            let value = fut.await;
            *slot2.value.borrow_mut() = Some(value);
            slot2.joiner.wake();
        }));
        JoinHandle { slot }
    }

    /// Spawns an already boxed task nobody joins: `fut` goes into the task
    /// table as it is, so nothing is allocated here but the table's and
    /// the woken queue's amortised growth (a task's waker is its id).
    /// Scheduling is the same as [`Sim::spawn`]'s.
    pub fn spawn_detached(&self, fut: LocalBoxFuture<()>) {
        let id = {
            let mut core = self.core.borrow_mut();
            core.spawned += 1;
            let index = match core.free_slots.pop() {
                Some(index) => index,
                None => {
                    let index = core.tasks.len() as u32;
                    assert!(index as TaskId <= INDEX_MASK, "fewer than 2^24 tasks");
                    core.tasks.push(Slot {
                        generation: 0,
                        task: None,
                    });
                    index
                }
            };
            let slot = &mut core.tasks[index as usize];
            slot.task = Some(fut);
            let generation = slot.generation as TaskId;
            core.key | generation << INDEX_BITS | index as TaskId
        };
        self.woken.queue.borrow_mut().push_back(id);
    }

    /// Schedules `waker` to be woken at virtual instant `at`. Pass the
    /// returned id to [`Sim::cancel_timer`] once the wake is not wanted.
    pub fn schedule_wake(&self, at: SimTime, waker: Waker) -> TimerId {
        let action = TimerAction::Wake(waker);
        self.core.borrow_mut().timers.schedule(at, action)
    }

    /// Removes a timer that has not fired yet, so that it neither wakes its
    /// task nor counts as pending. A no-op for one that has.
    pub fn cancel_timer(&self, id: TimerId) {
        // The waker is dropped after the borrow ends.
        let _cancelled = self.core.borrow_mut().timers.cancel(id);
    }

    /// Schedules `f` to run on the executor thread at virtual instant `at`.
    ///
    /// This is how the network model delivers messages: the callback runs
    /// between task polls, so it may freely borrow shared state.
    pub fn schedule_call(&self, at: SimTime, f: impl FnOnce() + 'static) {
        let action = TimerAction::Call(Box::new(f));
        self.core.borrow_mut().timers.schedule(at, action);
    }

    /// Returns a future that completes after virtual duration `d`.
    pub fn sleep(&self, d: Duration) -> Sleep {
        self.sleep_until(self.now() + d)
    }

    /// Returns a future that completes at virtual instant `deadline`.
    pub fn sleep_until(&self, deadline: SimTime) -> Sleep {
        Sleep {
            sim: self.clone(),
            deadline,
            timer: None,
        }
    }

    /// Polls every runnable task, advancing time as needed, until the
    /// simulation is quiescent (no runnable tasks and no pending timers).
    pub fn run(&self) {
        loop {
            self.drain_ready();
            let fired = self.advance_to_next_timer();
            if !fired && self.woken.queue.borrow().is_empty() {
                break;
            }
        }
    }

    /// Runs the simulation until `handle`'s task has completed and returns
    /// its output.
    ///
    /// # Panics
    ///
    /// Panics if the simulation goes quiescent (deadlocks) before the task
    /// finishes — in a deterministic simulation that always indicates a
    /// bug, so failing loudly beats hanging.
    pub fn run_until<T>(&self, handle: JoinHandle<T>) -> T {
        loop {
            if let Some(v) = handle.try_take() {
                return v;
            }
            self.drain_ready();
            if let Some(v) = handle.try_take() {
                return v;
            }
            let fired = self.advance_to_next_timer();
            if !fired && self.woken.queue.borrow().is_empty() {
                panic!(
                    "simulation deadlocked at {} waiting for run_until task",
                    self.now()
                );
            }
        }
    }

    /// Spawns `fut` and runs the simulation until it completes.
    pub fn block_on<T: 'static>(&self, fut: impl Future<Output = T> + 'static) -> T {
        let handle = self.spawn(fut);
        self.run_until(handle)
    }

    /// Ends the simulation: drops every task and every pending timer, and
    /// with them the handles they hold — tasks and timer callbacks are
    /// what keep a simulated cluster alive. Nothing is polled and no timer
    /// fires. Dropping a parked task runs its destructors, which may fire
    /// events, schedule timers or spawn, so this repeats until both are
    /// empty. Task generations and the timer count carry on: a stale
    /// [`TaskId`] or [`TimerId`] never reaches a later occupant. Call it
    /// from outside the executor, not from a task.
    pub fn shutdown(&self) {
        loop {
            let mut core = self.core.borrow_mut();
            // Every slot ends up free, under a generation no id names.
            let mut tasks = Vec::new();
            for slot in &mut core.tasks {
                slot.generation = (slot.generation + 1) & GENERATION_MASK;
                tasks.extend(slot.task.take());
            }
            core.free_slots = (0..core.tasks.len() as u32).rev().collect();
            let timers = std::mem::take(&mut core.timers);
            core.timers.scheduled = timers.scheduled;
            // The destructors run at the end of this round, outside the
            // core borrow.
            drop(core);
            if tasks.is_empty() && timers.len() == 0 {
                break;
            }
        }
    }

    /// Runs the simulation until virtual time reaches `deadline`, then
    /// returns (remaining tasks stay parked).
    pub fn run_until_time(&self, deadline: SimTime) {
        loop {
            self.drain_ready();
            let next = self.next_timer_at();
            match next {
                Some(at) if at <= deadline => {
                    self.advance_to_next_timer();
                }
                _ => {
                    if self.woken.queue.borrow().is_empty() {
                        // Nothing left to do before the deadline.
                        self.core.borrow_mut().now = deadline.max(self.now());
                        return;
                    }
                }
            }
        }
    }

    fn next_timer_at(&self) -> Option<SimTime> {
        self.core.borrow_mut().timers.next_at()
    }

    /// Polls tasks from the woken queue until it is empty.
    fn drain_ready(&self) {
        loop {
            let id = self.woken.queue.borrow_mut().pop_front();
            let Some(id) = id else { break };
            let index = (id & INDEX_MASK) as usize;
            let generation = (id >> INDEX_BITS) as u32 & GENERATION_MASK;
            // Take the task out of its slot so the poll can spawn/schedule
            // without re-borrowing the core.
            let taken = {
                let mut core = self.core.borrow_mut();
                let task = match core.tasks.get_mut(index) {
                    Some(slot) if slot.generation == generation => slot.task.take(),
                    _ => None,
                };
                core.polls += task.is_some() as u64;
                task
            };
            let Some(mut fut) = taken else {
                continue; // Already finished; stale wake.
            };
            // Every poll of a task sees the same waker, so futures can
            // deduplicate registrations with `Waker::will_wake`.
            let waker = task_waker(id);
            let done = fut
                .as_mut()
                .poll(&mut Context::from_waker(&waker))
                .is_ready();
            let mut core = self.core.borrow_mut();
            if done {
                let slot = &mut core.tasks[index];
                slot.generation = (slot.generation + 1) & GENERATION_MASK;
                core.free_slots.push(index as u32);
                // Dropping the future may cancel timers: end the borrow first.
                drop(core);
                drop(fut);
            } else {
                core.tasks[index].task = Some(fut);
            }
        }
    }

    /// Advances the clock to the earliest timer and fires every timer due
    /// at that instant. Returns `false` if there were no timers.
    fn advance_to_next_timer(&self) -> bool {
        // Collect the whole instant before firing any of it: what an
        // action schedules for this same instant fires in the next round,
        // after the tasks woken by this one have run.
        let mut due = {
            let mut core = self.core.borrow_mut();
            let mut due = std::mem::take(&mut core.due);
            let Some(at) = core.timers.pop_instant(&mut due) else {
                return false;
            };
            debug_assert!(at >= core.now, "timer scheduled in the past");
            core.now = core.now.max(at);
            due
        };
        for action in due.drain(..) {
            match action {
                TimerAction::Wake(w) => w.wake(),
                TimerAction::Call(f) => f(),
            }
        }
        self.core.borrow_mut().due = due;
        true
    }
}

/// Where the one task that waits on a queue parks — the whole of a
/// *queue wait*. The consumer's poll reads the queue's state and, finding
/// nothing to take, [`park`](WakerSlot::park)s; every producer
/// [`wake`](WakerSlot::wake)s after changing that state. The future
/// itself is a [`std::future::poll_fn`] over the queue:
///
/// ```
/// use std::cell::RefCell;
/// use std::collections::VecDeque;
/// use std::rc::Rc;
/// use std::task::Poll;
///
/// use simkit::{Sim, WakerSlot};
///
/// let sim = Sim::new(0);
/// let queue = Rc::new((RefCell::new(VecDeque::new()), WakerSlot::default()));
/// let q = queue.clone();
/// let popped = sim.spawn(std::future::poll_fn(move |cx| match q.0.borrow_mut().pop_front() {
///     Some(item) => Poll::Ready(item),
///     None => {
///         q.1.park(cx);
///         Poll::Pending
///     }
/// }));
/// sim.run();
/// queue.0.borrow_mut().push_back(7);
/// queue.1.wake();
/// assert_eq!(sim.run_until(popped), 7);
/// ```
///
/// These waits are not events: nothing is traced, which is what keeps the
/// framework's own plumbing (connection pumps, the WAL flusher, proposal
/// intake) out of the traces of the protocols built on it.
#[derive(Default)]
pub struct WakerSlot(Cell<Option<Waker>>);

impl WakerSlot {
    /// Parks the polling task here until the next [`wake`](Self::wake),
    /// replacing whoever was parked before (a queue has one consumer; its
    /// re-polls re-park it).
    pub fn park(&self, cx: &Context<'_>) {
        self.0.set(Some(cx.waker().clone()));
    }

    /// Wakes the parked task, if there is one. With nobody parked the wake
    /// is dropped: the consumer's next poll reads the queue, not the wake.
    pub fn wake(&self) {
        if let Some(w) = self.0.take() {
            w.wake();
        }
    }
}

struct JoinSlot<T> {
    value: RefCell<Option<T>>,
    joiner: WakerSlot,
}

/// Handle to a spawned task's eventual output.
///
/// Await it inside the simulation, or use [`Sim::run_until`] from outside.
pub struct JoinHandle<T> {
    slot: Rc<JoinSlot<T>>,
}

impl<T> JoinHandle<T> {
    /// Takes the output if the task has finished.
    pub fn try_take(&self) -> Option<T> {
        self.slot.value.borrow_mut().take()
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        if let Some(v) = self.slot.value.borrow_mut().take() {
            Poll::Ready(v)
        } else {
            self.slot.joiner.park(cx);
            Poll::Pending
        }
    }
}

/// Future returned by [`Sim::sleep`] / [`Sim::sleep_until`].
///
/// Dropped before its deadline, it takes its timer with it.
pub struct Sleep {
    sim: Sim,
    deadline: SimTime,
    /// The wake-up, once armed.
    timer: Option<TimerId>,
}

impl Sleep {
    /// The virtual instant this sleep completes at.
    pub fn deadline(&self) -> SimTime {
        self.deadline
    }
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.sim.now() >= self.deadline {
            Poll::Ready(())
        } else {
            // Arm the wake-up once; re-polls (spurious wakes) must not
            // multiply timers.
            if self.timer.is_none() {
                self.timer = Some(self.sim.schedule_wake(self.deadline, cx.waker().clone()));
            }
            Poll::Pending
        }
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        if let Some(id) = self.timer.take() {
            self.sim.cancel_timer(id);
        }
    }
}

/// Cooperatively yields once, letting other ready tasks run first.
pub fn yield_now() -> YieldNow {
    YieldNow { polled: false }
}

/// Future returned by [`yield_now`].
pub struct YieldNow {
    polled: bool,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.polled {
            Poll::Ready(())
        } else {
            self.polled = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::sync::Arc;

    #[test]
    fn block_on_returns_value() {
        let sim = Sim::new(1);
        assert_eq!(sim.block_on(async { 7 }), 7);
    }

    #[test]
    fn sleep_advances_virtual_time_only() {
        let sim = Sim::new(1);
        let s = sim.clone();
        let wall = std::time::Instant::now();
        sim.block_on(async move {
            s.sleep(Duration::from_secs(3600)).await;
        });
        assert_eq!(sim.now(), SimTime::from_secs(3600));
        assert!(wall.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn tasks_interleave_deterministically() {
        let run = |seed| {
            let sim = Sim::new(seed);
            let order = Rc::new(RefCell::new(Vec::new()));
            for i in 0..5u32 {
                let s = sim.clone();
                let o = order.clone();
                sim.spawn(async move {
                    s.sleep(Duration::from_millis((5 - i) as u64)).await;
                    o.borrow_mut().push(i);
                });
            }
            sim.run();
            let out = order.borrow().clone();
            out
        };
        let a = run(9);
        let b = run(9);
        assert_eq!(a, b);
        assert_eq!(a, vec![4, 3, 2, 1, 0]);
    }

    #[test]
    fn timers_at_same_instant_fire_in_schedule_order() {
        let sim = Sim::new(1);
        let hits = Rc::new(RefCell::new(Vec::new()));
        for i in 0..3 {
            let h = hits.clone();
            sim.schedule_call(SimTime::from_millis(1), move || h.borrow_mut().push(i));
        }
        sim.run();
        assert_eq!(*hits.borrow(), vec![0, 1, 2]);
    }

    #[test]
    fn join_handle_awaitable_from_task() {
        let sim = Sim::new(1);
        let s = sim.clone();
        let out = sim.block_on(async move {
            let inner = s.spawn(async { 41 });
            inner.await + 1
        });
        assert_eq!(out, 42);
    }

    #[test]
    #[should_panic(expected = "deadlocked")]
    fn run_until_detects_deadlock() {
        let sim = Sim::new(1);
        sim.block_on(std::future::pending::<()>());
    }

    #[test]
    fn run_until_time_parks_remaining_work() {
        let sim = Sim::new(1);
        let fired = Rc::new(Cell::new(false));
        let f = fired.clone();
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(Duration::from_secs(10)).await;
            f.set(true);
        });
        sim.run_until_time(SimTime::from_secs(5));
        assert!(!fired.get());
        assert_eq!(sim.now(), SimTime::from_secs(5));
        sim.run_until_time(SimTime::from_secs(20));
        assert!(fired.get());
    }

    /// A waker that counts its wakes, for timers no task owns.
    struct CountingWaker(std::sync::atomic::AtomicU64);

    impl std::task::Wake for CountingWaker {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    #[test]
    fn cancelled_timer_never_fires_and_never_wakes() {
        let sim = Sim::new(1);
        let wakes = Arc::new(CountingWaker(Default::default()));
        let kept = sim.schedule_wake(SimTime::from_millis(1), Waker::from(wakes.clone()));
        let cancelled = sim.schedule_wake(SimTime::from_millis(2), Waker::from(wakes.clone()));
        assert_eq!(sim.pending_timers(), 2);
        sim.cancel_timer(cancelled);
        assert_eq!(sim.pending_timers(), 1);
        sim.run();
        assert_eq!(wakes.0.load(std::sync::atomic::Ordering::Relaxed), 1);
        // The clock stops at the last timer that was still wanted.
        assert_eq!(sim.now(), SimTime::from_millis(1));
        // Cancelling a timer that has fired, or twice, changes nothing.
        sim.cancel_timer(kept);
        sim.cancel_timer(cancelled);
        assert_eq!(sim.pending_timers(), 0);
        assert_eq!(sim.timers_scheduled(), 2);
    }

    #[test]
    fn sleeps_dropped_early_leave_no_timers_and_no_polls() {
        let sim = Sim::new(1);
        let s = sim.clone();
        sim.block_on(async move {
            for _ in 0..10_000 {
                // Poll once, which arms the timer, then give up on it.
                let mut sleep = s.sleep(Duration::from_secs(5));
                std::future::poll_fn(|cx| {
                    assert!(Pin::new(&mut sleep).poll(cx).is_pending());
                    Poll::Ready(())
                })
                .await;
                assert_eq!(s.pending_timers(), 1);
            }
            s.sleep(Duration::from_millis(1)).await;
        });
        assert_eq!(sim.timers_scheduled(), 10_001);
        assert_eq!(sim.pending_timers(), 0);
        sim.run();
        // Nothing was left to advance the clock or to wake the task.
        assert_eq!(sim.now(), SimTime::from_millis(1));
        assert_eq!(sim.polls(), 2);
    }

    #[test]
    fn a_push_wakes_exactly_one_parked_poll() {
        let sim = Sim::new(1);
        let queue = Rc::new((RefCell::new(VecDeque::new()), WakerSlot::default()));
        let push = |item: u32| {
            queue.0.borrow_mut().push_back(item);
            queue.1.wake();
        };
        let got = Rc::new(RefCell::new(Vec::new()));
        let (q, g) = (queue.clone(), got.clone());
        sim.spawn(async move {
            loop {
                let item = std::future::poll_fn(|cx| match q.0.borrow_mut().pop_front() {
                    Some(item) => Poll::Ready(item),
                    None => {
                        q.1.park(cx);
                        Poll::Pending
                    }
                })
                .await;
                g.borrow_mut().push(item);
            }
        });
        sim.run();
        let parked = sim.polls();
        // One push: one wake, one poll — which takes the item and, finding
        // the queue empty again, parks in the same poll.
        push(1);
        sim.run();
        assert_eq!((sim.polls() - parked, got.borrow().len()), (1, 1));
        // Two pushes before the consumer runs: the second finds nobody
        // parked, so there is still one wake and one poll for both items.
        push(2);
        push(3);
        sim.run();
        assert_eq!((sim.polls() - parked, got.borrow().len()), (2, 3));
        // A wake with nothing pushed is a poll that parks again.
        queue.1.wake();
        queue.1.wake();
        sim.run();
        assert_eq!((sim.polls() - parked, got.borrow().len()), (3, 3));
    }

    #[test]
    fn stale_waker_does_not_poll_the_slots_next_occupant() {
        let sim = Sim::new(1);
        let stale: Rc<RefCell<Option<Waker>>> = Rc::default();
        let keep = stale.clone();
        sim.spawn(std::future::poll_fn(move |cx| {
            *keep.borrow_mut() = Some(cx.waker().clone());
            Poll::Ready(())
        }));
        sim.run();
        // The next task takes over the finished one's slot.
        let polls = Rc::new(Cell::new(0));
        let p = polls.clone();
        sim.spawn(std::future::poll_fn(move |_| {
            p.set(p.get() + 1);
            Poll::<()>::Pending
        }));
        sim.run();
        assert_eq!(polls.get(), 1);
        let executor_polls = sim.polls();
        stale.borrow_mut().take().expect("first task ran").wake();
        sim.run();
        assert_eq!(
            polls.get(),
            1,
            "a finished task's waker reached its successor"
        );
        assert_eq!(sim.polls(), executor_polls);
    }

    /// Spawns a task that never finishes; each poll counts itself and
    /// keeps a clone of its waker.
    fn parked(sim: &Sim) -> (Rc<RefCell<Option<Waker>>>, Rc<Cell<u32>>) {
        let (waker, polls) = (
            Rc::<RefCell<Option<Waker>>>::default(),
            Rc::new(Cell::new(0)),
        );
        let (w, p) = (waker.clone(), polls.clone());
        sim.spawn(std::future::poll_fn(move |cx| {
            p.set(p.get() + 1);
            *w.borrow_mut() = Some(cx.waker().clone());
            Poll::<()>::Pending
        }));
        sim.run();
        (waker, polls)
    }

    #[test]
    fn a_tasks_wakers_will_wake_each_other_and_no_other_tasks() {
        let sim = Sim::new(1);
        let (first, _) = parked(&sim);
        let (second, _) = parked(&sim);
        let kept = first.borrow().clone().expect("polled");
        kept.wake_by_ref();
        sim.run();
        let first = first.borrow().clone().expect("polled");
        // A clone, and the waker of a later poll: `register_waker`'s dedup
        // sees one task.
        assert!(first.will_wake(&kept) && first.clone().will_wake(&first));
        assert!(!first.will_wake(second.borrow().as_ref().expect("polled")));
    }

    #[test]
    fn two_sims_on_one_thread_each_wake_only_their_own_tasks() {
        let (a, b) = (Sim::new(1), Sim::new(1));
        // Both tasks sit in slot 0 under generation 0: only the key differs.
        let (wake_a, polls_a) = parked(&a);
        let (wake_b, polls_b) = parked(&b);
        wake_a.borrow().as_ref().expect("polled").wake_by_ref();
        b.run();
        assert_eq!((polls_a.get(), polls_b.get()), (1, 1));
        a.run();
        assert_eq!((polls_a.get(), polls_b.get()), (2, 1));
        wake_b.borrow().as_ref().expect("polled").wake_by_ref();
        a.run();
        b.run();
        assert_eq!((polls_a.get(), polls_b.get()), (2, 2));
    }

    #[test]
    fn a_waker_kept_past_its_sims_drop_wakes_nothing() {
        let alive = Sim::alive_on_this_thread();
        let sim = Sim::new(1);
        let (stale, _) = parked(&sim);
        drop(sim);
        assert_eq!(Sim::alive_on_this_thread(), alive);
        let stale = stale.borrow_mut().take().expect("polled");
        // The next executor's first task has the dropped one's slot and
        // generation.
        let next = Sim::new(1);
        let (_, polls) = parked(&next);
        stale.wake();
        next.run();
        assert_eq!((polls.get(), next.polls()), (1, 1));
    }

    #[test]
    fn a_waker_woken_on_another_thread_wakes_nothing() {
        let sim = Sim::new(1);
        let (waker, polls) = parked(&sim);
        let waker = waker.borrow_mut().take().expect("polled");
        std::thread::scope(|s| {
            s.spawn(|| {
                // That thread's own executor, task in slot 0, is not woken
                // either.
                let there = Sim::new(1);
                let (_, polls) = parked(&there);
                waker.wake_by_ref();
                there.run();
                assert_eq!(polls.get(), 1);
            });
        });
        sim.run();
        assert_eq!((polls.get(), sim.polls()), (1, 1));
        // On its own thread it still wakes its task.
        waker.wake();
        sim.run();
        assert_eq!(polls.get(), 2);
    }

    /// Spawns a task from its destructor: what a parked coroutine's
    /// guards may do when the executor drops it.
    struct SpawnOnDrop(Sim, Rc<()>);

    impl Drop for SpawnOnDrop {
        fn drop(&mut self) {
            let held = self.1.clone();
            self.0.spawn(async move {
                let _held = held;
                std::future::pending::<()>().await
            });
        }
    }

    #[test]
    fn shutdown_drops_every_task_timer_and_what_their_drops_spawn() {
        let sim = Sim::new(1);
        let (parked, call, spawned) = (Rc::new(()), Rc::new(()), Rc::new(()));
        let s = sim.clone();
        let p = parked.clone();
        sim.spawn(async move {
            let _p = p;
            s.sleep(Duration::from_secs(1)).await;
        });
        let c = call.clone();
        sim.schedule_call(SimTime::from_secs(2), move || drop(c));
        let guard = SpawnOnDrop(sim.clone(), spawned.clone());
        sim.spawn(async move {
            let _guard = guard;
            std::future::pending::<()>().await
        });
        sim.run_until_time(SimTime::from_millis(1));
        let weak = [&parked, &call, &spawned].map(Rc::downgrade);
        drop((parked, call, spawned));
        assert!(weak.iter().all(|w| w.strong_count() == 1));
        sim.shutdown();
        assert!(weak.iter().all(|w| w.strong_count() == 0));
        assert_eq!(sim.pending_timers(), 0);
        let polls = sim.polls();
        sim.run();
        assert_eq!((sim.polls(), sim.now()), (polls, SimTime::from_millis(1)));
    }

    #[test]
    fn a_stale_sleep_or_timer_id_after_shutdown_cancels_no_later_timer() {
        let sim = Sim::new(1);
        let wakes = Arc::new(CountingWaker(Default::default()));
        let stale = sim.schedule_wake(SimTime::from_millis(5), Waker::from(wakes.clone()));
        let mut sleep = sim.sleep(Duration::from_millis(5));
        let mut cx = Context::from_waker(Waker::noop());
        assert!(Pin::new(&mut sleep).poll(&mut cx).is_pending());
        sim.shutdown();
        // The later timers take the slots the stale ids name.
        for ms in [1, 2] {
            sim.schedule_wake(SimTime::from_millis(ms), Waker::from(wakes.clone()));
        }
        sim.cancel_timer(stale);
        assert!(Pin::new(&mut sleep).poll(&mut cx).is_pending());
        drop(sleep);
        assert_eq!(sim.pending_timers(), 2);
        sim.run();
        assert_eq!(wakes.0.load(std::sync::atomic::Ordering::Relaxed), 2);
    }

    #[test]
    fn rng_is_deterministic_per_seed() {
        let a: Vec<u64> = {
            let sim = Sim::new(123);
            (0..8).map(|_| sim.rand_u64()).collect()
        };
        let b: Vec<u64> = {
            let sim = Sim::new(123);
            (0..8).map(|_| sim.rand_u64()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u64> = {
            let sim = Sim::new(124);
            (0..8).map(|_| sim.rand_u64()).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn yield_now_lets_other_tasks_run() {
        let sim = Sim::new(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        let l1 = log.clone();
        sim.spawn(async move {
            l1.borrow_mut().push("a1");
            yield_now().await;
            l1.borrow_mut().push("a2");
        });
        let l2 = log.clone();
        sim.spawn(async move {
            l2.borrow_mut().push("b1");
        });
        sim.run();
        assert_eq!(*log.borrow(), vec!["a1", "b1", "a2"]);
    }
}
