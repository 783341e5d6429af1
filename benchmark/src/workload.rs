//! The four workloads and the loop that runs one repetition of one.
//!
//! Every workload is a fixed amount of work — a fixed number of client
//! operations, not a fixed virtual duration — so a change that raises
//! virtual throughput does not inflate wall time or memory. Names and
//! sizes are permanent: later commits are compared against them.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::Instant;

use crate::adapter::{self, Bed, Bytes, Counts, Gen, Lags, Op, Session, Topology, TraceSummary, C};
use crate::spans::Spans;
use crate::stats::{calibration_ns, Rng};
use crate::verify;

const SEC: u64 = 1_000_000_000;
/// Virtual warm-up before the measured part of every workload.
pub const WARMUP_NS: u64 = 2 * SEC;

/// A disk-slow fault (Table 1) on one follower.
#[derive(Debug, Clone, Copy)]
pub struct Fault {
    pub node: u32,
    pub bw_factor: f64,
    /// Virtual interval, measured from the start of load.
    pub from_ns: u64,
    pub until_ns: u64,
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    /// Why the workload exists (one line, repeated in `BENCHMARK.json`).
    pub why: &'static str,
    pub topo: Topology,
    pub records: u64,
    pub value_size: usize,
    pub read_share: f64,
    pub zipfian: bool,
    /// Write every record once, through the cluster, before load starts.
    pub preload: bool,
    /// Closed loop: operations acknowledged in the measured part.
    /// Open loop: operations offered, warm-up included.
    pub ops: u64,
    /// `Some(rate)` makes the workload open-loop: seeded Poisson arrivals
    /// at `rate` per virtual second, served by a pool of sessions.
    pub open_rate: Option<f64>,
    pub fault: Option<Fault>,
}

const THREE_NODES: Topology = Topology {
    servers: 3,
    groups: 0,
    sessions: 256,
    read_index: false,
};

/// The workloads, in reporting order.
pub const WORKLOADS: [Def; 4] = [
    Def {
        name: "steady-write",
        why: "1000 B updates at saturation: replication rounds, WAL batches and the wire codec carry 3.3 KB per op",
        topo: THREE_NODES,
        records: 50_000,
        value_size: 1000,
        read_share: 0.0,
        zipfian: false,
        preload: false,
        ops: 100_000,
        open_rate: None,
        fault: None,
    },
    Def {
        name: "read-mostly",
        why: "YCSB-B through ReadIndex: leadership confirmation instead of log append, no WAL, small replies",
        topo: Topology {
            read_index: true,
            ..THREE_NODES
        },
        records: 20_000,
        value_size: 1000,
        read_share: 0.95,
        zipfian: true,
        preload: true,
        ops: 100_000,
        open_rate: None,
        fault: None,
    },
    Def {
        name: "fail-slow-follower",
        why: "open loop at 58 % of capacity with one follower's disk at 0.8 % bandwidth for a third of the run: the paper's claim",
        topo: THREE_NODES,
        records: 50_000,
        value_size: 1000,
        read_share: 0.0,
        zipfian: false,
        preload: false,
        ops: 96_000,
        open_rate: Some(3000.0),
        fault: Some(Fault {
            node: 1,
            bw_factor: 0.008,
            from_ns: 12 * SEC,
            until_ns: 22 * SEC,
        }),
    },
    Def {
        name: "scale-out",
        why: "16 groups on 12 nodes with 100 B values: executor and timer work dominate, codec and WAL bytes do not",
        topo: Topology {
            servers: 12,
            groups: 16,
            sessions: 256,
            read_index: false,
        },
        records: 50_000,
        value_size: 100,
        read_share: 0.0,
        zipfian: false,
        preload: false,
        ops: 100_000,
        open_rate: None,
        fault: None,
    },
];

/// One client operation as the benchmark saw it.
#[derive(Debug, Clone)]
pub struct OpRec {
    pub session: u32,
    pub read: bool,
    pub key: Bytes,
    /// First 16 bytes of the value written, or of the value a get
    /// returned (`None`: the key was absent). Values are random, so this
    /// identifies the write.
    pub value: Option<u128>,
    /// When the operation was due (open loop) or invoked (closed loop).
    pub due_ns: u64,
    pub invoke_ns: u64,
    pub done_ns: u64,
    pub ok: bool,
    pub attempts: u32,
    /// Completed inside the measured part (not warm-up, preload or drain).
    pub measured: bool,
}

/// Which of the repository's instruments a repetition runs under.
#[derive(Debug, Clone, Copy, Default)]
pub struct Instruments {
    /// Full trace recording; also writes one `op` span per operation.
    pub trace: bool,
    pub profile: bool,
}

/// Everything one repetition produced.
pub struct Rep {
    pub setup_s: f64,
    /// What the calibration loop took, just before the set-up.
    pub calib_ns: u64,
    /// Host nanoseconds of each virtual second of the measured part (the
    /// last ends with the measured part).
    pub slice_wall_ns: Vec<u64>,
    /// Virtual bounds of the measured part.
    pub t0_ns: u64,
    pub t_end_ns: u64,
    /// Virtual instants that split the measured part into the healthy,
    /// fault and recovery windows.
    pub window_cuts_ns: [u64; 2],
    pub ops: Vec<OpRec>,
    /// Counter growth over the measured part.
    pub counts: Counts,
    pub lags: Lags,
    /// `(virtual ns, entries)` follower-lag samples, every 100 ms.
    pub lag_samples: Vec<(u64, u64)>,
    /// When the fault cleared (virtual ns), if the workload has one.
    pub fault_clear_ns: Option<u64>,
    pub backlog_max: u64,
    pub verify_failures: u64,
    pub first_failure: Option<String>,
    pub trace: Option<TraceSummary>,
    pub profile: Option<Vec<(String, u64)>>,
}

impl Rep {
    /// Host seconds the measured part took.
    pub fn measure_wall_s(&self) -> f64 {
        self.slice_wall_ns.iter().sum::<u64>() as f64 / 1e9
    }
}

struct Shared {
    ops: Vec<OpRec>,
    measuring: bool,
    /// Closed loop: acknowledgements that end the measured part.
    target: u64,
    acked: u64,
    stop: bool,
    t_end_ns: u64,
    wall_end: Option<Instant>,
    counts_end: Option<Counts>,
    /// Sessions still inside an operation or a loop.
    busy: usize,
    // Open loop only.
    free: VecDeque<usize>,
    backlog: VecDeque<(u64, Op)>,
    backlog_max: u64,
    arrivals_done: bool,
    /// Follower lag is sampled until the drain ends, so that a catch-up
    /// that outlasts the load is still timed.
    sampling: bool,
    lag_samples: Vec<(u64, u64)>,
}

/// What identifies a value: its first 16 bytes (values are random).
pub fn fingerprint(value: &Bytes) -> u128 {
    let mut b = [0u8; 16];
    let n = value.len().min(16);
    b[..n].copy_from_slice(&value[..n]);
    u128::from_le_bytes(b)
}

/// Performs `op` on `session` and records it.
async fn perform(
    bed: &Bed,
    session: &Session,
    idx: usize,
    op: Op,
    due_ns: u64,
    shared: &Rc<RefCell<Shared>>,
) {
    let invoke_ns = bed.now_ns();
    let sent = session.sent();
    let (ok, value) = if op.read {
        match session.get(op.key.clone()).await {
            Ok(v) => (true, v.as_ref().map(fingerprint)),
            Err(()) => (false, None),
        }
    } else {
        let fp = fingerprint(&op.value);
        (session.put(op.key.clone(), op.value).await, Some(fp))
    };
    let done_ns = bed.now_ns();
    let mut sh = shared.borrow_mut();
    let measured = sh.measuring && !sh.stop;
    sh.ops.push(OpRec {
        session: idx as u32,
        read: op.read,
        key: op.key,
        value,
        due_ns,
        invoke_ns,
        done_ns,
        ok,
        attempts: (session.sent() - sent) as u32,
        measured,
    });
    if measured && ok {
        sh.acked += 1;
        if sh.acked == sh.target {
            end_measured(bed, &mut sh);
        }
    }
}

fn end_measured(bed: &Bed, sh: &mut Shared) {
    sh.stop = true;
    sh.t_end_ns = bed.now_ns();
    sh.wall_end = Some(Instant::now());
    sh.counts_end = Some(bed.counts());
}

/// Closed loop: every session issues its next operation as soon as the
/// previous one returns.
fn start_closed(bed: &Bed, def: &Def, seed: u64, shared: &Rc<RefCell<Shared>>) {
    for i in 0..def.topo.sessions {
        let (bed2, shared) = (bed.clone(), shared.clone());
        let session = bed.session(i);
        let mut gen = Gen::new(
            def.records,
            def.value_size,
            def.read_share,
            def.zipfian,
            seed.wrapping_add(i as u64 * 7919),
        );
        shared.borrow_mut().busy += 1;
        bed.spawn_on_session(i, async move {
            while !shared.borrow().stop {
                let op = gen.next_op();
                let due = bed2.now_ns();
                perform(&bed2, &session, i, op, due, &shared).await;
            }
            shared.borrow_mut().busy -= 1;
        });
    }
}

/// Runs queued operations on session `idx` until the backlog is empty,
/// then returns the session to the pool.
fn serve(bed: &Bed, idx: usize, first: (u64, Op), shared: &Rc<RefCell<Shared>>) {
    let (bed2, shared) = (bed.clone(), shared.clone());
    let session = bed.session(idx);
    bed.spawn_on_session(idx, async move {
        let mut next = Some(first);
        while let Some((due, op)) = next {
            perform(&bed2, &session, idx, op, due, &shared).await;
            next = shared.borrow_mut().backlog.pop_front();
        }
        let mut sh = shared.borrow_mut();
        sh.free.push_back(idx);
        sh.busy -= 1;
        if sh.arrivals_done && sh.busy == 0 {
            end_measured(&bed2, &mut sh);
        }
    });
}

/// Open loop: operations arrive on a seeded Poisson schedule whatever
/// the system does, and wait in a backlog when every session is busy.
fn start_open(bed: &Bed, def: &Def, rate: f64, ops: u64, seed: u64, shared: &Rc<RefCell<Shared>>) {
    let mut rng = Rng::new(seed ^ 0xa11_1ba1);
    let t_load = bed.now_ns();
    let mut t = t_load as f64;
    let arrivals: Vec<u64> = (0..ops)
        .map(|_| {
            t += -rng.unit().ln() / rate * 1e9;
            t as u64
        })
        .collect();
    let mut gen = Gen::new(
        def.records,
        def.value_size,
        def.read_share,
        def.zipfian,
        seed,
    );
    shared.borrow_mut().free = (0..def.topo.sessions).collect();
    let (bed2, shared) = (bed.clone(), shared.clone());
    bed.spawn_task(async move {
        for due in arrivals {
            bed2.sleep_until_ns(due).await;
            let item = (due, gen.next_op());
            let idle = shared.borrow_mut().free.pop_front();
            match idle {
                Some(idx) => {
                    shared.borrow_mut().busy += 1;
                    serve(&bed2, idx, item, &shared);
                }
                None => {
                    let mut sh = shared.borrow_mut();
                    sh.backlog.push_back(item);
                    sh.backlog_max = sh.backlog_max.max(sh.backlog.len() as u64);
                }
            }
        }
        shared.borrow_mut().arrivals_done = true;
    });
}

fn run_sliced(bed: &Bed, step_ns: u64, done: impl Fn() -> bool) {
    while !done() {
        bed.run_until_ns(bed.now_ns() + step_ns);
    }
}

/// Writes every record once through the cluster, all sessions in
/// parallel.
fn preload(bed: &Bed, def: &Def, seed: u64, shared: &Rc<RefCell<Shared>>) {
    let sessions = def.topo.sessions as u64;
    for i in 0..sessions {
        let (bed2, shared) = (bed.clone(), shared.clone());
        let session = bed.session(i as usize);
        let mut rng = Rng::new(seed ^ (0x9e10ad << 8) ^ i);
        let (records, value_size) = (def.records, def.value_size);
        shared.borrow_mut().busy += 1;
        bed.spawn_on_session(i as usize, async move {
            for k in (i..records).step_by(sessions as usize) {
                let op = Op {
                    read: false,
                    key: adapter::record_key(k),
                    value: Bytes::from(rng.bytes(value_size)),
                };
                let due = bed2.now_ns();
                perform(&bed2, &session, i as usize, op, due, &shared).await;
            }
            shared.borrow_mut().busy -= 1;
        });
    }
    run_sliced(bed, SEC / 10, || shared.borrow().busy == 0);
}

/// Runs one repetition of `def` at `1/shrink` of its size on a fresh
/// simulator, records its spans, and checks its outputs.
pub fn run_rep(def: &Def, seed: u64, shrink: u64, instr: Instruments, spans: &mut Spans) -> Rep {
    let rep_span = spans.open("rep", None);
    let s = spans.open("calibrate", Some(rep_span));
    let calib_ns = calibration_ns();
    spans.close(s);
    let ops = def.ops / shrink;
    // Times after the warm-up shrink with the work.
    let scale = |t_ns: u64| WARMUP_NS + (t_ns.saturating_sub(WARMUP_NS)) / shrink;

    let setup = spans.open("setup", Some(rep_span));
    let s = spans.open("setup.world", Some(setup));
    let bare = adapter::world(seed, &def.topo);
    spans.close(s);
    let s = spans.open("setup.cluster", Some(setup));
    let bed = bare.cluster(&def.topo);
    spans.close(s);
    if instr.trace {
        bed.trace_on();
    }
    let profile = instr.profile.then(|| bed.profile_on());

    let shared = Rc::new(RefCell::new(Shared {
        ops: Vec::with_capacity(ops as usize + 1024),
        measuring: false,
        // An open loop ends when its last arrival has been served.
        target: if def.open_rate.is_some() {
            u64::MAX
        } else {
            ops
        },
        acked: 0,
        stop: false,
        t_end_ns: 0,
        wall_end: None,
        counts_end: None,
        busy: 0,
        free: VecDeque::new(),
        backlog: VecDeque::new(),
        backlog_max: 0,
        arrivals_done: false,
        sampling: true,
        lag_samples: Vec::new(),
    }));

    let s = spans.open("setup.preload", Some(setup));
    if def.preload {
        preload(&bed, def, seed, &shared);
    }
    spans.close(s);

    let t_load = bed.now_ns();
    let fault = def.fault.map(|f| Fault {
        from_ns: scale(f.from_ns),
        until_ns: scale(f.until_ns),
        ..f
    });
    if let Some(f) = fault {
        bed.disk_slow(f.node, f.bw_factor, f.from_ns, f.until_ns);
    }
    {
        let (bed2, shared) = (bed.clone(), shared.clone());
        bed.spawn_task(async move {
            loop {
                bed2.sleep_until_ns(bed2.now_ns() + SEC / 10).await;
                let mut sh = shared.borrow_mut();
                if !sh.sampling {
                    break;
                }
                let sample = (bed2.now_ns(), bed2.follower_lag_entries());
                sh.lag_samples.push(sample);
            }
        });
    }
    match def.open_rate {
        None => start_closed(&bed, def, seed, &shared),
        Some(rate) => start_open(&bed, def, rate, ops, seed, &shared),
    }
    let s = spans.open("warmup", Some(setup));
    bed.run_until_ns(t_load + WARMUP_NS);
    spans.close(s);
    spans.close(setup);
    let setup_s = spans.seconds(setup);

    let t0_ns = bed.now_ns();
    let counts0 = bed.counts();
    shared.borrow_mut().measuring = true;
    let measure = spans.open("measure", Some(rep_span));
    let mut slice_wall_ns = Vec::new();
    while !shared.borrow().stop {
        let s = spans.open("slice", Some(measure));
        let before = bed.counts();
        let wall = Instant::now();
        bed.run_until_ns(bed.now_ns() + SEC);
        let end = shared.borrow().wall_end.unwrap_or_else(Instant::now);
        slice_wall_ns.push((end - wall).as_nanos() as u64);
        let d = bed.counts().since(&before);
        spans.close_with(
            s,
            vec![
                ("virtual_end_ns", bed.now_ns() as f64),
                ("polls", d.get(C::Polls) as f64),
                ("timers", d.get(C::Timers) as f64),
                ("tasks", d.get(C::Tasks) as f64),
                ("net_msgs", d.get(C::NetMsgs) as f64),
                ("net_bytes", d.get(C::NetBytes) as f64),
            ],
        );
    }
    spans.close(measure);
    let (t_end_ns, counts) = {
        let sh = shared.borrow();
        (
            sh.t_end_ns,
            sh.counts_end
                .expect("stop reads the counters")
                .since(&counts0),
        )
    };

    // Let operations in flight return and followers apply what they
    // hold, so that replicas can be compared. A follower that was
    // quarantined catches up only once the load is gone; a replica still
    // behind after 300 virtual seconds fails verification.
    let s = spans.open("drain", Some(rep_span));
    run_sliced(&bed, SEC / 10, || shared.borrow().busy == 0);
    let deadline = bed.now_ns() + 300 * SEC;
    run_sliced(&bed, SEC / 10, || {
        verify::replicas_agree(&bed) || bed.now_ns() >= deadline
    });
    shared.borrow_mut().sampling = false;
    spans.close(s);

    let lags = bed.lags();
    let (ops_done, lag_samples, backlog_max) = {
        let mut sh = shared.borrow_mut();
        (
            std::mem::take(&mut sh.ops),
            std::mem::take(&mut sh.lag_samples),
            sh.backlog_max,
        )
    };

    let s = spans.open("verify", Some(rep_span));
    let verdict = verify::check(&bed, &ops_done, def.read_share > 0.0);
    spans.close(s);

    let s = spans.open("analyze", Some(rep_span));
    let trace = instr.trace.then(|| bed.trace_summary());
    let profile = profile.map(|p| bed.profile_summary(p));
    spans.close(s);
    spans.close(rep_span);

    if instr.trace {
        for op in &ops_done {
            spans.push_virtual(
                "op",
                Some(rep_span),
                op.due_ns,
                op.done_ns,
                vec![
                    ("session", op.session as f64),
                    ("attempts", op.attempts as f64),
                    ("read", op.read as u8 as f64),
                    ("ok", op.ok as u8 as f64),
                ],
            );
        }
    }

    // Windows: the fault's interval where there is one, otherwise thirds
    // of the measured part.
    let window_cuts_ns = match fault {
        Some(f) => [t_load + f.from_ns, t_load + f.until_ns],
        None => {
            let third = (t_end_ns - t0_ns) / 3;
            [t0_ns + third, t0_ns + 2 * third]
        }
    };
    Rep {
        setup_s,
        calib_ns,
        slice_wall_ns,
        t0_ns,
        t_end_ns,
        window_cuts_ns,
        ops: ops_done,
        counts,
        lags,
        lag_samples,
        fault_clear_ns: fault.map(|f| t_load + f.until_ns),
        backlog_max,
        verify_failures: verdict.failures,
        first_failure: verdict.first,
        trace,
        profile,
    }
}
