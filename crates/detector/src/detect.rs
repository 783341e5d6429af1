//! The trace-point-based fail-slow detector.
//!
//! Every RPC event fire records a callee-scoped `rpc.latency` histogram
//! into the shared metric registry (see [`depfast::Tracer::sample_rpc`]);
//! the detector polls the registry every [`POLL`], turns the cumulative
//! histograms into per-window means by snapshot differencing, and judges
//! each (callee, label) window against a list of references — its own slow
//! EWMA baseline and, in [`DetectorMode::PeerWithFallback`], the median of
//! its peers. A window mean over `FACTOR` × a reference (and an absolute
//! floor, to ignore micro-noise) raises a [`Suspicion`]; dropping back
//! under `CLEAR_FACTOR` × every reference retires it.
//!
//! The law is [`Judge`], a pure state machine: a function of the virtual
//! time and the poll's windows, returning [`Verdict`]s. [`FailSlowDetector`]
//! is the shell that differences the registry, records the verdicts on the
//! health timeline, counts them and runs the hooks.
//!
//! Baselines freeze while a node is suspected, so a long-lived fail-slow
//! fault cannot talk the detector out of its own detection.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::rc::{Rc, Weak};
use std::time::Duration;

use depfast::{Health, Tracer};
use depfast_metrics::Key;
use simkit::{NodeId, Sim, SimTime};

/// Aggregate-polling period.
pub const POLL: Duration = Duration::from_millis(200);
/// Windows needed to establish a baseline before judging.
const WARMUP_WINDOWS: u32 = 5;
/// Suspect when `window_mean > FACTOR × reference` ...
const FACTOR: f64 = 3.0;
/// ... and `window_mean > FLOOR` (absolute guard).
const FLOOR: Duration = Duration::from_millis(2);
/// Clear when `window_mean < CLEAR_FACTOR × reference`.
const CLEAR_FACTOR: f64 = 1.5;
/// Baseline EWMA weight per window.
const ALPHA: f64 = 0.2;
/// Minimum completions in a window for it to be judged. Not 10: a
/// SyncRaft leader coupled to a 125×-slow disk completes so few appends
/// per window that 10 starves the detector and the fault goes entirely
/// unnoticed — which is itself the paper's point, but makes the
/// DepFast-vs-Sync time-to-detect comparison degenerate. Four
/// completions per window still reject scheduler noise at a 3× threshold.
const MIN_SAMPLES: u64 = 4;

/// Which reference signals a window mean is judged against.
///
/// The peer-relative signal ("am I slower than the other replicas
/// serving the same RPC right now?") adapts to workload shifts that move
/// everyone together, but it *degenerates under correlated slowness*: if
/// every peer of a label is slow at once there is no healthy majority to
/// compare against and the ratio never trips. The absolute self-baseline
/// EWMA is blind to nothing but pays for it with sensitivity to global
/// workload shifts. [`DetectorMode::PeerWithFallback`] judges against both
/// and suspects when either trips — the correlated-slowness fix the
/// scenario matrix exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectorMode {
    /// Judge against this (node, label)'s own frozen EWMA baseline only
    /// (the detect suite and the figures' incident runs).
    SelfBaseline,
    /// Judge first against the median window mean of the *other* callees
    /// with the same label in the same poll (no reference when there is no
    /// such peer), then against the own baseline as the fallback track
    /// (the scenario matrix and the retry-storm cell).
    PeerWithFallback,
}

/// One detection verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suspicion {
    /// The node suspected of failing slow.
    pub node: NodeId,
    /// RPC label whose latency deviated.
    pub label: &'static str,
    /// Window mean that triggered the suspicion.
    pub observed: Duration,
    /// The frozen reference it was compared against.
    pub baseline: Duration,
    /// When the suspicion was raised.
    pub at: SimTime,
}

/// One poll's input: per (callee, label), the completions of this poll
/// period and their summed latency in nanoseconds. Ordered, so judgment
/// (and so suspicion order, history and the health timeline) is
/// deterministic across runs.
pub type Windows = BTreeMap<(NodeId, &'static str), (u64, f64)>;

/// What [`Judge::judge`] decided about one node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// The node judged.
    pub node: NodeId,
    /// The transition (`suspect` / `clear`) and its evidence.
    pub health: Health,
    /// For a new suspicion: the track that tripped (`self`, `peer`,
    /// `fallback`) and the suspicion; `None` for a clear.
    pub raised: Option<(&'static str, Suspicion)>,
}

/// Something a window mean is compared with.
struct Reference {
    /// Track credited when this reference trips.
    track: &'static str,
    /// How evidence names it.
    noun: &'static str,
    /// Evidence suffix naming the track (empty when there is one track).
    suffix: &'static str,
    /// Its value in nanoseconds; `None` = no judgment against it.
    nanos: Option<f64>,
}

#[derive(Default)]
struct Track {
    baseline_nanos: f64,
    windows: u32,
}

/// The detector law: per-(callee, label) EWMA baselines plus who is
/// suspected on whose evidence. No clock, registry or tracer of its own.
pub struct Judge {
    mode: DetectorMode,
    tracks: HashMap<(NodeId, &'static str), Track>,
    /// Suspected nodes, each with the label whose window raised the
    /// suspicion: only that (callee, label) track retires it, so a healthy
    /// window of *another* label of the same callee cannot clear a fault
    /// it does not measure.
    suspects: BTreeMap<NodeId, &'static str>,
}

/// Median of `values` (`None` when empty).
fn median(mut values: Vec<f64>) -> Option<f64> {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    match values.len() {
        0 => None,
        n if n % 2 == 1 => Some(values[mid]),
        _ => Some((values[mid - 1] + values[mid]) / 2.0),
    }
}

impl Judge {
    /// A law with no history, judging against `mode`'s references.
    pub fn new(mode: DetectorMode) -> Self {
        Judge {
            mode,
            tracks: HashMap::new(),
            suspects: BTreeMap::new(),
        }
    }

    /// Nodes currently under suspicion.
    pub fn suspects(&self) -> BTreeSet<NodeId> {
        self.suspects.keys().copied().collect()
    }

    /// Judges one poll's `windows` at `now`, in (callee, label) order.
    /// Windows under `MIN_SAMPLES` are ignored; a track's first
    /// `WARMUP_WINDOWS` judged windows only establish its baseline.
    pub fn judge(&mut self, now: SimTime, windows: &Windows) -> Vec<Verdict> {
        let judged = |w: &(u64, f64)| w.0 >= MIN_SAMPLES;
        let floor = FLOOR.as_nanos() as f64;
        let mut verdicts = Vec::new();
        for (&(callee, label), w) in windows.iter().filter(|(_, w)| judged(w)) {
            let mean = w.1 / w.0 as f64;
            let track = self.tracks.entry((callee, label)).or_default();
            if track.windows < WARMUP_WINDOWS {
                // Establish the baseline.
                track.baseline_nanos = if track.windows == 0 {
                    mean
                } else {
                    (1.0 - ALPHA) * track.baseline_nanos + ALPHA * mean
                };
                track.windows += 1;
                continue;
            }
            // The references, in the order they are tried. The own
            // baseline is always last and always present; the next track
            // (an absence signal, a slope) is one more entry.
            let own = Reference {
                track: "self",
                noun: "baseline",
                suffix: "",
                nanos: Some(track.baseline_nanos),
            };
            let references = match self.mode {
                DetectorMode::SelfBaseline => vec![own],
                DetectorMode::PeerWithFallback => {
                    // The median of the *other* callees' same-label window
                    // means this poll; with no such peer, no reference.
                    let peers = windows
                        .iter()
                        .filter(|((c, l), w)| *l == label && *c != callee && judged(w))
                        .map(|(_, w)| w.1 / w.0 as f64)
                        .collect();
                    let peer = Reference {
                        track: "peer",
                        noun: "peer median",
                        suffix: " [peer]",
                        nanos: median(peers),
                    };
                    let fallback = Reference {
                        track: "fallback",
                        suffix: " [fallback]",
                        ..own
                    };
                    vec![peer, fallback]
                }
            };
            let known = || references.iter().filter_map(|r| Some((r, r.nanos?)));
            let us = |nanos: f64| nanos as u64 / 1_000;
            match self.suspects.get(&callee) {
                None => {
                    let tripped = known().find(|(_, at)| mean > at * FACTOR && mean > floor);
                    if let Some((r, at)) = tripped {
                        self.suspects.insert(callee, label);
                        let evidence = format!(
                            "{label}: window mean {}us > {}x {} {}us{}",
                            us(mean),
                            FACTOR as u64,
                            r.noun,
                            us(at),
                            r.suffix
                        );
                        let suspicion = Suspicion {
                            node: callee,
                            label,
                            observed: Duration::from_nanos(mean as u64),
                            baseline: Duration::from_nanos(at as u64),
                            at: now,
                        };
                        verdicts.push(Verdict {
                            node: callee,
                            health: Health::new("suspect", evidence),
                            raised: Some((r.track, suspicion)),
                        });
                    } else {
                        // Healthy: keep tracking the baseline.
                        track.baseline_nanos = (1.0 - ALPHA) * track.baseline_nanos + ALPHA * mean;
                    }
                }
                Some(&raised_by) => {
                    // Frozen while suspected; back in band of every
                    // reference on the raising track retires it.
                    if raised_by == label && known().all(|(_, at)| mean < at * CLEAR_FACTOR) {
                        self.suspects.remove(&callee);
                        let (own, at) = known().next_back().expect("own baseline");
                        let evidence = format!(
                            "{label}: window mean {}us back under {} {}us",
                            us(mean),
                            own.noun,
                            us(at)
                        );
                        verdicts.push(Verdict {
                            node: callee,
                            health: Health::new("clear", evidence),
                            raised: None,
                        });
                    }
                }
            }
        }
        verdicts
    }
}

struct DetectorState {
    judge: Judge,
    history: Vec<Suspicion>,
    /// Last-seen `(count, total_ns)` per `rpc.latency` key, for turning
    /// cumulative histograms into per-window deltas.
    last: HashMap<Key, (u64, u128)>,
}

type SuspectHook = Box<dyn Fn(&Suspicion)>;

/// Handle to a running detector.
#[derive(Clone)]
pub struct FailSlowDetector(Rc<Detector>);

/// What every handle to one detector shares.
pub(crate) struct Detector {
    state: RefCell<DetectorState>,
    hooks: RefCell<Vec<SuspectHook>>,
    tracer: Tracer,
}

impl FailSlowDetector {
    /// Starts a detector polling the `rpc.latency` histograms of
    /// `tracer`'s metric registry every [`POLL`], judging against
    /// `mode`'s references.
    pub fn spawn(sim: &Sim, tracer: &Tracer, mode: DetectorMode) -> Self {
        let detector = FailSlowDetector(Rc::new(Detector {
            state: RefCell::new(DetectorState {
                judge: Judge::new(mode),
                history: Vec::new(),
                last: HashMap::new(),
            }),
            hooks: RefCell::new(Vec::new()),
            tracer: tracer.clone(),
        }));
        let d = detector.clone();
        let sim2 = sim.clone();
        sim.spawn(async move {
            loop {
                sim2.sleep(POLL).await;
                d.poll(sim2.now());
            }
        });
        detector
    }

    /// Registers a callback invoked on every new suspicion.
    pub fn on_suspect(&self, f: impl Fn(&Suspicion) + 'static) {
        self.0.hooks.borrow_mut().push(Box::new(f));
    }

    /// Nodes currently under suspicion.
    pub fn suspects(&self) -> BTreeSet<NodeId> {
        self.0.state.borrow().judge.suspects()
    }

    /// A handle that does not keep the detector alive, for a hook to
    /// hold: the detector owns its hooks, so a hook holding the detector
    /// would keep it, and the world it polls, alive in a cycle.
    pub(crate) fn downgrade(&self) -> Weak<Detector> {
        Rc::downgrade(&self.0)
    }

    /// The detector `weak` names, while something else keeps it.
    pub(crate) fn upgrade(weak: &Weak<Detector>) -> Option<Self> {
        weak.upgrade().map(FailSlowDetector)
    }

    /// Test probe: all suspicions raised so far.
    #[doc(hidden)]
    pub fn history(&self) -> Vec<Suspicion> {
        self.0.state.borrow().history.clone()
    }

    fn poll(&self, now: SimTime) {
        let metrics = self.0.tracer.metrics();
        let mut fired = Vec::new();
        {
            // Window means come from the registry's cumulative,
            // callee-scoped `rpc.latency` histograms: diffing consecutive
            // snapshots yields this poll period's (count, total) without
            // any drain side-effects.
            let mut st = self.0.state.borrow_mut();
            let mut windows = Windows::new();
            for (key, h) in metrics.histograms_named("rpc.latency") {
                let snap = h.snapshot();
                let (c0, t0) = st
                    .last
                    .insert(key, (snap.count, snap.total_ns))
                    .unwrap_or((0, 0));
                if let (Some(callee), Some(label), true) = (key.node, key.tag, snap.count > c0) {
                    let window = (snap.count - c0, (snap.total_ns - t0) as f64);
                    windows.insert((NodeId(callee), label), window);
                }
            }
            for v in st.judge.judge(now, &windows) {
                self.0
                    .tracer
                    .record_health(now, v.node, "detector", v.health, None);
                let key = match v.raised {
                    Some((track, suspicion)) => {
                        st.history.push(suspicion.clone());
                        fired.push(suspicion);
                        Key::tagged("detector.suspect", v.node.0, track)
                    }
                    None => Key::node("detector.clear", v.node.0),
                };
                metrics.counter(key).inc();
            }
        }
        for s in &fired {
            for hook in self.0.hooks.borrow().iter() {
                hook(s);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use depfast::event::Signal;
    use DetectorMode::{PeerWithFallback, SelfBaseline};

    const APPEND: &str = "append_entries";

    /// One window of a poll: `(callee, label, completions, mean in µs)`.
    type W = (u32, &'static str, u64, u64);

    /// One verdict: `(poll number from 1, node, transition, track — empty
    /// for a clear, evidence)`.
    type Seen = (usize, u32, &'static str, &'static str, String);

    /// Runs `polls` through a fresh law, one per [`POLL`], and returns it
    /// with every verdict.
    fn run(mode: DetectorMode, polls: &[Vec<W>]) -> (Judge, Vec<Seen>) {
        let mut law = Judge::new(mode);
        let mut seen = Vec::new();
        for (i, poll) in polls.iter().enumerate() {
            let windows = poll
                .iter()
                .map(|&(c, l, n, us)| ((NodeId(c), l), (n, (n * us * 1_000) as f64)))
                .collect();
            let now = SimTime::from_millis(200 * (i as u64 + 1));
            for v in law.judge(now, &windows) {
                if let Some((_, s)) = &v.raised {
                    assert_eq!((s.node, s.at), (v.node, now));
                }
                let track = v.raised.map_or("", |(track, _)| track);
                seen.push((
                    i + 1,
                    v.node.0,
                    v.health.transition,
                    track,
                    v.health.evidence,
                ));
            }
        }
        (law, seen)
    }

    /// `n` polls of 50 completions at `us` µs on `APPEND` of every callee
    /// in `callees`.
    fn steady(n: usize, callees: &[u32], us: u64) -> Vec<Vec<W>> {
        vec![callees.iter().map(|&c| (c, APPEND, 50, us)).collect(); n]
    }

    /// The verdicts of `run` without their evidence.
    fn timeline(
        mode: DetectorMode,
        polls: &[Vec<W>],
    ) -> Vec<(usize, u32, &'static str, &'static str)> {
        let (_, seen) = run(mode, polls);
        seen.into_iter()
            .map(|(i, n, t, k, _)| (i, n, t, k))
            .collect()
    }

    #[test]
    fn five_windows_warm_the_baseline_up_then_a_3x_window_trips() {
        // (healthy 1 ms polls before 4 polls at 40 ms) -> poll of the one
        // suspicion. A slow window inside the warm-up is averaged into the
        // baseline: one still leaves 40 ms over 3x it, two do not.
        let table: &[(usize, Option<usize>)] =
            &[(8, Some(9)), (5, Some(6)), (4, Some(6)), (3, None)];
        for &(healthy, suspected_at) in table {
            let polls = [steady(healthy, &[1], 1_000), steady(4, &[1], 40_000)].concat();
            let (law, seen) = run(SelfBaseline, &polls);
            let polls_seen: Vec<usize> = seen.iter().map(|v| v.0).collect();
            assert_eq!(
                polls_seen,
                Vec::from_iter(suspected_at),
                "healthy={healthy}"
            );
            assert_eq!(law.suspects().len(), polls_seen.len());
        }
        let (_, seen) = run(
            SelfBaseline,
            &[steady(8, &[1], 1_000), steady(1, &[1], 40_000)].concat(),
        );
        let evidence = "append_entries: window mean 40000us > 3x baseline 1000us";
        assert_eq!(seen, vec![(9, 1, "suspect", "self", evidence.to_string())]);
    }

    #[test]
    fn the_floor_and_the_sample_minimum_gate_judgment() {
        // After 8 polls at 100 µs: (completions, mean µs) -> suspected?
        // 5x the baseline under the 2 ms floor is micro-noise; a window
        // under MIN_SAMPLES is not judged at all.
        let table: &[(u64, u64, bool)] = &[
            (50, 500, false),
            (50, 2_000, false), // the floor itself is not over it
            (50, 2_001, true),
            (3, 100_000, false),
            (4, 100_000, true),
        ];
        for &(n, us, suspected) in table {
            let polls = [steady(8, &[1], 100), vec![vec![(1, APPEND, n, us)]]].concat();
            let seen = timeline(SelfBaseline, &polls).len();
            assert_eq!(seen, suspected as usize, "n={n} us={us}");
        }
    }

    #[test]
    fn the_baseline_freezes_while_suspected_and_clears_under_1_5x() {
        // Ten slow polls raise one suspicion and move no baseline: the
        // clear is judged against the 1000 µs the fault found.
        for (recovered_us, clears) in [(1_500, false), (1_499, true)] {
            let polls = [
                steady(8, &[1], 1_000),
                steady(10, &[1], 40_000),
                steady(1, &[1], recovered_us),
            ]
            .concat();
            let (law, seen) = run(SelfBaseline, &polls);
            assert_eq!(seen[0].0, 9);
            assert_eq!(seen.len(), 1 + clears as usize, "recovered={recovered_us}");
            assert_eq!(law.suspects().is_empty(), clears);
            if clears {
                let evidence = "append_entries: window mean 1499us back under baseline 1000us";
                assert_eq!(seen[1], (19, 1, "clear", "", evidence.to_string()));
            }
        }
    }

    #[test]
    fn the_peer_reference_names_a_lone_straggler_and_the_fallback_a_correlated_pair() {
        // After 8 healthy polls, one poll of `(callee, mean µs)`: who is
        // suspected on which track. When most of a callee's peers degrade
        // with it the median moves with them and the peer reference does
        // not trip — the documented false negative of a peer-relative
        // signal, and the reason the own baseline is tried after it.
        type Row = (&'static [(u32, u64)], &'static [(u32, &'static str)]);
        let table: &[Row] = &[
            (&[(1, 40_000), (2, 1_000)], &[(1, "peer")]),
            (
                &[(1, 40_000), (2, 40_000)],
                &[(1, "fallback"), (2, "fallback")],
            ),
            (
                &[(1, 40_000), (2, 40_000), (3, 1_000)],
                &[(1, "fallback"), (2, "fallback")],
            ),
            (&[(1, 40_000), (2, 1_000), (3, 1_000)], &[(1, "peer")]),
            (&[(1, 40_000)], &[(1, "fallback")]), // no peer, no reference
        ];
        for (faulted, suspected) in table {
            let callees: Vec<u32> = faulted.iter().map(|f| f.0).collect();
            let slow = faulted.iter().map(|&(c, us)| (c, APPEND, 50, us)).collect();
            let polls = [steady(8, &callees, 1_000), vec![slow]].concat();
            let got: Vec<_> = timeline(PeerWithFallback, &polls)
                .into_iter()
                .map(|(poll, node, transition, track)| {
                    assert_eq!((poll, transition), (9, "suspect"));
                    (node, track)
                })
                .collect();
            assert_eq!(got, *suspected, "{faulted:?}");
            // The same polls against the own baseline alone: same nodes.
            let own: Vec<_> = timeline(SelfBaseline, &polls)
                .into_iter()
                .map(|v| (v.1, v.3))
                .collect();
            let expected: Vec<_> = suspected.iter().map(|s| (s.0, "self")).collect();
            assert_eq!(own, expected, "{faulted:?}");
        }
        let polls = [
            steady(8, &[1, 2], 1_000),
            vec![vec![(1, APPEND, 50, 40_000), (2, APPEND, 50, 2_000)]],
        ]
        .concat();
        let (_, seen) = run(PeerWithFallback, &polls);
        let evidence = "append_entries: window mean 40000us > 3x peer median 2000us [peer]";
        assert_eq!(seen[0].4, evidence);
    }

    #[test]
    fn peer_with_fallback_clears_only_inside_both_bands() {
        // Suspected n1 recovers to 1.4 ms: inside its own band (< 1.5 x
        // 1 ms) but not its peer's while the peer runs at 0.9 ms.
        for (peer_us, clears) in [(900, false), (1_000, true)] {
            let polls = [
                steady(8, &[1, 2], 1_000),
                vec![vec![(1, APPEND, 50, 40_000), (2, APPEND, 50, 1_000)]],
                vec![vec![(1, APPEND, 50, 1_400), (2, APPEND, 50, peer_us)]],
            ]
            .concat();
            let transitions: Vec<_> = timeline(PeerWithFallback, &polls)
                .into_iter()
                .map(|v| v.2)
                .collect();
            let expected: &[&str] = if clears {
                &["suspect", "clear"]
            } else {
                &["suspect"]
            };
            assert_eq!(transitions, expected, "peer at {peer_us}us");
        }
    }

    /// What a disk-slow follower looks like once ReadIndex is on: its
    /// `append_entries` crawl while its `read_index` replies stay fast.
    fn two_label_fault() -> Vec<Vec<W>> {
        let both = |append_us| vec![(1, APPEND, 50, append_us), (1, "read_index", 50, 1_000)];
        [
            vec![both(1_000); 8],
            vec![both(40_000); 5],
            vec![both(1_000); 2],
        ]
        .concat()
    }

    #[test]
    fn a_healthy_label_does_not_retire_another_labels_suspicion() {
        // One fault, one suspicion, retired by the track that raised it.
        for mode in [SelfBaseline, PeerWithFallback] {
            let got: Vec<_> = timeline(mode, &two_label_fault())
                .into_iter()
                .map(|v| (v.0, v.1, v.2))
                .collect();
            assert_eq!(got, vec![(9, 1, "suspect"), (14, 1, "clear")]);
        }
    }

    fn feed_label(tracer: &Tracer, callee: u32, label: &'static str, mean_ms: u64, count: u64) {
        for _ in 0..count {
            let latency = Duration::from_millis(mean_ms);
            tracer.sample_rpc(NodeId(callee), label, latency, Signal::Ok);
        }
    }

    fn feed(tracer: &Tracer, callee: u32, mean_ms: u64, count: u64) {
        feed_label(tracer, callee, APPEND, mean_ms, count);
    }

    fn step(sim: &Sim, d: Duration) {
        sim.run_until_time(sim.now() + d);
    }

    fn setup_mode(mode: DetectorMode) -> (Sim, Tracer, FailSlowDetector) {
        let sim = Sim::new(1);
        let tracer = Tracer::new();
        let det = FailSlowDetector::spawn(&sim, &tracer, mode);
        (sim, tracer, det)
    }

    fn setup() -> (Sim, Tracer, FailSlowDetector) {
        setup_mode(SelfBaseline)
    }

    #[test]
    fn the_shell_records_one_suspicion_for_a_two_label_fault() {
        let (sim, tracer, det) = setup();
        let hits = Rc::new(RefCell::new(0));
        let h = hits.clone();
        det.on_suspect(move |_| *h.borrow_mut() += 1);
        for poll in &two_label_fault()[..13] {
            for &(callee, label, n, us) in poll {
                feed_label(&tracer, callee, label, us / 1_000, n);
            }
            step(&sim, POLL);
        }
        assert_eq!(det.history().len(), 1);
        assert_eq!(det.suspects(), [NodeId(1)].into());
        assert_eq!(
            *hits.borrow(),
            1,
            "the mitigation hook fires once per fault"
        );
        let transitions: Vec<&str> = tracer
            .take_health_events()
            .iter()
            .map(|e| e.transition)
            .collect();
        assert_eq!(transitions, vec!["suspect"]);
        let clears = tracer.metrics().counter(Key::node("detector.clear", 1));
        assert_eq!(clears.get(), 0);
    }

    #[test]
    fn healthy_latencies_raise_no_suspicion() {
        let (sim, tracer, det) = setup();
        for _ in 0..20 {
            feed(&tracer, 1, 1, 50);
            step(&sim, POLL);
        }
        assert!(det.suspects().is_empty());
    }

    #[test]
    fn sudden_slowness_is_detected() {
        let (sim, tracer, det) = setup();
        for _ in 0..8 {
            feed(&tracer, 1, 1, 50);
            step(&sim, POLL);
        }
        // Node 1 goes fail-slow: 40 ms means.
        for _ in 0..3 {
            feed(&tracer, 1, 40, 50);
            step(&sim, POLL);
        }
        assert!(det.suspects().contains(&NodeId(1)));
        let h = det.history();
        assert_eq!(h.len(), 1);
        assert!(h[0].observed > h[0].baseline * 3);
    }

    #[test]
    fn recovery_clears_suspicion() {
        let (sim, tracer, det) = setup();
        for _ in 0..8 {
            feed(&tracer, 1, 1, 50);
            step(&sim, POLL);
        }
        feed(&tracer, 1, 40, 50);
        step(&sim, POLL);
        assert!(det.suspects().contains(&NodeId(1)));
        for _ in 0..3 {
            feed(&tracer, 1, 1, 50);
            step(&sim, POLL);
        }
        assert!(det.suspects().is_empty());
    }

    #[test]
    fn small_windows_are_ignored() {
        let (sim, tracer, det) = setup();
        for _ in 0..8 {
            feed(&tracer, 1, 1, 50);
            step(&sim, POLL);
        }
        // Too few samples to judge.
        feed(&tracer, 1, 100, 3);
        step(&sim, POLL);
        assert!(det.suspects().is_empty());
    }

    #[test]
    fn absolute_floor_suppresses_micro_noise() {
        let (sim, tracer, det) = setup();
        // Baseline 100 µs; "slow" 500 µs is 5× but under the 2 ms floor.
        for _ in 0..8 {
            for _ in 0..50 {
                tracer.sample_rpc(
                    NodeId(1),
                    "append_entries",
                    Duration::from_micros(100),
                    Signal::Ok,
                );
            }
            step(&sim, POLL);
        }
        for _ in 0..50 {
            tracer.sample_rpc(
                NodeId(1),
                "append_entries",
                Duration::from_micros(500),
                Signal::Ok,
            );
        }
        step(&sim, POLL);
        assert!(det.suspects().is_empty());
    }

    #[test]
    fn suspicion_lifecycle_lands_on_the_health_timeline() {
        let (sim, tracer, _det) = setup();
        for _ in 0..8 {
            feed(&tracer, 1, 1, 50);
            step(&sim, POLL);
        }
        feed(&tracer, 1, 40, 50);
        step(&sim, POLL);
        for _ in 0..3 {
            feed(&tracer, 1, 1, 50);
            step(&sim, POLL);
        }
        let events = tracer.take_health_events();
        let transitions: Vec<&str> = events.iter().map(|e| e.transition).collect();
        assert_eq!(transitions, vec!["suspect", "clear"]);
        assert!(events.iter().all(|e| e.layer == "detector"));
        assert!(events.iter().all(|e| e.node == NodeId(1)));
        assert!(events[0].evidence.contains("append_entries"));
        assert!(events[0].t < events[1].t);
    }

    #[test]
    fn fallback_track_catches_correlated_two_follower_slowness() {
        let (sim, tracer, det) = setup_mode(PeerWithFallback);
        for _ in 0..8 {
            feed(&tracer, 1, 1, 50);
            feed(&tracer, 2, 1, 50);
            step(&sim, POLL);
        }
        // Same correlated degradation: the absolute-baseline fallback
        // trips within one judged window (one poll period).
        feed(&tracer, 1, 40, 50);
        feed(&tracer, 2, 40, 50);
        step(&sim, POLL);
        assert_eq!(det.suspects(), [NodeId(1), NodeId(2)].into());
        let events = tracer.take_health_events();
        assert_eq!(events.len(), 2);
        for e in &events {
            assert!(
                e.evidence.contains("[fallback]"),
                "fallback track must be credited: {}",
                e.evidence
            );
        }
        // And the track-tagged metric rows exist for both nodes.
        for node in [1u32, 2] {
            assert_eq!(
                tracer
                    .metrics()
                    .counter(Key::tagged("detector.suspect", node, "fallback"))
                    .get(),
                1
            );
        }
    }

    #[test]
    fn fallback_mode_still_clears_after_recovery() {
        let (sim, tracer, det) = setup_mode(PeerWithFallback);
        for _ in 0..8 {
            feed(&tracer, 1, 1, 50);
            feed(&tracer, 2, 1, 50);
            step(&sim, POLL);
        }
        feed(&tracer, 1, 40, 50);
        feed(&tracer, 2, 40, 50);
        step(&sim, POLL);
        assert_eq!(det.suspects().len(), 2);
        for _ in 0..3 {
            feed(&tracer, 1, 1, 50);
            feed(&tracer, 2, 1, 50);
            step(&sim, POLL);
        }
        assert!(det.suspects().is_empty());
        assert_eq!(
            tracer
                .metrics()
                .counter(Key::node("detector.clear", 1))
                .get(),
            1
        );
    }

    #[test]
    fn hooks_fire_on_new_suspicion() {
        let (sim, tracer, det) = setup();
        let hits = Rc::new(RefCell::new(Vec::new()));
        let h = hits.clone();
        det.on_suspect(move |s| h.borrow_mut().push(s.node));
        for _ in 0..8 {
            feed(&tracer, 2, 1, 50);
            step(&sim, POLL);
        }
        feed(&tracer, 2, 50, 50);
        step(&sim, POLL);
        assert_eq!(*hits.borrow(), vec![NodeId(2)]);
    }
}
