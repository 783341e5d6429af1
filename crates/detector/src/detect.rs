//! The trace-point-based fail-slow detector.
//!
//! Every RPC event fire records a callee-scoped `rpc.latency` histogram
//! into the shared metric registry (see [`depfast::Tracer::sample_rpc`]);
//! the detector polls the registry on a period, turns the cumulative
//! histograms into per-window means by snapshot differencing, and
//! maintains, per (label, callee), a slow EWMA baseline of the mean
//! completion latency. A window whose mean exceeds `factor ×` the
//! baseline (and an absolute floor, to ignore micro-noise) raises a
//! [`Suspicion`]; dropping back under `clear_factor ×` clears it.
//!
//! Baselines freeze while a node is suspected, so a long-lived fail-slow
//! fault cannot talk the detector out of its own detection.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::rc::Rc;
use std::time::Duration;

use depfast::Tracer;
use depfast_metrics::Key;
use simkit::{NodeId, Sim, SimTime};

/// Which reference signal a window mean is judged against.
///
/// The peer-relative signal ("am I slower than the other replicas
/// serving the same RPC right now?") adapts to workload shifts that move
/// everyone together, but it *degenerates under correlated slowness*: if
/// every peer of a label is slow at once there is no healthy majority to
/// compare against and the ratio never trips. The absolute self-baseline
/// EWMA is blind to nothing but pays for it with sensitivity to global
/// workload shifts. [`DetectorMode::PeerWithFallback`] runs both tracks
/// and suspects when either trips — the correlated-slowness fix the
/// scenario matrix exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DetectorMode {
    /// Judge against this (node, label)'s own frozen EWMA baseline only.
    #[default]
    SelfBaseline,
    /// Judge against the median window mean of the *other* callees with
    /// the same label in the same poll. With fewer than one healthy peer
    /// the signal degenerates and no judgment is made (the documented
    /// false negative under correlated slowness).
    PeerRelative,
    /// Peer-relative first, absolute self-baseline EWMA as a fallback
    /// track: suspect when either trips.
    PeerWithFallback,
}

/// Detector tuning.
#[derive(Debug, Clone, Copy)]
pub struct DetectorCfg {
    /// Aggregate-polling period.
    pub poll: Duration,
    /// Windows needed to establish a baseline before judging.
    pub warmup_windows: u32,
    /// Minimum completions in a window for it to be judged.
    pub min_samples: u64,
    /// Suspect when `window_mean > factor × baseline`.
    pub factor: f64,
    /// ... and `window_mean > floor` (absolute guard).
    pub floor: Duration,
    /// Clear when `window_mean < clear_factor × baseline`.
    pub clear_factor: f64,
    /// Baseline EWMA weight per window.
    pub alpha: f64,
    /// Reference signal(s) to judge against.
    pub mode: DetectorMode,
}

impl Default for DetectorCfg {
    fn default() -> Self {
        DetectorCfg {
            poll: Duration::from_millis(200),
            warmup_windows: 5,
            min_samples: 10,
            factor: 3.0,
            floor: Duration::from_millis(2),
            clear_factor: 1.5,
            alpha: 0.2,
            mode: DetectorMode::SelfBaseline,
        }
    }
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
    /// The frozen baseline it was compared against.
    pub baseline: Duration,
    /// When the suspicion was raised.
    pub at: SimTime,
}

/// An EWMA suspicion cross-checked against critical-path blame (see
/// [`FailSlowDetector::confirm_with_blame`]).
#[derive(Debug, Clone)]
pub struct Confirmation {
    /// The suspicion being checked.
    pub suspicion: Suspicion,
    /// Fraction of aggregate commit blame carried by the suspected node.
    pub blame_share: f64,
    /// `true` when the blame share corroborates the latency verdict.
    pub confirmed: bool,
}

#[derive(Default)]
struct Track {
    baseline_nanos: f64,
    windows: u32,
}

struct DetectorState {
    tracks: HashMap<(NodeId, &'static str), Track>,
    suspects: BTreeSet<NodeId>,
    history: Vec<Suspicion>,
    /// Last-seen `(count, total_ns)` per `rpc.latency` key, for turning
    /// cumulative histograms into per-window deltas.
    last: HashMap<Key, (u64, u128)>,
}

type SuspectHook = Box<dyn Fn(&Suspicion)>;

/// Handle to a running detector.
#[derive(Clone)]
pub struct FailSlowDetector {
    state: Rc<RefCell<DetectorState>>,
    hooks: Rc<RefCell<Vec<SuspectHook>>>,
    tracer: Tracer,
}

impl FailSlowDetector {
    /// Starts a detector polling the `rpc.latency` histograms of
    /// `tracer`'s metric registry.
    pub fn spawn(sim: &Sim, tracer: &Tracer, cfg: DetectorCfg) -> Self {
        let detector = FailSlowDetector {
            state: Rc::new(RefCell::new(DetectorState {
                tracks: HashMap::new(),
                suspects: BTreeSet::new(),
                history: Vec::new(),
                last: HashMap::new(),
            })),
            hooks: Rc::new(RefCell::new(Vec::new())),
            tracer: tracer.clone(),
        };
        let d = detector.clone();
        let tracer = tracer.clone();
        let sim2 = sim.clone();
        sim.spawn(async move {
            loop {
                sim2.sleep(cfg.poll).await;
                d.ingest(&sim2, &tracer, cfg);
            }
        });
        detector
    }

    /// Registers a callback invoked on every new suspicion.
    pub fn on_suspect(&self, f: impl Fn(&Suspicion) + 'static) {
        self.hooks.borrow_mut().push(Box::new(f));
    }

    /// Nodes currently under suspicion.
    pub fn suspects(&self) -> BTreeSet<NodeId> {
        self.state.borrow().suspects.clone()
    }

    /// All suspicions raised so far.
    pub fn history(&self) -> Vec<Suspicion> {
        self.state.borrow().history.clone()
    }

    /// Debug snapshot of (node, label, baseline, windows).
    pub fn debug_tracks(&self) -> Vec<(NodeId, &'static str, Duration, u32)> {
        self.state
            .borrow()
            .tracks
            .iter()
            .map(|((n, l), t)| {
                (
                    *n,
                    *l,
                    Duration::from_nanos(t.baseline_nanos as u64),
                    t.windows,
                )
            })
            .collect()
    }

    /// Cross-checks every suspicion raised so far against a critical-path
    /// blame report from the same run: a suspicion is `confirmed` when
    /// the suspected node carries at least `min_share` of aggregate
    /// commit blame. The two signals fail differently — EWMA latency
    /// deviation sees *any* slowness of the peer, while blame only sees
    /// slowness that reached committed commands' critical paths — so an
    /// unconfirmed suspicion is exactly the case the paper's quorum
    /// structure is designed to produce: a fail-slow node that the
    /// system provably did not wait for.
    pub fn confirm_with_blame(
        &self,
        report: &depfast_trace_analysis::BlameReport,
        min_share: f64,
    ) -> Vec<Confirmation> {
        self.history()
            .into_iter()
            .map(|suspicion| {
                let blame_share = report.node_share(suspicion.node);
                let confirmed = blame_share >= min_share;
                self.tracer.record_health(depfast::HealthEvent {
                    t: suspicion.at,
                    node: suspicion.node,
                    layer: "detector",
                    transition: if confirmed { "confirm" } else { "unconfirmed" },
                    evidence: format!(
                        "{}: blame share {}/1000 vs min {}/1000",
                        suspicion.label,
                        (blame_share * 1000.0).round() as u64,
                        (min_share * 1000.0).round() as u64
                    ),
                    group: None,
                });
                Confirmation {
                    confirmed,
                    blame_share,
                    suspicion,
                }
            })
            .collect()
    }

    fn ingest(&self, sim: &Sim, tracer: &Tracer, cfg: DetectorCfg) {
        // Window means come from the registry's cumulative, callee-scoped
        // `rpc.latency` histograms: diffing consecutive snapshots yields
        // this poll period's (count, total) without any drain side-effects.
        // A BTreeMap keeps judgment (and so suspicion order, history, and
        // the health-event timeline) deterministic across runs.
        let mut windows: BTreeMap<(NodeId, &'static str), (u64, f64)> = BTreeMap::new();
        {
            let mut st = self.state.borrow_mut();
            for (key, h) in tracer.metrics().histograms_named("rpc.latency") {
                let snap = h.snapshot();
                let (c0, t0) = st
                    .last
                    .insert(key, (snap.count, snap.total_ns))
                    .unwrap_or((0, 0));
                let (Some(callee), Some(label)) = (key.node, key.tag) else {
                    continue;
                };
                if snap.count == c0 {
                    continue;
                }
                let w = windows.entry((NodeId(callee), label)).or_insert((0, 0.0));
                w.0 += snap.count - c0;
                w.1 += (snap.total_ns - t0) as f64;
            }
        }
        // Peer-relative reference: for each judged (callee, label) window,
        // the median of the *other* callees' same-label window means this
        // poll. Only computed for the peer modes; when a label has a single
        // callee the signal degenerates to "no reference".
        let peer_median: BTreeMap<(NodeId, &'static str), f64> =
            if cfg.mode == DetectorMode::SelfBaseline {
                BTreeMap::new()
            } else {
                let mut by_label: BTreeMap<&'static str, Vec<(NodeId, f64)>> = BTreeMap::new();
                for ((callee, label), (count, total)) in &windows {
                    if *count >= cfg.min_samples {
                        by_label
                            .entry(label)
                            .or_default()
                            .push((*callee, total / *count as f64));
                    }
                }
                let mut out = BTreeMap::new();
                for (label, means) in &by_label {
                    for (callee, _) in means {
                        let mut others: Vec<f64> = means
                            .iter()
                            .filter(|(c, _)| c != callee)
                            .map(|(_, m)| *m)
                            .collect();
                        if others.is_empty() {
                            continue;
                        }
                        others.sort_by(f64::total_cmp);
                        let mid = others.len() / 2;
                        let med = if others.len() % 2 == 1 {
                            others[mid]
                        } else {
                            (others[mid - 1] + others[mid]) / 2.0
                        };
                        out.insert((*callee, *label), med);
                    }
                }
                out
            };
        let mut fired = Vec::new();
        {
            let mut st = self.state.borrow_mut();
            for ((callee, label), (count, total)) in windows {
                if count < cfg.min_samples {
                    continue;
                }
                let mean = total / count as f64;
                let track = st.tracks.entry((callee, label)).or_default();
                if track.windows < cfg.warmup_windows {
                    // Establish the baseline.
                    track.baseline_nanos = if track.windows == 0 {
                        mean
                    } else {
                        (1.0 - cfg.alpha) * track.baseline_nanos + cfg.alpha * mean
                    };
                    track.windows += 1;
                    continue;
                }
                let baseline = track.baseline_nanos;
                let suspected = st.suspects.contains(&callee);
                let pm = peer_median.get(&(callee, label)).copied();
                let floor = cfg.floor.as_nanos() as f64;
                let abs_trip = mean > baseline * cfg.factor && mean > floor;
                let peer_trip = pm.is_some_and(|p| mean > p * cfg.factor && mean > floor);
                // Which track tripped, the reference it compared against,
                // and how the evidence names that reference.
                let (trip, reference, track_name) = match cfg.mode {
                    DetectorMode::SelfBaseline => (abs_trip, baseline, "self"),
                    DetectorMode::PeerRelative => (peer_trip, pm.unwrap_or(baseline), "peer"),
                    DetectorMode::PeerWithFallback => {
                        if peer_trip {
                            (true, pm.expect("peer_trip implies a median"), "peer")
                        } else {
                            (abs_trip, baseline, "fallback")
                        }
                    }
                };
                let cleared = match cfg.mode {
                    DetectorMode::SelfBaseline => mean < baseline * cfg.clear_factor,
                    DetectorMode::PeerRelative => pm.is_some_and(|p| mean < p * cfg.clear_factor),
                    DetectorMode::PeerWithFallback => {
                        mean < baseline * cfg.clear_factor
                            && pm.is_none_or(|p| mean < p * cfg.clear_factor)
                    }
                };
                if !suspected && trip {
                    st.suspects.insert(callee);
                    let s = Suspicion {
                        node: callee,
                        label,
                        observed: Duration::from_nanos(mean as u64),
                        baseline: Duration::from_nanos(reference as u64),
                        at: sim.now(),
                    };
                    st.history.push(s.clone());
                    let evidence = match (cfg.mode, track_name) {
                        (DetectorMode::SelfBaseline, _) => format!(
                            "{}: window mean {}us > {}x baseline {}us",
                            label,
                            mean as u64 / 1_000,
                            cfg.factor as u64,
                            reference as u64 / 1_000
                        ),
                        (_, "peer") => format!(
                            "{}: window mean {}us > {}x peer median {}us [peer]",
                            label,
                            mean as u64 / 1_000,
                            cfg.factor as u64,
                            reference as u64 / 1_000
                        ),
                        _ => format!(
                            "{}: window mean {}us > {}x baseline {}us [fallback]",
                            label,
                            mean as u64 / 1_000,
                            cfg.factor as u64,
                            reference as u64 / 1_000
                        ),
                    };
                    tracer.record_health(depfast::HealthEvent {
                        t: sim.now(),
                        node: callee,
                        layer: "detector",
                        transition: "suspect",
                        evidence,
                        group: None,
                    });
                    tracer
                        .metrics()
                        .counter(Key::tagged("detector.suspect", callee.0, track_name))
                        .inc();
                    fired.push(s);
                } else if suspected && cleared {
                    st.suspects.remove(&callee);
                    let clear_ref = match cfg.mode {
                        DetectorMode::PeerRelative => pm.unwrap_or(baseline),
                        _ => baseline,
                    };
                    let noun = match cfg.mode {
                        DetectorMode::PeerRelative => "peer median",
                        _ => "baseline",
                    };
                    tracer.record_health(depfast::HealthEvent {
                        t: sim.now(),
                        node: callee,
                        layer: "detector",
                        transition: "clear",
                        evidence: format!(
                            "{}: window mean {}us back under {} {}us",
                            label,
                            mean as u64 / 1_000,
                            noun,
                            clear_ref as u64 / 1_000
                        ),
                        group: None,
                    });
                    tracer
                        .metrics()
                        .counter(Key::node("detector.clear", callee.0))
                        .inc();
                } else if !suspected {
                    // Healthy: keep tracking the baseline.
                    let track = st.tracks.get_mut(&(callee, label)).expect("present");
                    track.baseline_nanos =
                        (1.0 - cfg.alpha) * track.baseline_nanos + cfg.alpha * mean;
                }
            }
        }
        for s in &fired {
            for hook in self.hooks.borrow().iter() {
                hook(s);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use depfast::event::Signal;

    fn feed(tracer: &Tracer, callee: u32, mean_ms: u64, count: u64) {
        for _ in 0..count {
            tracer.sample_rpc(
                NodeId(callee),
                "append_entries",
                Duration::from_millis(mean_ms),
                Signal::Ok,
            );
        }
    }

    fn step(sim: &Sim, d: Duration) {
        sim.run_until_time(sim.now() + d);
    }

    fn setup() -> (Sim, Tracer, FailSlowDetector, DetectorCfg) {
        let sim = Sim::new(1);
        let tracer = Tracer::new();
        let cfg = DetectorCfg::default();
        let det = FailSlowDetector::spawn(&sim, &tracer, cfg);
        (sim, tracer, det, cfg)
    }

    #[test]
    fn healthy_latencies_raise_no_suspicion() {
        let (sim, tracer, det, cfg) = setup();
        for _ in 0..20 {
            feed(&tracer, 1, 1, 50);
            step(&sim, cfg.poll);
        }
        assert!(det.suspects().is_empty());
    }

    #[test]
    fn sudden_slowness_is_detected() {
        let (sim, tracer, det, cfg) = setup();
        for _ in 0..8 {
            feed(&tracer, 1, 1, 50);
            step(&sim, cfg.poll);
        }
        // Node 1 goes fail-slow: 40 ms means.
        for _ in 0..3 {
            feed(&tracer, 1, 40, 50);
            step(&sim, cfg.poll);
        }
        assert!(det.suspects().contains(&NodeId(1)));
        let h = det.history();
        assert_eq!(h.len(), 1);
        assert!(h[0].observed > h[0].baseline * 3);
    }

    #[test]
    fn recovery_clears_suspicion() {
        let (sim, tracer, det, cfg) = setup();
        for _ in 0..8 {
            feed(&tracer, 1, 1, 50);
            step(&sim, cfg.poll);
        }
        feed(&tracer, 1, 40, 50);
        step(&sim, cfg.poll);
        assert!(det.suspects().contains(&NodeId(1)));
        for _ in 0..3 {
            feed(&tracer, 1, 1, 50);
            step(&sim, cfg.poll);
        }
        assert!(det.suspects().is_empty());
    }

    #[test]
    fn small_windows_are_ignored() {
        let (sim, tracer, det, cfg) = setup();
        for _ in 0..8 {
            feed(&tracer, 1, 1, 50);
            step(&sim, cfg.poll);
        }
        // Too few samples to judge.
        feed(&tracer, 1, 100, 3);
        step(&sim, cfg.poll);
        assert!(det.suspects().is_empty());
    }

    #[test]
    fn absolute_floor_suppresses_micro_noise() {
        let (sim, tracer, det, cfg) = setup();
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
            step(&sim, cfg.poll);
        }
        for _ in 0..50 {
            tracer.sample_rpc(
                NodeId(1),
                "append_entries",
                Duration::from_micros(500),
                Signal::Ok,
            );
        }
        step(&sim, cfg.poll);
        assert!(det.suspects().is_empty());
    }

    #[test]
    fn blame_report_confirms_or_clears_suspicions() {
        let (sim, tracer, det, cfg) = setup();
        for _ in 0..8 {
            feed(&tracer, 1, 1, 50);
            step(&sim, cfg.poll);
        }
        feed(&tracer, 1, 40, 50);
        step(&sim, cfg.poll);
        assert_eq!(det.history().len(), 1);

        // Blame report where node 1 carries most critical-path blame:
        // the latency verdict is corroborated.
        let mut guilty = depfast_trace_analysis::BlameReport {
            commits: 1,
            total: Duration::from_millis(10),
            ..Default::default()
        };
        guilty.by.insert(
            depfast_trace_analysis::BlameKey {
                node: NodeId(1),
                layer: "rpc",
            },
            Duration::from_millis(8),
        );
        guilty.by.insert(
            depfast_trace_analysis::BlameKey {
                node: NodeId(0),
                layer: "apply",
            },
            Duration::from_millis(2),
        );
        let confirmations = det.confirm_with_blame(&guilty, 0.5);
        assert_eq!(confirmations.len(), 1);
        assert!(confirmations[0].confirmed);
        assert!((confirmations[0].blame_share - 0.8).abs() < 1e-9);

        // Blame report where the suspect never reached a critical path
        // (the DepFast quorum absorbed it): suspicion not confirmed.
        let mut absorbed = depfast_trace_analysis::BlameReport {
            commits: 1,
            total: Duration::from_millis(10),
            ..Default::default()
        };
        absorbed.by.insert(
            depfast_trace_analysis::BlameKey {
                node: NodeId(0),
                layer: "disk",
            },
            Duration::from_millis(10),
        );
        let confirmations = det.confirm_with_blame(&absorbed, 0.5);
        assert!(!confirmations[0].confirmed);
        assert_eq!(confirmations[0].blame_share, 0.0);
    }

    #[test]
    fn suspicion_lifecycle_lands_on_the_health_timeline() {
        let (sim, tracer, det, cfg) = setup();
        for _ in 0..8 {
            feed(&tracer, 1, 1, 50);
            step(&sim, cfg.poll);
        }
        feed(&tracer, 1, 40, 50);
        step(&sim, cfg.poll);
        for _ in 0..3 {
            feed(&tracer, 1, 1, 50);
            step(&sim, cfg.poll);
        }
        let events = tracer.health_events();
        let transitions: Vec<&str> = events.iter().map(|e| e.transition).collect();
        assert_eq!(transitions, vec!["suspect", "clear"]);
        assert!(events.iter().all(|e| e.layer == "detector"));
        assert!(events.iter().all(|e| e.node == NodeId(1)));
        assert!(events[0].evidence.contains("append_entries"));
        assert!(events[0].t < events[1].t);

        // confirm_with_blame stamps its verdicts at the suspicion time.
        let report = depfast_trace_analysis::BlameReport::default();
        let _ = det.confirm_with_blame(&report, 0.5);
        let events = tracer.health_events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[2].transition, "unconfirmed");
        assert_eq!(events[2].t, events[0].t);
    }

    fn setup_mode(mode: DetectorMode) -> (Sim, Tracer, FailSlowDetector, DetectorCfg) {
        let sim = Sim::new(1);
        let tracer = Tracer::new();
        let cfg = DetectorCfg {
            mode,
            ..DetectorCfg::default()
        };
        let det = FailSlowDetector::spawn(&sim, &tracer, cfg);
        (sim, tracer, det, cfg)
    }

    #[test]
    fn peer_relative_catches_a_lone_straggler() {
        let (sim, tracer, det, cfg) = setup_mode(DetectorMode::PeerRelative);
        for _ in 0..8 {
            feed(&tracer, 1, 1, 50);
            feed(&tracer, 2, 1, 50);
            step(&sim, cfg.poll);
        }
        // Only follower 1 goes fail-slow: follower 2 is the healthy peer.
        feed(&tracer, 1, 40, 50);
        feed(&tracer, 2, 1, 50);
        step(&sim, cfg.poll);
        assert_eq!(det.suspects(), [NodeId(1)].into());
        let events = tracer.health_events();
        assert!(
            events[0].evidence.contains("[peer]"),
            "peer track must be credited: {}",
            events[0].evidence
        );
    }

    #[test]
    fn peer_relative_alone_misses_correlated_two_follower_slowness() {
        // The documented false negative: when both followers degrade
        // together, each is the other's only peer, the median moves with
        // them, and the ratio never trips.
        let (sim, tracer, det, cfg) = setup_mode(DetectorMode::PeerRelative);
        for _ in 0..8 {
            feed(&tracer, 1, 1, 50);
            feed(&tracer, 2, 1, 50);
            step(&sim, cfg.poll);
        }
        for _ in 0..5 {
            feed(&tracer, 1, 40, 50);
            feed(&tracer, 2, 40, 50);
            step(&sim, cfg.poll);
        }
        assert!(
            det.suspects().is_empty(),
            "peer-relative signal degenerates under correlated slowness"
        );
        assert!(det.history().is_empty());
    }

    #[test]
    fn fallback_track_catches_correlated_two_follower_slowness() {
        let (sim, tracer, det, cfg) = setup_mode(DetectorMode::PeerWithFallback);
        for _ in 0..8 {
            feed(&tracer, 1, 1, 50);
            feed(&tracer, 2, 1, 50);
            step(&sim, cfg.poll);
        }
        // Same correlated degradation: the absolute-baseline fallback
        // trips within one judged window (one poll period).
        feed(&tracer, 1, 40, 50);
        feed(&tracer, 2, 40, 50);
        step(&sim, cfg.poll);
        assert_eq!(det.suspects(), [NodeId(1), NodeId(2)].into());
        let events = tracer.health_events();
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
        let (sim, tracer, det, cfg) = setup_mode(DetectorMode::PeerWithFallback);
        for _ in 0..8 {
            feed(&tracer, 1, 1, 50);
            feed(&tracer, 2, 1, 50);
            step(&sim, cfg.poll);
        }
        feed(&tracer, 1, 40, 50);
        feed(&tracer, 2, 40, 50);
        step(&sim, cfg.poll);
        assert_eq!(det.suspects().len(), 2);
        for _ in 0..3 {
            feed(&tracer, 1, 1, 50);
            feed(&tracer, 2, 1, 50);
            step(&sim, cfg.poll);
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
        let (sim, tracer, det, cfg) = setup();
        let hits = Rc::new(RefCell::new(Vec::new()));
        let h = hits.clone();
        det.on_suspect(move |s| h.borrow_mut().push(s.node));
        for _ in 0..8 {
            feed(&tracer, 2, 1, 50);
            step(&sim, cfg.poll);
        }
        feed(&tracer, 2, 50, 50);
        step(&sim, cfg.poll);
        assert_eq!(*hits.borrow(), vec![NodeId(2)]);
    }
}
