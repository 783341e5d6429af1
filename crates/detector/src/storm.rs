//! Metastability (retry-storm) monitor.
//!
//! The client telemetry (`client.attempts` / `client.success` /
//! `client.ops`) separates *offered load* from *goodput*; this monitor
//! turns their ratio, tick by tick, into a rolling amplification and
//! joins it with the [`FaultLedger`]'s ground truth. It keeps no series
//! of its own: the run's sampler rows hold the same counters at the same
//! instants. The metastable signature — the "Building on Quicksand"
//! feedback loop the paper's gray-failure arc leads to — is goodput still
//! collapsed while amplification stays high *after the injected fault has
//! cleared*: the retries themselves are now the load keeping the system
//! saturated.
//!
//! The law is [`StormLaw`], a pure state machine over per-tick deltas and
//! two facts about the ledger; [`StormMonitor`] is the shell that reads the
//! counters and the ledger and records the verdicts as
//! [`HealthEvent`](depfast::HealthEvent)s on the `"storm"` layer
//! (`storm_onset` / `storm_sustained` / `storm_cleared`), which
//! `depfast-incident` scores into a time-to-stabilize (TTS) column.

use std::cell::RefCell;
use std::rc::Rc;

use depfast::{Health, Tracer};
use depfast_fault::FaultLedger;
use depfast_metrics::Key;
use simkit::{NodeId, SimTime};

/// Ticks of pre-fault goodput averaged into the baseline.
const BASELINE_TICKS: usize = 5;
/// Rolling window (in ticks) the storm condition is evaluated over. The
/// window sets when `storm_cleared` fires: a recovery is seen only once
/// enough healthy ticks have pushed the storm out of it.
/// `SUSTAIN_TICKS` is sized against that lag, and the pinned
/// `retry-storm` cell's time-to-stabilize is measured with this window.
const SMOOTH_TICKS: usize = 5;
/// Storm requires amplification ≥ this (attempts per fresh op, over the
/// rolling window) ...
const AMP_HIGH: f64 = 2.0;
/// ... and windowed goodput < this fraction of the pre-fault baseline ...
const FLOOR_FRAC: f64 = 0.5;
/// ... and at least this many attempts in the window (ignore idle).
const MIN_ATTEMPTS: u64 = 10;
/// Consecutive storm ticks *after every ledger fault has cleared* before
/// the storm is flagged sustained (metastable). Comfortably larger than
/// `SMOOTH_TICKS`: the window lags a real recovery by up to its own
/// length.
const SUSTAIN_TICKS: u32 = 12;
/// Consecutive healthy ticks before the storm is declared over.
const CLEAR_TICKS: u32 = 3;

/// What one tick of the law saw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AmpSample {
    /// Attempts per fresh op over the rolling `SMOOTH_TICKS` window
    /// (1.0 when idle).
    pub amplification: f64,
    /// `true` while this tick met the (windowed) storm condition.
    pub stormy: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Phase {
    /// No storm condition seen (or the last one fully cleared).
    #[default]
    Calm,
    /// Storm condition holding; not yet flagged sustained.
    Storming,
    /// Flagged sustained (condition held after the fault cleared).
    Sustained,
}

/// The storm law: the rolling windows and the Calm → Storming → Sustained
/// machine. No clock, registry, ledger or tracer of its own.
#[derive(Default)]
pub struct StormLaw {
    /// Rolling `(attempts, ops, success)` per-tick deltas, newest last,
    /// at most `SMOOTH_TICKS` long.
    window: Vec<(u64, u64, u64)>,
    /// Pre-fault goodput ticks (per-tick success counts).
    baseline_window: Vec<u64>,
    baseline: Option<f64>,
    phase: Phase,
    stormy_after_clear: u32,
    calm_ticks: u32,
    sustained_ever: bool,
}

/// Keeps the newest `len` elements of `window`.
fn keep_newest<T>(window: &mut Vec<T>, len: usize) {
    let extra = window.len().saturating_sub(len);
    window.drain(..extra);
}

impl StormLaw {
    /// Test probe: `true` if any storm episode was flagged sustained (metastable).
    #[doc(hidden)]
    pub fn sustained(&self) -> bool {
        self.sustained_ever
    }

    /// Digests one interval: its `(attempts, ops, success)` deltas,
    /// whether any ledger fault has begun (`fault_seen`) and whether every
    /// one has cleared (`all_cleared`). Returns the tick's sample and the
    /// `storm_*` transition it caused, if any.
    pub fn tick(
        &mut self,
        (attempts, ops, success): (u64, u64, u64),
        fault_seen: bool,
        all_cleared: bool,
    ) -> (AmpSample, Option<Health>) {
        self.window.push((attempts, ops, success));
        keep_newest(&mut self.window, SMOOTH_TICKS);
        let w_len = self.window.len() as f64;
        let (w_attempts, w_ops, w_success) = self
            .window
            .iter()
            .fold((0u64, 0u64, 0u64), |(a, o, s), (da, db, dc)| {
                (a + da, o + db, s + dc)
            });
        let amplification = if w_ops > 0 {
            w_attempts as f64 / w_ops as f64
        } else if w_attempts > 0 {
            // Every client stuck retrying ops started before the window:
            // the offered load is pure amplification.
            w_attempts as f64
        } else {
            1.0
        };

        // Goodput baseline: mean of the last `BASELINE_TICKS` pre-fault
        // ticks, frozen at first fault onset.
        if !fault_seen {
            self.baseline_window.push(success);
            keep_newest(&mut self.baseline_window, BASELINE_TICKS);
        } else if self.baseline.is_none() && !self.baseline_window.is_empty() {
            let sum: u64 = self.baseline_window.iter().sum();
            self.baseline = Some(sum as f64 / self.baseline_window.len() as f64);
        }

        let stormy = self.baseline.is_some_and(|base| {
            base > 0.0
                && w_attempts >= MIN_ATTEMPTS
                && (w_success as f64) < FLOOR_FRAC * base * w_len
                && amplification >= AMP_HIGH
        });
        let sample = AmpSample {
            amplification,
            stormy,
        };

        let transition = if stormy {
            self.calm_ticks = 0;
            match self.phase {
                Phase::Calm => {
                    self.phase = Phase::Storming;
                    self.stormy_after_clear = 0;
                    Some("storm_onset")
                }
                // The storm is only *metastable* once it outlives its
                // cause: count storm ticks after the last fault cleared.
                Phase::Storming if all_cleared => {
                    self.stormy_after_clear += 1;
                    (self.stormy_after_clear >= SUSTAIN_TICKS).then(|| {
                        self.phase = Phase::Sustained;
                        self.sustained_ever = true;
                        "storm_sustained"
                    })
                }
                Phase::Storming => {
                    self.stormy_after_clear = 0;
                    None
                }
                Phase::Sustained => None,
            }
        } else if self.phase != Phase::Calm {
            self.calm_ticks += 1;
            (self.calm_ticks >= CLEAR_TICKS).then(|| {
                self.phase = Phase::Calm;
                self.calm_ticks = 0;
                self.stormy_after_clear = 0;
                "storm_cleared"
            })
        } else {
            None
        };
        let health = transition.map(|transition| {
            let evidence = format!(
                "goodput {}/tick vs baseline {}/tick, amp x100 = {}, attempts {}",
                (w_success as f64 / w_len) as u64,
                self.baseline.unwrap_or(0.0) as u64,
                (amplification * 100.0) as u64,
                (w_attempts as f64 / w_len) as u64
            );
            Health::new(transition, evidence)
        });
        (sample, health)
    }
}

#[derive(Default)]
struct StormState {
    /// Last-seen `client.attempts` / `client.ops` / `client.success`.
    last: (u64, u64, u64),
    law: StormLaw,
}

/// Joins client amplification telemetry with fault ground truth and
/// emits `storm_*` health events. Drive it from your own sampling loop
/// via [`StormMonitor::tick`], interval-aligned with an incident sampler
/// so its verdicts line up with the throughput series — what the run
/// harness does.
#[derive(Clone)]
pub struct StormMonitor {
    state: Rc<RefCell<StormState>>,
    tracer: Tracer,
    ledger: FaultLedger,
}

impl StormMonitor {
    /// Creates a monitor over `tracer`'s client counters and `ledger`'s
    /// ground truth. Call [`tick`](StormMonitor::tick) once per interval.
    pub fn new(tracer: &Tracer, ledger: &FaultLedger) -> Self {
        StormMonitor {
            state: Rc::default(),
            tracer: tracer.clone(),
            ledger: ledger.clone(),
        }
    }

    /// Test probe: `true` if any storm episode was flagged sustained (metastable).
    #[doc(hidden)]
    pub fn sustained(&self) -> bool {
        self.state.borrow().law.sustained()
    }

    /// Processes one interval ending at `now`: advances the storm law by
    /// the counters' deltas and records the `storm_*` health event it
    /// returns, if any.
    pub fn tick(&self, now: SimTime) {
        let metrics = self.tracer.metrics();
        let read = |name| metrics.counter(Key::global(name)).get();
        let level = (
            read("client.attempts"),
            read("client.ops"),
            read("client.success"),
        );
        let records = self.ledger.records();
        let fault_seen = records.iter().any(|r| r.onset <= now);
        let all_cleared =
            !records.is_empty() && records.iter().all(|r| r.cleared.is_some_and(|c| c <= now));
        let mut st = self.state.borrow_mut();
        let deltas = (
            level.0 - st.last.0,
            level.1 - st.last.1,
            level.2 - st.last.2,
        );
        st.last = level;
        if let Some(health) = st.law.tick(deltas, fault_seen, all_cleared).1 {
            // The storm is pinned on the first ledger fault's target (it
            // is *caused* by retries, but *about* the fault that seeded
            // it); `NodeId(0)` when no fault was ever recorded.
            let subject = records.first().map_or(NodeId(0), |r| r.node);
            self.tracer
                .record_health(now, subject, "storm", health, None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use depfast_fault::FaultKind;

    /// One tick: `(attempts, ops, success, fault seen, all cleared)`.
    type Tick = (u64, u64, u64, bool, bool);

    const HEALTHY: Tick = (100, 100, 100, false, false);
    /// Goodput collapsed under 30x amplification while the fault is active.
    const COLLAPSED: Tick = (300, 10, 5, true, false);
    /// The same collapse after the ledger's last fault cleared.
    const OUTLIVES: Tick = (300, 10, 5, true, true);
    const RECOVERED: Tick = (110, 100, 100, true, true);

    /// Runs `ticks` through a fresh law: its transitions as `(tick number
    /// from 1, transition)`, its samples, and the law.
    fn run(ticks: &[Tick]) -> (Vec<(usize, &'static str)>, Vec<AmpSample>, StormLaw) {
        let mut law = StormLaw::default();
        let (mut transitions, mut samples) = (Vec::new(), Vec::new());
        for (i, &(attempts, ops, success, seen, cleared)) in ticks.iter().enumerate() {
            let (sample, health) = law.tick((attempts, ops, success), seen, cleared);
            samples.push(sample);
            transitions.extend(health.map(|h| (i + 1, h.transition)));
        }
        (transitions, samples, law)
    }

    fn ticks(parts: &[(usize, Tick)]) -> Vec<Tick> {
        parts.iter().flat_map(|&(n, t)| vec![t; n]).collect()
    }

    #[test]
    fn the_law_walks_calm_storming_sustained_calm() {
        // Script -> transitions. Onset lags the collapse by the smoothing
        // window (third collapsed tick of five); a storm is sustained only
        // once it has outlived every fault by 12 ticks; 3 calm ticks (the
        // first is the third recovered one, for the same lag) end it.
        type Row = (&'static [(usize, Tick)], &'static [(usize, &'static str)]);
        let table: &[Row] = &[
            (&[(20, HEALTHY)], &[]),
            (&[(6, HEALTHY), (3, COLLAPSED)], &[(9, "storm_onset")]),
            // However long: while a fault is active it is a storm, not a
            // metastable one.
            (&[(6, HEALTHY), (40, COLLAPSED)], &[(9, "storm_onset")]),
            (
                &[(6, HEALTHY), (2, COLLAPSED), (12, OUTLIVES)],
                &[(9, "storm_onset")],
            ),
            (
                &[(6, HEALTHY), (2, COLLAPSED), (13, OUTLIVES)],
                &[(9, "storm_onset"), (21, "storm_sustained")],
            ),
            (
                &[(6, HEALTHY), (2, COLLAPSED), (16, OUTLIVES), (6, RECOVERED)],
                &[
                    (9, "storm_onset"),
                    (21, "storm_sustained"),
                    (29, "storm_cleared"),
                ],
            ),
            // The storm dies with its fault: never sustained.
            (
                &[(6, HEALTHY), (10, COLLAPSED), (6, RECOVERED)],
                &[(9, "storm_onset"), (21, "storm_cleared")],
            ),
            // No pre-fault goodput, no baseline, no verdict.
            (&[(20, COLLAPSED)], &[]),
        ];
        for (script, expected) in table {
            let (transitions, samples, law) = run(&ticks(script));
            assert_eq!(transitions, *expected, "{script:?}");
            let sustained = expected.iter().any(|t| t.1 == "storm_sustained");
            assert_eq!(law.sustained(), sustained, "sustained latches");
            let stormy_from = samples.iter().position(|s| s.stormy).map(|i| i + 1);
            assert_eq!(stormy_from, expected.first().map(|t| t.0));
        }
        let (_, _, law) = run(&ticks(&[(6, HEALTHY), (2, COLLAPSED)]));
        assert_eq!(law.baseline, Some(100.0), "frozen at first fault onset");
    }

    #[test]
    fn a_beat_pattern_is_not_a_storm() {
        // Clients that move in lockstep can make ticks alternate between
        // all-attempts and all-successes. Every `burst` tick alone meets
        // the storm condition (3 attempts per op, no goodput); over the
        // rolling window the pair is 1.5 attempts per op at full goodput.
        let (burst, drain) = ((300, 100, 0), (0, 100, 200));
        let beat = |seen| {
            [
                (burst.0, burst.1, burst.2, seen, false),
                (drain.0, drain.1, drain.2, seen, false),
            ]
        };
        let script = [beat(false).repeat(5), beat(true).repeat(20)].concat();
        let (transitions, samples, _) = run(&script);
        assert_eq!(transitions, vec![]);
        assert!(samples.iter().all(|s| !s.stormy));
        let full_windows = samples.iter().skip(SMOOTH_TICKS - 1);
        assert!(full_windows.map(|s| s.amplification).all(|a| a <= 1.8));
        // One tick's window would have called it.
        let mut law = StormLaw {
            baseline: Some(100.0),
            ..StormLaw::default()
        };
        assert!(law.tick(burst, true, false).0.stormy);
    }

    #[test]
    fn evidence_reports_windowed_goodput_against_the_frozen_baseline() {
        let mut law = StormLaw::default();
        let mut onset = None;
        for (a, o, s, seen, cleared) in ticks(&[(6, HEALTHY), (3, COLLAPSED)]) {
            onset = law.tick((a, o, s), seen, cleared).1;
        }
        let evidence = "goodput 43/tick vs baseline 100/tick, amp x100 = 478, attempts 220";
        assert_eq!(
            onset,
            Some(Health::new("storm_onset", evidence.to_string()))
        );
    }

    /// Pushes client counters forward by one tick's worth of activity.
    fn activity(tracer: &Tracer, ops: u64, attempts: u64, success: u64) {
        let m = tracer.metrics();
        m.counter(Key::global("client.ops")).add(ops);
        m.counter(Key::global("client.attempts")).add(attempts);
        m.counter(Key::global("client.success")).add(success);
    }

    fn ns(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    #[test]
    fn healthy_traffic_never_storms() {
        let tracer = Tracer::new();
        let ledger = FaultLedger::new();
        let mon = StormMonitor::new(&tracer, &ledger);
        for i in 1..=20u64 {
            activity(&tracer, 100, 100, 100);
            mon.tick(ns(i * 100));
        }
        assert!(!mon.sustained());
        assert!(tracer.take_health_events().is_empty());
    }

    /// Drives the canonical metastable trajectory: healthy baseline, a
    /// fault that collapses goodput, the fault clears, but amplification
    /// keeps goodput collapsed — then (optionally) recovery.
    fn run_storm(recover: bool) -> (Tracer, StormMonitor) {
        let tracer = Tracer::new();
        let ledger = FaultLedger::new();
        let mon = StormMonitor::new(&tracer, &ledger);
        let mut t = 0u64;
        let mut tick = |tr: &Tracer, ops, attempts, success| {
            t += 100;
            activity(tr, ops, attempts, success);
            mon.tick(ns(t));
        };
        for _ in 0..6 {
            tick(&tracer, 100, 100, 100);
        }
        // Fault onset at 700 ms, cleared at 900 ms (ledger ground truth).
        let slot = ledger.log_onset(NodeId(2), FaultKind::CpuSlow { quota: 0.05 }, ns(700));
        for _ in 0..2 {
            tick(&tracer, 10, 300, 5);
        }
        ledger.log_clear(slot, ns(900));
        // Metastable: fault is gone, goodput stays collapsed, retries
        // keep the offered load high.
        for _ in 0..16 {
            tick(&tracer, 10, 300, 5);
        }
        if recover {
            // Enough healthy ticks to flush the smoothing window and
            // satisfy the clear hysteresis.
            for _ in 0..6 {
                tick(&tracer, 100, 110, 100);
            }
        }
        (tracer, mon)
    }

    #[test]
    fn metastable_storm_is_flagged_sustained_only_after_fault_clears() {
        let (tracer, mon) = run_storm(false);
        assert!(mon.sustained());
        let events = tracer.take_health_events();
        let transitions: Vec<&str> = events.iter().map(|e| e.transition).collect();
        assert_eq!(transitions, vec!["storm_onset", "storm_sustained"]);
        assert!(events.iter().all(|e| e.layer == "storm"));
        // Pinned on the faulted node, and sustained only post-clear.
        assert!(events.iter().all(|e| e.node == NodeId(2)));
        assert!(events[1].t >= ns(900));
    }

    #[test]
    fn recovery_emits_storm_cleared() {
        let (tracer, mon) = run_storm(true);
        let events = tracer.take_health_events();
        let transitions: Vec<&str> = events.iter().map(|e| e.transition).collect();
        assert_eq!(
            transitions,
            vec!["storm_onset", "storm_sustained", "storm_cleared"]
        );
        assert!(mon.sustained(), "sustained_ever latches");
    }

    #[test]
    fn storm_that_dies_with_the_fault_is_not_metastable() {
        let tracer = Tracer::new();
        let ledger = FaultLedger::new();
        let mon = StormMonitor::new(&tracer, &ledger);
        let mut t = 0u64;
        let mut tick = |tr: &Tracer, ops, attempts, success| {
            t += 100;
            activity(tr, ops, attempts, success);
            mon.tick(ns(t));
        };
        for _ in 0..6 {
            tick(&tracer, 100, 100, 100);
        }
        let slot = ledger.log_onset(NodeId(3), FaultKind::CpuSlow { quota: 0.05 }, ns(700));
        // Storm while the fault is active...
        for _ in 0..10 {
            tick(&tracer, 10, 300, 5);
        }
        ledger.log_clear(slot, ns(1700));
        // ...but goodput snaps back as soon as it clears.
        for _ in 0..6 {
            tick(&tracer, 100, 110, 100);
        }
        assert!(!mon.sustained());
        let transitions: Vec<&str> = tracer
            .take_health_events()
            .iter()
            .map(|e| e.transition)
            .collect();
        assert_eq!(transitions, vec!["storm_onset", "storm_cleared"]);
    }

    #[test]
    fn amplification_is_attempts_per_fresh_op() {
        let mut law = StormLaw::default();
        let (sample, _) = law.tick((150, 50, 40), false, false);
        assert!((sample.amplification - 3.0).abs() < 1e-9);
        assert!(!sample.stormy);
        let (idle, _) = StormLaw::default().tick((0, 0, 0), false, false);
        assert_eq!(idle.amplification, 1.0);
    }
}
