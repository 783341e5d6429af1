//! **depfast-profile** — continuous wait-state profiling on the virtual
//! clock.
//!
//! Metrics (`depfast-metrics`) say *how much*, critical-path blame
//! ([`depfast::blame`]) says *who is to blame* — this crate answers
//! *where a coroutine's time actually goes*, below the phase level. A
//! [`Profiler`] taps two synchronous probe points:
//!
//! * the core tracer's [wait probe](depfast::Tracer::set_wait_probe),
//!   which delivers every finished event wait with its ambient coroutine
//!   and [phase](depfast::current_phase) attribution already resolved, and
//! * the simkit [resource probe](simkit::World::set_resource_probe),
//!   which delivers every CPU/disk interaction with queueing delay and
//!   effective service time split out.
//!
//! Every nanosecond lands in exactly one *wait site*, keyed by
//! `(node, phase, site)` under a per-run driver name. Sites follow a fixed
//! taxonomy (see [`Profiler`]):
//!
//! | site | meaning |
//! |---|---|
//! | `run_queue` | CPU run-queue (core contention) delay |
//! | `cpu` | on-CPU service time (net of swap inflation) |
//! | `mem:swap` | service inflation charged to memory pressure |
//! | `disk:queue` | device-queue (FIFO) delay |
//! | `disk:device` | device busy time (after fail-slow distortion) |
//! | `quorum:<label>` | blocked on a k-of-n compound event |
//! | `rpc:<label>` | blocked on a single remote completion |
//! | `disk:<label>` | blocked on a local I/O completion event |
//! | `timer:<label>` / `notify:<label>` / ... | other event kinds |
//!
//! Aggregates export as deterministic inferno-compatible folded stacks
//! (`node;driver;phase;site <ns>`, sorted) and render to a zero-dependency
//! SVG flamegraph ([`flame::render_svg`]). Same seed, same binary ⇒
//! byte-identical output — which is what lets `bench-gate` diff profiles
//! across commits.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use depfast::trace::WaitObservation;
use depfast::{current_coro_label, current_phase, EventKind, Tracer};
use depfast_metrics::text::LineError;
use simkit::{NodeId, ResourceKind, ResourceObservation, World};

pub mod flame;

/// Placeholder phase for samples taken outside any phase annotation; the
/// coroutine label is used instead when one is in scope, so unphased
/// client waits still read as `ycsb:client` rather than a catch-all.
pub const UNPHASED: &str = "unphased";

/// The phase a sample is charged to: its protocol phase, else its
/// coroutine's label, else [`UNPHASED`].
fn phase_of(phase: Option<&'static str>, coro: Option<&'static str>) -> &'static str {
    phase.or(coro).unwrap_or(UNPHASED)
}

/// One aggregation bucket: everything but the driver name (which is
/// per-run, not per-sample). `&'static str` fields order by content, so
/// iteration order — and therefore every export — is deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct StackKey {
    node: u32,
    phase: &'static str,
    site_kind: &'static str,
    site_label: &'static str,
}

impl StackKey {
    fn site(&self) -> String {
        if self.site_label.is_empty() {
            self.site_kind.to_string()
        } else {
            format!("{}:{}", self.site_kind, self.site_label)
        }
    }
}

/// One rolled-up profile line, used by the bench JSON emitters.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileLine {
    /// Node the time was spent on.
    pub node: u32,
    /// Phase attribution (or the coroutine label when unphased).
    pub phase: String,
    /// Wait site (taxonomy above).
    pub site: String,
    /// Nanoseconds accumulated.
    pub nanos: u64,
}

struct ProfInner {
    driver: String,
    samples: BTreeMap<StackKey, u64>,
}

/// Aggregating wait-state profiler for one run. Cheap to clone; install on
/// a tracer + world pair for the duration of a run, then export.
///
/// # Examples
///
/// ```
/// use depfast_profile::Profiler;
///
/// let p = Profiler::new("DemoDriver");
/// assert_eq!(p.lines().iter().map(|l| l.nanos).sum::<u64>(), 0);
/// assert!(p.folded().is_empty());
/// ```
#[derive(Clone)]
pub struct Profiler {
    inner: Rc<RefCell<ProfInner>>,
}

impl Profiler {
    /// Creates an empty profiler for a run of `driver` (the name becomes
    /// the second folded-stack frame, so profiles of different drivers
    /// stay distinguishable after merging).
    pub fn new(driver: impl Into<String>) -> Self {
        Profiler {
            inner: Rc::new(RefCell::new(ProfInner {
                driver: driver.into(),
                samples: BTreeMap::new(),
            })),
        }
    }

    /// Installs this profiler's probes on `tracer` (event waits) and
    /// `world` (CPU/disk resources). Replaces any previously installed
    /// probes; call [`Profiler::uninstall`] when the run ends.
    pub fn install(&self, tracer: &Tracer, world: &World) {
        let p = self.clone();
        tracer.set_wait_probe(Some(Rc::new(move |o: &WaitObservation| {
            p.record_wait(o);
        })));
        let p = self.clone();
        world.set_resource_probe(Some(Rc::new(move |o: &ResourceObservation| {
            p.record_resource(o);
        })));
    }

    /// Removes the probes installed by [`Profiler::install`].
    pub fn uninstall(&self, tracer: &Tracer, world: &World) {
        tracer.set_wait_probe(None);
        world.set_resource_probe(None);
    }

    fn add(&self, key: StackKey, nanos: u64) {
        if nanos == 0 {
            return;
        }
        *self.inner.borrow_mut().samples.entry(key).or_insert(0) += nanos;
    }

    /// Records one finished event wait (the tracer probe target). Its
    /// site is the event kind's name, except that an I/O wait is a `disk`
    /// site.
    pub fn record_wait(&self, o: &WaitObservation) {
        self.add(
            StackKey {
                node: o.node.0,
                phase: phase_of(o.phase, o.coro_label),
                site_kind: match o.kind {
                    EventKind::Io => "disk",
                    kind => kind.name(),
                },
                site_label: o.label,
            },
            o.waited.as_nanos() as u64,
        );
    }

    /// Records one CPU/disk interaction (the world probe target).
    ///
    /// The probe fires inside the consuming task's poll, so the ambient
    /// phase/coroutine attribution is read here rather than carried in the
    /// observation.
    pub fn record_resource(&self, o: &ResourceObservation) {
        let phase = phase_of(current_phase(), current_coro_label());
        let node = o.node.0;
        let wait = o.wait.as_nanos() as u64;
        let service = o.service.as_nanos() as u64;
        match o.resource {
            ResourceKind::Cpu => {
                self.add(
                    StackKey {
                        node,
                        phase,
                        site_kind: "run_queue",
                        site_label: "",
                    },
                    wait,
                );
                // Swap thrashing inflates service time; charge the
                // inflation to memory pressure, not the CPU.
                let swap = if o.slowdown > 1.0 {
                    (service as f64 * (1.0 - 1.0 / o.slowdown)) as u64
                } else {
                    0
                };
                self.add(
                    StackKey {
                        node,
                        phase,
                        site_kind: "cpu",
                        site_label: "",
                    },
                    service - swap,
                );
                self.add(
                    StackKey {
                        node,
                        phase,
                        site_kind: "mem",
                        site_label: "swap",
                    },
                    swap,
                );
            }
            ResourceKind::Disk => {
                self.add(
                    StackKey {
                        node,
                        phase,
                        site_kind: "disk",
                        site_label: "queue",
                    },
                    wait,
                );
                self.add(
                    StackKey {
                        node,
                        phase,
                        site_kind: "disk",
                        site_label: "device",
                    },
                    service,
                );
            }
        }
    }

    /// The driver name this profiler was created for.
    pub fn driver(&self) -> String {
        self.inner.borrow().driver.clone()
    }

    /// Fraction of `node`'s profiled time spent at sites whose kind is
    /// `site_kind` (e.g. `"disk"` covers the device queue, device busy
    /// time and blocked I/O-event waits). Zero if the node has no samples.
    pub fn node_site_share(&self, node: NodeId, site_kind: &str) -> f64 {
        let inner = self.inner.borrow();
        let mut total = 0u64;
        let mut matched = 0u64;
        for (k, v) in inner.samples.iter() {
            if k.node != node.0 {
                continue;
            }
            total += v;
            if k.site_kind == site_kind {
                matched += v;
            }
        }
        if total == 0 {
            0.0
        } else {
            matched as f64 / total as f64
        }
    }

    /// Rolled-up profile lines, sorted by (node, phase, site).
    pub fn lines(&self) -> Vec<ProfileLine> {
        self.inner
            .borrow()
            .samples
            .iter()
            .map(|(k, v)| ProfileLine {
                node: k.node,
                phase: k.phase.to_string(),
                site: k.site(),
                nanos: *v,
            })
            .collect()
    }

    /// Inferno-compatible folded stacks: one line per bucket,
    /// `n<node>;<driver>;<phase>;<site> <nanos>`, sorted. Frame text is
    /// sanitized (`;` and whitespace become `_`) so the format survives
    /// driver names like `"SyncRaft (TiDB-style)"`.
    pub fn folded(&self) -> String {
        let inner = self.inner.borrow();
        let driver = sanitize(&inner.driver);
        let mut out = String::new();
        for (k, v) in inner.samples.iter() {
            out.push_str(&format!(
                "n{};{};{};{} {}\n",
                k.node,
                driver,
                sanitize(k.phase),
                sanitize(&k.site()),
                v
            ));
        }
        out
    }
}

/// Parses what [`Profiler::folded`] wrote back into profile lines (frames
/// stay sanitized; the driver frame is dropped). Empty lines and `#`
/// lines (a `.run` file's section header) are skipped.
pub fn parse_folded(text: &str) -> Result<Vec<ProfileLine>, LineError> {
    let mut lines = Vec::new();
    for (no, raw) in text.lines().enumerate() {
        if raw.is_empty() || raw.starts_with('#') {
            continue;
        }
        let err = |msg: &str| LineError {
            line: no + 1,
            msg: format!("{msg} in folded stack {raw:?}"),
        };
        let (stack, nanos) = raw.rsplit_once(' ').ok_or_else(|| err("no sample value"))?;
        let frames: Vec<&str> = stack.split(';').collect();
        let [node, _driver, phase, site] = frames[..] else {
            return Err(err("expected node;driver;phase;site"));
        };
        lines.push(ProfileLine {
            node: node
                .strip_prefix('n')
                .and_then(|n| n.parse().ok())
                .ok_or_else(|| err("bad node frame"))?,
            phase: phase.to_string(),
            site: site.to_string(),
            nanos: nanos.parse().map_err(|_| err("bad sample value"))?,
        });
    }
    Ok(lines)
}

/// Makes `s` safe to use as a folded-stack frame.
fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c == ';' || c.is_whitespace() {
                '_'
            } else {
                c
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn obs(
        node: u32,
        phase: Option<&'static str>,
        kind: EventKind,
        label: &'static str,
        ms: u64,
    ) -> WaitObservation {
        WaitObservation {
            node: NodeId(node),
            coro_label: Some("worker"),
            phase,
            kind,
            label,
            waited: Duration::from_millis(ms),
        }
    }

    #[test]
    fn folded_output_is_sorted_and_sanitized() {
        let p = Profiler::new("SyncRaft (TiDB-style)");
        p.record_wait(&obs(
            1,
            Some("commit_wait"),
            EventKind::Quorum,
            "replicate",
            5,
        ));
        p.record_wait(&obs(0, Some("wal_append"), EventKind::Io, "fsync", 3));
        p.record_wait(&obs(0, Some("wal_append"), EventKind::Io, "fsync", 2));
        let folded = p.folded();
        assert_eq!(
            folded,
            "n0;SyncRaft_(TiDB-style);wal_append;disk:fsync 5000000\n\
             n1;SyncRaft_(TiDB-style);commit_wait;quorum:replicate 5000000\n"
        );
    }

    #[test]
    fn unphased_waits_fall_back_to_coroutine_label() {
        let p = Profiler::new("d");
        p.record_wait(&obs(
            0,
            None,
            EventKind::Rpc { target: NodeId(1) },
            "put",
            1,
        ));
        assert!(p.folded().contains("n0;d;worker;rpc:put 1000000\n"));
    }

    #[test]
    fn resource_samples_split_wait_service_and_swap() {
        let p = Profiler::new("d");
        p.record_resource(&ResourceObservation {
            node: NodeId(2),
            resource: ResourceKind::Cpu,
            wait: Duration::from_millis(1),
            service: Duration::from_millis(4),
            slowdown: 2.0,
        });
        p.record_resource(&ResourceObservation {
            node: NodeId(2),
            resource: ResourceKind::Disk,
            wait: Duration::from_millis(2),
            service: Duration::from_millis(3),
            slowdown: 1.0,
        });
        let folded = p.folded();
        // Run outside any coroutine poll: attribution is "unphased".
        assert!(
            folded.contains("n2;d;unphased;run_queue 1000000\n"),
            "{folded}"
        );
        assert!(folded.contains("n2;d;unphased;cpu 2000000\n"), "{folded}");
        assert!(
            folded.contains("n2;d;unphased;mem:swap 2000000\n"),
            "{folded}"
        );
        assert!(
            folded.contains("n2;d;unphased;disk:queue 2000000\n"),
            "{folded}"
        );
        assert!(
            folded.contains("n2;d;unphased;disk:device 3000000\n"),
            "{folded}"
        );
        let lines = p.lines();
        let total: u64 = lines.iter().map(|l| l.nanos).sum();
        assert_eq!(Duration::from_nanos(total), Duration::from_millis(10));
        // disk share = (queue + device) / node total
        let share = p.node_site_share(NodeId(2), "disk");
        assert!((share - 0.5).abs() < 1e-9, "{share}");
        // wait share excludes on-CPU service and its swap inflation:
        // disk (2+3) over run_queue (1) + disk (5) = 5/6.
        let at = |kind: &str| -> u64 {
            let sites = lines
                .iter()
                .filter(|l| l.site.split(':').next() == Some(kind));
            sites.map(|l| l.nanos).sum()
        };
        let wait_share = at("disk") as f64 / (total - at("cpu") - at("mem")) as f64;
        assert!((wait_share - 5.0 / 6.0).abs() < 1e-9, "{wait_share}");
    }

    #[test]
    fn lines_rollup_matches_folded() {
        let p = Profiler::new("d");
        p.record_wait(&obs(0, Some("apply"), EventKind::Notify, "applied", 7));
        let lines = p.lines();
        assert_eq!(lines.len(), 1);
        assert_eq!(lines[0].node, 0);
        assert_eq!(lines[0].phase, "apply");
        assert_eq!(lines[0].site, "notify:applied");
        assert_eq!(lines[0].nanos, 7_000_000);
        assert_eq!(parse_folded(&p.folded()), Ok(lines));
    }

    #[test]
    fn malformed_folded_lines_are_rejected_with_their_line() {
        for bad in [
            "n0;d;apply;cpu",
            "n0;d;cpu 5",
            "x0;d;apply;cpu 5",
            "n0;d;apply;cpu five",
        ] {
            let e = parse_folded(&format!("n0;d;apply;cpu 5\n{bad}\n")).unwrap_err();
            assert_eq!(e.line, 2, "{bad}: {e}");
        }
    }
}
