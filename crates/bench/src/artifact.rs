//! The one run artifact: a `.run` text file, written by
//! [`RunReport::export`] and read back by [`Artifact::parse`] (the
//! `depfast-inspect` binary is a CLI over this module).
//!
//! A file is a sequence of sections, each opened by a
//! `# depfast-<kind>/v<n>` header line and running to the next one. One
//! section per instrument that was on, each body in the encoding its own
//! crate defines; a header whose version is not the one below is refused
//! as an unknown section:
//!
//! | Header | Body |
//! |---|---|
//! | `# depfast-trace/v3\tdropped\t<n>` | trace-record lines ([`depfast_trace_analysis::serialize_records`]) |
//! | `# depfast-incident/v2` | one incident dump ([`depfast_incident::serialize_dumps`]): the run's own fault records and health events; the first is the whole cluster's, any further ones its per-group split |
//! | `# depfast-profile/v1\tdriver\t<name>` | folded stacks ([`depfast_profile::Profiler::folded`]) |
//! | `# depfast-series/v1` | sampler CSV ([`depfast_metrics::Sampler::to_csv`]) |
//! | `# depfast-metrics/v1` | final registry JSON ([`depfast_metrics::MetricsRegistry::to_json`]) |
//!
//! No body line of any encoding starts with `# depfast-`, so splitting on
//! the headers is exact. The file is a pure function of the report: same
//! seed, byte-identical file.

use std::fmt::Write as _;
use std::path::PathBuf;

use depfast::blame::TABLE_ROWS;
use depfast::TraceRecord;
use depfast_incident::{
    incident_track, parse_dumps, render_report, score, serialize_dumps, IncidentDump,
};
use depfast_metrics::text::{unescape, Field, Fields, LineError};
use depfast_profile::{flame, parse_folded, ProfileLine};
use depfast_trace_analysis::{
    blame_report, chrome_trace, parse_records, serialize_records, TraceIndex,
};

use crate::experiment::{level, RunReport};
use crate::json::Json;
use crate::report::{out_dir, Table};

const TRACE: &str = "# depfast-trace/v3";
const INCIDENT: &str = depfast_incident::serial::HEADER;
const PROFILE: &str = "# depfast-profile/v1";
const SERIES: &str = "# depfast-series/v1";
const METRICS: &str = "# depfast-metrics/v1";
/// The counter [`Artifact::series`] differences.
const COMMITS: &str = "raft.commit_index";

impl RunReport {
    /// The run as `.run` text: one section per instrument that was on
    /// (the sampler also when a detector or retry policy implied it;
    /// `metrics` rides with `series`).
    pub fn artifact(&self) -> String {
        let ins = &self.run.instruments;
        let mut out = String::new();
        if ins.trace {
            let _ = writeln!(out, "{TRACE}\tdropped\t{}", self.trace_dropped);
            out.push_str(&serialize_records(&self.records));
        }
        if ins.detector.is_some() || ins.retry.is_some() {
            let mut dumps = vec![self.dump()];
            // One group's split is the cluster dump again.
            if self.stats.groups.len() > 1 {
                dumps.extend(self.group_dumps());
            }
            out.push_str(&serialize_dumps(&dumps));
        }
        if let Some(profiler) = &self.profiler {
            let _ = writeln!(out, "{PROFILE}\tdriver\t{}", Field(&profiler.driver()));
            out.push_str(&profiler.folded());
        }
        if !self.sampler.rows().is_empty() {
            let _ = writeln!(out, "{SERIES}");
            out.push_str(&self.sampler.to_csv());
            let _ = writeln!(out, "{METRICS}");
            out.push_str(&self.metrics.to_json());
        }
        out
    }

    /// Writes [`RunReport::artifact`] to `<out_dir>/<stem>.run` — the one
    /// place a run reaches the disk — and says where it went.
    pub fn export(&self, stem: &str) -> std::io::Result<PathBuf> {
        let path = out_dir()?.join(format!("{stem}.run"));
        std::fs::write(&path, self.artifact())?;
        println!(
            "[run] {0} (render with `cargo run --release -p depfast-bench --bin depfast-inspect -- {0}`)",
            path.display()
        );
        Ok(path)
    }
}

/// The `trace` section.
pub struct TraceSection {
    /// Records the tracer's ring buffer had to drop; nonzero means blame
    /// shares are computed from a truncated stream.
    pub dropped: u64,
    /// The retained records.
    pub records: Vec<TraceRecord>,
}

/// The `profile` section.
pub struct ProfileSection {
    /// Driver the run profiled.
    pub driver: String,
    /// The folded stacks, as written (the flamegraph's input).
    pub folded: String,
    /// The same stacks, parsed.
    pub lines: Vec<ProfileLine>,
}

/// A parsed `.run` file.
#[derive(Default)]
pub struct Artifact {
    /// Causal trace, if the run was traced.
    pub trace: Option<TraceSection>,
    /// Incident dumps, canonicalized: the whole cluster's first, then one
    /// per group of a sharded run. Empty without a detector or retry
    /// policy.
    pub dumps: Vec<IncidentDump>,
    /// Wait-state profile, if the run was profiled.
    pub profile: Option<ProfileSection>,
    /// `(t_seconds, commits/s)` per sampling interval, if the run was
    /// sampled: the cluster-wide `raft.commit_index` level (the run's one
    /// level rule: max over a group's replicas, summed over groups)
    /// differenced across sample times.
    pub series: Option<Vec<(f64, f64)>>,
    /// Final registry values, if the run was sampled.
    pub metrics: Option<Json>,
}

impl Artifact {
    /// Parses `.run` text. An error names the line of the *file* it is
    /// on, whichever section's parser found it.
    pub fn parse(text: &str) -> Result<Artifact, LineError> {
        // (line, byte offset) of every section header.
        let mut starts: Vec<(usize, usize)> = Vec::new();
        let mut at = 0;
        for (no, line) in text.split_inclusive('\n').enumerate() {
            if line.starts_with("# depfast-") {
                starts.push((no + 1, at));
            } else if starts.is_empty() && !line.trim().is_empty() {
                return Err(LineError {
                    line: no + 1,
                    msg: "expected a `# depfast-<kind>/v<n>` section header".to_string(),
                });
            }
            at += line.len();
        }
        if starts.is_empty() {
            return Err(LineError {
                line: 1,
                msg: "no `# depfast-<kind>/v<n>` section".to_string(),
            });
        }
        let ends = starts.iter().skip(1).map(|s| s.1).chain([text.len()]);
        let mut artifact = Artifact::default();
        for (&(first, start), end) in starts.iter().zip(ends) {
            // Section parsers skip the header and count lines from it.
            let section = &text[start..end];
            let in_file = |e: LineError| LineError {
                line: first + e.line - 1,
                ..e
            };
            let (header, body) = section.split_once('\n').unwrap_or((section, ""));
            let mut header = Fields::new(first, header);
            match header.next("section header")? {
                TRACE => {
                    key(&mut header, "dropped")?;
                    artifact.trace = Some(TraceSection {
                        dropped: header.parse("dropped count")?,
                        records: parse_records(section).map_err(in_file)?,
                    });
                }
                INCIDENT => {
                    let mut dumps = parse_dumps(section).map_err(in_file)?;
                    dumps.iter_mut().for_each(IncidentDump::canonicalize);
                    artifact.dumps.extend(dumps);
                }
                PROFILE => {
                    key(&mut header, "driver")?;
                    artifact.profile = Some(ProfileSection {
                        driver: unescape(header.next("driver name")?),
                        folded: body.to_string(),
                        lines: parse_folded(section).map_err(in_file)?,
                    });
                }
                SERIES => artifact.series = Some(commit_rates(section).map_err(in_file)?),
                METRICS => {
                    let json = Json::parse(body)
                        .map_err(|e| header.err(format!("metrics section: {e}")))?;
                    artifact.metrics = Some(json);
                }
                other => return Err(header.err(format!("unknown section {other:?}"))),
            }
            header.end()?;
        }
        Ok(artifact)
    }

    /// Renders every section, in symptom → cause order: the throughput
    /// series (where is the dip?), the blame table (which node and layer
    /// bound commits?), the top wait sites (where did coroutines block?),
    /// then each incident report and scorecard (what was injected, who
    /// reacted, how fast).
    pub fn render(&self) -> String {
        let mut out = String::new();
        if let Some(rates) = &self.series {
            let _ = writeln!(out, "{}", series_summary(rates));
        }
        if let Some(Json::Arr(values)) = &self.metrics {
            let _ = writeln!(out, "metrics: {} final registry values", values.len());
        }
        if let Some(trace) = &self.trace {
            if trace.dropped > 0 {
                let _ = writeln!(
                    out,
                    "WARNING: the trace ring buffer dropped {} record(s); blame shares \
                     are computed from a truncated stream",
                    trace.dropped
                );
            }
            let index = TraceIndex::build(&trace.records);
            out.push_str(&blame_report(&index).table());
        }
        if let Some(profile) = &self.profile {
            out.push_str(&top_sites(profile).render());
        }
        for dump in &self.dumps {
            out.push_str(&render_report(dump, &score(dump)));
            out.push('\n');
        }
        out
    }

    /// One Chrome `trace_event` file for the run: its span trees (none
    /// if it was not traced) with its incident track laid over them.
    pub fn chrome(&self) -> String {
        let (spans, marks) = self.dumps.first().map(incident_track).unwrap_or_default();
        let records = self.trace.as_ref().map_or(&[][..], |t| &t.records);
        chrome_trace(&TraceIndex::build(records), &spans, &marks)
    }

    /// The profile section as an SVG flamegraph, if the run was profiled.
    pub fn svg(&self) -> Option<String> {
        let p = self.profile.as_ref()?;
        let title = format!("wait-state profile — {}", p.driver);
        Some(flame::render_svg(&p.folded, &title))
    }
}

/// The [`TABLE_ROWS`] wait sites that took the most virtual time, with
/// their share of everything profiled.
fn top_sites(profile: &ProfileSection) -> Table {
    let total: u64 = profile.lines.iter().map(|l| l.nanos).sum();
    let mut lines: Vec<&ProfileLine> = profile.lines.iter().collect();
    // Stable: ties keep the (node, phase, site) order of the section.
    lines.sort_by_key(|l| std::cmp::Reverse(l.nanos));
    let mut table = Table::new(
        &format!("Top wait sites — {}", profile.driver),
        &["Node", "Phase", "Site", "Time (ms)", "Share"],
    );
    for l in lines.into_iter().take(TABLE_ROWS) {
        table.row(vec![
            l.node.to_string(),
            l.phase.clone(),
            l.site.clone(),
            format!("{:.3}", l.nanos as f64 / 1e6),
            format!("{:.1}%", l.nanos as f64 / total.max(1) as f64 * 100.0),
        ]);
    }
    table
}

/// Consumes the `<key>` of a `<key>\t<value>` header argument.
fn key(header: &mut Fields<'_>, key: &str) -> Result<(), LineError> {
    match header.next(key)? {
        k if k == key => Ok(()),
        other => Err(header.err(format!("expected `{key}`, found {other:?}"))),
    }
}

/// [`Artifact::series`] from a `series` section (header and CSV column
/// line skipped).
fn commit_rates(section: &str) -> Result<Vec<(f64, f64)>, LineError> {
    // Every `raft.commit_index` point, in sample-time order.
    let mut points: Vec<(f64, &str, Option<&str>, f64)> = Vec::new();
    for (no, row) in section.lines().enumerate() {
        if row.is_empty() || row.starts_with('#') || row.starts_with("t_seconds,") {
            continue;
        }
        let err = |msg: &str| LineError {
            line: no + 1,
            msg: format!("{msg} in series row {row:?}"),
        };
        let cols: Vec<&str> = row.split(',').collect();
        let [t, name, _node, tag, _kind, value, _delta, _mean_ns] = cols[..] else {
            return Err(err("expected 8 columns"));
        };
        let t: f64 = t.parse().map_err(|_| err("bad t_seconds"))?;
        let value: f64 = value.parse().map_err(|_| err("bad value"))?;
        if name == COMMITS {
            points.push((t, name, Some(tag).filter(|t| !t.is_empty()), value));
        }
    }
    let levels: Vec<(f64, f64)> = points
        .chunk_by(|a, b| a.0 == b.0)
        .map(|snapshot| {
            let points = snapshot.iter().map(|&(_, name, tag, v)| (name, tag, v));
            (snapshot[0].0, level(points, COMMITS, None))
        })
        .collect();
    Ok(levels
        .windows(2)
        .map(|w| (w[1].0, (w[1].1 - w[0].1).max(0.0) / (w[1].0 - w[0].0)))
        .collect())
}

/// The symptom line: how fast the cluster committed, and where it dipped.
fn series_summary(rates: &[(f64, f64)]) -> String {
    let Some(&(floor_t, floor)) = rates.iter().min_by(|a, b| a.1.total_cmp(&b.1)) else {
        return "series: too few samples for a commit rate".to_string();
    };
    let mut sorted: Vec<f64> = rates.iter().map(|r| r.1).collect();
    sorted.sort_by(f64::total_cmp);
    format!(
        "series: {} intervals to t={:.3}s; commit rate median {:.0} op/s, floor {:.0} op/s at t={:.3}s",
        rates.len(),
        rates[rates.len() - 1].0,
        sorted[sorted.len() / 2],
        floor,
        floor_t
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const SERIES_ROWS: &str = "t_seconds,name,node,tag,kind,value,delta,mean_ns\n\
        0.100,raft.commit_index,0,,gauge,50,50,\n\
        0.100,raft.commit_index,1,,gauge,40,40,\n\
        0.100,rpc.sent,0,,counter,9,9,\n\
        0.200,raft.commit_index,0,,gauge,150,100,\n\
        0.300,raft.commit_index,0,,gauge,160,10,\n";

    #[test]
    fn commit_rate_is_the_max_level_differenced() {
        let rates = commit_rates(SERIES_ROWS).unwrap();
        assert_eq!(rates.len(), 2);
        assert!((rates[0].1 - 1000.0).abs() < 1e-6, "{rates:?}");
        assert!((rates[1].1 - 100.0).abs() < 1e-6, "{rates:?}");
        let line = series_summary(&rates);
        assert!(line.contains("floor 100 op/s at t=0.300s"), "{line}");
    }

    #[test]
    fn commit_rate_sums_the_groups_of_a_striped_run() {
        let rows = "t_seconds,name,node,tag,kind,value,delta,mean_ns\n\
            0.100,raft.commit_index,0,g1,gauge,50,50,\n\
            0.100,raft.commit_index,1,g1,gauge,40,40,\n\
            0.100,raft.commit_index,1,g2,gauge,30,30,\n\
            0.200,raft.commit_index,0,g1,gauge,150,100,\n\
            0.200,raft.commit_index,1,g2,gauge,130,100,\n";
        let rates = commit_rates(rows).unwrap();
        assert_eq!(rates.len(), 1);
        assert!((rates[0].1 - 2000.0).abs() < 1e-6, "{rates:?}");
    }

    #[test]
    fn errors_carry_the_line_of_the_file() {
        let text = format!(
            "{PROFILE}\tdriver\tD\nn0;D;apply;cpu 5\n{TRACE}\tdropped\t0\nfired\t1\t2\tok\nfired\t1\n"
        );
        let e = Artifact::parse(&text).err().expect("truncated record");
        assert_eq!(e.line, 5, "{e}");
        let e = Artifact::parse("fired\t1\t2\tok\n")
            .err()
            .expect("no header");
        assert_eq!(e.line, 1, "{e}");
        assert!(Artifact::parse("").is_err(), "an empty file is no artifact");
        let e = Artifact::parse(&format!("{SERIES}\n{SERIES_ROWS}0.4,short\n"))
            .err()
            .expect("short row");
        assert_eq!(e.line, 8, "{e}");
        let e = Artifact::parse(&format!("{TRACE}\tdroped\t0\n"))
            .err()
            .expect("key");
        assert!(e.msg.contains("expected `dropped`"), "{e}");
        let e = Artifact::parse("# depfast-bogus/v1\n").err().expect("kind");
        assert!(e.msg.contains("unknown section"), "{e}");
        // A section of a previous encoding is refused at its header.
        for old in [
            "# depfast-trace/v1\tdropped\t0\n",
            "# depfast-trace/v2\tdropped\t0\n",
            "# depfast-incident/v1\n",
        ] {
            let e = Artifact::parse(old).err().expect("old version");
            assert!(e.msg.contains("unknown section"), "{old:?}: {e}");
        }
    }
}
