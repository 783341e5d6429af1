//! The benchmark's own span trace: one span around every call it makes
//! into a layer, kept in memory and written out when the run ends.
//!
//! Host-clock spans are timed in nanoseconds since the Unix epoch; `op`
//! spans are timed on the simulation's virtual clock. A span names
//! the repetition it belongs to (`run`) and the span of that repetition
//! that caused it (`parent`, an `id` within the same `run`). Every
//! repetition runs in a process of its own and writes its spans as one
//! JSON object per line; the parent joins these parts into one document.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Which clock a span's `start_ns`/`end_ns` are read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    Host,
    Virtual,
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub clock: Clock,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counts taken at the same boundary (poll deltas, attempts, ...).
    pub attrs: Vec<(&'static str, f64)>,
}

/// The in-memory span list of one repetition.
pub struct Spans {
    origin: Instant,
    origin_unix_ns: u64,
    run: String,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty list for the repetition called `run`.
    pub fn new(run: &str) -> Spans {
        Spans {
            origin: Instant::now(),
            origin_unix_ns: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0, |d| d.as_nanos() as u64),
            run: run.to_string(),
            spans: Vec::new(),
        }
    }

    fn host_ns(&self) -> u64 {
        self.origin_unix_ns + self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a host-clock span now and returns its index.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.host_ns();
        self.spans.push(Span {
            name,
            parent,
            clock: Clock::Host,
            start_ns: now,
            end_ns: now,
            attrs: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.host_ns();
    }

    /// Closes span `id` now and attaches `attrs` to it.
    pub fn close_with(&mut self, id: usize, attrs: Vec<(&'static str, f64)>) {
        self.close(id);
        self.spans[id].attrs = attrs;
    }

    /// Host-clock duration of a closed span, in seconds.
    pub fn seconds(&self, id: usize) -> f64 {
        (self.spans[id].end_ns - self.spans[id].start_ns) as f64 / 1e9
    }

    /// Records a finished virtual-clock span.
    pub fn push_virtual(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
        attrs: Vec<(&'static str, f64)>,
    ) {
        self.spans.push(Span {
            name,
            parent,
            clock: Clock::Virtual,
            start_ns,
            end_ns,
            attrs,
        });
    }

    /// Writes every span to `path`, one JSON object per line.
    pub fn write_part(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 128);
        for (i, s) in self.spans.iter().enumerate() {
            let clock = match s.clock {
                Clock::Host => "host",
                Clock::Virtual => "virtual",
            };
            let _ = write!(
                out,
                "{{\"run\": \"{}\", \"id\": {i}, \"name\": \"{}\", \"parent\": ",
                self.run, s.name
            );
            match s.parent {
                Some(p) => {
                    let _ = write!(out, "{p}");
                }
                None => out.push_str("null"),
            }
            let _ = write!(
                out,
                ", \"clock\": \"{clock}\", \"start_ns\": {}, \"end_ns\": {}",
                s.start_ns, s.end_ns
            );
            for (k, v) in &s.attrs {
                let _ = write!(out, ", \"{k}\": {v}");
            }
            out.push_str("}\n");
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::File::create(path)?.write_all(out.as_bytes())
    }
}

/// Joins the parts the repetitions wrote into one JSON document at
/// `path`, and removes the parts.
pub fn join_parts(
    parts: &[PathBuf],
    path: &Path,
    workload: &str,
    seed: u64,
) -> std::io::Result<()> {
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(
        file,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": ["
    )?;
    let mut first = true;
    for part in parts {
        for line in std::fs::read_to_string(part)?.lines() {
            write!(file, "{}\n{line}", if first { "" } else { "," })?;
            first = false;
        }
        std::fs::remove_file(part)?;
    }
    file.write_all(b"\n]}\n")?;
    file.flush()
}
