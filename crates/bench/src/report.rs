//! Plain-text table rendering and CSV output for the bench targets.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

use crate::experiment::{Run, RunReport};

/// Formats a duration as milliseconds with two decimals.
pub fn format_ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// Lower-cased `[a-z0-9_]` slug for use in CSV file names.
pub fn slug(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect::<String>()
        .split('_')
        .filter(|p| !p.is_empty())
        .collect::<Vec<_>>()
        .join("_")
}

/// An integer knob from the environment — how CI shrinks the figure
/// benches (`FIG1_*`, `FIG3_*`, `ABL_MEASURE_SECS`); `default` when
/// unset.
///
/// # Panics
///
/// Panics, naming the variable and its value, when it is set but is not
/// an unsigned integer (`2s`): a typo must not run the full-size config.
pub fn env_knob(name: &str, default: u64) -> u64 {
    let Some(value) = std::env::var_os(name) else {
        return default;
    };
    let parsed = value.to_str().and_then(|v| v.parse().ok());
    parsed.unwrap_or_else(|| panic!("{name}={value:?} is not an unsigned integer"))
}

/// The figures' name for what a run injects: its fault class, or
/// `No Slowness`.
pub fn condition(run: &Run) -> &str {
    match run.fault.as_str() {
        "none" => "No Slowness",
        fault => fault,
    }
}

/// Runs one figure cell of `bench` with the wait-state profiler attached
/// (its site rollup lands in `BENCH_<bench>.json`); with `metrics`,
/// instead samples the metric registry and exports the run as
/// `<bench>_metrics_<run_name>.run` (`series` + `metrics` sections).
pub fn run_figure_cell(bench: &str, run_name: &str, cfg: &Run, metrics: bool) -> RunReport {
    let mut cfg = cfg.clone();
    cfg.instruments.sampler = metrics;
    cfg.instruments.profiler = !metrics;
    let run = cfg.execute();
    if metrics {
        if let Err(e) = run.export(&format!("{bench}_metrics_{}", slug(run_name))) {
            eprintln!("[{bench}] cannot write the run artifact: {e}");
        }
    }
    run
}

/// The workspace root, resolved from this crate's manifest directory.
///
/// Bench binaries run with varying working directories (`cargo bench`
/// sets the package dir, CI may use the workspace root), so everything
/// written to disk — `BENCH_*.json` here, run artifacts and CSVs under
/// [`out_dir`] — is anchored here instead of relying on the cwd.
pub fn repo_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(std::path::Path::parent)
        .map(std::path::Path::to_path_buf)
        .unwrap_or(manifest)
}

/// The one output directory, `<repo-root>/target/depfast-bench`, created
/// on demand: every `.run` artifact and table CSV lands here whatever the
/// cwd.
pub fn out_dir() -> std::io::Result<PathBuf> {
    let dir = repo_root().join("target/depfast-bench");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Writes `contents` to `<repo-root>/<name>` and returns the path.
pub fn write_repo_artifact(name: &str, contents: &str) -> std::io::Result<PathBuf> {
    let path = repo_root().join(name);
    std::fs::write(&path, contents)?;
    Ok(path)
}

/// A simple aligned text table that can also be written out as CSV.
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header length).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders the aligned table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "\n== {} ==", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::from("| ");
            for (c, w) in cells.iter().zip(widths) {
                let _ = write!(line, "{c:w$} | ");
            }
            line.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        let _ = writeln!(out, "{}", fmt_row(&sep, &widths));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Writes the table as CSV to `<out_dir>/<name>.csv`.
    pub fn write_csv(&self, name: &str) -> std::io::Result<PathBuf> {
        let path = out_dir()?.join(format!("{name}.csv"));
        let mut out = String::new();
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let _ = writeln!(
            out,
            "{}",
            self.header
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        std::fs::write(&path, out)?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_env_knob_is_its_default_when_unset_and_its_value_when_set() {
        assert_eq!(env_knob("DEPFAST_TEST_KNOB_UNSET", 10), 10);
        std::env::set_var("DEPFAST_TEST_KNOB_SET", "2");
        assert_eq!(env_knob("DEPFAST_TEST_KNOB_SET", 10), 2);
    }

    #[test]
    #[should_panic(expected = "DEPFAST_TEST_KNOB_UNPARSABLE=\"2s\" is not an unsigned integer")]
    fn an_unparsable_env_knob_panics_naming_it() {
        std::env::set_var("DEPFAST_TEST_KNOB_UNPARSABLE", "2s");
        env_knob("DEPFAST_TEST_KNOB_UNPARSABLE", 10);
    }

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["longer-name".into(), "22".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("| longer-name | 22"));
        assert!(s.contains("| a           | 1"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new("x", &["a"]);
        t.row(vec!["hello, world".into()]);
        let path = t.write_csv("unit_test_csv").unwrap();
        let body = std::fs::read_to_string(path).unwrap();
        assert!(body.contains("\"hello, world\""));
    }

    #[test]
    fn format_ms_rounds() {
        assert_eq!(format_ms(Duration::from_micros(1234)), "1.23");
    }

    #[test]
    fn repo_root_is_the_workspace_root() {
        let root = repo_root();
        assert!(
            root.join("Cargo.toml").exists(),
            "expected workspace manifest at {}",
            root.display()
        );
        assert!(root.join("crates").is_dir());
    }
}
