//! `depfast-inspect` — the one offline viewer of `.run` artifacts
//! (`RunReport::export`), no simulation re-run required.
//!
//! ```text
//! depfast-inspect <file.run>...    # render every section of every file
//!      --chrome <out.json>         # one file: its trace + incident track as Chrome trace_event JSON
//!      --svg <out.svg>             # one file: its wait-state profile as an SVG flamegraph
//! ```
//!
//! Per file, in symptom → cause order: the sampled commit rate and where
//! it dipped, the critical-path blame table and the top wait sites (12
//! rows each), then each incident report with its scorecard. Exit codes:
//! 0 rendered, 1 a file is unreadable or a section corrupt (named as
//! `file:line`), 2 usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use depfast_bench::Artifact;

const USAGE: &str = "usage: depfast-inspect <file.run>... [--chrome <out.json>] [--svg <out.svg>]";

struct Cli {
    files: Vec<PathBuf>,
    chrome: Option<PathBuf>,
    svg: Option<PathBuf>,
}

/// Strict: an unknown flag or a flag missing its value is an error,
/// never a silently different rendering.
fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        files: Vec::new(),
        chrome: None,
        svg: None,
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if !arg.starts_with('-') {
            cli.files.push(PathBuf::from(arg));
            continue;
        }
        let mut value = || match args.next() {
            Some(v) if !v.starts_with("--") => Ok(v),
            _ => Err(format!("{arg} needs a value")),
        };
        match arg.as_str() {
            "--chrome" => cli.chrome = Some(PathBuf::from(value()?)),
            "--svg" => cli.svg = Some(PathBuf::from(value()?)),
            _ => return Err(format!("unknown argument {arg:?}")),
        }
    }
    if cli.files.is_empty() {
        return Err("no .run file named".to_string());
    }
    if (cli.chrome.is_some() || cli.svg.is_some()) && cli.files.len() != 1 {
        return Err("--chrome and --svg render one run: name exactly one file".to_string());
    }
    Ok(cli)
}

/// Renders every named file; the error names what could not be read,
/// parsed (`file:line`) or written.
fn inspect(cli: &Cli) -> Result<(), String> {
    for file in &cli.files {
        let name = file.display();
        let text = std::fs::read_to_string(file).map_err(|e| format!("cannot read {name}: {e}"))?;
        let artifact =
            Artifact::parse(&text).map_err(|e| format!("{name}:{}: {}", e.line, e.msg))?;
        println!("== {name} ==");
        print!("{}", artifact.render());
        let write = |what: &str, path: &PathBuf, contents: String| {
            std::fs::write(path, contents)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            println!("[{what}] {}", path.display());
            Ok::<(), String>(())
        };
        if let Some(path) = &cli.chrome {
            write("chrome-trace", path, artifact.chrome())?;
        }
        if let Some(path) = &cli.svg {
            let svg = artifact
                .svg()
                .ok_or_else(|| format!("{name}: no profile section to render"))?;
            write("svg", path, svg)?;
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("depfast-inspect: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match inspect(&cli) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("depfast-inspect: {e}");
            ExitCode::FAILURE
        }
    }
}
