//! `gate` — the regression gate over the three fixed-seed suites.
//!
//! ```text
//! gate <bench|detect|scenario>     # run the suite live, diff vs its committed baseline
//!      --write-baseline            # run the suite and (re)write the baseline instead
//!      --current <file>            # diff a pre-recorded suite instead of running
//!      --baseline <file>           # diff against (or write) a different baseline file
//!      --out <file>                # where a live run writes its fresh suite
//!      --report                    # also print each cell's incident report on stderr
//!                                  # (detect, scenario)
//! ```
//!
//! | Suite | Protects | Baseline | Fresh suite |
//! |---|---|---|---|
//! | `bench` | throughput and tails | `BENCH_baseline.json` | `BENCH_gate.json` |
//! | `detect` | the detector's scorecard | `BENCH_detect_baseline.json` | `BENCH_detect.json` |
//! | `scenario` | survival verdicts | `BENCH_scenarios_baseline.json` | `BENCH_scenarios.json` |
//!
//! The subcommand picks only which live suite runs (see
//! [`depfast_bench::suites`]) and the default file names. The rule is
//! one for every suite file: it passes when it is its baseline, byte for
//! byte. Runs are deterministic, so a fresh suite only differs when code
//! behavior moved, and every [`Suite::diff`] line — a moved column, a
//! missing or new cell — fails until the move is explained and re-pinned
//! with `--write-baseline` in the same commit. Exit codes: 0 pass, 1 a
//! difference (or a live run that lost health events), 2 usage/IO error.

use std::path::PathBuf;
use std::process::ExitCode;

use depfast_bench::suites::{self, Live};
use depfast_bench::{repo_root, Suite};

const USAGE: &str = "usage: gate <bench|detect|scenario> [--write-baseline] [--current <file>] \
                     [--baseline <file>] [--out <file>] [--report]";

/// What a subcommand selects: default file names and the live suite.
struct SuiteDef {
    name: &'static str,
    baseline: &'static str,
    out: &'static str,
    live: fn(bool) -> Result<Live, String>,
}

const SUITES: [SuiteDef; 3] = [
    SuiteDef {
        name: "bench",
        baseline: "BENCH_baseline.json",
        out: "BENCH_gate.json",
        live: suites::bench,
    },
    SuiteDef {
        name: "detect",
        baseline: "BENCH_detect_baseline.json",
        out: "BENCH_detect.json",
        live: suites::detect,
    },
    SuiteDef {
        name: "scenario",
        baseline: "BENCH_scenarios_baseline.json",
        out: "BENCH_scenarios.json",
        live: suites::scenario,
    },
];

struct Cli {
    suite: &'static SuiteDef,
    write_baseline: bool,
    report: bool,
    current: Option<PathBuf>,
    baseline: Option<PathBuf>,
    out: Option<PathBuf>,
}

/// Strict: an unknown suite or flag, a flag missing its value, or two
/// flags of which one would be ignored is an error — a typo must never
/// silently become a live run that overwrites the repo-root artifact.
fn parse(args: &[String]) -> Result<Cli, String> {
    let mut args = args.iter();
    let name = args.next().ok_or("no suite named")?;
    let suite = SUITES
        .iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("unknown suite {name:?}"))?;
    let mut cli = Cli {
        suite,
        write_baseline: false,
        report: false,
        current: None,
        baseline: None,
        out: None,
    };
    while let Some(arg) = args.next() {
        let slot = match arg.as_str() {
            "--write-baseline" => {
                cli.write_baseline = true;
                continue;
            }
            "--report" => {
                cli.report = true;
                continue;
            }
            "--current" => &mut cli.current,
            "--baseline" => &mut cli.baseline,
            "--out" => &mut cli.out,
            other => return Err(format!("unknown argument {other:?}")),
        };
        match args.next() {
            Some(v) if !v.starts_with("--") => *slot = Some(PathBuf::from(v)),
            _ => return Err(format!("{arg} needs a value")),
        }
    }
    // Any two make one meaningless: `--current` skips the live run, and
    // `--write-baseline` writes it where `--baseline`, not `--out`, says.
    let chosen: Vec<&str> = [
        ("--current", cli.current.is_some()),
        ("--write-baseline", cli.write_baseline),
        ("--out", cli.out.is_some()),
    ]
    .into_iter()
    .filter_map(|(flag, set)| set.then_some(flag))
    .collect();
    if let [a, b, ..] = chosen[..] {
        return Err(format!("{a} and {b} exclude each other"));
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let setup_error = |e: String| {
        eprintln!("gate: {e}");
        ExitCode::from(2)
    };
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => return setup_error(format!("{e}\n{USAGE}")),
    };
    let tag = format!("[gate {}]", cli.suite.name);
    let root = repo_root();
    let baseline_path = cli
        .baseline
        .unwrap_or_else(|| root.join(cli.suite.baseline));
    let current = match &cli.current {
        Some(path) => match Suite::load(path) {
            Ok(s) => s,
            Err(e) => return setup_error(e),
        },
        None => {
            let live = match (cli.suite.live)(cli.report) {
                Ok(live) => live,
                Err(e) => return setup_error(e),
            };
            if !live.lost.is_empty() {
                for line in &live.lost {
                    println!("  FAIL: {line}");
                }
                println!("{tag} FAIL ({} lossy cell(s))", live.lost.len());
                return ExitCode::FAILURE;
            }
            let (what, path) = if cli.write_baseline {
                ("baseline", baseline_path.clone())
            } else {
                let out = cli.out.unwrap_or_else(|| root.join(cli.suite.out));
                ("fresh suite", out)
            };
            match std::fs::write(&path, live.suite.to_json()) {
                Ok(()) => println!("{tag} {what} written to {}", path.display()),
                Err(e) if cli.write_baseline => {
                    return setup_error(format!("cannot write {}: {e}", path.display()));
                }
                Err(e) => eprintln!("gate: cannot write {}: {e} (continuing)", path.display()),
            }
            if cli.write_baseline {
                print!("{}", live.suite.render_cells());
                return ExitCode::SUCCESS;
            }
            live.suite
        }
    };

    let baseline = match Suite::load(&baseline_path) {
        Ok(s) => s,
        Err(e) => {
            return setup_error(format!(
                "{e}\nhint: commit one with `cargo run -p depfast-bench --bin gate -- {} --write-baseline`",
                cli.suite.name
            ));
        }
    };

    let differences = baseline.diff(&current);
    println!(
        "{tag} {} cell(s) checked against {} (a pass is the baseline, byte for byte)",
        current.cells(),
        baseline_path.display()
    );
    print!("{}", current.render_cells());
    if differences.is_empty() {
        println!("{tag} PASS");
        return ExitCode::SUCCESS;
    }
    for line in &differences {
        println!("  FAIL: {line}");
    }
    println!(
        "{tag} FAIL ({} difference(s)); once each is explained, re-pin with \
         `cargo run --release -p depfast-bench --bin gate -- {} --write-baseline`",
        differences.len(),
        cli.suite.name
    );
    ExitCode::FAILURE
}
