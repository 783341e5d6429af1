//! The two-clock benchmark of the DepFast reproduction.
//!
//! ```sh
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload steady-write --seed 20210531 --seconds 12 --trace 0
//! ```
//!
//! With `--workload` it runs one workload and prints one JSON object as
//! its last line (`--trace 0`: end-to-end metrics from timed repetitions
//! with every instrument off; `--trace 1`: per-layer metrics from
//! counters, a traced and a profiled pass, and isolated probes). Without
//! `--workload` it runs the whole suite. Every repetition runs in a child
//! process of its own on a fresh simulator, so that memory high-water
//! marks do not leak from one into the next and so that every run checks
//! that a fresh process reproduces the virtual metrics bit for bit.
//! See `benchmark/README.md`.

mod adapter;
mod metrics;
mod probe;
mod spans;
mod stats;
mod verify;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use metrics::{Clock, Value, E2E};
use spans::Spans;
use workload::{Def, Instruments, WORKLOADS};

const DEFAULT_SEED: u64 = 20210531;
const DEFAULT_SECONDS: u64 = 12;
/// Timed repetitions of a workload: at least this many, then more until
/// `--seconds` of measured wall time have passed.
const MIN_REPS: usize = 3;
/// The instrumented passes run at this fraction of a workload's size, so
/// that the repository's 4 M-record trace ring does not drop.
const TRACE_SHRINK: u64 = 5;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    print_manifest: bool,
    /// Set in a child process: the one repetition it is to run.
    pass: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        print_manifest: false,
        pass: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| v.parse::<u64>().map_err(|e| format!("{v}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?.max(1),
            "--trace" => args.trace = number(value()?)? != 0,
            "--pass" => args.pass = Some(value()?),
            "--print-manifest" => args.print_manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn part_path(def: &Def, pass: &str) -> PathBuf {
    out_dir().join(format!(".{}.{pass}.part", def.name))
}

/// The process's resident-set high-water mark, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn print_value(kind: &str, v: &Value) {
    let detail = match E2E.iter().find(|d| d.name == v.name) {
        Some(d) => format!(
            " clock={} better={} bound={}",
            if d.clock == Clock::Host {
                "host"
            } else {
                "virtual"
            },
            if d.higher_is_better {
                "higher"
            } else {
                "lower"
            },
            d.bound
        ),
        None => String::new(),
    };
    println!(
        "{kind} {} {} {}{detail} n={}{}",
        v.name,
        v.value,
        v.unit,
        v.n,
        if v.exact { " exact" } else { "" }
    );
}

// ----------------------------------------------------------------------
// Child: one repetition.
// ----------------------------------------------------------------------

/// The instruments and size of the pass called `pass` (`timed-<i>` and
/// `full` are full-size and uninstrumented).
fn pass_setup(pass: &str) -> (u64, Instruments) {
    match pass {
        "off" => (TRACE_SHRINK, Instruments::default()),
        "traced" => (
            TRACE_SHRINK,
            Instruments {
                trace: true,
                ..Instruments::default()
            },
        ),
        "profiled" => (
            TRACE_SHRINK,
            Instruments {
                profile: true,
                ..Instruments::default()
            },
        ),
        _ => (1, Instruments::default()),
    }
}

/// Runs one repetition in this process and prints what the parent reads.
fn run_pass(def: &Def, args: &Args, pass: &str) -> ExitCode {
    let (shrink, instr) = pass_setup(pass);
    let mut spans = Spans::new(pass);
    let rep = workload::run_rep(def, args.seed, shrink, instr, &mut spans);
    let acked = metrics::acked(&rep);
    let errors = rep.ops.iter().filter(|op| !op.ok).count() as u64;
    println!("host setup_s {}", rep.setup_s);
    println!("host measure_wall_s {}", rep.measure_wall_s());
    let slices: Vec<String> = rep.slice_wall_ns.iter().map(u64::to_string).collect();
    println!("slices {}", slices.join(" "));
    println!("host calib_ns {}", rep.calib_ns);
    println!("count acked {acked}");
    println!("count attempted {}", rep.ops.len());
    println!("count failed {}", errors + rep.verify_failures);
    if errors > 0 {
        println!("fail {errors} operations returned an error");
    }
    if let Some(first) = &rep.first_failure {
        println!("fail {first}");
    }
    for v in metrics::virtual_e2e(&rep) {
        print_value("e2e", &v);
    }
    let mut layers = metrics::layer_counts(&rep);
    if let Some(trace) = &rep.trace {
        layers.extend(metrics::blame_shares(trace, acked));
        layers.push(Value::of(
            "core.trace_records_per_op",
            trace.records as f64 / acked as f64,
            acked,
            true,
        ));
        layers.push(Value::of(
            "core.trace_dropped",
            trace.dropped as f64,
            acked,
            true,
        ));
    }
    if let Some(profile) = &rep.profile {
        layers.extend(metrics::profile_shares(profile, acked));
    }
    for v in &layers {
        print_value("layer", v);
    }
    drop(rep);
    if let Err(e) = spans.write_part(&part_path(def, pass)) {
        eprintln!("cannot write spans: {e}");
        return ExitCode::FAILURE;
    }
    println!("host peak_rss_mb {}", peak_rss_mb());
    ExitCode::SUCCESS
}

// ----------------------------------------------------------------------
// Parent: one workload.
// ----------------------------------------------------------------------

/// What a child reported of its repetition.
#[derive(Default)]
struct Summary {
    setup_s: f64,
    measure_wall_s: f64,
    peak_rss_mb: f64,
    acked: u64,
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
    /// Host nanoseconds of each virtual second of the measured part.
    slices: Vec<u64>,
    /// Host nanoseconds the calibration loop took.
    calib_ns: f64,
    /// Every `e2e` and `layer` value the child printed.
    values: Vec<Value>,
}

impl Summary {
    fn exact(&self) -> impl Iterator<Item = &Value> {
        self.values.iter().filter(|v| v.exact)
    }

    fn get(&self, name: &str) -> Option<Value> {
        self.values.iter().find(|v| v.name == name).cloned()
    }

    /// The first exact metric both repetitions report and disagree on.
    fn first_difference(&self, other: &Summary) -> Option<String> {
        self.exact().find_map(|a| {
            let b = other.exact().find(|b| b.name == a.name)?;
            (a.value.to_bits() != b.value.to_bits())
                .then(|| format!("{}: {} vs {}", a.name, a.value, b.value))
        })
    }
}

fn parse_value(rest: &str) -> Option<Value> {
    let mut f = rest.split(' ');
    let (name, value) = (f.next()?, f.next()?.parse().ok()?);
    let n = rest.split(" n=").nth(1)?.split(' ').next()?.parse().ok()?;
    Some(Value::of(name, value, n, rest.ends_with(" exact")))
}

/// Runs pass `pass` of `def` in a child process and reads its report.
fn spawn_pass(def: &Def, args: &Args, pass: &str) -> Result<Summary, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", def.name, "--pass", pass])
        .args(["--seed", &args.seed.to_string()])
        .output()
        .map_err(|e| format!("cannot start pass {pass}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "pass {pass} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let mut s = Summary::default();
    let text = String::from_utf8_lossy(&out.stdout);
    for line in text.lines() {
        let bad = || format!("pass {pass} printed an unreadable line: {line}");
        let (kind, rest) = line.split_once(' ').ok_or_else(bad)?;
        match kind {
            "host" | "count" => {
                let (name, v) = rest.split_once(' ').ok_or_else(bad)?;
                let v: f64 = v.parse().map_err(|_| bad())?;
                match name {
                    "setup_s" => s.setup_s = v,
                    "measure_wall_s" => s.measure_wall_s = v,
                    "peak_rss_mb" => s.peak_rss_mb = v,
                    "calib_ns" => s.calib_ns = v,
                    "acked" => s.acked = v as u64,
                    "attempted" => s.attempted = v as u64,
                    "failed" => s.failed = v as u64,
                    _ => return Err(bad()),
                }
            }
            "fail" => {
                s.first_failure.get_or_insert(rest.to_string());
            }
            "slices" => {
                for ns in rest.split(' ') {
                    s.slices.push(ns.parse().map_err(|_| bad())?);
                }
            }
            "e2e" | "layer" => s.values.push(parse_value(rest).ok_or_else(bad)?),
            _ => return Err(bad()),
        }
    }
    println!(
        "pass {pass}: setup {:.3} s, measured part {:.3} s wall, {:.0} MB peak, {} acked, {} offered, {} failed",
        s.setup_s, s.measure_wall_s, s.peak_rss_mb, s.acked, s.attempted, s.failed
    );
    Ok(s)
}

/// The verdict and last line of a workload run.
struct Outcome {
    problem: Option<String>,
    attempted: u64,
    failed: u64,
    values: Vec<Value>,
}

impl Outcome {
    fn of(passes: &[&Summary], problem: Option<String>, values: Vec<Value>) -> Outcome {
        Outcome {
            problem: problem.or(passes.iter().find_map(|p| p.first_failure.clone())),
            attempted: passes.iter().map(|p| p.attempted).sum(),
            failed: passes.iter().map(|p| p.failed).sum(),
            values,
        }
    }

    fn correct(&self) -> bool {
        self.problem.is_none() && self.failed == 0
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .values
            .iter()
            .map(|v| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    v.name, v.value, v.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

/// Timed repetitions with every instrument off: the end-to-end metrics.
/// Virtual metrics must be the same in all of them.
fn run_timed(def: &Def, args: &Args, parts: &mut Vec<PathBuf>) -> Result<Outcome, String> {
    let mut reps: Vec<Summary> = Vec::new();
    let mut problem = None;
    while reps.len() < MIN_REPS
        || reps.iter().map(|r| r.measure_wall_s).sum::<f64>() < args.seconds as f64
    {
        let pass = format!("timed-{}", reps.len() + 1);
        let s = spawn_pass(def, args, &pass)?;
        parts.push(part_path(def, &pass));
        if let Some(diff) = reps.first().and_then(|first| first.first_difference(&s)) {
            problem.get_or_insert(format!("repetitions differ on {diff}"));
        }
        reps.push(s);
    }
    // Every repetition does the same work in the same virtual second,
    // and interference from the machine only ever adds time: the least
    // host time any repetition needed for a slice is the best estimate of
    // what that slice costs, and the sum over slices of the whole.
    let n_slices = reps[0].slices.len();
    if reps.iter().any(|r| r.slices.len() != n_slices) {
        problem.get_or_insert("repetitions differ in virtual length".to_string());
    }
    let quiet_wall_s: f64 = (0..n_slices)
        .filter_map(|k| reps.iter().filter_map(|r| r.slices.get(k)).min())
        .sum::<u64>() as f64
        / 1e9;
    // The machine itself runs up to a third slower for minutes at a
    // time. Host times are therefore reported as if it always ran at the
    // speed at which the calibration loop, run before every repetition,
    // takes its nominal time.
    let n = reps.len() as u64;
    let median = |of: fn(&Summary) -> f64| stats::median(&reps.iter().map(of).collect::<Vec<_>>());
    let speed = stats::CALIBRATION_NOMINAL_NS / median(|r| r.calib_ns);
    let raw_ops_per_s = reps[0].acked as f64 / quiet_wall_s;
    let mut values = vec![
        Value::of("setup_s", median(|r| r.setup_s) * speed, n, false),
        Value::of("sim_ops_per_wall_s", raw_ops_per_s / speed, n, false),
        Value::of("peak_rss_mb", median(|r| r.peak_rss_mb), n, false),
    ];
    values.extend(E2E.iter().filter_map(|d| reps[0].get(d.name)));
    for v in &values {
        print_value("e2e", v);
    }
    println!("host machine_speed {speed}");
    println!("host setup_s_uncorrected {}", median(|r| r.setup_s));
    println!("host sim_ops_per_wall_s_uncorrected {raw_ops_per_s}");
    println!(
        "host sim_ops_per_wall_s_median_uncorrected {}",
        median(|r| r.acked as f64 / r.measure_wall_s)
    );
    for v in reps[0]
        .values
        .iter()
        .filter(|v| values.iter().all(|e| e.name != v.name))
    {
        print_value("layer", v);
    }
    let passes: Vec<&Summary> = reps.iter().collect();
    Ok(Outcome::of(&passes, problem, values))
}

/// One full-size repetition for the counters, a traced and a profiled
/// pass at reduced size against an uninstrumented one, and the probes:
/// the per-layer metrics.
fn run_traced(def: &Def, args: &Args, parts: &mut Vec<PathBuf>) -> Result<Outcome, String> {
    let mut pass = |name: &str| {
        parts.push(part_path(def, name));
        spawn_pass(def, args, name)
    };
    let full = pass("full")?;
    let off = pass("off")?;
    let traced = pass("traced")?;
    let profiled = pass("profiled")?;

    // Neither instrument may move the virtual clock.
    let perturbed = [&traced, &profiled]
        .iter()
        .filter_map(|s| off.first_difference(s))
        .inspect(|diff| println!("an instrumented pass differs on {diff}"))
        .count();
    let problem = (perturbed > 0).then(|| "an instrument perturbed the virtual clock".to_string());

    // Counters come from the full-size repetition, shares from the pass
    // that ran under the instrument that measures them.
    let n = traced.acked;
    let mut values: Vec<Value> = metrics::LAYERS
        .iter()
        .filter_map(|d| {
            let source = if d.name.starts_with("profile.") {
                &profiled
            } else if d.name.starts_with("trace-analysis.") || d.name.starts_with("core.trace_") {
                &traced
            } else {
                &full
            };
            source.get(d.name)
        })
        .collect();
    values.extend([
        Value::of(
            "core.trace_wall_overhead_ratio",
            traced.measure_wall_s / off.measure_wall_s,
            n,
            false,
        ),
        Value::of(
            "profile.wall_overhead_ratio",
            profiled.measure_wall_s / off.measure_wall_s,
            n,
            false,
        ),
        Value::of("core.trace_virt_perturbation", perturbed as f64, n, true),
    ]);
    values.extend(probe::run(args.seconds * 1_000_000_000 / 750));

    // The virtual metrics of the full-size repetition, so that the suite
    // can compare them with the timed run of another process.
    for v in E2E.iter().filter_map(|d| full.get(d.name)) {
        print_value("e2e", &v);
    }
    for v in &values {
        print_value("layer", v);
    }
    Ok(Outcome::of(
        &[&full, &off, &traced, &profiled],
        problem,
        values,
    ))
}

fn run_workload(def: &Def, args: &Args) -> ExitCode {
    println!(
        "# workload={} seed={} seconds={} trace={}",
        def.name, args.seed, args.seconds, args.trace as u8
    );
    let mut parts = Vec::new();
    let outcome = if args.trace {
        run_traced(def, args, &mut parts)
    } else {
        run_timed(def, args, &mut parts)
    };
    let file = if args.trace {
        format!("{}.spans.json", def.name)
    } else {
        format!("{}.timed.spans.json", def.name)
    };
    let joined = spans::join_parts(&parts, &out_dir().join(file), def.name, args.seed);
    let outcome = match (outcome, joined) {
        (Ok(outcome), Ok(())) => outcome,
        (Err(e), _) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
        (_, Err(e)) => {
            eprintln!("cannot write spans: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "e2e failed_ops_share {} ratio clock=virtual better=lower bound=0 n={}",
        outcome.failed as f64 / outcome.attempted as f64,
        outcome.attempted
    );
    if let Some(why) = &outcome.problem {
        println!("FAILED: {why}");
    }
    println!("{}", outcome.json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ----------------------------------------------------------------------
// Suite: every workload, timed and traced.
// ----------------------------------------------------------------------

fn run_suite(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own path");
    let mut ok = true;
    for def in &WORKLOADS {
        let mut exact: Vec<Summary> = Vec::new();
        for trace in ["0", "1"] {
            let out = Command::new(&exe)
                .args(["--workload", def.name, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .output()
                .expect("child runs");
            let text = String::from_utf8_lossy(&out.stdout);
            for line in text.lines().filter(|l| !l.starts_with('{')) {
                match line.split_once(' ') {
                    Some((kind @ ("e2e" | "layer"), rest)) => {
                        println!("{kind} {} {rest}", def.name)
                    }
                    _ => println!("{line}"),
                }
            }
            if !out.status.success() {
                println!(
                    "FAILED: {} --trace {trace} exited with {}: {}",
                    def.name,
                    out.status,
                    String::from_utf8_lossy(&out.stderr).trim()
                );
                ok = false;
            }
            exact.push(Summary {
                values: text
                    .lines()
                    .filter(|l| l.ends_with(" exact"))
                    .filter_map(|l| parse_value(l.split_once(' ')?.1))
                    .collect(),
                ..Summary::default()
            });
        }
        // The traced run's full-size repetition is one more fresh process
        // that must reproduce every exact metric of the timed run.
        if let Some(diff) = exact[0].first_difference(&exact[1]) {
            println!("FAILED: {} differs between runs on {diff}", def.name);
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.print_manifest {
        print!("{}", metrics::manifest(DEFAULT_SECONDS));
        return ExitCode::SUCCESS;
    }
    let Some(name) = &args.workload else {
        return run_suite(&args);
    };
    let Some(def) = WORKLOADS.iter().find(|d| d.name == name) else {
        eprintln!("unknown workload {name}");
        return ExitCode::from(2);
    };
    match &args.pass {
        Some(pass) => run_pass(def, &args, pass),
        None => run_workload(def, &args),
    }
}
