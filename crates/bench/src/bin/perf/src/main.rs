//! `perf` — the checker's benchmark runner: four workloads, end-to-end
//! metrics from untraced trials, and a per-layer breakdown from traced
//! ones. Run it from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path crates/bench/src/bin/perf/Cargo.toml -- run --seed 1
//! cargo run --release --manifest-path crates/bench/src/bin/perf/Cargo.toml -- \
//!     diff --parent a.json [b.json…] --change c.json [d.json…]
//! cargo run --release --manifest-path crates/bench/src/bin/perf/Cargo.toml -- \
//!     --workload rt-certify --seed 1 --seconds 20 --trace 0
//! ```
//!
//! * `run` measures every workload for `--seconds` (default 20) of
//!   untraced trials after one discarded warm-up trial, then runs one
//!   traced trial per workload. It prints each end-to-end metric by name
//!   and unit with its median, quartiles and sample count, then each
//!   per-layer metric, and writes `results/perf/<--out>.json` (default
//!   `run`) plus `results/perf/trace-<workload>.json` (Chrome trace
//!   format). It exits non-zero when any output differs from its golden
//!   value.
//! * `diff` compares result files by the rule in `stats::compare` and
//!   exits non-zero on a regression or a rise in the error rate.
//! * `--workload W --seed N --seconds S --trace 0|1` measures one
//!   workload and prints, as its last line, one JSON object with the
//!   end-to-end metrics (`--trace 0`) or the per-layer ones (`--trace 1`,
//!   untraced and traced trials interleaved so the tracing overhead is
//!   measured too), plus `correct`, `attempted` and `failed`.
//!
//! Every trial is a child process (`perf trial …`), so each pays its own
//! set-up, its peak RSS is its own, and no thread pool or cache state
//! carries over. The load is a closed loop with one client: a trial runs
//! its searches back to back at a fixed input size.
//!
//! The workloads and why each exists, the metric definitions, and the
//! map from each layer metric to the end-to-end metric and workload it
//! should move are in this directory's `README.md`.

mod json;
mod layers;
mod results;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use json::Json;
use layers::{catalogue_metrics, metric, Metric, END_TO_END, PER_LAYER};
use results::{ResultFile, Stamp, WorkloadResult};
use stats::{median, Summary};
use workloads::{parallel_jobs, run_trial, TrialOutcome, Workload};

/// Trial scratch space (cache stores, checkpoints, JSONL), under the
/// working directory.
const SCRATCH: &str = ".perf_scratch";
const RESULTS_DIR: &str = "results/perf";
/// Untraced trials measured whatever the time budget: enough for
/// quartiles.
const MIN_TRIALS: usize = 2;
/// No trial starts later than this into a measurement.
const HARD_STOP_S: f64 = 120.0;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perf: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn usage() -> String {
    "usage: perf run [--seed N] [--seconds S] [--out NAME]\n\
     \x20      perf diff --parent FILE... --change FILE...\n\
     \x20      perf --workload W --seed N --seconds S --trace 0|1\n\
     workloads: rt-certify vm-certify bug-hunt full-stack"
        .to_string()
}

fn dispatch(args: &[String]) -> Result<i32, String> {
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("trial") => cmd_trial(&args[1..]),
        Some(flag) if flag.starts_with("--") => cmd_measure(args),
        _ => Err(usage()),
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_flag<T: std::str::FromStr>(
    args: &[String],
    name: &str,
    default: Option<T>,
) -> Result<T, String> {
    match flag(args, name) {
        Some(v) => v.parse().map_err(|_| format!("invalid {name} `{v}`")),
        None => default.ok_or_else(|| format!("missing {name}\n{}", usage())),
    }
}

fn parse_workload(name: &str) -> Result<Workload, String> {
    Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`\n{}", usage()))
}

/// `perf trial <workload> <seed> --scratch DIR [--traced] [--chrome PATH]`:
/// one trial in this process, reported as one JSON line.
fn cmd_trial(args: &[String]) -> Result<i32, String> {
    let workload = parse_workload(args.first().ok_or("missing workload")?)?;
    let seed: u64 = args
        .get(1)
        .and_then(|s| s.parse().ok())
        .ok_or("missing or invalid seed")?;
    let scratch = flag(args, "--scratch").ok_or("missing --scratch")?;
    let traced = args.iter().any(|a| a == "--traced");
    let chrome = flag(args, "--chrome").map(Path::new);
    let outcome = run_trial(workload, seed, traced, Path::new(scratch), chrome)?;
    println!("{}", outcome.to_json());
    Ok(0)
}

/// The trials of one workload's measurement.
struct Measured {
    warmup: TrialOutcome,
    untraced: Vec<TrialOutcome>,
    traced: Vec<TrialOutcome>,
}

impl Measured {
    fn all(&self) -> impl Iterator<Item = &TrialOutcome> {
        std::iter::once(&self.warmup)
            .chain(&self.untraced)
            .chain(&self.traced)
    }

    fn mismatches(&self) -> Vec<String> {
        let mut all: Vec<String> = self.all().flat_map(|t| t.mismatches.clone()).collect();
        all.sort();
        all.dedup();
        all
    }

    fn values(&self, name: &str) -> Vec<f64> {
        self.untraced.iter().map(|t| t.end_to_end(name)).collect()
    }

    /// Per-layer medians over the traced trials, with the tracing
    /// overhead on the searches' wall time.
    fn per_layer(&self) -> Vec<Metric> {
        let mut names: Vec<(String, String)> = Vec::new();
        for m in self.traced.iter().flat_map(|t| &t.layers) {
            if !names.iter().any(|(n, _)| *n == m.name) {
                names.push((m.name.clone(), m.unit.clone()));
            }
        }
        let mut out: Vec<Metric> = names
            .into_iter()
            .map(|(name, unit)| {
                let values: Vec<f64> = self
                    .traced
                    .iter()
                    .filter_map(|t| t.layers.iter().find(|m| m.name == name))
                    .map(|m| m.value)
                    .collect();
                metric(&name, &unit, median(&values))
            })
            .collect();
        let traced: Vec<f64> = self.traced.iter().map(|t| t.search_s).collect();
        out.push(metric(
            "trace.overhead_pct",
            "%",
            100.0 * (median(&traced) / median(&self.values("search_s")) - 1.0),
        ));
        out
    }
}

/// Which trials a measurement runs besides the untraced ones.
enum Tracing {
    Off,
    /// Alternate untraced and traced trials.
    Interleaved,
    /// One traced trial at the end, writing its Chrome trace here.
    Last(PathBuf),
}

/// Runs one trial in a child process; returns it and its wall time.
fn spawn_trial(
    workload: Workload,
    seed: u64,
    index: usize,
    traced: bool,
    chrome: Option<&Path>,
) -> Result<(TrialOutcome, f64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let scratch = Path::new(SCRATCH).join(format!(
        "{}-{}-{index}",
        std::process::id(),
        workload.name()
    ));
    let mut cmd = Command::new(exe);
    cmd.args(["trial", workload.name(), &seed.to_string(), "--scratch"])
        .arg(&scratch);
    if traced {
        cmd.arg("--traced");
    }
    if let Some(path) = chrome {
        cmd.arg("--chrome").arg(path);
    }
    let t = Instant::now();
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a trial: {e}"))?;
    let wall = t.elapsed().as_secs_f64();
    // A trial removes its own scratch; this covers one that crashed.
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(SCRATCH);
    if !out.status.success() {
        return Err(format!(
            "trial {index} of {} failed ({})",
            workload.name(),
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or("trial printed nothing")?;
    Ok((TrialOutcome::from_json(&Json::parse(line)?)?, wall))
}

/// Measures `workload`: one discarded warm-up trial, then trials until
/// `seconds` have passed since the warm-up started (at least
/// [`MIN_TRIALS`] untraced ones, and one traced one when interleaving).
fn measure(
    workload: Workload,
    seed: u64,
    seconds: f64,
    tracing: Tracing,
) -> Result<Measured, String> {
    let begin = Instant::now();
    let (warmup, wall) = spawn_trial(workload, seed, 0, false, None)?;
    let mut m = Measured {
        warmup,
        untraced: Vec::new(),
        traced: Vec::new(),
    };
    // Expected wall time of the next untraced / traced trial.
    let mut expect = [wall, wall * 1.5];
    let interleave = matches!(tracing, Tracing::Interleaved);
    loop {
        let traced = interleave && m.untraced.len() > m.traced.len();
        let needed = if interleave {
            m.untraced.is_empty() || m.traced.is_empty()
        } else {
            m.untraced.len() < MIN_TRIALS
        };
        let elapsed = begin.elapsed().as_secs_f64();
        let next = expect[traced as usize];
        if elapsed + next > HARD_STOP_S || (!needed && elapsed + next > seconds) {
            break;
        }
        let index = 1 + m.untraced.len() + m.traced.len();
        let (trial, wall) = spawn_trial(workload, seed, index, traced, None)?;
        expect[traced as usize] = wall;
        if traced {
            m.traced.push(trial);
        } else {
            m.untraced.push(trial);
        }
    }
    if let Tracing::Last(chrome) = tracing {
        let index = 1 + m.untraced.len();
        m.traced
            .push(spawn_trial(workload, seed, index, true, Some(&chrome))?.0);
    }
    Ok(m)
}

/// The one-workload form: its last line is one JSON object.
fn cmd_measure(args: &[String]) -> Result<i32, String> {
    let workload = parse_workload(flag(args, "--workload").ok_or_else(usage)?)?;
    let seed: u64 = parse_flag(args, "--seed", None)?;
    let seconds: f64 = parse_flag(args, "--seconds", None)?;
    let trace: u8 = parse_flag(args, "--trace", Some(0))?;
    let tracing = match trace {
        0 => Tracing::Off,
        1 => Tracing::Interleaved,
        _ => return Err("--trace takes 0 or 1".to_string()),
    };
    let m = measure(workload, seed, seconds, tracing)?;
    let metrics: Vec<Metric> = if trace == 0 {
        END_TO_END
            .iter()
            .map(|e| metric(e.name, e.unit, median(&m.values(e.name))))
            .collect()
    } else {
        catalogue_metrics(&m.per_layer())
    };
    print_section(workload, seed, &m, trace == 1);
    let metrics = metrics.iter().fold(Json::obj(), |o, mm| {
        o.with(
            &mm.name,
            Json::obj()
                .with("value", mm.value)
                .with("unit", mm.unit.as_str()),
        )
    });
    let line = Json::obj()
        .with("correct", m.mismatches().is_empty())
        .with("attempted", m.all().map(|t| t.attempted).sum::<u64>())
        .with("failed", m.all().map(|t| t.failed).sum::<u64>())
        .with("metrics", metrics);
    println!("{line}");
    Ok(0)
}

/// Prints one workload's end-to-end table and, when it ran traced
/// trials, its per-layer table.
fn print_section(workload: Workload, seed: u64, m: &Measured, layers: bool) {
    println!(
        "== {} (seed {seed}; {} measured trials after 1 warm-up, {} traced)",
        workload.name(),
        m.untraced.len(),
        m.traced.len()
    );
    println!("   {}", workload.why());
    println!(
        "   {:<24} {:<6} {:>12} {:>12} {:>12} {:>4}",
        "end-to-end", "unit", "median", "q1", "q3", "n"
    );
    for e in END_TO_END {
        if let Some(s) = Summary::of(&m.values(e.name)) {
            println!(
                "   {:<24} {:<6} {:>12.5} {:>12.5} {:>12.5} {:>4}",
                e.name, e.unit, s.median, s.q1, s.q3, s.n
            );
        }
    }
    let attempted: u64 = m.all().map(|t| t.attempted).sum();
    let failed: u64 = m.all().map(|t| t.failed).sum();
    println!(
        "   {:<24} {:<6} {:>12} ({failed} failed of {attempted} executions attempted)",
        "error_rate",
        "ratio",
        failed as f64 / attempted.max(1) as f64
    );
    for mismatch in m.mismatches() {
        println!("   GOLDEN MISMATCH {mismatch}");
    }
    if layers && !m.traced.is_empty() {
        println!(
            "   {:<32} {:<6} {:>14}  better",
            "per-layer (traced)", "unit", "value"
        );
        for l in m.per_layer() {
            let better = PER_LAYER
                .iter()
                .find(|(n, _, _)| *n == l.name)
                .map_or("", |(_, _, b)| b.as_str());
            println!(
                "   {:<32} {:<6} {:>14.4}  {better}",
                l.name, l.unit, l.value
            );
        }
    }
    println!();
}

/// The first line a command prints, trimmed; "unknown" if it cannot run.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn stamp(seed: u64, seconds: f64) -> Stamp {
    let mut git_sha = command_line("git", &["rev-parse", "HEAD"]);
    // A first line of `git status` output means modified tracked files.
    if command_line("git", &["status", "--porcelain", "--untracked-files=no"]) != "unknown" {
        git_sha.push_str("-dirty");
    }
    Stamp {
        git_sha,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        rustc: command_line("rustc", &["-V"]),
        seed,
        jobs: parallel_jobs(),
        seconds,
    }
}

/// `perf run`: every workload, then the result file.
fn cmd_run(args: &[String]) -> Result<i32, String> {
    let seed: u64 = parse_flag(args, "--seed", Some(1))?;
    let seconds: f64 = parse_flag(args, "--seconds", Some(20.0))?;
    let out = flag(args, "--out").unwrap_or("run");
    std::fs::create_dir_all(RESULTS_DIR).map_err(|e| format!("{RESULTS_DIR}: {e}"))?;
    let stamp = stamp(seed, seconds);
    println!(
        "perf run: seed {seed}, {seconds} s per workload, nproc {}, jobs {}, {} at {}\n",
        stamp.nproc, stamp.jobs, stamp.rustc, stamp.git_sha
    );
    let mut file = ResultFile {
        stamp,
        workloads: Vec::new(),
    };
    for workload in Workload::ALL {
        let chrome = Path::new(RESULTS_DIR).join(format!("trace-{}.json", workload.name()));
        let m = measure(workload, seed, seconds, Tracing::Last(chrome))?;
        print_section(workload, seed, &m, true);
        file.workloads.push(WorkloadResult {
            name: workload.name().to_string(),
            attempted: m.all().map(|t| t.attempted).sum(),
            failed: m.all().map(|t| t.failed).sum(),
            mismatches: m.mismatches(),
            end_to_end: END_TO_END.iter().map(|e| m.values(e.name)).collect(),
            per_layer: m.per_layer(),
        });
    }
    let path = Path::new(RESULTS_DIR).join(format!("{out}.json"));
    std::fs::write(&path, file.to_json().pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    let clean = file.workloads.iter().all(|w| w.failed == 0);
    Ok(if clean { 0 } else { 1 })
}

/// `perf diff --parent FILE... --change FILE...`.
fn cmd_diff(args: &[String]) -> Result<i32, String> {
    let (mut parents, mut changes) = (Vec::new(), Vec::new());
    let mut side: Option<&mut Vec<ResultFile>> = None;
    for arg in args {
        match arg.as_str() {
            "--parent" => side = Some(&mut parents),
            "--change" => side = Some(&mut changes),
            path => {
                let files = side.as_deref_mut().ok_or_else(usage)?;
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
                files.push(ResultFile::from_json(&json).map_err(|e| format!("{path}: {e}"))?);
            }
        }
    }
    if parents.is_empty() || changes.is_empty() {
        return Err(usage());
    }
    let (table, failed) = results::diff(&parents, &changes);
    print!("{table}");
    Ok(if failed { 1 } else { 0 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_catalogue_names_are_unique() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _, _)| *n).collect();
        names.extend(END_TO_END.iter().map(|e| e.name));
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count);
    }
}
