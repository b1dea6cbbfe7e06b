//! `explore` — the command-line front door to the checkers.
//!
//! ```text
//! explore list
//! explore run <benchmark> [--bug <name>] [--strategy icb|dfs|db:N|random|best-first]
//!             [--bound N] [--fault-bound N] [--budget N] [--jobs N] [--shrink]
//!             [--cache <dir>] [--cache-heuristic]
//!             [--checkpoint <path>] [--checkpoint-every N] [--max-wall-time-ms N]
//!             [--telemetry jsonl:<path>] [--progress] [--profile]
//!             [--serve-metrics <addr>]
//! explore resume <checkpoint> [--jobs N] [--checkpoint-every N]
//!                [--cache <dir>] [--cache-heuristic]
//!                [--telemetry jsonl:<path>] [--progress] [--profile]
//!                [--serve-metrics <addr>]
//! explore top <addr> [--interval-ms N] [--once]
//! explore explain <benchmark> [--bug <name>] [--strategy icb|dfs|db:N|random|best-first]
//!                 [--budget N] [--bound N] [--fault-bound N] [--jobs N] [--out <dir>]
//!                 [--from <run.jsonl>] [--wrap N] [--timings]
//! explore replay <benchmark> [--bug <name>] --schedule "T0 T1 T1 …"
//!                [--telemetry jsonl:<path>]
//! explore report <run.jsonl>... [--markdown] [--top N] [--stitch]
//! explore cache stats|ls <dir>
//! explore cache gc <dir>
//! explore cache invalidate <dir> <benchmark> [--bug <name>]
//! explore disasm <benchmark>
//! ```
//!
//! `--telemetry jsonl:<path>` streams every search event as one JSON
//! object per line to `<path>`; `--progress` prints a rate-limited live
//! status line (with a Theorem-1 ETA) to stderr; `--profile` folds the
//! run's JSONL event stream (with the per-step `choice-point` /
//! `preemption-taken` / `phase-time` events) into a paper-style report
//! (per-bound results, hottest preemption sites, phase timing) and
//! prints it when the search ends. All three can be combined — with
//! `--profile`, the `--telemetry` stream carries the per-step events
//! too, so `explore report` on it prints the same tables.
//!
//! `--serve-metrics <addr>` attaches the live metrics registry to the
//! search and serves it as a Prometheus text-exposition page at
//! `http://<addr>/metrics` (bind to port 0 for an ephemeral port; the
//! resolved address is printed to stderr). The page is rendered from
//! lock-free atomics on every scrape, so serving it costs the search
//! nothing between scrapes. `explore top <addr>` polls such an endpoint
//! (or any Prometheus-compatible ICB exporter) and renders a refreshing
//! terminal status board: per-bound progress with the Theorem-1 ETA,
//! per-worker utilization bars, and a throughput sparkline. `--once`
//! prints a single frame and exits (useful in scripts and CI);
//! `--interval-ms` sets the poll cadence. With `--serve-metrics`, the
//! JSONL stream additionally carries periodic `metrics-snapshot` events
//! that `explore report` turns into throughput-over-time and
//! worker-utilization tables.
//!
//! `--jobs N` shards the exploration over `N` worker threads, each with
//! its own runtime engine and race detector, pulling work from a shared
//! frontier with work-stealing rebalance. Results are merged
//! deterministically: the same report at any `N >= 2`, and `--jobs 1`
//! (the default) stays byte-identical to the sequential checker.
//! Checkpoints taken under `--jobs N` resume at any other `--jobs M`.
//!
//! `--cache <dir>` attaches a persistent state-fingerprint cache: a
//! completed bug-free run certifies its result in `<dir>` and records
//! every fully-explored `(state, next-thread)` subtree, so a later run
//! of the same program prunes already-covered work items — or, when the
//! certification ledger already covers the requested bound, skips the
//! search entirely. Exact (and therefore sound) for VM benchmarks;
//! runtime benchmarks use heuristic happens-before fingerprints and
//! require the explicit `--cache-heuristic` opt-in, which marks the
//! report non-exhaustive. `explore cache stats|ls|gc|invalidate`
//! administers a cache directory.
//!
//! `--checkpoint <path>` makes the search crash-resilient: a snapshot of
//! the full search state is written atomically every `--checkpoint-every`
//! executions (default 1000) and on any abort, including Ctrl-C. After a
//! crash, `explore resume <checkpoint>` rebuilds the benchmark from the
//! snapshot's metadata and continues the search; because snapshots sit
//! at execution boundaries and replay is deterministic, the final report
//! matches the uninterrupted run's. `--max-wall-time-ms` arms a
//! per-execution watchdog so a hung execution becomes a recoverable
//! outcome instead of a wedged search. `explore report --stitch` merges
//! the per-segment JSONL logs of a resumed run into one report.
//!
//! `explain` turns the first witness of a search (or of a previously
//! recorded `--telemetry` JSONL log, via `--from`) into a self-contained
//! explanation bundle under `--out <dir>`: `witness.json` (the shrunk,
//! per-step-attributed schedule), `lanes.txt` (the per-thread lane
//! rendering, wrapped at `--wrap` columns), `hb.dot` / `hb.json` (the
//! happens-before relation as a causal graph, racing pair highlighted),
//! `trace.chrome.json` (a Chrome trace-event timeline loadable in
//! Perfetto / `chrome://tracing`), and `EXPLANATION.md` tying them
//! together with the nearest-passing-schedule diff. Every artifact is a
//! pure function of the witness, so `--jobs N` produces byte-identical
//! bundles. `--timings` adds the search's wall-clock phase spans to
//! the Chrome trace (opting out of byte-determinism).
//!
//! Examples:
//!
//! ```sh
//! cargo run --release -p icb-bench --bin explore -- list
//! cargo run --release -p icb-bench --bin explore -- run "Bluetooth" --bug check-then-increment
//! cargo run --release -p icb-bench --bin explore -- explain "Bluetooth" --out bundle/
//! cargo run --release -p icb-bench --bin explore -- run "Work Stealing Q." --strategy random --budget 5000
//! cargo run --release -p icb-bench --bin explore -- run "Bluetooth" --telemetry jsonl:events.jsonl --profile
//! cargo run --release -p icb-bench --bin explore -- report events.jsonl --markdown
//! cargo run --release -p icb-bench --bin explore -- disasm "Transaction Manager"
//! ```

use std::io::BufWriter;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use icb_cache::CacheStore;
use icb_core::search::{Search, SearchConfig, SearchReport, Strategy};
use icb_core::snapshot::interrupt;
use icb_core::NullSink;
use icb_core::{
    render, shrink, Checkpointer, ControlledProgram, CoverageTracker, ExplainedWitness,
    MetricsRegistry, ReplayScheduler, Schedule, SearchObserver, SearchSnapshot,
};
use icb_race::CausalGraph;
use icb_telemetry::export::chrome::ChromeTrace;
use icb_telemetry::{
    parse_exposition, render_markdown, render_text, scrape, series_value, JsonlSink, MetricsServer,
    MultiObserver, ProgressReporter, ReportBuilder, RunReport,
};
use icb_workloads::registry::{all_benchmarks, program_identity, AnyProgram, BenchmarkInfo};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!();
            eprintln!("usage:");
            eprintln!("  explore list");
            eprintln!(
                "  explore run <benchmark> [--bug <name>] [--strategy icb|dfs|db:N|random|best-first]"
            );
            eprintln!(
                "              [--bound N] [--fault-bound N] [--budget N] [--jobs N] [--shrink]"
            );
            eprintln!("              [--cache <dir>] [--cache-heuristic]");
            eprintln!(
                "              [--checkpoint <path>] [--checkpoint-every N] [--max-wall-time-ms N]"
            );
            eprintln!("              [--telemetry jsonl:<path>] [--progress] [--profile]");
            eprintln!("              [--serve-metrics <addr>]");
            eprintln!("  explore resume <checkpoint> [--jobs N] [--checkpoint-every N]");
            eprintln!("                 [--cache <dir>] [--cache-heuristic]");
            eprintln!("                 [--telemetry jsonl:<path>] [--progress] [--profile]");
            eprintln!("                 [--serve-metrics <addr>]");
            eprintln!("  explore top <addr> [--interval-ms N] [--once]");
            eprintln!(
                "  explore explain <benchmark> [--bug <name>] [--strategy s] [--budget N] [--bound N]"
            );
            eprintln!("                  [--fault-bound N] [--jobs N] [--out <dir>] [--from <run.jsonl>] [--wrap N] [--timings]");
            eprintln!("  explore replay <benchmark> [--bug <name>] --schedule \"T0 T1 ...\"");
            eprintln!("                 [--telemetry jsonl:<path>]");
            eprintln!("  explore report <run.jsonl>... [--markdown] [--top N] [--stitch]");
            eprintln!("  explore cache stats|ls|gc <dir>");
            eprintln!("  explore cache invalidate <dir> <benchmark> [--bug <name>]");
            eprintln!("  explore disasm <benchmark>");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("list") => {
            list();
            Ok(())
        }
        Some("run") => cmd_run(&args[1..]),
        Some("resume") => cmd_resume(&args[1..]),
        Some("top") => cmd_top(&args[1..]),
        Some("explain") => cmd_explain(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("report") => cmd_report(&args[1..]),
        Some("cache") => cmd_cache(&args[1..]),
        Some("disasm") => cmd_disasm(&args[1..]),
        other => Err(match other {
            Some(cmd) => format!("unknown command `{cmd}`"),
            None => "missing command".to_string(),
        }),
    }
}

fn list() {
    for bench in all_benchmarks() {
        println!("{} ({} threads)", bench.name, bench.paper_threads);
        for bug in &bench.bugs {
            if bug.expected_faults > 0 {
                println!(
                    "    --bug \"{}\" (expected bound {}, fault bound {})",
                    bug.name, bug.expected_bound, bug.expected_faults
                );
            } else {
                println!(
                    "    --bug \"{}\" (expected bound {})",
                    bug.name, bug.expected_bound
                );
            }
        }
    }
}

fn find_benchmark(name: &str) -> Result<BenchmarkInfo, String> {
    all_benchmarks()
        .into_iter()
        .find(|b| b.name.eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown benchmark `{name}` (see `explore list`)"))
}

fn build_program(bench: &BenchmarkInfo, bug: Option<&str>) -> Result<AnyProgram, String> {
    match bug {
        None => Ok((bench.correct)()),
        Some(name) => bench
            .bugs
            .iter()
            .find(|b| b.name.eq_ignore_ascii_case(name))
            .map(|b| (b.build)())
            .ok_or_else(|| format!("unknown bug `{name}` for {}", bench.name)),
    }
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Opens the `--telemetry jsonl:<path>` sink, when requested.
fn open_jsonl(
    args: &[String],
    profile: bool,
) -> Result<Option<JsonlSink<BufWriter<std::fs::File>>>, String> {
    match flag_value(args, "--telemetry") {
        Some(spec) => {
            let path = spec
                .strip_prefix("jsonl:")
                .ok_or("unsupported --telemetry sink (expected jsonl:<path>)")?;
            let file =
                std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
            Ok(Some(
                JsonlSink::new(BufWriter::new(file)).with_profile_events(profile),
            ))
        }
        None => Ok(None),
    }
}

/// The `--profile` observer: the JSONL event stream, profile events
/// included, folded in memory into the report `explore report` would
/// print for the same log.
fn profile_sink() -> JsonlSink<ReportBuilder> {
    JsonlSink::new(ReportBuilder::new()).with_profile_events(true)
}

/// Drains a finished JSONL sink, warning if events were lost.
fn close_jsonl(sink: JsonlSink<BufWriter<std::fs::File>>) {
    if sink.failed() {
        eprintln!("warning: telemetry stream hit a write error; events were dropped");
    }
    drop(sink.into_inner()); // flush the BufWriter
}

/// Parses `--jobs`, defaulting to one (sequential) worker.
fn parse_jobs(args: &[String]) -> Result<usize, String> {
    match flag_value(args, "--jobs") {
        Some(v) => v.parse().map_err(|_| "invalid --jobs".into()),
        None => Ok(1),
    }
}

/// Parses `--fault-bound`, defaulting to zero (no fault injection).
fn parse_fault_bound(args: &[String]) -> Result<usize, String> {
    match flag_value(args, "--fault-bound") {
        Some(v) => v.parse().map_err(|_| "invalid --fault-bound".into()),
        None => Ok(0),
    }
}

/// Maps a `--strategy` name to the session [`Strategy`].
fn parse_strategy(name: &str) -> Result<Strategy, String> {
    match name {
        "icb" => Ok(Strategy::Icb),
        "dfs" => Ok(Strategy::Dfs),
        "random" => Ok(Strategy::Random { seed: 0x1cb }),
        "best-first" => Ok(Strategy::BestFirst),
        other => match other.strip_prefix("db:").map(str::parse) {
            Some(Ok(bound)) => Ok(Strategy::DepthBounded(bound)),
            _ => Err(format!("unknown strategy `{other}`")),
        },
    }
}

/// Parses `--checkpoint-every`, defaulting to one snapshot per 1000
/// executions.
fn checkpoint_every(args: &[String]) -> Result<usize, String> {
    match flag_value(args, "--checkpoint-every") {
        Some(v) => v.parse().map_err(|_| "invalid --checkpoint-every".into()),
        None => Ok(1000),
    }
}

/// Arms the per-execution watchdog on a runtime benchmark, so a hung
/// execution becomes a recoverable `watchdog-timeout` outcome.
fn arm_watchdog(program: &mut AnyProgram, ms: u64) -> Result<(), String> {
    match program {
        AnyProgram::Runtime(p) => {
            p.config_mut().max_wall_time = Some(Duration::from_millis(ms));
            Ok(())
        }
        AnyProgram::Vm(_) => Err(
            "--max-wall-time-ms applies to runtime benchmarks only (VM models cannot hang)".into(),
        ),
    }
}

/// Opens the `--cache <dir>` store for this benchmark/bug combination,
/// when requested.
fn open_cache(
    args: &[String],
    bench_name: &str,
    bug: Option<&str>,
    program: &AnyProgram,
) -> Result<Option<CacheStore>, String> {
    match flag_value(args, "--cache") {
        Some(dir) => {
            let id = program_identity(bench_name, bug, program);
            CacheStore::open(Path::new(dir), id)
                .map(Some)
                .map_err(|e| format!("cannot open cache {dir}: {e}"))
        }
        None => Ok(None),
    }
}

/// Warns when a certification could not be persisted (the run itself
/// already succeeded; only the cache write failed).
fn report_cache_errors(cache: &Option<CacheStore>) {
    if let Some(e) = cache.as_ref().and_then(|c| c.last_persist_error()) {
        eprintln!("warning: cache segment could not be written: {e}");
    }
}

/// Opens the `--serve-metrics <addr>` registry and HTTP listener, when
/// requested. The registry comes back alongside the server so `run` /
/// `resume` can wire the same instance into the search (and a shared
/// [`ProgressReporter`]).
fn open_metrics(
    args: &[String],
    paper_threads: usize,
) -> Result<Option<(Arc<MetricsRegistry>, MetricsServer)>, String> {
    match flag_value(args, "--serve-metrics") {
        Some(addr) => {
            let registry = Arc::new(MetricsRegistry::new());
            // Same Theorem-1 parameterization the progress reporter
            // uses, so /metrics and `explore top` carry the ETA too.
            let n = paper_threads as u64;
            registry.set_theorem1(n, n);
            let server = MetricsServer::start(addr, Arc::clone(&registry))
                .map_err(|e| format!("cannot serve metrics on {addr}: {e}"))?;
            eprintln!("serving metrics at http://{}/metrics", server.addr());
            Ok(Some((registry, server)))
        }
        None => Ok(None),
    }
}

/// The observer bundle shared by `run` and `resume`: an optional JSONL
/// event stream, a live progress line, and the `--profile` report fold.
struct Observers {
    jsonl: Option<JsonlSink<BufWriter<std::fs::File>>>,
    progress: Option<ProgressReporter<std::io::Stderr>>,
    profile: Option<JsonlSink<ReportBuilder>>,
}

impl Observers {
    fn from_args(
        args: &[String],
        paper_threads: usize,
        metrics: Option<&Arc<MetricsRegistry>>,
    ) -> Result<Self, String> {
        let profile = args.iter().any(|a| a == "--profile");
        Ok(Observers {
            jsonl: open_jsonl(args, profile)?,
            progress: args.iter().any(|a| a == "--progress").then(|| {
                // n from the registry; b ≈ one blocking step
                // (termination) per thread — good enough for an
                // order-of-magnitude ETA.
                let n = paper_threads as u64;
                let reporter = ProgressReporter::stderr();
                match metrics {
                    // The search mirrors its events into a shared
                    // registry (--serve-metrics): the reporter renders
                    // that registry, so the status line, /metrics, and
                    // `explore top` all show the same numbers.
                    Some(registry) => reporter.with_registry(Arc::clone(registry)),
                    None => {
                        reporter.registry().set_theorem1(n, n);
                        reporter
                    }
                }
            }),
            profile: profile.then(profile_sink),
        })
    }

    fn fan_out(&mut self) -> MultiObserver<'_> {
        let mut observers = MultiObserver::new();
        if let Some(sink) = self.jsonl.as_mut() {
            observers.push(sink);
        }
        if let Some(reporter) = self.progress.as_mut() {
            observers.push(reporter);
        }
        if let Some(sink) = self.profile.as_mut() {
            observers.push(sink);
        }
        observers
    }

    /// Flushes the JSONL stream and prints the report, the `--profile`
    /// tables, and — when a bug was found — the witness.
    fn finish(
        self,
        report: &SearchReport,
        program: &AnyProgram,
        args: &[String],
        registry: Option<&MetricsRegistry>,
    ) -> Result<(), String> {
        let top: usize = match flag_value(args, "--top") {
            Some(v) => v.parse().map_err(|_| "invalid --top")?,
            None => 10,
        };
        if let Some(sink) = self.jsonl {
            close_jsonl(sink);
        }
        println!("{report}");
        if let Some(sink) = self.profile {
            let run = sink.into_inner().finish()?;
            println!();
            print!("{}", render_text(&[run], top));
        }
        if let Some(bug) = report.first_bug() {
            println!();
            println!("witness: {}", bug.schedule);
            if args.iter().any(|a| a == "--shrink") {
                let shrunk = shrink::minimize_witness(program, &bug.schedule);
                if let Some(r) = registry {
                    r.shrink_replays_add(shrunk.replays);
                }
                println!(
                    "shrunk to {} forced choice(s) in {} replays: {}",
                    shrunk.schedule.len(),
                    shrunk.replays,
                    shrunk.schedule
                );
            }
            let mut replay = ReplayScheduler::new(bug.schedule.clone());
            let result = program.execute(&mut replay, &mut NullSink);
            println!();
            println!("{}", render::lanes(&result.trace));
        }
        Ok(())
    }
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let name = args.first().ok_or("missing benchmark name")?;
    let bench = find_benchmark(name)?;
    let mut program = build_program(&bench, flag_value(args, "--bug"))?;

    let budget: usize = match flag_value(args, "--budget") {
        Some(v) => v.parse().map_err(|_| "invalid --budget")?,
        None => 200_000,
    };
    let bound: Option<usize> = match flag_value(args, "--bound") {
        Some(v) => Some(v.parse().map_err(|_| "invalid --bound")?),
        None => None,
    };
    let config = SearchConfig {
        max_executions: Some(budget),
        preemption_bound: bound,
        fault_bound: parse_fault_bound(args)?,
        stop_on_first_bug: true,
        ..SearchConfig::default()
    };
    let strat = flag_value(args, "--strategy").unwrap_or("icb");
    let strategy = parse_strategy(strat)?;
    let jobs = parse_jobs(args)?;
    if let Some(ms) = flag_value(args, "--max-wall-time-ms") {
        let ms: u64 = ms.parse().map_err(|_| "invalid --max-wall-time-ms")?;
        arm_watchdog(&mut program, ms)?;
    }

    let cache = open_cache(args, bench.name, flag_value(args, "--bug"), &program)?;
    let metrics = open_metrics(args, bench.paper_threads)?;
    let mut obs =
        Observers::from_args(args, bench.paper_threads, metrics.as_ref().map(|(r, _)| r))?;
    println!("exploring {} with {strat}…", bench.name);

    let report = {
        let mut observers = obs.fan_out();
        let mut search = Search::over(&program)
            .strategy(strategy)
            .config(config)
            .jobs(jobs)
            .observer(&mut observers);
        if let Some((registry, _)) = &metrics {
            search = search.metrics(Arc::clone(registry));
        }
        if let Some(store) = &cache {
            search = search
                .cache(store)
                .cache_heuristic(args.iter().any(|a| a == "--cache-heuristic"));
        }
        if let Some(path) = flag_value(args, "--checkpoint") {
            // Snapshot metadata carries everything `resume` needs to
            // rebuild the same program with the same flags.
            let mut meta = vec![("benchmark".to_string(), bench.name.to_string())];
            for flag in ["--bug", "--max-wall-time-ms"] {
                if let Some(v) = flag_value(args, flag) {
                    meta.push((flag.trim_start_matches('-').to_string(), v.to_string()));
                }
            }
            let ckpt = Checkpointer::new(path, checkpoint_every(args)?).with_meta(meta);
            interrupt::install();
            search = search.checkpoint(ckpt);
        }
        search.run().map_err(|e| e.to_string())?
    };
    let registry = metrics.as_ref().map(|(r, _)| Arc::clone(r));
    if let Some((_, server)) = metrics {
        server.shutdown();
    }
    report_cache_errors(&cache);
    obs.finish(&report, &program, args, registry.as_deref())
}

fn cmd_resume(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("missing checkpoint path")?;
    let snapshot = SearchSnapshot::read_from(Path::new(path))
        .map_err(|e| format!("cannot resume from {path}: {e}"))?;

    // Rebuild the program from the snapshot's metadata.
    let bench_name = snapshot
        .meta_value("benchmark")
        .ok_or("checkpoint carries no benchmark metadata (not written by `explore run`?)")?
        .to_string();
    let bug = snapshot.meta_value("bug").map(str::to_string);
    let max_wall_time_ms = snapshot.meta_value("max-wall-time-ms").map(str::to_string);
    let bench = find_benchmark(&bench_name)?;
    let mut program = build_program(&bench, bug.as_deref())?;
    if let Some(ms) = max_wall_time_ms {
        let ms: u64 = ms
            .parse()
            .map_err(|_| "corrupt max-wall-time-ms metadata in checkpoint")?;
        arm_watchdog(&mut program, ms)?;
    }

    // Keep checkpointing to the same file; the first new snapshot is due
    // `--checkpoint-every` executions past the one we resumed from (the
    // resumed drive re-arms the checkpointer from the snapshot).
    let ckpt = Checkpointer::new(path, checkpoint_every(args)?).with_meta(snapshot.meta.clone());
    interrupt::install();

    let jobs = parse_jobs(args)?;
    let cache = open_cache(args, &bench_name, bug.as_deref(), &program)?;
    let metrics = open_metrics(args, bench.paper_threads)?;
    let mut obs =
        Observers::from_args(args, bench.paper_threads, metrics.as_ref().map(|(r, _)| r))?;
    let strat = snapshot.strategy.clone();
    println!(
        "resuming {} with {strat} from {path} ({} executions done)…",
        bench.name, snapshot.base.executions
    );
    let report = {
        let mut observers = obs.fan_out();
        let mut search = Search::over(&program)
            .resume_from(snapshot)
            .jobs(jobs)
            .observer(&mut observers)
            .checkpoint(ckpt);
        if let Some((registry, _)) = &metrics {
            search = search.metrics(Arc::clone(registry));
        }
        if let Some(store) = &cache {
            search = search
                .cache(store)
                .cache_heuristic(args.iter().any(|a| a == "--cache-heuristic"));
        }
        search
            .run()
            .map_err(|e| format!("cannot resume from {path}: {e}"))?
    };
    let registry = metrics.as_ref().map(|(r, _)| Arc::clone(r));
    if let Some((_, server)) = metrics {
        server.shutdown();
    }
    report_cache_errors(&cache);
    obs.finish(&report, &program, args, registry.as_deref())
}

/// One eighth-block per sample, scaled to the window's maximum.
fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().copied().fold(0.0_f64, f64::max);
    values
        .iter()
        .map(|&v| {
            if max <= 0.0 || v <= 0.0 {
                BARS[0]
            } else {
                BARS[(((v / max) * 7.0).round() as usize).min(7)]
            }
        })
        .collect()
}

/// A `width`-cell utilization bar: `[██████··············]`.
fn utilization_bar(fraction: f64, width: usize) -> String {
    let filled = ((fraction.clamp(0.0, 1.0)) * width as f64).round() as usize;
    let mut bar = String::with_capacity(width + 2);
    bar.push('[');
    for i in 0..width {
        bar.push(if i < filled { '█' } else { '·' });
    }
    bar.push(']');
    bar
}

/// Extracts the strategy label from the `icb_info{strategy="…"}` series.
fn exposition_strategy(parsed: &[(String, f64)]) -> Option<String> {
    parsed.iter().find_map(|(name, _)| {
        name.strip_prefix("icb_info{strategy=\"")?
            .strip_suffix("\"}")
            .map(str::to_string)
    })
}

/// Renders one `explore top` frame from a parsed exposition page and the
/// recent per-poll execution rates (newest last). Pure, so the board is
/// testable without a live server.
fn render_top_frame(parsed: &[(String, f64)], rates: &[f64]) -> String {
    let value = |name: &str| series_value(parsed, name);
    let count = |name: &str| value(name).unwrap_or(0.0);
    let mut out = String::new();

    let strategy = exposition_strategy(parsed).unwrap_or_else(|| "?".to_string());
    let rate = rates.last().copied().unwrap_or_else(|| {
        let elapsed = count("icb_elapsed_seconds");
        if elapsed > 0.0 {
            count("icb_executions_total") / elapsed
        } else {
            0.0
        }
    });
    out.push_str(&format!(
        "[{strategy}] {:.0}s elapsed — {} execs ({rate:.0}/s), {} states, {} bugs\n",
        count("icb_elapsed_seconds"),
        count("icb_executions_total"),
        count("icb_distinct_states"),
        count("icb_bugs_reported_total"),
    ));

    if let Some(bound) = value("icb_current_bound") {
        let mut line = format!(
            "bound {bound:.0}: {} execs, queue {}, {} deferred",
            count("icb_bound_executions"),
            count("icb_work_queue_depth"),
            count("icb_work_items_deferred_total"),
        );
        match value("icb_eta_seconds") {
            Some(eta) if eta.is_finite() => line.push_str(&format!(", eta {eta:.1}s")),
            Some(_) => line.push_str(", eta beyond the Theorem-1 horizon"),
            None => {}
        }
        line.push('\n');
        out.push_str(&line);
    }

    let workers = count("icb_workers") as usize;
    if workers > 1 {
        out.push_str(&format!(
            "workers ({workers}): frontier {}, pop waits {}, donations {}, pump depth {}\n",
            count("icb_frontier_queue_depth"),
            count("icb_frontier_pop_waits_total"),
            count("icb_steal_donations_total"),
            count("icb_pump_channel_depth"),
        ));
        for w in 0..workers {
            let busy = count(&format!("icb_worker_busy_seconds_total{{worker=\"{w}\"}}"));
            let idle = count(&format!("icb_worker_idle_seconds_total{{worker=\"{w}\"}}"));
            let execs = count(&format!("icb_worker_executions_total{{worker=\"{w}\"}}"));
            let util = if busy + idle > 0.0 {
                busy / (busy + idle)
            } else {
                0.0
            };
            out.push_str(&format!(
                "  w{w} {} {:3.0}%  {execs:.0} execs\n",
                utilization_bar(util, 20),
                util * 100.0
            ));
        }
    }

    let faults = count("icb_faults_injected_total");
    if faults > 0.0 {
        out.push_str(&format!(
            "faults: {faults:.0} injected at fallible operations\n"
        ));
    }

    let shrink_replays = count("icb_shrink_replays_total");
    if shrink_replays > 0.0 {
        out.push_str(&format!(
            "shrink: {shrink_replays:.0} replays spent minimizing witnesses\n"
        ));
    }

    let probes = count("icb_cache_table_probes_total");
    if probes > 0.0 {
        out.push_str(&format!(
            "cache: {} pruned, {} stored; table {probes:.0} probes, {:.0}% covered\n",
            count("icb_cache_hits_total"),
            count("icb_cache_stores_total"),
            100.0 * count("icb_cache_table_hits_total") / probes,
        ));
    }
    let checkpoints = count("icb_checkpoints_written_total");
    let quarantined = count("icb_quarantined_total");
    if checkpoints > 0.0 || quarantined > 0.0 {
        out.push_str(&format!(
            "resilience: {checkpoints:.0} checkpoints, {quarantined:.0} quarantined, {} watchdog trips\n",
            count("icb_watchdog_trips_total"),
        ));
    }
    if rates.len() > 1 {
        out.push_str(&format!("throughput {}\n", sparkline(rates)));
    }
    out
}

fn cmd_top(args: &[String]) -> Result<(), String> {
    let addr = args
        .first()
        .ok_or("missing metrics address (expected `explore top <host:port>`)")?;
    let once = args.iter().any(|a| a == "--once");
    let interval = match flag_value(args, "--interval-ms") {
        Some(v) => Duration::from_millis(v.parse().map_err(|_| "invalid --interval-ms")?),
        None => Duration::from_millis(1000),
    };
    // Rates come from deltas between polls of the cumulative execution
    // counter, keyed on the *server's* clock (icb_elapsed_seconds) so a
    // slow scrape cannot distort them.
    let mut last: Option<(f64, f64)> = None; // (elapsed, executions)
    let mut rates: Vec<f64> = Vec::new();
    let mut connected = false;
    loop {
        let body = match scrape(addr.as_str()) {
            Ok(body) => body,
            Err(e) if connected => {
                println!("metrics endpoint gone ({e}); run finished?");
                return Ok(());
            }
            Err(e) => return Err(format!("cannot scrape {addr}: {e}")),
        };
        connected = true;
        let parsed = parse_exposition(&body);
        let elapsed = series_value(&parsed, "icb_elapsed_seconds").unwrap_or(0.0);
        let executions = series_value(&parsed, "icb_executions_total").unwrap_or(0.0);
        if let Some((prev_elapsed, prev_execs)) = last {
            let dt = elapsed - prev_elapsed;
            if dt > 0.0 {
                rates.push((executions - prev_execs).max(0.0) / dt);
                if rates.len() > 32 {
                    rates.remove(0);
                }
            }
        }
        last = Some((elapsed, executions));
        let frame = render_top_frame(&parsed, &rates);
        if once {
            print!("{frame}");
            return Ok(());
        }
        // Clear + home, then the frame: a flicker-free refresh without
        // pulling in a terminal library.
        print!("\x1b[2J\x1b[H{frame}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        std::thread::sleep(interval);
    }
}

/// Extracts the first reported witness schedule from a `--telemetry`
/// JSONL log (the `"schedule":[…]` field of its first `bug-found`
/// event).
fn schedule_from_jsonl(text: &str) -> Result<Schedule, String> {
    let line = text
        .lines()
        .find(|l| l.contains("\"event\":\"bug-found\""))
        .ok_or("log contains no bug-found event")?;
    let start = line
        .find("\"schedule\":[")
        .ok_or("bug-found event carries no schedule")?
        + "\"schedule\":[".len();
    let body = &line[start..];
    let end = body.find(']').ok_or("unterminated schedule array")?;
    body[..end]
        .parse::<Schedule>()
        .map_err(|e| format!("corrupt schedule in bug-found event: {e}"))
}

/// A filesystem-friendly slug of a benchmark name (`Work Stealing Q.` →
/// `work-stealing-q`).
fn slugify(name: &str) -> String {
    let mut out = String::new();
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('-') && !out.is_empty() {
            out.push('-');
        }
    }
    out.trim_end_matches('-').to_string()
}

/// Writes one bundle artifact, mapping IO errors to a CLI message.
fn write_artifact(dir: &Path, name: &str, contents: &str) -> Result<(), String> {
    let path = dir.join(name);
    std::fs::write(&path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn cmd_explain(args: &[String]) -> Result<(), String> {
    let name = args.first().ok_or("missing benchmark name")?;
    if name.starts_with("--") {
        return Err(
            "missing benchmark name (explain needs a workload, even with --from, \
                    to rebuild the program for replay)"
                .into(),
        );
    }
    let bench = find_benchmark(name)?;
    // Explaining needs a failing program: unlike `run`, an omitted --bug
    // selects the benchmark's first registered bug rather than the
    // correct implementation.
    let bug_name = match flag_value(args, "--bug") {
        Some(b) => Some(b.to_string()),
        None => bench.bugs.first().map(|b| b.name.to_string()),
    };
    let bug_name = bug_name.ok_or_else(|| {
        format!(
            "{} has no registered bugs; pass --bug to pick a failing variant",
            bench.name
        )
    })?;
    let program = build_program(&bench, Some(&bug_name))?;
    let title = format!("{} --bug {}", bench.name, bug_name);

    let registry = MetricsRegistry::new();
    // Only `--timings` reads the search's phase totals.
    let mut profile = args.iter().any(|a| a == "--timings").then(profile_sink);
    let (witness_schedule, reported_preemptions) = match flag_value(args, "--from") {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            println!("explaining first witness recorded in {path}…");
            (schedule_from_jsonl(&text)?, None)
        }
        None => {
            let budget: usize = match flag_value(args, "--budget") {
                Some(v) => v.parse().map_err(|_| "invalid --budget")?,
                None => 200_000,
            };
            let bound: Option<usize> = match flag_value(args, "--bound") {
                Some(v) => Some(v.parse().map_err(|_| "invalid --bound")?),
                None => None,
            };
            let strat = flag_value(args, "--strategy").unwrap_or("icb");
            let strategy = parse_strategy(strat)?;
            let jobs = parse_jobs(args)?;
            println!("exploring {title} with {strat}…");
            let mut search = Search::over(&program)
                .strategy(strategy)
                .config(SearchConfig {
                    max_executions: Some(budget),
                    preemption_bound: bound,
                    fault_bound: parse_fault_bound(args)?,
                    stop_on_first_bug: true,
                    ..SearchConfig::default()
                })
                .jobs(jobs);
            if let Some(sink) = profile.as_mut() {
                search = search.observer(sink);
            }
            let report = search.run().map_err(|e| e.to_string())?;
            let bug = report
                .first_bug()
                .ok_or_else(|| format!("no bug found in {} executions", report.executions))?;
            (bug.schedule.clone(), Some(bug.preemptions))
        }
    };

    let witness = ExplainedWitness::explain_with_metrics(&program, &witness_schedule, &registry);
    if let Some(min) = reported_preemptions {
        // ICB's headline guarantee: the witness the search reports is
        // already preemption-minimal, and shrinking must preserve that.
        if witness.preemptions != min {
            eprintln!(
                "note: shrunk witness has {} preemption(s), search reported {min} \
                 (expected only under non-ICB strategies)",
                witness.preemptions
            );
        }
    }

    let wrap: usize = match flag_value(args, "--wrap") {
        Some(v) => v.parse().map_err(|_| "invalid --wrap")?,
        None => 120,
    };
    let out_dir = flag_value(args, "--out")
        .map(str::to_string)
        .unwrap_or_else(|| format!("explain-{}", slugify(bench.name)));
    let dir = Path::new(&out_dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {out_dir}: {e}"))?;

    let graph = CausalGraph::from_execution(&witness.trace, &witness.outcome);
    let mut chrome = ChromeTrace::new().add_execution(&witness.trace, &witness.outcome);
    if let Some(sink) = profile {
        // With `--from` no search ran: the fold saw no events and the
        // phase totals stay zero.
        let phases = sink.into_inner().finish().map(|run| run.phases);
        chrome = chrome.add_phases(&phases.unwrap_or_default());
    }
    let mut explanation = witness.to_markdown(&title);
    explanation.push_str(
        "\n## Bundle contents\n\n\
         | file | contents |\n|------|----------|\n\
         | `witness.json` | the shrunk schedule with per-step site attribution and enabled sets |\n\
         | `lanes.txt` | per-thread lane rendering of the failing execution |\n\
         | `hb.dot` / `hb.json` | the happens-before causal graph (Graphviz / JSON) |\n\
         | `trace.chrome.json` | Chrome trace-event timeline (open in Perfetto or chrome://tracing) |\n",
    );

    write_artifact(dir, "witness.json", &witness.to_json())?;
    write_artifact(
        dir,
        "lanes.txt",
        &format!("{}\n", render::lanes_wrapped(&witness.trace, wrap)),
    )?;
    write_artifact(dir, "hb.dot", &graph.to_dot())?;
    write_artifact(dir, "hb.json", &graph.to_json())?;
    write_artifact(dir, "trace.chrome.json", &chrome.render())?;
    write_artifact(dir, "EXPLANATION.md", &explanation)?;

    println!("outcome: {}", witness.outcome);
    // The fault clause appears only on faulted witnesses, keeping
    // fault-free output byte-identical to older releases.
    let faults = if witness.faults > 0 {
        format!("{} injected fault(s), ", witness.faults)
    } else {
        String::new()
    };
    println!(
        "witness: {} ({} preemption(s), {faults}{} steps, shrunk in {} replays)",
        witness.schedule,
        witness.preemptions,
        witness.trace.len(),
        witness.shrink_replays,
    );
    println!(
        "bundle: {} (witness.json, lanes.txt, hb.dot, hb.json, trace.chrome.json, EXPLANATION.md)",
        dir.display()
    );
    Ok(())
}

fn cmd_replay(args: &[String]) -> Result<(), String> {
    let name = args.first().ok_or("missing benchmark name")?;
    let bench = find_benchmark(name)?;
    let program = build_program(&bench, flag_value(args, "--bug"))?;
    let schedule: Schedule = flag_value(args, "--schedule")
        .ok_or("missing --schedule")?
        .parse()
        .map_err(|e| format!("{e}"))?;
    let mut replay = ReplayScheduler::new(schedule);

    // A replay is a one-execution "search": when --telemetry is given,
    // wrap the execution in the usual event grammar so `explore report`
    // can digest the log like any other run. Profile events are always
    // on — a single replay is exactly when per-step detail is cheap.
    let result = match open_jsonl(args, true)? {
        Some(mut sink) => {
            let mut coverage = CoverageTracker::new();
            sink.search_started("replay");
            sink.execution_started(1);
            let result = program.execute_observed(&mut replay, &mut coverage, &mut sink);
            coverage.end_execution();
            sink.execution_finished(
                1,
                &result.stats,
                &result.outcome,
                coverage.distinct_states(),
            );
            let buggy = result.outcome.is_bug();
            sink.search_finished(&SearchReport {
                strategy: "replay".to_string(),
                executions: 1,
                distinct_states: coverage.distinct_states(),
                coverage_curve: coverage.into_curve(),
                buggy_executions: usize::from(buggy),
                max_stats: result.stats,
                ..SearchReport::default()
            });
            close_jsonl(sink);
            result
        }
        None => program.execute(&mut replay, &mut NullSink),
    };
    println!("outcome: {}", result.outcome);
    println!(
        "steps: {}, preemptions: {}",
        result.stats.steps, result.stats.preemptions
    );
    println!();
    println!("{}", render::lanes(&result.trace));
    Ok(())
}

fn cmd_report(args: &[String]) -> Result<(), String> {
    let markdown = args.iter().any(|a| a == "--markdown");
    let stitch = args.iter().any(|a| a == "--stitch");
    let top: usize = match flag_value(args, "--top") {
        Some(v) => v.parse().map_err(|_| "invalid --top")?,
        None => 10,
    };
    // Everything that is not a flag (or a flag's value) is a log path.
    let mut paths: Vec<&str> = Vec::new();
    let mut skip = false;
    for arg in args {
        if skip {
            skip = false;
            continue;
        }
        match arg.as_str() {
            "--markdown" | "--stitch" => {}
            "--top" => skip = true,
            other => paths.push(other),
        }
    }
    if paths.is_empty() {
        return Err("missing telemetry log path (expected `explore report <run.jsonl>...`)".into());
    }
    let mut runs: Vec<RunReport> = Vec::with_capacity(paths.len());
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        runs.push(RunReport::from_jsonl(&text).map_err(|e| format!("{path}: {e}"))?);
    }
    if stitch {
        // Segments are passed oldest-first; the stitched report covers
        // the whole resumed run as if it had never been interrupted.
        let merged = RunReport::stitch(&runs).ok_or("nothing to stitch")?;
        runs = vec![merged];
    }
    let rendered = if markdown {
        render_markdown(&runs, top)
    } else {
        render_text(&runs, top)
    };
    print!("{rendered}");
    Ok(())
}

/// Every program the registry can build, with its cache identity —
/// used to label the opaque program-id directories of a cache.
fn known_programs() -> Vec<(u64, String)> {
    let mut out = Vec::new();
    for bench in all_benchmarks() {
        let program = (bench.correct)();
        out.push((
            program_identity(bench.name, None, &program),
            bench.name.to_string(),
        ));
        for bug in &bench.bugs {
            let program = (bug.build)();
            out.push((
                program_identity(bench.name, Some(bug.name), &program),
                format!("{} --bug \"{}\"", bench.name, bug.name),
            ));
        }
    }
    out
}

fn cmd_cache(args: &[String]) -> Result<(), String> {
    let sub = args
        .first()
        .map(String::as_str)
        .ok_or("missing cache subcommand (stats|ls|gc|invalidate)")?;
    let dir = args.get(1).ok_or("missing cache directory")?;
    let root = Path::new(dir);
    let label_of = |id: u64, labels: &[(u64, String)]| {
        labels
            .iter()
            .find(|(known, _)| *known == id)
            .map_or_else(|| "(unknown program)".to_string(), |(_, l)| l.clone())
    };
    match sub {
        "ls" => {
            let labels = known_programs();
            let programs = icb_cache::list_programs(root).map_err(|e| e.to_string())?;
            if programs.is_empty() {
                println!("cache {dir} is empty");
            }
            for p in programs {
                println!(
                    "{:016x}  {} segment(s), {} byte(s)  {}",
                    p.program_id,
                    p.segments,
                    p.bytes,
                    label_of(p.program_id, &labels)
                );
            }
            Ok(())
        }
        "stats" => {
            let labels = known_programs();
            let programs = icb_cache::list_programs(root).map_err(|e| e.to_string())?;
            if programs.is_empty() {
                println!("cache {dir} is empty");
            }
            for p in programs {
                let store = CacheStore::open(root, p.program_id).map_err(|e| {
                    format!("cannot open cached program {:016x}: {e}", p.program_id)
                })?;
                let stats = store.stats();
                println!("{:016x}  {}", p.program_id, label_of(p.program_id, &labels));
                println!(
                    "    {} subtree entries, {} seed states, {} certification(s)",
                    stats.entries,
                    stats.seeds,
                    stats.certifications.len()
                );
                for cert in &stats.certifications {
                    let faults = if cert.fault_bound > 0 {
                        format!(", fault bound <= {}", cert.fault_bound)
                    } else {
                        String::new()
                    };
                    println!(
                        "    certified bug-free: strategy {}, bound {}{faults}, {} executions, {} states",
                        cert.strategy,
                        cert.bound
                            .map_or_else(|| "exhaustive".to_string(), |b| format!("<= {b}")),
                        cert.executions,
                        cert.distinct_states,
                    );
                }
            }
            Ok(())
        }
        "gc" => {
            let (kept, removed) = icb_cache::gc(root).map_err(|e| e.to_string())?;
            println!("kept {kept} program(s), removed {removed} unreadable segment(s)");
            Ok(())
        }
        "invalidate" => {
            let name = args.get(2).ok_or("missing benchmark name")?;
            let bench = find_benchmark(name)?;
            let bug = flag_value(args, "--bug");
            let program = build_program(&bench, bug)?;
            let id = program_identity(bench.name, bug, &program);
            if icb_cache::invalidate(root, id).map_err(|e| e.to_string())? {
                println!("invalidated {id:016x} ({name})");
            } else {
                println!("nothing cached for {id:016x} ({name})");
            }
            Ok(())
        }
        other => Err(format!(
            "unknown cache subcommand `{other}` (expected stats|ls|gc|invalidate)"
        )),
    }
}

fn cmd_disasm(args: &[String]) -> Result<(), String> {
    let name = args.first().ok_or("missing benchmark name")?;
    let bench = find_benchmark(name)?;
    let model = bench
        .vm_model
        .ok_or_else(|| format!("{} has no VM model", bench.name))?();
    let stats = model.stats();
    println!(
        "; {} threads, {} shared / {} blocking / {} local instructions",
        stats.threads,
        stats.shared_instructions,
        stats.blocking_instructions,
        stats.local_instructions
    );
    println!("{}", model.disasm());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(series: &[(&str, f64)]) -> Vec<(String, f64)> {
        series.iter().map(|&(n, v)| (n.to_string(), v)).collect()
    }

    #[test]
    fn top_frame_shows_bound_eta_and_workers() {
        let parsed = page(&[
            ("icb_info{strategy=\"icb\"}", 1.0),
            ("icb_elapsed_seconds", 12.5),
            ("icb_executions_total", 5000.0),
            ("icb_distinct_states", 1200.0),
            ("icb_bugs_reported_total", 0.0),
            ("icb_current_bound", 2.0),
            ("icb_bound_executions", 800.0),
            ("icb_work_queue_depth", 40.0),
            ("icb_work_items_deferred_total", 90.0),
            ("icb_eta_seconds", 33.25),
            ("icb_workers", 2.0),
            ("icb_frontier_queue_depth", 7.0),
            ("icb_frontier_pop_waits_total", 3.0),
            ("icb_steal_donations_total", 1.0),
            ("icb_pump_channel_depth", 2.0),
            ("icb_worker_busy_seconds_total{worker=\"0\"}", 9.0),
            ("icb_worker_idle_seconds_total{worker=\"0\"}", 3.0),
            ("icb_worker_executions_total{worker=\"0\"}", 2600.0),
            ("icb_worker_busy_seconds_total{worker=\"1\"}", 6.0),
            ("icb_worker_idle_seconds_total{worker=\"1\"}", 6.0),
            ("icb_worker_executions_total{worker=\"1\"}", 2400.0),
        ]);
        let frame = render_top_frame(&parsed, &[100.0, 200.0, 400.0]);
        assert!(frame.contains("[icb]"), "{frame}");
        assert!(frame.contains("5000 execs (400/s)"), "{frame}");
        assert!(frame.contains("bound 2: 800 execs, queue 40"), "{frame}");
        assert!(frame.contains("eta 33.2s"), "{frame}");
        assert!(frame.contains("w0 [███████████████·····]  75%"), "{frame}");
        assert!(frame.contains("w1 [██████████··········]  50%"), "{frame}");
        assert!(frame.contains("throughput ▃▅█"), "{frame}");
    }

    #[test]
    fn top_frame_degrades_to_a_single_line_for_a_bare_page() {
        // Before the search reaches its first bound (or for a non-ICB
        // strategy) most series are absent: the frame must still render.
        let parsed = page(&[
            ("icb_info{strategy=\"random\"}", 1.0),
            ("icb_elapsed_seconds", 0.5),
            ("icb_executions_total", 10.0),
            ("icb_distinct_states", 4.0),
            ("icb_workers", 1.0),
        ]);
        let frame = render_top_frame(&parsed, &[]);
        assert!(frame.contains("[random]"), "{frame}");
        // Rate falls back to cumulative executions over server elapsed.
        assert!(frame.contains("(20/s)"), "{frame}");
        assert_eq!(frame.lines().count(), 1, "{frame}");
    }

    #[test]
    fn infinite_eta_is_labelled_not_printed_raw() {
        let parsed = page(&[
            ("icb_info{strategy=\"icb\"}", 1.0),
            ("icb_elapsed_seconds", 1.0),
            ("icb_executions_total", 50.0),
            ("icb_current_bound", 4.0),
            ("icb_eta_seconds", f64::INFINITY),
        ]);
        let frame = render_top_frame(&parsed, &[]);
        assert!(frame.contains("beyond the Theorem-1 horizon"), "{frame}");
        assert!(!frame.contains("inf"), "{frame}");
    }

    #[test]
    fn sparkline_scales_to_the_window_maximum() {
        assert_eq!(sparkline(&[0.0, 50.0, 100.0]), "▁▅█");
        assert_eq!(sparkline(&[]), "");
        // An all-zero window stays flat instead of dividing by zero.
        assert_eq!(sparkline(&[0.0, 0.0]), "▁▁");
    }

    #[test]
    fn utilization_bar_clamps() {
        assert_eq!(utilization_bar(0.0, 4), "[····]");
        assert_eq!(utilization_bar(0.5, 4), "[██··]");
        assert_eq!(utilization_bar(7.5, 4), "[████]");
    }
}
