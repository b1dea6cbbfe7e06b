//! The four workloads, their golden values, and one trial of each.
//!
//! A trial is one closed-loop pass over a workload's searches, run back
//! to back in its own process: set-up (build the programs, open the
//! cache stores, one warm-up execution per program), the timed searches,
//! then the golden checks and the memory reading.

use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use icb_cache::CacheStore;
use icb_core::rng::SplitMix64;
use icb_core::search::{BoundStats, Search, SearchConfig, SearchReport};
use icb_core::{
    Checkpointer, ControlledProgram, ExplorationCache, MetricsRegistry, NoopObserver, NullSink,
    ReplayScheduler, Schedule, SearchObserver,
};
use icb_statevm::{reachable_states, Model, ModelBuilder};
use icb_telemetry::JsonlSink;
use icb_workloads::registry::{all_benchmarks, program_identity, AnyProgram, BenchmarkInfo};

use crate::json::Json;
use crate::layers::{Metric, SearchTrace, TraceLog};
use crate::trace::{self, Span, TimedCache, TimedObserver, TimedProgram, Tracer};

/// One set of searches the benchmark runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    RtCertify,
    VmCertify,
    BugHunt,
    FullStack,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::RtCertify,
        Workload::VmCertify,
        Workload::BugHunt,
        Workload::FullStack,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RtCertify => "rt-certify",
            Workload::VmCertify => "vm-certify",
            Workload::BugHunt => "bug-hunt",
            Workload::FullStack => "full-stack",
        }
    }

    /// Why the workload exists: the layer it loads and the layers it
    /// leaves idle.
    pub fn why(self) -> &'static str {
        match self {
            Workload::RtCertify => {
                "stateless runtime certifies five correct programs at jobs 1; time sits in the \
                 runtime's thread handoff, VM, cache and telemetry idle"
            }
            Workload::VmCertify => {
                "VM certifies seven registry models and sixteen seeded ones of varied sharing; \
                 time sits in the search driver and VM stepping, runtime idle"
            }
            Workload::BugHunt => {
                "ICB finds the minimal witness of all 18 registry bugs, one fresh search each: \
                 many short low-bound searches over both checkers"
            }
            Workload::FullStack => {
                "jobs min(2, nproc) with cold disk cache, checkpoints, JSONL and a metrics \
                 registry: the only load on the frontier, cache, snapshot and telemetry"
            }
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The worker count of the parallel workload.
pub fn parallel_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// How a search's report is checked.
#[derive(Clone, Copy, Debug)]
enum Golden {
    /// A certification at bound `c`: executions, distinct states and the
    /// per-bound rows (`c/f:executions:states:bugs`, space-separated).
    Certify {
        executions: usize,
        states: usize,
        history: &'static str,
    },
    /// A bug hunt: the witness's `(preemptions, faults)` is the
    /// registry's minimum, found after `executions` executions.
    Bug {
        preemptions: usize,
        faults: usize,
        executions: usize,
    },
    /// A generated model searched to exhaustion: every interleaving once
    /// and every reachable state.
    Exhaustive,
}

/// One search of a workload.
struct Job {
    label: String,
    program: AnyProgram,
    config: SearchConfig,
    /// Cache identity, for the workload that opens cache stores.
    cache_id: Option<u64>,
    golden: Golden,
}

impl Job {
    fn runtime(&self) -> bool {
        matches!(self.program, AnyProgram::Runtime(_))
    }
}

fn benchmark(name: &str) -> BenchmarkInfo {
    all_benchmarks()
        .into_iter()
        .find(|b| b.name == name)
        .unwrap_or_else(|| panic!("registry has no benchmark `{name}`"))
}

fn certify(c: Option<usize>, f: usize) -> SearchConfig {
    SearchConfig {
        preemption_bound: c,
        fault_bound: f,
        ..SearchConfig::default()
    }
}

/// Runtime certifications: `(benchmark, c, f, golden)`.
const RT_CERTIFY: [(&str, usize, usize, Golden); 5] = [
    (
        "Bluetooth",
        2,
        0,
        Golden::Certify {
            executions: 3091,
            states: 3998,
            history: "0/0:13:165:0 1/0:241:1334:0 2/0:2837:3998:0",
        },
    ),
    (
        "Work Stealing Q.",
        2,
        0,
        Golden::Certify {
            executions: 312,
            states: 1920,
            history: "0/0:3:74:0 1/0:30:485:0 2/0:279:1920:0",
        },
    ),
    (
        "APE",
        2,
        0,
        Golden::Certify {
            executions: 3215,
            states: 18259,
            history: "0/0:3:90:0 1/0:135:1913:0 2/0:3077:18259:0",
        },
    ),
    (
        "Dryad Channels",
        0,
        0,
        Golden::Certify {
            executions: 192,
            states: 5943,
            history: "0/0:192:5943:0",
        },
    ),
    (
        "Fault Injection",
        2,
        1,
        Golden::Certify {
            executions: 275,
            states: 286,
            history: "0/0:3:36:0 0/1:6:91:0 1/0:17:152:0 1/1:37:271:0 2/0:67:276:0 2/1:145:286:0",
        },
    ),
];

/// VM certifications of every registry model: `(benchmark, c, golden)`.
const VM_CERTIFY: [(&str, usize, Golden); 7] = [
    (
        "Bluetooth",
        3,
        Golden::Certify {
            executions: 1294,
            states: 715,
            history: "0/0:6:59:0 1/0:66:376:0 2/0:328:679:0 3/0:894:715:0",
        },
    ),
    (
        "File System Model",
        3,
        Golden::Certify {
            executions: 12912,
            states: 529,
            history: "0/0:24:205:0 1/0:288:529:0 2/0:2232:529:0 3/0:10368:529:0",
        },
    ),
    (
        "Work Stealing Q.",
        3,
        Golden::Certify {
            executions: 3347,
            states: 2191,
            history: "0/0:2:72:0 1/0:27:476:0 2/0:309:1362:0 3/0:3009:2191:0",
        },
    ),
    (
        "Transaction Manager",
        3,
        Golden::Certify {
            executions: 15,
            states: 179,
            history: "0/0:2:65:0 1/0:4:134:0 2/0:6:168:0 3/0:3:179:0",
        },
    ),
    (
        "APE",
        2,
        Golden::Certify {
            executions: 9012,
            states: 8524,
            history: "0/0:2:157:0 1/0:260:1748:0 2/0:8750:8524:0",
        },
    ),
    (
        "Dryad Channels",
        2,
        Golden::Certify {
            executions: 14670,
            states: 10928,
            history: "0/0:2:185:0 1/0:304:2210:0 2/0:14364:10928:0",
        },
    ),
    (
        "Fault Injection",
        3,
        Golden::Certify {
            executions: 6,
            states: 10,
            history: "0/0:2:9:0 1/0:2:10:0 2/0:2:10:0",
        },
    ),
];

/// Executions to the first (minimal) bug, per registry bug name.
const BUG_EXECUTIONS: [(&str, usize); 18] = [
    ("check-then-increment", 104),
    ("tail-publish-first", 7),
    ("missing-tail-restore", 7),
    ("non-atomic-steal", 102),
    ("commit-toctou", 4),
    ("unlocked-scan", 7),
    ("torn-flush", 7),
    ("missing-join", 1),
    ("poison-shortcut", 1),
    ("untracked-insert", 68),
    ("non-atomic-release", 2732),
    ("stop-jumps-queue", 1),
    ("close-no-wait (Fig. 3 UAF)", 209),
    ("ack-before-alert", 209),
    ("unsync-stats", 193),
    ("unlocked-untrack", 59),
    ("shed-on-try-lock-failure", 4),
    ("missing-spurious-recheck", 5),
];

/// The write path at bound 2: `(benchmark, runtime program?, golden)`.
/// The counts are the same at `jobs` 1 and 2.
const FULL_STACK: [(&str, bool, Golden); 3] = [
    (
        "Bluetooth",
        true,
        Golden::Certify {
            executions: 2416,
            states: 3998,
            history: "0/0:13:165:0 1/0:241:1334:0 2/0:2162:3998:0",
        },
    ),
    (
        "APE",
        false,
        Golden::Certify {
            executions: 2372,
            states: 8524,
            history: "0/0:2:157:0 1/0:260:1748:0 2/0:2110:8524:0",
        },
    ),
    (
        "Dryad Channels",
        false,
        Golden::Certify {
            executions: 3262,
            states: 10928,
            history: "0/0:2:185:0 1/0:304:2210:0 2/0:2956:10928:0",
        },
    ),
];

/// Generated VM models per `vm-certify` trial.
const GENERATED_MODELS: usize = 16;
/// Threads of a generated model, each making this many shared accesses.
const GENERATED_THREADS: usize = 3;
const GENERATED_ACCESSES: usize = 3;
/// Interleavings of a generated model: 9! / (3!)^3. The models take no
/// locks, so every interleaving is one execution and the work per model
/// does not depend on the seed; only the state space does.
const GENERATED_SCHEDULES: usize = 1680;

/// A seeded model: three threads of three accesses each (load, store of
/// the loaded value plus a constant, or fetch-add), each aimed at one of
/// two globals shared by all threads with probability ¼, ½ or 1, and
/// otherwise at a global only its own thread touches. The shared
/// fraction is what partial-order reduction feeds on.
fn generated_model(rng: &mut SplitMix64) -> (Model, usize) {
    let quarters = [1, 2, 4][rng.gen_index(3)];
    let mut m = ModelBuilder::new();
    let shared = [m.global("s0", 0), m.global("s1", 0)];
    let own: Vec<_> = (0..GENERATED_THREADS)
        .map(|t| m.global(&format!("p{t}"), 0))
        .collect();
    for (t, &mine) in own.iter().enumerate() {
        let ops: Vec<_> = (0..GENERATED_ACCESSES)
            .map(|_| {
                let target = if rng.gen_ratio(quarters, 4) {
                    shared[rng.gen_index(2)]
                } else {
                    mine
                };
                (target, rng.gen_index(3), rng.gen_range(1, 4) as i64)
            })
            .collect();
        m.thread(&format!("t{t}"), move |tb| {
            let r = tb.local();
            for (g, kind, v) in ops {
                match kind {
                    0 => tb.load(g, r),
                    1 => tb.store(g, r + v),
                    _ => tb.fetch_add(g, v, r),
                }
            }
        });
    }
    (m.build(), quarters)
}

/// The workload's searches, in the order `seed` shuffles them into.
fn build_jobs(workload: Workload, seed: u64) -> Vec<Job> {
    let mut jobs = Vec::new();
    match workload {
        Workload::RtCertify => {
            for (name, c, f, golden) in RT_CERTIFY {
                let program = (benchmark(name).correct)();
                assert!(matches!(program, AnyProgram::Runtime(_)));
                jobs.push(Job {
                    label: format!("{name} rt (c,f)=({c},{f})"),
                    program,
                    config: certify(Some(c), f),
                    cache_id: None,
                    golden,
                });
            }
        }
        Workload::VmCertify => {
            for (name, c, golden) in VM_CERTIFY {
                let model = benchmark(name).vm_model.expect("registry VM model")();
                jobs.push(Job {
                    label: format!("{name} vm c={c}"),
                    program: AnyProgram::Vm(model),
                    config: certify(Some(c), 0),
                    cache_id: None,
                    golden,
                });
            }
            let mut rng = SplitMix64::new(seed ^ 0x6765_6e65_7261_7465);
            for i in 0..GENERATED_MODELS {
                let (model, quarters) = generated_model(&mut rng);
                jobs.push(Job {
                    label: format!("generated #{i} shared {quarters}/4"),
                    program: AnyProgram::Vm(model),
                    config: certify(None, 0),
                    cache_id: None,
                    golden: Golden::Exhaustive,
                });
            }
        }
        Workload::BugHunt => {
            for bench in all_benchmarks() {
                for bug in &bench.bugs {
                    let executions = BUG_EXECUTIONS
                        .iter()
                        .find(|(n, _)| *n == bug.name)
                        .map(|&(_, e)| e)
                        .unwrap_or_else(|| panic!("no golden for bug `{}`", bug.name));
                    jobs.push(Job {
                        label: format!("{} / {}", bench.name, bug.name),
                        program: (bug.build)(),
                        config: SearchConfig {
                            stop_on_first_bug: true,
                            fault_bound: bug.expected_faults,
                            ..SearchConfig::default()
                        },
                        cache_id: None,
                        golden: Golden::Bug {
                            preemptions: bug.expected_bound,
                            faults: bug.expected_faults,
                            executions,
                        },
                    });
                }
            }
        }
        Workload::FullStack => {
            for (name, runtime, golden) in FULL_STACK {
                let bench = benchmark(name);
                let program = if runtime {
                    (bench.correct)()
                } else {
                    AnyProgram::Vm(bench.vm_model.expect("registry VM model")())
                };
                let kind = if runtime { "rt" } else { "vm" };
                jobs.push(Job {
                    label: format!("{name} {kind} c=2 full stack"),
                    cache_id: Some(program_identity(name, None, &program)),
                    program,
                    config: certify(Some(2), 0),
                    golden,
                });
            }
        }
    }
    let mut rng = SplitMix64::new(seed);
    for i in (1..jobs.len()).rev() {
        jobs.swap(i, rng.gen_index(i + 1));
    }
    jobs
}

/// The per-bound rows of a report in golden form.
fn history(rows: &[BoundStats]) -> String {
    rows.iter()
        .map(|r| {
            format!(
                "{}/{}:{}:{}:{}",
                r.bound, r.faults, r.executions, r.cumulative_states, r.bugs_found
            )
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Every way `report` differs from the job's golden values.
fn check(job: &Job, report: &SearchReport) -> Vec<String> {
    let mut bad = Vec::new();
    let mut expect = |what: &str, got: String, want: String| {
        if got != want {
            bad.push(format!("{}: {what} {got}, golden {want}", job.label));
        }
    };
    match job.golden {
        Golden::Certify {
            executions,
            states,
            history: rows,
        } => {
            expect(
                "executions",
                report.executions.to_string(),
                executions.to_string(),
            );
            expect(
                "states",
                report.distinct_states.to_string(),
                states.to_string(),
            );
            expect("bounds", history(&report.bound_history), rows.to_string());
            // Certified at the target bound, or the whole space
            // exhausted below it.
            let certified =
                report.completed || report.completed_bound == job.config.preemption_bound;
            expect("certified", certified.to_string(), "true".into());
            expect("bugs", report.buggy_executions.to_string(), "0".into());
        }
        Golden::Bug {
            preemptions,
            faults,
            executions,
        } => match report.first_bug() {
            Some(bug) => {
                expect(
                    "witness (preemptions, faults)",
                    format!("({}, {})", bug.preemptions, bug.faults),
                    format!("({preemptions}, {faults})"),
                );
                expect(
                    "executions to first bug",
                    bug.execution_index.to_string(),
                    executions.to_string(),
                );
            }
            None => expect("bug", "none".into(), "found".into()),
        },
        Golden::Exhaustive => {
            let AnyProgram::Vm(model) = &job.program else {
                unreachable!("generated programs are VM models")
            };
            expect(
                "executions",
                report.executions.to_string(),
                GENERATED_SCHEDULES.to_string(),
            );
            expect(
                "states",
                report.distinct_states.to_string(),
                reachable_states(model, 1_000_000).to_string(),
            );
            expect("completed", report.completed.to_string(), "true".into());
        }
    }
    bad
}

/// What one trial measured.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TrialOutcome {
    /// Trial start to the first timed search.
    pub setup_s: f64,
    /// Sum of the searches' wall times.
    pub search_s: f64,
    /// User plus system CPU of the trial process over the searches.
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    /// Executions the searches ran.
    pub attempted: u64,
    /// Quarantined subtrees, watchdog trips and golden mismatches.
    pub failed: u64,
    pub mismatches: Vec<String>,
    /// The per-layer breakdown; empty unless the trial was traced.
    pub layers: Vec<Metric>,
}

impl TrialOutcome {
    /// The end-to-end metric `name`.
    pub fn end_to_end(&self, name: &str) -> f64 {
        match name {
            "setup_s" => self.setup_s,
            "search_s" => self.search_s,
            "cpu_s" => self.cpu_s,
            "peak_rss_mb" => self.peak_rss_mb,
            other => unreachable!("no end-to-end metric `{other}`"),
        }
    }

    pub fn to_json(&self) -> Json {
        let layers = self.layers.iter().map(Metric::to_json).collect::<Vec<_>>();
        Json::obj()
            .with("setup_s", self.setup_s)
            .with("search_s", self.search_s)
            .with("cpu_s", self.cpu_s)
            .with("peak_rss_mb", self.peak_rss_mb)
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("mismatches", &self.mismatches[..])
            .with("layers", layers)
    }

    pub fn from_json(v: &Json) -> Result<TrialOutcome, String> {
        let layers = v
            .field("layers", Json::as_array)?
            .iter()
            .map(Metric::from_json)
            .collect::<Result<_, String>>()?;
        Ok(TrialOutcome {
            setup_s: v.field("setup_s", Json::as_f64)?,
            search_s: v.field("search_s", Json::as_f64)?,
            cpu_s: v.field("cpu_s", Json::as_f64)?,
            peak_rss_mb: v.field("peak_rss_mb", Json::as_f64)?,
            attempted: v.field("attempted", Json::as_u64)?,
            failed: v.field("failed", Json::as_u64)?,
            mismatches: v.field("mismatches", Json::as_strings)?,
            layers,
        })
    }
}

/// User plus system CPU time of this process so far, in seconds, from
/// `/proc/self/stat` (fields 14 and 15, in clock ticks of 1/100 s on
/// Linux; exited threads are included).
fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    // The command name (field 2) may hold spaces: count from its `)`.
    let rest = stat.rsplit_once(')').ok_or("malformed /proc/self/stat")?.1;
    let field = |i: usize| -> Result<f64, String> {
        rest.split_whitespace()
            .nth(i)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    // `rest` starts at field 3.
    Ok((field(14 - 3)? + field(15 - 3)?) / 100.0)
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The extras a `full-stack` search carries.
struct WritePath {
    jobs: usize,
    registry: Arc<MetricsRegistry>,
    checkpoint: PathBuf,
}

/// Builds and runs one search session.
fn run_session<'a>(
    config: &SearchConfig,
    program: &'a (dyn ControlledProgram + Sync),
    observer: &'a mut dyn SearchObserver,
    cache: Option<&'a dyn ExplorationCache>,
    heuristic: bool,
    write_path: Option<&WritePath>,
) -> Result<SearchReport, String> {
    let mut search = Search::over(program)
        .config(config.clone())
        .observer(observer);
    if let Some(cache) = cache {
        search = search.cache(cache).cache_heuristic(heuristic);
    }
    if let Some(w) = write_path {
        search = search
            .jobs(w.jobs)
            .metrics(Arc::clone(&w.registry))
            .checkpoint(Checkpointer::new(&w.checkpoint, 1000));
    }
    search.run().map_err(|e| e.to_string())
}

/// One search, timed, traced when `tracer` is given.
fn run_search(
    job: &Job,
    store: Option<&CacheStore>,
    scratch: &Path,
    index: usize,
    tracer: Option<&Tracer>,
) -> Result<(SearchReport, Option<SearchTrace>, u64), String> {
    let start = Instant::now();
    let write_path = store.map(|_| WritePath {
        jobs: parallel_jobs(),
        registry: Arc::new(MetricsRegistry::new()),
        checkpoint: scratch.join(format!("search-{index}.ckpt")),
    });
    let jsonl_path = scratch.join(format!("search-{index}.jsonl"));
    let mut jsonl = match write_path {
        Some(_) => {
            let file =
                File::create(&jsonl_path).map_err(|e| format!("{}: {e}", jsonl_path.display()))?;
            Some(JsonlSink::new(BufWriter::new(file)))
        }
        None => None,
    };
    let mut noop = NoopObserver;
    let observer: &mut dyn SearchObserver = match jsonl.as_mut() {
        Some(sink) => sink,
        None => &mut noop,
    };
    let cache = store.map(|s| s as &dyn ExplorationCache);
    let (report, traced) = match tracer {
        None => {
            let report = run_session(
                &job.config,
                &job.program,
                observer,
                cache,
                job.runtime(),
                write_path.as_ref(),
            )?;
            (report, None)
        }
        Some(tracer) => {
            let lane = trace::lane();
            let before = trace::thread_tally();
            let start_ns = tracer.ns_of(start);
            let program = TimedProgram::new(&job.program, tracer);
            let timed_cache = cache.map(TimedCache::new);
            let checkpoint = write_path.as_ref().map(|w| w.checkpoint.clone());
            // Phase timings split a runtime execution into replay, selection
            // and race detection. A VM execution has no race detection and its
            // selection is the timed `pick`, so there they would only add
            // timers.
            let mut timed = TimedObserver::new(observer, tracer, checkpoint, job.runtime());
            let report = run_session(
                &job.config,
                &program,
                &mut timed,
                timed_cache.as_ref().map(|c| c as &dyn ExplorationCache),
                job.runtime(),
                write_path.as_ref(),
            )?;
            let trace = SearchTrace {
                label: job.label.clone(),
                runtime: job.runtime(),
                jobs: write_path.as_ref().map_or(1, |w| w.jobs),
                lane,
                start_ns,
                end_ns: 0,
                main_tally: trace::thread_tally().minus(&before),
                execs: tracer.take_execs(),
                obs: timed.into_stats(),
                registry: write_path.as_ref().map(|w| w.registry.snapshot()),
                executions: report.executions,
                states: report.distinct_states,
            };
            (report, Some(trace))
        }
    };
    let mut jsonl_bytes = 0;
    if let Some(sink) = jsonl {
        if sink.failed() {
            return Err(format!("{}: JSONL write failed", jsonl_path.display()));
        }
        sink.into_inner()
            .flush()
            .map_err(|e| format!("{}: {e}", jsonl_path.display()))?;
        jsonl_bytes = std::fs::metadata(&jsonl_path).map_or(0, |m| m.len());
    }
    let traced = traced.map(|mut t| {
        t.end_ns = tracer.expect("traced searches have a tracer").now_ns();
        t
    });
    Ok((report, traced, jsonl_bytes))
}

/// A main-lane span from `start` to now.
fn span(tracer: &Tracer, name: &str, start: Instant) -> Span {
    let start_ns = tracer.ns_of(start);
    Span {
        name: name.to_string(),
        cat: "setup",
        lane: trace::lane(),
        start_ns,
        dur_ns: tracer.now_ns() - start_ns,
        args: Vec::new(),
    }
}

/// Runs one trial of `workload` in this process. Cache stores,
/// checkpoints and JSONL files go under `scratch`, which is removed
/// afterwards. A traced trial also computes the per-layer breakdown and,
/// given `chrome`, writes its Chrome trace there.
pub fn run_trial(
    workload: Workload,
    seed: u64,
    traced: bool,
    scratch: &Path,
    chrome: Option<&Path>,
) -> Result<TrialOutcome, String> {
    let start = Instant::now();
    let tracer = Tracer::new(start);
    let mut log = TraceLog::default();
    trace::lane();

    let jobs = build_jobs(workload, seed);
    log.build_ns = tracer.now_ns();
    log.setup.push(span(&tracer, "build programs", start));

    let t = Instant::now();
    std::fs::create_dir_all(scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let stores = jobs
        .iter()
        .map(|job| {
            job.cache_id
                .map(|id| CacheStore::open(&scratch.join("cache"), id))
                .transpose()
                .map_err(|e| format!("opening the cache for {}: {e}", job.label))
        })
        .collect::<Result<Vec<_>, String>>()?;
    if stores.iter().any(Option::is_some) {
        log.open_cache_ns = tracer.now_ns() - tracer.ns_of(t);
        log.setup.push(span(&tracer, "open cache stores", t));
    }

    let t = Instant::now();
    for job in &jobs {
        let w = Instant::now();
        job.program
            .execute(&mut ReplayScheduler::new(Schedule::new()), &mut NullSink);
        if job.runtime() {
            log.warmup_runtime_ns += tracer.now_ns() - tracer.ns_of(w);
        }
    }
    log.setup.push(span(&tracer, "warm-up executions", t));
    let setup_s = start.elapsed().as_secs_f64();

    let cpu_before = cpu_seconds()?;
    let mut search_s = 0.0;
    let mut reports = Vec::with_capacity(jobs.len());
    for (index, (job, store)) in jobs.iter().zip(&stores).enumerate() {
        let t = Instant::now();
        let (report, trace, jsonl_bytes) = run_search(
            job,
            store.as_ref(),
            scratch,
            index,
            traced.then_some(&tracer),
        )?;
        search_s += t.elapsed().as_secs_f64();
        log.jsonl_bytes += jsonl_bytes;
        log.searches.extend(trace);
        reports.push(report);
    }
    let cpu_s = cpu_seconds()? - cpu_before;
    log.wall_ns = tracer.now_ns();

    let mismatches: Vec<String> = jobs
        .iter()
        .zip(&reports)
        .flat_map(|(job, report)| check(job, report))
        .collect();
    let failures: usize = reports
        .iter()
        .map(|r| r.quarantined_total + r.watchdog_trips)
        .sum();
    drop(stores);
    std::fs::remove_dir_all(scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    if let Some(path) = chrome {
        let title = format!("perf {} seed {seed}", workload.name());
        std::fs::write(path, log.chrome(&title).to_string())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(TrialOutcome {
        setup_s,
        search_s,
        cpu_s,
        peak_rss_mb: peak_rss_mb()?,
        attempted: reports.iter().map(|r| r.executions as u64).sum(),
        failed: (failures + mismatches.len()) as u64,
        mismatches,
        layers: if traced { log.per_layer() } else { Vec::new() },
    })
}
