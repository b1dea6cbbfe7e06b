//! Resuming saved VM states changes no result.
//!
//! A tree search over a [`Resumable`] program starts each execution from
//! the deepest state its worker saved along the execution's path, where
//! a replay-only program re-executes the path from the initial state.
//! Every cell here runs the same search over a VM model and over
//! [`ReplayOnly`], a view of the model that hides `resumable()`, and
//! requires the same executions, coverage, per-bound rows, completion and
//! bugs; at jobs 1 also the same JSONL event stream (timings masked), the
//! same checkpoint bytes and the same cache segment bytes.
//!
//! The cells marked `#[ignore]` run the registry models at the bounds
//! `perf`'s `vm-certify` uses, together about 20 s in a debug build;
//! CI runs them in release with `--include-ignored`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use icb::cache::CacheStore;
use icb::core::search::{Search, SearchConfig, SearchReport, Strategy};
use icb::core::snapshot::{Checkpointer, SearchSnapshot};
use icb::core::{
    ControlledProgram, Decisions, ExecutionResult, Resumable, Saved, Scheduler, SearchObserver,
    StateSink,
};
use icb::statevm::{Model, ModelBuilder};
use icb::telemetry::JsonlSink;
use icb::workloads::faultinj::faultinj_model;
use icb::workloads::registry::{all_benchmarks, AnyProgram};

/// A program without its `resumable()` side: every execution replays
/// its prefix from the initial state.
struct ReplayOnly<'a>(&'a (dyn ControlledProgram + Sync));

impl ControlledProgram for ReplayOnly<'_> {
    fn execute(&self, scheduler: &mut dyn Scheduler, sink: &mut dyn StateSink) -> ExecutionResult {
        self.0.execute(scheduler, sink)
    }

    fn execute_observed(
        &self,
        scheduler: &mut dyn Scheduler,
        sink: &mut dyn StateSink,
        observer: &mut dyn SearchObserver,
    ) -> ExecutionResult {
        self.0.execute_observed(scheduler, sink, observer)
    }

    fn fingerprints_are_exact(&self) -> bool {
        self.0.fingerprints_are_exact()
    }
}

/// What a search is asked to do, apart from the program.
#[derive(Clone)]
struct Cell {
    strategy: Strategy,
    config: SearchConfig,
    jobs: usize,
}

fn icb(bound: usize, faults: usize) -> Cell {
    Cell {
        strategy: Strategy::Icb,
        config: SearchConfig {
            preemption_bound: Some(bound),
            fault_bound: faults,
            ..SearchConfig::default()
        },
        jobs: 1,
    }
}

impl Cell {
    fn jobs(self, jobs: usize) -> Self {
        Cell { jobs, ..self }
    }

    fn search<'a>(&self, program: &'a (dyn ControlledProgram + Sync)) -> Search<'a> {
        Search::over(program)
            .strategy(self.strategy)
            .config(self.config.clone())
            .jobs(self.jobs)
    }

    /// The report, and at jobs 1 the masked JSONL log.
    fn run(&self, program: &(dyn ControlledProgram + Sync)) -> (SearchReport, Option<String>) {
        if self.jobs > 1 {
            return (self.search(program).run().unwrap(), None);
        }
        let mut sink = JsonlSink::new(Vec::new());
        let report = self.search(program).observer(&mut sink).run().unwrap();
        let log = String::from_utf8(sink.into_inner()).unwrap();
        (report, Some(mask(&log)))
    }
}

/// Replaces the values of `*_ns` and `eta_seconds` fields, the only
/// ones that depend on timing, with `_`.
fn mask(log: &str) -> String {
    let mut out = String::with_capacity(log.len());
    let mut rest = log;
    while let Some(at) = rest.find("\":") {
        let key_start = rest[..at].rfind('"').map_or(0, |q| q + 1);
        let key = &rest[key_start..at];
        out.push_str(&rest[..at + 2]);
        rest = &rest[at + 2..];
        if key.ends_with("_ns") || key == "eta_seconds" {
            let end = if rest.starts_with('[') {
                rest.find(']').map_or(rest.len(), |e| e + 1)
            } else {
                rest.find([',', '}']).unwrap_or(rest.len())
            };
            out.push('_');
            rest = &rest[end..];
        }
    }
    out.push_str(rest);
    out
}

/// Everything a resumed search must report exactly as a replaying one.
fn assert_same(label: &str, resumed: &SearchReport, replayed: &SearchReport) {
    assert_eq!(
        resumed.executions, replayed.executions,
        "{label}: executions"
    );
    assert_eq!(
        resumed.distinct_states, replayed.distinct_states,
        "{label}: distinct states"
    );
    assert_eq!(
        resumed.bound_history, replayed.bound_history,
        "{label}: per-bound rows"
    );
    assert_eq!(
        (resumed.completed, resumed.completed_bound),
        (replayed.completed, replayed.completed_bound),
        "{label}: completion"
    );
    assert_eq!(resumed.bugs, replayed.bugs, "{label}: bugs");
    assert_eq!(resumed.max_stats, replayed.max_stats, "{label}: max stats");
    assert_eq!(
        resumed.quarantined_total, replayed.quarantined_total,
        "{label}: quarantined"
    );
    assert_eq!(resumed.cache, replayed.cache, "{label}: cache summary");
}

/// Runs `cell` over `model` and over its replay-only view and compares
/// them; returns the resumed report.
fn check(label: &str, model: &Model, cell: &Cell) -> SearchReport {
    assert!(model.resumable().is_some());
    let (resumed, resumed_log) = cell.run(model);
    let (replayed, replayed_log) = cell.run(&ReplayOnly(model));
    let label = format!("{label} at jobs {}", cell.jobs);
    assert_same(&label, &resumed, &replayed);
    assert!(
        resumed_log == replayed_log,
        "{label}: the masked JSONL logs differ"
    );
    resumed
}

fn vm_model(name: &str) -> Model {
    all_benchmarks()
        .into_iter()
        .find(|b| b.name == name)
        .and_then(|b| b.vm_model)
        .unwrap_or_else(|| panic!("{name} has a VM model"))()
}

/// Three threads, two with a fail point. Thread 0 records whether its
/// fail point fired, which changes the state but not the steps that
/// follow, so items faulted there and items not faulted there share
/// their choices. A fault in thread 1 makes it write 1 and then undo
/// the write; thread 2 fails if it sees the 1, which takes a preemption
/// between the two writes, so the minimal witness is (1 preemption,
/// 1 fault).
fn fail_point_model() -> Model {
    fail_point_model_from(0)
}

/// [`fail_point_model`] with `h` starting at `h0`.
fn fail_point_model_from(h0: i64) -> Model {
    let mut m = ModelBuilder::new();
    let g = m.global("g", 0);
    let h = m.global("h", h0);
    m.thread("logger", |t| {
        let failed = t.local();
        t.fail_point("log", failed);
        t.store(h, failed + 1);
        t.store(g, 0);
    });
    m.thread("undo", |t| {
        let failed = t.local();
        let done = t.new_label();
        t.fail_point("io", failed);
        t.jump_if(failed.eq(0), done);
        t.store(g, 1);
        t.store(g, 0);
        t.place(done);
    });
    m.thread("reader", |t| {
        let seen = t.local();
        t.load(g, seen);
        t.assert(seen.eq(0), "saw a write that was undone");
    });
    m.build()
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("icb-resume-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every file under `dir`, by relative path, with its bytes.
fn tree(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files = Vec::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(d) = pending.pop() {
        for entry in std::fs::read_dir(&d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                pending.push(path);
            } else {
                let bytes = std::fs::read(&path).unwrap();
                files.push((path.strip_prefix(dir).unwrap().to_path_buf(), bytes));
            }
        }
    }
    files.sort();
    files
}

#[test]
fn the_vm_is_resumable_through_every_wrapper() {
    let model = vm_model("Transaction Manager");
    assert!(model.resumable().is_some());
    let by_reference: &dyn ControlledProgram = &&model;
    assert!(by_reference.resumable().is_some());
    assert!(AnyProgram::Vm(model.clone()).resumable().is_some());
    assert!(ReplayOnly(&model).resumable().is_none());
    let runtime = all_benchmarks()
        .into_iter()
        .find(|b| b.name == "Bluetooth")
        .map(|b| (b.correct)())
        .unwrap();
    assert!(matches!(runtime, AnyProgram::Runtime(_)));
    assert!(runtime.resumable().is_none());
}

#[test]
fn icb_up_to_bound_two_at_jobs_one_and_two() {
    for name in ["Bluetooth", "Transaction Manager", "Work Stealing Q."] {
        let model = vm_model(name);
        for bound in 0..=2 {
            for jobs in [1, 2] {
                check(
                    &format!("{name} c={bound}"),
                    &model,
                    &icb(bound, 0).jobs(jobs),
                );
            }
        }
    }
}

#[test]
fn fault_bound_one_on_fail_point_models() {
    for (name, model) in [
        ("Fault Injection", vm_model("Fault Injection")),
        ("Fault Injection, 3 workers", faultinj_model(3)),
        ("fail-point model", fail_point_model()),
    ] {
        for jobs in [1, 2] {
            let report = check(&format!("{name} f=1"), &model, &icb(2, 1).jobs(jobs));
            assert!(report.completed_bound.is_some(), "{name}: {report}");
        }
    }
    let report = check("fail-point model f=1", &fail_point_model(), &icb(2, 1));
    let bug = report.bugs.first().expect("the undone write is seen");
    assert_eq!((bug.preemptions, bug.faults), (1, 1));
}

#[test]
fn dfs_and_depth_bounded_dfs() {
    let dfs = |strategy, budget, jobs| Cell {
        strategy,
        config: SearchConfig {
            max_executions: budget,
            ..SearchConfig::default()
        },
        jobs,
    };
    for (name, model) in [
        ("fail-point model", fail_point_model()),
        ("Transaction Manager", vm_model("Transaction Manager")),
        ("Bluetooth", vm_model("Bluetooth")),
    ] {
        for jobs in [1, 2] {
            check(
                &format!("{name} db:10"),
                &model,
                &dfs(Strategy::DepthBounded(10), None, jobs),
            );
        }
        // A budget cut truncates a parallel DFS at a timing-dependent
        // subset, so the budgeted cell runs at jobs 1 only.
        check(
            &format!("{name} dfs"),
            &model,
            &dfs(Strategy::Dfs, Some(2_000), 1),
        );
    }
    check(
        "fail-point model dfs",
        &fail_point_model(),
        &dfs(Strategy::Dfs, None, 2),
    );
}

#[test]
fn a_cold_exact_cache_writes_the_same_segments() {
    let model = vm_model("Transaction Manager");
    let root = scratch("cache");
    let dfs = Cell {
        strategy: Strategy::Dfs,
        config: SearchConfig::default(),
        jobs: 1,
    };
    for (label, cell) in [("icb", icb(2, 0)), ("dfs", dfs)] {
        let mut segments = Vec::new();
        let mut reports = Vec::new();
        for (side, program) in [
            ("resumed", &model as &(dyn ControlledProgram + Sync)),
            ("replayed", &ReplayOnly(&model)),
        ] {
            let dir = root.join(label).join(side);
            {
                let store = CacheStore::open(&dir, 1).unwrap();
                reports.push(cell.search(program).cache(&store).run().unwrap());
            }
            segments.push(tree(&dir));
        }
        assert_same(&format!("{label} cold cache"), &reports[0], &reports[1]);
        assert!(reports[0].cache.as_ref().is_some_and(|c| c.stores > 0));
        assert!(!segments[0].is_empty());
        assert!(
            segments[0] == segments[1],
            "{label}: cache segment bytes differ between resumed and replayed runs"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Copies the live checkpoint aside at its `at`-th write.
struct Freeze {
    live: PathBuf,
    frozen: PathBuf,
    at: usize,
    seen: usize,
}

impl SearchObserver for Freeze {
    fn checkpoint_written(&mut self, _executions: usize) {
        self.seen += 1;
        if self.seen == self.at {
            std::fs::copy(&self.live, &self.frozen).unwrap();
        }
    }
}

#[test]
fn a_mid_run_checkpoint_resumes_at_the_other_job_count() {
    let model = vm_model("Bluetooth");
    let dir = scratch("checkpoint");
    let cell = icb(2, 0);
    let mut frozen = Vec::new();
    for (side, program) in [
        ("resumed", &model as &(dyn ControlledProgram + Sync)),
        ("replayed", &ReplayOnly(&model)),
    ] {
        let live = dir.join(format!("{side}.live"));
        let mut freeze = Freeze {
            live: live.clone(),
            frozen: dir.join(format!("{side}.frozen")),
            at: 40,
            seen: 0,
        };
        cell.search(program)
            .observer(&mut freeze)
            .checkpoint(Checkpointer::new(&live, 7))
            .run()
            .unwrap();
        assert!(freeze.seen >= freeze.at, "too few checkpoints to freeze");
        frozen.push(freeze.frozen);
    }
    let bytes: Vec<Vec<u8>> = frozen.iter().map(|f| std::fs::read(f).unwrap()).collect();
    assert!(bytes[0] == bytes[1], "checkpoint bytes differ");
    for jobs in [2, 1] {
        let resume = |program: &(dyn ControlledProgram + Sync)| {
            Search::over(program)
                .resume_from(SearchSnapshot::read_from(&frozen[0]).unwrap())
                .jobs(jobs)
                .run()
                .unwrap()
        };
        let resumed = resume(&model);
        let replayed = resume(&ReplayOnly(&model));
        assert_same(
            &format!("resumed checkpoint at jobs {jobs}"),
            &resumed,
            &replayed,
        );
        let whole = cell.search(&model).run().unwrap();
        assert_eq!(resumed.bound_history, whole.bound_history);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_first_bug_of_every_registry_vm_bug() {
    let mut bugs = 0;
    for bench in all_benchmarks() {
        for bug in &bench.bugs {
            let AnyProgram::Vm(model) = (bug.build)() else {
                continue;
            };
            let cell = Cell {
                strategy: Strategy::Icb,
                config: SearchConfig {
                    stop_on_first_bug: true,
                    fault_bound: bug.expected_faults,
                    ..SearchConfig::default()
                },
                jobs: 1,
            };
            for jobs in [1, 2] {
                let report = check(bug.name, &model, &cell.clone().jobs(jobs));
                let found = report.bugs.first().expect("the seeded bug is found");
                assert_eq!(found.preemptions, bug.expected_bound, "{}", bug.name);
            }
            bugs += 1;
        }
    }
    assert!(bugs >= 3, "only {bugs} registry bugs are VM models");
}

/// A host that, on its `panic_at` calls, runs `twin` (a model whose
/// initial state differs) and then panics: the states it saved on the
/// way do not belong to `model`'s paths.
struct PanicsAfterSaving {
    model: Model,
    twin: Model,
    panic_at: [usize; 2],
    calls: AtomicUsize,
}

impl PanicsAfterSaving {
    /// Counts the call; on a panicking one, runs `twin` through `run`
    /// and panics.
    fn call(&self, run: impl FnOnce(&Model) -> ExecutionResult) -> ExecutionResult {
        let call = self.calls.fetch_add(1, Ordering::SeqCst) + 1;
        if self.panic_at.contains(&call) {
            run(&self.twin);
            panic!("host failure on call {call}");
        }
        run(&self.model)
    }
}

impl ControlledProgram for PanicsAfterSaving {
    fn execute(&self, scheduler: &mut dyn Scheduler, sink: &mut dyn StateSink) -> ExecutionResult {
        self.call(|m| m.execute(scheduler, sink))
    }

    fn execute_observed(
        &self,
        scheduler: &mut dyn Scheduler,
        sink: &mut dyn StateSink,
        observer: &mut dyn SearchObserver,
    ) -> ExecutionResult {
        self.call(|m| m.execute_observed(scheduler, sink, observer))
    }

    fn fingerprints_are_exact(&self) -> bool {
        true
    }

    fn resumable(&self) -> Option<&dyn Resumable> {
        Some(self)
    }
}

impl Resumable for PanicsAfterSaving {
    fn execute_from(
        &self,
        from: Option<&Saved>,
        decisions: Decisions<'_>,
        sink: &mut dyn StateSink,
        observer: &mut dyn SearchObserver,
    ) -> ExecutionResult {
        self.call(|m| m.execute_from(from, decisions, sink, observer))
    }
}

#[test]
fn a_caught_panic_discards_what_the_run_saved() {
    // The first item of level (0, 1) is a one-step prefix, so its runs
    // save the initial state; both of them panic, the item is forfeited,
    // and the next item must not resume from the twin's state.
    let model = fail_point_model();
    let cell = icb(1, 1);
    let first_of_level = cell.run(&model).0.bound_history[0].executions + 1;
    let host = |model: &Model| PanicsAfterSaving {
        model: model.clone(),
        twin: fail_point_model_from(7),
        panic_at: [first_of_level, first_of_level + 1],
        calls: AtomicUsize::new(0),
    };
    let resumable = host(&model);
    let replaying = host(&model);
    let (resumed, resumed_log) = cell.run(&resumable);
    let (replayed, replayed_log) = cell.run(&ReplayOnly(&replaying));
    assert_eq!(resumed.quarantined_total, 1, "{resumed}");
    assert_same("panicking host", &resumed, &replayed);
    assert!(resumed_log == replayed_log, "the masked JSONL logs differ");
}

#[test]
#[ignore = "slow in a debug build; CI runs it in release"]
fn registry_models_at_vm_certify_bounds() {
    for (name, bound) in [
        ("Bluetooth", 3),
        ("File System Model", 3),
        ("Work Stealing Q.", 3),
        ("Transaction Manager", 3),
        ("APE", 2),
        ("Dryad Channels", 2),
        ("Fault Injection", 3),
    ] {
        check(
            &format!("{name} c={bound}"),
            &vm_model(name),
            &icb(bound, 0),
        );
    }
}

#[test]
#[ignore = "slow in a debug build; CI runs it in release"]
fn ape_and_dryad_with_an_exact_cache_at_jobs_two() {
    let root = scratch("cache-jobs-2");
    for name in ["APE", "Dryad Channels"] {
        let model = vm_model(name);
        let cell = icb(2, 0).jobs(2);
        let run = |side: &str, program: &(dyn ControlledProgram + Sync)| {
            let store = CacheStore::open(&root.join(name.replace(' ', "-")).join(side), 1).unwrap();
            cell.search(program).cache(&store).run().unwrap()
        };
        let resumed = run("resumed", &model);
        let replayed = run("replayed", &ReplayOnly(&model));
        assert_same(&format!("{name} cached at jobs 2"), &resumed, &replayed);
    }
    let _ = std::fs::remove_dir_all(&root);
}
