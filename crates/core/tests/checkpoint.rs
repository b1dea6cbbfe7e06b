//! Crash-resilience properties of the checkpoint/resume machinery,
//! exercised through the public API only.
//!
//! The crash model: checkpoints are written atomically, so a crash at
//! any moment leaves the latest fully-written snapshot on disk; resuming
//! from it redoes the executions lost after the write and must end in a
//! final report identical to the uninterrupted run's. The tests simulate
//! the crash by copying the live checkpoint file aside mid-search (as if
//! the process had been killed right after that write) and resuming from
//! the copy.

use std::path::{Path, PathBuf};

use icb_core::search::{Search, SearchConfig, SearchReport, Strategy};
use icb_core::snapshot::{Checkpointer, SearchSnapshot, StrategyState};
use icb_core::telemetry::SearchObserver;
use icb_core::ControlledProgram;

mod common;

use common::{Counters, FaultyCounters};

/// Observer that snapshots the live checkpoint file aside after its
/// `at`-th write — freezing the exact state a crash at that moment would
/// leave on disk.
struct CrashCopier {
    live: PathBuf,
    frozen: PathBuf,
    at: usize,
    seen: usize,
}

impl SearchObserver for CrashCopier {
    fn checkpoint_written(&mut self, _executions: usize) {
        self.seen += 1;
        if self.seen == self.at {
            std::fs::copy(&self.live, &self.frozen).expect("freeze checkpoint copy");
        }
    }
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("icb-ckpt-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn assert_reports_identical(resumed: &SearchReport, reference: &SearchReport) {
    assert_eq!(resumed.executions, reference.executions, "executions");
    assert_eq!(
        resumed.distinct_states, reference.distinct_states,
        "distinct states"
    );
    assert_eq!(resumed.bugs, reference.bugs, "bug reports");
    assert_eq!(
        resumed.buggy_executions, reference.buggy_executions,
        "buggy executions"
    );
    assert_eq!(resumed.completed, reference.completed, "completed");
    assert_eq!(
        resumed.completed_bound, reference.completed_bound,
        "completed bound"
    );
    assert_eq!(
        resumed.bound_history, reference.bound_history,
        "bound history"
    );
    assert_eq!(
        resumed.coverage_curve, reference.coverage_curve,
        "coverage curve"
    );
    assert_eq!(resumed.max_stats, reference.max_stats, "max stats");
}

fn freeze_mid_search<F>(live: &Path, frozen: &Path, every: usize, at: usize, run: F) -> SearchReport
where
    F: FnOnce(&mut CrashCopier, Checkpointer) -> SearchReport,
{
    let ck = Checkpointer::new(live, every);
    let mut copier = CrashCopier {
        live: live.to_path_buf(),
        frozen: frozen.to_path_buf(),
        at,
        seen: 0,
    };
    let report = run(&mut copier, ck);
    assert!(
        copier.seen >= at,
        "search wrote only {} checkpoints, test wanted to freeze the {at}-th",
        copier.seen
    );
    report
}

#[test]
fn icb_resume_reproduces_the_uninterrupted_report() {
    let program = Counters {
        n: 2,
        k: 3,
        bug: Some((1, 1, 3)),
    };
    let config = SearchConfig::default();
    let reference = Search::over(&program).config(config.clone()).run().unwrap();
    assert!(reference.completed, "test workload must be exhaustible");
    assert!(!reference.bugs.is_empty(), "test workload must have a bug");

    let dir = TempDir::new("icb");
    let live = dir.path("live.ck");
    let frozen = dir.path("frozen.ck");
    let checkpointed = freeze_mid_search(&live, &frozen, 3, 2, |copier, ck| {
        Search::over(&program)
            .config(config.clone())
            .observer(copier)
            .checkpoint(ck)
            .run()
            .unwrap()
    });
    // Checkpointing must not perturb the search itself…
    assert_reports_identical(&checkpointed, &reference);
    // …and a completed run leaves nothing to resume.
    assert!(!live.exists(), "completed run must remove its checkpoint");

    // "Crash" after the 2nd write: resume from the frozen snapshot.
    let snapshot = SearchSnapshot::read_from(&frozen).expect("read frozen checkpoint");
    assert!(matches!(snapshot.state, StrategyState::Icb(_)));
    let resumed = Search::over(&program)
        .resume_from(snapshot)
        .run()
        .expect("resume icb");
    assert_reports_identical(&resumed, &reference);
}

#[test]
fn icb_resume_from_every_checkpoint_matches() {
    // Stress the boundary logic: freeze after each of the first 6 writes
    // at --checkpoint-every 1 granularity (mid-bound, mid-item, bound
    // switches) and demand an identical final report from each.
    let program = Counters {
        n: 3,
        k: 2,
        bug: None,
    };
    let config = SearchConfig::default();
    let reference = Search::over(&program).config(config.clone()).run().unwrap();
    for at in 1..=6 {
        let dir = TempDir::new(&format!("icb-all-{at}"));
        let live = dir.path("live.ck");
        let frozen = dir.path("frozen.ck");
        freeze_mid_search(&live, &frozen, 1, at, |copier, ck| {
            Search::over(&program)
                .config(config.clone())
                .observer(copier)
                .checkpoint(ck)
                .run()
                .unwrap()
        });
        let snapshot = SearchSnapshot::read_from(&frozen).unwrap();
        let resumed = Search::over(&program)
            .resume_from(snapshot)
            .run()
            .unwrap_or_else(|e| panic!("resume from write {at}: {e}"));
        assert_reports_identical(&resumed, &reference);
    }
}

#[test]
fn dfs_resume_reproduces_the_uninterrupted_report() {
    let program = Counters {
        n: 2,
        k: 3,
        bug: Some((1, 1, 3)),
    };
    let config = SearchConfig::default();
    let reference = Search::over(&program)
        .strategy(Strategy::Dfs)
        .config(config.clone())
        .run()
        .unwrap();
    assert!(reference.completed);

    let dir = TempDir::new("dfs");
    let live = dir.path("live.ck");
    let frozen = dir.path("frozen.ck");
    let checkpointed = freeze_mid_search(&live, &frozen, 4, 2, |copier, ck| {
        Search::over(&program)
            .strategy(Strategy::Dfs)
            .config(config.clone())
            .observer(copier)
            .checkpoint(ck)
            .run()
            .unwrap()
    });
    assert_reports_identical(&checkpointed, &reference);
    assert!(!live.exists());

    let snapshot = SearchSnapshot::read_from(&frozen).unwrap();
    let resumed = Search::over(&program)
        .resume_from(snapshot)
        .run()
        .expect("resume dfs");
    assert_reports_identical(&resumed, &reference);
}

#[test]
fn random_resume_continues_the_exact_stream() {
    let program = Counters {
        n: 3,
        k: 2,
        bug: None,
    };
    let config = SearchConfig::with_max_executions(40);
    let reference = Search::over(&program)
        .strategy(Strategy::Random { seed: 7 })
        .config(config.clone())
        .run()
        .unwrap();

    let dir = TempDir::new("random");
    let live = dir.path("live.ck");
    let frozen = dir.path("frozen.ck");
    freeze_mid_search(&live, &frozen, 5, 3, |copier, ck| {
        Search::over(&program)
            .strategy(Strategy::Random { seed: 7 })
            .config(config.clone())
            .observer(copier)
            .checkpoint(ck)
            .run()
            .unwrap()
    });

    let snapshot = SearchSnapshot::read_from(&frozen).unwrap();
    let resumed = Search::over(&program)
        .resume_from(snapshot)
        .run()
        .expect("resume random");
    // Identical stream ⇒ identical walk ⇒ identical curve.
    assert_eq!(resumed.executions, reference.executions);
    assert_eq!(resumed.distinct_states, reference.distinct_states);
    assert_eq!(resumed.coverage_curve, reference.coverage_curve);
}

#[test]
fn resume_ignores_a_conflicting_strategy() {
    // The builder derives the strategy from the snapshot itself, so a
    // random checkpoint resumes as random even under `strategy(Icb)`.
    let program = Counters {
        n: 2,
        k: 2,
        bug: None,
    };
    let dir = TempDir::new("wrong-strategy");
    let live = dir.path("live.ck");
    let frozen = dir.path("frozen.ck");
    freeze_mid_search(&live, &frozen, 2, 1, |copier, ck| {
        Search::over(&program)
            .strategy(Strategy::Random { seed: 3 })
            .config(SearchConfig::with_max_executions(10))
            .observer(copier)
            .checkpoint(ck)
            .run()
            .unwrap()
    });
    let snapshot = SearchSnapshot::read_from(&frozen).unwrap();
    let resumed = Search::over(&program)
        .strategy(Strategy::Icb)
        .resume_from(snapshot)
        .run()
        .unwrap();
    assert_eq!(resumed.strategy, "random");
    assert_eq!(resumed.executions, 10);
}

#[test]
fn resumed_budget_stopped_run_does_not_overrun_the_budget() {
    // A snapshot written exactly at an exhausted execution budget must
    // resume into an immediate (0-extra-executions) report.
    let program = Counters {
        n: 3,
        k: 2,
        bug: None,
    };
    let config = SearchConfig::with_max_executions(9);
    let dir = TempDir::new("budget");
    let live = dir.path("live.ck");
    let stopped = Search::over(&program)
        .config(config.clone())
        .checkpoint(Checkpointer::new(&live, 4))
        .run()
        .unwrap();
    assert_eq!(stopped.executions, 9);
    assert!(live.exists(), "aborted run must leave a final checkpoint");

    let snapshot = SearchSnapshot::read_from(&live).unwrap();
    let resumed = Search::over(&program).resume_from(snapshot).run().unwrap();
    assert_eq!(resumed.executions, 9, "resume must not exceed the budget");
    assert_eq!(resumed.distinct_states, stopped.distinct_states);
}

/// Everything a report says about *what* was explored, leaving out the
/// order-dependent parts (bug numbering and order, curve sampling).
fn assert_same_exploration(resumed: &SearchReport, reference: &SearchReport) {
    assert_eq!(resumed.executions, reference.executions, "executions");
    assert_eq!(resumed.distinct_states, reference.distinct_states, "states");
    assert_eq!(
        resumed.buggy_executions, reference.buggy_executions,
        "buggy"
    );
    assert_eq!(resumed.completed, reference.completed, "completed");
    assert_eq!(resumed.max_stats, reference.max_stats, "max stats");
    let bugs = |r: &SearchReport| {
        let mut bugs: Vec<_> = r.bugs.iter().map(|b| b.schedule.clone()).collect();
        bugs.sort();
        bugs.dedup();
        bugs
    };
    assert_eq!(bugs(resumed), bugs(reference), "bug schedules");
}

/// Freezes a checkpoint of `strategy` written at `write_jobs` and
/// resumes it at `resume_jobs`.
fn resume_across_jobs(
    program: &Counters,
    strategy: Strategy,
    config: &SearchConfig,
    (write_jobs, resume_jobs): (usize, usize),
) -> SearchReport {
    let dir = TempDir::new(&format!(
        "across-{}-{write_jobs}-{resume_jobs}",
        strategy.label()
    ));
    let live = dir.path("live.ck");
    let frozen = dir.path("frozen.ck");
    // The first write: a parallel pump may fall behind its workers, so
    // later writes are not guaranteed to happen mid-run.
    freeze_mid_search(&live, &frozen, 3, 1, |copier, ck| {
        Search::over(program)
            .strategy(strategy)
            .config(config.clone())
            .jobs(write_jobs)
            .observer(copier)
            .checkpoint(ck)
            .run()
            .unwrap()
    });
    let snapshot = SearchSnapshot::read_from(&frozen).unwrap();
    Search::over(program)
        .resume_from(snapshot)
        .jobs(resume_jobs)
        .run()
        .unwrap()
}

/// Observer that copies the live checkpoint aside at its first write
/// taken while the search runs its target bound `c`.
struct FreezeAtTarget {
    live: PathBuf,
    frozen: PathBuf,
    target: usize,
    done: bool,
}

impl SearchObserver for FreezeAtTarget {
    fn checkpoint_written(&mut self, _executions: usize) {
        if self.done {
            return;
        }
        let snapshot = SearchSnapshot::read_from(&self.live).unwrap();
        if matches!(&snapshot.state, StrategyState::Icb(s) if s.bound == self.target && s.beyond > 0)
        {
            std::fs::copy(&self.live, &self.frozen).expect("freeze checkpoint copy");
            self.done = true;
        }
    }
}

/// A checkpoint taken during the target bound stores no schedule for
/// the bound past it, only their number, and resumes to the
/// uninterrupted report at any job count.
#[test]
fn target_level_checkpoints_count_the_work_past_the_target() {
    let program = Counters {
        n: 3,
        k: 3,
        bug: None,
    };
    let c = 1;
    let config = SearchConfig {
        preemption_bound: Some(c),
        ..SearchConfig::default()
    };
    for write_jobs in [1, 2] {
        let dir = TempDir::new(&format!("target-{write_jobs}"));
        let live = dir.path("live.ck");
        let frozen = dir.path("frozen.ck");
        let mut freezer = FreezeAtTarget {
            live: live.clone(),
            frozen: frozen.clone(),
            target: c,
            done: false,
        };
        Search::over(&program)
            .config(config.clone())
            .jobs(write_jobs)
            .observer(&mut freezer)
            .checkpoint(Checkpointer::new(&live, 1))
            .run()
            .unwrap();
        assert!(freezer.done, "no checkpoint during bound {c}");
        let snapshot = SearchSnapshot::read_from(&frozen).unwrap();
        let StrategyState::Icb(state) = &snapshot.state else {
            panic!("an ICB checkpoint");
        };
        assert!(
            state.deferred.iter().all(|&(bound, ..)| bound <= c),
            "stored levels past the target: {:?}",
            state.deferred
        );
        for resume_jobs in [1, 2] {
            let reference = Search::over(&program)
                .config(config.clone())
                .jobs(resume_jobs)
                .run()
                .unwrap();
            assert!(!reference.completed);
            assert_eq!(reference.completed_bound, Some(c));
            let resumed = Search::over(&program)
                .resume_from(snapshot.clone())
                .jobs(resume_jobs)
                .run()
                .unwrap();
            assert_same_exploration(&resumed, &reference);
            assert_eq!(resumed.completed_bound, reference.completed_bound);
            assert_eq!(resumed.bound_history, reference.bound_history);
            assert_eq!(resumed.truncated, reference.truncated);
        }
    }
}

#[test]
fn dfs_checkpoints_resume_across_job_counts() {
    let program = Counters {
        n: 3,
        k: 3,
        bug: Some((1, 1, 3)),
    };
    let config = SearchConfig::default();
    for strategy in [Strategy::Dfs, Strategy::DepthBounded(4)] {
        for jobs in [(1, 2), (2, 1)] {
            let reference = Search::over(&program)
                .strategy(strategy)
                .config(config.clone())
                .jobs(jobs.1)
                .run()
                .unwrap();
            let resumed = resume_across_jobs(&program, strategy, &config, jobs);
            assert_same_exploration(&resumed, &reference);
        }
    }
}

#[test]
fn random_checkpoints_resume_across_job_counts() {
    let program = Counters {
        n: 3,
        k: 2,
        bug: Some((1, 0, 2)),
    };
    let config = SearchConfig::with_max_executions(40);
    let strategy = Strategy::Random { seed: 7 };
    for jobs in [(1, 2), (2, 1)] {
        let reference = Search::over(&program)
            .strategy(strategy)
            .config(config.clone())
            .jobs(jobs.1)
            .run()
            .unwrap();
        let resumed = resume_across_jobs(&program, strategy, &config, jobs);
        assert_same_exploration(&resumed, &reference);
    }
}

/// Runs a first-bug search at `jobs` to its stop with a checkpoint
/// written after every execution, and returns the report and the final
/// snapshot the stop left.
fn stopped_first_bug_search(
    program: &(dyn ControlledProgram + Sync),
    strategy: Strategy,
    config: &SearchConfig,
    jobs: usize,
    tag: &str,
) -> (SearchReport, SearchSnapshot) {
    let dir = TempDir::new(&format!("first-bug-{tag}-{jobs}"));
    let live = dir.path("live.ck");
    let report = Search::over(program)
        .strategy(strategy)
        .config(config.clone())
        .jobs(jobs)
        .checkpoint(Checkpointer::new(&live, 1))
        .run()
        .unwrap();
    assert!(
        !report.bugs.is_empty() && !report.completed,
        "{tag}: {report}"
    );
    let snapshot = SearchSnapshot::read_from(&live).expect("a stopped run leaves its snapshot");
    (report, snapshot)
}

/// A first-bug search that stopped leaves a final checkpoint; resuming
/// it must report the stopped search, not search on for more bugs.
#[test]
fn a_stopped_first_bug_search_resumes_to_the_same_report() {
    let counters = Counters {
        n: 3,
        k: 3,
        bug: Some((1, 1, 3)),
    };
    let faulty = FaultyCounters { n: 2, k: 3 };
    let cases: [(&str, &(dyn ControlledProgram + Sync), Strategy, usize); 3] = [
        ("icb", &counters, Strategy::Icb, 0),
        ("dfs", &counters, Strategy::Dfs, 0),
        ("fault", &faulty, Strategy::Icb, 1),
    ];
    for (tag, program, strategy, fault_bound) in cases {
        let config = SearchConfig {
            fault_bound,
            ..SearchConfig::bug_hunt()
        };
        // At jobs 2 ICB stops at the barrier of the level that found
        // the bug, and that is where its final snapshot is written.
        for jobs in [1, 2] {
            let (stopped, snapshot) =
                stopped_first_bug_search(program, strategy, &config, jobs, tag);
            let resumed = Search::over(program)
                .resume_from(snapshot)
                .jobs(jobs)
                .run()
                .unwrap();
            assert_reports_identical(&resumed, &stopped);
            assert_eq!(
                resumed.to_string(),
                stopped.to_string(),
                "{tag} at jobs {jobs}"
            );
        }
    }
}

/// A checkpoint that falls due on the same pump tick as a bug must not
/// hide the stop: the events its quiesce replays are checked for a stop
/// reason like any others. Two workers make the order of the two vary
/// from run to run, hence the many runs.
#[test]
fn a_first_bug_replayed_while_a_checkpoint_quiesces_still_stops_the_search() {
    let program = Counters {
        n: 3,
        k: 3,
        bug: Some((1, 1, 3)),
    };
    let dir = TempDir::new("quiesce-first-bug");
    let live = dir.path("live.ck");
    for run in 0..200 {
        let report = Search::over(&program)
            .strategy(Strategy::Dfs)
            .config(SearchConfig::bug_hunt())
            .jobs(2)
            .checkpoint(Checkpointer::new(&live, 1))
            .run()
            .unwrap();
        assert!(
            !report.bugs.is_empty() && !report.completed,
            "run {run}: {report}"
        );
    }
}

/// A checkpoint written mid-level after a bug was found, resumed by a
/// canonical (`jobs ≥ 2`) ICB search, still finishes that level: the
/// search stops at the level's barrier, as an uninterrupted one does.
#[test]
fn a_canonical_icb_resume_finishes_the_level_of_the_bug() {
    let program = Counters {
        n: 3,
        k: 3,
        bug: Some((1, 1, 3)),
    };
    let config = SearchConfig::bug_hunt();
    // A jobs-1 search stops at once on its first bug, mid-level.
    let (stopped, snapshot) = stopped_first_bug_search(&program, Strategy::Icb, &config, 1, "mid");
    let StrategyState::Icb(state) = &snapshot.state else {
        panic!("an ICB snapshot");
    };
    let last_closed = state.bound_history.last().map(|b| (b.bound, b.faults));
    assert_ne!(
        last_closed,
        Some((state.bound, state.fault)),
        "the level is open"
    );
    let reference = Search::over(&program)
        .config(config.clone())
        .jobs(2)
        .run()
        .unwrap();
    let resumed = Search::over(&program)
        .resume_from(snapshot)
        .jobs(2)
        .run()
        .unwrap();
    assert!(resumed.executions > stopped.executions, "the level ran on");
    assert_same_exploration(&resumed, &reference);
    assert_eq!(resumed.bound_history, reference.bound_history);
}
