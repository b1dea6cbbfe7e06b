//! Divergence quarantine: a program that breaks the determinism
//! contract must not bring the search down (the pre-quarantine behavior
//! was a panic that unwound through the whole run), must not be reported
//! as a program bug, and must be called out in the final report.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use icb_core::search::{Search, SearchConfig, Strategy};
use icb_core::{
    ControlledProgram, Decisions, ExecutionOutcome, ExecutionResult, NextOp, Scheduler,
    SearchObserver, StateSink, Tid,
};

/// Runs `n` threads × `k` steps, `held(pos, t)` holding thread `t`
/// back, visiting the thread positions after every step and handing
/// `check` each step's number (from 1) and thread.
fn run_steps(
    scheduler: &mut dyn Scheduler,
    sink: &mut dyn StateSink,
    (n, k): (usize, usize),
    held: impl Fn(&[usize], usize) -> bool,
    check: impl Fn(usize, Tid),
) -> ExecutionResult {
    let mut pos = vec![0usize; n];
    let mut decisions = Decisions::new(scheduler);
    loop {
        let enabled: Vec<Tid> = (0..n)
            .filter(|&i| pos[i] < k && !held(&pos, i))
            .map(Tid)
            .collect();
        if enabled.is_empty() {
            return decisions.finish(ExecutionOutcome::Terminated);
        }
        let (chosen, _) = decisions.next(enabled, |_| NextOp::default());
        check(decisions.steps(), chosen);
        pos[chosen.index()] += 1;
        let state = pos.iter().fold(0u64, |h, &p| h << 8 | p as u64);
        sink.visit(icb_core::coverage::mix64(state));
    }
}

/// Two threads × `k` steps, deliberately nondeterministic: on every
/// odd-numbered run, thread 1 is blocked until thread 0 finishes. A
/// schedule recorded on an even run (thread 1 free to go first) diverges
/// when replayed on an odd run — exactly the failure mode quarantine
/// exists for.
struct FlakyCounters {
    k: usize,
    runs: AtomicUsize,
}

impl FlakyCounters {
    fn new(k: usize) -> Self {
        FlakyCounters {
            k,
            runs: AtomicUsize::new(0),
        }
    }
}

impl ControlledProgram for FlakyCounters {
    fn execute(&self, scheduler: &mut dyn Scheduler, sink: &mut dyn StateSink) -> ExecutionResult {
        let run = self.runs.fetch_add(1, Ordering::Relaxed);
        let constrained = run % 2 == 1;
        let held = |pos: &[usize], i| constrained && i == 1 && pos[0] < self.k;
        run_steps(scheduler, sink, (2, self.k), held, |_, _| {})
    }
}

#[test]
fn icb_quarantines_diverging_subtrees_and_keeps_searching() {
    let program = FlakyCounters::new(2);
    let report = Search::over(&program)
        .config(SearchConfig::with_max_executions(500))
        .run()
        .unwrap();
    assert!(
        report.quarantined_total > 0,
        "nondeterministic workload must trip quarantine: {report}"
    );
    assert!(
        !report.quarantined.is_empty(),
        "quarantined traces must be listed"
    );
    // Divergence is an infrastructure failure, not a program bug.
    assert_eq!(report.buggy_executions, 0, "{report}");
    assert!(report.bugs.is_empty());
    // The search survived and kept exploring past the divergence.
    assert!(report.executions > 1);
    // The final report states the forfeited space.
    let text = report.to_string();
    assert!(text.contains("quarantined"), "{text}");
    assert!(text.contains("forfeited"), "{text}");
}

#[test]
fn quarantined_traces_carry_the_divergence_details() {
    let program = FlakyCounters::new(2);
    let report = Search::over(&program)
        .config(SearchConfig::with_max_executions(500))
        .run()
        .unwrap();
    let q = report
        .quarantined
        .first()
        .expect("at least one quarantined trace");
    assert!(
        !q.actual.contains(&q.expected),
        "the expected thread must be missing from the enabled set"
    );
}

#[test]
fn dfs_quarantines_instead_of_crashing() {
    let program = FlakyCounters::new(2);
    let report = Search::over(&program)
        .strategy(Strategy::Dfs)
        .config(SearchConfig::with_max_executions(500))
        .run()
        .unwrap();
    assert!(report.quarantined_total > 0, "{report}");
    assert_eq!(report.buggy_executions, 0);
}

#[test]
fn best_first_quarantines_instead_of_crashing() {
    let program = FlakyCounters::new(2);
    let report = Search::over(&program)
        .strategy(Strategy::BestFirst)
        .config(SearchConfig::with_max_executions(500))
        .run()
        .unwrap();
    assert!(report.quarantined_total > 0, "{report}");
    assert_eq!(report.buggy_executions, 0);
}

/// Two threads × `k` steps; panics (a raw unwind, not a bug outcome)
/// whenever thread 1 is scheduled first. The panic is deterministic in
/// the schedule, so a requeued item panics again on its retry and must
/// be quarantined on the second strike.
struct PanicsOnT1First {
    k: usize,
}

impl ControlledProgram for PanicsOnT1First {
    fn execute(&self, scheduler: &mut dyn Scheduler, sink: &mut dyn StateSink) -> ExecutionResult {
        run_steps(
            scheduler,
            sink,
            (2, self.k),
            |_, _| false,
            |step, chosen| {
                if step == 1 && chosen == Tid(1) {
                    panic!("drill: thread 1 scheduled first");
                }
            },
        )
    }
}

/// Records every `worker_panic` event the pump emits, and the stream of
/// execution starts (`s`), finishes (`f`) and panics (`p`).
#[derive(Default)]
struct PanicCounter {
    panics: Vec<(usize, String)>,
    events: String,
}

impl SearchObserver for PanicCounter {
    fn execution_started(&mut self, _index: usize) {
        self.events.push('s');
    }
    fn execution_finished(
        &mut self,
        _index: usize,
        _stats: &icb_core::ExecStats,
        _outcome: &ExecutionOutcome,
        _distinct_states: usize,
    ) {
        self.events.push('f');
    }
    fn worker_panic(&mut self, worker: usize, message: &str) {
        self.panics.push((worker, message.to_string()));
        self.events.push('p');
    }
}

impl PanicCounter {
    /// Every execution is announced once and then either finishes or
    /// panics, whatever the job count.
    fn assert_paired(&self) {
        assert!(
            self.events.len().is_multiple_of(2)
                && self
                    .events
                    .as_bytes()
                    .chunks(2)
                    .all(|c| c == b"sf" || c == b"sp"),
            "{}",
            self.events
        );
    }
}

#[test]
fn parallel_workers_requeue_a_panicking_item_once_then_quarantine_it() {
    for jobs in [1, 4] {
        requeue_then_quarantine(jobs);
    }
}

fn requeue_then_quarantine(jobs: usize) {
    let program = PanicsOnT1First { k: 2 };
    let mut counter = PanicCounter::default();
    // Keep the default hook from spamming the test output: the panics
    // below are deliberate and caught by the workers.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let report = Search::over(&program)
        .config(SearchConfig::with_max_executions(500))
        .jobs(jobs)
        .observer(&mut counter)
        .run()
        .unwrap();
    std::panic::set_hook(hook);

    // The search survived the unwinds and kept exploring the healthy
    // (thread-0-first) half of the tree.
    assert!(report.executions > 0, "{report}");
    // A panicking run is an infrastructure failure, not a program bug.
    assert_eq!(report.buggy_executions, 0, "{report}");
    assert!(report.bugs.is_empty());
    // Every panic surfaced as a worker-panic event with the payload.
    assert!(
        counter.panics.len() >= 2,
        "first strike + retry must both be reported: {:?}",
        counter.panics
    );
    assert!(
        counter
            .panics
            .iter()
            .all(|(_, m)| m.contains("drill: thread 1 scheduled first")),
        "{:?}",
        counter.panics
    );
    // Second strike forfeits the item: it shows up as quarantined, and
    // each quarantined item panicked exactly twice (once on first
    // strike, once on its single retry).
    assert!(report.quarantined_total > 0, "{report}");
    assert!(
        counter.panics.len() >= 2 * report.quarantined_total,
        "{} panics for {} quarantined item(s)",
        counter.panics.len(),
        report.quarantined_total
    );
    counter.assert_paired();
}

#[test]
fn divergence_count_is_capped_but_total_is_not() {
    let program = FlakyCounters::new(3);
    let config = SearchConfig {
        max_executions: Some(2000),
        max_bug_reports: 2,
        ..SearchConfig::default()
    };
    let report = Search::over(&program).config(config).run().unwrap();
    if report.quarantined_total > 2 {
        assert_eq!(
            report.quarantined.len(),
            2,
            "list capped at max_bug_reports"
        );
    }
    assert!(report.quarantined_total >= report.quarantined.len());
}

/// `n` threads × `k` steps; panics the first time a run's schedule
/// satisfies `trigger`, then behaves. With `peer_exits`, the first run
/// lingers so a second worker is waiting for work before the first item
/// splits, and the panicking run first waits (up to five seconds) until
/// a worker thread that ran an execution has exited.
struct PanicsOnce {
    n: usize,
    k: usize,
    trigger: fn(&[Tid]) -> bool,
    fired: AtomicUsize,
    runs: AtomicUsize,
    peer_exits: Option<Arc<AtomicUsize>>,
}

impl PanicsOnce {
    fn new(n: usize, k: usize, trigger: fn(&[Tid]) -> bool) -> Self {
        PanicsOnce {
            n,
            k,
            trigger,
            fired: AtomicUsize::new(0),
            runs: AtomicUsize::new(0),
            peer_exits: None,
        }
    }

    /// The same program, already past its one panic.
    fn calm(n: usize, k: usize) -> Self {
        PanicsOnce {
            fired: AtomicUsize::new(1),
            ..PanicsOnce::new(n, k, |_| false)
        }
    }
}

/// Counts its thread's exit on drop.
struct ExitGuard(Arc<AtomicUsize>);

impl Drop for ExitGuard {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

thread_local! {
    static EXIT_GUARD: RefCell<Option<ExitGuard>> = const { RefCell::new(None) };
}

impl ControlledProgram for PanicsOnce {
    fn execute(&self, scheduler: &mut dyn Scheduler, sink: &mut dyn StateSink) -> ExecutionResult {
        let result = run_steps(scheduler, sink, (self.n, self.k), |_, _| false, |_, _| {});
        let first = self.runs.fetch_add(1, Ordering::SeqCst) == 0;
        if first && self.peer_exits.is_some() {
            std::thread::sleep(Duration::from_millis(50));
        }
        let schedule = result.trace.schedule();
        if (self.trigger)(schedule.as_slice()) && self.fired.fetch_add(1, Ordering::SeqCst) == 0 {
            if let Some(exits) = &self.peer_exits {
                let waited = Instant::now();
                while exits.load(Ordering::SeqCst) == 0 && waited.elapsed() < Duration::from_secs(5)
                {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            panic!("drill: one-off failure");
        }
        if let Some(exits) = &self.peer_exits {
            EXIT_GUARD.with(|g| {
                g.borrow_mut()
                    .get_or_insert_with(|| ExitGuard(exits.clone()));
            });
        }
        result
    }
}

/// Runs `search` with the default panic hook silenced: the panics are
/// deliberate and caught by the driver.
fn quietly<T>(search: impl FnOnce() -> T) -> T {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = search();
    std::panic::set_hook(hook);
    out
}

/// A panicked run counts as no execution: with a budget of exactly the
/// six schedules, the retried item still runs and the report equals a
/// run that never panicked, at any job count.
#[test]
fn a_panicked_run_does_not_spend_the_budget() {
    for jobs in [1, 2] {
        let config = SearchConfig::with_max_executions(6);
        let run = |program: &PanicsOnce, observer: &mut PanicCounter| {
            Search::over(program)
                .config(config.clone())
                .jobs(jobs)
                .observer(observer)
                .run()
                .unwrap()
        };
        let reference = run(&PanicsOnce::calm(2, 2), &mut PanicCounter::default());
        assert_eq!(reference.executions, 6, "jobs={jobs}: {reference}");

        let alternating = |s: &[Tid]| s == [Tid(0), Tid(1), Tid(0), Tid(1)];
        let flaky = PanicsOnce::new(2, 2, alternating);
        let mut counter = PanicCounter::default();
        let report = quietly(|| run(&flaky, &mut counter));
        assert_eq!(counter.panics.len(), 1, "jobs={jobs}: {:?}", counter.panics);
        assert_eq!(report, reference, "jobs={jobs}: the retried item ran");
        assert_eq!(report.quarantined_total, 0, "jobs={jobs}");
    }
}

/// A failed budget claim takes nothing. Two workers share a budget of
/// four of the six runs of three one-step threads: the worker running
/// the first schedule to start with thread 1 waits until the other has
/// spent the last claim, failed its next one and exited, then panics.
/// Its refunded claim must still buy the retry.
#[test]
fn a_failed_claim_leaves_the_budget_to_a_panicked_peer() {
    let mut program = PanicsOnce::new(3, 1, |s| s[0] == Tid(1));
    program.peer_exits = Some(Arc::new(AtomicUsize::new(0)));
    let mut counter = PanicCounter::default();
    let report = quietly(|| {
        Search::over(&program)
            .config(SearchConfig::with_max_executions(4))
            .jobs(2)
            .observer(&mut counter)
            .run()
            .unwrap()
    });
    assert_eq!(counter.panics.len(), 1, "{:?}", counter.panics);
    assert_eq!(report.executions, 4, "{report}");
    assert!(!report.completed, "{report}");
    assert_eq!(report.quarantined_total, 0, "{report}");
}

/// An in-memory fingerprint cache: a subtree is covered when it was
/// recorded with at least the queried credit.
#[derive(Default)]
struct MapCache(Mutex<HashMap<(u64, Tid), u32>>);

impl icb_core::ExplorationCache for MapCache {
    fn probe(&self, state: u64, choice: Tid, credit: u32) -> bool {
        let mut map = self.0.lock().unwrap();
        match map.get(&(state, choice)) {
            Some(&have) if have >= credit => true,
            _ => {
                map.insert((state, choice), credit);
                false
            }
        }
    }
}

/// The attempt that panicked already recorded its subtrees in the
/// cache; the retry must not take those records for covered work, or
/// the subtrees are never explored.
#[test]
fn a_retried_run_does_not_probe_the_cache() {
    for strategy in [Strategy::Icb, Strategy::Dfs] {
        let run = |program: &PanicsOnce| {
            let cache = MapCache::default();
            Search::over(program)
                .strategy(strategy)
                .config(SearchConfig::default())
                .cache(&cache)
                .cache_heuristic(true)
                .run()
                .unwrap()
        };
        let reference = run(&PanicsOnce::calm(2, 3));
        let report = quietly(|| run(&PanicsOnce::new(2, 3, |_| true)));
        assert_eq!(report.executions, reference.executions, "{strategy:?}");
        assert_eq!(report.distinct_states, reference.distinct_states);
        assert_eq!(report.bound_history, reference.bound_history);
        assert_eq!(report.completed, reference.completed);
        assert_eq!(report.quarantined_total, 0, "{strategy:?}");
    }
}

/// Best-first retries a panicked prefix once like every other strategy:
/// one transient panic on the root expansion forfeits nothing.
#[test]
fn best_first_retries_a_panicked_prefix_once() {
    let run = |program: &PanicsOnce, observer: &mut PanicCounter| {
        Search::over(program)
            .strategy(Strategy::BestFirst)
            .config(SearchConfig::default())
            .observer(observer)
            .run()
            .unwrap()
    };
    let reference = run(&PanicsOnce::calm(2, 2), &mut PanicCounter::default());
    let mut counter = PanicCounter::default();
    let report = quietly(|| run(&PanicsOnce::new(2, 2, |_| true), &mut counter));
    assert_eq!(counter.panics.len(), 1, "{:?}", counter.panics);
    assert_eq!(report, reference);
    assert_eq!(report.quarantined_total, 0);
    counter.assert_paired();
}
