//! Crash-resilience behavior of the engine itself: replay divergence
//! surfaces as a recoverable outcome (not a process-killing panic), the
//! wall-clock watchdog reclaims executions whose tasks get stuck
//! *between* scheduling points, where `max_steps` cannot see them, and
//! every abort — a failing scheduler's among them — wakes and drains
//! every parked task.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use icb_core::search::{Search, SearchConfig};
use icb_core::{
    ControlledProgram, ExecutionOutcome, FaultPoint, NullSink, ReplayScheduler, Schedule,
    SchedulePoint, Scheduler, Tid,
};
use icb_runtime::sync::{Event, Mutex, Semaphore};
use icb_runtime::{thread, DataVar, RuntimeConfig, RuntimeProgram};

#[test]
fn engine_divergence_is_a_recoverable_outcome() {
    let program = RuntimeProgram::new(|| {
        let t = thread::spawn(|| {});
        t.join();
    });
    // Two valid steps, then a thread id that can never be enabled.
    let schedule = Schedule::from(vec![Tid(0), Tid(0), Tid(7)]);
    let mut replay = ReplayScheduler::new(schedule);
    let result = program.execute(&mut replay, &mut NullSink);
    match result.outcome {
        ExecutionOutcome::ReplayDivergence {
            step,
            expected,
            ref actual,
        } => {
            assert_eq!(step, 2);
            assert_eq!(expected, Tid(7));
            assert!(!actual.contains(&expected));
        }
        ref other => panic!("expected ReplayDivergence, got {other:?}"),
    }
    // The partial trace up to the divergence point is preserved.
    assert_eq!(result.trace.len(), 2);

    // Workers were reclaimed: the engine runs normally afterwards.
    let report = Search::over(&program)
        .config(SearchConfig::default())
        .run()
        .unwrap();
    assert!(report.completed);
    assert!(report.bugs.is_empty());
}

#[test]
fn watchdog_times_out_a_stuck_task() {
    let config = RuntimeConfig {
        max_wall_time: Some(Duration::from_millis(25)),
        ..RuntimeConfig::default()
    };
    let program = RuntimeProgram::with_config(config, || {
        // Stuck between scheduling points: no yield, no sync op.
        std::thread::sleep(Duration::from_millis(250));
    });
    let mut replay = ReplayScheduler::new(Schedule::new());
    let result = program.execute(&mut replay, &mut NullSink);
    assert_eq!(result.outcome, ExecutionOutcome::WatchdogTimeout);
}

#[test]
fn watchdog_drains_the_other_tasks() {
    // The stuck task holds the baton while another task is parked; the
    // watchdog must abandon the former and cleanly unwind the latter.
    let config = RuntimeConfig {
        max_wall_time: Some(Duration::from_millis(25)),
        ..RuntimeConfig::default()
    };
    let program = RuntimeProgram::with_config(config, || {
        let lock = Arc::new(Mutex::new(0u32));
        let l2 = Arc::clone(&lock);
        let t = thread::spawn(move || {
            *l2.lock() += 1;
            std::thread::sleep(Duration::from_millis(250));
        });
        t.join();
    });
    let mut replay = ReplayScheduler::new(Schedule::new());
    let result = program.execute(&mut replay, &mut NullSink);
    assert_eq!(result.outcome, ExecutionOutcome::WatchdogTimeout);

    // And the engine is reusable for a healthy program afterwards.
    let healthy = RuntimeProgram::new(|| {
        let t = thread::spawn(|| {});
        t.join();
    });
    let report = Search::over(&healthy)
        .config(SearchConfig::default())
        .run()
        .unwrap();
    assert!(report.completed);
}

/// A scheduler that counts the decisions it is asked for once `execute`
/// has returned: the search's scheduler is only borrowed for the call.
struct CountsLatePicks {
    returned: Arc<AtomicBool>,
    late_picks: Arc<AtomicUsize>,
}

impl Scheduler for CountsLatePicks {
    fn pick(&mut self, point: SchedulePoint<'_>) -> Tid {
        if self.returned.load(Ordering::SeqCst) {
            self.late_picks.fetch_add(1, Ordering::SeqCst);
        }
        point.default_choice()
    }
}

#[test]
fn an_abandoned_task_never_reaches_the_scheduler_after_execute_returns() {
    let config = RuntimeConfig {
        max_wall_time: Some(Duration::from_millis(25)),
        ..RuntimeConfig::default()
    };
    let woke = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&woke);
    let program = RuntimeProgram::with_config(config, move || {
        // Stuck past the watchdog, then a scheduling point.
        std::thread::sleep(Duration::from_millis(250));
        flag.store(true, Ordering::SeqCst);
        thread::yield_now();
    });
    let returned = Arc::new(AtomicBool::new(false));
    let late_picks = Arc::new(AtomicUsize::new(0));
    // Kept alive past `execute`, so a late pick is counted, not a crash.
    let mut scheduler = CountsLatePicks {
        returned: Arc::clone(&returned),
        late_picks: Arc::clone(&late_picks),
    };
    let result = program.execute(&mut scheduler, &mut NullSink);
    returned.store(true, Ordering::SeqCst);
    assert_eq!(result.outcome, ExecutionOutcome::WatchdogTimeout);

    // Let the abandoned task wake and reach its scheduling point.
    let waited = Instant::now();
    while !woke.load(Ordering::SeqCst) && waited.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(woke.load(Ordering::SeqCst), "the abandoned task never woke");
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(late_picks.load(Ordering::SeqCst), 0, "a pick after return");

    let healthy = RuntimeProgram::new(|| {
        let t = thread::spawn(|| {});
        t.join();
    });
    let report = Search::over(&healthy)
        .config(SearchConfig::default())
        .run()
        .unwrap();
    assert!(report.completed);
    assert_eq!(late_picks.load(Ordering::SeqCst), 0, "a pick after return");
}

#[test]
fn search_survives_a_livelocking_workload_and_reports_trips() {
    let config = RuntimeConfig {
        max_wall_time: Some(Duration::from_millis(20)),
        ..RuntimeConfig::default()
    };
    let program = RuntimeProgram::with_config(config, || {
        std::thread::sleep(Duration::from_millis(200));
    });
    let report = Search::over(&program)
        .config(SearchConfig::default())
        .run()
        .unwrap();
    // The hung execution became a recoverable timeout, not a hang or a
    // bug report, and the search ran to completion.
    assert!(report.watchdog_trips >= 1, "{report}");
    assert!(report.bugs.is_empty());
    assert_eq!(report.buggy_executions, 0);
    assert!(report.to_string().contains("watchdog"), "{report}");
}

/// Runs `f` on its own thread and fails the test if it takes longer
/// than `limit` (a lost wake-up hangs instead of failing).
fn within<R: Send + 'static>(
    limit: Duration,
    what: &str,
    f: impl FnOnce() -> R + Send + 'static,
) -> R {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(limit)
        .unwrap_or_else(|_| panic!("{what} did not finish within {limit:?}"))
}

/// Spawns eight tasks and returns once each is parked on an event that
/// is never set.
fn park_eight_tasks() {
    let gate = Arc::new(Event::manual_reset(false));
    let arrived = Arc::new(Semaphore::new(0));
    for _ in 0..8 {
        let (gate, arrived) = (Arc::clone(&gate), Arc::clone(&arrived));
        thread::spawn(move || {
            arrived.release();
            gate.wait();
        });
    }
    for _ in 0..8 {
        arrived.acquire();
    }
}

/// Runs `body` in the main task, after eight tasks are parked, under
/// the non-preemptive replay scheduler.
fn run_with_eight_parked(config: RuntimeConfig, body: fn()) -> ExecutionOutcome {
    let program = RuntimeProgram::with_config(config, move || {
        park_eight_tasks();
        body();
    });
    let mut replay = ReplayScheduler::new(Schedule::new());
    program.execute(&mut replay, &mut NullSink).outcome
}

#[test]
fn every_abort_cause_drains_eight_parked_tasks() {
    // The cause, its config, what the main task does once eight tasks
    // are parked, and the outcome the execution must end with.
    type Case = (
        &'static str,
        RuntimeConfig,
        fn(),
        fn(&ExecutionOutcome) -> bool,
    );
    let cases: [Case; 5] = [
        (
            "deadlock",
            RuntimeConfig::default(),
            || Event::manual_reset(false).wait(),
            |o| matches!(o, ExecutionOutcome::Deadlock { blocked } if blocked.len() == 9),
        ),
        (
            "step limit",
            RuntimeConfig {
                max_steps: 200,
                ..RuntimeConfig::default()
            },
            || loop {
                thread::yield_now();
            },
            |o| *o == ExecutionOutcome::StepLimitExceeded,
        ),
        (
            "task assertion",
            RuntimeConfig::default(),
            || panic!("assertion in the main task"),
            |o| matches!(o, ExecutionOutcome::AssertionFailure { thread, .. } if *thread == Tid::MAIN),
        ),
        (
            "data race",
            RuntimeConfig::default(),
            || {
                // Two unsynchronized writers: the second write races.
                let x = Arc::new(DataVar::new(0u32));
                let writers: Vec<_> = (0..2)
                    .map(|i| {
                        let x = Arc::clone(&x);
                        thread::spawn(move || x.write(i))
                    })
                    .collect();
                for w in writers {
                    w.join();
                }
            },
            |o| matches!(o, ExecutionOutcome::DataRace { .. }),
        ),
        (
            "watchdog expiry",
            RuntimeConfig {
                max_wall_time: Some(Duration::from_millis(200)),
                ..RuntimeConfig::default()
            },
            || std::thread::sleep(Duration::from_millis(1000)),
            |o| *o == ExecutionOutcome::WatchdogTimeout,
        ),
    ];
    for (name, config, trigger, check) in cases {
        let outcome = within(Duration::from_secs(30), name, move || {
            run_with_eight_parked(config, trigger)
        });
        assert!(check(&outcome), "{name}: unexpected outcome {outcome:?}");
        assert_the_next_execution_completes(name);
    }
}

/// No task kept a lost wake-up and every worker came back: the next
/// execution runs to completion.
fn assert_the_next_execution_completes(name: &str) {
    let outcome = within(Duration::from_secs(30), name, || {
        let program = RuntimeProgram::new(|| {
            let count = Arc::new(Mutex::new(0u32));
            let tasks: Vec<_> = (0..8)
                .map(|_| {
                    let count = Arc::clone(&count);
                    thread::spawn(move || *count.lock() += 1)
                })
                .collect();
            for t in tasks {
                t.join();
            }
            assert_eq!(*count.lock(), 8);
        });
        let mut replay = ReplayScheduler::new(Schedule::new());
        program.execute(&mut replay, &mut NullSink).outcome
    });
    assert_eq!(
        outcome,
        ExecutionOutcome::Terminated,
        "{name}: the next execution did not complete"
    );
}

/// A user scheduler with a bug: it panics when asked for a fault
/// decision, or (when `.0`) picks a disabled thread at step 1.
struct Faulty(bool);

impl Scheduler for Faulty {
    fn pick(&mut self, point: SchedulePoint<'_>) -> Tid {
        match self.0 && point.step_index == 1 {
            true => Tid(7),
            false => point.default_choice(),
        }
    }

    fn decide_fault(&mut self, _point: FaultPoint) -> bool {
        panic!("the fault policy failed");
    }
}

/// Sets its flag when dropped: a parked task drops it only once drained.
struct SetOnDrop(Arc<AtomicBool>);

impl Drop for SetOnDrop {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

#[test]
fn scheduler_failures_drain_the_parked_task() {
    for disabled_pick in [false, true] {
        let dropped = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&dropped);
        let program = RuntimeProgram::new(move || {
            let _held = SetOnDrop(Arc::clone(&flag));
            icb_runtime::fail_point("io");
        });
        let mut scheduler = Faulty(disabled_pick);
        let run = catch_unwind(AssertUnwindSafe(|| {
            program.execute(&mut scheduler, &mut NullSink)
        }));
        assert!(run.is_err(), "the scheduler's panic reaches the caller");
        let waited = Instant::now();
        while !dropped.load(Ordering::SeqCst) && waited.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(
            dropped.load(Ordering::SeqCst),
            "disabled pick {disabled_pick}: the parked task was never drained"
        );
    }
}

/// Runs a root that spawns eight children and then does `trigger`,
/// under `scheduler`. Each child holds a [`SetOnDrop`] and, if it ever
/// runs, marks that it ran and waits on an event that is never set.
/// Returns the outcome (`None` if the scheduler's panic reached the
/// caller), how many children's holds were dropped, and how many ran.
fn spawn_eight_then(
    config: RuntimeConfig,
    scheduler: &mut dyn Scheduler,
    trigger: fn(),
) -> (Option<ExecutionOutcome>, usize, usize) {
    let dropped: Arc<Vec<Arc<AtomicBool>>> =
        Arc::new((0..8).map(|_| Arc::new(AtomicBool::new(false))).collect());
    let ran = Arc::new(AtomicUsize::new(0));
    let program = {
        let (dropped, ran) = (Arc::clone(&dropped), Arc::clone(&ran));
        RuntimeProgram::with_config(config, move || {
            let gate = Arc::new(Event::manual_reset(false));
            for flag in dropped.iter() {
                let held = SetOnDrop(Arc::clone(flag));
                let (gate, ran) = (Arc::clone(&gate), Arc::clone(&ran));
                thread::spawn(move || {
                    let _held = held;
                    ran.fetch_add(1, Ordering::SeqCst);
                    gate.wait();
                });
            }
            trigger();
        })
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        program.execute(scheduler, &mut NullSink).outcome
    }))
    .ok();
    let drops = dropped.iter().filter(|f| f.load(Ordering::SeqCst)).count();
    (outcome, drops, ran.load(Ordering::SeqCst))
}

#[test]
fn every_abort_cause_drops_the_bodies_of_unstarted_tasks() {
    // A child's thread starts on its first turn, and the non-preemptive
    // replay keeps the root running, so each cause strikes while the
    // eight children have never run: the abort must start each one so
    // that it drops its body and the drain ends. A deadlock is the
    // exception: a child that never ran has its `Start` enabled, so here
    // every child runs once and blocks before the deadlock.
    type Case = (
        &'static str,
        RuntimeConfig,
        bool,
        fn(),
        fn(&Option<ExecutionOutcome>) -> bool,
    );
    let cases: [Case; 5] = [
        (
            "task assertion",
            RuntimeConfig::default(),
            false,
            || panic!("assertion in the main task"),
            |o| matches!(o, Some(ExecutionOutcome::AssertionFailure { thread, .. }) if *thread == Tid::MAIN),
        ),
        (
            "deadlock",
            RuntimeConfig::default(),
            false,
            || Event::manual_reset(false).wait(),
            |o| matches!(o, Some(ExecutionOutcome::Deadlock { blocked }) if blocked.len() == 9),
        ),
        (
            "step limit",
            RuntimeConfig {
                max_steps: 50,
                ..RuntimeConfig::default()
            },
            false,
            || loop {
                thread::yield_now();
            },
            |o| *o == Some(ExecutionOutcome::StepLimitExceeded),
        ),
        (
            "scheduler panic at the first fault decision",
            RuntimeConfig::default(),
            true,
            || {
                icb_runtime::fail_point("io");
            },
            |o| o.is_none(),
        ),
        (
            "watchdog expiry",
            RuntimeConfig {
                max_wall_time: Some(Duration::from_millis(200)),
                ..RuntimeConfig::default()
            },
            false,
            || std::thread::sleep(Duration::from_millis(1000)),
            |o| *o == Some(ExecutionOutcome::WatchdogTimeout),
        ),
    ];
    for (name, config, faulty, trigger, check) in cases {
        let (outcome, drops, ran) = within(Duration::from_secs(30), name, move || {
            let mut replay = ReplayScheduler::new(Schedule::new());
            let mut failing = Faulty(false);
            let scheduler: &mut dyn Scheduler = match faulty {
                true => &mut failing,
                false => &mut replay,
            };
            spawn_eight_then(config, scheduler, trigger)
        });
        assert!(check(&outcome), "{name}: unexpected outcome {outcome:?}");
        assert_eq!(drops, 8, "{name}: a child's body was never dropped");
        let expected_runs = if name == "deadlock" { 8 } else { 0 };
        assert_eq!(ran, expected_runs, "{name}: children that ran");
        assert_the_next_execution_completes(name);
    }
}

#[test]
fn the_root_task_runs_on_the_caller_unless_a_watchdog_is_set() {
    for watchdog in [None, Some(Duration::from_secs(30))] {
        let caller = std::thread::current().id();
        let seen = Arc::new(std::sync::Mutex::new(None));
        let program = {
            let seen = Arc::clone(&seen);
            let config = RuntimeConfig {
                max_wall_time: watchdog,
                ..RuntimeConfig::default()
            };
            RuntimeProgram::with_config(config, move || {
                *seen.lock().unwrap() = Some(std::thread::current().id());
            })
        };
        let mut replay = ReplayScheduler::new(Schedule::new());
        let result = program.execute(&mut replay, &mut NullSink);
        assert_eq!(result.outcome, ExecutionOutcome::Terminated);
        let root = seen.lock().unwrap().expect("the root ran");
        assert_eq!(root == caller, watchdog.is_none(), "watchdog {watchdog:?}");
    }
}
