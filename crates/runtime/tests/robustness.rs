//! Crash-resilience behavior of the engine itself: replay divergence
//! surfaces as a recoverable outcome (not a process-killing panic), the
//! wall-clock watchdog reclaims executions whose tasks get stuck
//! *between* scheduling points, where `max_steps` cannot see them, and
//! every abort wakes and drains every parked task.

use std::sync::{mpsc, Arc};
use std::time::Duration;

use icb_core::search::{Search, SearchConfig};
use icb_core::{ControlledProgram, ExecutionOutcome, NullSink, ReplayScheduler, Schedule, Tid};
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

        // No task kept a lost wake-up and every worker came back: the
        // next execution runs to completion.
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
}
