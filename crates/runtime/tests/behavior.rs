//! Behavioral tests of the controlled runtime: every primitive, every
//! outcome kind, determinism, and the soundness-related configuration
//! switches.

use std::sync::Arc;
use std::time::Duration;

use icb_core::search::{Search, SearchConfig, Strategy};
use icb_core::{
    ControlledProgram, ExecutionOutcome, NullSink, Phase, ReplayScheduler, SchedulePoint,
    Scheduler, SearchObserver, Tid,
};
use icb_runtime::sync::{AtomicUsize, Condvar, Event, Mutex, Semaphore};
use icb_runtime::{thread, DataVar, RuntimeConfig, RuntimeProgram};

mod common;

use common::minimal_bug;

fn exhaustive(program: &RuntimeProgram) -> icb_core::search::SearchReport {
    Search::over(program)
        .config(SearchConfig::default())
        .run()
        .unwrap()
}

#[test]
fn single_thread_program_has_one_execution() {
    let program = RuntimeProgram::new(|| {
        let x = DataVar::new(0);
        x.write(1);
        assert_eq!(x.read(), 1);
    });
    let report = exhaustive(&program);
    assert!(report.completed);
    assert_eq!(report.executions, 1);
    assert!(report.bugs.is_empty());
}

#[test]
fn mutex_guarantees_mutual_exclusion_in_every_interleaving() {
    let program = RuntimeProgram::new(|| {
        let lock = Arc::new(Mutex::new(()));
        let inside = Arc::new(DataVar::new(0u32));
        let ts: Vec<_> = (0..2)
            .map(|_| {
                let lock = Arc::clone(&lock);
                let inside = Arc::clone(&inside);
                thread::spawn(move || {
                    let _g = lock.lock();
                    inside.with_mut(|v| *v += 1);
                    assert_eq!(inside.read(), 1, "two tasks inside the critical section");
                    inside.with_mut(|v| *v -= 1);
                })
            })
            .collect();
        for t in ts {
            t.join();
        }
    });
    let report = exhaustive(&program);
    assert!(report.completed);
    assert!(report.bugs.is_empty(), "bugs: {:?}", report.bugs);
    assert!(report.executions > 1);
}

#[test]
fn lost_update_found_with_one_preemption() {
    let program = RuntimeProgram::new(|| {
        let counter = Arc::new(Mutex::new(0i32));
        let ts: Vec<_> = (0..2)
            .map(|_| {
                let counter = Arc::clone(&counter);
                thread::spawn(move || {
                    let v = *counter.lock();
                    *counter.lock() = v + 1;
                })
            })
            .collect();
        for t in ts {
            t.join();
        }
        assert_eq!(*counter.lock(), 2, "lost update");
    });
    let bug = minimal_bug(&program, 100_000).expect("lost update is reachable");
    assert_eq!(bug.preemptions, 1);
    assert!(matches!(
        bug.outcome,
        ExecutionOutcome::AssertionFailure { .. }
    ));
}

#[test]
fn ab_ba_deadlock_is_detected() {
    let program = RuntimeProgram::new(|| {
        let a = Arc::new(Mutex::new(()));
        let b = Arc::new(Mutex::new(()));
        let t = {
            let (a, b) = (Arc::clone(&a), Arc::clone(&b));
            thread::spawn(move || {
                let _ga = a.lock();
                let _gb = b.lock();
            })
        };
        {
            let _gb = b.lock();
            let _ga = a.lock();
        }
        t.join();
    });
    let bug = minimal_bug(&program, 100_000).expect("deadlock is reachable");
    match &bug.outcome {
        ExecutionOutcome::Deadlock { blocked } => assert_eq!(blocked.len(), 2),
        other => panic!("expected deadlock, got {other}"),
    }
    // One preemption: interleave the two acquisition sequences.
    assert_eq!(bug.preemptions, 1);
}

#[test]
fn try_lock_never_blocks_and_never_deadlocks() {
    let program = RuntimeProgram::new(|| {
        let a = Arc::new(Mutex::new(()));
        let b = Arc::new(Mutex::new(()));
        let t = {
            let (a, b) = (Arc::clone(&a), Arc::clone(&b));
            thread::spawn(move || {
                let _ga = a.lock();
                // try_lock instead of lock: no hold-and-wait, no deadlock.
                let _maybe = b.try_lock();
            })
        };
        {
            let _gb = b.lock();
            let _maybe = a.try_lock();
        }
        t.join();
    });
    let report = exhaustive(&program);
    assert!(report.completed);
    assert!(report.bugs.is_empty(), "bugs: {:?}", report.bugs);
}

#[test]
fn condvar_handshake_is_correct_in_all_interleavings() {
    let program = RuntimeProgram::new(|| {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let t = {
            let pair = Arc::clone(&pair);
            thread::spawn(move || {
                let (lock, cv) = &*pair;
                let mut ready = lock.lock();
                *ready = true;
                cv.notify_one();
            })
        };
        let (lock, cv) = &*pair;
        let mut ready = lock.lock();
        while !*ready {
            ready = cv.wait(ready);
        }
        drop(ready);
        t.join();
    });
    let report = exhaustive(&program);
    assert!(report.completed);
    assert!(report.bugs.is_empty(), "bugs: {:?}", report.bugs);
}

#[test]
fn missed_signal_without_predicate_recheck_deadlocks() {
    // The waiter waits unconditionally; if the notifier runs first the
    // signal is lost (condvar semantics) and the waiter blocks forever.
    let program = RuntimeProgram::new(|| {
        let pair = Arc::new((Mutex::new(()), Condvar::new()));
        let t = {
            let pair = Arc::clone(&pair);
            thread::spawn(move || {
                let (lock, cv) = &*pair;
                let _g = lock.lock();
                cv.notify_one();
            })
        };
        let (lock, cv) = &*pair;
        let g = lock.lock();
        let g = cv.wait(g); // BUG: no predicate loop
        drop(g);
        t.join();
    });
    let bug = minimal_bug(&program, 100_000).expect("missed signal");
    assert!(matches!(bug.outcome, ExecutionOutcome::Deadlock { .. }));
    // One preemption: the notifier must run between the waiter's spawn
    // and its wait, which requires preempting the main thread once.
    assert_eq!(bug.preemptions, 1);
}

#[test]
fn notify_all_wakes_every_waiter() {
    let program = RuntimeProgram::new(|| {
        let pair = Arc::new((Mutex::new(0u32), Condvar::new()));
        let waiters: Vec<_> = (0..2)
            .map(|_| {
                let pair = Arc::clone(&pair);
                thread::spawn(move || {
                    let (lock, cv) = &*pair;
                    let mut go = lock.lock();
                    while *go == 0 {
                        go = cv.wait(go);
                    }
                })
            })
            .collect();
        let (lock, cv) = &*pair;
        *lock.lock() = 1;
        cv.notify_all();
        for w in waiters {
            w.join();
        }
    });
    let report = exhaustive(&program);
    assert!(report.completed);
    assert!(report.bugs.is_empty(), "bugs: {:?}", report.bugs);
}

#[test]
fn semaphore_bounds_concurrent_holders() {
    let program = RuntimeProgram::new(|| {
        let sem = Arc::new(Semaphore::new(1));
        let inside = Arc::new(DataVar::new(0u32));
        let ts: Vec<_> = (0..2)
            .map(|_| {
                let sem = Arc::clone(&sem);
                let inside = Arc::clone(&inside);
                thread::spawn(move || {
                    sem.acquire();
                    inside.with_mut(|v| *v += 1);
                    assert!(inside.read() <= 1, "semaphore exceeded");
                    inside.with_mut(|v| *v -= 1);
                    sem.release();
                })
            })
            .collect();
        for t in ts {
            t.join();
        }
    });
    let report = exhaustive(&program);
    assert!(report.completed);
    assert!(report.bugs.is_empty(), "bugs: {:?}", report.bugs);
}

#[test]
fn auto_reset_event_releases_exactly_one_waiter() {
    // Two waiters, an auto-reset event initially set: exactly one
    // consumes the signal. The main thread re-sets only after the first
    // waiter got through (acknowledged via semaphore), because setting
    // an already-set event is idempotent — signals do not accumulate.
    let program = RuntimeProgram::new(|| {
        let ev = Arc::new(Event::auto_reset(true));
        let ack = Arc::new(Semaphore::new(0));
        let passed = Arc::new(AtomicUsize::new(0));
        let ts: Vec<_> = (0..2)
            .map(|_| {
                let ev = Arc::clone(&ev);
                let ack = Arc::clone(&ack);
                let passed = Arc::clone(&passed);
                thread::spawn(move || {
                    ev.wait();
                    passed.fetch_add(1);
                    ack.release();
                })
            })
            .collect();
        ack.acquire(); // first waiter consumed the initial signal
        ev.set(); // release the second
        for t in ts {
            t.join();
        }
        assert_eq!(passed.load(), 2);
    });
    let report = exhaustive(&program);
    assert!(report.completed);
    assert!(report.bugs.is_empty(), "bugs: {:?}", report.bugs);
}

#[test]
fn manual_reset_event_stays_signaled() {
    let program = RuntimeProgram::new(|| {
        let ev = Arc::new(Event::manual_reset(false));
        let ts: Vec<_> = (0..2)
            .map(|_| {
                let ev = Arc::clone(&ev);
                thread::spawn(move || ev.wait())
            })
            .collect();
        ev.set(); // one set releases every (current and future) waiter
        for t in ts {
            t.join();
        }
    });
    let report = exhaustive(&program);
    assert!(report.completed);
    assert!(report.bugs.is_empty(), "bugs: {:?}", report.bugs);
}

#[test]
fn atomic_counter_is_correct_in_all_interleavings() {
    let program = RuntimeProgram::new(|| {
        let c = Arc::new(AtomicUsize::new(0));
        let ts: Vec<_> = (0..2)
            .map(|_| {
                let c = Arc::clone(&c);
                thread::spawn(move || {
                    c.fetch_add(1);
                })
            })
            .collect();
        for t in ts {
            t.join();
        }
        assert_eq!(c.load(), 2);
    });
    let report = exhaustive(&program);
    assert!(report.completed);
    assert!(report.bugs.is_empty(), "bugs: {:?}", report.bugs);
}

#[test]
fn compare_exchange_loop_is_atomic() {
    let program = RuntimeProgram::new(|| {
        let c = Arc::new(AtomicUsize::new(0));
        let ts: Vec<_> = (0..2)
            .map(|_| {
                let c = Arc::clone(&c);
                thread::spawn(move || loop {
                    let v = c.load();
                    if c.compare_exchange(v, v + 1).is_ok() {
                        break;
                    }
                })
            })
            .collect();
        for t in ts {
            t.join();
        }
        assert_eq!(c.load(), 2);
    });
    let report = exhaustive(&program);
    assert!(report.completed);
    assert!(report.bugs.is_empty(), "bugs: {:?}", report.bugs);
}

#[test]
fn unsynchronized_writes_report_a_data_race() {
    let program = RuntimeProgram::new(|| {
        let x = Arc::new(DataVar::named("x", 0u32));
        let t = {
            let x = Arc::clone(&x);
            thread::spawn(move || x.write(1))
        };
        x.write(2);
        t.join();
    });
    let report = exhaustive(&program);
    let race = report
        .bugs
        .iter()
        .find(|b| matches!(b.outcome, ExecutionOutcome::DataRace { .. }))
        .expect("race reported");
    match &race.outcome {
        ExecutionOutcome::DataRace { description } => assert!(description.contains("x")),
        _ => unreachable!(),
    }
}

#[test]
fn race_checking_can_be_disabled() {
    let config = RuntimeConfig {
        fail_on_race: false,
        ..RuntimeConfig::default()
    };
    let program = RuntimeProgram::with_config(config, || {
        let x = Arc::new(DataVar::new(0u32));
        let t = {
            let x = Arc::clone(&x);
            thread::spawn(move || x.write(1))
        };
        x.write(2);
        t.join();
    });
    let report = exhaustive(&program);
    assert!(report.bugs.is_empty());
}

#[test]
fn step_limit_catches_livelocks() {
    let config = RuntimeConfig {
        max_steps: 50,
        ..RuntimeConfig::default()
    };
    let program = RuntimeProgram::with_config(config, || loop {
        thread::yield_now();
    });
    let mut replay = ReplayScheduler::new(Default::default());
    let result = program.execute(&mut replay, &mut NullSink);
    assert_eq!(result.outcome, ExecutionOutcome::StepLimitExceeded);
    assert!(result.stats.steps <= 51);
}

#[test]
fn replaying_a_bug_schedule_reproduces_it_exactly() {
    let program = RuntimeProgram::new(|| {
        let c = Arc::new(Mutex::new(0i32));
        let ts: Vec<_> = (0..2)
            .map(|_| {
                let c = Arc::clone(&c);
                thread::spawn(move || {
                    let v = *c.lock();
                    *c.lock() = v + 1;
                })
            })
            .collect();
        for t in ts {
            t.join();
        }
        assert_eq!(*c.lock(), 2, "lost update");
    });
    let bug = minimal_bug(&program, 100_000).expect("bug");
    for _ in 0..3 {
        let mut replay = ReplayScheduler::new(bug.schedule.clone());
        let result = program.execute(&mut replay, &mut NullSink);
        assert_eq!(result.outcome, bug.outcome);
        assert_eq!(result.trace.schedule(), bug.schedule);
    }
}

#[test]
fn executions_are_deterministic_across_runs() {
    let program = RuntimeProgram::new(|| {
        let c = Arc::new(AtomicUsize::new(0));
        let t = {
            let c = Arc::clone(&c);
            thread::spawn(move || {
                c.fetch_add(1);
            })
        };
        c.fetch_add(1);
        t.join();
    });
    let a = exhaustive(&program);
    let b = exhaustive(&program);
    assert_eq!(a.executions, b.executions);
    assert_eq!(a.distinct_states, b.distinct_states);
    assert_eq!(a.coverage_curve, b.coverage_curve);
}

#[test]
fn hb_fingerprints_collapse_equivalent_interleavings() {
    // Two threads touching disjoint atomics: every interleaving is
    // HB-equivalent at the end, so distinct terminal states are shared
    // across executions and total states grow linearly, not
    // combinatorially.
    let program = RuntimeProgram::new(|| {
        let a = Arc::new(AtomicUsize::new(0));
        let b = Arc::new(AtomicUsize::new(0));
        let t1 = {
            let a = Arc::clone(&a);
            thread::spawn(move || {
                a.fetch_add(1);
                a.fetch_add(1);
            })
        };
        let t2 = {
            let b = Arc::clone(&b);
            thread::spawn(move || {
                b.fetch_add(1);
                b.fetch_add(1);
            })
        };
        t1.join();
        t2.join();
    });
    let report = exhaustive(&program);
    assert!(report.completed);
    // Interleavings of the two independent middles differ only in
    // linearization order: far fewer HB-states than naive prefix counts.
    let naive_upper = report.executions * report.max_stats.steps;
    assert!(report.distinct_states * 2 < naive_upper);
}

#[test]
fn full_interleaving_mode_explores_more_schedules() {
    let body = || {
        let x = Arc::new(DataVar::new(0u32));
        let lock = Arc::new(Mutex::new(()));
        let t = {
            let (x, lock) = (Arc::clone(&x), Arc::clone(&lock));
            thread::spawn(move || {
                let _g = lock.lock();
                x.with_mut(|v| *v += 1);
                x.with_mut(|v| *v += 1);
            })
        };
        {
            let _g = lock.lock();
            x.with_mut(|v| *v += 1);
        }
        t.join();
    };
    let reduced = exhaustive(&RuntimeProgram::new(body));
    let full = exhaustive(&RuntimeProgram::with_config(
        RuntimeConfig::full_interleaving(),
        body,
    ));
    assert!(reduced.completed && full.completed);
    assert!(
        full.executions > reduced.executions,
        "full {} !> reduced {}",
        full.executions,
        reduced.executions
    );
    // The reduction is sound: both report the same (zero) bugs.
    assert!(reduced.bugs.is_empty() && full.bugs.is_empty());
}

#[test]
fn join_transfers_happens_before() {
    let program = RuntimeProgram::new(|| {
        let x = Arc::new(DataVar::new(0u32));
        let t = {
            let x = Arc::clone(&x);
            thread::spawn(move || x.write(7))
        };
        t.join();
        assert_eq!(x.read(), 7); // ordered by join: no race, value visible
    });
    let report = exhaustive(&program);
    assert!(report.completed);
    assert!(report.bugs.is_empty(), "bugs: {:?}", report.bugs);
}

#[test]
fn spawn_order_determines_tids() {
    let program = RuntimeProgram::new(|| {
        assert_eq!(thread::current_tid().index(), 0);
        let t1 = thread::spawn(|| {});
        let t2 = thread::spawn(|| {});
        assert_eq!(t1.tid().index(), 1);
        assert_eq!(t2.tid().index(), 2);
        t1.join();
        t2.join();
    });
    let report = exhaustive(&program);
    assert!(report.bugs.is_empty(), "bugs: {:?}", report.bugs);
}

#[test]
fn dfs_and_icb_agree_on_runtime_programs() {
    let body = || {
        let c = Arc::new(AtomicUsize::new(0));
        let ts: Vec<_> = (0..2)
            .map(|_| {
                let c = Arc::clone(&c);
                thread::spawn(move || {
                    c.fetch_add(1);
                })
            })
            .collect();
        for t in ts {
            t.join();
        }
    };
    let icb = exhaustive(&RuntimeProgram::new(body));
    let dfs_prog = RuntimeProgram::new(body);
    let dfs = Search::over(&dfs_prog)
        .strategy(Strategy::Dfs)
        .config(SearchConfig::default())
        .run()
        .unwrap();
    assert!(icb.completed && dfs.completed);
    assert_eq!(icb.executions, dfs.executions);
    assert_eq!(icb.distinct_states, dfs.distinct_states);
}

#[test]
fn nested_spawns_work() {
    let program = RuntimeProgram::new(|| {
        let c = Arc::new(AtomicUsize::new(0));
        let outer = {
            let c = Arc::clone(&c);
            thread::spawn(move || {
                let inner = {
                    let c = Arc::clone(&c);
                    thread::spawn(move || {
                        c.fetch_add(1);
                    })
                };
                inner.join();
                c.fetch_add(1);
            })
        };
        outer.join();
        assert_eq!(c.load(), 2);
    });
    let report = exhaustive(&program);
    assert!(report.completed);
    assert!(report.bugs.is_empty(), "bugs: {:?}", report.bugs);
}

/// Records the phase reports it asks for (when `.0`).
struct PhaseCatcher(bool, Vec<Phase>);

impl SearchObserver for PhaseCatcher {
    fn wants_phase_timing(&self) -> bool {
        self.0
    }
    fn phase_time(&mut self, phase: Phase, _elapsed: Duration) {
        self.1.push(phase);
    }
}

/// Runs the highest enabled thread, preempting whenever it can.
struct Highest;

impl Scheduler for Highest {
    fn pick(&mut self, point: SchedulePoint<'_>) -> Tid {
        *point.enabled.last().unwrap()
    }
}

#[test]
fn observed_execution_reports_each_phase_once_and_agrees_with_execute() {
    let program = RuntimeProgram::new(|| {
        let x = Arc::new(Mutex::new(0u32));
        let x2 = Arc::clone(&x);
        let t = thread::spawn(move || *x2.lock() += 1);
        *x.lock() += 1;
        t.join();
    });
    let schedule = program
        .execute(&mut Highest, &mut NullSink)
        .trace
        .schedule();
    let plain = program.execute(&mut ReplayScheduler::new(schedule.clone()), &mut NullSink);
    assert_eq!(plain.outcome, ExecutionOutcome::Terminated);
    assert!(plain.stats.preemptions > 0, "{:?}", plain.stats);
    for wants in [true, false] {
        let mut catcher = PhaseCatcher(wants, Vec::new());
        let mut replay = ReplayScheduler::new(schedule.clone());
        let observed = program.execute_observed(&mut replay, &mut NullSink, &mut catcher);
        assert_eq!(observed.outcome, plain.outcome);
        assert_eq!(observed.trace.schedule(), schedule);
        assert_eq!(observed.stats, plain.stats);
        let expected: &[Phase] = match wants {
            true => &[Phase::Selection, Phase::RaceDetection, Phase::Replay],
            false => &[],
        };
        assert_eq!(catcher.1, expected);
    }
}
