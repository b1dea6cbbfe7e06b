//! Behavioral tests of the composed bounded channel: FIFO order, item
//! conservation, blocking semantics, and close protocol — all verified
//! across every interleaving within a preemption bound.

use std::sync::Arc;

use icb_core::search::{Search, SearchConfig};
use icb_core::ExecutionOutcome;
use icb_runtime::sync::{Channel, Mutex};
use icb_runtime::{thread, RuntimeProgram};

mod common;

use common::minimal_bug;

fn bounded(program: &RuntimeProgram, bound: usize) -> icb_core::search::SearchReport {
    let report = Search::over(program)
        .config(SearchConfig {
            preemption_bound: Some(bound),
            max_executions: Some(400_000),
            ..SearchConfig::default()
        })
        .run()
        .unwrap();
    assert!(
        report.completed || report.completed_bound == Some(bound),
        "budget exhausted before completing bound {bound}: {:?}",
        report.completed_bound
    );
    report
}

#[test]
fn spsc_preserves_fifo_order_and_items() {
    let program = RuntimeProgram::new(|| {
        let ch = Arc::new(Channel::bounded(1));
        let producer = {
            let ch = Arc::clone(&ch);
            thread::spawn(move || {
                for i in 1..=3 {
                    ch.send(i);
                }
                ch.close();
            })
        };
        let mut got = Vec::new();
        while let Some(v) = ch.recv() {
            got.push(v);
        }
        producer.join();
        assert_eq!(got, vec![1, 2, 3], "FIFO violated or items lost");
    });
    let report = bounded(&program, 2);
    assert!(report.bugs.is_empty(), "bugs: {:?}", report.bugs);
}

#[test]
fn mpmc_conserves_items() {
    let program = RuntimeProgram::new(|| {
        let ch = Arc::new(Channel::bounded(2));
        let consumed = Arc::new(Mutex::new(Vec::new()));
        let producers: Vec<_> = (0..2)
            .map(|p| {
                let ch = Arc::clone(&ch);
                thread::spawn(move || {
                    ch.send(10 + p);
                })
            })
            .collect();
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let ch = Arc::clone(&ch);
                let consumed = Arc::clone(&consumed);
                thread::spawn(move || {
                    if let Some(v) = ch.recv() {
                        consumed.lock().push(v);
                    }
                })
            })
            .collect();
        for p in producers {
            p.join();
        }
        ch.close();
        for c in consumers {
            c.join();
        }
        let mut sorted = consumed.lock().clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![10, 11], "items lost or duplicated");
    });
    let report = bounded(&program, 1);
    assert!(report.bugs.is_empty(), "bugs: {:?}", report.bugs);
}

#[test]
fn capacity_backpressure_blocks_producer() {
    // Producer sends 2 items into capacity 1 before any recv: the
    // second send must block until the consumer drains — never panic,
    // never drop.
    let program = RuntimeProgram::new(|| {
        let ch = Arc::new(Channel::bounded(1));
        let producer = {
            let ch = Arc::clone(&ch);
            thread::spawn(move || {
                ch.send(1);
                ch.send(2); // blocks while full
                ch.close();
            })
        };
        assert_eq!(ch.recv(), Some(1));
        assert_eq!(ch.recv(), Some(2));
        assert_eq!(ch.recv(), None);
        producer.join();
    });
    let report = bounded(&program, 2);
    assert!(report.bugs.is_empty(), "bugs: {:?}", report.bugs);
}

#[test]
fn forgetting_to_close_deadlocks_receivers() {
    let program = RuntimeProgram::new(|| {
        let ch: Arc<Channel<i32>> = Arc::new(Channel::bounded(1));
        let consumer = {
            let ch = Arc::clone(&ch);
            thread::spawn(move || while ch.recv().is_some() {})
        };
        // BUG: producer finishes without close().
        ch.send(1);
        consumer.join();
    });
    let bug = minimal_bug(&program, 200_000).expect("deadlock");
    assert!(matches!(bug.outcome, ExecutionOutcome::Deadlock { .. }));
    assert_eq!(bug.preemptions, 0);
}

#[test]
fn send_after_close_is_reported() {
    let program = RuntimeProgram::new(|| {
        let ch = Arc::new(Channel::bounded(1));
        let closer = {
            let ch = Arc::clone(&ch);
            thread::spawn(move || ch.close())
        };
        ch.send(1); // races the close: some interleavings panic
        closer.join();
        let _ = ch.try_recv();
    });
    let bug = minimal_bug(&program, 200_000).expect("protocol bug");
    match &bug.outcome {
        ExecutionOutcome::AssertionFailure { message, .. } => {
            assert!(message.contains("closed channel"), "got: {message}");
        }
        other => panic!("expected the send-after-close assert, got {other}"),
    }
}

#[test]
fn try_recv_distinguishes_empty_from_closed() {
    let program = RuntimeProgram::new(|| {
        let ch: Arc<Channel<i32>> = Arc::new(Channel::bounded(1));
        assert_eq!(ch.try_recv(), Ok(None)); // empty, open
        ch.send(7);
        assert_eq!(ch.try_recv(), Ok(Some(7)));
        ch.close();
        assert_eq!(ch.try_recv(), Err(icb_runtime::sync::Closed));
    });
    let report = bounded(&program, 1);
    assert!(report.bugs.is_empty(), "bugs: {:?}", report.bugs);
}
