//! A tiny deterministic multithreaded interpreter shared by the search
//! unit tests and the core integration tests (`tests/common`): `n`
//! threads, each executing `k` increments of a shared counter; an
//! optional assertion fails iff a specific interleaving pattern occurs.
//! Enabledness can include a one-slot "lock" to exercise blocking
//! (nonpreempting switches).
//!
//! It names the library as `icb_core` so that both crates compile it.

use icb_core::coverage::fingerprint_bytes;
use icb_core::search::{BugReport, Search, SearchConfig};
use icb_core::{
    ControlledProgram, Decisions, ExecutionOutcome, ExecutionResult, NextOp, Scheduler, SiteId,
    StateSink, Tid,
};

/// Reports the state of a counter program: the counter and every
/// thread's position.
fn visit(sink: &mut dyn StateSink, counter: u32, pos: &[usize]) {
    let mut bytes = Vec::with_capacity(4 + pos.len() * 8);
    bytes.extend_from_slice(&counter.to_le_bytes());
    for p in pos {
        bytes.extend_from_slice(&(*p as u64).to_le_bytes());
    }
    sink.visit(fingerprint_bytes(&bytes));
}

/// `n` threads × `k` steps, no blocking; optional bug when thread
/// `bug_thread` observes `counter == bug_value` at its own step
/// `bug_step`.
pub struct Counters {
    pub n: usize,
    pub k: usize,
    pub bug: Option<(usize, usize, u32)>, // (thread, its step, counter value)
}

impl ControlledProgram for Counters {
    fn execute(&self, scheduler: &mut dyn Scheduler, sink: &mut dyn StateSink) -> ExecutionResult {
        let mut counter: u32 = 0;
        let mut pos = vec![0usize; self.n];
        let mut decisions = Decisions::new(scheduler);
        let mut failure: Option<Tid> = None;
        loop {
            let enabled: Vec<Tid> = (0..self.n).filter(|&i| pos[i] < self.k).map(Tid).collect();
            if enabled.is_empty() {
                break;
            }
            let (chosen, _) = decisions.next(enabled, |_| NextOp::default());
            if let Some((bt, bs, bv)) = self.bug {
                if chosen.index() == bt && pos[bt] == bs && counter == bv {
                    failure = Some(chosen);
                }
            }
            counter += 1;
            pos[chosen.index()] += 1;
            visit(sink, counter, &pos);
            if failure.is_some() {
                break;
            }
        }
        let outcome = match failure {
            Some(thread) => ExecutionOutcome::AssertionFailure {
                thread,
                message: "bug pattern hit".into(),
            },
            None => ExecutionOutcome::Terminated,
        };
        decisions.finish(outcome)
    }
}

/// `n` threads × `k` increments where every increment is a fallible
/// operation: the scheduler may fault it, in which case the update is
/// lost. The final counter is asserted at join, so the bug is
/// invisible at `fault_bound: 0` and has a minimum witness of zero
/// preemptions and exactly one injected fault.
pub struct FaultyCounters {
    pub n: usize,
    pub k: usize,
}

impl ControlledProgram for FaultyCounters {
    fn execute(&self, scheduler: &mut dyn Scheduler, sink: &mut dyn StateSink) -> ExecutionResult {
        let mut counter: u32 = 0;
        let mut pos = vec![0usize; self.n];
        let mut decisions = Decisions::new(scheduler);
        loop {
            let enabled: Vec<Tid> = (0..self.n).filter(|&i| pos[i] < self.k).map(Tid).collect();
            if enabled.is_empty() {
                break;
            }
            let (chosen, fault) = decisions.next(enabled, |t| NextOp {
                site: SiteId::at(t.index() as u32, "incr", pos[t.index()] as u32),
                fallible: true,
                ..NextOp::default()
            });
            if !fault {
                counter += 1;
            }
            pos[chosen.index()] += 1;
            visit(sink, counter, &pos);
        }
        let expected = (self.n * self.k) as u32;
        let outcome = if counter == expected {
            ExecutionOutcome::Terminated
        } else {
            ExecutionOutcome::AssertionFailure {
                thread: Tid(0),
                message: format!("lost update: counter {counter} != {expected}"),
            }
        };
        decisions.finish(outcome)
    }
}

/// The first (minimal) bug of a bug hunt.
pub fn minimal_bug(p: &Counters, max_executions: usize) -> Option<BugReport> {
    let config = SearchConfig {
        max_executions: Some(max_executions),
        ..SearchConfig::bug_hunt()
    };
    Search::over(p)
        .config(config)
        .run()
        .unwrap()
        .bugs
        .into_iter()
        .next()
}

/// Total number of schedules of `n` threads × `k` steps:
/// multinomial (nk)! / (k!)^n.
pub fn schedule_count(n: u64, k: u64) -> u128 {
    let f = |x: u64| icb_core::bounds::factorial(x).unwrap();
    f(n * k) / f(k).pow(n as u32)
}
