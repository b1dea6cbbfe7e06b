//! A tiny deterministic multithreaded interpreter shared by the search
//! unit tests and the core integration tests (`tests/common`): `n`
//! threads, each executing `k` increments of a shared counter; an
//! optional assertion fails iff a specific interleaving pattern occurs.
//! Enabledness can include a one-slot "lock" to exercise blocking
//! (nonpreempting switches).
//!
//! It names the library as `icb_core` so that both crates compile it.

use icb_core::coverage::fingerprint_bytes;
use icb_core::{
    ControlledProgram, ExecutionOutcome, ExecutionResult, FaultPoint, SchedulePoint, Scheduler,
    SiteId, StateSink, Tid, Trace, TraceEntry,
};

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
        let mut trace = Trace::new();
        let mut current: Option<Tid> = None;
        let mut failure: Option<Tid> = None;
        loop {
            let enabled: Vec<Tid> = (0..self.n).filter(|&i| pos[i] < self.k).map(Tid).collect();
            if enabled.is_empty() {
                break;
            }
            let current_enabled = current.is_some_and(|t| pos[t.index()] < self.k);
            let chosen = scheduler.pick(SchedulePoint {
                step_index: trace.len(),
                current,
                current_enabled,
                enabled: &enabled,
            });
            trace.push(TraceEntry::new(
                chosen,
                enabled,
                current,
                current_enabled,
                false,
            ));
            if let Some((bt, bs, bv)) = self.bug {
                if chosen.index() == bt && pos[bt] == bs && counter == bv {
                    failure = Some(chosen);
                }
            }
            counter += 1;
            pos[chosen.index()] += 1;
            current = Some(chosen);

            let mut bytes = Vec::with_capacity(4 + self.n * 8);
            bytes.extend_from_slice(&counter.to_le_bytes());
            for p in &pos {
                bytes.extend_from_slice(&(*p as u64).to_le_bytes());
            }
            sink.visit(fingerprint_bytes(&bytes));

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
        ExecutionResult::from_trace(outcome, trace)
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
        let mut trace = Trace::new();
        let mut current: Option<Tid> = None;
        loop {
            let enabled: Vec<Tid> = (0..self.n).filter(|&i| pos[i] < self.k).map(Tid).collect();
            if enabled.is_empty() {
                break;
            }
            let current_enabled = current.is_some_and(|t| pos[t.index()] < self.k);
            let chosen = scheduler.pick(SchedulePoint {
                step_index: trace.len(),
                current,
                current_enabled,
                enabled: &enabled,
            });
            let site = SiteId::at(chosen.index() as u32, "incr", pos[chosen.index()] as u32);
            let fault = scheduler.decide_fault(FaultPoint {
                step_index: trace.len(),
                tid: chosen,
                site,
            });
            trace.push(
                TraceEntry::new(chosen, enabled, current, current_enabled, false)
                    .with_site(site)
                    .with_fault(fault),
            );
            if !fault {
                counter += 1;
            }
            pos[chosen.index()] += 1;
            current = Some(chosen);

            let mut bytes = Vec::with_capacity(4 + self.n * 8);
            bytes.extend_from_slice(&counter.to_le_bytes());
            for p in &pos {
                bytes.extend_from_slice(&(*p as u64).to_le_bytes());
            }
            sink.visit(fingerprint_bytes(&bytes));
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
        ExecutionResult::from_trace(outcome, trace)
    }
}

/// Total number of schedules of `n` threads × `k` steps:
/// multinomial (nk)! / (k!)^n.
pub fn schedule_count(n: u64, k: u64) -> u128 {
    let f = |x: u64| icb_core::bounds::factorial(x).unwrap();
    f(n * k) / f(k).pow(n as u32)
}
