//! A stateless controlled-concurrency runtime — the paper's CHESS
//! analog.
//!
//! Programs under test are ordinary Rust closures written against this
//! crate's [`sync`] primitives, [`thread`] API and [`DataVar`] cells.
//! Wrapped in a [`RuntimeProgram`], they become a
//! [`ControlledProgram`](icb_core::ControlledProgram) that any `icb-core`
//! search strategy can drive: the runtime runs each task on a pooled OS
//! thread, hands exactly one task the baton at a time, and calls back
//! into the search's scheduler at every synchronization operation.
//!
//! Key properties, mirroring Sections 3 and 4 of the paper:
//!
//! * **Scheduling points only at synchronization operations.** Plain
//!   shared memory ([`DataVar`]) is race-checked instead of interleaved;
//!   Section 3.1 proves this reduction sound. Set
//!   [`RuntimeConfig::preempt_data_vars`] for the unreduced search.
//! * **Stateless exploration.** No program state is ever captured;
//!   searches revisit states by replaying schedules. Coverage is counted
//!   over happens-before fingerprints (`icb-race`).
//! * **Deterministic replay.** Given the same schedule, an execution is
//!   bit-for-bit identical — the foundation for reproducing every
//!   reported bug.
//!
//! # Example: the paper's motivating pattern
//!
//! A thread checks a flag and then acts on it; a preemption between
//! check and act violates the invariant:
//!
//! ```
//! use icb_core::search::{Search, SearchConfig};
//! use icb_runtime::{RuntimeProgram, sync::AtomicBool, thread};
//! use std::sync::Arc;
//!
//! let program = RuntimeProgram::new(|| {
//!     let stopped = Arc::new(AtomicBool::new(false));
//!     let worker = {
//!         let stopped = Arc::clone(&stopped);
//!         thread::spawn(move || {
//!             if !stopped.load() {
//!                 // ... preempted here, the main thread stops the device ...
//!                 assert!(!stopped.load(), "device used after stop");
//!             }
//!         })
//!     };
//!     stopped.store(true);
//!     worker.join();
//! });
//!
//! // The minimal failing interleaving preempts the worker between check
//! // and act, and the main thread before its store: two preemptions —
//! // every one of the paper's 9 new bugs needed at most that many.
//! let report = Search::over(&program)
//!     .config(SearchConfig {
//!         max_executions: Some(10_000),
//!         ..SearchConfig::bug_hunt()
//!     })
//!     .run()
//!     .unwrap();
//! let bug = report.first_bug().expect("found");
//! assert_eq!(bug.preemptions, 2);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod data;
mod engine;
mod op;
mod pool;
mod program;
pub mod sync;
pub mod thread;

pub use config::RuntimeConfig;
pub use data::DataVar;
pub use program::RuntimeProgram;

/// Declares a named fallible site and asks the scheduler whether the
/// fault fires here, in this execution.
///
/// Use it wherever the program under test would consult an external
/// operation that can transiently fail — an I/O call, an allocation, an
/// RPC. Under a search with
/// [`SearchConfig::fault_bound`](icb_core::search::SearchConfig::fault_bound)` ≥ 1` the
/// checker explores both answers systematically, exactly as it explores
/// scheduling decisions; at fault bound 0 (and under any pre-fault
/// scheduler) it always returns `false`.
///
/// Every call is a scheduling point. The site's `name` is its identity
/// in profiles, fault attribution, and happens-before fingerprints; two
/// calls with the same name are the same site.
///
/// Outside a running execution this returns `false` (the fault never
/// fires), so instrumented code also runs unchecked.
///
/// # Examples
///
/// ```
/// use icb_core::search::{Search, SearchConfig};
/// use icb_runtime::{fail_point, RuntimeProgram};
///
/// let program = RuntimeProgram::new(|| {
///     let mut attempts = 0;
///     while fail_point("journal-write") {
///         attempts += 1;
///         assert!(attempts < 3, "journal write kept failing");
///     }
/// });
/// let config = SearchConfig {
///     fault_bound: 3,
///     ..SearchConfig::default()
/// };
/// let report = Search::over(&program).config(config).run().unwrap();
/// assert_eq!(report.bugs.len(), 1); // three injected failures trip it
/// assert_eq!(report.bugs[0].faults, 3);
/// ```
pub fn fail_point(name: &'static str) -> bool {
    engine::try_with_current(|exec, tid| {
        match exec.sched_point(tid, op::PendingOp::FailPoint { name }) {
            engine::EffectOut::Fault(injected) => injected,
            // An abort unwind skips the effect; the answer is moot.
            _ => false,
        }
    })
    .unwrap_or(false)
}
