//! Core abstractions and search algorithms for *iterative context bounding*
//! (ICB), the systematic concurrency-testing algorithm of Musuvathi & Qadeer
//! (PLDI 2007).
//!
//! A *model checker* in this crate's view is a driver that repeatedly runs a
//! multithreaded program under a controlled scheduler, systematically
//! enumerating the scheduler's choices. The central insight of the paper is
//! to enumerate executions in increasing order of *preempting* context
//! switches: a preemption occurs when the scheduler switches away from a
//! thread that is still enabled. Nonpreempting switches (the running thread
//! blocked or terminated) are free, so the search reaches arbitrarily deep
//! states even with a preemption bound of zero, while the number of
//! executions with `c` preemptions is only *polynomial* in the execution
//! length (Theorem 1; see [`bounds`]).
//!
//! # Architecture
//!
//! * [`ControlledProgram`] — anything that can be executed under a
//!   [`Scheduler`]. Implemented by the stateless runtime (`icb-runtime`)
//!   and by the explicit-state VM (`icb-statevm`). The VM is also
//!   [`Resumable`]: it can start an execution from a [`Saved`] state, so
//!   a tree search need not re-execute a prefix it already ran.
//! * [`Scheduler`] — decides which thread runs at every scheduling point.
//! * [`Decisions`] — the one step recorder every host drives: it asks the
//!   scheduler and records the [`Trace`] from which preemptions are
//!   counted, so a host only computes enabled sets and applies effects.
//! * [`Search`] — runs a [`Strategy`]: ICB (the paper's Algorithm 1 in
//!   its stateless, replay-based form), plus the baselines it is
//!   evaluated against: DFS (optionally depth-bounded, the paper's `dfs`
//!   / `db:N`), iterative deepening (`idfs`), random walk (`random`) and
//!   best-first search.
//! * [`CoverageTracker`] — distinct-state coverage, the paper's metric.
//!
//! # Quick example
//!
//! ```
//! use icb_core::{ControlledProgram, Decisions, NextOp, Scheduler, StateSink,
//!                ExecutionResult, ExecutionOutcome, Tid};
//! use icb_core::search::Search;
//!
//! /// A toy two-thread program over one shared variable; thread 1 asserts
//! /// it observes the initial value, so some schedule exposes a "bug".
//! struct Toy;
//! impl ControlledProgram for Toy {
//!     fn execute(&self, sched: &mut dyn Scheduler, _sink: &mut dyn StateSink)
//!         -> ExecutionResult
//!     {
//!         // Hand-rolled interpreter: each thread performs one step. The
//!         // host computes the enabled set and applies the chosen step;
//!         // `Decisions` asks the scheduler and records the trace.
//!         let mut shared = 0u8;
//!         let mut done = [false, false];
//!         let mut failure = None;
//!         let mut decisions = Decisions::new(sched);
//!         loop {
//!             let enabled: Vec<Tid> = (0..2)
//!                 .filter(|&i| !done[i]).map(Tid).collect();
//!             if enabled.is_empty() { break; }
//!             let (chosen, _fault) = decisions.next(enabled, |_| NextOp::default());
//!             match chosen.index() {
//!                 0 => shared = 1,
//!                 _ => if shared != 0 && failure.is_none() {
//!                     failure = Some("observed write".to_string());
//!                 },
//!             }
//!             done[chosen.index()] = true;
//!         }
//!         let outcome = match failure {
//!             Some(message) => ExecutionOutcome::AssertionFailure {
//!                 thread: Tid(1), message,
//!             },
//!             None => ExecutionOutcome::Terminated,
//!         };
//!         decisions.finish(outcome)
//!     }
//! }
//!
//! let report = Search::over(&Toy).run().unwrap();
//! assert!(!report.bugs.is_empty());
//! // ICB finds the bug with the minimal number of preemptions: zero here,
//! // because thread 0 can simply run (and terminate) before thread 1.
//! assert_eq!(report.bugs[0].preemptions, 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

// Lets `search/testprog.rs`, which the integration tests compile too,
// name this crate the same way they do.
#[cfg(test)]
extern crate self as icb_core;

pub mod bounds;
pub mod cache;
pub mod coverage;
pub mod durable;
pub mod explain;
pub mod hash;
pub mod metrics;
pub mod program;
pub mod render;
pub mod replay;
pub mod rng;
pub mod search;
pub mod shrink;
pub mod snapshot;
pub mod telemetry;
pub mod tid;
pub mod trace;

pub use cache::{Certification, ExplorationCache, NoopCache};
pub use coverage::{CoverageTracker, NullSink, StateSink};
pub use explain::{ExplainedWitness, NearestPassing};
pub use metrics::{MetricsRegistry, MetricsSnapshot, WorkerStats};
pub use program::{
    ControlledProgram, Decisions, FaultPoint, NextOp, Resumable, Saved, SchedulePoint, Scheduler,
};
pub use replay::ReplayScheduler;
pub use search::{Search, SearchError, Strategy};
pub use snapshot::{Checkpointer, ResumeBase, SearchSnapshot, StrategyState};
pub use telemetry::{AbortReason, ChoiceKind, NoopObserver, Phase, SearchObserver, SiteId};
pub use tid::Tid;
pub use trace::{
    DivergencePayload, ExecStats, ExecutionOutcome, ExecutionResult, Schedule, Trace, TraceEntry,
};
