//! The interface between programs under test and search strategies.

use std::any::Any;
use std::fmt;
use std::time::{Duration, Instant};

use crate::coverage::StateSink;
use crate::telemetry::{Phase, SearchObserver, SiteId};
use crate::tid::Tid;
use crate::trace::{ExecutionOutcome, ExecutionResult, Trace, TraceEntry};

/// A scheduling point: the information available to the scheduler when it
/// must decide which thread runs next.
///
/// A point is reached after every *step* of the program, where a step is
/// the execution of one shared-variable access (Section 2 of the paper) —
/// or, under the sound reduction of Section 3.1, one synchronization
/// operation.
#[derive(Clone, Copy, Debug)]
pub struct SchedulePoint<'a> {
    /// Index of this point within the execution (0 = initial point).
    pub step_index: usize,
    /// The thread that executed the previous step; `None` at the initial
    /// point.
    pub current: Option<Tid>,
    /// Whether `current` is still enabled. Choosing a different thread
    /// while this is `true` incurs a preemption.
    pub current_enabled: bool,
    /// The enabled threads, sorted by id. Never empty: if no thread is
    /// enabled the program reports termination or deadlock instead of
    /// consulting the scheduler.
    pub enabled: &'a [Tid],
}

impl SchedulePoint<'_> {
    /// Returns `true` if `tid` is enabled at this point.
    pub fn is_enabled(&self, tid: Tid) -> bool {
        self.enabled.contains(&tid)
    }

    /// The default, preemption-free policy: keep running the current
    /// thread while it is enabled; otherwise run the lowest-id enabled
    /// thread (a nonpreempting context switch).
    ///
    /// Starting from any state, following this policy drives a terminating
    /// program to completion without incurring a single preemption — the
    /// reason context bounding does not limit execution depth.
    pub fn default_choice(&self) -> Tid {
        match self.current {
            Some(c) if self.current_enabled => c,
            _ => self.enabled[0],
        }
    }
}

/// A fallible operation about to execute: the information available to
/// the scheduler when it must decide whether to inject a fault.
///
/// The step recorder ([`Decisions`]) reaches a fault point immediately
/// after the scheduling decision of a step whose operation is *designated fallible* — a
/// `try_lock` (may fail even when the lock is free), a condvar wait (may
/// wake spuriously), a bounded channel send (may observe a full
/// channel), or an explicit `fail_point(site)`. The scheduler answers
/// with a binary decision, making environmental failure a searched
/// dimension exactly like preemption.
#[derive(Clone, Copy, Debug)]
pub struct FaultPoint {
    /// Index of the step this fault decision belongs to (the same index
    /// the preceding [`SchedulePoint`] carried).
    pub step_index: usize,
    /// The thread executing the fallible operation.
    pub tid: Tid,
    /// The site of the fallible operation, as resolved by the host.
    pub site: SiteId,
}

/// Decides which thread runs at every scheduling point.
///
/// Implementations range from trivial (replay a fixed schedule, pick at
/// random) to full search drivers (the nested depth-first exploration
/// inside ICB).
pub trait Scheduler {
    /// Chooses one of `point.enabled`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if they cannot make a choice (e.g. a
    /// replay scheduler observing a divergent execution); the driving
    /// search treats this as a hard error in the program under test.
    fn pick(&mut self, point: SchedulePoint<'_>) -> Tid;

    /// Decides whether to inject a fault into the fallible operation at
    /// `point`. Called by the host's [`Decisions`] right after
    /// [`pick`](Scheduler::pick) chose the thread, for the same step,
    /// and only for designated fallible operations.
    ///
    /// The default never injects — schedulers that predate fault
    /// bounding (and any search at fault bound 0) behave exactly as
    /// before.
    fn decide_fault(&mut self, point: FaultPoint) -> bool {
        let _ = point;
        false
    }

    /// Whether a [`Resumable`] host should save the state before step
    /// `step_index`, asked through [`Decisions::keep`] once the step's
    /// thread is picked and before the step runs. The default keeps
    /// nothing.
    fn keep(&mut self, step_index: usize) -> bool {
        let _ = step_index;
        false
    }

    /// Receives the state saved before a step [`keep`](Scheduler::keep)
    /// asked for.
    fn kept(&mut self, saved: Saved) {
        let _ = saved;
    }
}

impl<S: Scheduler + ?Sized> Scheduler for &mut S {
    fn pick(&mut self, point: SchedulePoint<'_>) -> Tid {
        (**self).pick(point)
    }

    fn decide_fault(&mut self, point: FaultPoint) -> bool {
        (**self).decide_fault(point)
    }

    fn keep(&mut self, step_index: usize) -> bool {
        (**self).keep(step_index)
    }

    fn kept(&mut self, saved: Saved) {
        (**self).kept(saved)
    }
}

/// A host state saved before one step of an execution, for
/// [`Resumable::execute_from`] to start from. The state itself is the
/// host's own type; only the host that saved it reads it back.
pub struct Saved {
    step: usize,
    state: Box<dyn Any + Send>,
}

impl fmt::Debug for Saved {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Saved")
            .field("step", &self.step)
            .finish_non_exhaustive()
    }
}

impl Saved {
    /// The number of steps that reached the state, which is the index of
    /// the step it precedes.
    pub fn step(&self) -> usize {
        self.step
    }

    /// The saved state, if it has type `S`.
    pub fn state<S: Any>(&self) -> Option<&S> {
        self.state.downcast_ref()
    }
}

/// What a host tells [`Decisions::next`] about the chosen thread's next
/// operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NextOp {
    /// The operation's site, as resolved by the host
    /// ([`SiteId::UNKNOWN`] by default).
    pub site: SiteId,
    /// Whether the operation is potentially blocking (the `b` of
    /// Theorem 1).
    pub blocking: bool,
    /// Whether the operation is designated fallible, so the scheduler
    /// decides whether to inject a fault into it.
    pub fallible: bool,
}

impl Default for NextOp {
    fn default() -> Self {
        NextOp {
            site: SiteId::UNKNOWN,
            blocking: false,
            fallible: false,
        }
    }
}

/// The step recorder every [`ControlledProgram`] host drives.
///
/// A host computes the enabled set at each scheduling point and applies
/// the chosen thread's effect; everything between is one call to
/// [`next`](Decisions::next). It asks [`Scheduler::pick`] and, for a
/// fallible operation only, [`Scheduler::decide_fault`] for the same
/// step, and appends the [`TraceEntry`] that preemptions are counted
/// from (Appendix A).
pub struct Decisions<'s> {
    scheduler: &'s mut dyn Scheduler,
    trace: Trace,
    /// Time spent choosing, `None` unless phase timing is on.
    selection: Option<Duration>,
}

impl fmt::Debug for Decisions<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Decisions")
            .field("trace", &self.trace)
            .field("selection", &self.selection)
            .finish_non_exhaustive()
    }
}

impl<'s> Decisions<'s> {
    /// Starts recording an execution scheduled by `scheduler`.
    pub fn new(scheduler: &'s mut dyn Scheduler) -> Self {
        Decisions::resume(scheduler, Trace::new())
    }

    /// Continues recording an execution resumed from a [`Saved`] state:
    /// `trace` holds the steps that reached it, so the finished
    /// [`ExecutionResult`] covers the whole execution.
    pub fn resume(scheduler: &'s mut dyn Scheduler, trace: Trace) -> Self {
        Decisions {
            scheduler,
            trace,
            selection: None,
        }
    }

    /// Times the scheduler's decisions as [`Phase::Selection`] when `on`
    /// (hosts pass [`SearchObserver::wants_phase_timing`]).
    pub fn time_phases(mut self, on: bool) -> Self {
        self.selection = on.then_some(Duration::ZERO);
        self
    }

    /// The thread that executed the last recorded step; `None` before
    /// the first.
    pub fn current(&self) -> Option<Tid> {
        self.trace.entries().last().map(|e| e.chosen)
    }

    /// Number of steps recorded so far, which is the next step's index.
    pub fn steps(&self) -> usize {
        self.trace.len()
    }

    /// Time spent choosing so far (zero unless phase timing is on).
    pub fn selection_time(&self) -> Duration {
        self.selection.unwrap_or_default()
    }

    /// Records one step: the scheduler picks one of `enabled` (sorted by
    /// id, never empty) and `op` describes the chosen thread's operation.
    /// Returns the chosen thread and whether to inject a fault into it.
    ///
    /// # Panics
    ///
    /// Propagates a scheduler panic (a replay divergence among them),
    /// earlier steps still recorded, and panics on a disabled choice.
    pub fn next(&mut self, enabled: Vec<Tid>, op: impl FnOnce(Tid) -> NextOp) -> (Tid, bool) {
        let t0 = self.selection.is_some().then(Instant::now);
        let step_index = self.trace.len();
        let current = self.current();
        let current_enabled = current.is_some_and(|c| enabled.contains(&c));
        let chosen = self.scheduler.pick(SchedulePoint {
            step_index,
            current,
            current_enabled,
            enabled: &enabled,
        });
        assert!(
            enabled.contains(&chosen),
            "scheduler chose {chosen}, which is not enabled",
        );
        let op = op(chosen);
        // Asked before the step index advances, so a replay sees one
        // aligned (choice, fault) pair.
        let fault = op.fallible
            && self.scheduler.decide_fault(FaultPoint {
                step_index,
                tid: chosen,
                site: op.site,
            });
        if let (Some(t0), Some(selection)) = (t0, self.selection.as_mut()) {
            *selection += t0.elapsed();
        }
        self.trace.push(
            TraceEntry::new(chosen, enabled, current, current_enabled, op.blocking)
                .with_site(op.site)
                .with_fault(fault),
        );
        (chosen, fault)
    }

    /// Asks the scheduler whether to keep the state before the step
    /// [`next`](Decisions::next) just recorded and, if so, hands it the
    /// state `state` builds. A [`Resumable`] host calls this after each
    /// `next`, before it applies the step.
    pub fn keep<S: Any + Send>(&mut self, state: impl FnOnce() -> S) {
        let step = self.trace.len() - 1;
        if self.scheduler.keep(step) {
            self.scheduler.kept(Saved {
                step,
                state: Box::new(state()),
            });
        }
    }

    /// Reports the execution's three phases to `observer`, in their fixed
    /// order — Selection (the recorder's own timer), RaceDetection,
    /// Replay — when phase timing is on; reports nothing otherwise.
    pub fn report_phases(
        &self,
        observer: &mut dyn SearchObserver,
        race_detection: Duration,
        replay: Duration,
    ) {
        if let Some(selection) = self.selection {
            observer.phase_time(Phase::Selection, selection);
            observer.phase_time(Phase::RaceDetection, race_detection);
            observer.phase_time(Phase::Replay, replay);
        }
    }

    /// Ends the execution with `outcome` and the steps recorded so far.
    pub fn finish(self, outcome: ExecutionOutcome) -> ExecutionResult {
        ExecutionResult::from_trace(outcome, self.trace)
    }
}

/// A program whose scheduling is fully controlled by a [`Scheduler`].
///
/// This is the *stateless checker* interface (the paper's CHESS): the
/// search re-executes the program from its unique initial state under
/// different schedules. Both the controlled runtime (`icb-runtime`) and
/// the explicit-state VM (`icb-statevm`) implement it; a host that can
/// also save and restore its states offers that through
/// [`resumable`](ControlledProgram::resumable).
///
/// # Contract
///
/// * The program must be deterministic apart from scheduling: the same
///   sequence of choices must yield the identical execution.
/// * At every scheduling point, the program must consult the scheduler
///   with the accurate enabled set and record the decision in the
///   returned trace; passing the enabled set to one [`Decisions`]
///   recorder does both.
/// * The program must terminate under every schedule (possibly via the
///   step limit escape hatch of its host).
pub trait ControlledProgram {
    /// Runs one complete execution under `scheduler`, reporting every
    /// visited state fingerprint to `sink`.
    fn execute(&self, scheduler: &mut dyn Scheduler, sink: &mut dyn StateSink) -> ExecutionResult;

    /// Like [`execute`](ControlledProgram::execute), additionally
    /// reporting in-execution telemetry (currently: data races, through
    /// [`SearchObserver::race_detected`]) to `observer`.
    ///
    /// The default implementation ignores the observer; hosts with an
    /// in-execution event source (the controlled runtime's race detector)
    /// override it.
    fn execute_observed(
        &self,
        scheduler: &mut dyn Scheduler,
        sink: &mut dyn StateSink,
        observer: &mut dyn SearchObserver,
    ) -> ExecutionResult {
        let _ = observer;
        self.execute(scheduler, sink)
    }

    /// Number of executions to charge per `execute` call when accounting
    /// against execution budgets. Always 1 for real programs; exists so
    /// wrappers (e.g. multi-replay reducers) can be honest about cost.
    fn executions_per_run(&self) -> usize {
        1
    }

    /// Whether equal state fingerprints imply equal concrete states.
    ///
    /// The explicit-state VM hashes the full concrete state, so a
    /// fingerprint match there identifies the state exactly and
    /// fingerprint-based subtree pruning is sound. The stateless
    /// runtime's happens-before fingerprints are a heuristic (equal
    /// fingerprints mean equivalent interleavings of the *prefix*, not
    /// an identical continuation), so pruning on them may miss states.
    /// The default is the conservative `false`; only hosts with exact
    /// state hashing override it.
    fn fingerprints_are_exact(&self) -> bool {
        false
    }

    /// The host's [`Resumable`] side, if it can start an execution from
    /// a saved state. The default is `None`: every execution starts from
    /// the initial state.
    fn resumable(&self) -> Option<&dyn Resumable> {
        None
    }
}

/// A host that can run an execution from a state it saved earlier, so a
/// search need not re-execute a schedule prefix it already ran.
///
/// # Contract
///
/// Beyond [`ControlledProgram`]'s: resuming from a [`Saved`] state must
/// give the same execution, step for step, as re-executing from the
/// initial state the schedule prefix that reached it.
pub trait Resumable {
    /// Runs one execution, recorded by `decisions`: from the initial
    /// state when `from` is `None` (exactly
    /// [`execute_observed`](ControlledProgram::execute_observed)),
    /// otherwise from the saved state, whose reaching steps `decisions`
    /// already holds ([`Decisions::resume`]). The first fingerprint
    /// reported to `sink` is the starting state's. After each pick the
    /// host offers the state before the step through
    /// [`Decisions::keep`].
    ///
    /// # Panics
    ///
    /// May panic if `from` was saved by another host, or if `decisions`
    /// does not hold exactly the steps that reached it.
    fn execute_from(
        &self,
        from: Option<&Saved>,
        decisions: Decisions<'_>,
        sink: &mut dyn StateSink,
        observer: &mut dyn SearchObserver,
    ) -> ExecutionResult;
}

impl<P: ControlledProgram + ?Sized> ControlledProgram for &P {
    fn execute(&self, scheduler: &mut dyn Scheduler, sink: &mut dyn StateSink) -> ExecutionResult {
        (**self).execute(scheduler, sink)
    }

    fn execute_observed(
        &self,
        scheduler: &mut dyn Scheduler,
        sink: &mut dyn StateSink,
        observer: &mut dyn SearchObserver,
    ) -> ExecutionResult {
        (**self).execute_observed(scheduler, sink, observer)
    }

    fn executions_per_run(&self) -> usize {
        (**self).executions_per_run()
    }

    fn fingerprints_are_exact(&self) -> bool {
        (**self).fingerprints_are_exact()
    }

    fn resumable(&self) -> Option<&dyn Resumable> {
        (**self).resumable()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::DivergencePayload;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn default_choice_continues_current() {
        let enabled = [Tid(0), Tid(2)];
        let p = SchedulePoint {
            step_index: 3,
            current: Some(Tid(2)),
            current_enabled: true,
            enabled: &enabled,
        };
        assert_eq!(p.default_choice(), Tid(2));
    }

    #[test]
    fn default_choice_switches_when_current_disabled() {
        let enabled = [Tid(1), Tid(3)];
        let p = SchedulePoint {
            step_index: 3,
            current: Some(Tid(0)),
            current_enabled: false,
            enabled: &enabled,
        };
        assert_eq!(p.default_choice(), Tid(1));
    }

    #[test]
    fn default_choice_at_initial_point() {
        let enabled = [Tid(0), Tid(1)];
        let p = SchedulePoint {
            step_index: 0,
            current: None,
            current_enabled: false,
            enabled: &enabled,
        };
        assert_eq!(p.default_choice(), Tid(0));
    }

    #[test]
    fn is_enabled_checks_membership() {
        let enabled = [Tid(0), Tid(1)];
        let p = SchedulePoint {
            step_index: 0,
            current: None,
            current_enabled: false,
            enabled: &enabled,
        };
        assert!(p.is_enabled(Tid(1)));
        assert!(!p.is_enabled(Tid(2)));
    }

    /// Picks the highest enabled id, injects every fault, diverges at
    /// `diverge_at`, and logs each question: `p{step}` (`+` when the
    /// current thread is enabled) and `f{step}:{thread}`.
    #[derive(Default)]
    struct Logger {
        log: Vec<String>,
        diverge_at: Option<usize>,
    }

    impl Scheduler for Logger {
        fn pick(&mut self, p: SchedulePoint<'_>) -> Tid {
            if self.diverge_at == Some(p.step_index) {
                DivergencePayload::new(p.step_index, Tid(9), p.enabled.into()).raise();
            }
            let plus = if p.current_enabled { "+" } else { "" };
            self.log.push(format!("p{}{plus}", p.step_index));
            *p.enabled.last().unwrap()
        }

        fn decide_fault(&mut self, p: FaultPoint) -> bool {
            self.log.push(format!("f{}:{}", p.step_index, p.tid));
            true
        }
    }

    /// Two threads of three steps, each fallible at an even step index,
    /// run to the end or to a replay divergence.
    fn drive(logger: &mut Logger) -> ExecutionResult {
        let mut decisions = Decisions::new(logger);
        let mut left = [3usize, 3];
        let run = catch_unwind(AssertUnwindSafe(|| loop {
            let enabled: Vec<Tid> = (0..2).filter(|&i| left[i] > 0).map(Tid).collect();
            if enabled.is_empty() {
                return;
            }
            let fallible = decisions.steps().is_multiple_of(2);
            let (chosen, _) = decisions.next(enabled, |_| NextOp {
                fallible,
                ..NextOp::default()
            });
            left[chosen.index()] -= 1;
        }));
        let outcome = match run {
            Ok(()) => ExecutionOutcome::Terminated,
            Err(payload) => payload
                .downcast::<DivergencePayload>()
                .unwrap()
                .into_outcome(),
        };
        decisions.finish(outcome)
    }

    #[test]
    fn recorder_asks_pick_then_fault_for_the_same_fallible_step() {
        let mut logger = Logger::default();
        let result = drive(&mut logger);
        // Faults are asked only at the fallible (even) steps, right after
        // the pick of the same step and for the thread it chose; step 3
        // switches away from the finished thread 1 without a preemption.
        let log = "p0 f0:T1 p1+ p2+ f2:T1 p3 p4+ f4:T0 p5+";
        assert_eq!(logger.log.join(" "), log);
        assert_eq!((result.trace.len(), result.stats.faults), (6, 3));
        for e in result.trace.entries() {
            let derived = e.current.is_some_and(|c| e.enabled.contains(&c));
            assert_eq!(e.current_enabled, derived);
        }
    }

    #[test]
    fn keep_offers_the_state_before_the_recorded_step_and_resume_continues_its_trace() {
        /// Runs the lowest enabled thread and keeps the odd steps.
        struct Keeper(Vec<usize>);
        impl Scheduler for Keeper {
            fn pick(&mut self, p: SchedulePoint<'_>) -> Tid {
                p.enabled[0]
            }
            fn keep(&mut self, step_index: usize) -> bool {
                step_index % 2 == 1
            }
            fn kept(&mut self, saved: Saved) {
                assert_eq!(saved.state::<usize>(), Some(&(saved.step() * 10)));
                self.0.push(saved.step());
            }
        }
        let mut keeper = Keeper(Vec::new());
        let mut decisions = Decisions::new(&mut keeper);
        for step in 0..4_usize {
            decisions.next(vec![Tid(0)], |_| NextOp::default());
            decisions.keep(|| step * 10);
        }
        let mut trace = decisions.finish(ExecutionOutcome::Terminated).trace;
        assert_eq!(keeper.0, [1, 3]);
        // Resumed before step 2, the recorder sees the steps that reached
        // it: thread 0 is current, so switching away is a preemption.
        trace.truncate(2);
        let mut decisions = Decisions::resume(&mut keeper, trace);
        assert_eq!((decisions.steps(), decisions.current()), (2, Some(Tid(0))));
        decisions.next(vec![Tid(1)], |_| NextOp::default());
        let result = decisions.finish(ExecutionOutcome::Terminated);
        assert_eq!((result.stats.steps, result.stats.context_switches), (3, 1));
    }

    #[test]
    fn a_pick_panic_keeps_the_steps_recorded_before_it() {
        let mut logger = Logger {
            diverge_at: Some(2),
            ..Logger::default()
        };
        let result = drive(&mut logger);
        assert_eq!(result.trace.len(), 2);
        assert!(matches!(
            result.outcome,
            ExecutionOutcome::ReplayDivergence { step: 2, .. }
        ));
    }
}
