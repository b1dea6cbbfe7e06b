//! The execution engine: cooperative single-step scheduling of real OS
//! threads under a model-checker-controlled baton.
//!
//! Exactly one thread of the program under test runs at any moment: the
//! baton holder. A task that reaches a synchronization operation
//! announces it and makes the next step's decision itself, under the
//! execution mutex: it computes the enabled set and records the search's
//! [`Scheduler`] decision through one [`Decisions`] step. If it picks
//! itself, it applies the operation's effect and runs on, with no
//! handoff; otherwise it hands the baton straight to the chosen task and
//! parks. There is no controller thread: the caller of
//! [`ControlledProgram::execute`](icb_core::ControlledProgram) makes the
//! first decision and, when no watchdog is set, runs the root task
//! itself; it waits for the turn back only if the root exits before the
//! last task does. With a watchdog the root runs on a pooled worker, and
//! the caller parks at once until the execution ends or the deadline
//! passes.
//!
//! A task's thread starts on its first turn. A spawn only stores the
//! child's body; the handoff that first names the child dispatches it to
//! a pooled worker, which finds the turn already its own. So the OS
//! wake-ups of an execution are one per child's first run and one per
//! handoff to a task that has run before, plus one for the caller if the
//! root exits before the last task does.
//!
//! Aborts (assertion failure, data race, deadlock, step limit, a failing
//! scheduler) unwind all parked tasks cooperatively via a private panic
//! payload, and start every task that never had a turn so that it unwinds
//! the same way; so worker threads are always reclaimed.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex as StdMutex, MutexGuard as StdMutexGuard};
use std::thread::Thread;
use std::time::{Duration, Instant};

use icb_core::{
    Decisions, DivergencePayload, ExecutionOutcome, ExecutionResult, NextOp, Scheduler,
    SearchObserver, StateSink, Tid,
};
use icb_race::{AccessKind, HbFingerprint, RaceDetector};

use crate::config::RuntimeConfig;
use crate::op::{CondWaiter, PendingOp, Resources, FAULT_OP_SALT};
use crate::pool;

/// Whose turn it is to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Turn {
    /// The thread that called [`Execution::run`]: its turn comes back
    /// once the execution is over.
    Caller,
    Task(usize),
}

/// The caller's value of the turn word; task `i`'s is `i`.
const CALLER: usize = usize::MAX;
/// The turn word after an abort: every task may run, so each parked
/// task unwinds.
const ALL: usize = usize::MAX - 1;

/// The direct handoff from the baton holder to the next one.
///
/// An atomic turn word names who may run: one task, the caller of
/// [`Execution::run`] once the execution is over, or — after
/// [`wake_all`](Baton::wake_all) — every task, so that each parked task
/// unwinds. [`hand_to`](Baton::hand_to) stores the word and wakes only
/// the next holder; [`wait_for`](Baton::wait_for) parks the calling
/// thread until the word names it. Nobody polls: the holder makes each
/// decision itself, so a waiter has nothing to do until it is handed the
/// turn, and an idle processor is left to the holder.
///
/// Callers mutate the word only while holding the execution mutex, which
/// orders each handoff after the state it publishes and makes "the last
/// unwinding task hands the turn back" race-free. Waiting takes no lock.
///
/// # The lent search state
///
/// To decide on a task thread, the holder needs the caller's scheduler
/// (inside its [`Decisions`] recorder), sink and observer. `run` lends
/// them in one [`Host`], its borrow lifetime erased, kept in
/// [`ExecInner`] next to the slot for a scheduler panic. That is sound
/// because:
///
/// * only the baton holder dereferences them, and only under the
///   execution mutex, so no two threads touch them at once and each
///   access is ordered after the previous one;
/// * the caller takes the host back out before `run` returns, so no
///   access outlives the borrow;
/// * a task the watchdog abandoned checks `abort` under the mutex before
///   it can reach [`Execution::schedule`], and the caller sets `abort`
///   before it takes the host back;
/// * the calling thread, the only one that can hold state they share
///   with other values (an `Rc` clone, say), touches them only as a baton
///   holder of its own lent state: while it makes the first decision, and
///   while it runs the root task. Whenever another task holds the baton,
///   the calling thread is parked, and it drops them itself.
///
/// So a decision runs on the deciding task's thread: a scheduler, sink
/// or observer that keeps thread-local state sees that thread's.
#[derive(Debug)]
struct Baton {
    turn: AtomicUsize,
    /// The thread of each participant that may park: slot 0 is the
    /// caller, slot `i + 1` task `i`. A handoff reads the slot under
    /// this lock after storing the word, and a participant fills its slot
    /// under it before its first ready check, so no wake-up is lost.
    parked: StdMutex<Vec<Option<Thread>>>,
    /// How many times a handoff or the abort broadcast unparked a thread.
    #[cfg(test)]
    unparks: AtomicUsize,
}

impl Baton {
    fn new() -> Self {
        Baton {
            turn: AtomicUsize::new(CALLER),
            parked: StdMutex::new(Vec::new()),
            #[cfg(test)]
            unparks: AtomicUsize::new(0),
        }
    }

    fn slots(&self) -> StdMutexGuard<'_, Vec<Option<Thread>>> {
        self.parked.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn word(who: Turn) -> usize {
        match who {
            Turn::Caller => CALLER,
            Turn::Task(i) => i,
        }
    }

    fn slot(who: Turn) -> usize {
        match who {
            Turn::Caller => 0,
            Turn::Task(i) => i + 1,
        }
    }

    fn unpark(&self, thread: &Thread) {
        #[cfg(test)]
        self.unparks.fetch_add(1, Ordering::Relaxed);
        thread.unpark();
    }

    /// Records the calling thread as `who`'s, so that a handoff to `who`
    /// wakes it. Must precede `who`'s first [`wait_for`](Baton::wait_for).
    fn register(&self, who: Turn) {
        let mut slots = self.slots();
        let slot = Self::slot(who);
        if slots.len() <= slot {
            slots.resize(slot + 1, None);
        }
        slots[slot] = Some(std::thread::current());
    }

    /// Gives the turn to `who`, waking its thread if it has registered.
    fn hand_to(&self, who: Turn) {
        // Release pairs with the Acquire load in `wait_for`.
        self.turn.store(Self::word(who), Ordering::Release);
        if let Some(Some(thread)) = self.slots().get(Self::slot(who)) {
            self.unpark(thread);
        }
    }

    /// Gives the turn to every task at once and wakes each registered
    /// one.
    fn wake_all(&self) {
        self.turn.store(ALL, Ordering::Release);
        for thread in self.slots().iter().skip(1).flatten() {
            self.unpark(thread);
        }
    }

    /// Parks until it is `who`'s turn (for a task, also after
    /// [`wake_all`](Baton::wake_all)). Returns `false` if `deadline`
    /// passes first. The calling thread must have
    /// [`register`](Baton::register)ed as `who`.
    fn wait_for(&self, who: Turn, deadline: Option<Instant>) -> bool {
        let word = Self::word(who);
        let ready = || {
            let turn = self.turn.load(Ordering::Acquire);
            turn == word || (turn == ALL && who != Turn::Caller)
        };
        // An unpark the thread did not park for (a handoff that came
        // before its park, or one from an earlier execution on this
        // pooled thread) only costs one more check.
        loop {
            if ready() {
                return true;
            }
            match deadline {
                None => std::thread::park(),
                Some(dl) => {
                    let now = Instant::now();
                    if now >= dl {
                        return false;
                    }
                    std::thread::park_timeout(dl - now);
                }
            }
        }
    }
}

/// Private panic payload used to unwind tasks on abort.
struct AbortPayload;

fn panic_abort() -> ! {
    std::panic::panic_any(AbortPayload)
}

fn is_abort(payload: &(dyn Any + Send)) -> bool {
    payload.is::<AbortPayload>()
}

fn payload_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "task panicked".to_string()
    }
}

/// Result of applying a pending operation's effect.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum EffectOut {
    None,
    /// `TryAcquire`: whether the lock was taken.
    Acquired(bool),
    /// `BarrierArrive`: the generation the arriving task must outwait.
    Generation(u32),
    /// `Spawn`: the new task's id.
    Spawned(Tid),
    /// `FailPoint`: whether the scheduler injected the fault.
    Fault(bool),
}

/// A task's code, boxed for the thread that runs it.
pub(crate) type Body = Box<dyn FnOnce() + Send + 'static>;

/// A task whose thread is to be started, and its body.
type ToStart = Option<(Tid, Body)>;

struct TaskEntry {
    finished: bool,
    pending: Option<PendingOp>,
    /// Whether the scheduler injected a fault into the pending operation
    /// (set by the deciding holder alongside the baton hand-over,
    /// consumed by [`apply_effect`]).
    fault: bool,
    /// The body of a task that has not had a turn yet: the handoff that
    /// first names the task takes it out to start the task's thread.
    unstarted: Option<Body>,
}

impl TaskEntry {
    fn new(unstarted: Option<Body>) -> Self {
        TaskEntry {
            finished: false,
            pending: Some(PendingOp::Start),
            fault: false,
            unstarted,
        }
    }
}

impl fmt::Debug for TaskEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TaskEntry")
            .field("finished", &self.finished)
            .field("pending", &self.pending)
            .field("fault", &self.fault)
            .field("unstarted", &self.unstarted.is_some())
            .finish()
    }
}

/// What the caller of [`Execution::run`] lends the baton holder for one
/// execution; [`Baton`] states why it may cross threads.
struct Host<'s> {
    decisions: Decisions<'s>,
    sink: &'s mut dyn StateSink,
    observer: &'s mut dyn SearchObserver,
    /// A scheduler panic other than a replay divergence, re-raised by
    /// the caller once the tasks are drained.
    scheduler_panic: Option<Box<dyn Any + Send>>,
}

// SAFETY: `decisions` (with the scheduler it borrows), `sink` and
// `observer` are used only by the baton holder, under the execution
// mutex, within the caller's borrow; the caller's thread uses them only
// while it holds the baton itself, and is parked while any other thread
// does (see `Baton`). No two threads ever use them at once.
// `scheduler_panic` is `Send` already.
unsafe impl Send for Host<'_> {}

const LENT: &str = "only a baton holder inside `run` reaches the host";

impl Host<'static> {
    /// Lends the caller's search state to the execution's baton holders.
    fn lend<'s>(
        decisions: Decisions<'s>,
        sink: &'s mut dyn StateSink,
        observer: &'s mut dyn SearchObserver,
    ) -> Self {
        let host = Host {
            decisions,
            sink,
            observer,
            scheduler_panic: None,
        };
        // SAFETY: only the lifetime changes. `run` takes the host back
        // before the borrow ends, and no task reaches it after `abort`
        // (see `Baton`).
        unsafe { std::mem::transmute::<Host<'s>, Host<'static>>(host) }
    }
}

impl fmt::Debug for Host<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Host")
            .field("decisions", &self.decisions)
            .finish_non_exhaustive()
    }
}

#[derive(Debug)]
pub(crate) struct ExecInner {
    abort: bool,
    outcome: Option<ExecutionOutcome>,
    tasks: Vec<TaskEntry>,
    alive: usize,
    pub(crate) resources: Resources,
    pub(crate) detector: RaceDetector,
    fingerprint: HbFingerprint,
    pending_fp: Option<u64>,
    /// Race descriptions queued by `data_access` for the next decision
    /// to forward to the observer.
    pending_races: Vec<String>,
    /// The caller's search state while `run` lends it.
    host: Option<Host<'static>>,
    /// Whether the observer asked for wall-clock phase attribution.
    time_phases: bool,
    /// Wall-clock spent inside the race detector, accrued under the
    /// execution mutex by whichever thread performs the detector call.
    detector_time: Duration,
}

impl ExecInner {
    fn host(&mut self) -> &mut Host<'static> {
        self.host.as_mut().expect(LENT)
    }

    /// Forwards what task threads queued for the sink and the observer.
    fn flush(&mut self) {
        let fp = self.pending_fp.take();
        let races = std::mem::take(&mut self.pending_races);
        let host = self.host();
        if let Some(fp) = fp {
            host.sink.visit(fp);
        }
        for race in races {
            host.observer.race_detected(&race);
        }
    }

    /// Runs a race-detector operation, attributing its wall-clock to the
    /// race-detection phase when phase timing is on.
    fn with_detector<R>(&mut self, f: impl FnOnce(&mut RaceDetector) -> R) -> R {
        if self.time_phases {
            let t0 = Instant::now();
            let out = f(&mut self.detector);
            self.detector_time += t0.elapsed();
            out
        } else {
            f(&mut self.detector)
        }
    }
}

/// Shared state of one controlled execution.
#[derive(Debug)]
pub(crate) struct Execution {
    inner: StdMutex<ExecInner>,
    baton: Baton,
    pub(crate) config: RuntimeConfig,
    /// How many task bodies were dispatched to pooled workers.
    #[cfg(test)]
    dispatches: AtomicUsize,
}

thread_local! {
    static CURRENT: RefCell<Option<(Arc<Execution>, Tid)>> = const { RefCell::new(None) };
    /// Set while a task thread runs the search's scheduler: a panic
    /// there is the search's, not the program's, and keeps its report.
    static DECIDING: Cell<bool> = const { Cell::new(false) };
}

/// Task panics are expected (they are how assertion failures surface and
/// how aborts unwind); suppress their default backtrace spew while
/// leaving panics of non-task threads, and of the scheduler, untouched.
fn install_panic_hook() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let in_task = CURRENT.with(|c| c.borrow().is_some());
            if !in_task || DECIDING.get() {
                previous(info);
            }
        }));
    });
}

/// Runs `f` with the executing task's context.
///
/// # Panics
///
/// Panics if the calling thread is not a task of a running execution —
/// i.e. a runtime primitive was used outside a
/// [`RuntimeProgram`](crate::RuntimeProgram) body.
pub(crate) fn with_current<R>(f: impl FnOnce(&Arc<Execution>, Tid) -> R) -> R {
    CURRENT.with(|c| {
        let borrow = c.borrow();
        let (exec, tid) = borrow.as_ref().expect(
            "icb-runtime primitives may only be used inside a running RuntimeProgram execution",
        );
        f(exec, *tid)
    })
}

/// Like [`with_current`] but returns `None` outside an execution. Used by
/// `Drop` impls, which must never panic.
pub(crate) fn try_with_current<R>(f: impl FnOnce(&Arc<Execution>, Tid) -> R) -> Option<R> {
    CURRENT.with(|c| {
        let borrow = c.borrow();
        borrow.as_ref().map(|(exec, tid)| f(exec, *tid))
    })
}

impl Execution {
    pub(crate) fn new(config: RuntimeConfig) -> Self {
        Execution {
            inner: StdMutex::new(ExecInner {
                abort: false,
                outcome: None,
                tasks: Vec::new(),
                alive: 0,
                resources: Resources::default(),
                detector: RaceDetector::new(),
                fingerprint: HbFingerprint::new(),
                pending_fp: None,
                pending_races: Vec::new(),
                host: None,
                time_phases: false,
                detector_time: Duration::ZERO,
            }),
            baton: Baton::new(),
            config,
            #[cfg(test)]
            dispatches: AtomicUsize::new(0),
        }
    }

    fn lock(&self) -> StdMutexGuard<'_, ExecInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Marks the execution aborted and wakes every parked task, which
    /// then unwinds; the last one to finish hands the turn back. A task
    /// that never had a turn has no thread yet: its thread is started
    /// here, so that it unwinds the same way and the drain ends.
    fn abort(self: &Arc<Self>, inner: &mut ExecInner) {
        if !inner.abort {
            inner.abort = true;
            self.baton.wake_all();
            for (i, task) in inner.tasks.iter_mut().enumerate() {
                self.start(task.unstarted.take().map(|body| (Tid(i), body)));
            }
        }
    }

    /// Starts a task's thread on a pooled worker, if there is one to
    /// start. Called after its first handoff, and outside the lock unless
    /// the execution is aborted, so the worker finds the turn its own and
    /// the lock free.
    fn start(self: &Arc<Self>, task: ToStart) {
        if let Some((tid, body)) = task {
            #[cfg(test)]
            self.dispatches.fetch_add(1, Ordering::Relaxed);
            let exec = Arc::clone(self);
            pool::run_on_worker(Box::new(move || task_main(exec, tid, body)));
        }
    }

    /// Runs one execution: lends the search state to the baton holders,
    /// makes the first decision, runs the root task (on this thread, or
    /// with a watchdog on a worker), and parks until the last task hands
    /// the turn back or the watchdog expires.
    pub(crate) fn run(
        self: &Arc<Self>,
        body: Body,
        scheduler: &mut dyn Scheduler,
        sink: &mut dyn StateSink,
        observer: &mut dyn SearchObserver,
    ) -> ExecutionResult {
        install_panic_hook();
        let time_phases = observer.wants_phase_timing();
        let started = time_phases.then(Instant::now);
        let deadline = self
            .config
            .max_wall_time
            .map(|budget| Instant::now() + budget);
        let decisions = Decisions::new(scheduler).time_phases(time_phases);
        // The watchdog must be able to give up on a stuck root, so with a
        // deadline the root starts on a worker like any other task.
        let (root, unstarted) = match deadline {
            None => (Some(body), None),
            Some(_) => (None, Some(body)),
        };
        let mut inner = self.lock();
        inner.tasks.push(TaskEntry::new(unstarted));
        inner.alive = 1;
        inner.time_phases = time_phases;
        inner.host = Some(Host::lend(decisions, sink, observer));
        let first = self.hand_on(&mut inner);
        drop(inner);
        self.start(first);
        if let Some(body) = root {
            task_main(Arc::clone(self), Tid::MAIN, body);
        }
        self.baton.register(Turn::Caller);
        let on_time = self.baton.wait_for(Turn::Caller, deadline);
        let mut inner = self.lock();
        if !on_time && inner.alive > 0 {
            // Watchdog expiry: the baton holder is stuck *between*
            // scheduling points (uninstrumented loop, blocking call),
            // where max_steps cannot see it. Abandon the task — mark
            // it finished so the abort drain below doesn't wait for
            // it; if it ever wakes it unwinds via the abort flag, and
            // handle_task_panic's finished-guard skips the recount.
            if let Some(holder) = inner.host().decisions.current() {
                if !inner.tasks[holder.index()].finished {
                    inner.tasks[holder.index()].finished = true;
                    inner.alive -= 1;
                }
            }
            inner
                .outcome
                .get_or_insert(ExecutionOutcome::WatchdogTimeout);
            self.abort(&mut inner);
        }
        // Abort drain: the last task to unwind hands the turn back.
        while inner.alive > 0 {
            drop(inner);
            self.baton.wait_for(Turn::Caller, None);
            inner = self.lock();
        }
        if let Some(payload) = inner.host().scheduler_panic.take() {
            inner.host = None;
            drop(inner);
            resume_unwind(payload);
        }
        inner.flush();
        let host = inner.host.take().expect(LENT);
        let detector_time = inner.detector_time;
        let outcome = inner.outcome.take().unwrap_or(ExecutionOutcome::Terminated);
        drop(inner);
        // The caller's wait covers everything the baton holders did,
        // including detector work and decisions; subtract both so the
        // three phases partition the wall-clock of `run`.
        let selection = host.decisions.selection_time();
        let replay = started.map_or(Duration::ZERO, |t0| t0.elapsed());
        host.decisions.report_phases(
            host.observer,
            detector_time,
            replay
                .saturating_sub(detector_time)
                .saturating_sub(selection),
        );
        host.decisions.finish(outcome)
    }

    /// One scheduling step, made by the baton holder under the lock:
    /// forward the queued events, check the step limit, compute the
    /// enabled set, detect a deadlock, and record the scheduler's
    /// decision. Returns the task to run next, or `None` once the
    /// execution is aborted.
    fn schedule(self: &Arc<Self>, inner: &mut ExecInner) -> Option<Tid> {
        inner.flush();
        if inner.host().decisions.steps() >= self.config.max_steps {
            inner
                .outcome
                .get_or_insert(ExecutionOutcome::StepLimitExceeded);
            self.abort(inner);
            return None;
        }

        let enabled: Vec<Tid> = inner
            .tasks
            .iter()
            .enumerate()
            .filter(|(i, t)| {
                !t.finished
                    && t.pending
                        .as_ref()
                        .is_some_and(|op| op_enabled(inner, Tid(*i), op))
            })
            .map(|(i, _)| Tid(i))
            .collect();

        if enabled.is_empty() {
            let blocked: Vec<Tid> = inner
                .tasks
                .iter()
                .enumerate()
                .filter(|(_, t)| !t.finished)
                .map(|(i, _)| Tid(i))
                .collect();
            inner
                .outcome
                .get_or_insert(ExecutionOutcome::Deadlock { blocked });
            self.abort(inner);
            return None;
        }

        // Every scheduler failure — a panicking pick or fault decision,
        // a choice outside the enabled set — unwinds out of this one
        // call, so it drains the tasks and reclaims the workers.
        let ExecInner { host, tasks, .. } = &mut *inner;
        let decisions = &mut host.as_mut().expect(LENT).decisions;
        DECIDING.set(true);
        let decided = catch_unwind(AssertUnwindSafe(|| {
            decisions.next(enabled, |chosen| {
                let pending = tasks[chosen.index()]
                    .pending
                    .as_ref()
                    .expect("enabled task has a pending op");
                NextOp {
                    site: pending.site(),
                    blocking: pending.is_blocking(),
                    fallible: pending.is_fallible(),
                }
            })
        }));
        DECIDING.set(false);
        match decided {
            Ok((chosen, fault)) => {
                inner.tasks[chosen.index()].fault = fault;
                Some(chosen)
            }
            Err(payload) => {
                self.abort(inner);
                match payload.downcast::<DivergencePayload>() {
                    // Replay divergence is recoverable: surface it as
                    // the outcome (with the partial trace) so the
                    // search can quarantine instead of crash.
                    Ok(divergence) => {
                        inner.outcome.get_or_insert(divergence.into_outcome());
                    }
                    Err(payload) => inner.host().scheduler_panic = Some(payload),
                }
                None
            }
        }
    }

    /// Gives the turn to task `next`. On its first turn, also returns
    /// its body, for the holder to [`start`](Execution::start) once it
    /// has released the lock.
    fn pass_to(&self, inner: &mut ExecInner, next: Tid) -> ToStart {
        self.baton.hand_to(Turn::Task(next.index()));
        inner.tasks[next.index()]
            .unstarted
            .take()
            .map(|body| (next, body))
    }

    /// Passes the baton on from a holder that will not run on (the
    /// caller before the root task starts, a task that just exited): to
    /// the task the scheduler picks, or, once no task is alive, back to
    /// the caller. Returns the task to start, as [`pass_to`] does.
    ///
    /// [`pass_to`]: Execution::pass_to
    fn hand_on(self: &Arc<Self>, inner: &mut ExecInner) -> ToStart {
        if inner.alive == 0 {
            self.baton.hand_to(Turn::Caller);
            None
        } else {
            let next = self.schedule(inner)?;
            self.pass_to(inner, next)
        }
    }

    /// Announces the next operation and decides the next step; if the
    /// scheduler picks another task, hands it the baton and parks until
    /// scheduled again. Then applies the operation's effect. Called by
    /// the running task.
    pub(crate) fn sched_point(self: &Arc<Self>, tid: Tid, op: PendingOp) -> EffectOut {
        if std::thread::panicking() {
            // Unwinding (abort or user panic): synchronization effects no
            // longer matter; skip silently so Drop impls stay safe.
            return EffectOut::None;
        }
        let mut inner = self.lock();
        if inner.abort {
            drop(inner);
            panic_abort();
        }
        debug_assert_eq!(
            self.baton.turn.load(Ordering::Relaxed),
            Baton::word(Turn::Task(tid.index())),
            "only the running task may announce"
        );
        let is_exit = matches!(op, PendingOp::Exit);
        inner.tasks[tid.index()].pending = Some(op);
        let mut inner = match self.schedule(&mut inner) {
            Some(next) if next == tid => inner,
            Some(next) => {
                let first = self.pass_to(&mut inner, next);
                drop(inner);
                self.start(first);
                self.wait_turn(tid)
            }
            None => {
                drop(inner);
                panic_abort();
            }
        };
        let op = inner.tasks[tid.index()]
            .pending
            .take()
            .expect("scheduled task has a pending op");
        let fault = std::mem::take(&mut inner.tasks[tid.index()].fault);
        let out = apply_effect(&mut inner, tid, &op, fault);
        if is_exit {
            let first = self.hand_on(&mut inner);
            drop(inner);
            self.start(first);
        }
        out
    }

    /// Parks until `tid` is scheduled and returns the lock; unwinds if
    /// the execution was aborted meanwhile.
    fn wait_turn(&self, tid: Tid) -> StdMutexGuard<'_, ExecInner> {
        self.baton.wait_for(Turn::Task(tid.index()), None);
        let inner = self.lock();
        if inner.abort {
            drop(inner);
            panic_abort();
        }
        inner
    }

    /// Applies a task's `Start` operation on its first turn. Its thread
    /// starts only once the turn is its own (or the execution is
    /// aborted), so this does not park.
    fn first_turn(&self, tid: Tid) {
        let mut inner = self.wait_turn(tid);
        let op = inner.tasks[tid.index()]
            .pending
            .take()
            .expect("started task has the Start op pending");
        debug_assert_eq!(op, PendingOp::Start);
        apply_effect(&mut inner, tid, &op, false);
    }

    /// Records a task's unwinding (user panic or abort).
    fn handle_task_panic(self: &Arc<Self>, tid: Tid, payload: Box<dyn Any + Send>) {
        let mut inner = self.lock();
        if !is_abort(&*payload) {
            if inner.outcome.is_none() {
                inner.outcome = Some(ExecutionOutcome::AssertionFailure {
                    thread: tid,
                    message: payload_message(&*payload),
                });
            }
            self.abort(&mut inner);
        }
        if !inner.tasks[tid.index()].finished {
            inner.tasks[tid.index()].finished = true;
            inner.alive -= 1;
            // Every unwind happens under an abort: the last task out
            // hands the turn back to the draining caller.
            if inner.alive == 0 {
                self.baton.hand_to(Turn::Caller);
            }
        }
    }

    /// Registers a synchronization object: `new` allocates its resource
    /// slot. Returns `(resource id, detector sync id)`.
    pub(crate) fn register(&self, new: impl FnOnce(&mut Resources) -> usize) -> (usize, usize) {
        let mut inner = self.lock();
        (new(&mut inner.resources), inner.detector.new_sync_object())
    }

    /// Registers an atomic variable (a pure sync object).
    pub(crate) fn register_atomic(&self) -> usize {
        self.lock().detector.new_sync_object()
    }

    /// Registers a data variable for race checking.
    pub(crate) fn register_data(&self, name: Option<String>) -> usize {
        self.lock().detector.new_data_var(name)
    }

    /// Checks (and in full-interleaving mode, schedules) a data-variable
    /// access by the running task.
    pub(crate) fn data_access(self: &Arc<Self>, tid: Tid, var: usize, kind: AccessKind) {
        if self.config.preempt_data_vars {
            self.sched_point(tid, PendingOp::DataAccess { var });
        }
        if std::thread::panicking() {
            return;
        }
        let mut inner = self.lock();
        if let Err(race) = inner.with_detector(|d| d.data_access(tid, var, kind)) {
            let description = race.to_string();
            inner.pending_races.push(description.clone());
            if self.config.fail_on_race {
                inner
                    .outcome
                    .get_or_insert(ExecutionOutcome::DataRace { description });
                self.abort(&mut inner);
                drop(inner);
                panic_abort();
            }
        }
    }

    /// Whether the lock is currently held by `tid` (for assertions in
    /// the condvar API).
    pub(crate) fn lock_held_by(&self, lock: usize, tid: Tid) -> bool {
        self.lock().resources.locks[lock] == Some(tid)
    }
}

/// Is the pending operation executable right now?
fn op_enabled(inner: &ExecInner, tid: Tid, op: &PendingOp) -> bool {
    match *op {
        PendingOp::Acquire { lock, .. } => inner.resources.locks[lock].is_none(),
        PendingOp::CondReacquire { cv, lock, .. } => {
            let signaled = inner.resources.condvars[cv]
                .iter()
                .find(|w| w.tid == tid)
                .is_some_and(|w| w.signaled);
            signaled && inner.resources.locks[lock].is_none()
        }
        PendingOp::SemAcquire { sem, .. } => inner.resources.sems[sem] > 0,
        PendingOp::EventWait { event, .. } => inner.resources.events[event].0,
        PendingOp::Join { target } => inner.tasks[target.index()].finished,
        PendingOp::RwAcquire { rw, write, .. } => {
            let state = &inner.resources.rwlocks[rw];
            if write {
                state.readers == 0 && state.writer.is_none()
            } else {
                // Writer preference: a parked writer blocks new readers.
                let writer_waiting = inner.tasks.iter().any(|t| {
                    !t.finished
                        && matches!(
                            t.pending,
                            Some(PendingOp::RwAcquire {
                                rw: r,
                                write: true,
                                ..
                            }) if r == rw
                        )
                });
                state.writer.is_none() && !writer_waiting
            }
        }
        PendingOp::BarrierWait { bar, gen, .. } => inner.resources.barriers[bar].generation > gen,
        _ => true,
    }
}

/// Applies the state transition of `op`, records its happens-before
/// edges, and stores the post-step fingerprint for the next decision to
/// forward.
///
/// `fault` is the scheduler's decision for designated fallible
/// operations (always `false` otherwise): a faulted `TryAcquire` fails
/// even when the lock is free, a faulted `CondWait` enqueues the waiter
/// pre-signaled (a spurious wakeup that consumes no notification), and a
/// faulted `FailPoint` trips.
fn apply_effect(inner: &mut ExecInner, tid: Tid, op: &PendingOp, fault: bool) -> EffectOut {
    let mut out = EffectOut::None;
    match *op {
        PendingOp::Start | PendingOp::Yield => {}
        PendingOp::Exit => {
            inner.tasks[tid.index()].finished = true;
            inner.alive -= 1;
        }
        PendingOp::Acquire { lock, sync } => {
            debug_assert!(inner.resources.locks[lock].is_none());
            inner.resources.locks[lock] = Some(tid);
            inner.with_detector(|d| d.sync_access(tid, sync));
        }
        PendingOp::Release { lock, sync } => {
            debug_assert_eq!(inner.resources.locks[lock], Some(tid));
            inner.resources.locks[lock] = None;
            inner.with_detector(|d| d.sync_access(tid, sync));
        }
        PendingOp::TryAcquire { lock, sync } => {
            inner.with_detector(|d| d.sync_access(tid, sync));
            if !fault && inner.resources.locks[lock].is_none() {
                inner.resources.locks[lock] = Some(tid);
                out = EffectOut::Acquired(true);
            } else {
                out = EffectOut::Acquired(false);
            }
        }
        PendingOp::CondWait {
            cv,
            cv_sync,
            lock,
            lock_sync,
        } => {
            debug_assert_eq!(inner.resources.locks[lock], Some(tid));
            inner.resources.locks[lock] = None;
            // A faulted wait is a spurious wakeup: the waiter enters the
            // queue already signaled, so its reacquire is enabled without
            // any notify — and a later notify_one skips it, consuming no
            // signal on its behalf.
            inner.resources.condvars[cv].push(CondWaiter {
                tid,
                signaled: fault,
            });
            inner.with_detector(|d| d.sync_access(tid, lock_sync));
            inner.with_detector(|d| d.sync_access(tid, cv_sync));
        }
        PendingOp::CondReacquire {
            cv,
            cv_sync,
            lock,
            lock_sync,
        } => {
            let pos = inner.resources.condvars[cv]
                .iter()
                .position(|w| w.tid == tid)
                .expect("reacquiring task is a waiter");
            let waiter = inner.resources.condvars[cv].remove(pos);
            debug_assert!(waiter.signaled);
            debug_assert!(inner.resources.locks[lock].is_none());
            inner.resources.locks[lock] = Some(tid);
            inner.with_detector(|d| d.sync_access(tid, cv_sync));
            inner.with_detector(|d| d.sync_access(tid, lock_sync));
        }
        PendingOp::Notify { cv, cv_sync, all } => {
            if all {
                for w in inner.resources.condvars[cv].iter_mut() {
                    w.signaled = true;
                }
            } else if let Some(w) = inner.resources.condvars[cv]
                .iter_mut()
                .find(|w| !w.signaled)
            {
                w.signaled = true;
            }
            inner.with_detector(|d| d.sync_access(tid, cv_sync));
        }
        PendingOp::SemAcquire { sem, sync } => {
            debug_assert!(inner.resources.sems[sem] > 0);
            inner.resources.sems[sem] -= 1;
            inner.with_detector(|d| d.sync_access(tid, sync));
        }
        PendingOp::SemRelease { sem, sync } => {
            inner.resources.sems[sem] += 1;
            inner.with_detector(|d| d.sync_access(tid, sync));
        }
        PendingOp::EventWait { event, sync } => {
            debug_assert!(inner.resources.events[event].0);
            if !inner.resources.events[event].1 {
                // Auto-reset events consume the signal.
                inner.resources.events[event].0 = false;
            }
            inner.with_detector(|d| d.sync_access(tid, sync));
        }
        PendingOp::EventSet { event, sync } => {
            inner.resources.events[event].0 = true;
            inner.with_detector(|d| d.sync_access(tid, sync));
        }
        PendingOp::EventReset { event, sync } => {
            inner.resources.events[event].0 = false;
            inner.with_detector(|d| d.sync_access(tid, sync));
        }
        PendingOp::AtomicAccess { sync } => {
            inner.with_detector(|d| d.sync_access(tid, sync));
        }
        PendingOp::DataAccess { .. } => {}
        PendingOp::Spawn => {
            let child = Tid(inner.tasks.len());
            // `spawn_task` stores the body once this step is over.
            inner.tasks.push(TaskEntry::new(None));
            inner.alive += 1;
            inner.with_detector(|d| d.fork(tid, child));
            out = EffectOut::Spawned(child);
        }
        PendingOp::Join { target } => {
            debug_assert!(inner.tasks[target.index()].finished);
            inner.with_detector(|d| d.join(tid, target));
        }
        PendingOp::RwAcquire { rw, sync, write } => {
            let state = &mut inner.resources.rwlocks[rw];
            if write {
                debug_assert!(state.readers == 0 && state.writer.is_none());
                state.writer = Some(tid);
            } else {
                debug_assert!(state.writer.is_none());
                state.readers += 1;
            }
            inner.with_detector(|d| d.sync_access(tid, sync));
        }
        PendingOp::RwRelease { rw, sync, write } => {
            let state = &mut inner.resources.rwlocks[rw];
            if write {
                debug_assert_eq!(state.writer, Some(tid));
                state.writer = None;
            } else {
                debug_assert!(state.readers > 0);
                state.readers -= 1;
            }
            inner.with_detector(|d| d.sync_access(tid, sync));
        }
        PendingOp::BarrierArrive { bar, sync } => {
            let state = &mut inner.resources.barriers[bar];
            let gen = state.generation;
            state.arrived += 1;
            if state.arrived == state.parties {
                state.arrived = 0;
                state.generation += 1;
            }
            inner.with_detector(|d| d.sync_access(tid, sync));
            out = EffectOut::Generation(gen);
        }
        PendingOp::BarrierWait { sync, .. } => {
            inner.with_detector(|d| d.sync_access(tid, sync));
        }
        PendingOp::FailPoint { .. } => {
            out = EffectOut::Fault(fault);
        }
    }
    let vc = inner.detector.thread_clock(tid);
    let op_hash = if fault {
        // A faulted step is a different program event than its
        // fault-free twin: salt the hash so fingerprints (and hence
        // cache keys and coverage) distinguish the two histories.
        op.op_hash() ^ FAULT_OP_SALT
    } else {
        op.op_hash()
    };
    let fp = inner.fingerprint.record(tid, op_hash, &vc);
    inner.pending_fp = Some(fp);
    out
}

/// The life of one task, on its worker thread (or, for the root task
/// without a watchdog, on the caller's thread).
pub(crate) fn task_main(exec: Arc<Execution>, tid: Tid, body: Body) {
    let outer = CURRENT.with(|c| c.replace(Some((Arc::clone(&exec), tid))));
    exec.baton.register(Turn::Task(tid.index()));
    let result = catch_unwind(AssertUnwindSafe(|| {
        exec.first_turn(tid);
        body();
        exec.sched_point(tid, PendingOp::Exit);
    }));
    if let Err(payload) = result {
        exec.handle_task_panic(tid, payload);
    }
    CURRENT.with(|c| *c.borrow_mut() = outer);
}

/// Spawns a child task from the running task (used by
/// [`crate::thread::spawn`]). The child's thread starts on its first
/// turn.
pub(crate) fn spawn_task(body: Body) -> Tid {
    with_current(|exec, tid| {
        let child = match exec.sched_point(tid, PendingOp::Spawn) {
            EffectOut::Spawned(child) => child,
            _ => unreachable!("Spawn effect yields a child tid"),
        };
        let mut inner = exec.lock();
        if inner.abort {
            // The watchdog aborted the execution after the Spawn step, so
            // no handoff will start the child: start it now, so that it
            // unwinds and the caller's drain ends.
            drop(inner);
            exec.start(Some((child, body)));
        } else {
            inner.tasks[child.index()].unstarted = Some(body);
        }
        child
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use icb_core::{NoopObserver, NullSink, ReplayScheduler, Schedule};
    use std::sync::mpsc;

    /// Runs `f` on its own thread; fails if it does not finish in time
    /// (a lost wake-up hangs instead of failing).
    fn within(limit: Duration, f: impl FnOnce() + Send + 'static) {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            f();
            let _ = tx.send(());
        });
        rx.recv_timeout(limit).expect("baton test hung");
    }

    #[test]
    fn baton_ping_pong_finishes() {
        const ROUNDS: usize = 10_000;
        within(Duration::from_secs(60), || {
            let baton = Arc::new(Baton::new());
            let peer = {
                let baton = Arc::clone(&baton);
                std::thread::spawn(move || {
                    baton.register(Turn::Task(0));
                    for _ in 0..ROUNDS {
                        baton.wait_for(Turn::Task(0), None);
                        baton.hand_to(Turn::Caller);
                    }
                })
            };
            baton.register(Turn::Caller);
            for _ in 0..ROUNDS {
                baton.hand_to(Turn::Task(0));
                baton.wait_for(Turn::Caller, None);
            }
            peer.join().expect("peer thread panicked");
        });
    }

    #[test]
    fn wake_all_releases_every_parked_waiter() {
        const WAITERS: usize = 4;
        within(Duration::from_secs(60), || {
            let baton = Arc::new(Baton::new());
            let waiters: Vec<_> = (0..WAITERS)
                .map(|i| {
                    let baton = Arc::clone(&baton);
                    std::thread::spawn(move || {
                        baton.register(Turn::Task(i));
                        baton.wait_for(Turn::Task(i), None)
                    })
                })
                .collect();
            // A waiter fills its slot right before its first check.
            while baton.slots().iter().flatten().count() < WAITERS {
                std::thread::yield_now();
            }
            baton.wake_all();
            for waiter in waiters {
                assert!(waiter.join().expect("waiter panicked"));
            }
            // The broadcast is for tasks: the caller still times out.
            baton.register(Turn::Caller);
            let deadline = Instant::now() + Duration::from_millis(10);
            assert!(!baton.wait_for(Turn::Caller, Some(deadline)));
        });
    }

    /// Runs a root that spawns `k` children and joins them in order,
    /// under the non-preemptive replay; returns the outcome, the
    /// dispatches and the unparks.
    fn spawn_and_join(k: usize) -> (ExecutionOutcome, usize, usize) {
        let exec = Arc::new(Execution::new(RuntimeConfig::default()));
        let result = exec.run(
            Box::new(move || {
                let children: Vec<_> = (0..k).map(|_| crate::thread::spawn(|| {})).collect();
                for child in children {
                    child.join();
                }
            }),
            &mut ReplayScheduler::new(Schedule::new()),
            &mut NullSink,
            &mut NoopObserver,
        );
        (
            result.outcome,
            exec.dispatches.load(Ordering::Relaxed),
            exec.baton.unparks.load(Ordering::Relaxed),
        )
    }

    #[test]
    fn a_spawn_and_join_costs_one_dispatch_and_one_unpark_per_child() {
        // The root runs on the caller and exits last, so neither is ever
        // dispatched or woken. Each child is dispatched at its first turn
        // (when the root blocks on joining it) and finds the turn its
        // own; its exit unparks the root. Before tasks started on their
        // first turn and the caller ran the root, the same run cost
        // k + 1 dispatches and, depending on thread timing, up to 2k + 1
        // unparks.
        for k in 0..=4 {
            within(Duration::from_secs(60), move || {
                assert_eq!(
                    spawn_and_join(k),
                    (ExecutionOutcome::Terminated, k, k),
                    "{k} children"
                );
            });
        }
    }
}
