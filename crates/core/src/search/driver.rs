//! The one search driver: one worker loop, one frontier, one ledger.
//!
//! A strategy ([`Explore`]) says what a work item is, how one execution
//! of it runs, how it dissolves when a peer starves, and how it is
//! encoded in a snapshot. Everything else is shared:
//!
//! * **The worker loop** ([`work`]) pops an item, runs it execution by
//!   execution, retries an item whose program panicked once and
//!   forfeits it on the second strike, and hands an unfinished item
//!   back when it must leave the worker.
//! * At every job count programs run against a buffering observer
//!   ([`BufObserver`]): the engine events of one execution (races,
//!   phase times) reach the [`Ledger`] by one path, right before the
//!   execution itself.
//! * **`jobs = 1`** runs that loop inline on the calling thread over a
//!   plain queue, applying each execution straight to the ledger.
//! * **`jobs ≥ 2`** runs it on scoped workers over a shared
//!   [`Frontier`]. Each worker owns its scheduler, a coverage dedup and
//!   an event buffer, and sends one owned [`Event`] per execution. The
//!   pump on the calling thread exclusively owns the observer (observers
//!   need not be `Send`) and replays each event through the same ledger
//!   after a [`worker_stamp`](SearchObserver::worker_stamp) whose
//!   per-worker sequence numbers prove the merged stream lost and
//!   duplicated nothing. Workers dissolve their remainder into the
//!   frontier when a peer starves (work stealing) or a checkpoint
//!   quiesces them; the queue is then the complete set of unexplored
//!   work, resumable at any job count.

use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::coverage::StateSink;
use crate::metrics::MetricsRegistry;
use crate::program::ControlledProgram;
use crate::search::frontier::Frontier;
use crate::search::ledger::{Exec, Ledger};
use crate::search::{choice_events, fault_events, QuarantinedTrace};
use crate::snapshot::{interrupt, BranchSnapshot as Branch, StrategyState};
use crate::telemetry::{AbortReason, Phase, SearchObserver};
use crate::tid::Tid;
use crate::trace::{ExecutionOutcome, ExecutionResult, Schedule, Trace};

/// How long the pump waits for an event between control checks
/// (deadline, interrupt, checkpoint cadence).
const PUMP_TICK: Duration = Duration::from_millis(5);

/// One execution of a work item, as a strategy returns it.
pub(crate) struct Ran {
    pub(crate) result: ExecutionResult,
    /// The full schedule of the run (the quarantine record when replay
    /// diverged, the dissolution source when a peer starves).
    pub(crate) path: Schedule,
    /// ICB deferrals to `(c + 1, f)` and `(c, f + 1)`.
    pub(crate) deferred: [Vec<Schedule>; 2],
    /// ICB deferrals to `(c + 1, f)` past the target bound, counted
    /// only.
    pub(crate) beyond: usize,
    /// Fingerprint-cache hits and stores.
    pub(crate) cache: (usize, usize),
    /// The item has no runs left.
    pub(crate) done: bool,
}

/// What a strategy plugs into the driver.
pub(crate) trait Explore: Sync {
    /// An in-flight work item.
    type Item: Send + Clone;
    /// What one worker keeps from item to item. Each worker starts
    /// every search, and every ICB level, with a fresh one.
    type Local: Default + Send;
    /// `false` for samplers: running out of items spends the budget
    /// instead of exhausting the space.
    const EXHAUSTIVE: bool = true;

    /// Runs the next execution of `item`, advancing it past that run.
    /// A panic out of the program comes back as `Err(message)` with
    /// `item` where it was before the run. A `rerun` retries a panicked
    /// run, whose attempt already wrote to any cache: it must not probe.
    fn run(
        &self,
        item: &mut Self::Item,
        local: &mut Self::Local,
        rerun: bool,
        sink: &mut dyn StateSink,
        observer: &mut dyn SearchObserver,
    ) -> Result<Ran, String>;

    /// Takes back the trace of the run [`run`](Explore::run) just
    /// returned, once the ledger has what it needs from it.
    fn reclaim(&self, local: &mut Self::Local, trace: Trace) {
        let _ = (local, trace);
    }

    /// Dissolves `item`, whose last run took `path`, into items a
    /// starving peer can take.
    fn split(&self, item: Self::Item, path: &Schedule) -> Vec<Self::Item>;

    /// A second panic: the record quarantining `item`, and what of it is
    /// still worth running.
    fn forfeit(&self, item: Self::Item) -> (Option<QuarantinedTrace>, Option<Self::Item>);

    /// The snapshot state of the unexplored `items`.
    fn state(&self, ledger: &Ledger<'_>, items: Vec<&Self::Item>) -> StrategyState;

    /// The unexplored items of a snapshot [`state`](Explore::state)
    /// wrote.
    fn decode(state: StrategyState) -> Vec<Self::Item>;
}

/// Where a search starts: a resumed snapshot's unexplored items, or the
/// `roots` of a fresh run.
pub(crate) fn start<S: Explore>(
    state: Option<StrategyState>,
    roots: impl IntoIterator<Item = S::Item>,
) -> Vec<Work<S::Item>> {
    let items = match state {
        Some(state) => S::decode(state),
        None => roots.into_iter().collect(),
    };
    items.into_iter().map(|item| (item, false)).collect()
}

/// A queued item and whether it already panicked once.
pub(crate) type Work<I> = (I, bool);

/// A schedule-tree work item: the subtree under `prefix`, with the
/// branch stack of its nested DFS once that has started (ICB and DFS).
#[derive(Clone, Debug, Default)]
pub(crate) struct Node {
    pub(crate) prefix: Schedule,
    pub(crate) stack: Vec<Branch>,
}

impl Node {
    pub(crate) fn new(prefix: Schedule) -> Self {
        Node {
            prefix,
            stack: Vec::new(),
        }
    }

    /// Advances the deepest branch point with options left, dropping
    /// exhausted ones. Returns `true` when the subtree is explored.
    /// Done before checkpointing, so a resumed run starts at the next
    /// unexplored schedule instead of repeating the last one.
    pub(crate) fn backtrack(&mut self) -> bool {
        while let Some(top) = self.stack.last_mut() {
            if top.next_ix + 1 < top.options.len() {
                top.next_ix += 1;
                return false;
            }
            self.stack.pop();
        }
        true
    }

    /// Dissolves the unexplored remainder into plain prefix items.
    /// `path` is the schedule of the last run and the stack is already
    /// backtracked: the deepest level's current option and every
    /// level's later options are exactly the runs left, and each
    /// becomes `path[..step] · option` — an item whose own fresh region
    /// starts where this item's would have after backtracking there, so
    /// dissolution changes no deferral.
    pub(crate) fn split(self, path: &Schedule) -> Vec<Node> {
        let last = self.stack.len().saturating_sub(1);
        let mut items = Vec::new();
        for (j, b) in self.stack.iter().enumerate() {
            let first = if j == last { b.next_ix } else { b.next_ix + 1 };
            for &option in &b.options[first..] {
                let mut prefix = path.clone();
                prefix.truncate(b.step);
                prefix.push(option);
                items.push(Node::new(prefix));
            }
        }
        items
    }

    /// The quarantine record forfeiting this item's subtree.
    pub(crate) fn forfeit(self) -> QuarantinedTrace {
        QuarantinedTrace {
            step: self.prefix.len(),
            schedule: self.prefix,
            expected: Tid(0),
            actual: Vec::new(),
        }
    }
}

impl From<(Schedule, Vec<Branch>)> for Node {
    fn from((prefix, stack): (Schedule, Vec<Branch>)) -> Self {
        Node { prefix, stack }
    }
}

/// Runs one execution, turning a divergence unwind from an in-process
/// host (the state VM, test programs) into a recoverable
/// [`ExecutionOutcome::ReplayDivergence`] (the threaded runtime catches
/// it inside its engine and returns the same outcome), and any other
/// panic into `Err(message)`.
pub(crate) fn execute_caught(
    execute: impl FnOnce() -> ExecutionResult,
) -> Result<ExecutionResult, String> {
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(execute));
    let payload = match run {
        Ok(result) => return Ok(result),
        Err(payload) => payload,
    };
    match payload.downcast::<crate::trace::DivergencePayload>() {
        // The host's trace died with the unwind; the quarantine record
        // identifies the subtree.
        Ok(d) => Ok(ExecutionResult::from_trace(
            d.into_outcome(),
            crate::trace::Trace::new(),
        )),
        Err(other) => Err(other
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| other.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string())),
    }
}

/// Folds a run into the ledger's form; returns it with the run's path,
/// whether the item is done, and the run's trace.
pub(crate) fn finish_run(
    ran: Ran,
    cost: usize,
    want_choice: bool,
) -> (Exec, Schedule, bool, Trace) {
    let Ran {
        result,
        path,
        mut deferred,
        mut beyond,
        cache,
        done,
    } = ran;
    let quarantine = match &result.outcome {
        ExecutionOutcome::ReplayDivergence {
            step,
            expected,
            actual,
        } => {
            // The program broke the determinism contract on this path:
            // the enabled sets it reported cannot be trusted, so its
            // deferrals are forfeited with it.
            deferred = Default::default();
            beyond = 0;
            Some(QuarantinedTrace {
                schedule: path.clone(),
                step: *step,
                expected: *expected,
                actual: actual.clone(),
            })
        }
        _ => None,
    };
    let exec = Exec {
        cost,
        stats: result.stats,
        bug: result.outcome.is_bug().then(|| result.trace.schedule()),
        choices: if want_choice {
            choice_events(&result)
        } else {
            Vec::new()
        },
        faults: if result.stats.faults > 0 {
            fault_events(&result)
        } else {
            Vec::new()
        },
        outcome: result.outcome,
        quarantine,
        deferred,
        beyond,
        cache,
    };
    (exec, path, done, result.trace)
}

/// A finished execution, or a caught panic's message and quarantine
/// record (a panicked run counts as no execution).
type Delivery = Result<Exec, (String, Option<QuarantinedTrace>)>;

/// Where the worker loop takes items from and delivers executions to.
trait Lane<S: Explore> {
    /// The next item; `None` once the queue is drained or the search
    /// stops.
    fn pop(&mut self) -> Option<Work<S::Item>>;
    /// Prepares one run; `false` ends the loop, handing the item back.
    fn start(&mut self) -> bool;
    fn run(&mut self, item: &mut S::Item, rerun: bool) -> Result<(Exec, Schedule, bool), String>;
    /// Delivers a finished execution (`open` is the item if runs
    /// remain) or a caught panic.
    fn deliver(&mut self, exec: Delivery, open: Option<&S::Item>);
    /// Whether an unfinished item must leave the worker now.
    fn must_yield(&self) -> bool;
    /// Hands an unfinished item back, whole or dissolved.
    fn yield_item(&mut self, work: Work<S::Item>, path: &Schedule);
    fn push(&mut self, items: Vec<Work<S::Item>>);
    /// The popped item is finished with.
    fn complete(&mut self);
}

/// The worker loop, the same at every job count.
fn work<S: Explore>(s: &S, lane: &mut impl Lane<S>) {
    while let Some((mut item, retried)) = lane.pop() {
        let mut rerun = retried;
        loop {
            if !lane.start() {
                lane.push(vec![(item, retried)]);
                lane.complete();
                return;
            }
            match lane.run(&mut item, rerun) {
                Err(message) => {
                    // First strike: retry the item once. Second: forfeit.
                    let (quarantine, rest) = if retried {
                        s.forfeit(item)
                    } else {
                        (None, Some(item))
                    };
                    lane.deliver(Err((message, quarantine)), None);
                    lane.push(rest.map(|i| (i, !retried)).into_iter().collect());
                    break;
                }
                Ok((exec, path, done)) => {
                    rerun = false;
                    lane.deliver(Ok(exec), (!done).then_some(&item));
                    if done {
                        break;
                    }
                    if lane.must_yield() {
                        lane.yield_item((item, retried), &path);
                        break;
                    }
                }
            }
        }
        lane.complete();
    }
}

/// The worker pool of a search: its size, and what outlives one swarm.
pub(crate) struct Crew {
    pub(crate) jobs: usize,
    /// Budget cost of one execution (`executions_per_run`).
    cost: usize,
    /// Per-worker event sequence numbers, contiguous across the swarms
    /// of every ICB level.
    seqs: Vec<AtomicU64>,
    /// Time base of worker-side event stamps.
    epoch: Instant,
    /// Events sent but not yet replayed (the pump backlog).
    backlog: AtomicUsize,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl Crew {
    pub(crate) fn new(
        jobs: usize,
        program: &dyn ControlledProgram,
        metrics: Option<Arc<MetricsRegistry>>,
    ) -> Self {
        Crew {
            jobs,
            cost: program.executions_per_run().max(1),
            seqs: (0..jobs).map(|_| AtomicU64::new(0)).collect(),
            epoch: Instant::now(),
            backlog: AtomicUsize::new(0),
            metrics,
        }
    }
}

/// Runs `items` through the worker loop until they are explored or the
/// search stops; returns the unexplored rest.
pub(crate) fn drain<S: Explore>(
    s: &S,
    items: Vec<Work<S::Item>>,
    ledger: &mut Ledger<'_>,
    crew: &Crew,
) -> Vec<Work<S::Item>> {
    let cost = crew.cost;
    if crew.jobs == 1 {
        let mut lane = Inline {
            s,
            local: S::Local::default(),
            buf: BufObserver::new(ledger),
            ledger,
            queue: items.into(),
            cost,
        };
        work(s, &mut lane);
        return lane.queue.into();
    }
    let frontier = Frontier::with_metrics(items, crew.metrics.clone());
    let (tx, rx) = mpsc::channel::<Event>();
    let stop = AtomicBool::new(false);
    let claimed = AtomicUsize::new(ledger.executions);
    let budget = ledger.config.max_executions.unwrap_or(usize::MAX);
    let want_choice = ledger.want_choice;
    std::thread::scope(|scope| {
        for id in 0..crew.jobs {
            let mut lane = Worker {
                s,
                crew,
                id,
                frontier: &frontier,
                tx: tx.clone(),
                stop: &stop,
                claimed: &claimed,
                budget,
                cost,
                want_choice,
                local: S::Local::default(),
                dedup: DedupSink::default(),
                buf: BufObserver::new(ledger),
            };
            scope.spawn(move || work(s, &mut lane));
        }
        drop(tx);
        loop {
            match rx.recv_timeout(PUMP_TICK) {
                Ok(ev) => replay(ledger, crew, ev),
                Err(RecvTimeoutError::Timeout) => {
                    if let Some(m) = &crew.metrics {
                        m.pump_recv_timeout();
                    }
                }
                Err(RecvTimeoutError::Disconnected) => break,
            }
            if ledger.stop {
                continue; // drain the remaining events until workers exit
            }
            let mut reason = stop_reason(ledger);
            if reason.is_none()
                && ledger
                    .ckpt
                    .as_deref()
                    .is_some_and(|ck| ck.due(ledger.executions))
            {
                quiesce(&frontier, &rx, ledger, crew);
                // The quiesce replayed events too: one may be a stop.
                reason = stop_reason(ledger);
                if reason.is_none() {
                    save(s, ledger, &frontier.snapshot_queue());
                    frontier.unpause();
                }
            }
            if let Some(reason) = reason {
                if ledger.ckpt.is_some() {
                    // Bring every item home for the final snapshot.
                    quiesce(&frontier, &rx, ledger, crew);
                }
                ledger.halt(reason);
                stop.store(true, Ordering::SeqCst);
                frontier.close();
            }
        }
    });
    frontier.snapshot_queue()
}

/// Why the pump must stop the search after the events it has replayed
/// so far, if it must.
fn stop_reason(ledger: &Ledger<'_>) -> Option<AbortReason> {
    // ICB halts on the first bug at its level barrier instead.
    let first_bug =
        ledger.config.stop_on_first_bug && ledger.buggy_executions > 0 && !ledger.levelled;
    if ledger.ckpt.is_some() && interrupt::interrupted() {
        Some(AbortReason::Interrupted)
    } else if first_bug {
        Some(AbortReason::FirstBug)
    } else if ledger.over_deadline() {
        Some(AbortReason::Timeout)
    } else {
        None
    }
}

/// Runs a strategy without levels (DFS, `db:N`, random) to its end;
/// returns whether it exhausted its space.
pub(crate) fn explore<S: Explore>(
    s: &S,
    items: Vec<Work<S::Item>>,
    ledger: &mut Ledger<'_>,
    crew: &Crew,
) -> bool {
    let leftover = if ledger.stop {
        items
    } else {
        drain(s, items, ledger, crew)
    };
    if !ledger.stop && (!S::EXHAUSTIVE || !leftover.is_empty()) && ledger.remaining_budget() == 0 {
        ledger.halt(AbortReason::ExecutionBudget);
    }
    debug_assert!(
        ledger.stop || leftover.is_empty(),
        "drained without stopping"
    );
    // A stopped parallel run may have dropped its in-flight items.
    let completed = S::EXHAUSTIVE && leftover.is_empty() && !(ledger.canonical && ledger.stop);
    if completed {
        ledger.finish_checkpoint();
    } else if ledger.stop {
        save(s, ledger, &leftover);
    }
    if ledger.canonical {
        ledger.coverage.sample(ledger.executions);
    }
    completed
}

/// Checkpoints the unexplored `items` (nothing without a checkpointer).
pub(crate) fn save<S: Explore>(s: &S, ledger: &mut Ledger<'_>, items: &[Work<S::Item>]) {
    if ledger.ckpt.is_some() {
        let state = s.state(ledger, items.iter().map(|(item, _)| item).collect());
        ledger.checkpoint(state);
    }
}

/// The `jobs = 1` lane: a plain queue and the ledger itself.
struct Inline<'a, 'o, S: Explore> {
    s: &'a S,
    local: S::Local,
    buf: BufObserver,
    ledger: &'a mut Ledger<'o>,
    queue: VecDeque<Work<S::Item>>,
    cost: usize,
}

impl<S: Explore> Lane<S> for Inline<'_, '_, S> {
    fn pop(&mut self) -> Option<Work<S::Item>> {
        if self.ledger.ckpt.is_some() && interrupt::interrupted() {
            self.ledger.halt(AbortReason::Interrupted);
        }
        if self.ledger.stop {
            return None;
        }
        self.queue.pop_front()
    }

    fn start(&mut self) -> bool {
        self.ledger.begin();
        true
    }

    fn run(&mut self, item: &mut S::Item, rerun: bool) -> Result<(Exec, Schedule, bool), String> {
        let ran = self.s.run(
            item,
            &mut self.local,
            rerun,
            &mut self.ledger.coverage,
            &mut self.buf,
        )?;
        let (exec, path, done, trace) = finish_run(ran, self.cost, self.ledger.want_choice);
        self.s.reclaim(&mut self.local, trace);
        Ok((exec, path, done))
    }

    fn deliver(&mut self, exec: Delivery, open: Option<&S::Item>) {
        self.buf.replay(self.ledger);
        match exec {
            Ok(exec) => self.ledger.apply(exec),
            Err((message, quarantine)) => self.ledger.panicked(0, &message, quarantine),
        }
        if self.ledger.ckpt.is_some() && interrupt::interrupted() {
            self.ledger.halt(AbortReason::Interrupted);
        }
        // A stop is checkpointed once, by the caller, with this item.
        let due = self
            .ledger
            .ckpt
            .as_deref()
            .is_some_and(|ck| ck.due(self.ledger.executions));
        if due && !self.ledger.stop {
            let items = open
                .into_iter()
                .chain(self.queue.iter().map(|(item, _)| item))
                .collect();
            let state = self.s.state(self.ledger, items);
            self.ledger.checkpoint(state);
        }
    }

    fn must_yield(&self) -> bool {
        self.ledger.stop
    }

    fn yield_item(&mut self, work: Work<S::Item>, _path: &Schedule) {
        self.queue.push_front(work);
    }

    fn push(&mut self, items: Vec<Work<S::Item>>) {
        for work in items.into_iter().rev() {
            self.queue.push_front(work);
        }
    }

    fn complete(&mut self) {
        self.ledger.item_done();
    }
}

/// One worker execution on its way to the pump.
struct Event {
    worker: usize,
    /// 1-based, contiguous per worker: the `worker_stamp` payload.
    seq: u64,
    /// Offset since the search began, stamped worker-side when the
    /// execution finished: the pump replays in arrival order, so this
    /// is the time base for throughput-over-time series.
    at: Duration,
    exec: Delivery,
    races: Vec<String>,
    phases: Vec<(Phase, Duration)>,
    /// Fingerprints new to this worker; the ledger dedups globally.
    fresh: Vec<u64>,
}

/// Replays one worker execution through the ledger, after its stamp.
fn replay(ledger: &mut Ledger<'_>, crew: &Crew, ev: Event) {
    let backlog = crew
        .backlog
        .fetch_sub(1, Ordering::Relaxed)
        .saturating_sub(1);
    if let Some(m) = &crew.metrics {
        m.set_pump_channel_depth(backlog);
    }
    ledger.stamp(ev.worker, ev.seq, ev.at);
    for fp in ev.fresh {
        ledger.coverage.visit(fp);
    }
    ledger.begin();
    ledger.engine_events(&ev.races, &ev.phases);
    match ev.exec {
        Ok(exec) => ledger.apply(exec),
        Err((message, quarantine)) => ledger.panicked(ev.worker, &message, quarantine),
    }
}

/// Pauses the frontier, waits for every worker to hand its item back,
/// and drains the event channel: the queue is then the complete set of
/// unexplored work.
fn quiesce<T>(
    frontier: &Frontier<T>,
    rx: &mpsc::Receiver<Event>,
    ledger: &mut Ledger<'_>,
    crew: &Crew,
) {
    frontier.pause();
    while !frontier.idle() {
        match rx.recv_timeout(PUMP_TICK) {
            Ok(ev) => replay(ledger, crew, ev),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    while let Ok(ev) = rx.try_recv() {
        replay(ledger, crew, ev);
    }
}

/// A `jobs ≥ 2` lane: the shared frontier and the event channel.
struct Worker<'a, S: Explore> {
    s: &'a S,
    crew: &'a Crew,
    id: usize,
    frontier: &'a Frontier<Work<S::Item>>,
    tx: mpsc::Sender<Event>,
    stop: &'a AtomicBool,
    /// Executions claimed against the budget by every worker.
    claimed: &'a AtomicUsize,
    budget: usize,
    cost: usize,
    want_choice: bool,
    local: S::Local,
    dedup: DedupSink,
    buf: BufObserver,
}

impl<S: Explore> Lane<S> for Worker<'_, S> {
    fn pop(&mut self) -> Option<Work<S::Item>> {
        let wait = Instant::now();
        let work = self.frontier.pop()?;
        if let Some(m) = &self.crew.metrics {
            m.worker_idle(self.id, wait.elapsed());
        }
        Some(work)
    }

    /// Claims the run against the shared budget. A failed claim takes
    /// nothing, so the claims are always the executions plus the runs in
    /// flight, and ends the worker: retrying would livelock every worker
    /// on a drained budget while the frontier still holds work. A peer
    /// whose run panics refunds its claim and retries it itself.
    fn start(&mut self) -> bool {
        let budget = self.budget;
        !self.stop.load(Ordering::SeqCst)
            && self
                .claimed
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |c| {
                    (c < budget).then_some(c + self.cost)
                })
                .is_ok()
    }

    fn run(&mut self, item: &mut S::Item, rerun: bool) -> Result<(Exec, Schedule, bool), String> {
        let busy = Instant::now();
        let ran = self
            .s
            .run(item, &mut self.local, rerun, &mut self.dedup, &mut self.buf);
        if let Some(m) = &self.crew.metrics {
            m.worker_busy(self.id, busy.elapsed());
            m.worker_execution(self.id);
        }
        let (exec, path, done, trace) = finish_run(ran?, self.cost, self.want_choice);
        self.s.reclaim(&mut self.local, trace);
        Ok((exec, path, done))
    }

    fn deliver(&mut self, exec: Delivery, _open: Option<&S::Item>) {
        if exec.is_err() {
            // A panicked run counts as no execution: refund its claim,
            // so the budget never runs dry while the ledger shows some
            // left.
            self.claimed.fetch_sub(self.cost, Ordering::SeqCst);
        }
        // The backlog rises before the send so the pump never underflows.
        self.crew.backlog.fetch_add(1, Ordering::Relaxed);
        let _ = self.tx.send(Event {
            worker: self.id,
            seq: self.crew.seqs[self.id].fetch_add(1, Ordering::Relaxed) + 1,
            at: self.crew.epoch.elapsed(),
            exec,
            races: std::mem::take(&mut self.buf.races),
            phases: std::mem::take(&mut self.buf.phases),
            fresh: std::mem::take(&mut self.dedup.fresh),
        });
    }

    fn must_yield(&self) -> bool {
        self.frontier.paused() || self.frontier.starving()
    }

    fn yield_item(&mut self, (item, _): Work<S::Item>, path: &Schedule) {
        let parts: Vec<_> = self
            .s
            .split(item, path)
            .into_iter()
            .map(|part| (part, false))
            .collect();
        if let Some(m) = &self.crew.metrics {
            m.steal_donation(parts.len());
            m.worker_donation(self.id);
        }
        self.frontier.push_many(parts);
    }

    fn push(&mut self, items: Vec<Work<S::Item>>) {
        self.frontier.push_many(items);
    }

    fn complete(&mut self) {
        self.frontier.complete();
    }
}

/// The observer programs run against: buffers the engine events of one
/// execution (races, phase timings) for the ledger to replay in order.
pub(crate) struct BufObserver {
    races: Vec<String>,
    phases: Vec<(Phase, Duration)>,
    want_phases: bool,
}

impl BufObserver {
    pub(crate) fn new(ledger: &Ledger<'_>) -> Self {
        BufObserver {
            races: Vec::new(),
            phases: Vec::new(),
            want_phases: ledger.want_phases,
        }
    }

    /// Replays and clears the buffered events through `ledger`.
    pub(crate) fn replay(&mut self, ledger: &mut Ledger<'_>) {
        ledger.engine_events(&self.races, &self.phases);
        self.races.clear();
        self.phases.clear();
    }
}

impl SearchObserver for BufObserver {
    fn race_detected(&mut self, description: &str) {
        self.races.push(description.to_string());
    }
    fn wants_phase_timing(&self) -> bool {
        self.want_phases
    }
    fn phase_time(&mut self, phase: Phase, elapsed: Duration) {
        self.phases.push((phase, elapsed));
    }
}

/// Worker-local coverage dedup: forwards each fingerprint at most once
/// per worker, cutting channel traffic.
#[derive(Default)]
struct DedupSink {
    seen: HashSet<u64>,
    fresh: Vec<u64>,
}

impl StateSink for DedupSink {
    fn visit(&mut self, fingerprint: u64) {
        if self.seen.insert(fingerprint) {
            self.fresh.push(fingerprint);
        }
    }
}
