//! Iterative context bounding — Algorithm 1 of the paper, in stateless
//! (replay-based) form.
//!
//! The explicit-state formulation keeps a queue of `(state, tid)` work
//! items. A stateless checker cannot store states, so a work item here is
//! the *schedule prefix* that reaches the state, with the thread to run as
//! its last element. Processing a work item replays the prefix and then
//! explores, by nested depth-first search, every execution reachable
//! **without introducing another preemption**:
//!
//! * while the current thread stays enabled it is forced to continue —
//!   scheduling any other enabled thread would be a preemption, so for
//!   every such thread `t` a new work item `prefix·t` is pushed onto the
//!   *next* work queue (to be processed at bound + 1);
//! * when the current thread blocks or terminates, the switch is free and
//!   the nested DFS branches over every enabled thread (lines 33–37 of
//!   Algorithm 1).
//!
//! The outer loop drains the current queue, then increments the bound and
//! swaps in the deferred queue — so every execution with `i` preemptions
//! is explored before any execution with `i + 1`, and the first bug found
//! is exposed by a minimal number of preemptions.
//!
//! A search with a target bound `c` never runs bound `c + 1`: at bound
//! `c` each such deferral is only counted (the events and the queue
//! depth still see it), never built or stored.
//!
//! # Fault levels
//!
//! When [`SearchConfig::fault_bound`](crate::search::SearchConfig::fault_bound) is non-zero, *injected faults*
//! become a second bounded dimension: every designated fallible
//! operation reached fresh during the nested DFS additionally defers a
//! work item with a fault injected into that step, to the level
//! `(c, f + 1)`. Levels are processed in lexicographic `(preemptions,
//! faults)` order — `(0,0), (0,1), …, (0,F), (1,0), …` — so the first
//! bug found carries a minimum-`(preemptions, faults)` witness. At
//! fault bound 0 no fault is ever injected or deferred and the search
//! degenerates exactly to the single-axis algorithm above.
//!
//! # Resuming saved states
//!
//! When the program is [`Resumable`](crate::Resumable), a run need not re-execute its
//! whole prefix. Each worker keeps a resume stack ([`Resume`]): the
//! states before some steps of its last run, with that run's trace. A
//! run starts from the deepest saved step `p` with `p ≤ fresh_from`
//! whose recorded path its own path repeats on `[0, p)`, choices and
//! fault flags both; every point it skips was handled by an earlier run,
//! so the run emits, probes and reports exactly what a replay would.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use crate::cache::{coverage_credit, ExplorationCache, FAULT_PROBE_SALT};
use crate::coverage::StateSink;
use crate::program::{ControlledProgram, Decisions, FaultPoint, Saved, SchedulePoint, Scheduler};
use crate::search::driver::{drain, execute_caught, save, Crew, Explore, Node, Ran, Work};
use crate::search::ledger::Ledger;
use crate::search::QuarantinedTrace;
use crate::snapshot::{BranchSnapshot as Branch, IcbState, StrategyState};
use crate::telemetry::{AbortReason, SearchObserver};
use crate::tid::Tid;
use crate::trace::{DivergencePayload, ExecutionOutcome, Schedule, Trace};

/// The level loop of Algorithm 1 over the one driver: drains each
/// `(c, f)` level's queue in lexicographic level order, deferring
/// preemptions (and faults) to later levels. Returns whether the space
/// was exhausted.
pub(crate) fn run_icb(
    program: &(dyn ControlledProgram + Sync),
    cache: Option<&dyn ExplorationCache>,
    mut work: Vec<Work<Node>>,
    ledger: &mut Ledger<'_>,
    crew: &Crew,
) -> bool {
    let target = ledger.config.preemption_bound;
    let mut completed = false;
    loop {
        ledger.start_level(work.len());
        let began = Instant::now();
        let level = Tree {
            program,
            cache,
            credits: (
                coverage_credit(ledger.bound + 1, target),
                coverage_credit(ledger.bound, target),
            ),
            mode: Mode::Icb {
                emit_faults: ledger.fault < ledger.config.fault_bound,
                count_preemptions: target.is_some_and(|pb| ledger.bound + 1 > pb),
            },
            longest: AtomicUsize::new(0),
        };
        let leftover = if ledger.stop {
            work
        } else {
            drain(&level, work, ledger, crew)
        };
        if !ledger.stop && !leftover.is_empty() && ledger.remaining_budget() == 0 {
            // Parallel workers ran out of budget claims mid-level.
            ledger.halt(AbortReason::ExecutionBudget);
        }
        debug_assert!(
            ledger.stop || leftover.is_empty(),
            "level drained without stopping"
        );
        if ledger.stop {
            save(&level, ledger, &leftover);
            break;
        }
        ledger.close_level(began);
        if ledger.stop {
            // A parallel run halting on its first bug at the barrier.
            save(&level, ledger, &[]);
            break;
        }
        // A preemption bound counts as completed only once every fault
        // level `(c, _)` with pending work has been drained.
        let next = ledger.levels.keys().next().copied();
        if next.is_none_or(|(c, _)| c > ledger.bound) {
            ledger.completed_bound = Some(ledger.bound);
        }
        let Some(next) = next else {
            // Work counted past the target is a level left unexplored.
            completed = !ledger.truncated && ledger.beyond == 0;
            break;
        };
        if target.is_some_and(|pb| next.0 > pb) {
            break;
        }
        // Executions check the deadline only after they run; without
        // this a deadline expiring at a level boundary would start (and
        // time) another level's first execution.
        if ledger.over_deadline() {
            ledger.halt(AbortReason::Timeout);
            ledger.truncated = true;
            save(&level, ledger, &[]);
            break;
        }
        let queue = ledger.levels.remove(&next).expect("peeked key exists");
        (ledger.bound, ledger.fault) = next;
        ledger.execs_base = ledger.executions;
        ledger.bugs_base = ledger.buggy_executions;
        work = queue.into_iter().map(|p| (Node::new(p), false)).collect();
    }
    if !ledger.stop {
        // Clean completion (space exhausted or the target bound fully
        // explored): nothing is left to resume.
        ledger.finish_checkpoint();
    }
    completed
}

/// ICB (one `(c, f)` level) or DFS as a driver strategy: a work item is
/// the subtree under a schedule prefix, explored by a nested DFS.
pub(crate) struct Tree<'a> {
    program: &'a (dyn ControlledProgram + Sync),
    cache: Option<&'a dyn ExplorationCache>,
    /// Coverage credits of preemption and of fault deferrals (see
    /// [`ItemCache`]).
    credits: (Option<u32>, Option<u32>),
    mode: Mode,
    /// The longest execution seen (iterative deepening stops once a
    /// pass truncated none).
    pub(crate) longest: AtomicUsize,
}

/// How a tree search extends a work item past its prefix.
#[derive(Clone, Copy)]
enum Mode {
    /// ICB: continuing an enabled current thread is forced; switching
    /// away would be a preemption and is deferred to the next bound
    /// (and, below the fault bound, a fallible step defers a faulted
    /// copy to the next fault level). Free switches branch. Past the
    /// target bound a preemption deferral is only counted.
    Icb {
        emit_faults: bool,
        count_preemptions: bool,
    },
    /// DFS: branch over every enabled thread before the depth bound, if
    /// any, and complete the run under the default policy after it.
    Dfs(Option<usize>),
}

impl<'a> Tree<'a> {
    /// Stateless depth-first search, truncated at `depth_bound`
    /// (`db:N`).
    ///
    /// At every scheduling point before the depth bound the search
    /// branches over *all* enabled threads — preempting freely, which is
    /// exactly why it drowns in shallow interleavings on multithreaded
    /// programs (Section 4.2 of the paper). Beyond the depth bound the
    /// run is completed under the default preemption-free policy, but
    /// states visited there are not counted and bugs occurring there are
    /// not reported: the tree is truncated at depth `N`. A cache prunes
    /// covered subtrees, which is sound only for *unbounded* DFS (the
    /// session enforces it).
    pub(crate) fn dfs(
        program: &'a (dyn ControlledProgram + Sync),
        depth_bound: Option<usize>,
        cache: Option<&'a dyn ExplorationCache>,
    ) -> Self {
        Tree {
            program,
            cache,
            // DFS explores each recorded subtree schedule-exhaustively
            // and never defers fault items.
            credits: (coverage_credit(0, None), None),
            mode: Mode::Dfs(depth_bound),
            longest: AtomicUsize::new(0),
        }
    }
}

impl Explore for Tree<'_> {
    type Item = Node;
    type Local = Resume;

    /// Replays the prefix (or resumes a saved state along it), follows
    /// the branch stack, records new branch points and backtracks; a
    /// panic leaves the stack as it was.
    fn run(
        &self,
        node: &mut Node,
        local: &mut Resume,
        rerun: bool,
        sink: &mut dyn StateSink,
        observer: &mut dyn SearchObserver,
    ) -> Result<Ran, String> {
        let depth = node.stack.len();
        // Points from here on are visited for the first time: deferrals
        // are emitted only for them (earlier points were handled by an
        // earlier run or by the parent item). After backtracking (or from
        // a snapshot, saved post-backtrack) the deepest branch point takes
        // a new option; everything after it is fresh.
        let fresh_from = node.stack.last().map_or(node.prefix.len(), |b| b.step + 1);
        let resumable = self.program.resumable();
        // A retry re-executes the whole path.
        let from = match resumable {
            Some(_) if !rerun => {
                local.start(node, fresh_from, matches!(self.mode, Mode::Icb { .. }))
            }
            Some(_) => {
                local.clear();
                None
            }
            None => None,
        };
        let (path, trace) = from.map_or_else(Default::default, |p| local.reached(p));
        let skipped = from.unwrap_or(0);
        let cursor = Cell::new(0);
        let mut sched = TreeScheduler {
            prefix: &node.prefix,
            fresh_from,
            cursor: node.stack.partition_point(|b| b.step < skipped),
            stack: std::mem::take(&mut node.stack),
            path,
            mode: self.mode,
            coast: false,
            emitted: [Vec::new(), Vec::new()],
            counted: 0,
            cache: self
                .cache
                .filter(|_| !rerun)
                .map(|cache| ItemCache::new(cache, &cursor, self.credits)),
            saves: resumable.map(|_| Vec::new()),
            keep_from: from.map_or(0, |p| p + 1),
            branching: false,
        };
        let mut gated;
        let sink: &mut dyn StateSink = match self.mode {
            Mode::Dfs(Some(remaining)) => {
                // The gate counts steps: a resumed run's first visit is
                // the state before step `skipped`.
                gated = GatedSink {
                    inner: sink,
                    remaining: remaining.saturating_sub(skipped),
                };
                &mut gated
            }
            _ => sink,
        };
        let saved = from.and(local.saves.last());
        let execute = |sink: &mut dyn StateSink| {
            execute_caught(|| match resumable {
                Some(r) => {
                    r.execute_from(saved, Decisions::resume(&mut sched, trace), sink, observer)
                }
                None => self.program.execute_observed(&mut sched, sink, observer),
            })
        };
        let result = match self.cache {
            Some(cache) => execute(&mut CursorSink {
                inner: sink,
                state: &cursor,
                cache,
            }),
            None => execute(sink),
        };
        let TreeScheduler {
            mut stack,
            path,
            emitted,
            counted,
            cache,
            saves,
            ..
        } = sched;
        if let Some(saves) = saves {
            match &result {
                Ok(r) if !matches!(r.outcome, ExecutionOutcome::ReplayDivergence { .. }) => {
                    local.saves.extend(saves);
                }
                // A panicked run's saves go with it, and so does the
                // trace the older saves lie on; a diverging program's
                // states cannot be trusted.
                _ => local.clear(),
            }
        }
        if result.is_err() {
            stack.truncate(depth);
        }
        node.stack = stack;
        let mut result = result?;
        if let Mode::Dfs(bound) = self.mode {
            self.longest
                .fetch_max(result.stats.steps, Ordering::Relaxed);
            // Within the depth bound the result stands; beyond it the
            // run is an artifact of the completion policy — downgrade
            // any bug.
            if bound.is_some_and(|b| result.stats.steps > b) && result.outcome.is_bug() {
                result.outcome = ExecutionOutcome::Terminated;
            }
        }
        Ok(Ran {
            result,
            path,
            deferred: emitted,
            beyond: counted,
            cache: cache.map_or((0, 0), |c| (c.hits, c.stores)),
            done: node.backtrack(),
        })
    }

    /// Keeps the run's trace while the stack holds states saved along
    /// it.
    fn reclaim(&self, local: &mut Resume, trace: Trace) {
        if !local.saves.is_empty() {
            local.trace = trace;
        }
    }

    fn split(&self, node: Node, path: &Schedule) -> Vec<Node> {
        node.split(path)
    }

    fn forfeit(&self, node: Node) -> (Option<QuarantinedTrace>, Option<Node>) {
        (Some(node.forfeit()), None)
    }

    fn state(&self, ledger: &Ledger<'_>, items: Vec<&Node>) -> StrategyState {
        if let Mode::Dfs(depth_bound) = self.mode {
            let mut items: Vec<_> = items
                .into_iter()
                .map(|n| (n.prefix.clone(), n.stack.clone()))
                .collect();
            if ledger.canonical {
                items.sort_by(|a, b| a.0.cmp(&b.0));
            }
            return StrategyState::Dfs { depth_bound, items };
        }
        let mut work = Vec::new();
        let mut in_progress = None;
        for node in items {
            if node.stack.is_empty() {
                work.push(node.prefix.clone());
            } else if in_progress.is_none() {
                in_progress = Some((node.prefix.clone(), node.stack.clone()));
            }
        }
        let mut levels: BTreeMap<_, Vec<Schedule>> = ledger
            .levels
            .iter()
            .map(|(&level, queue)| (level, queue.iter().cloned().collect()))
            .collect();
        for (level, items) in ledger.accrued_sorted() {
            if !items.is_empty() {
                levels.entry(level).or_default().extend(items);
            }
        }
        if ledger.canonical {
            // Snapshot bytes independent of worker timing.
            work.sort();
        }
        StrategyState::Icb(IcbState {
            bound: ledger.bound,
            fault: ledger.fault,
            bound_executions_base: ledger.execs_base,
            bound_bugs_base: ledger.bugs_base,
            completed_bound: ledger.completed_bound,
            work,
            deferred: levels.into_iter().map(|((c, f), q)| (c, f, q)).collect(),
            beyond: ledger.beyond,
            bound_history: ledger.bound_history.clone(),
            in_progress,
        })
    }

    fn decode(state: StrategyState) -> Vec<Node> {
        match state {
            StrategyState::Icb(s) => s
                .in_progress
                .map(Node::from)
                .into_iter()
                .chain(s.work.into_iter().map(Node::new))
                .collect(),
            StrategyState::Dfs { items, .. } => items.into_iter().map(Node::from).collect(),
            StrategyState::Random { .. } => unreachable!("a tree search resumes no random walk"),
        }
    }
}

/// A worker's resume stack: states saved before steps of its last
/// successful run, and that run's trace. Saved states stay on the
/// worker: they never enter a queued, split or donated item or a
/// snapshot.
#[derive(Default)]
pub(crate) struct Resume {
    /// The trace every save lies on (taken by a resumed run while it
    /// runs).
    trace: Trace,
    /// States before steps of `trace`, by increasing step.
    saves: Vec<Saved>,
}

impl Resume {
    fn clear(&mut self) {
        self.trace = Trace::new();
        self.saves.clear();
    }

    /// The step the next run of `node` resumes at, if any: the deepest
    /// saved step `p ≤ fresh_from` whose recorded path the run repeats
    /// on `[0, p)`. Drops the saves deeper than it, which lie off the
    /// run's path.
    fn start(&mut self, node: &Node, fresh_from: usize, icb: bool) -> Option<usize> {
        if self.saves.is_empty() {
            return None;
        }
        let agreed = agreement(&self.trace, node, fresh_from, icb);
        let keep = self.saves.partition_point(|s| s.step() <= agreed);
        self.saves.truncate(keep);
        self.saves.last().map(Saved::step)
    }

    /// The path and trace that reach the save at step `p`.
    fn reached(&mut self, p: usize) -> (Schedule, Trace) {
        let mut trace = std::mem::take(&mut self.trace);
        trace.truncate(p);
        (trace.schedule(), trace)
    }
}

/// How many leading steps of `trace` the next run of `node` takes
/// exactly as recorded, choices and fault flags both, up to
/// `fresh_from`. The run's path there is fixed: the prefix, then each
/// stack branch's current option, and between branches (ICB only) the
/// forced continuation of the running thread.
fn agreement(trace: &Trace, node: &Node, fresh_from: usize, icb: bool) -> usize {
    let entries = trace.entries();
    let end = fresh_from.min(entries.len());
    let mut branches = node.stack.iter().peekable();
    for (i, e) in entries[..end].iter().enumerate() {
        let (choice, fault) = if let Some(t) = node.prefix.get(i) {
            (Some(t), node.prefix.fault_at(i))
        } else if let Some(b) = branches.next_if(|b| b.step == i) {
            (Some(b.options[b.next_ix]), false)
        } else if icb && e.current_enabled {
            (e.current, false)
        } else {
            return i;
        };
        if choice != Some(e.chosen) || fault != e.fault {
            return i;
        }
    }
    end
}

/// Forwards at most `remaining` fingerprints, dropping the rest — states
/// past a depth bound do not count as covered.
struct GatedSink<'a> {
    inner: &'a mut dyn StateSink,
    remaining: usize,
}

impl StateSink for GatedSink<'_> {
    fn visit(&mut self, fingerprint: u64) {
        if self.remaining > 0 {
            self.remaining -= 1;
            self.inner.visit(fingerprint);
        }
    }
}

/// A [`StateSink`] tee: forwards every fingerprint to the wrapped sink
/// and mirrors the latest one into a shared cell, so the scheduler can
/// read "the state we are at right now" at pick time without borrowing
/// the coverage tracker.
struct CursorSink<'a> {
    inner: &'a mut dyn StateSink,
    state: &'a Cell<u64>,
    /// Tee of every visit, so a persistent cache can save the visited
    /// set as seed states for future warm runs.
    cache: &'a dyn ExplorationCache,
}

impl StateSink for CursorSink<'_> {
    fn visit(&mut self, fingerprint: u64) {
        self.state.set(fingerprint);
        self.cache.note_state(fingerprint);
        self.inner.visit(fingerprint);
    }
}

/// Per-run cache probe state of one [`TreeScheduler`].
struct ItemCache<'a> {
    cache: &'a dyn ExplorationCache,
    /// Latest fingerprint of the in-flight execution (fed by
    /// [`CursorSink`]); at a forced-continue point this is the state the
    /// deferred work items branch from.
    state: &'a Cell<u64>,
    /// Coverage credit of the work items this run emits (born at the
    /// next bound); `None` when they lie beyond the target bound and
    /// will never run — then they are counted, neither probed nor
    /// recorded.
    credit: Option<u32>,
    /// Coverage credit of *fault* work items, which run at this bound
    /// (next fault level), so they carry one more preemption of budget
    /// than preemption deferrals do.
    fault_credit: Option<u32>,
    hits: usize,
    stores: usize,
}

impl<'a> ItemCache<'a> {
    fn new(
        cache: &'a dyn ExplorationCache,
        state: &'a Cell<u64>,
        (credit, fault_credit): (Option<u32>, Option<u32>),
    ) -> Self {
        ItemCache {
            cache,
            state,
            credit,
            fault_credit,
            hits: 0,
            stores: 0,
        }
    }

    /// Probes the cache for the `(current state, t)` subtree. `true`
    /// means it is already covered: skip the emission (a hit).
    /// Otherwise the probe has recorded the subtree as ours to explore
    /// (a store).
    fn covered(&mut self, t: Tid) -> bool {
        let Some(credit) = self.credit else {
            return false;
        };
        if self.cache.probe(self.state.get(), t, credit) {
            self.hits += 1;
            true
        } else {
            self.stores += 1;
            false
        }
    }

    /// Probes the cache for the faulted variant of the `(current state,
    /// t)` subtree. The key is salted with [`FAULT_PROBE_SALT`]: an
    /// injected fault changes the continuation, so the faulted subtree
    /// must never collide with the fault-free entry.
    fn covered_fault(&mut self, t: Tid) -> bool {
        let Some(credit) = self.fault_credit else {
            return false;
        };
        if self
            .cache
            .probe(self.state.get() ^ FAULT_PROBE_SALT, t, credit)
        {
            self.hits += 1;
            true
        } else {
            self.stores += 1;
            false
        }
    }
}

/// The scheduler of one run of a schedule-tree item.
struct TreeScheduler<'a> {
    prefix: &'a Schedule,
    stack: Vec<Branch>,
    /// Position in `stack` during the current run.
    cursor: usize,
    /// Full schedule chosen so far in this run (prefix included).
    path: Schedule,
    mode: Mode,
    /// First step index considered fresh for deferrals.
    fresh_from: usize,
    /// Set once a fresh DFS branch point found *all* its subtrees
    /// covered: the rest of the run completes under the default policy
    /// without pushing branches (they would lie inside covered subtrees).
    coast: bool,
    /// Deferred work items discovered in this run: `path-so-far · t` for
    /// the next preemption bound, and `path-so-far` with a fault
    /// injected into its last step for the next fault level.
    emitted: [Vec<Schedule>; 2],
    /// Preemption deferrals past the target bound, counted instead of
    /// emitted.
    counted: usize,
    /// Fingerprint-cache probing: at ICB deferrals, at DFS branch points.
    cache: Option<ItemCache<'a>>,
    /// States this run saved, `None` unless the program is resumable.
    saves: Option<Vec<Saved>>,
    /// First step whose state is not on the resume stack yet.
    keep_from: usize,
    /// The last pick took a branch point with options left after it.
    branching: bool,
}

/// A replayed choice, which the program must still offer.
fn replayed(point: &SchedulePoint<'_>, tid: Tid) -> Tid {
    if !point.is_enabled(tid) {
        // The program is not deterministic.
        DivergencePayload::new(point.step_index, tid, point.enabled.to_vec()).raise();
    }
    tid
}

impl TreeScheduler<'_> {
    /// The choice at a point past the prefix.
    fn extend(&mut self, point: &SchedulePoint<'_>) -> Tid {
        let step = point.step_index;
        match self.mode {
            Mode::Icb {
                count_preemptions, ..
            } if point.current_enabled => {
                // Forced: continuing the current thread is free;
                // switching to any other enabled thread costs a
                // preemption and is deferred to the next bound.
                let current = point
                    .current
                    .expect("current_enabled implies a current thread");
                if step >= self.fresh_from {
                    let others = point.enabled.iter().filter(|&&t| t != current);
                    if count_preemptions {
                        // Past the target: no item, no cache probe.
                        self.counted += others.count();
                    } else {
                        for &t in others {
                            if !self.cache.as_mut().is_some_and(|c| c.covered(t)) {
                                let mut item = self.path.clone();
                                item.push(t);
                                self.emitted[0].push(item);
                            }
                        }
                    }
                }
                return current;
            }
            // Truncated region (or coasting out of a fully covered
            // branch point): complete the run without branching.
            Mode::Dfs(bound) if bound.is_some_and(|b| step >= b) || self.coast => {
                return point.default_choice()
            }
            _ => {}
        }
        // A branch point: a free switch (ICB) or any point (DFS).
        if let Some(b) = self.stack.get(self.cursor) {
            debug_assert_eq!(b.step, step, "branch stack out of sync with execution");
            self.cursor += 1;
            self.branching = b.next_ix + 1 < b.options.len();
            return replayed(point, b.options[b.next_ix]);
        }
        let mut options = point.enabled.to_vec();
        if let (Mode::Dfs(_), Some(cache)) = (self.mode, &mut self.cache) {
            // Keep only the options whose subtrees are not already
            // covered from the current state.
            options.retain(|&t| !cache.covered(t));
            if options.is_empty() {
                self.coast = true;
                return point.default_choice();
            }
        }
        let first = options[0];
        self.branching = options.len() > 1;
        self.stack.push(Branch {
            step,
            options,
            next_ix: 0,
        });
        self.cursor += 1;
        first
    }
}

impl Scheduler for TreeScheduler<'_> {
    fn pick(&mut self, point: SchedulePoint<'_>) -> Tid {
        let choice = match self.prefix.get(point.step_index) {
            Some(tid) => replayed(&point, tid),
            None => self.extend(&point),
        };
        self.path.push(choice);
        choice
    }

    /// Within the prefix, replay the recorded fault set (and mirror it
    /// into `path` so emitted work items and quarantine records inherit
    /// it). Past the prefix, never inject — instead, at fresh points
    /// below the fault bound, defer a copy of the path with a fault
    /// added to this very step: the faulted continuation is explored at
    /// the next fault level.
    fn decide_fault(&mut self, point: FaultPoint) -> bool {
        if point.step_index < self.prefix.len() {
            if self.prefix.fault_at(point.step_index) {
                self.path.add_fault(point.step_index);
                return true;
            }
            return false;
        }
        let emit = matches!(
            self.mode,
            Mode::Icb {
                emit_faults: true,
                ..
            }
        );
        if emit
            && point.step_index >= self.fresh_from
            && !self
                .cache
                .as_mut()
                .is_some_and(|c| c.covered_fault(point.tid))
        {
            let mut item = self.path.clone();
            item.add_fault(point.step_index);
            self.emitted[1].push(item);
        }
        false
    }

    /// Keeps the state before each branch point a later run of this item
    /// backtracks to, and before the item's last prefix choice, where
    /// the items deferred next to it branch off.
    fn keep(&mut self, step_index: usize) -> bool {
        let branching = std::mem::take(&mut self.branching);
        self.saves.is_some()
            && step_index >= self.keep_from
            && (branching || step_index + 1 == self.prefix.len())
    }

    fn kept(&mut self, saved: Saved) {
        if let Some(saves) = &mut self.saves {
            saves.push(saved);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::bounds;
    use crate::search::testprog::{minimal_bug, schedule_count, Counters};
    use crate::search::{Search, SearchConfig};

    #[test]
    fn exhausts_two_by_two_counter_program() {
        let p = Counters {
            n: 2,
            k: 2,
            bug: None,
        };
        let report = Search::over(&p)
            .config(SearchConfig::default())
            .run()
            .unwrap();
        assert!(report.completed);
        assert_eq!(report.executions as u128, schedule_count(2, 2));
        assert_eq!(report.completed_bound, Some(2));
        // Per-bound execution counts for 2 threads × 2 steps:
        // bound 0: 0011, 1100; bound 1: 0110, 1001; bound 2: 0101, 1010.
        let per_bound: Vec<usize> = report.bound_history.iter().map(|b| b.executions).collect();
        assert_eq!(per_bound, vec![2, 2, 2]);
    }

    #[test]
    fn exhausts_three_by_two_counter_program() {
        let p = Counters {
            n: 3,
            k: 2,
            bug: None,
        };
        let report = Search::over(&p)
            .config(SearchConfig::default())
            .run()
            .unwrap();
        assert!(report.completed);
        assert_eq!(report.executions as u128, schedule_count(3, 2));
    }

    #[test]
    fn per_bound_counts_respect_theorem_1() {
        let p = Counters {
            n: 3,
            k: 3,
            bug: None,
        };
        let report = Search::over(&p)
            .config(SearchConfig::default())
            .run()
            .unwrap();
        assert!(report.completed);
        for b in &report.bound_history {
            // Non-blocking program: each thread's only blocking action is
            // its fictitious termination, so b = 1 (Section 2).
            let bound = bounds::executions_with_preemptions(3, 3, 1, b.bound as u64).unwrap();
            assert!(
                (b.executions as u128) <= bound,
                "bound {}: {} > {}",
                b.bound,
                b.executions,
                bound
            );
        }
    }

    #[test]
    fn finds_bug_with_minimal_preemptions() {
        // Thread 1's first step must observe counter == 1: exactly one
        // step of thread 0 must precede it, which requires preempting
        // thread 0 once.
        let p = Counters {
            n: 2,
            k: 2,
            bug: Some((1, 0, 1)),
        };
        let bug = minimal_bug(&p, 10_000).expect("bug must be found");
        assert_eq!(bug.preemptions, 1);
    }

    #[test]
    fn finds_zero_preemption_bug_at_bound_zero() {
        // Thread 1's first step observes counter == 2: schedule 0 0 1 1,
        // reachable without preemptions.
        let p = Counters {
            n: 2,
            k: 2,
            bug: Some((1, 0, 2)),
        };
        let bug = minimal_bug(&p, 10_000).expect("bug must be found");
        assert_eq!(bug.preemptions, 0);
    }

    #[test]
    fn bug_schedule_replays_to_same_outcome() {
        let p = Counters {
            n: 2,
            k: 3,
            bug: Some((1, 1, 3)),
        };
        let bug = minimal_bug(&p, 100_000).expect("bug must be found");
        let mut replay = crate::replay::ReplayScheduler::new(bug.schedule.clone());
        let result =
            crate::ControlledProgram::execute(&p, &mut replay, &mut crate::coverage::NullSink);
        assert!(result.outcome.is_bug());
        assert_eq!(result.stats.preemptions, bug.preemptions);
    }

    #[test]
    fn respects_execution_budget() {
        let p = Counters {
            n: 3,
            k: 3,
            bug: None,
        };
        let report = Search::over(&p)
            .config(SearchConfig::with_max_executions(7))
            .run()
            .unwrap();
        assert_eq!(report.executions, 7);
        assert!(!report.completed);
    }

    #[test]
    fn preemption_bound_stops_iteration() {
        let p = Counters {
            n: 2,
            k: 3,
            bug: None,
        };
        let report = Search::over(&p)
            .config(SearchConfig {
                preemption_bound: Some(1),
                ..SearchConfig::default()
            })
            .run()
            .unwrap();
        assert_eq!(report.completed_bound, Some(1));
        assert!(!report.completed); // deeper bounds exist but were skipped
        assert!(report.bound_history.len() == 2);
        // All explored executions have at most 1 preemption.
        assert!(report.max_stats.preemptions <= 1);
    }

    #[test]
    fn bound_zero_explores_without_limiting_depth() {
        // Even at bound 0, executions run to completion: max steps equals
        // the full program length.
        let p = Counters {
            n: 2,
            k: 5,
            bug: None,
        };
        let report = Search::over(&p)
            .config(SearchConfig {
                preemption_bound: Some(0),
                ..SearchConfig::default()
            })
            .run()
            .unwrap();
        assert_eq!(report.max_stats.steps, 10);
        assert_eq!(report.max_stats.preemptions, 0);
        assert_eq!(report.executions, 2); // 0^5 1^5 and 1^5 0^5
    }

    #[test]
    fn queue_cap_sets_truncated() {
        let p = Counters {
            n: 3,
            k: 3,
            bug: None,
        };
        let report = Search::over(&p)
            .config(SearchConfig {
                max_work_queue: Some(1),
                ..SearchConfig::default()
            })
            .run()
            .unwrap();
        assert!(report.truncated);
        assert!(!report.completed);
    }

    #[test]
    fn target_bound_deferrals_are_not_capped() {
        // The bound-2 work a bound-1 search defers never runs, so a
        // budget with one execution to spare (which caps the deferred
        // queue at one item) must not truncate it.
        let p = Counters {
            n: 3,
            k: 3,
            bug: None,
        };
        let config = SearchConfig {
            preemption_bound: Some(1),
            ..SearchConfig::default()
        };
        let needed = Search::over(&p)
            .config(config.clone())
            .run()
            .unwrap()
            .executions;
        for jobs in [1, 2] {
            let report = Search::over(&p)
                .config(SearchConfig {
                    max_executions: Some(needed + 1),
                    ..config.clone()
                })
                .jobs(jobs)
                .run()
                .unwrap();
            assert_eq!(report.executions, needed, "jobs {jobs}");
            assert!(!report.truncated, "jobs {jobs}");
            assert!(!report.completed, "jobs {jobs}: bound 2 is left");
            assert_eq!(report.completed_bound, Some(1), "jobs {jobs}");
        }
    }

    #[test]
    fn executions_are_distinct_schedules() {
        // The nested DFS must not re-run identical schedules: total
        // executions equals the number of distinct schedules, which for
        // the no-bug counter program is the multinomial count.
        let p = Counters {
            n: 2,
            k: 4,
            bug: None,
        };
        let report = Search::over(&p)
            .config(SearchConfig::default())
            .run()
            .unwrap();
        assert_eq!(report.executions as u128, schedule_count(2, 4));
    }
}
