//! The one bookkeeping structure of a search: budget, coverage, bugs,
//! quarantine, ICB levels, checkpoints and the telemetry stream.
//!
//! The ledger is the only writer of search telemetry: every observer
//! event passes through it, and next to each one it updates the
//! attached [`MetricsRegistry`], so the registry's counts come from
//! where the report's do. With a registry attached it also emits
//! [`metrics_snapshot`](SearchObserver::metrics_snapshot) after each
//! completed level, after each checkpoint and right before
//! `search_finished`.
//!
//! The merge policy follows the job count. At `jobs = 1` executions
//! arrive in exploration order and are kept in it: deferrals are queued
//! as they are emitted (each push against the queue cap), bugs are
//! numbered in discovery order, the coverage curve gains a point per
//! execution and the first bug halts at once. At `jobs ≥ 2` arrival
//! order is racy, so the ledger merges *canonically*: deferrals accrue
//! per level and are sorted into the queues at the level barrier, bugs
//! are keyed `(preemptions, faults, schedule)` and renumbered by rank,
//! curve points are taken at barriers and the quarantine list is sorted.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::coverage::{CoverageTracker, StateSink};
use crate::metrics::MetricsRegistry;
use crate::search::{
    BoundStats, BugReport, CacheSummary, ChoiceEvent, QuarantinedTrace, SearchConfig, SearchReport,
};
use crate::snapshot::{Checkpointer, ResumeBase, SearchSnapshot, StrategyState};
use crate::telemetry::{AbortReason, Phase, ResumeInfo, SearchObserver, SiteId};
use crate::trace::{ExecStats, ExecutionOutcome, Schedule};

/// One finished execution, as the ledger folds it in.
pub(crate) struct Exec {
    /// Execution-count cost (`executions_per_run`).
    pub(crate) cost: usize,
    pub(crate) stats: ExecStats,
    pub(crate) outcome: ExecutionOutcome,
    /// The full failing schedule, when the outcome is a bug.
    pub(crate) bug: Option<Schedule>,
    /// Attributed per-step decisions (only when the observer asked).
    pub(crate) choices: Vec<ChoiceEvent>,
    /// Injected faults as `(site, step)` pairs.
    pub(crate) faults: Vec<(SiteId, usize)>,
    /// Set when replay diverged: the forfeited path.
    pub(crate) quarantine: Option<QuarantinedTrace>,
    /// ICB deferrals to `(c + 1, f)` and to `(c, f + 1)`.
    pub(crate) deferred: [Vec<Schedule>; 2],
    /// ICB deferrals to `(c + 1, f)` past the target bound, counted
    /// only.
    pub(crate) beyond: usize,
    /// Fingerprint-cache hits and stores of the run.
    pub(crate) cache: (usize, usize),
}

/// The coverage-curve stride: a canonical ledger samples its curve at
/// barriers only.
fn stride(canonical: bool, config: &SearchConfig) -> usize {
    if canonical {
        usize::MAX
    } else {
        config.coverage_stride
    }
}

/// Budget, coverage, findings and level state of one search run.
pub(crate) struct Ledger<'o> {
    pub(crate) config: SearchConfig,
    /// The strategy label (reports, snapshots).
    label: String,
    started: Instant,
    /// `jobs ≥ 2`: merge canonically (see the module docs).
    pub(crate) canonical: bool,
    /// ICB: levels, per-item `work_queue_depth` events.
    pub(crate) levelled: bool,
    pub(crate) want_choice: bool,
    pub(crate) want_phases: bool,
    pub(crate) coverage: CoverageTracker,
    pub(crate) executions: usize,
    pub(crate) buggy_executions: usize,
    bugs: Vec<BugReport>,
    max_stats: ExecStats,
    quarantined: Vec<QuarantinedTrace>,
    quarantined_total: usize,
    watchdog_trips: usize,
    pub(crate) truncated: bool,
    pub(crate) stop: bool,
    abort: Option<AbortReason>,
    /// The `(preemption, fault)` level being explored; `(0, 0)` for
    /// strategies without levels.
    pub(crate) bound: usize,
    pub(crate) fault: usize,
    /// `executions` and `buggy_executions` when the level started.
    pub(crate) execs_base: usize,
    pub(crate) bugs_base: usize,
    pub(crate) completed_bound: Option<usize>,
    pub(crate) bound_history: Vec<BoundStats>,
    /// Deferred work items by the `(c, f)` level they run at, drained
    /// in lexicographic order.
    pub(crate) levels: BTreeMap<(usize, usize), VecDeque<Schedule>>,
    /// Canonical mode: this level's deferrals to `(c + 1, f)` and
    /// `(c, f + 1)`, sorted into `levels` at the barrier.
    accrued: [Vec<Schedule>; 2],
    /// Work items deferred past the target bound: they never run, so
    /// they are counted (for events and queue depth), not stored or
    /// capped.
    pub(crate) beyond: usize,
    cache: Option<CacheSummary>,
    pub(crate) ckpt: Option<&'o mut Checkpointer>,
    observer: &'o mut dyn SearchObserver,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl<'o> Ledger<'o> {
    /// Opens the ledger and announces the search.
    pub(crate) fn new(
        label: String,
        config: SearchConfig,
        canonical: bool,
        levelled: bool,
        observer: &'o mut dyn SearchObserver,
        ckpt: Option<&'o mut Checkpointer>,
        metrics: Option<Arc<MetricsRegistry>>,
    ) -> Self {
        if let Some(m) = &metrics {
            m.mark_started();
            m.set_strategy(&label);
        }
        observer.search_started(&label);
        Ledger {
            coverage: CoverageTracker::new().with_stride(stride(canonical, &config)),
            config,
            label,
            started: Instant::now(),
            canonical,
            levelled,
            want_choice: observer.wants_choice_points(),
            want_phases: observer.wants_phase_timing(),
            executions: 0,
            buggy_executions: 0,
            bugs: Vec::new(),
            max_stats: ExecStats::default(),
            quarantined: Vec::new(),
            quarantined_total: 0,
            watchdog_trips: 0,
            truncated: false,
            stop: false,
            abort: None,
            bound: 0,
            fault: 0,
            execs_base: 0,
            bugs_base: 0,
            completed_bound: None,
            bound_history: Vec::new(),
            levels: BTreeMap::new(),
            accrued: [Vec::new(), Vec::new()],
            beyond: 0,
            cache: None,
            ckpt,
            observer,
            metrics,
        }
    }

    /// Updates the attached registry, if any.
    fn meter(&self, update: impl FnOnce(&MetricsRegistry)) {
        if let Some(m) = &self.metrics {
            update(m);
        }
    }

    /// Emits a `metrics_snapshot` of the attached registry, if any.
    fn snapshot_metrics(&mut self) {
        if let Some(m) = &self.metrics {
            self.observer.metrics_snapshot(&m.snapshot());
        }
    }

    /// Attaches cache accounting: the report carries a [`CacheSummary`]
    /// and the cache's seed states count as covered.
    pub(crate) fn attach_cache(&mut self, heuristic: bool, seeds: &[u64]) {
        self.cache = Some(CacheSummary {
            heuristic,
            ..CacheSummary::default()
        });
        for &fp in seeds {
            self.coverage.visit(fp);
        }
    }

    /// Seeds the cumulative counters, coverage, findings and ICB levels
    /// from a checkpoint and announces the resume; returns the
    /// strategy's unexplored work.
    pub(crate) fn resume(&mut self, snapshot: SearchSnapshot) -> StrategyState {
        let (base, mut state) = (snapshot.base, snapshot.state);
        if let StrategyState::Icb(s) = &mut state {
            (self.bound, self.fault) = (s.bound, s.fault);
            self.execs_base = s.bound_executions_base;
            self.bugs_base = s.bound_bugs_base;
            self.completed_bound = s.completed_bound;
            self.bound_history = std::mem::take(&mut s.bound_history);
            self.levels = std::mem::take(&mut s.deferred)
                .into_iter()
                .map(|(c, f, q)| ((c, f), q.into()))
                .collect();
            self.beyond = s.beyond;
        }
        self.executions = base.executions;
        self.buggy_executions = base.buggy_executions;
        self.bugs = base.bugs;
        self.max_stats = base.max_stats;
        self.quarantined = base.quarantined;
        self.quarantined_total = base.quarantined_total;
        self.watchdog_trips = base.watchdog_trips;
        self.truncated = base.truncated;
        self.coverage = CoverageTracker::restore(
            base.coverage_states,
            base.coverage_executions,
            base.coverage_curve,
        )
        .with_stride(stride(self.canonical, &self.config));
        let info = ResumeInfo {
            executions: self.executions,
            distinct_states: self.coverage.distinct_states(),
            bound: self.bound,
            bound_executions: self.executions.saturating_sub(self.execs_base),
        };
        self.meter(|m| m.record_resume(&info));
        self.observer.search_resumed(&info);
        if let Some(ck) = self.ckpt.as_deref_mut() {
            // The snapshot itself is durable; the next periodic write
            // is one full interval after it.
            ck.mark_written(self.executions);
        }
        // A snapshot written right at an exhausted budget must not run
        // one more execution after resume.
        if self.remaining_budget() == 0 {
            self.halt(AbortReason::ExecutionBudget);
        }
        // Nor may a snapshot written where a first-bug search stopped
        // search on. A canonical ICB search stops only at the barrier of
        // the level that found its bug: a checkpoint written earlier in
        // that level must still finish it, or the minimal witness is
        // lost.
        let level_closed = self
            .bound_history
            .last()
            .is_some_and(|b| (b.bound, b.faults) == (self.bound, self.fault));
        let stops_at_barrier = self.canonical && self.levelled;
        if self.config.stop_on_first_bug
            && self.buggy_executions > 0
            && (!stops_at_barrier || level_closed)
        {
            self.halt(AbortReason::FirstBug);
        }
        state
    }

    /// Remaining execution budget, `usize::MAX` if unlimited.
    pub(crate) fn remaining_budget(&self) -> usize {
        match self.config.max_executions {
            Some(max) => max.saturating_sub(self.executions),
            None => usize::MAX,
        }
    }

    /// Whether the wall-clock budget is exhausted.
    pub(crate) fn over_deadline(&self) -> bool {
        self.config
            .max_duration
            .is_some_and(|limit| self.started.elapsed() >= limit)
    }

    /// Stops the search, reporting the (first) reason to the observer.
    pub(crate) fn halt(&mut self, reason: AbortReason) {
        if !self.stop {
            self.stop = true;
            self.abort = Some(reason);
            self.observer.search_aborted(reason);
        }
    }

    /// Announces the next execution.
    pub(crate) fn begin(&mut self) {
        self.observer.execution_started(self.executions + 1);
    }

    /// Announces the level about to run with `work_items` queued.
    pub(crate) fn start_level(&mut self, work_items: usize) {
        self.meter(|m| m.record_bound_started(self.bound));
        self.observer.bound_started(self.bound, work_items);
    }

    /// Stamps the next replayed worker execution.
    pub(crate) fn stamp(&mut self, worker: usize, seq: u64, at: Duration) {
        self.observer.worker_stamp(worker, seq, at);
    }

    /// Replays the engine events one execution buffered: its races,
    /// then its phase times.
    pub(crate) fn engine_events(&mut self, races: &[String], phases: &[(Phase, Duration)]) {
        for race in races {
            self.meter(|m| m.race_detected());
            self.observer.race_detected(race);
        }
        for &(phase, elapsed) in phases {
            self.observer.phase_time(phase, elapsed);
        }
    }

    /// Quarantines a forfeited prefix: counts it, keeps a capped list
    /// (the canonical list is sorted and capped at the end), and tells
    /// the observer.
    pub(crate) fn quarantine(&mut self, q: QuarantinedTrace) {
        self.quarantined_total += 1;
        self.meter(|m| m.trace_quarantined());
        self.observer.trace_quarantined(&q);
        if self.canonical || self.quarantined.len() < self.config.max_bug_reports {
            self.quarantined.push(q);
        }
    }

    /// A worker caught a panic out of the program: the attempt does not
    /// count, and its `worker_panic` closes its `execution_started`; on a
    /// second strike its item is quarantined.
    pub(crate) fn panicked(
        &mut self,
        worker: usize,
        message: &str,
        quarantine: Option<QuarantinedTrace>,
    ) {
        self.observer.worker_panic(worker, message);
        if let Some(q) = quarantine {
            self.quarantine(q);
        }
    }

    /// The deferred-queue cap: never more items than budget left.
    fn queue_cap(&self) -> usize {
        self.config
            .max_work_queue
            .unwrap_or(usize::MAX)
            .min(self.remaining_budget())
    }

    /// Queues one deferred work item for `level`.
    fn defer(&mut self, level: (usize, usize), item: Schedule, accrued: usize) {
        if self.canonical {
            self.accrued[accrued].push(item);
        } else {
            if self.levels.get(&level).map_or(0, VecDeque::len) >= self.queue_cap() {
                self.truncated = true;
                return;
            }
            self.levels.entry(level).or_default().push_back(item);
        }
        self.deferred(level.0);
    }

    /// Tells the registry and observer that a work item was deferred
    /// to preemption bound `bound`.
    fn deferred(&mut self, bound: usize) {
        self.meter(|m| m.work_item_deferred());
        self.observer.work_item_deferred(bound);
    }

    /// Emits the deferred-queue depth.
    fn queue_depth_event(&mut self) {
        let depth = self.queue_depth();
        self.meter(|m| m.set_work_queue_depth(depth));
        self.observer.work_queue_depth(depth);
    }

    /// Folds one finished execution in, emitting its events in the one
    /// per-execution order: cache, quarantine or deferrals, choice
    /// points, faults, `execution_finished`, bug, aborts.
    pub(crate) fn apply(&mut self, e: Exec) {
        let (hits, stores) = e.cache;
        if let Some(c) = &mut self.cache {
            c.hits += hits;
            c.stores += stores;
        }
        if hits > 0 {
            self.meter(|m| m.cache_pruned(hits));
            self.observer.cache_hit(hits);
        }
        if stores > 0 {
            self.meter(|m| m.cache_stored(stores));
            self.observer.cache_store(stores);
        }
        match e.quarantine {
            Some(q) => self.quarantine(q),
            None => {
                let [preempt, fault] = e.deferred;
                let (c, f) = (self.bound, self.fault);
                for item in preempt {
                    self.defer((c + 1, f), item, 0);
                }
                self.beyond += e.beyond;
                for _ in 0..e.beyond {
                    self.deferred(c + 1);
                }
                for item in fault {
                    self.defer((c, f + 1), item, 1);
                }
            }
        }
        self.executions += e.cost;
        self.coverage.end_execution();
        self.max_stats = self.max_stats.max(e.stats);
        for c in &e.choices {
            self.observer.choice_point(c.site, self.bound, c.kind);
            if let Some(victim) = c.victim {
                self.observer.preemption_taken(victim);
            }
        }
        for &(site, step) in &e.faults {
            self.meter(|m| m.fault_injected());
            self.observer.fault_injected(site, step);
        }
        let distinct_states = self.coverage.distinct_states();
        self.meter(|m| m.record_execution(self.executions, &e.stats, &e.outcome, distinct_states));
        self.observer
            .execution_finished(self.executions, &e.stats, &e.outcome, distinct_states);
        if e.outcome == ExecutionOutcome::WatchdogTimeout {
            self.watchdog_trips += 1;
        }
        if e.outcome.is_bug() {
            self.buggy_executions += 1;
            if let Some(schedule) = e.bug {
                self.record_bug(BugReport {
                    outcome: e.outcome,
                    schedule,
                    preemptions: e.stats.preemptions,
                    faults: e.stats.faults,
                    execution_index: self.executions,
                    steps: e.stats.steps,
                });
            }
            // Canonical runs halt at the level barrier (ICB) or in the
            // pump, after the racing executions are in.
            if self.config.stop_on_first_bug && !self.canonical {
                self.halt(AbortReason::FirstBug);
            }
        }
        if self.canonical {
            if self.levelled {
                self.queue_depth_event();
            }
        } else {
            if self.remaining_budget() == 0 {
                self.halt(AbortReason::ExecutionBudget);
            }
            if self.over_deadline() {
                self.halt(AbortReason::Timeout);
            }
        }
    }

    /// Keeps a bug report: in discovery order up to the cap, or, when
    /// canonical, the minimal `(preemptions, faults, schedule)` keys.
    fn record_bug(&mut self, bug: BugReport) {
        if !self.canonical {
            if self.bugs.len() < self.config.max_bug_reports {
                self.bug_found(&bug);
                self.bugs.push(bug);
            }
            return;
        }
        let key = |b: &BugReport| (b.preemptions, b.faults, b.schedule.clone());
        if let Err(at) = self.bugs.binary_search_by_key(&key(&bug), key) {
            // Arrival-order index for the streamed event; the report
            // renumbers by rank.
            self.bug_found(&bug);
            self.bugs.insert(at, bug);
            self.bugs.truncate(self.config.max_bug_reports);
        }
    }

    /// Tells the registry and observer that a bug report was kept.
    fn bug_found(&mut self, bug: &BugReport) {
        self.meter(|m| m.bug_reported());
        self.observer.bug_found(bug);
    }

    /// Emits the deferred-queue depth after a work item (ICB only).
    pub(crate) fn item_done(&mut self) {
        if self.levelled {
            self.queue_depth_event();
        }
    }

    /// Work items deferred to every pending level.
    fn queue_depth(&self) -> usize {
        self.levels.values().map(VecDeque::len).sum::<usize>()
            + self.accrued.iter().map(Vec::len).sum::<usize>()
            + self.beyond
    }

    /// Closes the current level: its statistics row, and in canonical
    /// mode a curve point and the sorted fold of its deferrals.
    pub(crate) fn close_level(&mut self, began: Instant) {
        let stats = BoundStats {
            bound: self.bound,
            faults: self.fault,
            executions: self.executions - self.execs_base,
            cumulative_states: self.coverage.distinct_states(),
            bugs_found: self.buggy_executions - self.bugs_base,
        };
        self.observer.bound_completed(&stats, began.elapsed());
        self.snapshot_metrics();
        self.bound_history.push(stats);
        if !self.canonical {
            return;
        }
        self.coverage.sample(self.executions);
        if self.config.stop_on_first_bug && self.buggy_executions > 0 {
            // The level was finished first, preserving the minimal
            // (preemptions, faults) witness; the snapshot folds the
            // un-run deferrals in by itself.
            self.halt(AbortReason::FirstBug);
            return;
        }
        let cap = self.queue_cap();
        for (level, items) in self.accrued_sorted() {
            for item in items {
                let queue = self.levels.entry(level).or_default();
                if queue.len() < cap {
                    queue.push_back(item);
                } else {
                    self.truncated = true;
                }
            }
        }
        self.levels.retain(|_, q| !q.is_empty());
        self.accrued = [Vec::new(), Vec::new()];
    }

    /// The level's accrued deferrals, each batch sorted so the items a
    /// level starts with are independent of worker timing.
    pub(crate) fn accrued_sorted(&self) -> [((usize, usize), Vec<Schedule>); 2] {
        let sorted = |items: &Vec<Schedule>| {
            let mut items = items.clone();
            items.sort();
            items
        };
        [
            ((self.bound + 1, self.fault), sorted(&self.accrued[0])),
            ((self.bound, self.fault + 1), sorted(&self.accrued[1])),
        ]
    }

    /// Bug reports as reported: canonical ones renumbered by rank.
    fn report_bugs(&self) -> Vec<BugReport> {
        let mut bugs = self.bugs.clone();
        if self.canonical {
            for (i, b) in bugs.iter_mut().enumerate() {
                b.execution_index = i + 1;
            }
        }
        bugs
    }

    /// Quarantined prefixes as reported: canonical ones sorted, capped.
    fn report_quarantined(&self) -> Vec<QuarantinedTrace> {
        let mut qs = self.quarantined.clone();
        if self.canonical {
            qs.sort_by(|a, b| (&a.schedule, a.step).cmp(&(&b.schedule, b.step)));
            qs.truncate(self.config.max_bug_reports);
        }
        qs
    }

    /// Writes a snapshot of everything explored so far plus the
    /// strategy's unexplored `state`.
    pub(crate) fn checkpoint(&mut self, state: StrategyState) {
        let Some(meta) = self.ckpt.as_deref().map(|ck| ck.meta().to_vec()) else {
            return;
        };
        let snapshot = SearchSnapshot {
            strategy: self.label.clone(),
            meta,
            config: self.config.clone(),
            base: ResumeBase {
                executions: self.executions,
                buggy_executions: self.buggy_executions,
                bugs: self.report_bugs(),
                max_stats: self.max_stats,
                quarantined: self.report_quarantined(),
                quarantined_total: self.quarantined_total,
                watchdog_trips: self.watchdog_trips,
                truncated: self.truncated,
                coverage_states: self.coverage.state_hashes(),
                coverage_executions: self.coverage.executions(),
                coverage_curve: self.coverage.curve().to_vec(),
            },
            state,
        };
        let ck = self.ckpt.as_deref_mut().expect("checked above");
        match ck.write(&snapshot) {
            Ok(()) => {
                self.meter(|m| m.checkpoint_written());
                self.observer.checkpoint_written(self.executions);
                self.snapshot_metrics();
            }
            Err(e) => eprintln!("warning: checkpoint write failed: {e}"),
        }
    }

    /// Removes the checkpoint after a clean completion: nothing is left
    /// to resume.
    pub(crate) fn finish_checkpoint(&mut self) {
        if let Some(ck) = self.ckpt.as_deref_mut() {
            ck.finish();
        }
    }

    /// Answers from a certification without running: the search's claim
    /// was already proved by an earlier clean run.
    pub(crate) fn certified(mut self, bound: Option<usize>, report: SearchReport) -> SearchReport {
        self.observer.bound_certified(bound);
        self.finish_checkpoint();
        self.finish(report)
    }

    /// Emits `search_finished` for `report`, the registry's final
    /// snapshot first.
    fn finish(mut self, report: SearchReport) -> SearchReport {
        self.meter(|m| m.record_finished(&report));
        self.snapshot_metrics();
        self.observer.search_finished(&report);
        report
    }

    /// Converts the ledger into the final report, emitting
    /// `search_finished`. A timed-out search is marked truncated.
    pub(crate) fn into_report(mut self, completed: bool) -> SearchReport {
        let coverage = std::mem::take(&mut self.coverage);
        let report = SearchReport {
            strategy: std::mem::take(&mut self.label),
            executions: self.executions,
            distinct_states: coverage.distinct_states(),
            bugs: self.report_bugs(),
            quarantined: self.report_quarantined(),
            coverage_curve: if self.canonical {
                coverage.curve().to_vec()
            } else {
                coverage.into_curve()
            },
            buggy_executions: self.buggy_executions,
            completed,
            completed_bound: self.completed_bound,
            bound_history: std::mem::take(&mut self.bound_history),
            max_stats: self.max_stats,
            truncated: self.truncated || self.abort == Some(AbortReason::Timeout),
            quarantined_total: self.quarantined_total,
            watchdog_trips: self.watchdog_trips,
            cache: self.cache.take(),
        };
        self.finish(report)
    }
}
