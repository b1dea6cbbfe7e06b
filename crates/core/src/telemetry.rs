//! Search telemetry: the [`SearchObserver`] hook interface.
//!
//! Every search strategy reports its progress through an observer —
//! execution lifecycles, per-bound statistics, bug discoveries, work-queue
//! movements and race reports all flow through the same object-safe
//! trait. The paper's entire evaluation (Figures 1–6, Tables 1–2) is
//! built from exactly this data; exposing it as a first-class stream lets
//! the CLI watch a long search live, lets the benchmark harness source
//! its figures without duplicated tallies, and lets downstream users
//! export per-bound timing for offline analysis.
//!
//! The default implementation of every hook is a no-op, so
//! [`NoopObserver`] costs nothing beyond a virtual call per event — and
//! strategies batch their hot-path events (one `execution_started` /
//! `execution_finished` pair per execution) so the overhead is
//! unmeasurable next to the execution itself.
//!
//! Concrete observers (a JSONL event sink and the run-report fold over
//! it, a rate-limited progress reporter) live in the `icb-telemetry`
//! crate; this module only defines the interface so that `icb-core`,
//! `icb-runtime` and `icb-race` can emit events without depending on any
//! sink implementation.

use std::time::Duration;

use crate::metrics::MetricsSnapshot;
use crate::search::{BoundStats, BugReport, QuarantinedTrace, SearchReport};
use crate::trace::{ExecStats, ExecutionOutcome};

/// The cumulative counters a resumed search starts from, reported once
/// through [`SearchObserver::search_resumed`] right after
/// `search_started`, before any execution of the new segment.
///
/// Consumers that extrapolate from counters (progress reporters, report
/// stitchers) use this to distinguish "work done in this segment" from
/// "work inherited from the checkpoint" — an ETA computed as
/// `executions / elapsed` would otherwise count inherited executions
/// against this segment's wall clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResumeInfo {
    /// Executions completed before the checkpoint was taken.
    pub executions: usize,
    /// Distinct states covered before the checkpoint was taken.
    pub distinct_states: usize,
    /// The preemption bound the search resumes into (0 for strategies
    /// without bounds).
    pub bound: usize,
    /// Executions already spent at that bound before the checkpoint.
    pub bound_executions: usize,
}

/// A program location / synchronization-operation label, the unit of
/// attribution for the run report's hottest-sites table.
///
/// Sites are resolved by the program host at every scheduling point —
/// the runtime engine labels the pending synchronization operation of
/// the chosen task (`acquire#3` = acquire of lock 3, from any thread),
/// the VM adapter labels the chosen thread's next shared instruction
/// (`t1:load@14` = thread 1's load at pc 14). Aggregating executions,
/// preemptions and coverage gains per site is what tells you *which*
/// preemption points dominate a search (the question behind the paper's
/// Figures 7–9 and behind thread/variable-bounding heuristics).
///
/// The type is plain-old-data (`Copy`, `Eq`, `Hash`, `Ord`) so it can be
/// carried on every [`TraceEntry`](crate::TraceEntry) and used directly
/// as a histogram key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SiteId {
    /// Operation class (`"acquire"`, `"load"`, …). Interned as a static
    /// string by the resolving host.
    pub class: &'static str,
    /// The resource index or program counter the class refers to.
    pub object: u32,
    /// Owning thread for per-thread locations, [`SiteId::ANY_THREAD`]
    /// for sites shared by all threads (e.g. a lock).
    pub thread: u32,
}

impl SiteId {
    /// Marker for sites not tied to one thread.
    pub const ANY_THREAD: u32 = u32::MAX;

    /// The site of an operation whose location could not be resolved.
    pub const UNKNOWN: SiteId = SiteId {
        class: "?",
        object: 0,
        thread: SiteId::ANY_THREAD,
    };

    /// A thread-agnostic site: an operation `class` on resource `object`.
    pub const fn op(class: &'static str, object: u32) -> Self {
        SiteId {
            class,
            object,
            thread: SiteId::ANY_THREAD,
        }
    }

    /// A per-thread program location: `thread` about to execute the
    /// instruction `class` at program counter `pc`.
    pub const fn at(thread: u32, class: &'static str, pc: u32) -> Self {
        SiteId {
            class,
            object: pc,
            thread,
        }
    }

    /// Returns `true` for the [`SiteId::UNKNOWN`] placeholder.
    pub fn is_unknown(&self) -> bool {
        *self == SiteId::UNKNOWN
    }
}

impl std::fmt::Display for SiteId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_unknown() {
            write!(f, "?")
        } else if self.thread == SiteId::ANY_THREAD {
            write!(f, "{}#{}", self.class, self.object)
        } else {
            write!(f, "t{}:{}@{}", self.thread, self.class, self.object)
        }
    }
}

/// How a scheduling decision relates to the previously running thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ChoiceKind {
    /// The scheduler kept the running thread (or this is the initial
    /// point of an execution with no previous thread).
    Continue,
    /// A nonpreempting context switch: the previous thread blocked or
    /// terminated, so the switch is free.
    Switch,
    /// A preempting context switch: the previous thread was still
    /// enabled — the quantity ICB bounds.
    Preemption,
}

impl ChoiceKind {
    /// Kebab-case tag (`continue` / `switch` / `preemption`).
    pub fn as_str(&self) -> &'static str {
        match self {
            ChoiceKind::Continue => "continue",
            ChoiceKind::Switch => "switch",
            ChoiceKind::Preemption => "preemption",
        }
    }
}

impl std::fmt::Display for ChoiceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The wall-clock phases a profiled execution divides into.
///
/// Reported through [`SearchObserver::phase_time`] once per phase per
/// execution (by hosts that support timing), so a profiler can answer
/// "where does the time go": re-running the program under a schedule
/// ([`Phase::Replay`]), asking the strategy's scheduler to pick
/// ([`Phase::Selection`]), or checking happens-before races
/// ([`Phase::RaceDetection`]). Whatever the three phases do not cover is
/// the host's own bookkeeping ("accounted-other" in the report).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Executing the program under test (task execution / VM stepping),
    /// minus the race-detection time spent inside it.
    Replay,
    /// Time spent inside `Scheduler::pick` — the strategy's decision
    /// logic.
    Selection,
    /// Time spent in the happens-before race detector.
    RaceDetection,
}

impl Phase {
    /// Kebab-case tag (`replay` / `selection` / `race-detection`).
    pub fn as_str(&self) -> &'static str {
        match self {
            Phase::Replay => "replay",
            Phase::Selection => "selection",
            Phase::RaceDetection => "race-detection",
        }
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Why a search stopped before exhausting its schedule space.
///
/// Reported through [`SearchObserver::search_aborted`] so a consumer can
/// distinguish a timed-out search from an exhausted one — the
/// [`SearchReport`] of a timed-out search
/// additionally has `truncated` set, because its coverage numbers are
/// lower bounds only.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AbortReason {
    /// [`SearchConfig::max_duration`](crate::search::SearchConfig) elapsed.
    Timeout,
    /// [`SearchConfig::max_executions`](crate::search::SearchConfig) was
    /// reached.
    ExecutionBudget,
    /// A bug was found under
    /// [`SearchConfig::stop_on_first_bug`](crate::search::SearchConfig).
    FirstBug,
    /// The operator interrupted the search (Ctrl-C); a checkpointing
    /// search writes a final snapshot before stopping, so the run can be
    /// continued with `resume`.
    Interrupted,
}

impl std::fmt::Display for AbortReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AbortReason::Timeout => write!(f, "timeout"),
            AbortReason::ExecutionBudget => write!(f, "execution-budget"),
            AbortReason::FirstBug => write!(f, "first-bug"),
            AbortReason::Interrupted => write!(f, "interrupted"),
        }
    }
}

/// Receiver of structured search events.
///
/// All hooks have no-op defaults: implement only what you need. The
/// trait is object-safe — strategies hold a `&mut dyn SearchObserver` —
/// and the event grammar obeys these invariants, which the test suite
/// asserts:
///
/// * `search_started` is the first event and `search_finished` the last;
/// * every `execution_started` is matched by exactly one
///   `execution_finished` with the same 1-based index;
/// * `bound_started`/`bound_completed` pairs nest between executions and
///   arrive in increasing bound order (ICB only);
/// * `bug_found` fires exactly once per *reported* bug, i.e. at most
///   [`SearchConfig::max_bug_reports`](crate::search::SearchConfig)
///   times, and the reported values equal the final
///   [`SearchReport::bugs`](crate::search::SearchReport);
/// * `bound_completed` values equal the final
///   [`SearchReport::bound_stats`](crate::search::SearchReport::bound_stats).
#[allow(unused_variables)]
pub trait SearchObserver {
    /// The search is starting; `strategy` is its report label.
    fn search_started(&mut self, strategy: &str) {}

    /// Execution number `index` (1-based) is about to run.
    fn execution_started(&mut self, index: usize) {}

    /// Execution number `index` finished with the given statistics and
    /// outcome; `distinct_states` is the cumulative coverage after it.
    fn execution_finished(
        &mut self,
        index: usize,
        stats: &ExecStats,
        outcome: &ExecutionOutcome,
        distinct_states: usize,
    ) {
    }

    /// ICB is starting preemption bound `bound` with `work_items` queued
    /// schedule prefixes to process.
    fn bound_started(&mut self, bound: usize, work_items: usize) {}

    /// ICB completed a preemption bound; `stats` is the row that will
    /// appear in [`SearchReport::bound_stats`], `wall_time` the time
    /// spent inside this bound.
    ///
    /// [`SearchReport::bound_stats`]: crate::search::SearchReport::bound_stats
    fn bound_completed(&mut self, stats: &BoundStats, wall_time: Duration) {}

    /// A bug report was recorded (bounded by `max_bug_reports`; further
    /// buggy executions only increment the report's counter).
    fn bug_found(&mut self, bug: &BugReport) {}

    /// ICB deferred one work item (a schedule prefix whose exploration
    /// requires one more preemption) to the queue for `next_bound`.
    fn work_item_deferred(&mut self, next_bound: usize) {}

    /// The deferred work queue reached `depth` items (sampled after each
    /// processed work item; track the maximum for the high-water mark).
    fn work_queue_depth(&mut self, depth: usize) {}

    /// The happens-before race detector flagged a data race. Fires even
    /// when the runtime is configured to tolerate races
    /// (`fail_on_race = false`), which is what makes detector-silenced
    /// runs auditable.
    fn race_detected(&mut self, description: &str) {}

    /// A parallel search is about to replay the events of one worker
    /// execution: everything from the next `execution_started` through
    /// its `execution_finished` was produced by worker `worker`, where it
    /// was that worker's `seq`-th execution (1-based, contiguous per
    /// worker), finishing `at` after the parallel search began (stamped
    /// on the worker thread when the execution completed, *not* when the
    /// pump replayed it — arrival order is the only ordering the pump
    /// guarantees, so throughput-over-time series must use this stamp).
    /// Sequential searches (`jobs = 1`) never emit this, which keeps
    /// their event streams byte-identical to previous releases; sinks
    /// that persist it can prove a merged parallel log lost or
    /// duplicated nothing by checking per-worker contiguity.
    fn worker_stamp(&mut self, worker: usize, seq: u64, at: Duration) {}

    /// Opt-in gate for the per-step [`choice_point`] /
    /// [`preemption_taken`] events. Strategies batch these like
    /// `execution_started`: one pass over the finished execution's trace,
    /// and only when an attached observer returns `true` here — so a
    /// [`NoopObserver`] search never pays for attribution.
    ///
    /// [`choice_point`]: SearchObserver::choice_point
    /// [`preemption_taken`]: SearchObserver::preemption_taken
    fn wants_choice_points(&self) -> bool {
        false
    }

    /// Opt-in gate for [`phase_time`](SearchObserver::phase_time):
    /// program hosts only start their phase timers when an attached
    /// observer returns `true` here.
    fn wants_phase_timing(&self) -> bool {
        false
    }

    /// One scheduling decision of the just-finished execution: the op at
    /// `site` was chosen while the search was exploring preemption bound
    /// `bound` (0 for strategies without bounds), and the decision was a
    /// continuation, free switch or preemption per `kind`.
    ///
    /// Gated by [`wants_choice_points`](SearchObserver::wants_choice_points);
    /// emitted in trace order between the execution's `execution_started`
    /// and `execution_finished`.
    fn choice_point(&mut self, site: SiteId, bound: usize, kind: ChoiceKind) {}

    /// A preemption was taken against the thread whose most recent
    /// operation ran at `site` — the victim's location, which is what a
    /// per-site preemption histogram wants to count. Fires immediately
    /// after the corresponding `choice_point` with
    /// [`ChoiceKind::Preemption`].
    fn preemption_taken(&mut self, site: SiteId) {}

    /// A fault was injected into the fallible operation at `site`
    /// during step `step` of the just-finished execution. Emitted once
    /// per injected fault, in trace order, between the execution's
    /// `execution_started` and `execution_finished`. Searches at fault
    /// bound 0 never inject, so their event streams are unchanged.
    fn fault_injected(&mut self, site: SiteId, step: usize) {}

    /// A worker (worker 0 at `jobs = 1`) caught a panic escaping the
    /// program under test (not a replay divergence — those are
    /// quarantined as usual). The attempt counts as no execution: at
    /// every job count this event closes its `execution_started` in
    /// place of `execution_finished`, and the retry starts the same
    /// execution index again. The item is retried once and then
    /// quarantined; `message` is the panic payload rendered as text.
    fn worker_panic(&mut self, worker: usize, message: &str) {}

    /// The just-finished execution spent `elapsed` inside `phase`.
    /// Gated by [`wants_phase_timing`](SearchObserver::wants_phase_timing);
    /// hosts emit at most one event per phase per execution.
    fn phase_time(&mut self, phase: Phase, elapsed: Duration) {}

    /// The search is stopping before exhausting its space.
    fn search_aborted(&mut self, reason: AbortReason) {}

    /// The search resumed from a checkpoint whose cumulative counters
    /// are in `info`. Fires at most once, immediately after
    /// `search_started` and before any `execution_started` of the new
    /// segment.
    fn search_resumed(&mut self, info: &ResumeInfo) {}

    /// A checkpoint covering everything up to (cumulative) execution
    /// number `executions` was durably written.
    fn checkpoint_written(&mut self, executions: usize) {}

    /// Replay diverged (or an item panicked twice); the search forfeits
    /// the subtree under `quarantined.schedule` and keeps going. Fires
    /// once per quarantined prefix: inside the diverging execution,
    /// before its `execution_finished`, or after the second
    /// `worker_panic`.
    fn trace_quarantined(&mut self, quarantined: &QuarantinedTrace) {}

    /// The fingerprint cache pruned `count` work item(s): their subtrees
    /// were already covered by an earlier (or concurrent) exploration.
    fn cache_hit(&mut self, count: usize) {}

    /// The fingerprint cache recorded `count` new work-item subtree(s).
    fn cache_store(&mut self, count: usize) {}

    /// The certification ledger answered the whole search: the program
    /// is already certified bug-free at preemption bound `bound`
    /// (`None` = certified exhaustively). No executions will run.
    fn bound_certified(&mut self, bound: Option<usize>) {}

    /// A point-in-time copy of the live [`MetricsRegistry`] attached to
    /// the search. Emitted by the [`MetricsBridge`] at checkpoint
    /// cadence, after each completed bound, and once right before
    /// `search_finished` — only when a registry is attached, so searches
    /// without one keep their event streams byte-identical to previous
    /// releases.
    ///
    /// [`MetricsRegistry`]: crate::metrics::MetricsRegistry
    /// [`MetricsBridge`]: crate::metrics::MetricsBridge
    fn metrics_snapshot(&mut self, snapshot: &MetricsSnapshot) {}

    /// The search is over; `report` is the final report about to be
    /// returned to the caller.
    fn search_finished(&mut self, report: &SearchReport) {}
}

/// The zero-cost default observer: ignores every event.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopObserver;

impl SearchObserver for NoopObserver {}

impl<O: SearchObserver + ?Sized> SearchObserver for &mut O {
    fn search_started(&mut self, strategy: &str) {
        (**self).search_started(strategy)
    }
    fn execution_started(&mut self, index: usize) {
        (**self).execution_started(index)
    }
    fn execution_finished(
        &mut self,
        index: usize,
        stats: &ExecStats,
        outcome: &ExecutionOutcome,
        distinct_states: usize,
    ) {
        (**self).execution_finished(index, stats, outcome, distinct_states)
    }
    fn bound_started(&mut self, bound: usize, work_items: usize) {
        (**self).bound_started(bound, work_items)
    }
    fn bound_completed(&mut self, stats: &BoundStats, wall_time: Duration) {
        (**self).bound_completed(stats, wall_time)
    }
    fn bug_found(&mut self, bug: &BugReport) {
        (**self).bug_found(bug)
    }
    fn work_item_deferred(&mut self, next_bound: usize) {
        (**self).work_item_deferred(next_bound)
    }
    fn work_queue_depth(&mut self, depth: usize) {
        (**self).work_queue_depth(depth)
    }
    fn race_detected(&mut self, description: &str) {
        (**self).race_detected(description)
    }
    fn worker_stamp(&mut self, worker: usize, seq: u64, at: Duration) {
        (**self).worker_stamp(worker, seq, at)
    }
    fn wants_choice_points(&self) -> bool {
        (**self).wants_choice_points()
    }
    fn wants_phase_timing(&self) -> bool {
        (**self).wants_phase_timing()
    }
    fn choice_point(&mut self, site: SiteId, bound: usize, kind: ChoiceKind) {
        (**self).choice_point(site, bound, kind)
    }
    fn preemption_taken(&mut self, site: SiteId) {
        (**self).preemption_taken(site)
    }
    fn fault_injected(&mut self, site: SiteId, step: usize) {
        (**self).fault_injected(site, step)
    }
    fn worker_panic(&mut self, worker: usize, message: &str) {
        (**self).worker_panic(worker, message)
    }
    fn phase_time(&mut self, phase: Phase, elapsed: Duration) {
        (**self).phase_time(phase, elapsed)
    }
    fn search_aborted(&mut self, reason: AbortReason) {
        (**self).search_aborted(reason)
    }
    fn search_resumed(&mut self, info: &ResumeInfo) {
        (**self).search_resumed(info)
    }
    fn checkpoint_written(&mut self, executions: usize) {
        (**self).checkpoint_written(executions)
    }
    fn trace_quarantined(&mut self, quarantined: &QuarantinedTrace) {
        (**self).trace_quarantined(quarantined)
    }
    fn cache_hit(&mut self, count: usize) {
        (**self).cache_hit(count)
    }
    fn cache_store(&mut self, count: usize) {
        (**self).cache_store(count)
    }
    fn bound_certified(&mut self, bound: Option<usize>) {
        (**self).bound_certified(bound)
    }
    fn metrics_snapshot(&mut self, snapshot: &MetricsSnapshot) {
        (**self).metrics_snapshot(snapshot)
    }
    fn search_finished(&mut self, report: &SearchReport) {
        (**self).search_finished(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_observer_accepts_every_event() {
        let mut o = NoopObserver;
        o.search_started("x");
        o.execution_started(1);
        o.execution_finished(1, &ExecStats::default(), &ExecutionOutcome::Terminated, 0);
        o.bound_started(0, 1);
        o.work_item_deferred(1);
        o.work_queue_depth(3);
        o.race_detected("r/w on x");
        o.search_aborted(AbortReason::Timeout);
    }

    #[test]
    fn abort_reason_displays() {
        assert_eq!(AbortReason::Timeout.to_string(), "timeout");
        assert_eq!(AbortReason::ExecutionBudget.to_string(), "execution-budget");
        assert_eq!(AbortReason::FirstBug.to_string(), "first-bug");
    }

    #[test]
    fn site_ids_display_by_kind() {
        assert_eq!(SiteId::op("acquire", 3).to_string(), "acquire#3");
        assert_eq!(SiteId::at(1, "load", 14).to_string(), "t1:load@14");
        assert_eq!(SiteId::UNKNOWN.to_string(), "?");
        assert!(SiteId::UNKNOWN.is_unknown());
        assert!(!SiteId::op("acquire", 3).is_unknown());
    }

    #[test]
    fn choice_kind_and_phase_tags() {
        assert_eq!(ChoiceKind::Continue.as_str(), "continue");
        assert_eq!(ChoiceKind::Switch.as_str(), "switch");
        assert_eq!(ChoiceKind::Preemption.to_string(), "preemption");
        assert_eq!(Phase::Replay.as_str(), "replay");
        assert_eq!(Phase::Selection.as_str(), "selection");
        assert_eq!(Phase::RaceDetection.to_string(), "race-detection");
    }

    #[test]
    fn profiling_gates_default_off_and_forward_through_references() {
        struct Wanting;
        impl SearchObserver for Wanting {
            fn wants_choice_points(&self) -> bool {
                true
            }
            fn wants_phase_timing(&self) -> bool {
                true
            }
        }
        assert!(!NoopObserver.wants_choice_points());
        assert!(!NoopObserver.wants_phase_timing());
        // The blanket `&mut O` impl must forward the gates — a default
        // there would silently disable profiling behind references.
        let mut w = Wanting;
        let via_ref: &mut dyn SearchObserver = &mut w;
        assert!(via_ref.wants_choice_points());
        assert!(via_ref.wants_phase_timing());
        via_ref.choice_point(SiteId::UNKNOWN, 0, ChoiceKind::Continue);
        via_ref.preemption_taken(SiteId::op("acquire", 0));
        via_ref.phase_time(Phase::Replay, Duration::ZERO);
    }
}
