//! Systematic search strategies over the schedule tree of a
//! [`ControlledProgram`](crate::program::ControlledProgram), run through
//! one builder, [`Search`]:
//!
//! * [`Strategy::Icb`] — **iterative context bounding**, the paper's
//!   Algorithm 1 in its stateless (replay-based) form: all executions
//!   with `i` preemptions are explored before any execution with
//!   `i + 1`.
//! * [`Strategy::Dfs`] / [`Strategy::DepthBounded`] — depth-first
//!   enumeration of all schedules, optionally depth-bounded (the
//!   paper's `dfs` and `db:N` baselines).
//! * [`Strategy::IterativeDeepening`] — iterative depth-bounding
//!   (`idfs`).
//! * [`Strategy::Random`] — seeded uniform random walks (`random`).
//! * [`Strategy::BestFirst`] — the Groce–Visser "more enabled threads"
//!   heuristic from the paper's related work.
//!
//! ICB, DFS and random plug into one driver (`driver`): one worker
//! loop, one frontier and one ledger, run inline at `jobs = 1` and on a
//! worker pool at `jobs ≥ 2`.

mod bestfirst;
mod dfs;
mod driver;
pub mod frontier;
mod icb;
mod ledger;
mod random;
mod session;

pub use frontier::Frontier;
pub use session::{Search, SearchError, Strategy};

use crate::cache::ExplorationCache;
use crate::telemetry::{ChoiceKind, SiteId};
use crate::tid::Tid;
use crate::trace::{ExecStats, ExecutionOutcome, ExecutionResult, Schedule};

/// Limits and options common to all search strategies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SearchConfig {
    /// Stop after this many executions (`None` = unlimited; prefer a
    /// limit for programs whose schedule space you have not measured).
    pub max_executions: Option<usize>,
    /// For ICB: stop after *completing* this preemption bound.
    /// `None` iterates until the space is exhausted or another limit
    /// triggers.
    pub preemption_bound: Option<usize>,
    /// For ICB: the iterative *fault bound* `f`, composing
    /// lexicographically with the preemption bound `c` — levels are
    /// explored in the order `(0,0), (0,1), …, (0,f), (1,0), …`, so the
    /// first bug found carries a minimum-`(preemptions, faults)`
    /// witness. 0 (the default) never injects a fault and reproduces
    /// pre-fault behavior exactly. Only [`Strategy::Icb`] supports a
    /// non-zero fault bound; other strategies are rejected up front.
    pub fault_bound: usize,
    /// Abort the search as soon as the first bug is recorded.
    pub stop_on_first_bug: bool,
    /// Keep at most this many bug reports (further buggy executions are
    /// still counted in [`SearchReport::buggy_executions`]).
    pub max_bug_reports: usize,
    /// Hard cap on the deferred work queue of ICB; exceeding it
    /// sets [`SearchReport::truncated`]. `None` = unbounded. Work
    /// deferred past the target `preemption_bound` never runs and is
    /// only counted, never capped.
    pub max_work_queue: Option<usize>,
    /// Wall-clock budget: the search stops (incomplete) after this long.
    /// `None` = unlimited.
    pub max_duration: Option<std::time::Duration>,
    /// Growth-curve sampling stride: one coverage-curve point per this
    /// many executions (see [`CoverageTracker::with_stride`](crate::coverage::CoverageTracker::with_stride)). The
    /// default of 1 keeps the legacy point-per-execution curve; raise it
    /// so million-execution runs don't hold a point per execution. 0 is
    /// treated as 1.
    pub coverage_stride: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            max_executions: Some(1_000_000),
            preemption_bound: None,
            fault_bound: 0,
            stop_on_first_bug: false,
            max_bug_reports: 64,
            max_work_queue: None,
            max_duration: None,
            coverage_stride: 1,
        }
    }
}

impl SearchConfig {
    /// Config that hunts for the first bug and stops.
    pub fn bug_hunt() -> Self {
        SearchConfig {
            stop_on_first_bug: true,
            ..SearchConfig::default()
        }
    }

    /// Config with an execution budget.
    pub fn with_max_executions(max: usize) -> Self {
        SearchConfig {
            max_executions: Some(max),
            ..SearchConfig::default()
        }
    }
}

/// A bug found by a search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BugReport {
    /// What went wrong.
    pub outcome: ExecutionOutcome,
    /// The complete schedule of the failing execution — replay it with
    /// [`crate::ReplayScheduler`] to reproduce the bug deterministically.
    pub schedule: Schedule,
    /// Number of preemptions in the failing execution. For ICB
    /// the first report's value is *minimal* over all failing executions
    /// (lexicographically in `(preemptions, faults)` when a fault bound
    /// is set).
    pub preemptions: usize,
    /// Number of injected faults in the failing execution (0 unless the
    /// search ran with a fault bound).
    pub faults: usize,
    /// 1-based index of the failing execution within the search.
    pub execution_index: usize,
    /// Length of the failing execution in steps.
    pub steps: usize,
}

/// A schedule prefix whose subtree the search forfeited because replay
/// diverged there (the program under test is not deterministic).
///
/// Quarantined prefixes are *not* bugs in the program's logic — they are
/// failures of the testing infrastructure's determinism contract. The
/// search skips the diverging subtree and keeps going; the final
/// [`SearchReport`] lists what was forfeited so coverage claims can be
/// qualified.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuarantinedTrace {
    /// The schedule prefix identifying the forfeited subtree.
    pub schedule: Schedule,
    /// The step index at which replay diverged.
    pub step: usize,
    /// The thread the recorded schedule expected to run.
    pub expected: Tid,
    /// The threads actually enabled at the diverging point.
    pub actual: Vec<Tid>,
}

/// Statistics for one completed preemption bound of ICB — or,
/// when a fault bound is set, one `(preemption, fault)` level of the
/// lexicographic grid (one row per level, identified by
/// `(bound, faults)`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BoundStats {
    /// The preemption bound these statistics describe.
    pub bound: usize,
    /// The fault level these statistics describe (0 in fault-free runs,
    /// where one row per preemption bound is emitted as before).
    pub faults: usize,
    /// Executions explored *at* this bound.
    pub executions: usize,
    /// Cumulative distinct states after completing this bound — the
    /// y-axis of Figures 1 and 4.
    pub cumulative_states: usize,
    /// Bugs first observed at this bound.
    pub bugs_found: usize,
}

/// Fingerprint-cache outcome of one search run (present only when a
/// cache was attached via [`Search::cache`](crate::search::Search)).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheSummary {
    /// Work items skipped because the cache already covered their
    /// `(state, next thread)` subtree.
    pub hits: usize,
    /// New `(state, next thread)` subtrees recorded.
    pub stores: usize,
    /// The cache pruned on *heuristic* (happens-before) fingerprints:
    /// the run is NOT exhaustive — a pruned subtree may have contained
    /// unvisited states. Always `false` for exact (explicit-state)
    /// fingerprints.
    pub heuristic: bool,
    /// The run was answered entirely from the certification ledger: a
    /// previous clean run already certified this program bug-free at
    /// the requested bound, so no executions were performed.
    pub certified: bool,
}

/// The result of running a search strategy.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SearchReport {
    /// Human-readable strategy label (`icb`, `dfs`, `db:40`, …).
    pub strategy: String,
    /// Executions performed.
    pub executions: usize,
    /// Distinct state fingerprints visited.
    pub distinct_states: usize,
    /// Cumulative distinct states after each execution (Figures 2/5/6).
    pub coverage_curve: Vec<(usize, usize)>,
    /// Bug reports, in discovery order (capped by
    /// [`SearchConfig::max_bug_reports`]).
    pub bugs: Vec<BugReport>,
    /// Total executions that ended in a bug.
    pub buggy_executions: usize,
    /// `true` if the schedule space was exhausted within the limits.
    pub completed: bool,
    /// Highest preemption bound fully explored (ICB only).
    pub completed_bound: Option<usize>,
    /// Per-bound statistics (ICB only).
    pub bound_history: Vec<BoundStats>,
    /// Pointwise maxima of the per-execution statistics (Table 1).
    pub max_stats: ExecStats,
    /// Work had to be dropped (queue cap) — coverage claims are lower
    /// bounds only.
    pub truncated: bool,
    /// Schedule prefixes whose subtrees were forfeited because replay
    /// diverged (capped like bug reports; see `quarantined_total` for
    /// the full count).
    pub quarantined: Vec<QuarantinedTrace>,
    /// Total number of quarantined (forfeited) subtrees.
    pub quarantined_total: usize,
    /// Executions abandoned by the per-execution wall-clock watchdog.
    pub watchdog_trips: usize,
    /// Fingerprint-cache outcome; `None` when no cache was attached.
    /// When `cache.heuristic` is set the search was NOT exhaustive even
    /// if `completed` is `true` — see [`CacheSummary::heuristic`].
    pub cache: Option<CacheSummary>,
}

impl SearchReport {
    /// The first (for ICB: minimal-preemption) bug, if any was found.
    pub fn first_bug(&self) -> Option<&BugReport> {
        self.bugs.first()
    }

    /// The per-bound statistics (ICB only) — the rows streamed
    /// through [`SearchObserver::bound_completed`](crate::telemetry::SearchObserver::bound_completed) during the search.
    pub fn bound_stats(&self) -> &[BoundStats] {
        &self.bound_history
    }
}

impl std::fmt::Display for SearchReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] {} executions, {} states",
            self.strategy, self.executions, self.distinct_states
        )?;
        if let Some(bound) = self.completed_bound {
            write!(f, ", bound {bound} complete")?;
        }
        if self.completed {
            write!(f, ", space exhausted")?;
        }
        if self.truncated {
            write!(f, ", TRUNCATED")?;
        }
        match self.buggy_executions {
            0 => write!(f, ", no bugs")?,
            n => {
                write!(f, ", {n} failing execution(s)")?;
                if let Some(bug) = self.first_bug() {
                    write!(
                        f,
                        "; first: {} ({} preemptions",
                        bug.outcome, bug.preemptions
                    )?;
                    // Stated only for faulted witnesses: fault-free
                    // reports stay byte-identical to older releases.
                    if bug.faults > 0 {
                        write!(f, ", {} faults", bug.faults)?;
                    }
                    write!(f, ")")?;
                }
            }
        }
        if self.quarantined_total > 0 {
            write!(
                f,
                ", {} subtree(s) quarantined (replay diverged; space forfeited)",
                self.quarantined_total
            )?;
        }
        if self.watchdog_trips > 0 {
            write!(f, ", {} watchdog trip(s)", self.watchdog_trips)?;
        }
        if let Some(cache) = &self.cache {
            if cache.certified {
                write!(f, ", CERTIFIED (answered from cache ledger)")?;
            } else {
                write!(
                    f,
                    ", cache: {} hit(s) / {} store(s)",
                    cache.hits, cache.stores
                )?;
            }
            if cache.heuristic {
                write!(f, ", HEURISTIC fingerprints (non-exhaustive)")?;
            }
        }
        Ok(())
    }
}

/// A fingerprint cache attached to one search run, resolved by the
/// session builder: the cache itself plus the exactness of the
/// program's fingerprints (heuristic pruning makes the run
/// non-exhaustive; the flag is carried into the report).
#[derive(Clone, Copy)]
pub(crate) struct CacheBinding<'c> {
    pub(crate) cache: &'c dyn ExplorationCache,
    pub(crate) heuristic: bool,
}

/// One attributed scheduling decision of a finished execution, extracted
/// from its trace: the site, the decision kind, and — for preemptions —
/// the victim's most recent site (`entry.current == entries[i-1].chosen`,
/// so the previous entry's site is the last op the preempted thread
/// executed).
#[derive(Clone, Copy, Debug)]
pub(crate) struct ChoiceEvent {
    pub(crate) site: SiteId,
    pub(crate) kind: ChoiceKind,
    pub(crate) victim: Option<SiteId>,
}

/// The injected faults of a finished execution, as `(site, step)` pairs
/// in step order.
pub(crate) fn fault_events(result: &ExecutionResult) -> Vec<(SiteId, usize)> {
    result
        .trace
        .entries()
        .iter()
        .enumerate()
        .filter(|(_, e)| e.fault)
        .map(|(i, e)| (e.site, i))
        .collect()
}

pub(crate) fn choice_events(result: &ExecutionResult) -> Vec<ChoiceEvent> {
    let entries = result.trace.entries();
    entries
        .iter()
        .enumerate()
        .map(|(i, entry)| {
            let kind = if entry.is_preemption() {
                ChoiceKind::Preemption
            } else if entry.is_context_switch() {
                ChoiceKind::Switch
            } else {
                ChoiceKind::Continue
            };
            let victim = (kind == ChoiceKind::Preemption).then(|| {
                i.checked_sub(1)
                    .map_or(SiteId::UNKNOWN, |p| entries[p].site)
            });
            ChoiceEvent {
                site: entry.site,
                kind,
                victim,
            }
        })
        .collect()
}

#[cfg(test)]
pub(crate) mod testprog;

#[cfg(test)]
mod config_tests {
    use super::*;
    use crate::search::testprog::Counters;
    use crate::telemetry::SearchObserver;

    #[test]
    fn display_summarizes_reports() {
        let p = Counters {
            n: 2,
            k: 2,
            bug: Some((1, 0, 1)),
        };
        let report = Search::over(&p)
            .config(SearchConfig::default())
            .run()
            .unwrap();
        let text = report.to_string();
        assert!(text.starts_with("[icb]"), "{text}");
        assert!(text.contains("executions"), "{text}");
        assert!(text.contains("failing execution"), "{text}");
        assert!(text.contains("preemptions"), "{text}");
    }

    #[test]
    fn clean_report_displays_no_bugs() {
        let p = Counters {
            n: 2,
            k: 2,
            bug: None,
        };
        let report = Search::over(&p)
            .config(SearchConfig::default())
            .run()
            .unwrap();
        let text = report.to_string();
        assert!(text.contains("no bugs"), "{text}");
        assert!(text.contains("space exhausted"), "{text}");
    }

    #[test]
    fn choice_points_batch_per_execution_and_count_preemptions() {
        use crate::telemetry::{ChoiceKind, SiteId};

        #[derive(Default)]
        struct Counting {
            choices: usize,
            preemptions: usize,
            max_bound: usize,
            open_execution: bool,
            out_of_band: bool,
        }
        impl SearchObserver for Counting {
            fn wants_choice_points(&self) -> bool {
                true
            }
            fn execution_started(&mut self, _index: usize) {
                self.open_execution = true;
            }
            fn execution_finished(
                &mut self,
                _index: usize,
                _stats: &ExecStats,
                _outcome: &ExecutionOutcome,
                _distinct_states: usize,
            ) {
                self.open_execution = false;
            }
            fn choice_point(&mut self, _site: SiteId, bound: usize, kind: ChoiceKind) {
                self.choices += 1;
                self.max_bound = self.max_bound.max(bound);
                self.out_of_band |= !self.open_execution;
                if kind == ChoiceKind::Preemption {
                    // `preemption_taken` must follow; counted there.
                }
            }
            fn preemption_taken(&mut self, _site: SiteId) {
                self.preemptions += 1;
                self.out_of_band |= !self.open_execution;
            }
        }

        let p = Counters {
            n: 2,
            k: 2,
            bug: None,
        };
        let mut obs = Counting::default();
        let report = Search::over(&p)
            .config(SearchConfig::default())
            .observer(&mut obs)
            .run()
            .unwrap();
        // One choice_point per step of every execution: 6 executions
        // of 4 steps each for the 2×2 counter program.
        assert_eq!(obs.choices, report.executions * 4);
        // Preemption events across the whole search equal the per-bound
        // totals: bounds 0/1/2 contribute 0, 2·1 and 2·2 preemptions.
        assert_eq!(obs.preemptions, 6);
        assert_eq!(obs.max_bound, 2, "bound attribution follows ICB's bounds");
        assert!(
            !obs.out_of_band,
            "attributed events arrive inside an open execution"
        );
    }

    #[test]
    fn choice_points_are_not_emitted_unrequested() {
        #[derive(Default)]
        struct Refusing {
            attributed: usize,
        }
        impl SearchObserver for Refusing {
            fn choice_point(
                &mut self,
                _site: crate::telemetry::SiteId,
                _bound: usize,
                _kind: crate::telemetry::ChoiceKind,
            ) {
                self.attributed += 1;
            }
            fn preemption_taken(&mut self, _site: crate::telemetry::SiteId) {
                self.attributed += 1;
            }
        }
        let p = Counters {
            n: 2,
            k: 2,
            bug: None,
        };
        let mut obs = Refusing::default();
        Search::over(&p)
            .config(SearchConfig::default())
            .observer(&mut obs)
            .run()
            .unwrap();
        assert_eq!(obs.attributed, 0, "gate defaults to off");
    }
}
