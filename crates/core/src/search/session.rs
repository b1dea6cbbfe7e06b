//! The search session API.
//!
//! [`Search`] is the one public entry point for running any strategy: a
//! single builder that validates its configuration up front (returning
//! a typed [`SearchError`] instead of panicking) and runs the strategy
//! through the one driver — inline on the calling thread at
//! `jobs == 1`, on a worker pool at `jobs > 1`.
//!
//! ```text
//! Search::over(&program)
//!     .strategy(Strategy::Icb)
//!     .config(SearchConfig::with_max_executions(10_000))
//!     .jobs(4)
//!     .run()?
//! ```
//!
//! # Determinism contract
//!
//! * `jobs == 1` keeps exploration order: bugs are numbered in
//!   discovery order, the coverage curve has a point per execution, and
//!   the first bug halts at once.
//! * Any `jobs >= 2` produces the *same* [`SearchReport`] as any other
//!   `jobs >= 2` — worker count and timing only affect wall-clock.
//!   Bugs are merged by minimal `(preemptions, faults)`, then
//!   lexicographic schedule; coverage and per-bound statistics are
//!   synchronized at bound barriers.
//! * `jobs == 1` vs `jobs >= 2` agree on every order-*independent*
//!   field (executions, distinct states, bound history, bug schedules);
//!   execution *numbering* of individual bug reports may differ because
//!   the parallel merge renumbers canonically. Random walk `i` draws
//!   from its own seed-derived stream at every job count, so random
//!   searches agree the same way.

use std::sync::Arc;
use std::time::Duration;

use crate::cache::{Certification, ExplorationCache};
use crate::metrics::MetricsRegistry;
use crate::program::ControlledProgram;
use crate::search::bestfirst::run_best_first;
use crate::search::dfs::run_idfs;
use crate::search::driver::{explore, start, Crew, Node};
use crate::search::icb::{run_icb, Tree};
use crate::search::ledger::Ledger;
use crate::search::random::Walks;
use crate::search::{CacheBinding, CacheSummary, SearchConfig, SearchReport};
use crate::snapshot::{Checkpointer, SearchSnapshot, StrategyState};
use crate::telemetry::{NoopObserver, SearchObserver};

/// Which search algorithm a [`Search`] session runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Iterative context bounding (the paper's Algorithm 1). The
    /// default.
    #[default]
    Icb,
    /// Unbounded depth-first search (`dfs`).
    Dfs,
    /// Depth-bounded DFS (`db:N`).
    DepthBounded(usize),
    /// Iterative deepening DFS (`idfs`). Sequential only.
    IterativeDeepening {
        /// Initial depth bound.
        start: usize,
        /// Bound increment per iteration (must be positive).
        step: usize,
        /// Final depth bound.
        max: usize,
    },
    /// Seeded uniform random walk (`random`). Requires an execution
    /// budget.
    Random {
        /// RNG seed.
        seed: u64,
    },
    /// Coverage-guided best-first search. Sequential only; requires an
    /// execution budget.
    BestFirst,
}

impl Strategy {
    /// The strategy's report label (`SearchReport::strategy`), matching
    /// the paper's naming: `icb`, `dfs`, `db:N`, `idfs-MAX`, `random`,
    /// `best-first`.
    pub fn label(&self) -> String {
        match self {
            Strategy::Icb => "icb".to_string(),
            Strategy::Dfs => "dfs".to_string(),
            Strategy::DepthBounded(b) => format!("db:{b}"),
            Strategy::IterativeDeepening { max, .. } => format!("idfs-{max}"),
            Strategy::Random { .. } => "random".to_string(),
            Strategy::BestFirst => "best-first".to_string(),
        }
    }
}

/// A configuration rejected by [`Search::run`] before any execution.
#[derive(Debug)]
pub enum SearchError {
    /// `jobs(0)` — there must be at least one worker.
    ZeroJobs,
    /// `max_duration` of zero — the search could never run an execution.
    ZeroDuration,
    /// A [`Checkpointer`] with a checkpoint interval of zero executions.
    ZeroCheckpointInterval,
    /// The strategy requires `max_executions` (random and best-first
    /// never exhaust the schedule space on their own).
    MissingBudget,
    /// The requested combination is not supported (e.g. `jobs > 1` for a
    /// sequential-only strategy); the message says what and why.
    Unsupported(String),
}

impl std::fmt::Display for SearchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SearchError::ZeroJobs => write!(f, "jobs must be at least 1"),
            SearchError::ZeroDuration => {
                write!(f, "max_duration of zero would never run an execution")
            }
            SearchError::ZeroCheckpointInterval => {
                write!(f, "checkpoint interval must be at least 1 execution")
            }
            SearchError::MissingBudget => {
                write!(
                    f,
                    "this strategy requires an execution budget (max_executions)"
                )
            }
            SearchError::Unsupported(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for SearchError {}

/// A search session over one program: strategy, configuration, worker
/// count, telemetry, checkpointing and resume, behind a single `run`.
///
/// # Example
///
/// ```
/// # use icb_core::{ControlledProgram, Decisions, NextOp, Scheduler, StateSink,
/// #                ExecutionResult, ExecutionOutcome, Tid};
/// # struct Toy;
/// # impl ControlledProgram for Toy {
/// #     fn execute(&self, sched: &mut dyn Scheduler, _sink: &mut dyn StateSink)
/// #         -> ExecutionResult
/// #     {
/// #         let mut done = [false, false];
/// #         let mut decisions = Decisions::new(sched);
/// #         loop {
/// #             let enabled: Vec<Tid> = (0..2)
/// #                 .filter(|&i| !done[i]).map(Tid).collect();
/// #             if enabled.is_empty() { break; }
/// #             let (chosen, _) = decisions.next(enabled, |_| NextOp::default());
/// #             done[chosen.index()] = true;
/// #         }
/// #         decisions.finish(ExecutionOutcome::Terminated)
/// #     }
/// # }
/// use icb_core::search::{Search, SearchConfig, Strategy};
///
/// // Sequential ICB with the default configuration:
/// let report = Search::over(&Toy).run()?;
/// assert!(report.completed);
///
/// // The same search sharded over two workers — the report's
/// // order-independent fields are identical:
/// let parallel = Search::over(&Toy)
///     .strategy(Strategy::Icb)
///     .jobs(2)
///     .run()?;
/// assert_eq!(parallel.executions, report.executions);
/// assert_eq!(parallel.distinct_states, report.distinct_states);
///
/// // Invalid configurations fail up front with a typed error:
/// assert!(Search::over(&Toy).jobs(0).run().is_err());
///
/// // A budgeted random walk:
/// let walk = Search::over(&Toy)
///     .strategy(Strategy::Random { seed: 7 })
///     .config(SearchConfig::with_max_executions(10))
///     .run()?;
/// assert_eq!(walk.executions, 10);
/// # Ok::<(), icb_core::search::SearchError>(())
/// ```
///
/// Resume takes the strategy from the snapshot itself: any
/// `strategy(..)` set alongside `resume_from` is ignored.
pub struct Search<'a> {
    program: &'a (dyn ControlledProgram + Sync),
    strategy: Strategy,
    config: SearchConfig,
    jobs: usize,
    observer: Option<&'a mut dyn SearchObserver>,
    checkpoint: Option<Checkpointer>,
    resume: Option<SearchSnapshot>,
    cache: Option<&'a dyn ExplorationCache>,
    cache_heuristic: bool,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl std::fmt::Debug for Search<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Search")
            .field("strategy", &self.strategy)
            .field("config", &self.config)
            .field("jobs", &self.jobs)
            .field("observed", &self.observer.is_some())
            .field("checkpointed", &self.checkpoint.is_some())
            .field("resuming", &self.resume.is_some())
            .field("cached", &self.cache.is_some())
            .field("metered", &self.metrics.is_some())
            .finish()
    }
}

impl<'a> Search<'a> {
    /// Starts building a search session over `program`.
    ///
    /// The program must be `Sync` because `jobs > 1` shares it across
    /// worker threads; [`ControlledProgram`] implementations take
    /// `&self`, so this is the natural bound and every in-repo host
    /// already satisfies it.
    pub fn over(program: &'a (dyn ControlledProgram + Sync)) -> Self {
        Search {
            program,
            strategy: Strategy::default(),
            config: SearchConfig::default(),
            jobs: 1,
            observer: None,
            checkpoint: None,
            resume: None,
            cache: None,
            cache_heuristic: false,
            metrics: None,
        }
    }

    /// Selects the strategy (default: [`Strategy::Icb`]). Ignored when
    /// [`resume_from`](Search::resume_from) is set — the snapshot knows
    /// its own strategy.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the search configuration (bounds, budgets, deadline).
    /// Ignored when resuming — the snapshot carries the original run's
    /// configuration.
    pub fn config(mut self, config: SearchConfig) -> Self {
        self.config = config;
        self
    }

    /// Shards the search over `jobs` worker threads (default 1). At 1
    /// the worker loop runs inline on the calling thread; above 1 each
    /// worker owns
    /// its own engine and race detector, pulling work items from a
    /// shared [`Frontier`](crate::search::Frontier) with work-stealing
    /// rebalance, and results are merged deterministically.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Streams telemetry events to `observer` during the run.
    pub fn observer(mut self, observer: &'a mut dyn SearchObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Writes crash-resumable snapshots through `checkpointer`
    /// periodically and at every abort. A parallel search quiesces its
    /// workers first, so the snapshot is always the complete set of
    /// unexplored work — resumable at *any* `jobs` count.
    pub fn checkpoint(mut self, checkpointer: Checkpointer) -> Self {
        self.checkpoint = Some(checkpointer);
        self
    }

    /// Resumes from a snapshot instead of starting fresh. The strategy
    /// and configuration stored in the snapshot take precedence over
    /// [`strategy`](Search::strategy) / [`config`](Search::config).
    ///
    /// A checkpoint written at any `jobs` count resumes at any other.
    pub fn resume_from(mut self, snapshot: SearchSnapshot) -> Self {
        self.resume = Some(snapshot);
        self
    }

    /// Attaches a state-fingerprint cache (see
    /// [`ExplorationCache`]): work items whose `(state, next thread)`
    /// subtree the cache already covers are pruned instead of explored,
    /// and a certification-ledger hit skips the whole search.
    ///
    /// Supported for [`Strategy::Icb`] at any `jobs` count and for
    /// unbounded [`Strategy::Dfs`] at `jobs == 1`; other combinations
    /// are rejected up front. Programs whose fingerprints are not exact
    /// (see [`ControlledProgram::fingerprints_are_exact`]) additionally
    /// require [`cache_heuristic`](Search::cache_heuristic).
    pub fn cache(mut self, cache: &'a dyn ExplorationCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Opts in to cache pruning on *heuristic* (happens-before)
    /// fingerprints. Pruned subtrees may then contain unvisited states:
    /// the run is no longer exhaustive, and the report (and its JSONL
    /// stream) is flagged accordingly. No effect on programs with exact
    /// fingerprints.
    pub fn cache_heuristic(mut self, opt_in: bool) -> Self {
        self.cache_heuristic = opt_in;
        self
    }

    /// Attaches a live [`MetricsRegistry`]: the search's ledger updates
    /// it next to every event it emits (and emits `metrics_snapshot`
    /// after each completed bound, after each checkpoint and before
    /// `search_finished`), the worker pool's workers, pump and
    /// [`Frontier`](crate::search::Frontier) feed it their own counters,
    /// and the exploration cache its table probes. Any thread holding a
    /// clone of the `Arc` — a scrape endpoint, a status board — can read
    /// the counters while the search runs.
    pub fn metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Validates the session and runs it to completion, returning the
    /// merged report.
    ///
    /// Validation happens before the first execution: see
    /// [`SearchError`] for the rejected configurations.
    pub fn run(self) -> Result<SearchReport, SearchError> {
        let Search {
            program,
            strategy,
            config,
            jobs,
            observer,
            mut checkpoint,
            resume,
            cache,
            cache_heuristic,
            metrics,
        } = self;
        // A snapshot carries its own strategy and configuration.
        let (strategy, config) = match &resume {
            Some(snapshot) => (
                match snapshot.state {
                    StrategyState::Icb(_) => Strategy::Icb,
                    StrategyState::Dfs { depth_bound, .. } => {
                        depth_bound.map_or(Strategy::Dfs, Strategy::DepthBounded)
                    }
                    StrategyState::Random { seed, .. } => Strategy::Random { seed },
                },
                snapshot.config.clone(),
            ),
            None => (strategy, config),
        };
        validate(strategy, &config, jobs, checkpoint.as_ref())?;
        let binding = match cache {
            None => None,
            Some(cache) => {
                let supported = matches!(strategy, Strategy::Icb)
                    || (matches!(strategy, Strategy::Dfs) && jobs == 1);
                if !supported {
                    return Err(SearchError::Unsupported(format!(
                        "a fingerprint cache is supported for strategy `icb` (any jobs) and \
                         unbounded `dfs` at jobs = 1; got strategy `{}` with jobs = {jobs}. \
                         Depth-bounded and sampling searches cannot claim subtree coverage, so \
                         caching them would be unsound",
                        strategy.label()
                    )));
                }
                let heuristic = !program.fingerprints_are_exact();
                if heuristic && !cache_heuristic {
                    return Err(SearchError::Unsupported(
                        "this program's state fingerprints are heuristic (happens-before \
                         hashes): cache pruning could silently skip unvisited states. Opt in \
                         with cache_heuristic(true) to run a flagged, non-exhaustive search"
                            .to_string(),
                    ));
                }
                Some(CacheBinding { cache, heuristic })
            }
        };
        let mut noop = NoopObserver;
        let observer: &mut dyn SearchObserver = match observer {
            Some(o) => o,
            None => &mut noop,
        };
        if let Some(registry) = &metrics {
            // The ledger feeds the registry from the event stream; the
            // worker pool and the cache feed the counters no event
            // carries.
            registry.set_workers(jobs);
            if let Some(binding) = &binding {
                binding.cache.attach_metrics(registry);
            }
        }
        let label = strategy.label();
        let target = match strategy {
            Strategy::Icb => config.preemption_bound,
            _ => None,
        };
        let fault_bound = config.fault_bound;
        let mut ledger = Ledger::new(
            label.clone(),
            config,
            jobs > 1,
            matches!(strategy, Strategy::Icb),
            observer,
            checkpoint.as_mut(),
            metrics.clone(),
        );

        // Certification fast path: a previous clean run already proved
        // this search's claim — answer from the ledger without running.
        let certified = binding.filter(|_| resume.is_none()).and_then(|b| {
            let cert = b.cache.find_certification(&label, target, fault_bound)?;
            Some((b, cert))
        });
        if let Some((binding, cert)) = certified {
            let report = SearchReport {
                strategy: label,
                distinct_states: cert.distinct_states,
                completed: cert.bound.is_none(),
                completed_bound: match strategy {
                    Strategy::Icb => target.or(cert.bound),
                    _ => None,
                },
                cache: Some(CacheSummary {
                    heuristic: binding.heuristic,
                    certified: true,
                    ..CacheSummary::default()
                }),
                ..SearchReport::default()
            };
            return Ok(ledger.certified(cert.bound, report));
        }

        let state = resume.map(|snapshot| ledger.resume(snapshot));
        if let Some(binding) = &binding {
            // After the restore: idempotent there, since a snapshot
            // taken with the cache attached already holds the seeds.
            ledger.attach_cache(binding.heuristic, &binding.cache.seed_states());
        }
        let crew = Crew::new(jobs, program, metrics);
        let cache = binding.as_ref().map(|b| b.cache);
        let completed = match strategy {
            Strategy::Icb => {
                let work = start::<Tree>(state, [Node::default()]);
                run_icb(program, cache, work, &mut ledger, &crew)
            }
            Strategy::Dfs | Strategy::DepthBounded(_) => {
                let depth_bound = match strategy {
                    Strategy::DepthBounded(b) => Some(b),
                    _ => None,
                };
                let dfs = Tree::dfs(program, depth_bound, cache);
                explore(
                    &dfs,
                    start::<Tree>(state, [Node::default()]),
                    &mut ledger,
                    &crew,
                )
            }
            Strategy::Random { seed } => {
                let walks = Walks {
                    program,
                    seed,
                    cost: program.executions_per_run().max(1) as u64,
                };
                let budget = ledger.remaining_budget() as u64;
                let roots = (budget > 0).then_some(0..budget);
                explore(&walks, start::<Walks>(state, roots), &mut ledger, &crew)
            }
            Strategy::IterativeDeepening {
                start: first,
                step,
                max,
            } => run_idfs(program, (first, step, max), &mut ledger, &crew),
            Strategy::BestFirst => run_best_first(program, &mut ledger),
        };
        let report = ledger.into_report(completed);
        if let Some(binding) = &binding {
            maybe_certify(binding, target, fault_bound, &report);
        }
        Ok(report)
    }
}

/// Rejects a configuration the strategies cannot run, before any
/// execution.
fn validate(
    strategy: Strategy,
    config: &SearchConfig,
    jobs: usize,
    checkpoint: Option<&Checkpointer>,
) -> Result<(), SearchError> {
    let unsupported = |msg: &str| Err(SearchError::Unsupported(msg.to_string()));
    if jobs == 0 {
        return Err(SearchError::ZeroJobs);
    }
    if config.max_duration == Some(Duration::ZERO) {
        return Err(SearchError::ZeroDuration);
    }
    if checkpoint.is_some_and(|ck| ck.every() == 0) {
        return Err(SearchError::ZeroCheckpointInterval);
    }
    if config.fault_bound > 0 && strategy != Strategy::Icb {
        return Err(SearchError::Unsupported(format!(
            "a fault bound composes with the iterative preemption bound and is only \
             supported for strategy `icb`; got strategy `{}` with fault_bound = {}",
            strategy.label(),
            config.fault_bound
        )));
    }
    match strategy {
        Strategy::Random { .. } | Strategy::BestFirst if config.max_executions.is_none() => {
            Err(SearchError::MissingBudget)
        }
        Strategy::IterativeDeepening { step: 0, .. } => {
            unsupported("iterative deepening requires a positive step")
        }
        Strategy::IterativeDeepening { .. } if jobs > 1 => unsupported(
            "iterative deepening re-explores shallow prefixes per iteration and does not \
             support jobs > 1",
        ),
        Strategy::IterativeDeepening { .. } if checkpoint.is_some() => {
            unsupported("iterative deepening does not support checkpointing")
        }
        Strategy::BestFirst if jobs > 1 => unsupported(
            "best-first search orders its frontier globally and does not support jobs > 1",
        ),
        Strategy::BestFirst if checkpoint.is_some() => {
            unsupported("best-first search does not support checkpointing")
        }
        _ => Ok(()),
    }
}

/// Records a certification after a run that proved its claim cleanly:
/// exact fingerprints, no bugs, nothing truncated, forfeited or
/// abandoned. `completed` certifies exhaustion (`bound: None`); an ICB
/// run that ran its target preemption bound `n` to the end certifies
/// `bound: n`.
///
/// `certify` is also the cache's signal that every subtree recorded
/// this run was fully explored (persistence gate), so a run that was
/// cut short mid-bound — budget, deadline, interrupt — must NOT
/// certify, even though its last *completed* bound would be a sound
/// claim on its own.
fn maybe_certify(
    binding: &CacheBinding<'_>,
    target: Option<usize>,
    fault_bound: usize,
    report: &SearchReport,
) {
    if binding.heuristic
        || report.buggy_executions > 0
        || !report.bugs.is_empty()
        || report.truncated
        || report.quarantined_total > 0
        || report.watchdog_trips > 0
        || report.cache.as_ref().is_some_and(|c| c.certified)
    {
        return;
    }
    let bound = if report.completed {
        None
    } else if target.is_some() && report.completed_bound == target {
        target
    } else {
        return;
    };
    binding.cache.certify(Certification {
        strategy: report.strategy.clone(),
        bound,
        fault_bound,
        executions: report.executions,
        distinct_states: report.distinct_states,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::testprog::Counters;

    fn toy() -> Counters {
        Counters {
            n: 2,
            k: 2,
            bug: None,
        }
    }

    #[test]
    fn zero_jobs_rejected() {
        let err = Search::over(&toy()).jobs(0).run().unwrap_err();
        assert!(matches!(err, SearchError::ZeroJobs));
    }

    #[test]
    fn zero_duration_rejected() {
        let err = Search::over(&toy())
            .config(SearchConfig {
                max_duration: Some(Duration::ZERO),
                ..SearchConfig::default()
            })
            .run()
            .unwrap_err();
        assert!(matches!(err, SearchError::ZeroDuration));
    }

    #[test]
    fn zero_checkpoint_interval_rejected() {
        let ck = Checkpointer::new(std::env::temp_dir().join("session-zero-ck.bin"), 0);
        let err = Search::over(&toy()).checkpoint(ck).run().unwrap_err();
        assert!(matches!(err, SearchError::ZeroCheckpointInterval));
    }

    #[test]
    fn random_without_budget_rejected() {
        let err = Search::over(&toy())
            .strategy(Strategy::Random { seed: 1 })
            .config(SearchConfig {
                max_executions: None,
                ..SearchConfig::default()
            })
            .run()
            .unwrap_err();
        assert!(matches!(err, SearchError::MissingBudget));
    }

    #[test]
    fn sequential_only_strategies_reject_jobs() {
        let err = Search::over(&toy())
            .strategy(Strategy::BestFirst)
            .config(SearchConfig::with_max_executions(10))
            .jobs(2)
            .run()
            .unwrap_err();
        assert!(matches!(err, SearchError::Unsupported(_)));
        let err = Search::over(&toy())
            .strategy(Strategy::IterativeDeepening {
                start: 1,
                step: 1,
                max: 4,
            })
            .jobs(2)
            .run()
            .unwrap_err();
        assert!(matches!(err, SearchError::Unsupported(_)));
    }

    #[test]
    fn parallel_icb_matches_sequential_on_order_independent_fields() {
        let p = Counters {
            n: 2,
            k: 3,
            bug: Some((1, 0, 1)),
        };
        let seq = Search::over(&p).run().unwrap();
        let par = Search::over(&p).jobs(4).run().unwrap();
        assert_eq!(par.executions, seq.executions);
        assert_eq!(par.distinct_states, seq.distinct_states);
        assert_eq!(par.buggy_executions, seq.buggy_executions);
        assert_eq!(par.bound_history, seq.bound_history);
        assert_eq!(par.completed, seq.completed);
        let seq_bugs: Vec<_> = seq.bugs.iter().map(|b| &b.schedule).collect();
        let par_bugs: Vec<_> = par.bugs.iter().map(|b| &b.schedule).collect();
        assert_eq!(par_bugs, seq_bugs);
    }

    #[test]
    fn strategy_labels() {
        assert_eq!(Strategy::Icb.label(), "icb");
        assert_eq!(Strategy::DepthBounded(6).label(), "db:6");
        assert_eq!(
            Strategy::IterativeDeepening {
                start: 2,
                step: 2,
                max: 8
            }
            .label(),
            "idfs-8"
        );
    }
}
