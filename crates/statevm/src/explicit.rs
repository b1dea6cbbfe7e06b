//! Explicit-state model checking with state caching — the ZING side of
//! the paper's evaluation.
//!
//! [`ExplicitIcb`] is Algorithm 1 *verbatim*: two queues of
//! `WorkItem { state, tid }`, a recursive `Search` that follows the
//! current thread while it stays enabled and defers every preempting
//! alternative to the next queue, plus the optional `table` of visited
//! work items that prunes revisits (the state-caching extension the paper
//! describes at the end of Section 3).
//!
//! [`reachable_states`] computes the full reachable state space by plain
//! BFS — the denominator of the "% state space covered" axes of
//! Figures 1 and 4.

use std::collections::{HashSet, VecDeque};

use icb_core::Tid;

use crate::model::{Model, StepError, VmState};

/// Safety valve on the number of `Search` invocations (work items) in
/// one run; a run that reaches it stops with `completed == false`.
const MAX_WORK: usize = 50_000_000;

/// Configuration for the explicit-state ICB search.
#[derive(Clone, Debug)]
pub struct ExplicitConfig {
    /// Stop after completing this preemption bound (`None` = run until
    /// the queues drain).
    pub preemption_bound: Option<usize>,
    /// Use the visited-work-item table (state caching). Disabling it
    /// reproduces the stateless exploration order at explicit-state
    /// prices — only useful for cross-validation on tiny models.
    pub state_caching: bool,
    /// Stop at the first assertion failure.
    pub stop_on_first_bug: bool,
}

impl Default for ExplicitConfig {
    fn default() -> Self {
        ExplicitConfig {
            preemption_bound: None,
            state_caching: true,
            stop_on_first_bug: false,
        }
    }
}

/// A bug found by the explicit-state search.
#[derive(Clone, Debug)]
pub struct ExplicitBug {
    /// The failing thread.
    pub thread: Tid,
    /// The assertion (or model-error) message.
    pub message: String,
    /// The preemption bound at which the bug was first reached — by the
    /// iteration order of Algorithm 1, the minimal number of preemptions
    /// needed to expose it.
    pub bound: usize,
    /// A witness schedule from the initial state.
    pub schedule: Vec<Tid>,
}

/// Per-bound statistics of the explicit search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExplicitBoundStats {
    /// The completed preemption bound.
    pub bound: usize,
    /// Cumulative distinct *states* visited after this bound.
    pub cumulative_states: usize,
    /// Work items processed at this bound.
    pub work_items: usize,
}

/// Result of an [`ExplicitIcb`] run.
#[derive(Clone, Debug, Default)]
pub struct ExplicitReport {
    /// Distinct states visited.
    pub distinct_states: usize,
    /// Statistics per completed bound (the data behind Figures 1 and 4).
    pub bound_history: Vec<ExplicitBoundStats>,
    /// Highest fully completed bound.
    pub completed_bound: Option<usize>,
    /// `true` if the search drained both queues (full exploration).
    pub completed: bool,
    /// Bugs, in discovery order (hence sorted by bound).
    pub bugs: Vec<ExplicitBug>,
    /// Total work items processed.
    pub work_items: usize,
}

/// Algorithm 1 with optional state caching over a [`Model`].
#[derive(Clone, Debug, Default)]
pub struct ExplicitIcb {
    config: ExplicitConfig,
}

struct WorkItem {
    state: VmState,
    tid: Tid,
    /// Witness schedule reaching `state` (first discovery).
    path: Vec<Tid>,
}

impl ExplicitIcb {
    /// Creates the search.
    pub fn new(config: ExplicitConfig) -> Self {
        ExplicitIcb { config }
    }

    /// Runs the search on `model`.
    ///
    /// # Panics
    ///
    /// Panics if the model's initial state cannot be constructed (an
    /// assertion fails before any shared access — a model bug).
    pub fn run(&self, model: &Model) -> ExplicitReport {
        let initial = model
            .initial_state()
            .expect("initial state must be constructible");

        let mut search = SearchState {
            model,
            config: &self.config,
            table: HashSet::new(),
            states: HashSet::new(),
            next_queue: VecDeque::new(),
            bugs: Vec::new(),
            work_items: 0,
            bound: 0,
            stop: false,
        };
        search.states.insert(initial.fingerprint());

        let mut queue: VecDeque<WorkItem> = model
            .enabled_set(&initial)
            .into_iter()
            .map(|tid| WorkItem {
                state: initial.clone(),
                tid,
                path: Vec::new(),
            })
            .collect();

        let mut report = ExplicitReport::default();
        loop {
            let items_before = search.work_items;
            while let Some(w) = queue.pop_front() {
                search.search(w);
                if search.stop {
                    break;
                }
            }
            if search.stop {
                break;
            }
            report.bound_history.push(ExplicitBoundStats {
                bound: search.bound,
                cumulative_states: search.states.len(),
                work_items: search.work_items - items_before,
            });
            report.completed_bound = Some(search.bound);
            if search.next_queue.is_empty() {
                report.completed = true;
                break;
            }
            if self
                .config
                .preemption_bound
                .is_some_and(|pb| search.bound >= pb)
            {
                break;
            }
            search.bound += 1;
            queue = std::mem::take(&mut search.next_queue);
        }

        report.distinct_states = search.states.len();
        report.bugs = search.bugs;
        report.work_items = search.work_items;
        report
    }
}

struct SearchState<'a> {
    model: &'a Model,
    config: &'a ExplicitConfig,
    /// Visited `(state, tid)` work items (the paper's `table`).
    table: HashSet<(u64, Tid)>,
    /// Visited state fingerprints (coverage).
    states: HashSet<u64>,
    next_queue: VecDeque<WorkItem>,
    bugs: Vec<ExplicitBug>,
    work_items: usize,
    bound: usize,
    stop: bool,
}

impl SearchState<'_> {
    /// Lines 22–39 of Algorithm 1 (iterative formulation to keep the
    /// stack shallow: the "continue current thread" recursion is a
    /// loop; only nonpreempting branching recurses).
    fn search(&mut self, w: WorkItem) {
        let mut stack = vec![w];
        while let Some(w) = stack.pop() {
            if self.stop {
                return;
            }
            if self.config.state_caching {
                let key = (w.state.fingerprint(), w.tid);
                if !self.table.insert(key) {
                    continue;
                }
            }
            self.work_items += 1;
            if self.work_items >= MAX_WORK {
                self.stop = true;
                return;
            }

            let mut path = w.path;
            path.push(w.tid);
            let state = match self.model.step(&w.state, w.tid) {
                Ok(s) => s,
                Err(e) => {
                    self.record_bug(e, path);
                    continue;
                }
            };
            self.states.insert(state.fingerprint());

            if self.model.enabled(&state, w.tid) {
                // The current thread continues; all others cost a
                // preemption and go to the next queue.
                for t in self.model.enabled_set(&state) {
                    if t != w.tid {
                        self.next_queue.push_back(WorkItem {
                            state: state.clone(),
                            tid: t,
                            path: path.clone(),
                        });
                    }
                }
                stack.push(WorkItem {
                    state,
                    tid: w.tid,
                    path,
                });
            } else {
                // Nonpreempting switch: explore every enabled thread now.
                for t in self.model.enabled_set(&state) {
                    stack.push(WorkItem {
                        state: state.clone(),
                        tid: t,
                        path: path.clone(),
                    });
                }
            }
        }
    }

    fn record_bug(&mut self, e: StepError, path: Vec<Tid>) {
        self.bugs.push(ExplicitBug {
            thread: e.thread(),
            message: e.message(),
            bound: self.bound,
            schedule: path,
        });
        if self.config.stop_on_first_bug {
            self.stop = true;
        }
    }
}

/// The number of reachable states of `model` (plain BFS over all
/// interleavings), the denominator for coverage percentages.
///
/// # Panics
///
/// Panics if the model's initial state cannot be constructed, or if the
/// state space exceeds `max_states`.
pub fn reachable_states(model: &Model, max_states: usize) -> usize {
    let initial = model
        .initial_state()
        .expect("initial state must be constructible");
    let mut seen: HashSet<VmState> = HashSet::new();
    let mut queue = VecDeque::new();
    seen.insert(initial.clone());
    queue.push_back(initial);
    while let Some(state) = queue.pop_front() {
        for tid in model.enabled_set(&state) {
            if let Ok(next) = model.step(&state, tid) {
                if seen.insert(next.clone()) {
                    assert!(
                        seen.len() <= max_states,
                        "state space exceeds {max_states} states"
                    );
                    queue.push_back(next);
                }
            }
        }
    }
    seen.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModelBuilder;
    use icb_core::search::{Search, SearchConfig};

    fn two_increments() -> Model {
        let mut m = ModelBuilder::new();
        let g = m.global("g", 0);
        for _ in 0..2 {
            m.thread("inc", |t| {
                let tmp = t.local();
                t.load(g, tmp);
                t.store(g, tmp + 1);
            });
        }
        m.build()
    }

    #[test]
    fn explicit_icb_covers_all_reachable_states() {
        let model = two_increments();
        let report = ExplicitIcb::new(ExplicitConfig::default()).run(&model);
        assert!(report.completed);
        let total = reachable_states(&model, 1_000_000);
        assert_eq!(report.distinct_states, total);
    }

    #[test]
    fn explicit_and_stateless_agree_on_state_counts() {
        let model = two_increments();
        let explicit = ExplicitIcb::new(ExplicitConfig::default()).run(&model);
        let stateless = Search::over(&model)
            .config(SearchConfig::default())
            .run()
            .unwrap();
        assert!(explicit.completed && stateless.completed);
        assert_eq!(explicit.distinct_states, stateless.distinct_states);
    }

    #[test]
    fn coverage_is_monotone_in_the_bound() {
        let model = two_increments();
        let report = ExplicitIcb::new(ExplicitConfig::default()).run(&model);
        let mut prev = 0;
        for b in &report.bound_history {
            assert!(b.cumulative_states >= prev);
            prev = b.cumulative_states;
        }
        assert_eq!(prev, report.distinct_states);
    }

    #[test]
    fn caching_prunes_work() {
        let model = two_increments();
        let cached = ExplicitIcb::new(ExplicitConfig::default()).run(&model);
        let uncached = ExplicitIcb::new(ExplicitConfig {
            state_caching: false,
            ..ExplicitConfig::default()
        })
        .run(&model);
        assert!(cached.completed && uncached.completed);
        assert_eq!(cached.distinct_states, uncached.distinct_states);
        assert!(cached.work_items <= uncached.work_items);
    }

    #[test]
    fn bug_bound_is_minimal() {
        // Assertion fails iff the two increments interleave (lost
        // update): requires exactly 1 preemption.
        let model = crate::lost_update();
        let report = ExplicitIcb::new(ExplicitConfig {
            stop_on_first_bug: true,
            ..ExplicitConfig::default()
        })
        .run(&model);
        let bug = report.bugs.first().expect("bug found");
        assert_eq!(bug.bound, 1);
        assert_eq!(bug.message, "lost update");
        // The witness schedule must replay to the same failure in the
        // stateless adapter.
        let sched: icb_core::Schedule = bug.schedule.iter().copied().collect();
        let mut replay = icb_core::ReplayScheduler::new(sched);
        let r = icb_core::ControlledProgram::execute(&model, &mut replay, &mut icb_core::NullSink);
        assert!(matches!(
            r.outcome,
            icb_core::ExecutionOutcome::AssertionFailure { .. }
        ));
    }

    #[test]
    fn preemption_bound_limits_exploration() {
        let model = two_increments();
        let full = ExplicitIcb::new(ExplicitConfig::default()).run(&model);
        let bound0 = ExplicitIcb::new(ExplicitConfig {
            preemption_bound: Some(0),
            ..ExplicitConfig::default()
        })
        .run(&model);
        assert!(bound0.distinct_states < full.distinct_states);
        assert_eq!(bound0.completed_bound, Some(0));
        assert!(!bound0.completed);
    }
}
