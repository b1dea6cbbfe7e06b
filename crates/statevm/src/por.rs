//! Partial-order reduction via sleep sets — the paper's stated future
//! work ("incorporating complementary state-reduction techniques, such
//! as partial-order reduction, could improve scalability", Section 6).
//!
//! Two steps of different threads are *independent* when their shared
//! accesses do not conflict (disjoint objects, or both reads): executing
//! them in either order reaches the same state. A sleep-set DFS
//! (Godefroid) carries the set of threads whose exploration from the
//! current state would only commute with already-explored alternatives,
//! pruning one of every pair of equivalent interleavings:
//!
//! ```text
//! explore(s, sleep):
//!     done = ∅
//!     for t in enabled(s) \ sleep:
//!         explore(step(s, t),
//!                 { u ∈ sleep ∪ done | next(u) independent of next(t) at s })
//!         done ∪= {t}
//! ```
//!
//! Sleep sets preserve every deadlock and every assertion-failing
//! transition (each Mazurkiewicz trace keeps at least one
//! linearization), so bug-finding verdicts match the unreduced search —
//! property-tested in this crate and cross-checked on the benchmark
//! models. Intermediate states of pruned linearizations are *not* all
//! visited; that is the saving.

use std::collections::HashSet;

use icb_core::Tid;

use crate::instr::{BlockPred, Instr};
use crate::model::{Model, StepError, VmState};

/// A shared object touched by one step, for the independence check.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Object {
    /// A global scalar.
    Global(usize),
    /// One slot of a global array.
    ArraySlot(usize, usize),
    /// A lock.
    Lock(usize),
}

/// The (object, is-write) footprint of the next step of a thread.
pub type Footprint = Vec<(Object, bool)>;

impl Model {
    /// The shared-access footprint of `tid`'s next step in `state`
    /// (empty for a finished thread or a pure `Yield`).
    pub fn step_footprint(&self, state: &VmState, tid: Tid) -> Footprint {
        let ts = &state.threads[tid.index()];
        let Some(instr) = self.threads[tid.index()].code.get(ts.pc) else {
            return Vec::new();
        };
        let locals = &ts.locals;
        match instr {
            Instr::LoadGlobal { global, .. } => vec![(Object::Global(global.index()), false)],
            Instr::StoreGlobal { global, .. } => vec![(Object::Global(global.index()), true)],
            Instr::Rmw { global, .. } | Instr::Cas { global, .. } => {
                vec![(Object::Global(global.index()), true)]
            }
            Instr::BlockUntil { global, pred } => {
                // Reads the global; its enabledness also depends on it,
                // which the read conflict with any writer captures.
                let _ = matches!(pred, BlockPred::NonZero);
                vec![(Object::Global(global.index()), false)]
            }
            Instr::LoadArr { arr, idx, .. } => {
                vec![(
                    Object::ArraySlot(arr.index(), idx.eval(locals) as usize),
                    false,
                )]
            }
            Instr::StoreArr { arr, idx, .. } => {
                vec![(
                    Object::ArraySlot(arr.index(), idx.eval(locals) as usize),
                    true,
                )]
            }
            Instr::Acquire { lock } | Instr::Release { lock } => {
                vec![(Object::Lock(lock.eval(locals) as usize), true)]
            }
            // A fail point writes only the thread's own local: no shared
            // footprint, independent of every other step.
            Instr::Yield | Instr::FailPoint { .. } => Vec::new(),
            local => unreachable!("normalized pc on shared instruction, found {local:?}"),
        }
    }

    /// Are the next steps of `a` and `b` independent in `state`?
    pub fn steps_independent(&self, state: &VmState, a: Tid, b: Tid) -> bool {
        if a == b {
            return false;
        }
        let fa = self.step_footprint(state, a);
        let fb = self.step_footprint(state, b);
        for (oa, wa) in &fa {
            for (ob, wb) in &fb {
                if oa == ob && (*wa || *wb) {
                    return false;
                }
            }
        }
        true
    }
}

/// Safety valve on the transitions one sleep-set search explores; a
/// search that reaches it stops with `completed == false`.
const MAX_TRANSITIONS: usize = 50_000_000;

/// Configuration for the sleep-set search.
#[derive(Clone, Debug)]
pub struct PorConfig {
    /// Enable the sleep-set pruning (off = plain DFS, for comparison).
    pub sleep_sets: bool,
    /// Stop at the first assertion failure or deadlock.
    pub stop_on_first_bug: bool,
}

impl Default for PorConfig {
    fn default() -> Self {
        PorConfig {
            sleep_sets: true,
            stop_on_first_bug: false,
        }
    }
}

/// Result of a sleep-set search.
#[derive(Clone, Debug, Default)]
pub struct PorReport {
    /// Transitions (steps) explored — the work measure POR reduces.
    pub transitions: usize,
    /// Distinct states encountered.
    pub distinct_states: usize,
    /// Complete executions (maximal paths) explored.
    pub executions: usize,
    /// Assertion failures found (message, witness schedule).
    pub assertion_failures: Vec<(String, Vec<Tid>)>,
    /// Deadlocked states found (witness schedules).
    pub deadlocks: Vec<Vec<Tid>>,
    /// `true` if the search space was exhausted within the limits.
    pub completed: bool,
}

impl PorReport {
    /// Any bug at all?
    pub fn has_bug(&self) -> bool {
        !self.assertion_failures.is_empty() || !self.deadlocks.is_empty()
    }
}

/// Depth-first search with sleep sets over a model's acyclic space.
///
/// # Panics
///
/// Panics if the model's initial state cannot be constructed.
pub fn sleep_set_dfs(model: &Model, config: &PorConfig) -> PorReport {
    let initial = model
        .initial_state()
        .expect("initial state must be constructible");
    let mut search = PorSearch {
        model,
        config,
        report: PorReport::default(),
        states: HashSet::new(),
        path: Vec::new(),
        stop: false,
    };
    search.states.insert(initial.fingerprint());
    search.explore(&initial, Vec::new());
    let mut report = search.report;
    report.distinct_states = search.states.len();
    report.completed = !search.stop;
    report
}

struct PorSearch<'a> {
    model: &'a Model,
    config: &'a PorConfig,
    report: PorReport,
    states: HashSet<u64>,
    path: Vec<Tid>,
    stop: bool,
}

impl PorSearch<'_> {
    fn explore(&mut self, state: &VmState, sleep: Vec<Tid>) {
        if self.stop {
            return;
        }
        let enabled = self.model.enabled_set(state);
        if enabled.is_empty() {
            self.report.executions += 1;
            if !self.model.all_finished(state) {
                self.report.deadlocks.push(self.path.clone());
                if self.config.stop_on_first_bug {
                    self.stop = true;
                }
            }
            return;
        }
        let explorable: Vec<Tid> = if self.config.sleep_sets {
            enabled
                .iter()
                .copied()
                .filter(|t| !sleep.contains(t))
                .collect()
        } else {
            enabled.clone()
        };
        if explorable.is_empty() {
            // Everything enabled is asleep: this path is redundant.
            return;
        }
        let mut done: Vec<Tid> = Vec::new();
        for &t in &explorable {
            if self.stop {
                return;
            }
            self.report.transitions += 1;
            if self.report.transitions >= MAX_TRANSITIONS {
                self.stop = true;
                return;
            }
            // The child's sleep set: previously slept or already-explored
            // siblings whose next step commutes with t's.
            let child_sleep: Vec<Tid> = sleep
                .iter()
                .chain(done.iter())
                .copied()
                .filter(|&u| self.model.steps_independent(state, t, u))
                .collect();
            self.path.push(t);
            match self.model.step(state, t) {
                Ok(next) => {
                    self.states.insert(next.fingerprint());
                    self.explore(&next, child_sleep);
                }
                Err(StepError::Assert { message, .. }) => {
                    self.report.executions += 1;
                    self.report
                        .assertion_failures
                        .push((message, self.path.clone()));
                    if self.config.stop_on_first_bug {
                        self.stop = true;
                    }
                }
                Err(e) => {
                    self.report.executions += 1;
                    self.report
                        .assertion_failures
                        .push((e.message(), self.path.clone()));
                    if self.config.stop_on_first_bug {
                        self.stop = true;
                    }
                }
            }
            self.path.pop();
            done.push(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModelBuilder;

    fn independent_pair_model() -> Model {
        // Two threads on disjoint globals: fully independent.
        let mut m = ModelBuilder::new();
        let g0 = m.global("g0", 0);
        let g1 = m.global("g1", 0);
        m.thread("t0", |t| {
            t.store(g0, 1);
            t.store(g0, 2);
        });
        m.thread("t1", |t| {
            t.store(g1, 1);
            t.store(g1, 2);
        });
        m.build()
    }

    #[test]
    fn sleep_sets_prune_independent_interleavings() {
        let model = independent_pair_model();
        let plain = sleep_set_dfs(
            &model,
            &PorConfig {
                sleep_sets: false,
                ..PorConfig::default()
            },
        );
        let reduced = sleep_set_dfs(&model, &PorConfig::default());
        assert!(plain.completed && reduced.completed);
        // Fully independent threads: C(4,2) = 6 interleavings reduce to 1.
        assert_eq!(plain.executions, 6);
        assert_eq!(reduced.executions, 1);
        assert!(reduced.transitions < plain.transitions);
    }

    #[test]
    fn dependent_steps_are_not_pruned() {
        // Both threads write the same global: nothing commutes.
        let mut m = ModelBuilder::new();
        let g = m.global("g", 0);
        for _ in 0..2 {
            m.thread("t", |t| t.store(g, 1));
        }
        let model = m.build();
        let plain = sleep_set_dfs(
            &model,
            &PorConfig {
                sleep_sets: false,
                ..PorConfig::default()
            },
        );
        let reduced = sleep_set_dfs(&model, &PorConfig::default());
        assert_eq!(plain.executions, reduced.executions);
    }

    #[test]
    fn footprints_classify_accesses() {
        let mut m = ModelBuilder::new();
        let g = m.global("g", 0);
        let l = m.lock("l");
        m.thread("reader", |t| {
            let v = t.local();
            t.load(g, v);
        });
        m.thread("writer", |t| t.store(g, 1));
        m.thread("locker", |t| {
            t.acquire(l);
            t.release(l);
        });
        let model = m.build();
        let s = model.initial_state().unwrap();
        // reader/writer conflict (read-write on g).
        assert!(!model.steps_independent(&s, Tid(0), Tid(1)));
        // reader/locker independent (disjoint objects).
        assert!(model.steps_independent(&s, Tid(0), Tid(2)));
        // writer/locker independent.
        assert!(model.steps_independent(&s, Tid(1), Tid(2)));
        // a thread is never independent of itself.
        assert!(!model.steps_independent(&s, Tid(0), Tid(0)));
    }

    #[test]
    fn two_readers_are_independent() {
        let mut m = ModelBuilder::new();
        let g = m.global("g", 7);
        for _ in 0..2 {
            m.thread("r", |t| {
                let v = t.local();
                t.load(g, v);
            });
        }
        let model = m.build();
        let s = model.initial_state().unwrap();
        assert!(model.steps_independent(&s, Tid(0), Tid(1)));
        let reduced = sleep_set_dfs(&model, &PorConfig::default());
        assert_eq!(reduced.executions, 1);
    }

    #[test]
    fn bugs_survive_the_reduction() {
        // A lost-update assertion: the reduced search must find it too.
        let model = crate::lost_update();
        let plain = sleep_set_dfs(
            &model,
            &PorConfig {
                sleep_sets: false,
                ..PorConfig::default()
            },
        );
        let reduced = sleep_set_dfs(&model, &PorConfig::default());
        assert!(plain.has_bug());
        assert!(reduced.has_bug(), "sleep sets must preserve the bug");
        assert!(reduced.transitions <= plain.transitions);
    }

    #[test]
    fn deadlocks_survive_the_reduction() {
        let model = crate::lock_order_deadlock();
        let reduced = sleep_set_dfs(&model, &PorConfig::default());
        assert!(!reduced.deadlocks.is_empty());
    }

    #[test]
    fn witness_schedules_replay() {
        let mut m = ModelBuilder::new();
        let g = m.global("g", 0);
        m.thread("w", |t| t.store(g, 1));
        m.thread("check", |t| {
            let v = t.local();
            t.load(g, v);
            t.assert(v.eq(0), "observed the write");
        });
        let model = m.build();
        let report = sleep_set_dfs(&model, &PorConfig::default());
        let (msg, schedule) = report.assertion_failures.first().expect("bug");
        assert_eq!(msg, "observed the write");
        // Replay through the stateless adapter.
        let sched: icb_core::Schedule = schedule.iter().copied().collect();
        let mut replay = icb_core::ReplayScheduler::new(sched);
        let r = icb_core::ControlledProgram::execute(&model, &mut replay, &mut icb_core::NullSink);
        assert!(r.outcome.is_bug());
    }
}
