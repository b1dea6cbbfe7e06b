//! Driving a [`Model`] as a
//! [`ControlledProgram`](icb_core::ControlledProgram).
//!
//! This lets every `icb-core` search strategy (ICB, DFS, `db:N`, `idfs`,
//! random) run over VM models, with the *exact* concrete state hash as
//! the coverage fingerprint. A run starts from the initial state or, as
//! a [`Resumable`] host, from a state saved by an earlier run, so a tree
//! search re-interprets no schedule prefix it already ran. It is also
//! the bridge for cross-validating the stateless searches against the
//! explicit-state checker ([`crate::ExplicitIcb`]): both must see the
//! same state space.

use std::time::{Duration, Instant};

use icb_core::{
    ControlledProgram, Decisions, ExecutionOutcome, ExecutionResult, NextOp, NoopObserver,
    Resumable, Saved, Scheduler, SearchObserver, SiteId, StateSink, Tid,
};

use crate::instr::Instr;
use crate::model::{Model, StepError, VmState};

impl ControlledProgram for Model {
    fn execute(&self, scheduler: &mut dyn Scheduler, sink: &mut dyn StateSink) -> ExecutionResult {
        self.execute_observed(scheduler, sink, &mut NoopObserver)
    }

    /// The VM hashes the complete concrete machine state (globals,
    /// locals, pcs, lock/monitor state), so equal fingerprints mean
    /// equal states and cache pruning on them is sound.
    fn fingerprints_are_exact(&self) -> bool {
        true
    }

    fn execute_observed(
        &self,
        scheduler: &mut dyn Scheduler,
        sink: &mut dyn StateSink,
        observer: &mut dyn SearchObserver,
    ) -> ExecutionResult {
        self.execute_from(None, Decisions::new(scheduler), sink, observer)
    }

    fn resumable(&self) -> Option<&dyn Resumable> {
        Some(self)
    }
}

/// What the VM saves before a step: the state and its fingerprint.
type SavedState = (VmState, u64);

impl Resumable for Model {
    /// # Panics
    ///
    /// Panics if `from` is not a state a model saved, or `decisions`
    /// does not hold exactly the steps that reached it.
    fn execute_from(
        &self,
        from: Option<&Saved>,
        decisions: Decisions<'_>,
        sink: &mut dyn StateSink,
        observer: &mut dyn SearchObserver,
    ) -> ExecutionResult {
        let time_phases = observer.wants_phase_timing();
        let t_start = time_phases.then(Instant::now);
        let mut decisions = decisions.time_phases(time_phases);
        let outcome = 'run: {
            let (mut state, mut fingerprint) = match from {
                Some(saved) => {
                    assert_eq!(
                        decisions.steps(),
                        saved.step(),
                        "resumed with the wrong trace"
                    );
                    saved
                        .state::<SavedState>()
                        .expect("a state a model saved")
                        .clone()
                }
                None => match self.initial_state() {
                    Ok(s) => {
                        let fingerprint = s.fingerprint();
                        (s, fingerprint)
                    }
                    Err(e) => break 'run step_error_outcome(e),
                },
            };
            sink.visit(fingerprint);
            loop {
                let enabled = self.enabled_set(&state);
                if enabled.is_empty() {
                    break 'run if self.all_finished(&state) {
                        ExecutionOutcome::Terminated
                    } else {
                        ExecutionOutcome::Deadlock {
                            blocked: (0..self.thread_count())
                                .map(Tid)
                                .filter(|&t| !self.is_finished(&state, t))
                                .collect(),
                        }
                    };
                }
                if decisions.steps() >= self.max_steps() {
                    break 'run ExecutionOutcome::StepLimitExceeded;
                }
                let (chosen, fault) = decisions.next(enabled, |t| {
                    let instr = self.next_shared(&state, t);
                    let pc = state.threads[t.index()].pc as u32;
                    NextOp {
                        site: instr.map_or(SiteId::UNKNOWN, |i| {
                            SiteId::at(t.index() as u32, i.mnemonic(), pc)
                        }),
                        blocking: instr.is_some_and(Instr::is_blocking),
                        fallible: instr.is_some_and(Instr::is_fallible),
                    }
                });
                decisions.keep(|| (state.clone(), fingerprint));
                if let Err(e) = self.step_in_place_faulted(&mut state, chosen, fault) {
                    break 'run step_error_outcome(e);
                }
                fingerprint = state.fingerprint();
                sink.visit(fingerprint);
            }
        };
        // The VM has no replay/race-detection machinery: everything that
        // is not schedule selection is re-interpretation (replay).
        let replay = t_start.map_or(Duration::ZERO, |t| {
            t.elapsed().saturating_sub(decisions.selection_time())
        });
        decisions.report_phases(observer, Duration::ZERO, replay);
        decisions.finish(outcome)
    }
}

fn step_error_outcome(e: StepError) -> ExecutionOutcome {
    ExecutionOutcome::AssertionFailure {
        thread: e.thread(),
        message: e.message(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModelBuilder;
    use icb_core::search::{Search, SearchConfig, Strategy};
    use icb_core::Phase;

    #[test]
    fn searches_find_the_lost_update() {
        let model = crate::lost_update();

        let bug = Search::over(&model)
            .config(SearchConfig {
                max_executions: Some(1_000_000),
                stop_on_first_bug: true,
                ..SearchConfig::default()
            })
            .run()
            .unwrap()
            .bugs
            .into_iter()
            .next()
            .expect("lost update found");
        assert_eq!(bug.preemptions, 1);

        let dfs = Search::over(&model)
            .strategy(Strategy::Dfs)
            .config(SearchConfig {
                stop_on_first_bug: true,
                ..SearchConfig::default()
            })
            .run()
            .unwrap();
        assert!(!dfs.bugs.is_empty());
    }

    #[test]
    fn fail_point_bug_needs_a_fault_bound() {
        // A thread that asserts its "I/O" never fails: invisible at
        // fault bound 0, a minimum-(0 preemptions, 1 fault) witness at 1.
        let build = || {
            let mut m = ModelBuilder::new();
            let _g = m.global("g", 0);
            m.thread("writer", |t| {
                let failed = t.local();
                t.fail_point("disk-write", failed);
                t.assert(failed.eq(0), "unhandled write failure");
            });
            m.build()
        };
        let clean = Search::over(&build())
            .config(SearchConfig::default())
            .run()
            .unwrap();
        assert!(clean.completed && clean.bugs.is_empty());

        let faulty = Search::over(&build())
            .config(SearchConfig {
                fault_bound: 1,
                ..SearchConfig::default()
            })
            .run()
            .unwrap();
        let bug = faulty.bugs.first().expect("fault exposes the bug");
        assert_eq!((bug.preemptions, bug.faults), (0, 1));
        assert_eq!(bug.schedule.fault_count(), 1);

        // The witness replays byte-deterministically.
        let model = build();
        let mut replay = icb_core::ReplayScheduler::new(bug.schedule.clone());
        let r = model.execute(&mut replay, &mut icb_core::NullSink);
        assert!(matches!(
            r.outcome,
            ExecutionOutcome::AssertionFailure { .. }
        ));
        assert_eq!(r.trace.schedule(), bug.schedule);
    }

    #[test]
    fn terminating_model_completes_under_icb() {
        let mut m = ModelBuilder::new();
        let g = m.global("g", 0);
        for _ in 0..2 {
            m.thread("w", |t| {
                let tmp = t.local();
                t.fetch_add(g, 1, tmp);
            });
        }
        let model = m.build();
        let report = Search::over(&model)
            .config(SearchConfig::default())
            .run()
            .unwrap();
        assert!(report.completed);
        assert!(report.bugs.is_empty());
        // Two atomic increments: two schedules.
        assert_eq!(report.executions, 2);
    }

    #[test]
    fn deadlock_model_reports_deadlock() {
        let model = crate::lock_order_deadlock();
        let bug = Search::over(&model)
            .config(SearchConfig {
                max_executions: Some(100_000),
                stop_on_first_bug: true,
                ..SearchConfig::default()
            })
            .run()
            .unwrap()
            .bugs
            .into_iter()
            .next()
            .expect("deadlock");
        assert!(matches!(bug.outcome, ExecutionOutcome::Deadlock { .. }));
        assert_eq!(bug.preemptions, 1);
    }

    #[test]
    fn step_limit_reported_for_nonterminating_schedules() {
        let mut m = ModelBuilder::new();
        let g = m.global("g", 0);
        m.max_steps(32);
        m.thread("spin", |t| {
            let v = t.local();
            let top = t.new_label();
            t.place(top);
            t.load(g, v); // spin forever on a shared read
            t.jump(top);
        });
        let model = m.build();
        let mut replay = icb_core::ReplayScheduler::new(Default::default());
        let r = model.execute(&mut replay, &mut icb_core::NullSink);
        assert_eq!(r.outcome, ExecutionOutcome::StepLimitExceeded);
    }

    #[test]
    fn observed_execution_resolves_sites_and_emits_phase_times() {
        #[derive(Default)]
        struct PhaseCatcher {
            phases: Vec<(Phase, Duration)>,
        }
        impl SearchObserver for PhaseCatcher {
            fn wants_phase_timing(&self) -> bool {
                true
            }
            fn phase_time(&mut self, phase: Phase, elapsed: Duration) {
                self.phases.push((phase, elapsed));
            }
        }

        let mut m = ModelBuilder::new();
        let g = m.global("g", 0);
        for _ in 0..2 {
            m.thread("w", |t| {
                let tmp = t.local();
                t.fetch_add(g, 1, tmp);
            });
        }
        let model = m.build();
        let mut replay = icb_core::ReplayScheduler::new(Default::default());
        let mut obs = PhaseCatcher::default();
        let r = model.execute_observed(&mut replay, &mut icb_core::NullSink, &mut obs);
        assert_eq!(r.outcome, ExecutionOutcome::Terminated);
        // Every step carries a resolved per-thread site: "t{tid}:rmw@pc".
        for entry in r.trace.entries() {
            assert!(!entry.site.is_unknown());
            assert_eq!(entry.site.class, "rmw");
            assert_eq!(entry.site.thread, entry.chosen.index() as u32);
        }
        // Exactly one report per phase, race detection pinned to zero.
        let kinds: Vec<Phase> = obs.phases.iter().map(|(p, _)| *p).collect();
        assert_eq!(
            kinds,
            vec![Phase::Selection, Phase::RaceDetection, Phase::Replay]
        );
        assert_eq!(obs.phases[1].1, Duration::ZERO);
    }

    #[test]
    fn execute_and_execute_observed_agree() {
        let mut m = ModelBuilder::new();
        let g = m.global("g", 0);
        for _ in 0..2 {
            m.thread("w", |t| {
                let tmp = t.local();
                t.load(g, tmp);
                t.store(g, tmp + 1);
            });
        }
        let model = m.build();
        let schedule: icb_core::Schedule = "0 1 0 1".parse().unwrap();
        let mut replay = icb_core::ReplayScheduler::new(schedule.clone());
        let plain = model.execute(&mut replay, &mut icb_core::NullSink);
        let mut replay = icb_core::ReplayScheduler::new(schedule);
        let observed =
            model.execute_observed(&mut replay, &mut icb_core::NullSink, &mut NoopObserver);
        assert_eq!(plain.outcome, observed.outcome);
        assert_eq!(plain.trace.schedule(), observed.trace.schedule());
        assert_eq!(plain.stats, observed.stats);
    }

    #[test]
    fn initial_assert_failure_is_an_immediate_bug() {
        let mut m = ModelBuilder::new();
        let _g = m.global("g", 0);
        m.thread("t", |t| {
            t.assert(Expr::konst(0), "always fails");
            t.yield_point();
        });
        use crate::expr::Expr;
        let model = m.build();
        let mut replay = icb_core::ReplayScheduler::new(Default::default());
        let r = model.execute(&mut replay, &mut icb_core::NullSink);
        assert!(matches!(
            r.outcome,
            ExecutionOutcome::AssertionFailure { .. }
        ));
        assert_eq!(r.stats.steps, 0);
    }
}
