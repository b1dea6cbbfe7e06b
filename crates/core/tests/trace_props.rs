//! Property tests of the trace algebra against an independent
//! implementation of Appendix A's definitions.
//!
//! Inputs are generated from seeded [`SplitMix64`] streams (the
//! repository builds without external crates, so there is no proptest);
//! every case is deterministic and reproducible from its seed.

use icb_core::rng::SplitMix64;
use icb_core::search::{Search, SearchConfig, Strategy};
use icb_core::{
    ControlledProgram, Decisions, ExecutionOutcome, ExecutionResult, NextOp, SchedulePoint,
    Scheduler, StateSink, Tid,
};

/// A deterministic little interpreter over `steps[i] = thread of step i`
/// plans: thread t is enabled while it has steps left. This regenerates
/// honest traces (consistent `enabled`/`current_enabled` fields) for
/// arbitrary generated schedules.
struct Planned {
    steps_per_thread: Vec<usize>,
}

impl ControlledProgram for Planned {
    fn execute(&self, scheduler: &mut dyn Scheduler, _sink: &mut dyn StateSink) -> ExecutionResult {
        let n = self.steps_per_thread.len();
        let mut left = self.steps_per_thread.clone();
        let mut decisions = Decisions::new(scheduler);
        loop {
            let enabled: Vec<Tid> = (0..n).filter(|&i| left[i] > 0).map(Tid).collect();
            if enabled.is_empty() {
                break;
            }
            let (chosen, _) = decisions.next(enabled, |_| NextOp::default());
            left[chosen.index()] -= 1;
        }
        decisions.finish(ExecutionOutcome::Terminated)
    }
}

/// Appendix A, literally:
/// `NP(t) = 0`;
/// `NP(a·t) = NP(a)` if `t = L(a)` or `L(a) ∉ enabled(a)`, else `+1`.
fn np_appendix_a(steps_per_thread: &[usize], schedule: &[Tid]) -> usize {
    let mut left = steps_per_thread.to_vec();
    let mut np = 0;
    let mut last: Option<Tid> = None;
    for &t in schedule {
        if let Some(l) = last {
            let l_enabled = left[l.index()] > 0;
            if t != l && l_enabled {
                np += 1;
            }
        }
        left[t.index()] -= 1;
        last = Some(t);
    }
    np
}

/// A generated plan: 2–3 threads, each with 1–3 steps.
fn gen_plan(rng: &mut SplitMix64) -> Vec<usize> {
    let threads = rng.gen_range(2, 4);
    (0..threads).map(|_| rng.gen_range(1, 4)).collect()
}

/// Random schedules through a planned program yield traces that satisfy
/// the Appendix-A preemption recurrence, the switch accounting identity,
/// and the schedule-length invariant.
#[test]
fn traces_satisfy_appendix_a() {
    let mut gen = SplitMix64::new(0xA11CE);
    for _case in 0..32 {
        let steps = gen_plan(&mut gen);
        let program = Planned {
            steps_per_thread: steps.clone(),
        };
        for seed in 0..20u64 {
            let mut rng = RandomScheduler::new(seed);
            let result = program.execute(&mut rng, &mut icb_core::NullSink);
            let trace = &result.trace;
            let schedule: Vec<Tid> = trace.schedule().iter().collect();
            assert_eq!(
                trace.preemptions(),
                np_appendix_a(&steps, &schedule),
                "schedule {schedule:?}"
            );
            assert_eq!(
                trace.context_switches(),
                trace.preemptions() + trace.nonpreempting_switches()
            );
            assert_eq!(schedule.len(), steps.iter().sum::<usize>());
        }
    }
}

/// Exhaustive DFS over the planned program never records a trace
/// violating the recurrence either (systematic rather than sampled
/// coverage of the small plans).
#[test]
fn dfs_bug_free_and_complete() {
    let mut gen = SplitMix64::new(0xDF5);
    for _case in 0..32 {
        let steps = gen_plan(&mut gen);
        let program = Planned {
            steps_per_thread: steps.clone(),
        };
        let report = Search::over(&program)
            .strategy(Strategy::Dfs)
            .config(SearchConfig {
                max_executions: Some(100_000),
                ..SearchConfig::default()
            })
            .run()
            .unwrap();
        assert!(report.completed);
        assert_eq!(report.buggy_executions, 0);
        // The multinomial count of distinct schedules.
        let mut expected = 1f64;
        let mut acc = 1usize;
        for &k in &steps {
            for i in 1..=k {
                expected *= acc as f64 / i as f64;
                acc += 1;
            }
        }
        assert_eq!(
            report.executions,
            expected.round() as usize,
            "plan {steps:?}"
        );
    }
}

/// A uniformly random scheduler over the enabled set.
struct RandomScheduler {
    rng: SplitMix64,
}

impl RandomScheduler {
    fn new(seed: u64) -> Self {
        RandomScheduler {
            rng: SplitMix64::new(seed),
        }
    }
}

impl Scheduler for RandomScheduler {
    fn pick(&mut self, point: SchedulePoint<'_>) -> Tid {
        point.enabled[self.rng.gen_index(point.enabled.len())]
    }
}
