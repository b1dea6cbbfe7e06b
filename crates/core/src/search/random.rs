//! Random-walk baseline (the paper's `random` strategy, after Sivaraj &
//! Gopalakrishnan).
//!
//! Random walk has no termination criterion and no coverage guarantee —
//! the paper uses it to show that ICB's *systematic* enumeration also
//! beats unguided sampling on coverage growth. Walk number `i` draws
//! from its own seed-derived stream, so the set of walks a budget buys
//! depends only on the seed and the budget, never on the job count.

use std::ops::Range;

use crate::coverage::{mix64, StateSink};
use crate::program::{ControlledProgram, SchedulePoint, Scheduler};
use crate::rng::SplitMix64;
use crate::search::driver::{execute_caught, Explore, Ran};
use crate::search::ledger::Ledger;
use crate::search::QuarantinedTrace;
use crate::snapshot::StrategyState;
use crate::telemetry::SearchObserver;
use crate::tid::Tid;
use crate::trace::Schedule;

/// Seeded random walks as a driver strategy: a work item is a half-open
/// range of walk indices, which splits in two when a peer starves.
pub(crate) struct Walks<'a> {
    pub(crate) program: &'a (dyn ControlledProgram + Sync),
    pub(crate) seed: u64,
    /// Indices one walk spends (`executions_per_run`).
    pub(crate) cost: u64,
}

/// The stream of walk number `index` under `seed`.
fn walk_rng(seed: u64, index: u64) -> SplitMix64 {
    SplitMix64::new(seed ^ mix64(index.wrapping_add(1)))
}

impl Explore for Walks<'_> {
    type Item = Range<u64>;
    type Local = ();
    const EXHAUSTIVE: bool = false;

    fn run(
        &self,
        walks: &mut Range<u64>,
        _local: &mut (),
        _rerun: bool,
        sink: &mut dyn StateSink,
        observer: &mut dyn SearchObserver,
    ) -> Result<Ran, String> {
        let mut rng = walk_rng(self.seed, walks.start);
        let result = execute_caught(|| {
            self.program
                .execute_observed(&mut WalkScheduler(&mut rng), sink, observer)
        })?;
        walks.start += self.cost;
        Ok(Ran {
            result,
            path: Schedule::new(),
            deferred: Default::default(),
            beyond: 0,
            cache: (0, 0),
            done: walks.is_empty(),
        })
    }

    fn split(&self, walks: Range<u64>, _path: &Schedule) -> Vec<Range<u64>> {
        let half = (walks.end - walks.start).div_ceil(self.cost) / 2 * self.cost;
        if half == 0 {
            return vec![walks];
        }
        let mid = walks.start + half;
        vec![walks.start..mid, mid..walks.end]
    }

    /// A walk that panics twice is skipped; the rest of its range runs.
    fn forfeit(&self, walks: Range<u64>) -> (Option<QuarantinedTrace>, Option<Range<u64>>) {
        let rest = walks.start + self.cost..walks.end;
        (None, (!rest.is_empty()).then_some(rest))
    }

    fn state(&self, _ledger: &Ledger<'_>, items: Vec<&Range<u64>>) -> StrategyState {
        let mut ranges: Vec<(u64, u64)> = items.into_iter().map(|r| (r.start, r.end)).collect();
        ranges.sort_unstable();
        StrategyState::Random {
            seed: self.seed,
            ranges,
        }
    }

    fn decode(state: StrategyState) -> Vec<Range<u64>> {
        let StrategyState::Random { ranges, .. } = state else {
            unreachable!("a random walk resumes only a random-walk snapshot")
        };
        ranges
            .into_iter()
            .map(|(start, end)| start..end)
            .filter(|walks| !walks.is_empty())
            .collect()
    }
}

/// Chooses uniformly among the enabled threads.
struct WalkScheduler<'a>(&'a mut SplitMix64);

impl Scheduler for WalkScheduler<'_> {
    fn pick(&mut self, point: SchedulePoint<'_>) -> Tid {
        point.enabled[self.0.gen_index(point.enabled.len())]
    }
}

#[cfg(test)]
mod tests {
    use crate::search::testprog::Counters;
    use crate::search::SearchConfig;
    use crate::search::{Search, Strategy};

    #[test]
    fn runs_exactly_the_budget() {
        let p = Counters {
            n: 2,
            k: 3,
            bug: None,
        };
        let report = Search::over(&p)
            .strategy(Strategy::Random { seed: 42 })
            .config(SearchConfig::with_max_executions(25))
            .run()
            .unwrap();
        assert_eq!(report.executions, 25);
        assert!(!report.completed);
        assert!(report.distinct_states > 0);
    }

    #[test]
    fn same_seed_same_coverage() {
        let p = Counters {
            n: 3,
            k: 2,
            bug: None,
        };
        let a = Search::over(&p)
            .strategy(Strategy::Random { seed: 7 })
            .config(SearchConfig::with_max_executions(50))
            .run()
            .unwrap();
        let b = Search::over(&p)
            .strategy(Strategy::Random { seed: 7 })
            .config(SearchConfig::with_max_executions(50))
            .run()
            .unwrap();
        assert_eq!(a.distinct_states, b.distinct_states);
        assert_eq!(a.coverage_curve, b.coverage_curve);
    }

    #[test]
    fn different_seeds_usually_differ() {
        let p = Counters {
            n: 3,
            k: 3,
            bug: None,
        };
        let a = Search::over(&p)
            .strategy(Strategy::Random { seed: 1 })
            .config(SearchConfig::with_max_executions(5))
            .run()
            .unwrap();
        let b = Search::over(&p)
            .strategy(Strategy::Random { seed: 2 })
            .config(SearchConfig::with_max_executions(5))
            .run()
            .unwrap();
        // Curves are overwhelmingly likely to differ for 5 walks over
        // hundreds of schedules; equality would indicate a seeding bug.
        assert_ne!(a.coverage_curve, b.coverage_curve);
    }

    #[test]
    fn eventually_finds_shallow_bug() {
        let p = Counters {
            n: 2,
            k: 2,
            bug: Some((1, 0, 1)),
        };
        let report = Search::over(&p)
            .strategy(Strategy::Random { seed: 3 })
            .config(SearchConfig::with_max_executions(200))
            .run()
            .unwrap();
        assert!(report.buggy_executions > 0);
    }
}
