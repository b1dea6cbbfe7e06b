//! Best-first heuristic search — the structural heuristic of Groce &
//! Visser (ISSTA 2002) the paper discusses in related work: prioritize
//! scheduling points with *more enabled threads*, on the theory that
//! high-concurrency states breed interleaving bugs.
//!
//! Unlike ICB it offers no coverage metric and no execution-count
//! polynomial; it exists here as the third point of comparison between
//! systematic (icb/dfs), random, and heuristic exploration.
//!
//! Stateless realization: a priority queue of schedule prefixes, scored
//! by the size of the enabled set at the point where the prefix's last
//! choice was made (a frontier proxy for the state's "concurrency").
//! Expanding a prefix replays it to completion under the default policy
//! — each expansion is one full execution, whose coverage counts.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::program::{ControlledProgram, SchedulePoint, Scheduler};
use crate::search::driver::{execute_caught, finish_run, BufObserver, Node, Ran};
use crate::search::ledger::Ledger;
use crate::tid::Tid;
use crate::trace::{DivergencePayload, ExecutionOutcome, Schedule};

/// Best-first search prioritizing points with many enabled threads, at
/// `jobs = 1` only: it orders one global heap of prefixes, recording
/// every execution through the ledger. Returns whether the whole tree
/// was expanded.
pub(crate) fn run_best_first(program: &dyn ControlledProgram, ledger: &mut Ledger<'_>) -> bool {
    let cost = program.executions_per_run().max(1);
    // Max-heap on (score, insertion age): older first among equals via
    // Reverse(seq) for stable, deterministic order.
    let mut heap: BinaryHeap<(usize, Reverse<usize>, Schedule)> = BinaryHeap::new();
    let mut seq = 0usize;
    let mut buf = BufObserver::new(ledger);
    heap.push((usize::MAX, Reverse(seq), Schedule::new()));
    'heap: while let Some((_, _, prefix)) = heap.pop() {
        if ledger.stop {
            return false;
        }
        // First strike: rerun the prefix once. Second: forfeit it.
        let mut retried = false;
        let (result, sched) = loop {
            let mut sched = FrontierScheduler {
                prefix: &prefix,
                frontier_enabled: Vec::new(),
            };
            ledger.begin();
            let run = execute_caught(|| {
                program.execute_observed(&mut sched, &mut ledger.coverage, &mut buf)
            });
            buf.replay(ledger);
            match run {
                Ok(result) => break (result, sched),
                Err(message) => {
                    let quarantine = retried.then(|| Node::new(prefix.clone()).forfeit());
                    ledger.panicked(0, &message, quarantine);
                    if retried {
                        continue 'heap;
                    }
                    retried = true;
                }
            }
        };
        // A diverged prefix no longer replays: its subtree is forfeited
        // (no children are expanded). Otherwise a prefix as long as the
        // execution has no frontier point and was a leaf; each enabled
        // thread at the frontier is a child.
        if !matches!(result.outcome, ExecutionOutcome::ReplayDivergence { .. }) {
            let score = sched.frontier_enabled.len();
            for &t in &sched.frontier_enabled {
                let mut child = prefix.clone();
                child.push(t);
                seq += 1;
                heap.push((score, Reverse(seq), child));
            }
        }
        let ran = Ran {
            result,
            path: prefix,
            deferred: Default::default(),
            beyond: 0,
            cache: (0, 0),
            done: true,
        };
        let (exec, ..) = finish_run(ran, cost, ledger.want_choice);
        ledger.apply(exec);
    }
    !ledger.stop
}

/// Replays the prefix, records the enabled set at the frontier point,
/// then completes with the default policy.
struct FrontierScheduler<'a> {
    prefix: &'a Schedule,
    frontier_enabled: Vec<Tid>,
}

impl Scheduler for FrontierScheduler<'_> {
    fn pick(&mut self, point: SchedulePoint<'_>) -> Tid {
        if let Some(tid) = self.prefix.get(point.step_index) {
            if !point.is_enabled(tid) {
                DivergencePayload::new(point.step_index, tid, point.enabled.to_vec()).raise();
            }
            return tid;
        }
        if point.step_index == self.prefix.len() {
            // The frontier: every enabled thread becomes a child node
            // (including the default — its deeper alternatives must be
            // expandable too); this run walks the default tail.
            self.frontier_enabled = point.enabled.to_vec();
            return point.default_choice();
        }
        point.default_choice()
    }
}

#[cfg(test)]
mod tests {
    use crate::search::testprog::{schedule_count, Counters};
    use crate::search::SearchConfig;
    use crate::search::{Search, Strategy};

    #[test]
    fn expands_the_whole_tree_eventually() {
        let p = Counters {
            n: 2,
            k: 2,
            bug: None,
        };
        let report = Search::over(&p)
            .strategy(Strategy::BestFirst)
            .config(SearchConfig::default())
            .run()
            .unwrap();
        assert!(report.completed);
        // One execution per tree node expansion: at least every distinct
        // schedule appears (each leaf is reached by exactly one
        // expansion whose default tail walks it).
        assert!(report.executions as u128 >= schedule_count(2, 2));
        // And coverage matches the exhaustive search.
        let icb = Search::over(&p)
            .config(SearchConfig::default())
            .run()
            .unwrap();
        assert_eq!(report.distinct_states, icb.distinct_states);
    }

    #[test]
    fn finds_bugs() {
        let p = Counters {
            n: 2,
            k: 2,
            bug: Some((1, 0, 1)),
        };
        let report = Search::over(&p)
            .strategy(Strategy::BestFirst)
            .config(SearchConfig {
                stop_on_first_bug: true,
                ..SearchConfig::default()
            })
            .run()
            .unwrap();
        assert!(!report.bugs.is_empty());
    }

    #[test]
    fn respects_the_budget() {
        let p = Counters {
            n: 3,
            k: 3,
            bug: None,
        };
        let report = Search::over(&p)
            .strategy(Strategy::BestFirst)
            .config(SearchConfig::with_max_executions(9))
            .run()
            .unwrap();
        assert_eq!(report.executions, 9);
        assert!(!report.completed);
    }

    #[test]
    fn deterministic_across_runs() {
        let p = Counters {
            n: 3,
            k: 2,
            bug: None,
        };
        let a = Search::over(&p)
            .strategy(Strategy::BestFirst)
            .config(SearchConfig::with_max_executions(20))
            .run()
            .unwrap();
        let b = Search::over(&p)
            .strategy(Strategy::BestFirst)
            .config(SearchConfig::with_max_executions(20))
            .run()
            .unwrap();
        assert_eq!(a.coverage_curve, b.coverage_curve);
    }
}
