//! Depth-first baselines: unbounded DFS (`dfs`), depth-bounded DFS
//! (`db:N`) and iterative depth-bounding (`idfs`), the strategies the
//! paper compares ICB against (Figures 2, 5 and 6). DFS runs as a
//! [`Tree`] search; iterative deepening repeats depth-bounded passes.

use std::sync::atomic::Ordering;

use crate::program::ControlledProgram;
use crate::search::driver::{drain, Crew, Node};
use crate::search::icb::Tree;
use crate::search::ledger::Ledger;

/// Iterative depth-bounding (the paper's `idfs`): depth-bounded passes
/// at bounds `start, start + step, …` up to `max`, sharing one ledger
/// and execution budget. Stops early once a pass truncated no execution
/// (deepening further cannot reach new states). Returns whether the
/// full space was explored.
pub(crate) fn run_idfs(
    program: &(dyn ControlledProgram + Sync),
    (start, step, max): (usize, usize, usize),
    ledger: &mut Ledger<'_>,
    crew: &Crew,
) -> bool {
    let mut bound = start;
    loop {
        let pass = Tree::dfs(program, Some(bound), None);
        let leftover = drain(&pass, vec![(Node::default(), false)], ledger, crew);
        if ledger.stop {
            return false;
        }
        if leftover.is_empty() && pass.longest.load(Ordering::Relaxed) <= bound {
            return true;
        }
        if bound >= max {
            return false;
        }
        bound = (bound + step).min(max);
    }
}

#[cfg(test)]
mod tests {
    use crate::search::testprog::{schedule_count, Counters};
    use crate::search::SearchConfig;
    use crate::search::{Search, Strategy};

    #[test]
    fn unbounded_dfs_exhausts_the_space() {
        let p = Counters {
            n: 2,
            k: 3,
            bug: None,
        };
        let report = Search::over(&p)
            .strategy(Strategy::Dfs)
            .config(SearchConfig::default())
            .run()
            .unwrap();
        assert!(report.completed);
        assert_eq!(report.executions as u128, schedule_count(2, 3));
    }

    #[test]
    fn dfs_and_icb_cover_identical_state_sets() {
        let p = Counters {
            n: 3,
            k: 2,
            bug: None,
        };
        let dfs = Search::over(&p)
            .strategy(Strategy::Dfs)
            .config(SearchConfig::default())
            .run()
            .unwrap();
        let icb = Search::over(&p)
            .config(SearchConfig::default())
            .run()
            .unwrap();
        assert!(dfs.completed && icb.completed);
        assert_eq!(dfs.distinct_states, icb.distinct_states);
        assert_eq!(dfs.executions, icb.executions);
    }

    #[test]
    fn depth_bound_truncates_coverage() {
        let p = Counters {
            n: 2,
            k: 4,
            bug: None,
        };
        let full = Search::over(&p)
            .strategy(Strategy::Dfs)
            .config(SearchConfig::default())
            .run()
            .unwrap();
        let bounded = Search::over(&p)
            .strategy(Strategy::DepthBounded(3))
            .config(SearchConfig::default())
            .run()
            .unwrap();
        assert!(bounded.completed);
        assert!(
            bounded.distinct_states < full.distinct_states,
            "bounded {} !< full {}",
            bounded.distinct_states,
            full.distinct_states
        );
        // The truncated tree is much smaller.
        assert!(bounded.executions < full.executions);
    }

    #[test]
    fn depth_bound_hides_deep_bugs() {
        // Bug on thread 1's last step needs depth ≥ 6 to manifest.
        let p = Counters {
            n: 2,
            k: 3,
            bug: Some((1, 2, 5)),
        };
        let shallow = Search::over(&p)
            .strategy(Strategy::DepthBounded(2))
            .config(SearchConfig::default())
            .run()
            .unwrap();
        assert!(shallow.bugs.is_empty());
        let deep = Search::over(&p)
            .strategy(Strategy::Dfs)
            .config(SearchConfig::default())
            .run()
            .unwrap();
        assert!(!deep.bugs.is_empty());
    }

    #[test]
    fn dfs_finds_bug_but_not_necessarily_minimal() {
        let p = Counters {
            n: 2,
            k: 2,
            bug: Some((1, 0, 1)),
        };
        let report = Search::over(&p)
            .strategy(Strategy::Dfs)
            .config(SearchConfig {
                stop_on_first_bug: true,
                ..SearchConfig::default()
            })
            .run()
            .unwrap();
        assert!(!report.bugs.is_empty());
    }

    #[test]
    fn idfs_completes_small_spaces() {
        let p = Counters {
            n: 2,
            k: 3,
            bug: None,
        };
        let report = Search::over(&p)
            .strategy(Strategy::IterativeDeepening {
                start: 2,
                step: 2,
                max: 100,
            })
            .config(SearchConfig::default())
            .run()
            .unwrap();
        assert!(report.completed);
        // All states eventually covered.
        let full = Search::over(&p)
            .strategy(Strategy::Dfs)
            .config(SearchConfig::default())
            .run()
            .unwrap();
        assert_eq!(report.distinct_states, full.distinct_states);
    }

    #[test]
    fn idfs_respects_budget() {
        let p = Counters {
            n: 3,
            k: 3,
            bug: None,
        };
        let report = Search::over(&p)
            .strategy(Strategy::IterativeDeepening {
                start: 2,
                step: 2,
                max: 50,
            })
            .config(SearchConfig::with_max_executions(10))
            .run()
            .unwrap();
        assert_eq!(report.executions, 10);
        assert!(!report.completed);
    }

    #[test]
    fn strategy_names() {
        assert_eq!(Strategy::Dfs.label(), "dfs");
        assert_eq!(Strategy::DepthBounded(40).label(), "db:40");
        assert_eq!(
            Strategy::IterativeDeepening {
                start: 10,
                step: 10,
                max: 100
            }
            .label(),
            "idfs-100"
        );
    }
}
