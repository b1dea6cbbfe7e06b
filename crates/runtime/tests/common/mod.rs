//! Helpers the runtime's integration tests share.

use icb_core::search::{BugReport, Search, SearchConfig};
use icb_runtime::RuntimeProgram;

/// The first bug a bug hunt of at most `budget` executions finds: under
/// ICB, one with the fewest preemptions.
pub fn minimal_bug(program: &RuntimeProgram, budget: usize) -> Option<BugReport> {
    let config = SearchConfig {
        max_executions: Some(budget),
        ..SearchConfig::bug_hunt()
    };
    Search::over(program)
        .config(config)
        .run()
        .unwrap()
        .bugs
        .into_iter()
        .next()
}
