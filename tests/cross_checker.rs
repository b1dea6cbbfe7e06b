//! Cross-validation of the two checkers: the explicit-state searcher
//! (ZING analog, state caching) and the stateless searches (CHESS
//! analog, replay) must agree on state spaces and minimal bug bounds
//! when run over the same VM models.

use icb::core::search::{Search, SearchConfig, Strategy};
use icb::statevm::{reachable_states, ExplicitConfig, ExplicitIcb, Model};
use icb::workloads::ape::ape_model;
use icb::workloads::bluetooth::{bluetooth_model, BluetoothVariant};
use icb::workloads::dryad::dryad_model;
use icb::workloads::filesystem::{filesystem_model, FsParams};
use icb::workloads::txnmgr::{txnmgr_model, TxnVariant};
use icb::workloads::wsq::{wsq_model, WsqVariant};

/// Models small enough to exhaust *statelessly* (no state caching) in
/// a debug-profile test run. The work-stealing queue is excluded: its
/// schedule tree has ~1.4M executions, which only the cached explicit
/// checker should chew through here.
fn clean_models_stateless() -> Vec<(&'static str, Model)> {
    vec![
        ("bluetooth", bluetooth_model(BluetoothVariant::Fixed, 2)),
        (
            "filesystem",
            filesystem_model(FsParams {
                threads: 3,
                inodes: 2,
                blocks: 2,
            }),
        ),
        ("txnmgr", txnmgr_model(TxnVariant::Correct)),
    ]
}

fn clean_models() -> Vec<(&'static str, Model)> {
    vec![
        ("bluetooth", bluetooth_model(BluetoothVariant::Fixed, 2)),
        (
            "filesystem",
            filesystem_model(FsParams {
                threads: 3,
                inodes: 2,
                blocks: 2,
            }),
        ),
        ("txnmgr", txnmgr_model(TxnVariant::Correct)),
        ("wsq", wsq_model(WsqVariant::Correct, 2, 1)),
        ("ape", ape_model(2)),
        ("dryad", dryad_model(2, 2)),
    ]
}

#[test]
fn explicit_and_stateless_state_counts_agree() {
    for (name, model) in clean_models_stateless() {
        let explicit = ExplicitIcb::new(ExplicitConfig::default()).run(&model);
        let stateless = Search::over(&model)
            .config(SearchConfig {
                max_executions: None,
                ..SearchConfig::default()
            })
            .run()
            .unwrap();
        assert!(explicit.completed, "{name}: explicit did not complete");
        assert!(stateless.completed, "{name}: stateless did not complete");
        assert_eq!(
            explicit.distinct_states, stateless.distinct_states,
            "{name}: checkers disagree on the state count"
        );
    }
}

#[test]
fn reachability_is_the_common_denominator() {
    for (name, model) in clean_models() {
        let total = reachable_states(&model, 10_000_000);
        let explicit = ExplicitIcb::new(ExplicitConfig::default()).run(&model);
        assert_eq!(
            explicit.distinct_states, total,
            "{name}: explicit search must cover exactly the reachable set"
        );
    }
}

#[test]
fn stateless_dfs_agrees_with_stateless_icb() {
    for (name, model) in clean_models_stateless() {
        let icb = Search::over(&model)
            .config(SearchConfig {
                max_executions: None,
                ..SearchConfig::default()
            })
            .run()
            .unwrap();
        let dfs = Search::over(&model)
            .strategy(Strategy::Dfs)
            .config(SearchConfig {
                max_executions: None,
                ..SearchConfig::default()
            })
            .run()
            .unwrap();
        assert!(icb.completed && dfs.completed, "{name} did not complete");
        assert_eq!(icb.executions, dfs.executions, "{name}: execution counts");
        assert_eq!(icb.distinct_states, dfs.distinct_states, "{name}: states");
        assert_eq!(icb.buggy_executions, 0, "{name} is a clean model");
        assert_eq!(dfs.buggy_executions, 0, "{name} is a clean model");
    }
}

#[test]
fn minimal_bug_bounds_agree_across_checkers() {
    let buggy: Vec<(&str, Model)> = vec![
        ("bluetooth", bluetooth_model(BluetoothVariant::Buggy, 2)),
        ("txnmgr-toctou", txnmgr_model(TxnVariant::CommitToctou)),
        ("txnmgr-torn", txnmgr_model(TxnVariant::TornFlush)),
        ("wsq-steal", wsq_model(WsqVariant::NonAtomicSteal, 3, 2)),
    ];
    for (name, model) in buggy {
        let explicit = ExplicitIcb::new(ExplicitConfig {
            stop_on_first_bug: true,
            ..ExplicitConfig::default()
        })
        .run(&model);
        let explicit_bound = explicit.bugs.first().map(|b| b.bound);
        let stateless_bound = Search::over(&model)
            .config(SearchConfig {
                max_executions: Some(2_000_000),
                stop_on_first_bug: true,
                ..SearchConfig::default()
            })
            .run()
            .unwrap()
            .first_bug()
            .map(|b| b.preemptions);
        assert_eq!(
            explicit_bound, stateless_bound,
            "{name}: checkers disagree on the minimal bound"
        );
        assert!(explicit_bound.is_some(), "{name}: bug not found");
        // DFS promises no minimal witness, but it must reach a bug too.
        let dfs = Search::over(&model)
            .strategy(Strategy::Dfs)
            .config(SearchConfig {
                stop_on_first_bug: true,
                ..SearchConfig::default()
            })
            .run()
            .unwrap();
        let dfs_bound = dfs.first_bug().map(|b| b.preemptions);
        assert!(
            dfs_bound >= explicit_bound,
            "{name}: DFS bug at {dfs_bound:?}, minimal bound {explicit_bound:?}"
        );
    }
}

#[test]
fn explicit_witness_replays_in_the_stateless_checker() {
    let model = txnmgr_model(TxnVariant::UnlockedScan);
    let explicit = ExplicitIcb::new(ExplicitConfig {
        stop_on_first_bug: true,
        ..ExplicitConfig::default()
    })
    .run(&model);
    let bug = explicit.bugs.first().expect("bug found");
    let schedule: icb::core::Schedule = bug.schedule.iter().copied().collect();
    let mut replay = icb::core::ReplayScheduler::new(schedule);
    let result =
        icb::core::ControlledProgram::execute(&model, &mut replay, &mut icb::core::NullSink);
    match result.outcome {
        icb::core::ExecutionOutcome::AssertionFailure { message, .. } => {
            assert_eq!(message, bug.message);
        }
        other => panic!("expected the same assertion failure, got {other}"),
    }
}
