//! Robustness: no false positives on the correct benchmark variants
//! under any strategy, honest failures on contract violations, and the
//! fault-bound and cache ablations: neither the fault dimension nor a
//! cache changes a verdict it must not change.

use std::sync::atomic::{AtomicUsize, Ordering};

use icb::core::search::{Search, SearchConfig, Strategy};
use icb::core::{
    ControlledProgram, Decisions, ExecutionOutcome, ExecutionResult, NextOp, Scheduler, StateSink,
    Tid,
};
use icb::workloads::registry::all_benchmarks;

#[test]
fn no_strategy_reports_false_positives_on_correct_variants() {
    for bench in all_benchmarks() {
        let program = (bench.correct)();
        let budget = 400;
        let random = Search::over(&program)
            .strategy(Strategy::Random { seed: 99 })
            .config(SearchConfig::with_max_executions(budget))
            .run()
            .unwrap();
        assert!(
            random.bugs.is_empty(),
            "{}: random search false positive: {:?}",
            bench.name,
            random.bugs.first().map(|b| &b.outcome)
        );
        let icb = Search::over(&program)
            .config(SearchConfig::with_max_executions(budget))
            .run()
            .unwrap();
        assert!(
            icb.bugs.is_empty(),
            "{}: icb false positive: {:?}",
            bench.name,
            icb.bugs.first().map(|b| &b.outcome)
        );
        let bf = Search::over(&program)
            .strategy(Strategy::BestFirst)
            .config(SearchConfig::with_max_executions(budget))
            .run()
            .unwrap();
        assert!(
            bf.bugs.is_empty(),
            "{}: best-first false positive: {:?}",
            bench.name,
            bf.bugs.first().map(|b| &b.outcome)
        );
    }
}

#[test]
fn every_seeded_bug_is_found_by_icb_at_its_expected_bound() {
    for bench in all_benchmarks() {
        for bug in &bench.bugs {
            let program = (bug.build)();
            let found = Search::over(&program)
                .config(SearchConfig {
                    max_executions: Some(500_000),
                    stop_on_first_bug: true,
                    fault_bound: bug.expected_faults,
                    ..SearchConfig::default()
                })
                .run()
                .unwrap()
                .bugs
                .into_iter()
                .next()
                .unwrap_or_else(|| panic!("{}/{} not found", bench.name, bug.name));
            assert_eq!(
                (found.preemptions, found.faults),
                (bug.expected_bound, bug.expected_faults),
                "{}/{}: bound drifted",
                bench.name,
                bug.name
            );
        }
    }
}

#[test]
fn fault_bugs_are_invisible_below_their_fault_bound() {
    // The fault dimension is real: searching the fault-dependent bugs
    // with fault_bound 0 — even exhaustively — finds nothing.
    for bench in all_benchmarks() {
        for bug in bench.bugs.iter().filter(|bug| bug.expected_faults > 0) {
            let program = (bug.build)();
            let report = Search::over(&program)
                .config(SearchConfig::with_max_executions(100_000))
                .run()
                .unwrap();
            assert!(
                report.completed,
                "{}/{}: fault-free space must exhaust",
                bench.name, bug.name
            );
            assert!(
                report.bugs.is_empty(),
                "{}/{}: found without faults: {:?}",
                bench.name,
                bug.name,
                report.bugs
            );
        }
    }
}

/// The `(c, f)` ablation grid: both fault-dependent bugs, plus the
/// Bluetooth driver bug as the preemption-only control, searched at
/// every `c ∈ 0..=2`, `f ∈ 0..=2`. A fault bug is absent from the whole
/// `f = 0` column and found at the minimum `(0 preemptions, 1 fault)`
/// wherever `f` reaches its expected faults. The control row does not
/// move with `f`: Bluetooth designates no fallible operations, so the
/// wider search explores the same executions and states and reports
/// the same witness.
#[test]
fn fault_grid_separates_fault_bugs_from_preemption_bugs() {
    const ROWS: [(&str, &str); 3] = [
        ("Fault Injection", "shed-on-try-lock-failure"),
        ("Fault Injection", "missing-spurious-recheck"),
        ("Bluetooth", "check-then-increment"),
    ];
    let benches = all_benchmarks();
    for (workload, bug) in ROWS {
        let spec = benches
            .iter()
            .find(|b| b.name == workload)
            .and_then(|b| b.bugs.iter().find(|s| s.name == bug))
            .unwrap_or_else(|| panic!("{workload} has no bug {bug}"));
        for c in 0..=2 {
            let row: Vec<_> = (0..=2)
                .map(|f| {
                    let program = (spec.build)();
                    let report = Search::over(&program)
                        .config(SearchConfig {
                            max_executions: Some(200_000),
                            preemption_bound: Some(c),
                            fault_bound: f,
                            ..SearchConfig::default()
                        })
                        .run()
                        .unwrap();
                    let witness = report
                        .first_bug()
                        .map(|b| (b.preemptions, b.faults, b.schedule.clone()));
                    let level = witness.as_ref().map(|&(p, f, _)| (p, f));
                    if spec.expected_faults > 0 && f == 0 {
                        assert_eq!(level, None, "{bug} at (c={c}, f=0): found without faults");
                    }
                    if spec.expected_faults > 0 && f >= spec.expected_faults {
                        assert_eq!(level, Some((0, 1)), "{bug} at (c={c}, f={f})");
                    }
                    (report.executions, report.distinct_states, witness)
                })
                .collect();
            if spec.expected_faults == 0 {
                assert!(
                    row.iter().all(|cell| *cell == row[0]),
                    "{bug} at c={c}: the control row moved with f: {row:?}"
                );
            }
        }
    }
}

/// A program that violates the determinism contract: its enabled sets
/// depend on how often it has run.
struct FlipFlop {
    runs: AtomicUsize,
}

impl ControlledProgram for FlipFlop {
    fn execute(&self, scheduler: &mut dyn Scheduler, _sink: &mut dyn StateSink) -> ExecutionResult {
        let run = self.runs.fetch_add(1, Ordering::Relaxed);
        let mut decisions = Decisions::new(scheduler);
        // Thread count flips between runs: any schedule recorded on one
        // run diverges on the next.
        let threads = if run.is_multiple_of(2) { 2 } else { 1 };
        let mut done = vec![false; threads];
        loop {
            let enabled: Vec<Tid> = (0..threads).filter(|&i| !done[i]).map(Tid).collect();
            if enabled.is_empty() {
                break;
            }
            let (chosen, _) = decisions.next(enabled, |_| NextOp::default());
            done[chosen.index()] = true;
        }
        decisions.finish(ExecutionOutcome::Terminated)
    }
}

#[test]
fn replay_divergence_is_quarantined_not_a_wrong_answer() {
    // Nondeterministic programs violate the ControlledProgram contract;
    // the search quarantines each diverging trace and forfeits the
    // subtree rooted there instead of crashing or silently exploring
    // garbage — and never reports the divergence as a program bug.
    let program = FlipFlop {
        runs: AtomicUsize::new(0),
    };
    let report = Search::over(&program)
        .config(SearchConfig::with_max_executions(100))
        .run()
        .unwrap();
    assert!(
        report.bugs.is_empty() && report.buggy_executions == 0,
        "divergence is not a program bug: {report:?}"
    );
    assert!(
        report.quarantined_total >= 1,
        "the diverging trace must be quarantined: {report:?}"
    );
    let text = report.to_string();
    assert!(
        text.contains("quarantined") && text.contains("forfeited"),
        "the report must state the forfeited space: {text}"
    );
}

#[test]
fn bug_report_cap_limits_memory_not_detection() {
    // A program failing in many interleavings: the report keeps at most
    // `max_bug_reports` but counts every buggy execution.
    use icb::statevm::ModelBuilder;
    let mut m = ModelBuilder::new();
    let g = m.global("g", 0);
    for _ in 0..2 {
        m.thread("w", |t| {
            let v = t.local();
            t.fetch_add(g, 1, v);
            t.load(g, v);
            t.assert(v.eq(1), "observes the other writer"); // fails often
        });
    }
    let model = m.build();
    let report = Search::over(&model)
        .config(SearchConfig {
            max_bug_reports: 2,
            ..SearchConfig::default()
        })
        .run()
        .unwrap();
    assert_eq!(report.bugs.len(), 2);
    assert!(report.buggy_executions > 2);
}

/// A bound-`c` search of an exact-fingerprint VM model, with a cache and
/// a budget of one execution more than it needs, certifies bound `c`:
/// the work it defers past `c` never runs, so it cannot overflow the
/// queue (capped at the budget left) and truncate the run.
#[test]
fn a_tight_budget_still_certifies_the_target_bound() {
    use icb::cache::CacheStore;
    use icb::core::ExplorationCache;

    let model = all_benchmarks()
        .into_iter()
        .find(|b| b.name == "Work Stealing Q.")
        .and_then(|b| b.vm_model)
        .expect("the work-stealing queue has a VM model")();
    assert!(model.fingerprints_are_exact());
    let c = 2;
    let root = std::env::temp_dir().join(format!("icb-tight-certify-{}", std::process::id()));
    let run = |store: &str, max_executions: usize| {
        let store = CacheStore::open(&root.join(store), 1).unwrap();
        let report = Search::over(&model)
            .config(SearchConfig {
                preemption_bound: Some(c),
                max_executions: Some(max_executions),
                ..SearchConfig::default()
            })
            .cache(&store)
            .run()
            .unwrap();
        (report, store)
    };
    let (roomy, _) = run("roomy", 1_000_000);
    assert!(roomy.executions > 1, "{roomy}");
    let (tight, store) = run("tight", roomy.executions + 1);
    let _ = std::fs::remove_dir_all(&root);
    assert_eq!(tight.executions, roomy.executions);
    assert!(!tight.truncated, "{tight}");
    assert_eq!(tight.completed_bound, Some(c));
    assert!(
        store.find_certification("icb", Some(c), 0).is_some(),
        "bound {c} not certified: {tight}"
    );
}

/// On the exact-fingerprint VM models, a cache changes what a search
/// costs, never what it finds: uncached, cold-cache and warm-cache runs
/// agree on coverage and bugs, the cold run stores its subtrees, and
/// the warm run is answered from the certification ledger without
/// executing anything.
#[test]
fn exact_cache_runs_agree_with_the_uncached_run() {
    use icb::cache::CacheStore;

    let root = std::env::temp_dir().join(format!("icb-cache-agree-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let config = SearchConfig {
        preemption_bound: Some(2),
        ..SearchConfig::default()
    };
    for name in ["Transaction Manager", "Work Stealing Q."] {
        let model = all_benchmarks()
            .into_iter()
            .find(|b| b.name == name)
            .and_then(|b| b.vm_model)
            .unwrap_or_else(|| panic!("{name} has a VM model"))();
        assert!(model.fingerprints_are_exact());
        let dir = root.join(name.replace(' ', "-"));
        let cached = || {
            let store = CacheStore::open(&dir, 1).unwrap();
            Search::over(&model)
                .config(config.clone())
                .cache(&store)
                .run()
                .unwrap()
        };
        let uncached = Search::over(&model).config(config.clone()).run().unwrap();
        let cold = cached();
        let warm = cached();
        for (label, run) in [("cold", &cold), ("warm", &warm)] {
            assert_eq!(
                run.distinct_states, uncached.distinct_states,
                "{name}: {label} coverage"
            );
            assert_eq!(run.bugs.len(), uncached.bugs.len(), "{name}: {label} bugs");
        }
        assert!(
            cold.cache.as_ref().is_some_and(|c| c.stores > 0),
            "{name}: the cold run stores nothing: {cold}"
        );
        assert!(
            warm.cache.as_ref().is_some_and(|c| c.certified),
            "{name}: the warm run is not certified: {warm}"
        );
        assert_eq!(warm.executions, 0, "{name}: the ledger must answer: {warm}");
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// A runtime program's happens-before fingerprints are heuristic: the
/// cached run is labelled non-exhaustive and never certifies, yet finds
/// as many bugs as the uncached run.
#[test]
fn heuristic_cache_is_labelled_and_keeps_the_verdict() {
    use icb::cache::CacheStore;

    let program = all_benchmarks()
        .into_iter()
        .find(|b| b.name == "Bluetooth")
        .map(|b| (b.correct)())
        .expect("the Bluetooth benchmark");
    assert!(!program.fingerprints_are_exact());
    let dir = std::env::temp_dir().join(format!("icb-cache-heuristic-{}", std::process::id()));
    let config = SearchConfig {
        preemption_bound: Some(2),
        ..SearchConfig::default()
    };
    let uncached = Search::over(&program).config(config.clone()).run().unwrap();
    let store = CacheStore::open(&dir, 1).unwrap();
    let cached = Search::over(&program)
        .config(config)
        .cache(&store)
        .cache_heuristic(true)
        .run()
        .unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(cached.bugs.len(), uncached.bugs.len());
    assert!(
        cached
            .cache
            .as_ref()
            .is_some_and(|c| c.heuristic && !c.certified),
        "{cached}"
    );
}
