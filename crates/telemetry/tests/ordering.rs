//! Event-grammar tests: the invariants documented on
//! [`SearchObserver`](icb_core::SearchObserver) hold for real searches,
//! as recorded by an [`EventLog`].

use icb_core::search::{Search, SearchConfig, Strategy};
use icb_core::{
    ControlledProgram, Decisions, ExecutionOutcome, ExecutionResult, NextOp, Scheduler, SiteId,
    StateSink, Tid,
};
use icb_telemetry::{Event, EventLog, MultiObserver};

/// Two threads of two steps each. When `buggy`, every execution whose
/// first step belongs to thread 1 fails an assertion — three of the six
/// schedules, so bug caps and counters are exercised.
struct TwoByTwo {
    buggy: bool,
}

impl ControlledProgram for TwoByTwo {
    fn execute(&self, scheduler: &mut dyn Scheduler, _sink: &mut dyn StateSink) -> ExecutionResult {
        let mut left = [2usize, 2];
        let mut decisions = Decisions::new(scheduler);
        let mut first: Option<Tid> = None;
        loop {
            let enabled: Vec<Tid> = (0..2).filter(|&i| left[i] > 0).map(Tid).collect();
            if enabled.is_empty() {
                break;
            }
            let (chosen, _) = decisions.next(enabled, |t| NextOp {
                site: SiteId::at(t.index() as u32, "step", left[t.index()] as u32),
                ..NextOp::default()
            });
            left[chosen.index()] -= 1;
            first.get_or_insert(chosen);
        }
        let outcome = if self.buggy && first == Some(Tid(1)) {
            ExecutionOutcome::AssertionFailure {
                thread: Tid(1),
                message: "thread 1 ran first".to_string(),
            }
        } else {
            ExecutionOutcome::Terminated
        };
        decisions.finish(outcome)
    }
}

/// Replays an event log against the grammar: `search-started` first,
/// `search-finished` last, every `execution-started` paired with the
/// matching `execution-finished`, indices 1-based and consecutive.
fn check_execution_pairing(log: &EventLog) {
    let events = log.events();
    assert!(matches!(events.first(), Some(Event::SearchStarted { .. })));
    assert!(matches!(events.last(), Some(Event::SearchFinished { .. })));
    let mut open: Option<usize> = None;
    let mut finished = 0usize;
    for event in events {
        match event {
            Event::ExecutionStarted { index } => {
                assert_eq!(open, None, "execution {index} started while one is open");
                assert_eq!(*index, finished + 1, "indices are 1-based and consecutive");
                open = Some(*index);
            }
            Event::ExecutionFinished { index, .. } => {
                assert_eq!(open, Some(*index), "finish pairs with the open start");
                open = None;
                finished += 1;
            }
            _ => {}
        }
    }
    assert_eq!(open, None, "no execution left open at search end");
}

fn final_report(log: &EventLog) -> &icb_core::search::SearchReport {
    match log.events().last() {
        Some(Event::SearchFinished { report }) => report,
        other => panic!("expected search-finished last, got {other:?}"),
    }
}

#[test]
fn icb_events_pair_and_count() {
    let mut log = EventLog::new();
    let program = TwoByTwo { buggy: false };
    let report = Search::over(&program)
        .config(SearchConfig::default())
        .observer(&mut log)
        .run()
        .unwrap();
    check_execution_pairing(&log);
    let starts = log
        .events()
        .iter()
        .filter(|e| matches!(e, Event::ExecutionStarted { .. }))
        .count();
    assert_eq!(starts, report.executions);
    assert_eq!(final_report(&log).executions, report.executions);
}

#[test]
fn dfs_events_pair_too() {
    let mut log = EventLog::new();
    let program = TwoByTwo { buggy: true };
    let report = Search::over(&program)
        .strategy(Strategy::Dfs)
        .config(SearchConfig::default())
        .observer(&mut log)
        .run()
        .unwrap();
    check_execution_pairing(&log);
    assert_eq!(report.executions, 6);
    assert_eq!(report.buggy_executions, 3);
}

/// `bound-completed` events carry exactly the rows of the final
/// `SearchReport::bound_stats`, in increasing bound order.
#[test]
fn bound_completed_matches_bound_stats() {
    let mut log = EventLog::new();
    let program = TwoByTwo { buggy: true };
    let report = Search::over(&program)
        .config(SearchConfig::default())
        .observer(&mut log)
        .run()
        .unwrap();
    let from_events: Vec<_> = log
        .events()
        .iter()
        .filter_map(|e| match e {
            Event::BoundCompleted { stats, .. } => Some(*stats),
            _ => None,
        })
        .collect();
    assert_eq!(from_events, report.bound_stats());
    assert!(
        from_events.windows(2).all(|w| w[0].bound < w[1].bound),
        "bounds strictly increase"
    );
    assert_eq!(
        from_events.iter().map(|s| s.executions).sum::<usize>(),
        report.executions,
        "per-bound executions sum to the total"
    );
}

/// `bug-found` fires once per *recorded* report: all buggy executions
/// when under the cap, exactly `max_bug_reports` when over it, and once
/// under `stop_on_first_bug`.
#[test]
fn bug_found_respects_the_report_cap() {
    let bug_events = |config: SearchConfig| {
        let mut log = EventLog::new();
        let program = TwoByTwo { buggy: true };
        let report = Search::over(&program)
            .config(config)
            .observer(&mut log)
            .run()
            .unwrap();
        let fired = log
            .events()
            .iter()
            .filter(|e| matches!(e, Event::BugFound { .. }))
            .count();
        assert_eq!(fired, report.bugs.len());
        (fired, report)
    };

    let (fired, report) = bug_events(SearchConfig::default());
    assert_eq!(report.buggy_executions, 3);
    assert_eq!(fired, 3);

    let (fired, report) = bug_events(SearchConfig {
        max_bug_reports: 2,
        ..SearchConfig::default()
    });
    assert_eq!(report.buggy_executions, 3);
    assert_eq!(fired, 2, "capped at max_bug_reports");

    let (fired, report) = bug_events(SearchConfig {
        stop_on_first_bug: true,
        ..SearchConfig::default()
    });
    assert_eq!(fired, 1);
    assert!(report.buggy_executions >= 1);
}

/// Attributed events are batched per execution: every `choice-point` and
/// `preemption-taken` falls between an `execution-started` and its
/// `execution-finished`, with one choice point per step and one
/// preemption-taken per counted preemption.
fn check_choice_point_batching(log: &EventLog, name: &str) {
    let mut open = false;
    let mut choices = 0usize;
    let mut preemptions = 0usize;
    let mut saw_any = false;
    for event in log.events() {
        match event {
            Event::ExecutionStarted { .. } => {
                open = true;
                choices = 0;
                preemptions = 0;
            }
            Event::ChoicePoint { site, .. } => {
                assert!(open, "{name}: choice-point outside an execution");
                assert!(!site.is_unknown(), "{name}: host resolved the site");
                choices += 1;
                saw_any = true;
            }
            Event::PreemptionTaken { site } => {
                assert!(open, "{name}: preemption-taken outside an execution");
                assert!(!site.is_unknown(), "{name}: victim site resolved");
                preemptions += 1;
            }
            Event::ExecutionFinished { stats, .. } => {
                assert!(open, "{name}: finish without start");
                assert_eq!(choices, stats.steps, "{name}: one choice-point per step");
                assert_eq!(
                    preemptions, stats.preemptions,
                    "{name}: preemption-taken mirrors the preemption count"
                );
                open = false;
            }
            _ => {}
        }
    }
    assert!(saw_any, "{name}: attributed events were emitted");
}

/// `MultiObserver` fan-out delivers the identical, identically-ordered
/// event stream to every member, under all five search strategies — and
/// the attributed events obey the per-execution batching grammar in each.
#[test]
fn multi_observer_fans_out_identically_under_every_strategy() {
    let budget = SearchConfig {
        max_executions: Some(40),
        ..SearchConfig::default()
    };
    let strategies: Vec<(&str, Strategy, SearchConfig)> = vec![
        ("icb", Strategy::Icb, SearchConfig::default()),
        ("dfs", Strategy::Dfs, SearchConfig::default()),
        (
            "idfs",
            Strategy::IterativeDeepening {
                start: 2,
                step: 2,
                max: 6,
            },
            SearchConfig::default(),
        ),
        ("random", Strategy::Random { seed: 0x1cb }, budget),
        ("best-first", Strategy::BestFirst, SearchConfig::default()),
    ];
    for (name, strategy, config) in strategies {
        let mut a = EventLog::new();
        let mut b = EventLog::new();
        let mut multi = MultiObserver::new().with(&mut a).with(&mut b);
        let program = TwoByTwo { buggy: true };
        Search::over(&program)
            .strategy(strategy)
            .config(config)
            .observer(&mut multi)
            .run()
            .unwrap();
        drop(multi);
        assert_eq!(a.events().len(), b.events().len(), "{name}: equal length");
        assert!(!a.events().is_empty(), "{name}: events were recorded");
        for (ea, eb) in a.events().iter().zip(b.events()) {
            assert_eq!(ea.kind(), eb.kind(), "{name}: same order in both logs");
        }
        check_choice_point_batching(&a, name);
        check_choice_point_batching(&b, name);
    }
}

/// Three threads of four steps each over one lock and a shared counter:
/// acquire (blocks while another thread holds the lock), a fallible
/// increment (an injected fault loses the update), release, then a
/// check. Thread 1 fails its check when it sees only its own increment;
/// a lost update fails the final join check. Blocking, nonpreempting
/// branches, faults, bugs and state fingerprints all occur, so the
/// pinned streams below exercise every per-execution event.
struct Pinned;

impl ControlledProgram for Pinned {
    fn execute(&self, scheduler: &mut dyn Scheduler, sink: &mut dyn StateSink) -> ExecutionResult {
        const THREADS: usize = 3;
        let mut pc = [0usize; THREADS];
        let mut lock: Option<usize> = None;
        let mut counter = 0u32;
        let mut decisions = Decisions::new(scheduler);
        let mut failure = None;
        loop {
            let enabled: Vec<Tid> = (0..THREADS)
                .filter(|&t| pc[t] < 4 && !(pc[t] == 0 && lock.is_some()))
                .map(Tid)
                .collect();
            if enabled.is_empty() {
                break;
            }
            let (chosen, fault) = decisions.next(enabled, |t| {
                let pc = pc[t.index()];
                let class = ["acquire", "incr", "release", "check"][pc];
                NextOp {
                    site: SiteId::at(t.index() as u32, class, pc as u32),
                    blocking: pc == 0,
                    fallible: pc == 1,
                }
            });
            let t = chosen.index();
            match pc[t] {
                0 => lock = Some(t),
                1 => {
                    if !fault {
                        counter += 1;
                    }
                }
                2 => lock = None,
                _ => {
                    if t == 1 && counter == 1 && failure.is_none() {
                        failure = Some("thread 1 saw only its own increment".to_string());
                    }
                }
            }
            pc[t] += 1;
            let mut bytes = vec![lock.map_or(9, |l| l as u8), counter as u8];
            bytes.extend(pc.iter().map(|&p| p as u8));
            sink.visit(icb_core::coverage::fingerprint_bytes(&bytes));
        }
        if failure.is_none() && counter != THREADS as u32 {
            failure = Some(format!("lost update: counter {counter}"));
        }
        let outcome = match failure {
            Some(message) => ExecutionOutcome::AssertionFailure {
                thread: Tid(1),
                message,
            },
            None => ExecutionOutcome::Terminated,
        };
        decisions.finish(outcome)
    }

    fn fingerprints_are_exact(&self) -> bool {
        true
    }
}

/// An in-memory fingerprint cache: a subtree is covered when it was
/// recorded with at least the queried credit.
#[derive(Default)]
struct MapCache(std::sync::Mutex<std::collections::HashMap<(u64, Tid), u32>>);

impl icb_core::ExplorationCache for MapCache {
    fn probe(&self, state: u64, choice: Tid, credit: u32) -> bool {
        let mut map = self.0.lock().unwrap();
        match map.get(&(state, choice)) {
            Some(&have) if have >= credit => true,
            _ => {
                map.insert((state, choice), credit);
                false
            }
        }
    }
}

/// A stable digest of a value's `Debug` rendering (FNV-1a 64).
fn digest(text: &str) -> u64 {
    icb_core::coverage::fingerprint_bytes(text.as_bytes())
}

/// Digests of the `jobs = 1` report and event log (wall times zeroed)
/// of one search over [`Pinned`].
fn pinned_digests(name: &str) -> (u64, u64) {
    let program = Pinned;
    let mut log = EventLog::new();
    let cache = MapCache::default();
    let path = std::env::temp_dir().join(format!("icb-pinned-{}.ck", std::process::id()));
    let search = Search::over(&program).observer(&mut log);
    let search = match name {
        "icb f=0" => search,
        "icb f=1" => search.config(SearchConfig {
            fault_bound: 1,
            preemption_bound: Some(2),
            ..SearchConfig::default()
        }),
        "icb cache" => search.cache(&cache),
        "icb checkpoint" => search.checkpoint(icb_core::Checkpointer::new(&path, 1)),
        "dfs" => search
            .strategy(Strategy::Dfs)
            .config(SearchConfig::bug_hunt()),
        "db:5" => search.strategy(Strategy::DepthBounded(5)),
        "idfs" => search.strategy(Strategy::IterativeDeepening {
            start: 2,
            step: 3,
            max: 12,
        }),
        "best-first" => search
            .strategy(Strategy::BestFirst)
            .config(SearchConfig::with_max_executions(60)),
        other => unreachable!("no pinned search `{other}`"),
    };
    let report = search.run().unwrap();
    let _ = std::fs::remove_file(&path);
    let events: Vec<Event> = log
        .into_events()
        .into_iter()
        .map(|event| match event {
            Event::BoundCompleted { stats, .. } => Event::BoundCompleted {
                stats,
                wall_time: std::time::Duration::ZERO,
            },
            Event::PhaseTime { phase, .. } => Event::PhaseTime {
                phase,
                elapsed: std::time::Duration::ZERO,
            },
            other => other,
        })
        .collect();
    (
        digest(&format!("{report:?}")),
        digest(&format!("{events:?}")),
    )
}

/// The `jobs = 1` reports and event streams are pinned: any change to
/// what a sequential search explores, reports or emits — and in which
/// order — changes a digest. Random walks are not pinned.
#[test]
fn sequential_reports_and_event_logs_are_pinned() {
    let pinned: [(&str, u64, u64); 8] = [
        ("icb f=0", 0xf12e75367cd6a059, 0x64f93f04103bfe86),
        ("icb f=1", 0xce7880b149bb4ad5, 0xae214b283a9a8ba7),
        ("icb cache", 0x8c0c0d7ff8f85454, 0x54ec2f044bbd4637),
        ("icb checkpoint", 0xf12e75367cd6a059, 0x653fa730e06b472a),
        ("dfs", 0x8e3726c4c580af69, 0xb9818c5c89291e84),
        ("db:5", 0x58dee43b95f29681, 0x89082a1f9d3cc59c),
        ("idfs", 0x06ded361f4dc752f, 0x4a4f3c8ba693d9eb),
        ("best-first", 0x6309180341e14c6e, 0xb31ab014dea9182b),
    ];
    let got: Vec<(&str, u64, u64)> = pinned
        .iter()
        .map(|&(name, _, _)| {
            let (report, events) = pinned_digests(name);
            (name, report, events)
        })
        .collect();
    assert_eq!(got, pinned, "pinned jobs = 1 digests changed");
}

/// Aborting on the first bug emits `search-aborted` exactly once, after
/// the `bug-found` and before `search-finished`.
#[test]
fn abort_is_emitted_once_and_ordered() {
    let mut log = EventLog::new();
    let program = TwoByTwo { buggy: true };
    Search::over(&program)
        .config(SearchConfig {
            stop_on_first_bug: true,
            ..SearchConfig::default()
        })
        .observer(&mut log)
        .run()
        .unwrap();
    let positions: Vec<usize> = log
        .events()
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e, Event::SearchAborted { .. }))
        .map(|(i, _)| i)
        .collect();
    assert_eq!(positions.len(), 1, "aborted exactly once");
    let bug_at = log
        .events()
        .iter()
        .position(|e| matches!(e, Event::BugFound { .. }))
        .expect("a bug is found");
    assert!(bug_at < positions[0]);
    // Only bound/queue bookkeeping for the current bound may follow the
    // abort — never another execution or bug.
    for event in &log.events()[positions[0] + 1..log.events().len() - 1] {
        assert!(
            matches!(
                event,
                Event::BoundCompleted { .. } | Event::WorkQueueDepth { .. }
            ),
            "unexpected event after abort: {event:?}"
        );
    }
}
