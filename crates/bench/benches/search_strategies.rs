//! Benchmarks of the search strategies: executions per second and cost
//! per explored execution for ICB against the baselines, on the paper's
//! two smallest benchmarks — plus the telemetry overhead check (a
//! `NoopObserver` search against one streaming JSONL into a null writer).

use icb_bench::harness::Harness;
use icb_core::search::{Search, SearchConfig, Strategy};
use icb_telemetry::JsonlSink;
use icb_workloads::bluetooth::{bluetooth_model, BluetoothVariant};
use icb_workloads::wsq::{wsq_model, WsqVariant};

fn strategy_throughput(c: &mut Harness) {
    let mut group = c.group("strategy_throughput_wsq");
    group.sample_size(10);
    let model = wsq_model(WsqVariant::Correct, 3, 2);
    let budget = 500;
    let config = SearchConfig::with_max_executions(budget);
    let strategies = [
        Strategy::Icb,
        Strategy::Dfs,
        Strategy::DepthBounded(20),
        Strategy::Random { seed: 7 },
    ];
    for strategy in strategies {
        group.bench_function(&strategy.label(), || {
            Search::over(&model)
                .strategy(strategy)
                .config(config.clone())
                .run()
                .unwrap()
        });
    }
    group.finish();
}

fn icb_bug_hunt(c: &mut Harness) {
    let mut group = c.group("bug_hunt_bluetooth_vm");
    group.sample_size(10);
    let model = bluetooth_model(BluetoothVariant::Buggy, 2);
    group.bench_function("icb_find_minimal_bug", || {
        Search::over(&model)
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
            .expect("bug exists")
    });
    group.bench_function("dfs_find_any_bug", || {
        let report = Search::over(&model)
            .strategy(Strategy::Dfs)
            .config(SearchConfig {
                stop_on_first_bug: true,
                ..SearchConfig::default()
            })
            .run()
            .unwrap();
        assert!(!report.bugs.is_empty());
        report
    });
    group.finish();
}

fn icb_exhaustive_by_bound(c: &mut Harness) {
    let mut group = c.group("icb_exhaust_wsq_by_bound");
    group.sample_size(10);
    let model = wsq_model(WsqVariant::Correct, 3, 2);
    for bound in [0usize, 1, 2] {
        group.bench_function(&bound.to_string(), || {
            Search::over(&model)
                .config(SearchConfig {
                    preemption_bound: Some(bound),
                    ..SearchConfig::default()
                })
                .run()
                .unwrap()
        });
    }
    group.finish();
}

/// The tentpole's zero-cost claim: a search driven through the
/// `NoopObserver` must cost the same as the plain `search()` path, and
/// encoding every event as JSONL (into `io::sink()`) is the observer
/// cost on top.
fn observer_overhead(c: &mut Harness) {
    let mut group = c.group("observer_overhead");
    group.sample_size(10);
    let model = wsq_model(WsqVariant::Correct, 3, 2);
    let config = SearchConfig::with_max_executions(500);
    group.bench_function("noop", || {
        Search::over(&model).config(config.clone()).run().unwrap()
    });
    group.bench_function("jsonl_sink", || {
        let mut sink = JsonlSink::new(std::io::sink());
        Search::over(&model)
            .config(config.clone())
            .observer(&mut sink)
            .run()
            .unwrap()
    });
    group.finish();
}

fn main() {
    let mut harness = Harness::from_args();
    strategy_throughput(&mut harness);
    icb_bug_hunt(&mut harness);
    icb_exhaustive_by_bound(&mut harness);
    observer_overhead(&mut harness);
}
