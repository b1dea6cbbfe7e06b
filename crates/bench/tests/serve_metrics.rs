//! End-to-end checks of the live introspection layer: a parallel search
//! wired to a [`MetricsRegistry`] and served over [`MetricsServer`] must
//! expose an `icb_executions_total` that agrees *exactly* with the final
//! [`SearchReport`], and the `explore` binary must honour
//! `--serve-metrics` / `top --once` end to end.

use std::process::Command;
use std::sync::Arc;

use icb_core::search::{Search, SearchConfig};
use icb_core::MetricsRegistry;
use icb_telemetry::{parse_exposition, scrape, series_value, MetricsServer};
use icb_workloads::registry::all_benchmarks;

#[test]
fn served_executions_match_the_final_report_at_jobs_2() {
    let bench = all_benchmarks()
        .into_iter()
        .find(|b| b.name == "Bluetooth")
        .expect("Bluetooth workload");
    let program = (bench.correct)();

    let registry = Arc::new(MetricsRegistry::new());
    let server = MetricsServer::start("127.0.0.1:0", Arc::clone(&registry)).unwrap();
    let addr = server.addr();

    let report = Search::over(&program)
        .config(SearchConfig {
            preemption_bound: Some(2),
            ..SearchConfig::default()
        })
        .jobs(2)
        .metrics(Arc::clone(&registry))
        .run()
        .unwrap();

    // Scrape *after* the run: the search's ledger pins the registry's
    // cumulative totals to the final report before `search_finished`,
    // so the page and the report must agree to the execution.
    let parsed = parse_exposition(&scrape(addr).unwrap());
    assert_eq!(
        series_value(&parsed, "icb_executions_total"),
        Some(report.executions as f64),
        "served counter diverged from the report"
    );
    assert_eq!(
        series_value(&parsed, "icb_distinct_states"),
        Some(report.distinct_states as f64),
    );
    assert_eq!(series_value(&parsed, "icb_workers"), Some(2.0));
    // Both workers did measurable work and their per-worker execution
    // counters sum to at least the report's total (stolen work items
    // replay shared prefixes, so the sum may exceed it — never trail it).
    let per_worker: f64 = (0..2)
        .map(|w| {
            series_value(
                &parsed,
                &format!("icb_worker_executions_total{{worker=\"{w}\"}}"),
            )
            .unwrap_or(0.0)
        })
        .sum();
    assert!(
        per_worker >= report.executions as f64,
        "per-worker counters {per_worker} trail the report {}",
        report.executions
    );
    server.shutdown();
}

#[test]
fn explore_serves_metrics_and_top_renders_a_frame() {
    let output = Command::new(env!("CARGO_BIN_EXE_explore"))
        .args([
            "run",
            "Bluetooth",
            "--bound",
            "2",
            "--jobs",
            "2",
            "--serve-metrics",
            "127.0.0.1:0",
        ])
        .output()
        .expect("explore runs");
    assert!(
        output.status.success(),
        "explore failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("serving metrics at http://127.0.0.1:"),
        "no serving banner: {stderr}"
    );

    // `explore top` against a dead endpoint reports a scrape error
    // rather than hanging or panicking.
    let dead = Command::new(env!("CARGO_BIN_EXE_explore"))
        .args(["top", "127.0.0.1:1", "--once"])
        .output()
        .expect("explore top runs");
    assert!(!dead.status.success());
    assert!(
        String::from_utf8_lossy(&dead.stderr).contains("cannot scrape"),
        "unexpected top failure mode"
    );

    // And against a live one it renders a frame and exits with --once.
    let registry = Arc::new(MetricsRegistry::new());
    registry.set_strategy("icb");
    registry.set_workers(1);
    registry.record_execution(
        42,
        &icb_core::ExecStats::default(),
        &icb_core::ExecutionOutcome::Terminated,
        7,
    );
    let server = MetricsServer::start("127.0.0.1:0", Arc::clone(&registry)).unwrap();
    let top = Command::new(env!("CARGO_BIN_EXE_explore"))
        .args(["top", &server.addr().to_string(), "--once"])
        .output()
        .expect("explore top runs");
    server.shutdown();
    assert!(
        top.status.success(),
        "top failed: {}",
        String::from_utf8_lossy(&top.stderr)
    );
    let frame = String::from_utf8_lossy(&top.stdout);
    assert!(frame.contains("[icb]"), "{frame}");
    assert!(frame.contains("42 execs"), "{frame}");
}

/// The executions of the report `explore run` prints: `[icb] N
/// executions, …`.
fn reported_executions(stdout: &str) -> usize {
    stdout
        .lines()
        .find_map(|l| {
            l.strip_prefix("[icb] ")?
                .split_once(" executions, ")?
                .0
                .parse()
                .ok()
        })
        .unwrap_or_else(|| panic!("no executions line: {stdout}"))
}

#[test]
fn progress_renders_the_search_registry() {
    for jobs in ["1", "2"] {
        for serve in [false, true] {
            let mut args = vec![
                "run",
                "Bluetooth",
                "--bound",
                "2",
                "--progress",
                "--jobs",
                jobs,
            ];
            if serve {
                args.extend(["--serve-metrics", "127.0.0.1:0"]);
            }
            let output = Command::new(env!("CARGO_BIN_EXE_explore"))
                .args(&args)
                .output()
                .expect("explore runs");
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert!(output.status.success(), "{args:?}: {stderr}");
            for k in 0..=2 {
                assert!(
                    stderr.contains(&format!("] entering bound {k} (")),
                    "{args:?}: no entering bound {k}: {stderr}"
                );
                assert!(
                    stderr.contains(&format!("] bound {k} done: ")),
                    "{args:?}: no bound {k} done: {stderr}"
                );
            }
            let last: usize = stderr
                .lines()
                .rev()
                .find_map(|l| {
                    l.strip_prefix("[icb] ")?
                        .split_once(" execs")?
                        .0
                        .parse()
                        .ok()
                })
                .unwrap_or_else(|| panic!("{args:?}: no status line: {stderr}"));
            let stdout = String::from_utf8_lossy(&output.stdout);
            assert_eq!(last, reported_executions(&stdout), "{args:?}: {stderr}");
        }
    }
}
