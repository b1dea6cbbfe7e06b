//! End-to-end checks of the report fold: `explore report` on a JSONL log
//! reproduces the per-bound table of an identical library-level search
//! exactly, `explore run --profile` prints the same tables as `explore
//! report` on that run's log, and the phase timers partition the search
//! wall-clock.

use std::process::Command;
use std::time::Duration;

use icb_core::search::{Search, SearchConfig};
use icb_telemetry::{JsonlSink, ReportBuilder};
use icb_workloads::registry::all_benchmarks;

const BUDGET: usize = 2000;
const BOUND: usize = 1;

fn bluetooth_config() -> SearchConfig {
    // Mirrors what `explore run --bound 1 --budget 2000` builds.
    SearchConfig {
        max_executions: Some(BUDGET),
        preemption_bound: Some(BOUND),
        stop_on_first_bug: true,
        ..SearchConfig::default()
    }
}

/// Runs the `explore` binary, asserting success; returns its stdout.
fn explore(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_explore"))
        .args(args)
        .output()
        .expect("explore runs");
    assert!(
        out.status.success(),
        "explore {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// Runs a bounded Bluetooth search through the `explore` binary with a
/// JSONL sink, renders the log with `explore report --markdown`, and
/// asserts the per-bound table matches `SearchReport::bound_stats` of the
/// identical library search, row for row.
#[test]
fn explore_report_reproduces_bound_stats() {
    let path = std::env::temp_dir().join(format!("icb-profile-test-{}.jsonl", std::process::id()));
    let log = path.display().to_string();
    explore(&[
        "run",
        "Bluetooth",
        "--bound",
        &BOUND.to_string(),
        "--budget",
        &BUDGET.to_string(),
        "--profile",
        "--telemetry",
        &format!("jsonl:{log}"),
    ]);
    let rendered = explore(&["report", &log, "--markdown"]);
    let _ = std::fs::remove_file(&path);

    // Pull the data rows of the "Per-bound results" markdown table:
    // | bound | executions | cumulative states | bugs | wall time |
    let mut rows: Vec<(usize, usize, usize, usize)> = Vec::new();
    let mut in_table = false;
    for line in rendered.lines() {
        if line.starts_with("## Per-bound results") {
            in_table = true;
            continue;
        }
        if !in_table {
            continue;
        }
        if line.starts_with("## ") {
            break;
        }
        let cells: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
        if cells.len() < 5 || cells[0].parse::<usize>().is_err() {
            continue; // header, separator, or blank
        }
        rows.push((
            cells[0].parse().unwrap(),
            cells[1].parse().unwrap(),
            cells[2].parse().unwrap(),
            cells[3].parse().unwrap(),
        ));
    }

    // The same search through the library.
    let bench = all_benchmarks()
        .into_iter()
        .find(|b| b.name == "Bluetooth")
        .expect("registered");
    let program = (bench.correct)();
    let report = Search::over(&program)
        .config(bluetooth_config())
        .run()
        .unwrap();
    let expected: Vec<(usize, usize, usize, usize)> = report
        .bound_stats()
        .iter()
        .map(|s| (s.bound, s.executions, s.cumulative_states, s.bugs_found))
        .collect();

    assert!(
        expected.len() >= 2,
        "bounds 0 and 1 both complete within the budget"
    );
    assert_eq!(rows, expected, "rendered table mirrors bound_stats exactly");

    // Headline totals survive the JSONL round trip too.
    assert!(
        rendered.contains(&format!(
            "{} executions, {} distinct states",
            report.executions, report.distinct_states
        )),
        "summary line carries the report totals:\n{rendered}"
    );
}

/// The cells of each line, minus those that hold wall time: durations
/// (`0.012s`) and shares of the run (`44.7%`).
fn without_wall_time(text: &str) -> Vec<Vec<&str>> {
    let wall_time = |cell: &str| {
        let number = cell.strip_suffix('s').or_else(|| cell.strip_suffix('%'));
        number.is_some_and(|n| n.parse::<f64>().is_ok())
    };
    text.lines()
        .map(|line| line.split_whitespace().filter(|c| !wall_time(c)).collect())
        .collect()
}

/// `--profile` folds the same event stream `--telemetry` writes, so the
/// tables a profiled run prints equal `explore report` on its log — at
/// one worker and at two (whose per-site counts vary run to run, but
/// not between the two views of one run).
#[test]
fn profile_tables_equal_report_of_the_same_log() {
    for jobs in ["1", "2"] {
        let path = std::env::temp_dir().join(format!(
            "icb-profile-live-{}-{jobs}.jsonl",
            std::process::id()
        ));
        let log = path.display().to_string();
        let run_out = explore(&[
            "run",
            "Bluetooth",
            "--bug",
            "check-then-increment",
            "--bound",
            "1",
            "--jobs",
            jobs,
            "--profile",
            "--telemetry",
            &format!("jsonl:{log}"),
        ]);
        let offline = explore(&["report", &log]);
        let _ = std::fs::remove_file(&path);

        // The run prints its summary before the tables and the witness
        // after them.
        let start = run_out.find("Run: ").expect("profile tables printed");
        let end = run_out.find("\nwitness: ").expect("bug found");
        let live = &run_out[start..end];
        assert!(live.contains("Hottest preemption sites"), "{live}");
        assert!(live.contains("Phase timing"), "{live}");
        assert_eq!(
            without_wall_time(live),
            without_wall_time(&offline),
            "--jobs {jobs}: live tables\n{live}\ndiffer from explore report\n{offline}"
        );
    }
}

/// The wall-clock phase timers partition the search: each phase accrues
/// real time, and replay + selection + race detection never exceeds the
/// total elapsed wall-clock (the remainder is the report's explicit
/// "other" row, so the four together account for 100% of the run).
#[test]
fn phase_timers_partition_wall_clock() {
    let bench = all_benchmarks()
        .into_iter()
        .find(|b| b.name == "Bluetooth")
        .expect("registered");
    let program = (bench.correct)();
    let mut sink = JsonlSink::new(ReportBuilder::new()).with_profile_events(true);
    Search::over(&program)
        .config(bluetooth_config())
        .observer(&mut sink)
        .run()
        .unwrap();
    let run = sink.into_inner().finish().expect("a complete log");

    let phases = run.phases;
    let elapsed = run.elapsed.expect("search finished");
    assert!(phases.replay > Duration::ZERO, "replay time accrued");
    assert!(
        phases.race_detection > Duration::ZERO,
        "detector time accrued"
    );
    assert!(phases.sum() > Duration::ZERO);
    // Partition property: the timers are disjoint slices of the run, so
    // their sum can never exceed the wall-clock that contains them.
    assert!(
        phases.sum() <= elapsed,
        "phases sum to {:?} > elapsed {:?}",
        phases.sum(),
        elapsed
    );
}
