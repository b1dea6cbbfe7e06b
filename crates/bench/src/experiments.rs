//! The experiments: one function per table/figure of the paper, and the
//! [`EXPERIMENTS`] table that names them for `all_experiments`.

use icb_core::bounds;
use icb_core::search::{Search, SearchConfig, Strategy};
use icb_core::{ControlledProgram, NullSink, ReplayScheduler};
use icb_statevm::{reachable_states, ExplicitConfig, ExplicitIcb, Model, ModelBuilder};
use icb_workloads::ape::{ape_program, ApeVariant};
use icb_workloads::dryad::{dryad_program, DryadVariant};
use icb_workloads::registry::all_benchmarks;
use icb_workloads::wsq::{wsq_model, WsqVariant};

use crate::{banner, header, print_curves_csv, row, run_timed};

/// Our source line counts, embedded at compile time so Table 1 can show
/// LOC for this reimplementation next to the paper's: the lines before
/// a workload's `#[cfg(test)]` module, so its unit tests do not count.
fn our_loc(name: &str) -> usize {
    let src: &str = match name {
        "Bluetooth" => include_str!("../../workloads/src/bluetooth.rs"),
        "File System Model" => include_str!("../../workloads/src/filesystem.rs"),
        "Work Stealing Q." => include_str!("../../workloads/src/wsq.rs"),
        "Transaction Manager" => include_str!("../../workloads/src/txnmgr.rs"),
        "APE" => include_str!("../../workloads/src/ape.rs"),
        "Dryad Channels" => include_str!("../../workloads/src/dryad.rs"),
        "Fault Injection" => include_str!("../../workloads/src/faultinj.rs"),
        _ => "",
    };
    src.lines()
        .take_while(|line| line.trim() != "#[cfg(test)]")
        .count()
}

/// Table 1: benchmark characteristics — threads, max K (steps), max B
/// (blocking steps), max c (preemptions) observed while exploring.
pub fn table1() {
    banner("Table 1 — benchmark characteristics");
    header(&[
        "Program",
        "Paper LOC",
        "Our LOC",
        "Threads",
        "Max K",
        "Max B",
        "Max c",
    ]);
    for bench in all_benchmarks() {
        let program = (bench.correct)();
        // Unbounded DFS maximizes observed preemptions; a budget keeps
        // the pass fast. K and B are schedule-independent maxima in
        // practice.
        let report = Search::over(&program)
            .strategy(Strategy::Dfs)
            .config(SearchConfig::with_max_executions(3_000))
            .run()
            .expect("valid configuration");
        // A workload the paper does not have has no paper LOC.
        let paper_loc = match bench.paper_loc {
            0 => "—".to_string(),
            loc => loc.to_string(),
        };
        row(&[
            bench.name.to_string(),
            paper_loc,
            our_loc(bench.name).to_string(),
            bench.paper_threads.to_string(),
            report.max_stats.steps.to_string(),
            report.max_stats.blocking_steps.to_string(),
            report.max_stats.preemptions.to_string(),
        ]);
    }
}

/// Table 2: for every seeded bug, the minimal `(preemptions, faults)`
/// at which iterative context bounding exposes it. Each bug is searched
/// at its own fault bound, so a fault-dependent bug can be found.
pub fn table2() {
    banner("Table 2 — bugs by context bound");
    let benches = all_benchmarks();

    println!("Per-bug minimal bounds (measured by ICB):");
    println!();
    header(&["Program", "Bug", "Minimal bound", "Faults", "Outcome"]);
    let mut matrix: Vec<(String, [usize; 4])> = Vec::new();
    for bench in &benches {
        if bench.bugs.is_empty() {
            continue;
        }
        let mut counts = [0usize; 4];
        for bug in &bench.bugs {
            let program = (bug.build)();
            let report = Search::over(&program)
                .config(SearchConfig {
                    max_executions: Some(500_000),
                    stop_on_first_bug: true,
                    fault_bound: bug.expected_faults,
                    ..SearchConfig::default()
                })
                .run()
                .expect("valid configuration");
            let (bound, faults, outcome) = match report.first_bug() {
                Some(found) => {
                    counts[found.preemptions.min(3)] += 1;
                    (
                        found.preemptions.to_string(),
                        found.faults.to_string(),
                        found.outcome.to_string(),
                    )
                }
                None => {
                    let why = if report.completed {
                        "not found (search completed)"
                    } else {
                        "not found (budget)"
                    };
                    (why.to_string(), String::new(), String::new())
                }
            };
            row(&[
                bench.name.to_string(),
                bug.name.to_string(),
                bound,
                faults,
                outcome,
            ]);
        }
        matrix.push((bench.name.to_string(), counts));
    }

    println!();
    println!("Bugs exposed with exactly c preemptions (paper's Table 2 layout):");
    println!();
    header(&["Program", "Bugs", "c=0", "c=1", "c=2", "c=3"]);
    for (name, counts) in &matrix {
        row(&[
            name.clone(),
            counts.iter().sum::<usize>().to_string(),
            counts[0].to_string(),
            counts[1].to_string(),
            counts[2].to_string(),
            counts[3].to_string(),
        ]);
    }
}

/// Figure 1: % of the reachable state space of the work-stealing queue
/// covered by executions with at most c preemptions.
pub fn fig1() {
    banner("Figure 1 — WSQ state coverage vs. context bound");
    let model = wsq_model(WsqVariant::Correct, 3, 2);
    let total = reachable_states(&model, 50_000_000);
    println!("reachable states: {total}");
    println!();
    let report = ExplicitIcb::new(ExplicitConfig::default()).run(&model);
    header(&["Context bound", "States", "% of state space", "Work items"]);
    for b in &report.bound_history {
        row(&[
            b.bound.to_string(),
            b.cumulative_states.to_string(),
            format!("{:.1}", 100.0 * b.cumulative_states as f64 / total as f64),
            b.work_items.to_string(),
        ]);
    }
    // Coverage saturates before the queues drain: the bounds after the
    // first full one only revisit known states.
    let full = report
        .bound_history
        .iter()
        .find(|b| b.cumulative_states == total);
    let bound = |b: Option<usize>| b.map_or("—".to_string(), |b| b.to_string());
    println!();
    println!(
        "full coverage at bound {}; queues drained at bound {} (completed = {})",
        bound(full.map(|b| b.bound)),
        bound(report.completed_bound),
        report.completed
    );
}

/// Figure 2: distinct states (log scale in the paper) vs. executions for
/// icb, dfs, random, db:20 and db:40 on the work-stealing queue.
pub fn fig2() {
    banner("Figure 2 — WSQ coverage growth per strategy");
    let model = wsq_model(WsqVariant::Correct, 3, 2);
    let budget = 25_000;
    let config = SearchConfig::with_max_executions(budget);
    let strategies = [
        Strategy::Icb,
        Strategy::Dfs,
        Strategy::Random { seed: 0x1cb },
        Strategy::DepthBounded(40),
        Strategy::DepthBounded(20),
    ];
    let curves: Vec<(String, Vec<(usize, usize)>)> = strategies
        .iter()
        .map(|&s| (s.label(), run_timed(s, &config, &model).coverage_curve))
        .collect();
    print_curves_csv(&curves, 40);
}

/// Figure 4: % of state space covered vs. context bound for Bluetooth,
/// the file-system model, the transaction manager and the WSQ.
pub fn fig4() {
    banner("Figure 4 — state coverage vs. context bound, four programs");
    // The paper's Figure 4 shows exactly these four programs; APE and
    // Dryad also have VM models but were too large for the paper's
    // complete search (and appear in Figures 5/6 instead).
    let fig4_set = [
        "Bluetooth",
        "File System Model",
        "Work Stealing Q.",
        "Transaction Manager",
    ];
    let programs: Vec<(&str, Model)> = all_benchmarks()
        .iter()
        .filter(|b| fig4_set.contains(&b.name))
        .filter_map(|b| b.vm_model.map(|f| (b.name, f())))
        .collect();
    for (name, model) in programs {
        let total = reachable_states(&model, 50_000_000);
        let report = ExplicitIcb::new(ExplicitConfig::default()).run(&model);
        println!("{name} (reachable states: {total}):");
        header(&["Context bound", "States", "% of state space"]);
        for b in &report.bound_history {
            row(&[
                b.bound.to_string(),
                b.cumulative_states.to_string(),
                format!("{:.1}", 100.0 * b.cumulative_states as f64 / total as f64),
            ]);
        }
        println!();
    }
}

/// Probes one preemption-free execution to size depth bounds.
fn probe_len(program: &dyn ControlledProgram) -> usize {
    let mut sched = ReplayScheduler::new(Default::default());
    program.execute(&mut sched, &mut NullSink).stats.steps
}

fn coverage_growth(
    title: &str,
    program: &(dyn ControlledProgram + Sync),
    budget: usize,
    depth_fracs: &[f64],
) {
    banner(title);
    let k = probe_len(program);
    println!("probe execution length: {k} steps; budget: {budget} executions");
    println!();
    let config = SearchConfig::with_max_executions(budget);
    let mut strategies = vec![Strategy::Icb, Strategy::Dfs];
    for &frac in depth_fracs {
        let max = ((k as f64 * frac) as usize).max(4);
        strategies.push(Strategy::IterativeDeepening {
            start: max / 4,
            step: max / 4,
            max,
        });
    }
    let curves: Vec<(String, Vec<(usize, usize)>)> = strategies
        .iter()
        .map(|&s| (s.label(), run_timed(s, &config, program).coverage_curve))
        .collect();
    print_curves_csv(&curves, 40);
}

/// Figure 5: coverage growth on APE — icb vs. dfs vs. iterative
/// depth-bounding at three depth bounds.
pub fn fig5() {
    let program = ape_program(ApeVariant::Correct, 2);
    coverage_growth(
        "Figure 5 — APE coverage growth per strategy",
        &program,
        10_000,
        &[0.5, 0.75, 1.0],
    );
}

/// Figure 6: coverage growth on the Dryad channel library.
pub fn fig6() {
    let program = dryad_program(DryadVariant::Correct, 4, 2);
    coverage_growth(
        "Figure 6 — Dryad coverage growth per strategy",
        &program,
        10_000,
        &[0.3, 0.4, 0.5],
    );
}

/// A nonblocking n×k increment model (each thread's only blocking action
/// is its termination, the paper's b = 1 case).
fn counter_model(n: usize, k: usize) -> Model {
    let mut m = ModelBuilder::new();
    let g = m.global("g", 0);
    for _ in 0..n {
        m.thread("inc", |t| {
            let old = t.local();
            for _ in 0..k {
                t.fetch_add(g, 1, old);
            }
        });
    }
    m.build()
}

/// Theorem 1: the measured number of executions with exactly c
/// preemptions against the theoretical ceiling `C(nk, c) · (nb + c)!`.
pub fn theorem1() {
    banner("Theorem 1 — executions per preemption bound vs. the bound");
    for (n, k) in [(2usize, 4usize), (3, 3)] {
        let model = counter_model(n, k);
        let report = Search::over(&model).run().expect("valid configuration");
        println!(
            "{n} threads x {k} steps (completed = {}):",
            report.completed
        );
        header(&["c", "Executions (measured)", "Theorem 1 ceiling"]);
        for b in &report.bound_history {
            let ceiling =
                bounds::executions_with_preemptions(n as u64, k as u64, 1, b.bound as u64)
                    .map(|v| v.to_string())
                    .unwrap_or_else(|| {
                        format!(
                            "e^{:.1}",
                            bounds::ln_executions_with_preemptions(
                                n as u64,
                                k as u64,
                                1,
                                b.bound as u64
                            )
                        )
                    });
            row(&[b.bound.to_string(), b.executions.to_string(), ceiling]);
        }
        println!(
            "total executions {} vs. unbounded-schedule count e^{:.1}",
            report.executions,
            bounds::ln_total_executions(n as u64, k as u64)
        );
        println!();
    }
}

/// Every experiment in paper order, under the name `all_experiments`
/// takes to print it alone.
pub const EXPERIMENTS: [(&str, fn()); 9] = [
    ("table1", table1),
    ("table2", table2),
    ("fig1", fig1),
    ("fig2", fig2),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("theorem1", theorem1),
];

/// Runs every experiment in paper order.
pub fn all() {
    for (_, run) in EXPERIMENTS {
        run();
    }
}

/// The experiment called `name`, if there is one.
pub fn find(name: &str) -> Option<fn()> {
    EXPERIMENTS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, run)| run)
}

/// Figure 3: the Dryad use-after-free. The paper's figure is a code
/// listing; the reproducible artifact is the witness trace — one
/// preempting context switch right before `EnterCriticalSection`, plus
/// the several nonpreempting switches the paper highlights.
pub fn fig3() {
    banner("Figure 3 — the Dryad use-after-free witness");
    let program = dryad_program(DryadVariant::CloseNoWait, 2, 2);
    let bug = Search::over(&program)
        .config(SearchConfig {
            max_executions: Some(500_000),
            stop_on_first_bug: true,
            ..SearchConfig::default()
        })
        .run()
        .expect("valid configuration")
        .bugs
        .into_iter()
        .next()
        .expect("the Figure 3 bug is reachable");
    println!("outcome: {}", bug.outcome);
    println!(
        "found after {} executions; witness has {} preemption(s)",
        bug.execution_index, bug.preemptions
    );
    let mut replay = ReplayScheduler::new(bug.schedule.clone());
    let result = program.execute(&mut replay, &mut NullSink);
    println!(
        "context switches: {} ({} preempting, {} nonpreempting)",
        result.stats.context_switches,
        result.stats.preemptions,
        result.stats.context_switches - result.stats.preemptions
    );
    println!();
    println!("{}", icb_core::render::lanes(&result.trace));
    println!();
    println!("compact: {}", icb_core::render::compact(&result.trace));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_find_the_nine_experiments_in_paper_order_and_nothing_else() {
        let paper = [
            "table1", "table2", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "theorem1",
        ];
        assert_eq!(EXPERIMENTS.map(|(n, _)| n), paper);
        for (name, run) in EXPERIMENTS {
            let found = find(name).expect("every listed name is found");
            assert!(
                std::ptr::fn_addr_eq(found, run),
                "{name} found another experiment"
            );
        }
        for unknown in ["", "fig7", "Table1", "table1 ", "all"] {
            assert!(find(unknown).is_none(), "{unknown:?} found an experiment");
        }
    }
}
