//! Shared helpers for the `all_experiments` binary, which regenerates
//! every table and figure of the paper.
//!
//! With no argument it prints every experiment in paper order. With one
//! of the names in [`experiments::EXPERIMENTS`] (`table1`, `table2`,
//! `fig1`–`fig6`, `theorem1`) it prints only that experiment's section
//! of the same output; each experiment function says what it reproduces.
//!
//! The crate's other binary, `explore`, runs no experiment: it is the
//! command-line front door that runs, resumes, replays and explains
//! searches. Performance is measured by `perf`, a separate package
//! under `src/bin/perf/`.
//!
//! Run with `cargo run --release -p icb-bench --bin all_experiments [-- <name>]`.

pub mod experiments;

use std::time::Instant;

use icb_core::search::{Search, SearchConfig, SearchReport, Strategy};
use icb_core::ControlledProgram;

/// Prints a markdown-style table row.
pub fn row(cells: &[String]) {
    println!("{}", format_row(cells));
}

/// Formats a markdown-style table row. Every whitespace run inside a
/// cell becomes one space, so a multi-line cell (an `assert_eq!`
/// message, say) keeps the row on one line.
fn format_row(cells: &[String]) -> String {
    let cells: Vec<String> = cells
        .iter()
        .map(|c| c.split_whitespace().collect::<Vec<_>>().join(" "))
        .collect();
    format!("| {} |", cells.join(" | "))
}

/// Prints a markdown-style header with separator.
pub fn header(cells: &[&str]) {
    row(&cells.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    println!(
        "|{}|",
        cells.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
}

/// Prints an experiment banner.
pub fn banner(title: &str) {
    println!();
    println!("## {title}");
    println!();
}

/// Runs a strategy against a program on one worker, logging a one-line
/// summary to stderr. The figures draw their curves from the returned
/// report's `coverage_curve`: one point per execution with the default
/// `coverage_stride`.
pub fn run_timed(
    strategy: Strategy,
    config: &SearchConfig,
    program: &(dyn ControlledProgram + Sync),
) -> SearchReport {
    let started = Instant::now();
    let report = Search::over(program)
        .strategy(strategy)
        .config(config.clone())
        .run()
        .expect("experiment configurations are valid");
    let elapsed = started.elapsed();
    eprintln!(
        "  [{}] {} executions ({:.0}/s), {} states, completed={} in {:.2?}",
        report.strategy,
        report.executions,
        report.executions as f64 / elapsed.as_secs_f64(),
        report.distinct_states,
        report.completed,
        elapsed
    );
    report
}

/// Downsamples a coverage curve to every `ceil(len / points)`-th sample,
/// plus the last one when the stride skips it: at most `points + 1`
/// samples (log-friendly output without megabytes of CSV). A 100-point
/// curve at `points = 10` gives 11.
pub fn downsample(curve: &[(usize, usize)], points: usize) -> Vec<(usize, usize)> {
    if curve.len() <= points {
        return curve.to_vec();
    }
    let stride = curve.len().div_ceil(points);
    let mut out: Vec<(usize, usize)> = curve.iter().copied().step_by(stride).collect();
    if out.last() != curve.last() {
        out.push(*curve.last().expect("curve nonempty"));
    }
    out
}

/// Serializes several named coverage curves as aligned CSV on stdout:
/// `executions,<name1>,<name2>,…` carrying each curve's value forward.
pub fn print_curves_csv(curves: &[(String, Vec<(usize, usize)>)], points: usize) {
    let sampled: Vec<(String, Vec<(usize, usize)>)> = curves
        .iter()
        .map(|(n, c)| (n.clone(), downsample(c, points)))
        .collect();
    let mut xs: Vec<usize> = sampled
        .iter()
        .flat_map(|(_, c)| c.iter().map(|&(x, _)| x))
        .collect();
    xs.sort_unstable();
    xs.dedup();
    print!("executions");
    for (name, _) in &sampled {
        print!(",{name}");
    }
    println!();
    for x in xs {
        print!("{x}");
        for (_, curve) in &sampled {
            // Coverage at the last sample at or before x.
            let y = curve
                .iter()
                .take_while(|&&(cx, _)| cx <= x)
                .last()
                .map(|&(_, y)| y);
            match y {
                Some(y) => print!(",{y}"),
                None => print!(","),
            }
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn downsample_keeps_endpoints() {
        let curve: Vec<(usize, usize)> = (1..=100).map(|i| (i, i * 2)).collect();
        let d = downsample(&curve, 10);
        assert_eq!(d.len(), 11);
        assert_eq!(*d.last().unwrap(), (100, 200));
        assert_eq!(d[0], (1, 2));
    }

    #[test]
    fn rows_collapse_whitespace_inside_cells() {
        let cells = [
            "APE".into(),
            "lost\n  left: 0\n right: 2".into(),
            " a\tb ".into(),
        ];
        assert_eq!(format_row(&cells), "| APE | lost left: 0 right: 2 | a b |");
    }

    #[test]
    fn downsample_short_curves_untouched() {
        let curve = vec![(1, 1), (2, 3)];
        assert_eq!(downsample(&curve, 10), curve);
    }
}
