//! Shared helpers for the experiment binaries that regenerate every
//! table and figure of the paper.
//!
//! Each binary prints one experiment:
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `table1` | Table 1 — benchmark characteristics |
//! | `table2` | Table 2 — bugs by context bound |
//! | `fig1` | Figure 1 — WSQ coverage vs. context bound |
//! | `fig2` | Figure 2 — WSQ coverage growth per strategy |
//! | `fig4` | Figure 4 — coverage vs. bound, four programs |
//! | `fig5` | Figure 5 — APE coverage growth per strategy |
//! | `fig6` | Figure 6 — Dryad coverage growth per strategy |
//! | `theorem1` | Theorem 1 — measured executions vs. the bound |
//! | `all_experiments` | everything above, in sequence |
//!
//! Run with `cargo run --release -p icb-bench --bin <name>`.

pub mod experiments;
pub mod harness;

use std::time::Instant;

use icb_core::search::{Search, SearchConfig, SearchReport, Strategy};
use icb_core::ControlledProgram;

/// Prints a markdown-style table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
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

/// Runs a strategy against a program, logging a one-line summary to
/// stderr. The figures draw their curves from the returned report's
/// `coverage_curve`: one point per execution at `jobs == 1` with the
/// default `coverage_stride`.
pub fn run_timed(
    strategy: Strategy,
    config: &SearchConfig,
    jobs: usize,
    program: &(dyn ControlledProgram + Sync),
) -> SearchReport {
    let started = Instant::now();
    let report = Search::over(program)
        .strategy(strategy)
        .config(config.clone())
        .jobs(jobs)
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

/// Downsamples a coverage curve to at most `points` samples, keeping the
/// last one (log-friendly output without megabytes of CSV).
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
        assert!(d.len() <= 12);
        assert_eq!(*d.last().unwrap(), (100, 200));
        assert_eq!(d[0], (1, 2));
    }

    #[test]
    fn downsample_short_curves_untouched() {
        let curve = vec![(1, 1), (2, 3)];
        assert_eq!(downsample(&curve, 10), curve);
    }
}
