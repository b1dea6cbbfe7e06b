//! Regenerates the paper's tables and figures: all of them in order, or
//! only the one named by the argument (`table1`, `table2`, `fig1`–`fig6`,
//! `theorem1`). See `icb_bench::experiments`.
use std::process::ExitCode;

use icb_bench::experiments::{all, find, EXPERIMENTS};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match args.as_slice() {
        [] => Some(all as fn()),
        [name] => find(name),
        _ => None,
    };
    let Some(run) = run else {
        eprintln!("usage: all_experiments [<name>]");
        eprintln!("names: {}", EXPERIMENTS.map(|(n, _)| n).join(", "));
        return ExitCode::FAILURE;
    };
    run();
    ExitCode::SUCCESS
}
