//! Process-level crash resilience: a checkpointing `explore run` killed
//! with SIGKILL mid-search must be resumable with `explore resume`, and
//! the resumed run's final report must match an uninterrupted reference
//! byte for byte. A corrupted checkpoint must be rejected with a clear
//! error, not a panic.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

const EXPLORE: &str = env!("CARGO_BIN_EXE_explore");

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("icb-crash-{}-{name}", std::process::id()))
}

/// The report body: stdout minus the first status line (`exploring …`
/// for a fresh run, `resuming …` for a resumed one), which legitimately
/// differs between the two.
fn report_body(output: &Output) -> String {
    let stdout = String::from_utf8_lossy(&output.stdout);
    stdout
        .lines()
        .filter(|l| !l.starts_with("exploring ") && !l.starts_with("resuming "))
        .collect::<Vec<_>>()
        .join("\n")
}

fn run_explore(args: &[&str]) -> Output {
    Command::new(EXPLORE)
        .args(args)
        .output()
        .expect("spawn explore")
}

/// The first `N executions` count appearing in a report.
fn executions_in(report: &str) -> usize {
    for line in report.lines() {
        if let Some(at) = line.find(" executions") {
            let digits: String = line[..at]
                .chars()
                .rev()
                .take_while(char::is_ascii_digit)
                .collect();
            if !digits.is_empty() {
                return digits.chars().rev().collect::<String>().parse().unwrap();
            }
        }
    }
    panic!("no execution count in: {report}");
}

/// One crash-drill configuration. The reference run is always an
/// uninterrupted `--jobs 1` search; the checkpointing run is killed at
/// `kill_jobs` workers and resumed at `resume_jobs` — exercising the
/// contract that a snapshot taken under any worker count resumes at any
/// other.
struct Drill<'a> {
    benchmark: &'a str,
    strategy: &'a str,
    budget: &'a str,
    /// `None` runs the correct (bug-free) workload variant. Parallel
    /// drills must be bug-free: with `stop_on_first_bug`, the
    /// sequential reference legitimately stops mid-bound at the first
    /// bug while the parallel driver finishes the bound, so the
    /// execution counts would differ by design, not by defect.
    bug: Option<&'a str>,
    /// `--bound N` (ICB only). Parallel drills need a *finite* explored
    /// space — a preemption bound or `db:N` — because a bare budget
    /// cutoff truncates sequential and parallel runs at different
    /// (equally valid) subsets of the space.
    bound: Option<&'a str>,
    /// `--fault-bound N`: turns fault injection on for the drill. The
    /// checkpoint encodes the bound, so `explore resume` needs no flag.
    fault_bound: Option<&'a str>,
    kill_jobs: &'a str,
    resume_jobs: &'a str,
}

/// Runs the full crash drill for one workload: reference run, killed
/// checkpointing run, resume, report comparison, and a stitch of the
/// two telemetry segments.
fn crash_drill(d: Drill<'_>) {
    let tag = format!("{}-j{}", d.strategy, d.kill_jobs);
    let ckpt = scratch(&format!("{tag}.ckpt"));
    let seg1 = scratch(&format!("{tag}-seg1.jsonl"));
    let seg2 = scratch(&format!("{tag}-seg2.jsonl"));
    for p in [&ckpt, &seg1, &seg2] {
        let _ = std::fs::remove_file(p);
    }
    let ckpt_str = ckpt.to_str().unwrap();
    let jsonl1 = format!("jsonl:{}", seg1.display());
    let jsonl2 = format!("jsonl:{}", seg2.display());
    let mut bug_args: Vec<&str> = match d.bug {
        Some(bug) => vec!["--bug", bug],
        None => Vec::new(),
    };
    if let Some(bound) = d.bound {
        bug_args.extend_from_slice(&["--bound", bound]);
    }
    if let Some(fault_bound) = d.fault_bound {
        bug_args.extend_from_slice(&["--fault-bound", fault_bound]);
    }

    // Uninterrupted reference.
    let mut ref_args = vec!["run", d.benchmark];
    ref_args.extend_from_slice(&bug_args);
    ref_args.extend_from_slice(&[
        "--strategy",
        d.strategy,
        "--budget",
        d.budget,
        "--jobs",
        "1",
    ]);
    let reference = run_explore(&ref_args);
    assert!(reference.status.success(), "reference run failed");

    // Checkpointing run, killed with SIGKILL once the first snapshot is
    // on disk. `--checkpoint-every 1` both maximizes the snapshots at
    // risk and slows the child enough to kill it mid-flight.
    let mut kill_args = vec!["run", d.benchmark];
    kill_args.extend_from_slice(&bug_args);
    kill_args.extend_from_slice(&[
        "--strategy",
        d.strategy,
        "--budget",
        d.budget,
        "--jobs",
        d.kill_jobs,
        "--checkpoint",
        ckpt_str,
        "--checkpoint-every",
        "1",
        "--telemetry",
        &jsonl1,
    ]);
    let mut child = Command::new(EXPLORE)
        .args(&kill_args)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn checkpointing child");
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut finished = false;
    loop {
        if ckpt.exists() {
            break;
        }
        if child.try_wait().expect("try_wait").is_some() {
            finished = true;
            break;
        }
        assert!(Instant::now() < deadline, "no checkpoint appeared in 60s");
        std::thread::sleep(Duration::from_millis(2));
    }
    if !finished {
        child.kill().expect("SIGKILL the child"); // SIGKILL on unix
    }
    let status = child.wait().expect("reap the child");
    assert!(
        ckpt.exists(),
        "no checkpoint survived the crash (child exit: {status})"
    );

    // Resume must converge on the reference report exactly. (If the
    // child happened to finish before the kill, the snapshot holds the
    // final aborted state and resuming still reproduces the report.)
    let resumed = run_explore(&[
        "resume",
        ckpt_str,
        "--jobs",
        d.resume_jobs,
        "--telemetry",
        &jsonl2,
    ]);
    assert!(
        resumed.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(
        report_body(&reference),
        report_body(&resumed),
        "resumed report diverged from the uninterrupted reference"
    );

    // Stitching the crashed segment's log (flushed at every checkpoint,
    // possibly ending mid-line) with the resumed segment's must yield
    // one report covering the whole run.
    let total = executions_in(&report_body(&resumed));
    let stitched = run_explore(&[
        "report",
        seg1.to_str().unwrap(),
        seg2.to_str().unwrap(),
        "--stitch",
    ]);
    assert!(
        stitched.status.success(),
        "stitch failed: {}",
        String::from_utf8_lossy(&stitched.stderr)
    );
    let text = String::from_utf8_lossy(&stitched.stdout).into_owned();
    assert_eq!(
        executions_in(&text),
        total,
        "stitched report does not cover the whole run: {text}"
    );

    for p in [&ckpt, &seg1, &seg2] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn killed_dfs_search_resumes_to_the_reference_report() {
    crash_drill(Drill {
        benchmark: "Work Stealing Q.",
        strategy: "dfs",
        budget: "3000",
        bug: Some("tail-publish-first"),
        bound: None,
        fault_bound: None,
        kill_jobs: "1",
        resume_jobs: "1",
    });
}

#[test]
fn killed_icb_search_resumes_to_the_reference_report() {
    crash_drill(Drill {
        benchmark: "Bluetooth",
        strategy: "icb",
        budget: "3000",
        bug: Some("check-then-increment"),
        bound: None,
        fault_bound: None,
        kill_jobs: "1",
        resume_jobs: "1",
    });
}

#[test]
fn killed_fault_bound_search_resumes_to_the_reference_report() {
    // The crash drill with fault injection on: the snapshot encodes the
    // fault bound, so the resumed run continues the (preemption, fault)
    // level progression exactly where the killed run left off and
    // converges on the uninterrupted reference byte for byte.
    crash_drill(Drill {
        benchmark: "Fault Injection",
        strategy: "icb",
        budget: "3000",
        bug: Some("shed-on-try-lock-failure"),
        bound: None,
        fault_bound: Some("1"),
        kill_jobs: "1",
        resume_jobs: "1",
    });
}

#[test]
fn killed_parallel_icb_search_resumes_at_a_smaller_worker_count() {
    // The parallel drill from the issue: kill a `--jobs 4` run after a
    // checkpoint lands, resume it at `--jobs 2`, and demand the report
    // of the uninterrupted `--jobs 1` reference. Bound 2 keeps the
    // explored space finite (~3.1k executions on clean Bluetooth), so
    // every worker count visits the same set.
    crash_drill(Drill {
        benchmark: "Bluetooth",
        strategy: "icb",
        budget: "200000",
        bug: None,
        bound: Some("2"),
        fault_bound: None,
        kill_jobs: "4",
        resume_jobs: "2",
    });
}

#[test]
fn killed_parallel_dfs_search_resumes_at_a_smaller_worker_count() {
    // Depth-bounded DFS for the same reason the ICB drill uses
    // `--bound`: `db:10` exhausts ~3.2k executions on clean Bluetooth.
    crash_drill(Drill {
        benchmark: "Bluetooth",
        strategy: "db:10",
        budget: "100000",
        bug: None,
        bound: None,
        fault_bound: None,
        kill_jobs: "4",
        resume_jobs: "2",
    });
}

#[test]
fn corrupted_checkpoint_is_rejected_cleanly() {
    // A valid checkpoint, produced by an interrupt-free but
    // budget-limited run (a budget abort writes a final snapshot).
    let ckpt = scratch("corrupt.ckpt");
    let _ = std::fs::remove_file(&ckpt);
    let ckpt_str = ckpt.to_str().unwrap();
    let seeded = run_explore(&[
        "run",
        "Bluetooth",
        "--bug",
        "check-then-increment",
        "--strategy",
        "dfs",
        "--budget",
        "5",
        "--checkpoint",
        ckpt_str,
    ]);
    assert!(seeded.status.success());
    let bytes = std::fs::read(&ckpt).expect("read checkpoint");

    let reject = |name: &str, bytes: &[u8], expect: &str| {
        let bad = scratch(name);
        std::fs::write(&bad, bytes).unwrap();
        let out = run_explore(&["resume", bad.to_str().unwrap()]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{name}: resume must fail");
        assert!(
            stderr.contains(expect),
            "{name}: expected `{expect}` in stderr, got: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{name}: panicked: {stderr}");
        // A damaged file is a runtime failure, not a usage error.
        assert!(
            !stderr.contains("usage:"),
            "{name}: printed usage: {stderr}"
        );
        let _ = std::fs::remove_file(&bad);
    };

    // Flip one payload byte: checksum mismatch.
    let mut flipped = bytes.clone();
    let at = flipped.len() / 2;
    flipped[at] ^= 0xff;
    reject("flip.ckpt", &flipped, "corrupted");

    // Cut the file short: truncation.
    reject("trunc.ckpt", &bytes[..bytes.len() / 3], "truncated");

    // Not a checkpoint at all.
    reject("noise.ckpt", b"definitely not a snapshot", "");

    let _ = std::fs::remove_file(&ckpt);
}
