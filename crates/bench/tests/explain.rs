//! End-to-end contract of `explore explain`: the bundle it writes is
//! complete, self-consistent, and byte-identical no matter how many
//! workers found the bug or whether the witness came from a live search
//! or a recorded `--from` telemetry log. A malformed invocation fails
//! with the usage error instead of running.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const EXPLORE: &str = env!("CARGO_BIN_EXE_explore");

const BUNDLE_FILES: [&str; 6] = [
    "witness.json",
    "lanes.txt",
    "hb.dot",
    "hb.json",
    "trace.chrome.json",
    "EXPLANATION.md",
];

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("icb-explain-{}-{name}", std::process::id()))
}

fn run_explore(args: &[&str]) -> Output {
    Command::new(EXPLORE)
        .args(args)
        .output()
        .expect("spawn explore")
}

fn read_bundle(dir: &Path) -> Vec<(String, String)> {
    BUNDLE_FILES
        .iter()
        .map(|name| {
            let text = std::fs::read_to_string(dir.join(name))
                .unwrap_or_else(|e| panic!("bundle missing {name}: {e}"));
            assert!(!text.is_empty(), "{name} must not be empty");
            (name.to_string(), text)
        })
        .collect()
}

/// Checks that every brace/bracket in `text` balances, ignoring anything
/// inside string literals — enough to catch truncated or interleaved
/// JSON without a parser dependency.
fn assert_balanced_json(text: &str, label: &str) {
    let mut depth: i64 = 0;
    let mut in_string = false;
    let mut escaped = false;
    for c in text.chars() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '[' => depth += 1,
            '}' | ']' => {
                depth -= 1;
                assert!(depth >= 0, "{label}: closer without opener");
            }
            _ => {}
        }
    }
    assert!(!in_string, "{label}: unterminated string");
    assert_eq!(depth, 0, "{label}: unbalanced braces/brackets");
}

#[test]
fn explain_bundle_is_complete_and_worker_count_free() {
    let dir1 = scratch("jobs1");
    let dir2 = scratch("jobs2");
    for d in [&dir1, &dir2] {
        let _ = std::fs::remove_dir_all(d);
    }

    let out1 = run_explore(&[
        "explain",
        "bluetooth",
        "--jobs",
        "1",
        "--out",
        dir1.to_str().unwrap(),
    ]);
    assert!(
        out1.status.success(),
        "explain --jobs 1 failed: {}",
        String::from_utf8_lossy(&out1.stderr)
    );
    let out2 = run_explore(&[
        "explain",
        "bluetooth",
        "--jobs",
        "2",
        "--out",
        dir2.to_str().unwrap(),
    ]);
    assert!(out2.status.success(), "explain --jobs 2 failed");

    let stdout = String::from_utf8_lossy(&out1.stdout);
    // ICB's headline guarantee carried through shrinking: the bluetooth
    // driver bug needs exactly one preemption, and the shrunk witness
    // must still show it (a divergence would print a stderr note).
    assert!(
        stdout.contains("1 preemption(s)"),
        "witness must be preemption-minimal, got: {stdout}"
    );
    assert!(
        !String::from_utf8_lossy(&out1.stderr).contains("note:"),
        "shrunk witness diverged from the reported minimum"
    );

    let bundle1 = read_bundle(&dir1);
    let bundle2 = read_bundle(&dir2);
    for ((name, a), (_, b)) in bundle1.iter().zip(bundle2.iter()) {
        assert_eq!(a, b, "{name} must be byte-identical at --jobs 1 and 2");
    }

    // Spot-check each artifact's format.
    for (name, text) in &bundle1 {
        match name.as_str() {
            "witness.json" => {
                assert_balanced_json(text, name);
                assert!(text.contains("\"preemptions\": 1"), "witness preemptions");
                assert!(text.contains("\"nearest_passing\""), "nearest-passing diff");
                assert!(text.contains("\"passes\": true"), "flipped schedule passes");
            }
            "hb.json" | "trace.chrome.json" => assert_balanced_json(text, name),
            "hb.dot" => {
                assert!(text.starts_with("digraph happens_before"), "dot header");
                assert_eq!(
                    text.matches('{').count(),
                    text.matches('}').count(),
                    "dot braces balance"
                );
            }
            "lanes.txt" => assert!(text.contains('\u{25CF}') || text.contains('\u{00B7}')),
            "EXPLANATION.md" => {
                assert!(text.contains("## Bundle contents"));
                assert!(text.contains("Nearest passing schedule"));
            }
            _ => unreachable!(),
        }
    }

    // The chrome trace carries all three event phases: metadata, one
    // slice per step, and the preemption/outcome instants.
    let chrome = &bundle1
        .iter()
        .find(|(n, _)| n == "trace.chrome.json")
        .unwrap()
        .1;
    for phase in ["\"ph\":\"M\"", "\"ph\":\"X\"", "\"ph\":\"i\""] {
        assert!(chrome.contains(phase), "chrome trace missing {phase}");
    }

    for d in [&dir1, &dir2] {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn explain_from_recorded_log_matches_fresh_search() {
    let log = scratch("run.jsonl");
    let fresh_dir = scratch("fresh");
    let from_dir = scratch("from");
    let _ = std::fs::remove_file(&log);
    for d in [&fresh_dir, &from_dir] {
        let _ = std::fs::remove_dir_all(d);
    }

    let fresh = run_explore(&["explain", "bluetooth", "--out", fresh_dir.to_str().unwrap()]);
    assert!(fresh.status.success(), "fresh explain failed");

    let telemetry = format!("jsonl:{}", log.display());
    let run = run_explore(&[
        "run",
        "bluetooth",
        "--bug",
        "check-then-increment",
        "--telemetry",
        &telemetry,
    ]);
    assert!(
        run.status.success(),
        "recorded run failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );

    let from = run_explore(&[
        "explain",
        "bluetooth",
        "--from",
        log.to_str().unwrap(),
        "--out",
        from_dir.to_str().unwrap(),
    ]);
    assert!(
        from.status.success(),
        "explain --from failed: {}",
        String::from_utf8_lossy(&from.stderr)
    );

    // Shrinking canonicalizes the witness, so a bundle built from the
    // recorded log must equal the fresh search's bundle byte for byte.
    for ((name, a), (_, b)) in read_bundle(&fresh_dir).iter().zip(read_bundle(&from_dir)) {
        assert_eq!(*a, b, "{name} must match between fresh and --from runs");
    }

    let _ = std::fs::remove_file(&log);
    for d in [&fresh_dir, &from_dir] {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn explain_requires_a_workload_and_a_buggy_variant() {
    let out = run_explore(&["explain", "--from", "nowhere.jsonl"]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("missing benchmark name"),
        "flag-first invocation must explain the workload requirement"
    );

    // A misspelt flag, or a flag missing its value, is a usage error
    // rather than a run with the flag silently dropped.
    for (args, expect) in [
        (
            &["run", "Bluetooth", "--bund", "1", "--budget", "50"][..],
            "unknown flag `--bund`",
        ),
        (
            &["run", "Bluetooth", "--bound"][..],
            "missing value for `--bound`",
        ),
    ] {
        let out = run_explore(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains(expect) && stderr.contains("usage:"),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} must not start a search");
    }
}
