//! A catalog of every benchmark and seeded bug, for the experiment
//! harness (Tables 1 and 2, Figures 1–6).

use std::fmt;

use icb_core::{
    ControlledProgram, ExecutionResult, Resumable, Scheduler, SearchObserver, StateSink,
};
use icb_runtime::RuntimeProgram;
use icb_statevm::Model;

use crate::ape::{ape_model, ape_program, ApeVariant};
use crate::bluetooth::{bluetooth_model, bluetooth_program, BluetoothVariant};
use crate::dryad::{dryad_model, dryad_program, DryadVariant};
use crate::faultinj::{
    faultinj_model, retry_lock_program, spurious_consumer_program, ConsumerVariant, RetryVariant,
};
use crate::filesystem::{filesystem_model, filesystem_program, FsParams};
use crate::txnmgr::{txnmgr_model, TxnVariant};
use crate::wsq::{wsq_model, wsq_program, WsqVariant};

/// A program for either checker.
pub enum AnyProgram {
    /// A native program for the stateless runtime (CHESS side).
    Runtime(RuntimeProgram),
    /// An explicit-state VM model (ZING side).
    Vm(Model),
}

impl ControlledProgram for AnyProgram {
    fn execute(&self, scheduler: &mut dyn Scheduler, sink: &mut dyn StateSink) -> ExecutionResult {
        match self {
            AnyProgram::Runtime(p) => p.execute(scheduler, sink),
            AnyProgram::Vm(m) => m.execute(scheduler, sink),
        }
    }

    fn execute_observed(
        &self,
        scheduler: &mut dyn Scheduler,
        sink: &mut dyn StateSink,
        observer: &mut dyn SearchObserver,
    ) -> ExecutionResult {
        match self {
            AnyProgram::Runtime(p) => p.execute_observed(scheduler, sink, observer),
            AnyProgram::Vm(m) => m.execute_observed(scheduler, sink, observer),
        }
    }

    fn fingerprints_are_exact(&self) -> bool {
        match self {
            AnyProgram::Runtime(p) => p.fingerprints_are_exact(),
            AnyProgram::Vm(m) => m.fingerprints_are_exact(),
        }
    }

    fn resumable(&self) -> Option<&dyn Resumable> {
        match self {
            AnyProgram::Runtime(p) => p.resumable(),
            AnyProgram::Vm(m) => m.resumable(),
        }
    }
}

/// A stable identity hash for `program`, used to key its on-disk cache
/// directory.
///
/// The hash covers the benchmark name, the bug variant, and — for VM
/// models — the full disassembly, so editing a model's instruction
/// stream invalidates its cached exploration. Runtime programs are
/// closures the harness cannot introspect, so their identity is purely
/// name-based: renaming is the only way to tell the cache a runtime
/// workload changed. (The cache is heuristic-only for those anyway.)
pub fn program_identity(benchmark: &str, bug: Option<&str>, program: &AnyProgram) -> u64 {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"icb-workload\0");
    bytes.extend_from_slice(benchmark.as_bytes());
    bytes.push(0);
    bytes.extend_from_slice(bug.unwrap_or("correct").as_bytes());
    bytes.push(0);
    match program {
        AnyProgram::Runtime(_) => bytes.extend_from_slice(b"runtime"),
        AnyProgram::Vm(m) => bytes.extend_from_slice(m.disasm().as_bytes()),
    }
    icb_core::hash::fingerprint_bytes(&bytes)
}

impl fmt::Debug for AnyProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnyProgram::Runtime(_) => write!(f, "AnyProgram::Runtime"),
            AnyProgram::Vm(_) => write!(f, "AnyProgram::Vm"),
        }
    }
}

/// One seeded (or known) bug of a benchmark.
#[derive(Debug)]
pub struct BugSpec {
    /// Short identifier of the bug.
    pub name: &'static str,
    /// The minimal preemption bound of this reimplementation's bug, as
    /// verified by the workload test suites.
    pub expected_bound: usize,
    /// The minimal fault bound of the bug: how many injected faults its
    /// minimum-`(preemptions, faults)` witness needs. Zero for every
    /// bug of the paper's inventory; the harness must search with
    /// `fault_bound >= expected_faults` to find the bug at all.
    pub expected_faults: usize,
    /// Builds the buggy program.
    pub build: fn() -> AnyProgram,
}

/// One benchmark of the paper's evaluation.
#[derive(Debug)]
pub struct BenchmarkInfo {
    /// Benchmark name as in Table 1.
    pub name: &'static str,
    /// Threads in the paper's test driver (Table 1).
    pub paper_threads: usize,
    /// LOC reported in Table 1, for side-by-side display.
    pub paper_loc: usize,
    /// Builds the correct (bug-free) program.
    pub correct: fn() -> AnyProgram,
    /// The correct program as a VM model, when one exists (exact state
    /// counting for the coverage figures).
    pub vm_model: Option<fn() -> Model>,
    /// The seeded bugs.
    pub bugs: Vec<BugSpec>,
}

/// Every benchmark, in Table 1 order.
pub fn all_benchmarks() -> Vec<BenchmarkInfo> {
    vec![
        BenchmarkInfo {
            name: "Bluetooth",
            paper_threads: 3,
            paper_loc: 400,
            correct: || AnyProgram::Runtime(bluetooth_program(BluetoothVariant::Fixed, 2)),
            vm_model: Some(|| bluetooth_model(BluetoothVariant::Fixed, 2)),
            bugs: vec![BugSpec {
                name: "check-then-increment",
                expected_bound: 1,
                expected_faults: 0,
                build: || AnyProgram::Runtime(bluetooth_program(BluetoothVariant::Buggy, 2)),
            }],
        },
        BenchmarkInfo {
            name: "File System Model",
            paper_threads: 4,
            paper_loc: 84,
            correct: || AnyProgram::Runtime(filesystem_program(FsParams::default())),
            vm_model: Some(|| filesystem_model(FsParams::default())),
            bugs: Vec::new(),
        },
        BenchmarkInfo {
            name: "Work Stealing Q.",
            paper_threads: 2,
            paper_loc: 1266,
            correct: || AnyProgram::Runtime(wsq_program(WsqVariant::Correct, 3, 2)),
            vm_model: Some(|| wsq_model(WsqVariant::Correct, 3, 2)),
            bugs: vec![
                BugSpec {
                    name: "tail-publish-first",
                    expected_bound: 1,
                    expected_faults: 0,
                    build: || AnyProgram::Runtime(wsq_program(WsqVariant::TailPublishFirst, 3, 2)),
                },
                BugSpec {
                    name: "missing-tail-restore",
                    expected_bound: 1,
                    expected_faults: 0,
                    build: || {
                        AnyProgram::Runtime(wsq_program(WsqVariant::MissingTailRestore, 3, 2))
                    },
                },
                BugSpec {
                    name: "non-atomic-steal",
                    expected_bound: 2,
                    expected_faults: 0,
                    build: || AnyProgram::Runtime(wsq_program(WsqVariant::NonAtomicSteal, 3, 2)),
                },
            ],
        },
        BenchmarkInfo {
            name: "Transaction Manager",
            paper_threads: 2,
            paper_loc: 7000,
            correct: || AnyProgram::Vm(txnmgr_model(TxnVariant::Correct)),
            vm_model: Some(|| txnmgr_model(TxnVariant::Correct)),
            bugs: vec![
                BugSpec {
                    name: "commit-toctou",
                    expected_bound: 1,
                    expected_faults: 0,
                    build: || AnyProgram::Vm(txnmgr_model(TxnVariant::CommitToctou)),
                },
                BugSpec {
                    name: "unlocked-scan",
                    expected_bound: 1,
                    expected_faults: 0,
                    build: || AnyProgram::Vm(txnmgr_model(TxnVariant::UnlockedScan)),
                },
                BugSpec {
                    name: "torn-flush",
                    expected_bound: 2,
                    expected_faults: 0,
                    build: || AnyProgram::Vm(txnmgr_model(TxnVariant::TornFlush)),
                },
            ],
        },
        BenchmarkInfo {
            name: "APE",
            paper_threads: 3,
            paper_loc: 18947,
            correct: || AnyProgram::Runtime(ape_program(ApeVariant::Correct, 2)),
            vm_model: Some(|| ape_model(2)),
            bugs: vec![
                BugSpec {
                    name: "missing-join",
                    expected_bound: 0,
                    expected_faults: 0,
                    build: || AnyProgram::Runtime(ape_program(ApeVariant::MissingJoin, 2)),
                },
                BugSpec {
                    name: "poison-shortcut",
                    expected_bound: 0,
                    expected_faults: 0,
                    build: || AnyProgram::Runtime(ape_program(ApeVariant::PoisonShortcut, 2)),
                },
                BugSpec {
                    name: "untracked-insert",
                    expected_bound: 1,
                    expected_faults: 0,
                    build: || AnyProgram::Runtime(ape_program(ApeVariant::UntrackedInsert, 2)),
                },
                BugSpec {
                    name: "non-atomic-release",
                    expected_bound: 2,
                    expected_faults: 0,
                    build: || AnyProgram::Runtime(ape_program(ApeVariant::NonAtomicRelease, 2)),
                },
            ],
        },
        BenchmarkInfo {
            name: "Dryad Channels",
            paper_threads: 5,
            paper_loc: 16036,
            correct: || AnyProgram::Runtime(dryad_program(DryadVariant::Correct, 4, 2)),
            vm_model: Some(|| dryad_model(2, 2)),
            bugs: vec![
                BugSpec {
                    name: "stop-jumps-queue",
                    expected_bound: 0,
                    expected_faults: 0,
                    build: || {
                        AnyProgram::Runtime(dryad_program(DryadVariant::StopJumpsQueue, 2, 2))
                    },
                },
                BugSpec {
                    name: "close-no-wait (Fig. 3 UAF)",
                    expected_bound: 1,
                    expected_faults: 0,
                    build: || AnyProgram::Runtime(dryad_program(DryadVariant::CloseNoWait, 2, 2)),
                },
                BugSpec {
                    name: "ack-before-alert",
                    expected_bound: 1,
                    expected_faults: 0,
                    build: || {
                        AnyProgram::Runtime(dryad_program(DryadVariant::AckBeforeAlert, 2, 2))
                    },
                },
                BugSpec {
                    name: "unsync-stats",
                    expected_bound: 1,
                    expected_faults: 0,
                    build: || AnyProgram::Runtime(dryad_program(DryadVariant::UnsyncStats, 2, 2)),
                },
                BugSpec {
                    name: "unlocked-untrack",
                    expected_bound: 1,
                    expected_faults: 0,
                    build: || {
                        AnyProgram::Runtime(dryad_program(DryadVariant::UnlockedUntrack, 2, 2))
                    },
                },
            ],
        },
        // Extension beyond the paper's Table 1: fault-dependent bugs,
        // invisible to every purely preemption-bounded search (see
        // DESIGN.md §12). `paper_loc` is 0: there is no Table 1 row.
        BenchmarkInfo {
            name: "Fault Injection",
            paper_threads: 3,
            paper_loc: 0,
            correct: || AnyProgram::Runtime(retry_lock_program(RetryVariant::Correct, 2)),
            vm_model: Some(|| faultinj_model(2)),
            bugs: vec![
                BugSpec {
                    name: "shed-on-try-lock-failure",
                    expected_bound: 0,
                    expected_faults: 1,
                    build: || {
                        AnyProgram::Runtime(retry_lock_program(RetryVariant::ShedOnFailure, 2))
                    },
                },
                BugSpec {
                    name: "missing-spurious-recheck",
                    expected_bound: 0,
                    expected_faults: 1,
                    build: || {
                        AnyProgram::Runtime(spurious_consumer_program(ConsumerVariant::IfNoRecheck))
                    },
                },
            ],
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_matches_the_paper_inventory() {
        let benches = all_benchmarks();
        // Table 1's six benchmarks plus the fault-injection extension.
        assert_eq!(benches.len(), 7);
        let paper_bugs: usize = benches
            .iter()
            .flat_map(|b| &b.bugs)
            .filter(|bug| bug.expected_faults == 0)
            .count();
        // 16 paper bugs: 7 previously known (Bluetooth 1 + WSQ 3 +
        // TxnMgr 3) plus the 9 found in APE (4) and Dryad (5). The
        // paper's Table 2 caption says "14", but its own rows sum to 16
        // (and the text's 7 known + 9 new = 16); we reproduce the rows.
        assert_eq!(paper_bugs, 16);
        // Every bug is reachable within 2 preemptions — the paper's
        // headline claim ("each of which was exposed by an execution
        // with at most 2 preempting context switches" for the new ones).
        assert!(benches
            .iter()
            .flat_map(|b| &b.bugs)
            .all(|bug| bug.expected_bound <= 2));
        // The extension's bugs need faults but no preemptions at all:
        // the fault dimension is orthogonal to the preemption dimension.
        let fault_bugs: Vec<_> = benches
            .iter()
            .flat_map(|b| &b.bugs)
            .filter(|bug| bug.expected_faults > 0)
            .collect();
        assert_eq!(fault_bugs.len(), 2);
        assert!(fault_bugs
            .iter()
            .all(|bug| bug.expected_bound == 0 && bug.expected_faults == 1));
    }

    #[test]
    fn every_program_builds_and_runs_one_execution() {
        for bench in all_benchmarks() {
            let program = (bench.correct)();
            let mut sched = icb_core::ReplayScheduler::new(Default::default());
            let result = program.execute(&mut sched, &mut icb_core::NullSink);
            assert!(
                !result.outcome.is_bug(),
                "{}: default schedule must be clean, got {}",
                bench.name,
                result.outcome
            );
            for bug in &bench.bugs {
                let program = (bug.build)();
                let mut sched = icb_core::ReplayScheduler::new(Default::default());
                // The default (preemption-free, lowest-id) schedule may
                // or may not expose bound-0 bugs; it must at least run.
                let _ = program.execute(&mut sched, &mut icb_core::NullSink);
            }
        }
    }

    #[test]
    fn bound_distribution_matches_the_papers_shape() {
        let benches = all_benchmarks();
        let mut by_bound = [0usize; 4];
        for bug in benches
            .iter()
            .flat_map(|b| &b.bugs)
            .filter(|bug| bug.expected_faults == 0)
        {
            by_bound[bug.expected_bound.min(3)] += 1;
        }
        // Paper's Table 2 column sums: 3 at bound 0, 7 at bound 1, 5 at
        // bound 2, 1 at bound 3. Ours: the same number of bugs with the
        // same "small bounds suffice" shape.
        assert_eq!(by_bound.iter().sum::<usize>(), 16);
        assert!(by_bound[0] >= 2);
        assert!(by_bound[1] >= 5);
        assert!(by_bound[2] >= 2);
    }
}
