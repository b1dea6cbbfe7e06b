//! The parallel driver's determinism contract, exercised through the
//! public `Search` builder:
//!
//! * the same workload at any `jobs >= 2` yields the *identical*
//!   `SearchReport` — bugs, bound stats, coverage counts, curve — no
//!   matter how the OS schedules the workers;
//! * `jobs = 1` and `jobs >= 2` agree on every order-independent field
//!   (the parallel driver renumbers executions in arrival order, so
//!   per-execution indices may differ);
//! * the stitched telemetry stream carries a `worker_stamp` for every
//!   parallel execution, with per-worker sequence numbers that are
//!   1-based and contiguous — no stamp lost, none duplicated;
//! * sequential searches emit no stamps at all, keeping their event
//!   streams byte-identical to the pre-parallel releases;
//! * all of the above hold with fault injection on (`fault_bound >= 1`):
//!   fault decisions are part of the schedule, so reports and rendered
//!   witnesses stay byte-identical across worker counts and across a
//!   kill-and-resume.

use std::collections::BTreeMap;
use std::path::PathBuf;

use icb_core::search::{Search, SearchConfig, SearchReport, Strategy};
use icb_core::snapshot::{Checkpointer, SearchSnapshot};
use icb_core::telemetry::SearchObserver;
use icb_core::{ControlledProgram, ExecutionResult, ExplainedWitness, Scheduler, StateSink};

mod common;

use common::{Counters, FaultyCounters};

fn buggy() -> Counters {
    Counters {
        n: 2,
        k: 3,
        bug: Some((1, 1, 3)),
    }
}

fn clean() -> Counters {
    Counters {
        n: 3,
        k: 2,
        bug: None,
    }
}

fn run(
    program: &(dyn ControlledProgram + Sync),
    strategy: Strategy,
    config: SearchConfig,
    jobs: usize,
) -> SearchReport {
    Search::over(program)
        .strategy(strategy)
        .config(config)
        .jobs(jobs)
        .run()
        .unwrap()
}

/// The order-independent slice of the contract: everything except
/// per-execution numbering.
fn assert_order_independent_match(par: &SearchReport, seq: &SearchReport) {
    assert_eq!(par.executions, seq.executions, "executions");
    assert_eq!(par.distinct_states, seq.distinct_states, "distinct states");
    assert_eq!(par.buggy_executions, seq.buggy_executions, "buggy count");
    assert_eq!(par.completed, seq.completed, "completed");
    assert_eq!(par.completed_bound, seq.completed_bound, "completed bound");
    assert_eq!(par.bound_history, seq.bound_history, "bound history");
    assert_eq!(par.max_stats, seq.max_stats, "max stats");
    // Sequential drivers report bugs in discovery order; the parallel
    // merge canonicalizes to (preemptions, faults, schedule). Compare
    // the sets.
    let canonical = |r: &SearchReport| {
        let mut bugs: Vec<_> = r
            .bugs
            .iter()
            .map(|b| (b.preemptions, b.faults, b.schedule.clone()))
            .collect();
        bugs.sort();
        bugs
    };
    assert_eq!(canonical(par), canonical(seq), "bug sets");
}

#[test]
fn icb_same_report_at_jobs_1_2_8() {
    for program in [buggy(), clean()] {
        let seq = run(&program, Strategy::Icb, SearchConfig::default(), 1);
        let par2 = run(&program, Strategy::Icb, SearchConfig::default(), 2);
        let par8 = run(&program, Strategy::Icb, SearchConfig::default(), 8);
        // Any two parallel worker counts: full report equality.
        assert_eq!(par2, par8, "parallel reports must be worker-count-free");
        // Sequential vs parallel: all order-independent fields.
        assert_order_independent_match(&par2, &seq);
    }
}

#[test]
fn dfs_same_report_at_jobs_1_2_8() {
    for program in [buggy(), clean()] {
        let seq = run(&program, Strategy::Dfs, SearchConfig::default(), 1);
        let par2 = run(&program, Strategy::Dfs, SearchConfig::default(), 2);
        let par8 = run(&program, Strategy::Dfs, SearchConfig::default(), 8);
        assert_eq!(par2, par8, "parallel reports must be worker-count-free");
        assert_order_independent_match(&par2, &seq);
    }
}

#[test]
fn random_same_report_at_any_parallel_worker_count() {
    // Parallel random walk derives one RNG stream per walk *index*, so
    // the sampled set — and therefore the whole report — is a function
    // of (seed, budget) alone, not of the worker count. (The sequential
    // driver threads a single RNG through the walks and samples a
    // different — equally valid — set; the two are not comparable.)
    let program = clean();
    let config = SearchConfig::with_max_executions(64);
    let strategy = Strategy::Random { seed: 0x1cb };
    let par2 = run(&program, strategy, config.clone(), 2);
    let par8 = run(&program, strategy, config, 8);
    assert_eq!(par2, par8, "parallel random must be worker-count-free");
    assert_eq!(par2.executions, 64);
}

#[test]
fn repeated_parallel_runs_are_identical() {
    // Same jobs count twice: the merge must not leak scheduling noise.
    let program = buggy();
    let a = run(&program, Strategy::Icb, SearchConfig::default(), 4);
    let b = run(&program, Strategy::Icb, SearchConfig::default(), 4);
    assert_eq!(a, b);
}

/// Records every `worker_stamp` and counts executions, to prove the
/// stitched stream lost and duplicated nothing.
#[derive(Default)]
struct StampAudit {
    stamps: Vec<(usize, u64)>,
    executions: usize,
}

impl SearchObserver for StampAudit {
    fn worker_stamp(&mut self, worker: usize, seq: u64, _at: std::time::Duration) {
        self.stamps.push((worker, seq));
    }
    fn execution_started(&mut self, _index: usize) {
        self.executions += 1;
    }
}

#[test]
fn worker_stamps_are_contiguous_per_worker() {
    for jobs in [2usize, 4, 8] {
        let program = clean();
        let mut audit = StampAudit::default();
        let report = Search::over(&program)
            .jobs(jobs)
            .observer(&mut audit)
            .run()
            .unwrap();
        assert_eq!(
            audit.stamps.len(),
            report.executions,
            "jobs={jobs}: one stamp per merged execution"
        );
        assert_eq!(audit.executions, report.executions, "jobs={jobs}");
        // Group by worker: each worker's sequence must be exactly
        // 1..=n with no gaps and no duplicates.
        let mut per_worker: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
        for (worker, seq) in &audit.stamps {
            assert!(*worker < jobs, "jobs={jobs}: worker id {worker} in range");
            per_worker.entry(*worker).or_default().push(*seq);
        }
        for (worker, mut seqs) in per_worker {
            seqs.sort_unstable();
            let expect: Vec<u64> = (1..=seqs.len() as u64).collect();
            assert_eq!(
                seqs, expect,
                "jobs={jobs}: worker {worker} stamps are 1-based and contiguous"
            );
        }
    }
}

/// Explains the report's first bug and renders the bundle-format JSON.
/// The explanation is a pure function of (program, schedule), so any two
/// reports agreeing on the minimal witness must yield identical bytes.
fn witness_json(program: &dyn ControlledProgram, report: &SearchReport) -> String {
    let bug = report.first_bug().expect("report carries a bug");
    ExplainedWitness::explain(program, &bug.schedule).to_json()
}

/// Observer that copies the live checkpoint file aside after its `at`-th
/// write, freezing the state a crash at that instant would leave behind.
struct FreezeCheckpoint {
    live: PathBuf,
    frozen: PathBuf,
    at: usize,
    seen: usize,
}

impl SearchObserver for FreezeCheckpoint {
    fn checkpoint_written(&mut self, _executions: usize) {
        self.seen += 1;
        if self.seen == self.at {
            std::fs::copy(&self.live, &self.frozen).expect("freeze checkpoint copy");
        }
    }
}

#[test]
fn explained_witness_json_is_byte_identical_across_worker_counts() {
    // The `explore explain` bundle promises byte-identical witness.json
    // no matter how many workers found the bug. Sequential and parallel
    // drivers agree on the canonical minimal witness, so the rendered
    // explanation — schedule, attribution, nearest-passing diff — must
    // agree byte for byte.
    let program = buggy();
    let seq = run(&program, Strategy::Icb, SearchConfig::default(), 1);
    let par2 = run(&program, Strategy::Icb, SearchConfig::default(), 2);
    let par8 = run(&program, Strategy::Icb, SearchConfig::default(), 8);
    let reference = witness_json(&program, &seq);
    assert!(!reference.is_empty());
    assert_eq!(
        witness_json(&program, &par2),
        reference,
        "jobs=2 witness.json must match jobs=1 byte for byte"
    );
    assert_eq!(
        witness_json(&program, &par8),
        reference,
        "jobs=8 witness.json must match jobs=1 byte for byte"
    );
}

#[test]
fn explained_witness_json_is_byte_identical_via_resume() {
    // Same contract across a crash: a search resumed from a mid-run
    // checkpoint reports the same minimal witness, hence the same
    // explanation bytes, as the uninterrupted run.
    let program = buggy();
    let reference = {
        let report = run(&program, Strategy::Icb, SearchConfig::default(), 1);
        witness_json(&program, &report)
    };

    let dir = std::env::temp_dir().join(format!("icb-witness-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let live = dir.join("live.ck");
    let frozen = dir.join("frozen.ck");
    let mut copier = FreezeCheckpoint {
        live: live.clone(),
        frozen: frozen.clone(),
        at: 2,
        seen: 0,
    };
    let full = Search::over(&program)
        .config(SearchConfig::default())
        .observer(&mut copier)
        .checkpoint(Checkpointer::new(&live, 1))
        .run()
        .unwrap();
    assert!(
        copier.seen >= 2,
        "search wrote too few checkpoints to freeze"
    );
    assert_eq!(
        witness_json(&program, &full),
        reference,
        "checkpointing must not perturb the witness"
    );

    let snapshot = SearchSnapshot::read_from(&frozen).expect("read frozen checkpoint");
    let resumed = Search::over(&program)
        .resume_from(snapshot)
        .run()
        .expect("resume icb");
    assert_eq!(
        witness_json(&program, &resumed),
        reference,
        "resumed witness.json must match the uninterrupted run byte for byte"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// One injected fault allowed on top of the usual preemption bounds.
fn fault_config() -> SearchConfig {
    SearchConfig {
        fault_bound: 1,
        ..SearchConfig::default()
    }
}

#[test]
fn fault_bound_same_report_at_jobs_1_2_8() {
    let program = FaultyCounters { n: 2, k: 2 };
    // The lost-update bug needs an injected fault: the exhaustive search
    // at fault_bound 0 completes without finding anything.
    let baseline = run(&program, Strategy::Icb, SearchConfig::default(), 1);
    assert!(baseline.completed, "{baseline}");
    assert!(
        baseline.bugs.is_empty(),
        "bug must be invisible without faults: {baseline}"
    );

    let seq = run(&program, Strategy::Icb, fault_config(), 1);
    let par2 = run(&program, Strategy::Icb, fault_config(), 2);
    let par8 = run(&program, Strategy::Icb, fault_config(), 8);
    assert_eq!(
        par2, par8,
        "parallel fault-bound reports must be worker-count-free"
    );
    assert_order_independent_match(&par2, &seq);
    let bug = seq.first_bug().expect("fault bug found");
    assert_eq!(
        (bug.preemptions, bug.faults),
        (0, 1),
        "the iterative (c, f) levels surface the minimum witness first"
    );
}

#[test]
fn fault_witness_json_is_byte_identical_across_worker_counts() {
    let program = FaultyCounters { n: 2, k: 3 };
    let seq = run(&program, Strategy::Icb, fault_config(), 1);
    let par2 = run(&program, Strategy::Icb, fault_config(), 2);
    let par8 = run(&program, Strategy::Icb, fault_config(), 8);
    let reference = witness_json(&program, &seq);
    assert!(
        reference.contains("\"fault_steps\": ["),
        "witness records its injected faults: {reference}"
    );
    assert_eq!(
        witness_json(&program, &par2),
        reference,
        "jobs=2 fault witness.json must match jobs=1 byte for byte"
    );
    assert_eq!(
        witness_json(&program, &par8),
        reference,
        "jobs=8 fault witness.json must match jobs=1 byte for byte"
    );
}

#[test]
fn fault_witness_json_is_byte_identical_via_resume() {
    // The resume contract with fault injection on: a search resumed from
    // a mid-run checkpoint (the state a kill -9 leaves behind) reports
    // the same minimal fault witness, hence the same explanation bytes,
    // as the uninterrupted run. The checkpoint carries the fault bound,
    // so the resumed search needs no re-configuration.
    let program = FaultyCounters { n: 2, k: 3 };
    let reference = {
        let report = run(&program, Strategy::Icb, fault_config(), 1);
        witness_json(&program, &report)
    };
    assert!(reference.contains("\"fault_steps\": ["), "{reference}");

    let dir = std::env::temp_dir().join(format!("icb-fault-witness-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let live = dir.join("live.ck");
    let frozen = dir.join("frozen.ck");
    let mut copier = FreezeCheckpoint {
        live: live.clone(),
        frozen: frozen.clone(),
        at: 2,
        seen: 0,
    };
    let full = Search::over(&program)
        .config(fault_config())
        .observer(&mut copier)
        .checkpoint(Checkpointer::new(&live, 1))
        .run()
        .unwrap();
    assert!(
        copier.seen >= 2,
        "search wrote too few checkpoints to freeze"
    );
    assert_eq!(
        witness_json(&program, &full),
        reference,
        "checkpointing must not perturb the fault witness"
    );

    let snapshot = SearchSnapshot::read_from(&frozen).expect("read frozen checkpoint");
    let resumed = Search::over(&program)
        .resume_from(snapshot)
        .run()
        .expect("resume icb with fault bound");
    assert_eq!(
        witness_json(&program, &resumed),
        reference,
        "resumed fault witness.json must match the uninterrupted run byte for byte"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The deferral traffic of an ICB search: `work-item-deferred` events
/// per next bound, the last reported queue depth, and each
/// `bound-started` as `(bound, queued items, depth reported before it)`.
#[derive(Default)]
struct Deferrals {
    deferred: BTreeMap<usize, usize>,
    depth: usize,
    started: Vec<(usize, usize, usize)>,
}

impl SearchObserver for Deferrals {
    fn work_item_deferred(&mut self, next_bound: usize) {
        *self.deferred.entry(next_bound).or_default() += 1;
    }
    fn work_queue_depth(&mut self, depth: usize) {
        self.depth = depth;
    }
    fn bound_started(&mut self, bound: usize, work_items: usize) {
        self.started.push((bound, work_items, self.depth));
    }
}

/// A search to target `c` only counts the work it defers to `c + 1`;
/// the count must be exactly the queue a search to target `c + 1`
/// builds for that bound, at every job count and fault bound.
#[test]
fn counted_deferrals_match_the_next_bounds_queue() {
    let program = FaultyCounters { n: 3, k: 2 };
    for fault_bound in [0, 1] {
        for jobs in [1, 2] {
            for c in [0, 1] {
                let traffic = |target: usize| {
                    let mut seen = Deferrals::default();
                    Search::over(&program)
                        .config(SearchConfig {
                            preemption_bound: Some(target),
                            fault_bound,
                            ..SearchConfig::default()
                        })
                        .jobs(jobs)
                        .observer(&mut seen)
                        .run()
                        .unwrap();
                    seen
                };
                let at = format!("c {c}, fault bound {fault_bound}, jobs {jobs}");
                let counted = traffic(c);
                let beyond = counted.deferred.get(&(c + 1)).copied().unwrap_or(0);
                assert!(beyond > 0, "{at}: nothing deferred past the target");
                assert_eq!(counted.depth, beyond, "{at}: depth counts them");
                assert!(counted.started.iter().all(|&(b, ..)| b <= c), "{at}");

                let queued = traffic(c + 1);
                let &(_, items, depth) = queued
                    .started
                    .iter()
                    .find(|&&(b, ..)| b == c + 1)
                    .expect("bound c + 1 started");
                // Every item pending when bound c + 1 starts was deferred
                // from bound c; its first fault level holds all of them
                // unless faults split them over more levels.
                assert_eq!(depth, beyond, "{at}: pending at bound c + 1");
                if fault_bound == 0 {
                    assert_eq!(items, beyond, "{at}: bound c + 1 queue");
                } else {
                    assert!(items <= beyond, "{at}: bound c + 1 queue");
                }
            }
        }
    }
}

#[test]
fn sequential_runs_emit_no_worker_stamps() {
    let program = clean();
    let mut audit = StampAudit::default();
    let report = Search::over(&program).observer(&mut audit).run().unwrap();
    assert!(
        audit.stamps.is_empty(),
        "jobs=1 streams must stay byte-identical to pre-parallel output"
    );
    assert_eq!(audit.executions, report.executions);
}

#[test]
fn random_matches_on_order_independent_fields_at_jobs_1_2_8() {
    // Walk `i` draws from its own stream at every job count, so the
    // sampled set is the same; only bug numbering and the curve's
    // sampling follow the job count.
    let program = buggy();
    let config = SearchConfig::with_max_executions(64);
    let strategy = Strategy::Random { seed: 0x1cb };
    let seq = run(&program, strategy, config.clone(), 1);
    let par2 = run(&program, strategy, config.clone(), 2);
    let par8 = run(&program, strategy, config, 8);
    assert_eq!(par2, par8);
    assert_eq!(seq.executions, par2.executions);
    assert_eq!(seq.distinct_states, par2.distinct_states);
    assert_eq!(seq.buggy_executions, par2.buggy_executions);
    assert_eq!(seq.max_stats, par2.max_stats);
    let schedules = |r: &SearchReport| {
        let mut s: Vec<_> = r.bugs.iter().map(|b| b.schedule.clone()).collect();
        s.sort();
        s.dedup();
        s
    };
    assert_eq!(schedules(&seq), schedules(&par2));
}

/// Records the thread every execution runs on.
struct ThreadProbe {
    inner: Counters,
    threads: std::sync::Mutex<std::collections::HashSet<std::thread::ThreadId>>,
}

impl ControlledProgram for ThreadProbe {
    fn execute(&self, scheduler: &mut dyn Scheduler, sink: &mut dyn StateSink) -> ExecutionResult {
        self.threads
            .lock()
            .unwrap()
            .insert(std::thread::current().id());
        self.inner.execute(scheduler, sink)
    }
}

#[test]
fn jobs_1_executes_on_the_calling_thread() {
    let strategies = [
        Strategy::Icb,
        Strategy::Dfs,
        Strategy::DepthBounded(3),
        Strategy::IterativeDeepening {
            start: 2,
            step: 2,
            max: 6,
        },
        Strategy::Random { seed: 3 },
        Strategy::BestFirst,
    ];
    for strategy in strategies {
        let probe = ThreadProbe {
            inner: buggy(),
            threads: Default::default(),
        };
        run(&probe, strategy, SearchConfig::with_max_executions(50), 1);
        let threads = probe.threads.into_inner().unwrap();
        assert_eq!(
            threads.into_iter().collect::<Vec<_>>(),
            vec![std::thread::current().id()],
            "{strategy:?}"
        );
    }
}
