//! Crash-resilient search state: serializable checkpoints and resume.
//!
//! The paper's Algorithm 1 is a resumable work queue by construction — a
//! work item is just a schedule prefix, and replay determinism means
//! re-running a lost partial work item reproduces it exactly. This
//! module makes that property durable: [`SearchSnapshot`] captures the
//! complete state of an interrupted search (remaining work queues,
//! branch stacks, walk ranges, coverage summary and cumulative report
//! counters) in a versioned, checksummed on-disk format. Snapshots are
//! written atomically (temp file + rename), so a `SIGKILL` mid-write
//! leaves the previous checkpoint intact, and a resumed run produces a
//! final report identical to an uninterrupted one.
//!
//! The payload layout lives here; the container around it (magic,
//! version, length, checksum, atomic write) is the one in
//! [`crate::durable`] that cache segments use too. Corrupted or
//! truncated files are rejected with a structured [`durable::Error`],
//! never a panic.

use std::fs;
use std::path::{Path, PathBuf};

use crate::durable::{self, Format, Reader, Writer};
use crate::search::{BoundStats, BugReport, QuarantinedTrace, SearchConfig};
use crate::tid::Tid;
use crate::trace::{ExecStats, ExecutionOutcome, Schedule};

/// The checkpoint file format.
/// Version history (bump on any layout change):
/// v2: `SearchConfig` gained `coverage_stride`.
/// v3: fault bounding — `SearchConfig` gained `fault_bound`, schedules
/// carry fault sets, `ExecStats`/`BugReport`/`BoundStats` gained fault
/// counters, and `IcbState` replaced the single `next` queue with the
/// per-`(preemption, fault)`-level deferred map.
/// v4: one state per strategy — DFS stores its unexplored items, random
/// its unexplored walk-index ranges, at any job count.
/// v5: `IcbState` counts the work deferred past the target bound
/// (`beyond`) instead of storing it as `(bound + 1, _)` rows.
static FORMAT: Format = Format {
    magic: b"ICBSNAPv",
    version: 5,
    name: "checkpoint file",
    version_advice: "; restart the run from scratch",
};

/// The strategy-independent half of a checkpoint: cumulative counters,
/// findings and the coverage summary of everything explored so far.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ResumeBase {
    /// Executions completed.
    pub executions: usize,
    /// Executions that ended in a bug.
    pub buggy_executions: usize,
    /// Bug reports recorded so far (capped by `max_bug_reports`).
    pub bugs: Vec<BugReport>,
    /// Pointwise maxima of the per-execution statistics.
    pub max_stats: ExecStats,
    /// Quarantined (replay-diverged) prefixes recorded so far.
    pub quarantined: Vec<QuarantinedTrace>,
    /// Total quarantined subtrees (including beyond the stored cap).
    pub quarantined_total: usize,
    /// Executions abandoned by the per-execution watchdog.
    pub watchdog_trips: usize,
    /// Whether work was already dropped (queue cap) before the
    /// checkpoint.
    pub truncated: bool,
    /// The distinct state fingerprints seen, sorted.
    pub coverage_states: Vec<u64>,
    /// Completed executions as counted by the coverage tracker.
    pub coverage_executions: usize,
    /// The coverage growth curve samples.
    pub coverage_curve: Vec<(usize, usize)>,
}

/// One suspended branch point of a nested DFS, serialized.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BranchSnapshot {
    /// Step index of the scheduling point (0 for strategies that do not
    /// record it).
    pub step: usize,
    /// The enabled threads at that point.
    pub options: Vec<Tid>,
    /// Index of the option to take on the next run.
    pub next_ix: usize,
}

/// ICB-specific checkpoint state: the current level's work queue, the
/// deferred levels, per-level baselines and the optionally suspended
/// (mid-item) nested DFS.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct IcbState {
    /// The preemption bound being explored.
    pub bound: usize,
    /// The fault level being explored (0 at fault bound 0).
    pub fault: usize,
    /// `executions` counter value when this level started (for the
    /// per-level statistics row).
    pub bound_executions_base: usize,
    /// `buggy_executions` counter value when this level started.
    pub bound_bugs_base: usize,
    /// Highest bound fully explored before the checkpoint.
    pub completed_bound: Option<usize>,
    /// Remaining work items (schedule prefixes) of the current level.
    pub work: Vec<Schedule>,
    /// Work items already deferred to future `(preemption, fault)`
    /// levels, as `(bound, fault, items)` rows sorted by level. At
    /// fault bound 0 this holds at most the `(bound + 1, 0)` row — the
    /// legacy `next` queue. Never a level past the target bound.
    pub deferred: Vec<(usize, usize, Vec<Schedule>)>,
    /// Work items deferred past the target bound, which never run:
    /// only their number is kept.
    pub beyond: usize,
    /// Per-level statistics of the levels completed so far.
    pub bound_history: Vec<BoundStats>,
    /// A work item interrupted mid-exploration: its prefix and the
    /// branch stack positioned for the next run of its nested DFS.
    pub in_progress: Option<(Schedule, Vec<BranchSnapshot>)>,
}

/// The strategy-specific half of a checkpoint: the unexplored work, in
/// the same form at every job count.
#[derive(Clone, Debug, PartialEq)]
pub enum StrategyState {
    /// An ICB checkpoint.
    Icb(IcbState),
    /// A DFS (`dfs` / `db:N`) checkpoint.
    Dfs {
        /// The depth bound (`db:N`), if any.
        depth_bound: Option<usize>,
        /// Unexplored subtrees: a schedule prefix, with the branch stack
        /// positioned for the next run once its nested DFS has started.
        items: Vec<(Schedule, Vec<BranchSnapshot>)>,
    },
    /// A random-walk checkpoint. Walk `i` draws from its own stream
    /// derived from `seed`, so the unexplored walks are plain index
    /// ranges.
    Random {
        /// The seed the per-walk streams are derived from.
        seed: u64,
        /// Unexplored walk indices as half-open `(start, end)` ranges.
        ranges: Vec<(u64, u64)>,
    },
}

/// A complete, serializable snapshot of an in-flight search.
///
/// Snapshots are taken at execution boundaries, where replay determinism
/// guarantees that resuming reproduces the uninterrupted run exactly:
/// same executions, same distinct states, same bugs, same final report.
#[derive(Clone, Debug, PartialEq)]
pub struct SearchSnapshot {
    /// The strategy label (`icb`, `dfs`, `db:N`, `random`).
    pub strategy: String,
    /// Caller-owned key/value metadata (the CLI stores the benchmark,
    /// bug and flags here so `resume` can rebuild the program).
    pub meta: Vec<(String, String)>,
    /// The search configuration the run was started with.
    pub config: SearchConfig,
    /// Cumulative counters, findings and coverage.
    pub base: ResumeBase,
    /// Strategy-specific queue/stack state.
    pub state: StrategyState,
}

impl SearchSnapshot {
    /// Looks up a metadata value by key.
    pub fn meta_value(&self, key: &str) -> Option<&str> {
        self.meta
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Serializes the snapshot and writes it to `path` atomically (see
    /// [`Format::write_atomic`]), so a crash mid-write never destroys
    /// the previous checkpoint.
    pub fn write_to(&self, path: &Path) -> Result<(), durable::Error> {
        FORMAT.write_atomic(path, &FORMAT.seal(&self.encode()))
    }

    /// Reads and validates a snapshot from `path`.
    pub fn read_from(path: &Path) -> Result<Self, durable::Error> {
        Self::from_bytes(&fs::read(path).map_err(|e| FORMAT.io_error(e))?)
    }

    /// Decodes a snapshot from its on-disk byte representation.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, durable::Error> {
        FORMAT.open(bytes, Self::decode)
    }

    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::default();
        w.str(&self.strategy);
        w.list(&self.meta, |w, (k, v)| {
            w.str(k);
            w.str(v);
        });
        encode_config(&mut w, &self.config);
        encode_base(&mut w, &self.base);
        match &self.state {
            StrategyState::Icb(s) => {
                w.u8(0);
                w.usize(s.bound);
                w.usize(s.fault);
                w.usize(s.bound_executions_base);
                w.usize(s.bound_bugs_base);
                w.opt_usize(s.completed_bound);
                w.list(&s.work, encode_schedule);
                w.list(&s.deferred, |w, (c, f, items)| {
                    w.usize(*c);
                    w.usize(*f);
                    w.list(items, encode_schedule);
                });
                w.usize(s.beyond);
                w.list(&s.bound_history, |w, b| {
                    for v in [
                        b.bound,
                        b.faults,
                        b.executions,
                        b.cumulative_states,
                        b.bugs_found,
                    ] {
                        w.usize(v);
                    }
                });
                w.bool(s.in_progress.is_some());
                if let Some(item) = &s.in_progress {
                    encode_item(&mut w, item);
                }
            }
            StrategyState::Dfs { depth_bound, items } => {
                w.u8(1);
                w.opt_usize(*depth_bound);
                w.list(items, encode_item);
            }
            StrategyState::Random { seed, ranges } => {
                w.u8(2);
                w.u64(*seed);
                w.list(ranges, |w, &(start, end)| {
                    w.u64(start);
                    w.u64(end);
                });
            }
        }
        w.into_bytes()
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, durable::Error> {
        let strategy = r.str()?;
        let meta = r.list(|r| Ok((r.str()?, r.str()?)))?;
        let config = decode_config(r)?;
        let base = decode_base(r)?;
        let state = match r.u8()? {
            0 => StrategyState::Icb(IcbState {
                bound: r.usize()?,
                fault: r.usize()?,
                bound_executions_base: r.usize()?,
                bound_bugs_base: r.usize()?,
                completed_bound: r.opt_usize()?,
                work: r.list(decode_schedule)?,
                deferred: r.list(|r| Ok((r.usize()?, r.usize()?, r.list(decode_schedule)?)))?,
                beyond: r.usize()?,
                bound_history: r.list(|r| {
                    Ok(BoundStats {
                        bound: r.usize()?,
                        faults: r.usize()?,
                        executions: r.usize()?,
                        cumulative_states: r.usize()?,
                        bugs_found: r.usize()?,
                    })
                })?,
                in_progress: r.bool()?.then(|| decode_item(r)).transpose()?,
            }),
            1 => StrategyState::Dfs {
                depth_bound: r.opt_usize()?,
                items: r.list(decode_item)?,
            },
            2 => StrategyState::Random {
                seed: r.u64()?,
                ranges: r.list(|r| Ok((r.u64()?, r.u64()?)))?,
            },
            tag => return Err(r.corrupt(format!("unknown strategy state tag {tag}"))),
        };
        Ok(SearchSnapshot {
            strategy,
            meta,
            config,
            base,
            state,
        })
    }
}

fn encode_config(w: &mut Writer, c: &SearchConfig) {
    w.opt_usize(c.max_executions);
    w.opt_usize(c.preemption_bound);
    w.usize(c.fault_bound);
    w.bool(c.stop_on_first_bug);
    w.usize(c.max_bug_reports);
    w.opt_usize(c.max_work_queue);
    w.bool(c.max_duration.is_some());
    if let Some(d) = c.max_duration {
        w.u64(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }
    w.usize(c.coverage_stride);
}

fn decode_config(r: &mut Reader<'_>) -> Result<SearchConfig, durable::Error> {
    Ok(SearchConfig {
        max_executions: r.opt_usize()?,
        preemption_bound: r.opt_usize()?,
        fault_bound: r.usize()?,
        stop_on_first_bug: r.bool()?,
        max_bug_reports: r.usize()?,
        max_work_queue: r.opt_usize()?,
        max_duration: if r.bool()? {
            Some(std::time::Duration::from_nanos(r.u64()?))
        } else {
            None
        },
        coverage_stride: r.usize()?,
    })
}

fn encode_base(w: &mut Writer, b: &ResumeBase) {
    w.usize(b.executions);
    w.usize(b.buggy_executions);
    w.list(&b.bugs, |w, bug| {
        encode_outcome(w, &bug.outcome);
        encode_schedule(w, &bug.schedule);
        w.usize(bug.preemptions);
        w.usize(bug.faults);
        w.usize(bug.execution_index);
        w.usize(bug.steps);
    });
    encode_stats(w, &b.max_stats);
    w.list(&b.quarantined, |w, q| {
        encode_schedule(w, &q.schedule);
        w.usize(q.step);
        w.usize(q.expected.0);
        encode_tids(w, &q.actual);
    });
    w.usize(b.quarantined_total);
    w.usize(b.watchdog_trips);
    w.bool(b.truncated);
    w.list(&b.coverage_states, |w, &s| w.u64(s));
    w.usize(b.coverage_executions);
    w.list(&b.coverage_curve, |w, &(x, y)| {
        w.usize(x);
        w.usize(y);
    });
}

fn decode_base(r: &mut Reader<'_>) -> Result<ResumeBase, durable::Error> {
    Ok(ResumeBase {
        executions: r.usize()?,
        buggy_executions: r.usize()?,
        bugs: r.list(|r| {
            Ok(BugReport {
                outcome: decode_outcome(r)?,
                schedule: decode_schedule(r)?,
                preemptions: r.usize()?,
                faults: r.usize()?,
                execution_index: r.usize()?,
                steps: r.usize()?,
            })
        })?,
        max_stats: decode_stats(r)?,
        quarantined: r.list(|r| {
            Ok(QuarantinedTrace {
                schedule: decode_schedule(r)?,
                step: r.usize()?,
                expected: Tid(r.usize()?),
                actual: decode_tids(r)?,
            })
        })?,
        quarantined_total: r.usize()?,
        watchdog_trips: r.usize()?,
        truncated: r.bool()?,
        coverage_states: r.list(Reader::u64)?,
        coverage_executions: r.usize()?,
        coverage_curve: r.list(|r| Ok((r.usize()?, r.usize()?)))?,
    })
}

fn encode_stats(w: &mut Writer, s: &ExecStats) {
    w.usize(s.steps);
    w.usize(s.blocking_steps);
    w.usize(s.preemptions);
    w.usize(s.context_switches);
    w.usize(s.faults);
}

fn decode_stats(r: &mut Reader<'_>) -> Result<ExecStats, durable::Error> {
    Ok(ExecStats {
        steps: r.usize()?,
        blocking_steps: r.usize()?,
        preemptions: r.usize()?,
        context_switches: r.usize()?,
        faults: r.usize()?,
    })
}

fn encode_outcome(w: &mut Writer, o: &ExecutionOutcome) {
    match o {
        ExecutionOutcome::Terminated => w.u8(0),
        ExecutionOutcome::AssertionFailure { thread, message } => {
            w.u8(1);
            w.usize(thread.0);
            w.str(message);
        }
        ExecutionOutcome::Deadlock { blocked } => {
            w.u8(2);
            encode_tids(w, blocked);
        }
        ExecutionOutcome::DataRace { description } => {
            w.u8(3);
            w.str(description);
        }
        ExecutionOutcome::StepLimitExceeded => w.u8(4),
        ExecutionOutcome::ReplayDivergence {
            step,
            expected,
            actual,
        } => {
            w.u8(5);
            w.usize(*step);
            w.usize(expected.0);
            encode_tids(w, actual);
        }
        ExecutionOutcome::WatchdogTimeout => w.u8(6),
    }
}

fn decode_outcome(r: &mut Reader<'_>) -> Result<ExecutionOutcome, durable::Error> {
    Ok(match r.u8()? {
        0 => ExecutionOutcome::Terminated,
        1 => ExecutionOutcome::AssertionFailure {
            thread: Tid(r.usize()?),
            message: r.str()?,
        },
        2 => ExecutionOutcome::Deadlock {
            blocked: decode_tids(r)?,
        },
        3 => ExecutionOutcome::DataRace {
            description: r.str()?,
        },
        4 => ExecutionOutcome::StepLimitExceeded,
        5 => ExecutionOutcome::ReplayDivergence {
            step: r.usize()?,
            expected: Tid(r.usize()?),
            actual: decode_tids(r)?,
        },
        6 => ExecutionOutcome::WatchdogTimeout,
        tag => return Err(r.corrupt(format!("unknown outcome tag {tag}"))),
    })
}

fn encode_tids(w: &mut Writer, ts: &[Tid]) {
    w.list(ts, |w, t| w.usize(t.0));
}

fn decode_tids(r: &mut Reader<'_>) -> Result<Vec<Tid>, durable::Error> {
    r.list(|r| Ok(Tid(r.usize()?)))
}

fn encode_schedule(w: &mut Writer, s: &Schedule) {
    encode_tids(w, s.as_slice());
    w.list(s.faults(), |w, &step| w.usize(step));
}

fn decode_schedule(r: &mut Reader<'_>) -> Result<Schedule, durable::Error> {
    let mut s = Schedule::from(decode_tids(r)?);
    s.set_faults(r.list(Reader::usize)?);
    Ok(s)
}

/// A work item: its prefix and branch stack.
fn encode_item(w: &mut Writer, (prefix, stack): &(Schedule, Vec<BranchSnapshot>)) {
    encode_schedule(w, prefix);
    w.list(stack, |w, b| {
        w.usize(b.step);
        encode_tids(w, &b.options);
        w.usize(b.next_ix);
    });
}

fn decode_item(r: &mut Reader<'_>) -> Result<(Schedule, Vec<BranchSnapshot>), durable::Error> {
    let prefix = decode_schedule(r)?;
    let stack = r.list(|r| {
        let b = BranchSnapshot {
            step: r.usize()?,
            options: decode_tids(r)?,
            next_ix: r.usize()?,
        };
        // An out-of-range option index would otherwise panic deep
        // inside a scheduler.
        if b.next_ix >= b.options.len() {
            return Err(r.corrupt("branch stack entry with out-of-range option index"));
        }
        Ok(b)
    })?;
    Ok((prefix, stack))
}

/// Writes periodic checkpoints of a search to one path.
///
/// A checkpointer is handed to [`Search::checkpoint`](crate::search::Search::checkpoint);
/// the driver consults [`due`](Checkpointer::due) at execution
/// boundaries and [`write`](Checkpointer::write)s atomically. On clean
/// completion it calls [`finish`](Checkpointer::finish) to remove the
/// file — a completed search has nothing to resume.
#[derive(Debug)]
pub struct Checkpointer {
    path: PathBuf,
    every: usize,
    last_at: usize,
    meta: Vec<(String, String)>,
}

impl Checkpointer {
    /// Creates a checkpointer writing to `path` every `every` executions.
    ///
    /// The raw interval is kept so [`Search`](crate::search::Search) can
    /// reject `every == 0` at build time with a typed error.
    pub fn new(path: impl Into<PathBuf>, every: usize) -> Self {
        Checkpointer {
            path: path.into(),
            every,
            last_at: 0,
            meta: Vec::new(),
        }
    }

    /// The configured checkpoint interval, as passed to
    /// [`new`](Checkpointer::new) (0 is representable but rejected by
    /// the `Search` builder).
    pub fn every(&self) -> usize {
        self.every
    }

    /// Attaches caller-owned metadata recorded in every snapshot (the
    /// CLI stores the benchmark name, bug and flags so `resume` can
    /// rebuild the program).
    pub fn with_meta(mut self, meta: Vec<(String, String)>) -> Self {
        self.meta = meta;
        self
    }

    /// The path checkpoints are written to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The metadata attached to every snapshot.
    pub fn meta(&self) -> &[(String, String)] {
        &self.meta
    }

    /// Marks `executions` as already durable (call when resuming so the
    /// next write is `every` executions after the snapshot, not after
    /// zero).
    pub fn mark_written(&mut self, executions: usize) {
        self.last_at = executions;
    }

    /// Whether a checkpoint is due at cumulative execution count
    /// `executions`.
    pub fn due(&self, executions: usize) -> bool {
        executions.saturating_sub(self.last_at) >= self.every.max(1)
    }

    /// Writes `snapshot` atomically to the checkpoint path, retrying
    /// transient I/O failures (see [`Format::write_atomic`]). After the
    /// attempts are exhausted the error is returned; callers degrade to
    /// a logged warning and keep searching.
    pub fn write(&mut self, snapshot: &SearchSnapshot) -> Result<(), durable::Error> {
        snapshot.write_to(&self.path)?;
        self.last_at = snapshot.base.executions;
        Ok(())
    }

    /// Removes the checkpoint file after a clean completion (a finished
    /// search has nothing to resume). Missing files are fine.
    pub fn finish(&self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// Cooperative interrupt (Ctrl-C / SIGTERM) support for checkpointing
/// searches.
///
/// The handler only sets an atomic flag; checkpointing strategies poll
/// [`interrupted`](interrupt::interrupted) at execution boundaries, write a final snapshot and
/// halt with [`AbortReason::Interrupted`](crate::AbortReason). The
/// workspace links no signal-handling crate, so the handler is installed
/// through the C `signal` function that libc already provides to every
/// Rust binary.
pub mod interrupt {
    use std::sync::atomic::{AtomicBool, Ordering};

    static INTERRUPTED: AtomicBool = AtomicBool::new(false);

    #[cfg(unix)]
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    #[cfg(unix)]
    extern "C" fn on_signal(_signum: i32) {
        // Only async-signal-safe work is allowed here.
        INTERRUPTED.store(true, Ordering::SeqCst);
    }

    /// Installs the SIGINT/SIGTERM handler (idempotent). On platforms
    /// without POSIX signals this is a no-op and [`interrupted`] only
    /// reflects [`request`] calls.
    pub fn install() {
        #[cfg(unix)]
        {
            static ONCE: std::sync::Once = std::sync::Once::new();
            ONCE.call_once(|| unsafe {
                signal(2, on_signal); // SIGINT
                signal(15, on_signal); // SIGTERM
            });
        }
    }

    /// Whether an interrupt was requested since the last [`reset`].
    pub fn interrupted() -> bool {
        INTERRUPTED.load(Ordering::SeqCst)
    }

    /// Requests an interrupt programmatically (what the signal handler
    /// does; useful in tests).
    pub fn request() {
        INTERRUPTED.store(true, Ordering::SeqCst);
    }

    /// Clears the interrupt flag.
    pub fn reset() {
        INTERRUPTED.store(false, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::ErrorKind;

    fn sample() -> SearchSnapshot {
        SearchSnapshot {
            strategy: "icb".into(),
            meta: vec![("benchmark".into(), "Bluetooth".into())],
            config: SearchConfig {
                max_executions: Some(5000),
                preemption_bound: Some(2),
                fault_bound: 1,
                stop_on_first_bug: true,
                max_bug_reports: 7,
                max_work_queue: None,
                max_duration: Some(std::time::Duration::from_millis(1500)),
                coverage_stride: 3,
            },
            base: ResumeBase {
                executions: 42,
                buggy_executions: 1,
                bugs: vec![BugReport {
                    outcome: ExecutionOutcome::AssertionFailure {
                        thread: Tid(1),
                        message: "lost \"update\"".into(),
                    },
                    schedule: {
                        let mut s = Schedule::from(vec![Tid(0), Tid(1), Tid(0)]);
                        s.add_fault(1);
                        s
                    },
                    preemptions: 1,
                    faults: 1,
                    execution_index: 17,
                    steps: 3,
                }],
                max_stats: ExecStats {
                    steps: 12,
                    blocking_steps: 2,
                    preemptions: 2,
                    context_switches: 4,
                    faults: 1,
                },
                quarantined: vec![QuarantinedTrace {
                    schedule: vec![Tid(1)].into(),
                    step: 0,
                    expected: Tid(1),
                    actual: vec![Tid(0)],
                }],
                quarantined_total: 3,
                watchdog_trips: 2,
                truncated: false,
                coverage_states: vec![1, 5, 9],
                coverage_executions: 42,
                coverage_curve: vec![(1, 1), (42, 3)],
            },
            state: StrategyState::Icb(IcbState {
                bound: 1,
                fault: 1,
                bound_executions_base: 30,
                bound_bugs_base: 0,
                completed_bound: Some(0),
                work: vec![vec![Tid(0), Tid(1)].into()],
                deferred: vec![
                    (1, 2, vec![vec![Tid(1)].into()]),
                    (2, 1, vec![vec![Tid(0)].into()]),
                ],
                beyond: 0,
                bound_history: vec![BoundStats {
                    bound: 0,
                    faults: 0,
                    executions: 30,
                    cumulative_states: 2,
                    bugs_found: 0,
                }],
                in_progress: Some((
                    vec![Tid(0)].into(),
                    vec![BranchSnapshot {
                        step: 2,
                        options: vec![Tid(0), Tid(1)],
                        next_ix: 1,
                    }],
                )),
            }),
        }
    }

    #[test]
    fn snapshot_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!("icb-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.ck");
        let snap = sample();
        snap.write_to(&path).unwrap();
        let back = SearchSnapshot::read_from(&path).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.meta_value("benchmark"), Some("Bluetooth"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn dfs_sample() -> SearchSnapshot {
        SearchSnapshot {
            strategy: "dfs".into(),
            state: StrategyState::Dfs {
                depth_bound: Some(40),
                items: vec![
                    (
                        vec![Tid(1)].into(),
                        vec![BranchSnapshot {
                            step: 1,
                            options: vec![Tid(0), Tid(1), Tid(2)],
                            next_ix: 2,
                        }],
                    ),
                    (vec![Tid(2)].into(), Vec::new()),
                ],
            },
            ..sample()
        }
    }

    fn random_sample() -> SearchSnapshot {
        SearchSnapshot {
            strategy: "random".into(),
            state: StrategyState::Random {
                seed: 0xdead_beef,
                ranges: vec![(3, 9), (12, 40)],
            },
            ..sample()
        }
    }

    #[test]
    fn dfs_and_random_states_round_trip() {
        for snap in [dfs_sample(), random_sample()] {
            let back = SearchSnapshot::from_bytes(&to_bytes(&snap)).unwrap();
            assert_eq!(back, snap);
        }
    }

    /// Pins the bytes of format version 5 as written to disk, one file
    /// per strategy state, and cuts each file at every length: a cut
    /// file is an error naming the truncation, never a panic.
    #[test]
    fn written_bytes_are_pinned_and_every_cut_is_rejected() {
        let dir = std::env::temp_dir().join(format!("icb-snap-pin-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pin.ck");
        for (snap, len, digest) in [
            (sample(), 784, 13207880514485172220),
            (dfs_sample(), 599, 7957255415963871550),
            (random_sample(), 521, 6123514914925322052),
        ] {
            snap.write_to(&path).unwrap();
            let bytes = std::fs::read(&path).unwrap();
            assert_eq!(
                (bytes.len(), crate::hash::fingerprint_bytes(&bytes)),
                (len, digest),
                "{} checkpoint bytes changed",
                snap.strategy
            );
            for cut in 0..bytes.len() {
                let err = SearchSnapshot::from_bytes(&bytes[..cut]).unwrap_err();
                assert!(err.to_string().contains("truncated"), "cut at {cut}: {err}");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn to_bytes(snap: &SearchSnapshot) -> Vec<u8> {
        FORMAT.seal(&snap.encode())
    }

    #[test]
    fn checkpointer_paces_writes_by_executions() {
        let ck = Checkpointer::new("/tmp/nonexistent.ck", 10);
        assert!(!ck.due(9));
        assert!(ck.due(10));
        let mut ck = Checkpointer::new("/tmp/nonexistent.ck", 10);
        ck.mark_written(25);
        assert!(!ck.due(30));
        assert!(ck.due(35));
    }

    #[test]
    fn errors_render_clear_messages() {
        assert!(FORMAT
            .error(ErrorKind::ChecksumMismatch)
            .to_string()
            .contains("corrupted"));
        assert!(FORMAT
            .error(ErrorKind::Truncated)
            .to_string()
            .contains("truncated"));
        let e = FORMAT.error(ErrorKind::UnsupportedVersion(3));
        assert!(e.to_string().contains("version 3"), "{e}");
        assert!(e.to_string().contains("restart the run"), "{e}");
    }

    #[test]
    fn versions_3_and_4_are_rejected_not_panicked() {
        // A v3 file (the layout before one state per strategy) and a v4
        // file (which stored the work deferred past the target bound as
        // schedules) fail on their header, before any of their payload
        // is decoded.
        for version in [3u32, 4] {
            let mut bytes = to_bytes(&sample());
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            let err = SearchSnapshot::from_bytes(&bytes).unwrap_err();
            assert_eq!(err.kind, ErrorKind::UnsupportedVersion(version));
            assert!(err.to_string().contains("restart the run"), "{err}");
        }
    }

    #[test]
    fn beyond_count_round_trips() {
        for beyond in [1, 279_100, u64::MAX as usize] {
            // At the target bound only the fault levels are stored.
            let mut snap = sample();
            if let StrategyState::Icb(state) = &mut snap.state {
                (state.bound, state.fault) = (2, 0);
                state.deferred = vec![(2, 1, vec![vec![Tid(0)].into()])];
                state.beyond = beyond;
            }
            let back = SearchSnapshot::from_bytes(&to_bytes(&snap)).unwrap();
            assert_eq!(back, snap);
        }
    }

    #[test]
    fn out_of_range_branch_index_is_rejected() {
        let mut snap = sample();
        if let StrategyState::Icb(state) = &mut snap.state {
            state.in_progress.as_mut().unwrap().1[0].next_ix = 2;
        }
        let err = SearchSnapshot::from_bytes(&to_bytes(&snap)).unwrap_err();
        assert!(matches!(err.kind, ErrorKind::Corrupt(_)), "{err}");
    }

    #[test]
    fn interrupt_flag_sets_and_resets() {
        interrupt::reset();
        assert!(!interrupt::interrupted());
        interrupt::request();
        assert!(interrupt::interrupted());
        interrupt::reset();
        assert!(!interrupt::interrupted());
        interrupt::install(); // must not crash or reorder the flag
        assert!(!interrupt::interrupted());
    }
}
