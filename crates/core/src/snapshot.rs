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
//! The format is a hand-rolled little-endian binary codec (the workspace
//! builds hermetically, with no serialization crates): an 8-byte magic,
//! a format version, the payload length, an FNV-1a checksum of the
//! payload, then the payload. Corrupted or truncated files are rejected
//! with a structured [`SnapshotError`], never a panic.

use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::coverage::fingerprint_bytes;
use crate::search::{BoundStats, BugReport, QuarantinedTrace, SearchConfig};
use crate::tid::Tid;
use crate::trace::{ExecStats, ExecutionOutcome, Schedule};

/// Magic bytes opening every snapshot file.
const MAGIC: &[u8; 8] = b"ICBSNAPv";
/// Current format version. Bump on any layout change.
/// v2: `SearchConfig` gained `coverage_stride`.
/// v3: fault bounding — `SearchConfig` gained `fault_bound`, schedules
/// carry fault sets, `ExecStats`/`BugReport`/`BoundStats` gained fault
/// counters, and `IcbState` replaced the single `next` queue with the
/// per-`(preemption, fault)`-level deferred map.
/// v4: one state per strategy — DFS stores its unexplored items, random
/// its unexplored walk-index ranges, at any job count.
/// v5: `IcbState` counts the work deferred past the target bound
/// (`beyond`) instead of storing it as `(bound + 1, _)` rows.
const VERSION: u32 = 5;
/// Fixed header size: magic + version + payload length + checksum.
const HEADER_LEN: usize = 8 + 4 + 8 + 8;

/// Why a snapshot could not be written or read back.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// An underlying filesystem operation failed.
    Io(String),
    /// The file does not start with the snapshot magic bytes.
    BadMagic,
    /// The file uses a format version this build does not understand.
    UnsupportedVersion(u32),
    /// The file ends before the declared payload does.
    Truncated,
    /// The payload checksum does not match its contents.
    ChecksumMismatch,
    /// The payload decodes to structurally invalid data.
    Corrupt(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            SnapshotError::BadMagic => {
                write!(f, "not a checkpoint file (bad magic)")
            }
            SnapshotError::UnsupportedVersion(v) => write!(
                f,
                "unsupported checkpoint format version {v} (this build reads version \
                 {VERSION}); restart the run from scratch"
            ),
            SnapshotError::Truncated => {
                write!(f, "checkpoint file is truncated")
            }
            SnapshotError::ChecksumMismatch => {
                write!(f, "checkpoint file is corrupted (checksum mismatch)")
            }
            SnapshotError::Corrupt(what) => {
                write!(f, "checkpoint file is corrupted ({what})")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

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

    /// Serializes the snapshot and writes it to `path` atomically: the
    /// bytes go to a sibling temp file which is fsynced and renamed over
    /// `path`, so a crash mid-write never destroys the previous
    /// checkpoint.
    pub fn write_to(&self, path: &Path) -> Result<(), SnapshotError> {
        let payload = self.encode();
        let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len());
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&fingerprint_bytes(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);

        let mut tmp_os = path.as_os_str().to_owned();
        tmp_os.push(".tmp");
        let tmp = PathBuf::from(tmp_os);
        let io = |e: std::io::Error| SnapshotError::Io(e.to_string());
        let mut file = fs::File::create(&tmp).map_err(io)?;
        file.write_all(&bytes).map_err(io)?;
        file.sync_all().map_err(io)?;
        drop(file);
        fs::rename(&tmp, path).map_err(io)
    }

    /// Reads and validates a snapshot from `path`.
    pub fn read_from(path: &Path) -> Result<Self, SnapshotError> {
        let bytes = fs::read(path).map_err(|e| SnapshotError::Io(e.to_string()))?;
        Self::from_bytes(&bytes)
    }

    /// Decodes a snapshot from its on-disk byte representation.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        if bytes.len() < 8 {
            return Err(SnapshotError::Truncated);
        }
        if &bytes[..8] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        if bytes.len() < HEADER_LEN {
            return Err(SnapshotError::Truncated);
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if version != VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let payload_len = u64::from_le_bytes(bytes[12..20].try_into().unwrap()) as usize;
        let checksum = u64::from_le_bytes(bytes[20..28].try_into().unwrap());
        let payload = &bytes[HEADER_LEN..];
        if payload.len() != payload_len {
            return Err(SnapshotError::Truncated);
        }
        if fingerprint_bytes(payload) != checksum {
            return Err(SnapshotError::ChecksumMismatch);
        }
        let mut r = Reader {
            buf: payload,
            pos: 0,
        };
        let snap = Self::decode(&mut r)?;
        if r.pos != payload.len() {
            return Err(SnapshotError::Corrupt("trailing bytes".into()));
        }
        Ok(snap)
    }

    fn encode(&self) -> Vec<u8> {
        let mut w = Writer { buf: Vec::new() };
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
                w.list(&s.work, Writer::schedule);
                w.list(&s.deferred, |w, (c, f, items)| {
                    w.usize(*c);
                    w.usize(*f);
                    w.list(items, Writer::schedule);
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
                    w.item(item);
                }
            }
            StrategyState::Dfs { depth_bound, items } => {
                w.u8(1);
                w.opt_usize(*depth_bound);
                w.list(items, Writer::item);
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
        w.buf
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
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
                work: r.list(Reader::schedule)?,
                deferred: r.list(|r| Ok((r.usize()?, r.usize()?, r.list(Reader::schedule)?)))?,
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
                in_progress: if r.bool()? { Some(r.item()?) } else { None },
            }),
            1 => StrategyState::Dfs {
                depth_bound: r.opt_usize()?,
                items: r.list(Reader::item)?,
            },
            2 => StrategyState::Random {
                seed: r.u64()?,
                ranges: r.list(|r| Ok((r.u64()?, r.u64()?)))?,
            },
            tag => {
                return Err(SnapshotError::Corrupt(format!(
                    "unknown strategy state tag {tag}"
                )))
            }
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

fn decode_config(r: &mut Reader<'_>) -> Result<SearchConfig, SnapshotError> {
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
        w.schedule(&bug.schedule);
        w.usize(bug.preemptions);
        w.usize(bug.faults);
        w.usize(bug.execution_index);
        w.usize(bug.steps);
    });
    encode_stats(w, &b.max_stats);
    w.list(&b.quarantined, |w, q| {
        w.schedule(&q.schedule);
        w.usize(q.step);
        w.tid(q.expected);
        w.tids(&q.actual);
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

fn decode_base(r: &mut Reader<'_>) -> Result<ResumeBase, SnapshotError> {
    Ok(ResumeBase {
        executions: r.usize()?,
        buggy_executions: r.usize()?,
        bugs: r.list(|r| {
            Ok(BugReport {
                outcome: decode_outcome(r)?,
                schedule: r.schedule()?,
                preemptions: r.usize()?,
                faults: r.usize()?,
                execution_index: r.usize()?,
                steps: r.usize()?,
            })
        })?,
        max_stats: decode_stats(r)?,
        quarantined: r.list(|r| {
            Ok(QuarantinedTrace {
                schedule: r.schedule()?,
                step: r.usize()?,
                expected: r.tid()?,
                actual: r.tids()?,
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

fn decode_stats(r: &mut Reader<'_>) -> Result<ExecStats, SnapshotError> {
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
            w.tid(*thread);
            w.str(message);
        }
        ExecutionOutcome::Deadlock { blocked } => {
            w.u8(2);
            w.tids(blocked);
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
            w.tid(*expected);
            w.tids(actual);
        }
        ExecutionOutcome::WatchdogTimeout => w.u8(6),
    }
}

fn decode_outcome(r: &mut Reader<'_>) -> Result<ExecutionOutcome, SnapshotError> {
    Ok(match r.u8()? {
        0 => ExecutionOutcome::Terminated,
        1 => ExecutionOutcome::AssertionFailure {
            thread: r.tid()?,
            message: r.str()?,
        },
        2 => ExecutionOutcome::Deadlock { blocked: r.tids()? },
        3 => ExecutionOutcome::DataRace {
            description: r.str()?,
        },
        4 => ExecutionOutcome::StepLimitExceeded,
        5 => ExecutionOutcome::ReplayDivergence {
            step: r.usize()?,
            expected: r.tid()?,
            actual: r.tids()?,
        },
        6 => ExecutionOutcome::WatchdogTimeout,
        tag => return Err(SnapshotError::Corrupt(format!("unknown outcome tag {tag}"))),
    })
}

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }
    fn opt_usize(&mut self, v: Option<usize>) {
        self.bool(v.is_some());
        if let Some(x) = v {
            self.usize(x);
        }
    }
    /// A length-prefixed list, each element written by `item`.
    fn list<T>(&mut self, items: &[T], mut item: impl FnMut(&mut Self, &T)) {
        self.usize(items.len());
        for x in items {
            item(self, x);
        }
    }
    fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn tid(&mut self, t: Tid) {
        self.usize(t.0);
    }
    fn tids(&mut self, ts: &[Tid]) {
        self.list(ts, |w, &t| w.tid(t));
    }
    fn schedule(&mut self, s: &Schedule) {
        self.tids(s.as_slice());
        self.list(s.faults(), |w, &step| w.usize(step));
    }
    /// A work item: its prefix and branch stack.
    fn item(&mut self, (prefix, stack): &(Schedule, Vec<BranchSnapshot>)) {
        self.schedule(prefix);
        self.list(stack, |w, b| {
            w.usize(b.step);
            w.tids(&b.options);
            w.usize(b.next_ix);
        });
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        if end > self.buf.len() {
            return Err(SnapshotError::Truncated);
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }
    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }
    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn usize(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.u64()?)
            .map_err(|_| SnapshotError::Corrupt("value exceeds usize".into()))
    }
    fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapshotError::Corrupt(format!("invalid bool byte {b}"))),
        }
    }
    fn opt_usize(&mut self) -> Result<Option<usize>, SnapshotError> {
        Ok(if self.bool()? {
            Some(self.usize()?)
        } else {
            None
        })
    }
    /// A length-prefixed list, each element read by `item`.
    fn list<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, SnapshotError>,
    ) -> Result<Vec<T>, SnapshotError> {
        let n = self.usize()?;
        let mut out = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }
    fn str(&mut self) -> Result<String, SnapshotError> {
        let n = self.usize()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::Corrupt("invalid UTF-8 string".into()))
    }
    fn tid(&mut self) -> Result<Tid, SnapshotError> {
        Ok(Tid(self.usize()?))
    }
    fn tids(&mut self) -> Result<Vec<Tid>, SnapshotError> {
        self.list(Reader::tid)
    }
    fn schedule(&mut self) -> Result<Schedule, SnapshotError> {
        let mut s = Schedule::from(self.tids()?);
        s.set_faults(self.list(Reader::usize)?);
        Ok(s)
    }
    /// A work item: its prefix and branch stack.
    fn item(&mut self) -> Result<(Schedule, Vec<BranchSnapshot>), SnapshotError> {
        let prefix = self.schedule()?;
        let stack = self.list(|r| {
            let b = BranchSnapshot {
                step: r.usize()?,
                options: r.tids()?,
                next_ix: r.usize()?,
            };
            // An out-of-range option index would otherwise panic deep
            // inside a scheduler.
            if b.next_ix >= b.options.len() {
                return Err(SnapshotError::Corrupt(
                    "branch stack entry with out-of-range option index".into(),
                ));
            }
            Ok(b)
        })?;
        Ok((prefix, stack))
    }
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
    /// transient I/O failures with bounded jittered backoff (see
    /// [`crate::retry`]). After the attempts are exhausted the error is
    /// returned; callers degrade to a logged warning and keep searching.
    pub fn write(&mut self, snapshot: &SearchSnapshot) -> Result<(), SnapshotError> {
        crate::retry::with_backoff("checkpoint write", || snapshot.write_to(&self.path))?;
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

    #[test]
    fn dfs_and_random_states_round_trip() {
        let mut snap = sample();
        snap.strategy = "dfs".into();
        snap.state = StrategyState::Dfs {
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
        };
        let back = SearchSnapshot::from_bytes(&to_bytes(&snap)).unwrap();
        assert_eq!(back, snap);

        snap.strategy = "random".into();
        snap.state = StrategyState::Random {
            seed: 0xdead_beef,
            ranges: vec![(3, 9), (12, 40)],
        };
        let back = SearchSnapshot::from_bytes(&to_bytes(&snap)).unwrap();
        assert_eq!(back, snap);
    }

    fn to_bytes(snap: &SearchSnapshot) -> Vec<u8> {
        let payload = snap.encode();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&fingerprint_bytes(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        bytes
    }

    #[test]
    fn corruption_is_rejected_not_panicked() {
        let mut bytes = to_bytes(&sample());
        // Flip one payload byte: checksum must catch it.
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        assert_eq!(
            SearchSnapshot::from_bytes(&bytes),
            Err(SnapshotError::ChecksumMismatch)
        );
    }

    #[test]
    fn truncation_is_rejected_not_panicked() {
        let bytes = to_bytes(&sample());
        for cut in [0, 4, 8, HEADER_LEN, bytes.len() - 1] {
            let err = SearchSnapshot::from_bytes(&bytes[..cut]).unwrap_err();
            assert_eq!(err, SnapshotError::Truncated, "cut at {cut}");
        }
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let mut bytes = to_bytes(&sample());
        bytes[0] = b'X';
        assert_eq!(
            SearchSnapshot::from_bytes(&bytes),
            Err(SnapshotError::BadMagic)
        );
        let mut bytes = to_bytes(&sample());
        bytes[8] = 99;
        assert_eq!(
            SearchSnapshot::from_bytes(&bytes),
            Err(SnapshotError::UnsupportedVersion(99))
        );
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
        assert!(SnapshotError::ChecksumMismatch
            .to_string()
            .contains("corrupted"));
        assert!(SnapshotError::Truncated.to_string().contains("truncated"));
        let e = SnapshotError::UnsupportedVersion(3);
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
            assert_eq!(err, SnapshotError::UnsupportedVersion(version));
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
        assert!(matches!(
            SearchSnapshot::from_bytes(&to_bytes(&snap)),
            Err(SnapshotError::Corrupt(_))
        ));
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
