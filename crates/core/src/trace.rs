//! Execution traces, outcomes and per-execution statistics.
//!
//! A [`Trace`] records, for every scheduling point of one execution, which
//! threads were enabled and which one the scheduler chose. Traces are the
//! ground truth from which the number of *preemptions* — the quantity the
//! iterative context-bounding algorithm bounds — is computed, exactly as in
//! Appendix A of the paper:
//!
//! ```text
//! NP(t)     = 0
//! NP(a · t) = NP(a)      if t = L(a)  or  L(a) ∉ enabled(a)
//!           = NP(a) + 1  otherwise
//! ```

use crate::telemetry::SiteId;
use crate::tid::Tid;
use std::fmt;

/// The reason an execution ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecutionOutcome {
    /// All threads ran to completion.
    Terminated,
    /// A thread failed an assertion (or panicked) with the given message.
    AssertionFailure {
        /// The thread that failed.
        thread: Tid,
        /// The assertion/panic message.
        message: String,
    },
    /// No thread is enabled but some threads have not terminated.
    Deadlock {
        /// The threads that are blocked forever.
        blocked: Vec<Tid>,
    },
    /// A data race was detected between two accesses to the same data
    /// variable unordered by happens-before (Section 3.1 of the paper).
    DataRace {
        /// Human-readable description of the two racing accesses.
        description: String,
    },
    /// The execution exceeded the configured per-execution step limit.
    ///
    /// The stateless checker requires terminating programs; hitting this
    /// limit usually indicates a livelock or an unbounded loop in the
    /// program under test.
    StepLimitExceeded,
    /// Replay of a recorded schedule diverged: at `step` the schedule
    /// demanded `expected`, but the program offered a different enabled
    /// set (`actual`). This means the program under test is not
    /// deterministic under the controlled scheduler — a *testing
    /// infrastructure* problem, not a program bug. Strategies quarantine
    /// the diverging prefix and forfeit its subtree instead of aborting.
    ReplayDivergence {
        /// The step index at which the replay diverged.
        step: usize,
        /// The thread the recorded schedule expected to run.
        expected: Tid,
        /// The threads that were actually enabled at that point.
        actual: Vec<Tid>,
    },
    /// The execution exceeded the configured per-execution wall-clock
    /// budget (the runtime's `max_wall_time`) and was abandoned by the
    /// watchdog.
    ///
    /// Like [`StepLimitExceeded`](ExecutionOutcome::StepLimitExceeded)
    /// this is recoverable: the search records the trip and moves on to
    /// the next schedule instead of hanging forever.
    WatchdogTimeout,
}

impl ExecutionOutcome {
    /// Returns `true` if this outcome represents a bug (anything other
    /// than normal termination or an exhausted step budget).
    pub fn is_bug(&self) -> bool {
        matches!(
            self,
            ExecutionOutcome::AssertionFailure { .. }
                | ExecutionOutcome::Deadlock { .. }
                | ExecutionOutcome::DataRace { .. }
        )
    }
}

impl fmt::Display for ExecutionOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecutionOutcome::Terminated => write!(f, "terminated"),
            ExecutionOutcome::AssertionFailure { thread, message } => {
                write!(f, "assertion failure in {thread}: {message}")
            }
            ExecutionOutcome::Deadlock { blocked } => {
                write!(f, "deadlock (blocked:")?;
                for t in blocked {
                    write!(f, " {t}")?;
                }
                write!(f, ")")
            }
            ExecutionOutcome::DataRace { description } => {
                write!(f, "data race: {description}")
            }
            ExecutionOutcome::StepLimitExceeded => write!(f, "step limit exceeded"),
            ExecutionOutcome::ReplayDivergence {
                step,
                expected,
                actual,
            } => {
                write!(
                    f,
                    "replay divergence at step {step}: expected {expected}, enabled:"
                )?;
                for t in actual {
                    write!(f, " {t}")?;
                }
                Ok(())
            }
            ExecutionOutcome::WatchdogTimeout => write!(f, "watchdog timeout"),
        }
    }
}

/// The panic payload schedulers raise when a recorded schedule cannot be
/// replayed (the program under test is not deterministic).
///
/// Schedulers run *inside* the program host's execution loop and have no
/// error channel of their own, so divergence is signalled by unwinding
/// with this payload via [`DivergencePayload::raise`]. Hosts and
/// strategies that catch the unwind downcast to this type and convert it
/// into a recoverable [`ExecutionOutcome::ReplayDivergence`] via
/// [`DivergencePayload::into_outcome`]; any other payload is a genuine
/// panic and must be re-raised.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DivergencePayload {
    /// The step index at which the replay diverged.
    pub step: usize,
    /// The thread the recorded schedule expected to run.
    pub expected: Tid,
    /// The threads that were actually enabled at that point.
    pub actual: Vec<Tid>,
}

impl DivergencePayload {
    /// Creates a payload describing a divergence at `step`.
    pub fn new(step: usize, expected: Tid, actual: Vec<Tid>) -> Self {
        DivergencePayload {
            step,
            expected,
            actual,
        }
    }

    /// Unwinds with this payload.
    ///
    /// Every catcher (the runtime engine, the search strategies)
    /// downcasts and recovers, so the first raise quietly chains a panic
    /// hook that suppresses the default "thread panicked" spew for this
    /// payload type — a search over a nondeterministic program would
    /// otherwise print one backtrace banner per quarantined subtree.
    /// All other payloads still reach the previously installed hook.
    pub fn raise(self) -> ! {
        static SILENCE: std::sync::Once = std::sync::Once::new();
        SILENCE.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                if info.payload().downcast_ref::<DivergencePayload>().is_none() {
                    prev(info);
                }
            }));
        });
        std::panic::panic_any(self)
    }

    /// Converts the payload into its recoverable execution outcome.
    pub fn into_outcome(self) -> ExecutionOutcome {
        ExecutionOutcome::ReplayDivergence {
            step: self.step,
            expected: self.expected,
            actual: self.actual,
        }
    }
}

impl fmt::Display for DivergencePayload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "replay divergence at step {}: expected {}, enabled:",
            self.step, self.expected
        )?;
        for t in &self.actual {
            write!(f, " {t}")?;
        }
        Ok(())
    }
}

/// One scheduling decision within a [`Trace`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEntry {
    /// The thread the scheduler chose to run.
    pub chosen: Tid,
    /// The threads that were enabled at this point (sorted by id).
    pub enabled: Vec<Tid>,
    /// The thread that executed the previous step (`None` at the initial
    /// point).
    pub current: Option<Tid>,
    /// Whether `current` was still enabled at this point. A switch away
    /// from an enabled current thread is a *preemption*.
    pub current_enabled: bool,
    /// Whether the operation the chosen thread is about to execute is
    /// potentially blocking (lock acquire, wait, join, …). This is the
    /// `b` of Theorem 1.
    pub blocking: bool,
    /// The program location / sync-op label of the operation the chosen
    /// thread executed at this step, as resolved by the program host
    /// ([`SiteId::UNKNOWN`] for hosts that do not resolve sites). This
    /// is what the run report attributes preemptions to.
    pub site: SiteId,
    /// Whether a fault was injected into the operation executed at this
    /// step (the scheduler answered `true` at a fallible operation: a
    /// `try_lock` forced to fail, a spurious condvar wakeup, a bounded
    /// send observing a full channel, a tripped `fail_point`). Fault
    /// decisions are the second bounded axis of nondeterminism next to
    /// preemptions.
    pub fault: bool,
}

impl TraceEntry {
    /// Creates a trace entry with an unresolved ([`SiteId::UNKNOWN`])
    /// site. Hosts that know the executing operation's location attach
    /// it with [`with_site`](TraceEntry::with_site).
    pub fn new(
        chosen: Tid,
        enabled: Vec<Tid>,
        current: Option<Tid>,
        current_enabled: bool,
        blocking: bool,
    ) -> Self {
        TraceEntry {
            chosen,
            enabled,
            current,
            current_enabled,
            blocking,
            site: SiteId::UNKNOWN,
            fault: false,
        }
    }

    /// Attaches the resolved site of the executed operation.
    pub fn with_site(mut self, site: SiteId) -> Self {
        self.site = site;
        self
    }

    /// Marks whether a fault was injected at this step.
    pub fn with_fault(mut self, fault: bool) -> Self {
        self.fault = fault;
        self
    }

    /// Returns `true` if this decision was a context switch (the chosen
    /// thread differs from the previously running one).
    pub fn is_context_switch(&self) -> bool {
        match self.current {
            Some(c) => c != self.chosen,
            None => false,
        }
    }

    /// Returns `true` if this decision was a *preempting* context switch:
    /// the previously running thread was still enabled, yet the scheduler
    /// chose a different thread.
    pub fn is_preemption(&self) -> bool {
        self.current_enabled && self.is_context_switch()
    }
}

/// The sequence of scheduling decisions of one execution.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    entries: Vec<TraceEntry>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Appends a decision to the trace.
    pub fn push(&mut self, entry: TraceEntry) {
        self.entries.push(entry);
    }

    /// The decisions of this trace, in execution order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Number of steps (scheduling decisions) in this execution — the `K`
    /// column of Table 1.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no step has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of preempting context switches (`NP` in the paper).
    pub fn preemptions(&self) -> usize {
        self.entries.iter().filter(|e| e.is_preemption()).count()
    }

    /// Number of context switches of either kind.
    pub fn context_switches(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.is_context_switch())
            .count()
    }

    /// Number of nonpreempting context switches.
    pub fn nonpreempting_switches(&self) -> usize {
        self.context_switches() - self.preemptions()
    }

    /// Number of potentially blocking steps executed (`B` of Table 1).
    pub fn blocking_steps(&self) -> usize {
        self.entries.iter().filter(|e| e.blocking).count()
    }

    /// Number of injected faults (`f`, the second bounded axis).
    pub fn faults(&self) -> usize {
        self.entries.iter().filter(|e| e.fault).count()
    }

    /// The schedule (sequence of chosen thread ids, plus the steps at
    /// which faults were injected) of this trace, sufficient to replay
    /// the execution deterministically.
    pub fn schedule(&self) -> Schedule {
        let mut schedule = Schedule::from_iter(self.entries.iter().map(|e| e.chosen));
        for (i, e) in self.entries.iter().enumerate() {
            if e.fault {
                schedule.add_fault(i);
            }
        }
        schedule
    }
}

impl From<Vec<TraceEntry>> for Trace {
    fn from(entries: Vec<TraceEntry>) -> Self {
        Trace { entries }
    }
}

impl FromIterator<TraceEntry> for Trace {
    fn from_iter<I: IntoIterator<Item = TraceEntry>>(iter: I) -> Self {
        Trace {
            entries: iter.into_iter().collect(),
        }
    }
}

impl Extend<TraceEntry> for Trace {
    fn extend<I: IntoIterator<Item = TraceEntry>>(&mut self, iter: I) {
        self.entries.extend(iter);
    }
}

/// A sequence of thread choices — the compact, replayable form of a trace.
///
/// Because thread scheduling is assumed to be the only source of
/// nondeterminism in the program under test, replaying a schedule from the
/// initial state reproduces the execution exactly (Section 3 of the paper).
///
/// Schedules order lexicographically (by choice sequence, then by fault
/// set), which makes them usable directly as deterministic
/// priority-queue keys. A schedule with no faults orders and renders
/// exactly as it did before faults existed.
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Schedule {
    choices: Vec<Tid>,
    /// Sorted step indices at which a fault is injected. Every index is
    /// `< choices.len()`; almost always empty (fault bound 0).
    faults: Vec<usize>,
}

impl Schedule {
    /// Creates an empty schedule.
    pub fn new() -> Self {
        Schedule::default()
    }

    /// The choice at step `i`, if the schedule is that long.
    pub fn get(&self, i: usize) -> Option<Tid> {
        self.choices.get(i).copied()
    }

    /// Appends a choice.
    pub fn push(&mut self, tid: Tid) {
        self.choices.push(tid);
    }

    /// Truncates the schedule to `len` choices, dropping fault marks on
    /// the removed steps.
    pub fn truncate(&mut self, len: usize) {
        self.choices.truncate(len);
        self.faults.retain(|&s| s < len);
    }

    /// Marks step `step` as fault-injected (idempotent; keeps the fault
    /// set sorted).
    pub fn add_fault(&mut self, step: usize) {
        if let Err(ix) = self.faults.binary_search(&step) {
            self.faults.insert(ix, step);
        }
    }

    /// Removes the fault mark on `step`, if present.
    pub fn remove_fault(&mut self, step: usize) {
        if let Ok(ix) = self.faults.binary_search(&step) {
            self.faults.remove(ix);
        }
    }

    /// Whether a fault is injected at step `step`.
    pub fn fault_at(&self, step: usize) -> bool {
        self.faults.binary_search(&step).is_ok()
    }

    /// The sorted step indices at which faults are injected.
    pub fn faults(&self) -> &[usize] {
        &self.faults
    }

    /// Number of injected faults.
    pub fn fault_count(&self) -> usize {
        self.faults.len()
    }

    /// Replaces the fault set (indices are sorted and deduplicated).
    pub fn set_faults(&mut self, mut faults: Vec<usize>) {
        faults.sort_unstable();
        faults.dedup();
        self.faults = faults;
    }

    /// Number of choices.
    pub fn len(&self) -> usize {
        self.choices.len()
    }

    /// Returns `true` if the schedule contains no choices.
    pub fn is_empty(&self) -> bool {
        self.choices.is_empty()
    }

    /// The choices as a slice.
    pub fn as_slice(&self) -> &[Tid] {
        &self.choices
    }

    /// Iterates over the choices.
    pub fn iter(&self) -> std::iter::Copied<std::slice::Iter<'_, Tid>> {
        self.choices.iter().copied()
    }
}

impl FromIterator<Tid> for Schedule {
    fn from_iter<I: IntoIterator<Item = Tid>>(iter: I) -> Self {
        Schedule {
            choices: iter.into_iter().collect(),
            faults: Vec::new(),
        }
    }
}

impl Extend<Tid> for Schedule {
    fn extend<I: IntoIterator<Item = Tid>>(&mut self, iter: I) {
        self.choices.extend(iter);
    }
}

impl From<Vec<Tid>> for Schedule {
    fn from(choices: Vec<Tid>) -> Self {
        Schedule {
            choices,
            faults: Vec::new(),
        }
    }
}

impl fmt::Display for Schedule {
    /// Renders `[T0 T1]`; a schedule with injected faults appends one
    /// `!step` token per fault (`[T0 T1 !1]`), so fault-free schedules
    /// render byte-identically to previous releases.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, t) in self.choices.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{t}")?;
        }
        for (j, s) in self.faults.iter().enumerate() {
            if j > 0 || !self.choices.is_empty() {
                write!(f, " ")?;
            }
            write!(f, "!{s}")?;
        }
        write!(f, "]")
    }
}

/// Error parsing a [`Schedule`] from text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseScheduleError {
    token: String,
}

impl fmt::Display for ParseScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid schedule token `{}`", self.token)
    }
}

impl std::error::Error for ParseScheduleError {}

impl std::str::FromStr for Schedule {
    type Err = ParseScheduleError;

    /// Parses the [`Display`](fmt::Display) form (`[T0 T1 T1]`, with
    /// optional `!step` fault tokens: `[T0 T1 !1]`) as well as bare
    /// whitespace/comma-separated indices (`0 1 1` / `0,1,1`), so
    /// witnesses can be pasted straight from a report back into a
    /// replay.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let trimmed = s.trim().trim_start_matches('[').trim_end_matches(']');
        let mut choices = Vec::new();
        let mut faults = Vec::new();
        for raw in trimmed.split([' ', ',', '\t', '\n']) {
            let token = raw.trim();
            if token.is_empty() {
                continue;
            }
            if let Some(digits) = token.strip_prefix('!') {
                let step: usize = digits.parse().map_err(|_| ParseScheduleError {
                    token: token.to_string(),
                })?;
                faults.push(step);
                continue;
            }
            let digits = token.strip_prefix('T').unwrap_or(token);
            let ix: usize = digits.parse().map_err(|_| ParseScheduleError {
                token: token.to_string(),
            })?;
            choices.push(Tid(ix));
        }
        let mut schedule = Schedule {
            choices,
            faults: Vec::new(),
        };
        schedule.set_faults(faults);
        Ok(schedule)
    }
}

/// Aggregate statistics of one execution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Total scheduling points executed (`K`).
    pub steps: usize,
    /// Potentially blocking steps executed (`B`).
    pub blocking_steps: usize,
    /// Preempting context switches (`c`).
    pub preemptions: usize,
    /// Context switches of either kind.
    pub context_switches: usize,
    /// Injected faults (`f`, the second bounded axis; 0 unless the
    /// search runs with a fault bound).
    pub faults: usize,
}

impl ExecStats {
    /// Derives statistics from a trace.
    pub fn from_trace(trace: &Trace) -> Self {
        ExecStats {
            steps: trace.len(),
            blocking_steps: trace.blocking_steps(),
            preemptions: trace.preemptions(),
            context_switches: trace.context_switches(),
            faults: trace.faults(),
        }
    }

    /// Pointwise maximum of two statistics, used to aggregate the
    /// `Max K / Max B / Max c` columns of Table 1.
    pub fn max(self, other: ExecStats) -> ExecStats {
        ExecStats {
            steps: self.steps.max(other.steps),
            blocking_steps: self.blocking_steps.max(other.blocking_steps),
            preemptions: self.preemptions.max(other.preemptions),
            context_switches: self.context_switches.max(other.context_switches),
            faults: self.faults.max(other.faults),
        }
    }
}

/// Everything a single controlled execution produces.
#[derive(Clone, Debug)]
pub struct ExecutionResult {
    /// Why the execution ended.
    pub outcome: ExecutionOutcome,
    /// The full decision trace.
    pub trace: Trace,
    /// Aggregate statistics (normally derived from `trace`).
    pub stats: ExecStats,
}

impl ExecutionResult {
    /// Creates a result, deriving the statistics from the trace.
    pub fn from_trace(outcome: ExecutionOutcome, trace: Trace) -> Self {
        let stats = ExecStats::from_trace(&trace);
        ExecutionResult {
            outcome,
            trace,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(chosen: usize, enabled: &[usize], current: Option<usize>, cur_en: bool) -> TraceEntry {
        TraceEntry::new(
            Tid(chosen),
            enabled.iter().copied().map(Tid).collect(),
            current.map(Tid),
            cur_en,
            false,
        )
    }

    #[test]
    fn preemption_counting_matches_appendix_a() {
        // a = T0 T0 T1(T0 enabled: preemption) T0(T1 enabled: preemption)
        let trace: Trace = vec![
            entry(0, &[0, 1], None, false),
            entry(0, &[0, 1], Some(0), true),
            entry(1, &[0, 1], Some(0), true),
            entry(0, &[0, 1], Some(1), true),
        ]
        .into();
        assert_eq!(trace.preemptions(), 2);
        assert_eq!(trace.context_switches(), 2);
        assert_eq!(trace.nonpreempting_switches(), 0);
    }

    #[test]
    fn nonpreempting_switch_is_free() {
        // T0 runs, blocks; switch to T1 is nonpreempting.
        let trace: Trace = vec![
            entry(0, &[0, 1], None, false),
            entry(1, &[1], Some(0), false),
        ]
        .into();
        assert_eq!(trace.preemptions(), 0);
        assert_eq!(trace.context_switches(), 1);
        assert_eq!(trace.nonpreempting_switches(), 1);
    }

    #[test]
    fn initial_choice_is_never_a_switch() {
        let trace: Trace = vec![entry(1, &[0, 1], None, false)].into();
        assert_eq!(trace.preemptions(), 0);
        assert_eq!(trace.context_switches(), 0);
    }

    #[test]
    fn schedule_round_trip() {
        let trace: Trace = vec![
            entry(0, &[0, 1], None, false),
            entry(1, &[0, 1], Some(0), true),
        ]
        .into();
        let sched = trace.schedule();
        assert_eq!(sched.as_slice(), &[Tid(0), Tid(1)]);
        assert_eq!(sched.to_string(), "[T0 T1]");
    }

    #[test]
    fn stats_from_trace() {
        let mut e = entry(0, &[0, 1], None, false);
        e.blocking = true;
        let trace: Trace = vec![e, entry(1, &[0, 1], Some(0), true)].into();
        let stats = ExecStats::from_trace(&trace);
        assert_eq!(stats.steps, 2);
        assert_eq!(stats.blocking_steps, 1);
        assert_eq!(stats.preemptions, 1);
    }

    #[test]
    fn stats_max_is_pointwise() {
        let a = ExecStats {
            steps: 10,
            blocking_steps: 1,
            preemptions: 5,
            context_switches: 6,
            faults: 0,
        };
        let b = ExecStats {
            steps: 3,
            blocking_steps: 4,
            preemptions: 2,
            context_switches: 9,
            faults: 1,
        };
        let m = a.max(b);
        assert_eq!(m.steps, 10);
        assert_eq!(m.blocking_steps, 4);
        assert_eq!(m.preemptions, 5);
        assert_eq!(m.context_switches, 9);
        assert_eq!(m.faults, 1);
    }

    #[test]
    fn schedule_fault_set_round_trips() {
        let mut sched: Schedule = vec![Tid(0), Tid(1), Tid(1)].into();
        sched.add_fault(1);
        assert_eq!(sched.to_string(), "[T0 T1 T1 !1]");
        let parsed: Schedule = sched.to_string().parse().unwrap();
        assert_eq!(parsed, sched);
        assert!(parsed.fault_at(1));
        assert!(!parsed.fault_at(0));
        assert_eq!(parsed.fault_count(), 1);
        // Truncation drops fault marks on removed steps.
        let mut t = sched.clone();
        t.truncate(1);
        assert_eq!(t.fault_count(), 0);
        // Fault-free schedules render exactly as before.
        let plain: Schedule = vec![Tid(0), Tid(1)].into();
        assert_eq!(plain.to_string(), "[T0 T1]");
        // Ordering: the fault-free schedule sorts before its faulted twin.
        let mut faulted = plain.clone();
        faulted.add_fault(0);
        assert!(plain < faulted);
    }

    #[test]
    fn trace_faults_flow_into_schedule_and_stats() {
        let mut e = entry(0, &[0, 1], None, false);
        e.fault = true;
        let trace: Trace = vec![e, entry(1, &[0, 1], Some(0), true)].into();
        assert_eq!(trace.faults(), 1);
        let sched = trace.schedule();
        assert!(sched.fault_at(0));
        assert_eq!(ExecStats::from_trace(&trace).faults, 1);
    }

    #[test]
    fn outcome_bug_classification() {
        assert!(!ExecutionOutcome::Terminated.is_bug());
        assert!(!ExecutionOutcome::StepLimitExceeded.is_bug());
        assert!(ExecutionOutcome::Deadlock { blocked: vec![] }.is_bug());
        assert!(ExecutionOutcome::AssertionFailure {
            thread: Tid(0),
            message: "x".into()
        }
        .is_bug());
        assert!(ExecutionOutcome::DataRace {
            description: "r/w".into()
        }
        .is_bug());
        // Infrastructure outcomes are recoverable, not program bugs.
        assert!(!ExecutionOutcome::ReplayDivergence {
            step: 3,
            expected: Tid(1),
            actual: vec![Tid(0)],
        }
        .is_bug());
        assert!(!ExecutionOutcome::WatchdogTimeout.is_bug());
    }

    #[test]
    fn divergence_payload_round_trips_into_an_outcome() {
        let err = std::panic::catch_unwind(|| {
            DivergencePayload::new(4, Tid(2), vec![Tid(0), Tid(1)]).raise()
        })
        .unwrap_err();
        let payload = err
            .downcast::<DivergencePayload>()
            .expect("payload survives the unwind");
        let outcome = payload.into_outcome();
        assert!(!outcome.is_bug());
        assert!(outcome.to_string().contains("replay divergence at step 4"));
    }

    #[test]
    fn schedule_parses_its_display_form() {
        let sched: Schedule = vec![Tid(0), Tid(2), Tid(2)].into();
        let parsed: Schedule = sched.to_string().parse().unwrap();
        assert_eq!(parsed, sched);
    }

    #[test]
    fn schedule_parses_bare_and_comma_forms() {
        let expected: Schedule = vec![Tid(1), Tid(0), Tid(3)].into();
        assert_eq!("1 0 3".parse::<Schedule>().unwrap(), expected);
        assert_eq!("1,0,3".parse::<Schedule>().unwrap(), expected);
        assert_eq!(" [T1 T0 T3] ".parse::<Schedule>().unwrap(), expected);
        assert_eq!("".parse::<Schedule>().unwrap(), Schedule::new());
    }

    #[test]
    fn schedule_parse_rejects_garbage() {
        let err = "T1 banana".parse::<Schedule>().unwrap_err();
        assert!(err.to_string().contains("banana"));
    }

    #[test]
    fn outcome_display() {
        let d = ExecutionOutcome::Deadlock {
            blocked: vec![Tid(1), Tid(2)],
        };
        assert_eq!(d.to_string(), "deadlock (blocked: T1 T2)");
    }
}
