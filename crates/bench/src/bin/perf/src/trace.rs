//! Per-layer tracing from outside the program.
//!
//! A traced search runs the same checker behind four wrappers, each of
//! which implements one of the checker's public traits by timing the
//! call and forwarding it:
//!
//! * [`TimedProgram`] (`ControlledProgram`) times every execution and
//!   hands the host a [`TimedScheduler`] and a [`TimedSink`], which time
//!   `pick` / `decide_fault` and `visit`;
//! * [`TimedCache`] (`ExplorationCache`) times every cache call;
//! * [`TimedObserver`] (`SearchObserver`) times event dispatch, turns
//!   bound and checkpoint events into spans, and asks the program hosts
//!   for their `phase_time` reports.
//!
//! Timed calls nest (a cache probe runs inside `pick`, which runs inside
//! an execution), so every wrapper records *self* time: its duration
//! minus the time of the timed calls inside it. Self times and call
//! counts accumulate per thread in a [`Tally`]; an execution's record
//! carries the difference its own run made. Executions are kept as
//! records in memory, never as one span per pick or visit: a VM
//! workload makes millions of picks.

use std::cell::RefCell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use icb_core::search::{BoundStats, BugReport, QuarantinedTrace, SearchReport};
use icb_core::telemetry::ResumeInfo;
use icb_core::{
    AbortReason, Certification, ChoiceKind, ControlledProgram, ExecStats, ExecutionOutcome,
    ExecutionResult, ExplorationCache, FaultPoint, MetricsRegistry, MetricsSnapshot, NoopObserver,
    Phase, SchedulePoint, Scheduler, SearchObserver, SiteId, StateSink, Tid,
};

/// What a timed call was doing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Slot {
    /// `Scheduler::pick`: the search driver choosing the next thread.
    Pick,
    /// `Scheduler::decide_fault`.
    Fault,
    /// `StateSink::visit`: coverage bookkeeping.
    Visit,
    /// `ExplorationCache::probe`.
    Probe,
    /// `ExplorationCache::note_state`.
    NoteState,
    /// `ExplorationCache::certify` (persists a segment).
    Certify,
    /// The remaining `ExplorationCache` calls.
    CacheOther,
    /// One `SearchObserver` event forwarded to the observer under test.
    Dispatch,
}

const SLOTS: usize = 8;

/// Self time and call count per [`Slot`], plus cache-probe hits.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    ns: [u64; SLOTS],
    calls: [u64; SLOTS],
    probe_hits: u64,
}

impl Tally {
    pub fn ns(&self, slot: Slot) -> u64 {
        self.ns[slot as usize]
    }

    pub fn calls(&self, slot: Slot) -> u64 {
        self.calls[slot as usize]
    }

    pub fn probe_hits(&self) -> u64 {
        self.probe_hits
    }

    /// Self time of every slot together.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    pub fn plus(&self, other: &Tally) -> Tally {
        let mut out = *self;
        for i in 0..SLOTS {
            out.ns[i] += other.ns[i];
            out.calls[i] += other.calls[i];
        }
        out.probe_hits += other.probe_hits;
        out
    }

    /// `self - earlier`, for two readings of one thread's running tally.
    pub fn minus(&self, earlier: &Tally) -> Tally {
        let mut out = *self;
        for i in 0..SLOTS {
            out.ns[i] -= earlier.ns[i];
            out.calls[i] -= earlier.calls[i];
        }
        out.probe_hits -= earlier.probe_hits;
        out
    }
}

/// The calling thread's running tally and nesting state.
struct Local {
    tally: Tally,
    /// Time of timed calls completed inside the innermost open one.
    child_ns: u64,
    lane: Option<u32>,
    /// Executions this thread has run.
    seq: u64,
}

thread_local! {
    static LOCAL: RefCell<Local> = const {
        RefCell::new(Local {
            tally: Tally {
                ns: [0; SLOTS],
                calls: [0; SLOTS],
                probe_hits: 0,
            },
            child_ns: 0,
            lane: None,
            seq: 0,
        })
    };
}

static NEXT_LANE: AtomicU32 = AtomicU32::new(0);

/// The calling thread's lane: a process-wide thread number in order of
/// first use, the `tid` of its spans in the Chrome trace.
pub fn lane() -> u32 {
    LOCAL.with(|l| {
        *l.borrow_mut()
            .lane
            .get_or_insert_with(|| NEXT_LANE.fetch_add(1, Ordering::Relaxed))
    })
}

/// The calling thread's running tally.
pub fn thread_tally() -> Tally {
    LOCAL.with(|l| l.borrow().tally)
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos().try_into().unwrap_or(u64::MAX)
}

/// Runs `f`, charging its duration minus nested timed calls to `slot`.
fn timed<R>(slot: Slot, f: impl FnOnce() -> R) -> R {
    let saved = LOCAL.with(|l| std::mem::take(&mut l.borrow_mut().child_ns));
    let t0 = Instant::now();
    let out = f();
    let dur = nanos(t0.elapsed());
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let own = dur.saturating_sub(l.child_ns);
        l.tally.ns[slot as usize] += own;
        l.tally.calls[slot as usize] += 1;
        l.child_ns = saved + dur;
    });
    out
}

/// One execution, as [`TimedProgram`] saw it.
#[derive(Clone, Debug)]
pub struct ExecRecord {
    pub lane: u32,
    /// The lane's execution number (1-based): with `(lane, seq)` the
    /// request id of the execution.
    pub seq: u64,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub dur_ns: u64,
    /// The wrapped calls made during the execution.
    pub tally: Tally,
    pub steps: usize,
}

impl ExecRecord {
    /// Time spent in the program host itself: the execution minus the
    /// wrapped calls it made into the search driver, the cache and the
    /// observer.
    pub fn host_ns(&self) -> u64 {
        self.dur_ns.saturating_sub(self.tally.total_ns())
    }
}

/// The shared half of the tracer: the time base and the executions
/// recorded by every thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    execs: Mutex<Vec<ExecRecord>>,
}

impl Tracer {
    /// A tracer whose time base is `epoch` (the trial's start).
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            execs: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        nanos(self.epoch.elapsed())
    }

    pub fn ns_of(&self, at: Instant) -> u64 {
        nanos(at.saturating_duration_since(self.epoch))
    }

    /// Takes the executions recorded since the last call.
    pub fn take_execs(&self) -> Vec<ExecRecord> {
        std::mem::take(&mut *self.execs.lock().expect("exec records poisoned"))
    }
}

/// A program whose executions are timed; see the module docs.
pub struct TimedProgram<'a> {
    inner: &'a (dyn ControlledProgram + Sync),
    tracer: &'a Tracer,
}

impl<'a> TimedProgram<'a> {
    pub fn new(inner: &'a (dyn ControlledProgram + Sync), tracer: &'a Tracer) -> Self {
        TimedProgram { inner, tracer }
    }
}

impl ControlledProgram for TimedProgram<'_> {
    fn execute(&self, scheduler: &mut dyn Scheduler, sink: &mut dyn StateSink) -> ExecutionResult {
        self.execute_observed(scheduler, sink, &mut NoopObserver)
    }

    fn execute_observed(
        &self,
        scheduler: &mut dyn Scheduler,
        sink: &mut dyn StateSink,
        observer: &mut dyn SearchObserver,
    ) -> ExecutionResult {
        let lane = lane();
        let (before, saved) = LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            (l.tally, std::mem::take(&mut l.child_ns))
        });
        let start = Instant::now();
        let result = self.inner.execute_observed(
            &mut TimedScheduler(scheduler),
            &mut TimedSink(sink),
            observer,
        );
        let dur_ns = nanos(start.elapsed());
        let (tally, seq) = LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            l.child_ns = saved + dur_ns;
            l.seq += 1;
            (l.tally.minus(&before), l.seq)
        });
        let record = ExecRecord {
            lane,
            seq,
            start_ns: self.tracer.ns_of(start),
            dur_ns,
            tally,
            steps: result.stats.steps,
        };
        self.tracer
            .execs
            .lock()
            .expect("exec records poisoned")
            .push(record);
        result
    }

    fn executions_per_run(&self) -> usize {
        self.inner.executions_per_run()
    }

    fn fingerprints_are_exact(&self) -> bool {
        self.inner.fingerprints_are_exact()
    }
}

/// Times the search driver's scheduling decisions.
pub struct TimedScheduler<'s>(&'s mut dyn Scheduler);

impl Scheduler for TimedScheduler<'_> {
    fn pick(&mut self, point: SchedulePoint<'_>) -> Tid {
        timed(Slot::Pick, || self.0.pick(point))
    }

    fn decide_fault(&mut self, point: FaultPoint) -> bool {
        timed(Slot::Fault, || self.0.decide_fault(point))
    }
}

/// Times coverage bookkeeping.
pub struct TimedSink<'s>(&'s mut dyn StateSink);

impl StateSink for TimedSink<'_> {
    fn visit(&mut self, fingerprint: u64) {
        timed(Slot::Visit, || self.0.visit(fingerprint))
    }
}

/// An exploration cache whose every call is timed.
pub struct TimedCache<'a> {
    inner: &'a dyn ExplorationCache,
}

impl<'a> TimedCache<'a> {
    pub fn new(inner: &'a dyn ExplorationCache) -> Self {
        TimedCache { inner }
    }
}

impl ExplorationCache for TimedCache<'_> {
    fn probe(&self, state: u64, choice: Tid, credit: u32) -> bool {
        let hit = timed(Slot::Probe, || self.inner.probe(state, choice, credit));
        if hit {
            LOCAL.with(|l| l.borrow_mut().tally.probe_hits += 1);
        }
        hit
    }

    fn seed_states(&self) -> Vec<u64> {
        timed(Slot::CacheOther, || self.inner.seed_states())
    }

    fn note_state(&self, state: u64) {
        timed(Slot::NoteState, || self.inner.note_state(state))
    }

    fn find_certification(
        &self,
        strategy: &str,
        target: Option<usize>,
        fault_target: usize,
    ) -> Option<Certification> {
        timed(Slot::CacheOther, || {
            self.inner
                .find_certification(strategy, target, fault_target)
        })
    }

    fn certify(&self, certification: Certification) {
        timed(Slot::Certify, || self.inner.certify(certification))
    }

    fn attach_metrics(&self, registry: &Arc<MetricsRegistry>) {
        timed(Slot::CacheOther, || self.inner.attach_metrics(registry))
    }
}

/// A span other than an execution: set-up steps, searches, bounds and
/// checkpoints, on the lane that ran them.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub cat: &'static str,
    pub lane: u32,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub args: Vec<(&'static str, f64)>,
}

/// What a [`TimedObserver`] learned during one search.
#[derive(Clone, Debug, Default)]
pub struct ObserverStats {
    /// `phase_time` totals: replay, selection, race detection.
    pub replay: Duration,
    pub selection: Duration,
    pub race_detection: Duration,
    pub races: u64,
    pub deferred: u64,
    pub queue_peak: u64,
    pub bounds: Vec<Span>,
    pub checkpoints: Vec<Span>,
    /// Bytes of every checkpoint file written.
    pub checkpoint_bytes: u64,
}

/// An observer that times dispatch to the observer under test and
/// collects the host's phase timings; see the module docs.
pub struct TimedObserver<'a> {
    inner: &'a mut dyn SearchObserver,
    tracer: &'a Tracer,
    checkpoint_path: Option<PathBuf>,
    phases: bool,
    stats: ObserverStats,
    open_bound: Option<(usize, u64)>,
    last_exec_end: u64,
}

impl<'a> TimedObserver<'a> {
    /// Wraps `inner`; `checkpoint_path` is the file a checkpointing
    /// search writes, measured at every `checkpoint_written`. With
    /// `phases` the program host is asked for its phase timings.
    pub fn new(
        inner: &'a mut dyn SearchObserver,
        tracer: &'a Tracer,
        checkpoint_path: Option<PathBuf>,
        phases: bool,
    ) -> Self {
        TimedObserver {
            inner,
            tracer,
            checkpoint_path,
            phases,
            stats: ObserverStats::default(),
            open_bound: None,
            last_exec_end: 0,
        }
    }

    pub fn into_stats(self) -> ObserverStats {
        self.stats
    }

    fn close_bound(&mut self, faults: Option<usize>) {
        if let Some((bound, start_ns)) = self.open_bound.take() {
            let mut args = vec![("bound", bound as f64)];
            if let Some(f) = faults {
                args.push(("faults", f as f64));
            }
            self.stats.bounds.push(Span {
                name: format!("bound {bound}"),
                cat: "bound",
                lane: lane(),
                start_ns,
                dur_ns: self.tracer.now_ns() - start_ns,
                args,
            });
        }
    }
}

impl SearchObserver for TimedObserver<'_> {
    fn search_started(&mut self, strategy: &str) {
        timed(Slot::Dispatch, || self.inner.search_started(strategy))
    }

    fn execution_started(&mut self, index: usize) {
        timed(Slot::Dispatch, || self.inner.execution_started(index))
    }

    fn execution_finished(
        &mut self,
        index: usize,
        stats: &ExecStats,
        outcome: &ExecutionOutcome,
        distinct_states: usize,
    ) {
        timed(Slot::Dispatch, || {
            self.inner
                .execution_finished(index, stats, outcome, distinct_states)
        });
        self.last_exec_end = self.tracer.now_ns();
    }

    fn bound_started(&mut self, bound: usize, work_items: usize) {
        self.close_bound(None);
        self.open_bound = Some((bound, self.tracer.now_ns()));
        timed(Slot::Dispatch, || {
            self.inner.bound_started(bound, work_items)
        })
    }

    fn bound_completed(&mut self, stats: &BoundStats, wall_time: Duration) {
        timed(Slot::Dispatch, || {
            self.inner.bound_completed(stats, wall_time)
        });
        self.close_bound(Some(stats.faults));
    }

    fn bug_found(&mut self, bug: &BugReport) {
        timed(Slot::Dispatch, || self.inner.bug_found(bug))
    }

    fn work_item_deferred(&mut self, next_bound: usize) {
        self.stats.deferred += 1;
        timed(Slot::Dispatch, || self.inner.work_item_deferred(next_bound))
    }

    fn work_queue_depth(&mut self, depth: usize) {
        self.stats.queue_peak = self.stats.queue_peak.max(depth as u64);
        timed(Slot::Dispatch, || self.inner.work_queue_depth(depth))
    }

    fn race_detected(&mut self, description: &str) {
        self.stats.races += 1;
        timed(Slot::Dispatch, || self.inner.race_detected(description))
    }

    fn worker_stamp(&mut self, worker: usize, seq: u64, at: Duration) {
        timed(Slot::Dispatch, || self.inner.worker_stamp(worker, seq, at))
    }

    fn wants_choice_points(&self) -> bool {
        self.inner.wants_choice_points()
    }

    /// The phase reports are forwarded only to an observer that asked
    /// for them, so its output is unchanged.
    fn wants_phase_timing(&self) -> bool {
        self.phases || self.inner.wants_phase_timing()
    }

    fn choice_point(&mut self, site: SiteId, bound: usize, kind: ChoiceKind) {
        timed(Slot::Dispatch, || {
            self.inner.choice_point(site, bound, kind)
        })
    }

    fn preemption_taken(&mut self, site: SiteId) {
        timed(Slot::Dispatch, || self.inner.preemption_taken(site))
    }

    fn fault_injected(&mut self, site: SiteId, step: usize) {
        timed(Slot::Dispatch, || self.inner.fault_injected(site, step))
    }

    fn worker_panic(&mut self, worker: usize, message: &str) {
        timed(Slot::Dispatch, || self.inner.worker_panic(worker, message))
    }

    fn phase_time(&mut self, phase: Phase, elapsed: Duration) {
        match phase {
            Phase::Replay => self.stats.replay += elapsed,
            Phase::Selection => self.stats.selection += elapsed,
            Phase::RaceDetection => self.stats.race_detection += elapsed,
        }
        if self.inner.wants_phase_timing() {
            timed(Slot::Dispatch, || self.inner.phase_time(phase, elapsed))
        }
    }

    fn search_aborted(&mut self, reason: AbortReason) {
        timed(Slot::Dispatch, || self.inner.search_aborted(reason))
    }

    fn search_resumed(&mut self, info: &ResumeInfo) {
        timed(Slot::Dispatch, || self.inner.search_resumed(info))
    }

    fn checkpoint_written(&mut self, executions: usize) {
        let end_ns = self.tracer.now_ns();
        let bytes = self
            .checkpoint_path
            .as_ref()
            .and_then(|p| std::fs::metadata(p).ok())
            .map_or(0, |m| m.len());
        self.stats.checkpoint_bytes += bytes;
        let start_ns = self.last_exec_end.min(end_ns);
        self.stats.checkpoints.push(Span {
            name: "checkpoint".to_string(),
            cat: "snapshot",
            lane: lane(),
            start_ns,
            dur_ns: end_ns - start_ns,
            args: vec![("executions", executions as f64), ("bytes", bytes as f64)],
        });
        timed(Slot::Dispatch, || self.inner.checkpoint_written(executions))
    }

    fn trace_quarantined(&mut self, quarantined: &QuarantinedTrace) {
        timed(Slot::Dispatch, || self.inner.trace_quarantined(quarantined))
    }

    fn cache_hit(&mut self, count: usize) {
        timed(Slot::Dispatch, || self.inner.cache_hit(count))
    }

    fn cache_store(&mut self, count: usize) {
        timed(Slot::Dispatch, || self.inner.cache_store(count))
    }

    fn bound_certified(&mut self, bound: Option<usize>) {
        timed(Slot::Dispatch, || self.inner.bound_certified(bound))
    }

    fn metrics_snapshot(&mut self, snapshot: &MetricsSnapshot) {
        timed(Slot::Dispatch, || self.inner.metrics_snapshot(snapshot))
    }

    fn search_finished(&mut self, report: &SearchReport) {
        self.close_bound(None);
        timed(Slot::Dispatch, || self.inner.search_finished(report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icb_cache::CacheStore;
    use icb_core::search::{Search, SearchConfig};
    use icb_workloads::registry::{all_benchmarks, AnyProgram};

    /// One search over `program` at bound `c` with a cold on-disk cache,
    /// through the wrappers when `tracer` is given.
    fn search(
        program: &AnyProgram,
        c: usize,
        jobs: usize,
        tracer: Option<&Tracer>,
    ) -> SearchReport {
        let dir = std::env::temp_dir().join(format!(
            "icb-perf-wrappers-{}-{c}-{jobs}-{}",
            std::process::id(),
            tracer.is_some()
        ));
        let store = CacheStore::open(&dir, 1).unwrap();
        let config = SearchConfig {
            preemption_bound: Some(c),
            ..SearchConfig::default()
        };
        let report = match tracer {
            None => Search::over(program)
                .config(config)
                .jobs(jobs)
                .cache(&store)
                .cache_heuristic(true)
                .run(),
            Some(tracer) => {
                let timed = TimedProgram::new(program, tracer);
                let cache = TimedCache::new(&store);
                let mut inner = NoopObserver;
                let mut observer = TimedObserver::new(&mut inner, tracer, None, true);
                Search::over(&timed)
                    .config(config)
                    .jobs(jobs)
                    .cache(&cache)
                    .cache_heuristic(true)
                    .observer(&mut observer)
                    .run()
            }
        }
        .unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        report
    }

    #[test]
    fn wrappers_leave_the_report_unchanged() {
        let benches = all_benchmarks();
        let find = |name: &str| benches.iter().find(|b| b.name == name).unwrap();
        let runtime = (find("Bluetooth").correct)();
        let vm = AnyProgram::Vm(find("Work Stealing Q.").vm_model.unwrap()());
        for (program, c) in [(&runtime, 1), (&vm, 2)] {
            for jobs in [1, 2] {
                let tracer = Tracer::new(Instant::now());
                let traced = search(program, c, jobs, Some(&tracer));
                let plain = search(program, c, jobs, None);
                assert_eq!(traced, plain, "{program:?} at jobs {jobs}");
                assert_eq!(tracer.take_execs().len(), plain.executions);
                assert!(plain.cache.is_some_and(|c| c.hits + c.stores > 0));
            }
        }
    }

    #[test]
    fn nested_calls_charge_self_time_only() {
        let before = thread_tally();
        timed(Slot::Pick, || {
            timed(Slot::Probe, || {
                std::thread::sleep(Duration::from_millis(20))
            });
        });
        let t = thread_tally().minus(&before);
        assert_eq!((t.calls(Slot::Pick), t.calls(Slot::Probe)), (1, 1));
        assert!(t.ns(Slot::Probe) >= 20_000_000);
        assert!(
            t.ns(Slot::Pick) < 10_000_000,
            "the probe's time is not charged to pick: {t:?}"
        );
    }
}
