//! Streaming JSONL (one JSON object per line) event sink.

use std::io::Write;
use std::time::{Duration, Instant};

use icb_core::explain::outcome_kind;
use icb_core::render::json_string;
use icb_core::search::{BoundStats, BugReport, QuarantinedTrace, SearchReport};
use icb_core::telemetry::{AbortReason, ResumeInfo};
use icb_core::{
    ChoiceKind, ExecStats, ExecutionOutcome, MetricsSnapshot, Phase, SearchObserver, SiteId,
};

/// Writes every search event as one JSON object per line.
///
/// The encoding is hand-rolled (the repository builds without external
/// crates) but standard: every line is a flat object with an `"event"`
/// tag matching [`Event::kind`](crate::Event::kind), and the remaining
/// fields mirror the hook arguments. Durations are reported in integer
/// nanoseconds, schedules as arrays of thread ids, preemption sites as
/// their [`SiteId`] display strings.
///
/// Profile events (choice points, preemptions taken, phase times) are
/// off by default — they multiply the line count by the execution
/// length. Enable them with
/// [`with_profile_events`](JsonlSink::with_profile_events); `explore
/// report` then reconstructs site attribution from the stream.
///
/// Write errors are recorded in [`failed`](JsonlSink::failed) and
/// subsequent events are dropped — telemetry must never abort a search.
/// The stream is flushed on `search_started`, `checkpoint_written`,
/// `search_finished`, `search_aborted`, and on drop, so a run killed
/// mid-search still leaves a readable log: once its first checkpoint
/// is on disk, the log names the search it belongs to.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    /// `None` only after `into_inner` moved the writer out (the `Drop`
    /// impl must not flush a moved writer).
    out: Option<W>,
    failed: bool,
    profile: bool,
    started: Option<Instant>,
}

impl<W: Write> JsonlSink<W> {
    /// Creates a sink writing to `out`. Wrap files in a
    /// [`std::io::BufWriter`]: searches emit thousands of events per
    /// second.
    pub fn new(out: W) -> Self {
        JsonlSink {
            out: Some(out),
            failed: false,
            profile: false,
            started: None,
        }
    }

    /// Enables (or disables) the per-step profile events:
    /// `choice-point`, `preemption-taken`, and `phase-time` lines.
    pub fn with_profile_events(mut self, profile: bool) -> Self {
        self.profile = profile;
        self
    }

    /// Returns `true` if a write failed (later events were discarded).
    pub fn failed(&self) -> bool {
        self.failed
    }

    /// Flushes and returns the underlying writer.
    pub fn into_inner(mut self) -> W {
        let mut out = self.out.take().expect("writer present until into_inner");
        let _ = out.flush();
        out
    }

    fn emit(&mut self, line: &str) {
        if self.failed {
            return;
        }
        let Some(out) = self.out.as_mut() else {
            return;
        };
        if writeln!(out, "{line}").is_err() {
            self.failed = true;
        }
    }

    fn flush(&mut self) {
        if self.failed {
            return;
        }
        let Some(out) = self.out.as_mut() else {
            return;
        };
        if out.flush().is_err() {
            self.failed = true;
        }
    }
}

impl<W: Write> Drop for JsonlSink<W> {
    fn drop(&mut self) {
        self.flush();
    }
}

fn outcome_fields(outcome: &ExecutionOutcome) -> String {
    let kind = outcome_kind(outcome);
    match outcome {
        ExecutionOutcome::Terminated
        | ExecutionOutcome::StepLimitExceeded
        | ExecutionOutcome::WatchdogTimeout => {
            format!("\"outcome\":\"{kind}\"")
        }
        other => format!(
            "\"outcome\":\"{kind}\",\"detail\":{}",
            json_string(&other.to_string())
        ),
    }
}

fn stats_fields(stats: &ExecStats) -> String {
    let mut fields = format!(
        "\"steps\":{},\"blocking_steps\":{},\"preemptions\":{},\"context_switches\":{}",
        stats.steps, stats.blocking_steps, stats.preemptions, stats.context_switches
    );
    // Only faulted executions carry the field: fault-free runs (every
    // run at fault bound 0) keep their pre-fault byte layout.
    if stats.faults > 0 {
        fields.push_str(&format!(",\"faults\":{}", stats.faults));
    }
    fields
}

fn schedule_array(schedule: &icb_core::Schedule) -> String {
    let ids: Vec<String> = schedule.iter().map(|t| t.index().to_string()).collect();
    format!("[{}]", ids.join(","))
}

fn tid_array(tids: &[icb_core::Tid]) -> String {
    let ids: Vec<String> = tids.iter().map(|t| t.index().to_string()).collect();
    format!("[{}]", ids.join(","))
}

impl<W: Write> SearchObserver for JsonlSink<W> {
    fn search_started(&mut self, strategy: &str) {
        self.started = Some(Instant::now());
        let line = format!(
            "{{\"event\":\"search-started\",\"strategy\":{}}}",
            json_string(strategy)
        );
        self.emit(&line);
        self.flush();
    }

    fn wants_choice_points(&self) -> bool {
        self.profile
    }

    fn wants_phase_timing(&self) -> bool {
        self.profile
    }

    fn choice_point(&mut self, site: SiteId, bound: usize, kind: ChoiceKind) {
        if !self.profile {
            return;
        }
        let line = format!(
            "{{\"event\":\"choice-point\",\"site\":{},\"bound\":{bound},\"kind\":\"{}\"}}",
            json_string(&site.to_string()),
            kind.as_str(),
        );
        self.emit(&line);
    }

    fn preemption_taken(&mut self, site: SiteId) {
        if !self.profile {
            return;
        }
        let line = format!(
            "{{\"event\":\"preemption-taken\",\"site\":{}}}",
            json_string(&site.to_string())
        );
        self.emit(&line);
    }

    fn phase_time(&mut self, phase: Phase, elapsed: Duration) {
        if !self.profile {
            return;
        }
        let line = format!(
            "{{\"event\":\"phase-time\",\"phase\":\"{}\",\"elapsed_ns\":{}}}",
            phase.as_str(),
            elapsed.as_nanos(),
        );
        self.emit(&line);
    }

    fn execution_started(&mut self, index: usize) {
        self.emit(&format!(
            "{{\"event\":\"execution-started\",\"index\":{index}}}"
        ));
    }

    fn execution_finished(
        &mut self,
        index: usize,
        stats: &ExecStats,
        outcome: &ExecutionOutcome,
        distinct_states: usize,
    ) {
        let line = format!(
            "{{\"event\":\"execution-finished\",\"index\":{index},{},{},\
             \"distinct_states\":{distinct_states}}}",
            stats_fields(stats),
            outcome_fields(outcome),
        );
        self.emit(&line);
    }

    fn bound_started(&mut self, bound: usize, work_items: usize) {
        self.emit(&format!(
            "{{\"event\":\"bound-started\",\"bound\":{bound},\"work_items\":{work_items}}}"
        ));
    }

    fn bound_completed(&mut self, stats: &BoundStats, wall_time: Duration) {
        // The fault level appears only on levels that inject: a search
        // at fault bound 0 emits the exact pre-fault byte layout.
        let faults = if stats.faults > 0 {
            format!("\"faults\":{},", stats.faults)
        } else {
            String::new()
        };
        let line = format!(
            "{{\"event\":\"bound-completed\",\"bound\":{},{faults}\"executions\":{},\
             \"cumulative_states\":{},\"bugs_found\":{},\"wall_time_ns\":{}}}",
            stats.bound,
            stats.executions,
            stats.cumulative_states,
            stats.bugs_found,
            wall_time.as_nanos(),
        );
        self.emit(&line);
    }

    fn bug_found(&mut self, bug: &BugReport) {
        // Fault-free witnesses keep the pre-fault byte layout; faulted
        // ones additionally record which schedule steps injected.
        let faults = if bug.faults > 0 {
            let steps: Vec<String> = bug
                .schedule
                .faults()
                .iter()
                .map(|s| s.to_string())
                .collect();
            format!(
                "\"faults\":{},\"fault_steps\":[{}],",
                bug.faults,
                steps.join(",")
            )
        } else {
            String::new()
        };
        let line = format!(
            "{{\"event\":\"bug-found\",\"execution_index\":{},\"preemptions\":{},\
             {faults}\"steps\":{},{},\"schedule\":{}}}",
            bug.execution_index,
            bug.preemptions,
            bug.steps,
            outcome_fields(&bug.outcome),
            schedule_array(&bug.schedule),
        );
        self.emit(&line);
    }

    fn fault_injected(&mut self, site: SiteId, step: usize) {
        let line = format!(
            "{{\"event\":\"fault-injected\",\"site\":{},\"step\":{step}}}",
            json_string(&site.to_string())
        );
        self.emit(&line);
    }

    fn worker_panic(&mut self, worker: usize, message: &str) {
        let line = format!(
            "{{\"event\":\"worker-panic\",\"worker\":{worker},\"message\":{}}}",
            json_string(message)
        );
        self.emit(&line);
        // A panicking workload may be about to take the process down on
        // the retry; make sure the first observation reaches disk.
        self.flush();
    }

    fn search_resumed(&mut self, info: &ResumeInfo) {
        let line = format!(
            "{{\"event\":\"search-resumed\",\"executions\":{},\"distinct_states\":{},\
             \"bound\":{},\"bound_executions\":{}}}",
            info.executions, info.distinct_states, info.bound, info.bound_executions,
        );
        self.emit(&line);
    }

    fn checkpoint_written(&mut self, executions: usize) {
        self.emit(&format!(
            "{{\"event\":\"checkpoint-written\",\"executions\":{executions}}}"
        ));
        // A checkpoint marks a moment the process may not outlive; make
        // sure the log on disk covers at least as much as the snapshot.
        self.flush();
    }

    fn trace_quarantined(&mut self, quarantined: &QuarantinedTrace) {
        let line = format!(
            "{{\"event\":\"trace-quarantined\",\"step\":{},\"expected\":{},\
             \"actual\":{},\"schedule\":{}}}",
            quarantined.step,
            quarantined.expected.index(),
            tid_array(&quarantined.actual),
            schedule_array(&quarantined.schedule),
        );
        self.emit(&line);
    }

    fn worker_stamp(&mut self, worker: usize, seq: u64, at: Duration) {
        self.emit(&format!(
            "{{\"event\":\"worker-stamp\",\"worker\":{worker},\"seq\":{seq},\"at_ns\":{}}}",
            at.as_nanos()
        ));
    }

    fn metrics_snapshot(&mut self, snapshot: &MetricsSnapshot) {
        let arr = |f: fn(&icb_core::WorkerStats) -> u64| -> String {
            let vals: Vec<String> = snapshot.workers.iter().map(|w| f(w).to_string()).collect();
            format!("[{}]", vals.join(","))
        };
        let line = format!(
            "{{\"event\":\"metrics-snapshot\",\"elapsed_ns\":{},\"executions\":{},\
             \"distinct_states\":{},\"bound\":{},\"bound_executions\":{},\
             \"frontier_len\":{},\"pump_channel_depth\":{},\"eta_seconds\":{},\
             \"worker_busy_ns\":{},\"worker_idle_ns\":{},\"worker_executions\":{}}}",
            snapshot.elapsed.as_nanos(),
            snapshot.executions,
            snapshot.distinct_states,
            match snapshot.bound {
                Some(b) => b.to_string(),
                None => "null".to_string(),
            },
            snapshot.bound_executions,
            snapshot.frontier_len,
            snapshot.pump_channel_depth,
            match snapshot.eta_seconds {
                Some(eta) if eta.is_finite() => format!("{eta:.3}"),
                _ => "null".to_string(),
            },
            arr(|w| w.busy_ns),
            arr(|w| w.idle_ns),
            arr(|w| w.executions),
        );
        self.emit(&line);
    }

    fn work_item_deferred(&mut self, next_bound: usize) {
        self.emit(&format!(
            "{{\"event\":\"work-item-deferred\",\"next_bound\":{next_bound}}}"
        ));
    }

    fn work_queue_depth(&mut self, depth: usize) {
        self.emit(&format!(
            "{{\"event\":\"work-queue-depth\",\"depth\":{depth}}}"
        ));
    }

    fn cache_hit(&mut self, count: usize) {
        self.emit(&format!("{{\"event\":\"cache-hit\",\"count\":{count}}}"));
    }

    fn cache_store(&mut self, count: usize) {
        self.emit(&format!("{{\"event\":\"cache-store\",\"count\":{count}}}"));
    }

    fn bound_certified(&mut self, bound: Option<usize>) {
        self.emit(&format!(
            "{{\"event\":\"bound-certified\",\"bound\":{}}}",
            match bound {
                Some(b) => b.to_string(),
                None => "null".to_string(),
            }
        ));
    }

    fn race_detected(&mut self, description: &str) {
        let line = format!(
            "{{\"event\":\"race-detected\",\"description\":{}}}",
            json_string(description)
        );
        self.emit(&line);
    }

    fn search_aborted(&mut self, reason: AbortReason) {
        self.emit(&format!(
            "{{\"event\":\"search-aborted\",\"reason\":\"{reason}\"}}"
        ));
        // An abort may be the last event the process lives to write
        // (ctrl-C handlers, budget exhaustion before teardown): persist.
        self.flush();
    }

    fn search_finished(&mut self, report: &SearchReport) {
        let elapsed_ns = self
            .started
            .map_or("null".to_string(), |t| t.elapsed().as_nanos().to_string());
        let cache = report.cache.as_ref().map_or(String::new(), |c| {
            format!(
                "\"cache_hits\":{},\"cache_stores\":{},\"cache_heuristic\":{},\
                 \"cache_certified\":{},",
                c.hits, c.stores, c.heuristic, c.certified,
            )
        });
        let line = format!(
            "{{\"event\":\"search-finished\",\"strategy\":{},\"executions\":{},\
             \"distinct_states\":{},\"buggy_executions\":{},\"bugs_reported\":{},\
             \"completed\":{},\"completed_bound\":{},\"truncated\":{},{cache}\"elapsed_ns\":{}}}",
            json_string(&report.strategy),
            report.executions,
            report.distinct_states,
            report.buggy_executions,
            report.bugs.len(),
            report.completed,
            match report.completed_bound {
                Some(b) => b.to_string(),
                None => "null".to_string(),
            },
            report.truncated,
            elapsed_ns,
        );
        self.emit(&line);
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_one_object_per_line() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.search_started("icb");
        sink.execution_started(1);
        sink.execution_finished(1, &ExecStats::default(), &ExecutionOutcome::Terminated, 3);
        sink.search_aborted(AbortReason::FirstBug);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(lines[0].contains("\"event\":\"search-started\""));
        assert!(lines[2].contains("\"distinct_states\":3"));
        assert!(lines[3].contains("\"reason\":\"first-bug\""));
    }

    #[test]
    fn failed_writer_drops_later_events() {
        struct Fail;
        impl Write for Fail {
            fn write(&mut self, _b: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("down"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonlSink::new(Fail);
        sink.execution_started(1);
        assert!(sink.failed());
        sink.execution_started(2); // must not panic
    }

    #[test]
    fn profile_events_are_gated() {
        let mut sink = JsonlSink::new(Vec::new());
        assert!(!sink.wants_choice_points());
        sink.choice_point(SiteId::op("acquire", 3), 1, ChoiceKind::Preemption);
        sink.preemption_taken(SiteId::UNKNOWN);
        sink.phase_time(Phase::Replay, Duration::from_nanos(7));
        assert!(String::from_utf8(sink.into_inner()).unwrap().is_empty());

        let mut sink = JsonlSink::new(Vec::new()).with_profile_events(true);
        assert!(sink.wants_choice_points());
        assert!(sink.wants_phase_timing());
        sink.choice_point(SiteId::op("acquire", 3), 1, ChoiceKind::Preemption);
        sink.preemption_taken(SiteId::at(0, "load", 14));
        sink.phase_time(Phase::Replay, Duration::from_nanos(7));
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"site\":\"acquire#3\""));
        assert!(lines[0].contains("\"kind\":\"preemption\""));
        assert!(lines[1].contains("\"site\":\"t0:load@14\""));
        assert!(lines[2].contains("\"phase\":\"replay\""));
        assert!(lines[2].contains("\"elapsed_ns\":7"));
    }

    /// Shares its buffer so we can observe what reached the "file" even
    /// while the sink (and its BufWriter) are still alive.
    #[derive(Clone, Default)]
    struct Shared(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

    impl Write for Shared {
        fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(b);
            Ok(b.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl Shared {
        fn text(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    /// A sink writing through a 64 KiB buffer into a [`Shared`] store.
    fn buffered() -> (Shared, JsonlSink<std::io::BufWriter<Shared>>) {
        let buf = Shared::default();
        let writer = std::io::BufWriter::with_capacity(64 * 1024, buf.clone());
        (buf, JsonlSink::new(writer))
    }

    #[test]
    fn abort_flushes_through_a_buffered_writer() {
        let (buf, mut sink) = buffered();
        sink.search_started("icb");
        sink.execution_started(1);
        // Only the flushed search-started line has reached the backing
        // store (64 KiB buffer).
        let text = buf.text();
        assert_eq!(text.lines().count(), 1, "{text:?}");
        sink.search_aborted(AbortReason::FirstBug);
        let text = buf.text();
        assert!(text.lines().count() == 3, "abort must flush: {text:?}");
        assert!(text.contains("\"event\":\"search-aborted\""));
    }

    #[test]
    fn drop_flushes_a_killed_run() {
        let (buf, mut sink) = buffered();
        sink.search_started("icb");
        sink.execution_started(1);
        // Simulated kill mid-run: the sink is dropped without ever
        // seeing search_finished or search_aborted.
        drop(sink);
        let text = buf.text();
        assert_eq!(text.lines().count(), 2, "drop must flush: {text:?}");
        assert!(text.contains("\"event\":\"execution-started\""));
    }

    #[test]
    fn resilience_events_are_encoded() {
        use icb_core::{Schedule, Tid};

        let mut sink = JsonlSink::new(Vec::new());
        sink.search_resumed(&ResumeInfo {
            executions: 120,
            distinct_states: 37,
            bound: 2,
            bound_executions: 20,
        });
        sink.checkpoint_written(150);
        sink.trace_quarantined(&QuarantinedTrace {
            schedule: Schedule::from(vec![Tid(0), Tid(1)]),
            step: 1,
            expected: Tid(1),
            actual: vec![Tid(0)],
        });
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"event\":\"search-resumed\""), "{text}");
        assert!(lines[0].contains("\"executions\":120"));
        assert!(lines[0].contains("\"bound\":2"));
        assert!(lines[1].contains("\"event\":\"checkpoint-written\""));
        assert!(lines[1].contains("\"executions\":150"));
        assert!(lines[2].contains("\"event\":\"trace-quarantined\""));
        assert!(lines[2].contains("\"expected\":1"));
        assert!(lines[2].contains("\"schedule\":[0,1]"));
    }

    #[test]
    fn checkpoint_written_flushes_the_stream() {
        let (buf, mut sink) = buffered();
        sink.search_started("icb");
        let text = buf.text();
        assert!(
            text.contains("\"event\":\"search-started\""),
            "a log whose checkpoint is on disk must name its search: {text:?}"
        );
        sink.checkpoint_written(10);
        let text = buf.text();
        assert!(
            text.contains("\"event\":\"checkpoint-written\""),
            "the log must cover at least as much as the snapshot: {text:?}"
        );
    }

    #[test]
    fn new_outcomes_have_kebab_kinds() {
        use icb_core::Tid;

        let mut sink = JsonlSink::new(Vec::new());
        sink.execution_finished(
            1,
            &ExecStats::default(),
            &ExecutionOutcome::ReplayDivergence {
                step: 3,
                expected: Tid(1),
                actual: vec![Tid(0)],
            },
            1,
        );
        sink.execution_finished(
            2,
            &ExecStats::default(),
            &ExecutionOutcome::WatchdogTimeout,
            1,
        );
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert!(text.contains("\"outcome\":\"replay-divergence\""), "{text}");
        assert!(text.contains("\"outcome\":\"watchdog-timeout\""), "{text}");
    }

    #[test]
    fn cache_events_are_encoded() {
        use icb_core::search::CacheSummary;

        let mut sink = JsonlSink::new(Vec::new());
        sink.cache_store(2);
        sink.cache_hit(5);
        sink.bound_certified(Some(2));
        sink.bound_certified(None);
        sink.search_finished(&SearchReport {
            strategy: "icb".to_string(),
            cache: Some(CacheSummary {
                hits: 5,
                stores: 2,
                heuristic: false,
                certified: false,
            }),
            ..SearchReport::default()
        });
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "{\"event\":\"cache-store\",\"count\":2}");
        assert_eq!(lines[1], "{\"event\":\"cache-hit\",\"count\":5}");
        assert_eq!(lines[2], "{\"event\":\"bound-certified\",\"bound\":2}");
        assert_eq!(lines[3], "{\"event\":\"bound-certified\",\"bound\":null}");
        assert!(lines[4].contains("\"cache_hits\":5"), "{text}");
        assert!(lines[4].contains("\"cache_stores\":2"));
        assert!(lines[4].contains("\"cache_heuristic\":false"));
        assert!(lines[4].contains("\"cache_certified\":false"));

        // Without a cache attached, the fields are absent entirely.
        let mut sink = JsonlSink::new(Vec::new());
        sink.search_finished(&SearchReport::default());
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert!(!text.contains("cache_hits"), "{text}");
    }

    #[test]
    fn fault_events_are_encoded_and_absent_when_fault_free() {
        use icb_core::{Schedule, Tid};

        // Fault-free stats and bugs: byte-identical to the pre-fault
        // layout (no "faults" key anywhere).
        let mut sink = JsonlSink::new(Vec::new());
        sink.execution_finished(1, &ExecStats::default(), &ExecutionOutcome::Terminated, 1);
        sink.bound_completed(
            &BoundStats {
                bound: 1,
                faults: 0,
                executions: 3,
                cumulative_states: 2,
                bugs_found: 0,
            },
            Duration::from_nanos(9),
        );
        sink.bug_found(&BugReport {
            outcome: ExecutionOutcome::Terminated,
            schedule: Schedule::from(vec![Tid(0)]),
            preemptions: 0,
            faults: 0,
            execution_index: 1,
            steps: 1,
        });
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert!(!text.contains("fault"), "fault-free must be silent: {text}");

        // Faulted: counts, injection sites and witness steps all appear.
        let mut sink = JsonlSink::new(Vec::new());
        let stats = ExecStats {
            faults: 2,
            ..ExecStats::default()
        };
        sink.execution_finished(1, &stats, &ExecutionOutcome::Terminated, 1);
        sink.fault_injected(SiteId::op("try-acquire", 3), 5);
        sink.bound_completed(
            &BoundStats {
                bound: 1,
                faults: 1,
                executions: 3,
                cumulative_states: 2,
                bugs_found: 1,
            },
            Duration::from_nanos(9),
        );
        let mut schedule = Schedule::from(vec![Tid(0), Tid(1)]);
        schedule.add_fault(1);
        sink.bug_found(&BugReport {
            outcome: ExecutionOutcome::Terminated,
            schedule,
            preemptions: 0,
            faults: 1,
            execution_index: 2,
            steps: 2,
        });
        sink.worker_panic(3, "worker died: index out of bounds");
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains("\"faults\":2"), "{text}");
        assert_eq!(
            lines[1],
            "{\"event\":\"fault-injected\",\"site\":\"try-acquire#3\",\"step\":5}"
        );
        assert!(lines[2].contains("\"bound\":1,\"faults\":1,"), "{text}");
        assert!(
            lines[3].contains("\"faults\":1,\"fault_steps\":[1],"),
            "{text}"
        );
        assert!(
            lines[4].contains("\"event\":\"worker-panic\",\"worker\":3"),
            "{text}"
        );
        assert!(lines[4].contains("index out of bounds"), "{text}");
    }

    #[test]
    fn search_finished_reports_elapsed() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.search_started("icb");
        sink.search_finished(&SearchReport {
            strategy: "icb".to_string(),
            ..SearchReport::default()
        });
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let last = text.lines().last().unwrap();
        assert!(last.contains("\"elapsed_ns\":"));
        assert!(!last.contains("\"elapsed_ns\":null"));
    }
}
