//! In-memory counters and histograms over the search event stream.

use std::time::{Duration, Instant};

use icb_core::search::{BoundStats, SearchReport};
use icb_core::telemetry::AbortReason;
use icb_core::{ExecStats, ExecutionOutcome, SearchObserver};

/// A power-of-two-bucketed histogram of `usize` samples.
///
/// Bucket `i` counts samples whose value has bit length `i` (bucket 0
/// holds the value 0, bucket 1 holds 1, bucket 2 holds 2–3, bucket 3
/// holds 4–7, …). Exact minimum, maximum, sum and count are kept
/// alongside, so means are not subject to bucketing error.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: Option<usize>,
    max: usize,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: usize) {
        let bucket = (usize::BITS - value.leading_zeros()) as usize;
        if self.buckets.len() <= bucket {
            self.buckets.resize(bucket + 1, 0);
        }
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum += value as u64;
        self.min = Some(self.min.map_or(value, |m| m.min(value)));
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact mean of the samples (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Smallest sample (`None` when empty).
    pub fn min(&self) -> Option<usize> {
        self.min
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> usize {
        self.max
    }

    /// The bucket counts: entry `i` counts samples in
    /// `[2^(i-1), 2^i - 1]` (entry 0 counts zeros).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }
}

/// Aggregates the event stream into the numbers the paper's figures are
/// drawn from.
///
/// Attach one recorder per search:
///
/// ```
/// use icb_core::search::Search;
/// use icb_telemetry::MetricsRecorder;
/// # use icb_core::{ControlledProgram, Scheduler, StateSink, ExecutionResult,
/// #                ExecutionOutcome, Trace};
/// # struct Nop;
/// # impl ControlledProgram for Nop {
/// #     fn execute(&self, s: &mut dyn Scheduler, _k: &mut dyn StateSink)
/// #         -> ExecutionResult {
/// #         ExecutionResult::from_trace(ExecutionOutcome::Terminated, Trace::new())
/// #     }
/// # }
/// let mut metrics = MetricsRecorder::new();
/// let report = Search::over(&Nop).observer(&mut metrics).run().unwrap();
/// assert_eq!(metrics.executions(), report.executions);
/// ```
#[derive(Debug, Default)]
pub struct MetricsRecorder {
    strategy: String,
    started_at: Option<Instant>,
    finished_at: Option<Instant>,
    executions_started: usize,
    executions: usize,
    buggy_executions: usize,
    bug_reports: usize,
    races_detected: usize,
    work_items_deferred: usize,
    queue_high_water: usize,
    distinct_states: usize,
    steps: Histogram,
    preemption_counts: Vec<usize>,
    coverage_curve: Vec<(usize, usize)>,
    bound_rows: Vec<(BoundStats, Duration)>,
    cache_hits: usize,
    cache_stores: usize,
    certified_bound: Option<Option<usize>>,
    abort: Option<AbortReason>,
    finished: bool,
}

impl MetricsRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        MetricsRecorder::default()
    }

    /// The strategy label announced by `search_started` (empty before).
    pub fn strategy(&self) -> &str {
        &self.strategy
    }

    /// Executions finished so far.
    pub fn executions(&self) -> usize {
        self.executions
    }

    /// `execution_started` events seen (equals [`executions`] between
    /// executions; may be one ahead mid-execution).
    ///
    /// [`executions`]: MetricsRecorder::executions
    pub fn executions_started(&self) -> usize {
        self.executions_started
    }

    /// Executions that ended in a bug.
    pub fn buggy_executions(&self) -> usize {
        self.buggy_executions
    }

    /// `bug_found` events seen (bounded by `max_bug_reports`).
    pub fn bug_reports(&self) -> usize {
        self.bug_reports
    }

    /// Data races flagged by the happens-before detector.
    pub fn races_detected(&self) -> usize {
        self.races_detected
    }

    /// Work items deferred to later ICB bounds.
    pub fn work_items_deferred(&self) -> usize {
        self.work_items_deferred
    }

    /// Largest deferred-queue depth observed.
    pub fn queue_high_water(&self) -> usize {
        self.queue_high_water
    }

    /// Cumulative distinct states after the latest execution.
    pub fn distinct_states(&self) -> usize {
        self.distinct_states
    }

    /// Distribution of steps per execution.
    pub fn steps(&self) -> &Histogram {
        &self.steps
    }

    /// Preemption distribution: entry `c` counts executions with exactly
    /// `c` preemptions.
    pub fn preemption_distribution(&self) -> &[usize] {
        &self.preemption_counts
    }

    /// The coverage curve `(execution index, cumulative distinct states)`
    /// — the data behind Figures 2, 5 and 6.
    pub fn coverage_curve(&self) -> &[(usize, usize)] {
        &self.coverage_curve
    }

    /// Completed ICB bounds with their wall time — the data behind
    /// Figures 1 and 4, plus per-bound timing the report does not carry.
    pub fn bound_rows(&self) -> &[(BoundStats, Duration)] {
        &self.bound_rows
    }

    /// Work items pruned by the fingerprint cache.
    pub fn cache_hits(&self) -> usize {
        self.cache_hits
    }

    /// New subtree entries the fingerprint cache recorded.
    pub fn cache_stores(&self) -> usize {
        self.cache_stores
    }

    /// `Some(bound)` when the certification ledger answered the search
    /// without running it (inner `None` = certified exhaustively).
    pub fn certified_bound(&self) -> Option<Option<usize>> {
        self.certified_bound
    }

    /// Why the search aborted, if it did not exhaust its space.
    pub fn abort(&self) -> Option<AbortReason> {
        self.abort
    }

    /// Wall time from `search_started` to `search_finished` (to now, for
    /// a still-running search; zero before the search starts).
    pub fn elapsed(&self) -> Duration {
        match (self.started_at, self.finished_at) {
            (Some(s), Some(f)) => f.duration_since(s),
            (Some(s), None) => s.elapsed(),
            _ => Duration::ZERO,
        }
    }

    /// Observed throughput in executions per second (`None` until time
    /// has measurably passed).
    pub fn executions_per_sec(&self) -> Option<f64> {
        let secs = self.elapsed().as_secs_f64();
        (secs > 0.0).then(|| self.executions as f64 / secs)
    }

    /// Whether `search_finished` has been observed.
    pub fn is_finished(&self) -> bool {
        self.finished
    }
}

impl SearchObserver for MetricsRecorder {
    fn search_started(&mut self, strategy: &str) {
        self.strategy = strategy.to_string();
        self.started_at = Some(Instant::now());
    }

    fn execution_started(&mut self, _index: usize) {
        // A recorder may be attached mid-search (e.g. after a warmup), so
        // time from the first event seen when `search_started` was missed.
        if self.started_at.is_none() {
            self.started_at = Some(Instant::now());
        }
        self.executions_started += 1;
    }

    fn execution_finished(
        &mut self,
        index: usize,
        stats: &ExecStats,
        outcome: &ExecutionOutcome,
        distinct_states: usize,
    ) {
        self.executions = index;
        self.distinct_states = distinct_states;
        self.steps.record(stats.steps);
        if self.preemption_counts.len() <= stats.preemptions {
            self.preemption_counts.resize(stats.preemptions + 1, 0);
        }
        self.preemption_counts[stats.preemptions] += 1;
        if outcome.is_bug() {
            self.buggy_executions += 1;
        }
        self.coverage_curve.push((index, distinct_states));
    }

    fn bound_completed(&mut self, stats: &BoundStats, wall_time: Duration) {
        self.bound_rows.push((*stats, wall_time));
    }

    fn bug_found(&mut self, _bug: &icb_core::search::BugReport) {
        self.bug_reports += 1;
    }

    fn work_item_deferred(&mut self, _next_bound: usize) {
        self.work_items_deferred += 1;
    }

    fn work_queue_depth(&mut self, depth: usize) {
        self.queue_high_water = self.queue_high_water.max(depth);
    }

    fn race_detected(&mut self, _description: &str) {
        self.races_detected += 1;
    }

    fn cache_hit(&mut self, count: usize) {
        self.cache_hits += count;
    }

    fn cache_store(&mut self, count: usize) {
        self.cache_stores += count;
    }

    fn bound_certified(&mut self, bound: Option<usize>) {
        self.certified_bound = Some(bound);
    }

    fn search_aborted(&mut self, reason: AbortReason) {
        self.abort = Some(reason);
    }

    fn search_finished(&mut self, report: &SearchReport) {
        self.finished_at = Some(Instant::now());
        self.finished = true;
        self.distinct_states = report.distinct_states;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_bit_length() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 7, 8] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), 8);
        assert_eq!(h.buckets(), &[1, 1, 2, 2, 1]);
        let mean = h.mean().unwrap();
        assert!((mean - 25.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn recorder_tracks_executions_and_coverage() {
        let mut m = MetricsRecorder::new();
        m.search_started("icb");
        m.execution_started(1);
        m.execution_finished(
            1,
            &ExecStats {
                steps: 5,
                blocking_steps: 0,
                preemptions: 2,
                context_switches: 2,
                faults: 0,
            },
            &ExecutionOutcome::Terminated,
            4,
        );
        assert_eq!(m.executions(), 1);
        assert_eq!(m.distinct_states(), 4);
        assert_eq!(m.coverage_curve(), &[(1, 4)]);
        assert_eq!(m.preemption_distribution(), &[0, 0, 1]);
        assert!(!m.is_finished());
    }

    #[test]
    fn recorder_tracks_queue_high_water() {
        let mut m = MetricsRecorder::new();
        m.work_queue_depth(3);
        m.work_queue_depth(9);
        m.work_queue_depth(4);
        assert_eq!(m.queue_high_water(), 9);
    }
}
