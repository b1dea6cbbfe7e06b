//! Live search metrics: a lock-free registry updated on hot paths.
//!
//! The observer interface ([`SearchObserver`](crate::SearchObserver))
//! is a *stream*: events are pushed to a single consumer as they
//! happen. A [`MetricsRegistry`] is
//! the complementary *state* view — a set of atomic counters, gauges and
//! fixed-bucket histograms that any thread can update and any thread can
//! read at any time. It exists for live introspection: a Prometheus-style
//! scrape endpoint, a terminal status board, or a periodic
//! `metrics-snapshot` telemetry event all read the same registry, so the
//! numbers they show cannot drift apart.
//!
//! Three kinds of producer feed one registry:
//!
//! * The search's ledger updates it next to every event it emits
//!   (executions, bounds, bugs, checkpoints, cache events), so the
//!   registry counts exactly what the final report does. Cumulative
//!   quantities advance by `fetch_max` of the ledger's cumulative
//!   index, which also lets a resume seed them from the checkpoint.
//! * The parallel driver's workers, pump and
//!   [`Frontier`](crate::search::Frontier) update the
//!   observer-invisible quantities directly: per-worker busy/idle time,
//!   steal donations, pop waits, frontier depth, pump stalls and channel
//!   depth.
//! * The fingerprint cache table reports per-shard probe/hit counts.
//!
//! Every update is a handful of relaxed atomic operations — no locks on
//! any hot path (the only mutexes guard the strategy label and the
//! start instant, both written once per search).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::bounds;
use crate::search::SearchReport;
use crate::telemetry::ResumeInfo;
use crate::trace::{ExecStats, ExecutionOutcome};

/// Per-worker slots kept by the registry. Workers beyond this many fold
/// into the last slots modulo [`MAX_WORKERS`]; the parallel driver's
/// practical worker counts are far below it.
pub const MAX_WORKERS: usize = 64;

/// Cache-table shard slots (matches the table's shard count).
pub const CACHE_SHARDS: usize = 64;

/// Step-histogram buckets: bucket `i` counts executions whose step count
/// has bit length `i` (bucket 0 holds zero-step executions); the last
/// bucket is a catch-all.
pub const STEP_BUCKETS: usize = 33;

/// Sentinel for "no bound active" in the `current_bound` gauge.
const NO_BOUND: u64 = u64::MAX;

#[derive(Debug, Default)]
struct WorkerSlot {
    busy_ns: AtomicU64,
    idle_ns: AtomicU64,
    executions: AtomicU64,
    donations: AtomicU64,
}

/// Point-in-time statistics of one worker, as captured by
/// [`MetricsRegistry::snapshot`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Nanoseconds spent executing work items.
    pub busy_ns: u64,
    /// Nanoseconds spent blocked waiting for work.
    pub idle_ns: u64,
    /// Executions this worker performed.
    pub executions: u64,
    /// Times this worker donated part of its subtree to the frontier.
    pub donations: u64,
}

impl WorkerStats {
    /// Busy share of the worker's accounted time (`None` before any time
    /// was accounted).
    pub fn utilization(&self) -> Option<f64> {
        let total = self.busy_ns + self.idle_ns;
        (total > 0).then(|| self.busy_ns as f64 / total as f64)
    }
}

/// A plain-data copy of the registry at one instant — the payload of the
/// [`SearchObserver::metrics_snapshot`] hook and of the periodic
/// `metrics-snapshot` JSONL event.
///
/// [`SearchObserver::metrics_snapshot`]: crate::SearchObserver::metrics_snapshot
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Wall time since the search started.
    pub elapsed: Duration,
    /// Cumulative executions (equals the final report's count at the
    /// last snapshot).
    pub executions: u64,
    /// Cumulative distinct states.
    pub distinct_states: u64,
    /// Executions that ended in a bug.
    pub buggy_executions: u64,
    /// Bug reports recorded.
    pub bugs_reported: u64,
    /// The active preemption bound (`None` outside ICB bounds).
    pub bound: Option<u64>,
    /// Executions performed inside the active bound.
    pub bound_executions: u64,
    /// Deferred work-queue depth (last sampled).
    pub work_queue_depth: u64,
    /// Work items deferred to later bounds so far.
    pub work_items_deferred: u64,
    /// Parallel frontier queue depth (last sampled; 0 when sequential).
    pub frontier_len: u64,
    /// Times a worker blocked waiting for frontier work.
    pub frontier_pop_waits: u64,
    /// Frontier mutex acquisitions.
    pub frontier_lock_ops: u64,
    /// Times a worker donated (dissolved) part of its subtree.
    pub steal_donations: u64,
    /// Work items transferred by those donations.
    pub steal_donated_items: u64,
    /// Observer-pump `recv_timeout` expiries (pump idle ticks).
    pub pump_recv_timeouts: u64,
    /// Observer-pump channel depth (last sampled).
    pub pump_channel_depth: u64,
    /// Configured worker count (1 when sequential).
    pub workers_configured: u64,
    /// Checkpoints durably written.
    pub checkpoints: u64,
    /// Schedule prefixes quarantined after replay divergence.
    pub quarantined: u64,
    /// Executions abandoned by the per-execution watchdog.
    pub watchdog_trips: u64,
    /// Data races flagged by the happens-before detector.
    pub races_detected: u64,
    /// Faults injected at fallible operations by the fault-bound search.
    pub faults_injected: u64,
    /// Replays spent shrinking witnesses (see
    /// [`shrink::minimize_witness`](crate::shrink::minimize_witness)).
    pub shrink_replays: u64,
    /// Work items pruned by the fingerprint cache.
    pub cache_hits: u64,
    /// New subtree entries the fingerprint cache recorded.
    pub cache_stores: u64,
    /// Fingerprint-table probes.
    pub cache_table_probes: u64,
    /// Fingerprint-table probes answered "covered".
    pub cache_table_hits: u64,
    /// Per-worker counters (one entry per configured worker).
    pub workers: Vec<WorkerStats>,
    /// Theorem-1 ETA for the current bound, when computable.
    pub eta_seconds: Option<f64>,
}

/// Lock-free live counters, gauges and histograms for one search.
///
/// Shared as `Arc<MetricsRegistry>` between the search's ledger, the
/// parallel driver's workers, the frontier, the cache table, and any
/// number of readers (scrape endpoint, status board). See the
/// [module docs](self).
#[derive(Debug)]
pub struct MetricsRegistry {
    created: Instant,
    started: Mutex<Option<Instant>>,
    strategy: Mutex<String>,
    executions: AtomicU64,
    buggy_executions: AtomicU64,
    bugs_reported: AtomicU64,
    races_detected: AtomicU64,
    faults_injected: AtomicU64,
    shrink_replays: AtomicU64,
    distinct_states: AtomicU64,
    work_items_deferred: AtomicU64,
    work_queue_depth: AtomicU64,
    current_bound: AtomicU64,
    bound_base: AtomicU64,
    checkpoints: AtomicU64,
    quarantined: AtomicU64,
    watchdog_trips: AtomicU64,
    cache_hits: AtomicU64,
    cache_stores: AtomicU64,
    cache_shard_probes: Vec<AtomicU64>,
    cache_shard_hits: Vec<AtomicU64>,
    frontier_len: AtomicU64,
    frontier_pop_waits: AtomicU64,
    frontier_lock_ops: AtomicU64,
    steal_donations: AtomicU64,
    steal_donated_items: AtomicU64,
    pump_recv_timeouts: AtomicU64,
    pump_channel_depth: AtomicU64,
    workers_configured: AtomicU64,
    workers: Vec<WorkerSlot>,
    step_buckets: Vec<AtomicU64>,
    step_sum: AtomicU64,
    step_count: AtomicU64,
    max_steps: AtomicU64,
    resumed_base: AtomicU64,
    theorem1_threads: AtomicU64,
    theorem1_blocking: AtomicU64,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// An empty registry; the creation instant anchors `elapsed` until
    /// [`mark_started`](MetricsRegistry::mark_started) is called.
    pub fn new() -> Self {
        MetricsRegistry {
            created: Instant::now(),
            started: Mutex::new(None),
            strategy: Mutex::new(String::new()),
            executions: AtomicU64::new(0),
            buggy_executions: AtomicU64::new(0),
            bugs_reported: AtomicU64::new(0),
            races_detected: AtomicU64::new(0),
            faults_injected: AtomicU64::new(0),
            shrink_replays: AtomicU64::new(0),
            distinct_states: AtomicU64::new(0),
            work_items_deferred: AtomicU64::new(0),
            work_queue_depth: AtomicU64::new(0),
            current_bound: AtomicU64::new(NO_BOUND),
            bound_base: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            watchdog_trips: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_stores: AtomicU64::new(0),
            cache_shard_probes: (0..CACHE_SHARDS).map(|_| AtomicU64::new(0)).collect(),
            cache_shard_hits: (0..CACHE_SHARDS).map(|_| AtomicU64::new(0)).collect(),
            frontier_len: AtomicU64::new(0),
            frontier_pop_waits: AtomicU64::new(0),
            frontier_lock_ops: AtomicU64::new(0),
            steal_donations: AtomicU64::new(0),
            steal_donated_items: AtomicU64::new(0),
            pump_recv_timeouts: AtomicU64::new(0),
            pump_channel_depth: AtomicU64::new(0),
            workers_configured: AtomicU64::new(1),
            workers: (0..MAX_WORKERS).map(|_| WorkerSlot::default()).collect(),
            step_buckets: (0..STEP_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            step_sum: AtomicU64::new(0),
            step_count: AtomicU64::new(0),
            max_steps: AtomicU64::new(0),
            resumed_base: AtomicU64::new(0),
            theorem1_threads: AtomicU64::new(0),
            theorem1_blocking: AtomicU64::new(0),
        }
    }

    // -- search lifecycle --------------------------------------------------

    /// Anchors `elapsed` (and thus rates and ETAs) to now. Called once
    /// by the search's ledger on `search_started`.
    pub fn mark_started(&self) {
        let mut g = self.started.lock().unwrap();
        if g.is_none() {
            *g = Some(Instant::now());
        }
    }

    /// Sets the strategy label shown by exporters.
    pub fn set_strategy(&self, label: &str) {
        label.clone_into(&mut self.strategy.lock().unwrap());
    }

    /// The strategy label (empty before the search starts).
    pub fn strategy(&self) -> String {
        self.strategy.lock().unwrap().clone()
    }

    /// Enables the Theorem-1 ETA for a program with `threads` threads,
    /// each executing at most `blocking` potentially blocking operations
    /// (`threads` is clamped to at least 1, matching the progress
    /// reporter's historical behavior).
    pub fn set_theorem1(&self, threads: u64, blocking: u64) {
        self.theorem1_threads
            .store(threads.max(1), Ordering::Relaxed);
        self.theorem1_blocking.store(blocking, Ordering::Relaxed);
    }

    /// Declares the worker count of the driving search.
    pub fn set_workers(&self, workers: usize) {
        self.workers_configured
            .store(workers as u64, Ordering::Relaxed);
    }

    // -- event-stream mirror (driven by the search's ledger) ---------------

    /// Mirrors one `execution_finished` event: `index` is the cumulative
    /// execution count, `distinct_states` the cumulative coverage.
    ///
    /// Cumulative counters advance by `fetch_max`, so a stale index
    /// cannot move them back.
    pub fn record_execution(
        &self,
        index: usize,
        stats: &ExecStats,
        outcome: &ExecutionOutcome,
        distinct_states: usize,
    ) {
        self.executions.fetch_max(index as u64, Ordering::Relaxed);
        self.distinct_states
            .fetch_max(distinct_states as u64, Ordering::Relaxed);
        self.max_steps
            .fetch_max(stats.steps as u64, Ordering::Relaxed);
        let bucket = (usize::BITS - stats.steps.leading_zeros()) as usize;
        self.step_buckets[bucket.min(STEP_BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
        self.step_sum
            .fetch_add(stats.steps as u64, Ordering::Relaxed);
        self.step_count.fetch_add(1, Ordering::Relaxed);
        match outcome {
            ExecutionOutcome::Terminated
            | ExecutionOutcome::StepLimitExceeded
            | ExecutionOutcome::ReplayDivergence { .. } => {}
            ExecutionOutcome::WatchdogTimeout => {
                self.watchdog_trips.fetch_add(1, Ordering::Relaxed);
            }
            _ => {
                self.buggy_executions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Mirrors `bound_started`: resets the per-bound execution base.
    pub fn record_bound_started(&self, bound: usize) {
        self.current_bound.store(bound as u64, Ordering::Relaxed);
        self.bound_base
            .store(self.executions.load(Ordering::Relaxed), Ordering::Relaxed);
        self.work_queue_depth.store(0, Ordering::Relaxed);
    }

    /// Mirrors `search_resumed`: seeds cumulative counters from the
    /// checkpoint and excludes inherited executions from rates.
    pub fn record_resume(&self, info: &ResumeInfo) {
        self.resumed_base
            .store(info.executions as u64, Ordering::Relaxed);
        self.executions
            .fetch_max(info.executions as u64, Ordering::Relaxed);
        self.distinct_states
            .fetch_max(info.distinct_states as u64, Ordering::Relaxed);
        self.current_bound
            .store(info.bound as u64, Ordering::Relaxed);
        self.bound_base.store(
            (info.executions - info.bound_executions) as u64,
            Ordering::Relaxed,
        );
    }

    /// Mirrors `search_finished`: pins the cumulative totals to the
    /// final report's.
    pub fn record_finished(&self, report: &SearchReport) {
        self.executions
            .fetch_max(report.executions as u64, Ordering::Relaxed);
        self.distinct_states
            .fetch_max(report.distinct_states as u64, Ordering::Relaxed);
    }

    /// One bug report was recorded.
    pub fn bug_reported(&self) {
        self.bugs_reported.fetch_add(1, Ordering::Relaxed);
    }

    /// The race detector flagged a data race.
    pub fn race_detected(&self) {
        self.races_detected.fetch_add(1, Ordering::Relaxed);
    }

    /// The scheduler injected a fault at a fallible operation.
    pub fn fault_injected(&self) {
        self.faults_injected.fetch_add(1, Ordering::Relaxed);
    }

    /// Witness shrinking spent `n` additional replays (cumulative, a
    /// plain counter: shrinking runs re-execute the program outside the
    /// search proper, so `icb_executions_total` would otherwise silently
    /// under-report the work done).
    pub fn shrink_replays_add(&self, n: usize) {
        self.shrink_replays.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// One work item was deferred to a later bound.
    pub fn work_item_deferred(&self) {
        self.work_items_deferred.fetch_add(1, Ordering::Relaxed);
    }

    /// The deferred work queue was sampled at `depth` items.
    pub fn set_work_queue_depth(&self, depth: usize) {
        self.work_queue_depth.store(depth as u64, Ordering::Relaxed);
    }

    /// A checkpoint was durably written.
    pub fn checkpoint_written(&self) {
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
    }

    /// A schedule prefix was quarantined.
    pub fn trace_quarantined(&self) {
        self.quarantined.fetch_add(1, Ordering::Relaxed);
    }

    /// The cache pruned `count` work items.
    pub fn cache_pruned(&self, count: usize) {
        self.cache_hits.fetch_add(count as u64, Ordering::Relaxed);
    }

    /// The cache recorded `count` new subtree entries.
    pub fn cache_stored(&self, count: usize) {
        self.cache_stores.fetch_add(count as u64, Ordering::Relaxed);
    }

    // -- hot-path producers (frontier, workers, pump, cache table) ---------

    /// One fingerprint-table probe against `shard` (`hit` = covered).
    pub fn cache_table_probe(&self, shard: usize, hit: bool) {
        self.cache_shard_probes[shard % CACHE_SHARDS].fetch_add(1, Ordering::Relaxed);
        if hit {
            self.cache_shard_hits[shard % CACHE_SHARDS].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The frontier queue was sampled at `len` items.
    pub fn set_frontier_len(&self, len: usize) {
        self.frontier_len.store(len as u64, Ordering::Relaxed);
    }

    /// A worker blocked in `Frontier::pop` waiting for work.
    pub fn frontier_pop_wait(&self) {
        self.frontier_pop_waits.fetch_add(1, Ordering::Relaxed);
    }

    /// The frontier mutex was acquired.
    pub fn frontier_lock_op(&self) {
        self.frontier_lock_ops.fetch_add(1, Ordering::Relaxed);
    }

    /// A worker donated `items` work items back to the frontier.
    pub fn steal_donation(&self, items: usize) {
        self.steal_donations.fetch_add(1, Ordering::Relaxed);
        self.steal_donated_items
            .fetch_add(items as u64, Ordering::Relaxed);
    }

    /// The observer pump's `recv_timeout` expired without an event.
    pub fn pump_recv_timeout(&self) {
        self.pump_recv_timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// The observer-pump channel was sampled at `depth` queued events.
    pub fn set_pump_channel_depth(&self, depth: usize) {
        self.pump_channel_depth
            .store(depth as u64, Ordering::Relaxed);
    }

    /// Worker `worker` spent `elapsed` executing work.
    pub fn worker_busy(&self, worker: usize, elapsed: Duration) {
        self.workers[worker % MAX_WORKERS]
            .busy_ns
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Worker `worker` spent `elapsed` waiting for work.
    pub fn worker_idle(&self, worker: usize, elapsed: Duration) {
        self.workers[worker % MAX_WORKERS]
            .idle_ns
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Worker `worker` finished one execution.
    pub fn worker_execution(&self, worker: usize) {
        self.workers[worker % MAX_WORKERS]
            .executions
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Worker `worker` donated part of its subtree.
    pub fn worker_donation(&self, worker: usize) {
        self.workers[worker % MAX_WORKERS]
            .donations
            .fetch_add(1, Ordering::Relaxed);
    }

    // -- readers ------------------------------------------------------------

    /// Cumulative executions.
    pub fn executions(&self) -> u64 {
        self.executions.load(Ordering::Relaxed)
    }

    /// Cumulative distinct states.
    pub fn distinct_states(&self) -> u64 {
        self.distinct_states.load(Ordering::Relaxed)
    }

    /// The active preemption bound, when one is.
    pub fn current_bound(&self) -> Option<usize> {
        match self.current_bound.load(Ordering::Relaxed) {
            NO_BOUND => None,
            b => Some(b as usize),
        }
    }

    /// Executions performed inside the active bound.
    pub fn bound_executions(&self) -> u64 {
        self.executions
            .load(Ordering::Relaxed)
            .saturating_sub(self.bound_base.load(Ordering::Relaxed))
    }

    /// Deferred work-queue depth (last sampled).
    pub fn work_queue_depth(&self) -> u64 {
        self.work_queue_depth.load(Ordering::Relaxed)
    }

    /// Executions inherited from a checkpoint.
    pub fn resumed_base(&self) -> u64 {
        self.resumed_base.load(Ordering::Relaxed)
    }

    /// Longest execution (in steps) observed so far.
    pub fn max_steps(&self) -> u64 {
        self.max_steps.load(Ordering::Relaxed)
    }

    /// Wall time since [`mark_started`](MetricsRegistry::mark_started)
    /// (since creation, if the search has not started).
    pub fn elapsed(&self) -> Duration {
        match *self.started.lock().unwrap() {
            Some(s) => s.elapsed(),
            None => self.created.elapsed(),
        }
    }

    /// Observed execution rate of *this segment* (inherited executions
    /// excluded), in executions per second; `0.0` before the search
    /// starts or before time measurably passes.
    pub fn fresh_rate(&self) -> f64 {
        let started = *self.started.lock().unwrap();
        match started {
            Some(s) if s.elapsed().as_secs_f64() > 0.0 => {
                let fresh = self
                    .executions
                    .load(Ordering::Relaxed)
                    .saturating_sub(self.resumed_base.load(Ordering::Relaxed));
                fresh as f64 / s.elapsed().as_secs_f64()
            }
            _ => 0.0,
        }
    }

    /// Upper bound on the seconds left in the current bound, from the
    /// paper's Theorem 1 ceiling and the observed execution rate.
    ///
    /// This is the single implementation of the ETA the progress
    /// reporter historically computed: `None` when parameters or rate
    /// are missing, `+inf` when the ceiling exceeds `e^60`, clamped to
    /// zero when the bound overran its (loose) ceiling.
    pub fn eta_seconds(&self) -> Option<f64> {
        let n = self.theorem1_threads.load(Ordering::Relaxed);
        if n == 0 {
            return None;
        }
        let b = self.theorem1_blocking.load(Ordering::Relaxed);
        let c = self.current_bound()? as u64;
        let k = (self.max_steps.load(Ordering::Relaxed) / n.max(1)).max(1);
        let started = (*self.started.lock().unwrap())?;
        let secs = started.elapsed().as_secs_f64();
        let fresh = self
            .executions
            .load(Ordering::Relaxed)
            .saturating_sub(self.resumed_base.load(Ordering::Relaxed));
        if secs <= 0.0 || fresh == 0 {
            return None;
        }
        let rate = fresh as f64 / secs;
        if !rate.is_finite() || rate <= 0.0 {
            return None;
        }
        // Log-space first: the ceiling overflows u128 long before the
        // search becomes infeasible to *estimate*.
        let ln_ceiling = bounds::ln_executions_with_preemptions(n, k, b, c);
        if ln_ceiling.is_nan() {
            return None;
        }
        if ln_ceiling > 60.0 {
            return Some(f64::INFINITY);
        }
        let ceiling = ln_ceiling.exp();
        // At bound 0 (or once a bound overruns its loose ceiling) the
        // remaining work clamps to zero rather than going negative.
        let remaining = (ceiling - self.bound_executions() as f64).max(0.0);
        let eta = remaining / rate;
        if eta.is_nan() {
            return None;
        }
        Some(eta)
    }

    /// Aggregate fingerprint-table probe / hit counters.
    pub fn cache_table_counters(&self) -> (u64, u64) {
        let probes = self
            .cache_shard_probes
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum();
        let hits = self
            .cache_shard_hits
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum();
        (probes, hits)
    }

    /// Per-shard fingerprint-table `(probes, hits)`, indexed by shard.
    pub fn cache_shard_counters(&self) -> Vec<(u64, u64)> {
        self.cache_shard_probes
            .iter()
            .zip(&self.cache_shard_hits)
            .map(|(p, h)| (p.load(Ordering::Relaxed), h.load(Ordering::Relaxed)))
            .collect()
    }

    /// The step-histogram buckets (bit-length buckets), with exact sum
    /// and count alongside.
    pub fn step_histogram(&self) -> (Vec<u64>, u64, u64) {
        (
            self.step_buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            self.step_sum.load(Ordering::Relaxed),
            self.step_count.load(Ordering::Relaxed),
        )
    }

    /// Captures a plain-data copy of every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let workers_configured = self.workers_configured.load(Ordering::Relaxed);
        let visible = (workers_configured as usize).clamp(1, MAX_WORKERS);
        let (cache_table_probes, cache_table_hits) = self.cache_table_counters();
        MetricsSnapshot {
            elapsed: self.elapsed(),
            executions: self.executions.load(Ordering::Relaxed),
            distinct_states: self.distinct_states.load(Ordering::Relaxed),
            buggy_executions: self.buggy_executions.load(Ordering::Relaxed),
            bugs_reported: self.bugs_reported.load(Ordering::Relaxed),
            bound: self.current_bound().map(|b| b as u64),
            bound_executions: self.bound_executions(),
            work_queue_depth: self.work_queue_depth.load(Ordering::Relaxed),
            work_items_deferred: self.work_items_deferred.load(Ordering::Relaxed),
            frontier_len: self.frontier_len.load(Ordering::Relaxed),
            frontier_pop_waits: self.frontier_pop_waits.load(Ordering::Relaxed),
            frontier_lock_ops: self.frontier_lock_ops.load(Ordering::Relaxed),
            steal_donations: self.steal_donations.load(Ordering::Relaxed),
            steal_donated_items: self.steal_donated_items.load(Ordering::Relaxed),
            pump_recv_timeouts: self.pump_recv_timeouts.load(Ordering::Relaxed),
            pump_channel_depth: self.pump_channel_depth.load(Ordering::Relaxed),
            workers_configured,
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            watchdog_trips: self.watchdog_trips.load(Ordering::Relaxed),
            races_detected: self.races_detected.load(Ordering::Relaxed),
            faults_injected: self.faults_injected.load(Ordering::Relaxed),
            shrink_replays: self.shrink_replays.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_stores: self.cache_stores.load(Ordering::Relaxed),
            cache_table_probes,
            cache_table_hits,
            workers: self.workers[..visible]
                .iter()
                .map(|w| WorkerStats {
                    busy_ns: w.busy_ns.load(Ordering::Relaxed),
                    idle_ns: w.idle_ns.load(Ordering::Relaxed),
                    executions: w.executions.load(Ordering::Relaxed),
                    donations: w.donations.load(Ordering::Relaxed),
                })
                .collect(),
            eta_seconds: self.eta_seconds(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::Arc;

    use crate::cache::{Certification, ExplorationCache};
    use crate::coverage::StateSink;
    use crate::program::{ControlledProgram, Scheduler};
    use crate::search::testprog::Counters;
    use crate::search::{BoundStats, Search, SearchConfig, SearchError, Strategy};
    use crate::snapshot::{Checkpointer, SearchSnapshot};
    use crate::telemetry::SearchObserver;
    use crate::tid::Tid;
    use crate::trace::ExecutionResult;

    #[test]
    fn executions_advance_by_fetch_max() {
        let r = MetricsRegistry::new();
        let stats = ExecStats {
            steps: 7,
            ..ExecStats::default()
        };
        r.record_execution(3, &stats, &ExecutionOutcome::Terminated, 10);
        r.record_execution(1, &stats, &ExecutionOutcome::Terminated, 4);
        assert_eq!(r.executions(), 3, "stale index must not regress");
        assert_eq!(r.distinct_states(), 10);
        let (buckets, sum, count) = r.step_histogram();
        assert_eq!(sum, 14);
        assert_eq!(count, 2);
        assert_eq!(buckets[3], 2, "7 has bit length 3");
    }

    #[test]
    fn bound_executions_derive_from_the_bound_base() {
        let r = MetricsRegistry::new();
        let stats = ExecStats::default();
        r.record_execution(5, &stats, &ExecutionOutcome::Terminated, 1);
        r.record_bound_started(2);
        assert_eq!(r.current_bound(), Some(2));
        assert_eq!(r.bound_executions(), 0);
        r.record_execution(9, &stats, &ExecutionOutcome::Terminated, 2);
        assert_eq!(r.bound_executions(), 4);
    }

    #[test]
    fn resume_seeds_counters_and_rate_base() {
        let r = MetricsRegistry::new();
        r.record_resume(&ResumeInfo {
            executions: 100,
            distinct_states: 40,
            bound: 2,
            bound_executions: 10,
        });
        assert_eq!(r.executions(), 100);
        assert_eq!(r.resumed_base(), 100);
        assert_eq!(r.current_bound(), Some(2));
        assert_eq!(r.bound_executions(), 10);
    }

    #[test]
    fn concurrent_updates_from_eight_threads_lose_nothing() {
        const THREADS: usize = 8;
        const PER_THREAD: usize = 10_000;
        let r = Arc::new(MetricsRegistry::new());
        std::thread::scope(|s| {
            for worker in 0..THREADS {
                let r = Arc::clone(&r);
                s.spawn(move || {
                    let stats = ExecStats {
                        steps: worker + 1,
                        ..ExecStats::default()
                    };
                    for i in 0..PER_THREAD {
                        r.record_execution(
                            worker * PER_THREAD + i + 1,
                            &stats,
                            &ExecutionOutcome::Terminated,
                            i,
                        );
                        r.worker_execution(worker);
                        r.worker_busy(worker, Duration::from_nanos(10));
                        r.frontier_lock_op();
                        r.steal_donation(2);
                        r.cache_table_probe(worker, i % 2 == 0);
                    }
                });
            }
        });
        let snap = r.snapshot();
        // fetch_max: the largest index wins.
        assert_eq!(snap.executions, (THREADS * PER_THREAD) as u64);
        assert_eq!(snap.frontier_lock_ops, (THREADS * PER_THREAD) as u64);
        assert_eq!(snap.steal_donations, (THREADS * PER_THREAD) as u64);
        assert_eq!(snap.steal_donated_items, 2 * (THREADS * PER_THREAD) as u64);
        let (probes, hits) = r.cache_table_counters();
        assert_eq!(probes, (THREADS * PER_THREAD) as u64);
        assert_eq!(hits, (THREADS * PER_THREAD / 2) as u64);
        let (_, _, count) = r.step_histogram();
        assert_eq!(count, (THREADS * PER_THREAD) as u64);
        r.set_workers(THREADS);
        let snap = r.snapshot();
        assert_eq!(snap.workers.len(), THREADS);
        for w in &snap.workers {
            assert_eq!(w.executions, PER_THREAD as u64);
            assert_eq!(w.busy_ns, 10 * PER_THREAD as u64);
            assert_eq!(w.utilization(), Some(1.0));
        }
    }

    #[test]
    fn eta_requires_parameters_bound_and_rate() {
        let r = MetricsRegistry::new();
        assert_eq!(r.eta_seconds(), None, "no theorem-1 parameters");
        r.set_theorem1(2, 1);
        assert_eq!(r.eta_seconds(), None, "no active bound");
        r.record_bound_started(0);
        assert_eq!(r.eta_seconds(), None, "search not started");
        r.mark_started();
        assert_eq!(r.eta_seconds(), None, "no executions yet");
        std::thread::sleep(Duration::from_millis(2));
        let stats = ExecStats {
            steps: 4,
            ..ExecStats::default()
        };
        r.record_execution(1, &stats, &ExecutionOutcome::Terminated, 1);
        let eta = r.eta_seconds().expect("eta computable");
        assert!(eta >= 0.0 && eta.is_finite(), "eta {eta}");
    }

    #[test]
    fn eta_clamps_at_zero_once_a_bound_overruns_its_ceiling() {
        let r = MetricsRegistry::new();
        r.set_theorem1(2, 1);
        r.mark_started();
        r.record_bound_started(0);
        std::thread::sleep(Duration::from_millis(2));
        let stats = ExecStats {
            steps: 4,
            ..ExecStats::default()
        };
        for i in 1..=50 {
            r.record_execution(i, &stats, &ExecutionOutcome::Terminated, i);
        }
        assert_eq!(r.eta_seconds(), Some(0.0));
    }

    /// Records the order of the events a snapshot must follow or
    /// precede, as `B`(ound completed), `C`(heckpoint), `S`(napshot)
    /// and `F`(inished), and the last snapshot.
    #[derive(Default)]
    struct Cadence {
        events: String,
        last: Option<MetricsSnapshot>,
    }

    impl SearchObserver for Cadence {
        fn bound_completed(&mut self, _stats: &BoundStats, _wall_time: Duration) {
            self.events.push('B');
        }
        fn checkpoint_written(&mut self, _executions: usize) {
            self.events.push('C');
        }
        fn metrics_snapshot(&mut self, snapshot: &MetricsSnapshot) {
            self.events.push('S');
            self.last = Some(snapshot.clone());
        }
        fn search_finished(&mut self, _report: &SearchReport) {
            self.events.push('F');
        }
    }

    /// An in-memory fingerprint cache that keeps its certifications.
    #[derive(Default)]
    struct MemCache {
        seen: Mutex<HashMap<(u64, Tid), u32>>,
        certs: Mutex<Vec<Certification>>,
    }

    impl ExplorationCache for MemCache {
        fn probe(&self, state: u64, choice: Tid, credit: u32) -> bool {
            let mut seen = self.seen.lock().unwrap();
            if seen
                .get(&(state, choice))
                .is_some_and(|&have| have >= credit)
            {
                return true;
            }
            seen.insert((state, choice), credit);
            false
        }
        fn find_certification(
            &self,
            strategy: &str,
            target: Option<usize>,
            fault_target: usize,
        ) -> Option<Certification> {
            let certs = self.certs.lock().unwrap();
            certs
                .iter()
                .find(|c| c.covers(strategy, target, fault_target))
                .cloned()
        }
        fn certify(&self, certification: Certification) {
            self.certs.lock().unwrap().push(certification);
        }
    }

    /// A program whose fingerprints are exact, so a clean run certifies.
    struct Exact(Counters);

    impl ControlledProgram for Exact {
        fn execute(
            &self,
            scheduler: &mut dyn Scheduler,
            sink: &mut dyn StateSink,
        ) -> ExecutionResult {
            self.0.execute(scheduler, sink)
        }
        fn fingerprints_are_exact(&self) -> bool {
            true
        }
    }

    /// Runs a search (`run` attaches the observer and registry it is
    /// given) and checks the registry against the report and the
    /// snapshot cadence; returns the event letters.
    fn assert_registry_matches(
        what: &str,
        run: impl FnOnce(&mut Cadence, Arc<MetricsRegistry>) -> Result<SearchReport, SearchError>,
    ) -> String {
        let registry = Arc::new(MetricsRegistry::new());
        let mut cadence = Cadence::default();
        let report = run(&mut cadence, Arc::clone(&registry)).unwrap();
        let checkpoints = cadence.events.matches('C').count();
        let expected: String = cadence
            .events
            .chars()
            .filter(|&e| e != 'S')
            .flat_map(|e| match e {
                'F' => vec!['S', 'F'],
                e => vec![e, 'S'],
            })
            .collect();
        assert_eq!(cadence.events, expected, "{what}: snapshot cadence");
        let snap = registry.snapshot();
        let cache = report.cache.clone().unwrap_or_default();
        assert_eq!(snap.executions, report.executions as u64, "{what}");
        assert_eq!(
            snap.distinct_states, report.distinct_states as u64,
            "{what}"
        );
        assert_eq!(
            snap.buggy_executions, report.buggy_executions as u64,
            "{what}"
        );
        assert_eq!(snap.quarantined, report.quarantined_total as u64, "{what}");
        assert_eq!(snap.cache_hits, cache.hits as u64, "{what}");
        assert_eq!(snap.cache_stores, cache.stores as u64, "{what}");
        assert_eq!(snap.checkpoints, checkpoints as u64, "{what}");
        let last = cadence.last.expect("a final snapshot");
        assert_eq!(last.executions, snap.executions, "{what}");
        assert_eq!(last.distinct_states, snap.distinct_states, "{what}");
        cadence.events
    }

    #[test]
    fn the_registry_counts_what_the_report_does() {
        let buggy = Counters {
            n: 3,
            k: 2,
            bug: Some((1, 1, 3)),
        };
        let clean = Counters {
            n: 2,
            k: 3,
            bug: None,
        };
        let dir = std::env::temp_dir().join(format!("icb-metrics-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = |name: &str| Checkpointer::new(dir.join(name), 3);
        for jobs in [1, 2] {
            for strategy in [Strategy::Icb, Strategy::Dfs, Strategy::Random { seed: 5 }] {
                let config = SearchConfig {
                    max_executions: Some(40),
                    ..SearchConfig::default()
                };
                let what = format!("{strategy:?} jobs {jobs}");
                let events = assert_registry_matches(&what, |o, r| {
                    Search::over(&buggy)
                        .strategy(strategy)
                        .config(config)
                        .jobs(jobs)
                        .checkpoint(ckpt("run.ckpt"))
                        .observer(o)
                        .metrics(r)
                        .run()
                });
                assert!(events.contains('C'), "{what}: {events}");
                if strategy == Strategy::Icb {
                    assert!(events.contains('B'), "{what}: {events}");
                }
            }
            let cache = MemCache::default();
            let exact = Exact(Counters {
                n: 2,
                k: 3,
                bug: None,
            });
            let cached = |o: &mut Cadence, r| {
                Search::over(&exact)
                    .jobs(jobs)
                    .cache(&cache)
                    .observer(o)
                    .metrics(r)
                    .run()
            };
            assert_registry_matches(&format!("cached icb jobs {jobs}"), cached);
            // The clean run certified the program: the same search is
            // now answered from the certification without running.
            let events = assert_registry_matches(&format!("certified jobs {jobs}"), cached);
            assert_eq!(events, "SF", "no bound runs, no checkpoint is written");

            let live = dir.join("resume.ckpt");
            Search::over(&clean)
                .config(SearchConfig::with_max_executions(7))
                .checkpoint(Checkpointer::new(&live, 3))
                .run()
                .unwrap();
            let snapshot = SearchSnapshot::read_from(&live).unwrap();
            assert_registry_matches(&format!("resumed jobs {jobs}"), |o, r| {
                Search::over(&clean)
                    .resume_from(snapshot)
                    .jobs(jobs)
                    .checkpoint(Checkpointer::new(&live, 3))
                    .observer(o)
                    .metrics(r)
                    .run()
            });
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
