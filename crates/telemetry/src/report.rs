//! Paper-style run reports: the JSONL fold and text/Markdown rendering.
//!
//! A [`RunReport`] is the plain-data summary of one search run — totals,
//! per-bound rows (the shape of the paper's Figure 7), per-site
//! preemption attribution, and wall-clock phase totals. It is built one
//! way only: a [`ReportBuilder`] folds the JSONL event stream written by
//! [`JsonlSink`](crate::JsonlSink).
//!
//! * After the fact, [`RunReport::from_jsonl`] feeds a recorded log to
//!   the builder — including logs of runs that were aborted or killed
//!   mid-search.
//! * Live, `JsonlSink::new(ReportBuilder::new()).with_profile_events(true)`
//!   attached to the search folds the same lines as they are written, so
//!   `explore run --profile` prints exactly what `explore report` prints
//!   for the same run's log.
//!
//! [`render_text`] and [`render_markdown`] turn one or more reports into
//! the tables `explore report` prints; multiple reports additionally get
//! a strategy-comparison table (the shape of Figure 8).

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::time::Duration;

/// One preemption bound's results — the row shape of the paper's
/// Figure 7 (executions, cumulative distinct states, bugs per bound).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BoundRow {
    /// The preemption bound.
    pub bound: usize,
    /// Executions explored at this bound.
    pub executions: usize,
    /// Cumulative distinct states after completing this bound.
    pub cumulative_states: usize,
    /// Bugs first observed at this bound.
    pub bugs_found: usize,
    /// Wall time spent inside the bound, when recorded.
    pub wall_time: Option<Duration>,
}

/// Exploration counters attributed to one program site.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SiteRow {
    /// The site's display label (see [`icb_core::SiteId`]).
    pub site: String,
    /// Scheduling choices that executed an operation of this site.
    pub choices: usize,
    /// Executions in which the site appeared at least once.
    pub executions: usize,
    /// Preemptions that interrupted an operation of this site.
    pub preemptions: usize,
    /// Faults injected at an operation of this site.
    pub faults: usize,
    /// Distinct states newly discovered by executions that preempted
    /// this site (each such execution's coverage delta is credited to
    /// every site it preempted).
    pub states_unlocked: usize,
}

/// Wall-clock totals by search phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseTotals {
    /// Re-executing the program (the stateless checker's dominant cost).
    pub replay: Duration,
    /// Inside the strategy's `Scheduler::pick`.
    pub selection: Duration,
    /// Inside the happens-before race detector.
    pub race_detection: Duration,
}

impl PhaseTotals {
    /// Sum of the three phases.
    pub fn sum(&self) -> Duration {
        self.replay + self.selection + self.race_detection
    }
}

/// One point of the throughput-over-time series, taken from a
/// `metrics-snapshot` event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ThroughputSample {
    /// Wall time into the run (segment-local in a raw report; offset to
    /// chain time by [`RunReport::stitch`]).
    pub elapsed: Duration,
    /// Cumulative executions at that instant.
    pub executions: usize,
}

/// One worker's cumulative busy/idle split, from the last
/// `metrics-snapshot` of a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkerUtilRow {
    /// Worker index (0-based).
    pub worker: usize,
    /// Time spent executing schedules.
    pub busy: Duration,
    /// Time spent waiting for work.
    pub idle: Duration,
    /// Executions completed by this worker.
    pub executions: usize,
}

impl WorkerUtilRow {
    /// busy / (busy + idle), `None` before the worker did anything.
    pub fn utilization(&self) -> Option<f64> {
        let total = self.busy + self.idle;
        if total.is_zero() {
            None
        } else {
            Some(self.busy.as_secs_f64() / total.as_secs_f64())
        }
    }
}

/// Everything `explore report` knows about one run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Strategy label (`icb`, `dfs`, `db:40`, …).
    pub strategy: String,
    /// Total executions performed.
    pub executions: usize,
    /// Distinct state fingerprints visited.
    pub distinct_states: usize,
    /// Executions that ended in a bug.
    pub buggy_executions: usize,
    /// Bug reports recorded (capped by the search config).
    pub bugs_reported: usize,
    /// Whether the schedule space was exhausted within the limits.
    pub completed: bool,
    /// Whether work was dropped (queue cap) — coverage is a lower bound.
    pub truncated: bool,
    /// Why the search stopped early, if it did.
    pub aborted: Option<String>,
    /// Total search wall time, when recorded.
    pub elapsed: Option<Duration>,
    /// Per-bound rows (ICB only; empty for other strategies).
    pub bounds: Vec<BoundRow>,
    /// Per-site attribution, hottest (most preempted) first.
    pub sites: Vec<SiteRow>,
    /// Wall-clock phase totals (all zero when profiling was off).
    pub phases: PhaseTotals,
    /// Schedule prefixes quarantined in this segment after replay
    /// diverged (infrastructure failures, not program bugs).
    pub quarantined: usize,
    /// Executions abandoned by the per-execution wall-clock watchdog.
    pub watchdog_trips: usize,
    /// Checkpoints durably written during this segment.
    pub checkpoints: usize,
    /// Cumulative executions inherited from a checkpoint, when this
    /// segment started with `explore resume`.
    pub resumed_from: Option<usize>,
    /// Work items pruned by the fingerprint cache.
    pub cache_hits: usize,
    /// New subtree entries the fingerprint cache recorded.
    pub cache_stores: usize,
    /// Whether cache pruning used heuristic fingerprints — coverage is
    /// then a lower bound, not an exhaustiveness claim.
    pub cache_heuristic: bool,
    /// Whether the certification ledger answered the run without
    /// executing anything.
    pub cache_certified: bool,
    /// Throughput-over-time samples from `metrics-snapshot` events
    /// (empty when the run had no metrics registry attached).
    pub throughput: Vec<ThroughputSample>,
    /// Per-worker busy/idle split from the run's last `metrics-snapshot`.
    pub worker_utilization: Vec<WorkerUtilRow>,
}

/// Incremental per-site attribution, keyed by the site's display
/// string (see [`icb_core::SiteId`]).
#[derive(Clone, Debug, Default)]
struct Attribution {
    sites: BTreeMap<String, SiteRow>,
    exec_sites: BTreeSet<String>,
    exec_preemptions: Vec<String>,
    last_states: usize,
}

impl Attribution {
    /// The row of `site`, registered on first sight.
    fn row(&mut self, site: &str) -> &mut SiteRow {
        self.sites
            .entry(site.to_owned())
            .or_insert_with(|| SiteRow {
                site: site.to_owned(),
                ..SiteRow::default()
            })
    }

    /// A scheduling choice executed an operation of `site`.
    fn choice(&mut self, site: &str) {
        self.row(site).choices += 1;
        self.exec_sites.insert(site.to_owned());
    }

    /// A preemption interrupted an operation of `site`.
    fn preemption(&mut self, site: &str) {
        self.row(site).preemptions += 1;
        self.exec_preemptions.push(site.to_owned());
    }

    /// A fault was injected at an operation of `site`.
    fn fault(&mut self, site: &str) {
        self.row(site).faults += 1;
        self.exec_sites.insert(site.to_owned());
    }

    /// Closes the current execution: attributes it to every site it
    /// touched, and credits its coverage delta to the sites it preempted.
    fn execution_finished(&mut self, distinct_states: usize) {
        let delta = distinct_states.saturating_sub(self.last_states);
        self.last_states = distinct_states;
        for site in std::mem::take(&mut self.exec_sites) {
            self.sites
                .get_mut(&site)
                .expect("touched site is registered")
                .executions += 1;
        }
        for site in std::mem::take(&mut self.exec_preemptions) {
            self.sites
                .get_mut(&site)
                .expect("preempted site is registered")
                .states_unlocked += delta;
        }
    }

    /// All sites as rows, hottest first.
    fn rows(self) -> Vec<SiteRow> {
        let mut rows: Vec<SiteRow> = self.sites.into_values().collect();
        sort_hottest_first(&mut rows);
        rows
    }
}

/// Orders site rows hottest first: most preempted, then most faulted,
/// then most chosen, ties broken by the site label.
fn sort_hottest_first(rows: &mut [SiteRow]) {
    rows.sort_by(|a, b| {
        b.preemptions
            .cmp(&a.preemptions)
            .then(b.faults.cmp(&a.faults))
            .then(b.choices.cmp(&a.choices))
            .then(a.site.cmp(&b.site))
    });
}

// ---------------------------------------------------------------------
// The JSONL fold
// ---------------------------------------------------------------------

/// The raw value of the top-level `"key":` of a flat JSON object line —
/// the only shape the JSONL sink writes: string, number, `true`,
/// `false`, `null` and flat-array values.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let mut rest = line.strip_prefix('{')?;
    loop {
        let (name, after) = rest.strip_prefix('"')?.split_once('"')?;
        let value = after.strip_prefix(':')?;
        let len = value_len(value);
        if name == key {
            return Some(&value[..len]);
        }
        rest = value[len..].strip_prefix(',')?;
    }
}

/// The length of the JSON value that `s` starts with (all of `s` when
/// the line is torn inside it).
fn value_len(s: &str) -> usize {
    let bytes = s.as_bytes();
    match bytes.first() {
        Some(b'"') => {
            let mut i = 1;
            while i < bytes.len() {
                match bytes[i] {
                    b'\\' => i += 2,
                    b'"' => return i + 1,
                    _ => i += 1,
                }
            }
            s.len()
        }
        Some(b'[') => s.find(']').map_or(s.len(), |i| i + 1),
        _ => s.find([',', '}']).unwrap_or(s.len()),
    }
}

/// The unescaped value of `"key":` when it is a string literal; borrows
/// from `line` unless the value has escapes.
fn field_str<'a>(line: &'a str, key: &str) -> Option<Cow<'a, str>> {
    let body = field(line, key)?.strip_prefix('"')?.strip_suffix('"')?;
    if !body.contains('\\') {
        return Some(Cow::Borrowed(body));
    }
    let mut out = String::new();
    let mut chars = body.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let code = u32::from_str_radix(&hex, 16).ok()?;
                    out.push(char::from_u32(code)?);
                }
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
    Some(Cow::Owned(out))
}

/// The value of `"key":` when it is an unsigned integer.
fn field_usize(line: &str, key: &str) -> Option<usize> {
    field(line, key)?.parse().ok()
}

/// The value of `"key":`, an integer count of nanoseconds, as a duration.
fn field_nanos(line: &str, key: &str) -> Option<Duration> {
    field(line, key)?.parse().ok().map(Duration::from_nanos)
}

/// The value of `"key":` when it is a flat array of unsigned integers
/// (`"key":[1,2,3]`).
fn field_u64_array(line: &str, key: &str) -> Option<Vec<u64>> {
    let body = field(line, key)?.strip_prefix('[')?.strip_suffix(']')?;
    if body.trim().is_empty() {
        return Some(Vec::new());
    }
    body.split(',').map(|v| v.trim().parse().ok()).collect()
}

fn field_bool(line: &str, key: &str) -> Option<bool> {
    field(line, key)?.parse().ok()
}

/// Folds the JSONL event log written by [`JsonlSink`](crate::JsonlSink)
/// into a [`RunReport`], one line at a time.
///
/// Write the log into the builder — it implements [`io::Write`],
/// buffering bytes up to each `\n` — and call
/// [`finish`](ReportBuilder::finish). Lines that are not recognized
/// events are skipped. Wrapped in a sink, it folds a live search:
///
/// ```
/// use icb_core::search::Search;
/// use icb_telemetry::{JsonlSink, ReportBuilder};
/// # use icb_workloads::bluetooth::{bluetooth_model, BluetoothVariant};
/// # let program = bluetooth_model(BluetoothVariant::Fixed, 2);
/// let mut sink = JsonlSink::new(ReportBuilder::new()).with_profile_events(true);
/// let report = Search::over(&program).observer(&mut sink).run().unwrap();
/// let run = sink.into_inner().finish().unwrap();
/// assert_eq!(run.executions, report.executions);
/// ```
#[derive(Debug, Default)]
pub struct ReportBuilder {
    report: RunReport,
    attribution: Attribution,
    started: bool,
    finished: bool,
    /// Bytes of the current line not yet ended by a `\n`.
    partial: Vec<u8>,
}

impl ReportBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        ReportBuilder::default()
    }

    /// Finishes the fold.
    ///
    /// A log that does not end in `\n` (a killed run's) has its last
    /// partial line folded too, as [`str::lines`] would yield it. Totals
    /// of a log cut short fall back to the per-execution events seen.
    ///
    /// # Errors
    ///
    /// Returns an error when the log contains no `search-started` event
    /// — i.e. it is not a JSONL telemetry log at all.
    pub fn finish(mut self) -> Result<RunReport, String> {
        let partial = std::mem::take(&mut self.partial);
        if !partial.is_empty() {
            self.fold(&partial);
        }
        if !self.started {
            return Err("not a telemetry log: no search-started event".to_string());
        }
        let mut report = self.report;
        if !self.finished && report.aborted.is_none() {
            report.aborted = Some("log ends mid-run".to_string());
        }
        report.sites = self.attribution.rows();
        Ok(report)
    }

    /// Folds one line (without its `\n`) into the report.
    fn fold(&mut self, line: &[u8]) {
        let line = String::from_utf8_lossy(line);
        let Some(event) = field_str(&line, "event") else {
            return;
        };
        let report = &mut self.report;
        match event.as_ref() {
            "search-started" => {
                self.started = true;
                if let Some(s) = field_str(&line, "strategy") {
                    report.strategy = s.into_owned();
                }
            }
            "execution-finished" => {
                if let Some(i) = field_usize(&line, "index") {
                    report.executions = report.executions.max(i);
                }
                let states = field_usize(&line, "distinct_states").unwrap_or(0);
                report.distinct_states = report.distinct_states.max(states);
                if let Some(outcome) = field_str(&line, "outcome") {
                    match outcome.as_ref() {
                        // Non-bug outcomes: normal termination, the
                        // livelock guards, and infrastructure failures
                        // (divergence is quarantined, not reported as a
                        // program bug).
                        "terminated" | "step-limit-exceeded" | "replay-divergence" => {}
                        "watchdog-timeout" => report.watchdog_trips += 1,
                        _ => report.buggy_executions += 1,
                    }
                }
                self.attribution.execution_finished(states);
            }
            "trace-quarantined" => {
                report.quarantined += 1;
            }
            "checkpoint-written" => {
                report.checkpoints += 1;
            }
            "search-resumed" => {
                report.resumed_from = field_usize(&line, "executions");
            }
            "choice-point" => {
                if let Some(site) = field_str(&line, "site") {
                    self.attribution.choice(&site);
                }
            }
            "preemption-taken" => {
                if let Some(site) = field_str(&line, "site") {
                    self.attribution.preemption(&site);
                }
            }
            "fault-injected" => {
                if let Some(site) = field_str(&line, "site") {
                    self.attribution.fault(&site);
                }
            }
            "phase-time" => {
                if let (Some(phase), Some(elapsed)) =
                    (field_str(&line, "phase"), field_nanos(&line, "elapsed_ns"))
                {
                    match phase.as_ref() {
                        "replay" => report.phases.replay += elapsed,
                        "selection" => report.phases.selection += elapsed,
                        "race-detection" => report.phases.race_detection += elapsed,
                        _ => {}
                    }
                }
            }
            "bound-completed" => {
                report.bounds.push(BoundRow {
                    bound: field_usize(&line, "bound").unwrap_or(0),
                    executions: field_usize(&line, "executions").unwrap_or(0),
                    cumulative_states: field_usize(&line, "cumulative_states").unwrap_or(0),
                    bugs_found: field_usize(&line, "bugs_found").unwrap_or(0),
                    wall_time: field_nanos(&line, "wall_time_ns"),
                });
            }
            "cache-hit" => {
                report.cache_hits += field_usize(&line, "count").unwrap_or(0);
            }
            "cache-store" => {
                report.cache_stores += field_usize(&line, "count").unwrap_or(0);
            }
            "bound-certified" => {
                report.cache_certified = true;
            }
            "metrics-snapshot" => {
                if let (Some(elapsed), Some(executions)) = (
                    field_nanos(&line, "elapsed_ns"),
                    field_usize(&line, "executions"),
                ) {
                    report.throughput.push(ThroughputSample {
                        elapsed,
                        executions,
                    });
                }
                if let (Some(busy), Some(idle), Some(execs)) = (
                    field_u64_array(&line, "worker_busy_ns"),
                    field_u64_array(&line, "worker_idle_ns"),
                    field_u64_array(&line, "worker_executions"),
                ) {
                    // Keep-last: cumulative counters make the final
                    // snapshot the authoritative per-worker split.
                    report.worker_utilization = busy
                        .iter()
                        .zip(&idle)
                        .zip(&execs)
                        .enumerate()
                        .map(|(worker, ((&b, &i), &e))| WorkerUtilRow {
                            worker,
                            busy: Duration::from_nanos(b),
                            idle: Duration::from_nanos(i),
                            executions: e as usize,
                        })
                        .collect();
                }
            }
            "search-aborted" => {
                report.aborted = field_str(&line, "reason").map(Cow::into_owned);
            }
            "search-finished" => {
                self.finished = true;
                // The final report's totals are authoritative over the
                // per-event tallies (a log cut mid-run keeps the tallies
                // instead).
                for (key, total) in [
                    ("executions", &mut report.executions),
                    ("distinct_states", &mut report.distinct_states),
                    ("buggy_executions", &mut report.buggy_executions),
                    ("bugs_reported", &mut report.bugs_reported),
                    ("cache_hits", &mut report.cache_hits),
                    ("cache_stores", &mut report.cache_stores),
                ] {
                    if let Some(v) = field_usize(&line, key) {
                        *total = v;
                    }
                }
                report.completed = field_bool(&line, "completed").unwrap_or(false);
                report.truncated = field_bool(&line, "truncated").unwrap_or(false);
                if let Some(v) = field_bool(&line, "cache_heuristic") {
                    report.cache_heuristic = v;
                }
                if let Some(v) = field_bool(&line, "cache_certified") {
                    report.cache_certified = report.cache_certified || v;
                }
                report.elapsed = field_nanos(&line, "elapsed_ns");
            }
            _ => {}
        }
    }
}

impl io::Write for ReportBuilder {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut rest = buf;
        while let Some(end) = rest.iter().position(|&b| b == b'\n') {
            let mut line = std::mem::take(&mut self.partial);
            line.extend_from_slice(&rest[..end]);
            // `str::lines` drops the `\r` of a `\r\n` ending.
            self.fold(line.strip_suffix(b"\r").unwrap_or(&line));
            line.clear();
            self.partial = line;
            rest = &rest[end + 1..];
        }
        self.partial.extend_from_slice(rest);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl RunReport {
    /// Reconstructs a run from the JSONL event log written by
    /// [`JsonlSink`](crate::JsonlSink): feeds `text` to a
    /// [`ReportBuilder`].
    ///
    /// Works on complete logs and on logs cut short by an abort or a
    /// killed process: totals then fall back to the per-execution events
    /// seen so far.
    ///
    /// # Errors
    ///
    /// Returns an error when the text contains no `search-started` event
    /// — i.e. it is not a JSONL telemetry log at all.
    pub fn from_jsonl(text: &str) -> Result<RunReport, String> {
        let mut builder = ReportBuilder::new();
        io::Write::write_all(&mut builder, text.as_bytes()).expect("the fold never fails");
        builder.finish()
    }

    /// Merges the reports of consecutive segments of one
    /// checkpoint/resume chain into a single logical run.
    ///
    /// Pass segments oldest-first (`explore run --checkpoint` first,
    /// each `explore resume` after it). Cumulative quantities
    /// (executions, states, bug counts, per-bound rows) come from the
    /// latest segment that reports them — a resumed search's counters
    /// already include everything inherited through the checkpoint, so
    /// per-bound rows merge keep-last per bound. Per-segment quantities
    /// (phase times, site attribution, checkpoints, quarantined
    /// prefixes, watchdog trips, wall time) are summed.
    ///
    /// Returns `None` for an empty slice.
    pub fn stitch(segments: &[RunReport]) -> Option<RunReport> {
        // Per-segment quantities start from zero and are summed below.
        let mut out = RunReport {
            bounds: Vec::new(),
            sites: Vec::new(),
            phases: PhaseTotals::default(),
            elapsed: None,
            quarantined: 0,
            watchdog_trips: 0,
            checkpoints: 0,
            cache_hits: 0,
            cache_stores: 0,
            cache_heuristic: false,
            throughput: Vec::new(),
            // The stitched run starts where the *first* segment did.
            resumed_from: segments.first()?.resumed_from,
            ..segments.last()?.clone()
        };
        let mut bounds: BTreeMap<usize, BoundRow> = BTreeMap::new();
        let mut sites: BTreeMap<&str, SiteRow> = BTreeMap::new();
        let mut offset = Duration::ZERO;
        for seg in segments {
            bounds.extend(seg.bounds.iter().map(|row| (row.bound, row.clone())));
            for site in &seg.sites {
                let entry = sites.entry(&site.site).or_insert_with(|| SiteRow {
                    site: site.site.clone(),
                    ..SiteRow::default()
                });
                entry.choices += site.choices;
                entry.executions += site.executions;
                entry.preemptions += site.preemptions;
                entry.faults += site.faults;
                entry.states_unlocked += site.states_unlocked;
            }
            out.phases.replay += seg.phases.replay;
            out.phases.selection += seg.phases.selection;
            out.phases.race_detection += seg.phases.race_detection;
            if let Some(e) = seg.elapsed {
                out.elapsed = Some(out.elapsed.unwrap_or_default() + e);
            }
            out.quarantined += seg.quarantined;
            out.watchdog_trips += seg.watchdog_trips;
            out.checkpoints += seg.checkpoints;
            out.cache_hits += seg.cache_hits;
            out.cache_stores += seg.cache_stores;
            out.cache_heuristic |= seg.cache_heuristic;
            // Snapshot timestamps are segment-local: offset each segment
            // by the chain's wall time so far, so the stitched series is
            // monotone in chain time.
            out.throughput
                .extend(seg.throughput.iter().map(|sample| ThroughputSample {
                    elapsed: offset + sample.elapsed,
                    executions: sample.executions,
                }));
            if !seg.worker_utilization.is_empty() {
                out.worker_utilization = seg.worker_utilization.clone();
            }
            offset += seg
                .elapsed
                .or_else(|| seg.throughput.last().map(|s| s.elapsed))
                .unwrap_or_default();
        }
        out.bounds = bounds.into_values().collect();
        out.sites = sites.into_values().collect();
        sort_hottest_first(&mut out.sites);
        Some(out)
    }
}

// ---------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------

struct Table {
    header: Vec<&'static str>,
    rows: Vec<Vec<String>>,
}

impl Table {
    fn new(header: Vec<&'static str>) -> Self {
        Table {
            header,
            rows: Vec::new(),
        }
    }

    fn row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
    }

    fn render(&self, out: &mut String, markdown: bool) {
        if markdown {
            out.push('|');
            for h in &self.header {
                out.push_str(&format!(" {h} |"));
            }
            out.push_str("\n|");
            for _ in &self.header {
                out.push_str("---|");
            }
            out.push('\n');
            for row in &self.rows {
                out.push('|');
                for cell in row {
                    out.push_str(&format!(" {cell} |"));
                }
                out.push('\n');
            }
            return;
        }
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        for (i, h) in self.header.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(&format!("{h:<w$}", w = widths[i]));
        }
        out.push('\n');
        for (i, w) in widths.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(&"-".repeat(*w));
        }
        out.push('\n');
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                // First column (labels) left-aligned, numbers right.
                if i == 0 {
                    out.push_str(&format!("{cell:<w$}", w = widths[i]));
                } else {
                    out.push_str(&format!("{cell:>w$}", w = widths[i]));
                }
            }
            out.push('\n');
        }
    }
}

fn heading(out: &mut String, text: &str, markdown: bool) {
    if markdown {
        out.push_str(&format!("## {text}\n\n"));
    } else {
        out.push_str(&format!("{text}\n"));
        out.push_str(&format!("{}\n", "=".repeat(text.len())));
    }
}

fn secs(d: Duration) -> String {
    format!("{:.3}s", d.as_secs_f64())
}

fn render(runs: &[RunReport], top: usize, markdown: bool) -> String {
    let mut out = String::new();
    if runs.len() > 1 {
        heading(&mut out, "Strategy comparison", markdown);
        let mut t = Table::new(vec![
            "strategy",
            "executions",
            "distinct states",
            "buggy execs",
            "completed",
        ]);
        for run in runs {
            t.row(vec![
                run.strategy.clone(),
                run.executions.to_string(),
                run.distinct_states.to_string(),
                run.buggy_executions.to_string(),
                run.completed.to_string(),
            ]);
        }
        t.render(&mut out, markdown);
        out.push('\n');
    }
    for run in runs {
        heading(&mut out, &format!("Run: {}", run.strategy), markdown);
        let mut summary = format!(
            "{} executions, {} distinct states, {} buggy",
            run.executions, run.distinct_states, run.buggy_executions
        );
        if run.completed {
            summary.push_str(", space exhausted");
        }
        if run.truncated {
            summary.push_str(", TRUNCATED");
        }
        if let Some(base) = run.resumed_from {
            summary.push_str(&format!(", resumed from {base} execs"));
        }
        if run.checkpoints > 0 {
            summary.push_str(&format!(", {} checkpoints", run.checkpoints));
        }
        if run.quarantined > 0 {
            summary.push_str(&format!(
                ", {} quarantined (space forfeited)",
                run.quarantined
            ));
        }
        if run.watchdog_trips > 0 {
            summary.push_str(&format!(", {} watchdog trips", run.watchdog_trips));
        }
        if run.cache_certified {
            summary.push_str(", CERTIFIED (answered from cache ledger)");
        }
        if run.cache_hits > 0 || run.cache_stores > 0 {
            let rate = 100.0 * run.cache_hits as f64 / (run.cache_hits + run.cache_stores) as f64;
            summary.push_str(&format!(
                ", cache: {} hits / {} stores ({rate:.1}% hit rate)",
                run.cache_hits, run.cache_stores
            ));
        }
        if run.cache_heuristic {
            summary.push_str(", HEURISTIC fingerprints (non-exhaustive)");
        }
        if let Some(elapsed) = run.elapsed {
            summary.push_str(&format!(", {}", secs(elapsed)));
        }
        if let Some(reason) = &run.aborted {
            summary.push_str(&format!(" (stopped: {reason})"));
        }
        out.push_str(&summary);
        out.push_str("\n\n");

        if !run.bounds.is_empty() {
            heading(&mut out, "Per-bound results", markdown);
            let mut t = Table::new(vec![
                "bound",
                "executions",
                "cumulative states",
                "bugs",
                "wall time",
            ]);
            for row in &run.bounds {
                t.row(vec![
                    row.bound.to_string(),
                    row.executions.to_string(),
                    row.cumulative_states.to_string(),
                    row.bugs_found.to_string(),
                    row.wall_time.map_or("-".to_string(), secs),
                ]);
            }
            t.render(&mut out, markdown);
            out.push('\n');
        }

        let hot: Vec<&SiteRow> = run
            .sites
            .iter()
            .filter(|s| s.preemptions > 0 || s.faults > 0)
            .take(top)
            .collect();
        if !hot.is_empty() {
            heading(
                &mut out,
                &format!("Hottest preemption sites (top {})", hot.len()),
                markdown,
            );
            // The faults column only appears when a fault-bound run
            // actually injected faults, so fault-free reports render
            // exactly as they did before fault bounding existed.
            let faulted = hot.iter().any(|s| s.faults > 0);
            let mut headers = vec!["site", "preemptions"];
            if faulted {
                headers.push("faults");
            }
            headers.extend(["choice points", "executions", "states unlocked"]);
            let mut t = Table::new(headers);
            for s in hot {
                let mut row = vec![s.site.clone(), s.preemptions.to_string()];
                if faulted {
                    row.push(s.faults.to_string());
                }
                row.extend([
                    s.choices.to_string(),
                    s.executions.to_string(),
                    s.states_unlocked.to_string(),
                ]);
                t.row(row);
            }
            t.render(&mut out, markdown);
            out.push('\n');
        }

        if !run.throughput.is_empty() {
            heading(&mut out, "Throughput over time", markdown);
            let mut t = Table::new(vec!["elapsed", "executions", "rate"]);
            // Sample evenly down to ~20 rows; the full series stays in
            // the RunReport for anything that wants to plot it.
            let stride = run.throughput.len().div_ceil(20).max(1);
            let mut prev: Option<ThroughputSample> = None;
            for (i, sample) in run.throughput.iter().enumerate() {
                if i % stride != 0 && i + 1 != run.throughput.len() {
                    continue;
                }
                let rate = match prev {
                    Some(p) if sample.elapsed > p.elapsed => {
                        let dt = (sample.elapsed - p.elapsed).as_secs_f64();
                        let dx = sample.executions.saturating_sub(p.executions);
                        format!("{:.0}/s", dx as f64 / dt)
                    }
                    _ => "-".to_string(),
                };
                t.row(vec![
                    secs(sample.elapsed),
                    sample.executions.to_string(),
                    rate,
                ]);
                prev = Some(*sample);
            }
            t.render(&mut out, markdown);
            out.push('\n');
        }

        if !run.worker_utilization.is_empty() {
            heading(&mut out, "Worker utilization", markdown);
            let mut t = Table::new(vec!["worker", "busy", "idle", "utilization", "executions"]);
            for w in &run.worker_utilization {
                t.row(vec![
                    w.worker.to_string(),
                    secs(w.busy),
                    secs(w.idle),
                    w.utilization()
                        .map_or("-".to_string(), |u| format!("{:.1}%", 100.0 * u)),
                    w.executions.to_string(),
                ]);
            }
            t.render(&mut out, markdown);
            out.push('\n');
        }

        if run.phases.sum() > Duration::ZERO {
            heading(&mut out, "Phase timing", markdown);
            let mut t = Table::new(vec!["phase", "time", "share"]);
            let reference = run.elapsed.unwrap_or_else(|| run.phases.sum());
            let share = |d: Duration| {
                if reference > Duration::ZERO {
                    format!("{:.1}%", 100.0 * d.as_secs_f64() / reference.as_secs_f64())
                } else {
                    "-".to_string()
                }
            };
            t.row(vec![
                "replay".to_string(),
                secs(run.phases.replay),
                share(run.phases.replay),
            ]);
            t.row(vec![
                "selection".to_string(),
                secs(run.phases.selection),
                share(run.phases.selection),
            ]);
            t.row(vec![
                "race detection".to_string(),
                secs(run.phases.race_detection),
                share(run.phases.race_detection),
            ]);
            if let Some(elapsed) = run.elapsed {
                let other = elapsed.saturating_sub(run.phases.sum());
                t.row(vec!["other".to_string(), secs(other), share(other)]);
            }
            t.render(&mut out, markdown);
            out.push('\n');
        }
    }
    out
}

/// Renders the reports as plain-text tables.
pub fn render_text(runs: &[RunReport], top: usize) -> String {
    render(runs, top, false)
}

/// Renders the reports as GitHub-flavored Markdown.
pub fn render_markdown(runs: &[RunReport], top: usize) -> String {
    render(runs, top, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::JsonlSink;
    use icb_core::search::{Search, SearchConfig, SearchReport};
    use icb_core::SearchObserver;
    use icb_workloads::bluetooth::{bluetooth_model, BluetoothVariant};
    use std::io::Write;

    /// Runs the fixed Bluetooth model's ICB search to bound 1 under
    /// `sink`, returning the library report.
    fn bluetooth_search(sink: &mut dyn SearchObserver) -> SearchReport {
        let model = bluetooth_model(BluetoothVariant::Fixed, 2);
        let config = SearchConfig {
            preemption_bound: Some(1),
            ..SearchConfig::default()
        };
        Search::over(&model)
            .config(config)
            .observer(sink)
            .run()
            .unwrap()
    }

    /// The profile log of [`bluetooth_search`].
    fn recorded_log() -> String {
        let mut sink = JsonlSink::new(Vec::new()).with_profile_events(true);
        bluetooth_search(&mut sink);
        String::from_utf8(sink.into_inner()).unwrap()
    }

    /// Folds `text` through the `io::Write` side in `chunk`-byte writes.
    fn fold_in_chunks(text: &str, chunk: usize) -> RunReport {
        let mut builder = ReportBuilder::new();
        for piece in text.as_bytes().chunks(chunk) {
            builder.write_all(piece).unwrap();
        }
        builder.finish().unwrap()
    }

    #[test]
    fn folds_a_live_icb_run() {
        let mut sink = JsonlSink::new(ReportBuilder::new()).with_profile_events(true);
        let report = bluetooth_search(&mut sink);
        let run = sink.into_inner().finish().unwrap();
        assert_eq!(run.strategy, "icb");
        assert_eq!(run.executions, report.executions);
        assert_eq!(run.distinct_states, report.distinct_states);
        assert_eq!(run.completed, report.completed);
        assert!(run.elapsed.is_some());
        // Per-bound rows mirror the library report exactly.
        assert_eq!(run.bounds.len(), report.bound_stats().len());
        for (row, stats) in run.bounds.iter().zip(report.bound_stats()) {
            assert_eq!(row.bound, stats.bound);
            assert_eq!(row.executions, stats.executions);
            assert_eq!(row.cumulative_states, stats.cumulative_states);
            assert_eq!(row.bugs_found, stats.bugs_found);
        }
        // Sites were attributed: preemptions landed somewhere, and no
        // site appears in more executions than ran.
        assert!(run.sites.iter().any(|s| s.preemptions > 0));
        assert!(run.sites.iter().all(|s| s.executions <= run.executions));
    }

    #[test]
    fn chunked_writes_fold_like_from_jsonl() {
        for log in [recorded_log(), LOG.to_string(), LOG.replace('\n', "\r\n")] {
            let whole = RunReport::from_jsonl(&log).unwrap();
            assert!(!whole.sites.is_empty());
            for chunk in [1, 7, 4096] {
                assert_eq!(fold_in_chunks(&log, chunk), whole, "{chunk}-byte writes");
            }
        }
    }

    #[test]
    fn finish_folds_the_unterminated_last_line() {
        let log = recorded_log();
        // A killed run's log may lack its final `\n`: the last line is
        // still folded, exactly as `str::lines` yields it.
        let unterminated = log.strip_suffix('\n').unwrap();
        let r = fold_in_chunks(unterminated, 7);
        assert_eq!(r, RunReport::from_jsonl(unterminated).unwrap());
        assert_eq!(r.aborted, None, "the unterminated search-finished counts");
        // Torn mid-line: the fragment folds the same way too.
        let torn = &log[..log.len() / 2];
        let r = fold_in_chunks(torn, 7);
        assert_eq!(r, RunReport::from_jsonl(torn).unwrap());
        assert_eq!(r.aborted.as_deref(), Some("log ends mid-run"));
        // No cut point, inside a string, number or array, panics the fold.
        for log in [LOG, METERED_SEGMENT1] {
            for end in 0..=log.len() {
                let _ = RunReport::from_jsonl(&log[..end]);
            }
        }
        // An unterminated `\r` is part of the line, as in `str::lines`.
        let crlf = LOG.replace('\n', "\r\n");
        let cut = crlf.strip_suffix('\n').unwrap();
        assert_eq!(fold_in_chunks(cut, 1), RunReport::from_jsonl(cut).unwrap());
    }

    const LOG: &str = r#"{"event":"search-started","strategy":"icb"}
{"event":"bound-started","bound":0,"work_items":1}
{"event":"execution-started","index":1}
{"event":"choice-point","site":"acquire#0","bound":0,"kind":"continue"}
{"event":"choice-point","site":"release#0","bound":0,"kind":"switch"}
{"event":"execution-finished","index":1,"steps":2,"blocking_steps":1,"preemptions":0,"context_switches":1,"outcome":"terminated","distinct_states":2}
{"event":"bound-completed","bound":0,"executions":1,"cumulative_states":2,"bugs_found":0,"wall_time_ns":1000}
{"event":"bound-started","bound":1,"work_items":2}
{"event":"execution-started","index":2}
{"event":"choice-point","site":"acquire#0","bound":1,"kind":"continue"}
{"event":"choice-point","site":"release#0","bound":1,"kind":"preemption"}
{"event":"preemption-taken","site":"acquire#0"}
{"event":"execution-finished","index":2,"steps":2,"blocking_steps":1,"preemptions":1,"context_switches":1,"outcome":"assertion-failure","detail":"boom","distinct_states":5}
{"event":"phase-time","phase":"replay","elapsed_ns":600}
{"event":"phase-time","phase":"selection","elapsed_ns":300}
{"event":"phase-time","phase":"race-detection","elapsed_ns":100}
{"event":"bound-completed","bound":1,"executions":1,"cumulative_states":5,"bugs_found":1,"wall_time_ns":2000}
{"event":"search-finished","strategy":"icb","executions":2,"distinct_states":5,"buggy_executions":1,"bugs_reported":1,"completed":true,"completed_bound":1,"truncated":false,"elapsed_ns":5000}
"#;

    #[test]
    fn reconstructs_totals_bounds_and_sites() {
        let r = RunReport::from_jsonl(LOG).unwrap();
        assert_eq!(r.strategy, "icb");
        assert_eq!(r.executions, 2);
        assert_eq!(r.distinct_states, 5);
        assert_eq!(r.buggy_executions, 1);
        assert!(r.completed);
        assert_eq!(r.elapsed, Some(Duration::from_nanos(5000)));
        assert_eq!(r.bounds.len(), 2);
        assert_eq!(r.bounds[1].bound, 1);
        assert_eq!(r.bounds[1].cumulative_states, 5);
        assert_eq!(r.bounds[1].bugs_found, 1);

        // acquire#0 was preempted once; the second execution unlocked
        // 5 - 2 = 3 states, all credited to it.
        let hot = &r.sites[0];
        assert_eq!(hot.site, "acquire#0");
        assert_eq!(hot.preemptions, 1);
        assert_eq!(hot.choices, 2);
        assert_eq!(hot.executions, 2);
        assert_eq!(hot.states_unlocked, 3);

        assert_eq!(r.phases.replay, Duration::from_nanos(600));
        assert_eq!(r.phases.selection, Duration::from_nanos(300));
        assert_eq!(r.phases.race_detection, Duration::from_nanos(100));
    }

    #[test]
    fn truncated_log_still_reconstructs() {
        // Cut the log right after the second execution-started: the run
        // was killed mid-execution.
        let cut = LOG.lines().take(9).collect::<Vec<_>>().join("\n");
        let r = RunReport::from_jsonl(&cut).unwrap();
        assert_eq!(r.executions, 1);
        assert_eq!(r.distinct_states, 2);
        assert_eq!(r.bounds.len(), 1);
        assert!(r.aborted.is_some());
        assert!(!r.completed);
    }

    #[test]
    fn rejects_non_telemetry_text() {
        assert!(RunReport::from_jsonl("hello\nworld\n").is_err());
        assert!(RunReport::from_jsonl("").is_err());
    }

    #[test]
    fn text_and_markdown_render_the_same_numbers() {
        let r = RunReport::from_jsonl(LOG).unwrap();
        let text = render_text(std::slice::from_ref(&r), 10);
        let md = render_markdown(std::slice::from_ref(&r), 10);
        for needle in ["Per-bound results", "acquire#0", "Phase timing"] {
            assert!(text.contains(needle), "text missing {needle}:\n{text}");
            assert!(md.contains(needle), "markdown missing {needle}:\n{md}");
        }
        // Markdown tables are pipe-delimited.
        assert!(md.contains("| 1 | 1 | 5 | 1 |"), "{md}");
        // Two runs get a comparison table; one run does not.
        assert!(!text.contains("Strategy comparison"));
        let both = render_text(&[r.clone(), r], 10);
        assert!(both.contains("Strategy comparison"), "{both}");
    }

    const SEGMENT1: &str = r#"{"event":"search-started","strategy":"icb"}
{"event":"bound-started","bound":0,"work_items":1}
{"event":"execution-finished","index":1,"steps":2,"blocking_steps":1,"preemptions":0,"context_switches":0,"outcome":"terminated","distinct_states":2}
{"event":"bound-completed","bound":0,"executions":1,"cumulative_states":2,"bugs_found":0,"wall_time_ns":1000}
{"event":"bound-started","bound":1,"work_items":2}
{"event":"execution-finished","index":2,"steps":2,"blocking_steps":1,"preemptions":1,"context_switches":1,"outcome":"replay-divergence","detail":"diverged","distinct_states":3}
{"event":"trace-quarantined","step":1,"expected":1,"actual":[0],"schedule":[0,1]}
{"event":"execution-finished","index":3,"steps":2,"blocking_steps":1,"preemptions":1,"context_switches":1,"outcome":"watchdog-timeout","distinct_states":4}
{"event":"checkpoint-written","executions":3}
"#;

    const SEGMENT2: &str = r#"{"event":"search-started","strategy":"icb"}
{"event":"search-resumed","executions":3,"distinct_states":4,"bound":1,"bound_executions":2}
{"event":"execution-finished","index":4,"steps":2,"blocking_steps":1,"preemptions":1,"context_switches":1,"outcome":"assertion-failure","detail":"boom","distinct_states":6}
{"event":"bound-completed","bound":1,"executions":3,"cumulative_states":6,"bugs_found":1,"wall_time_ns":2000}
{"event":"search-finished","strategy":"icb","executions":4,"distinct_states":6,"buggy_executions":1,"bugs_reported":1,"completed":true,"completed_bound":1,"truncated":false,"elapsed_ns":4000}
"#;

    #[test]
    fn infrastructure_outcomes_are_not_program_bugs() {
        let r = RunReport::from_jsonl(SEGMENT1).unwrap();
        assert_eq!(r.buggy_executions, 0);
        assert_eq!(r.quarantined, 1);
        assert_eq!(r.watchdog_trips, 1);
        assert_eq!(r.checkpoints, 1);
        assert!(r.aborted.is_some(), "killed segment reads as aborted");
    }

    #[test]
    fn stitches_segments_into_one_per_bound_table() {
        let a = RunReport::from_jsonl(SEGMENT1).unwrap();
        let b = RunReport::from_jsonl(SEGMENT2).unwrap();
        assert_eq!(b.resumed_from, Some(3));

        let stitched = RunReport::stitch(&[a, b]).unwrap();
        // Cumulative totals come from the final segment.
        assert_eq!(stitched.executions, 4);
        assert_eq!(stitched.distinct_states, 6);
        assert_eq!(stitched.buggy_executions, 1);
        assert!(stitched.completed);
        // Per-bound rows merge keep-last: bound 0 from segment 1,
        // bound 1 from segment 2 (whose counters are cumulative).
        assert_eq!(stitched.bounds.len(), 2);
        assert_eq!(stitched.bounds[0].bound, 0);
        assert_eq!(stitched.bounds[0].executions, 1);
        assert_eq!(stitched.bounds[1].bound, 1);
        assert_eq!(stitched.bounds[1].executions, 3);
        assert_eq!(stitched.bounds[1].cumulative_states, 6);
        // Per-segment counters are summed.
        assert_eq!(stitched.quarantined, 1);
        assert_eq!(stitched.watchdog_trips, 1);
        assert_eq!(stitched.checkpoints, 1);
        // The chain started fresh.
        assert_eq!(stitched.resumed_from, None);

        let text = render_text(std::slice::from_ref(&stitched), 10);
        assert!(text.contains("1 quarantined"), "{text}");
        assert!(text.contains("1 watchdog trips"), "{text}");
        assert!(text.contains("1 checkpoints"), "{text}");
    }

    #[test]
    fn stitch_of_nothing_is_none() {
        assert!(RunReport::stitch(&[]).is_none());
    }

    const CACHED_LOG: &str = r#"{"event":"search-started","strategy":"icb"}
{"event":"cache-store","count":3}
{"event":"cache-hit","count":2}
{"event":"cache-hit","count":1}
{"event":"search-finished","strategy":"icb","executions":4,"distinct_states":6,"buggy_executions":0,"bugs_reported":0,"completed":true,"completed_bound":2,"truncated":false,"cache_hits":3,"cache_stores":3,"cache_heuristic":false,"cache_certified":false,"elapsed_ns":900}
"#;

    #[test]
    fn cache_events_reconstruct_and_render() {
        let r = RunReport::from_jsonl(CACHED_LOG).unwrap();
        assert_eq!(r.cache_hits, 3);
        assert_eq!(r.cache_stores, 3);
        assert!(!r.cache_heuristic);
        assert!(!r.cache_certified);
        let text = render_text(std::slice::from_ref(&r), 10);
        assert!(
            text.contains("cache: 3 hits / 3 stores (50.0% hit rate)"),
            "{text}"
        );

        // A log cut before search-finished keeps the per-event sums.
        let cut = CACHED_LOG.lines().take(4).collect::<Vec<_>>().join("\n");
        let r = RunReport::from_jsonl(&cut).unwrap();
        assert_eq!((r.cache_hits, r.cache_stores), (3, 3));

        // A certified warm run renders the ledger answer.
        let certified = r#"{"event":"search-started","strategy":"icb"}
{"event":"bound-certified","bound":2}
{"event":"search-finished","strategy":"icb","executions":0,"distinct_states":6,"buggy_executions":0,"bugs_reported":0,"completed":false,"completed_bound":2,"truncated":false,"cache_hits":0,"cache_stores":0,"cache_heuristic":false,"cache_certified":true,"elapsed_ns":10}
"#;
        let r = RunReport::from_jsonl(certified).unwrap();
        assert!(r.cache_certified);
        let text = render_text(std::slice::from_ref(&r), 10);
        assert!(
            text.contains("CERTIFIED (answered from cache ledger)"),
            "{text}"
        );

        // Stitching sums the per-segment cache counters.
        let a = RunReport::from_jsonl(CACHED_LOG).unwrap();
        let b = RunReport::from_jsonl(CACHED_LOG).unwrap();
        let stitched = RunReport::stitch(&[a, b]).unwrap();
        assert_eq!((stitched.cache_hits, stitched.cache_stores), (6, 6));
    }

    const METERED_SEGMENT1: &str = r#"{"event":"search-started","strategy":"icb"}
{"event":"execution-finished","index":10,"steps":2,"blocking_steps":0,"preemptions":0,"context_switches":0,"outcome":"terminated","distinct_states":5}
{"event":"metrics-snapshot","elapsed_ns":1000000000,"executions":10,"distinct_states":5,"bound":1,"bound_executions":10,"frontier_len":3,"pump_channel_depth":0,"eta_seconds":null,"worker_busy_ns":[600000000,500000000],"worker_idle_ns":[100000000,200000000],"worker_executions":[6,4]}
{"event":"checkpoint-written","executions":10}
"#;

    const METERED_SEGMENT2: &str = r#"{"event":"search-started","strategy":"icb"}
{"event":"search-resumed","executions":10,"distinct_states":5,"bound":1,"bound_executions":10}
{"event":"metrics-snapshot","elapsed_ns":500000000,"executions":18,"distinct_states":7,"bound":1,"bound_executions":18,"frontier_len":1,"pump_channel_depth":0,"eta_seconds":0.125,"worker_busy_ns":[900000000,800000000],"worker_idle_ns":[150000000,250000000],"worker_executions":[10,8]}
{"event":"search-finished","strategy":"icb","executions":20,"distinct_states":8,"buggy_executions":0,"bugs_reported":0,"completed":true,"completed_bound":1,"truncated":false,"elapsed_ns":700000000}
"#;

    #[test]
    fn metrics_snapshots_reconstruct_throughput_and_utilization() {
        let r = RunReport::from_jsonl(METERED_SEGMENT1).unwrap();
        assert_eq!(
            r.throughput,
            vec![ThroughputSample {
                elapsed: Duration::from_secs(1),
                executions: 10,
            }]
        );
        assert_eq!(r.worker_utilization.len(), 2);
        assert_eq!(r.worker_utilization[0].worker, 0);
        assert_eq!(r.worker_utilization[0].busy, Duration::from_millis(600));
        assert_eq!(r.worker_utilization[0].executions, 6);
        let util = r.worker_utilization[1].utilization().unwrap();
        assert!((util - 500.0 / 700.0).abs() < 1e-9, "{util}");

        let text = render_text(std::slice::from_ref(&r), 10);
        assert!(text.contains("Throughput over time"), "{text}");
        assert!(text.contains("Worker utilization"), "{text}");
    }

    #[test]
    fn stitch_offsets_snapshot_series_to_chain_time() {
        let a = RunReport::from_jsonl(METERED_SEGMENT1).unwrap();
        let b = RunReport::from_jsonl(METERED_SEGMENT2).unwrap();
        let stitched = RunReport::stitch(&[a, b]).unwrap();

        // Segment 1 has no search-finished, so its span is its last
        // snapshot (1s); segment 2's sample shifts from 0.5s to 1.5s.
        assert_eq!(
            stitched.throughput,
            vec![
                ThroughputSample {
                    elapsed: Duration::from_secs(1),
                    executions: 10,
                },
                ThroughputSample {
                    elapsed: Duration::from_millis(1500),
                    executions: 18,
                },
            ]
        );
        // The series is monotone in both axes across the seam.
        for pair in stitched.throughput.windows(2) {
            assert!(pair[0].elapsed < pair[1].elapsed);
            assert!(pair[0].executions <= pair[1].executions);
        }
        // Worker utilization keeps the final (cumulative) snapshot.
        assert_eq!(
            stitched.worker_utilization[0].busy,
            Duration::from_millis(900)
        );
        assert_eq!(stitched.worker_utilization[1].executions, 8);
    }

    #[test]
    fn parses_u64_arrays() {
        assert_eq!(
            field_u64_array(r#"{"a":[1,2,3],"b":[]}"#, "a"),
            Some(vec![1, 2, 3])
        );
        assert_eq!(field_u64_array(r#"{"a":[1],"b":[]}"#, "b"), Some(vec![]));
        assert_eq!(field_u64_array(r#"{"a":7}"#, "a"), None);
    }

    #[test]
    fn unescapes_string_fields() {
        assert_eq!(
            field_str(r#"{"event":"x","msg":"a\"b\\c\nd"}"#, "msg").as_deref(),
            Some("a\"b\\c\nd")
        );
        assert_eq!(field_str(r#"{"msg":"A"}"#, "msg").as_deref(), Some("A"));
        assert_eq!(field_str(r#"{"other":1}"#, "msg"), None);
    }
}
