//! Chrome trace-event JSON export: any execution — and a search's
//! phase spans — as a timeline loadable in Perfetto or
//! `chrome://tracing`.
//!
//! The output is the *JSON object format* of the trace-event
//! specification: `{"traceEvents": [...], "displayTimeUnit": "ms"}`.
//! One track per thread (`pid` 0, `tid` = thread id), one complete
//! (`"ph": "X"`) slice per step named after the step's attributed
//! [`SiteId`](icb_core::SiteId), an instant (`"ph": "i"`) event on the
//! preempting thread's track for every preemption, and a final instant
//! for the execution's outcome. The search's own replay / selection /
//! race-detection phase totals render as slices on a separate process
//! (`pid` 1).
//!
//! Timestamps are *synthetic*: step `i` occupies
//! `[i·10 µs, (i+1)·10 µs)`. The checker's scheduling quantum is a
//! logical step, not wall time, and synthetic ticks keep the rendering a
//! pure function of the trace — explanation bundles must be
//! byte-identical regardless of `--jobs` or machine load. Phase spans
//! ([`ChromeTrace::add_phases`]) are the one wall-clock exception, which
//! is why they live behind a separate opt-in call.

use std::fmt::Write as _;

use icb_core::{ExecutionOutcome, Trace};

use crate::report::PhaseTotals;

/// Microseconds per logical step in the synthetic timeline.
const TICK_US: u64 = 10;

/// Builder for a Chrome trace-event JSON document.
///
/// # Examples
///
/// ```
/// use icb_core::{ExecutionOutcome, Trace};
/// use icb_telemetry::export::chrome::ChromeTrace;
/// let json = ChromeTrace::new()
///     .add_execution(&Trace::new(), &ExecutionOutcome::Terminated)
///     .render();
/// assert!(json.starts_with("{\"traceEvents\":["));
/// ```
#[derive(Debug, Default)]
pub struct ChromeTrace {
    events: Vec<String>,
}

impl ChromeTrace {
    /// An empty trace document.
    pub fn new() -> Self {
        ChromeTrace::default()
    }

    /// Adds one execution: per-thread tracks of step slices, preemption
    /// instants, and a closing outcome instant. Deterministic — uses
    /// only the trace's logical step indices.
    pub fn add_execution(mut self, trace: &Trace, outcome: &ExecutionOutcome) -> Self {
        self.push_meta(0, None, "process_name", "execution");
        let mut threads: Vec<usize> = trace
            .entries()
            .iter()
            .flat_map(|e| e.enabled.iter().map(|t| t.index()))
            .chain(trace.entries().iter().map(|e| e.chosen.index()))
            .collect();
        threads.sort_unstable();
        threads.dedup();
        for &t in &threads {
            self.push_meta(0, Some(t), "thread_name", &format!("T{t}"));
        }
        for (i, e) in trace.entries().iter().enumerate() {
            let ts = i as u64 * TICK_US;
            let enabled = e
                .enabled
                .iter()
                .map(|t| format!("T{}", t.index()))
                .collect::<Vec<_>>()
                .join(" ");
            self.events.push(format!(
                "{{\"name\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{},\
                 \"args\":{{\"step\":{},\"enabled\":{},\"blocking\":{}}}}}",
                json_string(&e.site.to_string()),
                ts,
                TICK_US,
                e.chosen.index(),
                i,
                json_string(&enabled),
                e.blocking,
            ));
            if e.is_preemption() {
                let from = e
                    .current
                    .map_or_else(|| "?".to_string(), |t| format!("T{}", t.index()));
                self.events.push(format!(
                    "{{\"name\":\"preemption\",\"ph\":\"i\",\"ts\":{},\"s\":\"t\",\"pid\":0,\
                     \"tid\":{},\"args\":{{\"preempted\":{}}}}}",
                    ts,
                    e.chosen.index(),
                    json_string(&from),
                ));
            }
        }
        let end = trace.len() as u64 * TICK_US;
        let last_tid = trace.entries().last().map_or(0, |e| e.chosen.index());
        self.events.push(format!(
            "{{\"name\":{},\"ph\":\"i\",\"ts\":{},\"s\":\"p\",\"pid\":0,\"tid\":{},\
             \"args\":{{\"outcome\":{}}}}}",
            json_string(&format!("outcome: {}", kind(outcome))),
            end,
            last_tid,
            json_string(&outcome.to_string()),
        ));
        self
    }

    /// Adds a run report's wall-clock phase totals as back-to-back
    /// slices on a dedicated `search phases` process (`pid` 1).
    ///
    /// Unlike [`add_execution`](ChromeTrace::add_execution) this encodes
    /// *measured wall time*, so two runs of the same search will not
    /// produce identical bytes; keep it out of artifacts that must be
    /// deterministic.
    pub fn add_phases(mut self, phases: &PhaseTotals) -> Self {
        self.push_meta(1, None, "process_name", "search phases");
        self.push_meta(1, Some(0), "thread_name", "phases");
        let mut ts = 0u64;
        for (name, d) in [
            ("replay", phases.replay),
            ("selection", phases.selection),
            ("race-detection", phases.race_detection),
        ] {
            let dur = (d.as_nanos() / 1_000) as u64;
            self.events.push(format!(
                "{{\"name\":\"{name}\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\"pid\":1,\
                 \"tid\":0,\"args\":{{}}}}",
            ));
            ts += dur;
        }
        self
    }

    /// Renders the JSON object document.
    pub fn render(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            out.push_str(e);
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }

    fn push_meta(&mut self, pid: u32, tid: Option<usize>, kind: &str, name: &str) {
        let tid = tid.unwrap_or(0);
        self.events.push(format!(
            "{{\"name\":\"{kind}\",\"ph\":\"M\",\"ts\":0,\"pid\":{pid},\"tid\":{tid},\
             \"args\":{{\"name\":{}}}}}",
            json_string(name),
        ));
    }
}

/// Renders one execution as a complete Chrome trace document — the
/// `trace.chrome.json` of an explanation bundle.
pub fn execution_to_chrome(trace: &Trace, outcome: &ExecutionOutcome) -> String {
    ChromeTrace::new().add_execution(trace, outcome).render()
}

fn kind(outcome: &ExecutionOutcome) -> &'static str {
    match outcome {
        ExecutionOutcome::Terminated => "terminated",
        ExecutionOutcome::AssertionFailure { .. } => "assertion-failure",
        ExecutionOutcome::Deadlock { .. } => "deadlock",
        ExecutionOutcome::DataRace { .. } => "data-race",
        ExecutionOutcome::StepLimitExceeded => "step-limit-exceeded",
        ExecutionOutcome::ReplayDivergence { .. } => "replay-divergence",
        ExecutionOutcome::WatchdogTimeout => "watchdog-timeout",
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use icb_core::{SiteId, Tid, TraceEntry};
    use std::time::Duration;

    fn sample() -> Trace {
        vec![
            TraceEntry::new(Tid(0), vec![Tid(0), Tid(1)], None, false, false)
                .with_site(SiteId::op("data", 3)),
            TraceEntry::new(Tid(1), vec![Tid(0), Tid(1)], Some(Tid(0)), true, true)
                .with_site(SiteId::op("acquire", 1)),
        ]
        .into()
    }

    /// The exact document for a two-step trace: pins the trace-event
    /// schema (names, phases, synthetic timestamps) that Perfetto /
    /// `chrome://tracing` consume.
    #[test]
    fn chrome_document_is_golden() {
        let got = execution_to_chrome(
            &sample(),
            &ExecutionOutcome::AssertionFailure {
                thread: Tid(1),
                message: "x".into(),
            },
        );
        let want = concat!(
            "{\"traceEvents\":[\n",
            "{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":0,\"tid\":0,\"args\":{\"name\":\"execution\"}},\n",
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,\"pid\":0,\"tid\":0,\"args\":{\"name\":\"T0\"}},\n",
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,\"pid\":0,\"tid\":1,\"args\":{\"name\":\"T1\"}},\n",
            "{\"name\":\"data#3\",\"ph\":\"X\",\"ts\":0,\"dur\":10,\"pid\":0,\"tid\":0,\"args\":{\"step\":0,\"enabled\":\"T0 T1\",\"blocking\":false}},\n",
            "{\"name\":\"acquire#1\",\"ph\":\"X\",\"ts\":10,\"dur\":10,\"pid\":0,\"tid\":1,\"args\":{\"step\":1,\"enabled\":\"T0 T1\",\"blocking\":true}},\n",
            "{\"name\":\"preemption\",\"ph\":\"i\",\"ts\":10,\"s\":\"t\",\"pid\":0,\"tid\":1,\"args\":{\"preempted\":\"T0\"}},\n",
            "{\"name\":\"outcome: assertion-failure\",\"ph\":\"i\",\"ts\":20,\"s\":\"p\",\"pid\":0,\"tid\":1,\"args\":{\"outcome\":\"assertion failure in T1: x\"}}\n",
            "],\"displayTimeUnit\":\"ms\"}\n",
        );
        assert_eq!(got, want);
    }

    #[test]
    fn phase_spans_render_on_their_own_process() {
        let phases = PhaseTotals {
            replay: Duration::from_micros(30),
            selection: Duration::from_micros(5),
            race_detection: Duration::from_micros(7),
        };
        let json = ChromeTrace::new().add_phases(&phases).render();
        assert!(json.contains("\"name\":\"search phases\""));
        assert!(json.contains(
            "{\"name\":\"replay\",\"ph\":\"X\",\"ts\":0,\"dur\":30,\"pid\":1,\"tid\":0,\"args\":{}}"
        ));
        assert!(json.contains(
            "{\"name\":\"selection\",\"ph\":\"X\",\"ts\":30,\"dur\":5,\"pid\":1,\"tid\":0,\"args\":{}}"
        ));
        assert!(json.contains(
            "{\"name\":\"race-detection\",\"ph\":\"X\",\"ts\":35,\"dur\":7,\"pid\":1,\"tid\":0,\"args\":{}}"
        ));
    }

    #[test]
    fn document_is_balanced_json() {
        let json = ChromeTrace::new()
            .add_execution(&sample(), &ExecutionOutcome::Terminated)
            .add_phases(&PhaseTotals::default())
            .render();
        let (mut depth, mut square, mut in_str, mut esc) = (0i32, 0i32, false, false);
        for c in json.chars() {
            if in_str {
                if esc {
                    esc = false;
                } else if c == '\\' {
                    esc = true;
                } else if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' => depth += 1,
                '}' => depth -= 1,
                '[' => square += 1,
                ']' => square -= 1,
                _ => {}
            }
            assert!(depth >= 0 && square >= 0);
        }
        assert_eq!((depth, square, in_str), (0, 0, false));
    }

    #[test]
    fn determinism_is_jobs_independent() {
        // Same trace, same document — the export uses no wall clock.
        let t = sample();
        let a = execution_to_chrome(&t, &ExecutionOutcome::Terminated);
        let b = execution_to_chrome(&t, &ExecutionOutcome::Terminated);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_trace_renders_an_outcome_only() {
        let json = execution_to_chrome(&Trace::new(), &ExecutionOutcome::Terminated);
        assert!(json.contains("outcome: terminated"));
    }
}
