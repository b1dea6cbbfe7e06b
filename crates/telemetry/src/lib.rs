//! Concrete [`SearchObserver`] implementations for the ICB checker.
//!
//! `icb-core` defines the observer *interface* (`icb_core::telemetry`);
//! this crate ships the sinks that make it useful:
//!
//! * [`JsonlSink`] — streams every event as one JSON object per line to
//!   any `io::Write`, for offline analysis of long searches.
//! * [`ProgressReporter`] — rate-limited live status line (current
//!   bound, executions, distinct states, and an ETA derived from the
//!   paper's Theorem 1 ceiling).
//! * [`EventLog`] — records events as owned [`Event`] values; the test
//!   suite uses it to assert the observer event grammar, and it doubles
//!   as a scriptable sink for ad-hoc tooling.
//! * [`MultiObserver`] — fans one event stream out to several observers.
//! * [`registry`] / [`render_prometheus`] / [`MetricsServer`] — the live
//!   introspection layer: a lock-free [`MetricsRegistry`] fed by the
//!   drivers, rendered as a Prometheus text-exposition page and served
//!   over a dependency-free HTTP listener (`explore run
//!   --serve-metrics`, polled by `explore top`).
//! * [`RunReport`] — the plain-data run summary behind `explore report`
//!   and `explore run --profile`: per-bound rows, per-site preemption
//!   attribution, and wall-clock phase totals. The one way to build it
//!   is the [`ReportBuilder`] fold of a [`JsonlSink`] event stream —
//!   offline via [`RunReport::from_jsonl`], or live with the builder as
//!   the sink's writer. [`render_text`] / [`render_markdown`] render it
//!   into the paper's Figure 7/8-style tables.
//!
//! Figure curves (coverage growth per execution) come from
//! [`SearchReport::coverage_curve`](icb_core::search::SearchReport::coverage_curve),
//! not from an observer.
//!
//! [`SearchObserver`]: icb_core::SearchObserver

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod event_log;
pub mod export;
mod http;
mod jsonl;
mod multi;
mod progress;
pub mod registry;
mod report;

pub use event_log::{Event, EventLog};
pub use export::render_prometheus;
pub use http::{parse_exposition, scrape, series_value, MetricsServer};
pub use jsonl::JsonlSink;
pub use multi::MultiObserver;
pub use progress::ProgressReporter;
pub use registry::{MetricsBridge, MetricsRegistry, MetricsSnapshot, WorkerStats};
pub use report::{
    render_markdown, render_text, BoundRow, PhaseTotals, ReportBuilder, RunReport, SiteRow,
    ThroughputSample, WorkerUtilRow,
};
