//! The metric catalogue, the per-layer breakdown of a traced trial, and
//! its Chrome trace.
//!
//! Layer names are the workspace's crates. The breakdown splits lane
//! time: at `jobs = 1` that is the search wall time; above one it adds
//! the pump thread (the caller) and every worker, so shares still sum to
//! 100%. Which end-to-end metric each layer metric should move, and on
//! which workload, is tabled in the README.

use icb_core::MetricsSnapshot;

use crate::json::Json;
use crate::stats::{median, percentile, tail_percentile};
use crate::trace::{ExecRecord, ObserverStats, Slot, Span, Tally};

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(&self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric, measured untraced in every trial.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics, all lower-is-better. `search_s` is the time
/// a user waits for the answer: a certificate at the workload's bound on
/// the certify workloads, every minimal witness on `bug-hunt`. The
/// bounds sit above the run-to-run spread measured on a shared 2-vCPU
/// machine (see the README).
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "search_s",
        unit: "s",
        bound: 0.20,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        bound: 0.20,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        bound: 0.10,
    },
];

/// The per-layer metrics reported on every workload, zero where a
/// workload bypasses the layer. They are the ones an optimisation is
/// most likely to move; a traced trial prints more (latency tails,
/// per-layer times of the layers a workload uses).
pub const PER_LAYER: [(&str, &str, Better); 30] = [
    ("workloads.build_ms", "ms", Better::Lower),
    ("core.executions", "count", Better::Lower),
    ("core.exec_per_s", "1/s", Better::Higher),
    ("core.driver_self_s", "s", Better::Lower),
    ("core.pick_ns", "ns", Better::Lower),
    ("core.picks", "count", Better::Lower),
    ("core.visit_ns", "ns", Better::Lower),
    ("core.visits", "count", Better::Lower),
    ("core.deferred_items", "count", Better::Lower),
    ("core.queue_peak", "count", Better::Lower),
    ("core.steal_donations", "count", Better::Lower),
    ("core.frontier_pop_waits", "count", Better::Lower),
    ("core.pump_recv_timeouts", "count", Better::Lower),
    ("core.share_pct", "%", Better::Lower),
    ("runtime.share_pct", "%", Better::Lower),
    ("statevm.share_pct", "%", Better::Lower),
    ("race.share_pct", "%", Better::Lower),
    ("race.races", "count", Better::Lower),
    ("cache.share_pct", "%", Better::Lower),
    ("cache.probes", "count", Better::Lower),
    ("cache.hits", "count", Better::Higher),
    ("snapshot.share_pct", "%", Better::Lower),
    ("snapshot.checkpoints", "count", Better::Lower),
    ("snapshot.bytes", "bytes", Better::Lower),
    ("telemetry.share_pct", "%", Better::Lower),
    ("telemetry.events", "count", Better::Lower),
    ("telemetry.dispatch_ns", "ns", Better::Lower),
    ("telemetry.jsonl_bytes", "bytes", Better::Lower),
    ("trace.coverage_pct", "%", Better::Higher),
    ("trace.overhead_pct", "%", Better::Lower),
];

/// Execution spans written to the Chrome trace per search; the rest
/// count in every metric but are left out of the file to keep it small.
const EXEC_SPANS_PER_SEARCH: usize = 200;

/// One search of a traced trial.
#[derive(Clone, Debug)]
pub struct SearchTrace {
    pub label: String,
    /// Whether the program runs on the stateless runtime (else the VM).
    pub runtime: bool,
    pub jobs: usize,
    /// The lane that called `Search::run`.
    pub lane: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The calling lane's tally over the search, executions included.
    pub main_tally: Tally,
    pub execs: Vec<ExecRecord>,
    pub obs: ObserverStats,
    pub registry: Option<MetricsSnapshot>,
    pub executions: usize,
    pub states: usize,
}

impl SearchTrace {
    fn wall_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Wrapped calls the calling lane made outside executions.
    fn outside(&self) -> Tally {
        self.execs
            .iter()
            .filter(|e| e.lane == self.lane)
            .fold(self.main_tally, |t, e| t.minus(&e.tally))
    }

    fn checkpoint_ns(&self) -> u64 {
        self.obs.checkpoints.iter().map(|s| s.dur_ns).sum()
    }

    /// The search driver's own time: the search's wall time during which
    /// no execution ran on any lane and no checkpoint was being written,
    /// minus the wrapped calls the calling lane made outside executions.
    /// At `jobs = 1` that is exactly the calling lane's self time; above
    /// it, it is the time the workers left idle (barriers, frontier
    /// hand-offs, the pump).
    fn driver_self_ns(&self) -> u64 {
        let mut spans: Vec<(u64, u64)> = self
            .execs
            .iter()
            .map(|e| (e.start_ns, e.start_ns + e.dur_ns))
            .chain(
                self.obs
                    .checkpoints
                    .iter()
                    .map(|c| (c.start_ns, c.start_ns + c.dur_ns)),
            )
            .collect();
        spans.sort_unstable();
        let (mut covered, mut reach) = (0, 0);
        for (start, end) in spans {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        self.wall_ns()
            .saturating_sub(covered + self.outside().total_ns())
    }
}

/// Everything a traced trial recorded.
#[derive(Clone, Debug, Default)]
pub struct TraceLog {
    /// Set-up steps on the trial's main lane.
    pub setup: Vec<Span>,
    pub searches: Vec<SearchTrace>,
    pub build_ns: u64,
    pub open_cache_ns: u64,
    /// Warm-up executions of runtime programs.
    pub warmup_runtime_ns: u64,
    pub jsonl_bytes: u64,
    /// Trial start to the end of the last search.
    pub wall_ns: u64,
}

/// A named metric value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
}

impl Metric {
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("name", self.name.as_str())
            .with("unit", self.unit.as_str())
            .with("value", self.value)
    }

    pub fn from_json(v: &Json) -> Result<Metric, String> {
        Ok(Metric {
            name: v.field("name", Json::as_str)?.to_string(),
            unit: v.field("unit", Json::as_str)?.to_string(),
            value: v.field("value", Json::as_f64)?,
        })
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Latency percentiles of a set of executions, in microseconds.
fn latency(out: &mut Vec<Metric>, layer: &str, execs: &[&ExecRecord]) {
    let us: Vec<f64> = execs.iter().map(|e| e.dur_ns as f64 / 1e3).collect();
    out.push(metric(&format!("{layer}.exec_us_p50"), "us", median(&us)));
    if let Some(p) = tail_percentile(us.len()) {
        out.push(metric(
            &format!("{layer}.exec_us_p{p}"),
            "us",
            percentile(&us, p),
        ));
    }
}

pub fn metric(name: &str, unit: &str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit: unit.to_string(),
        value,
    }
}

impl TraceLog {
    /// The per-layer breakdown of the trial. Metrics of layers the
    /// workload never entered are omitted; [`catalogue_metrics`] fills
    /// the catalogue's with zero.
    pub fn per_layer(&self) -> Vec<Metric> {
        let s = &self.searches;
        let sum = |f: &dyn Fn(&SearchTrace) -> u64| s.iter().map(f).sum::<u64>();
        let wall = sum(&|t| t.wall_ns()) as f64;
        let executions = s.iter().map(|t| t.executions).sum::<usize>() as f64;
        let outside = s.iter().fold(Tally::default(), |a, t| a.plus(&t.outside()));
        let in_execs = s
            .iter()
            .flat_map(|t| &t.execs)
            .fold(Tally::default(), |a, e| a.plus(&e.tally));
        let total = outside.plus(&in_execs);
        let driver = sum(&|t| t.driver_self_ns()) as f64;
        let checkpoint = sum(&|t| t.checkpoint_ns()) as f64;
        let exec_dur = s
            .iter()
            .flat_map(|t| &t.execs)
            .map(|e| e.dur_ns)
            .sum::<u64>() as f64;
        let lane_time = driver + exec_dur + outside.total_ns() as f64 + checkpoint;
        let share = |ns: f64| 100.0 * ratio(ns, lane_time);
        let ns = |slot| total.ns(slot) as f64;
        let calls = |slot| total.calls(slot) as f64;

        let mut out = vec![
            metric("workloads.build_ms", "ms", self.build_ns as f64 / 1e6),
            metric("core.executions", "count", executions),
            metric("core.exec_per_s", "1/s", ratio(executions, wall / 1e9)),
            metric("core.driver_self_s", "s", driver / 1e9),
            metric(
                "core.pick_ns",
                "ns",
                ratio(ns(Slot::Pick), calls(Slot::Pick)),
            ),
            metric("core.picks", "count", calls(Slot::Pick)),
            metric(
                "core.visit_ns",
                "ns",
                ratio(ns(Slot::Visit), calls(Slot::Visit)),
            ),
            metric("core.visits", "count", calls(Slot::Visit)),
            metric(
                "core.deferred_items",
                "count",
                sum(&|t| t.obs.deferred) as f64,
            ),
            metric(
                "core.queue_peak",
                "count",
                s.iter().map(|t| t.obs.queue_peak).max().unwrap_or(0) as f64,
            ),
            metric(
                "core.share_pct",
                "%",
                share(driver + ns(Slot::Pick) + ns(Slot::Fault) + ns(Slot::Visit)),
            ),
        ];

        let snapshots: Vec<&MetricsSnapshot> =
            s.iter().filter_map(|t| t.registry.as_ref()).collect();
        if !snapshots.is_empty() {
            let total_of = |f: &dyn Fn(&MetricsSnapshot) -> u64| {
                snapshots.iter().map(|m| f(m)).sum::<u64>() as f64
            };
            let busy = total_of(&|m| m.workers.iter().map(|w| w.busy_ns).sum());
            let idle = total_of(&|m| m.workers.iter().map(|w| w.idle_ns).sum());
            out.extend([
                metric("core.worker_busy_ratio", "ratio", ratio(busy, busy + idle)),
                metric(
                    "core.frontier_pop_waits",
                    "count",
                    total_of(&|m| m.frontier_pop_waits),
                ),
                metric(
                    "core.steal_donations",
                    "count",
                    total_of(&|m| m.steal_donations),
                ),
                metric(
                    "core.pump_recv_timeouts",
                    "count",
                    total_of(&|m| m.pump_recv_timeouts),
                ),
            ]);
        }

        let host = |runtime: bool| -> (Vec<&ExecRecord>, f64, f64) {
            let execs: Vec<&ExecRecord> = s
                .iter()
                .filter(|t| t.runtime == runtime)
                .flat_map(|t| &t.execs)
                .collect();
            let host_ns = execs.iter().map(|e| e.host_ns()).sum::<u64>() as f64;
            let steps = execs.iter().map(|e| e.steps).sum::<usize>() as f64;
            (execs, host_ns, steps)
        };
        // Summed as integers: an empty `f64` sum is -0.0, printed as "-0".
        let race_ns = s
            .iter()
            .filter(|t| t.runtime)
            .map(|t| t.obs.race_detection.as_nanos())
            .sum::<u128>() as f64;
        let (rt, rt_host, rt_steps) = host(true);
        if !rt.is_empty() {
            let rt_dur = rt.iter().map(|e| e.dur_ns).sum::<u64>() as f64;
            let replay = s
                .iter()
                .filter(|t| t.runtime)
                .map(|t| t.obs.replay.as_secs_f64())
                .sum::<f64>();
            latency(&mut out, "runtime", &rt);
            out.extend([
                metric(
                    "runtime.steps_per_exec",
                    "count",
                    ratio(rt_steps, rt.len() as f64),
                ),
                metric("runtime.step_ns", "ns", ratio(rt_host - race_ns, rt_steps)),
                metric("runtime.replay_s", "s", replay),
                metric(
                    "runtime.warmup_ms",
                    "ms",
                    self.warmup_runtime_ns as f64 / 1e6,
                ),
                metric("race.detect_s", "s", race_ns / 1e9),
                metric("race.detect_share", "%", 100.0 * ratio(race_ns, rt_dur)),
            ]);
        }
        out.push(metric("runtime.share_pct", "%", share(rt_host - race_ns)));
        let (vm, vm_host, vm_steps) = host(false);
        if !vm.is_empty() {
            latency(&mut out, "statevm", &vm);
            out.extend([
                metric(
                    "statevm.steps_per_exec",
                    "count",
                    ratio(vm_steps, vm.len() as f64),
                ),
                metric("statevm.step_ns", "ns", ratio(vm_host, vm_steps)),
            ]);
        }
        out.push(metric("statevm.share_pct", "%", share(vm_host)));
        out.push(metric("race.share_pct", "%", share(race_ns)));
        out.push(metric("race.races", "count", sum(&|t| t.obs.races) as f64));

        let cache_slots = [
            Slot::Probe,
            Slot::NoteState,
            Slot::Certify,
            Slot::CacheOther,
        ];
        let cache_ns: f64 = cache_slots.iter().map(|&c| ns(c)).sum();
        if cache_slots.iter().any(|&c| calls(c) > 0.0) {
            let hits = total.probe_hits() as f64;
            out.extend([
                metric("cache.open_ms", "ms", self.open_cache_ns as f64 / 1e6),
                metric("cache.hit_ratio", "ratio", ratio(hits, calls(Slot::Probe))),
                metric(
                    "cache.probe_ns",
                    "ns",
                    ratio(ns(Slot::Probe), calls(Slot::Probe)),
                ),
                metric("cache.note_states", "count", calls(Slot::NoteState)),
                metric(
                    "cache.note_state_ns",
                    "ns",
                    ratio(ns(Slot::NoteState), calls(Slot::NoteState)),
                ),
                metric("cache.certify_ms", "ms", ns(Slot::Certify) / 1e6),
            ]);
        }
        out.extend([
            metric("cache.share_pct", "%", share(cache_ns)),
            metric("cache.probes", "count", calls(Slot::Probe)),
            metric("cache.hits", "count", total.probe_hits() as f64),
        ]);

        let ckpt_ms: Vec<f64> = s
            .iter()
            .flat_map(|t| &t.obs.checkpoints)
            .map(|c| c.dur_ns as f64 / 1e6)
            .collect();
        if !ckpt_ms.is_empty() {
            out.extend([
                metric("snapshot.checkpoint_ms_p50", "ms", median(&ckpt_ms)),
                metric(
                    "snapshot.checkpoint_ms_max",
                    "ms",
                    ckpt_ms.iter().cloned().fold(0.0, f64::max),
                ),
            ]);
        }
        out.extend([
            metric("snapshot.share_pct", "%", share(checkpoint)),
            metric("snapshot.checkpoints", "count", ckpt_ms.len() as f64),
            metric(
                "snapshot.bytes",
                "bytes",
                sum(&|t| t.obs.checkpoint_bytes) as f64,
            ),
            metric("telemetry.share_pct", "%", share(ns(Slot::Dispatch))),
            metric("telemetry.events", "count", calls(Slot::Dispatch)),
            metric(
                "telemetry.dispatch_ns",
                "ns",
                ratio(ns(Slot::Dispatch), calls(Slot::Dispatch)),
            ),
            metric("telemetry.jsonl_bytes", "bytes", self.jsonl_bytes as f64),
        ]);

        let spans: u64 = self.setup.iter().map(|sp| sp.dur_ns).sum::<u64>() + sum(&|t| t.wall_ns());
        out.push(metric(
            "trace.coverage_pct",
            "%",
            100.0 * ratio(spans as f64, self.wall_ns as f64),
        ));
        out
    }

    /// The trial as a Chrome trace-event file (load it in
    /// `chrome://tracing` or Perfetto). Timestamps are microseconds
    /// since the trial started; each lane is a thread track.
    pub fn chrome(&self, title: &str) -> Json {
        let us = |ns: u64| ns as f64 / 1e3;
        let event = |name: &str, cat: &str, lane: u32, start: u64, dur: u64, args: Json| {
            Json::obj()
                .with("name", name)
                .with("cat", cat)
                .with("ph", "X")
                .with("ts", us(start))
                .with("dur", us(dur))
                .with("pid", 1usize)
                .with("tid", lane as usize)
                .with("args", args)
        };
        let span_event = |sp: &Span| {
            let args = sp.args.iter().fold(Json::obj(), |a, (k, v)| a.with(k, *v));
            event(&sp.name, sp.cat, sp.lane, sp.start_ns, sp.dur_ns, args)
        };
        let mut events: Vec<Json> = self.setup.iter().map(span_event).collect();
        let mut lanes: Vec<u32> = self.setup.iter().map(|sp| sp.lane).collect();
        for t in &self.searches {
            let phases = Json::obj()
                .with("replay_ns", t.obs.replay.as_nanos() as f64)
                .with("selection_ns", t.obs.selection.as_nanos() as f64)
                .with("race_detection_ns", t.obs.race_detection.as_nanos() as f64);
            let shown = t.execs.len().min(EXEC_SPANS_PER_SEARCH);
            let execs = t
                .execs
                .iter()
                .fold(Tally::default(), |a, e| a.plus(&e.tally));
            let total = execs.plus(&t.outside());
            let exec_ns: u64 = t.execs.iter().map(|e| e.dur_ns).sum();
            let host_ns: u64 = t.execs.iter().map(|e| e.host_ns()).sum();
            let steps: usize = t.execs.iter().map(|e| e.steps).sum();
            events.push(event(
                &t.label,
                "search",
                t.lane,
                t.start_ns,
                t.wall_ns(),
                Json::obj()
                    .with("jobs", t.jobs)
                    .with("executions", t.executions)
                    .with("distinct_states", t.states)
                    .with("steps", steps)
                    .with("execution_ns", exec_ns)
                    .with("host_ns", host_ns)
                    .with("driver_self_ns", t.driver_self_ns())
                    .with("pick_ns", total.ns(Slot::Pick) + total.ns(Slot::Fault))
                    .with("visit_ns", total.ns(Slot::Visit))
                    .with(
                        "cache_ns",
                        total.ns(Slot::Probe)
                            + total.ns(Slot::NoteState)
                            + total.ns(Slot::Certify)
                            + total.ns(Slot::CacheOther),
                    )
                    .with("dispatch_ns", total.ns(Slot::Dispatch))
                    .with("checkpoint_ns", t.checkpoint_ns())
                    .with("deferred_items", t.obs.deferred)
                    .with("queue_peak", t.obs.queue_peak)
                    .with("phases", phases)
                    .with("execution_spans_written", shown),
            ));
            events.extend(
                t.obs
                    .bounds
                    .iter()
                    .chain(&t.obs.checkpoints)
                    .map(span_event),
            );
            for e in t.execs.iter().take(shown) {
                let tally = e.tally;
                let args = Json::obj()
                    .with("request", format!("{}:{}", e.lane, e.seq))
                    .with("steps", e.steps)
                    .with("host_ns", e.host_ns())
                    .with("pick_ns", tally.ns(Slot::Pick))
                    .with("picks", tally.calls(Slot::Pick))
                    .with("fault_ns", tally.ns(Slot::Fault))
                    .with("fault_decisions", tally.calls(Slot::Fault))
                    .with("visit_ns", tally.ns(Slot::Visit))
                    .with("visits", tally.calls(Slot::Visit))
                    .with(
                        "cache_ns",
                        tally.ns(Slot::Probe) + tally.ns(Slot::NoteState),
                    )
                    .with("dispatch_ns", tally.ns(Slot::Dispatch));
                let cat = if t.runtime { "runtime" } else { "statevm" };
                events.push(event("execution", cat, e.lane, e.start_ns, e.dur_ns, args));
                lanes.push(e.lane);
            }
            lanes.push(t.lane);
        }
        lanes.sort_unstable();
        lanes.dedup();
        let main = self.setup.first().map_or(0, |sp| sp.lane);
        for lane in lanes {
            let name = if lane == main {
                "trial".to_string()
            } else {
                format!("worker lane {lane}")
            };
            events.push(
                Json::obj()
                    .with("name", "thread_name")
                    .with("ph", "M")
                    .with("pid", 1usize)
                    .with("tid", lane as usize)
                    .with("args", Json::obj().with("name", name)),
            );
        }
        Json::obj()
            .with("traceEvents", events)
            .with("displayTimeUnit", "ms")
            .with("otherData", Json::obj().with("trial", title))
    }
}

/// The catalogue's per-layer metrics out of `measured`, zero for a
/// layer the workload bypasses, in catalogue order.
pub fn catalogue_metrics(measured: &[Metric]) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            let value = measured
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            metric(name, unit, value)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    /// The catalogue here and `BENCHMARK.json` at the repository root
    /// must describe the same metrics.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let spec = Json::parse(&text).unwrap();
        let e2e = spec.get("end_to_end").and_then(Json::as_array).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (m, want) in e2e.iter().zip(END_TO_END) {
            assert_eq!(m.get("name").and_then(Json::as_str), Some(want.name));
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(want.unit));
            assert_eq!(m.get("better").and_then(Json::as_str), Some("lower"));
            assert_eq!(m.get("bound").and_then(Json::as_f64), Some(want.bound));
        }
        let workloads = spec.get("workloads").and_then(Json::as_array).unwrap();
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (w, want) in workloads.iter().zip(Workload::ALL) {
            assert_eq!(w.get("name").and_then(Json::as_str), Some(want.name()));
            assert_eq!(w.get("why").and_then(Json::as_str), Some(want.why()));
        }
        let layers = spec.get("per_layer").and_then(Json::as_array).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (m, (name, unit, better)) in layers.iter().zip(PER_LAYER) {
            assert_eq!(m.get("name").and_then(Json::as_str), Some(name));
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
            assert_eq!(
                m.get("better").and_then(Json::as_str),
                Some(better.as_str())
            );
        }
    }

    #[test]
    fn catalogue_metrics_fill_bypassed_layers_with_zero() {
        let measured = vec![metric("cache.hits", "count", 7.0)];
        let all = catalogue_metrics(&measured);
        assert_eq!(all.len(), PER_LAYER.len());
        assert_eq!(
            all.iter().find(|m| m.name == "cache.hits").unwrap().value,
            7.0
        );
        assert_eq!(
            all.iter().find(|m| m.name == "cache.probes").unwrap().value,
            0.0
        );
    }
}
