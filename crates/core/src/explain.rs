//! First-class bug explanations: shrunk, attributed, serializable
//! witnesses.
//!
//! The paper's headline claim is that iterative context bounding yields
//! the *simplest explanation for the error* — a witness with the fewest
//! preemptions. This module turns that in-memory claim into a durable
//! artifact: an [`ExplainedWitness`] bundles the shrunk schedule (via
//! [`shrink::minimize_witness`](crate::shrink::minimize_witness)), the
//! fully attributed replay trace (per-step [`SiteId`](crate::SiteId) and
//! enabled-set history), and the *nearest passing schedule* — the
//! execution obtained by flipping the witness's last divergence point
//! (its final preemption, or its final injected fault when the
//! fault-bound search found the bug), which shows exactly where the
//! passing and failing worlds diverge.
//!
//! Everything here is a pure function of the program and the schedule:
//! replays are deterministic, renderings use no wall clock, and the JSON
//! field order is fixed — so the same bug explained from a `--jobs 1`
//! run, a `--jobs 8` run, or a resumed checkpoint produces byte-identical
//! artifacts.

use std::fmt::Write as _;

use crate::program::ControlledProgram;
use crate::render;
use crate::replay::ReplayScheduler;
use crate::search::BugReport;
use crate::shrink::minimize_witness;
use crate::trace::{ExecutionOutcome, Schedule, Trace};
use crate::NullSink;

/// A bug witness enriched into a self-contained explanation: the shrunk
/// schedule, the attributed replay trace, and the nearest passing
/// schedule.
#[derive(Clone, Debug)]
pub struct ExplainedWitness {
    /// The minimal failing schedule prefix (see
    /// [`shrink::minimize_witness`](crate::shrink::minimize_witness)).
    pub schedule: Schedule,
    /// The outcome the shrunk schedule reproduces.
    pub outcome: ExecutionOutcome,
    /// The full replay trace of the shrunk schedule, carrying per-step
    /// [`SiteId`](crate::SiteId) attribution and enabled-set history.
    pub trace: Trace,
    /// Preemptions in the replayed execution (the quantity ICB
    /// minimizes).
    pub preemptions: usize,
    /// Faults injected in the replayed execution (the second component
    /// of the lexicographic `(preemptions, faults)` level the fault
    /// bound minimizes).
    pub faults: usize,
    /// Replays spent shrinking the witness.
    pub shrink_replays: usize,
    /// The execution obtained by flipping the witness's last divergence
    /// point — its final preemption or final injected fault, whichever
    /// comes later — when the witness has one.
    pub nearest_passing: Option<NearestPassing>,
}

/// The execution reached by *not* taking the witness's last divergence
/// point. For a preemption, the schedule continues the thread that was
/// preempted and then follows the preemption-free default policy; for an
/// injected fault, the same schedule is replayed with that fault
/// suppressed so the fallible operation succeeds.
#[derive(Clone, Debug)]
pub struct NearestPassing {
    /// The step index of the flipped preemption or suppressed fault —
    /// the first step at which the passing and failing executions
    /// diverge.
    pub flipped_step: usize,
    /// `true` when the flip suppressed an injected fault rather than
    /// undoing a preemption.
    pub flipped_fault: bool,
    /// The replayed prefix: the failing schedule up to `flipped_step`,
    /// then the previously running thread instead of the preemptor — or,
    /// for a fault flip, the choices through the faulted step with the
    /// fault removed.
    pub schedule: Schedule,
    /// How the flipped execution ended.
    pub outcome: ExecutionOutcome,
    /// The flipped execution's full trace.
    pub trace: Trace,
}

impl NearestPassing {
    /// Returns `true` if flipping the preemption actually avoided the
    /// bug (the common case; a program may still fail along the flipped
    /// schedule for an unrelated reason).
    pub fn passes(&self) -> bool {
        !self.outcome.is_bug()
    }
}

impl ExplainedWitness {
    /// Explains a failing schedule: shrinks it, replays the shrunk
    /// prefix to recover the attributed trace, and computes the nearest
    /// passing schedule.
    ///
    /// # Panics
    ///
    /// Panics if `schedule` does not reproduce a bug on `program` (same
    /// contract as
    /// [`shrink::minimize_witness`](crate::shrink::minimize_witness)).
    pub fn explain(program: &dyn ControlledProgram, schedule: &Schedule) -> Self {
        let shrunk = minimize_witness(program, schedule);
        let mut replay = ReplayScheduler::new(shrunk.schedule.clone());
        let result = program.execute(&mut replay, &mut NullSink);
        let nearest_passing = nearest_passing(program, &result.trace);
        ExplainedWitness {
            schedule: shrunk.schedule,
            outcome: result.outcome,
            preemptions: result.stats.preemptions,
            faults: result.stats.faults,
            shrink_replays: shrunk.replays,
            trace: result.trace,
            nearest_passing,
        }
    }

    /// Explains the witness carried by a search [`BugReport`].
    pub fn from_report(program: &dyn ControlledProgram, report: &BugReport) -> Self {
        Self::explain(program, &report.schedule)
    }

    /// Renders the witness as deterministic JSON (`witness.json` of an
    /// explanation bundle). Field order is fixed and no wall-clock data
    /// is included, so equal witnesses render byte-identically.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"version\": 1,\n");
        let _ = writeln!(out, "  \"outcome\": \"{}\",", outcome_kind(&self.outcome));
        if let Some(detail) = outcome_detail(&self.outcome) {
            let _ = writeln!(out, "  \"detail\": {},", render::json_string(&detail));
        }
        let _ = writeln!(out, "  \"schedule\": {},", schedule_array(&self.schedule));
        let _ = writeln!(out, "  \"preemptions\": {},", self.preemptions);
        // Fault fields appear only on faulted witnesses, keeping
        // fault-free bundles byte-identical to previous releases.
        if self.faults > 0 {
            let _ = writeln!(out, "  \"faults\": {},", self.faults);
            let _ = writeln!(out, "  \"fault_steps\": {},", fault_array(&self.schedule));
        }
        let _ = writeln!(out, "  \"steps\": {},", self.trace.len());
        let _ = writeln!(out, "  \"shrink_replays\": {},", self.shrink_replays);
        out.push_str("  \"trace\": [\n");
        for (i, e) in self.trace.entries().iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"step\": {}, \"thread\": {}, \"site\": {}, \"enabled\": [{}], \
                 \"preemption\": {}, \"switch\": {}, \"blocking\": {}{}}}{}",
                i,
                e.chosen.index(),
                render::json_string(&e.site.to_string()),
                e.enabled
                    .iter()
                    .map(|t| t.index().to_string())
                    .collect::<Vec<_>>()
                    .join(", "),
                e.is_preemption(),
                e.is_context_switch(),
                e.blocking,
                if e.fault { ", \"fault\": true" } else { "" },
                if i + 1 < self.trace.len() { "," } else { "" },
            );
        }
        out.push_str("  ],\n");
        match &self.nearest_passing {
            None => out.push_str("  \"nearest_passing\": null\n"),
            Some(np) => {
                out.push_str("  \"nearest_passing\": {\n");
                let _ = writeln!(out, "    \"flipped_step\": {},", np.flipped_step);
                if np.flipped_fault {
                    out.push_str("    \"flipped_fault\": true,\n");
                }
                let _ = writeln!(out, "    \"schedule\": {},", schedule_array(&np.schedule));
                let _ = writeln!(out, "    \"outcome\": \"{}\",", outcome_kind(&np.outcome));
                let _ = writeln!(out, "    \"steps\": {},", np.trace.len());
                let _ = writeln!(out, "    \"passes\": {}", np.passes());
                out.push_str("  }\n");
            }
        }
        out.push_str("}\n");
        out
    }

    /// Renders `EXPLANATION.md`: the lane rendering interleaved with
    /// site attribution, the preemption points, and the nearest-passing
    /// diff. `title` names the explained workload.
    pub fn to_markdown(&self, title: &str) -> String {
        let mut out = String::new();
        let _ = write!(out, "# Explaining `{title}`\n\n");
        let _ = write!(out, "**Outcome:** {}\n\n", self.outcome);
        let faults = if self.faults > 0 {
            format!(", {} injected fault{}", self.faults, plural(self.faults))
        } else {
            String::new()
        };
        let _ = write!(
            out,
            "**Witness:** `{}` — {} preemption{}{}, {} steps. Shrunk to the decisive \
             prefix in {} replay{}; past the prefix the preemption-free default \
             policy reaches the bug on its own.\n\n",
            self.schedule,
            self.preemptions,
            plural(self.preemptions),
            faults,
            self.trace.len(),
            self.shrink_replays,
            plural(self.shrink_replays),
        );
        out.push_str("## Interleaving\n\n");
        out.push_str(
            "One column per step; `●` marks the running thread, `!` marks a step \
             reached by preempting the previous thread, `·` marks a thread that was \
             enabled but not chosen.",
        );
        if self.faults > 0 {
            out.push_str(" `×` marks a step whose fallible operation was made to fail.");
        }
        out.push_str("\n\n```text\n");
        out.push_str(&render::lanes(&self.trace));
        out.push_str("\n```\n\n");

        out.push_str("## Preemption points\n\n");
        let preemptions: Vec<(usize, &crate::TraceEntry)> = self
            .trace
            .entries()
            .iter()
            .enumerate()
            .filter(|(_, e)| e.is_preemption())
            .collect();
        if preemptions.is_empty() {
            out.push_str(
                "The failure needs no preemptions: the default scheduling policy \
                 reaches the bug on its own.\n\n",
            );
        } else {
            out.push_str("| step | preempted | ran instead | at site |\n");
            out.push_str("|-----:|-----------|-------------|---------|\n");
            for (i, e) in &preemptions {
                let _ = writeln!(
                    out,
                    "| {} | {} | {} | `{}` |",
                    i,
                    e.current.map_or_else(|| "-".into(), |t| t.to_string()),
                    e.chosen,
                    e.site,
                );
            }
            out.push('\n');
        }

        // The fault table appears only on faulted witnesses so fault-free
        // explanations render byte-identically to previous releases.
        if self.faults > 0 {
            out.push_str("## Injected faults\n\n");
            out.push_str(
                "Steps where the scheduler made a fallible operation fail (marked \
                 `×` in the lanes above).\n\n",
            );
            out.push_str("| step | thread | at site |\n");
            out.push_str("|-----:|--------|---------|\n");
            for (i, e) in self.trace.entries().iter().enumerate() {
                if e.fault {
                    let _ = writeln!(out, "| {} | {} | `{}` |", i, e.chosen, e.site);
                }
            }
            out.push('\n');
        }

        out.push_str("## Step attribution\n\n");
        out.push_str("| step | thread | site | enabled | notes |\n");
        out.push_str("|-----:|--------|------|---------|-------|\n");
        for (i, e) in self.trace.entries().iter().enumerate() {
            let enabled = e
                .enabled
                .iter()
                .map(|t| t.to_string())
                .collect::<Vec<_>>()
                .join(" ");
            let mut notes = Vec::new();
            if e.is_preemption() {
                notes.push("preemption");
            } else if e.is_context_switch() {
                notes.push("switch");
            }
            if e.blocking {
                notes.push("blocking");
            }
            if e.fault {
                notes.push("fault");
            }
            let _ = writeln!(
                out,
                "| {} | {} | `{}` | {} | {} |",
                i,
                e.chosen,
                e.site,
                enabled,
                notes.join(", "),
            );
        }
        out.push('\n');

        out.push_str("## Nearest passing schedule\n\n");
        match &self.nearest_passing {
            None => out.push_str(
                "No preemption to flip: every schedule the default policy extends \
                 from the empty prefix reaches this bug, so there is no adjacent \
                 passing execution to diff against.\n",
            ),
            Some(np) => {
                let e = &self.trace.entries()[np.flipped_step];
                if np.flipped_fault {
                    let _ = write!(
                        out,
                        "Suppressing the final injected fault — letting {}'s operation \
                         at `{}` (step {}) succeed — yields `{}`:\n\n```text\n{}\n```\n\n",
                        e.chosen,
                        e.site,
                        np.flipped_step,
                        np.schedule,
                        render::lanes(&np.trace),
                    );
                    let _ = writeln!(
                        out,
                        "The executions diverge at step {}: the failing run faults at \
                         `{}` and ends with *{}* after {} steps; the fault-free run {} \
                         after {} steps ({}).",
                        np.flipped_step,
                        e.site,
                        self.outcome,
                        self.trace.len(),
                        if np.passes() {
                            "terminates cleanly"
                        } else {
                            "still fails"
                        },
                        np.trace.len(),
                        np.outcome,
                    );
                } else {
                    let _ = write!(
                        out,
                        "Flipping the final preemption — keeping {} running at step {} \
                         instead of preempting it at `{}` — yields `{}`:\n\n```text\n{}\n```\n\n",
                        e.current.map_or_else(|| "-".into(), |t| t.to_string()),
                        np.flipped_step,
                        e.site,
                        np.schedule,
                        render::lanes(&np.trace),
                    );
                    let _ = writeln!(
                        out,
                        "The executions diverge at step {}: the failing run preempts to \
                         {} and ends with *{}* after {} steps; the flipped run {} after \
                         {} steps ({}).",
                        np.flipped_step,
                        e.chosen,
                        self.outcome,
                        self.trace.len(),
                        if np.passes() {
                            "terminates cleanly"
                        } else {
                            "still fails"
                        },
                        np.trace.len(),
                        np.outcome,
                    );
                }
            }
        }
        out
    }
}

/// Flips the last divergence point of `trace`. For a preemption, replays
/// the schedule up to that step, then the thread that was running
/// (instead of the preemptor), then the preemption-free default policy.
/// For an injected fault occurring after the last preemption, replays
/// the same choices with that fault suppressed. Returns `None` for
/// witnesses with neither preemptions nor faults.
fn nearest_passing(program: &dyn ControlledProgram, trace: &Trace) -> Option<NearestPassing> {
    let last_preemption = trace.entries().iter().rposition(|e| e.is_preemption());
    let last_fault = trace.entries().iter().rposition(|e| e.fault);
    let (flipped_step, flipped_fault) = match (last_preemption, last_fault) {
        (Some(p), Some(f)) if p > f => (p, false),
        (_, Some(f)) => (f, true),
        (Some(p), None) => (p, false),
        (None, None) => return None,
    };
    let mut schedule = trace.schedule();
    if flipped_fault {
        // Keep the choices through the faulted step (the same thread
        // runs the same fallible operation, but now succeeds), drop the
        // fault, and let the default policy continue: the post-fault
        // suffix belongs to the failing world and would spuriously
        // diverge.
        schedule.truncate(flipped_step + 1);
        schedule.remove_fault(flipped_step);
    } else {
        let kept = trace.entries()[flipped_step].current?;
        schedule.truncate(flipped_step);
        schedule.push(kept);
    }
    let mut replay = ReplayScheduler::new(schedule.clone());
    let result = program.execute(&mut replay, &mut NullSink);
    Some(NearestPassing {
        flipped_step,
        flipped_fault,
        schedule,
        outcome: result.outcome,
        trace: result.trace,
    })
}

/// The stable kind tag of an outcome, shared with the JSONL telemetry
/// vocabulary.
pub fn outcome_kind(outcome: &ExecutionOutcome) -> &'static str {
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

/// The human-readable detail of a bug outcome (`None` for non-bugs).
pub fn outcome_detail(outcome: &ExecutionOutcome) -> Option<String> {
    outcome.is_bug().then(|| outcome.to_string())
}

fn schedule_array(schedule: &Schedule) -> String {
    let mut out = String::from("[");
    for (i, t) in schedule.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{}", t.index());
    }
    out.push(']');
    out
}

/// The sorted step indices at which `schedule` injects faults, as a JSON
/// array.
fn fault_array(schedule: &Schedule) -> String {
    let mut out = String::from("[");
    for (i, s) in schedule.faults().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{s}");
    }
    out.push(']');
    out
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::testprog::Counters;
    use crate::search::{Search, SearchConfig, Strategy};

    fn buggy() -> Counters {
        Counters {
            n: 2,
            k: 3,
            bug: Some((1, 0, 1)),
        }
    }

    fn first_bug(p: &Counters) -> BugReport {
        Search::over(p)
            .strategy(Strategy::Icb)
            .config(SearchConfig {
                max_executions: Some(100_000),
                ..SearchConfig::default()
            })
            .run()
            .expect("search runs")
            .first_bug()
            .cloned()
            .expect("bug found")
    }

    #[test]
    fn explains_a_witness_end_to_end() {
        let p = buggy();
        let bug = first_bug(&p);
        let w = ExplainedWitness::from_report(&p, &bug);
        assert!(w.outcome.is_bug());
        assert_eq!(
            w.preemptions, bug.preemptions,
            "shrinking preserves minimality"
        );
        assert!(w.schedule.len() <= bug.schedule.len());
        assert!(w.shrink_replays > 0);
        assert_eq!(w.trace.preemptions(), w.preemptions);
        let np = w
            .nearest_passing
            .as_ref()
            .expect("witness has a preemption");
        assert!(np.passes(), "flipping the only preemption avoids the bug");
        assert_ne!(
            np.trace.entries()[np.flipped_step].chosen,
            w.trace.entries()[np.flipped_step].chosen,
            "the executions diverge exactly at the flipped step"
        );
        // Prefixes agree before the flip.
        for i in 0..np.flipped_step {
            assert_eq!(np.trace.entries()[i].chosen, w.trace.entries()[i].chosen,);
        }
    }

    #[test]
    fn preemption_free_witness_has_no_neighbor() {
        let p = Counters {
            n: 2,
            k: 2,
            bug: Some((0, 0, 0)),
        };
        let bug = first_bug(&p);
        let w = ExplainedWitness::from_report(&p, &bug);
        assert_eq!(w.preemptions, 0);
        assert!(w.nearest_passing.is_none());
        assert!(w.to_markdown("counters").contains("No preemption to flip"));
    }

    #[test]
    fn witness_json_is_deterministic_and_well_formed() {
        let p = buggy();
        let bug = first_bug(&p);
        let a = ExplainedWitness::from_report(&p, &bug).to_json();
        let b = ExplainedWitness::from_report(&p, &bug).to_json();
        assert_eq!(
            a, b,
            "explanation is a pure function of (program, schedule)"
        );
        assert!(a.starts_with("{\n  \"version\": 1,\n"));
        assert!(a.contains("\"outcome\": \"assertion-failure\""));
        assert!(a.contains("\"nearest_passing\": {"));
        assert!(a.trim_end().ends_with('}'));
        // Balanced braces/brackets outside strings: cheap well-formedness check.
        let (mut depth, mut square, mut in_str, mut esc) = (0i32, 0i32, false, false);
        for c in a.chars() {
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
        }
        assert_eq!((depth, square, in_str), (0, 0, false));
    }

    #[test]
    fn markdown_interleaves_lanes_and_attribution() {
        let p = buggy();
        let bug = first_bug(&p);
        let md = ExplainedWitness::from_report(&p, &bug).to_markdown("counters");
        assert!(md.contains("# Explaining `counters`"));
        assert!(md.contains("## Interleaving"));
        assert!(md.contains("## Preemption points"));
        assert!(md.contains("## Step attribution"));
        assert!(md.contains("## Nearest passing schedule"));
        assert!(md.contains("T0 │"), "lane rendering embedded");
    }

    #[test]
    fn explains_a_fault_witness() {
        let p = crate::search::testprog::FaultyCounters { n: 2, k: 2 };
        let bug = Search::over(&p)
            .strategy(Strategy::Icb)
            .config(SearchConfig {
                max_executions: Some(100_000),
                fault_bound: 1,
                ..SearchConfig::default()
            })
            .run()
            .expect("search runs")
            .first_bug()
            .cloned()
            .expect("fault bug found");
        assert_eq!(
            (bug.preemptions, bug.faults),
            (0, 1),
            "minimum witness is preemption-free with a single fault"
        );
        let w = ExplainedWitness::from_report(&p, &bug);
        assert!(w.outcome.is_bug());
        assert_eq!((w.preemptions, w.faults), (0, 1));
        assert_eq!(w.schedule.fault_count(), 1);
        let np = w
            .nearest_passing
            .as_ref()
            .expect("fault witnesses always have a flip");
        assert!(np.flipped_fault);
        assert!(np.passes(), "suppressing the only fault avoids the bug");
        let json = w.to_json();
        assert!(json.contains("\"faults\": 1,"), "{json}");
        assert!(json.contains("\"fault_steps\": ["), "{json}");
        assert!(json.contains("\"fault\": true"), "{json}");
        assert!(json.contains("\"flipped_fault\": true,"), "{json}");
        let md = w.to_markdown("faulty-counters");
        assert!(md.contains("## Injected faults"), "{md}");
        assert!(md.contains("1 injected fault,"), "{md}");
        assert!(md.contains("Suppressing the final injected fault"), "{md}");
        assert!(md.contains('×'), "fault marker in lanes: {md}");
    }

    #[test]
    fn fault_free_bundles_render_without_fault_fields() {
        let p = buggy();
        let bug = first_bug(&p);
        let w = ExplainedWitness::from_report(&p, &bug);
        assert!(!w.to_json().contains("\"fault"));
        let md = w.to_markdown("counters");
        assert!(!md.contains("Injected faults"));
        assert!(!md.contains("injected fault"));
    }
}
