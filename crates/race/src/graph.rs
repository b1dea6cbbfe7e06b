//! The happens-before relation as an explicit causal graph.
//!
//! The race detector computes happens-before *implicitly*, as vector
//! clocks threaded through an execution. For bug explanation that
//! relation needs to exist as a first-class artifact: a graph whose
//! nodes are the attributed steps of one trace and whose edges are the
//! generating relation of HB from Section 3.1 of the paper —
//!
//! ```text
//! HB(α) ⊇ { (i, j) | i < j and
//!            (α(i), α(j) same thread  or  same synchronization variable) }
//! ```
//!
//! — restricted to its *covering* edges: each step links to its thread's
//! previous step (program order) and to the previous step on the same
//! synchronization resource (sync order). The transitive closure of
//! these edges is the full HB relation, and each node carries the vector
//! clock that closure induces, so `a` happens before `b` iff
//! `clock(a) ≤ clock(b)`.
//!
//! When the execution ended in a data race, the two racing accesses are
//! highlighted: their clocks are incomparable, which is exactly what the
//! DOT rendering lets a reader verify by eye.
//!
//! Everything here is a pure function of the trace (and outcome), so the
//! renderings are byte-deterministic — a requirement for explanation
//! bundles that must not depend on `--jobs`.

use std::collections::HashMap;
use std::fmt::Write as _;

use icb_core::render::json_string;
use icb_core::{ExecutionOutcome, SiteId, Tid, Trace};

use crate::clock::VectorClock;

/// One node of a [`CausalGraph`]: an attributed step of the trace.
#[derive(Clone, Debug)]
pub struct CausalNode {
    /// The step index within the trace.
    pub step: usize,
    /// The thread that executed the step.
    pub thread: Tid,
    /// The site the step executed ([`SiteId::UNKNOWN`] when the host
    /// did not resolve one).
    pub site: SiteId,
    /// Whether the step was reached by preempting the previous thread.
    pub preemption: bool,
    /// The node's vector clock under the graph's happens-before
    /// closure: `a` happens before `b` iff `a.clock ≤ b.clock`.
    pub clock: VectorClock,
}

/// Which generating relation an edge belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CausalEdgeKind {
    /// Same thread, consecutive steps.
    Program,
    /// Consecutive operations on the same synchronization resource.
    Sync,
}

/// One covering edge of the happens-before relation.
#[derive(Clone, Debug)]
pub struct CausalEdge {
    /// Source node index (the earlier step).
    pub from: usize,
    /// Target node index (the later step).
    pub to: usize,
    /// Program order or sync order.
    pub kind: CausalEdgeKind,
    /// The sync resource inducing a [`CausalEdgeKind::Sync`] edge
    /// (e.g. `lock#1`), `None` for program order.
    pub resource: Option<String>,
}

/// The happens-before relation of one execution as an explicit graph,
/// with DOT ([`to_dot`](CausalGraph::to_dot)) and JSON
/// ([`to_json`](CausalGraph::to_json)) renderers.
#[derive(Clone, Debug)]
pub struct CausalGraph {
    nodes: Vec<CausalNode>,
    edges: Vec<CausalEdge>,
    race: Option<(usize, usize)>,
}

impl CausalGraph {
    /// Builds the graph from a trace alone (no race highlighting).
    pub fn from_trace(trace: &Trace) -> Self {
        Self::build(trace, None)
    }

    /// Builds the graph from an execution's trace and outcome; a
    /// [`DataRace`](ExecutionOutcome::DataRace) outcome highlights the
    /// racing pair of accesses.
    pub fn from_execution(trace: &Trace, outcome: &ExecutionOutcome) -> Self {
        Self::build(trace, racing_threads(outcome))
    }

    fn build(trace: &Trace, racers: Option<(Tid, Tid)>) -> Self {
        let mut nodes: Vec<CausalNode> = Vec::with_capacity(trace.len());
        let mut edges = Vec::new();
        let mut last_of_thread: HashMap<Tid, usize> = HashMap::new();
        let mut last_of_resource: HashMap<String, usize> = HashMap::new();
        for (i, e) in trace.entries().iter().enumerate() {
            let mut clock = VectorClock::new();
            if let Some(&prev) = last_of_thread.get(&e.chosen) {
                edges.push(CausalEdge {
                    from: prev,
                    to: i,
                    kind: CausalEdgeKind::Program,
                    resource: None,
                });
                clock.join(&nodes[prev].clock);
            }
            if let Some(resource) = sync_resource(&e.site) {
                if let Some(&prev) = last_of_resource.get(&resource) {
                    // Skip a sync edge that duplicates the program-order
                    // edge we just added.
                    if last_of_thread.get(&e.chosen) != Some(&prev) {
                        edges.push(CausalEdge {
                            from: prev,
                            to: i,
                            kind: CausalEdgeKind::Sync,
                            resource: Some(resource.clone()),
                        });
                    }
                    clock.join(&nodes[prev].clock);
                }
                last_of_resource.insert(resource, i);
            }
            clock.tick(e.chosen);
            last_of_thread.insert(e.chosen, i);
            nodes.push(CausalNode {
                step: i,
                thread: e.chosen,
                site: e.site,
                preemption: e.is_preemption(),
                clock,
            });
        }
        let race = racers.and_then(|(second, first)| {
            let b = last_data_access(&nodes, second, nodes.len())?;
            let a = last_data_access(&nodes, first, b)?;
            Some((a, b))
        });
        CausalGraph { nodes, edges, race }
    }

    /// The graph's nodes, in step order.
    pub fn nodes(&self) -> &[CausalNode] {
        &self.nodes
    }

    /// The covering edges, ordered by target step.
    pub fn edges(&self) -> &[CausalEdge] {
        &self.edges
    }

    /// The node indices of the racing accesses, when the execution ended
    /// in a data race `(earlier, later)`.
    pub fn race(&self) -> Option<(usize, usize)> {
        self.race
    }

    /// Renders the graph in Graphviz DOT: one horizontal rank per
    /// thread, solid edges for program order, dashed edges labelled with
    /// the resource for sync order, and the racing pair filled red and
    /// joined by a bold red `race` edge.
    pub fn to_dot(&self) -> String {
        let mut out = String::new();
        out.push_str("digraph happens_before {\n");
        out.push_str("  rankdir=LR;\n");
        out.push_str("  node [shape=box, fontsize=10];\n");
        let mut threads: Vec<Tid> = self.nodes.iter().map(|n| n.thread).collect();
        threads.sort_unstable();
        threads.dedup();
        for t in &threads {
            let _ = writeln!(out, "  subgraph cluster_t{} {{", t.index());
            let _ = writeln!(out, "    label=\"{t}\";");
            out.push_str("    style=dashed;\n");
            for n in self.nodes.iter().filter(|n| n.thread == *t) {
                let racing = self.race.is_some_and(|(a, b)| a == n.step || b == n.step);
                let mut attrs = format!(
                    "label=\"s{}\\n{}\", tooltip=\"{}\"",
                    n.step,
                    dot_escape(&n.site.to_string()),
                    dot_escape(&n.clock.to_string()),
                );
                if racing {
                    attrs.push_str(", style=filled, fillcolor=\"#ffc0c0\", color=red");
                } else if n.preemption {
                    attrs.push_str(", style=filled, fillcolor=\"#fff0c0\"");
                }
                let _ = writeln!(out, "    s{} [{}];", n.step, attrs);
            }
            out.push_str("  }\n");
        }
        for e in &self.edges {
            match e.kind {
                CausalEdgeKind::Program => {
                    let _ = writeln!(out, "  s{} -> s{};", e.from, e.to);
                }
                CausalEdgeKind::Sync => {
                    let _ = writeln!(
                        out,
                        "  s{} -> s{} [style=dashed, color=blue, label=\"{}\"];",
                        e.from,
                        e.to,
                        dot_escape(e.resource.as_deref().unwrap_or("")),
                    );
                }
            }
        }
        if let Some((a, b)) = self.race {
            let _ = writeln!(
                out,
                "  s{a} -> s{b} [dir=none, style=bold, color=red, label=\"race\", \
                 constraint=false];",
            );
        }
        out.push_str("}\n");
        out
    }

    /// Renders the graph as deterministic JSON: `nodes` (step, thread,
    /// site, preemption flag, vector clock as `[thread, time]` pairs),
    /// `edges` (from, to, kind, resource) and the racing pair.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"nodes\": [\n");
        for (i, n) in self.nodes.iter().enumerate() {
            let clock = n
                .clock
                .iter()
                .map(|(t, v)| format!("[{}, {}]", t.index(), v))
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(
                out,
                "    {{\"step\": {}, \"thread\": {}, \"site\": {}, \
                 \"preemption\": {}, \"clock\": [{}]}}{}",
                n.step,
                n.thread.index(),
                json_string(&n.site.to_string()),
                n.preemption,
                clock,
                if i + 1 < self.nodes.len() { "," } else { "" },
            );
        }
        out.push_str("  ],\n  \"edges\": [\n");
        for (i, e) in self.edges.iter().enumerate() {
            let kind = match e.kind {
                CausalEdgeKind::Program => "program-order",
                CausalEdgeKind::Sync => "sync-order",
            };
            let resource = match &e.resource {
                Some(r) => json_string(r),
                None => "null".to_string(),
            };
            let _ = writeln!(
                out,
                "    {{\"from\": {}, \"to\": {}, \"kind\": \"{}\", \"resource\": {}}}{}",
                e.from,
                e.to,
                kind,
                resource,
                if i + 1 < self.edges.len() { "," } else { "" },
            );
        }
        out.push_str("  ],\n");
        match self.race {
            Some((a, b)) => {
                let _ = writeln!(out, "  \"race\": [{a}, {b}]");
            }
            None => out.push_str("  \"race\": null\n"),
        }
        out.push_str("}\n");
        out
    }
}

/// Maps a site to the synchronization resource it touches, or `None`
/// for purely thread-local / data steps (program order only).
///
/// Runtime hosts attribute sites as `class#object`
/// ([`SiteId::op`]), which names the resource exactly. VM hosts
/// attribute per-thread instruction locations ([`SiteId::at`]) whose
/// object is a program counter, not a lock identity — their sync
/// operations are conservatively folded into a single `vm-sync`
/// resource, over-approximating sync order (extra HB edges, never
/// missing ones).
fn sync_resource(site: &SiteId) -> Option<String> {
    if site.thread != SiteId::ANY_THREAD {
        // VM-style location site.
        return match site.class {
            "acquire" | "release" | "rmw" | "cas" => Some("vm-sync".to_string()),
            _ => None,
        };
    }
    let namespace = match site.class {
        "acquire" | "release" | "try-acquire" => "lock",
        "cond-wait" | "cond-reacquire" | "notify" => "cv",
        "sem-acquire" | "sem-release" => "sem",
        "event-wait" | "event-set" | "event-reset" => "event",
        "atomic" => "atomic",
        "rw-acquire-w" | "rw-acquire-r" | "rw-release-w" | "rw-release-r" => "rw",
        "barrier-arrive" | "barrier-wait" => "barrier",
        // spawn/join order the threads themselves; the child's first /
        // joiner's next step is already program-ordered behind them in
        // any single trace, but cross-thread creation order matters:
        "spawn" | "join" => "thread-lifecycle",
        _ => return None,
    };
    Some(format!("{}#{}", namespace, site.object))
}

/// The threads named by a data-race outcome, `(second access, first
/// access)` — the order they appear in the detector's description
/// (`"write by T1 races with read by T0 on x"`).
fn racing_threads(outcome: &ExecutionOutcome) -> Option<(Tid, Tid)> {
    let ExecutionOutcome::DataRace { description } = outcome else {
        return None;
    };
    let mut tids = description.split_whitespace().filter_map(|tok| {
        let digits = tok.strip_prefix('T')?;
        digits.parse::<usize>().ok().map(Tid)
    });
    let second = tids.next()?;
    let first = tids.next()?;
    Some((second, first))
}

/// The last step of `thread` before node index `before` that looks like
/// a data access, falling back to its last step of any kind (hosts that
/// do not attribute sites still get a highlighted pair).
fn last_data_access(nodes: &[CausalNode], thread: Tid, before: usize) -> Option<usize> {
    let is_data = |n: &CausalNode| {
        matches!(
            n.site.class,
            "data" | "load" | "store" | "load-arr" | "store-arr"
        )
    };
    let mine = nodes[..before].iter().rev().filter(|n| n.thread == thread);
    mine.clone()
        .find(|n| is_data(n))
        .or_else(|| mine.clone().next())
        .map(|n| n.step)
}

fn dot_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use icb_core::TraceEntry;

    fn entry(chosen: usize, current: Option<usize>, cur_en: bool, site: SiteId) -> TraceEntry {
        TraceEntry::new(
            Tid(chosen),
            vec![Tid(0), Tid(1)],
            current.map(Tid),
            cur_en,
            false,
        )
        .with_site(site)
    }

    /// T0: data(x), acquire(l), release(l); T1 preempts: acquire(l), data(x).
    fn locked_trace() -> Trace {
        vec![
            entry(0, None, false, SiteId::op("data", 7)),
            entry(0, Some(0), true, SiteId::op("acquire", 1)),
            entry(0, Some(0), true, SiteId::op("release", 1)),
            entry(1, Some(0), true, SiteId::op("acquire", 1)),
            entry(1, Some(1), true, SiteId::op("data", 7)),
        ]
        .into()
    }

    #[test]
    fn covering_edges_generate_happens_before() {
        let g = CausalGraph::from_trace(&locked_trace());
        assert_eq!(g.nodes().len(), 5);
        let program: Vec<(usize, usize)> = g
            .edges()
            .iter()
            .filter(|e| e.kind == CausalEdgeKind::Program)
            .map(|e| (e.from, e.to))
            .collect();
        assert_eq!(program, vec![(0, 1), (1, 2), (3, 4)]);
        let sync: Vec<(usize, usize, &str)> = g
            .edges()
            .iter()
            .filter(|e| e.kind == CausalEdgeKind::Sync)
            .map(|e| (e.from, e.to, e.resource.as_deref().unwrap()))
            .collect();
        assert_eq!(sync, vec![(2, 3, "lock#1")], "release → acquire on lock#1");
    }

    #[test]
    fn node_clocks_encode_the_hb_closure() {
        let g = CausalGraph::from_trace(&locked_trace());
        // T0's data access (step 0) happens before T1's (step 4) via the
        // lock hand-off.
        assert!(g.nodes()[0].clock.le(&g.nodes()[4].clock));
        // But without the lock edge the reverse never holds.
        assert!(!g.nodes()[4].clock.le(&g.nodes()[0].clock));
    }

    #[test]
    fn racing_accesses_are_concurrent_and_highlighted() {
        // No lock: T0 writes x, T1 preempts and writes x.
        let trace: Trace = vec![
            entry(0, None, false, SiteId::op("data", 7)),
            entry(1, Some(0), true, SiteId::op("data", 7)),
        ]
        .into();
        let outcome = ExecutionOutcome::DataRace {
            description: "write by T1 races with write by T0 on x".into(),
        };
        let g = CausalGraph::from_execution(&trace, &outcome);
        let (a, b) = g.race().expect("racing pair resolved");
        assert_eq!((a, b), (0, 1));
        assert_eq!(
            g.nodes()[a].clock.compare(&g.nodes()[b].clock),
            crate::ClockOrdering::Concurrent,
            "racing accesses are unordered by HB"
        );
        let dot = g.to_dot();
        assert!(dot.contains("color=red"), "race highlighted:\n{dot}");
        assert!(dot.contains("label=\"race\""));
    }

    #[test]
    fn dot_and_json_are_deterministic_and_structured() {
        let t = locked_trace();
        let g1 = CausalGraph::from_trace(&t);
        let g2 = CausalGraph::from_trace(&t);
        assert_eq!(g1.to_dot(), g2.to_dot());
        assert_eq!(g1.to_json(), g2.to_json());
        let dot = g1.to_dot();
        assert!(dot.starts_with("digraph happens_before {"));
        assert!(dot.contains("subgraph cluster_t0"));
        assert!(dot.contains("subgraph cluster_t1"));
        assert!(dot.trim_end().ends_with('}'));
        let json = g1.to_json();
        assert!(json.contains("\"kind\": \"sync-order\""));
        assert!(json.contains("\"resource\": \"lock#1\""));
        assert!(json.contains("\"race\": null"));
    }

    #[test]
    fn vm_sites_fold_into_one_sync_resource() {
        let t: Trace = vec![
            entry(0, None, false, SiteId::at(0, "acquire", 3)),
            entry(1, Some(0), true, SiteId::at(1, "acquire", 9)),
            entry(1, Some(1), true, SiteId::at(1, "load", 4)),
        ]
        .into();
        let g = CausalGraph::from_trace(&t);
        let sync: Vec<&str> = g
            .edges()
            .iter()
            .filter(|e| e.kind == CausalEdgeKind::Sync)
            .map(|e| e.resource.as_deref().unwrap())
            .collect();
        assert_eq!(sync, vec!["vm-sync"]);
    }

    #[test]
    fn unattributed_traces_still_get_a_race_pair() {
        let t: Trace = vec![
            entry(0, None, false, SiteId::UNKNOWN),
            entry(1, Some(0), true, SiteId::UNKNOWN),
        ]
        .into();
        let outcome = ExecutionOutcome::DataRace {
            description: "read by T1 races with write by T0 on data[3]".into(),
        };
        let g = CausalGraph::from_execution(&t, &outcome);
        assert_eq!(g.race(), Some((0, 1)));
    }
}
