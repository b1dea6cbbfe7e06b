//! Human-readable rendering of traces: per-thread lanes with context
//! switches and preemptions marked — for bug reports and examples —
//! and the JSON string encoder the JSON writers share.

use std::fmt::Write as _;

use crate::trace::Trace;

/// Renders a trace as per-thread lanes.
///
/// Each column is one step; the running thread's lane shows `●` (or `!`
/// when it was scheduled *by preempting* the previous thread, or `×`
/// when the scheduler injected a fault at that step's fallible
/// operation), other lanes show `·` if enabled at that point and space
/// if not. The summary line states the step, switch and preemption
/// counts, plus the fault count when any were injected.
///
/// # Examples
///
/// ```
/// use icb_core::{Tid, Trace, TraceEntry};
/// let trace: Trace = vec![
///     TraceEntry::new(Tid(0), vec![Tid(0), Tid(1)], None, false, false),
///     TraceEntry::new(Tid(1), vec![Tid(0), Tid(1)], Some(Tid(0)), true, false),
/// ].into();
/// let lanes = icb_core::render::lanes(&trace);
/// assert!(lanes.contains("T0 │●"));
/// assert!(lanes.contains("!")); // the preemption marker
/// ```
pub fn lanes(trace: &Trace) -> String {
    lanes_wrapped(trace, usize::MAX)
}

/// Like [`lanes`], but wraps the step columns at `width` per block so
/// long traces stay readable in a terminal. Blocks after the first are
/// introduced by a `── steps a..b ──` header line. The gutter widens
/// with the largest thread id (`T9 │` / `T10│` / `T100│` all align), so
/// traces with more than ten threads no longer misalign.
///
/// # Panics
///
/// Panics if `width` is zero.
pub fn lanes_wrapped(trace: &Trace, width: usize) -> String {
    assert!(width > 0, "wrap width must be at least one column");
    let entries = trace.entries();
    let threads = entries
        .iter()
        .flat_map(|e| e.enabled.iter().map(|t| t.index()))
        .chain(entries.iter().map(|e| e.chosen.index()))
        .max()
        .map_or(0, |m| m + 1);
    let gutter = threads
        .checked_sub(1)
        .map_or(2, |m| decimal_digits(m).max(2));
    let mut out = String::new();
    let mut start = 0usize;
    loop {
        let end = entries.len().min(start.saturating_add(width));
        if start > 0 {
            let _ = writeln!(out, "── steps {start}..{end} ──");
        }
        for t in 0..threads {
            let _ = write!(out, "T{t:<gutter$}│");
            for e in &entries[start..end] {
                let c = if e.chosen.index() == t {
                    if e.fault {
                        '×'
                    } else if e.is_preemption() {
                        '!'
                    } else {
                        '●'
                    }
                } else if e.enabled.iter().any(|x| x.index() == t) {
                    '·'
                } else {
                    ' '
                };
                out.push(c);
            }
            out.push('\n');
        }
        start = end;
        if start >= entries.len() {
            break;
        }
    }
    let _ = write!(
        out,
        "{} steps, {} context switches ({} preempting, marked `!`)",
        trace.len(),
        trace.context_switches(),
        trace.preemptions(),
    );
    // Emitted only for faulted traces so fault-free renderings stay
    // byte-identical to previous releases.
    let faults = trace.faults();
    if faults > 0 {
        let noun = if faults == 1 { "fault" } else { "faults" };
        let _ = write!(out, ", {faults} {noun} injected (marked `×`)");
    }
    out
}

fn decimal_digits(mut n: usize) -> usize {
    let mut d = 1;
    while n >= 10 {
        n /= 10;
        d += 1;
    }
    d
}

/// One-line summary of a trace: the schedule in run-length form
/// (`T0×3 T1×2 …`) with preemptions marked.
pub fn compact(trace: &Trace) -> String {
    let mut out = String::new();
    let mut run: Option<(usize, usize, bool)> = None; // (tid, count, preempted-into)
    let flush = |out: &mut String, run: Option<(usize, usize, bool)>| {
        if let Some((tid, count, preempted)) = run {
            if !out.is_empty() {
                out.push(' ');
            }
            if preempted {
                out.push('!');
            }
            let _ = write!(out, "T{tid}×{count}");
        }
    };
    for e in trace.entries() {
        match run {
            Some((tid, count, preempted)) if tid == e.chosen.index() => {
                run = Some((tid, count + 1, preempted));
            }
            prev => {
                flush(&mut out, prev);
                run = Some((e.chosen.index(), 1, e.is_preemption()));
            }
        }
    }
    flush(&mut out, run);
    out
}

/// Quotes and escapes `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
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
    use crate::tid::Tid;
    use crate::trace::TraceEntry;

    fn sample() -> Trace {
        vec![
            TraceEntry::new(Tid(0), vec![Tid(0), Tid(1)], None, false, false),
            TraceEntry::new(Tid(0), vec![Tid(0), Tid(1)], Some(Tid(0)), true, false),
            TraceEntry::new(Tid(1), vec![Tid(0), Tid(1)], Some(Tid(0)), true, false),
            TraceEntry::new(Tid(0), vec![Tid(0)], Some(Tid(1)), false, false),
        ]
        .into()
    }

    #[test]
    fn lanes_mark_preemptions() {
        let s = lanes(&sample());
        assert!(s.contains("T0 │●●·●"), "got:\n{s}");
        assert!(s.contains("T1 │··! "), "got:\n{s}");
        assert!(s.contains("4 steps, 2 context switches (1 preempting"));
    }

    #[test]
    fn lanes_mark_injected_faults() {
        let trace: Trace = vec![
            TraceEntry::new(Tid(0), vec![Tid(0), Tid(1)], None, false, false),
            TraceEntry::new(Tid(1), vec![Tid(0), Tid(1)], Some(Tid(0)), true, false)
                .with_fault(true),
        ]
        .into();
        let s = lanes(&trace);
        assert!(s.contains("T1 │·×"), "got:\n{s}");
        assert!(s.contains("1 fault injected (marked `×`)"), "got:\n{s}");
        // Fault-free traces keep the legacy summary line verbatim.
        assert!(!lanes(&sample()).contains("fault"));
    }

    #[test]
    fn compact_run_length_encodes() {
        let s = compact(&sample());
        assert_eq!(s, "T0×2 !T1×1 T0×1");
    }

    #[test]
    fn empty_trace_renders() {
        let t = Trace::new();
        assert!(lanes(&t).contains("0 steps"));
        assert_eq!(compact(&t), "");
    }

    #[test]
    fn wide_traces_keep_the_gutter_aligned() {
        // 12 threads: two-digit ids used to overflow the fixed 2-char pad
        // only by luck of `{t:<2}` (fine for T10) — but a 100-thread trace
        // needs 3 columns. Check all gutters share one width.
        let enabled: Vec<Tid> = (0..101).map(Tid).collect();
        let trace: Trace = vec![TraceEntry::new(Tid(100), enabled, None, false, false)].into();
        let s = lanes(&trace);
        let widths: std::collections::BTreeSet<usize> = s
            .lines()
            .filter(|l| l.contains('│'))
            .map(|l| l.split('│').next().unwrap().chars().count())
            .collect();
        assert_eq!(widths.len(), 1, "misaligned gutters:\n{s}");
        assert!(s.contains("T100│"));
        assert!(s.contains("T0  │"));
    }

    #[test]
    fn wrapped_lanes_split_into_blocks() {
        let mut entries = vec![TraceEntry::new(
            Tid(0),
            vec![Tid(0), Tid(1)],
            None,
            false,
            false,
        )];
        for i in 1..10 {
            let chosen = Tid(i % 2);
            entries.push(TraceEntry::new(
                chosen,
                vec![Tid(0), Tid(1)],
                Some(Tid((i - 1) % 2)),
                true,
                false,
            ));
        }
        let trace: Trace = entries.into();
        let s = lanes_wrapped(&trace, 4);
        assert!(s.contains("── steps 4..8 ──"), "got:\n{s}");
        assert!(s.contains("── steps 8..10 ──"), "got:\n{s}");
        // Each block renders at most 4 step columns.
        for line in s.lines().filter(|l| l.contains('│')) {
            let cols = line.split('│').nth(1).unwrap().chars().count();
            assert!(cols <= 4, "block too wide: {line:?}");
        }
        // Unwrapped rendering of the same trace stays on one block.
        assert!(!lanes(&trace).contains("── steps"));
    }

    #[test]
    #[should_panic(expected = "wrap width")]
    fn zero_wrap_width_is_rejected() {
        let _ = lanes_wrapped(&Trace::new(), 0);
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("line\r\tbreak"), "\"line\\r\\tbreak\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}
