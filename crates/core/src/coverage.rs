//! Distinct-state coverage tracking.
//!
//! The paper argues (Section 2.1) that the number of *distinct visited
//! states* is the right coverage notion for a semantics-based checker, and
//! all of its figures plot it. Programs under test report a 64-bit
//! fingerprint of the state reached after every step:
//!
//! * the explicit-state VM hashes the concrete state;
//! * the stateless runtime hashes the happens-before relation of the
//!   execution prefix (Section 4.3 of the paper), so that equivalent
//!   interleavings of independent steps map to the same fingerprint.

use std::collections::HashSet;

// The hash primitives historically lived here; they are now shared from
// [`crate::hash`] (the cache segment format and the race-fingerprint
// layer use the same functions), re-exported for compatibility.
pub use crate::hash::{fingerprint_bytes, mix64};

/// Receiver of state fingerprints during an execution.
pub trait StateSink {
    /// Records that a state with the given fingerprint was visited.
    fn visit(&mut self, fingerprint: u64);
}

impl<S: StateSink + ?Sized> StateSink for &mut S {
    fn visit(&mut self, fingerprint: u64) {
        (**self).visit(fingerprint)
    }
}

/// A sink that discards fingerprints, for searches that do not measure
/// coverage.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl StateSink for NullSink {
    fn visit(&mut self, _fingerprint: u64) {}
}

/// Accumulates distinct state fingerprints and a coverage growth curve.
///
/// # Examples
///
/// ```
/// use icb_core::{CoverageTracker, StateSink};
/// let mut cov = CoverageTracker::new();
/// cov.visit(1);
/// cov.visit(2);
/// cov.visit(1);
/// assert_eq!(cov.distinct_states(), 2);
/// cov.end_execution();
/// assert_eq!(cov.curve(), &[(1, 2)]);
/// ```
#[derive(Clone, Debug)]
pub struct CoverageTracker {
    seen: HashSet<u64>,
    executions: usize,
    curve: Vec<(usize, usize)>,
    stride: usize,
}

impl Default for CoverageTracker {
    fn default() -> Self {
        CoverageTracker {
            seen: HashSet::new(),
            executions: 0,
            curve: Vec::new(),
            stride: 1,
        }
    }
}

impl CoverageTracker {
    /// Creates an empty tracker sampling the growth curve at every
    /// execution.
    pub fn new() -> Self {
        CoverageTracker::default()
    }

    /// Sets the growth-curve sampling stride: one curve point per
    /// `stride` executions instead of one per execution, so
    /// million-execution runs don't hold a point per execution. The
    /// final execution is always sampled (by
    /// [`into_curve`](CoverageTracker::into_curve)), so the curve's end
    /// point matches the run totals at any stride. A stride of 0 is
    /// treated as 1 (the legacy point-per-execution behavior).
    pub fn with_stride(mut self, stride: usize) -> Self {
        self.stride = stride.max(1);
        self
    }

    /// Number of distinct states seen so far.
    pub fn distinct_states(&self) -> usize {
        self.seen.len()
    }

    /// Number of completed executions.
    pub fn executions(&self) -> usize {
        self.executions
    }

    /// Returns `true` if `fingerprint` has been visited.
    pub fn contains(&self, fingerprint: u64) -> bool {
        self.seen.contains(&fingerprint)
    }

    /// Marks the end of one execution, appending a sample
    /// `(executions, distinct_states)` to the growth curve (subject to
    /// the sampling stride).
    pub fn end_execution(&mut self) {
        self.executions += 1;
        if self.executions.is_multiple_of(self.stride) {
            self.curve.push((self.executions, self.seen.len()));
        }
    }

    /// Appends a curve sample `(executions, distinct_states)` outside
    /// the per-execution stride (a parallel search samples at barriers).
    pub(crate) fn sample(&mut self, executions: usize) {
        self.curve.push((executions, self.seen.len()));
    }

    /// The coverage growth curve: cumulative distinct states after each
    /// execution. This is the raw data behind Figures 2, 5 and 6.
    pub fn curve(&self) -> &[(usize, usize)] {
        &self.curve
    }

    /// Consumes the tracker, returning the growth curve. When the
    /// sampling stride skipped the final execution, a closing point is
    /// appended so the curve always ends at the run's true totals.
    pub fn into_curve(mut self) -> Vec<(usize, usize)> {
        if self.executions > 0 && self.curve.last().map(|&(e, _)| e) != Some(self.executions) {
            self.curve.push((self.executions, self.seen.len()));
        }
        self.curve
    }

    /// The distinct state fingerprints seen so far, sorted — the
    /// serializable complement of [`restore`](CoverageTracker::restore)
    /// for checkpointing (sorting makes snapshots byte-deterministic).
    pub fn state_hashes(&self) -> Vec<u64> {
        let mut hashes: Vec<u64> = self.seen.iter().copied().collect();
        hashes.sort_unstable();
        hashes
    }

    /// Rebuilds a tracker from checkpointed parts: the distinct state
    /// fingerprints, the completed-execution count, and the growth
    /// curve.
    pub fn restore(states: Vec<u64>, executions: usize, curve: Vec<(usize, usize)>) -> Self {
        CoverageTracker {
            seen: states.into_iter().collect(),
            executions,
            curve,
            stride: 1,
        }
    }
}

impl StateSink for CoverageTracker {
    fn visit(&mut self, fingerprint: u64) {
        self.seen.insert(fingerprint);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_counts_distinct() {
        let mut t = CoverageTracker::new();
        for f in [1u64, 2, 3, 2, 1] {
            t.visit(f);
        }
        assert_eq!(t.distinct_states(), 3);
        assert!(t.contains(2));
        assert!(!t.contains(9));
    }

    #[test]
    fn curve_samples_per_execution() {
        let mut t = CoverageTracker::new();
        t.visit(1);
        t.end_execution();
        t.visit(1);
        t.visit(2);
        t.end_execution();
        assert_eq!(t.curve(), &[(1, 1), (2, 2)]);
        assert_eq!(t.executions(), 2);
    }

    #[test]
    fn reexported_hashes_are_the_shared_ones() {
        // The historical home of the hash functions must keep exposing
        // the canonical `crate::hash` implementations.
        assert_eq!(
            fingerprint_bytes(b"x"),
            crate::hash::fingerprint_bytes(b"x")
        );
        assert_eq!(mix64(7), crate::hash::mix64(7));
    }

    #[test]
    fn stride_thins_the_curve_but_keeps_the_end_point() {
        let mut t = CoverageTracker::new().with_stride(3);
        for f in 0..7u64 {
            t.visit(f);
            t.end_execution();
        }
        // Only every third execution is sampled...
        assert_eq!(t.curve(), &[(3, 3), (6, 6)]);
        // ...but the consumed curve is closed at the true totals.
        assert_eq!(t.into_curve().last(), Some(&(7, 7)));
    }

    #[test]
    fn default_stride_preserves_point_per_execution() {
        let mut t = CoverageTracker::new();
        t.visit(1);
        t.end_execution();
        t.visit(2);
        t.end_execution();
        assert_eq!(t.clone().into_curve(), vec![(1, 1), (2, 2)]);
        assert_eq!(t.curve(), &[(1, 1), (2, 2)]);
    }

    #[test]
    fn null_sink_ignores() {
        let mut s = NullSink;
        s.visit(42); // must not panic
    }
}
