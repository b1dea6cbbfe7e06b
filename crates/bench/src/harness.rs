//! A minimal, dependency-free benchmark harness.
//!
//! The workspace builds in hermetic environments without a crate
//! registry, so the `[[bench]]` targets cannot use criterion. This
//! module provides the small subset the benches need — named groups,
//! per-group sample counts, warmup, iteration-count calibration and
//! median/mean reporting — behind a deliberately criterion-shaped API so
//! the bench files read the same way.
//!
//! Methodology per benchmark:
//!
//! 1. warm up for `WARMUP` (at least one call);
//! 2. calibrate an iteration count so one sample lasts ≥ `MIN_SAMPLE`;
//! 3. take `sample_size` samples of that many iterations;
//! 4. report min / median / mean ns per iteration.
//!
//! `cargo bench -- <substring>` filters by `group/benchmark` id, as with
//! criterion.

use std::time::{Duration, Instant};

/// Warmup budget before any measurement.
const WARMUP: Duration = Duration::from_millis(100);
/// Target minimum wall time for one sample.
const MIN_SAMPLE: Duration = Duration::from_millis(5);
/// Iteration-count ceiling per sample (nanosecond-scale bodies).
const MAX_ITERS: u64 = 1 << 22;

/// Re-exported compiler barrier for benchmark results.
pub use std::hint::black_box;

/// The harness entry point: parses CLI filters and runs groups.
#[derive(Debug)]
pub struct Harness {
    filter: Option<String>,
}

impl Harness {
    /// Builds a harness from the process arguments. Flags injected by
    /// `cargo bench` (`--bench`, etc.) are ignored; the first free
    /// argument is a substring filter on `group/benchmark` ids.
    pub fn from_args() -> Self {
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Harness { filter }
    }

    /// Opens a named benchmark group.
    pub fn group(&mut self, name: &str) -> Group<'_> {
        Group {
            harness: self,
            name: name.to_string(),
            sample_size: 20,
        }
    }

    fn matches(&self, id: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| id.contains(f))
    }
}

/// A named group of benchmarks sharing a sample count.
#[derive(Debug)]
pub struct Group<'h> {
    harness: &'h mut Harness,
    name: String,
    sample_size: usize,
}

impl Group<'_> {
    /// Sets how many timed samples each benchmark takes.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Measures `body` and prints one result line. The closure's return
    /// value is passed through [`black_box`] so the computation cannot
    /// be optimized away.
    pub fn bench_function<R>(&mut self, id: &str, mut body: impl FnMut() -> R) {
        let full = format!("{}/{}", self.name, id);
        if !self.harness.matches(&full) {
            return;
        }
        // Warm up.
        let start = Instant::now();
        loop {
            black_box(body());
            if start.elapsed() >= WARMUP {
                break;
            }
        }
        // Calibrate iterations per sample.
        let mut iters: u64 = 1;
        loop {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(body());
            }
            if t.elapsed() >= MIN_SAMPLE || iters >= MAX_ITERS {
                break;
            }
            iters = iters.saturating_mul(2).min(MAX_ITERS);
        }
        // Measure.
        let mut samples_ns: Vec<f64> = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(body());
            }
            samples_ns.push(t.elapsed().as_nanos() as f64 / iters as f64);
        }
        samples_ns.sort_by(|a, b| a.total_cmp(b));
        let min = samples_ns[0];
        let median = samples_ns[samples_ns.len() / 2];
        let mean = samples_ns.iter().sum::<f64>() / samples_ns.len() as f64;
        println!(
            "{full:<55} median {:>12}  mean {:>12}  min {:>12}  ({} samples x {iters} iters)",
            fmt_ns(median),
            fmt_ns(mean),
            fmt_ns(min),
            samples_ns.len(),
        );
    }

    /// Ends the group (parity with the criterion API; prints nothing).
    pub fn finish(self) {}
}

/// Formats nanoseconds with an adaptive unit.
fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} us", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_matches_substrings() {
        let h = Harness {
            filter: Some("clock".into()),
        };
        assert!(h.matches("vector_clock/join_8_threads"));
        assert!(!h.matches("race_detector/locked_access_cycle"));
        let all = Harness { filter: None };
        assert!(all.matches("anything"));
    }

    #[test]
    fn fmt_ns_picks_units() {
        assert_eq!(fmt_ns(12.0), "12.0 ns");
        assert_eq!(fmt_ns(12_500.0), "12.50 us");
        assert_eq!(fmt_ns(12_500_000.0), "12.50 ms");
        assert_eq!(fmt_ns(2_500_000_000.0), "2.500 s");
    }
}
