//! Summary statistics and the comparison rule `perf diff` applies.

/// Median, quartiles and sample count of one metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    /// Quartiles by the "exclusive" method of Python's
    /// `statistics.quantiles(values, n=4)`, so the spreads printed here
    /// match the ones computed from the same values elsewhere. With a
    /// single sample all three quartiles are that sample.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut xs = values.to_vec();
        xs.sort_by(f64::total_cmp);
        let n = xs.len();
        match n {
            0 => None,
            1 => Some(Summary {
                n,
                q1: xs[0],
                median: xs[0],
                q3: xs[0],
            }),
            _ => {
                let m = n + 1;
                let cut = |i: usize| {
                    let j = (i * m / 4).clamp(1, n - 1);
                    let delta = (i * m) as f64 - (j * 4) as f64;
                    (xs[j - 1] * (4.0 - delta) + xs[j] * delta) / 4.0
                };
                Some(Summary {
                    n,
                    q1: cut(1),
                    median: cut(2),
                    q3: cut(3),
                })
            }
        }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The median of `values` (0 for no values).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).map_or(0.0, |s| s.median)
}

/// The highest of the 99.9th, 99th and 90th percentiles that still has
/// at least ten samples beyond it among `n` samples, or `None` when not
/// even the 90th does (fewer than 100 samples).
pub fn tail_percentile(n: usize) -> Option<f64> {
    // In tenths of a percent, so the count beyond is exact.
    [999, 990, 900]
        .into_iter()
        .find(|&p| n * (1000 - p) >= 10 * 1000)
        .map(|p| p as f64 / 10.0)
}

/// The `p`-th percentile of `values` by nearest rank.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut xs = values.to_vec();
    xs.sort_by(f64::total_cmp);
    if xs.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

/// What a change did to one metric on one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The change won at least nine tenths of at least ten pairs and its
    /// median moved by more than the parent's interquartile range.
    Improved,
    /// The change's median is worse than the parent's by more than the
    /// metric's bound.
    Regressed,
    /// Neither of the above, with run-to-run spread inside the bound.
    Unchanged,
    /// The spread between runs of one side is wider than the bound, so
    /// "unchanged" cannot be claimed.
    Unresolved,
}

impl Verdict {
    pub fn as_str(&self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// A parent/change comparison of one metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Comparison {
    pub parent: Summary,
    pub change: Summary,
    /// Pairs the change won (ties count for neither side).
    pub wins: usize,
    /// Pairs compared: the median of the parent's run `i` against that
    /// of the change's run `i`.
    pub pairs: usize,
    pub verdict: Verdict,
}

/// Pairs below which no gain is claimed.
pub const MIN_PAIRS: usize = 10;

/// Compares a metric's runs on the parent and on the change; each run is
/// the per-trial values of one measurement. Medians and quartiles pool
/// every trial of a side. Wins are counted per run, not per trial:
/// trials of one run share the machine's state at the time, so only
/// separate (ideally alternating) runs make independent pairs. The
/// regression bound is `bound`, a share of the parent's median, and the
/// better direction is down when `lower_is_better`.
pub fn compare(
    parent: &[Vec<f64>],
    change: &[Vec<f64>],
    bound: f64,
    lower_is_better: bool,
) -> Option<Comparison> {
    let p = Summary::of(&parent.concat())?;
    let c = Summary::of(&change.concat())?;
    let better = |a: f64, b: f64| if lower_is_better { a < b } else { a > b };
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(pv, cv)| better(median(cv), median(pv)))
        .count();
    let gap = c.median - p.median;
    let worse_by = if lower_is_better { gap } else { -gap };
    let allowance = bound * p.median.abs();
    let verdict = if pairs >= MIN_PAIRS
        && wins * 10 >= pairs * 9
        && better(c.median, p.median)
        && gap.abs() > p.q3 - p.q1
    {
        Verdict::Improved
    } else if p.spread() > bound || c.spread() > bound {
        Verdict::Unresolved
    } else if worse_by > allowance {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    };
    Some(Comparison {
        parent: p,
        change: c,
        wins,
        pairs,
        verdict,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&xs).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert_eq!(Summary::of(&[7.0]).unwrap().median, 7.0);
        assert_eq!(Summary::of(&[]), None);
        assert_eq!(median(&[4.0, 1.0, 9.0, 2.0]), 3.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), 990.0);
        assert_eq!(percentile(&xs, 50.0), 500.0);
    }

    /// One run per value.
    fn runs(values: &[f64]) -> Vec<Vec<f64>> {
        values.iter().map(|&x| vec![x]).collect()
    }

    #[test]
    fn verdicts_follow_wins_spread_and_bound() {
        let parent = runs(&[10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]);
        let scaled = |f: f64| -> Vec<Vec<f64>> { parent.iter().map(|r| vec![r[0] * f]).collect() };
        // Every pair won and the gap dwarfs the parent's IQR.
        let faster = scaled(0.8);
        let c = compare(&parent, &faster, 0.1, true).unwrap();
        assert_eq!((c.wins, c.pairs, c.verdict), (10, 10, Verdict::Improved));
        // 20% slower against a 10% bound.
        let slower = scaled(1.2);
        assert_eq!(
            compare(&parent, &slower, 0.1, true).unwrap().verdict,
            Verdict::Regressed
        );
        // 3% slower: inside the bound.
        assert_eq!(
            compare(&parent, &scaled(1.03), 0.1, true).unwrap().verdict,
            Verdict::Unchanged
        );
        // Higher-is-better metrics flip the direction.
        assert_eq!(
            compare(&parent, &slower, 0.1, false).unwrap().verdict,
            Verdict::Improved
        );
        // A spread wider than the bound cannot be called unchanged.
        let noisy = runs(&[5.0, 15.0, 10.0, 7.0, 13.0, 10.0, 6.0, 14.0, 10.0, 10.0]);
        assert_eq!(
            compare(&noisy, &noisy, 0.1, true).unwrap().verdict,
            Verdict::Unresolved
        );
        // Three wins out of three pairs are too few pairs to claim a gain.
        assert_eq!(
            compare(&parent[..3], &faster[..3], 0.1, true)
                .unwrap()
                .verdict,
            Verdict::Unchanged
        );
        // Ten faster trials of one run are one pair, not ten.
        let (one_parent, one_faster) = (vec![parent.concat()], vec![faster.concat()]);
        let c = compare(&one_parent, &one_faster, 0.1, true).unwrap();
        assert_eq!((c.wins, c.pairs, c.verdict), (1, 1, Verdict::Unchanged));
        // Eight wins out of ten is not enough, whatever the gap.
        let mut mixed = faster.clone();
        mixed[0] = vec![11.0];
        mixed[1] = vec![11.0];
        assert_eq!(
            compare(&parent, &mixed, 0.5, true).unwrap().verdict,
            Verdict::Unchanged
        );
    }
}
