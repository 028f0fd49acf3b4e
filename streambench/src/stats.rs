//! Order statistics for the benchmark: medians, quartiles, the
//! better-quartile round rule, a percentile that reports how many
//! samples lie beyond it, and the comparison verdict.

/// Median of `values` (mean of the middle pair for even lengths); `0`
/// for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        m if m % 2 == 1 => v[m / 2],
        m => (v[m / 2 - 1] + v[m / 2]) / 2.0,
    }
}

/// First and third quartile by the rule of Python's
/// `statistics.quantiles(values, n=4)` (its default, "exclusive",
/// method), so spreads computed here match the ones a driver computes
/// with Python. A single value is its own quartiles; empty input gives
/// `(0, 0)`.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Median and quartiles of a set of runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Median value.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of values summarised.
    pub count: usize,
}

impl Summary {
    /// Summarises `values`.
    pub fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        Summary {
            median: median(values),
            q1,
            q3,
            count: values.len(),
        }
    }

    /// Inter-quartile distance as a share of the median (`0` when the
    /// median is `0`).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The round rule: `stat` is taken within each round, and across rounds
/// the quartile on the better side is reported — the first quartile of
/// a time, the third of a throughput. On a shared host, neighbours slow
/// whole rounds down for a while (a busy sibling hyperthread costs a
/// tight loop about 1.5×); the better quartile reads the rounds they
/// left alone, so it moves with the code and much less with the host.
pub fn round_quartile(rounds: &[Vec<f64>], stat: impl Fn(&[f64]) -> f64, better: Better) -> f64 {
    let per_round: Vec<f64> = rounds
        .iter()
        .filter(|r| !r.is_empty())
        .map(|r| stat(r))
        .collect();
    better_quartile(&per_round, better)
}

/// The quartile of `values` on the better side: the first for
/// lower-is-better metrics, the third for higher-is-better ones.
pub fn better_quartile(values: &[f64], better: Better) -> f64 {
    let (q1, q3) = quartiles(values);
    match better {
        Better::Lower => q1,
        Better::Higher => q3,
    }
}

/// A nearest-rank percentile together with the sample count it rests
/// on and how many samples lie strictly beyond its rank.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The percentile value.
    pub value: f64,
    /// Number of samples.
    pub samples: usize,
    /// Samples ranked above the percentile's rank.
    pub beyond: usize,
}

/// Nearest-rank `p`-th percentile (`0 < p ≤ 100`) of `values`.
pub fn percentile(values: &[f64], p: f64) -> Percentile {
    let v = sorted(values);
    if v.is_empty() {
        return Percentile {
            value: 0.0,
            samples: 0,
            beyond: 0,
        };
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    let idx = rank.min(v.len()) - 1;
    Percentile {
        value: v[idx],
        samples: v.len(),
        beyond: v.len() - idx - 1,
    }
}

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (throughput).
    Higher,
}

impl Better {
    /// The name used in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// How much worse `new` is than `base`, as a signed amount in the
    /// metric's unit (positive = worse).
    pub fn worsening(self, base: f64, new: f64) -> f64 {
        match self {
            Better::Lower => new - base,
            Better::Higher => base - new,
        }
    }
}

/// How far a metric may worsen before it counts as a regression: a
/// share of the base value, but never less than an absolute floor (so a
/// metric whose base is tiny, like the set-up time of a small workload,
/// is not judged on microseconds).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Bound {
    /// Allowed worsening as a share of the base value.
    pub rel: f64,
    /// Allowed worsening in the metric's own unit, whatever the base.
    pub abs_floor: f64,
}

impl Bound {
    /// The allowed worsening from `base`.
    pub fn allowance(&self, base: f64) -> f64 {
        (self.rel * base.abs()).max(self.abs_floor)
    }

    /// `true` when `new` is worse than `base` by more than the bound.
    pub fn exceeded(&self, better: Better, base: f64, new: f64) -> bool {
        better.worsening(base, new) > self.allowance(base)
    }
}

/// Outcome of comparing two sets of runs of one metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The second set's median is within the bound of the first's, and
    /// both sets are steady enough to tell.
    WithinBound,
    /// The second set's median is worse than the bound allows.
    Worse,
    /// The runs spread wider than the bound, so neither "worse" nor
    /// "within bound" can be claimed.
    Unresolved,
}

impl Verdict {
    /// Short label for reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compares set `b` against the base set `a`.
///
/// * Worse: `b`'s median is worse than `a`'s by more than the bound,
///   and either both sets spread less than the bound or every run of
///   `b` reads worse than every run of `a`.
/// * Unresolved: otherwise, when either set spreads wider than the
///   bound, unless every run of `b` reads better than every run of `a`.
/// * Within bound: everything else.
///
/// A set "spreads wider than the bound" when its inter-quartile
/// distance exceeds the bound's allowance at its median, floor
/// included.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: Bound) -> Verdict {
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    let wide = |s: &Summary| s.q3 - s.q1 > bound.allowance(s.median);
    let noisy = wide(&sa) || wide(&sb);
    let all = |pred: &dyn Fn(f64, f64) -> bool| {
        !a.is_empty() && !b.is_empty() && b.iter().all(|&y| a.iter().all(|&x| pred(x, y)))
    };
    let all_worse = all(&|x, y| better.worsening(x, y) > 0.0);
    let all_better = all(&|x, y| better.worsening(x, y) < 0.0);
    if bound.exceeded(better, sa.median, sb.median) && (!noisy || all_worse) {
        Verdict::Worse
    } else if noisy && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::WithinBound
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 3.0, 1.0]), (1.25, 3.75));
        // Two points extrapolate: quantiles([1, 2]) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = Summary::of(&(1..=10).map(f64::from).collect::<Vec<_>>());
        assert!((s.spread() - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(s.count, 10);
    }

    #[test]
    fn round_quartile_reads_the_better_side_of_per_round_stats() {
        let rounds = vec![
            vec![1.0, 2.0, 3.0],    // median 2
            vec![10.0, 20.0, 30.0], // median 20 — a disturbed round
            vec![2.0, 3.0, 4.0],    // median 3
            vec![3.0, 4.0, 5.0],    // median 4
            vec![],                 // empty rounds are ignored
        ];
        // Per-round medians [2, 20, 3, 4]: quartiles (2.25, 16).
        assert_eq!(round_quartile(&rounds, median, Better::Lower), 2.25);
        assert_eq!(round_quartile(&rounds, median, Better::Higher), 16.0);
        assert_eq!(better_quartile(&[5.0], Better::Lower), 5.0);
    }

    #[test]
    fn p90_reports_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p = percentile(&v, 90.0);
        assert_eq!(p.value, 90.0);
        assert_eq!(p.samples, 100);
        assert_eq!(p.beyond, 10);
        let small = percentile(&[5.0, 1.0, 3.0], 90.0);
        assert_eq!((small.value, small.beyond), (5.0, 0));
        assert_eq!(percentile(&[], 90.0).samples, 0);
    }

    #[test]
    fn bound_uses_the_larger_of_share_and_floor() {
        let b = Bound {
            rel: 0.10,
            abs_floor: 0.02,
        };
        // Base 1 s: 10% = 0.1 s dominates the floor.
        assert!(!b.exceeded(Better::Lower, 1.0, 1.09));
        assert!(b.exceeded(Better::Lower, 1.0, 1.11));
        // Base 1 ms: the 0.02 s floor dominates.
        assert!(!b.exceeded(Better::Lower, 0.001, 0.015));
        assert!(b.exceeded(Better::Lower, 0.001, 0.03));
        // Higher-is-better metrics worsen downwards.
        let t = Bound {
            rel: 0.10,
            abs_floor: 0.0,
        };
        assert!(t.exceeded(Better::Higher, 100.0, 89.0));
        assert!(!t.exceeded(Better::Higher, 100.0, 150.0));
    }

    #[test]
    fn verdicts_follow_the_spread_rule() {
        let bound = Bound {
            rel: 0.10,
            abs_floor: 0.0,
        };
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05];
        let same = [10.02, 9.95, 10.1, 10.0, 9.98];
        let slower = [12.0, 12.1, 11.9, 12.0, 12.05];
        let noisy = [8.0, 12.0, 10.0, 9.0, 11.5];
        let faster_noisy = [5.0, 6.5, 5.5, 7.0, 6.0];
        assert_eq!(
            verdict(&steady, &same, Better::Lower, bound),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(&steady, &slower, Better::Lower, bound),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&steady, &noisy, Better::Lower, bound),
            Verdict::Unresolved
        );
        // Every run of the change better than every run of the base:
        // a wide spread does not make it unresolved.
        assert_eq!(
            verdict(&steady, &faster_noisy, Better::Lower, bound),
            Verdict::WithinBound
        );
        // Every run worse: a wide spread does not hide the regression.
        let much_slower_noisy = [15.0, 20.0, 17.0, 22.0, 16.0];
        assert_eq!(
            verdict(&steady, &much_slower_noisy, Better::Lower, bound),
            Verdict::Worse
        );
        // A wide relative spread that stays inside an absolute floor
        // (sub-millisecond set-ups judged with a 0.02 s floor).
        let floored = Bound {
            rel: 0.25,
            abs_floor: 0.02,
        };
        let tiny = [0.0003, 0.0004, 0.0002, 0.0003, 0.0005];
        let tiny_b = [0.0004, 0.0003, 0.0006, 0.0003, 0.0004];
        assert_eq!(
            verdict(&tiny, &tiny_b, Better::Lower, floored),
            Verdict::WithinBound
        );
    }
}
