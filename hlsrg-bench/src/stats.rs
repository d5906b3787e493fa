//! Order statistics over benchmark samples, and the regression verdict.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (throughput).
    Higher,
}

impl Better {
    /// Parses `"lower"` / `"higher"`.
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// How a metric's samples reduce to the value it reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Estimate {
    /// The best sample in the metric's direction. Every timed call does the
    /// same work, so other load on the host can only make a call slower; the
    /// best call is the steadiest estimate of what the code costs.
    Best,
    /// The median sample.
    Median,
}

impl Estimate {
    /// The estimate of `xs`; NaN when there are no samples.
    pub fn of(self, xs: &[f64], better: Better) -> f64 {
        if xs.is_empty() {
            return f64::NAN;
        }
        match (self, better) {
            (Estimate::Median, _) => median(xs),
            (Estimate::Best, Better::Lower) => xs.iter().copied().fold(f64::INFINITY, f64::min),
            (Estimate::Best, Better::Higher) => {
                xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            }
        }
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The median of `xs`: the middle value, or the mean of the two middle values.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The three quartile cut points, computed as Python's
/// `statistics.quantiles(xs, n=4)` does (the default "exclusive" method), so
/// spreads read the same here and in scripts. One sample gives it three times.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(!xs.is_empty(), "quartiles of no samples");
    let s = sorted(xs);
    let ld = s.len();
    if ld == 1 {
        return [s[0]; 3];
    }
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64;
    }
    out
}

/// The distance between the first and third quartile as a share of the
/// median; 0 for a single sample.
pub fn spread(xs: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(xs);
    let mid = median(xs);
    if mid == 0.0 {
        return if q3 == q1 { 0.0 } else { f64::INFINITY };
    }
    (q3 - q1) / mid.abs()
}

/// How much worse `new` is than `base`, as a share of `base`; negative when
/// `new` is better.
pub fn worsening(base: f64, new: f64, better: Better) -> f64 {
    let delta = match better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    };
    if base == 0.0 {
        return if delta == 0.0 {
            0.0
        } else {
            delta.signum() * f64::INFINITY
        };
    }
    delta / base.abs()
}

/// The outcome of comparing one metric between two sets of runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and the spread is narrow enough to tell.
    Ok,
    /// The estimate got worse by more than the bound.
    Regressed,
    /// The spread is wider than the bound, so "no worse" cannot be shown.
    Unresolved,
}

impl Verdict {
    /// The word printed in a comparison row.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One metric's comparison: the change's worsening of the estimate, the
/// wider of the two spreads, and the verdict against `bound`. When every
/// `new` sample is better than every `base` sample the verdict is `Ok`
/// whatever the spread.
pub fn judge(
    base: &[f64],
    new: &[f64],
    better: Better,
    estimate: Estimate,
    bound: f64,
) -> (f64, f64, Verdict) {
    let worse = worsening(estimate.of(base, better), estimate.of(new, better), better);
    let spread = spread(base).max(spread(new));
    let all_better = new
        .iter()
        .all(|&n| base.iter().all(|&b| worsening(b, n, better) < 0.0));
    let verdict = if all_better {
        Verdict::Ok
    } else if worse > bound {
        Verdict::Regressed
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (worse, spread, verdict)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn median_rejects_empty() {
        median(&[]);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), [1.5, 3.0, 4.5]);
        // Few samples extrapolate: statistics.quantiles([1, 2], n=4) ==
        // [0.75, 1.5, 2.25] and statistics.quantiles([1, 2, 3], n=4) ==
        // [1.0, 2.0, 3.0].
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&xs) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[4.0]), 0.0);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn best_estimate_follows_direction() {
        let xs = [3.0, 1.0, 2.0, 9.0];
        assert_eq!(Estimate::Best.of(&xs, Better::Lower), 1.0);
        assert_eq!(Estimate::Best.of(&xs, Better::Higher), 9.0);
        assert_eq!(Estimate::Median.of(&xs, Better::Higher), 2.5);
        assert!(Estimate::Best.of(&[], Better::Lower).is_nan());
    }

    #[test]
    fn worsening_follows_direction() {
        assert!((worsening(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, Better::Higher) - 0.10).abs() < 1e-12);
        assert!(worsening(100.0, 90.0, Better::Lower) < 0.0);
        assert_eq!(worsening(0.0, 0.0, Better::Lower), 0.0);
    }

    #[test]
    fn judge_applies_bound_and_spread() {
        let base = [1.00, 1.01, 0.99, 1.00, 1.02];
        // 5% slower, 10% bound, tight spread: ok.
        let (w, _, v) = judge(
            &base,
            &[1.05, 1.05, 1.06, 1.04, 1.05],
            Better::Lower,
            Estimate::Median,
            0.10,
        );
        assert!((w - 0.05).abs() < 1e-9);
        assert_eq!(v, Verdict::Ok);
        // 20% slower: regressed.
        let (_, _, v) = judge(
            &base,
            &[1.2, 1.21, 1.19, 1.2, 1.2],
            Better::Lower,
            Estimate::Median,
            0.10,
        );
        assert_eq!(v, Verdict::Regressed);
        // Same median but a wide spread: unresolved.
        let (_, s, v) = judge(
            &base,
            &[0.7, 1.0, 1.3, 0.8, 1.2],
            Better::Lower,
            Estimate::Median,
            0.10,
        );
        assert!(s > 0.10);
        assert_eq!(v, Verdict::Unresolved);
        // Wide spread, but every new run beats every base run: ok.
        let (_, _, v) = judge(
            &base,
            &[0.5, 0.9, 0.6, 0.8, 0.7],
            Better::Lower,
            Estimate::Median,
            0.10,
        );
        assert_eq!(v, Verdict::Ok);
        // The best-sample estimate ignores slow outliers: the same fastest
        // call reads as no change.
        let (w, _, _) = judge(
            &base,
            &[0.99, 1.4, 1.3],
            Better::Lower,
            Estimate::Best,
            0.10,
        );
        assert_eq!(w, 0.0);
        // Direction matters: higher-is-better throughput dropping 20%.
        let (_, _, v) = judge(
            &[100.0; 3],
            &[80.0; 3],
            Better::Higher,
            Estimate::Median,
            0.10,
        );
        assert_eq!(v, Verdict::Regressed);
    }
}
