//! Order statistics for repeated host-time samples, and the geometric
//! mean that pools the Figure 11 grid's cells.
//!
//! Host time on a shared machine is noisy, so every timing the benchmark
//! reports is the median of several repeats, never the best of them.

/// Median of `xs`: the middle value, or the mean of the two middle values
/// for an even count. NaN for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile of `xs`, by the same
/// "exclusive" method as Python's `statistics.quantiles(xs, n=4)`: the
/// q-th quartile sits at position `q(n+1)/4` (1-based) of the sorted
/// samples, interpolated linearly between its two neighbours, and
/// extrapolated from the outermost pair beyond either end. A single
/// sample is all three quartiles; NaN for an empty slice.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    if xs.is_empty() {
        return [f64::NAN; 3];
    }
    let s = sorted(xs);
    let n = s.len();
    if n == 1 {
        return [s[0]; 3];
    }
    let at = |q: usize| {
        let m = (q * (n + 1)) as i64;
        let j = (m / 4).clamp(1, n as i64 - 1);
        let delta = (m - 4 * j) as f64;
        let j = j as usize;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    [at(1), at(2), at(3)]
}

/// Interquartile distance as a share of the median: the spread measure
/// the benchmark is tuned against. NaN when the median is zero.
pub fn spread(xs: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    (q3 - q1) / q2
}

/// Geometric mean of positive `xs`: every value counts equally, so
/// scaling `k` of `n` values by `r` scales the mean by `r^(k/n)`. NaN for
/// an empty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn median_ignores_input_order() {
        let a = [5.0, 0.5, 9.0, 2.0, 2.0];
        let mut b = a;
        b.reverse();
        assert_eq!(median(&a), median(&b));
        assert_eq!(median(&a), 2.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), [1.25, 2.5, 3.75]);
        // Beyond the ends the outermost pair extrapolates:
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn quartile_median_agrees_with_median() {
        for n in 1..12 {
            let xs: Vec<f64> = (0..n).map(|i| ((i * 7919) % 13) as f64).collect();
            assert_eq!(quartiles(&xs)[1], median(&xs), "n = {n}");
        }
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&xs), (8.25 - 2.75) / 5.5);
        assert_eq!(spread(&[3.0, 3.0, 3.0]), 0.0);
    }

    #[test]
    fn geomean_weighs_every_value_equally() {
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
        // Halving one of four values moves the mean by 2^(-1/4).
        let base = [3.0, 5.0, 7.0, 11.0];
        let moved = [3.0, 5.0, 7.0, 5.5];
        let ratio = geomean(&moved) / geomean(&base);
        assert!((ratio - 0.5f64.powf(0.25)).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }
}
