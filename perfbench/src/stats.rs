//! Order statistics of timing samples.

/// Median (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// The highest percentile with at least ten samples above it, as
/// `(percentile, value)`; `None` below eleven samples.
pub fn tail(samples: &[f64]) -> Option<(usize, f64)> {
    let n = samples.len();
    if n < 11 {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let i = n - 11;
    Some((100 * (i + 1) / n, s[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_leaves_ten_samples_above() {
        assert_eq!(tail(&[1.0; 10]), None);
        let s: Vec<f64> = (1..=20).map(f64::from).collect();
        // 10th smallest of 20: ten samples (11..=20) lie above it
        assert_eq!(tail(&s), Some((50, 10.0)));
    }
}
