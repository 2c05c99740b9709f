//! Order statistics over host-time samples.

/// Whether a timed phase should start another operation: always until
/// `min_ops` have run, then while the phase is expected to end closer to
/// `budget` seconds with one more operation than without it.
pub fn keep_going(spent: f64, ran: usize, min_ops: usize, budget: f64) -> bool {
    ran < min_ops || spent + 0.5 * spent / (ran as f64) < budget
}

/// Median of `xs` (mean of the two middle values for an even count);
/// `NaN` when empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of `xs` by linear interpolation between order
/// statistics; `NaN` when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The highest of p90, p99, p999 that has at least ten samples beyond it,
/// as `(label, value)`; `None` when there are too few samples for any.
pub fn tail(xs: &[f64]) -> Option<(&'static str, f64)> {
    [("p999", 999u16), ("p99", 990), ("p90", 900)]
        .into_iter()
        .find(|(_, per_mille)| xs.len() * usize::from(1000 - per_mille) / 1000 >= 10)
        .map(|(label, per_mille)| (label, quantile(xs, f64::from(per_mille) / 1000.0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
    }

    #[test]
    fn keep_going_stops_within_half_an_op() {
        assert!(keep_going(0.0, 0, 1, 10.0));
        assert!(keep_going(50.0, 1, 2, 10.0));
        assert!(keep_going(8.0, 4, 1, 10.0));
        assert!(!keep_going(9.0, 3, 1, 10.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let few: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(tail(&few), None);
        let enough: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&enough).map(|t| t.0), Some("p90"));
    }
}
