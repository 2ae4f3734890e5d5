//! Order statistics over repeated timings.

/// Median of `values` (mean of the two middle values for even counts);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values`; 0 for an
/// empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// A per-call timing: the median, the highest standard percentile that
/// still has at least ten samples beyond it, and the sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Median.
    pub p50: f64,
    /// `(label, value)` of the tail percentile, when the sample count
    /// supports one.
    pub tail: Option<(&'static str, f64)>,
    /// Number of samples.
    pub n: usize,
}

/// Tail percentiles, highest first, with the sample count each needs
/// for ten samples to lie beyond it.
const TAILS: [(&str, f64, usize); 3] = [
    ("p99.9", 0.999, 10_000),
    ("p99", 0.99, 1_000),
    ("p90", 0.9, 100),
];

impl Summary {
    /// Summarizes `values`.
    pub fn of(values: &[f64]) -> Summary {
        let tail = TAILS
            .iter()
            .find(|(_, _, need)| values.len() >= *need)
            .map(|&(label, q, _)| (label, quantile(values, q)));
        Summary {
            p50: median(values),
            tail,
            n: values.len(),
        }
    }

    /// `p50=… p90=… n=…` for the human-readable report.
    pub fn describe(&self) -> String {
        match self.tail {
            Some((label, v)) => format!("p50={:.4} {label}={v:.4} n={}", self.p50, self.n),
            None => format!(
                "p50={:.4} n={} (too few samples for a tail)",
                self.p50, self.n
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let few: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(Summary::of(&few).tail, None);
        let many: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(Summary::of(&many).tail.map(|t| t.0), Some("p90"));
        let lots: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(Summary::of(&lots).tail.map(|t| t.0), Some("p99"));
    }
}
