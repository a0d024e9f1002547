//! Evaluation metrics used throughout the paper's §6.
//!
//! * [`Classification`] — TP/FP/FN/TN counts with TPR / FPR / CPR accessors,
//!   built from predicted and actually-affected prefix sets (§6.2.1, §6.3).
//! * [`Quadrant`] — the Fig. 6 quadrant of a (TPR, FPR) point.
//! * [`percentile`] — nearest-rank percentiles for the Table 2 summaries.

use swift_bgp::PrefixSet;

/// Binary-classification counts over a prefix universe.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Classification {
    /// Predicted and actually affected.
    pub tp: usize,
    /// Predicted but not affected.
    pub fp: usize,
    /// Affected but not predicted.
    pub fn_: usize,
    /// Neither predicted nor affected.
    pub tn: usize,
}

impl Classification {
    /// Builds counts from the predicted set, the actually-affected set and the
    /// size of the prefix universe (all prefixes announced on the session
    /// before the burst).
    ///
    /// `universe` is clamped so that TN is never negative even if the caller
    /// under-estimates it.
    pub fn from_sets(predicted: &PrefixSet, actual: &PrefixSet, universe: usize) -> Self {
        let tp = predicted.intersection_len(actual);
        let fp = predicted.len() - tp;
        let fn_ = actual.len() - tp;
        let covered = tp + fp + fn_;
        let tn = universe.saturating_sub(covered);
        Classification { tp, fp, fn_, tn }
    }

    /// True Positive Rate: `TP / (TP + FN)`. Returns 1.0 when there are no
    /// positives (nothing to find ⇒ nothing missed).
    pub fn tpr(&self) -> f64 {
        let denom = self.tp + self.fn_;
        if denom == 0 {
            1.0
        } else {
            self.tp as f64 / denom as f64
        }
    }

    /// False Positive Rate: `FP / (FP + TN)`. Returns 0.0 when there are no
    /// negatives.
    pub fn fpr(&self) -> f64 {
        let denom = self.fp + self.tn;
        if denom == 0 {
            0.0
        } else {
            self.fp as f64 / denom as f64
        }
    }

    /// The Fig. 6 quadrant of this classification (threshold 50 % on each
    /// axis).
    pub fn quadrant(&self) -> Quadrant {
        Quadrant::of(self.tpr(), self.fpr())
    }
}

/// The four quadrants of the paper's Fig. 6 TPR/FPR plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Quadrant {
    /// High TPR, low FPR: very good inference.
    Good,
    /// High TPR, high FPR: overestimates the outage but still useful.
    Overestimate,
    /// Low TPR, low FPR: underestimates the outage.
    Underestimate,
    /// Low TPR, high FPR: bad inference.
    Bad,
}

impl Quadrant {
    /// Classifies a (TPR, FPR) pair using 50 % thresholds.
    pub fn of(tpr: f64, fpr: f64) -> Quadrant {
        match (tpr >= 0.5, fpr >= 0.5) {
            (true, false) => Quadrant::Good,
            (true, true) => Quadrant::Overestimate,
            (false, false) => Quadrant::Underestimate,
            (false, true) => Quadrant::Bad,
        }
    }
}

/// Nearest-rank percentile of a slice (q in 0.0–1.0). Returns `None` on an
/// empty slice or when every value is NaN; NaN values are ignored, and a NaN
/// `q` is treated as 0.0. The input does not need to be sorted.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let mut sorted: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
    if sorted.is_empty() {
        return None;
    }
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaNs filtered out"));
    Some(sorted[nearest_rank(q, sorted.len())])
}

/// The nearest-rank index of quantile `q` in a sorted slice of length `len`.
fn nearest_rank(q: f64, len: usize) -> usize {
    let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
    let rank = ((q * len as f64).ceil() as usize).max(1) - 1;
    rank.min(len - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use swift_bgp::Prefix;

    fn set(range: std::ops::Range<u32>) -> PrefixSet {
        range.map(Prefix::nth_slash24).collect()
    }

    #[test]
    fn counts_from_sets() {
        let predicted = set(0..80);
        let actual = set(20..100);
        let c = Classification::from_sets(&predicted, &actual, 1_000);
        assert_eq!(c.tp, 60);
        assert_eq!(c.fp, 20);
        assert_eq!(c.fn_, 20);
        assert_eq!(c.tn, 900);
        assert!((c.tpr() - 0.75).abs() < 1e-12);
        assert!((c.fpr() - 20.0 / 920.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_cases() {
        let empty = PrefixSet::new();
        let c = Classification::from_sets(&empty, &empty, 100);
        assert_eq!(c.tpr(), 1.0);
        assert_eq!(c.fpr(), 0.0);
        assert_eq!(c.tn, 100);
        // Universe smaller than the sets never underflows.
        let c2 = Classification::from_sets(&set(0..50), &set(0..50), 10);
        assert_eq!(c2.tn, 0);
    }

    #[test]
    fn quadrants_match_fig6_layout() {
        assert_eq!(Quadrant::of(0.9, 0.1), Quadrant::Good);
        assert_eq!(Quadrant::of(0.9, 0.9), Quadrant::Overestimate);
        assert_eq!(Quadrant::of(0.1, 0.1), Quadrant::Underestimate);
        assert_eq!(Quadrant::of(0.1, 0.9), Quadrant::Bad);
        let perfect = Classification {
            tp: 10,
            fp: 0,
            fn_: 0,
            tn: 100,
        };
        assert_eq!(perfect.quadrant(), Quadrant::Good);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&values, 0.5), Some(50.0));
        assert_eq!(percentile(&values, 0.9), Some(90.0));
        assert_eq!(percentile(&values, 0.1), Some(10.0));
        assert_eq!(percentile(&values, 1.0), Some(100.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_edge_cases() {
        let values: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        // q = 0.0 is the minimum, q = 1.0 the maximum; out-of-range clamps.
        assert_eq!(percentile(&values, 0.0), Some(1.0));
        assert_eq!(percentile(&values, 1.0), Some(100.0));
        assert_eq!(percentile(&values, -3.0), Some(1.0));
        assert_eq!(percentile(&values, 7.0), Some(100.0));
        // A single sample is every percentile.
        assert_eq!(percentile(&[42.0], 0.0), Some(42.0));
        assert_eq!(percentile(&[42.0], 0.5), Some(42.0));
        assert_eq!(percentile(&[42.0], 1.0), Some(42.0));
        // NaN samples are ignored; all-NaN input has no percentile.
        assert_eq!(percentile(&[1.0, f64::NAN, 3.0], 1.0), Some(3.0));
        assert_eq!(percentile(&[1.0, f64::NAN, 3.0], 0.5), Some(1.0));
        assert_eq!(percentile(&[f64::NAN, f64::NAN], 0.5), None);
        // NaN q falls back to the minimum instead of an arbitrary rank.
        assert_eq!(percentile(&values, f64::NAN), Some(1.0));
    }
}
