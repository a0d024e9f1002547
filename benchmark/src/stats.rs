//! The benchmark's statistic: every timing is taken per cycle as the best
//! (smallest) of the measured rounds, and only then aggregated across cycles.
//!
//! Rounds replay identical work, so the differences between one cycle's
//! timings are pure disturbance (steal, interrupts, a cold cache after a
//! context switch) and all of it is additive: the minimum is the estimate
//! least polluted by the host. A median of rounds still moved 12–14 % run to
//! run on the 2-vCPU box this was designed on; the minimum moves 2–6 %.

/// Linear-interpolation percentile (`q` in `[0, 1]`) of `values`; 0 for an
/// empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Per cycle, the smallest sample any round took for it. `rounds[r][k]` is
/// round `r`'s sample for cycle `k`; cycles no round has a sample for (`None`)
/// are skipped.
pub fn best_per_cycle(rounds: &[&[Option<u64>]]) -> Vec<f64> {
    let cycles = rounds.first().map_or(0, |first| first.len());
    (0..cycles)
        .filter_map(|k| rounds.iter().filter_map(|round| round[k]).min())
        .map(|ns| ns as f64)
        .collect()
}

/// Mean of `busy_ns / count` style ratios that may have an empty denominator.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn best_per_cycle_takes_the_minimum_over_rounds() {
        let rounds: [&[Option<u64>]; 2] = [&[Some(5), None, Some(9)], &[Some(3), None, Some(11)]];
        assert_eq!(best_per_cycle(&rounds), vec![3.0, 9.0]);
    }
}
