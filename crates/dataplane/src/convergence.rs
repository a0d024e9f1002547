//! Convergence and downtime models for vanilla and SWIFTED routers.
//!
//! The measurement methodology mirrors the paper's (§2.1.2, §7): traffic is
//! sent towards a set of probe destinations chosen among the affected
//! prefixes; a destination is "down" from the failure instant until the router
//! has installed a working route for it; the reported downtime/loss curve is
//! the fraction of probes still down over time.

use crate::cost::FibCostModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use swift_bgp::{Prefix, Timestamp};

/// Per-prefix connectivity restoration times for one convergence event.
#[derive(Debug, Clone, Default)]
pub struct ConvergenceResult {
    /// For every affected prefix, the time (relative to the failure) at which
    /// connectivity was restored.
    pub restore_times: BTreeMap<Prefix, Timestamp>,
    /// Time at which the last affected prefix was restored.
    pub completion: Timestamp,
}

impl ConvergenceResult {
    /// Downtime of one prefix, if it was affected.
    pub fn downtime(&self, prefix: &Prefix) -> Option<Timestamp> {
        self.restore_times.get(prefix).copied()
    }

    /// Maximum downtime across a set of probe prefixes (the paper's Table 1
    /// metric: time until all probed destinations answer again).
    pub fn max_downtime(&self, probes: &[Prefix]) -> Timestamp {
        probes
            .iter()
            .filter_map(|p| self.downtime(p))
            .max()
            .unwrap_or(0)
    }

    /// The probe loss curve: for each restoration event among the probes, the
    /// `(time, fraction of probes still down)` right after it. Starts at
    /// `(0, 1.0)`.
    pub fn loss_series(&self, probes: &[Prefix]) -> Vec<(Timestamp, f64)> {
        let mut times: Vec<Timestamp> = probes.iter().filter_map(|p| self.downtime(p)).collect();
        times.sort_unstable();
        let total = probes.len().max(1) as f64;
        let mut series = vec![(0, 1.0)];
        for (i, t) in times.iter().enumerate() {
            let down = (times.len() - (i + 1)) as f64;
            series.push((*t, down / total));
        }
        series
    }
}

/// Convergence of a vanilla BGP router: every affected prefix waits for its
/// own withdrawal to arrive (paced by the upstream neighbour) and for the FIB
/// to process all updates queued before it.
///
/// `affected` lists the prefixes in the order their withdrawals arrive.
pub fn vanilla_convergence(affected: &[Prefix], cost: &FibCostModel) -> ConvergenceResult {
    let mut restore_times = BTreeMap::new();
    let mut fib_free_at: Timestamp = 0;
    let mut completion = 0;
    for (i, prefix) in affected.iter().enumerate() {
        let arrival = cost.upstream_message_gap * (i as Timestamp + 1);
        let start = arrival.max(fib_free_at);
        let done = start + cost.per_prefix_update;
        fib_free_at = done;
        restore_times.insert(*prefix, done);
        completion = completion.max(done);
    }
    ConvergenceResult {
        restore_times,
        completion,
    }
}

/// Convergence of a SWIFTED router: connectivity for every predicted prefix is
/// restored as soon as the inference fires (after `inference_withdrawals`
/// withdrawals have arrived) and the handful of stage-2 rules are installed.
///
/// Prefixes affected by the outage but *not* predicted (missed by the
/// inference) still converge like vanilla BGP.
pub fn swifted_convergence(
    predicted: &[Prefix],
    missed: &[Prefix],
    inference_withdrawals: usize,
    rules_installed: usize,
    cost: &FibCostModel,
) -> ConvergenceResult {
    let inference_time = cost.upstream_message_gap * inference_withdrawals as Timestamp
        + cost.rule_updates(rules_installed);
    let mut result = ConvergenceResult::default();
    for prefix in predicted {
        result.restore_times.insert(*prefix, inference_time);
    }
    result.completion = inference_time;
    if !missed.is_empty() {
        let vanilla = vanilla_convergence(missed, cost);
        result.completion = result.completion.max(vanilla.completion);
        result.restore_times.extend(vanilla.restore_times);
    }
    result
}

/// Picks `count` probe prefixes uniformly at random among `affected`
/// (the paper probes 100 random destinations of the withdrawn set).
pub fn pick_probes(affected: &[Prefix], count: usize, seed: u64) -> Vec<Prefix> {
    let mut rng = StdRng::seed_from_u64(seed);
    if affected.len() <= count {
        return affected.to_vec();
    }
    let mut chosen = Vec::with_capacity(count);
    let mut indices: Vec<usize> = (0..affected.len()).collect();
    for i in 0..count {
        let j = rng.gen_range(i..indices.len());
        indices.swap(i, j);
        chosen.push(affected[indices[i]]);
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use swift_bgp::SECOND;

    fn prefixes(n: u32) -> Vec<Prefix> {
        (0..n).map(Prefix::nth_slash24).collect()
    }

    #[test]
    fn vanilla_downtime_scales_linearly_with_burst_size() {
        let cost = FibCostModel::default();
        for (n, expected_secs) in [(10_000u32, 3.8), (50_000, 19.0), (100_000, 38.0)] {
            let affected = prefixes(n);
            let result = vanilla_convergence(&affected, &cost);
            let secs = result.completion as f64 / SECOND as f64;
            assert!(
                (secs - expected_secs).abs() / expected_secs < 0.03,
                "{n} prefixes → {secs:.1} s, expected ≈{expected_secs}"
            );
            // The last prefix in arrival order is the slowest one.
            assert_eq!(
                result.downtime(&affected[affected.len() - 1]),
                Some(result.completion)
            );
        }
    }

    #[test]
    fn swifted_convergence_is_orders_of_magnitude_faster() {
        let cost = FibCostModel::default();
        let affected = prefixes(290_000);
        let vanilla = vanilla_convergence(&affected, &cost);
        let swifted = swifted_convergence(&affected, &[], 2_500, 64, &cost);
        assert!(vanilla.completion > 100 * SECOND);
        assert!(swifted.completion < 2 * SECOND);
        // ≥ 98 % reduction, the paper's headline number.
        let speedup = 1.0 - swifted.completion as f64 / vanilla.completion as f64;
        assert!(speedup > 0.98, "speed-up only {speedup}");
        // Every predicted prefix is restored at the same instant.
        assert!(swifted
            .restore_times
            .values()
            .all(|t| *t == swifted.completion));
    }

    #[test]
    fn missed_prefixes_fall_back_to_vanilla_convergence() {
        let cost = FibCostModel::default();
        let predicted = prefixes(1_000);
        let missed: Vec<Prefix> = (1_000..1_100).map(Prefix::nth_slash24).collect();
        let result = swifted_convergence(&predicted, &missed, 50, 4, &cost);
        let fast = result.downtime(&predicted[0]).unwrap();
        let slow = result.downtime(&missed[99]).unwrap();
        assert!(fast < slow);
        assert_eq!(result.restore_times.len(), 1_100);
    }

    #[test]
    fn loss_series_is_monotonically_decreasing() {
        let cost = FibCostModel::default();
        let affected = prefixes(5_000);
        let result = vanilla_convergence(&affected, &cost);
        let probes = pick_probes(&affected, 100, 7);
        assert_eq!(probes.len(), 100);
        let series = result.loss_series(&probes);
        assert_eq!(series[0], (0, 1.0));
        assert!(series.last().unwrap().1.abs() < 1e-12);
        for w in series.windows(2) {
            assert!(w[1].0 >= w[0].0);
            assert!(w[1].1 <= w[0].1 + 1e-12);
        }
        // Max downtime over probes is bounded by the completion time.
        assert!(result.max_downtime(&probes) <= result.completion);
    }

    #[test]
    fn pick_probes_is_deterministic_and_unique() {
        let affected = prefixes(1_000);
        let a = pick_probes(&affected, 100, 42);
        let b = pick_probes(&affected, 100, 42);
        let c = pick_probes(&affected, 100, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let unique: std::collections::HashSet<_> = a.iter().collect();
        assert_eq!(unique.len(), 100);
        // Requesting more probes than prefixes returns them all.
        assert_eq!(pick_probes(&affected[..10], 100, 1).len(), 10);
    }
}
