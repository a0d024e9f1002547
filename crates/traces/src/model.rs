//! Statistical models behind the synthetic trace corpus.
//!
//! The corpus stands in for the RouteViews / RIPE RIS data of November 2016
//! (§2.2.1, §6.1). Its distributions are calibrated against the aggregate
//! numbers the paper reports:
//!
//! * burst sizes follow a Pareto tail with exponent ≈ 0.97 above 1,500
//!   withdrawals (so that ≈16 % of bursts exceed 10k and ≈1.5 % exceed 100k,
//!   with a maximum around 570k);
//! * per-burst withdrawal rates are log-normal-ish so that most bursts finish
//!   within 10 s but ≈37 % take longer and the largest take minutes;
//! * within a burst, withdrawals are split between head, middle and tail
//!   periods (most arrive early, but a sizeable share arrives late);
//! * 84 % of bursts touch at least one prefix originated by a "popular"
//!   organisation.

use rand::rngs::StdRng;
use rand::Rng;

/// Parameters of the burst-size Pareto distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct BurstSizeModel {
    /// Minimum burst size considered (the 1,500-withdrawal threshold).
    pub min_size: usize,
    /// Pareto tail exponent.
    pub alpha: f64,
    /// Hard cap (the largest burst the paper observed had ≈570k withdrawals).
    pub max_size: usize,
}

impl Default for BurstSizeModel {
    fn default() -> Self {
        BurstSizeModel {
            min_size: 1_500,
            alpha: 0.97,
            max_size: 570_000,
        }
    }
}

impl BurstSizeModel {
    /// Draws a burst size.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        // Inverse CDF of the Pareto distribution.
        let size = self.min_size as f64 / (1.0 - u).powf(1.0 / self.alpha);
        (size as usize).clamp(self.min_size, self.max_size)
    }
}

/// Parameters of the per-burst withdrawal-rate model (withdrawals per second).
#[derive(Debug, Clone, PartialEq)]
pub struct BurstRateModel {
    /// Median rate, withdrawals per second.
    pub median_rate: f64,
    /// Log-scale spread (σ of the underlying normal).
    pub sigma: f64,
    /// Lower bound on the rate.
    pub min_rate: f64,
}

impl Default for BurstRateModel {
    fn default() -> Self {
        BurstRateModel {
            median_rate: 1_500.0,
            sigma: 0.9,
            min_rate: 100.0,
        }
    }
}

impl BurstRateModel {
    /// Draws a withdrawal rate (w/s) using a log-normal around the median.
    pub fn sample(&self, rng: &mut StdRng) -> f64 {
        // Box-Muller from two uniforms (keeps the dependency surface small).
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        (self.median_rate * (self.sigma * z).exp()).max(self.min_rate)
    }
}

/// The head/middle/tail split of withdrawals within a burst (§2.2.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstShape {
    /// Fraction of withdrawals in the first third of the burst duration.
    pub head: f64,
    /// Fraction in the middle third.
    pub middle: f64,
    /// Fraction in the last third.
    pub tail: f64,
}

impl BurstShape {
    /// Draws a shape: head-heavy on average, but with a significant share of
    /// bursts carrying ≥10 % of their withdrawals in the tail.
    pub fn sample(rng: &mut StdRng) -> Self {
        let tail = rng.gen_range(0.02..0.45);
        let middle = rng.gen_range(0.10..0.40);
        let remaining: f64 = 1.0 - tail - middle;
        // Keep the head the largest share in the common case.
        let head = remaining.max(0.2);
        let norm = head + middle + tail;
        BurstShape {
            head: head / norm,
            middle: middle / norm,
            tail: tail / norm,
        }
    }

    /// The relative time (0.0–1.0) at which the `q`-th fraction of
    /// withdrawals has arrived, piecewise-linear across the three periods.
    pub fn time_of_fraction(&self, q: f64) -> f64 {
        let q = q.clamp(0.0, 1.0);
        if q <= self.head {
            (q / self.head.max(1e-12)) / 3.0
        } else if q <= self.head + self.middle {
            1.0 / 3.0 + ((q - self.head) / self.middle.max(1e-12)) / 3.0
        } else {
            2.0 / 3.0 + ((q - self.head - self.middle) / self.tail.max(1e-12)) / 3.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use rand::SeedableRng;

    /// The fraction of a burst's withdrawals that should have arrived by
    /// relative time `x` (0.0–1.0): the inverse of
    /// [`BurstShape::time_of_fraction`].
    fn cumulative(shape: &BurstShape, x: f64) -> f64 {
        let x = x.clamp(0.0, 1.0);
        if x <= 1.0 / 3.0 {
            shape.head * x * 3.0
        } else if x <= 2.0 / 3.0 {
            shape.head + shape.middle * (x - 1.0 / 3.0) * 3.0
        } else {
            shape.head + shape.middle + shape.tail * (x - 2.0 / 3.0) * 3.0
        }
    }

    #[test]
    fn burst_sizes_match_paper_tail_fractions() {
        let model = BurstSizeModel::default();
        let mut rng = StdRng::seed_from_u64(1);
        let samples: Vec<usize> = (0..20_000).map(|_| model.sample(&mut rng)).collect();
        let frac =
            |min: usize| samples.iter().filter(|s| **s > min).count() as f64 / samples.len() as f64;
        assert!(samples.iter().all(|s| (1_500..=570_000).contains(s)));
        // ≈16 % above 10k and ≈1.5 % above 100k (±50 % relative tolerance).
        let f10k = frac(10_000);
        let f100k = frac(100_000);
        assert!((0.10..0.25).contains(&f10k), "P(>10k) = {f10k}");
        assert!((0.007..0.03).contains(&f100k), "P(>100k) = {f100k}");
    }

    #[test]
    fn burst_rates_are_positive_and_spread() {
        let model = BurstRateModel::default();
        let mut rng = StdRng::seed_from_u64(2);
        let samples: Vec<f64> = (0..5_000).map(|_| model.sample(&mut rng)).collect();
        assert!(samples.iter().all(|r| *r >= model.min_rate));
        let below_median = samples.iter().filter(|r| **r < 1_500.0).count();
        let frac = below_median as f64 / samples.len() as f64;
        assert!((0.4..0.6).contains(&frac), "median calibration off: {frac}");
        // Durations implied for a 5k burst: mostly under 10 s.
        let under_10s = samples.iter().filter(|r| 5_000.0 / **r < 10.0).count();
        assert!(under_10s * 2 > samples.len());
    }

    #[test]
    fn burst_shape_sums_to_one_and_is_head_heavy_on_average() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut tails_over_10pct = 0;
        let n = 2_000;
        let mut head_sum = 0.0;
        for _ in 0..n {
            let s = BurstShape::sample(&mut rng);
            assert!((s.head + s.middle + s.tail - 1.0).abs() < 1e-9);
            assert!(s.head > 0.0 && s.middle > 0.0 && s.tail > 0.0);
            if s.tail >= 0.10 {
                tails_over_10pct += 1;
            }
            head_sum += s.head;
        }
        assert!(head_sum / n as f64 > 0.4, "head share should dominate");
        // A substantial fraction of bursts keep ≥10 % of withdrawals for the tail.
        assert!(tails_over_10pct as f64 / n as f64 > 0.4);
    }

    #[test]
    fn cumulative_and_inverse_are_consistent() {
        let shape = BurstShape {
            head: 0.6,
            middle: 0.3,
            tail: 0.1,
        };
        assert!((cumulative(&shape, 0.0) - 0.0).abs() < 1e-12);
        assert!((cumulative(&shape, 1.0) - 1.0).abs() < 1e-9);
        assert!((cumulative(&shape, 1.0 / 3.0) - 0.6).abs() < 1e-9);
        assert!((cumulative(&shape, 2.0 / 3.0) - 0.9).abs() < 1e-9);
        for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let t = shape.time_of_fraction(q);
            assert!((cumulative(&shape, t) - q).abs() < 1e-6, "q={q}");
        }
        // Monotonic.
        let mut last = 0.0;
        for i in 0..=100 {
            let t = shape.time_of_fraction(i as f64 / 100.0);
            assert!(t >= last - 1e-12);
            last = t;
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let model = BurstSizeModel::default();
        let a: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(9);
            (0..100).map(|_| model.sample(&mut rng)).collect()
        };
        let b: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(9);
            (0..100).map(|_| model.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
