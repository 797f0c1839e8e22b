//! Small, dependency-light sampling utilities used by the synthetic
//! generator (and reused by baselines for initialization).
//!
//! Only `rand`'s uniform primitives are used; Gaussian, wrapped-Gaussian,
//! Poisson, Zipf and categorical samplers are hand-rolled to stay within the
//! approved dependency set (see `DESIGN.md` §5).

use rand::Rng;

/// Draws a standard-normal variate via the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Guard against log(0).
    let u1: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Draws from `N(mean, sd^2)`.
#[inline]
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, sd: f64) -> f64 {
    mean + sd * standard_normal(rng)
}

/// Draws from a Gaussian wrapped onto the circle `[0, period)`.
///
/// Used for time-of-day sampling: activity peaks are circular quantities
/// (23:30 and 00:30 are one hour apart).
pub fn wrapped_normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, sd: f64, period: f64) -> f64 {
    debug_assert!(period > 0.0);
    normal(rng, mean, sd).rem_euclid(period)
}

/// Draws from `Poisson(lambda)` via Knuth's method (fine for small lambda).
pub fn poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> u32 {
    debug_assert!(lambda >= 0.0);
    if lambda == 0.0 {
        return 0;
    }
    let l = (-lambda).exp();
    let mut k = 0u32;
    let mut p = 1.0;
    loop {
        p *= rng.random::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
        // Defensive cap: lambda used in this crate is single digit, so
        // hitting this indicates a logic error rather than a valid draw.
        if k > 10_000 {
            return k;
        }
    }
}

/// A cumulative-distribution sampler over arbitrary non-negative weights.
///
/// Build cost is O(n); each draw is O(log n) via binary search. For the hot
/// training loops the graph crate provides an O(1) alias sampler instead;
/// this one is for corpus generation where simplicity wins.
#[derive(Debug, Clone)]
pub struct Categorical {
    cumulative: Vec<f64>,
}

impl Categorical {
    /// Builds the sampler. Returns `None` if no weight is positive or any
    /// weight is negative/NaN.
    pub fn new(weights: &[f64]) -> Option<Self> {
        if weights.is_empty() {
            return None;
        }
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut total = 0.0;
        for &w in weights {
            if w.is_nan() || w < 0.0 {
                return None;
            }
            total += w;
            cumulative.push(total);
        }
        if total <= 0.0 {
            return None;
        }
        Some(Self { cumulative })
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// True if there are no categories (never true for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Draws a category index proportional to its weight.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let total = *self.cumulative.last().expect("non-empty by construction");
        let x = rng.random_range(0.0..total);
        // partition_point returns the first index with cumulative > x.
        self.cumulative
            .partition_point(|&c| c <= x)
            .min(self.cumulative.len() - 1)
    }
}

/// Zipf-like weights `w_i = 1 / (i+1)^s`, used for user activity levels
/// (a few prolific posters, a long tail), matching the heavy-tailed posting
/// behaviour of real social media.
pub fn zipf_weights(n: usize, s: f64) -> Vec<f64> {
    (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(s)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn normal_moments_are_close() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| normal(&mut rng, 3.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn wrapped_normal_stays_in_period() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let x = wrapped_normal(&mut rng, 86_000.0, 5000.0, 86_400.0);
            assert!((0.0..86_400.0).contains(&x));
        }
    }

    #[test]
    fn poisson_mean_matches_lambda() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| poisson(&mut rng, 4.5) as u64).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 4.5).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn poisson_zero_lambda_is_zero() {
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(poisson(&mut rng, 0.0), 0);
    }

    #[test]
    fn categorical_rejects_bad_weights() {
        assert!(Categorical::new(&[]).is_none());
        assert!(Categorical::new(&[0.0, 0.0]).is_none());
        assert!(Categorical::new(&[1.0, -1.0]).is_none());
        assert!(Categorical::new(&[1.0, f64::NAN]).is_none());
    }

    #[test]
    fn categorical_matches_weights_empirically() {
        let mut rng = StdRng::seed_from_u64(4);
        let cat = Categorical::new(&[1.0, 0.0, 3.0]).unwrap();
        assert_eq!(cat.len(), 3);
        assert!(!cat.is_empty());
        let mut counts = [0usize; 3];
        let n = 40_000;
        for _ in 0..n {
            counts[cat.sample(&mut rng)] += 1;
        }
        assert_eq!(counts[1], 0);
        let frac2 = counts[2] as f64 / n as f64;
        assert!((frac2 - 0.75).abs() < 0.02, "frac2 {frac2}");
    }

    #[test]
    fn zipf_weights_decrease() {
        let w = zipf_weights(5, 1.0);
        assert_eq!(w.len(), 5);
        for pair in w.windows(2) {
            assert!(pair[0] > pair[1]);
        }
        assert!((w[0] - 1.0).abs() < 1e-12);
        assert!((w[4] - 0.2).abs() < 1e-12);
    }
}
