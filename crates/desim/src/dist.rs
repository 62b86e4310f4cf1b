//! The handful of probability distributions the workloads need.
//!
//! Implemented locally (inverse-transform and Box-Muller) rather than pulling
//! in `rand_distr`, keeping the dependency set to the sanctioned list. Each
//! distribution is a small value type sampled through a [`DetRng`].

use crate::rng::DetRng;
use gruber_types::SimDuration;

/// A sampleable distribution over non-negative floats.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dist {
    /// Exponential with the given mean (`1/λ`).
    Exponential {
        /// Mean of the distribution.
        mean: f64,
    },
    /// Log-normal given the mean and standard deviation of the *underlying
    /// normal* (`μ`, `σ` of `ln X`).
    LogNormal {
        /// Mean of `ln X`.
        mu: f64,
        /// Standard deviation of `ln X`.
        sigma: f64,
    },
}

impl Dist {
    /// Log-normal parameterized by its own mean and coefficient of variation
    /// — friendlier than raw `(μ, σ)`.
    pub fn lognormal_mean_cv(mean: f64, cv: f64) -> Dist {
        assert!(mean > 0.0 && cv > 0.0);
        let sigma2 = (1.0 + cv * cv).ln();
        Dist::LogNormal {
            mu: mean.ln() - sigma2 / 2.0,
            sigma: sigma2.sqrt(),
        }
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut DetRng) -> f64 {
        match *self {
            Dist::Exponential { mean } => {
                // Inverse transform; guard u=0.
                let u = (1.0 - rng.uniform()).max(f64::MIN_POSITIVE);
                -mean * u.ln()
            }
            Dist::LogNormal { mu, sigma } => (mu + sigma * standard_normal(rng)).exp(),
        }
    }

    /// Draws one sample and interprets it as seconds, returning a duration.
    pub fn sample_secs(&self, rng: &mut DetRng) -> SimDuration {
        SimDuration::from_secs_f64(self.sample(rng))
    }

    /// Analytic mean of the distribution.
    pub fn mean(&self) -> f64 {
        match *self {
            Dist::Exponential { mean } => mean,
            Dist::LogNormal { mu, sigma } => (mu + sigma * sigma / 2.0).exp(),
        }
    }
}

/// One draw from the standard normal via Box-Muller.
fn standard_normal(rng: &mut DetRng) -> f64 {
    let u1 = (1.0 - rng.uniform()).max(f64::MIN_POSITIVE);
    let u2 = rng.uniform();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mean_of(d: Dist, n: usize, seed: u64) -> f64 {
        let mut rng = DetRng::new(seed, 0);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn exponential_mean_converges() {
        let m = mean_of(Dist::Exponential { mean: 10.0 }, 40_000, 1);
        assert!((m - 10.0).abs() < 0.3, "sample mean {m}");
    }

    #[test]
    fn lognormal_mean_cv_matches_analytic() {
        let d = Dist::lognormal_mean_cv(120.0, 1.5);
        assert!((d.mean() - 120.0).abs() < 1e-9);
        let m = mean_of(d, 60_000, 2);
        assert!((m - 120.0).abs() < 120.0 * 0.05, "sample mean {m}");
    }

    #[test]
    fn sample_secs_converts() {
        let d = Dist::lognormal_mean_cv(1.5, 0.5);
        let (mut a, mut b) = (DetRng::new(6, 0), DetRng::new(6, 0));
        assert_eq!(
            d.sample_secs(&mut a),
            SimDuration::from_secs_f64(d.sample(&mut b))
        );
    }

    proptest! {
        #[test]
        fn samples_are_non_negative(seed in 0u64..1000, mean in 0.1f64..100.0) {
            let mut rng = DetRng::new(seed, 9);
            let d = Dist::Exponential { mean };
            for _ in 0..50 {
                prop_assert!(d.sample(&mut rng) >= 0.0);
            }
        }
    }
}
