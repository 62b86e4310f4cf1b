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
    /// Always the same value.
    Constant(f64),
    /// Uniform over `[lo, hi)`.
    Uniform {
        /// Lower bound (inclusive).
        lo: f64,
        /// Upper bound (exclusive).
        hi: f64,
    },
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
    /// Bounded Pareto (heavy tail) with shape `alpha` over `[lo, hi]`.
    BoundedPareto {
        /// Shape parameter (smaller = heavier tail).
        alpha: f64,
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
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
            Dist::Constant(v) => v,
            Dist::Uniform { lo, hi } => rng.uniform_range(lo, hi),
            Dist::Exponential { mean } => {
                // Inverse transform; guard u=0.
                let u = (1.0 - rng.uniform()).max(f64::MIN_POSITIVE);
                -mean * u.ln()
            }
            Dist::LogNormal { mu, sigma } => (mu + sigma * standard_normal(rng)).exp(),
            Dist::BoundedPareto { alpha, lo, hi } => {
                // Inverse CDF of the bounded Pareto.
                let u = rng.uniform();
                let la = lo.powf(alpha);
                let ha = hi.powf(alpha);
                (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / alpha)
            }
        }
    }

    /// Draws one sample and interprets it as seconds, returning a duration.
    pub fn sample_secs(&self, rng: &mut DetRng) -> SimDuration {
        SimDuration::from_secs_f64(self.sample(rng))
    }

    /// Analytic mean of the distribution.
    pub fn mean(&self) -> f64 {
        match *self {
            Dist::Constant(v) => v,
            Dist::Uniform { lo, hi } => (lo + hi) / 2.0,
            Dist::Exponential { mean } => mean,
            Dist::LogNormal { mu, sigma } => (mu + sigma * sigma / 2.0).exp(),
            Dist::BoundedPareto { alpha, lo, hi } => {
                if (alpha - 1.0).abs() < 1e-12 {
                    let la = lo.powf(alpha);
                    let ha = hi.powf(alpha);
                    (ha * la / (ha - la)) * (hi / lo).ln() * alpha
                } else {
                    let la = lo.powf(alpha);
                    let ha = hi.powf(alpha);
                    (la / (1.0 - la / ha)) * (alpha / (alpha - 1.0))
                        * (1.0 / lo.powf(alpha - 1.0) - 1.0 / hi.powf(alpha - 1.0))
                }
            }
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
    fn constant_is_constant() {
        let mut rng = DetRng::new(0, 0);
        assert_eq!(Dist::Constant(4.2).sample(&mut rng), 4.2);
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
    fn uniform_within_bounds_and_mean() {
        let d = Dist::Uniform { lo: 2.0, hi: 4.0 };
        let mut rng = DetRng::new(3, 0);
        for _ in 0..1000 {
            let x = d.sample(&mut rng);
            assert!((2.0..4.0).contains(&x));
        }
        assert!((mean_of(d, 20_000, 3) - 3.0).abs() < 0.05);
    }

    #[test]
    fn bounded_pareto_within_bounds() {
        let d = Dist::BoundedPareto {
            alpha: 1.5,
            lo: 1.0,
            hi: 100.0,
        };
        let mut rng = DetRng::new(4, 0);
        for _ in 0..2000 {
            let x = d.sample(&mut rng);
            assert!((1.0..=100.0 + 1e-9).contains(&x), "sample {x}");
        }
    }

    #[test]
    fn sample_secs_converts() {
        let mut rng = DetRng::new(6, 0);
        assert_eq!(
            Dist::Constant(1.5).sample_secs(&mut rng),
            SimDuration::from_millis(1500)
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
