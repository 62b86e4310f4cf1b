//! Grid configuration generation.
//!
//! Grid3 (the precursor of the Open Science Grid) comprised on the order of
//! 30 sites and ~4,500 CPUs, with a heavily skewed size distribution: a few
//! large lab sites with many hundreds of CPUs and a long tail of small
//! university clusters. `grid3_times(10, ..)` reproduces the paper's
//! emulated environment: ~300 sites and tens of thousands of CPUs.

use desim::{DetRng, Dist};
use gruber_types::{SiteId, SiteSpec};

/// The base Grid3 site count.
pub(crate) const GRID3_SITES: usize = 30;

/// Generates a Grid3-like configuration scaled by `factor`.
///
/// Site CPU counts follow a log-normal with mean 150 and coefficient of
/// variation 1.3, clamped to `[8, 1500]`: a long tail of small university
/// clusters plus a few large lab sites, landing the base (factor 1) grid
/// near Grid3's real ~4.5k CPUs and factor 10 near the paper's "ten times
/// larger" target (~45k CPUs over ~300 sites).
pub fn grid3_times(factor: usize, seed: u64) -> Vec<SiteSpec> {
    assert!(factor > 0, "factor must be positive");
    let n_sites = GRID3_SITES * factor;
    let dist = Dist::lognormal_mean_cv(150.0, 1.3);
    let mut rng = DetRng::new(seed, 0x00C0_FFEE);
    (0..n_sites)
        .map(|i| {
            let cpus = dist.sample(&mut rng).round().clamp(8.0, 1500.0) as u32;
            SiteSpec::single_cluster(SiteId::from_index(i), cpus)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gruber_types::total_grid_cpus;

    #[test]
    fn base_grid_resembles_grid3() {
        let sites = grid3_times(1, 42);
        assert_eq!(sites.len(), 30);
        let total = total_grid_cpus(&sites);
        assert!(
            (2_000..9_000).contains(&total),
            "base grid has {total} CPUs, expected a Grid3-like total"
        );
    }

    #[test]
    fn ten_x_grid_matches_paper_scale() {
        let sites = grid3_times(10, 42);
        assert_eq!(sites.len(), 300);
        let total = total_grid_cpus(&sites);
        assert!(
            (20_000..90_000).contains(&total),
            "10x grid has {total} CPUs"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(grid3_times(2, 7), grid3_times(2, 7));
        assert_ne!(grid3_times(2, 7), grid3_times(2, 8));
    }

    #[test]
    fn sizes_are_skewed() {
        let sites = grid3_times(10, 42);
        let mut cpus: Vec<u32> = sites.iter().map(|s| s.total_cpus()).collect();
        cpus.sort_unstable();
        let median = cpus[cpus.len() / 2];
        let max = *cpus.last().unwrap();
        assert!(
            max > median * 5,
            "distribution not skewed: median {median}, max {max}"
        );
    }

    #[test]
    fn site_ids_are_dense_indices() {
        let sites = grid3_times(3, 1);
        for (i, s) in sites.iter().enumerate() {
            assert_eq!(s.id.index(), i);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_factor_panics() {
        grid3_times(0, 1);
    }
}
