//! Site selectors.
//!
//! "GRUBER site selectors are tools that communicate with the GRUBER engine
//! and provide answers to the question: which is the best site at which I
//! can run this job? Site selectors can implement various task assignment
//! policies, such as round robin, least used, or least recently used task
//! assignment policies."
//!
//! Selectors run *client-side* over the availability snapshot a decision
//! point returned (believed free CPUs per site). [`SiteSelector`] is the
//! extension point; every experiment of the paper, and every one here, runs
//! the least-used policy, [`LeastUsedSelector`].

use desim::DetRng;
use gruber_types::{JobSpec, SimTime, SiteId};

/// A task-assignment policy over an availability snapshot.
pub trait SiteSelector {
    /// Picks a site for `job` given believed free CPUs per site.
    /// Returns `None` only when no site could possibly fit the job.
    fn select(&mut self, free_per_site: &[u32], job: &JobSpec, now: SimTime) -> Option<SiteId>;
}

/// Picks uniformly among the sites whose believed free CPUs are within
/// `LeastUsedSelector::SLACK` of the best.
///
/// Pure arg-max herds every selector (and, in DI-GRUBER, every decision
/// point's clients) onto the single believed-freest site between state
/// exchanges; production least-used policies break ties randomly among
/// near-equals, which is what keeps independently-informed brokers from
/// stampeding. The randomized stream is deterministic per client.
#[derive(Debug)]
pub struct LeastUsedSelector {
    rng: DetRng,
}

impl LeastUsedSelector {
    /// Sites with `free >= SLACK * max_free` count as near-best.
    pub(crate) const SLACK: f64 = 0.9;

    /// A least-used selector with its own tie-breaking stream.
    pub fn new(seed: u64, stream: u64) -> Self {
        LeastUsedSelector {
            rng: DetRng::new(seed, stream ^ 0x1EA5_70D0),
        }
    }
}

impl SiteSelector for LeastUsedSelector {
    fn select(&mut self, free_per_site: &[u32], _job: &JobSpec, _now: SimTime) -> Option<SiteId> {
        let max_free = free_per_site.iter().copied().max()?;
        let threshold = (f64::from(max_free) * Self::SLACK).ceil() as u32;
        let near_best = || (free_per_site.iter().enumerate()).filter(|&(_, &f)| f >= threshold);
        // The maximum itself qualifies, so the count is at least one.
        let pick = self.rng.index(near_best().count());
        near_best().nth(pick).map(|(i, _)| SiteId::from_index(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gruber_types::{ClientId, GroupId, JobId, SimDuration, UserId, VoId};

    fn job(cpus: u32) -> JobSpec {
        JobSpec {
            id: JobId(0),
            vo: VoId(0),
            group: GroupId(0),
            user: UserId(0),
            client: ClientId(0),
            cpus,
            storage_mb: 0,
            runtime: SimDuration::from_secs(60),
            submitted_at: SimTime::ZERO,
        }
    }

    #[test]
    fn least_used_picks_among_near_best() {
        let mut s = LeastUsedSelector::new(3, 3);
        for _ in 0..50 {
            let pick = s.select(&[3, 9, 9, 1], &job(1), SimTime::ZERO).unwrap();
            assert!(pick == SiteId(1) || pick == SiteId(2), "picked {pick}");
        }
        assert_eq!(s.select(&[], &job(1), SimTime::ZERO), None);
    }

    #[test]
    fn least_used_spreads_over_near_ties() {
        let mut s = LeastUsedSelector::new(3, 4);
        let free = vec![100u32, 99, 98, 10];
        let picks: std::collections::HashSet<_> = (0..200)
            .map(|_| s.select(&free, &job(1), SimTime::ZERO).unwrap())
            .collect();
        assert!(picks.len() >= 3, "no spreading: {picks:?}");
        assert!(!picks.contains(&SiteId(3)), "picked a clearly-worse site");
    }

    /// The selector as it was: collect the near-best sites, draw one.
    fn collecting_select(s: &mut LeastUsedSelector, free_per_site: &[u32]) -> Option<SiteId> {
        let max_free = free_per_site.iter().copied().max()?;
        let threshold = (f64::from(max_free) * LeastUsedSelector::SLACK).ceil() as u32;
        let near_best: Vec<usize> = free_per_site
            .iter()
            .enumerate()
            .filter(|&(_, &f)| f >= threshold)
            .map(|(i, _)| i)
            .collect();
        Some(SiteId::from_index(near_best[s.rng.index(near_best.len())]))
    }

    mod proptests {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        proptest! {
            /// Counting and taking the `nth` near-best site picks what
            /// collecting them did, from the same random stream: every
            /// fingerprint downstream of a pick stays put.
            #[test]
            fn prop_counting_picks_what_collecting_did(
                seed in 0u64..1_000_000,
                stream in 0u64..64,
                snapshots in vec(vec(0u32..40, 0..12), 1..20),
            ) {
                let (mut fast, mut oracle) = (
                    LeastUsedSelector::new(seed, stream),
                    LeastUsedSelector::new(seed, stream),
                );
                for free in &snapshots {
                    prop_assert_eq!(
                        fast.select(free, &job(1), SimTime::ZERO),
                        collecting_select(&mut oracle, free)
                    );
                }
            }
        }
    }
}
