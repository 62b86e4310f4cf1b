//! Scheduling accuracy.
//!
//! The paper defines a job's scheduling accuracy `SAᵢ` as "the ratio of free
//! resources at the selected site to the total free resources over the
//! entire grid", and reports aggregate Accuracy values that approach 100 %
//! when decision points have fresh information. Taken literally (divide by
//! the *sum* of free CPUs), a single-site choice could never approach 1 on a
//! 300-site grid, so — consistent with the reported magnitudes and with the
//! GRUBER/GangSim companion papers — we normalize against the *best single
//! choice*: the maximum free-CPU count over all sites at decision time.
//! A selector with perfect information that picks the least-used site scores
//! 1.0; stale information that routes jobs to busy sites scores lower.

/// Scheduling accuracy of one decision.
///
/// * `free_at_selected` — free CPUs at the chosen site, ground truth at
///   decision time.
/// * `free_per_site` — ground-truth free CPUs of every site in the grid.
///
/// Returns a value in `[0, 1]`. When the whole grid is saturated (no free
/// CPUs anywhere) every choice is equally good and the accuracy is defined
/// as 1.0.
pub fn schedule_accuracy(free_at_selected: u32, free_per_site: &[u32]) -> f64 {
    let best = free_per_site.iter().copied().max().unwrap_or(0);
    accuracy_vs_best(free_at_selected, best)
}

/// [`schedule_accuracy`] for a caller that already holds `best`, the
/// largest free-CPU count over all sites, and so need not build the list.
pub fn accuracy_vs_best(free_at_selected: u32, best: u32) -> f64 {
    if best == 0 {
        return 1.0;
    }
    f64::from(free_at_selected.min(best)) / f64::from(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn best_choice_scores_one() {
        assert_eq!(schedule_accuracy(10, &[3, 10, 7]), 1.0);
    }

    #[test]
    fn worst_choice_scores_fraction() {
        assert_eq!(schedule_accuracy(5, &[5, 10, 20]), 0.25);
    }

    #[test]
    fn zero_free_at_selected_scores_zero() {
        assert_eq!(schedule_accuracy(0, &[5, 10]), 0.0);
    }

    #[test]
    fn saturated_grid_scores_one() {
        assert_eq!(schedule_accuracy(0, &[0, 0, 0]), 1.0);
        assert_eq!(schedule_accuracy(0, &[]), 1.0);
        // The convention extends to a nonsensical selection on an empty
        // grid: nothing to compare against, so no penalty.
        assert_eq!(schedule_accuracy(7, &[]), 1.0);
    }

    #[test]
    fn single_site_grid_is_always_perfect_or_zero() {
        // One site means no real choice: picking it with its true free
        // count is perfect, whatever that count is.
        assert_eq!(schedule_accuracy(1, &[1]), 1.0);
        assert_eq!(schedule_accuracy(500, &[500]), 1.0);
        // Unless the site is actually full and the caller reports 0 free
        // at the selection while the list claims capacity — a stale-view
        // artifact that should score 0, not panic.
        assert_eq!(schedule_accuracy(0, &[8]), 0.0);
        // And a saturated single site falls back to the 1.0 convention.
        assert_eq!(schedule_accuracy(0, &[0]), 1.0);
    }

    #[test]
    fn selected_above_best_clamps_to_one() {
        // `free_at_selected` can exceed every entry of `free_per_site`
        // when the two observations were taken at different instants
        // (jobs finished in between). Accuracy must clamp, not exceed 1.
        assert_eq!(schedule_accuracy(50, &[10, 20]), 1.0);
        assert_eq!(schedule_accuracy(u32::MAX, &[1]), 1.0);
    }

    #[test]
    fn selected_not_maximal_scores_strict_fraction() {
        // A suboptimal-but-nonempty choice lands strictly inside (0, 1).
        let a = schedule_accuracy(3, &[3, 4]);
        assert!(a > 0.0 && a < 1.0, "accuracy {a}");
        assert_eq!(a, 0.75);
    }

    proptest! {
        #[test]
        fn always_in_unit_interval(
            sel in 0u32..1000,
            sites in proptest::collection::vec(0u32..1000, 0..50),
        ) {
            let a = schedule_accuracy(sel, &sites);
            prop_assert!((0.0..=1.0).contains(&a));
        }

        #[test]
        fn monotone_in_selected_site_quality(
            sites in proptest::collection::vec(1u32..1000, 1..50),
            a in 0u32..500,
            b in 0u32..500,
        ) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(
                schedule_accuracy(lo, &sites) <= schedule_accuracy(hi, &sites) + 1e-12
            );
        }

        #[test]
        fn perfect_iff_selected_matches_or_beats_best(
            sel in 0u32..1000,
            sites in proptest::collection::vec(1u32..1000, 1..50),
        ) {
            let best = *sites.iter().max().expect("non-empty");
            let a = schedule_accuracy(sel, &sites);
            if sel >= best {
                prop_assert_eq!(a, 1.0);
            } else {
                prop_assert!(a < 1.0, "sel {sel} < best {best} but accuracy {a}");
            }
        }
    }
}
