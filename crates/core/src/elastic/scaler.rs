//! The autoscaler control loop.
//!
//! The *when* of the paper's Section 5 observer: a pure policy state
//! machine that consumes periodic [`PoolSample`]s — backlog gauges plus
//! how many points the `obs` health scorer currently flags as degrading —
//! and answers [`ScaleDecision`]s. The runtime owns the mechanism (who
//! joins, who drains, how clients re-home).
//!
//! Stability comes from three guards, mirroring the health scorer's
//! hysteresis style:
//!
//! * **streaks** — growth needs [`ScalerConfig::grow_windows`]
//!   *consecutive* hot samples, shrink needs
//!   [`ScalerConfig::shrink_windows`] consecutive idle ones;
//! * **dead band** — a sample that is neither hot nor idle resets both
//!   streaks, so mixed evidence never accumulates;
//! * **cooldown** — after any action, [`ScalerConfig::cooldown`] samples
//!   are ignored entirely, giving the pool change time to show up in the
//!   signals before new evidence counts.

/// Scaling policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScalerConfig {
    /// A sample is **hot** when any point's backlog reaches this, or any
    /// point is health-flagged degrading.
    pub grow_backlog: u32,
    /// A sample is **idle** when the *pool-wide* backlog is at or below
    /// this and nothing is degraded.
    pub shrink_backlog: u32,
    /// Consecutive hot samples before growing.
    pub grow_windows: u32,
    /// Consecutive idle samples before shrinking.
    pub shrink_windows: u32,
    /// Samples ignored after each grow/shrink action.
    pub cooldown: u32,
    /// Never shrink below this many live points.
    pub min_dps: u32,
    /// Never grow above this many live points.
    pub max_dps: u32,
}

impl Default for ScalerConfig {
    fn default() -> Self {
        ScalerConfig {
            grow_backlog: 8,
            shrink_backlog: 0,
            grow_windows: 2,
            shrink_windows: 4,
            cooldown: 2,
            min_dps: 1,
            max_dps: 256,
        }
    }
}

impl ScalerConfig {
    /// Sanity-checks the policy.
    pub fn validate(&self) -> Result<(), gruber_types::GridError> {
        if self.grow_backlog == 0
            || self.grow_windows == 0
            || self.shrink_windows == 0
            || self.min_dps == 0
            || self.max_dps < self.min_dps
        {
            return Err(gruber_types::GridError::InvalidConfig(
                "bad autoscaler policy".into(),
            ));
        }
        Ok(())
    }
}

/// One periodic observation of the pool, assembled by the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct PoolSample {
    /// Live decision points.
    pub(crate) live: u32,
    /// Deepest single service backlog across live points.
    pub(crate) max_backlog: u32,
    /// Sum of service backlogs across live points.
    pub(crate) total_backlog: u32,
    /// Points currently health-flagged `Degrading` (an elastic pool
    /// always records, traced or not, so the flags are always scored).
    pub(crate) degraded: u32,
}

/// What the pool should do right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ScaleDecision {
    /// No change.
    Hold,
    /// Join one decision point.
    Grow,
    /// Drain and retire one decision point.
    Shrink,
}

/// The control loop's memory: streaks and cooldown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Autoscaler {
    cfg: ScalerConfig,
    hot_streak: u32,
    idle_streak: u32,
    cooldown: u32,
}

impl Autoscaler {
    /// A fresh loop with no accumulated evidence.
    pub(crate) fn new(cfg: ScalerConfig) -> Self {
        Autoscaler {
            cfg,
            hot_streak: 0,
            idle_streak: 0,
            cooldown: 0,
        }
    }

    /// Feeds one sample; returns the decision. Pure and deterministic:
    /// the same sample sequence always yields the same decisions.
    pub(crate) fn observe(&mut self, s: PoolSample) -> ScaleDecision {
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return ScaleDecision::Hold;
        }
        let hot = s.max_backlog >= self.cfg.grow_backlog || s.degraded > 0;
        let idle = !hot && s.total_backlog <= self.cfg.shrink_backlog && s.degraded == 0;
        if hot {
            self.hot_streak += 1;
            self.idle_streak = 0;
        } else if idle {
            self.idle_streak += 1;
            self.hot_streak = 0;
        } else {
            // Dead band: evidence for neither direction.
            self.hot_streak = 0;
            self.idle_streak = 0;
        }
        if self.hot_streak >= self.cfg.grow_windows {
            self.hot_streak = 0;
            if s.live < self.cfg.max_dps {
                self.cooldown = self.cfg.cooldown;
                return ScaleDecision::Grow;
            }
            return ScaleDecision::Hold; // pinned at max: re-accumulate
        }
        if self.idle_streak >= self.cfg.shrink_windows {
            self.idle_streak = 0;
            if s.live > self.cfg.min_dps {
                self.cooldown = self.cfg.cooldown;
                return ScaleDecision::Shrink;
            }
            return ScaleDecision::Hold; // pinned at min: re-accumulate
        }
        ScaleDecision::Hold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ScalerConfig {
        ScalerConfig::default()
    }

    fn hot(live: u32) -> PoolSample {
        PoolSample {
            live,
            max_backlog: 20,
            total_backlog: 40,
            degraded: 0,
        }
    }

    fn idle(live: u32) -> PoolSample {
        PoolSample {
            live,
            ..PoolSample::default()
        }
    }

    fn busy_but_fine(live: u32) -> PoolSample {
        PoolSample {
            live,
            max_backlog: 3,
            total_backlog: 9,
            degraded: 0,
        }
    }

    #[test]
    fn grows_after_exactly_grow_windows_hot_samples() {
        let mut a = Autoscaler::new(cfg());
        assert_eq!(a.observe(hot(2)), ScaleDecision::Hold);
        assert_eq!(a.observe(hot(2)), ScaleDecision::Grow);
    }

    #[test]
    fn degraded_points_alone_count_as_hot() {
        let mut a = Autoscaler::new(cfg());
        let sick = PoolSample {
            live: 4,
            degraded: 1,
            ..PoolSample::default()
        };
        assert_eq!(a.observe(sick), ScaleDecision::Hold);
        assert_eq!(a.observe(sick), ScaleDecision::Grow);
    }

    #[test]
    fn dead_band_resets_both_streaks() {
        let mut a = Autoscaler::new(cfg());
        assert_eq!(a.observe(hot(2)), ScaleDecision::Hold);
        assert_eq!(a.observe(busy_but_fine(2)), ScaleDecision::Hold);
        // The earlier hot sample no longer counts.
        assert_eq!(a.observe(hot(2)), ScaleDecision::Hold);
        assert_eq!(a.observe(hot(2)), ScaleDecision::Grow);
    }

    #[test]
    fn cooldown_ignores_evidence_entirely() {
        let mut a = Autoscaler::new(cfg());
        a.observe(hot(2));
        assert_eq!(a.observe(hot(2)), ScaleDecision::Grow);
        // Two cooldown samples are swallowed even though they are hot.
        assert_eq!(a.observe(hot(3)), ScaleDecision::Hold);
        assert_eq!(a.observe(hot(3)), ScaleDecision::Hold);
        // Then evidence accumulates from scratch.
        assert_eq!(a.observe(hot(3)), ScaleDecision::Hold);
        assert_eq!(a.observe(hot(3)), ScaleDecision::Grow);
    }

    #[test]
    fn shrinks_after_a_sustained_idle_streak_only() {
        let mut a = Autoscaler::new(cfg());
        for _ in 0..3 {
            assert_eq!(a.observe(idle(4)), ScaleDecision::Hold);
        }
        assert_eq!(a.observe(idle(4)), ScaleDecision::Shrink);
    }

    #[test]
    fn respects_min_and_max_pool_sizes() {
        let mut a = Autoscaler::new(ScalerConfig {
            max_dps: 2,
            ..cfg()
        });
        a.observe(hot(2));
        assert_eq!(a.observe(hot(2)), ScaleDecision::Hold, "already at max");
        let mut a = Autoscaler::new(cfg());
        for _ in 0..3 {
            a.observe(idle(1));
        }
        assert_eq!(a.observe(idle(1)), ScaleDecision::Hold, "already at min");
    }

    #[test]
    fn decision_sequence_is_deterministic() {
        let samples = [hot(2), hot(2), idle(3), idle(3), busy_but_fine(3), hot(3)];
        let run = |samples: &[PoolSample]| {
            let mut a = Autoscaler::new(cfg());
            samples.iter().map(|&s| a.observe(s)).collect::<Vec<_>>()
        };
        assert_eq!(run(&samples), run(&samples));
    }

    #[test]
    fn validate_rejects_inverted_bounds() {
        assert!(ScalerConfig::default().validate().is_ok());
        let bad = ScalerConfig {
            min_dps: 8,
            max_dps: 4,
            ..cfg()
        };
        assert!(bad.validate().is_err());
        let zero = ScalerConfig {
            grow_windows: 0,
            ..cfg()
        };
        assert!(zero.validate().is_err());
    }
}
