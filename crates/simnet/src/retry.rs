//! Retry / timeout / backoff policies for unreliable message legs.
//!
//! The paper's deployment simply re-issues a query after a client-side
//! timeout; this module makes the retransmission strategy explicit and
//! per-message-class so the fault-injection study can compare
//! fire-and-forget, fixed-interval, and jittered-exponential senders under
//! the same loss schedule.
//!
//! Attempts are numbered from zero: attempt 0 is the original transmission,
//! and [`RetryPolicy::backoff`] answers "the message of attempt `n` was
//! lost — how long until attempt `n + 1`, if any?". Every policy gives up
//! after a bounded number of *retries* (retransmissions beyond attempt 0),
//! so a sender makes at most `1 + max_retries()` transmissions.
//!
//! ```
//! use desim::DetRng;
//! use gruber_types::SimDuration;
//! use simnet::RetryPolicy;
//!
//! let policy = RetryPolicy::ExpJitter {
//!     base: SimDuration::from_millis(250),
//!     cap: SimDuration::from_secs(4),
//!     max_retries: 5,
//! };
//! let mut rng = DetRng::new(7, 0);
//! let first = policy.backoff(0, &mut rng).expect("retries remain");
//! assert!(first <= SimDuration::from_secs(4));
//! assert!(policy.backoff(5, &mut rng).is_none()); // budget exhausted
//! ```

use desim::DetRng;
use gruber_types::SimDuration;

/// The message legs a retry policy can govern, used to pick the policy out
/// of a [`RetryConfig`]. Responses and inform legs stay fire-and-forget:
/// the client-side timeout (and its retransmission) already covers a lost
/// response end-to-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageClass {
    /// A client → decision-point availability query.
    Query,
    /// A decision-point → decision-point state-exchange flood message.
    Exchange,
}

/// When (and whether) to retransmit a message whose previous attempt was
/// lost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RetryPolicy {
    /// Fire-and-forget: never retransmit (the seed behaviour — a lost
    /// query is only noticed by the client timeout).
    None,
    /// Retransmit at a fixed interval, up to `max_retries` times.
    Fixed {
        /// Delay between an observed loss and the retransmission.
        interval: SimDuration,
        /// Retransmission budget (attempts beyond the original send).
        max_retries: u32,
    },
    /// Decorrelated-ish exponential backoff: attempt `n` waits
    /// `U[ceil(e/2), e]` where `e = min(cap, base * 2^n)`, up to
    /// `max_retries` times. The jitter draw never exceeds the cap.
    ExpJitter {
        /// Backoff before the first retransmission (then doubling).
        base: SimDuration,
        /// Hard ceiling on any single backoff delay.
        cap: SimDuration,
        /// Retransmission budget (attempts beyond the original send).
        max_retries: u32,
    },
}

impl RetryPolicy {
    /// Backoff to wait after losing transmission `attempt` (0-based; the
    /// original send is attempt 0). `None` means the policy gives up and
    /// the loss becomes permanent for this message.
    pub fn backoff(&self, attempt: u32, rng: &mut DetRng) -> Option<SimDuration> {
        match *self {
            RetryPolicy::None => None,
            RetryPolicy::Fixed {
                interval,
                max_retries,
            } => (attempt < max_retries).then_some(interval),
            RetryPolicy::ExpJitter {
                base,
                cap,
                max_retries,
            } => {
                if attempt >= max_retries {
                    return None;
                }
                let exp_ms = base
                    .as_millis()
                    .saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX))
                    .min(cap.as_millis())
                    .max(1);
                // Half-jitter in [ceil(e/2), e]: bounded below so retries
                // make progress, bounded above by the cap.
                let lo = exp_ms.div_ceil(2);
                let ms = lo + rng.next_u64() % (exp_ms - lo + 1);
                Some(SimDuration::from_millis(ms))
            }
        }
    }

    /// The retransmission budget (0 for fire-and-forget).
    pub(crate) fn max_retries(&self) -> u32 {
        match *self {
            RetryPolicy::None => 0,
            RetryPolicy::Fixed { max_retries, .. }
            | RetryPolicy::ExpJitter { max_retries, .. } => max_retries,
        }
    }

    /// Whether the policy ever retransmits.
    pub fn retries(&self) -> bool {
        self.max_retries() > 0
    }

    /// A sensible fixed-interval policy: 3 retries, 500 ms apart.
    pub fn fixed_default() -> Self {
        RetryPolicy::Fixed {
            interval: SimDuration::from_millis(500),
            max_retries: 3,
        }
    }

    /// A sensible jittered-exponential policy: 5 retries, 250 ms base,
    /// 4 s cap.
    pub(crate) fn exp_jitter_default() -> Self {
        RetryPolicy::ExpJitter {
            base: SimDuration::from_millis(250),
            cap: SimDuration::from_secs(4),
            max_retries: 5,
        }
    }
}

/// Per-message-class retry policies for one simulated deployment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryConfig {
    /// Policy for client → DP queries.
    pub query: RetryPolicy,
    /// Policy for DP ↔ DP exchange flood messages.
    pub exchange: RetryPolicy,
}

impl RetryConfig {
    /// Fire-and-forget on every leg: the seed behaviour, and the default.
    pub const NONE: RetryConfig = RetryConfig {
        query: RetryPolicy::None,
        exchange: RetryPolicy::None,
    };

    /// A resilient deployment: jittered exponential everywhere.
    pub fn resilient() -> Self {
        RetryConfig {
            query: RetryPolicy::exp_jitter_default(),
            exchange: RetryPolicy::exp_jitter_default(),
        }
    }

    /// The policy governing `class`.
    pub fn policy(&self, class: MessageClass) -> RetryPolicy {
        match class {
            MessageClass::Query => self.query,
            MessageClass::Exchange => self.exchange,
        }
    }
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig::NONE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn none_never_retries() {
        let mut rng = DetRng::new(1, 1);
        assert_eq!(RetryPolicy::None.backoff(0, &mut rng), None);
        assert_eq!(RetryPolicy::None.max_retries(), 0);
        assert!(!RetryPolicy::None.retries());
    }

    #[test]
    fn fixed_gives_constant_interval_then_gives_up() {
        let p = RetryPolicy::Fixed {
            interval: SimDuration::from_millis(300),
            max_retries: 2,
        };
        let mut rng = DetRng::new(2, 2);
        assert_eq!(p.backoff(0, &mut rng), Some(SimDuration::from_millis(300)));
        assert_eq!(p.backoff(1, &mut rng), Some(SimDuration::from_millis(300)));
        assert_eq!(p.backoff(2, &mut rng), None);
        assert!(p.retries());
    }

    #[test]
    fn exp_jitter_grows_until_cap() {
        let p = RetryPolicy::ExpJitter {
            base: SimDuration::from_millis(100),
            cap: SimDuration::from_millis(800),
            max_retries: 10,
        };
        let mut rng = DetRng::new(3, 3);
        // Attempt n draws from [e/2, e], e = min(800, 100 * 2^n).
        for (attempt, e) in [(0u32, 100u64), (1, 200), (2, 400), (3, 800), (4, 800)] {
            let d = p.backoff(attempt, &mut rng).unwrap().as_millis();
            assert!(d >= e.div_ceil(2) && d <= e, "attempt {attempt}: {d} ms");
        }
        assert_eq!(p.backoff(10, &mut rng), None);
    }

    #[test]
    fn config_selects_per_class() {
        let cfg = RetryConfig {
            query: RetryPolicy::fixed_default(),
            exchange: RetryPolicy::None,
        };
        assert!(cfg.policy(MessageClass::Query).retries());
        assert!(!cfg.policy(MessageClass::Exchange).retries());
        assert_eq!(RetryConfig::default(), RetryConfig::NONE);
        assert!(RetryConfig::resilient().query.retries());
    }

    proptest! {
        /// The issue's pinned property: jittered exponential backoff stays
        /// within its configured cap for all seeds (and all attempts,
        /// bases, and caps), and is always strictly positive.
        #[test]
        fn exp_jitter_never_exceeds_cap(
            seed in 0u64..5_000,
            stream in 0u64..16,
            base_ms in 1u64..10_000,
            cap_ms in 1u64..60_000,
            attempt in 0u32..64,
        ) {
            let p = RetryPolicy::ExpJitter {
                base: SimDuration::from_millis(base_ms),
                cap: SimDuration::from_millis(cap_ms),
                max_retries: 64,
            };
            let mut rng = DetRng::new(seed, stream);
            let d = p.backoff(attempt, &mut rng).expect("within budget");
            prop_assert!(d.as_millis() >= 1, "backoff must move time forward");
            prop_assert!(
                d.as_millis() <= cap_ms.max(base_ms.min(cap_ms)),
                "backoff {} ms exceeds cap {} ms", d.as_millis(), cap_ms
            );
            prop_assert!(d.as_millis() <= cap_ms.max(1));
        }

        /// Fixed policies give up after exactly `max_retries`.
        #[test]
        fn budget_is_respected(max_retries in 0u32..20, attempt in 0u32..40) {
            let p = RetryPolicy::Fixed {
                interval: SimDuration::from_millis(100),
                max_retries,
            };
            let mut rng = DetRng::new(0, 0);
            prop_assert_eq!(p.backoff(attempt, &mut rng).is_some(), attempt < max_retries);
        }
    }
}
