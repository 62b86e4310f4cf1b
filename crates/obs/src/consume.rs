//! The flight recorder: the last N raw events of a run, verbatim.
//!
//! The sink calls two in-crate types directly on every emission — the
//! [`crate::timeline::TimelineBuilder`] (one clock: bins, totals and the
//! health scores on those bins) and this [`RawRing`]:
//!
//! ```text
//!                        ┌─> TimelineBuilder  (cadence bins → samples + totals
//!   Recorder::emit ──────┤                      + health scores → flags)
//!                        └─> RawRing          (last-N raw events, flags
//!                                              ahead of the event that
//!                                              closed their bin)
//! ```
//!
//! Both are called with nondecreasing `at_ms` within one run (simulated
//! or wall-clock milliseconds), under the recorder's lock.

use std::collections::VecDeque;

use crate::event::TraceEvent;

/// The last-N raw events, verbatim.
///
/// A bounded ring of `(at_ms, event)` pairs, evicting the oldest on
/// overflow and counting what it dropped. [`crate::RunTimeline::recent`]
/// and the render's raw-event tail read from here.
#[derive(Debug, Clone, Default)]
pub(crate) struct RawRing {
    ring: VecDeque<(u64, TraceEvent)>,
    capacity: usize,
    dropped: u64,
}

impl RawRing {
    /// A ring keeping the last `capacity` events (0 keeps none).
    pub(crate) fn new(capacity: usize) -> Self {
        RawRing {
            ring: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            dropped: 0,
        }
    }

    /// Events evicted to make room (total over the run).
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Snapshot of the retained events, oldest first.
    pub(crate) fn snapshot(&self) -> Vec<(u64, TraceEvent)> {
        self.ring.iter().copied().collect()
    }

    /// Keeps one emission, evicting the oldest when full.
    pub(crate) fn observe(&mut self, at_ms: u64, ev: &TraceEvent) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back((at_ms, *ev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_last_n_and_counts_drops() {
        let mut r = RawRing::new(2);
        for seq in 0..5 {
            r.observe(seq, &TraceEvent::EventExecuted { seq });
        }
        assert_eq!(r.dropped(), 3);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0], (3, TraceEvent::EventExecuted { seq: 3 }));
        assert_eq!(snap[1], (4, TraceEvent::EventExecuted { seq: 4 }));
    }

    #[test]
    fn zero_capacity_ring_drops_everything() {
        let mut r = RawRing::new(0);
        r.observe(1, &TraceEvent::EventExecuted { seq: 1 });
        assert_eq!(r.dropped(), 1);
        assert!(r.snapshot().is_empty());
    }
}
