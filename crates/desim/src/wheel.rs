//! A hierarchical timing wheel (calendar queue): the event queue behind
//! [`Scheduler`](crate::Scheduler).
//!
//! The binary heap this replaces pays `O(log n)` comparisons and a cache
//! miss per sift on every operation. At paper scale (Grid3×10, 120
//! clients, one simulated hour) the queue holds tens of thousands of
//! pending events and the heap dominates the profile. A timing wheel
//! makes the common case — events within the next second — `O(1)`:
//!
//! * **Level 0** is 1024 buckets of one millisecond each. A bucket spans
//!   exactly one tick of [`SimTime`](gruber_types::SimTime), so FIFO
//!   order within a bucket *is* `(at, seq)` order: sequence numbers are
//!   assigned monotonically at insertion, and every entry in the bucket
//!   shares the same `at`.
//! * **Level 1** is 1024 buckets of 1024 ms each, covering the next
//!   2²⁰ ms (~17.5 simulated minutes). One L1 bucket spans exactly the
//!   whole L0 window, so rotation drains a single L1 bucket into L0 with
//!   every entry guaranteed to land.
//! * **Spill** is a `BTreeMap` keyed on `(at, seq)` for everything past
//!   the L1 horizon; it refills both wheel levels when the wheels drain.
//!
//! Windows only advance inside [`TimerWheel::pop_due`], and only once the
//! queue is committed to returning an entry (`min ≤ limit`). A failed
//! probe (`min > limit`) is non-destructive, so handlers that later
//! schedule for earlier times (clamped to *now* by the scheduler) can
//! never land behind an advanced epoch.
//!
//! The tiebreak argument for determinism: entries only ever *descend*
//! levels (spill → L1 → L0) in `(at, seq)` order, and any entry inserted
//! directly into a bucket afterwards carries a larger `seq` than
//! everything already there (the scheduler's counter is global and
//! monotone). Appending to a `Vec` per bucket therefore keeps every
//! bucket sorted by `seq`, and L0 pops replay exactly the heap's
//! `(at, seq)` order — byte-identical fingerprints. The tests below keep
//! that heap as the reference and check the wheel against it pop for pop.
//!
//! Because a bucket's position *is* its `seq` order, a wheel entry is
//! only a time and a slab slot (16 bytes): `seq` is kept where order
//! cannot come from position — the spill map's key — and the scheduler
//! reads an event's `seq` from its slab slot.

use std::collections::BTreeMap;
use std::mem;

/// One queued event: absolute time and slab slot. Its `seq` is implied by
/// its place in its bucket (see the [module docs](self)).
#[derive(Clone, Copy, Debug)]
struct Entry {
    at: u64,
    idx: u32,
}

/// log2 of the bucket count per level.
const SLOT_BITS: u32 = 10;
/// Buckets per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Words in a level's occupancy bitmap.
const WORDS: usize = SLOTS / 64;
/// Width of the L0 window: 1024 buckets × 1 ms.
const L0_SPAN: u64 = SLOTS as u64;
/// Width of the L1 window: 1024 buckets × 1024 ms = 2²⁰ ms.
const L1_SPAN: u64 = (SLOTS as u64) << SLOT_BITS;

/// An L0 bucket: entries for a single millisecond, in `seq` order.
/// `head` avoids shifting on pop; the vec keeps its capacity across
/// drain cycles.
#[derive(Default)]
struct Bucket {
    items: Vec<Entry>,
    head: usize,
}

fn set_bit(map: &mut [u64; WORDS], bucket: usize) {
    map[bucket / 64] |= 1 << (bucket % 64);
}

fn clear_bit(map: &mut [u64; WORDS], bucket: usize) {
    map[bucket / 64] &= !(1 << (bucket % 64));
}

/// Lowest set bucket index at or after `from_word * 64`, if any.
fn first_occupied(map: &[u64; WORDS], from_word: usize) -> Option<usize> {
    map.iter().enumerate().skip(from_word).find_map(|(w, &bits)| {
        (bits != 0).then(|| w * 64 + bits.trailing_zeros() as usize)
    })
}

/// `at < epoch + span`, treating an unrepresentable end as +∞. Windows
/// are span-aligned, so the saturated top window is exact, never aliased.
fn below_end(at: u64, epoch: u64, span: u64) -> bool {
    match epoch.checked_add(span) {
        Some(end) => at < end,
        None => true,
    }
}

/// The hierarchical timing wheel: a priority queue of `(at, seq, idx)`
/// insertions, popped in `(at, seq)` order as `(at, idx)`. `idx` is an
/// opaque payload handle (the scheduler's slab slot, which also holds the
/// `seq`). See the [module docs](self) for the level layout and ordering
/// argument.
///
/// Contract required of the caller:
///
/// * `seq` values are unique and assigned in insertion order (the
///   scheduler's global counter guarantees both);
/// * no insert is earlier than the `at` of the last popped entry (the
///   scheduler clamps schedule times to *now*).
pub(crate) struct TimerWheel {
    /// Millisecond buckets covering `[l0_epoch, l0_epoch + 1024)`.
    l0: Vec<Bucket>,
    l0_map: [u64; WORDS],
    /// Start of the L0 window; always a multiple of [`L0_SPAN`].
    l0_epoch: u64,
    /// First bitmap word that may hold an occupied L0 bucket.
    l0_hint: usize,
    /// 1024 ms buckets covering `[l1_epoch, l1_epoch + 2²⁰)`.
    l1: Vec<Vec<Entry>>,
    l1_map: [u64; WORDS],
    /// Start of the L1 window; always a multiple of [`L1_SPAN`].
    l1_epoch: u64,
    /// Events past the L1 horizon, sorted by `(at, seq)`.
    spill: BTreeMap<(u64, u64), u32>,
    len: usize,
    /// `at` of the last popped entry — the earliest legal insert.
    floor: u64,
}

impl Default for TimerWheel {
    fn default() -> Self {
        TimerWheel {
            l0: (0..SLOTS).map(|_| Bucket::default()).collect(),
            l0_map: [0; WORDS],
            l0_epoch: 0,
            l0_hint: 0,
            l1: (0..SLOTS).map(|_| Vec::new()).collect(),
            l1_map: [0; WORDS],
            l1_epoch: 0,
            spill: BTreeMap::new(),
            len: 0,
            floor: 0,
        }
    }
}

impl TimerWheel {
    fn push_l0(&mut self, e: Entry) {
        let b = (e.at & (L0_SPAN - 1)) as usize;
        self.l0[b].items.push(e);
        set_bit(&mut self.l0_map, b);
        self.l0_hint = self.l0_hint.min(b / 64);
    }

    fn push_l1(&mut self, e: Entry) {
        let b = ((e.at >> SLOT_BITS) & (SLOTS as u64 - 1)) as usize;
        self.l1[b].push(e);
        set_bit(&mut self.l1_map, b);
    }

    /// Enqueues an entry at absolute time `at`.
    pub(crate) fn insert(&mut self, at: u64, seq: u64, idx: u32) {
        debug_assert!(
            at >= self.floor,
            "insert at {at} behind the queue floor {}",
            self.floor
        );
        self.len += 1;
        let e = Entry { at, idx };
        if below_end(at, self.l0_epoch, L0_SPAN) {
            self.push_l0(e);
        } else if below_end(at, self.l1_epoch, L1_SPAN) {
            self.push_l1(e);
        } else {
            self.spill.insert((at, seq), idx);
        }
    }

    /// Removes the earliest entry and returns its `(at, idx)`, provided
    /// its `at` does not exceed `limit`. Returning `None` leaves the queue
    /// untouched.
    pub(crate) fn pop_due(&mut self, limit: u64) -> Option<(u64, u32)> {
        loop {
            if self.is_empty() {
                return None;
            }
            // L0 always holds the globally earliest entries when occupied:
            // inserts route anything below the L0 horizon here, and
            // rotations never leave an earlier entry on a higher level.
            if let Some(b) = first_occupied(&self.l0_map, self.l0_hint) {
                self.l0_hint = b / 64;
                let at = self.l0_epoch + b as u64;
                if at > limit {
                    return None;
                }
                let bucket = &mut self.l0[b];
                let e = bucket.items[bucket.head];
                debug_assert_eq!(e.at, at, "entry in the wrong L0 bucket");
                bucket.head += 1;
                if bucket.head == bucket.items.len() {
                    bucket.items.clear();
                    bucket.head = 0;
                    clear_bit(&mut self.l0_map, b);
                }
                self.len -= 1;
                self.floor = at;
                return Some((e.at, e.idx));
            }
            // L0 drained: rotate. The first occupied L1 bucket holds the
            // earliest remaining wheel entries (bucket index is monotone
            // in time within the L1 window).
            if let Some(b) = first_occupied(&self.l1_map, 0) {
                let min_at = self.l1[b]
                    .iter()
                    .map(|e| e.at)
                    .min()
                    .expect("occupied L1 bucket is nonempty");
                if min_at > limit {
                    return None;
                }
                // Committed to firing inside this bucket: advance the L0
                // window onto it. The bucket spans exactly one L0 window,
                // so every drained entry lands in the new window.
                self.l0_epoch = min_at & !(L0_SPAN - 1);
                self.l0_hint = 0;
                clear_bit(&mut self.l1_map, b);
                let mut drained = mem::take(&mut self.l1[b]);
                for e in drained.drain(..) {
                    self.push_l0(e);
                }
                self.l1[b] = drained; // hand the capacity back
                continue;
            }
            // Both wheels drained: jump the windows to the spill minimum
            // and refill. BTreeMap iteration is (at, seq) order, so
            // bucket FIFO order is preserved.
            let (&(at, _), _) = self.spill.first_key_value().expect("len > 0");
            if at > limit {
                return None;
            }
            self.l1_epoch = at & !(L1_SPAN - 1);
            self.l0_epoch = at & !(L0_SPAN - 1);
            self.l0_hint = 0;
            let refill = match self.l1_epoch.checked_add(L1_SPAN) {
                Some(end) => {
                    let rest = self.spill.split_off(&(end, 0));
                    mem::replace(&mut self.spill, rest)
                }
                None => mem::take(&mut self.spill),
            };
            for ((at, _), idx) in refill {
                let e = Entry { at, idx };
                if below_end(at, self.l0_epoch, L0_SPAN) {
                    self.push_l0(e);
                } else {
                    self.push_l1(e);
                }
            }
        }
    }

    /// Number of queued entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue holds no entries.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_all(q: &mut TimerWheel) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        while let Some(e) = q.pop_due(u64::MAX) {
            out.push(e);
        }
        out
    }

    #[test]
    fn pops_in_at_seq_order_across_all_levels() {
        let mut w = TimerWheel::default();
        // L0 (7), L1 (5_000), spill (3 << 20), plus a same-ms burst.
        let times = [7u64, 5_000, 3 << 20, 7, 900, 1 << 20, 7];
        for (seq, &at) in times.iter().enumerate() {
            w.insert(at, seq as u64, seq as u32);
        }
        assert_eq!(w.len(), times.len());
        let popped = drain_all(&mut w);
        // `idx` is the insertion's `seq` here, so `(at, idx)` order is
        // `(at, seq)` order.
        let mut expect: Vec<(u64, u32)> = times
            .iter()
            .enumerate()
            .map(|(s, &at)| (at, s as u32))
            .collect();
        expect.sort_unstable();
        assert_eq!(popped, expect);
        assert!(w.is_empty());
    }

    #[test]
    fn window_boundaries_route_and_pop_exactly() {
        // Every alignment edge: last ms of L0, first ms of the next L0
        // window, last ms of L1, first ms past the L1 horizon.
        let mut w = TimerWheel::default();
        let edges = [
            L0_SPAN - 1,
            L0_SPAN,
            L0_SPAN + 1,
            L1_SPAN - 1,
            L1_SPAN,
            L1_SPAN + 1,
            2 * L1_SPAN,
        ];
        for (seq, &at) in edges.iter().enumerate() {
            w.insert(at, seq as u64, 0);
        }
        let ats: Vec<u64> = drain_all(&mut w).iter().map(|e| e.0).collect();
        assert_eq!(ats, edges);
    }

    #[test]
    fn failed_probe_is_non_destructive() {
        let mut w = TimerWheel::default();
        w.insert(2_000, 0, 0); // lives on L1
        assert_eq!(w.pop_due(1_999), None);
        assert_eq!(w.len(), 1);
        // An earlier insert after the failed probe must still pop first.
        w.insert(100, 1, 1);
        assert_eq!(w.pop_due(u64::MAX), Some((100, 1)));
        assert_eq!(w.pop_due(u64::MAX), Some((2_000, 0)));
    }

    #[test]
    fn limit_is_inclusive() {
        let mut w = TimerWheel::default();
        w.insert(500, 0, 0);
        assert_eq!(w.pop_due(499), None);
        assert_eq!(w.pop_due(500), Some((500, 0)));
    }

    #[test]
    fn spill_refill_preserves_burst_order() {
        let mut w = TimerWheel::default();
        // A same-millisecond burst beyond the L1 horizon: the refill path
        // must keep seq order within the bucket.
        let far = 5 * L1_SPAN + 123;
        for seq in 0..64u64 {
            w.insert(far, seq, seq as u32);
        }
        let idxs: Vec<u32> = drain_all(&mut w).iter().map(|e| e.1).collect();
        assert_eq!(idxs, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn near_max_times_do_not_overflow() {
        let mut w = TimerWheel::default();
        for (seq, at) in [u64::MAX, u64::MAX - 1, u64::MAX - L1_SPAN]
            .into_iter()
            .enumerate()
        {
            w.insert(at, seq as u64, 0);
        }
        let ats: Vec<u64> = drain_all(&mut w).iter().map(|e| e.0).collect();
        assert_eq!(ats, vec![u64::MAX - L1_SPAN, u64::MAX - 1, u64::MAX]);
    }
    #[test]
    fn entries_are_a_time_and_a_slot() {
        // The wheel buckets are the largest allocation of a half-million
        // client run (a million pending events); `seq` lives in the slab.
        assert_eq!(std::mem::size_of::<Entry>(), 16);
    }
}

/// Pure-queue differential property: the wheel and the reference heap
/// must agree on every pop under arbitrary interleavings of inserts
/// (near, far, same-timestamp bursts) and limited pops.
#[cfg(test)]
mod properties {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The reference queue: the binary heap the wheel replaced, with the
    /// wheel's method names and contract.
    #[derive(Default)]
    struct HeapQueue {
        heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
    }

    impl HeapQueue {
        fn insert(&mut self, at: u64, seq: u64, idx: u32) {
            self.heap.push(Reverse((at, seq, idx)));
        }

        fn pop_due(&mut self, limit: u64) -> Option<(u64, u32)> {
            match self.heap.peek() {
                Some(&Reverse((at, _, _))) if at <= limit => {
                    let Reverse((at, _, idx)) = self.heap.pop().expect("peeked");
                    Some((at, idx))
                }
                _ => None,
            }
        }

        fn len(&self) -> usize {
            self.heap.len()
        }

        fn is_empty(&self) -> bool {
            self.heap.is_empty()
        }
    }

    /// Expands a compact op description into a time respecting `floor`.
    /// `band` selects: same-ms burst, L0-near, L1-range, spill-far.
    fn op_time(floor: u64, band: u64, delta: u64) -> u64 {
        let base = match band {
            0 => 0,                  // burst: reuse the floor millisecond
            1 => delta % L0_SPAN,    // near: inside the L0 window
            2 => delta % L1_SPAN,    // mid: inside the L1 window
            _ => L1_SPAN + delta,    // far: beyond the horizon (spill)
        };
        floor.saturating_add(base)
    }

    proptest! {
        /// Identical pop streams from the wheel and the heap for the same
        /// insert/pop script.
        #[test]
        fn wheel_matches_heap_pop_for_pop(
            ops in proptest::collection::vec(
                (0u64..4, 0u64..3_000_000, 0u64..4),
                1..120,
            ),
        ) {
            let mut wheel = TimerWheel::default();
            let mut heap = HeapQueue::default();
            let mut floor = 0u64;
            for (seq, &(band, delta, pops)) in (0u64..).zip(&ops) {
                let at = op_time(floor, band, delta);
                wheel.insert(at, seq, seq as u32);
                heap.insert(at, seq, seq as u32);
                for p in 0..pops {
                    // Mix limited probes with unlimited pops.
                    let limit = if p % 2 == 0 {
                        floor.saturating_add(delta % L0_SPAN)
                    } else {
                        u64::MAX
                    };
                    let a = wheel.pop_due(limit);
                    let b = heap.pop_due(limit);
                    prop_assert_eq!(a, b);
                    if let Some((at, _)) = a {
                        floor = at;
                    }
                }
                prop_assert_eq!(wheel.len(), heap.len());
            }
            loop {
                let a = wheel.pop_due(u64::MAX);
                let b = heap.pop_due(u64::MAX);
                prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
            prop_assert!(wheel.is_empty() && heap.is_empty());
        }
    }
}
