//! A hierarchical timing wheel (calendar queue) threaded through the
//! scheduler's slab: the event queue behind
//! [`Scheduler`](crate::Scheduler).
//!
//! The binary heap this replaces pays `O(log n)` comparisons and a cache
//! miss per sift on every operation. At paper scale (Grid3×10, 120
//! clients, one simulated hour) the queue holds tens of thousands of
//! pending events and the heap dominates the profile. A timing wheel
//! makes the common case `O(1)`:
//!
//! * **Level 0** is 1024 buckets of one millisecond each. A bucket spans
//!   exactly one tick of [`SimTime`](gruber_types::SimTime), so FIFO
//!   order within a bucket *is* `(at, seq)` order: sequence numbers are
//!   assigned monotonically at insertion, and every entry in the bucket
//!   shares the same `at`.
//! * **Level 1** is 1024 buckets of 1024 ms each, covering 2²⁰ ms
//!   (~17.5 simulated minutes). One L1 bucket spans exactly the whole L0
//!   window, so rotation moves a single L1 bucket into L0 with every
//!   entry guaranteed to land.
//! * **Level 2** is 1024 buckets of 2²⁰ ms each, covering 2³⁰ ms
//!   (~12.4 simulated days); one L2 bucket spans exactly the L1 window.
//!   A job completion (lognormal runtimes, 40-minute mean) lands here.
//! * **Spill** is a `BTreeMap` keyed on `(at, seq)` for everything past
//!   the L2 horizon, which no paper run reaches; it refills L2 when all
//!   three levels drain.
//!
//! The wheel stores no entries of its own. A queued event *is* its slab
//! slot `idx`, and the wheel keeps one [`Link`] per slot — the event's
//! time and the next slot in its bucket — in a column parallel to the
//! scheduler's slab. A bucket is a `(head, tail)` pair of slot indices,
//! ended by [`NIL`]; an insert appends at the tail, and a rotation
//! relinks a bucket's list into the level below one `next` field at a
//! time, moving no entry. Nothing is allocated per bucket, so no bucket
//! capacity outlives its entries.
//!
//! Windows only advance inside [`TimerWheel::pop_due`], and only once the
//! queue is committed to returning an entry (`min ≤ limit`). A failed
//! probe (`min > limit`) is non-destructive, so handlers that later
//! schedule for earlier times (clamped to *now* by the scheduler) can
//! never land behind an advanced epoch.
//!
//! The tiebreak argument for determinism: entries only ever *descend*
//! levels (spill → L2 → L1 → L0), and a descent walks a list in order,
//! so it keeps the relative order of any two entries; the spill hands
//! them over in `(at, seq)` order. An entry inserted directly into a
//! bucket carries a larger `seq` than everything already queued (the
//! scheduler's counter is global and monotone), so appending it keeps,
//! in every list, the entries of any one `at` in `seq` order. An L0
//! bucket holds a single `at`, so L0 pops replay exactly the heap's
//! `(at, seq)` order — byte-identical fingerprints. The tests below keep
//! that heap as the reference and check the wheel against it pop for pop.
//!
//! Because a list's order *is* its `seq` order, a link is only a time
//! and a slot (16 bytes): `seq` is kept where order cannot come from
//! position — the spill map's key — and the scheduler reads an event's
//! `seq` from its slab slot.

use std::collections::BTreeMap;
use std::mem;

/// The list terminator: "no slot". The scheduler never creates slot
/// `u32::MAX`, so no queued event is ever mistaken for the end of a list.
pub(crate) const NIL: u32 = u32::MAX;

/// A slab slot's place in the queue: its event's absolute time and the
/// next slot in the same bucket. Its `seq` is implied by its place in
/// its list (see the [module docs](self)).
#[derive(Clone, Copy, Debug)]
struct Link {
    at: u64,
    /// The next slot in the bucket, [`NIL`] at the tail; a slot that is
    /// not queued links to itself.
    next: u32,
}

/// A bucket: the first and last slot of its list, [`NIL`] when empty.
#[derive(Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
}

const EMPTY: List = List {
    head: NIL,
    tail: NIL,
};

/// log2 of the bucket count per level.
const SLOT_BITS: u32 = 10;
/// Buckets per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Words in a level's occupancy bitmap.
const WORDS: usize = SLOTS / 64;
/// Wheel levels; anything past the top level's window spills.
const LEVELS: usize = 3;

/// Width of one bucket of level `k`: 1 ms, 2¹⁰ ms, 2²⁰ ms.
const fn width(k: usize) -> u64 {
    1 << (SLOT_BITS as usize * k)
}

/// Width of level `k`'s window: 2¹⁰ ms, 2²⁰ ms, 2³⁰ ms.
const fn span(k: usize) -> u64 {
    width(k) << SLOT_BITS
}

/// The bucket of level `k` that time `at` falls in.
fn bucket(at: u64, k: usize) -> usize {
    (at >> (SLOT_BITS as usize * k)) as usize & (SLOTS - 1)
}

/// `at < epoch + span`, treating an unrepresentable end as +∞. Windows
/// are span-aligned, so the saturated top window is exact, never aliased.
fn below_end(at: u64, epoch: u64, span: u64) -> bool {
    match epoch.checked_add(span) {
        Some(end) => at < end,
        None => true,
    }
}

/// One wheel level: 1024 bucket lists over a span-aligned window.
struct Level {
    lists: Box<[List]>,
    /// Occupancy bitmap: bit `b` is set iff bucket `b` is nonempty.
    map: [u64; WORDS],
    /// Start of the window; always a multiple of the level's span.
    epoch: u64,
}

impl Level {
    fn new() -> Self {
        Level {
            lists: vec![EMPTY; SLOTS].into_boxed_slice(),
            map: [0; WORDS],
            epoch: 0,
        }
    }

    /// Appends slot `idx` to the tail of bucket `b`.
    fn append(&mut self, links: &mut [Link], b: usize, idx: u32) {
        links[idx as usize].next = NIL;
        let list = &mut self.lists[b];
        if list.tail == NIL {
            list.head = idx;
            self.map[b / 64] |= 1 << (b % 64);
        } else {
            links[list.tail as usize].next = idx;
        }
        list.tail = idx;
    }

    /// Unlinks and returns the head of nonempty bucket `b`.
    fn pop_front(&mut self, links: &mut [Link], b: usize) -> u32 {
        let list = &mut self.lists[b];
        let idx = list.head;
        let link = &mut links[idx as usize];
        list.head = mem::replace(&mut link.next, idx);
        if list.head == NIL {
            list.tail = NIL;
            self.map[b / 64] &= !(1 << (b % 64));
        }
        idx
    }

    /// Empties bucket `b`, returning the head of its list.
    fn take(&mut self, b: usize) -> u32 {
        self.map[b / 64] &= !(1 << (b % 64));
        mem::replace(&mut self.lists[b], EMPTY).head
    }

    /// Lowest occupied bucket at or after `from_word * 64`, if any.
    fn first_occupied(&self, from_word: usize) -> Option<usize> {
        self.map
            .iter()
            .enumerate()
            .skip(from_word)
            .find_map(|(w, &bits)| (bits != 0).then(|| w * 64 + bits.trailing_zeros() as usize))
    }
}

/// The hierarchical timing wheel: a priority queue of `(at, seq, idx)`
/// insertions, popped in `(at, seq)` order as `(at, idx)`. `idx` is the
/// scheduler's slab slot, which also holds the `seq`. See the
/// [module docs](self) for the level layout and ordering argument.
pub(crate) struct TimerWheel {
    /// One link per slab slot, indexed like the scheduler's slab.
    links: Vec<Link>,
    /// L0, L1 and L2; each window is one bucket of the level above.
    levels: [Level; LEVELS],
    /// First bitmap word that may hold an occupied L0 bucket.
    l0_hint: usize,
    /// Events past the L2 horizon, sorted by `(at, seq)`.
    spill: BTreeMap<(u64, u64), u32>,
    len: usize,
    /// `at` of the last popped entry — the earliest legal insert.
    floor: u64,
}

impl Default for TimerWheel {
    fn default() -> Self {
        TimerWheel {
            links: Vec::new(),
            levels: [Level::new(), Level::new(), Level::new()],
            l0_hint: 0,
            spill: BTreeMap::new(),
            len: 0,
            floor: 0,
        }
    }
}

impl TimerWheel {
    /// Queues slot `idx` to pop at absolute time `at`.
    ///
    /// Contract required of the caller (the scheduler keeps all four):
    ///
    /// * `seq` values are unique and assigned in insertion order;
    /// * `at` is no earlier than the `at` of the last popped entry (the
    ///   scheduler clamps schedule times to *now*);
    /// * a slot is queued at most once: `idx` is inserted again only
    ///   after [`TimerWheel::pop_due`] returned it, since its link is
    ///   the one place its queue position lives;
    /// * `idx` is not [`NIL`] (`u32::MAX`), the list terminator.
    ///
    /// Debug builds check the last three.
    pub(crate) fn insert(&mut self, at: u64, seq: u64, idx: u32) {
        debug_assert!(
            at >= self.floor,
            "insert at {at} behind the queue floor {}",
            self.floor
        );
        debug_assert_ne!(idx, NIL, "slot u32::MAX is the list terminator");
        let i = idx as usize;
        if i >= self.links.len() {
            let n = self.links.len();
            self.links.extend((n..=i).map(|j| Link {
                at: 0,
                next: j as u32,
            }));
        }
        debug_assert_eq!(self.links[i].next, idx, "slot {idx} is already queued");
        self.links[i].at = at;
        self.len += 1;
        match (0..LEVELS).find(|&k| below_end(at, self.levels[k].epoch, span(k))) {
            Some(k) => {
                let b = bucket(at, k);
                self.levels[k].append(&mut self.links, b, idx);
                if k == 0 {
                    self.l0_hint = self.l0_hint.min(b / 64);
                }
            }
            None => {
                self.links[i].next = NIL;
                self.spill.insert((at, seq), idx);
            }
        }
    }

    /// Removes the earliest entry and returns its `(at, idx)`, provided
    /// its `at` does not exceed `limit`. Returning `None` leaves the queue
    /// untouched.
    pub(crate) fn pop_due(&mut self, limit: u64) -> Option<(u64, u32)> {
        while !self.is_empty() {
            // L0 always holds the globally earliest entries when occupied:
            // inserts route anything below the L0 horizon here, and
            // descents never leave an earlier entry on a higher level.
            if let Some(b) = self.levels[0].first_occupied(self.l0_hint) {
                self.l0_hint = b / 64;
                let at = self.levels[0].epoch + b as u64;
                if at > limit {
                    return None;
                }
                let idx = self.levels[0].pop_front(&mut self.links, b);
                debug_assert_eq!(
                    self.links[idx as usize].at, at,
                    "entry in the wrong L0 bucket"
                );
                self.len -= 1;
                self.floor = at;
                return Some((at, idx));
            }
            if !self.descend(limit) {
                return None;
            }
        }
        None
    }

    /// With L0 drained: moves the earliest bucket of the lowest occupied
    /// level down one level, or refills L2 from the spill once every
    /// level is empty. Returns `false`, changing nothing, if the earliest
    /// remaining entry is past `limit`.
    fn descend(&mut self, limit: u64) -> bool {
        for k in 1..LEVELS {
            // The first occupied bucket holds the level's earliest
            // entries (bucket index is monotone in time in the window).
            let Some(b) = self.levels[k].first_occupied(0) else {
                continue;
            };
            let start = self.levels[k].epoch + b as u64 * width(k);
            let last = start + (width(k) - 1);
            let head = self.levels[k].lists[b].head;
            if start > limit || (last > limit && self.min_at(head) > limit) {
                return false;
            }
            // Committed to firing inside this bucket: it spans exactly
            // the window below, so every relinked entry lands there.
            let mut idx = self.levels[k].take(b);
            let below = &mut self.levels[k - 1];
            below.epoch = start;
            while idx != NIL {
                let Link { at, next } = self.links[idx as usize];
                below.append(&mut self.links, bucket(at, k - 1), idx);
                idx = next;
            }
            if k == 1 {
                self.l0_hint = 0;
            }
            return true;
        }
        // Every level drained: jump L2's window to the spill minimum and
        // refill it. BTreeMap iteration is (at, seq) order.
        let (&(at, _), _) = self.spill.first_key_value().expect("len > 0");
        if at > limit {
            return false;
        }
        let top = &mut self.levels[LEVELS - 1];
        top.epoch = at & !(span(LEVELS - 1) - 1);
        let refill = match top.epoch.checked_add(span(LEVELS - 1)) {
            Some(end) => {
                let rest = self.spill.split_off(&(end, 0));
                mem::replace(&mut self.spill, rest)
            }
            None => mem::take(&mut self.spill),
        };
        for ((at, _), idx) in refill {
            top.append(&mut self.links, bucket(at, LEVELS - 1), idx);
        }
        true
    }

    /// The earliest `at` in the list starting at `idx`.
    fn min_at(&self, mut idx: u32) -> u64 {
        let mut min = u64::MAX;
        while idx != NIL {
            let link = self.links[idx as usize];
            min = min.min(link.at);
            idx = link.next;
        }
        min
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

    const L0_SPAN: u64 = span(0);
    const L1_SPAN: u64 = span(1);
    const L2_SPAN: u64 = span(2);

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
        // L0 (7), L1 (5_000), L2 (3 << 20), spill (3 << 30), plus a
        // same-ms burst.
        let times = [7u64, 5_000, 3 << 20, 7, 900, 1 << 20, 3 << 30, 7];
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
            w.insert(at, seq as u64, seq as u32);
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
    fn descents_preserve_burst_order() {
        // A same-millisecond burst on L2 and one past the L2 horizon: the
        // relink and refill paths must keep seq order within the bucket.
        for far in [5 * L1_SPAN + 123, 5 * L2_SPAN + 123] {
            let mut w = TimerWheel::default();
            for seq in 0..64u64 {
                w.insert(far, seq, seq as u32);
            }
            let idxs: Vec<u32> = drain_all(&mut w).iter().map(|e| e.1).collect();
            assert_eq!(idxs, (0..64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn near_max_times_do_not_overflow() {
        let mut w = TimerWheel::default();
        for (seq, at) in [u64::MAX, u64::MAX - 1, u64::MAX - L1_SPAN]
            .into_iter()
            .enumerate()
        {
            w.insert(at, seq as u64, seq as u32);
        }
        let ats: Vec<u64> = drain_all(&mut w).iter().map(|e| e.0).collect();
        assert_eq!(ats, vec![u64::MAX - L1_SPAN, u64::MAX - 1, u64::MAX]);
    }

    #[test]
    fn links_are_a_time_and_a_slot() {
        // One per slab slot: a million of them in a half-million client
        // run; `seq` lives in the slab.
        assert_eq!(std::mem::size_of::<Link>(), 16);
    }
}

/// Pure-queue differential property: the wheel and the reference heap
/// must agree on every pop under arbitrary interleavings of inserts
/// (near, far, same-timestamp bursts) and limited pops.
#[cfg(test)]
mod properties {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestCaseError;
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

    const L0_SPAN: u64 = span(0);
    const L1_SPAN: u64 = span(1);
    const L2_SPAN: u64 = span(2);

    /// Expands a compact op description into a time respecting `floor`.
    /// `band` selects: same-ms burst, L0-near, L1-range, L2-far.
    fn op_time(floor: u64, band: u64, delta: u64) -> u64 {
        let base = match band {
            0 => 0,                  // burst: reuse the floor millisecond
            1 => delta % L0_SPAN,    // near: inside the L0 window
            2 => delta % L1_SPAN,    // mid: inside the L1 window
            _ => L1_SPAN + delta,    // far: past the L1 window (L2)
        };
        floor.saturating_add(base)
    }

    /// [`op_time`] a level up: same-ms burst, L1-range, L2-range,
    /// spill-far.
    fn op_time_upper(floor: u64, band: u64, delta: u64) -> u64 {
        let base = match band {
            0 => 0,
            1 => delta % L1_SPAN,
            2 => (delta << SLOT_BITS) % L2_SPAN,
            _ => L2_SPAN + (delta << SLOT_BITS),
        };
        floor.saturating_add(base)
    }

    /// Runs one insert/pop script on the wheel and the heap, checking
    /// every pop and length. Slots are fresh per insert, or, with
    /// `reuse`, taken from a free list of popped slots as the scheduler
    /// takes them.
    fn differential(
        ops: &[(u64, u64, u64)],
        time: fn(u64, u64, u64) -> u64,
        reuse: bool,
    ) -> Result<(), TestCaseError> {
        let mut wheel = TimerWheel::default();
        let mut heap = HeapQueue::default();
        let mut floor = 0u64;
        let mut free = Vec::new();
        for (seq, &(band, delta, pops)) in (0u64..).zip(ops) {
            let at = time(floor, band, delta);
            let idx = free.pop().unwrap_or(seq as u32);
            wheel.insert(at, seq, idx);
            heap.insert(at, seq, idx);
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
                if let Some((at, idx)) = a {
                    floor = at;
                    if reuse {
                        free.push(idx);
                    }
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
        Ok(())
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
            differential(&ops, op_time, false)?;
        }

        /// The same a level up — L2 and the spill — with popped slots
        /// queued again, as the scheduler's free list hands them out.
        #[test]
        fn wheel_matches_heap_on_upper_levels_with_slot_reuse(
            ops in proptest::collection::vec(
                (0u64..4, 0u64..3_000_000, 0u64..4),
                1..120,
            ),
        ) {
            differential(&ops, op_time_upper, true)?;
        }
    }
}
