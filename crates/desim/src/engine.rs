//! The event loop.
//!
//! Events live in a slab: a reusable arena of slots indexed by the `u32`
//! the queue carries around, so the queue itself never touches a payload.
//! What a slot stores is the scheduler's second type parameter — any
//! [`Event`]: a world's own `enum` of typed events, or the default
//! [`Closure`], a boxed `FnOnce`. The queue is the crate's hierarchical
//! timing wheel (a calendar queue, `desim`'s private `wheel` module),
//! threaded through the slab by slot index and checked in that module's
//! tests against the binary heap it replaced.

use crate::wheel::{TimerWheel, NIL};
use gruber_types::{SimDuration, SimTime};
use obs::{Recorder, TraceEvent};
use std::marker::PhantomData;

/// A pending event's payload: what the scheduler stores until the event's
/// time comes, consumed by firing it on the world.
pub trait Event<W>: Sized {
    /// Runs the event. `sched.now()` is the event's time.
    fn fire(self, world: &mut W, sched: &mut Scheduler<W, Self>);
}

/// The default payload: a boxed one-shot handler. Built by
/// [`Scheduler::schedule_at`] / [`Scheduler::schedule_in`].
// The one boxed-closure type in the workspace, spelled out where
// `scripts/ci.sh` greps for it rather than behind an alias.
#[allow(clippy::type_complexity)]
pub struct Closure<W>(Box<dyn FnOnce(&mut W, &mut Scheduler<W>)>);

impl<W> Event<W> for Closure<W> {
    fn fire(self, world: &mut W, sched: &mut Scheduler<W>) {
        (self.0)(world, sched)
    }
}

/// Token identifying a scheduled event, usable to cancel it before it fires.
///
/// Encodes a slab slot and the low 32 bits of its event's sequence
/// number. A token kept across its event's firing (or cancellation) goes
/// stale: the slot's payload is gone, and once the slot is reused it
/// holds another event's `seq`, so the token never aliases the new one
/// (short of 2³² events scheduled in between).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventToken(u64);

impl EventToken {
    fn new(seq: u64, idx: u32) -> Self {
        EventToken((seq << 32) | u64::from(idx))
    }

    /// `(low 32 bits of seq, slot)`.
    fn split(self) -> (u32, u32) {
        ((self.0 >> 32) as u32, self.0 as u32)
    }
}

/// One slab slot: the payload plus the bookkeeping `cancel` needs.
/// The event's time and queue position live in the wheel's link for the
/// same slot index.
struct Slot<E> {
    /// Global sequence number of the event currently occupying the slot;
    /// its low 32 bits tell a live token from a stale one.
    seq: u64,
    /// `None` while the slot is queued means lazily cancelled: the queue
    /// entry stays queued (so `pending()` still counts it) and pops as a
    /// tombstone.
    event: Option<E>,
}

/// The event queue and clock, handed to every event handler.
pub struct Scheduler<W, E = Closure<W>> {
    now: SimTime,
    seq: u64,
    queue: TimerWheel,
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    executed: u64,
    peak_pending: usize,
    cancellations: u64,
    tracer: Recorder,
    /// The world type only appears in what `E` fires on.
    world: PhantomData<fn(&mut W)>,
}

impl<W, E> Default for Scheduler<W, E> {
    fn default() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            seq: 0,
            queue: TimerWheel::default(),
            slots: Vec::new(),
            free: Vec::new(),
            executed: 0,
            peak_pending: 0,
            cancellations: 0,
            tracer: Recorder::OFF,
            world: PhantomData,
        }
    }
}

impl<W, E> Scheduler<W, E> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events currently pending (including cancelled-but-unpopped).
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Number of successful [`Scheduler::cancel`] calls so far.
    pub fn cancellations(&self) -> u64 {
        self.cancellations
    }

    /// Installs a trace recorder; every executed or cancelled event is
    /// reported to it. The default is [`Recorder::OFF`] (one branch per
    /// event, nothing recorded).
    pub fn set_tracer(&mut self, tracer: Recorder) {
        self.tracer = tracer;
    }

    /// Posts `event` to fire at absolute time `at`.
    ///
    /// Posting in the past is clamped to *now* (the event still fires,
    /// after all other events already posted for *now*).
    pub fn post_at(&mut self, at: SimTime, event: E) -> EventToken {
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        let idx = match self.free.pop() {
            Some(idx) => {
                let slot = &mut self.slots[idx as usize];
                slot.seq = seq;
                slot.event = Some(event);
                idx
            }
            None => {
                let idx = u32::try_from(self.slots.len())
                    .ok()
                    .filter(|&idx| idx != NIL)
                    .expect("u32::MAX pending events: slot u32::MAX is the wheel's list terminator");
                self.slots.push(Slot {
                    seq,
                    event: Some(event),
                });
                idx
            }
        };
        self.queue.insert(at.0, seq, idx);
        self.peak_pending = self.peak_pending.max(self.queue.len());
        EventToken::new(seq, idx)
    }

    /// Posts `event` to fire `delay` after the current time.
    pub fn post_in(&mut self, delay: SimDuration, event: E) -> EventToken {
        let at = self.now + delay;
        self.post_at(at, event)
    }

    /// Cancels a previously scheduled event. Returns `true` if the event had
    /// not yet fired (or been cancelled); cancelling an already-fired or
    /// already-cancelled event returns `false` and changes nothing.
    pub fn cancel(&mut self, token: EventToken) -> bool {
        let (seq, idx) = token.split();
        let slot = match self.slots.get_mut(idx as usize) {
            Some(slot) => slot,
            None => return false,
        };
        // Drop the payload now; the queue entry pops as a tombstone.
        if slot.seq as u32 != seq || slot.event.take().is_none() {
            return false;
        }
        self.cancellations += 1;
        let seq = slot.seq;
        self.tracer
            .emit(self.now, || TraceEvent::EventCancelled { seq });
        true
    }

    /// Pops the earliest due entry with its `seq`, read from the slot: a
    /// slot is freed only here, by its own entry's pop, so the slot an
    /// entry names still holds that entry's event (or its tombstone).
    fn pop_due(&mut self, limit: SimTime) -> Option<(SimTime, u64, E)> {
        while let Some((at, idx)) = self.queue.pop_due(limit.0) {
            let slot = &mut self.slots[idx as usize];
            let event = slot.event.take();
            self.free.push(idx);
            if let Some(event) = event {
                return Some((SimTime(at), slot.seq, event));
            }
        }
        None
    }
}

impl<W> Scheduler<W> {
    /// Schedules `f` to run at absolute time `at`: [`Scheduler::post_at`]
    /// of a `Closure`.
    pub fn schedule_at(
        &mut self,
        at: SimTime,
        f: impl FnOnce(&mut W, &mut Scheduler<W>) + 'static,
    ) -> EventToken {
        self.post_at(at, Closure(Box::new(f)))
    }

    /// Schedules `f` to run `delay` after the current time.
    pub fn schedule_in(
        &mut self,
        delay: SimDuration,
        f: impl FnOnce(&mut W, &mut Scheduler<W>) + 'static,
    ) -> EventToken {
        self.post_in(delay, Closure(Box::new(f)))
    }
}

/// A world plus its scheduler: the unit you actually run.
pub struct Simulation<W, E = Closure<W>> {
    world: W,
    sched: Scheduler<W, E>,
}

impl<W> Simulation<W> {
    /// Wraps a world with an empty event queue at time zero, with
    /// `Closure` events.
    pub fn new(world: W) -> Self {
        Simulation::with_events(world)
    }
}

impl<W, E: Event<W>> Simulation<W, E> {
    /// Like [`Simulation::new`], for a world that posts events of its own
    /// type `E` instead of closures.
    pub fn with_events(world: W) -> Self {
        Simulation {
            world,
            sched: Scheduler::default(),
        }
    }

    /// Immutable access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Mutable access to the world (for setup between runs).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// The scheduler (for seeding initial events).
    pub fn scheduler(&mut self) -> &mut Scheduler<W, E> {
        &mut self.sched
    }

    /// World and scheduler together, as an event sees them: for calling a
    /// handler by hand between two runs.
    pub fn parts(&mut self) -> (&mut W, &mut Scheduler<W, E>) {
        (&mut self.world, &mut self.sched)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sched.now
    }

    /// Events executed so far (readable without `&mut`, unlike
    /// [`Simulation::scheduler`] — the bench harness samples this).
    pub fn events_executed(&self) -> u64 {
        self.sched.executed
    }

    /// High-water mark of the pending queue so far — a cheap proxy for
    /// peak simulation memory, reported by the bench snapshots.
    pub fn peak_pending(&self) -> usize {
        self.sched.peak_pending
    }

    /// Fires the earliest event due by `limit`; `false` when there is none.
    fn step(&mut self, limit: SimTime) -> bool {
        let Some((at, seq, event)) = self.sched.pop_due(limit) else {
            return false;
        };
        debug_assert!(at >= self.sched.now, "time went backwards");
        self.sched.now = at;
        self.sched.executed += 1;
        self.sched
            .tracer
            .emit(at, || TraceEvent::EventExecuted { seq });
        event.fire(&mut self.world, &mut self.sched);
        true
    }

    /// Runs events until the queue is empty or `limit` is passed.
    ///
    /// On return the clock reads `limit` (or stays where it was, if it was
    /// already past `limit`); events scheduled exactly at `limit` DO fire.
    pub fn run_until(&mut self, limit: SimTime) {
        while self.step(limit) {}
        if self.sched.now < limit {
            self.sched.now = limit;
        }
    }

    /// Runs until the event queue drains, with a hard event-count fuse to
    /// catch accidental infinite self-scheduling loops.
    pub fn run_to_completion(&mut self, max_events: u64) {
        let start = self.sched.executed;
        while self.step(SimTime(u64::MAX)) {
            assert!(
                self.sched.executed - start <= max_events,
                "simulation exceeded {max_events} events; runaway self-scheduling?"
            );
        }
    }

    /// Consumes the simulation, returning the final world.
    pub fn into_world(self) -> W {
        self.world
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Log(Vec<(u64, &'static str)>);

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Simulation::new(Log::default());
        sim.scheduler()
            .schedule_at(SimTime::from_secs(5), |w: &mut Log, s| {
                w.0.push((s.now().as_secs(), "b"))
            });
        sim.scheduler()
            .schedule_at(SimTime::from_secs(1), |w: &mut Log, s| {
                w.0.push((s.now().as_secs(), "a"))
            });
        sim.run_until(SimTime::from_secs(10));
        assert_eq!(sim.world().0, vec![(1, "a"), (5, "b")]);
        assert_eq!(sim.now(), SimTime::from_secs(10));
    }

    #[test]
    fn simultaneous_events_fire_fifo() {
        let mut sim = Simulation::new(Log::default());
        for name in ["first", "second", "third"] {
            sim.scheduler()
                .schedule_at(SimTime::from_secs(1), move |w: &mut Log, _| {
                    w.0.push((0, name))
                });
        }
        sim.run_until(SimTime::from_secs(1));
        let names: Vec<_> = sim.world().0.iter().map(|&(_, n)| n).collect();
        assert_eq!(names, vec!["first", "second", "third"]);
    }

    #[test]
    fn handlers_can_schedule_more_events() {
        let mut sim = Simulation::new(Log::default());
        sim.scheduler()
            .schedule_at(SimTime::from_secs(1), |_, s: &mut Scheduler<Log>| {
                s.schedule_in(SimDuration::from_secs(2), |w: &mut Log, s| {
                    w.0.push((s.now().as_secs(), "chained"));
                });
            });
        sim.run_until(SimTime::from_secs(10));
        assert_eq!(sim.world().0, vec![(3, "chained")]);
    }

    #[test]
    fn cancel_prevents_execution() {
        let mut sim = Simulation::new(Log::default());
        let tok =
            sim.scheduler()
                .schedule_at(SimTime::from_secs(1), |w: &mut Log, _| {
                    w.0.push((0, "cancelled"))
                });
        assert!(sim.scheduler().cancel(tok));
        // Double-cancel reports false.
        assert!(!sim.scheduler().cancel(tok));
        sim.run_until(SimTime::from_secs(5));
        assert!(sim.world().0.is_empty());
    }

    #[test]
    fn past_scheduling_clamps_to_now() {
        let mut sim = Simulation::new(Log::default());
        sim.scheduler()
            .schedule_at(SimTime::from_secs(5), |_, s: &mut Scheduler<Log>| {
                // Try to schedule in the past; must fire at t=5, not t=1.
                s.schedule_at(SimTime::from_secs(1), |w: &mut Log, s| {
                    w.0.push((s.now().as_secs(), "clamped"));
                });
            });
        sim.run_until(SimTime::from_secs(10));
        assert_eq!(sim.world().0, vec![(5, "clamped")]);
    }

    #[test]
    fn run_until_stops_at_limit_but_includes_limit_events() {
        let mut sim = Simulation::new(Log::default());
        sim.scheduler()
            .schedule_at(SimTime::from_secs(3), |w: &mut Log, _| w.0.push((3, "at")));
        sim.scheduler()
            .schedule_at(SimTime::from_secs(4), |w: &mut Log, _| {
                w.0.push((4, "after"))
            });
        sim.run_until(SimTime::from_secs(3));
        assert_eq!(sim.world().0, vec![(3, "at")]);
        // Resume picks up the rest.
        sim.run_until(SimTime::from_secs(10));
        assert_eq!(sim.world().0.len(), 2);
    }

    #[test]
    #[should_panic(expected = "exceeded")]
    fn runaway_loop_trips_fuse() {
        fn respawn(_: &mut Log, s: &mut Scheduler<Log>) {
            s.schedule_in(SimDuration::SECOND, respawn);
        }
        let mut sim = Simulation::new(Log::default());
        sim.scheduler().schedule_at(SimTime::ZERO, respawn);
        sim.run_to_completion(100);
    }

    #[test]
    fn property_events_fire_in_nondecreasing_time_order() {
        use crate::rng::DetRng;
        for seed in 0..20u64 {
            let mut rng = DetRng::new(seed, 0);
            let mut sim = Simulation::new(Vec::<u64>::new());
            for _ in 0..200 {
                let at = SimTime(rng.next_u64() % 10_000);
                sim.scheduler().schedule_at(at, |w: &mut Vec<u64>, s| {
                    w.push(s.now().as_millis());
                });
            }
            sim.run_until(SimTime(10_000));
            let times = sim.world();
            assert!(times.windows(2).all(|w| w[0] <= w[1]), "order violated");
            assert_eq!(times.len(), 200);
        }
    }

    #[test]
    fn event_counter_advances() {
        let mut sim = Simulation::new(Log::default());
        for i in 0..7u64 {
            sim.scheduler()
                .schedule_at(SimTime::from_secs(i), |_, _| {});
        }
        sim.run_until(SimTime::from_secs(100));
        assert_eq!(sim.events_executed(), 7);
        assert_eq!(sim.scheduler().pending(), 0);
    }

    // ---- calendar-queue boundary cases (see desim::wheel) ----

    #[test]
    fn events_at_wheel_rotation_epochs_fire_in_order() {
        // Times straddling every wheel boundary: the last/first
        // millisecond of an L0 window (1024 ms), of the L1 horizon
        // (2^20 ms), of the L2 horizon (2^30 ms), and the spill past it.
        let edge_ms = [
            0u64,
            1023,
            1024,
            1025,
            (1 << 20) - 1,
            1 << 20,
            (1 << 20) + 1,
            (3 << 20) + 777,
            (1 << 30) - 1,
            1 << 30,
            (1 << 30) + 1,
            (3 << 30) + 777,
        ];
        let mut sim = Simulation::new(Vec::<u64>::new());
        // Schedule in reverse so queue order is earned, not insertion luck.
        for &ms in edge_ms.iter().rev() {
            sim.scheduler().schedule_at(SimTime(ms), move |w, s| {
                assert_eq!(s.now(), SimTime(ms), "fired at the wrong time");
                w.push(ms);
            });
        }
        sim.run_until(SimTime(u64::MAX));
        assert_eq!(sim.world().as_slice(), &edge_ms);
    }

    #[test]
    fn zero_delay_self_reschedule_runs_after_current_instant_queue() {
        // A handler rescheduling at `now` (zero delay) must fire in the
        // same millisecond, after everything already queued for it.
        let mut sim = Simulation::new(Vec::<&'static str>::new());
        sim.scheduler().schedule_at(SimTime(5), |w, s| {
            w.push("first");
            s.schedule_in(SimDuration::ZERO, |w: &mut Vec<&'static str>, s| {
                assert_eq!(s.now(), SimTime(5));
                w.push("respawned");
            });
        });
        sim.scheduler()
            .schedule_at(SimTime(5), |w: &mut Vec<&'static str>, _| w.push("second"));
        sim.run_until(SimTime(5));
        assert_eq!(sim.world().as_slice(), &["first", "second", "respawned"]);
    }

    #[test]
    fn cancel_then_reschedule_does_not_confuse_slot_reuse() {
        // The PR-1 cancel() bug class, sharpened for the slab: cancelling
        // a token and scheduling a new event may reuse the same slot; the
        // stale token must stay dead and the new one must stay live.
        let mut sim = Simulation::new(Vec::<&'static str>::new());
        let stale = sim
            .scheduler()
            .schedule_at(SimTime(10), |w: &mut Vec<&'static str>, _| w.push("old"));
        assert!(sim.scheduler().cancel(stale));
        let fresh = sim
            .scheduler()
            .schedule_at(SimTime(20), |w: &mut Vec<&'static str>, _| w.push("new"));
        // The stale token is dead even if its slot was just reused.
        assert!(!sim.scheduler().cancel(stale));
        sim.run_until(SimTime(15));
        assert!(sim.world().is_empty());
        // The fresh event is still cancellable before it fires...
        assert!(sim.scheduler().cancel(fresh));
        assert!(!sim.scheduler().cancel(fresh));
        sim.run_until(SimTime(30));
        assert!(sim.world().is_empty());
        // ...and a fired event's token reports false, not a panic.
        let fired = sim
            .scheduler()
            .schedule_at(SimTime(40), |w: &mut Vec<&'static str>, _| w.push("fired"));
        sim.run_until(SimTime(40));
        assert_eq!(sim.world().as_slice(), &["fired"]);
        assert!(!sim.scheduler().cancel(fired));
        assert_eq!(sim.scheduler().cancellations(), 2);
    }

    #[test]
    fn a_slot_is_its_seq_and_payload() {
        // A 32-byte payload with a niche, as `digruber`'s `Ev` is: the
        // slab's per-event cost beside the wheel's 16-byte link.
        type Payload = (std::num::NonZeroU64, [u64; 3]);
        assert_eq!(std::mem::size_of::<Payload>(), 32);
        assert_eq!(std::mem::size_of::<Slot<Payload>>(), 40);
    }
}

/// Property-based invariants for the scheduler's cancellation and
/// accounting API under arbitrary schedule/cancel/run interleavings.
/// The world is a `Vec<u64>` logging which event ids actually fired.
#[cfg(test)]
mod properties {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestCaseError;
    use std::collections::{BTreeMap, HashSet};

    /// A plain data payload: firing pushes the value itself.
    impl Event<Vec<u64>> for u64 {
        fn fire(self, fired: &mut Vec<u64>, _: &mut Scheduler<Vec<u64>, u64>) {
            fired.push(self);
        }
    }

    /// The closure payload doing the same.
    fn push_closure(id: u64) -> Closure<Vec<u64>> {
        Closure(Box::new(move |w, _| w.push(id)))
    }

    type Case = Result<(), TestCaseError>;

    /// Body of `cancel_ledger_balances`, for any payload `mk(id)` that
    /// logs `id` when fired.
    fn cancel_ledger<E: Event<Vec<u64>>>(ops: &[(u64, bool, u64)], mk: fn(u64) -> E) -> Case {
        let mut sim: Simulation<Vec<u64>, E> = Simulation::with_events(Vec::new());
        let mut tokens: Vec<(u64, EventToken)> = Vec::new();
        let mut cancelled: HashSet<u64> = HashSet::new();
        for (i, &(at, do_cancel, pick)) in ops.iter().enumerate() {
            let id = i as u64;
            let tok = sim.scheduler().post_at(SimTime(at), mk(id));
            // Nothing has been popped yet, so every scheduled event —
            // cancelled or not — is still pending.
            prop_assert_eq!(sim.scheduler().pending(), i + 1);
            tokens.push((id, tok));
            if do_cancel {
                let (cid, ctok) = tokens[pick as usize % tokens.len()];
                let first_cancel = cancelled.insert(cid);
                prop_assert_eq!(sim.scheduler().cancel(ctok), first_cancel);
                // Cancelling the same token again is always a no-op.
                prop_assert!(!sim.scheduler().cancel(ctok));
            }
        }
        let n = ops.len();
        prop_assert_eq!(sim.scheduler().cancellations(), cancelled.len() as u64);
        prop_assert_eq!(sim.peak_pending(), n);

        sim.run_until(SimTime(u64::MAX));
        prop_assert_eq!(sim.scheduler().pending(), 0);
        prop_assert_eq!(
            sim.events_executed(),
            (n - cancelled.len()) as u64
        );
        let fired = sim.world();
        prop_assert_eq!(fired.len() + cancelled.len(), n);
        for id in fired {
            prop_assert!(!cancelled.contains(id), "cancelled event {id} fired");
        }
        Ok(())
    }

    /// Body of `scheduler_matches_ordered_model`, likewise. The model is
    /// every queued event keyed by `(at, id)` — ids are handed out in
    /// scheduling order, so key order is the `(time, sequence)` order
    /// events must fire in — with `true` while the event is live and
    /// `false` once cancelled (a tombstone: still pending until popped).
    fn matches_model<E: Event<Vec<u64>>>(
        batches: &[Vec<(u64, u64, bool, u64)>],
        mk: fn(u64) -> E,
    ) -> Case {
        let mut sim: Simulation<Vec<u64>, E> = Simulation::with_events(Vec::new());
        let mut model: BTreeMap<(u64, u64), bool> = BTreeMap::new();
        let mut tokens: Vec<(u64, EventToken)> = Vec::new();
        let (mut peak, mut cancels) = (0usize, 0u64);
        let mut limit = 0u64;
        // Fires every live model entry at or before `limit`, in key order,
        // and checks the log's new suffix against them.
        let run = |sim: &mut Simulation<Vec<u64>, E>,
                   model: &mut BTreeMap<(u64, u64), bool>,
                   limit: u64|
         -> Case {
            let seen = sim.world().len();
            sim.run_until(SimTime(limit));
            let mut fired = Vec::new();
            while let Some(entry) = model.first_entry().filter(|e| e.key().0 <= limit) {
                let ((_, id), live) = entry.remove_entry();
                if live {
                    fired.push(id);
                }
            }
            prop_assert_eq!(&sim.world()[seen..], fired.as_slice());
            prop_assert_eq!(sim.now(), SimTime(limit));
            prop_assert_eq!(sim.scheduler().pending(), model.len());
            Ok(())
        };
        for batch in batches {
            for &(band, offset, do_cancel, pick) in batch {
                // Bands: same-ms burst at the current limit, near
                // (inside one L0 window), mid (inside the L1 window),
                // far (beyond the horizon — spill).
                let at = match band {
                    0 => limit,
                    1 => limit + offset % 1024,
                    2 => limit + offset % (1 << 20),
                    _ => limit + (1 << 20) + offset,
                };
                let id = tokens.len() as u64;
                tokens.push((at, sim.scheduler().post_at(SimTime(at), mk(id))));
                model.insert((at, id), true);
                peak = peak.max(model.len());
                if do_cancel {
                    let v = pick as usize % tokens.len();
                    let (vat, vtok) = tokens[v];
                    // Live iff queued and not yet cancelled.
                    let live = model
                        .get_mut(&(vat, v as u64))
                        .is_some_and(|l| std::mem::replace(l, false));
                    cancels += u64::from(live);
                    prop_assert_eq!(sim.scheduler().cancel(vtok), live);
                }
                prop_assert_eq!(sim.scheduler().pending(), model.len());
            }
            limit += 700_000; // sweeps across several L0 windows
            run(&mut sim, &mut model, limit)?;
            prop_assert_eq!(sim.events_executed(), sim.world().len() as u64);
        }
        run(&mut sim, &mut model, u64::MAX)?;
        prop_assert_eq!(sim.scheduler().pending(), 0);
        prop_assert_eq!(sim.events_executed(), sim.world().len() as u64);
        prop_assert_eq!(sim.world().len() as u64 + cancels, tokens.len() as u64);
        prop_assert_eq!(sim.scheduler().cancellations(), cancels);
        prop_assert_eq!(sim.peak_pending(), peak);
        Ok(())
    }

    proptest! {
        /// Scheduling-phase invariants: pending() counts every scheduled
        /// event (cancelled ones stay queued until popped), a first cancel
        /// of a live token returns true, a second returns false, a
        /// cancelled event never fires, and the final ledger balances:
        /// scheduled = fired + successfully-cancelled. The same for a
        /// boxed closure and for a plain `u64` payload.
        #[test]
        fn cancel_ledger_balances(
            ops in proptest::collection::vec(
                (0u64..10_000, proptest::bool::ANY, 0u64..64),
                1..40,
            ),
        ) {
            cancel_ledger(&ops, push_closure)?;
            cancel_ledger(&ops, |id| id)?;
        }

        /// Cancelling after the event fired reports false and counts
        /// nothing, no matter the schedule.
        #[test]
        fn cancel_after_fire_is_a_noop(
            times in proptest::collection::vec(0u64..1_000, 1..20),
        ) {
            let mut sim = Simulation::new(Vec::<u64>::new());
            let tokens: Vec<EventToken> = times
                .iter()
                .map(|&t| sim.scheduler().schedule_at(SimTime(t), |_, _| {}))
                .collect();
            sim.run_until(SimTime(1_000));
            prop_assert_eq!(sim.events_executed(), times.len() as u64);
            for tok in tokens {
                prop_assert!(!sim.scheduler().cancel(tok));
            }
            prop_assert_eq!(sim.scheduler().cancellations(), 0);
        }

        /// Full interleave: alternate batches of schedule/cancel with
        /// partial run_until() advances. A cancel must succeed iff the
        /// token is live (scheduled, unfired, uncancelled) at that moment,
        /// mirrored here by a model `live` set maintained from the fired
        /// log between batches.
        #[test]
        fn interleaved_run_and_cancel_match_model(
            batches in proptest::collection::vec(
                proptest::collection::vec(
                    (0u64..5_000, proptest::bool::ANY, 0u64..64),
                    1..10,
                ),
                1..6,
            ),
        ) {
            let mut sim = Simulation::new(Vec::<u64>::new());
            let mut tokens: Vec<(u64, EventToken)> = Vec::new();
            let mut live: HashSet<u64> = HashSet::new();
            let mut seen_fired = 0usize;
            let mut next_id = 0u64;
            let mut scheduled = 0usize;
            let mut cancels_ok = 0u64;
            let mut limit = 0u64;
            for batch in &batches {
                for &(at, do_cancel, pick) in batch {
                    let id = next_id;
                    next_id += 1;
                    scheduled += 1;
                    let tok = sim
                        .scheduler()
                        .schedule_at(SimTime(at), move |w: &mut Vec<u64>, _| w.push(id));
                    live.insert(id);
                    tokens.push((id, tok));
                    if do_cancel {
                        let (cid, ctok) = tokens[pick as usize % tokens.len()];
                        let expect = live.remove(&cid);
                        prop_assert_eq!(sim.scheduler().cancel(ctok), expect);
                        if expect {
                            cancels_ok += 1;
                        }
                    }
                }
                limit += 1_500;
                sim.run_until(SimTime(limit));
                // Sync the model: everything the log gained this batch is
                // no longer live.
                for &id in &sim.world()[seen_fired..] {
                    prop_assert!(live.remove(&id), "event {id} fired twice or while dead");
                }
                seen_fired = sim.world().len();
            }
            sim.run_until(SimTime(u64::MAX));
            prop_assert_eq!(sim.scheduler().pending(), 0);
            prop_assert_eq!(sim.scheduler().cancellations(), cancels_ok);
            prop_assert_eq!(
                sim.world().len() as u64 + cancels_ok,
                scheduled as u64
            );
        }

        /// The scheduler against an ordered model: fired order, clock
        /// progression, cancel return values, pending counts (tombstones
        /// included) and every counter for the same schedule/cancel/run
        /// script — including same-timestamp bursts and far-future spills
        /// past the 2^20 ms wheel horizon — whatever the payload.
        #[test]
        fn scheduler_matches_ordered_model(
            batches in proptest::collection::vec(
                proptest::collection::vec(
                    // (time band, offset, cancel?, victim pick)
                    (0u64..4, 0u64..5_000_000, proptest::bool::ANY, 0u64..64),
                    1..12,
                ),
                1..6,
            ),
        ) {
            matches_model(&batches, push_closure)?;
            matches_model(&batches, |id| id)?;
        }
    }
}
