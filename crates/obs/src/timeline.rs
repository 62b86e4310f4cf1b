//! Online per-decision-point aggregation over the event stream — the one
//! clock of a traced run.
//!
//! The sink feeds every emission through [`TimelineBuilder::observe`];
//! because the simulation emits in nondecreasing sim-time order, the
//! builder can close fixed-cadence bins deterministically as the stream
//! advances and never needs to buffer raw events. Each point keeps two
//! sets of counters: its open bin, which is the [`DpSample`] exported when
//! the bin closes, and its cumulative [`DpTotals`], so the exported
//! aggregates stay exact even when the debugging ring has rotated old
//! events away. The [`RunTotals`] that sum or maximise a per-point counter
//! are folded from the [`DpTotals`] at [`TimelineBuilder::finish`]; the
//! stream counts only the run totals no point owns.
//!
//! Each closing bin is also a health scoring window: every point the
//! stream has marked as scored gets a [`crate::HealthSample`] from
//! [`crate::health`]'s formula, and its hysteresis may raise a
//! `Degrading`/`Recovered` flag, counted here and collected in the
//! [`HealthReport`] the sink reads back.

use crate::event::{TraceEvent, TraceVerdict};
use crate::health::{self, HealthFlagRow, HealthReport, Hysteresis};
use gruber_types::{DpId, Fnv1a};
use std::fmt::Write;

/// Log₂-bucketed response-time histogram over milliseconds.
///
/// Bucket `i` counts responses with `floor(log2(1 + ms)) == i`, i.e.
/// `[2^i - 1, 2^(i+1) - 1)` ms; the last bucket absorbs everything above
/// ~9 minutes. 20 buckets cover the full range between a LAN round trip
/// and a run-length stall.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResponseHistogram {
    /// Bucket counts.
    pub(crate) buckets: [u64; Self::BUCKETS],
}

impl ResponseHistogram {
    /// Number of buckets.
    pub(crate) const BUCKETS: usize = 20;

    /// The bucket index for a response time in milliseconds.
    pub(crate) fn bucket(ms: u64) -> usize {
        let bits = 64 - (ms + 1).leading_zeros() as usize - 1;
        bits.min(Self::BUCKETS - 1)
    }

    /// Records one response.
    pub fn record(&mut self, ms: u64) {
        self.buckets[Self::bucket(ms)] += 1;
    }

    /// Total responses recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Inclusive lower edge of bucket `i`, milliseconds.
    pub(crate) fn lower_edge_ms(i: usize) -> u64 {
        (1u64 << i) - 1
    }

    /// Merges another histogram into this one.
    pub(crate) fn merge(&mut self, other: &ResponseHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }
}

/// One decision point's sample for one cadence bin: its counters while
/// the bin is open, its gauges filled in when it closes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DpSample {
    /// Bin end, milliseconds of sim-time.
    pub(crate) t_ms: u64,
    /// The decision point.
    pub dp: DpId,
    /// Whether the point was up at the bin boundary.
    pub(crate) up: bool,
    /// Queries issued *to* this point in the bin.
    pub issued: u64,
    /// Requests that started service immediately.
    pub(crate) started: u64,
    /// Requests that queued in the container.
    pub(crate) queued: u64,
    /// Requests refused at the accept queue.
    pub(crate) rejected: u64,
    /// Requests whose service completed.
    pub(crate) completed: u64,
    /// Queries answered within the client timeout.
    pub answered: u64,
    /// Late completions (client had already timed out).
    pub(crate) late: u64,
    /// Client timeouts charged to this point.
    pub timeouts: u64,
    /// USLA-denied placements.
    pub(crate) denied: u64,
    /// Transmissions to this point dropped by message loss in the bin.
    pub(crate) lost: u64,
    /// Retransmissions scheduled toward this point in the bin.
    pub(crate) retries: u64,
    /// Container backlog depth at the bin boundary (gauge).
    pub(crate) queue_depth: u32,
    /// Time since the last merged peer exchange at the bin boundary;
    /// `None` until the first exchange arrives.
    pub(crate) staleness_ms: Option<u64>,
    /// Sum of response times recorded in the bin, ms (mean = sum/answered+late).
    pub sum_response_ms: u64,
    /// Largest response time recorded in the bin, ms.
    pub(crate) max_response_ms: u64,
}

/// Whole-simulation sample for one cadence bin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimSample {
    /// Bin end, milliseconds of sim-time.
    pub(crate) t_ms: u64,
    /// Scheduler events executed in the bin.
    pub(crate) executed: u64,
    /// Event cancellations in the bin.
    pub(crate) cancelled: u64,
}

/// One decision point's whole-run totals (model half of a run's pin).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DpTotals {
    /// The decision point.
    pub dp: DpId,
    /// Queries issued to this point.
    pub issued: u64,
    /// Requests that started service immediately.
    pub started: u64,
    /// Requests that queued.
    pub queued: u64,
    /// Requests refused at the accept queue.
    pub(crate) rejected: u64,
    /// Requests whose service completed.
    pub completed: u64,
    /// Queries answered in time.
    pub answered: u64,
    /// Late completions.
    pub(crate) late: u64,
    /// Client timeouts.
    pub timeouts: u64,
    /// USLA-denied placements.
    pub denied: u64,
    /// New dispatch records accepted into the view.
    pub(crate) accepted: u64,
    /// Duplicate dispatch records ignored.
    pub(crate) duplicates: u64,
    /// Peer floods merged.
    pub exchanges_in: u64,
    /// Records received across merged floods.
    pub exchange_records_in: u64,
    /// Peer floods sent.
    pub exchanges_out: u64,
    /// Records sent across outgoing floods.
    pub exchange_records_out: u64,
    /// Crashes of this point.
    pub failures: u64,
    /// Recoveries of this point.
    pub recoveries: u64,
    /// In-flight requests dropped by crashes.
    pub dropped_requests: u64,
    /// Clients that re-bound *to* this point.
    pub(crate) rebinds_gained: u64,
    /// Clients that re-bound *away from* this point.
    pub(crate) rebinds_lost: u64,
    /// Transmissions to this point dropped by message loss.
    pub(crate) lost: u64,
    /// Retransmissions scheduled toward this point.
    pub(crate) retries: u64,
    /// Messages to this point whose retry budget ran out.
    pub(crate) retries_exhausted: u64,
    /// Injected duplicate deliveries to this point.
    pub(crate) duplicated: u64,
    /// Exchange floods to this point dropped at a partition boundary.
    pub(crate) partition_drops: u64,
    /// Sum of all response times, ms.
    pub sum_response_ms: u64,
    /// Largest response time, ms.
    pub(crate) max_response_ms: u64,
    /// WAL operations appended by this point's store.
    pub wal_appends: u64,
    /// Snapshots written by this point's store.
    pub snapshots: u64,
    /// WAL operations replayed into this point across its recoveries.
    pub wal_replayed: u64,
    /// Largest modeled recovery-replay latency, ms (a maximum, not a sum).
    pub(crate) recovery_ms: u64,
    /// `Degrading` flags the health scorer raised on this point.
    pub health_degrades: u64,
    /// `Recovered` flags the health scorer raised on this point.
    pub health_recovers: u64,
    /// Response-time histogram (answered + late).
    pub(crate) hist: ResponseHistogram,
}

impl DpTotals {
    /// The exported counters, named and in `dp_total` JSONL order.
    pub(crate) fn fields(&self) -> [(&'static str, u64); 33] {
        [
            ("issued", self.issued),
            ("started", self.started),
            ("queued", self.queued),
            ("rejected", self.rejected),
            ("completed", self.completed),
            ("answered", self.answered),
            ("late", self.late),
            ("timeouts", self.timeouts),
            ("denied", self.denied),
            ("accepted", self.accepted),
            ("duplicates", self.duplicates),
            ("exchanges_in", self.exchanges_in),
            ("exchange_records_in", self.exchange_records_in),
            ("exchanges_out", self.exchanges_out),
            ("exchange_records_out", self.exchange_records_out),
            ("failures", self.failures),
            ("recoveries", self.recoveries),
            ("dropped_requests", self.dropped_requests),
            ("rebinds_gained", self.rebinds_gained),
            ("rebinds_lost", self.rebinds_lost),
            ("lost", self.lost),
            ("retries", self.retries),
            ("retries_exhausted", self.retries_exhausted),
            ("duplicated", self.duplicated),
            ("partition_drops", self.partition_drops),
            ("wal_appends", self.wal_appends),
            ("snapshots", self.snapshots),
            ("wal_replayed", self.wal_replayed),
            ("recovery_ms", self.recovery_ms),
            ("health_degrades", self.health_degrades),
            ("health_recovers", self.health_recovers),
            ("sum_response_ms", self.sum_response_ms),
            ("max_response_ms", self.max_response_ms),
        ]
    }
}

/// Whole-run totals across all decision points.
///
/// A field with a per-point counter is that counter summed over
/// [`DpTotals`] (`max_recovery_ms` is a maximum); the rest — scheduler,
/// fault-plan, replay and membership events — belong to no point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunTotals {
    /// Queries issued.
    pub issued: u64,
    /// Queries answered in time.
    pub answered: u64,
    /// Late completions.
    pub late: u64,
    /// Client timeouts (late + never-completed).
    pub timed_out: u64,
    /// USLA-denied placements.
    pub denied: u64,
    /// New dispatch records accepted.
    pub accepted: u64,
    /// Duplicate dispatch records.
    pub duplicates: u64,
    /// Scheduler events executed.
    pub events_executed: u64,
    /// Event cancellations.
    pub cancellations: u64,
    /// Decision-point crashes.
    pub failures: u64,
    /// Decision-point recoveries.
    pub recoveries: u64,
    /// In-flight requests dropped by crashes.
    pub dropped_requests: u64,
    /// Client re-bindings (failover + rebalance).
    pub rebinds: u64,
    /// GRUB-SIM replay overload events.
    pub(crate) replay_overloads: u64,
    /// GRUB-SIM replay decision points added.
    pub(crate) replay_dps_added: u64,
    /// Transmissions dropped by message loss (any class).
    pub msgs_lost: u64,
    /// Retransmissions scheduled by retry policies.
    pub retries: u64,
    /// Messages whose retry budget ran out.
    pub retries_exhausted: u64,
    /// Injected duplicate deliveries.
    pub msgs_duplicated: u64,
    /// Exchange floods dropped at partition boundaries.
    pub partition_drops: u64,
    /// Partition windows that came into effect.
    pub partitions_started: u64,
    /// Partition windows that healed.
    pub partitions_healed: u64,
    /// Link-fault windows that opened.
    pub(crate) link_windows: u64,
    /// Decision-point slowdown windows that started.
    pub slowdowns: u64,
    /// WAL operations appended across all stores.
    pub wal_appends: u64,
    /// Snapshots written across all stores.
    pub snapshots: u64,
    /// WAL operations replayed across all recoveries.
    pub wal_replayed: u64,
    /// Largest modeled recovery-replay latency, ms.
    pub max_recovery_ms: u64,
    /// `Degrading` flags raised by the online health scorer.
    pub health_degrades: u64,
    /// `Recovered` flags raised by the online health scorer.
    pub health_recovers: u64,
    /// Decision points that joined the elastic membership pool.
    pub dp_joins: u64,
    /// Decision points that drained and left the elastic pool.
    pub dp_leaves: u64,
    /// Clients moved by consistent-hash re-homing after pool changes.
    pub clients_rehomed: u64,
}

impl RunTotals {
    /// The counters, named and in `run_total` JSONL order (which is the
    /// declaration order).
    pub(crate) fn fields(&self) -> [(&'static str, u64); 33] {
        [
            ("issued", self.issued),
            ("answered", self.answered),
            ("late", self.late),
            ("timed_out", self.timed_out),
            ("denied", self.denied),
            ("accepted", self.accepted),
            ("duplicates", self.duplicates),
            ("events_executed", self.events_executed),
            ("cancellations", self.cancellations),
            ("failures", self.failures),
            ("recoveries", self.recoveries),
            ("dropped_requests", self.dropped_requests),
            ("rebinds", self.rebinds),
            ("replay_overloads", self.replay_overloads),
            ("replay_dps_added", self.replay_dps_added),
            ("msgs_lost", self.msgs_lost),
            ("retries", self.retries),
            ("retries_exhausted", self.retries_exhausted),
            ("msgs_duplicated", self.msgs_duplicated),
            ("partition_drops", self.partition_drops),
            ("partitions_started", self.partitions_started),
            ("partitions_healed", self.partitions_healed),
            ("link_windows", self.link_windows),
            ("slowdowns", self.slowdowns),
            ("wal_appends", self.wal_appends),
            ("snapshots", self.snapshots),
            ("wal_replayed", self.wal_replayed),
            ("max_recovery_ms", self.max_recovery_ms),
            ("health_degrades", self.health_degrades),
            ("health_recovers", self.health_recovers),
            ("dp_joins", self.dp_joins),
            ("dp_leaves", self.dp_leaves),
            ("clients_rehomed", self.clients_rehomed),
        ]
    }
}

/// Per-point rolling state inside the builder.
#[derive(Debug, Clone, Default)]
struct DpState {
    /// The open bin: its counters; the gauges are filled in at close.
    bin: DpSample,
    /// The open bin's retry exhaustions, a scoring input the sample omits.
    exhausted: u64,
    /// The open bin's largest recovery latency, ms (scoring input).
    recovery_ms: u64,
    tot: DpTotals,
    up: bool,
    queue_depth: u32,
    last_exchange_ms: Option<u64>,
    seen: bool,
    /// Marked by the events [`crate::health`] scores on — a narrower set
    /// than `seen` (an outgoing flood or a WAL append alone is not
    /// evidence about a point's health).
    scored: bool,
    /// Left the pool (`dp_left`) and not rejoined: not scored, whatever
    /// late events still name it.
    left: bool,
    /// Liveness as `dp_failed`/`dp_recovered` set it; unlike `up`, a
    /// join or a leave does not move it.
    down: bool,
    hysteresis: Hysteresis,
}

impl DpState {
    /// Records one response (answered or late) in the bin and the totals.
    fn response(&mut self, ms: u64) {
        self.bin.sum_response_ms += ms;
        self.bin.max_response_ms = self.bin.max_response_ms.max(ms);
        self.tot.sum_response_ms += ms;
        self.tot.max_response_ms = self.tot.max_response_ms.max(ms);
        self.tot.hist.record(ms);
    }

    /// Leaves (`true`) or joins the pool: either way the point is scored
    /// afresh, if at all, with no flag streaks carried over.
    fn set_left(&mut self, left: bool) {
        self.up = !left;
        self.left = left;
        self.scored = false;
        self.hysteresis = Hysteresis::default();
    }
}

/// How a closing bin is scored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Close {
    /// The stream crossed the boundary: score, and raise flags.
    Live,
    /// `finish` closes a full bin of the tail: score, raise nothing.
    Tail,
    /// `finish` closes the partial last bin: not a window, not scored.
    Partial,
}

/// The online aggregator the sink drives.
#[derive(Debug, Clone)]
pub(crate) struct TimelineBuilder {
    cadence_ms: u64,
    bin_start_ms: u64,
    dps: Vec<DpState>,
    sim_bin: SimSample,
    dp_samples: Vec<DpSample>,
    sim_samples: Vec<SimSample>,
    /// Only the run totals no point owns; `finish` folds in the rest.
    totals: RunTotals,
    health: HealthReport,
}

impl TimelineBuilder {
    /// A builder flushing samples (and scoring) every `cadence_ms` of
    /// sim-time.
    pub(crate) fn new(cadence_ms: u64) -> Self {
        let cadence_ms = cadence_ms.max(1);
        TimelineBuilder {
            cadence_ms,
            bin_start_ms: 0,
            dps: Vec::new(),
            sim_bin: SimSample::default(),
            dp_samples: Vec::new(),
            sim_samples: Vec::new(),
            totals: RunTotals::default(),
            health: HealthReport {
                window_ms: cadence_ms,
                ..HealthReport::default()
            },
        }
    }

    /// Every flag raised so far, in emission order.
    pub(crate) fn flags(&self) -> &[HealthFlagRow] {
        &self.health.flags
    }

    /// Whether `dp` is currently flagged `Degrading`.
    pub(crate) fn degraded(&self, dp: DpId) -> bool {
        self.dps
            .get(dp.index())
            .is_some_and(|st| st.hysteresis.degraded)
    }

    fn dp(&mut self, dp: DpId) -> &mut DpState {
        let i = dp.index();
        if i >= self.dps.len() {
            self.dps.resize_with(i + 1, DpState::default);
        }
        let st = &mut self.dps[i];
        if !st.seen {
            st.seen = true;
            st.up = true;
            st.tot.dp = dp;
        }
        st
    }

    /// [`TimelineBuilder::dp`] for an event the health scoring reads.
    fn scored(&mut self, dp: DpId) -> &mut DpState {
        let st = self.dp(dp);
        st.scored |= !st.left;
        st
    }

    /// Closes every bin ending at or before `at_ms`, emitting samples.
    fn flush_until(&mut self, at_ms: u64, close: Close) {
        while self.bin_start_ms + self.cadence_ms <= at_ms {
            let bin_end = self.bin_start_ms + self.cadence_ms;
            self.close_bin(bin_end, close);
            self.bin_start_ms = bin_end;
        }
    }

    fn close_bin(&mut self, bin_end: u64, close: Close) {
        self.sim_samples.push(SimSample {
            t_ms: bin_end,
            ..std::mem::take(&mut self.sim_bin)
        });
        for st in self.dps.iter_mut().filter(|s| s.seen) {
            let bin = &mut st.bin;
            bin.t_ms = bin_end;
            bin.dp = st.tot.dp;
            bin.up = st.up;
            bin.queue_depth = st.queue_depth;
            bin.staleness_ms = st.last_exchange_ms.map(|t| bin_end.saturating_sub(t));
            if st.scored && close != Close::Partial {
                let sample = health::score(bin, st.exhausted, st.recovery_ms, st.down);
                self.health.samples.push(sample);
                if let Some(degrading) = st.hysteresis.step(sample.score, close == Close::Live) {
                    self.health.flags.push(HealthFlagRow {
                        t_ms: bin_end,
                        dp: sample.dp,
                        degrading,
                        score: sample.score,
                    });
                    if degrading {
                        st.tot.health_degrades += 1;
                    } else {
                        st.tot.health_recovers += 1;
                    }
                }
            }
            self.dp_samples.push(std::mem::take(&mut st.bin));
            (st.exhausted, st.recovery_ms) = (0, 0);
        }
    }

    /// Feeds one event, closing (and scoring) any bins the stream has
    /// moved past.
    pub(crate) fn observe(&mut self, at_ms: u64, ev: &TraceEvent) {
        self.flush_until(at_ms, Close::Live);
        match *ev {
            TraceEvent::EventExecuted { .. } => {
                self.sim_bin.executed += 1;
                self.totals.events_executed += 1;
            }
            TraceEvent::EventCancelled { .. } => {
                self.sim_bin.cancelled += 1;
                self.totals.cancellations += 1;
            }
            TraceEvent::SvcStarted { dp, .. } => {
                let st = self.dp(dp);
                st.bin.started += 1;
                st.tot.started += 1;
            }
            TraceEvent::SvcQueued { dp, depth, .. } => {
                let st = self.scored(dp);
                st.bin.queued += 1;
                st.tot.queued += 1;
                st.queue_depth = depth;
            }
            TraceEvent::SvcRejected { dp, .. } => {
                let st = self.dp(dp);
                st.bin.rejected += 1;
                st.tot.rejected += 1;
            }
            TraceEvent::SvcCompleted { dp, depth, .. } => {
                let st = self.scored(dp);
                st.bin.completed += 1;
                st.tot.completed += 1;
                st.queue_depth = depth;
            }
            TraceEvent::SvcCrashDropped {
                dp,
                in_service,
                queued,
            } => {
                let st = self.scored(dp);
                st.tot.dropped_requests += u64::from(in_service) + u64::from(queued);
                st.queue_depth = 0;
            }
            TraceEvent::QueryIssued { dp, .. } => {
                // A query marks a point as under observation even before
                // any response resolves (so a point that only ever times
                // out is still scored).
                let st = self.scored(dp);
                st.bin.issued += 1;
                st.tot.issued += 1;
            }
            TraceEvent::QueryAccepted { dp, .. } => self.dp(dp).tot.accepted += 1,
            TraceEvent::QueryDuplicate { dp, .. } => self.dp(dp).tot.duplicates += 1,
            TraceEvent::Decision { dp, verdict, .. } => {
                if verdict == TraceVerdict::Denied {
                    let st = self.dp(dp);
                    st.bin.denied += 1;
                    st.tot.denied += 1;
                }
            }
            TraceEvent::ExchangeSent { from, records, .. } => {
                let st = self.dp(from);
                st.tot.exchanges_out += 1;
                st.tot.exchange_records_out += u64::from(records);
            }
            TraceEvent::ExchangeMerged {
                dp,
                received,
                fresh: _,
            } => {
                let st = self.scored(dp);
                st.tot.exchanges_in += 1;
                st.tot.exchange_records_in += u64::from(received);
                st.last_exchange_ms = Some(at_ms);
            }
            TraceEvent::ResponseAnswered {
                dp, response_ms, ..
            } => {
                let st = self.scored(dp);
                st.bin.answered += 1;
                st.tot.answered += 1;
                st.response(response_ms);
            }
            TraceEvent::ResponseLate {
                dp, response_ms, ..
            } => {
                let st = self.scored(dp);
                st.bin.late += 1;
                st.tot.late += 1;
                st.response(response_ms);
            }
            TraceEvent::ClientTimeout { dp, .. } => {
                let st = self.scored(dp);
                st.bin.timeouts += 1;
                st.tot.timeouts += 1;
            }
            TraceEvent::DpFailed { dp } => {
                let st = self.scored(dp);
                st.up = false;
                st.down = true;
                st.tot.failures += 1;
            }
            TraceEvent::DpRecovered { dp } => {
                let st = self.scored(dp);
                st.up = true;
                st.down = false;
                st.tot.recoveries += 1;
            }
            TraceEvent::ClientRebound { from, to, .. } => {
                self.dp(from).tot.rebinds_lost += 1;
                self.dp(to).tot.rebinds_gained += 1;
            }
            TraceEvent::MsgLost { dp, .. } => {
                let st = self.dp(dp);
                st.bin.lost += 1;
                st.tot.lost += 1;
            }
            TraceEvent::MsgDuplicated { dp, .. } => self.dp(dp).tot.duplicated += 1,
            TraceEvent::RetryScheduled { dp, .. } => {
                let st = self.scored(dp);
                st.bin.retries += 1;
                st.tot.retries += 1;
            }
            TraceEvent::RetryExhausted { dp, .. } => {
                let st = self.scored(dp);
                st.exhausted += 1;
                st.tot.retries_exhausted += 1;
            }
            TraceEvent::PartitionStarted { .. } => self.totals.partitions_started += 1,
            TraceEvent::PartitionHealed { .. } => self.totals.partitions_healed += 1,
            TraceEvent::ExchangeBlocked { to, .. } => self.dp(to).tot.partition_drops += 1,
            TraceEvent::LinkFaultStarted { .. } => self.totals.link_windows += 1,
            TraceEvent::LinkFaultEnded { .. } => {}
            TraceEvent::DpSlowdown { .. } => self.totals.slowdowns += 1,
            TraceEvent::DpSlowdownEnded { .. } => {}
            TraceEvent::ReplayOverload { .. } => self.totals.replay_overloads += 1,
            TraceEvent::ReplayDpAdded { .. } => self.totals.replay_dps_added += 1,
            TraceEvent::WalAppended { dp } => self.dp(dp).tot.wal_appends += 1,
            TraceEvent::SnapshotWritten { dp, .. } => self.dp(dp).tot.snapshots += 1,
            TraceEvent::RecoveryReplayed { dp, records, dur_ms } => {
                let st = self.scored(dp);
                st.recovery_ms = st.recovery_ms.max(u64::from(dur_ms));
                st.tot.wal_replayed += u64::from(records);
                st.tot.recovery_ms = st.tot.recovery_ms.max(u64::from(dur_ms));
            }
            // A point that left the pool is not a degrading point: it is
            // not scored until it joins again, and then from scratch.
            TraceEvent::DpJoined { dp, .. } => {
                // Materialize the point so it appears in samples from now on.
                self.dp(dp).set_left(false);
                self.totals.dp_joins += 1;
            }
            TraceEvent::DpLeft { dp, .. } => {
                self.dp(dp).set_left(true);
                self.totals.dp_leaves += 1;
            }
            TraceEvent::ClientRehomed { .. } => self.totals.clients_rehomed += 1,
            // Raised and counted by `close_bin` alone, so the counters
            // reconcile ±0 with the report's flag list.
            TraceEvent::HealthFlag { .. } => {}
        }
    }

    /// Closes the final (possibly partial) bin and snapshots the run. The
    /// raw-event ring is the sink's: `recent` comes back empty.
    pub(crate) fn finish(&self, end_ms: u64) -> RunTimeline {
        // Work on a clone: `finish` must not disturb the live builder (the
        // recorder may be asked to finish more than once).
        let mut b = self.clone();
        b.flush_until(end_ms, Close::Tail);
        if b.bin_start_ms < end_ms {
            b.close_bin(end_ms, Close::Partial);
        }
        let dp_totals: Vec<DpTotals> = b.dps.iter().filter(|s| s.seen).map(|s| s.tot).collect();
        let sum = |f: fn(&DpTotals) -> u64| dp_totals.iter().map(f).sum();
        let totals = RunTotals {
            issued: sum(|t| t.issued),
            answered: sum(|t| t.answered),
            late: sum(|t| t.late),
            timed_out: sum(|t| t.timeouts),
            denied: sum(|t| t.denied),
            accepted: sum(|t| t.accepted),
            duplicates: sum(|t| t.duplicates),
            failures: sum(|t| t.failures),
            recoveries: sum(|t| t.recoveries),
            dropped_requests: sum(|t| t.dropped_requests),
            rebinds: sum(|t| t.rebinds_gained),
            msgs_lost: sum(|t| t.lost),
            retries: sum(|t| t.retries),
            retries_exhausted: sum(|t| t.retries_exhausted),
            msgs_duplicated: sum(|t| t.duplicated),
            partition_drops: sum(|t| t.partition_drops),
            wal_appends: sum(|t| t.wal_appends),
            snapshots: sum(|t| t.snapshots),
            wal_replayed: sum(|t| t.wal_replayed),
            max_recovery_ms: dp_totals.iter().map(|t| t.recovery_ms).max().unwrap_or(0),
            health_degrades: sum(|t| t.health_degrades),
            health_recovers: sum(|t| t.health_recovers),
            ..b.totals
        };
        RunTimeline {
            cadence_ms: b.cadence_ms,
            end_ms,
            dp_samples: b.dp_samples,
            sim_samples: b.sim_samples,
            dp_totals,
            totals,
            recent: Vec::new(),
            dropped_raw: 0,
            health: b.health,
        }
    }
}

/// Everything one traced run exports: per-bin samples, per-point and
/// whole-run totals, plus the tail of the raw event ring for debugging.
///
/// Derives `PartialEq` end-to-end — the trace-determinism test compares
/// timelines (and their JSONL renderings) across `--jobs 1` / `--jobs 8`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunTimeline {
    /// Sampling cadence, ms of sim-time.
    pub(crate) cadence_ms: u64,
    /// End of the run, ms of sim-time.
    pub(crate) end_ms: u64,
    /// Per-decision-point bin samples, ordered by (bin, dp).
    pub dp_samples: Vec<DpSample>,
    /// Whole-simulation bin samples, ordered by bin.
    pub sim_samples: Vec<SimSample>,
    /// Per-decision-point whole-run totals, ordered by dp.
    pub dp_totals: Vec<DpTotals>,
    /// Whole-run totals.
    pub totals: RunTotals,
    /// The most recent raw events (bounded ring; oldest first).
    pub recent: Vec<(u64, TraceEvent)>,
    /// Raw events the ring evicted (aggregates above still include them).
    pub dropped_raw: u64,
    /// The health scores of these bins: scoring is on whenever tracing is.
    pub health: HealthReport,
}

impl RunTimeline {
    /// Feeds the timeline into a run's two pins in one pass over its
    /// fields: what the model said into `model`; what the engine spent
    /// saying it (the scheduler's counters, per bin and in total, and the
    /// raw event ring) into `engine`. A new field does not compile here
    /// until it is given a half.
    pub fn pin(&self, model: &mut Fnv1a, engine: &mut Fnv1a) {
        let RunTimeline {
            // The model half, and `totals` but for its two scheduler counters.
            cadence_ms, end_ms, dp_samples, dp_totals, health, totals,
            // The engine half.
            sim_samples, recent, dropped_raw,
        } = self;
        let _ = write!(model, "{cadence_ms} {end_ms} {dp_samples:?} {dp_totals:?} {health:?}");
        for (name, value) in totals.fields() {
            let scheduler = matches!(name, "events_executed" | "cancellations");
            let _ = write!(if scheduler { &mut *engine } else { &mut *model }, " {name}: {value}");
        }
        let _ = write!(engine, " {sim_samples:?} {recent:?} {dropped_raw}");
    }

    /// Sum of a per-DP field across `dp_totals` (reconciliation helper).
    pub fn sum_dp<F: Fn(&DpTotals) -> u64>(&self, f: F) -> u64 {
        self.dp_totals.iter().map(f).sum()
    }

    /// The merged response-time histogram across all decision points.
    pub fn response_histogram(&self) -> ResponseHistogram {
        let mut h = ResponseHistogram::default();
        for t in &self.dp_totals {
            h.merge(&t.hist);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gruber_types::ClientId;

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(ResponseHistogram::bucket(0), 0);
        assert_eq!(ResponseHistogram::bucket(1), 1);
        assert_eq!(ResponseHistogram::bucket(2), 1);
        assert_eq!(ResponseHistogram::bucket(3), 2);
        assert_eq!(ResponseHistogram::bucket(1000), 9);
        assert_eq!(
            ResponseHistogram::bucket(u64::MAX - 1),
            ResponseHistogram::BUCKETS - 1
        );
        let mut h = ResponseHistogram::default();
        h.record(0);
        h.record(500);
        h.record(500);
        assert_eq!(h.count(), 3);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[8], 2);
    }

    #[test]
    fn bins_close_on_cadence_and_counters_reset() {
        let mut b = TimelineBuilder::new(1000);
        let dp = DpId(0);
        let client = ClientId(0);
        b.observe(100, &TraceEvent::QueryIssued { client, dp });
        b.observe(
            200,
            &TraceEvent::ResponseAnswered {
                dp,
                client,
                response_ms: 150,
            },
        );
        // Crossing into the second bin flushes the first.
        b.observe(1500, &TraceEvent::QueryIssued { client, dp });
        let tl = b.finish(2000);
        let (samples, sim, totals, run) = (tl.dp_samples, tl.sim_samples, tl.dp_totals, tl.totals);
        assert_eq!(samples.len(), 2);
        assert_eq!(sim.len(), 2);
        assert_eq!(samples[0].t_ms, 1000);
        assert_eq!(samples[0].issued, 1);
        assert_eq!(samples[0].answered, 1);
        assert_eq!(samples[0].sum_response_ms, 150);
        assert_eq!(samples[1].t_ms, 2000);
        assert_eq!(samples[1].issued, 1);
        assert_eq!(samples[1].answered, 0, "bin counters must reset");
        assert_eq!(totals[0].issued, 2);
        assert_eq!(totals[0].answered, 1);
        assert_eq!(run.issued, 2);
        assert_eq!(run.answered, 1);
    }

    #[test]
    fn staleness_tracks_last_merge() {
        let mut b = TimelineBuilder::new(1000);
        let dp = DpId(2);
        b.observe(
            300,
            &TraceEvent::ExchangeMerged {
                dp,
                received: 5,
                fresh: 4,
            },
        );
        let tl = b.finish(3000);
        let (samples, totals) = (tl.dp_samples, tl.dp_totals);
        let mine: Vec<&DpSample> = samples.iter().filter(|s| s.dp == dp).collect();
        assert_eq!(mine.len(), 3);
        assert_eq!(mine[0].staleness_ms, Some(700));
        assert_eq!(mine[2].staleness_ms, Some(2700));
        assert_eq!(totals.iter().find(|t| t.dp == dp).unwrap().exchanges_in, 1);
    }

    #[test]
    fn fail_recover_flips_up_and_drops_count() {
        let mut b = TimelineBuilder::new(1000);
        let dp = DpId(0);
        b.observe(
            100,
            &TraceEvent::SvcCrashDropped {
                dp,
                in_service: 4,
                queued: 3,
            },
        );
        b.observe(100, &TraceEvent::DpFailed { dp });
        b.observe(2500, &TraceEvent::DpRecovered { dp });
        let tl = b.finish(3000);
        let (samples, run) = (tl.dp_samples, tl.totals);
        let mine: Vec<&DpSample> = samples.iter().filter(|s| s.dp == dp).collect();
        assert!(!mine[0].up);
        assert!(!mine[1].up);
        assert!(mine[2].up);
        assert_eq!(run.dropped_requests, 7);
        assert_eq!(run.failures, 1);
        assert_eq!(run.recoveries, 1);
    }

    /// The `membership: diurnal` leaver: dp 4 joins at 360 s with one
    /// bootstrap merge, leaves at 510 s, and a query dropped by its
    /// departure times out at 540 s. Scored on, its staleness would climb
    /// to a `Degrading` flag at 780 s; a departed point is not scored.
    #[test]
    fn a_departed_point_is_not_scored() {
        let mut b = TimelineBuilder::new(60_000);
        let (client, member, leaver) = (ClientId(0), DpId(0), DpId(4));
        let answered = |dp| TraceEvent::ResponseAnswered {
            dp,
            client,
            response_ms: 5,
        };
        let merged = |dp| TraceEvent::ExchangeMerged {
            dp,
            received: 1,
            fresh: 1,
        };
        b.observe(360_000, &TraceEvent::DpJoined { dp: leaver, epoch: 1 });
        b.observe(360_000, &merged(leaver));
        for t in 0..1080u64 {
            let at = t * 1000;
            if t % 180 == 0 {
                b.observe(at, &merged(member));
            }
            b.observe(at, &answered(member));
            if (360..510).contains(&t) {
                b.observe(at, &answered(leaver));
            }
            if t == 510 {
                b.observe(at, &TraceEvent::DpLeft { dp: leaver, epoch: 2 });
            }
            if t == 540 {
                b.observe(at, &TraceEvent::ClientTimeout { client, dp: leaver });
            }
        }
        assert!(b.flags().iter().all(|f| f.dp != leaver), "{:?}", b.flags());
        let health = b.finish(1_080_000).health;
        let scored: Vec<u64> = health
            .samples
            .iter()
            .filter(|s| s.dp == leaver)
            .map(|s| s.t_ms)
            .collect();
        assert_eq!(scored, [420_000, 480_000], "scored only while a member");
    }

    #[test]
    fn finish_is_idempotent() {
        let mut b = TimelineBuilder::new(500);
        b.observe(
            10,
            &TraceEvent::QueryIssued {
                client: ClientId(0),
                dp: DpId(0),
            },
        );
        let a = b.finish(1000);
        let c = b.finish(1000);
        assert_eq!(a, c);
    }
}
