//! The trace-event vocabulary.
//!
//! One flat enum, integer fields only: events must be cheap to construct,
//! `Copy`, and render byte-identically across runs (no floats, no heap).
//! Each variant names the subsystem that emits it; the timestamp is not
//! part of the event — the sink keys every emission by simulated time.

use gruber_types::{ClientId, DpId, JobId};

/// Admission verdict as recorded by the tracer — a dependency-free mirror
/// of `usla::AdmissionVerdict` (obs sits below the USLA stack).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceVerdict {
    /// The job may start within its entitlement (guaranteed or under
    /// target share).
    Admitted,
    /// Over entitlement, admitted opportunistically on idle capacity.
    Opportunistic,
    /// A hard cap or exhausted capacity forbids admission.
    Denied,
}

/// Message class of a fault-injected or retried transmission — a
/// dependency-free mirror of `simnet::MessageClass` (obs sits below
/// the network stack).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMsgClass {
    /// A client → decision-point availability query.
    Query,
    /// A decision-point → decision-point exchange flood message.
    Exchange,
    /// A decision-point → client leg (availability response, dispatch
    /// inform). Never retried — the client timeout covers it.
    Response,
}

/// One structured event on a hot path of the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// `desim`: the scheduler executed the event with this sequence number.
    EventExecuted {
        /// Scheduler sequence number.
        seq: u64,
    },
    /// `desim`: a live event was cancelled before firing.
    EventCancelled {
        /// Scheduler sequence number.
        seq: u64,
    },
    /// `simnet`: a request found a free container worker and started.
    SvcStarted {
        /// Decision point owning the station.
        dp: DpId,
        /// Caller-supplied request tag.
        tag: u64,
    },
    /// `simnet`: all workers busy — the request queued FIFO.
    SvcQueued {
        /// Decision point owning the station.
        dp: DpId,
        /// Caller-supplied request tag.
        tag: u64,
        /// Backlog depth after the enqueue.
        depth: u32,
    },
    /// `simnet`: the accept queue was full — the request was refused.
    SvcRejected {
        /// Decision point owning the station.
        dp: DpId,
        /// Caller-supplied request tag.
        tag: u64,
    },
    /// `simnet`: a request finished service and freed its worker.
    SvcCompleted {
        /// Decision point owning the station.
        dp: DpId,
        /// Tag of the backlog request promoted into the freed worker
        /// (`u64::MAX` when the backlog was empty).
        tag: u64,
        /// Backlog depth after any queued successor was promoted.
        depth: u32,
    },
    /// `simnet`: the container crashed, dropping all in-flight requests.
    SvcCrashDropped {
        /// Decision point owning the station.
        dp: DpId,
        /// Requests that were occupying workers.
        in_service: u32,
        /// Requests that were waiting in the backlog.
        queued: u32,
    },
    /// `digruber`: a client issued a query to its bound decision point.
    QueryIssued {
        /// Issuing client.
        client: ClientId,
        /// Bound decision point.
        dp: DpId,
    },
    /// `gruber`: the engine accepted a *new* dispatch record into its view
    /// and flood log.
    QueryAccepted {
        /// Decision point whose engine recorded it.
        dp: DpId,
        /// The dispatched job.
        job: JobId,
    },
    /// `gruber`: a dispatch record was a duplicate (already in the view).
    QueryDuplicate {
        /// Decision point whose engine saw it.
        dp: DpId,
        /// The duplicated job id.
        job: JobId,
    },
    /// `gruber`: a USLA admission decision was evaluated.
    Decision {
        /// Deciding decision point.
        dp: DpId,
        /// The job under decision.
        job: JobId,
        /// The verdict.
        verdict: TraceVerdict,
    },
    /// `digruber`: one peer flood of a sync round left a decision point.
    ExchangeSent {
        /// Sender.
        from: DpId,
        /// Receiver the flood is addressed to.
        to: DpId,
        /// Dispatch records in the flood.
        records: u32,
    },
    /// `gruber`: a peer flood was merged into the receiving view.
    ExchangeMerged {
        /// Receiving decision point.
        dp: DpId,
        /// Records in the flood.
        received: u32,
        /// Records that were new to this view.
        fresh: u32,
    },
    /// `digruber`: an availability response reached the client in time.
    ResponseAnswered {
        /// Answering decision point.
        dp: DpId,
        /// The client.
        client: ClientId,
        /// Full query response time, milliseconds.
        response_ms: u64,
    },
    /// `digruber`: the service completed a request whose client had
    /// already timed out (a late completion — counted by service-side
    /// throughput, not by the client).
    ResponseLate {
        /// Completing decision point.
        dp: DpId,
        /// The (long gone) client.
        client: ClientId,
        /// Time from send to the late completion, milliseconds.
        response_ms: u64,
    },
    /// `digruber`: a client's query timeout fired before any response.
    ClientTimeout {
        /// The client that gave up.
        client: ClientId,
        /// The decision point that failed to answer in time.
        dp: DpId,
    },
    /// `digruber::faults`: a decision point crashed.
    DpFailed {
        /// The crashed point.
        dp: DpId,
    },
    /// `digruber::faults`: a crashed decision point came back up.
    DpRecovered {
        /// The repaired point.
        dp: DpId,
    },
    /// `digruber`: a client re-bound from one decision point to another
    /// (timeout failover, or rebalance-on-repair).
    ClientRebound {
        /// The re-binding client.
        client: ClientId,
        /// Previous binding.
        from: DpId,
        /// New binding.
        to: DpId,
    },
    /// `digruber`: a transmission was dropped by a fault-plan loss
    /// window.
    MsgLost {
        /// Which leg lost the message.
        class: FaultMsgClass,
        /// Destination decision point (for queries: the queried DP; for
        /// exchanges: the intended receiver).
        dp: DpId,
        /// Transmission attempt that was lost (0 = original send).
        attempt: u32,
    },
    /// `digruber::faults`: fault injection delivered an extra copy of a
    /// message (duplication window).
    MsgDuplicated {
        /// Which leg was duplicated.
        class: FaultMsgClass,
        /// Destination decision point.
        dp: DpId,
    },
    /// `simnet::retry`: a lost transmission was scheduled for retransmit.
    RetryScheduled {
        /// Which leg is retrying.
        class: FaultMsgClass,
        /// Destination decision point.
        dp: DpId,
        /// The upcoming attempt number (1 = first retransmission).
        attempt: u32,
    },
    /// `simnet::retry`: the retry budget ran out — the loss is permanent.
    RetryExhausted {
        /// Which leg gave up.
        class: FaultMsgClass,
        /// Destination decision point.
        dp: DpId,
        /// Total transmissions made (original + retries).
        attempts: u32,
    },
    /// `digruber::faults`: a scheduled network partition came into effect.
    PartitionStarted {
        /// Index of the partition window in the fault plan.
        window: u32,
        /// Number of islands the decision points are split into.
        islands: u32,
    },
    /// `digruber::faults`: a network partition healed.
    PartitionHealed {
        /// Index of the partition window in the fault plan.
        window: u32,
    },
    /// `digruber`: an exchange flood was dropped at a partition boundary.
    ExchangeBlocked {
        /// Sending decision point.
        from: DpId,
        /// Intended receiver, on the far side of the partition.
        to: DpId,
    },
    /// `digruber::faults`: a link-fault window (loss / duplication /
    /// reorder) opened.
    LinkFaultStarted {
        /// Index of the window in the fault plan.
        window: u32,
    },
    /// `digruber::faults`: a link-fault window closed.
    LinkFaultEnded {
        /// Index of the window in the fault plan.
        window: u32,
    },
    /// `digruber::faults`: a decision point entered a service slowdown
    /// (degraded container profile).
    DpSlowdown {
        /// The degraded decision point.
        dp: DpId,
        /// Service-time multiplier in permille (2500 = 2.5× slower).
        permille: u32,
    },
    /// `digruber::faults`: a decision point's slowdown window ended.
    DpSlowdownEnded {
        /// The recovered decision point.
        dp: DpId,
    },
    /// `grubsim`: a replay interval's backlog exceeded the burst allowance.
    ReplayOverload {
        /// Replay interval index.
        interval: u64,
        /// Backlog at the overload, in whole queries (rounded).
        backlog: u64,
    },
    /// `grubsim`: the replay added a decision point.
    ReplayDpAdded {
        /// Replay interval index.
        interval: u64,
        /// Total decision points after the addition.
        total: u32,
    },
    /// `dpstore`: one operation was appended to a decision point's WAL.
    WalAppended {
        /// The persisting decision point.
        dp: DpId,
    },
    /// `dpstore`: a snapshot was written (and the WAL truncated).
    SnapshotWritten {
        /// The persisting decision point.
        dp: DpId,
        /// Live dispatch records serialised into the snapshot.
        records: u32,
    },
    /// `digruber::faults`: a restarting decision point replayed its
    /// durable snapshot + WAL instead of rejoining empty.
    RecoveryReplayed {
        /// The recovering decision point.
        dp: DpId,
        /// WAL operations replayed into the fresh node.
        records: u32,
        /// Modeled recovery latency charged before the rejoin, ms.
        dur_ms: u32,
    },
    /// `membership`: a decision point joined the elastic pool (epoch
    /// from the membership table after the join).
    DpJoined {
        /// The joining decision point.
        dp: DpId,
        /// Membership epoch after the join.
        epoch: u32,
    },
    /// `membership`: a decision point drained and left the elastic pool.
    DpLeft {
        /// The leaving decision point.
        dp: DpId,
        /// Membership epoch after the leave.
        epoch: u32,
    },
    /// `membership`: consistent-hash re-homing moved a client between
    /// decision points after a pool change.
    ClientRehomed {
        /// The re-homed client.
        client: ClientId,
        /// Previous home.
        from: DpId,
        /// New home.
        to: DpId,
    },
    /// `obs::health`: the online scoring flipped a decision point's flag.
    ///
    /// A *derived* event: the timeline raises it when a cadence bin (the
    /// scoring window, see `crate::health`) closes, stamped at the bin
    /// boundary, and the sink writes it into the ring ahead of the event
    /// that closed the bin, so the ring, the timeline counters and the
    /// JSONL see flag transitions like any other event.
    HealthFlag {
        /// The flagged decision point.
        dp: DpId,
        /// `true` = `Degrading` raised; `false` = `Recovered` (cleared).
        degrading: bool,
        /// The windowed health score (0–100) that tripped the transition.
        score: u32,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_small_and_copy() {
        // The scheduler emits one of these per simulation event; keep the
        // variant payloads register-sized.
        assert!(std::mem::size_of::<TraceEvent>() <= 24);
        let ev = TraceEvent::QueryIssued {
            client: ClientId(0),
            dp: DpId(0),
        };
        let copy = ev;
        assert_eq!(ev, copy);
    }
}
