//! One-call experiment execution.

use crate::config::DigruberConfig;
use crate::events::{Ev, Sched, Sim};
use crate::metrics::{AvailableCapacity, JobMetricsAccumulator, JobObservation, TableRows};
use crate::world::World;
use diperf::{DiPerfReport, RequestTrace};
use gruber_types::{DpId, GridResult, JobRecord, JobState, SimDuration, SimTime};
use workload::WorkloadSpec;

/// A fully-specified, seeded experiment: configuration + workload +
/// label. This is the unit the parallel sweep executor fans out — two
/// `run()` calls on equal specs produce field-for-field identical
/// [`ExperimentOutput`]s, on any thread, in any order (the determinism
/// regression test pins this).
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Human-readable label carried into the output.
    pub label: String,
    /// Deployment/experiment configuration (includes the RNG seed).
    pub cfg: DigruberConfig,
    /// Workload the testers submit.
    pub workload: WorkloadSpec,
}

impl RunSpec {
    /// Builds a spec.
    pub fn new(label: impl Into<String>, cfg: DigruberConfig, workload: WorkloadSpec) -> Self {
        RunSpec {
            label: label.into(),
            cfg,
            workload,
        }
    }

    /// The paper's Section 4 setup at full scale.
    pub fn paper(label: impl Into<String>, n_dps: usize, service: crate::config::ServiceKind, seed: u64) -> Self {
        RunSpec::new(
            label,
            DigruberConfig::paper(n_dps, service, seed),
            WorkloadSpec::paper_default(),
        )
    }

    /// Runs the experiment this spec describes.
    pub fn run(&self) -> GridResult<ExperimentOutput> {
        run_experiment(self.cfg.clone(), self.workload.clone(), &self.label)
    }
}

/// Everything a figure/table needs from one experiment run.
#[derive(Clone, PartialEq)]
pub struct ExperimentOutput {
    /// Human-readable label.
    pub label: String,
    /// DiPerF summary (response stats, peaks, handled fraction).
    pub report: DiPerfReport,
    /// Per-minute `(bin start, load, mean response s, throughput q/s)`
    /// rows — the three curves of each figure.
    pub figure_rows: Vec<(SimTime, f64, f64, f64)>,
    /// The Table 1/2 block (handled / not handled / all).
    pub table: TableRows,
    /// Mean scheduling accuracy over handled placements.
    pub mean_handled_accuracy: Option<f64>,
    /// Raw request traces (GRUB-SIM input).
    pub traces: Vec<RequestTrace>,
    /// Decision points ever created, departed ones included (differs
    /// from the start once an elastic pool has grown).
    pub final_dps: usize,
    /// Pool joins: `(when, new decision point)`.
    pub reconfig_log: Vec<(SimTime, DpId)>,
    /// Pool leaves: `(when, departed decision point)`.
    pub retire_log: Vec<(SimTime, DpId)>,
    /// Jobs that entered the grid.
    pub jobs_dispatched: usize,
    /// Requests denied by USLA enforcement.
    pub denied_requests: u64,
    /// Decision-point crashes injected (failure study).
    pub dp_failures: u64,
    /// Client failover re-bindings performed.
    pub failovers: u64,
    /// Client-visible timeouts per decision point (indexed by `DpId`).
    /// Under injected message loss these are the run-summary symptom of
    /// the fault layer.
    pub timeouts_by_dp: Vec<u64>,
    /// Worst view staleness per decision point, in milliseconds: the
    /// largest gap between consecutive peer merges (and the tail gap to
    /// the end of the run). Partitions stretch this. Zero for deployments
    /// that never exchange (single point, `NoExchange`).
    pub max_view_staleness_ms: Vec<u64>,
    /// CPU time consumed per VO as a fraction of all consumed CPU time
    /// (indexed by VO id) — the fairness view of the run.
    pub vo_cpu_share: Vec<f64>,
    /// Simulation events executed (deterministic; the bench snapshots
    /// divide it by wall-clock for an events/sec rate).
    pub events_executed: u64,
    /// High-water mark of the pending event queue.
    pub peak_pending: usize,
    /// Per-decision-point timeline (present iff `cfg.trace` was set);
    /// deterministic like every other field.
    pub timeline: Option<obs::RunTimeline>,
    /// Decision-point restarts completed (crash recovery, any
    /// [`crate::config::RecoveryMode`]).
    pub recoveries: u64,
    /// WAL records replayed across all recoveries (Persist mode only).
    pub wal_records_replayed: u64,
    /// Slowest single recovery's modeled replay cost, in milliseconds.
    pub max_recovery_ms: u64,
    /// Successful `Scheduler::cancel` calls over the run. Excluded from
    /// the `Debug` fingerprint (it predates the field); the determinism
    /// suite asserts it reconciles ±0 with the traced timeline's
    /// cancellation total.
    pub sched_cancellations: u64,
    /// Elastic-membership joins executed (zero unless
    /// [`crate::config::DigruberConfig::membership`] is set).
    pub dp_joins: u64,
    /// Elastic-membership drain-and-leaves executed.
    pub dp_leaves: u64,
    /// Clients moved by consistent-hash re-homing across all pool
    /// changes.
    pub clients_rehomed: u64,
}

impl ExperimentOutput {
    /// The online health report: windowed per-DP scores and
    /// `Degrading`/`Recovered` flag transitions. Present iff the run was
    /// traced. Rides inside [`ExperimentOutput::timeline`], so it adds
    /// nothing to the untraced `Debug` fingerprint.
    pub fn health(&self) -> Option<&obs::HealthReport> {
        self.timeline.as_ref()?.health.as_ref()
    }
}

// Manual `Debug` mirroring the old derive field-for-field, with the
// recovery counters appended only when one is nonzero. The sweep
// fingerprint is an FNV hash over this representation, so runs that never
// crash-recover (every pre-durability configuration) keep byte-identical
// fingerprints — persistence is zero-cost until opted into.
impl std::fmt::Debug for ExperimentOutput {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("ExperimentOutput");
        d.field("label", &self.label)
            .field("report", &self.report)
            .field("figure_rows", &self.figure_rows)
            .field("table", &self.table)
            .field("mean_handled_accuracy", &self.mean_handled_accuracy)
            .field("traces", &self.traces)
            .field("final_dps", &self.final_dps)
            .field("reconfig_log", &self.reconfig_log)
            .field("retire_log", &self.retire_log)
            .field("jobs_dispatched", &self.jobs_dispatched)
            .field("denied_requests", &self.denied_requests)
            .field("dp_failures", &self.dp_failures)
            .field("failovers", &self.failovers)
            .field("timeouts_by_dp", &self.timeouts_by_dp)
            .field("max_view_staleness_ms", &self.max_view_staleness_ms)
            .field("vo_cpu_share", &self.vo_cpu_share)
            .field("events_executed", &self.events_executed)
            .field("peak_pending", &self.peak_pending)
            .field("timeline", &self.timeline);
        if self.recoveries + self.wal_records_replayed + self.max_recovery_ms > 0 {
            d.field("recoveries", &self.recoveries)
                .field("wal_records_replayed", &self.wal_records_replayed)
                .field("max_recovery_ms", &self.max_recovery_ms);
        }
        // Same pattern for the membership counters: static deployments
        // (membership off) keep their pre-subsystem fingerprints.
        if self.dp_joins + self.dp_leaves + self.clients_rehomed > 0 {
            d.field("dp_joins", &self.dp_joins)
                .field("dp_leaves", &self.dp_leaves)
                .field("clients_rehomed", &self.clients_rehomed);
        }
        d.finish()
    }
}

/// CPU time a job consumed inside `[0, end)`.
fn consumed_within(rec: &JobRecord, end: SimTime) -> SimDuration {
    let Some(start) = rec.started_at else {
        return SimDuration::ZERO;
    };
    let until = rec.completed_at.unwrap_or(end).min(end);
    until.since(start) * u64::from(rec.spec.cpus)
}

/// Runs one experiment to completion and aggregates its outputs.
pub fn run_experiment(
    cfg: DigruberConfig,
    workload: WorkloadSpec,
    label: &str,
) -> GridResult<ExperimentOutput> {
    let mut sim = run_to_end(cfg, workload)?;
    let events_executed = sim.events_executed();
    let peak_pending = sim.peak_pending();
    let sched_cancellations = sim.scheduler().cancellations();
    let w = sim.into_world();
    Ok(finalize(w, label, events_executed, peak_pending, sched_cancellations))
}

/// Builds the world, seeds every initial event and runs the simulation to
/// the end of the experiment. [`run_experiment`] aggregates the result;
/// tests call this directly to inspect the final [`World`] (client
/// bindings, pool membership) that the aggregate does not carry.
pub fn run_to_end(
    cfg: DigruberConfig,
    workload: WorkloadSpec,
) -> GridResult<Sim> {
    let arrival_batch = workload.arrival_batch;
    let world = World::new(cfg, workload)?;
    let mut sim = Sim::with_events(world);
    let tracer = sim.world().trace.clone();
    sim.scheduler().set_tracer(tracer);

    // Seed the initial events: tester ramp, sync rounds, load sampling,
    // and (when configured) the fault clocks and the autoscaler tick.
    let schedule = sim.world().schedule;
    match arrival_batch {
        None => {
            for c in 0..schedule.n_clients {
                let client = gruber_types::ClientId(c);
                let at = schedule.start_of(client);
                sim.scheduler().post_at(at, Ev::ClientStart(client));
            }
        }
        Some(batch) => {
            // One seeder event per chunk of clients, fired at the chunk's
            // earliest ramp start (start_of is monotone in client id), so
            // the up-front queue stays O(n/batch).
            let mut c = 0u32;
            while c < schedule.n_clients {
                let hi = (c + batch).min(schedule.n_clients);
                let at = schedule.start_of(gruber_types::ClientId(c));
                sim.scheduler().post_at(at, Ev::SeedClients { lo: c, hi });
                c = hi;
            }
        }
    }
    let sync_interval = sim.world().cfg.sync_interval;
    if sim.world().exchanges_state() {
        sim.scheduler()
            .post_at(SimTime(sync_interval.as_millis()), Ev::SyncRound);
    }
    sim.scheduler().post_at(SimTime::ZERO, Ev::LoadSample);
    if sim.world().cfg.failures.is_some() {
        sim.scheduler().post_at(SimTime::ZERO, Ev::SeedFailures);
    }
    if sim.world().cfg.fault_plan.is_some() {
        sim.scheduler().post_at(SimTime::ZERO, Ev::SeedPlan);
    }
    if sim.world().cfg.monitor_refresh.is_some() {
        sim.scheduler().post_at(SimTime::ZERO, Ev::MonitorRefresh);
    }
    if let Some(m) = sim.world().cfg.membership {
        if m.scaler.is_some() {
            sim.scheduler()
                .post_at(SimTime(m.check_interval.as_millis()), Ev::MembershipTick);
        }
    }

    let end = sim.world().end;
    sim.run_until(end);
    Ok(sim)
}

/// One chunk of batched tester seeding: posts each client's start at its
/// exact ramp time, so arrival times match unbatched seeding millisecond
/// for millisecond.
pub fn seed_clients(w: &mut World, s: &mut Sched, lo: u32, hi: u32) {
    for c in lo..hi {
        let client = gruber_types::ClientId(c);
        s.post_at(w.schedule.start_of(client), Ev::ClientStart(client));
    }
}

fn finalize(
    mut w: World,
    label: &str,
    events_executed: u64,
    peak_pending: usize,
    sched_cancellations: u64,
) -> ExperimentOutput {
    let end = w.end;
    // Requests whose clients timed out and that the service never finished
    // within the run are pure timeouts, recorded in tag order.
    for (_, r) in w.requests.iter().filter(|(_, r)| r.timed_out) {
        w.collector
            .record(RequestTrace::timed_out(r.client, r.dp, r.sent_at));
    }
    let mut acc = JobMetricsAccumulator::new();
    let mut jobs_dispatched = 0usize;
    let mut vo_consumed = vec![0.0f64; w.workload.n_vos as usize];
    // `records()` is in job-id order, so the floating-point reductions
    // are order-stable.
    for rec in w.grid.records() {
        if rec.dispatched_at.is_none() {
            continue;
        }
        jobs_dispatched += 1;
        vo_consumed[rec.spec.vo.index()] += consumed_within(rec, end).as_secs_f64();
        debug_assert_ne!(rec.state, JobState::AtSubmissionHost);
        acc.record(JobObservation {
            handled_by_gruber: rec.handled_by_gruber,
            queue_time: rec.queue_time(),
            consumed_cpu_time: consumed_within(rec, end),
            accuracy: if rec.handled_by_gruber {
                w.accuracy_by_job.get(rec.spec.id)
            } else {
                None
            },
        });
    }
    let capacity = AvailableCapacity::until(w.grid.total_cpus(), end);
    let table = acc.table_rows(capacity);
    let timeouts_by_dp = diperf::trace::timeouts_by_dp(w.collector.traces(), w.dps.len());
    let exchanges = w.exchanges_state() && w.dps.len() > 1;
    let max_view_staleness_ms: Vec<u64> = w
        .dps
        .iter()
        .map(|dp| {
            if !exchanges {
                return 0;
            }
            // The worst gap between merges, or the tail gap to the end of
            // the run if that is longer (a point that never merged is
            // stale for the whole run).
            let tail = end.since(dp.host.node().engine().last_merge_at().unwrap_or(SimTime::ZERO));
            dp.host.node().engine().max_merge_gap().max(tail).as_millis()
        })
        .collect();
    let report = w.collector.report(label, end);
    let figure_rows = w
        .collector
        .figure_rows(SimDuration::MINUTE, end);
    ExperimentOutput {
        label: label.to_string(),
        report,
        figure_rows,
        table,
        mean_handled_accuracy: table.handled.accuracy,
        traces: w.collector.into_traces(),
        final_dps: w.dps.len(),
        reconfig_log: w.reconfig_log,
        retire_log: w.retire_log,
        jobs_dispatched,
        denied_requests: w.denied_requests,
        dp_failures: w.dp_failures,
        failovers: w.failovers,
        timeouts_by_dp,
        max_view_staleness_ms,
        vo_cpu_share: {
            let total: f64 = vo_consumed.iter().sum();
            if total > 0.0 {
                vo_consumed.iter().map(|c| c / total).collect()
            } else {
                vo_consumed
            }
        },
        events_executed,
        peak_pending,
        recoveries: w.dps.iter().map(|dp| dp.host.recoveries()).sum(),
        wal_records_replayed: w.dps.iter().map(|dp| dp.host.wal_records_replayed()).sum(),
        max_recovery_ms: w.max_recovery_ms,
        sched_cancellations,
        dp_joins: w.membership.as_ref().map_or(0, |m| m.dp_joins),
        dp_leaves: w.membership.as_ref().map_or(0, |m| m.dp_leaves),
        clients_rehomed: w.membership.as_ref().map_or(0, |m| m.clients_rehomed),
        timeline: w.trace.finish(end),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServiceKind;

    fn small_run(n_dps: usize, seed: u64) -> ExperimentOutput {
        run_experiment(
            DigruberConfig::small(n_dps, seed),
            WorkloadSpec::small(),
            "small",
        )
        .unwrap()
    }

    #[test]
    fn small_experiment_produces_traffic() {
        let out = small_run(2, 42);
        assert!(out.report.issued > 20, "only {} requests", out.report.issued);
        assert!(out.report.answered > 0);
        assert!(out.jobs_dispatched > 0);
        assert_eq!(out.final_dps, 2);
        assert!(out.traces.len() == out.report.issued);
        // Small config is underloaded: most requests answered.
        assert!(out.report.handled_fraction() > 0.8);
    }

    #[test]
    fn deterministic_runs() {
        let a = small_run(2, 7);
        let b = small_run(2, 7);
        assert_eq!(a.report, b.report);
        assert_eq!(a.traces, b.traces);
        assert_eq!(a.jobs_dispatched, b.jobs_dispatched);
    }

    #[test]
    fn different_seeds_differ() {
        let a = small_run(2, 7);
        let b = small_run(2, 8);
        assert_ne!(a.traces, b.traces);
    }

    #[test]
    fn handled_placements_have_accuracy() {
        let out = small_run(2, 42);
        let acc = out.mean_handled_accuracy.expect("handled jobs exist");
        assert!((0.0..=1.0).contains(&acc));
        // Underloaded grid + least-used selection + fresh-ish views →
        // accuracy should be high.
        assert!(acc > 0.7, "accuracy {acc}");
    }

    #[test]
    fn utilization_is_positive_and_sane() {
        let out = small_run(2, 42);
        assert!(out.table.all.util > 0.0);
        assert!(out.table.all.util <= 1.0);
    }

    #[test]
    fn figure_rows_span_the_run() {
        let out = small_run(1, 42);
        // 10-minute run, per-minute bins.
        assert_eq!(out.figure_rows.len(), 10);
        // Load climbs during the ramp.
        let first = out.figure_rows[0].1;
        let last = out.figure_rows[9].1;
        assert!(last >= first);
    }

    #[test]
    fn injected_loss_surfaces_as_per_dp_timeouts() {
        let mut lossy = DigruberConfig::small(2, 42);
        lossy.fault_plan =
            Some(crate::faults::FaultPlan::parse("loss.client@0..600=0.4").unwrap());
        let lossy_out = run_experiment(lossy, WorkloadSpec::small(), "lossy").unwrap();
        let clean_out = small_run(2, 42);
        assert_eq!(lossy_out.timeouts_by_dp.len(), 2);
        let lossy_total: u64 = lossy_out.timeouts_by_dp.iter().sum();
        let clean_total: u64 = clean_out.timeouts_by_dp.iter().sum();
        // This is the fault layer's run-summary contract: injected message
        // loss must be visible as client timeouts in the output, per DP.
        assert!(lossy_total > 0, "40% loss produced no client timeouts");
        assert!(
            lossy_total > clean_total,
            "lossy run ({lossy_total}) not worse than clean ({clean_total})"
        );
    }

    #[test]
    fn view_staleness_reported_per_dp() {
        let multi = small_run(2, 42);
        assert_eq!(multi.max_view_staleness_ms.len(), 2);
        assert!(
            multi.max_view_staleness_ms.iter().all(|&ms| ms > 0),
            "exchanging DPs always have a non-zero merge gap: {:?}",
            multi.max_view_staleness_ms
        );
        // A single DP never merges; staleness is defined as zero.
        let single = small_run(1, 42);
        assert_eq!(single.max_view_staleness_ms, vec![0]);
    }

    #[test]
    fn partition_inflates_view_staleness() {
        let mut cfg = DigruberConfig::small(2, 42);
        cfg.fault_plan =
            Some(crate::faults::FaultPlan::parse("partition@120..480=0|1").unwrap());
        let part = run_experiment(cfg, WorkloadSpec::small(), "part").unwrap();
        let clean = small_run(2, 42);
        let worst = *part.max_view_staleness_ms.iter().max().unwrap();
        assert!(
            worst >= 360_000,
            "staleness {worst} ms under a 360 s partition"
        );
        assert!(worst > *clean.max_view_staleness_ms.iter().max().unwrap());
    }

    #[test]
    fn gt4_prerelease_is_slower_than_gt3() {
        let mut cfg3 = DigruberConfig::small(1, 5);
        cfg3.service = ServiceKind::Gt3;
        let mut cfg4 = DigruberConfig::small(1, 5);
        cfg4.service = ServiceKind::Gt4Prerelease;
        let wl = WorkloadSpec::small();
        let gt3 = run_experiment(cfg3, wl.clone(), "gt3").unwrap();
        let gt4 = run_experiment(cfg4, wl, "gt4").unwrap();
        assert!(
            gt4.report.response.mean > gt3.report.response.mean,
            "GT4-pre {} !> GT3 {}",
            gt4.report.response.mean,
            gt3.report.response.mean
        );
    }
}
