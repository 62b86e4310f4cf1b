//! `replay-mesh`: the `grubsim` protocol replay, real `DpNode`s with no
//! scheduler, service model or threads, timed one `replay_protocol` call
//! at a time.

use super::{
    keep_measuring, report_layers, rss_is_due, Args, Counts, Outcome, Setups, TracedRun, GROUPS,
    VOS,
};
use crate::span::{Spans, ROOT};
use crate::stats::{fingerprint, Metric, Slices};
use crate::sys;
use desim::DetRng;
use diperf::RequestTrace;
use dpnode::Topology;
use gruber_types::{ClientId, DpId, SimDuration, SimTime, SiteSpec};
use grubsim::protocol::{replay_protocol, replay_protocol_traced, ProtocolReplayConfig};
use obs::{Recorder, TraceConfig};
use std::time::Instant;
use usla::UslaSet;
use workload::uslas::equal_shares;

const N_DPS: usize = 10;
const CLIENTS: usize = 120;
/// Answered trace entries replayed per repetition, over one hour.
const ENTRIES: usize = 500_000;
const HORIZON_MS: usize = 3_600_000;
/// Entries the set-up replays once before anything is timed.
const WARM_ENTRIES: usize = 20_000;

struct Inputs {
    traces: Vec<RequestTrace>,
    sites: Vec<SiteSpec>,
    uslas: UslaSet,
    cfg: ProtocolReplayConfig,
}

/// A synthetic answered trace from the seed: uniform arrivals over one
/// hour from 120 clients, each bound to one of the ten points.
fn setup(seed: u64) -> Inputs {
    let mut rng = DetRng::new(seed, 0x7ACE);
    let mut traces: Vec<RequestTrace> = (0..ENTRIES)
        .map(|_| {
            let client = rng.index(CLIENTS);
            RequestTrace::answered(
                ClientId(client as u32),
                DpId((client % N_DPS) as u32),
                SimTime(rng.index(HORIZON_MS) as u64),
                SimDuration(50 + rng.index(450) as u64),
            )
        })
        .collect();
    traces.sort_by_key(|t| t.sent_at);
    let inputs = Inputs {
        traces,
        sites: gridemu::grid3_times(10, seed),
        uslas: equal_shares(VOS, GROUPS).expect("valid shares"),
        cfg: ProtocolReplayConfig {
            n_dps: N_DPS,
            topology: Topology::FullMesh,
            sync_interval: SimDuration::from_secs(180),
            job_runtime: SimDuration::from_secs(2400),
            seed,
            persist: false,
            snapshot_records: 0,
            crash: None,
        },
    };
    let warm = &inputs.traces[..WARM_ENTRIES];
    replay_protocol(warm, &inputs.sites, &inputs.uslas, inputs.cfg);
    inputs
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Setups::default();
    let inputs = setups.timed(|| setup(args.seed));
    let Inputs {
        traces,
        sites,
        uslas,
        cfg,
    } = &inputs;
    let entries = traces.len() as u64;

    let mut spans = Spans::new(true, Instant::now(), 0);
    let mut slices = [Slices::default(), Slices::default()];
    let mut counts = Counts::default();
    let mut recoveries = 0u64;
    let mut first_print = None;
    let mut rep = 0u32;
    let mut peak_rss_mb = 0.0;
    while keep_measuring(&slices, args.seconds) {
        let traced = args.trace && rep % 2 == 1;
        let recorder = if traced {
            Recorder::new(TraceConfig::default())
        } else {
            Recorder::OFF
        };
        let id = spans.enter("grubsim.replay_protocol", ROOT, rep);
        let report = replay_protocol_traced(traces, sites, uslas, *cfg, &recorder);
        let took = spans.exit(id);
        slices[usize::from(traced)].push(entries, took as f64 / 1e9, &mut [took]);
        rep += 1;
        if rss_is_due(&slices) {
            peak_rss_mb = sys::peak_rss_mb(std::process::id());
        }

        let merged: u64 = report.per_dp.iter().map(|d| d.records_merged).sum();
        out.check(report.converged, || "views did not converge".into());
        out.check(
            report.queries_replayed == entries && report.informs_replayed == entries,
            || "not every trace entry was replayed".into(),
        );
        out.check(merged == entries * (N_DPS as u64 - 1), || {
            format!("records merged {merged} != informs x (n-1)")
        });
        let print = fingerprint(&report);
        out.check(*first_print.get_or_insert(print) == print, || {
            "report moved between repetitions".into()
        });
        if traced {
            let sum = |f: fn(&dpnode::DpNodeStats) -> u64| report.per_dp.iter().map(f).sum::<u64>();
            counts.queries += sum(|d| d.queries);
            counts.informs += sum(|d| d.informs);
            counts.sync_rounds += sum(|d| d.sync_rounds);
            counts.floods_sent += sum(|d| d.floods_sent);
            counts.records_flooded += sum(|d| d.records_flooded);
            counts.records_in += sum(|d| d.records_flooded) * (N_DPS as u64 - 1);
            counts.records_merged += merged;
            counts.wal_records_replayed += report.wal_records_replayed;
            recoveries += report.recoveries;
            if let Some(tl) = recorder.finish(SimTime(HORIZON_MS as u64)) {
                counts.obs_events += tl.dropped_raw + tl.recent.len() as u64;
            }
        }
        if setups.due(&slices, args.seconds) {
            drop(setups.timed(|| setup(args.seed)));
        }
    }
    out.notes.push(format!(
        "closed loop, 1 caller; {entries} trace entries per repetition, {rep} repetitions; \
         model_fingerprint={:016x}",
        first_print.unwrap_or(0)
    ));

    if !args.trace {
        out.end_to_end(&mut setups.times_s, &mut slices[0], peak_rss_mb);
        return out;
    }
    let informs = counts.informs;
    let run = TracedRun {
        sites,
        uslas,
        n_dps: N_DPS,
        pending: super::NO_SCHEDULER_PENDING,
        counts,
        wall_s: slices[1].wall_s,
        peak_rss_mb,
    };
    report_layers(&mut out, args, run, &mut slices, &[spans]);
    out.put("grubsim.informs_replayed", Metric::count(informs));
    out.put("grubsim.recoveries", Metric::count(recoveries));
    out
}
