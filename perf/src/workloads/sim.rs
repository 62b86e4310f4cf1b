//! `sim-paper` and `sim-clients`: the `desim` runtime, timed from outside
//! one `RunSpec::run` call at a time.
//!
//! A repetition runs every cell of the workload once and is the unit a
//! researcher waits for, so its time is the workload's response time. The
//! repetitions of one run execute identical specs, so every cell's output
//! must keep the fingerprint it had the first time.

use super::{keep_measuring, report_layers, rss_is_due, Args, Counts, Outcome, Setups, TracedRun};
use crate::span::{Spans, ROOT};
use crate::stats::{fingerprint, Metric, Slices};
use crate::sys;
use desim::DetRng;
use digruber::config::DigruberConfig;
use digruber::{ExperimentOutput, RunSpec, ServiceKind, World};
use obs::TraceConfig;
use std::time::Instant;
use workload::uslas::equal_shares;
use workload::WorkloadSpec;

/// Decision-point counts of the paper's Figures 5-7.
const PAPER_DPS: [usize; 3] = [1, 3, 10];
/// Seeds per decision-point count in one `sim-paper` repetition.
const PAPER_SEEDS: usize = 8;
/// Submission hosts of the `sim-clients` cell and of its warm-up cell.
const CLIENTS: u32 = 500_000;
const WARM_CLIENTS: u32 = 50_000;

struct Plan {
    /// The cells of one repetition.
    cells: Vec<RunSpec>,
    /// What a set-up runs once before anything is timed.
    warm: Vec<RunSpec>,
}

fn paper(seed: u64) -> Plan {
    let mut rng = DetRng::new(seed, 0x51A1);
    let cells: Vec<RunSpec> = PAPER_DPS
        .iter()
        .flat_map(|&n_dps| (0..PAPER_SEEDS).map(move |k| (n_dps, k)))
        .map(|(n_dps, k)| {
            RunSpec::paper(
                format!("sim-paper {n_dps} DPs #{k}"),
                n_dps,
                ServiceKind::Gt3,
                rng.next_u64(),
            )
        })
        .collect();
    let warm = cells.iter().step_by(PAPER_SEEDS).cloned().collect();
    Plan { cells, warm }
}

fn clients(seed: u64) -> Plan {
    let cell = |n: u32| {
        RunSpec::new(
            format!("sim-clients {n}"),
            DigruberConfig::paper(3, ServiceKind::Gt3, seed),
            WorkloadSpec::scaled(n),
        )
    };
    Plan {
        cells: vec![cell(CLIENTS)],
        warm: vec![cell(WARM_CLIENTS)],
    }
}

/// Builds the plan from the seed, constructs every cell's world once
/// (what `RunSpec::run` does before its first event) and runs the
/// warm-up cells.
fn setup(plan_of: fn(u64) -> Plan, seed: u64) -> Plan {
    let plan = plan_of(seed);
    for spec in &plan.cells {
        World::new(spec.cfg.clone(), spec.workload.clone()).expect("valid spec");
    }
    for spec in &plan.warm {
        spec.run().expect("warm-up cell runs");
    }
    plan
}

/// Adds what one traced cell did to the layer counts.
fn count_cell(c: &mut Counts, spec: &RunSpec, out: &ExperimentOutput) {
    let Some(tl) = &out.timeline else { return };
    let legs = (spec.cfg.n_dps as u64).saturating_sub(1).max(1);
    let floods_sent = tl.sum_dp(|d| d.exchanges_out);
    c.events += out.events_executed;
    c.peak_pending = c.peak_pending.max(out.peak_pending as u64);
    c.cancellations += out.sched_cancellations;
    c.admissions += tl.totals.issued;
    c.retries += tl.totals.retries;
    c.queries += tl.sum_dp(|d| d.completed);
    c.informs += tl.totals.accepted + tl.totals.duplicates;
    c.floods_sent += floods_sent;
    c.sync_rounds += floods_sent / legs;
    c.records_flooded += tl.sum_dp(|d| d.exchange_records_out) / legs;
    c.records_in += tl.sum_dp(|d| d.exchange_records_in);
    c.records_merged += tl.sum_dp(|d| d.exchange_records_in);
    c.selects += tl.totals.answered - tl.totals.denied;
    c.jobs_dispatched += out.jobs_dispatched as u64;
    c.obs_events += tl.dropped_raw + tl.recent.len() as u64;
    // Every query, response, inform and flood leg is one WAN message.
    c.msgs_sent += tl.totals.issued
        + tl.sum_dp(|d| d.completed)
        + tl.totals.accepted
        + tl.totals.duplicates
        + floods_sent;
}

fn run(plan_of: fn(u64) -> Plan, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Setups::default();
    let plan = setups.timed(|| setup(plan_of, args.seed));
    let traced_cells: Vec<RunSpec> = plan
        .cells
        .iter()
        .map(|s| {
            let mut s = s.clone();
            s.cfg.trace = Some(TraceConfig::default());
            s
        })
        .collect();

    let mut spans = Spans::new(true, Instant::now(), 0);
    let mut slices = [Slices::default(), Slices::default()];
    let mut prints: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
    let mut counts = Counts::default();
    // Sums over the cells of one repetition: handled share, response, accuracy.
    let mut model = [0.0f64; 3];
    // The first repetition is the warm-up: it grows the heap to the
    // workload's size and is checked like the others but not timed.
    let mut warm = true;
    let mut peak_rss_mb = 0.0;
    while keep_measuring(&slices, args.seconds) {
        let rep = slices[0].len() + slices[1].len();
        let traced = args.trace && rep % 2 == 1;
        let cells = if traced { &traced_cells } else { &plan.cells };
        let rep_span = spans.enter("rep", ROOT, rep as u32);
        let mut rep_ns = 0u64;
        let mut events = 0u64;
        for (i, spec) in cells.iter().enumerate() {
            let id = spans.enter("digruber.RunSpec.run", rep_span, i as u32);
            let result = spec.run();
            rep_ns += spans.exit(id);
            let Ok(o) = result else {
                out.check(false, || format!("{}: run failed", spec.label));
                continue;
            };
            events += o.events_executed;
            let print = fingerprint(&o);
            let seen = &mut prints[usize::from(traced)];
            if seen.len() <= i {
                seen.push(print);
            }
            out.check(seen[i] == print, || {
                format!("{}: fingerprint moved between repetitions", spec.label)
            });
            out.check(
                o.report.issued > 0 && o.report.issued == o.report.answered + o.report.timed_out,
                || format!("{}: issued != answered + timed out", spec.label),
            );
            if let Some(tl) = &o.timeline {
                out.check(
                    tl.totals.events_executed == o.events_executed
                        && tl.totals.cancellations == o.sched_cancellations,
                    || format!("{}: scheduler and timeline counters differ", spec.label),
                );
            }
            if traced && !warm {
                count_cell(&mut counts, spec, &o);
            }
            if warm {
                model[0] += o.report.handled_fraction();
                model[1] += o.report.response.mean;
                model[2] += o.mean_handled_accuracy.unwrap_or(0.0);
            }
        }
        spans.exit(rep_span);
        if warm {
            warm = false;
            continue;
        }
        slices[usize::from(traced)].push(events, rep_ns as f64 / 1e9, &mut [rep_ns]);
        if rss_is_due(&slices) {
            peak_rss_mb = sys::peak_rss_mb(std::process::id());
        }
        if setups.due(&slices, args.seconds) {
            drop(setups.timed(|| setup(plan_of, args.seed)));
        }
    }
    let mean = |sum: f64, unit| Metric::one(sum / plan.cells.len() as f64, unit);
    out.notes.push(format!(
        "closed loop, 1 caller; {} cells per repetition, {} repetitions; model_fingerprint={:016x}",
        plan.cells.len(),
        slices[0].len() + slices[1].len(),
        fingerprint(&prints[0]),
    ));

    if !args.trace {
        out.end_to_end(&mut setups.times_s, &mut slices[0], peak_rss_mb);
        return out;
    }
    let run = TracedRun {
        sites: &gridemu::grid3_times(10, args.seed),
        uslas: &equal_shares(super::VOS, super::GROUPS).expect("valid shares"),
        n_dps: 3,
        pending: counts.peak_pending.max(1) as usize,
        counts,
        wall_s: slices[1].wall_s,
        peak_rss_mb,
    };
    report_layers(&mut out, args, run, &mut slices, &[spans]);
    out.put("model_handled_share", mean(model[0], "share"));
    out.put("model_response_s", mean(model[1], "s"));
    out.put("model_accuracy", mean(model[2], "share"));
    out
}

pub fn paper_run(args: &Args) -> Outcome {
    run(paper, args)
}

pub fn clients_run(args: &Args) -> Outcome {
    run(clients, args)
}
