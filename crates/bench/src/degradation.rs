//! The graceful-degradation study (`experiments degradation`).
//!
//! Three sweep families probe how DI-GRUBER's brokering quality decays
//! under injected faults (see FAULTS.md for the operator view):
//!
//! * **loss** — message-loss rate × decision-point count, fire-and-forget
//!   senders (the paper's behaviour): how fast do accuracy and queue time
//!   decay when the WAN drops traffic?
//! * **partition** — a mid-run partition isolating one decision point,
//!   duration × decision-point count: does a larger mesh tolerate a
//!   partition better (the paper's distribution argument)?
//! * **policy** — retry policy comparison at a fixed loss rate: what do
//!   retransmissions buy back?
//!
//! Every cell runs the scaled-down deployment
//! ([`fault_deployment`] + [`fault_workload`]), so each run yields a
//! timeline alongside its metrics; the whole sweep is snapshotted into
//! `BENCH_degradation.json`.

use crate::study::{fault_deployment, fault_workload, table, Cell, Fields, Study, RUN_SECS};
use digruber::{ExperimentOutput, FaultPlan};
use gruber_types::SimDuration;
use simnet::{RetryConfig, RetryPolicy};

/// The study's entry in [`crate::study::STUDIES`].
pub(crate) const STUDY: Study = Study {
    id: "degradation",
    schema: "digruber-bench-degradation/2",
    header: |fast| Fields::new().with("fast", fast),
    cells,
    measure,
    render,
};

/// Partition windows open mid-run, after the DiPerF ramp has populated
/// the views.
const PARTITION_START_SECS: u64 = 240;

/// One cell: `policy` is the retry policy's name (`none` / `fixed` /
/// `expjitter`), applied to queries and exchanges alike; `plan` the fault
/// plan, if the cell injects one.
fn cell(
    seed: u64,
    family: &str,
    n_dps: usize,
    loss: f64,
    partition_secs: u64,
    (policy, retry): (&str, RetryConfig),
    plan: Option<String>,
) -> Cell {
    let mut cfg = fault_deployment(n_dps, seed);
    cfg.fault_plan = plan.map(|p| FaultPlan::parse(&p).expect("generated plan"));
    cfg.retry = retry;
    let label = match family {
        "loss" => format!("loss={loss} dps={n_dps}"),
        "partition" => format!("partition={partition_secs}s dps={n_dps}"),
        _ => format!("policy={policy} loss={loss} dps={n_dps}"),
    };
    let axes = Fields::new()
        .with("family", family)
        .with("label", label)
        .with("n_dps", n_dps)
        .with("loss", loss)
        .with("partition_secs", partition_secs)
        .with("policy", policy);
    Cell::new(axes, cfg, fault_workload())
}

/// Builds the sweep. `fast` trims each axis to its ends for CI smoke runs
/// (4 + 4 + 2 = 10 cells instead of 12 + 9 + 3 = 24).
fn cells(fast: bool, seed: u64) -> Vec<Cell> {
    let (losses, dps): (&[f64], &[usize]) = if fast {
        (&[0.0, 0.2], &[1, 3])
    } else {
        (&[0.0, 0.1, 0.2, 0.3], &[1, 3, 10])
    };
    let none = ("none", RetryConfig::NONE);
    let mut cells = Vec::new();

    for &n in dps {
        for &p in losses {
            let plan = (p > 0.0).then(|| format!("loss@0..{RUN_SECS}={p}"));
            cells.push(cell(seed, "loss", n, p, 0, none, plan));
        }
    }

    let durations: &[u64] = if fast { &[0, 120] } else { &[0, 120, 300] };
    for &n in dps {
        for &d in durations {
            // A single point has no peer to be partitioned from — its
            // row is the unperturbed baseline at every duration, which is
            // exactly the comparison the study wants to show.
            let plan = (d > 0 && n > 1).then(|| {
                let rest: Vec<String> = (1..n).map(|i| i.to_string()).collect();
                format!(
                    "partition@{PARTITION_START_SECS}..{}=0|{}",
                    PARTITION_START_SECS + d,
                    rest.join(",")
                )
            });
            cells.push(cell(seed, "partition", n, 0.0, d, none, plan));
        }
    }

    let fixed = RetryPolicy::Fixed {
        interval: SimDuration::from_millis(500),
        max_retries: 3,
    };
    let policies = [
        none,
        ("fixed", RetryConfig { query: fixed, exchange: fixed }),
        ("expjitter", RetryConfig::resilient()),
    ];
    for policy in policies.into_iter().filter(|p| !(fast && p.0 == "fixed")) {
        let plan = format!("loss@0..{RUN_SECS}=0.2");
        cells.push(cell(seed, "policy", 3, 0.2, 0, policy, Some(plan)));
    }

    cells
}

/// The degradation-relevant slice of a finished (traced) cell run.
fn measure(_axes: &Fields, out: &ExperimentOutput) -> Fields {
    let totals = &out
        .timeline
        .as_ref()
        .expect("degradation cells always trace")
        .totals;
    Fields::new()
        // Mean scheduling accuracy over handled placements, if any were.
        .with("accuracy", out.mean_handled_accuracy)
        // Mean job queue time, all jobs.
        .with("qtime_secs", out.table.all.qtime_secs)
        .with("handled_fraction", out.report.handled_fraction())
        .with("mean_response_secs", out.report.response.mean)
        // Client-visible timeouts, summed over decision points.
        .with("timeouts", out.timeouts_by_dp.iter().sum::<u64>())
        // Worst view staleness over the run (max over decision points).
        .with("max_staleness_ms", out.max_view_staleness_ms.iter().copied().max().unwrap_or(0))
        .with("msgs_lost", totals.msgs_lost)
        .with("retries", totals.retries)
        .with("retries_exhausted", totals.retries_exhausted)
        // Exchange floods blocked at partition boundaries.
        .with("partition_drops", totals.partition_drops)
}

fn accuracy(r: &Fields) -> String {
    r.opt_f64("accuracy").map_or_else(|| "n/a".to_string(), |a| format!("{a:.3}"))
}

/// One pivot block: a row per distinct `key` of the `family` cells, a
/// column per decision-point count, each value `accuracy / qtime` (the two
/// headline metrics).
fn pivot(rows: &[Fields], family: &str, axis: &str, key: fn(&Fields) -> u64, show: fn(u64) -> String) -> String {
    let of_family = || rows.iter().filter(|r| r.str("family") == family);
    let mut dps: Vec<u64> = rows.iter().map(|r| r.u64("n_dps")).collect();
    dps.sort_unstable();
    dps.dedup();
    let mut keys: Vec<u64> = of_family().map(key).collect();
    keys.sort_unstable();
    keys.dedup();
    let mut cols = vec![(axis.to_string(), 10)];
    cols.extend(dps.iter().map(|n| (format!("{n} DP(s)"), 16)));
    let lines: Vec<Vec<String>> = keys
        .iter()
        .map(|&k| {
            let mut line = vec![show(k)];
            line.extend(dps.iter().map(|&n| {
                of_family()
                    .find(|r| r.u64("n_dps") == n && key(r) == k)
                    .map_or_else(
                        || "--".to_string(),
                        |r| format!("{} / {:>6.1}s", accuracy(r), r.f64("qtime_secs")),
                    )
            }));
            line
        })
        .collect();
    table("  ", &cols, &lines)
}

/// Renders the headline tables (the ones FAULTS.md quotes): accuracy and
/// mean queue time vs. loss rate and vs. partition duration, per
/// decision-point count, plus the retry-policy comparison.
fn render(rows: &[Fields]) -> String {
    let mut s = String::from("loss sweep (accuracy / mean qtime; fire-and-forget):\n");
    s += &pivot(
        rows,
        "loss",
        "loss",
        |r| (r.f64("loss") * 1000.0).round() as u64,
        |permille| format!("{:.1}%", permille as f64 / 10.0),
    );
    s += "partition sweep (accuracy / mean qtime; DP 0 isolated):\n";
    s += &pivot(rows, "partition", "duration", |r| r.u64("partition_secs"), |d| format!("{d}s"));
    s += "retry policies @ 20% loss, 3 DPs:\n";
    let cols = [("policy", 10), ("handled", 9), ("timeouts", 9), ("retries", 9), ("gave up", 9), ("accuracy", 9)];
    let lines: Vec<Vec<String>> = rows
        .iter()
        .filter(|r| r.str("family") == "policy")
        .map(|r| {
            vec![
                r.str("policy").to_string(),
                format!("{:.1}%", r.f64("handled_fraction") * 100.0),
                r.u64("timeouts").to_string(),
                r.u64("retries").to_string(),
                r.u64("retries_exhausted").to_string(),
                accuracy(r),
            ]
        })
        .collect();
    s + &table("  ", &cols, &lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_tables_render_from_a_fast_cell() {
        // One cheap lossy cell end-to-end: run it, extract the row, and
        // check both emitters mention it.
        let lossy = cells(true, 7)
            .into_iter()
            .find(|c| {
                c.axes.str("family") == "loss" && c.axes.f64("loss") > 0.0 && c.axes.u64("n_dps") == 1
            })
            .expect("fast sweep has a lossy 1-DP cell");
        let out = lossy.spec.run().expect("cell runs");
        let row = STUDY.row(&lossy, &out);
        assert!(row.u64("msgs_lost") > 0, "20% loss must drop transmissions");
        assert!(row.u64("timeouts") > 0, "loss must surface as client timeouts");
        let rows = [row];
        let json = STUDY.json(true, &rows);
        assert!(json.contains("\"schema\": \"digruber-bench-degradation/2\""));
        assert!(json.contains("\"family\": \"loss\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let table = render(&rows);
        assert!(table.contains("loss sweep"));
        assert!(table.contains("retry policies"));
        // The full sweep exercises every family and every retry policy.
        let cells = cells(false, 2005);
        for family in ["loss", "partition", "policy"] {
            assert!(cells.iter().any(|c| c.axes.str("family") == family));
        }
        for policy in ["none", "fixed", "expjitter"] {
            assert!(cells.iter().any(|c| c.axes.str("policy") == policy));
        }
    }
}
