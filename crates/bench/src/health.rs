//! The health-detection study (`experiments health`).
//!
//! PR 7's online scorer (`obs::health`) claims it notices a degrading
//! decision point *while the run is still going*. This study measures how
//! fast: each cell replays one of the fault plans from the degradation
//! (PR 3) and recovery (PR 5) studies — a partition, a lossy WAN window, a
//! service slowdown, one or two crashes — plus a clean baseline, then
//! scores the gap between the injection instant and the scorer's first
//! `Degrading` flag for the affected point. The clean cell doubles as the
//! false-positive guard: it must finish with zero flags.
//!
//! Every cell runs the scaled-down deployment
//! ([`fault_deployment`] + [`fault_workload`]; the default trace config
//! has the scorer on, 60 s windows); the sweep is snapshotted into
//! `BENCH_health.json` and the detection table is quoted by
//! OBSERVABILITY.md and EXPERIMENTS.md.

use crate::study::{
    fault_deployment, fault_workload, table, Cell, Fields, Study, PLAN_CRASH_DOUBLE,
    PLAN_CRASH_SINGLE, RUN_SECS,
};
use digruber::{ExperimentOutput, FaultPlan};
use gruber_types::DpId;
use simnet::RetryConfig;

/// The study's entry in [`crate::study::STUDIES`].
pub(crate) const STUDY: Study = Study {
    id: "health",
    schema: "digruber-bench-health/2",
    header: |fast| Fields::new().with("fast", fast).with("run_secs", RUN_SECS),
    cells,
    measure,
    render,
};

/// PR 3's partition plan, shifted to fire after the ramp: point 2 is cut
/// off from {0, 1} for the rest of the run, so only its view goes stale.
const PLAN_PARTITION: &str = "partition@240..720=0,1|2";
/// PR 3's lossy-WAN plan: 30% of every message class dropped, all run.
const PLAN_LOSS: &str = "loss@0..720=0.3";
/// PR 3's service-slowdown plan: point 1 runs 4× slower for eight minutes.
const PLAN_SLOW: &str = "slow@120..600=1x4";

/// One cell: `plan_spec` is empty for `clean`; `affected_dp` is the point
/// the fault targets, when it targets one (`None` for the clean baseline
/// and for run-wide loss, where any point may degrade first); the fault
/// comes into effect `inject_secs` into the run.
fn cell(
    seed: u64,
    fault: &str,
    plan_spec: &str,
    affected_dp: Option<u32>,
    inject_secs: u32,
    retry: RetryConfig,
) -> Cell {
    let mut cfg = fault_deployment(3, seed);
    if !plan_spec.is_empty() {
        cfg.fault_plan = Some(FaultPlan::parse(plan_spec).expect("generated plan"));
    }
    cfg.retry = retry;
    let axes = Fields::new()
        .with("fault", fault)
        .with("plan_spec", plan_spec)
        .with("affected_dp", affected_dp)
        .with("inject_secs", f64::from(inject_secs))
        .with("label", format!("health fault={fault}"));
    Cell::new(axes, cfg, fault_workload())
}

/// Builds the sweep: one cell per fault family plus the clean baseline.
/// `fast` trims to clean + crash + partition (3 cells instead of 6) for CI
/// smoke runs. The loss cell keeps the resilient retry policy the
/// degradation study pairs it with — detection must work *through* the
/// retries, not because they were turned off.
fn cells(fast: bool, seed: u64) -> Vec<Cell> {
    let none = RetryConfig::NONE;
    let mut cells = vec![
        cell(seed, "clean", "", None, 0, none),
        cell(seed, "crash-single", PLAN_CRASH_SINGLE, Some(1), 240, none),
    ];
    if !fast {
        cells.push(cell(seed, "crash-double", PLAN_CRASH_DOUBLE, Some(1), 240, none));
    }
    cells.push(cell(seed, "partition", PLAN_PARTITION, Some(2), 240, none));
    if !fast {
        cells.push(cell(seed, "loss", PLAN_LOSS, None, 0, RetryConfig::resilient()));
        cells.push(cell(seed, "slow", PLAN_SLOW, Some(1), 120, none));
    }
    cells
}

/// The detection verdict extracted from the run's [`obs::HealthReport`].
fn measure(axes: &Fields, out: &ExperimentOutput) -> Fields {
    let report = &out.timeline.as_ref().expect("health cells always trace").health;
    let inject_ms = (axes.f64("inject_secs") * 1000.0) as u64;
    let targets: Vec<DpId> = match axes.opt_u64("affected_dp") {
        Some(dp) => vec![DpId(dp as u32)],
        None => report
            .samples
            .iter()
            .map(|s| s.dp)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect(),
    };
    // The first qualifying `Degrading` flag: on the affected point (any
    // point, for cells without a single target), at or after injection.
    let first_flag_ms = targets
        .iter()
        .filter_map(|&dp| report.first_degrading_at_or_after(dp, inject_ms))
        .min();
    let min_score = report
        .samples
        .iter()
        .filter(|s| targets.contains(&s.dp))
        .map(|s| s.score)
        .min()
        .unwrap_or(100);
    let secs = |ms: u64| ms as f64 / 1000.0;
    Fields::new()
        .with("detected", first_flag_ms.is_some())
        .with("first_flag_secs", first_flag_ms.map(secs))
        // How long degradation ran unflagged.
        .with("detection_latency_secs", first_flag_ms.map(|t| secs(t - inject_ms)))
        // All flags raised over the run, on any point.
        .with("degrading_flags", report.flags.iter().filter(|f| f.degrading).count())
        .with("recovered_flags", report.flags.iter().filter(|f| !f.degrading).count())
        .with("still_degraded_at_end", report.still_degraded().len())
        // Worst windowed score the affected point(s) hit.
        .with("min_score", min_score)
}

/// Renders the detection-latency table OBSERVABILITY.md quotes: one row
/// per fault family with the injection instant, the first flag, and the
/// measured gap.
fn render(rows: &[Fields]) -> String {
    let cols = [
        ("fault", 14),
        ("inject", 8),
        ("flagged", 9),
        ("latency", 10),
        ("min score", 9),
        ("flags", 6),
        ("recovered", 9),
        ("still down", 10),
    ];
    let whole_secs = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |t| format!("{} s", t as u64));
    let lines: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let injected = !r.str("plan_spec").is_empty();
            vec![
                r.str("fault").to_string(),
                whole_secs(r.opt_f64("inject_secs").filter(|_| injected)),
                whole_secs(r.opt_f64("first_flag_secs")),
                whole_secs(r.opt_f64("detection_latency_secs")),
                r.u64("min_score").to_string(),
                r.u64("degrading_flags").to_string(),
                r.u64("recovered_flags").to_string(),
                r.u64("still_degraded_at_end").to_string(),
            ]
        })
        .collect();
    table("", &cols, &lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scorer_detects_the_fast_cells_and_stays_quiet_on_clean() {
        // The acceptance check, end-to-end on the fast sweep: the clean
        // baseline raises zero flags (no false positives), and both
        // injected faults — a crash and a partition — are flagged after
        // their injection instant with a finite latency.
        let rows: Vec<Fields> = cells(true, 7)
            .iter()
            .map(|c| {
                let out = c.spec.run().expect("cell runs");
                STUDY.row(c, &out)
            })
            .collect();
        let clean = rows.iter().find(|r| r.str("fault") == "clean").unwrap();
        assert!(!clean.bool("detected"), "clean run flagged: {clean:?}");
        assert_eq!(clean.u64("degrading_flags"), 0, "false positive: {clean:?}");
        for r in rows.iter().filter(|r| r.str("fault") != "clean") {
            assert!(r.bool("detected"), "{} not detected: {r:?}", r.str("fault"));
            let lat = r.f64("detection_latency_secs");
            assert!(
                lat < RUN_SECS as f64,
                "{}: latency {lat} s outside the run",
                r.str("fault")
            );
        }
        // The crashed point comes back and the scorer clears its flag.
        let crash = rows.iter().find(|r| r.str("fault") == "crash-single").unwrap();
        assert!(crash.u64("recovered_flags") >= 1, "no recovery flag: {crash:?}");
        assert_eq!(crash.u64("still_degraded_at_end"), 0, "flag never cleared: {crash:?}");
        let json = STUDY.json(true, &rows);
        assert!(json.contains("\"schema\": \"digruber-bench-health/2\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let table = render(&rows);
        assert!(table.contains("crash-single"));
        assert!(table.contains("partition"));
        for c in cells(false, 2005) {
            assert_eq!(
                c.axes.str("fault") == "clean",
                c.spec.cfg.fault_plan.is_none(),
                "exactly the clean cell runs fault-free"
            );
        }
    }
}
