//! The crash-recovery study (`experiments recovery`).
//!
//! PR 3's degradation study showed what a crash *costs* when a restarted
//! decision point rejoins empty (the `EmptyRejoin` baseline: its view is
//! stale until peers re-flood state organically). This study measures what
//! dpstore persistence buys back: each cell crashes one or two decision
//! points mid-run and restores them either empty or from WAL + snapshot,
//! sweeping the snapshot interval to expose the replay-length/snapshot-cost
//! trade (see FAULTS.md § Crash recovery for the operator view).
//!
//! Every cell runs the scaled-down deployment
//! ([`fault_deployment`] + [`fault_workload`]); the whole sweep is
//! snapshotted into `BENCH_recovery.json`.

use crate::study::{
    fault_deployment, fault_workload, table, Cell, Fields, Study, PLAN_CRASH_DOUBLE,
    PLAN_CRASH_SINGLE, RUN_SECS,
};
use digruber::config::{PersistenceConfig, RecoveryMode};
use digruber::{ExperimentOutput, FaultPlan};
use dpstore::SnapshotPolicy;
use gruber_types::SimDuration;

/// The study's entry in [`crate::study::STUDIES`].
pub(crate) const STUDY: Study = Study {
    id: "recovery",
    schema: "digruber-bench-recovery/2",
    header: |fast| Fields::new().with("fast", fast).with("run_secs", RUN_SECS),
    cells,
    measure,
    render,
};

/// One cell: crash plan `plan` (its spec `plan_spec`), restored `empty` or
/// from `persist`ence snapshotting every `snapshot_records` WAL records
/// (0 = never snapshot; only meaningful for `persist`).
fn cell(seed: u64, plan: &str, plan_spec: &str, mode: &str, snapshot_records: u32) -> Cell {
    let mut cfg = fault_deployment(3, seed);
    cfg.fault_plan = Some(FaultPlan::parse(plan_spec).expect("generated plan"));
    cfg.persistence = match mode {
        "empty" => PersistenceConfig {
            mode: RecoveryMode::EmptyRejoin,
            policy: SnapshotPolicy::DISABLED,
        },
        "persist" => PersistenceConfig {
            mode: RecoveryMode::Persist,
            policy: SnapshotPolicy {
                every_records: snapshot_records,
                every: SimDuration::ZERO,
            },
        },
        other => unreachable!("unknown recovery mode {other}"),
    };
    let axes = Fields::new()
        .with("plan", plan)
        .with("plan_spec", plan_spec)
        .with("mode", mode)
        .with("snapshot_records", snapshot_records)
        .with("label", format!("recovery plan={plan} {}", mode_name(mode, snapshot_records)));
    Cell::new(axes, cfg, fault_workload())
}

fn mode_name(mode: &str, snapshot_records: impl std::fmt::Display) -> String {
    if mode == "persist" {
        format!("persist@{snapshot_records}")
    } else {
        mode.to_string()
    }
}

/// Builds the sweep: crash plan × recovery mode, with the snapshot
/// interval swept for the persist rows. `fast` trims to one plan and one
/// interval (2 cells instead of 8) for CI smoke runs.
fn cells(fast: bool, seed: u64) -> Vec<Cell> {
    let plans: &[(&str, &str)] = if fast {
        &[("single", PLAN_CRASH_SINGLE)]
    } else {
        &[("single", PLAN_CRASH_SINGLE), ("double", PLAN_CRASH_DOUBLE)]
    };
    let intervals: &[u32] = if fast { &[64] } else { &[1, 64, 512] };
    let mut cells = Vec::new();
    for &(plan, spec) in plans {
        cells.push(cell(seed, plan, spec, "empty", 0));
        for &n in intervals {
            cells.push(cell(seed, plan, spec, "persist", n));
        }
    }
    cells
}

/// The recovery-relevant slice of a finished cell run.
fn measure(_axes: &Fields, out: &ExperimentOutput) -> Fields {
    Fields::new()
        // Crash restorations performed.
        .with("recoveries", out.recoveries)
        // WAL records replayed into fresh nodes across all recoveries.
        .with("wal_records_replayed", out.wal_records_replayed)
        // Slowest single recovery (modeled store I/O + replay).
        .with("max_recovery_ms", out.max_recovery_ms)
        // Worst view staleness over the run (max over decision points).
        .with("max_staleness_ms", out.max_view_staleness_ms.iter().copied().max().unwrap_or(0))
        .with("accuracy", out.mean_handled_accuracy)
        .with("handled_fraction", out.report.handled_fraction())
        // Client-visible timeouts, summed over decision points.
        .with("timeouts", out.timeouts_by_dp.iter().sum::<u64>())
}

/// Renders the headline table FAULTS.md quotes: per crash plan, one row
/// per recovery mode with staleness, replay length, recovery time, and
/// the client-visible metrics.
fn render(rows: &[Fields]) -> String {
    let cols = [
        ("mode", 12),
        ("recovered", 9),
        ("replayed", 9),
        ("recovery", 11),
        ("staleness", 12),
        ("handled", 8),
        ("accuracy", 8),
    ];
    let mut plans: Vec<&str> = rows.iter().map(|r| r.str("plan")).collect();
    plans.dedup();
    let mut s = String::new();
    for plan in plans {
        let of_plan: Vec<&Fields> = rows.iter().filter(|r| r.str("plan") == plan).collect();
        s += &format!("crash plan {plan} ({}):\n", of_plan[0].str("plan_spec"));
        let lines: Vec<Vec<String>> = of_plan
            .iter()
            .map(|r| {
                vec![
                    mode_name(r.str("mode"), r.u64("snapshot_records")),
                    r.u64("recoveries").to_string(),
                    r.u64("wal_records_replayed").to_string(),
                    format!("{}ms", r.u64("max_recovery_ms")),
                    format!("{}ms", r.u64("max_staleness_ms")),
                    format!("{:.1}%", r.f64("handled_fraction") * 100.0),
                    r.opt_f64("accuracy").map_or_else(|| "n/a".to_string(), |a| format!("{a:.3}")),
                ]
            })
            .collect();
        s += &table("  ", &cols, &lines);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn persistence_beats_empty_rejoin_on_staleness() {
        // The acceptance check, end-to-end on the fast sweep: with
        // persistence on, the restarted point resumes from WAL + snapshot
        // and its worst-case view staleness stays strictly below the
        // empty-rejoin baseline (whose fresh engine has never merged).
        let rows: Vec<Fields> = cells(true, 7)
            .iter()
            .map(|c| {
                let out = c.spec.run().expect("cell runs");
                STUDY.row(c, &out)
            })
            .collect();
        let empty = rows.iter().find(|r| r.str("mode") == "empty").unwrap();
        let persist = rows.iter().find(|r| r.str("mode") == "persist").unwrap();
        assert_eq!(empty.u64("recoveries"), 1);
        assert_eq!(persist.u64("recoveries"), 1);
        assert_eq!(empty.u64("wal_records_replayed"), 0);
        assert!(persist.u64("wal_records_replayed") > 0, "{persist:?}");
        assert!(persist.u64("max_recovery_ms") > 0, "{persist:?}");
        assert!(
            persist.u64("max_staleness_ms") < empty.u64("max_staleness_ms"),
            "persistence did not reduce staleness: {} vs {}",
            persist.u64("max_staleness_ms"),
            empty.u64("max_staleness_ms")
        );
        let json = STUDY.json(true, &rows);
        assert!(json.contains("\"schema\": \"digruber-bench-recovery/2\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let table = render(&rows);
        assert!(table.contains("crash plan single"));
        assert!(table.contains("persist@64"));
        // The full sweep crashes every cell, in both modes and both plans.
        let cells = cells(false, 2005);
        for c in &cells {
            assert!(c.spec.cfg.fault_plan.is_some(), "cells must crash");
        }
        for mode in ["empty", "persist"] {
            assert!(cells.iter().any(|c| c.axes.str("mode") == mode));
        }
        for plan in ["single", "double"] {
            assert!(cells.iter().any(|c| c.axes.str("plan") == plan));
        }
    }
}
