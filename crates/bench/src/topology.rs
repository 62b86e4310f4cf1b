//! The topology × elasticity study (`experiments topology`).
//!
//! Two cell families, one snapshot:
//!
//! * **Sweep cells** run a *static* pool under each exchange topology —
//!   full mesh (the paper), ring, hierarchical, hybrid epidemic — at
//!   several pool sizes including one at 100+ decision points. Each cell
//!   pins the accuracy-vs-staleness trade the topology buys: the worst
//!   view-staleness gap any point saw, the mean scheduling accuracy over
//!   handled placements, and the topology's deterministic convergence
//!   bound ([`dpnode::convergence_bound`]) for context. Per-point load is
//!   held constant across cells (clients scale with the pool), so the
//!   topology axis is the only thing moving inside one pool size.
//!
//! * **Scenario cells** run the *elastic* pool (PR 10's `membership`
//!   subsystem) through the scenario pack: a flash crowd slamming a
//!   2-point pool, a diurnal ramp-hold-drain, and a regional outage
//!   crashing a slice of a 100-point pool. Their rows pin the autoscaler
//!   and re-homing reaction — joins, drain-and-leaves, clients re-homed —
//!   and every counter must reconcile ±0 against the traced timeline's
//!   totals (`measure` panics otherwise).
//!
//! Every cell runs traced. The sweep is snapshotted into
//! `BENCH_topology.json`, which — like every study document (see
//! [`crate::study`]) — depends only on the cell outputs, so CI diffs it
//! byte-for-byte across worker counts.

use crate::study::{fault_deployment, table, Cell, Fields, Study, RUN_SECS};
use digruber::config::SyncTopology;
use digruber::{ExperimentOutput, FaultPlan, ScalerConfig};
use gruber_types::SimDuration;
use workload::WorkloadSpec;

/// The study's entry in [`crate::study::STUDIES`].
pub(crate) const STUDY: Study = Study {
    id: "topology",
    schema: "digruber-bench-topology/1",
    header: |fast| {
        Fields::new().with("fast", fast).with("run_secs", RUN_SECS).with("sync_secs", SYNC_SECS)
    },
    cells,
    measure,
    render,
};

/// Exchange interval for the sweep cells: one minute, so a 12-minute run
/// gives every topology 12 rounds to converge in (the paper's 3-minute
/// interval would leave only 4).
const SYNC_SECS: u64 = 60;

/// The topology axis: label + protocol-level topology. Parameters are
/// fixed (ternary tree, fanout-2 hybrid) so a cell is identified by its
/// label alone.
pub(crate) const TOPOLOGIES: [(&str, SyncTopology); 4] = [
    ("full-mesh", SyncTopology::FullMesh),
    ("ring", SyncTopology::Ring),
    ("hierarchical", SyncTopology::Hierarchical { branching: 3 }),
    ("hybrid-epidemic", SyncTopology::HybridEpidemic { fanout: 2 }),
];

/// The axes shared by both families: `family` is `"sweep"` (static pool,
/// topology axis) or `"scenario"` (elastic pool, membership on; always the
/// paper's full mesh, `scenario` names it); `n_dps` counts the points at
/// the start of the run; `convergence_rounds` is the deterministic
/// worst-case exchange rounds to full convergence (`null` only for
/// topologies without a bound; every swept topology has one).
fn axes(family: &str, topo: (&str, SyncTopology), n_dps: usize, n_clients: u32, scenario: Option<&str>, label: String) -> Fields {
    Fields::new()
        .with("family", family)
        .with("topology", topo.0)
        .with("n_dps", n_dps)
        .with("n_clients", n_clients)
        .with("scenario", scenario)
        .with("convergence_rounds", dpnode::convergence_bound(topo.1, n_dps))
        .with("label", label)
}

fn sweep_cell(seed: u64, topo: (&'static str, SyncTopology), n_dps: usize) -> Cell {
    let mut cfg = fault_deployment(n_dps, seed);
    cfg.topology = topo.1;
    cfg.sync_interval = SimDuration::from_secs(SYNC_SECS);
    // Hold per-point load constant across pool sizes: three closed-loop
    // clients per decision point (floored so the smallest pools still
    // produce enough placements for a stable accuracy figure).
    let n_clients = (3 * n_dps).max(60) as u32;
    let wl = WorkloadSpec {
        n_clients,
        duration: SimDuration::from_secs(RUN_SECS),
        ..WorkloadSpec::paper_default()
    };
    let label = format!("topology: {} {n_dps} DPs", topo.0);
    Cell::new(axes("sweep", topo, n_dps, n_clients, None, label), cfg, wl)
}

fn scenario_cell(
    seed: u64,
    scenario: &'static str,
    n_dps: usize,
    wl: WorkloadSpec,
    scaler: ScalerConfig,
    plan: Option<FaultPlan>,
) -> Cell {
    let mut cfg = fault_deployment(n_dps, seed);
    cfg.fault_plan = plan;
    cfg.membership = Some(scaler);
    let label = format!("membership: {scenario} {n_dps} DPs");
    Cell::new(axes("scenario", TOPOLOGIES[0], n_dps, wl.n_clients, Some(scenario), label), cfg, wl)
}

/// A flash crowd slamming a two-point pool: the whole population arrives
/// in the first ~36 s, the backlog explodes, and the autoscaler must grow
/// the pool through joins + re-homing.
fn flash_crowd_cell(seed: u64) -> Cell {
    scenario_cell(
        seed,
        "flash-crowd",
        2,
        WorkloadSpec {
            duration: SimDuration::from_secs(RUN_SECS),
            ..WorkloadSpec::flash_crowd(240)
        },
        ScalerConfig {
            grow_backlog: 8,
            shrink_backlog: 0,
            grow_windows: 2,
            shrink_windows: 8,
            cooldown: 2,
            min_dps: 2,
            max_dps: 12,
        },
        None,
    )
}

/// A diurnal ramp-hold-drain over a three-point pool: one grow phase on
/// the ramp, one shrink phase on the drain tail.
fn diurnal_cell(seed: u64) -> Cell {
    scenario_cell(
        seed,
        "diurnal",
        3,
        WorkloadSpec {
            duration: SimDuration::from_secs(RUN_SECS),
            ..WorkloadSpec::diurnal(120)
        },
        ScalerConfig {
            grow_backlog: 8,
            shrink_backlog: 1,
            grow_windows: 2,
            shrink_windows: 3,
            cooldown: 1,
            min_dps: 3,
            max_dps: 10,
        },
        None,
    )
}

/// A regional outage over a wide pool: `crashed` consecutive points go
/// dark at t=240 s for four minutes. Backlog stays flat (the pool is
/// heavily over-provisioned for the load), so growth can only come from
/// the health scorer's degraded flags — this is the cell that measures
/// the `obs`-driven half of the autoscaler at 100+ points.
fn outage_cell(seed: u64, n_dps: usize, crashed: usize) -> Cell {
    let first = n_dps / 2;
    let plan_spec = (first..first + crashed)
        .map(|dp| format!("crash@240={dp}+240"))
        .collect::<Vec<_>>()
        .join("; ");
    scenario_cell(
        seed,
        "regional-outage",
        n_dps,
        WorkloadSpec {
            n_clients: (3 * n_dps) as u32,
            duration: SimDuration::from_secs(RUN_SECS),
            ..WorkloadSpec::paper_default()
        },
        ScalerConfig {
            // Degraded flags are the intended grow signal; the backlog
            // threshold is set beyond anything this load can queue.
            grow_backlog: 500,
            shrink_backlog: 0,
            grow_windows: 2,
            shrink_windows: 16,
            cooldown: 2,
            min_dps: n_dps as u32,
            max_dps: (n_dps + 8) as u32,
        },
        Some(FaultPlan::parse(&plan_spec).expect("generated plan")),
    )
}

/// Builds the study: the topology × pool-size sweep plus the scenario
/// pack. `fast` trims the sweep to its two small pool sizes and the
/// outage to a 12-point pool (CI smoke); the full study runs pool sizes
/// {4, 12, 100} and the outage at 100 points.
fn cells(fast: bool, seed: u64) -> Vec<Cell> {
    let dp_counts: &[usize] = if fast { &[4, 12] } else { &[4, 12, 100] };
    let mut cells = Vec::new();
    for &n in dp_counts {
        for topo in TOPOLOGIES {
            cells.push(sweep_cell(seed, topo, n));
        }
    }
    cells.push(flash_crowd_cell(seed));
    if fast {
        cells.push(outage_cell(seed, 12, 2));
    } else {
        cells.push(diurnal_cell(seed));
        cells.push(outage_cell(seed, 100, 5));
    }
    cells
}

/// The measured verdict of a finished cell run, reconciling the
/// membership counters against the structured timeline. Panics on a
/// nonzero delta: a join the trace stream did not see (or vice versa) is
/// not a measurement, it is a bug.
fn measure(_axes: &Fields, out: &ExperimentOutput) -> Fields {
    let totals = &out
        .timeline
        .as_ref()
        .expect("topology cells always trace")
        .totals;
    let (dp_joins, dp_leaves) = (out.reconfig_log.len() as u64, out.retire_log.len() as u64);
    let join_delta = dp_joins as i64 - totals.dp_joins as i64;
    let leave_delta = dp_leaves as i64 - totals.dp_leaves as i64;
    let rehome_delta = out.clients_rehomed as i64 - totals.clients_rehomed as i64;
    assert_eq!(
        join_delta, 0,
        "{}: run summary saw {dp_joins} joins, timeline {}",
        out.label, totals.dp_joins
    );
    assert_eq!(
        leave_delta, 0,
        "{}: run summary saw {dp_leaves} leaves, timeline {}",
        out.label, totals.dp_leaves
    );
    assert_eq!(
        rehome_delta, 0,
        "{}: run summary saw {} re-homings, timeline {}",
        out.label, out.clients_rehomed, totals.clients_rehomed
    );
    // Worst view-staleness gap any decision point saw.
    let max_staleness_ms = out.max_view_staleness_ms.iter().copied().max().unwrap_or(0);
    Fields::new()
        .with("accuracy", out.mean_handled_accuracy)
        .with("max_staleness_secs", max_staleness_ms as f64 / 1000.0)
        .with("handled_fraction", out.report.handled_fraction())
        .with("peak_qps", out.report.peak_throughput_qps)
        // Decision points at the end of the run.
        .with("final_dps", out.final_dps)
        // Elastic joins / drain-and-leaves executed (0 for sweep cells).
        .with("dp_joins", dp_joins)
        .with("dp_leaves", dp_leaves)
        // Clients moved by consistent-hash re-homing.
        .with("clients_rehomed", out.clients_rehomed)
        .with("join_delta", join_delta)
        .with("leave_delta", leave_delta)
        .with("rehome_delta", rehome_delta)
}

/// Renders the headline table EXPERIMENTS.md quotes: the sweep block
/// (accuracy vs staleness vs convergence bound per topology × pool
/// size), then the scenario block (autoscaler + re-homing reaction).
fn render(rows: &[Fields]) -> String {
    let cols = [
        ("cell", 16),
        ("DPs", 4),
        ("conv", 5),
        ("staleness", 9),
        ("accuracy", 8),
        ("handled", 7),
        ("final", 5),
        ("joins", 6),
        ("leaves", 7),
        ("rehomed", 7),
        ("reconcile", 9),
    ];
    let lines: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let reconciled = ["join_delta", "leave_delta", "rehome_delta"].iter().all(|d| r.i64(d) == 0);
            vec![
                r.opt_str("scenario").unwrap_or(r.str("topology")).to_string(),
                r.u64("n_dps").to_string(),
                r.opt_u64("convergence_rounds").map_or_else(|| "-".to_string(), |c| c.to_string()),
                format!("{} s", r.f64("max_staleness_secs") as u64),
                r.opt_f64("accuracy").map_or_else(|| "-".to_string(), |a| format!("{:.1}%", a * 100.0)),
                format!("{:.1}%", r.f64("handled_fraction") * 100.0),
                r.u64("final_dps").to_string(),
                r.u64("dp_joins").to_string(),
                r.u64("dp_leaves").to_string(),
                r.u64("clients_rehomed").to_string(),
                if reconciled { "±0" } else { "BROKEN" }.to_string(),
            ]
        })
        .collect();
    table("", &cols, &lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{default_jobs, run_specs};
    use digruber::RunSpec;
    use gruber_types::SimTime;

    /// The first membership event of a traced scenario run, for eyeballing
    /// reaction time: `(at, kind)` of the earliest join or leave, if any.
    fn first_pool_change(out: &ExperimentOutput) -> Option<(SimTime, &'static str)> {
        let join = out.reconfig_log.first().map(|&(at, _)| (at, "join"));
        let leave = out.retire_log.first().map(|&(at, _)| (at, "leave"));
        match (join, leave) {
            (Some(j), Some(l)) => Some(if j.0 <= l.0 { j } else { l }),
            (j, l) => j.or(l),
        }
    }

    #[test]
    fn sweep_cell_measures_staleness_against_the_bound() {
        // Ring at 4 points: the bound is 3 rounds and the run must
        // produce a staleness figure, an accuracy figure, and a clean
        // reconciliation (no membership events on a static pool).
        let cell = sweep_cell(7, TOPOLOGIES[1], 4);
        assert_eq!(cell.axes.opt_u64("convergence_rounds"), Some(3));
        let out = cell.spec.run().expect("sweep cell runs");
        let row = STUDY.row(&cell, &out);
        assert!(row.f64("max_staleness_secs") > 0.0, "exchanging pool never went stale");
        assert!(row.opt_f64("accuracy").is_some(), "no handled placements");
        assert_eq!(row.u64("dp_joins") + row.u64("dp_leaves") + row.u64("clients_rehomed"), 0);
        assert_eq!(row.u64("final_dps"), 4);
        let rows = [row];
        let json = STUDY.json(true, &rows);
        assert!(json.contains("\"schema\": \"digruber-bench-topology/1\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let table = render(&rows);
        assert!(table.contains("ring"));
        for fast in [false, true] {
            let cells = cells(fast, 2005);
            for c in &cells {
                let family = c.axes.str("family");
                assert_eq!(
                    family == "scenario",
                    c.spec.cfg.membership.is_some(),
                    "exactly the scenario cells run elastic"
                );
                if family == "sweep" {
                    assert!(
                        c.axes.opt_u64("convergence_rounds").is_some(),
                        "every swept topology has a deterministic bound"
                    );
                }
            }
            // The full sweep measures a 100+ point pool; fast trims it.
            let widest = cells.iter().map(|c| c.axes.u64("n_dps")).max().unwrap();
            assert_eq!(widest >= 100, !fast);
        }
    }

    #[test]
    fn flash_crowd_grows_the_pool_and_rehomes_clients() {
        // The acceptance check on the elastic half, end-to-end: a flash
        // crowd on two points must drive autoscaler joins, consistent-hash
        // re-homing, and counters that reconcile ±0 with the timeline
        // (measure asserts the deltas).
        let cell = flash_crowd_cell(7);
        let out = cell.spec.run().expect("flash-crowd cell runs");
        let row = STUDY.row(&cell, &out);
        assert!(row.u64("dp_joins") >= 1, "flash crowd never grew the pool: {row:?}");
        assert!(row.u64("clients_rehomed") >= 1, "joins re-homed nobody: {row:?}");
        assert_eq!(row.u64("final_dps"), 2 + row.u64("dp_joins") - row.u64("dp_leaves"));
        let (at, kind) = first_pool_change(&out).expect("pool changed");
        assert_eq!(kind, "join");
        assert!(
            at.0 < RUN_SECS * 1000 / 2,
            "autoscaler reacted only at {} ms",
            at.0
        );
    }

    #[test]
    fn regional_outage_triggers_degraded_driven_growth() {
        // The fast outage cell: crash two of twelve points. Backlog
        // cannot reach the 500-deep grow threshold, so any join proves
        // the health-scorer path (degraded flags → PoolSample → Grow).
        let cell = outage_cell(7, 12, 2);
        let out = cell.spec.run().expect("outage cell runs");
        let row = STUDY.row(&cell, &out);
        assert!(out.dp_failures >= 2, "plan injected no crashes");
        assert!(
            row.u64("dp_joins") >= 1,
            "outage never grew the pool via degraded flags: {row:?}"
        );
        assert!(row.u64("clients_rehomed") >= 1, "joins re-homed nobody: {row:?}");
        let (at, _) = first_pool_change(&out).expect("pool changed");
        assert!(at.0 >= 240_000, "pool grew before the outage at {} ms", at.0);
    }

    #[test]
    fn the_autoscaler_does_not_depend_on_tracing() {
        // Degraded flags are the outage cells' only grow signal. An
        // untraced run must see them too, so every elastic cell of the
        // study, fast and full, sizes its pool the same way untraced and
        // differs from the traced run only in carrying no timeline.
        let mut elastic: Vec<Cell> = [true, false]
            .into_iter()
            .flat_map(|fast| cells(fast, 2005))
            .filter(|c| c.spec.cfg.membership.is_some())
            .collect();
        elastic.sort_by(|a, b| a.spec.label.cmp(&b.spec.label));
        elastic.dedup_by(|a, b| a.spec.label == b.spec.label);
        assert_eq!(elastic.len(), 4, "flash crowd, diurnal and two outages");
        let traced: Vec<RunSpec> = elastic.into_iter().map(|c| c.spec).collect();
        let mut specs = traced.clone();
        specs.extend(traced.into_iter().map(|mut s| {
            s.cfg.trace = None;
            s
        }));
        let outs = run_specs(&specs, default_jobs());
        let (traced, untraced) = outs.split_at(specs.len() / 2);
        for (traced, untraced) in traced.iter().zip(untraced) {
            let traced = traced.as_ref().expect("traced cell runs");
            let untraced = untraced.as_ref().expect("untraced cell runs");
            let label = &traced.label;
            assert!(!traced.reconfig_log.is_empty(), "{label}: the pool never grew");
            assert!(untraced.timeline.is_none(), "an untraced run exports no timeline");
            let set_aside = ExperimentOutput {
                timeline: None,
                ..traced.clone()
            };
            assert!(*untraced == set_aside, "{label}: tracing changed the model output");
        }
    }
}
