//! The paper-scale study (`experiments scale`).
//!
//! desim's timer wheel makes the *full-fidelity* paper deployment —
//! Grid3×10 (~300 sites, tens of thousands of CPUs), 120 submission
//! hosts, one simulated hour — a routine run rather than a budget item.
//! This study runs exactly that, headlined by the Grid3×10
//! decision-point sweep plus a Grid3×100 smoke (ten times the paper's
//! grid again), and snapshots event counts, queue high-water marks and
//! fingerprints into `BENCH_scale.json`. What it proves is that those
//! runs *complete and reconcile*; how fast they are and how much memory
//! they take is measured, with repetitions and a bound, by the `perf/`
//! harness (`sim-paper` and `sim-clients` in `perf/README.md`).
//!
//! Every cell runs traced, and the driver cross-checks the scheduler's
//! own counters against the structured timeline: events executed and
//! successful cancellations must reconcile ±0, which is the whole-run
//! evidence that the wheel dropped or duplicated nothing.
//!
//! The Grid3×10 cells are the paper's own runs, traced: every run posts
//! each client's start on the one DiPerF ramp before its first event, so
//! their peak q/s are the crossover table's 1-, 3- and 10-DP rows.
//!
//! Alongside the paper-shaped grid sweep, a **client-scale ramp** runs
//! 10k/100k (and, in full mode, 1M) submission hosts over Grid3×10 using
//! [`WorkloadSpec::scaled`], whose think-time-dominated shape keeps the
//! footprint proportional to the client population rather than to
//! closed-loop depth.

use crate::study::{table, Cell, Fields, Study};
use digruber::config::DigruberConfig;
use digruber::{ExperimentOutput, ServiceKind};
use workload::WorkloadSpec;

/// The study's entry in [`crate::study::STUDIES`]. Schema `/2` added the
/// client-scale cells; `/3` dropped every wall-clock and memory column
/// (and `jobs`), so the document is byte-reproducible; `/4` dropped the
/// batch-size column with batched client seeding.
pub(crate) const STUDY: Study = Study {
    id: "scale",
    schema: "digruber-bench-scale/4",
    header: |fast| Fields::new().with("fast", fast),
    cells,
    measure,
    render,
};

/// A Grid3×`grid_factor` cell. `ramp_clients` makes it a client-scale
/// cell with that many submission hosts; otherwise it runs the paper's
/// 120-host workload.
fn cell(seed: u64, grid_factor: usize, n_dps: usize, ramp_clients: Option<u32>) -> Cell {
    let mut cfg = DigruberConfig::paper(n_dps, ServiceKind::Gt3, seed);
    cfg.grid_factor = grid_factor;
    // The counter reconciliation in `measure` needs the timeline.
    cfg.trace = Some(obs::TraceConfig::default());
    let mut label = format!("scale: Grid3x{grid_factor} {n_dps} DPs");
    let wl = match ramp_clients {
        Some(n) => {
            label += &format!(" {n} clients");
            WorkloadSpec::scaled(n)
        }
        None => WorkloadSpec::paper_default(),
    };
    let axes = Fields::new()
        .with("grid_factor", grid_factor)
        .with("n_dps", n_dps)
        .with("n_clients", wl.n_clients)
        .with("label", label);
    Cell::new(axes, cfg, wl)
}

/// Builds the study: the full-fidelity Grid3×10 decision-point sweep
/// (1/3/10 DPs, the paper's Figures 5–7 grid) plus the Grid3×100 smoke,
/// then the client-scale ramp — 10k and 100k submission hosts over
/// Grid3×10 with 3 decision points, plus a 1M-client smoke. `fast` trims
/// to one Grid3×10 cell, the Grid3×100 smoke and the two smaller ramp
/// cells for CI.
fn cells(fast: bool, seed: u64) -> Vec<Cell> {
    let (dps, ramp): (&[usize], &[u32]) = if fast {
        (&[3], &[10_000, 100_000])
    } else {
        (&[1, 3, 10], &[10_000, 100_000, 1_000_000])
    };
    let mut cells: Vec<Cell> = dps.iter().map(|&n| cell(seed, 10, n, None)).collect();
    cells.push(cell(seed, 100, 3, None));
    cells.extend(ramp.iter().map(|&n| cell(seed, 10, 3, Some(n))));
    cells
}

/// The counters of a finished cell run, reconciling the scheduler
/// against the structured timeline. Panics on a nonzero delta: a wheel
/// that dropped or duplicated an event is not a result, it is a bug.
fn measure(_axes: &Fields, out: &ExperimentOutput) -> Fields {
    let totals = &out
        .timeline
        .as_ref()
        .expect("scale cells always trace")
        .totals;
    let executed_delta = out.events_executed as i64 - totals.events_executed as i64;
    let cancel_delta = out.sched_cancellations as i64 - totals.cancellations as i64;
    assert_eq!(
        executed_delta, 0,
        "{}: scheduler executed {} events, timeline saw {}",
        out.label, out.events_executed, totals.events_executed
    );
    assert_eq!(
        cancel_delta, 0,
        "{}: scheduler cancelled {} events, timeline saw {}",
        out.label, out.sched_cancellations, totals.cancellations
    );
    Fields::new()
        .with("events", out.events_executed)
        // Pending-queue high-water mark.
        .with("peak_pending", out.peak_pending)
        .with("handled_fraction", out.report.handled_fraction())
        .with("peak_qps", out.report.peak_throughput_qps)
        .with("executed_delta", executed_delta)
        .with("cancel_delta", cancel_delta)
}

/// Renders the headline table: one row per cell with scale, event counts
/// and the reconciliation verdict.
fn render(rows: &[Fields]) -> String {
    let cols = [
        ("grid", 10),
        ("DPs", 4),
        ("clients", 8),
        ("events", 9),
        ("peak_pending", 12),
        ("handled", 7),
        ("reconcile", 9),
    ];
    let lines: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let reconciled = r.i64("executed_delta") == 0 && r.i64("cancel_delta") == 0;
            vec![
                format!("Grid3x{}", r.u64("grid_factor")),
                r.u64("n_dps").to_string(),
                r.u64("n_clients").to_string(),
                r.u64("events").to_string(),
                r.u64("peak_pending").to_string(),
                format!("{:.1}%", r.f64("handled_fraction") * 100.0),
                if reconciled { "±0" } else { "BROKEN" }.to_string(),
            ]
        })
        .collect();
    table("  ", &cols, &lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper-shaped grid cells run the paper's 120 submission hosts;
    /// everything wider is the client ramp.
    fn is_ramp(c: &Cell) -> bool {
        c.axes.u64("n_clients") != 120
    }

    #[test]
    fn cells_cover_both_grid_scales() {
        for fast in [false, true] {
            let cells: Vec<Cell> = cells(fast, 2005).into_iter().filter(|c| !is_ramp(c)).collect();
            assert_eq!(cells.len(), if fast { 2 } else { 4 });
            assert!(cells.iter().any(|c| c.axes.u64("grid_factor") == 10));
            assert!(cells.iter().any(|c| c.axes.u64("grid_factor") == 100));
            for c in &cells {
                assert_eq!(c.axes.u64("n_clients"), u64::from(c.spec.workload.n_clients));
            }
        }
    }

    #[test]
    fn client_cells_ramp_in_increasing_order() {
        for fast in [false, true] {
            let cells = cells(fast, 2005);
            let first = cells.iter().position(is_ramp).expect("a ramp");
            assert!(cells[first..].iter().all(is_ramp), "ramp comes last");
            let cells = &cells[first..];
            assert_eq!(cells.len(), if fast { 2 } else { 3 });
            let counts: Vec<u64> = cells.iter().map(|c| c.axes.u64("n_clients")).collect();
            assert!(counts.windows(2).all(|w| w[0] < w[1]));
            assert_eq!(counts[0], 10_000);
            assert_eq!(*counts.last().unwrap(), if fast { 100_000 } else { 1_000_000 });
        }
    }

    #[test]
    fn client_cell_runs_and_reconciles() {
        // A trimmed client-scale cell end-to-end: the scaled() workload
        // must drive real traffic and the reconciliation must hold.
        let c = cell(2005, 10, 3, Some(2_000));
        let out = c.spec.run().expect("client cell runs");
        let row = STUDY.row(&c, &out);
        assert_eq!(row.u64("n_clients"), 2_000);
        assert!(row.u64("events") > 2_000, "only {} events", row.u64("events"));
        let json = STUDY.json(true, &[row]);
        assert!(json.contains("\"n_clients\": 2000"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn full_fidelity_cell_runs_and_reconciles() {
        // One full-fidelity Grid3×10 run end-to-end: the row extraction
        // asserts executed/cancellation deltas are ±0, and the numbers
        // must be paper-shaped (hundreds of sites, real traffic).
        let cells = cells(true, 2005);
        let c = &cells[0];
        assert_eq!(c.axes.u64("grid_factor"), 10);
        let out = c.spec.run().expect("scale cell runs");
        let row = STUDY.row(c, &out);
        assert!(row.u64("events") > 10_000, "only {} events", row.u64("events"));
        assert!(row.u64("peak_pending") > 1_000);
        assert!(row.f64("handled_fraction") > 0.0);
        let json = STUDY.json(true, &[row]);
        assert!(json.contains("\"schema\": \"digruber-bench-scale/4\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn grid3x10_cells_are_the_papers_own_runs() {
        // The scale study's Grid3×10 cells and the crossover's rows are
        // one deployment, so a traced run of each has the same pins.
        let cells = cells(true, crate::SEED);
        let c = cells.iter().find(|c| c.axes.str("label") == "scale: Grid3x10 3 DPs");
        let c = c.expect("the fast set has the 3-DP Grid3x10 cell");
        let mut paper = crate::dp_scaling_spec(ServiceKind::Gt3, 3, crate::SEED);
        paper.label = c.spec.label.clone();
        paper.cfg.trace = Some(obs::TraceConfig::default());
        let run = |spec: &digruber::RunSpec| crate::output_pins(&spec.run().expect("runs"));
        assert_eq!(run(&c.spec), run(&paper));
    }
}
