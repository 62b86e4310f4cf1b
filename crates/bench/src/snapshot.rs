//! Machine-readable perf snapshots (`BENCH_sweep.json`).
//!
//! The sweep binaries and the perf regression test funnel their
//! [`RunMeasurement`]s through here to produce one JSON document per
//! sweep: wall-clock per run, deterministic simulation-event counts and
//! the derived events/sec rate, the speedup over a hypothetical serial
//! execution, and the headline paper metrics so a snapshot is comparable
//! across commits without re-parsing table output.
//!
//! The JSON is hand-rolled ([`crate::study::document`]): `serde_json` is
//! deliberately not in the tree (DESIGN §7), and the document is flat.
//! Nothing here parses JSON back — snapshots are for external tooling (CI
//! trend lines, `jq`).

use crate::parallel::RunMeasurement;
use crate::study::{document, Fields};
use digruber::ExperimentOutput;
use std::time::Duration;

/// Schema identifier embedded in every snapshot, bumped on breaking
/// layout changes.
pub const SCHEMA: &str = "digruber-bench-sweep/2";

/// A whole sweep's perf summary, ready to serialize.
#[derive(Debug)]
pub struct SweepSnapshot {
    /// Worker threads the sweep ran with.
    pub jobs: usize,
    /// Wall-clock for the whole sweep (all runs, as actually executed).
    pub total_wall: Duration,
    /// Sum of per-run wall-clocks — what a serial execution would have
    /// cost, measured on this machine in this sweep.
    pub serial_wall: Duration,
    /// Per-run rows, in spec order.
    pub runs: Vec<RunRow>,
}

/// One run's row in the snapshot.
#[derive(Debug)]
pub struct RunRow {
    /// Spec label.
    pub label: String,
    /// Index in the submitted spec list.
    pub spec_index: usize,
    /// Wall-clock of this run alone.
    pub wall: Duration,
    /// `Ok` payload metrics, or the error message for failed runs.
    pub outcome: Result<RunMetrics, String>,
}

/// The deterministic + headline numbers extracted from one
/// [`ExperimentOutput`].
#[derive(Debug)]
pub struct RunMetrics {
    /// Simulation events executed (deterministic per spec).
    pub events_executed: u64,
    /// Pending-queue high-water mark (deterministic per spec).
    pub peak_pending: usize,
    /// FNV-1a fingerprint of the full output (see [`output_fingerprint`]).
    pub fingerprint: String,
    /// Peak throughput, queries/sec (paper figures' third curve).
    pub peak_throughput_qps: f64,
    /// Mean response time, seconds.
    pub mean_response_secs: f64,
    /// Fraction of requests handled by GRUBER.
    pub handled_fraction: f64,
    /// Mean scheduling accuracy over handled placements, if any.
    pub mean_handled_accuracy: Option<f64>,
    /// Resource utilization over the whole run.
    pub utilization: f64,
    /// Jobs that entered the grid.
    pub jobs_dispatched: usize,
    /// Decision points at the end of the run.
    pub final_dps: usize,
    /// Whether structured tracing was enabled for the run — the events/sec
    /// headline is only comparable across snapshots with equal `traced`
    /// (the no-sink overhead bound is measured against `false` rows).
    pub traced: bool,
}

impl RunMetrics {
    /// Extracts the snapshot row from a full output.
    pub fn from_output(out: &ExperimentOutput) -> Self {
        RunMetrics {
            events_executed: out.events_executed,
            peak_pending: out.peak_pending,
            fingerprint: output_fingerprint(out),
            peak_throughput_qps: out.report.peak_throughput_qps,
            mean_response_secs: out.report.response.mean,
            handled_fraction: out.report.handled_fraction(),
            mean_handled_accuracy: out.mean_handled_accuracy,
            utilization: out.table.all.util,
            jobs_dispatched: out.jobs_dispatched,
            final_dps: out.final_dps,
            traced: out.timeline.is_some(),
        }
    }
}

impl SweepSnapshot {
    /// Builds a snapshot from executor measurements. `total_wall` is the
    /// elapsed time around the whole `run_specs` call; the serial
    /// baseline is the sum of the per-run walls, so `speedup_vs_serial`
    /// is self-contained (no second, actually-serial sweep needed).
    pub fn from_measurements(jobs: usize, measurements: &[RunMeasurement], total_wall: Duration) -> Self {
        SweepSnapshot {
            jobs,
            total_wall,
            serial_wall: measurements.iter().map(|m| m.wall).sum(),
            runs: measurements
                .iter()
                .map(|m| RunRow {
                    label: m.label.clone(),
                    spec_index: m.spec_index,
                    wall: m.wall,
                    outcome: match &m.output {
                        Ok(out) => Ok(RunMetrics::from_output(out)),
                        Err(e) => Err(e.to_string()),
                    },
                })
                .collect(),
        }
    }

    /// Σ(per-run wall) / sweep wall — 1.0 ± noise for `--jobs 1`.
    pub fn speedup_vs_serial(&self) -> f64 {
        let total = self.total_wall.as_secs_f64();
        if total > 0.0 {
            self.serial_wall.as_secs_f64() / total
        } else {
            1.0
        }
    }

    /// Serializes the snapshot (pretty-printed, trailing newline).
    pub fn to_json(&self) -> String {
        let head = Fields::new()
            .with("schema", SCHEMA)
            .with("jobs", self.jobs)
            .with("n_runs", self.runs.len())
            .with("total_wall_secs", self.total_wall.as_secs_f64())
            .with("serial_wall_secs", self.serial_wall.as_secs_f64())
            .with("speedup_vs_serial", self.speedup_vs_serial());
        let rows: Vec<Fields> = self
            .runs
            .iter()
            .map(|run| {
                let wall = run.wall.as_secs_f64();
                let row = Fields::new()
                    .with("label", run.label.as_str())
                    .with("spec_index", run.spec_index)
                    .with("wall_secs", wall);
                match &run.outcome {
                    Ok(m) => row
                        .with("ok", true)
                        .with("events_executed", m.events_executed)
                        .with("events_per_sec", if wall > 0.0 { m.events_executed as f64 / wall } else { 0.0 })
                        .with("peak_pending", m.peak_pending)
                        .with("fingerprint", m.fingerprint.as_str())
                        .with("peak_throughput_qps", m.peak_throughput_qps)
                        .with("mean_response_secs", m.mean_response_secs)
                        .with("handled_fraction", m.handled_fraction)
                        .with("mean_handled_accuracy", m.mean_handled_accuracy)
                        .with("utilization", m.utilization)
                        .with("jobs_dispatched", m.jobs_dispatched)
                        .with("final_dps", m.final_dps)
                        .with("traced", m.traced),
                    Err(e) => row.with("ok", false).with("error", e.as_str()),
                }
            })
            .collect();
        document(&head, "runs", &rows)
    }

    /// Writes the snapshot to `path` (atomically enough for a bench
    /// artifact: whole-string write).
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// A deterministic fingerprint of everything an [`ExperimentOutput`]
/// contains: 64-bit FNV-1a over the `Debug` rendering (which covers
/// every field, including traces and figure rows). Two runs of the same
/// spec — serial or parallel, any thread — must produce equal
/// fingerprints; the determinism test pins this.
pub fn output_fingerprint(out: &ExperimentOutput) -> String {
    let repr = format!("{out:?}");
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in repr.as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::run_specs;
    use crate::study::Value;
    use digruber::config::DigruberConfig;
    use digruber::RunSpec;
    use workload::WorkloadSpec;

    #[test]
    fn json_str_escapes() {
        let json_str = |s: &str| Value::from(s).json();
        assert_eq!(json_str("plain"), "\"plain\"");
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_str("line\nbreak"), "\"line\\nbreak\"");
        assert_eq!(json_str("bell\u{7}"), "\"bell\\u0007\"");
    }

    #[test]
    fn json_f64_handles_nonfinite() {
        let json_f64 = |v: f64| Value::from(v).json();
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        let run = |seed| {
            RunSpec::new("fp", DigruberConfig::small(1, seed), WorkloadSpec::small())
                .run()
                .unwrap()
        };
        let a = run(9);
        let b = run(9);
        let c = run(10);
        assert_eq!(output_fingerprint(&a), output_fingerprint(&b));
        assert_ne!(output_fingerprint(&a), output_fingerprint(&c));
    }

    #[test]
    fn snapshot_round_trips_structure() {
        let specs = vec![
            RunSpec::new("one", DigruberConfig::small(1, 42), WorkloadSpec::small()),
            RunSpec::new("two", DigruberConfig::small(2, 42), WorkloadSpec::small()),
        ];
        let start = std::time::Instant::now();
        let ms = run_specs(&specs, 2);
        let snap = SweepSnapshot::from_measurements(2, &ms, start.elapsed());
        let json = snap.to_json();
        // Spot-check the shape without a parser: keys present, balanced
        // braces/brackets, every run row rendered.
        assert!(json.contains("\"schema\": \"digruber-bench-sweep/2\""));
        assert!(json.contains("\"traced\": false"));
        assert!(json.contains("\"jobs\": 2"));
        assert!(json.contains("\"n_runs\": 2"));
        assert!(json.contains("\"speedup_vs_serial\""));
        assert!(json.contains("\"label\": \"one\""));
        assert!(json.contains("\"label\": \"two\""));
        assert!(json.contains("\"events_per_sec\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(snap.speedup_vs_serial() > 0.0);
    }
}
