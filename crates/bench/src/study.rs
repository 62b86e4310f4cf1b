//! The one framework behind the post-paper studies (`experiments
//! degradation | recovery | health | scale | topology`).
//!
//! A study is one [`Study`] entry in [`STUDIES`]: which [`Cell`]s exist,
//! which numbers it extracts from a finished cell (`measure`), and how its
//! table reads (`render`). Everything else is shared and lives here: a row
//! is an ordered [`Fields`] list — the cell's axes, what `measure`
//! returned and the run's [`Pins`], each column named exactly once —
//! [`document`] is the only JSON emitter in the crate, [`table`] the only
//! aligned-table formatter, and the `experiments` binary runs every entry
//! through the same cells → run → measure → `BENCH_<id>.json` → timelines
//! → table sequence.
//!
//! Nothing here reads a clock or the process's memory: a document depends
//! on the cell list and the seed only, never on `--jobs`, wall-clock or
//! thread identity, so CI regenerates every `BENCH_<id>.json` and diffs it
//! byte-for-byte.

use digruber::config::DigruberConfig;
use digruber::{ExperimentOutput, RunSpec, ServiceKind};
use gruber_types::{Fnv1a, SimDuration};
use std::fmt::Write as _;
use std::hash::Hasher as _;
use workload::WorkloadSpec;

/// One JSON-representable column value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned counter.
    U64(u64),
    /// Signed reconciliation delta.
    I64(i64),
    /// Measurement; non-finite values serialize as `null`.
    F64(f64),
    /// Label or fingerprint.
    Str(String),
    /// Flag.
    Bool(bool),
    /// An absent optional column.
    Null,
}

impl Value {
    /// The JSON rendering: strings quoted and escaped, finite floats
    /// as-is, non-finite ones `null` (JSON has no NaN/Inf).
    pub fn json(&self) -> String {
        match self {
            Value::U64(v) => v.to_string(),
            Value::I64(v) => v.to_string(),
            Value::F64(v) if v.is_finite() => v.to_string(),
            Value::F64(_) | Value::Null => "null".to_string(),
            Value::Str(s) => format!("\"{}\"", obs::json_escape(s)),
            Value::Bool(b) => b.to_string(),
        }
    }
}

macro_rules! value_from {
    ($($t:ty => $variant:ident),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Self {
                Value::$variant(v.into())
            }
        }
    )*};
}
value_from!(u64 => U64, u32 => U64, i64 => I64, f64 => F64, bool => Bool);

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Null, Into::into)
    }
}

/// An ordered list of named columns: a document header, a cell's axes, or
/// a finished row. Order is insertion order and is the JSON key order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Fields(Vec<(&'static str, Value)>);

impl Fields {
    /// An empty list.
    pub fn new() -> Self {
        Fields::default()
    }

    /// Appends a column (builder form).
    pub fn with(mut self, name: &'static str, v: impl Into<Value>) -> Self {
        self.0.push((name, v.into()));
        self
    }

    /// Appends every column of `more`, in order.
    pub fn extend(mut self, more: Fields) -> Self {
        self.0.extend(more.0);
        self
    }

    /// The value of column `name`. The typed getters below all panic on a
    /// missing column or a type mismatch: both are bugs in the study that
    /// built the row, not conditions a caller can meet.
    fn get(&self, name: &str) -> &Value {
        let found = self.0.iter().find(|(k, _)| *k == name);
        &found.unwrap_or_else(|| panic!("no column {name:?} in {self:?}")).1
    }

    /// An unsigned column that may be `null`.
    pub(crate) fn opt_u64(&self, name: &str) -> Option<u64> {
        match self.get(name) {
            Value::U64(v) => Some(*v),
            Value::Null => None,
            v => panic!("column {name:?} is {v:?}, not an unsigned integer"),
        }
    }

    /// A float column that may be `null`.
    pub(crate) fn opt_f64(&self, name: &str) -> Option<f64> {
        match self.get(name) {
            Value::F64(v) => Some(*v),
            Value::Null => None,
            v => panic!("column {name:?} is {v:?}, not a float"),
        }
    }

    /// A string column that may be `null`.
    pub(crate) fn opt_str(&self, name: &str) -> Option<&str> {
        match self.get(name) {
            Value::Str(v) => Some(v),
            Value::Null => None,
            v => panic!("column {name:?} is {v:?}, not a string"),
        }
    }

    /// An unsigned column.
    pub(crate) fn u64(&self, name: &str) -> u64 {
        self.opt_u64(name).unwrap_or_else(|| panic!("column {name:?} is null"))
    }

    /// A float column.
    pub(crate) fn f64(&self, name: &str) -> f64 {
        self.opt_f64(name).unwrap_or_else(|| panic!("column {name:?} is null"))
    }

    /// A string column.
    pub(crate) fn str(&self, name: &str) -> &str {
        self.opt_str(name).unwrap_or_else(|| panic!("column {name:?} is null"))
    }

    /// A signed column.
    pub(crate) fn i64(&self, name: &str) -> i64 {
        match self.get(name) {
            Value::I64(v) => *v,
            v => panic!("column {name:?} is {v:?}, not a signed integer"),
        }
    }

    /// A boolean column (only the health study's acceptance test reads one).
    #[cfg(test)]
    pub(crate) fn bool(&self, name: &str) -> bool {
        match self.get(name) {
            Value::Bool(v) => *v,
            v => panic!("column {name:?} is {v:?}, not a bool"),
        }
    }
}

/// Serializes one bench document (pretty-printed, trailing newline): the
/// `head` columns at top level, then `rows` as an array of objects under
/// `list`.
pub(crate) fn document(head: &Fields, list: &str, rows: &[Fields]) -> String {
    let mut s = String::from("{\n");
    for (k, v) in &head.0 {
        let _ = writeln!(s, "  \"{k}\": {},", v.json());
    }
    let _ = writeln!(s, "  \"{list}\": [");
    for (i, row) in rows.iter().enumerate() {
        s.push_str("    {\n");
        for (j, (k, v)) in row.0.iter().enumerate() {
            let comma = if j + 1 < row.0.len() { "," } else { "" };
            let _ = writeln!(s, "      \"{k}\": {}{comma}", v.json());
        }
        s.push_str(if i + 1 < rows.len() { "    },\n" } else { "    }\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

/// Formats a right-aligned text table: a header line from the `(title,
/// width)` columns, then one line per row, every line starting with
/// `indent` and columns separated by two spaces.
pub(crate) fn table<S: AsRef<str>>(indent: &str, cols: &[(S, usize)], rows: &[Vec<String>]) -> String {
    let mut s = String::new();
    let header: Vec<String> = cols.iter().map(|(t, _)| t.as_ref().to_string()).collect();
    for line in std::iter::once(&header).chain(rows) {
        let cells: Vec<String> = line
            .iter()
            .zip(cols)
            .map(|(cell, &(_, width))| format!("{cell:>width$}"))
            .collect();
        let _ = writeln!(s, "{indent}{}", cells.join("  "));
    }
    s
}

/// A run's pin, split in two: `model` hashes what the model said (the
/// report, figure rows, table, accuracy, traces, logs and counts, and the
/// timeline's bins, totals and health); `engine` hashes what the event
/// engine spent saying it (events executed, peak pending, cancellations,
/// the per-bin scheduler samples and the raw event ring). A change that
/// moves `model` changes a result; one that moves only `engine` changes
/// the cost of getting it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pins {
    /// FNV-1a over the model's fields.
    pub model: u64,
    /// FNV-1a over the engine's fields.
    pub engine: u64,
}

/// The [`Pins`] of a run, in one pass over the declared fields of its
/// output. A field added to [`ExperimentOutput`] does not compile here
/// until it is given a half. Two runs of the same spec, serial or
/// parallel, on any thread, have equal pins.
pub fn output_pins(out: &ExperimentOutput) -> Pins {
    let ExperimentOutput {
        // The model half.
        label, report, figure_rows, table, mean_handled_accuracy, traces, final_dps,
        reconfig_log, retire_log, jobs_dispatched, denied_requests, dp_failures, failovers,
        timeouts_by_dp, max_view_staleness_ms, vo_cpu_share, recoveries, wal_records_replayed,
        max_recovery_ms, clients_rehomed,
        // The engine half.
        events_executed, peak_pending, sched_cancellations,
        // Both: `RunTimeline::pin` splits it.
        timeline,
    } = out;
    let (mut model, mut engine) = (Fnv1a::default(), Fnv1a::default());
    let _ = write!(
        model,
        "{label:?} {report:?} {figure_rows:?} {table:?} {mean_handled_accuracy:?} {traces:?} \
         {final_dps} {reconfig_log:?} {retire_log:?} {jobs_dispatched} {denied_requests} \
         {dp_failures} {failovers} {timeouts_by_dp:?} {max_view_staleness_ms:?} {vo_cpu_share:?} \
         {recoveries} {wal_records_replayed} {max_recovery_ms} {} {} {clients_rehomed}",
        // The join and leave counts, in the slots that keep every pin.
        reconfig_log.len(),
        retire_log.len(),
    );
    let _ = write!(engine, "{events_executed} {peak_pending} {sched_cancellations}");
    if let Some(tl) = timeline {
        tl.pin(&mut model, &mut engine);
    }
    Pins { model: model.finish(), engine: engine.finish() }
}

/// One runnable cell of a study.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The cell's axes — the leading columns of its row, `label` among
    /// them.
    pub(crate) axes: Fields,
    /// The run to execute for this cell.
    pub spec: RunSpec,
}

impl Cell {
    /// A cell whose spec is labelled by the axes' `label` column.
    pub fn new(axes: Fields, cfg: DigruberConfig, workload: WorkloadSpec) -> Self {
        let spec = RunSpec::new(axes.str("label"), cfg, workload);
        Cell { axes, spec }
    }
}

/// One study: everything the shared runner does not already know.
pub struct Study {
    /// CLI id; also names `BENCH_<id>.json` and `results/timeline_<id>.txt`.
    pub id: &'static str,
    /// Schema identifier embedded in the document, bumped on breaking
    /// layout changes.
    pub(crate) schema: &'static str,
    /// The document's own header columns, between `schema` and `n_cells`.
    pub(crate) header: fn(fast: bool) -> Fields,
    /// Builds the cells; `fast` trims the study for CI smoke runs.
    pub cells: fn(fast: bool, seed: u64) -> Vec<Cell>,
    /// Extracts the measured columns of a finished cell (and asserts the
    /// study's reconciliations).
    pub(crate) measure: fn(&Fields, &ExperimentOutput) -> Fields,
    /// Renders the study's headline tables from the finished rows.
    pub render: fn(&[Fields]) -> String,
}

impl Study {
    /// The finished row of `cell`: its axes, its measured columns, then
    /// its [`Pins`] as one `fingerprint` column, `model/engine` in hex.
    pub fn row(&self, cell: &Cell, out: &ExperimentOutput) -> Fields {
        let Pins { model, engine } = output_pins(out);
        let pins = format!("{model:016x}/{engine:016x}");
        cell.axes.clone().extend((self.measure)(&cell.axes, out)).with("fingerprint", pins)
    }

    /// The `BENCH_<id>.json` document for finished rows.
    pub fn json(&self, fast: bool, rows: &[Fields]) -> String {
        let head = Fields::new()
            .with("schema", self.schema)
            .extend((self.header)(fast))
            .with("n_cells", rows.len());
        document(&head, "cells", rows)
    }
}

/// Every study `experiments` can run, in usage order.
pub const STUDIES: &[Study] = &[
    crate::degradation::STUDY,
    crate::recovery::STUDY,
    crate::health::STUDY,
    crate::scale::STUDY,
    crate::topology::STUDY,
];

/// Duration of every scaled-down fault-study run, in whole seconds
/// (12 simulated minutes).
pub(crate) const RUN_SECS: u64 = 720;

/// The scaled-down deployment the fault and topology studies share: the
/// paper's configuration on Grid3×1, with structured tracing forced on —
/// timelines (and the health scores riding on them) are an output of these
/// studies, not an option.
pub(crate) fn fault_deployment(n_dps: usize, seed: u64) -> DigruberConfig {
    let mut cfg = DigruberConfig::paper(n_dps, ServiceKind::Gt3, seed);
    cfg.grid_factor = 1;
    cfg.trace = Some(obs::TraceConfig::default());
    cfg
}

/// One decision point crashes mid-run, after the ramp has populated the
/// views, and stays down for two minutes (the recovery and health
/// studies' single-crash plan).
pub(crate) const PLAN_CRASH_SINGLE: &str = "crash@240=1+120";
/// Two staggered crashes on different points.
pub(crate) const PLAN_CRASH_DOUBLE: &str = "crash@240=1+120; crash@420=2+90";

/// The workload of the fault studies: 90 clients (vs. the 24 of the perf
/// sweeps) so the long-running jobs actually fill the Grid3×1 CPUs within
/// the 12 minutes — placement quality only shows up in queue time once the
/// grid is contended.
pub(crate) fn fault_workload() -> WorkloadSpec {
    WorkloadSpec {
        n_clients: 90,
        duration: SimDuration::from_secs(RUN_SECS),
        ..WorkloadSpec::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emitter_writes_nulls_escapes_and_no_trailing_comma() {
        let row = Fields::new()
            .with("absent", None::<u64>)
            .with("present", Some(3u64))
            .with("nan", f64::NAN)
            .with("inf", Some(f64::INFINITY))
            .with("text", "bell\u{7} \"q\"\n")
            .with("last", -1i64);
        let head = Fields::new().with("schema", "t/1").with("n_cells", 2usize);
        let json = document(&head, "cells", &[row.clone(), row]);
        assert!(json.starts_with("{\n  \"schema\": \"t/1\",\n  \"n_cells\": 2,\n  \"cells\": [\n"));
        assert!(json.contains("      \"absent\": null,\n      \"present\": 3,\n"));
        assert!(json.contains("      \"nan\": null,\n      \"inf\": null,\n"));
        assert!(json.contains("      \"text\": \"bell\\u0007 \\\"q\\\"\\n\",\n"));
        assert_eq!(json.matches("      \"last\": -1\n    }").count(), 2, "{json}");
        assert!(json.ends_with("    }\n  ]\n}\n"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert_eq!(document(&Fields::new(), "runs", &[]), "{\n  \"runs\": [\n  ]\n}\n");
    }

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
        assert_eq!(output_pins(&a), output_pins(&b));
        assert_ne!(output_pins(&a).model, output_pins(&c).model);
    }

    #[test]
    fn no_document_carries_the_worker_count() {
        // A header that named `--jobs` would dirty the committed artifact
        // on every host with a different core count.
        for study in STUDIES {
            let json = study.json(true, &[]);
            assert!(json.contains(study.schema), "{}: {json}", study.id);
            assert!(!json.contains("\"jobs\""), "{}: document depends on --jobs", study.id);
        }
    }

    #[test]
    fn every_study_builds_unique_valid_traced_cells() {
        // (id, fast cells, full cells); scale = grid cells + client ramp.
        let pinned = [
            ("degradation", 10, 24),
            ("recovery", 2, 8),
            ("health", 3, 6),
            ("scale", 2 + 2, 4 + 3),
            ("topology", 10, 15),
        ];
        assert_eq!(STUDIES.len(), pinned.len());
        for (study, (id, n_fast, n_full)) in STUDIES.iter().zip(pinned) {
            assert_eq!(study.id, id);
            for (fast, n) in [(true, n_fast), (false, n_full)] {
                let cells = (study.cells)(fast, 2005);
                assert_eq!(cells.len(), n, "{id} fast={fast}");
                let mut labels: Vec<&str> = cells.iter().map(|c| c.spec.label.as_str()).collect();
                labels.sort_unstable();
                labels.dedup();
                assert_eq!(labels.len(), n, "{id}: duplicate cell labels");
                for c in &cells {
                    assert_eq!(c.axes.str("label"), c.spec.label);
                    c.spec.cfg.validate().expect("cell config invalid");
                    c.spec.workload.validate().expect("cell workload invalid");
                    assert!(c.spec.cfg.trace.is_some(), "cells must trace");
                }
            }
        }
    }
}
