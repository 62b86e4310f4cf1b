//! Deterministic-replay regression tests for the parallel sweep executor.
//!
//! The whole bench story rests on one claim: a [`RunSpec`] fully
//! determines its [`ExperimentOutput`], so fanning specs across worker
//! threads changes wall-clock and nothing else. These tests pin that
//! claim at reduced fig5 scale (Grid3×1, 24 clients, 12 simulated
//! minutes) — serial (`jobs = 1`) and parallel (`jobs = 4`) executions
//! must agree field-for-field, and the model/engine pins the
//! `BENCH_*.json` documents carry must be equal for equal specs.

use bench::{output_pins, run_specs, Pins};
use digruber::config::DigruberConfig;
use digruber::{ExperimentOutput, RunSpec, ServiceKind};
use gruber_types::{Fnv1a, SimDuration};
use std::hash::Hasher;
use workload::WorkloadSpec;

/// A fig5-family run scaled down for test time: the paper topology and
/// protocol, one-tenth the grid, a fifth of the clients and of the hour.
fn reduced_paper_spec(service: ServiceKind, n_dps: usize, seed: u64) -> RunSpec {
    let mut cfg = DigruberConfig::paper(n_dps, service, seed);
    cfg.grid_factor = 1;
    let wl = WorkloadSpec {
        n_clients: 24,
        duration: SimDuration::from_mins(12),
        ..WorkloadSpec::paper_default()
    };
    RunSpec::new(
        format!("reduced fig5: {service:?} x{n_dps} DPs"),
        cfg,
        wl,
    )
}

/// The four-spec sweep both tests run: the GT3 scaling family plus a GT4
/// point, all from the same seed.
fn sweep_specs() -> Vec<RunSpec> {
    vec![
        reduced_paper_spec(ServiceKind::Gt3, 1, 2005),
        reduced_paper_spec(ServiceKind::Gt3, 3, 2005),
        reduced_paper_spec(ServiceKind::Gt3, 10, 2005),
        reduced_paper_spec(ServiceKind::Gt4Prerelease, 3, 2005),
    ]
}

#[test]
fn parallel_sweep_is_identical_to_serial() {
    let specs = sweep_specs();

    let serial = run_specs(&specs, 1);
    let parallel = run_specs(&specs, 4);

    assert_eq!(serial.len(), specs.len());
    assert_eq!(parallel.len(), specs.len());

    for ((s, p), spec) in serial.iter().zip(&parallel).zip(&specs) {
        let s_out = s.as_ref().expect("serial run failed");
        let p_out = p.as_ref().expect("parallel run failed");

        // Field-for-field: ExperimentOutput derives PartialEq over every
        // field, traces and figure rows included.
        assert_eq!(
            s_out, p_out,
            "spec {:?} diverged between --jobs 1 and --jobs 4",
            spec.label
        );

        // And so are both pins, which hash every field.
        assert_eq!(output_pins(s_out), output_pins(p_out));
    }

    // The runs did real work, deterministically counted.
    for out in &parallel {
        let out = out.as_ref().unwrap();
        assert!(out.events_executed > 1_000, "{}: only {} events", out.label, out.events_executed);
        assert!(out.peak_pending > 0);
        assert!(out.report.issued > 0);
    }
}

#[test]
fn repeated_serial_sweeps_are_identical() {
    // The baseline the parallel test leans on: the executor itself (not
    // just the simulation) introduces no run-to-run variation.
    let a = run_specs(&sweep_specs()[..2], 1);
    let b = run_specs(&sweep_specs()[..2], 1);
    for (x, y) in a.iter().zip(&b) {
        let (x, y) = (x.as_ref().unwrap(), y.as_ref().unwrap());
        assert_eq!(x, y, "two serial executions of {:?} differ", x.label);
    }
}

/// The sweep specs with structured tracing switched on.
fn traced_sweep_specs() -> Vec<RunSpec> {
    let mut specs = sweep_specs();
    for s in &mut specs {
        s.cfg.trace = Some(obs::TraceConfig::default());
    }
    specs
}

#[test]
fn trace_jsonl_byte_identical_across_jobs() {
    // The tracing layer must not perturb determinism: a traced spec's
    // timeline — and its full JSONL rendering — is a pure function of the
    // spec, independent of how many workers the sweep used.
    let specs = traced_sweep_specs();
    let serial = run_specs(&specs, 1);
    let parallel = run_specs(&specs, 8);
    for ((s, p), spec) in serial.iter().zip(&parallel).zip(&specs) {
        let s_out = s.as_ref().expect("serial run failed");
        let p_out = p.as_ref().expect("parallel run failed");
        let s_tl = s_out.timeline.as_ref().expect("traced run has a timeline");
        let p_tl = p_out.timeline.as_ref().expect("traced run has a timeline");
        assert_eq!(s_tl, p_tl, "{:?}: timeline diverged across --jobs", spec.label);
        let s_jsonl = s_tl.to_jsonl(&spec.label);
        let p_jsonl = p_tl.to_jsonl(&spec.label);
        assert!(s_jsonl == p_jsonl, "{:?}: JSONL bytes diverged", spec.label);
        // The timeline saw real traffic, bin by bin.
        assert!(s_tl.totals.issued > 0);
        assert!(s_tl.sim_samples.len() > 1, "cadence bins missing");
    }
    // And tracing changes nothing outside the timeline field: the rest of
    // the output matches an untraced run of the same underlying spec.
    let untraced = run_specs(&sweep_specs()[..1], 1);
    let base = untraced[0].as_ref().unwrap();
    let traced = serial[0].as_ref().unwrap();
    assert_eq!(base.report, traced.report);
    assert_eq!(base.traces, traced.traces);
    assert_eq!(base.events_executed, traced.events_executed);
}

#[test]
fn trace_totals_reconcile_with_report() {
    // The timeline's whole-run aggregates must agree exactly (±0) with the
    // summary metrics the experiment already reports — same stream, two
    // independent counting paths.
    for m in run_specs(&traced_sweep_specs(), 4) {
        let out = m.as_ref().expect("run failed");
        let tl = out.timeline.as_ref().expect("timeline present");
        let t = &tl.totals;
        assert_eq!(t.answered as usize, out.report.answered, "{}", out.label);
        assert_eq!(t.timed_out as usize, out.report.timed_out, "{}", out.label);
        assert_eq!(t.denied, out.denied_requests, "{}", out.label);
        assert_eq!(t.events_executed, out.events_executed, "{}", out.label);
        assert_eq!(t.failures, out.dp_failures, "{}", out.label);
        assert_eq!(t.rebinds, out.failovers, "{}", out.label);
        // Per-DP totals roll up to the run totals…
        assert_eq!(tl.sum_dp(|d| d.issued), t.issued);
        assert_eq!(tl.sum_dp(|d| d.answered), t.answered);
        assert_eq!(tl.sum_dp(|d| d.timeouts), t.timed_out);
        assert_eq!(tl.sum_dp(|d| d.denied), t.denied);
        // …the histogram covers exactly the answered + late responses…
        assert_eq!(tl.response_histogram().count(), t.answered + t.late);
        // …the health report's flag list and the timeline's flag counters
        // tally the same derived events (±0, two independent paths)…
        let health = &tl.health;
        let degrading = health.flags.iter().filter(|f| f.degrading).count() as u64;
        let recovered = health.flags.iter().filter(|f| !f.degrading).count() as u64;
        assert_eq!(t.health_degrades, degrading, "{}", out.label);
        assert_eq!(t.health_recovers, recovered, "{}", out.label);
        assert_eq!(
            tl.sum_dp(|d| d.health_degrades),
            degrading,
            "{}",
            out.label
        );
        assert_eq!(
            tl.sum_dp(|d| d.health_recovers),
            recovered,
            "{}",
            out.label
        );
        // …and every scored window stays in the 0–100 band with the
        // score/penalty arithmetic intact.
        for s in &health.samples {
            assert!(s.score <= 100, "{}: {s:?}", out.label);
            let penalties = s.p_timeout + s.p_stale + s.p_retry + s.p_queue + s.p_recover;
            if s.down {
                assert_eq!(s.score, 0, "{}: {s:?}", out.label);
            } else {
                assert_eq!(s.score, 100u32.saturating_sub(penalties), "{}: {s:?}", out.label);
            }
        }
        // …and the per-bin samples sum back to the per-DP totals.
        for d in &tl.dp_totals {
            let bins = |f: &dyn Fn(&obs::DpSample) -> u64| -> u64 {
                tl.dp_samples.iter().filter(|s| s.dp == d.dp).map(f).sum()
            };
            assert_eq!(bins(&|s| s.issued), d.issued);
            assert_eq!(bins(&|s| s.answered), d.answered);
            assert_eq!(bins(&|s| s.timeouts), d.timeouts);
            assert_eq!(bins(&|s| s.sum_response_ms), d.sum_response_ms);
        }
    }
}

#[test]
fn snapshot_fingerprints_discriminate_specs() {
    // Different specs must not collide (fingerprints would be useless for
    // change detection otherwise); equal specs must collide.
    let ms = run_specs(&sweep_specs(), 2);
    let fps: Vec<Pins> = ms
        .iter()
        .map(|m| output_pins(m.as_ref().unwrap()))
        .collect();
    for i in 0..fps.len() {
        for j in i + 1..fps.len() {
            assert_ne!(fps[i].model, fps[j].model, "specs {i} and {j} collided");
        }
    }
    let again = run_specs(&sweep_specs()[..1], 1);
    assert_eq!(
        fps[0],
        output_pins(again[0].as_ref().unwrap())
    );
}

/// Fault-injection specs: every fault clause kind and both retrying
/// policies in play, tracing on (the fault layer only narrates through
/// the trace), three decision points.
fn fault_plan_specs() -> Vec<RunSpec> {
    use digruber::FaultPlan;
    use simnet::{RetryConfig, RetryPolicy};
    let fixed = RetryConfig {
        query: RetryPolicy::fixed_default(),
        exchange: RetryPolicy::fixed_default(),
    };
    let plans: [(&str, &str, RetryConfig); 3] = [
        ("partition", "partition@120..300=0,1|2", RetryConfig::NONE),
        ("loss+expjitter", "loss@0..720=0.25", RetryConfig::resilient()),
        (
            "kitchen-sink+fixed",
            "loss.client@60..600=0.15; dup.dpdp@0..720=0.35; reorder@100..500=0.2; \
             slow@120..360=1x2.5; crash@200=2+90",
            fixed,
        ),
    ];
    plans
        .into_iter()
        .map(|(name, plan, retry)| {
            let mut spec = reduced_paper_spec(ServiceKind::Gt3, 3, 2005);
            spec.label = format!("faults: {name}");
            spec.cfg.trace = Some(obs::TraceConfig::default());
            spec.cfg.fault_plan = Some(FaultPlan::parse(plan).expect("test plan"));
            spec.cfg.retry = retry;
            spec
        })
        .collect()
}

#[test]
fn fault_plans_stay_deterministic_across_jobs() {
    // Injected faults and retries draw from the same seeded RNG streams
    // as everything else, so a faulted run — trace bytes included — must
    // still be a pure function of its spec, not of the worker count.
    let specs = fault_plan_specs();
    let serial = run_specs(&specs, 1);
    let parallel = run_specs(&specs, 4);
    for ((s, p), spec) in serial.iter().zip(&parallel).zip(&specs) {
        let s_out = s.as_ref().expect("serial run failed");
        let p_out = p.as_ref().expect("parallel run failed");
        assert_eq!(s_out, p_out, "{:?} diverged across --jobs", spec.label);
        assert_eq!(output_pins(s_out), output_pins(p_out));
        let s_tl = s_out.timeline.as_ref().expect("traced");
        let p_tl = p_out.timeline.as_ref().expect("traced");
        assert!(
            s_tl.to_jsonl(&spec.label) == p_tl.to_jsonl(&spec.label),
            "{:?}: trace bytes diverged across --jobs",
            spec.label
        );
        // Health flag transitions — window boundaries, scores, ordering —
        // are part of the traced output and must be byte-identical too.
        let (s_health, p_health) = (&s_tl.health, &p_tl.health);
        assert_eq!(
            s_health.flags, p_health.flags,
            "{:?}: health flags diverged across --jobs",
            spec.label
        );
        assert_eq!(s_health, p_health, "{:?}", spec.label);
    }
    // The plans actually bit: each spec's signature fault shows in its
    // trace totals (a plan that never fires pins nothing).
    let totals: Vec<_> = serial
        .iter()
        .map(|m| m.as_ref().unwrap().timeline.as_ref().unwrap().totals)
        .collect();
    assert_eq!(totals[0].partitions_started, 1);
    assert_eq!(totals[0].partitions_healed, 1);
    assert!(totals[0].partition_drops > 0, "no flood hit the partition");
    assert!(totals[1].msgs_lost > 0, "25% loss dropped nothing");
    assert!(totals[1].retries > 0, "expjitter never retried");
    assert!(totals[2].msgs_duplicated > 0, "duplication never fired");
    assert_eq!(totals[2].slowdowns, 1);
    assert_eq!(totals[2].failures, 1, "planned crash missing");
    assert_eq!(totals[2].recoveries, 1, "planned restart missing");
}

/// The recorded pins of the traced sweep and the three fault plans. The
/// runs were first pinned when the engine ran on a binary heap, as one
/// FNV-1a over the output's whole `Debug` string; they are now pinned as
/// two hashes over declared fields ([`bench::output_pins`]): the model
/// half (what the run reported) and the engine half (what the scheduler
/// spent). The calendar-queue scheduler must reproduce them: obs only ever
/// serializes event *effects* in `(time, seq)` order, so any queue backend
/// that pops the same order produces the same bytes, and any divergence
/// means the wheel reordered, dropped, or duplicated an event.
///
/// The last column pins the run's trace export: FNV-1a over
/// `timeline.to_jsonl(label)`. The pins hash the structs, not the JSONL
/// writer, so this is what holds the exported bytes still.
const PINNED_FINGERPRINTS: [(&str, u64, u64, u64); 7] = [
    ("reduced fig5: Gt3 x1 DPs", 0x1ddb3e9bca6c2ff6, 0x1b672ee8652bef92, 0x9955142cac4cea94),
    ("reduced fig5: Gt3 x3 DPs", 0x6302fedb9147db9f, 0xd8ab48300bba2314, 0x7751b0db35e8fcda),
    ("reduced fig5: Gt3 x10 DPs", 0x03359703004c2cd5, 0xb15349b36f157cc1, 0xd14ba6f44ac0c360),
    ("reduced fig5: Gt4Prerelease x3 DPs", 0xdd99602ff8428ebd, 0xb6a1b941c6f81d55, 0x1ab4023c90c710e9),
    ("faults: partition", 0xc95580b821298909, 0x1aaa2c4ae5e0101a, 0x08085cd0d1683b36),
    ("faults: loss+expjitter", 0xbbcda384a2160492, 0x3a4ba9e78dd738bf, 0xac26005345704611),
    ("faults: kitchen-sink+fixed", 0xd6ba0c9f9dc550bc, 0xceda24b70f7360c5, 0xc2d20a6541038f0d),
];

#[test]
fn wheel_reproduces_pinned_heap_fingerprints() {
    // The seven runs recorded before the calendar queue landed, replayed
    // on the calendar queue.
    let mut specs = traced_sweep_specs();
    specs.extend(fault_plan_specs());
    assert_eq!(specs.len(), PINNED_FINGERPRINTS.len());
    for (spec, (label, model, engine, jsonl_pin)) in specs.iter().zip(PINNED_FINGERPRINTS) {
        assert_eq!(spec.label, label, "pin table out of sync with specs");
        let out = spec.run().expect("run failed");
        let tl = out.timeline.as_ref().expect("traced run has a timeline");
        // The scheduler's own counters must reconcile ±0 with the
        // timeline's two independent tallies of the same stream.
        assert_eq!(out.events_executed, tl.totals.events_executed, "{label}");
        assert_eq!(out.sched_cancellations, tl.totals.cancellations, "{label}");
        let pins = output_pins(&out);
        assert_eq!(pins, Pins { model, engine }, "{label}: pins moved");
        let mut jsonl = Fnv1a::default();
        jsonl.write(tl.to_jsonl(label).as_bytes());
        let jsonl = jsonl.finish();
        assert_eq!(jsonl, jsonl_pin, "{label}: JSONL hash {jsonl:016x} != pinned {jsonl_pin:016x}");
    }
}

#[test]
fn tracing_never_changes_the_model() {
    // Each pinned run, untraced, says what its traced run says: every
    // output field but the timeline is equal. The observer never feeds
    // back into what it observes.
    let mut specs = traced_sweep_specs();
    specs.extend(fault_plan_specs());
    assert_eq!(specs.len(), PINNED_FINGERPRINTS.len());
    let untraced: Vec<RunSpec> = specs
        .iter()
        .cloned()
        .map(|mut s| {
            s.cfg.trace = None;
            s
        })
        .collect();
    let traced = run_specs(&specs, 4);
    for ((traced, untraced), spec) in traced.iter().zip(run_specs(&untraced, 4)).zip(&specs) {
        let label = &spec.label;
        let traced = traced.as_ref().expect("traced run failed");
        let untraced = untraced.expect("untraced run failed");
        assert!(traced.timeline.is_some() && untraced.timeline.is_none(), "{label}");
        let set_aside = ExperimentOutput {
            timeline: None,
            ..traced.clone()
        };
        assert!(untraced == set_aside, "{label}: tracing changed the model output");
    }
}

/// A named edit of one field of a run's output.
type Change = (&'static str, fn(&mut ExperimentOutput));

/// The traced part of a run's output.
fn timeline(o: &mut ExperimentOutput) -> &mut obs::RunTimeline {
    o.timeline.as_mut().expect("traced run has a timeline")
}

#[test]
fn pins_split_as_declared() {
    // A change to what the engine spent moves only the engine half; a
    // change to what the model said moves only the model half. So a PR
    // that makes a query cost fewer events can show "the same" results.
    let mut cfg = DigruberConfig::small(2, 42);
    cfg.trace = Some(obs::TraceConfig::default());
    let base = RunSpec::new("split", cfg, WorkloadSpec::small()).run().expect("run failed");
    let pins = output_pins(&base);
    let engine: [Change; 8] = [
        ("events_executed", |o| o.events_executed += 1),
        ("peak_pending", |o| o.peak_pending += 1),
        ("sched_cancellations", |o| o.sched_cancellations += 1),
        ("sim_samples", |o| assert!(timeline(o).sim_samples.pop().is_some())),
        ("totals.events_executed", |o| timeline(o).totals.events_executed += 1),
        ("totals.cancellations", |o| timeline(o).totals.cancellations += 1),
        ("recent", |o| assert!(timeline(o).recent.pop().is_some())),
        ("dropped_raw", |o| timeline(o).dropped_raw += 1),
    ];
    let model: [Change; 5] = [
        ("jobs_dispatched", |o| o.jobs_dispatched += 1),
        ("dp_samples", |o| timeline(o).dp_samples[0].issued += 1),
        ("dp_totals", |o| timeline(o).dp_totals[0].answered += 1),
        ("health", |o| timeline(o).health.samples[0].down ^= true),
        ("totals.answered", |o| timeline(o).totals.answered += 1),
    ];
    for (name, change) in engine {
        let mut o = base.clone();
        change(&mut o);
        let moved = output_pins(&o);
        assert_eq!(moved.model, pins.model, "{name} moved the model half");
        assert_ne!(moved.engine, pins.engine, "{name} left the engine half");
    }
    for (name, change) in model {
        let mut o = base.clone();
        change(&mut o);
        let moved = output_pins(&o);
        assert_ne!(moved.model, pins.model, "{name} left the model half");
        assert_eq!(moved.engine, pins.engine, "{name} moved the engine half");
    }
}

/// A traced Persist-mode spec whose crash forces a WAL + snapshot
/// recovery mid-run.
fn persist_crash_spec() -> RunSpec {
    use digruber::config::{PersistenceConfig, RecoveryMode};
    use digruber::FaultPlan;
    let mut spec = reduced_paper_spec(ServiceKind::Gt3, 3, 2005);
    spec.label = "faults: crash + persist recovery".into();
    spec.cfg.trace = Some(obs::TraceConfig::default());
    spec.cfg.fault_plan = Some(FaultPlan::parse("crash@240=1+120").expect("test plan"));
    spec.cfg.persistence = PersistenceConfig {
        mode: RecoveryMode::Persist,
        policy: dpstore::SnapshotPolicy {
            every_records: 32,
            every: SimDuration::from_secs(60),
        },
    };
    spec
}

#[test]
fn recovery_counters_reconcile_with_trace() {
    // The durability counters on ExperimentOutput and the trace totals are
    // two independent counting paths over the same stream; they must agree
    // exactly (±0) — both at zero on crash-free, persistence-off runs and
    // live on a Persist-mode crash run.
    let mut specs = traced_sweep_specs();
    specs.push(persist_crash_spec());
    for m in run_specs(&specs, 2) {
        let out = m.as_ref().expect("run failed");
        let tl = out.timeline.as_ref().expect("timeline present");
        let t = &tl.totals;
        assert_eq!(out.recoveries, t.recoveries, "{}", out.label);
        assert_eq!(out.wal_records_replayed, t.wal_replayed, "{}", out.label);
        assert_eq!(out.max_recovery_ms, t.max_recovery_ms, "{}", out.label);
        // Per-DP durability totals roll up to the run totals.
        assert_eq!(tl.sum_dp(|d| d.wal_appends), t.wal_appends, "{}", out.label);
        assert_eq!(tl.sum_dp(|d| d.snapshots), t.snapshots, "{}", out.label);
        assert_eq!(tl.sum_dp(|d| d.wal_replayed), t.wal_replayed, "{}", out.label);
        if out.label == "faults: crash + persist recovery" {
            // The crash spec did real durable work.
            assert_eq!(out.recoveries, 1, "planned restart missing");
            assert!(out.wal_records_replayed > 0, "recovery replayed nothing");
            assert!(out.max_recovery_ms > 0, "recovery cost uncharged");
            assert!(t.wal_appends > 0, "no WAL appends traced");
            assert!(t.snapshots > 0, "snapshot policy never fired");
        } else {
            // Persistence off: the durability counters stay all-zero.
            assert_eq!(out.recoveries, 0, "{}", out.label);
            assert_eq!(out.wal_records_replayed + out.max_recovery_ms, 0, "{}", out.label);
            assert_eq!(t.wal_appends + t.snapshots + t.wal_replayed, 0, "{}", out.label);
        }
    }
}
