//! The repository's benchmark: one workload per invocation.
//!
//! `perf --workload <name> --seed <n> --seconds <s> --trace <0|1>` sets the
//! workload's system up, measures it for `s` seconds from outside (public
//! calls only), checks its outputs and prints every metric by name; the
//! last line of standard output is the result as one JSON object. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones. `perf/README.md` is the catalogue.

mod kernels;
mod span;
mod stats;
mod sys;
mod workloads;

use stats::Metric;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::{Args, Outcome};

type Workload = fn(&Args) -> Outcome;

const WORKLOADS: [(&str, Workload); 6] = [
    ("sim-paper", workloads::sim::paper_run),
    ("sim-clients", workloads::sim::clients_run),
    ("replay-mesh", workloads::replay::run),
    ("live-query", workloads::live::run),
    ("sock-query", workloads::sock::query_run),
    ("sock-durable", workloads::sock::durable_run),
];

/// What an untraced run reports, on every workload.
const END_TO_END: [&str; 5] = [
    "setup_s",
    "ops_per_s",
    "response_p50_us",
    "response_p90_us",
    "peak_rss_mb",
];

/// What a traced run reports, on every workload; a layer a workload
/// never enters reports zero. `BENCHMARK.json` lists the same names.
const PER_LAYER: [(&str, &str); 78] = [
    ("desim.events", "count"),
    ("desim.peak_pending", "count"),
    ("desim.cancellations", "count"),
    ("desim.schedule_pop_ns", "ns"),
    ("desim.busy_share", "share"),
    ("simnet.service.admissions", "count"),
    ("simnet.service.admit_ns", "ns"),
    ("simnet.service.busy_share", "share"),
    ("simnet.msgs_sent", "count"),
    ("simnet.retries", "count"),
    ("simnet.codec.encode_deltas_ns_per_record", "ns"),
    ("simnet.codec.decode_deltas_ns_per_record", "ns"),
    ("simnet.codec.inform_roundtrip_ns", "ns"),
    ("simnet.codec.framebuf_ns_per_frame", "ns"),
    ("simnet.codec.busy_share", "share"),
    ("gruber.engine.availability_ns", "ns"),
    ("gruber.view.merge_ns_per_record", "ns"),
    ("gruber.view.expire_ns_per_record", "ns"),
    ("gruber.busy_share", "share"),
    ("gruber.selector.selects", "count"),
    ("gruber.selector.select_ns", "ns"),
    ("gruber.selector.busy_share", "share"),
    ("usla.eval_ns", "ns"),
    ("gridemu.jobs_dispatched", "count"),
    ("gridemu.dispatch_ns", "ns"),
    ("gridemu.busy_share", "share"),
    ("dpnode.queries", "count"),
    ("dpnode.informs", "count"),
    ("dpnode.floods_sent", "count"),
    ("dpnode.records_flooded", "count"),
    ("dpnode.records_merged", "count"),
    ("dpnode.handle_query_ns", "ns"),
    ("dpnode.handle_inform_ns", "ns"),
    ("dpnode.peer_records_ns_per_record", "ns"),
    ("dpnode.sync_tick_ns", "ns"),
    ("dpnode.busy_share", "share"),
    ("dpnode.snapshot_encode_us", "us"),
    ("dpnode.sync_visible_p50_us", "us"),
    ("dpstore.file.append_us", "us"),
    ("dpstore.file.snapshot_us", "us"),
    ("dpstore.file.recover_us_per_1k_records", "us"),
    ("dpstore.wal_appends", "count"),
    ("dpstore.wal_records_replayed", "count"),
    ("obs.emit_off_ns", "ns"),
    ("obs.emit_on_ns", "ns"),
    ("obs.events_emitted", "count"),
    ("obs.busy_share", "share"),
    ("obs.trace_overhead_share", "share"),
    ("untraced_ops_per_s", "1/s"),
    ("traced_ops_per_s", "1/s"),
    ("response_p99_us", "us"),
    ("unattributed_share", "share"),
    ("core.live.query_call_us", "us"),
    ("core.live.inform_call_ns", "ns"),
    ("core.live.force_sync_call_us", "us"),
    ("core.live.cpu_us_per_query", "us"),
    ("clusterd.client.query_call_us", "us"),
    ("clusterd.client.inform_call_us", "us"),
    ("clusterd.client.force_sync_call_us", "us"),
    ("clusterd.server_cpu_us_per_query", "us"),
    ("clusterd.client_cpu_us_per_query", "us"),
    ("clusterd.spawn_ms", "ms"),
    ("clusterd.respawn_ms", "ms"),
    ("clusterd.crash_reap_ms", "ms"),
    ("clusterd.server.queries", "count"),
    ("clusterd.server.flood_requeues", "count"),
    ("clusterd.server.decode_failures", "count"),
    ("client.self_share", "share"),
    ("grubsim.informs_replayed", "count"),
    ("grubsim.recoveries", "count"),
    ("recovery_ms", "ms"),
    ("model_handled_share", "share"),
    ("model_response_s", "s"),
    ("model_accuracy", "share"),
    ("server_peak_rss_mb", "MB"),
    ("client_peak_rss_mb", "MB"),
    ("spans_recorded", "count"),
    ("kernels_s", "s"),
];

fn usage() -> ExitCode {
    let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
    eprintln!(
        "usage: perf --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    ExitCode::from(2)
}

fn flag<'a>(argv: &'a [String], name: &str) -> Option<&'a str> {
    let at = argv.iter().position(|a| a == name)?;
    argv.get(at + 1).map(String::as_str)
}

/// Builds the release `clusterd` binary the socket workloads spawn, in
/// the repository's own workspace, before anything is timed.
fn build_clusterd(target_dir: &Path) -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "clusterd",
        ])
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build -p clusterd: {status}"));
    }
    let bin = target_dir.join("release").join("clusterd");
    if bin.is_file() {
        std::fs::canonicalize(&bin).map_err(|e| format!("{}: {e}", bin.display()))
    } else {
        Err(format!("{} was not built", bin.display()))
    }
}

/// Fails the run rather than letting it hang: three times the expected
/// length of a run, which is the measured seconds plus its set-ups.
fn watchdog(seconds: f64) {
    let cap = std::time::Duration::from_secs_f64((3.0 * (seconds + 15.0)).min(170.0));
    std::thread::spawn(move || {
        std::thread::sleep(cap);
        eprintln!("perf: still running after {cap:?}; giving up");
        sys::kill_children("clusterd");
        std::process::exit(3);
    });
}

/// Kills and reaps the `clusterd` children when the run ends, however
/// it ends: `LocalCluster` has no `Drop`, so a panic in a workload would
/// otherwise leave its servers running.
struct ReapServers;

impl Drop for ReapServers {
    fn drop(&mut self) {
        sys::kill_children("clusterd");
    }
}

/// The metrics of the pass in catalogue order, and what is wrong with
/// them: a metric outside the catalogue, an end-to-end metric missing, a
/// value that is not a number. A per-layer metric the workload did not
/// report is a layer it never entered, and reads zero.
fn in_catalogue_order(
    trace: bool,
    reported: &[(&'static str, Metric)],
) -> (Vec<(&'static str, Metric)>, Vec<String>) {
    let find = |name: &str| reported.iter().find(|(n, _)| *n == name).map(|(_, m)| *m);
    let mut problems = Vec::new();
    let mut metrics: Vec<(&str, Metric)> = if trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                (
                    name,
                    find(name).map_or(Metric::one(0.0, unit), |m| Metric { unit, ..m }),
                )
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .filter_map(|&name| Some((name, find(name)?)))
            .collect()
    };
    if metrics.len()
        < if trace {
            PER_LAYER.len()
        } else {
            END_TO_END.len()
        }
    {
        problems.push("an end-to-end metric was not reported".to_string());
    }
    for (name, _) in reported {
        if !metrics.iter().any(|(n, _)| n == name) {
            problems.push(format!("metric {name} is not in the catalogue"));
        }
    }
    for (name, m) in &mut metrics {
        if !m.value.is_finite() {
            problems.push(format!("metric {name} is not a number"));
            m.value = 0.0;
        }
    }
    (metrics, problems)
}

fn json_line(outcome: &Outcome, metrics: &[(&str, Metric)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, m)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let parsed = (|| {
        let name = flag(&argv, "--workload")?;
        let run = WORKLOADS.iter().find(|(n, _)| *n == name)?.1;
        let seed: u64 = flag(&argv, "--seed")?.parse().ok()?;
        let seconds: f64 = flag(&argv, "--seconds")?.parse().ok()?;
        let trace = match flag(&argv, "--trace")? {
            "0" => false,
            "1" => true,
            _ => return None,
        };
        (seconds > 0.0 && seconds <= 60.0).then_some((name, run, seed, seconds, trace))
    })();
    let Some((name, run, seed, seconds, trace)) = parsed else {
        return usage();
    };
    if !Path::new("crates/clusterd/Cargo.toml").is_file() {
        eprintln!("perf: run from the root of the repository checkout");
        return ExitCode::from(2);
    }

    let target_dir = PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or("target".into()));
    let clusterd = if name.starts_with("sock-") {
        match build_clusterd(&target_dir) {
            Ok(bin) => bin,
            Err(e) => {
                eprintln!("perf: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        PathBuf::new()
    };
    let perf_dir = target_dir.join("perf");
    let out_dir = perf_dir.join(format!("{name}-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perf: creating {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }

    println!("{}", sys::header(name, seed, seconds, trace));
    match sys::pin_to_one_cpu(name == "sock-durable") {
        Ok(cpu) => println!("# pinned to CPU {cpu}"),
        Err(e) => println!("# WARNING: not pinned to one CPU ({e}); expect unsteady numbers"),
    }
    watchdog(seconds);
    let args = Args {
        seed,
        seconds,
        trace,
        out_dir: out_dir.clone(),
        spans_path: perf_dir.join(format!("spans-{name}.jsonl")),
        clusterd,
    };
    let mut outcome = {
        let _reap = ReapServers;
        run(&args)
    };
    let _ = std::fs::remove_dir_all(&out_dir);

    let (metrics, problems) = in_catalogue_order(trace, &outcome.metrics);
    for problem in problems {
        outcome.check(false, || problem);
    }

    for note in &outcome.notes {
        println!("# {note}");
    }
    println!(
        "{:<44} {:>16} {:<6} {:>16} {:>16} {:>16} {:>6}",
        "metric", "value", "unit", "q1", "median", "q3", "n"
    );
    for (name, m) in &metrics {
        println!(
            "{name:<44} {:>16.4} {:<6} {:>16.4} {:>16.4} {:>16.4} {:>6}",
            m.value, m.unit, m.q1, m.median, m.q3, m.n
        );
    }
    println!(
        "# failed_share = {} / {} = {}",
        outcome.failed,
        outcome.attempted,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    println!("{}", json_line(&outcome, &metrics));
    if outcome.failed == 0 && outcome.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
