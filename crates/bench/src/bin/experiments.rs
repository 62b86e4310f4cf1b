//! Regenerates every table and figure of the paper's evaluation, and the
//! post-paper studies.
//!
//! ```text
//! cargo run --release -p bench --bin experiments -- <id>...
//! ```
//!
//! Ids come from two lists, and the usage string is built from the same
//! two: the paper artifacts (`PAPER_IDS`: `fig1 fig5 fig6 fig7 table1
//! fig8 fig9 fig10 fig11 table2 fig12 table3 fairness crossover`, or `all`
//! for every one of them) and the studies (`bench::STUDIES`:
//! `degradation recovery health scale topology`).
//!
//! The command-line rules (what is refused, with exit code 2 before
//! anything runs) are [`gruber_types::CommandLine`]'s; ids are its
//! operands.
//!
//! `--trace PATH` switches structured tracing on for every run: the
//! per-decision-point JSONL stream (schema `digruber-trace/5`, see the
//! `obs` crate docs) of all runs is concatenated into PATH, and each id
//! additionally gets a human-readable timeline summary under
//! `results/timeline_<id>.txt`. Tracing never changes the figures — the
//! timeline rides along as an extra output of the same deterministic run.

use bench::{render_accuracy, render_figure, render_table_block, Fields};
use bench::{
    accuracy_rows, accuracy_specs, capacity_model, crossover_rows, default_jobs, dp_scaling_spec,
    fig1_spec, run_specs, Study, SEED, STUDIES,
};
use digruber::{ExperimentOutput, RunSpec, ServiceKind};
use gruber_types::GridError::InvalidConfig;
use gruber_types::{refuse, CommandLine, GridResult, SimDuration, SimTime};
use std::sync::{Mutex, OnceLock};

const INTERVALS_MIN: [u64; 4] = [1, 3, 10, 30];
const DP_COUNTS: [usize; 3] = [1, 3, 10];

/// The flags, each with whether it takes a value.
const FLAGS: &[(&str, bool)] = &[("--jobs", true), ("--trace", true), ("--fast", false)];

/// The paper's artifacts, in the order `all` runs them.
const PAPER_IDS: [&str; 14] = [
    "fig1", "fig5", "fig6", "fig7", "table1", "fig8", "fig9", "fig10", "fig11", "table2", "fig12",
    "table3", "fairness", "crossover",
];

/// Destination of the structured-trace JSONL (`--trace PATH`).
static TRACE_OUT: OnceLock<Option<String>> = OnceLock::new();

/// JSONL accumulated across ids, written once at exit.
static TRACE_JSONL: Mutex<String> = Mutex::new(String::new());

/// Worker threads for multi-run artifacts (`--jobs N`; default all cores).
static JOBS: OnceLock<usize> = OnceLock::new();

/// Trim every study to its CI-smoke cells (`--fast`).
static FAST: OnceLock<bool> = OnceLock::new();

fn jobs() -> usize {
    *JOBS.get().expect("set in main")
}

fn tracing_on() -> bool {
    matches!(TRACE_OUT.get(), Some(Some(_)))
}

/// Runs a spec list on the configured workers, with tracing applied when
/// `--trace` was passed, and unwraps the outputs in spec order.
fn run_list(mut specs: Vec<RunSpec>) -> Vec<ExperimentOutput> {
    if tracing_on() {
        for s in &mut specs {
            s.cfg.trace = Some(obs::TraceConfig::default());
        }
    }
    specs
        .iter()
        .zip(run_specs(&specs, jobs()))
        .map(|(spec, out)| out.unwrap_or_else(|e| panic!("experiment {:?} failed: {e}", spec.label)))
        .collect()
}

fn run_one(spec: RunSpec) -> ExperimentOutput {
    run_list(vec![spec]).pop().expect("one spec, one output")
}

/// Writes the human-readable summary of every timeline these runs carry
/// into `results/timeline_<id>.txt`, and under `--trace` appends each one's
/// JSONL to the shared stream. A run has a timeline iff it was traced: the
/// paper artifacts only under `--trace`, the fault/scale/topology studies
/// always — so those write their summary regardless of the flag.
fn export_timelines(id: &str, outs: &[ExperimentOutput]) {
    let mut text = String::new();
    {
        let mut jsonl = TRACE_JSONL.lock().unwrap_or_else(|e| e.into_inner());
        for out in outs {
            let Some(tl) = &out.timeline else { continue };
            if tracing_on() {
                jsonl.push_str(&tl.to_jsonl(&out.label));
            }
            text.push_str(&tl.render(&out.label));
            text.push('\n');
        }
    }
    if text.is_empty() {
        return;
    }
    std::fs::create_dir_all("results").expect("create results/");
    let path = format!("results/timeline_{id}.txt");
    std::fs::write(&path, text).expect("write timeline summary");
    eprintln!("saved timeline summary to {path}");
}

fn main() {
    let ids = read_command_line().unwrap_or_else(|e| refuse("experiments", &e));
    for id in &ids {
        match STUDIES.iter().find(|s| s.id == id) {
            Some(s) => run_study(s),
            None => run(id),
        }
    }
    if let Some(Some(path)) = TRACE_OUT.get() {
        let jsonl = TRACE_JSONL.lock().unwrap_or_else(|e| e.into_inner());
        std::fs::write(path, jsonl.as_str()).expect("write trace JSONL");
        eprintln!("trace JSONL -> {path}");
    }
}

/// Reads the flags into the statics above and returns the ids to run,
/// every one of them checked.
fn read_command_line() -> GridResult<Vec<String>> {
    let args = CommandLine::parse(std::env::args().skip(1), FLAGS)?;
    TRACE_OUT.set(args.str("--trace").map(str::to_string)).expect("set once");
    JOBS.set(args.size("--jobs")?.unwrap_or_else(default_jobs)).expect("set once");
    FAST.set(args.switch("--fast")).expect("set once");
    let ids = args.operands();
    if ids.is_empty() {
        let ids: Vec<&str> =
            PAPER_IDS.iter().copied().chain(STUDIES.iter().map(|s| s.id)).collect();
        return Err(InvalidConfig(format!(
            "usage: experiments <{}|all>... [--jobs N] [--trace PATH] [--fast]",
            ids.join("|")
        )));
    }
    let study = |id: &str| STUDIES.iter().any(|s| s.id == id);
    let known = |id: &str| id == "all" || PAPER_IDS.contains(&id) || study(id);
    if let Some(other) = ids.iter().find(|a| !known(a)) {
        return Err(InvalidConfig(format!("unknown experiment id {other:?}")));
    }
    Ok(if ids.iter().any(|a| a == "all") {
        PAPER_IDS.map(String::from).to_vec()
    } else {
        ids.to_vec()
    })
}

fn scaling_figure(id: &str, service: ServiceKind, n_dps: usize) {
    let out = run_one(dp_scaling_spec(service, n_dps, SEED));
    export_timelines(id, std::slice::from_ref(&out));
    println!("[{id}]\n{}", render_figure(&out));
}

fn overall_table(id: &str, service: ServiceKind) {
    println!(
        "[{id}] Overall performance ({:?}): QTime / Normalized QTime / Util / Accuracy",
        service
    );
    let specs: Vec<_> = DP_COUNTS
        .iter()
        .map(|&n| dp_scaling_spec(service, n, SEED))
        .collect();
    let outs = run_list(specs);
    export_timelines(id, &outs);
    for (out, &n) in outs.iter().zip(&DP_COUNTS) {
        println!("{}", render_table_block(n, &out.table));
    }
}

fn accuracy_figure(id: &str, service: ServiceKind, title: &str) {
    let outs = run_list(accuracy_specs(service, &INTERVALS_MIN, SEED));
    export_timelines(id, &outs);
    let rows = accuracy_rows(&INTERVALS_MIN, &outs);
    println!("[{id}]\n{}", render_accuracy(title, &rows));
}

/// Runs one study of [`STUDIES`]: cells → run → measure →
/// `BENCH_<id>.json` → timelines → table. Studies always trace, whatever
/// `--trace` says: their rows reconcile against the timeline.
fn run_study(study: &Study) {
    let fast = *FAST.get().expect("set in main");
    let id = study.id;
    let cells = (study.cells)(fast, SEED);
    println!("[{id}] {} cells{}", cells.len(), if fast { " (--fast)" } else { "" });
    let outs = run_list(cells.iter().map(|c| c.spec.clone()).collect());
    let rows: Vec<Fields> = cells.iter().zip(&outs).map(|(c, out)| study.row(c, out)).collect();
    let path = format!("BENCH_{id}.json");
    std::fs::write(&path, study.json(fast, &rows)).unwrap_or_else(|e| panic!("write {path}: {e}"));
    eprintln!("{id} snapshot -> {path}");
    export_timelines(id, &outs);
    println!("{}", (study.render)(&rows));
}

fn run(id: &str) {
    match id {
        "fig1" => {
            let out = run_one(fig1_spec(SEED));
            export_timelines("fig1", std::slice::from_ref(&out));
            println!("[fig1]\n{}", render_figure(&out));
        }
        "fig5" => scaling_figure("fig5", ServiceKind::Gt3, 1),
        "fig6" => scaling_figure("fig6", ServiceKind::Gt3, 3),
        "fig7" => scaling_figure("fig7", ServiceKind::Gt3, 10),
        "table1" => overall_table("table1", ServiceKind::Gt3),
        "fig8" => accuracy_figure(
            "fig8",
            ServiceKind::Gt3,
            "GT3 accuracy vs exchange interval (3 DPs)",
        ),
        "fig9" => scaling_figure("fig9", ServiceKind::Gt4Prerelease, 1),
        "fig10" => scaling_figure("fig10", ServiceKind::Gt4Prerelease, 3),
        "fig11" => scaling_figure("fig11", ServiceKind::Gt4Prerelease, 10),
        "table2" => overall_table("table2", ServiceKind::Gt4Prerelease),
        "fig12" => accuracy_figure(
            "fig12",
            ServiceKind::Gt4Prerelease,
            "GT4 accuracy vs exchange interval (3 DPs)",
        ),
        "crossover" => {
            // Where does adding decision points stop paying? The knee is
            // the paper's "appropriate number of decision points".
            println!("[crossover] GT3, 1..16 decision points");
            println!("  DPs  peak q/s  mean resp(s)  handled   marginal q/s per DP");
            let dp_counts = [1usize, 2, 3, 4, 5, 6, 8, 10, 12, 16];
            let specs: Vec<_> = dp_counts
                .iter()
                .map(|&n| dp_scaling_spec(ServiceKind::Gt3, n, SEED))
                .collect();
            let outs = run_list(specs);
            export_timelines("crossover", &outs);
            let mut prev: Option<(usize, f64)> = None;
            for (n, thr, resp, handled) in crossover_rows(&dp_counts, &outs) {
                let marginal = match prev {
                    Some((pn, pthr)) => (thr - pthr) / (n - pn) as f64,
                    None => thr,
                };
                prev = Some((n, thr));
                println!(
                    "  {n:>3}  {thr:>8.2}  {resp:>11.1}  {:>6.1}%  {marginal:>11.2}",
                    handled * 100.0
                );
            }
        }
        "fairness" => {
            // Paper §4.1: "whether CPU resources could be allocated in a
            // fair manner across multiple VOs, and across multiple groups
            // within a VO, when using DI-GRUBER configurations that feature
            // multiple loosely coupled GRUBER instances".
            println!("[fairness] per-VO consumed CPU share, 3 GT3 DPs, symmetric demand");
            let out = run_one(dp_scaling_spec(ServiceKind::Gt3, 3, SEED));
            export_timelines("fairness", std::slice::from_ref(&out));
            for (v, s) in out.vo_cpu_share.iter().enumerate() {
                println!("  vo:{v}  {:5.2}%  (target 10.00%)", s * 100.0);
            }
        }
        "table3" => {
            println!("[table3] GRUB-SIM: required decision points");
            let interval = SimDuration::MINUTE;
            for (service, name) in [
                (ServiceKind::Gt3, "GT3-based"),
                (ServiceKind::Gt4Prerelease, "GT4-based"),
            ] {
                println!("  {name}:");
                let specs: Vec<_> = DP_COUNTS
                    .iter()
                    .map(|&n| dp_scaling_spec(service, n, SEED))
                    .collect();
                let outs = run_list(specs);
                export_timelines(&format!("table3_{name}"), &outs);
                let model = capacity_model(service);
                for (out, &n_dps) in outs.iter().zip(&DP_COUNTS) {
                    // The replay gets its own recorder: its overload /
                    // provisioning events live on the replay clock, not the
                    // traced run's.
                    let rec = obs::Recorder::from_config(if tracing_on() {
                        Some(obs::TraceConfig::default())
                    } else {
                        None
                    });
                    let report =
                        grubsim::simulate_required_dps(&out.traces, n_dps, model, interval, &rec);
                    let end = SimTime(report.intervals as u64 * interval.as_millis());
                    if let Some(tl) = rec.finish(end) {
                        let label = format!("{}/grubsim", out.label);
                        TRACE_JSONL
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .push_str(&tl.to_jsonl(&label));
                    }
                    println!("    {}", report.row());
                }
            }
        }
        other => unreachable!("{other:?} passed the id check in main"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_flag_is_never_taken_as_a_value() {
        // `--trace --fast scale` used to run the full study and trace into
        // `./--fast`.
        let argv = ["--trace", "--fast", "scale"].map(String::from);
        let refused = CommandLine::parse(argv, FLAGS).unwrap_err();
        assert_eq!(refused, InvalidConfig("--trace needs a value".into()));
    }
}
