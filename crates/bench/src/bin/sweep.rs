//! Parameter-sweep CLI: run custom DI-GRUBER configurations without
//! writing code.
//!
//! ```text
//! cargo run --release -p bench --bin sweep -- --dps 1,3,10 --service gt4 \
//!     --sync-mins 10 --clients 120 --duration-mins 60 --topology ring
//! ```
//!
//! Flags (all optional; defaults reproduce the paper's setup). What the
//! command line refuses, with exit code 2 before anything runs, is
//! [`gruber_types::CommandLine`]'s to say; a value outside the lists below
//! is refused the same way.
//!
//! ```text
//! --dps N[,N..]         decision-point counts to sweep     (default 1,3,10)
//! --service gt3|gt4     service stack                      (default gt3)
//! --sync-mins N         exchange interval, minutes         (default 3)
//! --clients N           submission hosts                   (default 120)
//! --duration-mins N     experiment length, minutes         (default 60)
//! --grid-factor N       Grid3 × N sites                    (default 10)
//! --seed N              RNG seed                           (default 2005)
//! --topology mesh|ring|star[:H]|gossip:K|tree:B|hybrid:K   (default mesh)
//! --faults SPEC         timed fault-injection plan (see FAULTS.md), e.g.
//!                       "partition@120..300=0|1,2; loss@0..600=0.2";
//!                       message loss is a `loss@` clause and
//!                       decision-point churn a `churn@T=MTBF+REPAIR` one
//! --failover N          clients re-bind after N consecutive timeouts,
//!                       and a restarted point pulls its share back
//!                       (default 0: the paper's static binding)
//! --retry none|fixed|expjitter
//!                       retransmission policy for lost queries and
//!                       exchange floods (default none; see FAULTS.md)
//! --departure F         departure-ramp fraction            (default 0)
//! --max-in-flight N     queue-manager job cap per host     (default off)
//! --monitor-secs N      answer from ground-truth monitor snapshots
//!                       refreshed every N seconds          (default off)
//! --lan                 LAN instead of PlanetLab WAN
//! --enforce             enforce USLA admission verdicts
//! --dynamic             elastic pool: ring homing + the `digruber::elastic`
//!                       autoscaler at its defaults (paper §5)
//! --jobs N              worker threads for the sweep       (default: all cores;
//!                       1 = serial; results identical either way)
//! --trace PATH          structured tracing: per-decision-point JSONL
//!                       (schema digruber-trace/5, one run per `meta` line)
//!                       appended for every run, byte-identical for any
//!                       --jobs value                       (default off)
//! ```

use bench::{default_jobs, run_specs};
use digruber::config::DigruberConfig;
use digruber::{FaultPlan, RunSpec, ServiceKind, SyncTopology, WanKind};
use gruber_types::GridError::InvalidConfig;
use gruber_types::{refuse, CommandLine, GridResult, SimDuration};
use simnet::{RetryConfig, RetryPolicy};
use workload::WorkloadSpec;

/// The flags documented above, each with whether it takes a value.
const FLAGS: &[(&str, bool)] = &[
    ("--dps", true), ("--service", true), ("--sync-mins", true), ("--clients", true),
    ("--duration-mins", true), ("--grid-factor", true), ("--seed", true), ("--topology", true),
    ("--faults", true), ("--failover", true), ("--retry", true), ("--departure", true),
    ("--max-in-flight", true), ("--monitor-secs", true), ("--jobs", true), ("--trace", true),
    ("--lan", false), ("--enforce", false), ("--dynamic", false), ("--help", false), ("-h", false),
];

/// A `--topology` value, or `None` for one that names none.
fn topology(s: &str) -> Option<SyncTopology> {
    let arg = |prefix: &str| s.strip_prefix(prefix).and_then(|n| n.parse().ok());
    Some(match s {
        "mesh" => SyncTopology::FullMesh,
        "ring" => SyncTopology::Ring,
        "star" => SyncTopology::Star { hub: 0 },
        _ if s.starts_with("star:") => SyncTopology::Star { hub: arg("star:")? },
        _ if s.starts_with("gossip:") => SyncTopology::Gossip { fanout: arg("gossip:")? },
        _ if s.starts_with("tree:") => SyncTopology::Hierarchical { branching: arg("tree:")? },
        _ if s.starts_with("hybrid:") => SyncTopology::HybridEpidemic { fanout: arg("hybrid:")? },
        _ => return None,
    })
}

fn main() {
    if let Err(e) = sweep() {
        refuse("sweep", &e);
    }
}

fn sweep() -> GridResult<()> {
    let args = CommandLine::parse(std::env::args().skip(1), FLAGS)?.no_operands()?;
    if args.switch("--help") || args.switch("-h") {
        eprintln!("see the module docs: cargo doc -p bench --bin sweep");
        return Ok(());
    }

    let dps: Vec<usize> = args
        .str("--dps")
        .unwrap_or("1,3,10")
        .split(',')
        .map(|p| p.trim().parse().map_err(|_| InvalidConfig("bad --dps list".into())))
        .collect::<GridResult<_>>()?;
    let service = match args.str("--service").unwrap_or("gt3") {
        "gt3" => ServiceKind::Gt3,
        "gt4" => ServiceKind::Gt4Prerelease,
        other => return Err(InvalidConfig(format!("unknown service {other:?}"))),
    };
    let topo = args.str("--topology").unwrap_or("mesh");
    let topology =
        topology(topo).ok_or_else(|| InvalidConfig(format!("unknown topology {topo:?}")))?;

    let seed = args.num("--seed")?.unwrap_or(2005);
    let workload = WorkloadSpec {
        n_clients: args.num("--clients")?.unwrap_or(120),
        duration: args.span("--duration-mins", 60_000)?.unwrap_or(SimDuration::from_mins(60)),
        departure_fraction: args.num("--departure")?.unwrap_or(0.0),
        ..WorkloadSpec::paper_default()
    };
    let jobs = args.size("--jobs")?.unwrap_or_else(default_jobs);
    let trace_out = args.str("--trace");

    let mut specs = Vec::with_capacity(dps.len());
    for &n in &dps {
        let mut cfg = DigruberConfig::paper(n, service, seed);
        cfg.sync_interval = args.span("--sync-mins", 60_000)?.unwrap_or(SimDuration::from_mins(3));
        cfg.grid_factor = args.num("--grid-factor")?.unwrap_or(10);
        cfg.topology = topology;
        if let Some(spec) = args.str("--faults") {
            let plan = FaultPlan::parse(spec);
            cfg.fault_plan = Some(plan.map_err(|e| InvalidConfig(format!("bad --faults: {e}")))?);
        }
        cfg.retry = match args.str("--retry").unwrap_or("none") {
            "none" => RetryConfig::NONE,
            "fixed" => RetryConfig {
                query: RetryPolicy::fixed_default(),
                exchange: RetryPolicy::fixed_default(),
            },
            "expjitter" => RetryConfig::resilient(),
            other => return Err(InvalidConfig(format!("unknown retry policy {other:?}"))),
        };
        cfg.enforce_uslas = args.switch("--enforce");
        if args.switch("--lan") {
            cfg.wan = WanKind::Lan;
        }
        if args.switch("--dynamic") {
            cfg.membership = Some(digruber::ScalerConfig::default());
        }
        cfg.failover_after = args.num("--failover")?.unwrap_or(0);
        cfg.max_jobs_in_flight = args.num("--max-in-flight")?;
        cfg.monitor_refresh = args.span("--monitor-secs", 1000)?;
        if trace_out.is_some() {
            cfg.trace = Some(obs::TraceConfig::default());
        }
        // Refuse a bad cell before any cell runs.
        cfg.validate()?;
        workload.validate()?;
        specs.push(RunSpec::new(format!("{n} DPs"), cfg, workload.clone()));
    }

    let outs: Vec<_> = specs
        .iter()
        .zip(run_specs(&specs, jobs))
        .map(|(spec, out)| {
            out.map_err(|e| InvalidConfig(format!("experiment {:?} failed: {e}", spec.label)))
        })
        .collect::<GridResult<_>>()?;

    println!(
        "  DPs  peak thr(q/s)  mean resp(s)  handled   accuracy    util   jobs  failovers"
    );
    for out in &outs {
        println!(
            "  {:>3}  {:>12.2}  {:>11.1}  {:>6.1}%   {:>7}  {:>5.1}%  {:>5}  {:>9}",
            out.final_dps,
            out.report.peak_throughput_qps,
            out.report.response.mean,
            out.report.handled_fraction() * 100.0,
            out.mean_handled_accuracy
                .map(|a| format!("{:.1}%", a * 100.0))
                .unwrap_or_else(|| "-".into()),
            out.table.all.util * 100.0,
            out.jobs_dispatched,
            out.failovers,
        );
    }

    if let Some(path) = trace_out {
        let mut jsonl = String::new();
        for out in &outs {
            let tl = out.timeline.as_ref().expect("traced spec has a timeline");
            jsonl.push_str(&tl.to_jsonl(&out.label));
        }
        std::fs::write(path, &jsonl).map_err(|e| InvalidConfig(format!("writing {path}: {e}")))?;
        eprintln!("sweep: trace JSONL for {} run(s) -> {path}", outs.len());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_flag_is_never_taken_as_a_value() {
        // `--trace --lan` used to run on the LAN and trace into `./--lan`.
        let argv = ["--trace", "--lan"].map(String::from);
        let refused = CommandLine::parse(argv, FLAGS).unwrap_err();
        assert_eq!(refused, InvalidConfig("--trace needs a value".into()));
    }
}
