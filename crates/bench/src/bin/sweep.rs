//! Parameter-sweep CLI: run custom DI-GRUBER configurations without
//! writing code.
//!
//! ```text
//! cargo run --release -p bench --bin sweep -- --dps 1,3,10 --service gt4 \
//!     --sync-mins 10 --clients 120 --duration-mins 60 --topology ring
//! ```
//!
//! Flags (all optional; defaults reproduce the paper's setup; any other
//! flag, a value flag without its value and a value flag given twice are
//! refused with exit code 2 before anything runs):
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
//!                       message loss is a `loss@` clause here
//! --retry none|fixed|expjitter
//!                       retransmission policy for lost queries and
//!                       exchange floods (default none; see FAULTS.md)
//! --departure F         departure-ramp fraction            (default 0)
//! --max-in-flight N     queue-manager job cap per host     (default off)
//! --monitor-secs N      answer from ground-truth monitor snapshots
//!                       refreshed every N seconds          (default off)
//! --lan                 LAN instead of PlanetLab WAN
//! --enforce             enforce USLA admission verdicts
//! --dynamic             elastic pool: ring homing + the `membership`
//!                       autoscaler at its defaults (paper §5)
//! --failures            inject decision-point failures (with failover)
//! --jobs N              worker threads for the sweep       (default: all cores;
//!                       1 = serial; results identical either way)
//! --trace PATH          structured tracing: per-decision-point JSONL
//!                       (schema digruber-trace/5, one run per `meta` line)
//!                       appended for every run, byte-identical for any
//!                       --jobs value                       (default off)
//! ```

use bench::{default_jobs, run_specs};
use digruber::config::{DigruberConfig, FailureConfig};
use digruber::faults::FaultPlan;
use digruber::{RunSpec, ServiceKind, SyncTopology, WanKind};
use gruber_types::SimDuration;
use simnet::{RetryConfig, RetryPolicy};
use workload::WorkloadSpec;

/// Flags that take a value, as documented above.
const VALUE_FLAGS: &[&str] = &[
    "--dps", "--service", "--sync-mins", "--clients", "--duration-mins", "--grid-factor",
    "--seed", "--topology", "--faults", "--retry", "--departure", "--max-in-flight",
    "--monitor-secs", "--jobs", "--trace",
];
/// Switches, as documented above.
const SWITCHES: &[&str] = &["--lan", "--enforce", "--dynamic", "--failures", "--help", "-h"];

struct Args(Vec<String>);

impl Args {
    /// Refuses the first argument that is not a documented flag (or the
    /// value after one), a value flag with no value after it and a value
    /// flag given twice, so a misspelt, retired or half-typed flag never
    /// runs the default configuration in silence.
    fn check_known(&self) {
        let mut seen: Vec<&str> = Vec::new();
        let mut it = self.0.iter();
        while let Some(a) = it.next() {
            if VALUE_FLAGS.contains(&a.as_str()) {
                if seen.contains(&a.as_str()) {
                    die(&format!("{a} given twice"));
                }
                seen.push(a);
                if it.next().is_none() {
                    die(&format!("{a} needs a value"));
                }
            } else if !SWITCHES.contains(&a.as_str()) {
                die(&format!("unknown flag {a:?} (see the module docs for the list)"));
            }
        }
    }

    fn value_of(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> T {
        match self.value_of(flag) {
            Some(v) => v.parse().unwrap_or_else(|_| die(&format!("bad value for {flag}: {v:?}"))),
            None => default,
        }
    }

    /// `flag`'s whole-unit count as a span of `unit_ms` each. A count
    /// whose milliseconds do not fit in a `u64` is a bad value, not a
    /// wrapped time.
    fn span(&self, flag: &str, default: u64, unit_ms: u64) -> SimDuration {
        let n: u64 = self.parsed(flag, default);
        n.checked_mul(unit_ms)
            .map(SimDuration::from_millis)
            .unwrap_or_else(|| die(&format!("{flag} out of range: {n}")))
    }
}

fn die(msg: &str) -> ! {
    eprintln!("sweep: {msg}");
    std::process::exit(2);
}

fn main() {
    let args = Args(std::env::args().skip(1).collect());
    args.check_known();
    if args.has("--help") || args.has("-h") {
        eprintln!("see the module docs: cargo doc -p bench --bin sweep");
        return;
    }

    let dps: Vec<usize> = args
        .value_of("--dps")
        .unwrap_or("1,3,10")
        .split(',')
        .map(|p| p.trim().parse().unwrap_or_else(|_| die("bad --dps list")))
        .collect();
    let service = match args.value_of("--service").unwrap_or("gt3") {
        "gt3" => ServiceKind::Gt3,
        "gt4" => ServiceKind::Gt4Prerelease,
        other => die(&format!("unknown service {other:?}")),
    };
    let topology = match args.value_of("--topology").unwrap_or("mesh") {
        "mesh" => SyncTopology::FullMesh,
        "ring" => SyncTopology::Ring,
        "star" => SyncTopology::Star { hub: 0 },
        s if s.starts_with("star:") => SyncTopology::Star {
            hub: s["star:".len()..]
                .parse()
                .unwrap_or_else(|_| die("bad star hub")),
        },
        g if g.starts_with("gossip:") => SyncTopology::Gossip {
            fanout: g["gossip:".len()..]
                .parse()
                .unwrap_or_else(|_| die("bad gossip fanout")),
        },
        t if t.starts_with("tree:") => SyncTopology::Hierarchical {
            branching: t["tree:".len()..]
                .parse()
                .unwrap_or_else(|_| die("bad tree branching")),
        },
        h if h.starts_with("hybrid:") => SyncTopology::HybridEpidemic {
            fanout: h["hybrid:".len()..]
                .parse()
                .unwrap_or_else(|_| die("bad hybrid fanout")),
        },
        other => die(&format!("unknown topology {other:?}")),
    };

    let seed: u64 = args.parsed("--seed", 2005);
    let workload = WorkloadSpec {
        n_clients: args.parsed("--clients", 120u32),
        duration: args.span("--duration-mins", 60, 60_000),
        departure_fraction: args.parsed("--departure", 0.0f64),
        ..WorkloadSpec::paper_default()
    };

    let jobs: usize = args.parsed("--jobs", default_jobs());
    if jobs == 0 {
        die("--jobs must be at least 1");
    }
    let trace_out = args.value_of("--trace").map(str::to_string);

    let mut specs = Vec::with_capacity(dps.len());
    for &n in &dps {
        let mut cfg = DigruberConfig::paper(n, service, seed);
        cfg.sync_interval = args.span("--sync-mins", 3, 60_000);
        cfg.grid_factor = args.parsed("--grid-factor", 10usize);
        cfg.topology = topology;
        if let Some(spec) = args.value_of("--faults") {
            cfg.fault_plan = Some(
                FaultPlan::parse(spec).unwrap_or_else(|e| die(&format!("bad --faults: {e}"))),
            );
        }
        cfg.retry = match args.value_of("--retry").unwrap_or("none") {
            "none" => RetryConfig::NONE,
            "fixed" => RetryConfig {
                query: RetryPolicy::fixed_default(),
                exchange: RetryPolicy::fixed_default(),
            },
            "expjitter" => RetryConfig::resilient(),
            other => die(&format!("unknown retry policy {other:?}")),
        };
        cfg.enforce_uslas = args.has("--enforce");
        if args.has("--lan") {
            cfg.wan = WanKind::Lan;
        }
        if args.has("--dynamic") {
            cfg.membership = Some(digruber::elastic::MembershipConfig::default());
        }
        if args.has("--failures") {
            cfg.failures = Some(FailureConfig::default());
        }
        if let Some(v) = args.value_of("--max-in-flight") {
            cfg.max_jobs_in_flight =
                Some(v.parse().unwrap_or_else(|_| die("bad --max-in-flight")));
        }
        if args.has("--monitor-secs") {
            cfg.monitor_refresh = Some(args.span("--monitor-secs", 0, 1000));
        }
        if trace_out.is_some() {
            cfg.trace = Some(obs::TraceConfig::default());
        }

        specs.push(RunSpec::new(format!("{n} DPs"), cfg, workload.clone()));
    }

    let outs: Vec<_> = specs
        .iter()
        .zip(run_specs(&specs, jobs))
        .map(|(spec, out)| {
            out.unwrap_or_else(|e| die(&format!("experiment {:?} failed: {e}", spec.label)))
        })
        .collect();

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

    if let Some(path) = &trace_out {
        let mut jsonl = String::new();
        for out in &outs {
            let tl = out.timeline.as_ref().expect("traced spec has a timeline");
            jsonl.push_str(&tl.to_jsonl(&out.label));
        }
        std::fs::write(path, &jsonl)
            .unwrap_or_else(|e| die(&format!("writing {path}: {e}")));
        eprintln!("sweep: trace JSONL for {} run(s) -> {path}", outs.len());
    }
}
