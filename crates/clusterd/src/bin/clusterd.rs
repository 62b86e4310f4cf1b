//! The `clusterd` binary: serve one decision point, or fork a local
//! cluster.
//!
//! Serve mode (the default) runs one decision point until a `shutdown`
//! control frame arrives, printing `LISTEN <addr>` once bound — the
//! banner supervisors and the spawn-local harness read to learn the
//! actual port. `--spawn-local n` instead forks an n-process loopback
//! cluster, drives a ground-truth workload through it (optionally
//! crashing and respawning a point mid-run), and reports. See
//! DEPLOYMENT.md for the operator walkthrough.

use clusterd::{drive_workload, parse_toml, uniform_sites, LocalCluster, Server, ServerConfig, SpawnOpts, TomlValue};
use gruber_types::{DpId, SimTime};
use obs::{Recorder, TraceConfig};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use workload::uslas::equal_shares;

fn usage() -> ! {
    eprintln!(
        "usage:
  clusterd [--config FILE] [--id N] [--n-dps N] [--listen ADDR]
           [--sites N] [--cpus N] [--vos N] [--groups N]
           [--data-dir DIR] [--snapshot-records N] [--sync-ms N]
           [--trace FILE] [--allow-crash-exit]
  clusterd --spawn-local N [--jobs N] [--crash] [--data-root DIR]
           [--trace-dir DIR] [--sites N] [--cpus N] [--vos N] [--groups N]"
    );
    std::process::exit(2)
}

fn die(msg: &str) -> ! {
    eprintln!("clusterd: {msg}");
    std::process::exit(2)
}

/// What a setting holds.
#[derive(Clone, Copy)]
enum Kind {
    Num,
    Str,
    Switch,
}

/// Every setting, by its one name: the flag is `--` plus the name with
/// `_` turned into `-`, and a `--config` file sets it under the name
/// itself. Numbers are `u32`.
const SETTINGS: &[(&str, Kind)] = &[
    ("id", Kind::Num),
    ("n_dps", Kind::Num),
    ("listen", Kind::Str),
    ("sites", Kind::Num),
    ("cpus", Kind::Num),
    ("vos", Kind::Num),
    ("groups", Kind::Num),
    ("data_dir", Kind::Str),
    ("snapshot_records", Kind::Num),
    ("sync_ms", Kind::Num),
    ("trace", Kind::Str),
    ("allow_crash_exit", Kind::Switch),
];

/// Settings only the command line carries: the file itself, and the
/// spawn-local driver's.
const FLAG_ONLY: &[(&str, Kind)] = &[
    ("config", Kind::Str),
    ("help", Kind::Switch),
    ("spawn_local", Kind::Num),
    ("jobs", Kind::Num),
    ("crash", Kind::Switch),
    ("data_root", Kind::Str),
    ("trace_dir", Kind::Str),
];

/// A checked setting value.
enum Value {
    Num(u32),
    Str(String),
    Switch(bool),
}

/// The flags over the `--config` file, each value checked against its
/// setting's [`Kind`]. An unknown flag or file key, or a value of the
/// wrong type, exits 2 naming it.
struct Args {
    kv: Vec<(&'static str, Value)>,
}

impl Args {
    fn parse() -> Args {
        let mut flags = Vec::new();
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let setting = flag.strip_prefix("--").and_then(|f| {
                let mut all = SETTINGS.iter().chain(FLAG_ONLY);
                all.find(|(n, _)| n.replace('_', "-") == f)
            });
            let Some(&(name, kind)) = setting else {
                die(&format!("unknown flag {flag:?} (--help lists them)"))
            };
            let mut next = || {
                it.next()
                    .unwrap_or_else(|| die(&format!("{flag} wants a value")))
            };
            let value = match kind {
                Kind::Switch => Value::Switch(true),
                Kind::Str => Value::Str(next()),
                Kind::Num => {
                    let v = next();
                    let bad = |_| die(&format!("{flag} wants a number, got {v:?}"));
                    Value::Num(v.parse().unwrap_or_else(bad))
                }
            };
            flags.push((name, value));
        }
        let mut args = Args { kv: flags };
        if args.flag("help") {
            usage();
        }
        if let Some(path) = args.str("config") {
            let mut kv = load_file(path);
            kv.append(&mut args.kv);
            args.kv = kv;
        }
        args
    }

    fn get(&self, name: &str) -> Option<&Value> {
        let mut latest = self.kv.iter().rev();
        latest.find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    fn flag(&self, name: &str) -> bool {
        matches!(self.get(name), Some(Value::Switch(true)))
    }

    fn num(&self, name: &str) -> Option<u32> {
        match self.get(name) {
            Some(Value::Num(n)) => Some(*n),
            _ => None,
        }
    }

    fn str(&self, name: &str) -> Option<&str> {
        match self.get(name) {
            Some(Value::Str(s)) => Some(s),
            _ => None,
        }
    }
}

/// Reads a `--config` file: every key must name a [`SETTINGS`] entry and
/// hold a value of its kind.
fn load_file(path: &str) -> Vec<(&'static str, Value)> {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    let kv = parse_toml(&text).unwrap_or_else(|e| die(&format!("{path}: {e}")));
    kv.into_iter()
        .map(|(key, value)| {
            let Some(&(name, kind)) = SETTINGS.iter().find(|(n, _)| *n == key) else {
                die(&format!("{path}: unknown key {key:?}"))
            };
            let value = match (kind, value) {
                (Kind::Num, TomlValue::Int(n)) => match u32::try_from(n) {
                    Ok(n) => Value::Num(n),
                    Err(_) => die(&format!("{path}: {key} = {n} is out of range")),
                },
                (Kind::Str, TomlValue::Str(s)) => Value::Str(s),
                (Kind::Switch, TomlValue::Bool(b)) => Value::Switch(b),
                (_, v) => die(&format!("{path}: {key} has the wrong type ({v:?})")),
            };
            (name, value)
        })
        .collect()
}

/// A size setting, `default` when unset. Zero exits 2: a mesh of no
/// points, or a grid with no sites or no CPUs, has nothing to broker.
fn size(args: &Args, name: &str, default: u32) -> u32 {
    match args.num(name).unwrap_or(default) {
        0 => die(&format!("--{} wants n >= 1", name.replace('_', "-"))),
        n => n,
    }
}

fn main() {
    let args = Args::parse();
    if args.get("spawn_local").is_some() {
        spawn_local(&args);
        return;
    }
    serve(&args);
}

/// Serve one decision point until shutdown.
fn serve(args: &Args) {
    let num = |name: &str, default: u32| args.num(name).unwrap_or(default);
    let id = DpId(num("id", 0));
    let n_dps = size(args, "n_dps", 1) as usize;
    let sites = uniform_sites(size(args, "sites", 4), size(args, "cpus", 16));
    let uslas = equal_shares(size(args, "vos", 2), size(args, "groups", 2))
        .unwrap_or_else(|e| die(&e.to_string()));
    let mut cfg = ServerConfig::new(id, n_dps, sites, uslas);
    if let Some(listen) = args.str("listen") {
        cfg.listen = listen.to_string();
    }
    cfg.data_dir = args.str("data_dir").map(PathBuf::from);
    cfg.snapshot_records = num("snapshot_records", 0);
    let sync_ms = num("sync_ms", 0);
    cfg.sync_interval = (sync_ms > 0).then(|| Duration::from_millis(u64::from(sync_ms)));
    cfg.allow_process_exit = args.flag("allow_crash_exit");
    let trace_path = args.str("trace").map(PathBuf::from);
    let recorder = match &trace_path {
        Some(_) => Recorder::new(TraceConfig::default()),
        None => Recorder::OFF,
    };

    let epoch = Instant::now();
    let server = Server::start(cfg, recorder.clone()).unwrap_or_else(|e| {
        eprintln!("clusterd: start failed: {e}");
        std::process::exit(1)
    });
    // The banner supervisors parse; flush so a piped reader sees it now.
    println!("LISTEN {}", server.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    let stats = server.join();
    if let Some(path) = trace_path {
        let end = SimTime(epoch.elapsed().as_millis() as u64);
        if let Some(timeline) = recorder.finish(end) {
            let label = format!("clusterd-dp{}", stats.dp.0);
            if let Err(e) = std::fs::write(&path, timeline.to_jsonl(&label)) {
                eprintln!("clusterd: writing trace {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    println!(
        "STATS dp={} queries={} informs={} sync_rounds={} floods_sent={} \
         records_merged={} flood_hash={:#018x} recoveries={} wal_replayed={} requeues={}",
        stats.dp.0,
        stats.queries,
        stats.informs,
        stats.sync_rounds,
        stats.floods_sent,
        stats.records_merged,
        stats.flood_hash,
        stats.recoveries,
        stats.wal_records_replayed,
        stats.flood_requeues,
    );
}

/// Fork an n-process loopback cluster, drive a workload, report.
fn spawn_local(args: &Args) {
    let n_dps = size(args, "spawn_local", 1) as usize;
    let bin = std::env::current_exe().expect("current_exe");
    let opts = SpawnOpts {
        n_dps,
        sites: size(args, "sites", 4),
        cpus: size(args, "cpus", 16),
        vos: size(args, "vos", 2),
        groups: size(args, "groups", 2),
        data_root: args.str("data_root").map(PathBuf::from).or_else(|| {
            // A crash cycle needs durable state; default under the temp dir.
            args.flag("crash").then(|| {
                std::env::temp_dir().join(format!("clusterd-{}", std::process::id()))
            })
        }),
        snapshot_records: args.num("snapshot_records").unwrap_or(0),
        trace_dir: args.str("trace_dir").map(PathBuf::from),
    };
    if let Some(dir) = &opts.trace_dir {
        std::fs::create_dir_all(dir).expect("create trace dir");
    }
    let jobs = args.num("jobs").unwrap_or(8);
    let timeout = Duration::from_secs(5);

    let mut cluster = LocalCluster::spawn(&bin, opts.clone()).unwrap_or_else(|e| {
        eprintln!("clusterd: spawn-local failed: {e}");
        std::process::exit(1)
    });
    let grid = Mutex::new(
        gridemu::Grid::new(
            uniform_sites(opts.sites, opts.cpus),
            gridemu::SitePolicy::permissive(),
        )
        .expect("valid grid"),
    );

    let first = drive_workload(&cluster, &grid, jobs, 0, timeout, 42);
    if args.flag("crash") && n_dps > 1 {
        let victim = DpId(1);
        cluster.crash(victim).expect("crash dp1");
        cluster.respawn(victim).expect("respawn dp1");
        // The recovered point must answer again before the second half.
        let free = cluster
            .query(victim, timeout)
            .expect("query respawned dp")
            .expect("respawned dp timed out");
        assert_eq!(free.len(), opts.sites as usize);
    }
    let second =
        drive_workload(&cluster, &grid, jobs, jobs * n_dps as u32, timeout, 43);
    cluster.force_sync().expect("force sync");

    // Let the flood fan-out land, then collect stats.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut stats = Vec::new();
    loop {
        stats.clear();
        for i in 0..n_dps {
            stats.push(
                cluster
                    .stats(DpId(i as u32), timeout)
                    .expect("stats request"),
            );
        }
        let exchanges: u64 = stats.iter().map(|s| s.floods_sent).sum();
        if n_dps == 1 || exchanges > 0 || Instant::now() > deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    cluster.shutdown().unwrap_or_else(|e| {
        eprintln!("clusterd: shutdown failed: {e}");
        std::process::exit(1)
    });

    let placed = first.placed_via_broker + second.placed_via_broker;
    let random = first.placed_randomly + second.placed_randomly;
    let exchanges: u64 = stats.iter().map(|s| s.floods_sent).sum();
    let merged: u64 = stats.iter().map(|s| s.records_merged).sum();
    let recoveries: u64 = stats.iter().map(|s| s.recoveries).sum();
    for s in &stats {
        println!(
            "DP {} queries={} informs={} floods_sent={} records_merged={} recoveries={}",
            s.dp.0, s.queries, s.informs, s.floods_sent, s.records_merged, s.recoveries
        );
    }
    println!(
        "SPAWN_LOCAL_OK n={n_dps} placed={placed} random={random} \
         exchanges={exchanges} merged={merged} recoveries={recoveries}"
    );
    if n_dps > 1 {
        assert!(exchanges > 0, "a multi-point run must exchange state");
    }
    if args.flag("crash") && n_dps > 1 {
        assert!(recoveries > 0, "the respawned point must have recovered");
    }
}
