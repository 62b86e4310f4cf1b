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

use clusterd::{drive_workload, uniform_sites, LocalCluster, Server, ServerConfig, SpawnOpts};
use gruber_types::GridError::InvalidConfig;
use gruber_types::{refuse, CommandLine, DpId, GridResult, SimTime};
use obs::{Recorder, TraceConfig};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use workload::uslas::equal_shares;

const USAGE: &str = "usage:
  clusterd [--id N] [--n-dps N] [--listen ADDR]
           [--sites N] [--cpus N] [--vos N] [--groups N]
           [--data-dir DIR] [--snapshot-records N] [--sync-ms N]
           [--trace FILE] [--allow-crash-exit]
  clusterd --spawn-local N [--jobs N] [--crash] [--data-root DIR]
           [--trace-dir DIR] [--sites N] [--cpus N] [--vos N] [--groups N]";

/// The flags in [`USAGE`], each with whether it takes a value.
const FLAGS: &[(&str, bool)] = &[
    ("--id", true), ("--n-dps", true), ("--listen", true), ("--sites", true), ("--cpus", true),
    ("--vos", true), ("--groups", true), ("--data-dir", true), ("--snapshot-records", true),
    ("--sync-ms", true), ("--trace", true), ("--allow-crash-exit", false), ("--spawn-local", true),
    ("--jobs", true), ("--crash", false), ("--data-root", true), ("--trace-dir", true),
    ("--help", false),
];

fn main() {
    let args = CommandLine::parse(std::env::args().skip(1), FLAGS).and_then(|a| a.no_operands());
    let ran = args.and_then(|args| {
        if args.switch("--help") {
            println!("{USAGE}");
            return Ok(());
        }
        match args.size::<u32>("--spawn-local")? {
            Some(n_dps) => spawn_local(&args, n_dps as usize),
            None => serve(&args),
        }
    });
    if let Err(e) = ran {
        refuse("clusterd", &e);
    }
}

/// Serve one decision point until shutdown. Every setting is checked
/// before the point binds; an error after that exits 1.
fn serve(args: &CommandLine) -> GridResult<()> {
    let id = args.num("--id")?.unwrap_or(0);
    let n_dps = args.size("--n-dps")?.unwrap_or(1);
    if id >= n_dps {
        return Err(InvalidConfig(format!("--id {id} is not below --n-dps {n_dps}")));
    }
    let (vos, groups) = (args.size("--vos")?.unwrap_or(2), args.size("--groups")?.unwrap_or(2));
    let (sites, cpus) = (args.size("--sites")?.unwrap_or(4), args.size("--cpus")?.unwrap_or(16));
    let sites = uniform_sites(sites, cpus);
    let uslas = equal_shares(vos, groups)?;
    let mut cfg = ServerConfig::new(DpId(id), n_dps as usize, sites, uslas);
    if let Some(listen) = args.str("--listen") {
        cfg.listen = listen.to_string();
    }
    cfg.data_dir = args.str("--data-dir").map(PathBuf::from);
    cfg.snapshot_records = args.num("--snapshot-records")?.unwrap_or(0);
    let sync_ms: u32 = args.num("--sync-ms")?.unwrap_or(0);
    cfg.sync_interval = (sync_ms > 0).then(|| Duration::from_millis(u64::from(sync_ms)));
    cfg.allow_process_exit = args.switch("--allow-crash-exit");
    let trace_path = args.str("--trace").map(PathBuf::from);
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
    Ok(())
}

/// Fork an n-process loopback cluster, drive a workload, report.
fn spawn_local(args: &CommandLine, n_dps: usize) -> GridResult<()> {
    let bin = std::env::current_exe().expect("current_exe");
    let crash = args.switch("--crash");
    // A crash cycle needs durable state. Without `--data-root` it goes in
    // a directory of this run's own under the temp dir, removed at the end.
    let own_root = (crash && !args.switch("--data-root"))
        .then(|| std::env::temp_dir().join(format!("clusterd-{}", std::process::id())));
    let opts = SpawnOpts {
        n_dps,
        sites: args.size("--sites")?.unwrap_or(4),
        cpus: args.size("--cpus")?.unwrap_or(16),
        vos: args.size("--vos")?.unwrap_or(2),
        groups: args.size("--groups")?.unwrap_or(2),
        data_root: args.str("--data-root").map(PathBuf::from).or_else(|| own_root.clone()),
        snapshot_records: args.num("--snapshot-records")?.unwrap_or(0),
        trace_dir: args.str("--trace-dir").map(PathBuf::from),
    };
    let jobs = args.size("--jobs")?.unwrap_or(8);
    if let Some(dir) = &opts.trace_dir {
        std::fs::create_dir_all(dir).expect("create trace dir");
    }
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
    if crash && n_dps > 1 {
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
    if let Some(dir) = &own_root {
        if let Err(e) = std::fs::remove_dir_all(dir) {
            eprintln!("clusterd: removing {}: {e}", dir.display());
        }
    }

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
    if crash && n_dps > 1 {
        assert!(recoveries > 0, "the respawned point must have recovered");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_flag_is_never_taken_as_a_value() {
        // This used to store the WAL in `./--allow-crash-exit`.
        let argv = ["--data-dir", "--allow-crash-exit"].map(String::from);
        let refused = CommandLine::parse(argv, FLAGS).unwrap_err();
        assert_eq!(refused, InvalidConfig("--data-dir needs a value".into()));
    }
}
