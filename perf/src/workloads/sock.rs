//! `sock-query` and `sock-durable`: the sockets runtime. Two release
//! `clusterd` processes on the host's loopback interface, one client
//! thread alternating over its two connections.
//!
//! `sock-durable` is the same cluster with a `data_root`, so every
//! inform and every merged peer record is a `FileStore` append with its
//! own `sync_data`; its traced pass ends with crash → respawn cycles.
//!
//! As on `live-query` the run is a sequence of rounds, each a freshly
//! spawned cluster that is warmed up, timed for a fixed number of equal
//! slices, checked against its own counters and shut down: the points'
//! state grows with every inform, so only slices of identical rounds are
//! samples of one thing.

use super::{
    report_layers, sync_visible, Args, Counts, Outcome, RecordGen, TracedRun, CPUS_PER_SITE,
    GROUPS, MIN_ROUNDS, NO_SCHEDULER_PENDING, SITES, TIMEOUT, VOS,
};
use crate::kernels::SNAPSHOT_RECORDS;
use crate::span::{Spans, ROOT};
use crate::stats::{Metric, Slices};
use crate::sys;
use clusterd::{ClusterDpStats, LocalCluster, SpawnOpts};
use gruber_types::{DpId, SimTime};
use std::path::Path;
use std::time::{Duration, Instant};
use workload::uslas::equal_shares;

const N_DPS: usize = 2;
/// Crash → respawn → first answer cycles on point 1, and the queries
/// sent between two of them so each recovery has a fresh WAL to replay.
const RECOVERY_CYCLES: usize = 9;
const OPS_BETWEEN_CRASHES: usize = 256;

/// What differs between the two socket workloads.
struct Kind {
    durable: bool,
    /// A sync round is forced on every point after this many queries. It
    /// keeps every flood far below `simnet::codec::MAX_FRAME_BODY` (about
    /// 29 k records; the README says what happens above it). A slice is a
    /// whole number of sync periods, so every slice merges as many floods.
    sync_every: u64,
    slice_ops: usize,
    /// Timed slices of one round.
    round_slices: usize,
    warm_ops: usize,
    informs_per_query: usize,
}

/// Slices of 0.2 s (80 samples beyond a slice's 99th percentile), rounds
/// of 1.6 s and 64 k queries.
const QUERY: Kind = Kind {
    durable: false,
    sync_every: 4096,
    slice_ops: 8192,
    round_slices: 8,
    warm_ops: 4096,
    informs_per_query: 1,
};

/// Slices of 0.4 s (10 samples beyond the percentile), rounds of 2.4 s.
const DURABLE: Kind = Kind {
    durable: true,
    sync_every: 1024,
    slice_ops: 1024,
    round_slices: 6,
    warm_ops: 512,
    informs_per_query: 2,
};

struct System {
    cluster: LocalCluster,
    gen: RecordGen,
    started: Instant,
    spawn_ms: f64,
    kind: &'static Kind,
    /// Queries and informs sent since the cluster was spawned.
    queries: u64,
    informs: u64,
    failed: u64,
    /// Queries the run's earlier rounds sent: spans number requests
    /// through the whole run.
    earlier_queries: u64,
}

impl System {
    fn now(&self) -> SimTime {
        SimTime(self.started.elapsed().as_millis() as u64)
    }

    /// Sends `ops` queries, alternating over the two connections, each
    /// answered query followed by its informs; returns every query's wait.
    fn drive(&mut self, ops: usize, spans: &mut Spans) -> Vec<u64> {
        let mut call_ns = Vec::with_capacity(ops);
        for _ in 0..ops {
            let request = (self.earlier_queries + self.queries) as u32;
            let dp = DpId((self.queries % N_DPS as u64) as u32);
            self.queries += 1;
            let op = spans.enter("op", ROOT, request);
            let sent = Instant::now();
            let reply = spans.within("clusterd.client.query", op, request, || {
                self.cluster.query(dp, TIMEOUT)
            });
            call_ns.push(sent.elapsed().as_nanos() as u64);
            if matches!(reply, Ok(Some(free)) if free.len() == SITES as usize) {
                for _ in 0..self.kind.informs_per_query {
                    let record = self.gen.next(self.now());
                    let sent = spans.within("clusterd.client.inform", op, request, || {
                        self.cluster.inform(dp, &record)
                    });
                    self.informs += 1;
                    self.failed += u64::from(sent.is_err());
                }
            } else {
                self.failed += 1;
            }
            if self.queries.is_multiple_of(self.kind.sync_every) {
                let synced = spans.within("clusterd.client.force_sync", op, request, || {
                    self.cluster.force_sync()
                });
                self.failed += u64::from(synced.is_err());
            }
            spans.exit(op);
        }
        call_ns
    }

    /// Polls the points' statistics until every inform has been merged
    /// by every peer, or five seconds have passed.
    fn converged_stats(&self) -> Vec<ClusterDpStats> {
        let deadline = Instant::now() + TIMEOUT;
        loop {
            let stats: Vec<ClusterDpStats> = (0..N_DPS as u32)
                .filter_map(|dp| self.cluster.stats(DpId(dp), TIMEOUT).ok())
                .collect();
            let merged: u64 = stats.iter().map(|s| s.records_merged).sum();
            if merged >= self.informs * (N_DPS as u64 - 1) || Instant::now() > deadline {
                return stats;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

fn setup(kind: &'static Kind, args: &Args, ordinal: usize, earlier_queries: u64) -> System {
    let data_root = kind
        .durable
        .then(|| args.out_dir.join(format!("wal-{ordinal}")));
    let opts = SpawnOpts {
        n_dps: N_DPS,
        sites: SITES,
        cpus: CPUS_PER_SITE,
        vos: VOS,
        groups: GROUPS,
        data_root,
        snapshot_records: if kind.durable {
            SNAPSHOT_RECORDS as u32
        } else {
            0
        },
        trace_dir: None,
    };
    let started = Instant::now();
    let cluster = LocalCluster::spawn(&args.clusterd, opts).expect("spawn clusterd cluster");
    let mut system = System {
        cluster,
        gen: RecordGen::new(args.seed, 0, 0, 1),
        started,
        spawn_ms: started.elapsed().as_secs_f64() * 1e3,
        kind,
        queries: 0,
        informs: 0,
        failed: 0,
        earlier_queries,
    };
    system.drive(kind.warm_ops, &mut Spans::new(false, started, 0));
    system
}

/// Shuts the round's servers down (every one must exit 0) and removes
/// what they wrote.
fn teardown(out: &mut Outcome, system: System, out_dir: &Path) {
    let stopped = system.cluster.shutdown();
    out.check(stopped.is_ok(), || format!("shutdown: {stopped:?}"));
    if let Ok(dir) = std::fs::read_dir(out_dir) {
        for entry in dir.flatten() {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

/// Ends the timed part of a round: a final sync, then the points' own
/// counters against what the client sent.
fn settle(out: &mut Outcome, system: &System) -> Vec<ClusterDpStats> {
    let synced = system.cluster.force_sync();
    out.check(synced.is_ok(), || format!("final force_sync: {synced:?}"));
    let stats = system.converged_stats();
    let sum = |f: fn(&ClusterDpStats) -> u64| stats.iter().map(f).sum::<u64>();
    let (queries, informs, merged) = (system.queries, system.informs, sum(|s| s.records_merged));
    out.ops(
        queries + informs,
        system.failed,
        "queries, informs or syncs failed",
    );
    out.check(stats.len() == N_DPS, || {
        "a point did not report statistics".into()
    });
    out.check(sum(|s| s.queries) == queries, || {
        "points served a different number of queries".into()
    });
    out.check(sum(|s| s.informs) == informs, || {
        "points saw a different number of informs".into()
    });
    out.check(merged == informs * (N_DPS as u64 - 1), || {
        format!("records merged {merged} != informs {informs} x (n-1)")
    });
    out.check(
        sum(|s| s.flood_requeues) + sum(|s| s.decode_failures) == 0,
        || "floods were requeued or failed to decode".into(),
    );
    stats
}

/// Crashes point 1 (`exit(9)`), respawns it on its WAL directory and
/// queries it until it answers; the time from the crash to that answer
/// is how long an operator sees the point dark.
/// Returns the WAL records the recoveries replayed.
fn recovery_cycles(system: &mut System, spans: &mut Spans, out: &mut Outcome) -> u64 {
    let victim = DpId(1);
    let mut recovery_ms = Vec::new();
    let mut replayed = 0u64;
    for cycle in 0..RECOVERY_CYCLES as u32 {
        system.drive(
            OPS_BETWEEN_CRASHES,
            &mut Spans::new(false, system.started, 0),
        );
        let dark = Instant::now();
        let crashed = spans.within("clusterd.crash_reap", ROOT, cycle, || {
            system.cluster.crash(victim)
        });
        let respawned = spans.within("clusterd.respawn", ROOT, cycle, || {
            system.cluster.respawn(victim)
        });
        let answered = crashed.is_ok()
            && respawned.is_ok()
            && matches!(system.cluster.query(victim, TIMEOUT), Ok(Some(free)) if free.len() == SITES as usize);
        recovery_ms.push(dark.elapsed().as_secs_f64() * 1e3);
        out.check(answered, || {
            format!("recovery cycle {cycle}: {crashed:?} {respawned:?}")
        });
        if let Ok(stats) = system.cluster.stats(victim, TIMEOUT) {
            // A point snapshots once its WAL holds SNAPSHOT_RECORDS
            // operations, checked after each message; one flood can add a
            // sync period's informs to a WAL just below that.
            let kind = system.kind;
            let bound = SNAPSHOT_RECORDS as u64 + kind.sync_every * kind.informs_per_query as u64;
            replayed += stats.wal_records_replayed;
            out.check(
                stats.recoveries == 1 && stats.wal_records_replayed <= bound,
                || {
                    format!(
                        "recovery cycle {cycle}: recoveries {} replayed {}",
                        stats.recoveries, stats.wal_records_replayed
                    )
                },
            );
        } else {
            out.check(false, || format!("recovery cycle {cycle}: no stats"));
        }
    }
    out.put("recovery_ms", Metric::of(&mut recovery_ms, "ms"));
    replayed
}

fn run(kind: &'static Kind, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut spans = Spans::new(false, Instant::now(), 0);
    let mut slices = [Slices::default(), Slices::default()];
    let (mut setup_s, mut spawn_ms) = (Vec::new(), Vec::new());
    let mut sync_visible_us = None;
    let (mut server_rss_mb, mut client_rss_mb) = (0.0, 0.0);
    let (mut server_cpu_s, mut client_cpu_s, mut timed_queries) = (0.0, 0.0, 0u64);
    let mut lifetime_s = 0.0;
    let mut counts = Counts::default();
    let (mut server_queries, mut requeues, mut decode_failures) = (0, 0, 0);
    loop {
        let began = Instant::now();
        let mut system = setup(kind, args, setup_s.len(), counts.queries);
        setup_s.push(began.elapsed().as_secs_f64());
        spawn_ms.push(system.spawn_ms);
        let servers = sys::children("clusterd");
        out.check(servers.len() == N_DPS, || {
            format!("{} clusterd children", servers.len())
        });
        let server_cpu = || {
            servers
                .iter()
                .map(|&pid| sys::cpu_seconds(pid))
                .sum::<f64>()
        };

        // Once, while the grid still has free CPUs for an inform to take.
        if args.trace && sync_visible_us.is_none() {
            spans.set_on(true);
            let (cluster, started) = (&system.cluster, system.started);
            let seen = sync_visible(
                &mut out,
                &mut system.gen,
                || SimTime(started.elapsed().as_millis() as u64),
                |dp| cluster.query(dp, TIMEOUT).ok().flatten(),
                |dp, record| cluster.inform(dp, &record).is_ok(),
                |round| {
                    let sync = || cluster.force_sync().is_ok();
                    spans.within("clusterd.client.force_sync", ROOT, round, sync)
                },
            );
            system.queries += seen.queries;
            system.informs += seen.informs;
            sync_visible_us = Some(seen.p50_us);
        }

        let cpu_before = (server_cpu(), sys::cpu_seconds(std::process::id()));
        let queries_before = system.queries;
        for n in 0..kind.round_slices {
            let traced = args.trace && n % 2 == 1;
            spans.set_on(traced);
            let begun = Instant::now();
            let mut call_ns = system.drive(kind.slice_ops, &mut spans);
            let wall_s = begun.elapsed().as_secs_f64();
            slices[usize::from(traced)].push(call_ns.len() as u64, wall_s, &mut call_ns);
        }
        server_cpu_s += server_cpu() - cpu_before.0;
        client_cpu_s += sys::cpu_seconds(std::process::id()) - cpu_before.1;
        timed_queries += system.queries - queries_before;
        // Every round does the same work, so the first one's peak is the
        // run's; later rounds only add what the allocator keeps.
        if setup_s.len() == 1 {
            server_rss_mb = servers.iter().map(|&pid| sys::peak_rss_mb(pid)).sum();
            client_rss_mb = sys::peak_rss_mb(std::process::id());
        }

        let stats = settle(&mut out, &system);
        lifetime_s += system.started.elapsed().as_secs_f64();
        let sum = |f: fn(&ClusterDpStats) -> u64| stats.iter().map(f).sum::<u64>();
        let merged = sum(|s| s.records_merged);
        counts.queries += system.queries;
        counts.informs += system.informs;
        counts.sync_rounds += sum(|s| s.sync_rounds);
        counts.floods_sent += sum(|s| s.floods_sent);
        counts.records_flooded += sum(|s| s.records_flooded);
        counts.records_in += merged;
        counts.records_merged += merged;
        counts.client_informs += system.informs;
        // Each query crosses a FrameBuf twice (request, reply); informs
        // and floods once.
        counts.frames += 2 * system.queries + system.informs + sum(|s| s.floods_sent);
        if kind.durable {
            counts.wal_appends += sum(|s| s.informs) + merged + sum(|s| s.sync_rounds);
        }
        server_queries += sum(|s| s.queries);
        requeues += sum(|s| s.flood_requeues);
        decode_failures += sum(|s| s.decode_failures);

        let last =
            slices[0].wall_s + slices[1].wall_s >= args.seconds && setup_s.len() >= MIN_ROUNDS;
        if last && args.trace && kind.durable {
            spans.set_on(true);
            counts.wal_records_replayed = recovery_cycles(&mut system, &mut spans, &mut out);
        }
        teardown(&mut out, system, &args.out_dir);
        if last {
            break;
        }
    }
    out.notes.push(format!(
        "closed loop, 1 client thread over {N_DPS} connections on {} cores, loopback; \
         {} rounds of {} slices, {} queries per slice",
        sys::nproc(),
        setup_s.len(),
        kind.round_slices,
        kind.slice_ops
    ));

    if !args.trace {
        out.end_to_end(&mut setup_s, &mut slices[0], client_rss_mb + server_rss_mb);
        return out;
    }
    let run = TracedRun {
        sites: &clusterd::uniform_sites(SITES, CPUS_PER_SITE),
        uslas: &equal_shares(VOS, GROUPS).expect("valid shares"),
        n_dps: N_DPS,
        pending: NO_SCHEDULER_PENDING,
        counts,
        wall_s: lifetime_s,
        peak_rss_mb: client_rss_mb,
    };
    report_layers(
        &mut out,
        args,
        run,
        &mut slices,
        std::slice::from_ref(&spans),
    );

    let us = |name: &str| Metric::of(&mut spans.durations(name), "ns").scaled(1e-3, "us");
    let ms = |name: &str| Metric::of(&mut spans.durations(name), "ns").scaled(1e-6, "ms");
    out.put("clusterd.client.query_call_us", us("clusterd.client.query"));
    out.put(
        "clusterd.client.inform_call_us",
        us("clusterd.client.inform"),
    );
    out.put(
        "clusterd.client.force_sync_call_us",
        us("clusterd.client.force_sync"),
    );
    out.put(
        "clusterd.server_cpu_us_per_query",
        Metric::one(server_cpu_s * 1e6 / timed_queries as f64, "us"),
    );
    out.put(
        "clusterd.client_cpu_us_per_query",
        Metric::one(client_cpu_s * 1e6 / timed_queries as f64, "us"),
    );
    out.put("clusterd.spawn_ms", Metric::of(&mut spawn_ms, "ms"));
    if kind.durable {
        out.put("clusterd.respawn_ms", ms("clusterd.respawn"));
        out.put("clusterd.crash_reap_ms", ms("clusterd.crash_reap"));
    }
    out.put("clusterd.server.queries", Metric::count(server_queries));
    out.put("clusterd.server.flood_requeues", Metric::count(requeues));
    out.put(
        "clusterd.server.decode_failures",
        Metric::count(decode_failures),
    );
    let (own, total) = spans.self_time("op");
    out.put("client.self_share", Metric::one(own / total, "share"));
    out.put(
        "dpnode.sync_visible_p50_us",
        sync_visible_us.expect("traced run"),
    );
    out.put("server_peak_rss_mb", Metric::one(server_rss_mb, "MB"));
    out
}

pub fn query_run(args: &Args) -> Outcome {
    run(&QUERY, args)
}

pub fn durable_run(args: &Args) -> Outcome {
    run(&DURABLE, args)
}
