//! `live-query`: the threads runtime. Two closed-loop client threads,
//! one per decision point, each query followed by one inform.
//!
//! The run is a sequence of rounds. A round starts a fresh cluster, warms
//! it up, times a fixed number of equal slices and checks the cluster's
//! counters. A point's state grows with every inform and its speed drops
//! with it (162 k queries/s for the first 1.8 M queries of a cluster,
//! 138 k after), so slices of one long-lived cluster are not samples of
//! one thing; slices at the same place of identical rounds are.

use super::{
    report_layers, sync_visible, Args, Counts, Outcome, RecordGen, TracedRun, CPUS_PER_SITE,
    GROUPS, MIN_ROUNDS, NO_SCHEDULER_PENDING, SITES, TIMEOUT, VOS,
};
use crate::span::{Spans, ROOT};
use crate::stats::{Metric, Slices};
use crate::sys;
use digruber::live::{LiveCluster, LiveDpStats};
use gruber_types::DpId;
use std::time::{Duration, Instant};
use workload::uslas::equal_shares;

const N_DPS: usize = 2;
/// One client thread per decision point, so both mailboxes are in use.
/// The process is pinned to one CPU (`sys::pin_to_one_cpu`): on two
/// virtual CPUs the rate of this loop followed thread placement, 50 k to
/// 320 k queries/s from slice to slice of one run.
const CLIENTS: usize = 2;
/// Queries each client sends in one slice: about 0.3 s, three sync ticks,
/// so no slice escapes the flood merges, and 500 samples beyond a slice's
/// 99th percentile.
const SLICE_OPS: usize = 25_000;
/// Timed slices of one round (2 s, 300 k queries).
const ROUND_SLICES: usize = 6;
/// Queries each client sends in a set-up's warm-up.
const WARM_OPS: usize = 10_000;
const TICK: Duration = Duration::from_millis(100);

struct System {
    cluster: LiveCluster,
    gens: Vec<RecordGen>,
    started: Instant,
    /// Queries and informs sent since the cluster started.
    queries: u64,
    informs: u64,
    /// Queries the run's earlier rounds sent: spans number requests
    /// through the whole run.
    earlier_queries: u64,
}

/// What one slice of one client produced.
struct ClientSlice {
    call_ns: Vec<u64>,
    failed: u64,
}

fn client_loop(
    cluster: &LiveCluster,
    dp: DpId,
    gen: &mut RecordGen,
    spans: &mut Spans,
    ops: usize,
    first_request: u32,
) -> ClientSlice {
    let mut call_ns = Vec::with_capacity(ops);
    let mut failed = 0;
    for k in 0..ops as u32 {
        let request = first_request + k;
        let op = spans.enter("op", ROOT, request);
        let sent = Instant::now();
        let reply = spans.within("core.live.query", op, request, || {
            cluster.query(dp, TIMEOUT)
        });
        call_ns.push(sent.elapsed().as_nanos() as u64);
        if reply.is_some_and(|free| free.len() == SITES as usize) {
            let record = gen.next(cluster.now());
            spans.within("core.live.inform", op, request, || {
                cluster.inform(dp, record)
            });
        } else {
            failed += 1;
        }
        spans.exit(op);
    }
    ClientSlice { call_ns, failed }
}

impl System {
    /// Every client sends `ops` queries; returns the slice's wall time,
    /// the wait of every query in it and how many went unanswered.
    fn slice(&mut self, ops: usize, spans: &mut [Spans]) -> (f64, Vec<u64>, u64) {
        let first_request = ((self.earlier_queries + self.queries) / CLIENTS as u64) as u32;
        let cluster = &self.cluster;
        let begun = Instant::now();
        let per_client: Vec<ClientSlice> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .gens
                .iter_mut()
                .zip(spans.iter_mut())
                .enumerate()
                .map(|(t, (gen, spans))| {
                    let dp = DpId((t % N_DPS) as u32);
                    scope.spawn(move || client_loop(cluster, dp, gen, spans, ops, first_request))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let wall_s = begun.elapsed().as_secs_f64();
        let failed: u64 = per_client.iter().map(|c| c.failed).sum();
        let call_ns: Vec<u64> = per_client.into_iter().flat_map(|c| c.call_ns).collect();
        self.queries += call_ns.len() as u64;
        self.informs += call_ns.len() as u64 - failed;
        (wall_s, call_ns, failed)
    }
}

fn setup(seed: u64, earlier_queries: u64) -> System {
    let sites = clusterd::uniform_sites(SITES, CPUS_PER_SITE);
    let uslas = equal_shares(VOS, GROUPS).expect("valid shares");
    let started = Instant::now();
    let mut system = System {
        cluster: LiveCluster::start(N_DPS, sites, &uslas, TICK),
        gens: (0..CLIENTS as u32)
            .map(|t| RecordGen::new(seed, u64::from(t), t, CLIENTS as u32))
            .collect(),
        started,
        queries: 0,
        informs: 0,
        earlier_queries,
    };
    let mut off: Vec<Spans> = (0..CLIENTS)
        .map(|t| Spans::new(false, started, t as u32))
        .collect();
    system.slice(WARM_OPS, &mut off);
    system
}

/// Ends a round: a final sync, then the cluster's own counters against
/// what the clients sent. Returns the points' statistics and how long
/// the cluster lived.
fn finish(out: &mut Outcome, mut system: System) -> (Vec<LiveDpStats>, f64) {
    // A round of queries proves every point has processed its tick (and
    // so sent its flood); a second round, queued behind those floods,
    // proves every point has merged what it was sent.
    system.cluster.force_sync();
    for _ in 0..2 {
        for dp in 0..N_DPS as u32 {
            system.queries += 1;
            let ok = system.cluster.query(DpId(dp), TIMEOUT).is_some();
            out.check(ok, || "final barrier query timed out".into());
        }
    }
    let lifetime_s = system.started.elapsed().as_secs_f64();
    let (queries, informs) = (system.queries, system.informs);
    let stats = system.cluster.shutdown();
    let sum = |f: fn(&LiveDpStats) -> u64| stats.iter().map(f).sum::<u64>();
    let merged = sum(|s| s.records_merged);
    out.check(stats.len() == N_DPS, || {
        "a decision-point thread panicked".into()
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
    (stats, lifetime_s)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let epoch = Instant::now();
    let mut spans: Vec<Spans> = (0..CLIENTS)
        .map(|t| Spans::new(false, epoch, t as u32))
        .collect();
    let mut main_spans = Spans::new(args.trace, epoch, CLIENTS as u32);

    let mut slices = [Slices::default(), Slices::default()];
    let mut setup_s = Vec::new();
    let mut sync_visible_us = None;
    let mut peak_rss_mb = 0.0;
    let (mut cpu_s, mut timed_queries, mut lifetime_s) = (0.0, 0u64, 0.0);
    let mut counts = Counts::default();
    while slices[0].wall_s + slices[1].wall_s < args.seconds || setup_s.len() < MIN_ROUNDS {
        let began = Instant::now();
        let mut system = setup(args.seed, counts.queries);
        setup_s.push(began.elapsed().as_secs_f64());

        // Once, while the grid still has free CPUs for an inform to take.
        if args.trace && sync_visible_us.is_none() {
            let cluster = &system.cluster;
            let seen = sync_visible(
                &mut out,
                &mut system.gens[0],
                || cluster.now(),
                |dp| cluster.query(dp, TIMEOUT),
                |dp, record| {
                    cluster.inform(dp, record);
                    true
                },
                |round| {
                    main_spans.within("core.live.force_sync", ROOT, round, || cluster.force_sync());
                    true
                },
            );
            system.queries += seen.queries;
            system.informs += seen.informs;
            sync_visible_us = Some(seen.p50_us);
        }

        let cpu_before = sys::cpu_seconds(std::process::id());
        let queries_before = system.queries;
        for n in 0..ROUND_SLICES {
            let traced = args.trace && n % 2 == 1;
            spans.iter_mut().for_each(|s| s.set_on(traced));
            let (wall_s, mut call_ns, failed) = system.slice(SLICE_OPS, &mut spans);
            out.ops(
                call_ns.len() as u64,
                failed,
                "queries went unanswered or were short",
            );
            slices[usize::from(traced)].push(call_ns.len() as u64, wall_s, &mut call_ns);
        }
        cpu_s += sys::cpu_seconds(std::process::id()) - cpu_before;
        timed_queries += system.queries - queries_before;
        // Every round does the same work, so the first one's peak is the
        // run's; later rounds only add what the allocator keeps.
        if setup_s.len() == 1 {
            peak_rss_mb = sys::peak_rss_mb(std::process::id());
        }

        let informs = system.informs;
        let (stats, lived_s) = finish(&mut out, system);
        let sum = |f: fn(&LiveDpStats) -> u64| stats.iter().map(f).sum::<u64>();
        lifetime_s += lived_s;
        counts.queries += sum(|s| s.queries);
        counts.informs += informs;
        counts.sync_rounds += sum(|s| s.sync_rounds);
        counts.floods_sent += sum(|s| s.floods_sent);
        counts.records_flooded += informs;
        counts.records_in += sum(|s| s.records_merged);
        counts.records_merged += sum(|s| s.records_merged);
        counts.client_informs += informs;
    }
    out.notes.push(format!(
        "closed loop, {CLIENTS} client threads on {} cores; {} rounds of {ROUND_SLICES} slices, \
         {SLICE_OPS} queries per client per slice",
        sys::nproc(),
        setup_s.len(),
    ));

    if !args.trace {
        out.end_to_end(&mut setup_s, &mut slices[0], peak_rss_mb);
        return out;
    }
    spans.push(main_spans);
    let run = TracedRun {
        sites: &clusterd::uniform_sites(SITES, CPUS_PER_SITE),
        uslas: &equal_shares(VOS, GROUPS).expect("valid shares"),
        n_dps: N_DPS,
        pending: NO_SCHEDULER_PENDING,
        counts,
        wall_s: lifetime_s,
        peak_rss_mb,
    };
    report_layers(&mut out, args, run, &mut slices, &spans);
    let all = |name: &str| -> Vec<f64> { spans.iter().flat_map(|s| s.durations(name)).collect() };
    let us = |name: &str| Metric::of(&mut all(name), "ns").scaled(1e-3, "us");
    out.put("core.live.query_call_us", us("core.live.query"));
    out.put(
        "core.live.inform_call_ns",
        Metric::of(&mut all("core.live.inform"), "ns"),
    );
    out.put("core.live.force_sync_call_us", us("core.live.force_sync"));
    out.put(
        "core.live.cpu_us_per_query",
        Metric::one(cpu_s * 1e6 / timed_queries as f64, "us"),
    );
    let (own, total) = spans
        .iter()
        .map(|s| s.self_time("op"))
        .fold((0.0, 0.0), |a, b| (a.0 + b.0, a.1 + b.1));
    out.put("client.self_share", Metric::one(own / total, "share"));
    out.put(
        "dpnode.sync_visible_p50_us",
        sync_visible_us.expect("traced run"),
    );
    out
}
