//! Live (threaded) deployment integration: the same brokering semantics as
//! the simulator. Queries and informs are typed locked calls on the
//! callers' threads; only the floods between points cross the real wire
//! codec.

use digruber::live::LiveCluster;
use gruber::DispatchRecord;
use gruber_types::{DpId, GroupId, JobId, SimDuration, SiteId, SiteSpec, VoId};
use std::time::{Duration, Instant};
use workload::uslas::equal_shares;

fn sites(n: u32, cpus: u32) -> Vec<SiteSpec> {
    (0..n).map(|i| SiteSpec::single_cluster(SiteId(i), cpus)).collect()
}

fn record(job: u32, site: u32, cpus: u32, cluster: &LiveCluster) -> DispatchRecord {
    let now = cluster.now();
    DispatchRecord {
        job: JobId(job),
        site: SiteId(site),
        vo: VoId(0),
        group: GroupId(0),
        cpus,
        dispatched_at: now,
        est_finish: now + SimDuration::from_secs(3600),
    }
}

/// Polls `probe` until it returns true or the deadline passes.
fn eventually(deadline: Duration, mut probe: impl FnMut() -> bool) -> bool {
    let end = Instant::now() + deadline;
    while Instant::now() < end {
        if probe() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

#[test]
fn views_converge_across_the_mesh() {
    let cluster = LiveCluster::start(
        4,
        sites(6, 10),
        &equal_shares(2, 2).unwrap(),
        Duration::from_millis(25),
    );
    // Spread informs across all four points.
    for j in 0..12u32 {
        cluster.inform(DpId(j % 4), record(j, j % 6, 1, &cluster));
    }
    // Every point must converge to the same global picture: 12 CPUs busy.
    let converged = eventually(Duration::from_secs(10), || {
        (0..4).all(|d| {
            cluster
                .query(DpId(d), Duration::from_secs(5))
                .map(|free| free.iter().sum::<u32>() == 60 - 12)
                .unwrap_or(false)
        })
    });
    assert!(converged, "mesh never converged");
    let stats = cluster.shutdown();
    // Each point merged the 9 records the other three produced.
    for s in &stats {
        assert_eq!(s.records_merged, 9, "{s:?}");
    }
}

#[test]
fn duplicate_floods_are_idempotent() {
    let cluster = LiveCluster::start(
        2,
        sites(2, 16),
        &equal_shares(2, 2).unwrap(),
        Duration::from_secs(3600),
    );
    cluster.inform(DpId(0), record(1, 0, 4, &cluster));
    // Force several sync rounds; the single record must be applied once.
    for _ in 0..5 {
        cluster.force_sync();
        std::thread::sleep(Duration::from_millis(20));
    }
    let ok = eventually(Duration::from_secs(10), || {
        cluster
            .query(DpId(1), Duration::from_secs(5))
            .map(|f| f[0] == 12)
            .unwrap_or(false)
    });
    assert!(ok, "peer never saw the record exactly once");
    let stats = cluster.shutdown();
    assert_eq!(stats[1].records_merged, 1);
}

/// Enough locked calls (a query and an inform each, from eight threads)
/// that a lost or doubled step shows in the counts.
#[test]
fn live_queries_are_concurrent_safe() {
    const PER_THREAD: u32 = 2_500;
    let cluster = std::sync::Arc::new(LiveCluster::start(
        2,
        sites(4, 8),
        &equal_shares(2, 2).unwrap(),
        Duration::from_millis(50),
    ));
    std::thread::scope(|scope| {
        for t in 0..8u32 {
            let cluster = std::sync::Arc::clone(&cluster);
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    let dp = DpId((t + i) % 2);
                    let free = cluster.query(dp, Duration::from_secs(10)).expect("query");
                    assert_eq!(free.len(), 4);
                    cluster.inform(dp, record(t * PER_THREAD + i, i % 4, 1, &cluster));
                }
            });
        }
    });
    let stats = std::sync::Arc::try_unwrap(cluster)
        .ok()
        .expect("sole owner")
        .shutdown();
    let queries: u64 = stats.iter().map(|s| s.queries).sum();
    let informs: u64 = stats.iter().map(|s| s.informs).sum();
    assert_eq!((queries, informs), (20_000, 20_000));
}

/// `Instant::now() + Duration::MAX` overflows; it used to panic.
#[test]
fn a_max_timeout_query_is_answered() {
    let cluster = LiveCluster::start(
        1,
        sites(2, 8),
        &equal_shares(2, 2).unwrap(),
        Duration::from_secs(3600),
    );
    assert_eq!(cluster.query(DpId(0), Duration::MAX), Some(vec![8, 8]));
    cluster.shutdown();
}

#[test]
fn threaded_workload_drives_the_full_stack() {
    use digruber::live::drive_workload;
    use std::sync::Mutex;

    let sites = sites(10, 64); // 640 CPUs
    let grid = Mutex::new(
        gridemu::Grid::new(sites.clone(), gridemu::SitePolicy::permissive()).unwrap(),
    );
    let cluster = LiveCluster::start(
        3,
        sites,
        &equal_shares(2, 2).unwrap(),
        Duration::from_millis(20),
    );

    let stats = drive_workload(&cluster, &grid, 8, 50, Duration::from_secs(10), 77);
    cluster.shutdown();

    let total = stats.placed_via_broker + stats.placed_randomly + stats.rejected;
    assert_eq!(total, 400, "every job accounted for: {stats:?}");
    // A healthy local cluster answers essentially everything in time.
    assert!(
        stats.placed_via_broker > 350,
        "broker answered too little: {stats:?}"
    );
    // Ground truth agrees with the placement count (1-CPU jobs, none
    // completed during the run).
    let g = grid.lock().expect("no client panicked");
    let busy: u64 = 640 - g.idle_cpus();
    assert_eq!(
        busy,
        stats.placed_via_broker + stats.placed_randomly,
        "grid busy CPUs diverge from placements"
    );
    g.check_invariants();
}

/// `snapshot_records = 0` means *never snapshot* — in every runtime
/// ([`dpstore::SnapshotPolicy::records`]). The thread runtime used to read
/// it as "after every message", truncating the WAL each time, so a
/// recovery had (at most) one operation left to replay.
#[test]
fn zero_snapshot_records_means_wal_only_recovery() {
    const N: u32 = 12;
    let cluster = LiveCluster::start_persistent(
        2,
        sites(4, 64),
        &equal_shares(2, 2).unwrap(),
        Duration::from_secs(3600), // ticker effectively off
        0,
    );
    // Channel FIFO orders informs → sync → crash → restore on point 0.
    for j in 0..N {
        cluster.inform(DpId(0), record(j, j % 4, 1, &cluster));
    }
    cluster.force_sync();
    cluster.crash(DpId(0));
    cluster.restore(DpId(0));
    let free = cluster
        .query(DpId(0), Duration::from_secs(5))
        .expect("restored point answers");
    assert_eq!(free.iter().sum::<u32>(), 4 * 64 - N, "the view came back");
    let stats = cluster.shutdown();
    assert_eq!(stats[0].recoveries, 1);
    // Every appended operation replays: N own informs plus the drain.
    assert_eq!(stats[0].wal_records_replayed, u64::from(N) + 1, "{:?}", stats[0]);
}

/// A crashed point answers nothing, and says so at once: the query is a
/// step on the caller's thread, not a wait for a reply that never comes.
#[test]
fn a_query_to_a_crashed_point_returns_none_at_once() {
    let cluster = LiveCluster::start(
        2,
        sites(2, 8),
        &equal_shares(2, 2).unwrap(),
        Duration::from_secs(3600),
    );
    cluster.crash(DpId(1));
    let asked = Instant::now();
    assert_eq!(cluster.query(DpId(1), Duration::from_secs(5)), None);
    let waited = asked.elapsed();
    assert!(waited < Duration::from_millis(50), "waited {waited:?}");
    cluster.restore(DpId(1));
    assert_eq!(
        cluster.query(DpId(1), Duration::from_secs(5)),
        Some(vec![8, 8])
    );
    cluster.shutdown();
}

/// A thread never holds two points' locks: a flood enters its peer only
/// after the sender's lock is released. So two threads running sync
/// rounds while two clients query and inform both points can neither
/// deadlock nor lose or double-count a step or a record.
#[test]
fn two_tickers_and_clients_on_both_points_lose_nothing() {
    use std::sync::atomic::{AtomicBool, Ordering};
    const ROUNDS: u32 = 10_000;
    let cluster = LiveCluster::start(
        2,
        sites(4, 1_000_000),
        &equal_shares(2, 2).unwrap(),
        Duration::from_secs(3600),
    );
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                while !done.load(Ordering::Relaxed) {
                    cluster.force_sync();
                }
            });
        }
        let clients: Vec<_> = (0..2u32)
            .map(|t| {
                let cluster = &cluster;
                scope.spawn(move || {
                    for k in 0..ROUNDS {
                        let dp = DpId((t + k) % 2);
                        let free = cluster.query(dp, Duration::from_secs(10));
                        assert_eq!(free.map(|free| free.len()), Some(4));
                        cluster.inform(dp, record(t * ROUNDS + k, k % 4, 1, cluster));
                    }
                })
            })
            .collect();
        for client in clients {
            client.join().expect("client thread");
        }
        done.store(true, Ordering::Relaxed);
    });
    cluster.force_sync();
    let stats = cluster.shutdown();
    let sum = |f: fn(&digruber::live::LiveDpStats) -> u64| stats.iter().map(f).sum::<u64>();
    let total = u64::from(2 * ROUNDS);
    assert_eq!((sum(|s| s.queries), sum(|s| s.informs)), (total, total));
    assert_eq!(stats[0].records_merged, stats[1].informs);
    assert_eq!(stats[1].records_merged, stats[0].informs);
    assert_eq!(sum(|s| s.decode_failures), 0);
}
