//! Sim/live/socket equivalence: one protocol state machine, three drivers.
//!
//! The same input script — dispatch informs with *fixed* timestamps, two
//! sync rounds, and availability queries — runs through (a) the
//! discrete-event driver (`desim` scheduler delivering effects at
//! simulated times), (b) the live thread cluster (`digruber::live`,
//! real OS threads + crossbeam channels), and (c) the socket cluster
//! (`clusterd`, one OS process per point exchanging `simnet::codec`
//! frames over loopback TCP). Because all three drivers host the
//! identical [`dpnode::DpNode`] state machine and ship the identical
//! `simnet::codec` wire bytes, every protocol-visible observable must
//! match exactly:
//!
//! - per-point flood hashes (FNV-1a over each flood payload's wire bytes,
//!   in order) — proves the *bytes on the wire* are identical,
//! - per-point protocol counters (informs, sync rounds, per-peer sends,
//!   fresh records merged),
//! - the final availability views each point reports to a query.
//!
//! Query counts are deliberately excluded: the live side polls with real
//! queries to await convergence, so its count is timing-dependent.

use std::time::{Duration, Instant};

use desim::Simulation;
use dpnode::{Dissemination, DpNode, DpNodeStats, Effect, Input, NodeConfig, Topology};
use gruber::DispatchRecord;
use gruber_types::{DpId, GroupId, JobId, SimDuration, SimTime, SiteId, SiteSpec, VoId};
use workload::uslas::equal_shares;

const N_DPS: usize = 3;

fn sites() -> Vec<SiteSpec> {
    (0..4)
        .map(|i| SiteSpec::single_cluster(SiteId(i), 16))
        .collect()
}

/// A dispatch record with fixed timestamps: both drivers must feed the
/// node byte-identical records or the flood hashes cannot match.
fn record(job: u32, site: u32, cpus: u32) -> DispatchRecord {
    let at = SimTime::from_secs(u64::from(job));
    DispatchRecord {
        job: JobId(job),
        site: SiteId(site),
        vo: VoId(job % 2),
        group: GroupId(0),
        cpus,
        dispatched_at: at,
        est_finish: at + SimDuration::from_secs(1_000_000),
    }
}

/// The shared script. Two rounds: jobs 1–3 land before the first sync,
/// job 4 between the first and second.
fn round1_informs() -> Vec<(usize, DispatchRecord)> {
    vec![
        (0, record(1, 0, 4)),
        (0, record(2, 1, 2)),
        (1, record(3, 2, 8)),
    ]
}

fn round2_informs() -> Vec<(usize, DispatchRecord)> {
    vec![(2, record(4, 3, 1))]
}

/// Everything the script observes from one decision point.
#[derive(Debug, PartialEq)]
struct Observed {
    informs: u64,
    sync_rounds: u64,
    floods_sent: u64,
    records_merged: u64,
    flood_hash: u64,
    final_view: Vec<u32>,
}

/// Drives one zero-latency sync round across all nodes: every node gets a
/// `SyncTick`, and each `FloodTo` payload is handed to its peers in place
/// (flood payloads carry only the sender's own drained log, so delivery
/// order between peers cannot change what anyone sends).
fn sim_sync_round(nodes: &mut [DpNode], now: SimTime) {
    let n_dps = nodes.len();
    let mut fx = Vec::new();
    for i in 0..n_dps {
        nodes[i].handle(now, Input::SyncTick { n_dps }, &mut fx);
        let effects: Vec<Effect> = std::mem::take(&mut fx);
        for effect in effects {
            if let Effect::FloodTo { peers, payload } = effect {
                let mut fx2 = Vec::new();
                for j in peers {
                    nodes[j].handle(now, Input::PeerRecords(payload.clone()), &mut fx2);
                    fx2.clear();
                }
            }
        }
    }
}

/// Runs the script under the discrete-event driver.
fn run_sim_side() -> Vec<Observed> {
    let uslas = equal_shares(2, 2).unwrap();
    let nodes: Vec<DpNode> = (0..N_DPS)
        .map(|i| {
            DpNode::new(
                NodeConfig {
                    id: DpId(i as u32),
                    topology: Topology::FullMesh,
                    dissemination: Dissemination::UsageOnly,
                    sync_every: None,
                    gossip_seed: 0,
                    persist: false,
                },
                &sites(),
                &uslas,
            )
        })
        .collect();

    let mut sim = Simulation::new(nodes);
    for (dp, rec) in round1_informs() {
        let at = rec.dispatched_at;
        sim.scheduler().schedule_at(at, move |nodes: &mut Vec<DpNode>, _| {
            let mut fx = Vec::new();
            nodes[dp].handle(at, Input::Inform(rec), &mut fx);
        });
    }
    sim.scheduler()
        .schedule_at(SimTime::from_secs(10), |nodes: &mut Vec<DpNode>, _| {
            sim_sync_round(nodes, SimTime::from_secs(10));
        });
    for (dp, rec) in round2_informs() {
        let at = SimTime::from_secs(15);
        sim.scheduler().schedule_at(at, move |nodes: &mut Vec<DpNode>, _| {
            let mut fx = Vec::new();
            nodes[dp].handle(at, Input::Inform(rec), &mut fx);
        });
    }
    sim.scheduler()
        .schedule_at(SimTime::from_secs(20), |nodes: &mut Vec<DpNode>, _| {
            sim_sync_round(nodes, SimTime::from_secs(20));
        });
    sim.run_to_completion(1_000);

    let t_end = SimTime::from_secs(21);
    let mut nodes = sim.into_world();
    let mut out = Vec::new();
    for node in &mut nodes {
        // Observe the final view the way a client would: with a query.
        let mut fx = Vec::new();
        node.handle(t_end, Input::QueryArrived { admission: None }, &mut fx);
        let Some(Effect::Reply { free, .. }) = fx.pop() else {
            panic!("query produced no reply");
        };
        let s: DpNodeStats = node.stats();
        out.push(Observed {
            informs: s.informs,
            sync_rounds: s.sync_rounds,
            floods_sent: s.floods_sent,
            records_merged: s.records_merged,
            flood_hash: s.flood_hash,
            final_view: free,
        });
    }
    out
}

/// Runs the identical script under the live thread driver. Per-point
/// ordering (informs before the sync tick) is guaranteed by channel FIFO;
/// cross-point convergence is awaited by polling real queries.
fn run_live_side() -> Vec<Observed> {
    use digruber::live::LiveCluster;

    let uslas = equal_shares(2, 2).unwrap();
    // Ticker interval is effectively infinite: the script forces both
    // sync rounds explicitly, like the sim side's scheduled ticks.
    let cluster = LiveCluster::start(N_DPS, sites(), &uslas, Duration::from_secs(3600));

    let await_views = |expect: &[Vec<u32>]| -> Vec<Vec<u32>> {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let views: Vec<Vec<u32>> = (0..N_DPS)
                .map(|i| {
                    cluster
                        .query(DpId(i as u32), Duration::from_secs(5))
                        .expect("live query timed out")
                })
                .collect();
            if views == expect {
                return views;
            }
            assert!(
                Instant::now() < deadline,
                "live cluster never reached {expect:?}, last saw {views:?}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    };

    for (dp, rec) in round1_informs() {
        cluster.inform(DpId(dp as u32), rec);
    }
    // FIFO puts the tick behind the informs on every point's channel.
    cluster.force_sync();
    await_views(&vec![vec![12, 14, 8, 16]; N_DPS]);

    for (dp, rec) in round2_informs() {
        cluster.inform(DpId(dp as u32), rec);
    }
    cluster.force_sync();
    let final_views = await_views(&vec![vec![12, 14, 8, 15]; N_DPS]);

    let stats = cluster.shutdown();
    stats
        .into_iter()
        .zip(final_views)
        .map(|(s, final_view)| Observed {
            informs: s.informs,
            sync_rounds: s.sync_rounds,
            floods_sent: s.floods_sent,
            records_merged: s.records_merged,
            flood_hash: s.flood_hash,
            final_view,
        })
        .collect()
}

/// Runs the identical script over real TCP: an n-process loopback
/// cluster of `clusterd` serve-mode children. Per-point ordering
/// (informs before the sync control frame) is guaranteed by the
/// connection's byte stream; cross-point convergence is awaited by
/// polling real queries, exactly like the live side.
fn run_socket_side(opts: clusterd::SpawnOpts, crash_between_rounds: bool) -> Vec<Observed> {
    use clusterd::{dev_binary, LocalCluster};

    let mut cluster = LocalCluster::spawn(&dev_binary(), opts).expect("spawn socket cluster");

    let await_views = |cluster: &LocalCluster, expect: &[Vec<u32>]| {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let views: Vec<Vec<u32>> = (0..N_DPS)
                .map(|i| {
                    cluster
                        .query(DpId(i as u32), Duration::from_secs(5))
                        .expect("socket query io error")
                        .expect("socket query timed out")
                })
                .collect();
            if views == expect {
                return views;
            }
            assert!(
                Instant::now() < deadline,
                "socket cluster never reached {expect:?}, last saw {views:?}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    };

    for (dp, rec) in round1_informs() {
        cluster.inform(DpId(dp as u32), &rec).expect("inform");
    }
    // Stream FIFO puts the sync frame behind the informs on every point.
    cluster.force_sync().expect("sync");
    await_views(&cluster, &vec![vec![12, 14, 8, 16]; N_DPS]);

    if crash_between_rounds {
        // Kill the process (`exit(9)`, no cleanup), then respawn it on a
        // fresh port against the same WAL/snapshot directory. Convergence
        // above guarantees its store already journaled everything round
        // one applied; respawn rebroadcasts the peer table.
        cluster.crash(DpId(1)).expect("crash dp1");
        cluster.respawn(DpId(1)).expect("respawn dp1");
    }

    for (dp, rec) in round2_informs() {
        cluster.inform(DpId(dp as u32), &rec).expect("inform");
    }
    cluster.force_sync().expect("sync");
    let final_views = await_views(&cluster, &vec![vec![12, 14, 8, 15]; N_DPS]);

    let stats: Vec<_> = (0..N_DPS)
        .map(|i| {
            cluster
                .stats(DpId(i as u32), Duration::from_secs(5))
                .expect("socket stats")
        })
        .collect();
    cluster.shutdown().expect("clean socket shutdown");
    if crash_between_rounds {
        assert_eq!(stats[1].recoveries, 1, "the respawned process recovered");
        // The snapshot policy truncates the WAL, so the tail can be empty
        // at crash time; recovery must have restored state either way.
        assert!(
            stats[1].wal_records_replayed > 0 || stats[1].informs > 0,
            "recovery restored state from the on-disk store: {:?}",
            stats[1]
        );
    }
    stats
        .into_iter()
        .zip(final_views)
        .map(|(s, final_view)| Observed {
            informs: s.informs,
            sync_rounds: s.sync_rounds,
            floods_sent: s.floods_sent,
            records_merged: s.records_merged,
            flood_hash: s.flood_hash,
            final_view,
        })
        .collect()
}

#[test]
fn same_script_same_observables_across_drivers() {
    let sim = run_sim_side();
    let live = run_live_side();
    let sockets = run_socket_side(clusterd::SpawnOpts::small(N_DPS), false);
    assert_eq!(
        sim, live,
        "sim and live drivers diverged over the identical input script"
    );
    assert_eq!(
        sim, sockets,
        "sim and socket drivers diverged over the identical input script"
    );

    // Pin the expected values so a symmetric bug in both runtimes cannot
    // hide behind the equality check.
    let expect_hash_default = DpNodeStats::default().flood_hash;
    for (i, o) in sim.iter().enumerate() {
        assert_eq!(o.sync_rounds, 1, "dp{i}: one payload-producing round");
        assert_eq!(o.floods_sent, 2, "dp{i}: two mesh peers");
        assert_ne!(o.flood_hash, expect_hash_default, "dp{i}: hash untouched");
    }
    assert_eq!(sim[0].informs, 2);
    assert_eq!(sim[1].informs, 1);
    assert_eq!(sim[2].informs, 1);
    assert_eq!(sim[0].records_merged, 2, "dp0 merges jobs 3 and 4");
    assert_eq!(sim[1].records_merged, 3, "dp1 merges jobs 1, 2, 4");
    assert_eq!(sim[2].records_merged, 3, "dp2 merges jobs 1, 2, 3");
    assert_eq!(sim[0].final_view, vec![12, 14, 8, 15]);

    // Distinct points flooded distinct payloads.
    assert_ne!(sim[0].flood_hash, sim[1].flood_hash);
    assert_ne!(sim[1].flood_hash, sim[2].flood_hash);
}

// ---------------------------------------------------------------------------
// Crash/restore with persistence: the same script, but point 1 crashes
// between the two rounds and is rebuilt from its WAL + snapshot. Both
// drivers must recover it to byte-identical flood hashes and equal views.
// ---------------------------------------------------------------------------

use dpstore::{SimStore, Store as _};

/// Snapshot once the WAL holds this many operations: small enough that the
/// crashed point recovers through a snapshot *and* a WAL tail, so the test
/// exercises both halves of the recovery path.
const SNAPSHOT_RECORDS: u32 = 3;

fn persist_cfg(i: usize) -> NodeConfig {
    NodeConfig {
        id: DpId(i as u32),
        topology: Topology::FullMesh,
        dissemination: Dissemination::UsageOnly,
        sync_every: None,
        gossip_seed: 0,
        persist: true,
    }
}

/// The discrete-event world for the persistent scenario: the nodes plus
/// each point's durable store (the driver owns I/O, the node never sees
/// it).
struct PersistWorld {
    nodes: Vec<DpNode>,
    stores: Vec<SimStore>,
}

/// Appends any `Persist` effects to the point's store, then snapshots on
/// the same record-count policy the live thread driver applies.
fn absorb_persist(w: &mut PersistWorld, i: usize, at: SimTime, fx: &mut Vec<Effect>) {
    for effect in fx.drain(..) {
        if let Effect::Persist(op) = effect {
            w.stores[i].append(at, &op);
        }
    }
    if w.stores[i].wal_len() >= SNAPSHOT_RECORDS as usize {
        let (bytes, _) = w.nodes[i].snapshot_encode(at);
        w.stores[i].write_snapshot(&bytes);
    }
}

fn persist_inform(w: &mut PersistWorld, dp: usize, at: SimTime, rec: DispatchRecord) {
    let mut fx = Vec::new();
    w.nodes[dp].handle(at, Input::Inform(rec), &mut fx);
    absorb_persist(w, dp, at, &mut fx);
}

/// One zero-latency sync round with persistence: floods deliver in place,
/// every `Persist` effect lands in the emitting point's store.
fn persist_sync_round(w: &mut PersistWorld, now: SimTime) {
    let n_dps = w.nodes.len();
    let mut fx = Vec::new();
    for i in 0..n_dps {
        w.nodes[i].handle(now, Input::SyncTick { n_dps }, &mut fx);
        let effects: Vec<Effect> = std::mem::take(&mut fx);
        let mut fx2 = Vec::new();
        for effect in effects {
            match effect {
                Effect::FloodTo { peers, payload } => {
                    for j in peers {
                        w.nodes[j].handle(now, Input::PeerRecords(payload.clone()), &mut fx2);
                        absorb_persist(w, j, now, &mut fx2);
                    }
                }
                Effect::Persist(op) => {
                    w.stores[i].append(now, &op);
                }
                _ => {}
            }
        }
        if w.stores[i].wal_len() >= SNAPSHOT_RECORDS as usize {
            let (bytes, _) = w.nodes[i].snapshot_encode(now);
            w.stores[i].write_snapshot(&bytes);
        }
    }
}

/// Runs the crash script under the discrete-event driver.
fn run_sim_side_crash() -> Vec<Observed> {
    let uslas = equal_shares(2, 2).unwrap();
    let world = PersistWorld {
        nodes: (0..N_DPS)
            .map(|i| DpNode::new(persist_cfg(i), &sites(), &uslas))
            .collect(),
        stores: (0..N_DPS).map(|_| SimStore::new()).collect(),
    };

    let mut sim = Simulation::new(world);
    for (dp, rec) in round1_informs() {
        let at = rec.dispatched_at;
        sim.scheduler().schedule_at(at, move |w: &mut PersistWorld, _| {
            persist_inform(w, dp, at, rec);
        });
    }
    sim.scheduler()
        .schedule_at(SimTime::from_secs(10), |w: &mut PersistWorld, _| {
            persist_sync_round(w, SimTime::from_secs(10));
        });
    // Crash point 1 after the first round converged; restore it from its
    // store before round two.
    sim.scheduler()
        .schedule_at(SimTime::from_secs(12), |w: &mut PersistWorld, _| {
            w.nodes[1].set_up(false);
        });
    let uslas_r = uslas.clone();
    sim.scheduler()
        .schedule_at(SimTime::from_secs(14), move |w: &mut PersistWorld, _| {
            // Same recovery path as the live and replay drivers: fresh
            // node, then snapshot + WAL replay.
            let recovery = w.stores[1].recover();
            let mut fresh = DpNode::new(persist_cfg(1), &sites(), &uslas_r);
            fresh
                .recover(recovery.snapshot.as_deref(), &recovery.wal, SimTime::from_secs(14))
                .expect("a store's own snapshot must decode");
            w.nodes[1] = fresh;
        });
    for (dp, rec) in round2_informs() {
        let at = SimTime::from_secs(15);
        sim.scheduler().schedule_at(at, move |w: &mut PersistWorld, _| {
            persist_inform(w, dp, at, rec);
        });
    }
    sim.scheduler()
        .schedule_at(SimTime::from_secs(20), |w: &mut PersistWorld, _| {
            persist_sync_round(w, SimTime::from_secs(20));
        });
    sim.run_to_completion(1_000);

    let t_end = SimTime::from_secs(21);
    let mut world = sim.into_world();
    let mut out = Vec::new();
    for node in &mut world.nodes {
        let mut fx = Vec::new();
        node.handle(t_end, Input::QueryArrived { admission: None }, &mut fx);
        let Some(Effect::Reply { free, .. }) = fx.pop() else {
            panic!("query produced no reply");
        };
        let s: DpNodeStats = node.stats();
        out.push(Observed {
            informs: s.informs,
            sync_rounds: s.sync_rounds,
            floods_sent: s.floods_sent,
            records_merged: s.records_merged,
            flood_hash: s.flood_hash,
            final_view: free,
        });
    }
    out
}

/// Runs the crash script under the live thread driver with a persistent
/// cluster.
fn run_live_side_crash() -> Vec<Observed> {
    use digruber::live::LiveCluster;

    let uslas = equal_shares(2, 2).unwrap();
    let cluster = LiveCluster::start_persistent(
        N_DPS,
        sites(),
        &uslas,
        Duration::from_secs(3600),
        SNAPSHOT_RECORDS,
    );

    let await_views = |expect: &[Vec<u32>]| -> Vec<Vec<u32>> {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let views: Vec<Vec<u32>> = (0..N_DPS)
                .map(|i| {
                    cluster
                        .query(DpId(i as u32), Duration::from_secs(5))
                        .expect("live query timed out")
                })
                .collect();
            if views == expect {
                return views;
            }
            assert!(
                Instant::now() < deadline,
                "live cluster never reached {expect:?}, last saw {views:?}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    };

    for (dp, rec) in round1_informs() {
        cluster.inform(DpId(dp as u32), rec);
    }
    cluster.force_sync();
    await_views(&vec![vec![12, 14, 8, 16]; N_DPS]);

    // Crash and recover point 1: FIFO on its channel orders the crash
    // before the restore, and convergence above guarantees its store
    // already journaled everything round one applied.
    cluster.crash(DpId(1));
    cluster.restore(DpId(1));

    for (dp, rec) in round2_informs() {
        cluster.inform(DpId(dp as u32), rec);
    }
    cluster.force_sync();
    let final_views = await_views(&vec![vec![12, 14, 8, 15]; N_DPS]);

    let stats = cluster.shutdown();
    assert_eq!(stats[1].recoveries, 1, "point 1 recovered exactly once");
    assert!(
        stats[1].wal_records_replayed > 0 || stats[1].informs > 0,
        "recovery restored state from the store: {:?}",
        stats[1]
    );
    stats
        .into_iter()
        .zip(final_views)
        .map(|(s, final_view)| Observed {
            informs: s.informs,
            sync_rounds: s.sync_rounds,
            floods_sent: s.floods_sent,
            records_merged: s.records_merged,
            flood_hash: s.flood_hash,
            final_view,
        })
        .collect()
}

/// Runs the crash script over TCP: point 1's *process* is killed with
/// `exit(9)` between the rounds and respawned against its own on-disk
/// `dpstore::FileStore` WAL + snapshot.
fn run_socket_side_crash() -> Vec<Observed> {
    let data_root = std::env::temp_dir().join(format!(
        "digruber-eq-crash-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&data_root);
    let opts = clusterd::SpawnOpts {
        data_root: Some(data_root.clone()),
        snapshot_records: SNAPSHOT_RECORDS,
        ..clusterd::SpawnOpts::small(N_DPS)
    };
    let observed = run_socket_side(opts, true);
    let _ = std::fs::remove_dir_all(&data_root);
    observed
}

#[test]
fn crash_recovery_matches_across_drivers_with_persistence_on() {
    let sim = run_sim_side_crash();
    let live = run_live_side_crash();
    let sockets = run_socket_side_crash();
    assert_eq!(
        sim, live,
        "sim and live drivers diverged across a crash + store recovery"
    );
    assert_eq!(
        sim, sockets,
        "sim and socket drivers diverged across a process kill + WAL recovery"
    );

    // The recovered point must look exactly like it never crashed: the
    // crash-free script above pins the same counters, hashes and views.
    let expect_hash_default = DpNodeStats::default().flood_hash;
    for (i, o) in sim.iter().enumerate() {
        assert_eq!(o.sync_rounds, 1, "dp{i}: one payload-producing round");
        assert_eq!(o.floods_sent, 2, "dp{i}: two mesh peers");
        assert_ne!(o.flood_hash, expect_hash_default, "dp{i}: hash untouched");
        assert_eq!(o.final_view, vec![12, 14, 8, 15], "dp{i}: final view");
    }
    assert_eq!(sim[1].informs, 1, "dp1's inform survived the crash");
    assert_eq!(sim[1].records_merged, 3, "dp1 re-merged jobs 1, 2 and 4");
    assert_ne!(sim[0].flood_hash, sim[1].flood_hash);
}
