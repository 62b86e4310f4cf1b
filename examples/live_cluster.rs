//! Live mode: decision points under real OS-thread concurrency.
//!
//! Starts three decision points exchanging dispatch floods (the exact
//! wire payloads from `simnet::codec`), drives a burst of queries/informs
//! against them from the main thread — each a locked step on that thread
//! — and shows the views converging after sync rounds.
//!
//! ```text
//! cargo run --release --example live_cluster
//! ```

use digruber::live::LiveCluster;
use gruber::DispatchRecord;
use gruber_types::{DpId, GroupId, JobId, SimDuration, SiteId, SiteSpec, VoId};
use std::time::Duration;
use workload::uslas::equal_shares;

fn main() {
    let sites: Vec<SiteSpec> = (0..8)
        .map(|i| SiteSpec::single_cluster(SiteId(i), 32))
        .collect();
    let uslas = equal_shares(2, 2).expect("uslas");
    let cluster = LiveCluster::start(3, sites, &uslas, Duration::from_millis(100));

    // Send 24 informs round-robin across the decision points.
    for j in 0..24u32 {
        let dp = DpId(j % 3);
        let now = cluster.now();
        cluster.inform(
            dp,
            DispatchRecord {
                job: JobId(j),
                site: SiteId(j % 8),
                vo: VoId(j % 2),
                group: GroupId(0),
                cpus: 2,
                dispatched_at: now,
                est_finish: now + SimDuration::from_secs(3600),
            },
        );
    }

    // Let a couple of sync rounds pass.
    std::thread::sleep(Duration::from_millis(350));

    println!("believed free CPUs per site, per decision point:");
    for dp in 0..3u32 {
        let free = cluster
            .query(DpId(dp), Duration::from_secs(5))
            .expect("live query timed out");
        println!("  dp-{dp}: {free:?}");
    }

    let stats = cluster.shutdown();
    println!("\nper-decision-point statistics:");
    for s in &stats {
        println!(
            "  {}: {} queries, {} informs, {} peer records merged, {} floods sent ({} sync rounds)",
            s.dp, s.queries, s.informs, s.records_merged, s.floods_sent, s.sync_rounds
        );
    }
    let total_merged: u64 = stats.iter().map(|s| s.records_merged).sum();
    println!("\ntotal peer records merged across the mesh: {total_merged} (expect 48 = 24 informs x 2 peers)");
}
