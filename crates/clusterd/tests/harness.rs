//! The spawn-local harness ([`clusterd::LocalCluster`]) as a resource
//! owner.

use clusterd::{LocalCluster, SpawnOpts};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// A test that panics between `spawn` and `shutdown` used to leave its
/// `clusterd` children alive, holding their ports and the inherited
/// stderr pipe (which `cargo test` then waits on).
#[test]
fn dropping_the_cluster_without_shutdown_reaps_every_child() {
    let bin = Path::new(env!("CARGO_BIN_EXE_clusterd"));
    let cluster = LocalCluster::spawn(bin, SpawnOpts::small(2)).expect("spawn 2 processes");
    let table = cluster.peer_table();
    for (_, addr) in &table {
        assert!(
            TcpStream::connect(addr).is_ok(),
            "{addr} must be listening before the drop"
        );
    }
    drop(cluster);
    let deadline = Instant::now() + Duration::from_secs(10);
    for (dp, addr) in &table {
        while TcpStream::connect(addr).is_ok() {
            assert!(
                Instant::now() < deadline,
                "dp {} still listens on {addr}",
                dp.0
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}
