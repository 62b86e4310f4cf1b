//! Spawn-local harness: an n-process loopback cluster plus its driver.
//!
//! This is the deployment story in miniature — the `clusterd --spawn-local n`
//! entry point, the CI smoke, and the socket leg of the three-way
//! equivalence test all go through here. The harness forks one OS process
//! per decision point (each re-executing the `clusterd` binary in serve
//! mode), reads each child's actual listen address off its stdout,
//! broadcasts the assembled peer table, and then acts as the cluster's
//! client: queries, informs, sync rounds, crash injection, respawn, and
//! the final stats collection.
//!
//! Respawn is deliberately realistic: the replacement process binds a
//! *fresh* ephemeral port (rebinding the old one races `TIME_WAIT`), so
//! the harness rebroadcasts the peer table and every peer sender drops
//! its cached connection — exactly what an operator's supervisor script
//! has to do, as documented in DEPLOYMENT.md.

use crate::client::ClusterClient;
use crate::proto::ClusterDpStats;
use dpstore::RunStats;
use gruber::DispatchRecord;
use gruber_types::{ClientId, DpId};
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// What each spawned decision point serves (mirrors the binary's flags).
#[derive(Debug, Clone)]
pub struct SpawnOpts {
    /// Decision points in the cluster.
    pub n_dps: usize,
    /// Sites in the grid (uniform single-cluster sites).
    pub sites: u32,
    /// CPUs per site.
    pub cpus: u32,
    /// VOs in the USLA set (equal shares).
    pub vos: u32,
    /// Groups per VO.
    pub groups: u32,
    /// Per-process WAL/snapshot root: point `i` persists under
    /// `<root>/dp<i>`. `None` disables persistence.
    pub data_root: Option<PathBuf>,
    /// Snapshot cadence: [`dpstore::SnapshotPolicy::records`] of this.
    pub snapshot_records: u32,
    /// Per-process trace output: point `i` writes
    /// `<dir>/dp<i>.jsonl` on clean shutdown. `None` disables tracing.
    pub trace_dir: Option<PathBuf>,
}

impl SpawnOpts {
    /// The smoke-test shape: 4 sites × 16 CPUs, 2 VOs × 2 groups, no
    /// persistence, no tracing.
    pub fn small(n_dps: usize) -> SpawnOpts {
        SpawnOpts {
            n_dps,
            sites: 4,
            cpus: 16,
            vos: 2,
            groups: 2,
            data_root: None,
            snapshot_records: 0,
            trace_dir: None,
        }
    }
}

/// A running loopback cluster of `clusterd` processes, with one client
/// connection per decision point. Dropping it without
/// [`LocalCluster::shutdown`] kills the processes.
pub struct LocalCluster {
    bin: PathBuf,
    opts: SpawnOpts,
    children: Vec<Child>,
    /// Kept open so a child's end-of-run report never hits a closed
    /// pipe; drained when the child is reaped.
    stdouts: Vec<BufReader<std::process::ChildStdout>>,
    addrs: Vec<String>,
    clients: Vec<Mutex<ClusterClient>>,
}

impl LocalCluster {
    /// Forks `opts.n_dps` serve-mode processes of `bin` on loopback,
    /// connects a client to each, and broadcasts the peer table.
    pub fn spawn(bin: &Path, opts: SpawnOpts) -> std::io::Result<LocalCluster> {
        let mut children = Vec::new();
        let mut stdouts = Vec::new();
        let mut addrs = Vec::new();
        for i in 0..opts.n_dps {
            let (child, stdout, addr) = spawn_dp(bin, &opts, i)?;
            children.push(child);
            stdouts.push(stdout);
            addrs.push(addr);
        }
        let clients = addrs
            .iter()
            .enumerate()
            .map(|(i, addr)| {
                ClusterClient::connect(addr, ClientId(i as u32)).map(Mutex::new)
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        let cluster = LocalCluster {
            bin: bin.to_path_buf(),
            opts,
            children,
            stdouts,
            addrs,
            clients,
        };
        cluster.broadcast_peers()?;
        Ok(cluster)
    }

    /// Number of decision points.
    pub(crate) fn n_dps(&self) -> usize {
        self.clients.len()
    }

    /// The peer table: every point's id and actual listen address.
    pub fn peer_table(&self) -> Vec<(DpId, String)> {
        self.addrs
            .iter()
            .enumerate()
            .map(|(i, a)| (DpId(i as u32), a.clone()))
            .collect()
    }

    /// (Re)installs the current peer table on every point.
    pub(crate) fn broadcast_peers(&self) -> std::io::Result<()> {
        let table = self.peer_table();
        for c in &self.clients {
            locked(c).set_peers(&table)?;
        }
        Ok(())
    }

    /// Availability query against point `dp`.
    pub fn query(&self, dp: DpId, timeout: Duration) -> std::io::Result<Option<Vec<u32>>> {
        locked(&self.clients[dp.index()]).query(timeout)
    }

    /// Informs point `dp` of a dispatch decision.
    pub fn inform(&self, dp: DpId, record: &DispatchRecord) -> std::io::Result<()> {
        locked(&self.clients[dp.index()]).inform(record)
    }

    /// Forces a sync round on every point.
    pub fn force_sync(&self) -> std::io::Result<()> {
        for c in &self.clients {
            locked(c).sync()?;
        }
        Ok(())
    }

    /// Stats snapshot of point `dp`.
    pub fn stats(&self, dp: DpId, timeout: Duration) -> std::io::Result<ClusterDpStats> {
        locked(&self.clients[dp.index()]).stats(timeout)
    }

    /// Hard-crashes point `dp` (`exit(9)`) and reaps the process. The
    /// point stays down until [`LocalCluster::respawn`].
    pub fn crash(&mut self, dp: DpId) -> std::io::Result<()> {
        let _ = locked(&self.clients[dp.index()]).crash();
        let status = self.children[dp.index()].wait()?;
        let mut rest = String::new();
        let _ = self.stdouts[dp.index()].read_to_string(&mut rest);
        if status.code() != Some(9) {
            return Err(std::io::Error::other(format!(
                "crashed dp {} exited with {status:?}, expected code 9",
                dp.0
            )));
        }
        Ok(())
    }

    /// Respawns a crashed point with the same flags (and therefore the
    /// same WAL/snapshot directory), reconnects its client, and
    /// rebroadcasts the peer table — the address changed.
    pub fn respawn(&mut self, dp: DpId) -> std::io::Result<()> {
        let (child, stdout, addr) = spawn_dp(&self.bin, &self.opts, dp.index())?;
        self.children[dp.index()] = child;
        self.stdouts[dp.index()] = stdout;
        self.addrs[dp.index()] = addr.clone();
        self.clients[dp.index()] =
            Mutex::new(ClusterClient::connect(&addr, ClientId(dp.0))?);
        self.broadcast_peers()
    }

    /// Requests a clean shutdown of every point and waits for the
    /// processes. Errors if any child exits nonzero.
    pub fn shutdown(mut self) -> std::io::Result<()> {
        for c in &self.clients {
            let _ = locked(c).shutdown();
        }
        for (i, mut child) in self.children.drain(..).enumerate() {
            let mut report = String::new();
            let _ = self.stdouts[i].read_to_string(&mut report);
            let status = child.wait()?;
            if !status.success() {
                return Err(std::io::Error::other(format!(
                    "dp {i} exited with {status:?}"
                )));
            }
        }
        Ok(())
    }
}

/// An early exit (a panicking test, an `?` in the caller) must not leave
/// children holding their ports and the inherited stderr pipe.
/// [`LocalCluster::shutdown`] drains `children` first, so the clean path
/// finds nothing to kill.
impl Drop for LocalCluster {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Spawns one serve-mode child and reads its `LISTEN <addr>` banner.
fn spawn_dp(
    bin: &Path,
    opts: &SpawnOpts,
    i: usize,
) -> std::io::Result<(Child, BufReader<std::process::ChildStdout>, String)> {
    let mut cmd = Command::new(bin);
    cmd.arg("--id")
        .arg(i.to_string())
        .arg("--n-dps")
        .arg(opts.n_dps.to_string())
        .arg("--listen")
        .arg("127.0.0.1:0")
        .arg("--sites")
        .arg(opts.sites.to_string())
        .arg("--cpus")
        .arg(opts.cpus.to_string())
        .arg("--vos")
        .arg(opts.vos.to_string())
        .arg("--groups")
        .arg(opts.groups.to_string())
        .arg("--snapshot-records")
        .arg(opts.snapshot_records.to_string())
        .arg("--allow-crash-exit")
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if let Some(root) = &opts.data_root {
        cmd.arg("--data-dir").arg(root.join(format!("dp{i}")));
    }
    if let Some(dir) = &opts.trace_dir {
        cmd.arg("--trace").arg(dir.join(format!("dp{i}.jsonl")));
    }
    let mut child = cmd.spawn()?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let addr = line
        .trim()
        .strip_prefix("LISTEN ")
        .ok_or_else(|| {
            std::io::Error::other(format!("dp {i}: expected LISTEN banner, got {line:?}"))
        })?
        .to_string();
    Ok((child, reader, addr))
}

/// A point's client, locked for one request.
fn locked(client: &Mutex<ClusterClient>) -> MutexGuard<'_, ClusterClient> {
    // Poisoned only if a request panicked mid-frame: the stream is unusable.
    client.lock().expect("client lock")
}

/// Drives [`dpstore::drive_workload`]'s closed-loop clients against the
/// cluster from one client thread per decision point, dispatching every
/// job into the shared ground-truth grid — the paper's client behaviour,
/// end to end over TCP. Job ids start at `job_offset`; a query that
/// errors counts as a timeout and an inform that errors is lost.
pub fn drive_workload(
    cluster: &LocalCluster,
    grid: &Mutex<gridemu::Grid>,
    jobs_per_dp: u32,
    job_offset: u32,
    timeout: Duration,
    seed: u64,
) -> RunStats {
    let query = |dp| cluster.query(dp, timeout).ok().flatten();
    let inform = |dp, record: DispatchRecord| drop(cluster.inform(dp, &record));
    let n = cluster.n_dps() as u32;
    dpstore::drive_workload(grid, n, n, jobs_per_dp, job_offset, seed, query, inform)
}

/// The `clusterd` binary a development checkout runs — resolved from the
/// test executable's own target directory, built on demand when absent
/// (first use in a fresh checkout). Integration tests outside the
/// `clusterd` crate use this; the crate's own tests get
/// `CARGO_BIN_EXE_clusterd` for free.
pub fn dev_binary() -> PathBuf {
    let exe = std::env::current_exe().expect("current_exe");
    // target/<profile>/deps/test-... -> target/<profile>/clusterd
    let profile_dir = exe
        .parent()
        .and_then(Path::parent)
        .expect("test exe lives under target/<profile>/deps");
    let bin = profile_dir.join("clusterd");
    if !bin.exists() {
        // `cargo test` holds no build lock while test binaries run, so a
        // nested offline build is safe here.
        let mut build = Command::new(env!("CARGO"));
        build.args(["build", "-p", "clusterd", "--offline"]);
        if profile_dir.file_name().is_some_and(|p| p == "release") {
            build.arg("--release");
        }
        let status = build.status().expect("run cargo build -p clusterd");
        assert!(status.success(), "building the clusterd binary failed");
    }
    bin
}
