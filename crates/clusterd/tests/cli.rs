//! The `clusterd` command line: every setting has one name, its flag
//! (`--n-dps`), and anything else is refused.

use clusterd::ClusterClient;
use gruber::DispatchRecord;
use gruber_types::{ClientId, GroupId, JobId, SimTime, SiteId, VoId};
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn clusterd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_clusterd"))
}

/// Kills the child however the test ends.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// `--n-dps` makes a 2-point mesh and `--sync-ms` self-clocks its floods,
/// so one inform is flooded with no `sync` frame.
#[test]
fn flags_set_the_mesh_and_the_sync_clock() {
    let mut child = clusterd()
        .args(["--n-dps", "2", "--sync-ms", "100", "--listen", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn clusterd");
    let stdout = child.stdout.take().expect("stdout was piped");
    let child = Reaped(child);
    let mut banner = String::new();
    BufReader::new(stdout)
        .read_line(&mut banner)
        .expect("banner");
    let addr = banner
        .trim()
        .strip_prefix("LISTEN ")
        .expect("LISTEN banner");

    let mut client = ClusterClient::connect(addr, ClientId(0)).expect("connect");
    client
        .inform(&DispatchRecord {
            job: JobId(1),
            site: SiteId(0),
            vo: VoId(0),
            group: GroupId(0),
            cpus: 1,
            dispatched_at: SimTime::ZERO,
            est_finish: SimTime::from_secs(3600),
        })
        .expect("inform");
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let stats = client.stats(Duration::from_secs(5)).expect("stats");
        if stats.floods_sent >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "never flooded: {stats:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(child);
}

/// An unknown flag (a misspelt one or `--config` included), a value of
/// the wrong type, or a zero size, exits 2 before anything binds.
#[test]
fn unknown_or_mistyped_settings_exit_2() {
    let runs: [&[&str]; 13] = [
        &["--bogus", "1"],
        &["--data-dri", "x"],
        &["--config", "x.toml"],
        &["--id", "x"],
        &["--vos", "0"],
        &["--groups", "0"],
        &["--sites", "0"],
        &["--cpus", "0"],
        &["--n-dps", "0"],
        &["--spawn-local", "0"],
        &["--spawn-local", "1", "--sites", "0"],
        &["--spawn-local", "2", "--jobs", "0"],
        &["--id", "2", "--n-dps", "2"],
    ];
    for args in runs {
        let out = clusterd().args(args).output().expect("run clusterd");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} must not serve");
    }
    let out = clusterd().args(["--config", "x.toml"]).output().expect("run clusterd");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.trim(), "clusterd: unknown flag \"--config\"");
}

/// Asking for help is not a failure: the usage goes to stdout, exit 0.
#[test]
fn help_prints_the_usage_and_exits_0() {
    let out = clusterd().arg("--help").output().expect("run clusterd");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("usage:\n  clusterd"), "{stdout}");
    assert!(stdout.contains("--spawn-local N") && !stdout.contains("--config"), "{stdout}");
    assert!(out.stderr.is_empty());
}

/// A crash cycle without `--data-root` keeps its WAL in a directory of
/// its own under the temp dir, and removes it once the cluster is down.
#[test]
fn spawn_local_crash_leaves_no_wal_behind() {
    let tmp = std::env::temp_dir().join(format!("clusterd-cli-{}-tmpdir", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("create private temp dir");
    let out = clusterd()
        .args(["--spawn-local", "2", "--jobs", "2", "--crash"])
        .env("TMPDIR", &tmp)
        .output()
        .expect("run clusterd");
    let left: Vec<_> = std::fs::read_dir(&tmp).expect("read temp dir").collect();
    let _ = std::fs::remove_dir_all(&tmp);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("SPAWN_LOCAL_OK n=2"));
    assert!(left.is_empty(), "left behind in the temp dir: {left:?}");
}
