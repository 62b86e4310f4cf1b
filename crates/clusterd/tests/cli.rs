//! The `clusterd` command line: every setting has one name, a flag
//! (`--n-dps`) or a `--config` key (`n_dps`), and anything else is refused.

use clusterd::ClusterClient;
use gruber::DispatchRecord;
use gruber_types::{ClientId, GroupId, JobId, SimTime, SiteId, VoId};
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn clusterd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_clusterd"))
}

/// Writes `text` as a config file private to this test.
fn config_file(name: &str, text: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("clusterd-cli-{}-{name}.toml", std::process::id()));
    std::fs::write(&path, text).expect("write config");
    path
}

/// Kills the child however the test ends.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The guide's file keys take effect: `n_dps` makes a 2-point mesh and
/// `sync_ms` self-clocks its floods, so one inform is flooded with no
/// `sync` frame. (Read under the flag's spelling, both keys were ignored
/// and the point never flooded.)
#[test]
fn config_file_keys_set_the_mesh_and_the_sync_clock() {
    let path = config_file(
        "mesh",
        "n_dps = 2\nsync_ms = 100\nlisten = \"127.0.0.1:0\"\n",
    );
    let mut child = clusterd()
        .arg("--config")
        .arg(&path)
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
    let _ = std::fs::remove_file(path);
}

/// An unknown flag (a misspelt one included) or file key, a value of the
/// wrong type, or a zero size, exits 2 before anything binds.
#[test]
fn unknown_or_mistyped_settings_exit_2() {
    let unknown = config_file("unknown", "bogus = 1\n");
    let mistyped = config_file("mistyped", "n_dps = \"2\"\n");
    let runs: [&[&str]; 12] = [
        &["--bogus", "1"],
        &["--data-dri", "x"],
        &["--id", "x"],
        &["--vos", "0"],
        &["--groups", "0"],
        &["--sites", "0"],
        &["--cpus", "0"],
        &["--n-dps", "0"],
        &["--spawn-local", "0"],
        &["--spawn-local", "1", "--sites", "0"],
        &["--config", unknown.to_str().expect("utf-8 temp path")],
        &["--config", mistyped.to_str().expect("utf-8 temp path")],
    ];
    for args in runs {
        let out = clusterd().args(args).output().expect("run clusterd");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} must not serve");
    }
    let _ = std::fs::remove_file(unknown);
    let _ = std::fs::remove_file(mistyped);
}
