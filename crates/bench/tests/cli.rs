//! The `experiments` and `sweep` command lines, driven as processes
//! (`experiments` in a scratch cwd).

use std::path::PathBuf;
use std::process::{Command, Output};

/// The scratch cwd of the `experiments` run named `test`.
fn scratch(test: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("cli-{test}"))
}

/// Runs `experiments <args>` in a fresh directory and returns its output
/// plus the names of the files it left there.
fn experiments(test: &str, args: &[&str]) -> (Output, Vec<String>) {
    let cwd = scratch(test);
    let _ = std::fs::remove_dir_all(&cwd);
    std::fs::create_dir_all(&cwd).expect("create scratch cwd");
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .current_dir(&cwd)
        .output()
        .expect("spawn experiments");
    let left = std::fs::read_dir(&cwd)
        .expect("list scratch cwd")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
        .collect();
    (out, left)
}

#[test]
fn unknown_id_is_rejected_before_anything_runs() {
    let (out, left) = experiments("bogus", &["fig1", "bogus"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "ran something: {}", String::from_utf8_lossy(&out.stdout));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown experiment id \"bogus\""));
    assert!(left.is_empty(), "wrote {left:?}");
}

#[test]
fn usage_lists_every_study_and_paper_id() {
    let (out, left) = experiments("usage", &[]);
    assert_eq!(out.status.code(), Some(2));
    let usage = String::from_utf8_lossy(&out.stderr).into_owned();
    let listed = usage.split_once('<').and_then(|(_, rest)| rest.split_once('>'));
    let listed: Vec<&str> = listed.expect("usage has an <id|...> list").0.split('|').collect();
    for id in bench::STUDIES.iter().map(|s| s.id).chain(["fig1", "fig12", "crossover", "all"]) {
        assert!(listed.contains(&id), "{id} missing: {usage}");
    }
    assert!(left.is_empty(), "wrote {left:?}");
}

#[test]
fn sweep_refuses_a_flag_it_does_not_know() {
    // A retired flag and a made-up one: neither may fall back to running
    // the default configuration.
    for unknown in ["--loss 0.1", "--bogus 1"] {
        let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
            .args(["--dps", "1", "--clients", "2", "--duration-mins", "1"])
            .args(unknown.split(' '))
            .output()
            .expect("spawn sweep");
        let flag = unknown.split(' ').next().unwrap();
        assert_eq!(out.status.code(), Some(2), "{flag}");
        assert!(out.stdout.is_empty(), "ran something: {}", String::from_utf8_lossy(&out.stdout));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("unknown flag \"{flag}\"")), "{stderr}");
    }
}

#[test]
fn sweep_refuses_a_value_flag_without_its_value_or_given_twice() {
    // Each of these used to run a default (all three DP counts, no faults)
    // or the first of two values, and exit 0; a departure fraction past 1
    // used to be refused only once its cell had started.
    for (tail, why) in [
        ("--dps", "--dps needs a value"),
        ("--dps 1 --faults", "--faults needs a value"),
        ("--dps 1 --dps 3", "--dps given twice"),
        ("--dps 1 --departure 1.5", "departure"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
            .args(["--clients", "2", "--duration-mins", "1"])
            .args(tail.split(' '))
            .output()
            .expect("spawn sweep");
        assert_eq!(out.status.code(), Some(2), "{tail}");
        assert!(out.stdout.is_empty(), "ran something: {}", String::from_utf8_lossy(&out.stdout));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(why), "{tail}: {stderr}");
    }
}

#[test]
fn sweep_refuses_times_whose_milliseconds_overflow() {
    // u64::MAX / 1000 + 1 seconds (or its minutes): `s * 1000` used to
    // wrap, and a crash planned past the end of time hit dp 0 at 0.384 s.
    for (tail, why) in [
        ("--duration-mins 1 --faults crash@18446744073709552=0+5", "out of range"),
        ("--duration-mins 307445734561826", "--duration-mins out of range"),
        ("--duration-mins 1 --sync-mins 307445734561826", "--sync-mins out of range"),
        ("--duration-mins 1 --monitor-secs 18446744073709552", "--monitor-secs out of range"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
            .args(["--dps", "1", "--clients", "2"])
            .args(tail.split(' '))
            .output()
            .expect("spawn sweep");
        assert_eq!(out.status.code(), Some(2), "{tail}");
        assert!(out.stdout.is_empty(), "ran something: {}", String::from_utf8_lossy(&out.stdout));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(why), "{tail}: {stderr}");
    }
}

#[test]
fn sweep_runs_an_elastic_pool() {
    // `--dynamic` is the command line's one route into `digruber::elastic`.
    let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(["--dps", "1", "--clients", "4", "--duration-mins", "2", "--dynamic"])
        .output()
        .expect("spawn sweep");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "a header and one row: {stdout}");
    assert!(lines[0].trim_start().starts_with("DPs"), "{stdout}");
    assert_eq!(lines[1].split_whitespace().count(), 8, "{stdout}");
}

#[test]
fn scale_artifacts_are_byte_identical_across_jobs() {
    // Both artifacts depend on nothing but the cells: no worker count,
    // clock or memory reading reaches them.
    let artifacts = |test: &str, jobs: &str| {
        let (out, _) = experiments(test, &["scale", "--fast", "--jobs", jobs]);
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        ["BENCH_scale.json", "results/timeline_scale.txt"]
            .map(|f| std::fs::read_to_string(scratch(test).join(f)).unwrap_or_else(|e| panic!("{f}: {e}")))
    };
    let serial = artifacts("scale-j1", "1");
    assert_eq!(serial, artifacts("scale-j4", "4"));
    let [json, timelines] = serial;
    assert!(!timelines.is_empty());
    assert!(json.contains("\"schema\": \"digruber-bench-scale/4\""), "{json}");
    assert!(json.contains("\"n_clients\": 100000"), "{json}");
    let cells = json.matches("\"fingerprint\":").count();
    assert_eq!(cells, 4);
    assert_eq!(json.matches("\"executed_delta\": 0,").count(), cells, "{json}");
    assert_eq!(json.matches("\"cancel_delta\": 0,").count(), cells, "{json}");
}
