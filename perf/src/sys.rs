//! What the benchmark reads from the host: `/proc` counters of itself
//! and of the `clusterd` children it spawned, and the machine header.

use std::process::Command;

/// Linux reports process CPU time in `USER_HZ` ticks, 100 per second on
/// every supported architecture.
const TICKS_PER_S: f64 = 100.0;

/// The fields of `/proc/<pid>/stat` after the parenthesised command.
fn stat_fields(pid: u32) -> Option<(String, Vec<String>)> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let open = stat.find('(')?;
    let close = stat.rfind(')')?;
    let comm = stat[open + 1..close].to_string();
    let rest = stat[close + 1..]
        .split_whitespace()
        .map(String::from)
        .collect();
    Some((comm, rest))
}

/// CPU seconds (user + system) a process has used so far.
pub fn cpu_seconds(pid: u32) -> f64 {
    // Fields 14 and 15 of stat(5); `rest` starts at field 3.
    stat_fields(pid)
        .and_then(|(_, f)| Some(f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?))
        .map_or(0.0, |ticks| ticks / TICKS_PER_S)
}

/// Peak resident set (`VmHWM`) of a process, in MB.
pub fn peak_rss_mb(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Live (not yet reaped, not zombie) children of this process whose
/// command is `comm`.
pub fn children(comm: &str) -> Vec<u32> {
    let me = std::process::id().to_string();
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    let mut out: Vec<u32> = dir
        .flatten()
        .filter_map(|e| e.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&pid| {
            stat_fields(pid).is_some_and(|(c, f)| {
                c == comm && f.first().is_some_and(|s| s != "Z") && f.get(1) == Some(&me)
            })
        })
        .collect();
    out.sort_unstable();
    out
}

/// Kills every `clusterd` child still running and waits until each has
/// ended. `LocalCluster` owns its `Child` handles and has no `Drop`, so
/// this is what stands between a panic here and orphaned servers.
pub fn kill_children(comm: &str) {
    let pids = children(comm);
    if pids.is_empty() {
        return;
    }
    let _ = Command::new("kill")
        .arg("-9")
        .args(pids.iter().map(u32::to_string))
        .status();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while !children(comm).is_empty() && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
}

/// The CPUs in a kernel CPU list such as `0-1,4`.
fn cpu_list(list: &str) -> Vec<u32> {
    list.trim()
        .split(',')
        .filter_map(|range| {
            let mut ends = range.split('-').map(|n| n.trim().parse::<u32>());
            let first = ends.next()?.ok()?;
            let last = ends.next().map_or(Some(first), Result::ok)?;
            Some(first..=last)
        })
        .flatten()
        .collect()
}

/// Device interrupts each CPU has served since boot: the numbered rows
/// of `/proc/interrupts`, summed per CPU column.
fn device_interrupts() -> Vec<u64> {
    let table = std::fs::read_to_string("/proc/interrupts").unwrap_or_default();
    let n_cpus = table
        .lines()
        .next()
        .map_or(0, |l| l.split_whitespace().count());
    let mut served = vec![0u64; n_cpus];
    for line in table.lines().skip(1) {
        let mut cells = line.split_whitespace();
        let numbered = |irq: &str| irq.trim_end_matches(':').parse::<u32>().is_ok();
        if !cells.next().is_some_and(numbered) {
            continue; // timer, rescheduling and other per-CPU rows
        }
        for (total, cell) in served.iter_mut().zip(cells) {
            *total += cell.parse::<u64>().unwrap_or(0);
        }
    }
    served
}

/// Pins this process, every thread it has and every child it will spawn
/// to one CPU, and returns that CPU: of those it may run on, the one
/// that has served the fewest device interrupts, or with `near_devices`
/// the most. On the sandbox every disk completion lands on one of the two
/// CPUs: compute-bound workloads stay away from it, and `sock-durable`,
/// which waits for a disk write on every inform, runs on it, so that the
/// completion wakes the waiting server without crossing CPUs (off it the
/// workload measured a fifth slower and three times as unsteady).
///
/// Every workload hands work between threads or processes that block on
/// each other. On the sandbox's two virtual CPUs the scheduler sometimes
/// wakes the receiver on the idle CPU (an inter-processor interrupt into
/// a halted virtual CPU, tens of microseconds) and sometimes on the
/// sender's, and throughput followed that choice by a factor of three to
/// six between slices of one run. On one CPU every hand-off is a context
/// switch, which is the software path the benchmark is about.
pub fn pin_to_one_cpu(near_devices: bool) -> Result<u32, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let allowed = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .map(cpu_list)
        .unwrap_or_default();
    let served = device_interrupts();
    let interrupts = |cpu: &u32| served.get(*cpu as usize).copied().unwrap_or(0);
    let cpu = if near_devices {
        allowed.into_iter().max_by_key(interrupts)
    } else {
        allowed.into_iter().min_by_key(interrupts)
    }
    .ok_or("no Cpus_allowed_list in /proc/self/status")?;
    let done = Command::new("taskset")
        .args([
            "-a",
            "-cp",
            &cpu.to_string(),
            &std::process::id().to_string(),
        ])
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("running taskset: {e}"))?;
    done.success()
        .then_some(cpu)
        .ok_or(format!("taskset: {done}"))
}

fn first_line(path: &str) -> String {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The machine and build a result was measured on.
pub fn header(workload: &str, seed: u64, seconds: f64, trace: bool) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "# perf workload={workload} seed={seed} seconds={seconds} trace={}\n\
         # nproc={} cpu=\"{cpu}\" kernel=\"{}\"\n\
         # rustc=\"{}\" commit={} loadavg=\"{}\"",
        u8::from(trace),
        nproc(),
        first_line("/proc/sys/kernel/osrelease"),
        command_line("rustc", &["-V"]),
        command_line("git", &["rev-parse", "--short", "HEAD"]),
        first_line("/proc/loadavg"),
    )
}
