//! Trace export: JSONL (machine-readable) and a human-readable timeline.
//!
//! The JSON is hand-rolled for the same reason the bench snapshots
//! hand-roll theirs: the build is offline and the schema is flat. Every
//! field is an integer or a short string, so the rendering is trivially
//! byte-stable — the trace-determinism test compares the full JSONL output
//! of `--jobs 1` and `--jobs 8` runs byte for byte.
//!
//! ## JSONL schema (`digruber-trace/5`)
//!
//! (v2 added the fault-injection counters: per-bin and per-DP `lost` /
//! `retries`, per-DP `retries_exhausted` / `duplicated` /
//! `partition_drops`, and the run-total loss/retry/partition/slowdown
//! fields. v3 added the durability counters: per-DP `wal_appends` /
//! `snapshots` / `wal_replayed` / `recovery_ms`, and the run-total
//! `wal_appends` / `snapshots` / `wal_replayed` / `max_recovery_ms`.
//! v4 added online health scoring: the `health` and `health_flag` line
//! types, plus `health_degrades` / `health_recovers` on `dp_total` and
//! `run_total`. v5 added elastic membership: `dp_joins` / `dp_leaves` /
//! `clients_rehomed` on `run_total`.)
//!
//! One JSON object per line, discriminated by `"type"`:
//!
//! | `type`        | one per…             | payload                                      |
//! |---------------|----------------------|----------------------------------------------|
//! | `meta`        | run                  | schema, run label, cadence, end, dp count    |
//! | `sim`         | cadence bin          | scheduler events executed / cancelled        |
//! | `dp`          | cadence bin × DP     | per-bin counters, queue depth, staleness     |
//! | `dp_total`    | DP                   | whole-run counters + response histogram      |
//! | `health`      | scoring window × DP  | score 0–100 + penalty breakdown + liveness   |
//! | `health_flag` | flag transition      | Degrading/Recovered flip + tripping score    |
//! | `run_total`   | run                  | whole-run aggregate counters                 |
//!
//! Lines are ordered: `meta`, then per-bin `sim` followed by that bin's
//! `dp` lines (time-ascending), then `dp_total` lines (dp-ascending),
//! then `health` / `health_flag` lines (one `health` line per scored
//! point per closed full bin), then `run_total`. Every line carries the `run` label so
//! multiple runs can share one file.

use crate::timeline::{DpSample, DpTotals, ResponseHistogram, RunTimeline};
use std::fmt::Write as _;

/// Escapes a string for inclusion in a JSON document.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn hist_json(h: &ResponseHistogram) -> String {
    let mut s = String::from("[");
    for (i, b) in h.buckets.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{b}");
    }
    s.push(']');
    s
}

fn dp_sample_line(run: &str, s: &DpSample, out: &mut String) {
    let _ = write!(
        out,
        "{{\"type\":\"dp\",\"run\":\"{run}\",\"t_ms\":{},\"dp\":{},\"up\":{},\
         \"issued\":{},\"started\":{},\"queued\":{},\"rejected\":{},\
         \"completed\":{},\"answered\":{},\"late\":{},\"timeouts\":{},\
         \"denied\":{},\"lost\":{},\"retries\":{},\"queue_depth\":{},\"staleness_ms\":",
        s.t_ms,
        s.dp.index(),
        s.up,
        s.issued,
        s.started,
        s.queued,
        s.rejected,
        s.completed,
        s.answered,
        s.late,
        s.timeouts,
        s.denied,
        s.lost,
        s.retries,
        s.queue_depth,
    );
    match s.staleness_ms {
        Some(v) => {
            let _ = write!(out, "{v}");
        }
        None => out.push_str("null"),
    }
    let _ = writeln!(
        out,
        ",\"sum_response_ms\":{},\"max_response_ms\":{}}}",
        s.sum_response_ms, s.max_response_ms
    );
}

fn dp_total_line(run: &str, t: &DpTotals, out: &mut String) {
    let _ = writeln!(
        out,
        "{{\"type\":\"dp_total\",\"run\":\"{run}\",\"dp\":{},\"issued\":{},\
         \"started\":{},\"queued\":{},\"rejected\":{},\"completed\":{},\
         \"answered\":{},\"late\":{},\"timeouts\":{},\"denied\":{},\
         \"accepted\":{},\"duplicates\":{},\"exchanges_in\":{},\
         \"exchange_records_in\":{},\"exchanges_out\":{},\
         \"exchange_records_out\":{},\"failures\":{},\"recoveries\":{},\
         \"dropped_requests\":{},\"rebinds_gained\":{},\"rebinds_lost\":{},\
         \"lost\":{},\"retries\":{},\"retries_exhausted\":{},\
         \"duplicated\":{},\"partition_drops\":{},\
         \"wal_appends\":{},\"snapshots\":{},\"wal_replayed\":{},\
         \"recovery_ms\":{},\"health_degrades\":{},\"health_recovers\":{},\
         \"sum_response_ms\":{},\"max_response_ms\":{},\"hist_log2_ms\":{}}}",
        t.dp.index(),
        t.issued,
        t.started,
        t.queued,
        t.rejected,
        t.completed,
        t.answered,
        t.late,
        t.timeouts,
        t.denied,
        t.accepted,
        t.duplicates,
        t.exchanges_in,
        t.exchange_records_in,
        t.exchanges_out,
        t.exchange_records_out,
        t.failures,
        t.recoveries,
        t.dropped_requests,
        t.rebinds_gained,
        t.rebinds_lost,
        t.lost,
        t.retries,
        t.retries_exhausted,
        t.duplicated,
        t.partition_drops,
        t.wal_appends,
        t.snapshots,
        t.wal_replayed,
        t.recovery_ms,
        t.health_degrades,
        t.health_recovers,
        t.sum_response_ms,
        t.max_response_ms,
        hist_json(&t.hist),
    );
}

impl RunTimeline {
    /// Renders the timeline as JSONL (schema `digruber-trace/5`); `run`
    /// labels every line so multiple runs can append to one file.
    pub fn to_jsonl(&self, run: &str) -> String {
        let run = json_escape(run);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"type\":\"meta\",\"schema\":\"digruber-trace/5\",\"run\":\"{run}\",\
             \"cadence_ms\":{},\"end_ms\":{},\"dps\":{},\"raw_ring\":{},\
             \"dropped_raw\":{}}}",
            self.cadence_ms,
            self.end_ms,
            self.dp_totals.len(),
            self.recent.len(),
            self.dropped_raw,
        );
        // Per-bin lines, time-ascending: the sim sample, then that bin's
        // dp samples (both vectors were produced bin by bin).
        let mut dp_i = 0;
        for sim in &self.sim_samples {
            let _ = writeln!(
                out,
                "{{\"type\":\"sim\",\"run\":\"{run}\",\"t_ms\":{},\"executed\":{},\
                 \"cancelled\":{}}}",
                sim.t_ms, sim.executed, sim.cancelled
            );
            while dp_i < self.dp_samples.len() && self.dp_samples[dp_i].t_ms == sim.t_ms {
                dp_sample_line(&run, &self.dp_samples[dp_i], &mut out);
                dp_i += 1;
            }
        }
        for t in &self.dp_totals {
            dp_total_line(&run, t, &mut out);
        }
        if let Some(h) = &self.health {
            for s in &h.samples {
                let _ = writeln!(
                    out,
                    "{{\"type\":\"health\",\"run\":\"{run}\",\"t_ms\":{},\"dp\":{},\
                     \"score\":{},\"down\":{},\"p_timeout\":{},\"p_stale\":{},\
                     \"p_retry\":{},\"p_queue\":{},\"p_recover\":{}}}",
                    s.t_ms,
                    s.dp.index(),
                    s.score,
                    s.down,
                    s.p_timeout,
                    s.p_stale,
                    s.p_retry,
                    s.p_queue,
                    s.p_recover,
                );
            }
            for f in &h.flags {
                let _ = writeln!(
                    out,
                    "{{\"type\":\"health_flag\",\"run\":\"{run}\",\"t_ms\":{},\"dp\":{},\
                     \"degrading\":{},\"score\":{}}}",
                    f.t_ms,
                    f.dp.index(),
                    f.degrading,
                    f.score,
                );
            }
        }
        let r = &self.totals;
        let _ = writeln!(
            out,
            "{{\"type\":\"run_total\",\"run\":\"{run}\",\"issued\":{},\
             \"answered\":{},\"late\":{},\"timed_out\":{},\"denied\":{},\
             \"accepted\":{},\"duplicates\":{},\"events_executed\":{},\
             \"cancellations\":{},\"failures\":{},\"recoveries\":{},\
             \"dropped_requests\":{},\"rebinds\":{},\"replay_overloads\":{},\
             \"replay_dps_added\":{},\"msgs_lost\":{},\"retries\":{},\
             \"retries_exhausted\":{},\"msgs_duplicated\":{},\
             \"partition_drops\":{},\"partitions_started\":{},\
             \"partitions_healed\":{},\"link_windows\":{},\"slowdowns\":{},\
             \"wal_appends\":{},\"snapshots\":{},\"wal_replayed\":{},\
             \"max_recovery_ms\":{},\"health_degrades\":{},\
             \"health_recovers\":{},\"dp_joins\":{},\"dp_leaves\":{},\
             \"clients_rehomed\":{}}}",
            r.issued,
            r.answered,
            r.late,
            r.timed_out,
            r.denied,
            r.accepted,
            r.duplicates,
            r.events_executed,
            r.cancellations,
            r.failures,
            r.recoveries,
            r.dropped_requests,
            r.rebinds,
            r.replay_overloads,
            r.replay_dps_added,
            r.msgs_lost,
            r.retries,
            r.retries_exhausted,
            r.msgs_duplicated,
            r.partition_drops,
            r.partitions_started,
            r.partitions_healed,
            r.link_windows,
            r.slowdowns,
            r.wal_appends,
            r.snapshots,
            r.wal_replayed,
            r.max_recovery_ms,
            r.health_degrades,
            r.health_recovers,
            r.dp_joins,
            r.dp_leaves,
            r.clients_rehomed,
        );
        out
    }

    /// Renders a human-readable timeline summary (the `results/` artifact).
    pub fn render(&self, run: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "timeline: {run}");
        let _ = writeln!(
            out,
            "  cadence {} s, end {} s, {} decision points, {} raw events kept ({} rotated)",
            self.cadence_ms / 1000,
            self.end_ms / 1000,
            self.dp_totals.len(),
            self.recent.len(),
            self.dropped_raw,
        );
        let r = &self.totals;
        let _ = writeln!(
            out,
            "  run totals: {} issued / {} answered / {} timed out / {} denied; \
             {} events executed, {} cancellations",
            r.issued, r.answered, r.timed_out, r.denied, r.events_executed, r.cancellations
        );
        if r.failures + r.recoveries + r.rebinds + r.dropped_requests > 0 {
            let _ = writeln!(
                out,
                "  faults: {} dp failures, {} recoveries, {} requests dropped, {} client re-binds",
                r.failures, r.recoveries, r.dropped_requests, r.rebinds
            );
        }
        if r.msgs_lost + r.retries + r.msgs_duplicated + r.partition_drops > 0 {
            let _ = writeln!(
                out,
                "  network: {} messages lost, {} retries ({} exhausted), \
                 {} duplicated, {} partition drops",
                r.msgs_lost, r.retries, r.retries_exhausted, r.msgs_duplicated, r.partition_drops
            );
        }
        if r.partitions_started + r.link_windows + r.slowdowns > 0 {
            let _ = writeln!(
                out,
                "  fault plan: {} partitions ({} healed), {} link-fault windows, {} slowdowns",
                r.partitions_started, r.partitions_healed, r.link_windows, r.slowdowns
            );
        }
        if r.wal_appends + r.snapshots + r.wal_replayed > 0 {
            let _ = writeln!(
                out,
                "  durability: {} WAL appends, {} snapshots, {} records replayed \
                 (max recovery {} ms)",
                r.wal_appends, r.snapshots, r.wal_replayed, r.max_recovery_ms
            );
        }
        if r.dp_joins + r.dp_leaves + r.clients_rehomed > 0 {
            let _ = writeln!(
                out,
                "  membership: {} joins, {} leaves, {} clients re-homed",
                r.dp_joins, r.dp_leaves, r.clients_rehomed
            );
        }
        if r.replay_overloads + r.replay_dps_added > 0 {
            let _ = writeln!(
                out,
                "  replay: {} overload intervals, {} decision points added",
                r.replay_overloads, r.replay_dps_added
            );
        }
        if let Some(h) = &self.health {
            if !h.flags.is_empty() {
                let _ = writeln!(
                    out,
                    "  health flags ({} s windows): {} degrading, {} recovered",
                    h.window_ms / 1000,
                    r.health_degrades,
                    r.health_recovers
                );
                for f in &h.flags {
                    let _ = writeln!(
                        out,
                        "    [{:>7} s] dp-{} {} (score {})",
                        f.t_ms / 1000,
                        f.dp.index(),
                        if f.degrading { "DEGRADING" } else { "recovered" },
                        f.score
                    );
                }
                let stuck = h.still_degraded();
                if !stuck.is_empty() {
                    let list: Vec<String> =
                        stuck.iter().map(|d| format!("dp-{}", d.index())).collect();
                    let _ = writeln!(out, "    still degraded at end: {}", list.join(", "));
                }
            }
        }
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "  {:<6} {:>8} {:>8} {:>9} {:>8} {:>8} {:>10} {:>9} {:>11}",
            "dp", "issued", "answered", "timeouts", "denied", "rejects", "mean_ms", "max_ms", "exch in/out"
        );
        for t in &self.dp_totals {
            let served = t.answered + t.late;
            let mean = if served > 0 {
                t.sum_response_ms / served
            } else {
                0
            };
            let _ = writeln!(
                out,
                "  {:<6} {:>8} {:>8} {:>9} {:>8} {:>8} {:>10} {:>9} {:>6}/{}",
                format!("dp-{}", t.dp.index()),
                t.issued,
                t.answered,
                t.timeouts,
                t.denied,
                t.rejected,
                mean,
                t.max_response_ms,
                t.exchanges_in,
                t.exchanges_out,
            );
        }
        let hist = self.response_histogram();
        if hist.count() > 0 {
            let _ = writeln!(out);
            let _ = writeln!(out, "  response-time histogram (log2 buckets):");
            let peak = hist.buckets.iter().copied().max().unwrap_or(1).max(1);
            for (i, &n) in hist.buckets.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                let bar = (n * 40).div_ceil(peak) as usize;
                let _ = writeln!(
                    out,
                    "    >= {:>7} ms {:>8}  {}",
                    ResponseHistogram::lower_edge_ms(i),
                    n,
                    "#".repeat(bar)
                );
            }
        }
        // Per-bin activity sparkline over issued queries.
        if !self.sim_samples.is_empty() {
            let mut per_bin: Vec<(u64, u64)> = self.sim_samples.iter().map(|s| (s.t_ms, 0)).collect();
            let mut bi = 0;
            for s in &self.dp_samples {
                while per_bin[bi].0 != s.t_ms {
                    bi += 1;
                }
                per_bin[bi].1 += s.issued;
            }
            let peak = per_bin.iter().map(|&(_, n)| n).max().unwrap_or(1).max(1);
            let _ = writeln!(out);
            let _ = writeln!(out, "  queries issued per {}-s bin:", self.cadence_ms / 1000);
            for (t, n) in &per_bin {
                let bar = (n * 40).div_ceil(peak) as usize;
                let _ = writeln!(out, "    t={:>7}s {:>8}  {}", t / 1000, n, "#".repeat(bar));
            }
        }
        if !self.recent.is_empty() {
            let _ = writeln!(out);
            let tail = self.recent.len().min(20);
            let _ = writeln!(out, "  last {} raw events:", tail);
            for (t, ev) in &self.recent[self.recent.len() - tail..] {
                let _ = writeln!(out, "    [{:>9} ms] {:?}", t, ev);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;
    use crate::sink::{Recorder, TraceConfig};
    use gruber_types::{ClientId, DpId, SimDuration, SimTime};

    fn sample_timeline() -> RunTimeline {
        let rec = Recorder::new(TraceConfig {
            cadence: SimDuration::from_secs(60),
        });
        let dp = DpId(0);
        let client = ClientId(3);
        rec.emit(SimTime(1_000), || TraceEvent::QueryIssued { client, dp });
        rec.emit(SimTime(1_500), || TraceEvent::ResponseAnswered {
            dp,
            client,
            response_ms: 500,
        });
        rec.emit(SimTime(70_000), || TraceEvent::QueryIssued { client, dp });
        rec.emit(SimTime(71_000), || TraceEvent::ClientTimeout { client, dp });
        rec.finish(SimTime(120_000)).unwrap()
    }

    #[test]
    fn jsonl_lines_parse_shape() {
        let tl = sample_timeline();
        let jsonl = tl.to_jsonl("test-run");
        let lines: Vec<&str> = jsonl.lines().collect();
        assert!(lines[0].contains("\"type\":\"meta\""));
        assert!(lines[0].contains("\"schema\":\"digruber-trace/5\""));
        assert!(lines.last().unwrap().contains("\"type\":\"run_total\""));
        // The default config runs the health consumer: one scored window
        // per 60 s per seen point (windows closing at 60 s and 120 s).
        assert_eq!(
            lines.iter().filter(|l| l.contains("\"type\":\"health\"")).count(),
            2
        );
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'), "not an object: {l}");
            assert!(l.contains("\"run\":\"test-run\""));
        }
        // Two closed bins plus the partial final one.
        assert_eq!(lines.iter().filter(|l| l.contains("\"type\":\"sim\"")).count(), 2);
        assert_eq!(lines.iter().filter(|l| l.contains("\"type\":\"dp\"")).count(), 2);
        assert!(jsonl.contains("\"timed_out\":1"));
        assert!(jsonl.contains("\"answered\":1"));
    }

    #[test]
    fn jsonl_is_deterministic() {
        let a = sample_timeline().to_jsonl("r");
        let b = sample_timeline().to_jsonl("r");
        assert_eq!(a, b);
    }

    #[test]
    fn render_mentions_key_counters() {
        let tl = sample_timeline();
        let text = tl.render("fig5/paper");
        assert!(text.contains("timeline: fig5/paper"));
        assert!(text.contains("2 issued"));
        assert!(text.contains("dp-0"));
        assert!(text.contains("response-time histogram"));
        assert!(text.contains("last "));
    }

    #[test]
    fn escape_handles_quotes_and_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
