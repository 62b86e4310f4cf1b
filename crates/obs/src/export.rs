//! Trace export: JSONL (machine-readable) and a human-readable timeline.
//!
//! The JSON is hand-rolled for the same reason the bench snapshots
//! hand-roll theirs: the build is offline and the schema is flat. Every
//! field is an integer or a short string, so the rendering is trivially
//! byte-stable — the trace-determinism test compares the full JSONL output
//! of `--jobs 1` and `--jobs 8` runs byte for byte.
//!
//! The JSONL schema (`digruber-trace/5`) — its line types, their order,
//! every field and the version history — is documented once, in
//! `OBSERVABILITY.md`. The `dp_total` and `run_total` counters are written
//! from [`DpTotals::fields`] and [`crate::RunTotals::fields`], which name
//! each counter once.

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

/// Appends `,"name":value` for each counter.
fn counters_json(fields: &[(&str, u64)], out: &mut String) {
    for (name, value) in fields {
        let _ = write!(out, ",\"{name}\":{value}");
    }
}

fn dp_total_line(run: &str, t: &DpTotals, out: &mut String) {
    let _ = write!(
        out,
        "{{\"type\":\"dp_total\",\"run\":\"{run}\",\"dp\":{}",
        t.dp.index()
    );
    counters_json(&t.fields(), out);
    let _ = writeln!(out, ",\"hist_log2_ms\":{}}}", hist_json(&t.hist));
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
        for s in &self.health.samples {
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
        for f in &self.health.flags {
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
        let _ = write!(out, "{{\"type\":\"run_total\",\"run\":\"{run}\"");
        counters_json(&self.totals.fields(), &mut out);
        out.push_str("}\n");
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
        let h = &self.health;
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
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "  {:<6} {:>8} {:>8} {:>9} {:>8} {:>8} {:>10} {:>9} {:>11}",
            "dp", "issued", "answered", "timeouts", "denied", "rejects", "mean_ms", "max_ms", "exch in/out"
        );
        for t in &self.dp_totals {
            let served = t.answered + t.late;
            let mean = t.sum_response_ms.checked_div(served).unwrap_or(0);
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
