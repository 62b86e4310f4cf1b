//! Plain-text rendering of figures and tables.

use digruber::{ExperimentOutput, TableRows};

/// Renders a unicode sparkline of a series (empty input → empty string).
pub(crate) fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().copied().fold(0.0f64, f64::max);
    if values.is_empty() || max <= 0.0 {
        return values.iter().map(|_| BARS[0]).collect();
    }
    values
        .iter()
        .map(|&v| {
            let idx = ((v / max) * (BARS.len() - 1) as f64).round() as usize;
            BARS[idx.min(BARS.len() - 1)]
        })
        .collect()
}

/// Renders one scalability figure: the three co-sampled curves plus the
/// paper's summary block.
pub fn render_figure(out: &ExperimentOutput) -> String {
    let mut s = String::new();
    s.push_str(&format!("== {} ==\n", out.label));
    s.push_str("  min   load   response(s)   throughput(q/s)\n");
    for (t, load, resp, thr) in &out.figure_rows {
        s.push_str(&format!(
            "{:5}   {:5.0}   {:10.2}   {:12.3}\n",
            t.as_secs() / 60,
            load,
            resp,
            thr
        ));
    }
    s.push_str(&out.report.render());
    let loads: Vec<f64> = out.figure_rows.iter().map(|r| r.1).collect();
    let resps: Vec<f64> = out.figure_rows.iter().map(|r| r.2).collect();
    let thrs: Vec<f64> = out.figure_rows.iter().map(|r| r.3).collect();
    s.push_str(&format!("  load       {}\n", sparkline(&loads)));
    s.push_str(&format!("  response   {}\n", sparkline(&resps)));
    s.push_str(&format!("  throughput {}\n", sparkline(&thrs)));
    if out.recoveries > 0 {
        s.push_str(&format!(
            "  recovery   {} restart(s), {} WAL record(s) replayed, max {} ms\n",
            out.recoveries, out.wal_records_replayed, out.max_recovery_ms
        ));
    }
    s
}

/// Renders a Table 1/2 block for one scenario.
pub fn render_table_block(n_dps: usize, rows: &TableRows) -> String {
    let header = format!(
        "--- {n_dps} decision point(s) ---\n{:>22}  {:>6}  {:>7}  {:>9}  {:>10}  {:>6}  {:>6}\n",
        "class", "%req", "#req", "QTime(s)", "NormQTime", "Util", "Acc"
    );
    format!(
        "{header}{:>22}  {}\n{:>22}  {}\n{:>22}  {}\n",
        "handled by GRUBER",
        rows.handled.row(),
        "NOT handled",
        rows.not_handled.row(),
        "all requests",
        rows.all.row()
    )
}

/// Renders an accuracy-vs-interval figure (Figs 8/12).
pub fn render_accuracy(label: &str, rows: &[(u64, f64)]) -> String {
    let mut s = format!("== {label} ==\n  exchange interval (min)   accuracy\n");
    for (m, acc) in rows {
        s.push_str(&format!("{m:>8}                    {:6.1}%\n", acc * 100.0));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_scales_to_max() {
        let s = sparkline(&[0.0, 1.0, 2.0, 4.0]);
        let chars: Vec<char> = s.chars().collect();
        assert_eq!(chars.len(), 4);
        assert_eq!(chars[0], '▁');
        assert_eq!(chars[3], '█');
        assert!(chars[1] < chars[3]);
        assert_eq!(sparkline(&[]), "");
        // All-zero input stays flat rather than dividing by zero.
        assert_eq!(sparkline(&[0.0, 0.0]), "▁▁");
    }

    #[test]
    fn accuracy_rendering() {
        let s = render_accuracy("test", &[(1, 0.99), (10, 0.8)]);
        assert!(s.contains("99.0%"));
        assert!(s.contains("80.0%"));
        assert!(s.contains("10"));
    }
}
