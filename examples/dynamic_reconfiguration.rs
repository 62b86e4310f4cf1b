//! Dynamic decision-point provisioning (the paper's Section 5 proposal,
//! implemented by `digruber`'s elastic module — see ARCHITECTURE.md
//! "Elastic membership").
//!
//! Starts the paper-scale workload against a SINGLE decision point with
//! the autoscaler enabled, and shows the infrastructure growing itself
//! until the load is served, then compares against the static 1-DP
//! baseline.
//!
//! ```text
//! cargo run --release --example dynamic_reconfiguration
//! ```

use digruber::config::DigruberConfig;
use digruber::{run_experiment, ScalerConfig, ServiceKind};
use workload::WorkloadSpec;

fn main() {
    let workload = WorkloadSpec::paper_default();

    // Static baseline: one decision point, fixed pool.
    let static_cfg = DigruberConfig::paper(1, ServiceKind::Gt3, 2005);
    let static_out = run_experiment(static_cfg, workload.clone(), "static, 1 DP")
        .expect("experiment failed");

    // Elastic: same starting point, autoscaler on.
    let mut elastic_cfg = DigruberConfig::paper(1, ServiceKind::Gt3, 2005);
    elastic_cfg.membership = Some(ScalerConfig::default());
    let elastic_out = run_experiment(elastic_cfg, workload, "elastic, from 1 DP")
        .expect("experiment failed");

    println!("{}", static_out.report.render());
    println!("{}", elastic_out.report.render());

    println!("pool changes:");
    for (t, dp) in &elastic_out.reconfig_log {
        println!("  {t}  joined {dp}");
    }
    for (t, dp) in &elastic_out.retire_log {
        println!("  {t}  left   {dp}");
    }
    println!(
        "\nfinal decision points: {} (started from 1; {} joins, {} leaves, {} clients re-homed)",
        elastic_out.final_dps,
        elastic_out.reconfig_log.len(),
        elastic_out.retire_log.len(),
        elastic_out.clients_rehomed
    );
    println!(
        "handled fraction: static {:.1}% -> elastic {:.1}%",
        static_out.report.handled_fraction() * 100.0,
        elastic_out.report.handled_fraction() * 100.0
    );
    println!(
        "peak throughput:  static {:.2} q/s -> elastic {:.2} q/s",
        static_out.report.peak_throughput_qps, elastic_out.report.peak_throughput_qps
    );
}
