//! Service reliability under decision-point failures.
//!
//! "We cannot afford for this infrastructure to fail" (paper §2.2). This
//! example injects decision-point crashes (a `churn@0=900+600` fault-plan
//! clause: exponential MTBF/repair clocks) into the paper-scale deployment
//! and compares four postures:
//!
//! 1. no failures (the paper's experiments);
//! 2. failures with strictly static client binding (clients keep querying
//!    their dead point);
//! 3. failures with client failover (re-bind after 2 consecutive
//!    timeouts) — at this load the deployment is capacity-bound, so
//!    failover merely spreads the pain: moving 40 clients onto the
//!    survivors saturates *them* too;
//! 4. failover **plus dynamic provisioning** (paper §5, `digruber`'s
//!    elastic autoscaler): decision points join when the survivors
//!    overload — the correct response when the problem is missing
//!    capacity.
//!
//! ```text
//! cargo run --release --example reliability_failover
//! ```

use digruber::config::DigruberConfig;
use digruber::{run_experiment, ExperimentOutput, FaultPlan, ScalerConfig, ServiceKind};
use workload::WorkloadSpec;

/// One posture: `failover_after` of `None` runs without failures.
fn run(
    failover_after: Option<u32>,
    membership: Option<ScalerConfig>,
    label: &str,
) -> ExperimentOutput {
    let mut cfg = DigruberConfig::paper(3, ServiceKind::Gt3, 2005);
    if let Some(after) = failover_after {
        cfg.fault_plan = Some(FaultPlan::parse("churn@0=900+600").expect("valid plan"));
        cfg.failover_after = after;
    }
    cfg.membership = membership;
    run_experiment(cfg, WorkloadSpec::paper_default(), label).expect("experiment failed")
}

fn main() {
    let clean = run(None, None, "no failures");
    let static_binding = run(Some(0), None, "failures, static binding");
    let failover = run(Some(2), None, "failures, failover only");
    let provisioned = run(
        Some(2),
        Some(ScalerConfig::default()),
        "failures, failover + dynamic provisioning",
    );

    println!("3 GT3 decision points, Grid3x10, 120 hosts, 1 h, MTBF 15 min, repair 10 min\n");
    println!(
        "{:<44} {:>7} {:>9} {:>6} {:>9} {:>9}",
        "posture", "crashes", "failovers", "DPs", "handled", "peak q/s"
    );
    for out in [&clean, &static_binding, &failover, &provisioned] {
        println!(
            "{:<44} {:>7} {:>9} {:>6} {:>8.1}% {:>9.2}",
            out.label,
            out.dp_failures,
            out.failovers,
            out.final_dps,
            out.report.handled_fraction() * 100.0,
            out.report.peak_throughput_qps,
        );
    }
    println!(
        "\nTakeaway: at this load the 3-point deployment is capacity-bound, so\n\
         failover alone spreads saturation rather than curing it; pairing it\n\
         with the paper's Section 5 dynamic provisioning restores service."
    );
}
