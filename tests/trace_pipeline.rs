//! The experiment → trace → GRUB-SIM pipeline, end to end (Table 3's
//! data path): a run's traces go straight into the replay, in process.

use digruber::config::DigruberConfig;
use digruber::{run_experiment, ServiceKind};
use gruber_types::SimDuration;
use grubsim::{simulate_required_dps, CapacityModel, GrubSimReport};
use obs::Recorder;
use workload::WorkloadSpec;

fn scaled_run(n_dps: usize) -> digruber::ExperimentOutput {
    let mut cfg = DigruberConfig::paper(n_dps, ServiceKind::Gt3, 99);
    cfg.grid_factor = 1;
    run_experiment(
        cfg,
        WorkloadSpec {
            n_clients: 40,
            duration: SimDuration::from_mins(20),
            ..WorkloadSpec::paper_default()
        },
        "trace pipeline",
    )
    .unwrap()
}

/// Replays a run's traces on the deployment they were recorded on.
fn replay(out: &digruber::ExperimentOutput, n_dps: usize) -> GrubSimReport {
    simulate_required_dps(&out.traces, n_dps, CapacityModel::gt3(), SimDuration::MINUTE, &Recorder::OFF)
}

#[test]
fn grubsim_consumes_experiment_traces() {
    let out = scaled_run(1);
    let report = replay(&out, 1);
    assert_eq!(report.initial_dps, 1);
    assert!(report.intervals > 0);
    assert!(report.peak_offered_qps > 0.0);
    // An overloaded 1-DP run must provoke provisioning; the total stays
    // small ("as little as three to five decision points can be
    // sufficient").
    assert!(report.required_dps() >= 1);
    assert!(report.required_dps() <= 8, "{report:?}");
}

#[test]
fn grubsim_requirement_shrinks_when_experiment_has_enough_dps() {
    let r_under = replay(&scaled_run(1), 1);
    let r_okay = replay(&scaled_run(4), 4);
    // The well-provisioned run needs no (or almost no) additions.
    assert!(
        r_okay.added_dps <= r_under.added_dps + 1,
        "under: {r_under:?}, okay: {r_okay:?}"
    );
}

#[test]
fn grubsim_replay_is_deterministic() {
    let out = scaled_run(2);
    assert_eq!(replay(&out, 2), replay(&out, 2));
}
