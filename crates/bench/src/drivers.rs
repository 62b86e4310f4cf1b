//! The specs and row extractors behind the paper's artifacts.
//!
//! Every artifact is a [`RunSpec`] list the caller runs itself
//! ([`crate::run_specs`], any worker count — the runs only differ in which
//! thread executed them) plus a function that reads the rows out of the
//! finished outputs.

use digruber::config::DigruberConfig;
use digruber::{ExperimentOutput, RunSpec, ServiceKind};
use gruber_types::SimDuration;
use grubsim::CapacityModel;
use workload::WorkloadSpec;

/// The GRUB-SIM capacity model matching a service stack.
pub fn capacity_model(service: ServiceKind) -> CapacityModel {
    match service {
        ServiceKind::Gt3 | ServiceKind::Gt3InstanceCreation => CapacityModel::gt3(),
        ServiceKind::Gt4Prerelease => CapacityModel::gt4_prerelease(),
    }
}

/// Default experiment seed (any seed reproduces the same shapes).
pub const SEED: u64 = 2005;

/// The scalability figure family (Figs 5–7 for GT3, 9–11 for GT4; also
/// Tables 1–3 and the crossover study): the paper's workload against
/// `n_dps` decision points.
pub fn dp_scaling_spec(service: ServiceKind, n_dps: usize, seed: u64) -> RunSpec {
    let label = format!(
        "{} DI-GRUBER, {} decision point(s)",
        match service {
            ServiceKind::Gt3 => "GT3",
            ServiceKind::Gt4Prerelease => "GT4",
            ServiceKind::Gt3InstanceCreation => "GT3-IC",
        },
        n_dps
    );
    RunSpec::new(
        label,
        DigruberConfig::paper(n_dps, service, seed),
        WorkloadSpec::paper_default(),
    )
}

/// Figure 1: GT3 service-instance creation under a DiPerF ramp. The
/// brokering machinery is bypassed in spirit — requests carry a tiny
/// payload and hit the cheap instance-creation profile — but the same
/// client loop, WAN and collector are used, exactly like the paper's
/// stand-alone DiPerF experiment.
pub fn fig1_spec(seed: u64) -> RunSpec {
    let mut cfg = DigruberConfig::paper(1, ServiceKind::Gt3InstanceCreation, seed);
    // A tiny grid keeps the availability payload (and thus marshalling
    // cost) negligible, isolating the service-creation cost like Fig 1.
    cfg.grid_factor = 1;
    let mut wl = WorkloadSpec::paper_default();
    wl.n_clients = 100;
    RunSpec::new("GT3 service instance creation (Figure 1)", cfg, wl)
}

/// Figures 8 / 12: scheduling accuracy as a function of the exchange
/// interval, three decision points — one spec per interval.
pub fn accuracy_specs(service: ServiceKind, intervals_min: &[u64], seed: u64) -> Vec<RunSpec> {
    intervals_min
        .iter()
        .map(|&m| {
            let mut cfg = DigruberConfig::paper(3, service, seed);
            cfg.sync_interval = SimDuration::from_mins(m);
            RunSpec::new(
                format!("accuracy @ {m} min exchange"),
                cfg,
                WorkloadSpec::paper_default(),
            )
        })
        .collect()
}

/// Extracts the `(interval, mean accuracy)` rows from finished
/// [`accuracy_specs`] outputs (in spec order).
pub fn accuracy_rows(intervals_min: &[u64], outs: &[ExperimentOutput]) -> Vec<(u64, f64)> {
    outs.iter()
        .zip(intervals_min)
        .map(|(out, &m)| (m, out.mean_handled_accuracy.unwrap_or(0.0)))
        .collect()
}

/// The crossover study: where adding decision points stops paying ("for a
/// certain grid configuration size, there is an appropriate number of
/// decision points that can serve the scheduling purposes"). Extracts
/// `(n_dps, peak throughput, mean response, handled fraction)` rows from
/// finished [`dp_scaling_spec`] outputs.
pub fn crossover_rows(
    dp_counts: &[usize],
    outs: &[ExperimentOutput],
) -> Vec<(usize, f64, f64, f64)> {
    outs.iter()
        .zip(dp_counts)
        .map(|(out, &n)| {
            (
                n,
                out.report.peak_throughput_qps,
                out.report.response.mean,
                out.report.handled_fraction(),
            )
        })
        .collect()
}
