//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * dissemination strategy (usage-only vs usage+USLAs vs none — paper
//!   Section 3.5's three approaches);
//! * WAN vs LAN deployment (the conclusion's "performance will be
//!   significantly better in a LAN environment");
//! * site-selection policy;
//! * static vs dynamic decision-point provisioning (Section 5).
//!
//! Each variant runs the scaled-down experiment end to end; the benchmark
//! value is the regeneration cost, and shape assertions at the end encode
//! the expected orderings.

use bench::SEED;
use criterion::{criterion_group, criterion_main, Criterion};
use digruber::config::{DigruberConfig, FailureConfig};
use digruber::{run_experiment, Dissemination, ExperimentOutput, ServiceKind, SyncTopology, WanKind};
use gruber::SelectorKind;
use gruber_types::SimDuration;
use membership::MembershipConfig;
use std::hint::black_box;
use workload::WorkloadSpec;

fn base_cfg() -> DigruberConfig {
    let mut cfg = DigruberConfig::paper(3, ServiceKind::Gt3, SEED);
    cfg.grid_factor = 1;
    cfg
}

fn wl() -> WorkloadSpec {
    WorkloadSpec {
        n_clients: 24,
        duration: SimDuration::from_mins(15),
        ..WorkloadSpec::paper_default()
    }
}

fn run(cfg: DigruberConfig, label: &str) -> ExperimentOutput {
    run_experiment(cfg, wl(), label).unwrap()
}

fn bench_ablations(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablations");
    g.sample_size(10);

    for (name, dis) in [
        ("dissemination_usage_only", Dissemination::UsageOnly),
        ("dissemination_usage_and_uslas", Dissemination::UsageAndUslas),
        ("dissemination_none", Dissemination::NoExchange),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut cfg = base_cfg();
                cfg.dissemination = dis;
                black_box(run(cfg, name))
            });
        });
    }

    for (name, wan) in [("wan_planetlab", WanKind::PlanetLab), ("lan", WanKind::Lan)] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut cfg = base_cfg();
                cfg.wan = wan;
                black_box(run(cfg, name))
            });
        });
    }

    for (name, sel) in [
        ("selector_least_used", SelectorKind::LeastUsed),
        ("selector_round_robin", SelectorKind::RoundRobin),
        ("selector_random", SelectorKind::Random),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut cfg = base_cfg();
                cfg.selector = sel;
                black_box(run(cfg, name))
            });
        });
    }

    for (name, topo) in [
        ("topology_full_mesh", SyncTopology::FullMesh),
        ("topology_ring", SyncTopology::Ring),
        ("topology_star", SyncTopology::Star { hub: 0 }),
        ("topology_gossip_2", SyncTopology::Gossip { fanout: 2 }),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut cfg = base_cfg();
                cfg.topology = topo;
                black_box(run(cfg, name))
            });
        });
    }

    for (name, disc) in [
        ("site_fifo", gridemu::SiteDiscipline::Fifo),
        ("site_easy_backfill", gridemu::SiteDiscipline::EasyBackfill),
        ("site_fair_share", gridemu::SiteDiscipline::FairShare),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut cfg = base_cfg();
                cfg.site_discipline = disc;
                black_box(run(cfg, name))
            });
        });
    }

    g.bench_function("failures_with_failover", |b| {
        b.iter(|| {
            let mut cfg = base_cfg();
            cfg.failures = Some(FailureConfig::default());
            black_box(run(cfg, "faulty"))
        });
    });

    g.bench_function("dynamic_provisioning_from_1_dp", |b| {
        b.iter(|| {
            let mut cfg = base_cfg();
            cfg.n_dps = 1;
            cfg.membership = Some(MembershipConfig::default());
            black_box(run(cfg, "dynamic"))
        });
    });

    g.finish();

    // Shape assertions.
    let mut lan_cfg = base_cfg();
    lan_cfg.wan = WanKind::Lan;
    let lan = run(lan_cfg, "lan");
    let wan = run(base_cfg(), "wan");
    assert!(
        lan.report.response.mean < wan.report.response.mean,
        "LAN must beat WAN on response time ({} vs {})",
        lan.report.response.mean,
        wan.report.response.mean
    );

    let mut no_sync_cfg = base_cfg();
    no_sync_cfg.dissemination = Dissemination::NoExchange;
    let no_sync = run(no_sync_cfg, "nosync");
    let sync = run(base_cfg(), "sync");
    assert!(
        sync.mean_handled_accuracy.unwrap_or(0.0) + 1e-9
            >= no_sync.mean_handled_accuracy.unwrap_or(0.0),
        "state exchange must not hurt accuracy"
    );
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
