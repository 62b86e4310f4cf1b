//! Dissemination-strategy integration tests (paper Section 3.5) and
//! determinism guarantees, at reduced scale.

use digruber::config::DigruberConfig;
use digruber::{run_experiment, Dissemination, ExperimentOutput, ServiceKind, WanKind};
use gruber_types::SimDuration;
use workload::WorkloadSpec;

fn run(mutate: impl FnOnce(&mut DigruberConfig)) -> ExperimentOutput {
    let mut cfg = DigruberConfig::paper(3, ServiceKind::Gt3, 7);
    cfg.grid_factor = 1;
    mutate(&mut cfg);
    run_experiment(
        cfg,
        WorkloadSpec {
            n_clients: 40,
            duration: SimDuration::from_mins(20),
            ..WorkloadSpec::paper_default()
        },
        "dissemination",
    )
    .unwrap()
}

#[test]
fn exchange_beats_no_exchange_on_accuracy() {
    let usage_only = run(|_| {});
    let none = run(|c| c.dissemination = Dissemination::NoExchange);
    let a = usage_only.mean_handled_accuracy.unwrap();
    let b = none.mean_handled_accuracy.unwrap();
    assert!(
        a >= b,
        "usage-only exchange ({a}) must not be less accurate than none ({b})"
    );
}

#[test]
fn usla_exchange_mode_runs_and_matches_usage_only_without_usla_churn() {
    // With no USLA modifications mid-run, exchanging USLAs on top of usage
    // must not change scheduling outcomes.
    let usage_only = run(|_| {});
    let with_uslas = run(|c| c.dissemination = Dissemination::UsageAndUslas);
    assert_eq!(usage_only.jobs_dispatched, with_uslas.jobs_dispatched);
    assert_eq!(
        usage_only.mean_handled_accuracy,
        with_uslas.mean_handled_accuracy
    );
}

#[test]
fn shorter_exchange_interval_is_at_least_as_accurate() {
    let fast = run(|c| c.sync_interval = SimDuration::from_mins(1));
    let slow = run(|c| c.sync_interval = SimDuration::from_mins(15));
    assert!(
        fast.mean_handled_accuracy.unwrap() >= slow.mean_handled_accuracy.unwrap() - 0.01,
        "fast {:?} vs slow {:?}",
        fast.mean_handled_accuracy,
        slow.mean_handled_accuracy
    );
}

#[test]
fn lan_deployment_cuts_response_time() {
    // Paper conclusion: "we expect that performance will be significantly
    // better in a LAN environment".
    let wan = run(|_| {});
    let lan = run(|c| c.wan = WanKind::Lan);
    assert!(
        lan.report.response.mean < wan.report.response.mean,
        "LAN {} !< WAN {}",
        lan.report.response.mean,
        wan.report.response.mean
    );
}

#[test]
fn whole_experiment_is_bit_deterministic() {
    let a = run(|_| {});
    let b = run(|_| {});
    assert_eq!(a.traces, b.traces);
    assert_eq!(a.report, b.report);
    assert_eq!(a.figure_rows, b.figure_rows);
    assert_eq!(a.table, b.table);
}

/// Paper Section 5's third-party observer — the `membership` autoscaler
/// driven by `digruber::elastic` — exercised through the public run API.
mod pool_sizing {
    use super::*;
    use desim::DetRng;
    use digruber::elastic::{MembershipConfig, ScalerConfig};
    use digruber::events::{Ev, Sim};
    use digruber::run::run_to_end;
    use digruber::World;
    use gruber_types::SimTime;

    fn autoscaled(scaler: ScalerConfig) -> Option<MembershipConfig> {
        Some(MembershipConfig {
            scaler: Some(scaler),
            ..MembershipConfig::default()
        })
    }

    fn elastic(n_dps: usize, scaler: ScalerConfig) -> DigruberConfig {
        let mut cfg = DigruberConfig::small(n_dps, 11);
        cfg.membership = autoscaled(scaler);
        cfg
    }

    /// One point whose container holds `n` requests nobody completes,
    /// with the first autoscaler tick due at t = 0.
    fn saturated_sim(scaler: ScalerConfig, n: u64) -> Sim {
        let mut sim =
            Sim::with_events(World::new(elastic(1, scaler), WorkloadSpec::small()).unwrap());
        let w = sim.world_mut();
        for t in 0..n {
            w.dps[0].station.arrive(t, 1.0, &mut w.svc_rng);
        }
        sim.scheduler().post_at(SimTime::ZERO, Ev::MembershipTick);
        sim
    }

    #[test]
    fn overloaded_single_point_grows_the_pool() {
        let out = run(|c| {
            c.n_dps = 1;
            c.membership = autoscaled(ScalerConfig {
                grow_backlog: 4,
                ..ScalerConfig::default()
            });
        });
        assert!(out.final_dps > 1, "overloaded single DP never grew the pool");
        assert_eq!(out.reconfig_log.len(), out.final_dps - 1);
        assert_eq!(out.dp_joins as usize, out.reconfig_log.len());
    }

    #[test]
    fn transient_spike_does_not_grow_the_pool() {
        let mut sim = saturated_sim(
            ScalerConfig {
                grow_backlog: 2,
                cooldown: 0,
                ..ScalerConfig::default()
            },
            10,
        );
        // One hot sample…
        sim.run_until(SimTime::from_secs(1));
        // …then the backlog drains before the second one.
        let w = sim.world_mut();
        let mut rng = DetRng::new(0, 0);
        while w.dps[0].station.load() > 0 {
            while w.dps[0].station.finish(&mut rng).is_some() {}
        }
        sim.run_until(SimTime::from_secs(120));
        assert_eq!(sim.world().dps.len(), 1, "transient spike grew the pool");
    }

    #[test]
    fn max_dps_is_honoured_through_the_tick() {
        let mut sim = saturated_sim(
            ScalerConfig {
                grow_backlog: 1,
                grow_windows: 1,
                cooldown: 0,
                max_dps: 3,
                ..ScalerConfig::default()
            },
            50,
        );
        sim.run_until(SimTime::from_secs(600));
        let w = sim.world();
        assert_eq!(w.dps.len(), 3, "max_dps not honoured");
        assert_eq!(w.membership.as_ref().unwrap().table.live_count(), 3);
    }

    /// A full experiment that grows under early pressure and shrinks
    /// during the departure tail: no request vanishes with a departed
    /// point, every client ends on a live member, and the run stays
    /// deterministic through grow + shrink.
    #[test]
    fn grow_then_shrink_conserves_requests_and_rebinds_clients() {
        let cfg = elastic(
            1,
            ScalerConfig {
                grow_backlog: 2,
                grow_windows: 1,
                shrink_windows: 2,
                cooldown: 0,
                max_dps: 4,
                ..ScalerConfig::default()
            },
        );
        let wl = WorkloadSpec {
            n_clients: 24,
            departure_fraction: 0.5,
            ..WorkloadSpec::small()
        };
        let out = run_experiment(cfg.clone(), wl.clone(), "updown").unwrap();
        assert!(!out.reconfig_log.is_empty(), "pressure never grew the pool");
        assert!(!out.retire_log.is_empty(), "departure tail never shrank it");
        // Every issued request is in the trace set, answered or timed out.
        assert_eq!(out.traces.len(), out.report.issued);
        // Per-DP accounting covers departed points too.
        assert_eq!(out.timeouts_by_dp.len(), out.final_dps);
        let again = run_experiment(cfg.clone(), wl.clone(), "updown").unwrap();
        assert_eq!(format!("{out:?}"), format!("{again:?}"));

        let sim = run_to_end(cfg, wl).unwrap();
        let w = sim.world();
        let table = &w.membership.as_ref().unwrap().table;
        for &(_, left) in &out.retire_log {
            assert!(!w.dps[left.index()].up(), "{left} departed but is up");
        }
        for c in &w.clients {
            assert!(
                w.dps[c.dp.index()].up() && table.is_live(c.dp),
                "client {} ended on {}, which is down or departed",
                c.id,
                c.dp
            );
        }
    }

    /// A departed point is not a degrading point: over a traced diurnal
    /// wave the pool grows, then drains through graceful leaves, and the
    /// leavers' views go stale for the rest of the run — yet no health
    /// flag names a point after it left.
    #[test]
    fn graceful_leavers_are_never_flagged() {
        let mut cfg = DigruberConfig::small(3, 2005);
        cfg.trace = Some(obs::TraceConfig::default());
        cfg.membership = Some(MembershipConfig {
            vnodes: 64,
            check_interval: SimDuration::from_secs(30),
            scaler: Some(ScalerConfig {
                grow_backlog: 8,
                shrink_backlog: 1,
                grow_windows: 2,
                shrink_windows: 3,
                cooldown: 1,
                min_dps: 3,
                max_dps: 10,
            }),
        });
        let wl = WorkloadSpec {
            duration: SimDuration::from_mins(30),
            ..WorkloadSpec::diurnal(120)
        };
        let out = run_experiment(cfg, wl, "leavers").unwrap();
        assert!(!out.retire_log.is_empty(), "the drain never shrank the pool");
        let tl = out.timeline.as_ref().unwrap();
        // A leave is traced as a leave, not as a crash.
        assert_eq!(tl.totals.failures, 0);
        assert_eq!(tl.totals.dp_leaves, out.retire_log.len() as u64);
        let health = tl.health.as_ref().unwrap();
        for f in &health.flags {
            let left = out.retire_log.iter().find(|&&(_, dp)| dp == f.dp);
            assert!(
                left.is_none_or(|&(at, _)| f.t_ms < at.as_millis()),
                "{f:?} names a point that left at {left:?}"
            );
        }
    }

    /// Crashes and pool churn overlap: a point that leaves the pool while
    /// it is down must stay gone when its repair clock fires.
    #[test]
    fn failures_plus_membership_never_resurrect_a_departed_point() {
        use digruber::config::FailureConfig;
        // Seed 1: a point leaves while crashed and its repair fires later.
        // Seed 7: the last member crashes while its clients fail over.
        for seed in [1, 7] {
            let mut cfg = DigruberConfig::paper(3, ServiceKind::Gt3, seed);
            cfg.grid_factor = 1;
            cfg.failures = Some(FailureConfig {
                dp_mtbf: SimDuration::from_mins(6),
                dp_repair: SimDuration::from_mins(5),
                failover_after: 2,
            });
            cfg.membership = Some(MembershipConfig::default());
            let wl = WorkloadSpec {
                n_clients: 40,
                duration: SimDuration::from_mins(40),
                departure_fraction: 0.5,
                ..WorkloadSpec::paper_default()
            };
            let sim = run_to_end(cfg, wl).unwrap();
            let w = sim.world();
            let m = w.membership.as_ref().unwrap();
            assert!(w.dp_failures > 0 && m.dp_leaves > 0, "seed {seed}: no overlap");
            for dp in &w.dps {
                assert!(
                    !dp.up() || m.table.is_live(dp.id),
                    "seed {seed}: {} is up but left the pool",
                    dp.id
                );
            }
            for c in &w.clients {
                assert!(
                    m.table.is_live(c.dp),
                    "seed {seed}: client {} bound to departed {}",
                    c.id,
                    c.dp
                );
            }
        }
    }
}

mod topology {
    use super::*;
    use digruber::SyncTopology;

    fn acc_with(topology: SyncTopology) -> f64 {
        run(|c| c.topology = topology)
            .mean_handled_accuracy
            .unwrap()
    }

    #[test]
    fn all_topologies_propagate_state() {
        // Any connected topology with forwarding must land in the same
        // accuracy neighbourhood as the paper's full mesh (records take a
        // few extra rounds to travel a ring, so allow a modest gap).
        let mesh = acc_with(SyncTopology::FullMesh);
        for (name, topo) in [
            ("ring", SyncTopology::Ring),
            ("star", SyncTopology::Star { hub: 0 }),
            ("hierarchical", SyncTopology::Hierarchical { branching: 2 }),
            ("hybrid", SyncTopology::HybridEpidemic { fanout: 1 }),
            ("gossip", SyncTopology::Gossip { fanout: 2 }),
        ] {
            let acc = acc_with(topo);
            assert!(
                acc > mesh - 0.15,
                "{name} accuracy {acc} far below mesh {mesh}"
            );
        }
    }

    #[test]
    fn any_connected_topology_beats_no_exchange() {
        let none = run(|c| c.dissemination = Dissemination::NoExchange)
            .mean_handled_accuracy
            .unwrap();
        let ring = acc_with(SyncTopology::Ring);
        assert!(ring >= none - 0.02, "ring {ring} vs no exchange {none}");
    }

    #[test]
    fn topologies_are_deterministic() {
        let a = run(|c| c.topology = SyncTopology::Gossip { fanout: 2 });
        let b = run(|c| c.topology = SyncTopology::Gossip { fanout: 2 });
        assert_eq!(a.traces, b.traces);
        assert_eq!(a.mean_handled_accuracy, b.mean_handled_accuracy);
    }
}

mod reliability {
    use super::*;
    use digruber::config::FailureConfig;

    #[test]
    fn failures_dent_but_do_not_break_the_service() {
        let clean = run(|_| {});
        let faulty = run(|c| {
            c.failures = Some(FailureConfig {
                dp_mtbf: SimDuration::from_mins(6),
                dp_repair: SimDuration::from_mins(5),
                failover_after: 2,
            });
        });
        assert!(faulty.dp_failures > 0);
        // Failures cost throughput but the mesh keeps the service alive.
        assert!(faulty.report.answered > clean.report.answered / 3);
        assert!(faulty.report.handled_fraction() > 0.4);
    }
}

mod extensions {
    use super::*;
    use digruber::faults::FaultPlan;

    #[test]
    fn message_loss_degrades_but_does_not_wedge() {
        let clean = run(|_| {});
        let plan = FaultPlan::parse("loss@0..1200=0.05").unwrap();
        let lossy = run(|c| c.fault_plan = Some(plan));
        assert!(lossy.report.issued > 0);
        // 5% per-leg loss must cost some handled requests…
        assert!(
            lossy.report.handled_fraction() <= clean.report.handled_fraction(),
            "loss improved service?"
        );
        // …but the system keeps functioning.
        assert!(lossy.report.handled_fraction() > 0.5);
        assert!(lossy.jobs_dispatched > clean.jobs_dispatched / 2);
    }

    #[test]
    fn queue_manager_caps_in_flight_jobs() {
        let unlimited = run(|_| {});
        let capped = run(|c| c.max_jobs_in_flight = Some(2));
        // With 40-minute jobs and a 2-job cap, hosts stall long before the
        // unlimited loop does: far fewer queries are issued.
        assert!(
            capped.report.issued < unlimited.report.issued / 2,
            "cap did not throttle: {} vs {}",
            capped.report.issued,
            unlimited.report.issued
        );
        assert!(capped.report.issued > 0);
        // Job accounting must stay consistent.
        assert!(capped.jobs_dispatched <= capped.report.issued);
    }

    #[test]
    fn departures_drain_the_load_curve() {
        // A departure ramp via the workload knob.
        let mut cfg = DigruberConfig::paper(3, ServiceKind::Gt3, 7);
        cfg.grid_factor = 1;
        let wl = WorkloadSpec {
            n_clients: 40,
            duration: SimDuration::from_mins(20),
            departure_fraction: 0.3,
            ..WorkloadSpec::paper_default()
        };
        let leaving = run_experiment(cfg, wl, "departures").unwrap();
        // The final load samples drop below the peak.
        let peak = leaving
            .figure_rows
            .iter()
            .map(|r| r.1)
            .fold(0.0f64, f64::max);
        let last = leaving.figure_rows.last().unwrap().1;
        assert!(last < peak, "load never ramped down: last {last}, peak {peak}");
    }
}

mod storage {
    use super::*;
    use desim::dist::Dist;

    #[test]
    fn data_intensive_workload_runs_and_may_shed_placements() {
        let mut cfg = DigruberConfig::paper(3, ServiceKind::Gt3, 7);
        cfg.grid_factor = 1;
        let wl = WorkloadSpec {
            n_clients: 40,
            duration: SimDuration::from_mins(20),
            // Each job stages ~2 GB; sites hold 10 GB per CPU.
            job_storage_mb: Dist::lognormal_mean_cv(2_000.0, 0.8),
            ..WorkloadSpec::paper_default()
        };
        let out = run_experiment(cfg, wl, "data-intensive").unwrap();
        assert!(out.jobs_dispatched > 0);
        // Storage pressure may reject some random placements on small
        // sites, but the broker-guided ones land.
        assert!(out.report.handled_fraction() > 0.9);
    }
}

mod fairness {
    use super::*;
    use usla::{FairShare, Principal, ResourceKind, UslaEntry, UslaSet};

    /// Paper §4.1: "we wanted to determine whether CPU resources could be
    /// allocated in a fair manner across multiple VOs". Symmetric demand +
    /// equal shares → near-equal consumed CPU shares.
    #[test]
    fn symmetric_demand_yields_symmetric_shares() {
        let out = run(|_| {});
        let shares = &out.vo_cpu_share;
        assert_eq!(shares.len(), 10);
        let sum: f64 = shares.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "shares must sum to 1: {sum}");
        let expected = 1.0 / 10.0;
        for (v, s) in shares.iter().enumerate() {
            assert!(
                (s - expected).abs() < expected * 0.5,
                "VO {v} share {s} far from {expected}"
            );
        }
    }

    /// With enforcement on and one VO capped to nothing, that VO's
    /// consumed share collapses while the others pick up the slack.
    #[test]
    fn enforced_zero_cap_starves_the_capped_vo() {
        let starved = run(|c| {
            c.enforce_uslas = true;
            let mut set = UslaSet::new();
            for v in 0..10u32 {
                set.insert(UslaEntry {
                    provider: Principal::Grid,
                    consumer: Principal::Vo(gruber_types::VoId(v)),
                    resource: ResourceKind::Cpu,
                    share: if v == 0 {
                        FairShare::upper(0.0)
                    } else {
                        FairShare::target(10.0)
                    },
                })
                .unwrap();
            }
            c.uslas = Some(set);
        });
        assert!(starved.denied_requests > 0, "cap never enforced");
        let capped = starved.vo_cpu_share[0];
        let typical = starved.vo_cpu_share[1];
        assert!(
            capped < typical * 0.5,
            "capped VO share {capped} not below typical {typical}"
        );
    }
}

mod monitoring {
    use super::*;

    /// The paper's site monitor "can be replaced with various other grid
    /// monitoring components". In monitor mode, availability answers come
    /// from periodic ground-truth snapshots; with a fast refresh, accuracy
    /// should match or beat dispatch tracking even at long sync intervals.
    #[test]
    fn fresh_monitoring_beats_stale_dispatch_tracking() {
        let stale_tracking = run(|c| c.sync_interval = SimDuration::from_mins(20));
        let monitored = run(|c| {
            c.sync_interval = SimDuration::from_mins(20);
            c.monitor_refresh = Some(SimDuration::from_secs(30));
        });
        let a = monitored.mean_handled_accuracy.unwrap();
        let b = stale_tracking.mean_handled_accuracy.unwrap();
        assert!(a >= b, "monitoring {a} should not lose to stale tracking {b}");
        assert!(a > 0.9, "fresh monitoring accuracy {a}");
    }

    #[test]
    fn monitor_mode_is_deterministic() {
        let x = run(|c| c.monitor_refresh = Some(SimDuration::from_secs(60)));
        let y = run(|c| c.monitor_refresh = Some(SimDuration::from_secs(60)));
        assert_eq!(x.traces, y.traces);
    }
}
