//! USLA stack integration: generated sets → store → entitlement engine →
//! GRUBER admission, across the `usla`, `workload` and `gruber` crates.

use gridemu::grid3_times;
use gruber::{DispatchRecord, GruberEngine};
use gruber_types::{ClientId, GroupId, JobId, JobSpec, SimDuration, SimTime, SiteId, UserId, VoId};
use usla::{AdmissionVerdict, EntitlementEngine, Principal, UslaStore};
use workload::uslas::{equal_shares, weighted_shares};

#[test]
fn generated_sets_evaluate_within_the_grid() {
    for set in [
        equal_shares(5, 4).unwrap(),
        weighted_shares(&[1.0, 3.0]).unwrap(),
    ] {
        let engine = EntitlementEngine::new(&set, 1000.0);
        let total: f64 = set
            .children_of(Principal::Grid)
            .iter()
            .map(|e| engine.entitlement(e.consumer))
            .sum();
        assert!(total <= 1000.0 + 1e-6, "over-allocated: {total}");
    }
}

#[test]
fn store_dissemination_preserves_admission_behaviour() {
    // Publish on one store, disseminate the delta to a second, and verify
    // both yield identical admission verdicts.
    let set = equal_shares(4, 2).unwrap();
    let mut a = UslaStore::from_set(&set);
    let mut b = UslaStore::new();
    b.merge_delta(&a.delta_since(0));

    // Modify a goal on A, sync to B.
    let mut entry = **set.children_of(Principal::Grid).first().unwrap();
    entry.share = usla::FairShare::upper(5.0);
    let epoch_before = b.epoch();
    a.publish(entry).unwrap();
    b.merge_delta(&a.delta_since(epoch_before));

    let snap_a = a.snapshot();
    let snap_b = b.snapshot();
    assert_eq!(snap_a, snap_b);

    let ea = EntitlementEngine::new(&snap_a, 1000.0);
    let eb = EntitlementEngine::new(&snap_b, 1000.0);
    let p = Principal::Vo(VoId(0));
    let va = ea.check_admission(p, 1.0, 500.0, |_| 60.0);
    let vb = eb.check_admission(p, 1.0, 500.0, |_| 60.0);
    assert_eq!(va, vb);
    assert_eq!(va, AdmissionVerdict::Denied, "cap at 5% of 1000 = 50 < 61");
}

fn job(vo: u32, group: u32) -> JobSpec {
    JobSpec {
        id: JobId(12345),
        vo: VoId(vo),
        group: GroupId(group),
        user: UserId(0),
        client: ClientId(0),
        cpus: 1,
        storage_mb: 0,
        runtime: SimDuration::from_secs(600),
        submitted_at: SimTime::ZERO,
    }
}

#[test]
fn engine_admission_reflects_view_usage() {
    let sites = grid3_times(1, 3);
    let uslas = equal_shares(2, 1).unwrap();
    let mut engine = GruberEngine::new(&sites, &uslas);
    let total = sites.iter().map(|s| u64::from(s.total_cpus())).sum::<u64>();

    // Fresh engine: plenty of room.
    assert!(engine.admission(&job(0, 0), SimTime::ZERO).admitted());

    // Saturate the believed grid entirely: denial regardless of USLA.
    let mut jid = 0u32;
    for (i, site) in sites.iter().enumerate() {
        for _ in 0..site.total_cpus() {
            engine.record_dispatch(
                DispatchRecord {
                    job: JobId(jid),
                    site: SiteId(i as u32),
                    vo: VoId(jid % 2),
                    group: GroupId(0),
                    cpus: 1,
                    dispatched_at: SimTime::ZERO,
                    est_finish: SimTime::from_secs(10_000),
                },
                SimTime::ZERO,
            );
            jid += 1;
        }
    }
    assert_eq!(u64::from(jid), total);
    assert_eq!(
        engine.admission(&job(0, 0), SimTime::from_secs(1)),
        AdmissionVerdict::Denied
    );

    // After the believed jobs expire, admission opens again.
    assert!(engine
        .admission(&job(0, 0), SimTime::from_secs(10_001))
        .admitted());
}
