//! Micro-benchmarks of the brokering hot paths: what one decision point
//! does per query (availability snapshot, dispatch recording, peer merge,
//! USLA admission). These bound the *algorithmic* cost of a decision point,
//! as opposed to the GT-container costs the paper measures; they show the
//! broker logic itself is nowhere near the bottleneck.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use gridemu::grid3_times;
use gruber::{DispatchRecord, GruberEngine};
use gruber_types::{ClientId, GroupId, JobId, JobSpec, SimDuration, SimTime, SiteId, UserId, VoId};
use std::hint::black_box;
use workload::uslas::equal_shares;

fn engine_with_load(n_records: u32) -> GruberEngine {
    let sites = grid3_times(10, 1);
    let uslas = equal_shares(10, 10).unwrap();
    let mut e = GruberEngine::new(&sites, &uslas);
    for j in 0..n_records {
        e.record_dispatch(
            DispatchRecord {
                job: JobId(j),
                site: SiteId(j % 300),
                vo: VoId(j % 10),
                group: GroupId(j % 10),
                cpus: 1,
                dispatched_at: SimTime::ZERO,
                est_finish: SimTime::from_secs(3600),
            },
            SimTime::ZERO,
        );
    }
    e
}

fn job() -> JobSpec {
    JobSpec {
        id: JobId(u32::MAX),
        vo: VoId(3),
        group: GroupId(4),
        user: UserId(0),
        client: ClientId(0),
        cpus: 1,
        storage_mb: 0,
        runtime: SimDuration::from_secs(900),
        submitted_at: SimTime::ZERO,
    }
}

fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");

    g.bench_function("availability_300_sites", |b| {
        let mut e = engine_with_load(2000);
        let now = SimTime::from_secs(100);
        b.iter(|| black_box(e.availability(now)));
    });

    g.bench_function("record_dispatch", |b| {
        b.iter_batched(
            || engine_with_load(0),
            |mut e| {
                for j in 0..100u32 {
                    e.record_dispatch(
                        DispatchRecord {
                            job: JobId(j),
                            site: SiteId(j % 300),
                            vo: VoId(0),
                            group: GroupId(0),
                            cpus: 1,
                            dispatched_at: SimTime::ZERO,
                            est_finish: SimTime::from_secs(3600),
                        },
                        SimTime::ZERO,
                    );
                }
                e
            },
            BatchSize::SmallInput,
        );
    });

    g.bench_function("merge_180_peer_records", |b| {
        // One 3-minute sync batch from a saturated GT3 peer (~2 q/s × 180 s).
        let records: Vec<DispatchRecord> = (0..360u32)
            .map(|j| DispatchRecord {
                job: JobId(1_000_000 + j),
                site: SiteId(j % 300),
                vo: VoId(j % 10),
                group: GroupId(0),
                cpus: 1,
                dispatched_at: SimTime::ZERO,
                est_finish: SimTime::from_secs(3600),
            })
            .collect();
        b.iter_batched(
            || engine_with_load(1000),
            |mut e| e.merge_peer_records(black_box(&records), SimTime::from_secs(1), false, None),
            BatchSize::SmallInput,
        );
    });

    g.bench_function("usla_admission", |b| {
        let mut e = engine_with_load(2000);
        let j = job();
        let now = SimTime::from_secs(100);
        b.iter(|| black_box(e.admission(&j, now)));
    });

    g.finish();
}

fn bench_usla(c: &mut Criterion) {
    let mut g = c.benchmark_group("usla");
    let set = equal_shares(10, 10).unwrap();
    let text = usla::text::print(&set);

    g.bench_function("parse_110_goals", |b| {
        b.iter(|| usla::text::parse(black_box(&text)).unwrap());
    });

    g.bench_function("distribute_10_children", |b| {
        let rules: Vec<usla::FairShare> = (0..10)
            .map(|i| {
                if i % 3 == 0 {
                    usla::FairShare::upper(15.0)
                } else {
                    usla::FairShare::target(10.0)
                }
            })
            .collect();
        b.iter(|| usla::distribute(black_box(45_000.0), black_box(&rules)));
    });

    g.finish();
}

criterion_group!(benches, bench_engine, bench_usla);
criterion_main!(benches);
