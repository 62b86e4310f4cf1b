//! Grid-view backend micro-benchmarks: the struct-of-arrays [`GridView`]
//! head-to-head against the reference map-of-heaps [`RefView`] on the
//! access patterns a DI-GRUBER decision point actually produces.
//!
//! Three patterns at 30/300/3000 sites (Grid3×1/×10/×100) bracket the
//! state side:
//!   * `merge_flood` — exchange-interval ingestion: batches of peer
//!     dispatch records merged with dedup against everything seen.
//!   * `expire_scan` — availability queries walking forward through time
//!     as observed jobs finish (the engine's per-query hot path).
//!   * `demand_probe` — per-site demand lookups between dispatches, the
//!     USLA-aware selector's inner loop.
//!
//! `expire_deep` is the trace-replay shape the three above do not reach:
//! a ten-point full mesh in steady state, 300 k records live at every
//! point (one-hour runtimes), each step merging one dispatch everywhere,
//! finishing one everywhere and answering one query. What it prices is an
//! expiry structure that is deep *and* out of cache, which is where a
//! comparison heap hurt.
//!
//! The same driver runs both backends, so a regression in either shows
//! up as a ratio change, not just a slowdown.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use gruber::{DispatchRecord, GridView, RefView, ViewStore};
use gruber_types::{GroupId, JobId, SimTime, SiteId, SiteSpec, VoId};

const N: u64 = 30_000;

/// Cheap deterministic stream (SplitMix64 finalizer) so both backends
/// see an identical, non-trivial schedule.
fn mix(i: u64) -> u64 {
    let mut z = i.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn sites(n: usize) -> Vec<SiteSpec> {
    (0..n)
        .map(|i| SiteSpec::single_cluster(SiteId(i as u32), 32))
        .collect()
}

fn record(i: u64, n_sites: usize) -> DispatchRecord {
    let r = mix(i);
    DispatchRecord {
        job: JobId(i as u32),
        site: SiteId((r % n_sites as u64) as u32),
        vo: VoId((r >> 8) as u32 % 10),
        group: GroupId((r >> 16) as u32 % 10),
        cpus: 1 + (r >> 24) as u32 % 4,
        dispatched_at: SimTime(i),
        est_finish: SimTime(i + 60_000 + (r >> 32) % 3_600_000),
    }
}

fn merge_flood<V: ViewStore>(n_sites: usize) {
    let s = sites(n_sites);
    let mut v = V::new(&s);
    let mut batch = Vec::with_capacity(64);
    let mut i = 0u64;
    while i < N {
        batch.clear();
        for _ in 0..64 {
            batch.push(record(i, n_sites));
            // Every other batch replays half its ids: peer floods overlap,
            // so dedup is on the hot path, not a corner case.
            i += if i % 128 < 64 { 1 } else { 2 };
        }
        v.merge(&batch, SimTime(i));
    }
    assert!(v.idle_cpus(SimTime(i)) <= v.grid_cpus());
}

fn expire_scan<V: ViewStore>(n_sites: usize) {
    let s = sites(n_sites);
    let mut v = V::new(&s);
    for i in 0..N {
        v.observe(&record(i, n_sites), SimTime(0));
    }
    // Walk availability forward through the whole horizon: every observed
    // job expires across these scans, as a run's query stream would see.
    let mut buf = Vec::new();
    let mut live = 0u64;
    for step in 0..200u64 {
        let now = SimTime(step * 20_000);
        v.free_per_site_into(now, &mut buf);
        live += buf.iter().map(|&f| u64::from(f)).sum::<u64>();
    }
    assert!(live > 0);
}

fn demand_probe<V: ViewStore>(n_sites: usize) {
    let s = sites(n_sites);
    let mut v = V::new(&s);
    let mut acc = 0u64;
    for i in 0..N {
        v.observe(&record(i, n_sites), SimTime(i));
        // Selector inner loop: a handful of per-site probes per dispatch.
        for k in 0..4 {
            acc += v.demand(SiteId(((mix(i ^ k) as usize) % n_sites) as u32), SimTime(i));
        }
    }
    assert!(acc > 0);
}

const DEEP_LIVE: u64 = 300_000;
const DEEP_STEPS: u64 = 100_000;
const DEEP_POINTS: usize = 10;
const DEEP_SITES: usize = 300;
const HOUR_MS: u64 = 3_600_000;
/// One dispatch every 12 ms, each running one hour: `DEEP_LIVE` live.
const DEEP_SPACING_MS: u64 = HOUR_MS / DEEP_LIVE;

fn deep_record(i: u64) -> DispatchRecord {
    let at = i * DEEP_SPACING_MS;
    DispatchRecord {
        dispatched_at: SimTime(at),
        est_finish: SimTime(at + HOUR_MS),
        ..record(i, DEEP_SITES)
    }
}

/// A full mesh an hour into a replay, in steady state: every point has
/// merged every dispatch, so each holds `DEEP_LIVE` live records, the
/// oldest about to finish.
fn deep_mesh<V: ViewStore>() -> Vec<V> {
    let s = sites(DEEP_SITES);
    let mut mesh: Vec<V> = (0..DEEP_POINTS).map(|_| V::new(&s)).collect();
    for i in 0..DEEP_LIVE {
        let rec = deep_record(i);
        for v in &mut mesh {
            v.observe(&rec, rec.dispatched_at);
        }
    }
    mesh
}

/// Walks the steady state: every step one record arrives at all ten
/// points and one finishes at each, and the step's home point answers a
/// query. Ten expiry structures take turns, so none stays in cache; one
/// view alone fits the last-level cache and hides what trace replay pays.
fn expire_deep<V: ViewStore>(mut mesh: Vec<V>) {
    let mut buf = Vec::new();
    for i in DEEP_LIVE..DEEP_LIVE + DEEP_STEPS {
        let rec = deep_record(i);
        for v in &mut mesh {
            assert!(v.observe(&rec, rec.dispatched_at));
        }
        mesh[i as usize % DEEP_POINTS].free_per_site_into(rec.dispatched_at, &mut buf);
    }
    assert_eq!(buf.len(), DEEP_SITES);
}

fn bench_backends(c: &mut Criterion) {
    let mut g = c.benchmark_group("soa_vs_ref_view");
    g.throughput(Throughput::Elements(N));
    for n_sites in [30usize, 300, 3000] {
        g.bench_function(format!("merge_flood/{n_sites}/soa"), |b| {
            b.iter(|| merge_flood::<GridView>(n_sites))
        });
        g.bench_function(format!("merge_flood/{n_sites}/ref"), |b| {
            b.iter(|| merge_flood::<RefView>(n_sites))
        });
        g.bench_function(format!("expire_scan/{n_sites}/soa"), |b| {
            b.iter(|| expire_scan::<GridView>(n_sites))
        });
        g.bench_function(format!("expire_scan/{n_sites}/ref"), |b| {
            b.iter(|| expire_scan::<RefView>(n_sites))
        });
        g.bench_function(format!("demand_probe/{n_sites}/soa"), |b| {
            b.iter(|| demand_probe::<GridView>(n_sites))
        });
        g.bench_function(format!("demand_probe/{n_sites}/ref"), |b| {
            b.iter(|| demand_probe::<RefView>(n_sites))
        });
    }
    g.throughput(Throughput::Elements(DEEP_STEPS));
    g.bench_function(format!("expire_deep/{DEEP_SITES}/soa"), |b| {
        b.iter_batched(deep_mesh::<GridView>, expire_deep, BatchSize::LargeInput)
    });
    g.bench_function(format!("expire_deep/{DEEP_SITES}/ref"), |b| {
        b.iter_batched(deep_mesh::<RefView>, expire_deep, BatchSize::LargeInput)
    });
    g.finish();
}

criterion_group!(benches, bench_backends);
criterion_main!(benches);
