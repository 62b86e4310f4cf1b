//! Layer kernels: each drives one layer's public API alone, at the shape
//! of the workload being traced, and reports the cost of one operation
//! in the fastest of [`BATCHES`] timed batches. A layer's busy share of a
//! workload is its call count times its kernel cost (`workloads::layer_table`).

use crate::stats::Metric;
use crate::workloads::RecordGen;
use desim::{DetRng, Scheduler, Simulation};
use dpnode::{
    record_to_delta, Dissemination, DpNode, Effect, FloodPayload, Input, NodeConfig, Topology,
    WalOp,
};
use dpstore::{FileStore, Store};
use gridemu::{Grid, SitePolicy};
use gruber::{DispatchRecord, GridView, GruberEngine, LeastUsedSelector, SiteSelector};
use gruber_types::{
    ClientId, DpId, GroupId, JobId, JobSpec, SimDuration, SimTime, SiteId, SiteSpec, UserId, VoId,
};
use obs::{Recorder, TraceConfig, TraceEvent};
use simnet::codec::{
    availability_payload_kb, decode_deltas, decode_inform, encode_deltas, encode_frame,
    encode_inform, DispatchDelta, FrameBuf,
};
use simnet::{ServiceProfile, ServiceStation};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};
use usla::UslaSet;

/// Timed batches per kernel, after one untimed warm-up batch.
const BATCHES: usize = 7;
/// Records a persisting node holds when its snapshot and recovery are
/// timed: `sock-durable`'s `snapshot_records`.
pub const SNAPSHOT_RECORDS: usize = 4096;
/// WAL records behind the snapshot when recovery is timed.
const WAL_RECORDS: usize = 1024;
/// Pending-event horizon of the scheduler kernel, ms of simulated time.
const HOLD_HORIZON_MS: u64 = 120_000;

/// The shape of the workload the kernels stand in for.
pub struct Shape<'a> {
    pub sites: &'a [SiteSpec],
    pub uslas: &'a UslaSet,
    pub n_dps: usize,
    /// Records per flood payload.
    pub flood: usize,
    /// Events pending in the scheduler.
    pub pending: usize,
    pub seed: u64,
    /// Scratch directory for the store kernels.
    pub dir: &'a Path,
}

/// Median cost of one operation of each layer kernel.
pub struct Kernels {
    pub schedule_pop: Metric,
    pub service_admit: Metric,
    pub encode_deltas: Metric,
    pub decode_deltas: Metric,
    pub inform_roundtrip: Metric,
    pub framebuf: Metric,
    pub availability: Metric,
    pub view_merge: Metric,
    pub view_expire: Metric,
    pub select: Metric,
    pub usla_eval: Metric,
    pub grid_dispatch: Metric,
    pub handle_query: Metric,
    pub handle_inform: Metric,
    pub peer_records: Metric,
    pub sync_tick: Metric,
    pub snapshot_encode: Metric,
    pub store_append: Metric,
    pub store_snapshot: Metric,
    pub store_recover: Metric,
    pub emit_off: Metric,
    pub emit_on: Metric,
}

/// Runs `batch` once to warm up and then [`BATCHES`] times. Each call
/// returns how many operations it timed and how long they took; what a
/// batch prepares before starting its clock is not measured. The value
/// is the fastest batch's (the host can only lengthen one), the
/// quartiles are over all batches.
fn measure(
    unit: &'static str,
    per_unit_ns: f64,
    mut batch: impl FnMut() -> (u64, Duration),
) -> Metric {
    batch();
    let mut samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let (ops, took) = batch();
            took.as_nanos() as f64 / ops as f64 / per_unit_ns
        })
        .collect();
    Metric::quiet_low(&mut samples, unit)
}

fn timed<T>(f: impl FnOnce() -> T) -> Duration {
    let t = Instant::now();
    black_box(f());
    t.elapsed()
}

fn node(id: u32, persist: bool, s: &Shape) -> DpNode {
    DpNode::new(
        NodeConfig {
            id: DpId(id),
            topology: Topology::FullMesh,
            dissemination: Dissemination::UsageOnly,
            sync_every: None,
            gossip_seed: 0,
            persist,
        },
        s.sites,
        s.uslas,
    )
}

fn job(id: u32) -> JobSpec {
    JobSpec {
        id: JobId(id),
        vo: VoId(id % 10),
        group: GroupId(id % 7),
        user: UserId(0),
        client: ClientId(0),
        cpus: 1,
        storage_mb: 0,
        runtime: SimDuration::from_secs(3600),
        submitted_at: SimTime::ZERO,
    }
}

fn payload(records: &[DispatchRecord]) -> FloodPayload {
    let deltas: Vec<DispatchDelta> = records.iter().map(record_to_delta).collect();
    FloodPayload {
        n_records: deltas.len() as u32,
        records: encode_deltas(&deltas),
        uslas: Vec::new(),
    }
}

/// How many payloads of `flood` records make a batch of about 50 000.
fn reps(flood: usize) -> usize {
    (50_000 / flood).max(1)
}

/// The hold model: every executed event schedules one successor, so the
/// queue stays at its prefilled depth while events are popped.
struct Hold {
    rng: DetRng,
}

/// `tag` is captured so every event is a boxed closure with a payload,
/// like the simulator's own events, not a zero-sized function item.
#[allow(clippy::only_used_in_recursion)]
fn hold(w: &mut Hold, s: &mut Scheduler<Hold>, tag: u64) {
    let delay = 1 + w.rng.index(HOLD_HORIZON_MS as usize) as u64;
    s.schedule_in(SimDuration(delay), move |w, s| hold(w, s, tag + 1));
}

fn schedule_pop(s: &Shape) -> Metric {
    let mut rng = DetRng::new(s.seed, 0xDE51);
    let mut sim = Simulation::new(Hold {
        rng: DetRng::new(s.seed, 0xDE52),
    });
    for i in 0..s.pending as u64 {
        let at = SimTime(rng.index(HOLD_HORIZON_MS as usize) as u64);
        sim.scheduler().schedule_at(at, move |w, s| hold(w, s, i));
    }
    // About 200 000 events per batch: the mean delay is half the horizon.
    let step = (200_000 * HOLD_HORIZON_MS / (2 * s.pending as u64)).max(1);
    measure("ns", 1.0, || {
        let before = sim.events_executed();
        let until = SimTime(sim.now().0 + step);
        let took = timed(|| sim.run_until(until));
        (sim.events_executed() - before, took)
    })
}

fn service_admit(s: &Shape) -> Metric {
    let mut station = ServiceStation::new(ServiceProfile::gt3());
    let mut rng = DetRng::new(s.seed, 0x5E71);
    let kb = availability_payload_kb(s.sites.len());
    // Fill the workers so every timed arrival queues and every finish
    // promotes one: the station's steady state under load.
    for tag in 0..=station.profile().workers as u64 {
        station.arrive(tag, kb, &mut rng);
    }
    measure("ns", 1.0, || {
        let n = 50_000u64;
        let took = timed(|| {
            for tag in 0..n {
                black_box(station.arrive(tag, kb, &mut rng));
                black_box(station.finish(&mut rng));
            }
        });
        (n, took)
    })
}

fn codec(s: &Shape, gen: &mut RecordGen) -> (Metric, Metric, Metric, Metric) {
    let deltas: Vec<DispatchDelta> = gen
        .batch(s.flood, SimTime::ZERO)
        .iter()
        .map(record_to_delta)
        .collect();
    let n = reps(s.flood);
    let ops = (n * s.flood) as u64;
    let encode = measure("ns", 1.0, || {
        let took = timed(|| {
            for _ in 0..n {
                black_box(encode_deltas(black_box(&deltas)));
            }
        });
        (ops, took)
    });
    let wire = encode_deltas(&deltas);
    let decode = measure("ns", 1.0, || {
        let took = timed(|| {
            for _ in 0..n {
                black_box(decode_deltas(black_box(wire.clone())).expect("own encoding"));
            }
        });
        (ops, took)
    });
    let inform = measure("ns", 1.0, || {
        let took = timed(|| {
            for d in &deltas {
                black_box(decode_inform(encode_inform(black_box(d))).expect("own encoding"));
            }
        });
        (deltas.len() as u64, took)
    });
    // A stream of query replies (the largest frame a client reads), fed
    // in the 8 KiB chunks the socket readers use.
    let reply = vec![0u8; 8 + 4 * s.sites.len()];
    let frames = 256usize;
    let stream: Vec<u8> = (0..frames)
        .flat_map(|_| encode_frame(1, &reply).as_ref().to_vec())
        .collect();
    let framebuf = measure("ns", 1.0, || {
        let took = timed(|| {
            let mut fb = FrameBuf::new();
            let mut seen = 0usize;
            for chunk in stream.chunks(8192) {
                fb.extend(chunk);
                while let Some(frame) = fb.next_frame().expect("own framing") {
                    black_box(frame);
                    seen += 1;
                }
            }
            assert_eq!(seen, frames);
        });
        (frames as u64, took)
    });
    (encode, decode, inform, framebuf)
}

fn gruber_layer(s: &Shape, gen: &mut RecordGen) -> (Metric, Metric, Metric, Metric, Metric) {
    let mut engine = GruberEngine::new(s.sites, s.uslas);
    for rec in gen.batch(SNAPSHOT_RECORDS, SimTime::ZERO) {
        engine.record_dispatch(rec, SimTime::ZERO);
    }
    let availability = measure("ns", 1.0, || {
        let n = 20_000u64;
        let took = timed(|| {
            for i in 0..n {
                black_box(engine.availability(SimTime(i / 100)));
            }
        });
        (n, took)
    });
    let usla_eval = measure("ns", 1.0, || {
        let n = 2_000u32;
        let took = timed(|| {
            for i in 0..n {
                black_box(engine.admission(black_box(&job(i)), SimTime(1_000)));
            }
        });
        (u64::from(n), took)
    });

    let mut view = GridView::new(s.sites);
    let n = reps(s.flood);
    let merge = measure("ns", 1.0, || {
        let floods: Vec<Vec<DispatchRecord>> =
            (0..n).map(|_| gen.batch(s.flood, SimTime::ZERO)).collect();
        let took = timed(|| {
            for flood in &floods {
                black_box(view.merge(flood, SimTime::ZERO));
            }
        });
        ((n * s.flood) as u64, took)
    });
    let expire = measure("ns", 1.0, || {
        let mut view = GridView::new(s.sites);
        let n = 50_000usize;
        for (i, mut rec) in gen.batch(n, SimTime::ZERO).into_iter().enumerate() {
            rec.est_finish = SimTime(1_000 + (i % 1_000) as u64);
            view.observe(&rec, SimTime::ZERO);
        }
        let took = timed(|| view.expire(SimTime(2_000)));
        (n as u64, took)
    });

    let free = engine.availability(SimTime(2_000));
    let mut selector = LeastUsedSelector::new(s.seed, 0);
    let spec = job(0);
    let select = measure("ns", 1.0, || {
        let n = 50_000u64;
        let took = timed(|| {
            for _ in 0..n {
                black_box(selector.select(black_box(&free), &spec, SimTime::ZERO));
            }
        });
        (n, took)
    });
    (availability, merge, expire, select, usla_eval)
}

fn grid_dispatch(s: &Shape) -> Metric {
    let mut grid = Grid::new(s.sites.to_vec(), SitePolicy::permissive()).expect("valid sites");
    let mut rng = DetRng::new(s.seed, 0x621D);
    let mut next = 0u32;
    measure("ns", 1.0, || {
        let n = 20_000u32;
        let took = timed(|| {
            for _ in 0..n {
                let spec = job(next);
                next += 1;
                let site = SiteId(rng.index(s.sites.len()) as u32);
                grid.submit(spec.clone()).expect("fresh job id");
                // Completing at once keeps every site's CPUs free, so each
                // dispatch starts its job instead of queueing it.
                black_box(grid.dispatch(spec.id, site, SimTime::ZERO, true)).expect("free CPU");
                black_box(grid.complete(spec.id, SimTime(1))).expect("running job");
            }
        });
        (u64::from(n), took)
    })
}

fn dpnode_layer(s: &Shape, gen: &mut RecordGen) -> (Metric, Metric, Metric, Metric) {
    let mut fx: Vec<Effect> = Vec::new();
    let mut dp = node(0, false, s);
    for rec in gen.batch(SNAPSHOT_RECORDS, SimTime::ZERO) {
        dp.handle(SimTime::ZERO, Input::Inform(rec), &mut fx);
    }
    let query = measure("ns", 1.0, || {
        let n = 20_000u64;
        let took = timed(|| {
            for i in 0..n {
                dp.handle(
                    SimTime(i / 100),
                    Input::QueryArrived { admission: None },
                    &mut fx,
                );
                black_box(&fx);
                fx.clear();
            }
        });
        (n, took)
    });
    let inform = measure("ns", 1.0, || {
        let records = gen.batch(50_000, SimTime(1_000));
        let took = timed(|| {
            for rec in &records {
                dp.handle(SimTime(1_000), Input::Inform(*rec), &mut fx);
            }
        });
        dp.engine_mut().drain_log();
        (records.len() as u64, took)
    });
    let n = reps(s.flood);
    let peer = measure("ns", 1.0, || {
        let floods: Vec<FloodPayload> = (0..n)
            .map(|_| payload(&gen.batch(s.flood, SimTime(1_000))))
            .collect();
        let took = timed(|| {
            for flood in floods {
                dp.handle(SimTime(1_000), Input::PeerRecords(flood), &mut fx);
            }
        });
        ((n * s.flood) as u64, took)
    });
    let sync = measure("ns", 1.0, || {
        let rounds = 8u64;
        let mut took = Duration::ZERO;
        for _ in 0..rounds {
            for rec in gen.batch(s.flood, SimTime(1_000)) {
                dp.handle(SimTime(1_000), Input::Inform(rec), &mut fx);
            }
            took +=
                timed(|| dp.handle(SimTime(1_000), Input::SyncTick { n_dps: s.n_dps }, &mut fx));
            fx.clear();
        }
        (rounds, took)
    });
    (query, inform, peer, sync)
}

/// The durable path: snapshot encoding in `dpnode`, then `FileStore`
/// appends (one `sync_data` each), snapshot writes and a full recovery
/// (open + scan, snapshot decode, WAL replay into a fresh node).
fn store_layer(s: &Shape, gen: &mut RecordGen) -> (Metric, Metric, Metric, Metric) {
    let mut fx: Vec<Effect> = Vec::new();
    let mut dp = node(0, true, s);
    for rec in gen.batch(SNAPSHOT_RECORDS, SimTime::ZERO) {
        dp.handle(SimTime::ZERO, Input::Inform(rec), &mut fx);
    }
    fx.clear();
    let snapshot_encode = measure("us", 1e3, || {
        let n = 20u64;
        let took = timed(|| {
            for _ in 0..n {
                black_box(dp.snapshot_encode(SimTime::ZERO));
            }
        });
        (n, took)
    });
    let (snapshot, _) = dp.snapshot_encode(SimTime::ZERO);

    let dir = s.dir.join("kernel-store");
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = FileStore::open(&dir).expect("open kernel store");
    let append = measure("us", 1e3, || {
        let records = gen.batch(64, SimTime::ZERO);
        let took = timed(|| {
            for rec in &records {
                store.append(SimTime::ZERO, &WalOp::Own(*rec));
            }
        });
        (records.len() as u64, took)
    });
    let write_snapshot = measure("us", 1e3, || {
        let n = 3u64;
        let took = timed(|| {
            for _ in 0..n {
                store.write_snapshot(&snapshot);
            }
        });
        (n, took)
    });
    for rec in gen.batch(WAL_RECORDS, SimTime::ZERO) {
        store.append(SimTime::ZERO, &WalOp::Own(rec));
    }
    drop(store);
    let thousands = (SNAPSHOT_RECORDS + WAL_RECORDS) as f64 / 1e3;
    let recover = measure("us", 1e3 * thousands, || {
        let took = timed(|| {
            let mut store = FileStore::open(&dir).expect("reopen kernel store");
            let recovery = store.recover();
            let mut fresh = node(0, true, s);
            fresh
                .recover(recovery.snapshot.as_deref(), &recovery.wal, SimTime::ZERO)
                .expect("own snapshot");
            fresh
        });
        (1, took)
    });
    let _ = std::fs::remove_dir_all(&dir);
    (snapshot_encode, append, write_snapshot, recover)
}

fn obs_emit() -> (Metric, Metric) {
    let event = |i: u64| match i % 3 {
        0 => TraceEvent::EventExecuted { seq: i },
        1 => TraceEvent::QueryIssued {
            client: ClientId(i as u32 % 120),
            dp: DpId(i as u32 % 3),
        },
        _ => TraceEvent::ResponseAnswered {
            dp: DpId(i as u32 % 3),
            client: ClientId(i as u32 % 120),
            response_ms: 900,
        },
    };
    let emit = |recorder: Recorder, n: u64| {
        measure("ns", 1.0, move || {
            let took = timed(|| {
                for i in 0..n {
                    black_box(&recorder).emit(SimTime(i / 100), || event(black_box(i)));
                }
            });
            (n, took)
        })
    };
    (
        emit(Recorder::OFF, 2_000_000),
        emit(Recorder::new(TraceConfig::default()), 200_000),
    )
}

/// Runs every kernel at `shape`.
pub fn run_all(shape: &Shape) -> Kernels {
    // One generator for all kernels: every batch draws fresh job ids, so
    // no record is a duplicate of one an earlier batch folded in.
    let mut gen = RecordGen::new(shape.seed, 0x4B, 0, 1);
    let (encode_deltas, decode_deltas, inform_roundtrip, framebuf) = codec(shape, &mut gen);
    let (availability, view_merge, view_expire, select, usla_eval) = gruber_layer(shape, &mut gen);
    let (handle_query, handle_inform, peer_records, sync_tick) = dpnode_layer(shape, &mut gen);
    let (snapshot_encode, store_append, store_snapshot, store_recover) =
        store_layer(shape, &mut gen);
    let (emit_off, emit_on) = obs_emit();
    Kernels {
        schedule_pop: schedule_pop(shape),
        service_admit: service_admit(shape),
        encode_deltas,
        decode_deltas,
        inform_roundtrip,
        framebuf,
        availability,
        view_merge,
        view_expire,
        select,
        usla_eval,
        grid_dispatch: grid_dispatch(shape),
        handle_query,
        handle_inform,
        peer_records,
        sync_tick,
        snapshot_encode,
        store_append,
        store_snapshot,
        store_recover,
        emit_off,
        emit_on,
    }
}
