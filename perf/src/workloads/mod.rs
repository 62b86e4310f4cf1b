//! The six workloads and what they share: arguments, the outcome a run
//! reports, seeded input generation and the layer attribution table.

pub mod live;
pub mod replay;
pub mod sim;
pub mod sock;

use crate::kernels::{self, Kernels, Shape};
use crate::span::{write_jsonl, Spans};
use crate::stats::{Metric, Slices};
use desim::DetRng;
use gruber::DispatchRecord;
use gruber_types::{DpId, GroupId, JobId, SimTime, SiteId, SiteSpec, VoId};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use usla::UslaSet;

/// Sites, VOs and groups every workload brokers over: the paper's
/// "ten times Grid3" environment with 10 × 10 fair-share USLAs.
pub const SITES: u32 = 300;
pub const VOS: u32 = 10;
pub const GROUPS: u32 = 10;
/// CPUs per site on the live and socket clusters (`clusterd` builds
/// uniform sites from its flags, so the thread cluster uses the same).
pub const CPUS_PER_SITE: u32 = 150;
/// How long a dispatched job occupies its CPUs, in the informs the
/// benchmark generates: long enough that no record expires in a run.
const JOB_RUNTIME_MS: u64 = 3_600_000;
/// Pending depth the scheduler kernel runs at for a workload that has
/// no scheduler (its `desim.events` is zero, so the kernel is context).
pub const NO_SCHEDULER_PENDING: usize = 10_000;
/// The sim and replay workloads set their system up this many times,
/// spread over the run so that the host is quiet for one of them
/// ([`Setups`]). The live and socket workloads set up once per round
/// ([`MIN_ROUNDS`]).
const SETUPS: usize = 5;
/// The live and socket workloads run at least this many rounds, each a
/// fresh system, however few seconds they are given.
pub const MIN_ROUNDS: usize = 3;
/// Peak memory is read when this many timed slices are done, not at the
/// end of the run: the views grow with every inform, so a run that gets
/// more work done in its seconds would otherwise report more memory.
const RSS_AFTER_SLICES: usize = 3;

pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory of this run (WAL directories, store kernels).
    pub out_dir: PathBuf,
    /// Where the traced pass writes its spans.
    pub spans_path: PathBuf,
    /// The release `clusterd` binary the socket workloads spawn.
    pub clusterd: PathBuf,
}

/// What one run reports.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks (the first few) and informational lines.
    pub notes: Vec<String>,
    pub metrics: Vec<(&'static str, Metric)>,
}

impl Outcome {
    /// Counts one operation or invariant check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 8 {
                self.notes.push(format!("FAILED: {}", what()));
            }
        }
    }

    /// Counts `n` operations of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64, what: &str) {
        self.attempted += n;
        if failed > 0 {
            self.failed += failed;
            self.notes.push(format!("FAILED: {failed} of {n} {what}"));
        }
    }

    pub fn put(&mut self, name: &'static str, m: Metric) {
        self.metrics.push((name, m));
    }

    /// The end-to-end metrics every workload reports from an untraced
    /// run. `setup_s` holds the time of every set-up the run made.
    pub fn end_to_end(&mut self, setup_s: &mut [f64], slices: &mut Slices, peak_rss_mb: f64) {
        self.put("setup_s", Metric::quiet_low(setup_s, "s"));
        self.put("ops_per_s", slices.ops_per_s());
        self.put("response_p50_us", slices.p50_us());
        self.put("response_p90_us", slices.p90_us());
        self.put("peak_rss_mb", Metric::one(peak_rss_mb, "MB"));
    }
}

/// Whether the timed part of a run goes on: until `seconds` are measured,
/// and at least until peak memory has been read.
pub fn keep_measuring(slices: &[Slices; 2], seconds: f64) -> bool {
    slices[0].wall_s + slices[1].wall_s < seconds
        || slices[0].len() + slices[1].len() < RSS_AFTER_SLICES
}

/// Whether peak memory is to be read now, after the slice just pushed.
pub fn rss_is_due(slices: &[Slices; 2]) -> bool {
    slices[0].len() + slices[1].len() == RSS_AFTER_SLICES
}

/// The set-ups of a sim or replay run. A set-up builds the inputs from
/// the seed, starts the system and runs its fixed warm-up. The first one
/// yields the system that is measured; the others repeat it between
/// repetitions, a fifth of the run's seconds apart, and their result is
/// dropped. None of those runs before peak memory has been read.
#[derive(Default)]
pub struct Setups {
    pub times_s: Vec<f64>,
}

impl Setups {
    pub fn timed<S>(&mut self, setup: impl FnOnce() -> S) -> S {
        let began = Instant::now();
        let system = setup();
        self.times_s.push(began.elapsed().as_secs_f64());
        system
    }

    /// Whether the next set-up is due now, `slices` into the timed part.
    pub fn due(&self, slices: &[Slices; 2], seconds: f64) -> bool {
        let measured_s = slices[0].wall_s + slices[1].wall_s;
        self.times_s.len() < SETUPS
            && slices[0].len() + slices[1].len() >= RSS_AFTER_SLICES
            && measured_s >= seconds * self.times_s.len() as f64 / SETUPS as f64
    }
}

/// Seeded dispatch records: the informs clients send and the records
/// the kernels merge. Job ids are dense and unique per generator
/// (`first`, `first + stride`, ...), so concurrent clients never collide.
pub struct RecordGen {
    rng: DetRng,
    next_job: u32,
    stride: u32,
}

impl RecordGen {
    pub fn new(seed: u64, stream: u64, first: u32, stride: u32) -> RecordGen {
        RecordGen {
            rng: DetRng::new(seed, 0x1F0_0000 ^ stream),
            next_job: first,
            stride,
        }
    }

    pub fn next(&mut self, now: SimTime) -> DispatchRecord {
        let job = JobId(self.next_job);
        self.next_job += self.stride;
        DispatchRecord {
            job,
            site: SiteId(self.rng.index(SITES as usize) as u32),
            vo: VoId(self.rng.index(VOS as usize) as u32),
            group: GroupId(self.rng.index(GROUPS as usize) as u32),
            cpus: 1,
            dispatched_at: now,
            est_finish: SimTime(now.0 + JOB_RUNTIME_MS),
        }
    }

    pub fn batch(&mut self, n: usize, now: SimTime) -> Vec<DispatchRecord> {
        (0..n).map(|_| self.next(now)).collect()
    }
}

/// Client-side timeout of every query the live and socket clients send.
pub const TIMEOUT: Duration = Duration::from_secs(5);
/// Rounds of [`sync_visible`].
const SYNC_ROUNDS: u32 = 200;

/// What [`sync_visible`] measured and how much traffic it sent.
pub struct SyncVisible {
    pub p50_us: Metric,
    pub queries: u64,
    pub informs: u64,
}

/// One inform at point 0, a forced sync round, then queries at point 1
/// until its answer reflects the inform: the staleness floor an operator
/// gets from a two-point cluster when the sync interval is taken out.
/// The three closures are the runtime's client calls; `query` returns
/// the believed free CPUs per site, the others whether the call worked.
pub fn sync_visible(
    out: &mut Outcome,
    gen: &mut RecordGen,
    now: impl Fn() -> SimTime,
    mut query: impl FnMut(DpId) -> Option<Vec<u32>>,
    mut inform: impl FnMut(DpId, DispatchRecord) -> bool,
    mut force_sync: impl FnMut(u32) -> bool,
) -> SyncVisible {
    let mut samples = Vec::with_capacity(SYNC_ROUNDS as usize);
    let (mut queries, mut informs) = (0, 0);
    for round in 0..SYNC_ROUNDS {
        queries += 1;
        let Some(before) = query(DpId(1)) else {
            out.check(false, || "sync-visible: query failed".into());
            continue;
        };
        // The freest site, so the inform's one CPU shows in the answer.
        let site = (0..before.len()).max_by_key(|&s| before[s]).expect("sites");
        let mut record = gen.next(now());
        record.site = SiteId(site as u32);
        let sent = Instant::now();
        informs += 1;
        let seen = inform(DpId(0), record)
            && force_sync(round)
            && loop {
                queries += 1;
                match query(DpId(1)) {
                    Some(free) if free[site] < before[site] => break true,
                    Some(_) if sent.elapsed() < TIMEOUT => {}
                    _ => break false,
                }
            };
        samples.push(sent.elapsed().as_nanos() as f64 / 1e3);
        out.check(seen, || {
            "sync-visible: inform never reached the peer".into()
        });
    }
    SyncVisible {
        p50_us: Metric::of(&mut samples, "us"),
        queries,
        informs,
    }
}

/// How often the traced pass called into each layer, read from public
/// outputs of the run (never from inside a crate).
#[derive(Default, Debug, Clone, Copy)]
pub struct Counts {
    pub events: u64,
    pub peak_pending: u64,
    pub cancellations: u64,
    pub admissions: u64,
    pub msgs_sent: u64,
    pub retries: u64,
    pub queries: u64,
    pub informs: u64,
    pub sync_rounds: u64,
    pub floods_sent: u64,
    pub records_flooded: u64,
    pub records_in: u64,
    pub records_merged: u64,
    pub selects: u64,
    pub jobs_dispatched: u64,
    pub obs_events: u64,
    /// Informs the benchmark's clients encoded (live and socket runs).
    pub client_informs: u64,
    /// Frames that crossed a `FrameBuf` (socket runs, both directions).
    pub frames: u64,
    pub wal_appends: u64,
    pub wal_records_replayed: u64,
}

impl Counts {
    /// Mean records per flood payload: the kernels' flood size.
    pub fn flood_size(&self) -> usize {
        match self.sync_rounds {
            0 => 256,
            rounds => (self.records_flooded / rounds).max(1) as usize,
        }
    }
}

/// The per-layer table: counts, kernel costs at the workload's shape,
/// and each layer's busy share of the traced wall time `wall_s`
/// (count × kernel time ÷ wall). `gruber` and `simnet.codec` run inside
/// `dpnode`, so their shares are nested in its share and left out of
/// the sum that `unattributed_share` completes to one.
fn layer_table(out: &mut Outcome, k: &Kernels, c: &Counts, wall_s: f64) {
    let count = Metric::count;
    let share = |ns: f64| Metric::one(ns / (wall_s * 1e9), "share");
    let (q, i, r) = (c.queries as f64, c.informs as f64, c.records_in as f64);

    out.put("desim.events", count(c.events));
    out.put("desim.peak_pending", count(c.peak_pending));
    out.put("desim.cancellations", count(c.cancellations));
    out.put("desim.schedule_pop_ns", k.schedule_pop);
    let desim = c.events as f64 * k.schedule_pop.value;
    out.put("desim.busy_share", share(desim));

    out.put("simnet.service.admissions", count(c.admissions));
    out.put("simnet.service.admit_ns", k.service_admit);
    let service = c.admissions as f64 * k.service_admit.value;
    out.put("simnet.service.busy_share", share(service));
    out.put("simnet.msgs_sent", count(c.msgs_sent));
    out.put("simnet.retries", count(c.retries));
    out.put("simnet.codec.encode_deltas_ns_per_record", k.encode_deltas);
    out.put("simnet.codec.decode_deltas_ns_per_record", k.decode_deltas);
    out.put("simnet.codec.inform_roundtrip_ns", k.inform_roundtrip);
    out.put("simnet.codec.framebuf_ns_per_frame", k.framebuf);
    out.put(
        "simnet.codec.busy_share",
        share(
            c.records_flooded as f64 * k.encode_deltas.value
                + r * k.decode_deltas.value
                + c.client_informs as f64 * k.inform_roundtrip.value
                + c.frames as f64 * k.framebuf.value,
        ),
    );

    out.put("gruber.engine.availability_ns", k.availability);
    out.put("gruber.view.merge_ns_per_record", k.view_merge);
    out.put("gruber.view.expire_ns_per_record", k.view_expire);
    out.put(
        "gruber.busy_share",
        share(q * k.availability.value + (i + r) * k.view_merge.value),
    );
    out.put("gruber.selector.selects", count(c.selects));
    out.put("gruber.selector.select_ns", k.select);
    let selector = c.selects as f64 * k.select.value;
    out.put("gruber.selector.busy_share", share(selector));
    out.put("usla.eval_ns", k.usla_eval);

    out.put("gridemu.jobs_dispatched", count(c.jobs_dispatched));
    out.put("gridemu.dispatch_ns", k.grid_dispatch);
    let grid = c.jobs_dispatched as f64 * k.grid_dispatch.value;
    out.put("gridemu.busy_share", share(grid));

    out.put("dpnode.queries", count(c.queries));
    out.put("dpnode.informs", count(c.informs));
    out.put("dpnode.floods_sent", count(c.floods_sent));
    out.put("dpnode.records_flooded", count(c.records_flooded));
    out.put("dpnode.records_merged", count(c.records_merged));
    out.put("dpnode.handle_query_ns", k.handle_query);
    out.put("dpnode.handle_inform_ns", k.handle_inform);
    out.put("dpnode.peer_records_ns_per_record", k.peer_records);
    out.put("dpnode.sync_tick_ns", k.sync_tick);
    let dpnode = q * k.handle_query.value
        + i * k.handle_inform.value
        + r * k.peer_records.value
        + c.sync_rounds as f64 * k.sync_tick.value;
    out.put("dpnode.busy_share", share(dpnode));
    out.put("dpnode.snapshot_encode_us", k.snapshot_encode);

    out.put("dpstore.file.append_us", k.store_append);
    out.put("dpstore.file.snapshot_us", k.store_snapshot);
    out.put("dpstore.file.recover_us_per_1k_records", k.store_recover);
    out.put("dpstore.wal_appends", count(c.wal_appends));
    out.put(
        "dpstore.wal_records_replayed",
        count(c.wal_records_replayed),
    );

    out.put("obs.emit_off_ns", k.emit_off);
    out.put("obs.emit_on_ns", k.emit_on);
    out.put("obs.events_emitted", count(c.obs_events));
    let obs = c.obs_events as f64 * k.emit_on.value;
    out.put("obs.busy_share", share(obs));

    let attributed = desim + service + dpnode + selector + grid + obs;
    out.put(
        "unattributed_share",
        Metric::one(1.0 - attributed / (wall_s * 1e9), "share"),
    );
}

/// What a traced run hands over once its measurements are done.
pub struct TracedRun<'a> {
    /// The shape the kernels run at.
    pub sites: &'a [SiteSpec],
    pub uslas: &'a UslaSet,
    pub n_dps: usize,
    pub pending: usize,
    pub counts: Counts,
    /// The wall time the counts were gathered over.
    pub wall_s: f64,
    pub peak_rss_mb: f64,
}

/// The part of a traced run every workload shares: the kernels at the
/// workload's shape, the layer table, the tracing overhead (`traced ÷
/// untraced − 1` in time per operation, from the medians of the run's
/// alternating slices) and the span file.
pub fn report_layers(
    out: &mut Outcome,
    args: &Args,
    run: TracedRun,
    slices: &mut [Slices; 2],
    spans: &[Spans],
) {
    let began = Instant::now();
    let k = kernels::run_all(&Shape {
        sites: run.sites,
        uslas: run.uslas,
        n_dps: run.n_dps,
        flood: run.counts.flood_size(),
        pending: run.pending,
        seed: args.seed,
        dir: &args.out_dir,
    });
    out.put("kernels_s", Metric::one(began.elapsed().as_secs_f64(), "s"));
    layer_table(out, &k, &run.counts, run.wall_s);

    let [untraced, traced] = slices;
    let (plain, with) = (untraced.ops_per_s(), traced.ops_per_s());
    out.put("untraced_ops_per_s", plain);
    out.put("traced_ops_per_s", with);
    out.put("response_p99_us", untraced.p99_us());
    out.put(
        "obs.trace_overhead_share",
        Metric::one(plain.value / with.value - 1.0, "share"),
    );
    out.put("client_peak_rss_mb", Metric::one(run.peak_rss_mb, "MB"));
    let recorded: usize = spans.iter().map(Spans::len).sum();
    out.put("spans_recorded", Metric::count(recorded as u64));
    if let Err(e) = write_jsonl(&args.spans_path, spans) {
        out.check(false, || {
            format!("writing {}: {e}", args.spans_path.display())
        });
    }
}
