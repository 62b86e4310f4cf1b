//! A decision point's view of the grid.
//!
//! Per the dissemination strategy the paper evaluates (Section 3.5, second
//! approach), "each decision point has complete static knowledge about
//! available resources, but not the latest resource utilizations". A view
//! therefore knows every site's capacity exactly, and models utilization as
//! the sum of *dispatch records* it has observed — its own dispatches
//! immediately, peers' dispatches only after a periodic exchange. Records
//! expire at their estimated finish time (each peer expires independently,
//! so no completion traffic is needed).
//!
//! The gap between this view and `gridemu::Grid` ground truth — stale peer
//! dispatches, mis-estimated finish times, invisible site queues — is
//! precisely what degrades the paper's Accuracy metric at long exchange
//! intervals.
//!
//! # Layout
//!
//! [`GridView`] is a struct-of-arrays: three flat `SiteId`-indexed columns
//! (`totals`, `demand`, `free`), dense `(VoId, GroupId)`-indexed principal
//! tables, a paged-bitset job-dedup set and one merged expiry queue (see
//! *Expiry* below). Built for 3000-site grids and million-job runs.
//! `free[s]` is `totals[s] - demand[s]` floored at zero, stored again at
//! the only two places `demand[s]` changes (a record observed, a record
//! expired), so the availability reply is a copy of the `free` column.
//! Nothing invalidates it: it is the same arithmetic moved from the read
//! of every site to the write of one.
//!
//! A record's `(site, vo, group, cpus)` pack into one 64-bit *fields*
//! word: each index takes the bits its bound needs and `cpus` the rest,
//! widths fixed by [`GridView::with_principals`]; 3000 sites × 1024 VOs ×
//! 1024 groups is 12 + 10 + 10 bits, so `cpus` keeps 32. A record whose
//! `cpus` do not fit the word is refused like an out-of-range site.
//!
//! A queued record is one 8-byte entry: the key's low 28 bits, then the
//! fields word shifted up by 28, which holds any record whose fields take
//! 36 bits or fewer. The key's high bits are not stored: a key in bucket
//! `b <= 27` (*Expiry*) differs from the clock only in bits `0..=b`, so
//! it is the clock's high bits with the stored low ones. Two kinds of
//! record wait whole, `(key, fields)`, in a `far` min-heap instead: a key
//! that differs from the clock at bit 28 or above (~74.6 h out, or just
//! across a 2²⁸-ms boundary: ~1 % of records at a 40-minute mean
//! runtime), and a record too wide for the entry (the 3000-site view
//! above leaves 4 bits for `cpus`, so 16 CPUs or more; every paper job
//! asks for one). Its heads are checked on every call, since a wide
//! record can fall due anywhere, and a record that fits is re-filed into
//! the buckets when the clock enters its 2²⁸-ms block.
//!
//! The tests below keep the original `HashMap`/`HashSet`/per-site-
//! `BinaryHeap` view as the executable specification. The differential
//! tests (unit + proptest) drive it and [`GridView`] op-for-op and
//! require identical answers. Both assume query timestamps are
//! **monotone nondecreasing** across calls — true of every runtime (the
//! desim event loop, the live and socket clocks, trace replay). Under
//! monotone time the single merged expiry queue and the reference's lazy
//! per-site heaps observe exactly the same record sets.
//!
//! # Expiry
//!
//! Every call that reads or writes [`GridView`] first expires the records
//! due at `now`, so expiry sits under every query, inform and flood merge.
//! A comparison heap pays `log n` cache-missing sift levels per record
//! (333 k live records per point on a 40-minute trace replay); the view
//! instead keeps a **monotone radix queue**. A record's key is its
//! `est_finish`; `last` is the latest instant the view has expired to, and
//! every stored key is `> last`. A key lives in the bucket numbered by the
//! highest bit in which it differs from `last` — 28 buckets and an
//! occupancy mask, with `far` standing for buckets 28–63. Advancing to
//! `now > last`, with `top` the highest bit in which `now` differs from
//! `last`:
//!
//! * a bucket below `top` holds keys that agree with `last` on bit `top`
//!   and above, where `now` has a one and `last` a zero — all `< now`, so
//!   the whole bucket is due without a single comparison;
//! * a bucket above `top` holds keys that differ from `now` in exactly the
//!   bit they differ from `last` in — it stays where it is, untouched;
//! * bucket `top` shares `now`'s bits from `top` up, so each of its keys
//!   is either due (`<= now`) or moves to a *strictly lower* bucket.
//!
//! A push is O(1), a key moves down at most once per bit level over its
//! life, every move is a sequential copy, and a call that finds no
//! occupied bucket at or below `top` costs one mask test and one look at
//! `far`'s head. `far` is bucket `top` for every `top >= 28`: its keys up to
//! the end of `now`'s block are due or re-filed, into a bucket or, too
//! wide, back into `far`.
//!
//! **Order does not matter.** One call expires exactly the set of keys
//! `<= now` — the same set a min-heap pops — but not in key order.
//! Expiring a record subtracts its CPUs from three counters (site, VO,
//! group) and stores the site's `free` entry from the new demand;
//! subtractions commute, the last store per site sees the final demand,
//! and nothing reads either until the call returns, so no answer,
//! fingerprint or flood hash can depend on the order. The reference view
//! and the differential tests below are the judge.
//!
//! **The clock is the view's own.** `last` is a high-water mark, not the
//! caller's word: `expire(now)` with `now < last` does nothing, and
//! `observe` refuses a record with `est_finish <= max(now, last)` as
//! already expired. A wall clock that steps back therefore reads the view
//! as of the latest instant it has seen and cannot file a key at or below
//! `last`, which is the one thing the bucket arithmetic relies on.
//! (The reference view makes no such promise off the monotone path.)
//!
//! Buckets store fixed-size chunks (768 entries, 6 KiB) recycled through
//! a per-view free list: splitting bucket `top` hands each source chunk
//! back before the next is read and the destinations draw from the same
//! list, so a split needs no second copy of the bucket. The queue is
//! bound by the bytes it moves, not by how many moves it makes: on the
//! ten-point trace replay (`replay-mesh`, ~333 k live entries per point)
//! a 12-byte entry took peak RSS from 119.8 to 80.8 MB against a 24-byte
//! one (12 of 12 concurrent pairs), the 8-byte entry, with GRUB-SIM's
//! streamed replay order, took it on to 52.4 MB (10 of 10), and a byte
//! radix (fewer, wider moves) was slower and larger.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use gruber_types::{DispatchRecord, GroupId, JobId, SimTime, SiteId, SiteSpec, VoId};

/// One pending record as [`ExpiryQueue`] takes it in and hands it out;
/// the queue stores it as an 8-byte [`Expiry`] or, whole, in `far`.
struct Pending {
    /// `est_finish` in milliseconds: the queue key.
    at: u64,
    site: u32,
    vo: u32,
    group: u32,
    cpus: u32,
}

/// Merged expiry entry, as queued: the key's low [`KEY_BITS`] bits, then
/// the record's [`Packing`] fields word. One entry per record serves both
/// the per-site and the per-principal counters — half the queue traffic
/// of the two-heap reference layout. The key's high bits are not stored:
/// the bucket rebuilds them from the clock (module docs, *Layout*).
type Expiry = u64;

/// Key bits an [`Expiry`] stores, and so the number of buckets: a bucket
/// reaches 2²⁸ ms, ~74.6 h.
const KEY_BITS: u32 = 28;

/// Where a record's fields word keeps it: `site` in the low bits, then
/// `vo`, then `group`, each as wide as its bound needs, and `cpus` in the
/// rest of the word.
#[derive(Clone, Copy)]
struct Packing {
    vo_shift: u32,
    group_shift: u32,
    cpus_shift: u32,
    /// The largest `cpus` the bits from `cpus_shift` up hold.
    max_cpus: u32,
}

impl Packing {
    /// Bits that index `0..n`; ids are `u32`s, so at most 32.
    fn width(n: usize) -> u32 {
        (usize::BITS - n.saturating_sub(1).leading_zeros()).min(32)
    }

    /// The packing for `n_sites` sites, `n_vos` VOs and `n_groups` groups,
    /// and the VO and group bounds it holds. Index widths are trimmed, the
    /// group's first, to leave `cpus` at least one bit: only bounds whose
    /// product passes about 2⁶³, ids near `u32::MAX` in a USLA set, reach that.
    fn new(n_sites: usize, n_vos: usize, n_groups: usize) -> (Self, usize, usize) {
        let site_w = Self::width(n_sites);
        let vo_w = Self::width(n_vos).min(63 - site_w);
        let group_w = Self::width(n_groups).min(63 - site_w - vo_w);
        let cpus_shift = site_w + vo_w + group_w;
        let packing = Packing {
            vo_shift: site_w,
            group_shift: site_w + vo_w,
            cpus_shift,
            max_cpus: ((1u64 << (64 - cpus_shift).min(32)) - 1) as u32,
        };
        let bound = |n: usize, w: u32| 1usize.checked_shl(w).map_or(n, |cap| n.min(cap));
        (packing, bound(n_vos, vo_w), bound(n_groups, group_w))
    }

    /// `p`'s fields word.
    fn pack(self, p: &Pending) -> u64 {
        debug_assert!(p.cpus <= self.max_cpus, "{} CPUs do not fit", p.cpus);
        u64::from(p.site)
            | u64::from(p.vo) << self.vo_shift
            | u64::from(p.group) << self.group_shift
            | u64::from(p.cpus) << self.cpus_shift
    }

    /// The record the fields word `fields` holds, with its whole key `at`.
    fn unpack(self, at: u64, fields: u64) -> Pending {
        let bits = |lo: u32, hi: u32| ((fields >> lo) & ((1 << (hi - lo)) - 1)) as u32;
        Pending {
            at,
            site: bits(0, self.vo_shift),
            vo: bits(self.vo_shift, self.group_shift),
            group: bits(self.group_shift, self.cpus_shift),
            cpus: (fields >> self.cpus_shift) as u32,
        }
    }
}

/// The monotone radix queue behind [`GridView`] (module docs, *Expiry*).
///
/// Invariants: every stored key is `> last`; a record whose key `k` has
/// `ilog2(k ^ last) < KEY_BITS` and whose fields fit an [`Expiry`] is in
/// bucket `ilog2(k ^ last)`, where its high bits are `last`'s, and every
/// other record is whole in `far`; a bucket's chunk list holds no empty
/// chunk; bit `b` of `occupied` is set iff bucket `b` holds a chunk.
struct ExpiryQueue {
    /// High-water mark of [`ExpiryQueue::drain_due`]'s `now`.
    last: u64,
    occupied: u32,
    buckets: [Vec<Vec<Expiry>>; KEY_BITS as usize],
    /// `(key, fields)` of every record out of the buckets' reach or too
    /// wide for an [`Expiry`], earliest key on top.
    far: BinaryHeap<Reverse<(u64, u64)>>,
    /// Emptied chunks, capacity kept, ready for reuse.
    free: Vec<Vec<Expiry>>,
    packing: Packing,
}

impl ExpiryQueue {
    /// Entries per chunk: 6 KiB, the chunk size chosen by measurement on
    /// `replay-mesh` and `sim-paper`. A view parks at most one partly
    /// filled chunk per bucket, and a 333 k-entry replay point is ~430
    /// chunks.
    const CHUNK_LEN: usize = 768;

    /// The key bits above the buckets' reach: `last`'s, for every
    /// bucketed key.
    const HIGH: u64 = u64::MAX << KEY_BITS;

    fn new(packing: Packing) -> Self {
        ExpiryQueue {
            last: 0,
            occupied: 0,
            buckets: std::array::from_fn(|_| Vec::new()),
            far: BinaryHeap::new(),
            free: Vec::new(),
            packing,
        }
    }

    /// Queues `p`. Its key must be `> last`; this is the check the bucket
    /// arithmetic depends on, so it holds in release builds too.
    fn push(&mut self, p: Pending) {
        assert!(p.at > self.last, "expiry key at or below the clock");
        self.file(p.at, self.packing.pack(&p));
    }

    /// Files the record `(at, fields)`, `at > last`, in its bucket or in
    /// `far`. Forced inline, as is [`ExpiryQueue::bucket_push`]: left to
    /// the compiler (`#[inline]` too) the filing step stays out of line,
    /// and `replay-mesh` runs ~19 % fewer ops/s.
    #[inline(always)]
    fn file(&mut self, at: u64, fields: u64) {
        let b = (at ^ self.last).ilog2();
        if b < KEY_BITS && fields >> (64 - KEY_BITS) == 0 {
            self.bucket_push(b as usize, at & !Self::HIGH | fields << KEY_BITS);
        } else {
            self.far.push(Reverse((at, fields)));
        }
    }

    /// Appends `e` to bucket `b`.
    #[inline(always)]
    fn bucket_push(&mut self, b: usize, e: Expiry) {
        let chunks = &mut self.buckets[b];
        match chunks.last_mut() {
            Some(chunk) if chunk.len() < Self::CHUNK_LEN => chunk.push(e),
            _ => {
                let mut chunk = self
                    .free
                    .pop()
                    .unwrap_or_else(|| Vec::with_capacity(Self::CHUNK_LEN));
                chunk.push(e);
                chunks.push(chunk);
            }
        }
        self.occupied |= 1 << b;
    }

    /// Hands every entry with key `<= now` to `due`, in no particular
    /// order, and advances `last` to `now`. A `now` at or below `last`
    /// does nothing.
    fn drain_due(&mut self, now: u64, mut due: impl FnMut(Pending)) {
        if now <= self.last {
            return;
        }
        let top = (now ^ self.last).ilog2();
        let high = self.last & Self::HIGH;
        let packing = self.packing;
        self.last = now;
        let reach = u32::MAX >> 31u32.saturating_sub(top); // buckets 0..=top
        let mut hit = self.occupied & reach;
        self.occupied &= !reach;
        // Lowest bucket first, so bucket `top` re-files into buckets that
        // are already empty.
        while hit != 0 {
            let b = hit.trailing_zeros();
            hit &= hit - 1;
            let mut chunks = std::mem::take(&mut self.buckets[b as usize]);
            for mut chunk in chunks.drain(..) {
                if b < top {
                    for e in chunk.drain(..) {
                        due(packing.unpack(high | e & !Self::HIGH, e >> KEY_BITS));
                    }
                } else {
                    for e in chunk.drain(..) {
                        let at = high | e & !Self::HIGH;
                        if at <= now {
                            due(packing.unpack(at, e >> KEY_BITS));
                        } else {
                            self.bucket_push((at ^ now).ilog2() as usize, e);
                        }
                    }
                }
                self.free.push(chunk);
            }
            self.buckets[b as usize] = chunks; // keeps the list's own capacity
        }
        // A wide record falls due at any `now`; a record that fits waits
        // only for `now` to enter its 2²⁸-ms block.
        let filed_to = if top >= KEY_BITS {
            now | !Self::HIGH
        } else {
            now
        };
        let mut wide = Vec::new();
        while let Some(&Reverse((at, fields))) = self.far.peek().filter(|r| r.0 .0 <= filed_to) {
            self.far.pop();
            if at <= now {
                due(packing.unpack(at, fields));
            } else if fields >> (64 - KEY_BITS) == 0 {
                self.file(at, fields);
            } else {
                wide.push(Reverse((at, fields)));
            }
        }
        self.far.extend(wide);
    }

    /// Chunks this queue owns, in buckets or on the free list. Chunks are
    /// never dropped, so this is also how many were ever allocated.
    #[cfg(test)]
    fn chunks_owned(&self) -> usize {
        self.free.len() + self.buckets.iter().map(Vec::len).sum::<usize>()
    }

    /// Every queued `(key, site)`, sorted.
    #[cfg(test)]
    fn entries(&self) -> Vec<(u64, u32)> {
        let high = self.last & Self::HIGH;
        let bucketed = self.buckets.iter().flatten().flatten();
        let mut all: Vec<(u64, u32)> = bucketed
            .map(|&e| (high | e & !Self::HIGH, e >> KEY_BITS))
            .chain(self.far.iter().map(|r| r.0))
            .map(|(at, fields)| (at, self.packing.unpack(at, fields).site))
            .collect();
        all.sort_unstable();
        all
    }
}

impl std::fmt::Debug for ExpiryQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExpiryQueue")
            .field("last", &self.last)
            .field("occupied", &format_args!("{:#x}", self.occupied))
            .field("free_chunks", &self.free.len())
            .finish()
    }
}

/// A paged bitset over job ids: the compact replacement for
/// `HashSet<JobId>`. Job ids are dense sequential `u32`s (the workload
/// factory hands them out in order), so a bitset costs one bit per id in
/// the touched range — 8 KiB per 65 536-id page, ~2 MB for ten million
/// jobs — versus ~48 bytes per entry in a hash set. Pages materialize
/// lazily, so sparse id ranges (trace replay, tests) stay cheap.
#[derive(Default)]
struct JobSet {
    pages: Vec<Option<Box<[u64; JobSet::PAGE_WORDS]>>>,
    len: usize,
}

impl JobSet {
    /// 64-bit words per page: 1024 words = 65 536 ids = 8 KiB.
    const PAGE_WORDS: usize = 1024;
    const PAGE_BITS: usize = Self::PAGE_WORDS * 64;

    /// Inserts `job`; returns `true` if it was not already present.
    fn insert(&mut self, job: JobId) -> bool {
        let id = job.index();
        let page = id / Self::PAGE_BITS;
        let bit = id % Self::PAGE_BITS;
        if page >= self.pages.len() {
            self.pages.resize_with(page + 1, || None);
        }
        let words = self.pages[page].get_or_insert_with(|| {
            let zeroed: Box<[u64]> = vec![0u64; Self::PAGE_WORDS].into_boxed_slice();
            zeroed.try_into().expect("page is exactly PAGE_WORDS long")
        });
        let mask = 1u64 << (bit % 64);
        let word = &mut words[bit / 64];
        if *word & mask != 0 {
            return false;
        }
        *word |= mask;
        self.len += 1;
        true
    }

    #[cfg(test)]
    fn contains(&self, job: JobId) -> bool {
        let id = job.index();
        match self.pages.get(id / Self::PAGE_BITS).and_then(|p| p.as_ref()) {
            Some(words) => {
                let bit = id % Self::PAGE_BITS;
                words[bit / 64] & (1u64 << (bit % 64)) != 0
            }
            None => false,
        }
    }
}

impl std::fmt::Debug for JobSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobSet")
            .field("len", &self.len)
            .field("pages", &self.pages.len())
            .finish()
    }
}

/// A (possibly stale) model of grid utilization, laid out as a
/// struct of arrays.
///
/// Layout: per-site `totals`/`demand`/`free` as flat `SiteId`-indexed
/// columns (availability is a copy of `free`, which every change to
/// `demand` keeps current), per-principal demand as dense
/// `VoId`/`GroupId`-indexed tables, job dedup as a paged bitset, and a
/// single merged expiry queue whose entries decrement all three at
/// once — a monotone radix queue, exact but unordered within one call,
/// keyed against the view's own high-water clock. The module docs
/// (*Expiry*) give the bucket argument, why the order cannot be observed,
/// and what a caller whose clock steps back sees.
#[derive(Debug)]
pub struct GridView {
    /// Static per-site capacity column.
    totals: Vec<u32>,
    /// Believed per-site demand column (parallel to `totals`).
    demand: Vec<u64>,
    /// Believed per-site free CPUs: `free_of(totals[s], demand[s])`,
    /// stored wherever `demand[s]` is.
    free: Vec<u32>,
    /// Cached sum of `totals`.
    grid_total: u64,
    /// Dense per-VO demand, indexed by `VoId::index()`; grows on demand,
    /// never past `n_vos`.
    vo_demand: Vec<i64>,
    /// Dense per-group demand, indexed `[vo][group]`; each row grows on
    /// demand, never past `n_groups`.
    group_demand: Vec<Vec<i64>>,
    /// VO ids the view accounts for are `0..n_vos`.
    n_vos: usize,
    /// Group ids the view accounts for are `0..n_groups`.
    n_groups: usize,
    /// Jobs already folded in (idempotent merging across floods).
    seen: JobSet,
    /// The merged expiry queue; owns the view's clock.
    expiries: ExpiryQueue,
}

/// Free CPUs of a site with `total` CPUs and `demand` CPUs asked of it.
fn free_of(total: u32, demand: u64) -> u32 {
    u64::from(total).saturating_sub(demand) as u32
}

fn dense_slot(v: &mut Vec<i64>, idx: usize) -> &mut i64 {
    if idx >= v.len() {
        v.resize(idx + 1, 0);
    }
    &mut v[idx]
}

impl GridView {
    /// VO and group ids a view accepts when nothing sizes it more tightly.
    pub const DEFAULT_PRINCIPALS: usize = 1024;

    /// Builds a view with full static knowledge of the given sites and
    /// [`GridView::DEFAULT_PRINCIPALS`] VOs and groups.
    pub fn new(sites: &[SiteSpec]) -> Self {
        Self::with_principals(sites, Self::DEFAULT_PRINCIPALS, Self::DEFAULT_PRINCIPALS)
    }

    /// Builds a view that accounts for VO ids `0..n_vos` and group ids
    /// `0..n_groups`. The principal tables are indexed by id, and ids
    /// arrive in socket bytes: the bounds are what one record can make
    /// the view allocate.
    pub fn with_principals(sites: &[SiteSpec], n_vos: usize, n_groups: usize) -> Self {
        let totals: Vec<u32> = sites.iter().map(|s| s.total_cpus()).collect();
        let grid_total = totals.iter().map(|&c| u64::from(c)).sum();
        let (packing, n_vos, n_groups) = Packing::new(totals.len(), n_vos, n_groups);
        GridView {
            demand: vec![0; totals.len()],
            free: totals.clone(),
            totals,
            grid_total,
            vo_demand: Vec::new(),
            group_demand: Vec::new(),
            n_vos,
            n_groups,
            seen: JobSet::default(),
            expiries: ExpiryQueue::new(packing),
        }
    }

    /// Number of sites the view covers.
    pub fn n_sites(&self) -> usize {
        self.totals.len()
    }

    /// Total CPUs of one site (static knowledge, always exact).
    pub fn total_cpus(&self, site: SiteId) -> u32 {
        self.totals[site.index()]
    }

    /// Grid-wide CPU total.
    pub fn grid_cpus(&self) -> u64 {
        self.grid_total
    }

    /// Folds one dispatch record into the view (idempotent per job id).
    /// Returns `true` if the record was new. A record finishing at or
    /// before the latest instant the view has seen — `now` or an earlier
    /// call's later `now` — is already expired. A record naming a site, VO
    /// or group the view does not cover, or more CPUs than its expiry
    /// entry holds (any `u32` while the site, VO and group bounds take 32
    /// bits or fewer between them), is refused before its job id is
    /// remembered: records arrive as socket bytes, every index `expire`
    /// later uses was range-checked here, and no table grows past its
    /// bound.
    pub fn observe(&mut self, rec: &DispatchRecord, now: SimTime) -> bool {
        self.expire(now); // the queue's clock is now `max(now, last)`
        let (s, vo, group) = (rec.site.index(), rec.vo.index(), rec.group.index());
        if s >= self.totals.len()
            || vo >= self.n_vos
            || group >= self.n_groups
            || rec.cpus > self.expiries.packing.max_cpus
            || rec.est_finish.0 <= self.expiries.last
            || !self.seen.insert(rec.job)
        {
            return false; // no such site or principal, too wide, already expired or already known
        }
        self.demand[s] += u64::from(rec.cpus);
        self.free[s] = free_of(self.totals[s], self.demand[s]);
        *dense_slot(&mut self.vo_demand, vo) += i64::from(rec.cpus);
        if vo >= self.group_demand.len() {
            self.group_demand.resize_with(vo + 1, Vec::new);
        }
        *dense_slot(&mut self.group_demand[vo], group) += i64::from(rec.cpus);
        self.expiries.push(Pending {
            at: rec.est_finish.0,
            site: rec.site.0,
            vo: rec.vo.0,
            group: rec.group.0,
            cpus: rec.cpus,
        });
        true
    }

    /// Folds a batch of peer records; returns how many were new.
    pub fn merge(&mut self, records: &[DispatchRecord], now: SimTime) -> usize {
        records.iter().filter(|r| self.observe(r, now)).count()
    }

    /// Advances expiry bookkeeping to `now`: drains every queued entry
    /// with `est_finish <= now`, decrements the site and principal
    /// columns it was counted in and stores the site's `free` entry. A
    /// `now` earlier than one already seen does nothing.
    pub fn expire(&mut self, now: SimTime) {
        let (totals, demand, free, vo_demand, group_demand) = (
            &self.totals,
            &mut self.demand,
            &mut self.free,
            &mut self.vo_demand,
            &mut self.group_demand,
        );
        self.expiries.drain_due(now.0, |e| {
            let s = e.site as usize;
            demand[s] -= u64::from(e.cpus);
            free[s] = free_of(totals[s], demand[s]);
            vo_demand[e.vo as usize] -= i64::from(e.cpus);
            group_demand[e.vo as usize][e.group as usize] -= i64::from(e.cpus);
        });
    }

    /// Believed CPU demand at a site (may exceed capacity).
    pub fn demand(&mut self, site: SiteId, now: SimTime) -> u64 {
        self.expire(now);
        self.demand[site.index()]
    }

    /// Believed free CPUs at a site.
    pub fn free_cpus(&mut self, site: SiteId, now: SimTime) -> u32 {
        self.expire(now);
        self.free[site.index()]
    }

    /// Believed queued jobs at a site (demand beyond capacity, in CPUs;
    /// single-CPU jobs make this a job count).
    pub fn queued(&mut self, site: SiteId, now: SimTime) -> u32 {
        let total = u64::from(self.totals[site.index()]);
        self.demand(site, now).saturating_sub(total) as u32
    }

    /// Believed grid-wide CPUs held by a VO.
    pub fn vo_demand(&mut self, vo: VoId, now: SimTime) -> u64 {
        self.expire(now);
        self.vo_demand
            .get(vo.index())
            .copied()
            .unwrap_or(0)
            .max(0) as u64
    }

    /// Believed grid-wide CPUs held by a VO group.
    pub fn group_demand(&mut self, vo: VoId, group: GroupId, now: SimTime) -> u64 {
        self.expire(now);
        self.group_demand
            .get(vo.index())
            .and_then(|g| g.get(group.index()))
            .copied()
            .unwrap_or(0)
            .max(0) as u64
    }

    /// Believed grid-wide idle CPUs.
    pub fn idle_cpus(&mut self, now: SimTime) -> u64 {
        self.expire(now);
        self.free.iter().map(|&f| u64::from(f)).sum()
    }

    /// Full believed per-site free-CPU vector (the availability
    /// response): one expiry advance, then a copy of the `free` column.
    pub fn free_per_site(&mut self, now: SimTime) -> Vec<u32> {
        self.expire(now);
        self.free.clone()
    }

    /// The `free` column is what a scan of the other two would compute.
    #[cfg(test)]
    fn check_columns(&self) {
        assert_eq!(self.free.len(), self.totals.len());
        for (s, &free) in self.free.iter().enumerate() {
            assert_eq!(
                free,
                free_of(self.totals[s], self.demand[s]),
                "free column stale at site {s}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    /// CPUs one site owes to un-expired records, for [`RefView`].
    #[derive(Default)]
    struct SiteDemand {
        /// CPUs demanded by un-expired records (may exceed capacity — the
        /// excess is the view's estimate of the site queue).
        demand: u64,
        /// Expiry heap: (est_finish, cpus).
        expiries: BinaryHeap<Reverse<(SimTime, u32)>>,
    }

    impl SiteDemand {
        fn expire(&mut self, now: SimTime) {
            while let Some(&Reverse((t, cpus))) = self.expiries.peek() {
                if t > now {
                    break;
                }
                self.expiries.pop();
                self.demand -= u64::from(cpus);
            }
        }
    }

    /// The original `HashMap`/`HashSet`/per-site-`BinaryHeap` view, the
    /// reference the struct-of-arrays [`GridView`] is differentially
    /// tested against: its answers define correctness. Same method names
    /// and signatures as [`GridView`]'s.
    struct RefView {
        totals: Vec<u32>,
        sites: Vec<SiteDemand>,
        vo_demand: HashMap<VoId, i64>,
        group_demand: HashMap<(VoId, GroupId), i64>,
        /// Jobs already folded in (idempotent merging across floods).
        seen: HashSet<JobId>,
        /// Expiry heap for the per-VO/group counters.
        principal_expiries: BinaryHeap<Reverse<(SimTime, VoId, GroupId, u32)>>,
    }

    impl RefView {
        fn new(sites: &[SiteSpec]) -> Self {
            RefView {
                totals: sites.iter().map(|s| s.total_cpus()).collect(),
                sites: sites.iter().map(|_| SiteDemand::default()).collect(),
                vo_demand: HashMap::new(),
                group_demand: HashMap::new(),
                seen: HashSet::new(),
                principal_expiries: BinaryHeap::new(),
            }
        }

        fn n_sites(&self) -> usize {
            self.totals.len()
        }

        fn total_cpus(&self, site: SiteId) -> u32 {
            self.totals[site.index()]
        }

        fn grid_cpus(&self) -> u64 {
            self.totals.iter().map(|&c| u64::from(c)).sum()
        }

        fn observe(&mut self, rec: &DispatchRecord, now: SimTime) -> bool {
            self.expire(now);
            if rec.site.index() >= self.sites.len()
                || rec.vo.index() >= GridView::DEFAULT_PRINCIPALS
                || rec.group.index() >= GridView::DEFAULT_PRINCIPALS
                || rec.est_finish <= now
                || !self.seen.insert(rec.job)
            {
                return false; // no such site or principal, already expired or already known
            }
            let site = &mut self.sites[rec.site.index()];
            site.demand += u64::from(rec.cpus);
            site.expiries.push(Reverse((rec.est_finish, rec.cpus)));
            *self.vo_demand.entry(rec.vo).or_insert(0) += i64::from(rec.cpus);
            *self.group_demand.entry((rec.vo, rec.group)).or_insert(0) += i64::from(rec.cpus);
            self.principal_expiries
                .push(Reverse((rec.est_finish, rec.vo, rec.group, rec.cpus)));
            true
        }

        fn merge(&mut self, records: &[DispatchRecord], now: SimTime) -> usize {
            records.iter().filter(|r| self.observe(r, now)).count()
        }

        fn expire(&mut self, now: SimTime) {
            for s in &mut self.sites {
                s.expire(now);
            }
            while let Some(&Reverse((t, vo, group, cpus))) = self.principal_expiries.peek() {
                if t > now {
                    break;
                }
                self.principal_expiries.pop();
                *self.vo_demand.entry(vo).or_insert(0) -= i64::from(cpus);
                *self.group_demand.entry((vo, group)).or_insert(0) -= i64::from(cpus);
            }
        }

        fn demand(&mut self, site: SiteId, now: SimTime) -> u64 {
            self.sites[site.index()].expire(now);
            self.sites[site.index()].demand
        }

        fn free_cpus(&mut self, site: SiteId, now: SimTime) -> u32 {
            let total = u64::from(self.total_cpus(site));
            total.saturating_sub(self.demand(site, now)) as u32
        }

        fn queued(&mut self, site: SiteId, now: SimTime) -> u32 {
            let total = u64::from(self.total_cpus(site));
            self.demand(site, now).saturating_sub(total) as u32
        }

        fn vo_demand(&mut self, vo: VoId, now: SimTime) -> u64 {
            self.expire(now);
            self.vo_demand.get(&vo).copied().unwrap_or(0).max(0) as u64
        }

        fn group_demand(&mut self, vo: VoId, group: GroupId, now: SimTime) -> u64 {
            self.expire(now);
            self.group_demand
                .get(&(vo, group))
                .copied()
                .unwrap_or(0)
                .max(0) as u64
        }

        fn idle_cpus(&mut self, now: SimTime) -> u64 {
            (0..self.n_sites())
                .map(|i| u64::from(self.free_cpus(SiteId::from_index(i), now)))
                .sum()
        }

        fn free_per_site(&mut self, now: SimTime) -> Vec<u32> {
            (0..self.n_sites())
                .map(|i| self.free_cpus(SiteId::from_index(i), now))
                .collect()
        }
    }

    fn sites() -> Vec<SiteSpec> {
        vec![
            SiteSpec::single_cluster(SiteId(0), 10),
            SiteSpec::single_cluster(SiteId(1), 20),
        ]
    }

    fn rec(job: u32, site: u32, cpus: u32, start_s: u64, end_s: u64) -> DispatchRecord {
        DispatchRecord {
            job: JobId(job),
            site: SiteId(site),
            vo: VoId(job % 2),
            group: GroupId(0),
            cpus,
            dispatched_at: SimTime::from_secs(start_s),
            est_finish: SimTime::from_secs(end_s),
        }
    }

    /// Instantiates each test body once per view: `V` is [`GridView`] in
    /// one generated module and [`RefView`] in the other.
    macro_rules! on_both_views {
        ($($body:item)*) => {
            mod grid_view {
                use super::*;
                type V = GridView;
                $($body)*
            }
            mod ref_view {
                use super::*;
                type V = RefView;
                $($body)*
            }
        };
    }

    on_both_views! {
        #[test]
        fn static_knowledge_is_exact() {
            let v = V::new(&sites());
            assert_eq!(v.n_sites(), 2);
            assert_eq!(v.total_cpus(SiteId(1)), 20);
            assert_eq!(v.grid_cpus(), 30);
        }

        #[test]
        fn observe_updates_free_cpus_until_expiry() {
            let mut v = V::new(&sites());
            let now = SimTime::from_secs(10);
            assert!(v.observe(&rec(1, 0, 4, 10, 100), now));
            assert_eq!(v.free_cpus(SiteId(0), now), 6);
            assert_eq!(v.free_cpus(SiteId(1), now), 20);
            // After the estimated finish the record expires.
            let later = SimTime::from_secs(101);
            assert_eq!(v.free_cpus(SiteId(0), later), 10);
            assert_eq!(v.vo_demand(VoId(1), later), 0);
        }

        #[test]
        fn observe_is_idempotent_per_job() {
            let mut v = V::new(&sites());
            let now = SimTime::from_secs(0);
            let r = rec(1, 0, 4, 0, 100);
            assert!(v.observe(&r, now));
            assert!(!v.observe(&r, now));
            assert_eq!(v.free_cpus(SiteId(0), now), 6);
            assert_eq!(v.merge(&[r, rec(2, 0, 2, 0, 100)], now), 1);
            assert_eq!(v.free_cpus(SiteId(0), now), 4);
        }

        #[test]
        fn already_expired_records_are_ignored() {
            let mut v = V::new(&sites());
            assert!(!v.observe(&rec(1, 0, 4, 0, 5), SimTime::from_secs(10)));
            assert_eq!(v.free_cpus(SiteId(0), SimTime::from_secs(10)), 10);
        }

        #[test]
        fn demand_beyond_capacity_shows_as_queue() {
            let mut v = V::new(&sites());
            let now = SimTime::ZERO;
            for j in 0..13u32 {
                v.observe(&rec(j, 0, 1, 0, 1000), now);
            }
            assert_eq!(v.free_cpus(SiteId(0), now), 0);
            assert_eq!(v.queued(SiteId(0), now), 3);
            assert_eq!(v.demand(SiteId(0), now), 13);
        }

        #[test]
        fn a_site_driven_past_capacity_expires_back_to_free() {
            let mut v = V::new(&sites());
            // 14 CPUs asked of a 10-CPU site, finishing one a second from 100 s.
            for j in 0..14u32 {
                assert!(v.observe(&rec(j, 0, 1, 0, 100 + u64::from(j)), SimTime::ZERO));
            }
            let now = SimTime::from_secs(50);
            assert_eq!(
                (v.demand(SiteId(0), now), v.queued(SiteId(0), now)),
                (14, 4)
            );
            assert_eq!(v.free_per_site(now), vec![0, 20]);
            assert_eq!(v.idle_cpus(now), 20);
            // Four expire: demand meets capacity, still nothing free.
            let now = SimTime::from_secs(103);
            assert_eq!(
                (v.free_cpus(SiteId(0), now), v.queued(SiteId(0), now)),
                (0, 0)
            );
            // One more and the first CPU frees; then all of them.
            assert_eq!(v.free_cpus(SiteId(0), SimTime::from_secs(104)), 1);
            let end = SimTime::from_secs(200);
            assert_eq!(v.free_per_site(end), vec![10, 20]);
            assert_eq!((v.demand(SiteId(0), end), v.idle_cpus(end)), (0, 30));
        }

        #[test]
        fn a_record_for_an_unknown_site_is_refused() {
            let mut v = V::new(&sites());
            let now = SimTime::ZERO;
            // Site 2 on a 2-site view: what one malformed frame can carry.
            assert!(!v.observe(&rec(7, 2, 4, 0, 100), now));
            assert!(!v.observe(&rec(8, u32::MAX, 4, 0, 100), now));
            assert_eq!(
                v.merge(&[rec(9, 2, 1, 0, 100), rec(10, 1, 1, 0, 100)], now),
                1
            );
            assert_eq!(v.free_per_site(now), vec![10, 19]);
            assert_eq!(
                v.vo_demand(VoId(1), now),
                0,
                "nothing of job 7 or 9 was counted"
            );
            // The refusal did not poison the job id: the same job at a real
            // site is new.
            assert!(v.observe(&rec(7, 0, 4, 0, 100), now));
            assert_eq!(v.free_per_site(now), vec![6, 19]);
            assert_eq!(v.free_per_site(SimTime::from_secs(101)), vec![10, 20]);
        }

        #[test]
        fn a_record_for_an_unknown_principal_is_refused() {
            let mut v = V::new(&sites());
            let now = SimTime::ZERO;
            let edge = GridView::DEFAULT_PRINCIPALS as u32;
            // One INFORM naming `VoId(u32::MAX)` used to ask for a 32 GB table.
            for (vo, group) in [(u32::MAX, 0), (edge, 0), (0, u32::MAX), (0, edge)] {
                let hostile = DispatchRecord {
                    vo: VoId(vo),
                    group: GroupId(group),
                    ..rec(7, 0, 4, 0, 100)
                };
                assert!(!v.observe(&hostile, now), "vo {vo} group {group}");
            }
            assert_eq!(v.free_per_site(now), vec![10, 20]);
            // The refusal did not poison the job id, and the last id inside
            // the bounds is an ordinary principal.
            let inside = DispatchRecord {
                vo: VoId(edge - 1),
                group: GroupId(edge - 1),
                ..rec(7, 0, 4, 0, 100)
            };
            assert!(v.observe(&inside, now));
            assert_eq!(v.free_per_site(now), vec![6, 20]);
            assert_eq!(v.group_demand(VoId(edge - 1), GroupId(edge - 1), now), 4);
        }

        #[test]
        fn principal_demand_tracks_vo_and_group() {
            let mut v = V::new(&sites());
            let now = SimTime::ZERO;
            v.observe(&rec(2, 0, 3, 0, 50), now); // vo 0
            v.observe(&rec(3, 1, 5, 0, 80), now); // vo 1
            assert_eq!(v.vo_demand(VoId(0), now), 3);
            assert_eq!(v.vo_demand(VoId(1), now), 5);
            assert_eq!(v.group_demand(VoId(0), GroupId(0), now), 3);
            let later = SimTime::from_secs(60);
            assert_eq!(v.vo_demand(VoId(0), later), 0);
            assert_eq!(v.vo_demand(VoId(1), later), 5);
        }

        #[test]
        fn idle_and_free_vectors() {
            let mut v = V::new(&sites());
            let now = SimTime::ZERO;
            v.observe(&rec(1, 1, 8, 0, 100), now);
            assert_eq!(v.free_per_site(now), vec![10, 12]);
            assert_eq!(v.idle_cpus(now), 22);
        }
    }

    #[test]
    fn principal_tables_never_grow_past_their_bounds() {
        // What `GruberEngine::new` builds for a 2-VO, 3-group USLA set.
        let mut v = GridView::with_principals(&sites(), 2, 3);
        let now = SimTime::ZERO;
        let named = |job, vo, group| DispatchRecord {
            vo: VoId(vo),
            group: GroupId(group),
            ..rec(job, 1, 1, 0, 100)
        };
        assert!(!v.observe(&named(1, 2, 0), now));
        assert!(!v.observe(&named(2, 0, 3), now));
        assert!(!v.observe(&named(3, u32::MAX, u32::MAX), now));
        assert!(v.observe(&named(4, 1, 2), now));
        assert_eq!(v.free_per_site(now), vec![10, 19]);
        assert_eq!(v.vo_demand.len(), 2);
        assert!(v.group_demand.iter().all(|groups| groups.len() <= 3));
        // Nothing refused was queued for expiry.
        assert_eq!(v.expiries.entries().len(), 1);
        v.expire(SimTime::from_secs(200));
        v.check_columns();
    }

    #[test]
    fn job_set_inserts_and_dedups_across_pages() {
        let mut s = JobSet::default();
        // Spread across three pages, including page boundaries.
        for id in [0u32, 1, 63, 64, 65_535, 65_536, 200_000] {
            assert!(!s.contains(JobId(id)));
            assert!(s.insert(JobId(id)), "first insert of {id}");
            assert!(!s.insert(JobId(id)), "second insert of {id}");
            assert!(s.contains(JobId(id)));
        }
        assert_eq!(s.len, 7);
        // Untouched ids in materialized and unmaterialized pages.
        assert!(!s.contains(JobId(2)));
        assert!(!s.contains(JobId(1_000_000)));
    }

    #[test]
    fn property_view_matches_reference_model() {
        // Reference: free(site, t) = total - sum of active records, computed
        // from scratch each query. The incremental SoA view and RefView
        // must both always agree with it — and with each other.
        use desim::DetRng;
        let mut rng = DetRng::new(77, 0);
        let specs: Vec<SiteSpec> = (0..5)
            .map(|i| SiteSpec::single_cluster(SiteId(i), 50))
            .collect();
        let mut view = GridView::new(&specs);
        let mut refv = RefView::new(&specs);
        let mut records: Vec<DispatchRecord> = Vec::new();
        for step in 0..400u64 {
            let now = SimTime::from_secs(step * 10);
            if rng.chance(0.7) {
                let r = DispatchRecord {
                    job: JobId(step as u32),
                    site: SiteId(rng.index(5) as u32),
                    vo: VoId(rng.index(3) as u32),
                    group: GroupId(0),
                    cpus: 1 + rng.index(4) as u32,
                    dispatched_at: now,
                    est_finish: now
                        + gruber_types::SimDuration::from_secs(1 + rng.next_u64() % 2000),
                };
                let fresh = view.observe(&r, now);
                assert_eq!(fresh, refv.observe(&r, now), "backends split at step {step}");
                if fresh {
                    records.push(r);
                }
            }
            // Compare against the brute-force reference at a probe site.
            let probe = SiteId(rng.index(5) as u32);
            let reference: u64 = records
                .iter()
                .filter(|r| r.site == probe && r.est_finish > now)
                .map(|r| u64::from(r.cpus))
                .sum();
            assert_eq!(
                view.demand(probe, now),
                reference,
                "view diverged at step {step}"
            );
            assert_eq!(
                refv.demand(probe, now),
                reference,
                "refview diverged at step {step}"
            );
        }
    }

    /// How `differential_interleaving` draws its time steps and runtimes.
    #[derive(Clone, Copy)]
    enum Deltas {
        /// Whole seconds below the given modulus: steps < 300 s, runtimes
        /// < 1 200 s. Never leaves the queue's low dozen buckets.
        Seconds,
        /// Log-uniform over 1 ms … 2^45 ms: every bit level a replay of
        /// any length can reach, and jumps that cross many at once.
        LogUniform,
    }

    impl Deltas {
        fn draw(self, rng: &mut desim::DetRng, secs_modulus: u64) -> gruber_types::SimDuration {
            match self {
                Deltas::Seconds => {
                    gruber_types::SimDuration::from_secs(rng.next_u64() % secs_modulus)
                }
                Deltas::LogUniform => {
                    let floor = 1u64 << rng.index(45);
                    gruber_types::SimDuration(floor | (rng.next_u64() & (floor - 1)))
                }
            }
        }
    }

    /// Drives both backends through an identical randomized interleaving
    /// of every view operation and requires identical answers.
    fn differential_interleaving(seed: u64, steps: u64, n_sites: usize, deltas: Deltas) {
        use desim::DetRng;
        let mut rng = DetRng::new(seed, 0xD1FF);
        let specs: Vec<SiteSpec> = (0..n_sites)
            .map(|i| SiteSpec::single_cluster(SiteId(i as u32), 16 + (i as u32 % 5) * 8))
            .collect();
        let mut soa = GridView::new(&specs);
        let mut refv = RefView::new(&specs);
        let mut now = SimTime::ZERO;
        let mut batch: Vec<DispatchRecord> = Vec::new();
        for step in 0..steps {
            // Monotone nondecreasing time, sometimes repeating.
            if rng.chance(0.8) {
                now += deltas.draw(&mut rng, 300);
            }
            let r = DispatchRecord {
                job: JobId((rng.next_u64() % (steps / 2 + 1)) as u32),
                site: SiteId(rng.index(n_sites) as u32),
                vo: VoId(rng.index(4) as u32),
                group: GroupId(rng.index(3) as u32),
                cpus: 1 + rng.index(8) as u32,
                dispatched_at: now,
                est_finish: now + deltas.draw(&mut rng, 1200),
            };
            match rng.index(6) {
                0 | 1 => {
                    assert_eq!(soa.observe(&r, now), refv.observe(&r, now), "step {step}");
                }
                2 => {
                    batch.push(r);
                    if batch.len() >= 4 || rng.chance(0.5) {
                        assert_eq!(
                            soa.merge(&batch, now),
                            refv.merge(&batch, now),
                            "merge at step {step}"
                        );
                        batch.clear();
                    }
                }
                3 => {
                    soa.expire(now);
                    refv.expire(now);
                }
                4 => {
                    let s = SiteId(rng.index(n_sites) as u32);
                    assert_eq!(soa.demand(s, now), refv.demand(s, now));
                    assert_eq!(soa.queued(s, now), refv.queued(s, now));
                }
                _ => {
                    let vo = VoId(rng.index(5) as u32);
                    let g = GroupId(rng.index(4) as u32);
                    assert_eq!(soa.vo_demand(vo, now), refv.vo_demand(vo, now));
                    assert_eq!(soa.group_demand(vo, g, now), refv.group_demand(vo, g, now));
                    assert_eq!(soa.idle_cpus(now), refv.idle_cpus(now));
                }
            }
            soa.check_columns();
            if step % 16 == 0 {
                assert_eq!(
                    soa.free_per_site(now),
                    refv.free_per_site(now),
                    "availability split at step {step}"
                );
            }
        }
    }

    #[test]
    fn differential_interleavings_agree() {
        for seed in 0..8u64 {
            differential_interleaving(1000 + seed, 600, 7, Deltas::Seconds);
            differential_interleaving(2000 + seed, 5000, 7, Deltas::LogUniform);
        }
    }

    #[test]
    fn a_clock_that_steps_back_reads_the_high_water_mark() {
        // GridView only: RefView promises nothing off the monotone path.
        let mut v = GridView::new(&sites());
        assert!(v.observe(&rec(1, 0, 4, 100, 200), SimTime::from_secs(100)));
        assert!(v.observe(&rec(2, 1, 5, 100, 150), SimTime::from_secs(100)));
        let at_100 = v.free_per_site(SimTime::from_secs(100));
        assert_eq!(at_100, vec![6, 15]);
        assert_eq!(v.free_per_site(SimTime::from_secs(50)), at_100);
        // Finishes after the caller's `now` but before the view's clock.
        assert!(!v.observe(&rec(3, 0, 1, 50, 80), SimTime::from_secs(50)));
        assert!(!v.observe(&rec(4, 0, 1, 50, 100), SimTime::from_secs(50)));
        assert!(v.observe(&rec(5, 0, 1, 50, 101), SimTime::from_secs(50)));
        assert_eq!(v.free_per_site(SimTime::from_secs(50)), vec![5, 15]);
        assert_eq!(v.vo_demand(VoId(1), SimTime::from_secs(50)), 5);
        // Every decrement finds the increment it pairs with: no underflow.
        assert_eq!(v.free_per_site(SimTime::from_secs(10_000)), vec![10, 20]);
        assert_eq!(v.vo_demand(VoId(0), SimTime::from_secs(50)), 0);
        assert_eq!(v.vo_demand(VoId(1), SimTime::from_secs(50)), 0);
    }

    /// Checks every `ExpiryQueue` invariant its doc comment lists.
    fn assert_queue_invariants(q: &ExpiryQueue) {
        let high = q.last & ExpiryQueue::HIGH;
        for (b, chunks) in q.buckets.iter().enumerate() {
            assert_eq!(q.occupied >> b & 1 == 1, !chunks.is_empty(), "mask bit {b}");
            for chunk in chunks {
                assert!(!chunk.is_empty(), "bucket {b} holds an empty chunk");
                assert!(chunk.len() <= ExpiryQueue::CHUNK_LEN);
                for e in chunk {
                    let at = high | e & !ExpiryQueue::HIGH;
                    assert!(at > q.last, "key {at} at or below last {}", q.last);
                    assert_eq!((at ^ q.last).ilog2() as usize, b, "key {at} misfiled");
                }
            }
        }
        assert_eq!(q.occupied >> KEY_BITS, 0, "mask bits past the buckets");
        for &Reverse((at, fields)) in &q.far {
            assert!(at > q.last, "far key {at} at or below last {}", q.last);
            assert!(
                (at ^ q.last).ilog2() >= KEY_BITS || fields >> (64 - KEY_BITS) != 0,
                "far key {at} in the buckets' reach and narrow enough for them"
            );
        }
        assert!(q.free.iter().all(Vec::is_empty));
    }

    /// A queue whose entries carry any `u32` site: a record asking for 16
    /// CPUs or more is too wide for an 8-byte entry.
    fn queue() -> ExpiryQueue {
        ExpiryQueue::new(Packing::new(1 << 32, 1, 1).0)
    }

    fn expiry(at: u64, id: u32) -> Pending {
        Pending {
            at,
            site: id,
            vo: 0,
            group: 0,
            cpus: 1,
        }
    }

    #[test]
    fn an_expiry_is_eight_bytes() {
        // One per record a view has seen and not yet expired: 333 k of
        // them per point on a 40-minute trace replay.
        assert_eq!(std::mem::size_of::<Expiry>(), 8);
    }

    #[test]
    fn a_wide_record_falls_due_inside_the_block() {
        // 16 CPUs on a 32-bit site index: 37 bits of fields, stored whole
        // in `far` though its key is a few ms out.
        let mut q = queue();
        q.drain_due(1_000, |_| panic!("an empty queue drained"));
        q.push(Pending {
            cpus: 16,
            ..expiry(1_010, 7)
        });
        q.push(Pending {
            cpus: 15,
            ..expiry(1_020, 8)
        });
        assert_eq!((q.far.len(), q.entries().len()), (1, 2));
        assert_queue_invariants(&q);
        let mut got = Vec::new();
        q.drain_due(1_010, |e| got.push((e.at, e.site, e.cpus)));
        assert_eq!(got, [(1_010, 7, 16)]);
        q.drain_due(1_020, |e| got.push((e.at, e.site, e.cpus)));
        assert_eq!(got, [(1_010, 7, 16), (1_020, 8, 15)]);
        assert!(q.entries().is_empty());
    }

    #[test]
    fn keys_cross_the_buckets_reach_through_far() {
        // The clock 5 ms short of 2^32; keys just past 2^32 and 2^33 differ
        // from it at bits 32 and 33, past the buckets.
        let mut q = queue();
        let mut model: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
        let start = (1u64 << 32) - 5;
        q.drain_due(start, |_| panic!("an empty queue drained"));
        let keys = (1..5).map(|k| start + k);
        let keys = keys.chain((0..6).flat_map(|k| [(1u64 << 32) + k, (1u64 << 33) + k]));
        for (id, at) in keys.enumerate() {
            q.push(expiry(at, id as u32));
            model.push(Reverse((at, id as u32)));
        }
        assert_eq!(q.far.len(), 12);
        assert_queue_invariants(&q);
        let ends = [0, 2, 1 << 32, (1 << 32) + 3, 3 << 32].map(|d| (1u64 << 32) + d);
        for now in (start + 2..start + 4).chain(ends) {
            let mut got = Vec::new();
            q.drain_due(now, |e| got.push((e.at, e.site)));
            got.sort_unstable();
            let mut want = Vec::new();
            while let Some(&Reverse(e)) = model.peek().filter(|e| e.0 .0 <= now) {
                model.pop();
                want.push(e);
            }
            assert_eq!(got, want, "drain at {now}");
            assert_queue_invariants(&q);
            let far = q.far.len();
            if now == 1 << 32 {
                assert_eq!(far, 6, "keys past 2^32 came in; those past 2^33 stayed");
            }
        }
        assert!(q.entries().is_empty());
    }

    #[test]
    fn a_record_too_wide_for_its_entry_is_refused() {
        // 2^20 VOs and groups on 2 sites: 1 + 20 + 20 index bits leave 23
        // for the CPUs.
        let mut v = GridView::with_principals(&sites(), 1 << 20, 1 << 20);
        let now = SimTime::ZERO;
        let wide = |job, cpus| DispatchRecord {
            vo: VoId((1 << 20) - 1),
            ..rec(job, 1, cpus, 0, 100)
        };
        assert!(!v.observe(&wide(7, 1 << 23), now));
        assert!(!v.observe(&wide(8, u32::MAX), now));
        assert!(!v.seen.contains(JobId(7)) && !v.seen.contains(JobId(8)));
        assert_eq!(v.free_per_site(now), vec![10, 20]);
        assert_eq!(v.vo_demand(VoId((1 << 20) - 1), now), 0);
        assert!(v.expiries.entries().is_empty(), "nothing was queued");
        assert!(v.observe(&wide(7, (1 << 23) - 1), now));
        assert_eq!(v.free_per_site(now), vec![10, 0]);
        assert_eq!(v.free_per_site(SimTime::from_secs(101)), vec![10, 20]);

        // The widest view the tree builds: 3000 sites, default principals.
        let specs: Vec<SiteSpec> = (0..3000)
            .map(|i| SiteSpec::single_cluster(SiteId(i), 8))
            .collect();
        let mut v = GridView::new(&specs);
        let edge = (GridView::DEFAULT_PRINCIPALS - 1) as u32;
        let widest = DispatchRecord {
            site: SiteId(2999),
            vo: VoId(edge),
            group: GroupId(edge),
            ..rec(1, 0, u32::MAX, 0, 100)
        };
        assert!(v.observe(&widest, now));
        assert_eq!(v.demand(SiteId(2999), now), u64::from(u32::MAX));
        let group = v.group_demand(VoId(edge), GroupId(edge), now);
        assert_eq!(group, u64::from(u32::MAX));
        let later = SimTime::from_secs(100);
        assert_eq!(v.demand(SiteId(2999), later), 0);
        assert_eq!(v.idle_cpus(later), 3000 * 8);

        // Bounds past 63 bits are trimmed, not refused at build time.
        let mut v = GridView::with_principals(&sites(), usize::MAX, usize::MAX);
        let named = |job, group, cpus| DispatchRecord {
            group: GroupId(group),
            ..rec(job, 0, cpus, 0, 100)
        };
        assert!(!v.observe(&named(1, 1 << 30, 1), now));
        assert!(!v.observe(&named(2, 1, 2), now));
        assert!(v.observe(&named(3, 1, 1), now));
        assert_eq!(v.free_per_site(now), vec![9, 20]);
    }

    #[test]
    fn queue_recycles_its_chunks() {
        const N: u32 = 10 * ExpiryQueue::CHUNK_LEN as u32 + 17;
        // Round two repeats round one shifted by 2^40, a bit no offset
        // reaches: its keys wait in `far` until the first drain files them
        // where round one's first drain left its own.
        let round = |q: &mut ExpiryQueue, base: u64| {
            for i in 0..N {
                q.push(expiry(base + 1 + u64::from(i) * 37, i));
            }
            assert_queue_invariants(q);
            let mut drained = 0u32;
            for step in 1..=40u64 {
                q.drain_due(base + step * u64::from(N), |_| drained += 1);
                assert_queue_invariants(q); // in particular: after a split
            }
            assert_eq!(drained, N);
            assert!(q.entries().is_empty());
        };
        let mut q = queue();
        round(&mut q, 0);
        let owned = q.chunks_owned();
        assert!(owned >= N as usize / ExpiryQueue::CHUNK_LEN);
        assert_eq!(q.free.len(), owned, "a drained queue parks every chunk");
        round(&mut q, 1 << 40);
        assert_eq!(q.chunks_owned(), owned, "the second round allocated");
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Arbitrary op interleavings under monotone time: the SoA
            /// view and the reference view answer identically.
            #[test]
            fn prop_backends_agree(
                seed in 0u64..1_000_000,
                steps in 50u64..400,
                n_sites in 2usize..12,
            ) {
                super::differential_interleaving(seed, steps, n_sites, super::Deltas::Seconds);
                super::differential_interleaving(seed, 5000, n_sites, super::Deltas::LogUniform);
            }

            /// The radix queue against a binary-heap model: arbitrary
            /// pushes above the clock and drains under a nondecreasing
            /// `now`, deltas at every one of the 64 bit levels (saturating
            /// into `u64::MAX`), CPU counts on both sides of the 8-byte
            /// entry's 36 field bits. Every drain hands out the same
            /// multiset and the same entries are left at the end.
            #[test]
            fn prop_queue_matches_heap_model(
                ops in proptest::collection::vec(
                    (0u8..5, 0u32..64, 0u64..u64::MAX, 1u32..32),
                    0..400,
                ),
            ) {
                let mut q = super::queue();
                let mut model: BinaryHeap<Reverse<(u64, u32, u32)>> = BinaryHeap::new();
                let mut now = 0u64;
                for (id, &(kind, level, raw, cpus)) in ops.iter().enumerate() {
                    let floor = 1u64 << level;
                    let delta = floor | (raw & (floor - 1));
                    if kind < 3 {
                        // Level 0 is always `now + 1`: duplicate keys.
                        // Nothing is above a saturated clock.
                        if now < u64::MAX {
                            let at = now.saturating_add(delta);
                            q.push(Pending { cpus, ..super::expiry(at, id as u32) });
                            model.push(Reverse((at, id as u32, cpus)));
                        }
                    } else {
                        if kind == 3 {
                            now = now.saturating_add(delta);
                        } // else drain again at `now == last`
                        let mut got = Vec::new();
                        q.drain_due(now, |e| got.push((e.at, e.site, e.cpus)));
                        got.sort_unstable();
                        let mut want = Vec::new();
                        while let Some(&Reverse(e)) = model.peek().filter(|e| e.0 .0 <= now) {
                            model.pop();
                            want.push(e);
                        }
                        prop_assert_eq!(got, want);
                    }
                    super::assert_queue_invariants(&q);
                }
                let mut residue: Vec<(u64, u32)> =
                    model.into_iter().map(|Reverse((at, id, _))| (at, id)).collect();
                residue.sort_unstable();
                prop_assert_eq!(q.entries(), residue);
            }

            /// Observing any record set then expiring far in the future
            /// drains both backends back to full availability.
            #[test]
            fn prop_full_expiry_restores_capacity(
                jobs in proptest::collection::vec((0u32..500, 0u32..4, 1u32..6, 1u64..3000), 0..60),
            ) {
                let specs: Vec<SiteSpec> = (0..4)
                    .map(|i| SiteSpec::single_cluster(SiteId(i), 32))
                    .collect();
                let mut soa = GridView::new(&specs);
                let mut refv = RefView::new(&specs);
                for &(job, site, cpus, end) in &jobs {
                    let r = DispatchRecord {
                        job: JobId(job),
                        site: SiteId(site),
                        vo: VoId(job % 3),
                        group: GroupId(job % 2),
                        cpus,
                        dispatched_at: SimTime::ZERO,
                        est_finish: SimTime::from_secs(end),
                    };
                    prop_assert_eq!(
                        soa.observe(&r, SimTime::ZERO),
                        refv.observe(&r, SimTime::ZERO)
                    );
                }
                let end = SimTime::from_secs(1_000_000);
                prop_assert_eq!(soa.free_per_site(end), refv.free_per_site(end));
                prop_assert_eq!(soa.idle_cpus(end), 4 * 32);
                prop_assert_eq!(refv.idle_cpus(end), 4 * 32);
            }
        }
    }
}
