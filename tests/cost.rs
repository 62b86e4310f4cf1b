//! Cost pins: what one operation allocates, counted by this binary's own
//! global allocator. A wall-clock number moves with the host; a count
//! does not, so an allocation added to a hot path fails here on any
//! machine.

use digruber::live::LiveCluster;
use gruber::DispatchRecord;
use gruber_types::{DpId, GroupId, JobId, SimDuration, SiteId, SiteSpec, VoId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use workload::uslas::equal_shares;

/// The system allocator, counting every call that hands out memory.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The benchmark's `live-query` operation on its own cluster shape (two
/// points, 300 sites, no sync round while counting): one query, then an
/// inform of the dispatch it led to, alternating over the two points.
/// The one allocation left is the answer's `Vec` of free CPUs; a wire
/// round trip of the inform cost two more.
#[test]
fn a_live_query_and_its_inform_allocate_once() {
    const SITES: u32 = 300;
    const WARM_PAIRS: u32 = 10_000;
    const PAIRS: u32 = 100_000;
    let sites: Vec<SiteSpec> = (0..SITES)
        .map(|i| SiteSpec::single_cluster(SiteId(i), 1_000))
        .collect();
    let uslas = equal_shares(10, 10).expect("valid shares");
    let cluster = LiveCluster::start(2, sites, &uslas, Duration::from_secs(3600));
    let pair = |job: u32| {
        let dp = DpId(job % 2);
        let free = cluster.query(dp, Duration::from_secs(5));
        assert_eq!(free.map(|free| free.len()), Some(SITES as usize));
        let now = cluster.now();
        cluster.inform(
            dp,
            DispatchRecord {
                job: JobId(job),
                site: SiteId(job % SITES),
                vo: VoId(job % 10),
                group: GroupId(0),
                cpus: 1,
                dispatched_at: now,
                est_finish: now + SimDuration::from_secs(3600),
            },
        );
    };
    (0..WARM_PAIRS).for_each(pair);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    (WARM_PAIRS..WARM_PAIRS + PAIRS).for_each(pair);
    let counted = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let stats = cluster.shutdown();
    let per_pair = counted as f64 / f64::from(PAIRS);
    assert!(
        per_pair <= 1.01,
        "{counted} allocations in {PAIRS} query + inform pairs: {per_pair:.4} each"
    );
    let informs: u64 = stats.iter().map(|s| s.informs).sum();
    assert_eq!(informs, u64::from(WARM_PAIRS + PAIRS));
}
