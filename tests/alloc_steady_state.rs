//! The steady-state allocation contract of the batch query path.
//!
//! After warm-up (two batches that grow every scratch/outcome buffer to its
//! working size), a sequential `query_batch_into` over the same workload
//! must perform **zero** heap allocations — the whole Step-1 descent,
//! secondary-record fetch, instance sampling and merged-CDF sweep run out
//! of reused buffers. This is asserted with a counting global allocator
//! around real PV-index and linear-scan batches, and — since PR 5 — around
//! the concurrent `Db` facade's `Session` path: pinning a published
//! snapshot is an `Arc` clone and the session pools its scratch, so the
//! contract survives the API redesign.
//!
//! Everything lives in one `#[test]` because the counter is process-global:
//! a sibling test allocating concurrently would poison the delta.

use pv_suite::core::db::Db;
use pv_suite::core::{BatchSlots, LinearScan, ProbNnEngine, PvIndex, PvParams, QuerySpec};
use pv_suite::workload::{queries, synthetic, SyntheticConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// System-allocator wrapper counting every allocation and reallocation.
struct CountingAllocator;

// SAFETY: defers every operation to `System`, only adding relaxed counter
// bumps, which are allocation-free and reentrancy-safe.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: pure pass-through — the caller's obligations are `System`'s.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is forwarded unchanged, so `System`'s contract is
        // the caller's contract; the counter bump cannot allocate or unwind.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: pure pass-through — the caller's obligations are `System`'s.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come from the caller's matching `alloc`,
        // which this wrapper served from `System` with the same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: pure pass-through — the caller's obligations are `System`'s.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by `System` via this wrapper with
        // `layout`; the `new_size` obligations transfer verbatim.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: pure pass-through — the caller's obligations are `System`'s.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is forwarded unchanged to `System.alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Total allocations (+ reallocations) observed so far. Take deltas around
/// the region of interest.
fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn measure_steady_state<E: ProbNnEngine + Sync>(
    engine: &E,
    points: &[pv_suite::geom::Point],
    spec: &QuerySpec,
) -> u64 {
    let mut slots = BatchSlots::new();
    // Warm-up: grow outcome vectors and per-worker scratches.
    engine.query_batch_into(points, spec, &mut slots).unwrap();
    engine.query_batch_into(points, spec, &mut slots).unwrap();
    let before = allocations();
    let stats = engine.query_batch_into(points, spec, &mut slots).unwrap();
    let delta = allocations() - before;
    assert_eq!(stats.queries, points.len());
    assert!(stats.answers > 0, "workload produced no answers");
    delta
}

/// Same contract through the `Db` facade: a warmed `Session` batch, and a
/// warmed single-query loop, both at zero allocations per query.
fn measure_db_steady_state(
    db: &Db<PvIndex>,
    points: &[pv_suite::geom::Point],
    spec: &QuerySpec,
) -> (u64, u64) {
    let mut session = db.session();
    session.query_batch(points, spec).unwrap();
    session.query_batch(points, spec).unwrap();
    let before = allocations();
    let stats = session.query_batch(points, spec).unwrap();
    let batch_delta = allocations() - before;
    assert_eq!(stats.queries, points.len());

    for q in points {
        session.query(q, spec).unwrap();
    }
    let before = allocations();
    let mut answers = 0usize;
    for q in points {
        answers += session.query(q, spec).unwrap().answers.len();
    }
    let single_delta = allocations() - before;
    assert!(answers > 0);
    (batch_delta, single_delta)
}

#[test]
fn steady_state_query_batch_allocates_nothing() {
    let db = synthetic(&SyntheticConfig {
        n: 400,
        dim: 2,
        max_side: 150.0,
        samples: 24,
        seed: 7,
    });
    let points = queries::uniform(&db.domain, 48, 3);
    // Sequential: parallel batches still allocate per worker spawn; the
    // per-query hot path itself is what must stay allocation-free.
    let spec = QuerySpec::new().with_batch_threads(1);

    // A build allocates plenty, so a zero delta here means the counter is
    // not the registered global allocator and every zero below is vacuous.
    let before = allocations();
    let index = PvIndex::build(&db, PvParams::default());
    assert!(
        allocations() > before,
        "counting allocator saw no allocations during PvIndex::build"
    );
    let pv_allocs = measure_steady_state(&index, &points, &spec);
    assert_eq!(
        pv_allocs, 0,
        "pv-index steady-state batch performed {pv_allocs} heap allocations"
    );

    let scan = LinearScan::new(&db);
    let scan_allocs = measure_steady_state(&scan, &points, &spec);
    assert_eq!(
        scan_allocs, 0,
        "linear-scan steady-state batch performed {scan_allocs} heap allocations"
    );

    // Pruning specs share the same buffers: still allocation-free.
    let pruned_spec = QuerySpec::new().with_top_k(3).with_batch_threads(1);
    let pruned = measure_steady_state(&index, &points, &pruned_spec);
    assert_eq!(
        pruned, 0,
        "pv-index steady-state top-k batch performed {pruned} heap allocations"
    );

    // The Db facade: snapshot pinning (Arc clone) plus the pooled Session
    // scratch keep the hot path allocation-free through the redesigned API.
    let facade = Db::new(index);
    let (batch_allocs, single_allocs) = measure_db_steady_state(&facade, &points, &pruned_spec);
    assert_eq!(
        batch_allocs, 0,
        "Db session steady-state batch performed {batch_allocs} heap allocations"
    );
    assert_eq!(
        single_allocs, 0,
        "Db session steady-state queries performed {single_allocs} heap allocations"
    );

    // Since PR 6 the published engine after a commit is a page-level COW
    // fork, not a rebuilt index: its pages are Arc-shared with the previous
    // version. Reads on a forked engine must stay allocation-free too —
    // sharing may never force a copy or a fresh buffer on the read path.
    let extra = pv_suite::uncertain::UncertainObject::uniform(
        90_000,
        pv_suite::geom::HyperRect::new(vec![40.0, 40.0], vec![44.0, 44.0]),
        8,
    );
    facade.insert(extra).expect("fresh id");
    let (cow_batch, cow_single) = measure_db_steady_state(&facade, &points, &pruned_spec);
    assert_eq!(
        cow_batch, 0,
        "COW-forked engine steady-state batch performed {cow_batch} heap allocations"
    );
    assert_eq!(
        cow_single, 0,
        "COW-forked engine steady-state queries performed {cow_single} heap allocations"
    );
}
