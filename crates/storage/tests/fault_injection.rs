//! Fault-injection tests: the `Pager` trait allows interposing wrappers, so
//! higher layers can be exercised against a misbehaving "device". These
//! tests verify that the storage primitives keep their bookkeeping exact
//! even when accesses are spied on.

use pv_storage::{IoStats, MemPager, PageId, PageList, Pager};
use std::sync::atomic::{AtomicU64, Ordering};

/// A pager wrapper that counts per-operation traffic and can inject a panic
/// after a configured number of reads (to emulate a dying device in tests
/// that expect failures).
struct SpyPager {
    inner: MemPager,
    reads_until_failure: AtomicU64,
    ops: AtomicU64,
}

impl SpyPager {
    fn new(inner: MemPager, reads_until_failure: u64) -> Self {
        Self {
            inner,
            reads_until_failure: AtomicU64::new(reads_until_failure),
            ops: AtomicU64::new(0),
        }
    }

    /// Re-arms the failure countdown (e.g. after a healthy build phase).
    fn arm(&self, reads_until_failure: u64) {
        self.reads_until_failure
            .store(reads_until_failure, Ordering::Relaxed);
    }
}

impl Pager for SpyPager {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }
    fn alloc(&self) -> PageId {
        self.ops.fetch_add(1, Ordering::Relaxed);
        self.inner.alloc()
    }
    fn read(&self, id: PageId) -> Vec<u8> {
        self.ops.fetch_add(1, Ordering::Relaxed);
        let left = self.reads_until_failure.fetch_sub(1, Ordering::Relaxed);
        assert!(left != 0, "injected device failure");
        self.inner.read(id)
    }
    fn write(&self, id: PageId, data: &[u8]) {
        self.ops.fetch_add(1, Ordering::Relaxed);
        self.inner.write(id, data)
    }
    fn free(&self, id: PageId) {
        self.ops.fetch_add(1, Ordering::Relaxed);
        self.inner.free(id)
    }
    fn stats(&self) -> &IoStats {
        self.inner.stats()
    }
}

#[test]
fn page_list_works_through_a_wrapper() {
    let spy = SpyPager::new(MemPager::new(256), u64::MAX);
    let mut list = PageList::new();
    for i in 0..50u8 {
        list.append(&spy, &[i; 40]);
    }
    let all = list.read_all(&spy);
    assert_eq!(all.len(), 50);
    assert!(spy.ops.load(Ordering::Relaxed) > 50);
}

#[test]
fn injected_failure_surfaces() {
    // Healthy device during the build phase (appends also read the head
    // page), then arm the failure before the scan.
    let spy = SpyPager::new(MemPager::new(256), u64::MAX);
    let mut list = PageList::new();
    for i in 0..40u8 {
        list.append(&spy, &[i; 60]); // multiple pages
    }
    spy.arm(3);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        // reading the multi-page chain needs more than 3 reads
        list.read_all(&spy)
    }));
    assert!(result.is_err(), "the injected failure must propagate");
}

#[test]
fn stats_reset_between_phases() {
    let pager = MemPager::new(256);
    let a = pager.alloc();
    pager.write(a, &vec![1u8; 256]);
    assert!(pager.stats().snapshot().total() > 0);
    pager.stats().reset();
    assert_eq!(pager.stats().snapshot().total(), 0);
    pager.read(a);
    assert_eq!(pager.stats().snapshot().reads, 1);
}
