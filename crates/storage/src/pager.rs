//! The pager: fixed-size pages on a simulated disk.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default page size, matching the paper's 4 KiB disk pages (§VII-A).
pub const DEFAULT_PAGE_SIZE: usize = 4096;

/// Identifier of a disk page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u64);

impl PageId {
    /// Sentinel used on disk to encode "no page" (e.g. end of a page list).
    pub const NULL: PageId = PageId(u64::MAX);

    /// True if this is the [`PageId::NULL`] sentinel.
    #[inline]
    pub fn is_null(self) -> bool {
        self == Self::NULL
    }
}

/// Monotonic counters describing traffic to the simulated disk.
///
/// All counters are atomic so that read-only query workloads can run from
/// multiple threads; snapshots are taken with [`IoStats::snapshot`].
#[derive(Debug, Default)]
pub struct IoStats {
    /// Pages read from the simulated disk.
    pub reads: AtomicU64,
    /// Pages written to the simulated disk.
    pub writes: AtomicU64,
    /// Pages allocated.
    pub allocs: AtomicU64,
    /// Pages freed.
    pub frees: AtomicU64,
}

/// A point-in-time copy of [`IoStats`], supporting deltas.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IoSnapshot {
    /// Page reads at snapshot time.
    pub reads: u64,
    /// Page writes at snapshot time.
    pub writes: u64,
    /// Pages allocated at snapshot time.
    pub allocs: u64,
    /// Pages freed at snapshot time.
    pub frees: u64,
}

impl IoSnapshot {
    /// Component-wise difference (`self - earlier`).
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            allocs: self.allocs - earlier.allocs,
            frees: self.frees - earlier.frees,
        }
    }

    /// Total page accesses (reads + writes).
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }
}

impl IoStats {
    /// Takes a consistent-enough snapshot for benchmarking purposes.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            allocs: self.allocs.load(Ordering::Relaxed),
            frees: self.frees.load(Ordering::Relaxed),
        }
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        self.reads.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
        self.allocs.store(0, Ordering::Relaxed);
        self.frees.store(0, Ordering::Relaxed);
    }
}

/// Abstract page store. [`MemPager`] is the only production implementation;
/// the trait exists so tests can interpose failure-injection wrappers.
pub trait Pager {
    /// Page size in bytes; every page has exactly this size.
    fn page_size(&self) -> usize;
    /// Allocates a zeroed page.
    fn alloc(&self) -> PageId;
    /// Reads a full page into a fresh buffer.
    fn read(&self, id: PageId) -> Vec<u8>;
    /// Reads a full page into `buf` (cleared first), reusing its capacity.
    ///
    /// The default forwards to [`Pager::read`]; implementations on the query
    /// hot path ([`MemPager`]) override it to copy without allocating, which
    /// is what makes steady-state batch queries allocation-free.
    fn read_into(&self, id: PageId, buf: &mut Vec<u8>) {
        *buf = self.read(id);
    }
    /// Overwrites a full page. `data.len()` must equal `page_size()`.
    fn write(&self, id: PageId, data: &[u8]);
    /// Releases a page for reuse.
    fn free(&self, id: PageId);
    /// Shared I/O statistics.
    fn stats(&self) -> &IoStats;
}

/// An in-memory simulated disk.
///
/// Cloning a `MemPager` is cheap and yields a handle to the *same* disk
/// (pages and counters are shared), which lets multiple index structures
/// (octree + hash table) live on one "device" as in the paper's setup.
///
/// [`MemPager::fork`] instead yields an *independent* disk whose pages are
/// structurally shared with the original: each page is an `Arc<[u8]>`, the
/// fork clones only the page-pointer table, and the first write to a shared
/// page in either handle copies that one page (copy-on-write). This is what
/// makes incremental `Db::commit` cheap — a commit touching k objects copies
/// O(k·log n) pages instead of the whole device.
#[derive(Clone)]
pub struct MemPager {
    inner: Arc<PagerInner>,
}

impl std::fmt::Debug for MemPager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemPager")
            .field("page_size", &self.inner.page_size)
            .finish_non_exhaustive()
    }
}

struct PagerInner {
    page_size: usize,
    stats: IoStats,
    /// Pages physically duplicated because a write hit a page whose bytes
    /// are still shared with a forked pager. See [`MemPager::cow_copies`].
    cow_copies: AtomicU64,
    state: Mutex<PagerState>,
}

#[derive(Default)]
struct PagerState {
    pages: Vec<Option<Arc<[u8]>>>,
    free_list: Vec<PageId>,
}

impl MemPager {
    /// Creates a pager with the given page size.
    pub fn new(page_size: usize) -> Self {
        assert!(page_size >= 64, "page size unreasonably small");
        Self {
            inner: Arc::new(PagerInner {
                page_size,
                stats: IoStats::default(),
                cow_copies: AtomicU64::new(0),
                state: Mutex::new(PagerState::default()),
            }),
        }
    }

    /// Creates a pager with the default 4 KiB pages.
    pub fn default_pager() -> Self {
        Self::new(DEFAULT_PAGE_SIZE)
    }

    /// Number of live (allocated, not freed) pages.
    pub fn live_pages(&self) -> usize {
        let st = self.inner.state.lock();
        st.pages.iter().filter(|p| p.is_some()).count()
    }

    /// Forks the disk: the new pager sees exactly the same page contents,
    /// but the two devices evolve independently from here on. Only the
    /// page-pointer table and free list are copied — page *bytes* stay
    /// shared until one side overwrites them (each such overwrite bumps
    /// [`MemPager::cow_copies`] on the writing side).
    ///
    /// The fork starts with zeroed I/O counters and a zeroed copy counter.
    pub fn fork(&self) -> Self {
        let st = self.inner.state.lock();
        Self {
            inner: Arc::new(PagerInner {
                page_size: self.inner.page_size,
                stats: IoStats::default(),
                cow_copies: AtomicU64::new(0),
                state: Mutex::new(PagerState {
                    pages: st.pages.clone(),
                    free_list: st.free_list.clone(),
                }),
            }),
        }
    }

    /// Pages physically copied by this handle because a write landed on a
    /// page whose bytes were still shared with a fork. Monotonic; starts at
    /// zero on construction and on every [`MemPager::fork`].
    ///
    /// This is the structural-sharing witness used by the COW test harness:
    /// after a fork, `cow_copies()` bounds how much of the device a writer
    /// actually duplicated.
    pub fn cow_copies(&self) -> u64 {
        self.inner.cow_copies.load(Ordering::Relaxed)
    }

    /// Number of live pages whose bytes are still shared with at least one
    /// other pager (fork) or an outstanding snapshot handle.
    pub fn shared_pages(&self) -> usize {
        let st = self.inner.state.lock();
        st.pages
            .iter()
            .filter(|p| p.as_ref().is_some_and(|a| Arc::strong_count(a) > 1))
            .count()
    }

    /// Copies the full disk image — one entry per page slot, `None` for
    /// freed slots — for snapshot serialisation. Charges no I/O (snapshots
    /// are a device-level dump, not page traffic).
    pub fn image(&self) -> Vec<Option<Vec<u8>>> {
        let st = self.inner.state.lock();
        st.pages
            .iter()
            .map(|slot| slot.as_ref().map(|p| p.to_vec()))
            .collect()
    }

    /// Reconstructs a pager from an image captured by [`MemPager::image`].
    /// Page ids are preserved exactly; freed slots rejoin the free list (in
    /// descending order, so the lowest id is recycled first). Counters start
    /// at zero.
    ///
    /// # Panics
    /// If any live page's length differs from `page_size`.
    pub fn from_image(page_size: usize, image: Vec<Option<Vec<u8>>>) -> Self {
        let pager = Self::new(page_size);
        {
            let mut st = pager.inner.state.lock();
            st.free_list = (0..image.len())
                .rev()
                .filter(|&i| image[i].is_none())
                .map(|i| PageId(i as u64))
                .collect();
            st.pages = image
                .into_iter()
                .map(|slot| {
                    slot.map(|p| {
                        assert_eq!(p.len(), page_size, "image page has the wrong size");
                        Arc::from(p.into_boxed_slice())
                    })
                })
                .collect();
        }
        pager
    }

    /// Total bytes currently occupied on the simulated disk.
    pub fn disk_bytes(&self) -> usize {
        self.live_pages() * self.inner.page_size
    }
}

impl Pager for MemPager {
    fn page_size(&self) -> usize {
        self.inner.page_size
    }

    fn alloc(&self) -> PageId {
        self.inner.stats.allocs.fetch_add(1, Ordering::Relaxed);
        let mut st = self.inner.state.lock();
        let zeroed: Arc<[u8]> = vec![0u8; self.inner.page_size].into();
        if let Some(id) = st.free_list.pop() {
            st.pages[id.0 as usize] = Some(zeroed);
            return id;
        }
        let id = PageId(st.pages.len() as u64);
        st.pages.push(Some(zeroed));
        id
    }

    fn read(&self, id: PageId) -> Vec<u8> {
        self.inner.stats.reads.fetch_add(1, Ordering::Relaxed);
        let st = self.inner.state.lock();
        st.pages
            .get(id.0 as usize)
            .and_then(|p| p.as_ref())
            .unwrap_or_else(|| panic!("read of unallocated page {id:?}"))
            .to_vec()
    }

    fn read_into(&self, id: PageId, buf: &mut Vec<u8>) {
        self.inner.stats.reads.fetch_add(1, Ordering::Relaxed);
        let st = self.inner.state.lock();
        let page = st
            .pages
            .get(id.0 as usize)
            .and_then(|p| p.as_ref())
            .unwrap_or_else(|| panic!("read of unallocated page {id:?}"));
        buf.clear();
        buf.extend_from_slice(page);
    }

    fn write(&self, id: PageId, data: &[u8]) {
        assert_eq!(data.len(), self.inner.page_size, "partial page write");
        self.inner.stats.writes.fetch_add(1, Ordering::Relaxed);
        let mut st = self.inner.state.lock();
        let slot = st
            .pages
            .get_mut(id.0 as usize)
            .unwrap_or_else(|| panic!("write of unallocated page {id:?}"));
        match slot {
            // pv-lint: allow(cow-discipline, reason = "this is THE designated dirty-copy helper: MemPager::write owns the get_mut fast path / Arc::from copy slow path that every other page mutation in the workspace must route through")
            Some(p) => match Arc::get_mut(p) {
                // Uniquely owned: overwrite in place.
                Some(bytes) => bytes.copy_from_slice(data),
                // Shared with a fork or snapshot: copy-on-write. The write
                // covers the whole page, so "copying" is materialising a
                // private page from `data`; the shared original stays
                // untouched for every other holder.
                None => {
                    self.inner.cow_copies.fetch_add(1, Ordering::Relaxed);
                    *p = Arc::from(data);
                }
            },
            None => panic!("write of freed page {id:?}"),
        }
    }

    fn free(&self, id: PageId) {
        self.inner.stats.frees.fetch_add(1, Ordering::Relaxed);
        let mut st = self.inner.state.lock();
        let slot = st
            .pages
            .get_mut(id.0 as usize)
            .unwrap_or_else(|| panic!("free of unallocated page {id:?}"));
        assert!(slot.is_some(), "double free of page {id:?}");
        *slot = None;
        st.free_list.push(id);
    }

    fn stats(&self) -> &IoStats {
        &self.inner.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_read_write_roundtrip() {
        let pager = MemPager::new(128);
        let id = pager.alloc();
        let mut buf = vec![0u8; 128];
        buf[0] = 0xAB;
        buf[127] = 0xCD;
        pager.write(id, &buf);
        assert_eq!(pager.read(id), buf);
        let snap = pager.stats().snapshot();
        assert_eq!(snap.reads, 1);
        assert_eq!(snap.writes, 1);
        assert_eq!(snap.allocs, 1);
    }

    #[test]
    fn freed_pages_are_reused() {
        let pager = MemPager::new(128);
        let a = pager.alloc();
        pager.free(a);
        let b = pager.alloc();
        assert_eq!(a, b, "free list should recycle the page id");
        assert_eq!(pager.live_pages(), 1);
    }

    #[test]
    fn fresh_pages_are_zeroed_even_after_reuse() {
        let pager = MemPager::new(128);
        let a = pager.alloc();
        pager.write(a, &[0xFFu8; 128]);
        pager.free(a);
        let b = pager.alloc();
        assert!(pager.read(b).iter().all(|&x| x == 0));
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let pager = MemPager::new(128);
        let a = pager.alloc();
        pager.free(a);
        pager.free(a);
    }

    #[test]
    #[should_panic(expected = "partial page write")]
    fn short_write_panics() {
        let pager = MemPager::new(128);
        let a = pager.alloc();
        pager.write(a, &[0u8; 64]);
    }

    #[test]
    fn clones_share_the_disk() {
        let pager = MemPager::new(128);
        let other = pager.clone();
        let id = pager.alloc();
        let mut buf = vec![0u8; 128];
        buf[5] = 42;
        other.write(id, &buf);
        assert_eq!(pager.read(id)[5], 42);
        assert_eq!(pager.stats().snapshot().writes, 1);
    }

    #[test]
    fn snapshot_delta() {
        let pager = MemPager::new(128);
        let id = pager.alloc();
        pager.write(id, &[0u8; 128]);
        let s0 = pager.stats().snapshot();
        pager.read(id);
        pager.read(id);
        let s1 = pager.stats().snapshot();
        let d = s1.since(&s0);
        assert_eq!(d.reads, 2);
        assert_eq!(d.writes, 0);
        assert_eq!(d.total(), 2);
    }

    #[test]
    fn null_page_id() {
        assert!(PageId::NULL.is_null());
        assert!(!PageId(0).is_null());
    }

    #[test]
    fn image_roundtrip_preserves_pages_and_free_slots() {
        let pager = MemPager::new(128);
        let a = pager.alloc();
        let b = pager.alloc();
        let c = pager.alloc();
        pager.write(a, &[1u8; 128]);
        pager.write(c, &[3u8; 128]);
        pager.free(b);
        let restored = MemPager::from_image(128, pager.image());
        assert_eq!(restored.read(a), vec![1u8; 128]);
        assert_eq!(restored.read(c), vec![3u8; 128]);
        assert_eq!(restored.live_pages(), 2);
        // the freed slot is recycled before the array grows
        assert_eq!(restored.alloc(), b);
        assert_eq!(restored.alloc(), PageId(3));
    }

    #[test]
    fn fork_sees_the_same_pages_but_diverges_on_write() {
        let pager = MemPager::new(128);
        let a = pager.alloc();
        let b = pager.alloc();
        pager.write(a, &[1u8; 128]);
        pager.write(b, &[2u8; 128]);

        let fork = pager.fork();
        assert_eq!(fork.read(a), vec![1u8; 128]);
        assert_eq!(fork.read(b), vec![2u8; 128]);
        assert_eq!(fork.shared_pages(), 2);

        // Writing through the fork leaves the original untouched…
        fork.write(a, &[9u8; 128]);
        assert_eq!(fork.read(a), vec![9u8; 128]);
        assert_eq!(pager.read(a), vec![1u8; 128]);
        // …and through the original leaves the fork untouched.
        pager.write(b, &[7u8; 128]);
        assert_eq!(fork.read(b), vec![2u8; 128]);
    }

    #[test]
    fn cow_copies_counts_only_writes_to_shared_pages() {
        let pager = MemPager::new(128);
        for _ in 0..8 {
            let id = pager.alloc();
            pager.write(id, &[5u8; 128]);
        }
        assert_eq!(pager.cow_copies(), 0, "no fork yet, nothing shared");

        let fork = pager.fork();
        assert_eq!(fork.cow_copies(), 0, "fork starts with a zeroed counter");
        fork.write(PageId(0), &[1u8; 128]);
        fork.write(PageId(1), &[1u8; 128]);
        assert_eq!(fork.cow_copies(), 2);
        // A second write to an already-private page copies nothing.
        fork.write(PageId(0), &[2u8; 128]);
        assert_eq!(fork.cow_copies(), 2);
        // The other 6 pages stay physically shared.
        assert_eq!(fork.shared_pages(), 6);
        assert_eq!(pager.cow_copies(), 0, "the parent never wrote");
    }

    #[test]
    fn fork_alloc_and_free_are_independent() {
        let pager = MemPager::new(128);
        let a = pager.alloc();
        let fork = pager.fork();

        // Freeing in the fork must not free the parent's page.
        fork.free(a);
        assert_eq!(pager.read(a), vec![0u8; 128]);
        assert_eq!(fork.live_pages(), 0);
        assert_eq!(pager.live_pages(), 1);

        // Both sides may now allocate the "same" id in their own space.
        let fa = fork.alloc();
        let pa = pager.alloc();
        fork.write(fa, &[3u8; 128]);
        pager.write(pa, &[4u8; 128]);
        assert_eq!(fork.read(fa), vec![3u8; 128]);
        assert_eq!(pager.read(pa), vec![4u8; 128]);
    }

    #[test]
    fn image_is_identical_across_fork_history() {
        // Canonical serialisation must not depend on sharing: a fork that
        // never wrote produces a byte-identical image.
        let pager = MemPager::new(128);
        for i in 0..5u8 {
            let id = pager.alloc();
            pager.write(id, &[i; 128]);
        }
        pager.free(PageId(2));
        let fork = pager.fork();
        assert_eq!(pager.image(), fork.image());
    }
}
