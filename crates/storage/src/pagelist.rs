//! Chained page lists: the on-disk layout of octree leaf nodes.
//!
//! §VI-A of the paper stores each primary-index leaf as "a linked list of
//! disk pages", with new pages attached to the *head* of the list when the
//! first page overflows and no main memory is left for a node split.
//!
//! Page layout:
//!
//! ```text
//! [ next_page: u64 | used: u16 | record*, ... ]     record = len: u16 | bytes
//! ```
//!
//! Records never span pages; a record larger than the page payload capacity
//! is rejected (callers split their payloads, e.g. via overflow chains in
//! `pv-exthash`).

use crate::pager::{PageId, Pager};

const HDR: usize = 8 + 2; // next pointer + used counter
const REC_HDR: usize = 2; // per-record length prefix

/// The next-page link opening a chain page's header. A page too short to
/// hold one (no writer produces it) ends the chain.
fn next_link(page: &[u8]) -> PageId {
    page.first_chunk()
        .map_or(PageId::NULL, |b| PageId(u64::from_le_bytes(*b)))
}

/// Aggregate information about a [`PageList`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PageListStats {
    /// Number of pages in the chain.
    pub pages: usize,
    /// Number of records stored.
    pub records: usize,
    /// Payload bytes in use (excluding headers).
    pub used_bytes: usize,
}

/// A linked list of disk pages holding variable-size records.
///
/// The list itself is a tiny in-memory handle (head page id); all record data
/// lives on the simulated disk and every operation reports its page accesses
/// through the pager's [`crate::IoStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageList {
    head: PageId,
}

impl Default for PageList {
    fn default() -> Self {
        Self::new()
    }
}

impl PageList {
    /// Creates an empty list (no pages allocated yet).
    pub fn new() -> Self {
        Self { head: PageId::NULL }
    }

    /// Restores a handle from a stored head page id.
    pub fn from_head(head: PageId) -> Self {
        Self { head }
    }

    /// Head page id (NULL when empty); persisted by the octree.
    pub fn head(&self) -> PageId {
        self.head
    }

    /// True if no page has been allocated.
    pub fn is_empty(&self) -> bool {
        self.head.is_null()
    }

    /// Maximum record payload a single page can hold.
    pub fn max_record_len(pager: &dyn Pager) -> usize {
        pager.page_size() - HDR - REC_HDR
    }

    /// Payload capacity of one page (page size minus the chain header); a
    /// record occupies [`PageList::RECORD_OVERHEAD`]` + len` of it. Exposed
    /// so bulk loaders can predict `append`'s first-fit grouping without
    /// touching pages.
    pub fn page_payload(pager: &dyn Pager) -> usize {
        pager.page_size() - HDR
    }

    /// Framing bytes each record adds on top of its payload length.
    pub const RECORD_OVERHEAD: usize = REC_HDR;

    /// Appends a record.
    ///
    /// Follows the paper's policy: try the head page; if it cannot fit the
    /// record, allocate a new page and attach it at the head of the chain.
    /// Returns `true` if a new page was allocated.
    pub fn append(&mut self, pager: &dyn Pager, record: &[u8]) -> bool {
        assert!(
            record.len() <= Self::max_record_len(pager),
            "record of {} bytes exceeds page capacity {}",
            record.len(),
            Self::max_record_len(pager)
        );
        if !self.head.is_null() {
            let mut page = pager.read(self.head);
            let used = u16::from_le_bytes([page[8], page[9]]) as usize;
            let free = pager.page_size() - HDR - used;
            if REC_HDR + record.len() <= free {
                let off = HDR + used;
                page[off..off + 2].copy_from_slice(&(record.len() as u16).to_le_bytes());
                page[off + 2..off + 2 + record.len()].copy_from_slice(record);
                let new_used = (used + REC_HDR + record.len()) as u16;
                page[8..10].copy_from_slice(&new_used.to_le_bytes());
                pager.write(self.head, &page);
                return false;
            }
        }
        // Allocate a fresh head page.
        let id = pager.alloc();
        let mut page = vec![0u8; pager.page_size()];
        page[0..8].copy_from_slice(&self.head.0.to_le_bytes());
        let used = (REC_HDR + record.len()) as u16;
        page[8..10].copy_from_slice(&used.to_le_bytes());
        page[HDR..HDR + 2].copy_from_slice(&(record.len() as u16).to_le_bytes());
        page[HDR + 2..HDR + 2 + record.len()].copy_from_slice(record);
        pager.write(id, &page);
        self.head = id;
        true
    }

    /// Builds a fresh chain holding `records` (in append order) with a
    /// single write per page.
    ///
    /// The layout is byte-identical to `append`ing the same records one at a
    /// time to an empty list: identical first-fit grouping, identical page
    /// headers, identical newest-page-at-head chaining, and pages allocated
    /// in the same (chronological) order. The difference is purely the write
    /// pattern — O(pages) writes instead of O(records) read-modify-write
    /// cycles — which is what the octree bulk loader leans on.
    pub fn build_from_records<'a>(
        pager: &dyn Pager,
        records: impl IntoIterator<Item = &'a [u8]>,
    ) -> Self {
        let page_size = pager.page_size();
        let mut cur = PageId::NULL;
        let mut page = vec![0u8; page_size];
        let mut used = 0usize;
        for record in records {
            assert!(
                record.len() <= Self::max_record_len(pager),
                "record of {} bytes exceeds page capacity {}",
                record.len(),
                Self::max_record_len(pager)
            );
            if cur.is_null() || REC_HDR + record.len() > page_size - HDR - used {
                if !cur.is_null() {
                    pager.write(cur, &page);
                }
                let prev = cur;
                cur = pager.alloc();
                page.iter_mut().for_each(|b| *b = 0);
                page[0..8].copy_from_slice(&prev.0.to_le_bytes());
                used = 0;
            }
            let off = HDR + used;
            page[off..off + 2].copy_from_slice(&(record.len() as u16).to_le_bytes());
            page[off + 2..off + 2 + record.len()].copy_from_slice(record);
            used += REC_HDR + record.len();
            page[8..10].copy_from_slice(&(used as u16).to_le_bytes());
        }
        if !cur.is_null() {
            pager.write(cur, &page);
        }
        Self { head: cur }
    }

    /// Reads every record in the chain (head page first). Each page in the
    /// chain costs one read.
    pub fn read_all(&self, pager: &dyn Pager) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        let mut cur = self.head;
        while !cur.is_null() {
            let page = pager.read(cur);
            let next = next_link(&page);
            let used = u16::from_le_bytes([page[8], page[9]]) as usize;
            let mut off = HDR;
            while off < HDR + used {
                let len = u16::from_le_bytes([page[off], page[off + 1]]) as usize;
                out.push(page[off + 2..off + 2 + len].to_vec());
                off += REC_HDR + len;
            }
            cur = next;
        }
        out
    }

    /// Visits every record in the chain (head page first) without allocating:
    /// pages are read into `page_buf` (reused between pages and calls) and
    /// each record is handed to `sink` as a borrowed slice. Same traversal
    /// order and I/O charging as [`PageList::read_all`].
    pub fn for_each_record(
        &self,
        pager: &dyn Pager,
        page_buf: &mut Vec<u8>,
        mut sink: impl FnMut(&[u8]),
    ) {
        let mut cur = self.head;
        while !cur.is_null() {
            pager.read_into(cur, page_buf);
            let page = &page_buf[..];
            let next = next_link(page);
            let used = u16::from_le_bytes([page[8], page[9]]) as usize;
            let mut off = HDR;
            while off < HDR + used {
                let len = u16::from_le_bytes([page[off], page[off + 1]]) as usize;
                sink(&page[off + 2..off + 2 + len]);
                off += REC_HDR + len;
            }
            cur = next;
        }
    }

    /// Rewrites the list keeping only records for which `keep` returns true.
    /// Returns the number of records removed. Pages made empty are freed.
    pub fn retain(&mut self, pager: &dyn Pager, mut keep: impl FnMut(&[u8]) -> bool) -> usize {
        let records = self.read_all(pager);
        let (kept, dropped): (Vec<_>, Vec<_>) = records.into_iter().partition(|r| keep(r));
        if dropped.is_empty() {
            return 0;
        }
        self.clear(pager);
        for r in &kept {
            self.append(pager, r);
        }
        dropped.len()
    }

    /// Frees every page of the chain.
    pub fn clear(&mut self, pager: &dyn Pager) {
        let mut cur = self.head;
        while !cur.is_null() {
            let page = pager.read(cur);
            let next = next_link(&page);
            pager.free(cur);
            cur = next;
        }
        self.head = PageId::NULL;
    }

    /// Chain statistics (costs one read per page).
    pub fn stats(&self, pager: &dyn Pager) -> PageListStats {
        let mut st = PageListStats::default();
        let mut cur = self.head;
        while !cur.is_null() {
            let page = pager.read(cur);
            let next = next_link(&page);
            let used = u16::from_le_bytes([page[8], page[9]]) as usize;
            st.pages += 1;
            st.used_bytes += used;
            let mut off = HDR;
            while off < HDR + used {
                let len = u16::from_le_bytes([page[off], page[off + 1]]) as usize;
                st.records += 1;
                off += REC_HDR + len;
            }
            cur = next;
        }
        st
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::MemPager;

    #[test]
    fn append_and_read_single_page() {
        let pager = MemPager::new(128);
        let mut list = PageList::new();
        assert!(list.is_empty());
        assert!(list.append(&pager, b"alpha")); // first append allocates
        assert!(!list.append(&pager, b"beta")); // fits in the same page
        assert_eq!(
            list.read_all(&pager),
            vec![b"alpha".to_vec(), b"beta".to_vec()]
        );
        assert_eq!(list.stats(&pager).pages, 1);
        assert_eq!(list.stats(&pager).records, 2);
    }

    #[test]
    fn for_each_record_matches_read_all() {
        let pager = MemPager::new(64);
        let mut list = PageList::new();
        for i in 0..12u8 {
            list.append(&pager, &[i; 17]);
        }
        let mut streamed: Vec<Vec<u8>> = Vec::new();
        let mut buf = Vec::new();
        list.for_each_record(&pager, &mut buf, |rec| streamed.push(rec.to_vec()));
        assert_eq!(streamed, list.read_all(&pager));
    }

    #[test]
    fn build_from_records_matches_append_bytes() {
        // Same records through `append` and `build_from_records` on twin
        // pagers: the resulting disk images must be byte-identical.
        for (page_size, lens) in [
            (64usize, vec![17usize; 12]),
            (128, vec![5, 40, 40, 40, 3, 90, 1]),
            (128, vec![]),
            (256, vec![100; 7]),
        ] {
            let by_append = MemPager::new(page_size);
            let bulk = MemPager::new(page_size);
            let records: Vec<Vec<u8>> = lens
                .iter()
                .enumerate()
                .map(|(i, &l)| vec![i as u8 + 1; l])
                .collect();
            let mut a = PageList::new();
            for r in &records {
                a.append(&by_append, r);
            }
            let b = PageList::build_from_records(&bulk, records.iter().map(Vec::as_slice));
            assert_eq!(a.head(), b.head(), "page_size {page_size}");
            assert_eq!(by_append.image(), bulk.image(), "page_size {page_size}");
            assert_eq!(b.read_all(&bulk), a.read_all(&by_append));
        }
    }

    #[test]
    fn build_from_records_write_count_is_pages() {
        let pager = MemPager::new(64);
        let records: Vec<Vec<u8>> = (0..12u8).map(|i| vec![i; 17]).collect();
        let w0 = pager.stats().snapshot().writes;
        let list = PageList::build_from_records(&pager, records.iter().map(Vec::as_slice));
        let writes = pager.stats().snapshot().writes - w0;
        assert_eq!(writes, list.stats(&pager).pages as u64);
    }

    #[test]
    fn overflow_chains_new_head() {
        let pager = MemPager::new(64); // tiny pages: payload = 64-10-2 = 52
        let mut list = PageList::new();
        let rec = vec![7u8; 30];
        list.append(&pager, &rec);
        let grew = list.append(&pager, &rec); // 2nd record of 32 bytes won't fit
        assert!(grew, "expected a second page");
        assert_eq!(list.stats(&pager).pages, 2);
        // newest record is on the head page, so it comes back first
        assert_eq!(list.read_all(&pager).len(), 2);
    }

    #[test]
    fn retain_filters_and_compacts() {
        let pager = MemPager::new(64);
        let mut list = PageList::new();
        for i in 0..10u8 {
            list.append(&pager, &[i; 20]);
        }
        let removed = list.retain(&pager, |r| r[0] % 2 == 0);
        assert_eq!(removed, 5);
        let rest = list.read_all(&pager);
        assert_eq!(rest.len(), 5);
        assert!(rest.iter().all(|r| r[0] % 2 == 0));
    }

    #[test]
    fn retain_noop_costs_no_rewrite() {
        let pager = MemPager::new(128);
        let mut list = PageList::new();
        list.append(&pager, b"stay");
        let w0 = pager.stats().snapshot().writes;
        assert_eq!(list.retain(&pager, |_| true), 0);
        assert_eq!(pager.stats().snapshot().writes, w0);
    }

    #[test]
    fn clear_frees_all_pages() {
        let pager = MemPager::new(64);
        let mut list = PageList::new();
        for i in 0..10u8 {
            list.append(&pager, &[i; 20]);
        }
        let pages = list.stats(&pager).pages as u64;
        assert!(pages > 1);
        list.clear(&pager);
        assert!(list.is_empty());
        assert_eq!(pager.stats().snapshot().frees, pages);
        assert_eq!(pager.live_pages(), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds page capacity")]
    fn oversized_record_panics() {
        let pager = MemPager::new(64);
        let mut list = PageList::new();
        list.append(&pager, &[0u8; 60]);
    }

    #[test]
    fn persists_via_head_id() {
        let pager = MemPager::new(128);
        let mut list = PageList::new();
        list.append(&pager, b"persisted");
        let head = list.head();
        let restored = PageList::from_head(head);
        assert_eq!(restored.read_all(&pager), vec![b"persisted".to_vec()]);
    }
}
