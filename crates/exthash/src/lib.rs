//! # pv-exthash — extendible hashing on the simulated paged disk
//!
//! The PV-index stores its *secondary index* — object id → (UBR, uncertainty
//! region, pdf descriptor) — in "an extensible hash table" kept on disk
//! (§VI-A of the paper; reference \[41\]). This crate implements classic
//! extendible hashing (Fagin et al.):
//!
//! * an in-memory **directory** of `2^global_depth` bucket pointers,
//! * disk-resident **buckets**, one page each, with a local depth;
//!   splitting a full bucket either halves its directory range or doubles
//!   the directory,
//! * values larger than one page spill into **overflow chains** built from
//!   [`pv_storage::PageList`] pages (needed for pdf payloads).
//!
//! Keys are `u64` object ids; the hash is a Fibonacci multiplicative mix so
//! sequential ids spread uniformly over buckets.

//! ```
//! use pv_exthash::ExtHash;
//! use pv_storage::MemPager;
//!
//! let mut table = ExtHash::new(MemPager::new(4096));
//! table.put(7, b"payload");
//! assert_eq!(table.get(7).unwrap(), b"payload");
//! assert!(table.remove(7));
//! assert!(table.is_empty());
//! ```

#![deny(missing_docs)]

use pv_storage::{codec, IoStats, PageId, Pager};
use std::collections::HashMap;

/// Bucket page layout:
/// `[local_depth: u16 | count: u16 | record*]` where
/// `record = key: u64 | inline_len: u32 | overflow_head: u64 | bytes`.
const BUCKET_HDR: usize = 4;
const REC_FIXED: usize = 8 + 4 + 8;

/// Statistics describing hash-table shape; useful for space accounting
/// (the paper reports the PV-index's small spatial requirements vs UV).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtHashStats {
    /// Current directory size (`2^global_depth`).
    pub directory_size: usize,
    /// Number of distinct buckets.
    pub buckets: usize,
    /// Total stored key/value pairs.
    pub entries: usize,
    /// Number of values spilled to overflow chains.
    pub overflow_values: usize,
}

/// An extendible hash table mapping `u64` keys to byte-string values.
pub struct ExtHash<P: Pager> {
    pager: P,
    directory: Vec<PageId>,
    global_depth: u32,
    entries: usize,
    overflow_values: usize,
    /// Cached per-bucket entry counts (refreshed on every write); avoids
    /// re-reading pages for statistics.
    len_cache: HashMap<PageId, usize>,
}

impl<P: Pager> std::fmt::Debug for ExtHash<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExtHash")
            .field("global_depth", &self.global_depth)
            .field("entries", &self.entries)
            .finish_non_exhaustive()
    }
}

#[inline]
fn hash_key(key: u64) -> u64 {
    // Fibonacci hashing: multiply by 2^64 / phi and mix high bits down.
    let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^ (h >> 32)
}

struct Record {
    key: u64,
    inline: Vec<u8>,
    overflow: PageId,
}

impl<P: Pager> ExtHash<P> {
    /// Creates an empty table with a directory of two buckets.
    pub fn new(pager: P) -> Self {
        let b0 = Self::alloc_bucket(&pager, 1);
        let b1 = Self::alloc_bucket(&pager, 1);
        let mut len_cache = HashMap::new();
        len_cache.insert(b0, 0);
        len_cache.insert(b1, 0);
        Self {
            pager,
            directory: vec![b0, b1],
            global_depth: 1,
            entries: 0,
            overflow_values: 0,
            len_cache,
        }
    }

    fn alloc_bucket(pager: &P, local_depth: u16) -> PageId {
        let id = pager.alloc();
        let mut page = vec![0u8; pager.page_size()];
        page[0..2].copy_from_slice(&local_depth.to_le_bytes());
        page[2..4].copy_from_slice(&0u16.to_le_bytes());
        pager.write(id, &page);
        id
    }

    /// Forks the table onto `pager` — typically a copy-on-write fork of
    /// this table's device (see [`pv_storage::MemPager::fork`]). Bucket and
    /// overflow pages stay physically shared until one side writes them;
    /// only the in-memory directory, counters and length cache are copied,
    /// so a fork costs O(directory) pointer copies, not O(table).
    pub fn fork(&self, pager: P) -> Self {
        Self {
            pager,
            directory: self.directory.clone(),
            global_depth: self.global_depth,
            entries: self.entries,
            overflow_values: self.overflow_values,
            len_cache: self.len_cache.clone(),
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// True when the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// I/O statistics of the underlying pager (shared with other structures
    /// living on the same simulated disk).
    pub fn io_stats(&self) -> &IoStats {
        self.pager.stats()
    }

    /// Shape statistics.
    pub fn stats(&self) -> ExtHashStats {
        let mut distinct: Vec<PageId> = self.directory.clone();
        distinct.sort_unstable();
        distinct.dedup();
        ExtHashStats {
            directory_size: self.directory.len(),
            buckets: distinct.len(),
            entries: self.entries,
            overflow_values: self.overflow_values,
        }
    }

    #[inline]
    fn bucket_of(&self, key: u64) -> PageId {
        let idx = (hash_key(key) & ((1u64 << self.global_depth) - 1)) as usize;
        // pv-lint: allow(hot-path-no-panic, reason = "idx is masked to global_depth bits and the directory is 2^global_depth entries by construction (doubling keeps them in lockstep)")
        self.directory[idx]
    }

    /// Parses a bucket page. Total like [`ExtHash::get_into`]: a page
    /// shorter than its own record count claims (corruption) yields the
    /// records that fit; well-formed pages take the same byte offsets.
    fn parse_bucket(page: &[u8]) -> (u16, Vec<Record>) {
        let local_depth = u16::from_le_bytes([page[0], page[1]]);
        let count = u16::from_le_bytes([page[2], page[3]]) as usize;
        let mut r = codec::Reader::new(page.get(BUCKET_HDR..).unwrap_or_default());
        let mut next = || -> Result<Record, codec::DecodeError> {
            let key = r.try_u64()?;
            let inline_len = r.try_u32()? as usize;
            let overflow = PageId(r.try_u64()?);
            let inline = r.try_take(inline_len)?;
            Ok(Record {
                key,
                inline,
                overflow,
            })
        };
        let mut records = Vec::with_capacity(count);
        records.extend((0..count).map_while(|_| next().ok()));
        (local_depth, records)
    }

    /// Writes a bucket page, encoding the records straight into the page
    /// buffer; the unused tail is zero.
    fn write_bucket(&self, id: PageId, local_depth: u16, records: &[Record]) {
        let page_size = self.pager.page_size();
        let mut page = Vec::with_capacity(page_size);
        codec::put_u16(&mut page, local_depth);
        codec::put_u16(&mut page, records.len() as u16);
        for rec in records {
            codec::put_u64(&mut page, rec.key);
            codec::put_u32(&mut page, rec.inline.len() as u32);
            codec::put_u64(&mut page, rec.overflow.0);
            page.extend_from_slice(&rec.inline);
        }
        assert!(page.len() <= page_size, "bucket records overflow the page");
        page.resize(page_size, 0);
        self.pager.write(id, &page);
    }

    fn bucket_bytes(records: &[Record]) -> usize {
        records.iter().map(|r| REC_FIXED + r.inline.len()).sum()
    }

    /// Bytes of value that can be stored inline in a bucket record. Larger
    /// values spill their tail to an overflow chain. Keeping the inline part
    /// small (a quarter page) bounds the split cascade for skewed sizes.
    fn inline_budget(&self) -> usize {
        (self.pager.page_size() - BUCKET_HDR - REC_FIXED) / 4
    }

    fn store_value(&mut self, value: &[u8]) -> (Vec<u8>, PageId) {
        let budget = self.inline_budget();
        if value.len() <= budget {
            return (value.to_vec(), PageId::NULL);
        }
        self.overflow_values += 1;
        let mut list = pv_storage::PageList::new();
        let chunk = pv_storage::PageList::max_record_len(&self.pager);
        // Append chunks in reverse so head-first reads return them in order.
        let tail = &value[budget..];
        let chunks: Vec<&[u8]> = tail.chunks(chunk).collect();
        for part in chunks.iter().rev() {
            list.append(&self.pager, part);
        }
        (value[..budget].to_vec(), list.head())
    }

    fn load_value(&self, rec: &Record) -> Vec<u8> {
        if rec.overflow.is_null() {
            return rec.inline.clone();
        }
        let list = pv_storage::PageList::from_head(rec.overflow);
        let mut out = rec.inline.clone();
        for part in list.read_all(&self.pager) {
            out.extend_from_slice(&part);
        }
        out
    }

    fn free_overflow(&mut self, rec: &Record) {
        if !rec.overflow.is_null() {
            let mut list = pv_storage::PageList::from_head(rec.overflow);
            list.clear(&self.pager);
            self.overflow_values -= 1;
        }
    }

    /// Inserts or replaces the value under `key`. Returns `true` if the key
    /// already existed (replacement).
    ///
    /// A replacement first removes the old record, exactly as
    /// [`ExtHash::remove`] would, then inserts; either way the key's bucket is
    /// read and parsed once, and again only after a split.
    pub fn put(&mut self, key: u64, value: &[u8]) -> bool {
        let mut bucket = self.bucket_of(key);
        let (mut local_depth, mut records) = Self::parse_bucket(&self.pager.read(bucket));
        let old = records.iter().position(|r| r.key == key);
        if let Some(pos) = old {
            self.remove_record(bucket, local_depth, &mut records, pos);
        }
        let replaced = old.is_some();
        loop {
            let (inline, overflow) = self.store_value(value);
            records.push(Record {
                key,
                inline,
                overflow,
            });
            if Self::bucket_bytes(&records) <= self.pager.page_size() - BUCKET_HDR {
                self.write_bucket(bucket, local_depth, &records);
                self.len_cache.insert(bucket, records.len());
                self.entries += 1;
                return replaced;
            }
            // Bucket full: roll back the tentative record, split, retry.
            let rec = records.pop().expect("just pushed");
            self.free_overflow(&rec);
            self.split_bucket(bucket);
            bucket = self.bucket_of(key);
            (local_depth, records) = Self::parse_bucket(&self.pager.read(bucket));
        }
    }

    /// Splits the given bucket, doubling the directory when its local depth
    /// equals the global depth.
    fn split_bucket(&mut self, bucket: PageId) {
        let page = self.pager.read(bucket);
        let (local_depth, records) = Self::parse_bucket(&page);
        if u32::from(local_depth) == self.global_depth {
            assert!(
                self.global_depth < 32,
                "directory would exceed 2^32 entries; key distribution is degenerate"
            );
            let old = std::mem::take(&mut self.directory);
            self.directory = Vec::with_capacity(old.len() * 2);
            self.directory.extend_from_slice(&old);
            self.directory.extend_from_slice(&old);
            self.global_depth += 1;
        }
        let new_depth = local_depth + 1;
        let sibling = Self::alloc_bucket(&self.pager, new_depth);
        // Partition records by the newly significant hash bit.
        let bit = 1u64 << local_depth;
        let (stay, move_out): (Vec<Record>, Vec<Record>) = records
            .into_iter()
            .partition(|r| hash_key(r.key) & bit == 0);
        self.write_bucket(bucket, new_depth, &stay);
        self.write_bucket(sibling, new_depth, &move_out);
        self.len_cache.insert(bucket, stay.len());
        self.len_cache.insert(sibling, move_out.len());
        // Redirect directory slots: slots pointing at `bucket` whose index
        // has the new bit set now point at the sibling.
        for (idx, slot) in self.directory.iter_mut().enumerate() {
            if *slot == bucket && (idx as u64) & bit != 0 {
                *slot = sibling;
            }
        }
    }

    /// Fetches the value stored under `key`.
    pub fn get(&self, key: u64) -> Option<Vec<u8>> {
        let bucket = self.bucket_of(key);
        let page = self.pager.read(bucket);
        let (_, records) = Self::parse_bucket(&page);
        records
            .iter()
            .find(|r| r.key == key)
            .map(|r| self.load_value(r))
    }

    /// Allocation-free variant of [`ExtHash::get`]: copies the value under
    /// `key` into `out` (cleared first), using `page_buf` as page scratch.
    /// Returns `true` if the key was present. Charges the same page reads as
    /// `get`; at steady state (buffers grown to their working size) it
    /// performs no heap allocation, which is what the PV-index's Step-2
    /// payload path relies on.
    pub fn get_into(&self, key: u64, page_buf: &mut Vec<u8>, out: &mut Vec<u8>) -> bool {
        let bucket = self.bucket_of(key);
        self.pager.read_into(bucket, page_buf);
        // Streaming parse of the bucket page — no `Record` vector. The
        // chunk-splitting form is total: a page shorter than its own record
        // count claims (corruption) parses as "key absent" instead of
        // panicking; well-formed pages take the exact same byte offsets.
        let count = match page_buf.get(..BUCKET_HDR) {
            Some(&[_, _, c0, c1]) => u16::from_le_bytes([c0, c1]) as usize,
            _ => 0,
        };
        let mut rest = page_buf.get(BUCKET_HDR..).unwrap_or_default();
        let mut off = BUCKET_HDR;
        let mut found: Option<(usize, usize, PageId)> = None;
        for _ in 0..count {
            let Some((k8, r)) = rest.split_first_chunk::<8>() else {
                break;
            };
            let Some((l4, r)) = r.split_first_chunk::<4>() else {
                break;
            };
            let Some((o8, r)) = r.split_first_chunk::<8>() else {
                break;
            };
            let k = u64::from_le_bytes(*k8);
            let inline_len = u32::from_le_bytes(*l4) as usize;
            let overflow = PageId(u64::from_le_bytes(*o8));
            let start = off + REC_FIXED;
            if k == key {
                found = Some((start, inline_len, overflow));
                break;
            }
            rest = r.get(inline_len..).unwrap_or_default();
            off = start + inline_len;
        }
        let Some((start, inline_len, overflow)) = found else {
            return false;
        };
        out.clear();
        let Some(inline) = page_buf.get(start..start + inline_len) else {
            return false;
        };
        out.extend_from_slice(inline);
        if !overflow.is_null() {
            // The bucket page content is no longer needed: reuse `page_buf`
            // for the overflow chain pages.
            let list = pv_storage::PageList::from_head(overflow);
            list.for_each_record(&self.pager, page_buf, |part| out.extend_from_slice(part));
        }
        true
    }

    /// Removes `key`, returning `true` if it was present.
    pub fn remove(&mut self, key: u64) -> bool {
        let bucket = self.bucket_of(key);
        let page = self.pager.read(bucket);
        let (local_depth, mut records) = Self::parse_bucket(&page);
        let Some(pos) = records.iter().position(|r| r.key == key) else {
            return false;
        };
        self.remove_record(bucket, local_depth, &mut records, pos);
        true
    }

    /// Drops `records[pos]` from `bucket`'s parsed records: frees its
    /// overflow chain, then writes the bucket back without it.
    fn remove_record(
        &mut self,
        bucket: PageId,
        local_depth: u16,
        records: &mut Vec<Record>,
        pos: usize,
    ) {
        let victim = records.remove(pos);
        self.free_overflow(&victim);
        self.write_bucket(bucket, local_depth, records);
        self.len_cache.insert(bucket, records.len());
        self.entries -= 1;
    }

    /// True if `key` is present (cheaper than `get` for overflowed values).
    pub fn contains(&self, key: u64) -> bool {
        let bucket = self.bucket_of(key);
        let page = self.pager.read(bucket);
        let (_, records) = Self::parse_bucket(&page);
        records.iter().any(|r| r.key == key)
    }

    /// Returns every `(key, value)` pair (reads every bucket once, plus
    /// overflow pages).
    pub fn iter_all(&self) -> Vec<(u64, Vec<u8>)> {
        let mut distinct: Vec<PageId> = self.directory.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let mut out = Vec::with_capacity(self.entries);
        for b in distinct {
            let page = self.pager.read(b);
            let (_, records) = Self::parse_bucket(&page);
            for r in records {
                let v = self.load_value(&r);
                out.push((r.key, v));
            }
        }
        out
    }

    /// Serialises the table's in-memory state — directory, depths and
    /// counters — for an index snapshot. Bucket and overflow *pages* are not
    /// included: they belong to the pager, whose image is snapshotted
    /// separately by the caller.
    pub fn to_snapshot(&self) -> Vec<u8> {
        let mut out = Vec::new();
        codec::put_u32(&mut out, self.global_depth);
        codec::put_u64(&mut out, self.entries as u64);
        codec::put_u64(&mut out, self.overflow_values as u64);
        for slot in &self.directory {
            codec::put_u64(&mut out, slot.0);
        }
        out
    }

    /// Rebuilds a table handle from [`ExtHash::to_snapshot`] bytes over a
    /// pager already holding the corresponding bucket pages.
    ///
    /// # Errors
    /// Truncation and implausible directory shapes are reported as
    /// [`codec::DecodeError`] instead of panicking.
    pub fn from_snapshot(pager: P, buf: &[u8]) -> Result<Self, codec::DecodeError> {
        let mut r = codec::Reader::new(buf);
        let global_depth = r.try_u32()?;
        if global_depth == 0 || global_depth > 32 {
            return Err(codec::DecodeError::Invalid {
                context: "extendible-hash snapshot global depth",
            });
        }
        let entries = r.try_u64()? as usize;
        let overflow_values = r.try_u64()? as usize;
        let dir_len = 1usize << global_depth;
        let mut directory = Vec::with_capacity(dir_len);
        for _ in 0..dir_len {
            let id = PageId(r.try_u64()?);
            if id.is_null() {
                return Err(codec::DecodeError::Invalid {
                    context: "extendible-hash snapshot directory entry",
                });
            }
            directory.push(id);
        }
        // The per-bucket length cache is a write-side optimisation; it
        // repopulates lazily as buckets are touched.
        Ok(Self {
            pager,
            directory,
            global_depth,
            entries,
            overflow_values,
            len_cache: HashMap::new(),
        })
    }

    /// Checks directory/bucket invariants (test helper).
    pub fn check_invariants(&self) {
        assert_eq!(self.directory.len(), 1 << self.global_depth);
        let mut total = 0usize;
        let mut distinct: Vec<PageId> = self.directory.clone();
        distinct.sort_unstable();
        distinct.dedup();
        for b in distinct {
            let page = self.pager.read(b);
            let (local_depth, records) = Self::parse_bucket(&page);
            assert!(u32::from(local_depth) <= self.global_depth);
            // The bucket must be referenced by exactly 2^(global-local) slots.
            let refs = self.directory.iter().filter(|&&s| s == b).count();
            assert_eq!(refs, 1usize << (self.global_depth - u32::from(local_depth)));
            // Every record must hash into this bucket under its local depth.
            let mask = (1u64 << local_depth) - 1;
            let slot_low_bits = self
                .directory
                .iter()
                .position(|&s| s == b)
                .expect("bucket referenced") as u64
                & mask;
            for r in &records {
                assert_eq!(
                    hash_key(r.key) & mask,
                    slot_low_bits,
                    "record hashed into the wrong bucket"
                );
            }
            total += records.len();
        }
        assert_eq!(total, self.entries, "entry count mismatch");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_storage::MemPager;

    fn table(page: usize) -> ExtHash<MemPager> {
        ExtHash::new(MemPager::new(page))
    }

    #[test]
    fn put_get_roundtrip() {
        let mut h = table(256);
        assert!(!h.put(1, b"one"));
        assert!(!h.put(2, b"two"));
        assert_eq!(h.get(1).unwrap(), b"one");
        assert_eq!(h.get(2).unwrap(), b"two");
        assert!(h.get(3).is_none());
        assert_eq!(h.len(), 2);
        h.check_invariants();
    }

    #[test]
    fn get_into_matches_get_including_overflow() {
        let mut h = table(256);
        h.put(1, b"inline value");
        // Larger than the inline budget of a 256-byte page: spills to an
        // overflow chain.
        let big: Vec<u8> = (0..900u32).map(|i| (i % 251) as u8).collect();
        h.put(2, &big);
        let mut page = Vec::new();
        let mut out = Vec::new();
        for key in [1u64, 2] {
            assert!(h.get_into(key, &mut page, &mut out));
            assert_eq!(out, h.get(key).unwrap(), "key {key}");
        }
        assert!(!h.get_into(99, &mut page, &mut out));
        // Same page traffic as `get`.
        let r0 = h.io_stats().snapshot().reads;
        let _ = h.get(2);
        let per_get = h.io_stats().snapshot().reads - r0;
        let r1 = h.io_stats().snapshot().reads;
        h.get_into(2, &mut page, &mut out);
        assert_eq!(h.io_stats().snapshot().reads - r1, per_get);
    }

    #[test]
    fn replace_value() {
        let mut h = table(256);
        h.put(7, b"first");
        assert!(h.put(7, b"second"));
        assert_eq!(h.get(7).unwrap(), b"second");
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn grows_through_many_splits() {
        let mut h = table(256);
        for k in 0..2000u64 {
            h.put(k, format!("value-{k}").as_bytes());
        }
        h.check_invariants();
        assert_eq!(h.len(), 2000);
        assert!(h.stats().buckets > 10, "expected many buckets");
        for k in 0..2000u64 {
            assert_eq!(h.get(k).unwrap(), format!("value-{k}").as_bytes());
        }
    }

    #[test]
    fn put_sequence_is_deterministic_bytes() {
        let items: Vec<(u64, Vec<u8>)> = (0..700u64)
            .map(|k| (k, vec![k as u8; (k as usize * 13) % 900]))
            .collect();
        let fill = |pager: &MemPager| {
            let mut table = ExtHash::new(pager.clone());
            for (k, v) in &items {
                table.put(*k, v);
            }
            table
        };
        let p1 = MemPager::new(256);
        let p2 = MemPager::new(256);
        let a = fill(&p1);
        let b = fill(&p2);
        assert_eq!(p1.image(), p2.image());
        assert_eq!(a.to_snapshot(), b.to_snapshot());
    }

    #[test]
    fn remove_and_reinsert() {
        let mut h = table(256);
        for k in 0..500u64 {
            h.put(k, &k.to_le_bytes());
        }
        for k in (0..500u64).step_by(2) {
            assert!(h.remove(k));
        }
        assert!(!h.remove(0));
        assert_eq!(h.len(), 250);
        h.check_invariants();
        for k in 0..500u64 {
            assert_eq!(h.get(k).is_some(), k % 2 == 1);
        }
        for k in (0..500u64).step_by(2) {
            h.put(k, b"back");
        }
        assert_eq!(h.len(), 500);
        h.check_invariants();
    }

    #[test]
    fn large_values_use_overflow_chains() {
        let mut h = table(256);
        let big = vec![0xABu8; 5000];
        h.put(42, &big);
        assert_eq!(h.stats().overflow_values, 1);
        assert_eq!(h.get(42).unwrap(), big);
        // Replacing with a small value must free the chain.
        h.put(42, b"small");
        assert_eq!(h.stats().overflow_values, 0);
        assert_eq!(h.get(42).unwrap(), b"small");
        h.check_invariants();
    }

    #[test]
    fn overflow_value_removal_frees_pages() {
        let pager = MemPager::new(256);
        let mut h = ExtHash::new(pager.clone());
        let big = vec![1u8; 4000];
        h.put(1, &big);
        let live_with_value = pager.live_pages();
        assert!(h.remove(1));
        assert!(
            pager.live_pages() < live_with_value,
            "overflow pages must be freed"
        );
        h.check_invariants();
    }

    #[test]
    fn mixed_value_sizes() {
        let mut h = table(512);
        for k in 0..200u64 {
            let len = (k as usize * 37) % 2000;
            h.put(k, &vec![k as u8; len]);
        }
        h.check_invariants();
        for k in 0..200u64 {
            let len = (k as usize * 37) % 2000;
            assert_eq!(h.get(k).unwrap(), vec![k as u8; len], "key {k}");
        }
    }

    #[test]
    fn iter_all_returns_everything() {
        let mut h = table(256);
        for k in 0..300u64 {
            h.put(k, &k.to_le_bytes());
        }
        let mut all = h.iter_all();
        all.sort_by_key(|(k, _)| *k);
        assert_eq!(all.len(), 300);
        for (i, (k, v)) in all.iter().enumerate() {
            assert_eq!(*k, i as u64);
            assert_eq!(v, &k.to_le_bytes());
        }
    }

    #[test]
    fn snapshot_roundtrip_preserves_lookups() {
        let pager = MemPager::new(256);
        let mut h = ExtHash::new(pager.clone());
        for k in 0..800u64 {
            h.put(k, format!("value-{k}").as_bytes());
        }
        h.put(900, &vec![7u8; 4000]); // one overflowed value
        let snap = h.to_snapshot();
        let restored = ExtHash::from_snapshot(pager.clone(), &snap).unwrap();
        assert_eq!(restored.len(), h.len());
        assert_eq!(restored.stats(), h.stats());
        restored.check_invariants();
        for k in 0..800u64 {
            assert_eq!(restored.get(k).unwrap(), format!("value-{k}").as_bytes());
        }
        assert_eq!(restored.get(900).unwrap(), vec![7u8; 4000]);
        // corruption surfaces as an error, not a panic
        assert!(ExtHash::<MemPager>::from_snapshot(pager.clone(), &snap[..10]).is_err());
        let mut bad = snap.clone();
        bad[0] = 60; // directory of 2^60 slots
        assert!(ExtHash::<MemPager>::from_snapshot(pager, &bad).is_err());
    }

    #[test]
    fn fork_shares_buckets_and_diverges_on_write() {
        let pager = MemPager::new(256);
        let mut h = ExtHash::new(pager.clone());
        for k in 0..600u64 {
            h.put(k, format!("value-{k}").as_bytes());
        }
        let fork_pager = pager.fork();
        let mut f = h.fork(fork_pager.clone());
        f.check_invariants();

        // Mutate only the fork.
        assert!(f.remove(17));
        f.put(9001, b"fork-only");
        f.put(3, b"rewritten");

        // The original is untouched.
        assert_eq!(h.get(17).unwrap(), b"value-17");
        assert!(h.get(9001).is_none());
        assert_eq!(h.get(3).unwrap(), b"value-3");
        assert_eq!(h.len(), 600);
        h.check_invariants();

        // The fork sees its own writes…
        assert!(f.get(17).is_none());
        assert_eq!(f.get(9001).unwrap(), b"fork-only");
        assert_eq!(f.get(3).unwrap(), b"rewritten");
        f.check_invariants();

        // …and copied only the few bucket pages it touched.
        assert!(
            (fork_pager.cow_copies() as usize) < pager.live_pages() / 4,
            "fork copied {} of {} pages — not structural sharing",
            fork_pager.cow_copies(),
            pager.live_pages()
        );
    }

    #[test]
    fn io_is_counted() {
        let mut h = table(256);
        let s0 = h.io_stats().snapshot();
        h.put(9, b"payload");
        let s1 = h.io_stats().snapshot();
        assert!(s1.since(&s0).total() > 0);
        h.get(9);
        let s2 = h.io_stats().snapshot();
        assert!(s2.since(&s1).reads >= 1);
    }

    #[test]
    fn empty_value_is_storable() {
        let mut h = table(256);
        h.put(5, b"");
        assert_eq!(h.get(5).unwrap(), b"");
        assert!(h.contains(5));
    }

    #[test]
    fn huge_value_replacing_huge_value() {
        let mut h = table(256);
        h.put(3, &vec![1u8; 3000]);
        h.put(3, &vec![2u8; 6000]);
        assert_eq!(h.stats().overflow_values, 1);
        assert_eq!(h.get(3).unwrap(), vec![2u8; 6000]);
    }
}
