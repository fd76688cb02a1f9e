//! Naive linear-scan ground truth for PNNQ Step 1.
//!
//! Under the region-based possible-worlds semantics used by the PV-cell
//! literature, object `o` has a non-zero chance of being the nearest
//! neighbor of `q` iff
//!
//! ```text
//! distmin(o, q) <= min over all o' in S of distmax(o', q)
//! ```
//!
//! (If the inequality holds, a world exists placing `o` at its closest point
//! and everyone else at their farthest.) The scan below is O(|S|) per query
//! and serves as the reference implementation the indexes are validated
//! against, as well as the recall oracle for the UV-index baseline.

use crate::db::{PersistentEngine, WritableEngine};
use crate::error::DbError;
use crate::prob::pdf_payload_pages;
use crate::query::{FetchScratch, ProbNnEngine, Step1Engine};
use crate::stats::{BuildStats, Step1Stats, UpdateStats};
use pv_geom::{max_dist_sq, min_dist_sq, HyperRect, Point};
use pv_storage::codec::{self, DecodeError};
use pv_storage::snapshot::{open_snapshot, SnapshotWriter};
use pv_uncertain::{UncertainDb, UncertainObject};
use std::collections::HashMap;
use std::time::Instant;

/// All objects with a non-zero probability of being `q`'s nearest neighbor.
/// The returned ids are sorted ascending for easy comparison.
pub fn possible_nn<'a>(
    objects: impl IntoIterator<Item = &'a UncertainObject>,
    q: &Point,
) -> Vec<u64> {
    let objects: Vec<&UncertainObject> = objects.into_iter().collect();
    let tau_sq = objects
        .iter()
        .map(|o| max_dist_sq(&o.region, q))
        .fold(f64::INFINITY, f64::min);
    let mut out: Vec<u64> = objects
        .iter()
        .filter(|o| min_dist_sq(&o.region, q) <= tau_sq)
        .map(|o| o.id)
        .collect();
    out.sort_unstable();
    out
}

/// The naive linear scan packaged as a query engine: the ground-truth
/// implementation of the [`Step1Engine`]/[`ProbNnEngine`] traits.
///
/// Step 1 is [`possible_nn`] (exact, zero index I/O); Step 2 runs through
/// the shared trait pipeline with the same pdf-payload I/O accounting as the
/// R-tree baseline, so every engine's answers — and the answer-semantics
/// laws (threshold subsets, top-k prefixes) — can be validated against it.
#[derive(Debug, Clone)]
pub struct LinearScan {
    objects: Vec<UncertainObject>,
    by_id: HashMap<u64, usize>,
    page_size: usize,
    domain: HyperRect,
}

impl LinearScan {
    /// Wraps a database with the default 4 KiB page size.
    pub fn new(db: &UncertainDb) -> Self {
        Self::with_page_size(db, 4096)
    }

    /// Wraps a database, charging pdf payloads at the given page size.
    pub fn with_page_size(db: &UncertainDb, page_size: usize) -> Self {
        let objects = db.objects.clone();
        let by_id = objects.iter().enumerate().map(|(i, o)| (o.id, i)).collect();
        Self {
            objects,
            by_id,
            page_size,
            domain: db.domain.clone(),
        }
    }

    /// Number of objects scanned per query.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True when the database is empty.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// The domain the wrapped database covers.
    pub fn domain(&self) -> &HyperRect {
        &self.domain
    }

    /// The scanned objects. Construction order until the first
    /// [`WritableEngine::apply_remove`], which swap-removes and therefore
    /// reorders; treat the order as arbitrary on a mutated scan.
    pub fn objects(&self) -> &[UncertainObject] {
        &self.objects
    }

    fn object(&self, id: u64) -> &UncertainObject {
        &self.objects[self.by_id[&id]]
    }
}

impl Step1Engine for LinearScan {
    fn engine_name(&self) -> &'static str {
        "linear-scan"
    }

    fn dim(&self) -> usize {
        self.domain.dim()
    }

    fn len(&self) -> usize {
        self.objects.len()
    }

    /// Allocation-free scan: same two passes as [`possible_nn`] (threshold
    /// fold, then filter), writing into the reused `ids` buffer.
    fn step1_into(&self, q: &Point, ids: &mut Vec<u64>, _scratch: &mut FetchScratch) -> Step1Stats {
        let t0 = Instant::now();
        let tau_sq = self
            .objects
            .iter()
            .map(|o| max_dist_sq(&o.region, q))
            .fold(f64::INFINITY, f64::min);
        ids.clear();
        ids.extend(
            self.objects
                .iter()
                .filter(|o| min_dist_sq(&o.region, q) <= tau_sq)
                .map(|o| o.id),
        );
        ids.sort_unstable();
        Step1Stats {
            time: t0.elapsed(),
            io_reads: 0,
            candidates: ids.len(),
            answers: ids.len(),
        }
    }
}

impl ProbNnEngine for LinearScan {
    fn candidate_region(&self, id: u64) -> &HyperRect {
        &self.object(id).region
    }

    /// Serves distances straight from the in-memory catalog — no clone.
    fn fetch_dists_sq(
        &self,
        id: u64,
        q: &Point,
        out: &mut Vec<f64>,
        scratch: &mut FetchScratch,
    ) -> u64 {
        let o = self.object(id);
        o.dists_sq_into(q, &mut scratch.samples, out);
        pdf_payload_pages(o, self.page_size)
    }
}

/// The scan has no index to maintain, so updates are trivial — which makes
/// it the ideal ground-truth engine for the [`crate::db`] concurrency
/// stress tests: every published snapshot can be re-derived exactly from
/// the operation prefix it reflects.
impl WritableEngine for LinearScan {
    fn fork(&self) -> Self {
        self.clone()
    }

    fn apply_insert(&mut self, o: UncertainObject) -> Result<UpdateStats, DbError> {
        let t0 = Instant::now();
        if self.by_id.contains_key(&o.id) {
            return Err(DbError::DuplicateId(o.id));
        }
        if !self.domain.contains_rect(&o.region) {
            return Err(DbError::OutOfDomain(o.id));
        }
        self.by_id.insert(o.id, self.objects.len());
        self.objects.push(o);
        Ok(UpdateStats {
            time: t0.elapsed(),
            ..Default::default()
        })
    }

    fn apply_remove(&mut self, id: u64) -> Result<UpdateStats, DbError> {
        let t0 = Instant::now();
        let idx = *self.by_id.get(&id).ok_or(DbError::UnknownId(id))?;
        self.objects.swap_remove(idx);
        self.by_id.remove(&id);
        if idx < self.objects.len() {
            self.by_id.insert(self.objects[idx].id, idx);
        }
        Ok(UpdateStats {
            time: t0.elapsed(),
            ..Default::default()
        })
    }

    /// Nothing derived to rebuild: the successor is a copy of the catalog.
    fn rebuilt(&self) -> (Self, BuildStats) {
        let t0 = Instant::now();
        let fresh = self.clone();
        let stats = BuildStats {
            total_time: t0.elapsed(),
            ubr_count: fresh.objects.len(),
            ..Default::default()
        };
        (fresh, stats)
    }
}

/// Snapshot envelope kind for a serialised [`LinearScan`].
const LINEAR_SCAN_KIND: [u8; 4] = *b"PVLS";
/// Format version of the [`LinearScan`] snapshot payload.
const LINEAR_SCAN_VERSION: u16 = 1;

/// The scan *is* its object catalog, so its snapshot is just that catalog
/// (ascending-id for deterministic bytes) plus the domain and page size —
/// which makes `LinearScan` a full [`PersistentEngine`] and therefore
/// usable as the ground-truth engine under
/// [`DurableDb`](crate::durable::DurableDb) in the crash-consistency
/// torture tests.
impl PersistentEngine for LinearScan {
    fn snapshot_bytes(&self) -> std::io::Result<Vec<u8>> {
        let mut w = SnapshotWriter::new(LINEAR_SCAN_KIND, LINEAR_SCAN_VERSION);
        let out = w.buf();
        codec::put_u32_len(out, self.domain.dim());
        crate::snapshot::put_rect(out, &self.domain);
        codec::put_u32_len(out, self.page_size);
        let mut ids: Vec<u64> = self.by_id.keys().copied().collect();
        ids.sort_unstable();
        codec::put_u64(out, ids.len() as u64);
        for id in &ids {
            codec::put_bytes(out, &self.object(*id).encode());
        }
        Ok(w.finish())
    }

    fn from_snapshot_bytes(bytes: &[u8]) -> std::io::Result<Self> {
        let decode = |bytes: &[u8]| -> Result<Self, DecodeError> {
            let (mut r, _) = open_snapshot(
                bytes,
                LINEAR_SCAN_KIND,
                "linear-scan snapshot",
                LINEAR_SCAN_VERSION,
            )?;
            let dim = r.try_u32()? as usize;
            if dim == 0 || dim > 64 {
                return Err(DecodeError::Invalid {
                    context: "linear-scan snapshot dimensionality",
                });
            }
            let domain = crate::snapshot::try_rect(&mut r, dim)?;
            let page_size = r.try_u32()? as usize;
            let n = r.try_u64()? as usize;
            let mut objects = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                let rec = r.try_bytes()?;
                objects.push(UncertainObject::try_decode(&rec)?);
            }
            let by_id = objects.iter().enumerate().map(|(i, o)| (o.id, i)).collect();
            Ok(Self {
                objects,
                by_id,
                page_size,
                domain,
            })
        };
        decode(bytes).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QuerySpec;

    fn mk(id: u64, lo: &[f64], hi: &[f64]) -> UncertainObject {
        UncertainObject::uniform(id, HyperRect::new(lo.to_vec(), hi.to_vec()), 4)
    }

    #[test]
    fn obvious_nearest_wins_alone() {
        let objs = [
            mk(1, &[1.0, 1.0], &[2.0, 2.0]),
            mk(2, &[50.0, 50.0], &[51.0, 51.0]),
        ];
        let q = Point::new(vec![0.0, 0.0]);
        assert_eq!(possible_nn(objs.iter(), &q), vec![1]);
    }

    #[test]
    fn overlapping_regions_are_both_possible() {
        let objs = [
            mk(1, &[1.0, 0.0], &[4.0, 1.0]),
            mk(2, &[2.0, 0.0], &[5.0, 1.0]),
        ];
        let q = Point::new(vec![0.0, 0.5]);
        assert_eq!(possible_nn(objs.iter(), &q), vec![1, 2]);
    }

    #[test]
    fn the_minmax_object_is_always_possible() {
        // Whoever minimises distmax can always be the NN.
        let objs = [
            mk(1, &[1.0], &[9.0]), // wide region
            mk(2, &[4.0], &[5.0]), // small region with smallest maxdist
            mk(3, &[20.0], &[21.0]),
        ];
        let q = Point::new(vec![4.5]);
        let ids = possible_nn(objs.iter(), &q);
        assert!(ids.contains(&2));
        assert!(!ids.contains(&3));
    }

    #[test]
    fn query_inside_a_region_keeps_that_object() {
        let objs = [
            mk(1, &[0.0, 0.0], &[10.0, 10.0]),
            mk(2, &[4.0, 4.0], &[5.0, 5.0]),
        ];
        let q = Point::new(vec![4.5, 4.5]); // inside both
        let ids = possible_nn(objs.iter(), &q);
        assert_eq!(ids, vec![1, 2]);
    }

    #[test]
    fn linear_scan_engine_matches_the_free_function() {
        let domain = HyperRect::new(vec![0.0, 0.0], vec![100.0, 100.0]);
        let objs = vec![
            mk(1, &[1.0, 1.0], &[2.0, 2.0]),
            mk(2, &[3.0, 0.0], &[5.0, 2.0]),
            mk(3, &[50.0, 50.0], &[51.0, 51.0]),
        ];
        let db = UncertainDb::new(domain, objs.clone());
        let scan = LinearScan::new(&db);
        assert_eq!(scan.engine_name(), "linear-scan");
        assert_eq!(scan.len(), 3);
        let q = Point::new(vec![0.0, 0.0]);
        let (ids, stats) = scan.step1(&q);
        assert_eq!(ids, possible_nn(objs.iter(), &q));
        assert_eq!(stats.io_reads, 0, "the scan charges no index I/O");
        let out = scan.execute(&q, &QuerySpec::new()).unwrap();
        assert_eq!(out.candidates, ids);
        let total: f64 = out.answers.iter().map(|&(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // step 2 charges pdf payload pages like the R-tree baseline
        assert!(out.stats.pc_io_reads >= out.answers.len() as u64);
    }

    #[test]
    fn updates_keep_the_scan_exact() {
        let domain = HyperRect::new(vec![0.0, 0.0], vec![100.0, 100.0]);
        let db = UncertainDb::new(domain, vec![mk(1, &[1.0, 1.0], &[2.0, 2.0])]);
        let mut scan = LinearScan::new(&db);
        scan.apply_insert(mk(2, &[3.0, 3.0], &[4.0, 4.0])).unwrap();
        scan.apply_insert(mk(3, &[90.0, 90.0], &[91.0, 91.0]))
            .unwrap();
        assert!(matches!(
            scan.apply_insert(mk(2, &[5.0, 5.0], &[6.0, 6.0])),
            Err(DbError::DuplicateId(2))
        ));
        assert!(matches!(
            scan.apply_insert(mk(9, &[99.0, 99.0], &[101.0, 101.0])),
            Err(DbError::OutOfDomain(9))
        ));
        scan.apply_remove(1).unwrap();
        assert!(matches!(scan.apply_remove(1), Err(DbError::UnknownId(1))));
        let q = Point::new(vec![0.0, 0.0]);
        let (ids, _) = scan.step1(&q);
        assert_eq!(ids, possible_nn(scan.objects().iter(), &q));
        assert_eq!(scan.len(), 2);
        // fork is fully independent
        let fork = scan.fork();
        scan.apply_remove(2).unwrap();
        assert_eq!(fork.len(), 2);
        assert_eq!(scan.len(), 1);
    }
}
