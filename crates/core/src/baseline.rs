//! The R-tree branch-and-prune baseline for PNNQ Step 1.
//!
//! This is the competitor of every Fig. 9 experiment: an R*-tree over the
//! objects' uncertainty regions, queried best-first by `distmin` while a
//! running threshold `τ = min distmax(u(o), q)` prunes subtrees and objects
//! (the approach of the paper's reference \[8\]). Leaf-node visits are
//! charged as disk I/O, matching the paper's storage model (non-leaf nodes
//! live in a main-memory budget, leaves on disk).

use crate::db::{PersistentEngine, WritableEngine};
use crate::error::DbError;
use crate::prob::pdf_payload_pages;
use crate::query::{FetchScratch, ProbNnEngine, Step1Engine};
use crate::stats::{BuildStats, Step1Stats, UpdateStats};
use pv_geom::{max_dist_sq, HyperRect, Point};
use pv_rtree::{Entry, RTree, RTreeParams};
use pv_uncertain::{UncertainDb, UncertainObject};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// R-tree based PNNQ evaluator (the paper's "R-tree" competitor).
pub struct RTreeBaseline {
    pub(crate) tree: RTree,
    pub(crate) objects: HashMap<u64, UncertainObject>,
    pub(crate) page_size: usize,
    pub(crate) fanout: usize,
    pub(crate) domain: HyperRect,
}

impl std::fmt::Debug for RTreeBaseline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RTreeBaseline")
            .field("objects", &self.objects.len())
            .field("fanout", &self.fanout)
            .field("page_size", &self.page_size)
            .finish_non_exhaustive()
    }
}

impl RTreeBaseline {
    /// Bulk-loads the R*-tree over the database's uncertainty regions.
    pub fn build(db: &UncertainDb, fanout: usize, page_size: usize) -> Self {
        let entries: Vec<Entry> = db
            .objects
            .iter()
            .map(|o| Entry {
                rect: o.region.clone(),
                id: o.id,
            })
            .collect();
        let tree = RTree::bulk_load(db.dim(), RTreeParams::with_fanout(fanout), entries);
        let objects = db.objects.iter().map(|o| (o.id, o.clone())).collect();
        Self {
            tree,
            objects,
            page_size,
            fanout,
            domain: db.domain.clone(),
        }
    }

    /// The domain the indexed database covers.
    pub fn domain(&self) -> &HyperRect {
        &self.domain
    }

    /// Serialises the baseline into a snapshot file at `path`; the object
    /// catalog is stored and the (cheap, deterministic) bulk load re-runs on
    /// [`RTreeBaseline::load`]. See [`crate::snapshot`] for the format.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, crate::snapshot::rtree_baseline_to_bytes(self))
    }

    /// Loads a baseline saved with [`RTreeBaseline::save`].
    ///
    /// # Errors
    /// I/O errors pass through; corruption and version skew yield an
    /// [`std::io::ErrorKind::InvalidData`] error wrapping the precise
    /// [`pv_storage::codec::DecodeError`].
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let bytes = std::fs::read(path)?;
        crate::snapshot::rtree_baseline_from_bytes(&bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Number of indexed objects.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// True when no object is indexed.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Inserts an object (the baseline supports updates trivially).
    ///
    /// # Errors
    /// [`DbError::DuplicateId`] if the id is already indexed (inserting it
    /// anyway would leave a dangling duplicate entry in the tree);
    /// [`DbError::OutOfDomain`] if the region escapes the domain — the same
    /// write contract as every other engine behind the [`crate::db::Db`]
    /// facade.
    pub fn insert(&mut self, o: UncertainObject) -> Result<UpdateStats, DbError> {
        let t0 = Instant::now();
        if self.objects.contains_key(&o.id) {
            return Err(DbError::DuplicateId(o.id));
        }
        if !self.domain.contains_rect(&o.region) {
            return Err(DbError::OutOfDomain(o.id));
        }
        self.tree.insert(o.region.clone(), o.id);
        self.objects.insert(o.id, o);
        Ok(UpdateStats {
            time: t0.elapsed(),
            ..Default::default()
        })
    }

    /// Removes an object by id.
    ///
    /// # Errors
    /// [`DbError::UnknownId`] if the id is not indexed (previously `false`).
    pub fn remove(&mut self, id: u64) -> Result<UpdateStats, DbError> {
        let t0 = Instant::now();
        let o = self.objects.remove(&id).ok_or(DbError::UnknownId(id))?;
        let in_tree = self.tree.remove(&o.region, id);
        // The catalog and the tree are updated in lock-step, so a miss here
        // means they drifted apart — catch it at the point of corruption
        // (in release builds too; a ghost id would otherwise surface far
        // away as a broken step1) rather than absorb it.
        assert!(in_tree, "object {id} was in the catalog but not the tree");
        Ok(UpdateStats {
            time: t0.elapsed(),
            ..Default::default()
        })
    }

    /// Access to the underlying tree (statistics, invariants).
    pub fn tree(&self) -> &RTree {
        &self.tree
    }

    /// The uncertainty region of an indexed object.
    pub fn region_of(&self, id: u64) -> Option<&HyperRect> {
        self.objects.get(&id).map(|o| &o.region)
    }
}

impl Step1Engine for RTreeBaseline {
    fn engine_name(&self) -> &'static str {
        "rtree"
    }

    fn dim(&self) -> usize {
        self.tree.dim()
    }

    fn len(&self) -> usize {
        self.objects.len()
    }

    /// Best-first branch-and-prune over the R*-tree: all objects with
    /// non-zero qualification probability. Buffer-reusing, but the
    /// best-first iterator still maintains its own heap, so unlike the
    /// PV-index this path is lean but not allocation-free.
    fn step1_into(&self, q: &Point, ids: &mut Vec<u64>, scratch: &mut FetchScratch) -> Step1Stats {
        let t0 = Instant::now();
        let leaf0 = self.tree.stats.leaf_visits.load(Ordering::Relaxed);
        let mut tau_sq = f64::INFINITY;
        let cand = &mut scratch.cand; // (id, mindist_sq, unused)
        cand.clear();
        let mut candidates = 0usize;
        for n in self.tree.nn_iter(q) {
            let mind_sq = n.dist * n.dist;
            if mind_sq > tau_sq {
                break; // every later object has distmin > τ
            }
            candidates += 1;
            tau_sq = tau_sq.min(max_dist_sq(&n.rect, q));
            cand.push((n.id, mind_sq, 0.0));
        }
        // τ only decreased while collecting: final filter.
        ids.clear();
        ids.extend(
            cand.iter()
                .filter(|&&(_, mind_sq, _)| mind_sq <= tau_sq)
                .map(|&(id, _, _)| id),
        );
        ids.sort_unstable();
        Step1Stats {
            time: t0.elapsed(),
            io_reads: self.tree.stats.leaf_visits.load(Ordering::Relaxed) - leaf0,
            candidates,
            answers: ids.len(),
        }
    }
}

impl ProbNnEngine for RTreeBaseline {
    fn candidate_region(&self, id: u64) -> &HyperRect {
        &self.objects[&id].region
    }

    /// Serves distances straight from the in-memory catalog — no clone —
    /// charging the same pdf-payload pages as the PV-index's storage model.
    fn fetch_dists_sq(
        &self,
        id: u64,
        q: &Point,
        out: &mut Vec<f64>,
        scratch: &mut FetchScratch,
    ) -> u64 {
        let o = &self.objects[&id];
        o.dists_sq_into(q, &mut scratch.samples, out);
        pdf_payload_pages(o, self.page_size)
    }
}

impl RTreeBaseline {
    /// Deterministic STR bulk load over the id-sorted catalog — the same
    /// reconstruction [`RTreeBaseline::load`] uses. This is what a *rebuild*
    /// means for the baseline; forks no longer pay for it.
    fn rebulk_loaded(&self) -> Self {
        let mut ids: Vec<u64> = self.objects.keys().copied().collect();
        ids.sort_unstable();
        let entries: Vec<Entry> = ids
            .iter()
            .map(|id| Entry {
                rect: self.objects[id].region.clone(),
                id: *id,
            })
            .collect();
        let dim = self.tree.dim();
        Self {
            tree: RTree::bulk_load(dim, RTreeParams::with_fanout(self.fanout), entries),
            objects: self.objects.clone(),
            page_size: self.page_size,
            fanout: self.fanout,
            domain: self.domain.clone(),
        }
    }
}

/// Copy-on-write support for the [`crate::db::Db`] facade: the fork is a
/// structural O(index) clone of the R-tree rather than a re-bulk-load, so
/// forking preserves the published tree's exact shape and skips the STR
/// reconstruction. The successor shares no mutable state with the original.
impl WritableEngine for RTreeBaseline {
    fn fork(&self) -> Self {
        Self {
            tree: self.tree.clone(),
            objects: self.objects.clone(),
            page_size: self.page_size,
            fanout: self.fanout,
            domain: self.domain.clone(),
        }
    }

    /// A rebuild is a fresh deterministic STR bulk load over the catalog
    /// (unlike [`WritableEngine::fork`], which clones the current shape).
    fn rebuilt(&self) -> (Self, BuildStats) {
        let t0 = Instant::now();
        let fresh = self.rebulk_loaded();
        let stats = BuildStats {
            total_time: t0.elapsed(),
            ubr_count: fresh.objects.len(),
            ..Default::default()
        };
        (fresh, stats)
    }

    fn apply_insert(&mut self, o: UncertainObject) -> Result<UpdateStats, DbError> {
        self.insert(o)
    }

    fn apply_remove(&mut self, id: u64) -> Result<UpdateStats, DbError> {
        self.remove(id)
    }

    fn apply_rebuild(&mut self) -> BuildStats {
        let t0 = Instant::now();
        *self = self.rebulk_loaded();
        BuildStats {
            total_time: t0.elapsed(),
            ubr_count: self.objects.len(),
            ..Default::default()
        }
    }
}

impl PersistentEngine for RTreeBaseline {
    fn snapshot_bytes(&self) -> std::io::Result<Vec<u8>> {
        Ok(crate::snapshot::rtree_baseline_to_bytes(self))
    }

    fn from_snapshot_bytes(bytes: &[u8]) -> std::io::Result<Self> {
        crate::snapshot::rtree_baseline_from_bytes(bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QuerySpec;
    use crate::verify;
    use pv_geom::min_dist_sq;
    use pv_workload::{queries, synthetic, SyntheticConfig};

    fn small_db(n: usize, dim: usize, seed: u64) -> UncertainDb {
        synthetic(&SyntheticConfig {
            n,
            dim,
            max_side: 200.0,
            samples: 16,
            seed,
        })
    }

    #[test]
    fn step1_matches_naive_scan() {
        for dim in [2, 3] {
            let db = small_db(400, dim, 9);
            let baseline = RTreeBaseline::build(&db, 16, 4096);
            for q in queries::uniform(&db.domain, 30, 5) {
                let (got, _) = baseline.step1(&q);
                let want = verify::possible_nn(db.objects.iter(), &q);
                assert_eq!(got, want, "dim {dim} q {q:?}");
            }
        }
    }

    #[test]
    fn step1_prunes_most_of_the_database() {
        let db = small_db(2000, 2, 11);
        let baseline = RTreeBaseline::build(&db, 32, 4096);
        let q = queries::uniform(&db.domain, 1, 3)[0].clone();
        let (ids, stats) = baseline.step1(&q);
        assert!(!ids.is_empty());
        assert!(
            stats.candidates < db.len() / 4,
            "examined {} of {}",
            stats.candidates,
            db.len()
        );
    }

    #[test]
    fn full_query_produces_probabilities() {
        let db = small_db(300, 2, 13);
        let baseline = RTreeBaseline::build(&db, 16, 4096);
        let q = queries::uniform(&db.domain, 1, 7)[0].clone();
        let out = baseline.execute(&q, &QuerySpec::new()).unwrap();
        let total: f64 = out.answers.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-6, "sum {total}");
        assert!(out.stats.pc_io_reads >= out.answers.len() as u64);
        assert!(out.stats.step1.io_reads > 0);
    }

    #[test]
    fn updates_keep_step1_correct() {
        let mut db = small_db(200, 2, 17);
        let mut baseline = RTreeBaseline::build(&db, 8, 4096);
        // remove 50 objects, insert 30 fresh ones
        for id in 0..50u64 {
            assert!(baseline.remove(id).is_ok());
        }
        db.objects.retain(|o| o.id >= 50);
        let fresh = small_db(30, 2, 999);
        for (i, o) in fresh.objects.into_iter().enumerate() {
            let mut o = o;
            o.id = 10_000 + i as u64;
            db.objects.push(o.clone());
            baseline.insert(o).unwrap();
        }
        for q in queries::uniform(&db.domain, 20, 23) {
            let (got, _) = baseline.step1(&q);
            let want = verify::possible_nn(db.objects.iter(), &q);
            assert_eq!(got, want);
        }
        // Bad writes are typed errors under the same contract as the other
        // engines behind the Db facade.
        let escapee = UncertainObject::uniform(
            77_777,
            HyperRect::new(vec![-50.0, -50.0], vec![-40.0, -40.0]),
            4,
        );
        assert!(matches!(
            baseline.insert(escapee),
            Err(DbError::OutOfDomain(77_777))
        ));
        let dup = db.objects[0].clone();
        let dup_id = dup.id;
        assert!(matches!(baseline.insert(dup), Err(DbError::DuplicateId(id)) if id == dup_id));
        assert!(matches!(
            baseline.remove(999_999),
            Err(DbError::UnknownId(999_999))
        ));
    }

    #[test]
    fn min_maxdist_object_always_answered() {
        let db = small_db(500, 3, 29);
        let baseline = RTreeBaseline::build(&db, 16, 4096);
        for q in queries::uniform(&db.domain, 10, 31) {
            let (ids, _) = baseline.step1(&q);
            // the object minimising distmax must be in the answer
            let best = db
                .objects
                .iter()
                .min_by(|a, b| {
                    max_dist_sq(&a.region, &q)
                        .partial_cmp(&max_dist_sq(&b.region, &q))
                        .unwrap()
                })
                .unwrap();
            assert!(ids.contains(&best.id));
            // and every answer has distmin <= that object's distmax
            let tau_sq = max_dist_sq(&best.region, &q);
            for id in &ids {
                let o = &db.objects.iter().find(|o| o.id == *id).unwrap();
                assert!(min_dist_sq(&o.region, &q) <= tau_sq + 1e-9);
            }
        }
    }
}
