//! # pv-uvindex — the UV-index baseline (2-D circular uncertainty regions)
//!
//! The paper compares the PV-index against the **UV-index** of Cheng et al.
//! (ICDE 2010, the paper's reference \[9\]), which supports PNNQ Step 1 for
//! 2-D objects whose uncertainty is bounded by a *circle*. Its defining
//! characteristics, which the comparison in §VII exploits, are:
//!
//! 1. UV-cells are computed by *explicit boundary geometry* (hyperbolic arc
//!    intersections in \[9\]) — far more expensive than SE's rectangle
//!    tests, which is why Fig. 10(g) reports PV construction 15–25× faster;
//! 2. at query time the two indexes behave similarly on 2-D data
//!    (Fig. 9(e)/(h)).
//!
//! The original implementation is not available, so this crate rebuilds the
//! approach with the same cost profile (see ARCHITECTURE.md §1): each object's
//! UV-cell boundary is traced by **ray marching** — for a fan of rays from
//! the circle centre, a high-precision binary search finds the farthest
//! point that is not dominated under exact circle distance arithmetic
//! (`|c' − p| + r' < |c − p| − r`). The cell's bounding rectangle (padded
//! conservatively for the inter-ray gap) is then stored in the same
//! octree + hash-table scaffolding the PV-index uses, so query-time
//! comparisons are apples-to-apples.
//!
//! Because `V(o)` is not guaranteed star-shaped, ray marching is an
//! approximation; `tests/uvindex_recall.rs` (workspace root) measures its
//! Step-1 recall against ground truth — it is ≈ 1 with the default fan.

#![deny(missing_docs)]

use pv_core::params::PvParams;
use pv_core::prob::payload_pages;
use pv_core::query::{FetchScratch, ProbNnEngine, Step1Engine};
use pv_core::stats::{BuildStats, SeStats, Step1Stats};
use pv_exthash::ExtHash;
use pv_geom::{HyperRect, Point};
use pv_octree::{encode_leaf_record, leaf_record_dists_sq, Octree};
use pv_rtree::{Entry, RTree, RTreeParams};
use pv_storage::codec;
use pv_storage::snapshot::{open_snapshot, SnapshotWriter};
use pv_storage::{MemPager, Pager};
use pv_uncertain::{UncertainDb, UncertainObject};
use std::collections::HashMap;
use std::time::Instant;

/// Artifact kind of UV-index snapshot files.
pub const UV_SNAPSHOT_KIND: [u8; 4] = *b"PVUV";
/// Snapshot format version this build writes and the newest it reads.
pub const UV_SNAPSHOT_VERSION: u16 = 1;

/// A circular uncertainty region: the smallest circle containing `u(o)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Circle {
    /// Centre.
    pub center: Point,
    /// Radius.
    pub radius: f64,
}

impl Circle {
    /// Circumscribed circle of a rectangle (the paper's UV-index assumes
    /// circles; rectangle datasets are wrapped conservatively).
    pub fn around(rect: &HyperRect) -> Self {
        let center = rect.center();
        let radius = rect.corners().map(|c| c.dist(&center)).fold(0.0, f64::max);
        Self { center, radius }
    }

    /// Minimum possible distance from the object to `p`.
    #[inline]
    pub fn min_dist(&self, p: &Point) -> f64 {
        (self.center.dist(p) - self.radius).max(0.0)
    }

    /// Maximum possible distance from the object to `p`.
    #[inline]
    pub fn max_dist(&self, p: &Point) -> f64 {
        self.center.dist(p) + self.radius
    }
}

/// True if some `a` in `others` dominates point `p` w.r.t. `o`:
/// `maxdist(a, p) < mindist(o, p)` under circle arithmetic.
fn point_dominated_by_any(o: &Circle, others: &[Circle], p: &Point) -> bool {
    let min_o = o.min_dist(p);
    others.iter().any(|a| a.max_dist(p) < min_o)
}

/// UV-index construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct UvParams {
    /// Number of boundary rays per cell (the fan resolution).
    pub rays: usize,
    /// Binary-search tolerance along each ray (domain units) — the
    /// "high-precision operations" of \[9\].
    pub ray_epsilon: f64,
    /// Hard cap on influence objects examined per cell (the analogue of the
    /// paper's `kglobal`).
    pub influence_k: usize,
    /// Convergence criterion of \[9\]'s incremental construction: stop once
    /// this many consecutive NN objects leave the cell boundary unchanged.
    pub stable_streak: usize,
    /// Disk page size.
    pub page_size: usize,
    /// Main-memory budget for octree non-leaf nodes.
    pub mem_budget: usize,
}

impl Default for UvParams {
    fn default() -> Self {
        Self {
            rays: 180,
            ray_epsilon: 1e-3,
            influence_k: 200,
            stable_streak: 30,
            page_size: 4096,
            mem_budget: 5 * 1024 * 1024,
        }
    }
}

impl UvParams {
    /// Match the storage parameters of a PV-index configuration so that
    /// query comparisons share the same disk layout.
    pub fn matching(pv: &PvParams) -> Self {
        Self {
            page_size: pv.page_size,
            mem_budget: pv.mem_budget,
            ..Default::default()
        }
    }
}

/// The UV-index: UV-cell bounding rectangles in an octree, object payloads
/// in an extendible hash table.
pub struct UvIndex {
    domain: HyperRect,
    octree: Octree<MemPager>,
    secondary: ExtHash<MemPager>,
    pager: MemPager,
    page_size: usize,
    objects: HashMap<u64, UncertainObject>,
    circles: HashMap<u64, Circle>,
    cell_mbrs: HashMap<u64, HyperRect>,
    build_stats: BuildStats,
}

impl std::fmt::Debug for UvIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UvIndex")
            .field("objects", &self.objects.len())
            .field("page_size", &self.page_size)
            .finish_non_exhaustive()
    }
}

impl UvIndex {
    /// Builds the UV-index over a 2-D database.
    ///
    /// # Panics
    /// If the database is not two-dimensional (the UV-index is 2-D only —
    /// the very limitation the PV-index removes).
    pub fn build(db: &UncertainDb, params: UvParams) -> Self {
        assert_eq!(db.dim(), 2, "the UV-index only supports 2-D data");
        let t_total = Instant::now();
        let pager = MemPager::new(params.page_size);
        let octree = Octree::new(
            pager.clone(),
            db.domain.clone(),
            params.mem_budget,
            8 + 2 * 16,
        );
        let secondary = ExtHash::new(pager.clone());
        let circles: HashMap<u64, Circle> = db
            .objects
            .iter()
            .map(|o| (o.id, Circle::around(&o.region)))
            .collect();
        // Influence sets come from a mean-position R-tree, like the paper's
        // bootstrap.
        let mean_tree = {
            let entries: Vec<Entry> = db
                .objects
                .iter()
                .map(|o| Entry {
                    rect: HyperRect::from_point(&o.region.center()),
                    id: o.id,
                })
                .collect();
            RTree::bulk_load(2, RTreeParams::with_fanout(100), entries)
        };

        let mut index = Self {
            domain: db.domain.clone(),
            octree,
            secondary,
            pager,
            page_size: params.page_size,
            objects: db.objects.iter().map(|o| (o.id, o.clone())).collect(),
            circles,
            cell_mbrs: HashMap::with_capacity(db.len()),
            build_stats: BuildStats::default(),
        };

        let mut se_total = SeStats::default();
        let t_cells = Instant::now();
        for o in &db.objects {
            let t_cset = Instant::now();
            let influence: Vec<Circle> = mean_tree
                .nn_iter(&o.region.center())
                .filter(|n| n.id != o.id)
                .take(params.influence_k)
                .map(|n| index.circles[&n.id].clone())
                .collect();
            let cset_time = t_cset.elapsed();
            let (mbr, used) = index.trace_cell(&index.circles[&o.id], &influence, &params);
            se_total.absorb(&SeStats {
                cset_time,
                cset_size: used,
                ..Default::default()
            });
            index.cell_mbrs.insert(o.id, mbr);
        }
        se_total.refine_time = t_cells.elapsed();

        let t_insert = Instant::now();
        let ids: Vec<u64> = index.cell_mbrs.keys().copied().collect();
        for id in ids {
            let o = &index.objects[&id];
            let mbr = index.cell_mbrs[&id].clone();
            index.secondary.put(id, &o.encode());
            let record = encode_leaf_record(id, &o.region);
            let mbrs = &index.cell_mbrs;
            let lookup = move |i: u64| mbrs[&i].clone();
            index.octree.insert(&mbr, &record, &lookup);
        }
        index.build_stats = BuildStats {
            total_time: t_total.elapsed(),
            se: se_total,
            insert_time: t_insert.elapsed(),
            ubr_count: index.objects.len(),
        };
        index
    }

    /// Traces the UV-cell boundary of circle `o` and returns a padded
    /// bounding rectangle, clipped to the domain, plus the number of
    /// influence objects actually processed.
    ///
    /// Mirrors the incremental construction of \[9\]: influence objects are
    /// processed one at a time (in NN order) and every one of them has its
    /// bisector hyperbola intersected with the *entire* evolving cell
    /// boundary — here realised as a per-ray high-precision binary search
    /// of the frontier against that object alone, keeping the per-ray
    /// minimum. There is no early exit per object (each retained hyperbola
    /// pays the full boundary cost), and processing stops only once
    /// `stable_streak` consecutive objects leave the boundary unchanged —
    /// the cost asymmetry §VII measures in Fig. 10(g).
    fn trace_cell(
        &self,
        o: &Circle,
        influence: &[Circle],
        params: &UvParams,
    ) -> (HyperRect, usize) {
        let c = &o.center;
        // t_max: the farthest any cell point can be from the centre — the
        // domain diagonal bounds it.
        let t_max = self
            .domain
            .corners()
            .map(|corner| corner.dist(c))
            .fold(0.0, f64::max);
        let mut frontier = vec![t_max; params.rays];
        let at = |k: usize, t: f64| {
            let ang = k as f64 / params.rays as f64 * std::f64::consts::TAU;
            Point::new(vec![c[0] + t * ang.cos(), c[1] + t * ang.sin()])
        };
        let mut streak = 0usize;
        let mut used = 0usize;
        for a in influence {
            used += 1;
            let single = std::slice::from_ref(a);
            let mut changed = false;
            for (k, slot) in frontier.iter_mut().enumerate() {
                // Intersect a's bisector with this boundary ray. The real
                // UV-index solves the hyperbola/arc intersection for every
                // retained pair whether or not it ends up clipping the
                // cell, so the bisection runs unconditionally over the full
                // ray; a crossing beyond the current frontier (or absent
                // altogether) simply leaves the frontier unchanged.
                let mut t_lo = 0.0f64;
                let mut t_hi = t_max;
                while t_hi - t_lo > params.ray_epsilon {
                    let mid = 0.5 * (t_lo + t_hi);
                    if point_dominated_by_any(o, single, &at(k, mid)) {
                        t_hi = mid;
                    } else {
                        t_lo = mid;
                    }
                }
                let crossing_found = point_dominated_by_any(o, single, &at(k, t_hi));
                if crossing_found && t_hi < *slot {
                    *slot = t_hi;
                    changed = true;
                }
            }
            if changed {
                streak = 0;
            } else {
                streak += 1;
                if streak >= params.stable_streak {
                    break;
                }
            }
        }
        let mut lo = [c[0], c[1]];
        let mut hi = [c[0], c[1]];
        for (k, &t) in frontier.iter().enumerate() {
            // Conservative padding: the frontier between adjacent rays can
            // bulge outward by the chord factor 1/cos(π/rays).
            let pad = (t / (std::f64::consts::PI / params.rays as f64).cos()).min(t_max);
            let p = at(k, pad + params.ray_epsilon);
            lo[0] = lo[0].min(p[0]);
            lo[1] = lo[1].min(p[1]);
            hi[0] = hi[0].max(p[0]);
            hi[1] = hi[1].max(p[1]);
        }
        // Clip to the domain; the cell always contains the circle itself.
        let mbr = HyperRect::new(
            vec![
                (lo[0].min(c[0] - o.radius)).max(self.domain.lo()[0]),
                (lo[1].min(c[1] - o.radius)).max(self.domain.lo()[1]),
            ],
            vec![
                (hi[0].max(c[0] + o.radius)).min(self.domain.hi()[0]),
                (hi[1].max(c[1] + o.radius)).min(self.domain.hi()[1]),
            ],
        );
        (mbr, used)
    }

    /// Number of indexed objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Construction statistics (comparable with [`pv_core::PvIndex`]'s).
    pub fn build_stats(&self) -> &BuildStats {
        &self.build_stats
    }

    /// The UV-cell bounding rectangle of an object.
    pub fn cell_mbr(&self, id: u64) -> Option<&HyperRect> {
        self.cell_mbrs.get(&id)
    }

    /// The shared simulated disk.
    pub fn pager(&self) -> &MemPager {
        &self.pager
    }

    /// Serialises the index into snapshot bytes (kind `PVUV`, version 1,
    /// [`pv_storage::snapshot`] envelope): domain, build stats, object
    /// catalog, the ray-marched UV-cell MBRs (the expensive artifact worth
    /// persisting), the raw disk image, and the octree/hash-table state.
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        use pv_core::snapshot as snap;
        let mut w = SnapshotWriter::new(UV_SNAPSHOT_KIND, UV_SNAPSHOT_VERSION);
        let out = w.buf();
        codec::put_u32(out, self.page_size as u32);
        snap::put_rect(out, &self.domain);
        snap::put_build_stats(out, &self.build_stats);
        let mut ids: Vec<u64> = self.objects.keys().copied().collect();
        ids.sort_unstable();
        codec::put_u64(out, ids.len() as u64);
        for id in &ids {
            codec::put_bytes(out, &self.objects[id].encode());
            snap::put_rect(out, &self.cell_mbrs[id]);
        }
        snap::put_pager_image(out, &self.pager);
        codec::put_bytes(out, &self.octree.to_snapshot());
        codec::put_bytes(out, &self.secondary.to_snapshot());
        w.finish()
    }

    /// Reconstructs an index from [`UvIndex::to_snapshot_bytes`] output —
    /// no ray marching is repeated; the circle catalog is re-derived
    /// deterministically from the stored regions.
    ///
    /// # Errors
    /// Any corruption or version skew as a
    /// [`DecodeError`](pv_storage::codec::DecodeError); never panics.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, pv_storage::codec::DecodeError> {
        use pv_core::snapshot as snap;
        use pv_storage::codec::DecodeError;
        let (mut r, _version) = open_snapshot(
            bytes,
            UV_SNAPSHOT_KIND,
            "UV-index snapshot",
            UV_SNAPSHOT_VERSION,
        )?;
        let page_size = r.try_u32()? as usize;
        let domain = snap::try_rect(&mut r, 2)?;
        let build_stats = snap::try_build_stats(&mut r)?;
        let n = r.try_u64()? as usize;
        let mut objects = HashMap::with_capacity(n.min(1 << 20));
        let mut cell_mbrs = HashMap::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let rec = r.try_bytes()?;
            let o = UncertainObject::try_decode(&rec)?;
            if o.region.dim() != 2 {
                return Err(DecodeError::Invalid {
                    context: "UV-index snapshot object dimensionality",
                });
            }
            cell_mbrs.insert(o.id, snap::try_rect(&mut r, 2)?);
            objects.insert(o.id, o);
        }
        let pager = snap::try_pager_image(&mut r)?;
        let octree = Octree::from_snapshot(pager.clone(), &r.try_bytes()?)?;
        let secondary = ExtHash::from_snapshot(pager.clone(), &r.try_bytes()?)?;
        let circles = objects
            .values()
            .map(|o| (o.id, Circle::around(&o.region)))
            .collect();
        Ok(Self {
            domain,
            octree,
            secondary,
            pager,
            page_size,
            objects,
            circles,
            cell_mbrs,
            build_stats,
        })
    }

    /// Saves the index snapshot to a file; see [`UvIndex::to_snapshot_bytes`].
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_snapshot_bytes())
    }

    /// Loads an index saved with [`UvIndex::save`]; corruption yields an
    /// [`std::io::ErrorKind::InvalidData`] error instead of a panic.
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let bytes = std::fs::read(path)?;
        Self::from_snapshot_bytes(&bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

impl Step1Engine for UvIndex {
    fn engine_name(&self) -> &'static str {
        "uv-index"
    }

    fn dim(&self) -> usize {
        2
    }

    fn len(&self) -> usize {
        self.objects.len()
    }

    /// PNNQ Step 1 via the UV-index: leaf lookup + min/max pruning
    /// (identical allocation-free streaming leaf path to the PV-index,
    /// different cells).
    fn step1_into(&self, q: &Point, ids: &mut Vec<u64>, scratch: &mut FetchScratch) -> Step1Stats {
        use std::sync::atomic::Ordering;
        let t0 = Instant::now();
        let io0 = self.pager.stats().reads.load(Ordering::Relaxed);
        let FetchScratch { octree, cand, .. } = scratch;
        cand.clear();
        self.octree.point_query_with(q, octree, |rec| {
            cand.push(leaf_record_dists_sq(rec, 2, q));
        });
        let tau_sq = cand
            .iter()
            .map(|&(_, _, maxd)| maxd)
            .fold(f64::INFINITY, f64::min);
        ids.clear();
        ids.extend(
            cand.iter()
                .filter(|&&(_, mind, _)| mind <= tau_sq)
                .map(|&(id, _, _)| id),
        );
        ids.sort_unstable();
        Step1Stats {
            time: t0.elapsed(),
            io_reads: self.pager.stats().reads.load(Ordering::Relaxed) - io0,
            candidates: cand.len(),
            answers: ids.len(),
        }
    }
}

impl ProbNnEngine for UvIndex {
    fn candidate_region(&self, id: u64) -> &HyperRect {
        &self.objects[&id].region
    }

    /// Streams the payload from the UV-index's own extendible-hash secondary
    /// index (charging real page reads, metered with a narrow per-fetch
    /// bracket) plus the pdf-payload pages — the same Step-2 cost model as
    /// the PV-index, so full-query comparisons are apples-to-apples. Decodes
    /// into the scratch buffers; nothing is materialised.
    fn fetch_dists_sq(
        &self,
        id: u64,
        q: &Point,
        out: &mut Vec<f64>,
        scratch: &mut FetchScratch,
    ) -> u64 {
        use std::sync::atomic::Ordering;
        let io0 = self.pager.stats().reads.load(Ordering::Relaxed);
        let found = self
            .secondary
            .get_into(id, &mut scratch.page, &mut scratch.record);
        assert!(found, "step-1 answer must exist in the secondary index");
        let io = self.pager.stats().reads.load(Ordering::Relaxed) - io0;
        let view = pv_uncertain::EncodedObject::parse(&scratch.record)
            .expect("secondary record corrupted");
        view.dists_sq_into(q, &mut scratch.samples, out);
        io + payload_pages(view.n_samples(), 2, self.page_size)
    }
}

/// Snapshot persistence through the [`pv_core::db::Db`] facade.
impl pv_core::db::PersistentEngine for UvIndex {
    fn snapshot_bytes(&self) -> std::io::Result<Vec<u8>> {
        Ok(self.to_snapshot_bytes())
    }

    fn from_snapshot_bytes(bytes: &[u8]) -> std::io::Result<Self> {
        // The inherent decoder; its typed error chains through InvalidData.
        UvIndex::from_snapshot_bytes(bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_workload::{queries, synthetic, SyntheticConfig};

    fn db2d(n: usize, seed: u64) -> UncertainDb {
        synthetic(&SyntheticConfig {
            n,
            dim: 2,
            max_side: 150.0,
            samples: 8,
            seed,
        })
    }

    #[test]
    fn circle_around_rect() {
        let r = HyperRect::new(vec![0.0, 0.0], vec![6.0, 8.0]);
        let c = Circle::around(&r);
        assert_eq!(c.center.coords(), &[3.0, 4.0]);
        assert!((c.radius - 5.0).abs() < 1e-12);
        let p = Point::new(vec![3.0, 14.0]);
        assert!((c.min_dist(&p) - 5.0).abs() < 1e-12);
        assert!((c.max_dist(&p) - 15.0).abs() < 1e-12);
    }

    #[test]
    fn min_dist_zero_inside() {
        let c = Circle {
            center: Point::new(vec![0.0, 0.0]),
            radius: 2.0,
        };
        assert_eq!(c.min_dist(&Point::new(vec![1.0, 0.0])), 0.0);
    }

    #[test]
    fn cell_mbr_contains_circle() {
        let db = db2d(150, 3);
        let uv = UvIndex::build(&db, UvParams::default());
        for o in &db.objects {
            let circle = Circle::around(&o.region);
            let mbr = uv.cell_mbr(o.id).unwrap();
            // the circle's bounding box (clipped) must be inside the cell MBR
            for j in 0..2 {
                assert!(
                    mbr.lo()[j] <= (circle.center[j] - circle.radius).max(db.domain.lo()[j]) + 1e-9
                );
                assert!(
                    mbr.hi()[j] >= (circle.center[j] + circle.radius).min(db.domain.hi()[j]) - 1e-9
                );
            }
        }
    }

    #[test]
    fn two_object_cells_split_space() {
        // Two circles far apart: each cell MBR must stop near the bisector.
        let domain = HyperRect::cube(2, 0.0, 1000.0);
        let a =
            UncertainObject::uniform(1, HyperRect::new(vec![100.0, 490.0], vec![120.0, 510.0]), 4);
        let b =
            UncertainObject::uniform(2, HyperRect::new(vec![880.0, 490.0], vec![900.0, 510.0]), 4);
        let db = UncertainDb::new(domain, vec![a, b]);
        let uv = UvIndex::build(&db, UvParams::default());
        let ma = uv.cell_mbr(1).unwrap();
        assert!(ma.hi()[0] < 700.0, "cell of a reaches {}", ma.hi()[0]);
        assert!(
            ma.hi()[0] > 480.0,
            "cell of a stops early at {}",
            ma.hi()[0]
        );
    }

    #[test]
    fn step1_recall_is_high() {
        let db = db2d(250, 5);
        let uv = UvIndex::build(&db, UvParams::default());
        let mut found = 0usize;
        let mut expected = 0usize;
        for q in queries::uniform(&db.domain, 40, 7) {
            let (got, _) = uv.step1(&q);
            let want = pv_core::verify::possible_nn(db.objects.iter(), &q);
            expected += want.len();
            found += want.iter().filter(|id| got.contains(id)).count();
        }
        let recall = found as f64 / expected as f64;
        assert!(recall > 0.98, "recall {recall}");
    }

    #[test]
    fn full_query_through_the_engine_trait() {
        use pv_core::query::QuerySpec;
        let db = db2d(150, 13);
        let uv = UvIndex::build(&db, UvParams::default());
        assert_eq!(uv.engine_name(), "uv-index");
        for q in queries::uniform(&db.domain, 10, 17) {
            let out = uv.execute(&q, &QuerySpec::new()).unwrap();
            let total: f64 = out.answers.iter().map(|(_, p)| p).sum();
            assert!((total - 1.0).abs() < 1e-6, "sum {total}");
            // payloads come off the secondary index: real page reads
            assert!(out.stats.pc_io_reads > out.answers.len() as u64 / 2);
        }
    }

    #[test]
    fn circles_loosen_but_never_miss_rect_answers() {
        // Circle min/max distances bracket the rectangle ones.
        let db = db2d(100, 9);
        for o in &db.objects {
            let c = Circle::around(&o.region);
            let p = Point::new(vec![500.0, 700.0]);
            assert!(c.min_dist(&p) <= pv_geom::min_dist(&o.region, &p) + 1e-9);
            assert!(c.max_dist(&p) >= pv_geom::max_dist(&o.region, &p) - 1e-9);
        }
    }

    #[test]
    fn snapshot_roundtrips_without_retracing() {
        use pv_core::query::QuerySpec;
        let db = db2d(120, 21);
        let uv = UvIndex::build(&db, UvParams::default());
        let t0 = Instant::now();
        let loaded = UvIndex::from_snapshot_bytes(&uv.to_snapshot_bytes()).unwrap();
        let load_time = t0.elapsed();
        assert!(
            load_time < uv.build_stats().total_time,
            "load {load_time:?} should beat the ray-marched build {:?}",
            uv.build_stats().total_time
        );
        for o in &db.objects {
            assert_eq!(loaded.cell_mbr(o.id), uv.cell_mbr(o.id));
        }
        for q in queries::uniform(&db.domain, 15, 23) {
            assert_eq!(loaded.step1(&q).0, uv.step1(&q).0);
            assert_eq!(
                loaded.execute(&q, &QuerySpec::new()).unwrap().answers,
                uv.execute(&q, &QuerySpec::new()).unwrap().answers
            );
        }
        // corruption is an error, not a panic
        let bytes = uv.to_snapshot_bytes();
        assert!(UvIndex::from_snapshot_bytes(&bytes[..bytes.len() - 9]).is_err());
    }

    #[test]
    #[should_panic(expected = "only supports 2-D")]
    fn rejects_3d_data() {
        let db = synthetic(&SyntheticConfig {
            n: 10,
            dim: 3,
            samples: 4,
            ..Default::default()
        });
        UvIndex::build(&db, UvParams::default());
    }

    #[test]
    fn construction_slower_than_pv() {
        // The headline of Fig. 10(g): PV construction is much faster. Use a
        // small db but assert the direction.
        let db = db2d(120, 11);
        let t_uv = Instant::now();
        let _uv = UvIndex::build(&db, UvParams::default());
        let uv_time = t_uv.elapsed();
        let t_pv = Instant::now();
        let _pv = pv_core::PvIndex::build(&db, PvParams::default());
        let pv_time = t_pv.elapsed();
        assert!(
            uv_time > pv_time,
            "UV {uv_time:?} should cost more than PV {pv_time:?}"
        );
    }
}
