//! The PV-index (§VI): primary octree + secondary extendible hash table,
//! PNNQ evaluation and incremental maintenance.
//!
//! Layout (Fig. 7 of the paper):
//!
//! * **primary index** — a `2^d`-ary octree over the domain; each leaf holds
//!   `(object id, u(o))` records for every object whose UBR overlaps the
//!   leaf region. Non-leaf nodes live in a main-memory budget; leaves are
//!   chained disk pages ([`pv_octree`]).
//! * **secondary index** — an extendible hash table keyed by object id,
//!   whose entries hold the object's UBR and its uncertainty information
//!   (region + pdf descriptor) ([`pv_exthash`]).
//!
//! Both structures share one simulated disk, so experiments can compare the
//! PV-index's page traffic directly against the R-tree baseline.
//!
//! For split re-routing the octree needs id → UBR lookups; we serve them
//! from an in-memory UBR catalog that mirrors the secondary index. The
//! catalog does not affect any reported figure (Figs. 9(c)/(g) measure
//! *query* I/O, and queries never consult it), it only spares construction
//! the artificial churn of re-reading hash pages the real system would have
//! cached anyway.

use crate::cset::{build_mean_tree, choose_cset};
use crate::db::{PersistentEngine, WritableEngine};
use crate::error::DbError;
use crate::params::PvParams;
use crate::prob::payload_pages;
use crate::query::{FetchScratch, ProbNnEngine, Step1Engine};
use crate::se::compute_ubr;
use crate::stats::{BuildStats, SeStats, Step1Stats, UpdateStats};
use pv_exthash::ExtHash;
use pv_geom::{HyperRect, Point};
use pv_octree::{decode_leaf_record, encode_leaf_record, leaf_record_dists_sq, Octree};
use pv_rtree::RTree;
use pv_storage::{codec, MemPager, Pager};
use pv_uncertain::{UncertainDb, UncertainObject};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// The PV-index.
///
/// Field visibility is `pub(crate)` so the [`crate::snapshot`] codec can
/// serialise and reconstruct the exact state without a parallel builder API.
pub struct PvIndex {
    pub(crate) params: PvParams,
    pub(crate) domain: HyperRect,
    pub(crate) dim: usize,
    /// Primary index (octree with disk-resident leaves).
    pub(crate) octree: Octree<MemPager>,
    /// Secondary index: id → (UBR, object payload).
    pub(crate) secondary: ExtHash<MemPager>,
    /// Shared simulated disk.
    pub(crate) pager: MemPager,
    /// In-memory object catalog (regions + pdf descriptors).
    pub(crate) objects: HashMap<u64, UncertainObject>,
    /// Uncertainty-region catalog kept in lock-step with `objects`; feeds
    /// `chooseCSet` without per-update rebuilding.
    pub(crate) regions: HashMap<u64, HyperRect>,
    /// In-memory UBR catalog mirroring the secondary index.
    pub(crate) ubrs: HashMap<u64, HyperRect>,
    /// R*-tree over object mean positions, kept live for `chooseCSet`.
    pub(crate) mean_tree: RTree,
    /// Construction statistics.
    pub(crate) build_stats: BuildStats,
}

impl std::fmt::Debug for PvIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PvIndex")
            .field("dim", &self.dim)
            .field("objects", &self.objects.len())
            .finish_non_exhaustive()
    }
}

/// Encodes a secondary-index record: a tag selecting the UBR
/// representation — `0`: raw `2d × f64` corners; `1`: grid-quantized
/// corners (`steps: u16` then `2d × u16` cell indices, the §VIII
/// "compression" extension) — followed by the object payload.
pub fn encode_secondary(
    ubr: &HyperRect,
    o: &UncertainObject,
    domain: &HyperRect,
    quantize: Option<u16>,
) -> Vec<u8> {
    let mut out = Vec::new();
    match quantize {
        None => {
            codec::put_u16(&mut out, 0);
            for &x in ubr.lo() {
                codec::put_f64(&mut out, x);
            }
            for &x in ubr.hi() {
                codec::put_f64(&mut out, x);
            }
        }
        Some(steps) => {
            codec::put_u16(&mut out, 1);
            let q = pv_geom::QuantizedRect::encode(ubr, domain, steps);
            codec::put_u16(&mut out, q.steps);
            for &c in &q.lo {
                codec::put_u16(&mut out, c);
            }
            for &c in &q.hi {
                codec::put_u16(&mut out, c);
            }
        }
    }
    out.extend_from_slice(&o.encode());
    out
}

/// Byte offset of the embedded [`UncertainObject::encode`] payload inside a
/// record written by [`encode_secondary`] (i.e. the length of the UBR
/// prefix), so the hot path can hand the object bytes to a zero-copy
/// [`pv_uncertain::EncodedObject`] without decoding the UBR.
fn secondary_payload_offset(buf: &[u8], dim: usize) -> Result<usize, codec::DecodeError> {
    let mut r = codec::Reader::new(buf);
    match r.try_u16()? {
        0 => Ok(2 + dim * 16),
        1 => Ok(2 + 2 + dim * 4),
        t => Err(codec::DecodeError::UnknownTag {
            context: "secondary record",
            tag: t,
        }),
    }
}

/// Decodes a record written by [`encode_secondary`].
///
/// Corruption — a truncated buffer or a tag no known version writes — is
/// reported through the codec layer as a [`codec::DecodeError`] instead of
/// panicking, so callers holding untrusted pages can recover.
pub fn decode_secondary(
    buf: &[u8],
    dim: usize,
    domain: &HyperRect,
) -> Result<(HyperRect, UncertainObject), codec::DecodeError> {
    let mut r = codec::Reader::new(buf);
    match r.try_u16()? {
        0 => {
            let lo: Vec<f64> = (0..dim).map(|_| r.try_f64()).collect::<Result<_, _>>()?;
            let hi: Vec<f64> = (0..dim).map(|_| r.try_f64()).collect::<Result<_, _>>()?;
            let ubr = HyperRect::new(lo, hi);
            // The Reader just consumed exactly this prefix, so the tail
            // window is always present; `get` keeps the decoder total.
            let obj = UncertainObject::try_decode(buf.get(2 + dim * 16..).unwrap_or_default())?;
            Ok((ubr, obj))
        }
        1 => {
            let steps = r.try_u16()?;
            let lo: Vec<u16> = (0..dim).map(|_| r.try_u16()).collect::<Result<_, _>>()?;
            let hi: Vec<u16> = (0..dim).map(|_| r.try_u16()).collect::<Result<_, _>>()?;
            let q = pv_geom::QuantizedRect { lo, hi, steps };
            let ubr = q.decode(domain);
            let obj = UncertainObject::try_decode(buf.get(2 + 2 + dim * 4..).unwrap_or_default())?;
            Ok((ubr, obj))
        }
        t => Err(codec::DecodeError::UnknownTag {
            context: "secondary record",
            tag: t,
        }),
    }
}

/// Number of objects a Phase-1 worker claims per cursor bump. Small enough
/// that a skewed object (one pathological SE run) cannot leave peers idle
/// behind a static chunk boundary; large enough that the shared cursor is
/// touched a few hundred times per million objects, not once per object.
const BUILD_BATCH: usize = 32;

/// Build fail-point for the worker-panic tests: a Phase-1 worker panics when
/// it reaches the object with this id. `u64::MAX` (the default) disables it.
/// Not part of the public API.
#[doc(hidden)]
pub static BUILD_POISON_ID: std::sync::atomic::AtomicU64 =
    std::sync::atomic::AtomicU64::new(u64::MAX);

/// Extracts the human-readable message from a caught panic payload. `panic!`
/// with a literal yields `&str`, with a formatted message `String`; anything
/// else gets a placeholder.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One object's SE run, exactly as the build and every insertion perform
/// it: `chooseCSet` with [`PvParams::cset`], then [`compute_ubr`] at the
/// effective threshold.
fn se_run(
    o: &UncertainObject,
    params: &PvParams,
    domain: &HyperRect,
    mean_tree: &RTree,
    regions: &HashMap<u64, HyperRect>,
) -> (HyperRect, SeStats) {
    let t_cset = Instant::now();
    let cset = choose_cset(o, params.cset, mean_tree, regions);
    let cset_time = t_cset.elapsed();
    let (ubr, mut st) = compute_ubr(o, domain, &cset, params.effective_delta(), params.mmax);
    st.cset_time = cset_time;
    (ubr, st)
}

impl PvIndex {
    /// Builds the PV-index for a database: computes every UBR with SE
    /// (work-stealing parallel when [`PvParams::build_threads`] > 1) and
    /// bulk-loads both on-disk structures.
    ///
    /// # Panics
    /// If a construction worker panics; serving layers that must survive
    /// that use [`PvIndex::try_build`].
    pub fn build(db: &UncertainDb, params: PvParams) -> Self {
        match Self::try_build(db, params) {
            Ok(index) => index,
            Err(e) => panic!("PV-index build failed: {e}"),
        }
    }

    /// Fallible [`PvIndex::build`]: a panicking Phase-1 worker surfaces as
    /// [`crate::BuildError::WorkerPanicked`] instead of taking the process down.
    ///
    /// The build is deterministic: for a given database and parameters, any
    /// `build_threads` value yields the same index state — workers steal
    /// fixed-size object batches off a shared cursor, and the merge reorders
    /// their results back into object order before Phase 2 runs.
    ///
    /// # Errors
    /// [`crate::BuildError::WorkerPanicked`] with the first captured panic message;
    /// the remaining workers are drained, not detached.
    pub fn try_build(db: &UncertainDb, params: PvParams) -> Result<Self, crate::BuildError> {
        Self::build_inner(db, params, true)
    }

    /// Legacy per-object insertion build (pre-PR-8 Phase 2): one
    /// `Octree::insert` and one `ExtHash::put` per object. Kept only as the
    /// ground truth for the build-equivalence test suite; the bulk path must
    /// stay logically indistinguishable from it.
    #[doc(hidden)]
    pub fn build_legacy(db: &UncertainDb, params: PvParams) -> Self {
        match Self::build_inner(db, params, false) {
            Ok(index) => index,
            Err(e) => panic!("PV-index build failed: {e}"),
        }
    }

    fn build_inner(
        db: &UncertainDb,
        params: PvParams,
        bulk: bool,
    ) -> Result<Self, crate::BuildError> {
        let t_total = Instant::now();
        let dim = db.dim();
        let pager = MemPager::new(params.page_size);
        let leaf_record_len = 8 + dim * 16;
        let regions: HashMap<u64, HyperRect> = db
            .objects
            .iter()
            .map(|o| (o.id, o.region.clone()))
            .collect();
        let mean_tree = build_mean_tree(
            regions.iter().map(|(&id, r)| (id, r.clone())),
            dim,
            params.rtree_fanout,
        );

        // Phase 1: UBR computation (embarrassingly parallel over objects).
        let compute_one = |o: &UncertainObject| -> (u64, HyperRect, SeStats) {
            if o.id == BUILD_POISON_ID.load(Ordering::Relaxed) {
                panic!("poisoned object {} reached a build worker", o.id);
            }
            let (ubr, st) = se_run(o, &params, &db.domain, &mean_tree, &regions);
            (o.id, ubr, st)
        };
        let mut se_total = SeStats::default();
        let mut ubr_list: Vec<(u64, HyperRect)> = Vec::with_capacity(db.len());
        if params.build_threads <= 1 {
            // The fail-point must fail the serial path too (same contract),
            // via the same capture as a worker thread.
            let objects = &db.objects;
            let batch = std::thread::scope(|scope| {
                scope
                    .spawn(|| objects.iter().map(compute_one).collect::<Vec<_>>())
                    .join()
            })
            .map_err(|p| crate::BuildError::WorkerPanicked {
                message: panic_message(&*p),
            })?;
            for (id, ubr, st) in batch {
                se_total.absorb(&st);
                ubr_list.push((id, ubr));
            }
        } else {
            // Work stealing: workers pull fixed-size object batches off a
            // shared cursor until the range is drained, so one expensive
            // object stalls a single batch, never a static 1/T chunk. Each
            // claimed batch is returned tagged with its index; the merge
            // scatters them back into object order, making the result —
            // and everything downstream of it — independent of scheduling.
            let n = db.len();
            let batches = n.div_ceil(BUILD_BATCH);
            let threads = params.build_threads.min(batches.max(1));
            let cursor = std::sync::atomic::AtomicUsize::new(0);
            type Batch = Vec<(u64, HyperRect, SeStats)>;
            let worker_out: Vec<std::thread::Result<Vec<(usize, Batch)>>> =
                std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..threads)
                        .map(|_| {
                            let cursor = &cursor;
                            let compute_one = &compute_one;
                            scope.spawn(move || {
                                let mut out: Vec<(usize, Batch)> = Vec::new();
                                loop {
                                    let start = cursor.fetch_add(BUILD_BATCH, Ordering::Relaxed);
                                    if start >= n {
                                        return out;
                                    }
                                    let end = (start + BUILD_BATCH).min(n);
                                    out.push((
                                        start / BUILD_BATCH,
                                        db.objects[start..end].iter().map(compute_one).collect(),
                                    ));
                                }
                            })
                        })
                        .collect();
                    // Join every worker before propagating any failure, so
                    // a panic cannot leave threads running detached.
                    handles
                        .into_iter()
                        .map(std::thread::ScopedJoinHandle::join)
                        .collect()
                });
            let mut merged: Vec<Option<Batch>> = (0..batches).map(|_| None).collect();
            let mut first_panic: Option<String> = None;
            for result in worker_out {
                match result {
                    Ok(claimed) => {
                        for (i, batch) in claimed {
                            debug_assert!(merged[i].is_none(), "batch {i} claimed twice");
                            merged[i] = Some(batch);
                        }
                    }
                    Err(payload) => {
                        first_panic.get_or_insert_with(|| panic_message(&*payload));
                    }
                }
            }
            if let Some(message) = first_panic {
                return Err(crate::BuildError::WorkerPanicked { message });
            }
            for batch in merged {
                for (id, ubr, st) in batch.expect("all batches claimed by drained workers") {
                    se_total.absorb(&st);
                    ubr_list.push((id, ubr));
                }
            }
        }

        // Phase 2: load the primary + secondary indexes from the completed
        // catalog. Both paths consume identical inputs in identical order:
        // secondary records in object order, octree records in ascending-id
        // order (the octree path must be deterministic — splits consult the
        // whole catalog, so the insertion sequence shapes the tree).
        let t_insert = Instant::now();
        let quantize = |ubr: HyperRect| -> HyperRect {
            match params.ubr_quantize_steps {
                None => ubr,
                Some(steps) => pv_geom::snap_outward(&ubr, &db.domain, steps),
            }
        };
        let objects: HashMap<u64, UncertainObject> =
            db.objects.iter().map(|o| (o.id, o.clone())).collect();
        let mut ubrs: HashMap<u64, HyperRect> = HashMap::with_capacity(db.len());
        let secondary_records: Vec<(u64, Vec<u8>)> = ubr_list
            .into_iter()
            .map(|(id, ubr)| {
                let ubr = quantize(ubr);
                let record =
                    encode_secondary(&ubr, &objects[&id], &db.domain, params.ubr_quantize_steps);
                ubrs.insert(id, ubr);
                (id, record)
            })
            .collect();
        let mut octree_items: Vec<(u64, HyperRect, Vec<u8>)> = ubrs
            .iter()
            .map(|(&id, ubr)| {
                (
                    id,
                    ubr.clone(),
                    encode_leaf_record(id, &objects[&id].region),
                )
            })
            .collect();
        octree_items.sort_unstable_by_key(|(id, _, _)| *id);

        let (octree, secondary) = if bulk {
            let items: Vec<(HyperRect, Vec<u8>)> = octree_items
                .into_iter()
                .map(|(_, ubr, rec)| (ubr, rec))
                .collect();
            let octree = Octree::bulk_load(
                pager.clone(),
                db.domain.clone(),
                params.mem_budget,
                leaf_record_len,
                &items,
            );
            let secondary = ExtHash::bulk_build(
                pager.clone(),
                secondary_records.iter().map(|(id, r)| (*id, r.as_slice())),
            );
            (octree, secondary)
        } else {
            let mut octree = Octree::new(
                pager.clone(),
                db.domain.clone(),
                params.mem_budget,
                leaf_record_len,
            );
            let mut secondary = ExtHash::new(pager.clone());
            for (id, record) in &secondary_records {
                secondary.put(*id, record);
            }
            let lookup = |i: u64| ubrs[&i].clone();
            for (_, ubr, record) in &octree_items {
                octree.insert(ubr, record, &lookup);
            }
            (octree, secondary)
        };

        let mut index = Self {
            params,
            domain: db.domain.clone(),
            dim,
            octree,
            secondary,
            pager,
            objects,
            regions,
            ubrs,
            mean_tree,
            build_stats: BuildStats::default(),
        };
        index.build_stats = BuildStats {
            total_time: t_total.elapsed(),
            se: se_total,
            insert_time: t_insert.elapsed(),
            ubr_count: index.objects.len(),
        };
        Ok(index)
    }

    /// Number of indexed objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True when the index holds no objects.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Domain covered.
    pub fn domain(&self) -> &HyperRect {
        &self.domain
    }

    /// Parameters used to build / maintain the index.
    pub fn params(&self) -> &PvParams {
        &self.params
    }

    /// Construction statistics of the initial build.
    pub fn build_stats(&self) -> &BuildStats {
        &self.build_stats
    }

    /// Always 0: commits queue no deferred work, so the index holds no
    /// state outside its snapshot. Kept only because the benchmark's
    /// `index.stale_backlog` metric calls it.
    pub fn maintenance_backlog(&self) -> usize {
        0
    }

    /// Applies the optional §VIII compression: snap a UBR outward onto the
    /// configured grid (a no-op when compression is off). Enlargement keeps
    /// `B(o) ⊇ V(o)`, so Step 1 stays exact.
    fn maybe_quantize(&self, ubr: HyperRect) -> HyperRect {
        match self.params.ubr_quantize_steps {
            None => ubr,
            Some(steps) => pv_geom::snap_outward(&ubr, &self.domain, steps),
        }
    }

    /// The UBR of an object.
    pub fn ubr(&self, id: u64) -> Option<&HyperRect> {
        self.ubrs.get(&id)
    }

    /// The object catalog entry.
    pub fn object(&self, id: u64) -> Option<&UncertainObject> {
        self.objects.get(&id)
    }

    /// Every indexed object (arbitrary order).
    pub fn objects(&self) -> impl Iterator<Item = &UncertainObject> {
        self.objects.values()
    }

    /// Every indexed object id, ascending — the canonical fingerprint of an
    /// index state (the concurrency tests match pinned snapshots by it).
    pub fn ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.objects.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// The shared simulated disk (I/O statistics).
    pub fn pager(&self) -> &MemPager {
        &self.pager
    }

    /// Primary-index shape statistics.
    pub fn octree_stats(&self) -> pv_octree::OctreeStats {
        self.octree.stats()
    }

    /// Secondary-index shape statistics.
    pub fn secondary_stats(&self) -> pv_exthash::ExtHashStats {
        self.secondary.stats()
    }

    /// Serialises the index into a single snapshot file at `path`; see
    /// [`crate::snapshot`] for the format. [`PvIndex::load`] restores it in
    /// O(file read) — no SE recomputation.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, crate::snapshot::pv_index_to_bytes(self))
    }

    /// Loads an index saved with [`PvIndex::save`].
    ///
    /// # Errors
    /// I/O errors pass through; a corrupt, truncated or newer-versioned
    /// snapshot yields an [`std::io::ErrorKind::InvalidData`] error wrapping
    /// the precise [`codec::DecodeError`].
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let bytes = std::fs::read(path)?;
        crate::snapshot::pv_index_from_bytes(&bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// The set `A` of §VI-B step 2: ids found by a primary-index range
    /// query, minus those proven unaffected by Lemma 8 (with the erratum
    /// fix: overlapping uncertainty regions ⇒ *unaffected*).
    fn affected_candidates(&self, probe_ubr: &HyperRect, other: &UncertainObject) -> Vec<u64> {
        self.octree
            .range_query(probe_ubr)
            .iter()
            .map(|rec| {
                decode_leaf_record(rec, self.dim)
                    .expect("leaf records are encode_leaf_record output")
            })
            .filter(|(id, _)| *id != other.id)
            .filter(|(_, region)| !region.intersects(&other.region)) // Lemma 8(3)
            .filter(|(id, _)| {
                // Lemma 8(1)/(2) via the UBR proxy: disjoint bounding
                // rectangles certainly mean disjoint PV-cells.
                self.ubrs[id].intersects(probe_ubr)
            })
            .map(|(id, _)| id)
            .collect()
    }

    /// Incrementally inserts a new object (§VI-B "Insertion").
    ///
    /// The new object's UBR comes from the build's own SE run (the
    /// [`PvParams::cset`] candidate set through [`compute_ubr`]), so it is
    /// the UBR a fresh build over the same objects gives it. A new object
    /// can only *shrink* the other PV-cells (Lemma 9), so every neighbour's
    /// UBR stays conservative as it stands: the paper's recomputation of the
    /// affected set `A` would only re-tighten them, and that is left to
    /// [`PvIndex::rebuild`]. With no recomputation there is no affected-set
    /// range query either, so [`UpdateStats::scanned`] and
    /// [`UpdateStats::affected`] are 0 for an insertion.
    ///
    /// # Errors
    /// [`DbError::DuplicateId`] if the id already exists,
    /// [`DbError::OutOfDomain`] if the region escapes the domain; the index
    /// is untouched on error.
    pub fn insert(&mut self, o: UncertainObject) -> Result<UpdateStats, DbError> {
        if self.objects.contains_key(&o.id) {
            return Err(DbError::DuplicateId(o.id));
        }
        if !self.domain.contains_rect(&o.region) {
            return Err(DbError::OutOfDomain(o.id));
        }
        let t0 = Instant::now();

        // Register o' so SE runs against S' = S ∪ {o'}.
        self.mean_tree
            .insert(HyperRect::from_point(&o.region.center()), o.id);
        self.objects.insert(o.id, o.clone());
        self.regions.insert(o.id, o.region.clone());

        // B(S', o') by the build's SE run, then register o' everywhere.
        let (ubr, se) = se_run(
            &o,
            &self.params,
            &self.domain,
            &self.mean_tree,
            &self.regions,
        );
        let ubr = self.maybe_quantize(ubr);
        let record = encode_secondary(&ubr, &o, &self.domain, self.params.ubr_quantize_steps);
        self.secondary.put(o.id, &record);
        self.ubrs.insert(o.id, ubr.clone());
        let record = encode_leaf_record(o.id, &o.region);
        let ubrs = &self.ubrs;
        let lookup = move |i: u64| ubrs[&i].clone();
        self.octree.insert(&ubr, &record, &lookup);

        Ok(UpdateStats {
            time: t0.elapsed(),
            se,
            ..Default::default()
        })
    }

    /// Incrementally removes an object (§VI-B "Deletion"), with no SE run.
    ///
    /// Growing each affected UBR with SE is what makes the paper's deletion
    /// O(|A|) SE runs. A deletion admits a cheap sound bound instead: any
    /// point a neighbour `a` newly wins was previously a possible-NN
    /// location of the deleted `o'` (removing an object only raises the
    /// pruning distance τ at points where `o'` attained it, and there
    /// `distmin(o') ≤ distmax(o') = τ`), hence lies inside `B(S,o')`. So
    /// `V(S',a) ⊆ B(S,a) ∪ B(S,o')` and the rectangle union of the two old
    /// UBRs is a valid new bound, at the cost of a rectangle op instead of
    /// an SE run. The grown UBRs stay loose until [`PvIndex::rebuild`]
    /// re-tightens them.
    ///
    /// # Errors
    /// [`DbError::UnknownId`] if the id is not indexed.
    pub fn remove(&mut self, id: u64) -> Result<UpdateStats, DbError> {
        let o = self.objects.get(&id).ok_or(DbError::UnknownId(id))?.clone();
        let t0 = Instant::now();
        let old_ubr = self.ubrs[&id].clone();

        // Step 2: affected set from a range query with B(S, o').
        let affected = self.affected_candidates(&old_ubr, &o);

        // Step 4a: unregister o' everywhere.
        self.octree.remove(&old_ubr, id);
        self.secondary.remove(id);
        self.ubrs.remove(&id);
        self.objects.remove(&id);
        self.regions.remove(&id);
        self.mean_tree
            .remove(&HyperRect::from_point(&o.region.center()), id);

        // Step 3, by the union bound: every point a neighbour newly wins
        // lies inside B(S, o') — the deleted object was a possible NN there.
        // So the neighbour's *catalog* UBR grows by the sound rectangle
        // union (a bounding box, cheap, possibly loose), while its *leaf
        // records* are extended over B(S, o') only (`insert_covering`
        // dedups), never over the box. Registering under the box instead
        // compounds across deletion storms until every UBR covers the domain
        // and octree leaves split to max depth; keeping leaf coverage tight
        // makes the loose catalog box cost only Lemma-8 filter precision,
        // which a rebuild recovers. The invariant is: an object's records
        // cover at least the leaves its PV-cell touches and at most the
        // leaves its catalog UBR touches.
        let mut leaf_records: Vec<Vec<u8>> = Vec::with_capacity(affected.len());
        for aid in &affected {
            let old = self.ubrs[aid].clone();
            let grown = self.maybe_quantize(old.union(&old_ubr));
            let other = self.objects[aid].clone();
            if grown != old {
                let record =
                    encode_secondary(&grown, &other, &self.domain, self.params.ubr_quantize_steps);
                self.secondary.put(*aid, &record);
                self.ubrs.insert(*aid, grown);
            }
            // Even when the box did not move (B(S, o') inside it), the
            // leaf coverage may not reach all of B(S, o') yet — extend it
            // unconditionally; the dedup scan makes re-covering a no-op.
            leaf_records.push(encode_leaf_record(*aid, &other.region));
        }
        // One batched traversal of the leaves under B(S, o') for the whole
        // affected set, instead of one tree walk per neighbour.
        let record_refs: Vec<&[u8]> = leaf_records.iter().map(Vec::as_slice).collect();
        let ubrs = &self.ubrs;
        let lookup = move |i: u64| ubrs[&i].clone();
        self.octree.insert_covering(&old_ubr, &record_refs, &lookup);

        Ok(UpdateStats {
            time: t0.elapsed(),
            scanned: affected.len(),
            affected: affected.len(),
            ..Default::default()
        })
    }

    /// Rebuilds the index from its current object catalog in place (the
    /// paper's "Rebuild" competitor for Figs. 10(h)/(i)); the one operation
    /// that re-tightens every UBR.
    pub fn rebuild(&mut self) -> BuildStats {
        let (fresh, stats) = self.rebuilt();
        *self = fresh;
        stats
    }
}

impl Step1Engine for PvIndex {
    fn engine_name(&self) -> &'static str {
        "pv-index"
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn len(&self) -> usize {
        self.objects.len()
    }

    /// PNNQ Step 1: descend to the leaf containing `q`, then prune with the
    /// min/max-distance filter (§VI-A "Query Evaluation"). Allocation-free:
    /// streams the leaf records straight from the page chain, computing each
    /// candidate's `distmin²`/`distmax²` from the record bytes — no
    /// rectangle is ever materialised.
    fn step1_into(&self, q: &Point, ids: &mut Vec<u64>, scratch: &mut FetchScratch) -> Step1Stats {
        let t0 = Instant::now();
        let io0 = self.pager.stats().reads.load(Ordering::Relaxed);
        let FetchScratch { octree, cand, .. } = scratch;
        cand.clear();
        let dim = self.dim;
        self.octree.point_query_with(q, octree, |rec| {
            cand.push(leaf_record_dists_sq(rec, dim, q));
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

impl ProbNnEngine for PvIndex {
    fn candidate_region(&self, id: u64) -> &HyperRect {
        // pv-lint: allow(hot-path-no-panic, reason = "id is a Step-1 answer drawn from this index's own catalog; a missing entry is index corruption and must fail loudly")
        &self.objects[&id].region
    }

    /// The Step-2 hot path: copies the secondary record into the scratch
    /// buffer (its real page reads metered with a narrow per-fetch counter
    /// bracket) and streams the instance distances out of the encoded
    /// bytes — no `UncertainObject`, no `HyperRect`, no `Point` is
    /// materialised. Returns the index reads plus the modelled pdf-payload
    /// pages.
    fn fetch_dists_sq(
        &self,
        id: u64,
        q: &Point,
        out: &mut Vec<f64>,
        scratch: &mut FetchScratch,
    ) -> u64 {
        let io0 = self.pager.stats().reads.load(Ordering::Relaxed);
        let found = self
            .secondary
            .get_into(id, &mut scratch.page, &mut scratch.record);
        assert!(found, "step-1 answer must exist in the secondary index");
        let io = self.pager.stats().reads.load(Ordering::Relaxed) - io0;
        let off = secondary_payload_offset(&scratch.record, self.dim)
            .expect("secondary record corrupted"); // pv-lint: allow(hot-path-no-panic, reason = "get_into just returned true, so the record was fetched from this index's own secondary; a malformed header is corruption and must fail loudly")
        let view =
            pv_uncertain::EncodedObject::parse(scratch.record.get(off..).unwrap_or_default())
                .expect("secondary record corrupted"); // pv-lint: allow(hot-path-no-panic, reason = "payload offset was just validated by secondary_payload_offset; a malformed payload is corruption and must fail loudly")
        view.dists_sq_into(q, &mut scratch.samples, out);
        io + payload_pages(view.n_samples(), self.dim, self.params.page_size)
    }
}

/// Copy-on-write support for the [`crate::db::Db`] facade.
///
/// [`WritableEngine::fork`] is *page-level copy-on-write* (since PR 6; it
/// used to round-trip the whole index through the snapshot codec, which made
/// every commit O(index)):
///
/// * the simulated disk is forked with [`MemPager::fork`] — page bytes stay
///   physically shared and are copied only when the writer overwrites them;
/// * the octree arena and the hash directory fork structurally
///   ([`Octree::fork`], [`ExtHash::fork`]), cloning along mutation paths
///   only;
/// * the in-memory catalogs (objects, regions, UBRs, mean tree) are cloned —
///   they are small (no sample data; pdfs are `(n, seed)` descriptors), so
///   this is microseconds, not the 0.4 s the codec round-trip cost.
///
/// The fork is observationally independent: no mutation on either side is
/// visible to the other, which `tests/cow_sharing.rs` proves over randomized
/// commit sequences against a `LinearScan` ground truth. Canonical
/// serialisation is unaffected — [`crate::snapshot::pv_index_to_bytes`]
/// dumps page *contents*, never sharing metadata.
impl WritableEngine for PvIndex {
    fn fork(&self) -> Self {
        let pager = self.pager.fork();
        Self {
            params: self.params,
            domain: self.domain.clone(),
            dim: self.dim,
            octree: self.octree.fork(pager.clone()),
            secondary: self.secondary.fork(pager.clone()),
            pager,
            objects: self.objects.clone(),
            regions: self.regions.clone(),
            ubrs: self.ubrs.clone(),
            mean_tree: self.mean_tree.clone(),
            build_stats: self.build_stats.clone(),
        }
    }

    fn apply_insert(&mut self, o: UncertainObject) -> Result<UpdateStats, DbError> {
        self.insert(o)
    }

    fn apply_remove(&mut self, id: u64) -> Result<UpdateStats, DbError> {
        self.remove(id)
    }

    /// A fresh [`PvIndex::build`] over the current object catalog.
    fn rebuilt(&self) -> (Self, BuildStats) {
        let db = UncertainDb::new(
            self.domain.clone(),
            self.objects.values().cloned().collect(),
        );
        let fresh = PvIndex::build(&db, self.params);
        let stats = fresh.build_stats.clone();
        (fresh, stats)
    }
}

impl PersistentEngine for PvIndex {
    fn snapshot_bytes(&self) -> std::io::Result<Vec<u8>> {
        Ok(crate::snapshot::pv_index_to_bytes(self))
    }

    fn from_snapshot_bytes(bytes: &[u8]) -> std::io::Result<Self> {
        crate::snapshot::pv_index_from_bytes(bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QuerySpec;
    use crate::verify;
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

    fn check_queries(index: &PvIndex, db_objects: &[UncertainObject], seeds: u64) {
        let qs = queries::uniform(index.domain(), 25, seeds);
        for q in qs {
            let (got, _) = index.step1(&q);
            let want = verify::possible_nn(db_objects.iter(), &q);
            assert_eq!(got, want, "q = {q:?}");
        }
    }

    #[test]
    fn step1_matches_naive_2d() {
        let db = small_db(300, 2, 1);
        let index = PvIndex::build(&db, PvParams::default());
        check_queries(&index, &db.objects, 11);
    }

    #[test]
    fn step1_matches_naive_3d() {
        let db = small_db(250, 3, 2);
        let index = PvIndex::build(&db, PvParams::default());
        check_queries(&index, &db.objects, 13);
    }

    #[test]
    fn step1_matches_naive_with_fs() {
        let db = small_db(300, 2, 3);
        let index = PvIndex::build(&db, PvParams::with_fs(40));
        check_queries(&index, &db.objects, 17);
    }

    #[test]
    fn full_query_probabilities_sum_to_one() {
        let db = small_db(200, 2, 4);
        let index = PvIndex::build(&db, PvParams::default());
        for q in queries::uniform(&db.domain, 10, 19) {
            let out = index.execute(&q, &QuerySpec::new()).unwrap();
            let total: f64 = out.answers.iter().map(|(_, p)| p).sum();
            assert!((total - 1.0).abs() < 1e-6, "sum {total}");
            assert!(out.stats.pc_io_reads > 0);
        }
    }

    #[test]
    fn parallel_build_equals_serial_build() {
        let db = small_db(150, 2, 5);
        let serial = PvIndex::build(&db, PvParams::default());
        let parallel = PvIndex::build(
            &db,
            PvParams {
                build_threads: 4,
                ..Default::default()
            },
        );
        for o in &db.objects {
            assert_eq!(
                serial.ubr(o.id).unwrap(),
                parallel.ubr(o.id).unwrap(),
                "UBR of {} differs between serial and parallel builds",
                o.id
            );
        }
    }

    #[test]
    fn insert_keeps_queries_exact() {
        let mut db = small_db(200, 2, 6);
        let mut index = PvIndex::build(&db, PvParams::default());
        let extra = small_db(20, 2, 777);
        for (i, mut o) in extra.objects.into_iter().enumerate() {
            o.id = 50_000 + i as u64;
            db.objects.push(o.clone());
            index.insert(o).unwrap();
        }
        check_queries(&index, &db.objects, 23);
    }

    #[test]
    fn remove_keeps_queries_exact() {
        let mut db = small_db(200, 2, 7);
        let mut index = PvIndex::build(&db, PvParams::default());
        for id in (0..200u64).step_by(7) {
            assert!(index.remove(id).is_ok());
        }
        db.objects.retain(|o| o.id % 7 != 0);
        check_queries(&index, &db.objects, 29);
    }

    #[test]
    fn mixed_updates_match_rebuild() {
        let mut db = small_db(150, 2, 8);
        let mut index = PvIndex::build(&db, PvParams::default());
        // interleave deletions and insertions
        for id in [3u64, 17, 42, 99, 140] {
            index.remove(id).unwrap();
            db.objects.retain(|o| o.id != id);
        }
        let extra = small_db(10, 2, 888);
        for (i, mut o) in extra.objects.into_iter().enumerate() {
            o.id = 60_000 + i as u64;
            db.objects.push(o.clone());
            index.insert(o).unwrap();
        }
        // compare against a fresh build
        let fresh = PvIndex::build(&db, PvParams::default());
        for q in queries::uniform(&db.domain, 25, 31) {
            let (a, _) = index.step1(&q);
            let (b, _) = fresh.step1(&q);
            assert_eq!(a, b, "incremental index diverged from rebuild");
        }
        check_queries(&index, &db.objects, 37);
    }

    #[test]
    fn remove_unknown_is_a_typed_error() {
        let db = small_db(50, 2, 9);
        let mut index = PvIndex::build(&db, PvParams::default());
        assert!(matches!(
            index.remove(123_456),
            Err(DbError::UnknownId(123_456))
        ));
        assert_eq!(index.len(), 50);
    }

    #[test]
    fn insert_duplicate_or_escaping_is_a_typed_error() {
        let db = small_db(50, 2, 10);
        let mut index = PvIndex::build(&db, PvParams::default());
        let dup = db.objects[0].clone();
        let dup_id = dup.id;
        assert!(matches!(index.insert(dup), Err(DbError::DuplicateId(id)) if id == dup_id));
        let mut escapee = db.objects[1].clone();
        escapee.id = 999_999;
        escapee.region = HyperRect::new(vec![-10.0, -10.0], vec![-5.0, -5.0]);
        assert!(matches!(
            index.insert(escapee),
            Err(DbError::OutOfDomain(999_999))
        ));
        assert_eq!(index.len(), 50, "failed inserts must not mutate");
    }

    #[test]
    fn ubrs_contain_uncertainty_regions() {
        let db = small_db(150, 3, 11);
        let index = PvIndex::build(&db, PvParams::default());
        for o in &db.objects {
            assert!(index.ubr(o.id).unwrap().contains_rect(&o.region));
        }
    }

    #[test]
    fn query_io_is_counted() {
        let db = small_db(400, 2, 12);
        let index = PvIndex::build(&db, PvParams::default());
        let q = queries::uniform(&db.domain, 1, 41)[0].clone();
        let (_, st) = index.step1(&q);
        assert!(st.io_reads >= 1, "leaf pages must be charged");
    }

    #[test]
    fn build_stats_are_populated() {
        let db = small_db(100, 2, 13);
        let index = PvIndex::build(&db, PvParams::default());
        let bs = index.build_stats();
        assert_eq!(bs.ubr_count, 100);
        assert!(bs.se.slab_tests > 0);
        assert!(bs.avg_cset_size() > 0.0);
        assert!(bs.total_time.as_nanos() > 0);
    }

    #[test]
    fn secondary_round_trip() {
        let db = small_db(60, 2, 14);
        let index = PvIndex::build(&db, PvParams::default());
        let o = &db.objects[5];
        let buf = index.secondary.get(o.id).unwrap();
        let (ubr, obj) = decode_secondary(&buf, 2, index.domain()).unwrap();
        assert_eq!(&ubr, index.ubr(o.id).unwrap());
        assert_eq!(&obj, o);
        // corruption is reported, not panicked on
        let mut bad = buf.clone();
        bad[0] = 0x7F;
        bad[1] = 0x7F;
        assert!(matches!(
            decode_secondary(&bad, 2, index.domain()),
            Err(codec::DecodeError::UnknownTag {
                context: "secondary record",
                ..
            })
        ));
        assert!(matches!(
            decode_secondary(&buf[..buf.len() - 4], 2, index.domain()),
            Err(codec::DecodeError::Truncated { .. })
        ));
    }

    #[test]
    fn quantized_ubrs_keep_queries_exact() {
        // §VIII compression extension: snapped-outward UBRs may admit more
        // candidates, but Step 1 must stay exact.
        let db = small_db(250, 2, 15);
        let index = PvIndex::build(
            &db,
            PvParams {
                ubr_quantize_steps: Some(4_096),
                ..Default::default()
            },
        );
        check_queries(&index, &db.objects, 43);
        // and the stored UBRs still contain the uncertainty regions
        for o in &db.objects {
            assert!(index.ubr(o.id).unwrap().contains_rect(&o.region));
        }
    }

    #[test]
    fn quantized_secondary_roundtrip_and_size() {
        let db = small_db(60, 3, 16);
        let plain = PvIndex::build(&db, PvParams::default());
        let packed = PvIndex::build(
            &db,
            PvParams {
                ubr_quantize_steps: Some(65_535),
                ..Default::default()
            },
        );
        let o = &db.objects[7];
        let buf = packed.secondary.get(o.id).unwrap();
        let (ubr, obj) = decode_secondary(&buf, 3, packed.domain()).unwrap();
        assert_eq!(&ubr, packed.ubr(o.id).unwrap());
        assert_eq!(&obj, o);
        // the quantized record is strictly smaller (48-byte corners → 14)
        let plain_buf = plain.secondary.get(o.id).unwrap();
        assert!(buf.len() < plain_buf.len());
        // enlargement only: the packed UBR contains the plain one
        assert!(packed
            .ubr(o.id)
            .unwrap()
            .contains_rect(plain.ubr(o.id).unwrap()));
    }

    #[test]
    fn quantized_updates_stay_exact() {
        let mut db = small_db(150, 2, 17);
        let mut index = PvIndex::build(
            &db,
            PvParams {
                ubr_quantize_steps: Some(4_096),
                ..Default::default()
            },
        );
        for id in (0..150u64).step_by(11) {
            index.remove(id).unwrap();
        }
        db.objects.retain(|o| o.id % 11 != 0);
        let extra = small_db(15, 2, 1717);
        for (i, mut o) in extra.objects.into_iter().enumerate() {
            o.id = 40_000 + i as u64;
            db.objects.push(o.clone());
            index.insert(o).unwrap();
        }
        check_queries(&index, &db.objects, 47);
    }
}
