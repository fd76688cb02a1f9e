//! Persistent index snapshots: build once, serve from disk forever after.
//!
//! [`crate::PvIndex::build`] is by far the most expensive operation in the
//! suite (every object pays a full SE run), yet the artifact it produces is
//! exactly what the paper envisions living on disk. This module serialises a
//! built [`PvIndex`] — simulated-disk image, octree UV-partition arena,
//! extendible-hash directory, object/UBR catalogs, parameters and build
//! statistics — into a single versioned, checksummed file that loads back in
//! O(file read), answering byte-identical to the freshly built index.
//!
//! File layout (shared [`pv_storage::snapshot`] envelope):
//!
//! ```text
//! "PVSN" | kind | version: u16 | payload … | fnv1a64 checksum: u64
//! ```
//!
//! PV-index payload (kind `PVIX`, version 4), in order: [`PvParams`],
//! domain, [`BuildStats`], object catalog (ids ascending), UBR catalog (same
//! order), raw [`MemPager`] image, octree arena
//! ([`pv_octree::Octree::to_snapshot`]) and hash directory
//! ([`pv_exthash::ExtHash::to_snapshot`]). The R-tree baseline (kind
//! `PVRT`) stores its object catalog and re-runs the deterministic bulk
//! load; the UV-index snapshot lives in `pv-uvindex` (kind `PVUV`) and is
//! built from the rect/duration helpers exported here.
//!
//! Corruption — truncation, bit flips, wrong file kind, future versions —
//! surfaces as a [`DecodeError`] (wrapped in
//! [`std::io::ErrorKind::InvalidData`] by the path-based `save`/`load`
//! wrappers), never as a panic.

#![deny(
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss
)]

use crate::baseline::RTreeBaseline;
use crate::cset::build_mean_tree;
use crate::params::{CSetStrategy, PvParams};
use crate::stats::{BuildStats, SeStats};
use crate::PvIndex;
use pv_exthash::ExtHash;
use pv_geom::HyperRect;
use pv_octree::Octree;
use pv_storage::codec::{self, DecodeError};
use pv_storage::snapshot::{open_snapshot, SnapshotWriter};
use pv_storage::{MemPager, Pager};
use pv_uncertain::UncertainObject;
use std::collections::HashMap;
use std::time::Duration;

/// Artifact kind of PV-index snapshots.
pub const PV_INDEX_KIND: [u8; 4] = *b"PVIX";
/// Artifact kind of R-tree baseline snapshots.
pub const RTREE_KIND: [u8; 4] = *b"PVRT";
/// The one PV-index snapshot version this build reads and writes.
/// Since version 3 the format is *canonical*: the disk image is re-emitted
/// from the logical state at save time, wall-clock durations are zeroed and
/// `build_threads` is not stored, so any two logically equal indexes —
/// fresh or reached by commits, built at any thread count — serialise to
/// identical bytes. Version 4 dropped the two commit-path parameters (a
/// separate update candidate set and a re-tightening budget) from the params
/// block.
/// Older files are rejected rather than mis-decoded: their params layouts
/// differ, and version 2 also embedded a build-order-dependent page image.
pub const PV_INDEX_VERSION: u16 = 4;
/// Highest R-tree baseline snapshot version this build reads/writes.
/// Version 2 (PR 5) added the stored domain; version-1 files (no domain,
/// different byte layout) are rejected rather than mis-decoded.
pub const RTREE_VERSION: u16 = 2;

// ---------------------------------------------------------------------------
// Shared field codecs (also used by the UV-index snapshot in `pv-uvindex`).
// ---------------------------------------------------------------------------

/// Serialises a rectangle as `2d × f64` corners (dimension known from
/// context).
pub fn put_rect(out: &mut Vec<u8>, r: &HyperRect) {
    for &x in r.lo() {
        codec::put_f64(out, x);
    }
    for &x in r.hi() {
        codec::put_f64(out, x);
    }
}

/// Reads a rectangle written by [`put_rect`].
///
/// # Errors
/// [`DecodeError::Truncated`] when the corners run past the buffer, and
/// [`DecodeError::Invalid`] when a corner is NaN or `lo > hi` on some axis.
pub fn try_rect(r: &mut codec::Reader, dim: usize) -> Result<HyperRect, DecodeError> {
    let lo: Vec<f64> = (0..dim).map(|_| r.try_f64()).collect::<Result<_, _>>()?;
    let hi: Vec<f64> = (0..dim).map(|_| r.try_f64()).collect::<Result<_, _>>()?;
    HyperRect::try_new(lo, hi).ok_or(DecodeError::Invalid {
        context: "snapshot rectangle corners",
    })
}

/// Serialises a duration as nanoseconds (u64, saturating).
pub fn put_duration(out: &mut Vec<u8>, d: Duration) {
    codec::put_u64(out, u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
}

/// Reads a duration written by [`put_duration`].
pub fn try_duration(r: &mut codec::Reader) -> Result<Duration, DecodeError> {
    Ok(Duration::from_nanos(r.try_u64()?))
}

/// Serialises construction statistics (they describe the snapshotted build,
/// so a warm restart can still report how expensive the cold build was).
pub fn put_build_stats(out: &mut Vec<u8>, bs: &BuildStats) {
    put_duration(out, bs.total_time);
    put_duration(out, bs.insert_time);
    codec::put_u64(out, bs.ubr_count as u64);
    put_duration(out, bs.se.cset_time);
    put_duration(out, bs.se.refine_time);
    codec::put_u64(out, bs.se.cset_size as u64);
    codec::put_u64(out, bs.se.slab_tests);
    codec::put_u64(out, bs.se.shrinks);
    codec::put_u64(out, bs.se.expands);
    codec::put_u64(out, bs.se.dom_tests);
    codec::put_u64(out, bs.se.partitions);
}

/// Reads construction statistics written by [`put_build_stats`].
pub fn try_build_stats(r: &mut codec::Reader) -> Result<BuildStats, DecodeError> {
    Ok(BuildStats {
        total_time: try_duration(r)?,
        insert_time: try_duration(r)?,
        ubr_count: r.try_usize("build stats UBR count")?,
        se: SeStats {
            cset_time: try_duration(r)?,
            refine_time: try_duration(r)?,
            cset_size: r.try_usize("build stats C-set size")?,
            slab_tests: r.try_u64()?,
            shrinks: r.try_u64()?,
            expands: r.try_u64()?,
            dom_tests: r.try_u64()?,
            partitions: r.try_u64()?,
        },
    })
}

/// Serialises the raw disk image of a [`MemPager`] — live pages verbatim,
/// freed slots as holes — so page ids survive the round trip.
pub fn put_pager_image(out: &mut Vec<u8>, pager: &MemPager) {
    let image = pager.image();
    codec::put_u32_len(out, pager.page_size());
    codec::put_u64(out, image.len() as u64);
    for slot in image {
        match slot {
            Some(page) => {
                codec::put_u8(out, 1);
                out.extend_from_slice(&page);
            }
            None => codec::put_u8(out, 0),
        }
    }
}

/// Reconstructs a [`MemPager`] from an image written by
/// [`put_pager_image`].
pub fn try_pager_image(r: &mut codec::Reader) -> Result<MemPager, DecodeError> {
    let page_size = r.try_u32()? as usize;
    // Mirror MemPager::new's own lower bound so corruption here is an error,
    // not a downstream panic. No upper bound: any page size a pager was
    // actually built with must load back (oversized values from corruption
    // fail as Truncated when the page bytes aren't there).
    if page_size < 64 {
        return Err(DecodeError::Invalid {
            context: "pager image page size",
        });
    }
    let slots = r.try_usize("pager image slot count")?;
    let mut image = Vec::with_capacity(slots.min(1 << 20));
    for _ in 0..slots {
        match r.try_u8()? {
            1 => image.push(Some(r.try_take(page_size)?)),
            0 => image.push(None),
            t => {
                return Err(DecodeError::UnknownTag {
                    context: "pager image slot",
                    tag: t.into(),
                })
            }
        }
    }
    Ok(MemPager::from_image(page_size, image))
}

/// Serialises an object catalog in ascending-id order (deterministic bytes
/// for identical indexes) and returns that order, so callers writing
/// parallel per-object sequences (UBRs) provably match the reader's pairing.
fn put_objects(out: &mut Vec<u8>, objects: &HashMap<u64, UncertainObject>) -> Vec<u64> {
    let mut ids: Vec<u64> = objects.keys().copied().collect();
    ids.sort_unstable();
    codec::put_u64(out, ids.len() as u64);
    for id in &ids {
        codec::put_bytes(out, &objects[id].encode());
    }
    ids
}

/// Reads a catalog written by `put_objects`, returning objects in stored
/// (ascending-id) order.
fn try_objects(r: &mut codec::Reader) -> Result<Vec<UncertainObject>, DecodeError> {
    let n = r.try_usize("object catalog length")?;
    let mut out = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let rec = r.try_bytes()?;
        out.push(UncertainObject::try_decode(&rec)?);
    }
    Ok(out)
}

fn put_params(out: &mut Vec<u8>, p: &PvParams) {
    codec::put_f64(out, p.delta);
    codec::put_u32_len(out, p.mmax);
    put_cset(out, p.cset);
    codec::put_u32_len(out, p.page_size);
    codec::put_u64(out, p.mem_budget as u64);
    codec::put_u32_len(out, p.rtree_fanout);
    // Since v3, snapshots deliberately omit `build_threads`: the thread
    // count shapes nothing in the artifact (builds are deterministic across
    // it), and storing it would make otherwise-identical indexes differ.
    match p.ubr_quantize_steps {
        None => codec::put_u16(out, 0),
        Some(steps) => {
            codec::put_u16(out, 1);
            codec::put_u16(out, steps);
        }
    }
    // Approximate-UBR threshold, so a loaded index keeps relaxing SE the
    // same way when it inserts.
    codec::put_f64(out, p.approx_epsilon);
}

fn put_cset(out: &mut Vec<u8>, strategy: CSetStrategy) {
    match strategy {
        CSetStrategy::All => codec::put_u16(out, 0),
        CSetStrategy::Fixed { k } => {
            codec::put_u16(out, 1);
            codec::put_u32_len(out, k);
        }
        CSetStrategy::Incremental {
            k_partition,
            k_global,
        } => {
            codec::put_u16(out, 2);
            codec::put_u32_len(out, k_partition);
            codec::put_u32_len(out, k_global);
        }
    }
}

fn try_cset(r: &mut codec::Reader) -> Result<CSetStrategy, DecodeError> {
    Ok(match r.try_u16()? {
        0 => CSetStrategy::All,
        1 => CSetStrategy::Fixed {
            k: r.try_u32()? as usize,
        },
        2 => CSetStrategy::Incremental {
            k_partition: r.try_u32()? as usize,
            k_global: r.try_u32()? as usize,
        },
        t => {
            return Err(DecodeError::UnknownTag {
                context: "cset strategy",
                tag: t,
            })
        }
    })
}

fn try_params(r: &mut codec::Reader) -> Result<PvParams, DecodeError> {
    let delta = r.try_f64()?;
    let mmax = r.try_u32()? as usize;
    let cset = try_cset(r)?;
    let page_size = r.try_u32()? as usize;
    let mem_budget = r.try_usize("memory budget")?;
    let rtree_fanout = r.try_u32()? as usize;
    let ubr_quantize_steps = match r.try_u16()? {
        0 => None,
        1 => Some(r.try_u16()?),
        t => {
            return Err(DecodeError::UnknownTag {
                context: "quantize option",
                tag: t,
            })
        }
    };
    let approx_epsilon = r.try_f64()?;
    if !(approx_epsilon.is_finite() && approx_epsilon >= 0.0) {
        return Err(DecodeError::Invalid {
            context: "approx epsilon",
        });
    }
    Ok(PvParams {
        delta,
        mmax,
        cset,
        page_size,
        mem_budget,
        rtree_fanout,
        // Not stored (since v3): the thread count is a build-machine
        // choice, not index state. A loaded index defaults to serial
        // rebuilds.
        build_threads: 1,
        ubr_quantize_steps,
        approx_epsilon,
    })
}

// ---------------------------------------------------------------------------
// PV-index snapshots.
// ---------------------------------------------------------------------------

/// Serialises a built [`PvIndex`] into snapshot bytes (kind `PVIX`).
///
/// The serialisation is **canonical**: instead of dumping the live pager
/// (whose page ids record the build's allocation history), the octree leaves
/// and the secondary hash table are re-emitted onto a fresh disk in a fixed
/// order — leaf records id-sorted, hash records re-encoded from the id
/// catalogs — and all wall-clock durations are zeroed. Two logically equal
/// indexes therefore produce identical bytes whatever page history built
/// them (a build's or a commit's page writes, any `build_threads`), which
/// is what the build-equivalence suite asserts on.
pub fn pv_index_to_bytes(index: &PvIndex) -> Vec<u8> {
    let mut w = SnapshotWriter::new(PV_INDEX_KIND, PV_INDEX_VERSION);
    let out = w.buf();
    put_params(out, &index.params);
    codec::put_u16_len(out, index.dim);
    put_rect(out, &index.domain);
    let stats = BuildStats {
        total_time: Duration::ZERO,
        insert_time: Duration::ZERO,
        ubr_count: index.build_stats.ubr_count,
        se: SeStats {
            cset_time: Duration::ZERO,
            refine_time: Duration::ZERO,
            ..index.build_stats.se
        },
    };
    put_build_stats(out, &stats);
    let ids = put_objects(out, &index.objects);
    for id in &ids {
        put_rect(out, &index.ubrs[id]);
    }
    // Canonical disk image: octree leaves first (records id-sorted within
    // each leaf), then a fresh hash table that `put`s the re-encoded
    // records in id order. Allocation order on the fresh pager is thereby
    // a pure function of the logical state.
    let fresh = MemPager::new(index.params.page_size);
    let octree = index.octree.reemit_canonical(fresh.clone());
    let mut secondary = ExtHash::new(fresh.clone());
    for id in &ids {
        let record = crate::index::encode_secondary(
            &index.ubrs[id],
            &index.objects[id],
            &index.domain,
            index.params.ubr_quantize_steps,
        );
        secondary.put(*id, &record);
    }
    put_pager_image(out, &fresh);
    codec::put_bytes(out, &octree.to_snapshot());
    codec::put_bytes(out, &secondary.to_snapshot());
    w.finish()
}

/// Reconstructs a [`PvIndex`] from [`pv_index_to_bytes`] output.
///
/// The octree, hash table and disk image come back exactly as saved, so
/// queries read the same pages — and return the same answers — as against
/// the original index. Only the `chooseCSet` bootstrap R-tree (not used by
/// queries) is rebuilt, deterministically, from the stored catalog.
///
/// # Errors
/// Any corruption or version skew as a [`DecodeError`]; never panics.
pub fn pv_index_from_bytes(bytes: &[u8]) -> Result<PvIndex, DecodeError> {
    let (mut r, version) =
        open_snapshot(bytes, PV_INDEX_KIND, "PV-index snapshot", PV_INDEX_VERSION)?;
    if version < PV_INDEX_VERSION {
        // Older params blocks carry fields this layout does not (v3: the
        // update candidate set and budget; v2 also `build_threads` and a
        // non-canonical page image), so reject cleanly instead of reading
        // garbage.
        return Err(DecodeError::UnsupportedVersion {
            context: "PV-index snapshot",
            found: version,
            supported: PV_INDEX_VERSION,
        });
    }
    let params = try_params(&mut r)?;
    let dim = r.try_u16()? as usize;
    if dim == 0 || dim > 16 {
        return Err(DecodeError::Invalid {
            context: "PV-index snapshot dimensionality",
        });
    }
    let domain = try_rect(&mut r, dim)?;
    let build_stats = try_build_stats(&mut r)?;
    let object_list = try_objects(&mut r)?;
    let mut ubrs = HashMap::with_capacity(object_list.len());
    for o in &object_list {
        if o.region.dim() != dim {
            return Err(DecodeError::Invalid {
                context: "PV-index snapshot object dimensionality",
            });
        }
        ubrs.insert(o.id, try_rect(&mut r, dim)?);
    }
    let pager = try_pager_image(&mut r)?;
    let octree = Octree::from_snapshot(pager.clone(), &r.try_bytes()?)?;
    let secondary = ExtHash::from_snapshot(pager.clone(), &r.try_bytes()?)?;

    let regions: HashMap<u64, HyperRect> = object_list
        .iter()
        .map(|o| (o.id, o.region.clone()))
        .collect();
    // The bootstrap mean-position R-tree only feeds chooseCSet during
    // updates; rebuilding it from the id-sorted catalog is deterministic and
    // touches no query path.
    let mean_tree = build_mean_tree(
        object_list.iter().map(|o| (o.id, o.region.clone())),
        dim,
        params.rtree_fanout,
    );
    Ok(PvIndex {
        params,
        domain,
        dim,
        octree,
        secondary,
        pager,
        objects: object_list.into_iter().map(|o| (o.id, o)).collect(),
        regions,
        ubrs,
        mean_tree,
        build_stats,
    })
}

// ---------------------------------------------------------------------------
// R-tree baseline snapshots.
// ---------------------------------------------------------------------------

/// Serialises an [`RTreeBaseline`] (kind `PVRT`): domain, object catalog
/// and the bulk-load parameters — the tree itself is deterministic to
/// rebuild and orders of magnitude cheaper than the objects' SE-free bulk
/// load.
pub fn rtree_baseline_to_bytes(b: &RTreeBaseline) -> Vec<u8> {
    let mut w = SnapshotWriter::new(RTREE_KIND, RTREE_VERSION);
    let out = w.buf();
    codec::put_u16_len(out, b.tree.dim());
    codec::put_u32_len(out, b.fanout);
    codec::put_u32_len(out, b.page_size);
    put_rect(out, &b.domain);
    put_objects(out, &b.objects);
    w.finish()
}

/// Reconstructs an [`RTreeBaseline`] from [`rtree_baseline_to_bytes`]
/// output.
///
/// # Errors
/// Any corruption or version skew as a [`DecodeError`]; never panics.
pub fn rtree_baseline_from_bytes(bytes: &[u8]) -> Result<RTreeBaseline, DecodeError> {
    let (mut r, version) = open_snapshot(bytes, RTREE_KIND, "R-tree snapshot", RTREE_VERSION)?;
    if version < RTREE_VERSION {
        // Version 1 lacks the domain field, so its bytes cannot be decoded
        // by this layout; reject cleanly instead of reading garbage.
        return Err(DecodeError::UnsupportedVersion {
            context: "R-tree snapshot",
            found: version,
            supported: RTREE_VERSION,
        });
    }
    let dim = r.try_u16()? as usize;
    let fanout = r.try_u32()? as usize;
    let page_size = r.try_u32()? as usize;
    if dim == 0 || dim > 16 {
        return Err(DecodeError::Invalid {
            context: "R-tree snapshot dimensionality",
        });
    }
    if fanout < 4 {
        return Err(DecodeError::Invalid {
            context: "R-tree snapshot fanout",
        });
    }
    let domain = try_rect(&mut r, dim)?;
    let object_list = try_objects(&mut r)?;
    let entries: Vec<pv_rtree::Entry> = object_list
        .iter()
        .map(|o| pv_rtree::Entry {
            rect: o.region.clone(),
            id: o.id,
        })
        .collect();
    let tree = pv_rtree::RTree::bulk_load(dim, pv_rtree::RTreeParams::with_fanout(fanout), entries);
    Ok(RTreeBaseline {
        tree,
        objects: object_list.into_iter().map(|o| (o.id, o)).collect(),
        page_size,
        fanout,
        domain,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{ProbNnEngine, QuerySpec, Step1Engine};
    use pv_workload::{queries, synthetic, SyntheticConfig};

    fn db(n: usize, dim: usize, seed: u64) -> pv_uncertain::UncertainDb {
        synthetic(&SyntheticConfig {
            n,
            dim,
            max_side: 180.0,
            samples: 12,
            seed,
        })
    }

    #[test]
    fn try_rect_rejects_inverted_and_nan_corners() {
        for corners in [[5.0, 5.0, 1.0, 1.0], [f64::NAN, 0.0, 1.0, 1.0]] {
            let mut buf = Vec::new();
            for x in corners {
                codec::put_f64(&mut buf, x);
            }
            assert!(
                matches!(
                    try_rect(&mut codec::Reader::new(&buf), 2),
                    Err(DecodeError::Invalid { .. })
                ),
                "corners {corners:?}"
            );
        }
    }

    #[test]
    fn pv_index_roundtrips_bit_for_bit() {
        let db = db(220, 2, 91);
        let index = PvIndex::build(&db, PvParams::default());
        let bytes = pv_index_to_bytes(&index);
        let loaded = pv_index_from_bytes(&bytes).unwrap();
        assert_eq!(loaded.len(), index.len());
        assert_eq!(loaded.dim(), index.dim());
        assert_eq!(
            loaded.build_stats().ubr_count,
            index.build_stats().ubr_count
        );
        for q in queries::uniform(index.domain(), 30, 17) {
            assert_eq!(
                loaded.execute(&q, &QuerySpec::new()).unwrap().answers,
                index.execute(&q, &QuerySpec::new()).unwrap().answers,
                "loaded index diverged at {q:?}"
            );
        }
        // a snapshot of the loaded index is byte-identical: the format is
        // canonical (id-sorted catalogs, verbatim page image)
        assert_eq!(pv_index_to_bytes(&loaded), bytes);
    }

    #[test]
    fn pv_index_roundtrip_3d_quantized() {
        let db = db(150, 3, 92);
        let index = PvIndex::build(
            &db,
            PvParams {
                ubr_quantize_steps: Some(4_096),
                ..Default::default()
            },
        );
        let loaded = pv_index_from_bytes(&pv_index_to_bytes(&index)).unwrap();
        assert_eq!(loaded.params().ubr_quantize_steps, Some(4_096));
        for q in queries::uniform(index.domain(), 15, 19) {
            assert_eq!(loaded.step1(&q).0, index.step1(&q).0);
        }
    }

    #[test]
    fn loaded_index_still_accepts_updates() {
        let db = db(150, 2, 93);
        let index = PvIndex::build(&db, PvParams::default());
        let mut loaded = pv_index_from_bytes(&pv_index_to_bytes(&index)).unwrap();
        // mutate the loaded copy: removals and inserts must keep Step 1 exact
        let mut objects = db.objects.clone();
        for id in (0..150u64).step_by(13) {
            assert!(loaded.remove(id).is_ok());
        }
        objects.retain(|o| o.id % 13 != 0);
        let extra = self::db(15, 2, 931);
        for (i, mut o) in extra.objects.into_iter().enumerate() {
            o.id = 70_000 + i as u64;
            objects.push(o.clone());
            loaded.insert(o).unwrap();
        }
        for q in queries::uniform(loaded.domain(), 20, 23) {
            let (got, _) = loaded.step1(&q);
            assert_eq!(got, crate::verify::possible_nn(objects.iter(), &q));
        }
    }

    #[test]
    fn rtree_baseline_roundtrips() {
        let db = db(200, 3, 94);
        let baseline = RTreeBaseline::build(&db, 16, 4096);
        let loaded = rtree_baseline_from_bytes(&rtree_baseline_to_bytes(&baseline)).unwrap();
        assert_eq!(loaded.len(), baseline.len());
        for q in queries::uniform(&db.domain, 25, 29) {
            assert_eq!(
                loaded.execute(&q, &QuerySpec::new()).unwrap().answers,
                baseline.execute(&q, &QuerySpec::new()).unwrap().answers
            );
        }
    }

    #[test]
    fn wrong_kind_is_rejected() {
        let db = db(30, 2, 95);
        let baseline = RTreeBaseline::build(&db, 8, 4096);
        let bytes = rtree_baseline_to_bytes(&baseline);
        assert!(matches!(
            pv_index_from_bytes(&bytes),
            Err(DecodeError::BadMagic { .. })
        ));
    }

    #[test]
    fn save_load_through_files() {
        let db = db(80, 2, 96);
        let index = PvIndex::build(&db, PvParams::default());
        let path = std::env::temp_dir().join(format!("pv_snapshot_{}.pvix", std::process::id()));
        index.save(&path).unwrap();
        let loaded = PvIndex::load(&path).unwrap();
        let q = queries::uniform(index.domain(), 1, 31)[0].clone();
        assert_eq!(
            loaded.execute(&q, &QuerySpec::new()).unwrap().answers,
            index.execute(&q, &QuerySpec::new()).unwrap().answers
        );
        // truncated file loads as InvalidData, not a panic
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
        let err = PvIndex::load(&path).map(|_| ()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).unwrap();
    }
}
