//! Snapshot robustness across all four engines:
//!
//! * a saved-then-loaded index answers **byte-identically** to the freshly
//!   built one on the `answer_semantics` workloads (PV-index, R-tree
//!   baseline, UV-index; the linear scan persists through the dataset file);
//! * loading is dramatically cheaper than building (the warm-restart
//!   acceptance bar is 5×);
//! * truncated and bit-flipped snapshot files surface `DecodeError` — never
//!   a panic (proptest over cut points and flip positions);
//! * a PV-index file of an older format version, or with swapped domain
//!   corners, is rejected, never mis-decoded, even when its checksum is
//!   valid;
//! * the canonical bytes of two fixed builds are pinned by length and
//!   FNV-1a 64.

use proptest::prelude::*;
use pv_suite::core::baseline::RTreeBaseline;
use pv_suite::core::snapshot::{
    pv_index_from_bytes, pv_index_to_bytes, rtree_baseline_from_bytes, rtree_baseline_to_bytes,
};
use pv_suite::core::{LinearScan, ProbNnEngine, PvIndex, PvParams, QuerySpec};
use pv_suite::geom::Point;
use pv_suite::storage::codec::DecodeError;
use pv_suite::storage::fnv1a64;
use pv_suite::uncertain::{persist, UncertainDb};
use pv_suite::uvindex::{UvIndex, UvParams};
use pv_suite::workload::{queries, synthetic, SyntheticConfig};
use std::sync::OnceLock;

fn db2d(n: usize, seed: u64) -> UncertainDb {
    synthetic(&SyntheticConfig {
        n,
        dim: 2,
        max_side: 150.0,
        samples: 16,
        seed,
    })
}

/// The specs `tests/answer_semantics.rs` exercises, minus the batch layer
/// (batch equals sequential by that suite; roundtripping per-query suffices).
fn specs() -> Vec<QuerySpec> {
    vec![
        QuerySpec::new(),
        QuerySpec::new().with_step1_only(),
        QuerySpec::new().with_threshold(0.02),
        QuerySpec::new().with_threshold(0.3),
        QuerySpec::new().with_top_k(1),
        QuerySpec::new().with_top_k(5),
    ]
}

fn assert_identical<E: ProbNnEngine>(built: &E, loaded: &E, qs: &[Point]) {
    for q in qs {
        for spec in specs() {
            let a = built.execute(q, &spec).expect("query");
            let b = loaded.execute(q, &spec).expect("query");
            assert_eq!(
                a.candidates,
                b.candidates,
                "{}: candidates diverged at {q:?}",
                built.engine_name()
            );
            assert_eq!(
                a.answers,
                b.answers,
                "{}: answers diverged at {q:?} under {spec:?}",
                built.engine_name()
            );
        }
    }
}

#[test]
fn pv_index_roundtrips_identically() {
    let db = db2d(250, 71); // same workload as answer_semantics
    let index = PvIndex::build(&db, PvParams::default());
    let loaded = pv_index_from_bytes(&pv_index_to_bytes(&index)).unwrap();
    assert_identical(&index, &loaded, &queries::uniform(&db.domain, 25, 5));
}

#[test]
fn save_bytes_are_canonical_across_cow_fork_history() {
    // Since PR 6, `WritableEngine::fork` shares pages between versions via
    // copy-on-write instead of round-tripping through the codec. The saved
    // byte stream must stay canonical regardless: sharing is a physical
    // artifact, never a logical one.
    use pv_suite::core::WritableEngine;
    use pv_suite::geom::HyperRect;
    use pv_suite::uncertain::UncertainObject;

    let db = db2d(250, 71);
    let index = PvIndex::build(&db, PvParams::default());
    let bytes0 = pv_index_to_bytes(&index);

    // An unmutated fork serializes byte-identically to its parent — the
    // shared pages dump the same image.
    let untouched = index.fork();
    assert_eq!(
        pv_index_to_bytes(&untouched),
        bytes0,
        "an unmutated COW fork must serialize byte-identically to its parent"
    );

    // Commit mutations on a fork: the parent's save bytes must not move —
    // no COW write may leak through a shared page into the old version.
    let mut forked = index.fork();
    forked
        .insert(UncertainObject::uniform(
            80_000,
            HyperRect::new(vec![30.0, 30.0], vec![34.0, 34.0]),
            16,
        ))
        .expect("fresh id");
    forked.remove(3).expect("seed id");
    assert_eq!(
        pv_index_to_bytes(&index),
        bytes0,
        "committing on a fork altered the parent's save bytes"
    );

    // Rollback-equivalent sequence: undo the mutations on the fork and the
    // *logical* state round-trips — the reloaded fork answers identically
    // to the pristine index (physical page layout may differ, so we compare
    // semantics, the contract the codec actually promises).
    forked.remove(80_000).expect("just inserted");
    forked
        .insert(db.objects.iter().find(|o| o.id == 3).unwrap().clone())
        .expect("restoring the seed object");
    let reloaded = pv_index_from_bytes(&pv_index_to_bytes(&forked)).unwrap();
    assert_identical(&index, &reloaded, &queries::uniform(&db.domain, 25, 5));
}

#[test]
fn rtree_baseline_roundtrips_identically() {
    let db = db2d(250, 71);
    let params = PvParams::default();
    let baseline = RTreeBaseline::build(&db, params.rtree_fanout, params.page_size);
    let loaded = rtree_baseline_from_bytes(&rtree_baseline_to_bytes(&baseline)).unwrap();
    assert_identical(&baseline, &loaded, &queries::uniform(&db.domain, 25, 5));
}

#[test]
fn uv_index_roundtrips_identically() {
    let db = db2d(200, 72);
    let uv = UvIndex::build(&db, UvParams::default());
    let loaded = UvIndex::from_snapshot_bytes(&uv.to_snapshot_bytes()).unwrap();
    assert_identical(&uv, &loaded, &queries::uniform(&db.domain, 20, 6));
}

#[test]
fn linear_scan_roundtrips_through_dataset_persistence() {
    let db = db2d(250, 73);
    let scan = LinearScan::new(&db);
    let reloaded_db = persist::from_bytes(&persist::to_bytes(&db)).unwrap();
    let loaded = LinearScan::new(&reloaded_db);
    assert_identical(&scan, &loaded, &queries::uniform(&db.domain, 25, 7));
}

#[test]
fn load_is_at_least_5x_faster_than_build() {
    // The acceptance bar for the warm-restart story, at the answer-semantics
    // workload scale. Build pays one SE run per object; load only decodes.
    let db = db2d(1_500, 74);
    let t0 = std::time::Instant::now();
    let index = PvIndex::build(&db, PvParams::default());
    let build_time = t0.elapsed();
    let bytes = pv_index_to_bytes(&index);
    let t0 = std::time::Instant::now();
    let loaded = pv_index_from_bytes(&bytes).unwrap();
    let load_time = t0.elapsed();
    assert_eq!(loaded.len(), index.len());
    assert!(
        load_time.as_secs_f64() * 5.0 < build_time.as_secs_f64(),
        "load {load_time:?} is not 5x faster than build {build_time:?}"
    );
}

/// The canonical snapshot bytes of two fixed builds, pinned by length and
/// FNV-1a 64, with the live pager footprint and the build's SE work
/// counters. Both builds split their octree and their hash table, so the
/// pins cover re-routing and bucket splits. The SE totals pin the work the
/// domination search does, not just its verdicts: a faster search must
/// evaluate as many candidates and pieces as before. The synthetic
/// generator calls no libm function, so the constants hold on any x86-64
/// host.
///
/// A deliberate format, build-order or search change updates these
/// constants, and CHANGES.md says why.
#[test]
fn canonical_bytes_are_pinned() {
    type Case = (usize, usize, Option<u16>, usize, u64, usize, [u64; 5]);
    let cases: [Case; 2] = [
        (
            3,
            400,
            None,
            1_929_597,
            0xdd71_7d2c_d520_c882,
            1_844_224,
            [32_878, 17_037, 15_841, 7_600_330, 439_564],
        ),
        (
            2,
            300,
            Some(4096),
            118_425,
            0xcc22_d948_e9b3_85c2,
            89_088,
            [16_226, 9_479, 6_747, 923_868, 164_530],
        ),
    ];
    for (dim, n, quantize, len, fnv, disk, se_totals) in cases {
        let db = synthetic(&SyntheticConfig {
            n,
            dim,
            max_side: 150.0,
            samples: 8,
            seed: 1,
        });
        let params = PvParams {
            build_threads: 2,
            page_size: 1024,
            ubr_quantize_steps: quantize,
            ..PvParams::default()
        };
        let index = PvIndex::build(&db, params);
        assert!(
            index.octree_stats().leaf_nodes > 1,
            "{dim}-D: octree never split"
        );
        assert!(
            index.secondary_stats().buckets > 2,
            "{dim}-D: hash never split"
        );
        let bytes = pv_index_to_bytes(&index);
        assert_eq!(bytes.len(), len, "{dim}-D: snapshot length");
        assert_eq!(fnv1a64(&bytes), fnv, "{dim}-D: snapshot FNV-1a 64");
        assert_eq!(index.pager().disk_bytes(), disk, "{dim}-D: live disk bytes");
        let se = &index.build_stats().se;
        assert_eq!(
            [
                se.slab_tests,
                se.shrinks,
                se.expands,
                se.dom_tests,
                se.partitions
            ],
            se_totals,
            "{dim}-D: SE work counters (slab tests, shrinks, expands, domination tests, partitions)"
        );
    }
}

/// One snapshot, built once, shared by every corruption case.
fn snapshot_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let db = db2d(60, 75);
        pv_index_to_bytes(&PvIndex::build(&db, PvParams::default()))
    })
}

/// Re-seals a patched snapshot's trailing FNV-1a 64 checksum, so the
/// decoder gets past the envelope to the patched field.
fn reseal(bytes: &mut [u8]) {
    // Envelope: "PVSN" | kind: 4 bytes | version: u16 LE | payload | fnv1a64.
    let body = bytes.len() - 8;
    let sum = fnv1a64(&bytes[..body]);
    bytes[body..].copy_from_slice(&sum.to_le_bytes());
}

/// A version-3 PV-index file — the layout whose params block still held
/// the commit-path candidate set and re-tightening budget — is rejected as
/// `UnsupportedVersion`, even with its checksum re-sealed over the patched
/// header.
#[test]
fn version_3_snapshot_is_unsupported() {
    let mut bytes = snapshot_bytes().to_vec();
    bytes[8..10].copy_from_slice(&3u16.to_le_bytes());
    reseal(&mut bytes);
    assert!(
        matches!(
            pv_index_from_bytes(&bytes),
            Err(DecodeError::UnsupportedVersion { found: 3, .. })
        ),
        "a re-sealed version-3 file must be rejected"
    );
}

/// A PV-index file whose domain corners are swapped is `Invalid`, even with
/// its checksum re-sealed.
#[test]
fn swapped_domain_corners_are_invalid() {
    let domain = db2d(60, 75).domain; // the domain `snapshot_bytes` stores
    let le = |xs: &[f64]| -> Vec<u8> { xs.iter().flat_map(|x| x.to_le_bytes()).collect() };
    let (lo, hi) = (le(domain.lo()), le(domain.hi()));
    let stored = [lo.as_slice(), hi.as_slice()].concat();
    let mut bytes = snapshot_bytes().to_vec();
    // The index's own domain is the first rectangle in the payload.
    let at = bytes
        .windows(stored.len())
        .position(|w| w == stored)
        .expect("the snapshot stores its domain");
    bytes[at..at + stored.len()].copy_from_slice(&[hi, lo].concat());
    reseal(&mut bytes);
    assert!(
        matches!(
            pv_index_from_bytes(&bytes),
            Err(DecodeError::Invalid { .. })
        ),
        "swapped domain corners must be rejected"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Truncation at any point is an error, never a panic.
    #[test]
    fn truncated_snapshots_return_decode_error(frac in 0.0f64..1.0) {
        let bytes = snapshot_bytes();
        let cut = ((bytes.len() as f64 * frac) as usize).min(bytes.len() - 1);
        prop_assert!(pv_index_from_bytes(&bytes[..cut]).is_err());
    }

    /// A single flipped bit anywhere is an error (the envelope checksum
    /// covers header and payload alike), never a panic.
    #[test]
    fn bit_flipped_snapshots_return_decode_error(pos in 0usize..(1 << 30), bit in 0u8..8) {
        let mut bytes = snapshot_bytes().to_vec();
        let pos = pos % bytes.len();
        bytes[pos] ^= 1 << bit;
        prop_assert!(pv_index_from_bytes(&bytes).is_err());
    }

    /// Random garbage of any size is an error, never a panic.
    #[test]
    fn garbage_returns_decode_error(bytes in prop::collection::vec(any::<u8>(), 0..4096)) {
        prop_assert!(pv_index_from_bytes(&bytes).is_err());
    }
}
