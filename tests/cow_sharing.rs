//! Correctness harness for page-level copy-on-write commits (PR 6).
//!
//! COW aliasing bugs have a nasty failure mode: they corrupt *old*
//! snapshots silently — the current version keeps answering correctly while
//! a pinned reader serves garbage. So this suite randomizes commit
//! sequences and checks every historical snapshot, not just the head:
//!
//! * **Pinned-history equivalence** (proptest, dims 2–4): run a random
//!   interleaving of inserts and removes through `Db`, pin a `Reader` at
//!   every published version, and — after all later commits have landed —
//!   verify each pinned snapshot answers identically to a `LinearScan`
//!   built over exactly that version's object set.
//! * **Bounded page copies**: a single-object commit must physically copy
//!   only the few pages it writes (witnessed by the pager's COW
//!   copy-counter), leaving the bulk of the device shared with the
//!   previous snapshot — proving structural sharing rather than deep clone.
//!
//! The vendored proptest runner is deterministic (the RNG seed derives from
//! the test name and case index), so CI runs are reproducible; the
//! `PROPTEST_CASES` environment variable scales the case count for the
//! scheduled deep-fuzz job.

use proptest::prelude::*;
use pv_suite::core::db::Db;
use pv_suite::core::{LinearScan, ProbNnEngine, PvIndex, PvParams, QuerySpec};
use pv_suite::uncertain::{UncertainDb, UncertainObject};
use pv_suite::workload::{queries, synthetic, SyntheticConfig};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Case count: small in the normal CI job (the build per case dominates),
/// scaled up by `PROPTEST_CASES` in the scheduled deep-fuzz job.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(8)
}

fn seed_db(n: usize, dim: usize, seed: u64) -> UncertainDb {
    synthetic(&SyntheticConfig {
        n,
        dim,
        max_side: 150.0,
        samples: 8,
        seed,
    })
}

/// Verifies one pinned snapshot against the ground truth for its object set.
fn assert_snapshot_matches(
    reader: &pv_suite::core::Reader<PvIndex>,
    objects: &[UncertainObject],
    domain: &pv_suite::geom::HyperRect,
    query_seed: u64,
) -> Result<(), TestCaseError> {
    let mut want_ids: Vec<u64> = objects.iter().map(|o| o.id).collect();
    want_ids.sort_unstable();
    prop_assert_eq!(
        reader.engine().ids(),
        want_ids,
        "pinned snapshot v{} holds the wrong object set",
        reader.version()
    );
    let scan = LinearScan::new(&UncertainDb::new(domain.clone(), objects.to_vec()));
    let specs = [
        QuerySpec::new(),
        QuerySpec::new().with_top_k(3),
        QuerySpec::new().with_threshold(0.05),
    ];
    for q in queries::uniform(domain, 6, query_seed) {
        for spec in &specs {
            let got = reader.engine().execute(&q, spec).expect("pinned query");
            let want = scan.execute(&q, spec).expect("ground truth");
            prop_assert_eq!(
                &got.answers,
                &want.answers,
                "pinned snapshot v{} diverges from LinearScan at {:?} under {:?}",
                reader.version(),
                &q,
                spec
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Random insert/remove/commit interleavings: every historical
    /// snapshot, pinned at publication time, must still answer exactly
    /// after all later commits — no COW write may reach a shared page an
    /// older version can see.
    #[test]
    fn pinned_history_answers_like_linear_scan(
        dim in 2usize..=4,
        seed in 0u64..1_000,
        steps in 6usize..=14,
    ) {
        let base = seed_db(50, dim, 100 + seed);
        let mut rng = StdRng::seed_from_u64((seed << 8) | dim as u64);
        // Pool of future inserts, disjoint ids.
        let pool = seed_db(steps, dim, 4_000 + seed);

        let db = Db::new(PvIndex::build(&base, PvParams::default()));
        let mut shadow: Vec<UncertainObject> = base.objects.clone();
        // Pin v0 (the seed) too: it must survive the whole run.
        let mut pinned: Vec<(pv_suite::core::Reader<PvIndex>, Vec<UncertainObject>)> =
            vec![(db.reader(), shadow.clone())];

        let mut fresh = pool.objects.into_iter();
        for k in 0..steps {
            let do_remove = !shadow.is_empty() && rng.gen_bool(0.4);
            if do_remove {
                let victim = shadow[rng.gen_range(0..shadow.len())].id;
                shadow.retain(|o| o.id != victim);
                db.remove(victim).expect("scripted remove");
            } else {
                let mut o = fresh.next().expect("pool sized to steps");
                o.id = 10_000 + k as u64;
                shadow.push(o.clone());
                db.insert(o).expect("scripted insert");
            }
            pinned.push((db.reader(), shadow.clone()));
        }

        // All commits have landed; now audit the full pinned history.
        for (reader, objects) in &pinned {
            assert_snapshot_matches(reader, objects, &base.domain, 31 + seed)?;
        }
    }
}

/// Torture case for a freshly built image feeding the COW commit path: the
/// build writes every object's octree records first and `put`s every hash
/// record after, while a commit interleaves the two per object, so the
/// commits fork a page image whose allocation order no commit sequence
/// produced. Forked commits on top of that image must still leave every
/// pinned snapshot exact — including the approximate-UBR variant, whose
/// looser leaves shift which pages commits touch.
#[test]
fn bulk_loaded_image_survives_commit_torture() {
    for (label, params) in [
        ("exact", PvParams::default()),
        ("approx", PvParams::default().approx_ubr(15.0)),
    ] {
        let base = seed_db(120, 3, 57);
        let db = Db::new(PvIndex::build(&base, params));
        let mut shadow: Vec<UncertainObject> = base.objects.clone();
        let mut pinned: Vec<(pv_suite::core::Reader<PvIndex>, Vec<UncertainObject>)> =
            vec![(db.reader(), shadow.clone())];

        let mut rng = StdRng::seed_from_u64(58);
        let pool = seed_db(20, 3, 4_580);
        let mut fresh = pool.objects.into_iter();
        for k in 0..20usize {
            if !shadow.is_empty() && rng.gen_bool(0.4) {
                let victim = shadow[rng.gen_range(0..shadow.len())].id;
                shadow.retain(|o| o.id != victim);
                db.remove(victim).expect("scripted remove");
            } else {
                let mut o = fresh.next().expect("pool sized to steps");
                o.id = 40_000 + k as u64;
                shadow.push(o.clone());
                db.insert(o).expect("scripted insert");
            }
            pinned.push((db.reader(), shadow.clone()));
        }

        for (reader, objects) in &pinned {
            assert_snapshot_matches(reader, objects, &base.domain, 59)
                .unwrap_or_else(|e| panic!("{label}: {e:?}"));
        }
    }
}

#[test]
fn single_object_commit_copies_a_bounded_number_of_pages() {
    let base = seed_db(500, 3, 9);
    let db = Db::new(PvIndex::build(&base, PvParams::default()));
    let device_pages = db.reader().engine().pager().live_pages();
    assert!(device_pages > 50, "workload too small to witness sharing");

    let mut rng = StdRng::seed_from_u64(77);
    let mut max_copies = 0u64;
    for k in 0..10u64 {
        // Alternate an insert and a remove of the same object: each is one
        // single-object commit on a fresh fork.
        let lo: Vec<f64> = (0..3).map(|_| rng.gen_range(20.0..120.0)).collect();
        let hi: Vec<f64> = lo.iter().map(|l| l + 4.0).collect();
        let o = UncertainObject::uniform(20_000 + k, pv_suite::geom::HyperRect::new(lo, hi), 8);
        db.insert(o).expect("fresh id");
        let copies = db.reader().engine().pager().cow_copies();
        max_copies = max_copies.max(copies);
        db.remove(20_000 + k).expect("known id");
        max_copies = max_copies.max(db.reader().engine().pager().cow_copies());
    }

    // The copy counter is zeroed by each fork, so it reports exactly the
    // pages the one commit physically duplicated. A single-object commit
    // touches its secondary bucket plus the octree leaves the object's UBR
    // overlaps (and those of the few affected neighbours) — a sliver of the
    // device, not a deep copy of it.
    assert!(max_copies > 0, "a commit must write at least one page");
    assert!(
        (max_copies as usize) < device_pages / 4,
        "single-object commit copied {max_copies} of {device_pages} pages — \
         that is a deep clone, not structural sharing"
    );
}

#[test]
fn commit_leaves_the_previous_snapshot_device_shared() {
    // Direct witness of sharing between two adjacent versions: pin the old
    // head, commit once, and count how much of the new head's device still
    // aliases the old one.
    let base = seed_db(400, 2, 21);
    let db = Db::new(PvIndex::build(&base, PvParams::default()));
    let old = db.reader();
    let old_pages = old.engine().pager().live_pages();

    let o = UncertainObject::uniform(
        30_000,
        pv_suite::geom::HyperRect::new(vec![50.0, 50.0], vec![55.0, 55.0]),
        8,
    );
    db.insert(o).expect("fresh id");
    let new = db.reader();
    assert!(new.version() > old.version());

    let shared = new.engine().pager().shared_pages();
    assert!(
        shared * 2 > old_pages,
        "only {shared} of {old_pages} pages stayed shared after one commit"
    );
}
