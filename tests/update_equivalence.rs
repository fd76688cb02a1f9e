//! Incremental-maintenance soundness (§VI-B): after arbitrary interleavings
//! of insertions and deletions, the incrementally maintained PV-index must
//! answer Step 1 exactly like a naive scan and like a freshly rebuilt index,
//! and an inserted object's UBR must be the one a fresh build gives it.
//! This also regression-tests the Lemma-8 erratum fix (see ARCHITECTURE.md
//! §1).

use pv_suite::core::{verify, PvIndex, PvParams, Step1Engine};
use pv_suite::geom::HyperRect;
use pv_suite::uncertain::{UncertainDb, UncertainObject};
use pv_suite::workload::{queries, synthetic, SyntheticConfig};
use rand::{rngs::StdRng, Rng, SeedableRng};

fn check(index: &PvIndex, shadow: &[UncertainObject], seed: u64, n_queries: usize) {
    for q in queries::uniform(index.domain(), n_queries, seed) {
        let (got, _) = index.step1(&q);
        let want = verify::possible_nn(shadow.iter(), &q);
        assert_eq!(got, want, "q = {q:?}");
    }
}

#[test]
fn deletion_storm() {
    let db = synthetic(&SyntheticConfig {
        n: 250,
        dim: 2,
        max_side: 200.0,
        samples: 8,
        seed: 21,
    });
    let mut index = PvIndex::build(&db, PvParams::default());
    let mut shadow = db.objects.clone();
    let mut rng = StdRng::seed_from_u64(42);
    for round in 0..10 {
        for _ in 0..12 {
            let pos = rng.gen_range(0..shadow.len());
            let id = shadow.swap_remove(pos).id;
            let st = index.remove(id).expect("present");
            assert!(st.time.as_nanos() > 0);
        }
        check(&index, &shadow, 100 + round, 10);
    }
    assert_eq!(index.len(), shadow.len());
}

#[test]
fn insertion_storm() {
    let db = synthetic(&SyntheticConfig {
        n: 80,
        dim: 2,
        max_side: 200.0,
        samples: 8,
        seed: 22,
    });
    let mut index = PvIndex::build(&db, PvParams::default());
    let mut shadow = db.objects.clone();
    let extra = synthetic(&SyntheticConfig {
        n: 120,
        dim: 2,
        max_side: 200.0,
        samples: 8,
        seed: 2222,
    });
    for (round, o) in extra.objects.into_iter().enumerate() {
        let mut o = o;
        o.id = 70_000 + round as u64;
        shadow.push(o.clone());
        index.insert(o).expect("fresh id");
        if round % 20 == 19 {
            check(&index, &shadow, 200 + round as u64, 8);
        }
    }
    assert_eq!(index.len(), shadow.len());
}

#[test]
fn mixed_churn_3d() {
    let db = synthetic(&SyntheticConfig {
        n: 150,
        dim: 3,
        max_side: 400.0,
        samples: 8,
        seed: 23,
    });
    let mut index = PvIndex::build(&db, PvParams::default());
    let mut shadow = db.objects.clone();
    let mut rng = StdRng::seed_from_u64(77);
    let mut next_id = 90_000u64;
    for round in 0..30 {
        if rng.gen_bool(0.5) && shadow.len() > 10 {
            let pos = rng.gen_range(0..shadow.len());
            let id = shadow.swap_remove(pos).id;
            index.remove(id).expect("present");
        } else {
            let lo: Vec<f64> = (0..3).map(|_| rng.gen_range(0.0..9_500.0)).collect();
            let hi: Vec<f64> = lo.iter().map(|l| l + rng.gen_range(1.0..400.0)).collect();
            let o = UncertainObject::uniform(next_id, HyperRect::new(lo, hi), 8);
            next_id += 1;
            shadow.push(o.clone());
            index.insert(o).expect("fresh id");
        }
        if round % 6 == 5 {
            check(&index, &shadow, 300 + round, 6);
        }
    }
}

/// An insertion runs the build's own SE (same candidate set, same Δ), so
/// after every insert the new object's UBR is exactly the one
/// `PvIndex::build` gives it over the same objects.
#[test]
fn inserted_ubr_equals_the_builds() {
    for dim in [2usize, 3] {
        let config = |n, seed| SyntheticConfig {
            n,
            dim,
            max_side: 300.0,
            samples: 8,
            seed,
        };
        let db = synthetic(&config(120, 27 + dim as u64));
        let mut index = PvIndex::build(&db, PvParams::default());
        let mut shadow = db.objects.clone();
        let extra = synthetic(&config(10, 2_700 + dim as u64));
        for (i, mut o) in extra.objects.into_iter().enumerate() {
            o.id = 60_000 + i as u64;
            shadow.push(o.clone());
            index.insert(o.clone()).expect("fresh id");
            let fresh = PvIndex::build(
                &UncertainDb::new(index.domain().clone(), shadow.clone()),
                PvParams::default(),
            );
            assert_eq!(
                index.ubr(o.id),
                fresh.ubr(o.id),
                "{dim}-D insert {i}: UBR differs from the build's"
            );
        }
    }
}

#[test]
fn incremental_matches_rebuild_after_churn() {
    let db = synthetic(&SyntheticConfig {
        n: 180,
        dim: 2,
        max_side: 250.0,
        samples: 8,
        seed: 24,
    });
    let mut index = PvIndex::build(&db, PvParams::default());
    let mut shadow = db.objects.clone();
    let mut rng = StdRng::seed_from_u64(7);
    // churn
    for i in 0..40u64 {
        if i % 2 == 0 && shadow.len() > 20 {
            let pos = rng.gen_range(0..shadow.len());
            let id = shadow.swap_remove(pos).id;
            index.remove(id).unwrap();
        } else {
            let lo: Vec<f64> = (0..2).map(|_| rng.gen_range(0.0..9_700.0)).collect();
            let hi: Vec<f64> = lo.iter().map(|l| l + rng.gen_range(1.0..250.0)).collect();
            let o = UncertainObject::uniform(80_000 + i, HyperRect::new(lo, hi), 8);
            shadow.push(o.clone());
            index.insert(o).expect("fresh id");
        }
    }
    // fresh rebuild over the same final object set
    let fresh_db = UncertainDb::new(index.domain().clone(), shadow.clone());
    let fresh = PvIndex::build(&fresh_db, PvParams::default());
    for q in queries::uniform(index.domain(), 40, 99) {
        let (a, _) = index.step1(&q);
        let (b, _) = fresh.step1(&q);
        assert_eq!(a, b, "incremental index diverged from a rebuild");
    }
}

#[test]
fn delete_then_reinsert_round_trip() {
    let db = synthetic(&SyntheticConfig {
        n: 150,
        dim: 2,
        max_side: 250.0,
        samples: 8,
        seed: 25,
    });
    let mut index = PvIndex::build(&db, PvParams::default());
    let victims: Vec<UncertainObject> = db.objects[40..60].to_vec();
    for v in &victims {
        index.remove(v.id).unwrap();
    }
    for v in &victims {
        index.insert(v.clone()).expect("re-insert");
    }
    check(&index, &db.objects, 555, 25);
}

#[test]
fn update_stats_report_work() {
    let db = synthetic(&SyntheticConfig {
        n: 200,
        dim: 2,
        max_side: 300.0,
        samples: 8,
        seed: 26,
    });
    let mut index = PvIndex::build(&db, PvParams::default());
    let st = index.remove(100).unwrap();
    // With |u(o)| = 300 the UBRs overlap heavily: a deletion should touch
    // at least one neighbor.
    assert!(st.scanned >= st.affected);
    let o = UncertainObject::uniform(
        99_999,
        HyperRect::new(vec![5_000.0, 5_000.0], vec![5_100.0, 5_100.0]),
        8,
    );
    let st = index.insert(o).expect("fresh id");
    assert!(st.se.slab_tests > 0, "insertion must run SE");
}

#[test]
fn overlapping_neighbors_are_unaffected_by_update() {
    // Lemma 8(3) with the erratum fix: objects whose uncertainty regions
    // overlap the updated object's region keep their UBRs untouched.
    let domain = HyperRect::cube(2, 0.0, 1_000.0);
    let a = UncertainObject::uniform(1, HyperRect::new(vec![100.0, 100.0], vec![140.0, 140.0]), 8);
    let b = UncertainObject::uniform(2, HyperRect::new(vec![120.0, 120.0], vec![160.0, 160.0]), 8); // overlaps a
    let c = UncertainObject::uniform(3, HyperRect::new(vec![700.0, 700.0], vec![720.0, 720.0]), 8);
    let db = UncertainDb::new(domain, vec![a.clone(), b.clone(), c]);
    let mut index = PvIndex::build(&db, PvParams::default());
    let ubr_b_before = index.ubr(2).unwrap().clone();
    // Delete a (overlaps b): b must be classified unaffected. The far-away
    // c, in contrast, may legitimately be recomputed — with only three
    // objects, removing a really can grow c's PV-cell.
    let st = index.remove(1).unwrap();
    assert_eq!(
        index.ubr(2).unwrap(),
        &ubr_b_before,
        "b's UBR must not change"
    );
    assert!(
        st.affected <= 1,
        "only c may be recomputed, got {}",
        st.affected
    );
    // queries remain exact
    let shadow = vec![b, db.objects[2].clone()];
    check(&index, &shadow, 777, 15);
}
