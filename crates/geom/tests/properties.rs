//! Property-based tests for the geometry kernel.

use proptest::prelude::*;
use pv_geom::{
    dominates, max_dist_sq, max_dist_sq_rr, min_dist_sq, min_dist_sq_rr, point_dominated,
    DominationRun, HyperRect, Point,
};

/// Strategy: a rectangle in `[-100, 100]^d` with sides up to 40.
fn arb_rect(d: usize) -> impl Strategy<Value = HyperRect> {
    (
        prop::collection::vec(-100.0f64..100.0, d),
        prop::collection::vec(0.0f64..40.0, d),
    )
        .prop_map(|(lo, ext)| {
            let hi: Vec<f64> = lo.iter().zip(ext.iter()).map(|(l, e)| l + e).collect();
            HyperRect::new(lo, hi)
        })
}

fn arb_point(d: usize) -> impl Strategy<Value = Point> {
    prop::collection::vec(-120.0f64..120.0, d).prop_map(Point::new)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn min_le_max_point(r in arb_rect(3), p in arb_point(3)) {
        prop_assert!(min_dist_sq(&r, &p) <= max_dist_sq(&r, &p) + 1e-12);
    }

    #[test]
    fn min_le_max_rect(a in arb_rect(3), b in arb_rect(3)) {
        prop_assert!(min_dist_sq_rr(&a, &b) <= max_dist_sq_rr(&a, &b) + 1e-12);
    }

    #[test]
    fn rect_distances_bound_sampled_point_pairs(a in arb_rect(2), b in arb_rect(2)) {
        // sample corner/center points of both rects; every pairwise distance
        // must lie within [min_dist_rr, max_dist_rr]
        let lo = min_dist_sq_rr(&a, &b);
        let hi = max_dist_sq_rr(&a, &b);
        let pts = |r: &HyperRect| {
            let mut v: Vec<Point> = r.corners().collect();
            v.push(r.center());
            v
        };
        for pa in pts(&a) {
            for pb in pts(&b) {
                let d = pa.dist_sq(&pb);
                prop_assert!(d >= lo - 1e-9);
                prop_assert!(d <= hi + 1e-9);
            }
        }
    }

    #[test]
    fn intersection_symmetry(a in arb_rect(3), b in arb_rect(3)) {
        prop_assert_eq!(a.intersects(&b), b.intersects(&a));
        if a.intersects(&b) {
            prop_assert_eq!(min_dist_sq_rr(&a, &b), 0.0);
        } else {
            prop_assert!(min_dist_sq_rr(&a, &b) > 0.0);
        }
    }

    #[test]
    fn union_contains_both(a in arb_rect(3), b in arb_rect(3)) {
        let u = a.union(&b);
        prop_assert!(u.contains_rect(&a));
        prop_assert!(u.contains_rect(&b));
    }

    #[test]
    fn domination_implies_pointwise(a in arb_rect(2), b in arb_rect(2), r in arb_rect(2)) {
        if dominates(&a, &b, &r) {
            // every corner + center of r must be point-dominated
            for p in r.corners().chain(std::iter::once(r.center())) {
                prop_assert!(point_dominated(&a, &b, &p),
                    "a={a:?} b={b:?} r={r:?} p={p:?}");
            }
        }
    }

    #[test]
    fn domination_never_holds_for_overlapping(a in arb_rect(2), r in arb_rect(2)) {
        // Lemma 2: a cannot dominate an object it intersects, for any region.
        let b = a.clone();
        prop_assert!(!dominates(&a, &b, &r));
    }

    #[test]
    fn fully_dominated_implies_each_sample_dominated_by_someone(
        cs in prop::collection::vec(arb_rect(2), 1..5),
        o in arb_rect(2),
        r in arb_rect(2),
    ) {
        if DominationRun::new(&cs, &o).region_fully_dominated(&r, 32, None) {
            for p in r.corners().chain(std::iter::once(r.center())) {
                let covered = cs.iter().any(|a| point_dominated(a, &o, &p));
                prop_assert!(covered, "point {p:?} escaped the dominated union");
            }
        }
    }

    #[test]
    fn octants_tile_without_gaps(r in arb_rect(3), p in arb_point(3)) {
        if r.contains_point(&p) {
            let kids = r.octants();
            let hits = kids.iter().filter(|k| k.contains_point(&p)).count();
            prop_assert!(hits >= 1);
            prop_assert!(kids[r.octant_of(&p)].contains_point(&p));
        }
    }

    #[test]
    fn octant_volumes_sum(r in arb_rect(4)) {
        let total: f64 = r.octants().iter().map(HyperRect::volume).sum();
        prop_assert!((total - r.volume()).abs() <= 1e-6 * r.volume().max(1.0));
    }
}
