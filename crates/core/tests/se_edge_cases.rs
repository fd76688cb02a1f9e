//! SE algorithm edge cases beyond the in-module unit tests: degenerate
//! databases, extreme parameters, adversarial geometry.

use pv_core::cset::{build_mean_tree, choose_cset, CandidateSet};
use pv_core::params::CSetStrategy;
use pv_core::se::compute_ubr;
use pv_geom::HyperRect;
use pv_uncertain::UncertainObject;
use std::collections::HashMap;

fn mk(id: u64, lo: &[f64], hi: &[f64]) -> UncertainObject {
    UncertainObject::uniform(id, HyperRect::new(lo.to_vec(), hi.to_vec()), 4)
}

fn cset_of(objects: &[UncertainObject], o: &UncertainObject) -> CandidateSet {
    let regions: HashMap<u64, HyperRect> =
        objects.iter().map(|x| (x.id, x.region.clone())).collect();
    let tree = build_mean_tree(
        regions.iter().map(|(&id, r)| (id, r.clone())),
        o.region.dim(),
        8,
    );
    choose_cset(o, CSetStrategy::All, &tree, &regions)
}

#[test]
fn object_filling_the_whole_domain() {
    let domain = HyperRect::cube(2, 0.0, 100.0);
    let big = mk(1, &[0.0, 0.0], &[100.0, 100.0]);
    let small = mk(2, &[40.0, 40.0], &[41.0, 41.0]);
    let objects = vec![big.clone(), small];
    let cs = cset_of(&objects, &big);
    // the small object overlaps `big`, so the cset is empty and the UBR is D
    let (ubr, _) = compute_ubr(&big, &domain, &cs, 1.0, 10);
    assert_eq!(ubr, domain);
}

#[test]
fn point_objects_reduce_to_voronoi() {
    // Degenerate (zero-extent) regions: the PV-cell is the classic Voronoi
    // cell; the UBR must tightly cover it.
    let domain = HyperRect::cube(1, 0.0, 100.0);
    let a = mk(1, &[20.0], &[20.0]);
    let b = mk(2, &[80.0], &[80.0]);
    let objects = vec![a.clone(), b];
    let cs = cset_of(&objects, &a);
    let (ubr, _) = compute_ubr(&a, &domain, &cs, 0.1, 10);
    // a's Voronoi cell is [0, 50]
    assert!(ubr.lo()[0] <= 0.0 + 1e-9);
    assert!((ubr.hi()[0] - 50.0).abs() < 1.0, "ubr = {ubr:?}");
}

#[test]
fn tiny_delta_converges_and_terminates() {
    let domain = HyperRect::cube(2, 0.0, 100.0);
    let a = mk(1, &[10.0, 10.0], &[12.0, 12.0]);
    let b = mk(2, &[80.0, 80.0], &[82.0, 82.0]);
    let objects = vec![a.clone(), b];
    let cs = cset_of(&objects, &a);
    let (ubr, stats) = compute_ubr(&a, &domain, &cs, 1e-6, 32);
    assert!(ubr.contains_rect(&a.region));
    // log2(100 / 1e-6) ≈ 27 passes * 4 directions, plus slack
    assert!(stats.slab_tests < 4 * 40, "{}", stats.slab_tests);
}

#[test]
fn huge_delta_returns_domain_like_box() {
    let domain = HyperRect::cube(2, 0.0, 100.0);
    let a = mk(1, &[10.0, 10.0], &[12.0, 12.0]);
    let b = mk(2, &[80.0, 80.0], &[82.0, 82.0]);
    let objects = vec![a.clone(), b];
    let cs = cset_of(&objects, &a);
    let (ubr, stats) = compute_ubr(&a, &domain, &cs, 1e9, 10);
    // Δ larger than the domain: the loop exits immediately
    assert_eq!(stats.slab_tests, 0);
    assert_eq!(ubr, domain);
}

#[test]
fn mmax_one_can_never_split() {
    let domain = HyperRect::cube(2, 0.0, 100.0);
    let a = mk(1, &[10.0, 49.0], &[12.0, 51.0]);
    let b = mk(2, &[90.0, 49.0], &[92.0, 51.0]);
    let objects = vec![a.clone(), b];
    let cs = cset_of(&objects, &a);
    // budget 1 still lets single-candidate domination prune whole slabs
    let (ubr, _) = compute_ubr(&a, &domain, &cs, 1.0, 1);
    assert!(ubr.contains_rect(&a.region));
    assert!(ubr.volume() < domain.volume(), "some slab must be provable");
}

#[test]
fn clustered_wall_blocks_one_side_only() {
    // A wall of objects east of `o`: the UBR must stay wide to the west
    // (unbounded by any candidate) and tight to the east.
    let domain = HyperRect::cube(2, 0.0, 1_000.0);
    let o = mk(0, &[480.0, 490.0], &[500.0, 510.0]);
    let mut objects = vec![o.clone()];
    for i in 0..10u64 {
        let y = 100.0 * i as f64;
        objects.push(mk(1 + i, &[600.0, y], &[620.0, y + 60.0]));
    }
    let cs = cset_of(&objects, &o);
    let (ubr, _) = compute_ubr(&o, &domain, &cs, 0.5, 20);
    assert!(ubr.lo()[0] <= 1.0, "west side unbounded: {ubr:?}");
    assert!(ubr.hi()[0] < 900.0, "east side must be cut: {ubr:?}");
}

#[test]
fn identical_regions_coexist() {
    // Multiple objects with identical uncertainty regions all keep the
    // whole-domain UBR w.r.t. each other (mutual overlap ⇒ no pruning),
    // but a third object east of them still prunes the east slab. (The
    // blocker sits at mid-height: a corner-placed blocker would leave the
    // axis extremes inside V(a) and the MBR would legitimately stay the
    // full domain.)
    let domain = HyperRect::cube(2, 0.0, 100.0);
    let a = mk(1, &[10.0, 45.0], &[15.0, 55.0]);
    let b = mk(2, &[10.0, 45.0], &[15.0, 55.0]);
    let far = mk(3, &[80.0, 45.0], &[85.0, 55.0]);
    let objects = vec![a.clone(), b, far];
    let cs = cset_of(&objects, &a);
    assert_eq!(cs.len(), 1, "only the non-overlapping object remains");
    let (ubr, _) = compute_ubr(&a, &domain, &cs, 1.0, 10);
    assert!(
        ubr.hi()[0] < 99.0,
        "east slab behind the blocker must be cut: {ubr:?}"
    );
}

#[test]
fn five_dimensional_ubr_is_sound() {
    let domain = HyperRect::cube(5, 0.0, 100.0);
    let o = mk(0, &[10.0; 5], &[14.0; 5]);
    let other = mk(1, &[70.0; 5], &[74.0; 5]);
    let objects = vec![o.clone(), other.clone()];
    let cs = cset_of(&objects, &o);
    let (ubr, _) = compute_ubr(&o, &domain, &cs, 1.0, 40);
    assert!(ubr.contains_rect(&o.region));
    // sample points where o can be NN
    use pv_geom::{max_dist, min_dist, Point};
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..500 {
        let p = Point::new((0..5).map(|_| rng.gen_range(0.0..100.0)).collect());
        let tau = objects
            .iter()
            .map(|x| max_dist(&x.region, &p))
            .fold(f64::INFINITY, f64::min);
        if min_dist(&o.region, &p) <= tau {
            assert!(ubr.contains_point(&p), "escaped at {p:?}");
        }
    }
}
