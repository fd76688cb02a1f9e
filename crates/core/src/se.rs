//! The Shrink-and-Expand (SE) algorithm — §V, Algorithm 1 of the paper.
//!
//! SE computes an Uncertain Bounding Rectangle `B(o) ⊇ V(o)` by maintaining
//! two rectangles sandwiching the (unknown) MBR `M(o)` of the PV-cell:
//!
//! * the **upper bound** `h(o)`, initialised to the domain `D`, which only
//!   ever *shrinks* — a boundary slab is cut away once it is proven disjoint
//!   from the non-dominated intersection `I(Cset, o) ⊇ V(o)`;
//! * the **lower bound** `l(o)`, initialised to `u(o) ⊆ V(o)` (Lemma 5),
//!   which only ever *expands*, and serves purely as a guide for placing the
//!   next bisecting plane.
//!
//! Each pass halves the gap between `h` and `l` in every one of the `2d`
//! directions, so the loop runs at most `⌈log2(|D|max/Δ)⌉` passes. On exit
//! `h(o)` is returned: because shrinking is the only operation that ever
//! removes volume and each removal is justified by the (conservative)
//! domination-count test, the invariant `h(o) ⊇ V(o)` holds throughout —
//! this is the soundness property the integration tests verify.
//!
//! **Approximate-UBR mode (PR 8).** Callers opting into
//! [`PvParams::approx_ubr`](crate::PvParams::approx_ubr) simply pass a
//! relaxed threshold (`effective_delta() = max(Δ, ε)`) — SE itself needs no
//! code change. The refinement schedule is deterministic and *prefix-closed*
//! in the threshold: a larger threshold runs the identical sequence of
//! shrink/expand passes and merely terminates earlier, so the approximate
//! `h(o)` is a superset of the exact one (soundness is preserved; Lemma 7's
//! conservatism never depended on Δ), with at most the effective threshold
//! of slack per boundary side on top of the exact rectangle's own `Δ` bound.

use crate::cset::CandidateSet;
use crate::stats::SeStats;
use pv_geom::{DominationRun, DominationStats, HyperRect};
use pv_uncertain::UncertainObject;
use std::time::Instant;

/// Runs SE for `o` against a previously selected candidate set, returning
/// the UBR and per-run statistics.
///
/// `delta` is the termination threshold `Δ` and `mmax` the partition budget
/// of the domination-count estimation (Table I).
pub fn compute_ubr(
    o: &UncertainObject,
    domain: &HyperRect,
    cset: &CandidateSet,
    delta: f64,
    mmax: usize,
) -> (HyperRect, SeStats) {
    let started = Instant::now();
    let d = domain.dim();
    let mut stats = SeStats {
        cset_size: cset.len(),
        ..Default::default()
    };
    let dom_stats = DominationStats::default();
    // One run per SE invocation: flattens the candidate set once and carries
    // the move-to-front candidate order across slab tests (see
    // `DominationRun`); results are identical to the stateless form.
    let mut dom_run = DominationRun::new(&cset.regions, &o.region);

    // Algorithm 1's initial bounds: h = D, l = u(o) (Lemma 5).
    let mut h = domain.clone();
    let mut l = o.region.clone();

    // Gap for direction (j, high?) — distance between the h and l planes.
    let gap = |h: &HyperRect, l: &HyperRect, j: usize, high: bool| -> f64 {
        if high {
            h.hi()[j] - l.hi()[j]
        } else {
            l.lo()[j] - h.lo()[j]
        }
    };
    let max_gap = |h: &HyperRect, l: &HyperRect| -> f64 {
        (0..d)
            .flat_map(|j| [gap(h, l, j, false), gap(h, l, j, true)])
            .fold(0.0, f64::max)
    };

    // Each pass halves every directional gap, so the bound below is the
    // paper's log(|D|max/Δ) iteration count (+ slack for float edge cases).
    let max_passes = {
        let span = domain.max_extent().max(1.0);
        (span / delta.max(1e-9)).log2().ceil() as usize + 4
    };

    for _pass in 0..max_passes {
        if max_gap(&h, &l) < delta {
            break;
        }
        // Every slab this pass tests is contained in the current `h`, and
        // `h` only ever shrinks — candidates dominating nowhere in `h` can
        // never discharge a piece again and are dropped for the whole rest
        // of the run (result-preserving, see `DominationRun::prune_for`).
        dom_run.prune_for(&h, Some(&dom_stats));
        for j in 0..d {
            for high in [false, true] {
                let g = gap(&h, &l, j, high);
                if g <= 0.0 {
                    continue;
                }
                // Mid-plane between h's and l's boundary in this direction.
                let (slab, mid) = if high {
                    let mid = 0.5 * (h.hi()[j] + l.hi()[j]);
                    let mut slab = h.clone();
                    slab.lo_mut()[j] = mid;
                    (slab, mid)
                } else {
                    let mid = 0.5 * (h.lo()[j] + l.lo()[j]);
                    let mut slab = h.clone();
                    slab.hi_mut()[j] = mid;
                    (slab, mid)
                };
                stats.slab_tests += 1;
                let empty = dom_run.region_fully_dominated(&slab, mmax, Some(&dom_stats));
                if empty {
                    // Shrink h: the slab cannot touch V(o).
                    stats.shrinks += 1;
                    if high {
                        h.hi_mut()[j] = mid;
                    } else {
                        h.lo_mut()[j] = mid;
                    }
                } else {
                    // Expand l up to the mid-plane.
                    stats.expands += 1;
                    if high {
                        l.hi_mut()[j] = mid;
                    } else {
                        l.lo_mut()[j] = mid;
                    }
                }
            }
        }
    }

    stats.dom_tests = dom_stats.dom_tests.get();
    stats.partitions = dom_stats.partitions.get();
    stats.refine_time = started.elapsed();
    (h, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cset::{build_mean_tree, choose_cset};
    use crate::params::CSetStrategy;
    use pv_geom::{max_dist, min_dist, HyperRect, Point};
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::collections::HashMap;

    fn mk(lo: &[f64], hi: &[f64]) -> HyperRect {
        HyperRect::new(lo.to_vec(), hi.to_vec())
    }

    /// Random 2-D database in [0,100]^2.
    fn random_db(n: usize, seed: u64) -> (HyperRect, Vec<UncertainObject>) {
        let domain = HyperRect::cube(2, 0.0, 100.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let objects = (0..n)
            .map(|i| {
                let lo: Vec<f64> = (0..2).map(|_| rng.gen_range(0.0..95.0)).collect();
                let hi: Vec<f64> = lo.iter().map(|l| l + rng.gen_range(0.5..5.0)).collect();
                UncertainObject::uniform(i as u64, HyperRect::new(lo, hi), 8)
            })
            .collect();
        (domain, objects)
    }

    fn full_cset(o: &UncertainObject, objects: &[UncertainObject]) -> CandidateSet {
        let regions: HashMap<u64, HyperRect> =
            objects.iter().map(|x| (x.id, x.region.clone())).collect();
        let tree = build_mean_tree(regions.iter().map(|(&id, r)| (id, r.clone())), 2, 16);
        choose_cset(o, CSetStrategy::All, &tree, &regions)
    }

    /// Region-based possible-NN test: o can be the NN of p iff
    /// distmin(o,p) <= min over all o' of distmax(o',p).
    fn can_be_nn(o: &UncertainObject, objects: &[UncertainObject], p: &Point) -> bool {
        let tau = objects
            .iter()
            .map(|x| max_dist(&x.region, p))
            .fold(f64::INFINITY, f64::min);
        min_dist(&o.region, p) <= tau
    }

    #[test]
    fn single_object_keeps_the_whole_domain() {
        let domain = HyperRect::cube(2, 0.0, 100.0);
        let o = UncertainObject::uniform(0, mk(&[40.0, 40.0], &[42.0, 42.0]), 8);
        let cset = CandidateSet {
            ids: vec![],
            regions: vec![],
        };
        let (ubr, _) = compute_ubr(&o, &domain, &cset, 1.0, 10);
        assert_eq!(ubr, domain, "no candidate can shrink anything");
    }

    #[test]
    fn two_distant_objects_split_the_domain() {
        // o on the left, a on the right: V(o) is roughly the left part; the
        // UBR must contain u(o) and exclude the far right margin.
        let domain = HyperRect::cube(2, 0.0, 100.0);
        let o = UncertainObject::uniform(0, mk(&[10.0, 49.0], &[12.0, 51.0]), 8);
        let a = mk(&[90.0, 49.0], &[92.0, 51.0]);
        let cset = CandidateSet {
            ids: vec![1],
            regions: vec![a],
        };
        let (ubr, stats) = compute_ubr(&o, &domain, &cset, 0.5, 32);
        assert!(ubr.contains_rect(&o.region));
        // The bisector in x is near (10+92)/2 = 51 (shifted by uncertainty);
        // the UBR's right face must be far left of the domain edge...
        assert!(ubr.hi()[0] < 70.0, "ubr = {ubr:?}");
        // ...but must not cut into the true PV-cell: sample points left of
        // the bisector must stay inside.
        assert!(ubr.hi()[0] > 50.0, "ubr = {ubr:?}");
        assert!(stats.shrinks > 0);
    }

    #[test]
    fn ubr_contains_u_o_always() {
        let (domain, objects) = random_db(60, 1);
        for o in objects.iter().take(10) {
            let cset = full_cset(o, &objects);
            let (ubr, _) = compute_ubr(o, &domain, &cset, 1.0, 10);
            assert!(ubr.contains_rect(&o.region), "u(o) ⊆ V(o) ⊆ B(o)");
        }
    }

    #[test]
    fn ubr_is_conservative_wrt_possible_nn_points() {
        // Soundness: every point where o can be the NN must lie in B(o).
        let (domain, objects) = random_db(40, 2);
        let mut rng = StdRng::seed_from_u64(77);
        for o in objects.iter().take(8) {
            let cset = full_cset(o, &objects);
            let (ubr, _) = compute_ubr(o, &domain, &cset, 0.5, 10);
            for _ in 0..400 {
                let p = Point::new(vec![rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)]);
                if can_be_nn(o, &objects, &p) {
                    assert!(
                        ubr.contains_point(&p),
                        "point {p:?} is a possible-NN location outside B({})",
                        o.id
                    );
                }
            }
        }
    }

    #[test]
    fn smaller_delta_gives_tighter_or_equal_ubr() {
        let (domain, objects) = random_db(50, 3);
        let o = &objects[0];
        let cset = full_cset(o, &objects);
        let (coarse, _) = compute_ubr(o, &domain, &cset, 50.0, 10);
        let (fine, _) = compute_ubr(o, &domain, &cset, 0.1, 10);
        assert!(
            coarse.volume() >= fine.volume() - 1e-9,
            "coarse {} < fine {}",
            coarse.volume(),
            fine.volume()
        );
        // and the fine result is still conservative wrt the coarse lower
        // bound: both contain u(o)
        assert!(fine.contains_rect(&o.region));
    }

    #[test]
    fn larger_mmax_never_hurts_tightness() {
        let (domain, objects) = random_db(50, 4);
        let o = &objects[7];
        let cset = full_cset(o, &objects);
        let (small, _) = compute_ubr(o, &domain, &cset, 1.0, 2);
        let (large, _) = compute_ubr(o, &domain, &cset, 1.0, 40);
        assert!(large.volume() <= small.volume() + 1e-9);
    }

    #[test]
    fn termination_within_log_bound() {
        let (domain, objects) = random_db(80, 5);
        let o = &objects[3];
        let cset = full_cset(o, &objects);
        let (_, stats) = compute_ubr(o, &domain, &cset, 1.0, 10);
        // 2d directions × (log2(100/1) + slack) passes
        let bound = 2 * 2 * ((100.0f64).log2().ceil() as u64 + 5);
        assert!(
            stats.slab_tests <= bound,
            "slab tests {} exceed bound {bound}",
            stats.slab_tests
        );
    }

    #[test]
    fn three_dimensional_se() {
        let domain = HyperRect::cube(3, 0.0, 100.0);
        let mut rng = StdRng::seed_from_u64(8);
        let objects: Vec<UncertainObject> = (0..50)
            .map(|i| {
                let lo: Vec<f64> = (0..3).map(|_| rng.gen_range(0.0..95.0)).collect();
                let hi: Vec<f64> = lo.iter().map(|l| l + rng.gen_range(0.5..4.0)).collect();
                UncertainObject::uniform(i as u64, HyperRect::new(lo, hi), 8)
            })
            .collect();
        let o = &objects[0];
        let regions: HashMap<u64, HyperRect> =
            objects.iter().map(|x| (x.id, x.region.clone())).collect();
        let tree = build_mean_tree(regions.iter().map(|(&id, r)| (id, r.clone())), 3, 16);
        let cset = choose_cset(o, CSetStrategy::default(), &tree, &regions);
        let (ubr, stats) = compute_ubr(o, &domain, &cset, 1.0, 10);
        assert!(ubr.contains_rect(&o.region));
        assert!(ubr.volume() < domain.volume(), "should shrink somewhere");
        assert!(stats.shrinks > 0);
    }
}
