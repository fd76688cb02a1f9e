//! Property-based tests for the geometry kernel.
//!
//! `domination_search_matches_reference` reads its case count from the
//! `PROPTEST_CASES` environment variable (256 by default; CI runs it at
//! 1024); the other properties run a fixed 256 cases.

use proptest::prelude::*;
use pv_geom::{
    dominates, max_dist_sq, max_dist_sq_rr, min_dist_sq, min_dist_sq_rr, point_dominated, sq,
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

/// Case count of the domination-search equivalence property: 256 by
/// default, or `PROPTEST_CASES` (1024 in CI).
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(256)
}

/// Reference per-dimension term of the domination objective at `t`:
/// `max((a_lo−t)², (a_hi−t)²) − clampdist(t, [b_lo, b_hi])²`, with
/// `f64::max`.
fn ref_term(a_lo: f64, a_hi: f64, b_lo: f64, b_hi: f64, t: f64) -> f64 {
    let max_term = sq(a_lo - t).max(sq(a_hi - t));
    let gap = (b_lo - t).max(t - b_hi).max(0.0);
    max_term - sq(gap)
}

/// Reference (min, max) of the domination objective of candidate `a`
/// against target `o` over `piece`: every dimension evaluated afresh, the
/// interior probes (`mid(a)`, `o.lo`, `o.hi`) taken only where they lie
/// strictly inside the piece, extrema by `f64::min`/`f64::max`, and the
/// per-dimension terms summed in dimension order.
fn ref_span(a: &HyperRect, o: &HyperRect, piece: &HyperRect) -> (f64, f64) {
    let (mut min_sum, mut max_sum) = (0.0, 0.0);
    for j in 0..piece.dim() {
        let (a_lo, a_hi) = (a.lo()[j], a.hi()[j]);
        let (b_lo, b_hi) = (o.lo()[j], o.hi()[j]);
        let (t_lo, t_hi) = (piece.lo()[j], piece.hi()[j]);
        let f = |t| ref_term(a_lo, a_hi, b_lo, b_hi, t);
        let (e0, e1) = (f(t_lo), f(t_hi));
        let (mut mn, mut mx) = (e0.min(e1), e0.max(e1));
        for c in [0.5 * (a_lo + a_hi), b_lo, b_hi] {
            if c > t_lo && c < t_hi {
                mn = mn.min(f(c));
                mx = mx.max(f(c));
            }
        }
        min_sum += mn;
        max_sum += mx;
    }
    (min_sum, max_sum)
}

/// Reference domination-count estimation over the candidates in `alive`:
/// LIFO pieces split at the midpoint of their longest side (the last
/// dimension wins ties), at most `mmax` pieces, a piece discharged by any
/// single candidate whose objective maximum is < 0, and each sub-piece
/// scanning only the candidates whose minimum on its parent was < 0. No
/// move-to-front and no cached terms.
fn ref_fully_dominated(
    cset: &[HyperRect],
    alive: &[usize],
    o: &HyperRect,
    region: &HyperRect,
    mmax: usize,
) -> bool {
    if alive.is_empty() {
        return false;
    }
    let mut pieces = vec![(region.clone(), alive.to_vec())];
    let mut parts_created = 1usize;
    while let Some((piece, cands)) = pieces.pop() {
        let spans: Vec<(f64, f64)> = cands
            .iter()
            .map(|&c| ref_span(&cset[c], o, &piece))
            .collect();
        if spans.iter().any(|&(_, max_sum)| max_sum < 0.0) {
            continue;
        }
        if parts_created + 1 > mmax {
            return false;
        }
        let d = piece.dim();
        if (0..d).all(|j| piece.hi()[j] - piece.lo()[j] <= 0.0) {
            return false;
        }
        let mut j = 0;
        for k in 1..d {
            if piece.hi()[k] - piece.lo()[k] >= piece.hi()[j] - piece.lo()[j] {
                j = k;
            }
        }
        let mid = 0.5 * (piece.lo()[j] + piece.hi()[j]);
        let kept: Vec<usize> = cands
            .iter()
            .zip(&spans)
            .filter(|(_, &(min_sum, _))| min_sum < 0.0)
            .map(|(&c, _)| c)
            .collect();
        let mut left = piece.clone();
        left.hi_mut()[j] = mid;
        let mut right = piece;
        right.lo_mut()[j] = mid;
        pieces.push((left, kept.clone()));
        pieces.push((right, kept));
        parts_created += 1;
    }
    true
}

/// One SE-shaped sequence against a single [`DominationRun`]: SE's own
/// schedule over the domain `[-8, 24]^d` (each pass prunes the run to the
/// upper bound `h`, then tests the mid-plane slab of every side, shrinking
/// `h` or expanding the lower bound by the verdict), plus extra slabs
/// inside `h` each pass.
#[derive(Debug)]
struct SeSequence {
    cset: Vec<HyperRect>,
    o: HyperRect,
    mmax: usize,
    passes: usize,
    /// Extra slabs per pass: (dimension, two cut points in eighths of `h`).
    extra: Vec<(usize, u8, u8)>,
}

/// The rectangle of the first `d` (corner, width) cells: corners on the
/// integer grid `[0, 16]`, widths of 0 to 4 (zero widths are common).
fn grid_rect(cells: &[(u8, u8)], d: usize) -> HyperRect {
    let lo: Vec<f64> = cells[..d].iter().map(|&(l, _)| f64::from(l)).collect();
    let hi: Vec<f64> = cells[..d]
        .iter()
        .map(|&(l, w)| f64::from(l) + f64::from(w))
        .collect();
    HyperRect::new(lo, hi)
}

/// SE-shaped sequences in d = 1–5 (the const-dimension search arms and the
/// dynamic one) with budgets 1–40. Coordinates sit on a coarse grid and
/// every cut is dyadic, so probe points often fall exactly on piece
/// boundaries; the extra slabs cut `h` at multiples of an eighth, so
/// zero-width slabs and pieces occur too.
fn arb_se_sequence() -> impl Strategy<Value = SeSequence> {
    let cells = || prop::collection::vec((0u8..=16, 0u8..=4), 5);
    (
        1usize..=5,
        1usize..=40,
        cells(),
        prop::collection::vec(cells(), 1..24),
        1usize..=6,
        prop::collection::vec((0usize..5, 0u8..=8, 0u8..=8), 0..4),
    )
        .prop_map(|(d, mmax, o, cset, passes, extra)| SeSequence {
            cset: cset.iter().map(|c| grid_rect(c, d)).collect(),
            o: grid_rect(&o, d),
            mmax,
            passes,
            extra: extra.into_iter().map(|(j, a, b)| (j % d, a, b)).collect(),
        })
}

/// The slab of `h` between the cut points `a/8` and `b/8` along `j`; exact,
/// since every coordinate involved is dyadic.
fn eighths_slab(h: &HyperRect, j: usize, a: u8, b: u8) -> HyperRect {
    let (lo, hi) = (h.lo()[j], h.hi()[j]);
    let at = |k: u8| lo + (hi - lo) * f64::from(k) / 8.0;
    let mut slab = h.clone();
    slab.lo_mut()[j] = at(a.min(b));
    slab.hi_mut()[j] = at(a.max(b));
    slab
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// The run's search (move-to-front order, per-piece survivor lists,
    /// cached terms in the const-dimension arms, pruning) gives the same
    /// verdict as the plain reference on every slab of an SE-shaped
    /// sequence.
    #[test]
    fn domination_search_matches_reference(seq in arb_se_sequence()) {
        let (o, mmax) = (&seq.o, seq.mmax);
        let d = o.dim();
        let mut run = DominationRun::new(&seq.cset, o);
        let mut alive: Vec<usize> = (0..seq.cset.len()).collect();
        let mut h = HyperRect::new(vec![-8.0; d], vec![24.0; d]);
        let mut l = o.clone();
        for _ in 0..seq.passes {
            run.prune_for(&h, None);
            alive.retain(|&c| ref_span(&seq.cset[c], o, &h).0 < 0.0);
            for &(j, a, b) in &seq.extra {
                let slab = eighths_slab(&h, j, a, b);
                let got = run.region_fully_dominated(&slab, mmax, None);
                let want = ref_fully_dominated(&seq.cset, &alive, o, &slab, mmax);
                prop_assert_eq!(got, want, "extra slab {:?} inside h {:?}", slab, h);
            }
            for j in 0..d {
                for high in [false, true] {
                    let (edge, inner) = if high {
                        (h.hi()[j], l.hi()[j])
                    } else {
                        (h.lo()[j], l.lo()[j])
                    };
                    if edge == inner {
                        continue;
                    }
                    let mid = 0.5 * (edge + inner);
                    let mut slab = h.clone();
                    if high {
                        slab.lo_mut()[j] = mid;
                    } else {
                        slab.hi_mut()[j] = mid;
                    }
                    let got = run.region_fully_dominated(&slab, mmax, None);
                    let want = ref_fully_dominated(&seq.cset, &alive, o, &slab, mmax);
                    prop_assert_eq!(got, want, "slab {:?} inside h {:?}", slab, h);
                    let moved = if got { &mut h } else { &mut l };
                    if high {
                        moved.hi_mut()[j] = mid;
                    } else {
                        moved.lo_mut()[j] = mid;
                    }
                }
            }
        }
    }
}
