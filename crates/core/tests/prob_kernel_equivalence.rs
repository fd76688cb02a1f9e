//! Property tests pitting the merged-CDF sweep kernel against the retained
//! naive oracle (`qualification_from_sorted`), demanding **bitwise** equal
//! probabilities — the contract that lets the query driver swap kernels
//! without changing a single reported answer.
//!
//! The generators deliberately stress the hard cases: duplicate distances
//! within a candidate, exact ties across candidates, zero-probability
//! (dominated) rivals, empty instance lists and the single-candidate query.
//! The sweep takes each candidate's distances in any order; the oracle takes
//! them sorted. The `PROPTEST_CASES` environment variable scales the case
//! count for the scheduled deep-fuzz job.

use proptest::prelude::*;
use pv_core::prob::{
    qualification_from_sorted, qualification_probabilities, qualification_probabilities_sweep,
    qualification_sweep_into, ProbScratch,
};
use pv_core::query::{ProbNnEngine, QuerySpec};
use pv_core::verify::{possible_nn, LinearScan};
use pv_geom::{min_dist_sq, HyperRect, Point};
use pv_uncertain::{Pdf, UncertainDb, UncertainObject};
use std::sync::Arc;

/// Case count: 128 per property by default, scaled up by `PROPTEST_CASES`
/// in the scheduled deep-fuzz job.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(128)
}

/// Asserts both kernels produce bit-for-bit equal `(id, probability)` lists.
fn assert_bitwise_equal(naive: &[(u64, f64)], swept: &[(u64, f64)]) {
    assert_eq!(naive.len(), swept.len());
    for ((ia, pa), (ib, pb)) in naive.iter().zip(swept.iter()) {
        assert_eq!(ia, ib);
        assert_eq!(
            pa.to_bits(),
            pb.to_bits(),
            "kernels disagree on P({ia}): naive {pa} vs sweep {pb}"
        );
    }
}

/// Sorted per-candidate distance lists drawn from a coarse grid, so exact
/// ties (within and across candidates) are common; empty lists model
/// candidates whose payload discretises to zero instances.
fn arb_sorted_lists() -> impl Strategy<Value = Vec<(u64, Vec<f64>)>> {
    prop::collection::vec(prop::collection::vec(0u8..12, 0..10), 1..8).prop_map(|lists| {
        lists
            .into_iter()
            .enumerate()
            .map(|(i, grid)| {
                let mut ds: Vec<f64> = grid.into_iter().map(|g| g as f64 * 0.25).collect();
                ds.sort_unstable_by(f64::total_cmp);
                (i as u64, ds)
            })
            .collect()
    })
}

/// A small database of explicit-instance objects on an integer grid in
/// `dim` dimensions, plus one far-away object that Step 2 must report with
/// probability zero (the "zero-probability rival" case).
fn arb_objects(dim: usize) -> impl Strategy<Value = Vec<UncertainObject>> {
    prop::collection::vec(
        prop::collection::vec(prop::collection::vec(0i8..8, dim), 1..8),
        1..6,
    )
    .prop_map(move |objs| {
        let mut out: Vec<UncertainObject> = objs
            .into_iter()
            .enumerate()
            .map(|(i, pts)| {
                let points: Vec<Point> = pts
                    .into_iter()
                    .map(|cs| Point::new(cs.into_iter().map(|c| c as f64).collect()))
                    .collect();
                let region = HyperRect::bounding_points(points.iter()).expect("non-empty");
                UncertainObject {
                    id: i as u64,
                    region,
                    pdf: Pdf::Explicit(Arc::new(points)),
                }
            })
            .collect();
        // A dominated rival: every instance far outside the grid.
        let far: Vec<Point> = (0..3)
            .map(|k| Point::new(vec![150.0 + k as f64; dim]))
            .collect();
        out.push(UncertainObject {
            id: 1000,
            region: HyperRect::bounding_points(far.iter()).expect("non-empty"),
            pdf: Pdf::Explicit(Arc::new(far)),
        });
        out
    })
}

/// The full naive Step-2 pipeline, replicated outside the driver: Step-1
/// ground truth, `(distmin², id)` candidate ordering, squared distances,
/// oracle kernel, probability-descending answer order.
fn oracle_pipeline(objs: &[UncertainObject], q: &Point) -> Vec<(u64, f64)> {
    let by_id = |id: u64| objs.iter().find(|o| o.id == id).expect("known id");
    let ids = possible_nn(objs.iter(), q);
    let mut order: Vec<(u64, f64)> = ids
        .iter()
        .map(|&id| (id, min_dist_sq(&by_id(id).region, q)))
        .collect();
    order.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    let sorted: Vec<(u64, Vec<f64>)> = order
        .iter()
        .map(|&(id, _)| {
            let mut ds: Vec<f64> = by_id(id).samples().iter().map(|s| s.dist_sq(q)).collect();
            ds.sort_unstable_by(f64::total_cmp);
            (id, ds)
        })
        .collect();
    let mut answers = qualification_from_sorted(&sorted);
    answers.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    answers
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Kernel-level law: on identical pre-sorted lists the sweep and the
    /// oracle agree bit for bit.
    #[test]
    fn sweep_is_bitwise_equal_to_oracle(lists in arb_sorted_lists()) {
        let naive = qualification_from_sorted(&lists);
        let mut dists = Vec::new();
        let mut spans = Vec::new();
        for (id, ds) in &lists {
            spans.push((*id, dists.len() as u32, ds.len() as u32));
            dists.extend_from_slice(ds);
        }
        let mut swept = Vec::new();
        qualification_sweep_into(&spans, &dists, &mut ProbScratch::default(), &mut swept);
        assert_bitwise_equal(&naive, &swept);
    }

    /// The sweep's any-order contract: each list reversed, then rotated by
    /// a drawn offset, still gives the oracle's bits on the sorted lists.
    #[test]
    fn sweep_takes_spans_in_any_order(
        lists in arb_sorted_lists(),
        offsets in prop::collection::vec(0usize..10, 8..9),
    ) {
        let naive = qualification_from_sorted(&lists);
        let mut dists = Vec::new();
        let mut spans = Vec::new();
        for ((id, ds), offset) in lists.iter().zip(offsets.iter().cycle()) {
            let mut permuted = ds.clone();
            permuted.reverse();
            let shift = offset % permuted.len().max(1);
            permuted.rotate_left(shift);
            spans.push((*id, dists.len() as u32, permuted.len() as u32));
            dists.extend_from_slice(&permuted);
        }
        let mut swept = Vec::new();
        qualification_sweep_into(&spans, &dists, &mut ProbScratch::default(), &mut swept);
        assert_bitwise_equal(&naive, &swept);
    }

    /// Database-level law in 2/3/4 dimensions: the convenience wrappers
    /// (which also exercise the decode-free distance path) agree bit for
    /// bit, and the dominated rival really has probability zero.
    #[test]
    fn wrappers_agree_on_random_databases(
        dim in 2usize..5,
        seed_objs in prop::collection::vec(prop::collection::vec(prop::collection::vec(0i8..8, 4), 1..8), 1..6),
        q_cell in prop::collection::vec(0i8..8, 4),
    ) {
        // Reuse the 4-d generator output, truncating coordinates to `dim`.
        let objs: Vec<UncertainObject> = seed_objs
            .iter()
            .enumerate()
            .map(|(i, pts)| {
                let points: Vec<Point> = pts
                    .iter()
                    .map(|cs| Point::new(cs.iter().take(dim).map(|&c| c as f64).collect()))
                    .collect();
                let region = HyperRect::bounding_points(points.iter()).expect("non-empty");
                UncertainObject { id: i as u64, region, pdf: Pdf::Explicit(Arc::new(points)) }
            })
            .collect();
        let q = Point::new(q_cell.iter().take(dim).map(|&c| c as f64).collect());
        let refs: Vec<&UncertainObject> = objs.iter().collect();
        let naive = qualification_probabilities(&q, &refs);
        let swept = qualification_probabilities_sweep(&q, &refs);
        assert_bitwise_equal(&naive, &swept);
    }

    /// Driver-level law: `LinearScan::execute` (squared-distance ordering,
    /// sweep kernel, scratch buffers) returns exactly the answers of the
    /// replicated naive pipeline — same probabilities, same order.
    #[test]
    fn driver_matches_naive_pipeline(dim in 2usize..5, objs4 in arb_objects(4), q_cell in prop::collection::vec(0i8..8, 4)) {
        // Project the 4-d generator output down to `dim`.
        let objs: Vec<UncertainObject> = objs4
            .iter()
            .map(|o| {
                let points: Vec<Point> = match &o.pdf {
                    Pdf::Explicit(pts) => pts
                        .iter()
                        .map(|p| Point::new(p.coords().iter().take(dim).copied().collect()))
                        .collect(),
                    _ => unreachable!("generator emits explicit pdfs"),
                };
                let region = HyperRect::bounding_points(points.iter()).expect("non-empty");
                UncertainObject { id: o.id, region, pdf: Pdf::Explicit(Arc::new(points)) }
            })
            .collect();
        let domain = HyperRect::cube(dim, -10.0, 400.0);
        let db = UncertainDb::new(domain, objs.clone());
        let scan = LinearScan::new(&db);
        let q = Point::new(q_cell.iter().take(dim).map(|&c| c as f64).collect());

        let got = scan.execute(&q, &QuerySpec::new()).expect("query");
        let want = oracle_pipeline(&objs, &q);
        assert_bitwise_equal(&want, &got.answers);

        // The far rival is a Step-1 candidate only if it minimises distmax
        // for no point here (it never does on this grid), so when present it
        // must carry exactly zero probability.
        if let Some(p) = got.probability_of(1000) {
            prop_assert_eq!(p, 0.0);
        }
    }

    /// Single-candidate degenerate case, all dimensions: probability is
    /// exactly 1 under both kernels.
    #[test]
    fn single_candidate_is_certain_in_all_dims(dim in 2usize..5, cell in prop::collection::vec(0i8..8, 4), n in 1u32..40) {
        let lo: Vec<f64> = cell.iter().take(dim).map(|&c| c as f64).collect();
        let hi: Vec<f64> = lo.iter().map(|l| l + 2.0).collect();
        let o = UncertainObject::uniform(9, HyperRect::new(lo, hi), n);
        let q = Point::new(vec![0.0; dim]);
        let naive = qualification_probabilities(&q, &[&o]);
        let swept = qualification_probabilities_sweep(&q, &[&o]);
        prop_assert_eq!(naive.len(), 1);
        prop_assert_eq!(naive[0].0, 9u64);
        // n · (1/n) accumulated n times: exact only for power-of-two n,
        // within an ulp or two otherwise.
        prop_assert!((naive[0].1 - 1.0).abs() < 1e-12, "P = {}", naive[0].1);
        assert_bitwise_equal(&naive, &swept);
    }
}
