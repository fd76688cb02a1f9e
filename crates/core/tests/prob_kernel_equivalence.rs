//! Property tests pitting the merged-CDF sweep kernel against the retained
//! naive oracle (`qualification_from_sorted`), demanding **bitwise** equal
//! probabilities — the contract that lets the query driver swap kernels
//! without changing a single reported answer.
//!
//! The generators deliberately stress the hard cases: duplicate distances
//! within a candidate, exact ties across candidates, zero-probability
//! (dominated) rivals, empty instance lists and the single-candidate query.
//! The wide-range lists fill the sweep's distribution merge: hundreds of
//! distances per candidate across many binades, subnormals and `±0.0`, and
//! one scratch is reused across calls of every shape.
//! The sweep takes each candidate's distances in any order; the oracle takes
//! them sorted. The `PROPTEST_CASES` environment variable scales the case
//! count; CI runs this suite at 1024 cases on every push.

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

/// Case count: 128 per property by default, or `PROPTEST_CASES` (1024 in
/// CI).
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

/// Values every wide-range list draws from, so that exact ties across
/// candidates are planted: the smallest subnormal and values from several
/// binades.
const TIE_POOL: [f64; 6] = [5e-324, 1e-300, 0.75, 1.0, 3.5, 1e5];

/// One wide-range distance from a drawn `(kind, bits)` pair: mostly a value
/// from the 80 binades that start 40 below `2^(8·scale)`, with subnormals,
/// signed zeros and [`TIE_POOL`] values mixed in.
fn wide_distance(kind: u8, bits: u64, scale: u64) -> f64 {
    const MANTISSA: u64 = (1 << 52) - 1;
    match kind {
        0 => f64::from_bits(bits & MANTISSA),
        1 if bits & 1 == 0 => 0.0,
        1 => -0.0,
        2 | 3 => TIE_POOL[(bits % TIE_POOL.len() as u64) as usize],
        _ => {
            let exponent = 1023 - 40 + 8 * scale + (bits >> 52) % 80;
            f64::from_bits(exponent << 52 | (bits & MANTISSA))
        }
    }
}

/// 1–6 lists of 100–400 distances each, in drawn (unsorted) order, spread
/// across many binades: enough kept events to fill the sweep's buckets, and
/// key ranges from subnormals and `-0.0` up. Each list's binade window is
/// shifted by a drawn `scale`, so the cutoff often falls inside a list.
fn arb_wide_lists() -> impl Strategy<Value = Vec<(u64, Vec<f64>)>> {
    let list = (
        0u64..4,
        prop::collection::vec((0u8..16, any::<u64>()), 100..400),
    );
    prop::collection::vec(list, 1..7).prop_map(|lists| {
        (0u64..)
            .zip(lists)
            .map(|(id, (scale, draws))| {
                let ds = draws
                    .into_iter()
                    .map(|(kind, bits)| wide_distance(kind, bits, scale))
                    .collect();
                (id, ds)
            })
            .collect()
    })
}

/// The lists laid out as the query driver lays them out: `(id, start, len)`
/// spans into one flat distance buffer, each list in its given order.
fn spans_of(lists: &[(u64, Vec<f64>)]) -> (Vec<(u64, u32, u32)>, Vec<f64>) {
    let mut dists = Vec::new();
    let mut spans = Vec::new();
    for (id, ds) in lists {
        spans.push((*id, dists.len() as u32, ds.len() as u32));
        dists.extend_from_slice(ds);
    }
    (spans, dists)
}

/// Each list sorted ascending, as the oracle takes it.
fn sorted(lists: &[(u64, Vec<f64>)]) -> Vec<(u64, Vec<f64>)> {
    lists
        .iter()
        .map(|(id, ds)| {
            let mut ds = ds.clone();
            ds.sort_unstable_by(f64::total_cmp);
            (*id, ds)
        })
        .collect()
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
        let (spans, dists) = spans_of(&lists);
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

    /// The distribution merge on wide-range lists: hundreds of unsorted
    /// distances per candidate across many binades, subnormals, `±0.0` and
    /// planted cross-candidate ties still give the oracle's bits on the
    /// sorted lists.
    #[test]
    fn sweep_matches_oracle_on_wide_range_lists(lists in arb_wide_lists()) {
        let naive = qualification_from_sorted(&sorted(&lists));
        let (spans, dists) = spans_of(&lists);
        let mut swept = Vec::new();
        qualification_sweep_into(&spans, &dists, &mut ProbScratch::default(), &mut swept);
        assert_bitwise_equal(&naive, &swept);
    }

    /// One `ProbScratch` (and one output buffer) driven through a drawn
    /// sequence of calls of different shapes, tie-heavy and wide-range,
    /// growing and shrinking, gives every call a fresh scratch's bits.
    #[test]
    fn reused_scratch_matches_fresh_scratch(
        calls in prop::collection::vec(prop_oneof![arb_sorted_lists(), arb_wide_lists()], 2..8),
    ) {
        let mut reused = ProbScratch::default();
        let mut got = Vec::new();
        for lists in &calls {
            let (spans, dists) = spans_of(lists);
            let mut want = Vec::new();
            qualification_sweep_into(&spans, &dists, &mut ProbScratch::default(), &mut want);
            qualification_sweep_into(&spans, &dists, &mut reused, &mut got);
            assert_bitwise_equal(&want, &got);
        }
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
