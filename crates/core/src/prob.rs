//! PNNQ Step 2 — qualification-probability computation.
//!
//! Implements the discrete-instance method of Cheng et al. (the paper's
//! reference \[8\]) that §VI-A plugs in after Step 1: given the candidate
//! objects (those whose PV-cells contain `q`), the probability that object
//! `o` is the nearest neighbor of `q` is
//!
//! ```text
//! P(o) = Σ_{instance s of o} p(s) · Π_{o' ≠ o} P( dist(o', q) > dist(s, q) )
//! ```
//!
//! where each instance carries probability `1/n` and
//! `P(dist(o',q) > r)` is the fraction of `o'`'s instances farther than `r`.
//! The probabilities depend only on distance *comparisons*, so the whole
//! module works on **squared** Euclidean distances — monotone in the true
//! distances and one `sqrt` per instance cheaper to produce.
//!
//! Two kernels compute the same function:
//!
//! * [`qualification_from_sorted`] — the naive oracle: every factor is a
//!   binary search, `O(c² · s · log s)` for `c` candidates of `s` instances.
//! * [`qualification_sweep_into`] — the production kernel: a **merged-CDF
//!   sweep**. The candidates' distances (each list in any order) are merged
//!   once; walking the merged sequence in ascending order, each candidate's
//!   "farther-mass" `(n_j − |{d ≤ r}|)/n_j` is maintained incrementally in
//!   a product tree, so each world's rival product is an `O(log c)` tree
//!   walk instead of an `O(c log s)` rescan. Allocation-free given a warmed
//!   [`ProbScratch`].
//!
//! The sweep visits only the worlds that can carry mass. Let `cutoff` be the
//! smallest *farthest instance* over the candidates, attained by `o_k`. In
//! every world at a distance past `cutoff`, `o_k` has farther-mass `0/n_k`,
//! so the rival product is exactly `+0.0` and the world adds exactly `+0.0`
//! to its candidate's sum, which leaves the sum's bits unchanged. (This is
//! the nonzero-NN argument of Agarwal et al. applied to instances.) The
//! sweep therefore merges only the `K ≤ c · s` instances at or below
//! `cutoff`. When they all belong to one candidate, every rival factor of
//! its worlds is exactly `1.0`, and the sum needs neither the merge nor the
//! tree.
//!
//! The merge compares no floats. Each distance becomes an order key, the
//! `f64::total_cmp` bit transform, under which unsigned integer order is
//! `total_cmp` order. A counting pass places the kept events by the top bits
//! of `key − min_key`, about one bucket per two events, and an insertion
//! pass restores exact order inside each bucket: `O(c · s + K)` expected,
//! plus the `K log c` tree walks.
//!
//! Both kernels combine rival factors with the *same* canonical product-tree
//! association (see `padded_tree_product` in this module), so their outputs
//! are **bitwise identical** — the oracle stays in the tree as the trusted
//! reference the property tests compare against.

use pv_geom::Point;
use pv_uncertain::UncertainObject;

/// Computes the qualification probability of every candidate.
///
/// Returns `(id, probability)` pairs in the input order. Candidates with
/// zero probability (possible when UBR-based Step 1 over-approximates) are
/// retained with `0.0` so callers can observe the filter effectiveness.
///
/// This is the naive-oracle entry point (it materialises every candidate's
/// instances); the query engine drives [`qualification_sweep_into`] instead.
pub fn qualification_probabilities(q: &Point, candidates: &[&UncertainObject]) -> Vec<(u64, f64)> {
    let sorted: Vec<(u64, Vec<f64>)> = candidates
        .iter()
        .map(|o| {
            let mut dists: Vec<f64> = o.samples().iter().map(|s| s.dist_sq(q)).collect();
            dists.sort_unstable_by(f64::total_cmp);
            (o.id, dists)
        })
        .collect();
    qualification_from_sorted(&sorted)
}

/// Sweep-kernel counterpart of [`qualification_probabilities`]: same inputs,
/// same output (bitwise), evaluated through [`qualification_sweep_into`].
/// Exists so tests can pit the two kernels against each other on arbitrary
/// databases without reimplementing the distance plumbing.
pub fn qualification_probabilities_sweep(
    q: &Point,
    candidates: &[&UncertainObject],
) -> Vec<(u64, f64)> {
    let mut dists: Vec<f64> = Vec::new();
    let mut spans: Vec<(u64, u32, u32)> = Vec::with_capacity(candidates.len());
    let mut scratch = pv_uncertain::SampleScratch::default();
    for o in candidates {
        let start = dists.len() as u32;
        o.dists_sq_into(q, &mut scratch, &mut dists);
        spans.push((o.id, start, dists.len() as u32 - start));
    }
    let mut out = Vec::new();
    qualification_sweep_into(&spans, &dists, &mut ProbScratch::default(), &mut out);
    out
}

/// Qualification probabilities from pre-sorted per-candidate instance
/// distances — the naive Step-2 oracle, retained as the reference
/// implementation the optimized sweep is validated against.
///
/// `candidates[i].1` must be the ascending (squared) distances of candidate
/// `i`'s instances to the query point; any monotone transform of the true
/// distances yields the same probabilities. Returns `(id, probability)` in
/// input order, bitwise identical to [`qualification_sweep_into`] on the
/// same lists.
pub fn qualification_from_sorted(candidates: &[(u64, Vec<f64>)]) -> Vec<(u64, f64)> {
    let c = candidates.len();
    let mut factors = vec![1.0f64; c];
    candidates
        .iter()
        .enumerate()
        .map(|(i, (id, dists))| {
            let n = dists.len();
            if n == 0 {
                return (*id, 0.0);
            }
            let inv_n = 1.0 / n as f64;
            let mut p = 0.0;
            for &d in dists {
                for (f, (j, (_, other))) in factors.iter_mut().zip(candidates.iter().enumerate()) {
                    *f = if j == i { 1.0 } else { frac_farther(other, d) };
                }
                p += inv_n * padded_tree_product(&factors);
            }
            (*id, p)
        })
        .collect()
}

/// Fraction of (sorted) distances strictly greater than `r`.
fn frac_farther(sorted: &[f64], r: f64) -> f64 {
    if sorted.is_empty() {
        return 1.0; // an absent competitor never wins
    }
    // first index with dist > r
    let idx = sorted.partition_point(|&d| d <= r);
    (sorted.len() - idx) as f64 / sorted.len() as f64
}

/// The canonical rival-product association: a perfect binary tree over the
/// factor list padded to the next power of two with exact `1.0`s, each node
/// the product `left * right`.
///
/// Floating-point multiplication is not associative, so "the product of all
/// rival factors" is only well defined once an association is fixed. Both
/// Step-2 kernels use this one — the oracle by direct recursion (here), the
/// sweep by maintaining the same tree incrementally — which is what makes
/// their outputs bitwise equal rather than merely close.
fn padded_tree_product(factors: &[f64]) -> f64 {
    fn node(factors: &[f64], lo: usize, width: usize) -> f64 {
        if width == 1 {
            return factors.get(lo).copied().unwrap_or(1.0);
        }
        let half = width / 2;
        node(factors, lo, half) * node(factors, lo + half, half)
    }
    node(factors, 0, factors.len().next_power_of_two().max(1))
}

/// Reusable buffers for [`qualification_sweep_into`]. One per query thread;
/// after warm-up the sweep performs no heap allocation.
#[derive(Debug, Default, Clone)]
pub struct ProbScratch {
    /// Each span's nearest instance as an [`order_key`]; `None` when empty.
    nearest: Vec<Option<u64>>,
    /// The kept `(order key, candidate index)` events, in span order.
    gathered: Vec<(u64, u32)>,
    /// The kept events in ascending `(order key, candidate index)` order.
    events: Vec<(u64, u32)>,
    /// Per-bucket offsets into `events` for the distribution pass.
    buckets: Vec<u32>,
    /// Instances of each candidate processed so far (`|{d ≤ r}|`).
    counts: Vec<u32>,
    /// The incremental product tree (1-indexed array form).
    tree: Vec<f64>,
    /// Per-candidate probability accumulators.
    probs: Vec<f64>,
}

/// The merged-CDF sweep — the optimized Step-2 kernel.
///
/// `spans[k] = (id, start, len)` describes candidate `k`: its instance
/// distances are `dists[start .. start + len]`, **in any order** (squared
/// distances in the query engine; any monotone metric works). A span that
/// does not fit in `dists` reads as empty. Writes `(id, probability)` pairs
/// to `out` (cleared first) in span order, bitwise identical to
/// [`qualification_from_sorted`] on the same lists sorted — ties included,
/// because an instance's rivals are counted *after* every event with an
/// equal distance has been applied, exactly like the oracle's `d ≤ r`
/// partition point.
///
/// Distances are compared as order keys: the `f64::total_cmp` bit
/// transform, under which unsigned integer order is `total_cmp` order. One
/// pass over each span gives its nearest and farthest key. `cutoff`, the
/// smallest farthest key, bounds the worlds that can carry mass: past it,
/// the candidate attaining it has farther-mass `0/n = 0.0`, so every later
/// world's rival product is `+0.0` and `p += inv_n * 0.0` leaves `p`'s bits
/// unchanged. The kept worlds are those at or below `cutoff`, ties at it
/// included; IEEE `==` ties a `+0.0` to a `-0.0` cutoff, so that cutoff
/// keeps the `+0.0` key too, the next key up. If only one span has an
/// instance that low, every rival factor of its worlds is exactly `1.0`: its
/// sum is `n` additions of `1/n`, with nothing gathered and no tree walk.
///
/// Otherwise the kept events of the contributing spans are gathered and
/// merged without comparisons between spans: a counting pass places them by
/// the top bits of `key − min_key`, about one bucket per two events, and an
/// insertion pass restores exact order inside each bucket. Both passes are
/// stable, so equal keys keep their span order, which is the `(distance,
/// candidate)` order the sweep needs.
///
/// Complexity: `O(N + K)` expected, plus `O(K log c)` for the tree updates
/// and the per-world exclusion walks, for `N` total instances, `K ≤ N` of
/// them kept, and `c` candidates. The `N` term is the per-span pass and the
/// gather; the `K` term is the distribution merge, linear while the kept
/// keys spread over the buckets (keys crowded into a few buckets cost up to
/// the square of a bucket's size in the insertion pass).
pub fn qualification_sweep_into(
    spans: &[(u64, u32, u32)],
    dists: &[f64],
    scratch: &mut ProbScratch,
    out: &mut Vec<(u64, f64)>,
) {
    scratch.nearest.clear();
    let mut cutoff: Option<u64> = None;
    for span in spans {
        let span = span_dists(dists, span);
        let (mut near, mut far) = (u64::MAX, u64::MIN);
        for &d in span {
            let key = order_key(d);
            near = near.min(key);
            far = far.max(key);
        }
        let filled = !span.is_empty();
        scratch.nearest.push(filled.then_some(near));
        if filled {
            cutoff = Some(cutoff.map_or(far, |c| c.min(far)));
        }
    }
    scratch.probs.clear();
    scratch.probs.resize(spans.len(), 0.0);
    if let Some(cutoff) = cutoff {
        let threshold = if cutoff == order_key(-0.0) {
            order_key(0.0)
        } else {
            cutoff
        };
        let mut contributors = scratch
            .nearest
            .iter()
            .enumerate()
            .filter(|(_, near)| near.is_some_and(|near| near <= threshold))
            .map(|(ci, _)| ci);
        match (contributors.next(), contributors.next()) {
            (Some(ci), None) => {
                // No rival has an instance at or below any of this
                // candidate's worlds: each rival product is exactly 1.0.
                if let (Some(p), Some(&(_, _, n))) = (scratch.probs.get_mut(ci), spans.get(ci)) {
                    let inv_n = 1.0 / f64::from(n);
                    for _ in 0..n {
                        *p += inv_n;
                    }
                }
            }
            _ => {
                merge_kept(spans, dists, threshold, scratch);
                sweep_events(spans, scratch);
            }
        }
    }
    out.clear();
    let ids = spans.iter().map(|&(id, ..)| id);
    out.extend(ids.zip(scratch.probs.iter().copied()));
}

/// The distances of `span`; empty when it does not fit in `dists`.
fn span_dists<'a>(dists: &'a [f64], &(_, start, len): &(u64, u32, u32)) -> &'a [f64] {
    let start = start as usize;
    dists.get(start..start + len as usize).unwrap_or_default()
}

/// `d` as an unsigned integer in `f64::total_cmp` order: the sign bit is
/// set on a non-negative value and every bit is flipped on a negative one.
fn order_key(d: f64) -> u64 {
    let bits = d.to_bits();
    bits ^ ((((bits as i64) >> 63) as u64) | (1 << 63))
}

/// The distance an [`order_key`] was made from.
fn from_order_key(key: u64) -> f64 {
    f64::from_bits(key ^ ((((!key as i64) >> 63) as u64) | (1 << 63)))
}

/// Gathers the events at or below `threshold` from the spans whose nearest
/// key reaches it, and writes them to `scratch.events` in ascending
/// `(order key, candidate index)` order by a distribution merge.
fn merge_kept(spans: &[(u64, u32, u32)], dists: &[f64], threshold: u64, scratch: &mut ProbScratch) {
    let ProbScratch {
        nearest,
        gathered,
        events,
        buckets,
        ..
    } = scratch;
    gathered.clear();
    let mut min_key = threshold;
    for ((ci, span), &near) in (0u32..).zip(spans).zip(nearest.iter()) {
        let Some(near) = near.filter(|&near| near <= threshold) else {
            continue;
        };
        min_key = min_key.min(near);
        let keys = span_dists(dists, span).iter().map(|&d| order_key(d));
        gathered.extend(keys.filter(|&key| key <= threshold).map(|key| (key, ci)));
    }
    // Counting pass: bucket `b` holds the keys whose offset from `min_key`
    // has `b` as its top bits. The bucket count is the power of two at or
    // above half the events: rounding down instead crowds the top binades,
    // where most kept distances lie, and the insertion pass then pays for
    // the unsorted spans.
    let bucket_bits = (gathered.len() / 2).max(1).next_power_of_two().ilog2();
    let range_bits = u64::BITS - (threshold - min_key).leading_zeros();
    let shift = range_bits.saturating_sub(bucket_bits);
    let bucket = |key: u64| ((key - min_key) >> shift) as usize;
    buckets.clear();
    buckets.resize(bucket(threshold) + 2, 0);
    for &(key, _) in gathered.iter() {
        if let Some(count) = buckets.get_mut(bucket(key) + 1) {
            *count += 1;
        }
    }
    let mut start = 0;
    for offset in buckets.iter_mut() {
        start += *offset;
        *offset = start;
    }
    events.clear();
    events.resize(gathered.len(), (0, 0));
    for &event in gathered.iter() {
        if let Some(next) = buckets.get_mut(bucket(event.0)) {
            if let Some(slot) = events.get_mut(*next as usize) {
                *slot = event;
            }
            *next += 1;
        }
    }
    // Insertion pass: every key of an earlier bucket is smaller, so each
    // event moves back only past the larger keys of its own bucket, and
    // never past an equal one.
    for i in 1..events.len() {
        let Some(&event) = events.get(i) else {
            break;
        };
        let mut at = i;
        while let Some(&before) = at.checked_sub(1).and_then(|b| events.get(b)) {
            if before.0 <= event.0 {
                break;
            }
            if let Some(slot) = events.get_mut(at) {
                *slot = before;
            }
            at -= 1;
        }
        if let Some(slot) = events.get_mut(at) {
            *slot = event;
        }
    }
}

/// The sweep proper over `scratch.events`, the kept events in ascending
/// `(distance, candidate)` order when no single candidate holds them all:
/// accumulates every world's rival product into `scratch.probs`.
fn sweep_events(spans: &[(u64, u32, u32)], scratch: &mut ProbScratch) {
    let ProbScratch {
        events,
        counts,
        tree,
        probs,
        ..
    } = scratch;
    let size = spans.len().next_power_of_two();
    tree.clear();
    tree.resize(2 * size, 1.0);
    counts.clear();
    counts.resize(spans.len(), 0);
    for group in events.chunk_by(|a, b| from_order_key(a.0) == from_order_key(b.0)) {
        // Phase 1: absorb every instance at exactly this distance into the
        // counts *before* evaluating any world at it — ties across (and
        // within) candidates count as "not farther", matching `d ≤ r`.
        for &(_, ci) in group {
            let ci = ci as usize;
            if let (Some(count), Some(&(_, _, n))) = (counts.get_mut(ci), spans.get(ci)) {
                *count += 1;
                set_leaf(tree, size + ci, f64::from(n - *count) / f64::from(n));
            }
        }
        // Phase 2: one world per instance — the product of every rival's
        // farther-mass, read off the tree by the sibling walk (equivalent to
        // re-deriving the root with this candidate's leaf set to 1.0, in the
        // canonical association).
        for &(_, ci) in group {
            let ci = ci as usize;
            if let (Some(p), Some(&(_, _, n))) = (probs.get_mut(ci), spans.get(ci)) {
                let inv_n = 1.0 / f64::from(n);
                *p += inv_n * rival_product(tree, size + ci);
            }
        }
    }
}

/// Sets leaf `leaf` of the 1-indexed product tree to `value` and recomputes
/// every ancestor as `left * right`.
fn set_leaf(tree: &mut [f64], leaf: usize, value: f64) {
    if let Some(slot) = tree.get_mut(leaf) {
        *slot = value;
    }
    let mut p = leaf >> 1;
    while p >= 1 {
        if let Some(&[left, right]) = tree.get(2 * p..2 * p + 2) {
            if let Some(slot) = tree.get_mut(p) {
                *slot = left * right;
            }
        }
        p >>= 1;
    }
}

/// The product of every leaf but `leaf`, by the sibling walk up to the root.
fn rival_product(tree: &[f64], leaf: usize) -> f64 {
    let mut v = 1.0f64;
    let mut p = leaf;
    while p > 1 {
        // IEEE-754 multiplication commutes bit-exactly, so both sibling
        // sides reduce to `v *=` without breaking the canonical-association
        // equivalence.
        v *= tree.get(p ^ 1).copied().unwrap_or(1.0);
        p >>= 1;
    }
    v
}

/// Estimated number of disk pages an instance payload of `n_samples`
/// `dim`-dimensional points occupies (the paper's storage model for pdfs).
pub fn payload_pages(n_samples: usize, dim: usize, page_size: usize) -> u64 {
    let bytes = n_samples * dim * std::mem::size_of::<f64>();
    (bytes as u64).div_ceil(page_size as u64).max(1)
}

/// Estimated number of disk pages a candidate's full instance payload
/// occupies (used to charge Step-2 I/O for lazily materialised pdfs, which
/// the paper would have read from disk — see ARCHITECTURE.md §1).
pub fn pdf_payload_pages(o: &UncertainObject, page_size: usize) -> u64 {
    payload_pages(o.pdf.n_samples(), o.region.dim(), page_size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_geom::HyperRect;
    use pv_uncertain::Pdf;
    use std::sync::Arc;

    fn explicit(id: u64, region: HyperRect, pts: Vec<Point>) -> UncertainObject {
        UncertainObject {
            id,
            region,
            pdf: Pdf::Explicit(Arc::new(pts)),
        }
    }

    fn mk(lo: &[f64], hi: &[f64]) -> HyperRect {
        HyperRect::new(lo.to_vec(), hi.to_vec())
    }

    #[test]
    fn certain_winner_gets_probability_one() {
        let q = Point::new(vec![0.0, 0.0]);
        let near = explicit(
            1,
            mk(&[1.0, 0.0], &[2.0, 1.0]),
            vec![Point::new(vec![1.0, 0.0]), Point::new(vec![2.0, 1.0])],
        );
        let far = explicit(
            2,
            mk(&[10.0, 10.0], &[11.0, 11.0]),
            vec![Point::new(vec![10.0, 10.0]), Point::new(vec![11.0, 11.0])],
        );
        let probs = qualification_probabilities(&q, &[&near, &far]);
        assert_eq!(probs[0], (1, 1.0));
        assert_eq!(probs[1], (2, 0.0));
    }

    #[test]
    fn symmetric_objects_split_evenly() {
        let q = Point::new(vec![0.0, 0.0]);
        // interleaved tie-free distances: a at {1, 4}, b at {2, 3}
        let a = explicit(
            1,
            mk(&[1.0, -1.0], &[4.0, 1.0]),
            vec![Point::new(vec![1.0, 0.0]), Point::new(vec![4.0, 0.0])],
        );
        let b = explicit(
            2,
            mk(&[-3.0, -1.0], &[-2.0, 1.0]),
            vec![Point::new(vec![-2.0, 0.0]), Point::new(vec![-3.0, 0.0])],
        );
        let probs = qualification_probabilities(&q, &[&a, &b]);
        // P(a) = ½·P(b>1) + ½·P(b>4) = ½·1 + 0 = ½
        // P(b) = ½·P(a>2) + ½·P(a>3) = ¼ + ¼ = ½
        assert!((probs[0].1 - 0.5).abs() < 1e-12);
        assert!((probs[1].1 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn identical_instance_distances_lose_tied_mass() {
        // With strict comparison, tied worlds award the win to no one; the
        // remaining mass is exactly the probability of a strict winner.
        let q = Point::new(vec![0.0]);
        let a = explicit(
            1,
            mk(&[1.0], &[3.0]),
            vec![Point::new(vec![1.0]), Point::new(vec![3.0])],
        );
        let b = explicit(
            2,
            mk(&[1.0], &[3.0]),
            vec![Point::new(vec![1.0]), Point::new(vec![3.0])],
        );
        let probs = qualification_probabilities(&q, &[&a, &b]);
        // each: ½·P(other>1)=½·½ + ½·P(other>3)=0 → ¼
        assert!((probs[0].1 - 0.25).abs() < 1e-12);
        assert!((probs[1].1 - 0.25).abs() < 1e-12);
    }

    #[test]
    fn probabilities_sum_to_one_without_ties() {
        let q = Point::new(vec![5.0, 5.0]);
        let objs: Vec<UncertainObject> = (0..6)
            .map(|i| {
                let base = 1.0 + i as f64;
                UncertainObject::uniform(i as u64, mk(&[base, base], &[base + 2.0, base + 2.0]), 64)
            })
            .collect();
        let refs: Vec<&UncertainObject> = objs.iter().collect();
        let probs = qualification_probabilities(&q, &refs);
        let total: f64 = probs.iter().map(|(_, p)| p).sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "probabilities must sum to 1, got {total}"
        );
        assert!(probs.iter().all(|&(_, p)| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn dominated_candidate_gets_zero() {
        let q = Point::new(vec![0.0]);
        let near = explicit(
            1,
            mk(&[1.0], &[2.0]),
            vec![Point::new(vec![1.0]), Point::new(vec![2.0])],
        );
        // every instance of `blocked` is farther than near's farthest
        let blocked = explicit(
            2,
            mk(&[5.0], &[6.0]),
            vec![Point::new(vec![5.0]), Point::new(vec![6.0])],
        );
        let probs = qualification_probabilities(&q, &[&near, &blocked]);
        assert_eq!(probs[1].1, 0.0);
        assert_eq!(probs[0].1, 1.0);
    }

    #[test]
    fn partial_overlap_gives_intermediate_probability() {
        let q = Point::new(vec![0.0]);
        // a: instances at 1, 3 ; b: instances at 2, 4
        let a = explicit(
            1,
            mk(&[1.0], &[3.0]),
            vec![Point::new(vec![1.0]), Point::new(vec![3.0])],
        );
        let b = explicit(
            2,
            mk(&[2.0], &[4.0]),
            vec![Point::new(vec![2.0]), Point::new(vec![4.0])],
        );
        let probs = qualification_probabilities(&q, &[&a, &b]);
        // P(a) = 1/2·[d=1: b>1 always =1] + 1/2·[d=3: b>3 w.p. 1/2] = 0.75
        assert!((probs[0].1 - 0.75).abs() < 1e-12);
        assert!((probs[1].1 - 0.25).abs() < 1e-12);
    }

    #[test]
    fn single_candidate_is_certain() {
        let q = Point::new(vec![9.0, 9.0]);
        let only = UncertainObject::uniform(3, mk(&[0.0, 0.0], &[1.0, 1.0]), 32);
        let probs = qualification_probabilities(&q, &[&only]);
        assert_eq!(probs, vec![(3, 1.0)]);
    }

    #[test]
    fn payload_page_estimate() {
        let o = UncertainObject::uniform(1, mk(&[0.0, 0.0, 0.0], &[1.0, 1.0, 1.0]), 500);
        // 500 × 3 × 8 = 12000 bytes → 3 pages of 4096
        assert_eq!(pdf_payload_pages(&o, 4096), 3);
        let tiny = UncertainObject::uniform(2, mk(&[0.0], &[1.0]), 1);
        assert_eq!(pdf_payload_pages(&tiny, 4096), 1);
    }

    #[test]
    fn frac_farther_edges() {
        let v = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(frac_farther(&v, 0.5), 1.0);
        assert_eq!(frac_farther(&v, 2.0), 0.5); // strictly greater
        assert_eq!(frac_farther(&v, 4.0), 0.0);
        assert_eq!(frac_farther(&[], 1.0), 1.0);
    }

    /// The sweep kernel on `(id, distances)` lists, each in the order given.
    fn sweep(candidates: &[(u64, Vec<f64>)]) -> Vec<(u64, f64)> {
        let mut dists = Vec::new();
        let mut spans = Vec::new();
        for (id, ds) in candidates {
            spans.push((*id, dists.len() as u32, ds.len() as u32));
            dists.extend_from_slice(ds);
        }
        let mut swept = Vec::new();
        qualification_sweep_into(&spans, &dists, &mut ProbScratch::default(), &mut swept);
        swept
    }

    fn assert_bitwise_eq(want: &[(u64, f64)], got: &[(u64, f64)]) {
        assert_eq!(want.len(), got.len());
        for ((ia, pa), (ib, pb)) in want.iter().zip(got.iter()) {
            assert_eq!(ia, ib);
            assert_eq!(
                pa.to_bits(),
                pb.to_bits(),
                "kernels disagree on P({ia}): {pa} vs {pb}"
            );
        }
    }

    /// Runs the sweep on the lists as given and the oracle on sorted copies,
    /// and demands bitwise equality.
    fn assert_kernels_agree(candidates: &[(u64, Vec<f64>)]) {
        let sorted: Vec<(u64, Vec<f64>)> = candidates
            .iter()
            .map(|(id, ds)| {
                let mut ds = ds.clone();
                ds.sort_unstable_by(f64::total_cmp);
                (*id, ds)
            })
            .collect();
        assert_bitwise_eq(&qualification_from_sorted(&sorted), &sweep(candidates));
    }

    /// 1–8 sorted lists of 0–11 distances on a tiny grid, so ties are common.
    fn random_sorted_lists(rng: &mut rand::rngs::StdRng) -> Vec<(u64, Vec<f64>)> {
        use rand::Rng;
        let c = rng.gen_range(1..9usize);
        (0..c)
            .map(|i| {
                let s = rng.gen_range(0..12usize);
                let mut ds: Vec<f64> = (0..s).map(|_| rng.gen_range(0..8) as f64 * 0.5).collect();
                ds.sort_unstable_by(f64::total_cmp);
                (i as u64, ds)
            })
            .collect()
    }

    #[test]
    fn sweep_matches_oracle_on_tie_heavy_lists() {
        // Duplicates within a candidate, ties across candidates, a
        // zero-probability rival, an empty candidate, a single candidate.
        assert_kernels_agree(&[(7, vec![1.0, 2.0, 3.0])]);
        assert_kernels_agree(&[(1, vec![1.0, 1.0, 4.0]), (2, vec![1.0, 2.0, 2.0])]);
        assert_kernels_agree(&[
            (1, vec![1.0, 2.0]),
            (2, vec![5.0, 6.0]), // dominated: zero probability
            (3, vec![1.0, 6.0]),
        ]);
        assert_kernels_agree(&[(1, vec![2.0, 2.0, 2.0]), (2, vec![2.0, 2.0, 2.0])]);
        assert_kernels_agree(&[(1, vec![]), (2, vec![1.0, 3.0]), (3, vec![0.5, 0.5, 9.0])]);
        assert_kernels_agree(&[]);
    }

    #[test]
    fn sweep_matches_oracle_on_random_lists() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for _ in 0..200 {
            assert_kernels_agree(&random_sorted_lists(&mut rng));
        }
    }

    #[test]
    fn rival_instance_at_the_cutoff_is_swept() {
        // The cutoff is 3, the first list's farthest, and the rival's
        // nearest instance is exactly 3: the rival contributes, so this must
        // not take the single-contributor path. Its instance counts as "not
        // farther" in the first list's world at 3: P = ½·1 + ½·½.
        let lists = [(1, vec![1.0, 3.0]), (2, vec![3.0, 5.0])];
        assert_kernels_agree(&lists);
        assert_eq!(sweep(&lists), vec![(1, 0.75), (2, 0.0)]);
        // A `-0.0` cutoff ties with the rival's `+0.0`, which `total_cmp`
        // alone would order past it.
        let lists = [(1, vec![-0.0]), (2, vec![5.0, 0.0])];
        assert_kernels_agree(&lists);
        assert_eq!(sweep(&lists), vec![(1, 0.5), (2, 0.0)]);
        let lists = [(1, vec![-0.0, -1.0]), (2, vec![0.0, 0.0, 2.0])];
        assert_kernels_agree(&lists);
        assert_eq!(sweep(&lists), vec![(1, 0.5 + 0.5 / 3.0), (2, 0.0)]);
        // One key past the cutoff the rival no longer contributes.
        let lists = [(1, vec![1.0, 3.0]), (2, vec![5.0, 3.0f64.next_up()])];
        assert_kernels_agree(&lists);
        assert_eq!(sweep(&lists), vec![(1, 1.0), (2, 0.0)]);
        let lists = [(1, vec![-0.0]), (2, vec![f64::from_bits(1)])];
        assert_kernels_agree(&lists);
        assert_eq!(sweep(&lists), vec![(1, 1.0), (2, 0.0)]);
    }

    #[test]
    fn kept_range_in_one_bucket_is_ordered_by_the_insertion_pass() {
        // Three kept events (cutoff 3) make one bucket; they arrive as
        // 3, 1, 2 and must sweep as 1, 2, 3.
        let lists = [(1, vec![3.0, 1.0]), (2, vec![2.0, 5.0])];
        assert_kernels_agree(&lists);
        assert_eq!(sweep(&lists), vec![(1, 0.75), (2, 0.25)]);
        // Forty kept events with one key: a zero-width range, all one tie.
        let lists: Vec<(u64, Vec<f64>)> = (0..4).map(|id| (id, vec![2.0; 10])).collect();
        assert_kernels_agree(&lists);
        assert!(sweep(&lists).iter().all(|&(_, p)| p == 0.0));
        // Consecutive doubles, reversed, a handful of keys wide.
        let run = |from: f64, n: usize| {
            let mut ds: Vec<f64> = std::iter::successors(Some(from), |d| Some(d.next_up()))
                .take(n)
                .collect();
            ds.reverse();
            ds
        };
        assert_kernels_agree(&[(1, run(1.0, 3)), (2, run(1.0f64.next_up(), 3))]);
    }

    #[test]
    fn one_contributor_skips_dominated_and_empty_spans() {
        // Only the first list has instances at or below the cutoff (2): its
        // worlds have no rival factor below 1.0, and the dominated and the
        // empty span get exactly 0.
        let lists = [(1, vec![2.0, 1.0]), (2, vec![5.0, 6.0]), (3, vec![])];
        assert_kernels_agree(&lists);
        assert_eq!(sweep(&lists), vec![(1, 1.0), (2, 0.0), (3, 0.0)]);
        // `n` additions of `1/n` for an `n` that is no power of two.
        assert_kernels_agree(&[(1, vec![3.0, 1.0, 2.0]), (2, vec![4.0])]);
    }

    #[test]
    fn nan_distances_do_not_stall_the_sweep() {
        // A query point with a NaN coordinate yields NaN distances. A NaN
        // equals nothing, not even itself, so each forms a tie group of its
        // own, and the sweep must still advance past it.
        let lists = [(1, vec![f64::NAN, 1.0]), (2, vec![2.0, f64::NAN])];
        assert_eq!(sweep(&lists).len(), 2);
    }

    #[test]
    fn reversed_spans_match_sorted_spans() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let sorted = random_sorted_lists(&mut rng);
            let reversed: Vec<(u64, Vec<f64>)> = sorted
                .iter()
                .map(|(id, ds)| (*id, ds.iter().rev().copied().collect()))
                .collect();
            assert_bitwise_eq(&sweep(&sorted), &sweep(&reversed));
            assert_kernels_agree(&reversed);
        }
    }

    #[test]
    fn sweep_convenience_wrapper_matches_oracle_wrapper() {
        let q = Point::new(vec![0.0, 0.0]);
        let objs: Vec<UncertainObject> = (0..5)
            .map(|i| {
                let base = 1.0 + i as f64;
                UncertainObject::uniform(i as u64, mk(&[base, base], &[base + 2.0, base + 2.0]), 32)
            })
            .collect();
        let refs: Vec<&UncertainObject> = objs.iter().collect();
        let naive = qualification_probabilities(&q, &refs);
        let swept = qualification_probabilities_sweep(&q, &refs);
        for (a, b) in naive.iter().zip(swept.iter()) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
    }

    #[test]
    fn payload_pages_matches_object_helper() {
        let o = UncertainObject::uniform(1, mk(&[0.0, 0.0, 0.0], &[1.0, 1.0, 1.0]), 500);
        assert_eq!(payload_pages(500, 3, 4096), pdf_payload_pages(&o, 4096));
    }
}
