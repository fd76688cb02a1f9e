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
//!   sweep**. All candidates' sorted distance lists are merged once; walking
//!   the merged sequence in ascending order, each candidate's
//!   "farther-mass" `(n_j − |{d ≤ r}|)/n_j` is maintained incrementally in
//!   a product tree, so each world's rival product is an `O(log c)` tree
//!   walk instead of an `O(c log s)` rescan — `O(c · s · (log c + log s))`
//!   total, and allocation-free given a warmed [`ProbScratch`].
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
        // `start ≤ len` always (the fill only appends), so this is `Some`.
        if let Some(new_dists) = dists.get_mut(start as usize..) {
            new_dists.sort_unstable_by(f64::total_cmp);
        }
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
    /// Merged `(distance, candidate index)` events.
    events: Vec<(f64, u32)>,
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
/// distances are `dists[start .. start + len]`, sorted ascending (squared
/// distances in the query engine; any monotone metric works). Writes
/// `(id, probability)` pairs to `out` (cleared first) in span order,
/// bitwise identical to [`qualification_from_sorted`] on the same lists —
/// ties included, because an instance's rivals are counted *after* every
/// event with an equal distance has been applied, exactly like the oracle's
/// `d ≤ r` partition point.
///
/// Complexity: `O(N log c + N log N)` for `N` total instances and `c`
/// candidates — the `N log N` term is the merge (a sort of per-candidate
/// sorted runs), the `N log c` term covers the tree updates and the
/// per-world exclusion walks.
// pv-lint: allow(hot-path-no-panic, reason = "every index in this kernel is structurally in-bounds: counts/probs/tree are resized from spans.len() at entry, event candidate indices come from enumerating spans, tree walks stay below 2*size by construction, and the span ranges into dists are the documented caller contract (see the doc comment)")
pub fn qualification_sweep_into(
    spans: &[(u64, u32, u32)],
    dists: &[f64],
    scratch: &mut ProbScratch,
    out: &mut Vec<(u64, f64)>,
) {
    out.clear();
    let c = spans.len();
    if c == 0 {
        return;
    }
    let size = c.next_power_of_two();
    scratch.tree.clear();
    scratch.tree.resize(2 * size, 1.0);
    scratch.counts.clear();
    scratch.counts.resize(c, 0);
    scratch.probs.clear();
    scratch.probs.resize(c, 0.0);
    scratch.events.clear();
    for (ci, &(_, start, len)) in spans.iter().enumerate() {
        for &d in &dists[start as usize..(start + len) as usize] {
            scratch.events.push((d, ci as u32));
        }
    }
    scratch
        .events
        .sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

    let tree = &mut scratch.tree;
    let events = &scratch.events;
    let mut i = 0;
    while i < events.len() {
        let d = events[i].0;
        let mut j = i;
        while j < events.len() && events[j].0 == d {
            j += 1;
        }
        // Phase 1: absorb every instance at exactly this distance into the
        // counts *before* evaluating any world at it — ties across (and
        // within) candidates count as "not farther", matching `d ≤ r`.
        for &(_, ci) in &events[i..j] {
            let ci = ci as usize;
            scratch.counts[ci] += 1;
            let n = spans[ci].2;
            let mut p = size + ci;
            tree[p] = (n - scratch.counts[ci]) as f64 / n as f64;
            p >>= 1;
            while p >= 1 {
                tree[p] = tree[2 * p] * tree[2 * p + 1];
                if p == 1 {
                    break;
                }
                p >>= 1;
            }
        }
        // Phase 2: one world per instance — the product of every rival's
        // farther-mass, read off the tree by the sibling walk (equivalent to
        // re-deriving the root with this candidate's leaf set to 1.0, in the
        // canonical association).
        for &(_, ci) in &events[i..j] {
            let ci = ci as usize;
            let inv_n = 1.0 / spans[ci].2 as f64;
            let mut v = 1.0f64;
            let mut p = size + ci;
            while p > 1 {
                // IEEE-754 multiplication commutes bit-exactly, so both
                // sibling sides reduce to `v *=` without breaking the
                // canonical-association equivalence.
                if p & 1 == 0 {
                    v *= tree[p + 1];
                } else {
                    v *= tree[p - 1];
                }
                p >>= 1;
            }
            scratch.probs[ci] += inv_n * v;
        }
        i = j;
    }
    for (ci, &(id, _, len)) in spans.iter().enumerate() {
        out.push((id, if len == 0 { 0.0 } else { scratch.probs[ci] }));
    }
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

    /// Runs both kernels on the same pre-sorted lists and demands bitwise
    /// equality.
    fn assert_kernels_agree(candidates: &[(u64, Vec<f64>)]) {
        let naive = qualification_from_sorted(candidates);
        let mut dists = Vec::new();
        let mut spans = Vec::new();
        for (id, ds) in candidates {
            spans.push((*id, dists.len() as u32, ds.len() as u32));
            dists.extend_from_slice(ds);
        }
        let mut swept = Vec::new();
        qualification_sweep_into(&spans, &dists, &mut ProbScratch::default(), &mut swept);
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
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..200 {
            let c = rng.gen_range(1..9usize);
            let candidates: Vec<(u64, Vec<f64>)> = (0..c)
                .map(|i| {
                    let s = rng.gen_range(0..12usize);
                    // draw from a tiny grid so ties are common
                    let mut ds: Vec<f64> =
                        (0..s).map(|_| rng.gen_range(0..8) as f64 * 0.5).collect();
                    ds.sort_unstable_by(f64::total_cmp);
                    (i as u64, ds)
                })
                .collect();
            assert_kernels_agree(&candidates);
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
