//! Spatial domination and domination-count estimation.
//!
//! Core pruning machinery of the SE algorithm (paper §IV and §V-B), built on
//! the *spatial domination* decision of Emrich et al. (SIGMOD 2010, ref.
//! \[17\] in the paper):
//!
//! * [`dominates`]`(a, b, r)` decides **exactly** whether every point `p ∈ r`
//!   satisfies `distmax(a, p) < distmin(b, p)`, i.e. whether `r` is fully
//!   inside the dominated region `dom(a, b)` of Definition 3.
//! * [`DominationRun::region_fully_dominated`] performs *domination-count
//!   estimation*: it proves (conservatively) that a region `R` does not
//!   intersect the non-dominated intersection `I(Cset, o)` by recursively
//!   partitioning `R` into at most `mmax` pieces and showing each piece is
//!   dominated by *some* member of the candidate set.
//!
//! # Why the exact test works
//!
//! `distmax(a,p)² − distmin(b,p)²` decomposes per dimension into
//! `f_j(p_j) = max((a.lo_j − t)², (a.hi_j − t)²) − clampdist(t, b_j)²` where
//! `t = p_j`. On each piece of its domain `f_j` is a quadratic polynomial with
//! leading coefficient `0` (outside `b`'s interval, where both terms are
//! quadratics in `t` with coefficient 1 and cancel) or `+1` (inside `b`'s
//! interval, where the min-term is 0); linear and convex pieces attain their
//! maximum at piece endpoints. Hence the maximum of `f_j` over `[r.lo_j,
//! r.hi_j]` is attained at one of: the interval endpoints, `mid(a_j)` (where
//! the max-term switches parabola), `b.lo_j`, or `b.hi_j`. Summing the per
//! dimension maxima yields the exact maximum of the separable objective, so
//! `dominates(a,b,r) ⟺ Σ_j max f_j < 0`.

use crate::{sq, HyperRect};
use std::cell::Cell;

/// Counters describing the work done by domination tests. Used by the SE
/// statistics and the benchmark harness (Fig. 10(e)).
#[derive(Debug, Default, Clone)]
pub struct DominationStats {
    /// Number of `dominates` rectangle tests executed.
    pub dom_tests: Cell<u64>,
    /// Number of partitions generated by `region_fully_dominated`.
    pub partitions: Cell<u64>,
    /// Number of `region_fully_dominated` calls that proved emptiness.
    pub proven_empty: Cell<u64>,
    /// Number of calls that gave up (budget exhausted or genuinely
    /// intersecting).
    pub unproven: Cell<u64>,
}

impl DominationStats {
    /// Merge another stats block into this one.
    pub fn absorb(&self, other: &DominationStats) {
        self.dom_tests
            .set(self.dom_tests.get() + other.dom_tests.get());
        self.partitions
            .set(self.partitions.get() + other.partitions.get());
        self.proven_empty
            .set(self.proven_empty.get() + other.proven_empty.get());
        self.unproven
            .set(self.unproven.get() + other.unproven.get());
    }
}

/// The larger of `a` and `b` as a plain compare-select. On non-NaN operands
/// it returns the value `f64::max` does, up to the sign of a zero, without
/// the NaN handling `f64::max` compiles to.
#[inline(always)]
fn max_sel(a: f64, b: f64) -> f64 {
    if a > b {
        a
    } else {
        b
    }
}

/// The smaller of `a` and `b`; the counterpart of [`max_sel`].
#[inline(always)]
fn min_sel(a: f64, b: f64) -> f64 {
    if a < b {
        a
    } else {
        b
    }
}

/// Evaluates `max((a_lo−t)², (a_hi−t)²) − clampdist(t, [b_lo,b_hi])²` at `t`.
#[inline(always)]
fn eval_dim_term(a_lo: f64, a_hi: f64, b_lo: f64, b_hi: f64, t: f64) -> f64 {
    let max_term = max_sel(sq(a_lo - t), sq(a_hi - t));
    let gap = max_sel(max_sel(b_lo - t, t - b_hi), 0.0);
    max_term - sq(gap)
}

/// Exact spatial-domination test (Emrich et al., SIGMOD'10): returns `true`
/// iff **every** point `p` of rectangle `r` is *strictly* closer to every
/// point of `a` than to any point of `b`, i.e. `r ⊆ dom(a, b)`.
///
/// Runs in `O(d)`: it sums the per-dimension maxima of the objective that
/// [`DominationRun`]'s search evaluates, and tests the sum against 0.
///
/// ```
/// use pv_geom::{dominates, HyperRect};
/// let a = HyperRect::new(vec![0.0, 0.0], vec![1.0, 1.0]);
/// let b = HyperRect::new(vec![50.0, 50.0], vec![51.0, 51.0]);
/// let near_a = HyperRect::new(vec![0.0, 0.0], vec![5.0, 5.0]);
/// assert!(dominates(&a, &b, &near_a));   // everything near a beats b
/// assert!(!dominates(&b, &a, &near_a));  // and b cannot dominate there
/// ```
pub fn dominates(a: &HyperRect, b: &HyperRect, r: &HyperRect) -> bool {
    debug_assert_eq!(a.dim(), b.dim());
    debug_assert_eq!(a.dim(), r.dim());
    let mut total = 0.0;
    for j in 0..a.dim() {
        let (a_lo, a_hi) = (a.lo()[j], a.hi()[j]);
        let cand = [a_lo, a_hi, 0.5 * (a_lo + a_hi)];
        let tgt = [b.lo()[j], b.hi()[j]];
        total += dim_span(&cand, &tgt, r.lo()[j], r.hi()[j], 0).1;
    }
    total < 0.0
}

/// Point-level domination: `distmax(a, p) < distmin(b, p)` (Definition 3).
pub fn point_dominated(a: &HyperRect, b: &HyperRect, p: &crate::Point) -> bool {
    crate::max_dist_sq(a, p) < crate::min_dist_sq(b, p)
}

/// Reusable search state for a *sequence* of domination-count estimations
/// against one fixed (candidate set, target) pair — e.g. all slab tests of
/// one SE run.
///
/// Construction flattens the candidate rectangles (plus their per-dimension
/// centers) and the target into contiguous buffers, so the inner scans read
/// sequential memory instead of chasing per-rectangle allocations, and the
/// dimension dispatch happens once per query instead of once per test.
/// Across queries the run carries two accelerations, neither of which can
/// change a result:
///
/// * `order` keeps a move-to-front permutation of the candidate set —
///   geometrically adjacent slabs are usually discharged by the same
///   candidate, so the early-exit scan finds its witness after a few probes
///   instead of scanning half the set. Reordering an existential scan never
///   changes its outcome.
/// * Per-piece survivor lists: a candidate whose objective minimum over a
///   piece is ≥ 0 dominates no point of it, hence no point of any sub-piece,
///   and is dropped for that whole subtree. Dropped candidates could never
///   have covered a descendant, so coverage decisions — and therefore the
///   piece tree, the partition budget accounting and the final verdict — are
///   identical to the exhaustive scan's.
#[derive(Debug)]
pub struct DominationRun {
    dim: usize,
    /// Target `o`, flattened: `[b_lo_j, b_hi_j]` per dimension.
    tgt: Vec<f64>,
    /// Candidate coordinates, stride `3·dim`: `[a_lo_j, a_hi_j, mid_j]`.
    flat: Vec<f64>,
    /// Probe order: candidate indices, move-to-front maintained and possibly
    /// narrowed by [`DominationRun::prune_for`].
    order: Vec<u32>,
    /// Stack-disciplined survivor lists (candidate indices), one range per
    /// open piece.
    arena: Vec<u32>,
    /// Cached per-dimension (min, max) objective terms for each `arena`
    /// entry, stride `2·dim`, valid for the piece the survivor was kept on.
    /// A child piece differs from its parent in exactly one dimension, so a
    /// child scan recomputes only that term and reuses the rest — and since
    /// unchanged terms are bit-identical and the sum runs in dimension
    /// order, the incremental span equals the full recomputation exactly.
    /// (Only maintained by the const-dimension search arms.)
    terms: Vec<f64>,
    /// Pending pieces: piece offset + survivor range (`root` scans `order`).
    frames: Vec<Frame>,
    /// Piece rectangles, stride `2·dim`: `lo[0..d]` then `hi[0..d]`.
    pieces: Vec<f64>,
}

#[derive(Debug, Clone, Copy)]
struct Frame {
    piece: usize,
    off: usize,
    len: usize,
    /// Dimension along which this piece was split off its parent (meaningful
    /// when `!root`): the only term the incremental scan must recompute.
    jdim: usize,
    root: bool,
}

impl DominationRun {
    /// Captures `cset` and the target `o` for a run of queries.
    pub fn new(cset: &[HyperRect], o: &HyperRect) -> Self {
        let dim = o.dim();
        let mut tgt = Vec::with_capacity(2 * dim);
        for j in 0..dim {
            tgt.push(o.lo()[j]);
            tgt.push(o.hi()[j]);
        }
        let mut flat = Vec::with_capacity(3 * dim * cset.len());
        for a in cset {
            debug_assert_eq!(a.dim(), dim);
            for j in 0..dim {
                let (lo, hi) = (a.lo()[j], a.hi()[j]);
                flat.push(lo);
                flat.push(hi);
                flat.push(0.5 * (lo + hi));
            }
        }
        Self {
            dim,
            tgt,
            flat,
            order: (0..cset.len() as u32).collect(),
            arena: Vec::new(),
            terms: Vec::new(),
            frames: Vec::new(),
            pieces: Vec::new(),
        }
    }

    /// Narrows the probe list to candidates that dominate at least one point
    /// of `region`: a candidate whose domination objective is ≥ 0 everywhere
    /// on `region` stays ≥ 0 on every sub-rectangle, so it can never cover a
    /// piece of any future query contained in `region`.
    ///
    /// After this call the run may only be queried for regions **contained
    /// in** `region` — e.g. SE's upper bound `h`, which only ever shrinks.
    /// Pruning probes count as `dom_tests`.
    pub fn prune_for(&mut self, region: &HyperRect, stats: Option<&DominationStats>) {
        debug_assert_eq!(region.dim(), self.dim);
        let before = self.order.len() as u64;
        let d = self.dim;
        let (flat, tgt) = (&self.flat, &self.tgt);
        let (rlo, rhi) = (&region.lo()[..d], &region.hi()[..d]);
        // Same dimension dispatch as the partition search: prune probes run
        // once per candidate per SE pass, which adds up over a build.
        macro_rules! retain {
            ($D:literal) => {
                self.order.retain(|&c| {
                    let cand = &flat[c as usize * 3 * d..(c as usize + 1) * 3 * d];
                    span_flat::<$D>(cand, tgt, rlo, rhi, d).0 < 0.0
                })
            };
        }
        match d {
            2 => retain!(2),
            3 => retain!(3),
            4 => retain!(4),
            _ => retain!(0),
        }
        if let Some(s) = stats {
            s.dom_tests.set(s.dom_tests.get() + before);
        }
    }

    /// Domination-count estimation (paper §V-B).
    ///
    /// Attempts to prove that `region ∩ I(cset, o) = ∅`, i.e. that every
    /// point of `region` is dominated by at least one candidate in `cset`
    /// with respect to `o`. The region is recursively bisected along its
    /// longest side; a piece is discharged as soon as a *single* candidate
    /// spatially dominates it. The procedure gives up once more than `mmax`
    /// pieces exist (returning `false`, which is always safe: SE will then
    /// simply not shrink the slab). `region` must lie inside any
    /// [`DominationRun::prune_for`] bound.
    ///
    /// `cset` entries whose uncertainty region intersects `u(o)` contribute
    /// nothing (`dom(a,o) = ∅` by Lemma 2) — callers typically pre-filter
    /// them, but the test remains correct if they don't, because
    /// `dominates` can never return `true` for such pairs.
    ///
    /// Complexity: `O(|part(R)| · |cset| · d)` with `|part(R)| ≤ mmax`.
    pub fn region_fully_dominated(
        &mut self,
        region: &HyperRect,
        mmax: usize,
        stats: Option<&DominationStats>,
    ) -> bool {
        debug_assert_eq!(region.dim(), self.dim);
        if self.order.is_empty() {
            if let Some(s) = stats {
                s.unproven.set(s.unproven.get() + 1);
            }
            return false;
        }
        self.arena.clear();
        self.terms.clear();
        self.frames.clear();
        self.pieces.clear();
        let d = self.dim;
        self.pieces.extend_from_slice(&region.lo()[..d]);
        self.pieces.extend_from_slice(&region.hi()[..d]);
        self.frames.push(Frame {
            piece: 0,
            off: 0,
            len: self.order.len(),
            jdim: 0,
            root: true,
        });
        let (result, dom_tests, partitions) = match d {
            2 => self.search::<2>(mmax),
            3 => self.search::<3>(mmax),
            4 => self.search::<4>(mmax),
            _ => self.search::<0>(mmax),
        };
        if let Some(s) = stats {
            s.dom_tests.set(s.dom_tests.get() + dom_tests);
            s.partitions.set(s.partitions.get() + partitions);
            if result {
                s.proven_empty.set(s.proven_empty.get() + 1);
            } else {
                s.unproven.set(s.unproven.get() + 1);
            }
        }
        result
    }

    /// The partition loop, monomorphised per dimension: split at the
    /// midpoint of the longest side (last dimension winning ties like
    /// `HyperRect::longest_dim`), LIFO piece order, `mmax` accounting, and a
    /// bailout on degenerate pieces.
    ///
    /// The const-dimension arms (`D > 0`) additionally carry the per-survivor
    /// term cache described on [`DominationRun::terms`]: non-root scans
    /// recompute only the split dimension's term and reload the rest. Most
    /// evaluations fall in pieces that no single candidate covers, which scan
    /// their whole list, so the scan evaluates the objective and keeps
    /// survivors without data-dependent branches; only a covering candidate
    /// ends it early.
    fn search<const D: usize>(&mut self, mmax: usize) -> (bool, u64, u64) {
        let d = if D > 0 { D } else { self.dim };
        let stride = 2 * d;
        let mut parts_created = 1usize;
        let mut dom_tests = 0u64;
        let mut partitions = 0u64;
        let result = 'outer: loop {
            let Some(f) = self.frames.pop() else {
                break true;
            };
            partitions += 1;
            // Every scanned candidate is written to the next survivor slot,
            // and the slot advances only past a survivor: the scan keeps its
            // survivors without a data-dependent branch, in a range sized
            // for the whole list and cut to the kept count afterwards.
            let surv_off = self.arena.len();
            self.arena.resize(surv_off + f.len, 0);
            if D > 0 {
                self.terms.resize((surv_off + f.len) * stride, 0.0);
            }
            let mut kept = 0usize;
            let mut covered = false;
            let mut winner = 0usize;
            for i in 0..f.len {
                let c = if f.root {
                    self.order[i]
                } else {
                    self.arena[f.off + i]
                } as usize;
                dom_tests += 1;
                let cand = &self.flat[c * 3 * d..(c + 1) * 3 * d];
                let (plo, phi) = self.pieces[f.piece..f.piece + stride].split_at(d);
                let mut dim_terms = [0.0f64; 8];
                let (min_sum, max_sum) = if D > 0 {
                    // D ≤ 4 in the const arms, so the fixed-size term buffer
                    // (2 per dimension) always fits.
                    if f.root {
                        for j in 0..d {
                            let (mn, mx) = dim_span(cand, &self.tgt, plo[j], phi[j], j);
                            dim_terms[2 * j] = mn;
                            dim_terms[2 * j + 1] = mx;
                        }
                    } else {
                        let base = (f.off + i) * stride;
                        for j in 0..d {
                            if j == f.jdim {
                                let (mn, mx) = dim_span(cand, &self.tgt, plo[j], phi[j], j);
                                dim_terms[2 * j] = mn;
                                dim_terms[2 * j + 1] = mx;
                            } else {
                                dim_terms[2 * j] = self.terms[base + 2 * j];
                                dim_terms[2 * j + 1] = self.terms[base + 2 * j + 1];
                            }
                        }
                    }
                    // Summing cached + recomputed terms in dimension order is
                    // bit-identical to the full recomputation: unchanged
                    // dimensions produce the exact same term values, and the
                    // additions happen in the same order.
                    let mut mn_sum = 0.0;
                    let mut mx_sum = 0.0;
                    for j in 0..d {
                        mn_sum += dim_terms[2 * j];
                        mx_sum += dim_terms[2 * j + 1];
                    }
                    (mn_sum, mx_sum)
                } else {
                    span_flat::<0>(cand, &self.tgt, plo, phi, d)
                };
                if max_sum < 0.0 {
                    covered = true;
                    winner = i;
                    break;
                }
                // Kept for the sub-pieces iff it still dominates part of
                // this piece.
                let slot = surv_off + kept;
                self.arena[slot] = c as u32;
                if D > 0 {
                    self.terms[slot * stride..(slot + 1) * stride]
                        .copy_from_slice(&dim_terms[..stride]);
                }
                kept += usize::from(min_sum < 0.0);
            }
            if covered {
                // Drop the partial survivor list and promote the witness so
                // the next scan over the same list probes it first.
                self.arena.truncate(surv_off);
                if D > 0 {
                    self.terms.truncate(surv_off * stride);
                }
                if f.root {
                    self.order[..=winner].rotate_right(1);
                } else {
                    self.arena[f.off..=f.off + winner].rotate_right(1);
                    if D > 0 {
                        self.terms[f.off * stride..(f.off + winner + 1) * stride]
                            .rotate_right(stride);
                    }
                }
                continue;
            }
            self.arena.truncate(surv_off + kept);
            if D > 0 {
                self.terms.truncate((surv_off + kept) * stride);
            }
            // Not covered by any single candidate: split and retry, if the
            // partition budget allows.
            if parts_created + 1 > mmax {
                break 'outer false;
            }
            let ext = |p: &[f64], j: usize| p[f.piece + d + j] - p[f.piece + j];
            let max_ext = (0..d).fold(0.0f64, |m, j| m.max(ext(&self.pieces, j)));
            // Degenerate pieces cannot be split further.
            if max_ext <= 0.0 {
                break 'outer false;
            }
            let mut j = 0usize;
            for k in 1..d {
                if ext(&self.pieces, k) >= ext(&self.pieces, j) {
                    j = k;
                }
            }
            let mid = 0.5 * (self.pieces[f.piece + j] + self.pieces[f.piece + d + j]);
            let surv_len = kept;
            // Left child (upper bound moved to mid), then right child
            // (pushed last, popped first — same LIFO order as before). Both
            // share the parent's survivor range read-only (the in-range
            // move-to-front rotation only permutes it).
            let l_off = self.pieces.len();
            self.pieces.extend_from_within(f.piece..f.piece + 2 * d);
            self.pieces[l_off + d + j] = mid;
            let r_off = self.pieces.len();
            self.pieces.extend_from_within(f.piece..f.piece + 2 * d);
            self.pieces[r_off + j] = mid;
            self.frames.push(Frame {
                piece: l_off,
                off: surv_off,
                len: surv_len,
                jdim: j,
                root: false,
            });
            self.frames.push(Frame {
                piece: r_off,
                off: surv_off,
                len: surv_len,
                jdim: j,
                root: false,
            });
            parts_created += 1;
        };
        (result, dom_tests, partitions)
    }
}

/// Single-dimension (min, max) term of the domination objective over
/// `[t_lo, t_hi]` for candidate dimension `j` (`cand` in the run's flat
/// `[a_lo, a_hi, mid]` layout, `tgt` as `[b_lo, b_hi]` pairs).
///
/// The term is piecewise quadratic with breakpoints at `mid(a)`, `b_lo` and
/// `b_hi`: outside `[b_lo, b_hi]` the two unit parabolas cancel into linear
/// pieces (extrema at piece endpoints), inside it equals the convex max-term
/// (interior minimum at `mid(a)`, maxima at endpoints). So both extrema lie
/// among five probes: the two endpoints and the three breakpoints clamped
/// into the piece. A breakpoint outside the piece clamps onto an endpoint,
/// whose value is already among the probes, so evaluating all five leaves
/// the extrema exactly those of the endpoints plus the interior breakpoints
/// — with no data-dependent branch.
///
/// Exactness of the selects: apart from NaN coordinates, which every
/// rectangle decoder rejects, a term is NaN only when a squared coordinate
/// difference overflows to infinity, which needs some |coordinate| ≥ 2^510.
/// Below that, [`min_sel`]/[`max_sel`] agree with `f64::min`/`f64::max` up to
/// the sign of a zero, and a zero's sign cannot flip the `< 0.0` tests on
/// the dimension-order sums, since `x + ±0 = x` for `x ≠ 0`.
#[inline(always)]
fn dim_span(cand: &[f64], tgt: &[f64], t_lo: f64, t_hi: f64, j: usize) -> (f64, f64) {
    let (a_lo, a_hi, mid_a) = (cand[3 * j], cand[3 * j + 1], cand[3 * j + 2]);
    let (b_lo, b_hi) = (tgt[2 * j], tgt[2 * j + 1]);
    let term = |t| eval_dim_term(a_lo, a_hi, b_lo, b_hi, t);
    let clamp = |c| min_sel(max_sel(c, t_lo), t_hi);
    let e0 = term(t_lo);
    let e1 = term(t_hi);
    let e2 = term(clamp(mid_a));
    let e3 = term(clamp(b_lo));
    let e4 = term(clamp(b_hi));
    let mn = min_sel(min_sel(min_sel(e0, e1), min_sel(e2, e3)), e4);
    let mx = max_sel(max_sel(max_sel(e0, e1), max_sel(e2, e3)), e4);
    (mn, mx)
}

/// Exact (min, max) over the piece `[plo, phi]` of
/// `distmax(a,p)² − distmin(o,p)²`, the separable domination objective: the
/// per-dimension [`dim_span`] terms summed in dimension order.
///
/// `max < 0` is exactly [`dominates`]; `min ≥ 0` proves no point of the
/// piece (hence of any sub-piece) is dominated by the candidate.
#[inline(always)]
fn span_flat<const D: usize>(
    cand: &[f64],
    tgt: &[f64],
    plo: &[f64],
    phi: &[f64],
    dyn_d: usize,
) -> (f64, f64) {
    let d = if D > 0 { D } else { dyn_d };
    let mut min_total = 0.0;
    let mut max_total = 0.0;
    for j in 0..d {
        let (mn, mx) = dim_span(cand, tgt, plo[j], phi[j], j);
        min_total += mn;
        max_total += mx;
    }
    (min_total, max_total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{max_dist, min_dist, HyperRect, Point};

    fn r(lo: &[f64], hi: &[f64]) -> HyperRect {
        HyperRect::new(lo.to_vec(), hi.to_vec())
    }

    /// Brute-force check of `dominates` by sampling a dense grid of `r`.
    fn brute_dominates(a: &HyperRect, b: &HyperRect, reg: &HyperRect, steps: usize) -> bool {
        let d = reg.dim();
        let mut idx = vec![0usize; d];
        loop {
            let p = Point::new(
                (0..d)
                    .map(|j| {
                        reg.lo()[j] + (reg.hi()[j] - reg.lo()[j]) * idx[j] as f64 / steps as f64
                    })
                    .collect(),
            );
            if max_dist(a, &p) >= min_dist(b, &p) {
                return false;
            }
            // advance odometer
            let mut j = 0;
            loop {
                if j == d {
                    return true;
                }
                idx[j] += 1;
                if idx[j] <= steps {
                    break;
                }
                idx[j] = 0;
                j += 1;
            }
        }
    }

    #[test]
    fn clear_domination() {
        // a near the region, b far away
        let a = r(&[0.0, 0.0], &[1.0, 1.0]);
        let b = r(&[100.0, 100.0], &[101.0, 101.0]);
        let reg = r(&[0.0, 0.0], &[5.0, 5.0]);
        assert!(dominates(&a, &b, &reg));
        assert!(brute_dominates(&a, &b, &reg, 8));
    }

    #[test]
    fn no_domination_when_close() {
        let a = r(&[0.0, 0.0], &[1.0, 1.0]);
        let b = r(&[3.0, 0.0], &[4.0, 1.0]);
        // region between them: points near b are closer to b
        let reg = r(&[0.0, 0.0], &[4.0, 1.0]);
        assert!(!dominates(&a, &b, &reg));
    }

    #[test]
    fn overlapping_objects_never_dominate() {
        // Lemma 2: dom(a,b) = ∅ iff u(a) ∩ u(b) ≠ ∅.
        let a = r(&[0.0, 0.0], &[2.0, 2.0]);
        let b = r(&[1.0, 1.0], &[3.0, 3.0]);
        for reg in [
            r(&[0.0, 0.0], &[10.0, 10.0]),
            r(&[-5.0, -5.0], &[-4.0, -4.0]),
            r(&[0.5, 0.5], &[0.6, 0.6]),
        ] {
            assert!(!dominates(&a, &b, &reg));
        }
    }

    #[test]
    fn matches_brute_force_on_random_cases() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        let mut agree_true = 0;
        for _ in 0..400 {
            let d = rng.gen_range(1..=3);
            let mk = |rng: &mut StdRng| {
                let lo: Vec<f64> = (0..d).map(|_| rng.gen_range(-10.0..10.0)).collect();
                let hi: Vec<f64> = lo.iter().map(|l| l + rng.gen_range(0.0..5.0)).collect();
                HyperRect::new(lo, hi)
            };
            let a = mk(&mut rng);
            let b = mk(&mut rng);
            let reg = mk(&mut rng);
            let fast = dominates(&a, &b, &reg);
            let brute = brute_dominates(&a, &b, &reg, 6);
            // `fast` is exact, so it must match brute force up to grid
            // resolution: fast==true must imply brute==true (grid points are
            // a subset of the region).
            if fast {
                assert!(brute, "a={a:?} b={b:?} r={reg:?}");
                agree_true += 1;
            }
            // If brute force already found a counterexample point, the exact
            // test must also reject.
            if !brute {
                assert!(!fast);
            }
        }
        assert!(agree_true > 0, "test corpus never exercised domination");
    }

    /// The Fig. 6(b) geometry: `o` sits above the middle of a wide slab,
    /// `a1`/`a2` flank the slab left and right. Each guard dominates its own
    /// half (its far corner is close enough), but fails on the opposite end
    /// of the slab where its `distmax` exceeds `distmin(o, ·)`.
    fn union_only_fixture() -> (HyperRect, HyperRect, HyperRect, HyperRect) {
        let o = r(&[-0.5, 4.0], &[0.5, 5.0]);
        let a1 = r(&[-3.0, -0.5], &[-2.0, 0.0]);
        let a2 = r(&[2.0, -0.5], &[3.0, 0.0]);
        let reg = r(&[-2.0, -0.5], &[2.0, 0.0]);
        (o, a1, a2, reg)
    }

    #[test]
    fn region_covered_by_union_of_two() {
        let (o, a1, a2, reg) = union_only_fixture();
        assert!(!dominates(&a1, &o, &reg));
        assert!(!dominates(&a2, &o, &reg));
        assert!(DominationRun::new(&[a1, a2], &o).region_fully_dominated(&reg, 16, None));
    }

    #[test]
    fn budget_exhaustion_gives_up_safely() {
        let (o, a1, a2, reg) = union_only_fixture();
        // with a budget of 1 partition the union argument cannot be made
        assert!(!DominationRun::new(&[a1, a2], &o).region_fully_dominated(&reg, 1, None));
    }

    #[test]
    fn region_overlapping_o_is_never_dominated() {
        let o = r(&[0.0, 0.0], &[2.0, 2.0]);
        let a = r(&[10.0, 10.0], &[11.0, 11.0]);
        let reg = r(&[1.0, 1.0], &[3.0, 3.0]); // overlaps u(o) ⊆ V(o)
        assert!(!DominationRun::new(&[a], &o).region_fully_dominated(&reg, 64, None));
    }

    #[test]
    fn stats_are_recorded() {
        let (o, a1, a2, reg) = union_only_fixture();
        let stats = DominationStats::default();
        assert!(DominationRun::new(&[a1, a2], &o).region_fully_dominated(&reg, 16, Some(&stats)));
        assert!(stats.dom_tests.get() > 0);
        assert!(stats.partitions.get() >= 2);
        assert_eq!(stats.proven_empty.get(), 1);
    }

    #[test]
    fn empty_cset_cannot_prove_anything() {
        let o = r(&[0.0], &[1.0]);
        let reg = r(&[5.0], &[6.0]);
        assert!(!DominationRun::new(&[], &o).region_fully_dominated(&reg, 8, None));
    }
}
