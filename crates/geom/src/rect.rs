//! Axis-parallel hyper-rectangles.

use crate::point::Point;
use std::fmt;

/// A closed axis-parallel hyper-rectangle `[lo_1, hi_1] × … × [lo_d, hi_d]`.
///
/// Used throughout the workspace for uncertainty regions `u(o)`, UBRs `B(o)`,
/// R-tree MBRs, octree cells and SE bounds. Degenerate rectangles (`lo == hi`
/// in some or all dimensions) are valid and represent points / lower
/// dimensional boxes.
#[derive(Clone, PartialEq)]
pub struct HyperRect {
    lo: Box<[f64]>,
    hi: Box<[f64]>,
}

impl HyperRect {
    /// Creates a rectangle from its lower and upper corners.
    ///
    /// # Panics
    /// Panics (debug builds) if the corners have different dimensionality or
    /// if `lo > hi` in any dimension.
    pub fn new(lo: Vec<f64>, hi: Vec<f64>) -> Self {
        debug_assert_eq!(lo.len(), hi.len());
        debug_assert!(
            lo.iter().zip(hi.iter()).all(|(l, h)| l <= h),
            "invalid rect: lo {:?} hi {:?}",
            lo,
            hi
        );
        Self {
            lo: lo.into_boxed_slice(),
            hi: hi.into_boxed_slice(),
        }
    }

    /// A rectangle degenerated to a single point.
    pub fn from_point(p: &Point) -> Self {
        Self::new(p.coords().to_vec(), p.coords().to_vec())
    }

    /// The cube `[lo, hi]^dim`.
    pub fn cube(dim: usize, lo: f64, hi: f64) -> Self {
        Self::new(vec![lo; dim], vec![hi; dim])
    }

    /// Builds the minimum bounding rectangle of a non-empty point set.
    pub fn bounding_points<'a>(points: impl IntoIterator<Item = &'a Point>) -> Option<Self> {
        let mut it = points.into_iter();
        let first = it.next()?;
        let mut lo = first.coords().to_vec();
        let mut hi = first.coords().to_vec();
        for p in it {
            for j in 0..lo.len() {
                lo[j] = lo[j].min(p[j]);
                hi[j] = hi[j].max(p[j]);
            }
        }
        Some(Self::new(lo, hi))
    }

    /// Number of dimensions.
    #[inline]
    pub fn dim(&self) -> usize {
        self.lo.len()
    }

    /// Lower corner.
    #[inline]
    pub fn lo(&self) -> &[f64] {
        &self.lo
    }

    /// Upper corner.
    #[inline]
    pub fn hi(&self) -> &[f64] {
        &self.hi
    }

    /// Mutable lower corner (used by SE when moving bounds in place).
    #[inline]
    pub fn lo_mut(&mut self) -> &mut [f64] {
        &mut self.lo
    }

    /// Mutable upper corner.
    #[inline]
    pub fn hi_mut(&mut self) -> &mut [f64] {
        &mut self.hi
    }

    /// Side length along dimension `j`.
    #[inline]
    pub fn extent(&self, j: usize) -> f64 {
        // pv-lint: allow(hot-path-no-panic, reason = "j ranges over 0..dim in every caller; both corners are dim-long by construction")
        self.hi[j] - self.lo[j]
    }

    /// The centre point.
    pub fn center(&self) -> Point {
        Point::new(
            self.lo
                .iter()
                .zip(self.hi.iter())
                .map(|(l, h)| 0.5 * (l + h))
                .collect(),
        )
    }

    /// d-dimensional volume (product of extents).
    pub fn volume(&self) -> f64 {
        (0..self.dim()).map(|j| self.extent(j)).product()
    }

    /// Sum of side lengths (the R*-tree "margin").
    pub fn margin(&self) -> f64 {
        (0..self.dim()).map(|j| self.extent(j)).sum()
    }

    /// True if the (closed) rectangles share at least one point.
    #[inline]
    pub fn intersects(&self, other: &HyperRect) -> bool {
        debug_assert_eq!(self.dim(), other.dim());
        self.lo
            .iter()
            .zip(&self.hi)
            .zip(other.lo.iter().zip(&other.hi))
            .all(|((sl, sh), (ol, oh))| sl <= oh && ol <= sh)
    }

    /// True if `p` lies inside the closed rectangle.
    #[inline]
    pub fn contains_point(&self, p: &Point) -> bool {
        debug_assert_eq!(self.dim(), p.dim());
        self.lo
            .iter()
            .zip(&self.hi)
            .zip(p.coords())
            .all(|((l, h), c)| l <= c && c <= h)
    }

    /// True if `other` is fully inside `self`.
    #[inline]
    pub fn contains_rect(&self, other: &HyperRect) -> bool {
        debug_assert_eq!(self.dim(), other.dim());
        self.lo
            .iter()
            .zip(&self.hi)
            .zip(other.lo.iter().zip(&other.hi))
            .all(|((sl, sh), (ol, oh))| sl <= ol && oh <= sh)
    }

    /// Smallest rectangle containing both inputs.
    pub fn union(&self, other: &HyperRect) -> HyperRect {
        debug_assert_eq!(self.dim(), other.dim());
        HyperRect::new(
            (0..self.dim())
                .map(|j| self.lo[j].min(other.lo[j]))
                .collect(),
            (0..self.dim())
                .map(|j| self.hi[j].max(other.hi[j]))
                .collect(),
        )
    }

    /// Intersection, or `None` when disjoint.
    pub fn intersection(&self, other: &HyperRect) -> Option<HyperRect> {
        if !self.intersects(other) {
            return None;
        }
        Some(HyperRect::new(
            (0..self.dim())
                .map(|j| self.lo[j].max(other.lo[j]))
                .collect(),
            (0..self.dim())
                .map(|j| self.hi[j].min(other.hi[j]))
                .collect(),
        ))
    }

    /// Volume of the intersection (0 when disjoint). Avoids allocating.
    pub fn overlap_volume(&self, other: &HyperRect) -> f64 {
        let mut v = 1.0;
        for j in 0..self.dim() {
            let w = self.hi[j].min(other.hi[j]) - self.lo[j].max(other.lo[j]);
            if w <= 0.0 {
                return 0.0;
            }
            v *= w;
        }
        v
    }

    /// Rectangle grown by `eps` on every side (clamped to stay valid).
    pub fn inflate(&self, eps: f64) -> HyperRect {
        HyperRect::new(
            self.lo.iter().map(|l| l - eps).collect(),
            self.hi.iter().map(|h| h + eps).collect(),
        )
    }

    /// Splits along dimension `j` at coordinate `x ∈ [lo_j, hi_j]`, returning
    /// the `(low, high)` halves.
    pub fn split_at(&self, j: usize, x: f64) -> (HyperRect, HyperRect) {
        debug_assert!(self.lo[j] <= x && x <= self.hi[j]);
        let mut left = self.clone();
        let mut right = self.clone();
        left.hi[j] = x;
        right.lo[j] = x;
        (left, right)
    }

    /// Index of the dimension with the largest extent.
    pub fn longest_dim(&self) -> usize {
        (0..self.dim())
            .max_by(|&a, &b| {
                self.extent(a)
                    .partial_cmp(&self.extent(b))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("non-empty dims")
    }

    /// Largest side length.
    pub fn max_extent(&self) -> f64 {
        (0..self.dim()).map(|j| self.extent(j)).fold(0.0, f64::max)
    }

    /// Iterates over all `2^d` corner points. Intended for small `d`
    /// (the paper evaluates d ≤ 5).
    pub fn corners(&self) -> impl Iterator<Item = Point> + '_ {
        let d = self.dim();
        (0..(1usize << d)).map(move |mask| {
            Point::new(
                (0..d)
                    .map(|j| {
                        if mask >> j & 1 == 1 {
                            self.hi[j]
                        } else {
                            self.lo[j]
                        }
                    })
                    .collect(),
            )
        })
    }

    /// The `2^d` equal sub-cells produced by splitting at the centre
    /// (octree children). Child `i`'s bit `j` selects the upper half of
    /// dimension `j`.
    pub fn octants(&self) -> Vec<HyperRect> {
        let d = self.dim();
        let c = self.center();
        (0..(1usize << d))
            .map(|mask| {
                let mut lo = self.lo.to_vec();
                let mut hi = self.hi.to_vec();
                for j in 0..d {
                    if mask >> j & 1 == 1 {
                        lo[j] = c[j];
                    } else {
                        hi[j] = c[j];
                    }
                }
                HyperRect::new(lo, hi)
            })
            .collect()
    }

    /// The octant index (bit mask) of the child cell of `self` that contains
    /// point `p` (ties go to the upper half, matching [`Self::octants`]).
    pub fn octant_of(&self, p: &Point) -> usize {
        let c = self.center();
        (0..self.dim()).fold(0usize, |m, j| if p[j] >= c[j] { m | (1 << j) } else { m })
    }
}

impl fmt::Debug for HyperRect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rect[{:?}..{:?}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(lo: &[f64], hi: &[f64]) -> HyperRect {
        HyperRect::new(lo.to_vec(), hi.to_vec())
    }

    #[test]
    fn basic_measures() {
        let a = r(&[0.0, 0.0], &[2.0, 3.0]);
        assert_eq!(a.volume(), 6.0);
        assert_eq!(a.margin(), 5.0);
        assert_eq!(a.center().coords(), &[1.0, 1.5]);
        assert_eq!(a.longest_dim(), 1);
        assert_eq!(a.max_extent(), 3.0);
    }

    #[test]
    fn intersection_union() {
        let a = r(&[0.0, 0.0], &[2.0, 2.0]);
        let b = r(&[1.0, 1.0], &[3.0, 3.0]);
        let c = r(&[5.0, 5.0], &[6.0, 6.0]);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert_eq!(a.intersection(&b).unwrap(), r(&[1.0, 1.0], &[2.0, 2.0]));
        assert!(a.intersection(&c).is_none());
        assert_eq!(a.union(&c), r(&[0.0, 0.0], &[6.0, 6.0]));
        assert_eq!(a.overlap_volume(&b), 1.0);
        assert_eq!(a.overlap_volume(&c), 0.0);
    }

    #[test]
    fn touching_rects_intersect() {
        let a = r(&[0.0], &[1.0]);
        let b = r(&[1.0], &[2.0]);
        assert!(a.intersects(&b)); // closed rectangles share the boundary point
    }

    #[test]
    fn containment() {
        let a = r(&[0.0, 0.0], &[4.0, 4.0]);
        let b = r(&[1.0, 1.0], &[2.0, 2.0]);
        assert!(a.contains_rect(&b));
        assert!(!b.contains_rect(&a));
        assert!(a.contains_point(&Point::new(vec![4.0, 4.0])));
        assert!(!a.contains_point(&Point::new(vec![4.1, 0.0])));
    }

    #[test]
    fn octants_partition_volume() {
        let a = r(&[0.0, 0.0, 0.0], &[2.0, 4.0, 8.0]);
        let kids = a.octants();
        assert_eq!(kids.len(), 8);
        let total: f64 = kids.iter().map(HyperRect::volume).sum();
        assert!((total - a.volume()).abs() < 1e-9);
        // child 0 is the all-low corner cell
        assert_eq!(kids[0], r(&[0.0, 0.0, 0.0], &[1.0, 2.0, 4.0]));
        // child with all bits set is the all-high cell
        assert_eq!(kids[7], r(&[1.0, 2.0, 4.0], &[2.0, 4.0, 8.0]));
    }

    #[test]
    fn octant_of_matches_octants() {
        let a = r(&[0.0, 0.0], &[2.0, 2.0]);
        let kids = a.octants();
        let p = Point::new(vec![1.5, 0.5]);
        let idx = a.octant_of(&p);
        assert!(kids[idx].contains_point(&p));
    }

    #[test]
    fn split_and_corners() {
        let a = r(&[0.0, 0.0], &[2.0, 2.0]);
        let (l, rr) = a.split_at(0, 0.5);
        assert_eq!(l, r(&[0.0, 0.0], &[0.5, 2.0]));
        assert_eq!(rr, r(&[0.5, 0.0], &[2.0, 2.0]));
        assert_eq!(a.corners().count(), 4);
    }

    #[test]
    fn bounding_points_mbr() {
        let pts = [
            Point::new(vec![1.0, 5.0]),
            Point::new(vec![-2.0, 3.0]),
            Point::new(vec![0.0, 9.0]),
        ];
        let mbr = HyperRect::bounding_points(pts.iter()).unwrap();
        assert_eq!(mbr, r(&[-2.0, 3.0], &[1.0, 9.0]));
        assert!(HyperRect::bounding_points(std::iter::empty()).is_none());
    }
}
