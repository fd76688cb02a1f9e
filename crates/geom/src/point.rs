//! d-dimensional points.

use std::fmt;
use std::ops::{Deref, Index, IndexMut};

/// A point in `R^d`.
///
/// Dimensionality is dynamic (chosen at run time, as in the paper's
/// experiments which sweep `d` from 2 to 5). The coordinates are stored in a
/// boxed slice to keep the type two words wide.
#[derive(Clone, PartialEq)]
pub struct Point {
    coords: Box<[f64]>,
}

impl Point {
    /// Creates a point from a coordinate vector.
    pub fn new(coords: Vec<f64>) -> Self {
        debug_assert!(!coords.is_empty(), "zero-dimensional points are invalid");
        Self {
            coords: coords.into_boxed_slice(),
        }
    }

    /// Creates the origin of `R^dim`.
    pub fn zeros(dim: usize) -> Self {
        Self::new(vec![0.0; dim])
    }

    /// Creates a point with every coordinate equal to `v`.
    pub fn splat(dim: usize, v: f64) -> Self {
        Self::new(vec![v; dim])
    }

    /// Number of dimensions.
    #[inline]
    pub fn dim(&self) -> usize {
        self.coords.len()
    }

    /// Coordinate slice.
    #[inline]
    pub fn coords(&self) -> &[f64] {
        &self.coords
    }

    /// Squared Euclidean distance to another point.
    #[inline]
    pub fn dist_sq(&self, other: &Point) -> f64 {
        debug_assert_eq!(self.dim(), other.dim());
        self.coords
            .iter()
            .zip(other.coords.iter())
            .map(|(a, b)| {
                let d = a - b;
                d * d
            })
            .sum()
    }

    /// Euclidean distance to another point.
    #[inline]
    pub fn dist(&self, other: &Point) -> f64 {
        self.dist_sq(other).sqrt()
    }
}

impl Deref for Point {
    type Target = [f64];
    fn deref(&self) -> &[f64] {
        &self.coords
    }
}

impl Index<usize> for Point {
    type Output = f64;
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        &self.coords[i]
    }
}

impl IndexMut<usize> for Point {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.coords[i]
    }
}

impl From<Vec<f64>> for Point {
    fn from(v: Vec<f64>) -> Self {
        Point::new(v)
    }
}

impl From<&[f64]> for Point {
    fn from(v: &[f64]) -> Self {
        Point::new(v.to_vec())
    }
}

impl fmt::Debug for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Point{:?}", self.coords)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distances() {
        let a = Point::new(vec![0.0, 0.0]);
        let b = Point::new(vec![3.0, 4.0]);
        assert_eq!(a.dist_sq(&b), 25.0);
        assert_eq!(a.dist(&b), 5.0);
    }

    #[test]
    fn splat_and_zeros() {
        assert_eq!(Point::zeros(3).coords(), &[0.0, 0.0, 0.0]);
        assert_eq!(Point::splat(2, 7.5).coords(), &[7.5, 7.5]);
    }
}
