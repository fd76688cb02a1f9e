//! # pv-geom — geometry kernel for uncertain nearest-neighbor search
//!
//! This crate implements the d-dimensional geometric machinery that the
//! PV-index (Zhang et al., ICDE 2013) is built on:
//!
//! * [`Point`] and axis-parallel [`HyperRect`]s with minimum/maximum
//!   Euclidean distances between points and rectangles (§III-A of the paper);
//! * *spatial domination* between rectangles — the exact decision procedure of
//!   Emrich et al. (SIGMOD 2010, the paper's reference \[17\]) deciding whether
//!   every point of a rectangle `R` is strictly closer to rectangle `A` than
//!   to rectangle `B` ([`dominates`]);
//! * *domination-count estimation* ([`region_fully_dominated`]): a budgeted
//!   recursive partitioning of `R` proving `R ∩ I(Cset, o) = ∅`, i.e. that the
//!   whole region is covered by the dominated union `U(Cset, o)` (§V-B).
//!
//! All distance computations are done on **squared** distances where possible
//! to avoid `sqrt` in hot loops; public helpers expose both forms.
//!
//! The crate is dependency-free (besides dev-dependencies for testing) and is
//! shared by every other crate in the workspace.

#![deny(missing_docs)]

pub mod dist;
pub mod domination;
pub mod point;
pub mod quantize;
pub mod rect;

pub use dist::{max_dist, max_dist_sq, max_dist_sq_rr, min_dist, min_dist_sq, min_dist_sq_rr, sq};
pub use domination::{
    dominates, point_dominated, region_fully_dominated, DominationRun, DominationStats,
};
pub use point::Point;
pub use quantize::{snap_outward, QuantizedRect};
pub use rect::HyperRect;

/// A total order wrapper for `f64` used in priority queues.
///
/// All distances in this workspace are finite and non-negative, so the
/// ordering is total in practice; NaN is treated as greater than everything
/// to keep `Ord` lawful.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrderedF64(pub f64);

impl Eq for OrderedF64 {}

impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .partial_cmp(&other.0)
            .unwrap_or_else(|| match (self.0.is_nan(), other.0.is_nan()) {
                (true, true) => std::cmp::Ordering::Equal,
                (true, false) => std::cmp::Ordering::Greater,
                (false, true) => std::cmp::Ordering::Less,
                (false, false) => unreachable!("non-NaN floats always compare"),
            })
    }
}

#[cfg(test)]
mod ordered_tests {
    use super::OrderedF64;

    #[test]
    fn orders_normal_floats() {
        assert!(OrderedF64(1.0) < OrderedF64(2.0));
        assert!(OrderedF64(-1.0) < OrderedF64(0.0));
        assert_eq!(OrderedF64(3.5), OrderedF64(3.5));
    }

    #[test]
    fn nan_sorts_last() {
        assert!(OrderedF64(f64::NAN) > OrderedF64(f64::INFINITY));
        assert_eq!(
            OrderedF64(f64::NAN).cmp(&OrderedF64(f64::NAN)),
            std::cmp::Ordering::Equal
        );
    }
}
