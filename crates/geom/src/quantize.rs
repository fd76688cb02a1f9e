//! Conservative rectangle quantization.
//!
//! The paper's conclusion lists *compression* of the precomputed structures
//! as future work. This module provides the geometric primitive for it: a
//! UBR snapped **outward** onto a `steps × … × steps` grid over the domain
//! still contains the PV-cell (soundness is monotone under enlargement), but
//! its corners can be stored as small integers instead of `f64`s — 2 bytes
//! per coordinate at 2¹⁶ steps instead of 8, a 4× reduction of the
//! secondary-index UBR payload.

use crate::HyperRect;

/// A rectangle quantized to grid indices over a domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantizedRect {
    /// Inclusive lower grid indices.
    pub lo: Vec<u16>,
    /// Inclusive upper grid indices (cell indices, so `hi` maps to the
    /// *upper edge* of cell `hi`).
    pub hi: Vec<u16>,
    /// Grid resolution per dimension.
    pub steps: u16,
}

impl QuantizedRect {
    /// Quantizes `rect` over `domain`, rounding outward so that
    /// `decode(encode(r)) ⊇ r` always holds.
    ///
    /// # Panics
    /// If `rect` is not contained in `domain` (UBRs always are) or
    /// `steps == 0`.
    pub fn encode(rect: &HyperRect, domain: &HyperRect, steps: u16) -> Self {
        assert!(steps > 0);
        assert!(
            domain.contains_rect(rect),
            "rect must lie inside the domain"
        );
        let d = rect.dim();
        let mut lo = Vec::with_capacity(d);
        let mut hi = Vec::with_capacity(d);
        for j in 0..d {
            let extent = domain.extent(j);
            let cell = |x: f64| -> f64 {
                if extent <= 0.0 {
                    0.0
                } else {
                    (x - domain.lo()[j]) / extent * steps as f64
                }
            };
            // floor for the lower edge, ceil-1 for the upper cell index;
            // clamp to the grid. A degenerate side exactly on a grid line
            // would invert the range (floor == ceil), so the upper edge is
            // forced at least one cell past the lower one. The epsilon makes
            // the snap idempotent: re-encoding a decoded rectangle whose
            // corners sit on grid lines (up to float error) must not drift
            // by another cell.
            const EPS: f64 = 1e-7;
            let l = (cell(rect.lo()[j]) + EPS)
                .floor()
                .clamp(0.0, (steps - 1) as f64) as u16;
            let h_edge =
                ((cell(rect.hi()[j]) - EPS).ceil().clamp(1.0, steps as f64) as u16).max(l + 1);
            lo.push(l);
            hi.push(h_edge - 1);
        }
        Self { lo, hi, steps }
    }

    /// Reconstructs the (enlarged) rectangle covered by the grid cells.
    ///
    /// Materialises an owned [`HyperRect`], so it lives on the cold/compat
    /// tier — the Step-2 hot path streams quantized records and never calls
    /// it (`dists_sq_into` works on the encoded bytes).
    pub fn decode(&self, domain: &HyperRect) -> HyperRect {
        let d = self.lo.len();
        let mut lo = Vec::with_capacity(d);
        let mut hi = Vec::with_capacity(d);
        for (((&ql, &qh), &dl), &dh) in self
            .lo
            .iter()
            .zip(&self.hi)
            .zip(domain.lo())
            .zip(domain.hi())
        {
            let extent = dh - dl;
            let step = extent / self.steps as f64;
            // Clamp against float error at the domain edge.
            let l = (dl + ql as f64 * step).max(dl);
            let h = (dl + (qh as f64 + 1.0) * step).min(dh).max(l);
            lo.push(l);
            hi.push(h);
        }
        HyperRect::new(lo, hi)
    }

    /// Serialized size in bytes (2 per coordinate + the shared `steps`).
    pub fn encoded_len(dim: usize) -> usize {
        2 + dim * 4
    }
}

/// Convenience: snap a rectangle outward onto the grid in one call.
pub fn snap_outward(rect: &HyperRect, domain: &HyperRect, steps: u16) -> HyperRect {
    QuantizedRect::encode(rect, domain, steps).decode(domain)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn domain() -> HyperRect {
        HyperRect::cube(3, 0.0, 10_000.0)
    }

    #[test]
    fn roundtrip_contains_original() {
        let dom = domain();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..500 {
            let lo: Vec<f64> = (0..3).map(|_| rng.gen_range(0.0..9_000.0)).collect();
            let hi: Vec<f64> = lo.iter().map(|l| l + rng.gen_range(0.0..900.0)).collect();
            let r = HyperRect::new(lo, hi);
            for steps in [16u16, 256, 65_535] {
                let snapped = snap_outward(&r, &dom, steps);
                assert!(
                    snapped.contains_rect(&r),
                    "steps {steps}: {snapped:?} !⊇ {r:?}"
                );
                assert!(dom.contains_rect(&snapped));
            }
        }
    }

    #[test]
    fn finer_grids_are_tighter() {
        let dom = domain();
        let r = HyperRect::new(vec![1_234.5; 3], vec![2_345.6; 3]);
        let coarse = snap_outward(&r, &dom, 64);
        let fine = snap_outward(&r, &dom, 4_096);
        assert!(coarse.contains_rect(&fine));
        assert!(coarse.volume() > fine.volume());
    }

    #[test]
    fn error_bounded_by_one_cell() {
        let dom = domain();
        let steps = 1_000u16;
        let cell = 10_000.0 / steps as f64;
        let r = HyperRect::new(vec![500.0; 3], vec![700.0; 3]);
        let snapped = snap_outward(&r, &dom, steps);
        for j in 0..3 {
            assert!(snapped.lo()[j] >= r.lo()[j] - cell - 1e-9);
            assert!(snapped.hi()[j] <= r.hi()[j] + cell + 1e-9);
        }
    }

    #[test]
    fn full_domain_is_fixed_point() {
        let dom = domain();
        let snapped = snap_outward(&dom, &dom, 256);
        assert_eq!(snapped, dom);
    }

    #[test]
    fn degenerate_rect_survives() {
        let dom = domain();
        let p = HyperRect::new(vec![5_000.0; 3], vec![5_000.0; 3]);
        let snapped = snap_outward(&p, &dom, 128);
        assert!(snapped.contains_rect(&p));
        assert!(snapped.volume() > 0.0, "a grid cell has positive volume");
    }

    #[test]
    fn snapping_is_idempotent() {
        let dom = domain();
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..300 {
            let lo: Vec<f64> = (0..3).map(|_| rng.gen_range(0.0..9_000.0)).collect();
            let hi: Vec<f64> = lo.iter().map(|l| l + rng.gen_range(0.0..900.0)).collect();
            let r = HyperRect::new(lo, hi);
            for steps in [64u16, 1_000, 65_535] {
                let once = snap_outward(&r, &dom, steps);
                let twice = snap_outward(&once, &dom, steps);
                assert_eq!(once, twice, "steps {steps}");
            }
        }
    }

    #[test]
    fn quantized_repr_is_compact() {
        // 3-D: 2 (steps) + 3 × 4 = 14 bytes instead of 48.
        assert_eq!(QuantizedRect::encoded_len(3), 14);
    }
}
