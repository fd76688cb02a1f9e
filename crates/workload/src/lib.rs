//! # pv-workload — dataset and query generators for the evaluation
//!
//! Reimplements the workloads of §VII-A:
//!
//! * [`synthetic`]: the uniform workload the paper generated with the
//!   Theodoridis spatial-data generator — object means uniform in
//!   `[0, 10000]^d`, per-dimension uncertainty-region lengths uniform in
//!   `[1, |u(o)|]`, 500-instance discrete pdfs;
//! * [`realistic`]: seeded simulators standing in for the paper's real
//!   datasets (`roads`, `rrlines` from rtreeportal.org, `airports` from
//!   ourairports.com), which are not available offline. The simulators
//!   match the statistical knobs the experiments actually exploit —
//!   cardinality, dimensionality, spatial skew (cluster corridors / hubs)
//!   and uncertainty-region shapes (thin elongated 2-D rectangles for road
//!   segments; tiny boxes bounding a 10 m GPS error sphere for airports);
//! * [`queries`]: uniformly random PNNQ query points (the paper's workload),
//!   plus a data-skewed variant for ablations.
//!
//! Everything is deterministic given a seed.

#![deny(missing_docs)]

use pv_geom::{HyperRect, Point};
use pv_uncertain::{Pdf, UncertainDb, UncertainObject};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Side length of the paper's domain `D = [0, 10000]^d`.
pub const DOMAIN_SIDE: f64 = 10_000.0;

/// Configuration for the synthetic uniform workload (Table I defaults).
#[derive(Debug, Clone)]
pub struct SyntheticConfig {
    /// `|S|`: number of objects.
    pub n: usize,
    /// Dimensionality `d` (paper default 3).
    pub dim: usize,
    /// `|u(o)|`: maximum per-dimension uncertainty length (paper default 60;
    /// sweeps 20..100).
    pub max_side: f64,
    /// Instances per object (paper: 500).
    pub samples: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        Self {
            n: 10_000,
            dim: 3,
            max_side: 60.0,
            samples: 500,
            seed: 42,
        }
    }
}

/// Generates the synthetic uniform database of §VII-A.
pub fn synthetic(cfg: &SyntheticConfig) -> UncertainDb {
    let domain = HyperRect::cube(cfg.dim, 0.0, DOMAIN_SIDE);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let objects = (0..cfg.n)
        .map(|i| {
            let id = i as u64;
            // Side lengths uniform in [1, max_side] per dimension.
            let sides: Vec<f64> = (0..cfg.dim)
                .map(|_| rng.gen_range(1.0..=cfg.max_side.max(1.0)))
                .collect();
            // Mean uniform, region clamped inside the domain.
            let region = region_around_mean(&mut rng, cfg.dim, &sides);
            UncertainObject {
                id,
                region,
                pdf: Pdf::Uniform {
                    n: cfg.samples,
                    seed: cfg.seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                },
            }
        })
        .collect();
    UncertainDb::new(domain, objects)
}

fn region_around_mean(rng: &mut StdRng, dim: usize, sides: &[f64]) -> HyperRect {
    let mean: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.0..DOMAIN_SIDE)).collect();
    let lo: Vec<f64> = (0..dim)
        .map(|j| (mean[j] - sides[j] / 2.0).clamp(0.0, DOMAIN_SIDE - sides[j]))
        .collect();
    let hi: Vec<f64> = (0..dim).map(|j| lo[j] + sides[j]).collect();
    HyperRect::new(lo, hi)
}

/// Simulated stand-ins for the paper's real datasets (see ARCHITECTURE.md
/// §1 for the substitution rationale).
pub mod realistic {
    use super::*;

    /// `roads`-like dataset: 2-D MBRs of road segments — thin, elongated
    /// rectangles chained along meandering road polylines.
    /// Paper cardinality: 30k.
    pub fn roads(n: usize, seed: u64) -> UncertainDb {
        corridor_segments(n, seed, (n / 150).max(6), 1.5, (20.0, 220.0), (1.0, 8.0))
    }

    /// `rrlines`-like dataset: 2-D MBRs of railroad lines — longer and
    /// straighter segments on fewer polylines. Paper cardinality: 36k.
    pub fn rrlines(n: usize, seed: u64) -> UncertainDb {
        corridor_segments(n, seed, (n / 400).max(3), 0.6, (80.0, 500.0), (1.0, 5.0))
    }

    /// `airports`-like dataset: 3-D coordinates (lat, lon, altitude mapped
    /// to the domain) with a 10 m-radius GPS error sphere bounded by its
    /// MBR; positions cluster around hub regions. The pdf is the clipped
    /// Gaussian the paper uses, discretised to 500 samples.
    /// Paper cardinality: 20k.
    pub fn airports(n: usize, seed: u64) -> UncertainDb {
        let dim = 3;
        let domain = HyperRect::cube(dim, 0.0, DOMAIN_SIDE);
        let mut rng = StdRng::seed_from_u64(seed);
        // Hub centres: a few dozen metro areas.
        let hubs: Vec<Vec<f64>> = (0..40)
            .map(|_| {
                vec![
                    rng.gen_range(500.0..DOMAIN_SIDE - 500.0),
                    rng.gen_range(500.0..DOMAIN_SIDE - 500.0),
                    rng.gen_range(0.0..1500.0), // altitude band
                ]
            })
            .collect();
        // 10 m radius on a ~4000 km extent mapped to 10^4 units → ~0.025
        // domain units.
        let gps_radius = 10.0 * DOMAIN_SIDE / 4.0e6;
        let objects = (0..n)
            .map(|i| {
                let id = i as u64;
                let hub = &hubs[rng.gen_range(0..hubs.len())];
                let spread = if rng.gen_bool(0.8) { 300.0 } else { 2000.0 };
                let center: Vec<f64> = (0..dim)
                    .map(|j| {
                        (hub[j] + spread * super::gauss(&mut rng))
                            .clamp(gps_radius, DOMAIN_SIDE - gps_radius)
                    })
                    .collect();
                let lo: Vec<f64> = center.iter().map(|c| c - gps_radius).collect();
                let hi: Vec<f64> = center.iter().map(|c| c + gps_radius).collect();
                UncertainObject {
                    id,
                    region: HyperRect::new(lo, hi),
                    pdf: Pdf::Gaussian {
                        sigma: gps_radius / 2.0,
                        n: 500,
                        seed: seed ^ id.wrapping_mul(0xD6E8_FEB8_6659_FD93),
                    },
                }
            })
            .collect();
        UncertainDb::new(domain, objects)
    }

    /// Shared generator: `n` segment MBRs along wandering polyline
    /// corridors. Segments are chained **end-to-end** along each corridor —
    /// like real road/rail polylines, where consecutive segment MBRs touch
    /// at their endpoints but do not stack on top of each other (stacking
    /// would create pathological overlap densities no real dataset has).
    /// Each segment has a length from `len_range`, a width from
    /// `width_range`, and the corridor heading drifts as it walks.
    fn corridor_segments(
        n: usize,
        seed: u64,
        n_corridors: usize,
        heading_drift: f64,
        len_range: (f64, f64),
        width_range: (f64, f64),
    ) -> UncertainDb {
        let dim = 2;
        let domain = HyperRect::cube(dim, 0.0, DOMAIN_SIDE);
        let mut rng = StdRng::seed_from_u64(seed);
        // Walker state per corridor: position + heading.
        let mut walkers: Vec<(f64, f64, f64)> = (0..n_corridors.max(1))
            .map(|_| {
                (
                    rng.gen_range(0.05 * DOMAIN_SIDE..0.95 * DOMAIN_SIDE),
                    rng.gen_range(0.05 * DOMAIN_SIDE..0.95 * DOMAIN_SIDE),
                    rng.gen_range(0.0..std::f64::consts::TAU),
                )
            })
            .collect();
        let objects = (0..n)
            .map(|i| {
                let id = i as u64;
                let w = id as usize % walkers.len();
                let (ref mut x, ref mut y, ref mut heading) = walkers[w];
                // The corridor meanders: small heading drift per segment,
                // occasional junctions with a sharp turn.
                *heading += heading_drift * super::gauss(&mut rng) / 10.0;
                if rng.gen_bool(0.03) {
                    *heading += rng.gen_range(-1.2..1.2);
                }
                let len = rng.gen_range(len_range.0..len_range.1);
                let width = rng.gen_range(width_range.0..width_range.1);
                let (sx, sy) = (*x, *y);
                let mut ex = sx + len * heading.cos();
                let mut ey = sy + len * heading.sin();
                // Bounce off the domain walls.
                if !(0.0..=DOMAIN_SIDE).contains(&ex) || !(0.0..=DOMAIN_SIDE).contains(&ey) {
                    *heading += std::f64::consts::FRAC_PI_2 * 1.1;
                    ex = (sx + len * heading.cos()).clamp(0.0, DOMAIN_SIDE);
                    ey = (sy + len * heading.sin()).clamp(0.0, DOMAIN_SIDE);
                }
                *x = ex;
                *y = ey;
                let lo = vec![
                    (sx.min(ex) - width / 2.0).max(0.0),
                    (sy.min(ey) - width / 2.0).max(0.0),
                ];
                let hi = vec![
                    (sx.max(ex) + width / 2.0).min(DOMAIN_SIDE).max(lo[0]),
                    (sy.max(ey) + width / 2.0).min(DOMAIN_SIDE).max(lo[1]),
                ];
                UncertainObject {
                    id,
                    region: HyperRect::new(lo, hi),
                    pdf: Pdf::Uniform {
                        n: 500,
                        seed: seed ^ id.wrapping_mul(0xC2B2_AE3D_27D4_EB4F),
                    },
                }
            })
            .collect();
        UncertainDb::new(domain, objects)
    }
}

/// One standard-normal variate (Box–Muller; `rand_distr` is not vendored).
fn gauss(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Query workloads.
pub mod queries {
    use super::*;

    /// `m` query points uniform in the domain (the paper's PNNQ workload:
    /// query points are selected uniformly at random from `D`).
    pub fn uniform(domain: &HyperRect, m: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..m)
            .map(|_| {
                Point::new(
                    (0..domain.dim())
                        .map(|j| rng.gen_range(domain.lo()[j]..=domain.hi()[j]))
                        .collect(),
                )
            })
            .collect()
    }

    /// `m` query points placed near data objects (ablation workload:
    /// data-skewed queries stress dense PV-cell areas).
    pub fn data_skewed(db: &UncertainDb, m: usize, spread: f64, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..m)
            .map(|_| {
                let o = &db.objects[rng.gen_range(0..db.objects.len())];
                let c = o.region.center();
                Point::new(
                    (0..db.dim())
                        .map(|j| {
                            (c[j] + spread * super::gauss(&mut rng))
                                .clamp(db.domain.lo()[j], db.domain.hi()[j])
                        })
                        .collect(),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_respects_config() {
        let cfg = SyntheticConfig {
            n: 500,
            dim: 3,
            max_side: 80.0,
            samples: 100,
            seed: 7,
        };
        let db = synthetic(&cfg);
        assert_eq!(db.len(), 500);
        assert_eq!(db.dim(), 3);
        for o in &db.objects {
            assert!(db.domain.contains_rect(&o.region));
            for j in 0..3 {
                let side = o.region.extent(j);
                assert!((1.0..=80.0).contains(&side), "side {side}");
            }
            assert_eq!(o.pdf.n_samples(), 100);
        }
    }

    #[test]
    fn synthetic_is_deterministic() {
        let cfg = SyntheticConfig::default();
        let small = SyntheticConfig { n: 50, ..cfg };
        let a = synthetic(&small);
        let b = synthetic(&small);
        assert_eq!(a.objects, b.objects);
        let c = synthetic(&SyntheticConfig { seed: 43, ..small });
        assert_ne!(a.objects, c.objects);
    }

    #[test]
    fn synthetic_means_cover_the_domain() {
        let db = synthetic(&SyntheticConfig {
            n: 2000,
            dim: 2,
            ..Default::default()
        });
        // crude uniformity check: each quadrant holds 15-35% of objects
        let mid = DOMAIN_SIDE / 2.0;
        let mut quad = [0usize; 4];
        for o in &db.objects {
            let c = o.region.center();
            let q = (c[0] >= mid) as usize + 2 * (c[1] >= mid) as usize;
            quad[q] += 1;
        }
        for q in quad {
            let frac = q as f64 / 2000.0;
            assert!((0.15..0.35).contains(&frac), "quadrant fraction {frac}");
        }
    }

    #[test]
    fn roads_are_thin_and_clustered() {
        let db = realistic::roads(1000, 3);
        assert_eq!(db.dim(), 2);
        assert_eq!(db.len(), 1000);
        // segments must exhibit high aspect ratio on average
        let mut ratio_sum = 0.0;
        for o in &db.objects {
            let (a, b) = (o.region.extent(0), o.region.extent(1));
            let (long, short) = if a > b { (a, b) } else { (b, a) };
            ratio_sum += long / short.max(1e-9);
        }
        assert!(ratio_sum / 1000.0 > 3.0, "roads should be elongated");
    }

    #[test]
    fn rrlines_longer_than_roads() {
        let roads = realistic::roads(800, 5);
        let rr = realistic::rrlines(800, 5);
        let avg = |db: &UncertainDb| {
            db.objects
                .iter()
                .map(|o| o.region.extent(0).max(o.region.extent(1)))
                .sum::<f64>()
                / db.len() as f64
        };
        assert!(avg(&rr) > avg(&roads), "rail segments should be longer");
    }

    #[test]
    fn airports_are_tiny_3d_boxes() {
        let db = realistic::airports(500, 11);
        assert_eq!(db.dim(), 3);
        for o in &db.objects {
            for j in 0..3 {
                assert!(o.region.extent(j) < 1.0, "GPS boxes must be tiny");
            }
            assert!(matches!(o.pdf, Pdf::Gaussian { .. }));
        }
    }

    #[test]
    fn airports_are_clustered() {
        // Hub clustering ⇒ nearest-neighbor distances far below uniform.
        let db = realistic::airports(1500, 13);
        let uniform_db = synthetic(&SyntheticConfig {
            n: 1500,
            dim: 3,
            max_side: 1.0,
            samples: 8,
            seed: 13,
        });
        let mean_nn = |db: &UncertainDb| {
            let centers: Vec<Point> = db.objects.iter().map(|o| o.region.center()).collect();
            let mut total = 0.0;
            for (i, c) in centers.iter().enumerate().take(200) {
                let mut best = f64::INFINITY;
                for (j, other) in centers.iter().enumerate() {
                    if i != j {
                        best = best.min(c.dist_sq(other));
                    }
                }
                total += best.sqrt();
            }
            total / 200.0
        };
        assert!(mean_nn(&db) < mean_nn(&uniform_db) * 0.8);
    }

    #[test]
    fn query_workloads() {
        let db = synthetic(&SyntheticConfig {
            n: 100,
            dim: 2,
            ..Default::default()
        });
        let qs = queries::uniform(&db.domain, 64, 1);
        assert_eq!(qs.len(), 64);
        assert!(qs.iter().all(|q| db.domain.contains_point(q)));
        assert_eq!(qs, queries::uniform(&db.domain, 64, 1));
        let skewed = queries::data_skewed(&db, 64, 50.0, 2);
        assert_eq!(skewed.len(), 64);
        assert!(skewed.iter().all(|q| db.domain.contains_point(q)));
    }
}
