//! # pv-uncertain — the attribute-uncertainty object model
//!
//! The paper adopts the *attribute uncertainty model* (§I): each object's
//! d-dimensional attribute vector is a random variable whose support is
//! minimally bounded by an axis-parallel **uncertainty region** `u(o)`, and
//! whose pdf is discretised into `n` weighted point *instances* (500 in the
//! paper's experiments, each carrying probability `1/n`).
//!
//! [`UncertainObject`] couples the region with a [`Pdf`] descriptor. To keep
//! 10⁷-instance datasets (the paper's scale) affordable in memory, the
//! uniform and Gaussian pdfs are stored as *(kind, seed, n)* and their
//! instances are re-materialised deterministically on demand; an
//! [`Pdf::Explicit`] variant stores literal samples for callers that need
//! full control. Serialisation helpers encode objects for the PV-index's
//! disk-resident secondary index.

#![deny(missing_docs)]

pub mod persist;

use pv_geom::{HyperRect, Point};
use pv_storage::codec;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::Arc;

/// Probability density descriptor for an uncertain object.
///
/// All variants discretise to `n` instances of weight `1/n` (the discrete
/// model of the paper's references \[13\], \[14\]).
#[derive(Debug, Clone, PartialEq)]
pub enum Pdf {
    /// `n` samples drawn uniformly from the uncertainty region.
    Uniform {
        /// Number of instances.
        n: u32,
        /// Deterministic sampling seed.
        seed: u64,
    },
    /// `n` samples from an isotropic Gaussian centred in the region
    /// (σ in domain units), clipped by rejection to the region — the model
    /// used for the paper's GPS-derived `airports` dataset.
    Gaussian {
        /// Standard deviation in each dimension.
        sigma: f64,
        /// Number of instances.
        n: u32,
        /// Deterministic sampling seed.
        seed: u64,
    },
    /// Explicit instance list (uniform weights).
    Explicit(Arc<Vec<Point>>),
}

impl Pdf {
    /// Number of instances this pdf discretises to.
    pub fn n_samples(&self) -> usize {
        match self {
            Pdf::Uniform { n, .. } | Pdf::Gaussian { n, .. } => *n as usize,
            Pdf::Explicit(v) => v.len(),
        }
    }

    /// Materialises the instance list for a given uncertainty region.
    ///
    /// Deterministic: the same `(pdf, region)` pair always yields the same
    /// samples, which is what makes lazily materialised pdfs sound for both
    /// probability computation and testing.
    pub fn samples(&self, region: &HyperRect) -> Vec<Point> {
        match self {
            Pdf::Uniform { n, seed } => {
                let mut rng = StdRng::seed_from_u64(*seed);
                let d = region.dim();
                (0..*n)
                    .map(|_| {
                        Point::new(
                            (0..d)
                                .map(|j| {
                                    if region.extent(j) > 0.0 {
                                        rng.gen_range(region.lo()[j]..=region.hi()[j])
                                    } else {
                                        region.lo()[j]
                                    }
                                })
                                .collect(),
                        )
                    })
                    .collect()
            }
            Pdf::Gaussian { sigma, n, seed } => {
                let mut rng = StdRng::seed_from_u64(*seed);
                let d = region.dim();
                let c = region.center();
                (0..*n)
                    .map(|_| {
                        // Rejection-sample a clipped Gaussian; fall back to
                        // clamping after a bounded number of tries so the
                        // generator cannot stall on tiny regions.
                        for _ in 0..64 {
                            let cand = Point::new(
                                (0..d).map(|j| c[j] + sigma * gauss(&mut rng)).collect(),
                            );
                            if region.contains_point(&cand) {
                                return cand;
                            }
                        }
                        let clamped: Vec<f64> = (0..d)
                            .map(|j| {
                                (c[j] + sigma * gauss(&mut rng))
                                    .clamp(region.lo()[j], region.hi()[j])
                            })
                            .collect();
                        Point::new(clamped)
                    })
                    .collect()
            }
            Pdf::Explicit(v) => v.as_ref().clone(),
        }
    }
}

/// One standard-normal variate via Box–Muller (keeps us inside the approved
/// dependency set — `rand_distr` is not vendored).
fn gauss(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Reusable buffers for the allocation-free payload path
/// ([`UncertainObject::dists_sq_into`] / [`EncodedObject::dists_sq_into`]).
/// Keep one per query thread; after the first few queries grow the buffers
/// to their working size, sampling performs no heap allocation.
#[derive(Debug, Default, Clone)]
pub struct SampleScratch {
    lo: Vec<f64>,
    hi: Vec<f64>,
    coords: Vec<f64>,
}

/// Squared Euclidean distance between a coordinate slice and a point slice,
/// accumulated in dimension order — bit-identical to [`Point::dist_sq`].
#[inline]
fn slice_dist_sq(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

/// Streams the squared instance distances of a *uniform* pdf to `q` into
/// `out`, drawing exactly the same RNG sequence as [`Pdf::samples`] — the
/// distances are bitwise equal to sampling first and measuring afterwards.
fn uniform_dists_sq_into(lo: &[f64], hi: &[f64], n: u32, seed: u64, q: &[f64], out: &mut Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..n {
        let mut acc = 0.0;
        for ((&l, &h), &qc) in lo.iter().zip(hi).zip(q) {
            let c = if h - l > 0.0 { rng.gen_range(l..=h) } else { l };
            let diff = c - qc;
            acc += diff * diff;
        }
        out.push(acc);
    }
}

/// Streams the squared instance distances of a clipped-Gaussian pdf to `q`,
/// mirroring the rejection/clamp control flow (and RNG draws) of
/// [`Pdf::samples`] exactly.
#[allow(clippy::too_many_arguments)]
fn gaussian_dists_sq_into(
    lo: &[f64],
    hi: &[f64],
    sigma: f64,
    n: u32,
    seed: u64,
    q: &[f64],
    coords: &mut Vec<f64>,
    out: &mut Vec<f64>,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    'samples: for _ in 0..n {
        for _ in 0..64 {
            coords.clear();
            for (&l, &h) in lo.iter().zip(hi) {
                coords.push(0.5 * (l + h) + sigma * gauss(&mut rng));
            }
            if lo
                .iter()
                .zip(hi)
                .zip(coords.iter())
                .all(|((l, h), c)| l <= c && c <= h)
            {
                out.push(slice_dist_sq(coords, q));
                continue 'samples;
            }
        }
        coords.clear();
        for (&l, &h) in lo.iter().zip(hi) {
            coords.push((0.5 * (l + h) + sigma * gauss(&mut rng)).clamp(l, h));
        }
        out.push(slice_dist_sq(coords, q));
    }
}

/// An uncertain object: identity, rectangular uncertainty region and pdf.
#[derive(Debug, Clone, PartialEq)]
pub struct UncertainObject {
    /// Database-unique identifier.
    pub id: u64,
    /// Uncertainty region `u(o)` minimally bounding all attribute values.
    pub region: HyperRect,
    /// Discretised pdf over the region.
    pub pdf: Pdf,
}

impl UncertainObject {
    /// Convenience constructor with a uniform pdf whose seed derives from
    /// the object id (deterministic per object).
    pub fn uniform(id: u64, region: HyperRect, n_samples: u32) -> Self {
        Self {
            id,
            region,
            pdf: Pdf::Uniform {
                n: n_samples,
                seed: id.wrapping_mul(0xA076_1D64_78BD_642F).wrapping_add(1),
            },
        }
    }

    /// Materialised instances.
    pub fn samples(&self) -> Vec<Point> {
        self.pdf.samples(&self.region)
    }

    /// Mean position (centre of the uncertainty region) — what FS/IS use as
    /// the object's "mean position" for NN ordering.
    pub fn mean(&self) -> Point {
        self.region.center()
    }

    /// Appends the **squared** distance of every instance to `q` onto `out`,
    /// without materialising the instance points. The values are bitwise
    /// identical to `self.samples().iter().map(|s| s.dist_sq(q))` (same RNG
    /// sequence, same per-dimension accumulation order) but the whole pass
    /// is allocation-free once `scratch` has grown to its working size —
    /// this is the Step-2 payload path of the query engine.
    pub fn dists_sq_into(&self, q: &Point, scratch: &mut SampleScratch, out: &mut Vec<f64>) {
        debug_assert_eq!(self.region.dim(), q.dim());
        match &self.pdf {
            Pdf::Uniform { n, seed } => {
                uniform_dists_sq_into(self.region.lo(), self.region.hi(), *n, *seed, q, out)
            }
            Pdf::Gaussian { sigma, n, seed } => gaussian_dists_sq_into(
                self.region.lo(),
                self.region.hi(),
                *sigma,
                *n,
                *seed,
                q,
                &mut scratch.coords,
                out,
            ),
            Pdf::Explicit(points) => {
                for p in points.iter() {
                    out.push(slice_dist_sq(p.coords(), q));
                }
            }
        }
    }

    /// Serialises `(id, region, pdf)` for the secondary index.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        codec::put_u64(&mut out, self.id);
        codec::put_u16(&mut out, self.region.dim() as u16);
        for &x in self.region.lo() {
            codec::put_f64(&mut out, x);
        }
        for &x in self.region.hi() {
            codec::put_f64(&mut out, x);
        }
        match &self.pdf {
            Pdf::Uniform { n, seed } => {
                codec::put_u16(&mut out, 0);
                codec::put_u32(&mut out, *n);
                codec::put_u64(&mut out, *seed);
            }
            Pdf::Gaussian { sigma, n, seed } => {
                codec::put_u16(&mut out, 1);
                codec::put_f64(&mut out, *sigma);
                codec::put_u32(&mut out, *n);
                codec::put_u64(&mut out, *seed);
            }
            Pdf::Explicit(points) => {
                codec::put_u16(&mut out, 2);
                codec::put_u32(&mut out, points.len() as u32);
                for p in points.iter() {
                    for &x in p.coords() {
                        codec::put_f64(&mut out, x);
                    }
                }
            }
        }
        out
    }

    /// Decodes an object serialised with [`UncertainObject::encode`],
    /// reporting truncation, unknown pdf tags and inverted region corners
    /// through the codec layer instead of panicking.
    pub fn try_decode(buf: &[u8]) -> Result<Self, codec::DecodeError> {
        let mut r = codec::Reader::new(buf);
        let id = r.try_u64()?;
        let dim = r.try_u16()? as usize;
        let read_coords = |r: &mut codec::Reader| -> Result<Vec<f64>, codec::DecodeError> {
            (0..dim).map(|_| r.try_f64()).collect()
        };
        let lo = read_coords(&mut r)?;
        let hi = read_coords(&mut r)?;
        let region = HyperRect::try_new(lo, hi).ok_or(codec::DecodeError::Invalid {
            context: "uncertain-object region corners",
        })?;
        let pdf = match r.try_u16()? {
            0 => Pdf::Uniform {
                n: r.try_u32()?,
                seed: r.try_u64()?,
            },
            1 => Pdf::Gaussian {
                sigma: r.try_f64()?,
                n: r.try_u32()?,
                seed: r.try_u64()?,
            },
            2 => {
                let n = r.try_u32()? as usize;
                let pts = (0..n)
                    .map(|_| Ok(Point::new(read_coords(&mut r)?)))
                    .collect::<Result<Vec<_>, codec::DecodeError>>()?;
                Pdf::Explicit(Arc::new(pts))
            }
            t => {
                return Err(codec::DecodeError::UnknownTag {
                    context: "pdf descriptor",
                    tag: t,
                })
            }
        };
        Ok(UncertainObject { id, region, pdf })
    }
}

/// The pdf descriptor of an [`EncodedObject`], borrowing any instance data
/// from the underlying record bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EncodedPdf<'a> {
    /// Uniform pdf parameters.
    Uniform {
        /// Number of instances.
        n: u32,
        /// Sampling seed.
        seed: u64,
    },
    /// Clipped-Gaussian pdf parameters.
    Gaussian {
        /// Standard deviation.
        sigma: f64,
        /// Number of instances.
        n: u32,
        /// Sampling seed.
        seed: u64,
    },
    /// Explicit instance list: `n · dim` little-endian `f64`s.
    Explicit {
        /// Number of instances.
        n: u32,
        /// Raw coordinate bytes (`n * dim * 8` of them).
        data: &'a [u8],
    },
}

/// A zero-copy view over a record written by [`UncertainObject::encode`].
///
/// [`UncertainObject::try_decode`] materialises a full object (two boxed
/// corner slices plus the pdf) on every call — fine for maintenance paths,
/// wasteful for PNNQ Step 2, which only needs the instance *distances* to
/// the query point. `EncodedObject` parses the same bytes into borrowed
/// offsets and streams those distances straight out of the buffer.
#[derive(Debug, Clone, Copy)]
pub struct EncodedObject<'a> {
    id: u64,
    dim: usize,
    /// `2 · dim` little-endian f64s: the region's lo corner then hi corner.
    region: &'a [u8],
    pdf: EncodedPdf<'a>,
}

impl<'a> EncodedObject<'a> {
    /// Parses a record produced by [`UncertainObject::encode`] without
    /// copying coordinate data.
    pub fn parse(buf: &'a [u8]) -> Result<Self, codec::DecodeError> {
        let mut r = codec::Reader::new(buf);
        let id = r.try_u64()?;
        let dim = r.try_u16()? as usize;
        if dim == 0 {
            return Err(codec::DecodeError::Invalid {
                context: "encoded object dimensionality",
            });
        }
        let region = r.try_borrow(2 * dim * 8)?;
        let pdf = match r.try_u16()? {
            0 => EncodedPdf::Uniform {
                n: r.try_u32()?,
                seed: r.try_u64()?,
            },
            1 => EncodedPdf::Gaussian {
                sigma: r.try_f64()?,
                n: r.try_u32()?,
                seed: r.try_u64()?,
            },
            2 => {
                let n = r.try_u32()?;
                EncodedPdf::Explicit {
                    n,
                    data: r.try_borrow(n as usize * dim * 8)?,
                }
            }
            t => {
                return Err(codec::DecodeError::UnknownTag {
                    context: "pdf descriptor",
                    tag: t,
                })
            }
        };
        Ok(Self {
            id,
            dim,
            region,
            pdf,
        })
    }

    /// Object id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of instances the pdf discretises to.
    pub fn n_samples(&self) -> usize {
        match self.pdf {
            EncodedPdf::Uniform { n, .. }
            | EncodedPdf::Gaussian { n, .. }
            | EncodedPdf::Explicit { n, .. } => n as usize,
        }
    }

    /// The pdf descriptor.
    pub fn pdf(&self) -> EncodedPdf<'a> {
        self.pdf
    }

    /// Reads the `i`-th little-endian f64. Total: [`EncodedObject::parse`]
    /// validated the section lengths, so the window is always present on a
    /// well-formed record; a short read (corruption) poisons the distance
    /// with NaN instead of panicking mid-query.
    #[inline]
    fn coord(bytes: &[u8], i: usize) -> f64 {
        bytes
            .get(i * 8..i * 8 + 8)
            .and_then(|w| w.try_into().ok())
            .map_or(f64::NAN, f64::from_le_bytes)
    }

    /// Appends the squared distance of every instance to `q` onto `out`,
    /// bitwise identical to decoding the object and calling
    /// [`UncertainObject::dists_sq_into`], but with zero heap allocation at
    /// steady state (the region corners are staged in `scratch`).
    pub fn dists_sq_into(&self, q: &Point, scratch: &mut SampleScratch, out: &mut Vec<f64>) {
        debug_assert_eq!(self.dim, q.dim());
        let d = self.dim;
        scratch.lo.clear();
        scratch.hi.clear();
        for j in 0..d {
            scratch.lo.push(Self::coord(self.region, j));
            scratch.hi.push(Self::coord(self.region, d + j));
        }
        match self.pdf {
            EncodedPdf::Uniform { n, seed } => {
                uniform_dists_sq_into(&scratch.lo, &scratch.hi, n, seed, q, out)
            }
            EncodedPdf::Gaussian { sigma, n, seed } => gaussian_dists_sq_into(
                &scratch.lo,
                &scratch.hi,
                sigma,
                n,
                seed,
                q,
                &mut scratch.coords,
                out,
            ),
            EncodedPdf::Explicit { n, data } => {
                for s in 0..n as usize {
                    let mut acc = 0.0;
                    for (j, &qc) in q.coords().iter().enumerate().take(d) {
                        let diff = Self::coord(data, s * d + j) - qc;
                        acc += diff * diff;
                    }
                    out.push(acc);
                }
            }
        }
    }
}

/// An uncertain database: a domain and a set of objects (§III: the set `S`).
#[derive(Debug, Clone)]
pub struct UncertainDb {
    /// The d-dimensional domain `D`.
    pub domain: HyperRect,
    /// Objects, indexable by position; ids are unique but not necessarily
    /// dense after updates.
    pub objects: Vec<UncertainObject>,
}

impl UncertainDb {
    /// Creates a database over `domain` with the given objects.
    ///
    /// # Panics
    /// If an object's region is not fully inside the domain, or ids repeat.
    pub fn new(domain: HyperRect, objects: Vec<UncertainObject>) -> Self {
        if let Some(why) = Self::rejects(&domain, &objects) {
            panic!("{why}");
        }
        Self { domain, objects }
    }

    /// Why [`UncertainDb::new`] would reject `objects`: the first one whose
    /// region is not inside `domain` (or has another dimensionality), or
    /// whose id repeats.
    pub(crate) fn rejects(domain: &HyperRect, objects: &[UncertainObject]) -> Option<String> {
        let mut seen = std::collections::HashSet::new();
        objects.iter().find_map(|o| {
            if o.region.dim() != domain.dim() || !domain.contains_rect(&o.region) {
                Some(format!("object {} outside the domain", o.id))
            } else if !seen.insert(o.id) {
                Some(format!("duplicate object id {}", o.id))
            } else {
                None
            }
        })
    }

    /// Number of objects (`|S|`).
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True when the database is empty.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.domain.dim()
    }

    /// Finds an object by id (linear; index structures are built on top).
    pub fn get(&self, id: u64) -> Option<&UncertainObject> {
        self.objects.iter().find(|o| o.id == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region(lo: &[f64], hi: &[f64]) -> HyperRect {
        HyperRect::new(lo.to_vec(), hi.to_vec())
    }

    #[test]
    fn uniform_samples_stay_in_region_and_are_deterministic() {
        let r = region(&[0.0, 10.0], &[2.0, 12.0]);
        let o = UncertainObject::uniform(7, r.clone(), 200);
        let s1 = o.samples();
        let s2 = o.samples();
        assert_eq!(s1.len(), 200);
        assert_eq!(s1, s2, "sampling must be deterministic");
        assert!(s1.iter().all(|p| r.contains_point(p)));
    }

    #[test]
    fn different_ids_sample_differently() {
        let r = region(&[0.0, 0.0], &[1.0, 1.0]);
        let a = UncertainObject::uniform(1, r.clone(), 50);
        let b = UncertainObject::uniform(2, r, 50);
        assert_ne!(a.samples(), b.samples());
    }

    #[test]
    fn gaussian_samples_cluster_near_center() {
        let r = region(&[0.0, 0.0], &[10.0, 10.0]);
        let o = UncertainObject {
            id: 3,
            region: r.clone(),
            pdf: Pdf::Gaussian {
                sigma: 0.5,
                n: 500,
                seed: 99,
            },
        };
        let samples = o.samples();
        assert!(samples.iter().all(|p| r.contains_point(p)));
        let c = r.center();
        let mean_dist: f64 = samples.iter().map(|p| p.dist(&c)).sum::<f64>() / samples.len() as f64;
        // sigma=0.5 ⇒ expected 2-D distance ≈ sigma·sqrt(π/2) ≈ 0.63
        assert!(mean_dist < 1.5, "mean distance {mean_dist}");
    }

    #[test]
    fn gaussian_tiny_region_terminates() {
        let r = region(&[5.0, 5.0], &[5.0, 5.0]); // degenerate point region
        let o = UncertainObject {
            id: 4,
            region: r.clone(),
            pdf: Pdf::Gaussian {
                sigma: 3.0,
                n: 32,
                seed: 1,
            },
        };
        let s = o.samples();
        assert_eq!(s.len(), 32);
        assert!(s.iter().all(|p| r.contains_point(p)));
    }

    #[test]
    fn explicit_pdf_roundtrip() {
        let pts = vec![Point::new(vec![1.0, 2.0]), Point::new(vec![3.0, 4.0])];
        let o = UncertainObject {
            id: 11,
            region: region(&[0.0, 0.0], &[5.0, 5.0]),
            pdf: Pdf::Explicit(Arc::new(pts.clone())),
        };
        assert_eq!(o.samples(), pts);
        assert_eq!(o.pdf.n_samples(), 2);
    }

    #[test]
    fn encode_decode_roundtrip_all_pdfs() {
        let objs = vec![
            UncertainObject::uniform(1, region(&[0.0, 1.0], &[2.0, 3.0]), 64),
            UncertainObject {
                id: 2,
                region: region(&[5.0, 5.0], &[6.0, 7.0]),
                pdf: Pdf::Gaussian {
                    sigma: 0.25,
                    n: 16,
                    seed: 5,
                },
            },
            UncertainObject {
                id: 3,
                region: region(&[0.0, 0.0], &[1.0, 1.0]),
                pdf: Pdf::Explicit(Arc::new(vec![
                    Point::new(vec![0.5, 0.5]),
                    Point::new(vec![0.25, 0.75]),
                ])),
            },
        ];
        for o in objs {
            let buf = o.encode();
            let back = UncertainObject::try_decode(&buf).unwrap();
            assert_eq!(back, o);
        }
    }

    #[test]
    fn dists_sq_into_matches_materialised_samples_bitwise() {
        let objs = vec![
            UncertainObject::uniform(1, region(&[0.0, 1.0], &[2.0, 3.0]), 64),
            UncertainObject::uniform(2, region(&[5.0, 5.0], &[5.0, 7.0]), 16), // degenerate dim
            UncertainObject {
                id: 3,
                region: region(&[5.0, 5.0], &[6.0, 7.0]),
                pdf: Pdf::Gaussian {
                    sigma: 0.25,
                    n: 32,
                    seed: 5,
                },
            },
            UncertainObject {
                id: 4,
                region: region(&[0.0, 0.0], &[1.0, 1.0]),
                pdf: Pdf::Explicit(Arc::new(vec![
                    Point::new(vec![0.5, 0.5]),
                    Point::new(vec![0.25, 0.75]),
                ])),
            },
        ];
        let q = Point::new(vec![1.5, 2.5]);
        let mut scratch = SampleScratch::default();
        for o in &objs {
            let want: Vec<u64> = o
                .samples()
                .iter()
                .map(|s| s.dist_sq(&q).to_bits())
                .collect();
            let mut got = Vec::new();
            o.dists_sq_into(&q, &mut scratch, &mut got);
            assert_eq!(
                got.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                want,
                "object {}",
                o.id
            );
            // the zero-copy encoded view agrees too
            let buf = o.encode();
            let view = EncodedObject::parse(&buf).unwrap();
            assert_eq!(view.id(), o.id);
            assert_eq!(view.dim(), 2);
            assert_eq!(view.n_samples(), o.pdf.n_samples());
            let mut via_view = Vec::new();
            view.dists_sq_into(&q, &mut scratch, &mut via_view);
            assert_eq!(
                via_view.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                want,
                "encoded view of object {}",
                o.id
            );
        }
    }

    #[test]
    fn encoded_object_reports_corruption() {
        let o = UncertainObject::uniform(9, region(&[0.0, 0.0], &[1.0, 1.0]), 8);
        let buf = o.encode();
        assert!(EncodedObject::parse(&buf).is_ok());
        assert!(matches!(
            EncodedObject::parse(&buf[..buf.len() - 1]),
            Err(pv_storage::codec::DecodeError::Truncated { .. })
        ));
        let mut bad = buf.clone();
        bad[42] = 0xEE;
        bad[43] = 0xEE;
        assert!(matches!(
            EncodedObject::parse(&bad),
            Err(pv_storage::codec::DecodeError::UnknownTag { .. })
        ));
    }

    #[test]
    fn try_decode_surfaces_corruption() {
        use pv_storage::codec::DecodeError;
        let o = UncertainObject::uniform(9, region(&[0.0, 0.0], &[1.0, 1.0]), 8);
        let mut buf = o.encode();
        // id(8) + dim(2) + 4 corners(32) puts the pdf tag at offset 42.
        buf[42] = 0xEE;
        buf[43] = 0xEE;
        assert_eq!(
            UncertainObject::try_decode(&buf),
            Err(DecodeError::UnknownTag {
                context: "pdf descriptor",
                tag: 0xEEEE,
            })
        );
        let good = o.encode();
        assert!(matches!(
            UncertainObject::try_decode(&good[..good.len() - 1]),
            Err(DecodeError::Truncated { .. })
        ));
        assert_eq!(UncertainObject::try_decode(&good), Ok(o));
    }

    #[test]
    fn db_rejects_out_of_domain_objects() {
        let domain = region(&[0.0, 0.0], &[10.0, 10.0]);
        let bad = UncertainObject::uniform(1, region(&[9.0, 9.0], &[11.0, 11.0]), 8);
        let result = std::panic::catch_unwind(|| {
            UncertainDb::new(domain.clone(), vec![bad.clone()]);
        });
        assert!(result.is_err());
    }

    #[test]
    fn db_rejects_duplicate_ids() {
        let domain = region(&[0.0, 0.0], &[10.0, 10.0]);
        let a = UncertainObject::uniform(1, region(&[1.0, 1.0], &[2.0, 2.0]), 8);
        let b = UncertainObject::uniform(1, region(&[3.0, 3.0], &[4.0, 4.0]), 8);
        let result = std::panic::catch_unwind(|| {
            UncertainDb::new(domain.clone(), vec![a.clone(), b.clone()]);
        });
        assert!(result.is_err());
    }

    #[test]
    fn db_lookup() {
        let domain = region(&[0.0, 0.0], &[10.0, 10.0]);
        let a = UncertainObject::uniform(5, region(&[1.0, 1.0], &[2.0, 2.0]), 8);
        let db = UncertainDb::new(domain, vec![a.clone()]);
        assert_eq!(db.get(5), Some(&a));
        assert_eq!(db.get(6), None);
        assert_eq!(db.len(), 1);
        assert_eq!(db.dim(), 2);
    }
}
