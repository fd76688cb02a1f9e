//! Property tests for the secondary-index record codec
//! (`encode_secondary`/`decode_secondary`), with emphasis on the quantized
//! tag-`1` path (§VIII compression): dims 2–4, degenerate (zero-extent)
//! UBRs, and corruption surfacing through the codec layer.

use proptest::prelude::*;
use pv_core::index::{decode_secondary, encode_secondary};
use pv_geom::{snap_outward, HyperRect};
use pv_storage::codec::DecodeError;
use pv_uncertain::UncertainObject;

const DOMAIN_SIDE: f64 = 1_000.0;

/// A random `(dim, ubr, object)` case: `dim` in 2–4, UBR sides degenerate
/// (zero extent) with probability 1/4, object region independent of the UBR.
fn arb_case() -> impl Strategy<Value = (usize, HyperRect, UncertainObject)> {
    (
        2usize..=4,
        prop::collection::vec((0.0f64..900.0, 0.1f64..90.0, 0u8..4), 4usize),
        prop::collection::vec((0.0f64..900.0, 0.1f64..90.0), 4usize),
        1u64..1_000_000,
        1u32..64,
    )
        .prop_map(|(dim, ubr_sides, reg_sides, id, samples)| {
            let lo: Vec<f64> = ubr_sides[..dim].iter().map(|&(l, _, _)| l).collect();
            let hi: Vec<f64> = ubr_sides[..dim]
                .iter()
                .map(|&(l, e, flag)| {
                    if flag == 0 {
                        l // degenerate side
                    } else {
                        (l + e).min(DOMAIN_SIDE)
                    }
                })
                .collect();
            let ubr = HyperRect::new(lo, hi);
            let rlo: Vec<f64> = reg_sides[..dim].iter().map(|&(l, _)| l).collect();
            let rhi: Vec<f64> = reg_sides[..dim]
                .iter()
                .map(|&(l, e)| (l + e).min(DOMAIN_SIDE))
                .collect();
            let o = UncertainObject::uniform(id, HyperRect::new(rlo, rhi), samples);
            (dim, ubr, o)
        })
}

fn domain(dim: usize) -> HyperRect {
    HyperRect::cube(dim, 0.0, DOMAIN_SIDE)
}

/// Raw (tag-`0`) UBR corners that are inverted or NaN are `Invalid`, not a
/// panic or an inverted rectangle.
#[test]
fn raw_corners_inverted_or_nan_are_invalid() {
    let dom = domain(2);
    let o = UncertainObject::uniform(3, HyperRect::new(vec![1.0, 1.0], vec![2.0, 2.0]), 4);
    let good = encode_secondary(
        &HyperRect::new(vec![1.0, 1.0], vec![5.0, 5.0]),
        &o,
        &dom,
        None,
    );
    for lo_x in [9.0, f64::NAN] {
        let mut buf = good.clone();
        buf[2..10].copy_from_slice(&lo_x.to_le_bytes());
        assert!(
            matches!(
                decode_secondary(&buf, 2, &dom),
                Err(DecodeError::Invalid { .. })
            ),
            "lo x {lo_x}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Tag 0 (raw corners) roundtrips exactly in every dimension.
    #[test]
    fn raw_records_roundtrip((dim, ubr, o) in arb_case()) {
        let dom = domain(dim);
        let buf = encode_secondary(&ubr, &o, &dom, None);
        let (back_ubr, back_o) = decode_secondary(&buf, dim, &dom).unwrap();
        prop_assert_eq!(back_ubr, ubr);
        prop_assert_eq!(back_o, o);
    }

    /// Tag 1 (grid-quantized corners): encoding a snapped-outward UBR
    /// roundtrips exactly, the snap only enlarges, and the object payload is
    /// untouched — for dims 2–4, degenerate sides included.
    #[test]
    fn quantized_records_roundtrip(
        (dim, ubr, o) in arb_case(),
        steps in prop::sample::select(vec![16u16, 256, 4_096, 65_535]),
    ) {
        let dom = domain(dim);
        let snapped = snap_outward(&ubr, &dom, steps);
        prop_assert!(snapped.contains_rect(&ubr), "snap must only enlarge");
        let buf = encode_secondary(&snapped, &o, &dom, Some(steps));
        let (back_ubr, back_o) = decode_secondary(&buf, dim, &dom).unwrap();
        prop_assert_eq!(&back_ubr, &snapped, "snapped UBRs roundtrip exactly");
        prop_assert_eq!(back_o, o.clone());
        // re-encoding the decoded rect is stable (idempotent snap)
        let buf2 = encode_secondary(&back_ubr, &o, &dom, Some(steps));
        prop_assert_eq!(buf, buf2);
    }

    /// The quantized record is strictly smaller than the raw one (2-byte
    /// cell indices instead of 8-byte floats per corner coordinate).
    #[test]
    fn quantized_records_are_smaller((dim, ubr, o) in arb_case()) {
        let dom = domain(dim);
        let raw = encode_secondary(&ubr, &o, &dom, None);
        let snapped = snap_outward(&ubr, &dom, 65_535);
        let packed = encode_secondary(&snapped, &o, &dom, Some(65_535));
        prop_assert!(packed.len() < raw.len());
    }

    /// Corrupting the record tag or truncating the buffer yields a decode
    /// error, never a panic.
    #[test]
    fn corruption_is_an_error_not_a_panic(
        (dim, ubr, o) in arb_case(),
        cut in 1usize..16,
        tag in 2u16..60_000,
    ) {
        let dom = domain(dim);
        let buf = encode_secondary(&ubr, &o, &dom, None);

        let mut bad_tag = buf.clone();
        bad_tag[..2].copy_from_slice(&tag.to_le_bytes());
        prop_assert_eq!(
            decode_secondary(&bad_tag, dim, &dom),
            Err(DecodeError::UnknownTag { context: "secondary record", tag })
        );

        let cut = cut.min(buf.len() - 1);
        let truncated = &buf[..buf.len() - cut];
        let is_truncated_err = matches!(
            decode_secondary(truncated, dim, &dom),
            Err(DecodeError::Truncated { .. })
        );
        prop_assert!(is_truncated_err, "expected a Truncated decode error");
    }
}
