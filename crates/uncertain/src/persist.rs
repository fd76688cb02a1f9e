//! Binary dataset persistence.
//!
//! Reproducible experiments need datasets that can be generated once and
//! shared; this module serialises an [`UncertainDb`] to a compact binary
//! file (magic + version + domain + length-prefixed object records reusing
//! [`UncertainObject::encode`]) and reads it back. This persists the raw
//! *data*; for persisting a *built index* (so a restart skips SE entirely)
//! see the snapshot support in `pv-core::snapshot`.
//!
//! ```
//! use pv_geom::HyperRect;
//! use pv_uncertain::{persist, UncertainDb, UncertainObject};
//!
//! let domain = HyperRect::cube(2, 0.0, 100.0);
//! let objects = vec![
//!     UncertainObject::uniform(1, HyperRect::new(vec![5.0, 5.0], vec![8.0, 9.0]), 32),
//!     UncertainObject::uniform(2, HyperRect::new(vec![40.0, 60.0], vec![42.0, 61.0]), 32),
//! ];
//! let db = UncertainDb::new(domain, objects);
//!
//! let bytes = persist::to_bytes(&db);
//! let back = persist::from_bytes(&bytes).unwrap();
//! assert_eq!(back.objects, db.objects);
//!
//! // Corruption is reported as an error, never a panic.
//! assert!(persist::from_bytes(&bytes[..bytes.len() / 2]).is_err());
//! ```

#![deny(
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss
)]

use crate::{UncertainDb, UncertainObject};
use pv_geom::HyperRect;
use pv_storage::codec::{self, DecodeError};
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"PVUDB\0\0\x01";

/// Serialises a database into a byte vector.
pub fn to_bytes(db: &UncertainDb) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    codec::put_u16_len(&mut out, db.dim());
    for &x in db.domain.lo() {
        codec::put_f64(&mut out, x);
    }
    for &x in db.domain.hi() {
        codec::put_f64(&mut out, x);
    }
    codec::put_u64(&mut out, db.len() as u64);
    for o in &db.objects {
        codec::put_bytes(&mut out, &o.encode());
    }
    out
}

/// Deserialises a database from bytes produced by [`to_bytes`].
///
/// # Errors
/// Returns `InvalidData` on a bad magic number, a truncated payload, a
/// corrupted object record, or objects [`UncertainDb::new`] would reject
/// (the [`codec::DecodeError`] is its source).
pub fn from_bytes(buf: &[u8]) -> io::Result<UncertainDb> {
    if buf.len() < MAGIC.len() || &buf[..MAGIC.len()] != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a PV uncertain-database file",
        ));
    }
    let body = &buf[MAGIC.len()..];
    let parse = || -> Result<UncertainDb, DecodeError> {
        let mut r = codec::Reader::new(body);
        let dim = usize::from(r.try_u16()?);
        if dim == 0 || dim > 64 {
            return Err(DecodeError::Invalid {
                context: "dataset dimensionality",
            });
        }
        let lo = (0..dim)
            .map(|_| r.try_f64())
            .collect::<Result<Vec<_>, _>>()?;
        let hi = (0..dim)
            .map(|_| r.try_f64())
            .collect::<Result<Vec<_>, _>>()?;
        if !lo.iter().zip(&hi).all(|(l, h)| l <= h) {
            return Err(DecodeError::Invalid {
                context: "dataset domain corners",
            });
        }
        let domain = HyperRect::new(lo, hi);
        let n = r.try_usize("dataset object count")?;
        let mut objects = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let len = r.try_u32()? as usize;
            objects.push(UncertainObject::try_decode(r.try_borrow(len)?)?);
        }
        if UncertainDb::rejects(&domain, &objects).is_some() {
            return Err(DecodeError::Invalid {
                context: "dataset object (outside the domain, or a repeated id)",
            });
        }
        Ok(UncertainDb::new(domain, objects))
    };
    parse().map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Writes a database to a file.
pub fn save(db: &UncertainDb, path: impl AsRef<Path>) -> io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(&to_bytes(db))?;
    f.flush()
}

/// Reads a database from a file.
pub fn load(path: impl AsRef<Path>) -> io::Result<UncertainDb> {
    let mut buf = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut buf)?;
    from_bytes(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pdf;
    use pv_geom::Point;
    use std::sync::Arc;

    fn sample_db() -> UncertainDb {
        let domain = HyperRect::cube(2, 0.0, 100.0);
        let objects = vec![
            UncertainObject::uniform(1, HyperRect::new(vec![1.0, 2.0], vec![3.0, 4.0]), 16),
            UncertainObject {
                id: 2,
                region: HyperRect::new(vec![10.0, 10.0], vec![12.0, 12.0]),
                pdf: Pdf::Gaussian {
                    sigma: 0.5,
                    n: 8,
                    seed: 9,
                },
            },
            UncertainObject {
                id: 3,
                region: HyperRect::new(vec![50.0, 50.0], vec![51.0, 51.0]),
                pdf: Pdf::Explicit(Arc::new(vec![Point::new(vec![50.5, 50.5])])),
            },
        ];
        UncertainDb::new(domain, objects)
    }

    #[test]
    fn byte_roundtrip() {
        let db = sample_db();
        let bytes = to_bytes(&db);
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back.domain, db.domain);
        assert_eq!(back.objects, db.objects);
    }

    #[test]
    fn file_roundtrip() {
        let db = sample_db();
        let path = std::env::temp_dir().join("pv_persist_test.pvdb");
        save(&db, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back.objects, db.objects);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_bytes(b"definitely not a database").is_err());
        assert!(from_bytes(b"").is_err());
    }

    #[test]
    fn rejects_truncation() {
        let db = sample_db();
        let bytes = to_bytes(&db);
        for cut in [MAGIC.len() + 1, bytes.len() / 2, bytes.len() - 3] {
            assert!(from_bytes(&bytes[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn corrupt_object_record_is_invalid_data() {
        let good = to_bytes(&sample_db());
        // The first object's record follows the file header and its u32
        // length prefix: id u64, dimensionality u16, lo and hi corners,
        // then the pdf tag u16.
        let id_at = MAGIC.len() + 2 + 2 * 2 * 8 + 8 + 4;
        let lo_x = id_at + 8 + 2;
        let tag_at = lo_x + 2 * 2 * 8;
        assert_eq!(good[tag_at..tag_at + 2], [0, 0], "uniform pdf tag");
        for (at, patch, what) in [
            (tag_at, 0xEEEEu16.to_le_bytes().to_vec(), "61166"),
            (id_at, 2u64.to_le_bytes().to_vec(), "repeated id"),
            (lo_x, (-5.0f64).to_le_bytes().to_vec(), "outside the domain"),
            (lo_x, 50.0f64.to_le_bytes().to_vec(), "region corners"),
        ] {
            let mut bytes = good.clone();
            bytes[at..at + patch.len()].copy_from_slice(&patch);
            let err = from_bytes(&bytes).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}");
            assert!(err.to_string().contains(what), "{what}: {err}");
        }
    }

    #[test]
    fn empty_db_roundtrip() {
        let db = UncertainDb::new(HyperRect::cube(3, 0.0, 10.0), vec![]);
        let back = from_bytes(&to_bytes(&db)).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.dim(), 3);
    }
}
