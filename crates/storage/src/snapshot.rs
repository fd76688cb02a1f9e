//! Versioned, checksummed container framing for on-disk snapshots.
//!
//! Every persistent artifact in the workspace (PV-index snapshots, UV-index
//! snapshots, R-tree baseline snapshots) shares one outer envelope so that
//! corruption, version skew and "wrong file" mistakes are all caught before
//! a single payload byte is interpreted:
//!
//! ```text
//! [ magic: "PVSN" | kind: 4 bytes | version: u16 | payload … | fnv1a64(everything before): u64 ]
//! ```
//!
//! * `kind` distinguishes artifact families (e.g. `b"PVIX"` for PV-index
//!   snapshots) so loading a UV-index file as a PV-index fails cleanly;
//! * `version` lets future PRs evolve payload layouts while still rejecting
//!   files from the future with a precise error;
//! * the trailing [`fnv1a64`] checksum covers the entire envelope, so any
//!   bit flip or truncation surfaces as a [`DecodeError`] instead of a
//!   panic deep inside a payload decoder.
//!
//! ```
//! use pv_storage::snapshot::{open_snapshot, SnapshotWriter};
//!
//! let mut w = SnapshotWriter::new(*b"DEMO", 1);
//! pv_storage::codec::put_u64(w.buf(), 42);
//! let bytes = w.finish();
//!
//! let (mut r, version) = open_snapshot(&bytes, *b"DEMO", "demo snapshot", 1).unwrap();
//! assert_eq!(version, 1);
//! assert_eq!(r.try_u64(), Ok(42));
//!
//! // A flipped bit is rejected, never mis-decoded.
//! let mut bad = bytes.clone();
//! bad[12] ^= 0x40;
//! assert!(open_snapshot(&bad, *b"DEMO", "demo snapshot", 1).is_err());
//! ```

#![deny(
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss
)]

use crate::codec::{self, DecodeError};

/// Leading bytes shared by every snapshot envelope.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"PVSN";

const HEADER_LEN: usize = 4 + 4 + 2; // magic + kind + version
const CHECKSUM_LEN: usize = 8;

/// 64-bit FNV-1a over a byte slice — the workspace's integrity checksum.
///
/// The single definition for the whole suite (re-exported as
/// [`crate::fnv1a64`]); the WAL, superblock, and snapshot envelopes all hash
/// through here so their checksums stay interchangeable.
///
/// Not cryptographic; it exists to catch accidental corruption (truncation,
/// bit rot, torn writes), which is the failure model of the snapshot files.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Builds a snapshot envelope: header first, payload via [`SnapshotWriter::buf`],
/// checksum appended by [`SnapshotWriter::finish`].
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl std::fmt::Debug for SnapshotWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotWriter")
            .field("bytes", &self.buf.len())
            .finish()
    }
}

impl SnapshotWriter {
    /// Starts an envelope of the given artifact `kind` and format `version`.
    pub fn new(kind: [u8; 4], version: u16) -> Self {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&SNAPSHOT_MAGIC);
        buf.extend_from_slice(&kind);
        codec::put_u16(&mut buf, version);
        Self { buf }
    }

    /// The growing payload buffer; append with the [`codec`] helpers.
    pub fn buf(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }

    /// Seals the envelope: appends the checksum and returns the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        let sum = fnv1a64(&self.buf);
        codec::put_u64(&mut self.buf, sum);
        self.buf
    }
}

/// Validates a snapshot envelope and returns a [`codec::Reader`] positioned
/// at the payload, plus the file's format version.
///
/// # Errors
/// [`DecodeError::Truncated`] if the buffer is shorter than an empty
/// envelope, [`DecodeError::BadMagic`] on wrong magic or `kind`,
/// [`DecodeError::UnsupportedVersion`] when the file is newer than
/// `supported_version`, and [`DecodeError::ChecksumMismatch`] when the
/// trailing checksum does not match the content.
pub fn open_snapshot<'a>(
    buf: &'a [u8],
    kind: [u8; 4],
    context: &'static str,
    supported_version: u16,
) -> Result<(codec::Reader<'a>, u16), DecodeError> {
    let Some((body, stored)) = buf
        .split_last_chunk::<CHECKSUM_LEN>()
        .filter(|(body, _)| body.len() >= HEADER_LEN)
    else {
        return Err(DecodeError::Truncated {
            needed: HEADER_LEN + CHECKSUM_LEN,
            remaining: buf.len(),
        });
    };
    if body[0..4] != SNAPSHOT_MAGIC || body[4..8] != kind {
        return Err(DecodeError::BadMagic { context });
    }
    if fnv1a64(body) != u64::from_le_bytes(*stored) {
        return Err(DecodeError::ChecksumMismatch { context });
    }
    let version = u16::from_le_bytes([body[8], body[9]]);
    if version == 0 || version > supported_version {
        return Err(DecodeError::UnsupportedVersion {
            context,
            found: version,
            supported: supported_version,
        });
    }
    Ok((codec::Reader::new(&body[HEADER_LEN..]), version))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo(version: u16) -> Vec<u8> {
        let mut w = SnapshotWriter::new(*b"TEST", version);
        codec::put_u32(w.buf(), 0xDEAD_BEEF);
        codec::put_bytes(w.buf(), b"payload");
        w.finish()
    }

    #[test]
    fn roundtrip() {
        let bytes = demo(3);
        let (mut r, version) = open_snapshot(&bytes, *b"TEST", "test snapshot", 3).unwrap();
        assert_eq!(version, 3);
        assert_eq!(r.try_u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.try_bytes().as_deref(), Ok(&b"payload"[..]));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn older_versions_still_open() {
        let bytes = demo(2);
        let (_, version) = open_snapshot(&bytes, *b"TEST", "test snapshot", 5).unwrap();
        assert_eq!(version, 2);
    }

    #[test]
    fn newer_versions_are_rejected() {
        let bytes = demo(7);
        let err = open_snapshot(&bytes, *b"TEST", "test snapshot", 3)
            .map(|_| ())
            .unwrap_err();
        assert_eq!(
            err,
            DecodeError::UnsupportedVersion {
                context: "test snapshot",
                found: 7,
                supported: 3,
            }
        );
    }

    #[test]
    fn wrong_kind_is_bad_magic() {
        let bytes = demo(1);
        assert!(matches!(
            open_snapshot(&bytes, *b"ELSE", "test snapshot", 1),
            Err(DecodeError::BadMagic { .. })
        ));
        let mut garbled = bytes.clone();
        garbled[0] = b'X';
        assert!(matches!(
            open_snapshot(&garbled, *b"TEST", "test snapshot", 1),
            Err(DecodeError::BadMagic { .. })
        ));
    }

    #[test]
    fn every_single_bit_flip_is_caught() {
        let bytes = demo(1);
        for byte in 10..bytes.len() {
            for bit in 0..8u8 {
                let mut bad = bytes.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    open_snapshot(&bad, *b"TEST", "test snapshot", 1).is_err(),
                    "flip at byte {byte} bit {bit} went unnoticed"
                );
            }
        }
    }

    #[test]
    fn truncation_is_caught() {
        let bytes = demo(1);
        for cut in 0..bytes.len() {
            assert!(
                open_snapshot(&bytes[..cut], *b"TEST", "test snapshot", 1).is_err(),
                "cut at {cut} went unnoticed"
            );
        }
    }

    #[test]
    fn fnv_is_stable() {
        // The checksum is part of the on-disk format: pin its value.
        assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xAF63_DC4C_8601_EC8C);
    }
}
