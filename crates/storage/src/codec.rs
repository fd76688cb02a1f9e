//! Little-endian record encoding helpers.
//!
//! All on-page records in the workspace (octree leaf entries, hash-table
//! values, secondary-index payloads) are encoded with these helpers so that
//! page space accounting is exact and platform-independent.

#![deny(
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss
)]

/// Error produced when decoding an on-page record fails.
///
/// Records written by this workspace always decode cleanly; these errors
/// surface page corruption (or version skew) to the caller instead of
/// panicking inside the codec layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the record was complete.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// A discriminant field held a value no known record version writes.
    UnknownTag {
        /// What was being decoded (e.g. `"secondary record"`).
        context: &'static str,
        /// The offending tag value.
        tag: u16,
    },
    /// A file/blob did not start with the expected magic bytes — it is not
    /// the kind of artifact the caller tried to open.
    BadMagic {
        /// What was being opened (e.g. `"PV-index snapshot"`).
        context: &'static str,
    },
    /// The artifact's format version is newer than this build understands.
    UnsupportedVersion {
        /// What was being opened.
        context: &'static str,
        /// Version found in the file.
        found: u16,
        /// Highest version this build can decode.
        supported: u16,
    },
    /// The artifact's checksum did not match its contents (bit rot, a torn
    /// write, or deliberate tampering).
    ChecksumMismatch {
        /// What was being verified.
        context: &'static str,
    },
    /// A structural field held a value no writer produces (a zero
    /// dimensionality, an absurd directory size, a dangling reference, …).
    Invalid {
        /// The field that was implausible (e.g. `"octree snapshot child index"`).
        context: &'static str,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated { needed, remaining } => write!(
                f,
                "record truncated: needed {needed} more bytes, {remaining} remaining"
            ),
            DecodeError::UnknownTag { context, tag } => {
                write!(f, "unknown {context} tag {tag}")
            }
            DecodeError::BadMagic { context } => {
                write!(f, "not a {context}: bad magic bytes")
            }
            DecodeError::UnsupportedVersion {
                context,
                found,
                supported,
            } => write!(
                f,
                "{context} version {found} is newer than supported version {supported}"
            ),
            DecodeError::ChecksumMismatch { context } => {
                write!(f, "{context} checksum mismatch: content is corrupted")
            }
            DecodeError::Invalid { context } => {
                write!(f, "implausible {context}: no known writer produces it")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Serialises a `u8`.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Serialises a `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Serialises a `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Serialises a `u16`.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Serialises an `f64`.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Serialises a `usize` count as a `u32` on-page prefix, checked.
///
/// # Panics
/// If `v` exceeds `u32::MAX`. A count that large means the caller's record
/// layout is already broken — truncating it silently (what a bare `as u32`
/// would do) corrupts the page in a way only decode-time checksums might
/// catch, so the encoder fails loudly instead.
#[expect(
    clippy::expect_used,
    reason = "documented encode-boundary panic: a count past the u32 prefix is a caller bug"
)]
pub fn put_u32_len(out: &mut Vec<u8>, v: usize) {
    let v = u32::try_from(v).expect("count exceeds the u32 on-page prefix");
    out.extend_from_slice(&v.to_le_bytes());
}

/// Serialises a `usize` count as a `u16` on-page prefix, checked.
///
/// # Panics
/// If `v` exceeds `u16::MAX` — same rationale as [`put_u32_len`].
#[expect(
    clippy::expect_used,
    reason = "documented encode-boundary panic: a count past the u16 prefix is a caller bug"
)]
pub fn put_u16_len(out: &mut Vec<u8>, v: usize) {
    let v = u16::try_from(v).expect("count exceeds the u16 on-page prefix");
    out.extend_from_slice(&v.to_le_bytes());
}

/// Serialises a length-prefixed byte string (u32 length).
pub fn put_bytes(out: &mut Vec<u8>, v: &[u8]) {
    put_u32_len(out, v.len());
    out.extend_from_slice(v);
}

/// Cursor-style decoder over a byte slice. Every read is checked: running
/// out of bytes is a [`DecodeError::Truncated`] that leaves the cursor
/// where it was.
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl std::fmt::Debug for Reader<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reader")
            .field("remaining", &self.buf.len())
            .finish()
    }
}

impl<'a> Reader<'a> {
    /// Wraps a slice for decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// The error for a read of `needed` bytes past what remains.
    fn truncated(&self, needed: usize) -> DecodeError {
        DecodeError::Truncated {
            needed,
            remaining: self.buf.len(),
        }
    }

    /// Consumes and returns the next `n` bytes, or reports truncation.
    fn try_split(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let (head, rest) = self
            .buf
            .split_at_checked(n)
            .ok_or_else(|| self.truncated(n))?;
        self.buf = rest;
        Ok(head)
    }

    /// Consumes the next `N` bytes as an array, or reports truncation.
    fn try_chunk<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let (head, rest) = self
            .buf
            .split_first_chunk::<N>()
            .ok_or_else(|| self.truncated(N))?;
        self.buf = rest;
        Ok(*head)
    }

    /// Reads a `u8`, or reports truncation.
    pub fn try_u8(&mut self) -> Result<u8, DecodeError> {
        self.try_chunk().map(u8::from_le_bytes)
    }

    /// Reads a `u64`, or reports truncation.
    pub fn try_u64(&mut self) -> Result<u64, DecodeError> {
        self.try_chunk().map(u64::from_le_bytes)
    }

    /// Reads a `u32`, or reports truncation.
    pub fn try_u32(&mut self) -> Result<u32, DecodeError> {
        self.try_chunk().map(u32::from_le_bytes)
    }

    /// Reads a `u16`, or reports truncation.
    pub fn try_u16(&mut self) -> Result<u16, DecodeError> {
        self.try_chunk().map(u16::from_le_bytes)
    }

    /// Reads a `u64` count or size as a `usize`, or reports truncation. A
    /// value this platform cannot address is [`DecodeError::Invalid`], with
    /// `context` naming the field.
    pub fn try_usize(&mut self, context: &'static str) -> Result<usize, DecodeError> {
        usize::try_from(self.try_u64()?).map_err(|_| DecodeError::Invalid { context })
    }

    /// Reads an `f64`, or reports truncation.
    pub fn try_f64(&mut self) -> Result<f64, DecodeError> {
        self.try_chunk().map(f64::from_le_bytes)
    }

    /// Takes exactly `n` raw bytes, or reports truncation.
    pub fn try_take(&mut self, n: usize) -> Result<Vec<u8>, DecodeError> {
        Ok(self.try_split(n)?.to_vec())
    }

    /// Borrows the next `n` raw bytes without copying, or reports
    /// truncation. Used by zero-copy record views on the query hot path.
    pub fn try_borrow(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        self.try_split(n)
    }

    /// Reads a length-prefixed byte string (the counterpart of
    /// [`put_bytes`]), or reports truncation.
    pub fn try_bytes(&mut self) -> Result<Vec<u8>, DecodeError> {
        let n = self.try_u32()? as usize;
        self.try_take(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        let mut out = Vec::new();
        put_u64(&mut out, 0xDEAD_BEEF_CAFE_F00D);
        put_u32(&mut out, 77);
        put_u16(&mut out, 513);
        put_f64(&mut out, -1234.5);
        put_u8(&mut out, 9);
        let mut r = Reader::new(&out);
        assert_eq!(r.try_u64(), Ok(0xDEAD_BEEF_CAFE_F00D));
        assert_eq!(r.try_u32(), Ok(77));
        assert_eq!(r.try_u16(), Ok(513));
        assert_eq!(r.try_f64(), Ok(-1234.5));
        assert_eq!(r.try_u8(), Ok(9));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn roundtrip_composites() {
        let mut out = Vec::new();
        put_bytes(&mut out, b"hello pages");
        put_u16_len(&mut out, 3);
        put_u32_len(&mut out, 70_000);
        out.extend_from_slice(b"raw");
        let mut r = Reader::new(&out);
        assert_eq!(r.try_bytes().as_deref(), Ok(&b"hello pages"[..]));
        assert_eq!(r.try_u16(), Ok(3));
        assert_eq!(r.try_u32(), Ok(70_000));
        assert_eq!(r.try_borrow(3), Ok(&b"raw"[..]));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn try_readers_report_truncation() {
        let mut out = Vec::new();
        put_u32(&mut out, 7);
        let mut r = Reader::new(&out);
        assert_eq!(r.try_u32(), Ok(7));
        assert_eq!(
            r.try_u64(),
            Err(DecodeError::Truncated {
                needed: 8,
                remaining: 0
            })
        );
        let mut r = Reader::new(&out[..2]);
        assert_eq!(
            r.try_u32(),
            Err(DecodeError::Truncated {
                needed: 4,
                remaining: 2
            })
        );
        // a failed try leaves the cursor untouched
        assert_eq!(r.remaining(), 2);
        assert_eq!(r.try_u16(), Ok(7));
    }

    #[test]
    fn decode_error_displays() {
        let e = DecodeError::UnknownTag {
            context: "secondary record",
            tag: 9,
        };
        assert_eq!(e.to_string(), "unknown secondary record tag 9");
        let t = DecodeError::Truncated {
            needed: 8,
            remaining: 3,
        };
        assert!(t.to_string().contains("8"));
    }

    #[test]
    fn empty_composites() {
        let mut out = Vec::new();
        put_bytes(&mut out, b"");
        let mut r = Reader::new(&out);
        assert_eq!(r.try_bytes(), Ok(Vec::new()));
        assert_eq!(r.try_take(0), Ok(Vec::new()));
        assert_eq!(r.remaining(), 0);
    }
}
