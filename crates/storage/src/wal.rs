//! A length-prefixed, checksummed write-ahead commit log.
//!
//! The WAL makes `Db` commits durable: before a successor snapshot is
//! published, the batch of operations that produced it goes through
//! [`Wal::commit`] — appended and fsynced, or rolled back. After a crash,
//! recovery loads the last rotated snapshot and replays the log's
//! surviving suffix — see `pv-core`'s `DurableDb` for the commit/recovery
//! protocol and ARCHITECTURE.md §3d for the on-disk format rationale.
//!
//! # On-disk format
//!
//! ```text
//! file   := "PVWL" version:u16 record*
//! record := header body body_fnv:u64
//! header := body_len:u32 kind:u8 pad:[0u8;3] version:u64 header_fnv:u64
//! ```
//!
//! All integers little-endian ([`crate::codec`]); both checksums are
//! [`fnv1a64`]. `header_fnv` covers the 16 bytes
//! before it, `body_fnv` covers the body. `kind` is 1 for a commit record
//! (body = the engine-level operation batch, opaque to this layer) or 2 for
//! an **fsync-point marker** (empty body, version = the commit version the
//! following `fsync` made durable).
//!
//! # Torn tail vs. corruption
//!
//! Appends are strictly sequential, so a crash mid-append always leaves a
//! *prefix* of the record at end-of-file — never valid bytes after garbage.
//! Replay exploits that to classify damage:
//!
//! | observation at offset `o`                         | verdict    |
//! |---------------------------------------------------|------------|
//! | 0 bytes remain                                    | clean end  |
//! | < 24 bytes remain (incomplete header)             | torn tail  |
//! | header checksum valid, body extends past EOF      | torn tail  |
//! | header checksum/kind/pad invalid                  | corruption |
//! | full record present, body checksum mismatch       | corruption |
//! | commit version not strictly increasing            | corruption |
//!
//! A torn tail is the expected signature of a crash: replay truncates it
//! away and reports how much was dropped. Corruption *before* intact
//! records means the log was damaged at rest (bit rot, tampering) — that is
//! never silently skipped; [`WalError::Corrupt`] reports the offset and the
//! last version that survives.

use crate::codec::{self, DecodeError};
use crate::fnv1a64;
use crate::fsio::{Fs, RetryPolicy};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic bytes opening every WAL file.
pub const WAL_MAGIC: [u8; 4] = *b"PVWL";
/// Current WAL format version.
pub const WAL_VERSION: u16 = 1;
/// File-header length: magic + format version.
pub const WAL_HEADER_LEN: u64 = 6;
/// Record-header length: body_len + kind + pad + version + header checksum.
const REC_HEADER_LEN: usize = 24;
/// Trailing body-checksum length.
const REC_TRAILER_LEN: usize = 8;
/// Upper bound on a single record body, enforced both at
/// [`Wal::append_commit`] (typed [`WalError::TooLarge`]) and at replay
/// (anything larger on disk is corruption — the whole object catalog of
/// the largest preset encodes far below this).
pub const MAX_BODY_LEN: u32 = 1 << 30;

const KIND_COMMIT: u8 = 1;
const KIND_SYNC_MARKER: u8 = 2;

/// A write-ahead-log failure.
#[derive(Debug)]
#[non_exhaustive]
pub enum WalError {
    /// The underlying file operation failed.
    Io(io::Error),
    /// The file is not a WAL at all (bad magic, unsupported format
    /// version, or shorter than the file header).
    NotALog(DecodeError),
    /// The log is damaged *before* its tail: an intact-length record failed
    /// its checksum, a header is structurally invalid, or versions regress.
    /// Unlike a torn tail this is never repaired automatically.
    Corrupt {
        /// Byte offset of the damaged record.
        offset: u64,
        /// Last commit version that replays intact (0 when none does).
        last_durable_version: u64,
        /// What exactly failed to decode.
        source: DecodeError,
    },
    /// A commit body handed to [`Wal::append_commit`] exceeds
    /// [`MAX_BODY_LEN`]. Appending it would produce a log the next replay
    /// rejects as corrupt (and past `u32::MAX` a wrapped length prefix),
    /// so it is refused before a byte is written.
    TooLarge {
        /// The offending body length.
        len: usize,
        /// The format's per-record limit ([`MAX_BODY_LEN`]).
        max: u32,
    },
    /// An earlier [`Wal::commit`] failed and could not be rolled back, so
    /// the file may hold bytes the log's bookkeeping does not know about.
    /// The log refuses every further commit; reopen it to recover.
    Poisoned,
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "WAL I/O failed: {e}"),
            WalError::NotALog(e) => write!(f, "not a WAL file: {e}"),
            WalError::Corrupt {
                offset,
                last_durable_version,
                ..
            } => write!(
                f,
                "WAL corrupt at byte {offset}; last durable version is {last_durable_version}"
            ),
            WalError::TooLarge { len, max } => write!(
                f,
                "WAL record body of {len} bytes exceeds the {max}-byte format limit"
            ),
            WalError::Poisoned => write!(
                f,
                "WAL poisoned by a commit that could not be rolled back; reopen it"
            ),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
            WalError::NotALog(e) => Some(e),
            WalError::Corrupt { source, .. } => Some(source),
            WalError::TooLarge { .. } | WalError::Poisoned => None,
        }
    }
}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

/// One surviving commit record, yielded by replay in log order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// The commit version this record produced.
    pub version: u64,
    /// The engine-level operation batch (opaque to the WAL).
    pub body: Vec<u8>,
}

/// A crash signature found (and repaired) at the end of the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TornTail {
    /// Offset the incomplete record started at (the log's new length).
    pub offset: u64,
    /// Bytes of incomplete record dropped by the repair truncation.
    pub dropped: u64,
}

/// Everything replay learned from an existing log.
#[derive(Debug)]
pub struct WalReplay {
    /// Surviving commit records in append order.
    pub records: Vec<WalRecord>,
    /// A torn tail, if one was found and truncated away.
    pub torn_tail: Option<TornTail>,
    /// Highest version covered by an fsync-point marker (0 when the log
    /// has none): commits at or below this were acknowledged *and* synced.
    pub synced_version: u64,
}

/// A restore point captured by [`Wal::mark`] before a speculative append,
/// consumed by [`Wal::rollback_to`].
#[derive(Debug, Clone, Copy)]
struct WalMark {
    len: u64,
    commits: u64,
    last_version: u64,
}

/// An append-only commit log over an injectable [`Fs`].
///
/// One `Wal` instance is owned by the single writer; it tracks the file's
/// logical length so a failed append can be rolled back by truncation
/// (leaving no partial record for the next replay to trip over while the
/// process is still alive).
#[derive(Debug)]
pub struct Wal {
    fs: Arc<dyn Fs>,
    path: PathBuf,
    retry: RetryPolicy,
    /// Logical end of the log: every byte below this is a whole record.
    len: u64,
    /// Commit records appended since creation or the last [`Wal::reset`].
    commits: u64,
    /// Version of the newest commit record in the log (0 when none).
    last_version: u64,
    /// Set when a failed [`Wal::commit`] could not be rolled back.
    poisoned: bool,
}

fn encode_record(kind: u8, version: u64, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(REC_HEADER_LEN + body.len() + REC_TRAILER_LEN);
    codec::put_u32(&mut out, body.len() as u32);
    codec::put_u8(&mut out, kind);
    out.extend_from_slice(&[0, 0, 0]);
    codec::put_u64(&mut out, version);
    let h = fnv1a64(&out[..16]);
    codec::put_u64(&mut out, h);
    out.extend_from_slice(body);
    codec::put_u64(&mut out, fnv1a64(body));
    out
}

impl Wal {
    /// Creates a fresh, empty log at `path` (replacing any existing file)
    /// and makes its header durable.
    pub fn create(fs: Arc<dyn Fs>, path: &Path, retry: RetryPolicy) -> Result<Self, WalError> {
        let mut header = Vec::with_capacity(WAL_HEADER_LEN as usize);
        header.extend_from_slice(&WAL_MAGIC);
        codec::put_u16(&mut header, WAL_VERSION);
        fs.write(path, &header)?;
        fs.sync(path)?;
        if let Some(dir) = path.parent() {
            fs.sync_dir(dir)?;
        }
        Ok(Self {
            fs,
            path: path.to_path_buf(),
            retry,
            len: WAL_HEADER_LEN,
            commits: 0,
            last_version: 0,
            poisoned: false,
        })
    }

    /// Opens an existing log, classifying any damage per the
    /// [module docs](self): a torn tail is truncated away and reported in
    /// the replay, mid-log corruption fails with [`WalError::Corrupt`].
    pub fn open(
        fs: Arc<dyn Fs>,
        path: &Path,
        retry: RetryPolicy,
    ) -> Result<(Self, WalReplay), WalError> {
        let data = fs.read(path)?;
        if data.len() < WAL_HEADER_LEN as usize {
            return Err(WalError::NotALog(DecodeError::Truncated {
                needed: WAL_HEADER_LEN as usize,
                remaining: data.len(),
            }));
        }
        if data[..4] != WAL_MAGIC {
            return Err(WalError::NotALog(DecodeError::BadMagic {
                context: "write-ahead log",
            }));
        }
        let format = u16::from_le_bytes([data[4], data[5]]);
        if format > WAL_VERSION {
            return Err(WalError::NotALog(DecodeError::UnsupportedVersion {
                context: "write-ahead log",
                found: format,
                supported: WAL_VERSION,
            }));
        }

        let mut records = Vec::new();
        let mut synced_version = 0u64;
        let mut last_version = 0u64;
        let mut o = WAL_HEADER_LEN as usize;
        let mut torn_tail = None;
        let corrupt = |o: usize, last: u64, source: DecodeError| WalError::Corrupt {
            offset: o as u64,
            last_durable_version: last,
            source,
        };
        while o < data.len() {
            let rem = data.len() - o;
            // An incomplete header is a torn tail.
            let Some((covered, stored_h)) = data[o..]
                .split_first_chunk::<16>()
                .and_then(|(covered, r)| Some((covered, r.first_chunk::<8>()?)))
            else {
                torn_tail = Some((o, rem));
                break;
            };
            if fnv1a64(covered) != u64::from_le_bytes(*stored_h) {
                return Err(corrupt(
                    o,
                    last_version,
                    DecodeError::ChecksumMismatch {
                        context: "WAL record header",
                    },
                ));
            }
            let [l0, l1, l2, l3, kind, p0, p1, p2, version @ ..] = *covered;
            let body_len = u32::from_le_bytes([l0, l1, l2, l3]);
            if [p0, p1, p2] != [0, 0, 0] {
                return Err(corrupt(
                    o,
                    last_version,
                    DecodeError::Invalid {
                        context: "WAL record header padding",
                    },
                ));
            }
            if body_len > MAX_BODY_LEN {
                return Err(corrupt(
                    o,
                    last_version,
                    DecodeError::Invalid {
                        context: "WAL record body length",
                    },
                ));
            }
            let version = u64::from_le_bytes(version);
            let need = REC_HEADER_LEN + body_len as usize + REC_TRAILER_LEN;
            let Some((body, stored_b)) = data[o + REC_HEADER_LEN..]
                .split_at_checked(body_len as usize)
                .and_then(|(body, r)| Some((body, r.first_chunk::<REC_TRAILER_LEN>()?)))
            else {
                // Valid header, incomplete body: the record was being
                // appended when the crash hit.
                torn_tail = Some((o, rem));
                break;
            };
            if fnv1a64(body) != u64::from_le_bytes(*stored_b) {
                return Err(corrupt(
                    o,
                    last_version,
                    DecodeError::ChecksumMismatch {
                        context: "WAL record body",
                    },
                ));
            }
            match kind {
                KIND_COMMIT => {
                    if version <= last_version {
                        return Err(corrupt(
                            o,
                            last_version,
                            DecodeError::Invalid {
                                context: "WAL commit version (not strictly increasing)",
                            },
                        ));
                    }
                    last_version = version;
                    records.push(WalRecord {
                        version,
                        body: body.to_vec(),
                    });
                }
                KIND_SYNC_MARKER => {
                    if body_len != 0 || version < synced_version {
                        return Err(corrupt(
                            o,
                            last_version,
                            DecodeError::Invalid {
                                context: "WAL sync marker",
                            },
                        ));
                    }
                    synced_version = version;
                }
                t => {
                    return Err(corrupt(
                        o,
                        last_version,
                        DecodeError::UnknownTag {
                            context: "WAL record kind",
                            tag: t.into(),
                        },
                    ))
                }
            }
            o += need;
        }

        let torn_tail = match torn_tail {
            Some((at, dropped)) => {
                fs.truncate(path, at as u64)?;
                fs.sync(path)?;
                Some(TornTail {
                    offset: at as u64,
                    dropped: dropped as u64,
                })
            }
            None => None,
        };
        let len = torn_tail.map_or(data.len() as u64, |t| t.offset);
        Ok((
            Self {
                fs,
                path: path.to_path_buf(),
                retry,
                len,
                commits: records.len() as u64,
                last_version,
                poisoned: false,
            },
            WalReplay {
                records,
                torn_tail,
                synced_version,
            },
        ))
    }

    /// Commits one record under the acknowledged⟺logged protocol: appends
    /// it, then [`sync`](Wal::sync)s, so `Ok` means the record survives any
    /// crash. `version` must exceed every version already in the log.
    ///
    /// On failure the log is rolled back to its state before the call —
    /// durably, so no replay can apply the failed record and the next
    /// commit may reuse `version` — and the file's length is checked
    /// against the log's bookkeeping. If either step fails, bytes the caller
    /// was told did not commit may still be on disk: the log is poisoned
    /// and refuses every later commit with [`WalError::Poisoned`] (reopen
    /// to recover).
    pub fn commit(&mut self, version: u64, body: &[u8]) -> Result<(), WalError> {
        if self.poisoned {
            return Err(WalError::Poisoned);
        }
        let mark = self.mark();
        let Err(e) = self.append_commit(version, body).and_then(|()| self.sync()) else {
            return Ok(());
        };
        // The record reached the log and a later step (the fsync-marker
        // append or the fsync itself) failed: undo it durably.
        let rolled_back = self.last_version != version || self.rollback_to(mark).is_ok();
        // A failed append truncates its partial bytes away internally;
        // check that every rollback reached the disk.
        let (fs, path) = (&self.fs, &self.path);
        if !rolled_back || self.retry.run(|| fs.len(path)).ok() != Some(self.len) {
            self.poisoned = true;
        }
        Err(e)
    }

    /// True when a failed [`Wal::commit`] could not be rolled back; the log
    /// then refuses every further commit.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Appends one commit record without syncing it — [`Wal::commit`] is
    /// the acknowledged⟺logged path. `version` must exceed every version
    /// already in the log. On failure the partial append is truncated away
    /// before returning (best effort), so the in-memory and on-disk states
    /// agree.
    pub fn append_commit(&mut self, version: u64, body: &[u8]) -> Result<(), WalError> {
        assert!(
            version > self.last_version,
            "WAL versions must be strictly increasing: {} after {}",
            version,
            self.last_version
        );
        if body.len() > MAX_BODY_LEN as usize {
            return Err(WalError::TooLarge {
                len: body.len(),
                max: MAX_BODY_LEN,
            });
        }
        self.append_record(&encode_record(KIND_COMMIT, version, body))?;
        self.last_version = version;
        self.commits += 1;
        Ok(())
    }

    /// Appends an fsync-point marker for everything in the log and forces
    /// it all to stable storage. After `Ok`, every commit appended so far
    /// is durable.
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.append_record(&encode_record(KIND_SYNC_MARKER, self.last_version, &[]))?;
        let fs = &self.fs;
        let path = &self.path;
        self.retry.run(|| fs.sync(path))?;
        Ok(())
    }

    /// One retried, self-repairing append: each attempt first restores the
    /// file to the last known-good length (dropping any partial bytes a
    /// previous attempt left), then appends the whole record.
    fn append_record(&mut self, record: &[u8]) -> Result<(), WalError> {
        let fs = &self.fs;
        let path = &self.path;
        let good = self.len;
        let result = self.retry.run(|| {
            let cur = fs.len(path)?;
            if cur != good {
                fs.truncate(path, good)?;
            }
            fs.append(path, record)?;
            Ok(())
        });
        match result {
            Ok(()) => {
                self.len += record.len() as u64;
                Ok(())
            }
            Err(e) => {
                // Best-effort rollback of a partial write. If this fails
                // too, the torn bytes stay until the next append attempt
                // (which re-truncates to `good` first) or until replay
                // repairs the tail after a crash.
                if let Ok(cur) = fs.len(path) {
                    if cur != good {
                        let _ = fs.truncate(path, good);
                    }
                }
                Err(WalError::Io(e))
            }
        }
    }

    /// Captures the log's current logical state as a restore point for
    /// [`Wal::rollback_to`].
    fn mark(&self) -> WalMark {
        WalMark {
            len: self.len,
            commits: self.commits,
            last_version: self.last_version,
        }
    }

    /// Rolls the log back to `mark`, discarding every record appended
    /// after it and making the truncation durable — the undo path for a
    /// commit whose fsync (or fsync-marker append) failed after its record
    /// was already fully appended. After `Ok`, no replay can ever see the
    /// discarded records and the version bookkeeping is back at the mark,
    /// so the next commit may reuse the rolled-back version. On `Err` the
    /// discarded bytes may still reach a future replay, which is why
    /// [`Wal::commit`] then poisons the log.
    fn rollback_to(&mut self, mark: WalMark) -> Result<(), WalError> {
        debug_assert!(mark.len <= self.len, "a mark never points past the log");
        let fs = &self.fs;
        let path = &self.path;
        self.retry.run(|| {
            if fs.len(path)? != mark.len {
                fs.truncate(path, mark.len)?;
            }
            // The fsync is what makes the rollback stick: without it a
            // crash could resurrect a complete-on-disk record whose
            // commit was acknowledged as failed.
            fs.sync(path)
        })?;
        self.len = mark.len;
        self.commits = mark.commits;
        self.last_version = mark.last_version;
        Ok(())
    }

    /// Empties the log back to its file header (called after a snapshot
    /// rotation made everything in it redundant). Version bookkeeping is
    /// kept: future appends must still exceed the pre-reset versions.
    pub fn reset(&mut self) -> Result<(), WalError> {
        self.fs.truncate(&self.path, WAL_HEADER_LEN)?;
        self.fs.sync(&self.path)?;
        self.len = WAL_HEADER_LEN;
        self.commits = 0;
        Ok(())
    }

    /// Current log length in bytes (file header included).
    pub fn bytes(&self) -> u64 {
        self.len
    }

    /// Commit records appended since creation or the last reset.
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// Version of the newest commit record (0 when the log is empty).
    pub fn last_version(&self) -> u64 {
        self.last_version
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultFs, FaultKind, FaultPlan, ScheduledFault};
    use crate::fsio::StdFs;

    fn tmp(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("pv_wal_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d.join("wal")
    }

    fn fs() -> Arc<dyn Fs> {
        Arc::new(StdFs)
    }

    #[test]
    fn roundtrip_and_sync_markers() {
        let path = tmp("rt");
        let mut wal = Wal::create(fs(), &path, RetryPolicy::none()).unwrap();
        wal.append_commit(1, b"first").unwrap();
        wal.append_commit(2, b"second").unwrap();
        wal.sync().unwrap();
        wal.append_commit(3, b"third (unsynced)").unwrap();
        assert_eq!(wal.commits(), 3);

        let (reopened, replay) = Wal::open(fs(), &path, RetryPolicy::none()).unwrap();
        assert_eq!(replay.records.len(), 3);
        assert_eq!(replay.records[0].body, b"first");
        assert_eq!(replay.records[2].version, 3);
        assert_eq!(replay.synced_version, 2, "marker covers versions 1-2");
        assert!(replay.torn_tail.is_none());
        assert_eq!(reopened.last_version(), 3);
    }

    #[test]
    fn torn_tail_is_truncated_and_reported() {
        let path = tmp("torn");
        let mut wal = Wal::create(fs(), &path, RetryPolicy::none()).unwrap();
        wal.append_commit(1, b"kept").unwrap();
        wal.sync().unwrap();
        let good = wal.bytes();
        wal.append_commit(2, b"this record will be cut mid-body")
            .unwrap();
        // Crash simulation: keep the valid header plus part of the body.
        StdFs.truncate(&path, good + 30).unwrap();

        let (reopened, replay) = Wal::open(fs(), &path, RetryPolicy::none()).unwrap();
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.records[0].version, 1);
        let tail = replay.torn_tail.expect("tail must be reported");
        assert_eq!(tail.offset, good);
        assert_eq!(tail.dropped, 30);
        assert_eq!(reopened.bytes(), good, "tail truncated away");
        // And the repaired log replays cleanly.
        let (_, replay2) = Wal::open(fs(), &path, RetryPolicy::none()).unwrap();
        assert!(replay2.torn_tail.is_none());
        assert_eq!(replay2.records.len(), 1);
    }

    #[test]
    fn mid_log_bit_flip_is_corruption_not_torn_tail() {
        let path = tmp("flip");
        let mut wal = Wal::create(fs(), &path, RetryPolicy::none()).unwrap();
        wal.append_commit(1, b"aaaa").unwrap();
        let second_at = wal.bytes();
        wal.append_commit(2, b"bbbb").unwrap();
        wal.append_commit(3, b"cccc").unwrap();
        // Flip one bit inside record 2's body.
        let mut data = std::fs::read(&path).unwrap();
        let idx = second_at as usize + REC_HEADER_LEN + 1;
        data[idx] ^= 0x10;
        std::fs::write(&path, &data).unwrap();

        match Wal::open(fs(), &path, RetryPolicy::none()) {
            Err(WalError::Corrupt {
                offset,
                last_durable_version,
                source: DecodeError::ChecksumMismatch { .. },
            }) => {
                assert_eq!(offset, second_at);
                assert_eq!(last_durable_version, 1);
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn non_wal_files_are_rejected() {
        let path = tmp("notalog");
        StdFs.write(&path, b"PVIXsomething else").unwrap();
        assert!(matches!(
            Wal::open(fs(), &path, RetryPolicy::none()),
            Err(WalError::NotALog(DecodeError::BadMagic { .. }))
        ));
        StdFs.write(&path, b"PV").unwrap();
        assert!(matches!(
            Wal::open(fs(), &path, RetryPolicy::none()),
            Err(WalError::NotALog(DecodeError::Truncated { .. }))
        ));
    }

    #[test]
    fn reset_empties_but_keeps_version_floor() {
        let path = tmp("reset");
        let mut wal = Wal::create(fs(), &path, RetryPolicy::none()).unwrap();
        wal.append_commit(1, b"x").unwrap();
        wal.append_commit(2, b"y").unwrap();
        wal.reset().unwrap();
        assert_eq!(wal.bytes(), WAL_HEADER_LEN);
        assert_eq!(wal.commits(), 0);
        wal.append_commit(3, b"z").unwrap();
        let (_, replay) = Wal::open(fs(), &path, RetryPolicy::none()).unwrap();
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.records[0].version, 3);
    }

    #[test]
    fn oversized_bodies_are_refused_at_append_time() {
        let path = tmp("toolarge");
        let mut wal = Wal::create(fs(), &path, RetryPolicy::none()).unwrap();
        let before = wal.bytes();
        // Zeroed and never touched: the length check fires before any
        // encoding, so the lazy allocation stays cheap.
        let body = vec![0u8; MAX_BODY_LEN as usize + 1];
        match wal.append_commit(1, &body) {
            Err(WalError::TooLarge { len, max }) => {
                assert_eq!(len, MAX_BODY_LEN as usize + 1);
                assert_eq!(max, MAX_BODY_LEN);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
        assert_eq!(wal.bytes(), before, "nothing was appended");
        assert_eq!(wal.last_version(), 0);
        // The log still works for sane bodies.
        wal.append_commit(1, b"fine").unwrap();
        let (_, replay) = Wal::open(fs(), &path, RetryPolicy::none()).unwrap();
        assert_eq!(replay.records.len(), 1);
    }

    #[test]
    fn rollback_to_discards_appended_records_durably() {
        let path = tmp("rollback");
        let mut wal = Wal::create(fs(), &path, RetryPolicy::none()).unwrap();
        wal.append_commit(1, b"kept").unwrap();
        wal.sync().unwrap();
        let mark = wal.mark();
        let before = wal.bytes();
        wal.append_commit(2, b"speculative").unwrap();
        assert!(wal.bytes() > before);

        wal.rollback_to(mark).unwrap();
        assert_eq!(wal.bytes(), before);
        assert_eq!(wal.last_version(), 1);
        assert_eq!(wal.commits(), 1);
        assert_eq!(StdFs.len(&path).unwrap(), before, "truncated on disk");

        // The rolled-back version is reusable, and replay never sees the
        // discarded record.
        wal.append_commit(2, b"retried").unwrap();
        let (_, replay) = Wal::open(fs(), &path, RetryPolicy::none()).unwrap();
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.records[1].body, b"retried");
        assert!(replay.torn_tail.is_none());
    }

    /// A log over a [`FaultFs`] with one commit (version 1) already in it.
    fn faulty_log(tag: &str) -> (PathBuf, Arc<FaultFs<StdFs>>, Wal) {
        let path = tmp(tag);
        let faults = Arc::new(FaultFs::new(StdFs, FaultPlan::none()));
        let mut wal = Wal::create(
            Arc::clone(&faults) as Arc<dyn Fs>,
            &path,
            RetryPolicy::none(),
        )
        .unwrap();
        wal.commit(1, b"kept").unwrap();
        (path, faults, wal)
    }

    #[test]
    fn commit_rolls_a_failed_fsync_back() {
        let (path, faults, mut wal) = faulty_log("commit_fsync");
        let before = StdFs.len(&path).unwrap();
        // A commit's op sequence is: len, append (commit record), len,
        // append (sync marker), sync. Fail the sync itself.
        faults.set_plan(FaultPlan::single(faults.ops() + 4, FaultKind::NoSpace));
        assert!(matches!(wal.commit(2, b"lost"), Err(WalError::Io(_))));
        assert!(!wal.is_poisoned(), "the rollback succeeded");
        assert_eq!(StdFs.len(&path).unwrap(), before, "record truncated away");
        assert_eq!((wal.bytes(), wal.last_version()), (before, 1));

        // The failed version is free again, and replay never sees the
        // rolled-back record.
        wal.commit(2, b"retried").unwrap();
        let (_, replay) = Wal::open(fs(), &path, RetryPolicy::none()).unwrap();
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.records[1].body, b"retried");
        assert_eq!(replay.synced_version, 2);
    }

    #[test]
    fn failed_rollback_poisons_and_refuses_later_commits() {
        let (path, faults, mut wal) = faulty_log("commit_poison");
        // Fail the fsync (op +4), then the rollback's truncate (op +6: the
        // rollback runs len, truncate, sync): the unacknowledged record
        // stays on disk.
        let next = faults.ops();
        faults.set_plan(FaultPlan::new(vec![
            ScheduledFault {
                op: next + 4,
                kind: FaultKind::NoSpace,
            },
            ScheduledFault {
                op: next + 6,
                kind: FaultKind::FailOnce,
            },
        ]));
        assert!(matches!(wal.commit(2, b"stuck"), Err(WalError::Io(_))));
        assert!(wal.is_poisoned());

        // A poisoned log refuses without a single file operation.
        let (ops, len) = (faults.ops(), StdFs.len(&path).unwrap());
        assert!(matches!(wal.commit(3, b"refused"), Err(WalError::Poisoned)));
        assert_eq!(faults.ops(), ops, "no file operation after poisoning");
        assert_eq!(StdFs.len(&path).unwrap(), len);
    }

    #[test]
    fn every_prefix_cut_is_torn_tail_or_shorter_valid_log() {
        // The WAL-level half of the crash-consistency story: cutting the
        // log at *any* byte ≥ the file header yields either a clean shorter
        // log or a reported torn tail — never a corruption verdict and
        // never a record that was not fully appended.
        let path = tmp("prefixes");
        let mut wal = Wal::create(fs(), &path, RetryPolicy::none()).unwrap();
        let mut commit_ends = Vec::new();
        let mut record_ends = vec![wal.bytes()];
        for v in 1..=4u64 {
            wal.append_commit(v, format!("body for version {v}").as_bytes())
                .unwrap();
            commit_ends.push(wal.bytes());
            record_ends.push(wal.bytes());
            wal.sync().unwrap();
            record_ends.push(wal.bytes());
        }
        let full = std::fs::read(&path).unwrap();
        for cut in WAL_HEADER_LEN..=full.len() as u64 {
            StdFs.write(&path, &full[..cut as usize]).unwrap();
            let (_, replay) = Wal::open(fs(), &path, RetryPolicy::none())
                .unwrap_or_else(|e| panic!("cut at {cut}: {e:?}"));
            // Records survive exactly up to the last commit end ≤ cut.
            let expect = commit_ends.iter().filter(|&&e| e <= cut).count();
            assert_eq!(replay.records.len(), expect, "cut at {cut}");
            assert_eq!(replay.torn_tail.is_some(), !record_ends.contains(&cut));
        }
    }
}
