//! Typed errors for the query and database layers.
//!
//! Before PR 5, bad inputs panicked: a query point of the wrong
//! dimensionality indexed out of bounds somewhere inside the geometry
//! kernels, inserting a duplicate id asserted, and `run` on a spec without a
//! target point `expect`ed. A concurrent serving system cannot afford any of
//! that — one malformed request must come back as a value, not take the
//! process down — so the public API now reports every data-dependent failure
//! through two enums:
//!
//! * [`QueryError`] — read-side failures, produced by
//!   [`ProbNnEngine::execute`](crate::query::ProbNnEngine::execute) and
//!   friends;
//! * [`DbError`] — write- and persistence-side failures, produced by the
//!   [`Db`](crate::db::Db) facade, the fallible update methods on the
//!   engines, and snapshot `save`/`load`.
//!
//! Programming errors that cannot depend on runtime data (e.g. building a
//! [`QuerySpec`](crate::query::QuerySpec) with `top_k(0)`) remain documented
//! panics: they are caught by the first unit test, not by production
//! traffic.
//!
//! Since PR 9 the persistence-side errors form a *typed source chain*
//! end-to-end: a corrupt snapshot surfaces as
//! `DbError::Snapshot(SnapshotError::Decode(DecodeError::ChecksumMismatch))`
//! rather than a stringly-wrapped `io::Error`, so callers can walk
//! [`std::error::Error::source`] to the exact codec-level cause — and
//! recovery failures ([`RecoveryError`]) report *which* commit version was
//! the last durable one.

use pv_storage::codec::DecodeError;
use pv_storage::wal::WalError;
use std::fmt;
use std::path::PathBuf;

/// A read-side failure: the request cannot be answered against the engine's
/// current state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum QueryError {
    /// The query point's dimensionality differs from the indexed data's.
    DimensionMismatch {
        /// Dimensionality of the indexed data.
        expected: usize,
        /// Dimensionality of the offending query point.
        got: usize,
    },
    /// A coordinate of the query point is NaN or infinite, so no distance
    /// to it is meaningful.
    NonFinitePoint,
    /// The engine indexes no objects, so "the nearest neighbor" does not
    /// exist. (Distinguished from an empty *answer set*, which a threshold
    /// spec can legitimately produce.)
    EmptyDatabase,
    /// [`run`](crate::query::ProbNnEngine::run) was called on a spec that
    /// has no target point; build it with
    /// [`QuerySpec::point`](crate::query::QuerySpec::point) or pass the
    /// point explicitly via `execute` / `query_batch`.
    MissingTarget,
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::DimensionMismatch { expected, got } => write!(
                f,
                "query point has dimensionality {got}, the indexed data has {expected}"
            ),
            QueryError::NonFinitePoint => {
                write!(f, "query point has a NaN or infinite coordinate")
            }
            QueryError::EmptyDatabase => write!(f, "the database holds no objects"),
            QueryError::MissingTarget => write!(
                f,
                "the query spec has no target point (build it with QuerySpec::point)"
            ),
        }
    }
}

impl std::error::Error for QueryError {}

/// Why a snapshot file could not be saved or loaded: a plain I/O failure,
/// or a file that was read fine but failed to *decode* (corruption or
/// version skew, reported by the codec layer).
///
/// Splitting the two matters operationally — an `Io` failure is usually
/// environmental and retryable, a `Decode` failure means the artifact
/// itself is damaged and a different generation must be used.
#[derive(Debug)]
#[non_exhaustive]
pub enum SnapshotError {
    /// Reading or writing the snapshot file failed.
    Io(std::io::Error),
    /// The file's contents are not a valid snapshot (bad magic, checksum
    /// mismatch, unsupported version, implausible structure).
    Decode(DecodeError),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O failed: {e}"),
            SnapshotError::Decode(e) => write!(f, "snapshot is not decodable: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            SnapshotError::Decode(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        // The snapshot codecs wrap their `DecodeError` in an
        // `InvalidData` io::Error at the `save`/`load` boundary; unwrap it
        // back out so the typed chain bottoms out at the codec error
        // (`DecodeError` is `Copy`, so this loses nothing).
        if e.kind() == std::io::ErrorKind::InvalidData {
            if let Some(d) = e.get_ref().and_then(|r| r.downcast_ref::<DecodeError>()) {
                return SnapshotError::Decode(*d);
            }
        }
        SnapshotError::Io(e)
    }
}

impl From<DecodeError> for SnapshotError {
    fn from(e: DecodeError) -> Self {
        SnapshotError::Decode(e)
    }
}

/// A write- or persistence-side failure of a database operation.
#[derive(Debug)]
#[non_exhaustive]
pub enum DbError {
    /// A read-side failure surfaced through a database-level call.
    Query(QueryError),
    /// Insertion of an object id that is already indexed.
    DuplicateId(u64),
    /// Removal (or lookup) of an object id that is not indexed.
    UnknownId(u64),
    /// The object's uncertainty region lies (partly) outside the engine's
    /// domain, so index cells cannot cover it.
    OutOfDomain(u64),
    /// Snapshot persistence failed — see [`SnapshotError`] for the I/O vs.
    /// corruption split.
    Snapshot(SnapshotError),
    /// The write-ahead log rejected a durable commit; nothing was
    /// published and the engine state is unchanged.
    Wal(WalError),
    /// A previous durable-commit failure could not be rolled back (the WAL
    /// could not be truncated to its pre-append length), so the log's
    /// on-disk state is no longer trusted. All further writes are refused;
    /// reopen the database to recover.
    Poisoned,
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Query(e) => write!(f, "query failed: {e}"),
            DbError::DuplicateId(id) => write!(f, "object id {id} is already indexed"),
            DbError::UnknownId(id) => write!(f, "object id {id} is not indexed"),
            DbError::OutOfDomain(id) => {
                write!(
                    f,
                    "object {id}'s uncertainty region lies outside the domain"
                )
            }
            DbError::Snapshot(e) => write!(f, "snapshot persistence failed: {e}"),
            DbError::Wal(e) => write!(f, "durable commit failed: {e}"),
            DbError::Poisoned => write!(
                f,
                "the write-ahead log is poisoned by an unrolled-back append; \
                 reopen the database to recover"
            ),
        }
    }
}

impl std::error::Error for DbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DbError::Query(e) => Some(e),
            DbError::Snapshot(e) => Some(e),
            DbError::Wal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<QueryError> for DbError {
    fn from(e: QueryError) -> Self {
        DbError::Query(e)
    }
}

impl From<std::io::Error> for DbError {
    fn from(e: std::io::Error) -> Self {
        DbError::Snapshot(e.into())
    }
}

impl From<SnapshotError> for DbError {
    fn from(e: SnapshotError) -> Self {
        DbError::Snapshot(e)
    }
}

impl From<WalError> for DbError {
    fn from(e: WalError) -> Self {
        DbError::Wal(e)
    }
}

/// Why [`DurableDb::open`](crate::durable::DurableDb::open) could not
/// reconstruct a database from its directory.
///
/// The variants distinguish the *tolerated* crash signatures (a torn WAL
/// tail, a leftover `.tmp` snapshot — both repaired silently and reported
/// in the recovery report, not here) from genuine damage: every variant of
/// this enum means recovery refused to guess. `Log` wraps
/// [`WalError::Corrupt`] and therefore carries the last durable version the
/// caller could recover *to* by truncating the log manually.
#[derive(Debug)]
#[non_exhaustive]
pub enum RecoveryError {
    /// A directory-level file operation failed.
    Io(std::io::Error),
    /// No snapshot generation (`snap.<version>.pvix`) exists in the
    /// directory — it is not a durable-database directory, or the initial
    /// create never completed.
    MissingGeneration {
        /// The directory that was searched.
        dir: PathBuf,
    },
    /// The current snapshot generation exists but fails to load. Never
    /// silently skipped: the WAL was truncated when this generation was
    /// rotated in, so an older generation could not replay forward.
    Snapshot {
        /// The generation file that failed.
        path: PathBuf,
        /// The I/O-or-decode cause.
        source: SnapshotError,
    },
    /// The write-ahead log is unreadable or corrupt mid-log (a torn tail
    /// is *not* this — it is truncated away and reported as tolerated).
    Log(WalError),
    /// A WAL record passed its checksums but its body does not decode as
    /// an operation batch — a format bug or deliberate tampering.
    BadRecord {
        /// The commit version of the offending record.
        version: u64,
        /// What failed to decode.
        source: DecodeError,
    },
    /// The log's surviving records skip a version: commits between
    /// `expected` and `found` are missing, so replay cannot proceed.
    VersionGap {
        /// The version replay needed next.
        expected: u64,
        /// The version the log actually held.
        found: u64,
    },
    /// Replaying a logged operation against the engine failed — the log
    /// and snapshot disagree about the state the operation applies to.
    Apply {
        /// The commit version whose replay failed.
        version: u64,
        /// The engine-level failure.
        source: Box<DbError>,
    },
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::Io(e) => write!(f, "recovery I/O failed: {e}"),
            RecoveryError::MissingGeneration { dir } => write!(
                f,
                "no snapshot generation found in {}: not a durable database directory",
                dir.display()
            ),
            RecoveryError::Snapshot { path, source } => write!(
                f,
                "snapshot generation {} failed to load: {source}",
                path.display()
            ),
            RecoveryError::Log(e) => write!(f, "write-ahead log replay failed: {e}"),
            RecoveryError::BadRecord { version, .. } => write!(
                f,
                "WAL record for version {version} passed checksums but does not decode"
            ),
            RecoveryError::VersionGap { expected, found } => write!(
                f,
                "WAL replay expected version {expected} next but found {found}"
            ),
            RecoveryError::Apply { version, source } => {
                write!(f, "replaying commit version {version} failed: {source}")
            }
        }
    }
}

impl std::error::Error for RecoveryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoveryError::Io(e) => Some(e),
            RecoveryError::MissingGeneration { .. } => None,
            RecoveryError::Snapshot { source, .. } => Some(source),
            RecoveryError::Log(e) => Some(e),
            RecoveryError::BadRecord { source, .. } => Some(source),
            RecoveryError::VersionGap { .. } => None,
            RecoveryError::Apply { source, .. } => Some(source),
        }
    }
}

impl From<std::io::Error> for RecoveryError {
    fn from(e: std::io::Error) -> Self {
        RecoveryError::Io(e)
    }
}

impl From<WalError> for RecoveryError {
    fn from(e: WalError) -> Self {
        RecoveryError::Log(e)
    }
}

/// A construction failure of [`PvIndex::try_build`](crate::PvIndex::try_build).
///
/// Phase-1 SE computation fans out over worker threads; before PR 8 a
/// panicking worker was re-raised through `.expect("worker")` and took the
/// whole process down. The work-stealing build instead drains every worker,
/// captures the first panic payload, and surfaces it as a value — mirroring
/// the per-worker error slots of the batch query path.
#[derive(Debug)]
#[non_exhaustive]
pub enum BuildError {
    /// A Phase-1 worker thread panicked while computing UBRs. The payload's
    /// message (when it is a string) is preserved for diagnosis.
    WorkerPanicked {
        /// Panic message, or a placeholder for non-string payloads.
        message: String,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::WorkerPanicked { message } => {
                write!(f, "a UBR construction worker panicked: {message}")
            }
        }
    }
}

impl std::error::Error for BuildError {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn display_is_informative() {
        let e = QueryError::DimensionMismatch {
            expected: 3,
            got: 2,
        };
        assert!(e.to_string().contains('3') && e.to_string().contains('2'));
        assert!(DbError::DuplicateId(7).to_string().contains('7'));
        assert!(DbError::UnknownId(9).to_string().contains('9'));
        assert!(DbError::OutOfDomain(4).to_string().contains('4'));
        let b = BuildError::WorkerPanicked {
            message: "poisoned".into(),
        };
        assert!(b.to_string().contains("poisoned"));
    }

    #[test]
    fn conversions_and_sources() {
        let q: DbError = QueryError::EmptyDatabase.into();
        assert!(matches!(q, DbError::Query(QueryError::EmptyDatabase)));
        assert!(q.source().is_some());
        let io: DbError = std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into();
        assert!(matches!(io, DbError::Snapshot(SnapshotError::Io(_))));
        assert!(io.source().is_some());
        assert!(DbError::DuplicateId(1).source().is_none());
    }

    #[test]
    fn snapshot_corruption_chains_to_the_codec_error() {
        // The snapshot codecs wrap DecodeError in an InvalidData io::Error
        // at the save/load boundary; the typed chain must unwrap it.
        let decode = DecodeError::ChecksumMismatch {
            context: "PV-index snapshot",
        };
        let io = std::io::Error::new(std::io::ErrorKind::InvalidData, decode);
        let db: DbError = io.into();
        match &db {
            DbError::Snapshot(SnapshotError::Decode(DecodeError::ChecksumMismatch { context })) => {
                assert_eq!(*context, "PV-index snapshot")
            }
            other => panic!("expected a Decode chain, got {other:?}"),
        }
        // source() walks DbError -> SnapshotError -> DecodeError.
        let snap = db.source().expect("snapshot level");
        let codec = snap.source().expect("codec level");
        assert!(codec.to_string().contains("checksum"));

        // Plain I/O failures stay on the Io side of the split.
        let not_found = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        assert!(matches!(
            SnapshotError::from(not_found),
            SnapshotError::Io(_)
        ));
    }

    #[test]
    fn recovery_error_display_and_sources() {
        let gap = RecoveryError::VersionGap {
            expected: 4,
            found: 6,
        };
        assert!(gap.to_string().contains('4') && gap.to_string().contains('6'));
        assert!(gap.source().is_none());

        let apply = RecoveryError::Apply {
            version: 9,
            source: Box::new(DbError::UnknownId(3)),
        };
        assert!(apply.to_string().contains('9'));
        assert!(apply.source().unwrap().to_string().contains('3'));

        let missing = RecoveryError::MissingGeneration {
            dir: PathBuf::from("/tmp/x"),
        };
        assert!(missing.to_string().contains("/tmp/x"));

        let log: RecoveryError = WalError::Io(std::io::Error::other("disk fell off")).into();
        assert!(log.source().is_some());
        assert!(log.to_string().contains("replay failed"));
    }
}
